//! `ndss search`: query an index for near-duplicate sequences.
//!
//! The `--index` argument accepts a plain index directory or a store
//! (built with `ndss index --store [--shards N]`). Both open as a
//! [`ShardedIndex`] — the first with one segment — and run the same
//! scatter-gather with bit-identical results.

use std::path::Path;

use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss search` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &[
    "index",
    "theta",
    "query-tokens",
    "query-span",
    "query",
    "tokenizer",
    "corpus",
    "top",
    "profile",
    "deadline-ms",
    "max-io-bytes",
    "max-candidates",
    "max-matches",
    "queries-file",
    "threads",
    "metrics-out",
];

/// Opens `--index` — a plain directory (the one-segment case) or a store.
fn open_view(index_dir: &str) -> Result<ShardedIndex, String> {
    ShardedIndex::open(Path::new(index_dir)).map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Result<(), String> {
    let index_dir = args.required("index")?;
    let theta: f64 = args.get_or("theta", 0.8)?;
    let top: usize = args.get_or("top", 10)?;
    let profile = args.flag("profile");

    // Batch mode: a file of queries fanned out over a thread pool.
    if let Some(path) = args.get("queries-file") {
        run_batch(args, index_dir, path, theta, profile)?;
        return crate::obs::maybe_write_metrics(args);
    }

    // Query source: explicit token ids, a span of the corpus itself, or raw
    // text through a tokenizer.
    let query: Vec<u32> = if let Some(tokens) = args.get("query-tokens") {
        tokens
            .split(',')
            .map(|p| p.trim().parse().map_err(|e| format!("bad token id: {e}")))
            .collect::<Result<_, _>>()?
    } else if let Some(span) = args.get("query-span") {
        // text:start:end — e.g. --query-span 6:70:265 --corpus c.ndsc
        let parts: Vec<u32> = span
            .split(':')
            .map(|p| p.parse().map_err(|e| format!("bad --query-span: {e}")))
            .collect::<Result<_, _>>()?;
        let [text, start, end] = parts[..] else {
            return Err("--query-span must be text:start:end".into());
        };
        if start > end {
            return Err("--query-span start exceeds end".into());
        }
        let corpus_path = args
            .required("corpus")
            .map_err(|_| "--query-span needs --corpus FILE".to_string())?;
        let corpus = DiskCorpus::open(Path::new(corpus_path)).map_err(|e| e.to_string())?;
        corpus
            .sequence_to_vec(SeqRef::new(text, start, end))
            .map_err(|e| e.to_string())?
    } else if let Some(text) = args.get("query") {
        let tok_path = args.required("tokenizer").map_err(|_| {
            "raw-text queries need --tokenizer FILE (from 'ndss tokenize')".to_string()
        })?;
        let tokenizer = BpeTokenizer::load(Path::new(tok_path)).map_err(|e| e.to_string())?;
        tokenizer.encode(text)
    } else {
        return Err("provide --query-tokens a,b,c or --query TEXT --tokenizer FILE".into());
    };
    if query.is_empty() {
        return Err("query is empty after tokenization".into());
    }

    let budget = parse_budget(args)?;
    let view = open_view(index_dir)?;
    let (k, t) = (view.config().k, view.config().t);
    if query.len() < t {
        eprintln!(
            "note: query has {} tokens but the index only contains sequences of ≥ {t} tokens",
            query.len()
        );
    }
    let searcher = view
        .searcher_with_filter(PrefixFilter::default())
        .map_err(|e| e.to_string())?;
    let outcome = match searcher.search_governed(&query, theta, &budget) {
        Ok(outcome) => outcome,
        Err(QueryError::BudgetExceeded { resource, partial }) => {
            eprintln!(
                "warning: {resource} budget exhausted — showing the partial (incomplete) \
                 result set found before stopping"
            );
            *partial
        }
        Err(e) => return Err(e.to_string()),
    };
    let ranked = ndss::query::search::rank(&outcome, k, top);

    if ranked.is_empty() {
        println!("no near-duplicate sequences at θ = {theta}");
        if profile {
            crate::obs::print_profile(&outcome.stats, 1);
        }
        return crate::obs::maybe_write_metrics(args);
    }
    println!(
        "{} matched text(s) at θ = {theta} (k = {k}, β = {}):",
        ranked.len(),
        ndss::hash::minhash::collision_threshold(k, theta),
    );

    // Optional decode support.
    let corpus = match args.get("corpus") {
        Some(path) => Some(DiskCorpus::open(Path::new(path)).map_err(|e| e.to_string())?),
        None => None,
    };
    let tokenizer = match args.get("tokenizer") {
        Some(path) => Some(BpeTokenizer::load(Path::new(path)).map_err(|e| e.to_string())?),
        None => None,
    };

    for m in &ranked {
        println!(
            "  text {:>8}  est. similarity {:.3} ({} of {} collisions)  spans {:?}",
            m.text,
            m.estimated_similarity,
            m.collisions,
            k,
            m.spans.iter().map(|s| (s.start, s.end)).collect::<Vec<_>>()
        );
        if let (Some(corpus), Some(span)) = (&corpus, m.spans.first()) {
            let tokens = corpus
                .sequence_to_vec(SeqRef {
                    text: m.text,
                    span: *span,
                })
                .map_err(|e| e.to_string())?;
            let rendered = match &tokenizer {
                Some(tok) => tok
                    .try_decode(&tokens)
                    .unwrap_or_else(|_| PseudoWords::render(&tokens)),
                None => PseudoWords::render(&tokens),
            };
            let preview: String = rendered.chars().take(160).collect();
            println!("            “{preview}…”");
        }
    }
    if profile {
        crate::obs::print_profile(&outcome.stats, 1);
    }
    crate::obs::maybe_write_metrics(args)
}

/// Assembles a per-query [`QueryBudget`] from `--deadline-ms`,
/// `--max-io-bytes`, `--max-candidates`, and `--max-matches`. Omitted flags
/// leave that dimension unlimited.
fn parse_budget(args: &Args) -> Result<QueryBudget, String> {
    let mut budget = QueryBudget::unlimited();
    if let Some(raw) = args.get("deadline-ms") {
        let ms: u64 = raw
            .parse()
            .map_err(|e| format!("invalid --deadline-ms: {e}"))?;
        budget = budget.time_limit(std::time::Duration::from_millis(ms));
    }
    if let Some(raw) = args.get("max-io-bytes") {
        let bytes: u64 = raw
            .parse()
            .map_err(|e| format!("invalid --max-io-bytes: {e}"))?;
        budget = budget.max_io_bytes(bytes);
    }
    if let Some(raw) = args.get("max-candidates") {
        let n: u64 = raw
            .parse()
            .map_err(|e| format!("invalid --max-candidates: {e}"))?;
        budget = budget.max_candidates(n);
    }
    if let Some(raw) = args.get("max-matches") {
        let n: usize = raw
            .parse()
            .map_err(|e| format!("invalid --max-matches: {e}"))?;
        budget = budget.max_result_matches(n);
    }
    Ok(budget)
}

/// `--queries-file FILE [--threads N]`: one query per line as
/// comma-separated token ids; blank lines and `#` comments are skipped.
/// Queries run through [`ShardedSearcher::search_all_governed`] — the one
/// batch driver, whatever the layout of `--index` — under the per-query
/// budget flags (`--deadline-ms` etc.). Every query gets its own line, in
/// input order: a tripped budget prints its partial answer marked as such,
/// a failing query its error. An aggregate throughput/IO summary follows,
/// and a completed / partial / failed count when not all completed.
fn run_batch(
    args: &Args,
    index_dir: &str,
    path: &str,
    theta: f64,
    profile: bool,
) -> Result<(), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut queries: Vec<Vec<u32>> = Vec::new();
    for (lineno, line) in raw.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<u32> = line
            .split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|e| format!("{path}:{}: bad token id: {e}", lineno + 1))
            })
            .collect::<Result<_, _>>()?;
        queries.push(tokens);
    }
    if queries.is_empty() {
        return Err(format!("{path} contains no queries"));
    }

    let threads: usize = args.get_or("threads", 0)?;
    let threads = if threads == 0 {
        ndss::parallel::default_threads()
    } else {
        threads
    };

    let budget = parse_budget(args)?;
    let view = open_view(index_dir)?;
    let searcher = view
        .searcher_with_filter(PrefixFilter::default())
        .map_err(|e| e.to_string())?
        .threads(threads);
    let start = std::time::Instant::now();
    let results = searcher.search_all_governed(&queries, theta, &budget);
    let elapsed = start.elapsed();

    let mut io_bytes = 0u64;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut matched = 0usize;
    let (mut completed, mut partial, mut failed) = (0usize, 0usize, 0usize);
    let mut stats: Vec<&ndss::query::QueryStats> = Vec::new();
    for (i, result) in results.iter().enumerate() {
        let (outcome, note) = match result {
            Ok(outcome) => {
                completed += 1;
                (outcome, "")
            }
            Err(QueryError::BudgetExceeded {
                partial: outcome, ..
            }) => {
                partial += 1;
                (&**outcome, "  [partial: budget exhausted]")
            }
            Err(e) => {
                failed += 1;
                println!("query {i:>5}: failed ({e})");
                continue;
            }
        };
        io_bytes += outcome.stats.io_bytes;
        cache_hits += outcome.stats.cache_hits;
        cache_misses += outcome.stats.cache_misses;
        stats.push(&outcome.stats);
        if outcome.num_texts() > 0 {
            matched += 1;
        }
        println!(
            "query {i:>5}: {} text(s), {} sequence(s), {} postings, {} KiB IO{note}",
            outcome.num_texts(),
            outcome.total_sequences(),
            outcome.stats.postings_read,
            outcome.stats.io_bytes / 1024,
        );
    }
    let qps = results.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "\n{} queries on {threads} thread(s) in {:.3} s ({qps:.1} queries/s); \
         {matched} matched at θ = {theta}",
        results.len(),
        elapsed.as_secs_f64(),
    );
    let lookups = cache_hits + cache_misses;
    if lookups > 0 {
        println!(
            "IO: {:.2} MiB read, posting-list cache hit rate {:.1}% ({cache_hits}/{lookups})",
            io_bytes as f64 / (1024.0 * 1024.0),
            100.0 * cache_hits as f64 / lookups as f64,
        );
    }
    if partial + failed > 0 {
        println!("governance: {completed} completed, {partial} partial (budget), {failed} failed");
    }
    if profile {
        // Stage times are summed across queries (total thread-time per
        // stage); latency percentiles come from the registry histogram.
        let mut summed = ndss::query::QueryStats::default();
        for s in &stats {
            summed.accumulate(s);
        }
        crate::obs::print_profile(&summed, stats.len().max(1));
        crate::obs::print_latency_percentiles();
    }
    Ok(())
}
