//! Quickstart: build an index over a synthetic corpus and run a few
//! near-duplicate searches.
//!
//! ```text
//! cargo run -p ndss-examples --release --example quickstart
//! ```

use ndss::prelude::*;

fn main() {
    // 1. A corpus. Real deployments tokenize raw text with the BPE
    //    tokenizer (see the plagiarism_check example); here we generate a
    //    Zipfian synthetic corpus with planted near-duplicates so the
    //    example is self-contained and has known ground truth.
    println!("generating corpus…");
    let (corpus, planted) = SyntheticCorpusBuilder::new(2024)
        .num_texts(2_000)
        .text_len(200, 600)
        .vocab_size(32_000)
        .duplicates_per_text(0.5)
        .dup_len(60, 150)
        .mutation_rate(0.05)
        .build();
    println!(
        "  {} texts, {} tokens, {} planted near-duplicate pairs",
        corpus.num_texts(),
        corpus.total_tokens(),
        planted.len()
    );

    // 2. Index every sequence of at least t = 25 tokens, with k = 32
    //    min-hash functions (the paper's defaults for the memorization
    //    study).
    println!("building index (k = 32, t = 25)…");
    let start = std::time::Instant::now();
    let index =
        MemoryIndex::build_parallel(&corpus, IndexConfig::new(32, 25, 7)).expect("index build");
    println!(
        "  built in {:.2?}: {} postings across {} inverted indexes",
        start.elapsed(),
        index.total_postings(),
        index.config().k
    );

    // 3. Query with a mutated copy of a planted duplicate — the searcher
    //    (the paper's 5% prefix filter) must find the original.
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).expect("searcher");
    let p = &planted[0];
    let query = corpus.sequence_to_vec(p.dst).expect("planted span");
    println!(
        "\nquery: the planted copy at text {} [{}, {}] ({} tokens, {} mutated)",
        p.dst.text,
        p.dst.span.start,
        p.dst.span.end,
        p.dst.span.len(),
        p.mutated_tokens
    );
    for theta in [1.0, 0.9, 0.8, 0.7] {
        let outcome = searcher.search(&query, theta).expect("search");
        println!(
            "  θ = {theta:.1}: {:3} matched texts, {:6} qualifying sequences, \
             {:.2?} total (gather {:.2?}, count {:.2?}, probe {:.2?})",
            outcome.num_texts(),
            outcome.total_sequences(),
            outcome.stats.total,
            outcome.stats.stage_gather,
            outcome.stats.stage_count,
            outcome.stats.stage_probe,
        );
        if let Some(m) = outcome.matches.iter().find(|m| m.text == p.src.text) {
            let spans = m.merged_spans(outcome.t);
            println!(
                "       → planted source text {} found; merged span(s): {:?}",
                m.text,
                spans.iter().map(|s| (s.start, s.end)).collect::<Vec<_>>()
            );
        }
    }

    // 4. Verified mode: keep only sequences whose *true* distinct Jaccard
    //    similarity reaches the threshold.
    let (verified, _) = searcher
        .search_verified(&query, 0.8, &corpus, 1_000_000)
        .expect("verified search");
    println!(
        "\nverified (true Jaccard ≥ 0.8): {} sequences",
        verified.len()
    );
    if let Some(seq) = verified.iter().find(|s| s.text == p.src.text) {
        let tokens = corpus.sequence_to_vec(*seq).expect("sequence");
        println!(
            "  e.g. text {} [{}, {}], J = {:.3}",
            seq.text,
            seq.span.start,
            seq.span.end,
            distinct_jaccard(&query, &tokens)
        );
    }
}
