//! `ndss index`: build the k inverted indexes for a corpus file.
//!
//! Plain mode writes the index straight into `--out`. With `--store`,
//! `--out` is a *store*: the build lands in freshly allocated `seg-NNNN/`
//! segment directories and is published (verified, then one atomic
//! `MANIFEST` write) only after it completes. `--resume` continues an
//! interrupted `--external` build from its journal.
//!
//! `--shards N` (requires `--store`; default 1) partitions the corpus by
//! text-id range into N segments (`--shards auto` derives N from corpus
//! size and core count; see `auto_shards`) and builds them in parallel.
//! In store mode `--resume` works per segment: completed ones are reused
//! as-is, journaled ones continue, so a killed build resumes
//! byte-identically.

use std::path::Path;
use std::time::Instant;

use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss index` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &[
    "corpus",
    "out",
    "k",
    "t",
    "seed",
    "external",
    "memory-budget",
    "format",
    "resume",
    "store",
    "keep",
    "shards",
    "metrics-out",
];

pub fn run(args: &Args) -> Result<(), String> {
    let corpus_path = args.required("corpus")?;
    let out = args.required("out")?;
    let k: usize = args.get_or("k", 32)?;
    let t: usize = args.get_or("t", 25)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let external = args.flag("external");
    let resume = args.flag("resume");
    let store_mode = args.flag("store");
    let keep: usize = args.get_or("keep", 1)?;
    let memory_budget: usize = args.get_or("memory-budget", ndss::index::DEFAULT_MEMORY_BUDGET)?;
    if k == 0 || t == 0 {
        return Err("--k and --t must be positive".into());
    }

    let corpus = DiskCorpus::open(Path::new(corpus_path)).map_err(|e| e.to_string())?;

    let shards: usize = match args.get("shards") {
        None => 1,
        Some("auto") => auto_shards(&corpus),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--shards: '{raw}' is not an integer (or 'auto')"))?,
    };
    if !store_mode && args.get("shards").is_some() {
        return Err("--shards requires --store (shards are segments of one store)".into());
    }
    if !store_mode && resume && !external {
        return Err("--resume requires --external (only journaled builds can resume)".into());
    }

    let config = super::with_format(IndexConfig::new(k, t, seed), args)?;
    if store_mode {
        return run_store(
            args,
            &corpus,
            config,
            out,
            shards,
            external,
            resume,
            keep,
            memory_budget,
        );
    }
    eprintln!(
        "indexing {} texts / {} tokens (k = {k}, t = {t}, {})…",
        corpus.num_texts(),
        corpus.total_tokens(),
        if external {
            "external: budget-sized runs, then merge"
        } else {
            "in-memory parallel"
        }
    );

    let build_dir = Path::new(out);
    eprintln!("on-disk format: {}", config.format_name());
    let start = Instant::now();
    let index = if external {
        ExternalIndexBuilder::new(config)
            .memory_budget(memory_budget)
            .parallel(true)
            .resume(resume)
            .build(&corpus, build_dir)
    } else {
        ndss::index::build_and_write(&corpus, config, build_dir, true)
    }
    .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let bytes = index.size_bytes().map_err(|e| e.to_string())?;
    println!(
        "built {k} inverted indexes in {elapsed:.2?}: {} postings, {:.1} MiB on disk ({})",
        (0..k)
            .map(|f| index.postings_for_function(f).unwrap_or(0))
            .sum::<u64>(),
        bytes as f64 / (1 << 20) as f64,
        build_dir.display()
    );
    println!(
        "index/corpus size ratio: {:.3} total ({:.4} per hash function; paper bound 8/t = {:.3})",
        bytes as f64 / (corpus.total_tokens() as f64 * 4.0),
        bytes as f64 / (corpus.total_tokens() as f64 * 4.0) / k as f64,
        8.0 / t as f64
    );
    crate::obs::maybe_write_metrics(args)
}

/// `--shards auto`: pick a shard count from the corpus and the machine.
///
/// The formula is `clamp(ceil(token_payload / 256 MiB), 1, cores)`, further
/// capped at `num_texts`: one shard per ~256 MiB of token payload (4 bytes
/// per token) keeps each shard's postings well inside a single machine's
/// page cache working set, the core cap stops shard counts from exceeding
/// the build/query parallelism actually available, and a shard must own at
/// least one text.
fn auto_shards(corpus: &DiskCorpus) -> usize {
    const TARGET_SHARD_BYTES: u64 = 256 << 20;
    let payload_bytes = corpus.total_tokens().saturating_mul(4);
    let by_size = payload_bytes.div_ceil(TARGET_SHARD_BYTES).max(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let picked = (by_size.min(cores as u64) as usize).clamp(1, corpus.num_texts().max(1));
    eprintln!(
        "--shards auto: {picked} shard(s) (payload {:.1} MiB / 256 MiB target, {cores} cores, {} texts)",
        payload_bytes as f64 / (1 << 20) as f64,
        corpus.num_texts()
    );
    picked
}

/// `--store`: partition into `shards` segments, build them in parallel,
/// publish them with one manifest write.
#[allow(clippy::too_many_arguments)]
fn run_store(
    args: &Args,
    corpus: &DiskCorpus,
    config: IndexConfig,
    out: &str,
    shards: usize,
    external: bool,
    resume: bool,
    keep: usize,
    memory_budget: usize,
) -> Result<(), String> {
    eprintln!(
        "indexing {} texts / {} tokens into {shards} segment(s) (k = {}, t = {}, format {})…",
        corpus.num_texts(),
        corpus.total_tokens(),
        config.k,
        config.t,
        config.format_name()
    );
    let opts = ShardedBuildOptions {
        external,
        memory_budget,
        resume,
        keep,
        ..ShardedBuildOptions::default()
    };
    let start = Instant::now();
    let store = ndss::index::build_sharded(corpus, config, Path::new(out), shards, &opts)
        .map_err(|e| e.to_string())?;
    let manifest = store.manifest().map_err(|e| e.to_string())?;
    println!(
        "built and published {shards} segment(s) in {:.2?}: manifest generation {} in {out} \
         (keeping {keep} previous list(s))",
        start.elapsed(),
        manifest.generation
    );
    for seg in &manifest.segments {
        println!(
            "  {}: texts [{}, {})",
            seg.dir,
            seg.first_text,
            seg.first_text as u64 + seg.num_texts
        );
    }
    crate::obs::maybe_write_metrics(args)
}
