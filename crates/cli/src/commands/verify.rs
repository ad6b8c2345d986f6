//! `ndss verify`: end-to-end integrity check of stored artifacts.
//!
//! Opening an index or corpus already validates headers, section sizes, and
//! the checksums of everything loaded into memory; this command additionally
//! streams the payload sections (postings/blocks, zone maps, token data)
//! against their stored CRC-32Cs, so together every byte on disk is covered.
//!
//! `--store` verifies a generation store's `CURRENT` generation (or every
//! generation with `--all-generations`, one status line each). The exit
//! code is nonzero whenever the CURRENT generation fails — that is the one
//! queries are being served from. Stores with a live memtable (`ndss
//! ingest`) additionally get the memtable walked: manifest checksum, WAL
//! frame CRCs, text-id continuity, and the trim watermark against the
//! published generation — a failure there means acked texts are at risk,
//! so it too is fatal.
//!
//! When `--store` points at a *sharded* store (a `MANIFEST` is present),
//! the checksummed manifest is validated first, then every shard's serving
//! generation is verified — one status line per shard, including the check
//! that each shard's index covers exactly the text range the manifest
//! claims. Any shard failure makes the exit code nonzero: a sharded store
//! serves a query from all shards, so one bad shard poisons every answer.

use std::path::Path;
use std::time::Instant;

use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss verify` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &["corpus", "index", "store", "all-generations"];

/// Verifies one generation directory; returns its status-line suffix.
fn verify_generation(dir: &Path) -> Result<String, String> {
    let start = Instant::now();
    let index = DiskIndex::open(dir).map_err(|e| e.to_string())?;
    index.verify_integrity().map_err(|e| e.to_string())?;
    let io = index.io_snapshot();
    Ok(format!(
        "ok (k = {}, {:.1} MiB streamed, {:.2}s)",
        index.config().k,
        io.bytes as f64 / (1 << 20) as f64,
        start.elapsed().as_secs_f64()
    ))
}

/// `--store` on a sharded store: manifest validation, then one status line
/// per shard's serving generation. Any failure is an error — every shard
/// participates in every answer.
fn run_sharded_store(root: &str) -> Result<(), String> {
    let store = ShardedStore::open(Path::new(root)).map_err(|e| e.to_string())?;
    let manifest = store.manifest();
    println!(
        "store {root}: sharded, {} shards / {} texts, manifest generation {}",
        store.num_shards(),
        manifest.num_texts(),
        manifest.generation
    );
    let mut failures = 0usize;
    for (i, spec) in manifest.shards.iter().enumerate() {
        let start = Instant::now();
        match store.verify_shard(i) {
            Ok(()) => println!(
                "  {} [{}..{}): {} ok ({:.2}s)",
                spec.name,
                spec.first_text,
                spec.first_text as u64 + spec.num_texts,
                spec.serving.as_deref().unwrap_or("-"),
                start.elapsed().as_secs_f64()
            ),
            Err(e) => {
                println!(
                    "  {} [{}..{}): {} FAILED: {e}",
                    spec.name,
                    spec.first_text,
                    spec.first_text as u64 + spec.num_texts,
                    spec.serving.as_deref().unwrap_or("-")
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!(
            "{failures} of {} shards failed verification",
            store.num_shards()
        ));
    }
    Ok(())
}

/// The memtable walk for `--store`: manifest checksum, WAL frame CRCs,
/// text-id continuity, and the trim watermark against the published
/// generation. Absent memtables are fine; a broken one is an error — its
/// acked texts are part of what the store promises to serve.
fn run_memtable(root: &str) -> Result<(), String> {
    let start = Instant::now();
    match verify_memtable(Path::new(root)) {
        Ok(None) => Ok(()),
        Ok(Some(report)) => {
            let torn = if report.torn_tails > 0 {
                format!(", {} torn tail(s) pending truncation", report.torn_tails)
            } else {
                String::new()
            };
            println!(
                "memtable: ok ({} WAL file(s), {} frames, {} pending texts{torn}, {:.2}s)",
                report.wal_files,
                report.frames,
                report.pending_texts,
                start.elapsed().as_secs_f64()
            );
            Ok(())
        }
        Err(e) => {
            println!("memtable: FAILED: {e}");
            Err(format!("memtable failed verification: {e}"))
        }
    }
}

/// `--store` mode: per-generation status, error iff CURRENT fails.
fn run_store(root: &str, all: bool) -> Result<(), String> {
    if ShardedStore::is_sharded(Path::new(root)) {
        return run_sharded_store(root);
    }
    let store = GenerationStore::open(Path::new(root)).map_err(|e| e.to_string())?;
    let generations = store.generations().map_err(|e| e.to_string())?;
    if generations.is_empty() {
        if IngestIndex::is_present(Path::new(root)) {
            return run_memtable(root);
        }
        return Err(format!("store {root} has no generations"));
    }
    let mut current_failure: Option<String> = None;
    let mut saw_current = false;
    for info in &generations {
        if !all && !info.current {
            continue;
        }
        saw_current |= info.current;
        let marker = if info.current { " [CURRENT]" } else { "" };
        if !info.complete {
            let state = if info.resumable {
                "incomplete (resumable: build.journal present)"
            } else {
                "incomplete"
            };
            println!("generation {}{marker}: {state}", info.name);
            continue;
        }
        match verify_generation(&store.root().join(&info.name)) {
            Ok(status) => println!("generation {}{marker}: {status}", info.name),
            Err(e) => {
                println!("generation {}{marker}: FAILED: {e}", info.name);
                if info.current {
                    current_failure = Some(e);
                }
            }
        }
    }
    run_memtable(root)?;
    if let Some(e) = current_failure {
        return Err(format!("CURRENT generation failed verification: {e}"));
    }
    if !saw_current {
        let current = store.current().map_err(|e| e.to_string())?;
        match current {
            Some(name) => {
                return Err(format!(
                    "CURRENT names {name}, which does not exist in the store"
                ))
            }
            None => println!("store {root}: no CURRENT pointer (nothing is serving)"),
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<(), String> {
    let mut checked = false;
    if let Some(store_root) = args.get("store") {
        checked = true;
        run_store(store_root, args.flag("all-generations"))?;
    }
    if let Some(corpus_path) = args.get("corpus") {
        checked = true;
        let start = Instant::now();
        let corpus = DiskCorpus::open(Path::new(corpus_path)).map_err(|e| e.to_string())?;
        corpus.verify().map_err(|e| e.to_string())?;
        println!(
            "corpus {corpus_path}: ok ({} texts, {} tokens, {:.2}s)",
            corpus.num_texts(),
            corpus.total_tokens(),
            start.elapsed().as_secs_f64()
        );
    }
    if let Some(index_dir) = args.get("index") {
        checked = true;
        let start = Instant::now();
        let index =
            DiskIndex::open(&resolve_index_dir(Path::new(index_dir))).map_err(|e| e.to_string())?;
        index.verify_integrity().map_err(|e| e.to_string())?;
        let io = index.io_snapshot();
        println!(
            "index {index_dir}: ok (k = {}, {:.1} MiB streamed, {:.2}s)",
            index.config().k,
            io.bytes as f64 / (1 << 20) as f64,
            start.elapsed().as_secs_f64()
        );
    }
    if !checked {
        return Err(
            "nothing to verify: pass --corpus FILE, --index DIR, and/or --store DIR".into(),
        );
    }
    Ok(())
}
