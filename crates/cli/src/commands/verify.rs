//! `ndss verify`: end-to-end integrity check of stored artifacts.
//!
//! Opening an index or corpus already validates headers, section sizes, and
//! the checksums of everything loaded into memory; this command additionally
//! streams the payload sections (postings/blocks, zone maps, token data)
//! against their stored CRC-32Cs, so together every byte on disk is covered.
//!
//! `--store` validates the checksummed `MANIFEST`, then verifies every
//! serving segment — one status line each, including the check that each
//! segment indexes exactly the texts its row assigns. Any failure makes the
//! exit code nonzero: a query is answered from every segment, so one bad
//! segment poisons every answer. Stores with a live memtable (`ndss
//! ingest`) additionally get the memtable walked: manifest checksum, WAL
//! frame CRCs, text-id continuity, and the trim watermark against the
//! published list — a failure there means acked texts are at risk, so it
//! too is fatal.

use std::path::Path;
use std::time::Instant;

use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss verify` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &["corpus", "index", "store"];

/// The memtable walk for `--store`: manifest checksum, WAL frame CRCs,
/// text-id continuity, and the trim watermark against the published
/// list. Absent memtables are fine; a broken one is an error — its
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

/// `--store` mode: one status line per serving segment, then the memtable
/// walk; an error if any of them fails. Reads only: nothing is swept.
fn run_store(root: &str) -> Result<(), String> {
    let path = Path::new(root);
    let manifest = Manifest::load(path).map_err(|e| e.to_string())?;
    let manifest = manifest.unwrap_or_default();
    if manifest.segments.is_empty() && !IngestIndex::is_present(path) {
        return Err(format!("store {root} has no published segments"));
    }
    println!(
        "store {root}: {} segment(s) / {} texts, manifest generation {}",
        manifest.segments.len(),
        manifest.num_texts(),
        manifest.generation
    );
    let mut failures = 0usize;
    for (i, seg) in manifest.segments.iter().enumerate() {
        let start = Instant::now();
        let range = format!(
            "{} [{}..{})",
            seg.dir,
            seg.first_text,
            seg.first_text as u64 + seg.num_texts
        );
        match manifest.verify_segment(path, i) {
            Ok(_) => println!("  {range}: ok ({:.2}s)", start.elapsed().as_secs_f64()),
            Err(e) => {
                println!("  {range}: FAILED: {e}");
                failures += 1;
            }
        }
    }
    run_memtable(root)?;
    if failures > 0 {
        return Err(format!(
            "{failures} of {} segments failed verification",
            manifest.segments.len()
        ));
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<(), String> {
    let mut checked = false;
    if let Some(store_root) = args.get("store") {
        checked = true;
        run_store(store_root)?;
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
        let streamed = index.verify_integrity().map_err(|e| e.to_string())?;
        println!(
            "index {index_dir}: ok (k = {}, {:.1} MiB streamed, {:.2}s)",
            index.config().k,
            streamed as f64 / (1 << 20) as f64,
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
