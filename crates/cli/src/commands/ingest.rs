//! `ndss ingest`: stream texts into a store's memtable.
//!
//! Reads one text per line (token ids separated by commas and/or
//! whitespace; blank lines and `#` comments skipped) from `--input` or
//! stdin, appends each through the WAL-backed in-memory segment, and
//! fsyncs before reporting — every text counted in the summary is durable.
//!
//! By default frozen segments (those rotated away once the active WAL
//! passed `--flush-bytes`) are compacted into the published store before
//! exit; `--seal` additionally rotates and compacts the active segment, so
//! the memtable ends empty and everything is served from disk. `--no-compact`
//! leaves compaction to a later run or the serve daemon's background
//! compactor.
//!
//! A fresh store (no segment, no memtable) needs the index shape:
//! `--k`, `--t`, `--seed`, and optionally `--format v3|v4|v6`. An existing
//! store ignores these and keeps its configuration.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::time::Instant;

use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss ingest` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &[
    "store",
    "input",
    "flush-bytes",
    "fsync-every",
    "keep",
    "seal",
    "no-compact",
    "k",
    "t",
    "seed",
    "format",
    "metrics-out",
];

/// Parses one input line into a token sequence. Tokens are unsigned 32-bit
/// ids separated by commas and/or whitespace.
fn parse_line(line: &str, lineno: usize) -> Result<Option<Vec<TokenId>>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let tokens: Result<Vec<TokenId>, String> = trimmed
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.parse::<TokenId>()
                .map_err(|_| format!("line {lineno}: '{part}' is not a token id"))
        })
        .collect();
    let tokens = tokens?;
    if tokens.is_empty() {
        return Ok(None);
    }
    Ok(Some(tokens))
}

pub fn run(args: &Args) -> Result<(), String> {
    let store_root = args.required("store")?;
    let defaults = IngestOptions::default();
    let opts = IngestOptions {
        flush_bytes: args.get_or("flush-bytes", defaults.flush_bytes)?,
        fsync_every: args.get_or("fsync-every", defaults.fsync_every)?,
        keep: args.get_or("keep", defaults.keep)?,
        ..defaults
    };
    let seal = args.flag("seal");
    let no_compact = args.flag("no-compact");
    if seal && no_compact {
        return Err("--seal and --no-compact are contradictory".into());
    }

    // Configuration for a store that has never seen an index or an ingest;
    // an existing store derives its shape from its last segment or the
    // memtable manifest and ignores this.
    let k: usize = args.get_or("k", 32)?;
    let t: usize = args.get_or("t", 25)?;
    let seed: u64 = args.get_or("seed", 7)?;
    if k == 0 || t == 0 {
        return Err("--k and --t must be positive".into());
    }
    let config = super::with_format(ndss::index::IndexConfig::new(k, t, seed), args)?;

    let start = Instant::now();
    let mut ingest =
        IngestIndex::open(Path::new(store_root), Some(config), opts).map_err(|e| e.to_string())?;
    let first_text = ingest.next_text_id();
    eprintln!(
        "ingesting into {store_root} (k = {}, t = {}, {} published texts, {} pending)…",
        ingest.config().k,
        ingest.config().t,
        ingest.covered(),
        ingest.pending_texts()
    );

    let reader: Box<dyn BufRead> = match args.get("input") {
        Some(path) => Box::new(BufReader::new(
            std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?,
        )),
        None => Box::new(BufReader::new(std::io::stdin())),
    };
    let mut appended = 0u64;
    let mut tokens_in = 0u64;
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
        let Some(tokens) = parse_line(&line, i + 1)? else {
            continue;
        };
        tokens_in += tokens.len() as u64;
        ingest.append(&tokens).map_err(|e| e.to_string())?;
        appended += 1;
    }
    // Everything reported below is durable: force the covering fsync.
    ingest.sync().map_err(|e| e.to_string())?;
    println!(
        "appended {appended} texts / {tokens_in} tokens (ids [{first_text}, {})) in {:.2?}",
        ingest.next_text_id(),
        start.elapsed()
    );

    if seal {
        let compacted = ingest.seal_all().map_err(|e| e.to_string())?;
        println!(
            "sealed: {compacted} segment(s) compacted; {} texts now published, memtable empty",
            ingest.covered()
        );
    } else if !no_compact {
        let compacted = ingest.compact_all().map_err(|e| e.to_string())?;
        if compacted > 0 {
            println!(
                "compacted {compacted} frozen segment(s); {} texts published, {} pending in memtable",
                ingest.covered(),
                ingest.pending_texts()
            );
        } else {
            println!(
                "{} texts pending in memtable (under --flush-bytes; durable in the WAL)",
                ingest.pending_texts()
            );
        }
    } else {
        println!(
            "{} texts pending in memtable (compaction skipped)",
            ingest.pending_texts()
        );
    }
    crate::obs::maybe_write_metrics(args)
}
