//! `ndss merge`: merge per-shard index directories into one.
//!
//! A merge writes no journal and takes no `--resume`: its inputs are never
//! modified, so an interrupted run is simply run again into the same
//! `--out`, which it sweeps first. The result is byte-identical either way.

use std::path::{Path, PathBuf};

use ndss::prelude::IndexAccess;

use crate::args::Args;

/// Every flag `ndss merge` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &["out", "inputs", "metrics-out"];

pub fn run(args: &Args) -> Result<(), String> {
    let out = args.required("out")?;
    let inputs_raw = args.required("inputs")?;
    let inputs: Vec<PathBuf> = inputs_raw
        .split(',')
        .map(|p| PathBuf::from(p.trim()))
        .collect();
    if inputs.len() < 2 {
        return Err("--inputs needs at least two comma-separated index directories".into());
    }
    for dir in &inputs {
        if !dir.join("meta.json").exists() {
            return Err(format!(
                "{} does not look like an index directory",
                dir.display()
            ));
        }
    }
    eprintln!("merging {} shards into {out}…", inputs.len());
    let refs: Vec<&Path> = inputs.iter().map(PathBuf::as_path).collect();
    let merged = ndss::index::merge_indexes(&refs, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "merged index: {} texts, {} tokens, k = {}, t = {}",
        merged.config().num_texts,
        merged.config().total_tokens,
        merged.config().k,
        merged.config().t
    );
    crate::obs::maybe_write_metrics(args)
}
