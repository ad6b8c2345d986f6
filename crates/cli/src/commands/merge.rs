//! `ndss merge`: merge per-shard index directories into one.
//!
//! Merges are journaled by default: an interrupted run leaves a
//! `build.journal` in `--out`, and re-running with `--resume` (same inputs,
//! same order) continues from the last completed hash function instead of
//! starting over. The result is byte-identical either way.

use std::path::{Path, PathBuf};

use ndss::prelude::{IndexAccess, MergeOptions};

use crate::args::Args;

/// Every flag `ndss merge` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &["out", "inputs", "resume", "metrics-out"];

pub fn run(args: &Args) -> Result<(), String> {
    let out = args.required("out")?;
    let inputs_raw = args.required("inputs")?;
    let resume = args.flag("resume");
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
    eprintln!(
        "{} {} shards into {out}…",
        if resume {
            "resuming merge of"
        } else {
            "merging"
        },
        inputs.len()
    );
    let refs: Vec<&Path> = inputs.iter().map(PathBuf::as_path).collect();
    let opts = MergeOptions::new().resume(resume);
    let merged =
        ndss::index::merge_indexes_with(&refs, Path::new(out), &opts).map_err(|e| e.to_string())?;
    println!(
        "merged index: {} texts, {} tokens, k = {}, t = {}",
        merged.config().num_texts,
        merged.config().total_tokens,
        merged.config().k,
        merged.config().t
    );
    crate::obs::maybe_write_metrics(args)
}
