//! `ndss publish`: verify segments and atomically make them the store's
//! serving list.
//!
//! Every named segment the current list does not already serve is re-opened
//! and put through the full `verify_integrity` checksum walk before the
//! `MANIFEST` is written, so a corrupt build can never serve. The previous
//! list is retained for rollback (`--keep` lists); segments no retained
//! list names are deleted afterwards.
//!
//! A store has one manifest, so publish acts on the whole store: there is
//! no per-shard publish, and `--shard` is refused by name.

use std::path::Path;

use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss publish` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &["store", "segments", "keep", "shard", "metrics-out"];

/// The refusal of `--shard`, shared with `ndss rollback`.
pub(crate) fn refuse_shard(args: &Args) -> Result<(), String> {
    match args.get("shard") {
        Some(_) => Err(
            "--shard is gone: a store has one MANIFEST, and publish and rollback \
                        act on its whole segment list"
                .into(),
        ),
        None => Ok(()),
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    refuse_shard(args)?;
    let root = args.required("store")?;
    let keep: usize = args.get_or("keep", 1)?;
    let store = Store::open(Path::new(root)).map_err(|e| e.to_string())?;
    let segments: Vec<String> = match args.get("segments") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => vec![store
            .unpublished()
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or("no unpublished segment to publish; pass --segments seg-NNNN[,…]")?],
    };
    let manifest = store.publish(&segments, keep).map_err(|e| e.to_string())?;
    println!(
        "published {} in {root}: manifest generation {} ({} texts, keeping {keep} previous list(s))",
        segments.join(","),
        manifest.generation,
        manifest.num_texts()
    );
    crate::obs::maybe_write_metrics(args)
}
