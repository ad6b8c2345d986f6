//! `ndss rollback`: serve the store's newest retained segment list again.
//!
//! The retained list's segments are re-verified before the `MANIFEST` is
//! written — a rollback must not land on a segment that has rotted on
//! disk — and the list it replaces is retained in its place, so a second
//! rollback undoes the first. Serving processes pick the change up on
//! their next `reload()`. Rollback is store-wide; `--shard` is refused by
//! name.

use std::path::Path;

use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss rollback` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &["store", "shard", "metrics-out"];

pub fn run(args: &Args) -> Result<(), String> {
    super::publish::refuse_shard(args)?;
    let root = args.required("store")?;
    let store = Store::open(Path::new(root)).map_err(|e| e.to_string())?;
    let manifest = store.rollback().map_err(|e| e.to_string())?;
    println!(
        "rolled back {root} to {}: manifest generation {}",
        manifest.dirs().join(","),
        manifest.generation
    );
    crate::obs::maybe_write_metrics(args)
}
