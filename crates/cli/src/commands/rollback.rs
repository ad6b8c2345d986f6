//! `ndss rollback`: re-point `CURRENT` at an older generation.
//!
//! Without `--to`, rolls back to the newest complete generation older than
//! the current one. The target is re-verified before the pointer moves —
//! a rollback must not land on a generation that has rotted on disk.
//! Serving processes pick the change up on their next `reload()`.
//!
//! On a sharded store, pass `--shard I`: the shard's pointer and the
//! store-wide manifest move together, so readers see one atomic view bump.

use std::path::Path;

use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss rollback` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &["store", "to", "shard", "metrics-out"];

pub fn run(args: &Args) -> Result<(), String> {
    let root = args.required("store")?;
    if ShardedStore::is_sharded(Path::new(root)) {
        let shard: usize = args
            .get("shard")
            .ok_or("store is sharded: pass --shard I to roll back one shard")?
            .parse()
            .map_err(|e| format!("invalid value for --shard: {e}"))?;
        let mut store = ShardedStore::open(Path::new(root)).map_err(|e| e.to_string())?;
        if shard >= store.num_shards() {
            return Err(format!(
                "--shard {shard} out of range: store has {} shards",
                store.num_shards()
            ));
        }
        let target = store
            .rollback_shard(shard, args.get("to"))
            .map_err(|e| e.to_string())?;
        println!(
            "rolled back shard {shard} of {root} to {target}: manifest generation now {}",
            store.manifest().generation
        );
        return crate::obs::maybe_write_metrics(args);
    }
    let store = GenerationStore::open(Path::new(root)).map_err(|e| e.to_string())?;
    let target = store.rollback(args.get("to")).map_err(|e| e.to_string())?;
    println!("rolled back: CURRENT in {root} now names {target}");
    crate::obs::maybe_write_metrics(args)
}
