//! `ndss publish`: verify a generation and atomically point `CURRENT` at it.
//!
//! The generation is re-opened and put through the full `verify_integrity`
//! checksum walk before the pointer moves, so a corrupt build can never
//! become the serving generation. Older complete generations beyond the
//! newest `--keep` are pruned afterwards.
//!
//! On a sharded store, pass `--shard I` to publish within shard `I`'s
//! generation store; the shard's pointer and the store-wide manifest are
//! bumped together, so readers flip from one complete cross-shard view to
//! the next — never a torn mix.

use std::path::Path;

use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss publish` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &["store", "generation", "keep", "shard", "metrics-out"];

/// `--shard I` on a sharded store: publish inside one shard, bump the
/// manifest atomically.
fn run_sharded(args: &Args, root: &str, keep: usize) -> Result<(), String> {
    let shard: usize = args
        .get("shard")
        .ok_or("store is sharded: pass --shard I to publish within one shard")?
        .parse()
        .map_err(|e| format!("invalid value for --shard: {e}"))?;
    let mut store = ShardedStore::open(Path::new(root)).map_err(|e| e.to_string())?;
    if shard >= store.num_shards() {
        return Err(format!(
            "--shard {shard} out of range: store has {} shards",
            store.num_shards()
        ));
    }
    let name = match args.get("generation") {
        Some(name) => name.to_string(),
        None => store
            .shard_store(shard)
            .map_err(|e| e.to_string())?
            .generations()
            .map_err(|e| e.to_string())?
            .into_iter()
            .rev()
            .find(|info| info.complete)
            .map(|info| info.name)
            .ok_or("no complete generation to publish; pass --generation gen-NNNN")?,
    };
    store
        .publish_shard(shard, &name, keep)
        .map_err(|e| e.to_string())?;
    println!(
        "published {name} in shard {shard} of {root}: manifest generation now {}",
        store.manifest().generation
    );
    crate::obs::maybe_write_metrics(args)
}

pub fn run(args: &Args) -> Result<(), String> {
    let root = args.required("store")?;
    let keep: usize = args.get_or("keep", 1)?;
    if ShardedStore::is_sharded(Path::new(root)) {
        return run_sharded(args, root, keep);
    }
    let store = GenerationStore::open(Path::new(root)).map_err(|e| e.to_string())?;
    let name = match args.get("generation") {
        Some(name) => name.to_string(),
        None => store
            .generations()
            .map_err(|e| e.to_string())?
            .into_iter()
            .rev()
            .find(|info| info.complete)
            .map(|info| info.name)
            .ok_or("no complete generation to publish; pass --generation gen-NNNN")?,
    };
    store.publish(&name, keep).map_err(|e| e.to_string())?;
    println!("published {name} as CURRENT in {root} (keeping {keep} previous)");
    crate::obs::maybe_write_metrics(args)
}
