//! Shared test support for the integration suite. The integration test
//! files themselves are declared as `[[test]]` targets in `Cargo.toml`.

pub mod mutate;

use std::path::PathBuf;

/// The scratch root of one suite, unique to this process so two
/// `cargo test` runs on one host do not clobber each other.
pub fn scratch_root(suite: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ndss_it_{suite}_{}", std::process::id()))
}

/// A fresh, empty directory `name` under [`scratch_root`]`(suite)`.
pub fn scratch(suite: &str, name: &str) -> PathBuf {
    let dir = scratch_root(suite).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}
