//! The CLI subcommands.

pub mod index;
pub mod ingest;
pub mod memorize;
pub mod merge;
pub mod publish;
pub mod rollback;
pub mod search;
pub mod serve;
pub mod stats;
pub mod synth;
pub mod tokenize;
pub mod verify;

/// Applies `--format v3|v4|v6` to `config`. The value is the index-file
/// version; the default is v6, the bitpacked encoding the daemon's stores
/// and the benchmark use.
pub(crate) fn with_format(
    config: ndss::index::IndexConfig,
    args: &crate::args::Args,
) -> Result<ndss::index::IndexConfig, String> {
    match args.get("format") {
        None | Some("v6") => Ok(config.bit_packed(true)),
        Some("v4") => Ok(config.compressed(true)),
        Some("v3") => Ok(config),
        Some(other) => Err(format!(
            "invalid value for --format: {other} (expected v3, v4, or v6)"
        )),
    }
}
