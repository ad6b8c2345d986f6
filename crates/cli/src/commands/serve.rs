//! `ndss serve`: run the network front door over an index or store.
//!
//! The daemon answers HTTP (`POST /search`, `GET /metrics`,
//! `GET /healthz`, `POST /reload`, `POST /shutdown`) and the NDSB binary
//! framing on one port. Pointing `--index` at a store makes `POST /reload`
//! (after a publish or rollback) hot-swap segment lists with zero
//! downtime. SIGTERM and SIGINT drain gracefully: in-flight
//! queries finish on their pinned snapshots before the process exits.
//!
//! Fault isolation knobs: `--quarantine-threshold` (consecutive transient
//! failures before a shard's circuit breaker opens; 0 disables the
//! breakers), `--quarantine-backoff-ms` / `--quarantine-max-backoff-ms`
//! (initial and maximum quarantine durations), and `--probe-interval-ms`
//! (health-prober cadence; 0 disables self-healing).
//!
//! `--ingest` (requires `--index` to be a store) additionally accepts
//! `POST /ingest`: appended texts are WAL-durable before the ack and
//! visible to queries immediately through the overlay, while every
//! `--ingest-compact-ms` a background compactor appends each frozen
//! segment to the store as a segment of its own and merges short runs of
//! the newest segments.

use std::path::{Path, PathBuf};
use std::time::Duration;

use ndss::prelude::*;
use ndss::query::{BreakerConfig, ServingOptions};
use ndss::serve::{IngestServeConfig, ServeConfig, Server, DEFAULT_ADDR};

use crate::args::Args;

/// Every flag `ndss serve` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &[
    "index",
    "addr",
    "workers",
    "admission-cap",
    "deadline-ms",
    "metrics-out",
    "ingest",
    "ingest-compact-ms",
    "probe-interval-ms",
    "quarantine-threshold",
    "quarantine-backoff-ms",
    "quarantine-max-backoff-ms",
];

/// `--ingest` on a store that has never published a segment: publish an
/// empty one (shaped by the memtable's configuration) so the serving layer
/// has a disk view to overlay the memtable on. The memtable must already
/// exist — a truly fresh store needs one `ndss ingest` run to establish the
/// index configuration.
fn bootstrap_ingest_store(root: &Path, opts: &IngestOptions) -> Result<(), String> {
    let ingest = IngestIndex::open(root, None, opts.clone()).map_err(|e| {
        format!(
            "--ingest: {e} (run 'ndss ingest --store {} --k … --t …' once to shape a fresh store)",
            root.display()
        )
    })?;
    let store = ingest.store();
    let err = |e: ndss::index::IndexError| e.to_string();
    if !store.manifest().map_err(err)?.segments.is_empty() {
        return Ok(());
    }
    let empty = InMemoryCorpus::from_texts(Vec::new());
    let mem = MemoryIndex::build(&empty, ingest.config().clone()).map_err(err)?;
    let name = store.allocate().map_err(err)?;
    ndss::index::write_memory_index(&mem, &root.join(&name)).map_err(err)?;
    store.publish(&[&name], 1).map_err(err)?;
    eprintln!(
        "bootstrapped empty segment {name} in {} for ingest",
        root.display()
    );
    Ok(())
}

pub fn run(args: &Args) -> Result<(), String> {
    let index = args.required("index")?;
    let defaults = ServeConfig::default();
    let breaker_defaults = BreakerConfig::default();
    let ms = |key: &'static str, default: Duration| -> Result<Duration, String> {
        Ok(Duration::from_millis(
            args.get_or(key, default.as_millis() as u64)?,
        ))
    };
    let probe_interval_ms: u64 = args.get_or("probe-interval-ms", 1_000)?;
    let ingest = if args.flag("ingest") {
        let compact_ms: u64 = args.get_or("ingest-compact-ms", 500)?;
        Some(IngestServeConfig {
            store: PathBuf::from(index),
            compact_interval: (compact_ms > 0).then(|| Duration::from_millis(compact_ms)),
            ..IngestServeConfig::default()
        })
    } else {
        None
    };
    let config = ServeConfig {
        addr: args.get("addr").unwrap_or(DEFAULT_ADDR).to_string(),
        workers: args.get_or("workers", defaults.workers)?,
        admission_cap: args.get_or("admission-cap", defaults.admission_cap)?,
        default_deadline: args
            .get("deadline-ms")
            .map(|raw| {
                raw.parse::<u64>()
                    .map(Duration::from_millis)
                    .map_err(|_| format!("--deadline-ms: '{raw}' is not an integer"))
            })
            .transpose()?,
        metrics_out: args.get("metrics-out").map(PathBuf::from),
        probe_interval: (probe_interval_ms > 0).then(|| Duration::from_millis(probe_interval_ms)),
        ingest,
        ..defaults
    };
    let breaker = BreakerConfig {
        failure_threshold: args
            .get_or("quarantine-threshold", breaker_defaults.failure_threshold)?,
        backoff: ms("quarantine-backoff-ms", breaker_defaults.backoff)?,
        max_backoff: ms("quarantine-max-backoff-ms", breaker_defaults.max_backoff)?,
    };

    if let Some(ingest_cfg) = &config.ingest {
        let opts = IngestOptions {
            flush_bytes: ingest_cfg.flush_bytes,
            fsync_every: ingest_cfg.fsync_every,
            ..IngestOptions::default()
        };
        bootstrap_ingest_store(&ingest_cfg.store, &opts)?;
    }

    let serving = ServingIndex::open_with_options(
        Path::new(index),
        ServingOptions {
            breaker,
            ..ServingOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let generation = serving.generation();
    let shards = serving.snapshot().num_shards();

    Server::install_signal_hooks();
    let has_ingest = config.ingest.is_some();
    let server = Server::bind(config, serving).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    match generation {
        Some(generation) => println!(
            "serving {index} ({shards} segment(s), manifest generation {generation}) on http://{addr}"
        ),
        None => println!("serving {index} on http://{addr}"),
    }
    if has_ingest {
        println!(
            "endpoints: POST /search  POST /ingest  GET /metrics  GET /healthz  POST /reload  POST /shutdown"
        );
    } else {
        println!(
            "endpoints: POST /search  GET /metrics  GET /healthz  POST /reload  POST /shutdown"
        );
    }

    let report = server.run().map_err(|e| e.to_string())?;
    println!(
        "drained: {} connections, {} http requests, {} binary frames, {} shed",
        report.connections, report.http_requests, report.frame_requests, report.shed
    );
    Ok(())
}
