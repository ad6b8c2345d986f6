//! Self-healing: the background health prober.
//!
//! The circuit breakers (in `ndss-query`) keep a sick shard from being
//! retried on every request, but on their own they only re-test a shard
//! by *serving a live query into it* (the half-open probe) — and a shard
//! repaired in place keeps its poisoned file handles until something
//! re-opens the view. The prober closes the loop from the supply side: on
//! a fixed interval it looks at the quarantine set, re-verifies each
//! quarantined shard against the store on disk (cheap open/header
//! spot-check first, full checksum walk second), and when **every**
//! quarantined shard verifies clean it re-admits them through
//! [`ServingIndex::force_reload`] — a fresh view with fresh file handles
//! and closed breakers, swapped in without dropping a single in-flight
//! request. No restart, no operator `/reload`.
//!
//! The all-clean gate keeps the loop quiet: reloading while some shard is
//! still broken would reset its breaker just to watch it re-trip on the
//! next query, churning a reload per probe interval for no coverage gain.
//!
//! Drain interaction: the prober sleeps in short slices and re-checks the
//! drain flag between them, so joining it on shutdown costs at most one
//! slice, never a full probe interval (pinned by
//! `drain_is_prompt_while_a_shard_is_quarantined` in the daemon tests).

use std::path::Path;
use std::time::{Duration, Instant};

use ndss_index::{verify_segment, IndexError, Manifest};

use crate::server::Shared;

/// Granularity at which a sleeping prober re-checks the drain flag.
const DRAIN_POLL: Duration = Duration::from_millis(20);

/// The prober thread body: probe every `interval` until drain.
pub(crate) fn run(shared: &Shared, interval: Duration) {
    let mut last = Instant::now();
    while !shared.draining() {
        std::thread::sleep(DRAIN_POLL.min(interval));
        if last.elapsed() < interval {
            continue;
        }
        last = Instant::now();
        probe_once(shared);
    }
}

/// One probe pass: re-verify every quarantined shard, and re-admit the
/// lot via a forced reload when all of them pass. Returns `true` when a
/// reload happened.
pub(crate) fn probe_once(shared: &Shared) -> bool {
    let quarantined = {
        let snapshot = shared.serving.snapshot();
        snapshot.health().quarantined()
    };
    shared.publish_breaker_metrics();
    if quarantined.is_empty() {
        return false;
    }
    let path = shared.serving.store_path().to_path_buf();
    let mut all_clean = true;
    for &shard in &quarantined {
        shared.metrics.probe_attempts.inc(1);
        if let Err(e) = verify_shard_on_disk(&path, shard) {
            shared.metrics.probe_failed.inc(1);
            let _ = e; // the breaker already holds a classified reason
            all_clean = false;
        }
    }
    if !all_clean {
        return false;
    }
    match shared.serving.force_reload() {
        Ok(()) => {
            shared.metrics.probe_recovered.inc(quarantined.len() as u64);
            shared.publish_breaker_metrics();
            true
        }
        Err(_) => {
            // Verification passed but the re-open raced a concurrent
            // publish or the fault returned; count it and try again next
            // interval.
            shared.metrics.probe_failed.inc(1);
            false
        }
    }
}

/// Re-verifies lane `shard` against the bytes on disk: open + header and
/// text-count validation (cheap) first, then the full content-checksum
/// walk. A fresh open is deliberate — the serving view's handles may be
/// poisoned (or carry a fault plan); health is judged on what a *new* open
/// would see, which is exactly what a forced reload re-admits.
fn verify_shard_on_disk(store: &Path, shard: usize) -> Result<(), IndexError> {
    match Manifest::load(store)? {
        Some(manifest) => manifest.verify_segment(store, shard).map(drop),
        None => verify_segment(store, None).map(drop),
    }
}
