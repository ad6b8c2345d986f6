//! The index layer's one fold into the registry.
//!
//! [`crate::IoStats`] is the *attribution* mechanism — an accumulator owned
//! by one caller (a query, a checksum walk, one owned-`Vec` read) and
//! threaded through every read, so concurrent queries cannot charge each
//! other — while the process-wide [`ndss_obs::Registry`] is the
//! *aggregation* mechanism. The owner folds its accumulator in once, when it
//! is done, so `ndss stats`, `--metrics-out`, and the Prometheus exporter
//! all read one system.

use std::sync::OnceLock;

use ndss_obs::{Counter, Registry};

use crate::IoStats;

/// Registry name and help text of each [`crate::IoSnapshot`] field, in
/// field order.
const COUNTERS: [(&str, &str); 6] = [
    (
        "index.io.reads",
        "positioned reads issued by the index layer",
    ),
    ("index.io.bytes", "bytes read from index files"),
    (
        "index.cache.posting.hits",
        "posting-list reads served from the hot cache",
    ),
    (
        "index.cache.posting.misses",
        "posting-list reads that went to disk",
    ),
    (
        "index.cache.zone.hits",
        "zone-map consults served from the zone cache",
    ),
    (
        "index.cache.zone.misses",
        "zone-map consults read from disk",
    ),
];

impl IoStats {
    /// Folds these totals into the process-wide registry. Call it once, when
    /// the accumulator's owner is done reading. The handles are registered
    /// once per process; zero fields are skipped.
    pub fn publish(&self) {
        static HANDLES: OnceLock<Vec<Counter>> = OnceLock::new();
        let handles = HANDLES.get_or_init(|| {
            let reg = Registry::global();
            COUNTERS
                .iter()
                .map(|(name, help)| reg.counter(name, help))
                .collect()
        });
        let s = self.snapshot();
        let values = [
            s.reads,
            s.bytes,
            s.cache_hits,
            s.cache_misses,
            s.zone_hits,
            s.zone_misses,
        ];
        for (counter, value) in handles.iter().zip(values) {
            if value > 0 {
                counter.inc(value);
            }
        }
    }
}
