//! Lightweight, dependency-free observability for the NDSS workspace.
//!
//! The query pipeline (sketch → list probe → collision count → zone probe →
//! verification) is IO- and CPU-heterogeneous; evaluating any change to it
//! requires per-stage timing and byte accounting, aggregated across
//! thousands of queries. This crate provides the minimal machinery for
//! that, designed for an offline build (no registry deps) and a hot path
//! measured in nanoseconds:
//!
//! * typed instruments — [`Counter`], [`Gauge`], and a log-bucketed
//!   [`Histogram`] — all plain atomics, lock-free after registration;
//! * a [`Registry`] that owns instruments by name (get-or-register takes a
//!   mutex once per instrument *handle*, never per observation) and renders
//!   snapshots in two formats: Prometheus text exposition and JSON;
//! * RAII tracing spans ([`SpanGuard`]) with a thread-local span stack, so
//!   nested phases (e.g. `index.build.external` → `index.build.run`) attribute
//!   self-time correctly;
//! * a process-wide kill switch ([`Registry::set_enabled`]): with recording
//!   disabled every instrument degenerates to one relaxed atomic load and a
//!   predictable branch; the on/off difference is the ledger's
//!   `obs.overhead_pct` (budget < 5 %).
//!
//! # Naming
//!
//! Internal metric names are dotted lowercase paths (`query.stage.sketch`,
//! `index.io.bytes`). The JSON exporter preserves them; the Prometheus
//! exporter derives the exposition name mechanically: `ndss_` prefix, dots
//! to underscores, then a conventional suffix (`_total` for counters, the
//! unit for gauges/histograms). Time histograms record **nanoseconds** and
//! export **seconds**.
//!
//! ```
//! use ndss_obs::{Registry, Unit};
//!
//! let reg = Registry::new();
//! let queries = reg.counter("query.count", "queries executed");
//! let latency = reg.histogram("query.seconds", "end-to-end query time", Unit::Seconds);
//! queries.inc(1);
//! latency.record_nanos(1_500_000); // 1.5 ms
//! let text = reg.prometheus_text();
//! assert!(text.contains("ndss_query_count_total 1"));
//! ```

mod export;
mod hist;
mod span;

pub use export::validate_prometheus_text;
pub use hist::{Histogram, HistogramSnapshot};
pub use span::{span, span_depth, SpanGuard};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

use hist::HistCore;

/// What a histogram's raw `u64` observations denote; drives unit suffixes
/// and scaling in the exporters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless (counts, ratios ×1000, …).
    None,
    /// Raw values are **nanoseconds**; exported as seconds.
    Seconds,
    /// Raw values are bytes.
    Bytes,
}

impl Unit {
    fn suffix(self) -> &'static str {
        match self {
            Unit::None => "",
            Unit::Seconds => "_seconds",
            Unit::Bytes => "_bytes",
        }
    }

    /// Multiplier from raw recorded value to exported value.
    fn scale(self) -> f64 {
        match self {
            Unit::Seconds => 1e-9,
            Unit::None | Unit::Bytes => 1.0,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Unit::None => "none",
            Unit::Seconds => "seconds",
            Unit::Bytes => "bytes",
        }
    }
}

/// Monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Adds `n` (no-op while the registry is disabled).
    #[inline]
    pub fn inc(&self, n: u64) {
        if self.enabled.load(Relaxed) {
            self.cell.fetch_add(n, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Relaxed)
    }
}

/// Instantaneous signed value (queue depths, utilization ×1000, …).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    /// Overwrites the value (no-op while the registry is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Relaxed) {
            self.cell.store(v, Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.enabled.load(Relaxed) {
            self.cell.fetch_add(delta, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Relaxed)
    }
}

enum Instrument {
    Counter {
        help: String,
        cell: Arc<AtomicU64>,
    },
    Gauge {
        help: String,
        cell: Arc<AtomicI64>,
    },
    Histogram {
        help: String,
        unit: Unit,
        cell: Arc<HistCore>,
    },
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter { .. } => "counter",
            Instrument::Gauge { .. } => "gauge",
            Instrument::Histogram { .. } => "histogram",
        }
    }
}

/// Registry key: a metric name plus its (usually empty) label set. One
/// name can carry many label sets — e.g. `index.shard.generation` with
/// `shard="0"`, `shard="1"` — each its own instrument.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

struct Inner {
    metrics: Mutex<BTreeMap<MetricKey, Instrument>>,
    enabled: Arc<AtomicBool>,
}

/// A set of named instruments. Cheap to clone (shared `Arc`); the global
/// instance most code uses is [`Registry::global`].
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry with recording enabled.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                metrics: Mutex::new(BTreeMap::new()),
                enabled: Arc::new(AtomicBool::new(true)),
            }),
        }
    }

    /// The process-wide registry every subsystem records into by default.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Turns recording on or off for every instrument handed out by this
    /// registry, including handles obtained earlier. Disabled instruments
    /// cost one relaxed load per call.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Relaxed);
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Relaxed)
    }

    /// Returns the counter `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut metrics = self.inner.metrics.lock().unwrap();
        let inst = metrics
            .entry(MetricKey {
                name: name.to_string(),
                labels: Vec::new(),
            })
            .or_insert_with(|| Instrument::Counter {
                help: help.to_string(),
                cell: Arc::new(AtomicU64::new(0)),
            });
        match inst {
            Instrument::Counter { cell, .. } => Counter {
                cell: cell.clone(),
                enabled: self.inner.enabled.clone(),
            },
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Returns the gauge `name`, registering it on first use.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with_labels(name, help, &[])
    }

    /// Returns the gauge `name` carrying `labels` (exported as
    /// `name{key="value",…}`), registering it on first use. Labeled
    /// siblings of one name are independent instruments — this is how
    /// per-shard series (`index.shard.generation{shard="3"}`) coexist in
    /// one exposition without last-writer-wins clobbering.
    ///
    /// # Panics
    /// If the same name + label set is already a different instrument kind.
    pub fn gauge_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut metrics = self.inner.metrics.lock().unwrap();
        let inst = metrics
            .entry(MetricKey {
                name: name.to_string(),
                labels: labels
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            })
            .or_insert_with(|| Instrument::Gauge {
                help: help.to_string(),
                cell: Arc::new(AtomicI64::new(0)),
            });
        match inst {
            Instrument::Gauge { cell, .. } => Gauge {
                cell: cell.clone(),
                enabled: self.inner.enabled.clone(),
            },
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Returns the histogram `name`, registering it on first use.
    pub fn histogram(&self, name: &str, help: &str, unit: Unit) -> Histogram {
        let mut metrics = self.inner.metrics.lock().unwrap();
        let inst = metrics
            .entry(MetricKey {
                name: name.to_string(),
                labels: Vec::new(),
            })
            .or_insert_with(|| Instrument::Histogram {
                help: help.to_string(),
                unit,
                cell: Arc::new(HistCore::new()),
            });
        match inst {
            Instrument::Histogram { cell, unit, .. } => {
                Histogram::from_core(cell.clone(), *unit, self.inner.enabled.clone())
            }
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Opens a timing span named `span.<name>` (unit: seconds). See
    /// [`SpanGuard`] for the nesting/self-time semantics.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard::open(self.clone(), name)
    }

    /// A point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let metrics = self.inner.metrics.lock().unwrap();
        metrics
            .iter()
            .map(|(key, inst)| MetricSnapshot {
                name: key.name.clone(),
                labels: key.labels.clone(),
                help: match inst {
                    Instrument::Counter { help, .. }
                    | Instrument::Gauge { help, .. }
                    | Instrument::Histogram { help, .. } => help.clone(),
                },
                value: match inst {
                    Instrument::Counter { cell, .. } => MetricValue::Counter(cell.load(Relaxed)),
                    Instrument::Gauge { cell, .. } => MetricValue::Gauge(cell.load(Relaxed)),
                    Instrument::Histogram { cell, unit, .. } => {
                        MetricValue::Histogram(cell.snapshot(*unit))
                    }
                },
            })
            .collect()
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        export::prometheus_text(&self.snapshot())
    }

    /// Renders the registry as a JSON document.
    pub fn to_json(&self) -> ndss_json::Json {
        export::to_json(&self.snapshot())
    }
}

/// One instrument's state at snapshot time.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Dotted internal name (`query.stage.sketch`).
    pub name: String,
    /// Label set (usually empty); exported as `name{key="value",…}`.
    pub labels: Vec<(String, String)>,
    /// Human-readable description.
    pub help: String,
    /// The observed value.
    pub value: MetricValue,
}

/// Snapshot payload per instrument kind.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotone counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state (buckets, sum, count, quantiles).
    Histogram(HistogramSnapshot),
}

/// Enables or disables recording on the global registry.
pub fn set_enabled(on: bool) {
    Registry::global().set_enabled(on);
}

/// Whether the global registry is recording.
pub fn is_enabled() -> bool {
    Registry::global().is_enabled()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("a.count", "a");
        c.inc(3);
        c.inc(4);
        assert_eq!(c.get(), 7);
        // A second handle to the same name shares the cell.
        assert_eq!(reg.counter("a.count", "a").get(), 7);
        let g = reg.gauge("a.depth", "d");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn labeled_gauges_are_independent_series_under_one_name() {
        let reg = Registry::new();
        let g0 = reg.gauge_with_labels("idx.shard.generation", "per-shard gen", &[("shard", "0")]);
        let g1 = reg.gauge_with_labels("idx.shard.generation", "per-shard gen", &[("shard", "1")]);
        g0.set(4);
        g1.set(7);
        assert_eq!(g0.get(), 4);
        assert_eq!(g1.get(), 7);
        // Same name + same labels shares the cell; the unlabeled series is
        // yet another independent instrument.
        assert_eq!(
            reg.gauge_with_labels("idx.shard.generation", "", &[("shard", "0")])
                .get(),
            4
        );
        reg.gauge("idx.shard.generation", "base").set(9);
        assert_eq!(g0.get(), 4);

        let text = reg.prometheus_text();
        crate::export::validate_prometheus_text(&text).unwrap();
        assert!(text.contains("ndss_idx_shard_generation{shard=\"0\"} 4"));
        assert!(text.contains("ndss_idx_shard_generation{shard=\"1\"} 7"));
        // HELP/TYPE declared once for the whole family, not per series.
        assert_eq!(
            text.matches("# TYPE ndss_idx_shard_generation gauge")
                .count(),
            1
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        let c = reg.counter("x", "x");
        let h = reg.histogram("y", "y", Unit::None);
        reg.set_enabled(false);
        c.inc(10);
        h.record(10);
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        reg.set_enabled(true);
        c.inc(10);
        assert_eq!(c.get(), 10);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter("dup", "");
        reg.gauge("dup", "");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("b", "").inc(1);
        reg.counter("a", "").inc(2);
        reg.histogram("c", "", Unit::Bytes).record(64);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let reg = Registry::new();
        let c = reg.counter("contended", "");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
