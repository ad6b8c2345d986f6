//! Registry mirror for the query path.
//!
//! Each [`crate::NearDupSearcher`] registers one set of handles at
//! construction (a single registry lock), then folds every completed
//! [`crate::QueryStats`] into them with pure atomic adds — the per-query
//! accumulator stays the attribution mechanism, the registry the
//! process-wide aggregation, so there is exactly one accounting system.

use ndss_obs::{Counter, Histogram, Registry, Unit};

use crate::search::QueryStats;

pub(crate) struct QueryMetrics {
    queries: Counter,
    latency: Histogram,
    stage_sketch: Histogram,
    stage_plan: Histogram,
    stage_gather: Histogram,
    stage_count: Histogram,
    stage_probe: Histogram,
    io_time: Histogram,
    io_bytes: Counter,
    postings_read: Counter,
    lists_loaded: Counter,
    long_probes: Counter,
    candidate_texts: Counter,
    matched_texts: Counter,
    budget_exceeded: Counter,
}

impl QueryMetrics {
    pub(crate) fn register(reg: &Registry) -> Self {
        Self {
            queries: reg.counter("query.count", "Queries executed"),
            latency: reg.histogram("query.seconds", "End-to-end query latency", Unit::Seconds),
            stage_sketch: reg.histogram(
                "query.stage.sketch.seconds",
                "Time computing the query's k-mins sketch",
                Unit::Seconds,
            ),
            stage_plan: reg.histogram(
                "query.stage.plan.seconds",
                "Time classifying lists (prefix filter / cost model)",
                Unit::Seconds,
            ),
            stage_gather: reg.histogram(
                "query.stage.gather.seconds",
                "Time loading short lists and grouping windows by text",
                Unit::Seconds,
            ),
            stage_count: reg.histogram(
                "query.stage.count.seconds",
                "Time in collision counting and candidate verification",
                Unit::Seconds,
            ),
            stage_probe: reg.histogram(
                "query.stage.probe.seconds",
                "Time probing long lists through zone maps",
                Unit::Seconds,
            ),
            io_time: reg.histogram(
                "query.io.seconds",
                "Per-query wall time inside index reads",
                Unit::Seconds,
            ),
            io_bytes: reg.counter("query.io.bytes", "Bytes read from the index by queries"),
            postings_read: reg.counter("query.postings", "Postings materialized by queries"),
            lists_loaded: reg.counter("query.lists.loaded", "Short lists read in full"),
            long_probes: reg.counter("query.lists.probed", "Zone-map probes into long lists"),
            candidate_texts: reg.counter(
                "query.texts.candidates",
                "Texts passing the reduced collision threshold",
            ),
            matched_texts: reg.counter(
                "query.texts.matched",
                "Texts with at least one qualifying sequence",
            ),
            budget_exceeded: reg.counter(
                "query.budget_exceeded",
                "Queries stopped by a resource budget (partial results returned)",
            ),
        }
    }

    /// One query returned `BudgetExceeded`.
    pub(crate) fn record_budget_exceeded(&self) {
        self.budget_exceeded.inc(1);
    }

    pub(crate) fn observe(&self, stats: &QueryStats) {
        self.queries.inc(1);
        self.latency.record_duration(stats.total);
        self.stage_sketch.record_duration(stats.stage_sketch);
        self.stage_plan.record_duration(stats.stage_plan);
        self.stage_gather.record_duration(stats.stage_gather);
        self.stage_count.record_duration(stats.stage_count);
        self.stage_probe.record_duration(stats.stage_probe);
        self.io_time.record_duration(stats.io_time);
        self.io_bytes.inc(stats.io_bytes);
        self.postings_read.inc(stats.postings_read);
        self.lists_loaded.inc(stats.lists_loaded as u64);
        self.long_probes.inc(stats.long_probes as u64);
        self.candidate_texts.inc(stats.candidate_texts as u64);
        self.matched_texts.inc(stats.matched_texts as u64);
    }
}
