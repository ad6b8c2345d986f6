//! Registry mirror for the query path: one set of handles per process,
//! registered by the first query, into which every finished query's
//! [`crate::QueryStats`] is folded once with pure atomic adds. The per-query
//! accumulator stays the attribution mechanism, the registry the
//! process-wide aggregation — one accounting system.

use std::sync::OnceLock;

use ndss_obs::{Counter, Histogram, Registry, Unit};

use crate::{QueryError, SearchOutcome};

struct QueryMetrics {
    queries: Counter,
    latency: Histogram,
    stage_sketch: Histogram,
    stage_plan: Histogram,
    stage_gather: Histogram,
    stage_count: Histogram,
    stage_probe: Histogram,
    io_bytes: Counter,
    postings_read: Counter,
    lists_loaded: Counter,
    long_probes: Counter,
    candidate_texts: Counter,
    matched_texts: Counter,
    budget_exceeded: Counter,
}

impl QueryMetrics {
    fn register(reg: &Registry) -> Self {
        let seconds = |name: &str, help: &str| reg.histogram(name, help, Unit::Seconds);
        Self {
            queries: reg.counter("query.count", "Queries executed"),
            latency: seconds("query.seconds", "End-to-end query latency"),
            stage_sketch: seconds(
                "query.stage.sketch.seconds",
                "Time computing the query's k-mins sketch",
            ),
            stage_plan: seconds(
                "query.stage.plan.seconds",
                "Time classifying lists (prefix filter / cost model)",
            ),
            stage_gather: seconds(
                "query.stage.gather.seconds",
                "Time loading short lists and grouping windows by text",
            ),
            stage_count: seconds(
                "query.stage.count.seconds",
                "Time in collision counting and candidate verification",
            ),
            stage_probe: seconds(
                "query.stage.probe.seconds",
                "Time probing long lists through zone maps",
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
}

/// Folds one finished query: its stats when it completed or stopped on a
/// budget (with its partial outcome), nothing when it failed.
pub(crate) fn observe(result: &Result<SearchOutcome, QueryError>) {
    static METRICS: OnceLock<QueryMetrics> = OnceLock::new();
    let m = METRICS.get_or_init(|| QueryMetrics::register(Registry::global()));
    let stats = match result {
        Ok(outcome) => &outcome.stats,
        Err(QueryError::BudgetExceeded { partial, .. }) => {
            m.budget_exceeded.inc(1);
            &partial.stats
        }
        Err(_) => return,
    };
    m.queries.inc(1);
    m.latency.record_duration(stats.total);
    m.stage_sketch.record_duration(stats.stage_sketch);
    m.stage_plan.record_duration(stats.stage_plan);
    m.stage_gather.record_duration(stats.stage_gather);
    m.stage_count.record_duration(stats.stage_count);
    m.stage_probe.record_duration(stats.stage_probe);
    m.io_bytes.inc(stats.io_bytes);
    m.postings_read.inc(stats.postings_read);
    m.lists_loaded.inc(stats.lists_loaded as u64);
    m.long_probes.inc(stats.long_probes as u64);
    m.candidate_texts.inc(stats.candidate_texts as u64);
    m.matched_texts.inc(stats.matched_texts as u64);
}
