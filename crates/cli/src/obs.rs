//! Shared observability plumbing for the CLI: the `--metrics-out` exporter
//! and the `--profile` per-stage breakdown table.

use std::time::Duration;

use ndss::obs::{MetricValue, Registry};
use ndss::query::QueryStats;

use crate::args::Args;

/// Refreshes gauges that are sampled at export time rather than maintained
/// incrementally. `durable.fsyncs` is the precise process-wide fsync count
/// (per-build histograms in the registry are approximate under overlapping
/// in-process builds; this gauge is not).
pub fn refresh_gauges() {
    Registry::global()
        .gauge(
            "durable.fsyncs",
            "fsync/fdatasync calls issued by this process",
        )
        .set(ndss::durable::fsync_count() as i64);
}

/// Writes a snapshot of the global registry to `path`: Prometheus text
/// exposition when the extension is `.prom` or `.txt`, pretty JSON
/// otherwise.
pub fn write_metrics(path: &str) -> Result<(), String> {
    refresh_gauges();
    let reg = Registry::global();
    let ext = std::path::Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let body = if matches!(ext, "prom" | "txt") {
        reg.prometheus_text()
    } else {
        let mut json = reg.to_json().to_string_pretty();
        json.push('\n');
        json
    };
    std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("metrics written to {path}");
    Ok(())
}

/// Honors a command's `--metrics-out PATH` flag if present.
pub fn maybe_write_metrics(args: &Args) -> Result<(), String> {
    match args.get("metrics-out") {
        Some(path) => write_metrics(path),
        None => Ok(()),
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.1} µs", nanos as f64 / 1e3)
    }
}

fn pct(part: Duration, total: Duration) -> f64 {
    if total.is_zero() {
        0.0
    } else {
        100.0 * part.as_secs_f64() / total.as_secs_f64()
    }
}

/// Prints the per-stage timing and IO breakdown of one or more queries
/// (`ndss search --profile`). For a batch, pass the element-wise sum of the
/// per-query stats; stages then read as total thread-time per stage.
pub fn print_profile(stats: &QueryStats, queries: usize) {
    let total = stats.total;
    println!(
        "\nquery profile ({queries} quer{}):",
        if queries == 1 { "y" } else { "ies" }
    );
    println!("  stage            time   share");
    for (name, d) in [
        ("sketch", stats.stage_sketch),
        ("plan", stats.stage_plan),
        ("gather", stats.stage_gather),
        ("count", stats.stage_count),
        ("probe", stats.stage_probe),
    ] {
        println!(
            "  {name:<8} {:>12}   {:>4.1}%",
            fmt_duration(d),
            pct(d, total)
        );
    }
    println!("  total    {:>12}", fmt_duration(total));
    println!(
        "  io: {:.2} KiB read; posting cache {} hit / {} miss; zone cache {} hit / {} miss",
        stats.io_bytes as f64 / 1024.0,
        stats.cache_hits,
        stats.cache_misses,
        stats.zone_hits,
        stats.zone_misses,
    );
    println!(
        "  work: {} short lists, {} long lists, {} probes, {} postings, \
         {} candidate texts, {} matched",
        stats.lists_loaded,
        stats.lists_long,
        stats.long_probes,
        stats.postings_read,
        stats.candidate_texts,
        stats.matched_texts,
    );
}

/// Prints the p50/p95/p99 of the process-wide per-query latency histogram
/// (populated by every `search` call through the registry).
pub fn print_latency_percentiles() {
    let snaps = Registry::global().snapshot();
    let Some(hist) = snaps.iter().find_map(|m| match (&m.name[..], &m.value) {
        ("query.seconds", MetricValue::Histogram(h)) => Some(h.clone()),
        _ => None,
    }) else {
        return;
    };
    if hist.count == 0 {
        return;
    }
    println!(
        "  latency: p50 ≤ {}, p95 ≤ {}, p99 ≤ {} (log₂-bucketed)",
        fmt_duration(Duration::from_nanos(hist.quantile(0.5))),
        fmt_duration(Duration::from_nanos(hist.quantile(0.95))),
        fmt_duration(Duration::from_nanos(hist.quantile(0.99))),
    );
}

/// Renders a registry snapshot as indented human-readable lines
/// (`ndss stats --metrics`).
pub fn print_registry() {
    refresh_gauges();
    let snaps = Registry::global().snapshot();
    if snaps.is_empty() {
        println!("  (no metrics recorded)");
        return;
    }
    for m in &snaps {
        match &m.value {
            MetricValue::Counter(v) => println!("  {:<40} {v}", m.name),
            MetricValue::Gauge(v) => println!("  {:<40} {v}", m.name),
            MetricValue::Histogram(h) => {
                if h.count == 0 {
                    continue;
                }
                println!(
                    "  {:<40} count {} mean {:.1} p50 ≤ {} p99 ≤ {} max {}",
                    m.name,
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max,
                );
            }
        }
    }
}
