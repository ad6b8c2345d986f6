//! Overload experiment: a fixed 1 000-query batch run under progressively
//! tighter batch deadlines, emitted as `BENCH_overload.json`.
//!
//! ```text
//! cargo run -p ndss-bench --release --bin overload
//! ```
//!
//! Shapes this must show (the PR's acceptance criteria):
//! * as the deadline shrinks, the shed + partial count rises monotonically
//!   (modulo a small scheduling-jitter slack);
//! * every query that *does* complete returns results bit-identical to the
//!   ungoverned baseline — degradation sheds work, it never corrupts it.

use std::time::{Duration, Instant};

use ndss::index::CacheConfig;
use ndss::prelude::*;
use ndss_bench::{owt_like, query_workload, shape_check};
use ndss_json::{Json, ObjectBuilder};

const QUERIES: usize = 1_000;
const THREADS: usize = 4;

fn main() {
    println!("== overload: 1k-query batch under shrinking deadlines ==");
    let dir = std::env::temp_dir().join("ndss_bench_overload_bin");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let (corpus, planted) = owt_like(2, 16_000, 7);
    let params = SearchParams::new(32, 25, 1234).index_config(|c| c.zone_map(256, 1024));
    CorpusIndex::build_on_disk(&corpus, params, &dir).unwrap();
    let queries = query_workload(&corpus, &planted, QUERIES, 60, 99);
    let theta = 0.8;
    let raw = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();

    let batch = |deadline: Option<Duration>| {
        let mut governor = BatchGovernor::default().failure_policy(FailurePolicy::Isolate);
        if let Some(d) = deadline {
            governor = governor.batch_deadline(d);
        }
        BatchSearcher::with_prefix_filter(&raw, PrefixFilter::FrequentFraction(0.05))
            .unwrap()
            .threads(THREADS)
            .governor(governor)
    };

    // Ungoverned baseline: exact results for every query, and the natural
    // batch wall time the deadline sweep is expressed against.
    let start = Instant::now();
    let baseline = batch(None).search_all_governed(&queries, theta);
    let base_secs = start.elapsed().as_secs_f64();
    let expected: Vec<Vec<_>> = baseline
        .iter()
        .map(|r| {
            r.as_ref()
                .expect("ungoverned baseline query failed")
                .enumerate_all()
        })
        .collect();
    println!(
        "baseline: {QUERIES} queries on {THREADS} thread(s) in {base_secs:.3} s (no deadline)"
    );

    // Deadline sweep: multiples of the baseline wall time, down to zero.
    // 2x should complete everything; 0 sheds everything; the interesting
    // degradation curve lives in between.
    let fractions = [2.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.0];
    let mut rows = Vec::new();
    let mut degraded_curve = Vec::new();
    let mut completed_exact = true;
    println!(
        "\n{:>12} {:>10} {:>8} {:>6} {:>7}",
        "deadline", "completed", "partial", "shed", "failed"
    );
    for &frac in &fractions {
        let deadline = Duration::from_secs_f64(base_secs * frac);
        let results = batch(Some(deadline)).search_all_governed(&queries, theta);
        let (mut completed, mut partial, mut shed, mut failed) = (0usize, 0, 0, 0);
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(outcome) => {
                    completed += 1;
                    if outcome.enumerate_all() != expected[i] {
                        completed_exact = false;
                        eprintln!("completed query {i} diverged from baseline at deadline {frac}x");
                    }
                }
                Err(QueryError::BudgetExceeded { partial: p, .. }) => {
                    partial += 1;
                    // A partial is a sound prefix of the exact result set.
                    let got = p.enumerate_all();
                    if expected[i][..got.len().min(expected[i].len())] != got[..] {
                        completed_exact = false;
                        eprintln!("partial query {i} is not a prefix of the baseline");
                    }
                }
                Err(QueryError::Overloaded { .. } | QueryError::Cancelled) => shed += 1,
                Err(_) => failed += 1,
            }
        }
        println!(
            "{:>11.1}ms {completed:>10} {partial:>8} {shed:>6} {failed:>7}",
            deadline.as_secs_f64() * 1e3
        );
        degraded_curve.push(partial + shed);
        rows.push(
            ObjectBuilder::new()
                .field("deadline_fraction_of_baseline", Json::Float(frac))
                .field("deadline_ms", Json::Float(deadline.as_secs_f64() * 1e3))
                .field("completed", Json::UInt(completed as u64))
                .field("partial", Json::UInt(partial as u64))
                .field("shed", Json::UInt(shed as u64))
                .field("failed", Json::UInt(failed as u64))
                .build(),
        );
    }

    // Monotonicity with slack: thread scheduling makes adjacent steps jitter
    // by a handful of queries, so tolerate a small dip but require the curve
    // to rise overall and to reach total shed at deadline zero.
    let slack = (QUERIES / 20).max(2);
    let monotone = degraded_curve.windows(2).all(|w| w[1] + slack >= w[0]);
    let full_shed = *degraded_curve.last().unwrap() == QUERIES;
    shape_check(
        "shed + partial count rises monotonically as the deadline shrinks",
        monotone && full_shed,
        &format!("{degraded_curve:?} (slack {slack})"),
    );
    shape_check(
        "completed queries under overload stay exact; partials are sound prefixes",
        completed_exact,
        "all completed results bit-identical to the ungoverned baseline",
    );

    let report = ObjectBuilder::new()
        .field(
            "workload",
            ObjectBuilder::new()
                .field("texts", Json::UInt(corpus.num_texts() as u64))
                .field("queries", Json::UInt(QUERIES as u64))
                .field("threads", Json::UInt(THREADS as u64))
                .field("theta", Json::Float(theta))
                .field("baseline_secs", Json::Float(base_secs))
                .build(),
        )
        .field("sweep", Json::Array(rows))
        .build();
    let out = "BENCH_overload.json";
    std::fs::write(out, report.to_string_pretty()).unwrap();
    println!("\nwrote {out}");
}
