//! `search_memorized` and `search_novel`: one thread, closed loop, the
//! in-process searcher over one on-disk index.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::adapter::{self, Index, QueryWork, Result, Searcher};
use crate::check::{oracle_check, Gate};
use crate::common::{closed_loop, timed, Options, Setup, Workload};
use crate::host::{self, Scratch};
use crate::load::{Load, Rng, Text};
use crate::report::Metrics;
use crate::trace::Recorder;
use crate::{spec, stats};

/// Requests per block of the traced replay; every fourth block runs bare.
const BARE_BLOCK: usize = 64;

/// The query set a workload searches with.
pub fn queries(load: &Load, workload: Workload) -> &[Text] {
    match workload {
        Workload::SearchMemorized => &load.memorized,
        Workload::SearchNovel => &load.novel,
        Workload::ServeOpenLoop | Workload::WritePath => &load.mixed,
    }
}

/// Runs every query once: fills the program's cache and yields the
/// signature each timed answer is compared with, plus the work counts.
pub fn reference_pass(
    searcher: &Searcher<'_>,
    queries: &[Text],
) -> Result<(Vec<u64>, Vec<QueryWork>)> {
    let mut signatures = Vec::with_capacity(queries.len());
    let mut work = Vec::with_capacity(queries.len());
    for q in queries {
        let outcome = searcher.search(q)?;
        signatures.push(adapter::signature(&outcome, u32::MAX));
        work.push(adapter::work(&outcome));
    }
    Ok((signatures, work))
}

/// Checks `ORACLE_QUERIES` evenly spaced queries against the brute-force
/// definition.
pub fn oracle_sample(
    gate: &mut Gate,
    searcher: &Searcher<'_>,
    load: &Load,
    workload: Workload,
    seed: u64,
) -> Result<()> {
    let queries = queries(load, workload);
    let mut rng = Rng::new(seed ^ 0x0AC1E);
    let step = (queries.len() / spec::ORACLE_QUERIES).max(1);
    for i in (0..queries.len()).step_by(step).take(spec::ORACLE_QUERIES) {
        let must: Vec<u32> = match workload {
            Workload::SearchMemorized => {
                let from = load.memorized_from[i];
                vec![from.src.text, from.dst.text]
            }
            _ => Vec::new(),
        };
        let outcome = searcher.search(&queries[i])?;
        oracle_check(
            gate,
            &outcome,
            &queries[i],
            &must,
            load.corpus.texts.len() as u32,
            |id| &load.corpus.texts[id as usize],
            &mut rng,
        )?;
    }
    Ok(())
}

/// The end-to-end run: set up, warm up, time, check.
pub fn run(
    opts: &Options,
    scratch: &Scratch,
    gate: &mut Gate,
    metrics: &mut Metrics,
) -> Result<()> {
    let mut setup = Setup::default();
    let build = |corpus: &adapter::Corpus, dir: &Path| Index::build(corpus, dir).map(drop);
    let open = |dir: &Path| {
        let index = Index::open(dir, false)?;
        // Deriving a searcher (the filter's cutoffs) is set-up too.
        index.searcher()?;
        Ok(index)
    };
    let (load, dir, index) = setup.repeat(opts, scratch, 0, build, open)?;
    let searcher = index.searcher()?;
    let queries = queries(&load, opts.workload);
    let (reference, _) = reference_pass(&searcher, queries)?;

    let mut mismatches = 0u64;
    let run = closed_loop(opts.seconds, |i| -> Result<()> {
        let slot = i % queries.len();
        let outcome = searcher.search(&queries[slot])?;
        if adapter::signature(&outcome, u32::MAX) != reference[slot] {
            mismatches += 1;
        }
        Ok(())
    })?;
    setup.end_timed_region();
    let ops = run.latencies_us.len();
    gate.add(ops as u64, mismatches, "timed answers (checksum)");
    oracle_sample(gate, &searcher, &load, opts.workload, opts.seed)?;
    setup.repeat_after(opts, scratch, 0, build, open)?;

    let best = run.best_pass(queries.len());
    println!(
        "query latency over the whole region: {}; best of {} passes is reported",
        stats::summarize(&run.latencies_us).describe("us"),
        best.passes
    );
    metrics.set("ops_per_s", best.ops_per_s, ops);
    metrics.set("op_p50_us", best.p50_us, ops);
    metrics.set("op_p95_us", best.p95_us, ops);
    metrics.set(
        "index_bytes_per_token",
        adapter::serving_bytes(&dir)? as f64 / setup.tokens as f64,
        1,
    );
    metrics.set("write_bytes_per_user_byte", setup.build_write_ratio(), 1);
    setup.report(metrics);
    Ok(())
}

/// The search layers as seen through `queries`: an untraced baseline, the
/// traced replay (`sketch`, `plan`, `search`, `rank` as spans of one
/// request), and the side measurements that need the searcher.
pub fn traced_stage(
    index: &Index,
    queries: &[Text],
    seconds: f64,
    rec: &mut Recorder,
    gate: &mut Gate,
    metrics: &mut Metrics,
) -> Result<()> {
    let searcher = index.searcher()?;
    let (reference, work) = reference_pass(&searcher, queries)?;
    let n = work.len();
    let per_query = |f: fn(&QueryWork) -> u64| work.iter().map(f).sum::<u64>() as f64 / n as f64;
    metrics.set("query.postings_per_query", per_query(|w| w.postings), n);
    metrics.set("query.probes_per_query", per_query(|w| w.probes), n);
    metrics.set("query.candidates_per_query", per_query(|w| w.candidates), n);
    metrics.set("query.lists_long_per_query", per_query(|w| w.lists_long), n);
    metrics.set("query.io_bytes_per_query", per_query(|w| w.io_bytes), n);
    let candidates: u64 = work.iter().map(|w| w.candidates).sum();
    let matched: u64 = work.iter().map(|w| w.matched).sum();
    metrics.set(
        "query.matched_per_candidate",
        matched as f64 / candidates.max(1) as f64,
        candidates as usize,
    );

    // Untraced baseline on warm caches: rate, latency, and the shares of
    // the program's own stage timers.
    let mut stages = QueryWork::default();
    let baseline = closed_loop((seconds / 4.0).clamp(0.5, 2.0), |i| -> Result<()> {
        let w = adapter::work(&searcher.search(&queries[i % queries.len()])?);
        stages.total_ns += w.total_ns;
        stages.sketch_ns += w.sketch_ns;
        stages.plan_ns += w.plan_ns;
        stages.gather_ns += w.gather_ns;
        stages.count_ns += w.count_ns;
        stages.probe_ns += w.probe_ns;
        stages.cache_hits += w.cache_hits;
        stages.cache_misses += w.cache_misses;
        Ok(())
    })?;
    let ops = baseline.latencies_us.len();
    let share = |ns: u64| ns as f64 / stages.total_ns.max(1) as f64;
    metrics.set("query.stage_share.sketch", share(stages.sketch_ns), ops);
    metrics.set("query.stage_share.plan", share(stages.plan_ns), ops);
    metrics.set("query.stage_share.gather", share(stages.gather_ns), ops);
    metrics.set("query.stage_share.count", share(stages.count_ns), ops);
    metrics.set("query.stage_share.probe", share(stages.probe_ns), ops);
    metrics.set(
        "index.cache.hit_rate",
        stages.cache_hits as f64 / (stages.cache_hits + stages.cache_misses).max(1) as f64,
        ops,
    );
    let best = baseline.best_pass(queries.len());
    metrics.set("query.search_qps", best.ops_per_s, ops);
    metrics.set("query.search_p50_us", best.p50_us, ops);
    metrics.set("mem.timed_rss_mib", host::rss_mib(), 1);

    // The traced replay. One request in four is a bare `search` under a
    // single span, interleaved in blocks, so that the cost of replaying a
    // request as four spans is measured against calls made in the same
    // seconds and not against an earlier pass.
    let mut mismatches = 0u64;
    let stage = rec.begin("stage.search");
    let replay = closed_loop(seconds, |i| -> Result<()> {
        let slot = i % queries.len();
        let query = &queries[slot];
        rec.set_request(i as u64);
        if (i / BARE_BLOCK) % 4 == 3 {
            let outcome = rec.span("query.search.bare", || searcher.search(query))?;
            mismatches += (adapter::signature(&outcome, u32::MAX) != reference[slot]) as u64;
            return Ok(());
        }
        let request = rec.begin("query");
        let sketch = rec.span("hash.sketch", || searcher.sketch(query));
        let plan = rec.begin("query.plan");
        let deferred = searcher.plan(&sketch)?;
        rec.count(plan, "deferred", deferred as u64);
        rec.end(plan);
        let search = rec.begin("query.search");
        let outcome = searcher.search(query)?;
        let w = adapter::work(&outcome);
        rec.count(search, "postings", w.postings);
        rec.count(search, "probes", w.probes);
        rec.count(search, "candidates", w.candidates);
        rec.end(search);
        let rank = rec.begin("query.rank");
        let top = searcher.rank(&outcome);
        rec.count(rank, "matches", top.len() as u64);
        rec.end(rank);
        rec.end(request);
        if adapter::signature(&outcome, u32::MAX) != reference[slot] {
            mismatches += 1;
        }
        Ok(())
    })?;
    rec.end(stage);
    gate.add(
        replay.latencies_us.len() as u64,
        mismatches,
        "traced answers (checksum)",
    );
    let traced = rec.durations("query");
    metrics.set(
        "query.rank_us",
        stats::median(&rec.durations("query.rank")) / 1e3,
        traced.len(),
    );
    metrics.set(
        "query.plan_ns",
        stats::median(&rec.durations("query.plan")),
        traced.len(),
    );
    let bare = rec.durations("query.search.bare");
    if bare.is_empty() {
        return Err("the traced replay was too short to reach a bare block".into());
    }
    metrics.set(
        "trace.overhead_pct",
        100.0 * (stats::mean(&traced) / stats::mean(&bare) - 1.0),
        traced.len(),
    );

    // The program's own instrumentation on and off, interleaved.
    let sample = &queries[..queries.len().min(400)];
    let pass = |on: bool| -> Result<f64> {
        adapter::set_instrumentation(on);
        let start = Instant::now();
        for q in sample {
            black_box(searcher.search(q)?);
        }
        Ok(start.elapsed().as_secs_f64())
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        on.push(pass(true)?);
        off.push(pass(false)?);
    }
    adapter::set_instrumentation(true);
    let (on, off) = (stats::median(&on), stats::median(&off));
    metrics.set(
        "obs.overhead_pct",
        100.0 * (on - off) / off,
        3 * sample.len(),
    );

    // The daemon's default planner against the fixed filter.
    let sample = &queries[..queries.len().min(40)];
    let adaptive = index.adaptive_searcher()?;
    let time_with = |s: &Searcher<'_>| -> Result<f64> {
        let start = Instant::now();
        for q in sample {
            black_box(s.search(q)?);
        }
        Ok(start.elapsed().as_secs_f64())
    };
    time_with(&adaptive)?;
    let slow = time_with(&adaptive)?;
    let fast = time_with(&searcher)?;
    metrics.set("query.planner.adaptive_slowdown", slow / fast, sample.len());

    // Batch search on one thread and on all cores.
    let sample = &queries[..queries.len().min(1_000)];
    for (name, threads) in [
        ("query.batch.qps_t1", 1),
        ("query.batch.qps_tN", host::nproc()),
    ] {
        let (outcomes, secs) = timed(|| index.search_batch(sample, threads));
        let outcomes = outcomes?;
        let wrong = outcomes
            .iter()
            .zip(&reference)
            .filter(|(o, r)| adapter::signature(o, u32::MAX) != **r)
            .count();
        gate.add(
            outcomes.len() as u64,
            wrong as u64,
            "batch answers (checksum)",
        );
        metrics.set(name, sample.len() as f64 / secs, sample.len());
    }
    Ok(())
}
