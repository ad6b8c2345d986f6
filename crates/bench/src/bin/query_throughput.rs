//! Batch query throughput report: serial vs `BatchSearcher` at several
//! thread counts, plus cold-vs-warm hot-list-cache behaviour, emitted as
//! `BENCH_query_throughput.json` for machine consumption.
//!
//! ```text
//! cargo run -p ndss-bench --release --bin query_throughput
//! ```
//!
//! Shapes this must show (the PR's acceptance criteria):
//! * batch throughput at ≥ 4 threads ≥ 2× the serial loop, identical results;
//! * a second (cache-warm) pass reads fewer IO bytes than the first and
//!   reports a non-trivial posting-list cache hit rate;
//! * journal checkpointing (crash-safe resumable builds) adds < 3% to
//!   external-build wall time;
//! * instrumentation overhead on the query path < 5%;
//! * format v5 (bitpacked blocks, SIMD unpack, optional mmap) answers the
//!   same warm workload at ≥ 2× v4's single-query throughput, with
//!   identical results.

use std::time::Instant;

use ndss::index::{CacheConfig, ReadOptions};
use ndss::prelude::*;
use ndss_bench::{owt_like, query_workload, shape_check};
use ndss_json::{Json, ObjectBuilder};

fn qps(n: usize, secs: f64) -> f64 {
    n as f64 / secs.max(1e-9)
}

fn sum_io(outcomes: &[SearchOutcome]) -> (u64, u64, u64) {
    let mut bytes = 0;
    let mut hits = 0;
    let mut misses = 0;
    for o in outcomes {
        bytes += o.stats.io_bytes;
        hits += o.stats.cache_hits;
        misses += o.stats.cache_misses;
    }
    (bytes, hits, misses)
}

fn main() {
    println!("== query throughput: serial vs batch, cold vs warm cache ==");
    let dir = std::env::temp_dir().join("ndss_bench_query_throughput_bin");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let (corpus, planted) = owt_like(2, 16_000, 7);
    let params = SearchParams::new(32, 25, 1234).index_config(|c| c.zone_map(256, 1024));
    CorpusIndex::build_on_disk(&corpus, params, &dir).unwrap();
    let queries = query_workload(&corpus, &planted, 128, 60, 99);
    let theta = 0.8;

    // ---- Build durability: journal checkpointing on vs off. --------------
    // The journaled external build fdatasyncs its spill files and atomically
    // publishes a progress manifest at every batch checkpoint and after
    // every committed function; the gate holds that durability cost under
    // 3% of external-build wall time. The checkpoint pipeline hides the
    // spill fdatasyncs behind the next batch's window generation, so the
    // build is sized for a dozen real batches (larger corpus than the query
    // sections, explicit batch budget) — one giant batch would serialize
    // the final sync and measure raw disk writeback instead of the
    // steady-state overhead. Interleaved best-of-3 per variant keeps
    // background-load drift from landing on one side of the comparison.
    let build_dir = std::env::temp_dir().join("ndss_bench_query_throughput_build");
    let (build_corpus, _) = owt_like(8, 16_000, 11);
    let ext_config = IndexConfig::new(8, 25, 1234);
    let time_external_build = |journal: bool| {
        std::fs::remove_dir_all(&build_dir).ok();
        std::fs::create_dir_all(&build_dir).unwrap();
        let start = Instant::now();
        ExternalIndexBuilder::new(ext_config.clone())
            .journal(journal)
            .batch_tokens(1 << 19)
            .parallel(true)
            .build(&build_corpus, &build_dir)
            .unwrap();
        start.elapsed().as_secs_f64()
    };
    let mut secs_journal_on = f64::INFINITY;
    let mut secs_journal_off = f64::INFINITY;
    for _ in 0..3 {
        secs_journal_on = secs_journal_on.min(time_external_build(true));
        secs_journal_off = secs_journal_off.min(time_external_build(false));
    }
    std::fs::remove_dir_all(&build_dir).ok();
    let journal_pct = 100.0 * (secs_journal_on - secs_journal_off) / secs_journal_off.max(1e-9);
    println!(
        "external build: {secs_journal_on:.2}s journaled vs {secs_journal_off:.2}s bare \
         ({journal_pct:+.2}% durability overhead)"
    );
    shape_check(
        "journal checkpointing adds < 3% to external-build wall time",
        journal_pct < 3.0,
        &format!("{journal_pct:+.2}%"),
    );

    // ---- Serial baseline vs batch across thread counts. ------------------
    // Cache disabled so every pass measures raw positioned-read throughput,
    // not a residency difference between runs.
    let raw = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();
    let searcher =
        NearDupSearcher::with_prefix_filter(&raw, PrefixFilter::FrequentFraction(0.05)).unwrap();
    // Warm the page cache once so serial vs batch compare compute + syscalls.
    let expected: Vec<Vec<_>> = queries
        .iter()
        .map(|q| searcher.search(q, theta).unwrap().enumerate_all())
        .collect();

    let start = Instant::now();
    for q in &queries {
        std::hint::black_box(searcher.search(q, theta).unwrap());
    }
    let serial_secs = start.elapsed().as_secs_f64();
    let serial_qps = qps(queries.len(), serial_secs);
    println!("serial: {serial_qps:.1} queries/s");

    // ---- Instrumentation overhead: registry recording on vs off. ---------
    // Same serial workload, best of 3 passes each way to damp scheduler
    // noise. The metrics hot path is pure relaxed atomics, so the enabled
    // run must stay within 5% of the disabled run.
    let time_serial = || {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            for q in &queries {
                std::hint::black_box(searcher.search(q, theta).unwrap());
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    assert!(ndss::obs::is_enabled(), "instrumentation should default on");
    let secs_on = time_serial();
    ndss::obs::set_enabled(false);
    let secs_off = time_serial();
    ndss::obs::set_enabled(true);
    let overhead_pct = 100.0 * (secs_on - secs_off) / secs_off.max(1e-9);
    println!(
        "instrumentation: {:.1} q/s enabled vs {:.1} q/s disabled ({overhead_pct:+.2}% overhead)",
        qps(queries.len(), secs_on),
        qps(queries.len(), secs_off)
    );
    shape_check(
        "instrumentation overhead on the query path < 5%",
        overhead_pct < 5.0,
        &format!("{overhead_pct:+.2}%"),
    );

    // ---- Governance overhead: budget checkpoints on the hot path. --------
    // Every search now runs through the governor's checkpoints; with no
    // limits set each check collapses to one pre-resolved branch. The gate:
    // searching through the governed entry point with an unlimited budget
    // must cost < 2% vs the plain entry point — governance is compiled in
    // and always on, so its idle cost has to be noise. A run with live
    // (never-tripping) limits is also reported, un-gated: that is the price
    // of actual enforcement (per-checkpoint deadline reads dominate it).
    // Interleave the two variants and take the minimum of five passes each:
    // on a shared host, background load drifts over seconds, and adjacent
    // (rather than back-to-back-blocked) samples keep that drift from
    // landing entirely on one side of the comparison.
    let unlimited = QueryBudget::unlimited();
    let mut secs_plain = f64::INFINITY;
    let mut secs_governed = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for q in &queries {
            std::hint::black_box(searcher.search(q, theta).unwrap());
        }
        secs_plain = secs_plain.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for q in &queries {
            std::hint::black_box(searcher.search_governed(q, theta, &unlimited).unwrap());
        }
        secs_governed = secs_governed.min(start.elapsed().as_secs_f64());
    }
    let governance_pct = 100.0 * (secs_governed - secs_plain) / secs_plain.max(1e-9);
    println!(
        "governance: {:.1} q/s plain vs {:.1} q/s governed-unlimited \
         ({governance_pct:+.2}% overhead)",
        qps(queries.len(), secs_plain),
        qps(queries.len(), secs_governed)
    );
    shape_check(
        "governance overhead with an unlimited budget < 2%",
        governance_pct < 2.0,
        &format!("{governance_pct:+.2}%"),
    );
    let generous = QueryBudget::unlimited()
        .time_limit(std::time::Duration::from_secs(3600))
        .max_io_bytes(u64::MAX)
        .max_candidates(u64::MAX)
        .max_result_matches(usize::MAX);
    let secs_enforced = {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            for q in &queries {
                std::hint::black_box(searcher.search_governed(q, theta, &generous).unwrap());
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let enforcement_pct = 100.0 * (secs_enforced - secs_plain) / secs_plain.max(1e-9);
    println!(
        "governance: {:.1} q/s with live (never-tripping) limits \
         ({enforcement_pct:+.2}% enforcement cost, informational)",
        qps(queries.len(), secs_enforced)
    );

    // ---- Format shootout: v5 bitpacked blocks vs v4 varint blocks. -------
    // Same corpus, same recorded query workload, hot-list cache disabled so
    // every query exercises the on-disk decode path, page cache warmed by
    // the verification pass. v4 decodes one LEB128 varint delta at a time
    // behind pread; v5 unpacks fixed 128-entry bitplanes with the SIMD
    // kernel, seeks probes via per-block skip entries, and can map the file
    // instead of pread-ing it. The tentpole gate: v5 over its best read
    // path must deliver ≥ 2× v4's warm single-query throughput.
    // Interleaved best-of-5 per variant, as above.
    let dir_v4 = std::env::temp_dir().join("ndss_bench_query_throughput_v4");
    let dir_v5 = std::env::temp_dir().join("ndss_bench_query_throughput_v5");
    for d in [&dir_v4, &dir_v5] {
        std::fs::remove_dir_all(d).ok();
        std::fs::create_dir_all(d).unwrap();
    }
    CorpusIndex::build_on_disk(
        &corpus,
        SearchParams::new(32, 25, 1234).index_config(|c| c.compressed(true)),
        &dir_v4,
    )
    .unwrap();
    CorpusIndex::build_on_disk(
        &corpus,
        SearchParams::new(32, 25, 1234).index_config(|c| c.bit_packed(true)),
        &dir_v5,
    )
    .unwrap();
    let v4_idx = DiskIndex::open_with_cache(&dir_v4, CacheConfig::disabled()).unwrap();
    let v5_idx = DiskIndex::open_with_cache(&dir_v5, CacheConfig::disabled()).unwrap();
    let v5_map_idx =
        DiskIndex::open_with_io(&dir_v5, CacheConfig::disabled(), ReadOptions::with_mmap())
            .unwrap();
    let s_v4 =
        NearDupSearcher::with_prefix_filter(&v4_idx, PrefixFilter::FrequentFraction(0.05)).unwrap();
    let s_v5 =
        NearDupSearcher::with_prefix_filter(&v5_idx, PrefixFilter::FrequentFraction(0.05)).unwrap();
    let s_v5_map =
        NearDupSearcher::with_prefix_filter(&v5_map_idx, PrefixFilter::FrequentFraction(0.05))
            .unwrap();
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            s_v4.search(q, theta).unwrap().enumerate_all(),
            expected[i],
            "v4 diverged at query {i}"
        );
        assert_eq!(
            s_v5.search(q, theta).unwrap().enumerate_all(),
            expected[i],
            "v5 diverged at query {i}"
        );
        assert_eq!(
            s_v5_map.search(q, theta).unwrap().enumerate_all(),
            expected[i],
            "v5+mmap diverged at query {i}"
        );
    }
    let mut secs_v4 = f64::INFINITY;
    let mut secs_v5 = f64::INFINITY;
    let mut secs_v5_map = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for q in &queries {
            std::hint::black_box(s_v4.search(q, theta).unwrap());
        }
        secs_v4 = secs_v4.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for q in &queries {
            std::hint::black_box(s_v5.search(q, theta).unwrap());
        }
        secs_v5 = secs_v5.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for q in &queries {
            std::hint::black_box(s_v5_map.search(q, theta).unwrap());
        }
        secs_v5_map = secs_v5_map.min(start.elapsed().as_secs_f64());
    }
    let v4_qps = qps(queries.len(), secs_v4);
    let v5_qps = qps(queries.len(), secs_v5);
    let v5_map_qps = qps(queries.len(), secs_v5_map);
    let v5_best = v5_qps.max(v5_map_qps);
    println!(
        "format shootout: v4 {v4_qps:.1} q/s, v5 {v5_qps:.1} q/s, \
         v5+mmap {v5_map_qps:.1} q/s ({:.2}x best-v5 vs v4)",
        v5_best / v4_qps
    );
    shape_check(
        "v5 warm single-query throughput ≥ 2x v4",
        v5_best >= 2.0 * v4_qps,
        &format!("{:.2}x", v5_best / v4_qps),
    );

    let mut batch_rows = Vec::new();
    let mut qps_at_4 = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let runner = BatchSearcher::with_prefix_filter(&raw, PrefixFilter::FrequentFraction(0.05))
            .unwrap()
            .threads(threads);
        let start = Instant::now();
        let outcomes = runner.search_all(&queries, theta).unwrap();
        let secs = start.elapsed().as_secs_f64();
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(
                o.enumerate_all(),
                expected[i],
                "batch diverged at query {i}"
            );
        }
        let rate = qps(queries.len(), secs);
        if threads == 4 {
            qps_at_4 = rate;
        }
        println!(
            "batch {threads} thread(s): {rate:.1} queries/s ({:.2}x serial)",
            rate / serial_qps
        );
        batch_rows.push(
            ObjectBuilder::new()
                .field("threads", Json::UInt(threads as u64))
                .field("queries_per_sec", Json::Float(rate))
                .field("speedup_vs_serial", Json::Float(rate / serial_qps))
                .build(),
        );
    }
    let cores = ndss::parallel::default_threads();
    if cores >= 4 {
        shape_check(
            "batch at 4 threads ≥ 2x serial throughput",
            qps_at_4 >= 2.0 * serial_qps,
            &format!("{:.2}x on {cores} cores", qps_at_4 / serial_qps),
        );
    } else {
        println!(
            "shape-check [SKIP] batch ≥ 2x serial: only {cores} core(s) available, \
             no parallel speedup is measurable on this host ({:.2}x observed)",
            qps_at_4 / serial_qps
        );
    }

    // ---- Cold vs warm hot-list cache. ------------------------------------
    let cached = DiskIndex::open_with_cache(&dir, CacheConfig::default()).unwrap();
    let runner = BatchSearcher::with_prefix_filter(&cached, PrefixFilter::FrequentFraction(0.05))
        .unwrap()
        .threads(4);
    let cold = runner.search_all(&queries, theta).unwrap();
    let (cold_bytes, cold_hits, cold_misses) = sum_io(&cold);
    let warm = runner.search_all(&queries, theta).unwrap();
    let (warm_bytes, warm_hits, warm_misses) = sum_io(&warm);
    let warm_hit_rate = warm_hits as f64 / (warm_hits + warm_misses).max(1) as f64;
    println!(
        "cold pass: {cold_bytes} io bytes ({cold_hits} hits / {cold_misses} misses)\n\
         warm pass: {warm_bytes} io bytes ({warm_hits} hits / {warm_misses} misses, \
         hit rate {:.1}%)",
        100.0 * warm_hit_rate
    );
    shape_check(
        "warm pass reads fewer io bytes than cold pass",
        warm_bytes < cold_bytes,
        &format!("{warm_bytes} < {cold_bytes}"),
    );

    // ---- Sharded scatter-gather: 4 shards vs 1. --------------------------
    // Same corpus and workload through the ShardedSearcher: a 1-shard store
    // (the single-index special case, scatter runs inline) vs a 4-shard
    // store fanning each query out on the worker pool. Each shard holds a
    // quarter of the postings, so with ≥ 4 cores the fan-out should beat
    // the single index on wall time; on smaller hosts the gate is reported
    // as a skip, not a failure. Results must stay bit-identical to the
    // single-index baseline throughout — sharding is an execution detail,
    // never a semantic one. Interleaved best-of-3 per variant, as above.
    let dir_s1 = std::env::temp_dir().join("ndss_bench_query_throughput_s1");
    let dir_s4 = std::env::temp_dir().join("ndss_bench_query_throughput_s4");
    for d in [&dir_s1, &dir_s4] {
        std::fs::remove_dir_all(d).ok();
        std::fs::create_dir_all(d).unwrap();
    }
    let shard_config = IndexConfig::new(32, 25, 1234).zone_map(256, 1024);
    let opts = ShardedBuildOptions::default();
    build_sharded(&corpus, shard_config.clone(), &dir_s1, 1, &opts).unwrap();
    build_sharded(&corpus, shard_config, &dir_s4, 4, &opts).unwrap();
    let uncached = ServingOptions {
        cache: CacheConfig::disabled(),
        ..ServingOptions::default()
    };
    let view_s1 = ShardedIndex::open_with(&dir_s1, &uncached).unwrap();
    let view_s4 = ShardedIndex::open_with(&dir_s4, &uncached).unwrap();
    let search_s1 = view_s1
        .searcher_with_filter(PrefixFilter::FrequentFraction(0.05))
        .unwrap()
        .threads(4);
    let search_s4 = view_s4
        .searcher_with_filter(PrefixFilter::FrequentFraction(0.05))
        .unwrap()
        .threads(4);
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            search_s1.search(q, theta).unwrap().enumerate_all(),
            expected[i],
            "1-shard store diverged at query {i}"
        );
        assert_eq!(
            search_s4.search(q, theta).unwrap().enumerate_all(),
            expected[i],
            "4-shard store diverged at query {i}"
        );
    }
    let mut secs_s1 = f64::INFINITY;
    let mut secs_s4 = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for q in &queries {
            std::hint::black_box(search_s1.search(q, theta).unwrap());
        }
        secs_s1 = secs_s1.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for q in &queries {
            std::hint::black_box(search_s4.search(q, theta).unwrap());
        }
        secs_s4 = secs_s4.min(start.elapsed().as_secs_f64());
    }
    let s1_qps = qps(queries.len(), secs_s1);
    let s4_qps = qps(queries.len(), secs_s4);
    println!(
        "sharded scatter-gather: 1 shard {s1_qps:.1} q/s, 4 shards {s4_qps:.1} q/s \
         ({:.2}x) on {cores} core(s)",
        s4_qps / s1_qps
    );
    if cores >= 4 {
        shape_check(
            "4-shard scatter-gather beats 1-shard wall time",
            secs_s4 < secs_s1,
            &format!("{:.2}x on {cores} cores", s4_qps / s1_qps),
        );
    } else {
        println!(
            "shape-check [SKIP] 4-shard beats 1-shard: only {cores} core(s) available, \
             no scatter speedup is measurable on this host ({:.2}x observed)",
            s4_qps / s1_qps
        );
    }
    for d in [&dir_s1, &dir_s4] {
        std::fs::remove_dir_all(d).ok();
    }

    // ---- Emit the report. ------------------------------------------------
    let report = ObjectBuilder::new()
        .field(
            "workload",
            ObjectBuilder::new()
                .field("texts", Json::UInt(corpus.num_texts() as u64))
                .field("tokens", Json::UInt(corpus.total_tokens()))
                .field("queries", Json::UInt(queries.len() as u64))
                .field("theta", Json::Float(theta))
                .field("k", Json::UInt(32))
                .field("t", Json::UInt(25))
                .build(),
        )
        .field("available_cores", Json::UInt(cores as u64))
        .field("serial_queries_per_sec", Json::Float(serial_qps))
        .field(
            "build_journal",
            ObjectBuilder::new()
                .field(
                    "external_build_secs_journaled",
                    Json::Float(secs_journal_on),
                )
                .field("external_build_secs_bare", Json::Float(secs_journal_off))
                .field("overhead_pct", Json::Float(journal_pct))
                .build(),
        )
        .field(
            "instrumentation",
            ObjectBuilder::new()
                .field(
                    "queries_per_sec_enabled",
                    Json::Float(qps(queries.len(), secs_on)),
                )
                .field(
                    "queries_per_sec_disabled",
                    Json::Float(qps(queries.len(), secs_off)),
                )
                .field("overhead_pct", Json::Float(overhead_pct))
                .build(),
        )
        .field(
            "governance",
            ObjectBuilder::new()
                .field(
                    "queries_per_sec_plain",
                    Json::Float(qps(queries.len(), secs_plain)),
                )
                .field(
                    "queries_per_sec_governed_unlimited",
                    Json::Float(qps(queries.len(), secs_governed)),
                )
                .field("overhead_pct", Json::Float(governance_pct))
                .field(
                    "queries_per_sec_live_limits",
                    Json::Float(qps(queries.len(), secs_enforced)),
                )
                .field("enforcement_pct", Json::Float(enforcement_pct))
                .build(),
        )
        .field(
            "format_shootout",
            ObjectBuilder::new()
                .field("queries_per_sec_v4", Json::Float(v4_qps))
                .field("queries_per_sec_v5", Json::Float(v5_qps))
                .field("queries_per_sec_v5_mmap", Json::Float(v5_map_qps))
                .field("v5_best_speedup_vs_v4", Json::Float(v5_best / v4_qps))
                .build(),
        )
        .field("batch", Json::Array(batch_rows))
        .field(
            "sharded",
            ObjectBuilder::new()
                .field("available_cores", Json::UInt(cores as u64))
                .field("queries_per_sec_1_shard", Json::Float(s1_qps))
                .field("queries_per_sec_4_shards", Json::Float(s4_qps))
                .field("speedup_4_shards_vs_1", Json::Float(s4_qps / s1_qps))
                .field("gate_applies", Json::Bool(cores >= 4))
                .build(),
        )
        .field(
            "hot_list_cache",
            ObjectBuilder::new()
                .field("cold_io_bytes", Json::UInt(cold_bytes))
                .field("warm_io_bytes", Json::UInt(warm_bytes))
                .field(
                    "io_bytes_saved_pct",
                    Json::Float(100.0 * (1.0 - warm_bytes as f64 / cold_bytes.max(1) as f64)),
                )
                .field("warm_hit_rate", Json::Float(warm_hit_rate))
                .build(),
        )
        .build();
    let out = "BENCH_query_throughput.json";
    std::fs::write(out, report.to_string_pretty()).unwrap();
    println!("\nwrote {out}");
}
