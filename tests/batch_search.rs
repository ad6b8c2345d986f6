//! Batch query engine: determinism across thread counts against a disk
//! index, and per-query IO attribution (each outcome's `QueryStats` must
//! account for exactly its own query's work, with no cross-query bleed
//! under concurrency, and the registry must move by exactly their sum).
//!
//! The registry is process-wide, so every test here holds [`REGISTRY`]:
//! each one searches, and one compares registry deltas.

use std::sync::{Mutex, MutexGuard};

use ndss::index::CacheConfig;
use ndss::obs::MetricValue;
use ndss::prelude::*;
use ndss::query::QueryStats;
use ndss_integration::scratch;

static REGISTRY: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The registry counters a query folds its cost into.
const FOLDED: [&str; 8] = [
    "index.io.reads",
    "index.io.bytes",
    "index.cache.posting.hits",
    "index.cache.posting.misses",
    "index.cache.zone.hits",
    "index.cache.zone.misses",
    "query.io.bytes",
    "query.count",
];

/// Current values of [`FOLDED`] (0 while unregistered).
fn folded() -> [u64; 8] {
    let metrics = Registry::global().snapshot();
    FOLDED.map(|name| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0, |m| match m.value {
                MetricValue::Counter(v) => v,
                _ => panic!("{name} is not a counter"),
            })
    })
}

/// How far [`FOLDED`] moved since `before` was read.
fn folded_since(before: [u64; 8]) -> [u64; 8] {
    let now = folded();
    std::array::from_fn(|i| now[i] - before[i])
}

/// What [`FOLDED`] must move by over `outcomes`. `QueryStats` carries no
/// read count, so `index.io.reads` is the caller's `reads`.
fn expected_fold(outcomes: &[SearchOutcome], reads: u64) -> [u64; 8] {
    let sum = |field: fn(&QueryStats) -> u64| outcomes.iter().map(|o| field(&o.stats)).sum();
    [
        reads,
        sum(|s| s.io_bytes),
        sum(|s| s.cache_hits),
        sum(|s| s.cache_misses),
        sum(|s| s.zone_hits),
        sum(|s| s.zone_misses),
        sum(|s| s.io_bytes),
        outcomes.len() as u64,
    ]
}

fn workload(seed: u64) -> (InMemoryCorpus, Vec<Vec<TokenId>>) {
    let (corpus, planted) = SyntheticCorpusBuilder::new(seed)
        .num_texts(150)
        .text_len(150, 300)
        .duplicates_per_text(1.0)
        .dup_len(50, 90)
        .mutation_rate(0.03)
        .build();
    let queries: Vec<Vec<TokenId>> = planted
        .iter()
        .take(24)
        .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
        .collect();
    assert!(queries.len() >= 20, "expected a non-trivial query set");
    (corpus, queries)
}

/// The same query set through `ShardedSearcher::single` at 1/4/8 threads returns
/// results identical to a serial `NearDupSearcher` loop, in input order,
/// against a disk index (positioned reads + shared caches).
#[test]
fn batch_results_identical_to_serial_on_disk_index() {
    let _registry = registry_lock();
    let (corpus, queries) = workload(2024);
    let dir = scratch("batch", "determinism");
    ndss::index::build_and_write(&corpus, IndexConfig::new(16, 25, 5), &dir, true).unwrap();
    let index = DiskIndex::open(&dir).unwrap();

    let serial = NearDupSearcher::new(&index).unwrap();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| {
            let o = serial.search(q, 0.8).unwrap();
            (o.enumerate_all(), o.stats.postings_read)
        })
        .collect();

    for threads in [1usize, 4, 8] {
        let batch = ShardedSearcher::single(&index, PrefixFilter::Disabled)
            .unwrap()
            .threads(threads);
        let outcomes = batch.search_all(&queries, 0.8).unwrap();
        assert_eq!(outcomes.len(), queries.len());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(
                o.enumerate_all(),
                expected[i].0,
                "query {i} results diverged at {threads} threads"
            );
            assert_eq!(
                o.stats.postings_read, expected[i].1,
                "query {i} postings_read diverged at {threads} threads"
            );
        }
    }
}

/// With caching disabled, every byte the index reads belongs to exactly one
/// query, and each query folds its own accumulator into the registry once:
/// over N queries, serial or at 1, 4 and 8 threads, on a zone-mapped v3
/// index and a v6 index, every registry delta equals the sum of the
/// outcomes' stats. Diffing shared counters around one query is the
/// property the old snapshot-diff accounting violated under concurrency.
#[test]
fn per_query_io_sums_to_global_counters_without_bleed() {
    let _registry = registry_lock();
    let (corpus, queries) = workload(2025);
    // Tiny zone thresholds, so the v3 probes go through zone maps.
    let v3 = IndexConfig::new(16, 25, 5).zone_map(4, 8);
    for (format, config) in [("v3", v3.clone()), ("v6", v3.bit_packed(true))] {
        let dir = scratch("batch", &format!("attribution_{format}"));
        ndss::index::build_and_write(&corpus, config, &dir, true).unwrap();
        let index = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();
        let filter = PrefixFilter::default();

        let serial = NearDupSearcher::with_prefix_filter(&index, filter).unwrap();
        let before = folded();
        let outcomes: Vec<SearchOutcome> = queries
            .iter()
            .map(|q| serial.search(q, 0.8).unwrap())
            .collect();
        let delta = folded_since(before);
        // Reads are schedule-independent on a cold cache: the serial pass's
        // count is what every batch must fold.
        let reads = delta[0];
        assert_eq!(delta, expected_fold(&outcomes, reads), "{format} serial");
        assert!(reads > 0, "{format}: disk searches must report IO");
        if format == "v3" {
            assert!(delta[5] > 0, "v3 probes must consult zone maps");
        }
        let serial_io: Vec<u64> = outcomes.iter().map(|o| o.stats.io_bytes).collect();

        for threads in [1usize, 4, 8] {
            let batch = ShardedSearcher::single(&index, filter)
                .unwrap()
                .threads(threads);
            let before = folded();
            let outcomes = batch.search_all(&queries, 0.8).unwrap();
            let delta = folded_since(before);
            let per_query: Vec<u64> = outcomes.iter().map(|o| o.stats.io_bytes).collect();
            // No bleed: each query charged exactly what it read (searches
            // are deterministic, so the serial numbers are ground truth)…
            assert_eq!(
                per_query, serial_io,
                "{format}: per-query io_bytes misattributed at {threads} threads"
            );
            // …and nothing lost or double-counted in the registry.
            assert_eq!(
                delta,
                expected_fold(&outcomes, reads),
                "{format}: registry fold mismatch at {threads} threads"
            );
        }
    }
}

/// The hot posting-list cache: a second pass over the same queries reads
/// strictly fewer bytes and reports cache hits through `QueryStats`.
#[test]
fn warm_cache_cuts_io_and_reports_hits() {
    let _registry = registry_lock();
    let (corpus, queries) = workload(2026);
    let dir = scratch("batch", "warm_cache");
    ndss::index::build_and_write(&corpus, IndexConfig::new(16, 25, 5), &dir, true).unwrap();
    let index = DiskIndex::open_with_cache(&dir, CacheConfig::default()).unwrap();
    let batch = ShardedSearcher::single(&index, PrefixFilter::Disabled)
        .unwrap()
        .threads(4);

    let cold = batch.search_all(&queries, 0.8).unwrap();
    let cold_bytes: u64 = cold.iter().map(|o| o.stats.io_bytes).sum();
    let cold_misses: u64 = cold.iter().map(|o| o.stats.cache_misses).sum();
    assert!(cold_misses > 0, "first pass must miss the empty cache");

    let warm = batch.search_all(&queries, 0.8).unwrap();
    let warm_bytes: u64 = warm.iter().map(|o| o.stats.io_bytes).sum();
    let warm_hits: u64 = warm.iter().map(|o| o.stats.cache_hits).sum();
    assert!(
        warm_bytes < cold_bytes,
        "warm pass should read less: {warm_bytes} vs {cold_bytes}"
    );
    assert!(warm_hits > 0, "warm pass must hit the posting-list cache");

    // Results are unchanged by cache state.
    for (c, w) in cold.iter().zip(warm.iter()) {
        assert_eq!(c.enumerate_all(), w.enumerate_all());
    }
}

/// Disabling the cache is equivalent to an unbounded miss stream: same
/// results, no hits ever recorded.
#[test]
fn disabled_cache_never_hits_but_results_match() {
    let _registry = registry_lock();
    let (corpus, queries) = workload(2027);
    let dir = scratch("batch", "disabled_cache");
    ndss::index::build_and_write(&corpus, IndexConfig::new(16, 25, 5), &dir, true).unwrap();

    let cached = DiskIndex::open_with_cache(&dir, CacheConfig::default()).unwrap();
    let raw = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();

    let a = ShardedSearcher::single(&cached, PrefixFilter::Disabled)
        .unwrap()
        .threads(4)
        .search_all(&queries, 0.8)
        .unwrap();
    let b = ShardedSearcher::single(&raw, PrefixFilter::Disabled)
        .unwrap()
        .threads(4)
        .search_all(&queries, 0.8)
        .unwrap();
    let hits: u64 = b.iter().map(|o| o.stats.cache_hits).sum();
    assert_eq!(hits, 0, "disabled cache must never report hits");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.enumerate_all(), y.enumerate_all());
    }
}
