//! Batch query engine: determinism across thread counts against a disk
//! index, and per-query IO attribution (each outcome's `QueryStats` must
//! account for exactly its own query's work, with no cross-query bleed
//! under concurrency).

use ndss::index::CacheConfig;
use ndss::prelude::*;
use ndss_integration::scratch;

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

/// The same query set through `BatchSearcher` at 1/4/8 threads returns
/// results identical to a serial `NearDupSearcher` loop, in input order,
/// against a disk index (positioned reads + shared caches).
#[test]
fn batch_results_identical_to_serial_on_disk_index() {
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
        let batch = BatchSearcher::new(&index).unwrap().threads(threads);
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
/// query: the per-query `io_bytes` sum equals the global `IoStats` delta,
/// serial or concurrent. This is the property the old snapshot-diff
/// accounting violated under concurrency.
#[test]
fn per_query_io_sums_to_global_counters_without_bleed() {
    let (corpus, queries) = workload(2025);
    let dir = scratch("batch", "attribution");
    ndss::index::build_and_write(&corpus, IndexConfig::new(16, 25, 5), &dir, true).unwrap();
    let index = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();

    let serial = NearDupSearcher::new(&index).unwrap();
    let serial_io: Vec<u64> = queries
        .iter()
        .map(|q| serial.search(q, 0.8).unwrap().stats.io_bytes)
        .collect();
    assert!(
        serial_io.iter().sum::<u64>() > 0,
        "disk searches must report IO"
    );

    for threads in [1usize, 4, 8] {
        let batch = BatchSearcher::new(&index).unwrap().threads(threads);
        let before = index.io_snapshot();
        let outcomes = batch.search_all(&queries, 0.8).unwrap();
        let delta = index.io_snapshot().since(&before);
        let per_query: Vec<u64> = outcomes.iter().map(|o| o.stats.io_bytes).collect();
        // No bleed: each query charged exactly what it read (searches are
        // deterministic, so the serial per-query numbers are ground truth)…
        assert_eq!(
            per_query, serial_io,
            "per-query io_bytes misattributed at {threads} threads"
        );
        // …and nothing lost or double-counted against the global counters.
        assert_eq!(
            per_query.iter().sum::<u64>(),
            delta.bytes,
            "global io delta mismatch at {threads} threads"
        );
    }
}

/// The hot posting-list cache: a second pass over the same queries reads
/// strictly fewer bytes and reports cache hits through `QueryStats`.
#[test]
fn warm_cache_cuts_io_and_reports_hits() {
    let (corpus, queries) = workload(2026);
    let dir = scratch("batch", "warm_cache");
    ndss::index::build_and_write(&corpus, IndexConfig::new(16, 25, 5), &dir, true).unwrap();
    let index = DiskIndex::open_with_cache(&dir, CacheConfig::default()).unwrap();
    let batch = BatchSearcher::new(&index).unwrap().threads(4);

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
    let (corpus, queries) = workload(2027);
    let dir = scratch("batch", "disabled_cache");
    ndss::index::build_and_write(&corpus, IndexConfig::new(16, 25, 5), &dir, true).unwrap();

    let cached = DiskIndex::open_with_cache(&dir, CacheConfig::default()).unwrap();
    let raw = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();

    let a = BatchSearcher::new(&cached)
        .unwrap()
        .threads(4)
        .search_all(&queries, 0.8)
        .unwrap();
    let b = BatchSearcher::new(&raw)
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
