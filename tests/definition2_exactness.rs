//! Property-based verification of the system's central guarantee
//! (Theorem 2): the indexed search solves the approximate problem
//! (Definition 2) **exactly** — sound and complete — and the compact-window
//! machinery underneath preserves its partition invariant on arbitrary
//! inputs.

use proptest::prelude::*;

use ndss::prelude::*;
use ndss::query::bruteforce::definition2_scan;
use ndss::query::{collision_count, interval_scan, Interval};
use ndss::windows::verify::check_partition_property;
use ndss::windows::{generate_cartesian, generate_recursive, CompactWindow};

/// Strategy: a small corpus of token arrays with a controllable amount of
/// token repetition (small vocab = many duplicate tokens = many hash ties).
fn corpus_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..40, 10..60), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The indexed search equals the brute-force Definition 2 oracle for
    /// random corpora, queries, k, t, and θ.
    #[test]
    fn indexed_search_equals_oracle(
        texts in corpus_strategy(),
        query in proptest::collection::vec(0u32..40, 5..30),
        k in 1usize..10,
        t in 2usize..12,
        theta in 0.3f64..1.0,
    ) {
        let corpus = InMemoryCorpus::from_texts(texts);
        let config = IndexConfig::new(k, t, 0xABCD);
        let index = MemoryIndex::build(&corpus, config).unwrap();
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let hasher = index.config().hasher();

        let indexed = searcher.search(&query, theta).unwrap().enumerate_all();
        let oracle = definition2_scan(&corpus, &hasher, &query, theta, t).unwrap();
        prop_assert_eq!(indexed, oracle);
    }

    /// Prefix filtering never changes the result set.
    #[test]
    fn prefix_filter_is_transparent(
        texts in corpus_strategy(),
        query in proptest::collection::vec(0u32..40, 5..30),
        cutoff in 1u64..30,
        theta in 0.3f64..1.0,
    ) {
        let corpus = InMemoryCorpus::from_texts(texts);
        let index = MemoryIndex::build(&corpus, IndexConfig::new(6, 5, 0xBEEF)).unwrap();
        let plain = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let filtered =
            ShardedSearcher::single(&index, PrefixFilter::MaxListLen(cutoff))
                .unwrap();
        let a = plain.search(&query, theta).unwrap().enumerate_all();
        let b = filtered.search(&query, theta).unwrap().enumerate_all();
        prop_assert_eq!(a, b);
    }

    /// Compact windows partition the ≥ t sequences of arbitrary hash arrays,
    /// and both generators agree.
    #[test]
    fn window_partition_property(
        hashes in proptest::collection::vec(0u64..50, 1..80),
        t in 1usize..15,
    ) {
        let mut cart = Vec::new();
        generate_cartesian(&hashes, t, &mut cart);
        check_partition_property(&hashes, t, &cart)
            .map_err(TestCaseError::fail)?;

        let mut rec = Vec::new();
        generate_recursive(&hashes, t, &mut rec);
        let mut a = cart.clone();
        let mut b = rec;
        a.sort_by_key(|hw| (hw.window.l, hw.window.c, hw.window.r));
        b.sort_by_key(|hw| (hw.window.l, hw.window.c, hw.window.r));
        prop_assert_eq!(a, b);
    }

    /// IntervalScan reports exactly the positions covered by ≥ α intervals.
    #[test]
    fn interval_scan_matches_bruteforce(
        raw in proptest::collection::vec((0u32..40, 0u32..15), 1..12),
        alpha in 1usize..6,
    ) {
        let intervals: Vec<Interval> = raw
            .iter()
            .enumerate()
            .map(|(id, &(lo, width))| Interval::new(id as u32, lo, lo + width))
            .collect();
        let hits = interval_scan(&intervals, alpha);
        let max = intervals.iter().map(|iv| iv.hi).max().unwrap();
        for pos in 0..=max {
            let expect: usize = intervals
                .iter()
                .filter(|iv| iv.lo <= pos && pos <= iv.hi)
                .count();
            let hit = hits.iter().find(|h| h.range_lo <= pos && pos <= h.range_hi);
            if expect >= alpha {
                let h = hit.ok_or_else(|| TestCaseError::fail(format!("pos {pos} missing")))?;
                prop_assert_eq!(h.active.len(), expect);
            } else {
                prop_assert!(hit.is_none(), "pos {} wrongly covered", pos);
            }
        }
    }

    /// CollisionCount rectangles are exactly the ≥ α collision sequences.
    #[test]
    fn collision_count_matches_bruteforce(
        raw in proptest::collection::vec((0u32..12, 0u32..6, 0u32..8), 1..8),
        alpha in 1usize..5,
    ) {
        let windows: Vec<CompactWindow> = raw
            .iter()
            .map(|&(l, dc, dr)| CompactWindow::new(l, l + dc, l + dc + dr))
            .collect();
        let rects = collision_count(&windows, alpha);
        let max = windows.iter().map(|w| w.r).max().unwrap();
        for i in 0..=max {
            for j in i..=max {
                let count = windows.iter().filter(|w| w.covers(i, j)).count();
                let in_rects: Vec<u32> = rects
                    .iter()
                    .filter(|r| r.contains(i, j))
                    .map(|r| r.collisions)
                    .collect();
                if count >= alpha {
                    prop_assert_eq!(
                        in_rects.len(), 1,
                        "seq ({},{}) must be in exactly one rectangle", i, j
                    );
                    prop_assert_eq!(in_rects[0] as usize, count);
                } else {
                    prop_assert!(in_rects.is_empty());
                }
            }
        }
    }

    /// Merged spans cover exactly the union of enumerated sequences.
    #[test]
    fn merged_spans_equal_enumeration_union(
        texts in corpus_strategy(),
        query in proptest::collection::vec(0u32..40, 8..30),
    ) {
        let corpus = InMemoryCorpus::from_texts(texts);
        let index = MemoryIndex::build(&corpus, IndexConfig::new(4, 5, 0xFEED)).unwrap();
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let outcome = searcher.search(&query, 0.5).unwrap();
        for m in &outcome.matches {
            let mut covered = std::collections::BTreeSet::new();
            for span in m.enumerate(outcome.t) {
                for pos in span.start..=span.end {
                    covered.insert(pos);
                }
            }
            let mut merged_cover = std::collections::BTreeSet::new();
            for span in m.merged_spans(outcome.t) {
                for pos in span.start..=span.end {
                    merged_cover.insert(pos);
                }
            }
            prop_assert_eq!(covered, merged_cover);
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic seeded grid sweep: structured corpora × (θ, t, k), always
// checked against the brute-force Definition 2 oracle, plus execution-mode
// equivalences (batch ≡ sequential, cached ≡ cold ≡ in-memory). Every seed
// is pinned so a CI failure reproduces bit-for-bit.
// ---------------------------------------------------------------------------

use ndss::index::{write_memory_index, CacheConfig};

/// Four corpus shapes that stress different index regimes: list fan-out
/// (many short texts), long posting runs (few long texts), heavy hash ties
/// (tiny vocabulary), and near-distinct tokens (large vocabulary).
fn corpus_shapes() -> Vec<(&'static str, InMemoryCorpus)> {
    let build = |seed: u64, n: usize, lo: usize, hi: usize, vocab: usize| {
        SyntheticCorpusBuilder::new(seed)
            .num_texts(n)
            .text_len(lo, hi)
            .vocab_size(vocab)
            .duplicates_per_text(0.8)
            .dup_len(8, 16)
            .mutation_rate(0.1)
            .build()
            .0
    };
    vec![
        ("many-short", build(0x51, 14, 20, 45, 50)),
        ("few-long", build(0x52, 3, 120, 180, 200)),
        ("tiny-vocab", build(0x53, 8, 30, 70, 8)),
        ("large-vocab", build(0x54, 8, 30, 70, 5000)),
    ]
}

/// Two queries per corpus: a verbatim slice of text 0 (guaranteed hits at
/// high θ) and a perturbed copy of it (partial-overlap hits at lower θ).
fn grid_queries(corpus: &InMemoryCorpus) -> Vec<Vec<u32>> {
    let text = corpus.text_to_vec(0).unwrap();
    let len = text.len().min(20);
    let slice = text[..len].to_vec();
    let mut perturbed = slice.clone();
    for (i, tok) in perturbed.iter_mut().enumerate() {
        if i % 4 == 3 {
            *tok = tok.wrapping_add(1);
        }
    }
    vec![slice, perturbed]
}

/// The heart of Theorem 2: across every (shape, t, k, θ) cell the indexed
/// search returns byte-identical results to the O(k·Σn²) oracle.
#[test]
fn seeded_grid_sweep_matches_oracle() {
    for (shape, corpus) in corpus_shapes() {
        let queries = grid_queries(&corpus);
        for &t in &[3usize, 10] {
            for &k in &[2usize, 6, 12] {
                let seed = 0x5EED ^ ((k as u64) << 8) ^ t as u64;
                let index = MemoryIndex::build(&corpus, IndexConfig::new(k, t, seed)).unwrap();
                let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
                let hasher = index.config().hasher();
                for (qi, query) in queries.iter().enumerate() {
                    for &theta in &[0.4f64, 0.7, 0.9, 1.0] {
                        let got = searcher.search(query, theta).unwrap().enumerate_all();
                        let want = definition2_scan(&corpus, &hasher, query, theta, t).unwrap();
                        assert_eq!(
                            got, want,
                            "divergence at shape={shape} t={t} k={k} θ={theta} query#{qi}"
                        );
                    }
                }
            }
        }
    }
}

/// Batch execution is a pure throughput optimization: for every thread
/// count the outcomes equal the sequential searcher's, query for query.
#[test]
fn batch_equals_sequential_for_all_thread_counts() {
    let (_, corpus) = corpus_shapes().swap_remove(0);
    let index = MemoryIndex::build(&corpus, IndexConfig::new(8, 6, 0xC0FFEE)).unwrap();
    let sequential = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();

    let mut queries = Vec::new();
    for text in 0..corpus.num_texts().min(8) as u32 {
        let tokens = corpus.text_to_vec(text).unwrap();
        queries.push(tokens[..tokens.len().min(18)].to_vec());
    }
    queries.push(vec![9999, 9998, 9997, 9996, 9995, 9994, 9993]); // no hits

    for &theta in &[0.5f64, 0.9] {
        let expected: Vec<_> = queries
            .iter()
            .map(|q| sequential.search(q, theta).unwrap().enumerate_all())
            .collect();
        for &threads in &[1usize, 2, 4, 8] {
            let batch = ShardedSearcher::single(&index, PrefixFilter::Disabled)
                .unwrap()
                .threads(threads);
            let outcomes = batch.search_all(&queries, theta).unwrap();
            assert_eq!(outcomes.len(), queries.len());
            for (i, outcome) in outcomes.iter().enumerate() {
                assert_eq!(
                    outcome.enumerate_all(),
                    expected[i],
                    "θ={theta} threads={threads} query#{i}"
                );
            }
        }
    }
}

/// The on-disk formats are pure storage encodings: for every corpus shape
/// and grid cell, v6 (bitpacked + SIMD unpack + skip gather) answers
/// bit-identically to v4 (varint) and v3 (fixed width), whether the file is
/// read cold (caches disabled), warm (second pass over populated caches),
/// or through a tapped, disarmed reader (a dormant fault tap must pass the
/// mapped bytes through), and batch execution over the v6 index agrees at
/// 1/2/4/8 threads.
#[test]
fn format_v6_matches_v4_and_v3_cold_warm_mmap_threaded() {
    use ndss::index::{FaultPlan, ReadOptions};

    let root = ndss_integration::scratch("def2", "format_equiv");

    for (shape, corpus) in corpus_shapes() {
        let queries = grid_queries(&corpus);
        let base = IndexConfig::new(6, 5, 0xF0F5);
        let mem = MemoryIndex::build(&corpus, base.clone()).unwrap();
        let mem_s = ShardedSearcher::single(&mem, PrefixFilter::Disabled).unwrap();

        let configs = [
            ("v3", base.clone()),
            ("v4", base.clone().compressed(true)),
            ("v6", base.clone().bit_packed(true)),
        ];
        for (fmt, config) in configs {
            assert_eq!(config.format_name(), fmt);
            let dir = root.join(format!("{shape}_{fmt}"));
            let built = MemoryIndex::build(&corpus, config).unwrap();
            let warm = write_memory_index(&built, &dir).unwrap();
            let cold = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();
            let tapped = ReadOptions::with_faults(FaultPlan::new(""));
            let tapped = DiskIndex::open_with_io(&dir, CacheConfig::disabled(), tapped).unwrap();
            let warm_s = ShardedSearcher::single(&warm, PrefixFilter::Disabled).unwrap();
            let cold_s = ShardedSearcher::single(&cold, PrefixFilter::Disabled).unwrap();
            let tapped_s = ShardedSearcher::single(&tapped, PrefixFilter::Disabled).unwrap();
            for (qi, query) in queries.iter().enumerate() {
                for &theta in &[0.5f64, 0.9] {
                    let want = mem_s.search(query, theta).unwrap().enumerate_all();
                    let ctx = format!("shape={shape} fmt={fmt} θ={theta} query#{qi}");
                    let cold_got = cold_s.search(query, theta).unwrap().enumerate_all();
                    let warm1 = warm_s.search(query, theta).unwrap().enumerate_all();
                    let warm2 = warm_s.search(query, theta).unwrap().enumerate_all();
                    let tapped_got = tapped_s.search(query, theta).unwrap().enumerate_all();
                    assert_eq!(cold_got, want, "cold read diverged: {ctx}");
                    assert_eq!(warm1, want, "cache-warming read diverged: {ctx}");
                    assert_eq!(warm2, want, "cache-hit read diverged: {ctx}");
                    assert_eq!(tapped_got, want, "tapped read diverged: {ctx}");
                }
            }
            // Batch execution over this format at every thread count.
            for &threads in &[1usize, 2, 4, 8] {
                let batch = ShardedSearcher::single(&warm, PrefixFilter::Disabled)
                    .unwrap()
                    .threads(threads);
                let outcomes = batch.search_all(&queries, 0.5).unwrap();
                for (qi, outcome) in outcomes.iter().enumerate() {
                    assert_eq!(
                        outcome.enumerate_all(),
                        mem_s.search(&queries[qi], 0.5).unwrap().enumerate_all(),
                        "batch diverged: shape={shape} fmt={fmt} threads={threads} query#{qi}"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The disk index answers identically to the in-memory index it was written
/// from, with caches cold, warming, and warm — caching must never change
/// results, only IO counts.
#[test]
fn cached_and_cold_disk_reads_agree_with_memory() {
    let dir = ndss_integration::scratch("def2", "cache_equiv");

    let (_, corpus) = corpus_shapes().swap_remove(2); // tiny vocab: long lists
    let mem = MemoryIndex::build(&corpus, IndexConfig::new(6, 5, 0xD15C)).unwrap();
    let warm_index = write_memory_index(&mem, &dir).unwrap();
    let cold_index = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();

    let mem_s = ShardedSearcher::single(&mem, PrefixFilter::Disabled).unwrap();
    let warm_s = ShardedSearcher::single(&warm_index, PrefixFilter::Disabled).unwrap();
    let cold_s = ShardedSearcher::single(&cold_index, PrefixFilter::Disabled).unwrap();

    for query in grid_queries(&corpus) {
        for &theta in &[0.5f64, 0.9] {
            let want = mem_s.search(&query, theta).unwrap().enumerate_all();
            // First warm pass populates the cache, second is served from it.
            let warm1 = warm_s.search(&query, theta).unwrap().enumerate_all();
            let warm2 = warm_s.search(&query, theta).unwrap().enumerate_all();
            let cold = cold_s.search(&query, theta).unwrap().enumerate_all();
            assert_eq!(warm1, want, "cache-warming read diverged (θ={theta})");
            assert_eq!(warm2, want, "cache-hit read diverged (θ={theta})");
            assert_eq!(cold, want, "uncached read diverged (θ={theta})");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
