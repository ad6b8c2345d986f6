//! End-to-end integration: synthetic corpus → index → search, across all
//! builder paths and filter policies, validated against planted ground
//! truth and the exact-Jaccard oracle.

use ndss::index::build_and_write;
use ndss::prelude::*;
use ndss_integration::scratch;

/// Every planted *exact* duplicate must be recovered at θ close to 1 when
/// querying with the copy: min-hash collisions are deterministic for
/// identical token sets, so recall on exact copies is 100%.
#[test]
fn exact_planted_duplicates_always_found() {
    let (corpus, planted) = SyntheticCorpusBuilder::new(101)
        .num_texts(120)
        .text_len(150, 300)
        .duplicates_per_text(1.0)
        .dup_len(50, 90)
        .mutation_rate(0.0)
        .build();
    assert!(planted.len() > 50, "expected many planted duplicates");
    let index = MemoryIndex::build_parallel(&corpus, IndexConfig::new(16, 25, 5)).unwrap();
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    for p in &planted {
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let outcome = searcher.search(&query, 1.0).unwrap();
        assert!(
            outcome.matches.iter().any(|m| m.text == p.src.text),
            "planted source {:?} not found for copy {:?}",
            p.src,
            p.dst
        );
    }
}

/// Near-duplicates (5% mutation) must be found at θ = 0.7 with high
/// probability; we allow a small number of misses (min-hash is an
/// estimator) but require ≥ 90% recall over all planted pairs.
#[test]
fn near_duplicate_recall_is_high() {
    let (corpus, planted) = SyntheticCorpusBuilder::new(102)
        .num_texts(100)
        .text_len(150, 300)
        .duplicates_per_text(1.0)
        .dup_len(60, 100)
        .mutation_rate(0.05)
        .build();
    let index = MemoryIndex::build_parallel(&corpus, IndexConfig::new(32, 25, 6)).unwrap();
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    let mut found = 0usize;
    for p in &planted {
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let outcome = searcher.search(&query, 0.7).unwrap();
        if outcome.matches.iter().any(|m| m.text == p.src.text) {
            found += 1;
        }
    }
    let recall = found as f64 / planted.len() as f64;
    assert!(
        recall >= 0.9,
        "recall {recall:.3} ({found}/{})",
        planted.len()
    );
}

/// The same queries through the in-memory index, the disk index, and the
/// externally built disk index give identical result sets, with and without
/// prefix filtering.
#[test]
fn all_paths_agree_on_results() {
    let (corpus, planted) = SyntheticCorpusBuilder::new(103)
        .num_texts(60)
        .text_len(120, 240)
        .vocab_size(600)
        .duplicates_per_text(1.0)
        .mutation_rate(0.04)
        .build();
    let config = IndexConfig::new(16, 20, 11);
    let mem = MemoryIndex::build(&corpus, config.clone()).unwrap();
    let d1 = scratch("e2e", "disk");
    let disk = build_and_write(&corpus, config.clone(), &d1, true).unwrap();
    let d2 = scratch("e2e", "ext");
    let ext = ExternalIndexBuilder::new(config)
        .memory_budget(1 << 16)
        .parallel(true)
        .build(&corpus, &d2)
        .unwrap();

    let filter = PrefixFilter::default();
    let mem_s = ShardedSearcher::single(&mem, filter).unwrap();
    let disk_s = ShardedSearcher::single(&disk, filter).unwrap();
    let ext_s = ShardedSearcher::single(&ext, filter).unwrap();
    let disk_nf = ShardedSearcher::single(&disk, PrefixFilter::Disabled).unwrap();

    for p in planted.iter().take(8) {
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        for theta in [0.7, 0.9, 1.0] {
            let a = mem_s.search(&query, theta).unwrap().enumerate_all();
            let b = disk_s.search(&query, theta).unwrap().enumerate_all();
            let c = ext_s.search(&query, theta).unwrap().enumerate_all();
            let d = disk_nf.search(&query, theta).unwrap().enumerate_all();
            assert_eq!(a, b, "mem vs disk at theta {theta}");
            assert_eq!(a, c, "mem vs external at theta {theta}");
            assert_eq!(a, d, "filtered vs unfiltered at theta {theta}");
        }
    }
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d2).ok();
}

/// Verified search returns exactly the Definition-1 answer (true Jaccard ≥
/// θ) when k is large enough that no true near-duplicate is missed at the
/// collision stage (here: exact copies only, so collisions are certain).
#[test]
fn verified_search_equals_definition1_on_exact_copies() {
    let (corpus, planted) = SyntheticCorpusBuilder::new(104)
        .num_texts(30)
        .text_len(100, 160)
        .duplicates_per_text(1.0)
        .dup_len(40, 60)
        .mutation_rate(0.0)
        .build();
    let index = MemoryIndex::build(&corpus, IndexConfig::new(32, 30, 8)).unwrap();
    let p = &planted[0];
    let query = corpus.sequence_to_vec(p.dst).unwrap();

    let (verified, _) = ShardedSearcher::single(&index, PrefixFilter::default())
        .unwrap()
        .search_verified(&query, 0.95, &corpus, 5_000_000)
        .unwrap();
    let oracle = ndss::query::bruteforce::definition1_scan(&corpus, &query, 0.95, 30).unwrap();
    // The verified result must be a subset of the oracle (everything it
    // returns is truly similar) and must contain the planted source span.
    for seq in &verified {
        assert!(oracle.contains(seq), "verified hit {seq:?} not in oracle");
    }
    assert!(
        verified.iter().any(|s| s.text == p.src.text),
        "planted source missing from verified results"
    );
}

/// The disk index reports IO, and prefix filtering shifts bytes: the
/// filtered searcher must read no more bytes than the unfiltered one on the
/// same query mix.
#[test]
fn prefix_filtering_reduces_io() {
    let (corpus, planted) = SyntheticCorpusBuilder::new(105)
        .num_texts(150)
        .text_len(150, 300)
        .vocab_size(300) // small vocab → heavy Zipf skew → long lists
        .duplicates_per_text(1.0)
        .mutation_rate(0.02)
        .build();
    let dir = scratch("e2e", "io");
    let config = IndexConfig::new(16, 20, 13).zone_map(16, 64);
    let disk = build_and_write(&corpus, config, &dir, true).unwrap();

    let queries: Vec<Vec<TokenId>> = planted
        .iter()
        .take(10)
        .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
        .collect();

    let run = |searcher: &ShardedSearcher<'_>| -> u64 {
        let mut bytes = 0;
        for q in &queries {
            let outcome = searcher.search(q, 0.8).unwrap();
            bytes += outcome.stats.io_bytes;
        }
        bytes
    };
    let unfiltered = ShardedSearcher::single(&disk, PrefixFilter::Disabled).unwrap();
    let filtered = ShardedSearcher::single(&disk, PrefixFilter::FrequentFraction(0.10)).unwrap();
    let bytes_unfiltered = run(&unfiltered);
    let bytes_filtered = run(&filtered);
    assert!(
        bytes_filtered <= bytes_unfiltered,
        "filtered read {bytes_filtered} B > unfiltered {bytes_unfiltered} B"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A compressed (v2) disk index answers every query identically to the
/// uncompressed one while occupying materially less disk.
#[test]
fn compressed_index_is_transparent_to_search() {
    let (corpus, planted) = SyntheticCorpusBuilder::new(107)
        .num_texts(80)
        .vocab_size(800)
        .duplicates_per_text(1.0)
        .mutation_rate(0.04)
        .build();
    let d1 = scratch("e2e", "v1");
    let d2 = scratch("e2e", "v2");
    let config = IndexConfig::new(8, 20, 31);
    let plain = build_and_write(&corpus, config.clone(), &d1, true).unwrap();
    let packed = build_and_write(&corpus, config.compressed(true), &d2, true).unwrap();
    assert!(packed.size_bytes().unwrap() < plain.size_bytes().unwrap());
    let s1 = ShardedSearcher::single(&plain, PrefixFilter::default()).unwrap();
    let s2 = ShardedSearcher::single(&packed, PrefixFilter::default()).unwrap();
    for p in planted.iter().take(10) {
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        for theta in [0.7, 0.9, 1.0] {
            assert_eq!(
                s1.search(&query, theta).unwrap().enumerate_all(),
                s2.search(&query, theta).unwrap().enumerate_all(),
                "compressed index diverged at theta {theta}"
            );
        }
    }
    // Reopening a v4 directory also works (the header names the encoding).
    drop(packed);
    let reopened = ShardedIndex::open(&d2).unwrap();
    assert_eq!(reopened.num_texts(), 80);
    let query = corpus.sequence_to_vec(planted[0].dst).unwrap();
    assert_eq!(
        s1.search(&query, 0.8).unwrap().enumerate_all(),
        reopened
            .searcher_with_filter(PrefixFilter::FrequentFraction(0.1))
            .unwrap()
            .search(&query, 0.8)
            .unwrap()
            .enumerate_all()
    );
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d2).ok();
}

/// Results never contain sequences shorter than t, and all reported
/// rectangles meet the collision threshold β.
#[test]
fn result_invariants_hold() {
    let (corpus, planted) = SyntheticCorpusBuilder::new(106)
        .num_texts(60)
        .duplicates_per_text(1.0)
        .mutation_rate(0.05)
        .build();
    let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 14)).unwrap();
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    for p in planted.iter().take(10) {
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let outcome = searcher.search(&query, 0.75).unwrap();
        for m in &outcome.matches {
            for r in &m.rects {
                assert!(r.collisions as usize >= outcome.beta);
            }
            for span in m.enumerate(outcome.t) {
                assert!(span.len() >= outcome.t);
            }
        }
    }
}
