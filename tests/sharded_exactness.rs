//! Scatter-gather over a sharded store must be indistinguishable from one
//! index over the whole corpus — bit for bit, across every combination of
//! shard count, on-disk format, and query-time thread count.
//!
//! The exactness argument: shards partition the corpus by contiguous
//! text-id range, each shard indexes its slice with shard-local ids, and
//! the merger adds `first_text` back and concatenates in shard order —
//! which *is* ascending global text order. Definition-2 rectangles for a
//! text depend only on the query and that text's own sequences, so no
//! cross-shard information is lost. These tests pin that argument against
//! the single-index oracle, plus the governed-search contract (sound
//! text-order prefixes) and batch/sequential equivalence on top of it.

use ndss::index::build_and_write;
use ndss::prelude::*;
use ndss_integration::scratch;

const THETA: f64 = 0.8;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const FORMATS: [(bool, bool, &str); 3] = [
    (false, false, "v3"),
    (true, false, "v4"),
    (false, true, "v6"),
];

fn config(compress: bool, packed: bool) -> IndexConfig {
    IndexConfig::new(8, 20, 13)
        .zone_map(16, 64)
        .compressed(compress)
        .bit_packed(packed)
}

/// A corpus small enough for an 8-shard split to stay meaningful, with
/// planted near-duplicates crossing every future shard boundary (sources
/// and destinations land in arbitrary texts).
fn workload() -> (InMemoryCorpus, Vec<Vec<TokenId>>) {
    let (corpus, planted) = SyntheticCorpusBuilder::new(7101)
        .num_texts(64)
        .text_len(100, 220)
        .duplicates_per_text(1.0)
        .dup_len(40, 80)
        .mutation_rate(0.03)
        .build();
    let queries: Vec<Vec<TokenId>> = planted
        .iter()
        .take(10)
        .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
        .collect();
    assert!(queries.len() >= 8, "expected a non-trivial query set");
    (corpus, queries)
}

fn build_store(
    corpus: &InMemoryCorpus,
    shards: usize,
    compress: bool,
    packed: bool,
    tag: &str,
) -> std::path::PathBuf {
    let root = scratch("sharded", tag);
    let opts = ShardedBuildOptions {
        threads: 2,
        ..ShardedBuildOptions::default()
    };
    build_sharded(corpus, config(compress, packed), &root, shards, &opts).unwrap();
    root
}

/// The full grid: shard count × on-disk format × query thread count, every
/// cell bit-identical to the single-index oracle, and every store passing
/// its own end-to-end verification.
#[test]
fn sharded_results_match_single_index_oracle_across_grid() {
    let (corpus, queries) = workload();

    for (compress, packed, format) in FORMATS {
        // Oracle: one index over the whole corpus, same format.
        let oracle_dir = scratch("sharded", &format!("oracle_{format}"));
        build_and_write(&corpus, config(compress, packed), &oracle_dir, true).unwrap();
        let oracle_index = DiskIndex::open(&oracle_dir).unwrap();
        let oracle = NearDupSearcher::new(&oracle_index).unwrap();
        let expected: Vec<SearchOutcome> = queries
            .iter()
            .map(|q| oracle.search(q, THETA).unwrap())
            .collect();

        for shards in SHARD_COUNTS {
            let root = build_store(
                &corpus,
                shards,
                compress,
                packed,
                &format!("grid_{format}_s{shards}"),
            );
            // The store itself must verify end to end: manifest, per-shard
            // serving generations, and per-shard text-range coverage.
            let store = ShardedStore::open(&root).unwrap();
            store.verify().unwrap();
            assert_eq!(store.num_shards(), shards);
            assert_eq!(store.manifest().num_texts(), corpus.num_texts() as u64);

            let view = ShardedIndex::open(&root).unwrap();
            assert_eq!(view.num_shards(), shards);
            assert_eq!(view.num_texts(), corpus.num_texts());
            assert_eq!(view.config().format_name(), format);

            for threads in THREAD_COUNTS {
                let searcher = view.searcher().unwrap().threads(threads);
                for (i, (query, want)) in queries.iter().zip(&expected).enumerate() {
                    let got = searcher.search(query, THETA).unwrap();
                    assert_eq!(
                        got.matches, want.matches,
                        "query {i} diverged ({format}, {shards} shards, {threads} threads)"
                    );
                    assert_eq!(got.beta, want.beta);
                    assert_eq!(got.t, want.t);
                    assert!(got.complete);
                }
            }
            std::fs::remove_dir_all(&root).ok();
        }
        std::fs::remove_dir_all(&oracle_dir).ok();
    }
}

/// Budget trips compose soundly across shards: the merged partial is a
/// text-order prefix of the full (oracle) result, flagged incomplete, no
/// matter which shard tripped. Sweeping the cap upward reaches the
/// complete result.
#[test]
fn governed_partials_are_sound_prefixes_of_the_oracle() {
    let (corpus, queries) = workload();
    let oracle_dir = scratch("sharded", "gov_oracle");
    build_and_write(&corpus, config(false, false), &oracle_dir, true).unwrap();
    let oracle_index = DiskIndex::open(&oracle_dir).unwrap();
    let oracle = NearDupSearcher::new(&oracle_index).unwrap();

    let mut partials = 0usize;
    for shards in [2usize, 4, 8] {
        let root = build_store(&corpus, shards, false, false, &format!("gov_s{shards}"));
        let view = ShardedIndex::open(&root).unwrap();
        let searcher = view.searcher().unwrap().threads(shards);
        for query in &queries {
            let full = oracle.search(query, THETA).unwrap();
            // Caps are apportioned per shard, so sweep global caps around
            // the shard count to make individual shards trip.
            for cap in 0..=(3 * shards as u64) {
                let budget = QueryBudget::unlimited().max_candidates(cap);
                match searcher.search_governed(query, THETA, &budget) {
                    Ok(outcome) => {
                        assert!(outcome.complete);
                        assert_eq!(outcome.matches, full.matches);
                    }
                    Err(QueryError::BudgetExceeded { resource, partial }) => {
                        partials += 1;
                        assert_eq!(resource, Resource::Candidates);
                        assert!(!partial.complete, "partial outcomes must say so");
                        assert!(partial.matches.len() <= full.matches.len());
                        assert_eq!(
                            full.matches[..partial.matches.len()],
                            partial.matches[..],
                            "sharded partial is not a text-order prefix of the oracle \
                             ({shards} shards, cap {cap})"
                        );
                    }
                    Err(e) => panic!("unexpected error under candidate cap: {e}"),
                }
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }
    assert!(partials > 0, "candidate caps this tiny must trip sometimes");
    std::fs::remove_dir_all(&oracle_dir).ok();
}

/// Batch search over a sharded view answers every slot bit-identically to
/// running the same queries one at a time — at every thread count.
#[test]
fn batch_equals_sequential_over_shards() {
    let (corpus, queries) = workload();
    let root = build_store(&corpus, 4, false, true, "batch_s4");
    let view = ShardedIndex::open(&root).unwrap();

    let sequential: Vec<SearchOutcome> = {
        let searcher = view.searcher().unwrap().threads(1);
        queries
            .iter()
            .map(|q| searcher.search(q, THETA).unwrap())
            .collect()
    };
    for threads in THREAD_COUNTS {
        let searcher = view.searcher().unwrap().threads(threads);
        let batch = searcher.search_all(&queries, THETA).unwrap();
        assert_eq!(batch.len(), sequential.len());
        for (i, (got, want)) in batch.iter().zip(&sequential).enumerate() {
            assert_eq!(
                got.matches, want.matches,
                "batch slot {i} diverged from sequential at {threads} threads"
            );
        }
        // Per-slot batch: same equivalence when nothing trips.
        let governed = searcher.search_all_governed(&queries, THETA, &QueryBudget::unlimited());
        for (i, (got, want)) in governed.iter().zip(&sequential).enumerate() {
            let got = got.as_ref().unwrap_or_else(|e| {
                panic!("governed batch slot {i} failed under an unlimited budget: {e}")
            });
            assert_eq!(got.matches, want.matches);
        }
        // Under a budget that trips, every slot is what the same governed
        // search returns on its own: the same outcome, or the same sound
        // partial under the same resource.
        let budget = QueryBudget::unlimited().max_candidates(1);
        let capped = searcher.search_all_governed(&queries, THETA, &budget);
        let mut partials = 0;
        for (i, (got, query)) in capped.iter().zip(&queries).enumerate() {
            match (got, searcher.search_governed(query, THETA, &budget)) {
                (Ok(got), Ok(want)) => assert_eq!(got.matches, want.matches),
                (
                    Err(QueryError::BudgetExceeded { resource, partial }),
                    Err(QueryError::BudgetExceeded {
                        resource: want_resource,
                        partial: want,
                    }),
                ) => {
                    partials += 1;
                    assert_eq!(*resource, want_resource);
                    assert!(!partial.complete);
                    assert_eq!(partial.matches, want.matches);
                }
                (got, want) => panic!("slot {i} under {budget:?}: {got:?} vs alone {want:?}"),
            }
        }
        assert!(partials > 0, "a one-candidate budget must trip some slot");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The single-shard special case really is special-case-free: a 1-shard
/// store, a plain index directory, and an unsharded generation store all
/// open into the same view type and answer identically.
#[test]
fn one_shard_store_equals_plain_directory() {
    let (corpus, queries) = workload();
    let root = build_store(&corpus, 1, false, false, "single_s1");
    let plain_dir = scratch("sharded", "single_plain");
    build_and_write(&corpus, config(false, false), &plain_dir, true).unwrap();

    let sharded_view = ShardedIndex::open(&root).unwrap();
    let plain_view = ShardedIndex::open(&plain_dir).unwrap();
    assert_eq!(sharded_view.num_shards(), 1);
    assert_eq!(plain_view.num_shards(), 1);
    assert!(sharded_view.generation().is_some());
    assert!(plain_view.generation().is_none());

    let a = sharded_view.searcher().unwrap().threads(2);
    let b = plain_view.searcher().unwrap().threads(2);
    for query in &queries {
        let got = a.search(query, THETA).unwrap();
        let want = b.search(query, THETA).unwrap();
        assert_eq!(got.matches, want.matches);
        assert_eq!(
            ndss::query::search::rank(&got, a.k(), 5)
                .iter()
                .map(|m| (m.text, m.collisions))
                .collect::<Vec<_>>(),
            ndss::query::search::rank(&want, b.k(), 5)
                .iter()
                .map(|m| (m.text, m.collisions))
                .collect::<Vec<_>>()
        );
    }
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&plain_dir).ok();
}
