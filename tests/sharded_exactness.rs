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
        let oracle = ShardedSearcher::single(&oracle_index, PrefixFilter::Disabled).unwrap();
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
            // The store itself must verify end to end: manifest, every
            // serving segment, and each segment's text-range coverage.
            let manifest = Store::open(&root).unwrap().verify().unwrap();
            assert_eq!(manifest.segments.len(), shards);
            assert_eq!(manifest.num_texts(), corpus.num_texts() as u64);

            let view = ShardedIndex::open(&root).unwrap();
            assert_eq!(view.num_shards(), shards);
            assert_eq!(view.num_texts(), corpus.num_texts());
            assert_eq!(view.config().format_name(), format);

            for threads in THREAD_COUNTS {
                let searcher = view
                    .searcher_with_filter(PrefixFilter::Disabled)
                    .unwrap()
                    .threads(threads);
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

/// Definition 1 mode over a lane set reads each match's text by its global
/// id: a 3-segment store verifies exactly the sequences one index over the
/// same corpus does, and those are the approximate answer's sequences whose
/// true Jaccard similarity with the query reaches θ.
#[test]
fn verified_search_over_segments_matches_one_index() {
    let (corpus, queries) = workload();
    let dir = scratch("sharded", "verified_single");
    build_and_write(&corpus, config(false, true), &dir, true).unwrap();
    let index = DiskIndex::open(&dir).unwrap();
    let single = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    let root = build_store(&corpus, 3, false, true, "verified_s3");
    let view = ShardedIndex::open(&root).unwrap();
    assert_eq!(view.num_shards(), 3);
    let sharded = view.searcher_with_filter(PrefixFilter::default()).unwrap();

    let mut past_first = 0;
    for query in &queries {
        let (want, _) = single
            .search_verified(query, THETA, &corpus, 1 << 22)
            .unwrap();
        let (got, _) = sharded
            .search_verified(query, THETA, &corpus, 1 << 22)
            .unwrap();
        assert_eq!(got, want);
        let approximate = single.search(query, THETA).unwrap().enumerate_all();
        let similar = |s: &SeqRef| {
            distinct_jaccard(query, &corpus.sequence_to_vec(*s).unwrap()) + 1e-12 >= THETA
        };
        let oracle: Vec<SeqRef> = approximate.into_iter().filter(similar).collect();
        assert_eq!(want, oracle);
        past_first += got
            .iter()
            .filter(|s| !view.texts_of(0).contains(&s.text))
            .count();
    }
    assert!(
        past_first > 0,
        "no verified sequence past the first segment"
    );
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&dir).ok();
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
    let oracle = ShardedSearcher::single(&oracle_index, PrefixFilter::Disabled).unwrap();

    let mut partials = 0usize;
    for shards in [2usize, 4, 8] {
        let root = build_store(&corpus, shards, false, false, &format!("gov_s{shards}"));
        let view = ShardedIndex::open(&root).unwrap();
        let searcher = view
            .searcher_with_filter(PrefixFilter::Disabled)
            .unwrap()
            .threads(shards);
        for query in &queries {
            let full = oracle.search(query, THETA).unwrap();
            // One cap covers every shard: sweep it past the shard count so
            // the trip lands in every shard in turn.
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
        let searcher = view
            .searcher_with_filter(PrefixFilter::Disabled)
            .unwrap()
            .threads(1);
        queries
            .iter()
            .map(|q| searcher.search(q, THETA).unwrap())
            .collect()
    };
    for threads in THREAD_COUNTS {
        let searcher = view
            .searcher_with_filter(PrefixFilter::Disabled)
            .unwrap()
            .threads(threads);
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

/// The single-segment special case really is special-case-free: a
/// one-segment store and a plain index directory open into the same view
/// type and answer identically.
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

    let a = sharded_view
        .searcher_with_filter(PrefixFilter::Disabled)
        .unwrap()
        .threads(2);
    let b = plain_view
        .searcher_with_filter(PrefixFilter::Disabled)
        .unwrap()
        .threads(2);
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

/// Query cost by lane count, printed rather than asserted: wall time on a
/// shared host is not a test verdict. One synthetic corpus of about 1.6 M
/// tokens is built at k = 32, t = 25 as one segment and as six. Each lane
/// set is pinned once, default prefix filter; the six-segment set runs at
/// the searcher's default threads and at one. A pass runs 400 memorised
/// (windows of planted copies) and 400 novel (windows of an unseen corpus)
/// 64-token queries at θ = 0.8 on every lane set in turn; a cell is the
/// median over nine passes of each pass's p50 µs per query, then the
/// range. Run with `cargo test --release -p ndss-integration --test
/// sharded_exactness -- --ignored --nocapture lane_cost`.
#[test]
#[ignore = "timing probe: prints a table"]
fn lane_cost_by_segment_count() {
    const LEN: u32 = 64;
    const QUERIES: usize = 400;
    const PASSES: usize = 9;
    let (corpus, planted) = SyntheticCorpusBuilder::new(4801).num_texts(3_600).build();
    let memorized: Vec<Vec<TokenId>> = planted
        .iter()
        .filter(|p| p.dst.span.len() >= LEN)
        .take(QUERIES)
        .map(|p| {
            let start = p.dst.span.start;
            let window = SeqRef::new(p.dst.text, start, start + LEN - 1);
            corpus.sequence_to_vec(window).unwrap()
        })
        .collect();
    let (unseen, _) = SyntheticCorpusBuilder::new(4802).num_texts(QUERIES).build();
    let novel: Vec<Vec<TokenId>> = (0..QUERIES as TextId)
        .map(|i| unseen.text_to_vec(i).unwrap()[..LEN as usize].to_vec())
        .collect();
    assert_eq!(memorized.len(), QUERIES);

    let config = IndexConfig::new(32, 25, 4803).bit_packed(true);
    let roots: Vec<_> = [1usize, 6]
        .iter()
        .map(|&segments| {
            let root = scratch("sharded", &format!("lane_cost_{segments}"));
            build_sharded(
                &corpus,
                config.clone(),
                &root,
                segments,
                &Default::default(),
            )
            .unwrap();
            root
        })
        .collect();
    let views: Vec<ShardedIndex> = roots
        .iter()
        .map(|r| ShardedIndex::open(r).unwrap())
        .collect();
    fn pin(view: &ShardedIndex) -> ShardedSearcher<'_> {
        view.searcher_with_filter(PrefixFilter::default()).unwrap()
    }
    let sets = [
        ("1 segment", pin(&views[0])),
        ("6 segments, default threads", pin(&views[1])),
        ("6 segments, .threads(1)", pin(&views[1]).threads(1)),
    ];
    for query in memorized.iter().chain(&novel) {
        let want = sets[0].1.search(query, THETA).unwrap().matches;
        for (name, set) in &sets[1..] {
            assert_eq!(set.search(query, THETA).unwrap().matches, want, "{name}");
        }
    }

    let p50 = |set: &ShardedSearcher<'_>, queries: &[Vec<TokenId>]| {
        let mut micros: Vec<f64> = queries
            .iter()
            .map(|q| {
                let start = std::time::Instant::now();
                set.search(q, THETA).unwrap();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        micros.sort_by(f64::total_cmp);
        micros[micros.len() / 2]
    };
    // cells[set][0 = novel, 1 = memorised]: one p50 per pass.
    let mut cells = vec![[Vec::new(), Vec::new()]; sets.len()];
    for _ in 0..PASSES {
        for (cell, (_, set)) in cells.iter_mut().zip(&sets) {
            cell[0].push(p50(set, &novel));
            cell[1].push(p50(set, &memorized));
        }
    }
    let summary = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        format!("{:.1} ({:.1}–{:.1})", v[v.len() / 2], v[0], v[v.len() - 1])
    };
    println!(
        "{} tokens, {} threads by default",
        corpus.total_tokens(),
        ndss::parallel::default_threads()
    );
    println!("| lane set | novel p50 µs | memorised p50 µs |");
    println!("|---|---|---|");
    for ((name, _), [novel, memorized]) in sets.iter().zip(cells) {
        println!("| {name} | {} | {} |", summary(novel), summary(memorized));
    }
    for root in roots {
        std::fs::remove_dir_all(root).ok();
    }
}
