//! What the count stage of `search::search_index` rests on, pinned from outside the
//! crate:
//!
//! * the invariant behind its distinct-function bound — the windows one
//!   list holds for one text are pairwise disjoint as sequence sets, for
//!   every builder that can produce a list;
//! * the bound itself — on corpora where a repeated frequent token gives
//!   texts many postings from few functions, `search` still equals the
//!   Definition 2 oracle;
//! * the gather — its time and memory follow the postings read, never the
//!   largest text id, and a sparse id space is answered by the same code as
//!   a dense one (`gather_stage.rs` pins the gather's candidate set and its
//!   time bounds).

mod common;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ndss_corpus::{InMemoryCorpus, TextId};
use ndss_hash::minhash::collision_threshold;
use ndss_hash::TokenId;
use ndss_index::{
    build_and_write, merge_indexes, DiskIndex, ExternalIndexBuilder, IndexAccess, IndexConfig,
    MemoryIndex, Posting,
};
use ndss_query::bruteforce::definition2_scan;
use ndss_query::{PrefixFilter, ShardedSearcher, TextMatch};
use ndss_windows::{CompactWindow, WindowGenerator};

use common::{HandBuilt, Rng};

/// Texts in which token 0 recurs every few positions among tokens drawn
/// from `vocab` others: under every function where token 0 hashes lowest, a
/// text has many windows in one list — many postings from one function.
fn frequent_token_texts(rng: &mut Rng, texts: usize, vocab: u64) -> Vec<Vec<TokenId>> {
    (0..texts)
        .map(|_| {
            let len = 40 + rng.below(80) as usize;
            (0..len)
                .map(|_| {
                    if rng.below(4) == 0 {
                        0
                    } else {
                        1 + rng.below(vocab) as TokenId
                    }
                })
                .collect()
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ndss_count_stage_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Two windows share a sequence `(i, j)` iff their start ranges `[l, c]`
/// and their end ranges `[c, r]` both intersect.
fn share_a_sequence(a: &CompactWindow, b: &CompactWindow) -> bool {
    a.l.max(b.l) <= a.c.min(b.c) && a.c.max(b.c) <= a.r.min(b.r)
}

/// Every list of `index` a token of `tokens` can key: within one text's
/// run, no sequence is covered twice. Returns the postings checked.
fn assert_lists_disjoint_per_text(
    index: &dyn IndexAccess,
    tokens: &BTreeSet<TokenId>,
    name: &str,
) -> usize {
    let hasher = index.config().hasher();
    let mut checked = 0;
    for &token in tokens {
        let sketch = hasher.sketch(&[token]);
        for func in 0..hasher.k() {
            let list = index.read_list(func, sketch.value(func)).unwrap();
            checked += list.len();
            for run in list.chunk_by(|a, b| a.text == b.text) {
                for (i, a) in run.iter().enumerate() {
                    for b in &run[i + 1..] {
                        assert!(
                            !share_a_sequence(&a.window, &b.window),
                            "{name}: function {func}, text {}: {:?} and {:?} overlap",
                            a.text,
                            a.window,
                            b.window
                        );
                    }
                }
            }
        }
    }
    checked
}

#[test]
fn one_lists_windows_of_one_text_are_disjoint_under_every_builder() {
    for seed in [3u64, 17, 29] {
        let mut rng = Rng(seed);
        let texts = frequent_token_texts(&mut rng, 24, 6 + seed % 5);
        let tokens: BTreeSet<TokenId> = texts.iter().flatten().copied().collect();
        let corpus = InMemoryCorpus::from_texts(texts.clone());
        let config = IndexConfig::new(5, 4 + (seed % 7) as usize, 0xC0FFEE + seed);
        let dirs: Vec<PathBuf> = ["direct", "external", "half_a", "half_b", "merged"]
            .iter()
            .map(|name| scratch(&format!("{seed}_{name}")))
            .collect();

        let built = MemoryIndex::build(&corpus, config.clone()).unwrap();
        let want = assert_lists_disjoint_per_text(&built, &tokens, "MemoryIndex::build");
        assert!(want > texts.len(), "the corpus produced no lists to check");

        let direct = build_and_write(&corpus, config.clone(), &dirs[0], true).unwrap();
        let external = ExternalIndexBuilder::new(config.clone())
            .memory_budget(4 << 10)
            .build(&corpus, &dirs[1])
            .unwrap();
        let (head, tail) = texts.split_at(texts.len() / 2);
        for (half, dir) in [(head, &dirs[2]), (tail, &dirs[3])] {
            let half = InMemoryCorpus::from_texts(half.to_vec());
            build_and_write(&half, config.clone(), dir, false).unwrap();
        }
        let inputs: [&Path; 2] = [&dirs[2], &dirs[3]];
        let merged: DiskIndex = merge_indexes(&inputs, &dirs[4]).unwrap();

        let mut inserted = MemoryIndex::empty(config.clone());
        let hasher = config.hasher();
        let (mut generator, mut windows) = (WindowGenerator::new(), Vec::new());
        for text in &texts {
            inserted.insert(&hasher, &mut generator, &mut windows, text);
        }

        let others: [(&dyn IndexAccess, &str); 4] = [
            (&direct, "build_and_write"),
            (&external, "ExternalIndexBuilder"),
            (&merged, "merge_indexes"),
            (&inserted, "MemoryIndex::insert"),
        ];
        for (index, name) in others {
            let checked = assert_lists_disjoint_per_text(index, &tokens, name);
            assert_eq!(checked, want, "{name} holds a different posting count");
        }
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// The distinct-function test prunes texts with ≥ α₀ postings from < α₀
/// functions; the result must still be Definition 2's, with and without
/// long lists (phase 2 stopping at its first qualifying rectangle).
#[test]
fn search_equals_the_oracle_where_postings_outnumber_functions() {
    let mut pruned_texts = 0;
    for seed in [5u64, 11, 23, 31] {
        let mut rng = Rng(seed);
        // A large vocabulary: apart from token 0, two texts share little,
        // so few functions put a given text in the query's lists.
        let texts = frequent_token_texts(&mut rng, 12, 400);
        let corpus = InMemoryCorpus::from_texts(texts.clone());
        let (k, t) = (12, 5 + (seed % 3) as usize);
        let index = MemoryIndex::build(&corpus, IndexConfig::new(k, t, 77 + seed)).unwrap();
        let hasher = index.config().hasher();
        let plain = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let filtered = ShardedSearcher::single(&index, PrefixFilter::MaxListLen(40)).unwrap();
        for _ in 0..6 {
            let from = &texts[rng.below(texts.len() as u64) as usize];
            let at = rng.below((from.len() - 12) as u64) as usize;
            let query = &from[at..at + 12];
            for theta in [0.35, 0.5, 0.75] {
                let beta = collision_threshold(k, theta);
                // How many texts the old "≥ α₀ postings" rule would have
                // counted that the function rule does not.
                let sketch = hasher.sketch(query);
                for text in 0..texts.len() as TextId {
                    let per_func: Vec<usize> = (0..k)
                        .map(|func| {
                            index
                                .read_postings_for_text(func, sketch.value(func), text)
                                .unwrap()
                                .len()
                        })
                        .collect();
                    let functions = per_func.iter().filter(|&&n| n > 0).count();
                    if per_func.iter().sum::<usize>() >= beta && functions < beta {
                        pruned_texts += 1;
                    }
                }
                let want = definition2_scan(&corpus, &hasher, query, theta, t).unwrap();
                let unfiltered = plain.search(query, theta).unwrap();
                assert_eq!(unfiltered.enumerate_all(), want, "seed {seed} θ {theta}");
                let with_long = filtered.search(query, theta).unwrap();
                assert_eq!(with_long.enumerate_all(), want, "seed {seed} θ {theta}");
                assert_eq!(unfiltered.matches, with_long.matches);
            }
        }
    }
    assert!(
        pruned_texts > 50,
        "only {pruned_texts} (query, text) pairs had postings ≥ β from < β functions"
    );
}

/// The same lists over dense ids `0..n` and over ids spread to 10 M (every
/// one a multiple of 8 192) with the last at `u32::MAX − 1`: same matches,
/// same work, and the sparse half inside a bound that nothing sized by the
/// id span (one counter per text id is 16 GiB to zero and scan) can meet.
/// The gather has no table at all: it orders texts, it does not index by
/// them.
#[test]
fn sparse_text_ids_are_answered_like_dense_ones() {
    const TEXTS: u32 = 1_223;
    let sparse_id = |dense: TextId| match dense {
        d if d == TEXTS - 1 => u32::MAX - 1,
        d => d << 13,
    };
    assert!(sparse_id(TEXTS - 2) >= 9_990_000);

    let query: Vec<TokenId> = (100..164).collect();
    let mut config = IndexConfig::new(8, 10, 4242);
    config.num_texts = TEXTS as usize;
    let sketch = config.hasher().sketch(&query);
    let mut rng = Rng(99);
    let mut lists: Vec<Vec<Posting>> = Vec::new();
    for func in 0..config.k {
        // Function 0's list names every text (it will be the long one);
        // the others a third of them. One or two windows per text, with
        // disjoint start ranges — what a builder would produce.
        let mut list = Vec::new();
        for text in 0..TEXTS {
            if func != 0 && rng.below(3) != 0 {
                continue;
            }
            let mut l = rng.below(6) as u32;
            for _ in 0..1 + rng.below(2) {
                let c = l + rng.below(8) as u32;
                let r = c + 10 + rng.below(30) as u32;
                list.push(Posting {
                    text,
                    window: CompactWindow::new(l, c, r),
                });
                l = c + 1;
            }
        }
        lists.push(list);
    }
    let dense = HandBuilt {
        keys: sketch.values().to_vec(),
        lists: lists.clone(),
        config: config.clone(),
    };
    for list in &mut lists {
        for posting in list.iter_mut() {
            posting.text = sparse_id(posting.text);
        }
    }
    let sparse = HandBuilt {
        keys: sketch.values().to_vec(),
        lists,
        config,
    };

    for filter in [
        PrefixFilter::Disabled,
        PrefixFilter::MaxListLen(TEXTS as u64),
    ] {
        for theta in [0.3, 0.5] {
            let want = ShardedSearcher::single(&dense, filter)
                .unwrap()
                .search(&query, theta)
                .unwrap();
            assert!(want.matches.len() > 20, "the lists produce too few matches");
            let start = Instant::now();
            let got = ShardedSearcher::single(&sparse, filter)
                .unwrap()
                .search(&query, theta)
                .unwrap();
            let took = start.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "sparse ids took {took:?}: the gather is following the id span"
            );
            let remapped: Vec<TextMatch> = want
                .matches
                .iter()
                .map(|m| TextMatch {
                    text: sparse_id(m.text),
                    rects: m.rects.clone(),
                })
                .collect();
            assert_eq!(got.matches, remapped, "{filter:?} θ {theta}");
            assert_eq!(got.stats.candidate_texts, want.stats.candidate_texts);
            assert_eq!(got.stats.postings_read, want.stats.postings_read);
            assert_eq!(got.stats.long_probes, want.stats.long_probes);
        }
    }
}
