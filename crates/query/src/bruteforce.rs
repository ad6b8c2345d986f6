//! Brute-force reference implementations of both problem definitions.
//!
//! These are the ground-truth oracles the test suite measures the indexed
//! search against, and the "no index" baselines the benchmark harness uses
//! to demonstrate the speedups the paper's design buys:
//!
//! * [`definition1_scan`] — the exact problem (paper Definition 1): report
//!   every sequence with true distinct Jaccard ≥ θ. Runs in `O(Σ n²)` with
//!   `O(1)` incremental similarity updates per extension.
//! * [`definition2_scan`] — the approximate problem (Definition 2): report
//!   every sequence of length ≥ t whose min-hash collides with the query's
//!   on ≥ ⌈kθ⌉ functions. Runs in `O(k · Σ n²)` with `O(k)` incremental
//!   min-hash updates. The indexed search must equal this oracle *exactly*
//!   (Theorem 2) — the central correctness property of the system.

use std::collections::HashMap;

use ndss_corpus::{CorpusError, CorpusSource, SeqRef, TextId};
use ndss_hash::minhash::collision_threshold;
use ndss_hash::{HashValue, MinHasher, TokenId};

/// Exact near-duplicate sequence search (Definition 1) by exhaustive scan.
///
/// For each text and each start position `i`, the scan extends `j` rightward
/// maintaining (a) per-token counts of the window, (b) the number of
/// distinct window tokens, and (c) the number of distinct window tokens also
/// present in the query — which gives the distinct Jaccard in O(1) per step:
/// `J = shared / (|Q_set| + distinct_in_window − shared)`.
///
/// Only sequences with `j − i + 1 ≥ t` are reported, mirroring the
/// approximate problem's length constraint.
pub fn definition1_scan<C: CorpusSource + ?Sized>(
    corpus: &C,
    query: &[TokenId],
    theta: f64,
    t: usize,
) -> Result<Vec<SeqRef>, CorpusError> {
    let mut query_set: Vec<TokenId> = query.to_vec();
    query_set.sort_unstable();
    query_set.dedup();
    let q_distinct = query_set.len();
    let in_query = |tok: TokenId| query_set.binary_search(&tok).is_ok();

    let mut out = Vec::new();
    let mut text = Vec::new();
    for id in 0..corpus.num_texts() as TextId {
        corpus.read_text(id, &mut text)?;
        let n = text.len();
        let mut counts: HashMap<TokenId, u32> = HashMap::new();
        for i in 0..n {
            counts.clear();
            let mut distinct = 0usize;
            let mut shared = 0usize;
            #[allow(clippy::needless_range_loop)] // j is the sequence endpoint, not just an index
            for j in i..n {
                let tok = text[j];
                let c = counts.entry(tok).or_insert(0);
                if *c == 0 {
                    distinct += 1;
                    if in_query(tok) {
                        shared += 1;
                    }
                }
                *c += 1;
                if j - i + 1 < t {
                    continue;
                }
                let union = q_distinct + distinct - shared;
                let jaccard = shared as f64 / union as f64;
                if jaccard + 1e-12 >= theta {
                    out.push(SeqRef::new(id, i as u32, j as u32));
                }
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Approximate near-duplicate sequence search (Definition 2) by exhaustive
/// scan: for every sequence of length ≥ t, count on how many of the `k`
/// functions its min-hash equals the query's, and report those reaching
/// `β = ⌈kθ⌉`.
pub fn definition2_scan<C: CorpusSource + ?Sized>(
    corpus: &C,
    hasher: &MinHasher,
    query: &[TokenId],
    theta: f64,
    t: usize,
) -> Result<Vec<SeqRef>, CorpusError> {
    let k = hasher.k();
    let beta = collision_threshold(k, theta);
    let query_sketch = hasher.sketch(query);

    let mut out = Vec::new();
    let mut text = Vec::new();
    // Position-hash arrays per function, recomputed per text.
    let mut pos_hashes: Vec<Vec<HashValue>> = vec![Vec::new(); k];
    for id in 0..corpus.num_texts() as TextId {
        corpus.read_text(id, &mut text)?;
        let n = text.len();
        for (func, hashes) in pos_hashes.iter_mut().enumerate() {
            hasher.hash_positions_into(func, &text, hashes);
        }
        let mut mins = vec![HashValue::MAX; k];
        for i in 0..n {
            mins.iter_mut().for_each(|m| *m = HashValue::MAX);
            #[allow(clippy::needless_range_loop)] // j is the sequence endpoint, not just an index
            for j in i..n {
                // Extend the window: update each function's running min.
                for (func, m) in mins.iter_mut().enumerate() {
                    let h = pos_hashes[func][j];
                    if h < *m {
                        *m = h;
                    }
                }
                if j - i + 1 < t {
                    continue;
                }
                let collisions = mins
                    .iter()
                    .enumerate()
                    .filter(|&(func, &m)| m == query_sketch.value(func))
                    .count();
                if collisions >= beta {
                    out.push(SeqRef::new(id, i as u32, j as u32));
                }
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrefixFilter, ShardedSearcher};
    use ndss_corpus::{InMemoryCorpus, SyntheticCorpusBuilder};
    use ndss_hash::jaccard::distinct_jaccard;
    use ndss_index::{IndexAccess, IndexConfig, MemoryIndex};

    #[test]
    fn definition1_finds_planted_exact_copy() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(51)
            .num_texts(15)
            .text_len(80, 120)
            .duplicates_per_text(1.0)
            .dup_len(30, 40)
            .mutation_rate(0.0)
            .build();
        let p = planted.first().unwrap();
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let hits = definition1_scan(&corpus, &query, 0.95, 20).unwrap();
        assert!(hits.iter().any(|s| s.text == p.src.text));
        // Every reported hit really is similar.
        for s in &hits {
            let tokens = corpus.sequence_to_vec(*s).unwrap();
            assert!(distinct_jaccard(&query, &tokens) >= 0.95 - 1e-9);
        }
    }

    #[test]
    fn definition1_reports_nothing_for_unrelated_query() {
        let corpus = InMemoryCorpus::from_texts(vec![(0..100u32).collect()]);
        let query: Vec<u32> = (1000..1050).collect();
        assert!(definition1_scan(&corpus, &query, 0.5, 10)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn definition2_matches_indexed_search_small() {
        // The central exactness property on a small corpus: the indexed
        // search and the brute-force Definition 2 oracle agree perfectly.
        let (corpus, _) = SyntheticCorpusBuilder::new(52)
            .num_texts(12)
            .text_len(40, 70)
            .vocab_size(200)
            .duplicates_per_text(1.0)
            .dup_len(20, 30)
            .mutation_rate(0.1)
            .build();
        let config = IndexConfig::new(8, 10, 777);
        let index = MemoryIndex::build(&corpus, config).unwrap();
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let hasher = index.config().hasher();

        let query = corpus.text(3)[5..35].to_vec();
        for theta in [0.5, 0.7, 0.9, 1.0] {
            let oracle = definition2_scan(&corpus, &hasher, &query, theta, 10).unwrap();
            let indexed = searcher.search(&query, theta).unwrap().enumerate_all();
            assert_eq!(indexed, oracle, "theta = {theta}");
        }
    }

    #[test]
    fn definition2_is_superset_of_definition1_matches() {
        // Min-hash collisions at β = ⌈kθ⌉ is an estimator: with k large,
        // every true near-duplicate at θ' well above θ should collide
        // enough. We check the weaker, deterministic property that a
        // *verbatim* copy (J = 1) always reaches β.
        let (corpus, planted) = SyntheticCorpusBuilder::new(53)
            .num_texts(15)
            .duplicates_per_text(1.0)
            .mutation_rate(0.0)
            .dup_len(40, 60)
            .build();
        let hasher = MinHasher::new(16, 99);
        let p = planted.first().unwrap();
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let hits = definition2_scan(&corpus, &hasher, &query, 1.0, 25).unwrap();
        assert!(hits.iter().any(|s| s.text == p.src.text));
    }
}
