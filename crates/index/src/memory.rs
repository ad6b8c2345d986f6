//! The in-memory inverted index and its (optionally parallel) builder.
//!
//! This is Algorithm 1's medium-scale path: generate compact windows per
//! hash function per text and group them by min-hash value. Parallelism
//! follows the paper's OpenMP scheme (§3.4): each worker processes a unit
//! of texts into private record buffers, then each function's records are
//! sorted and cut into lists — the pipeline [`crate::build`] shares between
//! this builder and the ones that write files.

use std::collections::HashMap;

use ndss_corpus::{CorpusSource, TextId};
use ndss_hash::{HashValue, MinHasher, TokenId};
use ndss_windows::{HashedWindow, WindowGenerator};

use crate::build::{self, FunctionRecords};
use crate::{IndexAccess, IndexConfig, IndexError, IoSnapshot, IoStats, Posting, SharedList};

/// One fully in-memory inverted index: `maps[func][hash] = postings`.
#[derive(Debug)]
pub struct MemoryIndex {
    config: IndexConfig,
    maps: Vec<HashMap<HashValue, Vec<Posting>>>,
}

impl MemoryIndex {
    /// An index over no texts yet, grown one text at a time by
    /// [`Self::insert`] (the ingest memtable).
    pub fn empty(mut config: IndexConfig) -> Self {
        config.num_texts = 0;
        config.total_tokens = 0;
        let maps = (0..config.k).map(|_| HashMap::new()).collect();
        Self { config, maps }
    }

    /// Indexes `tokens` as the next text and returns its id. Ids grow
    /// monotonically across inserts and each text's windows are appended in
    /// `(hash, window)` order, so every list stays ordered by
    /// `(text, l, c, r)` — the invariant [`Self::build`] establishes by
    /// sorting — without ever re-sorting. `windows` is a caller-owned
    /// scratch buffer.
    pub fn insert(
        &mut self,
        hasher: &MinHasher,
        generator: &mut WindowGenerator,
        windows: &mut Vec<HashedWindow>,
        tokens: &[TokenId],
    ) -> TextId {
        let text = self.config.num_texts as TextId;
        for (func, map) in self.maps.iter_mut().enumerate() {
            windows.clear();
            generator.generate(hasher, func, tokens, self.config.t, windows);
            windows.sort_unstable_by_key(|hw| (hw.hash, hw.window));
            for hw in windows.iter() {
                map.entry(hw.hash).or_default().push(Posting {
                    text,
                    window: hw.window,
                });
            }
        }
        self.config.num_texts += 1;
        self.config.total_tokens += tokens.len() as u64;
        text
    }

    /// Builds the index single-threaded (Algorithm 1 without the parallel
    /// extension). Equivalent to [`Self::build_parallel`] with one worker.
    pub fn build<C: CorpusSource + ?Sized>(
        corpus: &C,
        config: IndexConfig,
    ) -> Result<Self, IndexError> {
        Self::build_inner(corpus, config, false)
    }

    /// Builds the index with thread parallelism over units of texts, then
    /// over hash functions.
    pub fn build_parallel<C: CorpusSource + ?Sized>(
        corpus: &C,
        config: IndexConfig,
    ) -> Result<Self, IndexError> {
        Self::build_inner(corpus, config, true)
    }

    fn build_inner<C: CorpusSource + ?Sized>(
        corpus: &C,
        config: IndexConfig,
        parallel: bool,
    ) -> Result<Self, IndexError> {
        let threads = build::build_threads(parallel);
        let config = build::sized_for(config, corpus);
        let records = FunctionRecords::generate(corpus, &config, threads, build::UNIT_TOKENS)?;
        // One insert per key, each list at its exact length and already in
        // canonical order.
        let funcs: Vec<usize> = (0..config.k).collect();
        let maps = ndss_parallel::try_map(&funcs, threads, |_, &func| {
            let mut map = HashMap::new();
            records.emit(func, |hash, postings| {
                map.insert(hash, postings.to_vec());
                Ok(())
            })?;
            Ok::<_, IndexError>(map)
        })?;
        Ok(Self { config, maps })
    }

    /// Total number of postings (compact windows) across all functions.
    pub fn total_postings(&self) -> u64 {
        self.maps
            .iter()
            .map(|m| m.values().map(|v| v.len() as u64).sum::<u64>())
            .sum()
    }

    /// Number of postings under one hash function.
    pub fn postings_for_function(&self, func: usize) -> u64 {
        self.maps[func].values().map(|v| v.len() as u64).sum()
    }

    /// Number of distinct min-hash keys under one hash function.
    pub fn keys_for_function(&self, func: usize) -> usize {
        self.maps[func].len()
    }

    /// Iterates `(hash, postings)` for one function in ascending hash order
    /// (the on-disk writer consumes this).
    pub fn sorted_lists(&self, func: usize) -> Vec<(HashValue, &[Posting])> {
        let mut lists: Vec<(HashValue, &[Posting])> = self.maps[func]
            .iter()
            .map(|(&h, v)| (h, v.as_slice()))
            .collect();
        lists.sort_unstable_by_key(|&(h, _)| h);
        lists
    }

    fn check_func(&self, func: usize) -> Result<(), IndexError> {
        if func >= self.config.k {
            Err(IndexError::FunctionOutOfRange(func, self.config.k))
        } else {
            Ok(())
        }
    }
}

impl IndexAccess for MemoryIndex {
    fn config(&self) -> &IndexConfig {
        &self.config
    }

    fn list_len(&self, func: usize, hash: HashValue) -> Result<u64, IndexError> {
        self.check_func(func)?;
        Ok(self.maps[func].get(&hash).map_or(0, |v| v.len() as u64))
    }

    fn shared_list(
        &self,
        func: usize,
        hash: HashValue,
        _io: &IoStats,
    ) -> Result<SharedList<'_>, IndexError> {
        self.check_func(func)?;
        let list = self.maps[func].get(&hash).map_or(&[][..], Vec::as_slice);
        Ok(SharedList::Borrowed(list))
    }

    fn probe_texts(
        &self,
        func: usize,
        hash: HashValue,
        texts: &[TextId],
        _io: &IoStats,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        self.check_func(func)?;
        if let Some(list) = self.maps[func].get(&hash) {
            // Lists are sorted by text id: binary search each contiguous run.
            crate::probe_sorted(list, texts, out);
        }
        Ok(())
    }

    fn io_snapshot(&self) -> IoSnapshot {
        IoSnapshot::default()
    }

    fn list_length_histogram(&self, func: usize) -> Result<Vec<(u64, u64)>, IndexError> {
        self.check_func(func)?;
        let mut hist: HashMap<u64, u64> = HashMap::new();
        for v in self.maps[func].values() {
            *hist.entry(v.len() as u64).or_insert(0) += 1;
        }
        let mut out: Vec<(u64, u64)> = hist.into_iter().collect();
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndss_corpus::{InMemoryCorpus, SyntheticCorpusBuilder};
    use ndss_windows::theory::expected_windows;

    fn small_corpus() -> InMemoryCorpus {
        SyntheticCorpusBuilder::new(1)
            .num_texts(30)
            .text_len(60, 120)
            .vocab_size(500)
            .build()
            .0
    }

    #[test]
    fn postings_cover_every_long_sequence_once() {
        let corpus = InMemoryCorpus::from_texts(vec![
            (0..40u32).map(|i| i * 7 % 41).collect(),
            (0..25u32).map(|i| i * 3 % 17).collect(),
        ]);
        let config = IndexConfig::new(4, 5, 9);
        let index = MemoryIndex::build(&corpus, config).unwrap();
        let hasher = index.config().hasher();
        // For each text, function, and long sequence: exactly one posting
        // with the right hash covers it.
        for (text_id, tokens) in corpus.iter() {
            for func in 0..4 {
                let mut hashes = Vec::new();
                hasher.hash_positions_into(func, tokens, &mut hashes);
                for i in 0..tokens.len() {
                    for j in i..tokens.len() {
                        if j - i + 1 < 5 {
                            continue;
                        }
                        let minhash = hashes[i..=j].iter().min().copied().unwrap();
                        let list = index.read_list(func, minhash).unwrap();
                        let covering = list
                            .iter()
                            .filter(|p| p.text == text_id && p.window.covers(i as u32, j as u32))
                            .count();
                        assert_eq!(covering, 1, "text {text_id} func {func} seq [{i},{j}]");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        let corpus = small_corpus();
        let a = MemoryIndex::build(&corpus, IndexConfig::new(8, 10, 3)).unwrap();
        let b = MemoryIndex::build_parallel(&corpus, IndexConfig::new(8, 10, 3)).unwrap();
        assert_eq!(a.total_postings(), b.total_postings());
        for func in 0..8 {
            let la = a.sorted_lists(func);
            let lb = b.sorted_lists(func);
            assert_eq!(la.len(), lb.len());
            for ((ha, pa), (hb, pb)) in la.iter().zip(lb.iter()) {
                assert_eq!(ha, hb);
                assert_eq!(pa, pb);
            }
        }
    }

    #[test]
    fn posting_count_tracks_theory() {
        // Long texts with mostly-distinct tokens: the per-function posting
        // count must be near Σ_texts (2(n+1)/(t+1) − 1).
        let (corpus, _) = SyntheticCorpusBuilder::new(4)
            .num_texts(50)
            .text_len(300, 500)
            .vocab_size(1_000_000) // huge vocab → few duplicate tokens
            .zipf_exponent(0.0)
            .duplicates_per_text(0.0)
            .build();
        let t = 25;
        let index = MemoryIndex::build(&corpus, IndexConfig::new(2, t, 5)).unwrap();
        let expect: f64 = corpus
            .iter()
            .map(|(_, toks)| expected_windows(toks.len(), t))
            .sum();
        for func in 0..2 {
            let got = index.postings_for_function(func) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.15, "func {func}: got {got}, expected ≈ {expect}");
        }
    }

    #[test]
    fn lists_are_sorted_by_text() {
        let corpus = small_corpus();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(3, 10, 7)).unwrap();
        for func in 0..3 {
            for (_, postings) in index.sorted_lists(func) {
                assert!(postings.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn read_postings_for_text_filters_exactly() {
        let corpus = small_corpus();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(2, 10, 7)).unwrap();
        let lists = index.sorted_lists(0);
        let (hash, all) = lists
            .iter()
            .max_by_key(|(_, v)| v.len())
            .map(|&(h, v)| (h, v.to_vec()))
            .unwrap();
        let text = all[all.len() / 2].text;
        let got = index.read_postings_for_text(0, hash, text).unwrap();
        let expect: Vec<Posting> = all.iter().filter(|p| p.text == text).copied().collect();
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn function_out_of_range_is_reported() {
        let corpus = small_corpus();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(2, 10, 7)).unwrap();
        assert!(matches!(
            index.list_len(2, 0),
            Err(IndexError::FunctionOutOfRange(2, 2))
        ));
    }

    #[test]
    fn histogram_sums_to_key_count() {
        let corpus = small_corpus();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(2, 10, 7)).unwrap();
        let hist = index.list_length_histogram(0).unwrap();
        let lists: u64 = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(lists, index.keys_for_function(0) as u64);
        let postings: u64 = hist.iter().map(|&(len, c)| len * c).sum();
        assert_eq!(postings, index.postings_for_function(0));
    }
}
