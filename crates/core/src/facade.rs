//! High-level API: build / persist / open / search in a handful of calls.

use std::path::Path;

use ndss_corpus::{CorpusSource, SeqRef};
use ndss_hash::TokenId;
use ndss_index::{
    build_and_write, DiskIndex, ExternalIndexBuilder, IndexAccess, IndexConfig, MemoryIndex,
};
use ndss_query::search::{NearDupSearcher, SearchOutcome};
use ndss_query::{PrefixFilter, QueryStats, ShardedSearcher};

/// Unified error type of the facade.
#[derive(Debug)]
pub enum NdssError {
    /// Index construction or access failed.
    Index(ndss_index::IndexError),
    /// Query processing failed.
    Query(ndss_query::QueryError),
    /// Corpus access failed.
    Corpus(ndss_corpus::CorpusError),
    /// Language-model layer failed.
    Lm(ndss_lm::LmError),
}

impl std::fmt::Display for NdssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NdssError::Index(e) => e.fmt(f),
            NdssError::Query(e) => e.fmt(f),
            NdssError::Corpus(e) => e.fmt(f),
            NdssError::Lm(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for NdssError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NdssError::Index(e) => Some(e),
            NdssError::Query(e) => Some(e),
            NdssError::Corpus(e) => Some(e),
            NdssError::Lm(e) => Some(e),
        }
    }
}

impl From<ndss_index::IndexError> for NdssError {
    fn from(e: ndss_index::IndexError) -> Self {
        NdssError::Index(e)
    }
}

impl From<ndss_query::QueryError> for NdssError {
    fn from(e: ndss_query::QueryError) -> Self {
        NdssError::Query(e)
    }
}

impl From<ndss_corpus::CorpusError> for NdssError {
    fn from(e: ndss_corpus::CorpusError) -> Self {
        NdssError::Corpus(e)
    }
}

impl From<ndss_lm::LmError> for NdssError {
    fn from(e: ndss_lm::LmError) -> Self {
        NdssError::Lm(e)
    }
}

/// The three knobs every deployment must choose (paper §3.2): the number of
/// hash functions `k`, the minimum interesting sequence length `t`, and the
/// hashing seed. Everything else has defaults tunable through
/// [`SearchParams::index_config`].
#[derive(Debug, Clone)]
pub struct SearchParams {
    pub(crate) config: IndexConfig,
    prefix_filter: PrefixFilter,
}

impl SearchParams {
    /// Creates parameters with `k` hash functions, length threshold `t`,
    /// and hashing seed `seed`. Prefix filtering defaults to
    /// [`PrefixFilter::default`], the paper's 5%-most-frequent cutoff.
    pub fn new(k: usize, t: usize, seed: u64) -> Self {
        Self {
            config: IndexConfig::new(k, t, seed),
            prefix_filter: PrefixFilter::default(),
        }
    }

    /// Access the full index configuration for advanced tuning.
    pub fn index_config(mut self, f: impl FnOnce(IndexConfig) -> IndexConfig) -> Self {
        self.config = f(self.config);
        self
    }

    /// Sets the prefix-filtering policy used by searches.
    pub fn prefix_filter(mut self, filter: PrefixFilter) -> Self {
        self.prefix_filter = filter;
        self
    }
}

/// An index plus its query machinery: the main entry point for
/// applications.
///
/// The underlying index may live in memory or on disk; both are built from
/// the same corpus abstraction and answer identical queries.
pub struct CorpusIndex<I: IndexAccess> {
    index: I,
    prefix_filter: PrefixFilter,
}

impl<I: IndexAccess> std::fmt::Debug for CorpusIndex<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusIndex")
            .field("config", self.index.config())
            .field("prefix_filter", &self.prefix_filter)
            .finish()
    }
}

impl CorpusIndex<MemoryIndex> {
    /// Builds an in-memory index (single-threaded).
    pub fn build_in_memory<C: CorpusSource + ?Sized>(
        corpus: &C,
        params: SearchParams,
    ) -> Result<Self, NdssError> {
        let index = MemoryIndex::build(corpus, params.config)?;
        Ok(Self {
            index,
            prefix_filter: params.prefix_filter,
        })
    }

    /// Builds an in-memory index using all cores (the paper's parallel
    /// build, §3.4).
    pub fn build_in_memory_parallel<C: CorpusSource + ?Sized>(
        corpus: &C,
        params: SearchParams,
    ) -> Result<Self, NdssError> {
        let index = MemoryIndex::build_parallel(corpus, params.config)?;
        Ok(Self {
            index,
            prefix_filter: params.prefix_filter,
        })
    }
}

impl CorpusIndex<DiskIndex> {
    /// Incremental indexing: index `new_corpus` as a fresh shard and merge
    /// it with the existing index at `existing_dir` into `out_dir`. The new
    /// shard's texts get ids following the existing corpus's
    /// (`existing.num_texts ..`), exactly as if the combined corpus had been
    /// indexed at once — which the merge machinery guarantees byte-for-byte.
    pub fn extend_index<C: CorpusSource + ?Sized>(
        existing_dir: &Path,
        new_corpus: &C,
        out_dir: &Path,
        prefix_filter: PrefixFilter,
    ) -> Result<Self, NdssError> {
        let existing = DiskIndex::open(existing_dir)?;
        let config = existing.config().clone();
        drop(existing);
        let shard_dir = out_dir.join("tmp_extend_shard");
        std::fs::create_dir_all(&shard_dir).map_err(ndss_index::IndexError::from)?;
        build_and_write(new_corpus, config, &shard_dir, true)?;
        let result = ndss_index::merge_indexes(&[existing_dir, &shard_dir], out_dir);
        std::fs::remove_dir_all(&shard_dir).ok();
        Ok(Self {
            index: result?,
            prefix_filter,
        })
    }

    /// Builds on disk via the in-memory path, then reopens (medium-scale
    /// corpora).
    pub fn build_on_disk<C: CorpusSource + ?Sized>(
        corpus: &C,
        params: SearchParams,
        dir: &Path,
    ) -> Result<Self, NdssError> {
        let index = build_and_write(corpus, params.config, dir, true)?;
        Ok(Self {
            index,
            prefix_filter: params.prefix_filter,
        })
    }

    /// Builds on disk out of core (corpora larger than memory; §3.4): the
    /// corpus is cut into runs whose tokens and records fit `memory_budget`
    /// bytes, each run is built in memory, and the runs are merged.
    pub fn build_external<C: CorpusSource + ?Sized>(
        corpus: &C,
        params: SearchParams,
        dir: &Path,
        memory_budget: usize,
    ) -> Result<Self, NdssError> {
        let index = ExternalIndexBuilder::new(params.config)
            .memory_budget(memory_budget)
            .parallel(true)
            .build(corpus, dir)?;
        Ok(Self {
            index,
            prefix_filter: params.prefix_filter,
        })
    }

    /// Opens an existing index directory, or a generation store's `CURRENT`
    /// generation when `dir` is a store root — both layouts are
    /// transparently addressable.
    pub fn open(dir: &Path, prefix_filter: PrefixFilter) -> Result<Self, NdssError> {
        Self::open_with(dir, prefix_filter, Default::default(), Default::default())
    }

    /// Like [`CorpusIndex::open`], but with explicit cache sizing and IO
    /// options (a fault plan, in tests).
    pub fn open_with(
        dir: &Path,
        prefix_filter: PrefixFilter,
        cache: ndss_index::CacheConfig,
        io: ndss_index::ReadOptions,
    ) -> Result<Self, NdssError> {
        Ok(Self {
            index: DiskIndex::open_with_io(&ndss_index::resolve_index_dir(dir), cache, io)?,
            prefix_filter,
        })
    }
}

impl<I: IndexAccess> CorpusIndex<I> {
    /// The underlying index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The index configuration (k, t, seed, corpus dimensions).
    pub fn config(&self) -> &IndexConfig {
        self.index.config()
    }

    /// A reusable searcher (computes prefix-filter cutoffs once). Prefer
    /// this over [`Self::search`] when issuing many queries.
    pub fn searcher(&self) -> Result<NearDupSearcher<'_, I>, NdssError> {
        Ok(NearDupSearcher::with_prefix_filter(
            &self.index,
            self.prefix_filter,
        )?)
    }

    /// One-shot search: all sequences (length ≥ t) colliding with `query`
    /// on ≥ ⌈kθ⌉ hash functions.
    pub fn search(&self, query: &[TokenId], theta: f64) -> Result<SearchOutcome, NdssError> {
        Ok(self.searcher()?.search(query, theta)?)
    }

    /// Searches many queries across `threads` worker threads through the
    /// one-lane [`ShardedSearcher::single`], preserving input order and
    /// failing fast on the first error. Workers share the index (lock-free
    /// reads from each file's memory mapping, one shared hot-list cache),
    /// but each query accumulates its own stats, so each outcome's
    /// `QueryStats` is attributed to its own query.
    pub fn search_batch(
        &self,
        queries: &[Vec<TokenId>],
        theta: f64,
        threads: usize,
    ) -> Result<Vec<SearchOutcome>, NdssError> {
        Ok(ShardedSearcher::single(&self.index, self.prefix_filter)?
            .threads(threads)
            .search_all(queries, theta)?)
    }

    /// Search then verify true distinct Jaccard against the corpus
    /// (Definition 1 results).
    pub fn search_verified<C: CorpusSource + ?Sized>(
        &self,
        query: &[TokenId],
        theta: f64,
        corpus: &C,
        max_candidates: usize,
    ) -> Result<(Vec<SeqRef>, QueryStats), NdssError> {
        Ok(self
            .searcher()?
            .search_verified(query, theta, corpus, max_candidates)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndss_corpus::SyntheticCorpusBuilder;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ndss_facade_{}", std::process::id()))
            .join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn memory_and_disk_agree() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(71)
            .num_texts(40)
            .duplicates_per_text(1.0)
            .mutation_rate(0.03)
            .build();
        let params = SearchParams::new(8, 25, 99);
        let mem = CorpusIndex::build_in_memory(&corpus, params.clone()).unwrap();
        let dir = temp_dir("agree");
        let disk = CorpusIndex::build_on_disk(&corpus, params, &dir).unwrap();
        let p = &planted[0];
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let a = mem.search(&query, 0.8).unwrap();
        let b = disk.search(&query, 0.8).unwrap();
        assert_eq!(a.enumerate_all(), b.enumerate_all());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_after_build() {
        let (corpus, _) = SyntheticCorpusBuilder::new(72).num_texts(20).build();
        let dir = temp_dir("open");
        let params = SearchParams::new(4, 25, 7);
        {
            CorpusIndex::build_on_disk(&corpus, params, &dir).unwrap();
        }
        let reopened = CorpusIndex::open(&dir, PrefixFilter::Disabled).unwrap();
        assert_eq!(reopened.config().num_texts, 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extend_index_equals_full_rebuild() {
        let (corpus, _) = SyntheticCorpusBuilder::new(75)
            .num_texts(50)
            .vocab_size(600)
            .build();
        let all: Vec<Vec<u32>> = (0..50u32).map(|i| corpus.text(i).to_vec()).collect();
        let old = ndss_corpus::InMemoryCorpus::from_texts(all[..30].to_vec());
        let new = ndss_corpus::InMemoryCorpus::from_texts(all[30..].to_vec());

        let d_old = temp_dir("ext_old");
        let d_out = temp_dir("ext_out");
        let d_full = temp_dir("ext_full");
        let params = SearchParams::new(4, 20, 17);
        CorpusIndex::build_on_disk(&old, params.clone(), &d_old).unwrap();
        let extended =
            CorpusIndex::extend_index(&d_old, &new, &d_out, PrefixFilter::Disabled).unwrap();
        let full = CorpusIndex::build_on_disk(&corpus, params, &d_full).unwrap();
        assert_eq!(extended.config().num_texts, 50);
        // Same answers as indexing everything at once.
        let query = corpus.text(40)[..30].to_vec();
        assert_eq!(
            extended.search(&query, 0.8).unwrap().enumerate_all(),
            full.search(&query, 0.8).unwrap().enumerate_all()
        );
        for d in [d_old, d_out, d_full] {
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn search_batch_matches_sequential() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(74)
            .num_texts(40)
            .duplicates_per_text(1.0)
            .mutation_rate(0.03)
            .build();
        let index = CorpusIndex::build_in_memory(&corpus, SearchParams::new(8, 25, 2)).unwrap();
        let queries: Vec<Vec<u32>> = planted
            .iter()
            .take(6)
            .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
            .collect();
        let parallel = index.search_batch(&queries, 0.8, 4).unwrap();
        let searcher = index.searcher().unwrap();
        for (q, outcome) in queries.iter().zip(&parallel) {
            let sequential = searcher.search(q, 0.8).unwrap();
            assert_eq!(outcome.enumerate_all(), sequential.enumerate_all());
        }
    }

    #[test]
    fn sharded_facade_matches_single_index() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(91)
            .num_texts(24)
            .duplicates_per_text(1.0)
            .mutation_rate(0.0)
            .build();
        let root = temp_dir("sharded_facade");
        let params = SearchParams::new(4, 20, 5).prefix_filter(PrefixFilter::Disabled);
        let opts = ndss_index::ShardedBuildOptions::default();
        ndss_index::build_sharded(&corpus, params.config.clone(), &root, 3, &opts).unwrap();
        let sharded = ndss_query::ShardedIndex::open(&root).unwrap();
        assert_eq!(sharded.num_shards(), 3);
        let searcher = sharded.searcher_with_filter(params.prefix_filter).unwrap();
        let single = CorpusIndex::build_in_memory(&corpus, params).unwrap();
        for p in planted.iter().take(4) {
            let query = corpus.sequence_to_vec(p.dst).unwrap();
            let a = searcher.search(&query, 0.8).unwrap();
            let b = single.search(&query, 0.8).unwrap();
            assert_eq!(a.matches, b.matches);
            assert_eq!((a.beta, a.t, a.complete), (b.beta, b.t, b.complete));
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn external_build_through_facade() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(73)
            .num_texts(30)
            .duplicates_per_text(1.0)
            .mutation_rate(0.0)
            .build();
        let dir = temp_dir("external");
        let idx = CorpusIndex::build_external(&corpus, SearchParams::new(4, 25, 3), &dir, 1 << 14)
            .unwrap();
        let p = &planted[0];
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let outcome = idx.search(&query, 0.9).unwrap();
        assert!(outcome.matches.iter().any(|m| m.text == p.src.text));
        std::fs::remove_dir_all(&dir).ok();
    }
}
