//! Old names the benchmark ledger (`ledger/src/adapter.rs`) still calls:
//! forwarders of at most five lines onto the lane set ([`ShardedSearcher`]),
//! the index builders and the one store layout ([`Store`]), the code behind
//! them deleted: `BatchSearcher`, `NearDupSearcher`, `OverlaySearcher`,
//! `CorpusIndex`, `SearchParams` and `ShardedCorpusIndex` here and in
//! `lib.rs`'s root, `GenerationStore` and `ShardedStore` through `lib.rs`'s
//! `pub mod index`. Nothing else may name them. With two `#[doc(hidden)]`
//! inherent methods that cannot live here and have no caller outside the
//! ledger — `ServingIndex::open_with_cache` and `ShardedSearcher::rank` —
//! this is the to-do list of ROADMAP item 1(b): once `adapter.rs` stops
//! calling them, delete this file, its re-exports in `lib.rs`, and those
//! two methods.

use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use ndss_corpus::CorpusSource;
use ndss_hash::{MinHasher, TokenId};
use ndss_index::{
    build_and_write, resolve_index_dir, CacheConfig, DiskIndex, IndexAccess, IndexConfig,
    IndexError, Manifest, MemSegment, MemoryIndex, ReadOptions, Store,
};
use ndss_query::{PrefixFilter, QueryError, RankedMatch, SearchOutcome, ShardedSearcher};

type R<T> = Result<T, QueryError>;

/// An `IndexConfig` and the prefix filter its searchers use (default
/// [`PrefixFilter::default`]).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct SearchParams {
    config: IndexConfig,
    filter: PrefixFilter,
}

impl SearchParams {
    pub fn new(k: usize, t: usize, seed: u64) -> Self {
        let (config, filter) = (IndexConfig::new(k, t, seed), PrefixFilter::default());
        Self { config, filter }
    }

    pub fn index_config(mut self, f: impl FnOnce(IndexConfig) -> IndexConfig) -> Self {
        self.config = f(self.config);
        self
    }

    pub fn prefix_filter(mut self, filter: PrefixFilter) -> Self {
        self.filter = filter;
        self
    }
}

/// An index and the prefix filter of its searchers.
#[doc(hidden)]
pub struct CorpusIndex<I>(I, PrefixFilter);

impl CorpusIndex<MemoryIndex> {
    pub fn build_in_memory_parallel<C: CorpusSource + ?Sized>(c: &C, p: SearchParams) -> R<Self> {
        Ok(Self(MemoryIndex::build_parallel(c, p.config)?, p.filter))
    }
}

impl CorpusIndex<DiskIndex> {
    pub fn build_on_disk<C: CorpusSource + ?Sized>(c: &C, p: SearchParams, d: &Path) -> R<Self> {
        Ok(Self(build_and_write(c, p.config, d, true)?, p.filter))
    }

    pub fn open_with(d: &Path, f: PrefixFilter, c: CacheConfig, io: ReadOptions) -> R<Self> {
        Ok(Self(
            DiskIndex::open_with_io(&resolve_index_dir(d), c, io)?,
            f,
        ))
    }
}

impl<I: IndexAccess> CorpusIndex<I> {
    pub fn index(&self) -> &I {
        &self.0
    }

    pub fn searcher(&self) -> R<NearDupSearcher<'_, I>> {
        NearDupSearcher::with_prefix_filter(&self.0, self.1)
    }

    /// Plans a new searcher on every call, as the ledger's cold rebuild asks.
    pub fn search(&self, query: &[TokenId], theta: f64) -> R<SearchOutcome> {
        self.searcher()?.search(query, theta)
    }
}

/// `ShardedSearcher::single` and the index's hash bank, built once.
#[doc(hidden)]
pub struct NearDupSearcher<'a, I>(ShardedSearcher<'a>, MinHasher, PhantomData<&'a I>);

impl<'a, I: IndexAccess> NearDupSearcher<'a, I> {
    pub fn with_prefix_filter(i: &'a I, f: PrefixFilter) -> R<Self> {
        let hasher = i.config().hasher();
        Ok(Self(ShardedSearcher::single(i, f)?, hasher, PhantomData))
    }

    pub fn search(&self, query: &[TokenId], theta: f64) -> R<SearchOutcome> {
        self.0.search(query, theta)
    }

    pub fn rank(&self, outcome: &SearchOutcome, limit: usize) -> Vec<RankedMatch> {
        self.0.rank(outcome, limit)
    }

    pub fn hasher(&self) -> &MinHasher {
        &self.1
    }
}

/// `ShardedSearcher::single`.
#[doc(hidden)]
pub struct BatchSearcher;

impl BatchSearcher {
    pub fn with_prefix_filter(i: &dyn IndexAccess, f: PrefixFilter) -> R<ShardedSearcher<'_>> {
        ShardedSearcher::single(i, f)
    }
}

/// A view's lane set plus the segments `ShardedSearcher::push_segment`
/// admits. The pinned view's text count is the end of its lanes, so the
/// `covered`, `k` and `t` arguments are ignored.
#[doc(hidden)]
pub struct OverlaySearcher<'a>(ShardedSearcher<'a>);

impl<'a> OverlaySearcher<'a> {
    pub fn new(disk: Option<ShardedSearcher<'a>>, _: u64, _: usize, _: u32) -> Self {
        Self(disk.expect("a lane set has at least one lane"))
    }

    pub fn push_segment(&mut self, segment: &'a MemSegment) -> R<()> {
        self.0.push_segment(segment);
        Ok(())
    }

    pub fn search(&self, query: &[TokenId], theta: f64) -> R<SearchOutcome> {
        self.0.search(query, theta)
    }
}

/// `ndss_index::build_sharded` with default build options.
#[doc(hidden)]
pub struct ShardedCorpusIndex;

impl ShardedCorpusIndex {
    pub fn build_sharded(c: &dyn CorpusSource, p: SearchParams, d: &Path, n: usize) -> R<()> {
        ndss_index::build_sharded(c, p.config, d, n, &Default::default())?;
        Ok(())
    }
}

/// `Store` with a one-segment `publish`.
#[doc(hidden)]
pub struct GenerationStore(Store);

impl GenerationStore {
    pub fn open(root: &Path) -> Result<Self, IndexError> {
        Store::open(root).map(Self)
    }

    pub fn allocate(&self) -> Result<PathBuf, IndexError> {
        Ok(self.0.root().join(self.0.allocate()?))
    }

    pub fn publish(&self, segment: &str, keep: usize) -> Result<(), IndexError> {
        self.0.publish(&[segment], keep).map(drop)
    }
}

/// A store's manifest as loaded at `open`; a shard is a segment.
#[doc(hidden)]
pub struct ShardedStore(PathBuf, Manifest);

impl ShardedStore {
    pub fn is_sharded(root: &Path) -> bool {
        root.join(ndss_index::store::MANIFEST_FILE).is_file()
    }

    pub fn open(root: &Path) -> Result<Self, IndexError> {
        Ok(Self(
            root.to_path_buf(),
            Manifest::load(root)?.unwrap_or_default(),
        ))
    }

    pub fn num_shards(&self) -> usize {
        self.1.segments.len()
    }

    pub fn serving_dir(&self, i: usize) -> Result<PathBuf, IndexError> {
        Ok(self.0.join(&self.1.segments[i].dir))
    }
}
