//! Old names the benchmark ledger (`ledger/src/adapter.rs`) still calls:
//! forwarders of at most five lines onto the lane set ([`ShardedSearcher`])
//! and the one store layout ([`Store`]), the code behind them deleted:
//! `BatchSearcher`, `OverlaySearcher` and `ShardedCorpusIndex` here and in
//! `lib.rs`'s root, `GenerationStore` and `ShardedStore` through
//! `lib.rs`'s `pub mod index`. Nothing else may name them. With three
//! `#[doc(hidden)]` inherent methods that cannot live here and have no
//! caller outside the ledger — `ServingIndex::open_with_cache`,
//! `NearDupSearcher::rank` and `ShardedSearcher::rank` — this is the to-do
//! list of ROADMAP item 1(b): once `adapter.rs` stops calling them, delete
//! this file, its re-exports in `lib.rs`, and those three methods.

use std::path::{Path, PathBuf};

use ndss_corpus::CorpusSource;
use ndss_hash::TokenId;
use ndss_index::{IndexAccess, IndexError, Manifest, MemSegment, Store};
use ndss_query::{PrefixFilter, QueryError, SearchOutcome, ShardedSearcher};

use crate::SearchParams;

type R<T> = Result<T, QueryError>;

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
