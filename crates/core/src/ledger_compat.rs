//! Old names the benchmark ledger (`ledger/src/adapter.rs`) still calls:
//! forwarders of at most five lines onto the lane set ([`ShardedSearcher`]),
//! the code behind them deleted. Nothing else may name them. With three
//! `#[doc(hidden)]` inherent methods that cannot live here and have no
//! caller outside the ledger — `ServingIndex::open_with_cache`,
//! `NearDupSearcher::rank` and `ShardedSearcher::rank` — this is the to-do
//! list of ROADMAP item 1(b): once `adapter.rs` stops calling them, delete
//! this file, its re-exports in `lib.rs`, and those three methods.

use std::path::Path;

use ndss_corpus::CorpusSource;
use ndss_hash::TokenId;
use ndss_index::{IndexAccess, MemSegment};
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
        self.0.push_segment(segment)
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
