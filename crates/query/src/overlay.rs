//! Overlay queries: RAM segments merged over the disk index.
//!
//! The ingest path ([`ndss_index::ingest`]) holds acked-but-unpublished
//! texts in in-memory [`MemSegment`]s. A query against such a store must
//! see *both* worlds — the published generations on disk and the memtable
//! — and must see them exactly once each: bit-identical to what a full
//! rebuild containing the same texts would return.
//!
//! [`OverlaySearcher`] does this with the one scatter–merge
//! ([`crate::sharded`]): the disk view's lanes, then one memory lane per
//! segment in ascending base order — each searched independently, matches
//! re-based to global text ids, lanes appended in global text order, all
//! under one split budget. What is left here is the rule correctness under
//! concurrent compaction hangs on:
//!
//! > a segment is overlaid **iff** `segment.base >= covered`, where
//! > `covered` is the text count of the *pinned* disk snapshot.
//!
//! Segments publish whole, so the pinned snapshot's text count is either
//! `<= base` (segment not yet published: overlay it) or `>= base + len`
//! (published: the disk lanes already serve those texts) — the
//! segment-granular filter is exact under any interleaving of publish,
//! trim, and reload. [`OverlaySearcher::push_segment`] applies the rule.

use ndss_corpus::TextId;
use ndss_hash::TokenId;
use ndss_index::MemSegment;

use crate::governor::QueryBudget;
use crate::search::{PrefixFilter, RankedMatch, SearchOutcome};
use crate::sharded::ShardedSearcher;
use crate::QueryError;

/// A disk view's lane set plus the memtable segments the view does not
/// cover yet, in global text order. See the module docs for the exactness
/// rule.
pub struct OverlaySearcher<'a> {
    lanes: ShardedSearcher<'a>,
    /// Texts the disk lanes cover (the pinned snapshot's text count; 0
    /// with no disk view).
    covered: u64,
    /// End (exclusive) of the last overlaid lane — ascending-order guard.
    last_end: u64,
}

impl<'a> OverlaySearcher<'a> {
    /// An overlay over `disk` (pass `None` for a store with no published
    /// generation yet). `covered` must be the pinned disk snapshot's text
    /// count — not a re-read of `CURRENT`, which may have advanced past
    /// the snapshot. `k`/`t` are the index configuration's parameters
    /// (used to shape results when every lane is empty).
    pub fn new(disk: Option<ShardedSearcher<'a>>, covered: u64, k: usize, t: u32) -> Self {
        debug_assert!(
            disk.is_some() || covered == 0,
            "no disk lane covers no texts"
        );
        OverlaySearcher {
            lanes: disk.unwrap_or_else(|| ShardedSearcher::empty(k, t)),
            covered,
            last_end: covered,
        }
    }

    /// Overlays `segment`, skipping it when the disk lanes already cover
    /// its texts (the publish-before-trim crash/race window). Segments
    /// must be pushed in ascending, disjoint text order — callers iterate
    /// [`ndss_index::IngestIndex::segments`], which is ordered. A memory
    /// lane runs unfiltered: a `HashMap` index's length histogram is a
    /// full walk of its lists.
    pub fn push_segment(&mut self, segment: &'a MemSegment) -> Result<(), QueryError> {
        if segment.is_empty() {
            return Ok(());
        }
        if segment.base() < self.covered {
            // Already published into the pinned snapshot: the disk lanes
            // serve these texts. (Segments publish whole, so a partially
            // covered segment cannot exist.)
            return Ok(());
        }
        debug_assert!(
            segment.base() >= self.last_end,
            "segments must arrive in ascending, disjoint text order"
        );
        self.last_end = segment.base() + segment.len() as u64;
        self.lanes.push_lane(
            segment.base() as TextId,
            segment.index(),
            PrefixFilter::Disabled,
        )
    }

    /// Number of overlay lanes actually in play (excluded segments don't
    /// count).
    pub fn num_segments(&self) -> usize {
        self.lanes.num_memory_lanes()
    }

    /// Runs one query across disk + RAM. Equivalent to
    /// [`Self::search_governed`] with an unlimited budget.
    pub fn search(&self, query: &[TokenId], theta: f64) -> Result<SearchOutcome, QueryError> {
        self.lanes.search(query, theta)
    }

    /// [`Self::search`] under a budget, split across every lane that
    /// searches — disk and memory alike. A tripped lane stops the merge,
    /// so the partial carried in [`QueryError::BudgetExceeded`] is a sound
    /// global-text-order prefix.
    pub fn search_governed(
        &self,
        query: &[TokenId],
        theta: f64,
        budget: &QueryBudget,
    ) -> Result<SearchOutcome, QueryError> {
        self.lanes.search_governed(query, theta, budget)
    }

    /// Ranks an outcome's matches by best collision count.
    pub fn rank(&self, outcome: &SearchOutcome, limit: usize) -> Vec<RankedMatch> {
        self.lanes.rank(outcome, limit)
    }
}
