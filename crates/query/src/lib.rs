//! Query processing for near-duplicate sequence search (paper §3.5).
//!
//! Given a query sequence `Q` and similarity threshold `θ`, the processor
//! finds every sequence `T[i..=j]` (length ≥ t) in the indexed corpus whose
//! min-hash sketch collides with `Q`'s on at least `β = ⌈kθ⌉` of the `k`
//! hash functions — the paper's Definition 2, solved *exactly* (sound and
//! complete, Theorem 2). The pipeline:
//!
//! 1. sketch `Q` and look up the `k` inverted lists (`ndss-index`);
//! 2. **prefix filtering** (Algorithm 3): read only the short lists, find
//!    texts that could still reach `β` collisions, then probe the long lists
//!    through zone maps for those candidate texts only;
//! 3. **collision counting** (Algorithm 4 / [`collision::collision_sweep`]):
//!    per candidate text, split each compact window into its left interval
//!    `[l, c]` and right interval `[c, r]` and intersect them with two
//!    nested interval sweeps (Algorithm 5, [`interval::interval_scan`] in
//!    isolation), yielding disjoint *rectangles* `([x, x'], [y, y'])` of
//!    sequences that all share the same collision count;
//! 4. post-process: impose the length threshold on materialized sequences,
//!    count them arithmetically, merge overlapping sequences into disjoint
//!    spans (the paper's Remark), and optionally verify true Jaccard
//!    similarity against the corpus.
//!
//! [`bruteforce`] holds the quadratic reference implementations of both the
//! exact (Definition 1) and approximate (Definition 2) problems; property
//! and integration tests assert the indexed search equals the Definition 2
//! oracle exactly.
//!
//! # Example
//!
//! ```
//! use ndss_corpus::InMemoryCorpus;
//! use ndss_index::{IndexConfig, MemoryIndex};
//! use ndss_query::{PrefixFilter, ShardedSearcher};
//!
//! // Text 1 repeats a 30-token span of text 0.
//! let shared: Vec<u32> = (1000..1030).collect();
//! let mut t0: Vec<u32> = (0..50).collect();
//! t0.extend(&shared);
//! let mut t1: Vec<u32> = (500..540).collect();
//! t1.extend(&shared);
//! let corpus = InMemoryCorpus::from_texts(vec![t0, t1]);
//!
//! let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 20, 7)).unwrap();
//! let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
//! let outcome = searcher.search(&shared, 0.9).unwrap();
//! let texts: Vec<u32> = outcome.matches.iter().map(|m| m.text).collect();
//! assert_eq!(texts, vec![0, 1]);
//! ```

pub mod breaker;
pub mod bruteforce;
pub mod collision;
pub mod document;
pub mod governor;
pub mod interval;
mod metrics;
pub mod planner;
pub mod search;
pub mod serving;
pub mod sharded;

pub use breaker::{
    classify, Admission, BreakerConfig, BreakerSnapshot, BreakerState, DegradedShard, FaultKind,
    ShardHealth,
};
pub use collision::{
    collision_count, collision_count_fn_into, collision_count_into, collision_sweep,
    CollisionScratch, Rectangle,
};
pub use document::{DocumentMatch, DocumentScan};
pub use governor::{CancelToken, QueryBudget, Resource};
pub use interval::{interval_scan, Interval, ScanHit};
pub use planner::{plan_query, QueryPlan};
pub use search::{rank, PrefixFilter, QueryStats, RankedMatch, SearchOutcome, TextMatch};
pub use serving::{ServingIndex, ServingOptions};
pub use sharded::{FaultPolicy, ShardedIndex, ShardedSearcher};

/// Errors raised during query processing.
#[derive(Debug)]
pub enum QueryError {
    /// The query sequence is empty.
    EmptyQuery,
    /// The similarity threshold must lie in (0, 1].
    BadThreshold(f64),
    /// Verified search would enumerate more candidate sequences than the
    /// caller's cap.
    TooManyCandidates {
        /// Sequences the approximate search produced.
        found: u64,
        /// The caller-provided cap.
        cap: usize,
    },
    /// A resource budget ran out mid-query. `partial` is a **sound**
    /// partial outcome: every match in it was fully verified before the
    /// budget tripped (a subset of what the un-budgeted query would
    /// return), with [`SearchOutcome::complete`] set to `false`.
    BudgetExceeded {
        /// Which budget dimension ran out.
        resource: governor::Resource,
        /// Verified matches found so far, flagged incomplete.
        partial: Box<SearchOutcome>,
    },
    /// The count stage cannot index this much input: a query's short lists
    /// together, or the windows of one text, exceed the width of its
    /// counters and sort keys. Far beyond anything that fits in memory.
    TooManyPostings {
        /// Postings (windows) the stage was handed.
        postings: usize,
        /// The most it accepts.
        limit: usize,
    },
    /// The query was abandoned at a governor checkpoint because its batch
    /// failed fast (see [`ShardedSearcher::search_all`]).
    Cancelled,
    /// Under [`FaultPolicy::Isolate`], no lane of the fan-out could answer:
    /// every disk shard is quarantined (or faulted during this very query)
    /// and no memtable segment is overlaid, so there is no healthy subset
    /// to build even a degraded answer from. Carries the first degraded
    /// shard's classified fault as the representative cause.
    AllShardsQuarantined {
        /// Total lanes in the fan-out, all unavailable.
        shards: usize,
        /// Classification of the representative fault.
        kind: FaultKind,
        /// Human-readable cause of the representative fault.
        reason: String,
    },
    /// Error from the index layer.
    Index(ndss_index::IndexError),
    /// Error from the corpus layer (verification mode).
    Corpus(ndss_corpus::CorpusError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::EmptyQuery => write!(f, "query sequence is empty"),
            QueryError::BadThreshold(theta) => {
                write!(f, "similarity threshold {theta} outside (0, 1]")
            }
            QueryError::TooManyCandidates { found, cap } => write!(
                f,
                "verification would enumerate {found} sequences (cap {cap}); \
                 raise the cap or the threshold"
            ),
            QueryError::BudgetExceeded { resource, partial } => write!(
                f,
                "query budget exceeded ({resource}); {} verified match(es) found before stopping",
                partial.matches.len()
            ),
            QueryError::TooManyPostings { postings, limit } => {
                write!(f, "count stage handed {postings} postings (limit {limit})")
            }
            QueryError::Cancelled => write!(f, "query cancelled by its batch"),
            QueryError::AllShardsQuarantined {
                shards,
                kind,
                reason,
            } => write!(
                f,
                "all {shards} shard(s) quarantined ({}): {reason}",
                kind.label()
            ),
            QueryError::Index(e) => e.fmt(f),
            QueryError::Corpus(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Index(e) => Some(e),
            QueryError::Corpus(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ndss_index::IndexError> for QueryError {
    fn from(e: ndss_index::IndexError) -> Self {
        QueryError::Index(e)
    }
}

impl From<ndss_corpus::CorpusError> for QueryError {
    fn from(e: ndss_corpus::CorpusError) -> Self {
        QueryError::Corpus(e)
    }
}
