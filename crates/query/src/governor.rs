//! Per-query resource governance: budgets, deadlines, and cancellation.
//!
//! Serving workloads (the paper's §5 memorization evaluation is thousands
//! of independent queries against one disk index) cannot let a single
//! pathological query — huge `k`, low `θ`, hot-token posting lists — run
//! unbounded. A [`QueryBudget`] caps wall time, index IO, candidate work,
//! and result size; the searcher checks it *cooperatively* at stage
//! boundaries and inside its per-list / per-candidate loops, so an
//! exhausted budget surfaces as
//! [`crate::QueryError::BudgetExceeded`] carrying a **sound partial
//! outcome**: every match reported was fully verified before the budget
//! ran out (candidate texts are processed one at a time, in ascending text
//! order, and a text's match is only appended after its final collision
//! count), so the partial result is always a subset of the full result.
//!
//! A query has one tracker whatever holds its postings: the lanes of a
//! [`crate::ShardedSearcher`] share it in lane order, so its caps are the
//! caller's caps over the whole query, and a lane may overshoot one by the
//! text in flight, as a single index may.
//!
//! The same checkpoints observe a [`CancelToken`], which is how
//! [`crate::ShardedSearcher::search_all`] makes a failed batch stop its
//! in-flight queries promptly instead of letting them run to completion.
//!
//! [`crate::ShardedSearcher::search`] is `search_governed` with an
//! unlimited budget, which costs one branch per checkpoint: limits are
//! pre-resolved into a `limited` flag at query start.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The resource dimension that ran out, reported in
/// [`crate::QueryError::BudgetExceeded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The per-query time limit or absolute deadline passed.
    Deadline,
    /// More index bytes were read than `max_io_bytes`.
    IoBytes,
    /// More candidate texts reached verification than `max_candidates`.
    Candidates,
    /// More texts matched than `max_result_matches`.
    ResultMatches,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resource::Deadline => write!(f, "deadline"),
            Resource::IoBytes => write!(f, "io-bytes"),
            Resource::Candidates => write!(f, "candidates"),
            Resource::ResultMatches => write!(f, "result-matches"),
        }
    }
}

/// Resource limits for one query. All limits default to "unbounded"; set
/// only the dimensions you care about:
///
/// ```
/// use std::time::Duration;
/// use ndss_query::QueryBudget;
///
/// let budget = QueryBudget::unlimited()
///     .time_limit(Duration::from_millis(50))
///     .max_io_bytes(8 << 20);
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Wall-time allowance measured from the start of the query.
    pub time_limit: Option<Duration>,
    /// Absolute deadline (e.g. the daemon's request deadline, measured
    /// from receipt). When both this and `time_limit` are set, the earlier
    /// instant wins.
    pub deadline: Option<Instant>,
    /// Maximum bytes read from the index on behalf of this query.
    pub max_io_bytes: Option<u64>,
    /// Maximum candidate texts admitted to verification (the paper's
    /// line 6 check). A sound cap: processing stops *between* texts, so
    /// every reported match is complete.
    pub max_candidates: Option<u64>,
    /// Maximum matched texts accumulated before stopping.
    pub max_result_matches: Option<usize>,
}

impl QueryBudget {
    /// A budget with no limits: the governed path reduces to a single
    /// branch per checkpoint.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps wall time, measured from when the searcher starts the query.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Sets an absolute deadline (combines with `time_limit`: earlier
    /// instant wins).
    pub fn deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps bytes read from the index.
    pub fn max_io_bytes(mut self, bytes: u64) -> Self {
        self.max_io_bytes = Some(bytes);
        self
    }

    /// Caps candidate texts admitted to verification.
    pub fn max_candidates(mut self, texts: u64) -> Self {
        self.max_candidates = Some(texts);
        self
    }

    /// Caps matched texts accumulated.
    pub fn max_result_matches(mut self, matches: usize) -> Self {
        self.max_result_matches = Some(matches);
        self
    }

    /// Whether every dimension is unbounded.
    pub fn is_unlimited(&self) -> bool {
        self.time_limit.is_none()
            && self.deadline.is_none()
            && self.max_io_bytes.is_none()
            && self.max_candidates.is_none()
            && self.max_result_matches.is_none()
    }
}

/// A shared cancellation flag observed at every governor checkpoint.
///
/// Cancellation is cooperative and prompt-but-not-immediate: a query
/// observes the token the next time it reaches a checkpoint (between
/// stages, between posting lists, between candidate texts) and returns
/// [`crate::QueryError::Cancelled`] without issuing further IO.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the flag; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`Self::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a checkpoint decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Keep going.
    Proceed,
    /// The cancel token tripped.
    Cancelled,
    /// A budget dimension ran out.
    Over(Resource),
}

/// Per-query budget state: limits resolved against the query's start time,
/// checked at every checkpoint. Constructed once per `search` call.
pub(crate) struct BudgetTracker<'c> {
    /// Earliest of `start + time_limit` and the absolute deadline.
    deadline: Option<Instant>,
    max_io_bytes: u64,
    max_candidates: u64,
    max_result_matches: u64,
    cancel: Option<&'c CancelToken>,
    /// Pre-resolved "any limit set": the unlimited fast path is this one
    /// branch (plus the cancel-token load when a token is attached).
    limited: bool,
    /// Checkpoints left until the next deadline clock read. Reading the
    /// monotonic clock dominates the cost of an enforced checkpoint, so it
    /// is strided: the first checkpoint always reads, then every
    /// [`CLOCK_STRIDE`]th. Deadline detection coarsens by at most
    /// `CLOCK_STRIDE - 1` checkpoints; the byte/candidate/match dimensions
    /// are still compared on every call.
    until_clock_read: std::cell::Cell<u32>,
}

/// Checkpoints between deadline clock reads on the enforced path.
const CLOCK_STRIDE: u32 = 16;

impl<'c> BudgetTracker<'c> {
    pub(crate) fn start(
        budget: &QueryBudget,
        cancel: Option<&'c CancelToken>,
        start: Instant,
    ) -> Self {
        let rel = budget.time_limit.map(|l| start + l);
        let deadline = match (rel, budget.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Self {
            deadline,
            max_io_bytes: budget.max_io_bytes.unwrap_or(u64::MAX),
            max_candidates: budget.max_candidates.unwrap_or(u64::MAX),
            max_result_matches: budget
                .max_result_matches
                .map(|m| m as u64)
                .unwrap_or(u64::MAX),
            cancel,
            limited: !budget.is_unlimited(),
            until_clock_read: std::cell::Cell::new(0),
        }
    }

    /// One cooperative checkpoint. `io_bytes` / `candidates` / `matches`
    /// are the query's running totals; the closure-free signature keeps
    /// the call site a plain branch when unlimited.
    #[inline]
    pub(crate) fn check(&self, io_bytes: u64, candidates: u64, matches: u64) -> Verdict {
        if let Some(c) = self.cancel {
            if c.is_cancelled() {
                return Verdict::Cancelled;
            }
        }
        if !self.limited {
            return Verdict::Proceed;
        }
        if let Some(d) = self.deadline {
            let left = self.until_clock_read.get();
            if left == 0 {
                self.until_clock_read.set(CLOCK_STRIDE - 1);
                if Instant::now() >= d {
                    return Verdict::Over(Resource::Deadline);
                }
            } else {
                self.until_clock_read.set(left - 1);
            }
        }
        if io_bytes > self.max_io_bytes {
            return Verdict::Over(Resource::IoBytes);
        }
        if candidates > self.max_candidates {
            return Verdict::Over(Resource::Candidates);
        }
        if matches > self.max_result_matches {
            return Verdict::Over(Resource::ResultMatches);
        }
        Verdict::Proceed
    }

    /// Whether any budget dimension is actually bounded (used to skip
    /// io-snapshot reads on the unlimited path).
    #[inline]
    pub(crate) fn is_limited(&self) -> bool {
        self.limited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_proceeds() {
        let budget = QueryBudget::unlimited();
        assert!(budget.is_unlimited());
        let tracker = BudgetTracker::start(&budget, None, Instant::now());
        assert!(!tracker.is_limited());
        assert_eq!(
            tracker.check(u64::MAX, u64::MAX, u64::MAX),
            Verdict::Proceed
        );
    }

    #[test]
    fn each_dimension_trips_independently() {
        let now = Instant::now();
        let io = BudgetTracker::start(&QueryBudget::unlimited().max_io_bytes(100), None, now);
        assert_eq!(io.check(100, 0, 0), Verdict::Proceed);
        assert_eq!(io.check(101, 0, 0), Verdict::Over(Resource::IoBytes));

        let cand = BudgetTracker::start(&QueryBudget::unlimited().max_candidates(3), None, now);
        assert_eq!(cand.check(0, 3, 0), Verdict::Proceed);
        assert_eq!(cand.check(0, 4, 0), Verdict::Over(Resource::Candidates));

        let m = BudgetTracker::start(&QueryBudget::unlimited().max_result_matches(1), None, now);
        assert_eq!(m.check(0, 0, 1), Verdict::Proceed);
        assert_eq!(m.check(0, 0, 2), Verdict::Over(Resource::ResultMatches));
    }

    #[test]
    fn deadline_uses_earliest_of_relative_and_absolute() {
        let start = Instant::now();
        let far = start + Duration::from_secs(3600);
        // Relative limit of zero has already passed even though the
        // absolute deadline is far away.
        let b = QueryBudget::unlimited()
            .time_limit(Duration::ZERO)
            .deadline_at(far);
        let tracker = BudgetTracker::start(&b, None, start);
        assert_eq!(tracker.check(0, 0, 0), Verdict::Over(Resource::Deadline));

        // And the other way round: an already-passed absolute deadline
        // beats a generous relative limit.
        let b = QueryBudget::unlimited()
            .time_limit(Duration::from_secs(3600))
            .deadline_at(start);
        let tracker = BudgetTracker::start(&b, None, start);
        assert_eq!(tracker.check(0, 0, 0), Verdict::Over(Resource::Deadline));
    }

    #[test]
    fn cancel_token_observed_even_when_unlimited() {
        let token = CancelToken::new();
        let budget = QueryBudget::unlimited();
        let tracker = BudgetTracker::start(&budget, Some(&token), Instant::now());
        assert_eq!(tracker.check(0, 0, 0), Verdict::Proceed);
        token.clone().cancel();
        assert_eq!(tracker.check(0, 0, 0), Verdict::Cancelled);
    }
}
