//! Parallel batch query execution with failure isolation and load
//! shedding.
//!
//! Memorization evaluation is a *throughput* workload: thousands of model
//! generations are checked against the training corpus, and each query is
//! independent. [`BatchSearcher`] fans a query set out over a thread pool
//! and returns outcomes **in input order**, each with per-query
//! [`crate::QueryStats`] attributed through that query's own IO accumulator.
//!
//! This only became safe/fast when the index layer dropped its `Mutex<File>`
//! readers: a [`ndss_index::DiskIndex`] is `Sync` with positioned reads, so
//! N threads issue N concurrent preads into the same files with no lock
//! convoy, and the sharded hot caches are shared across all queries in the
//! batch.
//!
//! Batches survive individual failures: a [`FailurePolicy`] decides whether
//! one query's budget exhaustion or IO error poisons the batch
//! ([`FailurePolicy::FailFast`]) or stays its own per-query `Err`
//! ([`FailurePolicy::Isolate`]); an admission cap sheds excess queries up
//! front ([`crate::QueryError::Overloaded`]); and a batch-wide deadline
//! bounds the whole run — queries not started by then are shed, queries in
//! flight stop at their next governor checkpoint with a sound partial
//! result.

use std::time::{Duration, Instant};

use ndss_hash::TokenId;
use ndss_index::IndexAccess;

use crate::governor::{CancelToken, QueryBudget};
use crate::search::{NearDupSearcher, PrefixFilter, SearchOutcome};
use crate::QueryError;

/// Why the batch engine shed a query before starting it, reported in
/// [`QueryError::Overloaded`]. An admission-cap shed means the batch was
/// over capacity (add workers, shrink batches); a deadline shed means the
/// latency budget ran out first (raise the deadline, speed up queries) —
/// conflating them used to misreport deadline sheds as cap sheds with a
/// fabricated cap equal to the batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The query's position was at or beyond the batch's admission cap.
    AdmissionCap {
        /// The admission cap in force.
        cap: usize,
    },
    /// The batch-wide deadline had already passed when the query came up
    /// for execution.
    BatchDeadline,
}

/// How a batch reacts to one query failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Abort the whole batch on the first failure: workers stop picking up
    /// new queries and in-flight queries abandon work at their next
    /// governor checkpoint. `search_all` always runs this way.
    #[default]
    FailFast,
    /// Isolate failures: every query runs to its own `Ok`/`Err`, so one
    /// poisoned query (bad input, exhausted budget, failed IO) never
    /// discards the rest of the batch's work.
    Isolate,
}

/// What the batch driver runs per query: the query, its budget, and the
/// batch's abort token.
pub(crate) type QueryFn<'a> =
    dyn Fn(&[TokenId], &QueryBudget, &CancelToken) -> Result<SearchOutcome, QueryError> + Sync + 'a;

/// Batch-level governance, enforced around every query of a batch by the
/// one driver that [`BatchSearcher`] and
/// [`crate::ShardedSearcher::search_all_governed`] share: which failures
/// abort the batch, how many queries are admitted, how long the batch may
/// run, and the budget each query gets. The default governs nothing.
#[derive(Debug, Clone, Default)]
pub struct BatchGovernor {
    policy: FailurePolicy,
    admission_cap: Option<usize>,
    batch_deadline: Option<Duration>,
    budget: QueryBudget,
}

impl BatchGovernor {
    /// Sets how a governed batch reacts to per-query failures (default
    /// [`FailurePolicy::FailFast`]).
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Admission control: at most `cap` queries per batch are admitted;
    /// the rest are shed immediately with [`QueryError::Overloaded`]
    /// (counted in `query.shed`) without consuming index IO.
    pub fn admission_cap(mut self, cap: usize) -> Self {
        self.admission_cap = Some(cap);
        self
    }

    /// A wall-clock deadline for the whole batch, measured from the start
    /// of the run. Queries not started by the deadline are shed
    /// ([`QueryError::Overloaded`]); queries in flight observe it as their
    /// own deadline and stop with a sound partial result
    /// ([`QueryError::BudgetExceeded`]).
    pub fn batch_deadline(mut self, deadline: Duration) -> Self {
        self.batch_deadline = Some(deadline);
        self
    }

    /// A per-query resource budget applied to every query in the batch
    /// (combined with the batch deadline, whichever is earlier).
    pub fn budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The batch driver: runs `search` once per query on `threads` workers
    /// and returns one `Result` per query in input order. `search` gets
    /// the query, its budget (the per-query budget capped by the batch
    /// deadline) and the batch's abort token, which a fail-fast batch
    /// cancels on the first failure so in-flight queries stop at their
    /// next governor checkpoint.
    pub(crate) fn run(
        &self,
        threads: usize,
        queries: &[Vec<TokenId>],
        search: &QueryFn<'_>,
    ) -> Vec<Result<SearchOutcome, QueryError>> {
        let _span = ndss_obs::span("query.batch");
        let reg = ndss_obs::Registry::global();
        let queue_wait = reg.histogram(
            "query.batch.queue_wait.seconds",
            "Delay between batch start and each query's pickup by a worker",
            ndss_obs::Unit::Seconds,
        );
        let shed = reg.counter(
            "query.shed",
            "Queries shed by batch admission control or an expired batch deadline",
        );
        let start = Instant::now();
        let deadline = self.batch_deadline.map(|d| start + d);
        let budget = match deadline {
            Some(d) => self.budget.clone().deadline_at(d),
            None => self.budget.clone(),
        };
        let cap = self.admission_cap.unwrap_or(usize::MAX);
        let abort = CancelToken::new();

        let results = ndss_parallel::map(queries, threads, |i, query| {
            // Pickup delay: how long this query sat in the work queue behind
            // earlier queries (p50/p95/p99 come from the histogram).
            queue_wait.record_duration(start.elapsed());
            // Load shedding, before any index work: over the admission cap,
            // past the batch deadline, or the batch already failed fast.
            let reason = if i >= cap {
                Some(ShedReason::AdmissionCap { cap })
            } else if deadline.is_some_and(|d| Instant::now() >= d) {
                Some(ShedReason::BatchDeadline)
            } else {
                None
            };
            if let Some(reason) = reason {
                shed.inc(1);
                return Err(QueryError::Overloaded {
                    position: i,
                    reason,
                });
            }
            if abort.is_cancelled() {
                return Err(QueryError::Cancelled);
            }
            let result = search(query, &budget, &abort);
            if result.is_err() && self.policy == FailurePolicy::FailFast {
                abort.cancel();
            }
            result
        });

        // Utilization: total per-query busy time over thread-seconds of
        // wall time. 100% = every worker searching the whole batch.
        let wall = start.elapsed();
        if !results.is_empty() && !wall.is_zero() {
            let busy: Duration = results
                .iter()
                .filter_map(|r| r.as_ref().ok().map(|o| o.stats.total))
                .sum();
            let pct = 100.0 * busy.as_secs_f64() / (threads as f64 * wall.as_secs_f64());
            reg.gauge(
                "query.batch.utilization.percent",
                "Worker busy time over thread-seconds in the last batch (0-100)",
            )
            .set(pct.round() as i64);
        }
        results
    }

    /// [`Self::run`] under [`FailurePolicy::FailFast`], collapsed to all
    /// outcomes or the first error **in input order** among queries that
    /// failed on their own (not ones cancelled by the abort).
    ///
    /// Fail-fast is cooperative, not instantaneous: when any query fails,
    /// the shared abort token stops workers from picking up further
    /// queries, and queries already in flight abandon work at their next
    /// governor checkpoint (between stages, posting lists, and candidate
    /// texts) — so a failed batch stops issuing new IO promptly. Queries
    /// that completed before the failure was observed have their results
    /// discarded; there is no rollback, only early termination.
    pub(crate) fn run_fail_fast(
        &self,
        threads: usize,
        queries: &[Vec<TokenId>],
        search: &QueryFn<'_>,
    ) -> Result<Vec<SearchOutcome>, QueryError> {
        let per_query = self
            .clone()
            .failure_policy(FailurePolicy::FailFast)
            .run(threads, queries, search);
        let mut outcomes = Vec::with_capacity(per_query.len());
        let mut cancelled = false;
        for result in per_query {
            match result {
                Ok(outcome) => outcomes.push(outcome),
                // A cancelled query is collateral of the real failure;
                // keep scanning for the error that tripped the abort.
                Err(QueryError::Cancelled) => cancelled = true,
                Err(e) => return Err(e),
            }
        }
        if cancelled {
            // Defensive: cancellation implies some query errored first.
            return Err(QueryError::Cancelled);
        }
        Ok(outcomes)
    }
}

/// Runs many queries against one index across a thread pool.
///
/// Results are deterministic: `search_all(queries, θ)[i]` equals
/// `NearDupSearcher::search(queries[i], θ)`, whatever the thread count.
/// Stats are exact per query, but timing fields vary run to run, and with
/// a shared hot-list cache `io_bytes`/hit counts depend on which query
/// touched a list first (disable the cache for schedule-independent IO
/// attribution).
pub struct BatchSearcher<'a, I: IndexAccess + ?Sized> {
    searcher: NearDupSearcher<'a, I>,
    threads: usize,
    governor: BatchGovernor,
}

impl<'a, I: IndexAccess + ?Sized> BatchSearcher<'a, I> {
    /// A batch searcher with prefix filtering disabled and one thread per
    /// available core.
    pub fn new(index: &'a I) -> Result<Self, QueryError> {
        Self::with_prefix_filter(index, PrefixFilter::Disabled)
    }

    /// A batch searcher with the given prefix-filtering policy.
    pub fn with_prefix_filter(index: &'a I, filter: PrefixFilter) -> Result<Self, QueryError> {
        Ok(Self {
            searcher: NearDupSearcher::with_prefix_filter(index, filter)?,
            threads: ndss_parallel::default_threads(),
            governor: BatchGovernor::default(),
        })
    }

    /// Pins the worker-thread count (`0` or `1` runs serially inline).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the batch-level governance (failure policy, admission cap,
    /// batch deadline, per-query budget); the default governs nothing.
    pub fn governor(mut self, governor: BatchGovernor) -> Self {
        self.governor = governor;
        self
    }

    /// Runs every query at threshold `theta`; `results[i]` corresponds to
    /// `queries[i]`. Fails fast with the first error in input order — see
    /// [`FailurePolicy::FailFast`].
    pub fn search_all(
        &self,
        queries: &[Vec<TokenId>],
        theta: f64,
    ) -> Result<Vec<SearchOutcome>, QueryError> {
        self.governor
            .run_fail_fast(self.threads, queries, &|query, budget, abort| {
                self.searcher
                    .search_cancellable(query, theta, budget, abort)
            })
    }

    /// Runs every query under the configured [`BatchGovernor`], returning
    /// one `Result` per query in input order. Under
    /// [`FailurePolicy::Isolate`] a poisoned query is exactly one `Err` —
    /// every other query's outcome is bit-identical to a solo run.
    pub fn search_all_governed(
        &self,
        queries: &[Vec<TokenId>],
        theta: f64,
    ) -> Vec<Result<SearchOutcome, QueryError>> {
        self.governor
            .run(self.threads, queries, &|query, budget, abort| {
                self.searcher
                    .search_cancellable(query, theta, budget, abort)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndss_corpus::{CorpusSource, SyntheticCorpusBuilder};
    use ndss_index::{IndexConfig, MemoryIndex};

    fn workload() -> (ndss_corpus::InMemoryCorpus, Vec<Vec<u32>>) {
        let (corpus, planted) = SyntheticCorpusBuilder::new(71)
            .num_texts(50)
            .duplicates_per_text(1.0)
            .mutation_rate(0.03)
            .build();
        let queries: Vec<Vec<u32>> = planted
            .iter()
            .take(12)
            .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
            .collect();
        (corpus, queries)
    }

    #[test]
    fn batch_matches_serial_in_input_order() {
        let (corpus, queries) = workload();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 9)).unwrap();

        let serial = NearDupSearcher::new(&index).unwrap();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| serial.search(q, 0.8).unwrap().enumerate_all())
            .collect();

        for threads in [1, 4, 8] {
            let batch = BatchSearcher::new(&index).unwrap().threads(threads);
            let got = batch.search_all(&queries, 0.8).unwrap();
            assert_eq!(got.len(), queries.len());
            for (i, outcome) in got.iter().enumerate() {
                assert_eq!(
                    outcome.enumerate_all(),
                    expected[i],
                    "query {i} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_batch_and_bad_query_propagate() {
        let (corpus, _) = SyntheticCorpusBuilder::new(72).num_texts(5).build();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(4, 25, 1)).unwrap();
        let batch = BatchSearcher::new(&index).unwrap().threads(4);
        assert!(batch.search_all(&[], 0.8).unwrap().is_empty());
        let queries = vec![vec![1u32, 2, 3], Vec::new()];
        assert!(matches!(
            batch.search_all(&queries, 0.8),
            Err(QueryError::EmptyQuery)
        ));
    }

    /// Isolate mode: the poisoned query is exactly one `Err` at its own
    /// index; every other outcome is bit-identical to a solo run.
    #[test]
    fn isolate_mode_confines_a_poisoned_query() {
        let (corpus, mut queries) = workload();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 9)).unwrap();
        let serial = NearDupSearcher::new(&index).unwrap();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| serial.search(q, 0.8).unwrap().enumerate_all())
            .collect();
        let poisoned = 3;
        queries[poisoned] = Vec::new(); // EmptyQuery on arrival

        for threads in [1, 4] {
            let batch = BatchSearcher::new(&index)
                .unwrap()
                .threads(threads)
                .governor(BatchGovernor::default().failure_policy(FailurePolicy::Isolate));
            let results = batch.search_all_governed(&queries, 0.8);
            assert_eq!(results.len(), queries.len());
            for (i, r) in results.iter().enumerate() {
                if i == poisoned {
                    assert!(matches!(r, Err(QueryError::EmptyQuery)), "index {i}");
                } else {
                    assert_eq!(
                        r.as_ref().unwrap().enumerate_all(),
                        expected[i],
                        "index {i}"
                    );
                }
            }
        }
    }

    /// Admission control sheds exactly the queries beyond the cap, and the
    /// admitted prefix is unchanged.
    #[test]
    fn admission_cap_sheds_the_tail() {
        let (corpus, queries) = workload();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 9)).unwrap();
        let cap = 5;
        let batch = BatchSearcher::new(&index).unwrap().threads(4).governor(
            BatchGovernor::default()
                .failure_policy(FailurePolicy::Isolate)
                .admission_cap(cap),
        );
        let results = batch.search_all_governed(&queries, 0.8);
        for (i, r) in results.iter().enumerate() {
            if i < cap {
                assert!(r.is_ok(), "admitted query {i} failed: {r:?}");
            } else {
                assert!(
                    matches!(r, Err(QueryError::Overloaded { position, reason })
                        if *position == i && *reason == (ShedReason::AdmissionCap { cap })),
                    "query {i} not shed: {r:?}"
                );
            }
        }
    }

    /// A zero batch deadline sheds every query before any index work.
    #[test]
    fn expired_batch_deadline_sheds_everything() {
        let (corpus, queries) = workload();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 9)).unwrap();
        let batch = BatchSearcher::new(&index).unwrap().threads(4).governor(
            BatchGovernor::default()
                .failure_policy(FailurePolicy::Isolate)
                .batch_deadline(Duration::ZERO),
        );
        let results = batch.search_all_governed(&queries, 0.8);
        assert!(results.iter().all(|r| matches!(
            r,
            Err(QueryError::Overloaded {
                reason: ShedReason::BatchDeadline,
                ..
            })
        )));
    }
}
