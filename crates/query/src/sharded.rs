//! The lane set and its one scatter–merge: every search over more than one
//! index — a sharded store, a disk view plus memtable segments, a batch, a
//! served request — runs the code in this file (DESIGN.md §4d).
//!
//! Algorithm 3 and CollisionCount decide every text on its own (Theorem 2
//! holds per text), so the answer over a corpus cut into contiguous
//! text-id ranges is the per-range answers, re-based and concatenated. A
//! **lane** is one such range: `(first global text id, text count, a
//! searcher over the one index holding those texts)` — a disk shard or a
//! memtable segment, behind `dyn` [`IndexAccess`].
//!
//! A [`ShardedIndex`] is the read-side view of a store: one opened
//! [`DiskIndex`] per shard plus each shard's `first_text` offset, pinned to
//! one view generation. A plain index directory or a generation store opens
//! as the same type with a single shard at offset 0.
//! [`ShardedIndex::searcher_with_filter`] derives the lane set;
//! [`crate::OverlaySearcher`] appends memory lanes to it.
//!
//! [`ShardedSearcher`] fans a query out across the lanes:
//!
//! * **Admission.** Under [`FaultPolicy::Isolate`] each disk lane asks its
//!   circuit breaker; a quarantined lane is skipped and its range labelled
//!   degraded. Memory lanes are always admitted and never feed a breaker.
//! * **Budget.** The lanes that search share one
//!   [`QueryBudget::split_across`]: every lane races the same deadline,
//!   IO/candidate/result caps are apportioned, so the fan-out's total spend
//!   never exceeds `max(cap, lanes)` whatever its mix of lanes.
//! * **Merge.** Offset each lane's match text ids by its base and
//!   concatenate in lane order, which *is* ascending global text order —
//!   bit-identical to a single index over the whole corpus. A lane that
//!   trips its budget contributes its sound partial and ends the merge: a
//!   text-order prefix of the full result. Only when no lane at all can
//!   answer is the query an error ([`QueryError::AllShardsQuarantined`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ndss_corpus::TextId;
use ndss_hash::minhash::collision_threshold;
use ndss_hash::TokenId;
use ndss_index::generation::{parse_generation_name, resolve_index_dir};
use ndss_index::{DiskIndex, IndexAccess, IndexConfig, ShardedStore};

use crate::breaker::{classify, Admission, BreakerConfig, DegradedShard, ShardHealth};
use crate::governor::{CancelToken, QueryBudget};
use crate::search::{NearDupSearcher, PrefixFilter, RankedMatch, SearchOutcome};
use crate::serving::ServingOptions;
use crate::{QueryError, Resource};

/// What a scatter-gather does when one shard fails at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Propagate the first shard error as the query's error (the PR 8
    /// behavior, and still the right one for one-shot evaluation runs
    /// where a wrong-looking corpus should stop the job). Breakers are
    /// neither consulted nor updated.
    #[default]
    FailFast,
    /// Contain the failure to its shard: classify it, feed the shard's
    /// circuit breaker, skip quarantined shards, and return a degraded
    /// outcome (`complete: false` + [`DegradedShard`] ranges) built from
    /// the healthy shards. The serving daemon runs this policy.
    Isolate,
}

/// One shard of the read view: where its texts start globally, the
/// directory it was opened from, and its opened index.
struct ShardSlot {
    base: TextId,
    dir: PathBuf,
    index: Arc<DiskIndex>,
}

/// What a store path names right now: each shard's first global text id
/// and serving directory, in shard order, plus the view generation — the
/// manifest generation of a sharded store, the generation number of a
/// generation store, `None` for a plain index directory.
pub(crate) type ViewIdentity = (Vec<(TextId, PathBuf)>, Option<u64>);

/// Resolves `path` — a sharded store (when it has a `MANIFEST`), a
/// generation store (its `CURRENT` generation is the only shard), or a
/// plain index directory (likewise) — without opening any index. For a
/// sharded store everything comes from the single checksummed `MANIFEST`,
/// so the identity is always a consistent cross-shard cut.
pub(crate) fn resolve_view(path: &Path) -> Result<ViewIdentity, QueryError> {
    if ShardedStore::is_sharded(path) {
        let store = ShardedStore::open(path)?;
        let mut shards = Vec::with_capacity(store.num_shards());
        for (i, spec) in store.manifest().shards.iter().enumerate() {
            shards.push((spec.first_text, store.serving_dir(i)?));
        }
        Ok((shards, Some(store.manifest().generation)))
    } else {
        let dir = resolve_index_dir(path);
        let generation = generation_of(&dir);
        Ok((vec![(0, dir)], generation))
    }
}

/// The number in a `gen-NNNN` directory name.
pub(crate) fn generation_of(dir: &Path) -> Option<u64> {
    dir.file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_generation_name)
}

/// A read view over one or many shards, pinned to one view generation.
/// See the module docs.
pub struct ShardedIndex {
    shards: Vec<ShardSlot>,
    generation: Option<u64>,
    /// Per-shard circuit breakers. Living inside the view means breaker
    /// state persists for as long as the view is pinned (the serving
    /// daemon holds one `Arc` across requests) and resets naturally when
    /// a reload opens a fresh view — which is exactly the re-admission
    /// path after a shard is repaired.
    health: Arc<ShardHealth>,
}

impl ShardedIndex {
    /// Opens the view `path` names: a sharded store, a generation store
    /// or a plain index directory (the last two as one shard).
    pub fn open(path: &Path) -> Result<Self, QueryError> {
        Self::open_with(path, &ServingOptions::default())
    }

    /// [`Self::open`] with explicit cache sizing, read options (e.g.
    /// memory-mapped postings) and breaker tuning; all apply to every
    /// shard (each gets its own caches; breakers are only consulted under
    /// [`FaultPolicy::Isolate`]).
    pub fn open_with(path: &Path, options: &ServingOptions) -> Result<Self, QueryError> {
        Self::open_view(resolve_view(path)?, options)
    }

    /// Opens exactly the directories `view` names.
    pub(crate) fn open_view(
        (dirs, generation): ViewIdentity,
        options: &ServingOptions,
    ) -> Result<Self, QueryError> {
        let mut shards = Vec::with_capacity(dirs.len());
        for (base, dir) in dirs {
            let index = DiskIndex::open_with_io(&dir, options.cache, options.io.clone())?;
            shards.push(ShardSlot {
                base,
                dir,
                index: Arc::new(index),
            });
        }
        Ok(Self {
            health: Arc::new(ShardHealth::new(shards.len(), options.breaker.clone())),
            shards,
            generation,
        })
    }

    /// Whether this view was opened from exactly `view`.
    pub(crate) fn is_view(&self, (dirs, generation): &ViewIdentity) -> bool {
        self.generation == *generation
            && self
                .shards
                .iter()
                .map(|s| &s.dir)
                .eq(dirs.iter().map(|d| &d.1))
    }

    /// The directories the view was opened from, in shard order.
    pub(crate) fn dirs(&self) -> impl Iterator<Item = &Path> {
        self.shards.iter().map(|s| s.dir.as_path())
    }

    /// Number of shards in the view.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total texts across all shards.
    pub fn num_texts(&self) -> usize {
        self.shards.iter().map(|s| s.index.config().num_texts).sum()
    }

    /// The shared index configuration (`k`, `t`, seed, format — identical
    /// across shards of one store; corpus dimensions are per-shard).
    pub fn config(&self) -> &IndexConfig {
        self.shards[0].index.config()
    }

    /// The view generation: the manifest generation of a sharded store,
    /// the generation number of a generation store, `None` for a plain
    /// index directory.
    pub fn generation(&self) -> Option<u64> {
        self.generation
    }

    /// The global text ids shard `i` holds.
    pub fn texts_of(&self, i: usize) -> std::ops::Range<TextId> {
        let slot = &self.shards[i];
        slot.base..slot.base + slot.index.config().num_texts as TextId
    }

    /// The per-shard circuit-breaker set for this view. Metrics exporters
    /// and health probers read it; [`FaultPolicy::Isolate`] searches feed
    /// it.
    pub fn health(&self) -> &Arc<ShardHealth> {
        &self.health
    }

    /// The view's lane set searched unfiltered ([`PrefixFilter::Disabled`],
    /// not [`PrefixFilter::default`]); callers that want the default name it
    /// through [`Self::searcher_with_filter`].
    pub fn searcher(&self) -> Result<ShardedSearcher<'_>, QueryError> {
        self.searcher_with_filter(PrefixFilter::Disabled)
    }

    /// The view's lane set — one lane per shard — with the given
    /// prefix-filter policy (each shard derives its own cutoffs from its
    /// own list-length histogram — a pure optimization, so exactness is
    /// unaffected).
    pub fn searcher_with_filter(
        &self,
        filter: PrefixFilter,
    ) -> Result<ShardedSearcher<'_>, QueryError> {
        let config = self.config();
        let mut searcher = ShardedSearcher::empty(config.k, config.t as u32);
        searcher.health = Arc::clone(&self.health);
        for slot in &self.shards {
            searcher.push_lane(slot.base, &*slot.index, filter)?;
        }
        Ok(searcher)
    }
}

/// One contiguous global text-id range and the searcher over the one index
/// — disk shard or memtable segment — that holds it.
struct Lane<'a> {
    base: TextId,
    num_texts: u64,
    searcher: NearDupSearcher<'a, dyn IndexAccess + 'a>,
}

/// What one lane contributed to a scatter: a searched result, or a
/// skip/containment record for a degraded shard.
// One short-lived value per lane per query; boxing the hot Searched
// variant would cost an allocation on every healthy lane.
#[allow(clippy::large_enum_variant)]
enum LaneOutcome {
    Searched(Result<SearchOutcome, QueryError>),
    Degraded(DegradedShard),
}

/// A lane set and the one scatter → classify → merge over it; see the
/// module docs for the admission, budget and merge semantics.
pub struct ShardedSearcher<'a> {
    /// Ascending, disjoint text ranges. The first `health.num_shards()`
    /// are the disk shards of the view the set was derived from, each
    /// guarded by the breaker of the same index; any after are memory
    /// lanes.
    lanes: Vec<Lane<'a>>,
    threads: usize,
    policy: FaultPolicy,
    health: Arc<ShardHealth>,
    /// `(k, t)` of the shared index configuration: all `rank` needs, and
    /// the shape of the empty outcome an empty lane set answers with.
    k: usize,
    t: u32,
}

impl<'a> ShardedSearcher<'a> {
    /// A lane set with no lanes yet (a store with nothing published): it
    /// answers every valid query with a complete, empty outcome.
    pub(crate) fn empty(k: usize, t: u32) -> Self {
        ShardedSearcher {
            lanes: Vec::new(),
            threads: ndss_parallel::default_threads(),
            policy: FaultPolicy::FailFast,
            health: Arc::new(ShardHealth::new(0, BreakerConfig::default())),
            k,
            t,
        }
    }

    /// A lane set of one lane: all of `index` — in memory or on disk — at
    /// global text id 0, searched with `filter`.
    pub fn single(index: &'a dyn IndexAccess, filter: PrefixFilter) -> Result<Self, QueryError> {
        let config = index.config();
        let mut searcher = Self::empty(config.k, config.t as u32);
        searcher.push_lane(0, index, filter)?;
        Ok(searcher)
    }

    /// The number of hash functions: collision counts are out of `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Appends a lane over `index`, whose local text ids start at global
    /// id `base`. Lanes must arrive in ascending, disjoint text order.
    pub(crate) fn push_lane(
        &mut self,
        base: TextId,
        index: &'a dyn IndexAccess,
        filter: PrefixFilter,
    ) -> Result<(), QueryError> {
        self.lanes.push(Lane {
            base,
            num_texts: index.config().num_texts as u64,
            searcher: NearDupSearcher::with_prefix_filter(index, filter)?,
        });
        Ok(())
    }

    /// Lanes appended after the disk view's own (memtable segments).
    pub(crate) fn num_memory_lanes(&self) -> usize {
        self.lanes.len() - self.health.num_shards()
    }

    /// Pins the worker-thread count: the scatter width for single queries,
    /// and the query-level parallelism for batches.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the per-shard fault policy (default [`FaultPolicy::FailFast`]).
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs one query at threshold `theta` across all lanes.
    pub fn search(&self, query: &[TokenId], theta: f64) -> Result<SearchOutcome, QueryError> {
        self.search_governed(query, theta, &QueryBudget::unlimited())
    }

    /// [`Self::search`] under a budget: the deadline is shared across
    /// lanes, work caps are apportioned per lane, and a tripped lane
    /// yields a sound text-order prefix of the full result (carried in
    /// [`QueryError::BudgetExceeded`], exactly like the single-index
    /// searcher).
    pub fn search_governed(
        &self,
        query: &[TokenId],
        theta: f64,
        budget: &QueryBudget,
    ) -> Result<SearchOutcome, QueryError> {
        self.scatter(query, theta, budget, self.threads, None)
    }

    /// Runs every query at threshold `theta`; `results[i]` corresponds to
    /// `queries[i]`, each bit-identical to a sequential [`Self::search`].
    /// Parallelism is at the query level (each query scatters serially),
    /// so total workers stay at the configured thread count.
    ///
    /// Fails fast: the first failure stops workers from starting further
    /// queries, and queries in flight abandon work at their next governor
    /// checkpoint (between stages, posting lists and candidate texts). The
    /// call returns the first error in input order among queries that
    /// failed on their own; outcomes finished before the failure are
    /// discarded.
    pub fn search_all(
        &self,
        queries: &[Vec<TokenId>],
        theta: f64,
    ) -> Result<Vec<SearchOutcome>, QueryError> {
        let abort = CancelToken::new();
        self.batch(queries, theta, &QueryBudget::unlimited(), Some(&abort))
            .into_iter()
            // A cancelled slot is collateral of the failure that tripped the
            // abort, and that failure is in the batch too: skipping the
            // cancelled ones leaves it as the first error.
            .filter(|result| !matches!(result, Err(QueryError::Cancelled)))
            .collect()
    }

    /// Runs every query under `budget`, each on its own: one `Result` per
    /// query in input order, a failing query confined to its own slot, a
    /// tripped budget carrying its sound partial
    /// ([`QueryError::BudgetExceeded`]).
    pub fn search_all_governed(
        &self,
        queries: &[Vec<TokenId>],
        theta: f64,
        budget: &QueryBudget,
    ) -> Vec<Result<SearchOutcome, QueryError>> {
        self.batch(queries, theta, budget, None)
    }

    /// The batch driver: scatters each query serially on one of
    /// `self.threads` workers and returns one `Result` per query in input
    /// order. With an `abort` token, the first failure cancels it: queries
    /// not yet started come back [`QueryError::Cancelled`], queries in
    /// flight stop at their next checkpoint.
    fn batch(
        &self,
        queries: &[Vec<TokenId>],
        theta: f64,
        budget: &QueryBudget,
        abort: Option<&CancelToken>,
    ) -> Vec<Result<SearchOutcome, QueryError>> {
        let _span = ndss_obs::span("query.batch");
        let reg = ndss_obs::Registry::global();
        let queue_wait = reg.histogram(
            "query.batch.queue_wait.seconds",
            "Delay between batch start and each query's pickup by a worker",
            ndss_obs::Unit::Seconds,
        );
        let start = Instant::now();
        let results = ndss_parallel::map(queries, self.threads, |_, query| {
            // Pickup delay: how long this query sat in the work queue behind
            // earlier queries (p50/p95/p99 come from the histogram).
            queue_wait.record_duration(start.elapsed());
            if abort.is_some_and(CancelToken::is_cancelled) {
                return Err(QueryError::Cancelled);
            }
            let result = self.scatter(query, theta, budget, 1, abort);
            if let (Err(_), Some(abort)) = (&result, abort) {
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
            let pct = 100.0 * busy.as_secs_f64() / (self.threads as f64 * wall.as_secs_f64());
            reg.gauge(
                "query.batch.utilization.percent",
                "Worker busy time over thread-seconds in the last batch (0-100)",
            )
            .set(pct.round() as i64);
        }
        results
    }

    /// Ranks an outcome's matches by best collision count.
    pub fn rank(&self, outcome: &SearchOutcome, limit: usize) -> Vec<RankedMatch> {
        crate::search::rank(outcome, self.k, limit)
    }

    /// Whether lane `i` answers to a circuit breaker: a disk shard under
    /// the isolating policy.
    fn guarded(&self, i: usize) -> bool {
        self.policy == FaultPolicy::Isolate && i < self.health.num_shards()
    }

    fn scatter(
        &self,
        query: &[TokenId],
        theta: f64,
        budget: &QueryBudget,
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<SearchOutcome, QueryError> {
        let started = Instant::now();
        // Admission runs before the split so quarantined shards neither do
        // work nor consume budget: caps are apportioned across the lanes
        // that will actually search.
        let admissions: Vec<Admission> = (0..self.lanes.len())
            .map(|i| {
                if self.guarded(i) {
                    self.health.admit(i)
                } else {
                    Admission::Admit
                }
            })
            .collect();
        let searching = admissions
            .iter()
            .filter(|a| **a != Admission::Quarantined)
            .count();
        let per_lane = budget.split_across(searching.max(1));
        // Each worker classifies its own lane (feeding that lane's breaker),
        // so every lane is accounted for even when the merge stops early.
        let lanes = ndss_parallel::map(&self.lanes, threads, |i, lane| {
            let result = match admissions[i] {
                Admission::Quarantined => None,
                Admission::Admit | Admission::Probe => Some(match cancel {
                    Some(cancel) => lane
                        .searcher
                        .search_cancellable(query, theta, &per_lane, cancel),
                    None => lane.searcher.search_governed(query, theta, &per_lane),
                }),
            };
            self.classify_lane(i, result)
        });
        self.merge(lanes, query, theta, started)
    }

    /// Applies the fault policy to one lane's raw result: feeds the
    /// breaker and converts contained faults into [`LaneOutcome::Degraded`]
    /// records labeling the lane's text range.
    fn classify_lane(
        &self,
        i: usize,
        result: Option<Result<SearchOutcome, QueryError>>,
    ) -> LaneOutcome {
        let degraded = |kind, reason| {
            LaneOutcome::Degraded(DegradedShard {
                shard: i,
                first_text: self.lanes[i].base,
                num_texts: self.lanes[i].num_texts,
                kind,
                reason,
            })
        };
        let Some(result) = result else {
            // Skipped at admission: label with the breaker's last fault.
            let (kind, reason) = self.health.last_fault(i);
            return degraded(kind, reason);
        };
        if !self.guarded(i) {
            return LaneOutcome::Searched(result);
        }
        match result {
            // A budget trip is the caller's limit, not a shard fault: the
            // shard's IO worked, so it counts as breaker success.
            Ok(_) | Err(QueryError::BudgetExceeded { .. }) => {
                self.health.record_success(i);
                LaneOutcome::Searched(result)
            }
            Err(e) => match classify(&e) {
                Some(kind) => {
                    let reason = e.to_string();
                    self.health.record_failure(i, kind, &reason);
                    degraded(kind, reason)
                }
                None => LaneOutcome::Searched(Err(e)),
            },
        }
    }

    /// Merges per-lane results in lane order (ascending global text
    /// order). Stops at the first budget-tripped lane so the composition is
    /// a sound prefix; any other error propagates as-is. Degraded lanes
    /// contribute no matches — their text ranges are recorded on the
    /// outcome and flip `complete` off.
    fn merge(
        &self,
        lanes: Vec<LaneOutcome>,
        query: &[TokenId],
        theta: f64,
        started: Instant,
    ) -> Result<SearchOutcome, QueryError> {
        let mut merged: Option<SearchOutcome> = None;
        let mut tripped: Option<Resource> = None;
        let mut degraded: Vec<DegradedShard> = Vec::new();
        for (lane, contribution) in self.lanes.iter().zip(lanes) {
            let (mut outcome, resource) = match contribution {
                LaneOutcome::Degraded(d) => {
                    degraded.push(d);
                    continue;
                }
                LaneOutcome::Searched(Ok(outcome)) => (outcome, None),
                LaneOutcome::Searched(Err(QueryError::BudgetExceeded { resource, partial })) => {
                    (*partial, Some(resource))
                }
                LaneOutcome::Searched(Err(e)) => return Err(e),
            };
            for m in &mut outcome.matches {
                m.text += lane.base;
            }
            merged = Some(match merged.take() {
                None => outcome,
                Some(mut acc) => {
                    acc.matches.append(&mut outcome.matches);
                    acc.stats.accumulate(&outcome.stats);
                    acc
                }
            });
            if resource.is_some() {
                tripped = resource;
                break;
            }
        }
        let mut outcome = match (merged, degraded.first()) {
            (Some(outcome), _) => outcome,
            // No lane could answer — every one is quarantined, or faulted
            // in this very scatter: there is no healthy subset to build
            // even a degraded answer from, so surface the (classified)
            // fault instead of an empty "result".
            (None, Some(d)) => {
                return Err(QueryError::AllShardsQuarantined {
                    shards: self.lanes.len(),
                    kind: d.kind,
                    reason: d.reason.clone(),
                })
            }
            // No lane at all (fresh store, empty memtable): an empty but
            // well-formed result — after validating the query the same way
            // a real lane would.
            (None, None) => {
                if query.is_empty() {
                    return Err(QueryError::EmptyQuery);
                }
                if !(theta > 0.0 && theta <= 1.0) {
                    return Err(QueryError::BadThreshold(theta));
                }
                SearchOutcome {
                    matches: Vec::new(),
                    stats: Default::default(),
                    beta: collision_threshold(self.k, theta),
                    t: self.t,
                    complete: true,
                    degraded: Vec::new(),
                }
            }
        };
        outcome.stats.total = started.elapsed();
        outcome.complete = tripped.is_none() && degraded.is_empty();
        outcome.degraded = degraded;
        match tripped {
            None => Ok(outcome),
            Some(resource) => Err(QueryError::BudgetExceeded {
                resource,
                partial: Box::new(outcome),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndss_corpus::{CorpusSource, SyntheticCorpusBuilder};

    /// The constructors that take no filter search unfiltered; the default
    /// filter is one callers name. On a skewed corpus the default defers
    /// long lists, and the unfiltered searchers never do.
    #[test]
    fn unnamed_filter_is_disabled_and_the_default_defers_long_lists() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(73)
            .num_texts(80)
            .vocab_size(300)
            .duplicates_per_text(1.0)
            .build();
        let dir = std::env::temp_dir().join(format!("ndss_filter_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ndss_index::build_and_write(&corpus, IndexConfig::new(16, 25, 3), &dir, false).unwrap();
        let view = ShardedIndex::open(&dir).unwrap();
        let disk = DiskIndex::open(&dir).unwrap();
        let plain = NearDupSearcher::new(&disk).unwrap();
        let unfiltered = view.searcher().unwrap();
        let default = view.searcher_with_filter(PrefixFilter::default()).unwrap();
        let mut deferred = 0;
        for p in planted.iter().take(8) {
            let query = corpus.sequence_to_vec(p.dst).unwrap();
            let want = plain.search(&query, 0.8).unwrap();
            assert_eq!(want.stats.lists_long, 0, "NearDupSearcher::new");
            let got = unfiltered.search(&query, 0.8).unwrap();
            assert_eq!(got.stats.lists_long, 0, "ShardedIndex::searcher");
            let filtered = default.search(&query, 0.8).unwrap();
            assert_eq!(filtered.matches, want.matches);
            deferred += filtered.stats.lists_long;
        }
        assert!(deferred > 0, "the default filter deferred no list");
        std::fs::remove_dir_all(&dir).ok();
    }
}
