//! The lane set and its one scatter: every search — over one index, a
//! store's segments, a disk view plus memtable segments, a batch, a served
//! request — runs the code in this file (DESIGN.md §4d).
//!
//! Algorithm 3 and CollisionCount decide every text on its own (Theorem 2
//! holds per text), so the answer over a corpus cut into contiguous
//! text-id ranges is the per-range answers, re-based and concatenated. A
//! **lane** is one such range: `(first global text id, text count, the one
//! index holding those texts)` — a disk shard or a memtable segment, behind
//! `dyn` [`IndexAccess`].
//!
//! A [`ShardedIndex`] is the read-side view of a store: one opened
//! [`DiskIndex`] per segment of its `MANIFEST` plus each segment's
//! `first_text` offset, pinned to one view generation, with each hash
//! function's list-length histogram summed over the segments (memoised). A
//! plain index directory opens as the same type with one segment at 0.
//! [`ShardedIndex::searcher_with_filter`] derives the lane set and its one
//! plan (hasher and cutoffs) from those sums;
//! [`ShardedSearcher::push_segment`] appends memory lanes under the same
//! cutoffs, and [`ShardedSearcher::single`] is the lane set of one index.
//! A lane set is never empty: a store with no shards does not open.
//!
//! A query is sketched, budgeted and counted once: one sketch, one budget
//! tracker and one IO accumulator, which the lanes share in order on the
//! caller's thread, and one fold into the registry. For each lane in order:
//!
//! * **Admit.** Under [`FaultPolicy::Isolate`] a disk lane asks its breaker
//!   just before it is searched; a quarantined lane is skipped and its
//!   range labelled degraded. Memory lanes never feed a breaker.
//! * **Search.** Its matches are re-based by its first text id and
//!   appended: lane order *is* ascending global text order, so the answer
//!   is bit-identical to one index over the whole corpus. A classified
//!   fault on a guarded lane drops its matches and labels its range.
//! * **Stop** at the first lane that trips the budget (the caller's caps,
//!   over the whole query): a sound text-order prefix of the answer. Only
//!   when no lane can answer is the query an error
//!   ([`QueryError::AllShardsQuarantined`]).

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ndss_corpus::{CorpusSource, SeqRef, TextId};
use ndss_hash::jaccard::distinct_jaccard;
use ndss_hash::TokenId;
use ndss_index::store::{parse_segment_name, ViewIdentity};
use ndss_index::{
    resolve_segments, DiskIndex, IndexAccess, IndexConfig, IndexError, LengthHistogram, MemSegment,
};

use crate::breaker::{classify, Admission, BreakerConfig, DegradedShard, ShardHealth};
use crate::governor::{CancelToken, QueryBudget};
use crate::search::{search_index, Plan, PrefixFilter, QueryStats, RankedMatch, SearchOutcome};
use crate::serving::ServingOptions;
use crate::QueryError;

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

/// The number in a `seg-NNNN` directory name.
pub(crate) fn segment_of(dir: &Path) -> Option<u64> {
    dir.file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_segment_name)
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
    /// `histograms[func]`: function `func`'s list-length histogram summed
    /// over the shards, computed on first use. A view's shards never
    /// change, so neither does the sum.
    histograms: Vec<OnceLock<LengthHistogram>>,
}

impl ShardedIndex {
    /// Opens the view `path` names: a store's serving segments, or a plain
    /// index directory as one segment.
    pub fn open(path: &Path) -> Result<Self, QueryError> {
        Self::open_with(path, &ServingOptions::default())
    }

    /// [`Self::open`] with explicit cache sizing, read options (e.g.
    /// memory-mapped postings) and breaker tuning; all apply to every
    /// shard (each gets its own caches; breakers are only consulted under
    /// [`FaultPolicy::Isolate`]).
    pub fn open_with(path: &Path, options: &ServingOptions) -> Result<Self, QueryError> {
        Self::open_view(resolve_segments(path)?, options)
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
        let k = shards.first().map_or(0, |s| s.index.config().k);
        Ok(Self {
            health: Arc::new(ShardHealth::new(shards.len(), options.breaker.clone())),
            shards,
            generation,
            histograms: (0..k).map(|_| OnceLock::new()).collect(),
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

    /// The view generation: the manifest generation of a store, `None` for
    /// a plain index directory.
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

    /// The view's lane set — one lane per shard — with the given
    /// prefix-filter policy. Its one plan draws the cutoffs from the
    /// histograms summed over the shards, so a one-shard view plans as its
    /// index does (any cutoff is exact: only work moves with it).
    pub fn searcher_with_filter(
        &self,
        filter: PrefixFilter,
    ) -> Result<ShardedSearcher<'_>, QueryError> {
        let plan = Plan::new(self.config(), filter, |func| self.histogram(func))?;
        let lanes = self.shards.iter();
        let lanes = lanes.map(|slot| Lane {
            base: slot.base,
            index: &*slot.index,
        });
        Ok(ShardedSearcher::new(
            lanes.collect(),
            plan,
            Arc::clone(&self.health),
        ))
    }

    /// Function `func`'s list-length histogram summed over the shards:
    /// ascending `(length, lists)` pairs, one per length.
    fn histogram(&self, func: usize) -> Result<LengthHistogram, IndexError> {
        if let Some(sum) = self.histograms[func].get() {
            return Ok(sum.clone());
        }
        let mut sum = std::collections::BTreeMap::new();
        for slot in &self.shards {
            for &(len, lists) in slot.index.list_length_histogram(func)?.iter() {
                *sum.entry(len).or_insert(0) += lists;
            }
        }
        Ok(self.histograms[func]
            .get_or_init(|| sum.into_iter().collect())
            .clone())
    }
}

/// One contiguous global text-id range — from `base`, as many texts as
/// `index` holds — and the one index, disk shard or memtable segment,
/// that holds it.
struct Lane<'a> {
    base: TextId,
    index: &'a dyn IndexAccess,
}

impl Lane<'_> {
    fn num_texts(&self) -> u64 {
        self.index.config().num_texts as u64
    }
}

/// A lane set, its one plan and the scatter over it; see the module docs
/// for the admission, budget and stop semantics.
pub struct ShardedSearcher<'a> {
    /// Ascending, disjoint text ranges, never empty. The first
    /// `health.num_shards()` are the disk shards of the view the set was
    /// derived from, each guarded by the breaker of the same index; any
    /// after are memory lanes.
    lanes: Vec<Lane<'a>>,
    plan: Plan,
    threads: usize,
    policy: FaultPolicy,
    health: Arc<ShardHealth>,
}

impl<'a> ShardedSearcher<'a> {
    fn new(lanes: Vec<Lane<'a>>, plan: Plan, health: Arc<ShardHealth>) -> Self {
        debug_assert!(!lanes.is_empty(), "a lane set has at least one lane");
        ShardedSearcher {
            lanes,
            plan,
            threads: ndss_parallel::default_threads(),
            policy: FaultPolicy::FailFast,
            health,
        }
    }

    /// A lane set of one lane: all of `index` — in memory or on disk — at
    /// global text id 0, searched with `filter`. No breaker guards it.
    pub fn single(index: &'a dyn IndexAccess, filter: PrefixFilter) -> Result<Self, QueryError> {
        let plan = Plan::new(index.config(), filter, |f| index.list_length_histogram(f))?;
        let lane = Lane { base: 0, index };
        let health = Arc::new(ShardHealth::new(0, BreakerConfig::default()));
        Ok(Self::new(vec![lane], plan, health))
    }

    /// The number of hash functions: collision counts are out of `k`.
    pub fn k(&self) -> usize {
        self.plan.hasher.k()
    }

    /// Number of lanes: the disk view's shards plus the overlaid segments.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Overlays a memtable segment as one more lane, classified by the
    /// set's cutoffs like every other lane.
    ///
    /// The rule exactness under concurrent compaction hangs on: a segment
    /// joins **iff** `segment.base() >=` the end of the lanes already in the
    /// set. For a view's lane set that end is the *pinned* snapshot's text
    /// count — not a re-read of the `MANIFEST`, which may have advanced
    /// past the snapshot. Segments publish whole, so the snapshot's text
    /// count is either `<= base` (not yet published: overlay it) or
    /// `>= base + len` (published: the disk lanes already serve those
    /// texts), and the segment-granular rule is exact under any
    /// interleaving of publish, trim and reload. Push segments in ascending text order, as
    /// [`ndss_index::IngestIndex::segments`] yields them.
    pub fn push_segment(&mut self, segment: &'a MemSegment) {
        let last = &self.lanes[self.lanes.len() - 1];
        if segment.is_empty() || segment.base() < last.base as u64 + last.num_texts() {
            return;
        }
        let (base, index) = (segment.base() as TextId, segment.index());
        self.lanes.push(Lane { base, index });
    }

    /// Pins the batch width: how many queries of a batch run at once. A
    /// single query runs its lanes in order on the caller's thread.
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

    /// [`Self::search`] under a budget: one tracker for the whole query,
    /// its caps the caller's caps, and a tripped budget yields a sound
    /// text-order prefix of the full result (carried in
    /// [`QueryError::BudgetExceeded`]).
    pub fn search_governed(
        &self,
        query: &[TokenId],
        theta: f64,
        budget: &QueryBudget,
    ) -> Result<SearchOutcome, QueryError> {
        self.scatter(query, theta, budget, None)
    }

    /// [`Self::search_governed`] with a [`CancelToken`] observed at every
    /// checkpoint: when another thread cancels the token, the query
    /// abandons work promptly and returns [`QueryError::Cancelled`].
    pub fn search_cancellable(
        &self,
        query: &[TokenId],
        theta: f64,
        budget: &QueryBudget,
        cancel: &CancelToken,
    ) -> Result<SearchOutcome, QueryError> {
        self.scatter(query, theta, budget, Some(cancel))
    }

    /// Definition 1 mode: runs the approximate search, then verifies each
    /// enumerated sequence's true distinct Jaccard similarity against
    /// `corpus`, read by the global text ids the lanes return, keeping only
    /// sequences with `J(Q, ·) ≥ θ`.
    ///
    /// Enumeration is quadratic in rectangle sides; `max_candidates` bounds
    /// the work (an `Err` is returned when exceeded so callers never get
    /// silently truncated results).
    pub fn search_verified<C: CorpusSource + ?Sized>(
        &self,
        query: &[TokenId],
        theta: f64,
        corpus: &C,
        max_candidates: usize,
    ) -> Result<(Vec<SeqRef>, QueryStats), QueryError> {
        let outcome = self.search(query, theta)?;
        let total = outcome.total_sequences();
        if total > max_candidates as u64 {
            return Err(QueryError::TooManyCandidates {
                found: total,
                cap: max_candidates,
            });
        }
        let mut verified = Vec::new();
        let mut text_buf = Vec::new();
        for m in &outcome.matches {
            corpus.read_text(m.text, &mut text_buf)?;
            for span in m.enumerate(outcome.t) {
                if distinct_jaccard(query, span.slice(&text_buf)) + 1e-12 >= theta {
                    verified.push(SeqRef { text: m.text, span });
                }
            }
        }
        Ok((verified, outcome.stats))
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
            let result = self.scatter(query, theta, budget, abort);
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

    /// Ranks an outcome's matches by best collision count; callers outside
    /// the ledger use [`crate::search::rank`].
    #[doc(hidden)]
    pub fn rank(&self, outcome: &SearchOutcome, limit: usize) -> Vec<RankedMatch> {
        crate::search::rank(outcome, self.k(), limit)
    }

    /// The scatter: one query through [`Plan::run`], the lanes searched in
    /// order by the rules of the module docs.
    fn scatter(
        &self,
        query: &[TokenId],
        theta: f64,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
    ) -> Result<SearchOutcome, QueryError> {
        self.plan
            .run(query, theta, budget, cancel, |sketch, tracker, io, out| {
                let mut answered = false;
                for (i, lane) in self.lanes.iter().enumerate() {
                    let degraded = |(kind, reason)| DegradedShard {
                        shard: i,
                        first_text: lane.base,
                        num_texts: lane.num_texts(),
                        kind,
                        reason,
                    };
                    let guarded =
                        self.policy == FaultPolicy::Isolate && i < self.health.num_shards();
                    if guarded && self.health.admit(i) == Admission::Quarantined {
                        // Skipped: labelled with the breaker's last fault.
                        out.degraded.push(degraded(self.health.last_fault(i)));
                        continue;
                    }
                    let kept = out.matches.len();
                    match search_index(lane.index, lane.base, &self.plan, sketch, tracker, io, out)
                    {
                        Ok(stopped) => {
                            // A budget trip is the caller's limit, not a shard
                            // fault: the shard's IO worked.
                            if guarded {
                                self.health.record_success(i);
                            }
                            answered = true;
                            if stopped.is_some() {
                                return Ok(stopped);
                            }
                        }
                        Err(e) => {
                            let Some(kind) = classify(&e).filter(|_| guarded) else {
                                return Err(e);
                            };
                            let reason = e.to_string();
                            self.health.record_failure(i, kind, &reason);
                            out.matches.truncate(kept);
                            out.degraded.push(degraded((kind, reason)));
                        }
                    }
                }
                if answered {
                    return Ok(None);
                }
                // No lane could answer — every one is quarantined, or faulted in
                // this very query: there is no healthy subset to build even a
                // degraded answer from, so surface the (classified) fault instead
                // of an empty "result". (The lane set is never empty.)
                let d = &out.degraded[0];
                Err(QueryError::AllShardsQuarantined {
                    shards: self.lanes.len(),
                    kind: d.kind,
                    reason: d.reason.clone(),
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndss_corpus::{CorpusSource, InMemoryCorpus, SyntheticCorpusBuilder};
    use ndss_index::{IngestIndex, IngestOptions, MemoryIndex};

    fn workload() -> (InMemoryCorpus, Vec<Vec<u32>>) {
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

        let serial = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| serial.search(q, 0.8).unwrap().enumerate_all())
            .collect();

        for threads in [1, 4, 8] {
            let batch = ShardedSearcher::single(&index, PrefixFilter::Disabled)
                .unwrap()
                .threads(threads);
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
        let batch = ShardedSearcher::single(&index, PrefixFilter::Disabled)
            .unwrap()
            .threads(4);
        assert!(batch.search_all(&[], 0.8).unwrap().is_empty());
        let queries = vec![vec![1u32, 2, 3], Vec::new()];
        assert!(matches!(
            batch.search_all(&queries, 0.8),
            Err(QueryError::EmptyQuery)
        ));
    }

    /// Per-slot results: the poisoned query is exactly one `Err` at its own
    /// index; every other outcome is bit-identical to a solo run.
    #[test]
    fn isolate_mode_confines_a_poisoned_query() {
        let (corpus, mut queries) = workload();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 9)).unwrap();
        let serial = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| serial.search(q, 0.8).unwrap().enumerate_all())
            .collect();
        let poisoned = 3;
        queries[poisoned] = Vec::new(); // EmptyQuery on arrival

        for threads in [1, 4] {
            let batch = ShardedSearcher::single(&index, PrefixFilter::Disabled)
                .unwrap()
                .threads(threads);
            let results = batch.search_all_governed(&queries, 0.8, &QueryBudget::unlimited());
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

    /// The overlay rule: a segment joins iff its base is at or past the end
    /// of the lanes already in the set. Texts 0..10 are published, 10..15
    /// sit in a frozen segment and 15..20 in the active one. The 10-text
    /// view overlays both segments; a lane set that already ends at 15
    /// skips the frozen one. Both answer like a rebuild of all 20 texts.
    #[test]
    fn push_segment_overlays_exactly_the_uncovered_segments() {
        let (corpus, _) = SyntheticCorpusBuilder::new(98)
            .num_texts(20)
            .text_len(60, 120)
            .vocab_size(500)
            .build();
        let texts: Vec<Vec<TokenId>> = (0..20).map(|i| corpus.text_to_vec(i).unwrap()).collect();
        let root = std::env::temp_dir().join(format!("ndss_push_segment_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let cfg = IndexConfig::new(4, 15, 9).bit_packed(true);
        let mut ingest =
            IngestIndex::open(&root, Some(cfg.clone()), IngestOptions::default()).unwrap();
        for t in &texts[..10] {
            ingest.append(t).unwrap();
        }
        ingest.seal_all().unwrap();
        for t in &texts[10..15] {
            ingest.append(t).unwrap();
        }
        ingest.rotate().unwrap();
        for t in &texts[15..] {
            ingest.append(t).unwrap();
        }
        let bases: Vec<u64> = ingest.segments().map(MemSegment::base).collect();
        assert_eq!(bases, [10, 15]);

        let build = |n: usize| {
            MemoryIndex::build(
                &InMemoryCorpus::from_texts(texts[..n].to_vec()),
                cfg.clone(),
            )
            .unwrap()
        };
        let (first15, full) = (build(15), build(20));
        let reference = ShardedSearcher::single(&full, PrefixFilter::Disabled).unwrap();

        let stale = ShardedIndex::open(&root).unwrap();
        assert_eq!(stale.num_texts(), 10);
        let mut overlaid = stale.searcher_with_filter(PrefixFilter::Disabled).unwrap();
        let mut ahead = ShardedSearcher::single(&first15, PrefixFilter::Disabled).unwrap();
        for segment in ingest.segments() {
            overlaid.push_segment(segment);
            ahead.push_segment(segment);
        }
        assert_eq!(
            overlaid.num_lanes(),
            3,
            "the stale view overlays both segments"
        );
        assert_eq!(ahead.num_lanes(), 2, "the segment at base 10 adds no lane");
        for query in [&texts[3][5..50], &texts[12][10..60], &texts[17][0..50]] {
            let want = reference.search(query, 0.8).unwrap();
            assert!(!want.matches.is_empty());
            assert_eq!(overlaid.search(query, 0.8).unwrap().matches, want.matches);
            assert_eq!(ahead.search(query, 0.8).unwrap().matches, want.matches);
        }
        drop(ingest);
        std::fs::remove_dir_all(&root).ok();
    }

    /// The unfiltered plan ([`PrefixFilter::Disabled`]) defers no list, on
    /// one index or a view; the default filter, which callers name, defers
    /// long lists on a skewed corpus. All three answer alike.
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
        let plain = ShardedSearcher::single(&disk, PrefixFilter::Disabled).unwrap();
        let unfiltered = view.searcher_with_filter(PrefixFilter::Disabled).unwrap();
        let default = view.searcher_with_filter(PrefixFilter::default()).unwrap();
        let mut deferred = 0;
        for p in planted.iter().take(8) {
            let query = corpus.sequence_to_vec(p.dst).unwrap();
            let want = plain.search(&query, 0.8).unwrap();
            assert_eq!(want.stats.lists_long, 0, "one index");
            let got = unfiltered.search(&query, 0.8).unwrap();
            assert_eq!(got.stats.lists_long, 0, "a view");
            let filtered = default.search(&query, 0.8).unwrap();
            assert_eq!(filtered.matches, want.matches);
            deferred += filtered.stats.lists_long;
        }
        assert!(deferred > 0, "the default filter deferred no list");
        std::fs::remove_dir_all(&dir).ok();
    }
}
