//! `NearDuplicateSearch` (paper Algorithm 3): the end-to-end query pipeline
//! with prefix filtering, zone-map probes, and result post-processing.

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use ndss_corpus::{SeqRef, SeqSpan, TextId};
use ndss_hash::minhash::collision_threshold;
use ndss_hash::{MinHasher, Sketch, TokenId};
use ndss_index::{
    IndexAccess, IndexConfig, IndexError, IoStats, LengthHistogram, Posting, SharedList,
};

use crate::collision::{collision_sweep, CollisionScratch, Rectangle};
use crate::governor::{BudgetTracker, CancelToken, QueryBudget, Resource, Verdict};
use crate::QueryError;

/// How the searcher decides which inverted lists are "long" (skipped during
/// candidate generation and probed per candidate text instead, §3.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefixFilter {
    /// Always read all k lists (no filtering).
    Disabled,
    /// Lists with at least this many postings are long.
    MaxListLen(u64),
    /// The top `fraction` of each function's lists by length are long —
    /// the paper's "x% most frequent tokens" knob (Figure 3(d) sweeps
    /// 5%–20%). Computed from the index's list-length histogram.
    FrequentFraction(f64),
    /// Decide per query with the cost model in [`crate::planner`]: defer
    /// whichever lists minimize the estimated postings read, given the
    /// query's actual list lengths (the paper's §3.5 cost-model reference).
    Adaptive,
}

impl Default for PrefixFilter {
    /// The top 5% of each function's lists are long: the low end of the
    /// paper's Figure 3(d) sweep and what every ledger number is measured
    /// with. `ndss search`, `ndss memorize` and the daemon's default
    /// configuration use it.
    fn default() -> Self {
        PrefixFilter::FrequentFraction(0.05)
    }
}

/// The `FrequentFraction` long-list cutoff for one hash function: walk the
/// list-length histogram `hist` (ascending `(length, count)` pairs) from
/// the longest lists down until `⌊total × fraction⌋` lists are spent;
/// everything at or above the stopping length is long.
///
/// Boundary behavior (pinned by unit tests):
/// * `total = 0` (empty index) → `u64::MAX`: no list is ever long;
/// * `fraction = 0.0` → `u64::MAX`: a zero budget marks nothing long;
/// * `fraction = 1.0` → the minimum list length: every list is eligible
///   (the searcher's ⌊β/2⌋ cap keeps the reduced threshold sound anyway).
///
/// The budget is clamped to `total` because `total as f64` rounds for
/// counts above 2⁵³, and `(total as f64 * 1.0).floor()` could then exceed
/// the true total — the clamp keeps "all lists" the worst case.
pub(crate) fn fraction_cutoff(hist: &[(u64, u64)], fraction: f64) -> u64 {
    let total: u64 = hist.iter().map(|&(_, c)| c).sum();
    let budget = ((total as f64 * fraction).floor().max(0.0) as u64).min(total);
    let mut cutoff = u64::MAX;
    let mut used = 0u64;
    for &(len, count) in hist.iter().rev() {
        if used + count > budget {
            break;
        }
        used += count;
        cutoff = len;
    }
    cutoff
}

/// Per-query cost and outcome accounting. `io_bytes` and the cache counters
/// come from a per-query [`IoStats`] accumulator the searcher threads
/// through every index read, so concurrent queries never charge each other;
/// the searcher folds it into the registry once, when the query ends. Wall
/// time is split by stage (`stage_*`), not into IO and CPU: a mapped read
/// has no separable IO clock, and bytes read is what a cold disk's IO time
/// tracks.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// End-to-end wall time.
    pub total: Duration,
    /// Bytes read from the index.
    pub io_bytes: u64,
    /// List consults served by a resident posting list.
    pub cache_hits: u64,
    /// List consults that read the file, or found no list.
    pub cache_misses: u64,
    /// Zone-map consults served by the zone cache.
    pub zone_hits: u64,
    /// Zone-map consults that read the zone table from disk.
    pub zone_misses: u64,
    /// Time computing the query's k-mins sketch.
    pub stage_sketch: Duration,
    /// Time classifying lists (prefix filter or per-query cost model).
    pub stage_plan: Duration,
    /// Time loading short lists and grouping windows by text.
    pub stage_gather: Duration,
    /// Time in collision counting and candidate verification (probe time
    /// excluded).
    pub stage_count: Duration,
    /// Time probing long lists through zone maps.
    pub stage_probe: Duration,
    /// Short lists read in full.
    pub lists_loaded: usize,
    /// Long lists skipped during candidate generation.
    pub lists_long: usize,
    /// Zone-map probes into long lists (one per candidate text × long list).
    pub long_probes: usize,
    /// Postings materialized (short lists + probes).
    pub postings_read: u64,
    /// Texts whose short-list window groups reached the reduced threshold.
    pub candidate_texts: usize,
    /// Texts with at least one final near-duplicate sequence.
    pub matched_texts: usize,
}

impl QueryStats {
    /// Adds `other` into `self`, field by field: the one place the stats of
    /// several queries are summed (a batch profile, a figure's row).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.total += other.total;
        self.io_bytes += other.io_bytes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.zone_hits += other.zone_hits;
        self.zone_misses += other.zone_misses;
        self.stage_sketch += other.stage_sketch;
        self.stage_plan += other.stage_plan;
        self.stage_gather += other.stage_gather;
        self.stage_count += other.stage_count;
        self.stage_probe += other.stage_probe;
        self.lists_loaded += other.lists_loaded;
        self.lists_long += other.lists_long;
        self.long_probes += other.long_probes;
        self.postings_read += other.postings_read;
        self.candidate_texts += other.candidate_texts;
        self.matched_texts += other.matched_texts;
    }
}

/// All near-duplicate rectangles found in one text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextMatch {
    /// The matched text.
    pub text: TextId,
    /// Disjoint rectangles of qualifying sequences (each already meets the
    /// collision threshold β; the length threshold `t` is applied by the
    /// accessors below).
    pub rects: Vec<Rectangle>,
}

impl TextMatch {
    /// Number of qualifying sequences of length ≥ t.
    pub fn num_sequences(&self, t: u32) -> u64 {
        self.rects.iter().map(|r| r.sequences_at_least(t)).sum()
    }

    /// All qualifying sequences of length ≥ t, enumerated. Quadratic in
    /// rectangle side lengths — intended for tests, verification, and
    /// display of small result sets.
    pub fn enumerate(&self, t: u32) -> Vec<SeqSpan> {
        let mut out = Vec::new();
        for r in &self.rects {
            for i in r.x_lo..=r.x_hi {
                // t = 0 behaves as t = 1 (every sequence has length ≥ 1)
                // rather than underflowing `t - 1`.
                let j_min = r.y_lo.max(i.saturating_add(t.saturating_sub(1)));
                if j_min > r.y_hi {
                    // j_min only grows with i, so no later i qualifies.
                    break;
                }
                for j in j_min..=r.y_hi {
                    out.push(SeqSpan::new(i, j));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Merges all qualifying sequences into maximal disjoint token spans —
    /// the paper's Remark ("we merge the overlapping near-duplicate
    /// sequences such that all the sequences we report are disjoint").
    pub fn merged_spans(&self, t: u32) -> Vec<SeqSpan> {
        merge_spans(
            self.rects
                .iter()
                .filter_map(|r| r.covered_span(t))
                .map(|(lo, hi)| SeqSpan::new(lo, hi))
                .collect(),
        )
    }

    /// The highest collision count among this text's rectangles.
    pub fn best_collisions(&self) -> u32 {
        self.rects.iter().map(|r| r.collisions).max().unwrap_or(0)
    }
}

/// Merges possibly-overlapping spans into maximal disjoint spans.
pub(crate) fn merge_spans(mut spans: Vec<SeqSpan>) -> Vec<SeqSpan> {
    spans.sort_unstable();
    let mut merged: Vec<SeqSpan> = Vec::new();
    for s in spans {
        match merged.last_mut() {
            Some(last) if last.touches(&s) => last.end = last.end.max(s.end),
            _ => merged.push(s),
        }
    }
    merged
}

/// One entry of a ranked search: a matched text with its best collision
/// count and merged matched regions.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedMatch {
    /// The matched text.
    pub text: TextId,
    /// Best collision count among its sequences (out of k).
    pub collisions: u32,
    /// `collisions / k` — the min-hash similarity estimate of the best
    /// matching sequence.
    pub estimated_similarity: f64,
    /// Merged disjoint near-duplicate regions in the text.
    pub spans: Vec<SeqSpan>,
}

/// The result of one near-duplicate search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Matches grouped per text, ordered by text id.
    pub matches: Vec<TextMatch>,
    /// Cost accounting.
    pub stats: QueryStats,
    /// The collision threshold β = ⌈kθ⌉ that was enforced.
    pub beta: usize,
    /// The index's length threshold t.
    pub t: u32,
    /// `true` when the query ran to completion. `false` only inside
    /// [`QueryError::BudgetExceeded::partial`]: the matches are sound
    /// (each fully verified) but the corpus was not exhausted.
    pub complete: bool,
    /// Shard ranges this outcome does **not** cover because their shards
    /// are quarantined. Always empty for single-index searches and for
    /// sharded searches under the default fail-fast policy; populated
    /// (with `complete: false`) only by a sharded search running with
    /// [`crate::sharded::FaultPolicy::Isolate`].
    pub degraded: Vec<crate::breaker::DegradedShard>,
}

impl SearchOutcome {
    /// Total qualifying sequences across all texts.
    pub fn total_sequences(&self) -> u64 {
        self.matches.iter().map(|m| m.num_sequences(self.t)).sum()
    }

    /// Number of texts with at least one qualifying sequence.
    pub fn num_texts(&self) -> usize {
        self.matches.len()
    }

    /// Enumerates every qualifying sequence as a [`SeqRef`] (tests/small
    /// results only).
    pub fn enumerate_all(&self) -> Vec<SeqRef> {
        let mut out = Vec::new();
        for m in &self.matches {
            for span in m.enumerate(self.t) {
                out.push(SeqRef { text: m.text, span });
            }
        }
        out
    }

    /// Merged disjoint spans per text.
    pub fn merged(&self) -> Vec<(TextId, Vec<SeqSpan>)> {
        self.matches
            .iter()
            .map(|m| (m.text, m.merged_spans(self.t)))
            .filter(|(_, spans)| !spans.is_empty())
            .collect()
    }
}

/// Ranks an outcome's matched texts by their best collision count out of
/// `k` (ties by text id), truncated to `limit`. Ranking reads nothing but
/// the outcome, so it is the same for one index, a lane set, or a served
/// snapshot — whose `rank` methods all forward here.
pub fn rank(outcome: &SearchOutcome, k: usize, limit: usize) -> Vec<RankedMatch> {
    let mut ranked: Vec<RankedMatch> = outcome
        .matches
        .iter()
        .map(|m| RankedMatch {
            text: m.text,
            collisions: m.best_collisions(),
            estimated_similarity: m.best_collisions() as f64 / k as f64,
            spans: m.merged_spans(outcome.t),
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.collisions
            .cmp(&a.collisions)
            .then_with(|| a.text.cmp(&b.text))
    });
    ranked.truncate(limit);
    ranked
}

/// The first index of text-sorted `list` whose posting names `text` or a
/// later one, found by doubling steps from the front: O(log distance), so a
/// cursor that only moves forward spends no more than the list's length on
/// it however many texts it is asked for, and O(asked × log) when few are.
fn first_at_or_after(list: &[Posting], text: TextId) -> usize {
    let (mut lo, mut step) = (0, 1);
    while lo + step <= list.len() && list[lo + step - 1].text < text {
        lo += step;
        step *= 2;
    }
    let hi = list.len().min(lo + step);
    lo + list[lo..hi].partition_point(|p| p.text < text)
}

/// [`merge_list`] looks `alive` up in a list this many times longer than it;
/// below that, stepping through both costs less than searching.
const GALLOP_FROM: usize = 8;

/// One list of the phase 1 merge. `alive` holds, ascending, every text that
/// can still reach α₀ with the number of distinct lists seen so far that
/// name it; `out` receives the same after `list`: a text `list` names
/// counts one more, and a text whose count is below `need` (α₀ less the
/// lists still to come) is dropped. That one rule also decides admission:
/// a text seen for the first time counts 1, and `need` ≤ 1 exactly for the
/// first p − α₀ + 1 lists.
fn merge_list(
    list: &[Posting],
    need: usize,
    alive: &[(TextId, usize)],
    out: &mut Vec<(TextId, usize)>,
) {
    out.clear();
    if need > 1 && list.len() > GALLOP_FROM * alive.len() {
        // Nothing enters and the list dwarfs `alive`: look each text up.
        let mut rest = list;
        for &(text, seen) in alive {
            rest = &rest[first_at_or_after(rest, text)..];
            let count = seen + usize::from(rest.first().is_some_and(|p| p.text == text));
            if count >= need {
                out.push((text, count));
            }
        }
        return;
    }
    out.reserve(alive.len() + list.len());
    let mut a = 0;
    for run in list.chunk_by(|x, y| x.text == y.text) {
        let text = run[0].text;
        while a < alive.len() && alive[a].0 < text {
            if alive[a].1 >= need {
                out.push(alive[a]);
            }
            a += 1;
        }
        let seen = match alive.get(a) {
            Some(&(t, seen)) if t == text => {
                a += 1;
                seen
            }
            _ => 0,
        };
        if seen + 1 >= need {
            out.push((text, seen + 1));
        }
    }
    out.extend(alive[a..].iter().filter(|e| e.1 >= need));
}

/// The `emit` both counting phases hand [`collision_sweep`]: clears `out`,
/// then keeps the rectangles holding a sequence of length ≥ `t` — all of
/// them, or (`first_only`) just the first, which ends the sweep.
fn qualifying(
    t: u32,
    out: &mut Vec<Rectangle>,
    first_only: bool,
) -> impl FnMut(Rectangle) -> ControlFlow<()> + '_ {
    out.clear();
    move |rect| {
        if rect.sequences_at_least(t) == 0 {
            return ControlFlow::Continue(());
        }
        out.push(rect);
        if first_only {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// What a query plans with, whatever holds its postings: the hash bank and
/// length threshold of the index configuration and the long-list rule the
/// chosen [`PrefixFilter`] implies. A lane set holds one for all its lanes, so a
/// query is sketched once and its lists are classified by one rule however
/// many indexes hold them.
pub(crate) struct Plan {
    pub(crate) hasher: MinHasher,
    t: u32,
    /// `cutoffs[func]`: list length at or above which the list is long
    /// (`u64::MAX` = never). Ignored in adaptive mode.
    cutoffs: Vec<u64>,
    /// Whether to re-plan the long/short split per query with the cost
    /// model instead of the static cutoffs.
    adaptive: bool,
}

impl Plan {
    /// The plan of `filter` for indexes built with `config`. Percentile
    /// cutoffs are drawn from `histogram(func)`: function `func`'s
    /// list-length histogram over everything the plan searches.
    pub(crate) fn new(
        config: &IndexConfig,
        filter: PrefixFilter,
        histogram: impl Fn(usize) -> Result<LengthHistogram, IndexError>,
    ) -> Result<Self, QueryError> {
        let k = config.k;
        let cutoffs = match filter {
            PrefixFilter::Disabled | PrefixFilter::Adaptive => vec![u64::MAX; k],
            PrefixFilter::MaxListLen(len) => vec![len.max(1); k],
            PrefixFilter::FrequentFraction(fraction) => {
                assert!(
                    (0.0..=1.0).contains(&fraction),
                    "fraction must be in [0, 1]"
                );
                (0..k)
                    .map(|func| Ok(fraction_cutoff(&histogram(func)?, fraction)))
                    .collect::<Result<_, QueryError>>()?
            }
        };
        Ok(Self {
            hasher: config.hasher(),
            t: config.t as u32,
            cutoffs,
            adaptive: matches!(filter, PrefixFilter::Adaptive),
        })
    }

    /// One query, start to end: checks the arguments, sketches the query
    /// (line 2), hands `lanes` the sketch, the query's one budget tracker
    /// and IO accumulator and the outcome to fill, and folds the query's
    /// cost into the registry once, however it ends. `lanes` returns the
    /// resource that stopped it, if one did.
    pub(crate) fn run(
        &self,
        query: &[TokenId],
        theta: f64,
        budget: &QueryBudget,
        cancel: Option<&CancelToken>,
        lanes: impl FnOnce(
            &Sketch,
            &BudgetTracker<'_>,
            &IoStats,
            &mut SearchOutcome,
        ) -> Result<Option<Resource>, QueryError>,
    ) -> Result<SearchOutcome, QueryError> {
        if query.is_empty() {
            return Err(QueryError::EmptyQuery);
        }
        if !(theta > 0.0 && theta <= 1.0) {
            return Err(QueryError::BadThreshold(theta));
        }
        let start = Instant::now();
        let tracker = BudgetTracker::start(budget, cancel, start);
        // Every index read records into this query's own accumulator only.
        let io_acc = IoStats::default();
        let mut outcome = SearchOutcome {
            matches: Vec::new(),
            stats: QueryStats::default(),
            beta: collision_threshold(self.hasher.k(), theta),
            t: self.t,
            complete: true,
            degraded: Vec::new(),
        };
        let sketch = self.hasher.sketch(query);
        outcome.stats.stage_sketch = start.elapsed();
        let result = lanes(&sketch, &tracker, &io_acc, &mut outcome).and_then(|stopped| {
            let io = io_acc.snapshot();
            let stats = &mut outcome.stats;
            stats.io_bytes = io.bytes;
            stats.cache_hits = io.cache_hits;
            stats.cache_misses = io.cache_misses;
            stats.zone_hits = io.zone_hits;
            stats.zone_misses = io.zone_misses;
            stats.matched_texts = outcome.matches.len();
            stats.total = start.elapsed();
            outcome.complete = stopped.is_none() && outcome.degraded.is_empty();
            match stopped {
                None => Ok(outcome),
                Some(resource) => Err(QueryError::BudgetExceeded {
                    resource,
                    partial: Box::new(outcome),
                }),
            }
        });
        io_acc.publish();
        crate::metrics::observe(&result);
        result
    }
}

/// Algorithm 3 over one index whose texts start at global id `base`:
/// classifies the sketch's k lists by `plan`, gathers, counts and probes,
/// appends the verified matches to `out` re-based to global ids, and adds
/// its work to `out.stats`. The checkpoints read `out`'s running totals and
/// `io_acc`'s, so lanes that fill one outcome share the caller's caps.
/// Returns the resource that stopped it, if one did: what it appended is
/// then a sound text-order prefix of its answer.
pub(crate) fn search_index<I: IndexAccess + ?Sized>(
    index: &I,
    base: TextId,
    plan: &Plan,
    sketch: &Sketch,
    tracker: &BudgetTracker<'_>,
    io_acc: &IoStats,
    out: &mut SearchOutcome,
) -> Result<Option<Resource>, QueryError> {
    let config = index.config();
    let (k, t, beta) = (config.k, out.t, out.beta);
    let (matches, stats) = (&mut out.matches, &mut out.stats);
    let mut probe_time = Duration::ZERO;

    // The budget-governed pipeline. `checkpoint!` is the cooperative
    // yield point: an unlimited budget resolves it to a single branch
    // (plus one relaxed load when a cancel token is attached); a tripped
    // budget records the exhausted resource and leaves the named block,
    // keeping every fully-verified match accumulated so far. A stage
    // interrupted mid-flight adds nothing to its `stage_*` duration — its
    // time still shows up in `total`.
    let mut stopped = None;
    'run: {
        macro_rules! checkpoint {
            ($candidates:expr, $matches:expr, $leave:lifetime) => {
                match tracker.check(
                    if tracker.is_limited() {
                        io_acc.snapshot().bytes
                    } else {
                        0
                    },
                    $candidates as u64,
                    $matches as u64,
                ) {
                    Verdict::Proceed => {}
                    Verdict::Cancelled => return Err(QueryError::Cancelled),
                    Verdict::Over(resource) => {
                        stopped = Some(resource);
                        break $leave;
                    }
                }
            };
        }
        checkpoint!(0, 0, 'run);
        let plan_start = Instant::now();

        // Classify lists. Soundness of the reduced threshold
        // β − (k − p) ≥ 1 merely requires at most β − 1 long lists, but the
        // filter's pruning power collapses as the reduced threshold
        // approaches 1 (every text sharing a single short-list window
        // becomes a candidate, and each candidate pays k − p probes). We cap
        // the number of long lists at ⌊β/2⌋ — keeping the reduced threshold
        // at ≥ ⌈β/2⌉ — retaining the longest lists as long; this is the
        // cost-model role the paper delegates to prefix-length tuning
        // ("a few works design cost-models to choose a good cutoff", §3.5).
        let mut lens = vec![0; k];
        index.list_lens(&sketch.values()[..k], &mut lens)?;
        let long_funcs: Vec<usize> = if plan.adaptive {
            // Cost-based per-query plan; its own soundness cap applies.
            crate::planner::plan_query(&lens, beta, config.zone_step).deferred
        } else {
            let mut long: Vec<usize> = (0..k).filter(|&f| lens[f] >= plan.cutoffs[f]).collect();
            long.sort_unstable_by_key(|&f| std::cmp::Reverse(lens[f]));
            long.truncate(beta / 2);
            long
        };
        let p = k - long_funcs.len();
        let alpha0 = beta - (k - p);
        debug_assert!(alpha0 >= 1);
        stats.lists_long += long_funcs.len();
        stats.stage_plan += plan_start.elapsed();

        // Phase 1 (lines 3–4): fetch the short lists and keep the
        // postings of every text that could reach the reduced threshold.
        // A text reaches α₀ collisions only if α₀ of the p lists name it
        // (Theorem 1: one function gives a sequence at most one window),
        // so by pigeonhole one of any p − α₀ + 1 of them does. The lists
        // are merged shortest first: the first p − α₀ + 1 *admit* texts —
        // they hold a few percent of the postings — and every later
        // list is only asked about the texts still `alive`, which are
        // dropped as soon as the lists left cannot lift them to α₀. The
        // lists are borrowed — a resident list is lent, not copied — and
        // the long tail is looked up, not scanned. Once
        // every admitting list is merged and `alive` is empty, the rest
        // are not fetched: they can only drop texts, never add one, so
        // the answer is already the empty set.
        let gather_start = Instant::now();
        let mut by_len: Vec<usize> = (0..k).filter(|f| !long_funcs.contains(f)).collect();
        by_len.sort_by_key(|&f| lens[f]);
        let mut lists: Vec<SharedList<'_>> = Vec::with_capacity(p);
        // `(text, distinct lists so far naming it)`, ascending by text.
        let mut alive: Vec<(TextId, usize)> = Vec::new();
        let mut merged = Vec::new();
        for (j, &func) in by_len.iter().enumerate() {
            checkpoint!(0, 0, 'run);
            let list = index.shared_list(func, sketch.value(func), io_acc)?;
            stats.lists_loaded += 1;
            stats.postings_read += list.len() as u64;
            merge_list(&list, alpha0.saturating_sub(p - 1 - j), &alive, &mut merged);
            std::mem::swap(&mut alive, &mut merged);
            lists.push(list);
            if alive.is_empty() && j >= p - alpha0 {
                break;
            }
        }
        // The survivors are the texts named by ≥ α₀ distinct lists. Only
        // their postings are copied, grouped by ascending text: one
        // forward cursor per list.
        let mut kept: Vec<Posting> = Vec::with_capacity(alive.len() * p);
        let mut runs: Vec<(TextId, std::ops::Range<usize>)> = Vec::with_capacity(alive.len());
        let mut rests: Vec<&[Posting]> = lists.iter().map(|list| &list[..]).collect();
        for &(text, _) in &alive {
            let start = kept.len();
            for rest in &mut rests {
                let mut at = first_at_or_after(rest, text);
                while let Some(posting) = rest.get(at).filter(|p| p.text == text) {
                    kept.push(*posting);
                    at += 1;
                }
                *rest = &rest[at..];
            }
            runs.push((text, start..kept.len()));
        }
        drop(rests);
        drop(lists);
        stats.stage_gather += gather_start.elapsed();

        // Phase 2 (lines 5–6): CollisionCount at the reduced threshold
        // over each kept text, in ascending id order, fixes the
        // candidate set. With no long lists α₀ = β and the rectangles
        // are already final: matches are appended here, so a trip
        // between texts leaves a sound prefix of the full result set.
        // With long lists this phase only decides candidacy — phase 4
        // produces the rectangles — so a text's sweep stops at its
        // first rectangle holding a sequence of length ≥ t.
        let count_start = Instant::now();
        let mut scratch = CollisionScratch::default();
        let mut rect_buf: Vec<Rectangle> = Vec::new();
        let decide_only = !long_funcs.is_empty();
        // `(text, its run in kept)` per candidate.
        let mut candidates: Vec<(TextId, std::ops::Range<usize>)> = Vec::new();
        'select: for (text, range) in runs {
            checkpoint!(stats.candidate_texts, matches.len(), 'select);
            let run = &kept[range.clone()];
            collision_sweep(
                run.len(),
                |i| run[i].window,
                alpha0,
                &mut scratch,
                qualifying(t, &mut rect_buf, decide_only),
            )?;
            if rect_buf.is_empty() {
                continue;
            }
            stats.candidate_texts += 1;
            if decide_only {
                candidates.push((text, range));
            } else {
                matches.push(TextMatch {
                    text: base + text,
                    rects: rect_buf.clone(),
                });
            }
        }
        // `max_candidates` caps how many texts are *admitted* to
        // verification: the ones admitted before the trip are still
        // verified below. Any other exhausted resource ends the query.
        if stopped.is_some_and(|r| r != Resource::Candidates) || candidates.is_empty() {
            stats.stage_count += count_start.elapsed();
            break 'run;
        }

        // Phase 3 (lines 8–9): one batched probe per long list locates
        // the windows of *all* candidates in it (ascending text ids: a
        // single forward pass through zone maps / skip entries).
        let probe_start = Instant::now();
        let texts: Vec<TextId> = candidates.iter().map(|(text, _)| *text).collect();
        let mut probed: Vec<Posting> = Vec::new();
        for &func in &long_funcs {
            checkpoint!(0, 0, 'run);
            index.probe_texts(func, sketch.value(func), &texts, io_acc, &mut probed)?;
            stats.long_probes += texts.len();
        }
        stats.postings_read += probed.len() as u64;
        // Each list contributed an ascending slice; regroup by text.
        probed.sort_unstable_by_key(|p| p.text);
        probe_time = probe_start.elapsed();

        // Phase 4 (lines 10–12): re-count each candidate at the full
        // threshold over its short-list and long-list windows together.
        // A text's match is appended only after this final count, so
        // breaking between candidates keeps the verified prefix.
        let mut extra_start = 0usize;
        for (text, range) in candidates {
            checkpoint!(0, matches.len(), 'run);
            let run = &kept[range];
            let rest = &probed[extra_start..];
            let extra = &rest[..rest.partition_point(|p| p.text == text)];
            extra_start += extra.len();
            collision_sweep(
                run.len() + extra.len(),
                |i| match i.checked_sub(run.len()) {
                    None => run[i].window,
                    Some(j) => extra[j].window,
                },
                beta,
                &mut scratch,
                qualifying(t, &mut rect_buf, false),
            )?;
            if !rect_buf.is_empty() {
                matches.push(TextMatch {
                    text: base + text,
                    rects: rect_buf.clone(),
                });
            }
        }
        stats.stage_count += count_start.elapsed().saturating_sub(probe_time);
    }

    stats.stage_probe += probe_time;
    Ok(stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedSearcher;
    use ndss_corpus::{CorpusSource, InMemoryCorpus, SyntheticCorpusBuilder};
    use ndss_hash::jaccard::distinct_jaccard;
    use ndss_index::{IndexConfig, MemoryIndex};

    fn build_index(corpus: &InMemoryCorpus, k: usize, t: usize) -> MemoryIndex {
        MemoryIndex::build(corpus, IndexConfig::new(k, t, 1234)).unwrap()
    }

    /// `t = 0` and `t = 1` are equivalent everywhere the length threshold is
    /// applied (every sequence has length ≥ 1) — and neither panics, which
    /// `t = 0` used to do via `t - 1` underflow.
    #[test]
    fn zero_length_threshold_behaves_like_one() {
        let m = TextMatch {
            text: 7,
            rects: vec![
                Rectangle {
                    x_lo: 0,
                    x_hi: 2,
                    y_lo: 2,
                    y_hi: 5,
                    collisions: 3,
                },
                Rectangle {
                    x_lo: 4,
                    x_hi: 4,
                    y_lo: 6,
                    y_hi: 6,
                    collisions: 2,
                },
            ],
        };
        assert_eq!(m.enumerate(0), m.enumerate(1));
        assert_eq!(m.num_sequences(0), m.num_sequences(1));
        assert_eq!(m.merged_spans(0), m.merged_spans(1));
        assert_eq!(m.num_sequences(1), m.enumerate(1).len() as u64);
        // t = 1 sanity: every (i, j) pair of each rectangle qualifies.
        assert_eq!(m.num_sequences(1), 3 * 4 + 1);
    }

    #[test]
    fn finds_planted_exact_duplicate() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(41)
            .num_texts(60)
            .text_len(150, 300)
            .duplicates_per_text(1.0)
            .dup_len(60, 100)
            .mutation_rate(0.0)
            .build();
        let index = build_index(&corpus, 16, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let p = planted.first().expect("duplicates planted");
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let outcome = searcher.search(&query, 0.9).unwrap();
        // The source text must be among the matches (the query IS a copy of
        // a span of it).
        assert!(
            outcome.matches.iter().any(|m| m.text == p.src.text),
            "planted source text not found"
        );
        // And the copy itself (in the destination text) must be found too.
        assert!(outcome.matches.iter().any(|m| m.text == p.dst.text));
    }

    #[test]
    fn random_query_finds_nothing_at_high_threshold() {
        let (corpus, _) = SyntheticCorpusBuilder::new(42)
            .num_texts(50)
            .duplicates_per_text(0.0)
            .vocab_size(100_000)
            .build();
        let index = build_index(&corpus, 16, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        // A fresh random sequence over a huge vocab shares nothing.
        let query: Vec<u32> = (900_000..900_064).collect();
        let outcome = searcher.search(&query, 0.8).unwrap();
        assert_eq!(outcome.num_texts(), 0);
        assert_eq!(outcome.total_sequences(), 0);
    }

    #[test]
    fn prefix_filtering_changes_nothing_in_results() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(43)
            .num_texts(80)
            .text_len(120, 250)
            .vocab_size(800) // small vocab → skewed lists
            .duplicates_per_text(1.0)
            .dup_len(40, 80)
            .mutation_rate(0.05)
            .build();
        let index = build_index(&corpus, 16, 20);
        let plain = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let filtered =
            ShardedSearcher::single(&index, PrefixFilter::FrequentFraction(0.10)).unwrap();
        let strict = ShardedSearcher::single(&index, PrefixFilter::MaxListLen(8)).unwrap();
        for p in planted.iter().take(10) {
            let query = corpus.sequence_to_vec(p.dst).unwrap();
            for theta in [0.7, 0.8, 0.95] {
                let a = plain.search(&query, theta).unwrap();
                let b = filtered.search(&query, theta).unwrap();
                let c = strict.search(&query, theta).unwrap();
                assert_eq!(a.enumerate_all(), b.enumerate_all(), "fraction filter");
                assert_eq!(a.enumerate_all(), c.enumerate_all(), "length filter");
            }
        }
    }

    #[test]
    fn query_of_itself_matches_whole_span() {
        // Query = an entire span of an indexed text at θ = 1: the span
        // itself must be reported.
        let (corpus, _) = SyntheticCorpusBuilder::new(44)
            .num_texts(20)
            .text_len(100, 150)
            .vocab_size(1_000_000) // distinct tokens
            .duplicates_per_text(0.0)
            .build();
        let index = build_index(&corpus, 32, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let text5 = corpus.text(5);
        let query = &text5[10..60]; // 50 tokens ≥ t
        let outcome = searcher.search(query, 1.0).unwrap();
        let hits = outcome.enumerate_all();
        assert!(
            hits.contains(&SeqRef::new(5, 10, 59)),
            "self-span not found; hits: {hits:?}"
        );
    }

    #[test]
    fn verified_mode_filters_by_true_jaccard() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(45)
            .num_texts(40)
            .text_len(150, 250)
            .duplicates_per_text(1.0)
            .dup_len(50, 80)
            .mutation_rate(0.0)
            .build();
        let index = build_index(&corpus, 32, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let p = planted.first().unwrap();
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let (verified, _) = searcher
            .search_verified(&query, 0.9, &corpus, 2_000_000)
            .unwrap();
        assert!(!verified.is_empty());
        for seq in &verified {
            let tokens = corpus.sequence_to_vec(*seq).unwrap();
            assert!(distinct_jaccard(&query, &tokens) >= 0.9 - 1e-9);
        }
    }

    #[test]
    fn merged_spans_are_disjoint_and_cover_enumeration() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(46)
            .num_texts(50)
            .duplicates_per_text(1.0)
            .mutation_rate(0.02)
            .build();
        let index = build_index(&corpus, 16, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let p = planted.first().unwrap();
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let outcome = searcher.search(&query, 0.8).unwrap();
        for m in &outcome.matches {
            let merged = m.merged_spans(outcome.t);
            // Disjoint and non-touching.
            for w in merged.windows(2) {
                assert!(w[0].end + 1 < w[1].start);
            }
            // Every enumerated sequence is inside some merged span.
            for span in m.enumerate(outcome.t) {
                assert!(
                    merged
                        .iter()
                        .any(|ms| ms.start <= span.start && span.end <= ms.end),
                    "sequence {span:?} outside merged spans {merged:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let (corpus, _) = SyntheticCorpusBuilder::new(47).num_texts(5).build();
        let index = build_index(&corpus, 4, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        assert!(matches!(
            searcher.search(&[], 0.8),
            Err(QueryError::EmptyQuery)
        ));
        assert!(matches!(
            searcher.search(&[1, 2, 3], 0.0),
            Err(QueryError::BadThreshold(_))
        ));
        assert!(matches!(
            searcher.search(&[1, 2, 3], 1.5),
            Err(QueryError::BadThreshold(_))
        ));
    }

    #[test]
    fn lower_threshold_finds_at_least_as_much() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(48)
            .num_texts(60)
            .duplicates_per_text(1.0)
            .mutation_rate(0.08)
            .build();
        let index = build_index(&corpus, 32, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let p = planted.first().unwrap();
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let high = searcher.search(&query, 0.9).unwrap().total_sequences();
        let low = searcher.search(&query, 0.7).unwrap().total_sequences();
        assert!(low >= high, "low {low} < high {high}");
    }

    #[test]
    fn adaptive_filter_changes_nothing_in_results() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(143)
            .num_texts(80)
            .vocab_size(500)
            .duplicates_per_text(1.0)
            .mutation_rate(0.05)
            .build();
        let index = build_index(&corpus, 16, 20);
        let plain = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let adaptive = ShardedSearcher::single(&index, PrefixFilter::Adaptive).unwrap();
        for p in planted.iter().take(8) {
            let query = corpus.sequence_to_vec(p.dst).unwrap();
            for theta in [0.7, 0.9, 1.0] {
                assert_eq!(
                    plain.search(&query, theta).unwrap().enumerate_all(),
                    adaptive.search(&query, theta).unwrap().enumerate_all(),
                    "adaptive plan altered results at theta {theta}"
                );
            }
        }
    }

    #[test]
    fn ranked_search_orders_by_collisions() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(144)
            .num_texts(60)
            .duplicates_per_text(1.5)
            .mutation_rate(0.05)
            .build();
        let index = build_index(&corpus, 32, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let p = planted.first().unwrap();
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let outcome = searcher.search(&query, 0.7).unwrap();
        let ranked = rank(&outcome, 32, 5);
        assert!(!ranked.is_empty());
        assert!(ranked.len() <= 5);
        for pair in ranked.windows(2) {
            assert!(pair[0].collisions >= pair[1].collisions);
        }
        // The top hit should be (near-)perfect: the query is a copy.
        assert!(ranked[0].estimated_similarity > 0.9);
        assert!(!ranked[0].spans.is_empty());
    }

    /// Satellite audit: `FrequentFraction` budget arithmetic at the
    /// boundaries. An empty histogram (total = 0) and a zero fraction must
    /// mark nothing long; fraction = 1.0 must make every list eligible
    /// (cutoff = minimum length) without the float budget overshooting.
    #[test]
    fn fraction_cutoff_boundaries_are_pinned() {
        // total = 0: no lists at all → nothing can be long.
        assert_eq!(fraction_cutoff(&[], 0.0), u64::MAX);
        assert_eq!(fraction_cutoff(&[], 1.0), u64::MAX);

        let hist: Vec<(u64, u64)> = vec![(1, 5), (3, 3), (10, 2)]; // 10 lists
                                                                   // fraction = 0: zero budget → nothing long.
        assert_eq!(fraction_cutoff(&hist, 0.0), u64::MAX);
        // fraction = 1: every list fits the budget → cutoff is the minimum
        // length, i.e. all lists are long-eligible.
        assert_eq!(fraction_cutoff(&hist, 1.0), 1);
        // 20% of 10 lists = 2: exactly the length-10 bucket.
        assert_eq!(fraction_cutoff(&hist, 0.2), 10);
        // 40% of 10 = 4: the length-10 bucket (2) fits, adding the
        // length-3 bucket (3 more) would overshoot → cutoff stays at 10.
        assert_eq!(fraction_cutoff(&hist, 0.4), 10);
        // 50% of 10 = 5: both top buckets fit exactly.
        assert_eq!(fraction_cutoff(&hist, 0.5), 3);
        // A sub-list budget (fraction × total < 1) marks nothing long.
        assert_eq!(fraction_cutoff(&hist, 0.05), u64::MAX);
        // Single-bucket histogram, fraction = 1.0.
        assert_eq!(fraction_cutoff(&[(4, 7)], 1.0), 4);
    }

    /// A searcher over an *empty* index with `FrequentFraction` must
    /// construct (total = 0 histograms) and answer queries.
    #[test]
    fn frequent_fraction_on_empty_index_is_harmless() {
        let corpus = InMemoryCorpus::from_texts(vec![vec![1u32, 2, 3]]); // < t: no windows
        let index = build_index(&corpus, 8, 25);
        for fraction in [0.0, 0.05, 1.0] {
            let s =
                ShardedSearcher::single(&index, PrefixFilter::FrequentFraction(fraction)).unwrap();
            let outcome = s.search(&(0..40).collect::<Vec<u32>>(), 0.8).unwrap();
            assert_eq!(outcome.num_texts(), 0);
            assert!(outcome.complete);
        }
    }

    #[test]
    fn unlimited_budget_matches_plain_search() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(50)
            .num_texts(60)
            .duplicates_per_text(1.0)
            .build();
        let index = build_index(&corpus, 16, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let p = planted.first().unwrap();
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let plain = searcher.search(&query, 0.8).unwrap();
        let governed = searcher
            .search_governed(&query, 0.8, &QueryBudget::unlimited())
            .unwrap();
        assert!(plain.complete && governed.complete);
        assert_eq!(plain.enumerate_all(), governed.enumerate_all());
    }

    /// Partial outcomes are sound: under any `max_candidates`, whatever is
    /// returned (complete or partial) is a subset of the full result set,
    /// and a generous cap returns it all.
    #[test]
    fn tiny_candidate_budget_yields_sound_subset() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(51)
            .num_texts(80)
            .duplicates_per_text(2.0)
            .mutation_rate(0.05)
            .build();
        let index = build_index(&corpus, 16, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let p = planted.first().unwrap();
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let full = searcher.search(&query, 0.7).unwrap();
        let full_set: std::collections::HashSet<SeqRef> =
            full.enumerate_all().into_iter().collect();
        assert!(
            full.stats.candidate_texts > 1,
            "need a multi-candidate query"
        );

        for cap in 0..full.stats.candidate_texts as u64 + 2 {
            let budget = QueryBudget::unlimited().max_candidates(cap);
            match searcher.search_governed(&query, 0.7, &budget) {
                Ok(outcome) => {
                    assert!(outcome.complete);
                    assert_eq!(outcome.enumerate_all(), full.enumerate_all());
                }
                Err(QueryError::BudgetExceeded { resource, partial }) => {
                    assert_eq!(resource, Resource::Candidates);
                    assert!(!partial.complete);
                    for seq in partial.enumerate_all() {
                        assert!(full_set.contains(&seq), "unsound partial match {seq:?}");
                    }
                    // Every partial match is bit-identical to its full-run
                    // counterpart (fully verified, not truncated).
                    for m in &partial.matches {
                        assert!(full.matches.contains(m));
                    }
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn zero_deadline_trips_immediately_with_empty_partial() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(52)
            .num_texts(30)
            .duplicates_per_text(1.0)
            .build();
        let index = build_index(&corpus, 8, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let query = corpus.sequence_to_vec(planted[0].dst).unwrap();
        let budget = QueryBudget::unlimited().time_limit(Duration::ZERO);
        match searcher.search_governed(&query, 0.8, &budget) {
            Err(QueryError::BudgetExceeded { resource, partial }) => {
                assert_eq!(resource, Resource::Deadline);
                assert!(!partial.complete);
                assert!(partial.matches.is_empty(), "nothing verified yet");
            }
            other => panic!("expected deadline trip, got {other:?}"),
        }
    }

    #[test]
    fn pre_cancelled_token_aborts_before_io() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(53)
            .num_texts(30)
            .duplicates_per_text(1.0)
            .build();
        let index = build_index(&corpus, 8, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let query = corpus.sequence_to_vec(planted[0].dst).unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert!(matches!(
            searcher.search_cancellable(&query, 0.8, &QueryBudget::unlimited(), &token),
            Err(QueryError::Cancelled)
        ));
    }

    #[test]
    fn stats_account_for_work() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(49)
            .num_texts(60)
            .duplicates_per_text(1.0)
            .build();
        let index = build_index(&corpus, 8, 25);
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let p = planted.first().unwrap();
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let outcome = searcher.search(&query, 0.8).unwrap();
        // No filtering: all 8 lists are short, and the planted copy keeps
        // `alive` non-empty to the last of them.
        assert_eq!(outcome.stats.lists_loaded, 8);
        assert_eq!(outcome.stats.lists_long, 0);
        assert!(outcome.stats.postings_read > 0);
        assert_eq!(outcome.stats.matched_texts, outcome.matches.len());
        // Tokens the corpus never holds: every list is absent, so `alive`
        // is empty after the p − α₀ + 1 = 8 − 7 + 1 admitting lists, and
        // the merge stops there.
        let novel: Vec<TokenId> = (1_000_000..1_000_080).collect();
        let outcome = searcher.search(&novel, 0.8).unwrap();
        assert!(outcome.matches.is_empty());
        assert_eq!(outcome.stats.lists_loaded, 2);
        assert_eq!(outcome.stats.postings_read, 0);
    }
}
