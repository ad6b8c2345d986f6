//! Resource-governed query execution, end to end against disk indexes:
//! deterministic fault injection absorbed by the retrying IO layer with
//! bit-identical results, sound partial outcomes under budgets, and batch
//! failure isolation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ndss::index::{CacheConfig, IndexError, IoStats, LengthHistogram, Posting, SharedList};
use ndss::prelude::*;
use ndss_integration::scratch;

fn workload(seed: u64) -> (InMemoryCorpus, Vec<Vec<TokenId>>) {
    let (corpus, planted) = SyntheticCorpusBuilder::new(seed)
        .num_texts(120)
        .text_len(150, 300)
        .duplicates_per_text(1.0)
        .dup_len(50, 90)
        .mutation_rate(0.03)
        .build();
    let queries: Vec<Vec<TokenId>> = planted
        .iter()
        .take(16)
        .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
        .collect();
    assert!(queries.len() >= 12, "expected a non-trivial query set");
    (corpus, queries)
}

/// A plan on every index file, armed `Flaky` with `seed`.
fn flaky_plan(seed: u64) -> FaultPlan {
    let plan = FaultPlan::new("", seed);
    plan.arm(FaultMode::Flaky);
    plan
}

fn build(corpus: &InMemoryCorpus, dir: &std::path::Path, compress: bool) {
    // Tiny zone thresholds so long-list probes (and their reads) engage.
    let config = IndexConfig::new(16, 25, 5)
        .zone_map(16, 64)
        .compressed(compress);
    ndss::index::build_and_write(corpus, config, dir, true).unwrap();
}

/// Under a seeded `Flaky` plan the retry layer absorbs every transient
/// error and queries return results bit-identical to a fault-free run —
/// for both the fixed-width (v3) and compressed (v4) formats — while the
/// `io.retries` counter proves retries really happened.
#[test]
fn faulty_reads_yield_bit_identical_results() {
    let (corpus, queries) = workload(9001);
    for (compress, sub) in [(false, "v3"), (true, "v4")] {
        let dir = scratch("governed", &format!("flaky_{sub}"));
        build(&corpus, &dir, compress);

        let clean = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();
        let baseline = ShardedSearcher::single(&clean, PrefixFilter::Disabled)
            .unwrap()
            .threads(4)
            .search_all(&queries, 0.8)
            .unwrap();

        let retries = Registry::global().counter("io.retries", "");
        for seed in [1u64, 7, 0xDEAD_BEEF] {
            let plan = flaky_plan(seed);
            let flaky = DiskIndex::open_with_io(
                &dir,
                CacheConfig::disabled(),
                ReadOptions::with_faults(plan.clone()),
            )
            .unwrap();
            let retries_before = retries.get();
            let outcomes = ShardedSearcher::single(&flaky, PrefixFilter::Disabled)
                .unwrap()
                .threads(4)
                .search_all(&queries, 0.8)
                .unwrap();
            assert!(
                plan.injected() > 0,
                "seed {seed}: injector never fired ({sub})"
            );
            assert!(
                retries.get() > retries_before,
                "seed {seed}: io.retries did not rise ({sub})"
            );
            for (i, (got, want)) in outcomes.iter().zip(baseline.iter()).enumerate() {
                assert_eq!(
                    got.enumerate_all(),
                    want.enumerate_all(),
                    "seed {seed}: query {i} diverged under faults ({sub})"
                );
                assert_eq!(got.stats.io_bytes, want.stats.io_bytes);
            }
        }
    }
}

/// The same seed injects the same fault sequence: two serial passes over
/// the same query stream tally identical injected-fault counts.
#[test]
fn fault_injection_is_deterministic_across_runs() {
    let (corpus, queries) = workload(9002);
    let dir = scratch("governed", "deterministic");
    build(&corpus, &dir, false);

    let run = |seed: u64| {
        let plan = flaky_plan(seed);
        let index = DiskIndex::open_with_io(
            &dir,
            CacheConfig::disabled(),
            ReadOptions::with_faults(plan.clone()),
        )
        .unwrap();
        let searcher = NearDupSearcher::new(&index).unwrap();
        let keys: Vec<_> = queries
            .iter()
            .map(|q| searcher.search(q, 0.8).unwrap().enumerate_all())
            .collect();
        (keys, plan.injected())
    };
    let (results_a, faults_a) = run(42);
    let (results_b, faults_b) = run(42);
    assert_eq!(results_a, results_b);
    assert_eq!(faults_a, faults_b, "same seed must inject the same faults");
    assert!(faults_a > 0);
}

/// Reads that never stop failing exhaust the retry budget: under a plan
/// armed `Storm` at open the error surfaces (here at open, which reads the
/// directory) instead of retrying forever, and `io.retry_exhausted`
/// records it.
#[test]
fn permanently_failing_range_exhausts_retries() {
    let (corpus, _) = workload(9003);
    let dir = scratch("governed", "exhaust");
    build(&corpus, &dir, false);

    let exhausted = Registry::global().counter("io.retry_exhausted", "");
    let before = exhausted.get();
    let plan = FaultPlan::new("", 3);
    plan.arm(FaultMode::Storm);
    let result = DiskIndex::open_with_io(
        &dir,
        CacheConfig::disabled(),
        ReadOptions::with_faults(plan),
    );
    assert!(result.is_err(), "an always-failing file must not open");
    assert!(
        exhausted.get() > before,
        "io.retry_exhausted did not record the failure"
    );
}

/// A per-slot batch confines a poisoned query to its own slot: exactly one
/// `Err`, every other query's results bit-identical to an all-good batch.
/// The fail-fast batch on the same input aborts as a whole.
#[test]
fn isolate_confines_poison_fail_fast_aborts() {
    let (corpus, queries) = workload(9004);
    let dir = scratch("governed", "isolate");
    build(&corpus, &dir, false);
    let index = DiskIndex::open(&dir).unwrap();

    let baseline = ShardedSearcher::single(&index, PrefixFilter::Disabled)
        .unwrap()
        .threads(4)
        .search_all(&queries, 0.8)
        .unwrap();

    let mut poisoned = queries.clone();
    poisoned[5] = Vec::new(); // empty query: always an error

    let results = ShardedSearcher::single(&index, PrefixFilter::Disabled)
        .unwrap()
        .threads(4)
        .search_all_governed(&poisoned, 0.8, &QueryBudget::unlimited());
    assert_eq!(results.len(), poisoned.len());
    let errors: Vec<usize> = results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_err())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(errors, vec![5], "exactly the poisoned slot must fail");
    for (i, result) in results.iter().enumerate() {
        if i == 5 {
            continue;
        }
        assert_eq!(
            result.as_ref().unwrap().enumerate_all(),
            baseline[i].enumerate_all(),
            "query {i} perturbed by the poisoned neighbor"
        );
    }

    let fail_fast = ShardedSearcher::single(&index, PrefixFilter::Disabled)
        .unwrap()
        .threads(4)
        .search_all(&poisoned, 0.8);
    assert!(fail_fast.is_err(), "fail-fast must surface the poison");
}

/// Tiny candidate budgets stop queries early with a sound partial outcome:
/// a prefix of the full result set, flagged incomplete. Sweeping the cap
/// upward reaches the complete result.
#[test]
fn partial_outcomes_are_sound_prefixes() {
    let (corpus, queries) = workload(9005);
    let dir = scratch("governed", "partial");
    build(&corpus, &dir, false);
    let index = DiskIndex::open(&dir).unwrap();
    let searcher = NearDupSearcher::new(&index).unwrap();

    let mut partials = 0usize;
    for query in &queries {
        let full = searcher.search(query, 0.8).unwrap();
        assert!(full.complete);
        for cap in 0..=3u64 {
            let budget = QueryBudget::unlimited().max_candidates(cap);
            match searcher.search_governed(query, 0.8, &budget) {
                Ok(outcome) => {
                    assert!(outcome.complete);
                    assert_eq!(outcome.enumerate_all(), full.enumerate_all());
                }
                Err(QueryError::BudgetExceeded { resource, partial }) => {
                    partials += 1;
                    assert_eq!(resource, Resource::Candidates);
                    assert!(!partial.complete, "partial outcomes must say so");
                    // Texts are processed in ascending id order and a match
                    // is appended only once fully verified, so the partial
                    // set is a prefix of the full one.
                    assert!(partial.matches.len() <= full.matches.len());
                    assert_eq!(
                        full.matches[..partial.matches.len()],
                        partial.matches[..],
                        "partial result is not a sound prefix"
                    );
                }
                Err(e) => panic!("unexpected error under candidate cap: {e}"),
            }
        }
    }
    assert!(partials > 0, "candidate caps this tiny must trip sometimes");
}

/// A zero deadline trips before any index IO; the partial outcome is empty
/// but well-formed.
#[test]
fn zero_deadline_returns_empty_partial() {
    let (corpus, queries) = workload(9006);
    let dir = scratch("governed", "deadline");
    build(&corpus, &dir, false);
    let index = DiskIndex::open(&dir).unwrap();
    let searcher = NearDupSearcher::new(&index).unwrap();

    let budget = QueryBudget::unlimited().time_limit(std::time::Duration::ZERO);
    match searcher.search_governed(&queries[0], 0.8, &budget) {
        Err(QueryError::BudgetExceeded { resource, partial }) => {
            assert_eq!(resource, Resource::Deadline);
            assert!(!partial.complete);
            assert!(partial.matches.is_empty());
        }
        other => panic!("expected a deadline trip, got {other:?}"),
    }
}

/// Budgets compose with fault injection: a governed batch over a flaky
/// index still produces sound outcomes — completed queries exact, partial
/// ones prefixes — because retries happen below the budget checkpoints.
#[test]
fn budgets_and_faults_compose() {
    let (corpus, queries) = workload(9008);
    let dir = scratch("governed", "compose");
    build(&corpus, &dir, true);

    let clean = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();
    let serial = NearDupSearcher::new(&clean).unwrap();
    let full: Vec<_> = queries
        .iter()
        .map(|q| serial.search(q, 0.8).unwrap())
        .collect();

    let flaky = DiskIndex::open_with_io(
        &dir,
        CacheConfig::disabled(),
        ReadOptions::with_faults(flaky_plan(77)),
    )
    .unwrap();
    let results = ShardedSearcher::single(&flaky, PrefixFilter::Disabled)
        .unwrap()
        .threads(4)
        .search_all_governed(&queries, 0.8, &QueryBudget::unlimited().max_candidates(2));
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(outcome) => {
                assert_eq!(outcome.enumerate_all(), full[i].enumerate_all());
            }
            Err(QueryError::BudgetExceeded { partial, .. }) => {
                assert!(!partial.complete);
                assert_eq!(
                    full[i].matches[..partial.matches.len()],
                    partial.matches[..]
                );
            }
            Err(e) => panic!("query {i}: unexpected error {e}"),
        }
    }
}

/// With long lists the searcher runs in phases — select every candidate,
/// then one batched probe per long list, then verify each candidate — so
/// a budget can run out *between* phases, when candidates are known but
/// none is verified. Whatever dimension trips and wherever, the partial
/// outcome holds only fully verified matches, in ascending text order,
/// each bit-identical to its counterpart in the unbudgeted run.
#[test]
fn trips_between_phases_return_only_verified_matches() {
    let (corpus, queries) = workload(9009);
    for (compress, packed, sub) in [
        (false, false, "v3"),
        (true, false, "v4"),
        (false, true, "v6"),
    ] {
        let dir = scratch("governed", &format!("phases_{sub}"));
        let config = IndexConfig::new(16, 25, 5)
            .zone_map(16, 64)
            .compressed(compress)
            .bit_packed(packed);
        ndss::index::build_and_write(&corpus, config, &dir, true).unwrap();
        // No cache: IO bytes are a deterministic function of the work done.
        let index = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();
        let searcher =
            NearDupSearcher::with_prefix_filter(&index, PrefixFilter::MaxListLen(24)).unwrap();

        let assert_sound = |full: &SearchOutcome, partial: &SearchOutcome, what: &str| {
            assert!(!partial.complete, "{sub} {what}");
            let mut rest = full.matches.iter();
            for m in &partial.matches {
                // Ascending and bit-identical: each partial match is the
                // next full match with that text, rectangles and all.
                assert!(
                    rest.any(|f| f == m),
                    "{sub} {what}: match for text {} is out of order or differs",
                    m.text
                );
            }
        };

        let (mut candidate_trips, mut io_trips, mut unverified_trips) = (0, 0, 0);
        for query in &queries {
            let full = searcher.search(query, 0.8).unwrap();
            if full.stats.lists_long == 0 || full.stats.candidate_texts < 2 {
                continue;
            }
            let (long, candidates) = (full.stats.lists_long, full.stats.candidate_texts);
            assert_eq!(full.stats.long_probes, long * candidates);

            // max_candidates trips in the select phase: the candidates
            // admitted before the trip — cap + 1 of them — are all probed
            // and verified, nothing past them is.
            for cap in 0..candidates as u64 - 1 {
                let budget = QueryBudget::unlimited().max_candidates(cap);
                match searcher.search_governed(query, 0.8, &budget) {
                    Err(QueryError::BudgetExceeded { resource, partial }) => {
                        candidate_trips += 1;
                        assert_eq!(resource, Resource::Candidates);
                        assert_eq!(partial.stats.candidate_texts as u64, cap + 1);
                        assert_eq!(partial.stats.long_probes as u64, long as u64 * (cap + 1));
                        assert_sound(&full, &partial, "max_candidates");
                        let admitted = full
                            .matches
                            .iter()
                            .take_while(|m| Some(m.text) <= partial.matches.last().map(|l| l.text))
                            .count();
                        assert_eq!(partial.matches.len(), admitted, "a prefix, no gaps");
                    }
                    other => panic!("{sub}: cap {cap} of {candidates} must trip, got {other:?}"),
                }
            }

            // max_io_bytes trips between short-list reads and between
            // long-list probes; in both places no candidate is verified yet.
            for bytes in (0..full.stats.io_bytes).step_by(full.stats.io_bytes as usize / 23 + 1) {
                let budget = QueryBudget::unlimited().max_io_bytes(bytes);
                match searcher.search_governed(query, 0.8, &budget) {
                    Err(QueryError::BudgetExceeded { resource, partial }) => {
                        io_trips += 1;
                        assert_eq!(resource, Resource::IoBytes);
                        assert_sound(&full, &partial, "max_io_bytes");
                        if partial.stats.candidate_texts > 0 && partial.matches.is_empty() {
                            unverified_trips += 1;
                        }
                    }
                    Ok(outcome) => assert_eq!(outcome.matches, full.matches),
                    Err(e) => panic!("{sub}: unexpected error {e}"),
                }
            }

            // Deadlines land wherever the clock says; soundness must not
            // depend on where.
            for micros in [0u64, 20, 50, 100, 200, 400, 800] {
                let budget =
                    QueryBudget::unlimited().time_limit(std::time::Duration::from_micros(micros));
                match searcher.search_governed(query, 0.8, &budget) {
                    Err(QueryError::BudgetExceeded { resource, partial }) => {
                        assert_eq!(resource, Resource::Deadline);
                        assert_sound(&full, &partial, "deadline");
                    }
                    Ok(outcome) => assert_eq!(outcome.matches, full.matches),
                    Err(e) => panic!("{sub}: unexpected error {e}"),
                }
            }
        }
        assert!(
            candidate_trips > 0,
            "{sub}: no multi-candidate query with long lists"
        );
        assert!(io_trips > 0, "{sub}: no IO budget tripped");
        assert!(
            unverified_trips > 0,
            "{sub}: no IO budget tripped after selection and before verification"
        );
    }
}

/// An index that runs `on_fetch(n)` before handing out its n-th short list
/// (0-based): the hook fires *between two merged lists* of phase 1.
struct FetchHook<'a> {
    inner: &'a DiskIndex,
    fetched: AtomicUsize,
    on_fetch: Box<dyn Fn(usize) + Send + Sync + 'a>,
}

impl<'a> FetchHook<'a> {
    fn new(inner: &'a DiskIndex, on_fetch: impl Fn(usize) + Send + Sync + 'a) -> Self {
        Self {
            inner,
            fetched: Default::default(),
            on_fetch: Box::new(on_fetch),
        }
    }
}

impl IndexAccess for FetchHook<'_> {
    fn config(&self) -> &IndexConfig {
        self.inner.config()
    }

    fn list_len(&self, func: usize, hash: u64) -> Result<u64, IndexError> {
        self.inner.list_len(func, hash)
    }

    fn shared_list(
        &self,
        func: usize,
        hash: u64,
        io: &IoStats,
    ) -> Result<SharedList<'_>, IndexError> {
        (self.on_fetch)(self.fetched.fetch_add(1, Ordering::SeqCst));
        self.inner.shared_list(func, hash, io)
    }

    fn probe_texts(
        &self,
        func: usize,
        hash: u64,
        texts: &[TextId],
        io: &IoStats,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        self.inner.probe_texts(func, hash, texts, io, out)
    }

    fn list_length_histogram(&self, func: usize) -> Result<LengthHistogram, IndexError> {
        self.inner.list_length_histogram(func)
    }
}

/// Phase 1 merges the short lists one by one and yields to the budget
/// before each. Whatever runs out between two of them — the clock, the IO
/// allowance, the caller's patience — the query stops there: the lists
/// after the trip are never fetched, nothing is half-counted into a match,
/// and the answer is what it was before the merge existed (an empty sound
/// partial; `Cancelled`).
#[test]
fn trips_between_two_merged_lists_stop_the_merge_there() {
    let (corpus, queries) = workload(9010);
    let dir = scratch("governed", "merge_trips");
    build(&corpus, &dir, false);
    // No cache: every fetched list costs IO bytes.
    let index = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();
    let query = &queries[0];
    let full = NearDupSearcher::new(&index)
        .unwrap()
        .search(query, 0.8)
        .unwrap();
    assert!(!full.matches.is_empty() && full.stats.lists_loaded == 16);
    // An empty partial that stopped among the short lists, `at_least` of
    // them fetched.
    let empty_partial =
        |result: Result<SearchOutcome, QueryError>, want: Resource, at_least| match result {
            Err(QueryError::BudgetExceeded { resource, partial }) => {
                assert_eq!(resource, want);
                assert!(!partial.complete && partial.matches.is_empty());
                assert_eq!(partial.stats.candidate_texts, 0);
                let fetched = partial.stats.lists_loaded;
                assert!((at_least..16).contains(&fetched), "{want:?}: {fetched}");
            }
            other => panic!("expected a {want:?} trip, got {other:?}"),
        };

    for after in [1usize, 7, 15] {
        // The clock runs out while list `after − 1` is being fetched; the
        // next checkpoint that reads it (they are strided) ends the merge.
        let slow = FetchHook::new(&index, |n| {
            if n + 1 == after {
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        let budget = QueryBudget::unlimited().time_limit(Duration::from_millis(25));
        let result = NearDupSearcher::new(&slow)
            .unwrap()
            .search_governed(query, 0.8, &budget);
        empty_partial(result, Resource::Deadline, after);

        // The caller cancels at the same point.
        let token = CancelToken::new();
        let cancelling = FetchHook::new(&index, |n| {
            if n + 1 == after {
                token.cancel();
            }
        });
        let result = NearDupSearcher::new(&cancelling)
            .unwrap()
            .search_cancellable(query, 0.8, &QueryBudget::unlimited(), &token);
        assert!(matches!(result, Err(QueryError::Cancelled)), "{result:?}");
        assert_eq!(
            cancelling.fetched.load(Ordering::SeqCst),
            after,
            "a cancelled query fetched past the cancellation"
        );
    }

    // An IO allowance smaller than the short lists runs out among them.
    let plain = FetchHook::new(&index, |_| {});
    let searcher = NearDupSearcher::new(&plain).unwrap();
    for bytes in [1, full.stats.io_bytes / 3] {
        let budget = QueryBudget::unlimited().max_io_bytes(bytes);
        let before = plain.fetched.load(Ordering::SeqCst);
        let result = searcher.search_governed(query, 0.8, &budget);
        let fetched = plain.fetched.load(Ordering::SeqCst) - before;
        assert!(
            fetched < 16,
            "the merge ran on after the IO budget was spent"
        );
        empty_partial(result, Resource::IoBytes, fetched);
    }
}
