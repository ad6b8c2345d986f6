//! The serve-path chaos harness: seeded fault sweeps over live sharded
//! views and the serving daemon.
//!
//! Faults are injected through [`FaultPlan`] — the read-fault injector,
//! attached at open to one shard's files and armed/disarmed *while queries
//! are in flight* — so these tests exercise exactly the failure the fault-
//! isolation layer exists for: an already-serving shard going bad under a
//! live reader. The sweep grid is
//!
//! ```text
//! 3 formats (v3, v4, v6) × 2 read paths (pread, mmap)
//!   × 5 fault kinds (transient storm, corruption, eof/truncation,
//!                    permission denial, deletion+repair)
//!   × 2 corpus seeds  =  60 seeded scenarios
//! ```
//!
//! Invariants checked in every scenario, always:
//!
//! * **zero panics** — every fault surfaces as a classified error, a
//!   degraded response, or a quarantine, never a crash;
//! * **sibling soundness** — shards that did not fault answer
//!   bit-identically to a single-index oracle over the whole corpus,
//!   restricted to their text-id ranges;
//! * **exact labeling** — a degraded response names exactly the faulty
//!   shard's `[first_text, first_text + num_texts)` range, nothing more,
//!   nothing less, and contributes no matches from that range;
//! * **recovery without restart** — once the fault is lifted (tap
//!   disarmed, or files repaired and the view reopened) responses return
//!   to `complete: true`, bit-identical to the oracle.
//!
//! The daemon-level tests run the same story through real sockets: HTTP
//! and NDSB clients observe degraded responses and quarantine metrics,
//! and the background prober re-admits the shard with no operator action.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ndss::index::{build_and_write, CacheConfig, FaultMode, FaultPlan};
use ndss::prelude::*;
use ndss::query::{BreakerConfig, BreakerState, FaultKind, FaultPolicy, ServingOptions};
use ndss::serve::client::{FrameClient, HttpClient};
use ndss::serve::frame::SearchRequest;
use ndss::serve::{ServeConfig, Server};
use ndss_integration::scratch;

const THETA: f64 = 0.8;
const SHARDS: usize = 4;
const SEEDS: [u64; 2] = [11, 23];
const FORMATS: [(bool, bool, &str); 3] = [
    (false, false, "v3"),
    (true, false, "v4"),
    (false, true, "v6"),
];
const CHAOS_MODES: [(FaultMode, &str); 4] = [
    (FaultMode::Storm, "storm"),
    (FaultMode::Corrupt, "corrupt"),
    (FaultMode::Eof, "eof"),
    (FaultMode::Deny, "deny"),
];
const TIMEOUT: Duration = Duration::from_secs(30);

fn config(compress: bool, packed: bool) -> IndexConfig {
    IndexConfig::new(8, 20, 13)
        .zone_map(16, 64)
        .compressed(compress)
        .bit_packed(packed)
}

/// Fast breaker tuning so scenarios trip and recover in tens of
/// milliseconds instead of the serving defaults' seconds.
fn breaker_cfg() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: 2,
        backoff: Duration::from_millis(40),
        max_backoff: Duration::from_millis(320),
    }
}

/// Serving options with `plan`'s tap attached and the fast breakers.
fn chaos_options(plan: &FaultPlan, cache: CacheConfig) -> ServingOptions {
    ServingOptions {
        cache,
        io: ndss::index::ReadOptions::with_faults(plan.clone()),
        breaker: breaker_cfg(),
    }
}

/// A seeded corpus with planted near-duplicates whose sources spread over
/// all future shards, plus queries that match in several shards at once —
/// so losing any one shard visibly changes the result set.
fn workload(seed: u64) -> (InMemoryCorpus, Vec<Vec<TokenId>>) {
    let (corpus, planted) = SyntheticCorpusBuilder::new(seed)
        .num_texts(48)
        .text_len(100, 200)
        .duplicates_per_text(1.0)
        .dup_len(40, 80)
        .mutation_rate(0.02)
        .build();
    let queries: Vec<Vec<TokenId>> = planted
        .iter()
        .take(4)
        .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
        .collect();
    assert_eq!(queries.len(), 4);
    (corpus, queries)
}

fn build_store(corpus: &InMemoryCorpus, compress: bool, packed: bool, tag: &str) -> PathBuf {
    let root = scratch("chaos", tag);
    let opts = ShardedBuildOptions {
        threads: 2,
        ..ShardedBuildOptions::default()
    };
    build_sharded(corpus, config(compress, packed), &root, SHARDS, &opts).unwrap();
    root
}

fn oracle_outcomes(
    corpus: &InMemoryCorpus,
    queries: &[Vec<TokenId>],
    compress: bool,
    packed: bool,
    tag: &str,
) -> Vec<SearchOutcome> {
    let dir = scratch("chaos", tag);
    build_and_write(corpus, config(compress, packed), &dir, true).unwrap();
    let index = DiskIndex::open(&dir).unwrap();
    let searcher = NearDupSearcher::new(&index).unwrap();
    let outcomes = queries
        .iter()
        .map(|q| searcher.search(q, THETA).unwrap())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    outcomes
}

/// The faulty shard's global text-id range `[lo, hi)`.
fn text_bounds(view: &ShardedIndex, shard: usize) -> (TextId, TextId) {
    let range = view.texts_of(shard);
    (range.start, range.end)
}

/// Matches restricted to text ids outside `[lo, hi)` — the sibling
/// shards' contribution, which must never be perturbed by a fault in
/// `[lo, hi)`.
fn outside(matches: &[TextMatch], lo: TextId, hi: TextId) -> Vec<TextMatch> {
    matches
        .iter()
        .filter(|m| m.text < lo || m.text >= hi)
        .cloned()
        .collect()
}

/// A degraded outcome must label exactly the faulty shard — its ordinal,
/// its full text range, and a classification the armed mode can produce —
/// and must not smuggle matches from the unsearched range.
fn assert_degraded_exactly(
    outcome: &SearchOutcome,
    view: &ShardedIndex,
    faulty: usize,
    allowed: &[FaultKind],
    ctx: &str,
) {
    let (lo, hi) = text_bounds(view, faulty);
    assert!(!outcome.complete, "degraded outcome must say so ({ctx})");
    assert_eq!(
        outcome.degraded.len(),
        1,
        "exactly one shard degraded ({ctx}): {:?}",
        outcome.degraded
    );
    let d = &outcome.degraded[0];
    assert_eq!(d.shard, faulty, "wrong shard labeled ({ctx})");
    assert_eq!(d.first_text, lo, "wrong first_text ({ctx})");
    assert_eq!(d.num_texts, (hi - lo) as u64, "wrong num_texts ({ctx})");
    assert!(
        allowed.contains(&d.kind),
        "kind {:?} not among {allowed:?} ({ctx}; reason: {})",
        d.kind,
        d.reason
    );
    assert!(
        !d.reason.is_empty(),
        "reason must be human-readable ({ctx})"
    );
    assert!(
        outcome.matches.iter().all(|m| m.text < lo || m.text >= hi),
        "degraded outcome reported matches from the unsearched range ({ctx})"
    );
}

/// Fault kinds each armed mode may legitimately classify to. A transient
/// storm exhausts the IO retry budget (transient); EOF means the file no
/// longer matches its header (corruption); denial is permanent; XOR bit
/// rot surfaces wherever a decode or bounds check first notices
/// (corruption), or occasionally as a short/failed read (transient).
fn allowed_kinds(mode: FaultMode) -> &'static [FaultKind] {
    match mode {
        FaultMode::Storm => &[FaultKind::Transient],
        FaultMode::Eof => &[FaultKind::Corruption],
        FaultMode::Deny => &[FaultKind::Permanent],
        FaultMode::Corrupt => &[FaultKind::Corruption, FaultKind::Transient],
        FaultMode::Off | FaultMode::Flaky => &[],
    }
}

/// One seeded chaos scenario over a live library-level view: healthy →
/// armed (degrade + quarantine) → disarmed (probe heals) → bit-identical
/// again. Returns whether the armed fault was *detected* (corruption via
/// XOR can decode to garbage that downstream validation rejects on some
/// but not all reads; everything else must always detect).
fn chaos_scenario(
    store: &Path,
    oracle: &[SearchOutcome],
    queries: &[Vec<TokenId>],
    mode: FaultMode,
    mmap: bool,
    faulty: usize,
    ctx: &str,
) -> bool {
    let plan = FaultPlan::new(&format!("shard-{faulty:04}"), 0);
    let io = ndss::index::ReadOptions {
        mmap,
        faults: Some(plan.clone()),
    };
    // Caching stays off: a warmed posting cache would satisfy the armed
    // rounds without ever touching the tapped files.
    let options = ServingOptions {
        cache: CacheConfig::disabled(),
        io,
        breaker: breaker_cfg(),
    };
    let view = ShardedIndex::open_with(store, &options).unwrap();
    assert_eq!(view.num_shards(), SHARDS);
    assert!(plan.attached() > 0, "tap attached to no files ({ctx})");
    let (lo, hi) = text_bounds(&view, faulty);
    let searcher = view
        .searcher()
        .unwrap()
        .threads(SHARDS)
        .fault_policy(FaultPolicy::Isolate);

    // Healthy phase: dormant tap is invisible.
    for (q, want) in queries.iter().zip(oracle) {
        let got = searcher.search(q, THETA).unwrap();
        assert!(
            got.complete && got.degraded.is_empty(),
            "dormant tap degraded ({ctx})"
        );
        assert_eq!(
            got.matches, want.matches,
            "dormant tap perturbed results ({ctx})"
        );
    }

    // Armed phase: every search must be contained. The shard either
    // faults (degraded outcome labeling exactly its range) or — for
    // undetected bit rot only — keeps answering; siblings stay exact
    // either way once the shard is out.
    plan.arm(mode);
    let mut detected = false;
    // An instant no later than the breaker's trip: taken before the search
    // that trips it.
    let mut before_trip = Instant::now();
    for round in 0..8 {
        let i = round % queries.len();
        before_trip = Instant::now();
        let got = searcher.search(&queries[i], THETA).unwrap_or_else(|e| {
            panic!("isolate policy must contain shard faults, got: {e} ({ctx})")
        });
        if got.degraded.is_empty() {
            assert!(
                mode == FaultMode::Corrupt,
                "{mode:?} must always be detected, round {round} ({ctx})"
            );
        } else {
            detected = true;
            assert_degraded_exactly(&got, &view, faulty, allowed_kinds(mode), ctx);
            assert_eq!(
                outside(&got.matches, lo, hi),
                outside(&oracle[i].matches, lo, hi),
                "sibling shards diverged from the oracle while degraded ({ctx})"
            );
        }
        if view.health().state(faulty) == BreakerState::Open {
            break;
        }
    }
    if detected {
        assert_eq!(
            view.health().state(faulty),
            BreakerState::Open,
            "detected faults must quarantine within the sweep ({ctx})"
        );
        assert_eq!(view.health().quarantined(), vec![faulty]);

        // Quarantined phase: the shard is skipped without touching its
        // files — the tap's injection count stays frozen while the
        // breaker holds. Once the backoff window has passed a half-open
        // probe may read (and fault) again, so on a host too slow to
        // finish the phase inside the window only the labels are checked.
        let frozen = plan.injected();
        for i in 0..queries.len() {
            let got = searcher.search(&queries[i], THETA).unwrap();
            assert_degraded_exactly(&got, &view, faulty, allowed_kinds(mode), ctx);
            assert_eq!(
                outside(&got.matches, lo, hi),
                outside(&oracle[i].matches, lo, hi)
            );
        }
        if before_trip.elapsed() < breaker_cfg().backoff {
            assert_eq!(
                plan.injected(),
                frozen,
                "quarantined shard was still being read ({ctx})"
            );
        }
    }

    // Healed phase: disarm, wait out the backoff, and search until the
    // half-open probe closes the breaker. Responses must return to
    // complete and bit-identical — recovery needs no reopen because the
    // fault was in the IO path, not the bytes on disk.
    plan.disarm();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = searcher.search(&queries[0], THETA).unwrap();
        if got.complete {
            assert!(got.degraded.is_empty());
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no recovery within 10s of disarming ({ctx})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for (q, want) in queries.iter().zip(oracle) {
        let got = searcher.search(q, THETA).unwrap();
        assert!(got.complete && got.degraded.is_empty());
        assert_eq!(
            got.matches, want.matches,
            "post-recovery divergence ({ctx})"
        );
    }
    assert_eq!(view.health().state(faulty), BreakerState::Closed);
    detected
}

/// The 48 tap-based scenarios: every format × read path × armed mode ×
/// seed, each against the single-index oracle.
#[test]
fn chaos_sweep_across_formats_read_paths_and_fault_kinds() {
    let mut ran = 0usize;
    let mut corrupt_detected = 0usize;
    let mut corrupt_ran = 0usize;
    for seed in SEEDS {
        let (corpus, queries) = workload(seed);
        let faulty = (seed as usize) % SHARDS;
        for (compress, packed, format) in FORMATS {
            let store = build_store(&corpus, compress, packed, &format!("sweep_{format}_{seed}"));
            let oracle = oracle_outcomes(
                &corpus,
                &queries,
                compress,
                packed,
                &format!("sweep_oracle_{format}_{seed}"),
            );
            for mmap in [false, true] {
                for (mode, mode_name) in CHAOS_MODES {
                    let ctx = format!(
                        "{format}/{}/{mode_name}/seed {seed}/shard {faulty}",
                        if mmap { "mmap" } else { "pread" }
                    );
                    let detected =
                        chaos_scenario(&store, &oracle, &queries, mode, mmap, faulty, &ctx);
                    ran += 1;
                    if mode == FaultMode::Corrupt {
                        corrupt_ran += 1;
                        corrupt_detected += detected as usize;
                    } else {
                        assert!(detected, "{ctx}: mode must always be detected");
                    }
                }
            }
            std::fs::remove_dir_all(&store).ok();
        }
    }
    assert_eq!(ran, 48, "the sweep grid must stay complete");
    // Bit rot must be *caught* by the validation layers in the vast
    // majority of scenarios — a silent-corruption regression would show
    // up here as a detection collapse.
    assert!(
        corrupt_detected * 2 > corrupt_ran,
        "XOR corruption detected in only {corrupt_detected}/{corrupt_ran} scenarios"
    );
    println!(
        "chaos-sweep: {ran} scenarios, zero panics, corruption detected {corrupt_detected}/{corrupt_ran}"
    );
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

/// The 12 deletion + repair scenarios: a shard's serving generation is
/// deleted out from under a live view (live reads keep answering from
/// their open descriptors — a deliberately pinned unix property), on-disk
/// verification reports the shard unhealthy (what keeps the prober from
/// re-admitting it), restoring the files makes verification pass again,
/// and a fresh open — the forced-reload analog — serves complete,
/// bit-identical results.
#[test]
fn deletion_and_repair_round_trips_through_verification() {
    let mut ran = 0usize;
    for seed in SEEDS {
        let (corpus, queries) = workload(seed);
        let faulty = (seed as usize) % SHARDS;
        for (compress, packed, format) in FORMATS {
            let pristine = build_store(&corpus, compress, packed, &format!("del_{format}_{seed}"));
            let oracle = oracle_outcomes(
                &corpus,
                &queries,
                compress,
                packed,
                &format!("del_oracle_{format}_{seed}"),
            );
            for mmap in [false, true] {
                let ctx = format!(
                    "deletion/{format}/{}/seed {seed}/shard {faulty}",
                    if mmap { "mmap" } else { "pread" }
                );
                let work = scratch(
                    "chaos",
                    &format!(
                        "del_work_{format}_{seed}_{}",
                        if mmap { "mmap" } else { "pread" }
                    ),
                );
                copy_tree(&pristine, &work);

                let options = ServingOptions {
                    io: ndss::index::ReadOptions {
                        mmap,
                        ..Default::default()
                    },
                    ..ServingOptions::default()
                };
                let view = ShardedIndex::open_with(&work, &options).unwrap();
                let searcher = view.searcher().unwrap().threads(SHARDS);

                // Delete the faulty shard's current serving generation.
                let store = ShardedStore::open(&work).unwrap();
                store
                    .verify_shard(faulty)
                    .unwrap_or_else(|e| panic!("pristine copy failed verification ({ctx}): {e}"));
                let serving = store.serving_dir(faulty).unwrap();
                std::fs::remove_dir_all(&serving).unwrap();

                // On-disk health checks must notice; the live view, which
                // holds open descriptors, must not.
                assert!(
                    store.verify_shard(faulty).is_err(),
                    "deleted shard passed verification ({ctx})"
                );
                for (q, want) in queries.iter().zip(&oracle) {
                    let got = searcher.search(q, THETA).unwrap();
                    assert!(got.complete);
                    assert_eq!(
                        got.matches, want.matches,
                        "live view perturbed by on-disk deletion ({ctx})"
                    );
                }

                // Repair: restore the files, verification passes, and a
                // fresh open (what ServingIndex::force_reload performs)
                // serves complete results again.
                copy_tree(
                    &pristine.join(serving.strip_prefix(&work).unwrap()),
                    &serving,
                );
                store.spot_check_shard(faulty).unwrap_or_else(|e| {
                    panic!("repaired shard failed the spot check ({ctx}): {e}")
                });
                store
                    .verify_shard(faulty)
                    .unwrap_or_else(|e| panic!("repaired shard failed verification ({ctx}): {e}"));
                let reopened = ShardedIndex::open_with(&work, &options).unwrap();
                let searcher = reopened.searcher().unwrap().threads(SHARDS);
                for (q, want) in queries.iter().zip(&oracle) {
                    let got = searcher.search(q, THETA).unwrap();
                    assert!(got.complete && got.degraded.is_empty());
                    assert_eq!(got.matches, want.matches, "post-repair divergence ({ctx})");
                }
                ran += 1;
                std::fs::remove_dir_all(&work).ok();
            }
            std::fs::remove_dir_all(&pristine).ok();
        }
    }
    assert_eq!(ran, 12, "the deletion grid must stay complete");
    println!("chaos-deletion: {ran} scenarios, zero panics, full recovery");
}

/// `verify` reports the fault the read path saw: an exhausted transient
/// storm classifies as transient, a denied read as permanent, and only
/// bytes that fail their checksum as corruption — so the health prober's
/// path never mistakes a read fault for bit rot.
#[test]
fn verify_failures_classify_as_the_read_fault() {
    let (corpus, _) = workload(SEEDS[0]);
    for (compress, packed, format) in FORMATS {
        let dir = scratch("chaos", &format!("verify_classify_{format}"));
        build_and_write(&corpus, config(compress, packed), &dir, true).unwrap();
        let plan = FaultPlan::new("", 0);
        let io = ReadOptions::with_faults(plan.clone());
        let index = DiskIndex::open_with_io(&dir, CacheConfig::disabled(), io).unwrap();
        index.verify_integrity().unwrap();
        for (mode, kind) in [
            (FaultMode::Storm, FaultKind::Transient),
            (FaultMode::Deny, FaultKind::Permanent),
            (FaultMode::Corrupt, FaultKind::Corruption),
        ] {
            plan.arm(mode);
            let err = index
                .verify_integrity()
                .expect_err("an armed plan must fail verify");
            let got = ndss::query::classify(&QueryError::from(err));
            assert_eq!(got, Some(kind), "{format}: verify under {mode:?}");
        }
        plan.disarm();
        index.verify_integrity().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// When *every* shard faults, the searcher returns a classified
/// all-quarantined error instead of an empty "success".
#[test]
fn all_shards_faulting_is_an_error_not_an_empty_result() {
    let (corpus, queries) = workload(SEEDS[0]);
    let store = build_store(&corpus, false, true, "all_out");
    let plan = FaultPlan::new("shard-", 0); // taps every shard
    let view =
        ShardedIndex::open_with(&store, &chaos_options(&plan, CacheConfig::default())).unwrap();
    let searcher = view
        .searcher()
        .unwrap()
        .threads(SHARDS)
        .fault_policy(FaultPolicy::Isolate);

    plan.arm(FaultMode::Deny);
    let err = searcher
        .search(&queries[0], THETA)
        .expect_err("an answer built from zero shards is not an answer");
    match err {
        QueryError::AllShardsQuarantined { shards, kind, .. } => {
            assert_eq!(shards, SHARDS);
            assert_eq!(kind, FaultKind::Permanent);
        }
        other => panic!("expected AllShardsQuarantined, got: {other}"),
    }
    // And once quarantined (no shard is touched), the skip-path error
    // still reports the breakers' recorded cause.
    let err = searcher.search(&queries[0], THETA).expect_err("still out");
    assert!(matches!(err, QueryError::AllShardsQuarantined { .. }));

    plan.disarm();
    std::thread::sleep(breaker_cfg().backoff + Duration::from_millis(20));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match searcher.search(&queries[0], THETA) {
            Ok(outcome) if outcome.complete => break,
            Ok(_) | Err(QueryError::AllShardsQuarantined { .. }) => {}
            Err(e) => panic!("unexpected error during recovery: {e}"),
        }
        assert!(Instant::now() < deadline, "no recovery after disarm");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::fs::remove_dir_all(&store).ok();
}

/// The fail-fast default is untouched by all of this: the same armed
/// fault that Isolate contains makes a FailFast search return the
/// underlying error, exactly as PR 8 specified.
#[test]
fn fail_fast_policy_still_propagates_shard_errors() {
    let (corpus, queries) = workload(SEEDS[1]);
    let store = build_store(&corpus, false, false, "failfast");
    let plan = FaultPlan::new("shard-0001", 0);
    let view =
        ShardedIndex::open_with(&store, &chaos_options(&plan, CacheConfig::default())).unwrap();
    let searcher = view.searcher().unwrap().threads(SHARDS); // default policy

    plan.arm(FaultMode::Deny);
    let err = searcher.search(&queries[0], THETA).expect_err("fail fast");
    assert!(
        !matches!(err, QueryError::AllShardsQuarantined { .. }),
        "fail-fast must surface the shard's own error, got: {err}"
    );
    // Breakers are bypassed entirely under fail-fast.
    assert_eq!(view.health().state(1), BreakerState::Closed);
    std::fs::remove_dir_all(&store).ok();
}

// ---------------------------------------------------------------------------
// Daemon-level chaos: the same fault story through real sockets.
// ---------------------------------------------------------------------------

fn chaos_server(
    store: &Path,
    plan: &FaultPlan,
    probe_interval: Option<Duration>,
) -> ndss::serve::RunningServer {
    let serving =
        ServingIndex::open_with_options(store, chaos_options(plan, CacheConfig::disabled()))
            .unwrap();
    Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            admission_cap: 8,
            probe_interval,
            ..ServeConfig::default()
        },
        serving,
    )
    .unwrap()
    .spawn()
}

fn search_body(query: &[u32]) -> String {
    let tokens: Vec<String> = query.iter().map(|t| t.to_string()).collect();
    format!("{{\"query\":[{}],\"theta\":{THETA}}}", tokens.join(","))
}

/// End to end over HTTP and NDSB: a shard faults under the live daemon,
/// responses degrade with exact labels on both protocols, `/metrics`
/// exposes the breaker + quarantine + degraded counters (validated
/// exposition), and the background prober re-admits the shard — recovery
/// to `complete: true` with no restart and no operator `/reload`.
#[test]
fn daemon_degrades_labels_exactly_and_self_heals() {
    let (corpus, queries) = workload(SEEDS[0]);
    let store = build_store(&corpus, false, true, "daemon");
    let faulty = 2usize;
    let plan = FaultPlan::new(&format!("shard-{faulty:04}"), 0);
    let server = chaos_server(&store, &plan, Some(Duration::from_millis(50)));
    let addr = server.handle().addr();

    let view = ShardedIndex::open(&store).unwrap();
    let (lo, hi) = text_bounds(&view, faulty);

    let mut http = HttpClient::connect(addr, TIMEOUT).unwrap();
    let body = search_body(&queries[0]);

    // Healthy: complete, no degraded ranges.
    let reply = http.request("POST", "/search", body.as_bytes()).unwrap();
    assert_eq!(reply.status, 200, "search: {}", reply.text());
    let doc = ndss::json::Json::parse(&reply.text()).unwrap();
    assert!(matches!(
        doc.get("complete"),
        Some(ndss::json::Json::Bool(true))
    ));
    assert!(doc.get("degraded_shards").is_none());

    // Fault the shard under the live daemon: responses must degrade with
    // the exact range, on both protocols.
    plan.arm(FaultMode::Deny);
    let deadline = Instant::now() + Duration::from_secs(10);
    let degraded_doc = loop {
        let reply = http.request("POST", "/search", body.as_bytes()).unwrap();
        assert_eq!(reply.status, 200, "degraded search: {}", reply.text());
        let doc = ndss::json::Json::parse(&reply.text()).unwrap();
        if doc.get("degraded_shards").is_some() {
            break doc;
        }
        // The prober may have force-reloaded between requests (on-disk
        // bytes are clean; only the IO path is poisoned), resetting the
        // breakers — the next request re-trips them.
        assert!(Instant::now() < deadline, "no degraded response within 10s");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(matches!(
        degraded_doc.get("complete"),
        Some(ndss::json::Json::Bool(false))
    ));
    let shards = degraded_doc
        .get("degraded_shards")
        .and_then(|v| v.as_array())
        .unwrap();
    assert_eq!(shards.len(), 1);
    let d = &shards[0];
    assert_eq!(
        d.get("shard").and_then(|v| v.as_u64()).unwrap(),
        faulty as u64
    );
    assert_eq!(
        d.get("first_text").and_then(|v| v.as_u64()).unwrap(),
        lo as u64
    );
    assert_eq!(
        d.get("num_texts").and_then(|v| v.as_u64()).unwrap(),
        (hi - lo) as u64
    );
    assert_eq!(d.get("kind").and_then(|v| v.as_str()).unwrap(), "permanent");

    // Same story over the binary framing: STATUS_DEGRADED decodes as a
    // result carrying the same range.
    let mut frames = FrameClient::connect(addr, TIMEOUT).unwrap();
    let wire = frames
        .search(&SearchRequest {
            theta: THETA,
            deadline_ms: 0,
            top: 0,
            query: queries[0].clone(),
        })
        .unwrap()
        .expect("degraded responses decode as results, not errors");
    if !wire.complete {
        assert_eq!(wire.degraded.len(), 1);
        assert_eq!(wire.degraded[0].shard, faulty as u32);
        assert_eq!(wire.degraded[0].first_text, lo);
        assert_eq!(wire.degraded[0].num_texts, (hi - lo) as u64);
        assert_eq!(wire.degraded[0].kind, 2, "permanent on the wire");
    }

    // The exposition names the breaker, quarantine, degraded-response,
    // and probe instruments — and still validates.
    let metrics = http.request("GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    ndss::obs::validate_prometheus_text(&text)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}"));
    for needle in [
        "index_shard_breaker",
        "index_shard_breaker_trips",
        "index_shards_quarantined",
        "serve_degraded",
        "serve_probe_attempts",
        "serve_conn_accepted",
        "serve_conn_reuse_ratio_percent",
    ] {
        assert!(text.contains(needle), "metrics exposition lacks {needle}");
    }

    // Self-healing: lift the fault and wait for the prober to verify the
    // on-disk store and force a reload. No restart, no /reload.
    plan.disarm();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = http.request("POST", "/search", body.as_bytes()).unwrap();
        assert_eq!(reply.status, 200);
        let doc = ndss::json::Json::parse(&reply.text()).unwrap();
        if matches!(doc.get("complete"), Some(ndss::json::Json::Bool(true))) {
            assert!(doc.get("degraded_shards").is_none());
            break;
        }
        assert!(
            Instant::now() < deadline,
            "prober did not re-admit the repaired shard within 10s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let report = server.shutdown_and_join().unwrap();
    assert!(report.http_requests >= 4);
    std::fs::remove_dir_all(&store).ok();
}
