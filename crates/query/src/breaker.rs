//! Per-shard fault isolation: error taxonomy and circuit breakers.
//!
//! A sharded scatter-gather (PR 8) fails the whole query when any shard
//! errors, and keeps re-failing on every subsequent request while the sick
//! shard stays sick. This module gives each shard a **circuit breaker** so
//! a runtime fault (bit rot surfacing mid-read, a torn disk, an
//! interrupted read) is contained to the shard it happened on:
//!
//! - **closed** — healthy; queries flow. Consecutive transient failures
//!   count toward the trip threshold; one corruption or permanent fault
//!   trips immediately (retrying cannot help).
//! - **open** — quarantined; the shard is skipped without touching its
//!   files until a backoff deadline passes. Backoff doubles per trip up to
//!   a cap, so a flapping shard converges to the cap instead of thrashing.
//! - **half-open** — the backoff expired and exactly one request (or the
//!   health prober) is admitted as a probe. Success closes the breaker;
//!   failure re-opens it with doubled backoff.
//!
//! The taxonomy ([`FaultKind`]) separates what *can* heal by waiting
//! (transient IO) from what needs repair (corruption) or operator action
//! (permanent: deleted/forbidden files). The serving layer surfaces
//! quarantined shards as [`DegradedShard`] ranges on otherwise-successful
//! responses, preserving per-healthy-shard soundness while labeling
//! exactly which text-id ranges went unsearched.
//!
//! All state is atomics: admission on the healthy path is one relaxed
//! load, so breakers cost nothing measurable per query (the serve bench
//! gates this < 2%).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ndss_corpus::TextId;

use crate::QueryError;

/// What a per-shard query failure tells us about the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Backoff-and-retry may heal it: interrupted reads, timeouts,
    /// transient resource exhaustion.
    Transient,
    /// The shard's bytes are wrong: malformed structures, failed
    /// checksums, truncation. Needs repair + re-verification, not retry.
    Corruption,
    /// The shard is gone or forbidden (deleted directory, permission
    /// change). Needs operator action; probing is still cheap enough to
    /// notice repair.
    Permanent,
}

impl FaultKind {
    /// Stable lowercase label for metrics and degraded-response payloads.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Corruption => "corruption",
            FaultKind::Permanent => "permanent",
        }
    }

    /// Stable wire encoding: transient 0, corruption 1, permanent 2.
    pub fn as_wire(&self) -> u8 {
        match self {
            FaultKind::Transient => 0,
            FaultKind::Corruption => 1,
            FaultKind::Permanent => 2,
        }
    }
}

/// Classifies a per-shard query error, or `None` when the error is not a
/// shard fault (budget trips, admission sheds, caller mistakes) and must
/// keep propagating unchanged.
pub fn classify(err: &QueryError) -> Option<FaultKind> {
    use ndss_index::IndexError;
    match err {
        QueryError::Index(IndexError::Io(e)) => Some(match e.kind() {
            std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut => FaultKind::Transient,
            // A read past the recorded section length means the file no
            // longer matches its own header: truncation-style corruption.
            std::io::ErrorKind::UnexpectedEof => FaultKind::Corruption,
            std::io::ErrorKind::NotFound | std::io::ErrorKind::PermissionDenied => {
                FaultKind::Permanent
            }
            _ => FaultKind::Transient,
        }),
        QueryError::Index(IndexError::Malformed(_))
        | QueryError::Index(IndexError::FunctionOutOfRange(..)) => Some(FaultKind::Corruption),
        QueryError::Index(IndexError::Corpus(_)) | QueryError::Corpus(_) => {
            Some(FaultKind::Corruption)
        }
        _ => None,
    }
}

/// Breaker tuning; the defaults suit a serving daemon (trip fast, probe
/// after a second, never back off more than a minute).
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive transient failures that trip the breaker. Corruption
    /// and permanent faults trip on the first occurrence regardless.
    pub failure_threshold: u32,
    /// Quarantine duration after the first trip.
    pub backoff: Duration,
    /// Backoff ceiling; doubling stops here.
    pub max_backoff: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            backoff: Duration::from_secs(1),
            max_backoff: Duration::from_secs(60),
        }
    }
}

/// Breaker position, for metrics and status reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy; queries flow.
    Closed,
    /// Quarantined; queries skip the shard until the backoff passes.
    Open,
    /// One probe in flight deciding between the two.
    HalfOpen,
}

impl BreakerState {
    /// Stable gauge encoding: closed 0, open 1, half-open 2.
    pub fn as_gauge(&self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

const STATE_CLOSED: u32 = 0;
const STATE_OPEN: u32 = 1;
const STATE_HALF_OPEN: u32 = 2;

/// What the breaker says about an arriving query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed: search the shard normally.
    Admit,
    /// Half-open: this caller won the probe slot; its result decides the
    /// breaker. Exactly one `Probe` is granted per backoff expiry.
    Probe,
    /// Open (or a probe is already in flight): skip the shard.
    Quarantined,
}

/// One shard's circuit breaker. All methods are lock-free on the healthy
/// path; the `last_fault` label takes a mutex only when a failure is
/// being recorded or a degraded response is being built.
pub struct ShardBreaker {
    state: AtomicU32,
    consecutive: AtomicU32,
    /// Quarantine deadline, µs since `epoch`.
    open_until_us: AtomicU64,
    /// Next quarantine duration in ms (doubles per trip).
    backoff_ms: AtomicU64,
    trips: AtomicU64,
    last_fault: Mutex<Option<(FaultKind, String)>>,
}

impl ShardBreaker {
    fn new() -> Self {
        Self {
            state: AtomicU32::new(STATE_CLOSED),
            consecutive: AtomicU32::new(0),
            open_until_us: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            last_fault: Mutex::new(None),
        }
    }

    fn state(&self) -> BreakerState {
        match self.state.load(Relaxed) {
            STATE_OPEN => BreakerState::Open,
            STATE_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    fn admit(&self, now_us: u64, config: &BreakerConfig) -> Admission {
        // `failure_threshold == 0` disables the breaker entirely.
        if config.failure_threshold == 0 {
            return Admission::Admit;
        }
        match self.state.load(Relaxed) {
            STATE_CLOSED => Admission::Admit,
            STATE_HALF_OPEN => Admission::Quarantined,
            _ => {
                if now_us < self.open_until_us.load(Relaxed) {
                    return Admission::Quarantined;
                }
                // Backoff expired: exactly one caller flips open →
                // half-open and probes; the rest stay quarantined.
                if self
                    .state
                    .compare_exchange(STATE_OPEN, STATE_HALF_OPEN, Relaxed, Relaxed)
                    .is_ok()
                {
                    Admission::Probe
                } else {
                    Admission::Quarantined
                }
            }
        }
    }

    fn record_success(&self) {
        self.consecutive.store(0, Relaxed);
        self.backoff_ms.store(0, Relaxed);
        if self.state.swap(STATE_CLOSED, Relaxed) != STATE_CLOSED {
            *self.last_fault.lock().unwrap() = None;
        }
    }

    fn record_failure(&self, kind: FaultKind, reason: &str, now_us: u64, config: &BreakerConfig) {
        *self.last_fault.lock().unwrap() = Some((kind, reason.to_string()));
        let was = self.state.load(Relaxed);
        let consecutive = self.consecutive.fetch_add(1, Relaxed) + 1;
        let trip = was == STATE_HALF_OPEN // a failed probe always re-opens
            || kind != FaultKind::Transient
            || consecutive >= config.failure_threshold;
        if trip {
            self.trip(now_us, config);
        }
    }

    fn trip(&self, now_us: u64, config: &BreakerConfig) {
        // `as_millis` is u128: a pathological `Duration` must saturate, not
        // truncate (a truncated cap can wrap the doubling loop back to tiny
        // backoffs on long uptimes). The base is clamped at the cap too, so
        // the very first trip already honours `max_backoff`.
        let base = u64::try_from(config.backoff.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        let cap = u64::try_from(config.max_backoff.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        let prev = self.backoff_ms.load(Relaxed);
        let next = if prev == 0 {
            base
        } else {
            prev.saturating_mul(2)
        }
        .min(cap);
        self.backoff_ms.store(next, Relaxed);
        self.open_until_us
            .store(now_us.saturating_add(next.saturating_mul(1000)), Relaxed);
        self.state.store(STATE_OPEN, Relaxed);
        self.consecutive.store(0, Relaxed);
        self.trips.fetch_add(1, Relaxed);
    }

    fn last_fault(&self) -> (FaultKind, String) {
        self.last_fault
            .lock()
            .unwrap()
            .clone()
            .unwrap_or((FaultKind::Transient, "unknown".to_string()))
    }
}

/// A text-id range the response does **not** cover because its shard is
/// quarantined. `first_text .. first_text + num_texts` went unsearched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedShard {
    /// Shard ordinal in the manifest.
    pub shard: usize,
    /// First global text id the shard owns.
    pub first_text: TextId,
    /// Number of texts the shard owns (all unsearched).
    pub num_texts: u64,
    /// Why the shard is out.
    pub kind: FaultKind,
    /// Human-readable cause (the classified error, or the breaker's last
    /// recorded fault when the shard was skipped without being touched).
    pub reason: String,
}

/// Point-in-time view of one shard's breaker, for `/metrics` and status
/// endpoints.
#[derive(Debug, Clone)]
pub struct BreakerSnapshot {
    /// Shard ordinal.
    pub shard: usize,
    /// Current position.
    pub state: BreakerState,
    /// Cumulative closed→open transitions.
    pub trips: u64,
    /// Current backoff (ms) a quarantined shard is serving.
    pub backoff_ms: u64,
}

/// The breaker set for one opened view: one [`ShardBreaker`] per shard,
/// sharing a config and a time epoch. Lives inside the view (and thus
/// inside the `Arc` the serving layer pins), so state persists across
/// requests and resets naturally when a reload opens a fresh view.
pub struct ShardHealth {
    epoch: Instant,
    config: BreakerConfig,
    breakers: Vec<ShardBreaker>,
}

impl ShardHealth {
    /// A breaker per shard, all closed.
    pub fn new(num_shards: usize, config: BreakerConfig) -> Self {
        Self {
            epoch: Instant::now(),
            config,
            breakers: (0..num_shards).map(|_| ShardBreaker::new()).collect(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Admission decision for shard `i` right now.
    pub fn admit(&self, i: usize) -> Admission {
        self.breakers[i].admit(self.now_us(), &self.config)
    }

    /// Records a successful search (or probe) on shard `i`; closes the
    /// breaker and resets backoff.
    pub fn record_success(&self, i: usize) {
        self.breakers[i].record_success();
    }

    /// Records a classified failure on shard `i`; may trip the breaker.
    pub fn record_failure(&self, i: usize, kind: FaultKind, reason: &str) {
        self.breakers[i].record_failure(kind, reason, self.now_us(), &self.config);
    }

    /// Current state of shard `i`'s breaker.
    pub fn state(&self, i: usize) -> BreakerState {
        self.breakers[i].state()
    }

    /// The last fault recorded for shard `i` (kind + human-readable
    /// reason); a placeholder if none was ever recorded.
    pub fn last_fault(&self, i: usize) -> (FaultKind, String) {
        self.breakers[i].last_fault()
    }

    /// Shards currently not closed (open or half-open): the quarantine
    /// set a health prober should be re-verifying.
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.breakers.len())
            .filter(|&i| self.breakers[i].state() != BreakerState::Closed)
            .collect()
    }

    /// Per-shard snapshots for metrics export.
    pub fn snapshot(&self) -> Vec<BreakerSnapshot> {
        self.breakers
            .iter()
            .enumerate()
            .map(|(shard, b)| BreakerSnapshot {
                shard,
                state: b.state(),
                trips: b.trips.load(Relaxed),
                backoff_ms: b.backoff_ms.load(Relaxed),
            })
            .collect()
    }

    /// Number of shards covered.
    pub fn num_shards(&self) -> usize {
        self.breakers.len()
    }

    /// The config the set was built with.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u32, backoff_ms: u64) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: threshold,
            backoff: Duration::from_millis(backoff_ms),
            max_backoff: Duration::from_millis(backoff_ms * 8),
        }
    }

    /// Transient failures accumulate to the threshold; success resets the
    /// streak so intermittent blips never trip.
    #[test]
    fn transient_failures_trip_only_in_a_row() {
        let h = ShardHealth::new(1, cfg(3, 50));
        h.record_failure(0, FaultKind::Transient, "blip");
        h.record_failure(0, FaultKind::Transient, "blip");
        h.record_success(0);
        h.record_failure(0, FaultKind::Transient, "blip");
        h.record_failure(0, FaultKind::Transient, "blip");
        assert_eq!(h.state(0), BreakerState::Closed);
        h.record_failure(0, FaultKind::Transient, "blip");
        assert_eq!(h.state(0), BreakerState::Open);
        assert_eq!(h.admit(0), Admission::Quarantined);
    }

    /// Corruption and permanent faults trip on first sight.
    #[test]
    fn hard_faults_trip_immediately() {
        for kind in [FaultKind::Corruption, FaultKind::Permanent] {
            let h = ShardHealth::new(1, cfg(3, 50));
            h.record_failure(0, kind, "boom");
            assert_eq!(h.state(0), BreakerState::Open);
            assert_eq!(h.last_fault(0).0, kind);
        }
    }

    /// After the backoff expires exactly one caller gets the probe slot;
    /// a successful probe closes the breaker, a failed one re-opens it
    /// with doubled backoff.
    #[test]
    fn half_open_grants_one_probe() {
        let h = ShardHealth::new(1, cfg(1, 10));
        h.record_failure(0, FaultKind::Transient, "x");
        assert_eq!(h.state(0), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(h.admit(0), Admission::Probe);
        assert_eq!(h.admit(0), Admission::Quarantined, "probe slot is single");
        h.record_success(0);
        assert_eq!(h.state(0), BreakerState::Closed);
        assert_eq!(h.admit(0), Admission::Admit);

        // Failed probe: backoff doubles.
        h.record_failure(0, FaultKind::Transient, "x");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(h.admit(0), Admission::Probe);
        h.record_failure(0, FaultKind::Transient, "still bad");
        let snap = &h.snapshot()[0];
        assert_eq!(snap.state, BreakerState::Open);
        assert_eq!(snap.backoff_ms, 20, "second trip doubles the 10ms base");
        assert_eq!(snap.trips, 3);
    }

    /// Backoff doubling is capped at `max_backoff`.
    #[test]
    fn backoff_is_bounded() {
        let h = ShardHealth::new(1, cfg(1, 10));
        for _ in 0..10 {
            h.record_failure(0, FaultKind::Corruption, "rot");
            std::thread::sleep(Duration::from_millis(1));
            // Force re-arm without waiting out the backoff: trip again.
        }
        let snap = &h.snapshot()[0];
        assert!(snap.backoff_ms <= 80, "cap is 8× base: {}", snap.backoff_ms);
    }

    /// The doubling loop at the overflow boundary: a pathologically large
    /// `max_backoff` must saturate (u128 → u64) instead of truncating —
    /// a truncated cap can wrap the doubled backoff back to a tiny value
    /// on long uptimes — and repeated trips at `u64::MAX` ms must stay
    /// pinned there rather than wrapping around zero.
    #[test]
    fn backoff_doubling_saturates_at_the_overflow_boundary() {
        let h = ShardHealth::new(
            1,
            BreakerConfig {
                failure_threshold: 1,
                backoff: Duration::from_millis(u64::MAX),
                max_backoff: Duration::MAX, // as_millis() > u64::MAX
            },
        );
        for trip in 1..=3 {
            h.record_failure(0, FaultKind::Corruption, "rot");
            let snap = &h.snapshot()[0];
            assert_eq!(
                snap.backoff_ms,
                u64::MAX,
                "trip {trip} wrapped instead of saturating"
            );
            assert_eq!(snap.state, BreakerState::Open);
            // A saturated deadline must still quarantine (no wrap past now).
            assert_eq!(h.admit(0), Admission::Quarantined);
        }
    }

    /// A base backoff above the ceiling is clamped from the very first
    /// trip, not only once doubling begins.
    #[test]
    fn first_trip_honours_max_backoff() {
        let h = ShardHealth::new(
            1,
            BreakerConfig {
                failure_threshold: 1,
                backoff: Duration::from_millis(100),
                max_backoff: Duration::from_millis(30),
            },
        );
        h.record_failure(0, FaultKind::Corruption, "rot");
        assert_eq!(h.snapshot()[0].backoff_ms, 30);
    }

    /// `failure_threshold == 0` disables the breaker: even a tripped
    /// shard admits queries.
    #[test]
    fn zero_threshold_disables() {
        let h = ShardHealth::new(1, cfg(0, 10));
        h.record_failure(0, FaultKind::Corruption, "rot");
        assert_eq!(h.admit(0), Admission::Admit);
    }

    /// Error classification: IO kinds map to the right taxonomy and
    /// non-shard errors stay unclassified.
    #[test]
    fn classification_taxonomy() {
        use ndss_index::IndexError;
        let io = |kind| QueryError::Index(IndexError::Io(std::io::Error::new(kind, "x")));
        assert_eq!(
            classify(&io(std::io::ErrorKind::Interrupted)),
            Some(FaultKind::Transient)
        );
        assert_eq!(
            classify(&io(std::io::ErrorKind::TimedOut)),
            Some(FaultKind::Transient)
        );
        assert_eq!(
            classify(&io(std::io::ErrorKind::UnexpectedEof)),
            Some(FaultKind::Corruption)
        );
        assert_eq!(
            classify(&io(std::io::ErrorKind::NotFound)),
            Some(FaultKind::Permanent)
        );
        assert_eq!(
            classify(&io(std::io::ErrorKind::PermissionDenied)),
            Some(FaultKind::Permanent)
        );
        assert_eq!(
            classify(&QueryError::Index(IndexError::Malformed("bad".into()))),
            Some(FaultKind::Corruption)
        );
        assert_eq!(classify(&QueryError::EmptyQuery), None);
        assert_eq!(classify(&QueryError::Cancelled), None);
    }
}
