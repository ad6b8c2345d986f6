//! The daemon: accept loop, per-connection protocol dispatch, request
//! execution against a [`ServingIndex`], admission control, and graceful
//! drain.
//!
//! # Threading model
//!
//! One acceptor thread owns the (non-blocking) listener and polls it on a
//! short interval, so it observes the drain flag promptly. Each accepted
//! connection is served start-to-finish by one handler thread from a
//! bounded pool: when `workers` connections are already active the
//! acceptor *rejects* the newcomer with an overload response instead of
//! queueing it — overload is an explicit, immediate signal, never an
//! unbounded backlog. Handler sockets carry a short read timeout, so idle
//! keep-alive connections poll the drain flag instead of blocking drain
//! forever.
//!
//! # Admission and budgets
//!
//! Two layers:
//!
//! 1. **Connection admission** — at most `workers` concurrent connections;
//!    beyond that the acceptor answers HTTP 503 / `STATUS_OVERLOADED` and
//!    closes.
//! 2. **Query admission** — at most `admission_cap` searches execute at
//!    once; beyond that a request is shed with HTTP 429 /
//!    `STATUS_OVERLOADED` (counted in `serve.shed`) without touching the
//!    index.
//!
//! Every admitted search runs under a [`QueryBudget`]: the server's
//! `default_deadline` becomes an absolute deadline measured from request
//! receipt (the per-connection deadline of the issue: a slow client cannot
//! park work), request-supplied `deadline_ms`/IO/candidate caps tighten
//! it, and a tripped budget returns the sound partial result marked
//! `complete = false` — the same semantics the CLI batch path has.
//!
//! # Drain
//!
//! `shutdown()` (or SIGTERM/SIGINT via [`Server::install_signal_hooks`],
//! or `POST /shutdown`) flips one flag: the acceptor stops accepting and
//! closes the listener; handlers finish the request they are executing —
//! pinned generation snapshots run to completion, nothing in flight is
//! dropped — answer anything already buffered on their socket, then close.
//! When the last handler exits, metrics are optionally flushed to
//! `metrics_out` and [`Server::run`] returns.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ndss_index::{CacheConfig, IngestIndex, IngestOptions};
use ndss_json::{Json, ObjectBuilder};
use ndss_query::{
    search, DegradedShard, FaultPolicy, PrefixFilter, QueryBudget, QueryError, RankedMatch,
    Resource, SearchOutcome, ServingIndex,
};

use crate::frame::{self, FrameOutcome, RequestPayload};
use crate::http::{self, ReadOutcome};
use crate::prober;
use crate::{ServeError, DEFAULT_ADDR};

/// Tuning for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `host:port` (port `0` picks a free port).
    pub addr: String,
    /// Connection-handler pool size = max concurrent connections.
    pub workers: usize,
    /// Max searches executing at once; further searches are shed.
    pub admission_cap: usize,
    /// Per-request deadline applied from the moment the request is read,
    /// unless the request asks for an earlier one. `None` = unbounded.
    pub default_deadline: Option<Duration>,
    /// Largest accepted HTTP body.
    pub max_body_bytes: usize,
    /// Socket read timeout — the granularity at which idle connections and
    /// the acceptor observe the drain flag.
    pub idle_poll: Duration,
    /// Prefix-filter policy for every query.
    pub filter: PrefixFilter,
    /// Cache sizing for each opened segment.
    pub cache: CacheConfig,
    /// Where to flush a final metrics snapshot on drain (`.prom`/`.txt` ⇒
    /// Prometheus text, anything else ⇒ JSON).
    pub metrics_out: Option<PathBuf>,
    /// How often the background health prober re-checks quarantined
    /// shards (spot-check, then full verification, then re-admission via
    /// forced reload). `None` disables self-healing — quarantined shards
    /// then only return through the breaker's own half-open probes.
    pub probe_interval: Option<Duration>,
    /// Streaming-ingest settings. `None` (the default) serves read-only;
    /// `Some` enables `POST /ingest`, overlays the memtable on every
    /// search, and spawns the background compactor.
    pub ingest: Option<IngestServeConfig>,
}

/// Ingest settings for a serving daemon.
#[derive(Debug, Clone)]
pub struct IngestServeConfig {
    /// The store the memtable lives in — must be the same store
    /// the [`ServingIndex`] serves, or overlay ids will not line up.
    pub store: PathBuf,
    /// WAL rotation threshold (bytes).
    pub flush_bytes: u64,
    /// Group-fsync cadence (appends per fsync); each `POST /ingest` also
    /// forces one before acking.
    pub fsync_every: u64,
    /// How often the background compactor checks for frozen segments to
    /// compact into the store. `None` disables background compaction (the
    /// memtable then only shrinks via an external `ndss ingest --seal`).
    pub compact_interval: Option<Duration>,
}

impl Default for IngestServeConfig {
    fn default() -> Self {
        let defaults = IngestOptions::default();
        IngestServeConfig {
            store: PathBuf::new(),
            flush_bytes: defaults.flush_bytes,
            fsync_every: defaults.fsync_every,
            compact_interval: Some(Duration::from_millis(500)),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServeConfig {
            addr: DEFAULT_ADDR.to_string(),
            workers: (cores * 2).max(4),
            admission_cap: cores.max(2),
            default_deadline: None,
            max_body_bytes: 16 << 20,
            idle_poll: Duration::from_millis(25),
            filter: PrefixFilter::default(),
            cache: CacheConfig::default(),
            metrics_out: None,
            probe_interval: Some(Duration::from_secs(1)),
            ingest: None,
        }
    }
}

pub(crate) struct ServeMetrics {
    connections: ndss_obs::Counter,
    connections_rejected: ndss_obs::Counter,
    active_connections: ndss_obs::Gauge,
    http_requests: ndss_obs::Counter,
    frame_requests: ndss_obs::Counter,
    searches: ndss_obs::Counter,
    shed: ndss_obs::Counter,
    bad_requests: ndss_obs::Counter,
    internal_errors: ndss_obs::Counter,
    request_seconds: ndss_obs::Histogram,
    in_flight: ndss_obs::Gauge,
    degraded: ndss_obs::Counter,
    unavailable: ndss_obs::Counter,
    conn_reused: ndss_obs::Counter,
    conn_closed: ndss_obs::Counter,
    reuse_ratio: ndss_obs::Gauge,
    quarantined: ndss_obs::Gauge,
    pub(crate) probe_attempts: ndss_obs::Counter,
    pub(crate) probe_recovered: ndss_obs::Counter,
    pub(crate) probe_failed: ndss_obs::Counter,
}

impl ServeMetrics {
    fn register(reg: &ndss_obs::Registry) -> Self {
        ServeMetrics {
            connections: reg.counter("serve.connections", "Connections accepted"),
            connections_rejected: reg.counter(
                "serve.connections.rejected",
                "Connections rejected because the handler pool was full",
            ),
            active_connections: reg.gauge(
                "serve.connections.active",
                "Connections currently being served",
            ),
            http_requests: reg.counter("serve.requests.http", "HTTP requests handled"),
            frame_requests: reg.counter("serve.requests.frame", "Binary frames handled"),
            searches: reg.counter("serve.searches", "Search requests admitted for execution"),
            shed: reg.counter(
                "serve.shed",
                "Search requests shed by the server's admission cap",
            ),
            bad_requests: reg.counter("serve.bad_requests", "Unparseable or invalid requests"),
            internal_errors: reg.counter("serve.errors", "Requests failed server-side"),
            request_seconds: reg.histogram(
                "serve.request.seconds",
                "Wall time from request decode to response write",
                ndss_obs::Unit::Seconds,
            ),
            in_flight: reg.gauge("serve.in_flight", "Searches currently executing"),
            degraded: reg.counter(
                "serve.degraded",
                "Search responses answered from a partial (degraded) shard set",
            ),
            unavailable: reg.counter(
                "serve.unavailable",
                "Search requests failed because every shard was quarantined",
            ),
            conn_reused: reg.counter(
                "serve.conn.reused",
                "Requests served on an already-open connection (beyond each \
                 connection's first request)",
            ),
            conn_closed: reg.counter("serve.conn.closed", "Connections closed"),
            reuse_ratio: reg.gauge(
                "serve.conn.reuse_ratio_percent",
                "Share of requests that reused an existing connection, in percent",
            ),
            quarantined: reg.gauge(
                "index.shards.quarantined",
                "Shards currently quarantined by their circuit breaker",
            ),
            probe_attempts: reg.counter(
                "serve.probe.attempts",
                "Health-prober re-verification attempts on quarantined shards",
            ),
            probe_recovered: reg.counter(
                "serve.probe.recovered",
                "Quarantined shards re-admitted after passing re-verification",
            ),
            probe_failed: reg.counter(
                "serve.probe.failed",
                "Health-prober re-verification attempts that failed",
            ),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) serving: ServingIndex,
    pub(crate) config: ServeConfig,
    draining: AtomicBool,
    in_flight: AtomicUsize,
    /// Connections being served (`Arc`: each handler thread owns its [`Slot`]).
    connections: Arc<AtomicUsize>,
    pub(crate) metrics: ServeMetrics,
    /// The mutable front of the store (when ingest is enabled). Appends,
    /// searches and compaction all serialize on this lock: a search holds
    /// it from pinning its snapshot through the scatter over disk and
    /// memory lanes and the ranking, so with ingest on every search waits
    /// out appends and a running `compact_once`.
    pub(crate) ingest: Option<Mutex<IngestIndex>>,
}

/// One unit of a bounded counter — an admission slot, a place in the
/// handler pool — given back when dropped, so a handler that panics returns
/// it while unwinding instead of leaking it for the life of the daemon.
struct Slot<C: std::ops::Deref<Target = AtomicUsize>>(C);

impl<C: std::ops::Deref<Target = AtomicUsize>> Slot<C> {
    /// Takes one unit of `counter`, or fails with the number already out
    /// when that is `cap` or more.
    fn take(counter: C, cap: usize) -> Result<Self, usize> {
        let before = counter.fetch_add(1, Ordering::AcqRel);
        let slot = Slot(counter);
        if before < cap {
            Ok(slot)
        } else {
            Err(before)
        }
    }
}

impl<C: std::ops::Deref<Target = AtomicUsize>> Drop for Slot<C> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed) || TERM_REQUESTED.load(Ordering::Relaxed)
    }

    /// Refreshes the gauges derived from breaker state: per-shard breaker
    /// position/trip counts and the quarantine count. Called when
    /// `/metrics` renders and by the health prober, so scrapes and probes
    /// both see current values.
    pub(crate) fn publish_breaker_metrics(&self) -> usize {
        let snapshot = self.serving.snapshot();
        let health = snapshot.health();
        let reg = ndss_obs::Registry::global();
        let mut quarantined = 0usize;
        for snap in health.snapshot() {
            if snap.state != ndss_query::BreakerState::Closed {
                quarantined += 1;
            }
            let shard = snap.shard.to_string();
            reg.gauge_with_labels(
                "index.shard.breaker",
                "Per-shard circuit-breaker state: 0 closed, 1 open, 2 half-open",
                &[("shard", &shard)],
            )
            .set(snap.state.as_gauge());
            reg.gauge_with_labels(
                "index.shard.breaker_trips",
                "Cumulative closed-to-open transitions per shard (current view)",
                &[("shard", &shard)],
            )
            .set(snap.trips.min(i64::MAX as u64) as i64);
        }
        self.metrics.quarantined.set(quarantined as i64);
        quarantined
    }
}

/// Remote-control handle for a [`Server`]: trigger drain, read the bound
/// address. Clonable and sendable across threads.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful drain: stop accepting, finish in-flight work,
    /// then [`Server::run`] returns. Idempotent.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
    }
}

/// A server spawned onto a background thread (tests, benches, embedding).
pub struct RunningServer {
    handle: ServerHandle,
    thread: std::thread::JoinHandle<Result<DrainReport, ServeError>>,
}

impl RunningServer {
    /// The control handle (address + shutdown).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Requests drain and waits for the acceptor and every handler to
    /// finish.
    pub fn shutdown_and_join(self) -> Result<DrainReport, ServeError> {
        self.handle.shutdown();
        self.thread.join().expect("server thread panicked")
    }
}

/// What a completed drain handed back.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// HTTP requests answered.
    pub http_requests: u64,
    /// Binary frames answered.
    pub frame_requests: u64,
    /// Searches shed by admission control.
    pub shed: u64,
}

/// Set by the SIGTERM/SIGINT hook; observed by every server in the
/// process.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
unsafe extern "C" fn on_terminate_signal(_signum: i32) {
    // A relaxed store to a static atomic is async-signal-safe.
    TERM_REQUESTED.store(true, Ordering::Relaxed);
}

/// The network front door over a [`ServingIndex`].
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listen socket. The index is opened by the caller (so open
    /// errors surface before forking off threads) and owned by the server.
    pub fn bind(config: ServeConfig, serving: ServingIndex) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Io)?;
        listener.set_nonblocking(true).map_err(ServeError::Io)?;
        let addr = listener.local_addr().map_err(ServeError::Io)?;
        let metrics = ServeMetrics::register(ndss_obs::Registry::global());
        let ingest = match &config.ingest {
            Some(cfg) => {
                let opts = IngestOptions {
                    flush_bytes: cfg.flush_bytes,
                    fsync_every: cfg.fsync_every,
                    ..IngestOptions::default()
                };
                // The serving index is already open, so the store has a
                // configuration to inherit — no `config_if_new` needed.
                let index = IngestIndex::open(&cfg.store, None, opts)
                    .map_err(|e| ServeError::Query(QueryError::Index(e)))?;
                Some(Mutex::new(index))
            }
            None => None,
        };
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                serving,
                config,
                draining: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
                connections: Arc::new(AtomicUsize::new(0)),
                metrics,
                ingest,
            }),
        })
    }

    /// The bound address (resolves a requested port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shared: self.shared.clone(),
        }
    }

    /// Routes SIGTERM and SIGINT into graceful drain for every server in
    /// this process. Installed by `ndss serve`; tests and embedded servers
    /// use [`ServerHandle::shutdown`] instead.
    #[cfg(unix)]
    pub fn install_signal_hooks() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_terminate_signal as *const () as usize);
            signal(SIGINT, on_terminate_signal as *const () as usize);
        }
    }

    #[cfg(not(unix))]
    pub fn install_signal_hooks() {}

    /// Spawns the accept loop onto a background thread.
    pub fn spawn(self) -> RunningServer {
        let handle = self.handle();
        let thread = std::thread::Builder::new()
            .name("ndss-serve-accept".into())
            .spawn(move || self.run())
            .expect("spawning the acceptor thread");
        RunningServer { handle, thread }
    }

    /// Runs the accept loop on the calling thread until drain completes.
    pub fn run(self) -> Result<DrainReport, ServeError> {
        let shared = self.shared;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let prober = shared.config.probe_interval.map(|interval| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ndss-serve-prober".into())
                .spawn(move || prober::run(&shared, interval))
                .expect("spawning the health prober")
        });
        let compactor = shared
            .config
            .ingest
            .as_ref()
            .and_then(|cfg| cfg.compact_interval)
            .filter(|_| shared.ingest.is_some())
            .map(|interval| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name("ndss-serve-compact".into())
                    .spawn(move || run_compactor(&shared, interval))
                    .expect("spawning the ingest compactor")
            });

        while !shared.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Reap finished handlers so the vec stays bounded by the
                    // pool size, not the connection count.
                    handlers.retain(|h| !h.is_finished());
                    let Ok(slot) = Slot::take(shared.connections.clone(), shared.config.workers)
                    else {
                        shared.metrics.connections_rejected.inc(1);
                        reject_connection(stream, &shared);
                        continue;
                    };
                    shared.metrics.connections.inc(1);
                    let shared = shared.clone();
                    let handler = std::thread::Builder::new()
                        .name("ndss-serve-conn".into())
                        .spawn(move || {
                            let _slot = slot;
                            handle_connection(stream, &shared);
                        })
                        .expect("spawning a connection handler");
                    handlers.push(handler);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(shared.config.idle_poll);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ServeError::Io(e)),
            }
        }

        // Drain: the listener closes here (drop), handlers finish their
        // in-flight requests and observe the flag at their next idle poll.
        // The prober sleeps in short slices and re-checks the drain flag,
        // so joining it never blocks drain on a full probe interval.
        drop(self.listener);
        for handler in handlers {
            let _ = handler.join();
        }
        if let Some(prober) = prober {
            let _ = prober.join();
        }
        if let Some(compactor) = compactor {
            let _ = compactor.join();
        }
        // Every acked append must be durable before the drain report goes
        // out: flush + fsync the WAL while no handler can append anymore.
        if let Some(ingest) = &shared.ingest {
            let mut ingest = ingest.lock().unwrap();
            if let Err(e) = ingest.sync() {
                eprintln!("warning: draining WAL sync failed: {e}");
            }
        }
        if let Some(path) = &shared.config.metrics_out {
            flush_metrics(path);
        }
        Ok(DrainReport {
            connections: shared.metrics.connections.get(),
            http_requests: shared.metrics.http_requests.get(),
            frame_requests: shared.metrics.frame_requests.get(),
            shed: shared.metrics.shed.get(),
        })
    }
}

/// The background compactor: compacts frozen memtable segments into the
/// store and hot-swaps the serving view onto each new publication.
/// Sleeps in short slices so drain is never blocked on a full interval
/// (compactions in progress run to completion — an interrupted one is
/// redone on restart, but finishing cleanly saves that work).
fn run_compactor(shared: &Shared, interval: Duration) {
    let Some(ingest) = &shared.ingest else { return };
    let slice = Duration::from_millis(20);
    let mut elapsed = Duration::ZERO;
    while !shared.draining() {
        std::thread::sleep(slice.min(interval));
        elapsed += slice;
        if elapsed < interval {
            continue;
        }
        elapsed = Duration::ZERO;
        let compacted = {
            let mut guard = ingest.lock().unwrap();
            if guard.frozen_segments() == 0 {
                continue;
            }
            guard.compact_once()
        };
        match compacted {
            Ok(true) => {
                // The new list is published; swap the serving view so
                // the disk lane covers it. If this reload fails (or a query
                // pins the old view before it lands), the query path notices
                // the view lagging the store's coverage and reloads under
                // the memtable lock itself — no texts go invisible.
                if let Err(e) = shared.serving.reload() {
                    eprintln!("warning: reload after compaction failed: {e}");
                }
            }
            Ok(false) => {}
            Err(e) => eprintln!("warning: background compaction failed: {e}"),
        }
    }
}

/// Writes the final metrics snapshot; drain must not fail on a bad path,
/// so errors go to stderr.
fn flush_metrics(path: &std::path::Path) {
    let reg = ndss_obs::Registry::global();
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let body = if matches!(ext, "prom" | "txt") {
        reg.prometheus_text()
    } else {
        let mut json = reg.to_json().to_string_pretty();
        json.push('\n');
        json
    };
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: flushing metrics to {}: {e}", path.display());
    }
}

/// Tells an over-capacity client why it was turned away, on whichever
/// protocol it speaks (best effort — the peek is bounded by one timeout).
fn reject_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(shared.config.idle_poll.max(Duration::from_millis(10))));
    let mut first = [0u8; 4];
    let is_frame = matches!(stream.peek(&mut first), Ok(n) if n >= 4 && first == frame::MAGIC);
    let mut stream = stream;
    if is_frame {
        let payload = frame::encode_error(frame::STATUS_OVERLOADED, "connection pool full");
        let _ = frame::write_frame(&mut stream, &payload);
    } else {
        let body = ObjectBuilder::new()
            .field("error", Json::Str("overloaded".into()))
            .field("detail", Json::Str("connection pool full".into()))
            .build()
            .to_string_compact();
        let _ = http::write_response(
            &mut stream,
            503,
            "Service Unavailable",
            "application/json",
            body.as_bytes(),
            true,
        );
    }
}

/// Serves one connection to completion: sniff the protocol, then loop
/// request → response until close, error, or drain.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    if stream.set_nonblocking(false).is_err()
        || stream
            .set_read_timeout(Some(shared.config.idle_poll))
            .is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }

    // Protocol sniff: wait for the first 4 bytes (bounded rounds so a
    // 2-byte-then-stall client cannot pin the handler forever).
    let mut first = [0u8; 4];
    let mut rounds = 0u32;
    let is_frame = loop {
        match stream.peek(&mut first) {
            Ok(0) => return,
            Ok(n) if n >= 4 => break first == frame::MAGIC,
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
        rounds += 1;
        if rounds > 2_000 || shared.draining() && rounds > 2 {
            return;
        }
    };

    let mut stream = stream;
    if is_frame {
        serve_frames(&mut stream, shared);
    } else {
        serve_http(&mut stream, shared);
    }
    shared.metrics.conn_closed.inc(1);
}

/// The HTTP side of the front door.
fn serve_http(stream: &mut TcpStream, shared: &Shared) {
    let mut requests_on_conn = 0u64;
    loop {
        let outcome = match http::read_request(stream, shared.config.max_body_bytes) {
            Ok(outcome) => outcome,
            Err(_) => return,
        };
        let request = match outcome {
            ReadOutcome::Request(request) => request,
            ReadOutcome::Closed => return,
            ReadOutcome::Idle => {
                if shared.draining() {
                    return;
                }
                continue;
            }
            ReadOutcome::Malformed(reason) => {
                shared.metrics.bad_requests.inc(1);
                let body = error_body("bad-request", &reason);
                let _ = http::write_response(
                    stream,
                    400,
                    "Bad Request",
                    "application/json",
                    body.as_bytes(),
                    true,
                );
                return;
            }
        };
        shared.metrics.http_requests.inc(1);
        requests_on_conn += 1;
        if requests_on_conn > 1 {
            shared.metrics.conn_reused.inc(1);
        }
        let started = Instant::now();
        // Serve the request we already read even if drain started while it
        // was in the socket; close afterwards so drain converges.
        let close = request.wants_close() || shared.draining();
        let (status, reason, content_type, body) = route_http(&request, shared);
        shared
            .metrics
            .request_seconds
            .record_duration(started.elapsed());
        if http::write_response(stream, status, reason, content_type, body.as_bytes(), close)
            .is_err()
            || close
        {
            return;
        }
    }
}

/// Dispatches one HTTP request to its endpoint.
fn route_http(
    request: &http::Request,
    shared: &Shared,
) -> (u16, &'static str, &'static str, String) {
    const JSON: &str = "application/json";
    match (request.method.as_str(), request.route()) {
        ("GET", "/healthz") => {
            if shared.draining() {
                (
                    503,
                    "Service Unavailable",
                    JSON,
                    ObjectBuilder::new()
                        .field("status", Json::Str("draining".into()))
                        .build()
                        .to_string_compact(),
                )
            } else {
                let body = ObjectBuilder::new()
                    .field("status", Json::Str("ok".into()))
                    .field(
                        "generation",
                        Json::UInt(shared.serving.generation().unwrap_or(0)),
                    )
                    .build()
                    .to_string_compact();
                (200, "OK", JSON, body)
            }
        }
        ("GET", "/metrics") => {
            shared
                .metrics
                .in_flight
                .set(shared.in_flight.load(Ordering::Relaxed) as i64);
            shared
                .metrics
                .active_connections
                .set(shared.connections.load(Ordering::Relaxed) as i64);
            let requests = shared.metrics.http_requests.get() + shared.metrics.frame_requests.get();
            let reused = shared.metrics.conn_reused.get();
            shared
                .metrics
                .reuse_ratio
                .set((100 * reused / requests.max(1)) as i64);
            shared.publish_breaker_metrics();
            (
                200,
                "OK",
                "text/plain; version=0.0.4",
                ndss_obs::Registry::global().prometheus_text(),
            )
        }
        ("POST", "/search") => match parse_search_body(&request.body) {
            Ok(parsed) => match execute_search(shared, &parsed) {
                Ok(reply) => (200, "OK", JSON, reply.to_json().to_string_compact()),
                Err(fail) => fail.http(JSON),
            },
            Err(reason) => {
                shared.metrics.bad_requests.inc(1);
                (400, "Bad Request", JSON, error_body("bad-request", &reason))
            }
        },
        ("POST", "/ingest") => match execute_ingest(shared, &request.body) {
            Ok(body) => (200, "OK", JSON, body),
            Err(fail) => fail.http(JSON),
        },
        ("POST", "/reload") => match shared.serving.reload() {
            Ok(swapped) => {
                let body = ObjectBuilder::new()
                    .field("reloaded", Json::Bool(swapped))
                    .field(
                        "generation",
                        Json::UInt(shared.serving.generation().unwrap_or(0)),
                    )
                    .build()
                    .to_string_compact();
                (200, "OK", JSON, body)
            }
            Err(e) => {
                shared.metrics.internal_errors.inc(1);
                (
                    500,
                    "Internal Server Error",
                    JSON,
                    error_body("reload-failed", &e.to_string()),
                )
            }
        },
        ("POST", "/shutdown") => {
            shared.draining.store(true, Ordering::Relaxed);
            (
                200,
                "OK",
                JSON,
                ObjectBuilder::new()
                    .field("draining", Json::Bool(true))
                    .build()
                    .to_string_compact(),
            )
        }
        (_, route) => (
            404,
            "Not Found",
            JSON,
            error_body("not-found", &format!("no such endpoint {route}")),
        ),
    }
}

/// The binary side of the front door.
fn serve_frames(stream: &mut TcpStream, shared: &Shared) {
    let mut requests_on_conn = 0u64;
    loop {
        let payload = match frame::read_frame(stream) {
            Ok(FrameOutcome::Payload(payload)) => payload,
            Ok(FrameOutcome::Closed) => return,
            Ok(FrameOutcome::Idle) => {
                if shared.draining() {
                    return;
                }
                continue;
            }
            Ok(FrameOutcome::Malformed(reason)) => {
                shared.metrics.bad_requests.inc(1);
                let _ = frame::write_frame(
                    stream,
                    &frame::encode_error(frame::STATUS_BAD_REQUEST, &reason),
                );
                return;
            }
            Err(_) => return,
        };
        shared.metrics.frame_requests.inc(1);
        requests_on_conn += 1;
        if requests_on_conn > 1 {
            shared.metrics.conn_reused.inc(1);
        }
        let started = Instant::now();
        let close_after = shared.draining();
        let response = match frame::decode_request(&payload) {
            Ok(RequestPayload::Ping) => vec![frame::STATUS_OK],
            Ok(RequestPayload::Search(req)) => {
                let parsed = ParsedSearch {
                    query: req.query,
                    theta: req.theta,
                    top: if req.top == 0 {
                        usize::MAX
                    } else {
                        req.top as usize
                    },
                    deadline: (req.deadline_ms > 0).then(|| Duration::from_millis(req.deadline_ms)),
                    max_io_bytes: None,
                    max_candidates: None,
                    max_matches: None,
                };
                match execute_search(shared, &parsed) {
                    Ok(reply) => frame::encode_search_response(&reply.to_wire()),
                    Err(fail) => fail.frame(),
                }
            }
            Err(reason) => {
                shared.metrics.bad_requests.inc(1);
                frame::encode_error(frame::STATUS_BAD_REQUEST, &reason)
            }
        };
        shared
            .metrics
            .request_seconds
            .record_duration(started.elapsed());
        if frame::write_frame(stream, &response).is_err() || close_after {
            return;
        }
    }
}

/// A search request after protocol-specific decoding.
struct ParsedSearch {
    query: Vec<u32>,
    theta: f64,
    top: usize,
    deadline: Option<Duration>,
    max_io_bytes: Option<u64>,
    max_candidates: Option<u64>,
    max_matches: Option<usize>,
}

/// `POST /search` body:
/// `{"query": [ids…], "theta": 0.8, "top": 10, "deadline_ms": 100,
///   "max_io_bytes": …, "max_candidates": …, "max_matches": …}`.
fn parse_search_body(body: &[u8]) -> Result<ParsedSearch, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let query = doc
        .get("query")
        .and_then(Json::as_array)
        .ok_or("missing \"query\": [token ids]")?
        .iter()
        .map(|t| {
            t.as_u64()
                .filter(|&v| v <= u32::MAX as u64)
                .map(|v| v as u32)
                .ok_or_else(|| format!("bad token id {t:?}"))
        })
        .collect::<Result<Vec<u32>, String>>()?;
    let theta = doc
        .get("theta")
        .map(|v| v.as_f64().ok_or("\"theta\" must be a number"))
        .transpose()?
        .unwrap_or(0.8);
    let top = doc
        .get("top")
        .map(|v| v.as_usize().ok_or("\"top\" must be an integer"))
        .transpose()?
        .unwrap_or(usize::MAX);
    let uint = |key: &'static str| -> Result<Option<u64>, String> {
        doc.get(key)
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("\"{key}\" must be an integer"))
            })
            .transpose()
    };
    Ok(ParsedSearch {
        query,
        theta,
        top: if top == 0 { usize::MAX } else { top },
        deadline: uint("deadline_ms")?.map(Duration::from_millis),
        max_io_bytes: uint("max_io_bytes")?,
        max_candidates: uint("max_candidates")?,
        max_matches: uint("max_matches")?.map(|v| v as usize),
    })
}

/// A completed search, protocol-agnostic; each protocol has its encoder.
struct SearchReply {
    complete: bool,
    exhausted: Option<Resource>,
    generation: u64,
    beta: usize,
    num_texts: usize,
    total_sequences: u64,
    matches: Vec<RankedMatch>,
    io_bytes: u64,
    postings_read: u64,
    wall: Duration,
    /// Quarantined shard ranges the answer does not cover (degraded
    /// responses only).
    degraded: Vec<DegradedShard>,
}

impl SearchReply {
    fn to_json(&self) -> Json {
        let matches = self
            .matches
            .iter()
            .map(|m| {
                let spans = m
                    .spans
                    .iter()
                    .map(|s| {
                        Json::Array(vec![Json::UInt(s.start as u64), Json::UInt(s.end as u64)])
                    })
                    .collect();
                ObjectBuilder::new()
                    .field("text", Json::UInt(m.text as u64))
                    .field("collisions", Json::UInt(m.collisions as u64))
                    .field("estimated_similarity", Json::Float(m.estimated_similarity))
                    .field("spans", Json::Array(spans))
                    .build()
            })
            .collect();
        let mut builder = ObjectBuilder::new()
            .field("complete", Json::Bool(self.complete))
            .field("generation", Json::UInt(self.generation))
            .field("beta", Json::UInt(self.beta as u64))
            .field("num_texts", Json::UInt(self.num_texts as u64))
            .field("total_sequences", Json::UInt(self.total_sequences))
            .field("matches", Json::Array(matches));
        if let Some(resource) = self.exhausted {
            builder = builder.field("budget_exhausted", Json::Str(resource.to_string()));
        }
        if !self.degraded.is_empty() {
            let shards = self
                .degraded
                .iter()
                .map(|d| {
                    ObjectBuilder::new()
                        .field("shard", Json::UInt(d.shard as u64))
                        .field("first_text", Json::UInt(d.first_text as u64))
                        .field("num_texts", Json::UInt(d.num_texts))
                        .field("kind", Json::Str(d.kind.label().into()))
                        .field("reason", Json::Str(d.reason.clone()))
                        .build()
                })
                .collect();
            builder = builder.field("degraded_shards", Json::Array(shards));
        }
        builder
            .field(
                "stats",
                ObjectBuilder::new()
                    .field("wall_ms", Json::Float(self.wall.as_secs_f64() * 1e3))
                    .field("io_bytes", Json::UInt(self.io_bytes))
                    .field("postings_read", Json::UInt(self.postings_read))
                    .build(),
            )
            .build()
    }

    fn to_wire(&self) -> frame::SearchResponse {
        frame::SearchResponse {
            complete: self.complete,
            generation: self.generation,
            beta: self.beta as u32,
            total_sequences: self.total_sequences,
            matches: self
                .matches
                .iter()
                .map(|m| frame::WireMatch {
                    text: m.text,
                    collisions: m.collisions,
                    spans: m.spans.iter().map(|s| (s.start, s.end)).collect(),
                })
                .collect(),
            degraded: self
                .degraded
                .iter()
                .map(|d| frame::WireDegraded {
                    shard: d.shard as u32,
                    first_text: d.first_text,
                    num_texts: d.num_texts,
                    kind: d.kind.as_wire(),
                    reason: d.reason.clone(),
                })
                .collect(),
        }
    }
}

/// Why a search produced no reply.
enum SearchFail {
    Overloaded {
        in_flight: usize,
        cap: usize,
    },
    BadRequest(String),
    Internal(String),
    /// Every shard of the view is quarantined: nothing can answer, not
    /// even partially.
    Unavailable(String),
}

impl SearchFail {
    fn http(&self, json: &'static str) -> (u16, &'static str, &'static str, String) {
        match self {
            SearchFail::Overloaded { in_flight, cap } => (
                429,
                "Too Many Requests",
                json,
                ObjectBuilder::new()
                    .field("error", Json::Str("overloaded".into()))
                    .field("in_flight", Json::UInt(*in_flight as u64))
                    .field("cap", Json::UInt(*cap as u64))
                    .build()
                    .to_string_compact(),
            ),
            SearchFail::BadRequest(reason) => {
                (400, "Bad Request", json, error_body("bad-request", reason))
            }
            SearchFail::Internal(reason) => (
                500,
                "Internal Server Error",
                json,
                error_body("internal", reason),
            ),
            SearchFail::Unavailable(reason) => (
                503,
                "Service Unavailable",
                json,
                error_body("unavailable", reason),
            ),
        }
    }

    fn frame(&self) -> Vec<u8> {
        match self {
            SearchFail::Overloaded { cap, .. } => frame::encode_error(
                frame::STATUS_OVERLOADED,
                &format!("shed by admission control (cap {cap})"),
            ),
            SearchFail::BadRequest(reason) => {
                frame::encode_error(frame::STATUS_BAD_REQUEST, reason)
            }
            SearchFail::Internal(reason) => frame::encode_error(frame::STATUS_INTERNAL, reason),
            SearchFail::Unavailable(reason) => frame::encode_error(frame::STATUS_INTERNAL, reason),
        }
    }
}

fn error_body(kind: &str, detail: &str) -> String {
    ObjectBuilder::new()
        .field("error", Json::Str(kind.into()))
        .field("detail", Json::Str(detail.into()))
        .build()
        .to_string_compact()
}

/// Takes an admission slot for one search or ingest request, or sheds the
/// request when `admission_cap` of them are already executing.
fn admit(shared: &Shared) -> Result<Slot<&AtomicUsize>, SearchFail> {
    let cap = shared.config.admission_cap;
    Slot::take(&shared.in_flight, cap).map_err(|in_flight| {
        shared.metrics.shed.inc(1);
        SearchFail::Overloaded { in_flight, cap }
    })
}

/// `POST /ingest` body: `{"tokens": [ids…]}` for one text, or
/// `{"texts": [[ids…], …]}` for a batch. Admission-capped alongside
/// searches; the response is written only after the WAL fsync, so an
/// acked text survives any crash.
fn execute_ingest(shared: &Shared, body: &[u8]) -> Result<String, SearchFail> {
    let Some(ingest) = &shared.ingest else {
        return Err(SearchFail::BadRequest(
            "ingest is not enabled on this server (start with --ingest)".to_string(),
        ));
    };
    let _slot = admit(shared)?;
    let texts = parse_ingest_body(body).map_err(|reason| {
        shared.metrics.bad_requests.inc(1);
        SearchFail::BadRequest(reason)
    })?;
    let mut guard = ingest.lock().unwrap();
    let first = guard.next_text_id();
    let mut ids = Vec::with_capacity(texts.len());
    for tokens in &texts {
        match guard.append(tokens) {
            Ok(id) => ids.push(id),
            Err(e) => {
                shared.metrics.internal_errors.inc(1);
                return Err(SearchFail::Internal(e.to_string()));
            }
        }
    }
    // Ack = durable: force the group fsync before answering.
    if let Err(e) = guard.sync() {
        shared.metrics.internal_errors.inc(1);
        return Err(SearchFail::Internal(e.to_string()));
    }
    let body = ObjectBuilder::new()
        .field("accepted", Json::UInt(ids.len() as u64))
        .field("first_text", Json::UInt(first))
        .field("next_text", Json::UInt(guard.next_text_id()))
        .field("pending", Json::UInt(guard.pending_texts()))
        .build()
        .to_string_compact();
    Ok(body)
}

/// Decodes an ingest body into token sequences.
fn parse_ingest_body(body: &[u8]) -> Result<Vec<Vec<u32>>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let tokens_of = |v: &Json| -> Result<Vec<u32>, String> {
        v.as_array()
            .ok_or("a text must be an array of token ids")?
            .iter()
            .map(|t| {
                t.as_u64()
                    .filter(|&v| v <= u32::MAX as u64)
                    .map(|v| v as u32)
                    .ok_or_else(|| format!("bad token id {t:?}"))
            })
            .collect()
    };
    if let Some(tokens) = doc.get("tokens") {
        return Ok(vec![tokens_of(tokens)?]);
    }
    let texts = doc
        .get("texts")
        .and_then(Json::as_array)
        .ok_or("missing \"tokens\": [ids] or \"texts\": [[ids], …]")?;
    if texts.is_empty() {
        return Err("\"texts\" is empty".to_string());
    }
    texts.iter().map(tokens_of).collect()
}

/// Maps a lane-search result into the protocol-agnostic reply parts,
/// classifying failures exactly as the pre-overlay single path did.
fn map_search_result(
    shared: &Shared,
    result: Result<SearchOutcome, QueryError>,
) -> Result<(SearchOutcome, Option<Resource>), SearchFail> {
    match result {
        Ok(outcome) => Ok((outcome, None)),
        Err(QueryError::BudgetExceeded { resource, partial }) => Ok((*partial, Some(resource))),
        Err(e @ (QueryError::EmptyQuery | QueryError::BadThreshold(_))) => {
            shared.metrics.bad_requests.inc(1);
            Err(SearchFail::BadRequest(e.to_string()))
        }
        Err(e @ QueryError::AllShardsQuarantined { .. }) => {
            shared.metrics.unavailable.inc(1);
            Err(SearchFail::Unavailable(e.to_string()))
        }
        Err(e) => {
            shared.metrics.internal_errors.inc(1);
            Err(SearchFail::Internal(e.to_string()))
        }
    }
}

/// Admission + budget + execution, shared by both protocols. The snapshot
/// is pinned once: search, ranking, and the reported generation all come
/// from the same generation even if a reload lands mid-request.
fn execute_search(shared: &Shared, parsed: &ParsedSearch) -> Result<SearchReply, SearchFail> {
    let _slot = admit(shared)?;
    shared.metrics.searches.inc(1);
    let started = Instant::now();
    let mut budget = QueryBudget::unlimited();
    if let Some(d) = shared.config.default_deadline {
        budget = budget.deadline_at(started + d);
    }
    if let Some(d) = parsed.deadline {
        budget = budget.time_limit(d);
    }
    if let Some(b) = parsed.max_io_bytes {
        budget = budget.max_io_bytes(b);
    }
    if let Some(c) = parsed.max_candidates {
        budget = budget.max_candidates(c);
    }
    if let Some(m) = parsed.max_matches {
        budget = budget.max_result_matches(m);
    }

    // The pinned view carries its own generation, so the reply always
    // reports exactly the manifest generation its results came from — a
    // reload racing this request can never produce a torn pairing.
    //
    // With ingest enabled, the pin happens *under* the memtable lock, and
    // a view that lags the store's published coverage is reloaded first.
    // Both halves matter: a compaction between a bare pin and the lock
    // would drop a segment the stale view doesn't serve yet, silently
    // losing its texts; pinning under the lock makes snapshot + segments
    // mutually consistent, and the reload-on-lag heals the window where a
    // compaction published but its hot-swap failed or hasn't landed. The
    // overlay rule (a segment joins iff its base is ≥ the snapshot's text
    // count) lives in `ShardedSearcher::push_segment`.
    let internal = |e: QueryError| SearchFail::Internal(e.to_string());
    let memtable = shared
        .ingest
        .as_ref()
        .map(|ingest| ingest.lock().expect("memtable lock poisoned"));
    let mut snapshot = shared.serving.snapshot();
    if memtable
        .as_ref()
        .is_some_and(|m| (snapshot.num_texts() as u64) < m.covered())
    {
        shared.serving.reload().map_err(internal)?;
        snapshot = shared.serving.snapshot();
    }
    // Serving runs under the isolating fault policy: a sick shard is
    // contained by its circuit breaker and reported as a degraded range
    // instead of failing the whole request. The lane set plans once, from
    // the view's memoised histograms, and runs on this handler's thread.
    let mut lanes = snapshot
        .searcher_with_filter(shared.config.filter)
        .map_err(internal)?
        .fault_policy(FaultPolicy::Isolate);
    for segment in memtable.iter().flat_map(|m| m.segments()) {
        lanes.push_segment(segment);
    }
    let (outcome, exhausted) = map_search_result(
        shared,
        lanes.search_governed(&parsed.query, parsed.theta, &budget),
    )?;
    let matches = search::rank(&outcome, lanes.k(), parsed.top);
    let generation = snapshot.generation().unwrap_or(0);
    if !outcome.degraded.is_empty() {
        shared.metrics.degraded.inc(1);
    }
    Ok(SearchReply {
        complete: outcome.complete,
        exhausted,
        generation,
        beta: outcome.beta,
        num_texts: outcome.num_texts(),
        total_sequences: outcome.total_sequences(),
        matches,
        io_bytes: outcome.stats.io_bytes,
        postings_read: outcome.stats.postings_read,
        wall: started.elapsed(),
        degraded: outcome.degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_holder_returns_its_slot() {
        let counter = AtomicUsize::new(0);
        let unwound = std::panic::catch_unwind(|| {
            let _slot = Slot::take(&counter, 1).expect("one unit is free");
            assert_eq!(counter.load(Ordering::Acquire), 1);
            assert_eq!(Slot::take(&counter, 1).err(), Some(1), "at the cap");
            assert_eq!(
                counter.load(Ordering::Acquire),
                1,
                "a refusal holds nothing"
            );
            panic!("handler died");
        });
        assert!(unwound.is_err());
        assert_eq!(counter.load(Ordering::Acquire), 0);
        // The shape a connection handler holds: an owned counter.
        let pool = Arc::new(AtomicUsize::new(0));
        let slot = Slot::take(pool.clone(), 1).expect("one unit is free");
        let handler = std::thread::spawn(move || {
            let _slot = slot;
            panic!("handler died");
        });
        assert!(handler.join().is_err());
        assert_eq!(pool.load(Ordering::Acquire), 0);
    }
}
