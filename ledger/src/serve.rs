//! `serve_open_loop`: the daemon on loopback over a 2-shard store, driven
//! closed loop and then open loop at fixed rates from `nproc` connections.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Client, Daemon, HttpConn, InProcess, Result, Served, SplitClient, TopK, View,
};
use crate::check::{oracle_check, Gate};
use crate::common::{timed, Options, Setup};
use crate::host::{self, Scratch};
use crate::load::{self, Load, Rng, Text};
use crate::report::Metrics;
use crate::trace::Recorder;
use crate::{spec, stats};

/// Distinct served queries; the stages cycle through them.
const SERVED_QUERIES: usize = 2_000;
/// Closed-loop requests before anything is timed. The reference pass has
/// filled the page cache by then; this fills the daemon's own caches.
const WARM_UP_SECONDS: f64 = 1.0;

/// One stage's requests, merged over connections.
#[derive(Debug, Default)]
pub struct Stage {
    pub latencies_ms: Vec<f64>,
    /// Open loop: how long after its due time each request was sent.
    pub lateness_ms: Vec<f64>,
    pub completions: Vec<Duration>,
    pub attempted: u64,
    pub shed: u64,
    pub errors: u64,
    pub wrong: u64,
    pub seconds: f64,
}

impl Stage {
    fn merge(&mut self, other: Stage) {
        self.latencies_ms.extend(other.latencies_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.completions.extend(other.completions);
        self.attempted += other.attempted;
        self.shed += other.shed;
        self.errors += other.errors;
        self.wrong += other.wrong;
    }

    fn record(&mut self, served: Served, want: &TopK, latency: Duration, done: Duration) {
        self.attempted += 1;
        match served {
            Served::Answer(top) if top == *want => {
                self.latencies_ms.push(latency.as_secs_f64() * 1e3);
                self.completions.push(done);
            }
            Served::Answer(_) => self.wrong += 1,
            Served::Shed => self.shed += 1,
            Served::Failed(_) => self.errors += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.wrong
    }

    /// Correct answers per second, averaged over the better half of the
    /// stage's half-second slices (see `Timed::best_pass` for why not the
    /// median over all of them; and not the single best slice, because 170
    /// answers are few enough for one lucky slice to stand out by 20 %).
    pub fn goodput(&self) -> f64 {
        let slices = ((self.seconds * 2.0).floor() as usize).max(1);
        let mut rates = stats::slice_rates(
            &self.completions,
            Duration::from_secs_f64(self.seconds),
            slices,
        );
        rates.sort_by(|a, b| b.total_cmp(a));
        stats::mean(&rates[..slices.div_ceil(2)])
    }

    /// Median and 95th percentile latency (ms) over the least disturbed
    /// half of the stage's one-second slices; a request belongs to the
    /// slice it completed in.
    pub fn best_latency_ms(&self) -> (f64, f64) {
        let slices = (self.seconds.floor() as usize).max(1);
        let width = self.seconds / slices as f64;
        let mut by_slice = vec![Vec::new(); slices];
        for (latency, done) in self.latencies_ms.iter().zip(&self.completions) {
            if let Some(i) = stats::slice_of(*done, width, slices) {
                by_slice[i].push(*latency);
            }
        }
        stats::least_disturbed_half(&by_slice).unwrap_or_else(|| {
            let s = stats::summarize(&self.latencies_ms);
            (s.p50, s.p95)
        })
    }

    /// An open-loop stage meets the limit when nothing failed, the 95th
    /// percentile from due time is within it, and the requests due last
    /// were not sent later than it either, so no backlog was growing.
    pub fn meets_limit(&self) -> bool {
        if self.failed() > 0 || self.latencies_ms.is_empty() {
            return false;
        }
        let p95 = stats::summarize(&self.latencies_ms).p95;
        let tail =
            &self.lateness_ms[self.lateness_ms.len() - self.lateness_ms.len().div_ceil(10)..];
        p95 <= spec::LATENCY_LIMIT_MS && stats::median(tail) <= spec::LATENCY_LIMIT_MS
    }
}

/// Closed loop: every connection sends its next request when the previous
/// answer has arrived, for `seconds`.
pub fn closed_stage(
    clients: &mut [Client],
    queries: &[Text],
    reference: &[TopK],
    seconds: f64,
) -> Stage {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut merged = Stage {
        seconds,
        ..Stage::default()
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut stage = Stage::default();
                    loop {
                        let before = Instant::now();
                        if before >= deadline {
                            return stage;
                        }
                        let slot = next.fetch_add(1, Ordering::Relaxed) % queries.len();
                        let served = client.search(&queries[slot]);
                        let after = Instant::now();
                        stage.record(served, &reference[slot], after - before, after - start);
                    }
                })
            })
            .collect();
        for worker in workers {
            merged.merge(worker.join().expect("client thread panicked"));
        }
    });
    merged
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: request `i` is due at `i / rate` seconds whatever happened
/// to the requests before it; whichever connection is free sends it, and
/// its latency counts from the instant it was due.
pub fn open_stage(
    clients: &mut [Client],
    queries: &[Text],
    reference: &[TopK],
    rate: u32,
    seconds: f64,
) -> Stage {
    let due = load::schedule(rate, seconds);
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(10);
    let mut merged = Stage {
        seconds,
        ..Stage::default()
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (next, due) = (&next, &due);
                scope.spawn(move || {
                    let mut stage = Stage::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(offset) = due.get(i) else {
                            return stage;
                        };
                        let due_at = start + *offset;
                        wait_until(due_at);
                        let sent = Instant::now();
                        let slot = i % queries.len();
                        let served = client.search(&queries[slot]);
                        let after = Instant::now();
                        stage.lateness_ms.push((sent - due_at).as_secs_f64() * 1e3);
                        stage.record(served, &reference[slot], after - due_at, after - start);
                    }
                })
            })
            .collect();
        for worker in workers {
            merged.merge(worker.join().expect("client thread panicked"));
        }
    });
    merged
}

/// What the daemon must answer: in-process search and rank over the same
/// store, one searcher for the whole pass.
pub fn reference(root: &Path, queries: &[Text]) -> Result<Vec<TopK>> {
    let view = View::open(root)?;
    let searcher = view.searcher()?;
    queries
        .iter()
        .map(|q| Ok(searcher.rank(&searcher.search(q)?)))
        .collect()
}

pub fn served_queries(load: &Load) -> &[Text] {
    &load.mixed[..load.mixed.len().min(SERVED_QUERIES)]
}

fn connect(daemon: &Daemon) -> Result<Vec<Client>> {
    (0..host::nproc())
        .map(|_| {
            let mut client = Client::connect(daemon.addr())?;
            client.ping()?;
            Ok(client)
        })
        .collect()
}

/// The closed stage and the three open-loop stages, `each` seconds long.
pub struct Stages {
    pub closed: Stage,
    pub open: Vec<(u32, Stage)>,
}

pub fn run_stages(
    clients: &mut [Client],
    queries: &[Text],
    reference: &[TopK],
    each: f64,
) -> Stages {
    let closed = closed_stage(clients, queries, reference, each);
    let open = spec::RATES
        .iter()
        .map(|&rate| (rate, open_stage(clients, queries, reference, rate, each)))
        .collect();
    Stages { closed, open }
}

impl Stages {
    fn all(&self) -> impl Iterator<Item = &Stage> {
        std::iter::once(&self.closed).chain(self.open.iter().map(|(_, s)| s))
    }

    pub fn at(&self, rate: u32) -> &Stage {
        &self
            .open
            .iter()
            .find(|(r, _)| *r == rate)
            .expect("a fixed rate")
            .1
    }

    /// The highest fixed rate that met the limit; 0 when none did.
    pub fn max_rate_ok(&self) -> u32 {
        self.open
            .iter()
            .filter(|(_, s)| s.meets_limit())
            .map(|(r, _)| *r)
            .max()
            .unwrap_or(0)
    }

    pub fn count_into(&self, gate: &mut Gate) {
        for stage in self.all() {
            gate.add(stage.attempted, stage.failed(), "served requests");
        }
    }
}

/// The end-to-end run.
pub fn run(
    opts: &Options,
    scratch: &Scratch,
    gate: &mut Gate,
    metrics: &mut Metrics,
) -> Result<()> {
    let mut setup = Setup::default();
    // Connections first in the pair, so that they close before the daemon
    // they talk to drains.
    let open = |root: &Path| {
        let daemon = Daemon::start(root)?;
        Ok((connect(&daemon)?, daemon))
    };
    let (load, root, (mut clients, daemon)) =
        setup.repeat(opts, scratch, 0, adapter::build_sharded, open)?;

    let queries = served_queries(&load);
    let reference = reference(&root, queries)?;
    closed_stage(&mut clients, queries, &reference, WARM_UP_SECONDS);
    // Tracing off: the closed loop and the reference rate, half the time
    // each. The traced run also drives the other two rates.
    let half = opts.seconds / 2.0;
    let closed = closed_stage(&mut clients, queries, &reference, half);
    let open_loop = open_stage(
        &mut clients,
        queries,
        &reference,
        spec::REFERENCE_RATE,
        half,
    );
    for stage in [&closed, &open_loop] {
        gate.add(stage.attempted, stage.failed(), "served requests");
    }
    setup.end_timed_region();
    drop(clients);
    daemon.stop()?;

    // The oracle sees the same store through the in-process view.
    let view = View::open(&root)?;
    let searcher = view.searcher()?;
    let mut rng = Rng::new(opts.seed ^ 0x0AC1E);
    let step = (queries.len() / spec::ORACLE_QUERIES).max(1);
    for q in queries.iter().step_by(step).take(spec::ORACLE_QUERIES) {
        oracle_check(
            gate,
            &searcher.search(q)?,
            q,
            &[],
            load.corpus.texts.len() as u32,
            |id| &load.corpus.texts[id as usize],
            &mut rng,
        )?;
    }

    setup.repeat_after(opts, scratch, 0, adapter::build_sharded, open)?;

    if closed.latencies_ms.is_empty() || open_loop.latencies_ms.is_empty() {
        return Err("the daemon answered no request correctly".into());
    }
    println!(
        "open loop {} q/s, from due time, whole stage: {}; meets the {} ms limit: {}; the least disturbed half of the one-second slices is reported",
        spec::REFERENCE_RATE,
        stats::summarize(&open_loop.latencies_ms).describe("ms"),
        spec::LATENCY_LIMIT_MS,
        open_loop.meets_limit()
    );
    let (p50_ms, p95_ms) = open_loop.best_latency_ms();
    metrics.set("ops_per_s", closed.goodput(), closed.latencies_ms.len());
    metrics.set("op_p50_us", p50_ms * 1e3, open_loop.latencies_ms.len());
    metrics.set("op_p95_us", p95_ms * 1e3, open_loop.latencies_ms.len());
    metrics.set(
        "index_bytes_per_token",
        adapter::serving_bytes(&root)? as f64 / setup.tokens as f64,
        1,
    );
    metrics.set("write_bytes_per_user_byte", setup.build_write_ratio(), 1);
    setup.report(metrics);
    Ok(())
}

/// The serve layers: ping floor, one request replayed as spans over NDSB,
/// over HTTP and in process, then the closed and open-loop stages.
pub fn traced_stage(
    root: &Path,
    queries: &[Text],
    seconds: f64,
    rec: &mut Recorder,
    gate: &mut Gate,
    metrics: &mut Metrics,
) -> Result<()> {
    let queries = &queries[..queries.len().min(SERVED_QUERIES)];
    let reference = reference(root, queries)?;
    let daemon = Daemon::start(root)?;
    let mut clients = connect(&daemon)?;
    closed_stage(
        &mut clients,
        queries,
        &reference,
        WARM_UP_SECONDS.min(seconds / 4.0),
    );

    let pings: Vec<f64> = (0..200)
        .map(|_| timed(|| clients[0].ping()))
        .map(|(pong, secs)| pong.map(|()| secs * 1e6))
        .collect::<Result<_>>()?;
    metrics.set("serve.ping_rtt_us", stats::median(&pings), pings.len());

    // One request three ways, each as spans of its own root.
    let mut ndsb = SplitClient::connect(daemon.addr())?;
    let mut http = HttpConn::connect(daemon.addr())?;
    let inproc = InProcess::open(root)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    let mut i = 0;
    let mut wrong = 0u64;
    let stage = rec.begin("stage.serve");
    while Instant::now() < deadline {
        let slot = i % queries.len();
        let query = &queries[slot];
        rec.set_request(i as u64);

        let root_span = rec.begin("request.ndsb");
        let payload = rec.span("serve.client.encode", || SplitClient::encode(query));
        let answer = rec.span("serve.round_trip.ndsb", || ndsb.round_trip(&payload))?;
        let served = rec.span("serve.client.decode", || SplitClient::decode(&answer));
        rec.end(root_span);
        wrong += !served.is(&reference[slot]) as u64;

        let root_span = rec.begin("request.http");
        let body = rec.span("serve.client.encode_http", || HttpConn::body(query));
        let (status, text) = rec.span("serve.round_trip.http", || http.round_trip(&body))?;
        let served = rec.span("serve.client.decode_http", || {
            HttpConn::decode(status, &text)
        });
        rec.end(root_span);
        wrong += !served.is(&reference[slot]) as u64;

        let root_span = rec.begin("request.inproc");
        let pinned = inproc.pin();
        let searcher = rec.span("inproc.searcher", || pinned.searcher())?;
        let outcome = rec.span("inproc.search", || searcher.search(query))?;
        let top = rec.span("inproc.rank", || searcher.rank(&outcome));
        rec.end(root_span);
        wrong += (top != reference[slot]) as u64;
        i += 1;
    }
    rec.end(stage);
    gate.add(3 * i as u64, wrong, "replayed requests (top-k)");
    let inproc_us = stats::median(&rec.durations("request.inproc")) / 1e3;
    metrics.set("serve.inproc_p50_us", inproc_us, i);
    metrics.set(
        "serve.overhead_us.ndsb",
        stats::median(&rec.durations("serve.round_trip.ndsb")) / 1e3 - inproc_us,
        i,
    );
    metrics.set(
        "serve.overhead_us.http",
        stats::median(&rec.durations("serve.round_trip.http")) / 1e3 - inproc_us,
        i,
    );

    let stages = run_stages(&mut clients, queries, &reference, seconds / 8.0);
    stages.count_into(gate);
    drop((clients, ndsb, http));
    daemon.stop()?;

    metrics.set(
        "serve.closed_qps",
        stages.closed.goodput(),
        stages.closed.latencies_ms.len(),
    );
    for rate in spec::RATES {
        let stage = stages.at(rate);
        // A stage with no good answer has no latency; it cannot meet the
        // limit either, and reads as the limit here.
        let (p50, p99) = if stage.latencies_ms.is_empty() {
            (spec::LATENCY_LIMIT_MS, spec::LATENCY_LIMIT_MS)
        } else {
            let s = stats::summarize(&stage.latencies_ms);
            (s.p50, s.p99)
        };
        metrics.set(
            &format!("serve.latency_p50_ms.r{rate}"),
            p50,
            stage.latencies_ms.len(),
        );
        metrics.set(
            &format!("serve.latency_p99_ms.r{rate}"),
            p99,
            stage.latencies_ms.len(),
        );
    }
    metrics.set(
        "serve.max_rate_ok",
        stages.max_rate_ok() as f64,
        spec::RATES.len(),
    );
    let attempted: u64 = stages.all().map(|s| s.attempted).sum();
    let shed: u64 = stages.all().map(|s| s.shed).sum();
    let errors: u64 = stages.all().map(|s| s.errors).sum();
    metrics.set(
        "serve.shed_share",
        shed as f64 / attempted.max(1) as f64,
        attempted as usize,
    );
    metrics.set(
        "serve.conn_error_share",
        errors as f64 / attempted.max(1) as f64,
        attempted as usize,
    );
    let lowest = stages.at(spec::RATES[0]);
    metrics.set(
        "loadgen.late_p95_ms",
        stats::summarize(&lowest.lateness_ms).p95,
        lowest.lateness_ms.len(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(latencies_ms: Vec<f64>, lateness_ms: Vec<f64>) -> Stage {
        Stage {
            attempted: latencies_ms.len() as u64,
            latencies_ms,
            lateness_ms,
            seconds: 1.0,
            ..Stage::default()
        }
    }

    #[test]
    fn a_stage_meets_the_limit_only_without_failures_tail_or_backlog() {
        let fast = stage(vec![2.0; 100], vec![0.05; 100]);
        assert!(fast.meets_limit());

        let mut shed = stage(vec![2.0; 100], vec![0.05; 100]);
        shed.shed = 1;
        assert!(!shed.meets_limit(), "a refused request misses the limit");

        let mut slow_tail = vec![2.0; 90];
        slow_tail.extend([30.0; 10]);
        assert!(!stage(slow_tail, vec![0.05; 100]).meets_limit());

        // Latency fine so far, but the last tenth was sent 50 ms late.
        let mut lateness = vec![0.05; 90];
        lateness.extend([50.0; 10]);
        assert!(!stage(vec![9.0; 100], lateness).meets_limit());
    }

    #[test]
    fn best_slice_figures_leave_the_disturbed_slices_out() {
        // Four seconds at 100 answers a second; the second half is three
        // times slower and loses every other answer.
        let mut s = Stage {
            seconds: 4.0,
            ..Stage::default()
        };
        for i in 0..400u64 {
            let disturbed = i >= 200;
            if disturbed && i % 2 == 1 {
                continue;
            }
            s.latencies_ms.push(if disturbed { 6.0 } else { 2.0 });
            s.completions.push(Duration::from_millis(i * 10 + 5));
        }
        assert_eq!(s.best_latency_ms(), (2.0, 2.0));
        assert_eq!(s.goodput(), 100.0);

        // Too few answers anywhere: the whole stage stands in.
        let sparse = stage(vec![3.0; 10], vec![0.0; 10]);
        assert_eq!(sparse.best_latency_ms(), (3.0, 3.0));
    }

    #[test]
    fn max_rate_ok_is_the_highest_rate_that_met_the_limit() {
        let ok = || stage(vec![2.0; 50], vec![0.0; 50]);
        let bad = || stage(vec![20.0; 50], vec![0.0; 50]);
        let stages = Stages {
            closed: ok(),
            open: vec![(100, ok()), (200, ok()), (400, bad())],
        };
        assert_eq!(stages.max_rate_ok(), 200);
        let none = Stages {
            closed: ok(),
            open: vec![(100, bad())],
        };
        assert_eq!(none.max_rate_ok(), 0);
    }

    #[test]
    fn wait_until_returns_at_the_due_time() {
        let due = Instant::now() + Duration::from_millis(3);
        wait_until(due);
        let late = Instant::now() - due;
        assert!(late < Duration::from_millis(2), "{late:?}");
    }
}
