//! What the workload drivers share: run options, set-up accounting, the
//! closed-loop timer and micro-timing of single calls.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::host::{self, Scratch};
use crate::load::Load;
use crate::report::Metrics;
use crate::{adapter, stats};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SearchMemorized,
    SearchNovel,
    ServeOpenLoop,
    WritePath,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SearchMemorized,
        Workload::SearchNovel,
        Workload::ServeOpenLoop,
        Workload::WritePath,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchMemorized => "search_memorized",
            Workload::SearchNovel => "search_novel",
            Workload::ServeOpenLoop => "serve_open_loop",
            Workload::WritePath => "write_path",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub setup_repeats: usize,
}

/// Set-up as measured over its repeats. Set-up is everything before the
/// timed region: corpus generation, index build, open, and whatever the
/// workload starts on top (daemon, connections, memtable).
#[derive(Debug, Default)]
pub struct Setup {
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
    /// Bytes written by the last repeat's build.
    pub build_written: u64,
    /// Tokens of the corpus the build indexed.
    pub tokens: u64,
    /// `VmHWM` of each set-up, restarted before it (`host::reset_peak_rss`).
    pub setup_peak_mib: Vec<f64>,
    /// `VmHWM` of the timed region, restarted after the last set-up and
    /// read before the checks (the cold rebuild is the harness's own).
    pub timed_peak_mib: f64,
}

impl Setup {
    /// One set-up from scratch: generate the load, `build` the corpus into
    /// a fresh directory `name` (timed, and its written bytes counted), then
    /// `open` whatever the workload runs on. It has its own clock and its
    /// own memory peak.
    fn once<T>(
        &mut self,
        opts: &Options,
        scratch: &Scratch,
        name: &str,
        ingest_texts: usize,
        build: &mut impl FnMut(&adapter::Corpus, &Path) -> adapter::Result<()>,
        open: &mut impl FnMut(&Path) -> adapter::Result<T>,
    ) -> adapter::Result<(Load, PathBuf, T)> {
        host::reset_peak_rss();
        let start = Instant::now();
        let load = Load::generate(opts.seed, ingest_texts);
        let corpus = adapter::Corpus::new(&load.corpus.texts);
        let dir = scratch.fresh(name)?;
        let written = host::written_bytes();
        let (built, build_s) = timed(|| build(&corpus, &dir));
        built?;
        self.build_written = host::written_bytes() - written;
        let opened = open(&dir)?;
        self.setup_s.push(start.elapsed().as_secs_f64());
        self.build_s.push(build_s);
        self.tokens = corpus.tokens();
        self.setup_peak_mib.push(host::peak_rss_mib());
        Ok((load, dir, opened))
    }

    /// The set-ups before the timed region: the first half of
    /// `opts.setup_repeats`, rounded up, each from scratch, keeping the
    /// last. What the previous one opened is dropped first, and the peak of
    /// whatever follows set-up starts when the last one ends.
    ///
    /// The other half comes after the timed region (`repeat_after`): the
    /// host's speed moves in stretches of ten to sixty seconds, and set-ups
    /// a minute apart see two of them where five in a row see one.
    pub fn repeat<T>(
        &mut self,
        opts: &Options,
        scratch: &Scratch,
        ingest_texts: usize,
        mut build: impl FnMut(&adapter::Corpus, &Path) -> adapter::Result<()>,
        mut open: impl FnMut(&Path) -> adapter::Result<T>,
    ) -> adapter::Result<(Load, PathBuf, T)> {
        let mut last = None;
        for _ in 0..opts.setup_repeats.max(1).div_ceil(2) {
            drop(last.take());
            last = Some(self.once(opts, scratch, "index", ingest_texts, &mut build, &mut open)?);
        }
        host::reset_peak_rss();
        Ok(last.expect("set-up ran at least once"))
    }

    /// The rest of the set-ups, after the timed region and its checks; each
    /// builds beside what the run still holds and is dropped at once.
    pub fn repeat_after<T>(
        &mut self,
        opts: &Options,
        scratch: &Scratch,
        ingest_texts: usize,
        mut build: impl FnMut(&adapter::Corpus, &Path) -> adapter::Result<()>,
        mut open: impl FnMut(&Path) -> adapter::Result<T>,
    ) -> adapter::Result<()> {
        for _ in 0..opts.setup_repeats.max(1) / 2 {
            self.once(
                opts,
                scratch,
                "index_after",
                ingest_texts,
                &mut build,
                &mut open,
            )?;
        }
        Ok(())
    }

    /// The timed region is over; what runs next is the harness checking.
    pub fn end_timed_region(&mut self) {
        self.timed_peak_mib = host::peak_rss_mib();
    }

    /// Fills the end-to-end metrics every workload derives from set-up.
    pub fn report(&self, metrics: &mut Metrics) {
        let n = self.setup_s.len();
        metrics.set("setup_s", stats::median(&self.setup_s), n);
        // The repeats build the same corpus: the fastest is the least
        // disturbed, as in `Timed::best_pass`.
        let fastest = self.build_s.iter().copied().fold(f64::INFINITY, f64::min);
        metrics.set("build_tokens_per_s", self.tokens as f64 / fastest, n);
        // The process's peak, with the leanest set-up standing for all of
        // them: they do the same work, but when a build's threads happen to
        // peak together a set-up takes up to a quarter more memory, one time
        // in three on the sharded build. Where the host does not let the
        // peak restart, every figure is cumulative and this is `VmHWM`.
        let setup_peak = self
            .setup_peak_mib
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        println!(
            "peak resident set: set-ups {:.1?} MiB, timed region {:.1} MiB",
            self.setup_peak_mib, self.timed_peak_mib
        );
        metrics.set("peak_rss_mib", setup_peak.max(self.timed_peak_mib), n);
    }

    /// Bytes the build wrote per byte of tokens it indexed.
    pub fn build_write_ratio(&self) -> f64 {
        self.build_written as f64 / (4 * self.tokens) as f64
    }
}

/// Result of a closed loop: one entry per operation.
#[derive(Debug, Default)]
pub struct Timed {
    pub latencies_us: Vec<f64>,
    /// When each operation completed, from the start of the region.
    pub completions: Vec<Duration>,
    pub elapsed: Duration,
}

/// Rate and latency of the least disturbed pass of a closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestPass {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    /// Complete passes the best was taken from.
    pub passes: usize,
}

impl Timed {
    /// Splits the loop into passes of `pass_len` operations — one cycle
    /// through the distinct inputs, so every pass does the same work — and
    /// returns the highest rate and the lowest median and 95th percentile
    /// any pass reached.
    ///
    /// On a shared host the machine's speed drifts by some 15 % over tens
    /// of seconds; other tenants only ever slow a pass down. The best of
    /// many equal passes repeats within 3–4 % from run to run where the
    /// median over the whole region moves by 13 %, so it is the figure that
    /// can resolve a regression. Without one complete pass the whole
    /// region counts as the pass.
    pub fn best_pass(&self, pass_len: usize) -> BestPass {
        let passes = self.latencies_us.len() / pass_len.max(1);
        if passes == 0 {
            let s = stats::summarize(&self.latencies_us);
            return BestPass {
                ops_per_s: self.latencies_us.len() as f64 / self.elapsed.as_secs_f64(),
                p50_us: s.p50,
                p95_us: s.p95,
                passes: 0,
            };
        }
        let mut best = BestPass {
            ops_per_s: 0.0,
            p50_us: f64::INFINITY,
            p95_us: f64::INFINITY,
            passes,
        };
        for k in 0..passes {
            let (first, end) = (k * pass_len, (k + 1) * pass_len);
            let began = if first == 0 {
                Duration::ZERO
            } else {
                self.completions[first - 1]
            };
            let took = (self.completions[end - 1] - began).as_secs_f64();
            let s = stats::summarize(&self.latencies_us[first..end]);
            best.ops_per_s = best.ops_per_s.max(pass_len as f64 / took);
            best.p50_us = best.p50_us.min(s.p50);
            best.p95_us = best.p95_us.min(s.p95);
        }
        best
    }
}

/// Calls `op(i)` back to back for `seconds`; `i` counts from 0.
pub fn closed_loop<E>(
    seconds: f64,
    mut op: impl FnMut(usize) -> Result<(), E>,
) -> Result<Timed, E> {
    let mut timed = Timed::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = 0;
    loop {
        let before = Instant::now();
        op(i)?;
        let after = Instant::now();
        timed
            .latencies_us
            .push((after - before).as_secs_f64() * 1e6);
        timed.completions.push(after - start);
        i += 1;
        if after >= deadline {
            // Slices cover exactly the asked-for region; the operation that
            // crossed the deadline completed outside it.
            timed.elapsed = Duration::from_secs_f64(seconds);
            return Ok(timed);
        }
    }
}

/// Nanoseconds per call of `f`, as the median over `rounds` passes of the
/// mean over `inputs`. One untimed pass comes first.
pub fn per_call_ns<I>(inputs: &[I], rounds: usize, mut f: impl FnMut(&I)) -> f64 {
    assert!(!inputs.is_empty(), "nothing to time");
    inputs.iter().for_each(&mut f);
    let means: Vec<f64> = (0..rounds.max(1))
        .map(|_| {
            let start = Instant::now();
            inputs.iter().for_each(&mut f);
            start.elapsed().as_nanos() as f64 / inputs.len() as f64
        })
        .collect();
    stats::median(&means)
}

/// Seconds `f` takes, with its value.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip_and_cover_the_spec() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for (name, _) in crate::spec::WORKLOADS {
            assert!(Workload::parse(name).is_some(), "{name}");
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn closed_loop_runs_for_the_asked_time_and_counts_every_op() {
        let mut calls = 0;
        let timed = closed_loop::<()>(0.05, |i| {
            assert_eq!(i, calls);
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
            Ok(())
        })
        .unwrap();
        assert_eq!(timed.latencies_us.len(), calls);
        assert!((10..=51).contains(&calls), "{calls}");
        assert!(timed.latencies_us.iter().all(|&us| us >= 1_000.0));
        let whole = timed.best_pass(1_000_000);
        assert_eq!(whole.passes, 0);
        assert!(whole.ops_per_s > 100.0 && whole.ops_per_s <= 1_000.0);
    }

    #[test]
    fn best_pass_is_the_least_disturbed_of_equal_passes() {
        // Three passes of four ops: 1 ms each, then 2 ms each, then 1 ms
        // with one 5 ms straggler.
        let per_op = [1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 5, 1];
        let mut at = Duration::ZERO;
        let mut timed = Timed::default();
        for ms in per_op {
            at += Duration::from_millis(ms);
            timed.latencies_us.push(ms as f64 * 1e3);
            timed.completions.push(at);
        }
        timed.elapsed = at;
        let best = timed.best_pass(4);
        assert_eq!(best.passes, 3);
        assert!(
            (best.ops_per_s - 1_000.0).abs() < 1e-6,
            "{}",
            best.ops_per_s
        );
        assert_eq!(best.p50_us, 1_000.0);
        assert!(
            best.p95_us < 1_001.0,
            "the straggler's pass is not the best"
        );
    }

    #[test]
    fn per_call_ns_grows_with_the_work() {
        let spin = |iters: &u32| {
            let mut x = 0u64;
            for i in 0..*iters {
                x = std::hint::black_box(x.wrapping_add(i as u64));
            }
        };
        let small = per_call_ns(&[1_000u32; 8], 3, spin);
        let large = per_call_ns(&[100_000u32; 8], 3, spin);
        assert!(large > 10.0 * small, "{small} vs {large}");
    }
}
