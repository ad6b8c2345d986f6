//! `write_path`: build, then WAL-backed ingest beside overlay reads, with
//! rotation, compaction and recovery, all on one thread so that every
//! count repeats exactly.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::adapter::{self, ColdRebuild, Ingest, Overlay, Result, View};
use crate::check::{oracle_check, Gate};
use crate::common::{timed, Options, Setup};
use crate::host::{self, Scratch};
use crate::load::{Load, Rng, Text};
use crate::report::Metrics;
use crate::trace::Recorder;
use crate::{spec, stats};

/// Distinct overlay queries; the batches cycle through them.
const OVERLAY_QUERIES: usize = 2_000;
/// Queries behind each of the three overlay-versus-plain medians.
const OVERLAY_SAMPLE: usize = 64;

/// How much the ingest phase does. The counts are fixed by `--seconds`, not
/// by the clock, so bytes written and index size repeat exactly; on the
/// reference host the phase takes about `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Texts of the corpus in the store's first generation.
    pub base_texts: usize,
    pub rounds: usize,
    pub round_texts: usize,
    pub tail_texts: usize,
}

impl Plan {
    /// The `write_path` workload: two compaction cycles per five seconds,
    /// which on the reference host makes the phase about `seconds` long up
    /// to 16 s (a cycle takes 1.5 s at first and 2.3 s by the sixth), and
    /// no more than twelve: every cycle merges the whole index, so the
    /// phase grows with the square of their number.
    pub fn for_seconds(seconds: f64) -> Plan {
        Plan {
            base_texts: spec::TEXTS,
            rounds: ((seconds * 0.4).round() as usize).clamp(1, 12),
            round_texts: spec::ROUND_TEXTS,
            tail_texts: spec::TAIL_TEXTS,
        }
    }

    /// The ingest layers as sampled by the other workloads' traced runs.
    pub fn brief() -> Plan {
        Plan {
            base_texts: 500,
            rounds: 2,
            round_texts: spec::ROUND_TEXTS / 2,
            tail_texts: spec::TAIL_TEXTS / 4,
        }
    }

    pub fn ingest_texts(&self) -> usize {
        self.rounds * self.round_texts + self.tail_texts
    }
}

/// Everything the ingest phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub append_us: Vec<f64>,
    pub sync_ms: Vec<f64>,
    pub ack_us: Vec<f64>,
    /// When each batch was acked, from the start of the phase.
    pub ack_at: Vec<Duration>,
    pub rotate_ms: Vec<f64>,
    pub compact_s: Vec<f64>,
    pub compact_written: Vec<f64>,
    pub overlay_us: Vec<f64>,
    /// Overlay search with an empty memtable, a full one, and the plain
    /// searcher, on the same queries.
    pub overlay_empty_us: Vec<f64>,
    pub overlay_full_us: Vec<f64>,
    pub plain_us: Vec<f64>,
    /// Time in append, sync, rotate and compact.
    pub ingest_seconds: f64,
    pub texts: usize,
    pub tokens: u64,
    pub written: u64,
    pub recover_s: f64,
    /// `VmHWM` after recovery, before the checks build their cold index.
    pub peak_mib: f64,
}

impl Phase {
    /// Longest gap between two acks: what a writer waits while a
    /// compaction holds the only thread.
    pub fn stall_max_ms(&self) -> f64 {
        self.ack_at
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }

    /// Fills the ingest and overlay layer metrics.
    pub fn report_layers(&self, metrics: &mut Metrics) {
        let n = self.append_us.len();
        metrics.set(
            "index.wal.append_us_per_text",
            stats::mean(&self.append_us),
            n,
        );
        metrics.set(
            "index.wal.sync_ms",
            stats::mean(&self.sync_ms),
            self.sync_ms.len(),
        );
        metrics.set(
            "index.ingest.rotate_ms",
            stats::mean(&self.rotate_ms),
            self.rotate_ms.len(),
        );
        metrics.set(
            "index.ingest.compact_s",
            stats::mean(&self.compact_s),
            self.compact_s.len(),
        );
        metrics.set(
            "index.ingest.compact_bytes_written",
            stats::mean(&self.compact_written),
            self.compact_written.len(),
        );
        metrics.set(
            "index.ingest.stall_max_ms",
            self.stall_max_ms(),
            self.ack_at.len(),
        );
        metrics.set("index.ingest.recover_s", self.recover_s, 1);
        metrics.set(
            "index.ingest.tokens_per_s",
            self.tokens as f64 / self.ingest_seconds,
            n,
        );
        metrics.set(
            "index.ingest.ack_p95_ms",
            stats::summarize(&self.ack_us).p95 / 1e3,
            self.ack_us.len(),
        );
        metrics.set(
            "query.overlay.search_p50_us",
            stats::median(&self.overlay_us),
            self.overlay_us.len(),
        );
        let empty = stats::median(&self.overlay_empty_us);
        metrics.set(
            "query.overlay.overhead_us",
            empty - stats::median(&self.plain_us),
            self.plain_us.len(),
        );
        metrics.set(
            "query.overlay.mem_share",
            stats::median(&self.overlay_full_us) / empty,
            self.overlay_full_us.len(),
        );
    }
}

/// A span when tracing, a plain call otherwise.
fn spanned<T>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(rec) => rec.span(name, f),
        None => f(),
    }
}

fn overlay_sample(view: &View, ingest: &Ingest, queries: &[Text]) -> Result<Vec<f64>> {
    let overlay = Overlay::new(view, ingest)?;
    queries
        .iter()
        .take(OVERLAY_SAMPLE)
        .map(|q| {
            let (outcome, secs) = timed(|| overlay.search(q));
            outcome.map(|_| secs * 1e6)
        })
        .collect()
}

/// Appends `texts` in acked batches with overlay searches after each,
/// rotating and compacting every `round_texts`; then leaves a tail in the
/// WAL, reopens the store and checks what recovery brought back.
#[allow(clippy::too_many_arguments)]
pub fn ingest_phase(
    root: &Path,
    base: &[Text],
    texts: &[Text],
    queries: &[Text],
    plan: &Plan,
    mut rec: Option<&mut Recorder>,
    gate: &mut Gate,
    seed: u64,
) -> Result<Phase> {
    assert_eq!(texts.len(), plan.ingest_texts());
    let base_len = base.len() as u32;
    let mut phase = Phase::default();
    let mut ingest = Ingest::open(root)?;
    let mut view = View::open(root)?;

    // What every overlay answer must say about the base texts, whatever
    // has been appended since: per-text results do not depend on other
    // texts. This pass also warms the page cache.
    let base_reference: Vec<u64> = {
        let searcher = view.searcher()?;
        queries
            .iter()
            .map(|q| Ok(adapter::signature(&searcher.search(q)?, base_len)))
            .collect::<Result<_>>()?
    };

    let stage = rec.as_mut().map(|rec| rec.begin("stage.write"));
    let started = Instant::now();
    let written = host::written_bytes();
    let mut next_query = 0usize;
    let mut wrong = 0u64;
    let compacted_texts = plan.rounds * plan.round_texts;
    let mut appended = 0usize;
    for batch in texts.chunks(spec::BATCH_TEXTS) {
        let batch_start = Instant::now();
        for text in batch {
            let (id, secs) =
                timed(|| spanned(&mut rec, "index.wal.append", || ingest.append(text)));
            gate.expect(id? == (base.len() + appended) as u64, || {
                "append returned an unexpected text id".to_string()
            });
            phase.append_us.push(secs * 1e6);
            phase.tokens += text.len() as u64;
            appended += 1;
        }
        let (synced, secs) = timed(|| spanned(&mut rec, "index.wal.sync", || ingest.sync()));
        synced?;
        phase.sync_ms.push(secs * 1e3);
        let ack = batch_start.elapsed();
        phase.ack_us.push(ack.as_secs_f64() * 1e6);
        phase.ack_at.push(started.elapsed());
        phase.ingest_seconds += ack.as_secs_f64();

        {
            let overlay = spanned(&mut rec, "query.overlay.open", || {
                Overlay::new(&view, &ingest)
            })?;
            for _ in 0..spec::SEARCHES_PER_BATCH {
                let slot = next_query % queries.len();
                next_query += 1;
                let (outcome, secs) = timed(|| {
                    spanned(&mut rec, "query.overlay.search", || {
                        overlay.search(&queries[slot])
                    })
                });
                phase.overlay_us.push(secs * 1e6);
                wrong += (adapter::signature(&outcome?, base_len) != base_reference[slot]) as u64;
            }
        }

        // A round ends here; the tail after the last round is not one.
        if appended.is_multiple_of(plan.round_texts) && appended <= compacted_texts {
            let last_round = appended == compacted_texts;
            if last_round {
                phase.overlay_full_us = spanned(&mut rec, "query.overlay.sample", || {
                    overlay_sample(&view, &ingest, queries)
                })?;
            }
            let (rotated, secs) =
                timed(|| spanned(&mut rec, "index.ingest.rotate", || ingest.rotate()));
            rotated?;
            phase.rotate_ms.push(secs * 1e3);
            phase.ingest_seconds += secs;
            let before = host::written_bytes();
            let (compacted, secs) = timed(|| {
                spanned(&mut rec, "index.ingest.compact_once", || {
                    ingest.compact_once()
                })
            });
            gate.expect(compacted?, || {
                "compact_once found no frozen segment".to_string()
            });
            phase.compact_s.push(secs);
            phase
                .compact_written
                .push((host::written_bytes() - before) as f64);
            phase.ingest_seconds += secs;
            view = spanned(&mut rec, "index.view.open", || View::open(root))?;
            if last_round {
                phase.overlay_empty_us = spanned(&mut rec, "query.overlay.sample", || {
                    overlay_sample(&view, &ingest, queries)
                })?;
                phase.plain_us =
                    spanned(&mut rec, "query.sharded.sample", || -> Result<Vec<f64>> {
                        let searcher = view.searcher()?;
                        queries
                            .iter()
                            .take(OVERLAY_SAMPLE)
                            .map(|q| {
                                let (outcome, secs) = timed(|| searcher.search(q));
                                outcome.map(|_| secs * 1e6)
                            })
                            .collect()
                    })?;
            }
        }
    }
    phase.texts = appended;
    phase.written = host::written_bytes() - written;
    gate.add(
        phase.overlay_us.len() as u64,
        wrong,
        "overlay answers (checksum on base texts)",
    );

    // Recovery: the tail is acked and only in the WAL.
    drop(ingest);
    let (reopened, secs) =
        timed(|| spanned(&mut rec, "index.ingest.recover", || Ingest::open(root)));
    let ingest = reopened?;
    phase.recover_s = secs;
    phase.peak_mib = host::peak_rss_mib();
    if let (Some(rec), Some(stage)) = (rec.as_mut(), stage) {
        rec.end(stage);
    }
    let compacted = compacted_texts as u64;
    gate.expect(ingest.pending() == plan.tail_texts as u64, || {
        format!(
            "recovery brought back {} pending texts, not {}",
            ingest.pending(),
            plan.tail_texts
        )
    });
    gate.expect(ingest.covered() == base.len() as u64 + compacted, || {
        format!(
            "{} texts are published, not {}",
            ingest.covered(),
            base.len() as u64 + compacted
        )
    });
    gate.expect(
        ingest.next_text_id() == (base.len() + texts.len()) as u64,
        || "the next text id does not follow the acked texts".to_string(),
    );

    // Every probed acked text finds itself, published or pending.
    let overlay = Overlay::new(&view, &ingest)?;
    let probes = spec::RECOVERY_PROBES.min(texts.len());
    for p in 0..probes {
        let j = p * texts.len() / probes;
        let outcome = overlay.search(&texts[j][..spec::QUERY_LEN])?;
        let id = base_len + j as u32;
        gate.expect(outcome.matches.iter().any(|m| m.text == id), || {
            format!("acked text {id} is not searchable after recovery")
        });
    }

    // Overlay answers equal a cold rebuild, and both equal the oracle.
    let all: Vec<Text> = base.iter().chain(texts).cloned().collect();
    let cold = ColdRebuild::build(&all)?;
    let mut rng = Rng::new(seed ^ 0x0AC1E);
    let half = spec::ORACLE_QUERIES / 2;
    let sample: Vec<Text> = queries
        .iter()
        .step_by((queries.len() / half).max(1))
        .take(half)
        .cloned()
        .chain((0..half).map(|i| {
            let text = &texts[i * texts.len() / half];
            text[text.len() - spec::QUERY_LEN..].to_vec()
        }))
        .collect();
    for q in &sample {
        let got = overlay.search(q)?;
        let want = cold.search(q)?;
        gate.expect(
            adapter::signature(&got, u32::MAX) == adapter::signature(&want, u32::MAX),
            || "overlay answer differs from a cold rebuild".to_string(),
        );
        oracle_check(
            gate,
            &got,
            q,
            &[],
            all.len() as u32,
            |id| &all[id as usize],
            &mut rng,
        )?;
    }
    Ok(phase)
}

pub fn overlay_queries(load: &Load) -> &[Text] {
    &load.mixed[..load.mixed.len().min(OVERLAY_QUERIES)]
}

/// The end-to-end run.
pub fn run(
    opts: &Options,
    scratch: &Scratch,
    gate: &mut Gate,
    metrics: &mut Metrics,
) -> Result<()> {
    let plan = Plan::for_seconds(opts.seconds);
    let mut setup = Setup::default();
    // Opening the memtable and the disk view is part of set-up; the phase
    // opens both again.
    let open = |root: &Path| {
        Ingest::open(root)?;
        View::open(root)?;
        Ok(())
    };
    let (load, root, ()) = setup.repeat(
        opts,
        scratch,
        plan.ingest_texts(),
        adapter::build_store,
        open,
    )?;

    let phase = ingest_phase(
        &root,
        &load.corpus.texts,
        &load.ingest.texts,
        overlay_queries(&load),
        &plan,
        None,
        gate,
        opts.seed,
    )?;

    setup.timed_peak_mib = phase.peak_mib;
    setup.repeat_after(
        opts,
        scratch,
        plan.ingest_texts(),
        adapter::build_store,
        open,
    )?;
    let acks = stats::summarize(&phase.ack_us);
    println!(
        "batch of {} texts to durable ack: {}; {} compactions, {} texts",
        spec::BATCH_TEXTS,
        acks.describe("us"),
        phase.compact_s.len(),
        phase.texts
    );
    // Every round appends as many texts to as full a memtable: the rounds
    // do equal work, and the least disturbed half of them is reported (see
    // `Timed::best_pass`). The rate has no equal parts (each compaction
    // merges a larger index), so it is the whole phase's.
    let rounds: Vec<Vec<f64>> = phase
        .ack_us
        .chunks_exact(plan.round_texts / spec::BATCH_TEXTS)
        .map(<[f64]>::to_vec)
        .collect();
    let (p50, p95) =
        stats::least_disturbed_half(&rounds).ok_or("the phase has no complete round")?;
    metrics.set(
        "ops_per_s",
        phase.texts as f64 / phase.ingest_seconds,
        phase.texts,
    );
    metrics.set("op_p50_us", p50, acks.samples);
    metrics.set("op_p95_us", p95, acks.samples);
    let published: u64 = load.ingest.texts[..plan.rounds * plan.round_texts]
        .iter()
        .map(|t| t.len() as u64)
        .sum();
    metrics.set(
        "index_bytes_per_token",
        adapter::serving_bytes(&root)? as f64 / (setup.tokens + published) as f64,
        1,
    );
    metrics.set(
        "write_bytes_per_user_byte",
        phase.written as f64 / (4 * phase.tokens) as f64,
        1,
    );
    setup.report(metrics);
    Ok(())
}

/// The ingest and overlay layers, one span per `append`, `sync`, `rotate`,
/// `compact_once` and overlay `search`. `base` and `texts` come from the
/// run's load; `plan` says how much of them to use.
pub fn traced_stage(
    scratch: &Scratch,
    load: &Load,
    plan: &Plan,
    rec: &mut Recorder,
    gate: &mut Gate,
    metrics: &mut Metrics,
    seed: u64,
) -> Result<()> {
    let base = &load.corpus.texts[..plan.base_texts];
    let root = scratch.fresh("ingest_store")?;
    adapter::build_store(&adapter::Corpus::new(base), &root)?;
    let phase = ingest_phase(
        &root,
        base,
        &load.ingest.texts[..plan.ingest_texts()],
        overlay_queries(load),
        plan,
        Some(rec),
        gate,
        seed,
    )?;
    phase.report_layers(metrics);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_counts_follow_seconds_and_nothing_else() {
        let plan = Plan::for_seconds(16.0);
        assert_eq!(plan.rounds, 6);
        assert_eq!(
            plan.ingest_texts(),
            6 * spec::ROUND_TEXTS + spec::TAIL_TEXTS
        );
        assert_eq!(Plan::for_seconds(0.4).rounds, 1);
        assert_eq!(Plan::for_seconds(50.0).rounds, 12);
        assert_eq!(spec::ROUND_TEXTS % spec::BATCH_TEXTS, 0);
        assert_eq!(spec::TAIL_TEXTS % spec::BATCH_TEXTS, 0);
        assert_eq!(Plan::brief().round_texts % spec::BATCH_TEXTS, 0);
    }

    #[test]
    fn the_longest_gap_between_acks_is_the_stall() {
        let phase = Phase {
            ack_at: [10, 20, 30, 530, 540]
                .into_iter()
                .map(Duration::from_millis)
                .collect(),
            ..Phase::default()
        };
        assert_eq!(phase.stall_max_ms(), 500.0);
    }
}
