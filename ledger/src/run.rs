//! One workload, run once: end to end with tracing off, or layer by layer
//! with the span recorder on.

use std::path::PathBuf;
use std::time::Instant;

use crate::adapter::{self, Index, Result, View};
use crate::check::Gate;
use crate::common::{per_call_ns, timed, Options, Workload};
use crate::host::{self, Scratch, RUN_DIR};
use crate::load::{Load, Text};
use crate::report::{Metrics, RunResult};
use crate::trace::Recorder;
use crate::write::Plan;
use crate::{layers, search, serve, spec, write};

/// How long a stage runs in a traced run of another workload.
const BRIEF_SECONDS: f64 = 2.0;
/// Queries a brief stage cycles through.
const BRIEF_QUERIES: usize = 2_000;

pub fn run(opts: &Options) -> Result<RunResult> {
    let scratch = Scratch::new(opts.seed, opts.workload.name())?;
    let mut gate = Gate::default();
    let mut metrics = Metrics::default();
    if opts.traced {
        traced(opts, &scratch, &mut gate, &mut metrics)?;
    } else {
        match opts.workload {
            Workload::SearchMemorized | Workload::SearchNovel => {
                search::run(opts, &scratch, &mut gate, &mut metrics)?
            }
            Workload::ServeOpenLoop => serve::run(opts, &scratch, &mut gate, &mut metrics)?,
            Workload::WritePath => write::run(opts, &scratch, &mut gate, &mut metrics)?,
        }
    }
    for reason in gate.reasons() {
        eprintln!("ledger: {}: {reason}", opts.workload.name());
    }
    Ok(RunResult {
        workload: opts.workload.name().to_string(),
        seed: opts.seed,
        traced: opts.traced,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    })
}

pub fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(RUN_DIR).join(format!("trace-{}.json", workload.name()))
}

/// `ShardedSearcher::search` over two shards against
/// `NearDupSearcher::search` over one index of the same corpus.
fn sharded_overhead(
    index: &Index,
    store: &std::path::Path,
    queries: &[Text],
    metrics: &mut Metrics,
) -> Result<()> {
    let sample = &queries[..queries.len().min(256)];
    let single = index.searcher()?;
    let view = View::open(store)?;
    let sharded = view.searcher()?;
    let mut failed = false;
    let one = per_call_ns(sample, 3, |q| failed |= single.search(q).is_err());
    let two = per_call_ns(sample, 3, |q| failed |= sharded.search(q).is_err());
    if failed {
        return Err("a search failed while being timed".into());
    }
    metrics.set("query.sharded.overhead_us", (two - one) / 1e3, sample.len());
    Ok(())
}

/// The traced run: the workload's own stage for `--seconds` (at most
/// `spec::TRACED_SECONDS`) under the span
/// recorder, the other stages briefly, then the layer primitives. Every
/// per-layer metric is measured in every workload's traced run, on that
/// workload's queries; the README says which run is the one to quote.
fn traced(opts: &Options, scratch: &Scratch, gate: &mut Gate, metrics: &mut Metrics) -> Result<()> {
    let own = opts.workload;
    let own_seconds = opts.seconds.min(spec::TRACED_SECONDS);
    let plan = if own == Workload::WritePath {
        Plan::for_seconds(own_seconds)
    } else {
        Plan::brief()
    };
    let (load, synth_s) = timed(|| Load::generate(opts.seed, plan.ingest_texts()));
    metrics.set("corpus.synth_s", synth_s, 1);
    let corpus = adapter::Corpus::new(&load.corpus.texts);
    let index_dir = scratch.fresh("index")?;
    drop(Index::build(&corpus, &index_dir)?);
    let store = scratch.fresh("store")?;
    adapter::build_sharded(&corpus, &store)?;
    drop(corpus);
    metrics.set("mem.setup_peak_mib", host::peak_rss_mib(), 1);
    let index = Index::open(&index_dir, false)?;

    let queries = search::queries(&load, own);
    let brief = &queries[..queries.len().min(BRIEF_QUERIES)];
    let origin = Instant::now();
    let mut own_trace = None;

    // Each stage opens one root span around its replay, so the self times
    // of a trace add up to the replay's wall time.
    let searching = matches!(own, Workload::SearchMemorized | Workload::SearchNovel);
    let mut rec = Recorder::new(origin);
    if searching {
        search::traced_stage(&index, queries, own_seconds, &mut rec, gate, metrics)?;
        own_trace = Some(rec);
    } else {
        search::traced_stage(&index, brief, BRIEF_SECONDS, &mut rec, gate, metrics)?;
    }

    let serving = own == Workload::ServeOpenLoop;
    let mut rec = Recorder::new(origin);
    let seconds = if serving { own_seconds } else { BRIEF_SECONDS };
    serve::traced_stage(&store, brief, seconds, &mut rec, gate, metrics)?;
    if serving {
        own_trace = Some(rec);
    }

    let mut rec = Recorder::new(origin);
    write::traced_stage(scratch, &load, &plan, &mut rec, gate, metrics, opts.seed)?;
    if own == Workload::WritePath {
        own_trace = Some(rec);
    }

    layers::primitives(&load, queries, gate, metrics)?;
    layers::read_path(&index_dir, queries, metrics)?;
    sharded_overhead(&index, &store, queries, metrics)?;
    search::oracle_sample(gate, &index.searcher()?, &load, own, opts.seed)?;
    drop(index);
    layers::build_and_format(&load, scratch, metrics)?;

    // What the trace says about itself.
    let rec = own_trace.expect("one stage is the workload's own");
    let root = &rec.spans()[0];
    let wall_ns = root.end_ns - root.start_ns;
    let own_ns = rec.self_times();
    metrics.set("trace.spans", rec.spans().len() as f64, rec.spans().len());
    metrics.set(
        "trace.self_time_coverage",
        rec.coverage(),
        rec.spans().len(),
    );
    metrics.set(
        "trace.harness_share",
        own_ns[0] as f64 / wall_ns.max(1) as f64,
        1,
    );
    rec.write(&trace_path(own), own.name(), wall_ns)?;

    metrics.set(
        "harness.failed_share",
        gate.failed_share(),
        gate.attempted as usize,
    );
    metrics.set("harness.checked_ops", gate.attempted as f64, 1);
    Ok(())
}
