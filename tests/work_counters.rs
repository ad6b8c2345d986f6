//! Exact work counters: what a fixed workload costs in postings, probes,
//! candidates, IO bytes, index bytes and fsyncs. Unlike wall-clock time,
//! these are the same on every host and in every session, so they are the
//! record that later changes are compared against.
//!
//! The test recomputes every counter and compares the rendering with the
//! committed `results/work_counters.json`, failing on **any** difference.
//! A change that moves a counter on purpose regenerates the file with
//!
//! ```text
//! NDSS_BLESS=1 cargo test -p ndss-integration --test work_counters
//! ```
//!
//! and says why in its change notes.
//!
//! The workload: a seeded synthetic corpus with planted near-duplicates,
//! built into one packed index on disk and opened with the posting cache
//! disabled (so each query's IO is its own, whatever ran before it). Queries
//! run one at a time with the default prefix filter at θ = 0.8. The
//! memorised set (windows of planted copies) finds candidates on every
//! query; the novel set (windows of a second corpus) finds almost none.
//! Publishing is counted apart from building: the fsyncs of one
//! `Store::publish` of one built segment and of two, each one `MANIFEST`
//! write. So is merging: the fsyncs and bytes written of one
//! `merge_indexes` of the corpus's two halves, each built apart. So is the
//! out-of-core build: the runs, fsyncs and bytes written of one
//! `ExternalIndexBuilder` build of the corpus at `EXTERNAL_BUDGET`.
//!
//! The ingest script: the same corpus published as one segment, then
//! `INGEST_TEXTS` texts of the second corpus appended with a WAL budget
//! that freezes about every four texts, each frozen segment compacted as
//! soon as it freezes. It records the bytes written (WAL frames plus every
//! index file and record, as `ndss_durable::bytes_written` counts them) per
//! user byte (4 per appended token), the fsyncs, the compactions and tail
//! merges, the serving list's peak and final length, and, for scale, what a
//! batch build of all the texts writes per user byte.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ndss::corpus::PlantedDuplicate;
use ndss::index::{
    build_and_write, merge_indexes, CacheConfig, ExternalIndexBuilder, IngestIndex, IngestOptions,
};
use ndss::prelude::*;
use ndss::query::QueryStats;
use ndss_integration::scratch;

/// `ndss_durable::fsync_count` is process-wide: every test in this binary
/// that measures it holds this lock.
static FSYNCS: Mutex<()> = Mutex::new(());

const K: usize = 32;
const T: usize = 25;
const SEED: u64 = 1234;
const THETA: f64 = 0.8;
const QUERY_LEN: u32 = 64;
const QUERIES: usize = 16;
const INGEST_TEXTS: usize = 64;
/// WAL bytes at which the script's memtable freezes: about four texts.
const INGEST_FLUSH_BYTES: u64 = 3_000;
/// Lists the script's store retains. Every list a compaction publishes
/// is still in the `MANIFEST` when it returns, so the peak is exact.
const INGEST_KEEP: usize = 3;
/// Memory budget of the recorded out-of-core build: about 8 300 tokens a
/// run at k = 32, t = 25, so the corpus is cut into four runs.
const EXTERNAL_BUDGET: usize = 1 << 19;

/// The counters recorded for each query, in this order.
const FIELDS: [&str; 6] = [
    "postings",
    "probes",
    "candidates",
    "lists_long",
    "io_bytes",
    "matched",
];

fn counters(stats: &QueryStats) -> [u64; 6] {
    [
        stats.postings_read,
        stats.long_probes as u64,
        stats.candidate_texts as u64,
        stats.lists_long as u64,
        stats.io_bytes,
        stats.matched_texts as u64,
    ]
}

fn synth(seed: u64, duplicates_per_text: f64) -> (InMemoryCorpus, Vec<PlantedDuplicate>) {
    SyntheticCorpusBuilder::new(seed)
        .num_texts(150)
        .text_len(100, 300)
        .vocab_size(4_000)
        .duplicates_per_text(duplicates_per_text)
        .dup_len(QUERY_LEN as usize, 120)
        .mutation_rate(0.05)
        .build()
}

/// The first `QUERY_LEN` tokens of the first `QUERIES` planted copies.
fn memorized_queries(corpus: &InMemoryCorpus, planted: &[PlantedDuplicate]) -> Vec<Vec<TokenId>> {
    planted
        .iter()
        .take(QUERIES)
        .map(|p| {
            let start = p.dst.span.start;
            let window = SeqRef::new(p.dst.text, start, start + QUERY_LEN - 1);
            corpus.sequence_to_vec(window).unwrap()
        })
        .collect()
}

/// The first `QUERY_LEN` tokens of the first `QUERIES` texts of a corpus the
/// index never saw.
fn novel_queries() -> Vec<Vec<TokenId>> {
    let (other, _) = synth(SEED + 1, 0.0);
    (0..QUERIES as TextId)
        .map(|i| other.text_to_vec(i).unwrap()[..QUERY_LEN as usize].to_vec())
        .collect()
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                std::fs::metadata(&path).unwrap().len()
            }
        })
        .sum()
}

/// What building the index cost, and what it weighs.
struct IndexWork {
    tokens: u64,
    /// Every byte a fresh build leaves in its directory, written once.
    bytes: u64,
    fsyncs: u64,
    /// One `Store::publish` of one built segment.
    publish_fsyncs: u64,
    /// One `Store::publish` of two built segments.
    sharded_publish_fsyncs: u64,
    /// One `merge_indexes` of two halves.
    merge_fsyncs: u64,
    merge_bytes: u64,
    /// One `ExternalIndexBuilder` build at `EXTERNAL_BUDGET`.
    external_runs: u64,
    external_fsyncs: u64,
    external_bytes: u64,
}

fn config() -> IndexConfig {
    IndexConfig::new(K, T, SEED).bit_packed(true)
}

/// The fsyncs `f` issues.
fn fsyncs<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ndss::durable::fsync_count();
    f();
    ndss::durable::fsync_count() - before
}

fn build(corpus: &InMemoryCorpus, dir: &Path) -> IndexWork {
    let _serial = FSYNCS.lock().unwrap_or_else(|e| e.into_inner());
    let fsyncs_per_build = fsyncs(|| build_and_write(corpus, config(), dir, false).unwrap());

    let publish = |shards: usize, tag: &str| {
        let store = Store::open(&scratch("work_counters", tag)).unwrap();
        let names: Vec<String> = partition_texts(corpus.num_texts(), shards)
            .into_iter()
            .map(|(first, len)| {
                let name = store.allocate().unwrap();
                let slice = CorpusSlice::new(corpus, first, len as usize);
                build_and_write(&slice, config(), &store.root().join(&name), false).unwrap();
                name
            })
            .collect();
        let n = fsyncs(|| store.publish(&names, 1).unwrap());
        std::fs::remove_dir_all(store.root()).ok();
        n
    };
    let publish_fsyncs = publish(1, "publish");
    let sharded_publish_fsyncs = publish(2, "sharded_publish");

    let root = scratch("work_counters", "merge");
    let halves: Vec<PathBuf> = partition_texts(corpus.num_texts(), 2)
        .into_iter()
        .enumerate()
        .map(|(i, (first, len))| {
            let half = root.join(format!("half_{i}"));
            let slice = CorpusSlice::new(corpus, first, len as usize);
            build_and_write(&slice, config(), &half, false).unwrap();
            half
        })
        .collect();
    let inputs: Vec<&Path> = halves.iter().map(PathBuf::as_path).collect();
    let merge_bytes = ndss::durable::bytes_written();
    let merge_fsyncs = fsyncs(|| merge_indexes(&inputs, &root.join("merged")).unwrap());
    let merge_bytes = ndss::durable::bytes_written() - merge_bytes;
    std::fs::remove_dir_all(&root).ok();

    // Each run is one `index.build.run` span; this binary builds nothing
    // else while the lock is held.
    let runs = || {
        Registry::global()
            .histogram("span.index.build.run", "span wall time", Unit::Seconds)
            .snapshot()
            .count
    };
    let external = scratch("work_counters", "external");
    let (external_runs, external_bytes) = (runs(), ndss::durable::bytes_written());
    let external_fsyncs = fsyncs(|| {
        ExternalIndexBuilder::new(config())
            .memory_budget(EXTERNAL_BUDGET)
            .build(corpus, &external)
            .unwrap()
    });
    let external_bytes = ndss::durable::bytes_written() - external_bytes;
    let external_runs = runs() - external_runs;
    assert!(external_runs >= 3, "the budget cuts {external_runs} runs");
    std::fs::remove_dir_all(&external).ok();

    IndexWork {
        tokens: corpus.total_tokens(),
        bytes: dir_bytes(dir),
        fsyncs: fsyncs_per_build,
        publish_fsyncs,
        sharded_publish_fsyncs,
        merge_fsyncs,
        merge_bytes,
        external_runs,
        external_fsyncs,
        external_bytes,
    }
}

/// Each query's counters from one searcher over the index at `dir`, and
/// checks that the lane set over the same directory reports the same.
fn query_work(dir: &Path, queries: &[Vec<TokenId>]) -> Vec<[u64; 6]> {
    let index = DiskIndex::open_with_cache(dir, CacheConfig::disabled()).unwrap();
    let searcher = NearDupSearcher::with_prefix_filter(&index, PrefixFilter::default()).unwrap();
    let rows: Vec<[u64; 6]> = queries
        .iter()
        .map(|q| counters(&searcher.search(q, THETA).unwrap().stats))
        .collect();

    let options = ServingOptions {
        cache: CacheConfig::disabled(),
        ..ServingOptions::default()
    };
    let view = ShardedIndex::open_with(dir, &options).unwrap();
    let lanes = view.searcher_with_filter(PrefixFilter::default()).unwrap();
    for (i, (q, row)) in queries.iter().zip(&rows).enumerate() {
        let got = counters(&lanes.search(q, THETA).unwrap().stats);
        assert_eq!(&got, row, "query {i}: the lane set counts other work");
    }
    rows
}

/// What the ingest script cost; see the module docs.
struct IngestWork {
    user_bytes: u64,
    bytes: u64,
    fsyncs: u64,
    compactions: u64,
    tail_merges: u64,
    peak_segments: usize,
    final_segments: usize,
    batch_user_bytes: u64,
    batch_bytes: u64,
}

fn user_bytes(texts: &[Vec<TokenId>]) -> u64 {
    texts.iter().map(|t| 4 * t.len() as u64).sum()
}

/// Runs the ingest script in `dir`.
fn ingest_work(corpus: &InMemoryCorpus, dir: &Path) -> IngestWork {
    let _serial = FSYNCS.lock().unwrap_or_else(|e| e.into_inner());
    let (second, _) = synth(SEED + 1, 0.0);
    let appended: Vec<Vec<TokenId>> = (0..INGEST_TEXTS as TextId)
        .map(|i| second.text_to_vec(i).unwrap())
        .collect();
    let root = &dir.join("store");

    let store = Store::open(root).unwrap();
    let base = store.allocate().unwrap();
    build_and_write(corpus, config(), &root.join(&base), false).unwrap();
    store.publish(&[base], INGEST_KEEP).unwrap();

    let tail_merges = Registry::global().counter(
        "ingest.tail_merges",
        "Runs of adjacent segments merged into one after a compaction",
    );
    let (bytes, fsyncs, merges) = (
        ndss::durable::bytes_written(),
        ndss::durable::fsync_count(),
        tail_merges.get(),
    );
    let opts = IngestOptions {
        flush_bytes: INGEST_FLUSH_BYTES,
        fsync_every: 4,
        keep: INGEST_KEEP,
        kill: None,
    };
    let mut ingest = IngestIndex::open(root, None, opts).unwrap();
    let (mut compactions, mut peak) = (0, 1);
    let mut compact = |ingest: &mut IngestIndex| {
        let generation = store.manifest().unwrap().generation;
        compactions += ingest.compact_all().unwrap() as u64;
        let manifest = store.manifest().unwrap();
        let published = (manifest.generation - generation) as usize;
        assert!(published <= INGEST_KEEP + 1, "a list went unobserved");
        let lists = std::iter::once(&manifest.segments).chain(&manifest.retained);
        peak = lists.take(published).map(Vec::len).fold(peak, usize::max);
    };
    for text in &appended {
        ingest.append(text).unwrap();
        if ingest.frozen_segments() > 0 {
            compact(&mut ingest);
        }
    }
    ingest.rotate().unwrap();
    compact(&mut ingest);
    let manifest = store.manifest().unwrap();
    assert_eq!(manifest.num_texts(), (150 + INGEST_TEXTS) as u64);
    let work = IngestWork {
        user_bytes: user_bytes(&appended),
        bytes: ndss::durable::bytes_written() - bytes,
        fsyncs: ndss::durable::fsync_count() - fsyncs,
        compactions,
        tail_merges: tail_merges.get() - merges,
        peak_segments: peak,
        final_segments: manifest.segments.len(),
        batch_user_bytes: 0,
        batch_bytes: 0,
    };
    drop(ingest);
    std::fs::remove_dir_all(root).ok();

    let mut all: Vec<Vec<TokenId>> = corpus.iter().map(|(_, t)| t.to_vec()).collect();
    all.extend(appended);
    let before = ndss::durable::bytes_written();
    build_and_write(
        &InMemoryCorpus::from_texts(all.clone()),
        config(),
        &dir.join("batch"),
        false,
    )
    .unwrap();
    let work = IngestWork {
        batch_user_bytes: user_bytes(&all),
        batch_bytes: ndss::durable::bytes_written() - before,
        ..work
    };
    std::fs::remove_dir_all(dir.join("batch")).ok();
    work
}

fn render_rows(out: &mut String, name: &str, rows: &[[u64; 6]]) {
    let row = |r: &[u64; 6]| {
        let cells: Vec<String> = r.iter().map(u64::to_string).collect();
        format!("[{}]", cells.join(", "))
    };
    let mut total = [0u64; 6];
    for r in rows {
        for (sum, v) in total.iter_mut().zip(r) {
            *sum += v;
        }
    }
    let lines: Vec<String> = rows.iter().map(|r| format!("      {}", row(r))).collect();
    writeln!(out, "    \"{name}\": [\n{}\n    ],", lines.join(",\n")).unwrap();
    write!(out, "    \"{name}_total\": {}", row(&total)).unwrap();
}

fn render(
    index: &IndexWork,
    ingest: &IngestWork,
    memorized: &[[u64; 6]],
    novel: &[[u64; 6]],
) -> String {
    let mut out = String::new();
    writeln!(out, "{{").unwrap();
    writeln!(
        out,
        "  \"workload\": {{\"k\": {K}, \"t\": {T}, \"seed\": {SEED}, \"theta\": {THETA}, \
         \"filter\": \"default\", \"format\": \"packed\", \"query_len\": {QUERY_LEN}}},"
    )
    .unwrap();
    writeln!(
        out,
        "  \"index\": {{\"tokens\": {}, \"bytes\": {}, \"bytes_per_token\": {:.4}, \
         \"bytes_written_per_build\": {}, \"fsyncs_per_build\": {}, \
         \"fsyncs_per_publish\": {}, \"fsyncs_per_publish_all_2_shards\": {}, \
         \"fsyncs_per_merge\": {}, \"bytes_written_per_merge\": {}}},",
        index.tokens,
        index.bytes,
        index.bytes as f64 / index.tokens as f64,
        index.bytes,
        index.fsyncs,
        index.publish_fsyncs,
        index.sharded_publish_fsyncs,
        index.merge_fsyncs,
        index.merge_bytes,
    )
    .unwrap();
    writeln!(
        out,
        "  \"external\": {{\"memory_budget\": {EXTERNAL_BUDGET}, \"runs\": {}, \
         \"fsyncs_per_external_build\": {}, \"bytes_written_per_external_build\": {}}},",
        index.external_runs, index.external_fsyncs, index.external_bytes,
    )
    .unwrap();
    writeln!(
        out,
        "  \"ingest\": {{\"texts\": {INGEST_TEXTS}, \"flush_bytes\": {INGEST_FLUSH_BYTES}, \
         \"user_bytes\": {}, \"bytes_written\": {}, \"bytes_per_user_byte\": {:.4}, \
         \"fsyncs\": {}, \"compactions\": {}, \"tail_merges\": {}, \"peak_segments\": {}, \
         \"final_segments\": {}, \"batch_bytes_per_user_byte\": {:.4}}},",
        ingest.user_bytes,
        ingest.bytes,
        ingest.bytes as f64 / ingest.user_bytes as f64,
        ingest.fsyncs,
        ingest.compactions,
        ingest.tail_merges,
        ingest.peak_segments,
        ingest.final_segments,
        ingest.batch_bytes as f64 / ingest.batch_user_bytes as f64,
    )
    .unwrap();
    let fields: Vec<String> = FIELDS.iter().map(|f| format!("\"{f}\"")).collect();
    writeln!(out, "  \"queries\": {{").unwrap();
    writeln!(out, "    \"fields\": [{}],", fields.join(", ")).unwrap();
    render_rows(&mut out, "memorized", memorized);
    writeln!(out, ",").unwrap();
    render_rows(&mut out, "novel", novel);
    writeln!(out, "\n  }}\n}}").unwrap();
    out
}

fn record_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .join("results/work_counters.json")
}

#[test]
fn work_counters_match_the_committed_record() {
    let (corpus, planted) = synth(SEED, 1.0);
    let dir = scratch("work_counters", "index");
    let index = build(&corpus, &dir);
    let ingest_dir = scratch("work_counters", "ingest");
    let ingest = ingest_work(&corpus, &ingest_dir);
    std::fs::remove_dir_all(&ingest_dir).ok();
    let memorized = query_work(&dir, &memorized_queries(&corpus, &planted));
    let novel = query_work(&dir, &novel_queries());
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        memorized.iter().all(|r| r[2] > 0),
        "every memorised query finds a candidate"
    );

    let got = render(&index, &ingest, &memorized, &novel);
    let path = record_path();
    if std::env::var_os("NDSS_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if got != want {
        let mut diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .enumerate()
            .filter(|(_, (w, g))| w != g)
            .map(|(i, (w, g))| format!("line {}:\n  committed {w}\n  now       {g}", i + 1))
            .collect();
        diff.push(format!(
            "{} committed lines, {} now",
            want.lines().count(),
            got.lines().count()
        ));
        panic!(
            "work counters differ from {} (regenerate with NDSS_BLESS=1 only for an \
             intended change):\n{}",
            path.display(),
            diff.join("\n")
        );
    }
}
