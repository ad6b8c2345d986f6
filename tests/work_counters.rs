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
//! generation-store publish and of one two-shard `publish_all`, each of
//! generations already built.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ndss::corpus::PlantedDuplicate;
use ndss::index::generation::generation_name;
use ndss::index::{build_and_write, CacheConfig};
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
    /// One `GenerationStore::publish` of a built generation.
    publish_fsyncs: u64,
    /// One `ShardedStore::publish_all` of two built shards.
    sharded_publish_fsyncs: u64,
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

    let root = scratch("work_counters", "publish");
    let store = GenerationStore::open(&root).unwrap();
    build_and_write(corpus, config(), &store.allocate().unwrap(), false).unwrap();
    let publish_fsyncs = fsyncs(|| store.publish(&generation_name(0), 1).unwrap());

    let root = scratch("work_counters", "sharded_publish");
    let ranges = partition_texts(corpus.num_texts(), 2);
    let mut sharded = ShardedStore::create(&root, &ranges).unwrap();
    for (i, &(first, len)) in ranges.iter().enumerate() {
        let slice = CorpusSlice::new(corpus, first, len as usize);
        let dir = sharded.shard_store(i).unwrap().allocate().unwrap();
        build_and_write(&slice, config(), &dir, false).unwrap();
    }
    let names = vec![generation_name(0); 2];
    let sharded_publish_fsyncs = fsyncs(|| sharded.publish_all(&names, 1).unwrap());
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(store.root()).ok();

    IndexWork {
        tokens: corpus.total_tokens(),
        bytes: dir_bytes(dir),
        fsyncs: fsyncs_per_build,
        publish_fsyncs,
        sharded_publish_fsyncs,
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

fn render(index: &IndexWork, memorized: &[[u64; 6]], novel: &[[u64; 6]]) -> String {
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
         \"fsyncs_per_publish\": {}, \"fsyncs_per_publish_all_2_shards\": {}}},",
        index.tokens,
        index.bytes,
        index.bytes as f64 / index.tokens as f64,
        index.bytes,
        index.fsyncs,
        index.publish_fsyncs,
        index.sharded_publish_fsyncs,
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
    let memorized = query_work(&dir, &memorized_queries(&corpus, &planted));
    let novel = query_work(&dir, &novel_queries());
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        memorized.iter().all(|r| r[2] > 0),
        "every memorised query finds a candidate"
    );

    let got = render(&index, &memorized, &novel);
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
