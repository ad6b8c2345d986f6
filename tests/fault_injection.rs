//! Fault-injection sweeps over every on-disk format.
//!
//! For each artifact (fixed-width v3 index, compressed v4 index, bitpacked
//! v6 index, corpus v2) the harness applies hundreds of seed-deterministic
//! mutations — bit
//! flips, truncations, zeroed pages, adversarial header fields, trailing
//! garbage — and requires that every case either fails with a clean typed
//! error or reads back byte-identically to the pristine artifact. A panic,
//! an allocation larger than 64 MiB, or a silently different query result
//! fails the sweep with the offending seed in the message.
//!
//! Because the checksummed formats cover every byte (header CRC + one CRC
//! per section) and validate exact file length, an *effective* mutation can
//! never read back clean — the sweeps assert all of them are rejected.
//! The pre-checksum layouts (index v1/v2, corpus v1) are no longer read at
//! all: a file carrying one of their headers, pristine or mutated, must be
//! rejected with a clean `Malformed` before any of its counts is believed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use ndss::corpus::CorpusError;
use ndss::index::container::Reader;
use ndss::index::IndexError;
use ndss::prelude::*;

use ndss_integration::mutate::mutate;
use ndss_integration::scratch;

/// Tracks the largest single allocation requested anywhere in the process.
/// A corrupted header must never translate into an OOM-sized allocation;
/// 64 MiB is orders of magnitude above anything these small test artifacts
/// legitimately need.
struct PeakAlloc;

static LARGEST_ALLOC: AtomicUsize = AtomicUsize::new(0);
const ALLOC_CAP: usize = 64 << 20;

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn assert_alloc_cap(context: &str) {
    let peak = LARGEST_ALLOC.load(Ordering::Relaxed);
    assert!(
        peak <= ALLOC_CAP,
        "{context}: corrupted input drove a {peak}-byte allocation (cap {ALLOC_CAP})"
    );
}

// ---------------------------------------------------------------------------
// Checksummed index formats: full open → verify → query pipeline.
// ---------------------------------------------------------------------------

/// Opens the index directory, streams every stored checksum, and runs the
/// query set; any corruption must surface as `Err` before results differ.
fn run_queries(dir: &Path, queries: &[Vec<TokenId>]) -> Result<Vec<SeqRef>, String> {
    let index = CorpusIndex::open(dir, PrefixFilter::Disabled).map_err(|e| e.to_string())?;
    index
        .index()
        .verify_integrity()
        .map_err(|e| e.to_string())?;
    let searcher = index.searcher().map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for query in queries {
        let outcome = searcher.search(query, 0.8).map_err(|e| e.to_string())?;
        out.extend(outcome.enumerate_all());
    }
    Ok(out)
}

/// Builds an index in the named on-disk format (`"v3"`, `"v4"`, `"v6"`)
/// and runs the mutation sweep against its `inv_0.ndsi`.
fn index_sweep(version: &str, seeds: u64) {
    let (compress, packed) = match version {
        "v3" => (false, false),
        "v4" => (true, false),
        "v6" => (false, true),
        other => panic!("unknown index format {other}"),
    };
    let dir = scratch("faults", &format!("index_{version}"));
    let (corpus, planted) = SyntheticCorpusBuilder::new(41).num_texts(30).build();
    let params = SearchParams::new(2, 25, 5)
        .index_config(|c| c.compressed(compress).bit_packed(packed).zone_map(8, 16));
    CorpusIndex::build_on_disk(&corpus, params, &dir).unwrap();
    let queries: Vec<Vec<TokenId>> = planted
        .iter()
        .take(4)
        .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
        .collect();
    assert!(
        !queries.is_empty(),
        "synthetic corpus planted no duplicates"
    );
    let baseline = run_queries(&dir, &queries).expect("pristine index must verify and search");
    assert!(!baseline.is_empty(), "queries must hit planted duplicates");

    let target = dir.join("inv_0.ndsi");
    let pristine = std::fs::read(&target).unwrap();
    let (mut applied, mut rejected) = (0u64, 0u64);
    for seed in 0..seeds {
        let (mutated, mutation) = mutate(&pristine, seed);
        if mutated == pristine {
            continue; // e.g. zeroed an already-zero page
        }
        applied += 1;
        std::fs::write(&target, &mutated).unwrap();
        match catch_unwind(AssertUnwindSafe(|| run_queries(&dir, &queries))) {
            Err(_) => panic!("{version} seed {seed}: {mutation:?} caused a panic"),
            Ok(Err(_)) => rejected += 1,
            Ok(Ok(results)) => assert_eq!(
                results, baseline,
                "{version} seed {seed}: {mutation:?} gave silently wrong results"
            ),
        }
    }
    // Every byte of a checksummed file is covered, so no effective mutation
    // may survive the open + verify pipeline.
    assert_eq!(
        rejected, applied,
        "{version}: all {applied} effective mutations must be rejected"
    );
    assert!(
        applied > seeds / 2,
        "{version}: mutation sweep mostly no-ops"
    );
    std::fs::write(&target, &pristine).unwrap();
    let restored = run_queries(&dir, &queries).expect("restoring pristine bytes must heal");
    assert_eq!(restored, baseline);
    assert_alloc_cap(version);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fixed_width_index_survives_mutation_sweep() {
    index_sweep("v3", 220);
}

#[test]
fn compressed_index_survives_mutation_sweep() {
    index_sweep("v4", 220);
}

/// v6's every byte is covered by the header CRC, the per-section CRCs, and
/// the structural prefix-sum check over per-block bit widths — so the
/// sweep's truncations (which shear the skip table) and bit flips (which
/// corrupt per-block widths) must all reject cleanly.
#[test]
fn bitpacked_index_survives_mutation_sweep() {
    index_sweep("v6", 220);
}

// ---------------------------------------------------------------------------
// Checksummed corpus format.
// ---------------------------------------------------------------------------

fn corpus_reads(path: &Path) -> Result<(u64, Vec<Vec<TokenId>>), String> {
    let corpus = DiskCorpus::open(path).map_err(|e| e.to_string())?;
    corpus.verify().map_err(|e| e.to_string())?;
    let mut texts = Vec::new();
    for id in 0..corpus.num_texts() {
        texts.push(
            corpus
                .text_to_vec(id as TextId)
                .map_err(|e| e.to_string())?,
        );
    }
    Ok((corpus.total_tokens(), texts))
}

#[test]
fn corpus_survives_mutation_sweep() {
    let dir = scratch("faults", "corpus_v2");
    let path = dir.join("c.ndsc");
    let (corpus, _) = SyntheticCorpusBuilder::new(42).num_texts(25).build();
    ndss::corpus::disk::write_corpus(&corpus, &path).unwrap();
    let baseline = corpus_reads(&path).expect("pristine corpus must verify and read");

    let pristine = std::fs::read(&path).unwrap();
    let (mut applied, mut rejected) = (0u64, 0u64);
    for seed in 0..220 {
        let (mutated, mutation) = mutate(&pristine, seed);
        if mutated == pristine {
            continue;
        }
        applied += 1;
        std::fs::write(&path, &mutated).unwrap();
        match catch_unwind(AssertUnwindSafe(|| corpus_reads(&path))) {
            Err(_) => panic!("corpus seed {seed}: {mutation:?} caused a panic"),
            Ok(Err(_)) => rejected += 1,
            Ok(Ok(read)) => assert_eq!(
                read, baseline,
                "corpus seed {seed}: {mutation:?} gave silently wrong texts"
            ),
        }
    }
    assert_eq!(
        rejected, applied,
        "corpus v2: all {applied} effective mutations must be rejected"
    );
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(corpus_reads(&path).unwrap(), baseline);
    assert_alloc_cap("corpus v2");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Pre-checksum layouts (index v1/v2, corpus v1): support is deleted, so the
// only acceptable outcome is a clean rejection.
// ---------------------------------------------------------------------------

/// A file opening with `header_len` bytes of a checksum-less header —
/// `magic`, `version`, then 8-byte counts that, were they believed, would
/// size exabyte sections — followed by filler.
fn pre_checksum_file(magic: &[u8; 4], version: u32, header_len: usize) -> Vec<u8> {
    let mut bytes = vec![0x5Au8; header_len + 300];
    bytes[0..4].copy_from_slice(magic);
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    for field in bytes[8..header_len].chunks_exact_mut(8) {
        field.copy_from_slice(&(u64::MAX / 5).to_le_bytes());
    }
    bytes
}

/// Writes `pristine` and then seeded mutations of it to `path`; every one
/// must make `open` fail with its `Malformed` error (`Err(None)` marks any
/// other error) — never a panic, never an allocation sized by the file's
/// counts — and the pristine file must be refused by version.
fn rejection_sweep<F>(name: &str, pristine: &[u8], path: &Path, version: u32, open: F)
where
    F: Fn(&Path) -> Result<(), Option<String>>,
{
    std::fs::write(path, pristine).unwrap();
    match open(path) {
        Err(Some(msg)) => assert!(
            msg.contains(&format!("version {version}")) && msg.contains("unsupported"),
            "{name}: rejected for the wrong reason: {msg}"
        ),
        other => panic!("{name}: pristine pre-checksum file gave {other:?}"),
    }
    for seed in 0..80 {
        let (mutated, mutation) = mutate(pristine, seed);
        std::fs::write(path, &mutated).unwrap();
        match catch_unwind(AssertUnwindSafe(|| open(path))) {
            Err(_) => panic!("{name} seed {seed}: {mutation:?} caused a panic"),
            Ok(Err(Some(_))) => {}
            Ok(other) => panic!("{name} seed {seed}: {mutation:?} gave {other:?}"),
        }
    }
    assert_alloc_cap(name);
}

#[test]
fn pre_checksum_index_files_are_rejected() {
    let dir = scratch("faults", "pre_checksum_index");
    let path = dir.join("inv_0.ndsi");
    for version in [1u32, 2] {
        let pristine = pre_checksum_file(b"NDSI", version, 48);
        rejection_sweep(
            &format!("index v{version}"),
            &pristine,
            &path,
            version,
            |p| match Reader::open(p) {
                Ok(_) => Ok(()),
                Err(IndexError::Malformed(msg)) => Err(Some(msg)),
                Err(_) => Err(None),
            },
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pre_checksum_corpus_file_is_rejected() {
    let dir = scratch("faults", "pre_checksum_corpus");
    let path = dir.join("c.ndsc");
    let pristine = pre_checksum_file(b"NDSC", 1, 24);
    rejection_sweep(
        "corpus v1",
        &pristine,
        &path,
        1,
        |p| match DiskCorpus::open(p) {
            Ok(_) => Ok(()),
            Err(CorpusError::Malformed(msg)) => Err(Some(msg)),
            Err(_) => Err(None),
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Sharded store: corruption of one shard or the manifest must reject
// cleanly without poisoning its siblings.
// ---------------------------------------------------------------------------

/// Opens the sharded store, validates it end to end, and runs the query
/// set through the scatter-gather path.
fn run_sharded_queries(root: &Path, queries: &[Vec<TokenId>]) -> Result<Vec<SeqRef>, String> {
    let store = ShardedStore::open(root).map_err(|e| e.to_string())?;
    store.verify().map_err(|e| e.to_string())?;
    let view = ShardedIndex::open(root).map_err(|e| e.to_string())?;
    let searcher = view.searcher().map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for query in queries {
        let outcome = searcher.search(query, 0.8).map_err(|e| e.to_string())?;
        out.extend(outcome.enumerate_all());
    }
    Ok(out)
}

/// Seeded mutations of one shard's serving postings file: every effective
/// mutation is rejected with a clean error (never a panic, never silently
/// wrong results), per-shard verification pinpoints the broken shard while
/// its siblings still verify, and restoring the pristine bytes heals the
/// store.
#[test]
fn sharded_store_rejects_single_shard_corruption() {
    let root = scratch("faults", "sharded_shard0001");
    let (corpus, planted) = SyntheticCorpusBuilder::new(43).num_texts(30).build();
    let config = IndexConfig::new(2, 25, 5).zone_map(8, 16);
    let store = build_sharded(&corpus, config, &root, 3, &ShardedBuildOptions::default()).unwrap();
    let queries: Vec<Vec<TokenId>> = planted
        .iter()
        .take(4)
        .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
        .collect();
    let baseline =
        run_sharded_queries(&root, &queries).expect("pristine store must verify and search");
    assert!(!baseline.is_empty(), "queries must hit planted duplicates");

    let target = store.serving_dir(1).unwrap().join("inv_0.ndsi");
    let pristine = std::fs::read(&target).unwrap();
    let (mut applied, mut rejected) = (0u64, 0u64);
    for seed in 0..160 {
        let (mutated, mutation) = mutate(&pristine, seed);
        if mutated == pristine {
            continue;
        }
        applied += 1;
        std::fs::write(&target, &mutated).unwrap();
        match catch_unwind(AssertUnwindSafe(|| run_sharded_queries(&root, &queries))) {
            Err(_) => panic!("sharded seed {seed}: {mutation:?} caused a panic"),
            Ok(Err(_)) => rejected += 1,
            Ok(Ok(results)) => assert_eq!(
                results, baseline,
                "sharded seed {seed}: {mutation:?} gave silently wrong results"
            ),
        }
        // The fault stays confined: per-shard verification blames exactly
        // the mutated shard, and the siblings keep verifying clean.
        if seed % 20 == 0 {
            let verdicts: Vec<bool> = (0..3).map(|i| store.verify_shard(i).is_ok()).collect();
            assert!(
                verdicts[0],
                "sharded seed {seed}: corruption leaked into shard 0"
            );
            assert!(
                verdicts[2],
                "sharded seed {seed}: corruption leaked into shard 2"
            );
            assert!(
                !verdicts[1],
                "sharded seed {seed}: mutated shard verified clean"
            );
        }
    }
    assert_eq!(
        rejected, applied,
        "sharded: all {applied} effective mutations must be rejected"
    );
    std::fs::write(&target, &pristine).unwrap();
    let restored =
        run_sharded_queries(&root, &queries).expect("restoring pristine bytes must heal");
    assert_eq!(restored, baseline);
    assert_alloc_cap("sharded shard file");
    std::fs::remove_dir_all(&root).ok();
}

/// Seeded mutations of the store manifest itself: the manifest is
/// CRC-checksummed and structurally validated, so an effective mutation can
/// only survive the open when it is *formatting-only* — the JSON parses to
/// the exact pristine content (the CRC covers the canonical
/// re-serialization, e.g. a bit flip turning `: 16` into `:016`). Every
/// content-changing mutation must fail the open: the store can never come
/// up on a torn or tampered shard map.
#[test]
fn sharded_store_rejects_manifest_corruption() {
    let root = scratch("faults", "sharded_manifest");
    let (corpus, planted) = SyntheticCorpusBuilder::new(44).num_texts(24).build();
    let config = IndexConfig::new(2, 25, 5);
    build_sharded(&corpus, config, &root, 3, &ShardedBuildOptions::default()).unwrap();
    let queries: Vec<Vec<TokenId>> = planted
        .iter()
        .take(3)
        .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
        .collect();
    let baseline =
        run_sharded_queries(&root, &queries).expect("pristine store must verify and search");

    let target = root.join("MANIFEST");
    let pristine = std::fs::read(&target).unwrap();
    let reference = ShardedStore::open(&root).unwrap().manifest().clone();
    let (mut applied, mut rejected) = (0u64, 0u64);
    for seed in 0..160 {
        let (mutated, mutation) = mutate(&pristine, seed);
        if mutated == pristine {
            continue;
        }
        applied += 1;
        std::fs::write(&target, &mutated).unwrap();
        match catch_unwind(AssertUnwindSafe(|| run_sharded_queries(&root, &queries))) {
            Err(_) => panic!("manifest seed {seed}: {mutation:?} caused a panic"),
            Ok(Err(_)) => rejected += 1,
            Ok(Ok(results)) => {
                assert_eq!(
                    results, baseline,
                    "manifest seed {seed}: {mutation:?} gave silently wrong results"
                );
                // A survivor must be formatting-only: the parsed manifest
                // is the pristine one, field for field.
                let reloaded = ShardedStore::open(&root).unwrap();
                assert_eq!(
                    *reloaded.manifest(),
                    reference,
                    "manifest seed {seed}: {mutation:?} survived with different content"
                );
            }
        }
    }
    assert!(
        rejected >= applied.saturating_sub(applied / 20),
        "manifest: only {rejected} of {applied} effective mutations rejected —          more than formatting-only survivors"
    );
    std::fs::write(&target, &pristine).unwrap();
    assert_eq!(run_sharded_queries(&root, &queries).unwrap(), baseline);
    assert_alloc_cap("sharded manifest");
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Ingest WAL: prefix-or-reject under mutation.
// ---------------------------------------------------------------------------

use ndss::index::{IngestIndex, IngestOptions};

/// Opens (recovering) the memtable and returns every in-memory text, in
/// global id order. Recovery truncates torn tails, so this both parses and
/// *repairs* — each seed rewrites the file first.
fn wal_recovered_texts(root: &Path) -> Result<Vec<Vec<TokenId>>, String> {
    let opts = IngestOptions {
        fsync_every: 1,
        ..IngestOptions::default()
    };
    let ingest = IngestIndex::open(root, None, opts).map_err(|e| e.to_string())?;
    Ok(ingest
        .segments()
        .flat_map(|s| s.texts().iter().cloned())
        .collect())
}

/// The WAL's contract under arbitrary corruption differs from the sealed
/// formats: a damaged *tail* is expected (that is what a torn write looks
/// like) and recovery must truncate to the longest valid prefix — but it
/// must never invent, reorder, or resurrect records, and never accept a
/// record after a bad frame. So every mutation seed must yield either a
/// clean typed error or a strict *prefix* of the pristine text sequence;
/// wrong content anywhere is a sweep failure, as is a panic or an
/// OOM-sized allocation from an adversarial length field.
#[test]
fn ingest_wal_survives_mutation_sweep() {
    let root = scratch("faults", "ingest_wal");
    let (corpus, _) = SyntheticCorpusBuilder::new(45)
        .num_texts(10)
        .text_len(40, 80)
        .vocab_size(300)
        .build();
    let texts: Vec<Vec<TokenId>> = (0..corpus.num_texts() as TextId)
        .map(|i| corpus.text_to_vec(i).unwrap())
        .collect();
    {
        let opts = IngestOptions {
            fsync_every: 1,
            ..IngestOptions::default()
        };
        let mut ingest = IngestIndex::open(&root, Some(IndexConfig::new(2, 10, 3)), opts).unwrap();
        for t in &texts {
            ingest.append(t).unwrap();
        }
    }
    let baseline = wal_recovered_texts(&root).expect("pristine WAL must replay");
    assert_eq!(baseline, texts);

    let target = root.join("memtable").join("wal").join("wal-000001.log");
    let pristine = std::fs::read(&target).unwrap();
    let (mut applied, mut rejected, mut truncated, mut intact) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..260 {
        let (mutated, mutation) = mutate(&pristine, seed);
        if mutated == pristine {
            continue;
        }
        applied += 1;
        std::fs::write(&target, &mutated).unwrap();
        match catch_unwind(AssertUnwindSafe(|| wal_recovered_texts(&root))) {
            Err(_) => panic!("wal seed {seed}: {mutation:?} caused a panic"),
            Ok(Err(_)) => rejected += 1,
            Ok(Ok(recovered)) => {
                assert!(
                    recovered.len() <= baseline.len()
                        && recovered.as_slice() == &baseline[..recovered.len()],
                    "wal seed {seed}: {mutation:?} recovered non-prefix content"
                );
                if recovered.len() < baseline.len() {
                    truncated += 1;
                } else {
                    intact += 1; // e.g. trailing garbage beyond the valid frames
                }
            }
        }
    }
    assert_eq!(rejected + truncated + intact, applied);
    assert!(
        truncated > 0,
        "sweep never exercised torn-tail truncation ({applied} applied)"
    );
    assert!(applied > 130, "wal mutation sweep mostly no-ops");

    std::fs::write(&target, &pristine).unwrap();
    assert_eq!(
        wal_recovered_texts(&root).unwrap(),
        baseline,
        "restoring pristine bytes must heal"
    );
    assert_alloc_cap("ingest wal");
    std::fs::remove_dir_all(&root).ok();
}

/// The memtable manifest is CRC-checksummed with the same idiom as the
/// store manifests: corruption must never bring up a memtable with
/// different settings — every content-changing mutation fails the open,
/// and (per the GC contract) even a corrupt manifest keeps protecting its
/// WAL files from collection.
#[test]
fn memtable_manifest_rejects_corruption() {
    let root = scratch("faults", "ingest_manifest");
    let opts = IngestOptions {
        fsync_every: 1,
        ..IngestOptions::default()
    };
    {
        let mut ingest =
            IngestIndex::open(&root, Some(IndexConfig::new(2, 10, 3)), opts.clone()).unwrap();
        for t in [vec![1u32; 30], vec![2u32; 30]] {
            ingest.append(&t).unwrap();
        }
    }
    let target = root.join("memtable").join("MEMTABLE");
    let pristine = std::fs::read(&target).unwrap();
    let (mut applied, mut rejected) = (0u64, 0u64);
    for seed in 0..160 {
        let (mutated, mutation) = mutate(&pristine, seed);
        if mutated == pristine {
            continue;
        }
        applied += 1;
        std::fs::write(&target, &mutated).unwrap();
        match catch_unwind(AssertUnwindSafe(|| wal_recovered_texts(&root))) {
            Err(_) => panic!("memtable manifest seed {seed}: {mutation:?} caused a panic"),
            Ok(Err(_)) => rejected += 1,
            Ok(Ok(recovered)) => assert_eq!(
                recovered.len(),
                2,
                "memtable manifest seed {seed}: {mutation:?} changed the recovered set"
            ),
        }
        // Whatever the mutation did, the WAL file itself must survive a GC
        // pass — a corrupt manifest *protects* its WAL (satellite rule).
        GenerationStore::open(&root).unwrap();
        assert!(
            root.join("memtable")
                .join("wal")
                .join("wal-000001.log")
                .is_file(),
            "memtable manifest seed {seed}: {mutation:?} let GC collect a live WAL"
        );
    }
    assert!(
        rejected >= applied.saturating_sub(applied / 20),
        "memtable manifest: only {rejected} of {applied} effective mutations rejected"
    );
    std::fs::write(&target, &pristine).unwrap();
    assert_eq!(wal_recovered_texts(&root).unwrap().len(), 2);
    assert_alloc_cap("memtable manifest");
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// The network surface: NDSB payloads and frames, HTTP requests, JSON bodies.
// ---------------------------------------------------------------------------

use ndss::serve::frame::{self, SearchRequest, SearchResponse, WireDegraded, WireMatch};
use ndss::serve::http;

/// Mutation seeds per valid input.
const NET_SEEDS: u64 = 256;

/// Feeds `NET_SEEDS` seeded mutations of each valid input to `parse`, which
/// must return — accepted (`true`) or rejected — on every one: no panic, no
/// allocation over the cap. Each pristine input must be accepted and some
/// mutation rejected, so the sweep really reached the parser. Returns the
/// number of cases run.
fn net_sweep(name: &str, inputs: &[Vec<u8>], parse: impl Fn(&[u8]) -> bool) -> u64 {
    let mut rejected = 0u64;
    for (i, input) in inputs.iter().enumerate() {
        assert!(
            parse(input),
            "{name} input {i}: the pristine input must parse"
        );
        for seed in 0..NET_SEEDS {
            let (mutated, mutation) = mutate(input, seed);
            match catch_unwind(AssertUnwindSafe(|| parse(&mutated))) {
                Err(_) => panic!("{name} input {i} seed {seed}: {mutation:?} caused a panic"),
                Ok(accepted) => rejected += u64::from(!accepted),
            }
        }
    }
    assert!(rejected > 0, "{name}: no mutation was rejected");
    assert_alloc_cap(name);
    inputs.len() as u64 * NET_SEEDS
}

/// The daemon is the exposed surface, so its four parsers get the file
/// formats' treatment: NDSB request and response payloads, framed NDSB
/// streams, HTTP request heads with bodies, and JSON bodies.
#[test]
fn network_parsers_survive_mutation_sweep() {
    let request = frame::encode_search_request(&SearchRequest {
        theta: 0.8,
        deadline_ms: 250,
        top: 10,
        query: (0..40).collect(),
    });
    let complete = SearchResponse {
        complete: true,
        generation: 7,
        beta: 13,
        total_sequences: 99,
        matches: (0..3)
            .map(|text| WireMatch {
                text,
                collisions: 15,
                spans: vec![(10, 90), (120, 200)],
            })
            .collect(),
        degraded: Vec::new(),
    };
    let degraded = SearchResponse {
        complete: false,
        degraded: vec![WireDegraded {
            shard: 1,
            first_text: 500,
            num_texts: 500,
            kind: 1,
            reason: "malformed index: checksum mismatch".into(),
        }],
        ..complete.clone()
    };
    let responses = [&complete, &degraded].map(frame::encode_search_response);
    let framed = |payloads: &[&[u8]]| {
        let mut wire = Vec::new();
        for payload in payloads {
            frame::write_frame(&mut wire, payload).unwrap();
        }
        wire
    };
    let body = br#"{"query":[1,2,3,4,5,6,7,8,9,10],"theta":0.8,"top":5}"#;
    let mut post = format!(
        "POST /search HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    post.extend_from_slice(body);
    let get = b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n".to_vec();
    let max_body = ndss::serve::ServeConfig::default().max_body_bytes;

    let mut cases = net_sweep("ndsb request", std::slice::from_ref(&request), |p| {
        frame::decode_request(p).is_ok()
    });
    cases += net_sweep("ndsb response", &responses, |p| {
        frame::decode_search_response(p).is_ok()
    });
    // A stream is accepted when every frame reads whole up to a clean end.
    cases += net_sweep(
        "ndsb stream",
        &[framed(&[&request, &request]), framed(&[&responses[1]])],
        |bytes| {
            let mut stream = std::io::Cursor::new(bytes);
            loop {
                match frame::read_frame(&mut stream) {
                    Ok(frame::FrameOutcome::Payload(_)) => {}
                    Ok(frame::FrameOutcome::Closed) => return true,
                    _ => return false,
                }
            }
        },
    );
    cases += net_sweep("http request", &[post, get], |bytes| {
        let mut stream = std::io::Cursor::new(bytes);
        loop {
            match http::read_request(&mut stream, max_body) {
                Ok(http::ReadOutcome::Request(_)) => {}
                Ok(http::ReadOutcome::Closed) => return true,
                _ => return false,
            }
        }
    });
    let health = br#"{"status":"ok","generation":3,"shards":[{"id":1,"ok":true}]}"#;
    cases += net_sweep("json body", &[body.to_vec(), health.to_vec()], |bytes| {
        ndss::json::Json::parse(&String::from_utf8_lossy(bytes)).is_ok()
    });
    println!("net-mutation: {cases} cases, zero panics");
}
