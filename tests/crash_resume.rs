//! Kill-point fault-injection sweep over the build, merge and ingest
//! pipelines.
//!
//! The builders expose two families of deterministic crash sites (see
//! `ndss::index::KillPoints`): *checkpoints* bracketing every `meta.json`
//! (each run's and the merged output's) and following every merged
//! function's file, and fine-grained *IO points* (per run file, per list
//! merged). The harness first runs a counting pass to learn how many sites
//! a given build exposes, then crashes at **every** checkpoint and a
//! seeded sample of IO points, and requires the finished directory to be
//! **byte-identical** to an uninterrupted build — on both the fixed-width
//! (v3) and compressed (v4) index formats. The external build resumes with
//! `--resume` semantics: it keeps the runs that match and merges again; a
//! k-way merge is simply run again into the same directory.
//!
//! Builds run serially (`parallel(false)`; a build or merge with an
//! injector installed uses one thread whatever it is told): the sweep's
//! determinism contract is that crash site `n` means the same on-disk state
//! on every run, which thread scheduling would break.

use std::path::{Path, PathBuf};

use ndss::index::{build_and_write, ExternalIndexBuilder, KillPoints};
use ndss::prelude::*;
use ndss_integration::{
    assert_same_files, assert_unchanged, dir_files, scratch, scratch_root, segment_files,
};

fn small_corpus() -> InMemoryCorpus {
    let (corpus, _) = SyntheticCorpusBuilder::new(91)
        .num_texts(16)
        .vocab_size(400)
        .build();
    corpus
}

fn config(compress: bool) -> IndexConfig {
    IndexConfig::new(3, 20, 11).compressed(compress)
}

/// A serial external builder with a budget of about three texts, so the
/// corpus is cut into several runs and the merge has several inputs.
fn builder(compress: bool) -> ExternalIndexBuilder {
    ExternalIndexBuilder::new(config(compress))
        .memory_budget(1 << 14)
        .parallel(false)
}

/// ~`samples` indices spread evenly over `0..total`, deduplicated.
fn spread(total: u64, samples: u64) -> Vec<u64> {
    let mut points: Vec<u64> = (0..samples)
        .map(|i| i * total / samples)
        .filter(|&n| n < total)
        .collect();
    points.dedup();
    points
}

fn external_build_sweep(compress: bool) {
    let version = if compress { "v4" } else { "v3" };
    let corpus = small_corpus();

    // Uninterrupted reference build.
    let clean_dir = scratch("crash", &format!("ext_{version}_clean"));
    builder(compress).build(&corpus, &clean_dir).unwrap();
    let reference = dir_files(&clean_dir);
    assert!(
        !reference.keys().any(|name| name.starts_with("tmp_spill")),
        "a completed build must remove its runs"
    );

    // Counting pass: learn how many crash sites this build exposes, and
    // check that the injector itself doesn't perturb the output.
    let count = KillPoints::count_only();
    let count_dir = scratch("crash", &format!("ext_{version}_count"));
    builder(compress)
        .kill_points(count.clone())
        .build(&corpus, &count_dir)
        .unwrap();
    let (checkpoints, io_points) = (count.checkpoints_seen(), count.io_seen());
    assert!(
        checkpoints >= 10,
        "{version}: expected a multi-checkpoint build, saw {checkpoints}"
    );
    assert!(
        io_points > checkpoints,
        "{version}: IO points should be finer-grained than checkpoints"
    );
    assert_same_files(&format!("{version} counting pass"), &count_dir, &reference);

    let sweep = |crash_at: &dyn Fn() -> std::sync::Arc<KillPoints>, label: String| {
        let dir = scratch("crash", &format!("ext_{version}_sweep"));
        let kp = crash_at();
        let err = builder(compress)
            .kill_points(kp.clone())
            .build(&corpus, &dir)
            .expect_err(&format!("{label}: build must crash"));
        assert!(kp.fired(), "{label}: injector did not fire");
        assert!(
            err.to_string().contains("injected crash"),
            "{label}: unexpected error {err}"
        );
        // Resume exactly as `ndss index --resume` would: same parameters,
        // no injector.
        builder(compress)
            .resume(true)
            .build(&corpus, &dir)
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        assert_same_files(&label, &dir, &reference);
    };

    for n in 0..checkpoints {
        sweep(
            &|| KillPoints::at_checkpoint(n),
            format!("{version} checkpoint {n}"),
        );
    }
    for n in spread(io_points, 12) {
        sweep(&|| KillPoints::at_io(n), format!("{version} io {n}"));
    }

    for name in ["ext_{v}_clean", "ext_{v}_count", "ext_{v}_sweep"] {
        std::fs::remove_dir_all(scratch_root("crash").join(name.replace("{v}", version))).ok();
    }
}

#[test]
fn external_build_resumes_byte_identical_fixed_width() {
    external_build_sweep(false);
}

#[test]
fn external_build_resumes_byte_identical_compressed() {
    external_build_sweep(true);
}

// ---------------------------------------------------------------------------
// Merge under injected crash.
// ---------------------------------------------------------------------------

fn build_shards(compress: bool, root: &Path) -> (PathBuf, PathBuf) {
    let corpus = small_corpus();
    let all: Vec<Vec<u32>> = (0..16u32).map(|i| corpus.text(i).to_vec()).collect();
    let a = InMemoryCorpus::from_texts(all[..8].to_vec());
    let b = InMemoryCorpus::from_texts(all[8..].to_vec());
    let dir_a = root.join("shard_a");
    let dir_b = root.join("shard_b");
    std::fs::create_dir_all(&dir_a).unwrap();
    std::fs::create_dir_all(&dir_b).unwrap();
    build_and_write(&a, config(compress), &dir_a, false).unwrap();
    build_and_write(&b, config(compress), &dir_b, false).unwrap();
    (dir_a, dir_b)
}

fn merge_sweep(compress: bool) {
    let version = if compress { "v4" } else { "v3" };
    let root = scratch("crash", &format!("merge_{version}"));
    let (dir_a, dir_b) = build_shards(compress, &root);
    let inputs: Vec<&Path> = vec![&dir_a, &dir_b];

    let clean_dir = root.join("clean");
    ndss::index::merge_indexes_with(&inputs, &clean_dir, &MergeOptions::new()).unwrap();
    let reference = dir_files(&clean_dir);

    let count = KillPoints::count_only();
    let count_dir = root.join("count");
    ndss::index::merge_indexes_with(
        &inputs,
        &count_dir,
        &MergeOptions::new().kill_points(count.clone()),
    )
    .unwrap();
    let (checkpoints, io_points) = (count.checkpoints_seen(), count.io_seen());
    assert!(
        checkpoints >= 5,
        "{version} merge: saw only {checkpoints} checkpoints"
    );
    assert_same_files(
        &format!("{version} merge counting pass"),
        &count_dir,
        &reference,
    );

    let sweep = |kp: std::sync::Arc<KillPoints>, label: String| {
        let dir = root.join("sweep");
        std::fs::remove_dir_all(&dir).ok();
        let err = ndss::index::merge_indexes_with(
            &inputs,
            &dir,
            &MergeOptions::new().kill_points(kp.clone()),
        )
        .expect_err(&format!("{label}: merge must crash"));
        assert!(kp.fired(), "{label}: injector did not fire");
        assert!(
            err.to_string().contains("injected crash"),
            "{label}: unexpected error {err}"
        );
        // Run the same merge again into the same directory.
        ndss::index::merge_indexes(&inputs, &dir)
            .unwrap_or_else(|e| panic!("{label}: the merge run again failed: {e}"));
        assert_same_files(&label, &dir, &reference);
    };

    for n in 0..checkpoints {
        sweep(
            KillPoints::at_checkpoint(n),
            format!("{version} merge checkpoint {n}"),
        );
    }
    for n in spread(io_points, 8) {
        sweep(KillPoints::at_io(n), format!("{version} merge io {n}"));
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn merge_redone_byte_identical_fixed_width() {
    merge_sweep(false);
}

#[test]
fn merge_redone_byte_identical_compressed() {
    merge_sweep(true);
}

// ---------------------------------------------------------------------------
// Resume validation and garbage collection.
// ---------------------------------------------------------------------------

/// A fresh build at `budget` into a scratch directory: its files, and the
/// checkpoints and IO points it passes.
fn fresh_build(
    config: IndexConfig,
    budget: usize,
    name: &str,
) -> (std::collections::BTreeMap<String, Vec<u8>>, u64, u64) {
    let count = KillPoints::count_only();
    let dir = scratch("crash", name);
    ExternalIndexBuilder::new(config)
        .memory_budget(budget)
        .kill_points(count.clone())
        .build(&small_corpus(), &dir)
        .unwrap();
    let files = dir_files(&dir);
    std::fs::remove_dir_all(&dir).ok();
    (files, count.checkpoints_seen(), count.io_seen())
}

/// A resume with another budget or another configuration than the
/// interrupted build's finds no run that matches its own first batch: it
/// rewrites every run, passing every checkpoint and IO point of a fresh
/// build, and writes that fresh build's bytes.
#[test]
fn resume_at_another_budget_rewrites_its_runs() {
    let corpus = small_corpus();
    for (label, config, budget) in [
        ("budget", config(false), 1 << 13),
        ("configuration", config(true), 1 << 14),
    ] {
        let (reference, checkpoints, io_points) =
            fresh_build(config.clone(), budget, "other_params_fresh");
        let dir = scratch("crash", "other_params");
        // Checkpoint 5 follows run 2's `meta.json`: three runs are published.
        builder(false)
            .kill_points(KillPoints::at_checkpoint(5))
            .build(&corpus, &dir)
            .expect_err("build must crash");
        assert!(dir.join("tmp_spill/run-000002/meta.json").is_file());

        let resumed = KillPoints::count_only();
        ExternalIndexBuilder::new(config)
            .memory_budget(budget)
            .resume(true)
            .kill_points(resumed.clone())
            .build(&corpus, &dir)
            .unwrap();
        assert_same_files(&format!("resume at another {label}"), &dir, &reference);
        assert_eq!(
            (resumed.checkpoints_seen(), resumed.io_seen()),
            (checkpoints, io_points),
            "{label}: every run is rewritten"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A run is reused only when every run before it was: a published run with
/// the right text and token counts, cut at another text offset, follows a
/// run that is rewritten, so it is rewritten too — also when the resume
/// that rewrote its predecessor was itself killed before reaching it.
#[test]
fn a_run_cut_at_another_offset_is_rewritten() {
    // Equal texts make every run the same size: three texts, 240 tokens.
    let (varied, _) = SyntheticCorpusBuilder::new(93)
        .num_texts(12)
        .text_len(80, 80)
        .vocab_size(400)
        .build();
    let corpus = InMemoryCorpus::from_texts(varied.iter().map(|(_, t)| t.to_vec()).collect());
    let build = || {
        ExternalIndexBuilder::new(config(false))
            .memory_budget(240 * 11)
            .parallel(false)
    };
    let clean = scratch("crash", "offset_clean");
    build().build(&corpus, &clean).unwrap();
    let reference = dir_files(&clean);

    // Runs 0–2 published (checkpoint 5 follows run 2's `meta.json`), then
    // run 1 torn and run 2 replaced by a copy of run 0: texts 0–2 where
    // texts 6–8 belong, with the same counts.
    let plant = |dir: &Path| {
        build()
            .kill_points(KillPoints::at_checkpoint(5))
            .build(&corpus, dir)
            .expect_err("build must crash");
        let spill = dir.join("tmp_spill");
        let meta = |run: &str| std::fs::read(spill.join(run).join("meta.json")).unwrap();
        assert_eq!(meta("run-000000"), meta("run-000002"), "equal counts");
        std::fs::remove_file(spill.join("run-000001/meta.json")).unwrap();
        for (name, bytes) in dir_files(&spill.join("run-000000")) {
            std::fs::write(spill.join("run-000002").join(name), bytes).unwrap();
        }
    };

    let dir = scratch("crash", "offset");
    plant(&dir);
    build().resume(true).build(&corpus, &dir).unwrap();
    assert_same_files("run at another offset", &dir, &reference);

    // The same, with the resume killed as soon as it has republished run 1
    // (its checkpoints 0 and 1 bracket that `meta.json`): the planted run
    // must not look kept to the next resume.
    let dir = scratch("crash", "offset");
    plant(&dir);
    build()
        .resume(true)
        .kill_points(KillPoints::at_checkpoint(1))
        .build(&corpus, &dir)
        .expect_err("resume must crash");
    assert!(dir.join("tmp_spill/run-000001/meta.json").is_file());
    build().resume(true).build(&corpus, &dir).unwrap();
    assert_same_files("run at another offset, second resume", &dir, &reference);
    for d in [clean, dir] {
        std::fs::remove_dir_all(&d).ok();
    }
}

/// A crash after run *i* is published resumes without rewriting runs
/// `0..=i`: they keep their names, inodes and bytes, and a resumed build
/// passes no IO point for their files and no checkpoint for their
/// `meta.json`. The merge is redone from the start.
#[test]
fn resume_keeps_published_runs() {
    let corpus = small_corpus();
    let full = KillPoints::count_only();
    let dir = scratch("crash", "keep_runs");
    builder(false)
        .kill_points(full.clone())
        .build(&corpus, &dir)
        .unwrap();
    let reference = dir_files(&dir);
    let k = config(false).k as u64;
    // Two checkpoints per run, one per merged function, two to publish.
    let runs = (full.checkpoints_seen() - k - 2) / 2;

    // Checkpoints 2i and 2i + 1 bracket run i's `meta.json`: die as soon as
    // run 1 is published.
    let dir = scratch("crash", "keep_runs");
    builder(false)
        .kill_points(KillPoints::at_checkpoint(3))
        .build(&corpus, &dir)
        .expect_err("build must crash");
    let spill = dir.join("tmp_spill");
    let spilled = dir_files(&spill);
    assert!(spilled.contains_key("run-000001/meta.json"));
    assert!(!spilled.keys().any(|name| name.starts_with("run-000002")));
    let published: Vec<_> = ["run-000000", "run-000001"]
        .iter()
        .map(|run| (run.to_string(), segment_files(&spill.join(run))))
        .collect();

    // A resume killed once it has merged its first function (its
    // checkpoint after the runs it writes) left runs 0 and 1 as they were.
    builder(false)
        .resume(true)
        .kill_points(KillPoints::at_checkpoint(2 * (runs - 2)))
        .build(&corpus, &dir)
        .expect_err("resume must crash");
    assert!(dir.join("inv_0.ndsi").is_file() && !dir.join("meta.json").exists());
    assert!(published.iter().all(|(run, _)| spill.join(run).is_dir()));
    assert_unchanged("resume", &spill, &published);

    // Every run is published now: the last resume writes none of them.
    let resumed = KillPoints::count_only();
    builder(false)
        .resume(true)
        .kill_points(resumed.clone())
        .build(&corpus, &dir)
        .unwrap();
    assert_same_files("resume after run 1", &dir, &reference);
    assert_eq!(full.io_seen() - resumed.io_seen(), runs * k, "run files");
    assert_eq!(
        full.checkpoints_seen() - resumed.checkpoints_seen(),
        2 * runs,
        "run meta.json checkpoints"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A build into a directory that holds a published index unpublishes it
/// before writing the first file. Killed inside its merge, the directory
/// does not open as the old configuration over new files, the failed open
/// leaves the runs alone, and a resume ends with a fresh build's bytes.
#[test]
fn a_rebuild_in_place_unpublishes_first() {
    let corpus = small_corpus();
    let count = KillPoints::count_only();
    let clean = scratch("crash", "in_place_clean");
    builder(false)
        .kill_points(count.clone())
        .build(&corpus, &clean)
        .unwrap();
    let reference = dir_files(&clean);
    let k = config(false).k as u64;
    let runs = (count.checkpoints_seen() - k - 2) / 2;

    // A seed-12 index, rebuilt in place at seed 11 and killed at the
    // checkpoint after merged function 1.
    let dir = scratch("crash", "in_place");
    build_and_write(&corpus, IndexConfig::new(3, 20, 12), &dir, false).unwrap();
    builder(false)
        .kill_points(KillPoints::at_checkpoint(2 * runs + 1))
        .build(&corpus, &dir)
        .expect_err("rebuild must crash");
    assert_eq!(
        std::fs::read(dir.join("inv_1.ndsi")).unwrap(),
        reference["inv_1.ndsi"],
        "function 1 is merged"
    );
    assert!(DiskIndex::open(&dir).is_err(), "nothing is published");
    assert!(dir.join("tmp_spill").is_dir(), "the open keeps the runs");

    builder(false).resume(true).build(&corpus, &dir).unwrap();
    assert_same_files("rebuild in place", &dir, &reference);
    for d in [clean, dir] {
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn resume_without_journal_degrades_to_fresh_build() {
    let corpus = small_corpus();
    let clean = scratch("crash", "fresh_clean");
    builder(false).build(&corpus, &clean).unwrap();
    let reference = dir_files(&clean);

    let dir = scratch("crash", "fresh_resume");
    builder(false).resume(true).build(&corpus, &dir).unwrap();
    assert_same_files("resume with no runs", &dir, &reference);
    std::fs::remove_dir_all(&clean).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fresh_build_sweeps_crash_residue() {
    let corpus = small_corpus();
    let dir = scratch("crash", "gc_residue");
    // Crash a build after its second run, leaving tmp_spill/ behind, beside
    // the journal a build of an older version kept there.
    builder(false)
        .kill_points(KillPoints::at_checkpoint(3))
        .build(&corpus, &dir)
        .expect_err("build must crash");
    assert!(dir.join("tmp_spill").is_dir());
    std::fs::write(dir.join("build.journal"), b"{}").unwrap();

    let gc_counter = ndss::obs::Registry::global().counter(
        "index.gc_files",
        "files and directories removed by crash-residue garbage collection",
    );
    let before = gc_counter.get();
    // A *fresh* (non-resume) build discards the residue and starts over.
    builder(false).build(&corpus, &dir).unwrap();
    assert!(!dir.join("tmp_spill").exists());
    assert!(!dir.join("build.journal").exists());
    assert!(
        gc_counter.get() > before,
        "gc sweep must count discarded crash residue"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_build_is_reported_resumable_and_openable_after_resume() {
    let corpus = small_corpus();
    let root = scratch("crash", "store_resume");
    let store = Store::open(&root).unwrap();
    let seg_dir = root.join(store.allocate().unwrap());
    builder(false)
        .kill_points(KillPoints::at_checkpoint(6))
        .build(&corpus, &seg_dir)
        .expect_err("build must crash");

    // Reopening the store must keep (not GC) the resumable segment.
    let store = Store::open(&root).unwrap();
    let unpublished = store.unpublished().unwrap();
    assert_eq!(unpublished.len(), 1, "segment is kept");
    assert_eq!(root.join(&unpublished[0]), seg_dir);
    assert!(seg_dir.join("tmp_spill").is_dir(), "segment is resumable");

    // A journal an older build left is not read: the resume ignores it,
    // and the finished index sweeps it.
    std::fs::write(seg_dir.join("build.journal"), b"not a journal").unwrap();
    builder(false)
        .resume(true)
        .build(&corpus, &seg_dir)
        .unwrap();
    assert!(!seg_dir.join("build.journal").exists());
    store.publish(&unpublished, 1).unwrap();
    let opened = DiskIndex::open(&resolve_index_dir(&root)).unwrap();
    opened.verify_integrity().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Sharded builds under injected crash.
// ---------------------------------------------------------------------------

/// A killed `--shards N` build resumes byte-identically, shard by shard:
/// shards that finished before the crash are reused unchanged, the shard
/// it interrupted keeps the runs it published, and untouched shards build
/// fresh — the resumed store's bytes (every segment's files and
/// the manifest itself) equal an uninterrupted build's.
///
/// A build with an injector installed runs one shard at a time on one
/// thread, so crash site `n` means the same on-disk state on every run; the
/// reference and resume builds run in parallel, since a build's bytes do
/// not depend on its thread count.
#[test]
fn sharded_build_resumes_byte_identical_per_shard() {
    let (corpus, _) = SyntheticCorpusBuilder::new(92)
        .num_texts(24)
        .vocab_size(400)
        .build();
    let shards = 3usize;
    let opts = |kill: Option<std::sync::Arc<KillPoints>>, resume: bool| ShardedBuildOptions {
        external: true,
        memory_budget: 1 << 13,
        resume,
        keep: 1,
        kill,
        ..ShardedBuildOptions::default()
    };

    // Uninterrupted reference build.
    let clean_root = scratch("crash", "sharded_clean");
    build_sharded(
        &corpus,
        config(false),
        &clean_root,
        shards,
        &opts(None, false),
    )
    .unwrap();
    let reference = dir_files(&clean_root);
    assert!(reference.contains_key("MANIFEST"));
    for name in reference.keys() {
        assert!(
            !name.contains("tmp_spill"),
            "completed shards must remove their runs"
        );
    }

    // Counting pass: how many crash sites does the whole sharded build
    // expose? (The injector observes all three shards' builds in order.)
    let count = KillPoints::count_only();
    let count_root = scratch("crash", "sharded_count");
    build_sharded(
        &corpus,
        config(false),
        &count_root,
        shards,
        &opts(Some(count.clone()), false),
    )
    .unwrap();
    let (checkpoints, io_points) = (count.checkpoints_seen(), count.io_seen());
    assert!(
        checkpoints >= 3 * 10,
        "expected every shard to contribute checkpoints, saw {checkpoints}"
    );
    assert_same_files("sharded counting pass", &count_root, &reference);

    let sweep = |kp: std::sync::Arc<KillPoints>, label: String| {
        let root = scratch("crash", "sharded_sweep");
        let err = build_sharded(
            &corpus,
            config(false),
            &root,
            shards,
            &opts(Some(kp.clone()), false),
        )
        .expect_err(&format!("{label}: build must crash"));
        assert!(kp.fired(), "{label}: injector did not fire");
        assert!(
            err.to_string().contains("injected crash"),
            "{label}: unexpected error {err}"
        );
        // A crashed sharded build must never have published: there is no
        // MANIFEST yet, so the store is at generation 0.
        let crashed = Store::open(&root).unwrap();
        assert_eq!(
            crashed.manifest().unwrap().generation,
            0,
            "{label}: published early"
        );
        // Resume exactly as `ndss index --shards N --resume` would.
        build_sharded(&corpus, config(false), &root, shards, &opts(None, true))
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        assert_same_files(&label, &root, &reference);
    };

    // Crash at a seeded sample of checkpoints and IO points spread across
    // the whole build — early sites hit shard 0 mid-build, late sites hit
    // shard 2 with shards 0–1 already complete (exercising the
    // complete-but-unpublished reuse path).
    for n in spread(checkpoints, 9) {
        sweep(
            KillPoints::at_checkpoint(n),
            format!("sharded checkpoint {n}"),
        );
    }
    for n in spread(io_points, 6) {
        sweep(KillPoints::at_io(n), format!("sharded io {n}"));
    }

    // Resuming with different build parameters must refuse, not guess.
    let root = scratch("crash", "sharded_mismatch");
    let kp = KillPoints::at_checkpoint(checkpoints / 2);
    build_sharded(
        &corpus,
        config(false),
        &root,
        shards,
        &opts(Some(kp), false),
    )
    .expect_err("build must crash");
    build_sharded(&corpus, config(true), &root, shards, &opts(None, true))
        .expect_err("resume with different parameters must be rejected");

    for name in [
        "sharded_clean",
        "sharded_count",
        "sharded_sweep",
        "sharded_mismatch",
    ] {
        std::fs::remove_dir_all(scratch_root("crash").join(name)).ok();
    }
}

// ---------------------------------------------------------------------------
// Ingest pipeline under injected crash.
// ---------------------------------------------------------------------------

use ndss::index::{verify_memtable, IndexError, IngestIndex, IngestOptions};
use ndss_integration::{assert_serves_batch_build, serving_segments};
use std::sync::Arc;

fn ingest_texts() -> Vec<Vec<u32>> {
    let (corpus, _) = SyntheticCorpusBuilder::new(93)
        .num_texts(18)
        .text_len(40, 90)
        .vocab_size(400)
        .build();
    (0..corpus.num_texts() as u32)
        .map(|i| corpus.text_to_vec(i).unwrap())
        .collect()
}

fn ingest_config() -> IndexConfig {
    IndexConfig::new(3, 20, 11).bit_packed(true)
}

/// How an ingest scenario rotates and compacts.
#[derive(Clone, Copy)]
struct Script {
    /// Rotation threshold: tiny, so the scenario spans several WALs.
    flush_bytes: u64,
    /// Compact each frozen segment as soon as it freezes, rather than all
    /// of them at the end: every compaction then runs the tail rule on a
    /// list one row longer, so tail merges cascade.
    compact_as_you_go: bool,
}

/// Appends everything, then compacts the three frozen segments, the last
/// one short: kill points with frozen segments pending behind a publish.
const SEAL_AT_THE_END: Script = Script {
    flush_bytes: 2_000,
    compact_as_you_go: false,
};

/// One text per segment, compacted as it freezes: the tail merges cascade
/// (the ninth compaction merges three ones, then three threes), so kill
/// points fall between one merge's publish and the next merge.
const MERGE_AS_YOU_GO: Script = Script {
    flush_bytes: 100,
    compact_as_you_go: true,
};

/// Per-append fsync so *every* acked text is durable — the sweep's
/// exactness assertion depends on that.
fn ingest_opts(script: Script, kill: Option<Arc<KillPoints>>) -> IngestOptions {
    IngestOptions {
        flush_bytes: script.flush_bytes,
        fsync_every: 1,
        keep: 1,
        kill,
    }
}

/// Drives the full ingest scenario from wherever the store left off:
/// append every not-yet-acked text, then seal + compact everything.
/// `acked` tracks the texts durably acknowledged so far — exactly the set
/// a client would believe is safe.
fn drive_ingest(
    root: &Path,
    texts: &[Vec<u32>],
    script: Script,
    kill: Option<Arc<KillPoints>>,
    acked: &mut u64,
) -> Result<(), IndexError> {
    let mut ingest = IngestIndex::open(root, Some(ingest_config()), ingest_opts(script, kill))?;
    *acked = ingest.next_text_id();
    while (*acked as usize) < texts.len() {
        ingest.append(&texts[*acked as usize])?;
        *acked += 1;
        if script.compact_as_you_go {
            ingest.compact_all()?;
        }
    }
    ingest.seal_all()?;
    Ok(())
}

/// The batch build every converged store must serve.
fn ingest_reference(texts: &[Vec<u32>], name: &str) -> PathBuf {
    let dir = scratch("crash", name);
    let corpus = InMemoryCorpus::from_texts(texts.to_vec());
    let mem = MemoryIndex::build(&corpus, ingest_config()).unwrap();
    ndss::index::write_memory_index(&mem, &dir).unwrap();
    dir
}

/// Asserts that no `seg-*` under `root` is left that no list names.
fn assert_none_unlisted(label: &str, root: &Path) {
    let unlisted = Store::open(root).unwrap().unpublished().unwrap();
    assert!(unlisted.is_empty(), "{label}: {unlisted:?} left unlisted");
}

/// Crash the append → rotate → write → publish → tail merge → trim
/// pipeline at every checkpoint and a spread of IO points, for each
/// script. After each crash the store must recover *exactly* the acked
/// text set (nothing lost, nothing resurrected), pass offline memtable
/// verification, never write a segment that served at the crash again
/// (same names, inodes and bytes), and — once resumed to completion —
/// serve what a batch build of all the texts holds.
#[test]
fn ingest_recovers_the_acked_set_at_every_kill_point() {
    let texts = ingest_texts();
    let ref_dir = ingest_reference(&texts, "ingest_ref");
    for (name, script) in [
        ("seal_at_the_end", SEAL_AT_THE_END),
        ("merge_as_you_go", MERGE_AS_YOU_GO),
    ] {
        ingest_sweep(name, script, &texts, &ref_dir);
    }
    for name in ["ingest_ref", "ingest_count", "ingest_sweep"] {
        std::fs::remove_dir_all(scratch_root("crash").join(name)).ok();
    }
}

fn ingest_sweep(name: &str, script: Script, texts: &[Vec<u32>], ref_dir: &Path) {
    // Counting pass: learn the crash-site count, and check the injector
    // itself doesn't perturb the converged store.
    let count = KillPoints::count_only();
    let count_root = scratch("crash", "ingest_count");
    let mut acked = 0u64;
    drive_ingest(&count_root, texts, script, Some(count.clone()), &mut acked).unwrap();
    assert_eq!(acked, texts.len() as u64);
    assert_serves_batch_build(&format!("{name} counting pass"), &count_root, ref_dir);
    // Each compaction publishes once and appends a row; each tail merge
    // publishes once and removes rows: more publishes than rows means a
    // tail merge ran.
    let manifest = Store::open(&count_root).unwrap().manifest().unwrap();
    assert!(
        !script.compact_as_you_go || manifest.generation > manifest.segments.len() as u64,
        "{name}: the script must merge the tail"
    );
    let (checkpoints, io_points) = (count.checkpoints_seen(), count.io_seen());
    assert!(
        checkpoints >= 10,
        "{name}: expected rotations and multi-step compactions, saw {checkpoints} checkpoints"
    );
    assert!(
        io_points >= texts.len() as u64,
        "{name}: every append is an IO crash site (saw {io_points})"
    );

    let sweep = |kp: Arc<KillPoints>, label: String| {
        let root = scratch("crash", "ingest_sweep");
        let mut acked = 0u64;
        let err = drive_ingest(&root, texts, script, Some(kp.clone()), &mut acked)
            .expect_err(&format!("{label}: ingest must crash"));
        assert!(kp.fired(), "{label}: injector did not fire");
        assert!(
            err.to_string().contains("injected crash"),
            "{label}: unexpected error {err}"
        );
        let serving = serving_segments(&root);

        // The dead process's durable state: every acked text, in order.
        // One append may be in flight when the crash lands (its WAL frame
        // written but its `Ok` never returned — e.g. a crash inside the
        // rotation the append triggered), so recovery may legitimately
        // hold `acked` or `acked + 1` texts; anything else is lost acked
        // data or resurrected garbage.
        {
            let recovered = IngestIndex::open(&root, None, ingest_opts(script, None))
                .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
            let next = recovered.next_text_id();
            assert!(
                next == acked || next == acked + 1,
                "{label}: recovered {next} texts, acked {acked} — \
                 acked texts lost or unacked texts resurrected"
            );
            let in_memory: Vec<Vec<u32>> = recovered
                .segments()
                .flat_map(|s| s.texts().iter().cloned())
                .collect();
            assert_eq!(
                in_memory.as_slice(),
                &texts[recovered.covered() as usize..next as usize],
                "{label}: recovered texts differ from the appended prefix"
            );
        }
        // Recovery alone wrote no segment that served at the crash again.
        assert_unchanged(&label, &root, &serving);
        // Offline verification holds in the crashed state too.
        verify_memtable(&root).unwrap_or_else(|e| panic!("{label}: verify failed: {e}"));

        // Resume to completion: the converged store equals the batch build.
        let mut resumed = 0u64;
        drive_ingest(&root, texts, script, None, &mut resumed)
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        assert_eq!(resumed, texts.len() as u64);
        assert_serves_batch_build(&label, &root, ref_dir);
        let report = verify_memtable(&root)
            .unwrap()
            .expect("memtable manifest persists");
        assert_eq!(report.pending_texts, 0, "{label}: trim left pending texts");
        // Nor did the run to completion, and what it did not publish (a
        // half-written merge target, a compaction's unpublished segment)
        // is gone.
        assert_unchanged(&label, &root, &serving);
        assert_none_unlisted(&label, &root);
    };

    for n in 0..checkpoints {
        sweep(
            KillPoints::at_checkpoint(n),
            format!("{name} checkpoint {n}"),
        );
    }
    for n in spread(io_points, 8) {
        sweep(KillPoints::at_io(n), format!("{name} io {n}"));
    }
}

/// A crash *during the recovery run* (the second process dies too) must
/// leave the store just as recoverable: acked texts survive both crashes
/// and the third run converges to what a batch build holds.
#[test]
fn ingest_survives_a_crash_during_recovery() {
    let texts = ingest_texts();
    let ref_dir = ingest_reference(&texts, "ingest2_ref");
    let script = SEAL_AT_THE_END;

    let count = KillPoints::count_only();
    let count_root = scratch("crash", "ingest2_count");
    let mut acked = 0u64;
    drive_ingest(&count_root, &texts, script, Some(count.clone()), &mut acked).unwrap();
    let checkpoints = count.checkpoints_seen();

    for second in 0..3u64 {
        let root = scratch("crash", "ingest2_sweep");
        let mut first_acked = 0u64;
        drive_ingest(
            &root,
            &texts,
            script,
            Some(KillPoints::at_checkpoint(checkpoints / 2)),
            &mut first_acked,
        )
        .expect_err("first run must crash");
        // The recovery run crashes at its own early checkpoint…
        let kp = KillPoints::at_checkpoint(second);
        let mut second_acked = 0u64;
        drive_ingest(&root, &texts, script, Some(kp.clone()), &mut second_acked)
            .expect_err("recovery run must crash too");
        assert!(kp.fired(), "second {second}: injector did not fire");
        assert!(
            second_acked >= first_acked,
            "second {second}: recovery lost acked texts"
        );
        // …and the third run still converges.
        let mut final_acked = 0u64;
        drive_ingest(&root, &texts, script, None, &mut final_acked)
            .unwrap_or_else(|e| panic!("second {second}: final resume failed: {e}"));
        assert_eq!(final_acked, texts.len() as u64);
        assert_serves_batch_build(&format!("double crash at {second}"), &root, &ref_dir);
    }
    for name in ["ingest2_ref", "ingest2_count", "ingest2_sweep"] {
        std::fs::remove_dir_all(scratch_root("crash").join(name)).ok();
    }
}

/// The files of each serving segment of the store at `root`, in text order
/// (segment names aside: a redone merge may land in another `seg-NNNN`).
fn serving_files(root: &Path) -> Vec<std::collections::BTreeMap<String, Vec<u8>>> {
    let manifest = Store::open(root).unwrap().manifest().unwrap();
    manifest
        .dirs()
        .iter()
        .map(|dir| dir_files(&root.join(dir)))
        .collect()
}

/// Whether a crash left the store at `root` inside a tail merge: a
/// `seg-NNNN` that no list names (the merge's target) while the serving
/// rows end in a run the tail rule merges — the oldest of the newest three
/// holds fewer than three times the texts of a newer one.
fn inside_a_tail_merge(root: &Path) -> bool {
    let store = Store::open(root).unwrap();
    let manifest = store.manifest().unwrap();
    let rows: Vec<u64> = manifest.segments.iter().map(|s| s.num_texts).collect();
    let pending = rows.len() >= 3 && {
        let tail = &rows[rows.len() - 3..];
        tail[0] < 3 * tail[1].min(tail[2])
    };
    pending && !store.unpublished().unwrap().is_empty()
}

/// A tail merge killed part-way, then recovered through a second spelling
/// of the store root — a symlink to it. A merge writes no journal, so
/// nothing on disk names the root as the crashed run spelled it: recovery
/// merges the same run again into a fresh target, and the publish collects
/// the half-written one. The converged store serves byte for byte what an
/// uninterrupted run serves, and no `seg-NNNN` is left that no list names.
/// Nine texts, one per segment, compacted as they come: three tail merges
/// of three ones, and one of three threes.
#[cfg(unix)]
#[test]
fn a_killed_tail_merge_recovers_through_a_symlinked_root() {
    let texts = &ingest_texts()[..9];
    let script = MERGE_AS_YOU_GO;
    let count = KillPoints::count_only();
    let whole = scratch("crash", "alias_whole");
    let mut acked = 0u64;
    drive_ingest(&whole, texts, script, Some(count.clone()), &mut acked).unwrap();
    let want = serving_files(&whole);
    let link = scratch_root("crash").join("alias_link");
    let mut killed_mid_merge = 0;
    for n in 0..count.checkpoints_seen() {
        let root = scratch("crash", "alias_sweep");
        let mut acked = 0u64;
        drive_ingest(
            &root,
            texts,
            script,
            Some(KillPoints::at_checkpoint(n)),
            &mut acked,
        )
        .expect_err("the ingest must crash");
        if !inside_a_tail_merge(&root) {
            continue;
        }
        killed_mid_merge += 1;
        std::fs::remove_file(&link).ok();
        std::os::unix::fs::symlink(&root, &link).unwrap();
        let mut resumed = 0u64;
        drive_ingest(&link, texts, script, None, &mut resumed)
            .unwrap_or_else(|e| panic!("checkpoint {n}: recovery through the link failed: {e}"));
        assert_eq!(resumed, texts.len() as u64, "checkpoint {n}");
        assert!(
            serving_files(&root) == want,
            "checkpoint {n}: the recovered store serves other bytes than an uninterrupted run"
        );
        assert_none_unlisted(&format!("checkpoint {n}"), &root);
    }
    assert!(
        killed_mid_merge >= 3,
        "only {killed_mid_merge} kill points fell inside a tail merge"
    );
    std::fs::remove_file(&link).ok();
    for name in ["alias_whole", "alias_sweep"] {
        std::fs::remove_dir_all(scratch_root("crash").join(name)).ok();
    }
}
