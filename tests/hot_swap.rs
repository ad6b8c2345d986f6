//! Store lifecycle: publish / rollback / garbage semantics, `MANIFEST`
//! atomicity under a concurrent reader, and hot swap under live batch
//! queries.
//!
//! The load-bearing invariants:
//!
//! * The `MANIFEST` is only ever observed naming complete, verified
//!   segments — never torn, never an unverified build — because it is
//!   replaced with an atomic rename after `verify_integrity`.
//! * A `ServingIndex::reload` concurrent with batch queries is invisible
//!   to each batch: every batch's results are bit-identical to a cold open
//!   of *one* segment list (the one serving when the batch started), never
//!   a mix of two.
//!
//! Opening or reloading a serving view sets the process-wide
//! `index.generation` and `index.shard.generation{shard=…}` gauges, so every
//! test that opens one holds [`GAUGES`]: one asserts the per-shard values.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ndss::index::build_and_write;
use ndss::prelude::*;
use ndss_integration::scratch;

static GAUGES: Mutex<()> = Mutex::new(());

fn gauge_lock() -> MutexGuard<'static, ()> {
    GAUGES
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn config() -> IndexConfig {
    IndexConfig::new(8, 20, 13)
}

/// Builds `corpus` into a fresh `seg-NNNN/` and returns its name
/// (unpublished).
fn build_segment(store: &Store, corpus: &InMemoryCorpus) -> String {
    let name = store.allocate().unwrap();
    build_and_write(corpus, config(), &store.root().join(&name), true).unwrap();
    name
}

/// The serving list's directory names.
fn serving_list(store: &Store) -> Vec<String> {
    store.manifest().unwrap().dirs()
}

/// Every `seg-*` directory under `root`, sorted.
fn segment_dirs(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("seg-"))
        .collect();
    names.sort();
    names
}

fn corpus_a() -> (InMemoryCorpus, Vec<Vec<u32>>) {
    let (corpus, planted) = SyntheticCorpusBuilder::new(31)
        .num_texts(20)
        .duplicates_per_text(1.0)
        .mutation_rate(0.0)
        .build();
    let queries: Vec<Vec<u32>> = planted
        .iter()
        .take(5)
        .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
        .collect();
    assert!(!queries.is_empty());
    (corpus, queries)
}

/// Corpus A plus one extra text repeating query 0 — so at least one query
/// has strictly more matches under generation B than under A.
fn corpus_b(a: &InMemoryCorpus, queries: &[Vec<u32>]) -> InMemoryCorpus {
    let mut texts: Vec<Vec<u32>> = (0..a.num_texts() as u32)
        .map(|i| a.text(i).to_vec())
        .collect();
    texts.push(queries[0].clone());
    InMemoryCorpus::from_texts(texts)
}

/// Cold-open reference: batch results against one index directory.
fn cold_results(dir: &Path, queries: &[Vec<u32>]) -> Vec<Vec<SeqRef>> {
    let index = DiskIndex::open(dir).unwrap();
    let batch = ShardedSearcher::single(&index, PrefixFilter::Disabled)
        .unwrap()
        .threads(2);
    batch
        .search_all(queries, 0.8)
        .unwrap()
        .into_iter()
        .map(|o| o.enumerate_all())
        .collect()
}

/// One batch as the daemon serves it: pin the view current right now,
/// derive its lane set, and run every query against that one pin.
fn served_results(serving: &ServingIndex, queries: &[Vec<u32>]) -> Vec<Vec<SeqRef>> {
    view_results(&serving.snapshot(), queries)
}

/// Batch results against one view.
fn view_results(view: &ShardedIndex, queries: &[Vec<u32>]) -> Vec<Vec<SeqRef>> {
    let searcher = view
        .searcher_with_filter(PrefixFilter::Disabled)
        .unwrap()
        .threads(2);
    searcher
        .search_all(queries, 0.8)
        .unwrap()
        .into_iter()
        .map(|o| o.enumerate_all())
        .collect()
}

#[test]
fn publish_rollback_lifecycle() {
    let root = scratch("hotswap", "lifecycle");
    let store = Store::open(&root).unwrap();
    let (a, _) = corpus_a();

    let g0 = build_segment(&store, &a);
    assert_eq!(
        store.manifest().unwrap(),
        Manifest::default(),
        "nothing published yet"
    );
    store.publish(&[&g0], 1).unwrap();
    assert_eq!(serving_list(&store), [g0.as_str()]);
    assert_eq!(resolve_index_dir(&root), root.join(&g0));

    let g1 = build_segment(&store, &a);
    store.publish(&[&g1], 1).unwrap();
    assert_eq!(serving_list(&store), [g1.as_str()]);
    assert!(root.join(&g0).is_dir(), "previous list kept for rollback");

    // A third publish with keep = 1: exactly the serving segment, the
    // previous list's and an in-flight external build (its runs under
    // `tmp_spill/`) survive.
    let in_flight = store.allocate().unwrap();
    std::fs::create_dir_all(root.join(&in_flight).join("tmp_spill")).unwrap();
    let g2 = build_segment(&store, &a);
    store.publish(&[&g2], 1).unwrap();
    let mut survivors = vec![g1.clone(), in_flight.clone(), g2.clone()];
    survivors.sort();
    assert_eq!(
        segment_dirs(&root),
        survivors,
        "beyond-keep segment collected"
    );

    // Rollback serves the previous list again as a new generation; a
    // second rollback undoes the first.
    let rolled = store.rollback().unwrap();
    assert_eq!(
        (serving_list(&store), rolled.generation),
        (vec![g1.clone()], 4)
    );
    store.rollback().unwrap();
    assert_eq!(serving_list(&store), [g2.as_str()]);

    // A corrupt segment can be neither published nor rolled back to, and
    // neither attempt writes the MANIFEST.
    let victim = std::fs::read_dir(root.join(&g1))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "ndsi"))
        .unwrap();
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();
    let manifest_bytes = || std::fs::read(root.join("MANIFEST")).unwrap();
    let before = manifest_bytes();
    assert!(store.publish(&[&g1], 1).is_err());
    assert!(
        store.publish(&[&g2, &g2], 1).is_err(),
        "a segment listed twice"
    );
    assert!(store.rollback().is_err());
    assert_eq!(
        manifest_bytes(),
        before,
        "failed publish/rollback wrote the MANIFEST"
    );

    // keep = 0 retains nothing: the retired segment is collected, the
    // in-flight one still survives, and a rollback with no retained list
    // fails with the MANIFEST byte-identical.
    store.publish(&[&g2], 0).unwrap();
    assert_eq!(segment_dirs(&root), [in_flight, g2]);
    let before = manifest_bytes();
    assert!(store.rollback().is_err());
    assert_eq!(
        manifest_bytes(),
        before,
        "a refused rollback wrote the MANIFEST"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn current_pointer_is_never_torn_under_concurrent_reads() {
    let root = scratch("hotswap", "torn");
    let store = Store::open(&root).unwrap();
    let (a, _) = corpus_a();
    let g0 = build_segment(&store, &a);
    store.publish(&[&g0], 2).unwrap();
    // A publish collects every segment no list names, so build the second
    // one only after the first serves.
    let g1 = build_segment(&store, &a);
    store.publish(&[&g1], 2).unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let done = done.clone();
        let root = root.clone();
        let valid = [g0.clone(), g1.clone()];
        std::thread::spawn(move || {
            let mut reads = 0u64;
            while !done.load(Ordering::Relaxed) {
                let manifest = Manifest::load(&root)
                    .expect("torn or invalid MANIFEST")
                    .expect("MANIFEST must exist once first published");
                assert!(
                    manifest.segments.len() == 1
                        && valid.iter().any(|v| *v == manifest.segments[0].dir),
                    "MANIFEST names an unexpected list: {manifest:?}"
                );
                reads += 1;
            }
            reads
        })
    };

    // Flip the list repeatedly; the segment coming back from the retained
    // list is re-verified each time, so the reader races genuine
    // publishes, not bare renames.
    for i in 0..20 {
        let target = if i % 2 == 0 { &g1 } else { &g0 };
        store.publish(&[&target], 2).unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let reads = reader.join().unwrap();
    assert!(reads > 0, "reader never observed the MANIFEST");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn reload_under_live_batch_queries_is_bit_identical_to_cold_open() {
    let _gauges = gauge_lock();
    let root = scratch("hotswap", "reload");
    let store = Store::open(&root).unwrap();
    let (a, queries) = corpus_a();
    let b = corpus_b(&a, &queries);

    let g0 = build_segment(&store, &a);
    store.publish(&[&g0], 1).unwrap();
    let ref_a = cold_results(&root.join(&g0), &queries);

    let serving = Arc::new(ServingIndex::open(&root).unwrap());
    assert_eq!(serving.generation(), Some(1));

    // Workers hammer the serving index across the swap; every batch result
    // must equal a cold open of exactly one generation.
    let done = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let serving = serving.clone();
            let queries = queries.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut batches = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    batches.push(served_results(&serving, &queries));
                }
                batches
            })
        })
        .collect();

    // Build, publish, and hot-swap to generation 2 while queries fly.
    let g1 = build_segment(&store, &b);
    store.publish(&[&g1], 1).unwrap();
    let ref_b = cold_results(&resolve_index_dir(&root), &queries);
    assert_ne!(
        ref_a, ref_b,
        "generations must be distinguishable by results"
    );
    assert!(
        serving.reload().unwrap(),
        "MANIFEST moved, reload must swap"
    );
    assert_eq!(serving.generation(), Some(2));
    assert!(!serving.reload().unwrap(), "no-op reload must not swap");

    // Let the workers observe the new generation, then stop them.
    let after = served_results(&serving, &queries);
    assert_eq!(
        after, ref_b,
        "post-swap queries must serve the new generation"
    );
    // `FrequentFraction` cutoffs come from per-file list-length histograms
    // memoised on the opened index. The memo belongs to that index: the
    // swapped-in generation plans from its own histograms, so the
    // long/short split (not only the results) equals a cold open's.
    let filter = PrefixFilter::FrequentFraction(0.2);
    let snapshot = serving.snapshot();
    let swapped = snapshot.searcher_with_filter(filter).unwrap();
    let cold_index = DiskIndex::open(&resolve_index_dir(&root)).unwrap();
    let cold = ShardedSearcher::single(&cold_index, filter).unwrap();
    let mut deferred = 0;
    for query in &queries {
        for _ in 0..2 {
            let got = swapped.search(query, 0.8).unwrap();
            let want = cold.search(query, 0.8).unwrap();
            assert_eq!(got.matches, want.matches);
            assert_eq!(got.stats.lists_long, want.stats.lists_long);
            deferred += want.stats.lists_long;
        }
    }
    assert!(deferred > 0, "a 20% cutoff must defer some list");
    done.store(true, Ordering::Relaxed);

    let mut total = 0usize;
    for worker in workers {
        for batch in worker.join().unwrap() {
            assert!(
                batch == ref_a || batch == ref_b,
                "a batch mixed results from two generations"
            );
            total += 1;
        }
    }
    assert!(total > 0, "workers never completed a batch");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn serving_index_on_plain_directory() {
    let _gauges = gauge_lock();
    let dir = scratch("hotswap", "plain");
    let (a, queries) = corpus_a();
    build_and_write(&a, config(), &dir, true).unwrap();
    let serving = Arc::new(ServingIndex::open(&dir).unwrap());
    assert_eq!(serving.generation(), None);
    assert!(!serving.reload().unwrap(), "plain directory never swaps");
    let snapshot = serving.snapshot();
    let outcome = snapshot
        .searcher_with_filter(PrefixFilter::Disabled)
        .unwrap()
        .search(&queries[0], 0.8)
        .unwrap();
    assert!(!outcome.matches.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression for the reload race: reload A resolves the `MANIFEST` (gen
/// 2), then — before A takes the write lock — reload B publishes *and*
/// swaps in a newer gen 3. A's open is now stale; completing its swap would
/// regress serving from gen 3 back to gen 2. The fixed `reload()`
/// re-resolves the `MANIFEST` under the write lock and abandons the stale
/// open. (On the old code this test fails: A overwrites gen 3 with gen 2.)
#[test]
fn racing_reload_never_swaps_in_a_stale_older_generation() {
    let _gauges = gauge_lock();
    let root = scratch("hotswap", "race");
    let store = Store::open(&root).unwrap();
    let (a, queries) = corpus_a();
    let b = corpus_b(&a, &queries);

    let g0 = build_segment(&store, &a);
    store.publish(&[&g0], 3).unwrap();
    let serving = Arc::new(ServingIndex::open(&root).unwrap());
    assert_eq!(serving.generation(), Some(1));

    // Stage the next publish: gen 2 (same corpus as gen 1).
    let g1 = build_segment(&store, &a);
    store.publish(&[&g1], 3).unwrap();

    // Reload A resolves and opens gen 2; inside its race window, reload B
    // publishes gen 3 (corpus B, distinguishable by results) and swaps it in.
    let serving_b = serving.clone();
    let store_b = Store::open(&root).unwrap();
    let swapped_a = serving
        .reload_with_race_window(move || {
            let g2 = build_segment(&store_b, &b);
            store_b.publish(&[&g2], 3).unwrap();
            assert!(serving_b.reload().unwrap(), "reload B must swap to gen 3");
            assert_eq!(serving_b.generation(), Some(3));
        })
        .unwrap();

    // Whatever A reports, serving must still be on gen 3 afterwards — the
    // stale gen-2 open must never overwrite the newer generation.
    assert_eq!(
        serving.generation(),
        Some(3),
        "stale reload regressed serving to an older generation"
    );
    let ref_g3 = cold_results(&resolve_index_dir(&root), &queries);
    let live = served_results(&serving, &queries);
    assert_eq!(live, ref_g3, "post-race queries must serve gen 3");
    // A must not claim a swap it did not perform.
    assert!(!swapped_a, "stale reload must not report a swap");
    std::fs::remove_dir_all(&root).ok();
}

/// A deliberate rollback is not a race: after the `MANIFEST` names an
/// older segment list again, `reload()` must follow it backwards.
#[test]
fn reload_follows_a_deliberate_rollback_to_an_older_generation() {
    let _gauges = gauge_lock();
    let root = scratch("hotswap", "rollback_reload");
    let store = Store::open(&root).unwrap();
    let (a, queries) = corpus_a();
    let b = corpus_b(&a, &queries);

    let g0 = build_segment(&store, &a);
    store.publish(&[&g0], 3).unwrap();
    let ref_g0 = cold_results(&resolve_index_dir(&root), &queries);
    let g1 = build_segment(&store, &b);
    store.publish(&[&g1], 3).unwrap();

    let serving = Arc::new(ServingIndex::open(&root).unwrap());
    assert_eq!(serving.generation(), Some(2));

    assert_eq!(store.rollback().unwrap().segments[0].dir, g0);
    assert!(serving.reload().unwrap(), "rollback must reload");
    assert_eq!(serving.generation(), Some(3));
    let live = served_results(&serving, &queries);
    assert_eq!(live, ref_g0, "rolled-back serving must answer from {g0}");
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Multi-segment store: replacing one row under live readers.
// ---------------------------------------------------------------------------

/// Corpus A with text 15 (second segment of two) replaced by query 0's
/// tokens: segment 0's slice is untouched, segment 1's answers change.
fn corpus_b_shard1(a: &InMemoryCorpus, queries: &[Vec<u32>]) -> InMemoryCorpus {
    let mut texts: Vec<Vec<u32>> = (0..a.num_texts() as u32)
        .map(|i| a.text(i).to_vec())
        .collect();
    texts[15] = queries[0].clone();
    InMemoryCorpus::from_texts(texts)
}

/// Builds segment 1's text range of `corpus` into a new segment and
/// publishes the list with row 1 replaced (keep 2).
fn replace_segment_1(store: &Store, corpus: &InMemoryCorpus) -> Manifest {
    let manifest = store.manifest().unwrap();
    let row = &manifest.segments[1];
    let new = store.allocate().unwrap();
    let slice = CorpusSlice::new(corpus, row.first_text, row.num_texts as usize);
    build_and_write(&slice, config(), &store.root().join(&new), true).unwrap();
    store
        .publish(&[manifest.segments[0].dir.clone(), new], 2)
        .unwrap()
}

/// Cold-open reference over a store's *current* manifest view.
fn sharded_cold_results(root: &Path, queries: &[Vec<u32>]) -> Vec<Vec<SeqRef>> {
    view_results(&ShardedIndex::open(root).unwrap(), queries)
}

/// Publishing a list with one row replaced under live readers never
/// yields a torn view: every pinned (snapshot, generation) pair answers
/// bit-identically to a cold open of exactly that manifest generation —
/// old segment-1 results never mix with new ones, and the generation a
/// reader reports always matches the results it got.
#[test]
fn per_shard_publish_is_atomic_under_concurrent_readers() {
    let _gauges = gauge_lock();
    let root = scratch("hotswap", "sharded_swap");
    let (a, queries) = corpus_a();
    let b = corpus_b_shard1(&a, &queries);

    build_sharded(&a, config(), &root, 2, &ShardedBuildOptions::default()).unwrap();
    let ref_v1 = sharded_cold_results(&root, &queries);

    let serving = Arc::new(ServingIndex::open(&root).unwrap());
    assert_eq!(serving.generation(), Some(1), "publish_all bumps once");

    // Readers pin a (snapshot, generation) pair per batch and record both;
    // the pair is taken under one lock, so it can never be torn.
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let serving = serving.clone();
            let queries = queries.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut observed: Vec<(u64, Vec<Vec<SeqRef>>)> = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    let snapshot = serving.snapshot();
                    let generation = snapshot.generation();
                    let results = view_results(&snapshot, &queries);
                    observed.push((generation.expect("sharded stores always have one"), results));
                }
                observed
            })
        })
        .collect();

    // Rebuild segment 1 only (from corpus B's slice of its text range) and
    // publish the list with that row replaced — one manifest write — then
    // hot-reload under live traffic.
    let store = Store::open(&root).unwrap();
    assert_eq!(replace_segment_1(&store, &b).generation, 2);

    assert!(
        serving.reload().unwrap(),
        "manifest moved, reload must swap"
    );
    assert_eq!(serving.generation(), Some(2));
    let ref_v2 = sharded_cold_results(&root, &queries);
    assert_ne!(ref_v1, ref_v2, "shard-1 rebuild must change some answer");

    // Give the readers a chance to observe the new view, then stop them.
    std::thread::sleep(std::time::Duration::from_millis(50));
    done.store(true, Ordering::Relaxed);
    let mut batches = 0usize;
    for reader in readers {
        for (generation, results) in reader.join().unwrap() {
            match generation {
                1 => assert_eq!(results, ref_v1, "gen-1 reader saw torn results"),
                2 => assert_eq!(results, ref_v2, "gen-2 reader saw torn results"),
                other => panic!("reader pinned unexpected manifest generation {other}"),
            }
            batches += 1;
        }
    }
    assert!(batches > 0, "readers never completed a batch");

    // Per-lane gauges report the segment number each lane serves.
    let reg = ndss::obs::Registry::global();
    let lane = |i: &str| {
        reg.gauge_with_labels(
            "index.shard.generation",
            "segment number each lane of the serving view is on",
            &[("shard", i)],
        )
        .get()
    };
    assert_eq!(lane("0"), 0, "lane 0 still serves seg-0000");
    assert_eq!(lane("1"), 2, "lane 1 now serves the rebuilt seg-0002");
    std::fs::remove_dir_all(&root).ok();
}

/// Rolling back is the same atomic story in reverse: one manifest write
/// moves readers from the view with segment 1 replaced back to the
/// original list, never through a mix. Rollback is store-wide: it serves
/// the previous list, which differs from the current one in row 1 only.
#[test]
fn per_shard_rollback_restores_the_previous_view() {
    let _gauges = gauge_lock();
    let root = scratch("hotswap", "sharded_rollback");
    let (a, queries) = corpus_a();
    let b = corpus_b_shard1(&a, &queries);

    build_sharded(&a, config(), &root, 2, &ShardedBuildOptions::default()).unwrap();
    let ref_v1 = sharded_cold_results(&root, &queries);

    let store = Store::open(&root).unwrap();
    let original = serving_list(&store);
    replace_segment_1(&store, &b);
    let ref_v2 = sharded_cold_results(&root, &queries);
    assert_ne!(ref_v1, ref_v2);

    let serving = ServingIndex::open(&root).unwrap();
    assert_eq!(serving.generation(), Some(2));

    let rolled = store.rollback().unwrap();
    assert_eq!(serving_list(&store), original);
    assert_eq!(rolled.generation, 3);
    assert!(serving.reload().unwrap());
    assert_eq!(serving.generation(), Some(3));

    // The rolled-back view answers exactly like the original one.
    let live = served_results(&serving, &queries);
    assert_eq!(live, ref_v1, "rollback must restore the original answers");
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Old layouts: refused by name, never touched.
// ---------------------------------------------------------------------------

/// A version-1 sharded-store `MANIFEST` exactly as the old writer saved it
/// (two one-text shards, each serving `gen-0000`).
const V1_MANIFEST: &str = r#"{
  "version": 1,
  "generation": 1,
  "shards": [
    {
      "name": "shard-0000",
      "first_text": 0,
      "num_texts": 1,
      "serving": "gen-0000"
    },
    {
      "name": "shard-0001",
      "first_text": 1,
      "num_texts": 1,
      "serving": "gen-0000"
    }
  ],
  "crc": 2509806555
}"#;

/// Every entry under `root`: directories as `None`, files with their bytes.
fn tree(root: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.push((path.clone(), None));
                stack.push(path);
            } else {
                out.push((path.clone(), Some(std::fs::read(&path).unwrap())));
            }
        }
    }
    out.sort();
    out
}

/// Every way into a store refuses a root in an old layout with an error
/// that names the layout, and deletes nothing — not even the stray temp
/// and the unreferenced directory an open's sweep would otherwise take.
#[test]
fn old_layouts_are_refused_by_name_and_left_untouched() {
    let (a, _) = corpus_a();
    let one_text = InMemoryCorpus::from_texts(vec![a.text(0).to_vec()]);

    let generation_store = scratch("hotswap", "old_current");
    build_and_write(&a, config(), &generation_store.join("gen-0000"), true).unwrap();
    std::fs::write(generation_store.join("CURRENT"), b"gen-0000").unwrap();
    std::fs::create_dir(generation_store.join("gen-0001")).unwrap();

    let sharded_v1 = scratch("hotswap", "old_v1");
    std::fs::write(sharded_v1.join("MANIFEST"), V1_MANIFEST).unwrap();
    for shard in ["shard-0000", "shard-0001"] {
        build_and_write(
            &one_text,
            config(),
            &sharded_v1.join(shard).join("gen-0000"),
            true,
        )
        .unwrap();
        std::fs::write(sharded_v1.join(shard).join("CURRENT"), b"gen-0000").unwrap();
    }

    for (root, layout) in [
        (&generation_store, "a generation store (CURRENT pointer"),
        (
            &sharded_v1,
            "a version-1 sharded store (MANIFEST over shard-NNNN/)",
        ),
    ] {
        std::fs::write(root.join(".MANIFEST.1.0.tmp"), b"stray").unwrap();
        let before = tree(root);
        let errors = [
            Store::open(root).map(drop).map_err(|e| e.to_string()),
            ShardedIndex::open(root)
                .map(drop)
                .map_err(|e| e.to_string()),
            ServingIndex::open(root)
                .map(drop)
                .map_err(|e| e.to_string()),
            IngestIndex::open(root, Some(config()), IngestOptions::default())
                .map(drop)
                .map_err(|e| e.to_string()),
            build_sharded(&a, config(), root, 2, &ShardedBuildOptions::default())
                .map(drop)
                .map_err(|e| e.to_string()),
        ];
        for error in errors {
            let error = error.expect_err("an old layout must not open");
            assert!(error.contains(layout), "{error:?} does not name {layout:?}");
        }
        assert!(
            tree(root) == before,
            "a refused open changed {}",
            root.display()
        );
        std::fs::remove_dir_all(root).ok();
    }
}
