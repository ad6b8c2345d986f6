//! Generational index lifecycle: publish / rollback semantics, `CURRENT`
//! pointer atomicity under a concurrent reader, and hot swap under live
//! batch queries.
//!
//! The load-bearing invariants:
//!
//! * `CURRENT` is only ever observed naming a complete, verified
//!   generation — never torn, never an unverified build — because the
//!   pointer is re-pointed with an atomic rename after `verify_integrity`.
//! * A `ServingIndex::reload` concurrent with batch queries is invisible
//!   to each batch: every batch's results are bit-identical to a cold open
//!   of *one* generation (the one current when the batch started), never a
//!   mix of two.
//!
//! Opening or reloading a serving view sets the process-wide
//! `index.generation` and `index.shard.generation{shard=…}` gauges, so every
//! test that opens one holds [`GAUGES`]: one asserts the per-shard values.

use std::path::Path;
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

/// Builds a generation from `corpus` in a fresh `gen-NNNN/` and returns its
/// name (unpublished).
fn build_generation(store: &GenerationStore, corpus: &InMemoryCorpus) -> String {
    let dir = store.allocate().unwrap();
    build_and_write(corpus, config(), &dir, true).unwrap();
    dir.file_name().unwrap().to_string_lossy().into_owned()
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
    let searcher = view.searcher().unwrap().threads(2);
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
    let store = GenerationStore::open(&root).unwrap();
    let (a, _) = corpus_a();

    let g0 = build_generation(&store, &a);
    assert!(store.current().unwrap().is_none(), "nothing published yet");
    store.publish(&g0, 1).unwrap();
    assert_eq!(store.current().unwrap().as_deref(), Some(g0.as_str()));
    assert_eq!(resolve_index_dir(&root), root.join(&g0));

    let g1 = build_generation(&store, &a);
    store.publish(&g1, 1).unwrap();
    assert_eq!(store.current().unwrap().as_deref(), Some(g1.as_str()));
    assert!(
        root.join(&g0).is_dir(),
        "previous generation kept for rollback"
    );

    // A third publish with keep = 1 prunes the oldest retired generation.
    let g2 = build_generation(&store, &a);
    store.publish(&g2, 1).unwrap();
    assert!(!root.join(&g0).exists(), "beyond-keep generation pruned");
    assert!(root.join(&g1).is_dir());

    // Rollback with no target: newest complete generation below current.
    assert_eq!(store.rollback(None).unwrap(), g1);
    assert_eq!(store.current().unwrap().as_deref(), Some(g1.as_str()));
    // Explicit rollback (forward here) re-verifies and re-points.
    assert_eq!(store.rollback(Some(&g2)).unwrap(), g2);
    assert_eq!(store.current().unwrap().as_deref(), Some(g2.as_str()));

    // A corrupt generation can be neither published nor rolled back to.
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
    assert!(store.publish(&g1, 1).is_err());
    assert!(store.rollback(Some(&g1)).is_err());
    assert_eq!(
        store.current().unwrap().as_deref(),
        Some(g2.as_str()),
        "failed publish/rollback must leave CURRENT untouched"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn current_pointer_is_never_torn_under_concurrent_reads() {
    let root = scratch("hotswap", "torn");
    let store = GenerationStore::open(&root).unwrap();
    let (a, _) = corpus_a();
    let g0 = build_generation(&store, &a);
    let g1 = build_generation(&store, &a);
    store.publish(&g0, 2).unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let done = done.clone();
        let current = root.join("CURRENT");
        let valid = [g0.clone(), g1.clone()];
        std::thread::spawn(move || {
            let mut reads = 0u64;
            while !done.load(Ordering::Relaxed) {
                let text = std::fs::read_to_string(&current)
                    .expect("CURRENT must exist once first published");
                let name = text.trim();
                assert!(
                    valid.iter().any(|v| v == name),
                    "torn or invalid CURRENT contents: {text:?}"
                );
                reads += 1;
            }
            reads
        })
    };

    // Flip the pointer repeatedly; every flip re-verifies the target, so
    // the reader is racing genuine publishes, not bare renames.
    for i in 0..20 {
        let target = if i % 2 == 0 { &g1 } else { &g0 };
        store.publish(target, 2).unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let reads = reader.join().unwrap();
    assert!(reads > 0, "reader never observed the pointer");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn reload_under_live_batch_queries_is_bit_identical_to_cold_open() {
    let _gauges = gauge_lock();
    let root = scratch("hotswap", "reload");
    let store = GenerationStore::open(&root).unwrap();
    let (a, queries) = corpus_a();
    let b = corpus_b(&a, &queries);

    let g0 = build_generation(&store, &a);
    store.publish(&g0, 1).unwrap();
    let ref_a = cold_results(&root.join(&g0), &queries);

    let serving = Arc::new(ServingIndex::open(&root).unwrap());
    assert_eq!(serving.generation(), Some(0));

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

    // Build, publish, and hot-swap to generation 1 while queries fly.
    let g1 = build_generation(&store, &b);
    store.publish(&g1, 1).unwrap();
    let ref_b = cold_results(&resolve_index_dir(&root), &queries);
    assert_ne!(
        ref_a, ref_b,
        "generations must be distinguishable by results"
    );
    assert!(serving.reload().unwrap(), "pointer moved, reload must swap");
    assert_eq!(serving.generation(), Some(1));
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
    let cold = NearDupSearcher::with_prefix_filter(&cold_index, filter).unwrap();
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
        .searcher()
        .unwrap()
        .search(&queries[0], 0.8)
        .unwrap();
    assert!(!outcome.matches.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression for the reload race: reload A resolves `CURRENT` (gen 1),
/// then — before A takes the write lock — reload B publishes *and* swaps in
/// a newer gen 2. A's open is now stale; completing its swap would regress
/// serving from gen 2 back to gen 1. The fixed `reload()` re-resolves
/// `CURRENT` under the write lock and abandons the stale open. (On the old
/// code this test fails: A overwrites gen 2 with gen 1.)
#[test]
fn racing_reload_never_swaps_in_a_stale_older_generation() {
    let _gauges = gauge_lock();
    let root = scratch("hotswap", "race");
    let store = GenerationStore::open(&root).unwrap();
    let (a, queries) = corpus_a();
    let b = corpus_b(&a, &queries);

    let g0 = build_generation(&store, &a);
    store.publish(&g0, 3).unwrap();
    let serving = Arc::new(ServingIndex::open(&root).unwrap());
    assert_eq!(serving.generation(), Some(0));

    // Stage the next pointer move: CURRENT → gen 1 (same corpus as gen 0).
    let g1 = build_generation(&store, &a);
    store.publish(&g1, 3).unwrap();

    // Reload A resolves and opens gen 1; inside its race window, reload B
    // publishes gen 2 (corpus B, distinguishable by results) and swaps it in.
    let serving_b = serving.clone();
    let store_b = GenerationStore::open(&root).unwrap();
    let swapped_a = serving
        .reload_with_race_window(move || {
            let g2 = {
                let dir = store_b.allocate().unwrap();
                build_and_write(&b, config(), &dir, true).unwrap();
                dir.file_name().unwrap().to_string_lossy().into_owned()
            };
            store_b.publish(&g2, 3).unwrap();
            assert!(serving_b.reload().unwrap(), "reload B must swap to gen 2");
            assert_eq!(serving_b.generation(), Some(2));
        })
        .unwrap();

    // Whatever A reports, serving must still be on gen 2 afterwards — the
    // stale gen-1 open must never overwrite the newer generation.
    assert_eq!(
        serving.generation(),
        Some(2),
        "stale reload regressed serving to an older generation"
    );
    let ref_g2 = cold_results(&resolve_index_dir(&root), &queries);
    let live = served_results(&serving, &queries);
    assert_eq!(live, ref_g2, "post-race queries must serve gen 2");
    // A must not claim a swap it did not perform.
    assert!(!swapped_a, "stale reload must not report a swap");
    std::fs::remove_dir_all(&root).ok();
}

/// A deliberate rollback is not a race: after `CURRENT` is re-pointed at an
/// older generation, `reload()` must follow it backwards.
#[test]
fn reload_follows_a_deliberate_rollback_to_an_older_generation() {
    let _gauges = gauge_lock();
    let root = scratch("hotswap", "rollback_reload");
    let store = GenerationStore::open(&root).unwrap();
    let (a, queries) = corpus_a();
    let b = corpus_b(&a, &queries);

    let g0 = build_generation(&store, &a);
    store.publish(&g0, 3).unwrap();
    let ref_g0 = cold_results(&resolve_index_dir(&root), &queries);
    let g1 = build_generation(&store, &b);
    store.publish(&g1, 3).unwrap();

    let serving = Arc::new(ServingIndex::open(&root).unwrap());
    assert_eq!(serving.generation(), Some(1));

    assert_eq!(store.rollback(Some(&g0)).unwrap(), g0);
    assert!(serving.reload().unwrap(), "rollback must reload");
    assert_eq!(serving.generation(), Some(0));
    let live = served_results(&serving, &queries);
    assert_eq!(live, ref_g0, "rolled-back serving must answer from gen 0");
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Sharded store: per-shard publish under live readers.
// ---------------------------------------------------------------------------

/// Corpus A with text 15 (second shard of two) replaced by query 0's
/// tokens: shard 0's slice is untouched, shard 1's answers change.
fn corpus_b_shard1(a: &InMemoryCorpus, queries: &[Vec<u32>]) -> InMemoryCorpus {
    let mut texts: Vec<Vec<u32>> = (0..a.num_texts() as u32)
        .map(|i| a.text(i).to_vec())
        .collect();
    texts[15] = queries[0].clone();
    InMemoryCorpus::from_texts(texts)
}

/// Cold-open reference over a sharded store's *current* manifest view.
fn sharded_cold_results(root: &Path, queries: &[Vec<u32>]) -> Vec<Vec<SeqRef>> {
    view_results(&ShardedIndex::open(root).unwrap(), queries)
}

/// Republishing one shard under live readers never yields a torn
/// cross-shard view: every pinned (snapshot, generation) pair answers
/// bit-identically to a cold open of exactly that manifest generation —
/// old shard-1 results never mix with new ones, and the generation a
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

    // Rebuild shard 1 only (from corpus B's slice of its text range) and
    // publish it — one manifest bump — then hot-reload under live traffic.
    let store = ShardedStore::open(&root).unwrap();
    let spec = store.manifest().shards[1].clone();
    let shard_store = store.shard_store(1).unwrap();
    let gen_dir = shard_store.allocate().unwrap();
    let slice = CorpusSlice::new(&b, spec.first_text, spec.num_texts as usize);
    build_and_write(&slice, config(), &gen_dir, true).unwrap();
    let new_gen = gen_dir.file_name().unwrap().to_string_lossy().into_owned();
    let mut store = store;
    store.publish_shard(1, &new_gen, 2).unwrap();
    assert_eq!(store.manifest().generation, 2);

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

    // Per-shard gauges track each shard's own serving generation.
    let reg = ndss::obs::Registry::global();
    assert_eq!(
        reg.gauge_with_labels(
            "index.shard.generation",
            "generation number each shard of the serving view is on",
            &[("shard", "0")],
        )
        .get(),
        0,
        "shard 0 still serves its original generation"
    );
    assert_eq!(
        reg.gauge_with_labels(
            "index.shard.generation",
            "generation number each shard of the serving view is on",
            &[("shard", "1")],
        )
        .get(),
        1,
        "shard 1 now serves its rebuilt generation"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Rolling one shard back is the same atomic story in reverse: the
/// manifest bump moves readers from the all-new view to the view with
/// shard 1 rolled back, never through a mix.
#[test]
fn per_shard_rollback_restores_the_previous_view() {
    let _gauges = gauge_lock();
    let root = scratch("hotswap", "sharded_rollback");
    let (a, queries) = corpus_a();
    let b = corpus_b_shard1(&a, &queries);

    build_sharded(&a, config(), &root, 2, &ShardedBuildOptions::default()).unwrap();
    let ref_v1 = sharded_cold_results(&root, &queries);

    let mut store = ShardedStore::open(&root).unwrap();
    let spec = store.manifest().shards[1].clone();
    let shard_store = store.shard_store(1).unwrap();
    let gen_dir = shard_store.allocate().unwrap();
    build_and_write(
        &CorpusSlice::new(&b, spec.first_text, spec.num_texts as usize),
        config(),
        &gen_dir,
        true,
    )
    .unwrap();
    let new_gen = gen_dir.file_name().unwrap().to_string_lossy().into_owned();
    store.publish_shard(1, &new_gen, 2).unwrap();
    let ref_v2 = sharded_cold_results(&root, &queries);
    assert_ne!(ref_v1, ref_v2);

    let serving = ServingIndex::open(&root).unwrap();
    assert_eq!(serving.generation(), Some(2));

    let rolled = store.rollback_shard(1, None).unwrap();
    assert_eq!(rolled, spec.serving.unwrap());
    assert_eq!(store.manifest().generation, 3);
    assert!(serving.reload().unwrap());
    assert_eq!(serving.generation(), Some(3));

    // The rolled-back view answers exactly like the original one.
    let live = served_results(&serving, &queries);
    assert_eq!(live, ref_v1, "rollback must restore the original answers");
    std::fs::remove_dir_all(&root).ok();
}
