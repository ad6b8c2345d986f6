//! Pins the IO-accounting semantics of `DiskIndex` under concurrency.
//!
//! The contract (relied on by the query layer and the observability
//! registry):
//!
//! 1. **Exact attribution, folded once** — a read records into the
//!    accumulator its caller threads through `shared_list` / `probe_texts`
//!    and nowhere else; the owner folds it into the registry once
//!    (`IoStats::publish`). So the registry's `index.io.*` and
//!    `index.cache.*` deltas equal the sum of the accumulators exactly,
//!    under any thread interleaving, on a zone-mapped v3 index and a packed
//!    v6 index alike. No reads or bytes are double-counted, none leak
//!    between callers. `verify_integrity` returns exactly the bytes it
//!    folds.
//! 2. **Complete cache accounting** — every posting-list consult (one
//!    `shared_list` call, or one `probe_texts` call however many texts it
//!    batches) records exactly one of `cache_hits`/`cache_misses`, and
//!    every zone-map consult exactly one of `zone_hits`/`zone_misses` (the
//!    zone counters are separate: a probe can miss the list cache yet hit
//!    the zone cache, and folding those together overstated miss rates).
//!
//! The registry is process-wide, so every test here holds [`REGISTRY`].

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use ndss_corpus::{InMemoryCorpus, SyntheticCorpusBuilder, TextId};
use ndss_hash::HashValue;
use ndss_index::{
    write_memory_index, CacheConfig, DiskIndex, IndexAccess, IndexConfig, IoSnapshot, IoStats,
    MemoryIndex,
};
use ndss_obs::{MetricValue, Registry};

/// Serializes the tests of this binary: each compares registry deltas.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The registry's index IO counters (0 while unregistered).
fn registry_totals() -> IoSnapshot {
    let metrics = Registry::global().snapshot();
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0, |m| match m.value {
                MetricValue::Counter(v) => v,
                _ => panic!("{name} is not a counter"),
            })
    };
    IoSnapshot {
        reads: get("index.io.reads"),
        bytes: get("index.io.bytes"),
        cache_hits: get("index.cache.posting.hits"),
        cache_misses: get("index.cache.posting.misses"),
        zone_hits: get("index.cache.zone.hits"),
        zone_misses: get("index.cache.zone.misses"),
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ndss_io_accounting").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn corpus() -> InMemoryCorpus {
    SyntheticCorpusBuilder::new(501)
        .num_texts(120)
        .text_len(100, 200)
        .vocab_size(60) // tiny vocab → long lists → zone maps engage
        .build()
        .0
}

/// The index plus every (func, hash) key and one long zone-mapped list.
type IndexFixture = (
    DiskIndex,
    Vec<(usize, HashValue)>,
    (usize, HashValue, TextId),
);

/// Builds an index with long lists under `dir`: fixed-width with zone maps
/// (v3), or bitpacked blocks (v6).
fn build_index(dir: &Path, packed: bool) -> IndexFixture {
    let corpus = corpus();
    let config = IndexConfig::new(4, 10, 7)
        .zone_map(8, 32)
        .bit_packed(packed);
    let mem = MemoryIndex::build(&corpus, config).unwrap();
    let mut keys = Vec::new();
    let mut long_probe = None;
    for func in 0..4 {
        for (hash, postings) in mem.sorted_lists(func) {
            keys.push((func, hash));
            if postings.len() >= 64 && long_probe.is_none() {
                long_probe = Some((func, hash, postings[postings.len() / 2].text));
            }
        }
    }
    let disk = write_memory_index(&mem, dir).unwrap();
    (
        disk,
        keys,
        long_probe.expect("tiny vocab must produce a long list"),
    )
}

fn add(total: &mut IoSnapshot, d: &IoSnapshot) {
    total.reads += d.reads;
    total.bytes += d.bytes;
    total.cache_hits += d.cache_hits;
    total.cache_misses += d.cache_misses;
    total.zone_hits += d.zone_hits;
    total.zone_misses += d.zone_misses;
}

#[test]
fn concurrent_accumulators_partition_global_totals_exactly() {
    let _registry = registry_lock();
    for (format, packed) in [("v3", false), ("v6", true)] {
        let dir = temp_dir(&format!("partition_{format}"));
        let (_, keys, _) = build_index(&dir, packed);
        assert!(!keys.is_empty());
        for threads in [1usize, 4, 8] {
            // A cold cache per cell: every cell starts by missing.
            let disk = DiskIndex::open(&dir).unwrap();
            let before = registry_totals();
            let per_thread: Vec<(IoSnapshot, u64)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (disk, keys) = (&disk, &keys);
                        s.spawn(move || {
                            let io = IoStats::default();
                            let mut list_consults = 0u64;
                            let mut probed = Vec::new();
                            for round in 0..2 {
                                for (i, &(func, hash)) in keys.iter().enumerate() {
                                    // Interleave full reads and batched probes.
                                    if (i + t + round) % 3 == 0 {
                                        let postings = disk.shared_list(func, hash, &io).unwrap();
                                        // One batched probe of the list's first
                                        // and last text: one consult, however
                                        // many texts.
                                        let mut texts = vec![postings[0].text];
                                        texts.extend(postings.last().map(|p| p.text));
                                        texts.dedup();
                                        probed.clear();
                                        disk.probe_texts(func, hash, &texts, &io, &mut probed)
                                            .unwrap();
                                        list_consults += 2;
                                    } else {
                                        disk.shared_list(func, hash, &io).unwrap();
                                        list_consults += 1;
                                    }
                                }
                            }
                            // The owner folds its accumulator once.
                            io.publish();
                            (io.snapshot(), list_consults)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            let mut expected = before;
            let mut summed = IoSnapshot::default();
            let mut total_consults = 0u64;
            for (snap, consults) in &per_thread {
                add(&mut expected, snap);
                add(&mut summed, snap);
                total_consults += consults;
            }
            // 1. Exact attribution: the registry moved by precisely the sum
            // of the accumulators — no bleed, no double counting.
            assert_eq!(registry_totals(), expected, "{format} at {threads} threads");

            // 2. Complete posting-cache accounting: one hit or miss per
            // consult.
            assert_eq!(
                summed.cache_hits + summed.cache_misses,
                total_consults,
                "every list consult must record exactly one hit or miss"
            );
            assert!(summed.cache_hits > 0, "repeat reads should hit the cache");
            assert!(summed.bytes > 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn verify_integrity_returns_the_bytes_it_folds() {
    let _registry = registry_lock();
    for (format, packed) in [("v3", false), ("v6", true)] {
        let dir = temp_dir(&format!("verify_{format}"));
        let (disk, _, _) = build_index(&dir, packed);
        let before = registry_totals();
        let streamed = disk.verify_integrity().unwrap();
        let after = registry_totals();
        assert!(streamed > 0, "{format}: the walk must stream the payload");
        assert_eq!(after.bytes - before.bytes, streamed, "{format}");
        assert!(after.reads > before.reads, "{format}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn zone_consults_are_counted_separately_from_list_cache() {
    let _registry = registry_lock();
    let dir = temp_dir("zones");
    let (_disk, _, (func, hash, text)) = build_index(&dir, false);

    // A cold index (caches disabled) must still count zone consults — all
    // as misses, one per probe.
    let cold = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();
    let io_cold = IoStats::default();
    let mut out = Vec::new();
    for _ in 0..2 {
        cold.probe_texts(func, hash, &[text], &io_cold, &mut out)
            .unwrap();
    }
    let s = io_cold.snapshot();
    assert_eq!(s.zone_hits, 0, "disabled cache cannot hit");
    assert_eq!(s.zone_misses, 2, "each probe reads the zone map from disk");
    assert_eq!(s.cache_misses, 2);

    // A batched probe resolves the list once: one list-cache consult and
    // one zone-map consult for the whole batch, not one per text.
    let io_batch = IoStats::default();
    cold.probe_texts(func, hash, &[text, text + 1, text + 2], &io_batch, &mut out)
        .unwrap();
    let s = io_batch.snapshot();
    assert_eq!((s.cache_hits, s.cache_misses), (0, 1));
    assert_eq!((s.zone_hits, s.zone_misses), (0, 1));

    // With caches on, the second probe of the same list is served by the
    // zone cache.
    let warm = DiskIndex::open_with_cache(&dir, CacheConfig::default()).unwrap();
    let (io_first, io_second) = (IoStats::default(), IoStats::default());
    warm.probe_texts(func, hash, &[text], &io_first, &mut out)
        .unwrap();
    warm.probe_texts(func, hash, &[text], &io_second, &mut out)
        .unwrap();
    let (first, second) = (io_first.snapshot(), io_second.snapshot());
    assert_eq!(first.zone_misses, 1);
    assert_eq!(first.zone_hits, 0);
    assert_eq!(
        second.zone_hits, 1,
        "repeat probe must be served by the zone cache"
    );
    assert_eq!(second.zone_misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}
