//! Pins the IO-accounting semantics of `DiskIndex` under concurrency.
//!
//! The contract (relied on by the query layer and the observability
//! registry):
//!
//! 1. **Exact attribution** — per-caller accumulators threaded through
//!    `shared_list` / `probe_texts` partition the global totals: the sum of
//!    all accumulator snapshots equals the index-wide `io_snapshot` delta
//!    exactly, under any thread interleaving. No reads or bytes are
//!    double-counted, none leak between callers.
//! 2. **Complete cache accounting** — every posting-list consult (one
//!    `shared_list` call, or one `probe_texts` call however many texts it
//!    batches) records exactly one of `cache_hits`/`cache_misses`, and
//!    every zone-map consult exactly one of `zone_hits`/`zone_misses` (the
//!    zone counters are separate: a probe can miss the list cache yet hit
//!    the zone cache, and folding those together overstated miss rates).

use std::path::{Path, PathBuf};

use ndss_corpus::{InMemoryCorpus, SyntheticCorpusBuilder, TextId};
use ndss_hash::HashValue;
use ndss_index::{
    write_memory_index, CacheConfig, DiskIndex, IndexAccess, IndexConfig, IoSnapshot, IoStats,
    MemoryIndex,
};

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

/// Builds a v1 index with long, zone-mapped lists under `dir`.
fn build_index(dir: &Path) -> IndexFixture {
    let corpus = corpus();
    let config = IndexConfig::new(4, 10, 7).zone_map(8, 32);
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
    total.nanos += d.nanos;
    total.cache_hits += d.cache_hits;
    total.cache_misses += d.cache_misses;
    total.zone_hits += d.zone_hits;
    total.zone_misses += d.zone_misses;
}

#[test]
fn concurrent_accumulators_partition_global_totals_exactly() {
    let dir = temp_dir("partition");
    let (disk, keys, _) = build_index(&dir);
    assert!(!keys.is_empty());

    let before = disk.io_snapshot();
    let per_thread: Vec<(IoSnapshot, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let disk = &disk;
                let keys = &keys;
                s.spawn(move || {
                    let io = IoStats::default();
                    let mut list_consults = 0u64;
                    let mut probed = Vec::new();
                    for round in 0..3 {
                        for (i, &(func, hash)) in keys.iter().enumerate() {
                            // Interleave full reads and per-text probes.
                            if (i + t + round) % 3 == 0 {
                                let postings = disk.shared_list(func, hash, &io).unwrap();
                                list_consults += 1;
                                // One batched probe of the list's first and
                                // last text: one consult, however many texts.
                                let mut texts = vec![postings[0].text];
                                texts.extend(postings.last().map(|p| p.text));
                                texts.dedup();
                                probed.clear();
                                disk.probe_texts(func, hash, &texts, &io, &mut probed)
                                    .unwrap();
                                list_consults += 1;
                            } else {
                                disk.shared_list(func, hash, &io).unwrap();
                                list_consults += 1;
                            }
                        }
                    }
                    (io.snapshot(), list_consults)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = disk.io_snapshot();
    let global_delta = after.since(&before);

    let mut summed = IoSnapshot::default();
    let mut total_consults = 0u64;
    for (snap, consults) in &per_thread {
        add(&mut summed, snap);
        total_consults += consults;
    }

    // 1. Exact attribution: the global delta is precisely the sum of the
    // per-thread accumulators — no bleed, no double counting.
    assert_eq!(summed, global_delta);

    // 2. Complete posting-cache accounting: one hit or miss per consult.
    assert_eq!(
        summed.cache_hits + summed.cache_misses,
        total_consults,
        "every list consult must record exactly one hit or miss"
    );
    assert!(summed.cache_hits > 0, "repeat reads should hit the cache");
    assert!(summed.bytes > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zone_consults_are_counted_separately_from_list_cache() {
    let dir = temp_dir("zones");
    let (_disk, _, (func, hash, text)) = build_index(&dir);

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
    let io_warm = IoStats::default();
    warm.probe_texts(func, hash, &[text], &io_warm, &mut out)
        .unwrap();
    let first = io_warm.snapshot();
    warm.probe_texts(func, hash, &[text], &io_warm, &mut out)
        .unwrap();
    let second = io_warm.snapshot().since(&first);
    assert_eq!(first.zone_misses, 1);
    assert_eq!(first.zone_hits, 0);
    assert_eq!(
        second.zone_hits, 1,
        "repeat probe must be served by the zone cache"
    );
    assert_eq!(second.zone_misses, 0);
    std::fs::remove_dir_all(&dir).ok();
}
