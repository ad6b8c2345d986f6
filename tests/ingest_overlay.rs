//! Differential: overlay queries over {published generations + memtable
//! segments} must be **identical** to a cold full rebuild of the same
//! texts — the CI-gated exactness contract of the ingest path.
//!
//! The grid covers every on-disk format (v3 fixed-width, v4 compressed, v6
//! block-bitpacked) × query concurrency 1/2/4/8 threads. The store is
//! arranged so matches span all three text populations at once: published
//! (sealed and compacted to disk), frozen (rotated, awaiting compaction),
//! and active (still absorbing appends) — and the query set includes spans
//! copied from each population plus planted near-duplicates, so a lane
//! silently dropped or double-counted cannot go unnoticed.

use std::path::PathBuf;

use ndss::index::{IngestIndex, IngestOptions};
use ndss::prelude::*;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ndss_it_overlay").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(version: &str) -> IndexConfig {
    let (compress, packed) = match version {
        "v3" => (false, false),
        "v4" => (true, false),
        "v6" => (false, true),
        other => panic!("unknown index format {other}"),
    };
    IndexConfig::new(4, 15, 9)
        .compressed(compress)
        .bit_packed(packed)
}

fn overlay_grid(version: &str) {
    let (corpus, planted) = SyntheticCorpusBuilder::new(97)
        .num_texts(30)
        .text_len(60, 120)
        .vocab_size(500)
        .build();
    let texts: Vec<Vec<TokenId>> = (0..corpus.num_texts() as TextId)
        .map(|i| corpus.text_to_vec(i).unwrap())
        .collect();

    // Arrange the store: texts [0, 12) published, [12, 22) frozen,
    // [22, 30) active.
    let root = temp_dir(&format!("grid_{version}"));
    let opts = IngestOptions {
        fsync_every: 1,
        ..IngestOptions::default()
    };
    let mut ingest = IngestIndex::open(&root, Some(config(version)), opts).unwrap();
    for t in &texts[..12] {
        ingest.append(t).unwrap();
    }
    ingest.seal_all().unwrap();
    for t in &texts[12..22] {
        ingest.append(t).unwrap();
    }
    ingest.rotate().unwrap();
    for t in &texts[22..] {
        ingest.append(t).unwrap();
    }
    ingest.sync().unwrap();
    assert_eq!(ingest.covered(), 12);
    assert_eq!(ingest.frozen_segments(), 1);
    assert_eq!(ingest.pending_texts(), 18);

    // The cold full rebuild the overlay must be indistinguishable from.
    let full =
        MemoryIndex::build(&InMemoryCorpus::from_texts(texts.clone()), config(version)).unwrap();
    let reference = NearDupSearcher::new(&full).unwrap();

    // Queries drawn from every population, plus the planted duplicates
    // (whose sources land across the published/frozen/active boundaries).
    let mut queries: Vec<Vec<TokenId>> = vec![
        texts[3][10..50].to_vec(),
        texts[15][5..45].to_vec(),
        texts[25][20..60].to_vec(),
        texts[29][..40.min(texts[29].len())].to_vec(),
    ];
    queries.extend(
        planted
            .iter()
            .take(6)
            .map(|p| corpus.sequence_to_vec(p.dst).unwrap()),
    );

    let disk = ShardedIndex::open(&root).unwrap();
    assert_eq!(disk.num_texts(), 12, "only the sealed prefix is on disk");

    for threads in [1usize, 2, 4, 8] {
        // Each worker builds its own per-request overlay view (as the
        // daemon does) over the shared disk view and segments, and runs
        // the full query set — concurrency must not perturb a bit.
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let (disk, ingest, reference, queries) = (&disk, &ingest, &reference, &queries);
                scope.spawn(move || {
                    for (qi, query) in queries.iter().enumerate() {
                        let searcher = disk.searcher().unwrap().threads(threads);
                        let cfg = disk.config();
                        let mut overlay = OverlaySearcher::new(
                            Some(searcher),
                            disk.num_texts() as u64,
                            cfg.k,
                            cfg.t as u32,
                        );
                        for segment in ingest.segments() {
                            overlay.push_segment(segment).unwrap();
                        }
                        assert_eq!(overlay.num_segments(), 2);
                        for theta in [0.7f64, 0.9] {
                            let label = format!(
                                "{version} threads {threads} worker {worker} query {qi} θ {theta}"
                            );
                            let got = overlay.search(query, theta).unwrap();
                            let want = reference.search(query, theta).unwrap();
                            assert!(got.complete, "{label}: flagged incomplete");
                            assert_eq!(got.beta, want.beta, "{label}: β differs");
                            assert_eq!(got.t, want.t, "{label}: t differs");
                            assert_eq!(got.matches, want.matches, "{label}: matches differ");
                        }
                    }
                });
            }
        });
    }

    // Compact everything and re-check with a refreshed disk view: the
    // overlay must collapse to the pure disk path with identical results.
    ingest.seal_all().unwrap();
    let disk = ShardedIndex::open(&root).unwrap();
    assert_eq!(disk.num_texts(), texts.len());
    for (qi, query) in queries.iter().enumerate() {
        let searcher = disk.searcher().unwrap();
        let cfg = disk.config();
        let mut overlay =
            OverlaySearcher::new(Some(searcher), disk.num_texts() as u64, cfg.k, cfg.t as u32);
        for segment in ingest.segments() {
            overlay.push_segment(segment).unwrap();
        }
        assert_eq!(overlay.num_segments(), 0, "everything is published");
        let got = overlay.search(query, 0.8).unwrap();
        let want = reference.search(query, 0.8).unwrap();
        assert_eq!(got.matches, want.matches, "{version} post-seal query {qi}");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn overlay_equals_full_rebuild_fixed_width() {
    overlay_grid("v3");
}

#[test]
fn overlay_equals_full_rebuild_compressed() {
    overlay_grid("v4");
}

#[test]
fn overlay_equals_full_rebuild_bitpacked() {
    overlay_grid("v6");
}

/// The publish-races-pin window, deterministically: pin the disk view,
/// compact (publish + trim) *while the old view is still pinned*, and
/// query through an overlay that still holds the now-published segment.
/// The per-segment rule must overlay it against the *stale* snapshot
/// (base ≥ covered) and skip it against a *fresh* one — identical results
/// from both sides of the swap.
#[test]
fn overlay_is_exact_across_a_concurrent_publish() {
    let root = temp_dir("publish_race");
    let (corpus, _) = SyntheticCorpusBuilder::new(98)
        .num_texts(20)
        .text_len(60, 120)
        .vocab_size(500)
        .build();
    let texts: Vec<Vec<TokenId>> = (0..corpus.num_texts() as TextId)
        .map(|i| corpus.text_to_vec(i).unwrap())
        .collect();
    let opts = IngestOptions {
        fsync_every: 1,
        ..IngestOptions::default()
    };
    let cfg = IndexConfig::new(4, 15, 9).bit_packed(true);
    let mut ingest = IngestIndex::open(&root, Some(cfg.clone()), opts).unwrap();
    for t in &texts[..10] {
        ingest.append(t).unwrap();
    }
    ingest.seal_all().unwrap();
    for t in &texts[10..] {
        ingest.append(t).unwrap();
    }
    ingest.rotate().unwrap();

    // Pin the 10-text view, then publish the frozen segment behind it.
    let stale = ShardedIndex::open(&root).unwrap();
    assert_eq!(stale.num_texts(), 10);
    // Snapshot the frozen segment's texts *by value*: compaction will drop
    // the in-memory segment, but a pinned request in the daemon holds the
    // lock for its whole search — here we model the before/after states.
    let full = MemoryIndex::build(&InMemoryCorpus::from_texts(texts.clone()), cfg.clone()).unwrap();
    let reference = NearDupSearcher::new(&full).unwrap();
    let query = texts[14][10..60].to_vec();
    let want = reference.search(&query, 0.8).unwrap();

    // Before the swap: stale snapshot + the frozen segment overlays.
    {
        let searcher = stale.searcher().unwrap();
        let mut overlay = OverlaySearcher::new(Some(searcher), 10, cfg.k, cfg.t as u32);
        for segment in ingest.segments() {
            overlay.push_segment(segment).unwrap();
        }
        assert_eq!(overlay.num_segments(), 1);
        let got = overlay.search(&query, 0.8).unwrap();
        assert_eq!(got.matches, want.matches, "stale view + overlay");
    }

    // Publish it. The *fresh* view covers everything; re-running with the
    // fresh snapshot and the (now empty) segment set matches too.
    ingest.seal_all().unwrap();
    let fresh = ShardedIndex::open(&root).unwrap();
    assert_eq!(fresh.num_texts(), 20);
    {
        let searcher = fresh.searcher().unwrap();
        let mut overlay = OverlaySearcher::new(Some(searcher), 20, cfg.k, cfg.t as u32);
        for segment in ingest.segments() {
            overlay.push_segment(segment).unwrap();
        }
        assert_eq!(overlay.num_segments(), 0);
        let got = overlay.search(&query, 0.8).unwrap();
        assert_eq!(got.matches, want.matches, "fresh view, segment skipped");
    }
    std::fs::remove_dir_all(&root).ok();
}
