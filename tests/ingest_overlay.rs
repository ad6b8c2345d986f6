//! Differential: overlay queries over {published segments + memtable
//! segments} must be **identical** to a cold full rebuild of the same
//! texts — the CI-gated exactness contract of the ingest path.
//!
//! The grid covers every on-disk format (v3 fixed-width, v4 compressed, v6
//! block-bitpacked) × query concurrency 1/2/4/8 threads. The store is
//! arranged so matches span all three text populations at once: published
//! (compacted to disk), frozen (rotated, awaiting compaction), and active
//! (still absorbing appends) — and the query set includes spans copied
//! from each population plus planted near-duplicates, so a lane silently
//! dropped or double-counted cannot go unnoticed. The published prefix is
//! arranged twice: compacted at once into one segment, and compacted one
//! text at a time into a tiered list the tail rule has merged.

use std::path::PathBuf;
use std::time::Duration;

use ndss::index::{CacheConfig, FaultMode, FaultPlan, IngestIndex, IngestOptions};
use ndss::prelude::*;
use ndss::query::{BreakerConfig, BreakerState, FaultPolicy};
use ndss_integration::{assert_serves_batch_build, scratch, segment_files};

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

/// The per-request lane set the daemon builds: the pinned disk view's
/// lanes under the isolating policy, plus every memtable segment the view
/// does not cover (`ShardedSearcher::push_segment` skips the rest).
fn overlay<'a>(
    disk: &'a ShardedIndex,
    ingest: &'a IngestIndex,
    threads: usize,
) -> ShardedSearcher<'a> {
    let mut overlay = disk
        .searcher_with_filter(PrefixFilter::Disabled)
        .unwrap()
        .threads(threads)
        .fault_policy(FaultPolicy::Isolate);
    for segment in ingest.segments() {
        overlay.push_segment(segment);
    }
    overlay
}

fn overlay_grid(version: &str) {
    for one_at_a_time in [false, true] {
        overlay_grid_with(version, one_at_a_time);
    }
}

fn overlay_grid_with(version: &str, one_at_a_time: bool) {
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
    let root = scratch("overlay", &format!("grid_{version}_{one_at_a_time}"));
    let opts = IngestOptions {
        fsync_every: 1,
        ..IngestOptions::default()
    };
    let mut ingest = IngestIndex::open(&root, Some(config(version)), opts).unwrap();
    let mut compactions = 0;
    for t in &texts[..12] {
        ingest.append(t).unwrap();
        if one_at_a_time {
            compactions += ingest.seal_all().unwrap();
        }
    }
    compactions += ingest.seal_all().unwrap();
    // Each compaction publishes once, and so does each tail merge.
    let published = Store::open(&root).unwrap().manifest().unwrap();
    let merges = published.generation - compactions as u64;
    if one_at_a_time {
        assert!(merges >= 2, "{version}: {merges} tail merges");
    } else {
        assert_eq!(merges, 0, "{version}: one segment");
    }
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
    let reference = ShardedSearcher::single(&full, PrefixFilter::Disabled).unwrap();

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
    assert_eq!(disk.num_shards(), published.segments.len());

    for threads in [1usize, 2, 4, 8] {
        // Each worker builds its own per-request overlay view (as the
        // daemon does) over the shared disk view and segments, and runs
        // the full query set — concurrency must not perturb a bit.
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let (disk, ingest, reference, queries) = (&disk, &ingest, &reference, &queries);
                scope.spawn(move || {
                    for (qi, query) in queries.iter().enumerate() {
                        let overlay = overlay(disk, ingest, threads);
                        assert_eq!(overlay.num_lanes() - disk.num_shards(), 2);
                        for theta in [0.7f64, 0.9] {
                            let label = format!(
                                "{version} one at a time {one_at_a_time} threads {threads} \
                                 worker {worker} query {qi} θ {theta}"
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
        let overlay = overlay(&disk, &ingest, 2);
        assert_eq!(
            overlay.num_lanes() - disk.num_shards(),
            0,
            "everything is published"
        );
        let got = overlay.search(query, 0.8).unwrap();
        let want = reference.search(query, 0.8).unwrap();
        assert_eq!(
            got.matches, want.matches,
            "{version} one at a time {one_at_a_time}: post-seal query {qi}"
        );
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
    let root = scratch("overlay", "publish_race");
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
    let reference = ShardedSearcher::single(&full, PrefixFilter::Disabled).unwrap();
    let query = texts[14][10..60].to_vec();
    let want = reference.search(&query, 0.8).unwrap();

    // Before the swap: stale snapshot + the frozen segment overlays.
    {
        let overlay = overlay(&stale, &ingest, 2);
        assert_eq!(overlay.num_lanes() - stale.num_shards(), 1);
        let got = overlay.search(&query, 0.8).unwrap();
        assert_eq!(got.matches, want.matches, "stale view + overlay");
    }

    // Publish it. The *fresh* view covers everything; re-running with the
    // fresh snapshot and the (now empty) segment set matches too.
    ingest.seal_all().unwrap();
    let fresh = ShardedIndex::open(&root).unwrap();
    assert_eq!(fresh.num_texts(), 20);
    {
        let overlay = overlay(&fresh, &ingest, 2);
        assert_eq!(overlay.num_lanes() - fresh.num_shards(), 0);
        let got = overlay.search(&query, 0.8).unwrap();
        assert_eq!(got.matches, want.matches, "fresh view, segment skipped");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Ingest over a store built with `--shards 2`: `covered` is the
/// manifest's text count, so the appended text gets id 40, compaction
/// appends it as a third row — the two built segments untouched, the tail
/// rule leaving a far smaller row alone — and the store, merged, is the
/// batch build of all 41 texts.
#[test]
fn ingest_appends_after_every_segment_of_a_multi_segment_store() {
    let root = scratch("overlay", "two_segments");
    let (corpus, _) = SyntheticCorpusBuilder::new(101)
        .num_texts(40)
        .text_len(60, 120)
        .vocab_size(500)
        .build();
    let cfg = IndexConfig::new(4, 15, 9).bit_packed(true);
    build_sharded(
        &corpus,
        cfg.clone(),
        &root,
        2,
        &ShardedBuildOptions::default(),
    )
    .unwrap();
    let built = Store::open(&root).unwrap().manifest().unwrap().segments;
    let before: Vec<_> = built
        .iter()
        .map(|s| segment_files(&root.join(&s.dir)))
        .collect();

    let text: Vec<TokenId> = (10_000..10_080).collect();
    let opts = IngestOptions {
        fsync_every: 1,
        ..IngestOptions::default()
    };
    let mut ingest = IngestIndex::open(&root, Some(cfg.clone()), opts.clone()).unwrap();
    assert_eq!(ingest.covered(), 40);
    assert_eq!(ingest.append(&text).unwrap(), 40);
    ingest.rotate().unwrap();
    assert_eq!(ingest.compact_all().unwrap(), 1);
    drop(ingest);

    let manifest = Store::open(&root).unwrap().verify().unwrap();
    assert_eq!(manifest.segments.len(), 3);
    assert_eq!(
        manifest.segments[..2],
        built,
        "the built rows are untouched"
    );
    for (seg, files) in built.iter().zip(&before) {
        assert!(
            *files == segment_files(&root.join(&seg.dir)),
            "{} was written again",
            seg.dir
        );
    }
    assert_eq!(manifest.num_texts(), 41);
    let reopened = IngestIndex::open(&root, None, opts).unwrap();
    assert_eq!((reopened.covered(), reopened.pending_texts()), (41, 0));

    let mut texts: Vec<Vec<TokenId>> = corpus.iter().map(|(_, t)| t.to_vec()).collect();
    texts.push(text.clone());
    let batch = scratch("overlay", "two_segments_batch");
    let mem = MemoryIndex::build(&InMemoryCorpus::from_texts(texts), cfg).unwrap();
    ndss::index::write_memory_index(&mem, &batch).unwrap();
    assert_serves_batch_build("two segments + one appended", &root, &batch);

    let view = ShardedIndex::open(&root).unwrap();
    let outcome = view
        .searcher_with_filter(PrefixFilter::Disabled)
        .unwrap()
        .search(&text[10..70], 0.8)
        .unwrap();
    let found: Vec<TextId> = outcome.matches.iter().map(|m| m.text).collect();
    assert_eq!(found, [40]);
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&batch).ok();
}

/// Texts per lane that contain [`planted_span`] verbatim.
const PLANTED_PER_LANE: usize = 4;
/// Published, frozen, active.
const LANES: usize = 3;

/// A span no filler text shares a token with (the filler vocabulary ends
/// at 500).
fn planted_span() -> Vec<TokenId> {
    (10_000..10_040).collect()
}

/// A store whose three populations — published [0, 8), frozen [8, 16),
/// active [16, 24) — each hold `PLANTED_PER_LANE` texts embedding
/// [`planted_span`], alternating with filler texts that cannot match it.
fn planted_in_every_lane(tag: &str) -> (PathBuf, IngestIndex) {
    let (filler, _) = SyntheticCorpusBuilder::new(99)
        .num_texts(2 * PLANTED_PER_LANE * LANES)
        .text_len(60, 120)
        .vocab_size(500)
        .duplicates_per_text(0.0)
        .build();
    let root = scratch("overlay", tag);
    let opts = IngestOptions {
        fsync_every: 1,
        ..IngestOptions::default()
    };
    let cfg = IndexConfig::new(4, 15, 9).bit_packed(true);
    let mut ingest = IngestIndex::open(&root, Some(cfg), opts).unwrap();
    let per_lane = 2 * PLANTED_PER_LANE;
    for i in 0..filler.num_texts() {
        let mut text = filler.text_to_vec(i as TextId).unwrap();
        if i % 2 == 0 {
            text.splice(20..20, planted_span());
        }
        ingest.append(&text).unwrap();
        if i + 1 == per_lane {
            ingest.seal_all().unwrap();
        } else if i + 1 == 2 * per_lane {
            ingest.rotate().unwrap();
        }
    }
    ingest.sync().unwrap();
    assert_eq!(ingest.covered(), per_lane as u64);
    assert_eq!(ingest.frozen_segments(), 1);
    assert_eq!(ingest.pending_texts(), 2 * per_lane as u64);
    (root, ingest)
}

/// One budget covers the whole query: disk and memory lanes share one
/// tracker in lane order, so the total spend stays within the caller's cap
/// plus the one text by which a query, like a single index, may overshoot
/// before its next checkpoint, and what comes back is a text-order prefix
/// flagged incomplete.
#[test]
fn one_budget_covers_disk_and_memory_lanes() {
    let (root, ingest) = planted_in_every_lane("budget_split");
    let disk = ShardedIndex::open(&root).unwrap();
    let overlay = overlay(&disk, &ingest, 2);
    assert_eq!(overlay.num_lanes() - disk.num_shards(), LANES - 1);
    let query = planted_span();
    let full = overlay.search(&query, 0.8).unwrap();
    assert!(full.complete);
    let planted: Vec<TextId> = (0..(2 * PLANTED_PER_LANE * LANES) as TextId)
        .step_by(2)
        .collect();
    let matched: Vec<TextId> = full.matches.iter().map(|m| m.text).collect();
    assert_eq!(matched, planted, "every lane holds its planted copies");

    let mut partials = 0;
    for cap in 1..=full.matches.len() + 2 {
        let budgets = [
            (
                "matches",
                QueryBudget::unlimited().max_result_matches(cap),
                (|o| o.matches.len()) as fn(&SearchOutcome) -> usize,
            ),
            (
                "candidates",
                QueryBudget::unlimited().max_candidates(cap as u64),
                |o| o.stats.candidate_texts,
            ),
        ];
        for (what, budget, spent) in budgets {
            let outcome = match overlay.search_governed(&query, 0.8, &budget) {
                Ok(outcome) => {
                    assert!(outcome.complete);
                    assert_eq!(outcome.matches, full.matches, "{what} cap {cap}");
                    outcome
                }
                Err(QueryError::BudgetExceeded { partial, .. }) => {
                    partials += 1;
                    assert!(!partial.complete, "{what} cap {cap}: partial says complete");
                    assert_eq!(
                        partial.matches[..],
                        full.matches[..partial.matches.len()],
                        "{what} cap {cap}: not a text-order prefix"
                    );
                    *partial
                }
                Err(e) => panic!("{what} cap {cap}: {e}"),
            };
            assert!(
                spent(&outcome) <= cap + 1,
                "{what} cap {cap}: the query spent {}",
                spent(&outcome)
            );
            if cap == PLANTED_PER_LANE {
                assert!(!outcome.complete, "{what} cap {cap} must trip");
            }
        }
    }
    assert!(partials > 0);
    std::fs::remove_dir_all(&root).ok();
}

/// Every disk shard quarantined, memtable healthy: the memtable's matches
/// come back with every disk range labelled degraded. Only when no lane at
/// all can answer is the query an error.
#[test]
fn quarantined_disk_still_serves_the_memtable() {
    let (root, ingest) = planted_in_every_lane("disk_quarantined");
    let plan = FaultPlan::new("seg-");
    let options = ServingOptions {
        cache: CacheConfig::disabled(),
        io: ndss::index::ReadOptions::with_faults(plan.clone()),
        // One fault trips the breaker for longer than the test runs.
        breaker: BreakerConfig {
            failure_threshold: 1,
            backoff: Duration::from_secs(600),
            max_backoff: Duration::from_secs(600),
        },
    };
    let disk = ShardedIndex::open_with(&root, &options).unwrap();
    assert!(plan.attached() > 0);
    let covered = disk.num_texts() as TextId;
    let query = planted_span();
    let full = overlay(&disk, &ingest, 2).search(&query, 0.8).unwrap();
    assert!(full.complete && full.degraded.is_empty());

    plan.arm(FaultMode::Deny);
    // First the disk lane faults inside the scatter, then it is skipped at
    // admission; the answer is the same both times.
    for round in 0..2 {
        let injected = plan.injected();
        let got = overlay(&disk, &ingest, 2).search(&query, 0.8).unwrap();
        assert_eq!(disk.health().state(0), BreakerState::Open);
        assert_eq!(plan.injected() > injected, round == 0, "round {round}");
        assert!(!got.complete);
        let ranges: Vec<(TextId, u64)> = got
            .degraded
            .iter()
            .map(|d| (d.first_text, d.num_texts))
            .collect();
        assert_eq!(ranges, vec![(0, covered as u64)], "round {round}");
        let memtable: Vec<_> = full.matches.iter().filter(|m| m.text >= covered).collect();
        assert_eq!(memtable.len(), (LANES - 1) * PLANTED_PER_LANE);
        assert_eq!(got.matches.iter().collect::<Vec<_>>(), memtable);
    }
    let disk_only = disk
        .searcher_with_filter(PrefixFilter::Disabled)
        .unwrap()
        .fault_policy(FaultPolicy::Isolate);
    assert!(matches!(
        disk_only.search(&query, 0.8),
        Err(QueryError::AllShardsQuarantined { shards: 1, .. })
    ));
    std::fs::remove_dir_all(&root).ok();
}
