//! Differential test of [`IndexAccess::probe_texts`]: one batched call
//! must return exactly the concatenation of one per-text probe per entry
//! (and both must equal filtering the list itself), for every on-disk
//! format, untapped and tapped by a disarmed fault plan (a dormant tap must
//! pass the mapped bytes through), and with the list cache off, on but cold, and
//! holding the whole list — on lists built to sit on the boundaries the
//! forward pass has to get right.

use std::path::{Path, PathBuf};

use ndss_corpus::TextId;
use ndss_hash::HashValue;
use ndss_index::container::{Encoding, Writer};
use ndss_index::{
    inv_file_path, CacheConfig, DiskIndex, FaultPlan, IndexAccess, IndexConfig, IoStats, Posting,
    ReadOptions,
};
use ndss_windows::CompactWindow;

/// Zone step (v3) and block length (v4); packed blocks are always 128.
const STEP: u32 = 8;

fn posting(text: TextId, i: u32) -> Posting {
    Posting {
        text,
        window: CompactWindow::new(i, i + 2, i + 30),
    }
}

/// `runs` as `(text, postings of that text)`, ascending by text.
fn list(runs: &[(TextId, u32)]) -> Vec<Posting> {
    runs.iter()
        .flat_map(|&(text, n)| (0..n).map(move |i| posting(text, i)))
        .collect()
}

/// The lists under test, keyed by hash (ascending).
fn fixture() -> Vec<(HashValue, Vec<Posting>)> {
    vec![
        // Fits one block of any format.
        (10, list(&[(3, 2), (4, 1), (9, 3)])),
        // One text spanning several blocks of every format (128-posting
        // packed blocks included), between texts that share its first and last
        // block; ids start above 0 so "before the first block" exists.
        (20, list(&[(5, 3), (7, 2), (8, 300), (9, 1), (400, 2)])),
        // Many single-posting texts: every block boundary falls between
        // two texts, and each packed block holds 128 candidates.
        (30, list(&(10..700).map(|t| (t * 3, 1)).collect::<Vec<_>>())),
        // Runs exactly one block long, so runs end where blocks end.
        (40, list(&[(2, STEP), (6, 128), (11, STEP), (12, 128)])),
        // A run that starts inside a full packed block and ends inside the
        // tail block after it (120 + 8 | 12 + 3), so one text's postings
        // come out of both block layouts.
        (50, list(&[(5, 120), (6, 20), (9, 3)])),
    ]
    .into_iter()
    // Lengths on either side of the packed block size: a tail alone (1,
    // 127), full blocks alone (128), and full blocks followed by the
    // shortest and the longest tail (129, 255, 257).
    .chain([1u32, 127, 128, 129, 255, 257].into_iter().map(|n| {
        let runs: Vec<(TextId, u32)> = (0..n).map(|i| (2 + i * 2 + i / 7, 1)).collect();
        (100 + n as HashValue, list(&runs))
    }))
    .collect()
}

/// Opens `dir` with the list cache off (`"off"`) or on, untapped or with a
/// disarmed fault plan tapping every file.
fn open(dir: &Path, cache: &str, tapped: bool) -> DiskIndex {
    let io = if tapped {
        ReadOptions::with_faults(FaultPlan::new(""))
    } else {
        ReadOptions::default()
    };
    let sizing = if cache == "off" {
        CacheConfig::disabled()
    } else {
        CacheConfig::default()
    };
    DiskIndex::open_with_io(dir, sizing, io).unwrap()
}

fn build(dir: &Path, format: &str, lists: &[(HashValue, Vec<Posting>)]) -> IndexConfig {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    let path = inv_file_path(dir, 0);
    let config = IndexConfig::new(1, 25, 1).zone_map(STEP, 16);
    let config = match format {
        "v3" => config,
        "v4" => config.compressed(true),
        _ => config.bit_packed(true),
    };
    let mut w = Writer::create(&path, 0, Encoding::of(&config)).unwrap();
    for (hash, postings) in lists {
        w.write_list(*hash, postings).unwrap();
    }
    w.finish().unwrap();
    DiskIndex::write_meta(dir, &config).unwrap();
    config
}

/// Candidate sets for a list whose texts are `present` (ascending).
fn candidate_sets(present: &[TextId]) -> Vec<Vec<TextId>> {
    let (first, last) = (present[0], *present.last().unwrap());
    let mut sets = vec![
        Vec::new(),
        vec![first - 1],
        vec![last + 1],
        vec![first - 1, last + 1, last + 1000],
        present.to_vec(),
        // Every id in range: present and absent interleaved.
        (first - 1..=last + 1).collect(),
        // Sparse picks: most blocks are skipped over.
        present.iter().copied().step_by(97).collect(),
    ];
    // Each present text alone, and with its absent neighbours.
    for &t in present.iter().take(12) {
        sets.push(vec![t]);
        sets.push(vec![t - 1, t, t + 1]);
    }
    for set in &mut sets {
        set.dedup();
    }
    sets
}

#[test]
fn batched_probe_equals_per_text_probes() {
    let base: PathBuf =
        std::env::temp_dir().join(format!("ndss_batched_probe_{}", std::process::id()));
    let lists = fixture();
    for format in ["v3", "v4", "packed"] {
        let dir = base.join(format);
        build(&dir, format, &lists);
        // Every open maps its files; the tapped arm reads them through a
        // dormant fault tap.
        for tapped in [false, true] {
            for cache in ["off", "cold", "resident"] {
                let label = format!("{format} tapped={tapped} cache={cache}");
                let open = || open(&dir, cache, tapped);
                for (hash, postings) in &lists {
                    let mut present: Vec<TextId> = postings.iter().map(|p| p.text).collect();
                    present.dedup();
                    for texts in candidate_sets(&present) {
                        // A fresh index per probe keeps "cold" cold.
                        let index = open();
                        if cache == "resident" {
                            let whole = index.shared_list(0, *hash, &IoStats::default()).unwrap();
                            assert_eq!(&whole[..], &postings[..], "{label} hash {hash}");
                        }
                        let io = IoStats::default();
                        let mut batched = vec![posting(u32::MAX, 0)]; // appended to, not cleared
                        index
                            .probe_texts(0, *hash, &texts, &io, &mut batched)
                            .unwrap();
                        let per_text: Vec<Posting> = texts
                            .iter()
                            .flat_map(|&t| open().read_postings_for_text(0, *hash, t).unwrap())
                            .collect();
                        let filtered: Vec<Posting> = texts
                            .iter()
                            .flat_map(|t| postings.iter().filter(move |p| p.text == *t))
                            .copied()
                            .collect();
                        assert_eq!(batched[0], posting(u32::MAX, 0), "{label}");
                        assert_eq!(batched[1..], filtered[..], "{label} hash {hash} {texts:?}");
                        assert_eq!(per_text, filtered, "{label} hash {hash} {texts:?}");
                        // One list consult per call (none for an empty
                        // batch is fine too), and a resident list costs no IO.
                        let s = io.snapshot();
                        assert!(s.cache_hits + s.cache_misses <= 1, "{label}");
                        if cache == "resident" {
                            assert_eq!((s.cache_hits, s.bytes), (1, 0), "{label}");
                        }
                    }
                }
                // An absent hash answers empty on every path.
                let mut out = Vec::new();
                open()
                    .probe_texts(0, 15, &[1, 2, 3], &IoStats::default(), &mut out)
                    .unwrap();
                assert!(out.is_empty(), "{label}");
            }
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The packed encoding decodes a block at most once per call: a batch
/// covering the whole list reads no more bytes than the list occupies,
/// where per-text probes re-read a block for every text in it.
#[test]
fn packed_batch_reads_each_block_once() {
    let dir = std::env::temp_dir().join(format!("ndss_batched_probe_once_{}", std::process::id()));
    build(&dir, "packed", &fixture());
    let index = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();
    let (hash, postings) = &fixture()[2];
    let mut texts: Vec<TextId> = postings.iter().map(|p| p.text).collect();
    texts.dedup();

    let whole = IoStats::default();
    index.shared_list(0, *hash, &whole).unwrap();
    let batch = IoStats::default();
    let mut out = Vec::new();
    index
        .probe_texts(0, *hash, &texts, &batch, &mut out)
        .unwrap();
    assert_eq!(&out, postings);
    assert_eq!(batch.snapshot().bytes, whole.snapshot().bytes);

    let single = IoStats::default();
    for &t in &texts {
        index
            .probe_texts(0, *hash, &[t], &single, &mut out)
            .unwrap();
    }
    assert!(single.snapshot().bytes > 50 * batch.snapshot().bytes);
    std::fs::remove_dir_all(&dir).ok();
}

/// Splitmix64, for seed-deterministic lists and candidate sets.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next() % u64::from(hi - lo + 1)) as u32
    }
}

/// Random lists of 1–3 000 postings whose texts start above 0 and leave
/// gaps, with runs of 1–300 postings: long runs straddle several full
/// packed blocks and the last full block's boundary with the tail.
fn random_lists(rng: &mut Rng) -> Vec<(HashValue, Vec<Posting>)> {
    (0..40u64)
        .map(|h| {
            let len = match h % 4 {
                0 => rng.range(1, 127),
                1 => rng.range(128, 400),
                _ => rng.range(401, 3000),
            } as usize;
            let mut runs = Vec::new();
            let (mut text, mut total) = (rng.range(1, 40), 0);
            while total < len {
                let long = rng.next().is_multiple_of(5);
                let run = rng
                    .range(1, if long { 300 } else { 6 })
                    .min((len - total) as u32);
                runs.push((text, run));
                total += run as usize;
                text += rng.range(1, 4);
            }
            (h * 7 + 3, list(&runs))
        })
        .collect()
}

/// Random ascending candidate sets over `first − 3 ..= last + 3` at a few
/// densities, so each holds present ids, absent ones between them, and
/// (often) ids below the list's first text or above its last.
fn random_sets(rng: &mut Rng, present: &[TextId]) -> Vec<Vec<TextId>> {
    let (first, last) = (present[0], *present.last().unwrap());
    [2u64, 8, 64]
        .into_iter()
        .map(|one_in| {
            (first.saturating_sub(3)..=last + 3)
                .filter(|_| rng.next().is_multiple_of(one_in))
                .collect()
        })
        .collect()
}

/// Random sweep: on seeded lists and candidate sets, every encoding, both
/// read paths and each cache state (off, cold, holding the whole list — the
/// skip-guided resident search) return exactly the filtered list. The
/// sweep checks that it built runs across two block ends and across the
/// full→tail boundary.
#[test]
fn random_probe_sweep_equals_filtering_the_list() {
    let base: PathBuf =
        std::env::temp_dir().join(format!("ndss_probe_sweep_{}", std::process::id()));
    let mut rng = Rng(42);
    let lists = random_lists(&mut rng);
    let (mut straddles, mut into_tail) = (0, 0);
    for (_, postings) in &lists {
        let tail_start = postings.len() / 128 * 128;
        let mut start = 0;
        for run in postings.chunk_by(|a, b| a.text == b.text) {
            let end = start + run.len();
            straddles += usize::from((end - 1) / 128 >= start / 128 + 2);
            into_tail += usize::from(
                tail_start > 0
                    && tail_start < postings.len()
                    && start < tail_start
                    && end > tail_start,
            );
            start = end;
        }
    }
    assert!(straddles > 0 && into_tail > 0, "{straddles} {into_tail}");
    let sets: Vec<Vec<Vec<TextId>>> = lists
        .iter()
        .map(|(_, postings)| {
            let mut present: Vec<TextId> = postings.iter().map(|p| p.text).collect();
            present.dedup();
            random_sets(&mut rng, &present)
        })
        .collect();
    for format in ["v3", "v4", "packed"] {
        let dir = base.join(format);
        build(&dir, format, &lists);
        for tapped in [false, true] {
            for cache in ["off", "cold", "resident"] {
                let label = format!("{format} tapped={tapped} cache={cache}");
                for ((hash, postings), sets) in lists.iter().zip(&sets) {
                    for texts in sets {
                        let index = open(&dir, cache, tapped);
                        if cache == "resident" {
                            index.shared_list(0, *hash, &IoStats::default()).unwrap();
                        }
                        let mut got = Vec::new();
                        index
                            .probe_texts(0, *hash, texts, &IoStats::default(), &mut got)
                            .unwrap();
                        let filtered: Vec<Posting> = postings
                            .iter()
                            .filter(|p| texts.binary_search(&p.text).is_ok())
                            .copied()
                            .collect();
                        assert_eq!(got, filtered, "{label} hash {hash} {texts:?}");
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
