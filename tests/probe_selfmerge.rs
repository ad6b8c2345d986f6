//! The memtable manifest's `compact_gen` names the target of an in-flight
//! tail merge, and a crash between that merge's publish and the pointer's
//! clearing leaves it naming a segment the store serves. A recovery that
//! kept such a pointer would let the next merge reuse it as its target —
//! `merge(run) → serving`, rewriting a serving segment in place. This sweep
//! crashes the ingest path at every kill point, across compactions that
//! append rows and a tail merge, and pins that recovery drops a pointer to
//! any listed segment and that a published segment is never written again.

use std::path::Path;
use std::sync::Arc;

use ndss::corpus::{CorpusSource, SyntheticCorpusBuilder};
use ndss::index::{IndexConfig, IndexError, IngestIndex, IngestOptions, KillPoints};
use ndss_integration::segment_files;

fn texts() -> Vec<Vec<u32>> {
    let (corpus, _) = SyntheticCorpusBuilder::new(93)
        .num_texts(18)
        .text_len(40, 90)
        .vocab_size(400)
        .build();
    (0..corpus.num_texts() as u32)
        .map(|i| corpus.text_to_vec(i).unwrap())
        .collect()
}

fn opts(kill: Option<Arc<KillPoints>>) -> IngestOptions {
    IngestOptions {
        // Small enough that five segments freeze before the first
        // compaction: the stale pointer only bites with one still pending,
        // and the compactions merge the tail.
        flush_bytes: 1_000,
        fsync_every: 1,
        keep: 1,
        kill,
    }
}

/// Appends whatever is missing of `texts()` and compacts everything.
fn drive(root: &Path, kill: Option<Arc<KillPoints>>) -> Result<(), IndexError> {
    let texts = texts();
    let config = IndexConfig::new(3, 20, 11).bit_packed(true);
    let mut ingest = IngestIndex::open(root, Some(config), opts(kill))?;
    for text in &texts[ingest.next_text_id() as usize..] {
        ingest.append(text)?;
    }
    ingest.seal_all()?;
    Ok(())
}

/// The store's serving segments (none before the first publish).
fn serving(root: &Path) -> Vec<String> {
    ndss::index::Manifest::load(root)
        .unwrap()
        .unwrap_or_default()
        .dirs()
}

/// `compact_gen` as recorded in the memtable manifest ("" when unset).
fn compact_gen(root: &Path) -> String {
    let manifest =
        std::fs::read_to_string(root.join("memtable").join("MEMTABLE")).unwrap_or_default();
    let doc = ndss::json::Json::parse(&manifest).expect("memtable manifest parses");
    doc.get("compact_gen")
        .and_then(|v| v.as_str())
        .expect("manifest carries compact_gen")
        .to_string()
}

#[test]
fn published_generation_is_never_a_merge_target() {
    let base = ndss_integration::scratch_root("selfmerge");
    let counted = ndss_integration::scratch("selfmerge", "count");
    let counter = KillPoints::count_only();
    drive(&counted, Some(counter.clone())).unwrap();
    let checkpoints = counter.checkpoints_seen();
    assert!(checkpoints > 20, "the drive must cross several compactions");
    // Each compaction publishes once and appends a row; each tail merge
    // publishes once and removes rows.
    let manifest = ndss::index::Manifest::load(&counted).unwrap().unwrap();
    assert!(
        manifest.generation > manifest.segments.len() as u64,
        "the drive must merge the tail"
    );

    let mut windows_hit = 0;
    for n in 0..checkpoints {
        let root = base.join(format!("kill_{n}"));
        std::fs::create_dir_all(&root).unwrap();
        assert!(drive(&root, Some(KillPoints::at_checkpoint(n))).is_err());

        // Recovery alone (no compaction yet) must already drop a pointer
        // whose merge reached publish.
        let before: Vec<(String, _)> = serving(&root)
            .into_iter()
            .map(|dir| {
                let files = segment_files(&root.join(&dir));
                (dir, files)
            })
            .collect();
        let frozen = IngestIndex::open(&root, None, opts(None))
            .unwrap()
            .frozen_segments();
        let pointer = compact_gen(&root);
        assert!(
            !serving(&root).contains(&pointer),
            "kill point {n}: recovery kept compact_gen on serving segment {pointer} with {frozen} frozen segments"
        );
        if !before.is_empty() && frozen > 0 {
            windows_hit += 1;
        }

        // Finish the work. A segment that was serving at the crash is
        // retained (`keep: 1`) or collected once merged away; while it
        // exists it is the same files, byte for byte and inode for inode.
        drive(&root, None).unwrap();
        for (dir, files) in &before {
            let path = root.join(dir);
            if path.is_dir() {
                assert!(
                    *files == segment_files(&path),
                    "kill point {n}: published segment {dir} was rewritten in place"
                );
            }
        }
        let done = IngestIndex::open(&root, None, opts(None)).unwrap();
        assert_eq!(done.covered(), texts().len() as u64, "kill point {n}");
        assert_eq!(done.pending_texts(), 0, "kill point {n}");
    }
    assert!(
        windows_hit > 0,
        "no kill point left a serving segment with frozen segments pending"
    );
    std::fs::remove_dir_all(&base).ok();
}
