//! A tail merge lands in a freshly allocated segment, and an interrupted
//! one is redone into another fresh segment from its published inputs: no
//! merge ever takes a segment the store serves as its target, which would
//! rewrite it in place (`merge(run) → serving`). This sweep crashes the
//! ingest path at every kill point, across compactions that append rows
//! and a tail merge, and pins that a published segment is never written
//! again — neither by recovery alone nor by the run that finishes the work
//! — and that what was never published is collected.

use std::path::Path;
use std::sync::Arc;

use ndss::corpus::{CorpusSource, SyntheticCorpusBuilder};
use ndss::index::{IndexConfig, IndexError, IngestIndex, IngestOptions, KillPoints};
use ndss_integration::{assert_unchanged, serving_segments};

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
        // compaction: crashes then leave frozen segments pending behind a
        // published one, and the compactions merge the tail.
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

        // Recovery alone (no compaction yet) writes no serving segment
        // again, even where it redoes a merge the crash interrupted.
        let before = serving_segments(&root);
        let frozen = IngestIndex::open(&root, None, opts(None))
            .unwrap()
            .frozen_segments();
        assert_unchanged(&format!("kill point {n}, {frozen} frozen"), &root, &before);
        if !before.is_empty() && frozen > 0 {
            windows_hit += 1;
        }

        // Finish the work. A segment that was serving at the crash is
        // retained (`keep: 1`) or collected once merged away; while it
        // exists it is the same files, byte for byte and inode for inode.
        drive(&root, None).unwrap();
        assert_unchanged(&format!("kill point {n}"), &root, &before);
        let unlisted = ndss::index::Store::open(&root)
            .unwrap()
            .unpublished()
            .unwrap();
        assert!(
            unlisted.is_empty(),
            "kill point {n}: {unlisted:?} left unlisted"
        );
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
