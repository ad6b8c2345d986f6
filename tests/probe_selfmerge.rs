//! A crash between a compaction's publish and its trim leaves the memtable
//! manifest's `compact_gen` naming the segment the store serves now. If
//! another frozen segment is pending, recovery used to keep that pointer,
//! and the next compaction reused it as its merge target:
//! `merge(serving, seal) → serving`, rewriting the serving segment in
//! place. This sweep crashes the ingest path at every kill point and pins
//! that a published segment is never written again.

use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::sync::Arc;

use ndss::corpus::{CorpusSource, SyntheticCorpusBuilder};
use ndss::index::{IndexConfig, IndexError, IngestIndex, IngestOptions, KillPoints};

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
        // Small enough that several segments freeze before the first
        // compaction: the stale pointer only bites with one still pending.
        flush_bytes: 2_000,
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

/// The store's last serving segment ("" before the first publish).
fn current(root: &Path) -> String {
    let manifest = ndss::index::Manifest::load(root)
        .unwrap()
        .unwrap_or_default();
    manifest
        .segments
        .last()
        .map(|s| s.dir.clone())
        .unwrap_or_default()
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

/// Every file of a segment directory as `(name, inode, bytes)`, sorted.
fn fingerprint(dir: &Path) -> Vec<(String, u64, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().to_string_lossy().into_owned(),
                entry.metadata().unwrap().ino(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn published_generation_is_never_a_merge_target() {
    let base = ndss_integration::scratch_root("selfmerge");
    let counted = ndss_integration::scratch("selfmerge", "count");
    let counter = KillPoints::count_only();
    drive(&counted, Some(counter.clone())).unwrap();
    let checkpoints = counter.checkpoints_seen();
    assert!(checkpoints > 20, "the drive must cross several compactions");

    let mut windows_hit = 0;
    for n in 0..checkpoints {
        let root = base.join(format!("kill_{n}"));
        std::fs::create_dir_all(&root).unwrap();
        assert!(drive(&root, Some(KillPoints::at_checkpoint(n))).is_err());

        // Recovery alone (no compaction yet) must already drop a pointer
        // whose compaction reached publish.
        let frozen = IngestIndex::open(&root, None, opts(None))
            .unwrap()
            .frozen_segments();
        let serving = current(&root);
        if !serving.is_empty() {
            assert_ne!(
                compact_gen(&root),
                serving,
                "kill point {n}: recovery kept compact_gen on the serving segment with {frozen} frozen segments"
            );
        }
        let before = (!serving.is_empty()).then(|| fingerprint(&root.join(&serving)));
        if before.is_some() && frozen > 0 {
            windows_hit += 1;
        }

        // Finish the work. The segment that was serving at the crash is
        // retained (`keep: 1`) unless two more were published; while it
        // exists it is the same files, byte for byte and inode for inode.
        drive(&root, None).unwrap();
        if let Some(before) = before {
            let dir = root.join(&serving);
            if dir.is_dir() {
                assert!(
                    before == fingerprint(&dir),
                    "kill point {n}: published segment {serving} was rewritten in place"
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
