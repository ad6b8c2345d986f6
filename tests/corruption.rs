//! Failure injection: corrupted, truncated, or mismatched on-disk artifacts
//! must surface typed errors — never panics, never silently wrong results.

use ndss::index::build_and_write;
use ndss::prelude::*;
use ndss_integration::scratch;

fn build_index(dir: &std::path::Path, compress: bool) {
    let (corpus, _) = SyntheticCorpusBuilder::new(161).num_texts(30).build();
    let config = IndexConfig::new(2, 25, 5)
        .compressed(compress)
        .zone_map(8, 16);
    build_and_write(&corpus, config, dir, true).unwrap();
}

#[test]
fn truncated_index_file_is_rejected() {
    for compress in [false, true] {
        let dir = scratch("corruption", &format!("trunc_{compress}"));
        build_index(&dir, compress);
        let file = dir.join("inv_0.ndsi");
        let bytes = std::fs::read(&file).unwrap();
        // Cut the file in half: directory (stored at the tail) is gone.
        std::fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();
        assert!(
            DiskIndex::open(&dir).is_err(),
            "truncated v{} file must fail to open",
            if compress { 4 } else { 3 }
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn flipped_magic_is_rejected() {
    let dir = scratch("corruption", "magic");
    build_index(&dir, false);
    let file = dir.join("inv_1.ndsi");
    let mut bytes = std::fs::read(&file).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&file, &bytes).unwrap();
    assert!(DiskIndex::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unsupported_version_is_rejected() {
    let dir = scratch("corruption", "version");
    build_index(&dir, false);
    let file = dir.join("inv_0.ndsi");
    let mut bytes = std::fs::read(&file).unwrap();
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&file, &bytes).unwrap();
    let Err(err) = DiskIndex::open(&dir) else {
        panic!("the open succeeded")
    };
    assert!(err.to_string().contains("version"), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_index_file_is_rejected() {
    let dir = scratch("corruption", "missing_file");
    build_index(&dir, false);
    std::fs::remove_file(dir.join("inv_1.ndsi")).unwrap();
    assert!(DiskIndex::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swapped_function_files_are_rejected() {
    // inv_0 claims func 0 in its header; renaming inv_1 over it must be
    // caught, otherwise queries would silently hash with the wrong bank.
    let dir = scratch("corruption", "swapped");
    build_index(&dir, false);
    std::fs::remove_file(dir.join("inv_0.ndsi")).unwrap();
    std::fs::copy(dir.join("inv_1.ndsi"), dir.join("inv_0.ndsi")).unwrap();
    let Err(err) = DiskIndex::open(&dir) else {
        panic!("the open succeeded")
    };
    assert!(err.to_string().contains("claims function"), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_meta_json_is_rejected() {
    let dir = scratch("corruption", "meta");
    build_index(&dir, false);
    std::fs::write(dir.join("meta.json"), b"{ not json").unwrap();
    assert!(DiskIndex::open(&dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_corpus_is_rejected() {
    let dir = scratch("corruption", "corpus");
    let path = dir.join("c.ndsc");
    let (corpus, _) = SyntheticCorpusBuilder::new(162).num_texts(20).build();
    ndss::corpus::disk::write_corpus(&corpus, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
    assert!(DiskCorpus::open(&path).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mangled_corpus_offsets_are_rejected() {
    let dir = scratch("corruption", "offsets");
    let path = dir.join("c.ndsc");
    let (corpus, _) = SyntheticCorpusBuilder::new(163).num_texts(5).build();
    ndss::corpus::disk::write_corpus(&corpus, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // The offsets table sits at the tail; scramble its middle.
    let len = bytes.len();
    bytes[len - 20..len - 12].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(DiskCorpus::open(&path).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_meta_without_compress_field_still_opens() {
    // Forward compatibility: meta.json written before the `compress` field
    // existed must deserialize (serde default = false).
    let dir = scratch("corruption", "old_meta");
    build_index(&dir, false);
    let meta = std::fs::read_to_string(dir.join("meta.json")).unwrap();
    let stripped: String = meta
        .lines()
        .filter(|l| !l.contains("compress"))
        .collect::<Vec<_>>()
        .join("\n");
    // Remove the trailing comma on the line before the removed field if any.
    let stripped = stripped.replace(",\n}", "\n}");
    std::fs::write(dir.join("meta.json"), stripped).unwrap();
    let reopened = DiskIndex::open(&dir).unwrap();
    assert!(!reopened.config().compress);
    std::fs::remove_dir_all(&dir).ok();
}
