//! Shared test support for the integration suite. The integration test
//! files themselves are declared as `[[test]]` targets in `Cargo.toml`.

pub mod mutate;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The scratch root of one suite, unique to this process so two
/// `cargo test` runs on one host do not clobber each other.
pub fn scratch_root(suite: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ndss_it_{suite}_{}", std::process::id()))
}

/// A fresh, empty directory `name` under [`scratch_root`]`(suite)`.
pub fn scratch(suite: &str, name: &str) -> PathBuf {
    let dir = scratch_root(suite).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Every file under `dir` (recursively), relative path → contents.
pub fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap();
                out.insert(
                    rel.to_string_lossy().into_owned(),
                    std::fs::read(&path).unwrap(),
                );
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Asserts `dir` holds exactly the reference files: same names, same bytes,
/// and in particular no leftover run scratch.
pub fn assert_same_files(context: &str, dir: &Path, reference: &BTreeMap<String, Vec<u8>>) {
    let got = dir_files(dir);
    let got_names: Vec<&String> = got.keys().collect();
    let want_names: Vec<&String> = reference.keys().collect();
    assert_eq!(
        got_names, want_names,
        "{context}: file set differs from the reference"
    );
    for (name, bytes) in reference {
        assert_eq!(
            &got[name], bytes,
            "{context}: {name} differs from the reference"
        );
    }
}

/// Merges the serving segments of the store at `root` (each re-verified
/// first) into a scratch directory beside it and asserts that the result
/// is, file for file, the batch build in `reference`: however compaction
/// cut the text ids into rows, together they index what one build does.
pub fn assert_serves_batch_build(context: &str, root: &Path, reference: &Path) {
    let manifest = ndss::index::Store::open(root)
        .and_then(|store| store.verify())
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    let dirs: Vec<PathBuf> = manifest
        .segments
        .iter()
        .map(|s| root.join(&s.dir))
        .collect();
    let dirs: Vec<&Path> = dirs.iter().map(PathBuf::as_path).collect();
    let merged = root.with_extension("merged");
    std::fs::remove_dir_all(&merged).ok();
    ndss::index::merge_indexes(&dirs, &merged).unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_same_files(context, &merged, &dir_files(reference));
    std::fs::remove_dir_all(&merged).ok();
}

/// Every file of a segment directory as `(name, inode, bytes)`, sorted.
pub type SegmentFiles = Vec<(String, u64, Vec<u8>)>;

/// The [`SegmentFiles`] of `dir`. A published segment is never written
/// again, so this does not change for as long as the directory exists.
#[cfg(unix)]
pub fn segment_files(dir: &Path) -> SegmentFiles {
    use std::os::unix::fs::MetadataExt;
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

/// Each serving segment of the store at `root` with its [`segment_files`].
#[cfg(unix)]
pub fn serving_segments(root: &Path) -> Vec<(String, SegmentFiles)> {
    let manifest = ndss::index::Store::open(root)
        .and_then(|store| store.manifest())
        .unwrap();
    manifest
        .dirs()
        .into_iter()
        .map(|dir| {
            let files = segment_files(&root.join(&dir));
            (dir, files)
        })
        .collect()
}

/// Asserts that every segment of `serving` (taken by [`serving_segments`]
/// at a crash) that still exists under `root` has the same files, inodes
/// and bytes: a published segment is never written again — in particular
/// never a merge target.
#[cfg(unix)]
pub fn assert_unchanged(label: &str, root: &Path, serving: &[(String, SegmentFiles)]) {
    for (dir, files) in serving {
        let path = root.join(dir);
        if path.is_dir() {
            assert!(
                *files == segment_files(&path),
                "{label}: published segment {dir} was rewritten in place"
            );
        }
    }
}
