//! Garbage collection of build residue left by crashed runs.
//!
//! A crash can strand three kinds of garbage: the `tmp_spill/` directory of
//! an external build (its runs), a `build.journal` whose build will never
//! resume, and
//! `.{name}.{pid}.{seq}.tmp` temporaries from interrupted
//! [`ndss_durable::AtomicFile`] publications. Rather than accumulating
//! silently, they are swept at the natural ownership-transfer points —
//! build or merge start, [`crate::DiskIndex::open`], and
//! [`crate::Store::open`] — with every removed file counted in
//! the `index.gc_files` counter so operators can see a crashy environment
//! in the metrics.
//!
//! The one thing GC must never do is destroy *resumable* state: a valid
//! journal plus the runs it vouches for is exactly what `--resume` needs, so
//! the open-path sweep leaves them alone and only a fresh build — the
//! explicit decision to start over, or a resume that finds no journal —
//! clears them.

use std::path::Path;

use ndss_obs::Counter;

use crate::build::SPILL_DIR;
use crate::journal::JOURNAL_FILE;

/// Handle to the `index.gc_files` counter.
pub(crate) fn gc_counter() -> Counter {
    ndss_obs::Registry::global().counter(
        "index.gc_files",
        "stale build artifacts (run files, journals, atomic-write temps) removed by gc",
    )
}

/// Whether `name` matches the `AtomicFile` temp pattern
/// (`.{stem}.{pid}.{seq}.tmp`).
fn is_atomic_temp(name: &str) -> bool {
    name.starts_with('.') && name.ends_with(".tmp")
}

/// Removes interrupted atomic-write temporaries directly inside `dir`.
/// Returns the number of files removed; IO errors are reported as warnings
/// rather than failing the caller (the garbage is inert).
pub(crate) fn sweep_atomic_temps(dir: &Path) -> u64 {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return 0,
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !is_atomic_temp(name) || !entry.path().is_file() {
            continue;
        }
        match std::fs::remove_file(entry.path()) {
            Ok(()) => removed += 1,
            Err(e) => eprintln!(
                "warning: gc could not remove {}: {e}",
                entry.path().display()
            ),
        }
    }
    removed
}

/// Counts the regular files under `path` (recursively), so directory
/// removal can report how much garbage it reclaimed.
fn count_files(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    let mut n = 0;
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            n += count_files(&p);
        } else {
            n += 1;
        }
    }
    n
}

/// Removes a stale `tmp_spill/` directory and `build.journal` from `dir`.
/// Callers decide *when* this is safe (fresh build start, or open with no
/// valid journal); this only performs the removal. Returns files removed.
pub(crate) fn sweep_build_residue(dir: &Path) -> u64 {
    let mut removed = 0;
    let spill = dir.join(SPILL_DIR);
    if spill.is_dir() {
        let files = count_files(&spill);
        match std::fs::remove_dir_all(&spill) {
            Ok(()) => removed += files,
            Err(e) => eprintln!("warning: gc could not remove {}: {e}", spill.display()),
        }
    }
    let journal = dir.join(JOURNAL_FILE);
    if journal.is_file() {
        match std::fs::remove_file(&journal) {
            Ok(()) => removed += 1,
            Err(e) => eprintln!("warning: gc could not remove {}: {e}", journal.display()),
        }
    }
    removed
}

/// Removes a directory tree, returning how many regular files it held.
/// IO errors are reported as warnings (the garbage is inert).
pub(crate) fn remove_dir_counting(path: &Path) -> u64 {
    let files = count_files(path);
    match std::fs::remove_dir_all(path) {
        Ok(()) => files,
        Err(e) => {
            eprintln!("warning: gc could not remove {}: {e}", path.display());
            0
        }
    }
}

/// Store-root sweep for memtable residue. The rule mirrors the journal
/// rule: a `MEMTABLE` manifest — even a corrupt one — protects everything
/// under `memtable/`, because its WALs may hold acked-but-unpublished
/// texts that only [`crate::ingest::IngestIndex`] recovery can interpret.
/// What *is* garbage:
///
/// * a `memtable/` directory with no manifest at all (the manifest is
///   written before the first WAL, so this is a crashed creation or a
///   hand-deleted manifest — the WALs are unownable), and
/// * with a valid manifest, WAL files whose sequence is below
///   `trimmed_below`: compacted into a published segment, orphaned only
///   because the crash landed mid-trim; and `seal-S` directories below it,
///   where an earlier compaction staged a memtable before merging it.
///
/// Returns files removed (the caller counts them into `index.gc_files`).
pub(crate) fn sweep_memtable(root: &Path) -> u64 {
    let memtable = root.join(crate::ingest::MEMTABLE_DIR);
    if !memtable.is_dir() {
        return 0;
    }
    if !memtable.join(crate::ingest::MEMTABLE_FILE).exists() {
        return remove_dir_counting(&memtable);
    }
    let manifest = match crate::ingest::MemtableManifest::load(root) {
        Ok(Some((m, _))) => m,
        // Corrupt manifests protect their WALs, like corrupt journals
        // protect their runs: never collect what recovery (or a
        // human) may still need to inspect.
        _ => return 0,
    };
    let mut removed = 0;
    let wal_dir = memtable.join(crate::ingest::WAL_DIR);
    if let Ok(entries) = std::fs::read_dir(&wal_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(seq) = crate::wal::parse_wal_file_name(name) else {
                continue;
            };
            if seq < manifest.trimmed_below && std::fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
    }
    if let Ok(entries) = std::fs::read_dir(&memtable) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(seq) = name
                .strip_prefix("seal-")
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            if seq < manifest.trimmed_below && entry.path().is_dir() {
                removed += remove_dir_counting(&entry.path());
            }
        }
    }
    removed
}

/// Open-path sweep for an index directory: always clears interrupted
/// atomic-write temps; clears run + journal residue only when no journal
/// is present at all (a journal — even a corrupt one — marks state a
/// `--resume` or a human may still want). Counts into `index.gc_files`.
pub(crate) fn sweep_on_open(dir: &Path) {
    let mut removed = sweep_atomic_temps(dir);
    if !dir.join(JOURNAL_FILE).exists() && dir.join(SPILL_DIR).is_dir() {
        removed += sweep_build_residue(dir);
    }
    if removed > 0 {
        gc_counter().inc(removed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = crate::tests::test_root("ndss_gc_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn temp_pattern_matches_only_atomic_temps() {
        assert!(is_atomic_temp(".meta.json.123.0.tmp"));
        assert!(!is_atomic_temp("meta.json"));
        assert!(!is_atomic_temp("inv_0.ndsi"));
        assert!(!is_atomic_temp(".hidden"));
    }

    #[test]
    fn sweep_removes_temps_and_residue_but_not_artifacts() {
        let dir = temp_dir("sweep");
        std::fs::write(dir.join(".meta.json.99.1.tmp"), b"x").unwrap();
        std::fs::write(dir.join("meta.json"), b"keep").unwrap();
        std::fs::create_dir_all(dir.join(SPILL_DIR).join("run-000000")).unwrap();
        std::fs::write(
            dir.join(SPILL_DIR).join("run-000000").join("inv_0.ndsi"),
            b"y",
        )
        .unwrap();
        sweep_on_open(&dir);
        assert!(!dir.join(".meta.json.99.1.tmp").exists());
        assert!(!dir.join(SPILL_DIR).exists());
        assert!(dir.join("meta.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memtable_without_manifest_is_collected() {
        let root = temp_dir("mt_orphan");
        let wal_dir = root.join("memtable").join("wal");
        std::fs::create_dir_all(&wal_dir).unwrap();
        std::fs::write(wal_dir.join("wal-000001.log"), b"orphan").unwrap();
        assert_eq!(sweep_memtable(&root), 1);
        assert!(!root.join("memtable").exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_manifest_protects_its_wal() {
        let root = temp_dir("mt_corrupt");
        let memtable = root.join("memtable");
        let wal_dir = memtable.join("wal");
        std::fs::create_dir_all(&wal_dir).unwrap();
        std::fs::write(memtable.join("MEMTABLE"), b"not json at all").unwrap();
        std::fs::write(wal_dir.join("wal-000001.log"), b"live").unwrap();
        assert_eq!(sweep_memtable(&root), 0);
        assert!(wal_dir.join("wal-000001.log").exists());
        assert!(memtable.join("MEMTABLE").exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn live_manifest_trims_only_sealed_away_wals() {
        use crate::ingest::{IngestIndex, IngestOptions};
        use crate::IndexConfig;

        let root = temp_dir("mt_trim");
        // A real memtable with one live WAL...
        {
            let mut ingest = IngestIndex::open(
                &root,
                Some(IndexConfig::new(2, 10, 3)),
                IngestOptions::default(),
            )
            .unwrap();
            ingest
                .append(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
                .unwrap();
            ingest.sync().unwrap();
        }
        // ...plus a stray WAL below the trim watermark (sequence 0 is below
        // the initial watermark of 1) and a matching stale seal dir.
        let memtable = root.join("memtable");
        std::fs::write(memtable.join("wal").join("wal-000000.log"), b"stale").unwrap();
        std::fs::create_dir_all(memtable.join("seal-000000")).unwrap();
        std::fs::write(memtable.join("seal-000000").join("meta.json"), b"x").unwrap();
        assert_eq!(sweep_memtable(&root), 2);
        assert!(!memtable.join("wal").join("wal-000000.log").exists());
        assert!(!memtable.join("seal-000000").exists());
        // The live WAL survives.
        assert!(memtable.join("wal").join("wal-000001.log").exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sweep_preserves_resumable_state() {
        let dir = temp_dir("resumable");
        std::fs::create_dir_all(dir.join(SPILL_DIR).join("run-000000")).unwrap();
        std::fs::write(
            dir.join(SPILL_DIR).join("run-000000").join("inv_0.ndsi"),
            b"y",
        )
        .unwrap();
        // Any journal file — valid or not — marks the run scratch as spoken
        // for; only an explicit fresh build clears it.
        std::fs::write(dir.join(JOURNAL_FILE), b"{}").unwrap();
        sweep_on_open(&dir);
        assert!(dir
            .join(SPILL_DIR)
            .join("run-000000")
            .join("inv_0.ndsi")
            .exists());
        assert!(dir.join(JOURNAL_FILE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
