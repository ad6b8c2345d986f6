//! Generational index lifecycle: `gen-NNNN/` directories under one store
//! root, with an atomically-published `CURRENT` pointer.
//!
//! A *store* separates "an index exists on disk" from "this index is
//! serving". Builds land in freshly allocated `gen-NNNN/` directories;
//! only [`GenerationStore::publish`] — which re-opens the generation and
//! runs the full checksum walk of `verify_integrity` first — moves the
//! `CURRENT` pointer, via [`ndss_durable::write_atomic`] so readers see
//! either the old pointer or the new one, never a torn file and never an
//! unverified generation. [`GenerationStore::rollback`] is the same pointer
//! move in reverse, which is why publish retains the last `keep` complete
//! generations instead of deleting eagerly.
//!
//! ```text
//! store/
//! ├── CURRENT            ← contains "gen-0003"
//! ├── gen-0002/          ← previous generation, kept for rollback
//! │   ├── meta.json  inv_0.ndsi  …
//! └── gen-0003/          ← serving generation
//!     ├── meta.json  inv_0.ndsi  …
//! ```
//!
//! Readers never need store-awareness: [`resolve_index_dir`] maps a store
//! root to its current generation directory (and leaves plain index
//! directories untouched), so every open path accepts both layouts.

use std::path::{Path, PathBuf};

use crate::disk::META_FILE;
use crate::journal::JOURNAL_FILE;
use crate::{gc, DiskIndex, IndexError};

/// File in the store root naming the serving generation.
pub const CURRENT_FILE: &str = "CURRENT";

/// How many non-current complete generations [`GenerationStore::publish`]
/// retains by default.
pub const DEFAULT_KEEP: usize = 1;

/// Directory name for generation `n`.
pub fn generation_name(n: u64) -> String {
    format!("gen-{n:04}")
}

/// Parses `gen-NNNN` (≥ 4 digits, no other decoration) to its number.
pub fn parse_generation_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("gen-")?;
    if digits.len() < 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Status of one generation directory in a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationInfo {
    /// Directory name (`gen-NNNN`).
    pub name: String,
    /// Parsed generation number.
    pub number: u64,
    /// `meta.json` is present: the build committed all artifacts.
    pub complete: bool,
    /// A `build.journal` is present: an interrupted build can `--resume`.
    pub resumable: bool,
    /// This generation is named by `CURRENT`.
    pub current: bool,
}

/// A generational index store rooted at one directory.
#[derive(Debug, Clone)]
pub struct GenerationStore {
    root: PathBuf,
}

impl GenerationStore {
    /// Opens (creating if needed) a store at `root`, then sweeps orphaned
    /// generations and stray atomic-write temps left by crashed runs.
    pub fn open(root: &Path) -> Result<Self, IndexError> {
        std::fs::create_dir_all(root)?;
        let store = GenerationStore {
            root: root.to_path_buf(),
        };
        store.gc()?;
        Ok(store)
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Name of the serving generation, if a `CURRENT` pointer exists.
    pub fn current(&self) -> Result<Option<String>, IndexError> {
        let path = self.root.join(CURRENT_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let name = text.trim();
        if parse_generation_name(name).is_none() {
            return Err(IndexError::Malformed(format!(
                "{}: does not name a generation: {name:?}",
                path.display()
            )));
        }
        Ok(Some(name.to_string()))
    }

    /// Directory of the serving generation, if any.
    pub fn current_dir(&self) -> Result<Option<PathBuf>, IndexError> {
        Ok(self.current()?.map(|name| self.root.join(name)))
    }

    /// Allocates the next generation directory (`max + 1`) and creates it.
    pub fn allocate(&self) -> Result<PathBuf, IndexError> {
        let next = self.generations()?.last().map_or(0, |info| info.number + 1);
        let dir = self.root.join(generation_name(next));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// All generation directories in the store, ascending by number.
    pub fn generations(&self) -> Result<Vec<GenerationInfo>, IndexError> {
        let current = self.current().unwrap_or(None);
        let mut infos = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let path = entry.path();
            if !path.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(number) = parse_generation_name(name) else {
                continue;
            };
            infos.push(GenerationInfo {
                name: name.to_string(),
                number,
                complete: path.join(META_FILE).is_file(),
                resumable: path.join(JOURNAL_FILE).is_file(),
                current: current.as_deref() == Some(name),
            });
        }
        infos.sort_by_key(|info| info.number);
        Ok(infos)
    }

    /// The most recent generation with resumable (journaled) state, if any.
    pub fn resumable(&self) -> Result<Option<GenerationInfo>, IndexError> {
        Ok(self
            .generations()?
            .into_iter()
            .rev()
            .find(|info| info.resumable))
    }

    /// Publishes generation `name` as `CURRENT`: re-opens it, runs the full
    /// `verify_integrity` checksum walk, atomically rewrites the pointer,
    /// then prunes complete non-current generations beyond the newest
    /// `keep`. A generation that fails verification is never published.
    pub fn publish(&self, name: &str, keep: usize) -> Result<(), IndexError> {
        if parse_generation_name(name).is_none() {
            return Err(IndexError::Malformed(format!(
                "not a generation name: {name:?}"
            )));
        }
        let dir = self.root.join(name);
        DiskIndex::open(&dir)?.verify_integrity()?;
        ndss_durable::write_atomic(&self.root.join(CURRENT_FILE), name.as_bytes())?;
        self.prune(keep)?;
        Ok(())
    }

    /// Re-points `CURRENT` at `to` (or, when `None`, the newest complete
    /// generation older than the current one). The target is re-verified
    /// before the pointer moves — rollback must not land on a generation
    /// that has rotted on disk since it was built. Returns the name rolled
    /// back to.
    pub fn rollback(&self, to: Option<&str>) -> Result<String, IndexError> {
        let target = match to {
            Some(name) => name.to_string(),
            None => {
                let current_num = self
                    .current()?
                    .as_deref()
                    .and_then(parse_generation_name)
                    .ok_or_else(|| {
                        IndexError::Malformed(
                            "rollback with no --to requires a CURRENT pointer".to_string(),
                        )
                    })?;
                self.generations()?
                    .into_iter()
                    .rev()
                    .find(|info| info.complete && info.number < current_num)
                    .map(|info| info.name)
                    .ok_or_else(|| {
                        IndexError::Malformed(
                            "no older complete generation to roll back to".to_string(),
                        )
                    })?
            }
        };
        let dir = self.root.join(&target);
        DiskIndex::open(&dir)?.verify_integrity()?;
        ndss_durable::write_atomic(&self.root.join(CURRENT_FILE), target.as_bytes())?;
        Ok(target)
    }

    /// Removes complete, non-current generations beyond the newest `keep`.
    /// Incomplete or resumable generations are GC's business, not prune's.
    fn prune(&self, keep: usize) -> Result<(), IndexError> {
        let candidates: Vec<GenerationInfo> = self
            .generations()?
            .into_iter()
            .filter(|info| info.complete && !info.current && !info.resumable)
            .collect();
        if candidates.len() <= keep {
            return Ok(());
        }
        for info in &candidates[..candidates.len() - keep] {
            let dir = self.root.join(&info.name);
            if let Err(e) = std::fs::remove_dir_all(&dir) {
                eprintln!("warning: could not prune {}: {e}", dir.display());
            }
        }
        Ok(())
    }

    /// Sweeps store-level garbage: stray atomic-write temps in the root and
    /// orphaned generations — directories that are neither complete nor
    /// resumable nor current (a build crashed before its first journal
    /// checkpoint, so there is nothing to resume from). Counted into
    /// `index.gc_files`.
    fn gc(&self) -> Result<(), IndexError> {
        let mut removed = gc::sweep_atomic_temps(&self.root);
        removed += gc::sweep_memtable(&self.root);
        for info in self.generations()? {
            if info.complete || info.resumable || info.current {
                continue;
            }
            let dir = self.root.join(&info.name);
            match std::fs::remove_dir_all(&dir) {
                Ok(()) => removed += 1,
                Err(e) => eprintln!("warning: gc could not remove {}: {e}", dir.display()),
            }
        }
        if removed > 0 {
            gc::gc_counter().inc(removed);
        }
        Ok(())
    }
}

/// Maps a path that may be either a plain index directory or a generation
/// store to the directory an index should be opened from: the serving
/// generation when `path` is a store with a `CURRENT` pointer, otherwise
/// `path` itself. Query-side callers use this so stores are transparently
/// addressable.
pub fn resolve_index_dir(path: &Path) -> PathBuf {
    let current = path.join(CURRENT_FILE);
    if let Ok(text) = std::fs::read_to_string(&current) {
        let name = text.trim();
        if parse_generation_name(name).is_some() {
            return path.join(name);
        }
    }
    path.to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> PathBuf {
        let dir = crate::tests::test_root("ndss_generation_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generation_names_roundtrip() {
        assert_eq!(generation_name(0), "gen-0000");
        assert_eq!(generation_name(12345), "gen-12345");
        assert_eq!(parse_generation_name("gen-0007"), Some(7));
        assert_eq!(parse_generation_name("gen-12345"), Some(12345));
        assert_eq!(parse_generation_name("gen-07"), None);
        assert_eq!(parse_generation_name("gen-00x7"), None);
        assert_eq!(parse_generation_name("tmp_spill"), None);
    }

    #[test]
    fn allocate_is_monotonic() {
        let root = temp_store("allocate");
        let store = GenerationStore::open(&root).unwrap();
        let a = store.allocate().unwrap();
        assert_eq!(a.file_name().unwrap(), "gen-0000");
        // An empty allocated dir would be GC'd on reopen; mark it resumable
        // so the next allocation sees it.
        std::fs::write(a.join(JOURNAL_FILE), b"{}").unwrap();
        let b = store.allocate().unwrap();
        assert_eq!(b.file_name().unwrap(), "gen-0001");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn orphaned_generations_are_swept_on_open() {
        let root = temp_store("orphans");
        {
            let store = GenerationStore::open(&root).unwrap();
            store.allocate().unwrap(); // crashes before any journal
        }
        let store = GenerationStore::open(&root).unwrap();
        assert!(store.generations().unwrap().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn resolve_maps_store_to_current_generation() {
        let root = temp_store("resolve");
        let gen = root.join("gen-0002");
        std::fs::create_dir_all(&gen).unwrap();
        std::fs::write(root.join(CURRENT_FILE), b"gen-0002\n").unwrap();
        assert_eq!(resolve_index_dir(&root), gen);
        // A plain directory resolves to itself.
        assert_eq!(resolve_index_dir(&gen), gen);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_current_pointer_is_rejected() {
        let root = temp_store("badcurrent");
        let store = GenerationStore::open(&root).unwrap();
        std::fs::write(root.join(CURRENT_FILE), b"../../etc").unwrap();
        assert!(store.current().is_err());
        // resolve_index_dir must not traverse out of the store either.
        assert_eq!(resolve_index_dir(&root), root);
        std::fs::remove_dir_all(&root).ok();
    }
}
