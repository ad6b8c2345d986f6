//! The store: one checksummed `MANIFEST` naming an ordered list of
//! immutable index segments over contiguous text-id ranges (DESIGN.md §7).
//!
//! ```text
//! store/
//! ├── MANIFEST     ← view generation, serving segment list, last `keep` lists
//! ├── seg-0002/    ← texts [0, 512)      ┐ the serving list
//! ├── seg-0003/    ← texts [512, 1024)   ┘
//! ├── seg-0001/    ← named only by a retained list (rollback)
//! └── memtable/    ← ingest's WAL-backed tail (`ingest.rs`)
//! ```
//!
//! A segment is a plain index directory, allocated as max + 1 and never
//! written again once published; a plain index directory is a one-segment
//! store with an implicit manifest ([`resolve_segments`] has one branch).
//! [`Store::publish`] verifies every segment the serving list does not
//! already name, writes the `MANIFEST` once with
//! [`ndss_durable::write_atomic`] (readers see the old list or the new
//! one), then deletes every `seg-*` no retained list names unless it holds
//! a `tmp_spill/`: an external build's runs, which `--resume` keeps (an
//! interrupted merge's target is collected). An open deletes none, because
//! an interrupted build resumes into them. [`Store::rollback`] serves the
//! newest retained list again. The layouts this replaced — a `CURRENT`
//! pointer over `gen-NNNN/`, a version-1 `MANIFEST` over `shard-NNNN/` —
//! are refused by name and left untouched.

use std::path::{Path, PathBuf};

use ndss_corpus::TextId;
use ndss_json::{Json, ObjectBuilder};

use crate::build::SPILL_DIR;
use crate::{gc, record, DiskIndex, IndexAccess, IndexError};

/// File in the store root holding the manifest.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Manifest format version this build reads and writes.
pub const MANIFEST_VERSION: u64 = 2;

/// Directory name for segment `n`.
pub fn segment_name(n: u64) -> String {
    format!("seg-{n:04}")
}

/// Parses `seg-NNNN` (≥ 4 digits, no other decoration) to its number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?;
    let well_formed = digits.len() >= 4 && digits.bytes().all(|b| b.is_ascii_digit());
    well_formed.then(|| digits.parse().ok())?
}

/// One row of a segment list: the directory and the text-id range it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Directory name under the store root (`seg-NNNN`).
    pub dir: String,
    /// First global text id in the segment.
    pub first_text: TextId,
    /// Number of texts in the segment.
    pub num_texts: u64,
}

/// The checksummed manifest. `Default` is the empty store before its first
/// publish (generation 0, no segments).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// View generation, bumped once per publish or rollback.
    pub generation: u64,
    /// The serving list, ascending by `first_text`, tiling `[0, N)`.
    pub segments: Vec<Segment>,
    /// Previous lists, newest first, for rollback.
    pub retained: Vec<Vec<Segment>>,
}

impl Manifest {
    /// Total texts in the serving list.
    pub fn num_texts(&self) -> u64 {
        self.segments.iter().map(|s| s.num_texts).sum()
    }

    /// The serving list's directory names, in text order.
    pub fn dirs(&self) -> Vec<String> {
        self.segments.iter().map(|s| s.dir.clone()).collect()
    }

    /// Whether any list — serving or retained — names `dir`.
    pub(crate) fn names(&self, dir: &str) -> bool {
        std::iter::once(&self.segments)
            .chain(&self.retained)
            .flatten()
            .any(|s| s.dir == dir)
    }

    /// Re-verifies serving segment `i` of the store at `root`: opens it,
    /// checks it indexes the texts its row assigns, and walks every
    /// checksum. Returns the opened index.
    pub fn verify_segment(&self, root: &Path, i: usize) -> Result<DiskIndex, IndexError> {
        let seg = self
            .segments
            .get(i)
            .ok_or_else(|| IndexError::Malformed(format!("{}: no segment {i}", root.display())))?;
        verify_segment(&root.join(&seg.dir), Some(seg.num_texts))
    }

    fn save(&self, root: &Path) -> Result<(), IndexError> {
        let list = |segments: &[Segment]| {
            Json::Array(
                segments
                    .iter()
                    .map(|s| {
                        ObjectBuilder::new()
                            .field("dir", Json::Str(s.dir.clone()))
                            .field("first_text", Json::UInt(s.first_text as u64))
                            .field("num_texts", Json::UInt(s.num_texts))
                            .build()
                    })
                    .collect(),
            )
        };
        let payload = ObjectBuilder::new()
            .field("version", Json::UInt(MANIFEST_VERSION))
            .field("generation", Json::UInt(self.generation))
            .field("segments", list(&self.segments))
            .field(
                "retained",
                Json::Array(self.retained.iter().map(|l| list(l)).collect()),
            )
            .build();
        record::save(&root.join(MANIFEST_FILE), payload)
    }

    /// Loads the manifest of `root`: `Ok(None)` when there is none (a
    /// plain index directory, or a store before its first publish). A
    /// corrupt or incoherent manifest is an error — serving from it would
    /// be guessing which texts live where — and so is an old layout.
    pub fn load(root: &Path) -> Result<Option<Self>, IndexError> {
        let old_layout = |what: &str| {
            let rebuild = "this layout is no longer read; rebuild it with `ndss index --store`";
            IndexError::Malformed(format!("{}: {what}; {rebuild}", root.display()))
        };
        if root.join("CURRENT").exists() {
            return Err(old_layout(
                "a generation store (CURRENT pointer over gen-NNNN/)",
            ));
        }
        let path = root.join(MANIFEST_FILE);
        let Some(doc) = record::load(&path)? else {
            return Ok(None);
        };
        let malformed = |what: &str| IndexError::Malformed(format!("{}: {what}", path.display()));
        let uint = |doc: &Json, key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| malformed(&format!("missing {key}")))
        };
        match uint(&doc, "version")? {
            MANIFEST_VERSION => {}
            1 => {
                return Err(old_layout(
                    "a version-1 sharded store (MANIFEST over shard-NNNN/)",
                ))
            }
            v => return Err(malformed(&format!("unsupported manifest version {v}"))),
        }
        // Rows must tile [0, N) in order: anything else means two segments
        // claim a text or a text has no home.
        let list = |raw: &Json| -> Result<Vec<Segment>, IndexError> {
            let rows = raw
                .as_array()
                .filter(|rows| !rows.is_empty())
                .ok_or_else(|| malformed("a segment list is empty or not a list"))?;
            let mut next = 0u64;
            rows.iter()
                .map(|row| {
                    let dir = row
                        .get("dir")
                        .and_then(Json::as_str)
                        .filter(|d| parse_segment_name(d).is_some())
                        .ok_or_else(|| malformed("segment row without a seg-NNNN dir"))?;
                    let (first, len) = (uint(row, "first_text")?, uint(row, "num_texts")?);
                    if first != next || first > TextId::MAX as u64 {
                        return Err(malformed(&format!(
                            "{dir} starts at text {first}, expected {next}"
                        )));
                    }
                    next = first + len;
                    Ok(Segment {
                        dir: dir.to_string(),
                        first_text: first as TextId,
                        num_texts: len,
                    })
                })
                .collect()
        };
        let segments = list(doc.get("segments").unwrap_or(&Json::Null))?;
        let retained = doc
            .get("retained")
            .and_then(Json::as_array)
            .ok_or_else(|| malformed("missing retained"))?
            .iter()
            .map(list)
            .collect::<Result<_, _>>()?;
        Ok(Some(Manifest {
            generation: uint(&doc, "generation")?,
            segments,
            retained,
        }))
    }
}

/// Opens the index directory `dir`, checks it indexes `expect` texts (when
/// given), and walks every checksum. Errors name the directory.
pub fn verify_segment(dir: &Path, expect: Option<u64>) -> Result<DiskIndex, IndexError> {
    let named = |e: String| IndexError::Malformed(format!("{}: {e}", dir.display()));
    let index = DiskIndex::open(dir).map_err(|e| named(e.to_string()))?;
    let texts = index.config().num_texts as u64;
    if let Some(expect) = expect.filter(|&n| n != texts) {
        return Err(named(format!(
            "indexes {texts} texts, the manifest says {expect}"
        )));
    }
    index.verify_integrity().map_err(|e| named(e.to_string()))?;
    Ok(index)
}

/// What a store path names: each segment's first global text id and
/// directory, in list order, plus the view generation (`None` for a plain
/// index directory).
pub type ViewIdentity = (Vec<(TextId, PathBuf)>, Option<u64>);

/// What `path` serves. With a `MANIFEST` that is its serving list; without
/// one `path` is a plain index directory — one segment at 0, no
/// generation. Opens no index.
pub fn resolve_segments(path: &Path) -> Result<ViewIdentity, IndexError> {
    Ok(match Manifest::load(path)? {
        Some(m) => (
            m.segments
                .iter()
                .map(|s| (s.first_text, path.join(&s.dir)))
                .collect(),
            Some(m.generation),
        ),
        None => (vec![(0, path.to_path_buf())], None),
    })
}

/// The one index directory `path` names: the segment of a one-segment
/// store, otherwise `path` itself (so opening a multi-segment store as one
/// index fails instead of answering for part of it).
pub fn resolve_index_dir(path: &Path) -> PathBuf {
    match resolve_segments(path) {
        Ok((mut dirs, Some(_))) if dirs.len() == 1 => dirs.remove(0).1,
        _ => path.to_path_buf(),
    }
}

/// A store rooted at one directory; see the module docs. The handle holds
/// no state besides the root: every operation reads the `MANIFEST` afresh,
/// so any number of handles agree.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store at `root`, refusing an old
    /// layout before anything in it is touched, then sweeps stray
    /// atomic-write temps and trimmed memtable residue.
    pub fn open(root: &Path) -> Result<Self, IndexError> {
        std::fs::create_dir_all(root)?;
        Manifest::load(root)?;
        let removed = gc::sweep_atomic_temps(root) + gc::sweep_memtable(root);
        if removed > 0 {
            gc::gc_counter().inc(removed);
        }
        Ok(Store {
            root: root.to_path_buf(),
        })
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The manifest on disk now (the empty one before the first publish).
    pub fn manifest(&self) -> Result<Manifest, IndexError> {
        Ok(Manifest::load(&self.root)?.unwrap_or_default())
    }

    /// Every `seg-NNNN` directory on disk, ascending by number.
    fn segment_dirs(&self) -> Result<Vec<(u64, String)>, IndexError> {
        let mut dirs = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(n) = parse_segment_name(&name).filter(|_| entry.path().is_dir()) {
                dirs.push((n, name));
            }
        }
        dirs.sort();
        Ok(dirs)
    }

    /// Creates the next segment directory (max + 1) and returns its name.
    pub fn allocate(&self) -> Result<String, IndexError> {
        let name = segment_name(self.segment_dirs()?.last().map_or(0, |(n, _)| n + 1));
        std::fs::create_dir_all(self.root.join(&name))?;
        Ok(name)
    }

    /// Segment directories no list names, ascending: what an interrupted
    /// build left, or a segment built to be published by name.
    pub fn unpublished(&self) -> Result<Vec<String>, IndexError> {
        let manifest = self.manifest()?;
        Ok(self
            .segment_dirs()?
            .into_iter()
            .map(|(_, name)| name)
            .filter(|name| !manifest.names(name))
            .collect())
    }

    /// Publishes `dirs` (segment directory names, in text order) as the
    /// serving list and retains the `keep` newest previous lists. Every
    /// segment the current list does not name is verified first; a failure
    /// leaves the `MANIFEST` untouched. Returns the new manifest.
    pub fn publish<S: AsRef<str>>(&self, dirs: &[S], keep: usize) -> Result<Manifest, IndexError> {
        let old = self.manifest()?;
        if dirs.is_empty() {
            return Err(IndexError::Malformed("publish needs a segment".into()));
        }
        let mut segments: Vec<Segment> = Vec::with_capacity(dirs.len());
        let mut first = 0u64;
        for dir in dirs.iter().map(AsRef::as_ref) {
            let listed = segments.iter().any(|s| s.dir == dir);
            if listed || parse_segment_name(dir).is_none() || first > TextId::MAX as u64 {
                let what = format!("cannot publish {dir:?} at text {first}");
                return Err(IndexError::Malformed(what));
            }
            let num_texts = match old.segments.iter().find(|s| s.dir == dir) {
                Some(s) => s.num_texts,
                None => {
                    verify_segment(&self.root.join(dir), None)?
                        .config()
                        .num_texts as u64
                }
            };
            segments.push(Segment {
                dir: dir.to_string(),
                first_text: first as TextId,
                num_texts,
            });
            first += num_texts;
        }
        let mut retained = old.retained;
        if !old.segments.is_empty() {
            retained.insert(0, old.segments);
        }
        retained.truncate(keep);
        self.commit(old.generation, segments, retained)
    }

    /// Serves the newest retained list again, as a new generation, after
    /// re-verifying each of its segments (one may have rotted since it
    /// served). The list it replaces becomes the newest retained one, so a
    /// second rollback undoes the first. Fails, with the `MANIFEST`
    /// untouched, when nothing is retained.
    pub fn rollback(&self) -> Result<Manifest, IndexError> {
        let old = self.manifest()?;
        let mut retained = old.retained;
        let Some(target) = retained.first().cloned() else {
            let what = format!("{}: no retained list to roll back to", self.root.display());
            return Err(IndexError::Malformed(what));
        };
        for seg in &target {
            verify_segment(&self.root.join(&seg.dir), Some(seg.num_texts))?;
        }
        retained[0] = old.segments;
        self.commit(old.generation, target, retained)
    }

    /// Writes generation `previous + 1` — `segments` serving, `retained`
    /// kept — then deletes every segment no list names, unless it holds an
    /// interrupted external build's runs.
    fn commit(
        &self,
        previous: u64,
        segments: Vec<Segment>,
        retained: Vec<Vec<Segment>>,
    ) -> Result<Manifest, IndexError> {
        let manifest = Manifest {
            generation: previous + 1,
            segments,
            retained,
        };
        manifest.save(&self.root)?;
        let mut removed = 0;
        for (_, name) in self.segment_dirs()? {
            let dir = self.root.join(&name);
            if !manifest.names(&name) && !dir.join(SPILL_DIR).is_dir() {
                removed += gc::remove_dir_counting(&dir);
            }
        }
        if removed > 0 {
            gc::gc_counter().inc(removed);
        }
        Ok(manifest)
    }

    /// Re-verifies every serving segment ([`Manifest::verify_segment`]);
    /// the first failure is returned.
    pub fn verify(&self) -> Result<Manifest, IndexError> {
        let manifest = self.manifest()?;
        (0..manifest.segments.len())
            .try_for_each(|i| manifest.verify_segment(&self.root, i).map(drop))?;
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> PathBuf {
        let dir = crate::tests::test_root("ndss_store_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_name(0), "seg-0000");
        assert_eq!(segment_name(12345), "seg-12345");
        assert_eq!(parse_segment_name("seg-0007"), Some(7));
        assert_eq!(parse_segment_name("seg-12345"), Some(12345));
        assert_eq!(parse_segment_name("seg-07"), None);
        assert_eq!(parse_segment_name("seg-00x7"), None);
        assert_eq!(parse_segment_name("gen-0007"), None);
    }

    #[test]
    fn allocate_is_monotonic_and_open_keeps_unpublished_segments() {
        let root = temp_store("allocate");
        let store = Store::open(&root).unwrap();
        assert_eq!(store.allocate().unwrap(), "seg-0000");
        assert_eq!(store.allocate().unwrap(), "seg-0001");
        let store = Store::open(&root).unwrap();
        assert_eq!(store.unpublished().unwrap(), ["seg-0000", "seg-0001"]);
        assert_eq!(store.manifest().unwrap(), Manifest::default());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let root = temp_store("manifest");
        let row = |dir: &str, first_text, num_texts| Segment {
            dir: dir.into(),
            first_text,
            num_texts,
        };
        let manifest = Manifest {
            generation: 3,
            segments: vec![row("seg-0002", 0, 5), row("seg-0003", 5, 5)],
            retained: vec![vec![row("seg-0001", 0, 10)]],
        };
        manifest.save(&root).unwrap();
        assert_eq!(Manifest::load(&root).unwrap().unwrap(), manifest);

        let path = root.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(Manifest::load(&root).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn resolve_maps_a_store_to_its_segments() {
        let root = temp_store("resolve");
        let row = |dir: &str, first_text| Segment {
            dir: dir.into(),
            first_text,
            num_texts: 5,
        };
        // A plain directory resolves to itself, with no generation.
        assert_eq!(
            resolve_segments(&root).unwrap(),
            (vec![(0, root.clone())], None)
        );
        assert_eq!(resolve_index_dir(&root), root);
        let mut manifest = Manifest {
            generation: 2,
            segments: vec![row("seg-0004", 0)],
            retained: Vec::new(),
        };
        manifest.save(&root).unwrap();
        assert_eq!(resolve_index_dir(&root), root.join("seg-0004"));
        manifest.segments.push(row("seg-0005", 5));
        manifest.save(&root).unwrap();
        let (dirs, generation) = resolve_segments(&root).unwrap();
        assert_eq!(generation, Some(2));
        assert_eq!(
            dirs,
            [(0, root.join("seg-0004")), (5, root.join("seg-0005"))]
        );
        // Two segments: no single directory answers for the store.
        assert_eq!(resolve_index_dir(&root), root);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_current_pointer_is_refused_by_name() {
        let root = temp_store("current");
        std::fs::write(root.join("CURRENT"), b"../../etc").unwrap();
        let err = Store::open(&root).unwrap_err().to_string();
        assert!(err.contains("a generation store (CURRENT pointer"), "{err}");
        assert!(resolve_segments(&root).is_err());
        // resolve_index_dir must not traverse out of the store either.
        assert_eq!(resolve_index_dir(&root), root);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn rows_must_tile_the_text_ids() {
        let root = temp_store("tiling");
        let manifest = Manifest {
            generation: 1,
            segments: vec![Segment {
                dir: "seg-0000".into(),
                first_text: 4,
                num_texts: 5,
            }],
            retained: Vec::new(),
        };
        manifest.save(&root).unwrap();
        assert!(Manifest::load(&root).is_err());
        std::fs::remove_dir_all(&root).ok();
    }
}
