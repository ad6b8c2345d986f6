//! Build journal: crash-safe progress manifests for long-running index
//! construction, plus the deterministic kill-point injector the
//! fault-injection harness drives.
//!
//! External builds and merges are the longest-running operations in the
//! system — hours on a Pile-scale corpus — and used to be all-or-nothing: a
//! crash lost every spilled partition. The journal records, per phase, the
//! units of work that are durably complete:
//!
//! * **spill phase** — the number of corpus batches whose records are fully
//!   on disk, together with the byte length of every spill file at that
//!   checkpoint. Resume truncates each spill file back to the recorded
//!   length (discarding the in-flight batch's partial appends) and
//!   continues with the next batch, so the spill bytes end up identical to
//!   an uninterrupted run.
//! * **aggregation / merge phase** — the set of hash functions whose final
//!   `inv_<f>.ndsi` has been committed (the file writers publish through
//!   [`ndss_durable::AtomicFile`], so a committed function is a complete,
//!   checksummed artifact). Resume skips committed functions and re-runs
//!   the in-flight one from its intact spill partitions (or input shards).
//!
//! The journal itself is a self-checksummed record (`record.rs`):
//! published atomically with a CRC-32C over its own serialization, so a
//! crash mid-checkpoint leaves the *previous* valid journal, never a torn
//! one, and external corruption is detected rather than silently resumed
//! from.
//!
//! A journal is only honoured when its **fingerprint** — a digest of the
//! index configuration (including corpus dimensions) and the builder
//! parameters that shape the on-disk spill layout — matches the resuming
//! build. Anything else changed means the recorded progress describes a
//! different build, and resume refuses rather than guessing.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ndss_json::{Json, ObjectBuilder};

use crate::{gc, record, IndexError};

/// File name of the build/merge journal inside the output directory.
pub const JOURNAL_FILE: &str = "build.journal";

/// Which pipeline wrote the journal. Resuming a merge with `ndss index
/// --resume` (or vice versa) is a state mismatch, not a continuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalKind {
    /// External (out-of-core) index build.
    ExternalBuild,
    /// K-way shard merge.
    Merge,
}

impl JournalKind {
    fn as_str(self) -> &'static str {
        match self {
            JournalKind::ExternalBuild => "external_build",
            JournalKind::Merge => "merge",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "external_build" => Some(JournalKind::ExternalBuild),
            "merge" => Some(JournalKind::Merge),
            _ => None,
        }
    }

    /// How refusals name this pipeline.
    fn noun(self) -> &'static str {
        match self {
            JournalKind::ExternalBuild => "an external build",
            JournalKind::Merge => "a merge",
        }
    }
}

/// Progress manifest of one external build or merge. See the module docs
/// for the resume semantics of each field.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildJournal {
    /// Which pipeline this journal belongs to.
    pub kind: JournalKind,
    /// Digest of configuration + builder parameters + corpus dimensions;
    /// resume requires an exact match.
    pub fingerprint: u64,
    /// Corpus batches whose spill records are durably on disk.
    pub batches_done: u64,
    /// Byte length of every level-0 spill file at the last completed batch,
    /// flattened as `[func * fanout + partition]`. Empty for merges.
    pub spill_lens: Vec<u64>,
    /// The spill phase is complete (no further truncation needed).
    pub spill_done: bool,
    /// Hash functions whose final index file has been committed.
    pub funcs_done: BTreeSet<usize>,
}

impl BuildJournal {
    /// A fresh journal with no recorded progress.
    pub fn new(kind: JournalKind, fingerprint: u64) -> Self {
        Self {
            kind,
            fingerprint,
            batches_done: 0,
            spill_lens: Vec::new(),
            spill_done: false,
            funcs_done: BTreeSet::new(),
        }
    }

    /// The journal a run of `kind` into `dir` starts from. A fresh run
    /// (`resume` off) owns the directory: residue of crashed runs is swept
    /// instead of accumulating, and the journal is empty. A resumed run
    /// continues from the journal on disk — refused when it belongs to the
    /// other pipeline or its fingerprint differs — and degrades to a fresh
    /// journal when there is none (the crash predated the first checkpoint,
    /// or the run never started).
    pub(crate) fn begin(
        dir: &Path,
        kind: JournalKind,
        fingerprint: u64,
        resume: bool,
    ) -> Result<Self, IndexError> {
        if !resume {
            let removed = gc::sweep_build_residue(dir) + gc::sweep_atomic_temps(dir);
            if removed > 0 {
                gc::gc_counter().inc(removed);
            }
            return Ok(Self::new(kind, fingerprint));
        }
        let Some(loaded) = Self::load(dir)? else {
            return Ok(Self::new(kind, fingerprint));
        };
        if loaded.kind != kind {
            return Err(IndexError::Malformed(format!(
                "{}: journal belongs to {}, not {}",
                dir.display(),
                loaded.kind.noun(),
                kind.noun()
            )));
        }
        if loaded.fingerprint != fingerprint {
            let written = match kind {
                JournalKind::ExternalBuild => "by a different configuration or corpus",
                JournalKind::Merge => "for different merge inputs",
            };
            return Err(IndexError::Malformed(format!(
                "{}: journal was written {written}; re-run without --resume to start over",
                dir.display()
            )));
        }
        Ok(loaded)
    }

    /// Path of the journal inside output directory `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Atomically publishes the journal to `dir` (temp file, fsync, rename,
    /// directory sync). A crash during `save` leaves the previous journal.
    pub fn save(&self, dir: &Path) -> Result<(), IndexError> {
        let payload = ObjectBuilder::new()
            .field("kind", Json::Str(self.kind.as_str().to_string()))
            .field("fingerprint", Json::UInt(self.fingerprint))
            .field("batches_done", Json::UInt(self.batches_done))
            .field(
                "spill_lens",
                Json::Array(self.spill_lens.iter().map(|&l| Json::UInt(l)).collect()),
            )
            .field("spill_done", Json::Bool(self.spill_done))
            .field(
                "funcs_done",
                Json::Array(
                    self.funcs_done
                        .iter()
                        .map(|&f| Json::UInt(f as u64))
                        .collect(),
                ),
            )
            .build();
        record::save(&Self::path(dir), payload)
    }

    /// Loads the journal from `dir`. Returns `Ok(None)` when no journal
    /// exists; a present-but-corrupt journal (bad JSON, CRC mismatch,
    /// unknown kind) is an error — resuming from it would be guessing.
    pub fn load(dir: &Path) -> Result<Option<Self>, IndexError> {
        let path = Self::path(dir);
        let Some(doc) = record::load(&path)? else {
            return Ok(None);
        };
        let malformed = |what: &str| IndexError::Malformed(format!("{}: {what}", path.display()));
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .and_then(JournalKind::parse)
            .ok_or_else(|| malformed("missing or unknown kind"))?;
        let uint = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| malformed(&format!("missing {key}")))
        };
        let spill_lens = doc
            .get("spill_lens")
            .and_then(Json::as_array)
            .ok_or_else(|| malformed("missing spill_lens"))?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| malformed("bad spill length")))
            .collect::<Result<Vec<u64>, _>>()?;
        let funcs_done = doc
            .get("funcs_done")
            .and_then(Json::as_array)
            .ok_or_else(|| malformed("missing funcs_done"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|f| f as usize)
                    .ok_or_else(|| malformed("bad function index"))
            })
            .collect::<Result<BTreeSet<usize>, _>>()?;
        Ok(Some(Self {
            kind,
            fingerprint: uint("fingerprint")?,
            batches_done: uint("batches_done")?,
            spill_lens,
            spill_done: doc
                .get("spill_done")
                .and_then(Json::as_bool)
                .ok_or_else(|| malformed("missing spill_done"))?,
            funcs_done,
        }))
    }

    /// Removes the journal file from `dir`, ignoring absence.
    pub fn remove(dir: &Path) -> std::io::Result<()> {
        match std::fs::remove_file(Self::path(dir)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// Digest of everything that shapes a build's on-disk progress layout.
/// Collision resistance at CRC strength is plenty: the fingerprint guards
/// against *accidental* mismatches (edited config, different corpus, other
/// builder knobs), not adversaries.
pub fn fingerprint(parts: &[&str]) -> u64 {
    let mut crc_a = 0u32;
    let mut crc_b = 0xFFFF_FFFFu32;
    let mut len = 0u64;
    for part in parts {
        crc_a = crc32c::crc32c_append(crc_a, part.as_bytes());
        // Second, differently-seeded stream widens the digest to 64 bits.
        crc_b = crc32c::crc32c_append(crc_b, part.as_bytes());
        crc_b = crc32c::crc32c_append(crc_b, &[0xA5]);
        len = len.wrapping_add(part.len() as u64);
    }
    ((crc_a as u64) << 32) | (crc_b as u64 ^ (len << 7)) as u32 as u64
}

/// The error every injected crash surfaces as (an interrupted-IO error with
/// this message). [`KillPoints::fired`] is the reliable signal; the message
/// is for humans reading a sweep failure.
pub const INJECTED_CRASH: &str = "injected crash (kill point)";

/// Deterministic crash injector for the build/merge pipelines.
///
/// The pipelines call `KillPoints::checkpoint` immediately before and
/// after every journal publication and `KillPoints::io_point` at
/// fine-grained IO steps (per text spilled, per partition aggregated, per
/// list merged). Each call bumps the matching counter; when a counter
/// reaches the configured kill value the call returns an
/// [`IndexError::Io`] carrying [`INJECTED_CRASH`] and the injector latches
/// [`KillPoints::fired`]. The error propagates like any other failure of
/// the pipeline: **no cleanup runs**, on-disk state is left as the crash
/// found it.
///
/// A counting pass (no kill configured) reports how many points a given
/// build exposes, which is what lets the harness sweep every one.
#[derive(Debug, Default)]
pub struct KillPoints {
    checkpoint_seen: AtomicU64,
    io_seen: AtomicU64,
    kill_checkpoint: Option<u64>,
    kill_io: Option<u64>,
    fired: AtomicBool,
}

impl KillPoints {
    /// An injector that never fires: use it to count the points a build
    /// exposes before sweeping them.
    pub fn count_only() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Crash at the `n`-th checkpoint call (0-based).
    pub fn at_checkpoint(n: u64) -> Arc<Self> {
        Arc::new(Self {
            kill_checkpoint: Some(n),
            ..Self::default()
        })
    }

    /// Crash at the `n`-th fine-grained IO call (0-based).
    pub fn at_io(n: u64) -> Arc<Self> {
        Arc::new(Self {
            kill_io: Some(n),
            ..Self::default()
        })
    }

    /// Checkpoint calls observed so far.
    pub fn checkpoints_seen(&self) -> u64 {
        self.checkpoint_seen.load(Ordering::Relaxed)
    }

    /// IO-point calls observed so far.
    pub fn io_seen(&self) -> u64 {
        self.io_seen.load(Ordering::Relaxed)
    }

    /// Whether an injected crash has fired — how a sweep harness tells its
    /// own crash from a real failure.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    fn crash(&self) -> IndexError {
        self.fired.store(true, Ordering::Relaxed);
        IndexError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            INJECTED_CRASH,
        ))
    }

    pub(crate) fn checkpoint(&self) -> Result<(), IndexError> {
        let n = self.checkpoint_seen.fetch_add(1, Ordering::Relaxed);
        if self.kill_checkpoint == Some(n) {
            return Err(self.crash());
        }
        Ok(())
    }

    pub(crate) fn io_point(&self) -> Result<(), IndexError> {
        let n = self.io_seen.fetch_add(1, Ordering::Relaxed);
        if self.kill_io == Some(n) {
            return Err(self.crash());
        }
        Ok(())
    }
}

/// Optional injector handle threaded through the builders: `None` costs one
/// branch per point.
pub(crate) fn tick_checkpoint(kill: &Option<Arc<KillPoints>>) -> Result<(), IndexError> {
    match kill {
        Some(kp) => kp.checkpoint(),
        None => Ok(()),
    }
}

pub(crate) fn tick_io(kill: &Option<Arc<KillPoints>>) -> Result<(), IndexError> {
    match kill {
        Some(kp) => kp.io_point(),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = crate::tests::test_root("ndss_journal_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_roundtrips() {
        let dir = temp_dir("roundtrip");
        let mut j = BuildJournal::new(JournalKind::ExternalBuild, 0xDEAD_BEEF_CAFE);
        j.batches_done = 3;
        j.spill_lens = vec![0, 24, 480, 96];
        j.funcs_done.insert(0);
        j.funcs_done.insert(2);
        j.save(&dir).unwrap();
        let back = BuildJournal::load(&dir).unwrap().unwrap();
        assert_eq!(back, j);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absent_journal_is_none() {
        let dir = temp_dir("absent");
        assert!(BuildJournal::load(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_journal_is_rejected() {
        let dir = temp_dir("corrupt");
        let j = BuildJournal::new(JournalKind::Merge, 7);
        j.save(&dir).unwrap();
        let path = BuildJournal::path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the payload (not whitespace) and expect a CRC
        // rejection.
        let pos = bytes.iter().position(|&b| b == b'7').unwrap();
        bytes[pos] = b'8';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            BuildJournal::load(&dir),
            Err(IndexError::Malformed(_))
        ));
        // Truncation is also rejected, not resumed from.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(BuildJournal::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_distinguishes_inputs() {
        let a = fingerprint(&["config-a", "64"]);
        let b = fingerprint(&["config-b", "64"]);
        let c = fingerprint(&["config-a", "65"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, fingerprint(&["config-a", "64"]));
    }

    #[test]
    fn kill_points_fire_once_at_configured_index() {
        let kp = KillPoints::at_checkpoint(2);
        assert!(kp.checkpoint().is_ok());
        assert!(kp.checkpoint().is_ok());
        assert!(!kp.fired());
        let err = kp.checkpoint().unwrap_err();
        assert!(err.to_string().contains("injected crash"));
        assert!(kp.fired());
        // Past the kill index the injector stays quiet (the build is
        // already dead in a real sweep).
        assert!(kp.checkpoint().is_ok());
        assert_eq!(kp.checkpoints_seen(), 4);
    }
}
