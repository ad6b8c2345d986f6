//! Build journal: crash-safe progress manifest of an external build, plus
//! the deterministic kill-point injector the fault-injection harness
//! drives.
//!
//! An external (out-of-core) build is the longest-running operation in the
//! system — hours on a Pile-scale corpus — and the one job whose progress
//! is worth keeping: it ends in a k-way merge of the runs it wrote under
//! `tmp_spill/` (see [`crate::build`]), and the journal records that
//! merge's units of work that are durably complete: the set of hash
//! functions whose final `inv_<f>.ndsi` has been committed (the file
//! writers publish through [`ndss_durable::AtomicFile`], so a committed
//! function is a complete, checksummed artifact). Resume skips committed
//! functions and re-merges the rest from the runs, which a merge never
//! modifies. Any other merge (`ndss merge`, an ingest tail merge) reads
//! published inputs, so it writes no journal and is redone after a crash
//! (`merge.rs`); a journal a merge wrote before that rule is refused by
//! name.
//!
//! The runs need no journal entry: a run is an index directory published
//! by its `meta.json`, last, so resume keeps a run whose `meta.json` is
//! there and rewrites one whose is not. What the journal adds for them is
//! the fingerprint — it is saved before the first run is written, so runs
//! found beside a matching journal were cut from the same corpus with the
//! same budget.
//!
//! The journal itself is a self-checksummed record (`record.rs`):
//! published atomically with a CRC-32C over its own serialization, so a
//! crash mid-checkpoint leaves the *previous* valid journal, never a torn
//! one, and external corruption is detected rather than silently resumed
//! from.
//!
//! A journal is only honoured when its **fingerprint** — a digest of the
//! index configuration (including corpus dimensions) and the memory budget
//! that cuts the runs — matches the resuming build. Anything else changed
//! means the recorded progress describes a different build, and resume
//! refuses rather than guessing.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ndss_json::{Json, ObjectBuilder};

use crate::{gc, record, IndexError};

/// File name of the build journal inside the output directory.
pub const JOURNAL_FILE: &str = "build.journal";

/// The `kind` every journal carries: the pipeline that resumes from it.
const KIND: &str = "external_build";

/// Progress manifest of one external build. See the module docs for the
/// resume semantics of each field.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildJournal {
    /// Digest of configuration + builder parameters + corpus dimensions;
    /// resume requires an exact match.
    pub fingerprint: u64,
    /// Hash functions whose final index file has been committed.
    pub funcs_done: BTreeSet<usize>,
}

impl BuildJournal {
    /// A fresh journal with no recorded progress.
    pub fn new(fingerprint: u64) -> Self {
        Self {
            fingerprint,
            funcs_done: BTreeSet::new(),
        }
    }

    /// The journal a build into `dir` starts from. A resumed build
    /// continues from the journal on disk — refused when its fingerprint
    /// differs. A fresh build (`resume` off, or no journal to resume: the
    /// crash predated the first checkpoint, or the build never started)
    /// owns the directory: residue of crashed builds — which no journal
    /// vouches for — is swept instead of accumulating, and the journal is
    /// empty.
    pub(crate) fn begin(dir: &Path, fingerprint: u64, resume: bool) -> Result<Self, IndexError> {
        let loaded = if resume { Self::load(dir)? } else { None };
        let Some(loaded) = loaded else {
            gc::gc_counter().inc(gc::sweep_build_residue(dir) + gc::sweep_atomic_temps(dir));
            return Ok(Self::new(fingerprint));
        };
        if loaded.fingerprint != fingerprint {
            return Err(IndexError::Malformed(format!(
                "{}: journal was written by a different configuration or corpus; \
                 re-run without --resume to start over",
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
            .field("kind", Json::Str(KIND.to_string()))
            .field("fingerprint", Json::UInt(self.fingerprint))
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

    /// [`Self::save`] between two checkpoints of `kill`: the crash sites
    /// "journal not yet advanced" and "journal advanced, nothing after".
    pub(crate) fn checkpoint(
        &self,
        dir: &Path,
        kill: &Option<Arc<KillPoints>>,
    ) -> Result<(), IndexError> {
        tick_checkpoint(kill)?;
        self.save(dir)?;
        tick_checkpoint(kill)
    }

    /// Loads the journal from `dir`. Returns `Ok(None)` when no journal
    /// exists; a present-but-corrupt journal (bad JSON, CRC mismatch,
    /// unknown kind, a field this version does not write) is an error —
    /// resuming from it would be guessing. So is a merge's journal, written
    /// before merges were redone rather than resumed.
    pub fn load(dir: &Path) -> Result<Option<Self>, IndexError> {
        let path = Self::path(dir);
        let Some(doc) = record::load(&path)? else {
            return Ok(None);
        };
        let malformed = |what: &str| IndexError::Malformed(format!("{}: {what}", path.display()));
        match doc.get("kind").and_then(Json::as_str) {
            Some(KIND) => {}
            Some("merge") => return Err(malformed("a merge's journal: merges are redone")),
            _ => return Err(malformed("missing or unknown kind")),
        }
        // A journal of the spill-file builder carries progress this one
        // cannot continue from; half-reading it would resume a build whose
        // inputs are not there.
        if let Json::Object(fields) = &doc {
            let known = ["kind", "fingerprint", "funcs_done", "crc"];
            if let Some((key, _)) = fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
                return Err(malformed(&format!("unknown field {key}")));
            }
        }
        let fingerprint = doc
            .get("fingerprint")
            .and_then(Json::as_u64)
            .ok_or_else(|| malformed("missing fingerprint"))?;
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
            fingerprint,
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
/// against *accidental* mismatches (edited config, different corpus, another
/// memory budget), not adversaries.
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

/// Deterministic crash injector for the build, merge and ingest pipelines.
///
/// The pipelines call `KillPoints::checkpoint` immediately before and
/// after every journal publication and every run's `meta.json`, after each
/// merged function's file commits, and
/// `KillPoints::io_point` at fine-grained IO steps (per run file, per list
/// merged). Each call bumps the matching counter; when a counter
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

/// Worker threads of a build or merge: one with an injector installed, so
/// crash site `n` names one on-disk state.
pub(crate) fn threads_under(kill: &Option<Arc<KillPoints>>, threads: usize) -> usize {
    if kill.is_some() {
        1
    } else {
        threads
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
        let mut j = BuildJournal::new(0xDEAD_BEEF_CAFE);
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
        let j = BuildJournal::new(7);
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

    /// A journal of the deleted spill-file builder — valid CRC, plus any of
    /// the three progress keys that builder wrote (spelled in halves so a
    /// search for the deleted names finds nothing) — is refused whole.
    #[test]
    fn journal_with_a_field_this_version_does_not_write_is_rejected() {
        let dir = temp_dir("old_keys");
        for halves in [["batches", "done"], ["spill", "lens"], ["spill", "done"]] {
            let key = halves.join("_");
            let payload = ObjectBuilder::new()
                .field("kind", Json::Str("external_build".to_string()))
                .field("fingerprint", Json::UInt(7))
                .field(&key, Json::UInt(2))
                .field("funcs_done", Json::Array(Vec::new()))
                .build();
            record::save(&BuildJournal::path(&dir), payload).unwrap();
            let err = BuildJournal::load(&dir).unwrap_err();
            assert!(
                matches!(&err, IndexError::Malformed(m) if m.contains(&key)),
                "{key}: {err}"
            );
            let begun = BuildJournal::begin(&dir, 7, true);
            assert!(begun.is_err(), "{key}: resume must not half-read it");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal a merge wrote before merges were redone — valid CRC, kind
    /// `merge` — is refused by name, never resumed from.
    #[test]
    fn a_merge_journal_is_refused_by_name() {
        let dir = temp_dir("merge_kind");
        let payload = ObjectBuilder::new()
            .field("kind", Json::Str("merge".to_string()))
            .field("fingerprint", Json::UInt(7))
            .field("funcs_done", Json::Array(vec![Json::UInt(0)]))
            .build();
        record::save(&BuildJournal::path(&dir), payload).unwrap();
        let err = BuildJournal::begin(&dir, 7, true).unwrap_err();
        assert!(
            matches!(&err, IndexError::Malformed(m) if m.contains("merges are redone")),
            "{err}"
        );
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
