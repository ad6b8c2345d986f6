//! Deterministic crash injection for the build, merge and ingest
//! pipelines: the kill points the fault-injection harnesses
//! (`tests/crash_resume.rs`, `tests/probe_selfmerge.rs`) sweep.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::IndexError;

/// The error every injected crash surfaces as (an interrupted-IO error with
/// this message). [`KillPoints::fired`] is the reliable signal; the message
/// is for humans reading a sweep failure.
pub const INJECTED_CRASH: &str = "injected crash (kill point)";

/// Deterministic crash injector for the build, merge and ingest pipelines.
///
/// The pipelines call `KillPoints::checkpoint` immediately before and
/// after every index's `meta.json` (each run's and the merged output's),
/// after each merged function's file commits and around ingest's
/// publications, and `KillPoints::io_point` at fine-grained IO steps (per
/// run file, per list merged). Each call bumps the matching counter; when
/// a counter reaches the configured kill value the call returns an
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
