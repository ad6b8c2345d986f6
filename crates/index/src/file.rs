//! Index files as borrowed byte ranges. [`IndexFile::bytes`] is the one way
//! an index byte is read: no cursor and no lock, so a shared file serves any
//! number of threads.
//!
//! Every index file is a private read-only `mmap(2)` of the whole file
//! (vendored binding, unix only), and a read borrows its range from the
//! mapping. Off unix, or where the map fails, the file is read whole at open
//! and ranges are borrowed from that buffer. A range outside the file is
//! `UnexpectedEof`. A memory read has no transient errors; nothing retries.
//!
//! Every read fault enters through one [`FaultPlan`], attached at open to
//! each file whose path contains its target; a tapped file is mapped like
//! any other. [`FaultPlan::arm`] switches every attached reader to a
//! [`FaultMode`] while queries are in flight, and the armed mode acts inside
//! `bytes`, once per read. (Write-side crashes are `kill.rs`'s `KillPoints`.)

use std::borrow::Cow;
use std::fs::File;
use std::io::{self, ErrorKind, Read};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::Arc;

/// How an armed [`FaultPlan`] makes the reads of its files fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultMode {
    /// Dormant: reads borrow their range untouched.
    Off,
    /// Every read fails `EINTR` at once: an interrupted device read.
    Storm,
    /// Every read returns its range XOR-flipped, as a copy: bit rot the
    /// layers above reject. The mapping itself is never written.
    Corrupt,
    /// Every read fails `UnexpectedEof`, as from a file truncated to nothing.
    Eof,
    /// Every read fails `EACCES`: a permission flip.
    Deny,
}

/// [`FaultMode`] by discriminant.
const MODES: [FaultMode; 5] = {
    use FaultMode::*;
    [Off, Storm, Corrupt, Eof, Deny]
};

#[derive(Debug)]
struct PlanState {
    target: String,
    mode: AtomicU8,
    injected: AtomicU64,
    attached: AtomicU64,
}

/// The read-fault injector: attached at open to every file whose path
/// contains `target` (`""` taps every file, `"seg-0001"` one segment's),
/// armed and disarmed while readers are live. Clones share one state, so
/// arming any clone arms every attached reader.
#[derive(Debug, Clone)]
pub struct FaultPlan(Arc<PlanState>);

impl FaultPlan {
    /// A plan that is [`FaultMode::Off`].
    pub fn new(target: &str) -> Self {
        Self(Arc::new(PlanState {
            target: target.to_owned(),
            mode: AtomicU8::new(FaultMode::Off as u8),
            injected: AtomicU64::new(0),
            attached: AtomicU64::new(0),
        }))
    }

    /// Switches every attached reader to `mode`, effective on its next read.
    pub fn arm(&self, mode: FaultMode) {
        self.0.mode.store(mode as u8, Relaxed);
    }

    /// Returns every attached reader to pass-through.
    pub fn disarm(&self) {
        self.arm(FaultMode::Off);
    }

    /// Faults injected across every attached reader since creation.
    pub fn injected(&self) -> u64 {
        self.0.injected.load(Relaxed)
    }

    /// Files this plan attached to at open time.
    pub fn attached(&self) -> u64 {
        self.0.attached.load(Relaxed)
    }

    /// The armed mode for one read, counted as an injection unless `Off`.
    fn take(&self) -> FaultMode {
        let mode = MODES[self.0.mode.load(Relaxed) as usize];
        if mode != FaultMode::Off {
            self.0.injected.fetch_add(1, Relaxed);
        }
        mode
    }
}

/// How index files are opened. `ReadOptions::default()` is the production
/// configuration: no fault plan. Every file is mapped either way.
#[derive(Debug, Clone, Default)]
pub struct ReadOptions {
    /// Read-fault injection (tests only), attached at open to the files the
    /// plan targets.
    pub faults: Option<FaultPlan>,
}

impl ReadOptions {
    /// Production defaults with a fault plan attached.
    pub fn with_faults(faults: FaultPlan) -> Self {
        Self {
            faults: Some(faults),
        }
    }

    /// The defaults: every file is mapped already. Kept only because the
    /// benchmark's `ledger/src/adapter.rs` still calls it; ROADMAP item 1(f)
    /// deletes that call and this function together.
    #[doc(hidden)]
    pub fn with_mmap() -> Self {
        Self::default()
    }
}

/// A private read-only memory map of an entire file, built on a vendored
/// `mmap(2)` binding (the environment has no external crates). The mapping
/// is immutable for this process; `munmap` runs on drop.
#[cfg(unix)]
mod mapped {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::ptr::null_mut;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    #[derive(Debug)]
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: `ptr` and `len` are written once, in `map`; the mapping is
    // read-only and owned until drop, so sharing `&Mmap` across threads
    // only ever reads the mapped bytes, and any thread may unmap it.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps the whole of `file`; `mmap(2)` refuses an empty one.
        pub fn map(file: &File) -> io::Result<Self> {
            let len = file.metadata()?.len();
            let len = usize::try_from(len).map_err(|_| io::ErrorKind::InvalidInput)?;
            // SAFETY: a fresh private read-only mapping of an open
            // descriptor at offset 0 aliases no Rust memory.
            let ptr = unsafe { mmap(null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { ptr, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live mapping of `len` readable bytes until
            // drop, and nothing writes through it. Published index files are
            // never written or truncated in place (DESIGN §12), which is what
            // keeps the bytes fixed for the borrow's lifetime.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: the mapping `map` created; no borrow of it outlives
            // `self`.
            unsafe { munmap(self.ptr, self.len) };
        }
    }
}

#[derive(Debug)]
enum Source {
    #[cfg(unix)]
    Mapped(mapped::Mmap),
    /// The whole file, read once at open: off unix, or where the map failed.
    Owned(Vec<u8>),
}

/// One open index file, read by borrowed ranges.
#[derive(Debug)]
pub struct IndexFile {
    source: Source,
    /// Present only when the open path matched an attached [`FaultPlan`].
    tap: Option<FaultPlan>,
}

impl IndexFile {
    /// Opens `path` under `options`: mapped, or owned where it cannot be.
    pub(crate) fn open(path: &Path, options: &ReadOptions) -> io::Result<Self> {
        Self::open_as(path, options, true)
    }

    /// [`Self::open`], mapping the file only when `map` is set; otherwise
    /// it is read whole, as a platform without `mmap` reads it (and as an
    /// empty file is, which cannot be mapped).
    pub(crate) fn open_as(path: &Path, options: &ReadOptions, map: bool) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let tap = options
            .faults
            .as_ref()
            .filter(|plan| path.to_string_lossy().contains(&plan.0.target))
            .cloned();
        if let Some(plan) = &tap {
            plan.0.attached.fetch_add(1, Relaxed);
        }
        #[cfg(unix)]
        if let Some(Ok(map)) = map.then(|| mapped::Mmap::map(&file)) {
            let source = Source::Mapped(map);
            return Ok(Self { source, tap });
        }
        #[cfg(not(unix))]
        let _ = map;
        let mut whole = Vec::new();
        file.read_to_end(&mut whole)?;
        let source = Source::Owned(whole);
        Ok(Self { source, tap })
    }

    fn all(&self) -> &[u8] {
        match &self.source {
            #[cfg(unix)]
            Source::Mapped(m) => m.as_slice(),
            Source::Owned(v) => v,
        }
    }

    /// File length in bytes at open.
    pub(crate) fn len(&self) -> u64 {
        self.all().len() as u64
    }

    /// File bytes `[offset, offset + len)`, borrowed; a copy only when an
    /// armed plan corrupts them. The armed mode acts once per call.
    pub(crate) fn bytes(&self, offset: u64, len: usize) -> io::Result<Cow<'_, [u8]>> {
        let at = usize::try_from(offset).ok();
        let range = at.and_then(|at| self.all().get(at..at.checked_add(len)?));
        let mode = self.tap.as_ref().map_or(FaultMode::Off, FaultPlan::take);
        let fault = |kind: ErrorKind| Err(io::Error::new(kind, format!("injected {mode:?} fault")));
        match (mode, range) {
            (FaultMode::Storm, _) => fault(ErrorKind::Interrupted),
            (FaultMode::Eof, _) => fault(ErrorKind::UnexpectedEof),
            (FaultMode::Deny, _) => fault(ErrorKind::PermissionDenied),
            (_, None) => Err(ErrorKind::UnexpectedEof.into()),
            (FaultMode::Corrupt, Some(r)) => Ok(Cow::Owned(r.iter().map(|b| b ^ 0xA5).collect())),
            (FaultMode::Off, Some(r)) => Ok(Cow::Borrowed(r)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::tests::{posting, write_file};
    use crate::container::{Encoding, Reader};
    use crate::{IndexError, IoStats};

    fn data_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = crate::tests::test_root("ndss_file");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// A plan on every file, and the options attaching it.
    fn tap_all() -> (FaultPlan, ReadOptions) {
        let plan = FaultPlan::new("");
        (plan.clone(), ReadOptions::with_faults(plan))
    }

    fn is_mapped(f: &IndexFile) -> bool {
        !matches!(f.source, Source::Owned(_))
    }

    #[test]
    fn reads_at_arbitrary_offsets() {
        let path = data_file("data.bin", &(0u8..=255).collect::<Vec<u8>>());
        let f = IndexFile::open(&path, &ReadOptions::default()).unwrap();
        assert_eq!(*f.bytes(10, 4).unwrap(), [10, 11, 12, 13]);
        // A second read at a lower offset works regardless of any cursor.
        assert_eq!(*f.bytes(0, 4).unwrap(), [0, 1, 2, 3]);
        // A range running past EOF errors instead of coming back short.
        assert!(f.bytes(254, 4).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_reads_see_consistent_bytes() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let path = data_file("concurrent.bin", &data);
        let f = IndexFile::open(&path, &ReadOptions::default()).unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let f = &f;
                let data = &data;
                s.spawn(move || {
                    for i in 0..200 {
                        let off = (t * 131 + i * 17) % (4096 - 64);
                        let got = f.bytes(off as u64, 64).unwrap();
                        assert_eq!(&got[..], &data[off..off + 64]);
                    }
                });
            }
        });
        std::fs::remove_file(&path).ok();
    }

    /// One read under an armed mode: it injects exactly once, whatever the
    /// range, and fails with the mode's own kind (`None`: `Corrupt`, which
    /// delivers the flipped bytes).
    fn read_once(plan: &FaultPlan, f: &IndexFile, mode: FaultMode, kind: Option<ErrorKind>) {
        for (offset, len) in [(0, 4096), (1500, 64), (4095, 1)] {
            let before = plan.injected();
            match (f.bytes(offset, len), kind) {
                (Err(e), Some(kind)) => assert_eq!(e.kind(), kind, "{mode:?}"),
                (Ok(got), None) => assert_eq!(*got, vec![0x55 ^ 0xA5; len]),
                (got, _) => panic!("{mode:?} at {offset}: {got:?}"),
            }
            assert_eq!(plan.injected(), before + 1, "{mode:?} at {offset}");
        }
    }

    /// A reader opened with the plan off works; once `Storm` is armed every
    /// read fails `Interrupted` after a single injection (nothing retries);
    /// disarming heals the same reader.
    #[test]
    fn storm_fails_each_read_once_until_disarmed() {
        let path = data_file("storm.bin", &[0x55u8; 4096]);
        let (plan, options) = tap_all();
        let f = IndexFile::open(&path, &options).unwrap();
        assert_eq!(*f.bytes(0, 64).unwrap(), [0x55u8; 64]);
        assert_eq!(plan.injected(), 0, "a dormant tap injects nothing");
        plan.arm(FaultMode::Storm);
        read_once(&plan, &f, FaultMode::Storm, Some(ErrorKind::Interrupted));
        plan.disarm();
        assert_eq!(*f.bytes(3000, 64).unwrap(), [0x55u8; 64]);
        assert_eq!(plan.injected(), 3);
        std::fs::remove_file(&path).ok();
    }

    /// `Corrupt`, `Eof` and `Deny` each inject exactly once per read and
    /// fail with their own kind; a real EOF is `UnexpectedEof` with the tap
    /// dormant, and disarming heals the same reader.
    #[test]
    fn permanent_modes_inject_once_per_read() {
        let path = data_file("modes.bin", &[0x55u8; 4096]);
        let (plan, options) = tap_all();
        let f = IndexFile::open(&path, &options).unwrap();
        let err = f.bytes(4000, 100).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert_eq!(plan.injected(), 0, "a dormant tap injects nothing");
        for (mode, kind) in [
            (FaultMode::Corrupt, None),
            (FaultMode::Eof, Some(ErrorKind::UnexpectedEof)),
            (FaultMode::Deny, Some(ErrorKind::PermissionDenied)),
        ] {
            plan.arm(mode);
            read_once(&plan, &f, mode, kind);
        }
        plan.disarm();
        assert_eq!(*f.bytes(3000, 64).unwrap(), [0x55u8; 64]);
        assert_eq!(plan.injected(), 9);
        std::fs::remove_file(&path).ok();
    }

    /// The owned buffer answers exactly like the mapping on adversarial
    /// shapes: file lengths around page boundaries (the empty file
    /// included), reads of every length at each page boundary ± 1, at the
    /// end of the file, past it, and at offsets near `u64::MAX`. Each read
    /// gives the same bytes or the same error kind from both sources.
    #[test]
    fn owned_and_mapped_sources_answer_alike() {
        const PAGE: u64 = 4096;
        for len in [0, 1, PAGE - 1, PAGE, PAGE + 1, 3 * PAGE + 17] {
            let data: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
            let path = data_file(&format!("sources_{len}.bin"), &data);
            let options = ReadOptions::default();
            let owned = IndexFile::open_as(&path, &options, false).unwrap();
            let mapped = IndexFile::open(&path, &options).unwrap();
            assert!(!is_mapped(&owned));
            assert_eq!(is_mapped(&mapped), cfg!(unix) && len > 0, "unix maps");
            assert_eq!((owned.len(), mapped.len()), (len, len));
            let mut offsets = vec![len, len + 1, i64::MAX as u64, 1 << 63, u64::MAX - 1];
            for page in 0..=len / PAGE + 1 {
                let at = page * PAGE;
                offsets.extend([at.saturating_sub(1), at, at + 1]);
            }
            for offset in offsets {
                for n in [0, 1, 17, PAGE as usize, PAGE as usize + 1] {
                    let ctx = format!("len {len}, offset {offset}, {n} bytes");
                    match (owned.bytes(offset, n), mapped.bytes(offset, n)) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "{ctx}");
                            let at = offset as usize;
                            assert_eq!(*a, data[at..at + n], "{ctx}");
                        }
                        (Err(a), Err(b)) => assert_eq!(a.kind(), b.kind(), "{ctx}"),
                        (a, b) => panic!("{ctx}: owned {a:?} but mapped {b:?}"),
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// A tapped file is mapped like any other, and an armed fault is taken
    /// there: the mapped reader yields the fault, and an empty file maps to
    /// an empty range.
    #[test]
    fn mmap_yields_to_faults_and_handles_empty_files() {
        let path = data_file("mapped_faults.bin", &[7u8; 256]);
        let (plan, options) = tap_all();
        let f = IndexFile::open(&path, &options).unwrap();
        assert_eq!(is_mapped(&f), cfg!(unix));
        plan.arm(FaultMode::Deny);
        let err = f.bytes(100, 32).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
        plan.disarm();
        assert_eq!(*f.bytes(100, 32).unwrap(), [7u8; 32]);
        std::fs::remove_file(&path).ok();

        let empty = data_file("mapped_empty.bin", &[]);
        let f = IndexFile::open(&empty, &ReadOptions::default()).unwrap();
        assert_eq!(f.len(), 0);
        assert!(f.bytes(0, 0).unwrap().is_empty());
        let err = f.bytes(0, 32).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        std::fs::remove_file(&empty).ok();
    }

    /// A plan armed mid-stream makes a live reader fail in the armed mode,
    /// disarming heals it, and untargeted files never see the tap.
    #[test]
    fn chaos_tap_arms_and_disarms_on_a_live_reader() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let hit = data_file("chaos_target.bin", &data);
        let miss = data_file("other.bin", &data);
        let plan = FaultPlan::new("chaos_target");
        let options = ReadOptions::with_faults(plan.clone());
        let tapped = IndexFile::open(&hit, &options).unwrap();
        let untapped = IndexFile::open(&miss, &options).unwrap();
        assert_eq!(plan.attached(), 1, "only the matched file attaches");
        assert_eq!(&*tapped.bytes(8, 32).unwrap(), &data[8..40], "dormant tap");

        plan.arm(FaultMode::Storm);
        let err = tapped.bytes(8, 32).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Interrupted);
        untapped.bytes(8, 32).unwrap();

        plan.arm(FaultMode::Eof);
        let err = tapped.bytes(8, 32).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);

        plan.arm(FaultMode::Deny);
        let err = tapped.bytes(8, 32).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);

        plan.arm(FaultMode::Corrupt);
        let flipped: Vec<u8> = data[8..40].iter().map(|b| b ^ 0xA5).collect();
        let got = tapped.bytes(8, 32).unwrap();
        assert!(matches!(got, Cow::Owned(_)), "corrupt bytes are a copy");
        assert_eq!(*got, flipped, "corrupt mode flips every byte");

        plan.disarm();
        assert_eq!(&*tapped.bytes(8, 32).unwrap(), &data[8..40], "healed");
        assert_eq!(plan.injected(), 4);
        std::fs::remove_file(&hit).ok();
        std::fs::remove_file(&miss).ok();
    }

    /// The one read path: a tapped file is mapped on unix, a live reader
    /// armed `Corrupt` makes the packed (v6) decoder refuse its blocks with
    /// `Malformed` — the mapping itself is never written — and once
    /// disarmed the same reader answers exactly as an untapped one does.
    #[test]
    fn a_tapped_file_is_mapped_and_faulted_there() {
        let path = data_file("tapped.ndsi", &[]);
        let list: Vec<_> = (0..300).map(|i| posting(i / 3, i % 3)).collect();
        write_file(&path, Encoding::Packed, &[(10, list.clone())]);
        let (plan, options) = tap_all();
        let raw = IndexFile::open(&path, &options).unwrap();
        assert_eq!(is_mapped(&raw), cfg!(unix), "a tapped file maps");
        let plain = IndexFile::open(&path, &ReadOptions::default()).unwrap();

        let tapped = Reader::open_with(&path, &options).unwrap();
        let untapped = Reader::open(&path).unwrap();
        let stats = IoStats::default();
        plan.arm(FaultMode::Corrupt);
        match tapped.read_list(10, &stats) {
            Err(IndexError::Malformed(_)) => {}
            other => panic!("a corrupt packed read decoded: {other:?}"),
        }
        assert!(plan.injected() > 0);
        plan.disarm();
        let len = plain.len() as usize;
        assert_eq!(raw.bytes(0, len).unwrap(), plain.bytes(0, len).unwrap());
        assert_eq!(tapped.read_list(10, &stats).unwrap(), list);
        assert_eq!(untapped.read_list(10, &stats).unwrap(), list);
        tapped.verify(&stats).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
