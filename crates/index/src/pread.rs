//! Positioned (`pread`-style) file reads: no cursor, so a shared
//! [`RetryingFile`] serves any number of threads without a lock. Transient
//! errors are retried, and one runtime-armable injector fakes read faults.
//!
//! # Retry taxonomy
//!
//! A positioned read can fail **transiently** — `EINTR`, `EAGAIN` or a
//! short read — without anything being wrong with the file. Short reads
//! continue the fill loop at once; `Interrupted`/`WouldBlock` retry up to
//! eight times, backing off from 20 µs doubling to 2 ms. Every absorbed
//! event counts into `io.retries`; running out of attempts counts
//! `io.retry_exhausted` and surfaces the original error. **Permanent**
//! errors — anything else, `UnexpectedEof` and the checksum failures raised
//! above this layer included — are never retried.
//!
//! # Fault injection
//!
//! Every read fault enters through one [`FaultPlan`]. A plan is created off
//! and attached at open to each file whose path contains its target;
//! [`FaultPlan::arm`] switches every attached reader to a [`FaultMode`]
//! while queries are in flight. `Flaky` injects the transient taxonomy,
//! deterministically per seed and file, and the retry layer must absorb it
//! bit-exactly; the other modes model a device that stops answering, bit
//! rot, truncation and a permission flip. (Write-side crashes are the
//! build's `KillPoints`.)
//!
//! # Mapped reads, and where pread stays
//!
//! Every index file is read through a private read-only `mmap(2)` of the
//! whole file (vendored binding, unix only): warm reads are memory copies,
//! and decoders borrow the mapped bytes directly. That is the production
//! path. pread is kept for the files that cannot be mapped: a reader with a
//! fault plan attached always reads by pread, or mapped decoding would read
//! around the tap; a failed map falls back to it silently; and so does every
//! open off unix. Mapped reads answer exactly as pread does, EOF and
//! out-of-range offsets included.

use std::cell::Cell;
use std::fs::File;
use std::io::{self, ErrorKind};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Transient errors tolerated per logical read before giving up.
const MAX_RETRIES: u32 = 8;
/// Sleep before the first retry; doubles per retry up to [`MAX_BACKOFF`].
const INITIAL_BACKOFF: Duration = Duration::from_micros(20);
const MAX_BACKOFF: Duration = Duration::from_millis(2);
/// `Flaky` faults in a row, at most; below [`MAX_RETRIES`], so every
/// logical read eventually succeeds.
const MAX_CONSECUTIVE_FAULTS: u32 = 3;

/// One positioned read returning the number of bytes read (possibly short).
#[cfg(unix)]
fn raw_read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    use std::os::unix::fs::FileExt;
    file.read_at(buf, offset)
}

/// Windows fallback: `seek_read` takes its own offset (it moves the cursor,
/// but no reader relies on cursor position, so concurrent use stays safe in
/// the retry loop above it).
#[cfg(windows)]
fn raw_read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    use std::os::windows::fs::FileExt;
    file.seek_read(buf, offset)
}

/// How an armed [`FaultPlan`] makes the reads of its files fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultMode {
    /// Dormant: reads pass through untouched.
    Off,
    /// `EINTR`, `EAGAIN` or a short read on ~1 call in 3, ≤ 3 in a row.
    Flaky,
    /// Every read fails `EINTR` until the retry budget is exhausted.
    Storm,
    /// Every delivered byte XOR-flipped: bit rot the layers above reject.
    Corrupt,
    /// Every read returns 0 bytes, as from a file truncated to nothing.
    Eof,
    /// Every read fails `EACCES`: a permanent, non-retryable error.
    Deny,
}

/// [`FaultMode`] by discriminant.
const MODES: [FaultMode; 6] = {
    use FaultMode::*;
    [Off, Flaky, Storm, Corrupt, Eof, Deny]
};

#[derive(Debug)]
struct PlanState {
    target: String,
    seed: u64,
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
    /// A plan that is [`FaultMode::Off`]; `seed` drives `Flaky`'s rolls.
    pub fn new(target: &str, seed: u64) -> Self {
        Self(Arc::new(PlanState {
            target: target.to_owned(),
            seed,
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
}

/// How index files are opened. `ReadOptions::default()` is the production
/// configuration: every file mapped, no fault plan. The files a plan taps
/// read by pread, as do files that cannot be mapped.
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
    /// benchmark's `ledger/src/adapter.rs:188` still calls it; ROADMAP item
    /// 1(b) deletes that call and this function together.
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
        pub fn map(file: &File) -> io::Result<Self> {
            let len = file.metadata()?.len();
            if len > usize::MAX as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "file too large to map",
                ));
            }
            let len = len as usize;
            if len == 0 {
                // mmap(2) rejects zero-length maps; an empty slice needs
                // no mapping at all.
                return Ok(Self {
                    ptr: std::ptr::null_mut(),
                    len: 0,
                });
            }
            // SAFETY: a fresh private read-only mapping of `len > 0` bytes of
            // an open descriptor at offset 0 aliases no Rust memory.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { ptr, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: `ptr` is a live mapping of `len` readable bytes until
            // drop, and nothing writes through it. Published index files are
            // never written or truncated in place (DESIGN §12), which is what
            // keeps the bytes fixed for the borrow's lifetime.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len != 0 {
                // SAFETY: the mapping `map` created; no borrow of it outlives
                // `self`.
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

#[cfg(not(unix))]
mod mapped {
    use std::fs::File;
    use std::io;

    /// Non-unix stub: mapping always fails, so callers fall back to pread.
    #[derive(Debug)]
    pub struct Mmap;

    impl Mmap {
        pub fn map(_file: &File) -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "mmap is only available on unix",
            ))
        }

        pub fn as_slice(&self) -> &[u8] {
            &[]
        }
    }
}

pub(crate) use mapped::Mmap;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

std::thread_local! {
    /// Consecutive `Flaky` faults on this thread. A retry loop runs on one
    /// thread, so this bounds the attempts of every logical read.
    static CONSECUTIVE_FAULTS: Cell<u32> = const { Cell::new(0) };
}

#[derive(Debug)]
enum Source {
    Plain(File),
    /// Whole-file memory map; EOF is the mapped length.
    Mapped(Mmap),
}

impl Source {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        match self {
            Source::Plain(f) => raw_read_at(f, buf, offset),
            Source::Mapped(m) => {
                // pread(2) refuses a read ending past `i64::MAX`; so does this.
                if offset.saturating_add(buf.len() as u64) > i64::MAX as u64 {
                    return Err(ErrorKind::InvalidInput.into());
                }
                let at = usize::try_from(offset).unwrap_or(usize::MAX);
                let tail = m.as_slice().get(at..).unwrap_or_default();
                let n = buf.len().min(tail.len());
                buf[..n].copy_from_slice(&tail[..n]);
                Ok(n)
            }
        }
    }
}

/// A positioned-read file handle that absorbs transient errors.
///
/// Thread-safe: holds no cursor, takes no lock; a mapped read is a memory
/// copy, a pread one syscall on the fault-free path.
#[derive(Debug)]
pub struct RetryingFile {
    source: Source,
    len: u64,
    /// Present only when the open path matched an attached [`FaultPlan`].
    tap: Option<FaultPlan>,
    /// `Flaky` rolls so far, so each file's fault sequence is its own.
    calls: AtomicU64,
    retries: ndss_obs::Counter,
    exhausted: ndss_obs::Counter,
}

impl RetryingFile {
    /// Opens `path` for positioned reads under `options`.
    pub(crate) fn open(path: &Path, options: &ReadOptions) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let tap = options
            .faults
            .as_ref()
            .filter(|plan| path.to_string_lossy().contains(&plan.0.target));
        if let Some(plan) = tap {
            plan.0.attached.fetch_add(1, Relaxed);
        }
        // One rule: a tapped reader reads by pread, or mapped decoding
        // would read around the tap.
        let source = match tap {
            None => Mmap::map(&file).map_or(Source::Plain(file), Source::Mapped),
            Some(_) => Source::Plain(file),
        };
        let reg = ndss_obs::Registry::global();
        Ok(Self {
            source,
            len,
            tap: tap.cloned(),
            calls: AtomicU64::new(0),
            retries: reg.counter(
                "io.retries",
                "Transient index-read faults absorbed by retry (EINTR/EAGAIN/short reads)",
            ),
            exhausted: reg.counter(
                "io.retry_exhausted",
                "Index reads that failed after exhausting the transient-retry budget",
            ),
        })
    }

    /// File length in bytes at open.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// The whole file as one borrowed slice when it is memory-mapped,
    /// `None` on the pread paths. Lets decoders skip the copy into an
    /// intermediate buffer entirely.
    pub(crate) fn mapped(&self) -> Option<&[u8]> {
        match &self.source {
            Source::Mapped(m) => Some(m.as_slice()),
            Source::Plain(_) => None,
        }
    }

    /// One source read with `plan`'s armed mode applied.
    fn read_with_faults(&self, plan: &FaultPlan, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let fault = |kind, what: &str| -> io::Result<usize> { Err(io::Error::new(kind, what)) };
        let result = match MODES[plan.0.mode.load(Relaxed) as usize] {
            FaultMode::Off => return self.source.read_at(buf, offset),
            FaultMode::Flaky => {
                let roll = splitmix64(plan.0.seed ^ self.calls.fetch_add(1, Relaxed));
                let run = CONSECUTIVE_FAULTS.with(Cell::get);
                if !roll.is_multiple_of(3) || run >= MAX_CONSECUTIVE_FAULTS {
                    CONSECUTIVE_FAULTS.with(|c| c.set(0));
                    return self.source.read_at(buf, offset);
                }
                CONSECUTIVE_FAULTS.with(|c| c.set(run + 1));
                match ((roll >> 32) % 3, buf.len() / 2) {
                    (1, _) => fault(ErrorKind::WouldBlock, "injected EAGAIN"),
                    // A short read really delivers the first half.
                    (2, half @ 1..) => self.source.read_at(&mut buf[..half], offset),
                    _ => fault(ErrorKind::Interrupted, "injected EINTR"),
                }
            }
            FaultMode::Storm => fault(ErrorKind::Interrupted, "injected transient storm"),
            FaultMode::Corrupt => {
                let n = self.source.read_at(buf, offset)?;
                buf[..n].iter_mut().for_each(|b| *b ^= 0xA5);
                Ok(n)
            }
            FaultMode::Eof => Ok(0),
            FaultMode::Deny => fault(ErrorKind::PermissionDenied, "injected permission fault"),
        };
        plan.0.injected.fetch_add(1, Relaxed);
        result
    }

    /// Reads exactly `buf.len()` bytes at absolute `offset`, without
    /// touching the file cursor. Transient failures retry with backoff;
    /// permanent errors (including EOF) return immediately.
    pub(crate) fn read_exact_at(&self, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
        let mut attempts = 0u32;
        let mut backoff = INITIAL_BACKOFF;
        while !buf.is_empty() {
            let read = match &self.tap {
                None => self.source.read_at(buf, offset),
                Some(plan) => self.read_with_faults(plan, buf, offset),
            };
            match read {
                // EOF mid-fill is permanent: the bytes are not there.
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    offset += n as u64;
                    let whole = n == buf.len();
                    let rest = buf;
                    buf = &mut rest[n..];
                    if !whole {
                        // Short read: transient; continue at the advanced
                        // offset with no backoff (progress was made).
                        self.retries.inc(1);
                    }
                    attempts = 0;
                    backoff = INITIAL_BACKOFF;
                }
                Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {
                    attempts += 1;
                    if attempts > MAX_RETRIES {
                        self.exhausted.inc(1);
                        return Err(e);
                    }
                    self.retries.inc(1);
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(MAX_BACKOFF);
                }
                // Permanent (NotFound, PermissionDenied, UnexpectedEof, …):
                // never retried.
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = crate::tests::test_root("ndss_pread");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// A plan on every file, armed in `mode`, and the options attaching it.
    fn armed(mode: FaultMode, seed: u64) -> (FaultPlan, ReadOptions) {
        let plan = FaultPlan::new("", seed);
        plan.arm(mode);
        (plan.clone(), ReadOptions::with_faults(plan))
    }

    #[test]
    fn reads_at_arbitrary_offsets() {
        let path = data_file("data.bin", &(0u8..=255).collect::<Vec<u8>>());
        let f = RetryingFile::open(&path, &ReadOptions::default()).unwrap();
        let mut buf = [0u8; 4];
        f.read_exact_at(&mut buf, 10).unwrap();
        assert_eq!(buf, [10, 11, 12, 13]);
        // A second read at a lower offset works regardless of any cursor.
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [0, 1, 2, 3]);
        // Reading past EOF errors instead of short-reading.
        assert!(f.read_exact_at(&mut buf, 254).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_reads_see_consistent_bytes() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let path = data_file("concurrent.bin", &data);
        let f = RetryingFile::open(&path, &ReadOptions::default()).unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let f = &f;
                let data = &data;
                s.spawn(move || {
                    let mut buf = [0u8; 64];
                    for i in 0..200 {
                        let off = ((t * 131 + i * 17) % (4096 - 64)) as u64;
                        f.read_exact_at(&mut buf, off).unwrap();
                        assert_eq!(&buf[..], &data[off as usize..off as usize + 64]);
                    }
                });
            }
        });
        std::fs::remove_file(&path).ok();
    }

    /// Under an armed `Flaky` plan every read still returns the right
    /// bytes, and faults were really injected.
    #[test]
    fn transient_faults_are_absorbed_bit_exactly() {
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 256) as u8).collect();
        let path = data_file("flaky.bin", &data);
        let (plan, options) = armed(FaultMode::Flaky, 0xF00D);
        let f = RetryingFile::open(&path, &options).unwrap();
        let mut buf = vec![0u8; 100];
        for round in 0..300u64 {
            let off = (round * 31) % (8192 - 100);
            f.read_exact_at(&mut buf, off).unwrap();
            assert_eq!(&buf[..], &data[off as usize..off as usize + 100]);
        }
        assert!(plan.injected() > 0, "injector never fired");
        std::fs::remove_file(&path).ok();
    }

    /// The same seed injects the same fault sequence: two single-threaded
    /// passes over the same read pattern tally identical counts.
    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let data = vec![0xABu8; 4096];
        let path = data_file("deterministic.bin", &data);
        let run = |seed: u64| {
            let (plan, options) = armed(FaultMode::Flaky, seed);
            let f = RetryingFile::open(&path, &options).unwrap();
            let mut buf = [0u8; 64];
            for i in 0..200u64 {
                f.read_exact_at(&mut buf, (i * 13) % 4000).unwrap();
            }
            plan.injected()
        };
        assert_eq!(run(42), run(42));
        assert!(run(42) > 0);
        std::fs::remove_file(&path).ok();
    }

    /// A reader opened with the plan off works; once `Storm` is armed one
    /// logical read makes exactly `MAX_RETRIES + 1` attempts and fails with
    /// the transient error; disarming heals it.
    #[test]
    fn storm_exhausts_retries() {
        let path = data_file("storm.bin", &[0x55u8; 4096]);
        let plan = FaultPlan::new("storm.bin", 1);
        let f = RetryingFile::open(&path, &ReadOptions::with_faults(plan.clone())).unwrap();
        let mut buf = [0u8; 64];
        f.read_exact_at(&mut buf, 0).unwrap();
        plan.arm(FaultMode::Storm);
        let err = f.read_exact_at(&mut buf, 1500).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(plan.injected(), u64::from(MAX_RETRIES) + 1);
        plan.disarm();
        f.read_exact_at(&mut buf, 3000).unwrap();
        assert_eq!(buf, [0x55u8; 64]);
        std::fs::remove_file(&path).ok();
    }

    /// The mmap binding answers exactly like pread on adversarial shapes:
    /// file lengths around page boundaries (the empty file included), reads
    /// of every length at each page boundary ± 1, at the end of the file,
    /// past it, and at offsets pread refuses. Each read gives the same
    /// bytes or the same error kind on both paths; the pread side is opened
    /// with a disarmed plan, the one way left to read by pread.
    #[test]
    fn mmap_reads_match_pread() {
        const PAGE: u64 = 4096;
        for len in [0, 1, PAGE - 1, PAGE, PAGE + 1, 3 * PAGE + 17] {
            let data: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
            let path = data_file(&format!("mapped_{len}.bin"), &data);
            let (_plan, tapped) = armed(FaultMode::Off, 0);
            let plain = RetryingFile::open(&path, &tapped).unwrap();
            let mapped = RetryingFile::open(&path, &ReadOptions::default()).unwrap();
            assert!(plain.mapped().is_none(), "a tapped file reads by pread");
            if cfg!(unix) {
                assert!(mapped.mapped().is_some(), "unix opens map by default");
            }
            assert_eq!(plain.len(), mapped.len());
            let mut offsets = vec![len, len + 1, i64::MAX as u64, 1 << 63, u64::MAX - 1];
            for page in 0..=len / PAGE + 1 {
                let at = page * PAGE;
                offsets.extend([at.saturating_sub(1), at, at + 1]);
            }
            for offset in offsets {
                for n in [0, 1, 17, PAGE as usize, PAGE as usize + 1] {
                    let (mut a, mut b) = (vec![0u8; n], vec![0u8; n]);
                    let ctx = format!("len {len}, offset {offset}, {n} bytes");
                    match (
                        plain.read_exact_at(&mut a, offset),
                        mapped.read_exact_at(&mut b, offset),
                    ) {
                        (Ok(()), Ok(())) => {
                            assert_eq!(a, b, "{ctx}");
                            if n > 0 {
                                let at = offset as usize;
                                assert_eq!(a, data[at..at + n], "{ctx}");
                            }
                        }
                        (Err(pe), Err(me)) => assert_eq!(pe.kind(), me.kind(), "{ctx}"),
                        (p, m) => panic!("{ctx}: pread {p:?} but mmap {m:?}"),
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mmap_yields_to_faults_and_handles_empty_files() {
        let path = data_file("mapped_faults.bin", &[7u8; 256]);
        let (plan, options) = armed(FaultMode::Flaky, 9);
        let f = RetryingFile::open(&path, &options).unwrap();
        assert!(f.mapped().is_none(), "faults must win over mmap");
        let mut buf = [0u8; 32];
        for offset in 0..16 {
            f.read_exact_at(&mut buf, 100 + offset).unwrap();
            assert_eq!(buf, [7u8; 32]);
        }
        assert!(plan.injected() > 0, "injector never fired");
        std::fs::remove_file(&path).ok();

        let empty = data_file("mapped_empty.bin", &[]);
        let f = RetryingFile::open(&empty, &ReadOptions::default()).unwrap();
        assert_eq!(f.len(), 0);
        let err = f.read_exact_at(&mut buf, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&empty).ok();
    }

    /// A plan armed mid-stream makes a live reader fail in the armed mode,
    /// disarming heals it, and untargeted files never see the tap.
    #[test]
    fn chaos_tap_arms_and_disarms_on_a_live_reader() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let hit = data_file("chaos_target.bin", &data);
        let miss = data_file("other.bin", &data);
        let plan = FaultPlan::new("chaos_target", 0);
        let options = ReadOptions::with_faults(plan.clone());
        let tapped = RetryingFile::open(&hit, &options).unwrap();
        let untapped = RetryingFile::open(&miss, &options).unwrap();
        assert_eq!(plan.attached(), 1, "only the matched file attaches");

        let mut buf = [0u8; 32];
        tapped.read_exact_at(&mut buf, 8).unwrap();
        assert_eq!(&buf[..], &data[8..40], "dormant tap passes through");

        plan.arm(FaultMode::Storm);
        let err = tapped.read_exact_at(&mut buf, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        untapped.read_exact_at(&mut buf, 8).unwrap();

        plan.arm(FaultMode::Eof);
        let err = tapped.read_exact_at(&mut buf, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        plan.arm(FaultMode::Deny);
        let err = tapped.read_exact_at(&mut buf, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);

        plan.arm(FaultMode::Corrupt);
        tapped.read_exact_at(&mut buf, 8).unwrap();
        let flipped: Vec<u8> = data[8..40].iter().map(|b| b ^ 0xA5).collect();
        assert_eq!(&buf[..], &flipped[..], "corrupt mode flips every byte");

        plan.disarm();
        tapped.read_exact_at(&mut buf, 8).unwrap();
        assert_eq!(&buf[..], &data[8..40], "disarming heals the reader");
        assert!(plan.injected() >= 4);
        std::fs::remove_file(&hit).ok();
        std::fs::remove_file(&miss).ok();
    }

    /// The one mmap rule: a reader with a plan attached reads by pread —
    /// whether the plan is off or armed — so mapped decoding cannot bypass
    /// the tap; files the plan does not target still map.
    #[test]
    fn chaos_tap_forces_pread_over_mmap() {
        let path = data_file("chaos_mmap.bin", &[3u8; 512]);
        let other = data_file("plain_mmap.bin", &[4u8; 512]);
        let plan = FaultPlan::new("chaos_mmap", 9);
        let options = ReadOptions::with_faults(plan.clone());
        let tapped = RetryingFile::open(&path, &options).unwrap();
        assert!(tapped.mapped().is_none(), "tapped files must not map");
        if cfg!(unix) {
            let untapped = RetryingFile::open(&other, &options).unwrap();
            assert!(untapped.mapped().is_some(), "untapped files still map");
        }
        plan.arm(FaultMode::Flaky);
        let mut buf = [0u8; 32];
        for offset in 0..64 {
            tapped.read_exact_at(&mut buf, offset).unwrap();
            assert_eq!(buf, [3u8; 32]);
        }
        assert!(plan.injected() > 0, "faults flowed through the read path");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&other).ok();
    }

    /// Permanent errors are not retried: under `Eof` and `Deny` one
    /// logical read makes exactly one attempt, and a real EOF surfaces as
    /// `UnexpectedEof` rather than as a transient.
    #[test]
    fn permanent_errors_never_retry() {
        let path = data_file("short.bin", &[1, 2, 3, 4]);
        let (plan, options) = armed(FaultMode::Off, 0);
        let f = RetryingFile::open(&path, &options).unwrap();
        let mut buf = [0u8; 16];
        // Entirely past EOF: the very first positioned read returns 0.
        let err = f.read_exact_at(&mut buf, 100).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        for (mode, kind) in [
            (FaultMode::Eof, io::ErrorKind::UnexpectedEof),
            (FaultMode::Deny, io::ErrorKind::PermissionDenied),
        ] {
            plan.arm(mode);
            let before = plan.injected();
            let err = f.read_exact_at(&mut buf[..4], 0).unwrap_err();
            assert_eq!(err.kind(), kind);
            assert_eq!(plan.injected(), before + 1, "{mode:?} was retried");
        }
        std::fs::remove_file(&path).ok();
    }
}
