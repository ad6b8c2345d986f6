//! Positioned (`pread`-style) file reads with transient-error retry and
//! deterministic fault injection.
//!
//! Every posting or zone read used to funnel through a `Mutex<File>` with a
//! seek + read pair, which serialized concurrent queries on the same index
//! file. A positioned read needs no cursor and therefore no lock: readers
//! hold a [`RetryingFile`], are `Sync`, and issue one syscall per read in
//! the common case.
//!
//! # Retry taxonomy
//!
//! A positioned read can fail **transiently** — `EINTR` (a signal landed
//! mid-syscall), `EAGAIN`/`EWOULDBLOCK`, or a short read (the kernel
//! returned fewer bytes than asked) — without anything being wrong with the
//! file. [`RetryingFile`] absorbs these: short reads continue the fill loop
//! immediately, error kinds `Interrupted`/`WouldBlock` retry with bounded
//! exponential backoff. Every absorbed event counts into the `io.retries`
//! registry counter; running out of attempts counts `io.retry_exhausted`
//! and surfaces the original error. **Permanent** errors — anything else,
//! including `UnexpectedEof` and the checksum/`Malformed` failures raised
//! above this layer — are never retried: retrying cannot make corrupt
//! bytes valid.
//!
//! # Fault injection
//!
//! [`FaultConfig`] wraps the file in a seeded, deterministic [`FlakyFile`]
//! that injects the full transient taxonomy (plus an always-failing
//! "hard" byte range for exercising retry exhaustion), so tests can prove
//! the retry path yields bit-identical results to fault-free runs.
//!
//! # Memory-mapped reads
//!
//! [`ReadOptions::mmap`] swaps the pread syscall for a private read-only
//! `mmap(2)` of the whole file (vendored binding, unix only): warm queries
//! become plain memory copies with no syscall per read. The mapping is
//! strictly an optimization — if `mmap` fails, the platform is not unix, or
//! a fault injector is attached (faults must flow through the read path),
//! the handle silently falls back to positioned reads. Reads past the
//! mapped length surface as `UnexpectedEof` exactly like pread EOF.

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

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

/// Bounded exponential backoff for transient read errors.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Transient errors tolerated per logical read before giving up.
    pub max_retries: u32,
    /// Sleep before the first retry; doubles per retry.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 8,
            initial_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(2),
        }
    }
}

/// Shared fault-injection tallies, readable by tests through
/// [`FaultConfig::stats`].
#[derive(Debug, Default)]
pub struct FaultStats {
    injected: AtomicU64,
    hard_faults: AtomicU64,
}

impl FaultStats {
    /// Transient faults injected (EINTR / EAGAIN / short reads).
    pub fn injected(&self) -> u64 {
        self.injected.load(Relaxed)
    }

    /// Always-failing hard-range faults injected.
    pub fn hard_faults(&self) -> u64 {
        self.hard_faults.load(Relaxed)
    }
}

/// Deterministic fault-injection plan for a `FlakyFile`.
///
/// Clones share one [`FaultStats`], so the handle a test keeps observes
/// faults injected by every reader opened from the same config.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// PRNG seed: the same seed and call sequence injects the same faults.
    pub seed: u64,
    /// Inject on roughly one in `fault_every` read calls (0 disables the
    /// probabilistic faults, leaving only the hard range).
    pub fault_every: u32,
    /// Cap on consecutive injected faults seen by any one retry loop; must
    /// stay below [`RetryPolicy::max_retries`] for reads to always succeed
    /// eventually.
    pub max_consecutive: u32,
    /// Absolute byte range `[lo, hi)` whose reads *always* fail with
    /// `EINTR`, bypassing `max_consecutive` — the retry-exhaustion path.
    pub hard_range: Option<(u64, u64)>,
    stats: Arc<FaultStats>,
}

impl FaultConfig {
    /// Transient faults on ~1 in 4 reads, at most 3 in a row, no hard range.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            fault_every: 4,
            max_consecutive: 3,
            hard_range: None,
            stats: Arc::new(FaultStats::default()),
        }
    }

    /// Sets the probabilistic fault rate (one in `n` reads; 0 disables).
    pub fn fault_every(mut self, n: u32) -> Self {
        self.fault_every = n;
        self
    }

    /// Marks `[lo, hi)` as permanently transient: every read touching it
    /// fails with `EINTR` until the retry budget is exhausted.
    pub fn hard_range(mut self, lo: u64, hi: u64) -> Self {
        self.hard_range = Some((lo, hi));
        self
    }

    /// The shared tally of injected faults.
    pub fn stats(&self) -> Arc<FaultStats> {
        Arc::clone(&self.stats)
    }
}

/// How a [`ChaosPlan`] makes matched reads fail, switchable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ChaosMode {
    /// Tap attached but dormant: reads pass through untouched.
    Off = 0,
    /// Every read fails `EINTR`, outlasting any retry budget — models a
    /// device that stops answering (IO retries exhaust, then surface the
    /// transient error).
    TransientStorm = 1,
    /// Reads succeed but every delivered byte is XOR-flipped — models bit
    /// rot under a live reader; the decode/checksum layers above must turn
    /// this into `Malformed`, never into silently wrong results.
    Corrupt = 2,
    /// Every read returns 0 bytes — models a file truncated to nothing
    /// under the reader (`UnexpectedEof`).
    Eof = 3,
    /// Every read fails `EACCES` — models a permission flip or a yanked
    /// mount (a permanent, non-retryable error).
    Deny = 4,
}

impl ChaosMode {
    fn from_u8(v: u8) -> Self {
        match v {
            1 => ChaosMode::TransientStorm,
            2 => ChaosMode::Corrupt,
            3 => ChaosMode::Eof,
            4 => ChaosMode::Deny,
            _ => ChaosMode::Off,
        }
    }
}

#[derive(Debug, Default)]
struct ChaosState {
    mode: AtomicU64,
    injected: AtomicU64,
    attached: AtomicU64,
}

/// A runtime-armable fault tap for *live* readers: where [`FaultConfig`]
/// decides at open time which reads fail, a `ChaosPlan` is attached at open
/// but armed and re-armed **while queries are in flight**, so tests can
/// make an already-serving shard start failing mid-query and then heal it
/// again — the serve-path chaos harness's primitive.
///
/// The plan targets files whose path contains `matcher` (e.g.
/// `"shard-0001"` taps every index file of that shard and nothing else).
/// Clones share one state: arming any clone arms every attached reader.
/// Attaching a tap forces the positioned-read path for matched files even
/// when mmap was requested — zero-copy mapped decoding would bypass the
/// tap (and the whole retry layer), exactly like [`FaultConfig`].
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    matcher: String,
    state: Arc<ChaosState>,
}

impl ChaosPlan {
    /// A dormant plan tapping files whose path contains `matcher`.
    pub fn targeting(matcher: impl Into<String>) -> Self {
        Self {
            matcher: matcher.into(),
            state: Arc::new(ChaosState::default()),
        }
    }

    /// Whether this plan taps the file at `path`.
    pub fn matches(&self, path: &Path) -> bool {
        path.to_string_lossy().contains(&self.matcher)
    }

    /// Switches every attached tap to `mode`, effective on the next read.
    pub fn arm(&self, mode: ChaosMode) {
        self.state.mode.store(mode as u64, Relaxed);
    }

    /// Returns every attached tap to pass-through.
    pub fn disarm(&self) {
        self.arm(ChaosMode::Off);
    }

    /// The currently armed mode.
    pub fn mode(&self) -> ChaosMode {
        ChaosMode::from_u8(self.state.mode.load(Relaxed) as u8)
    }

    /// Faults injected across every attached reader since creation.
    pub fn injected(&self) -> u64 {
        self.state.injected.load(Relaxed)
    }

    /// Files this plan attached to at open time.
    pub fn attached(&self) -> u64 {
        self.state.attached.load(Relaxed)
    }

    fn note_attach(&self) {
        self.state.attached.fetch_add(1, Relaxed);
    }

    fn note_injection(&self) {
        self.state.injected.fetch_add(1, Relaxed);
    }
}

/// How index files are opened: the retry policy, an optional fault
/// injector, and the read mechanism. `ReadOptions::default()` is the
/// production configuration — retries on, faults off, pread.
#[derive(Debug, Clone, Default)]
pub struct ReadOptions {
    /// Backoff schedule for transient errors.
    pub retry: RetryPolicy,
    /// Fault injection (tests only).
    pub faults: Option<FaultConfig>,
    /// Memory-map index files instead of pread (unix only; falls back to
    /// pread when mapping fails or a fault injector is attached).
    pub mmap: bool,
    /// Runtime fault tap (tests only): attached at open to files the plan
    /// matches, armed/disarmed while readers are live. Matched files use
    /// positioned reads even when `mmap` is set.
    pub chaos: Option<ChaosPlan>,
}

impl ReadOptions {
    /// Production defaults with a fault injector attached.
    pub fn with_faults(faults: FaultConfig) -> Self {
        Self {
            faults: Some(faults),
            ..Self::default()
        }
    }

    /// Production defaults with memory-mapped reads requested.
    pub fn with_mmap() -> Self {
        Self {
            mmap: true,
            ..Self::default()
        }
    }

    /// Production defaults with a runtime chaos tap attached.
    pub fn with_chaos(chaos: ChaosPlan) -> Self {
        Self {
            chaos: Some(chaos),
            ..Self::default()
        }
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

    // The mapping is read-only and owned until drop; sharing &Mmap across
    // threads only ever reads the mapped bytes.
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
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len != 0 {
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
    /// Consecutive injected faults as seen by the current thread. A retry
    /// loop runs on one thread, so bounding this per thread guarantees any
    /// single logical read succeeds within `max_consecutive + 1` attempts,
    /// regardless of faults injected into other threads' reads.
    static CONSECUTIVE_FAULTS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// A seeded fault-injecting wrapper around a plain file: each read call
/// rolls a deterministic PRNG and either passes through or injects one of
/// the transient failure modes (`EINTR`, `EAGAIN`, short read).
#[derive(Debug)]
pub struct FlakyFile {
    file: File,
    config: FaultConfig,
    calls: AtomicU64,
}

impl FlakyFile {
    fn new(file: File, config: FaultConfig) -> Self {
        Self {
            file,
            config,
            calls: AtomicU64::new(0),
        }
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let len = buf.len() as u64;
        if let Some((lo, hi)) = self.config.hard_range {
            if offset < hi && offset + len > lo {
                self.config.stats.hard_faults.fetch_add(1, Relaxed);
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected hard fault",
                ));
            }
        }
        let call = self.calls.fetch_add(1, Relaxed);
        let roll = splitmix64(self.config.seed ^ call);
        let inject =
            self.config.fault_every > 0 && roll.is_multiple_of(self.config.fault_every as u64);
        if inject && CONSECUTIVE_FAULTS.with(|c| c.get()) < self.config.max_consecutive {
            CONSECUTIVE_FAULTS.with(|c| c.set(c.get() + 1));
            self.config.stats.injected.fetch_add(1, Relaxed);
            return match (roll >> 32) % 3 {
                0 => Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR")),
                1 => Err(io::Error::new(io::ErrorKind::WouldBlock, "injected EAGAIN")),
                _ if buf.len() > 1 => {
                    // Short read: really deliver the first half.
                    let half = buf.len() / 2;
                    fill_exact(&self.file, &mut buf[..half], offset)?;
                    Ok(half)
                }
                _ => Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR")),
            };
        }
        CONSECUTIVE_FAULTS.with(|c| c.set(0));
        raw_read_at(&self.file, buf, offset)
    }
}

/// Fills `buf` completely, retrying only genuine short reads (helper for
/// the injector's own passthrough reads).
fn fill_exact(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<usize> {
    let total = buf.len();
    while !buf.is_empty() {
        match raw_read_at(file, buf, offset)? {
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                ))
            }
            n => {
                offset += n as u64;
                let rest = buf;
                buf = &mut rest[n..];
            }
        }
    }
    Ok(total)
}

#[derive(Debug)]
enum Source {
    Plain(File),
    Flaky(Box<FlakyFile>),
    /// Whole-file memory map; reads are plain copies, EOF is the mapped
    /// length captured at open time.
    Mapped(Mmap),
}

impl Source {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        match self {
            Source::Plain(f) => raw_read_at(f, buf, offset),
            Source::Flaky(f) => f.read_at(buf, offset),
            Source::Mapped(m) => {
                let bytes = m.as_slice();
                if offset >= bytes.len() as u64 {
                    return Ok(0);
                }
                let off = offset as usize;
                let n = buf.len().min(bytes.len() - off);
                buf[..n].copy_from_slice(&bytes[off..off + n]);
                Ok(n)
            }
        }
    }

    fn len(&self) -> io::Result<u64> {
        match self {
            Source::Plain(f) => Ok(f.metadata()?.len()),
            Source::Flaky(f) => Ok(f.file.metadata()?.len()),
            Source::Mapped(m) => Ok(m.as_slice().len() as u64),
        }
    }
}

/// A positioned-read file handle that absorbs transient errors.
///
/// Thread-safe: holds no cursor, takes no lock; concurrent readers pay one
/// syscall per read on the fault-free path.
#[derive(Debug)]
pub struct RetryingFile {
    source: Source,
    policy: RetryPolicy,
    /// Runtime fault tap, present only when the open path matched an
    /// attached [`ChaosPlan`].
    chaos: Option<ChaosPlan>,
    retries: ndss_obs::Counter,
    exhausted: ndss_obs::Counter,
}

impl RetryingFile {
    /// Opens `path` for positioned reads under `options`.
    pub(crate) fn open(path: &Path, options: &ReadOptions) -> io::Result<Self> {
        let file = File::open(path)?;
        let chaos = options.chaos.as_ref().filter(|c| c.matches(path)).cloned();
        Ok(Self::build(file, options, chaos))
    }

    fn build(file: File, options: &ReadOptions, chaos: Option<ChaosPlan>) -> Self {
        if let Some(c) = &chaos {
            c.note_attach();
        }
        let source = match &options.faults {
            // Fault injection must flow through the read path, so it wins
            // over mmap. A chaos tap forces pread for the same reason:
            // mapped decoding would read around the tap.
            Some(cfg) => Source::Flaky(Box::new(FlakyFile::new(file, cfg.clone()))),
            None if options.mmap && chaos.is_none() => match Mmap::map(&file) {
                Ok(map) => Source::Mapped(map),
                Err(_) => Source::Plain(file),
            },
            None => Source::Plain(file),
        };
        let reg = ndss_obs::Registry::global();
        Self {
            source,
            policy: options.retry.clone(),
            chaos,
            retries: reg.counter(
                "io.retries",
                "Transient index-read faults absorbed by retry (EINTR/EAGAIN/short reads)",
            ),
            exhausted: reg.counter(
                "io.retry_exhausted",
                "Index reads that failed after exhausting the transient-retry budget",
            ),
        }
    }

    /// One source read with the chaos tap applied when armed.
    fn tapped_read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let mode = match &self.chaos {
            Some(c) => c.mode(),
            None => ChaosMode::Off,
        };
        match mode {
            ChaosMode::Off => self.source.read_at(buf, offset),
            ChaosMode::TransientStorm => {
                self.chaos.as_ref().unwrap().note_injection();
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "chaos: injected transient storm",
                ))
            }
            ChaosMode::Eof => {
                self.chaos.as_ref().unwrap().note_injection();
                Ok(0)
            }
            ChaosMode::Deny => {
                self.chaos.as_ref().unwrap().note_injection();
                Err(io::Error::new(
                    io::ErrorKind::PermissionDenied,
                    "chaos: injected permission fault",
                ))
            }
            ChaosMode::Corrupt => {
                let n = self.source.read_at(buf, offset)?;
                for b in &mut buf[..n] {
                    *b ^= 0xA5;
                }
                self.chaos.as_ref().unwrap().note_injection();
                Ok(n)
            }
        }
    }

    /// Current file length in bytes (the mapped length when memory-mapped).
    pub(crate) fn len(&self) -> io::Result<u64> {
        self.source.len()
    }

    /// Whether reads are served from a memory map.
    #[cfg(test)]
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self.source, Source::Mapped(_))
    }

    /// The whole file as one borrowed slice when it is memory-mapped,
    /// `None` on the pread paths. Lets decoders skip the copy into an
    /// intermediate buffer entirely.
    pub(crate) fn mapped(&self) -> Option<&[u8]> {
        match &self.source {
            Source::Mapped(m) => Some(m.as_slice()),
            _ => None,
        }
    }

    /// Reads exactly `buf.len()` bytes at absolute `offset`, without
    /// touching the file cursor. Transient failures retry with backoff;
    /// permanent errors (including EOF) return immediately.
    pub(crate) fn read_exact_at(&self, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
        let mut attempts = 0u32;
        let mut backoff = self.policy.initial_backoff;
        while !buf.is_empty() {
            match self.tapped_read_at(buf, offset) {
                Ok(0) => {
                    // EOF mid-fill is permanent: the bytes are not there.
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "failed to fill whole buffer",
                    ));
                }
                Ok(n) => {
                    offset += n as u64;
                    let whole = n == buf.len();
                    let rest = buf;
                    buf = &mut rest[n..];
                    if !whole {
                        // Short read: transient; the loop continues at the
                        // advanced offset with no backoff (progress was
                        // made, so this cannot spin forever).
                        self.retries.inc(1);
                    }
                    attempts = 0;
                    backoff = self.policy.initial_backoff;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
                    ) =>
                {
                    attempts += 1;
                    if attempts > self.policy.max_retries {
                        self.exhausted.inc(1);
                        return Err(e);
                    }
                    self.retries.inc(1);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    // `Duration * 2` panics on overflow; saturate instead.
                    backoff = backoff
                        .checked_mul(2)
                        .unwrap_or(Duration::MAX)
                        .min(self.policy.max_backoff);
                }
                // Permanent (NotFound, PermissionDenied, UnexpectedEof,
                // corrupt-data errors raised above this layer, …): never
                // retried.
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn data_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = crate::tests::test_root("ndss_pread");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    fn no_backoff() -> RetryPolicy {
        RetryPolicy {
            max_retries: 8,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
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

    /// Under an aggressive injector (fault on every other call), every read
    /// still returns the right bytes, and faults were really injected.
    #[test]
    fn transient_faults_are_absorbed_bit_exactly() {
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 256) as u8).collect();
        let path = data_file("flaky.bin", &data);
        let faults = FaultConfig::new(0xF00D).fault_every(2);
        let stats = faults.stats();
        let options = ReadOptions {
            retry: no_backoff(),
            faults: Some(faults),
            mmap: false,
            chaos: None,
        };
        let f = RetryingFile::open(&path, &options).unwrap();
        let mut buf = vec![0u8; 100];
        for round in 0..300u64 {
            let off = (round * 31) % (8192 - 100);
            f.read_exact_at(&mut buf, off).unwrap();
            assert_eq!(&buf[..], &data[off as usize..off as usize + 100]);
        }
        assert!(stats.injected() > 0, "injector never fired");
        std::fs::remove_file(&path).ok();
    }

    /// The same seed injects the same fault sequence: two single-threaded
    /// passes over the same read pattern tally identical counts.
    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let data = vec![0xABu8; 4096];
        let path = data_file("deterministic.bin", &data);
        let run = |seed: u64| {
            let faults = FaultConfig::new(seed).fault_every(3);
            let stats = faults.stats();
            let options = ReadOptions {
                retry: no_backoff(),
                faults: Some(faults),
                mmap: false,
                chaos: None,
            };
            let f = RetryingFile::open(&path, &options).unwrap();
            let mut buf = [0u8; 64];
            for i in 0..200u64 {
                f.read_exact_at(&mut buf, (i * 13) % 4000).unwrap();
            }
            stats.injected()
        };
        assert_eq!(run(42), run(42));
        assert!(run(42) > 0);
        std::fs::remove_file(&path).ok();
    }

    /// Reads inside the hard range exhaust the retry budget and fail with
    /// the transient error; reads outside it keep working.
    #[test]
    fn hard_range_exhausts_retries() {
        let data = vec![0x55u8; 4096];
        let path = data_file("hard.bin", &data);
        let faults = FaultConfig::new(1).fault_every(0).hard_range(1024, 2048);
        let options = ReadOptions {
            retry: no_backoff(),
            faults: Some(faults),
            mmap: false,
            chaos: None,
        };
        let f = RetryingFile::open(&path, &options).unwrap();
        let mut buf = [0u8; 64];
        f.read_exact_at(&mut buf, 0).unwrap();
        f.read_exact_at(&mut buf, 3000).unwrap();
        let err = f.read_exact_at(&mut buf, 1500).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        std::fs::remove_file(&path).ok();
    }

    /// Memory-mapped reads return the same bytes as pread at every offset,
    /// EOF behaves identically, and the handle really is mapped (on unix).
    #[test]
    fn mmap_reads_match_pread() {
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(31) % 256) as u8)
            .collect();
        let path = data_file("mapped.bin", &data);
        let plain = RetryingFile::open(&path, &ReadOptions::default()).unwrap();
        let mapped = RetryingFile::open(&path, &ReadOptions::with_mmap()).unwrap();
        if cfg!(unix) {
            assert!(mapped.is_mapped(), "unix open with mmap should map");
        }
        assert_eq!(plain.len().unwrap(), mapped.len().unwrap());
        let mut a = [0u8; 97];
        let mut b = [0u8; 97];
        for i in 0..100u64 {
            let off = (i * 41) % (4096 - 97);
            plain.read_exact_at(&mut a, off).unwrap();
            mapped.read_exact_at(&mut b, off).unwrap();
            assert_eq!(a, b);
        }
        // Straddling EOF errors the same way on both paths.
        let mut buf = [0u8; 16];
        let pe = plain.read_exact_at(&mut buf, 4090).unwrap_err();
        let me = mapped.read_exact_at(&mut buf, 4090).unwrap_err();
        assert_eq!(pe.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(me.kind(), io::ErrorKind::UnexpectedEof);
        // Entirely past EOF too.
        let err = mapped.read_exact_at(&mut buf, 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&path).ok();
    }

    /// A fault injector forces the read path even when mmap is requested,
    /// and an empty file maps to an empty view without erroring.
    #[test]
    fn mmap_yields_to_faults_and_handles_empty_files() {
        let path = data_file("mapped_faults.bin", &[7u8; 256]);
        let options = ReadOptions {
            retry: no_backoff(),
            faults: Some(FaultConfig::new(9).fault_every(2)),
            mmap: true,
            chaos: None,
        };
        let f = RetryingFile::open(&path, &options).unwrap();
        assert!(!f.is_mapped(), "faults must win over mmap");
        let mut buf = [0u8; 32];
        f.read_exact_at(&mut buf, 100).unwrap();
        assert_eq!(buf, [7u8; 32]);
        std::fs::remove_file(&path).ok();

        let empty = data_file("mapped_empty.bin", &[]);
        let f = RetryingFile::open(&empty, &ReadOptions::with_mmap()).unwrap();
        assert_eq!(f.len().unwrap(), 0);
        let err = f.read_exact_at(&mut buf, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&empty).ok();
    }

    /// A chaos tap armed mid-stream makes a live reader fail in the armed
    /// mode, disarming heals it, and untargeted files never see the tap.
    #[test]
    fn chaos_tap_arms_and_disarms_on_a_live_reader() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let hit = data_file("chaos_target.bin", &data);
        let miss = data_file("other.bin", &data);
        let chaos = ChaosPlan::targeting("chaos_target");
        let options = ReadOptions {
            retry: no_backoff(),
            chaos: Some(chaos.clone()),
            ..ReadOptions::default()
        };
        let tapped = RetryingFile::open(&hit, &options).unwrap();
        let untapped = RetryingFile::open(&miss, &options).unwrap();
        assert_eq!(chaos.attached(), 1, "only the matched file attaches");

        let mut buf = [0u8; 32];
        tapped.read_exact_at(&mut buf, 8).unwrap();
        assert_eq!(&buf[..], &data[8..40], "dormant tap passes through");

        chaos.arm(ChaosMode::TransientStorm);
        let err = tapped.read_exact_at(&mut buf, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        untapped.read_exact_at(&mut buf, 8).unwrap();

        chaos.arm(ChaosMode::Eof);
        let err = tapped.read_exact_at(&mut buf, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        chaos.arm(ChaosMode::Deny);
        let err = tapped.read_exact_at(&mut buf, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);

        chaos.arm(ChaosMode::Corrupt);
        tapped.read_exact_at(&mut buf, 8).unwrap();
        let flipped: Vec<u8> = data[8..40].iter().map(|b| b ^ 0xA5).collect();
        assert_eq!(&buf[..], &flipped[..], "corrupt mode flips every byte");

        chaos.disarm();
        tapped.read_exact_at(&mut buf, 8).unwrap();
        assert_eq!(&buf[..], &data[8..40], "disarming heals the reader");
        assert!(chaos.injected() >= 4);
        std::fs::remove_file(&hit).ok();
        std::fs::remove_file(&miss).ok();
    }

    /// A chaos tap forces the positioned-read path so mapped decoding
    /// cannot bypass it; unmatched files still map.
    #[test]
    fn chaos_tap_forces_pread_over_mmap() {
        let path = data_file("chaos_mmap.bin", &[3u8; 512]);
        let chaos = ChaosPlan::targeting("chaos_mmap");
        let options = ReadOptions {
            mmap: true,
            chaos: Some(chaos.clone()),
            ..ReadOptions::default()
        };
        let f = RetryingFile::open(&path, &options).unwrap();
        assert!(!f.is_mapped(), "tapped files must not map");
        let other = data_file("plain_mmap.bin", &[4u8; 512]);
        let f = RetryingFile::open(&other, &options).unwrap();
        if cfg!(unix) {
            assert!(f.is_mapped(), "untapped files still map");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&other).ok();
    }

    /// Permanent errors are not retried: with a zero retry budget (any
    /// retry attempt would error as exhausted), EOF still surfaces as
    /// `UnexpectedEof` on the first attempt rather than as a transient.
    #[test]
    fn permanent_errors_never_retry() {
        let path = data_file("short.bin", &[1, 2, 3, 4]);
        let options = ReadOptions {
            retry: RetryPolicy {
                max_retries: 0,
                initial_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            },
            faults: None,
            mmap: false,
            chaos: None,
        };
        let f = RetryingFile::open(&path, &options).unwrap();
        let mut buf = [0u8; 16];
        // Entirely past EOF: the very first positioned read returns 0.
        let err = f.read_exact_at(&mut buf, 100).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&path).ok();
    }
}
