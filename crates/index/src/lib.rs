//! Inverted indexes over compact windows (paper §3.4, Algorithm 1).
//!
//! The index is the offline artifact of the system: for each of the `k`
//! hash functions, an inverted index maps a min-hash value `h` to the list
//! of compact windows `(T, l, c, r)` whose pivot hashes to `h`, ordered by
//! text id. At query time the processor fetches the `k` lists named by the
//! query's k-mins sketch and counts collisions (implemented in `ndss-query`).
//!
//! Three representations share the [`IndexAccess`] trait:
//!
//! * [`MemoryIndex`] — hash maps of posting vectors, built directly from a
//!   corpus. The paper's medium-scale path ("first builds an inverted index
//!   in memory and then writes it back to disk").
//! * [`DiskIndex`] — the on-disk format: one [`container`] file per hash
//!   function holding a hash-sorted key directory, the encoded posting
//!   lists (fixed-width v3, varint blocks v4, bitpacked blocks v6), and
//!   **zone maps** / block skip entries for long lists so a single text's
//!   postings can be located without reading the whole list (§3.5). All
//!   reads record their bytes into a caller-owned [`IoStats`]: on a mapped
//!   index, bytes read is the quantity a cold disk's IO time tracks.
//! * the builders in [`build`] — [`build::write_memory_index`] (Algorithm 1)
//!   and [`build::ExternalIndexBuilder`] (for corpora larger than memory:
//!   budget-sized runs through the in-memory pipeline, joined by the
//!   merge of [`merge`]). Both emit byte-identical files for the
//!   same corpus and configuration, which integration tests assert.
//!
//! The layout of one inverted-index file (`inv_<i>.ndsi`) is documented in
//! [`container`]. A fixed-width posting is 16 bytes, matching the paper's
//! "4 integers per compact window" accounting that yields the `8/t`
//! index-to-corpus size ratio.

pub mod build;
pub mod cache;
pub mod container;
pub mod disk;
mod file;
pub mod fixed;
mod gc;
pub mod ingest;
pub mod kill;
pub mod memory;
pub mod merge;
mod metrics;
pub mod packed;
mod record;
pub mod shard;
pub mod store;
pub mod varint;
pub mod wal;

pub use build::{build_and_write, write_memory_index, ExternalIndexBuilder, DEFAULT_MEMORY_BUDGET};
pub use cache::CacheConfig;
pub use disk::{inv_file_path, DiskIndex};
pub use file::{FaultMode, FaultPlan, ReadOptions};
pub use ingest::{verify_memtable, IngestIndex, IngestOptions, MemSegment, MemtableReport};
pub use kill::KillPoints;
pub use memory::MemoryIndex;
pub use merge::{merge_indexes, merge_indexes_with, MergeOptions};
pub use shard::{build_sharded, partition_texts, ShardedBuildOptions};
pub use store::{resolve_index_dir, resolve_segments, verify_segment, Manifest, Segment, Store};

use std::sync::Arc;

use ndss_corpus::TextId;
use ndss_hash::{HashValue, MinHasher};
use ndss_json::Json;
use ndss_windows::CompactWindow;

/// Errors raised by index construction and access.
#[derive(Debug)]
pub enum IndexError {
    /// A stored index file or directory is structurally invalid.
    Malformed(String),
    /// The queried hash-function number exceeds `k`.
    FunctionOutOfRange(usize, usize),
    /// Error from the corpus layer during construction.
    Corpus(ndss_corpus::CorpusError),
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Malformed(msg) => write!(f, "malformed index: {msg}"),
            IndexError::FunctionOutOfRange(func, k) => {
                write!(f, "hash function {func} out of range (index has k = {k})")
            }
            IndexError::Corpus(e) => e.fmt(f),
            IndexError::Io(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Corpus(e) => Some(e),
            IndexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ndss_corpus::CorpusError> for IndexError {
    fn from(e: ndss_corpus::CorpusError) -> Self {
        IndexError::Corpus(e)
    }
}

impl From<std::io::Error> for IndexError {
    fn from(e: std::io::Error) -> Self {
        IndexError::Io(e)
    }
}

/// One inverted-list entry: a compact window in an identified text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Posting {
    /// The text containing the window.
    pub text: TextId,
    /// The window within it.
    pub window: CompactWindow,
}

impl Posting {
    /// Size of the binary encoding: 4 × u32.
    pub const ENCODED_LEN: usize = 16;

    /// Encodes into 16 little-endian bytes.
    #[inline]
    pub fn encode(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.text.to_le_bytes());
        out[4..8].copy_from_slice(&self.window.l.to_le_bytes());
        out[8..12].copy_from_slice(&self.window.c.to_le_bytes());
        out[12..16].copy_from_slice(&self.window.r.to_le_bytes());
    }

    /// Decodes from 16 little-endian bytes.
    #[inline]
    pub fn decode(bytes: &[u8]) -> Self {
        let u = |o: usize| u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
        Posting {
            text: u(0),
            window: CompactWindow::new(u(4), u(8), u(12)),
        }
    }

    /// Decodes from 16 little-endian bytes, returning `None` when the window
    /// invariant `l ≤ c ≤ r` does not hold. Read paths use this on bytes
    /// that come from disk, so corrupt postings surface as
    /// [`IndexError::Malformed`] instead of tripping the `CompactWindow`
    /// debug assertion.
    #[inline]
    pub fn decode_checked(bytes: &[u8]) -> Option<Self> {
        let u = |o: usize| u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
        let (l, c, r) = (u(4), u(8), u(12));
        if l <= c && c <= r {
            Some(Posting {
                text: u(0),
                window: CompactWindow { l, c, r },
            })
        } else {
            None
        }
    }
}

/// The one universal hash family ([`ndss_hash::MultiplyShiftHash`]) as
/// `meta.json` names it. The field stays in the document — memtable
/// manifests fingerprint its text — and any other value is refused.
const HASH_FAMILY: &str = "MultiplyShift";

/// Everything needed to rebuild the query-side hashing and to sanity-check
/// compatibility between an index and a query configuration. Persisted as
/// `meta.json` in the index directory.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexConfig {
    /// Number of hash functions `k`.
    pub k: usize,
    /// Length threshold `t` (minimum near-duplicate sequence length).
    pub t: usize,
    /// Master seed the hash bank derives from.
    pub seed: u64,
    /// Number of texts in the indexed corpus.
    pub num_texts: usize,
    /// Total tokens in the indexed corpus.
    pub total_tokens: u64,
    /// Zone-map sampling step `s`: one zone entry per `s` postings. In the
    /// varint-block (v4) format this is the block length.
    pub zone_step: u32,
    /// Minimum list length (postings) for a list to receive a zone map
    /// (fixed-width v3 only; v4 and v6 block every list).
    pub zone_min_len: u32,
    /// Store posting lists as varint delta blocks (file format v4). Trades
    /// decode CPU for ~3–4× smaller lists — usually a win in the
    /// IO-dominated query regime. Defaults to off (v3, fixed-width
    /// postings).
    pub compress: bool,
    /// Store posting lists as bitpacked blocks of up to 128 postings with
    /// per-block skip entries (file format v6: full blocks SIMD-unpacked at
    /// query time, tails stored at their true length). Takes precedence
    /// over [`Self::compress`]. Defaults to off.
    pub packed: bool,
}

impl IndexConfig {
    /// A configuration with the paper's defaults (`k = 32`, `t = 25`,
    /// multiply–shift hashing, zone maps on lists ≥ 1024 postings with step
    /// 256). Corpus dimensions are filled in by the builders.
    pub fn new(k: usize, t: usize, seed: u64) -> Self {
        assert!(k >= 1, "need at least one hash function");
        assert!(t >= 1, "length threshold must be at least 1");
        Self {
            k,
            t,
            seed,
            num_texts: 0,
            total_tokens: 0,
            zone_step: 256,
            zone_min_len: 1024,
            compress: false,
            packed: false,
        }
    }

    /// Overrides the zone-map parameters.
    pub fn zone_map(mut self, step: u32, min_len: u32) -> Self {
        assert!(step >= 1, "zone step must be at least 1");
        self.zone_step = step;
        self.zone_min_len = min_len.max(1);
        self
    }

    /// Enables or disables varint-block (v4) posting storage.
    pub fn compressed(mut self, compress: bool) -> Self {
        self.compress = compress;
        self
    }

    /// Enables or disables block-bitpacked (v6) posting storage.
    pub fn bit_packed(mut self, packed: bool) -> Self {
        self.packed = packed;
        self
    }

    /// The on-disk format name new index files will use.
    pub fn format_name(&self) -> &'static str {
        if self.packed {
            "v6"
        } else if self.compress {
            "v4"
        } else {
            "v3"
        }
    }

    /// The hash bank this configuration describes.
    pub fn hasher(&self) -> MinHasher {
        MinHasher::new(self.k, self.seed)
    }

    /// Serializes to the `meta.json` document (pretty, one field per line).
    pub fn to_json_pretty(&self) -> String {
        Json::Object(vec![
            ("k".to_string(), Json::UInt(self.k as u64)),
            ("t".to_string(), Json::UInt(self.t as u64)),
            ("seed".to_string(), Json::UInt(self.seed)),
            ("family".to_string(), Json::Str(HASH_FAMILY.to_string())),
            ("num_texts".to_string(), Json::UInt(self.num_texts as u64)),
            ("total_tokens".to_string(), Json::UInt(self.total_tokens)),
            ("zone_step".to_string(), Json::UInt(self.zone_step as u64)),
            (
                "zone_min_len".to_string(),
                Json::UInt(self.zone_min_len as u64),
            ),
            ("compress".to_string(), Json::Bool(self.compress)),
            ("packed".to_string(), Json::Bool(self.packed)),
        ])
        .to_string_pretty()
    }

    /// Parses a `meta.json` document. `compress` and `packed` may be absent
    /// (older metadata predates the fields) and default to `false`.
    pub fn from_json(text: &str) -> Result<Self, IndexError> {
        let malformed = |what: &str| IndexError::Malformed(format!("meta.json: {what}"));
        let doc = Json::parse(text).map_err(|e| IndexError::Malformed(e.to_string()))?;
        let uint = |key: &str| doc.get(key).and_then(Json::as_u64);
        let family = doc
            .get("family")
            .and_then(Json::as_str)
            .ok_or_else(|| malformed("missing family"))?;
        if family != HASH_FAMILY {
            return Err(malformed("unknown hash family"));
        }
        // A corrupt meta.json must not drive absurd allocations downstream
        // (`DiskIndex::open` sizes per-function tables by `k`), so bound the
        // structural parameters before accepting them.
        let k = uint("k").ok_or_else(|| malformed("missing k"))?;
        if k == 0 || k > 65_536 {
            return Err(malformed(&format!("k = {k} out of range (1..=65536)")));
        }
        let t = uint("t").ok_or_else(|| malformed("missing t"))?;
        if t == 0 || t > u32::MAX as u64 {
            return Err(malformed(&format!("t = {t} out of range (1..=u32::MAX)")));
        }
        let zone_step = uint("zone_step").ok_or_else(|| malformed("missing zone_step"))?;
        if zone_step == 0 || zone_step > u32::MAX as u64 {
            return Err(malformed(&format!("zone_step = {zone_step} out of range")));
        }
        Ok(IndexConfig {
            k: k as usize,
            t: t as usize,
            seed: uint("seed").ok_or_else(|| malformed("missing seed"))?,
            num_texts: uint("num_texts").ok_or_else(|| malformed("missing num_texts"))? as usize,
            total_tokens: uint("total_tokens").ok_or_else(|| malformed("missing total_tokens"))?,
            zone_step: zone_step as u32,
            zone_min_len: uint("zone_min_len").ok_or_else(|| malformed("missing zone_min_len"))?
                as u32,
            compress: match doc.get("compress") {
                None => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| malformed("compress must be a bool"))?,
            },
            packed: match doc.get("packed") {
                None => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| malformed("packed must be a bool"))?,
            },
        })
    }
}

/// Cumulative IO accounting (reads and bytes read, plus hot cache hit/miss
/// counters). Every read records into the accumulator its caller owns — one
/// per query, so IO is attributed to the query that caused it even when
/// many queries run concurrently — and the owner folds it into the
/// process-wide registry once, with [`IoStats::publish`].
#[derive(Debug, Default)]
pub struct IoStats {
    reads: std::sync::atomic::AtomicU64,
    bytes: std::sync::atomic::AtomicU64,
    cache_hits: std::sync::atomic::AtomicU64,
    cache_misses: std::sync::atomic::AtomicU64,
    zone_hits: std::sync::atomic::AtomicU64,
    zone_misses: std::sync::atomic::AtomicU64,
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Number of read operations.
    pub reads: u64,
    /// Bytes read.
    pub bytes: u64,
    /// Posting-list reads served from the hot cache.
    pub cache_hits: u64,
    /// Posting-list reads that had to go to disk.
    pub cache_misses: u64,
    /// Zone-map consults served from the zone cache. Tracked separately
    /// from the posting-list counters: a long-list probe can miss the list
    /// cache yet hit the zone cache, and folding the two together
    /// overstated miss rates before the observability registry exposed it.
    pub zone_hits: u64,
    /// Zone-map consults that read the zone from disk.
    pub zone_misses: u64,
}

impl IoStats {
    /// Records one read of `bytes` bytes.
    pub fn record(&self, bytes: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.reads.fetch_add(1, Relaxed);
        self.bytes.fetch_add(bytes, Relaxed);
    }

    /// Records a hot-cache hit (no disk read performed).
    pub fn record_hit(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        self.cache_hits.fetch_add(1, Relaxed);
    }

    /// Records a hot-cache miss (the read fell through to disk).
    pub fn record_miss(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        self.cache_misses.fetch_add(1, Relaxed);
    }

    /// Records a zone-map consult served from the zone cache.
    pub fn record_zone_hit(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        self.zone_hits.fetch_add(1, Relaxed);
    }

    /// Records a zone-map consult that read the zone from disk.
    pub fn record_zone_miss(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        self.zone_misses.fetch_add(1, Relaxed);
    }

    /// Current totals.
    pub fn snapshot(&self) -> IoSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        IoSnapshot {
            reads: self.reads.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            cache_misses: self.cache_misses.load(Relaxed),
            zone_hits: self.zone_hits.load(Relaxed),
            zone_misses: self.zone_misses.load(Relaxed),
        }
    }
}

/// List lengths as ascending `(length, how many lists)` pairs, shared with
/// the index that computed them.
pub type LengthHistogram = Arc<[(u64, u64)]>;

/// A whole posting list as handed out by [`IndexAccess::shared_list`]:
/// lent by a memory-resident index, or shared with the disk index's hot
/// list cache. Either way the caller reads the index's own copy — nothing
/// is cloned per query. Dereferences to the postings, ordered by
/// `(text, l, c, r)`.
#[derive(Debug)]
pub enum SharedList<'a> {
    /// A slice owned by the index itself (memory indexes, absent lists).
    Borrowed(&'a [Posting]),
    /// A decoded list co-owned with the list cache: a hit hands out the
    /// resident allocation (count and postings in one), a miss decodes
    /// once and the cache keeps the same allocation.
    Cached(Arc<[Posting]>),
}

impl std::ops::Deref for SharedList<'_> {
    type Target = [Posting];

    #[inline]
    fn deref(&self) -> &[Posting] {
        match self {
            SharedList::Borrowed(list) => list,
            SharedList::Cached(list) => list,
        }
    }
}

/// Appends to `out` the postings of every text in `texts` (strictly
/// ascending) found in `list` (ordered by text): one forward pass, two
/// binary searches per text over the not-yet-passed tail.
pub(crate) fn probe_sorted(list: &[Posting], texts: &[TextId], out: &mut Vec<Posting>) {
    let mut rest = list;
    for &text in texts {
        rest = &rest[rest.partition_point(|p| p.text < text)..];
        let run = rest.partition_point(|p| p.text <= text);
        out.extend_from_slice(&rest[..run]);
        rest = &rest[run..];
    }
}

/// Uniform read access to an inverted index, memory- or disk-resident.
///
/// The query processor (`ndss-query`) is written against this trait, so the
/// same Algorithm 3 implementation serves both the paper's in-memory and
/// out-of-core settings.
///
/// Implementors provide the two accumulator-threading reads,
/// [`Self::shared_list`] and [`Self::probe_texts`]; [`Self::read_list`] and
/// [`Self::read_postings_for_text`] are owned-`Vec` conveniences over them.
/// Both reads take a caller-owned [`IoStats`] accumulator and record into
/// it only: an accumulator passed down the call chain cannot bleed into a
/// concurrent query's, and its owner folds it into the registry once
/// ([`IoStats::publish`]). Memory indexes perform no IO and ignore it.
pub trait IndexAccess: Send + Sync {
    /// The index's configuration (k, t, seed, …).
    fn config(&self) -> &IndexConfig;

    /// Length (in postings) of list `hash` under function `func`; 0 when the
    /// hash value is absent. Must be cheap: the query planner calls it `k`
    /// times per query to split short from long lists.
    fn list_len(&self, func: usize, hash: HashValue) -> Result<u64, IndexError>;

    /// The entire list `hash` under function `func` (empty when absent),
    /// ordered by `(text, l, c, r)`, without copying it out of its resident
    /// form: memory indexes lend their slice, the disk index shares the
    /// allocation its list cache holds. IO caused is recorded into `io`.
    fn shared_list(
        &self,
        func: usize,
        hash: HashValue,
        io: &IoStats,
    ) -> Result<SharedList<'_>, IndexError>;

    /// Batched probe: appends to `out` the postings of each text of
    /// `texts` within list `hash` under `func` — exactly the concatenation
    /// of one per-text probe per entry, in order. `texts` must be strictly
    /// ascending, which lets the index resolve the list once and make a
    /// single forward pass over it (binary search on a resident list, the
    /// per-block skip entries on v6, zone maps on v3), decoding any block
    /// at most once per call. IO caused is recorded into `io`.
    fn probe_texts(
        &self,
        func: usize,
        hash: HashValue,
        texts: &[TextId],
        io: &IoStats,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError>;

    /// [`Self::shared_list`] copied into an owned vector; the call's IO is
    /// published to the registry on its own.
    fn read_list(&self, func: usize, hash: HashValue) -> Result<Vec<Posting>, IndexError> {
        let io = IoStats::default();
        let list = self.shared_list(func, hash, &io).map(|list| list.to_vec());
        io.publish();
        list
    }

    /// Only the postings of `text` within list `hash` under `func`:
    /// [`Self::probe_texts`] for a single text, its IO published to the
    /// registry on its own.
    fn read_postings_for_text(
        &self,
        func: usize,
        hash: HashValue,
        text: TextId,
    ) -> Result<Vec<Posting>, IndexError> {
        let (io, mut out) = (IoStats::default(), Vec::new());
        let probed = self.probe_texts(func, hash, &[text], &io, &mut out);
        io.publish();
        probed.map(|()| out)
    }

    /// Distribution of list lengths under `func` — used to pick
    /// prefix-filtering cutoffs. Shared, not copied: a searcher derived per
    /// request reads the index's memo.
    fn list_length_histogram(&self, func: usize) -> Result<LengthHistogram, IndexError>;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A scratch root for one unit-test suite, unique to this process so
    /// concurrent `cargo test` runs on one host do not clobber each other.
    pub(crate) fn test_root(suite: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("{suite}_{}", std::process::id()))
    }

    #[test]
    fn posting_encode_decode_roundtrip() {
        let p = Posting {
            text: 123456,
            window: CompactWindow::new(7, 99, 4_000_000_000),
        };
        let mut buf = [0u8; Posting::ENCODED_LEN];
        p.encode(&mut buf);
        assert_eq!(Posting::decode(&buf), p);
    }

    #[test]
    fn io_stats_accumulate_and_diff() {
        let stats = IoStats::default();
        stats.record(100);
        let a = stats.snapshot();
        stats.record(50);
        let b = stats.snapshot();
        assert_eq!((a.reads, a.bytes), (1, 100));
        assert_eq!((b.reads, b.bytes), (2, 150));
        assert_eq!((b.reads - a.reads, b.bytes - a.bytes), (1, 50));
    }

    #[test]
    fn io_stats_add_and_cache_counters() {
        let stats = IoStats::default();
        stats.record(64);
        stats.record_hit();
        stats.record_miss();
        stats.record_zone_miss();
        assert_eq!(
            stats.snapshot(),
            IoSnapshot {
                reads: 1,
                bytes: 64,
                cache_hits: 1,
                cache_misses: 1,
                zone_hits: 0,
                zone_misses: 1,
            }
        );
    }

    #[test]
    fn config_builder_and_hasher() {
        let cfg = IndexConfig::new(8, 25, 42).zone_map(64, 128);
        assert_eq!(cfg.zone_step, 64);
        assert_eq!(cfg.zone_min_len, 128);
        let h = cfg.hasher();
        assert_eq!(h.k(), 8);
        assert_eq!(h.seed(), 42);
    }

    #[test]
    #[should_panic(expected = "length threshold")]
    fn config_rejects_zero_t() {
        IndexConfig::new(8, 0, 1);
    }

    #[test]
    fn config_json_roundtrip_preserves_large_seed() {
        let mut cfg = IndexConfig::new(32, 25, u64::MAX - 3).compressed(true);
        cfg.num_texts = 7;
        cfg.total_tokens = 12345;
        let text = cfg.to_json_pretty();
        assert_eq!(IndexConfig::from_json(&text).unwrap(), cfg);
    }

    #[test]
    fn config_json_names_the_one_hash_family_and_refuses_any_other() {
        let text = IndexConfig::new(4, 25, 9).to_json_pretty();
        assert!(text.contains("\"family\": \"MultiplyShift\""), "{text}");
        let other = text.replace("MultiplyShift", "Murmur");
        assert!(matches!(
            IndexConfig::from_json(&other),
            Err(IndexError::Malformed(m)) if m.contains("unknown hash family")
        ));
    }

    #[test]
    fn config_json_compress_defaults_false_when_absent() {
        let cfg = IndexConfig::new(4, 25, 9);
        let text = cfg.to_json_pretty();
        let stripped: String = text
            .lines()
            .filter(|l| !l.contains("compress"))
            .collect::<Vec<_>>()
            .join("\n")
            .replace(",\n}", "\n}");
        let back = IndexConfig::from_json(&stripped).unwrap();
        assert!(!back.compress);
        assert_eq!(back.seed, 9);
    }
}
