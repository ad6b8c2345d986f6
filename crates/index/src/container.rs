//! The index-file container (`inv_<i>.ndsi`): one header, one directory,
//! one open/verify path, shared by every posting encoding.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────────┐
//! │ header (80 B, CRC-32C over its first 76 bytes)                     │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ section 1 — payload: the encoded posting lists, ascending by hash  │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ section 2 — fixed-size entries: zone samples (v3) / blocks (v4,v6) │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ directory: num_keys × 40 B, sorted by hash (written last so        │
//! │            construction streams in one pass)                       │
//! └────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The container owns everything about the *file*: the atomic write
//! skeleton ([`Writer`]), the header and its checksums, overflow-checked
//! layout validation against the real file length before any allocation,
//! CRC-checked section loads, the directory walk, and the lookups that need
//! only the directory ([`Reader`]). An [`Encoding`] knows only how one
//! list's bytes are laid out — [`crate::fixed`] (v3), [`crate::varint`]
//! (v4), [`crate::packed`] (v6) each supply "encode this list", "parse and
//! validate my section-2 entries", "decode a whole list" and "probe
//! ascending texts". Dispatch is one `match` per list-level call.
//!
//! # Integrity and durability
//!
//! Files are written through [`ndss_durable::AtomicFile`]: the bytes land in
//! a temp file that is fsynced and renamed over the destination only in
//! [`Writer::finish`], so a crash mid-build can never leave a parseable
//! half-index under the final name. [`Reader::open`] verifies the header
//! checksum, checks every header-derived size against the file length, and
//! verifies the checksum of every section it loads (the directory, and the
//! block index of v4/v6); [`Reader::verify`] checks the sections `open`
//! left unread. Together they cover every byte of the file.
//!
//! Every byte a reader takes from the file — header, sections, a list's
//! blocks — comes through one primitive, `Reader::bytes`: a range borrowed
//! from the file's mapping (module `file`), where an attached fault plan
//! acts.

use std::borrow::Cow;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crc32c::Crc32c;
use ndss_corpus::TextId;
use ndss_durable::AtomicFile;
use ndss_hash::HashValue;

use crate::file::{IndexFile, ReadOptions};
use crate::fixed::ZoneCache;
use crate::{fixed, packed, varint, IndexConfig, IndexError, IoStats, Posting};

const MAGIC: &[u8; 4] = b"NDSI";
pub(crate) const HEADER_LEN: u64 = 80;
const DIR_ENTRY_LEN: usize = 40;

/// Lookup-table slots per directory key, at least: the load factor is ≤ ½.
const SLOTS_PER_KEY: usize = 2;
/// An empty lookup-table slot; it ends every probe sequence.
const EMPTY_SLOT: u32 = u32::MAX;
/// 2⁶⁴ / φ, odd. Min-hash keys are minima and crowd the low end of the
/// hash range, so one multiply spreads them before the top bits pick a slot.
const SLOT_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

// Byte offsets of the header fields (all little-endian; bytes 12..16 and
// 68..76 are reserved and zero).
const OFF_VERSION: usize = 4;
const OFF_FUNC_IDX: usize = 8;
const OFF_NUM_KEYS: usize = 16;
const OFF_NUM_POSTINGS: usize = 24;
const OFF_SECTION2_ENTRIES: usize = 32;
/// Zone step (v3) / postings per block (v4, v6).
const OFF_STEP: usize = 40;
/// Minimum zone-mapped list length (v3; zero otherwise).
const OFF_ZONE_MIN_LEN: usize = 44;
pub(crate) const OFF_SECTION1_LEN: usize = 48;
pub(crate) const OFF_SECTION1_CRC: usize = 56;
pub(crate) const OFF_SECTION2_CRC: usize = 60;
const OFF_DIR_CRC: usize = 64;
pub(crate) const OFF_HEADER_CRC: usize = 76;

/// How an index file lays out its posting lists. The header's version field
/// selects the variant; the parameters come from the two header words the
/// encodings share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Format v3: fixed 16-byte postings, plus one zone sample per
    /// `zone_step` postings for lists of at least `zone_min_len`.
    Fixed {
        /// Postings between two zone samples.
        zone_step: u32,
        /// Shortest list that receives a zone map.
        zone_min_len: u32,
    },
    /// Format v4: LEB128 delta blocks of up to `block_len` postings.
    Varint {
        /// Postings per block.
        block_len: u32,
    },
    /// Format v6: bitpacked blocks of up to 128 postings (a list's tail at
    /// its true length) with per-block skip entries. Version 5, the same
    /// entries over tails zero-filled to 128, is no longer read.
    Packed,
}

impl Encoding {
    /// The encoding `config` asks new index files to use.
    pub fn of(config: &IndexConfig) -> Self {
        if config.packed {
            Self::Packed
        } else if config.compress {
            Self::Varint {
                block_len: config.zone_step,
            }
        } else {
            Self::Fixed {
                zone_step: config.zone_step,
                zone_min_len: config.zone_min_len,
            }
        }
    }

    fn version(self) -> u32 {
        match self {
            Self::Fixed { .. } => 3,
            Self::Varint { .. } => 4,
            Self::Packed => 6,
        }
    }

    /// The header's `step` and `zone_min_len` words.
    fn header_params(self) -> (u32, u32) {
        match self {
            Self::Fixed {
                zone_step,
                zone_min_len,
            } => (zone_step, zone_min_len),
            Self::Varint { block_len } => (block_len, 0),
            Self::Packed => (packed::BLOCK_LEN as u32, 0),
        }
    }

    fn section2_entry_len(self) -> usize {
        match self {
            Self::Fixed { .. } => fixed::ZONE_ENTRY_LEN,
            Self::Varint { .. } => varint::BLOCK_ENTRY_LEN,
            Self::Packed => packed::BLOCK_ENTRY_LEN,
        }
    }

    /// What the two payload sections are called in error messages.
    fn section_names(self) -> (&'static str, &'static str) {
        match self {
            Self::Fixed { .. } => ("postings section", "zone section"),
            _ => ("blocks section", "block index"),
        }
    }

    /// The four words that follow the hash in a 40-byte directory entry.
    fn dir_words(self, e: &DirEntry) -> [u64; 4] {
        match self {
            Self::Fixed { .. } => [e.start, e.count, e.aux_start, e.aux_count],
            _ => [e.aux_start, e.aux_count, e.count, e.start],
        }
    }

    fn dir_entry(self, hash: HashValue, w: [u64; 4]) -> DirEntry {
        let (start, count, aux_start, aux_count) = match self {
            Self::Fixed { .. } => (w[0], w[1], w[2], w[3]),
            _ => (w[3], w[2], w[0], w[1]),
        };
        DirEntry {
            hash,
            count,
            start,
            aux_start,
            aux_count,
        }
    }
}

/// Directory entry for one inverted list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DirEntry {
    /// The min-hash value keying the list.
    pub hash: HashValue,
    /// Number of postings in the list.
    pub count: u64,
    /// Where the list starts in section 1, in the encoding's unit: a
    /// posting index (v3) or a byte offset (v4, v6).
    pub start: u64,
    /// Index of the list's first section-2 entry; `u64::MAX` on a v3 list
    /// too short for a zone map.
    pub aux_start: u64,
    /// Number of section-2 entries (zone samples / blocks) the list owns.
    pub aux_count: u64,
}

impl DirEntry {
    /// The list's section-2 entries as an index range (empty when it has
    /// none).
    pub(crate) fn aux_range(&self) -> std::ops::Range<usize> {
        if self.aux_count == 0 {
            return 0..0;
        }
        self.aux_start as usize..(self.aux_start + self.aux_count) as usize
    }
}

/// A section-2 block entry as the directory cross-check sees it.
pub(crate) trait BlockSpan {
    /// Byte offset of the block within section 1.
    fn byte_offset(&self) -> u64;
    /// Postings stored in the block.
    fn posting_count(&self) -> u32;
}

/// `a * b`, or [`IndexError::Malformed`] naming `what` on overflow.
pub(crate) fn mul(a: u64, b: u64, what: &str) -> Result<u64, IndexError> {
    a.checked_mul(b)
        .ok_or_else(|| IndexError::Malformed(format!("{what} overflows ({a} * {b})")))
}

/// `a + b`, or [`IndexError::Malformed`] naming `what` on overflow.
pub(crate) fn add(a: u64, b: u64, what: &str) -> Result<u64, IndexError> {
    a.checked_add(b)
        .ok_or_else(|| IndexError::Malformed(format!("{what} overflows ({a} + {b})")))
}

fn crc_mismatch(what: &str, path: &Path, stored: u32, actual: u32) -> IndexError {
    IndexError::Malformed(format!(
        "{what} checksum mismatch in {} (stored {stored:#010x}, computed {actual:#010x})",
        path.display()
    ))
}

// ------------------------------------------------------------------ writer

/// Section 1 as the encodings see it while a file is written: append-only,
/// with the running byte length and CRC-32C the header will record.
pub(crate) struct Payload {
    out: BufWriter<AtomicFile>,
    crc: Crc32c,
    len: u64,
}

impl Payload {
    /// Appends encoded list bytes.
    #[inline]
    pub(crate) fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.crc.update(bytes);
        self.out.write_all(bytes)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Bytes appended so far — the offset the next block will start at.
    #[inline]
    pub(crate) fn len(&self) -> u64 {
        self.len
    }
}

/// Streaming writer for one inverted-index file: lists go out one at a
/// time in ascending hash order, section-2 entries and the directory
/// (40 bytes per distinct min-hash value) are buffered and appended by
/// [`Self::finish`], which also patches in the header.
pub struct Writer {
    payload: Payload,
    encoding: Encoding,
    func_idx: u32,
    dir: Vec<DirEntry>,
    /// Serialized section-2 entries, in write order.
    section2: Vec<u8>,
    postings_written: u64,
    last_hash: Option<HashValue>,
    /// Per-block staging buffer of the block encodings.
    scratch: Vec<u8>,
}

impl Writer {
    /// Creates the file (via a temp path; the destination appears only on
    /// [`Self::finish`]) and reserves header space.
    pub fn create(path: &Path, func_idx: u32, encoding: Encoding) -> Result<Self, IndexError> {
        let encoding = match encoding {
            Encoding::Fixed {
                zone_step,
                zone_min_len,
            } => {
                assert!(zone_step >= 1, "zone step must be at least 1");
                Encoding::Fixed {
                    zone_step,
                    zone_min_len: zone_min_len.max(1),
                }
            }
            Encoding::Varint { block_len } => {
                assert!(block_len >= 1, "block length must be at least 1");
                encoding
            }
            Encoding::Packed => encoding,
        };
        let mut out = BufWriter::new(AtomicFile::create(path)?);
        out.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(Self {
            payload: Payload {
                out,
                crc: Crc32c::new(),
                len: 0,
            },
            encoding,
            func_idx,
            dir: Vec::new(),
            section2: Vec::new(),
            postings_written: 0,
            last_hash: None,
            scratch: Vec::new(),
        })
    }

    /// Writes one complete list. Lists must arrive in strictly ascending
    /// hash order, each list's postings sorted by `(text, l, c, r)`; empty
    /// lists are skipped.
    pub fn write_list(&mut self, hash: HashValue, postings: &[Posting]) -> Result<(), IndexError> {
        if postings.is_empty() {
            return Ok(());
        }
        if let Some(last) = self.last_hash {
            if hash <= last {
                return Err(IndexError::Malformed(format!(
                    "lists must be written in ascending hash order ({hash:#x} after {last:#x})"
                )));
            }
        }
        debug_assert!(
            postings.windows(2).all(|w| w[0] <= w[1]),
            "list postings must be sorted"
        );
        self.last_hash = Some(hash);

        let entry_len = self.encoding.section2_entry_len();
        let aux_start = (self.section2.len() / entry_len) as u64;
        let start = match self.encoding {
            Encoding::Fixed {
                zone_step,
                zone_min_len,
            } => {
                fixed::encode_list(
                    postings,
                    zone_step,
                    zone_min_len,
                    &mut self.payload,
                    &mut self.section2,
                )?;
                self.postings_written
            }
            Encoding::Varint { block_len } => {
                let start = self.payload.len();
                varint::encode_list(
                    postings,
                    block_len,
                    &mut self.scratch,
                    &mut self.payload,
                    &mut self.section2,
                )?;
                start
            }
            Encoding::Packed => {
                let start = self.payload.len();
                packed::encode_list(
                    postings,
                    &mut self.scratch,
                    &mut self.payload,
                    &mut self.section2,
                )?;
                start
            }
        };
        let aux_count = (self.section2.len() / entry_len) as u64 - aux_start;
        self.postings_written += postings.len() as u64;
        self.dir.push(DirEntry {
            hash,
            count: postings.len() as u64,
            start,
            // Only a v3 list below `zone_min_len` adds no section-2 entry.
            aux_start: if aux_count == 0 { u64::MAX } else { aux_start },
            aux_count,
        });
        Ok(())
    }

    /// Appends section 2 and the directory, rewrites the header, fsyncs,
    /// and atomically publishes the file at its destination path. Returns
    /// the final file size in bytes.
    pub fn finish(self) -> Result<u64, IndexError> {
        let Payload {
            mut out,
            crc: section1_crc,
            len: section1_len,
        } = self.payload;
        out.write_all(&self.section2)?;
        let mut dir_crc = Crc32c::new();
        let mut entry = [0u8; DIR_ENTRY_LEN];
        for d in &self.dir {
            entry[0..8].copy_from_slice(&d.hash.to_le_bytes());
            for (i, word) in self.encoding.dir_words(d).iter().enumerate() {
                entry[8 + 8 * i..16 + 8 * i].copy_from_slice(&word.to_le_bytes());
            }
            dir_crc.update(&entry);
            out.write_all(&entry)?;
        }
        out.flush()?;
        let mut file = out.into_inner().map_err(|e| e.into_error())?;
        let size = file.stream_position()?;

        let (step, zone_min_len) = self.encoding.header_params();
        let section2_entries = (self.section2.len() / self.encoding.section2_entry_len()) as u64;
        let mut header = [0u8; HEADER_LEN as usize];
        let mut put = |offset: usize, bytes: &[u8]| {
            header[offset..offset + bytes.len()].copy_from_slice(bytes);
        };
        put(0, MAGIC);
        put(OFF_VERSION, &self.encoding.version().to_le_bytes());
        put(OFF_FUNC_IDX, &self.func_idx.to_le_bytes());
        put(OFF_NUM_KEYS, &(self.dir.len() as u64).to_le_bytes());
        put(OFF_NUM_POSTINGS, &self.postings_written.to_le_bytes());
        put(OFF_SECTION2_ENTRIES, &section2_entries.to_le_bytes());
        put(OFF_STEP, &step.to_le_bytes());
        put(OFF_ZONE_MIN_LEN, &zone_min_len.to_le_bytes());
        put(OFF_SECTION1_LEN, &section1_len.to_le_bytes());
        put(OFF_SECTION1_CRC, &section1_crc.finalize().to_le_bytes());
        put(
            OFF_SECTION2_CRC,
            &crc32c::crc32c(&self.section2).to_le_bytes(),
        );
        put(OFF_DIR_CRC, &dir_crc.finalize().to_le_bytes());
        let header_crc = crc32c::crc32c(&header[..OFF_HEADER_CRC]);
        header[OFF_HEADER_CRC..].copy_from_slice(&header_crc.to_le_bytes());
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.commit()?;
        Ok(size)
    }
}

// ------------------------------------------------------------------ reader

/// The section-2 entries a reader keeps resident.
enum Lists {
    /// v3 zone samples stay on disk, read per long list (and cached by the
    /// caller's [`ZoneCache`]).
    Fixed,
    Varint(Vec<varint::Block>),
    Packed(Vec<packed::Block>),
}

/// Read-only handle to one inverted-index file. The directory (and the
/// block index of v4/v6) lives in memory; list bytes are borrowed from the
/// file's mapping on demand, with IO accounting, so a shared reader serves
/// any number of threads with no lock.
pub struct Reader {
    file: IndexFile,
    path: PathBuf,
    encoding: Encoding,
    func_idx: u32,
    num_postings: u64,
    dir: Vec<DirEntry>,
    /// Open-addressing table over `dir`, built at open: key `h` holds the
    /// first free slot from [`home_slot`] on (linear probing, wrapping), as
    /// its directory position; a lookup stops at `h` or at an empty slot.
    slots: Vec<u32>,
    lists: Lists,
    section1_len: u64,
    section2_len: u64,
    section1_crc: u32,
    section2_crc: u32,
}

impl std::fmt::Debug for Reader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reader")
            .field("encoding", &self.encoding)
            .field("func_idx", &self.func_idx)
            .field("keys", &self.dir.len())
            .field("postings", &self.num_postings)
            .finish()
    }
}

impl Reader {
    /// Opens the file with default IO options (mapped, fault injection
    /// off). See [`Self::open_with`].
    pub fn open(path: &Path) -> Result<Self, IndexError> {
        Self::open_with(path, &ReadOptions::default())
    }

    /// Opens the file: one header read, header checksum, version dispatch,
    /// every header-derived size validated against the real file length
    /// (overflow-checked, before any allocation), CRC-checked loads of the
    /// directory and the resident section-2 entries, and structural
    /// validation of both. Every check runs on ranges borrowed from the
    /// file, which is mapped, with the fault plan of `io` attached.
    pub fn open_with(path: &Path, io: &ReadOptions) -> Result<Self, IndexError> {
        let malformed = |what: String| IndexError::Malformed(format!("{}: {what}", path.display()));
        let file = IndexFile::open(path, io)?;
        let file_len = file.len();
        let have = HEADER_LEN.min(file_len) as usize;
        let header = file.bytes(0, have)?;
        // Magic before version, version before length and checksum: a
        // non-index file never reaches a parser, and a pre-checksum (v1/v2)
        // or zero-filled-tail (v5) file is named for what it is rather than
        // failing a CRC it never carried or a layout check it cannot pass.
        if have < 8 || &header[0..4] != MAGIC {
            return Err(malformed("not an index file (bad magic)".into()));
        }
        let u32_at = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().expect("8 bytes"));
        let version = u32_at(OFF_VERSION);
        if ![3, 4, 6].contains(&version) {
            return Err(malformed(format!(
                "unsupported index file version {version}"
            )));
        }
        if (have as u64) < HEADER_LEN {
            return Err(malformed(format!(
                "too short ({file_len} B) to hold an index header"
            )));
        }
        let step = u32_at(OFF_STEP);
        let encoding = match version {
            3 => Encoding::Fixed {
                zone_step: step,
                zone_min_len: u32_at(OFF_ZONE_MIN_LEN),
            },
            4 => Encoding::Varint { block_len: step },
            _ => Encoding::Packed,
        };
        let stored = u32_at(OFF_HEADER_CRC);
        let actual = crc32c::crc32c(&header[..OFF_HEADER_CRC]);
        if stored != actual {
            return Err(crc_mismatch("header", path, stored, actual));
        }
        if encoding == Encoding::Packed && step as usize != packed::BLOCK_LEN {
            return Err(malformed(format!("unsupported packed block length {step}")));
        }
        let func_idx = u32_at(OFF_FUNC_IDX);
        let num_keys = u64_at(OFF_NUM_KEYS);
        let num_postings = u64_at(OFF_NUM_POSTINGS);
        let section2_entries = u64_at(OFF_SECTION2_ENTRIES);
        let section1_len = u64_at(OFF_SECTION1_LEN);

        // The layout is fully determined by the header: the sections must
        // add up to the file length exactly.
        let section2_len = mul(
            section2_entries,
            encoding.section2_entry_len() as u64,
            "section-2 size",
        )?;
        let dir_len = mul(num_keys, DIR_ENTRY_LEN as u64, "directory size")?;
        let section2_start = add(HEADER_LEN, section1_len, "file size")?;
        let dir_start = add(section2_start, section2_len, "file size")?;
        let expected = add(dir_start, dir_len, "file size")?;
        if expected != file_len {
            return Err(malformed(format!(
                "header promises {expected} B ({num_keys} keys, {num_postings} postings, \
                 {section2_entries} section-2 entries, {section1_len} payload bytes) but the \
                 file is {file_len} B"
            )));
        }
        if num_keys >= u64::from(EMPTY_SLOT) {
            return Err(malformed(format!("too many keys ({num_keys})")));
        }
        if matches!(encoding, Encoding::Fixed { .. })
            && mul(num_postings, Posting::ENCODED_LEN as u64, "postings size")? != section1_len
        {
            return Err(malformed(
                "postings-section length field disagrees with posting count".into(),
            ));
        }

        let load = |offset: u64, len: u64, crc: u32, what: &str| {
            let bytes = file.bytes(offset, len as usize)?;
            let actual = crc32c::crc32c(&bytes);
            if actual != crc {
                return Err(crc_mismatch(what, path, crc, actual));
            }
            Ok(bytes)
        };
        let (section1_crc, section2_crc) = (u32_at(OFF_SECTION1_CRC), u32_at(OFF_SECTION2_CRC));
        let load_section2 = || {
            let name = encoding.section_names().1;
            load(section2_start, section2_len, section2_crc, name)
        };
        let lists = match encoding {
            Encoding::Fixed { .. } => Lists::Fixed,
            Encoding::Varint { .. } => {
                Lists::Varint(varint::parse_blocks(&load_section2()?, section1_len, path)?)
            }
            Encoding::Packed => {
                Lists::Packed(packed::parse_blocks(&load_section2()?, section1_len, path)?)
            }
        };
        let dir_bytes = load(dir_start, dir_len, u32_at(OFF_DIR_CRC), "directory")?;
        let dir: Vec<DirEntry> = dir_bytes
            .chunks_exact(DIR_ENTRY_LEN)
            .map(|chunk| {
                let g = |o: usize| u64::from_le_bytes(chunk[o..o + 8].try_into().expect("8 bytes"));
                encoding.dir_entry(g(0), [g(8), g(16), g(24), g(32)])
            })
            .collect();
        check_directory(&dir, encoding, num_postings, section2_entries)?;
        match &lists {
            Lists::Fixed => {}
            Lists::Varint(blocks) => check_block_lists(&dir, blocks, step)?,
            Lists::Packed(blocks) => check_block_lists(&dir, blocks, step)?,
        }
        let mut slots = vec![EMPTY_SLOT; (dir.len() * SLOTS_PER_KEY).next_power_of_two().max(2)];
        for (i, d) in dir.iter().enumerate() {
            let mut s = home_slot(d.hash, slots.len());
            while slots[s] != EMPTY_SLOT {
                s = (s + 1) & (slots.len() - 1);
            }
            slots[s] = i as u32;
        }
        Ok(Self {
            file,
            path: path.to_owned(),
            encoding,
            func_idx,
            num_postings,
            dir,
            slots,
            lists,
            section1_len,
            section2_len,
            section1_crc,
            section2_crc,
        })
    }

    /// Checks the sections `open` did not load — the payload, and the zone
    /// section of a v3 file — against their header checksums. `open` plus
    /// `verify` together cover every byte of the file.
    pub fn verify(&self, stats: &IoStats) -> Result<(), IndexError> {
        let (payload, section2) = self.encoding.section_names();
        let mut sections = vec![(HEADER_LEN, self.section1_len, self.section1_crc, payload)];
        if matches!(self.lists, Lists::Fixed) {
            let at = HEADER_LEN + self.section1_len;
            sections.push((at, self.section2_len, self.section2_crc, section2));
        }
        for (offset, len, expect, what) in sections {
            // A failed read stays `Io` with its kind intact, so a breaker
            // classifies it as the read fault it is; only a checksum
            // mismatch is `Malformed`.
            let actual = crc32c::crc32c(&self.bytes(offset, len as usize, stats)?);
            if actual != expect {
                return Err(crc_mismatch(what, &self.path, expect, actual));
            }
        }
        Ok(())
    }

    /// The posting encoding recorded in the header.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// The hash-function number recorded in the header.
    pub fn func_idx(&self) -> u32 {
        self.func_idx
    }

    /// Total postings in this file.
    pub fn num_postings(&self) -> u64 {
        self.num_postings
    }

    /// Number of distinct min-hash keys.
    pub fn num_keys(&self) -> usize {
        self.dir.len()
    }

    /// The `i`-th smallest min-hash key, if any (the directory is
    /// hash-sorted).
    pub fn hash_at(&self, i: usize) -> Option<HashValue> {
        self.dir.get(i).map(|d| d.hash)
    }

    /// The directory position of list `hash`: one probe sequence of the
    /// lookup table.
    pub(crate) fn find(&self, hash: HashValue) -> Option<usize> {
        let mut s = home_slot(hash, self.slots.len());
        while self.slots[s] != EMPTY_SLOT {
            let i = self.slots[s] as usize;
            if self.dir[i].hash == hash {
                return Some(i);
            }
            s = (s + 1) & (self.slots.len() - 1);
        }
        None
    }

    /// Length (postings) of list `hash`, 0 if absent.
    pub fn list_len(&self, hash: HashValue) -> u64 {
        self.find(hash).map_or(0, |i| self.dir[i].count)
    }

    /// `(length, lists)` histogram over all lists, ascending by length.
    pub fn length_histogram(&self) -> Vec<(u64, u64)> {
        let mut hist = std::collections::HashMap::new();
        for d in &self.dir {
            *hist.entry(d.count).or_insert(0u64) += 1;
        }
        let mut out: Vec<(u64, u64)> = hist.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Reads a whole list (empty when `hash` is absent).
    pub fn read_list(&self, hash: HashValue, stats: &IoStats) -> Result<Vec<Posting>, IndexError> {
        let mut out = Vec::new();
        if let Some(i) = self.find(hash) {
            self.read_list_at(i, &mut out, stats)?;
        }
        Ok(out)
    }

    /// Appends the whole list at directory position `i` (the list of
    /// [`Self::hash_at`]`(i)`) to `out` — what a scan over the directory
    /// reads through: no lookup, and one buffer for every list.
    pub fn read_list_at(
        &self,
        i: usize,
        out: &mut Vec<Posting>,
        stats: &IoStats,
    ) -> Result<(), IndexError> {
        let entry = &self.dir[i];
        let aux = entry.aux_range();
        match &self.lists {
            Lists::Fixed => fixed::read_range(self, entry, 0, entry.count, stats, out),
            Lists::Varint(blocks) => {
                varint::read_blocks(self, blocks, aux.start, aux.end, stats, out)
            }
            Lists::Packed(blocks) => packed::read_blocks(self, &blocks[aux], stats, out),
        }
    }

    /// Appends to `out` the postings of each text of `texts` (strictly
    /// ascending) in the list at directory position `i`, reading only the
    /// covering part of the list: zone-bracketed posting ranges (v3, zone
    /// maps shared through `zones`), covering blocks (v4), or one forward
    /// pass over the skip entries (v6).
    pub(crate) fn probe_texts(
        &self,
        i: usize,
        texts: &[TextId],
        zones: &ZoneCache,
        stats: &IoStats,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        debug_assert!(texts.windows(2).all(|w| w[0] < w[1]));
        let entry = &self.dir[i];
        let aux = entry.aux_range();
        match &self.lists {
            Lists::Fixed => fixed::probe_texts(self, entry, texts, zones, stats, out),
            Lists::Varint(blocks) => varint::probe_texts(self, blocks, aux, texts, stats, out),
            Lists::Packed(blocks) => packed::probe_texts(self, &blocks[aux], texts, stats, out),
        }
    }

    /// [`Self::probe_texts`] over `list`, the whole of list `i` already
    /// decoded: one block of it per text on a packed file (seeking by the
    /// skip entries), the whole of it otherwise.
    pub(crate) fn probe_resident(
        &self,
        i: usize,
        list: &[Posting],
        texts: &[TextId],
        out: &mut Vec<Posting>,
    ) {
        match &self.lists {
            Lists::Packed(blocks) => {
                packed::probe_resident(&blocks[self.dir[i].aux_range()], list, texts, out)
            }
            _ => crate::probe_sorted(list, texts, out),
        }
    }

    // What the encodings read through.

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Byte length of section 1.
    pub(crate) fn payload_len(&self) -> u64 {
        self.section1_len
    }

    /// File bytes `[offset, offset + len)`, borrowed from the mapping and
    /// counted as one read into `stats`. A range outside the file is
    /// `Malformed`: the header and block index that placed it lied. A failed
    /// read is `Io`, its kind kept and the file named.
    pub(crate) fn bytes(
        &self,
        offset: u64,
        len: usize,
        stats: &IoStats,
    ) -> Result<Cow<'_, [u8]>, IndexError> {
        let path = self.path.display();
        let end = offset.checked_add(len as u64);
        if end.is_none_or(|end| end > self.file.len()) {
            let msg = format!("{path} is shorter than its header promises");
            return Err(IndexError::Malformed(msg));
        }
        let bytes = self.file.bytes(offset, len).map_err(|e| {
            let msg = format!("cannot read {len} B of {path} at offset {offset}: {e}");
            std::io::Error::new(e.kind(), msg)
        })?;
        stats.record(len as u64);
        Ok(bytes)
    }
}

/// The slot of a `len`-slot lookup table (a power of two, at least 2) that
/// a probe for `hash` starts at: the top bits of the mixed key.
fn home_slot(hash: HashValue, len: usize) -> usize {
    (hash.wrapping_mul(SLOT_MIX) >> (64 - len.trailing_zeros())) as usize
}

/// Structural validation shared by every encoding: strictly ascending keys,
/// non-empty lists, section-2 ranges contiguous and covering the section
/// exactly, posting counts adding up to the header total — and, for v3,
/// posting ranges contiguous from zero.
fn check_directory(
    dir: &[DirEntry],
    encoding: Encoding,
    num_postings: u64,
    section2_entries: u64,
) -> Result<(), IndexError> {
    let fixed = matches!(encoding, Encoding::Fixed { .. });
    if dir.windows(2).any(|w| w[0].hash >= w[1].hash) {
        return Err(IndexError::Malformed(
            "directory keys are not strictly ascending".into(),
        ));
    }
    let mut postings = 0u64;
    let mut next_aux = 0u64;
    for d in dir {
        if d.count == 0 || (fixed && d.start != postings) {
            return Err(IndexError::Malformed(format!(
                "directory entry {:#x} has a non-contiguous or empty posting range",
                d.hash
            )));
        }
        postings = add(postings, d.count, "posting range")?;
        if fixed && d.aux_start == u64::MAX {
            if d.aux_count != 0 {
                return Err(IndexError::Malformed(format!(
                    "directory entry {:#x} has zone entries but no zone map",
                    d.hash
                )));
            }
            continue;
        }
        if d.aux_start != next_aux || d.aux_count == 0 {
            return Err(IndexError::Malformed(format!(
                "directory entry {:#x} has a non-contiguous or empty section-2 range",
                d.hash
            )));
        }
        next_aux = add(d.aux_start, d.aux_count, "section-2 range")?;
        if next_aux > section2_entries {
            return Err(IndexError::Malformed(format!(
                "directory entry {:#x} points past section 2",
                d.hash
            )));
        }
    }
    if postings != num_postings || next_aux != section2_entries {
        return Err(IndexError::Malformed(
            "directory does not cover the posting count / section 2".into(),
        ));
    }
    Ok(())
}

/// Cross-checks a block encoding's directory against its (already
/// validated) block index: each list starts at its first block's byte
/// offset, its blocks hold exactly its postings, and every block but its
/// last holds `block_len`. `check_directory` has already bounded every
/// block range.
fn check_block_lists<B: BlockSpan>(
    dir: &[DirEntry],
    blocks: &[B],
    block_len: u32,
) -> Result<(), IndexError> {
    for d in dir {
        let list = &blocks[d.aux_range()];
        if d.start != list[0].byte_offset() {
            return Err(IndexError::Malformed(format!(
                "directory entry {:#x} disagrees with the block index on its byte offset",
                d.hash
            )));
        }
        let in_blocks: u64 = list.iter().map(|b| b.posting_count() as u64).sum();
        let inner = &list[..list.len() - 1];
        if in_blocks != d.count || inner.iter().any(|b| b.posting_count() != block_len) {
            return Err(IndexError::Malformed(format!(
                "directory entry {:#x} claims {} postings but its blocks hold {in_blocks} \
                 (every one but the last {block_len})",
                d.hash, d.count
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::file::{FaultMode, FaultPlan};
    use ndss_windows::CompactWindow;
    use std::collections::BTreeMap;

    /// One of each encoding, with zone/block parameters small enough that
    /// test lists span several zone samples and v4 blocks.
    pub(crate) const ENCODINGS: [Encoding; 3] = [
        Encoding::Fixed {
            zone_step: 4,
            zone_min_len: 8,
        },
        Encoding::Varint { block_len: 8 },
        Encoding::Packed,
    ];

    /// The directory entry of list `hash`, which `r` must hold.
    pub(crate) fn entry(r: &Reader, hash: HashValue) -> &DirEntry {
        &r.dir[r.find(hash).expect("the list is in the directory")]
    }

    pub(crate) fn posting(text: u32, l: u32) -> Posting {
        Posting {
            text,
            window: CompactWindow::new(l, l + 3, l + 20),
        }
    }

    pub(crate) fn temp(name: &str) -> PathBuf {
        let dir = crate::tests::test_root("ndss_container_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Writes `lists` (ascending hash) as function 5 in `encoding`.
    pub(crate) fn write_file(path: &Path, encoding: Encoding, lists: &[(u64, Vec<Posting>)]) {
        let mut w = Writer::create(path, 5, encoding).unwrap();
        for (hash, postings) in lists {
            w.write_list(*hash, postings).unwrap();
        }
        w.finish().unwrap();
    }

    /// A short list, an empty one (skipped), and one long enough for
    /// several zone samples, v4 blocks and packed blocks.
    fn sample_lists() -> Vec<(u64, Vec<Posting>)> {
        vec![
            (10, (0..5).map(|i| posting(i, i)).collect()),
            (15, Vec::new()),
            (20, (0..300).map(|i| posting(i / 3, i % 3)).collect()),
        ]
    }

    fn assert_malformed(result: Result<Reader, IndexError>, needle: &str, context: &str) {
        match result {
            Err(IndexError::Malformed(msg)) => {
                assert!(
                    msg.contains(needle),
                    "{context}: unexpected message {msg:?}"
                )
            }
            Err(other) => panic!("{context}: expected Malformed, got {other}"),
            Ok(_) => panic!("{context}: opened"),
        }
    }

    #[test]
    fn roundtrip_and_directory_lookups() {
        for encoding in ENCODINGS {
            let path = temp(&format!("roundtrip_v{}.ndsi", encoding.version()));
            let lists = sample_lists();
            write_file(&path, encoding, &lists);
            let r = Reader::open(&path).unwrap();
            assert_eq!(r.encoding(), encoding);
            assert_eq!(r.func_idx(), 5);
            assert_eq!(r.num_keys(), 2, "the empty list is skipped");
            assert_eq!(r.num_postings(), 305);
            assert_eq!(
                (r.hash_at(0), r.hash_at(1), r.hash_at(2)),
                (Some(10), Some(20), None)
            );
            assert_eq!(
                (r.list_len(10), r.list_len(20), r.list_len(15)),
                (5, 300, 0)
            );
            assert_eq!(r.length_histogram(), vec![(5, 1), (300, 1)]);
            let stats = IoStats::default();
            r.verify(&stats).unwrap();
            for (hash, postings) in &lists {
                assert_eq!(
                    &r.read_list(*hash, &stats).unwrap(),
                    postings,
                    "{encoding:?}"
                );
            }
            assert!(r.read_list(999, &stats).unwrap().is_empty());
            assert!(stats.snapshot().bytes > 0);
            std::fs::remove_file(&path).ok();
        }
        // An empty section 2 (v3 with short lists only) still verifies.
        let path = temp("no_zones.ndsi");
        write_file(&path, ENCODINGS[0], &sample_lists()[..1]);
        let r = Reader::open(&path).unwrap();
        r.verify(&IoStats::default()).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_lists_rejected() {
        for encoding in ENCODINGS {
            let path = temp(&format!("order_v{}.ndsi", encoding.version()));
            let mut w = Writer::create(&path, 0, encoding).unwrap();
            w.write_list(20, &[posting(0, 0)]).unwrap();
            for hash in [10, 20] {
                assert!(
                    matches!(
                        w.write_list(hash, &[posting(0, 0)]),
                        Err(IndexError::Malformed(_))
                    ),
                    "{encoding:?}"
                );
            }
        }
    }

    #[test]
    fn no_file_appears_before_finish() {
        for encoding in ENCODINGS {
            let path = temp(&format!("atomic_v{}.ndsi", encoding.version()));
            std::fs::remove_file(&path).ok();
            let mut w = Writer::create(&path, 0, encoding).unwrap();
            w.write_list(1, &[posting(0, 0)]).unwrap();
            assert!(
                !path.exists(),
                "destination must not exist until finish() commits"
            );
            drop(w); // simulated crash: no artifact, no temp residue under the name
            assert!(!path.exists());

            let mut w = Writer::create(&path, 0, encoding).unwrap();
            w.write_list(1, &[posting(0, 0)]).unwrap();
            w.finish().unwrap();
            assert!(Reader::open(&path).is_ok());
            std::fs::remove_file(&path).ok();
        }
    }

    /// Garbage, truncated headers, other versions and the deleted
    /// pre-checksum v1/v2 layouts all fail `open` with a clean `Malformed`
    /// — before any count in them is looked at.
    #[test]
    fn open_rejects_non_index_and_unsupported_files() {
        let path = temp("rejects.ndsi");
        for (bytes, needle) in [
            (vec![0u8; 64], "bad magic"),
            (b"NDSI".to_vec(), "bad magic"),
            (b"NDSC\x03\0\0\0".repeat(10), "bad magic"),
            (b"NDSI\x03\0\0\0".to_vec(), "too short"),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            assert_malformed(Reader::open(&path), needle, needle);
        }
        // The v1/v2 layout: a 48-byte checksum-less header whose counts,
        // were they believed, would size multi-exabyte sections.
        for version in [1u32, 2] {
            let mut bytes = vec![0xABu8; 48 + 200];
            bytes[0..4].copy_from_slice(MAGIC);
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            for offset in [OFF_NUM_KEYS, OFF_NUM_POSTINGS, OFF_SECTION2_ENTRIES] {
                bytes[offset..offset + 8].copy_from_slice(&(u64::MAX / 3).to_le_bytes());
            }
            for len in [bytes.len(), 48, 20] {
                std::fs::write(&path, &bytes[..len]).unwrap();
                assert_malformed(
                    Reader::open(&path),
                    &format!("unsupported index file version {version}"),
                    &format!("v{version} file of {len} B"),
                );
            }
        }
        // A well-formed file relabelled with a future version.
        for encoding in ENCODINGS {
            write_file(&path, encoding, &sample_lists());
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[OFF_VERSION] = 7;
            std::fs::write(&path, &bytes).unwrap();
            assert_malformed(
                Reader::open(&path),
                "unsupported index file version 7",
                "v7",
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Every header byte is covered at `open`; a flipped bit in a section
    /// is caught at `open` when the section is loaded there (directory,
    /// v4/v6 block index) and by `verify` otherwise.
    #[test]
    fn header_tampering_and_section_corruption_detected() {
        for encoding in ENCODINGS {
            let path = temp(&format!("tamper_v{}.ndsi", encoding.version()));
            write_file(&path, encoding, &sample_lists());
            let pristine = std::fs::read(&path).unwrap();
            let open_tampered = |offset: usize| {
                let mut bytes = pristine.clone();
                bytes[offset] ^= 0x40;
                std::fs::write(&path, &bytes).unwrap();
                Reader::open(&path)
            };
            for offset in [8usize, 17, 25, 33, 41, 50, 57, 61, 65, 77] {
                assert!(
                    matches!(open_tampered(offset), Err(IndexError::Malformed(_))),
                    "{encoding:?}: header byte {offset} corruption not caught"
                );
            }
            let section1_len = u64::from_le_bytes(
                pristine[OFF_SECTION1_LEN..OFF_SECTION1_LEN + 8]
                    .try_into()
                    .unwrap(),
            ) as usize;
            let section2_start = HEADER_LEN as usize + section1_len;
            let section2_at_open = !matches!(encoding, Encoding::Fixed { .. });
            for (what, offset, caught_at_open) in [
                ("payload", HEADER_LEN as usize + 100, false),
                ("section 2", section2_start + 3, section2_at_open),
                ("directory", pristine.len() - 3, true),
            ] {
                match open_tampered(offset) {
                    Err(IndexError::Malformed(_)) => {
                        assert!(caught_at_open, "{encoding:?}: {what} rejected at open")
                    }
                    Err(other) => panic!("{encoding:?}: {what}: {other}"),
                    Ok(r) => {
                        assert!(!caught_at_open, "{encoding:?}: corrupt {what} opened");
                        assert!(
                            matches!(r.verify(&IoStats::default()), Err(IndexError::Malformed(_))),
                            "{encoding:?}: corrupt {what} verified clean"
                        );
                    }
                }
            }
            // Truncation and trailing garbage break the exact-length check.
            for len in [pristine.len() - 1, pristine.len() - DIR_ENTRY_LEN] {
                std::fs::write(&path, &pristine[..len]).unwrap();
                assert_malformed(Reader::open(&path), "header promises", "truncated");
            }
            let mut longer = pristine.clone();
            longer.push(0);
            std::fs::write(&path, &longer).unwrap();
            assert_malformed(Reader::open(&path), "header promises", "trailing byte");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn encoding_follows_config_with_packed_taking_precedence() {
        let config = IndexConfig::new(4, 25, 1).zone_map(64, 128);
        assert_eq!(
            Encoding::of(&config),
            Encoding::Fixed {
                zone_step: 64,
                zone_min_len: 128
            }
        );
        let v4 = config.clone().compressed(true);
        assert_eq!(Encoding::of(&v4), Encoding::Varint { block_len: 64 });
        assert_eq!(Encoding::of(&v4.bit_packed(true)), Encoding::Packed);
        // The writer normalises a zero `zone_min_len`, and the header
        // round-trips the parameters.
        let path = temp("params.ndsi");
        let zero_min = Encoding::Fixed {
            zone_step: 64,
            zone_min_len: 0,
        };
        write_file(&path, zero_min, &sample_lists());
        assert_eq!(
            Reader::open(&path).unwrap().encoding(),
            Encoding::Fixed {
                zone_step: 64,
                zone_min_len: 1
            }
        );
        std::fs::remove_file(&path).ok();
    }

    /// The structural directory checks do not lean on the checksums: a
    /// directory edited by someone who then recomputes the directory and
    /// header CRCs is still rejected.
    #[test]
    fn directory_edits_with_recomputed_checksums_rejected() {
        for encoding in ENCODINGS {
            let path = temp(&format!("dir_edit_v{}.ndsi", encoding.version()));
            write_file(&path, encoding, &sample_lists());
            let pristine = std::fs::read(&path).unwrap();
            let dir_start = pristine.len() - 2 * DIR_ENTRY_LEN;
            // Word positions within an entry, per encoding.
            let (count_at, start_at, aux_start_at) = match encoding {
                Encoding::Fixed { .. } => (16, 8, 24),
                _ => (24, 32, 8),
            };
            let second = dir_start + DIR_ENTRY_LEN;
            for (what, offset, value) in [
                ("key repeated", second, 10u64),
                ("keys out of order", second, 5),
                ("empty list", second + count_at, 0),
                ("list length off by one", second + count_at, 301),
                ("list start moved", second + start_at, 1),
                ("section-2 range moved", second + aux_start_at, 2),
            ] {
                let mut bytes = pristine.clone();
                bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
                let dir_crc = crc32c::crc32c(&bytes[dir_start..]);
                bytes[OFF_DIR_CRC..OFF_DIR_CRC + 4].copy_from_slice(&dir_crc.to_le_bytes());
                let header_crc = crc32c::crc32c(&bytes[..OFF_HEADER_CRC]);
                bytes[OFF_HEADER_CRC..OFF_HEADER_CRC + 4]
                    .copy_from_slice(&header_crc.to_le_bytes());
                std::fs::write(&path, &bytes).unwrap();
                match Reader::open(&path) {
                    Err(IndexError::Malformed(msg)) => assert!(
                        !msg.contains("checksum"),
                        "{encoding:?}: {what} caught by a CRC only: {msg}"
                    ),
                    Err(other) => panic!("{encoding:?}: {what}: {other}"),
                    Ok(_) => panic!("{encoding:?}: {what} survived open"),
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// `(reference, lists as written, keys asked)`: see [`table_fixture`].
    pub(crate) type TableFixture = (
        BTreeMap<u64, Vec<Posting>>,
        Vec<(u64, Vec<Posting>)>,
        Vec<u64>,
    );

    /// The lists of [`directory_table_answers_like_a_sorted_key_search`],
    /// as a reference map and as written (with a skipped empty list), and
    /// the keys it asks for. Sixteen lists fill a 32-slot table: five keys
    /// share the last slot as their home, so their probe sequences wrap
    /// past the table's end into the three keys homed at slot 0 and the two
    /// at slot 1. With `extremes` the keys 0 and `u64::MAX` are present,
    /// without they are absent; three more keys homed at the last slot are
    /// always absent.
    pub(crate) fn table_fixture(extremes: bool) -> TableFixture {
        // A key's home in a 32-slot table is its top five mixed bits.
        let homed_at = |slot: usize, skip: usize, n: usize| -> Vec<u64> {
            (1_000u64..)
                .filter(|&h| home_slot(h, 32) == slot)
                .skip(skip)
                .take(n)
                .collect()
        };
        let mut keys: Vec<u64> =
            [homed_at(31, 0, 5), homed_at(0, 0, 3), homed_at(1, 0, 2)].concat();
        keys.extend([10, 20]);
        keys.extend(if extremes {
            [0, u64::MAX, 30, 40]
        } else {
            [30, 40, 50, 60]
        });
        let reference: BTreeMap<u64, Vec<Posting>> = keys
            .iter()
            .enumerate()
            .map(|(i, &key)| {
                let len = 1 + (i as u32 * 7) % 40;
                (
                    key,
                    (0..len).map(|j| posting(j / 2 + i as u32, j % 2)).collect(),
                )
            })
            .collect();
        assert_eq!(reference.len(), 16);
        let mut lists: Vec<(u64, Vec<Posting>)> = reference.clone().into_iter().collect();
        lists.insert(1, (lists[0].0 + 1, Vec::new()));
        let mut asked = keys;
        asked.extend(homed_at(31, 5, 3));
        asked.extend([0, u64::MAX, 15, lists[1].0, 999]);
        (reference, lists, asked)
    }

    /// The lookup table answers what a search over the sorted keys does,
    /// in every encoding, for the keys of [`table_fixture`]: probe
    /// sequences that wrap, the keys 0 and `u64::MAX`, a skipped empty
    /// list. Each is asked for present and absent (one file holds the
    /// extremes, the other not).
    #[test]
    fn directory_table_answers_like_a_sorted_key_search() {
        for encoding in ENCODINGS {
            for extremes in [true, false] {
                let (reference, lists, asked) = table_fixture(extremes);
                let path = temp(&format!("table_v{}_{extremes}.ndsi", encoding.version()));
                write_file(&path, encoding, &lists);
                let r = Reader::open(&path).unwrap();
                assert_eq!(r.slots.len(), 32);
                // Slot 31 holds one of the five keys homed there; the other
                // four sit in the slots of the keys homed at 0 and 1.
                let wrapped = r.slots[..31]
                    .iter()
                    .filter(|&&i| i != EMPTY_SLOT)
                    .filter(|&&i| home_slot(r.dir[i as usize].hash, 32) == 31)
                    .count();
                assert_eq!(wrapped, 4, "{encoding:?}: no probe sequence wraps");
                assert_eq!(r.slots.iter().filter(|&&i| i != EMPTY_SLOT).count(), 16);

                let texts: Vec<TextId> = (0..60).step_by(3).collect();
                let stats = IoStats::default();
                let zones = ZoneCache::new(1 << 20, 1);
                for hash in asked {
                    let want = reference.get(&hash).cloned().unwrap_or_default();
                    let context = format!("{encoding:?} extremes {extremes}: key {hash:#x}");
                    assert_eq!(r.list_len(hash), want.len() as u64, "{context}");
                    assert_eq!(r.read_list(hash, &stats).unwrap(), want, "{context}");
                    let mut probed = Vec::new();
                    if let Some(i) = r.find(hash) {
                        r.probe_texts(i, &texts, &zones, &stats, &mut probed)
                            .unwrap();
                    }
                    let want_probed: Vec<Posting> = want
                        .into_iter()
                        .filter(|p| texts.contains(&p.text))
                        .collect();
                    assert_eq!(probed, want_probed, "{context}");
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }

    /// Interrupted reads surface from whichever call issued them: `open`
    /// for the header, `read_list` and `verify` for the payload — all as
    /// `Io` with the interrupted kind, never as `Malformed`.
    #[test]
    fn persistent_read_faults_surface_from_open_read_and_verify() {
        for encoding in ENCODINGS {
            let path = temp(&format!("storm_v{}.ndsi", encoding.version()));
            write_file(&path, encoding, &sample_lists());
            let plan = FaultPlan::new("");
            let options = ReadOptions::with_faults(plan.clone());
            plan.arm(FaultMode::Storm);
            assert!(
                matches!(Reader::open_with(&path, &options), Err(IndexError::Io(_))),
                "{encoding:?}: header read bypassed the fault layer"
            );
            plan.disarm();
            let r = Reader::open_with(&path, &options).unwrap();
            plan.arm(FaultMode::Storm);
            let stats = IoStats::default();
            assert!(matches!(r.read_list(10, &stats), Err(IndexError::Io(_))));
            match r.verify(&stats) {
                Err(IndexError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::Interrupted),
                other => panic!("{encoding:?}: verify under a storm gave {other:?}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
