//! Block-bitpacked posting-list storage (index file format v5).
//!
//! v4 spends most of its decode time in the branchy one-varint-at-a-time
//! loop. v5 keeps the same file skeleton (header / payload / block index /
//! directory, one CRC-32C per section) but stores each posting list as
//! fixed **128-entry blocks** of four independently bitpacked planes:
//!
//! ```text
//! plane 0: text-id deltas   (delta[0] = 0 relative to the block's first_text)
//! plane 1: l                (window start)
//! plane 2: c − l
//! plane 3: r − c
//! ```
//!
//! Each plane is packed at its own bit width by [`bitpack`] (4-lane
//! interleaved `BitPacker4x` layout, SIMD-unpacked at query time), so a
//! block's byte length is exactly `16·(b₀+b₁+b₂+b₃)` — derivable from the
//! per-block widths alone, which the open-time validator exploits as a
//! whole-file prefix-sum cross-check. The per-block index entry carries
//! `first_text`, **`max_text`** (a skip entry: probes binary-search it to
//! seek directly to the first candidate block of a long list),
//! `byte_offset`, `posting_count`, and the four bit widths.
//!
//! Short blocks (a list's tail) are zero-padded to 128 entries before
//! packing; zeros never raise a plane's bit width and the decoder stops at
//! `posting_count`. All delta arithmetic on the read side is
//! overflow-checked and the decoded last text id must equal the stored
//! `max_text`, so corrupt widths or payload bytes surface as
//! [`IndexError::Malformed`], never a panic or a wrapped posting.

use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crc32c::Crc32c;
use ndss_corpus::TextId;
use ndss_durable::AtomicFile;
use ndss_hash::HashValue;
use ndss_windows::CompactWindow;

use crate::format::MAGIC;
use crate::integrity::{
    self, SectionChecksums, HEADER_LEN_CHECKED, OFF_DIR_CRC, OFF_HEADER_CRC, OFF_SECTION1_CRC,
    OFF_SECTION1_LEN, OFF_SECTION2_CRC,
};
use crate::pread::{ReadOptions, RetryingFile};
use crate::{IndexError, IoStats, Posting};

/// Block-bitpacked checksummed format.
pub const VERSION_V5: u32 = 5;
/// Postings per block (fixed: the bitpack kernel's block size).
pub const BLOCK_LEN: usize = bitpack::BLOCK_LEN;
/// Planes per block: text delta, l, c−l, r−c.
const PLANES: usize = 4;
const DIR_ENTRY_LEN: usize = 40;
const BLOCK_ENTRY_LEN: usize = 24;

#[derive(Debug, Clone, Copy)]
struct DirEntryV5 {
    hash: HashValue,
    /// Index of the list's first block in the block-index section.
    block_start: u64,
    block_count: u64,
    posting_count: u64,
    /// Byte offset of the list's first block, relative to the blocks section.
    byte_start: u64,
}

#[derive(Debug, Clone, Copy)]
struct BlockEntryV5 {
    first_text: TextId,
    /// Largest text id in the block — the skip entry probes seek by.
    max_text: TextId,
    /// Byte offset of the block, relative to the blocks section.
    byte_offset: u64,
    posting_count: u32,
    /// Bit width of each packed plane.
    bits: [u8; PLANES],
}

impl BlockEntryV5 {
    /// Packed byte length of the block (16 bytes per plane bit).
    #[inline]
    fn byte_len(&self) -> u64 {
        self.bits
            .iter()
            .map(|&b| bitpack::packed_len(b) as u64)
            .sum()
    }
}

// ------------------------------------------------------------------ writer

/// Streaming writer for a v5 block-bitpacked inverted-index file. Same
/// calling convention as [`crate::codec::CompressedFileWriter`].
pub struct PackedFileWriter {
    out: BufWriter<AtomicFile>,
    func_idx: u32,
    dir: Vec<DirEntryV5>,
    blocks: Vec<BlockEntryV5>,
    bytes_written: u64,
    postings_written: u64,
    last_hash: Option<HashValue>,
    planes: [[u32; BLOCK_LEN]; PLANES],
    scratch: Vec<u8>,
    blocks_crc: Crc32c,
}

impl PackedFileWriter {
    /// Creates the file (via a temp path; the destination appears only on
    /// [`Self::finish`]).
    pub fn create(path: &Path, func_idx: u32) -> Result<Self, IndexError> {
        let file = AtomicFile::create(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&[0u8; HEADER_LEN_CHECKED as usize])?;
        Ok(Self {
            out,
            func_idx,
            dir: Vec::new(),
            blocks: Vec::new(),
            bytes_written: 0,
            postings_written: 0,
            last_hash: None,
            planes: [[0u32; BLOCK_LEN]; PLANES],
            scratch: Vec::new(),
            blocks_crc: Crc32c::new(),
        })
    }

    /// Writes one complete list (ascending hash order across calls, postings
    /// sorted by `(text, l, c, r)` within).
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
        self.last_hash = Some(hash);
        let block_start = self.blocks.len() as u64;
        let byte_start = self.bytes_written;
        for chunk in postings.chunks(BLOCK_LEN) {
            let first_text = chunk[0].text;
            let max_text = chunk[chunk.len() - 1].text;
            for plane in self.planes.iter_mut() {
                plane.fill(0);
            }
            let mut prev_text = first_text;
            for (i, p) in chunk.iter().enumerate() {
                self.planes[0][i] = p.text - prev_text;
                prev_text = p.text;
                self.planes[1][i] = p.window.l;
                self.planes[2][i] = p.window.c - p.window.l;
                self.planes[3][i] = p.window.r - p.window.c;
            }
            let mut bits = [0u8; PLANES];
            self.scratch.clear();
            for (pi, plane) in self.planes.iter().enumerate() {
                bits[pi] = bitpack::num_bits(plane);
                let start = self.scratch.len();
                self.scratch
                    .resize(start + bitpack::packed_len(bits[pi]), 0);
                bitpack::pack(plane, bits[pi], &mut self.scratch[start..]);
            }
            self.blocks.push(BlockEntryV5 {
                first_text,
                max_text,
                byte_offset: self.bytes_written,
                posting_count: chunk.len() as u32,
                bits,
            });
            self.blocks_crc.update(&self.scratch);
            self.out.write_all(&self.scratch)?;
            self.bytes_written += self.scratch.len() as u64;
        }
        self.postings_written += postings.len() as u64;
        self.dir.push(DirEntryV5 {
            hash,
            block_start,
            block_count: self.blocks.len() as u64 - block_start,
            posting_count: postings.len() as u64,
            byte_start,
        });
        Ok(())
    }

    /// Appends the block index and directory, rewrites the header, fsyncs,
    /// and atomically publishes the file at its destination path.
    pub fn finish(mut self) -> Result<u64, IndexError> {
        let mut index_crc = Crc32c::new();
        let mut entry = [0u8; BLOCK_ENTRY_LEN];
        for b in &self.blocks {
            entry[0..4].copy_from_slice(&b.first_text.to_le_bytes());
            entry[4..8].copy_from_slice(&b.max_text.to_le_bytes());
            entry[8..16].copy_from_slice(&b.byte_offset.to_le_bytes());
            entry[16..20].copy_from_slice(&b.posting_count.to_le_bytes());
            entry[20..24].copy_from_slice(&b.bits);
            index_crc.update(&entry);
            self.out.write_all(&entry)?;
        }
        let mut dir_crc = Crc32c::new();
        let mut entry = [0u8; DIR_ENTRY_LEN];
        for d in &self.dir {
            entry[0..8].copy_from_slice(&d.hash.to_le_bytes());
            entry[8..16].copy_from_slice(&d.block_start.to_le_bytes());
            entry[16..24].copy_from_slice(&d.block_count.to_le_bytes());
            entry[24..32].copy_from_slice(&d.posting_count.to_le_bytes());
            entry[32..40].copy_from_slice(&d.byte_start.to_le_bytes());
            dir_crc.update(&entry);
            self.out.write_all(&entry)?;
        }
        self.out.flush()?;
        let mut file = self.out.into_inner().map_err(|e| e.into_error())?;
        let size = file.stream_position()?;

        let mut header = [0u8; HEADER_LEN_CHECKED as usize];
        header[0..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&VERSION_V5.to_le_bytes());
        header[8..12].copy_from_slice(&self.func_idx.to_le_bytes());
        // bytes 12..16 reserved
        header[16..24].copy_from_slice(&(self.dir.len() as u64).to_le_bytes());
        header[24..32].copy_from_slice(&self.postings_written.to_le_bytes());
        header[32..40].copy_from_slice(&(self.blocks.len() as u64).to_le_bytes());
        header[40..44].copy_from_slice(&(BLOCK_LEN as u32).to_le_bytes());
        // bytes 44..48 reserved
        header[OFF_SECTION1_LEN..OFF_SECTION1_LEN + 8]
            .copy_from_slice(&self.bytes_written.to_le_bytes());
        header[OFF_SECTION1_CRC..OFF_SECTION1_CRC + 4]
            .copy_from_slice(&self.blocks_crc.finalize().to_le_bytes());
        header[OFF_SECTION2_CRC..OFF_SECTION2_CRC + 4]
            .copy_from_slice(&index_crc.finalize().to_le_bytes());
        header[OFF_DIR_CRC..OFF_DIR_CRC + 4].copy_from_slice(&dir_crc.finalize().to_le_bytes());
        let header_crc = crc32c::crc32c(&header[..OFF_HEADER_CRC]);
        header[OFF_HEADER_CRC..OFF_HEADER_CRC + 4].copy_from_slice(&header_crc.to_le_bytes());
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.commit()?;
        Ok(size)
    }
}

// ------------------------------------------------------------------ reader

/// Read-only handle to a v5 block-bitpacked inverted-index file. The
/// directory and block index (24 bytes per 128 postings) live in memory;
/// block bytes are read on demand with IO accounting and unpacked by the
/// fastest SIMD kernel the CPU supports.
///
/// Block reads are positioned (`pread`, or plain memory copies when the
/// file is mapped via [`ReadOptions::mmap`]): no lock, no shared cursor,
/// safe to share across any number of query threads.
pub struct PackedFileReader {
    file: RetryingFile,
    path: PathBuf,
    dir: Vec<DirEntryV5>,
    blocks: Vec<BlockEntryV5>,
    func_idx: u32,
    num_postings: u64,
    /// Byte size of the blocks section (= offset of the block index,
    /// relative to the header end).
    blocks_bytes: u64,
    checksums: SectionChecksums,
}

impl std::fmt::Debug for PackedFileReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedFileReader")
            .field("func_idx", &self.func_idx)
            .field("keys", &self.dir.len())
            .field("postings", &self.num_postings)
            .finish()
    }
}

impl PackedFileReader {
    /// Opens a v5 file with default IO options. See [`Self::open_with`].
    pub fn open(path: &Path) -> Result<Self, IndexError> {
        Self::open_with(path, &ReadOptions::default())
    }

    /// Opens a v5 file: validates every header-derived size against the real
    /// file length (overflow-checked, before any allocation), verifies the
    /// header / block-index / directory checksums, checks each block's bit
    /// widths, and cross-checks the whole blocks section as one prefix sum
    /// of per-block packed lengths. All reads go through the retrying layer
    /// configured by `io`.
    pub fn open_with(path: &Path, io: &ReadOptions) -> Result<Self, IndexError> {
        let file = RetryingFile::open(path, io)?;
        let file_len = file.len()?;
        if file_len < HEADER_LEN_CHECKED {
            return Err(IndexError::Malformed(format!(
                "{} is too short ({file_len} B) to hold a v5 index header",
                path.display()
            )));
        }
        let mut header = [0u8; HEADER_LEN_CHECKED as usize];
        file.read_exact_at(&mut header, 0)?;
        if &header[0..4] != MAGIC {
            return Err(IndexError::Malformed(format!(
                "bad magic in {}",
                path.display()
            )));
        }
        let u32_at = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().expect("8 bytes"));
        let version = u32_at(4);
        if version != VERSION_V5 {
            return Err(IndexError::Malformed(format!(
                "not a packed index file (version {version}) in {}",
                path.display()
            )));
        }
        integrity::check_header_crc(&header, path)?;
        let checksums = SectionChecksums {
            section1: u32_at(OFF_SECTION1_CRC),
            section2: u32_at(OFF_SECTION2_CRC),
            dir: u32_at(OFF_DIR_CRC),
        };
        let func_idx = u32_at(8);
        let num_keys = u64_at(16);
        let num_postings = u64_at(24);
        let num_blocks = u64_at(32);
        if u32_at(40) as usize != BLOCK_LEN {
            return Err(IndexError::Malformed(format!(
                "{}: unsupported v5 block length {}",
                path.display(),
                u32_at(40)
            )));
        }

        // Size validation before any allocation; the total must match the
        // file length exactly.
        let index_len = integrity::mul(num_blocks, BLOCK_ENTRY_LEN as u64, "block-index size")?;
        let dir_len = integrity::mul(num_keys, DIR_ENTRY_LEN as u64, "directory size")?;
        let tail = integrity::add(index_len, dir_len, "tail size")?;
        let min_len = integrity::add(HEADER_LEN_CHECKED, tail, "file size")?;
        let blocks_bytes = u64_at(OFF_SECTION1_LEN);
        let expected = integrity::add(min_len, blocks_bytes, "file size")?;
        if expected != file_len {
            return Err(IndexError::Malformed(format!(
                "{}: header promises {expected} B ({num_keys} keys, {num_blocks} blocks, \
                 {blocks_bytes} block bytes) but the file is {file_len} B",
                path.display()
            )));
        }

        let mut buf = vec![0u8; index_len as usize];
        file.read_exact_at(&mut buf, HEADER_LEN_CHECKED + blocks_bytes)?;
        integrity::check_loaded_crc(&buf, checksums.section2, "block index", path)?;
        let mut blocks = Vec::with_capacity(num_blocks as usize);
        for chunk in buf.chunks_exact(BLOCK_ENTRY_LEN) {
            blocks.push(BlockEntryV5 {
                first_text: u32::from_le_bytes(chunk[0..4].try_into().expect("4")),
                max_text: u32::from_le_bytes(chunk[4..8].try_into().expect("4")),
                byte_offset: u64::from_le_bytes(chunk[8..16].try_into().expect("8")),
                posting_count: u32::from_le_bytes(chunk[16..20].try_into().expect("4")),
                bits: chunk[20..24].try_into().expect("4"),
            });
        }
        let mut buf = vec![0u8; dir_len as usize];
        file.read_exact_at(&mut buf, HEADER_LEN_CHECKED + blocks_bytes + index_len)?;
        integrity::check_loaded_crc(&buf, checksums.dir, "directory", path)?;
        let mut dir = Vec::with_capacity(num_keys as usize);
        for chunk in buf.chunks_exact(DIR_ENTRY_LEN) {
            let g = |o: usize| u64::from_le_bytes(chunk[o..o + 8].try_into().expect("8"));
            dir.push(DirEntryV5 {
                hash: g(0),
                block_start: g(8),
                block_count: g(16),
                posting_count: g(24),
                byte_start: g(32),
            });
        }

        // Structural validation. Block byte offsets are fully determined by
        // the bit widths (each block is exactly 16·Σbits bytes), so the
        // whole blocks section is validated as one prefix sum — a corrupt
        // width or offset anywhere breaks the chain.
        let mut expected_offset = 0u64;
        for (i, b) in blocks.iter().enumerate() {
            if b.bits.iter().any(|&bits| bits > 32) {
                return Err(IndexError::Malformed(format!(
                    "block {i} has a bit width above 32 in {}",
                    path.display()
                )));
            }
            if b.posting_count == 0 || b.posting_count as usize > BLOCK_LEN {
                return Err(IndexError::Malformed(format!(
                    "block {i} has an invalid posting count in {}",
                    path.display()
                )));
            }
            if b.max_text < b.first_text {
                return Err(IndexError::Malformed(format!(
                    "block {i} has max_text below first_text in {}",
                    path.display()
                )));
            }
            if b.byte_offset != expected_offset {
                return Err(IndexError::Malformed(format!(
                    "block {i} byte offset disagrees with the width prefix sum in {}",
                    path.display()
                )));
            }
            expected_offset = integrity::add(expected_offset, b.byte_len(), "blocks size")?;
        }
        if expected_offset != blocks_bytes {
            return Err(IndexError::Malformed(format!(
                "block widths sum to {expected_offset} B but the blocks section is \
                 {blocks_bytes} B in {}",
                path.display()
            )));
        }
        if dir.windows(2).any(|w| w[0].hash >= w[1].hash) {
            return Err(IndexError::Malformed(
                "directory keys are not strictly ascending".into(),
            ));
        }
        let mut next_block = 0u64;
        let mut posting_total = 0u64;
        for d in &dir {
            if d.block_start != next_block || d.block_count == 0 {
                return Err(IndexError::Malformed(format!(
                    "directory entry {:#x} has a non-contiguous or empty block range",
                    d.hash
                )));
            }
            next_block = integrity::add(d.block_start, d.block_count, "block range")?;
            if next_block > blocks.len() as u64 {
                return Err(IndexError::Malformed(format!(
                    "directory entry {:#x} points past the block index",
                    d.hash
                )));
            }
            if d.byte_start != blocks[d.block_start as usize].byte_offset {
                return Err(IndexError::Malformed(format!(
                    "directory entry {:#x} disagrees with the block index on its byte offset",
                    d.hash
                )));
            }
            let in_blocks: u64 = blocks[d.block_start as usize..next_block as usize]
                .iter()
                .map(|b| b.posting_count as u64)
                .sum();
            if in_blocks != d.posting_count {
                return Err(IndexError::Malformed(format!(
                    "directory entry {:#x} claims {} postings but its blocks hold {in_blocks}",
                    d.hash, d.posting_count
                )));
            }
            posting_total = integrity::add(posting_total, in_blocks, "posting total")?;
        }
        if next_block != num_blocks || posting_total != num_postings {
            return Err(IndexError::Malformed(
                "directory does not cover the block index / posting counts".into(),
            ));
        }
        Ok(Self {
            file,
            path: path.to_owned(),
            dir,
            blocks,
            func_idx,
            num_postings,
            blocks_bytes,
            checksums,
        })
    }

    /// Streams the blocks section against its header CRC. `open` plus
    /// `verify` together cover every byte of the file.
    pub fn verify(&self, stats: &IoStats) -> Result<(), IndexError> {
        integrity::check_streamed_crc(
            &self.file,
            HEADER_LEN_CHECKED,
            self.blocks_bytes,
            self.checksums.section1,
            "blocks section",
            &self.path,
            stats,
        )
    }

    /// The hash-function number in the header.
    pub fn func_idx(&self) -> u32 {
        self.func_idx
    }

    /// Total postings stored.
    pub fn num_postings(&self) -> u64 {
        self.num_postings
    }

    /// Number of distinct min-hash keys.
    pub fn num_keys(&self) -> usize {
        self.dir.len()
    }

    /// The `i`-th smallest min-hash key, if any (directory is hash-sorted).
    pub fn hash_at(&self, i: usize) -> Option<HashValue> {
        self.dir.get(i).map(|d| d.hash)
    }

    fn find(&self, hash: HashValue) -> Option<&DirEntryV5> {
        self.dir
            .binary_search_by_key(&hash, |d| d.hash)
            .ok()
            .map(|i| &self.dir[i])
    }

    /// Length (postings) of list `hash`, 0 if absent.
    pub fn list_len(&self, hash: HashValue) -> u64 {
        self.find(hash).map_or(0, |e| e.posting_count)
    }

    /// `(length, lists)` histogram over all lists.
    pub fn length_histogram(&self) -> Vec<(u64, u64)> {
        let mut hist = std::collections::HashMap::new();
        for d in &self.dir {
            *hist.entry(d.posting_count).or_insert(0u64) += 1;
        }
        let mut out: Vec<(u64, u64)> = hist.into_iter().collect();
        out.sort_unstable();
        out
    }

    fn read_bytes(
        &self,
        rel_offset: u64,
        len: usize,
        stats: &IoStats,
    ) -> Result<Vec<u8>, IndexError> {
        let mut buf = vec![0u8; len];
        let start = Instant::now();
        self.file
            .read_exact_at(&mut buf, HEADER_LEN_CHECKED + rel_offset)?;
        stats.record(len as u64, start.elapsed().as_nanos() as u64);
        Ok(buf)
    }

    /// Unpacks and decodes blocks `[blk_lo, blk_hi)` (absolute block-index
    /// positions) of one list.
    fn read_blocks(
        &self,
        blk_lo: usize,
        blk_hi: usize,
        stats: &IoStats,
    ) -> Result<Vec<Posting>, IndexError> {
        if blk_lo >= blk_hi {
            return Ok(Vec::new());
        }
        let byte_lo = self.blocks[blk_lo].byte_offset;
        let byte_hi = if blk_hi < self.blocks.len() {
            self.blocks[blk_hi].byte_offset
        } else {
            self.blocks_bytes
        };
        let range_len = (byte_hi - byte_lo) as usize;
        // A mapped file hands out the block range as a borrowed slice —
        // no intermediate buffer, no copy; the unpack kernel reads the
        // packed planes straight out of the page cache.
        let owned;
        let bytes: &[u8] = match self.mapped_range(byte_lo, range_len, stats)? {
            Some(view) => view,
            None => {
                owned = self.read_bytes(byte_lo, range_len, stats)?;
                &owned
            }
        };
        let total: usize = self.blocks[blk_lo..blk_hi]
            .iter()
            .map(|b| b.posting_count as usize)
            .sum();
        let mut out = Vec::with_capacity(total);
        let mut block = [EMPTY_POSTING; BLOCK_LEN];
        let mut pos = 0usize;
        for entry in &self.blocks[blk_lo..blk_hi] {
            let len = entry.byte_len() as usize;
            let count = decode_block(entry, &bytes[pos..pos + len], &mut block)?;
            out.extend_from_slice(&block[..count]);
            pos += len;
        }
        debug_assert_eq!(pos as u64, byte_hi - byte_lo);
        Ok(out)
    }

    /// Blocks-section bytes `[rel_offset, rel_offset + len)` borrowed from
    /// the mapping (accounted as a zero-time read), or `None` when the file
    /// is read with `pread`.
    fn mapped_range(
        &self,
        rel_offset: u64,
        len: usize,
        stats: &IoStats,
    ) -> Result<Option<&[u8]>, IndexError> {
        let Some(all) = self.file.mapped() else {
            return Ok(None);
        };
        let view = usize::try_from(HEADER_LEN_CHECKED + rel_offset)
            .ok()
            .and_then(|s| all.get(s..s.checked_add(len)?))
            .ok_or_else(|| {
                IndexError::Malformed(format!(
                    "mapped {} is shorter than its header promises",
                    self.path.display()
                ))
            })?;
        stats.record(len as u64, 0);
        Ok(Some(view))
    }

    /// Reads a whole list.
    pub fn read_list(&self, hash: HashValue, stats: &IoStats) -> Result<Vec<Posting>, IndexError> {
        let Some(entry) = self.find(hash) else {
            return Ok(Vec::new());
        };
        self.read_blocks(
            entry.block_start as usize,
            (entry.block_start + entry.block_count) as usize,
            stats,
        )
    }

    /// Appends to `out` the postings of each text of `texts` (strictly
    /// ascending) in list `hash`, in one forward pass. The per-block
    /// `max_text` skip entries let the probe **seek**: a `partition_point`
    /// over the blocks not yet passed lands on the first block whose range
    /// can contain the next text, so a long list costs O(log blocks) index
    /// work per text plus IO for the covering blocks only. Each covering
    /// block is read (into a stack buffer, or borrowed from the mapping)
    /// and unpacked at most once per call, however many of the texts it
    /// holds.
    pub fn probe_texts(
        &self,
        hash: HashValue,
        texts: &[TextId],
        stats: &IoStats,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        debug_assert!(texts.windows(2).all(|w| w[0] < w[1]));
        let Some(entry) = self.find(hash) else {
            return Ok(());
        };
        let lo = entry.block_start as usize;
        let index = &self.blocks[lo..lo + entry.block_count as usize];
        let mut bytes = [0u8; MAX_BLOCK_BYTES];
        let mut block = [EMPTY_POSTING; BLOCK_LEN];
        // `block[..count]` holds the decoded postings of `index[resident]`.
        let (mut resident, mut count) = (usize::MAX, 0usize);
        // First block that can still hold a text at or past the current one.
        let mut blk = 0usize;
        for &text in texts {
            blk += index[blk..].partition_point(|b| b.max_text < text);
            // A text's run may spill over several blocks; it ends at the
            // first block that starts past it.
            let mut b = blk;
            while b < index.len() && index[b].first_text <= text {
                if resident != b {
                    let e = &index[b];
                    let len = e.byte_len() as usize;
                    let packed = match self.mapped_range(e.byte_offset, len, stats)? {
                        Some(view) => view,
                        None => {
                            let start = Instant::now();
                            self.file.read_exact_at(
                                &mut bytes[..len],
                                HEADER_LEN_CHECKED + e.byte_offset,
                            )?;
                            stats.record(len as u64, start.elapsed().as_nanos() as u64);
                            &bytes[..len]
                        }
                    };
                    count = decode_block(e, packed, &mut block)?;
                    resident = b;
                }
                crate::probe_sorted(&block[..count], &[text], out);
                b += 1;
            }
        }
        Ok(())
    }
}

/// Largest packed block: four planes at 32 bits.
const MAX_BLOCK_BYTES: usize = PLANES * bitpack::packed_len(32);

const EMPTY_POSTING: Posting = Posting {
    text: 0,
    window: CompactWindow { l: 0, c: 0, r: 0 },
};

/// Unpacks and decodes one block from its `packed` bytes into `block`,
/// returning the posting count. Every arithmetic step is overflow-checked
/// and the final text id is cross-checked against the block's skip entry,
/// so corrupt payloads yield a clean error; callers copy out of `block`
/// only after that validation, so corrupt blocks never leak postings.
fn decode_block(
    entry: &BlockEntryV5,
    packed: &[u8],
    block: &mut [Posting; BLOCK_LEN],
) -> Result<usize, IndexError> {
    let mut planes = [[0u32; BLOCK_LEN]; PLANES];
    let mut pos = 0usize;
    for (plane, &bits) in planes.iter_mut().zip(&entry.bits) {
        let len = bitpack::packed_len(bits);
        bitpack::unpack(&packed[pos..pos + len], bits, plane);
        pos += len;
    }
    let count = entry.posting_count as usize;
    if planes[0][0] != 0 {
        return Err(IndexError::Malformed(
            "first packed delta of a block is nonzero".into(),
        ));
    }
    // All arithmetic runs branchless in u64 (a 128-delta chain of u32s
    // cannot overflow u64); `wide` accumulates any value that left u32
    // range and a single check at the end rejects the block.
    let mut wide = 0u64;
    let mut text = entry.first_text as u64;
    for i in 0..count {
        text += planes[0][i] as u64;
        let l = planes[1][i] as u64;
        let c = l + planes[2][i] as u64;
        let r = c + planes[3][i] as u64;
        wide |= (text | r) >> 32;
        block[i] = Posting {
            text: text as u32,
            window: CompactWindow {
                l: l as u32,
                c: c as u32,
                r: r as u32,
            },
        };
    }
    if wide != 0 {
        return Err(IndexError::Malformed(
            "packed delta chain overflows u32".into(),
        ));
    }
    if text != entry.max_text as u64 {
        return Err(IndexError::Malformed(
            "decoded block does not end at its max_text skip entry".into(),
        ));
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn posting(text: u32, l: u32) -> Posting {
        Posting {
            text,
            window: CompactWindow::new(l, l + 3, l + 20),
        }
    }

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ndss_packed_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn probe_one(r: &PackedFileReader, hash: u64, text: u32, stats: &IoStats) -> Vec<Posting> {
        let mut out = Vec::new();
        r.probe_texts(hash, &[text], stats, &mut out).unwrap();
        out
    }

    #[test]
    fn file_roundtrip_and_probes() {
        let path = temp("v5_roundtrip.ndsi");
        let mut w = PackedFileWriter::create(&path, 5).unwrap();
        let short: Vec<Posting> = (0..5).map(|i| posting(i, i)).collect();
        let long: Vec<Posting> = (0..1000).map(|i| posting(i / 4, i % 4)).collect();
        w.write_list(100, &short).unwrap();
        w.write_list(200, &long).unwrap();
        w.finish().unwrap();

        let r = PackedFileReader::open(&path).unwrap();
        assert_eq!(r.func_idx(), 5);
        assert_eq!(r.num_keys(), 2);
        assert_eq!(r.num_postings(), 1005);
        assert_eq!(r.list_len(100), 5);
        assert_eq!(r.list_len(999), 0);
        let stats = IoStats::default();
        r.verify(&stats).unwrap();
        assert_eq!(r.read_list(100, &stats).unwrap(), short);
        assert_eq!(r.read_list(200, &stats).unwrap(), long);
        assert!(r.read_list(999, &stats).unwrap().is_empty());

        // Per-text probe equals filter of the full list, and reads less.
        let before = stats.snapshot();
        let got = probe_one(&r, 200, 25, &stats);
        let probe_bytes = stats.snapshot().since(&before).bytes;
        let expect: Vec<Posting> = long.iter().filter(|p| p.text == 25).copied().collect();
        assert_eq!(got, expect);
        let full_read = {
            let b0 = stats.snapshot();
            r.read_list(200, &stats).unwrap();
            stats.snapshot().since(&b0).bytes
        };
        assert!(probe_bytes < full_read, "{probe_bytes} >= {full_read}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matches_v4_reader_results() {
        use crate::codec::{CompressedFileReader, CompressedFileWriter};
        let v4_path = temp("v5_vs_v4_v4.ndsi");
        let v5_path = temp("v5_vs_v4_v5.ndsi");
        let lists: Vec<(u64, Vec<Posting>)> = (0..20u64)
            .map(|h| {
                let n = 1 + (h * h * 31) % 400;
                (
                    h * 13 + 1,
                    (0..n as u32)
                        .map(|i| posting(i / 3, i % 3 + h as u32))
                        .collect(),
                )
            })
            .collect();
        let mut w4 = CompressedFileWriter::create(&v4_path, 0, 16).unwrap();
        let mut w5 = PackedFileWriter::create(&v5_path, 0).unwrap();
        for (hash, postings) in &lists {
            w4.write_list(*hash, postings).unwrap();
            w5.write_list(*hash, postings).unwrap();
        }
        w4.finish().unwrap();
        w5.finish().unwrap();
        let r4 = CompressedFileReader::open(&v4_path).unwrap();
        let r5 = PackedFileReader::open(&v5_path).unwrap();
        let stats = IoStats::default();
        for (hash, _) in &lists {
            assert_eq!(
                r4.read_list(*hash, &stats).unwrap(),
                r5.read_list(*hash, &stats).unwrap()
            );
            for text in 0..140u32 {
                assert_eq!(
                    r4.read_postings_for_text(*hash, text, &stats).unwrap(),
                    probe_one(&r5, *hash, text, &stats),
                    "hash {hash} text {text}"
                );
            }
        }
        std::fs::remove_file(&v4_path).ok();
        std::fs::remove_file(&v5_path).ok();
    }

    #[test]
    fn probe_every_text_of_an_irregular_list() {
        let path = temp("v5_probe_all.ndsi");
        let mut w = PackedFileWriter::create(&path, 0).unwrap();
        // Irregular text distribution, including runs longer than a block.
        let mut list: Vec<Posting> = Vec::new();
        for text in 0..10u32 {
            let run = if text % 3 == 0 { 200 } else { 3 };
            for i in 0..run {
                list.push(posting(text, i));
            }
        }
        w.write_list(1, &list).unwrap();
        w.finish().unwrap();
        let r = PackedFileReader::open(&path).unwrap();
        let stats = IoStats::default();
        for text in 0..=11u32 {
            let got = probe_one(&r, 1, text, &stats);
            let expect: Vec<Posting> = list.iter().filter(|p| p.text == text).copied().collect();
            assert_eq!(got, expect, "text {text}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_other_versions() {
        let v4_path = temp("v5_rejects_v4.ndsi");
        let mut w = crate::codec::CompressedFileWriter::create(&v4_path, 0, 8).unwrap();
        w.write_list(1, &[posting(0, 0)]).unwrap();
        w.finish().unwrap();
        assert!(matches!(
            PackedFileReader::open(&v4_path),
            Err(IndexError::Malformed(_))
        ));
        std::fs::remove_file(&v4_path).ok();
    }

    #[test]
    fn out_of_order_lists_rejected() {
        let path = temp("v5_order.ndsi");
        let mut w = PackedFileWriter::create(&path, 0).unwrap();
        w.write_list(10, &[posting(0, 0)]).unwrap();
        assert!(w.write_list(5, &[posting(0, 0)]).is_err());
    }

    #[test]
    fn header_tampering_and_payload_corruption_detected() {
        let path = temp("v5_tamper.ndsi");
        let mut w = PackedFileWriter::create(&path, 2).unwrap();
        w.write_list(
            1,
            &(0..300).map(|i| posting(i / 2, i % 2)).collect::<Vec<_>>(),
        )
        .unwrap();
        w.finish().unwrap();
        let pristine = std::fs::read(&path).unwrap();

        for offset in [8usize, 17, 25, 33, 41, 50, 57, 61, 65, 77] {
            let mut bytes = pristine.clone();
            bytes[offset] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(PackedFileReader::open(&path), Err(IndexError::Malformed(_))),
                "header byte {offset} corruption not caught"
            );
        }
        // Blocks-section corruption is caught by verify().
        let mut bytes = pristine.clone();
        bytes[HEADER_LEN_CHECKED as usize + 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let r = PackedFileReader::open(&path).unwrap();
        assert!(matches!(
            r.verify(&IoStats::default()),
            Err(IndexError::Malformed(_))
        ));
        std::fs::write(&path, &pristine).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_bit_widths_and_truncated_skip_tables_rejected() {
        let path = temp("v5_widths.ndsi");
        let mut w = PackedFileWriter::create(&path, 0).unwrap();
        w.write_list(
            7,
            &(0..500).map(|i| posting(i / 5, i % 5)).collect::<Vec<_>>(),
        )
        .unwrap();
        w.finish().unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let blocks_bytes = u64::from_le_bytes(
            pristine[OFF_SECTION1_LEN..OFF_SECTION1_LEN + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        let index_start = HEADER_LEN_CHECKED as usize + blocks_bytes;

        // Corrupt the first block's bit-width bytes (with and without a
        // recomputed section CRC, to show the structural prefix-sum check
        // catches it even if an attacker fixes the checksum).
        for fix_crc in [false, true] {
            let mut bytes = pristine.clone();
            bytes[index_start + 20] = 33; // plane-0 width out of range
            if fix_crc {
                let num_blocks = u64::from_le_bytes(pristine[32..40].try_into().unwrap()) as usize;
                let index_len = num_blocks * BLOCK_ENTRY_LEN;
                let crc = crc32c::crc32c(&bytes[index_start..index_start + index_len]);
                bytes[OFF_SECTION2_CRC..OFF_SECTION2_CRC + 4].copy_from_slice(&crc.to_le_bytes());
                let hcrc = crc32c::crc32c(&bytes[..OFF_HEADER_CRC]);
                bytes[OFF_HEADER_CRC..OFF_HEADER_CRC + 4].copy_from_slice(&hcrc.to_le_bytes());
            }
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(PackedFileReader::open(&path), Err(IndexError::Malformed(_))),
                "corrupt bit width survived open (fix_crc = {fix_crc})"
            );
        }

        // Truncating the skip table (block index) must be rejected cleanly.
        for cut in [1usize, BLOCK_ENTRY_LEN, 2 * BLOCK_ENTRY_LEN + 7] {
            let mut bytes = pristine.clone();
            bytes.truncate(pristine.len() - cut);
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(PackedFileReader::open(&path), Err(IndexError::Malformed(_))),
                "truncated skip table ({cut} B) survived open"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
