//! Varint delta-block posting encoding (index file format v4).
//!
//! Fixed-width postings spend most of their bytes on leading zeros: text
//! ids within a list are sorted (small deltas), and `l ≤ c ≤ r` are nearby
//! positions. This encoding delta-encodes each list in **blocks** of up to
//! `block_len` postings using LEB128 varints:
//!
//! ```text
//! per posting: varint(text − prev_text), varint(l), varint(c − l), varint(r − c)
//! ```
//!
//! Each block starts a fresh delta chain, so blocks are independently
//! decodable; the per-list **block index** in section 2 — `{first_text,
//! byte_offset, posting_count}` per block — doubles as the zone map:
//! locating one text's postings reads only the covering blocks. On
//! realistic Zipf-skewed lists this is ~3–4× smaller than fixed width
//! (asserted by tests), trading decode CPU for IO — the right trade for the
//! paper's IO-dominated query regime.
//!
//! Decoding is fully checked: varint deltas that overflow `u32`, blocks
//! whose byte length disagrees with the block index, and windows violating
//! `l ≤ c ≤ r` all surface as [`IndexError::Malformed`], never a panic.

use std::path::Path;

use ndss_corpus::TextId;
use ndss_windows::CompactWindow;

use crate::container::{BlockSpan, Payload, Reader, HEADER_LEN};
use crate::{IndexError, IoStats, Posting};

pub(crate) const BLOCK_ENTRY_LEN: usize = 16;

// ---------------------------------------------------------------- varints

/// Appends a LEB128 varint.
#[inline]
pub fn write_varint(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint; returns `(value, bytes_consumed)`.
#[inline]
pub fn read_varint(bytes: &[u8]) -> Result<(u64, usize), IndexError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        if shift >= 64 {
            break;
        }
        value |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(IndexError::Malformed("truncated varint".into()))
}

// ------------------------------------------------------------------ blocks

/// Encodes one block of postings (sorted by `(text, l, c, r)`, fresh delta
/// chain) onto `out`.
pub fn encode_block(postings: &[Posting], out: &mut Vec<u8>) {
    let mut prev_text = 0u32;
    for (i, p) in postings.iter().enumerate() {
        let delta = if i == 0 { p.text } else { p.text - prev_text };
        prev_text = p.text;
        write_varint(delta as u64, out);
        write_varint(p.window.l as u64, out);
        write_varint((p.window.c - p.window.l) as u64, out);
        write_varint((p.window.r - p.window.c) as u64, out);
    }
}

/// Decodes `count` postings from `bytes`, appending to `out`. Returns bytes
/// consumed. Every arithmetic step is overflow-checked, so corrupt varints
/// yield [`IndexError::Malformed`] rather than a wrapped (silently wrong)
/// posting or a debug-mode panic.
pub fn decode_block(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<Posting>,
) -> Result<usize, IndexError> {
    fn narrow(v: u64) -> Result<u32, IndexError> {
        u32::try_from(v).map_err(|_| IndexError::Malformed("varint value exceeds u32".into()))
    }
    fn checked(a: u32, b: u32) -> Result<u32, IndexError> {
        a.checked_add(b)
            .ok_or_else(|| IndexError::Malformed("delta chain overflows u32".into()))
    }
    let mut pos = 0usize;
    let mut prev_text = 0u32;
    for i in 0..count {
        let next = |pos: &mut usize| -> Result<u64, IndexError> {
            let (v, n) = read_varint(&bytes[*pos..])?;
            *pos += n;
            Ok(v)
        };
        let delta = narrow(next(&mut pos)?)?;
        let text = if i == 0 {
            delta
        } else {
            checked(prev_text, delta)?
        };
        prev_text = text;
        let l = narrow(next(&mut pos)?)?;
        let c = checked(l, narrow(next(&mut pos)?)?)?;
        let r = checked(c, narrow(next(&mut pos)?)?)?;
        // l ≤ c ≤ r holds by construction, so the window can be built
        // without re-asserting the invariant on corrupt-capable input.
        out.push(Posting {
            text,
            window: CompactWindow { l, c, r },
        });
    }
    Ok(pos)
}

// ------------------------------------------------------------- file layout

/// One block-index (section 2) entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    first_text: TextId,
    /// Byte offset of the block, relative to section 1.
    byte_offset: u64,
    posting_count: u32,
}

impl BlockSpan for Block {
    fn byte_offset(&self) -> u64 {
        self.byte_offset
    }

    fn posting_count(&self) -> u32 {
        self.posting_count
    }
}

/// Appends `postings` to the payload as blocks of up to `block_len`, and
/// one block-index entry per block to `section2`.
pub(crate) fn encode_list(
    postings: &[Posting],
    block_len: u32,
    scratch: &mut Vec<u8>,
    payload: &mut Payload,
    section2: &mut Vec<u8>,
) -> std::io::Result<()> {
    for chunk in postings.chunks(block_len as usize) {
        scratch.clear();
        encode_block(chunk, scratch);
        let mut entry = [0u8; BLOCK_ENTRY_LEN];
        entry[0..4].copy_from_slice(&chunk[0].text.to_le_bytes());
        entry[4..12].copy_from_slice(&payload.len().to_le_bytes());
        entry[12..16].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        section2.extend_from_slice(&entry);
        payload.append(scratch)?;
    }
    Ok(())
}

/// Parses and validates the block index: block offsets strictly ascending
/// from zero within the `payload_len`-byte section 1, no empty block.
pub(crate) fn parse_blocks(
    bytes: &[u8],
    payload_len: u64,
    path: &Path,
) -> Result<Vec<Block>, IndexError> {
    let blocks: Vec<Block> = bytes
        .chunks_exact(BLOCK_ENTRY_LEN)
        .map(|chunk| Block {
            first_text: u32::from_le_bytes(chunk[0..4].try_into().expect("4")),
            byte_offset: u64::from_le_bytes(chunk[4..12].try_into().expect("8")),
            posting_count: u32::from_le_bytes(chunk[12..16].try_into().expect("4")),
        })
        .collect();
    for (i, b) in blocks.iter().enumerate() {
        let lower = if i == 0 {
            0
        } else {
            blocks[i - 1].byte_offset.saturating_add(1)
        };
        if b.byte_offset < lower || b.byte_offset >= payload_len || b.posting_count == 0 {
            return Err(IndexError::Malformed(format!(
                "block {i} has an invalid offset or posting count in {}",
                path.display()
            )));
        }
    }
    if !blocks.is_empty() && blocks[0].byte_offset != 0 {
        return Err(IndexError::Malformed(format!(
            "first block does not start the blocks section in {}",
            path.display()
        )));
    }
    Ok(blocks)
}

/// Decodes blocks `[blk_lo, blk_hi)` (positions in the file's whole block
/// index `blocks`) of one list onto the end of `out`.
pub(crate) fn read_blocks(
    file: &Reader,
    blocks: &[Block],
    blk_lo: usize,
    blk_hi: usize,
    stats: &IoStats,
    out: &mut Vec<Posting>,
) -> Result<(), IndexError> {
    if blk_lo >= blk_hi {
        return Ok(());
    }
    let byte_lo = blocks[blk_lo].byte_offset;
    let byte_hi = blocks
        .get(blk_hi)
        .map_or(file.payload_len(), |b| b.byte_offset);
    let len = (byte_hi - byte_lo) as usize;
    let bytes = file.bytes(HEADER_LEN + byte_lo, len, stats)?;
    let mut pos = 0usize;
    for blk in blk_lo..blk_hi {
        pos += decode_block(&bytes[pos..], blocks[blk].posting_count as usize, out)?;
        // Each block must decode to exactly the byte span the block
        // index promises — a mismatch means the block bytes and the
        // index disagree (corruption the varint decoder alone can't
        // see, because garbage often still parses as varints).
        let block_end = if blk + 1 < blk_hi {
            blocks[blk + 1].byte_offset
        } else {
            byte_hi
        };
        if pos as u64 != block_end - byte_lo {
            return Err(IndexError::Malformed(format!(
                "block {blk} byte length disagrees with the block index in {}",
                file.path().display()
            )));
        }
    }
    Ok(())
}

/// Appends to `out` the postings of each text of `texts` in the list whose
/// blocks are `blocks[list]`, touching just the covering blocks of each
/// text (the block index is this encoding's built-in zone map).
pub(crate) fn probe_texts(
    file: &Reader,
    blocks: &[Block],
    list: std::ops::Range<usize>,
    texts: &[TextId],
    stats: &IoStats,
    out: &mut Vec<Posting>,
) -> Result<(), IndexError> {
    let lo = list.start;
    let index = &blocks[list];
    let mut postings = Vec::new();
    for &text in texts {
        // Standard zone bracketing on first_text: the run of blocks that can
        // contain `text` starts one block before the first block whose
        // first_text reaches `text` (a run may begin mid-block) and ends at
        // the first block whose first_text passes it.
        let first_ge = index.partition_point(|b| b.first_text < text);
        let first_gt = index.partition_point(|b| b.first_text <= text);
        let blk_lo = lo + first_ge.saturating_sub(1);
        let blk_hi = lo + first_gt;
        postings.clear();
        read_blocks(
            file,
            blocks,
            blk_lo.min(blk_hi),
            blk_hi,
            stats,
            &mut postings,
        )?;
        out.extend(postings.iter().filter(|p| p.text == text));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::tests::{posting, temp, write_file};
    use crate::container::Encoding;
    use crate::fixed::ZoneCache;

    fn probe_one(r: &Reader, hash: u64, text: u32, stats: &IoStats) -> Vec<Posting> {
        let mut out = Vec::new();
        if let Some(i) = r.find(hash) {
            r.probe_texts(i, &[text], &ZoneCache::new(0, 1), stats, &mut out)
                .unwrap();
        }
        out
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            buf.clear();
            write_varint(v, &mut buf);
            let (back, used) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        write_varint(1 << 40, &mut buf);
        buf.pop();
        assert!(read_varint(&buf).is_err());
    }

    #[test]
    fn block_roundtrip() {
        let postings: Vec<Posting> = (0..100).map(|i| posting(i / 3, (i % 3) * 7)).collect();
        let mut encoded = Vec::new();
        encode_block(&postings, &mut encoded);
        let mut decoded = Vec::new();
        let used = decode_block(&encoded, postings.len(), &mut decoded).unwrap();
        assert_eq!(used, encoded.len());
        assert_eq!(decoded, postings);
        // Compression works on this shape: < 16 bytes per posting.
        assert!(encoded.len() < postings.len() * Posting::ENCODED_LEN);
    }

    #[test]
    fn decode_block_rejects_overflowing_deltas() {
        // text delta chain that wraps u32: first text near MAX, then a big
        // delta. Must be a clean Malformed, not a wrap or panic.
        let mut bytes = Vec::new();
        write_varint(u32::MAX as u64, &mut bytes); // text
        write_varint(0, &mut bytes); // l
        write_varint(0, &mut bytes); // c - l
        write_varint(0, &mut bytes); // r - c
        write_varint(5, &mut bytes); // delta: MAX + 5 overflows
        write_varint(0, &mut bytes);
        write_varint(0, &mut bytes);
        write_varint(0, &mut bytes);
        let mut out = Vec::new();
        assert!(matches!(
            decode_block(&bytes, 2, &mut out),
            Err(IndexError::Malformed(_))
        ));
        // A varint too large for u32 in any position is also rejected.
        let mut bytes = Vec::new();
        write_varint(u64::MAX, &mut bytes);
        let mut out = Vec::new();
        assert!(matches!(
            decode_block(&bytes, 1, &mut out),
            Err(IndexError::Malformed(_))
        ));
    }

    #[test]
    fn file_roundtrip_and_probes() {
        let path = temp("varint_roundtrip.ndsi");
        let short: Vec<Posting> = (0..5).map(|i| posting(i, i)).collect();
        let long: Vec<Posting> = (0..200).map(|i| posting(i / 4, i % 4)).collect();
        let lists = [(100, short.clone()), (200, long.clone())];
        write_file(&path, Encoding::Varint { block_len: 8 }, &lists);

        let r = Reader::open(&path).unwrap();
        let stats = IoStats::default();
        assert_eq!(r.read_list(100, &stats).unwrap(), short);
        assert_eq!(r.read_list(200, &stats).unwrap(), long);

        // Per-text probe equals filter of the full list, and reads less.
        let probe_io = IoStats::default();
        let got = probe_one(&r, 200, 25, &probe_io);
        let probe_bytes = probe_io.snapshot().bytes;
        let expect: Vec<Posting> = long.iter().filter(|p| p.text == 25).copied().collect();
        assert_eq!(got, expect);
        let full_read = {
            let list_io = IoStats::default();
            r.read_list(200, &list_io).unwrap();
            list_io.snapshot().bytes
        };
        assert!(probe_bytes < full_read, "{probe_bytes} >= {full_read}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn probe_every_text_of_a_long_list() {
        let path = temp("varint_probe_all.ndsi");
        // Irregular text distribution, including runs longer than a block.
        let mut list: Vec<Posting> = Vec::new();
        for text in [0u32, 0, 0, 0, 0, 0, 2, 3, 3, 7, 7, 7, 7, 7, 7, 7, 9] {
            list.push(posting(text, list.len() as u32));
        }
        // Postings must be sorted; they are (text ascending, l ascending).
        write_file(
            &path,
            Encoding::Varint { block_len: 4 },
            &[(1, list.clone())],
        );
        let r = Reader::open(&path).unwrap();
        let stats = IoStats::default();
        for text in 0..=10u32 {
            let got = probe_one(&r, 1, text, &stats);
            let expect: Vec<Posting> = list.iter().filter(|p| p.text == text).copied().collect();
            assert_eq!(got, expect, "text {text}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Garbage in the blocks section often still parses as varints; the
    /// byte-span cross-check against the block index catches it even when
    /// the section CRC is not consulted.
    #[test]
    fn block_bytes_disagreeing_with_the_index_rejected_at_read() {
        let path = temp("varint_span.ndsi");
        let list: Vec<Posting> = (0..40).map(|i| posting(i * 300, i)).collect();
        write_file(&path, Encoding::Varint { block_len: 8 }, &[(1, list)]);
        let mut bytes = std::fs::read(&path).unwrap();
        // Clear a continuation bit: the first two-byte varint becomes two
        // one-byte varints, shifting every later value in the block.
        let at = crate::container::HEADER_LEN as usize;
        let two_byte = (at..at + 64).find(|&i| bytes[i] & 0x80 != 0).unwrap();
        bytes[two_byte] &= 0x7F;
        std::fs::write(&path, &bytes).unwrap();
        let r = Reader::open(&path).unwrap();
        assert!(matches!(
            r.read_list(1, &IoStats::default()),
            Err(IndexError::Malformed(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
