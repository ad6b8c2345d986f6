//! Block-bitpacked posting encoding (index file format v5).
//!
//! v4 spends most of its decode time in the branchy one-varint-at-a-time
//! loop. v5 stores each posting list as fixed **128-entry blocks** of four
//! independently bitpacked planes:
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
//! whole-file prefix-sum cross-check. The per-block index entry in
//! section 2 carries `first_text`, **`max_text`** (a skip entry: probes
//! binary-search it to seek directly to the first candidate block of a long
//! list), `byte_offset`, `posting_count`, and the four bit widths.
//!
//! Short blocks (a list's tail) are zero-padded to 128 entries before
//! packing; zeros never raise a plane's bit width and the decoder stops at
//! `posting_count`. All delta arithmetic on the read side is
//! overflow-checked and the decoded last text id must equal the stored
//! `max_text`, so corrupt widths or payload bytes surface as
//! [`IndexError::Malformed`], never a panic or a wrapped posting.

use std::path::Path;

use ndss_corpus::TextId;
use ndss_windows::CompactWindow;

use crate::container::{self, BlockSpan, Payload, Reader};
use crate::{IndexError, IoStats, Posting};

/// Postings per block (fixed: the bitpack kernel's block size).
pub(crate) const BLOCK_LEN: usize = bitpack::BLOCK_LEN;
/// Planes per block: text delta, l, c−l, r−c.
const PLANES: usize = 4;
pub(crate) const BLOCK_ENTRY_LEN: usize = 24;

/// One block-index (section 2) entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    first_text: TextId,
    /// Largest text id in the block — the skip entry probes seek by.
    max_text: TextId,
    /// Byte offset of the block, relative to section 1.
    byte_offset: u64,
    posting_count: u32,
    /// Bit width of each packed plane.
    bits: [u8; PLANES],
}

impl Block {
    /// Packed byte length of the block (16 bytes per plane bit).
    #[inline]
    fn byte_len(&self) -> u64 {
        self.bits
            .iter()
            .map(|&b| bitpack::packed_len(b) as u64)
            .sum()
    }
}

impl BlockSpan for Block {
    fn byte_offset(&self) -> u64 {
        self.byte_offset
    }

    fn posting_count(&self) -> u32 {
        self.posting_count
    }
}

/// Appends `postings` to the payload as 128-entry bitpacked blocks, and one
/// block-index entry per block to `section2`.
pub(crate) fn encode_list(
    postings: &[Posting],
    scratch: &mut Vec<u8>,
    payload: &mut Payload,
    section2: &mut Vec<u8>,
) -> std::io::Result<()> {
    for chunk in postings.chunks(BLOCK_LEN) {
        let first_text = chunk[0].text;
        let max_text = chunk[chunk.len() - 1].text;
        // Zeroed per block: a short tail block is zero-padded to 128.
        let mut planes = [[0u32; BLOCK_LEN]; PLANES];
        let mut prev_text = first_text;
        for (i, p) in chunk.iter().enumerate() {
            planes[0][i] = p.text - prev_text;
            prev_text = p.text;
            planes[1][i] = p.window.l;
            planes[2][i] = p.window.c - p.window.l;
            planes[3][i] = p.window.r - p.window.c;
        }
        let mut bits = [0u8; PLANES];
        scratch.clear();
        for (pi, plane) in planes.iter().enumerate() {
            bits[pi] = bitpack::num_bits(plane);
            let start = scratch.len();
            scratch.resize(start + bitpack::packed_len(bits[pi]), 0);
            bitpack::pack(plane, bits[pi], &mut scratch[start..]);
        }
        let mut entry = [0u8; BLOCK_ENTRY_LEN];
        entry[0..4].copy_from_slice(&first_text.to_le_bytes());
        entry[4..8].copy_from_slice(&max_text.to_le_bytes());
        entry[8..16].copy_from_slice(&payload.len().to_le_bytes());
        entry[16..20].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        entry[20..24].copy_from_slice(&bits);
        section2.extend_from_slice(&entry);
        payload.append(scratch)?;
    }
    Ok(())
}

/// Parses and validates the block index. Block byte offsets are fully
/// determined by the bit widths (each block is exactly 16·Σbits bytes), so
/// the whole `payload_len`-byte section 1 is validated as one prefix sum —
/// a corrupt width or offset anywhere breaks the chain.
pub(crate) fn parse_blocks(
    bytes: &[u8],
    payload_len: u64,
    path: &Path,
) -> Result<Vec<Block>, IndexError> {
    let blocks: Vec<Block> = bytes
        .chunks_exact(BLOCK_ENTRY_LEN)
        .map(|chunk| Block {
            first_text: u32::from_le_bytes(chunk[0..4].try_into().expect("4")),
            max_text: u32::from_le_bytes(chunk[4..8].try_into().expect("4")),
            byte_offset: u64::from_le_bytes(chunk[8..16].try_into().expect("8")),
            posting_count: u32::from_le_bytes(chunk[16..20].try_into().expect("4")),
            bits: chunk[20..24].try_into().expect("4"),
        })
        .collect();
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
        expected_offset = container::add(expected_offset, b.byte_len(), "blocks size")?;
    }
    if expected_offset != payload_len {
        return Err(IndexError::Malformed(format!(
            "block widths sum to {expected_offset} B but the blocks section is \
             {payload_len} B in {}",
            path.display()
        )));
    }
    Ok(blocks)
}

/// Unpacks and decodes the consecutive blocks `blocks` of one list.
pub(crate) fn read_blocks(
    file: &Reader,
    blocks: &[Block],
    stats: &IoStats,
) -> Result<Vec<Posting>, IndexError> {
    let Some(first) = blocks.first() else {
        return Ok(Vec::new());
    };
    let range_len = blocks.iter().map(|b| b.byte_len() as usize).sum();
    // A mapped file hands out the block range as a borrowed slice —
    // no intermediate buffer, no copy; the unpack kernel reads the
    // packed planes straight out of the page cache.
    let owned;
    let bytes: &[u8] = match file.mapped_payload(first.byte_offset, range_len, stats)? {
        Some(view) => view,
        None => {
            let mut buf = vec![0u8; range_len];
            file.read_payload(first.byte_offset, &mut buf, stats)?;
            owned = buf;
            &owned
        }
    };
    let total: usize = blocks.iter().map(|b| b.posting_count as usize).sum();
    let mut out = Vec::with_capacity(total);
    let mut block = [EMPTY_POSTING; BLOCK_LEN];
    let mut pos = 0usize;
    for entry in blocks {
        let len = entry.byte_len() as usize;
        let count = decode_block(entry, &bytes[pos..pos + len], &mut block)?;
        out.extend_from_slice(&block[..count]);
        pos += len;
    }
    Ok(out)
}

/// Appends to `out` the postings of each text of `texts` (strictly
/// ascending) in the list whose blocks are `index`, in one forward pass.
/// The per-block `max_text` skip entries let the probe **seek**: a
/// `partition_point` over the blocks not yet passed lands on the first
/// block whose range can contain the next text, so a long list costs
/// O(log blocks) index work per text plus IO for the covering blocks only.
/// Each covering block is read (into a stack buffer, or borrowed from the
/// mapping) and unpacked at most once per call, however many of the texts
/// it holds.
pub(crate) fn probe_texts(
    file: &Reader,
    index: &[Block],
    texts: &[TextId],
    stats: &IoStats,
    out: &mut Vec<Posting>,
) -> Result<(), IndexError> {
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
                let packed = match file.mapped_payload(e.byte_offset, len, stats)? {
                    Some(view) => view,
                    None => {
                        file.read_payload(e.byte_offset, &mut bytes[..len], stats)?;
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
    entry: &Block,
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
    use crate::container::tests::{posting, temp, write_file};
    use crate::container::{Encoding, OFF_HEADER_CRC, OFF_SECTION1_LEN, OFF_SECTION2_CRC};
    use crate::fixed::ZoneCache;

    fn probe_one(r: &Reader, hash: u64, text: u32, stats: &IoStats) -> Vec<Posting> {
        let mut out = Vec::new();
        r.probe_texts(hash, &[text], &ZoneCache::new(0, 1), stats, &mut out)
            .unwrap();
        out
    }

    #[test]
    fn file_roundtrip_and_probes() {
        let path = temp("packed_roundtrip.ndsi");
        let short: Vec<Posting> = (0..5).map(|i| posting(i, i)).collect();
        let long: Vec<Posting> = (0..1000).map(|i| posting(i / 4, i % 4)).collect();
        let lists = [(100, short.clone()), (200, long.clone())];
        write_file(&path, Encoding::Packed, &lists);

        let r = Reader::open(&path).unwrap();
        let stats = IoStats::default();
        assert_eq!(r.read_list(100, &stats).unwrap(), short);
        assert_eq!(r.read_list(200, &stats).unwrap(), long);

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
        let v4_path = temp("packed_vs_v4_v4.ndsi");
        let v5_path = temp("packed_vs_v4_v5.ndsi");
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
        write_file(&v4_path, Encoding::Varint { block_len: 16 }, &lists);
        write_file(&v5_path, Encoding::Packed, &lists);
        let r4 = Reader::open(&v4_path).unwrap();
        let r5 = Reader::open(&v5_path).unwrap();
        let stats = IoStats::default();
        for (hash, _) in &lists {
            assert_eq!(
                r4.read_list(*hash, &stats).unwrap(),
                r5.read_list(*hash, &stats).unwrap()
            );
            for text in 0..140u32 {
                assert_eq!(
                    probe_one(&r4, *hash, text, &stats),
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
        let path = temp("packed_probe_all.ndsi");
        // Irregular text distribution, including runs longer than a block.
        let mut list: Vec<Posting> = Vec::new();
        for text in 0..10u32 {
            let run = if text % 3 == 0 { 200 } else { 3 };
            for i in 0..run {
                list.push(posting(text, i));
            }
        }
        write_file(&path, Encoding::Packed, &[(1, list.clone())]);
        let r = Reader::open(&path).unwrap();
        let stats = IoStats::default();
        for text in 0..=11u32 {
            let got = probe_one(&r, 1, text, &stats);
            let expect: Vec<Posting> = list.iter().filter(|p| p.text == text).copied().collect();
            assert_eq!(got, expect, "text {text}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_bit_widths_and_truncated_skip_tables_rejected() {
        let path = temp("packed_widths.ndsi");
        let list: Vec<Posting> = (0..500).map(|i| posting(i / 5, i % 5)).collect();
        write_file(&path, Encoding::Packed, &[(7, list)]);
        let pristine = std::fs::read(&path).unwrap();
        let blocks_bytes = u64::from_le_bytes(
            pristine[OFF_SECTION1_LEN..OFF_SECTION1_LEN + 8]
                .try_into()
                .unwrap(),
        ) as usize;
        let index_start = container::HEADER_LEN as usize + blocks_bytes;

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
                matches!(Reader::open(&path), Err(IndexError::Malformed(_))),
                "corrupt bit width survived open (fix_crc = {fix_crc})"
            );
        }

        // Truncating the skip table (block index) must be rejected cleanly.
        for cut in [1usize, BLOCK_ENTRY_LEN, 2 * BLOCK_ENTRY_LEN + 7] {
            let mut bytes = pristine.clone();
            bytes.truncate(pristine.len() - cut);
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(Reader::open(&path), Err(IndexError::Malformed(_))),
                "truncated skip table ({cut} B) survived open"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
