//! Block-bitpacked posting encoding (index file format v6).
//!
//! The varint encoding spends most of its decode time in the branchy
//! one-varint-at-a-time loop. This one stores each posting list as blocks
//! of up to **128 postings**, each block four independently bitpacked
//! planes:
//!
//! ```text
//! plane 0: text-id deltas   (delta[0] = 0 relative to the block's first_text)
//! plane 1: l                (window start)
//! plane 2: c − l
//! plane 3: r − c
//! ```
//!
//! Each plane is packed at its own bit width `bᵢ` by [`bitpack`], in one of
//! two layouts chosen by the block's `posting_count` alone:
//!
//! * a **full block** (exactly 128 postings) uses the 4-lane interleaved
//!   `BitPacker4x` layout, SIMD-unpacked at query time: `16·bᵢ` bytes per
//!   plane;
//! * a list's **tail block** (1–127 postings) packs its `count` values
//!   horizontally, `⌈count·bᵢ / 8⌉` bytes per plane, decoded by a scalar
//!   loop that produces only `count` entries. Nine lists in ten are a
//!   single short tail, so a tail pays for the postings it has, not for
//!   the 128 it could have had.
//!
//! Either way a block's byte length is derivable from its index entry
//! alone, which the open-time validator exploits as a whole-file
//! prefix-sum cross-check. The per-block index entry in section 2 carries
//! `first_text`, **`max_text`** (a skip entry: probes binary-search it to
//! seek directly to the first candidate block of a long list),
//! `byte_offset`, `posting_count`, and the four bit widths.
//!
//! All delta arithmetic on the read side is overflow-checked and the
//! decoded last text id must equal the stored `max_text`, so corrupt widths
//! or payload bytes surface as [`IndexError::Malformed`], never a panic or
//! a wrapped posting.

use std::path::Path;

use ndss_corpus::TextId;
use ndss_windows::CompactWindow;

use crate::container::{self, BlockSpan, Payload, Reader};
use crate::{IndexError, IoStats, Posting};

/// Postings per full block (fixed: the bitpack kernel's block size).
pub(crate) const BLOCK_LEN: usize = bitpack::BLOCK_LEN;
/// Planes per block: text delta, l, c−l, r−c.
const PLANES: usize = 4;
pub(crate) const BLOCK_ENTRY_LEN: usize = 24;

/// Packed byte length of one plane of a `count`-posting block at `bits`.
#[inline]
fn plane_len(count: usize, bits: u8) -> usize {
    if count == BLOCK_LEN {
        bitpack::packed_len(bits)
    } else {
        bitpack::tail_len(count, bits)
    }
}

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
    /// Packed byte length of the block: `16·Σbits` when full,
    /// `Σ⌈count·bits/8⌉` for a tail.
    #[inline]
    fn byte_len(&self) -> usize {
        let count = self.posting_count as usize;
        self.bits.iter().map(|&b| plane_len(count, b)).sum()
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

/// Appends `postings` to the payload as bitpacked blocks — full ones of 128,
/// then the tail at its true length — and one block-index entry per block
/// to `section2`.
pub(crate) fn encode_list(
    postings: &[Posting],
    scratch: &mut Vec<u8>,
    payload: &mut Payload,
    section2: &mut Vec<u8>,
) -> std::io::Result<()> {
    let mut planes = [[0u32; BLOCK_LEN]; PLANES];
    for chunk in postings.chunks(BLOCK_LEN) {
        let first_text = chunk[0].text;
        let max_text = chunk[chunk.len() - 1].text;
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
            bits[pi] = bitpack::num_bits(&plane[..chunk.len()]);
            if chunk.len() == BLOCK_LEN {
                let start = scratch.len();
                scratch.resize(start + bitpack::packed_len(bits[pi]), 0);
                bitpack::pack(plane, bits[pi], &mut scratch[start..]);
            } else {
                bitpack::pack_tail(&plane[..chunk.len()], bits[pi], scratch);
            }
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
/// determined by the posting counts and bit widths (see
/// [`Block::byte_len`]), so the whole `payload_len`-byte section 1 is
/// validated as one prefix sum — a corrupt count, width or offset anywhere
/// breaks the chain.
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
        expected_offset = container::add(expected_offset, b.byte_len() as u64, "blocks size")?;
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

/// Unpacks and decodes the consecutive blocks `blocks` of one list onto the
/// end of `out`.
pub(crate) fn read_blocks(
    file: &Reader,
    blocks: &[Block],
    stats: &IoStats,
    out: &mut Vec<Posting>,
) -> Result<(), IndexError> {
    let Some(first) = blocks.first() else {
        return Ok(());
    };
    let range_len = blocks.iter().map(Block::byte_len).sum();
    // A mapped file hands out the block range as a borrowed slice —
    // no intermediate buffer, no copy; the unpack kernel reads the
    // packed planes straight out of the page cache. Otherwise a range the
    // size of one block (nine lists in ten are a single short tail) is
    // read into a stack buffer, and only a longer one into a heap buffer.
    let mut stack = [0u8; MAX_BLOCK_BYTES];
    let mut heap = Vec::new();
    let bytes: &[u8] = match file.mapped_payload(first.byte_offset, range_len, stats)? {
        Some(view) => view,
        None => {
            let buf = match stack.get_mut(..range_len) {
                Some(buf) => buf,
                None => {
                    heap.resize(range_len, 0);
                    &mut heap[..]
                }
            };
            file.read_payload(first.byte_offset, buf, stats)?;
            buf
        }
    };
    let total: usize = blocks.iter().map(|b| b.posting_count as usize).sum();
    let mut done = out.len();
    out.resize(done + total, EMPTY_POSTING);
    let mut pos = 0usize;
    for entry in blocks {
        let (len, count) = (entry.byte_len(), entry.posting_count as usize);
        decode_block(entry, &bytes[pos..pos + len], &mut out[done..done + count])?;
        pos += len;
        done += count;
    }
    Ok(())
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
                let len = e.byte_len();
                let packed = match file.mapped_payload(e.byte_offset, len, stats)? {
                    Some(view) => view,
                    None => {
                        file.read_payload(e.byte_offset, &mut bytes[..len], stats)?;
                        &bytes[..len]
                    }
                };
                count = e.posting_count as usize;
                decode_block(e, packed, &mut block[..count])?;
                resident = b;
            }
            crate::probe_sorted(&block[..count], &[text], out);
            b += 1;
        }
    }
    Ok(())
}

/// Largest packed block: four full planes at 32 bits.
const MAX_BLOCK_BYTES: usize = PLANES * bitpack::packed_len(32);

const EMPTY_POSTING: Posting = Posting {
    text: 0,
    window: CompactWindow { l: 0, c: 0, r: 0 },
};

/// Unpacks and decodes one block from its `packed` bytes
/// (`entry.byte_len()` of them) into `block` (`entry.posting_count`
/// entries): the SIMD kernel over four 128-entry planes for a full block,
/// four scalar bit cursors for a tail. Corrupt payloads yield a clean
/// error; callers use `block` only after it, so corrupt blocks never leak
/// postings.
fn decode_block(entry: &Block, packed: &[u8], block: &mut [Posting]) -> Result<(), IndexError> {
    let count = block.len();
    debug_assert_eq!(count, entry.posting_count as usize);
    debug_assert_eq!(packed.len(), entry.byte_len());
    let mut rest = packed;
    let mut next_plane = |bits: u8| {
        let (plane, tail) = rest.split_at(plane_len(count, bits));
        rest = tail;
        plane
    };
    if count == BLOCK_LEN {
        let mut planes = [[0u32; BLOCK_LEN]; PLANES];
        for (plane, &bits) in planes.iter_mut().zip(&entry.bits) {
            bitpack::unpack(next_plane(bits), bits, plane);
        }
        let [texts, ls, cls, rcs] = &planes;
        let rows = texts.iter().zip(ls).zip(cls.iter().zip(rcs));
        decode_rows(
            entry,
            rows.map(|((&d, &l), (&cl, &rc))| [d, l, cl, rc]),
            block,
        )
    } else {
        let [texts, ls, cls, rcs] = entry.bits.map(|bits| {
            bitpack::unpack_tail(next_plane(bits), bits, count)
                .expect("plane_len is tail_len for a validated tail entry")
        });
        let rows = texts.zip(ls).zip(cls.zip(rcs));
        decode_rows(entry, rows.map(|((d, l), (cl, rc))| [d, l, cl, rc]), block)
    }
}

/// Turns one `[text delta, l, c − l, r − c]` row per posting into `block`.
/// Every arithmetic step is overflow-checked and the first and last text
/// ids are cross-checked against the block's index entry.
#[inline]
fn decode_rows(
    entry: &Block,
    rows: impl Iterator<Item = [u32; PLANES]>,
    block: &mut [Posting],
) -> Result<(), IndexError> {
    // All arithmetic runs branchless in u64 (a 128-delta chain of u32s
    // cannot overflow u64); `wide` accumulates any value that left u32
    // range and a single check at the end rejects the block.
    let mut wide = 0u64;
    let mut text = entry.first_text as u64;
    for (slot, [delta, l, cl, rc]) in block.iter_mut().zip(rows) {
        text += delta as u64;
        let l = l as u64;
        let c = l + cl as u64;
        let r = c + rc as u64;
        wide |= (text | r) >> 32;
        *slot = Posting {
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
    if block[0].text != entry.first_text {
        return Err(IndexError::Malformed(
            "first packed delta of a block is nonzero".into(),
        ));
    }
    if text != entry.max_text as u64 {
        return Err(IndexError::Malformed(
            "decoded block does not end at its max_text skip entry".into(),
        ));
    }
    Ok(())
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

    /// Where the block index (section 2) sits in the file `bytes`.
    fn block_index_range(bytes: &[u8]) -> std::ops::Range<usize> {
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()) as usize;
        let start = container::HEADER_LEN as usize + u64_at(OFF_SECTION1_LEN);
        start..start + u64_at(32) * BLOCK_ENTRY_LEN
    }

    /// `bytes` with `edit` applied to its header and its block index, and
    /// the section and header CRCs recomputed — what an attacker who fixes
    /// the checksums would write.
    fn edit_with_fixed_crcs(bytes: &[u8], edit: impl FnOnce(&mut [u8], &mut [u8])) -> Vec<u8> {
        let mut bytes = bytes.to_vec();
        let index = block_index_range(&bytes);
        let (header, rest) = bytes.split_at_mut(container::HEADER_LEN as usize);
        let index = &mut rest[index.start - header.len()..index.end - header.len()];
        edit(header, index);
        let crc = crc32c::crc32c(index);
        header[OFF_SECTION2_CRC..OFF_SECTION2_CRC + 4].copy_from_slice(&crc.to_le_bytes());
        let hcrc = crc32c::crc32c(&header[..OFF_HEADER_CRC]);
        header[OFF_HEADER_CRC..OFF_HEADER_CRC + 4].copy_from_slice(&hcrc.to_le_bytes());
        bytes
    }

    #[test]
    fn corrupt_bit_widths_and_truncated_skip_tables_rejected() {
        let path = temp("packed_widths.ndsi");
        let list: Vec<Posting> = (0..500).map(|i| posting(i / 5, i % 5)).collect();
        write_file(&path, Encoding::Packed, &[(7, list)]);
        let pristine = std::fs::read(&path).unwrap();

        // Corrupt the first block's bit-width bytes (with and without a
        // recomputed section CRC, to show the structural prefix-sum check
        // catches it even if an attacker fixes the checksum).
        let mut flipped = pristine.clone();
        flipped[block_index_range(&pristine).start + 20] = 33; // plane-0 width out of range
        let fixed_crc = edit_with_fixed_crcs(&pristine, |_, index| index[20] = 33);
        for (bytes, fix_crc) in [(&flipped, false), (&fixed_crc, true)] {
            std::fs::write(&path, bytes).unwrap();
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

    /// A tail block's byte length depends on its `posting_count` as well as
    /// its widths, so an edit to either — checksums recomputed, directory
    /// untouched — breaks the whole-file prefix sum at open; nothing is
    /// left for the decoder to mis-slice.
    #[test]
    fn tail_count_or_width_edits_with_recomputed_crcs_refused_by_the_prefix_sum() {
        let path = temp("packed_tail_edit.ndsi");
        // Two single-tail lists and one with three full blocks and a tail.
        let lists = [
            (1u64, (0..5).map(|i| posting(i * 9, i)).collect::<Vec<_>>()),
            (2, (0..500).map(|i| posting(i / 5, i % 5)).collect()),
            (3, (0..40).map(|i| posting(i, 1000 * i)).collect()),
        ];
        write_file(&path, Encoding::Packed, &lists);
        let pristine = std::fs::read(&path).unwrap();
        assert!(Reader::open(&path).is_ok());
        // Blocks: 0 = list 1's tail, 1..=3 full, 4 = list 2's tail (100
        // postings), 5 = list 3's tail (the last block of the file).
        for (what, block, offset, delta) in [
            ("first tail count + 1", 0usize, 16usize, 1i8),
            ("first tail count - 1", 0, 16, -1),
            ("inner tail count + 1", 4, 16, 1),
            ("last tail count - 1", 5, 16, -1),
            ("first tail text width + 1", 0, 20, 1),
            ("inner tail l width - 1", 4, 21, -1),
            ("last tail r-c width + 1", 5, 23, 1),
            // Narrow planes: ⌈127·b/8⌉ = 16·b below 8 bits, so this one
            // passes the prefix sum and falls to the directory cross-check.
            ("full block relabelled a 127-posting tail", 1, 16, -1),
        ] {
            let bytes = edit_with_fixed_crcs(&pristine, |_, index| {
                let at = block * BLOCK_ENTRY_LEN + offset;
                index[at] = index[at].wrapping_add_signed(delta);
            });
            std::fs::write(&path, &bytes).unwrap();
            match Reader::open(&path) {
                Err(IndexError::Malformed(msg)) => assert!(
                    msg.contains("prefix sum")
                        || msg.contains("widths sum")
                        || (block == 1 && msg.contains("its blocks hold 499")),
                    "{what}: refused, but not by the prefix sum: {msg}"
                ),
                Err(other) => panic!("{what}: {other}"),
                Ok(_) => panic!("{what} survived open"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Version 5 wrote the same header, directory and block entries over
    /// tails zero-filled to 128 entries; such a file is refused by its
    /// version, before any of its (valid) checksums or counts are believed.
    #[test]
    fn version_5_file_is_refused_by_version() {
        let path = temp("packed_v5.ndsi");
        write_file(&path, Encoding::Packed, &[(7, vec![posting(1, 2)])]);
        let bytes = edit_with_fixed_crcs(&std::fs::read(&path).unwrap(), |header, _| {
            assert_eq!(header[4], 6);
            header[4] = 5;
        });
        std::fs::write(&path, &bytes).unwrap();
        match Reader::open(&path) {
            Err(IndexError::Malformed(msg)) => {
                assert!(msg.contains("unsupported index file version 5"), "{msg}")
            }
            other => panic!("a v5 file must be refused by version, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
