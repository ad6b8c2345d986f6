//! Golden byte-identity test of the index-file container: for one fixed
//! seeded list set, the file of every encoding has exactly the recorded
//! length and CRC-32C. The v3 and v4 pins are those of the three
//! per-format writers the container replaced (captured at commit 33e94a0
//! by running this list set through them); the packed pin was taken once,
//! when v6 replaced v5's zero-filled tail blocks with true-length ones
//! (v5 wrote 11 928 B, crc 0xd3f61c9a). Any change to a byte any encoding
//! puts on disk fails here.

use ndss_hash::HashValue;
use ndss_index::container::{Encoding, Reader, Writer};
use ndss_index::{IoStats, Posting};
use ndss_windows::CompactWindow;

const STEP: u32 = 8;
const ZONE_MIN_LEN: u32 = 16;

/// `(encoding, file length, CRC-32C of the whole file)`.
const GOLDEN: [(Encoding, usize, u32); 3] = [
    (
        Encoding::Fixed {
            zone_step: STEP,
            zone_min_len: ZONE_MIN_LEN,
        },
        24_736,
        0x93ca_e815,
    ),
    (Encoding::Varint { block_len: STEP }, 16_730, 0x9f86_bbc6),
    (Encoding::Packed, 10_620, 0xf01e_3fe9),
];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `len` postings in canonical order: text ids climb by up to `text_gap`
/// per posting, windows start anywhere below `pos_range`.
fn seeded_list(seed: u64, len: usize, text_gap: u64, pos_range: u64) -> Vec<Posting> {
    let mut state = seed;
    let mut text = 0u32;
    let mut list: Vec<Posting> = (0..len)
        .map(|_| {
            text += (splitmix64(&mut state) % text_gap) as u32;
            let l = (splitmix64(&mut state) % pos_range) as u32;
            let c = l + (splitmix64(&mut state) % 40) as u32;
            let r = c + (splitmix64(&mut state) % 600) as u32;
            Posting {
                text,
                window: CompactWindow::new(l, c, r),
            }
        })
        .collect();
    list.sort_unstable();
    list
}

/// Short (no zone map, one partial block), exactly one v4 block, exactly
/// one packed block (zone-mapped in v3), multi-block, and a long list with
/// large deltas (multi-byte varints, wide bitpacked planes).
fn golden_lists() -> Vec<(HashValue, Vec<Posting>)> {
    vec![
        (0x11, seeded_list(1, 3, 5, 100)),
        (0x2222, seeded_list(2, STEP as usize, 3, 1_000)),
        (0x3_0003, seeded_list(3, 128, 2, 50_000)),
        (0x4444_4444, seeded_list(4, 300, 4, 70_000)),
        (u64::MAX - 5, seeded_list(5, 1_000, 100_000, 3_000_000_000)),
    ]
}

#[test]
fn files_are_byte_identical_to_the_recorded_parent() {
    let dir = std::env::temp_dir().join(format!("ndss_golden_bytes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let lists = golden_lists();
    for (encoding, len, crc) in GOLDEN {
        let path = dir.join("golden.ndsi");
        let mut w = Writer::create(&path, 7, encoding).unwrap();
        for (hash, postings) in &lists {
            w.write_list(*hash, postings).unwrap();
        }
        let size = w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(size as usize, bytes.len(), "{encoding:?}");
        assert_eq!(
            (bytes.len(), crc32c::crc32c(&bytes)),
            (len, crc),
            "{encoding:?}: bytes on disk changed (got crc {:#010x})",
            crc32c::crc32c(&bytes)
        );
        // And the file reads back as what was written.
        let r = Reader::open(&path).unwrap();
        let stats = IoStats::default();
        r.verify(&stats).unwrap();
        assert_eq!((r.encoding(), r.func_idx()), (encoding, 7));
        for (hash, postings) in &lists {
            assert_eq!(&r.read_list(*hash, &stats).unwrap(), postings);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
