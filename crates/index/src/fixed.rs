//! Fixed-width posting encoding (index file format v3).
//!
//! A posting is 16 bytes (`text, l, c, r` as little-endian `u32`s),
//! matching the paper's "4 integers per compact window" accounting that
//! yields the `8/t` index-to-corpus size ratio, so any posting range of a
//! list is one positioned read. Lists of at least `zone_min_len` postings
//! additionally get a **zone map** in section 2: one `{text, rel_idx}`
//! sample per `zone_step` postings, so a binary search over the samples
//! brackets any text id's postings within one step (paper §3.5). Zone maps
//! are read on demand and shared through the caller's zone cache.

use std::sync::Arc;

use ndss_corpus::TextId;

use crate::cache::ShardedCache;
use crate::container::{DirEntry, Payload, Reader, HEADER_LEN};
use crate::{IndexError, IoStats, Posting};

pub(crate) const ZONE_ENTRY_LEN: usize = 8;

/// One zone-map entry: the text id found at posting index
/// `list_start + rel_idx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ZoneEntry {
    /// Text id at the sampled posting.
    pub text: u32,
    /// Posting index relative to the list start.
    pub rel_idx: u32,
}

/// Zone maps read once per (function, hash) and reused across probes of the
/// same long list, within a query and across queries.
pub(crate) type ZoneCache = ShardedCache<[ZoneEntry]>;

/// Approximate heap weight of a cached zone map, in bytes.
fn zone_weight(zone: &[ZoneEntry]) -> usize {
    std::mem::size_of_val(zone) + 64
}

/// Appends `postings` to the payload and, for a list of at least
/// `zone_min_len`, one zone sample per `zone_step` postings to `section2`.
pub(crate) fn encode_list(
    postings: &[Posting],
    zone_step: u32,
    zone_min_len: u32,
    payload: &mut Payload,
    section2: &mut Vec<u8>,
) -> std::io::Result<()> {
    let long = postings.len() as u64 >= zone_min_len as u64;
    let mut buf = [0u8; Posting::ENCODED_LEN];
    for (rel, p) in postings.iter().enumerate() {
        p.encode(&mut buf);
        payload.append(&buf)?;
        if long && rel % zone_step as usize == 0 {
            let mut entry = [0u8; ZONE_ENTRY_LEN];
            entry[0..4].copy_from_slice(&p.text.to_le_bytes());
            entry[4..8].copy_from_slice(&(rel as u32).to_le_bytes());
            section2.extend_from_slice(&entry);
        }
    }
    Ok(())
}

/// Appends postings `[rel_lo, rel_hi)` of the list described by `entry` to
/// `out`.
pub(crate) fn read_range(
    file: &Reader,
    entry: &DirEntry,
    rel_lo: u64,
    rel_hi: u64,
    stats: &IoStats,
    out: &mut Vec<Posting>,
) -> Result<(), IndexError> {
    if rel_lo > rel_hi || rel_hi > entry.count {
        return Err(IndexError::Malformed(format!(
            "posting range [{rel_lo}, {rel_hi}) outside list of {} postings in {}",
            entry.count,
            file.path().display()
        )));
    }
    let len = (rel_hi - rel_lo) as usize * Posting::ENCODED_LEN;
    let offset = (entry.start + rel_lo) * Posting::ENCODED_LEN as u64;
    let bytes = file.bytes(HEADER_LEN + offset, len, stats)?;
    out.reserve(bytes.len() / Posting::ENCODED_LEN);
    for chunk in bytes.chunks_exact(Posting::ENCODED_LEN) {
        out.push(Posting::decode_checked(chunk).ok_or_else(|| {
            IndexError::Malformed(format!(
                "corrupt posting (window invariant violated) in {}",
                file.path().display()
            ))
        })?);
    }
    Ok(())
}

/// Reads the zone entries of a long list (empty for a list without a zone
/// map).
pub(crate) fn read_zone(
    file: &Reader,
    entry: &DirEntry,
    stats: &IoStats,
) -> Result<Vec<ZoneEntry>, IndexError> {
    if entry.aux_count == 0 {
        return Ok(Vec::new());
    }
    let len = entry.aux_count as usize * ZONE_ENTRY_LEN;
    let offset = file.payload_len() + entry.aux_start * ZONE_ENTRY_LEN as u64;
    let bytes = file.bytes(HEADER_LEN + offset, len, stats)?;
    Ok(bytes
        .chunks_exact(ZONE_ENTRY_LEN)
        .map(|c| ZoneEntry {
            text: u32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
            rel_idx: u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
        })
        .collect())
}

/// Batched probe: the zone map is resolved once (through `zones`, so it is
/// read once per (function, hash) — it is `O(list / zone_step)` small),
/// then each text is bracketed between two zone samples and only that
/// posting range is read.
pub(crate) fn probe_texts(
    file: &Reader,
    entry: &DirEntry,
    texts: &[TextId],
    zones: &ZoneCache,
    stats: &IoStats,
    out: &mut Vec<Posting>,
) -> Result<(), IndexError> {
    let zone = if entry.aux_count == 0 {
        None
    } else {
        let func = file.func_idx() as usize;
        Some(match zones.get(func, entry.hash) {
            Some(zone) => {
                stats.record_zone_hit();
                zone
            }
            None => {
                stats.record_zone_miss();
                let zone: Arc<[ZoneEntry]> = Arc::from(read_zone(file, entry, stats)?);
                zones.insert(func, entry.hash, zone.clone(), zone_weight(&zone));
                zone
            }
        })
    };
    let mut chunk = Vec::new();
    for &text in texts {
        let (rel_lo, rel_hi) = match &zone {
            None => (0, entry.count),
            Some(zone) => {
                // First sample at or past `text`: postings for `text`
                // cannot start before the *previous* sample.
                let first_ge = zone.partition_point(|z| z.text < text);
                let rel_lo = match first_ge {
                    0 => 0,
                    i => zone[i - 1].rel_idx as u64,
                };
                // First sample strictly past `text`: postings for `text`
                // end before it.
                let rel_hi = zone
                    .get(zone.partition_point(|z| z.text <= text))
                    .map_or(entry.count, |z| z.rel_idx as u64);
                (rel_lo, rel_hi)
            }
        };
        chunk.clear();
        read_range(file, entry, rel_lo, rel_hi, stats, &mut chunk)?;
        crate::probe_sorted(&chunk, &[text], out);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::tests::{entry, posting, temp, write_file};
    use crate::container::Encoding;

    const ENCODING: Encoding = Encoding::Fixed {
        zone_step: 4,
        zone_min_len: 8,
    };

    #[test]
    fn zone_maps_sample_long_lists_only() {
        let path = temp("fixed_zones.ndsi");
        let short: Vec<Posting> = (0..5).map(|i| posting(i, 0)).collect();
        let long: Vec<Posting> = (0..100).map(|i| posting(i / 3, i % 3)).collect();
        write_file(&path, ENCODING, &[(10, short), (20, long.clone())]);
        let r = Reader::open(&path).unwrap();
        let stats = IoStats::default();

        let e10 = entry(&r, 10);
        assert_eq!(e10.aux_count, 0, "short list must not get a zone map");
        assert!(read_zone(&r, e10, &stats).unwrap().is_empty());

        let e20 = entry(&r, 20);
        let zone = read_zone(&r, e20, &stats).unwrap();
        assert_eq!(zone.len(), 25); // every 4th of 100 postings
        assert_eq!((zone[0].rel_idx, zone[1].rel_idx), (0, 4));
        assert_eq!(zone[0].text, long[0].text);
        assert_eq!(zone[24].text, long[96].text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_read_returns_exact_slice() {
        let path = temp("fixed_range.ndsi");
        let list: Vec<Posting> = (0..50).map(|i| posting(i, i)).collect();
        write_file(
            &path,
            ENCODING,
            &[(3, vec![posting(1, 1)]), (7, list.clone())],
        );
        let r = Reader::open(&path).unwrap();
        let stats = IoStats::default();
        let e = entry(&r, 7);
        let mut got = Vec::new();
        read_range(&r, e, 10, 20, &stats, &mut got).unwrap();
        assert_eq!(got, list[10..20]);
        // An out-of-bounds range is a clean error, not a panic.
        for (lo, hi) in [(10, 51), (20, 10)] {
            assert!(matches!(
                read_range(&r, e, lo, hi, &stats, &mut got),
                Err(IndexError::Malformed(_))
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    /// Zone-bracketed probes equal a filter of the full list, read less
    /// than the list, and consult the zone section once per list.
    #[test]
    fn zone_probe_matches_filter_and_caches_the_zone_map() {
        let path = temp("fixed_probe.ndsi");
        let mut list: Vec<Posting> = Vec::new();
        for text in [0u32, 0, 0, 0, 0, 0, 2, 3, 3, 7, 7, 7, 7, 7, 7, 7, 9] {
            list.push(posting(text, list.len() as u32));
        }
        write_file(&path, ENCODING, &[(1, list.clone())]);
        let r = Reader::open(&path).unwrap();
        let zones = ZoneCache::new(1 << 20, 1);
        let stats = IoStats::default();
        for text in 0..=10u32 {
            let mut got = Vec::new();
            r.probe_texts(0, &[text], &zones, &stats, &mut got).unwrap();
            let expect: Vec<Posting> = list.iter().filter(|p| p.text == text).copied().collect();
            assert_eq!(got, expect, "text {text}");
        }
        let s = stats.snapshot();
        assert_eq!((s.zone_misses, s.zone_hits), (1, 10));

        let one = IoStats::default();
        r.probe_texts(0, &[3], &zones, &one, &mut Vec::new())
            .unwrap();
        assert!(one.snapshot().bytes < (list.len() * Posting::ENCODED_LEN) as u64);
        std::fs::remove_file(&path).ok();
    }

    /// A posting whose window violates `l ≤ c ≤ r` is a clean error at read
    /// time (the payload CRC is consulted only by `verify`).
    #[test]
    fn corrupt_window_rejected_at_read() {
        let path = temp("fixed_window.ndsi");
        write_file(&path, ENCODING, &[(1, vec![posting(0, 5)])]);
        let mut bytes = std::fs::read(&path).unwrap();
        let l_at = crate::container::HEADER_LEN as usize + 4;
        bytes[l_at..l_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let r = Reader::open(&path).unwrap();
        assert!(matches!(
            r.read_list(1, &IoStats::default()),
            Err(IndexError::Malformed(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
