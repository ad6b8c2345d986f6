//! CRC-32C-framed write-ahead log for the mutable in-memory segment.
//!
//! Every text accepted by the ingest path is appended to a WAL file before
//! it is acknowledged, so a crash can never lose an acked text: recovery
//! replays the log back into the in-memory segment. The format is built for
//! torn writes — each record is length-prefixed and individually
//! checksummed, and recovery accepts the **longest valid prefix** of the
//! file: it stops at the first frame whose length or checksum does not hold
//! and truncates the tail, never accepting a record after a bad frame (a
//! valid-looking frame behind a torn one could be stale bytes from a
//! recycled block).
//!
//! ## On-disk layout
//!
//! ```text
//! header:  "NDSW" | version u32 | seq u64 | base u64 | crc32c u32   (28 B)
//! frame:   len u32 | crc32c(payload) u32 | payload                  (8+len)
//! payload: kind u8 (1 = AddText) | text_id u64 | ntokens u32 | tokens…
//! ```
//!
//! All integers are little-endian. The header checksum covers its first 24
//! bytes; `seq` is the log's position in the memtable's rotation order and
//! `base` the global id of the first text the log may carry. Text ids
//! within one log must increase by exactly one per record — a jump means
//! records were lost to corruption in the middle of the file, which
//! recovery reports instead of silently renumbering.
//!
//! ## Durability contract
//!
//! Appends are buffered; [`WalWriter::sync`] flushes and `fdatasync`s the
//! file. A text is *acked* once a sync covering its append has returned —
//! the ingest layer groups appends between syncs (`--fsync-every`), so the
//! window of unacked, potentially-lost texts is bounded and known to the
//! caller. Lost-but-unacked tails are exactly what recovery truncates.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ndss_hash::TokenId;

use crate::IndexError;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"NDSW";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Header size in bytes: magic + version + seq + base + crc.
pub const WAL_HEADER_LEN: usize = 4 + 4 + 8 + 8 + 4;
/// Frame prefix: payload length + payload checksum.
pub const WAL_FRAME_PREFIX: usize = 8;
/// Upper bound on one frame's payload. A corrupt length field must not
/// drive a giant allocation; real texts are far below this.
pub const WAL_MAX_PAYLOAD: u32 = 1 << 28;

/// Record kind: one appended text.
const KIND_ADD_TEXT: u8 = 1;

/// Name of WAL file `seq` inside a memtable's `wal/` directory.
pub fn wal_file_name(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

/// Parses a `wal-NNNNNN.log` file name back to its sequence number.
pub fn parse_wal_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if rest.len() != 6 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// One replayed record: a text and its global id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Global text id the ingest path assigned at append time.
    pub text_id: u64,
    /// The text's tokens.
    pub tokens: Vec<TokenId>,
}

/// The parsed header of a WAL file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Position in the memtable's rotation order.
    pub seq: u64,
    /// Global id of the first text this log may carry.
    pub base: u64,
}

impl WalHeader {
    fn encode(&self) -> [u8; WAL_HEADER_LEN] {
        let mut out = [0u8; WAL_HEADER_LEN];
        out[0..4].copy_from_slice(WAL_MAGIC);
        out[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
        out[8..16].copy_from_slice(&self.seq.to_le_bytes());
        out[16..24].copy_from_slice(&self.base.to_le_bytes());
        let crc = crc32c::crc32c(&out[..24]);
        out[24..28].copy_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < WAL_HEADER_LEN || &bytes[0..4] != WAL_MAGIC {
            return None;
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
        if u32_at(4) != WAL_VERSION {
            return None;
        }
        if crc32c::crc32c(&bytes[..24]) != u32_at(24) {
            return None;
        }
        Some(WalHeader {
            seq: u64_at(8),
            base: u64_at(16),
        })
    }
}

/// The result of replaying one WAL file.
#[derive(Debug)]
pub struct WalReplay {
    /// The file's header. `None` when the header itself is missing or
    /// corrupt — the file carries no recoverable records at all.
    pub header: Option<WalHeader>,
    /// Records of the longest valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + whole frames).
    pub valid_len: u64,
    /// Whether bytes past `valid_len` existed (a torn or corrupt tail).
    pub torn: bool,
}

/// Replays `path`, accepting the longest valid prefix. Corruption anywhere
/// stops the replay at the preceding frame boundary; nothing after a bad
/// frame is trusted. IO errors (not corruption) are returned as errors.
pub fn replay_wal(path: &Path) -> Result<WalReplay, IndexError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(replay_bytes(&bytes))
}

/// [`replay_wal`] over in-memory bytes (the mutation sweeps drive this
/// directly).
pub fn replay_bytes(bytes: &[u8]) -> WalReplay {
    let Some(header) = WalHeader::decode(bytes) else {
        return WalReplay {
            header: None,
            records: Vec::new(),
            valid_len: 0,
            torn: !bytes.is_empty(),
        };
    };
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    let mut next_id = header.base;
    while let Some((record, frame_len)) = decode_frame(&bytes[pos..]) {
        // Ids must advance by exactly one: a jump or repeat means frames
        // were lost or duplicated — stop at the last coherent record.
        if record.text_id != next_id {
            break;
        }
        next_id += 1;
        pos += frame_len;
        records.push(record);
    }
    WalReplay {
        header: Some(header),
        records,
        valid_len: pos as u64,
        torn: pos < bytes.len(),
    }
}

/// Decodes one frame at the start of `bytes`. `None` on any structural or
/// checksum violation (including a short tail).
fn decode_frame(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    if bytes.len() < WAL_FRAME_PREFIX {
        return None;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if len > WAL_MAX_PAYLOAD || (len as usize) > bytes.len() - WAL_FRAME_PREFIX {
        return None;
    }
    let payload = &bytes[WAL_FRAME_PREFIX..WAL_FRAME_PREFIX + len as usize];
    if crc32c::crc32c(payload) != crc {
        return None;
    }
    // Payload: kind, text id, token count, tokens.
    if payload.len() < 13 || payload[0] != KIND_ADD_TEXT {
        return None;
    }
    let text_id = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    let ntokens = u32::from_le_bytes(payload[9..13].try_into().expect("4 bytes")) as usize;
    if payload.len() != 13 + 4 * ntokens {
        return None;
    }
    let tokens = payload[13..]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Some((
        WalRecord { text_id, tokens },
        WAL_FRAME_PREFIX + payload.len(),
    ))
}

/// Append handle over one WAL file.
pub struct WalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    header: WalHeader,
    /// File length covered by written (not necessarily synced) frames.
    len: u64,
    /// Whether bytes were written since the last sync.
    dirty: bool,
}

impl WalWriter {
    /// Creates a fresh WAL file (truncating any previous content) and
    /// durably writes its header.
    pub fn create(path: &Path, seq: u64, base: u64) -> Result<Self, IndexError> {
        let header = WalHeader { seq, base };
        let mut file = File::create(path)?;
        file.write_all(&header.encode())?;
        ndss_durable::count_written(WAL_HEADER_LEN as u64);
        ndss_durable::sync_data(&file)?;
        Ok(WalWriter {
            file: BufWriter::new(file),
            path: path.to_path_buf(),
            header,
            len: WAL_HEADER_LEN as u64,
            dirty: false,
        })
    }

    /// Opens an existing WAL file for appending: replays it, truncates any
    /// torn tail, and positions the cursor at the end of the valid prefix.
    /// Returns the writer and the replayed records. A file whose header is
    /// unreadable is rebuilt empty with the expected `seq`/`base`.
    pub fn open(path: &Path, seq: u64, base: u64) -> Result<(Self, Vec<WalRecord>), IndexError> {
        let replay = replay_wal(path)?;
        let Some(header) = replay.header else {
            return Ok((Self::create(path, seq, base)?, Vec::new()));
        };
        if header.seq != seq {
            return Err(IndexError::Malformed(format!(
                "{}: header seq {} does not match its file name (expected {seq})",
                path.display(),
                header.seq
            )));
        }
        let mut file = OpenOptions::new().write(true).read(true).open(path)?;
        if replay.torn {
            file.set_len(replay.valid_len)?;
            ndss_durable::sync_data(&file)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            WalWriter {
                file: BufWriter::new(file),
                path: path.to_path_buf(),
                header,
                len: replay.valid_len,
                dirty: false,
            },
            replay.records,
        ))
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The header this file was created with.
    pub fn header(&self) -> WalHeader {
        self.header
    }

    /// Bytes of valid frames written so far (including the header).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no frames yet.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN as u64
    }

    /// Appends one text record (buffered; not yet durable — see
    /// [`Self::sync`]). Returns the encoded frame's size in bytes.
    pub fn append_text(&mut self, text_id: u64, tokens: &[TokenId]) -> Result<u64, IndexError> {
        let payload_len = 13 + 4 * tokens.len();
        if payload_len > WAL_MAX_PAYLOAD as usize {
            return Err(IndexError::Malformed(format!(
                "text of {} tokens exceeds the WAL frame cap",
                tokens.len()
            )));
        }
        let mut payload = Vec::with_capacity(payload_len);
        payload.push(KIND_ADD_TEXT);
        payload.extend_from_slice(&text_id.to_le_bytes());
        payload.extend_from_slice(&(tokens.len() as u32).to_le_bytes());
        for &tok in tokens {
            payload.extend_from_slice(&tok.to_le_bytes());
        }
        let crc = crc32c::crc32c(&payload);
        self.file.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.file.write_all(&crc.to_le_bytes())?;
        self.file.write_all(&payload)?;
        let frame = (WAL_FRAME_PREFIX + payload.len()) as u64;
        ndss_durable::count_written(frame);
        self.len += frame;
        self.dirty = true;
        Ok(frame)
    }

    /// Flushes buffered frames and `fdatasync`s the file: every append so
    /// far is durable (acked) once this returns. A no-op when nothing was
    /// appended since the last sync.
    pub fn sync(&mut self) -> Result<(), IndexError> {
        if !self.dirty {
            return Ok(());
        }
        self.file.flush()?;
        ndss_durable::sync_data(self.file.get_ref())?;
        self.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str) -> PathBuf {
        let dir = crate::tests::test_root("ndss_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(wal_file_name(7), "wal-000007.log");
        assert_eq!(parse_wal_file_name("wal-000007.log"), Some(7));
        assert_eq!(parse_wal_file_name("wal-7.log"), None);
        assert_eq!(parse_wal_file_name("wal-00000x.log"), None);
        assert_eq!(parse_wal_file_name("seal-000007"), None);
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let path = temp_file("roundtrip.log");
        let mut w = WalWriter::create(&path, 1, 10).unwrap();
        w.append_text(10, &[1, 2, 3]).unwrap();
        w.append_text(11, &[]).unwrap();
        w.append_text(12, &[u32::MAX, 0]).unwrap();
        w.sync().unwrap();
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.header, Some(WalHeader { seq: 1, base: 10 }));
        assert!(!replay.torn);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[0].tokens, vec![1, 2, 3]);
        assert_eq!(replay.records[1].tokens, Vec::<u32>::new());
        assert_eq!(replay.records[2].text_id, 12);
    }

    #[test]
    fn torn_tail_is_truncated_to_longest_valid_prefix() {
        let path = temp_file("torn.log");
        let mut w = WalWriter::create(&path, 1, 0).unwrap();
        w.append_text(0, &[5, 6, 7]).unwrap();
        w.append_text(1, &[8, 9]).unwrap();
        w.sync().unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut mid-way through the second frame.
        for cut in (WAL_HEADER_LEN as u64 + w_frame_len(3) + 1)..(full.len() as u64) {
            let replay = replay_bytes(&full[..cut as usize]);
            assert_eq!(replay.records.len(), 1, "cut at {cut}");
            assert!(replay.torn);
            assert_eq!(replay.valid_len, WAL_HEADER_LEN as u64 + w_frame_len(3));
        }
        // Reopening truncates the tail and appends continue cleanly.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (mut w, records) = WalWriter::open(&path, 1, 0).unwrap();
        assert_eq!(records.len(), 1);
        w.append_text(1, &[42]).unwrap();
        w.sync().unwrap();
        let replay = replay_wal(&path).unwrap();
        assert!(!replay.torn);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].tokens, vec![42]);
    }

    /// Frame length for a record of `n` tokens.
    fn w_frame_len(n: u64) -> u64 {
        (WAL_FRAME_PREFIX + 13) as u64 + 4 * n
    }

    #[test]
    fn bit_flip_never_yields_phantom_records() {
        let path = temp_file("bitflip.log");
        let mut w = WalWriter::create(&path, 3, 100).unwrap();
        for i in 0..5u64 {
            w.append_text(100 + i, &[i as u32; 4]).unwrap();
        }
        w.sync().unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let clean = replay_bytes(&pristine);
        for byte in 0..pristine.len() {
            for bit in [0u8, 3, 7] {
                let mut bytes = pristine.clone();
                bytes[byte] ^= 1 << bit;
                let replay = replay_bytes(&bytes);
                // Recovered records must be a strict prefix of the clean
                // replay: same ids, same tokens, nothing invented.
                assert!(replay.records.len() <= clean.records.len());
                for (got, want) in replay.records.iter().zip(clean.records.iter()) {
                    assert_eq!(got, want, "byte {byte} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn record_after_bad_frame_is_never_accepted() {
        let path = temp_file("gap.log");
        let mut w = WalWriter::create(&path, 1, 0).unwrap();
        w.append_text(0, &[1]).unwrap();
        w.append_text(1, &[2]).unwrap();
        w.append_text(2, &[3]).unwrap();
        w.sync().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the middle frame's payload: the third (intact) frame must
        // not be resurrected.
        let middle = WAL_HEADER_LEN + w_frame_len(1) as usize + WAL_FRAME_PREFIX + 2;
        bytes[middle] ^= 0xFF;
        let replay = replay_bytes(&bytes);
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn);
    }

    #[test]
    fn corrupt_length_field_does_not_allocate_or_panic() {
        let path = temp_file("len.log");
        let mut w = WalWriter::create(&path, 1, 0).unwrap();
        w.append_text(0, &[9; 8]).unwrap();
        w.sync().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[WAL_HEADER_LEN..WAL_HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let replay = replay_bytes(&bytes);
        assert_eq!(replay.records.len(), 0);
        assert!(replay.torn);
    }

    #[test]
    fn corrupt_header_recovers_nothing() {
        let path = temp_file("header.log");
        let mut w = WalWriter::create(&path, 1, 0).unwrap();
        w.append_text(0, &[1, 2]).unwrap();
        w.sync().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x10; // seq field; header crc now fails
        let replay = replay_bytes(&bytes);
        assert!(replay.header.is_none());
        assert!(replay.records.is_empty());
        assert_eq!(replay.valid_len, 0);
    }
}
