//! On-disk tokenized corpus format (`.ndsc`).
//!
//! Large corpora (the paper's Pile setting, 649 GB after tokenization)
//! cannot be held in memory. The `.ndsc` format stores a corpus as one flat
//! file:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────┐
//! │ magic "NDSC" │ version u32 │ num_texts u64 │ tokens u64  │  header
//! │ data_crc u32 │ offsets_crc u32 │ reserved u32 │            │  (40 B)
//! │ header_crc u32                                           │
//! ├──────────────────────────────────────────────────────────┤
//! │ data: tokens × u32 little-endian                         │
//! ├──────────────────────────────────────────────────────────┤
//! │ offsets: (num_texts + 1) × u64  (token index of text i;  │
//! │          written last, so construction streams one pass) │
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! The offsets table (8 bytes/text) is kept in memory by the reader; token
//! data is read on demand, so a [`DiskCorpus`] supports both random access
//! (query verification, decoding matches) and sequential batched scans
//! (index construction) with bounded memory.
//!
//! # Integrity and durability
//!
//! Corpora are published atomically ([`ndss_durable::AtomicFile`]): the
//! destination path appears only when [`DiskCorpusWriter::finish`] commits,
//! so a crash mid-write can never leave a parseable half-corpus. The
//! format (version 2) carries CRC-32C checksums over the data section, the
//! offsets table, and the header itself; [`DiskCorpus::open`] validates
//! every header-derived size against the real file length with
//! overflow-checked arithmetic *before* allocating, and
//! [`DiskCorpus::verify`] streams the data section against its checksum.
//! The checksum-less version 1 is no longer read: such a file fails `open`
//! with a clean "unsupported corpus version" error.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crc32c::Crc32c;
use ndss_durable::AtomicFile;
use ndss_hash::TokenId;

use crate::types::{CorpusError, CorpusSource, TextId};

const MAGIC: &[u8; 4] = b"NDSC";
/// The one supported format: 40-byte header with data/offsets/header
/// CRC-32Cs.
const VERSION: u32 = 2;
const HEADER_LEN: u64 = 40;
const OFF_DATA_CRC: usize = 24;
const OFF_OFFSETS_CRC: usize = 28;
const OFF_HEADER_CRC: usize = 36;

fn mul(a: u64, b: u64, what: &str) -> Result<u64, CorpusError> {
    a.checked_mul(b)
        .ok_or_else(|| CorpusError::Malformed(format!("{what} overflows ({a} * {b})")))
}

fn add(a: u64, b: u64, what: &str) -> Result<u64, CorpusError> {
    a.checked_add(b)
        .ok_or_else(|| CorpusError::Malformed(format!("{what} overflows ({a} + {b})")))
}

/// Streaming writer for `.ndsc` corpus files.
///
/// Texts are appended one at a time; the offsets table is buffered in memory
/// (8 bytes per text) and written on [`Self::finish`], which rewrites the
/// header with final counts and checksums and atomically publishes the file.
/// Dropping without `finish` leaves nothing at the destination path.
pub struct DiskCorpusWriter {
    path: PathBuf,
    data: BufWriter<AtomicFile>,
    offsets: Vec<u64>,
    tokens_written: u64,
    data_crc: Crc32c,
}

impl DiskCorpusWriter {
    /// Creates the corpus writer for `path`. The destination file appears
    /// only when [`Self::finish`] commits.
    pub fn create(path: &Path) -> Result<Self, CorpusError> {
        let file = AtomicFile::create(path)?;
        let mut data = BufWriter::new(file);
        // Reserve header space; real values land in `finish`.
        data.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(Self {
            path: path.to_owned(),
            data,
            offsets: vec![0],
            tokens_written: 0,
            data_crc: Crc32c::new(),
        })
    }

    /// Appends one text; returns its id.
    pub fn push_text(&mut self, tokens: &[TokenId]) -> Result<TextId, CorpusError> {
        let id = (self.offsets.len() - 1) as TextId;
        for &t in tokens {
            let bytes = t.to_le_bytes();
            self.data_crc.update(&bytes);
            self.data.write_all(&bytes)?;
        }
        self.tokens_written += tokens.len() as u64;
        self.offsets.push(self.tokens_written);
        Ok(id)
    }

    /// Finalizes the file: appends the offsets table after the token data,
    /// rewrites the header, fsyncs, and atomically publishes the corpus at
    /// its destination. Returns the opened corpus.
    pub fn finish(mut self) -> Result<DiskCorpus, CorpusError> {
        let mut offsets_crc = Crc32c::new();
        for &off in &self.offsets {
            let bytes = off.to_le_bytes();
            offsets_crc.update(&bytes);
            self.data.write_all(&bytes)?;
        }
        self.data.flush()?;
        let mut file = self.data.into_inner().map_err(|e| e.into_error())?;

        let mut header = [0u8; HEADER_LEN as usize];
        header[0..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&((self.offsets.len() - 1) as u64).to_le_bytes());
        header[16..24].copy_from_slice(&self.tokens_written.to_le_bytes());
        header[OFF_DATA_CRC..OFF_DATA_CRC + 4]
            .copy_from_slice(&self.data_crc.finalize().to_le_bytes());
        header[OFF_OFFSETS_CRC..OFF_OFFSETS_CRC + 4]
            .copy_from_slice(&offsets_crc.finalize().to_le_bytes());
        // bytes 32..36 reserved
        let header_crc = crc32c::crc32c(&header[..OFF_HEADER_CRC]);
        header[OFF_HEADER_CRC..OFF_HEADER_CRC + 4].copy_from_slice(&header_crc.to_le_bytes());
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.commit()?;
        DiskCorpus::open(&self.path)
    }
}

/// Read-only handle to a `.ndsc` corpus file.
///
/// Clone-free sharing across threads: the file handle is mutex-guarded
/// (seek + read must be atomic), while the offsets table is plain shared
/// data. For parallel index builds each worker may instead
/// [`Self::reopen`] its own handle to avoid serializing reads.
pub struct DiskCorpus {
    path: PathBuf,
    file: Mutex<File>,
    offsets: Vec<u64>,
    /// CRC-32C of the data section.
    data_crc: u32,
    /// Registry handles (registered once per open, atomic adds per read).
    reads: ndss_obs::Counter,
    read_bytes: ndss_obs::Counter,
}

impl std::fmt::Debug for DiskCorpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCorpus")
            .field("path", &self.path)
            .field("num_texts", &(self.offsets.len() - 1))
            .finish()
    }
}

impl DiskCorpus {
    /// Opens a corpus file: checks the magic and version, verifies the
    /// header and offsets-table checksums, and validates the exact
    /// file length implied by the header counts — overflow-checked, before
    /// any allocation — so a corrupt `num_texts` or `total_tokens` can
    /// never drive a huge allocation or a bogus read.
    pub fn open(path: &Path) -> Result<Self, CorpusError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        let have = HEADER_LEN.min(file_len) as usize;
        file.read_exact(&mut header[..have])?;
        if have < 8 || &header[0..4] != MAGIC {
            return Err(CorpusError::Malformed(format!(
                "bad magic in {}",
                path.display()
            )));
        }
        let u32_at = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().expect("8 bytes"));
        // Version before length and checksum, so a pre-checksum v1 file is
        // named for what it is.
        let version = u32_at(4);
        if version != VERSION {
            return Err(CorpusError::Malformed(format!(
                "unsupported corpus version {version} in {}",
                path.display()
            )));
        }
        if (have as u64) < HEADER_LEN {
            return Err(CorpusError::Malformed(format!(
                "{} is too short ({file_len} B) to hold a corpus header",
                path.display()
            )));
        }
        let stored = u32_at(OFF_HEADER_CRC);
        let actual = crc32c::crc32c(&header[..OFF_HEADER_CRC]);
        if stored != actual {
            return Err(CorpusError::Malformed(format!(
                "header checksum mismatch in {} (stored {stored:#010x}, computed {actual:#010x})",
                path.display()
            )));
        }
        let num_texts = u64_at(8);
        let total_tokens = u64_at(16);

        // Exact-length validation: the layout is fully determined by the two
        // counts, so anything else is corruption.
        let data_len = mul(total_tokens, 4, "data-section size")?;
        let offsets_len = mul(add(num_texts, 1, "offsets count")?, 8, "offsets-table size")?;
        let expected = add(
            add(HEADER_LEN, data_len, "file size")?,
            offsets_len,
            "file size",
        )?;
        if expected != file_len {
            return Err(CorpusError::Malformed(format!(
                "{}: header promises {expected} B ({num_texts} texts, {total_tokens} tokens) \
                 but the file is {file_len} B",
                path.display()
            )));
        }
        file.seek(SeekFrom::Start(HEADER_LEN + data_len))?;
        let mut offset_bytes = vec![0u8; offsets_len as usize];
        file.read_exact(&mut offset_bytes)?;
        let expect = u32_at(OFF_OFFSETS_CRC);
        let actual = crc32c::crc32c(&offset_bytes);
        if actual != expect {
            return Err(CorpusError::Malformed(format!(
                "offsets-table checksum mismatch in {} (stored {expect:#010x}, computed {actual:#010x})",
                path.display()
            )));
        }
        let offsets: Vec<u64> = offset_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        if offsets.first() != Some(&0)
            || offsets.last() != Some(&total_tokens)
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(CorpusError::Malformed(
                "offsets table is not monotone or inconsistent with token count".into(),
            ));
        }
        let reg = ndss_obs::Registry::global();
        Ok(Self {
            path: path.to_owned(),
            file: Mutex::new(file),
            offsets,
            data_crc: u32_at(OFF_DATA_CRC),
            reads: reg.counter("corpus.io.reads", "Text reads served by disk corpora"),
            read_bytes: reg.counter("corpus.io.bytes", "Bytes read from disk corpora"),
        })
    }

    /// Streams the data section against its header checksum. `open` plus
    /// `verify` together cover every byte of the file.
    pub fn verify(&self) -> Result<(), CorpusError> {
        let data_len = self.total_tokens() * 4;
        let mut crc = Crc32c::new();
        let mut buf = vec![0u8; (1 << 20).min(data_len.max(1)) as usize];
        let mut remaining = data_len;
        let mut file = self.file.lock().expect("corpus file lock poisoned");
        file.seek(SeekFrom::Start(HEADER_LEN))?;
        while remaining > 0 {
            let take = remaining.min(buf.len() as u64) as usize;
            file.read_exact(&mut buf[..take]).map_err(|e| {
                CorpusError::Malformed(format!(
                    "cannot read data section of {}: {e}",
                    self.path.display()
                ))
            })?;
            crc.update(&buf[..take]);
            remaining -= take as u64;
        }
        drop(file);
        let actual = crc.finalize();
        if actual != self.data_crc {
            return Err(CorpusError::Malformed(format!(
                "data-section checksum mismatch in {} (stored {:#010x}, computed {actual:#010x})",
                self.path.display(),
                self.data_crc
            )));
        }
        Ok(())
    }

    /// Opens an independent handle to the same file (for parallel readers).
    pub fn reopen(&self) -> Result<Self, CorpusError> {
        Self::open(&self.path)
    }

    /// The file path this corpus was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl CorpusSource for DiskCorpus {
    fn num_texts(&self) -> usize {
        self.offsets.len() - 1
    }

    fn total_tokens(&self) -> u64 {
        *self.offsets.last().expect("offsets never empty")
    }

    fn read_text(&self, id: TextId, buf: &mut Vec<TokenId>) -> Result<(), CorpusError> {
        let i = id as usize;
        if i + 1 >= self.offsets.len() {
            return Err(CorpusError::TextOutOfRange(id, self.num_texts()));
        }
        let (start, end) = (self.offsets[i], self.offsets[i + 1]);
        let len = (end - start) as usize;
        buf.clear();
        buf.reserve(len);
        let mut bytes = vec![0u8; len * 4];
        {
            let mut file = self.file.lock().expect("corpus file lock poisoned");
            file.seek(SeekFrom::Start(HEADER_LEN + start * 4))?;
            file.read_exact(&mut bytes)?;
        }
        self.reads.inc(1);
        self.read_bytes.inc(bytes.len() as u64);
        buf.extend(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        Ok(())
    }
}

/// Copies any corpus to a `.ndsc` file (used to spill synthetic corpora to
/// disk for the out-of-core experiments).
pub fn write_corpus<C: CorpusSource + ?Sized>(
    corpus: &C,
    path: &Path,
) -> Result<DiskCorpus, CorpusError> {
    let mut writer = DiskCorpusWriter::create(path)?;
    let mut buf = Vec::new();
    for id in 0..corpus.num_texts() as TextId {
        corpus.read_text(id, &mut buf)?;
        writer.push_text(&buf)?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryCorpus;
    use crate::types::BatchIter;

    fn temp_path(name: &str) -> PathBuf {
        // Unique per process: concurrent `cargo test` runs must not clobber
        // each other's files.
        let dir = std::env::temp_dir().join(format!("ndss_corpus_tests_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_read_roundtrip() {
        let path = temp_path("roundtrip.ndsc");
        let mut w = DiskCorpusWriter::create(&path).unwrap();
        w.push_text(&[1, 2, 3]).unwrap();
        w.push_text(&[]).unwrap();
        w.push_text(&[u32::MAX, 0, 7]).unwrap();
        let c = w.finish().unwrap();
        assert_eq!(c.num_texts(), 3);
        assert_eq!(c.total_tokens(), 6);
        assert_eq!(c.text_to_vec(0).unwrap(), vec![1, 2, 3]);
        assert_eq!(c.text_to_vec(1).unwrap(), Vec::<u32>::new());
        assert_eq!(c.text_to_vec(2).unwrap(), vec![u32::MAX, 0, 7]);
        c.verify().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_after_close() {
        let path = temp_path("reopen.ndsc");
        {
            let mut w = DiskCorpusWriter::create(&path).unwrap();
            w.push_text(&[42; 100]).unwrap();
            w.finish().unwrap();
        }
        let c = DiskCorpus::open(&path).unwrap();
        assert_eq!(c.text_to_vec(0).unwrap(), vec![42; 100]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = temp_path("bad_magic.ndsc");
        std::fs::write(&path, b"NOPE0000000000000000000000000000").unwrap();
        assert!(matches!(
            DiskCorpus::open(&path),
            Err(CorpusError::Malformed(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    /// The checksum-less v1 layout (24-byte header) is rejected by version,
    /// before its counts — here sized to promise exabytes — are believed.
    #[test]
    fn v1_header_is_rejected() {
        let path = temp_path("v1.ndsc");
        let mut bytes = [0u8; 24 + 64];
        bytes[0..4].copy_from_slice(MAGIC);
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        bytes[8..16].copy_from_slice(&(u64::MAX / 16).to_le_bytes());
        bytes[16..24].copy_from_slice(&(u64::MAX / 8).to_le_bytes());
        for len in [bytes.len(), 24, 12] {
            std::fs::write(&path, &bytes[..len]).unwrap();
            match DiskCorpus::open(&path) {
                Err(CorpusError::Malformed(msg)) => {
                    assert!(msg.contains("unsupported corpus version 1"), "{msg}")
                }
                other => panic!("v1 corpus of {len} B: {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_file_appears_before_finish() {
        let path = temp_path("atomic.ndsc");
        std::fs::remove_file(&path).ok();
        let mut w = DiskCorpusWriter::create(&path).unwrap();
        w.push_text(&[1, 2, 3]).unwrap();
        assert!(
            !path.exists(),
            "destination must not exist until finish() commits"
        );
        drop(w); // simulated crash: nothing at the destination
        assert!(!path.exists());
        let mut w = DiskCorpusWriter::create(&path).unwrap();
        w.push_text(&[1, 2, 3]).unwrap();
        w.finish().unwrap();
        assert!(DiskCorpus::open(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampering_is_detected() {
        let path = temp_path("tamper.ndsc");
        let mut w = DiskCorpusWriter::create(&path).unwrap();
        w.push_text(&(0..200u32).collect::<Vec<_>>()).unwrap();
        w.push_text(&[7; 30]).unwrap();
        w.finish().unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Header corruption → rejected at open.
        for offset in [9usize, 17, 25, 29, 37] {
            let mut bytes = pristine.clone();
            bytes[offset] ^= 0x08;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(DiskCorpus::open(&path), Err(CorpusError::Malformed(_))),
                "header byte {offset} corruption not caught"
            );
        }
        // Offsets-table corruption → rejected at open.
        let mut bytes = pristine.clone();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DiskCorpus::open(&path),
            Err(CorpusError::Malformed(_))
        ));
        // Data corruption → caught by verify().
        let mut bytes = pristine.clone();
        bytes[HEADER_LEN as usize + 11] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let c = DiskCorpus::open(&path).unwrap();
        assert!(matches!(c.verify(), Err(CorpusError::Malformed(_))));
        // Truncation → rejected at open (length no longer matches header).
        let mut bytes = pristine.clone();
        bytes.truncate(bytes.len() - 8);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DiskCorpus::open(&path),
            Err(CorpusError::Malformed(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matches_in_memory_copy() {
        let mem = InMemoryCorpus::from_texts(vec![
            vec![1, 2, 3, 4, 5],
            vec![6, 7],
            vec![8],
            vec![],
            vec![9, 10, 11],
        ]);
        let path = temp_path("copy.ndsc");
        let disk = write_corpus(&mem, &path).unwrap();
        assert_eq!(disk.num_texts(), mem.num_texts());
        assert_eq!(disk.total_tokens(), mem.total_tokens());
        for id in 0..mem.num_texts() as u32 {
            assert_eq!(disk.text_to_vec(id).unwrap(), mem.text(id));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batched_scan_covers_all_tokens() {
        let mem = InMemoryCorpus::from_texts(
            (0..20)
                .map(|i| vec![i as u32; (i % 5 + 1) as usize])
                .collect(),
        );
        let path = temp_path("batches.ndsc");
        let disk = write_corpus(&mem, &path).unwrap();
        let mut total = 0u64;
        for batch in BatchIter::new(&disk, 7) {
            let batch = batch.unwrap();
            total += batch.texts.iter().map(|t| t.len() as u64).sum::<u64>();
        }
        assert_eq!(total, mem.total_tokens());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_read_fails() {
        let path = temp_path("oob.ndsc");
        let mut w = DiskCorpusWriter::create(&path).unwrap();
        w.push_text(&[1]).unwrap();
        let c = w.finish().unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            c.read_text(5, &mut buf),
            Err(CorpusError::TextOutOfRange(5, 1))
        ));
        std::fs::remove_file(&path).ok();
    }
}
