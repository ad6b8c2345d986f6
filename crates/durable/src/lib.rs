//! Crash-safe publication of on-disk artifacts.
//!
//! Every writer in the storage layer (index files, corpora, `meta.json`)
//! follows the same protocol: write the complete artifact to a temporary
//! file *in the destination directory*, `fsync` it, atomically `rename` it
//! over the final path, and `fsync` the directory so the rename itself is
//! durable. A crash at any point leaves either the old artifact, no
//! artifact, or a stray `.tmp` file — never a parseable half-written file
//! under the final name. (The temp file lives in the destination directory
//! because `rename` is only atomic within one filesystem.)
//!
//! [`AtomicFile`] is the building block: it looks like a `File` (it
//! implements `Write` + `Seek`, so writers can buffer through `BufWriter`
//! and seek back to patch headers), but the destination path only comes
//! into existence at [`AtomicFile::commit`]. Dropping without committing
//! removes the temp file.

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp files of concurrent writers targeting distinct
/// artifacts in the same directory (parallel index builds write `inv_*.ndsi`
/// side by side).
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of `fsync` calls issued by this crate (file
/// `sync_all` on commit, directory syncs, and [`sync_data`] on append-only
/// logs). Build pipelines snapshot it before/after a phase to report
/// fsyncs per artifact without this crate depending on the observability
/// layer.
static FSYNC_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of bytes handed to the OS by [`AtomicFile`] writes
/// plus those reported by [`count_written`]; snapshotted the same way.
static WRITTEN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Total `fsync`s (file + directory) performed via this crate so far.
pub fn fsync_count() -> u64 {
    FSYNC_COUNTER.load(Ordering::Relaxed)
}

/// Total bytes written via this crate so far (see [`count_written`]).
pub fn bytes_written() -> u64 {
    WRITTEN_COUNTER.load(Ordering::Relaxed)
}

/// Adds `n` bytes that a writer outside [`AtomicFile`] (an append-only log)
/// wrote to [`bytes_written`].
pub fn count_written(n: u64) {
    WRITTEN_COUNTER.fetch_add(n, Ordering::Relaxed);
}

/// `fdatasync`s an append-only log, counted in [`fsync_count`].
pub fn sync_data(file: &File) -> io::Result<()> {
    file.sync_data()?;
    FSYNC_COUNTER.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// A file that materializes at its destination path only on [`commit`].
///
/// [`commit`]: AtomicFile::commit
#[derive(Debug)]
pub struct AtomicFile {
    /// `None` only after commit or during drop.
    file: Option<File>,
    tmp_path: PathBuf,
    dest: PathBuf,
}

impl AtomicFile {
    /// Creates the temporary file next to `dest`. The destination itself is
    /// not touched until [`Self::commit`].
    pub fn create(dest: &Path) -> io::Result<Self> {
        let name = dest.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("destination {} has no file name", dest.display()),
            )
        })?;
        let seq = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp_name = format!(".{name}.{}.{seq}.tmp", std::process::id());
        let tmp_path = match dest.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent.join(tmp_name),
            _ => PathBuf::from(tmp_name),
        };
        let file = File::create(&tmp_path)?;
        Ok(Self {
            file: Some(file),
            tmp_path,
            dest: dest.to_owned(),
        })
    }

    /// The destination this file will be published at.
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    fn file(&self) -> &File {
        self.file.as_ref().expect("AtomicFile used after commit")
    }

    /// Flushes file contents to stable storage, atomically renames the temp
    /// file over the destination, and syncs the directory so the rename
    /// survives a crash.
    pub fn commit(mut self) -> io::Result<()> {
        let file = self.file.take().expect("AtomicFile committed twice");
        file.sync_all()?;
        FSYNC_COUNTER.fetch_add(1, Ordering::Relaxed);
        drop(file);
        std::fs::rename(&self.tmp_path, &self.dest)?;
        if let Some(parent) = self.dest.parent() {
            if !parent.as_os_str().is_empty() {
                sync_dir(parent)?;
            }
        }
        Ok(())
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            // Never committed: the temp file is garbage.
            std::fs::remove_file(&self.tmp_path).ok();
        }
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file().write(buf)?;
        count_written(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file().flush()
    }
}

impl Seek for AtomicFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.file().seek(pos)
    }
}

/// Syncs a directory's entries to disk (after a rename within it). On
/// platforms where directories cannot be opened for sync (Windows), the
/// rename is already journaled by the filesystem and this is a no-op.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
        FSYNC_COUNTER.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Atomically replaces `dest` with `bytes` (temp file + fsync + rename +
/// directory sync). The convenience path for small metadata files.
pub fn write_atomic(dest: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = AtomicFile::create(dest)?;
    file.write_all(bytes)?;
    file.commit()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ndss_durable_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn list_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn commit_publishes_and_leaves_no_temp() {
        let dir = temp_dir("commit");
        let dest = dir.join("artifact.bin");
        let mut f = AtomicFile::create(&dest).unwrap();
        f.write_all(b"hello").unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(b"H").unwrap();
        assert!(!dest.exists(), "destination must not exist before commit");
        f.commit().unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"Hello");
        assert_eq!(list_names(&dir), vec!["artifact.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_without_commit_removes_temp_and_keeps_old() {
        let dir = temp_dir("abort");
        let dest = dir.join("artifact.bin");
        std::fs::write(&dest, b"old contents").unwrap();
        {
            let mut f = AtomicFile::create(&dest).unwrap();
            f.write_all(b"half-written garbage").unwrap();
            // Dropped without commit: simulated crash/abort.
        }
        assert_eq!(std::fs::read(&dest).unwrap(), b"old contents");
        assert_eq!(list_names(&dir), vec!["artifact.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_existing() {
        let dir = temp_dir("replace");
        let dest = dir.join("meta.json");
        write_atomic(&dest, b"{\"v\":1}").unwrap();
        write_atomic(&dest, b"{\"v\":2}").unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"{\"v\":2}");
        assert_eq!(list_names(&dir), vec!["meta.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_counter_advances_on_commit() {
        let dir = temp_dir("fsync_count");
        let before = fsync_count();
        write_atomic(&dir.join("a.bin"), b"x").unwrap();
        let after = fsync_count();
        // File sync plus (on unix) a directory sync.
        let expected = if cfg!(unix) { 2 } else { 1 };
        assert!(
            after >= before + expected,
            "fsync count {before} -> {after}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn written_counter_advances_by_the_bytes_written() {
        let dir = temp_dir("written");
        let before = bytes_written();
        write_atomic(&dir.join("a.bin"), b"12345").unwrap();
        assert!(bytes_written() >= before + 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_to_same_directory_do_not_collide() {
        let dir = temp_dir("concurrent");
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let dest = dir.join(format!("f{i}.bin"));
                std::thread::spawn(move || {
                    let mut f = AtomicFile::create(&dest).unwrap();
                    f.write_all(&[i as u8; 64]).unwrap();
                    f.commit().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..8u8 {
            assert_eq!(
                std::fs::read(dir.join(format!("f{i}.bin"))).unwrap(),
                vec![i; 64]
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
