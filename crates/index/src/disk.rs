//! The on-disk index: a directory of `k` inverted-index files plus metadata.
//!
//! ```text
//! index_dir/
//!   meta.json      — IndexConfig (k, t, seed, family, corpus dims, zone cfg)
//!   inv_0.ndsi     — inverted index of hash function 0
//!   …
//!   inv_{k-1}.ndsi
//! ```
//!
//! [`DiskIndex`] implements [`IndexAccess`] with real IO: every posting or
//! zone read is positioned into the file and tallied in the caller's
//! [`IoStats`]. Zone maps (v3) and block skip entries (v4/v6) make
//! [`IndexAccess::probe_texts`] read `O(list / zone_count)` bytes per text
//! instead of the entire list,
//! which is exactly the §3.5 mechanism that keeps prefix-filtered probes of
//! long lists cheap; [`IndexAccess::shared_list`] hands out the cached
//! decoded list itself, so a hot list is never copied.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use ndss_corpus::TextId;
use ndss_hash::HashValue;

use crate::cache::{CacheConfig, ShardedCache};
use crate::container::Reader;
use crate::file::ReadOptions;
use crate::fixed::ZoneCache;
use crate::{IndexAccess, IndexConfig, IndexError, IoStats, LengthHistogram, Posting, SharedList};

/// File name of the metadata JSON inside an index directory.
pub const META_FILE: &str = "meta.json";

/// Returns the inverted-index file path for hash function `func`.
pub fn inv_file_path(dir: &Path, func: usize) -> PathBuf {
    dir.join(format!("inv_{func}.ndsi"))
}

/// Read-only handle to an index directory.
pub struct DiskIndex {
    config: IndexConfig,
    readers: Vec<Reader>,
    dir: PathBuf,
    /// `histograms[func]`: the list-length histogram of one index file,
    /// computed on first use. The files are immutable while open, and a
    /// reload opens a new `DiskIndex`, so the memo can never go stale —
    /// while a daemon that derives `FrequentFraction` cutoffs per request
    /// stops walking every directory entry each time.
    histograms: Vec<OnceLock<LengthHistogram>>,
    /// Zone maps of v3 lists, read once per (function, hash) and reused
    /// across probes of the same long list, within a query and across
    /// queries. Sharded so concurrent queries don't serialize on one lock;
    /// byte-budgeted so a long-running process can't grow it without bound.
    zone_cache: ZoneCache,
    /// Hot decoded posting lists. Skewed workloads fetch the same min-hash
    /// keys over and over; serving those from memory removes the reread
    /// entirely. Hits and misses are tallied in the caller's [`IoStats`].
    list_cache: ShardedCache<Arc<[Posting]>>,
}

/// Approximate heap weight of a cached posting list, in bytes.
fn list_weight(postings: &[Posting]) -> usize {
    postings.len() * Posting::ENCODED_LEN + 64
}

impl std::fmt::Debug for DiskIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskIndex")
            .field("dir", &self.dir)
            .field("k", &self.config.k)
            .field("t", &self.config.t)
            .finish()
    }
}

impl DiskIndex {
    /// Opens an index directory written by one of the builders, with the
    /// default cache sizing.
    pub fn open(dir: &Path) -> Result<Self, IndexError> {
        Self::open_with_cache(dir, CacheConfig::default())
    }

    /// Opens an index directory with explicit cache sizing (use
    /// [`CacheConfig::disabled`] for pure cold-read behavior, e.g. in IO
    /// measurements).
    pub fn open_with_cache(dir: &Path, cache: CacheConfig) -> Result<Self, IndexError> {
        Self::open_with_io(dir, cache, ReadOptions::default())
    }

    /// Opens an index directory with explicit cache sizing **and** IO
    /// options: (in tests) a [`crate::FaultPlan`] attached to every index
    /// file it targets. Every file is mapped, tapped or not.
    pub fn open_with_io(
        dir: &Path,
        cache: CacheConfig,
        io: ReadOptions,
    ) -> Result<Self, IndexError> {
        // Crashed builds strand scratch in otherwise-valid index dirs;
        // opening is the natural point to reclaim it. Resumable state (a
        // directory with a journal) is left alone — see `gc`.
        crate::gc::sweep_on_open(dir);
        let meta_path = dir.join(META_FILE);
        let meta = std::fs::read_to_string(&meta_path).map_err(|e| {
            IndexError::Malformed(format!("cannot read {}: {e}", meta_path.display()))
        })?;
        let config = IndexConfig::from_json(&meta)
            .map_err(|e| IndexError::Malformed(format!("bad meta.json: {e}")))?;
        let mut readers = Vec::with_capacity(config.k);
        for func in 0..config.k {
            let reader = Reader::open_with(&inv_file_path(dir, func), &io)?;
            if reader.func_idx() as usize != func {
                return Err(IndexError::Malformed(format!(
                    "inv_{func}.ndsi claims function {}",
                    reader.func_idx()
                )));
            }
            readers.push(reader);
        }
        Ok(Self {
            histograms: (0..config.k).map(|_| OnceLock::new()).collect(),
            config,
            readers,
            dir: dir.to_owned(),
            zone_cache: ShardedCache::new(cache.zone_budget, cache.shards),
            list_cache: ShardedCache::new(cache.posting_budget, cache.shards),
        })
    }

    /// Writes `config` as the directory's `meta.json` (atomically: temp
    /// file, fsync, rename — a crash never leaves a half-written meta).
    pub fn write_meta(dir: &Path, config: &IndexConfig) -> Result<(), IndexError> {
        ndss_durable::write_atomic(&dir.join(META_FILE), config.to_json_pretty().as_bytes())?;
        Ok(())
    }

    /// Streams every inverted-index file against its stored checksums,
    /// verifying the sections `open` did not already load. Together with the
    /// validation done at open time this covers every byte of the index.
    /// Returns the bytes streamed; the walk's IO is published to the
    /// registry once, whether or not it passes.
    pub fn verify_integrity(&self) -> Result<u64, IndexError> {
        let io = IoStats::default();
        let result = self
            .readers
            .iter()
            .try_for_each(|reader| reader.verify(&io));
        io.publish();
        result.map(|()| io.snapshot().bytes)
    }

    /// The directory this index was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total on-disk size of the inverted-index files, in bytes.
    pub fn size_bytes(&self) -> Result<u64, IndexError> {
        let mut total = 0;
        for func in 0..self.config.k {
            total += std::fs::metadata(inv_file_path(&self.dir, func))?.len();
        }
        Ok(total)
    }

    /// Postings stored under one hash function.
    pub fn postings_for_function(&self, func: usize) -> Result<u64, IndexError> {
        self.check_func(func)?;
        Ok(self.readers[func].num_postings())
    }

    fn check_func(&self, func: usize) -> Result<(), IndexError> {
        if func >= self.config.k {
            Err(IndexError::FunctionOutOfRange(func, self.config.k))
        } else {
            Ok(())
        }
    }
}

impl IndexAccess for DiskIndex {
    fn config(&self) -> &IndexConfig {
        &self.config
    }

    fn list_len(&self, func: usize, hash: HashValue) -> Result<u64, IndexError> {
        self.check_func(func)?;
        Ok(self.readers[func].list_len(hash))
    }

    fn shared_list(
        &self,
        func: usize,
        hash: HashValue,
        io: &IoStats,
    ) -> Result<SharedList<'_>, IndexError> {
        self.check_func(func)?;
        if let Some(hit) = self.list_cache.get(func, hash) {
            io.record_hit();
            return Ok(SharedList::Cached(hit));
        }
        io.record_miss();
        let list: Arc<[Posting]> = Arc::from(self.readers[func].read_list(hash, io)?);
        // A disabled cache never admits anything; skip the shard lock.
        if self.list_cache.enabled() {
            self.list_cache
                .insert(func, hash, list.clone(), list_weight(&list));
        }
        Ok(SharedList::Cached(list))
    }

    fn probe_texts(
        &self,
        func: usize,
        hash: HashValue,
        texts: &[TextId],
        io: &IoStats,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        self.check_func(func)?;
        debug_assert!(texts.windows(2).all(|w| w[0] < w[1]));
        // A resident full list answers the whole batch with zero IO.
        if let Some(hit) = self.list_cache.get(func, hash) {
            io.record_hit();
            self.readers[func].probe_resident(hash, &hit, texts, out);
            return Ok(());
        }
        io.record_miss();
        self.readers[func].probe_texts(hash, texts, &self.zone_cache, io, out)
    }

    fn list_length_histogram(&self, func: usize) -> Result<LengthHistogram, IndexError> {
        self.check_func(func)?;
        Ok(self.histograms[func]
            .get_or_init(|| self.readers[func].length_histogram().into())
            .clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::write_memory_index;
    use crate::memory::MemoryIndex;
    use ndss_corpus::SyntheticCorpusBuilder;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = crate::tests::test_root("ndss_disk_index").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Build a small corpus/index pair and compare every list between the
    /// memory index and its on-disk copy.
    #[test]
    fn disk_matches_memory_everywhere() {
        let (corpus, _) = SyntheticCorpusBuilder::new(21)
            .num_texts(40)
            .text_len(80, 200)
            .vocab_size(300) // small vocab → plenty of shared hash values
            .build();
        // Tiny zone thresholds so zone maps actually engage in the test.
        let config = IndexConfig::new(4, 10, 77).zone_map(4, 8);
        let mem = MemoryIndex::build(&corpus, config).unwrap();
        let dir = temp_dir("match");
        write_memory_index(&mem, &dir).unwrap();
        let disk = DiskIndex::open(&dir).unwrap();

        assert_eq!(disk.config(), mem.config());
        for func in 0..4 {
            assert_eq!(
                disk.postings_for_function(func).unwrap(),
                mem.postings_for_function(func)
            );
            for (hash, postings) in mem.sorted_lists(func) {
                assert_eq!(disk.list_len(func, hash).unwrap(), postings.len() as u64);
                assert_eq!(disk.read_list(func, hash).unwrap(), postings);
                // Per-text probes agree with filtering the full list.
                let some_text = postings[postings.len() / 2].text;
                let expect: Vec<Posting> = postings
                    .iter()
                    .filter(|p| p.text == some_text)
                    .copied()
                    .collect();
                assert_eq!(
                    disk.read_postings_for_text(func, hash, some_text).unwrap(),
                    expect
                );
            }
            // Computed on first use, memoised after: both calls agree.
            for _ in 0..2 {
                assert_eq!(
                    disk.list_length_histogram(func).unwrap(),
                    mem.list_length_histogram(func).unwrap()
                );
            }
        }
        // Reads are tallied in the caller's accumulator.
        let cold = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();
        let io = IoStats::default();
        cold.shared_list(0, mem.sorted_lists(0)[0].0, &io).unwrap();
        assert!(io.snapshot().bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zone_probe_reads_less_than_full_list() {
        let (corpus, _) = SyntheticCorpusBuilder::new(22)
            .num_texts(120)
            .text_len(100, 200)
            .vocab_size(50) // extremely small vocab → very long lists
            .build();
        let config = IndexConfig::new(1, 10, 5).zone_map(8, 32);
        let mem = MemoryIndex::build(&corpus, config).unwrap();
        let dir = temp_dir("zone");
        write_memory_index(&mem, &dir).unwrap();
        let disk = DiskIndex::open(&dir).unwrap();

        // Find a long list.
        let lists = mem.sorted_lists(0);
        let (hash, long) = lists
            .iter()
            .max_by_key(|(_, v)| v.len())
            .map(|&(h, v)| (h, v))
            .unwrap();
        assert!(long.len() >= 64, "test corpus should have a long list");
        let text = long[long.len() / 2].text;
        let (io, mut got) = (IoStats::default(), Vec::new());
        disk.probe_texts(0, hash, &[text], &io, &mut got).unwrap();
        let read_bytes = io.snapshot().bytes;
        let full_bytes = long.len() as u64 * Posting::ENCODED_LEN as u64;
        assert!(
            read_bytes < full_bytes,
            "zone probe read {read_bytes} B, full list is {full_bytes} B"
        );
        let expect: Vec<Posting> = long.iter().filter(|p| p.text == text).copied().collect();
        assert_eq!(got, expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_hash_reads_empty() {
        let (corpus, _) = SyntheticCorpusBuilder::new(23).num_texts(5).build();
        let mem = MemoryIndex::build(&corpus, IndexConfig::new(2, 25, 1)).unwrap();
        let dir = temp_dir("missing");
        write_memory_index(&mem, &dir).unwrap();
        let disk = DiskIndex::open(&dir).unwrap();
        // Hash value 1 is (almost surely) not a key.
        assert_eq!(disk.list_len(0, 1).unwrap(), 0);
        assert!(disk.read_list(0, 1).unwrap().is_empty());
        assert!(disk.read_postings_for_text(0, 1, 0).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_index_answers_identically_and_is_smaller() {
        let (corpus, _) = SyntheticCorpusBuilder::new(24)
            .num_texts(150)
            .text_len(150, 300)
            .vocab_size(400) // Zipf-skewed lists: where compression shines
            .build();
        let v1_dir = temp_dir("v1");
        let v2_dir = temp_dir("v2");
        let base = IndexConfig::new(3, 15, 77).zone_map(32, 64);
        let v1 = write_memory_index(&MemoryIndex::build(&corpus, base.clone()).unwrap(), &v1_dir)
            .unwrap();
        let v2 = write_memory_index(
            &MemoryIndex::build(&corpus, base.compressed(true)).unwrap(),
            &v2_dir,
        )
        .unwrap();

        // Identical logical content under both formats.
        let mem = MemoryIndex::build(&corpus, IndexConfig::new(3, 15, 77)).unwrap();
        for func in 0..3 {
            for (hash, postings) in mem.sorted_lists(func) {
                assert_eq!(v1.read_list(func, hash).unwrap(), postings);
                assert_eq!(
                    v2.read_list(func, hash).unwrap(),
                    postings,
                    "hash {hash:#x}"
                );
                assert_eq!(v2.list_len(func, hash).unwrap(), postings.len() as u64);
                let text = postings[postings.len() / 2].text;
                assert_eq!(
                    v1.read_postings_for_text(func, hash, text).unwrap(),
                    v2.read_postings_for_text(func, hash, text).unwrap()
                );
            }
            assert_eq!(
                v1.list_length_histogram(func).unwrap(),
                v2.list_length_histogram(func).unwrap()
            );
        }
        // And materially smaller on disk.
        let s1 = v1.size_bytes().unwrap();
        let s2 = v2.size_bytes().unwrap();
        assert!(
            (s2 as f64) < s1 as f64 * 0.6,
            "v2 ({s2} B) should be well under v1 ({s1} B)"
        );
        std::fs::remove_dir_all(&v1_dir).ok();
        std::fs::remove_dir_all(&v2_dir).ok();
    }

    #[test]
    fn open_fails_without_meta() {
        let dir = temp_dir("nometa");
        std::fs::remove_file(dir.join(META_FILE)).ok();
        assert!(DiskIndex::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
