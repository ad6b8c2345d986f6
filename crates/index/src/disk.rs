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
//! long lists cheap. A list's first fetch decodes it into a write-once
//! resident slot while the posting budget lasts, and every later
//! [`IndexAccess::shared_list`] lends that slot: no lock, no refcount and
//! no copy.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;

use ndss_corpus::TextId;
use ndss_hash::HashValue;

use crate::cache::CacheConfig;
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
    /// `resident[func][i]`: the decoded list at directory position `i` of
    /// function `func`'s file, filled by the list's first fetch while the
    /// charged bytes fit `posting_budget` and never evicted. A hit is one
    /// acquire load; hits and misses are tallied in the caller's
    /// [`IoStats`]. The slots themselves (24 B per key) are not charged;
    /// a zero budget allocates none.
    resident: Vec<Slots>,
    posting_budget: usize,
    /// Weight of the filled slots: each is charged once, by its filler.
    /// `Relaxed` throughout: it publishes no data, each slot's `OnceLock`
    /// publishes its own list.
    charged: AtomicUsize,
}

/// One file's resident lists, one write-once slot per directory entry.
type Slots = Box<[OnceLock<Box<[Posting]>>]>;

/// Approximate heap weight of a resident posting list, in bytes.
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
        // opening is the natural point to reclaim it. Resumable state (runs
        // with no `meta.json` beside them) is left alone — see `gc`.
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
        // A zero budget keeps no list, so it allocates no slot either.
        let keep = cache.posting_budget > 0;
        Ok(Self {
            histograms: (0..config.k).map(|_| OnceLock::new()).collect(),
            config,
            dir: dir.to_owned(),
            resident: readers
                .iter()
                .map(|r| {
                    let slots = if keep { r.num_keys() } else { 0 };
                    (0..slots).map(|_| OnceLock::new()).collect()
                })
                .collect(),
            readers,
            zone_cache: ZoneCache::new(cache.zone_budget, cache.shards),
            posting_budget: cache.posting_budget,
            charged: AtomicUsize::new(0),
        })
    }

    /// Writes `config` as the directory's `meta.json` (atomically: temp
    /// file, fsync, rename — a crash never leaves a half-written meta).
    pub fn write_meta(dir: &Path, config: &IndexConfig) -> Result<(), IndexError> {
        ndss_durable::write_atomic(&dir.join(META_FILE), config.to_json_pretty().as_bytes())?;
        Ok(())
    }

    /// Unpublishes the index in `dir` before a rebuild in place writes its
    /// first file: removes `meta.json` and syncs the directory, so no open
    /// pairs the old configuration with new files, and the rebuild's runs
    /// stay resumable. A directory with no `meta.json` pays nothing.
    pub(crate) fn unpublish(dir: &Path) -> Result<(), IndexError> {
        match std::fs::remove_file(dir.join(META_FILE)) {
            Ok(()) => Ok(ndss_durable::sync_dir(dir)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
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

    /// Reserves `weight` bytes of the posting budget: false, and nothing
    /// reserved, when they do not fit.
    fn charge(&self, weight: usize) -> bool {
        let fits = |c: usize| c.checked_add(weight).filter(|&c| c <= self.posting_budget);
        self.charged.fetch_update(Relaxed, Relaxed, fits).is_ok()
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

    fn list_lens(&self, hashes: &[HashValue], lens: &mut [u64]) -> Result<(), IndexError> {
        debug_assert_eq!(hashes.len(), lens.len());
        self.check_func(hashes.len().saturating_sub(1))?;
        for ((reader, &hash), len) in self.readers.iter().zip(hashes).zip(lens) {
            *len = reader.list_len(hash);
        }
        Ok(())
    }

    fn shared_list(
        &self,
        func: usize,
        hash: HashValue,
        io: &IoStats,
    ) -> Result<SharedList<'_>, IndexError> {
        self.check_func(func)?;
        // An absent list is a miss that reads nothing.
        let Some(i) = self.readers[func].find(hash) else {
            io.record_miss();
            return Ok(SharedList::Borrowed(&[]));
        };
        let slot = self.resident[func].get(i);
        if let Some(list) = slot.and_then(OnceLock::get) {
            io.record_hit();
            return Ok(SharedList::Borrowed(list));
        }
        io.record_miss();
        let mut list = Vec::new();
        self.readers[func].read_list_at(i, &mut list, io)?;
        let weight = list_weight(&list);
        let Some(slot) = slot.filter(|_| self.charge(weight)) else {
            return Ok(SharedList::Owned(list));
        };
        // A fetch that lost the race to fill the slot gives its charge back.
        if slot.set(list.into_boxed_slice()).is_err() {
            self.charged.fetch_sub(weight, Relaxed);
        }
        Ok(SharedList::Borrowed(
            slot.get().expect("the slot was just filled"),
        ))
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
        let reader = &self.readers[func];
        let Some(i) = reader.find(hash) else {
            io.record_miss();
            return Ok(());
        };
        // A resident full list answers the whole batch with zero IO.
        if let Some(list) = self.resident[func].get(i).and_then(OnceLock::get) {
            io.record_hit();
            reader.probe_resident(i, list, texts, out);
            return Ok(());
        }
        io.record_miss();
        reader.probe_texts(i, texts, &self.zone_cache, io, out)
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

    /// `list_lens`, which checks the function range once for all `k`
    /// lookups, equals `k` calls of `list_len` in every encoding, on the lookup-table fixture (probe
    /// sequences wrapping past the table's end, the keys 0 and `u64::MAX`
    /// present under function 0 and absent under function 1, a skipped
    /// empty list): every pair of asked keys is looked up together. So does
    /// `MemoryIndex`'s provided `list_lens`, against its own `list_len` and
    /// against the disk copy of the same index.
    #[test]
    fn batched_list_lens_equal_per_function_lookups() {
        use crate::container::tests::{table_fixture, ENCODINGS};
        use crate::container::Writer;
        let fixtures = [table_fixture(true), table_fixture(false)];
        let mut asked: Vec<HashValue> = [&fixtures[0].2[..], &fixtures[1].2].concat();
        asked.sort_unstable();
        asked.dedup();
        for (e, encoding) in ENCODINGS.into_iter().enumerate() {
            let dir = temp_dir(&format!("list_lens_{e}"));
            for (func, (_, lists, _)) in fixtures.iter().enumerate() {
                let mut w =
                    Writer::create(&inv_file_path(&dir, func), func as u32, encoding).unwrap();
                for (hash, postings) in lists {
                    w.write_list(*hash, postings).unwrap();
                }
                w.finish().unwrap();
            }
            DiskIndex::write_meta(&dir, &IndexConfig::new(2, 25, 1)).unwrap();
            let disk = DiskIndex::open(&dir).unwrap();
            for &a in &asked {
                for &b in &asked {
                    let mut lens = [u64::MAX; 2];
                    disk.list_lens(&[a, b], &mut lens).unwrap();
                    let want = [disk.list_len(0, a).unwrap(), disk.list_len(1, b).unwrap()];
                    assert_eq!(lens, want, "{encoding:?}: keys {a:#x}, {b:#x}");
                    let reference = |f: usize, h| fixtures[f].0.get(&h).map_or(0, |l| l.len());
                    assert_eq!(lens, [reference(0, a) as u64, reference(1, b) as u64]);
                }
            }
            // Fewer hashes than functions look up only those; more is an error.
            let mut one = [u64::MAX];
            disk.list_lens(&[u64::MAX], &mut one).unwrap();
            assert_eq!(one, [disk.list_len(0, u64::MAX).unwrap()]);
            assert!(disk.list_lens(&[1, 2, 3], &mut [0; 3]).is_err());
            std::fs::remove_dir_all(&dir).ok();
        }

        let (corpus, _) = SyntheticCorpusBuilder::new(26)
            .num_texts(30)
            .text_len(60, 120)
            .vocab_size(200)
            .build();
        let mem = MemoryIndex::build(&corpus, IndexConfig::new(4, 10, 9)).unwrap();
        let dir = temp_dir("list_lens_memory");
        let disk = write_memory_index(&mem, &dir).unwrap();
        let keys: Vec<Vec<HashValue>> = (0..4)
            .map(|f| mem.sorted_lists(f).into_iter().map(|(h, _)| h).collect())
            .collect();
        for i in 0..keys[0].len() {
            // Function f asks its (i + f)-th key, or an absent one.
            let hashes: Vec<HashValue> = (0..4)
                .map(|f| match (i + f) % 5 {
                    0 => [0, u64::MAX][i % 2],
                    _ => keys[f][(i + f) % keys[f].len()],
                })
                .collect();
            let want: Vec<u64> = (0..4)
                .map(|f| mem.list_len(f, hashes[f]).unwrap())
                .collect();
            let (mut from_mem, mut from_disk) = (vec![u64::MAX; 4], vec![u64::MAX; 4]);
            mem.list_lens(&hashes, &mut from_mem).unwrap();
            disk.list_lens(&hashes, &mut from_disk).unwrap();
            assert_eq!((&from_mem, &from_disk), (&want, &want), "{hashes:x?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Four threads fetch overlapping key sets at once under a budget that
    /// holds about half the lists' weight: the charged bytes never pass the
    /// budget, each filled slot is charged once (a fetch that loses the race
    /// to fill a slot is refunded), and every list equals the memory
    /// index's. Once the budget is spent, a list left out misses and reads
    /// its bytes on every fetch, and a resident one hits and reads none. A
    /// disabled cache allocates no slot and charges nothing.
    #[test]
    fn resident_slots_hold_the_budget_under_concurrent_first_fetches() {
        let (corpus, _) = SyntheticCorpusBuilder::new(25)
            .num_texts(60)
            .text_len(80, 200)
            .vocab_size(300)
            .build();
        let mem = MemoryIndex::build(&corpus, IndexConfig::new(2, 10, 3)).unwrap();
        let dir = temp_dir("budget");
        write_memory_index(&mem, &dir).unwrap();
        let keys: Vec<(usize, HashValue, &[Posting])> = (0..2)
            .flat_map(|f| mem.sorted_lists(f).into_iter().map(move |(h, l)| (f, h, l)))
            .collect();
        let budget = keys.iter().map(|k| list_weight(k.2)).sum::<usize>() / 2;
        let sizing = CacheConfig {
            posting_budget: budget,
            ..CacheConfig::default()
        };
        let filled_weight = |disk: &DiskIndex| -> usize {
            let slots = disk.resident.iter().flat_map(|f| f.iter());
            slots
                .filter_map(OnceLock::get)
                .map(|l| list_weight(l))
                .sum()
        };
        let disk = DiskIndex::open_with_cache(&dir, sizing).unwrap();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (disk, keys, start) = (&disk, &keys, &start);
                s.spawn(move || {
                    start.wait();
                    // Thread t skips every fourth key: three threads share each.
                    for (_, &(func, hash, want)) in
                        keys.iter().enumerate().filter(|(i, _)| i % 4 != t)
                    {
                        let io = IoStats::default();
                        assert_eq!(&disk.shared_list(func, hash, &io).unwrap()[..], want);
                        assert!(disk.charged.load(Relaxed) <= budget);
                        let s = io.snapshot();
                        assert_eq!(s.cache_hits + s.cache_misses, 1);
                    }
                });
            }
        });
        let charged = disk.charged.load(Relaxed);
        assert_eq!(
            charged,
            filled_weight(&disk),
            "a slot charged twice or not at all"
        );
        assert!(0 < charged && charged <= budget);
        // One more pass fills whatever still fits; from then on no slot
        // changes, whatever is fetched.
        for &(func, hash, _) in &keys {
            disk.shared_list(func, hash, &IoStats::default()).unwrap();
        }
        let cold = DiskIndex::open_with_cache(&dir, CacheConfig::disabled()).unwrap();
        let mut left_out = 0;
        for &(func, hash, want) in &keys {
            let i = disk.readers[func].find(hash).unwrap();
            let resident = disk.resident[func][i].get().is_some();
            let io = IoStats::default();
            cold.shared_list(func, hash, &io).unwrap();
            let list_bytes = io.snapshot().bytes;
            for _ in 0..2 {
                let io = IoStats::default();
                assert_eq!(&disk.shared_list(func, hash, &io).unwrap()[..], want);
                let s = io.snapshot();
                let expect = if resident {
                    (1, 0, 0)
                } else {
                    (0, 1, list_bytes)
                };
                assert_eq!((s.cache_hits, s.cache_misses, s.bytes), expect);
            }
            left_out += usize::from(!resident);
        }
        assert!(left_out > 0, "the budget must leave lists out");
        assert_eq!(disk.charged.load(Relaxed), filled_weight(&disk));
        assert!(filled_weight(&disk) <= budget);
        // `cold` fetched every list, has no slot and charged nothing.
        assert!(cold.resident.iter().all(|f| f.is_empty()));
        assert_eq!(cold.charged.load(Relaxed), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_fails_without_meta() {
        let dir = temp_dir("nometa");
        std::fs::remove_file(dir.join(META_FILE)).ok();
        assert!(DiskIndex::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
