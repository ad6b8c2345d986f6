//! Merging index directories.
//!
//! Large-corpus deployments shard the corpus, build per-shard indexes
//! (possibly on different machines — the natural extension of the paper's
//! parallel build), and merge them into one searchable index; an
//! out-of-core build ([`crate::ExternalIndexBuilder`]) merges the
//! budget-sized runs it wrote, and ingest compaction merges runs of the
//! newest store segments into one. Because each input numbers its
//! texts from zero, merging re-bases text ids by the cumulative text counts
//! of the preceding inputs — exactly the id layout that indexing the
//! concatenated corpus would produce, which is what the equivalence tests
//! assert (merge ≡ build-of-concatenation, byte for byte).
//!
//! The merge itself is a k-way merge over the (hash-sorted) directories of
//! the input files: lists with distinct hashes stream through unchanged;
//! lists sharing a hash concatenate in input order, which keeps postings
//! sorted because re-based text ids of input `s` all precede those of input
//! `s + 1`. The k functions are independent files, merged on every core.
//!
//! A merge keeps no record of its progress. Its inputs are never modified
//! and its output is a function of them alone, so a merge that was
//! interrupted — an external build's included — is run again from the
//! start and comes out byte for byte the same.

use std::path::Path;
use std::sync::Arc;

use crate::container::{Encoding, Reader, Writer};
use crate::disk::{inv_file_path, DiskIndex};
use crate::kill::{self, KillPoints};
use crate::{gc, IndexConfig, IndexError, IoStats, Posting};

/// Knobs for [`merge_indexes_with`]: (in tests) a deterministic crash
/// injector, as on [`crate::ExternalIndexBuilder`].
#[derive(Debug, Clone, Default)]
pub struct MergeOptions {
    pub(crate) kill: Option<Arc<KillPoints>>,
}

impl MergeOptions {
    /// Default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a deterministic crash injector; a fired injector behaves
    /// like a hard crash (no cleanup). Test harnesses only.
    pub fn kill_points(mut self, kill: Arc<KillPoints>) -> Self {
        self.kill = Some(kill);
        self
    }
}

/// Merges the index directories `inputs` (in shard order) into `out_dir`.
///
/// All inputs must share the same `k`, `t`, seed, and zone-map
/// parameters; text ids are re-based by cumulative shard sizes. Returns the
/// opened merged index. Equivalent to [`merge_indexes_with`] with default
/// options.
pub fn merge_indexes(inputs: &[&Path], out_dir: &Path) -> Result<DiskIndex, IndexError> {
    merge_indexes_with(inputs, out_dir, &MergeOptions::default())
}

/// [`merge_indexes`] with explicit [`MergeOptions`].
///
/// The merge owns `out_dir`: it first sweeps what an interrupted run left
/// there (atomic-write temporaries, run scratch), then commits
/// each function's file atomically and `meta.json` last, so a crash leaves
/// a directory that the next merge into it overwrites.
pub fn merge_indexes_with(
    inputs: &[&Path],
    out_dir: &Path,
    options: &MergeOptions,
) -> Result<DiskIndex, IndexError> {
    let inputs = MergeInputs::load(inputs)?;
    let fsyncs_before = ndss_durable::fsync_count();
    std::fs::create_dir_all(out_dir)?;
    gc::gc_counter().inc(gc::sweep_build_residue(out_dir) + gc::sweep_atomic_temps(out_dir));
    let threads = kill::threads_under(&options.kill, ndss_parallel::default_threads());
    inputs.merge_into(out_dir, threads, &options.kill)?;
    crate::build::opened(out_dir, fsyncs_before)
}

/// The inputs of one merge, loaded and found compatible.
pub(crate) struct MergeInputs<'a> {
    dirs: &'a [&'a Path],
    /// Input `s`'s text ids shift by the texts of inputs `0..s`.
    offsets: Vec<u32>,
    /// Input 0's configuration with the dimensions of the concatenation.
    merged: IndexConfig,
}

impl<'a> MergeInputs<'a> {
    pub(crate) fn load(dirs: &'a [&'a Path]) -> Result<Self, IndexError> {
        let mut offsets = Vec::with_capacity(dirs.len());
        let mut merged: Option<IndexConfig> = None;
        let mut total_texts = 0u64;
        for dir in dirs {
            let meta = std::fs::read_to_string(dir.join(crate::disk::META_FILE))
                .map_err(|e| IndexError::Malformed(format!("{}: {e}", dir.display())))?;
            let c = IndexConfig::from_json(&meta).map_err(|e| {
                IndexError::Malformed(format!("bad meta.json in {}: {e}", dir.display()))
            })?;
            offsets.push(total_texts as u32);
            total_texts += c.num_texts as u64;
            let Some(base) = &mut merged else {
                merged = Some(c);
                continue;
            };
            let compatible = c.k == base.k
                && c.t == base.t
                && c.seed == base.seed
                && c.zone_step == base.zone_step
                && c.zone_min_len == base.zone_min_len
                && c.compress == base.compress
                && c.packed == base.packed;
            if !compatible {
                return Err(IndexError::Malformed(format!(
                    "index {} has incompatible configuration (k/t/seed/zone must match shard 0)",
                    dir.display()
                )));
            }
            base.num_texts += c.num_texts;
            base.total_tokens += c.total_tokens;
        }
        let merged =
            merged.ok_or_else(|| IndexError::Malformed("no input indexes to merge".into()))?;
        if total_texts > u32::MAX as u64 {
            return Err(IndexError::Malformed(format!(
                "merged corpus would have {total_texts} texts; text ids are 32-bit"
            )));
        }
        Ok(Self {
            dirs,
            offsets,
            merged,
        })
    }

    /// The one merge: unpublishes what `out_dir` held, merges every function
    /// into it on up to `threads` threads, each followed by a kill
    /// checkpoint, then `meta.json` publishes the directory.
    pub(crate) fn merge_into(
        &self,
        out_dir: &Path,
        threads: usize,
        kill: &Option<Arc<KillPoints>>,
    ) -> Result<(), IndexError> {
        let _span = ndss_obs::span("index.merge");
        DiskIndex::unpublish(out_dir)?;
        let funcs: Vec<usize> = (0..self.merged.k).collect();
        ndss_parallel::try_map(&funcs, threads, |_, &func| {
            self.merge_function(out_dir, func, kill)?;
            kill::tick_checkpoint(kill)
        })?;
        kill::tick_checkpoint(kill)?;
        DiskIndex::write_meta(out_dir, &self.merged)?;
        kill::tick_checkpoint(kill)
    }

    /// K-way merges one hash function's lists from every input into the
    /// output file, which commits atomically at `finish()`.
    fn merge_function(
        &self,
        out_dir: &Path,
        func: usize,
        kill: &Option<Arc<KillPoints>>,
    ) -> Result<(), IndexError> {
        let postings_written = crate::build::build_postings_counter();
        let stats = IoStats::default();
        let readers: Vec<Reader> = self
            .dirs
            .iter()
            .map(|dir| Reader::open(&inv_file_path(dir, func)))
            .collect::<Result<_, _>>()?;
        let mut writer = Writer::create(
            &inv_file_path(out_dir, func),
            func as u32,
            Encoding::of(&self.merged),
        )?;
        // Each input's position in its sorted directory, and the hash there.
        let mut cursors = vec![0usize; readers.len()];
        let mut heads: Vec<Option<u64>> = readers.iter().map(|r| r.hash_at(0)).collect();
        let mut merged: Vec<Posting> = Vec::new();
        while let Some(hash) = heads.iter().flatten().min().copied() {
            kill::tick_io(kill)?;
            merged.clear();
            for (r, reader) in readers.iter().enumerate() {
                if heads[r] != Some(hash) {
                    continue;
                }
                let from = merged.len();
                reader.read_list_at(cursors[r], &mut merged, &stats)?;
                for posting in &mut merged[from..] {
                    posting.text += self.offsets[r];
                }
                cursors[r] += 1;
                heads[r] = reader.hash_at(cursors[r]);
            }
            writer.write_list(hash, &merged)?;
            postings_written.inc(merged.len() as u64);
        }
        writer.finish()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_and_write, write_memory_index};
    use crate::memory::MemoryIndex;
    use crate::IndexAccess;
    use ndss_corpus::{CorpusSource, InMemoryCorpus, SyntheticCorpusBuilder};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = crate::tests::test_root("ndss_merge_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn split_corpus(corpus: &InMemoryCorpus, cut: usize) -> (InMemoryCorpus, InMemoryCorpus) {
        let all: Vec<Vec<u32>> = corpus.iter().map(|(_, t)| t.to_vec()).collect();
        (
            InMemoryCorpus::from_texts(all[..cut].to_vec()),
            InMemoryCorpus::from_texts(all[cut..].to_vec()),
        )
    }

    #[test]
    fn merge_equals_build_of_concatenation() {
        let (corpus, _) = SyntheticCorpusBuilder::new(61)
            .num_texts(50)
            .text_len(80, 200)
            .vocab_size(500)
            .build();
        let (a, b) = split_corpus(&corpus, 20);
        let config = IndexConfig::new(3, 12, 5).zone_map(8, 16);

        let dir_a = temp_dir("shard_a");
        let dir_b = temp_dir("shard_b");
        build_and_write(&a, config.clone(), &dir_a, false).unwrap();
        build_and_write(&b, config.clone(), &dir_b, false).unwrap();

        let dir_merged = temp_dir("merged");
        let merged = merge_indexes(&[&dir_a, &dir_b], &dir_merged).unwrap();

        let dir_full = temp_dir("full");
        let full = MemoryIndex::build(&corpus, config).unwrap();
        write_memory_index(&full, &dir_full).unwrap();

        for func in 0..3 {
            assert_eq!(
                std::fs::read(inv_file_path(&dir_merged, func)).unwrap(),
                std::fs::read(inv_file_path(&dir_full, func)).unwrap(),
                "merged inv_{func}.ndsi differs from direct build"
            );
        }
        assert_eq!(merged.config().num_texts, corpus.num_texts());
        assert_eq!(merged.config().total_tokens, corpus.total_tokens());
        for d in [dir_a, dir_b, dir_merged, dir_full] {
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn three_way_merge_works() {
        let (corpus, _) = SyntheticCorpusBuilder::new(62)
            .num_texts(45)
            .vocab_size(400)
            .build();
        let all: Vec<Vec<u32>> = corpus.iter().map(|(_, t)| t.to_vec()).collect();
        let shards = [
            InMemoryCorpus::from_texts(all[..10].to_vec()),
            InMemoryCorpus::from_texts(all[10..30].to_vec()),
            InMemoryCorpus::from_texts(all[30..].to_vec()),
        ];
        let config = IndexConfig::new(2, 25, 9);
        let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("w3_{i}"))).collect();
        for (shard, dir) in shards.iter().zip(&dirs) {
            build_and_write(shard, config.clone(), dir, false).unwrap();
        }
        let out = temp_dir("w3_merged");
        let refs: Vec<&Path> = dirs.iter().map(PathBuf::as_path).collect();
        merge_indexes(&refs, &out).unwrap();

        let dir_full = temp_dir("w3_full");
        build_and_write(&corpus, config, &dir_full, false).unwrap();
        for func in 0..2 {
            assert_eq!(
                std::fs::read(inv_file_path(&out, func)).unwrap(),
                std::fs::read(inv_file_path(&dir_full, func)).unwrap(),
            );
        }
        for d in dirs.into_iter().chain([out, dir_full]) {
            std::fs::remove_dir_all(&d).ok();
        }
    }

    /// The functions are independent files: one thread and many write the
    /// same directory.
    #[test]
    fn merge_bytes_do_not_depend_on_threads() {
        let (corpus, _) = SyntheticCorpusBuilder::new(65)
            .num_texts(30)
            .vocab_size(300)
            .build();
        let all: Vec<Vec<u32>> = corpus.iter().map(|(_, t)| t.to_vec()).collect();
        let config = IndexConfig::new(5, 20, 4).bit_packed(true);
        let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("thr_in_{i}"))).collect();
        for (texts, dir) in all.chunks(10).zip(&dirs) {
            let shard = InMemoryCorpus::from_texts(texts.to_vec());
            build_and_write(&shard, config.clone(), dir, false).unwrap();
        }
        let refs: Vec<&Path> = dirs.iter().map(PathBuf::as_path).collect();
        let inputs = MergeInputs::load(&refs).unwrap();
        let outs: Vec<PathBuf> = [1usize, 2, 7]
            .iter()
            .map(|&threads| {
                let out = temp_dir(&format!("thr_out_{threads}"));
                inputs.merge_into(&out, threads, &None).unwrap();
                out
            })
            .collect();
        let names: Vec<String> = (0..5)
            .map(|f| format!("inv_{f}.ndsi"))
            .chain(["meta.json".to_string()])
            .collect();
        for out in &outs[1..] {
            for name in &names {
                assert_eq!(
                    std::fs::read(outs[0].join(name)).unwrap(),
                    std::fs::read(out.join(name)).unwrap(),
                    "{name} in {}",
                    out.display()
                );
            }
        }
        for d in dirs.into_iter().chain(outs) {
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn incompatible_configs_are_rejected() {
        let (corpus, _) = SyntheticCorpusBuilder::new(63).num_texts(10).build();
        let dir_a = temp_dir("bad_a");
        let dir_b = temp_dir("bad_b");
        build_and_write(&corpus, IndexConfig::new(2, 25, 1), &dir_a, false).unwrap();
        build_and_write(&corpus, IndexConfig::new(2, 25, 2), &dir_b, false).unwrap(); // seed differs
        let out = temp_dir("bad_out");
        assert!(matches!(
            merge_indexes(&[&dir_a, &dir_b], &out),
            Err(IndexError::Malformed(_))
        ));
        for d in [dir_a, dir_b, out] {
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn empty_input_list_is_rejected() {
        let out = temp_dir("empty_out");
        assert!(merge_indexes(&[], &out).is_err());
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn merged_index_is_searchable() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(64)
            .num_texts(40)
            .duplicates_per_text(1.0)
            .mutation_rate(0.0)
            .build();
        let (a, b) = split_corpus(&corpus, 25);
        let config = IndexConfig::new(8, 25, 3);
        let dir_a = temp_dir("s_a");
        let dir_b = temp_dir("s_b");
        build_and_write(&a, config.clone(), &dir_a, false).unwrap();
        build_and_write(&b, config, &dir_b, false).unwrap();
        let out = temp_dir("s_merged");
        let merged = merge_indexes(&[&dir_a, &dir_b], &out).unwrap();
        // A planted pair whose src and dst may be in different shards is
        // findable through the merged index with global text ids.
        let hasher = merged.config().hasher();
        let p = planted.first().unwrap();
        let query = corpus.sequence_to_vec(p.dst).unwrap();
        let sketch = hasher.sketch(&query);
        let mut hit_src = false;
        for func in 0..8 {
            for posting in merged.read_list(func, sketch.value(func)).unwrap() {
                if posting.text == p.src.text {
                    hit_src = true;
                }
            }
        }
        assert!(hit_src, "planted source not reachable through merged index");
        for d in [dir_a, dir_b, out] {
            std::fs::remove_dir_all(&d).ok();
        }
    }
}
