//! Sharded builds: the corpus partitioned by text-id range into N
//! segments of one [`Store`], built in parallel and published with one
//! manifest write.
//!
//! A shard is a build-time notion only: texts `[0, N)` are split into
//! contiguous ranges ([`partition_texts`]), each indexed on its own
//! (bounded per-segment build memory, segments built in parallel) into its
//! own `seg-NNNN/` directory, and the list is published at once — readers
//! see all N new segments or none. On disk the result is the one store
//! layout of `store.rs`; nothing records that the segments came from one
//! build.
//!
//! Because segments partition the corpus by *text id*, a query fanned out
//! across them returns per-text span matches whose global ids are the
//! segment-local ids plus the segment's `first_text`, and concatenating
//! per-segment results in list order yields exactly the single-index
//! result in ascending text order. That identity is what
//! `tests/sharded_exactness` pins against the one-index oracle.

use std::path::Path;
use std::sync::Arc;

use ndss_corpus::{CorpusSlice, CorpusSource, TextId};

use crate::build::{build_and_write, ExternalIndexBuilder, DEFAULT_MEMORY_BUDGET};
use crate::disk::META_FILE;
use crate::kill::{self, KillPoints};
use crate::store::Store;
use crate::{DiskIndex, IndexAccess, IndexConfig, IndexError};

/// Splits `num_texts` texts into `shards` contiguous near-equal ranges,
/// returned as `(first_text, num_texts)` pairs. Deterministic, so an
/// interrupted build re-derives the identical partition on resume.
pub fn partition_texts(num_texts: usize, shards: usize) -> Vec<(TextId, u64)> {
    assert!(shards > 0, "at least one shard");
    let base = num_texts / shards;
    let extra = num_texts % shards;
    let mut out = Vec::with_capacity(shards);
    let mut first = 0usize;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push((first as TextId, len as u64));
        first += len;
    }
    out
}

/// Knobs for [`build_sharded`]; `Default` is an in-memory build, one
/// cross-shard worker per core, keep 1.
#[derive(Clone)]
pub struct ShardedBuildOptions {
    /// Use the external (out-of-core) builder per shard.
    pub external: bool,
    /// Per-shard memory budget for external builds.
    pub memory_budget: usize,
    /// Resume an interrupted build: segments that already completed are
    /// reused as-is, the others reuse the runs that match
    /// ([`ExternalIndexBuilder::resume`]).
    pub resume: bool,
    /// Previous segment lists retained on publish.
    pub keep: usize,
    /// Cross-shard build workers (0 ⇒ one per core, capped at the shard
    /// count). Intra-shard parallelism is enabled only when this resolves
    /// to 1, so total thread use stays bounded either way.
    pub threads: usize,
    /// Deterministic crash injector threaded into every shard's external
    /// build — the fault-injection harness's hook; `None` in production.
    /// A build with one installed runs one shard at a time on one thread,
    /// so crash site `n` names the same on-disk state on every run.
    pub kill: Option<Arc<KillPoints>>,
}

impl Default for ShardedBuildOptions {
    fn default() -> Self {
        Self {
            external: false,
            memory_budget: DEFAULT_MEMORY_BUDGET,
            resume: false,
            keep: 1,
            threads: 0,
            kill: None,
        }
    }
}

/// Builds (or resumes) `corpus` into `num_shards` new segments of the
/// store at `root` and publishes them as its list with one manifest write.
/// Shards build in parallel on the `ndss-parallel` pool; each indexes its
/// text range through [`CorpusSlice`], so its local ids start at 0 and
/// readers add `first_text` back at merge time.
///
/// A build allocates its segments in shard order before building any, so
/// on resume the newest `num_shards` unpublished segments are the
/// interrupted build's, shard by shard.
pub fn build_sharded<C: CorpusSource + ?Sized>(
    corpus: &C,
    config: IndexConfig,
    root: &Path,
    num_shards: usize,
    opts: &ShardedBuildOptions,
) -> Result<Store, IndexError> {
    if num_shards == 0 {
        return Err(IndexError::Malformed("--shards must be positive".into()));
    }
    if num_shards > corpus.num_texts().max(1) {
        return Err(IndexError::Malformed(format!(
            "cannot split {} texts into {num_shards} shards",
            corpus.num_texts()
        )));
    }
    let ranges = partition_texts(corpus.num_texts(), num_shards);
    let store = Store::open(root)?;
    let mut dirs: Vec<String> = store.unpublished()?;
    if !opts.resume || dirs.len() < num_shards {
        dirs = (0..num_shards)
            .map(|_| store.allocate())
            .collect::<Result<_, _>>()?;
    }
    let dirs = &dirs[dirs.len() - num_shards..];
    let workers = kill::threads_under(
        &opts.kill,
        match opts.threads {
            0 => ndss_parallel::default_threads().min(num_shards),
            n => n.min(num_shards),
        },
    );
    let intra_parallel = workers <= 1;
    let shard_ids: Vec<usize> = (0..num_shards).collect();
    ndss_parallel::try_map(&shard_ids, workers, |_, &i| {
        let ((first, len), dir) = (ranges[i], root.join(&dirs[i]));
        let slice = CorpusSlice::new(corpus, first, len as usize);
        if opts.resume && dir.join(META_FILE).is_file() {
            // This segment finished before the previous run was killed.
            // Reuse it unchanged (after checking it really is the requested
            // build) so resume is byte-identical per segment.
            let bc = DiskIndex::open(&dir)?.config().clone();
            let shape = |c: &IndexConfig| (c.k, c.t, c.seed, c.compress, c.packed);
            if shape(&bc) != shape(&config) || bc.num_texts as u64 != len {
                let what = "completed segment was built with different parameters than this resume";
                return Err(IndexError::Malformed(format!("{}: {what}", dir.display())));
            }
        } else if opts.external {
            let mut builder = ExternalIndexBuilder::new(config.clone())
                .memory_budget(opts.memory_budget)
                .parallel(intra_parallel)
                .resume(opts.resume);
            if let Some(kill) = &opts.kill {
                builder = builder.kill_points(kill.clone());
            }
            builder.build(&slice, &dir)?;
        } else {
            build_and_write(&slice, config.clone(), &dir, intra_parallel)?;
        }
        Ok(())
    })?;
    store.publish(dirs, opts.keep)?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndss_corpus::InMemoryCorpus;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let dir = crate::tests::test_root("ndss_shard_unit").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_corpus() -> InMemoryCorpus {
        let texts: Vec<Vec<u32>> = (0..10u32)
            .map(|t| (0..40u32).map(|j| t * 100 + j).collect())
            .collect();
        InMemoryCorpus::from_texts(texts)
    }

    #[test]
    fn partition_is_contiguous_and_exhaustive() {
        for n in 1..=9 {
            let ranges = partition_texts(10, n);
            assert_eq!(ranges.len(), n);
            let mut next = 0u64;
            for &(first, len) in &ranges {
                assert_eq!(first as u64, next);
                next += len;
            }
            assert_eq!(next, 10);
        }
    }

    #[test]
    fn build_publish_verify_lifecycle() {
        let root = temp("lifecycle");
        let corpus = tiny_corpus();
        let config = IndexConfig::new(4, 8, 11);
        let store =
            build_sharded(&corpus, config, &root, 3, &ShardedBuildOptions::default()).unwrap();
        let manifest = store.verify().unwrap();
        assert_eq!(manifest.generation, 1);
        assert_eq!(manifest.num_texts(), 10);
        assert_eq!(manifest.dirs(), ["seg-0000", "seg-0001", "seg-0002"]);
        assert_eq!(
            manifest
                .segments
                .iter()
                .map(|s| s.first_text)
                .collect::<Vec<_>>(),
            [0, 4, 7]
        );
    }

    /// Resume takes the newest unpublished segments as the interrupted
    /// build's; when they were cut from another partition, the text count
    /// of a completed one gives it away and the resume is refused.
    #[test]
    fn create_rejects_a_different_partition() {
        let root = temp("partition_mismatch");
        let corpus = tiny_corpus();
        let config = IndexConfig::new(4, 8, 11);
        let store = Store::open(&root).unwrap();
        for (first, len) in partition_texts(10, 3) {
            let slice = CorpusSlice::new(&corpus, first, len as usize);
            let dir = root.join(store.allocate().unwrap());
            build_and_write(&slice, config.clone(), &dir, false).unwrap();
        }
        let resume = ShardedBuildOptions {
            resume: true,
            ..ShardedBuildOptions::default()
        };
        assert!(build_sharded(&corpus, config, &root, 2, &resume).is_err());
        assert_eq!(store.manifest().unwrap(), crate::Manifest::default());
    }

    #[test]
    fn a_rebuild_retains_the_previous_list_and_collects_older_ones() {
        let root = temp("rebuild");
        let corpus = tiny_corpus();
        let config = IndexConfig::new(4, 8, 11);
        let opts = ShardedBuildOptions::default();
        for _ in 0..3 {
            build_sharded(&corpus, config.clone(), &root, 2, &opts).unwrap();
        }
        let store = Store::open(&root).unwrap();
        let manifest = store.manifest().unwrap();
        assert_eq!(manifest.generation, 3);
        assert_eq!(manifest.segments[0].dir, "seg-0004");
        assert_eq!(manifest.retained.len(), 1);
        assert_eq!(manifest.retained[0][0].dir, "seg-0002");
        assert!(!root.join("seg-0000").exists() && !root.join("seg-0001").exists());
        assert!(store.unpublished().unwrap().is_empty());
    }
}
