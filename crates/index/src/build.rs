//! Index builders: the in-memory path and the out-of-core path (paper
//! §3.4) that is made of it.
//!
//! * [`write_memory_index`] — serializes a built [`MemoryIndex`] to an index
//!   directory ("builds an inverted index in memory and then writes it back
//!   to disk", Algorithm 1 lines 2–8).
//! * [`build_and_write`] — the one pipeline: the compact windows as flat
//!   records, each function's records sorted by hash and cut into posting
//!   lists, straight into the function's file.
//! * [`ExternalIndexBuilder`] — for corpora larger than memory, two verbs:
//!   *write a run, merge runs*. The corpus is cut into runs of whole texts
//!   whose records fit the memory budget; each run goes through the pipeline
//!   above into `tmp_spill/run-NNNNNN/`, an ordinary index directory that
//!   numbers its texts from 0 and is published by its `meta.json`, last; the
//!   k-way merge of [`crate::merge`] joins the runs exactly as it joins
//!   shards, and the scratch is removed. An interrupted build resumes by
//!   keeping the runs that match and merging again from the start. The
//!   paper aggregates by hash with recursive partitioning \[52\]; sorted
//!   runs and a merge are the sort-based dual — same memory bound, same
//!   bytes (DESIGN.md §3).
//!
//! Every path produces **byte-identical** index directories for the same
//! corpus and configuration (lists sorted by hash, postings by
//! `(text, l, c, r)`), which `tests/builder_equivalence.rs` asserts; this is
//! the property that lets every query-layer test run against either.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use ndss_corpus::types::BatchIter;
use ndss_corpus::{CorpusSource, InMemoryCorpus, TextId};
use ndss_hash::HashValue;
use ndss_windows::{HashedWindow, WindowGenerator};

use crate::container::{Encoding, Writer};
use crate::disk::{inv_file_path, DiskIndex};
use crate::kill::{self, KillPoints};
use crate::memory::MemoryIndex;
use crate::merge::MergeInputs;
use crate::{gc, IndexAccess, IndexConfig, IndexError, Posting};

/// Name of the scratch directory an external build keeps its runs in,
/// inside its output directory.
pub(crate) const SPILL_DIR: &str = "tmp_spill";

/// Writes a built [`MemoryIndex`] to `dir` (created if needed) and returns
/// the opened [`DiskIndex`].
pub fn write_memory_index(index: &MemoryIndex, dir: &Path) -> Result<DiskIndex, IndexError> {
    write_lists(index.config(), |func| index.sorted_lists(func), dir)
}

/// Writes any in-memory posting-list source to `dir`: `lists(func)` must
/// yield `(hash, postings)` in ascending hash order with each list in
/// canonical `(text, window)` order — the contract of
/// [`MemoryIndex::sorted_lists`]. Ingest compaction writes memtable segments
/// through this without first copying them into a [`MemoryIndex`].
pub(crate) fn write_lists<'a>(
    config: &IndexConfig,
    lists: impl Fn(usize) -> Vec<(HashValue, &'a [Posting])> + Sync,
    dir: &Path,
) -> Result<DiskIndex, IndexError> {
    let fsyncs_before = ndss_durable::fsync_count();
    let threads = ndss_parallel::default_threads();
    write_dir(config, dir, threads, &None, |func, put| {
        lists(func)
            .into_iter()
            .try_for_each(|(hash, postings)| put(hash, postings))
    })?;
    opened(dir, fsyncs_before)
}

/// Publishes an index directory: one [`Writer`] per function, each filled by
/// `fill(func, put)` calling `put(hash, postings)` in ascending hash order,
/// on up to `threads` threads — the files are independent, so their
/// encoding, writes and fsyncs overlap. An index already published there is
/// unpublished first; the directory is garbage until `meta.json` lands,
/// last. `kill` sees an IO point per file and a checkpoint either side of
/// `meta.json`.
fn write_dir(
    config: &IndexConfig,
    dir: &Path,
    threads: usize,
    kill: &Option<Arc<KillPoints>>,
    fill: impl Fn(
            usize,
            &mut dyn FnMut(HashValue, &[Posting]) -> Result<(), IndexError>,
        ) -> Result<(), IndexError>
        + Sync,
) -> Result<(), IndexError> {
    let _span = ndss_obs::span("index.write");
    let postings_written = build_postings_counter();
    std::fs::create_dir_all(dir)?;
    DiskIndex::unpublish(dir)?;
    let funcs: Vec<usize> = (0..config.k).collect();
    // A file's publish ends in two fsync waits; a second writer per thread
    // keeps its core busy through them.
    let writers = if threads > 1 { 2 * threads } else { 1 };
    ndss_parallel::try_map(&funcs, writers, |_, &func| {
        kill::tick_io(kill)?;
        let mut writer =
            Writer::create(&inv_file_path(dir, func), func as u32, Encoding::of(config))?;
        fill(func, &mut |hash, postings| {
            writer.write_list(hash, postings)?;
            postings_written.inc(postings.len() as u64);
            Ok(())
        })?;
        writer.finish()
    })?;
    kill::tick_checkpoint(kill)?;
    DiskIndex::write_meta(dir, config)?;
    kill::tick_checkpoint(kill)
}

/// Counter of postings written by any builder (memory write-back, runs,
/// merge).
pub(crate) fn build_postings_counter() -> ndss_obs::Counter {
    ndss_obs::Registry::global().counter(
        "index.build.postings",
        "postings written to inverted-index files",
    )
}

/// The last step of every build and merge: records the fsyncs it issued
/// (delta of the process-wide [`ndss_durable::fsync_count`]; concurrent
/// builds overlap, the exact total is the `durable.fsyncs` gauge) as one
/// `index.build.fsyncs` sample and opens what it published.
pub(crate) fn opened(dir: &Path, fsyncs_before: u64) -> Result<DiskIndex, IndexError> {
    ndss_obs::Registry::global()
        .histogram(
            "index.build.fsyncs",
            "fsyncs issued while publishing one index build",
            ndss_obs::Unit::None,
        )
        .record(ndss_durable::fsync_count().saturating_sub(fsyncs_before));
    DiskIndex::open(dir)
}

/// One compact window on its way into a posting list.
pub(crate) type Record = (HashValue, Posting);

/// Tokens per work unit of [`FunctionRecords::generate`]: small enough that
/// a few thousand short texts spread over every core, large enough that a
/// unit's `k` record buffers are worth their allocation.
pub(crate) const UNIT_TOKENS: u64 = 1 << 16;

/// Sorts `records` by hash and hands each run of equal hashes to `put` as
/// one posting list: hashes ascending, postings in canonical
/// `(text, window)` order. This is the paper's hash aggregation (§3.4) for
/// records that fit in memory — every builder's last step. Records are
/// unique, so the total order makes the output independent of the order
/// they arrive in. The big sort compares one `u64` per record (three times
/// faster here than the lexicographic tuple order); the runs, nine in ten a
/// handful long, are ordered as they are cut.
pub(crate) fn emit_runs(
    records: &mut [Record],
    mut put: impl FnMut(HashValue, &[Posting]) -> Result<(), IndexError>,
) -> Result<(), IndexError> {
    records.sort_unstable_by_key(|&(hash, _)| hash);
    let mut list: Vec<Posting> = Vec::new();
    for run in records.chunk_by(|a, b| a.0 == b.0) {
        list.clear();
        list.extend(run.iter().map(|&(_, posting)| posting));
        list.sort_unstable();
        put(run[0].0, &list)?;
    }
    Ok(())
}

/// The compact windows of a whole corpus as flat records, per hash function
/// and still in the pieces the work units produced them in.
pub(crate) struct FunctionRecords(Vec<Mutex<Vec<Vec<Record>>>>);

impl FunctionRecords {
    /// Algorithm 1's generation step: workers map units of about
    /// `unit_tokens` tokens (whole texts; the mean text length turns the
    /// budget into a text count) to one record buffer per function.
    pub(crate) fn generate<C: CorpusSource + ?Sized>(
        corpus: &C,
        config: &IndexConfig,
        threads: usize,
        unit_tokens: u64,
    ) -> Result<Self, IndexError> {
        let hasher = config.hasher();
        let num_texts = corpus.num_texts() as u64;
        let unit_texts = (unit_tokens.saturating_mul(num_texts) / corpus.total_tokens().max(1))
            .clamp(1, num_texts.max(1));
        let units: Vec<(u64, u64)> = (0..num_texts)
            .step_by(unit_texts as usize)
            .map(|start| (start, (start + unit_texts).min(num_texts)))
            .collect();
        let per_unit = ndss_parallel::try_map(&units, threads, |_, &(start, end)| {
            let mut records: Vec<Vec<Record>> = vec![Vec::new(); config.k];
            let mut generator = WindowGenerator::new();
            let mut tokens = Vec::new();
            let mut windows: Vec<HashedWindow> = Vec::new();
            for text in start as TextId..end as TextId {
                corpus.read_text(text, &mut tokens)?;
                for (func, records) in records.iter_mut().enumerate() {
                    windows.clear();
                    generator.generate(&hasher, func, &tokens, config.t, &mut windows);
                    records.extend(windows.iter().map(|hw| {
                        let window = hw.window;
                        (hw.hash, Posting { text, window })
                    }));
                }
            }
            Ok::<_, IndexError>(records)
        })?;
        let mut per_func: Vec<Vec<Vec<Record>>> = vec![Vec::new(); config.k];
        for unit in per_unit {
            for (parts, part) in per_func.iter_mut().zip(unit) {
                parts.push(part);
            }
        }
        Ok(Self(per_func.into_iter().map(Mutex::new).collect()))
    }

    /// Takes `func`'s records (a second call finds none) and emits them as
    /// posting lists through [`emit_runs`]. Functions are independent, so
    /// callers fan this out over them; taking frees a function's records
    /// once it is emitted, so a [`MemoryIndex`] build never holds all the
    /// records and all the lists at once.
    pub(crate) fn emit(
        &self,
        func: usize,
        put: impl FnMut(HashValue, &[Posting]) -> Result<(), IndexError>,
    ) -> Result<(), IndexError> {
        let parts = std::mem::take(&mut *self.0[func].lock().expect("no panic under this lock"));
        let mut records = parts.concat();
        drop(parts);
        emit_runs(&mut records, put)
    }
}

/// Worker threads of a build: every core, or the caller's thread alone.
pub(crate) fn build_threads(parallel: bool) -> usize {
    if parallel {
        ndss_parallel::default_threads()
    } else {
        1
    }
}

/// `config` with the dimensions of the corpus it is about to index.
pub(crate) fn sized_for<C: CorpusSource + ?Sized>(
    mut config: IndexConfig,
    corpus: &C,
) -> IndexConfig {
    config.num_texts = corpus.num_texts();
    config.total_tokens = corpus.total_tokens();
    config
}

/// Builds in memory (optionally in parallel) and writes to disk: the
/// paper's medium-scale path end to end. Each function's records go from
/// the sort straight into its file; no [`MemoryIndex`] is materialised.
pub fn build_and_write<C: CorpusSource + ?Sized>(
    corpus: &C,
    config: IndexConfig,
    dir: &Path,
    parallel: bool,
) -> Result<DiskIndex, IndexError> {
    let fsyncs_before = ndss_durable::fsync_count();
    write_run(corpus, config, dir, build_threads(parallel), &None)?;
    opened(dir, fsyncs_before)
}

/// The pipeline of [`build_and_write`]: what writes every run of an
/// external build too.
fn write_run<C: CorpusSource + ?Sized>(
    corpus: &C,
    config: IndexConfig,
    dir: &Path,
    threads: usize,
    kill: &Option<Arc<KillPoints>>,
) -> Result<(), IndexError> {
    let config = sized_for(config, corpus);
    let records = FunctionRecords::generate(corpus, &config, threads, UNIT_TOKENS)?;
    write_dir(&config, dir, threads, kill, |func, put| {
        records.emit(func, put)
    })
}

/// Bytes of records an external build holds in memory at once unless told
/// otherwise ([`ExternalIndexBuilder::memory_budget`], `ndss index
/// --memory-budget`, [`crate::ShardedBuildOptions`]).
pub const DEFAULT_MEMORY_BUDGET: usize = 256 << 20;

/// Out-of-core index builder: budget-sized runs through the in-memory
/// pipeline, joined by the merge (see the module docs).
#[derive(Debug, Clone)]
pub struct ExternalIndexBuilder {
    config: IndexConfig,
    /// Bytes of tokens and records one run may hold in memory.
    memory_budget: usize,
    /// Build runs and merge them on every core.
    parallel: bool,
    /// Reuse the runs an interrupted build published.
    resume: bool,
    /// Deterministic crash injector (fault-injection harnesses only).
    kill: Option<Arc<KillPoints>>,
}

impl ExternalIndexBuilder {
    /// A serial builder with the [`DEFAULT_MEMORY_BUDGET`].
    pub fn new(config: IndexConfig) -> Self {
        Self {
            config,
            memory_budget: DEFAULT_MEMORY_BUDGET,
            parallel: false,
            resume: false,
            kill: None,
        }
    }

    /// Sets the memory budget in bytes: the corpus is cut into runs whose
    /// tokens and records fit it.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Enables thread parallelism within each run and across the hash
    /// functions of the merge.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Continues an interrupted build. A failed or killed build of more
    /// than one run leaves the runs it published under `tmp_spill/`.
    /// Resume keeps them in order up to the first whose `meta.json` is not
    /// the one this build would write for the same texts (same
    /// configuration, same text and token counts), rewrites that run and
    /// every later one, and merges from the start — byte-identical to an
    /// uninterrupted build, whatever budget or configuration the
    /// interrupted one had. Off, a build first sweeps such residue.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Installs a deterministic crash injector (test harnesses only). When
    /// it fires the error propagates and **no** cleanup runs: on-disk state
    /// stays exactly as the crash found it.
    pub fn kill_points(mut self, kill: Arc<KillPoints>) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Tokens per run: what the budget holds of a token's 4 bytes plus its
    /// expected records — 2/(t+1) compact windows under each of k functions
    /// (the paper's Theorem 1).
    fn run_tokens(&self) -> usize {
        let (k, t) = (self.config.k as f64, self.config.t as f64);
        let per_token = 4.0 + k * 2.0 / (t + 1.0) * std::mem::size_of::<Record>() as f64;
        ((self.memory_budget as f64 / per_token) as usize).max(1)
    }

    /// Builds the index for `corpus` into `dir`.
    pub fn build<C: CorpusSource + ?Sized>(
        &self,
        corpus: &C,
        dir: &Path,
    ) -> Result<DiskIndex, IndexError> {
        let _span = ndss_obs::span("index.build.external");
        let fsyncs_before = ndss_durable::fsync_count();
        std::fs::create_dir_all(dir)?;
        if !self.resume {
            gc::gc_counter().inc(gc::sweep_build_residue(dir) + gc::sweep_atomic_temps(dir));
        }
        let threads = kill::threads_under(&self.kill, build_threads(self.parallel));
        let run_tokens = self.run_tokens();

        // A corpus that is one run is that run, written where it belongs.
        // (A single text larger than the budget cannot be split — the same
        // implicit assumption the paper makes.)
        if corpus.total_tokens() <= run_tokens as u64 || corpus.num_texts() <= 1 {
            write_run(corpus, self.config.clone(), dir, threads, &self.kill)?;
            return opened(dir, fsyncs_before);
        }

        // On failure (or an injected crash) nothing is cleaned up: the runs
        // published so far are what a resume keeps. Runs number their texts
        // from 0 and follow one another, so a run whose predecessors were
        // all kept and whose `meta.json` matches holds this batch. The first
        // that does not goes, with every later one, before anything is
        // written: a crash then cannot leave a later run looking kept.
        let spill_dir = dir.join(SPILL_DIR);
        let mut keeping = self.resume;
        let mut runs: Vec<PathBuf> = Vec::new();
        for batch in BatchIter::new(corpus, run_tokens) {
            let run = InMemoryCorpus::from_texts(batch?.texts);
            let run_dir = spill_dir.join(format!("run-{:06}", runs.len()));
            if keeping && !self.published(&run_dir, &run) {
                keeping = false;
                gc::gc_counter().inc(gc::sweep_runs_from(&spill_dir, runs.len()));
            }
            if !keeping {
                let _span = ndss_obs::span("index.build.run");
                write_run(&run, self.config.clone(), &run_dir, threads, &self.kill)?;
            }
            runs.push(run_dir);
        }
        let runs: Vec<&Path> = runs.iter().map(PathBuf::as_path).collect();
        MergeInputs::load(&runs)?.merge_into(dir, threads, &self.kill)?;
        if let Err(e) = std::fs::remove_dir_all(&spill_dir) {
            eprintln!(
                "warning: could not remove run scratch {}: {e}",
                spill_dir.display()
            );
        }
        opened(dir, fsyncs_before)
    }

    /// Whether `run_dir` is published with the `meta.json` this build writes
    /// for `run`: the same configuration, text count and token count.
    fn published(&self, run_dir: &Path, run: &InMemoryCorpus) -> bool {
        std::fs::read_to_string(run_dir.join(crate::disk::META_FILE)).is_ok_and(|meta| {
            IndexConfig::from_json(&meta).ok() == Some(sized_for(self.config.clone(), run))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexAccess;
    use ndss_corpus::SyntheticCorpusBuilder;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = crate::tests::test_root("ndss_build_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn file_bytes(path: &Path) -> Vec<u8> {
        std::fs::read(path).unwrap()
    }

    #[test]
    fn external_build_is_byte_identical_to_memory_build() {
        let (corpus, _) = SyntheticCorpusBuilder::new(31)
            .num_texts(60)
            .text_len(80, 200)
            .vocab_size(400)
            .build();
        let config = IndexConfig::new(3, 10, 5).zone_map(8, 16);

        let mem_dir = temp_dir("mem");
        let mem = MemoryIndex::build(&corpus, config.clone()).unwrap();
        write_memory_index(&mem, &mem_dir).unwrap();

        let ext_dir = temp_dir("ext");
        ExternalIndexBuilder::new(config)
            .memory_budget(8 << 10) // a run every few texts
            .build(&corpus, &ext_dir)
            .unwrap();

        for func in 0..3 {
            assert_eq!(
                file_bytes(&inv_file_path(&mem_dir, func)),
                file_bytes(&inv_file_path(&ext_dir, func)),
                "inv_{func}.ndsi differs between builders"
            );
        }
        std::fs::remove_dir_all(&mem_dir).ok();
        std::fs::remove_dir_all(&ext_dir).ok();
    }

    #[test]
    fn pipeline_bytes_do_not_depend_on_threads_or_unit_size() {
        use ndss_corpus::InMemoryCorpus;
        let t = 12;
        let (varied, _) = SyntheticCorpusBuilder::new(36)
            .num_texts(25)
            .text_len(20, 90)
            .vocab_size(150)
            .build();
        let mut texts: Vec<Vec<u32>> = varied.iter().map(|(_, toks)| toks.to_vec()).collect();
        texts.insert(3, Vec::new());
        texts.insert(9, vec![7; t - 1]);
        texts.push(vec![1, 2, 3]);
        // One token throughout: under every function all records share one
        // hash, so each file holds a single list.
        let constant = vec![vec![], vec![5; 40], vec![5; 3], vec![5; 64], vec![5; t]];
        for (case, texts) in [("varied", texts), ("constant", constant)] {
            let corpus = InMemoryCorpus::from_texts(texts);
            let config = sized_for(IndexConfig::new(3, t, 11).bit_packed(true), &corpus);
            let want_dir = temp_dir(&format!("pipe_{case}_want"));
            let mem = MemoryIndex::build(&corpus, config.clone()).unwrap();
            if case == "constant" {
                assert_eq!(mem.keys_for_function(0), 1);
            }
            write_memory_index(&mem, &want_dir).unwrap();
            for threads in [1, 2, 3, 7] {
                for unit_tokens in [1, u64::MAX] {
                    let dir = temp_dir(&format!("pipe_{case}_{threads}_{}", unit_tokens == 1));
                    let records =
                        FunctionRecords::generate(&corpus, &config, threads, unit_tokens).unwrap();
                    write_dir(&config, &dir, threads, &None, |func, put| {
                        records.emit(func, put)
                    })
                    .unwrap();
                    for name in ["inv_0.ndsi", "inv_1.ndsi", "inv_2.ndsi", "meta.json"] {
                        assert_eq!(
                            file_bytes(&want_dir.join(name)),
                            file_bytes(&dir.join(name)),
                            "{case}: {name} at {threads} threads, unit budget {unit_tokens}"
                        );
                    }
                    std::fs::remove_dir_all(&dir).ok();
                }
            }
            std::fs::remove_dir_all(&want_dir).ok();
        }
    }

    /// A budget below any one text: texts cannot be split, so every text is
    /// a run of its own and the merge has as many inputs as the corpus has
    /// texts.
    #[test]
    fn a_budget_below_one_text_makes_every_text_a_run() {
        let (corpus, _) = SyntheticCorpusBuilder::new(32)
            .num_texts(50)
            .text_len(100, 150)
            .vocab_size(200)
            .build();
        let config = IndexConfig::new(2, 8, 9);

        let mem = MemoryIndex::build(&corpus, config.clone()).unwrap();
        let mem_dir = temp_dir("rp_mem");
        write_memory_index(&mem, &mem_dir).unwrap();

        let ext_dir = temp_dir("rp_ext");
        let builder = ExternalIndexBuilder::new(config).memory_budget(1 << 10);
        assert!(builder.run_tokens() < 100, "no run may hold two texts");
        builder.build(&corpus, &ext_dir).unwrap();

        for name in ["inv_0.ndsi", "inv_1.ndsi", "meta.json"] {
            assert_eq!(
                file_bytes(&mem_dir.join(name)),
                file_bytes(&ext_dir.join(name)),
                "{name}"
            );
        }
        std::fs::remove_dir_all(&mem_dir).ok();
        std::fs::remove_dir_all(&ext_dir).ok();
    }

    #[test]
    fn parallel_external_build_matches_serial() {
        let (corpus, _) = SyntheticCorpusBuilder::new(33)
            .num_texts(40)
            .text_len(80, 160)
            .vocab_size(500)
            .build();
        let config = IndexConfig::new(4, 10, 2);
        let a_dir = temp_dir("par_a");
        let b_dir = temp_dir("par_b");
        let builder = ExternalIndexBuilder::new(config).memory_budget(16 << 10);
        builder
            .clone()
            .parallel(false)
            .build(&corpus, &a_dir)
            .unwrap();
        builder.parallel(true).build(&corpus, &b_dir).unwrap();
        for func in 0..4 {
            assert_eq!(
                file_bytes(&inv_file_path(&a_dir, func)),
                file_bytes(&inv_file_path(&b_dir, func)),
            );
        }
        std::fs::remove_dir_all(&a_dir).ok();
        std::fs::remove_dir_all(&b_dir).ok();
    }

    #[test]
    fn spill_scratch_space_is_removed() {
        let (corpus, _) = SyntheticCorpusBuilder::new(34).num_texts(10).build();
        let dir = temp_dir("cleanup");
        let builder = ExternalIndexBuilder::new(IndexConfig::new(1, 25, 3)).memory_budget(4 << 10);
        assert!(
            (builder.run_tokens() as u64) < corpus.total_tokens() / 2,
            "the budget must cut runs"
        );
        builder.build(&corpus, &dir).unwrap();
        assert!(!dir.join("tmp_spill").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn built_index_reopens_with_same_config() {
        let (corpus, _) = SyntheticCorpusBuilder::new(35).num_texts(15).build();
        let dir = temp_dir("reopen");
        let config = IndexConfig::new(2, 25, 4);
        let built = build_and_write(&corpus, config, &dir, true).unwrap();
        let reopened = DiskIndex::open(&dir).unwrap();
        assert_eq!(built.config(), reopened.config());
        assert_eq!(reopened.config().num_texts, 15);
        assert_eq!(reopened.config().total_tokens, corpus.total_tokens());
        std::fs::remove_dir_all(&dir).ok();
    }
}
