//! Index builders: the in-memory path and the out-of-core hash-aggregation
//! path (paper §3.4).
//!
//! * [`write_memory_index`] — serializes a built [`MemoryIndex`] to an index
//!   directory ("builds an inverted index in memory and then writes it back
//!   to disk", Algorithm 1 lines 2–8).
//! * [`ExternalIndexBuilder`] — for corpora larger than memory: texts are
//!   streamed in batches, their compact windows *spilled* to partition files
//!   keyed by (hash function, top bits of the min-hash value), and each
//!   partition is then loaded, grouped, and appended to the final index
//!   files in hash order. A partition that exceeds the memory budget is
//!   **recursively re-partitioned** on the next bits of the hash (the
//!   paper's "recursive partitioning \[52\]"); a partition that consists of a
//!   single hash value can no longer be split and is loaded whole — the same
//!   implicit assumption the paper makes.
//!
//! Both paths produce **byte-identical** index directories for the same
//! corpus and configuration (lists sorted by hash, postings by
//! `(text, l, c, r)`), which `tests/builder_equivalence.rs` asserts; this is
//! the property that lets every query-layer test run against either.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use ndss_corpus::types::BatchIter;
use ndss_corpus::{CorpusSource, TextId};
use ndss_hash::{HashValue, MinHasher};
use ndss_windows::{HashedWindow, WindowGenerator};

use crate::container::{Encoding, Writer};
use crate::disk::{inv_file_path, DiskIndex};
use crate::journal::{self, BuildJournal, JournalKind, KillPoints};
use crate::memory::MemoryIndex;
use crate::{IndexAccess, IndexConfig, IndexError, Posting};

/// Name of the spill scratch directory an external build keeps inside its
/// output directory.
pub(crate) const SPILL_DIR: &str = "tmp_spill";

/// Writes a built [`MemoryIndex`] to `dir` (created if needed) and returns
/// the opened [`DiskIndex`].
pub fn write_memory_index(index: &MemoryIndex, dir: &Path) -> Result<DiskIndex, IndexError> {
    write_lists(index.config(), |func| index.sorted_lists(func), dir)
}

/// Writes any in-memory posting-list source to `dir`: `lists(func)` must
/// yield `(hash, postings)` in ascending hash order with each list in
/// canonical `(text, window)` order — the contract of
/// [`MemoryIndex::sorted_lists`]. The ingest path seals memtable segments
/// through this without first copying them into a [`MemoryIndex`].
pub(crate) fn write_lists<'a>(
    config: &IndexConfig,
    lists: impl Fn(usize) -> Vec<(HashValue, &'a [Posting])> + Sync,
    dir: &Path,
) -> Result<DiskIndex, IndexError> {
    write_dir(
        config,
        dir,
        ndss_parallel::default_threads(),
        |func, put| {
            lists(func)
                .into_iter()
                .try_for_each(|(hash, postings)| put(hash, postings))
        },
    )
}

/// Publishes an index directory: one [`Writer`] per function, each filled by
/// `fill(func, put)` calling `put(hash, postings)` in ascending hash order,
/// on up to `threads` threads — the files are independent, so their
/// encoding, writes and fsyncs overlap. The directory is garbage until
/// `meta.json` lands, last.
fn write_dir(
    config: &IndexConfig,
    dir: &Path,
    threads: usize,
    fill: impl Fn(
            usize,
            &mut dyn FnMut(HashValue, &[Posting]) -> Result<(), IndexError>,
        ) -> Result<(), IndexError>
        + Sync,
) -> Result<DiskIndex, IndexError> {
    let _span = ndss_obs::span("index.write");
    let postings_written = build_postings_counter();
    let fsyncs_before = ndss_durable::fsync_count();
    std::fs::create_dir_all(dir)?;
    let funcs: Vec<usize> = (0..config.k).collect();
    // A file's publish ends in two fsync waits; a second writer per thread
    // keeps its core busy through them.
    let writers = if threads > 1 { 2 * threads } else { 1 };
    ndss_parallel::try_map(&funcs, writers, |_, &func| {
        let mut writer =
            Writer::create(&inv_file_path(dir, func), func as u32, Encoding::of(config))?;
        fill(func, &mut |hash, postings| {
            writer.write_list(hash, postings)?;
            postings_written.inc(postings.len() as u64);
            Ok(())
        })?;
        writer.finish()
    })?;
    DiskIndex::write_meta(dir, config)?;
    record_build_fsyncs(fsyncs_before);
    DiskIndex::open(dir)
}

/// Counter of postings written by any builder (memory write-back, external
/// aggregation, merge).
pub(crate) fn build_postings_counter() -> ndss_obs::Counter {
    ndss_obs::Registry::global().counter(
        "index.build.postings",
        "postings written to inverted-index files",
    )
}

/// Records the fsyncs one build/merge issued (delta of the process-wide
/// [`ndss_durable::fsync_count`]) as a per-build histogram sample. With
/// concurrent builds in one process the deltas can overlap; the precise
/// total is the `durable.fsyncs` gauge refreshed at export time.
pub(crate) fn record_build_fsyncs(before: u64) {
    ndss_obs::Registry::global()
        .histogram(
            "index.build.fsyncs",
            "fsyncs issued while publishing one index build",
            ndss_obs::Unit::None,
        )
        .record(ndss_durable::fsync_count().saturating_sub(before));
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
    let threads = build_threads(parallel);
    let config = sized_for(config, corpus);
    let records = FunctionRecords::generate(corpus, &config, threads, UNIT_TOKENS)?;
    write_dir(&config, dir, threads, |func, put| records.emit(func, put))
}

/// One spilled record: `(hash, posting)`, 24 bytes on disk.
const SPILL_RECORD_LEN: usize = 8 + Posting::ENCODED_LEN;

fn encode_spill(hash: HashValue, posting: &Posting, out: &mut [u8]) {
    out[0..8].copy_from_slice(&hash.to_le_bytes());
    posting.encode(&mut out[8..SPILL_RECORD_LEN]);
}

fn decode_spill(bytes: &[u8]) -> (HashValue, Posting) {
    let hash = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    (hash, Posting::decode(&bytes[8..SPILL_RECORD_LEN]))
}

/// One unit of work for the durability worker: make `sync`'s bytes durable,
/// publish `snapshot`, then drop spill files a newly journaled function no
/// longer needs.
struct CheckpointMsg {
    snapshot: BuildJournal,
    /// Spill files whose bytes must be durable *before* the snapshot is
    /// published (the snapshot's `spill_lens` describe them).
    sync: Option<Arc<Vec<File>>>,
    /// Function whose spill files may be removed *after* the snapshot is
    /// published (its `funcs_done` entry makes them unreachable by resume).
    cleanup_func: Option<usize>,
}

/// Background durability worker: receives journal snapshots in checkpoint
/// order, makes the spill bytes they describe durable (`fdatasync` on
/// cloned handles), and atomically publishes each snapshot — all while the
/// producing threads compute the next batch or aggregate the next function.
/// The lag is invisible to resume: a crash simply finds an earlier
/// checkpoint's journal, exactly as if checkpoints had been synchronous and
/// the crash had landed a moment sooner.
struct CheckpointPipeline {
    tx: Option<std::sync::mpsc::Sender<CheckpointMsg>>,
    handle: Option<std::thread::JoinHandle<Result<(), IndexError>>>,
    dead: Arc<std::sync::atomic::AtomicBool>,
}

impl CheckpointPipeline {
    fn spawn(dir: &Path, spill_dir: &Path, kill: Option<Arc<KillPoints>>) -> Self {
        let (tx, rx) = std::sync::mpsc::channel::<CheckpointMsg>();
        let dir = dir.to_path_buf();
        let spill_dir = spill_dir.to_path_buf();
        let dead = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = dead.clone();
        let handle = std::thread::spawn(move || {
            let result = (|| {
                for msg in rx {
                    if let Some(files) = &msg.sync {
                        // fdatasync, not fsync: the size change from an
                        // append is metadata "needed for a subsequent data
                        // retrieval" and is therefore flushed, which is all
                        // the truncate-to-journaled-length resume relies
                        // on. Synced concurrently: the filesystem journal
                        // batches overlapping commits, so k × fanout
                        // sequential syncs collapse to a few commit waits.
                        ndss_parallel::try_map(&files[..], 8, |_, file| file.sync_data())?;
                    }
                    journal::tick_checkpoint(&kill)?;
                    msg.snapshot.save(&dir)?;
                    journal::tick_checkpoint(&kill)?;
                    if let Some(func) = msg.cleanup_func {
                        // The committed index file supersedes this
                        // function's spill files; now that the journal
                        // durably records the commit, drop them so disk
                        // usage does not double.
                        remove_func_spill(&spill_dir, func);
                    }
                }
                Ok(())
            })();
            if result.is_err() {
                flag.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            result
        });
        Self {
            tx: Some(tx),
            handle: Some(handle),
            dead,
        }
    }

    /// Whether the worker has died; its error surfaces from
    /// [`CheckpointPipeline::finish`]. Producers use this to stop early.
    fn is_dead(&self) -> bool {
        self.dead.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Hands one checkpoint to the worker. `false` means the worker has
    /// died; its error surfaces from [`CheckpointPipeline::finish`].
    fn enqueue(&self, msg: CheckpointMsg) -> bool {
        !self.is_dead()
            && self
                .tx
                .as_ref()
                .expect("pipeline not finished")
                .send(msg)
                .is_ok()
    }

    /// Drains the queue and joins the worker: after `Ok(())` every enqueued
    /// checkpoint is durably published.
    fn finish(mut self) -> Result<(), IndexError> {
        drop(self.tx.take());
        match self.handle.take().expect("pipeline not finished").join() {
            Ok(result) => result,
            Err(_) => Err(IndexError::Io(std::io::Error::other(
                "checkpoint worker panicked",
            ))),
        }
    }
}

/// Out-of-core index builder via hash aggregation.
#[derive(Debug, Clone)]
pub struct ExternalIndexBuilder {
    config: IndexConfig,
    /// Per-batch token budget for the text scan.
    batch_tokens: usize,
    /// Bytes a partition may occupy before it is recursively re-partitioned.
    memory_budget: usize,
    /// log2 of the fan-out at each partitioning level.
    partition_bits: u32,
    /// Parallelize window generation across hash functions.
    parallel: bool,
    /// Continue an interrupted build instead of starting over.
    resume: bool,
    /// Deterministic crash injector (fault-injection harnesses only).
    kill: Option<Arc<KillPoints>>,
}

impl ExternalIndexBuilder {
    /// A builder with defaults sized for tests and CI-scale corpora
    /// (64 Mi-token batches, 256 MiB partition budget, fan-out 16).
    pub fn new(config: IndexConfig) -> Self {
        Self {
            config,
            batch_tokens: 64 << 20,
            memory_budget: 256 << 20,
            partition_bits: 4,
            parallel: false,
            resume: false,
            kill: None,
        }
    }

    /// Sets the per-batch token budget.
    pub fn batch_tokens(mut self, tokens: usize) -> Self {
        self.batch_tokens = tokens.max(1);
        self
    }

    /// Sets the partition memory budget in bytes.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes.max(SPILL_RECORD_LEN);
        self
    }

    /// Sets the partition fan-out to `2^bits` (1 ≤ bits ≤ 8).
    pub fn partition_bits(mut self, bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "partition bits out of range");
        self.partition_bits = bits;
        self
    }

    /// Enables thread parallelism across hash functions during build.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Continues an interrupted build. Every build checkpoints its progress
    /// to `build.journal` after each spilled batch and each committed index
    /// file, and a failed or killed build leaves that resumable state
    /// behind. On resume the journal is validated against the configuration
    /// (exact fingerprint match), the in-flight unit of work is discarded,
    /// and the build picks up from the last checkpoint — producing output
    /// byte-identical to an uninterrupted build. With no journal on disk
    /// this silently degrades to a fresh build (there is nothing to resume).
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Installs a deterministic crash injector. When it fires, the builder
    /// behaves like a hard crash: the error propagates and **no** cleanup
    /// runs, leaving on-disk state exactly as the crash found it. Test
    /// harnesses only.
    pub fn kill_points(mut self, kill: Arc<KillPoints>) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Digest of everything that shapes the spill layout and output bytes:
    /// the full configuration (which embeds the corpus dimensions) plus the
    /// builder parameters that determine batch boundaries and partition
    /// fan-out. A journal only resumes a build with an identical digest.
    fn build_fingerprint(&self, config: &IndexConfig) -> u64 {
        journal::fingerprint(&[
            "external_build",
            &config.to_json_pretty(),
            &self.batch_tokens.to_string(),
            &self.memory_budget.to_string(),
            &self.partition_bits.to_string(),
        ])
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
        let config = sized_for(self.config.clone(), corpus);
        let fingerprint = self.build_fingerprint(&config);

        let mut state =
            BuildJournal::begin(dir, JournalKind::ExternalBuild, fingerprint, self.resume)?;

        let spill_dir = dir.join(SPILL_DIR);
        std::fs::create_dir_all(&spill_dir)?;

        // On failure (or an injected crash) nothing is cleaned up: the
        // journal + spill files *are* the resumable state, and a later
        // fresh build garbage-collects them.
        self.build_inner(corpus, dir, &spill_dir, &config, &mut state)?;
        journal::tick_checkpoint(&self.kill)?;
        DiskIndex::write_meta(dir, &config)?;
        journal::tick_checkpoint(&self.kill)?;
        BuildJournal::remove(dir)?;
        journal::tick_checkpoint(&self.kill)?;
        if let Err(e) = std::fs::remove_dir_all(&spill_dir) {
            eprintln!(
                "warning: could not remove spill scratch {}: {e}",
                spill_dir.display()
            );
        }
        record_build_fsyncs(fsyncs_before);
        DiskIndex::open(dir)
    }

    fn build_inner<C: CorpusSource + ?Sized>(
        &self,
        corpus: &C,
        dir: &Path,
        spill_dir: &Path,
        config: &IndexConfig,
        state: &mut BuildJournal,
    ) -> Result<(), IndexError> {
        let hasher = config.hasher();
        let k = config.k;
        let fanout = 1usize << self.partition_bits;
        let shift = 64 - self.partition_bits;

        // All durability (spill fdatasyncs, journal publications, spill
        // cleanup of committed functions) runs on one worker thread so it
        // overlaps the compute of both phases. The result of each phase is
        // captured rather than propagated with `?` so the worker is always
        // joined before this function returns — nothing may keep writing to
        // `dir` after the build has reported failure.
        let pipeline = CheckpointPipeline::spawn(dir, spill_dir, self.kill.clone());

        let compute: Result<(), IndexError> = (|| {
            // Phase 1: scan batches, spill (hash, posting) records
            // partitioned by (function, top hash bits). Skipped entirely
            // when a resumed journal says every batch is already durably
            // spilled.
            if !state.spill_done {
                self.spill_phase(
                    corpus, dir, spill_dir, config, state, &hasher, fanout, shift, &pipeline,
                )?;
            }
            if pipeline.is_dead() {
                // The durability worker crashed mid-spill; there is nothing
                // sound to aggregate (`finish` below surfaces its error).
                return Ok(());
            }

            // Phase 2: per function, aggregate partitions in ascending hash
            // order into the final index file. Functions write to disjoint
            // files and disjoint spill partitions, so they parallelize
            // without coordination — and each file's bytes are independent
            // of how many functions run at once. Functions the journal
            // records as committed are skipped; the journal itself is
            // updated under a mutex (the `funcs_done` set is
            // order-independent, so concurrent completions serialize
            // cleanly).
            let _aggregate_span = ndss_obs::span("index.build.aggregate");
            let funcs: Vec<usize> = (0..k).filter(|f| !state.funcs_done.contains(f)).collect();
            let threads = build_threads(self.parallel);
            let journal_cell = Mutex::new(&mut *state);
            ndss_parallel::try_map(&funcs, threads, |_, &func| {
                if pipeline.is_dead() {
                    // The durability worker crashed; stop producing work its
                    // journal will never record (`finish` surfaces why).
                    return Ok(());
                }
                let mut writer =
                    Writer::create(&inv_file_path(dir, func), func as u32, Encoding::of(config))?;
                for p in 0..fanout {
                    let path = spill_path(spill_dir, func, 0, p);
                    self.process_partition(
                        &path,
                        self.partition_bits,
                        func,
                        spill_dir,
                        &mut writer,
                    )?;
                }
                writer.finish()?;
                let mut journal = journal_cell.lock().unwrap();
                journal.funcs_done.insert(func);
                // The worker publishes the snapshot and then removes this
                // function's spill files — in that order, so a crash can
                // never leave a function neither journaled nor re-buildable
                // from spill.
                pipeline.enqueue(CheckpointMsg {
                    snapshot: journal.clone(),
                    sync: None,
                    cleanup_func: Some(func),
                });
                Ok::<(), IndexError>(())
            })?;
            Ok(())
        })();
        let worker = pipeline.finish();
        compute?;
        worker
    }

    /// Phase 1 with checkpointing: after each batch every spill writer is
    /// flushed and its length handed to the durability worker, which
    /// fdatasyncs the files and journals the lengths, so a resume can
    /// truncate away a partially-spilled batch and re-run it.
    #[allow(clippy::too_many_arguments)]
    fn spill_phase<C: CorpusSource + ?Sized>(
        &self,
        corpus: &C,
        dir: &Path,
        spill_dir: &Path,
        config: &IndexConfig,
        state: &mut BuildJournal,
        hasher: &MinHasher,
        fanout: usize,
        shift: u32,
        pipeline: &CheckpointPipeline,
    ) -> Result<(), IndexError> {
        let _spill_span = ndss_obs::span("index.build.spill");
        let k = config.k;
        let resuming = state.batches_done > 0 || !state.spill_lens.is_empty();
        // Open the k × fanout partition writers. A fresh build truncates; a
        // resume reopens each file, truncates it back to the length the
        // journal recorded at the last completed batch (discarding the
        // in-flight batch's partial appends), and appends from there.
        let mut spills: Vec<Vec<BufWriter<File>>> = (0..k)
            .map(|func| {
                (0..fanout)
                    .map(|p| {
                        let path = spill_path(spill_dir, func, 0, p);
                        let file = if resuming {
                            let recorded = state
                                .spill_lens
                                .get(func * fanout + p)
                                .copied()
                                .unwrap_or(0);
                            let mut file = std::fs::OpenOptions::new()
                                .write(true)
                                .create(true)
                                .truncate(false)
                                .open(&path)?;
                            file.set_len(recorded)?;
                            file.seek(SeekFrom::End(0))?;
                            file
                        } else {
                            File::create(&path)?
                        };
                        Ok(BufWriter::new(file))
                    })
                    .collect::<Result<Vec<_>, IndexError>>()
            })
            .collect::<Result<Vec<_>, IndexError>>()?;

        if !resuming {
            journal::tick_checkpoint(&self.kill)?;
            state.save(dir)?;
            journal::tick_checkpoint(&self.kill)?;
        }

        // Cloned handles let the durability worker fdatasync the spill
        // files while this thread keeps appending to them: a checkpoint
        // runs one batch behind the scan instead of stalling it.
        let mut sync_files = Vec::with_capacity(k * fanout);
        for writers in &spills {
            for w in writers {
                sync_files.push(w.get_ref().try_clone()?);
            }
        }
        let sync_files = Some(Arc::new(sync_files));

        let threads = build_threads(self.parallel);
        let mut batch_idx: u64 = 0;
        for batch in BatchIter::new(corpus, self.batch_tokens) {
            let batch = batch?;
            if batch_idx < state.batches_done {
                // Already durably spilled by the interrupted run.
                batch_idx += 1;
                continue;
            }
            let kill = &self.kill;
            let spill_batch = |func: usize, writers: &mut [BufWriter<File>]| {
                let mut generator = WindowGenerator::new();
                let mut windows: Vec<HashedWindow> = Vec::new();
                let mut record = [0u8; SPILL_RECORD_LEN];
                for (offset, tokens) in batch.texts.iter().enumerate() {
                    journal::tick_io(kill)?;
                    let text = batch.first + offset as u32;
                    windows.clear();
                    generator.generate(hasher, func, tokens, config.t, &mut windows);
                    for hw in &windows {
                        let posting = Posting {
                            text,
                            window: hw.window,
                        };
                        encode_spill(hw.hash, &posting, &mut record);
                        let partition = (hw.hash >> shift) as usize;
                        writers[partition].write_all(&record)?;
                    }
                }
                Ok::<(), IndexError>(())
            };
            ndss_parallel::map_mut(&mut spills, threads, |func, writers| {
                spill_batch(func, writers)
            })
            .into_iter()
            .collect::<Result<(), _>>()?;
            batch_idx += 1;
            if pipeline.is_dead() {
                // Worker died; stop scanning. `build_inner` skips
                // aggregation and surfaces the worker's error.
                return Ok(());
            }
            // Checkpoint: flush the new high-water marks to the OS and
            // hand the snapshot to the durability worker.
            let mut lens = Vec::with_capacity(k * fanout);
            for writers in &mut spills {
                for w in writers {
                    w.flush()?;
                    lens.push(w.get_ref().metadata()?.len());
                }
            }
            state.batches_done = batch_idx;
            state.spill_lens = lens;
            pipeline.enqueue(CheckpointMsg {
                snapshot: state.clone(),
                sync: sync_files.clone(),
                cleanup_func: None,
            });
        }
        for writers in &mut spills {
            for w in writers {
                w.flush()?;
            }
        }
        drop(spills);
        state.spill_done = true;
        // The spill-done checkpoint rides the pipeline too: its sync covers
        // the final batch, and FIFO order guarantees it is published before
        // any `funcs_done` snapshot aggregation enqueues — so aggregation
        // can start on the page-cache spill immediately, durability
        // trailing behind.
        pipeline.enqueue(CheckpointMsg {
            snapshot: state.clone(),
            sync: sync_files,
            cleanup_func: None,
        });
        Ok(())
    }

    /// Aggregates one partition file: loads it if it fits the budget (or can
    /// no longer be split), otherwise re-partitions on the next hash bits
    /// and recurses in ascending sub-partition order.
    ///
    /// Spill files are **not** deleted as they are consumed: the level-0
    /// partitions must survive until this function's index file commits, so
    /// that a crash mid-aggregation can re-run the function from intact
    /// inputs (re-splitting is idempotent — sub files are recreated with
    /// `File::create`). The committed-function path in `build_inner`
    /// removes them afterwards.
    fn process_partition(
        &self,
        path: &Path,
        consumed_bits: u32,
        func: usize,
        spill_dir: &Path,
        writer: &mut Writer,
    ) -> Result<(), IndexError> {
        journal::tick_io(&self.kill)?;
        let size = std::fs::metadata(path)?.len();
        if size == 0 {
            return Ok(());
        }
        let can_split = consumed_bits + self.partition_bits <= 64;
        if size as usize <= self.memory_budget || !can_split {
            // Terminal: load, sort, group, emit.
            if size % SPILL_RECORD_LEN as u64 != 0 {
                return Err(IndexError::Malformed(format!(
                    "spill file {} is not a whole number of records",
                    path.display()
                )));
            }
            let mut reader = std::io::BufReader::new(File::open(path)?);
            let mut record = [0u8; SPILL_RECORD_LEN];
            let count = size as usize / SPILL_RECORD_LEN;
            let mut records: Vec<Record> = Vec::with_capacity(count);
            for _ in 0..count {
                reader.read_exact(&mut record)?;
                records.push(decode_spill(&record));
            }
            let postings_written = build_postings_counter();
            return emit_runs(&mut records, |hash, list| {
                writer.write_list(hash, list)?;
                postings_written.inc(list.len() as u64);
                Ok(())
            });
        }

        // Recursive re-partition on the next `partition_bits` bits.
        let fanout = 1usize << self.partition_bits;
        let next_consumed = consumed_bits + self.partition_bits;
        let sub_shift = 64 - next_consumed;
        let mask = (fanout - 1) as u64;
        let mut subs: Vec<BufWriter<File>> = (0..fanout)
            .map(|p| {
                let sub_path = sub_partition_path(spill_dir, func, path, p);
                File::create(sub_path).map(BufWriter::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        {
            let mut reader = std::io::BufReader::new(File::open(path)?);
            let mut record = [0u8; SPILL_RECORD_LEN];
            loop {
                match reader.read_exact(&mut record) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                    Err(e) => return Err(e.into()),
                }
                let hash = u64::from_le_bytes(record[0..8].try_into().expect("8 bytes"));
                let sub = ((hash >> sub_shift) & mask) as usize;
                subs[sub].write_all(&record)?;
            }
        }
        for w in &mut subs {
            w.flush()?;
        }
        drop(subs);
        for p in 0..fanout {
            let sub_path = sub_partition_path(spill_dir, func, path, p);
            self.process_partition(&sub_path, next_consumed, func, spill_dir, writer)?;
        }
        Ok(())
    }
}

/// Removes `path`, reporting failure (other than absence) as a warning —
/// the file is garbage, but the operator should know it remains.
fn remove_file_warn(path: &Path) {
    if let Err(e) = std::fs::remove_file(path) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("warning: could not remove {}: {e}", path.display());
        }
    }
}

/// Removes every spill file belonging to `func` (name prefix `f{func}_`,
/// which covers its level-0 partitions and all recursive sub-partitions)
/// once its index file has committed and the journal records it.
fn remove_func_spill(spill_dir: &Path, func: usize) {
    let prefix = format!("f{func}_");
    let Ok(entries) = std::fs::read_dir(spill_dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.starts_with(&prefix))
        {
            remove_file_warn(&entry.path());
        }
    }
}

fn spill_path(spill_dir: &Path, func: usize, level: u32, partition: usize) -> PathBuf {
    spill_dir.join(format!("f{func}_l{level}_p{partition}.spill"))
}

fn sub_partition_path(spill_dir: &Path, func: usize, parent: &Path, partition: usize) -> PathBuf {
    let parent_stem = parent
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("root");
    spill_dir.join(format!("f{func}_{parent_stem}_s{partition}.spill"))
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
            .batch_tokens(500) // force many batches
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
                    write_dir(&config, &dir, threads, |func, put| records.emit(func, put)).unwrap();
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

    #[test]
    fn recursive_partitioning_engages_and_stays_correct() {
        let (corpus, _) = SyntheticCorpusBuilder::new(32)
            .num_texts(50)
            .text_len(100, 150)
            .vocab_size(200)
            .build();
        let config = IndexConfig::new(2, 8, 9);

        let mem = MemoryIndex::build(&corpus, config.clone()).unwrap();
        let mem_dir = temp_dir("rp_mem");
        write_memory_index(&mem, &mem_dir).unwrap();

        // A comically small budget forces recursion several levels deep.
        let ext_dir = temp_dir("rp_ext");
        ExternalIndexBuilder::new(config)
            .batch_tokens(700)
            .memory_budget(1 << 10)
            .partition_bits(2)
            .build(&corpus, &ext_dir)
            .unwrap();

        for func in 0..2 {
            assert_eq!(
                file_bytes(&inv_file_path(&mem_dir, func)),
                file_bytes(&inv_file_path(&ext_dir, func)),
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
        ExternalIndexBuilder::new(config.clone())
            .parallel(false)
            .build(&corpus, &a_dir)
            .unwrap();
        ExternalIndexBuilder::new(config)
            .parallel(true)
            .build(&corpus, &b_dir)
            .unwrap();
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
        ExternalIndexBuilder::new(IndexConfig::new(1, 25, 3))
            .build(&corpus, &dir)
            .unwrap();
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
