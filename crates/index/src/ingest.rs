//! Crash-safe incremental ingest: a WAL-backed in-memory segment in front
//! of a store, with crash-safe compaction into new segments.
//!
//! The immutable build pipeline (ROADMAP item 3's starting point) forces a
//! full rebuild for any corpus change. This module adds the mutable path:
//!
//! * [`MemSegment`] — an in-memory inverted index that absorbs one text at
//!   a time (windows generated online, postings appended to sorted lists —
//!   ids only ever grow, so lists stay ordered without re-sorting). It
//!   holds a [`MemoryIndex`], so the query layer searches it unchanged.
//! * [`crate::wal`] — every accepted text is WAL-framed before it is
//!   acked; recovery replays the longest valid prefix.
//! * [`IngestIndex`] — the orchestrator: append → WAL + segment, rotate
//!   full segments behind new WAL files, and **compact** each frozen one
//!   into a new store segment, then merge short runs of the newest ones
//!   (`tail_run`). Every step converges from any kill point, publish
//!   is atomic, and a WAL is only trimmed after the covering segment has
//!   been verified and published — so a text is durable from the moment
//!   its append is acked, and never duplicated.
//!
//! ## Lifecycle and crash windows
//!
//! ```text
//! append:   WAL frame → mem postings → (group) fsync → acked
//! rotate:   sync WAL S → freeze segment → manifest active_wal = S+1
//!           → create WAL S+1
//! compact:  write segment S into a fresh seg-N → publish the list with
//!           seg-N appended (verify seg-N + one atomic MANIFEST write)
//!           → while tail_run picks a run: allocate seg-M → merge(run)
//!             → seg-M → publish the run replaced by seg-M
//!           → memtable trimmed_below = S+1 → delete WAL S
//! ```
//!
//! Recovery derives everything from the store's `MANIFEST` + the memtable
//! manifest + the WALs: replay skips records whose id is already covered by
//! the published list, and a segment never published (a compaction's, or
//! a merge target) is collected by the next publish. A WAL the list fully
//! covers is the one state in which a tail merge can be unsettled (the
//! crash landed between publish and trim), so recovery then runs the tail
//! rule before it advances the trim: an interrupted merge is redone from
//! its published inputs, never resumed. The open-path GC (`gc.rs`) never
//! touches a WAL referenced by a live manifest — even a corrupt manifest
//! protects its WALs, exactly like a corrupt build journal protects its
//! runs.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ndss_corpus::TextId;
use ndss_hash::{MinHasher, TokenId};
use ndss_json::{Json, ObjectBuilder};
use ndss_windows::{HashedWindow, WindowGenerator};

use crate::disk::DiskIndex;
use crate::journal::{self, KillPoints};
use crate::merge::{merge_indexes_with, MergeOptions};
use crate::store::Store;
use crate::wal::{self, WalWriter};
use crate::{build, record, IndexAccess, IndexConfig, IndexError, MemoryIndex};

/// Directory inside a store root that holds the mutable state.
pub const MEMTABLE_DIR: &str = "memtable";
/// The memtable manifest file (self-checksummed JSON).
pub const MEMTABLE_FILE: &str = "MEMTABLE";
/// WAL directory inside the memtable.
pub const WAL_DIR: &str = "wal";

fn texts_counter() -> ndss_obs::Counter {
    ndss_obs::Registry::global().counter("ingest.texts", "Texts accepted by the ingest path")
}

fn wal_bytes_counter() -> ndss_obs::Counter {
    ndss_obs::Registry::global().counter("ingest.wal_bytes", "Bytes appended to ingest WALs")
}

fn replays_counter() -> ndss_obs::Counter {
    ndss_obs::Registry::global().counter(
        "ingest.replays",
        "WAL records replayed into memory during recovery",
    )
}

fn tail_merges_counter() -> ndss_obs::Counter {
    ndss_obs::Registry::global().counter(
        "ingest.tail_merges",
        "Runs of adjacent segments merged into one after a compaction",
    )
}

fn compactions_counter() -> ndss_obs::Counter {
    ndss_obs::Registry::global().counter(
        "ingest.compactions",
        "Memtable compactions published as new segments",
    )
}

fn pending_gauge() -> ndss_obs::Gauge {
    ndss_obs::Registry::global().gauge(
        "ingest.pending_texts",
        "Ingested texts not yet published to a segment",
    )
}

/// Normalizes a configuration to its ingest template: corpus counts zeroed,
/// so fingerprints compare the *shape* (k, t, seed, family, zones, format)
/// rather than any particular corpus size.
fn template(config: &IndexConfig) -> IndexConfig {
    let mut c = config.clone();
    c.num_texts = 0;
    c.total_tokens = 0;
    c
}

/// Fingerprint binding a memtable to its store's configuration shape.
fn config_fingerprint(config: &IndexConfig) -> u64 {
    journal::fingerprint(&["memtable", &template(config).to_json_pretty()])
}

/// Segments a tail merge joins into one.
const TAIL_FAN_OUT: usize = 3;

/// The tail rule, a pure function of the serving list's `num_texts`
/// column: where the newest [`TAIL_FAN_OUT`] rows start when they are to be
/// merged into one — when the oldest of them holds fewer than
/// `TAIL_FAN_OUT` × the texts of each newer one. Equal compactions merge in
/// threes, then threes of those, so a text is rewritten about once per size
/// class and the list holds O(fan-out × log(store / compaction)) rows; a
/// small row is absorbed by the runs after it, not stranded behind bigger
/// ones; batch-built rows are merged only once the tail reaches their size.
pub(crate) fn tail_run(num_texts: &[u64]) -> Option<usize> {
    let first = num_texts.len().checked_sub(TAIL_FAN_OUT)?;
    let newest = num_texts[first + 1..].iter().min()?;
    (num_texts[first] < TAIL_FAN_OUT as u64 * newest).then_some(first)
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// The memtable manifest: which WAL is active and how far trimming has
/// progressed. Atomically rewritten at every state transition; its mere
/// existence marks the `wal/` directory as live for GC purposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MemtableManifest {
    /// Shape fingerprint of the store configuration (see
    /// [`config_fingerprint`]).
    pub fingerprint: u64,
    /// Serialized template configuration, so a memtable can exist before
    /// the store's first segment does.
    pub config_json: String,
    /// Sequence number of the WAL currently accepting appends.
    pub active_wal: u64,
    /// All WALs with `seq < trimmed_below` are covered by published
    /// segments and may be deleted.
    pub trimmed_below: u64,
}

impl MemtableManifest {
    pub(crate) fn path(root: &Path) -> PathBuf {
        root.join(MEMTABLE_DIR).join(MEMTABLE_FILE)
    }

    /// Atomically publishes the manifest (temp, fsync, rename, dir sync).
    pub(crate) fn save(&self, root: &Path) -> Result<(), IndexError> {
        let payload = ObjectBuilder::new()
            .field("version", Json::UInt(1))
            .field("fingerprint", Json::UInt(self.fingerprint))
            .field("config", Json::Str(self.config_json.clone()))
            .field("active_wal", Json::UInt(self.active_wal))
            .field("trimmed_below", Json::UInt(self.trimmed_below))
            .build();
        record::save(&Self::path(root), payload)
    }

    /// Loads the manifest, and the tail-merge target ("" when none) that a
    /// manifest written before merges were redone may name (see
    /// [`IngestIndex::open`]). `Ok(None)` when absent; present-but-corrupt
    /// is an error — the WALs it protects must not be reinterpreted by
    /// guesswork.
    pub(crate) fn load(root: &Path) -> Result<Option<(Self, String)>, IndexError> {
        let path = Self::path(root);
        let Some(doc) = record::load(&path)? else {
            return Ok(None);
        };
        let malformed = |what: &str| IndexError::Malformed(format!("{}: {what}", path.display()));
        let uint = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| malformed(&format!("missing {key}")))
        };
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| malformed(&format!("missing {key}")))
        };
        let manifest = MemtableManifest {
            fingerprint: uint("fingerprint")?,
            config_json: str_field("config")?,
            active_wal: uint("active_wal")?,
            trimmed_below: uint("trimmed_below")?,
        };
        if manifest.active_wal == 0 || manifest.trimmed_below > manifest.active_wal + 1 {
            return Err(malformed("inconsistent WAL watermarks"));
        }
        let legacy = str_field("compact_gen").unwrap_or_default();
        Ok(Some((manifest, legacy)))
    }
}

// ---------------------------------------------------------------------------
// MemSegment
// ---------------------------------------------------------------------------

/// A mutable in-memory index segment: the texts of one WAL and a
/// [`MemoryIndex`] over them, grown one text at a time. Postings use
/// **segment-local** text ids; the overlay layer searches
/// [`MemSegment::index`] and re-bases matches by [`MemSegment::base`].
#[derive(Debug)]
pub struct MemSegment {
    /// WAL sequence this segment mirrors.
    wal_seq: u64,
    /// Global id of the segment's first text.
    base: u64,
    texts: Vec<Vec<TokenId>>,
    index: MemoryIndex,
}

impl MemSegment {
    fn new(config: &IndexConfig, wal_seq: u64, base: u64) -> Self {
        MemSegment {
            wal_seq,
            base,
            texts: Vec::new(),
            index: MemoryIndex::empty(config.clone()),
        }
    }

    /// Inserts the next text; returns its segment-local id. `windows` is a
    /// caller-owned scratch buffer.
    fn insert(
        &mut self,
        hasher: &MinHasher,
        generator: &mut WindowGenerator,
        windows: &mut Vec<HashedWindow>,
        tokens: &[TokenId],
    ) -> TextId {
        self.texts.push(tokens.to_vec());
        self.index.insert(hasher, generator, windows, tokens)
    }

    /// WAL sequence this segment mirrors.
    pub fn wal_seq(&self) -> u64 {
        self.wal_seq
    }

    /// Global id of the first text.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of texts held.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Whether the segment holds no texts.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// The texts, in segment-local id order.
    pub fn texts(&self) -> &[Vec<TokenId>] {
        &self.texts
    }

    /// The segment's inverted index (segment-local text ids). The seal
    /// writer consumes its lists directly — no window regeneration.
    pub fn index(&self) -> &MemoryIndex {
        &self.index
    }
}

// ---------------------------------------------------------------------------
// IngestIndex
// ---------------------------------------------------------------------------

/// Tunables for the ingest path.
#[derive(Clone)]
pub struct IngestOptions {
    /// Rotate (freeze the active segment behind a new WAL) once the active
    /// WAL exceeds this many bytes. Frozen segments wait for compaction.
    pub flush_bytes: u64,
    /// Group-fsync cadence: sync the WAL every N appends (1 = every
    /// append). [`IngestIndex::sync`] always forces one.
    pub fsync_every: u64,
    /// Previous segment lists retained on publish.
    pub keep: usize,
    /// Deterministic crash injector (test harnesses only).
    pub kill: Option<Arc<KillPoints>>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            flush_bytes: 64 << 20,
            fsync_every: 8,
            keep: 1,
            kill: None,
        }
    }
}

/// The mutable front of a store: WAL-backed in-memory segments absorbing
/// appends, with resumable compaction into published segments.
pub struct IngestIndex {
    root: PathBuf,
    store: Store,
    /// Template configuration (corpus counts zeroed).
    config: IndexConfig,
    /// Texts the store's `MANIFEST` serves; every in-memory text has a
    /// global id `>= covered`.
    covered: u64,
    manifest: MemtableManifest,
    writer: WalWriter,
    active: MemSegment,
    frozen: Vec<MemSegment>,
    next_text: u64,
    appends_since_sync: u64,
    opts: IngestOptions,
    hasher: MinHasher,
    generator: WindowGenerator,
    windows_buf: Vec<HashedWindow>,
}

impl IngestIndex {
    /// Opens (creating or recovering) the memtable of the store at `root`.
    ///
    /// The configuration shape comes from the store's last segment when it
    /// has one, else from an existing memtable manifest, else from
    /// `config_if_new` (required only for a store that has never seen an
    /// index or an ingest). Recovery replays the WALs, skipping records
    /// already covered by the published list, and truncates torn tails.
    pub fn open(
        root: &Path,
        config_if_new: Option<IndexConfig>,
        opts: IngestOptions,
    ) -> Result<Self, IndexError> {
        let store = Store::open(root)?;
        let published = store.manifest()?;
        let last = published.segments.last();
        let last = last
            .map(|s| DiskIndex::open(&root.join(&s.dir)))
            .transpose()?;
        let disk_config = last.map(|d| d.config().clone());
        let covered = published.num_texts();

        let manifest = MemtableManifest::load(root)?;
        let config = match (&disk_config, &manifest) {
            (Some(c), _) => template(c),
            (None, Some((m, _))) => template(&IndexConfig::from_json(&m.config_json)?),
            (None, None) => template(&config_if_new.ok_or_else(|| {
                IndexError::Malformed(format!(
                    "{}: empty store and no memtable; ingest needs an index configuration",
                    root.display()
                ))
            })?),
        };
        let manifest = match manifest {
            Some((m, legacy)) => {
                if m.fingerprint != config_fingerprint(&config) {
                    return Err(IndexError::Malformed(format!(
                        "{}: memtable was written under a different index configuration",
                        root.display()
                    )));
                }
                // A manifest written before merges were redone may name an
                // interrupted merge's journaled target (`compact_gen`), which
                // `Store::publish` keeps: delete it once; the save drops it.
                if !legacy.is_empty() {
                    if !published.names(&legacy) {
                        std::fs::remove_dir_all(root.join(&legacy)).ok();
                    }
                    m.save(root)?;
                }
                m
            }
            None => {
                let m = MemtableManifest {
                    fingerprint: config_fingerprint(&config),
                    config_json: config.to_json_pretty(),
                    active_wal: 1,
                    trimmed_below: 1,
                };
                std::fs::create_dir_all(root.join(MEMTABLE_DIR).join(WAL_DIR))?;
                m.save(root)?;
                m
            }
        };
        Self::recover(root, store, config, covered, manifest, opts)
    }

    /// Whether `root` holds a live memtable (manifest present).
    pub fn is_present(root: &Path) -> bool {
        MemtableManifest::path(root).is_file()
    }

    fn wal_path(root: &Path, seq: u64) -> PathBuf {
        root.join(MEMTABLE_DIR)
            .join(WAL_DIR)
            .join(wal::wal_file_name(seq))
    }

    fn recover(
        root: &Path,
        store: Store,
        config: IndexConfig,
        covered: u64,
        manifest: MemtableManifest,
        opts: IngestOptions,
    ) -> Result<Self, IndexError> {
        std::fs::create_dir_all(root.join(MEMTABLE_DIR).join(WAL_DIR))?;
        let hasher = config.hasher();
        let mut generator = WindowGenerator::new();
        let mut windows_buf = Vec::new();

        let mut frozen: Vec<MemSegment> = Vec::new();
        let mut expect = covered;
        let mut replayed: u64 = 0;
        let mut trimmed = manifest.trimmed_below;
        for seq in manifest.trimmed_below..manifest.active_wal {
            let path = Self::wal_path(root, seq);
            if !path.is_file() {
                return Err(IndexError::Malformed(format!(
                    "{}: WAL {seq} is missing but not trimmed; acked texts may be lost",
                    root.display()
                )));
            }
            let replay = wal::replay_wal(&path)?;
            let live: Vec<wal::WalRecord> = replay
                .records
                .into_iter()
                .filter(|r| r.text_id >= covered)
                .collect();
            if live.is_empty() {
                // Fully covered by the published list: the crash landed
                // between publish and trim. Finish the trim now.
                trimmed = seq + 1;
                continue;
            }
            if live[0].text_id != expect {
                return Err(IndexError::Malformed(format!(
                    "{}: WAL {seq} starts at text {} but {expect} was expected; \
                     acked texts were lost to corruption",
                    root.display(),
                    live[0].text_id
                )));
            }
            let mut seg = MemSegment::new(&config, seq, live[0].text_id);
            for record in &live {
                seg.insert(&hasher, &mut generator, &mut windows_buf, &record.tokens);
                expect = record.text_id + 1;
                replayed += 1;
            }
            frozen.push(seg);
        }

        // The active WAL: may not exist yet (crash between the rotation
        // manifest write and the file creation).
        let active_path = Self::wal_path(root, manifest.active_wal);
        let (writer, records) = if active_path.is_file() {
            wal::WalWriter::open(&active_path, manifest.active_wal, expect)?
        } else {
            (
                wal::WalWriter::create(&active_path, manifest.active_wal, expect)?,
                Vec::new(),
            )
        };
        let base = writer.header().base.max(covered);
        if base != expect {
            return Err(IndexError::Malformed(format!(
                "{}: active WAL starts at text {base} but {expect} was expected",
                root.display()
            )));
        }
        let mut active = MemSegment::new(&config, manifest.active_wal, expect);
        for record in &records {
            if record.text_id < covered {
                continue;
            }
            if record.text_id != expect {
                return Err(IndexError::Malformed(format!(
                    "{}: active WAL record {} out of order (expected {expect})",
                    root.display(),
                    record.text_id
                )));
            }
            active.insert(&hasher, &mut generator, &mut windows_buf, &record.tokens);
            expect = record.text_id + 1;
            replayed += 1;
        }
        replays_counter().inc(replayed);

        let mut ingest = IngestIndex {
            root: root.to_path_buf(),
            store,
            config,
            covered,
            manifest,
            writer,
            active,
            frozen,
            next_text: expect,
            appends_since_sync: 0,
            opts,
            hasher,
            generator,
            windows_buf,
        };
        // A compaction published but did not trim: settle the tail (a merge
        // the crash cut short is redone), then advance the watermark past
        // the covered WALs and sweep them (`Store::open` swept the rest).
        if trimmed != ingest.manifest.trimmed_below {
            ingest.merge_tail()?;
            ingest.manifest.trimmed_below = trimmed;
            ingest.manifest.save(root)?;
            crate::gc::gc_counter().inc(crate::gc::sweep_memtable(root));
        }
        ingest.publish_pending_gauge();
        Ok(ingest)
    }

    fn publish_pending_gauge(&self) {
        pending_gauge().set((self.next_text - self.covered).min(i64::MAX as u64) as i64);
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The template configuration (corpus counts zeroed).
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Texts the store's published list serves.
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Global id the next appended text will receive.
    pub fn next_text_id(&self) -> u64 {
        self.next_text
    }

    /// Texts held in memory (frozen + active), i.e. acked but not yet
    /// published.
    pub fn pending_texts(&self) -> u64 {
        self.next_text - self.covered
    }

    /// Segments awaiting compaction.
    pub fn frozen_segments(&self) -> usize {
        self.frozen.len()
    }

    /// All live segments in ascending text order (frozen, then active),
    /// empty segments skipped. The overlay searcher iterates these.
    pub fn segments(&self) -> impl Iterator<Item = &MemSegment> {
        self.frozen
            .iter()
            .chain(std::iter::once(&self.active))
            .filter(|s| !s.is_empty())
    }

    /// Appends one text: WAL frame first, then the in-memory postings.
    /// Returns the text's global id. The append is *acked* (durable) once
    /// a [`Self::sync`] covering it returns — which happens automatically
    /// every [`IngestOptions::fsync_every`] appends and at rotation.
    pub fn append(&mut self, tokens: &[TokenId]) -> Result<u64, IndexError> {
        if self.next_text >= u32::MAX as u64 {
            return Err(IndexError::Malformed(
                "text ids are exhausted (the corpus bound is u32)".to_string(),
            ));
        }
        let id = self.next_text;
        journal::tick_io(&self.opts.kill)?;
        let frame = self.writer.append_text(id, tokens)?;
        wal_bytes_counter().inc(frame);
        self.active.insert(
            &self.hasher,
            &mut self.generator,
            &mut self.windows_buf,
            tokens,
        );
        self.next_text += 1;
        texts_counter().inc(1);
        self.appends_since_sync += 1;
        if self.appends_since_sync >= self.opts.fsync_every.max(1) {
            self.sync()?;
        }
        if self.writer.len() >= self.opts.flush_bytes {
            self.rotate()?;
        }
        self.publish_pending_gauge();
        Ok(id)
    }

    /// Forces the WAL durable: every append so far is acked once this
    /// returns.
    pub fn sync(&mut self) -> Result<(), IndexError> {
        self.writer.sync()?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Freezes the active segment behind a new WAL. The frozen segment
    /// becomes eligible for [`Self::compact_once`]. No-op on an empty
    /// active segment.
    pub fn rotate(&mut self) -> Result<(), IndexError> {
        if self.active.is_empty() {
            return Ok(());
        }
        self.sync()?;
        journal::tick_checkpoint(&self.opts.kill)?;
        let next_seq = self.manifest.active_wal + 1;
        self.manifest.active_wal = next_seq;
        self.manifest.save(&self.root)?;
        journal::tick_checkpoint(&self.opts.kill)?;
        let writer = wal::WalWriter::create(
            &Self::wal_path(&self.root, next_seq),
            next_seq,
            self.next_text,
        )?;
        let old = std::mem::replace(
            &mut self.active,
            MemSegment::new(&self.config, next_seq, self.next_text),
        );
        self.writer = writer;
        self.frozen.push(old);
        Ok(())
    }

    /// Compacts the oldest frozen segment into the store: writes it into a
    /// fresh segment, publishes the list with that row appended, merges the
    /// runs `tail_run` picks, then trims the covering WAL. Returns `false`
    /// when no frozen segment is pending. Converges from any kill point —
    /// rerunning after a crash deterministically redoes the interrupted
    /// step.
    pub fn compact_once(&mut self) -> Result<bool, IndexError> {
        let Some(seg) = self.frozen.first() else {
            return Ok(false);
        };
        let _span = ndss_obs::span("ingest.compact");
        let kill = self.opts.kill.clone();
        let manifest = self.store.manifest()?;
        // An earlier attempt on this instance may have published the segment
        // and failed later: then only the tail and the trim are left.
        if manifest.num_texts() < seg.base() + seg.len() as u64 {
            // Steps 1–2: write the postings accumulated on append into a
            // fresh segment, then verify it and publish the list with it
            // appended. A crash in between leaves a directory no list names
            // and no journal holds; the next publish collects it.
            journal::tick_checkpoint(&kill)?;
            let dir = self.store.allocate()?;
            let index = &seg.index;
            build::write_lists(
                index.config(),
                |f| index.sorted_lists(f),
                &self.root.join(&dir),
            )?;
            journal::tick_checkpoint(&kill)?;
            let mut dirs = manifest.dirs();
            dirs.push(dir);
            self.store.publish(&dirs, self.opts.keep)?;
            compactions_counter().inc(1);
            journal::tick_checkpoint(&kill)?;
        }
        self.merge_tail()?;
        // Step 4: trim — watermark first (so a crash mid-delete is
        // finishable), then the WAL.
        let seg = self.frozen.remove(0);
        self.covered += seg.len() as u64;
        self.manifest.trimmed_below = seg.wal_seq() + 1;
        self.manifest.save(&self.root)?;
        journal::tick_checkpoint(&kill)?;
        std::fs::remove_file(Self::wal_path(&self.root, seg.wal_seq())).ok();
        journal::tick_checkpoint(&kill)?;
        self.publish_pending_gauge();
        Ok(true)
    }

    /// Step 3 of [`Self::compact_once`]: while [`tail_run`] picks a run,
    /// merge it into a freshly allocated segment and publish the list with
    /// the run replaced by it. A crash leaves an unlisted target with no
    /// journal, which the next publish collects; the run, still published,
    /// is merged again.
    fn merge_tail(&self) -> Result<(), IndexError> {
        let kill = &self.opts.kill;
        loop {
            let manifest = self.store.manifest()?;
            let rows: Vec<u64> = manifest.segments.iter().map(|s| s.num_texts).collect();
            let Some(first) = tail_run(&rows) else {
                return Ok(());
            };
            let mut dirs = manifest.dirs();
            let run = dirs.split_off(first);
            let run: Vec<PathBuf> = run.iter().map(|d| self.root.join(d)).collect();
            let run: Vec<&Path> = run.iter().map(PathBuf::as_path).collect();
            let target = self.store.allocate()?;
            journal::tick_checkpoint(kill)?;
            let options = MergeOptions { kill: kill.clone() };
            merge_indexes_with(&run, &self.root.join(&target), &options)?;
            journal::tick_checkpoint(kill)?;
            dirs.push(target);
            self.store.publish(&dirs, self.opts.keep)?;
            tail_merges_counter().inc(1);
            journal::tick_checkpoint(kill)?;
        }
    }

    /// Runs [`Self::compact_once`] until no frozen segment remains.
    pub fn compact_all(&mut self) -> Result<usize, IndexError> {
        let mut n = 0;
        while self.compact_once()? {
            n += 1;
        }
        Ok(n)
    }

    /// Rotates the active segment (if non-empty) and compacts everything:
    /// afterwards all acked texts are served from published segments and the
    /// memtable is empty.
    pub fn seal_all(&mut self) -> Result<usize, IndexError> {
        self.rotate()?;
        self.compact_all()
    }
}

// ---------------------------------------------------------------------------
// Offline verification
// ---------------------------------------------------------------------------

/// What `ndss verify --store` learned about a memtable.
#[derive(Debug)]
pub struct MemtableReport {
    /// WAL files walked.
    pub wal_files: usize,
    /// Valid frames across them.
    pub frames: u64,
    /// Texts not yet covered by the published list.
    pub pending_texts: u64,
    /// Whether any WAL carried a torn/corrupt tail (recoverable: the valid
    /// prefix stands).
    pub torn_tails: usize,
}

/// Walks the memtable of the store at `root`: manifest checksum, WAL frame
/// checksums, text-id monotonicity, and the trim watermark against the
/// published list. `Ok(None)` when the store has no memtable.
/// Violations of the durability contract (lost acked texts, watermark
/// beyond the active WAL, ids out of order) are errors; a torn tail is not
/// — it is exactly what recovery truncates.
pub fn verify_memtable(root: &Path) -> Result<Option<MemtableReport>, IndexError> {
    let Some((manifest, _)) = MemtableManifest::load(root)? else {
        return Ok(None);
    };
    let config = template(&IndexConfig::from_json(&manifest.config_json)?);
    if manifest.fingerprint != config_fingerprint(&config) {
        return Err(IndexError::Malformed(format!(
            "{}: manifest fingerprint does not match its embedded configuration",
            MemtableManifest::path(root).display()
        )));
    }
    let published = crate::Manifest::load(root)?.unwrap_or_default();
    if let Some(last) = published.segments.last() {
        let disk = DiskIndex::open(&root.join(&last.dir))?;
        if config_fingerprint(disk.config()) != manifest.fingerprint {
            return Err(IndexError::Malformed(format!(
                "{}: memtable configuration does not match the store's segments",
                root.display()
            )));
        }
    }
    let covered = published.num_texts();

    let mut report = MemtableReport {
        wal_files: 0,
        frames: 0,
        pending_texts: 0,
        torn_tails: 0,
    };
    let mut expect: Option<u64> = None;
    for seq in manifest.trimmed_below..=manifest.active_wal {
        let path = IngestIndex::wal_path(root, seq);
        if !path.is_file() {
            if seq == manifest.active_wal {
                continue; // not yet created: rotation crashed mid-way
            }
            return Err(IndexError::Malformed(format!(
                "WAL {seq} is missing but the trim watermark is {}",
                manifest.trimmed_below
            )));
        }
        report.wal_files += 1;
        let replay = wal::replay_wal(&path)?;
        let Some(header) = replay.header else {
            return Err(IndexError::Malformed(format!(
                "{}: unreadable WAL header",
                path.display()
            )));
        };
        if header.seq != seq {
            return Err(IndexError::Malformed(format!(
                "{}: header seq {} does not match its name",
                path.display(),
                header.seq
            )));
        }
        if replay.torn {
            report.torn_tails += 1;
        }
        for record in &replay.records {
            report.frames += 1;
            if let Some(e) = expect {
                if record.text_id != e {
                    return Err(IndexError::Malformed(format!(
                        "{}: text id {} out of order (expected {e})",
                        path.display(),
                        record.text_id
                    )));
                }
            } else if record.text_id > covered {
                return Err(IndexError::Malformed(format!(
                    "{}: first WAL text {} leaves a gap after the {covered} published texts",
                    path.display(),
                    record.text_id
                )));
            }
            expect = Some(record.text_id + 1);
            if record.text_id >= covered {
                report.pending_texts += 1;
            }
        }
    }
    // WALs below the watermark must be gone (the GC finishes interrupted
    // trims, so any straggler here means the watermark ran ahead of the
    // published segments).
    if let Some(last) = expect {
        if last < covered && manifest.trimmed_below > manifest.active_wal {
            return Err(IndexError::Malformed(
                "trim watermark is beyond the published segments".to_string(),
            ));
        }
    }
    Ok(Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryIndex;
    use ndss_corpus::{CorpusSource, InMemoryCorpus, SyntheticCorpusBuilder};

    fn temp_root(name: &str) -> PathBuf {
        let dir = crate::tests::test_root("ndss_ingest_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn texts(seed: u64, n: usize) -> Vec<Vec<TokenId>> {
        let (corpus, _) = SyntheticCorpusBuilder::new(seed)
            .num_texts(n)
            .text_len(40, 90)
            .vocab_size(300)
            .build();
        (0..corpus.num_texts() as TextId)
            .map(|i| corpus.text_to_vec(i).unwrap())
            .collect()
    }

    fn opts() -> IngestOptions {
        IngestOptions {
            fsync_every: 1,
            ..IngestOptions::default()
        }
    }

    /// The serving list's row sizes.
    fn rows(root: &Path) -> Vec<u64> {
        let manifest = Store::open(root).unwrap().manifest().unwrap();
        manifest.segments.iter().map(|s| s.num_texts).collect()
    }

    /// Merges the serving list of `root` into scratch and asserts that every
    /// file equals a batch build of `texts`.
    fn assert_serves_batch_build(context: &str, root: &Path, texts: &[Vec<TokenId>]) {
        let config = IngestIndex::open(root, None, opts())
            .unwrap()
            .config()
            .clone();
        let batch = temp_root(&format!("{context}_batch"));
        let corpus = InMemoryCorpus::from_texts(texts.to_vec());
        build::write_memory_index(
            &MemoryIndex::build(&corpus, config.clone()).unwrap(),
            &batch,
        )
        .unwrap();
        let merged = temp_root(&format!("{context}_merged"));
        let dirs = Store::open(root).unwrap().manifest().unwrap().dirs();
        let dirs: Vec<PathBuf> = dirs.iter().map(|d| root.join(d)).collect();
        let dirs: Vec<&Path> = dirs.iter().map(PathBuf::as_path).collect();
        crate::merge::merge_indexes(&dirs, &merged).unwrap();
        let names = (0..config.k)
            .map(|f| crate::disk::inv_file_path(Path::new(""), f))
            .chain([PathBuf::from(crate::disk::META_FILE)]);
        for name in names {
            assert_eq!(
                std::fs::read(merged.join(&name)).unwrap(),
                std::fs::read(batch.join(&name)).unwrap(),
                "{context}: {} differs from a batch build",
                name.display()
            );
        }
        std::fs::remove_dir_all(&batch).ok();
        std::fs::remove_dir_all(&merged).ok();
    }

    #[test]
    fn tail_rule_merges_a_suffix_in_threes() {
        for short in [&[][..], &[5], &[1, 1]] {
            assert_eq!(tail_run(short), None);
        }
        assert_eq!(tail_run(&[1, 1, 1]), Some(0));
        assert_eq!(tail_run(&[150, 4, 5, 4]), Some(1));
        // The oldest row of the run holds 3× a newer one: it waits.
        assert_eq!(tail_run(&[150, 12, 4, 4]), None);
        assert_eq!(tail_run(&[20, 20, 1]), None);
        // A small segment sealed early is absorbed, not stranded.
        assert_eq!(tail_run(&[36, 12, 1, 4, 4]), Some(2));
    }

    #[test]
    fn mem_segment_matches_memory_index() {
        let texts = texts(5, 12);
        let config = IndexConfig::new(3, 10, 7);
        let hasher = config.hasher();
        let mut generator = WindowGenerator::new();
        let mut buf = Vec::new();
        let mut seg = MemSegment::new(&config, 1, 0);
        for t in &texts {
            seg.insert(&hasher, &mut generator, &mut buf, t);
        }
        let reference =
            MemoryIndex::build(&InMemoryCorpus::from_texts(texts), config.clone()).unwrap();
        for func in 0..config.k {
            let want = reference.sorted_lists(func);
            assert_eq!(seg.index().keys_for_function(func), want.len());
            for (hash, postings) in want {
                assert_eq!(
                    seg.index().read_list(func, hash).unwrap().as_slice(),
                    postings,
                    "func {func} hash {hash:#x}"
                );
            }
        }
    }

    #[test]
    fn append_recover_roundtrip() {
        let root = temp_root("recover");
        let config = IndexConfig::new(2, 10, 3);
        let all = texts(6, 8);
        {
            let mut ingest = IngestIndex::open(&root, Some(config.clone()), opts()).unwrap();
            for t in &all {
                ingest.append(t).unwrap();
            }
            assert_eq!(ingest.pending_texts(), 8);
        }
        // Reopen: everything replays.
        let ingest = IngestIndex::open(&root, None, opts()).unwrap();
        assert_eq!(ingest.pending_texts(), 8);
        assert_eq!(ingest.next_text_id(), 8);
        let seg = ingest.segments().next().unwrap();
        assert_eq!(seg.texts(), all.as_slice());
    }

    /// Each compaction appends one row, written once; the third equal one
    /// makes the tail rule merge all three into one segment.
    #[test]
    fn compaction_publishes_and_trims() {
        let root = temp_root("compact");
        let config = IndexConfig::new(2, 10, 3);
        let all = texts(7, 12);
        let mut ingest = IngestIndex::open(&root, Some(config.clone()), opts()).unwrap();
        for (round, chunk) in all.chunks(4).enumerate() {
            for t in chunk {
                ingest.append(t).unwrap();
            }
            assert_eq!(ingest.seal_all().unwrap(), 1);
            assert_eq!(ingest.covered(), 4 * (round as u64 + 1));
            assert_eq!(ingest.pending_texts(), 0);
            let want: &[u64] = [&[4][..], &[4, 4], &[12]][round];
            assert_eq!(rows(&root), want, "round {round}");
            Store::open(&root).unwrap().verify().unwrap();
        }
        assert_serves_batch_build("compact", &root, &all);
        // No WAL below the watermark survives.
        for seq in 0..ingest.manifest.trimmed_below {
            assert!(!IngestIndex::wal_path(&root, seq).exists());
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// An attempt that fails *on this instance* (not a crash: the caller
    /// keeps the `IngestIndex` and calls again, as the daemon's compactor
    /// does) must converge from every kill point — including the windows
    /// after a publish, where the segment is on disk but still frozen in
    /// memory: the retry must not append it twice, nor merge into a
    /// segment that serves.
    #[test]
    fn retry_on_the_same_instance_converges_from_every_kill_point() {
        let config = IndexConfig::new(2, 10, 3).bit_packed(true);
        let all = texts(12, 9);
        let prepared = |name: &str, kill: Option<Arc<KillPoints>>| {
            let root = temp_root(name);
            let mut ingest = IngestIndex::open(&root, Some(config.clone()), opts()).unwrap();
            for chunk in all[..6].chunks(3) {
                for t in chunk {
                    ingest.append(t).unwrap();
                }
                ingest.seal_all().unwrap();
            }
            for t in &all[6..] {
                ingest.append(t).unwrap();
            }
            ingest.rotate().unwrap();
            ingest.opts.kill = kill;
            (root, ingest)
        };
        let counter = KillPoints::count_only();
        let (root, mut ingest) = prepared("retry_count", Some(counter.clone()));
        assert!(ingest.compact_once().unwrap());
        assert_eq!(rows(&root), [9], "the compaction merges the tail");
        std::fs::remove_dir_all(&root).ok();

        for n in 0..counter.checkpoints_seen() {
            let (root, mut ingest) = prepared("retry", Some(KillPoints::at_checkpoint(n)));
            assert!(ingest.compact_once().is_err(), "kill point {n}");
            ingest.opts.kill = None;
            ingest.compact_all().unwrap();
            assert_eq!(ingest.covered(), all.len() as u64, "kill point {n}");
            assert_eq!(ingest.frozen_segments(), 0, "kill point {n}");
            assert_eq!(rows(&root), [9], "kill point {n}");
            assert_serves_batch_build(&format!("retry {n}"), &root, &all);
            std::fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn compacted_store_equals_batch_build() {
        let root = temp_root("equals_batch");
        let config = IndexConfig::new(3, 10, 11).bit_packed(true);
        let all = texts(8, 14);
        let mut ingest = IngestIndex::open(&root, Some(config.clone()), opts()).unwrap();
        for t in &all[..7] {
            ingest.append(t).unwrap();
        }
        ingest.seal_all().unwrap();
        for t in &all[7..] {
            ingest.append(t).unwrap();
        }
        ingest.seal_all().unwrap();
        assert_eq!(rows(&root), [7, 7]);
        assert_serves_batch_build("equals_batch", &root, &all);
        std::fs::remove_dir_all(&root).ok();
    }

    /// What a compaction written before merges were redone left when it
    /// crashed mid-merge into the directory `target`: a `merge` journal
    /// there, and a memtable manifest whose `compact_gen` names it.
    fn leave_a_legacy_merge_pointer(root: &Path, target: &str) {
        let journal = ObjectBuilder::new()
            .field("kind", Json::Str("merge".into()))
            .field("fingerprint", Json::UInt(1))
            .field("funcs_done", Json::Array(vec![Json::UInt(0)]))
            .build();
        record::save(
            &crate::journal::BuildJournal::path(&root.join(target)),
            journal,
        )
        .unwrap();
        let (m, _) = MemtableManifest::load(root).unwrap().unwrap();
        let manifest = ObjectBuilder::new()
            .field("version", Json::UInt(1))
            .field("fingerprint", Json::UInt(m.fingerprint))
            .field("config", Json::Str(m.config_json))
            .field("active_wal", Json::UInt(m.active_wal))
            .field("trimmed_below", Json::UInt(m.trimmed_below))
            .field("compact_gen", Json::Str(target.into()))
            .build();
        record::save(&MemtableManifest::path(root), manifest).unwrap();
        assert_eq!(MemtableManifest::load(root).unwrap().unwrap().1, target);
    }

    /// Whether the memtable manifest on disk names no merge target.
    fn carries_no_pointer(root: &Path) -> bool {
        let doc = record::load(&MemtableManifest::path(root))
            .unwrap()
            .unwrap();
        doc.get("compact_gen").is_none()
    }

    /// Every `seg-*` under `root` that no list of the store names.
    fn unlisted(root: &Path) -> Vec<String> {
        Store::open(root).unwrap().unpublished().unwrap()
    }

    /// The files of each serving segment, in text order (names aside).
    fn serving_files(root: &Path) -> Vec<Vec<(String, Vec<u8>)>> {
        let dirs = Store::open(root).unwrap().manifest().unwrap().dirs();
        dirs.iter()
            .map(|dir| {
                let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
                    .unwrap()
                    .map(|e| e.unwrap())
                    .map(|e| (e.file_name().into_string().unwrap(), e.path()))
                    .map(|(name, path)| (name, std::fs::read(path).unwrap()))
                    .collect();
                files.sort();
                files
            })
            .collect()
    }

    /// A manifest written before merges were redone, whose `compact_gen`
    /// names a journaled, half-merged target, with the compaction's WAL
    /// covered (published, not trimmed). Recovery deletes the target once,
    /// rewrites the manifest without the pointer, merges the run again and
    /// trims: the store serves what an uninterrupted run serves, and no
    /// `seg-*` is left unlisted.
    #[test]
    fn a_legacy_merge_pointer_is_deleted_and_the_merge_redone() {
        let config = IndexConfig::new(3, 10, 5).bit_packed(true);
        let all = texts(14, 9);
        let drive = |root: &Path, last: Option<Arc<KillPoints>>| {
            let mut ingest = IngestIndex::open(root, Some(config.clone()), opts()).unwrap();
            for (i, chunk) in all.chunks(3).enumerate() {
                for t in chunk {
                    ingest.append(t).unwrap();
                }
                ingest.rotate().unwrap();
                if i == 2 {
                    ingest.opts.kill = last.clone();
                }
                if ingest.compact_all().is_err() {
                    return;
                }
            }
        };
        let whole = temp_root("legacy_whole");
        drive(&whole, None);
        assert_eq!(rows(&whole), [9]);

        // Checkpoint 2 of a compaction follows its publish: the third row
        // serves, its WAL is covered, and the tail merge has not started.
        let root = temp_root("legacy");
        drive(&root, Some(KillPoints::at_checkpoint(2)));
        assert_eq!(rows(&root), [3, 3, 3]);
        let store = Store::open(&root).unwrap();
        let run = store.manifest().unwrap().dirs();
        let run: Vec<PathBuf> = run.iter().map(|d| root.join(d)).collect();
        let run: Vec<&Path> = run.iter().map(PathBuf::as_path).collect();
        let target = store.allocate().unwrap();
        let crash = MergeOptions::new().kill_points(KillPoints::at_checkpoint(1));
        assert!(merge_indexes_with(&run, &root.join(&target), &crash).is_err());
        leave_a_legacy_merge_pointer(&root, &target);
        assert_eq!(unlisted(&root), [target.as_str()]);

        let ingest = IngestIndex::open(&root, None, opts()).unwrap();
        assert_eq!((ingest.covered(), ingest.pending_texts()), (9, 0));
        assert!(
            carries_no_pointer(&root),
            "the rewritten manifest names no target"
        );
        assert!(
            unlisted(&root).is_empty(),
            "{:?} left unlisted",
            unlisted(&root)
        );
        assert!(serving_files(&root) == serving_files(&whole));
        for r in [root, whole] {
            std::fs::remove_dir_all(&r).ok();
        }
    }

    /// The state a compaction that staged the memtable in `memtable/seal-S/`
    /// and merged it into the store's last segment left when it crashed
    /// mid-merge: a pointer to the half-merged target, a journal for the
    /// inputs (last segment, seal), and the seal. Recovery discards the
    /// target, the frozen segment is appended as a row of its own, and the
    /// seal is swept once its WAL is trimmed.
    #[test]
    fn a_crashed_merge_into_the_last_segment_recovers() {
        let root = temp_root("staged");
        let config = IndexConfig::new(3, 10, 5).bit_packed(true);
        let all = texts(13, 9);
        let seq = {
            let mut ingest = IngestIndex::open(&root, Some(config.clone()), opts()).unwrap();
            for t in &all[..5] {
                ingest.append(t).unwrap();
            }
            ingest.seal_all().unwrap();
            for t in &all[5..] {
                ingest.append(t).unwrap();
            }
            ingest.rotate().unwrap();
            ingest.frozen[0].wal_seq()
        };
        let seal = root.join(MEMTABLE_DIR).join(format!("seal-{seq:06}"));
        let staged = InMemoryCorpus::from_texts(all[5..].to_vec());
        build::write_memory_index(&MemoryIndex::build(&staged, config).unwrap(), &seal).unwrap();
        let store = Store::open(&root).unwrap();
        let last = root.join(&store.manifest().unwrap().segments[0].dir);
        let target = store.allocate().unwrap();
        let crash = MergeOptions::new().kill_points(KillPoints::at_checkpoint(1));
        assert!(merge_indexes_with(&[&last, &seal], &root.join(&target), &crash).is_err());
        leave_a_legacy_merge_pointer(&root, &target);

        let mut ingest = IngestIndex::open(&root, None, opts()).unwrap();
        assert!(carries_no_pointer(&root));
        assert!(
            !root.join(&target).exists(),
            "the half-merged target is gone"
        );
        assert_eq!((ingest.covered(), ingest.frozen_segments()), (5, 1));
        assert_eq!(ingest.compact_all().unwrap(), 1);
        assert_eq!(rows(&root), [5, 4]);
        drop(ingest);
        Store::open(&root).unwrap();
        assert!(!seal.exists(), "the trimmed seal is swept on open");
        assert_serves_batch_build("staged", &root, &all);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let root = temp_root("mismatch");
        {
            let mut ingest =
                IngestIndex::open(&root, Some(IndexConfig::new(2, 10, 3)), opts()).unwrap();
            ingest.append(&[1, 2, 3, 4, 5]).unwrap();
        }
        // A store with a memtable remembers its configuration even with no
        // segment yet; the parameter is ignored on reopen.
        let ingest = IngestIndex::open(&root, Some(IndexConfig::new(4, 8, 9)), opts()).unwrap();
        assert_eq!(ingest.config().k, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn verify_walks_a_healthy_memtable() {
        let root = temp_root("verify");
        let mut ingest =
            IngestIndex::open(&root, Some(IndexConfig::new(2, 10, 3)), opts()).unwrap();
        for t in texts(9, 5) {
            ingest.append(&t).unwrap();
        }
        let report = verify_memtable(&root).unwrap().unwrap();
        assert_eq!(report.pending_texts, 5);
        assert_eq!(report.frames, 5);
        assert_eq!(report.torn_tails, 0);
        std::fs::remove_dir_all(&root).ok();
    }
}
