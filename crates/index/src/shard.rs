//! Sharded stores: the corpus partitioned by text-id range into
//! independent generational stores under one root, tied together by a
//! checksummed, atomically published shard `MANIFEST`.
//!
//! A [`crate::GenerationStore`] scales one index through its lifecycle;
//! a [`ShardedStore`] scales the *corpus*: texts `[0, N)` are split into
//! contiguous ranges, each indexed on its own (bounded per-shard build
//! memory, shards built in parallel) and each living in its own
//! `shard-NNNN/` generation store with the usual `gen-NNNN/` + `CURRENT`
//! lifecycle:
//!
//! ```text
//! store/
//! ├── MANIFEST            ← shard partition + serving generations + view generation
//! ├── shard-0000/         ← a GenerationStore for texts [0, 512)
//! │   ├── CURRENT  gen-0000/ …
//! └── shard-0001/         ← a GenerationStore for texts [512, 1024)
//!     ├── CURRENT  gen-0000/ …
//! ```
//!
//! The `MANIFEST` is the readers' source of truth. It records, for every
//! shard, the text-id range it covers and the generation it serves, plus a
//! monotonically increasing **view generation** bumped on every publish or
//! rollback. Like the build journal it carries a CRC-32C over its own
//! serialization and is published with [`ndss_durable::write_atomic`]:
//! readers observe either the previous complete view or the next one,
//! never a torn or half-updated cross-shard view. Per-shard `CURRENT`
//! pointers still move (so per-shard tooling keeps working), but a
//! multi-shard publish only becomes visible to readers when the single
//! manifest rename lands — all shards or none.
//!
//! Because shards partition the corpus by *text id*, a query fanned out
//! across shards returns per-text span matches whose global ids are the
//! shard-local ids plus the shard's `first_text` offset, and concatenating
//! per-shard results in shard order yields exactly the single-index result
//! in ascending text order. That identity is what `tests/sharded_exactness`
//! pins against the one-index oracle.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ndss_corpus::{CorpusSlice, CorpusSource, TextId};
use ndss_json::{Json, ObjectBuilder};

use crate::build::{build_and_write, ExternalIndexBuilder, DEFAULT_MEMORY_BUDGET};
use crate::generation::GenerationStore;
use crate::journal::{self, KillPoints};
use crate::{record, DiskIndex, IndexAccess, IndexConfig, IndexError};

/// File in the store root holding the shard manifest.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Manifest format version this build reads and writes.
pub const MANIFEST_VERSION: u64 = 1;

/// Directory name for shard `i`.
pub fn shard_name(i: usize) -> String {
    format!("shard-{i:04}")
}

/// Parses `shard-NNNN` (≥ 4 digits, no other decoration) to its number.
pub fn parse_shard_name(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("shard-")?;
    if digits.len() < 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One shard's entry in the manifest: the text-id range it covers and the
/// generation it currently serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Directory name (`shard-NNNN`).
    pub name: String,
    /// First global text id covered by this shard.
    pub first_text: TextId,
    /// Number of texts in this shard's range.
    pub num_texts: u64,
    /// Serving generation name (`gen-NNNN`), `None` before first publish.
    pub serving: Option<String>,
}

/// The checksummed shard manifest: partition, serving generations, and the
/// all-or-nothing view generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Monotonically increasing cross-shard view generation; bumped once
    /// per publish/rollback, never per shard.
    pub generation: u64,
    /// Per-shard entries, ascending by `first_text`, covering `[0, N)`
    /// contiguously.
    pub shards: Vec<ShardSpec>,
}

impl ShardManifest {
    /// Path of the manifest inside store root `root`.
    pub fn path(root: &Path) -> PathBuf {
        root.join(MANIFEST_FILE)
    }

    /// Total texts across all shards.
    pub fn num_texts(&self) -> u64 {
        self.shards.iter().map(|s| s.num_texts).sum()
    }

    /// Atomically publishes the manifest to `root` (temp file, fsync,
    /// rename, directory sync): readers see the old view or the new one,
    /// never a torn file.
    pub fn save(&self, root: &Path) -> Result<(), IndexError> {
        let payload = ObjectBuilder::new()
            .field("version", Json::UInt(MANIFEST_VERSION))
            .field("generation", Json::UInt(self.generation))
            .field(
                "shards",
                Json::Array(
                    self.shards
                        .iter()
                        .map(|s| {
                            let mut b = ObjectBuilder::new()
                                .field("name", Json::Str(s.name.clone()))
                                .field("first_text", Json::UInt(s.first_text as u64))
                                .field("num_texts", Json::UInt(s.num_texts));
                            b = match &s.serving {
                                Some(g) => b.field("serving", Json::Str(g.clone())),
                                None => b.field("serving", Json::Null),
                            };
                            b.build()
                        })
                        .collect(),
                ),
            )
            .build();
        record::save(&Self::path(root), payload)
    }

    /// Loads the manifest from `root`. `Ok(None)` when absent; a
    /// present-but-corrupt manifest (bad JSON, CRC mismatch, incoherent
    /// partition) is an error — serving from it would be guessing which
    /// texts live where.
    pub fn load(root: &Path) -> Result<Option<Self>, IndexError> {
        let path = Self::path(root);
        let Some(doc) = record::load(&path)? else {
            return Ok(None);
        };
        let malformed = |what: &str| IndexError::Malformed(format!("{}: {what}", path.display()));
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| malformed("missing version"))?;
        if version != MANIFEST_VERSION {
            return Err(malformed(&format!(
                "unsupported manifest version {version}"
            )));
        }
        let generation = doc
            .get("generation")
            .and_then(Json::as_u64)
            .ok_or_else(|| malformed("missing generation"))?;
        let raw_shards = doc
            .get("shards")
            .and_then(Json::as_array)
            .ok_or_else(|| malformed("missing shards"))?;
        if raw_shards.is_empty() {
            return Err(malformed("no shards"));
        }
        let mut shards = Vec::with_capacity(raw_shards.len());
        let mut next_first: u64 = 0;
        for (i, raw) in raw_shards.iter().enumerate() {
            let name = raw
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| malformed("shard missing name"))?
                .to_string();
            if parse_shard_name(&name) != Some(i) {
                return Err(malformed(&format!(
                    "shard {i} named {name:?} (expected {:?})",
                    shard_name(i)
                )));
            }
            let first_text = raw
                .get("first_text")
                .and_then(Json::as_u64)
                .ok_or_else(|| malformed("shard missing first_text"))?;
            let num_texts = raw
                .get("num_texts")
                .and_then(Json::as_u64)
                .ok_or_else(|| malformed("shard missing num_texts"))?;
            // The ranges must tile [0, N) in order: anything else means two
            // shards claim a text or a text has no home.
            if first_text != next_first {
                return Err(malformed(&format!(
                    "shard {i} covers texts from {first_text}, expected {next_first} \
                     (ranges must be contiguous)"
                )));
            }
            if first_text > TextId::MAX as u64 {
                return Err(malformed("first_text exceeds text-id space"));
            }
            next_first = first_text + num_texts;
            let serving = match raw.get("serving") {
                None | Some(Json::Null) => None,
                Some(Json::Str(s)) => Some(s.clone()),
                Some(_) => return Err(malformed("shard serving is not a string")),
            };
            shards.push(ShardSpec {
                name,
                first_text: first_text as TextId,
                num_texts,
                serving,
            });
        }
        Ok(Some(ShardManifest { generation, shards }))
    }
}

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

/// A sharded store rooted at one directory; see the module docs for the
/// layout and publication semantics.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    root: PathBuf,
    manifest: ShardManifest,
}

impl ShardedStore {
    /// Whether `path` is a sharded store (has a `MANIFEST`).
    pub fn is_sharded(path: &Path) -> bool {
        ShardManifest::path(path).is_file()
    }

    /// Creates a store at `root` partitioned as `ranges` (from
    /// [`partition_texts`]), or opens the existing one — in which case the
    /// recorded partition must match `ranges` exactly: resuming a build
    /// against a different split would interleave texts across shards.
    pub fn create(root: &Path, ranges: &[(TextId, u64)]) -> Result<Self, IndexError> {
        std::fs::create_dir_all(root)?;
        if let Some(manifest) = ShardManifest::load(root)? {
            let recorded: Vec<(TextId, u64)> = manifest
                .shards
                .iter()
                .map(|s| (s.first_text, s.num_texts))
                .collect();
            if recorded != ranges {
                return Err(IndexError::Malformed(format!(
                    "{}: existing manifest partitions {} texts into {} shards, \
                     which does not match the requested partition",
                    root.display(),
                    manifest.num_texts(),
                    manifest.shards.len()
                )));
            }
            return Ok(Self {
                root: root.to_path_buf(),
                manifest,
            });
        }
        let shards: Vec<ShardSpec> = ranges
            .iter()
            .enumerate()
            .map(|(i, &(first_text, num_texts))| ShardSpec {
                name: shard_name(i),
                first_text,
                num_texts,
                serving: None,
            })
            .collect();
        let manifest = ShardManifest {
            generation: 0,
            shards,
        };
        manifest.save(root)?;
        for spec in &manifest.shards {
            std::fs::create_dir_all(root.join(&spec.name))?;
        }
        Ok(Self {
            root: root.to_path_buf(),
            manifest,
        })
    }

    /// Opens an existing sharded store; errors when no (valid) manifest is
    /// present.
    pub fn open(root: &Path) -> Result<Self, IndexError> {
        let manifest = ShardManifest::load(root)?.ok_or_else(|| {
            IndexError::Malformed(format!(
                "{}: not a sharded store (no MANIFEST)",
                root.display()
            ))
        })?;
        Ok(Self {
            root: root.to_path_buf(),
            manifest,
        })
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The manifest as last loaded or published by this handle.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.manifest.shards.len()
    }

    /// Root directory of shard `i`'s generation store.
    pub fn shard_root(&self, i: usize) -> PathBuf {
        self.root.join(&self.manifest.shards[i].name)
    }

    /// Opens shard `i`'s generation store (running its GC sweep).
    pub fn shard_store(&self, i: usize) -> Result<GenerationStore, IndexError> {
        GenerationStore::open(&self.shard_root(i))
    }

    /// The directory shard `i` serves from per the manifest, or an error
    /// when the shard has never been published.
    pub fn serving_dir(&self, i: usize) -> Result<PathBuf, IndexError> {
        let spec = &self.manifest.shards[i];
        match &spec.serving {
            Some(gen) => Ok(self.root.join(&spec.name).join(gen)),
            None => Err(IndexError::Malformed(format!(
                "shard {} has no published generation",
                spec.name
            ))),
        }
    }

    /// Publishes generation `name` in shard `i` and bumps the view
    /// generation: per-shard verify + `CURRENT` move first, manifest
    /// rename last, so readers switch views atomically.
    pub fn publish_shard(&mut self, i: usize, name: &str, keep: usize) -> Result<(), IndexError> {
        self.shard_store(i)?.publish(name, keep.max(1))?;
        self.manifest.shards[i].serving = Some(name.to_string());
        self.manifest.generation += 1;
        self.manifest.save(&self.root)
    }

    /// Publishes one generation per shard (`names[i]` into shard `i`) with
    /// a single view-generation bump at the end. Every generation is
    /// verified (full checksum walk) and its shard's `CURRENT` moved
    /// before the manifest is rewritten; a failure in any shard leaves the
    /// manifest — and therefore every reader's view — on the previous
    /// complete generation set. `keep` is clamped to ≥ 1 so the
    /// generations the still-unbumped manifest references cannot be pruned
    /// out from under readers.
    pub fn publish_all(&mut self, names: &[String], keep: usize) -> Result<(), IndexError> {
        if names.len() != self.num_shards() {
            return Err(IndexError::Malformed(format!(
                "publish_all: {} generation names for {} shards",
                names.len(),
                self.num_shards()
            )));
        }
        for (i, name) in names.iter().enumerate() {
            self.shard_store(i)?.publish(name, keep.max(1))?;
        }
        for (spec, name) in self.manifest.shards.iter_mut().zip(names) {
            spec.serving = Some(name.clone());
        }
        self.manifest.generation += 1;
        self.manifest.save(&self.root)
    }

    /// Rolls shard `i` back to `to` (or its newest older complete
    /// generation) and bumps the view generation. Returns the generation
    /// name rolled back to.
    pub fn rollback_shard(&mut self, i: usize, to: Option<&str>) -> Result<String, IndexError> {
        let target = self.shard_store(i)?.rollback(to)?;
        self.manifest.shards[i].serving = Some(target.clone());
        self.manifest.generation += 1;
        self.manifest.save(&self.root)?;
        Ok(target)
    }

    /// End-to-end integrity check: manifest already validated on open;
    /// every shard's serving generation is opened and put through the full
    /// `verify_integrity` checksum walk, and its index must cover exactly
    /// the text range the manifest assigns it. The first failure is
    /// returned (per-shard reporting lives in `ndss verify`).
    pub fn verify(&self) -> Result<(), IndexError> {
        for i in 0..self.num_shards() {
            self.verify_shard(i)?;
        }
        Ok(())
    }

    /// [`Self::verify`] for one shard.
    pub fn verify_shard(&self, i: usize) -> Result<(), IndexError> {
        let spec = &self.manifest.shards[i];
        let dir = self.serving_dir(i)?;
        let index = DiskIndex::open(&dir)
            .map_err(|e| IndexError::Malformed(format!("shard {}: {e}", spec.name)))?;
        index
            .verify_integrity()
            .map_err(|e| IndexError::Malformed(format!("shard {}: {e}", spec.name)))?;
        let indexed = index.config().num_texts as u64;
        if indexed != spec.num_texts {
            return Err(IndexError::Malformed(format!(
                "shard {}: serving generation indexes {indexed} texts but the manifest \
                 assigns it {}",
                spec.name, spec.num_texts
            )));
        }
        Ok(())
    }

    /// Cheap health probe for shard `i`: re-opens the serving generation
    /// (which validates every section header and the config CRC) and
    /// cross-checks the manifest's text assignment, without walking the
    /// full content checksums. A prober runs this first and escalates to
    /// [`Self::verify_shard`] only when it passes.
    pub fn spot_check_shard(&self, i: usize) -> Result<(), IndexError> {
        let spec = &self.manifest.shards[i];
        let dir = self.serving_dir(i)?;
        let index = DiskIndex::open(&dir)
            .map_err(|e| IndexError::Malformed(format!("shard {}: {e}", spec.name)))?;
        let indexed = index.config().num_texts as u64;
        if indexed != spec.num_texts {
            return Err(IndexError::Malformed(format!(
                "shard {}: serving generation indexes {indexed} texts but the manifest \
                 assigns it {}",
                spec.name, spec.num_texts
            )));
        }
        Ok(())
    }
}

/// Knobs for [`build_sharded`]; `Default` is an in-memory build, one
/// cross-shard worker per core, keep 1.
#[derive(Clone)]
pub struct ShardedBuildOptions {
    /// Use the journaled external (out-of-core) builder per shard.
    pub external: bool,
    /// Per-shard memory budget for external builds.
    pub memory_budget: usize,
    /// Resume interrupted shard builds: shards whose journal survives
    /// continue from it, shards that already completed are reused as-is.
    pub resume: bool,
    /// Generations retained per shard after publish (clamped to ≥ 1).
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
            keep: 0,
            threads: 0,
            kill: None,
        }
    }
}

/// Builds (or resumes) a sharded index over `corpus` at `root` with
/// `num_shards` shards, then publishes every shard with one all-or-nothing
/// manifest bump. Shards build in parallel on the `ndss-parallel` pool;
/// each shard indexes its text range through [`CorpusSlice`], so its
/// shard-local ids start at 0 and readers add `first_text` back at merge
/// time.
pub fn build_sharded<C: CorpusSource + ?Sized>(
    corpus: &C,
    config: IndexConfig,
    root: &Path,
    num_shards: usize,
    opts: &ShardedBuildOptions,
) -> Result<ShardedStore, IndexError> {
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
    let mut store = ShardedStore::create(root, &ranges)?;
    let workers = journal::threads_under(
        &opts.kill,
        match opts.threads {
            0 => ndss_parallel::default_threads().min(num_shards),
            n => n.min(num_shards),
        },
    );
    let intra_parallel = workers <= 1;
    let shard_ids: Vec<usize> = (0..num_shards).collect();
    let names: Vec<String> = ndss_parallel::try_map(&shard_ids, workers, |_, &i| {
        build_one_shard(corpus, config.clone(), &store, i, intra_parallel, opts)
    })?;
    store.publish_all(&names, opts.keep)?;
    Ok(store)
}

/// Builds shard `i` into a fresh (or resumed) generation and returns the
/// generation name, without publishing.
fn build_one_shard<C: CorpusSource + ?Sized>(
    corpus: &C,
    config: IndexConfig,
    store: &ShardedStore,
    i: usize,
    intra_parallel: bool,
    opts: &ShardedBuildOptions,
) -> Result<String, IndexError> {
    let (first, len) = (
        store.manifest().shards[i].first_text,
        store.manifest().shards[i].num_texts as usize,
    );
    let slice = CorpusSlice::new(corpus, first, len);
    let gen_store = store.shard_store(i)?;
    let current = gen_store.current()?;
    let mut resume_journal = false;
    let build_dir = if opts.resume {
        if let Some(info) = gen_store.resumable()? {
            resume_journal = true;
            gen_store.root().join(info.name)
        } else if let Some(done) = gen_store
            .generations()?
            .into_iter()
            .rev()
            .find(|info| info.complete && current.as_deref() != Some(info.name.as_str()))
        {
            // This shard finished before the previous run was killed: its
            // generation is complete but unpublished. Reuse it unchanged
            // (after checking it really is the requested build) so resume
            // is byte-identical per shard.
            let dir = gen_store.root().join(&done.name);
            let built = DiskIndex::open(&dir)?;
            let bc = built.config();
            if (bc.k, bc.t, bc.seed) != (config.k, config.t, config.seed)
                || bc.compress != config.compress
                || bc.packed != config.packed
            {
                return Err(IndexError::Malformed(format!(
                    "shard {}: completed generation {} was built with different \
                     parameters than this resume",
                    shard_name(i),
                    done.name
                )));
            }
            return Ok(done.name);
        } else {
            gen_store.allocate()?
        }
    } else {
        gen_store.allocate()?
    };
    if opts.external {
        let mut builder = ExternalIndexBuilder::new(config)
            .memory_budget(opts.memory_budget)
            .parallel(intra_parallel)
            .resume(resume_journal);
        if let Some(kill) = &opts.kill {
            builder = builder.kill_points(kill.clone());
        }
        builder.build(&slice, &build_dir)?;
    } else {
        build_and_write(&slice, config, &build_dir, intra_parallel)?;
    }
    Ok(build_dir
        .file_name()
        .and_then(|n| n.to_str())
        .map(str::to_string)
        .expect("generation directory has a utf-8 name"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndss_corpus::InMemoryCorpus;

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
    fn manifest_round_trips_and_rejects_corruption() {
        let root = temp("manifest_roundtrip");
        let manifest = ShardManifest {
            generation: 3,
            shards: vec![
                ShardSpec {
                    name: shard_name(0),
                    first_text: 0,
                    num_texts: 5,
                    serving: Some("gen-0001".into()),
                },
                ShardSpec {
                    name: shard_name(1),
                    first_text: 5,
                    num_texts: 5,
                    serving: None,
                },
            ],
        };
        manifest.save(&root).unwrap();
        assert_eq!(ShardManifest::load(&root).unwrap().unwrap(), manifest);

        // Flip one byte: the CRC must catch it.
        let path = ShardManifest::path(&root);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(ShardManifest::load(&root).is_err());
    }

    #[test]
    fn build_publish_verify_lifecycle() {
        let root = temp("lifecycle");
        let corpus = tiny_corpus();
        let config = IndexConfig::new(4, 8, 11);
        let store =
            build_sharded(&corpus, config, &root, 3, &ShardedBuildOptions::default()).unwrap();
        assert_eq!(store.num_shards(), 3);
        assert_eq!(store.manifest().generation, 1);
        assert_eq!(store.manifest().num_texts(), 10);
        store.verify().unwrap();
        for i in 0..3 {
            assert!(store.serving_dir(i).unwrap().join("meta.json").is_file());
        }
    }

    #[test]
    fn create_rejects_a_different_partition() {
        let root = temp("partition_mismatch");
        let ranges = partition_texts(10, 2);
        ShardedStore::create(&root, &ranges).unwrap();
        let other = partition_texts(12, 2);
        assert!(ShardedStore::create(&root, &other).is_err());
    }
}
