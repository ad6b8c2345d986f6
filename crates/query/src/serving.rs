//! Hot-swappable serving: queries against a store with zero-downtime
//! `reload()`.
//!
//! A searcher borrows its index for a lifetime, which is the right shape
//! for one-shot evaluation runs but cannot swap the index out from under
//! live traffic. [`ServingIndex`] closes that gap: it owns the current
//! view behind an `Arc` and re-resolves the store on
//! [`ServingIndex::reload`]. The view is a [`ShardedIndex`] — a plain
//! directory is simply the one-segment case — so the whole serving stack
//! runs one path. Queries *pin* a snapshot for their entire execution
//! (`serving.snapshot().searcher_with_filter(filter)?…`: the lane set
//! borrows the pinned `Arc`) — a batch runs start to finish against one
//! view, so no query ever observes postings from two manifest
//! generations — while new queries arriving after a reload see the new
//! view immediately. The old view's memory and file handles drop when its
//! last in-flight query finishes (plain `Arc` reference counting; there is
//! no explicit drain step to get wrong).
//!
//! The resolved identity is the whole `(manifest generation, segment
//! directories)` tuple read from the single atomically-published
//! `MANIFEST` — one file is the snapshot — so a reload racing a publish
//! can never assemble a torn view: it either sees the old list or the new
//! one.
//!
//! Observability: the `index.generation` gauge tracks the serving view
//! generation (0 for a plain directory) and the `index.reloads` counter
//! every completed swap. A multi-segment view additionally exports
//! `index.shard.generation{shard="N"}`: the `seg-NNNN` number lane N
//! serves. The unlabeled gauge is process-wide and **last-writer-wins**:
//! when two [`ServingIndex`]es live in one process (e.g. tests), whichever
//! opened or reloaded most recently owns the exported value. Generation
//! numbers above `i64::MAX` are clamped rather than wrapped.

use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use ndss_index::{resolve_segments, CacheConfig, ReadOptions};

use crate::breaker::BreakerConfig;
use crate::sharded::{segment_of, ShardedIndex};
use crate::QueryError;

/// Everything [`ServingIndex`] needs to (re)open a view: cache sizing,
/// read options, and breaker tuning — all applied to every shard of every
/// view the handle ever opens, including across reloads.
#[derive(Clone, Default)]
pub struct ServingOptions {
    /// Per-generation cache sizing.
    pub cache: CacheConfig,
    /// Read options: (in tests) a fault plan.
    pub io: ReadOptions,
    /// Per-shard circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

/// An index handle that can be atomically re-pointed at a new view (a new
/// manifest generation) while queries are in flight.
pub struct ServingIndex {
    /// Store root (or plain index directory) reloads re-resolve.
    path: PathBuf,
    options: ServingOptions,
    /// The view new queries pin. It carries its own identity (directories
    /// and view generation), so a pinned `Arc` and the generation reported
    /// for it can never disagree, whatever reload lands in between.
    view: RwLock<Arc<ShardedIndex>>,
    generation_gauge: ndss_obs::Gauge,
    reload_counter: ndss_obs::Counter,
}

impl ServingIndex {
    /// Opens the index at `path` — a store (its manifest's serving list)
    /// or a plain index directory.
    pub fn open(path: &Path) -> Result<Self, QueryError> {
        Self::open_with_options(path, ServingOptions::default())
    }

    /// [`Self::open`] with explicit cache sizing. Each segment of each view
    /// gets its own caches — postings cached under one view must not be
    /// served under another. Callers outside the ledger use
    /// [`Self::open_with_options`].
    #[doc(hidden)]
    pub fn open_with_cache(path: &Path, cache: CacheConfig) -> Result<Self, QueryError> {
        Self::open_with_options(
            path,
            ServingOptions {
                cache,
                ..ServingOptions::default()
            },
        )
    }

    /// [`Self::open`] with full serving options (cache sizing, read
    /// options, breaker tuning); all apply to every view this handle ever
    /// opens, including across reloads.
    pub fn open_with_options(path: &Path, options: ServingOptions) -> Result<Self, QueryError> {
        let reg = ndss_obs::Registry::global();
        let serving = Self {
            view: RwLock::new(Arc::new(ShardedIndex::open_with(path, &options)?)),
            path: path.to_path_buf(),
            options,
            generation_gauge: reg.gauge(
                "index.generation",
                "view generation currently being served (the store's manifest \
                 generation; 0 for a plain index directory)",
            ),
            reload_counter: reg.counter(
                "index.reloads",
                "completed hot swaps to a new index generation",
            ),
        };
        serving.publish_gauges(&serving.snapshot());
        Ok(serving)
    }

    /// The snapshot new queries would use right now. Callers hold the `Arc`
    /// for the duration of a query (or batch), pinning that view — a
    /// concurrent reload never changes an execution in progress — and read
    /// the generation that served them from the snapshot itself
    /// ([`ShardedIndex::generation`]).
    pub fn snapshot(&self) -> Arc<ShardedIndex> {
        self.view.read().expect("view lock poisoned").clone()
    }

    /// The view generation being served (`None` for a plain directory).
    pub fn generation(&self) -> Option<u64> {
        self.snapshot().generation()
    }

    /// The store root this handle re-resolves on every reload (health
    /// probers re-verify quarantined shards against it).
    pub fn store_path(&self) -> &Path {
        &self.path
    }

    /// Re-reads the store's `MANIFEST` — one file, so the identity is
    /// always a consistent cut — and, if the view moved, opens the new one
    /// and swaps it in. Returns `true` when a swap happened. In-flight
    /// queries keep their pinned snapshot; the old view is dropped when the
    /// last of them finishes. The new view is fully opened (every segment's
    /// headers validated) *before* the swap, so a bad segment leaves
    /// serving untouched and returns the error.
    ///
    /// Racing reloads are safe in both directions: the swap is re-checked
    /// under the write lock, so a reload that resolved the view before a
    /// concurrent reload published-and-swapped a *newer* one abandons its
    /// stale open instead of regressing serving to the older view.
    pub fn reload(&self) -> Result<bool, QueryError> {
        self.reload_with_race_window(|| {})
    }

    /// [`Self::reload`] with a hook invoked between resolving/opening the
    /// target view and taking the write lock — the window in which a
    /// concurrent reload can land. Exists so tests can exercise the race
    /// deterministically; not part of the stable API.
    #[doc(hidden)]
    pub fn reload_with_race_window(&self, mut in_window: impl FnMut()) -> Result<bool, QueryError> {
        // A stale open retries resolution from scratch; the view moving
        // takes an explicit publish/rollback, so in practice this loop runs
        // once (twice under an actively racing reload).
        for _ in 0..RELOAD_ATTEMPTS {
            let target = resolve_segments(&self.path)?;
            if self.snapshot().is_view(&target) {
                return Ok(false);
            }
            let fresh = Arc::new(ShardedIndex::open_view(target, &self.options)?);
            in_window();
            let mut view = self.view.write().expect("view lock poisoned");
            // Re-resolved under the write lock: between our open and this
            // lock a concurrent reload may have swapped a *newer* view in
            // (and a concurrent publish may have moved the manifest again).
            // Swap only while the store still names the view we opened — a
            // stale open must never overwrite a newer swap with an older
            // view. A deliberate rollback still reloads: there the store
            // genuinely names the older list.
            let now = resolve_segments(&self.path)?;
            if view.is_view(&now) {
                return Ok(false);
            }
            if !fresh.is_view(&now) {
                // Our open is stale; re-resolve and try again.
                continue;
            }
            self.publish_gauges(&fresh);
            *view = fresh;
            self.reload_counter.inc(1);
            return Ok(true);
        }
        Ok(false)
    }

    /// Re-opens the current view **even when its identity is unchanged**
    /// and swaps the fresh open in. [`Self::reload`] no-ops when the store
    /// still names the same directories, which is right for publishes but
    /// wrong for *in-place repair*: a shard restored to health under the
    /// same path needs its files re-opened (poisoned fds and breaker state
    /// live in the old view) without requiring a publish.
    /// The health prober calls this after a quarantined shard passes
    /// re-verification; in-flight queries keep their pinned snapshot as
    /// with any reload. Fails without touching serving if any shard fails
    /// to open.
    pub fn force_reload(&self) -> Result<(), QueryError> {
        let fresh = Arc::new(ShardedIndex::open_with(&self.path, &self.options)?);
        self.publish_gauges(&fresh);
        *self.view.write().expect("view lock poisoned") = fresh;
        self.reload_counter.inc(1);
        Ok(())
    }

    /// Exports `index.generation`, and for a multi-segment view
    /// `index.shard.generation{shard="N"}` per lane: the `seg-NNNN` number
    /// it serves, parsed from the directory the manifest named (one-segment
    /// views keep the exposition clean and use only the unlabeled gauge).
    fn publish_gauges(&self, view: &ShardedIndex) {
        self.generation_gauge.set(gauge_value(view.generation()));
        if view.num_shards() <= 1 {
            return;
        }
        let reg = ndss_obs::Registry::global();
        for (i, dir) in view.dirs().enumerate() {
            reg.gauge_with_labels(
                "index.shard.generation",
                "segment number each lane of the serving view is on",
                &[("shard", &i.to_string())],
            )
            .set(gauge_value(segment_of(dir)));
        }
    }
}

/// Bound on reload re-resolution retries; each retry requires a publish or
/// rollback to land inside the previous attempt's open window.
const RELOAD_ATTEMPTS: usize = 8;

/// Gauge encoding of a generation or segment number: `0` for a plain index
/// directory, clamped at `i64::MAX` instead of wrapping for (pathological)
/// numbers beyond it.
fn gauge_value(generation: Option<u64>) -> i64 {
    generation.unwrap_or(0).min(i64::MAX as u64) as i64
}
