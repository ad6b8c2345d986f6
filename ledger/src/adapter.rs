//! Every call the ledger makes into the program goes through this file.
//!
//! The rest of the ledger knows token ids, directories and the plain types
//! below; when the program renames or merges its searchers, builders or
//! codecs, this is the one file a later benchmark change edits. Nothing
//! here measures: callers time these functions from outside.

use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use ndss::corpus::{CorpusSource, InMemoryCorpus};
use ndss::index::{
    CacheConfig, DiskIndex, ExternalIndexBuilder, GenerationStore, IndexAccess, IndexConfig,
    IngestIndex, IngestOptions, MemoryIndex, ReadOptions, ShardedStore,
};
use ndss::query::{
    BatchSearcher, FaultPolicy, NearDupSearcher, OverlaySearcher, PrefixFilter, SearchOutcome,
    ServingIndex, ShardedIndex, ShardedSearcher,
};
use ndss::serve::client::{FrameClient, HttpClient};
use ndss::serve::frame::{self, SearchRequest, SearchResponse};
use ndss::serve::{RunningServer, ServeConfig, Server};
use ndss::{CorpusIndex, SearchParams, ShardedCorpusIndex};

use crate::load::Text;
use crate::spec;

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// The prefix filter of every searcher: the paper's 5 % most frequent
/// cutoff, which is also `SearchParams::new`'s default. The daemon's and
/// the CLI's default, `Adaptive`, defers almost nothing on this corpus and
/// spends its time counting (see `query.planner.adaptive_slowdown`).
const FILTER: PrefixFilter = PrefixFilter::FrequentFraction(0.05);

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// On-disk format of an index build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    V3,
    V4,
    V5,
}

fn index_config(format: Format) -> IndexConfig {
    let base = IndexConfig::new(spec::K, spec::T, spec::HASH_SEED);
    match format {
        Format::V3 => base,
        Format::V4 => base.compressed(true),
        Format::V5 => base.bit_packed(true),
    }
}

fn params() -> SearchParams {
    SearchParams::new(spec::K, spec::T, spec::HASH_SEED)
        .index_config(|c| c.bit_packed(true))
        .prefix_filter(FILTER)
}

/// The corpus as the program takes it.
pub struct Corpus(InMemoryCorpus);

impl Corpus {
    pub fn new(texts: &[Text]) -> Self {
        Corpus(InMemoryCorpus::from_texts(texts.to_vec()))
    }

    pub fn tokens(&self) -> u64 {
        self.0.total_tokens()
    }
}

// ---------------------------------------------------------------------------
// Search outcomes, reduced to what the ledger compares and counts.
// ---------------------------------------------------------------------------

pub type Outcome = SearchOutcome;

/// Ranked matches as `(text, collisions, merged spans)`, the same shape in
/// process and on the wire.
pub type TopK = Vec<(u32, u32, Vec<(u32, u32)>)>;

/// Folds the `(text, rectangle)` set of an outcome's texts below `limit`
/// into one word. The set is ordered (texts ascending, rectangles as
/// emitted), so equal sets fold equal.
pub fn signature(outcome: &Outcome, limit: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    };
    for m in outcome.matches.iter().filter(|m| m.text < limit) {
        mix(m.text as u64);
        mix(m.rects.len() as u64);
        for r in &m.rects {
            mix((r.x_lo as u64) << 32 | r.x_hi as u64);
            mix((r.y_lo as u64) << 32 | r.y_hi as u64);
            mix(r.collisions as u64);
        }
    }
    h
}

/// All qualifying sequences as `(text, start, end)`, for the oracle check.
pub fn sequences(outcome: &Outcome) -> Vec<(u32, u32, u32)> {
    outcome
        .enumerate_all()
        .into_iter()
        .map(|s| (s.text, s.span.start, s.span.end))
        .collect()
}

/// Work and time one query reported about itself (`SearchOutcome.stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryWork {
    pub total_ns: u64,
    pub sketch_ns: u64,
    pub plan_ns: u64,
    pub gather_ns: u64,
    pub count_ns: u64,
    pub probe_ns: u64,
    pub postings: u64,
    pub probes: u64,
    pub candidates: u64,
    pub matched: u64,
    pub lists_long: u64,
    pub io_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

pub fn work(outcome: &Outcome) -> QueryWork {
    let s = &outcome.stats;
    let ns = |d: Duration| d.as_nanos() as u64;
    QueryWork {
        total_ns: ns(s.total),
        sketch_ns: ns(s.stage_sketch),
        plan_ns: ns(s.stage_plan),
        gather_ns: ns(s.stage_gather),
        count_ns: ns(s.stage_count),
        probe_ns: ns(s.stage_probe),
        postings: s.postings_read,
        probes: s.long_probes as u64,
        candidates: s.candidate_texts as u64,
        matched: s.matched_texts as u64,
        lists_long: s.lists_long as u64,
        io_bytes: s.io_bytes,
        cache_hits: s.cache_hits,
        cache_misses: s.cache_misses,
    }
}

fn top_k(ranked: Vec<ndss::query::RankedMatch>) -> TopK {
    ranked
        .into_iter()
        .map(|m| {
            (
                m.text,
                m.collisions,
                m.spans.iter().map(|s| (s.start, s.end)).collect(),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// One index directory: build, open, search.
// ---------------------------------------------------------------------------

pub struct Index(CorpusIndex<DiskIndex>);

impl Index {
    /// `CorpusIndex::build_on_disk`: in-memory build on all cores, then
    /// write-back, format v5.
    pub fn build(corpus: &Corpus, dir: &Path) -> Result<Index> {
        Ok(Index(CorpusIndex::build_on_disk(&corpus.0, params(), dir)?))
    }

    /// Opens with the default cache (64 MiB postings + 8 MiB zones); pread
    /// unless `mmap`.
    pub fn open(dir: &Path, mmap: bool) -> Result<Index> {
        let io = if mmap {
            ReadOptions::with_mmap()
        } else {
            ReadOptions::default()
        };
        Ok(Index(CorpusIndex::open_with(
            dir,
            FILTER,
            CacheConfig::default(),
            io,
        )?))
    }

    pub fn searcher(&self) -> Result<Searcher<'_>> {
        Ok(Searcher {
            inner: self.0.searcher()?,
            index: self.0.index(),
        })
    }

    /// The same index searched with the daemon's default planner.
    pub fn adaptive_searcher(&self) -> Result<Searcher<'_>> {
        Ok(Searcher {
            inner: NearDupSearcher::with_prefix_filter(self.0.index(), PrefixFilter::Adaptive)?,
            index: self.0.index(),
        })
    }

    /// Searches `queries` on `threads` threads, results in input order.
    pub fn search_batch(&self, queries: &[Text], threads: usize) -> Result<Vec<Outcome>> {
        Ok(BatchSearcher::with_prefix_filter(self.0.index(), FILTER)?
            .threads(threads)
            .search_all(queries, spec::THETA)?)
    }

    pub fn list_len(&self, func: usize, hash: u64) -> Result<u64> {
        Ok(self.0.index().list_len(func, hash)?)
    }

    /// `IndexAccess::read_list`: `(text, l, c, r)` per posting.
    pub fn read_list(&self, func: usize, hash: u64) -> Result<Vec<(u32, u32, u32, u32)>> {
        Ok(self
            .0
            .index()
            .read_list(func, hash)?
            .into_iter()
            .map(|p| (p.text, p.window.l, p.window.c, p.window.r))
            .collect())
    }

    /// `IndexAccess::read_postings_for_text`; returns the posting count.
    pub fn probe(&self, func: usize, hash: u64, text: u32) -> Result<usize> {
        Ok(self
            .0
            .index()
            .read_postings_for_text(func, hash, text)?
            .len())
    }
}

pub struct Searcher<'a> {
    inner: NearDupSearcher<'a, DiskIndex>,
    index: &'a DiskIndex,
}

pub type Sketch = ndss::hash::Sketch;

impl Searcher<'_> {
    pub fn search(&self, query: &[u32]) -> Result<Outcome> {
        Ok(self.inner.search(query, spec::THETA)?)
    }

    pub fn rank(&self, outcome: &Outcome) -> TopK {
        top_k(self.inner.rank(outcome, spec::TOP as usize))
    }

    pub fn sketch(&self, query: &[u32]) -> Sketch {
        self.inner.hasher().sketch(query)
    }

    /// `plan_for_sketch`; returns how many lists the plan defers.
    pub fn plan(&self, sketch: &Sketch) -> Result<usize> {
        let beta = ndss::hash::minhash::collision_threshold(spec::K, spec::THETA);
        Ok(
            ndss::query::planner::plan_for_sketch(self.index, sketch, beta)?
                .deferred
                .len(),
        )
    }
}

/// Builds `corpus` in `format` into `dir` and returns
/// `(memory build seconds, write seconds)`.
pub fn build_in_steps(corpus: &Corpus, format: Format, dir: &Path) -> Result<(f64, f64)> {
    let start = std::time::Instant::now();
    let mem = MemoryIndex::build(&corpus.0, index_config(format))?;
    let built = start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    ndss::index::write_memory_index(&mem, dir)?;
    Ok((built, start.elapsed().as_secs_f64()))
}

/// `ExternalIndexBuilder::build` with a budget small enough to force
/// partitioning.
pub fn build_external(corpus: &Corpus, dir: &Path) -> Result<()> {
    ExternalIndexBuilder::new(index_config(Format::V5))
        .memory_budget(8 << 20)
        .parallel(true)
        .build(&corpus.0, dir)?;
    Ok(())
}

/// An index built in memory and never written: the cold rebuild that
/// overlay results are compared with.
pub struct ColdRebuild(CorpusIndex<MemoryIndex>);

impl ColdRebuild {
    pub fn build(texts: &[Text]) -> Result<Self> {
        Ok(ColdRebuild(CorpusIndex::build_in_memory_parallel(
            &InMemoryCorpus::from_texts(texts.to_vec()),
            params(),
        )?))
    }

    pub fn search(&self, query: &[u32]) -> Result<Outcome> {
        Ok(self.0.search(query, spec::THETA)?)
    }
}

/// `query::bruteforce::definition2_scan` over `texts` only; sequences come
/// back with positions into `texts` as their text ids.
pub fn oracle(texts: &[Text], query: &[u32]) -> Result<Vec<(u32, u32, u32)>> {
    let corpus = InMemoryCorpus::from_texts(texts.to_vec());
    let hasher = index_config(Format::V5).hasher();
    Ok(
        ndss::query::bruteforce::definition2_scan(&corpus, &hasher, query, spec::THETA, spec::T)?
            .into_iter()
            .map(|s| (s.text, s.span.start, s.span.end))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Sharded store, daemon, clients.
// ---------------------------------------------------------------------------

/// `ShardedCorpusIndex::build_sharded` with `SHARDS` shards.
pub fn build_sharded(corpus: &Corpus, root: &Path) -> Result<()> {
    ShardedCorpusIndex::build_sharded(&corpus.0, params(), root, spec::SHARDS)?;
    Ok(())
}

/// Bytes of the generations a store serves: the shard directories the
/// manifest names, the `CURRENT` generation of a generation store, or a
/// plain index directory.
pub fn serving_bytes(root: &Path) -> Result<u64> {
    if ShardedStore::is_sharded(root) {
        let store = ShardedStore::open(root)?;
        let mut total = 0;
        for i in 0..store.num_shards() {
            total += crate::host::dir_bytes(&store.serving_dir(i)?);
        }
        Ok(total)
    } else {
        Ok(crate::host::dir_bytes(&ndss::index::resolve_index_dir(
            root,
        )))
    }
}

/// The disk view of a store, opened once and searched in process.
pub struct View(ShardedIndex);

impl View {
    pub fn open(root: &Path) -> Result<View> {
        Ok(View(ShardedIndex::open(root)?))
    }

    pub fn searcher(&self) -> Result<ViewSearcher<'_>> {
        Ok(ViewSearcher(self.0.searcher_with_filter(FILTER)?))
    }
}

pub struct ViewSearcher<'a>(ShardedSearcher<'a>);

impl ViewSearcher<'_> {
    pub fn search(&self, query: &[u32]) -> Result<Outcome> {
        Ok(self.0.search(query, spec::THETA)?)
    }

    pub fn rank(&self, outcome: &Outcome) -> TopK {
        top_k(self.0.rank(outcome, spec::TOP as usize))
    }
}

/// The daemon, bound to a loopback port the system picks.
pub struct Daemon {
    running: Option<RunningServer>,
    addr: SocketAddr,
}

impl Daemon {
    pub fn start(store: &Path) -> Result<Daemon> {
        let serving = ServingIndex::open_with_cache(store, CacheConfig::default())?;
        let server = Server::bind(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                admission_cap: spec::ADMISSION_CAP,
                filter: FILTER,
                ..ServeConfig::default()
            },
            serving,
        )?;
        let running = server.spawn();
        let addr = running.handle().addr();
        Ok(Daemon {
            running: Some(running),
            addr,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains and joins the server threads; returns how many requests it
    /// shed.
    pub fn stop(mut self) -> Result<u64> {
        let running = self.running.take().expect("stop is called once");
        Ok(running.shutdown_and_join()?.shed)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(running) = self.running.take() {
            let _ = running.shutdown_and_join();
        }
    }
}

/// The daemon's search path without the network, step by step as its
/// request handler takes it: pin the serving snapshot, derive a searcher
/// from it (once per request), search, rank. `ServingSearcher` would derive
/// the searcher twice, once in `search` and once in `rank`.
pub struct InProcess(ServingIndex);

pub struct Pinned(Arc<ShardedIndex>);

impl InProcess {
    pub fn open(store: &Path) -> Result<InProcess> {
        Ok(InProcess(ServingIndex::open_with_cache(
            store,
            CacheConfig::default(),
        )?))
    }

    pub fn pin(&self) -> Pinned {
        Pinned(self.0.snapshot())
    }
}

impl Pinned {
    pub fn searcher(&self) -> Result<ViewSearcher<'_>> {
        Ok(ViewSearcher(
            self.0
                .searcher_with_filter(FILTER)?
                .fault_policy(FaultPolicy::Isolate),
        ))
    }
}

/// What came back for one served request.
#[derive(Debug, Clone, PartialEq)]
pub enum Served {
    Answer(TopK),
    /// Refused by admission control.
    Shed,
    /// Any other server verdict, or a transport failure.
    Failed(String),
}

impl Served {
    /// Whether this is the answer `want`.
    pub fn is(&self, want: &TopK) -> bool {
        matches!(self, Served::Answer(top) if top == want)
    }
}

fn request(query: &[u32]) -> SearchRequest {
    SearchRequest {
        theta: spec::THETA,
        deadline_ms: 0,
        top: spec::TOP,
        query: query.to_vec(),
    }
}

fn served(verdict: std::result::Result<SearchResponse, (u8, String)>) -> Served {
    match verdict {
        Ok(resp) if resp.complete && resp.degraded.is_empty() => Served::Answer(
            resp.matches
                .into_iter()
                .map(|m| (m.text, m.collisions, m.spans))
                .collect(),
        ),
        Ok(_) => Served::Failed("partial or degraded answer".to_string()),
        Err((status, _)) if status == frame::STATUS_OVERLOADED => Served::Shed,
        Err((status, message)) => Served::Failed(format!("status {status}: {message}")),
    }
}

/// One NDSB connection (`FrameClient`).
pub struct Client(FrameClient);

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client> {
        Ok(Client(FrameClient::connect(addr, IO_TIMEOUT)?))
    }

    pub fn search(&mut self, query: &[u32]) -> Served {
        match self.0.search(&request(query)) {
            Ok(verdict) => served(verdict),
            Err(e) => Served::Failed(format!("transport: {e}")),
        }
    }

    pub fn ping(&mut self) -> Result<()> {
        match self.0.ping()? {
            frame::STATUS_OK => Ok(()),
            status => Err(format!("ping answered status {status}").into()),
        }
    }
}

/// One NDSB connection with encode, round trip and decode as separate
/// calls, so the traced run can put a span around each.
pub struct SplitClient(TcpStream);

impl SplitClient {
    pub fn connect(addr: SocketAddr) -> Result<SplitClient> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(SplitClient(stream))
    }

    pub fn encode(query: &[u32]) -> Vec<u8> {
        frame::encode_search_request(&request(query))
    }

    pub fn round_trip(&mut self, payload: &[u8]) -> Result<Vec<u8>> {
        frame::write_frame(&mut self.0, payload)?;
        loop {
            match frame::read_frame(&mut self.0)? {
                frame::FrameOutcome::Payload(p) => return Ok(p),
                frame::FrameOutcome::Idle => continue,
                frame::FrameOutcome::Closed => return Err("server closed the connection".into()),
                frame::FrameOutcome::Malformed(m) => return Err(m.into()),
            }
        }
    }

    pub fn decode(payload: &[u8]) -> Served {
        served(frame::decode_search_response(payload))
    }
}

/// One keep-alive HTTP connection posting JSON to `/search`.
pub struct HttpConn(HttpClient);

impl HttpConn {
    pub fn connect(addr: SocketAddr) -> Result<HttpConn> {
        Ok(HttpConn(HttpClient::connect(addr, IO_TIMEOUT)?))
    }

    pub fn body(query: &[u32]) -> String {
        let tokens: Vec<String> = query.iter().map(u32::to_string).collect();
        format!(
            "{{\"query\":[{}],\"theta\":{},\"top\":{}}}",
            tokens.join(","),
            spec::THETA,
            spec::TOP
        )
    }

    /// Sends the request and reads the whole response: status and body.
    pub fn round_trip(&mut self, body: &str) -> Result<(u16, String)> {
        let response = self.0.request("POST", "/search", body.as_bytes())?;
        Ok((response.status, response.text()))
    }

    pub fn decode(status: u16, body: &str) -> Served {
        match status {
            200 => match http_top_k(body) {
                Some(top) => Served::Answer(top),
                None => Served::Failed("unreadable or partial answer".to_string()),
            },
            429 => Served::Shed,
            status => Served::Failed(format!("http status {status}")),
        }
    }
}

fn http_top_k(body: &str) -> Option<TopK> {
    let doc = ndss::json::Json::parse(body).ok()?;
    if !doc.get("complete")?.as_bool()? {
        return None;
    }
    doc.get("matches")?
        .as_array()?
        .iter()
        .map(|m| {
            let spans = m
                .get("spans")?
                .as_array()?
                .iter()
                .map(|s| {
                    let pair = s.as_array()?;
                    Some((
                        pair.first()?.as_u64()? as u32,
                        pair.get(1)?.as_u64()? as u32,
                    ))
                })
                .collect::<Option<Vec<_>>>()?;
            Some((
                m.get("text")?.as_u64()? as u32,
                m.get("collisions")?.as_u64()? as u32,
                spans,
            ))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ingest: a generation store with a WAL-backed memtable in front.
// ---------------------------------------------------------------------------

/// Builds `corpus` as the first published generation of a new store at
/// `root` (format v5, in-memory build on all cores).
pub fn build_store(corpus: &Corpus, root: &Path) -> Result<()> {
    let store = GenerationStore::open(root)?;
    let gen_dir = store.allocate()?;
    ndss::index::build_and_write(&corpus.0, index_config(Format::V5), &gen_dir, true)?;
    let name = gen_dir
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("generation directory has no name")?
        .to_string();
    store.publish(&name, 1)?;
    Ok(())
}

pub struct Ingest(IngestIndex);

impl Ingest {
    /// Opens (recovering, when there is a WAL) the memtable of the store at
    /// `root`; an empty store takes the ledger's index configuration.
    pub fn open(root: &Path) -> Result<Ingest> {
        let opts = IngestOptions {
            fsync_every: spec::FSYNC_EVERY,
            ..IngestOptions::default()
        };
        Ok(Ingest(IngestIndex::open(
            root,
            Some(index_config(Format::V5)),
            opts,
        )?))
    }

    pub fn append(&mut self, text: &[u32]) -> Result<u64> {
        Ok(self.0.append(text)?)
    }

    pub fn sync(&mut self) -> Result<()> {
        Ok(self.0.sync()?)
    }

    pub fn rotate(&mut self) -> Result<()> {
        Ok(self.0.rotate()?)
    }

    pub fn compact_once(&mut self) -> Result<bool> {
        Ok(self.0.compact_once()?)
    }

    /// Texts served from published generations.
    pub fn covered(&self) -> u64 {
        self.0.covered()
    }

    /// Texts acked but not yet published.
    pub fn pending(&self) -> u64 {
        self.0.pending_texts()
    }

    pub fn next_text_id(&self) -> u64 {
        self.0.next_text_id()
    }
}

/// Disk view plus memtable segments, searched as one corpus. Borrows both,
/// so it is rebuilt after every append batch, as the daemon rebuilds it for
/// every request.
pub struct Overlay<'a>(OverlaySearcher<'a>);

impl<'a> Overlay<'a> {
    pub fn new(view: &'a View, ingest: &'a Ingest) -> Result<Overlay<'a>> {
        let searcher = view
            .0
            .searcher_with_filter(FILTER)?
            .fault_policy(FaultPolicy::Isolate);
        let config = view.0.config();
        let mut overlay = OverlaySearcher::new(
            Some(searcher),
            view.0.num_texts() as u64,
            config.k,
            config.t as u32,
        );
        for segment in ingest.0.segments() {
            overlay.push_segment(segment)?;
        }
        Ok(Overlay(overlay))
    }

    pub fn search(&self, query: &[u32]) -> Result<Outcome> {
        Ok(self.0.search(query, spec::THETA)?)
    }
}

// ---------------------------------------------------------------------------
// Primitives under the layers above.
// ---------------------------------------------------------------------------

pub struct Hasher(ndss::hash::MinHasher);

impl Hasher {
    pub fn new() -> Hasher {
        Hasher(index_config(Format::V5).hasher())
    }

    pub fn sketch(&self, tokens: &[u32]) -> Sketch {
        self.0.sketch(tokens)
    }

    /// `f_func(T[p])` for every position `p`.
    pub fn position_hashes(&self, func: usize, tokens: &[u32], out: &mut Vec<u64>) {
        self.0.hash_positions_into(func, tokens, out);
    }
}

/// The structure the indexer builds per text and function.
pub fn cartesian_tree(values: &[u64]) -> usize {
    ndss::rmq::CartesianTree::new(values).len()
}

/// The RMQ behind the recursive generator (Algorithm 2 as printed).
pub struct Rmq(ndss::rmq::BlockRmq);

impl Rmq {
    pub fn new(values: &[u64]) -> Rmq {
        Rmq(ndss::rmq::BlockRmq::new(values))
    }

    pub fn argmin(&self, l: usize, r: usize) -> usize {
        use ndss::rmq::RangeArgmin;
        self.0.argmin(l, r)
    }
}

/// Compact-window generation for one text under one function.
pub struct Windows {
    generator: ndss::windows::WindowGenerator,
    out: Vec<ndss::windows::HashedWindow>,
}

impl Windows {
    pub fn new() -> Windows {
        Windows {
            generator: ndss::windows::WindowGenerator::new(),
            out: Vec::new(),
        }
    }

    /// Returns how many windows the text has under `func`.
    pub fn generate(&mut self, hasher: &Hasher, func: usize, tokens: &[u32]) -> usize {
        self.out.clear();
        self.generator
            .generate(&hasher.0, func, tokens, spec::T, &mut self.out);
        self.out.len()
    }
}

/// `theory::expected_windows` for a text of `n` distinct tokens.
pub fn expected_windows(n: usize) -> f64 {
    ndss::windows::theory::expected_windows(n, spec::T)
}

/// The paper's bound on one function's index bytes over corpus bytes, 8/t.
pub fn size_ratio_bound() -> f64 {
    ndss::windows::theory::index_size_ratio_bound(spec::T)
}

/// Collision counting over the windows `(l, c, r)` of one text.
pub struct Collision {
    scratch: ndss::query::CollisionScratch,
    out: Vec<ndss::query::Rectangle>,
}

impl Collision {
    pub fn new() -> Collision {
        Collision {
            scratch: Default::default(),
            out: Vec::new(),
        }
    }

    pub fn windows(raw: &[(u32, u32, u32)]) -> Vec<ndss::windows::CompactWindow> {
        raw.iter()
            .map(|&(l, c, r)| ndss::windows::CompactWindow::new(l, c, r))
            .collect()
    }

    /// `collision_count_into` at the workloads' threshold; returns the
    /// rectangle count.
    pub fn count(&mut self, windows: &[ndss::windows::CompactWindow]) -> usize {
        let beta = ndss::hash::minhash::collision_threshold(spec::K, spec::THETA);
        ndss::query::collision_count_into(windows, beta, &mut self.scratch, &mut self.out);
        self.out.len()
    }
}

pub type Interval = ndss::query::Interval;

pub fn intervals(raw: &[(u32, u32)]) -> Vec<Interval> {
    raw.iter()
        .enumerate()
        .map(|(id, &(lo, hi))| Interval::new(id as u32, lo, hi))
        .collect()
}

/// `interval_scan`; returns the hit count.
pub fn interval_scan(intervals: &[Interval], alpha: usize) -> usize {
    ndss::query::interval_scan(intervals, alpha).len()
}

pub const BLOCK_LEN: usize = bitpack::BLOCK_LEN;

/// One bit-packed block of `BLOCK_LEN` values.
pub struct PackedBlock {
    bits: u8,
    bytes: Vec<u8>,
}

impl PackedBlock {
    pub fn pack(values: &[u32; BLOCK_LEN]) -> PackedBlock {
        let bits = bitpack::num_bits(values);
        let mut bytes = vec![0u8; bitpack::packed_len(bits)];
        bitpack::pack(values, bits, &mut bytes);
        PackedBlock { bits, bytes }
    }

    /// The dispatched kernel, as the v5 reader calls it.
    pub fn unpack(&self, out: &mut [u32; BLOCK_LEN]) {
        bitpack::unpack(&self.bytes, self.bits, out);
    }

    pub fn unpack_scalar(&self, out: &mut [u32; BLOCK_LEN]) {
        bitpack::unpack_scalar(&self.bytes, self.bits, out);
    }
}

/// NDSB payload codecs, both directions.
pub mod wire {
    use super::*;

    pub fn encode_request(query: &[u32]) -> Vec<u8> {
        frame::encode_search_request(&request(query))
    }

    pub fn decode_request(payload: &[u8]) -> bool {
        frame::decode_request(payload).is_ok()
    }

    pub struct Response(SearchResponse);

    pub fn response(top: &TopK) -> Response {
        Response(SearchResponse {
            complete: true,
            generation: 1,
            beta: ndss::hash::minhash::collision_threshold(spec::K, spec::THETA) as u32,
            total_sequences: top.len() as u64,
            matches: top
                .iter()
                .map(|(text, collisions, spans)| frame::WireMatch {
                    text: *text,
                    collisions: *collisions,
                    spans: spans.clone(),
                })
                .collect(),
            degraded: Vec::new(),
        })
    }

    pub fn encode_response(response: &Response) -> Vec<u8> {
        frame::encode_search_response(&response.0)
    }

    pub fn decode_response(payload: &[u8]) -> bool {
        frame::decode_search_response(payload).is_ok()
    }

    /// A complete HTTP/1.1 `POST /search` request as the server reads it.
    pub fn http_request(body: &str) -> Vec<u8> {
        format!(
            "POST /search HTTP/1.1\r\nhost: ndss\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// `http::read_request` from a byte slice.
    pub fn http_parse(mut bytes: &[u8]) -> bool {
        matches!(
            ndss::serve::http::read_request(&mut bytes, 16 << 20),
            Ok(ndss::serve::http::ReadOutcome::Request(_))
        )
    }

    /// `http::write_response` into `out`.
    pub fn http_write(out: &mut Vec<u8>, body: &[u8]) -> bool {
        out.clear();
        ndss::serve::http::write_response(out, 200, "OK", "application/json", body, false).is_ok()
    }

    /// `Json::parse` then `to_string_compact`, each callable alone.
    pub fn json_parse(text: &str) -> Option<ndss::json::Json> {
        ndss::json::Json::parse(text).ok()
    }

    pub fn json_emit(doc: &ndss::json::Json) -> String {
        doc.to_string_compact()
    }
}

/// Turns the program's own instrumentation (`ndss::obs`) on or off.
pub fn set_instrumentation(on: bool) {
    ndss::obs::set_enabled(on);
}
