//! Live-loopback integration tests for the `ndss-serve` daemon.
//!
//! Each test binds a real `TcpListener` on `127.0.0.1:0`, drives it with
//! the vendored blocking clients, and checks the serving invariants:
//!
//! * both protocols (HTTP/1.1 JSON and NDSB binary framing) answer on the
//!   same port, and their results agree with a cold open of the served
//!   generation; past the admission cap both shed at once (429 /
//!   `OVERLOADED`) and count it;
//! * clients querying *concurrently with* `POST /reload` always see
//!   results bit-identical to a cold open of one generation — never a
//!   blend of two;
//! * `GET /metrics` passes the repo's Prometheus exposition validator;
//! * graceful drain answers every in-flight request — zero dropped
//!   queries — and then `run()` returns.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ndss::index::{build_and_write, CacheConfig};
use ndss::prelude::*;
use ndss::serve::client::{FrameClient, HttpClient};
use ndss::serve::frame::{SearchRequest, STATUS_OVERLOADED};
use ndss::serve::{RunningServer, ServeConfig, Server};
use ndss_integration::scratch;

const THETA: f64 = 0.8;
const TIMEOUT: Duration = Duration::from_secs(30);

fn config() -> IndexConfig {
    IndexConfig::new(8, 20, 13)
}

fn build_generation(store: &GenerationStore, corpus: &InMemoryCorpus) -> String {
    let dir = store.allocate().unwrap();
    build_and_write(corpus, config(), &dir, true).unwrap();
    dir.file_name().unwrap().to_string_lossy().into_owned()
}

fn corpus_a() -> (InMemoryCorpus, Vec<Vec<u32>>) {
    let (corpus, planted) = SyntheticCorpusBuilder::new(31)
        .num_texts(20)
        .duplicates_per_text(1.0)
        .mutation_rate(0.0)
        .build();
    let queries: Vec<Vec<u32>> = planted
        .iter()
        .take(4)
        .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
        .collect();
    assert!(!queries.is_empty());
    (corpus, queries)
}

/// Corpus A plus one extra text repeating query 0, so generation B answers
/// query 0 with strictly more matches than generation A.
fn corpus_b(a: &InMemoryCorpus, queries: &[Vec<u32>]) -> InMemoryCorpus {
    let mut texts: Vec<Vec<u32>> = (0..a.num_texts() as u32)
        .map(|i| a.text(i).to_vec())
        .collect();
    texts.push(queries[0].clone());
    InMemoryCorpus::from_texts(texts)
}

/// The canonical fingerprint of one ranked match list:
/// `(text, collisions, spans)` per match, in rank order.
type Fingerprint = Vec<(u32, u32, Vec<(u32, u32)>)>;

/// Cold-open reference through the same searcher configuration the server
/// uses.
fn cold_fingerprint(dir: &Path, query: &[u32]) -> Fingerprint {
    let index = DiskIndex::open(dir).unwrap();
    let searcher = NearDupSearcher::with_prefix_filter(&index, PrefixFilter::default()).unwrap();
    let outcome = searcher.search(query, THETA).unwrap();
    ndss::query::search::rank(&outcome, config().k, usize::MAX)
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

/// Fingerprint from a `POST /search` JSON body.
fn json_fingerprint(body: &str) -> (bool, u64, Fingerprint) {
    let doc = ndss::json::Json::parse(body).unwrap();
    let complete = matches!(doc.get("complete"), Some(ndss::json::Json::Bool(true)));
    let generation = doc.get("generation").and_then(|v| v.as_u64()).unwrap();
    let matches = doc
        .get("matches")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|m| {
            let spans = m
                .get("spans")
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|s| {
                    let pair = s.as_array().unwrap();
                    (
                        pair[0].as_u64().unwrap() as u32,
                        pair[1].as_u64().unwrap() as u32,
                    )
                })
                .collect();
            (
                m.get("text").and_then(|v| v.as_u64()).unwrap() as u32,
                m.get("collisions").and_then(|v| v.as_u64()).unwrap() as u32,
                spans,
            )
        })
        .collect();
    (complete, generation, matches)
}

fn search_body(query: &[u32]) -> String {
    let tokens: Vec<String> = query.iter().map(|t| t.to_string()).collect();
    format!("{{\"query\":[{}],\"theta\":{THETA}}}", tokens.join(","))
}

fn start_server(store: &Path) -> RunningServer {
    start_server_capped(store, 8)
}

fn start_server_capped(store: &Path, admission_cap: usize) -> RunningServer {
    let serving = ServingIndex::open_with_options(store, ServingOptions::default()).unwrap();
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 16,
            admission_cap,
            ..ServeConfig::default()
        },
        serving,
    )
    .unwrap();
    server.spawn()
}

#[test]
fn both_protocols_agree_with_a_cold_open() {
    let root = scratch("serve", "protocols");
    let store = GenerationStore::open(&root).unwrap();
    let (corpus, queries) = corpus_a();
    let name = build_generation(&store, &corpus);
    store.publish(&name, 1).unwrap();
    let gen_dir = root.join(&name);

    let server = start_server(&root);
    let addr = server.handle().addr();

    let mut http = HttpClient::connect(addr, TIMEOUT).unwrap();
    let health = http.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200, "healthz: {}", health.text());

    let mut frames = FrameClient::connect(addr, TIMEOUT).unwrap();
    assert_eq!(frames.ping().unwrap(), 0);

    for query in &queries {
        let cold = cold_fingerprint(&gen_dir, query);

        let reply = http
            .request("POST", "/search", search_body(query).as_bytes())
            .unwrap();
        assert_eq!(reply.status, 200, "search: {}", reply.text());
        let (complete, generation, live) = json_fingerprint(&reply.text());
        assert!(complete);
        assert_eq!(generation, 0);
        assert_eq!(live, cold, "HTTP results differ from a cold open");

        let wire = frames
            .search(&SearchRequest {
                theta: THETA,
                deadline_ms: 0,
                top: 0,
                query: query.clone(),
            })
            .unwrap()
            .expect("binary search should succeed");
        assert!(wire.complete);
        let framed: Fingerprint = wire
            .matches
            .into_iter()
            .map(|m| (m.text, m.collisions, m.spans))
            .collect();
        assert_eq!(framed, cold, "binary results differ from a cold open");
    }

    // The exposition the daemon serves must parse under the repo's own
    // validator.
    let metrics = http.request("GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    ndss::obs::validate_prometheus_text(&metrics.text())
        .unwrap_or_else(|e| panic!("invalid exposition: {e}"));

    let report = server.shutdown_and_join().unwrap();
    assert!(report.http_requests >= 2 + queries.len() as u64);
    assert!(report.frame_requests > queries.len() as u64);
    assert_eq!(report.shed, 0);

    // Past the admission cap both protocols shed at once — HTTP 429 and the
    // binary OVERLOADED status — and count it; a cap of zero makes every
    // search "past the cap" without a race.
    let server = start_server_capped(&root, 0);
    let addr = server.handle().addr();
    let mut http = HttpClient::connect(addr, TIMEOUT).unwrap();
    let reply = http
        .request("POST", "/search", search_body(&queries[0]).as_bytes())
        .unwrap();
    assert_eq!(reply.status, 429, "search: {}", reply.text());
    assert!(reply.text().contains("\"overloaded\""), "{}", reply.text());
    let (status, _) = FrameClient::connect(addr, TIMEOUT)
        .unwrap()
        .search(&SearchRequest {
            theta: THETA,
            deadline_ms: 0,
            top: 0,
            query: queries[0].clone(),
        })
        .unwrap()
        .expect_err("a capped-out search must be refused");
    assert_eq!(status, STATUS_OVERLOADED);
    assert_eq!(http.request("GET", "/healthz", b"").unwrap().status, 200);
    assert_eq!(server.shutdown_and_join().unwrap().shed, 2);
}

#[test]
fn concurrent_clients_during_reload_see_one_generation_at_a_time() {
    let root = scratch("serve", "reload_race");
    let store = GenerationStore::open(&root).unwrap();
    let (corpus, queries) = corpus_a();
    let gen_a = build_generation(&store, &corpus);
    store.publish(&gen_a, 2).unwrap();
    let cold_a = cold_fingerprint(&root.join(&gen_a), &queries[0]);

    let updated = corpus_b(&corpus, &queries);
    let server = start_server(&root);
    let addr = server.handle().addr();

    // Hammer query 0 from several clients while the reload happens.
    let stop = Arc::new(AtomicBool::new(false));
    let saw_new = Arc::new(AtomicU64::new(0));
    let query = queries[0].clone();
    let body = search_body(&query);
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let stop = stop.clone();
            let saw_new = saw_new.clone();
            let body = body.clone();
            let cold_a = cold_a.clone();
            std::thread::spawn(move || {
                let mut http = HttpClient::connect(addr, TIMEOUT).unwrap();
                let mut checked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let reply = http.request("POST", "/search", body.as_bytes()).unwrap();
                    assert_eq!(reply.status, 200, "search: {}", reply.text());
                    let (complete, generation, live) = json_fingerprint(&reply.text());
                    assert!(complete);
                    // Every response must be bit-identical to a cold open
                    // of the generation it claims to come from.
                    match generation {
                        0 => assert_eq!(live, cold_a, "gen-0 response differs from cold open"),
                        1 => {
                            // cold_b is only computable after the build
                            // lands; record the fingerprint and verify on
                            // the main thread afterwards.
                            saw_new.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("response from unexpected generation {other}"),
                    }
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    // Publish generation B and hot-swap it in under live traffic.
    let gen_b = build_generation(&store, &updated);
    store.publish(&gen_b, 2).unwrap();
    let mut http = HttpClient::connect(addr, TIMEOUT).unwrap();
    let reload = http.request("POST", "/reload", b"").unwrap();
    assert_eq!(reload.status, 200);
    assert!(
        reload.text().contains("\"reloaded\":true"),
        "{}",
        reload.text()
    );

    // Let the clients observe the new generation, then stop them.
    let cold_b = cold_fingerprint(&root.join(&gen_b), &query);
    assert_ne!(cold_a, cold_b, "corpus B must change query 0's answer");
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(total > 0);

    // Post-reload, the served answer is bit-identical to a cold open of B.
    let reply = http.request("POST", "/search", body.as_bytes()).unwrap();
    let (complete, generation, live) = json_fingerprint(&reply.text());
    assert!(complete);
    assert_eq!(generation, 1);
    assert_eq!(
        live, cold_b,
        "post-reload response differs from cold open of B"
    );

    server.shutdown_and_join().unwrap();
}

#[test]
fn drain_answers_every_in_flight_query() {
    let root = scratch("serve", "drain");
    let store = GenerationStore::open(&root).unwrap();
    let (corpus, queries) = corpus_a();
    let name = build_generation(&store, &corpus);
    store.publish(&name, 1).unwrap();

    let server = start_server(&root);
    let addr = server.handle().addr();
    let handle = server.handle();

    // Clients keep issuing queries; drain fires while they are in flight.
    // Every request that gets written must be answered (ConnectionReset /
    // UnexpectedEof before a response counts as a dropped query).
    let clients: Vec<_> = queries
        .iter()
        .cloned()
        .map(|query| {
            std::thread::spawn(move || {
                let mut http = HttpClient::connect(addr, TIMEOUT).unwrap();
                let body = search_body(&query);
                let mut answered = 0u64;
                loop {
                    match http.request("POST", "/search", body.as_bytes()) {
                        Ok(reply) => {
                            assert_eq!(reply.status, 200, "search: {}", reply.text());
                            answered += 1;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                            // Clean close *between* requests: the write of
                            // the next request raced the drain close. The
                            // previous response was still delivered whole.
                            break;
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::ConnectionReset
                                || e.kind() == std::io::ErrorKind::BrokenPipe =>
                        {
                            break;
                        }
                        Err(e) => panic!("client io error during drain: {e}"),
                    }
                }
                answered
            })
        })
        .collect();

    // Let traffic build up, then drain.
    std::thread::sleep(Duration::from_millis(150));
    handle.shutdown();
    let answered: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(answered > 0, "no queries completed before the drain");

    let report = server.shutdown_and_join().unwrap();
    // Every request the server counted was answered: the handler count in
    // the report equals successful client-side responses plus the reload-
    // free admin traffic (none here).
    assert!(report.http_requests >= answered);
}

// ---------------------------------------------------------------------------
// Sharded store behind the daemon: concurrent per-shard reload.
// ---------------------------------------------------------------------------

/// Cold fingerprint over a sharded store's current manifest view, through
/// the same searcher configuration the server uses.
fn sharded_cold_fingerprint(root: &Path, query: &[u32]) -> Fingerprint {
    let view = ShardedIndex::open(root).unwrap();
    let searcher = view
        .searcher_with_filter(PrefixFilter::default())
        .unwrap()
        .threads(2);
    let outcome = searcher.search(query, THETA).unwrap();
    ndss::query::search::rank(&outcome, config().k, usize::MAX)
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

/// Republishing one shard and hot-reloading under live clients never
/// yields a torn cross-shard view: every `/search` response reports
/// exactly one manifest generation, and its results are bit-identical to
/// a cold open of that generation's view — even while `POST /reload`
/// races the per-shard publish.
#[test]
fn sharded_reload_of_one_shard_is_atomic_to_clients() {
    let root = scratch("serve", "sharded_reload");
    let (corpus, queries) = corpus_a();
    build_sharded(&corpus, config(), &root, 2, &ShardedBuildOptions::default()).unwrap();
    let query = queries[0].clone();
    let cold_v1 = sharded_cold_fingerprint(&root, &query);

    // Shard 1's replacement slice: text 15 now repeats query 0.
    let mut texts: Vec<Vec<u32>> = (0..corpus.num_texts() as u32)
        .map(|i| corpus.text(i).to_vec())
        .collect();
    texts[15] = query.clone();
    let updated = InMemoryCorpus::from_texts(texts);

    let server = start_server(&root);
    let addr = server.handle().addr();

    let mut http = HttpClient::connect(addr, TIMEOUT).unwrap();
    let health = http.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    assert!(
        health.text().contains("\"generation\":1"),
        "publish_all bumps the manifest once: {}",
        health.text()
    );

    // Clients hammer query 0 while the publish + reloads happen.
    let stop = Arc::new(AtomicBool::new(false));
    let saw_new = Arc::new(AtomicU64::new(0));
    let body = search_body(&query);
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let stop = stop.clone();
            let saw_new = saw_new.clone();
            let body = body.clone();
            let cold_v1 = cold_v1.clone();
            std::thread::spawn(move || {
                let mut http = HttpClient::connect(addr, TIMEOUT).unwrap();
                let mut checked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let reply = http.request("POST", "/search", body.as_bytes()).unwrap();
                    assert_eq!(reply.status, 200, "search: {}", reply.text());
                    let (complete, generation, live) = json_fingerprint(&reply.text());
                    assert!(complete);
                    match generation {
                        1 => assert_eq!(live, cold_v1, "gen-1 response differs from cold open"),
                        2 => {
                            saw_new.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("response from unexpected manifest generation {other}"),
                    }
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    // Rebuild and publish shard 1 only (one manifest bump), then fire
    // several concurrent reloads — only the manifest flip may be visible.
    {
        let mut store = ShardedStore::open(&root).unwrap();
        let spec = store.manifest().shards[1].clone();
        let shard_store = store.shard_store(1).unwrap();
        let gen_dir = shard_store.allocate().unwrap();
        let slice = CorpusSlice::new(&updated, spec.first_text, spec.num_texts as usize);
        ndss::index::build_and_write(&slice, config(), &gen_dir, true).unwrap();
        let new_gen = gen_dir.file_name().unwrap().to_string_lossy().into_owned();
        store.publish_shard(1, &new_gen, 2).unwrap();
        assert_eq!(store.manifest().generation, 2);
    }
    let reloaders: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut http = HttpClient::connect(addr, TIMEOUT).unwrap();
                let reply = http.request("POST", "/reload", b"").unwrap();
                assert_eq!(reply.status, 200, "reload: {}", reply.text());
                reply.text().contains("\"reloaded\":true")
            })
        })
        .collect();
    let swaps = reloaders
        .into_iter()
        .map(|r| r.join().unwrap())
        .filter(|&swapped| swapped)
        .count();
    assert!(swaps >= 1, "at least one racing reload must swap");

    // Let the clients observe the new view, then stop them.
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(total > 0);

    // Post-reload, the served answer matches a cold open of the new view
    // and reports the new manifest generation.
    let cold_v2 = sharded_cold_fingerprint(&root, &query);
    assert_ne!(cold_v1, cold_v2, "shard-1 rebuild must change query 0");
    let reply = http.request("POST", "/search", body.as_bytes()).unwrap();
    let (complete, generation, live) = json_fingerprint(&reply.text());
    assert!(complete);
    assert_eq!(generation, 2);
    assert_eq!(live, cold_v2, "post-reload response differs from cold open");

    server.shutdown_and_join().unwrap();
}

// ---------------------------------------------------------------------------
// Drain interaction with the fault-isolation layer.
// ---------------------------------------------------------------------------

/// Graceful drain stays prompt while a shard is quarantined and the
/// health prober is active. The prober sleeps in short slices and
/// re-checks the drain flag between them, so shutdown must never wait
/// anywhere near a full probe interval — this test gives the prober a
/// deliberately huge interval (60 s) and requires the whole drain to
/// finish in a small fraction of it.
///
/// Drain is requested through [`ServerHandle::shutdown`], the same flag
/// the SIGTERM hook sets; a raw `kill(SIGTERM)` is off-limits in-process
/// because the signal latch is process-global and would poison every
/// other test in this binary.
#[test]
fn drain_is_prompt_while_a_shard_is_quarantined() {
    use ndss::index::{FaultMode, FaultPlan};
    use ndss::query::{BreakerConfig, FaultKind, ServingOptions};

    let root = scratch("serve", "drain_quarantined");
    let (corpus, queries) = corpus_a();
    build_sharded(&corpus, config(), &root, 2, &ShardedBuildOptions::default()).unwrap();

    let plan = FaultPlan::new("shard-0001", 0);
    let serving = ServingIndex::open_with_options(
        &root,
        ServingOptions {
            cache: CacheConfig::disabled(),
            io: ndss::index::ReadOptions::with_faults(plan.clone()),
            breaker: BreakerConfig {
                failure_threshold: 1,
                backoff: Duration::from_secs(60),
                max_backoff: Duration::from_secs(60),
            },
        },
    )
    .unwrap();
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            admission_cap: 8,
            probe_interval: Some(Duration::from_secs(60)),
            ..ServeConfig::default()
        },
        serving,
    )
    .unwrap()
    .spawn();
    let addr = server.handle().addr();
    let handle = server.handle();

    // Trip shard 1's breaker: one denied read quarantines it (threshold
    // 1), and the 60 s backoff keeps it quarantined through the drain.
    // The query is a prefix of a text shard 1 owns (texts 10–19), so the
    // scatter must read that shard's postings and hit the armed tap; the
    // denial classifies as a permanent fault and trips immediately.
    plan.arm(FaultMode::Deny);
    let mut http = HttpClient::connect(addr, TIMEOUT).unwrap();
    let shard1_query: Vec<u32> = corpus.text(15)[..40].to_vec();
    let body = search_body(&shard1_query);
    let reply = http.request("POST", "/search", body.as_bytes()).unwrap();
    assert_eq!(reply.status, 200, "degraded search: {}", reply.text());
    assert!(
        reply.text().contains("degraded_shards"),
        "expected a degraded response: {}",
        reply.text()
    );
    assert!(reply.text().contains(FaultKind::Permanent.label()));
    let _ = &queries; // healthy-path queries are exercised elsewhere

    // Drain with the shard still quarantined and the prober mid-sleep of
    // its 60 s interval. The whole shutdown must take a small fraction of
    // that interval.
    let started = std::time::Instant::now();
    handle.shutdown();
    let report = server.shutdown_and_join().unwrap();
    let took = started.elapsed();
    assert!(report.http_requests >= 1);
    assert!(
        took < Duration::from_secs(5),
        "drain blocked on the prober: took {took:?} against a 60 s probe interval"
    );
}
