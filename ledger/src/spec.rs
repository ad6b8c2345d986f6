//! The benchmark's fixed parameters, workloads and metric tables.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`ledger emit-benchmark-json`) and a unit test keeps the two equal, so a
//! bound or a metric name is edited in exactly one place.

/// Index and query parameters, the same in every workload.
pub const K: usize = 32;
pub const T: usize = 25;
pub const THETA: f64 = 0.8;
pub const HASH_SEED: u64 = 1234;
pub const QUERY_LEN: usize = 64;
/// Ranked matches asked for per served request.
pub const TOP: u32 = 10;

/// Corpus shape (`ndss_bench::owt_like(2, 32_000, seed)`).
pub const TEXTS: usize = 4_000;
pub const VOCAB: usize = 32_000;
pub const ZIPF: f64 = 1.05;
pub const TEXT_LEN: (usize, usize) = (200, 600);
pub const DUP_RATE: f64 = 0.4;
pub const DUP_LEN: (usize, usize) = (60, 150);
pub const MUTATION: f64 = 0.05;

/// Distinct queries per search workload; the timed loop cycles through them.
pub const MEMORIZED_QUERIES: usize = 2_000;
pub const NOVEL_QUERIES: usize = 8_000;
/// Queries checked against the brute-force oracle per run.
pub const ORACLE_QUERIES: usize = 32;

/// Serving: shards, admission cap, open-loop rates (q/s) and the limit.
pub const SHARDS: usize = 2;
pub const ADMISSION_CAP: usize = 2;
pub const RATES: [u32; 3] = [100, 200, 400];
/// The rate whose latency is the end-to-end figure: the lowest, where two
/// connections are a third busy and queueing does not amplify the host's
/// own drift (at 200 q/s it does: p95 moved by 29 % between runs).
pub const REFERENCE_RATE: u32 = 100;
pub const LATENCY_LIMIT_MS: f64 = 10.0;
/// Served query mix: one memorized query, then three novel ones.
pub const NOVEL_PER_MEMORIZED: usize = 3;

/// Ingest: flush policy and cadence. A batch is the unit of durable ack.
pub const FSYNC_EVERY: u64 = 256;
pub const BATCH_TEXTS: usize = 16;
pub const ROUND_TEXTS: usize = 512;
pub const SEARCHES_PER_BATCH: usize = 4;
/// Texts appended after the last compaction and left in the WAL, so that
/// reopening the store has something to recover.
pub const TAIL_TEXTS: usize = 256;
/// Acked texts probed after recovery (evenly spaced over all ingested).
pub const RECOVERY_PROBES: usize = 256;

/// How many times a workload sets up from scratch; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
/// `run_seconds` in `BENCHMARK.json`: as long as the driver's cap on the
/// total time of all its runs allows with two workloads.
pub const RUN_SECONDS: u64 = 50;
/// The longest a traced run replays its own stage: the span recorder keeps
/// every span in memory (five per query, 14 000 queries a second).
pub const TRACED_SECONDS: f64 = 16.0;

/// The workloads `BENCHMARK.json` lists: the ones the driver runs and holds
/// to the bounds. The ledger has two more, `serve_open_loop` and
/// `write_path`, which the suite runs and every traced run samples, but
/// whose figures the shared reference host does not repeat well enough to
/// be held to a bound in the time the driver allows; see the README.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "search_memorized",
        "every query is a window of a planted copy: candidates on every query, so the zone-map probe stage dominates (paper section 5, memorised generations)",
    ),
    (
        "search_novel",
        "queries from a second corpus with no planted copies: candidates are rare, time goes to sketch, plan, short-list gather and cache; the bypass workload for probe changes",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these with tracing off. What an
/// "op" is per workload is in the README.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "build_tokens_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "index_bytes_per_token",
        unit: "B/token",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "write_bytes_per_user_byte",
        unit: "B/B",
        better: Better::Lower,
        bound: 0.04,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn down(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Every workload reports every one of these with tracing on. The README
/// maps each to its layer and to the end-to-end metric it should move.
pub const PER_LAYER: [PerLayer; 86] = [
    // hash, rmq, windows
    down("hash.sketch_ns_per_token", "ns"),
    down("rmq.build_ns_per_elem", "ns"),
    down("rmq.query_ns", "ns"),
    down("windows.gen_ns_per_token", "ns"),
    down("windows.per_token", "1/token"),
    // index.build, index.format
    down("index.build.mem_s", "s"),
    down("index.build.write_s", "s"),
    down("index.build.external_s", "s"),
    down("index.open_ms", "ms"),
    down("index.bytes_per_token.v3", "B/token"),
    down("index.bytes_per_token.v4", "B/token"),
    down("index.bytes_per_token.v5", "B/token"),
    down("index.bound_ratio.v5", "ratio"),
    // index.read, bitpack
    down("index.read.list_ns_per_posting.pread", "ns"),
    down("index.read.list_ns_per_posting.mmap", "ns"),
    down("index.read.probe_ns.pread", "ns"),
    down("index.read.probe_ns.mmap", "ns"),
    up("index.cache.hit_rate", "ratio"),
    down("bitpack.unpack_ns_per_block", "ns"),
    down("bitpack.unpack_ns_per_block.scalar", "ns"),
    // query primitives
    down("query.plan_ns", "ns"),
    down("query.planner.adaptive_slowdown", "ratio"),
    down("query.collision_ns_per_window", "ns"),
    down("query.interval_ns_per_interval", "ns"),
    // query.search, from SearchOutcome.stats on the workload's queries
    down("query.stage_share.sketch", "ratio"),
    down("query.stage_share.plan", "ratio"),
    down("query.stage_share.gather", "ratio"),
    down("query.stage_share.count", "ratio"),
    down("query.stage_share.probe", "ratio"),
    down("query.postings_per_query", "count"),
    down("query.probes_per_query", "count"),
    down("query.candidates_per_query", "count"),
    down("query.lists_long_per_query", "count"),
    down("query.io_bytes_per_query", "B"),
    up("query.matched_per_candidate", "ratio"),
    down("query.rank_us", "us"),
    up("query.search_qps", "1/s"),
    down("query.search_p50_us", "us"),
    // searcher wrappers
    down("query.sharded.overhead_us", "us"),
    down("query.overlay.overhead_us", "us"),
    down("query.overlay.mem_share", "ratio"),
    down("query.overlay.search_p50_us", "us"),
    up("query.batch.qps_t1", "1/s"),
    up("query.batch.qps_tN", "1/s"),
    // serve codecs
    down("serve.frame.encode_req_ns", "ns"),
    down("serve.frame.decode_req_ns", "ns"),
    down("serve.frame.encode_resp_ns", "ns"),
    down("serve.frame.decode_resp_ns", "ns"),
    down("serve.http.parse_ns", "ns"),
    down("serve.http.write_ns", "ns"),
    down("json.parse_ns_per_byte", "ns"),
    down("json.emit_ns_per_byte", "ns"),
    // serve.server
    down("serve.ping_rtt_us", "us"),
    down("serve.inproc_p50_us", "us"),
    down("serve.overhead_us.ndsb", "us"),
    down("serve.overhead_us.http", "us"),
    up("serve.closed_qps", "1/s"),
    down("serve.latency_p50_ms.r100", "ms"),
    down("serve.latency_p50_ms.r200", "ms"),
    down("serve.latency_p50_ms.r400", "ms"),
    down("serve.latency_p99_ms.r100", "ms"),
    down("serve.latency_p99_ms.r200", "ms"),
    down("serve.latency_p99_ms.r400", "ms"),
    up("serve.max_rate_ok", "1/s"),
    down("serve.shed_share", "ratio"),
    down("serve.conn_error_share", "ratio"),
    // index.wal, index.ingest
    down("index.wal.append_us_per_text", "us"),
    down("index.wal.sync_ms", "ms"),
    down("index.ingest.rotate_ms", "ms"),
    down("index.ingest.compact_s", "s"),
    down("index.ingest.compact_bytes_written", "B"),
    down("index.ingest.stall_max_ms", "ms"),
    down("index.ingest.recover_s", "s"),
    up("index.ingest.tokens_per_s", "1/s"),
    down("index.ingest.ack_p95_ms", "ms"),
    // obs, corpus, memory
    down("obs.overhead_pct", "%"),
    down("corpus.synth_s", "s"),
    down("mem.setup_peak_mib", "MiB"),
    down("mem.timed_rss_mib", "MiB"),
    // the run itself
    down("loadgen.late_p95_ms", "ms"),
    down("trace.overhead_pct", "%"),
    down("trace.harness_share", "ratio"),
    up("trace.self_time_coverage", "ratio"),
    up("trace.spans", "count"),
    down("harness.failed_share", "ratio"),
    up("harness.checked_ops", "count"),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"ledger/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"ledger\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `ledger emit-benchmark-json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
