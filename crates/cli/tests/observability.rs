//! Integration tests for the observability surface: `ndss search
//! --profile`, `--metrics-out` exporters, and `ndss stats --metrics`.
//!
//! Output-text assertions drive the real binary (profile tables and the
//! stats rendering print to stdout); file-based assertions go through the
//! in-process `dispatch` entry point and validate the written artifacts
//! with the exporter's own structural validator and the JSON parser.

use std::path::{Path, PathBuf};
use std::process::Command;

use ndss::json::Json;
use ndss::obs::validate_prometheus_text;
use ndss_cli::args::Args;
use ndss_cli::dispatch;

fn args(tokens: &[&str]) -> Args {
    Args::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ndss_obs_it_{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Synthesizes a corpus and builds an index under `dir`; returns
/// `(corpus_path, index_dir, a planted query span "text:start:end")`.
fn corpus_and_index(dir: &Path) -> (String, String, String) {
    let corpus = dir.join("c.ndsc").display().to_string();
    let index = dir.join("idx").display().to_string();
    let prov = dir.join("prov.jsonl").display().to_string();
    dispatch(
        "synth",
        &args(&[
            "--out",
            &corpus,
            "--texts",
            "150",
            "--vocab",
            "2000",
            "--seed",
            "11",
            "--dup-rate",
            "1.0",
            "--mutation",
            "0.0",
            "--provenance",
            &prov,
        ]),
    )
    .unwrap();
    dispatch(
        "index",
        &args(&[
            "--corpus", &corpus, "--out", &index, "--k", "16", "--t", "25",
        ]),
    )
    .unwrap();
    let prov_line = std::fs::read_to_string(&prov).unwrap();
    let dst = prov_line.lines().next().unwrap();
    let nums: Vec<u32> = dst
        .split("\"dst\":[")
        .nth(1)
        .unwrap()
        .split(']')
        .next()
        .unwrap()
        .split(',')
        .map(|n| n.parse().unwrap())
        .collect();
    let span = format!("{}:{}:{}", nums[0], nums[1], nums[2]);
    (corpus, index, span)
}

fn run_bin(argv: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ndss"))
        .args(argv)
        .output()
        .expect("spawn ndss binary");
    assert!(
        out.status.success(),
        "ndss {argv:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn search_profile_prints_stage_breakdown() {
    let dir = workdir("profile");
    let (corpus, index, span) = corpus_and_index(&dir);
    let (stdout, _) = run_bin(&[
        "search",
        "--index",
        &index,
        "--corpus",
        &corpus,
        "--query-span",
        &span,
        "--theta",
        "0.8",
        "--profile",
    ]);
    assert!(stdout.contains("query profile (1 query)"), "{stdout}");
    for stage in ["sketch", "plan", "gather", "count", "probe"] {
        assert!(stdout.contains(stage), "missing stage {stage}:\n{stdout}");
    }
    assert!(stdout.contains("total"), "{stdout}");
    assert!(stdout.contains("KiB read"), "{stdout}");
    assert!(stdout.contains("hit"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_profile_prints_aggregate_and_percentiles() {
    let dir = workdir("batch_profile");
    let (corpus, index, span) = corpus_and_index(&dir);
    // Build a small queries file from the planted span plus fixed tokens.
    let parts: Vec<u32> = span.split(':').map(|p| p.parse().unwrap()).collect();
    let mut lines = Vec::new();
    for shift in 0..6u32 {
        lines.push(format!(
            "# query {shift}\n{}",
            (parts[1]..=parts[2])
                .map(|i| (i + shift).to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    let qfile = dir.join("queries.txt");
    std::fs::write(&qfile, lines.join("\n")).unwrap();
    let _ = corpus;
    let (stdout, _) = run_bin(&[
        "search",
        "--index",
        &index,
        "--queries-file",
        &qfile.display().to_string(),
        "--theta",
        "0.8",
        "--threads",
        "2",
        "--profile",
    ]);
    assert!(stdout.contains("query profile (6 queries)"), "{stdout}");
    assert!(stdout.contains("latency: p50"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_out_writes_valid_prometheus_and_json() {
    let dir = workdir("exporters");
    let (_corpus, index, span) = corpus_and_index(&dir);
    let prom_path = dir.join("m.prom").display().to_string();
    let json_path = dir.join("m.json").display().to_string();

    // Two in-process searches: one exporting Prometheus text, one JSON.
    // (Same process ⇒ the registry accumulates across both.)
    for out in [&prom_path, &json_path] {
        dispatch(
            "search",
            &args(&[
                "--index",
                &index,
                "--corpus",
                &_corpus,
                "--query-span",
                &span,
                "--theta",
                "0.8",
                "--metrics-out",
                out,
            ]),
        )
        .unwrap();
    }

    let prom = std::fs::read_to_string(&prom_path).unwrap();
    validate_prometheus_text(&prom).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{prom}"));
    // The query path must show up with derived names and suffixes.
    assert!(prom.contains("ndss_query_count_total"), "{prom}");
    assert!(prom.contains("ndss_query_seconds_bucket"), "{prom}");
    assert!(prom.contains("ndss_index_io_bytes_total"), "{prom}");
    assert!(prom.contains("ndss_durable_fsyncs"), "{prom}");

    let json = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    let metrics = json.get("metrics").and_then(|m| m.as_array()).unwrap();
    assert!(!metrics.is_empty());
    let find = |name: &str| {
        metrics
            .iter()
            .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("metric {name} missing from JSON export"))
    };
    // At least the two searches above ran in this process by export time
    // (≥, not ==: the registry is process-global and other in-process
    // tests may also search).
    let queries = find("query.count").get("value").unwrap().as_u64().unwrap();
    assert!(queries >= 2, "query.count {queries}");
    let hist_count = find("query.seconds")
        .get("histogram")
        .and_then(|h| h.get("count"))
        .and_then(|c| c.as_u64())
        .unwrap();
    assert!(hist_count >= 2, "query.seconds count {hist_count}");
    assert!(
        find("index.io.bytes")
            .get("value")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_metrics_renders_registry() {
    let dir = workdir("stats_metrics");
    let (corpus, index, _span) = corpus_and_index(&dir);
    let (stdout, _) = run_bin(&["stats", "--corpus", &corpus, "--index", &index, "--metrics"]);
    assert!(stdout.contains("process metrics:"), "{stdout}");
    // The stats scan reads every text of the disk corpus.
    assert!(stdout.contains("corpus.io.bytes"), "{stdout}");
    assert!(stdout.contains("durable.fsyncs"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_metrics_out_json_parses() {
    let dir = workdir("stats_export");
    let (corpus, index, _span) = corpus_and_index(&dir);
    let out = dir.join("stats.json").display().to_string();
    dispatch(
        "stats",
        &args(&[
            "--corpus",
            &corpus,
            "--index",
            &index,
            "--metrics-out",
            &out,
        ]),
    )
    .unwrap();
    let json = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert!(json
        .get("metrics")
        .and_then(|m| m.as_array())
        .is_some_and(|m| !m.is_empty()));
    std::fs::remove_dir_all(&dir).ok();
}
