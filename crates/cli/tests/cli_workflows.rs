//! Integration tests driving the CLI commands end to end through the
//! library entry points (no subprocess spawning, so failures carry real
//! error messages) — except where a test compares what a command prints.

use ndss_cli::args::Args;
use ndss_cli::dispatch;

fn args(tokens: &[&str]) -> Args {
    Args::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

fn workdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ndss_cli_it_{}", std::process::id()))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn synth_index_search_workflow() {
    let dir = workdir("basic");
    let corpus = dir.join("c.ndsc").display().to_string();
    let index = dir.join("idx").display().to_string();
    let prov = dir.join("prov.jsonl").display().to_string();

    dispatch(
        "synth",
        &args(&[
            "--out",
            &corpus,
            "--texts",
            "200",
            "--vocab",
            "3000",
            "--seed",
            "3",
            "--provenance",
            &prov,
            "--mutation",
            "0.0",
            "--dup-rate",
            "1.0",
        ]),
    )
    .unwrap();
    assert!(std::path::Path::new(&corpus).exists());
    let prov_line = std::fs::read_to_string(&prov).unwrap();
    assert!(
        prov_line.lines().count() > 20,
        "expected many planted pairs"
    );

    dispatch(
        "index",
        &args(&[
            "--corpus", &corpus, "--out", &index, "--k", "16", "--t", "25",
        ]),
    )
    .unwrap();
    assert!(std::path::Path::new(&index).join("meta.json").exists());

    // Query with a planted copy span taken from the provenance file:
    // {"src":[t,s,e],"dst":[t,s,e],...}
    let first = prov_line.lines().next().unwrap();
    let dst = first.split("\"dst\":[").nth(1).unwrap();
    let nums: Vec<u32> = dst
        .split(']')
        .next()
        .unwrap()
        .split(',')
        .map(|n| n.parse().unwrap())
        .collect();
    let span = format!("{}:{}:{}", nums[0], nums[1], nums[2]);
    dispatch(
        "search",
        &args(&[
            "--index",
            &index,
            "--corpus",
            &corpus,
            "--query-span",
            &span,
            "--theta",
            "0.9",
            "--top",
            "5",
        ]),
    )
    .unwrap();

    dispatch("stats", &args(&["--corpus", &corpus, "--index", &index])).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compressed_and_external_index_workflow() {
    let dir = workdir("compressed");
    let corpus = dir.join("c.ndsc").display().to_string();
    let plain = dir.join("idx_plain").display().to_string();
    let packed = dir.join("idx_packed").display().to_string();

    dispatch(
        "synth",
        &args(&[
            "--out", &corpus, "--texts", "120", "--vocab", "2000", "--seed", "9",
        ]),
    )
    .unwrap();
    dispatch(
        "index",
        &args(&[
            "--corpus", &corpus, "--out", &plain, "--k", "4", "--t", "20", "--format", "v3",
        ]),
    )
    .unwrap();
    dispatch(
        "index",
        &args(&[
            "--corpus",
            &corpus,
            "--out",
            &packed,
            "--k",
            "4",
            "--t",
            "20",
            "--format",
            "v4",
            "--external",
            "--memory-budget",
            "65536",
        ]),
    )
    .unwrap();
    // Compressed external index is smaller than the plain one.
    let size = |d: &str| -> u64 {
        std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum()
    };
    assert!(size(&packed) < size(&plain));

    // Both answer a search without error.
    for idx in [&plain, &packed] {
        dispatch(
            "search",
            &args(&[
                "--index",
                idx,
                "--corpus",
                &corpus,
                "--query-span",
                "5:10:80",
                "--theta",
                "0.8",
            ]),
        )
        .unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--format` is the one spelling of the posting encoding: each value
/// lands in the index-file header, v6 (packed — what `ndss ingest`, the
/// daemon's stores and the benchmark build) is the default, anything else
/// is an error, the retired v5 included.
#[test]
fn format_flag_selects_the_encoding() {
    let dir = workdir("format");
    let corpus = dir.join("c.ndsc").display().to_string();
    dispatch(
        "synth",
        &args(&["--out", &corpus, "--texts", "30", "--seed", "11"]),
    )
    .unwrap();
    for (format, version) in [
        (None, 6u32),
        (Some("v3"), 3),
        (Some("v4"), 4),
        (Some("v6"), 6),
    ] {
        let out = dir.join(format.unwrap_or("default"));
        let out_arg = out.display().to_string();
        let mut tokens = vec!["--corpus", &corpus, "--out", &out_arg, "--k", "2"];
        if let Some(format) = format {
            tokens.extend(["--format", format]);
        }
        dispatch("index", &args(&tokens)).unwrap();
        let header = std::fs::read(out.join("inv_0.ndsi")).unwrap();
        assert_eq!(
            u32::from_le_bytes(header[4..8].try_into().unwrap()),
            version,
            "--format {format:?}"
        );
    }
    let out = dir.join("bad").display().to_string();
    for bad in ["v2", "v5"] {
        let err = dispatch(
            "index",
            &args(&["--corpus", &corpus, "--out", &out, "--format", bad]),
        )
        .unwrap_err();
        assert!(err.contains("--format"), "got: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag the command does not read is refused with the command's usage —
/// the removed `--compress` and a misspelt `--fromat` used to build the
/// default format without a word.
#[test]
fn unknown_flags_are_an_error_with_the_usage_line() {
    let dir = workdir("unknown_flags");
    let corpus = dir.join("c.ndsc").display().to_string();
    dispatch(
        "synth",
        &args(&["--out", &corpus, "--texts", "10", "--seed", "3"]),
    )
    .unwrap();
    let out = dir.join("idx");
    let out_arg = out.display().to_string();
    for (extra, named) in [
        (&["--compress"][..], "--compress"),
        (&["--fromat", "v4"][..], "--fromat"),
    ] {
        let mut tokens = vec!["--corpus", &corpus, "--out", &out_arg, "--k", "2"];
        tokens.extend(extra);
        let err = dispatch("index", &args(&tokens)).unwrap_err();
        assert!(err.contains(&format!("unknown flag {named}")), "got: {err}");
        assert!(
            err.contains("--corpus FILE --out DIR") && err.contains("--format v3|v4|v6"),
            "no usage line in: {err}"
        );
        assert!(!out.exists(), "{named}: the build ran anyway");
    }
    // A removed flag gets the same refusal as a typo.
    let err = dispatch(
        "serve",
        &args(&["--index", &out_arg, "--max-body-bytes", "1024"]),
    )
    .unwrap_err();
    assert!(
        err.contains("unknown flag --max-body-bytes") && err.contains("--index DIR [--addr"),
        "got: {err}"
    );
    // Every command checks, including the ones with no optional flags.
    for command in ["synth", "search", "serve", "verify", "rollback"] {
        let err = dispatch(command, &args(&["--no-such-flag"])).unwrap_err();
        assert!(
            err.contains("unknown flag --no-such-flag") && err.contains(command),
            "{command}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--queries-file` batch reports every query: under a per-query budget
/// of one candidate text, which trips on the planted queries (they have
/// several) and not on the unmatched ones, each query gets its own line in
/// input order, the partial ones are marked, and the output ends with the
/// completed / partial / failed counts.
#[test]
fn queries_file_reports_every_query_under_a_budget() {
    use ndss::json::Json;
    use ndss::prelude::{CorpusSource, DiskCorpus, SeqRef};

    let dir = workdir("batch_budget");
    let corpus = dir.join("c.ndsc").display().to_string();
    let index = dir.join("idx").display().to_string();
    let prov = dir.join("prov.jsonl").display().to_string();
    dispatch(
        "synth",
        &args(&[
            "--out",
            &corpus,
            "--texts",
            "80",
            "--seed",
            "5",
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
            "--corpus", &corpus, "--out", &index, "--k", "16", "--t", "20",
        ]),
    )
    .unwrap();

    // Four planted copies whose source is another text, then two queries
    // of tokens no text holds.
    let texts = DiskCorpus::open(std::path::Path::new(&corpus)).unwrap();
    let mut lines: Vec<String> = std::fs::read_to_string(&prov)
        .unwrap()
        .lines()
        .map(|line| {
            let doc = Json::parse(line).unwrap();
            let [src, dst] = ["src", "dst"].map(|key| -> Vec<u32> {
                let part = doc.get(key).unwrap().as_array().unwrap();
                part.iter().map(|n| n.as_u64().unwrap() as u32).collect()
            });
            (src[0], SeqRef::new(dst[0], dst[1], dst[2]))
        })
        .filter(|(src, dst)| *src != dst.text)
        .take(4)
        .map(|(_, dst)| {
            let tokens = texts.sequence_to_vec(dst).unwrap();
            tokens
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    assert_eq!(lines.len(), 4, "too few planted copies across texts");
    for base in [4_000_000u32, 5_000_000] {
        lines.push(
            (base..base + 40)
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, lines.join("\n")).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ndss"))
        .args(["search", "--index", &index, "--queries-file"])
        .arg(&queries)
        .args(["--theta", "0.8", "--threads", "2", "--max-candidates", "1"])
        .output()
        .expect("spawn ndss binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let answers: Vec<&str> = stdout.lines().filter(|l| l.starts_with("query ")).collect();
    assert_eq!(answers.len(), 6, "{stdout}");
    for (i, line) in answers.iter().enumerate() {
        assert!(line.starts_with(&format!("query {i:>5}: ")), "{stdout}");
        let partial = line.ends_with("[partial: budget exhausted]");
        assert_eq!(partial, i < 4, "query {i}: {line}");
    }
    assert_eq!(
        stdout.lines().last(),
        Some("governance: 2 completed, 4 partial (budget), 0 failed"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The batch-governor flags are gone: each is refused by name, like any
/// flag `ndss search` does not read. (Spelled in pieces, so that searching
/// the tree for the deleted names finds no live use of them.)
#[test]
fn removed_batch_flags_are_refused_by_name() {
    let removed = [
        concat!("--failure", "-policy"),
        "--admission-cap",
        concat!("--batch", "-deadline-ms"),
    ];
    for flag in removed {
        let err = dispatch(
            "search",
            &args(&["--index", "idx", "--queries-file", "q.txt", flag, "1"]),
        )
        .unwrap_err();
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "{flag}: {err}"
        );
    }
}

#[test]
fn merge_workflow() {
    let dir = workdir("merge");
    let c1 = dir.join("c1.ndsc").display().to_string();
    let c2 = dir.join("c2.ndsc").display().to_string();
    let i1 = dir.join("i1").display().to_string();
    let i2 = dir.join("i2").display().to_string();
    let out = dir.join("merged").display().to_string();
    dispatch(
        "synth",
        &args(&["--out", &c1, "--texts", "50", "--seed", "1"]),
    )
    .unwrap();
    dispatch(
        "synth",
        &args(&["--out", &c2, "--texts", "60", "--seed", "2"]),
    )
    .unwrap();
    for (c, i) in [(&c1, &i1), (&c2, &i2)] {
        dispatch(
            "index",
            &args(&[
                "--corpus", c, "--out", i, "--k", "4", "--t", "25", "--seed", "5",
            ]),
        )
        .unwrap();
    }
    let inputs = format!("{i1},{i2}");
    dispatch("merge", &args(&["--out", &out, "--inputs", &inputs])).unwrap();
    assert!(std::path::Path::new(&out).join("meta.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A merge is redone, not resumed: `ndss merge --resume` is refused as a
/// flag the command does not read, while an external build still resumes.
#[test]
fn merge_refuses_resume_and_external_build_takes_it() {
    let dir = workdir("merge_resume");
    let corpus = dir.join("c.ndsc").display().to_string();
    let idx = dir.join("idx").display().to_string();
    let ext = dir.join("ext").display().to_string();
    dispatch(
        "synth",
        &args(&["--out", &corpus, "--texts", "40", "--seed", "4"]),
    )
    .unwrap();
    let index = |out: &str, extra: &[&str]| {
        let mut flags = vec!["--corpus", &corpus, "--out", out, "--k", "4", "--t", "25"];
        flags.extend_from_slice(extra);
        dispatch("index", &args(&flags))
    };
    index(&idx, &[]).unwrap();
    let inputs = format!("{idx},{idx}");
    let merged = dir.join("merged").display().to_string();
    let err = dispatch(
        "merge",
        &args(&["--out", &merged, "--inputs", &inputs, "--resume"]),
    )
    .unwrap_err();
    assert!(err.contains("unknown flag --resume"), "{err}");
    assert!(
        !std::path::Path::new(&merged).exists(),
        "refused before it ran"
    );

    let budget = ["--external", "--memory-budget", "8192", "--resume"];
    index(&ext, &budget).unwrap();
    assert!(std::path::Path::new(&ext).join("meta.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tokenize_and_memorize_workflow() {
    let dir = workdir("tok_mem");
    let input = dir.join("docs.txt");
    // A small document collection with repeated lines (duplication to
    // memorize).
    let mut docs = String::new();
    for i in 0..40 {
        docs.push_str(&format!(
            "the quick brown fox number {} jumps over the lazy dog again and again and again\n",
            i % 5
        ));
    }
    std::fs::write(&input, docs).unwrap();
    let corpus = dir.join("c.ndsc").display().to_string();
    let tok = dir.join("tok.json").display().to_string();
    let index = dir.join("idx").display().to_string();
    dispatch(
        "tokenize",
        &args(&[
            "--input",
            &input.display().to_string(),
            "--out",
            &corpus,
            "--tokenizer",
            &tok,
            "--vocab-size",
            "400",
        ]),
    )
    .unwrap();
    dispatch(
        "index",
        &args(&["--corpus", &corpus, "--out", &index, "--k", "8", "--t", "5"]),
    )
    .unwrap();
    dispatch(
        "memorize",
        &args(&[
            "--corpus", &corpus, "--index", &index, "--order", "3", "--texts", "3", "--len", "32",
            "--window", "8", "--thetas", "0.8",
        ]),
    )
    .unwrap();
    // Raw-text query through the trained tokenizer.
    dispatch(
        "search",
        &args(&[
            "--index",
            &index,
            "--corpus",
            &corpus,
            "--tokenizer",
            &tok,
            "--query",
            "the quick brown fox number 1 jumps over the lazy dog",
            "--theta",
            "0.7",
        ]),
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memorize_prints_the_same_table_over_a_sharded_store() {
    let dir = workdir("mem_sharded");
    let corpus = dir.join("c.ndsc").display().to_string();
    let plain = dir.join("plain").display().to_string();
    let store = dir.join("store").display().to_string();
    dispatch(
        "synth",
        &args(&[
            "--out",
            &corpus,
            "--texts",
            "80",
            "--seed",
            "4",
            "--dup-rate",
            "2.0",
            "--mutation",
            "0.0",
        ]),
    )
    .unwrap();
    let build = ["--corpus", &corpus, "--k", "16", "--t", "20", "--out"];
    dispatch("index", &args(&[&build[..], &[&plain]].concat())).unwrap();
    dispatch(
        "index",
        &args(&[&build[..], &[&store, "--store", "--shards", "2"]].concat()),
    )
    .unwrap();
    let table = |index: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ndss"))
            .args(["memorize", "--corpus", &corpus, "--index", index])
            .args(["--order", "5", "--texts", "4", "--len", "128"])
            .args(["--window", "32", "--thetas", "0.9,0.7,0.8"])
            .output()
            .expect("spawn ndss binary");
        assert!(
            out.status.success(),
            "ndss memorize --index {index} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let expected = table(&plain);
    // Three rows in the order the thresholds were given, not all empty.
    let rows: Vec<&str> = expected.lines().collect();
    let rows = &rows[rows.len() - 3..];
    assert!(rows
        .iter()
        .zip(["0.9", "0.7", "0.8"])
        .all(|(row, theta)| row.starts_with(theta)));
    assert!(
        rows.iter().any(|row| !row.contains(" 0.0%")),
        "nothing memorized:\n{expected}"
    );
    assert_eq!(table(&store), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generation_store_lifecycle_workflow() {
    let dir = workdir("store");
    let corpus = dir.join("c.ndsc").display().to_string();
    let store = dir.join("store").display().to_string();
    dispatch(
        "synth",
        &args(&["--out", &corpus, "--texts", "80", "--seed", "4"]),
    )
    .unwrap();

    // First build lands in seg-0000 and is published in the MANIFEST.
    let index_args = [
        "--corpus",
        &corpus,
        "--out",
        &store,
        "--k",
        "4",
        "--t",
        "20",
        "--external",
        "--store",
    ];
    dispatch("index", &args(&index_args)).unwrap();
    let serving = || {
        let manifest = ndss::index::Manifest::load(std::path::Path::new(&store));
        manifest.unwrap().unwrap().dirs().join(",")
    };
    assert_eq!(serving(), "seg-0000");

    // The store root is transparently searchable and verifiable.
    dispatch(
        "search",
        &args(&[
            "--index",
            &store,
            "--corpus",
            &corpus,
            "--query-span",
            "5:0:60",
            "--theta",
            "0.8",
        ]),
    )
    .unwrap();
    dispatch("verify", &args(&["--store", &store])).unwrap();

    // Second build becomes seg-0001; keep=1 retains seg-0000 for rollback.
    dispatch("index", &args(&index_args)).unwrap();
    assert_eq!(serving(), "seg-0001");
    assert!(std::path::Path::new(&store).join("seg-0000").is_dir());

    // Rollback serves the previous list; publishing seg-0001 by name
    // returns to it. Per-shard lifecycle flags are refused by name.
    dispatch("rollback", &args(&["--store", &store])).unwrap();
    assert_eq!(serving(), "seg-0000");
    for command in ["publish", "rollback"] {
        let refused = dispatch(command, &args(&["--store", &store, "--shard", "0"])).unwrap_err();
        assert!(refused.contains("--shard"), "{refused}");
    }
    dispatch(
        "publish",
        &args(&["--store", &store, "--segments", "seg-0001"]),
    )
    .unwrap();
    assert_eq!(serving(), "seg-0001");

    // Corrupting the serving segment turns `verify --store` into a failure
    // (nonzero exit); rolling back to the intact one restores it.
    let victim = std::path::Path::new(&store)
        .join("seg-0001")
        .join("inv_0.ndsi");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&victim, &bytes).unwrap();
    assert!(dispatch("verify", &args(&["--store", &store])).is_err());
    dispatch("rollback", &args(&["--store", &store])).unwrap();
    assert_eq!(serving(), "seg-0000");
    dispatch("verify", &args(&["--store", &store])).unwrap();
    // The rotten segment, now retained, can be neither published nor
    // rolled back to.
    assert!(dispatch(
        "publish",
        &args(&["--store", &store, "--segments", "seg-0001"])
    )
    .is_err());
    assert!(dispatch("rollback", &args(&["--store", &store])).is_err());
    assert_eq!(serving(), "seg-0000");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported_not_panicked() {
    // Unknown command.
    assert!(dispatch("frobnicate", &args(&[])).is_err());
    // Missing required flags.
    assert!(dispatch("synth", &args(&[])).is_err());
    assert!(dispatch("index", &args(&["--corpus", "/nonexistent.ndsc"])).is_err());
    assert!(dispatch(
        "search",
        &args(&[
            "--index",
            "/nonexistent",
            "--theta",
            "0.8",
            "--query-tokens",
            "1,2"
        ])
    )
    .is_err());
    // Invalid values.
    assert!(dispatch(
        "synth",
        &args(&["--out", "/tmp/x.ndsc", "--min-len", "10", "--max-len", "5"])
    )
    .is_err());
    assert!(dispatch("merge", &args(&["--out", "/tmp/m", "--inputs", "one_dir"])).is_err());
    // A bad threshold is refused before anything is opened, let alone the
    // model trained and texts generated.
    let refused = dispatch(
        "memorize",
        &args(&[
            "--corpus",
            "/nonexistent.ndsc",
            "--index",
            "/nonexistent",
            "--thetas",
            "0.8,1.5",
        ]),
    )
    .unwrap_err();
    assert!(refused.contains("--thetas 1.5"), "{refused}");
    // --resume is a journaled-external-build feature.
    assert!(dispatch(
        "index",
        &args(&[
            "--corpus",
            "/nonexistent.ndsc",
            "--out",
            "/tmp/i",
            "--resume"
        ])
    )
    .is_err());
    // Lifecycle commands need a store.
    assert!(dispatch("publish", &args(&[])).is_err());
    assert!(dispatch("rollback", &args(&["--store", "/nonexistent_store"])).is_err());
}
