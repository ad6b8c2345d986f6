//! `ledger`: the repository's one seeded benchmark. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and how to read the output.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one workload, once (what the driver runs)
//! ledger [--seed N] [--seconds S] [--trace]              every workload, each in a child process
//! ledger --smoke                                         every workload for 2 s, output contract only
//! ledger --aa N                                          2 x N suites alternating, then compare
//! ledger compare A.json B.json                           apply BENCHMARK.json's bounds
//! ledger emit-benchmark-json                             print BENCHMARK.json from the spec tables
//! ```

mod adapter;
mod check;
mod common;
mod compare;
mod host;
mod layers;
mod load;
mod report;
mod run;
mod search;
mod serve;
mod spec;
mod stats;
mod trace;
mod write;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ndss::json::Json;

use common::{Options, Workload};

/// Exit codes: the run was incorrect, or it could not be made at all.
const EXIT_INCORRECT: u8 = 1;
const EXIT_ERROR: u8 = 2;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `--trace`, `--trace 0` or `--trace 1`.
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
    setup_repeats: Option<usize>,
    benchmark: PathBuf,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        benchmark: PathBuf::from("BENCHMARK.json"),
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = Some(value("--aa")?.parse().map_err(|e| format!("--aa: {e}"))?),
            "--setup-repeats" => {
                args.setup_repeats = Some(
                    value("--setup-repeats")?
                        .parse()
                        .map_err(|e| format!("--setup-repeats: {e}"))?,
                )
            }
            "--benchmark" => args.benchmark = PathBuf::from(value("--benchmark")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

/// One workload in this process: the mode the driver uses.
fn run_workload(args: &Args, name: &str) -> Result<ExitCode, adapter::Error> {
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(spec::RUN_SECONDS as f64),
        traced: args.trace,
        setup_repeats: args.setup_repeats.unwrap_or(spec::SETUP_REPEATS),
    };
    println!(
        "host {}",
        report::host_json(Path::new(".")).to_string_compact()
    );
    let result = run::run(&opts)?;
    result.print_table();
    let problems = result.contract_violations();
    if !problems.is_empty() {
        return Err(format!("output contract broken: {}", problems.join("; ")).into());
    }
    println!("{}", result.result_line());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// Runs one workload in a child process, passes its output through, and
/// returns its result line as a results-file entry.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeats: usize,
) -> Result<(Json, bool), adapter::Error> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--setup-repeats", &repeats.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    for line in stdout.lines().filter(|l| *l != last) {
        println!("{line}");
    }
    if output.status.code().is_none_or(|c| c >= EXIT_ERROR as i32) {
        return Err(format!("{} exited with {}", workload.name(), output.status).into());
    }
    let Json::Object(mut fields) = Json::parse(last)? else {
        return Err("the child's last line is not an object".into());
    };
    let mut entry = vec![
        (
            "workload".to_string(),
            Json::Str(workload.name().to_string()),
        ),
        ("seed".to_string(), Json::UInt(seed)),
        ("trace".to_string(), Json::UInt(traced as u64)),
    ];
    entry.append(&mut fields);
    Ok((Json::Object(entry), output.status.success()))
}

/// Every workload once (twice with `traced`); writes `results` and returns
/// whether every run was correct.
fn run_suite(
    seed: u64,
    seconds: f64,
    traced: bool,
    repeats: usize,
    results: &Path,
) -> Result<bool, adapter::Error> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let (entry, correct) = run_child(workload, seed, seconds, trace, repeats)?;
            all_correct &= correct;
            runs.push(entry);
        }
    }
    append_runs(results, runs)?;
    Ok(all_correct)
}

/// Adds `runs` to the results file, creating it with the host facts.
fn append_runs(results: &Path, mut runs: Vec<Json>) -> Result<(), adapter::Error> {
    if let Ok(existing) = std::fs::read_to_string(results) {
        if let Some(Json::Array(old)) = Json::parse(&existing)?.get("runs").cloned() {
            runs.splice(0..0, old);
        }
    }
    std::fs::create_dir_all(host::RUN_DIR)?;
    let doc = Json::Object(vec![
        (
            "host".to_string(),
            report::host_json(Path::new(host::RUN_DIR)),
        ),
        ("runs".to_string(), Json::Array(runs)),
    ]);
    std::fs::write(results, doc.to_string_pretty())?;
    Ok(())
}

fn main_inner(argv: &[String]) -> Result<ExitCode, adapter::Error> {
    let args = parse_args(argv)?;
    let ok = |good: bool| {
        if good {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(EXIT_INCORRECT)
        }
    };
    match args.positional.first().map(String::as_str) {
        Some("emit-benchmark-json") => {
            print!("{}", spec::benchmark_json());
            return Ok(ExitCode::SUCCESS);
        }
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("usage: ledger compare <a.json> <b.json>".into());
            };
            let (regressed, _) =
                compare::compare_files(&args.benchmark, Path::new(a), Path::new(b))?;
            return Ok(ok(regressed == 0));
        }
        Some(other) => return Err(format!("unknown command {other}").into()),
        None => {}
    }
    if let Some(name) = &args.workload {
        return run_workload(&args, name);
    }

    let run_dir = Path::new(host::RUN_DIR);
    if let Some(n) = args.aa {
        // The same build, the same seeds, two sets: any difference between
        // the sets is the benchmark's own noise.
        let (a, b) = (run_dir.join("aa-a.json"), run_dir.join("aa-b.json"));
        for path in [&a, &b] {
            let _ = std::fs::remove_file(path);
        }
        let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS as f64);
        let mut all_correct = true;
        for i in 0..n as u64 {
            let order = if i % 2 == 0 { [&a, &b] } else { [&b, &a] };
            for path in order {
                all_correct &= run_suite(args.seed + i, seconds, false, spec::SETUP_REPEATS, path)?;
            }
        }
        let (regressed, unresolved) = compare::compare_files(&args.benchmark, &a, &b)?;
        return Ok(ok(all_correct && regressed == 0 && unresolved == 0));
    }

    let (seconds, repeats, traced) = if args.smoke {
        (2.0, 1, true)
    } else {
        (
            args.seconds.unwrap_or(spec::RUN_SECONDS as f64),
            args.setup_repeats.unwrap_or(spec::SETUP_REPEATS),
            args.trace,
        )
    };
    let results = run_dir.join(format!("results-seed{}.json", args.seed));
    let _ = std::fs::remove_file(&results);
    let all_correct = run_suite(args.seed, seconds, traced, repeats, &results)?;
    println!("results written to {}", results.display());
    Ok(ok(all_correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload write_path --seed 42 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("write_path"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(12.0), true));
        let a = args("--workload search_novel --seed 7 --seconds 3 --trace 0").unwrap();
        assert!(!a.trace);
    }

    #[test]
    fn trace_is_also_a_bare_flag_and_bad_input_is_refused() {
        let a = args("--trace --seed 3").unwrap();
        assert!(a.trace && a.seed == 3 && a.workload.is_none());
        assert_eq!(args("compare a.json b.json").unwrap().positional.len(), 3);
        assert!(args("--seconds 0").is_err());
        assert!(args("--seconds").is_err());
        assert!(args("--frobnicate").is_err());
        assert!(args("--seed minus-one").is_err());
    }
}
