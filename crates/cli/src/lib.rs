//! `ndss` — the command-line interface to the near-duplicate sequence
//! search library.
//!
//! ```text
//! ndss synth     --out corpus.ndsc --texts 10000 [--vocab 32000 --seed 7 …]
//! ndss tokenize  --input docs.txt --out corpus.ndsc --tokenizer tok.json
//! ndss index     --corpus corpus.ndsc --out index_dir --k 32 --t 25
//! ndss search    --index index_dir --query-tokens 5,17,99,… --theta 0.8
//! ndss serve     --index index_dir --addr 127.0.0.1:7700
//! ndss stats     --corpus corpus.ndsc [--index index_dir]
//! ndss memorize  --corpus corpus.ndsc --index index_dir --order 4
//! ```
//!
//! Run `ndss help` (or any subcommand with `--help`) for the full flag
//! reference.

pub mod args;
pub mod commands;
pub mod obs;

use std::process::ExitCode;

/// Dispatches a full CLI invocation (argv without the program name).
/// Returns the process exit code; errors print to stderr.
pub fn run_cli(mut raw: Vec<String>) -> ExitCode {
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" || raw[0] == "-h" {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let command = raw.remove(0);
    let args = match args::Args::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.flag("help") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    match dispatch(&command, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One subcommand: the flags it reads, its entry point, and its block of
/// the help text.
struct Command {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&args::Args) -> Result<(), String>,
    usage: &'static str,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "synth",
        flags: commands::synth::FLAGS,
        run: commands::synth::run,
        usage: "  synth      generate a synthetic Zipfian corpus with planted near-duplicates
               --out FILE [--texts N=10000] [--vocab N=32000] [--seed N=7]
               [--min-len N=200] [--max-len N=600] [--dup-rate F=0.4]
               [--mutation F=0.05] [--provenance FILE]",
    },
    Command {
        name: "tokenize",
        flags: commands::tokenize::FLAGS,
        run: commands::tokenize::run,
        usage: "  tokenize   train a BPE tokenizer and tokenize raw text (one doc per line)
               --input FILE --out FILE [--tokenizer FILE] [--vocab-size N=32000]",
    },
    Command {
        name: "index",
        flags: commands::index::FLAGS,
        run: commands::index::run,
        usage: "  index      build the inverted indexes for a corpus
               --corpus FILE --out DIR [--k N=32] [--t N=25] [--seed N=7]
               [--external] [--memory-budget BYTES=268435456]
               [--format v3|v4|v6=v6 (v6: bitpacked blocks, the smallest and
                the one the daemon and the benchmark use)]
               [--resume (continue an interrupted --external build)]
               [--store (treat --out as a store: the build lands in new
                seg-NNNN/ segments, verified, then published with one
                atomic MANIFEST write)]
               [--keep N=1 (previous segment lists retained on publish)]
               [--shards N=1|auto (with --store: partition the corpus by
                text-id range into N segments built in parallel)]",
    },
    Command {
        name: "ingest",
        flags: commands::ingest::FLAGS,
        run: commands::ingest::run,
        usage: "  ingest     stream texts into a store's crash-safe memtable
               --store DIR [--input FILE (default: stdin; one text per line,
                token ids separated by commas and/or whitespace)]
               [--flush-bytes N=64MiB (rotate the active WAL past this)]
               [--fsync-every N=8 (group-fsync cadence; 1 = every append)]
               [--keep N=1] [--seal (rotate + compact everything: memtable
                ends empty)] [--no-compact (leave frozen segments pending)]
               fresh stores also take [--k N=32] [--t N=25] [--seed N=7]
               [--format v3|v4|v6=v6]; texts are WAL-durable when acked and
               served live by 'ndss serve --ingest' before compaction",
    },
    Command {
        name: "merge",
        flags: commands::merge::FLAGS,
        run: commands::merge::run,
        usage: "  merge      merge shard indexes (built with identical parameters)
               --out DIR --inputs DIR,DIR,... (an interrupted merge is run
               again: it takes no --resume)",
    },
    Command {
        name: "publish",
        flags: commands::publish::FLAGS,
        run: commands::publish::run,
        usage: "  publish    verify segments and atomically make them the serving list
               --store DIR [--segments seg-NNNN[,seg-NNNN…] (in text order;
                default: the newest unpublished segment alone)] [--keep N=1]",
    },
    Command {
        name: "rollback",
        flags: commands::rollback::FLAGS,
        run: commands::rollback::run,
        usage: "  rollback   serve the newest retained segment list again (re-verified;
               a second rollback undoes the first)
               --store DIR",
    },
    Command {
        name: "search",
        flags: commands::search::FLAGS,
        run: commands::search::run,
        usage: "  search     query an index for near-duplicate sequences
               --index DIR (plain index or store; a store's segments
                scatter-gather with identical results)
               --theta F [--query-tokens a,b,c |
               --query-span text:start:end --corpus FILE |
               --query TEXT --tokenizer FILE] [--top N=10]
               [--corpus FILE (decodes matches)]
               [--profile (per-stage timing/IO breakdown)]
             per-query resource budgets (a tripped budget reports the partial
             result set found so far, flagged incomplete)
               [--deadline-ms N] [--max-io-bytes N] [--max-candidates N]
               [--max-matches N]
             batch mode: one comma-separated query per line, run in parallel;
             each query reports its own result under the budgets above
               --index DIR --queries-file FILE [--theta F=0.8]
               [--threads N=all cores] [--profile]",
    },
    Command {
        name: "serve",
        flags: commands::serve::FLAGS,
        run: commands::serve::run,
        usage: "  serve      run the network daemon over an index or store
               --index DIR [--addr HOST:PORT=127.0.0.1:7700]
               [--workers N=2*cores] [--admission-cap N=cores]
               [--deadline-ms N (per-request default deadline)]
               [--metrics-out PATH]
               [--ingest (accept POST /ingest; --index must be a store:
                appended texts are WAL-durable before the ack and
                served by overlay queries until the background compactor
                publishes them)] [--ingest-compact-ms N=500
                (0 disables background compaction)]
               [--quarantine-threshold N=3 (consecutive transient failures
                before a shard's breaker opens; 0 disables)]
               [--quarantine-backoff-ms N=1000]
               [--quarantine-max-backoff-ms N=60000]
               [--probe-interval-ms N=1000 (0 disables self-healing)]
             one port, two protocols: HTTP/1.1 (POST /search JSON,
             POST /ingest, GET /metrics, GET /healthz, POST /reload,
             POST /shutdown) and NDSB length-prefixed binary framing;
             SIGTERM drains (ingest WAL fsynced before the drain report)",
    },
    Command {
        name: "stats",
        flags: commands::stats::FLAGS,
        run: commands::stats::run,
        usage: "  stats      corpus and index statistics
               --corpus FILE [--index DIR] [--top N=10]
               [--metrics (render process metrics registry)]",
    },
    Command {
        name: "verify",
        flags: commands::verify::FLAGS,
        run: commands::verify::run,
        usage: "  verify     stream stored checksums over an index, corpus, and/or store
               [--corpus FILE] [--index DIR]
               [--store DIR (manifest validation plus one line per serving
                segment; exit is nonzero if any fails; a memtable, when
                present, gets its manifest checksum, WAL frame CRCs, id
                continuity, and trim watermark walked)]",
    },
    Command {
        name: "memorize",
        flags: commands::memorize::FLAGS,
        run: commands::memorize::run,
        usage: "  memorize   train an n-gram LM on the corpus and measure memorization
               --corpus FILE --index DIR [--order N=4] [--texts N=20]
               [--len N=256] [--window N=32] [--thetas F,F=1.0,0.9,0.8]
               [--seed N=1]",
    },
];

/// Runs one subcommand; the entry point integration tests call. A flag the
/// command does not read is an error carrying the command's usage, not a
/// silently ignored token.
pub fn dispatch(command: &str, args: &args::Args) -> Result<(), String> {
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == command) else {
        return Err(format!("unknown command '{command}'; try 'ndss help'"));
    };
    let unknown = args.unknown(cmd.flags);
    if !unknown.is_empty() {
        let unknown: Vec<String> = unknown.iter().map(|f| format!("--{f}")).collect();
        return Err(format!(
            "unknown flag {} for 'ndss {command}'\n\nUSAGE:\n{}",
            unknown.join(", "),
            cmd.usage
        ));
    }
    (cmd.run)(args)
}

fn print_usage() {
    println!(
        "ndss — near-duplicate sequence search at scale

USAGE:
  ndss <command> [--flag value]...

COMMANDS:"
    );
    for cmd in COMMANDS {
        println!("{}", cmd.usage);
    }
    println!(
        "  help       print this message

Long-running commands (index, ingest, merge, publish, rollback, search,
memorize, stats, serve) accept
  --metrics-out PATH   write a metrics snapshot on exit: Prometheus text
                       exposition for .prom/.txt, JSON otherwise"
    );
}
