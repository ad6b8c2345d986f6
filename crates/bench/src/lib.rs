//! Shared workloads and reporting helpers for the benchmark harness.
//!
//! The figure binaries (`src/bin/fig*.rs`, `src/bin/table1_examples.rs`,
//! `src/bin/baseline_comparison.rs`) regenerate every table and figure of
//! the paper's evaluation at reduced scale. They consume the workload
//! builders here so that "OpenWebText-like" and "Pile-like" mean the same
//! thing everywhere. Speed is measured by the ledger (`ledger/`), not here.
//!
//! Scale model (see `DESIGN.md` §3): the paper's OpenWebText is 8M texts /
//! 31 GB and The Pile 649 GB; our `owt_like` and `pile_like` corpora keep
//! the *distributional* properties that drive the algorithms (Zipfian token
//! frequencies, long planted near-duplicates, text-length spread) at a
//! CI-friendly token count. Every sweep prints absolute numbers plus the
//! shape ratios the paper's claims are about.

use std::time::{Duration, Instant};

use ndss::prelude::*;

/// Default scale factor: `owt_like(1)` ≈ 800K tokens. Figures sweep 1×–8×.
pub const BASE_TEXTS: usize = 2_000;

/// An OpenWebText-flavoured synthetic corpus: 32K/64K BPE-sized vocab,
/// Zipfian tokens, moderate near-duplicate injection.
pub fn owt_like(
    scale: usize,
    vocab_size: usize,
    seed: u64,
) -> (InMemoryCorpus, Vec<ndss::corpus::PlantedDuplicate>) {
    SyntheticCorpusBuilder::new(seed)
        .num_texts(BASE_TEXTS * scale)
        .text_len(200, 600)
        .vocab_size(vocab_size)
        .zipf_exponent(1.05)
        .duplicates_per_text(0.4)
        .dup_len(60, 150)
        .mutation_rate(0.05)
        .build()
}

/// A Pile-flavoured corpus: GPT-2's 50,257-token vocabulary, longer texts,
/// heavier duplication (The Pile aggregates 22 datasets with substantial
/// overlap).
pub fn pile_like(scale: usize, seed: u64) -> (InMemoryCorpus, Vec<ndss::corpus::PlantedDuplicate>) {
    SyntheticCorpusBuilder::new(seed)
        .num_texts(BASE_TEXTS * scale)
        .text_len(300, 900)
        .vocab_size(50_257)
        .zipf_exponent(1.1)
        .duplicates_per_text(0.8)
        .dup_len(60, 200)
        .mutation_rate(0.04)
        .build()
}

/// The paper's query workload analog: a mix of planted-duplicate copies
/// (these behave like generated text that memorized training data) and
/// fresh random sequences (like novel generations). Returns `count` queries
/// of exactly `len` tokens.
pub fn query_workload(
    corpus: &InMemoryCorpus,
    planted: &[ndss::corpus::PlantedDuplicate],
    count: usize,
    len: usize,
    seed: u64,
) -> Vec<Vec<TokenId>> {
    let mut rng = ndss::hash::Xoshiro256StarStar::new(seed);
    let mut queries = Vec::with_capacity(count);
    for i in 0..count {
        if i % 2 == 0 && !planted.is_empty() {
            // A window of a planted copy, clipped to `len`.
            let p = &planted[rng.next_bounded(planted.len() as u64) as usize];
            let tokens = corpus.sequence_to_vec(p.dst).expect("planted span");
            let take = tokens.len().min(len);
            let start = if tokens.len() > take {
                rng.next_bounded((tokens.len() - take + 1) as u64) as usize
            } else {
                0
            };
            queries.push(tokens[start..start + take].to_vec());
        } else {
            // A random window of a random text (mostly novel at high θ).
            let text_id = rng.next_bounded(corpus.num_texts() as u64) as u32;
            let text = corpus.text(text_id);
            if text.len() <= len {
                queries.push(text.to_vec());
            } else {
                let start = rng.next_bounded((text.len() - len) as u64) as usize;
                queries.push(text[start..start + len].to_vec());
            }
        }
    }
    queries
}

/// Scratch root of one figure harness run (`fig` names the harness); the
/// process id keeps concurrent runs apart. The harness removes it when done.
pub fn scratch_root(fig: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ndss_{fig}_{}", std::process::id()))
}

/// Times a closure once.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Formats a duration in milliseconds with two decimals.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A tiny CSV emitter. Rows are buffered and the whole panel is printed as
/// one contiguous block (marker, header, rows) when the emitter is dropped
/// or [`Csv::flush`]ed — several panels can then be filled from inside one
/// sweep loop without their output interleaving.
pub struct Csv {
    panel: String,
    header: String,
    rows: Vec<String>,
}

impl Csv {
    /// Creates an emitter for one panel.
    pub fn new(panel: &str, header: &str) -> Self {
        Self {
            panel: panel.to_string(),
            header: header.to_string(),
            rows: Vec::new(),
        }
    }

    /// Buffers one row.
    pub fn row(&mut self, values: std::fmt::Arguments<'_>) {
        self.rows.push(values.to_string());
    }

    /// Prints the panel block and clears the buffer.
    pub fn flush(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        println!("\n#panel {}", self.panel);
        println!("{}", self.header);
        for row in self.rows.drain(..) {
            println!("{row}");
        }
    }
}

impl Drop for Csv {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Convenience macro for `Csv::row`.
#[macro_export]
macro_rules! csv_row {
    ($csv:expr, $($arg:tt)*) => {
        $csv.row(format_args!($($arg)*))
    };
}

/// A labelled PASS/WARN shape check printed at the end of each figure run
/// and summarized in `EXPERIMENTS.md`.
pub fn shape_check(name: &str, ok: bool, detail: &str) {
    println!(
        "shape-check [{}] {}: {}",
        if ok { "PASS" } else { "WARN" },
        name,
        detail
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_queries_have_requested_length() {
        let (corpus, planted) = owt_like(1, 32_000, 1);
        let queries = query_workload(&corpus, &planted, 10, 64, 2);
        assert_eq!(queries.len(), 10);
        assert!(queries.iter().all(|q| q.len() == 64));
    }

    #[test]
    fn corpora_scale_linearly() {
        let (c1, _) = owt_like(1, 32_000, 3);
        let (c2, _) = owt_like(2, 32_000, 3);
        assert_eq!(c2.num_texts(), 2 * c1.num_texts());
    }

    #[test]
    fn workloads_are_deterministic() {
        let (c1, p1) = pile_like(1, 9);
        let (c2, p2) = pile_like(1, 9);
        assert_eq!(c1.total_tokens(), c2.total_tokens());
        assert_eq!(p1.len(), p2.len());
        let q1 = query_workload(&c1, &p1, 5, 32, 4);
        let q2 = query_workload(&c2, &p2, 5, 32, 4);
        assert_eq!(q1, q2);
    }

    #[test]
    fn pile_like_uses_gpt2_vocab_size() {
        let (corpus, _) = pile_like(1, 2);
        let max_token = (0..corpus.num_texts() as u32)
            .flat_map(|i| corpus.text(i).to_vec())
            .max()
            .unwrap();
        assert!(max_token < 50_257);
    }

    #[test]
    fn csv_buffers_until_flush() {
        let mut csv = Csv::new("panel", "a,b");
        csv_row!(csv, "1,2");
        csv_row!(csv, "3,4");
        // Nothing printed yet — rows are held in the buffer.
        assert_eq!(csv.rows.len(), 2);
        csv.flush();
        assert!(csv.rows.is_empty());
    }

    #[test]
    fn time_measures_something() {
        let (value, elapsed) = time(|| 2 + 2);
        assert_eq!(value, 4);
        assert!(ms(elapsed) >= 0.0);
    }
}
