//! Baseline comparison: the compact-window index (this paper) vs the two
//! pre-existing approaches its introduction positions against —
//!
//! 1. **exact-substring search** (Lee et al.'s exact-memorization
//!    methodology): catches only verbatim copies;
//! 2. **windowed MinHash-LSH** (datasketch-style): fixed-width grid
//!    windows + banded LSH, the standard OSS near-duplicate recipe, which
//!    structurally misses off-grid and off-width matches and has
//!    probabilistic recall.
//!
//! The harness plants near-duplicates of varying length / offset / mutation
//! rate and measures recall (did the method flag the planted source text?),
//! index footprint, and query latency for all three. It also reproduces the
//! paper's §1 motivation numerically: the fraction of "memorized"
//! generations found by near-duplicate search vs exact search.
//!
//! ```text
//! cargo run -p ndss-bench --release --bin baseline_comparison
//! ```

use std::time::Instant;

use ndss::prelude::*;
use ndss_bench::{ms, shape_check, time, Csv};

fn main() {
    println!("== Baseline comparison: compact windows vs exact vs windowed LSH ==");

    // Corpus with planted near-duplicates over a spread of mutation rates.
    let mut sweeps = Vec::new();
    for (label, mutation) in [
        ("exact copies", 0.0f64),
        ("2% mutated", 0.02),
        ("8% mutated", 0.08),
    ] {
        let (corpus, planted) = SyntheticCorpusBuilder::new(881)
            .num_texts(600)
            .text_len(200, 500)
            .vocab_size(16_000)
            .duplicates_per_text(1.0)
            .dup_len(40, 160) // varying lengths, arbitrary offsets
            .mutation_rate(mutation)
            .build();
        sweeps.push((label, mutation, corpus, planted));
    }

    let mut csv = Csv::new(
        "baseline_recall",
        "workload,method,recall,index_mib,avg_query_ms",
    );
    let mut ndss_recalls = Vec::new();
    let mut lsh_recalls = Vec::new();
    let mut exact_recalls = Vec::new();

    for (label, _mutation, corpus, planted) in &sweeps {
        let queries: Vec<(TextId, Vec<TokenId>)> = planted
            .iter()
            .take(200)
            .map(|p| (p.src.text, corpus.sequence_to_vec(p.dst).unwrap()))
            .collect();

        // --- this paper: compact-window index, guaranteed Definition 2. ---
        let (index, _) =
            time(|| MemoryIndex::build_parallel(corpus, IndexConfig::new(32, 25, 5)).unwrap());
        let searcher = ShardedSearcher::single(&index, PrefixFilter::Disabled).unwrap();
        let t0 = Instant::now();
        let mut found = 0usize;
        for (src, q) in &queries {
            let outcome = searcher.search(q, 0.7).unwrap();
            if outcome.matches.iter().any(|m| m.text == *src) {
                found += 1;
            }
        }
        let ndss_ms = ms(t0.elapsed()) / queries.len() as f64;
        let ndss_recall = found as f64 / queries.len() as f64;
        ndss_recalls.push(ndss_recall);
        let ndss_mib = index.total_postings() as f64 * 16.0 / (1 << 20) as f64;
        ndss_bench::csv_row!(
            csv,
            "{label},compact_windows,{ndss_recall:.3},{ndss_mib:.1},{ndss_ms:.3}"
        );

        // --- exact-substring baseline. ------------------------------------
        let exact = ExactSubstringIndex::build(corpus, 25).unwrap();
        let t0 = Instant::now();
        let mut found = 0usize;
        for (src, q) in &queries {
            let hits = exact.find_occurrences(corpus, q).unwrap();
            if hits.iter().any(|s| s.text == *src) {
                found += 1;
            }
        }
        let exact_ms = ms(t0.elapsed()) / queries.len() as f64;
        let exact_recall = found as f64 / queries.len() as f64;
        exact_recalls.push(exact_recall);
        let exact_mib = exact.num_grams() as f64 * 12.0 / (1 << 20) as f64;
        ndss_bench::csv_row!(
            csv,
            "{label},exact_substring,{exact_recall:.3},{exact_mib:.1},{exact_ms:.3}"
        );

        // --- windowed MinHash-LSH baseline. --------------------------------
        let lsh =
            LshWindowIndex::build(corpus, LshParams::new(64).stride(32).banding(8, 4)).unwrap();
        let t0 = Instant::now();
        let mut found = 0usize;
        for (src, q) in &queries {
            // Probe with the first 64 tokens (the baseline's fixed width).
            let probe = &q[..q.len().min(64)];
            if lsh
                .query(probe, 0.7)
                .iter()
                .any(|(seq, _)| seq.text == *src)
            {
                found += 1;
            }
        }
        let lsh_ms = ms(t0.elapsed()) / queries.len() as f64;
        let lsh_recall = found as f64 / queries.len() as f64;
        lsh_recalls.push(lsh_recall);
        let lsh_mib = lsh.approx_bytes() as f64 / (1 << 20) as f64;
        ndss_bench::csv_row!(
            csv,
            "{label},windowed_lsh,{lsh_recall:.3},{lsh_mib:.1},{lsh_ms:.3}"
        );
    }
    csv.flush();

    shape_check(
        "compact windows dominate LSH recall on every workload",
        ndss_recalls.iter().zip(&lsh_recalls).all(|(a, b)| a >= b),
        &format!("ndss {ndss_recalls:.3?} vs lsh {lsh_recalls:.3?}"),
    );
    shape_check(
        "exact search collapses under mutation; near-dup search does not",
        exact_recalls.last().unwrap() < &0.2 && ndss_recalls.last().unwrap() > &0.8,
        &format!(
            "8% mutated: exact {:.3} vs ndss {:.3}",
            exact_recalls.last().unwrap(),
            ndss_recalls.last().unwrap()
        ),
    );

    // --- §1 motivation: memorization looks much bigger through the
    // near-duplicate lens than the exact lens. ------------------------------
    let (corpus, _) = SyntheticCorpusBuilder::new(882)
        .num_texts(500)
        .text_len(300, 600)
        .vocab_size(6_000)
        .duplicates_per_text(1.5)
        .dup_len(80, 200)
        .mutation_rate(0.03) // fuzzy duplication in the training data
        .build();
    let index = MemoryIndex::build_parallel(&corpus, IndexConfig::new(32, 25, 6)).unwrap();
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    let exact = ExactSubstringIndex::build(&corpus, 25).unwrap();
    let model = NGramModel::train(&corpus, 5).unwrap();
    let config = MemorizationConfig::new(20, 512).window(32).seed(11);
    let windows = ndss::lm::memorization::generate_query_windows(&model, &config);
    let outcomes = searcher.search_all(&windows, 0.8).unwrap();
    let near_dup = outcomes.iter().filter(|o| o.num_texts() > 0).count();
    let verbatim = windows
        .iter()
        .filter(|w| exact.contains(&corpus, w).unwrap())
        .count();
    let mut csv2 = Csv::new("memorization_lens", "lens,windows,memorized,ratio");
    ndss_bench::csv_row!(
        csv2,
        "exact_substring,{},{verbatim},{:.4}",
        windows.len(),
        verbatim as f64 / windows.len() as f64
    );
    ndss_bench::csv_row!(
        csv2,
        "near_duplicate_theta08,{},{near_dup},{:.4}",
        windows.len(),
        near_dup as f64 / windows.len() as f64
    );
    csv2.flush();
    shape_check(
        "near-duplicate lens reveals more memorization than the exact lens",
        near_dup >= verbatim,
        &format!(
            "near-dup {near_dup} vs verbatim {verbatim} of {}",
            windows.len()
        ),
    );
    println!("\ndone.");
}
