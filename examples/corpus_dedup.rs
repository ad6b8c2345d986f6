//! Corpus deduplication audit: find texts that contain near-duplicate
//! sequences of *other* texts in the same corpus.
//!
//! This is the data-curation use case the paper motivates: training corpora
//! are full of near-duplicates, and duplicated training data is memorized
//! super-linearly. The audit cuts a sample of texts into windows, queries
//! them all against the index of the whole corpus in one batch, and
//! reports cross-text near-duplicate regions.
//!
//! ```text
//! cargo run -p ndss-examples --release --example corpus_dedup
//! ```

use std::collections::{BTreeMap, BTreeSet};

use ndss::prelude::*;

fn main() {
    println!("generating corpus with injected near-duplicates…");
    let (corpus, planted) = SyntheticCorpusBuilder::new(4242)
        .num_texts(800)
        .text_len(250, 500)
        .vocab_size(16_000)
        .duplicates_per_text(0.4)
        .dup_len(80, 160)
        .mutation_rate(0.03)
        .build();
    println!(
        "  {} texts, {} tokens, {} planted copies (hidden from the audit)",
        corpus.num_texts(),
        corpus.total_tokens(),
        planted.len()
    );

    println!("indexing (k = 16, t = 50: only long duplications matter here)…");
    let index = MemoryIndex::build_parallel(&corpus, IndexConfig::new(16, 50, 3)).expect("index");
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).expect("searcher");

    // Audit a sample of texts: cut each into non-overlapping 64-token
    // windows and search them all in one parallel batch.
    let audit_texts = 100usize;
    let window = 64usize;
    let theta = 0.8;
    println!("auditing the first {audit_texts} texts (window {window}, θ = {theta})…");
    let mut windows: Vec<Vec<TokenId>> = Vec::new();
    let mut owners: Vec<TextId> = Vec::new();
    for text_id in 0..audit_texts as TextId {
        let text = corpus.text_to_vec(text_id).expect("text");
        for chunk in text.chunks_exact(window) {
            windows.push(chunk.to_vec());
            owners.push(text_id);
        }
    }
    let outcomes = searcher.search_all(&windows, theta).expect("search");

    // audited text -> the other texts it shares near-duplicate regions with
    let mut duplicate_pairs: BTreeMap<TextId, BTreeSet<TextId>> = BTreeMap::new();
    let audited_windows = windows.len();
    let mut flagged_windows = 0usize;
    for (outcome, &text_id) in outcomes.iter().zip(&owners) {
        // Ignore the self-match: the window trivially matches its own text.
        let others: Vec<TextId> = outcome
            .matches
            .iter()
            .map(|m| m.text)
            .filter(|&t| t != text_id)
            .collect();
        if !others.is_empty() {
            flagged_windows += 1;
            duplicate_pairs.entry(text_id).or_default().extend(others);
        }
    }

    println!(
        "\n{flagged_windows}/{audited_windows} windows have cross-text near-duplicates \
         ({:.1}%)",
        flagged_windows as f64 / audited_windows as f64 * 100.0
    );
    println!(
        "{} of the audited texts share near-duplicate regions with other texts",
        duplicate_pairs.len()
    );

    // Check the audit's findings against the hidden ground truth: how many
    // of the planted (src, dst) pairs involving audited texts were caught?
    let relevant: Vec<_> = planted
        .iter()
        .filter(|p| (p.dst.text as usize) < audit_texts && p.dst.span.len() >= window as u32)
        .collect();
    let caught = relevant
        .iter()
        .filter(|p| {
            duplicate_pairs
                .get(&p.dst.text)
                .is_some_and(|others| others.contains(&p.src.text))
        })
        .count();
    println!(
        "\nground truth: {caught}/{} planted long copies among audited texts were caught",
        relevant.len()
    );

    println!("\nsample findings:");
    for (text, others) in duplicate_pairs.iter().take(5) {
        println!("  text {text} shares near-duplicate regions with {others:?}");
    }
}
