//! Table 1 — examples of generated texts (query sequences) and their
//! near-duplicate sequences in the training corpus, rendered as readable
//! pseudo-word sentences with the differing tokens visible.
//!
//! ```text
//! cargo run -p ndss-bench --release --bin table1_examples
//! ```

use ndss::lm::memorization::collect_examples;
use ndss::prelude::*;

fn main() {
    println!("== Table 1: generated sequences and their near-duplicates ==\n");
    let (corpus, _) = SyntheticCorpusBuilder::new(777)
        .num_texts(700)
        .text_len(300, 700)
        .vocab_size(6_000)
        .duplicates_per_text(1.5)
        .dup_len(80, 200)
        .mutation_rate(0.0)
        .build();
    let index = MemoryIndex::build_parallel(&corpus, IndexConfig::new(32, 25, 15)).expect("index");
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).expect("searcher");
    let model = NGramModel::train(&corpus, 5).expect("train");
    let config = MemorizationConfig::new(30, 512).window(32).seed(301);

    let examples = collect_examples(&model, &searcher, &config, 0.8, 5).expect("examples");
    if examples.is_empty() {
        println!("(no memorized windows at θ = 0.8 — increase corpus duplication)");
        return;
    }
    for (i, ex) in examples.iter().enumerate() {
        let matched = corpus
            .sequence_to_vec(SeqRef {
                text: ex.text,
                span: ex.span,
            })
            .expect("span");
        println!(
            "─── example {} ─────────────────────────────────────────────",
            i + 1
        );
        println!("generated (query, {} tokens):", ex.query.len());
        println!("  {}", PseudoWords::render(&ex.query));
        println!(
            "near-duplicate in training corpus (text {}, tokens [{}, {}], {}/32 collisions):",
            ex.text, ex.span.start, ex.span.end, ex.collisions
        );
        println!("  {}", PseudoWords::render(&matched));
        // Token-level diff summary against the best-aligned window of the
        // match (same length as the query, scanned for max overlap).
        let (best_overlap, best_at) = best_alignment(&ex.query, &matched);
        println!(
            "alignment: {}/{} query tokens appear at the best offset {} of the match",
            best_overlap,
            ex.query.len(),
            best_at
        );
        println!(
            "distinct Jaccard (query vs aligned window): {:.3}\n",
            aligned_jaccard(&ex.query, &matched, best_at)
        );
    }
}

/// Slides the query over the matched region and returns the offset with the
/// most positionwise token agreements.
fn best_alignment(query: &[TokenId], matched: &[TokenId]) -> (usize, usize) {
    if matched.len() < query.len() {
        let overlap = query
            .iter()
            .zip(matched.iter())
            .filter(|(a, b)| a == b)
            .count();
        return (overlap, 0);
    }
    let mut best = (0usize, 0usize);
    for offset in 0..=matched.len() - query.len() {
        let overlap = query
            .iter()
            .zip(&matched[offset..])
            .filter(|(a, b)| a == b)
            .count();
        if overlap > best.0 {
            best = (overlap, offset);
        }
    }
    best
}

fn aligned_jaccard(query: &[TokenId], matched: &[TokenId], offset: usize) -> f64 {
    let end = (offset + query.len()).min(matched.len());
    distinct_jaccard(query, &matched[offset..end])
}
