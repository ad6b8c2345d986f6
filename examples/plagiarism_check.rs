//! Plagiarism-style check over *raw text*, end to end: train a BPE
//! tokenizer, tokenize a document collection, index it, then query with a
//! suspicious document and decode the matching passages.
//!
//! Demonstrates the full substrate chain the paper assumes: raw text → BPE
//! tokens → compact-window index → near-duplicate search → decoded matches.
//!
//! ```text
//! cargo run -p ndss-examples --release --example plagiarism_check
//! ```

use ndss::prelude::*;

/// A deterministic pseudo-word "document collection": each document is an
/// independent random word stream (so genuine cross-document similarity is
/// negligible). Document 17 will be our plagiarism source.
fn make_documents() -> Vec<String> {
    let mut rng = ndss::hash::Xoshiro256StarStar::new(0x5EED);
    (0..60u32)
        .map(|_| {
            let words: Vec<String> = (0..400)
                .map(|_| PseudoWords::word(rng.next_bounded(1_500) as u32))
                .collect();
            words.join(" ")
        })
        .collect()
}

fn main() {
    let documents = make_documents();
    println!("collection: {} documents", documents.len());

    // 1. Train a BPE tokenizer on the collection (the paper trains a 64K
    //    model on 1M texts; we scale down).
    println!("training BPE tokenizer…");
    let tokenizer = BpeTrainer::new(2_000).train(documents.iter().map(String::as_str));
    println!(
        "  vocab {} ({} learned merges)",
        tokenizer.vocab_size(),
        tokenizer.merges().len()
    );

    // 2. Tokenize into a corpus and index it.
    let mut corpus = InMemoryCorpus::new();
    for doc in &documents {
        corpus.push_text(&tokenizer.encode(doc));
    }
    println!(
        "indexing {} tokens (k = 24, t = 30)…",
        corpus.total_tokens()
    );
    let index = MemoryIndex::build_parallel(&corpus, IndexConfig::new(24, 30, 77)).expect("index");
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).expect("searcher");

    // 3. A "suspicious submission": fresh text that quietly lifts two
    //    passages from document 17, lightly paraphrased (a few words
    //    swapped).
    let source = &documents[17];
    let source_words: Vec<&str> = source.split(' ').collect();
    let mut lifted_a: Vec<String> = source_words[40..110]
        .iter()
        .map(|w| w.to_string())
        .collect();
    let mut lifted_b: Vec<String> = source_words[200..260]
        .iter()
        .map(|w| w.to_string())
        .collect();
    // Paraphrase: replace every 15th word.
    for (i, w) in lifted_a.iter_mut().enumerate() {
        if i % 15 == 7 {
            *w = PseudoWords::word(9_000 + i as u32);
        }
    }
    for (i, w) in lifted_b.iter_mut().enumerate() {
        if i % 15 == 3 {
            *w = PseudoWords::word(9_100 + i as u32);
        }
    }
    let original: Vec<String> = (0..80u32).map(|i| PseudoWords::word(7_000 + i)).collect();
    let submission = format!(
        "{} {} {} {}",
        original[..40].join(" "),
        lifted_a.join(" "),
        original[40..].join(" "),
        lifted_b.join(" ")
    );

    // 4. Scan the submission: every 48-token window, one batch.
    let tokens = tokenizer.encode(&submission);
    println!(
        "\nchecking submission ({} tokens) with 48-token windows at θ = 0.7…",
        tokens.len()
    );
    let matches = searcher
        .search_document(&tokens, DocumentScan::non_overlapping(48), 0.7)
        .expect("search");

    if matches.is_empty() {
        println!("no plagiarism detected.");
        return;
    }
    println!("\nplagiarism report:");
    let sources: Vec<TextId> = matches.iter().map(|m| m.text).collect();
    println!("  matched source documents: {sources:?} (expected: [17])");
    for m in &matches {
        println!(
            "\n  document {}: {} submission windows (tokens {:?}), best {}/24 collisions",
            m.text,
            m.query_windows,
            m.document_regions
                .iter()
                .map(|r| (r.start, r.end))
                .collect::<Vec<_>>(),
            m.best_collisions
        );
        for &span in m.regions.iter().take(4) {
            let matched_tokens = corpus
                .sequence_to_vec(SeqRef { text: m.text, span })
                .expect("span");
            let decoded = tokenizer.decode(&matched_tokens);
            let preview: String = decoded.chars().take(100).collect();
            println!("    tokens [{}, {}]: “{preview}…”", span.start, span.end);
        }
    }
}
