//! LLM memorization evaluation (the paper's §5 pipeline, scaled down).
//!
//! Trains n-gram language models of several capacities on a corpus, indexes
//! the corpus, generates texts from each model with top-50 sampling (the
//! paper's decoding strategy), slices the generations into fixed-width
//! query windows, and reports the fraction of windows with near-duplicates
//! in the training corpus — per threshold θ, per window width x, and per
//! model size, mirroring Figure 4.
//!
//! ```text
//! cargo run -p ndss-examples --release --example memorization_eval
//! ```

use ndss::prelude::*;

fn main() {
    // Training corpus with substantial internal duplication (web corpora
    // are 30–45% near-duplicate content, paper §1).
    println!("generating training corpus…");
    let (corpus, _) = SyntheticCorpusBuilder::new(99)
        .num_texts(600)
        .text_len(300, 600)
        .vocab_size(4_000)
        .duplicates_per_text(1.5)
        .dup_len(80, 200)
        .mutation_rate(0.0)
        .build();
    println!(
        "  {} texts, {} tokens",
        corpus.num_texts(),
        corpus.total_tokens()
    );

    println!("indexing (k = 32, t = 25)…");
    let index = MemoryIndex::build_parallel(&corpus, IndexConfig::new(32, 25, 21)).expect("index");
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).expect("searcher");

    // "Model sizes": n-gram orders standing in for 117M/345M/1.3B/2.7B
    // parameter models (DESIGN.md §3). More context = more capacity = more
    // memorization.
    let model_specs = [
        ("small (order 2)", 2usize),
        ("medium (order 3)", 3),
        ("large (order 5)", 5),
    ];
    let thetas = [1.0, 0.9, 0.8, 0.7];

    println!("\n== memorized fraction vs θ (x = 32), per model size ==");
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8}",
        "model", "θ=1.0", "θ=0.9", "θ=0.8", "θ=0.7"
    );
    for (name, order) in model_specs {
        let model = NGramModel::train(&corpus, order).expect("train");
        let config = MemorizationConfig::new(20, 512).window(32).seed(5);
        let reports = evaluate_memorization(&model, &searcher, &config, &thetas).expect("evaluate");
        print!("{name:<18}");
        for r in &reports {
            print!(" {:>7.1}%", r.ratio() * 100.0);
        }
        println!(
            "  ({} params, {} windows)",
            model.num_parameters(),
            reports[0].queries
        );
    }

    println!("\n== memorized fraction vs window width x (θ = 0.8, large model) ==");
    let model = NGramModel::train(&corpus, 5).expect("train");
    for x in [32usize, 64, 128] {
        let config = MemorizationConfig::new(20, 512).window(x).seed(6);
        let r = evaluate_memorization(&model, &searcher, &config, &[0.8]).expect("evaluate")[0];
        println!(
            "  x = {x:>3}: {:>5.1}%  ({}/{} windows memorized)",
            r.ratio() * 100.0,
            r.memorized,
            r.queries
        );
    }

    println!("\n== example memorized generations (Table 1 style) ==");
    let config = MemorizationConfig::new(10, 256).window(32).seed(7);
    let examples = ndss::lm::memorization::collect_examples(&model, &searcher, &config, 0.8, 3)
        .expect("examples");
    for (i, ex) in examples.iter().enumerate() {
        println!("\nexample {}:", i + 1);
        println!("  generated : {}", PseudoWords::render(&ex.query));
        let matched = corpus
            .sequence_to_vec(SeqRef {
                text: ex.text,
                span: ex.span,
            })
            .expect("matched span");
        let preview: Vec<TokenId> = matched.iter().copied().take(32).collect();
        println!(
            "  training  : {}{}",
            PseudoWords::render(&preview),
            if matched.len() > 32 { " …" } else { "" }
        );
        println!(
            "  (text {}, span [{}, {}], {}/32 min-hash collisions)",
            ex.text, ex.span.start, ex.span.end, ex.collisions
        );
    }
}
