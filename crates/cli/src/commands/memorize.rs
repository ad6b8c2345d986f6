//! `ndss memorize`: the paper's §5 evaluation from the command line —
//! train an n-gram LM on the corpus, generate, and measure how much of the
//! generated text has near-duplicates in the corpus.

use std::path::Path;

use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss memorize` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &[
    "corpus",
    "index",
    "order",
    "texts",
    "len",
    "window",
    "thetas",
    "seed",
    "metrics-out",
];

pub fn run(args: &Args) -> Result<(), String> {
    let corpus_path = args.required("corpus")?;
    let index_dir = args.required("index")?;
    let order: usize = args.get_or("order", 4)?;
    let texts: usize = args.get_or("texts", 20)?;
    let len: usize = args.get_or("len", 256)?;
    let window: usize = args.get_or("window", 32)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let thetas: Vec<f64> = args.list_or("thetas", &[1.0, 0.9, 0.8])?;
    if window == 0 || len < window {
        return Err(format!("--window {window} must be ≤ --len {len}"));
    }
    if let Some(bad) = thetas.iter().find(|&&theta| !(theta > 0.0 && theta <= 1.0)) {
        return Err(format!("--thetas {bad} must lie in (0, 1]"));
    }

    let corpus = DiskCorpus::open(Path::new(corpus_path)).map_err(|e| e.to_string())?;
    let index = ShardedIndex::open(Path::new(index_dir)).map_err(|e| e.to_string())?;
    let searcher = index
        .searcher_with_filter(PrefixFilter::default())
        .map_err(|e| e.to_string())?;

    eprintln!("training order-{order} n-gram model on {corpus_path}…");
    let model = NGramModel::train(&corpus, order).map_err(|e| e.to_string())?;
    println!(
        "model: order {order}, {} parameters, training perplexity {:.2}",
        model.num_parameters(),
        model.perplexity(&corpus).map_err(|e| e.to_string())?
    );

    eprintln!(
        "generating {texts} texts × {len} tokens (top-50 sampling), querying {window}-token windows…"
    );
    let config = MemorizationConfig::new(texts, len)
        .window(window)
        .seed(seed);
    let reports =
        evaluate_memorization(&model, &searcher, &config, &thetas).map_err(|e| e.to_string())?;

    println!("\nθ        windows   memorized   ratio");
    for r in &reports {
        println!(
            "{:<8} {:>7}   {:>9}   {:>5.1}%",
            r.theta,
            r.queries,
            r.memorized,
            r.ratio() * 100.0
        );
    }
    crate::obs::maybe_write_metrics(args)
}
