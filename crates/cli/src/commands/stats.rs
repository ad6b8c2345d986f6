//! `ndss stats`: corpus and index statistics.

use std::path::Path;

use ndss::corpus::CorpusStats;
use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss stats` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &["corpus", "index", "top", "metrics", "metrics-out"];

pub fn run(args: &Args) -> Result<(), String> {
    let corpus_path = args.required("corpus")?;
    let corpus = DiskCorpus::open(Path::new(corpus_path)).map_err(|e| e.to_string())?;
    eprintln!("scanning {corpus_path}…");
    let stats = CorpusStats::compute(&corpus).map_err(|e| e.to_string())?;

    println!("corpus {corpus_path}:");
    println!("  texts            : {}", stats.num_texts());
    println!("  tokens           : {}", stats.total_tokens());
    println!("  distinct tokens  : {}", stats.distinct_tokens());
    println!(
        "  text length      : min {}, mean {:.1}, max {}",
        stats.text_len_range().0,
        stats.mean_text_len(),
        stats.text_len_range().1
    );
    println!(
        "  zipf slope       : {:.3} over the top 1000 tokens (≈ -1 for natural language)",
        stats.zipf_slope(1000)
    );
    let top: usize = args.get_or("top", 10)?;
    let freqs = stats.sorted_frequencies();
    println!(
        "  top-{top} token frequencies: {:?}",
        &freqs[..top.min(freqs.len())]
    );
    for pct in [0.05, 0.10, 0.20] {
        println!(
            "  frequency cutoff for top {:>4.0}% tokens: {}",
            pct * 100.0,
            stats.frequency_cutoff(pct)
        );
    }

    if let Some(index_dir) = args.get("index") {
        let index = DiskIndex::open(Path::new(index_dir)).map_err(|e| e.to_string())?;
        let config = index.config();
        println!("\nindex {index_dir}:");
        println!(
            "  k = {}, t = {}, seed = {}",
            config.k, config.t, config.seed
        );
        println!(
            "  zone maps: step {} on lists ≥ {} postings",
            config.zone_step, config.zone_min_len
        );
        let bytes = index.size_bytes().map_err(|e| e.to_string())?;
        println!("  size on disk: {:.1} MiB", bytes as f64 / (1 << 20) as f64);
        let mut total_postings = 0u64;
        for func in 0..config.k {
            total_postings += index
                .postings_for_function(func)
                .map_err(|e| e.to_string())?;
        }
        println!(
            "  postings: {total_postings} total ({:.1} per text per function)",
            total_postings as f64 / config.num_texts.max(1) as f64 / config.k as f64
        );
        let hist = index.list_length_histogram(0).map_err(|e| e.to_string())?;
        let lists: u64 = hist.iter().map(|&(_, c)| c).sum();
        let longest = hist.last().map(|&(len, _)| len).unwrap_or(0);
        println!(
            "  function 0: {lists} lists, longest {longest} postings \
             (Zipf skew drives prefix filtering)"
        );
    }

    // Process metrics accumulated while scanning (corpus reads, index IO,
    // cache behaviour): `--metrics` renders them, `--metrics-out` exports.
    if args.flag("metrics") {
        println!("\nprocess metrics:");
        crate::obs::print_registry();
    }
    crate::obs::maybe_write_metrics(args)
}
