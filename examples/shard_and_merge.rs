//! Distributed-style indexing: shard the corpus, build per-shard indexes
//! (as separate machines would), merge them into one index, and verify the
//! merged index answers exactly like an index built over the whole corpus.
//!
//! Also demonstrates the compressed (v4) storage format and batch search
//! on the lane set (`ShardedSearcher::search_all`).
//!
//! ```text
//! cargo run -p ndss-examples --release --example shard_and_merge
//! ```

use ndss::index::merge_indexes;
use ndss::prelude::*;

fn main() {
    let work = std::env::temp_dir().join("ndss_example_shards");
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).unwrap();

    // One logical corpus, split into three shards.
    println!("generating corpus…");
    let (corpus, planted) = SyntheticCorpusBuilder::new(515)
        .num_texts(1_500)
        .text_len(200, 500)
        .vocab_size(16_000)
        .duplicates_per_text(0.5)
        .mutation_rate(0.03)
        .build();
    let all: Vec<Vec<TokenId>> = (0..corpus.num_texts() as u32)
        .map(|i| corpus.text(i).to_vec())
        .collect();
    let cuts = [0usize, 500, 1000, all.len()];
    let shards: Vec<InMemoryCorpus> = cuts
        .windows(2)
        .map(|w| InMemoryCorpus::from_texts(all[w[0]..w[1]].to_vec()))
        .collect();

    // Build each shard independently — compressed storage on.
    let config = IndexConfig::new(16, 25, 99).compressed(true);
    let mut shard_dirs = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let dir = work.join(format!("shard_{i}"));
        let t = std::time::Instant::now();
        ndss::index::build_and_write(shard, config.clone(), &dir, true).unwrap();
        println!(
            "  shard {i}: {} texts indexed in {:.2?}",
            shard.num_texts(),
            t.elapsed()
        );
        shard_dirs.push(dir);
    }

    // Merge.
    let merged_dir = work.join("merged");
    let t = std::time::Instant::now();
    let refs: Vec<&std::path::Path> = shard_dirs.iter().map(|d| d.as_path()).collect();
    let merged = merge_indexes(&refs, &merged_dir).unwrap();
    println!(
        "merged {} shards in {:.2?}: {} texts, {:.1} MiB on disk (compressed)",
        shard_dirs.len(),
        t.elapsed(),
        merged.config().num_texts,
        merged.size_bytes().unwrap() as f64 / (1 << 20) as f64
    );

    // Reference: a direct build over the whole corpus.
    let reference = MemoryIndex::build_parallel(&corpus, IndexConfig::new(16, 25, 99)).unwrap();

    // Compare on a batch of planted-duplicate queries (parallel search).
    let queries: Vec<Vec<TokenId>> = planted
        .iter()
        .take(50)
        .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
        .collect();
    let merged_index = ShardedIndex::open(&merged_dir).unwrap();
    let filter = PrefixFilter::default();
    let t = std::time::Instant::now();
    let merged_results = merged_index
        .searcher_with_filter(filter)
        .unwrap()
        .search_all(&queries, 0.8)
        .unwrap();
    let batch_time = t.elapsed();
    let reference_results = ShardedSearcher::single(&reference, filter)
        .unwrap()
        .search_all(&queries, 0.8)
        .unwrap();

    let mut agree = 0usize;
    for (a, b) in merged_results.iter().zip(&reference_results) {
        if a.enumerate_all() == b.enumerate_all() {
            agree += 1;
        }
    }
    println!(
        "\n{} queries in {:.2?} through the merged index; {agree}/{} answers identical \
         to the monolithic build",
        queries.len(),
        batch_time,
        queries.len()
    );
    assert_eq!(agree, queries.len(), "merged index must answer identically");
    println!("shard → merge → search round trip verified.");
    std::fs::remove_dir_all(&work).ok();
}
