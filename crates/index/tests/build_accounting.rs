//! What an in-memory build records about itself, whichever entry point
//! published the directory: `index.build.postings` counts every posting
//! once, and `index.build.fsyncs` samples two fsyncs (file, then its
//! directory) per committed file — `k` index files and `meta.json`.
//!
//! One test only: the counters are process-wide, and an integration-test
//! binary with a single test is a process of its own.

use std::path::Path;

use ndss_corpus::{CorpusSource, SyntheticCorpusBuilder};
use ndss_index::{
    build_and_write, write_memory_index, DiskIndex, IndexAccess, IndexConfig, MemoryIndex,
};

#[test]
fn every_publish_records_its_postings_and_fsyncs() {
    let root = std::env::temp_dir().join(format!("ndss_build_accounting_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let (corpus, _) = SyntheticCorpusBuilder::new(77)
        .num_texts(40)
        .text_len(60, 160)
        .vocab_size(300)
        .build();
    let k = 5;
    let config = IndexConfig::new(k, 10, 3).bit_packed(true);
    let mem = MemoryIndex::build(&corpus, config.clone()).unwrap();
    let total = mem.total_postings();
    assert!(total > 0);

    let registry = ndss_obs::Registry::global();
    let postings = registry.counter("index.build.postings", "");
    let fsyncs = registry.histogram("index.build.fsyncs", "", ndss_obs::Unit::None);
    let per_build = 2 * (k as u64 + 1);

    let check = |name: &str, publish: &dyn Fn(&Path)| {
        let postings_before = postings.get();
        let fsyncs_before = ndss_durable::fsync_count();
        let samples_before = fsyncs.snapshot();
        let dir = root.join(name);
        publish(&dir);
        assert_eq!(postings.get() - postings_before, total, "{name}: postings");
        assert_eq!(
            ndss_durable::fsync_count() - fsyncs_before,
            per_build,
            "{name}: fsyncs"
        );
        let samples = fsyncs.snapshot();
        assert_eq!(samples.count - samples_before.count, 1, "{name}: samples");
        assert_eq!(
            samples.sum - samples_before.sum,
            per_build,
            "{name}: sample"
        );
        let reopened = DiskIndex::open(&dir).unwrap();
        assert_eq!(reopened.config().num_texts, corpus.num_texts());
    };
    check("write_memory_index", &|dir| {
        write_memory_index(&mem, dir).unwrap();
    });
    check("build_and_write_serial", &|dir| {
        build_and_write(&corpus, config.clone(), dir, false).unwrap();
    });
    check("build_and_write_parallel", &|dir| {
        build_and_write(&corpus, config.clone(), dir, true).unwrap();
    });
    std::fs::remove_dir_all(&root).ok();
}
