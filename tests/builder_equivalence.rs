//! The index-construction paths — serial in-memory, parallel in-memory,
//! straight-to-disk `build_and_write` (serial and parallel), and the
//! out-of-core build (budget-sized runs, then merge) at every shape of run
//! list — must produce byte-identical on-disk indexes, and the disk corpus
//! path must behave exactly like the in-memory corpus path.

use std::path::Path;

use ndss::corpus::disk::write_corpus;
use ndss::index::{build_and_write, inv_file_path, write_memory_index, KillPoints};
use ndss::prelude::*;
use ndss_integration::{assert_same_files, dir_files, scratch};

fn read_inv_files(dir: &Path, k: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|func| std::fs::read(inv_file_path(dir, func)).unwrap())
        .collect()
}

/// The external builder at every shape of run list: each directory —
/// `meta.json` included, nothing left over — equals `build_and_write`'s,
/// serial and parallel. The serial build carries a counting injector, whose
/// checkpoints say how many runs were cut: none for a corpus written
/// straight into place beyond its `meta.json`'s two, else two per run, one
/// per merged function and two to publish.
fn external_grid(corpus: &InMemoryCorpus, config: &IndexConfig) {
    // The builder's estimate of a token's bytes in memory.
    let per_token = 4 + config.k * 2 * 24 / (config.t + 1);
    assert_eq!(
        (config.k * 2 * 24) % (config.t + 1),
        0,
        "pick k, t that divide"
    );
    let texts: Vec<Vec<u32>> = corpus.iter().map(|(_, t)| t.to_vec()).collect();
    let longest = texts.iter().map(Vec::len).max().unwrap();
    let total = corpus.total_tokens() as usize;
    let run = 1000;

    let mut with_giant = texts.clone();
    with_giant.insert(
        texts.len() / 2,
        (0..3 * run as u32).map(|i| i % 97).collect(),
    );
    let mut with_loner = texts.clone();
    with_loner.push((0..run as u32).map(|i| i % 89).collect());

    // (name, texts, run size in tokens, runs expected: exactly or at least)
    let cases = [
        ("one_run", texts.clone(), total, 1..=1),
        ("two_runs", texts.clone(), total / 2 + longest, 2..=2),
        ("many_runs", texts.clone(), run, 5..=usize::MAX),
        // A text larger than the budget cannot be split: a run of its own.
        ("text_over_budget", with_giant, run, 5..=usize::MAX),
        // The last text fills a run exactly, so no run before it has room.
        ("last_run_of_one_text", with_loner, run, 5..=usize::MAX),
        ("empty", Vec::new(), run, 1..=1),
    ];
    for (name, texts, run_tokens, runs_expected) in cases {
        let corpus = InMemoryCorpus::from_texts(texts);
        let want_dir = scratch("builders", &format!("grid_{name}_want"));
        build_and_write(&corpus, config.clone(), &want_dir, false).unwrap();
        let want = dir_files(&want_dir);
        assert!(want.contains_key("meta.json"));

        for parallel in [false, true] {
            let dir = scratch("builders", &format!("grid_{name}_{parallel}"));
            let mut builder = ExternalIndexBuilder::new(config.clone())
                .memory_budget(run_tokens * per_token)
                .parallel(parallel);
            let count = KillPoints::count_only();
            if !parallel {
                builder = builder.kill_points(count.clone());
            }
            builder.build(&corpus, &dir).unwrap();
            assert_same_files(&format!("{name} (parallel {parallel})"), &dir, &want);
            if !parallel {
                let runs = match count.checkpoints_seen() as usize {
                    2 => 1,
                    n => (n - config.k - 2) / 2,
                };
                assert!(runs_expected.contains(&runs), "{name}: {runs} runs");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&want_dir).ok();
    }
}

#[test]
fn all_builders_byte_identical() {
    let (corpus, _) = SyntheticCorpusBuilder::new(201)
        .num_texts(80)
        .text_len(100, 250)
        .vocab_size(700)
        .duplicates_per_text(0.5)
        .build();
    let config = IndexConfig::new(4, 15, 321).zone_map(16, 32);
    let k = config.k;

    // Path A: serial in-memory → disk.
    let dir_a = scratch("builders", "serial");
    let mem = MemoryIndex::build(&corpus, config.clone()).unwrap();
    write_memory_index(&mem, &dir_a).unwrap();

    // Path B: parallel in-memory → disk.
    let dir_b = scratch("builders", "parallel");
    let mem_par = MemoryIndex::build_parallel(&corpus, config.clone()).unwrap();
    write_memory_index(&mem_par, &dir_b).unwrap();

    // Path C: external with a budget of a few texts per run.
    let dir_c = scratch("builders", "external");
    ExternalIndexBuilder::new(config.clone())
        .memory_budget(4 << 10)
        .build(&corpus, &dir_c)
        .unwrap();

    // Path D: external, parallel, comfortable budget.
    let dir_d = scratch("builders", "external_par");
    ExternalIndexBuilder::new(config.clone())
        .parallel(true)
        .build(&corpus, &dir_d)
        .unwrap();

    // Paths E, F: records sorted straight into the files, no `MemoryIndex`.
    let dir_e = scratch("builders", "direct");
    build_and_write(&corpus, config.clone(), &dir_e, false).unwrap();
    let dir_f = scratch("builders", "direct_par");
    build_and_write(&corpus, config.clone(), &dir_f, true).unwrap();

    let a = read_inv_files(&dir_a, k);
    for (name, dir) in [
        ("parallel", &dir_b),
        ("external", &dir_c),
        ("external_par", &dir_d),
        ("direct", &dir_e),
        ("direct_par", &dir_f),
    ] {
        let other = read_inv_files(dir, k);
        for func in 0..k {
            assert_eq!(
                a[func], other[func],
                "inv_{func}.ndsi differs between serial and {name}"
            );
        }
    }
    for dir in [dir_a, dir_b, dir_c, dir_d, dir_e, dir_f] {
        std::fs::remove_dir_all(&dir).ok();
    }

    external_grid(&corpus, &config);
}

#[test]
fn disk_corpus_builds_the_same_index_as_memory_corpus() {
    let (mem_corpus, _) = SyntheticCorpusBuilder::new(202)
        .num_texts(40)
        .text_len(80, 200)
        .build();
    let corpus_path = scratch("builders", "corpus").join("corpus.ndsc");
    let disk_corpus = write_corpus(&mem_corpus, &corpus_path).unwrap();

    let config = IndexConfig::new(3, 20, 55);
    let dir_mem = scratch("builders", "from_mem");
    let dir_disk = scratch("builders", "from_disk");
    write_memory_index(
        &MemoryIndex::build(&mem_corpus, config.clone()).unwrap(),
        &dir_mem,
    )
    .unwrap();
    write_memory_index(
        &MemoryIndex::build(&disk_corpus, config).unwrap(),
        &dir_disk,
    )
    .unwrap();

    for func in 0..3 {
        assert_eq!(
            std::fs::read(inv_file_path(&dir_mem, func)).unwrap(),
            std::fs::read(inv_file_path(&dir_disk, func)).unwrap(),
        );
    }
    std::fs::remove_dir_all(dir_mem).ok();
    std::fs::remove_dir_all(dir_disk).ok();
    std::fs::remove_file(&corpus_path).ok();
}

#[test]
fn reopened_index_answers_identically() {
    let (corpus, planted) = SyntheticCorpusBuilder::new(203)
        .num_texts(50)
        .duplicates_per_text(1.0)
        .mutation_rate(0.03)
        .build();
    let dir = scratch("builders", "reopen");
    let params = SearchParams::new(8, 25, 77);
    let built = CorpusIndex::build_on_disk(&corpus, params, &dir).unwrap();
    let p = &planted[0];
    let query = corpus.sequence_to_vec(p.dst).unwrap();
    let before = built.search(&query, 0.8).unwrap().enumerate_all();
    drop(built);

    let reopened = CorpusIndex::open(&dir, PrefixFilter::Disabled).unwrap();
    let after = reopened.search(&query, 0.8).unwrap().enumerate_all();
    assert_eq!(before, after);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_size_respects_paper_bound() {
    // §3.4: each inverted index holds ≤ 2N/t compact windows of 16 bytes on
    // average, i.e. posting bytes / corpus bytes ≤ 8/t (corpus = 4 B/token).
    // The paper's accounting covers postings only — at production scale the
    // key directory is negligible, though at this test's scale it is not,
    // so we check the bound on posting bytes and separately sanity-check
    // that total file size stays within a small multiple.
    // Theorem-model corpus: near-distinct tokens (huge uniform vocab, no
    // planted repeats), where Theorem 1's expectation is tight.
    let (distinct_corpus, _) = SyntheticCorpusBuilder::new(204)
        .num_texts(100)
        .text_len(300, 600)
        .vocab_size(1_000_000)
        .zipf_exponent(0.0)
        .duplicates_per_text(0.0)
        .build();
    // Natural-language-like corpus: Zipfian tokens, where duplicate tokens
    // push the window count somewhat above the distinct-token expectation
    // (the recursion's random-pivot assumption breaks under ties).
    let (zipf_corpus, _) = SyntheticCorpusBuilder::new(205)
        .num_texts(100)
        .text_len(300, 600)
        .vocab_size(50_000)
        .build();
    for (name, corpus, slack) in [
        ("distinct", &distinct_corpus, 1.05),
        ("zipf", &zipf_corpus, 1.5),
    ] {
        let corpus_bytes = corpus.total_tokens() as f64 * 4.0;
        for t in [25usize, 50, 100] {
            let dir = scratch("builders", &format!("size_{name}_t{t}"));
            let disk =
                CorpusIndex::build_on_disk(corpus, SearchParams::new(2, t, 1), &dir).unwrap();
            let bound = 8.0 / t as f64;
            for func in 0..2 {
                let posting_bytes = disk.index().postings_for_function(func).unwrap() as f64 * 16.0;
                assert!(
                    posting_bytes / corpus_bytes <= bound * slack,
                    "{name} t={t} func={func}: posting ratio {} exceeds {slack}×(8/t) = {}",
                    posting_bytes / corpus_bytes,
                    bound * slack
                );
            }
            // Whole files (directory + zones included) stay within 4× the
            // posting-only bound at this scale.
            let file_bytes = disk.index().size_bytes().unwrap() as f64 / 2.0;
            assert!(file_bytes / corpus_bytes <= bound * 4.0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
