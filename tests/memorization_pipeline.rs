//! Integration of the §5 pipeline: train LM on the indexed corpus →
//! generate → slice windows → query → report ratios. Checks the qualitative
//! shapes the paper reports (monotonicity in θ, window width, model size),
//! and that the one batched scan on the lane set reports exactly what the
//! serial per-θ loop it replaced reported.

use std::sync::atomic::{AtomicUsize, Ordering};

use ndss::index::{IndexError, IoStats, LengthHistogram, Posting, SharedList};
use ndss::lm::memorization::{collect_examples, generate_query_windows};
use ndss::lm::{prompted_memorization, MemorizationReport};
use ndss::prelude::*;
use ndss_integration::scratch;

fn setup() -> (InMemoryCorpus, MemoryIndex) {
    // A corpus with heavy internal duplication, so that n-gram generations
    // echo recognizable training spans.
    let (corpus, _) = SyntheticCorpusBuilder::new(301)
        .num_texts(60)
        .text_len(250, 400)
        .vocab_size(400)
        .duplicates_per_text(2.0)
        .dup_len(80, 150)
        .mutation_rate(0.0)
        .build();
    let index = MemoryIndex::build_parallel(&corpus, IndexConfig::new(32, 25, 9)).unwrap();
    (corpus, index)
}

#[test]
fn memorized_fraction_grows_as_threshold_drops() {
    let (corpus, index) = setup();
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    let model = NGramModel::train(&corpus, 5).unwrap();
    let config = MemorizationConfig::new(8, 160).window(32).seed(1);
    let reports = evaluate_memorization(&model, &searcher, &config, &[1.0, 0.9, 0.8, 0.7]).unwrap();
    for pair in reports.windows(2) {
        assert!(
            pair[1].memorized >= pair[0].memorized,
            "θ={} memorized {} < θ={} memorized {}",
            pair[1].theta,
            pair[1].memorized,
            pair[0].theta,
            pair[0].memorized
        );
    }
    // On this heavily duplicated corpus with a strong model, something must
    // be memorized at θ = 0.7.
    assert!(reports.last().unwrap().memorized > 0);
}

#[test]
fn larger_models_memorize_at_least_as_much() {
    let (corpus, index) = setup();
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    let config = MemorizationConfig::new(6, 160).window(32).seed(2);
    let mut prev_ratio = -1.0f64;
    // Orders 2 → 4 → 6 play the roles of small/medium/large checkpoints.
    for order in [2usize, 4, 6] {
        let model = NGramModel::train(&corpus, order).unwrap();
        let r = evaluate_memorization(&model, &searcher, &config, &[0.8]).unwrap()[0].ratio();
        assert!(
            r + 1e-9 >= prev_ratio,
            "order {order} ratio {r} dropped below {prev_ratio}"
        );
        prev_ratio = r;
    }
}

#[test]
fn shorter_windows_memorize_more() {
    let (corpus, index) = setup();
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    let model = NGramModel::train(&corpus, 5).unwrap();
    let mut ratios = Vec::new();
    for x in [32usize, 64, 128] {
        let config = MemorizationConfig::new(6, 256).window(x).seed(3);
        let r = evaluate_memorization(&model, &searcher, &config, &[0.8]).unwrap()[0];
        ratios.push((x, r.ratio()));
    }
    // The paper's Figure 4(b): smaller sliding windows usually entail a
    // greater memorized percentage. Require the x=32 ratio to be ≥ x=128.
    assert!(
        ratios[0].1 >= ratios[2].1,
        "window 32 ratio {} < window 128 ratio {}",
        ratios[0].1,
        ratios[2].1
    );
}

#[test]
fn generation_strategies_all_flow_through_pipeline() {
    let (corpus, index) = setup();
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    let model = NGramModel::train(&corpus, 3).unwrap();
    for strategy in [
        GenerationStrategy::Greedy,
        GenerationStrategy::Random,
        GenerationStrategy::TopK(50),
        GenerationStrategy::TopP(0.9),
    ] {
        let config = MemorizationConfig::new(2, 96)
            .window(32)
            .strategy(strategy)
            .seed(4);
        let reports = evaluate_memorization(&model, &searcher, &config, &[0.8]).unwrap();
        assert_eq!(reports[0].queries, 2 * 3);
    }
}

#[test]
fn greedy_generation_from_training_prefix_is_memorized() {
    // The strongest memorization case: greedy decoding with a high-order
    // model deterministically replays training sequences. Query windows cut
    // from such a generation must be found at θ = 1.0... unless generation
    // diverges at an unseen context; so we assert on θ = 0.8 which tolerates
    // small divergences.
    let (corpus, index) = setup();
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    let model = NGramModel::train(&corpus, 6).unwrap();
    let config = MemorizationConfig::new(4, 128)
        .window(32)
        .strategy(GenerationStrategy::Greedy)
        .seed(5);
    let reports = evaluate_memorization(&model, &searcher, &config, &[0.8]).unwrap();
    assert!(
        reports[0].ratio() > 0.5,
        "greedy order-6 generations should be mostly memorized, got {}",
        reports[0].ratio()
    );
}

/// The corpus of `fig4_memorization`, scaled down: heavy internal
/// duplication, exact copies.
fn fig4_shaped() -> (InMemoryCorpus, IndexConfig) {
    let (corpus, _) = SyntheticCorpusBuilder::new(201)
        .num_texts(90)
        .text_len(300, 700)
        .vocab_size(8_000)
        .duplicates_per_text(1.5)
        .dup_len(80, 200)
        .mutation_rate(0.0)
        .build();
    (corpus, IndexConfig::new(32, 25, 9))
}

/// The evaluation as it was before it ran on the lane set, kept as the
/// reference: one serial, unfiltered, single-index search per window per θ.
fn reference_reports(
    model: &NGramModel,
    index: &MemoryIndex,
    config: &MemorizationConfig,
    thetas: &[f64],
) -> Vec<MemorizationReport> {
    let searcher = NearDupSearcher::new(index).unwrap();
    let windows = generate_query_windows(model, config);
    thetas
        .iter()
        .map(|&theta| MemorizationReport {
            theta,
            queries: windows.len(),
            memorized: windows
                .iter()
                .filter(|w| searcher.search(w, theta).unwrap().num_texts() > 0)
                .count(),
        })
        .collect()
}

/// A `MemoryIndex` that counts the searches run against it: Algorithm 3
/// asks for the length of its function-0 list exactly once per query.
struct CountingIndex<'a> {
    inner: &'a MemoryIndex,
    searches: AtomicUsize,
}

impl IndexAccess for CountingIndex<'_> {
    fn config(&self) -> &IndexConfig {
        self.inner.config()
    }
    fn list_len(&self, func: usize, hash: u64) -> Result<u64, IndexError> {
        if func == 0 {
            self.searches.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.list_len(func, hash)
    }
    fn shared_list(
        &self,
        func: usize,
        hash: u64,
        io: &IoStats,
    ) -> Result<SharedList<'_>, IndexError> {
        self.inner.shared_list(func, hash, io)
    }
    fn probe_texts(
        &self,
        func: usize,
        hash: u64,
        texts: &[TextId],
        io: &IoStats,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        self.inner.probe_texts(func, hash, texts, io, out)
    }
    fn list_length_histogram(&self, func: usize) -> Result<LengthHistogram, IndexError> {
        self.inner.list_length_histogram(func)
    }
}

#[test]
fn one_scan_reports_what_the_per_theta_loop_reported() {
    let (corpus, index_config) = fig4_shaped();
    let index = MemoryIndex::build_parallel(&corpus, index_config.clone()).unwrap();
    let counting = CountingIndex {
        inner: &index,
        searches: AtomicUsize::new(0),
    };
    let memory = ShardedSearcher::single(&counting, PrefixFilter::default()).unwrap();
    let root = scratch("memorization", "three_shards");
    build_sharded(
        &corpus,
        index_config,
        &root,
        3,
        &ShardedBuildOptions::default(),
    )
    .unwrap();
    let store = ShardedIndex::open(&root).unwrap();
    assert_eq!(store.num_shards(), 3);
    let sharded = store.searcher_with_filter(PrefixFilter::default()).unwrap();

    let config = MemorizationConfig::new(5, 256).window(32).seed(101);
    let windows = 5 * (256 / 32);
    for order in [3usize, 4] {
        let model = NGramModel::train(&corpus, order).unwrap();
        for thetas in [
            &[1.0, 0.9, 0.8, 0.7][..],
            // Unsorted, with duplicates, lowest first and last.
            &[0.7, 1.0, 0.8, 0.8, 0.9, 0.7][..],
            &[0.85][..],
        ] {
            let expected = reference_reports(&model, &index, &config, thetas);
            counting.searches.store(0, Ordering::Relaxed);
            let reports = evaluate_memorization(&model, &memory, &config, thetas).unwrap();
            assert_eq!(reports, expected, "memory lane, order {order}, {thetas:?}");
            assert_eq!(
                counting.searches.load(Ordering::Relaxed),
                windows,
                "one search per window, whatever the number of thresholds"
            );
            let reports = evaluate_memorization(&model, &sharded, &config, thetas).unwrap();
            assert_eq!(
                reports, expected,
                "3-shard store, order {order}, {thetas:?}"
            );
        }
        if order == 4 {
            let at_07 = reference_reports(&model, &index, &config, &[0.7])[0];
            assert!(at_07.memorized > 0, "the comparison must not be vacuous");
        }
    }
    drop(store);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn examples_equal_the_serial_scan() {
    let (corpus, index) = setup();
    let model = NGramModel::train(&corpus, 5).unwrap();
    let config = MemorizationConfig::new(6, 160).window(32).seed(7);
    // Reference: search window after window until `limit` examples exist.
    let serial = NearDupSearcher::new(&index).unwrap();
    let mut expected = Vec::new();
    for window in generate_query_windows(&model, &config) {
        let outcome = serial.search(&window, 0.8).unwrap();
        let Some(best) = outcome.matches.iter().max_by_key(|m| m.best_collisions()) else {
            continue;
        };
        let span = best.merged_spans(outcome.t)[0];
        expected.push((window, best.text, span, best.best_collisions()));
    }
    assert!(expected.len() > 3, "enough examples for the limit to cut");
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    for limit in [0, 3, usize::MAX] {
        let examples = collect_examples(&model, &searcher, &config, 0.8, limit).unwrap();
        let got: Vec<_> = examples
            .into_iter()
            .map(|ex| (ex.query, ex.text, ex.span, ex.collisions))
            .collect();
        assert_eq!(got, expected[..limit.min(expected.len())]);
    }
}

#[test]
fn prompted_probe_equals_the_serial_scan() {
    let (corpus, index) = setup();
    let model = NGramModel::train(&corpus, 5).unwrap();
    let (trials, prompt_len, continuation_len, theta, seed) = (10, 24, 32, 0.8, 9);
    // Reference: the same draws, each continuation searched as it is made.
    let serial = NearDupSearcher::new(&index).unwrap();
    let mut rng = ndss::hash::Xoshiro256StarStar::new(seed);
    let (mut done, mut extracted) = (0, 0);
    while done < trials {
        let text = corpus
            .text_to_vec(rng.next_bounded(corpus.num_texts() as u64) as TextId)
            .unwrap();
        if text.len() < prompt_len + 1 {
            continue;
        }
        let start = rng.next_bounded((text.len() - prompt_len) as u64) as usize;
        let continuation = ndss::lm::generate::generate(
            &model,
            GenerationStrategy::Greedy,
            &text[start..start + prompt_len],
            continuation_len,
            &mut rng,
        );
        extracted += (serial.search(&continuation, theta).unwrap().num_texts() > 0) as usize;
        done += 1;
    }
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    let report = prompted_memorization(
        &model,
        &searcher,
        &corpus,
        trials,
        prompt_len,
        continuation_len,
        theta,
        seed,
    )
    .unwrap();
    assert_eq!((report.trials, report.extracted), (trials, extracted));
    assert!(extracted > 0, "the comparison must not be vacuous");
}
