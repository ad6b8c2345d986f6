//! Figure 4 — language-model memorization: the fraction of generated query
//! windows with near-duplicates in the training corpus, as a function of
//! the similarity threshold θ (panels a, c), the sliding-window width x
//! (panels b, d), and the model capacity, on an OpenWebText-like corpus
//! (GPT-2-small/medium analogs) and a Pile-like corpus (GPT-Neo analogs).
//!
//! ```text
//! cargo run -p ndss-bench --release --bin fig4_memorization
//! ```
//!
//! Paper shapes this must reproduce (§5):
//! * memorized fraction grows as θ drops;
//! * higher-capacity models memorize more (with the paper's own caveat
//!   that its *small* GPT-2 beat its *medium* one — capacity ordering is
//!   only required for the clearly separated sizes);
//! * smaller windows memorize more (with the paper's x=64 vs x=128
//!   sampling-artifact exception).

use ndss::prelude::*;
use ndss_bench::{shape_check, Csv};

/// A training corpus with heavy internal duplication so that n-gram
/// generations echo training spans (web corpora are 30–45% near-duplicate).
fn training_corpus(seed: u64, vocab: usize) -> InMemoryCorpus {
    SyntheticCorpusBuilder::new(seed)
        .num_texts(800)
        .text_len(300, 700)
        .vocab_size(vocab)
        .duplicates_per_text(1.5)
        .dup_len(80, 200)
        .mutation_rate(0.0)
        .build()
        .0
}

fn panel_theta(
    name: &str,
    corpus: &InMemoryCorpus,
    searcher: &ShardedSearcher<'_>,
    models: &[(&str, usize)],
    thetas: &[f64],
) -> Vec<(String, Vec<f64>)> {
    let mut csv = Csv::new(name, "model,order,theta,queries,memorized,ratio");
    let mut curves = Vec::new();
    for &(label, order) in models {
        let model = NGramModel::train(corpus, order).expect("train");
        let config = MemorizationConfig::new(25, 512).window(32).seed(101);
        let reports = evaluate_memorization(&model, searcher, &config, thetas).expect("evaluate");
        let mut ratios = Vec::new();
        for r in &reports {
            ndss_bench::csv_row!(
                csv,
                "{label},{order},{},{},{},{:.4}",
                r.theta,
                r.queries,
                r.memorized,
                r.ratio()
            );
            ratios.push(r.ratio());
        }
        curves.push((label.to_string(), ratios));
    }
    curves
}

fn panel_window(
    name: &str,
    corpus: &InMemoryCorpus,
    searcher: &ShardedSearcher<'_>,
    order: usize,
) -> Vec<(usize, f64)> {
    let model = NGramModel::train(corpus, order).expect("train");
    let mut csv = Csv::new(name, "x,theta,queries,memorized,ratio");
    let mut points = Vec::new();
    for x in [32usize, 64, 128] {
        let config = MemorizationConfig::new(25, 512).window(x).seed(103);
        let r = evaluate_memorization(&model, searcher, &config, &[0.8]).expect("evaluate")[0];
        ndss_bench::csv_row!(
            csv,
            "{x},0.8,{},{},{:.4}",
            r.queries,
            r.memorized,
            r.ratio()
        );
        points.push((x, r.ratio()));
    }
    points
}

fn main() {
    println!("== Figure 4: language-model memorization ==");

    // ---- Panels (a), (b): OWT-like corpus, GPT-2 small/medium analogs. ---
    let owt = training_corpus(201, 8_000);
    let owt_index = MemoryIndex::build_parallel(&owt, IndexConfig::new(32, 25, 9)).expect("index");
    let owt_lanes = ShardedSearcher::single(&owt_index, PrefixFilter::default()).expect("lanes");
    let thetas = [1.0, 0.9, 0.8, 0.7];
    let curves = panel_theta(
        "fig4a_ratio_vs_theta_owt",
        &owt,
        &owt_lanes,
        &[("gpt2-small-analog", 3), ("gpt2-medium-analog", 4)],
        &thetas,
    );
    for (label, ratios) in &curves {
        let monotone = ratios.windows(2).all(|w| w[1] >= w[0] - 1e-9);
        shape_check(
            &format!("fig4a {label}: ratio grows as θ drops"),
            monotone,
            &format!("{ratios:.3?}"),
        );
    }
    let points = panel_window("fig4b_ratio_vs_window_owt", &owt, &owt_lanes, 4);
    shape_check(
        "fig4b smaller windows memorize more",
        points[0].1 >= points.last().unwrap().1,
        &format!("{points:?}"),
    );

    // ---- Panels (c), (d): Pile-like corpus, GPT-Neo analogs. ------------
    let pile = training_corpus(202, 50_257);
    let pile_index =
        MemoryIndex::build_parallel(&pile, IndexConfig::new(32, 25, 10)).expect("index");
    let pile_lanes = ShardedSearcher::single(&pile_index, PrefixFilter::default()).expect("lanes");
    let curves = panel_theta(
        "fig4c_ratio_vs_theta_pile",
        &pile,
        &pile_lanes,
        &[("neo-1.3b-analog", 4), ("neo-2.7b-analog", 6)],
        &thetas,
    );
    // The clearly separated capacities must order: order-6 ≥ order-4 at θ=0.8.
    let small = curves[0].1[2];
    let large = curves[1].1[2];
    shape_check(
        "fig4c larger model memorizes more (θ = 0.8)",
        large >= small,
        &format!("order-6: {large:.3} vs order-4: {small:.3}"),
    );
    let points = panel_window("fig4d_ratio_vs_window_pile", &pile, &pile_lanes, 6);
    shape_check(
        "fig4d smaller windows memorize more",
        points[0].1 >= points.last().unwrap().1,
        &format!("{points:?}"),
    );
    println!("\ndone.");
}
