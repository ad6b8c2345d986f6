//! Figure 2 — index construction: number of compact windows (a–d), index
//! size (e–h), and index time split into window generation + index write (i–l),
//! swept over the length threshold `t`, the number of hash functions `k`,
//! the vocabulary size, and the corpus scale, for OpenWebText-like and
//! Pile-like corpora.
//!
//! ```text
//! cargo run -p ndss-bench --release --bin fig2_indexing
//! ```
//!
//! Paper shapes this must reproduce (§4.1):
//! * window count inversely proportional to `t` (expectation `2(n+1)/(t+1) − 1`);
//! * slightly fewer windows for the larger vocabulary;
//! * window count linear in `k` and in the corpus size;
//! * index size proportional to the window count, with per-index
//!   size / corpus size well below 1 for reasonable `t`;
//! * index time linear in corpus size and `k`, inverse in `t`.

use ndss::prelude::*;
use ndss_bench::{ms, owt_like, pile_like, scratch_root, shape_check, time, Csv};

struct BuildOutcome {
    postings: u64,
    index_bytes: u64,
    gen_ms: f64,
    write_ms: f64,
}

/// Builds (in memory, timed) then writes (timed) and measures.
fn build(corpus: &InMemoryCorpus, k: usize, t: usize, tag: &str) -> BuildOutcome {
    let dir = scratch_root("fig2").join(tag);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (index, gen_time) =
        time(|| MemoryIndex::build_parallel(corpus, IndexConfig::new(k, t, 7)).expect("build"));
    let (disk, write_time) = time(|| ndss::index::write_memory_index(&index, &dir).expect("write"));
    let outcome = BuildOutcome {
        postings: index.total_postings(),
        index_bytes: disk.size_bytes().expect("size"),
        gen_ms: ms(gen_time),
        write_ms: ms(write_time),
    };
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

fn main() {
    println!("== Figure 2: index construction ==");

    // ---- Panels (a), (e), (i): sweep t × vocab (k = 1, scale 1). --------
    let mut csv_a = Csv::new("fig2a_windows_vs_t", "vocab,t,windows,expected");
    let mut csv_e = Csv::new("fig2e_size_vs_t", "vocab,t,index_bytes,corpus_bytes");
    let mut csv_i = Csv::new("fig2i_time_vs_t", "vocab,t,gen_ms,write_ms");
    let mut windows_at_t = std::collections::HashMap::new();
    for vocab in [32_000usize, 64_000] {
        let (corpus, _) = owt_like(1, vocab, 11);
        let expected_for = |t: usize| {
            corpus
                .iter()
                .map(|(_, toks)| ndss::windows::theory::expected_windows(toks.len(), t))
                .sum::<f64>()
        };
        for t in [25usize, 50, 100, 200] {
            let out = build(&corpus, 1, t, &format!("a_v{vocab}_t{t}"));
            windows_at_t.insert((vocab, t), out.postings);
            ndss_bench::csv_row!(csv_a, "{vocab},{t},{},{:.0}", out.postings, expected_for(t));
            ndss_bench::csv_row!(
                csv_e,
                "{vocab},{t},{},{}",
                out.index_bytes,
                corpus.total_tokens() * 4
            );
            ndss_bench::csv_row!(csv_i, "{vocab},{t},{:.2},{:.2}", out.gen_ms, out.write_ms);
        }
    }
    csv_a.flush();
    csv_e.flush();
    csv_i.flush();
    let r = windows_at_t[&(64_000, 25)] as f64 / windows_at_t[&(64_000, 50)] as f64;
    shape_check(
        "fig2a windows ~ 1/t",
        (r - 51.0 / 26.0).abs() < 0.35,
        &format!("count(t=25)/count(t=50) = {r:.2}, theory 1.96"),
    );
    shape_check(
        "fig2a larger vocab → slightly fewer windows",
        windows_at_t[&(64_000, 50)] <= windows_at_t[&(32_000, 50)],
        &format!(
            "64K: {}, 32K: {}",
            windows_at_t[&(64_000, 50)],
            windows_at_t[&(32_000, 50)]
        ),
    );

    // ---- Panels (b), (f), (j): sweep k (t = 50, vocab 64K). --------------
    let (corpus, _) = owt_like(1, 64_000, 11);
    let mut csv_b = Csv::new("fig2b_windows_vs_k", "k,windows");
    let mut csv_f = Csv::new("fig2f_size_vs_k", "k,index_bytes");
    let mut csv_j = Csv::new("fig2j_time_vs_k", "k,gen_ms,write_ms");
    let mut windows_at_k = Vec::new();
    for k in [1usize, 2, 4, 8] {
        let out = build(&corpus, k, 50, &format!("b_k{k}"));
        windows_at_k.push((k, out.postings));
        ndss_bench::csv_row!(csv_b, "{k},{}", out.postings);
        ndss_bench::csv_row!(csv_f, "{k},{}", out.index_bytes);
        ndss_bench::csv_row!(csv_j, "{k},{:.2},{:.2}", out.gen_ms, out.write_ms);
    }
    csv_b.flush();
    csv_f.flush();
    csv_j.flush();
    let r = windows_at_k.last().unwrap().1 as f64 / windows_at_k[0].1 as f64;
    shape_check(
        "fig2b windows linear in k",
        (r - 8.0).abs() < 0.5,
        &format!("count(k=8)/count(k=1) = {r:.2}"),
    );

    // ---- Panels (c), (g), (k): OWT-like corpus-size sweep. ---------------
    let mut csv_c = Csv::new("fig2c_windows_vs_size_owt", "scale,texts,windows");
    let mut csv_g = Csv::new("fig2g_size_vs_size_owt", "scale,index_bytes");
    let mut csv_k = Csv::new("fig2k_time_vs_size_owt", "scale,gen_ms,write_ms");
    let mut windows_at_scale = Vec::new();
    for scale in [1usize, 2, 4, 8] {
        let (corpus, _) = owt_like(scale, 64_000, 11);
        let out = build(&corpus, 1, 100, &format!("c_s{scale}"));
        windows_at_scale.push((scale, out.postings));
        ndss_bench::csv_row!(csv_c, "{scale},{},{}", corpus.num_texts(), out.postings);
        ndss_bench::csv_row!(csv_g, "{scale},{}", out.index_bytes);
        ndss_bench::csv_row!(csv_k, "{scale},{:.2},{:.2}", out.gen_ms, out.write_ms);
    }
    csv_c.flush();
    csv_g.flush();
    csv_k.flush();
    let r = windows_at_scale.last().unwrap().1 as f64 / windows_at_scale[0].1 as f64;
    shape_check(
        "fig2c windows linear in corpus size",
        (r - 8.0).abs() < 0.5,
        &format!("count(8x)/count(1x) = {r:.2}"),
    );

    // ---- Panels (d), (h), (l): Pile-like corpus-size sweep. --------------
    let mut csv_d = Csv::new("fig2d_windows_vs_size_pile", "scale,texts,windows");
    let mut csv_h = Csv::new("fig2h_size_vs_size_pile", "scale,index_bytes,corpus_bytes");
    let mut csv_l = Csv::new("fig2l_time_vs_size_pile", "scale,gen_ms,write_ms");
    let mut pile_sizes = Vec::new();
    for scale in [1usize, 2, 4] {
        let (corpus, _) = pile_like(scale, 13);
        let out = build(&corpus, 1, 100, &format!("d_s{scale}"));
        pile_sizes.push((corpus.total_tokens(), out.index_bytes));
        ndss_bench::csv_row!(csv_d, "{scale},{},{}", corpus.num_texts(), out.postings);
        ndss_bench::csv_row!(
            csv_h,
            "{scale},{},{}",
            out.index_bytes,
            corpus.total_tokens() * 4
        );
        ndss_bench::csv_row!(csv_l, "{scale},{:.2},{:.2}", out.gen_ms, out.write_ms);
    }
    csv_d.flush();
    csv_h.flush();
    csv_l.flush();
    let (tokens, bytes) = *pile_sizes.last().unwrap();
    let ratio = bytes as f64 / (tokens as f64 * 4.0);
    shape_check(
        "fig2h index much smaller than corpus at t=100",
        ratio < 0.5,
        &format!("per-index size / corpus size = {ratio:.3} (paper: ~0.15 for Pile, t=100)"),
    );
    std::fs::remove_dir_all(scratch_root("fig2")).ok();
    println!("\ndone.");
}
