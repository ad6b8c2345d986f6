//! Storage-format ablation: fixed-width (v3) vs varint delta-block (v4)
//! posting lists — full-list reads, per-text zone probes, and raw
//! encode/decode throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ndss::index::varint::{decode_block, encode_block};
use ndss::index::Posting;
use ndss::prelude::*;
use ndss::windows::CompactWindow;

fn build_pair() -> (DiskIndex, DiskIndex, Vec<u64>) {
    let (corpus, _) = SyntheticCorpusBuilder::new(71)
        .num_texts(400)
        .text_len(150, 400)
        .vocab_size(1_000)
        .build();
    let base = IndexConfig::new(1, 15, 7).zone_map(64, 128);
    let dir3 = std::env::temp_dir().join("ndss_bench_storage_v3");
    let dir4 = std::env::temp_dir().join("ndss_bench_storage_v4");
    for d in [&dir3, &dir4] {
        std::fs::remove_dir_all(d).ok();
        std::fs::create_dir_all(d).unwrap();
    }
    let mem = MemoryIndex::build(&corpus, base.clone()).unwrap();
    let v3 = ndss::index::write_memory_index(&mem, &dir3).unwrap();
    let mem4 = MemoryIndex::build(&corpus, base.compressed(true)).unwrap();
    let v4 = ndss::index::write_memory_index(&mem4, &dir4).unwrap();
    // The ten longest lists (by key) to hammer.
    let mut keys: Vec<(u64, u64)> = mem
        .sorted_lists(0)
        .iter()
        .map(|&(h, p)| (p.len() as u64, h))
        .collect();
    keys.sort_unstable_by_key(|&(len, _)| std::cmp::Reverse(len));
    let hot: Vec<u64> = keys.iter().take(10).map(|&(_, h)| h).collect();
    (v3, v4, hot)
}

fn bench_list_reads(c: &mut Criterion) {
    let (v3, v4, hot) = build_pair();
    let mut group = c.benchmark_group("storage_read_list");
    group.bench_function("v3_fixed_width", |b| {
        b.iter(|| {
            for &h in &hot {
                black_box(v3.read_list(0, h).unwrap());
            }
        });
    });
    group.bench_function("v4_varint_blocks", |b| {
        b.iter(|| {
            for &h in &hot {
                black_box(v4.read_list(0, h).unwrap());
            }
        });
    });
    group.finish();

    let mut group = c.benchmark_group("storage_probe_text");
    group.bench_function("v3_zone_map", |b| {
        b.iter(|| {
            for &h in &hot {
                black_box(v3.read_postings_for_text(0, h, 200).unwrap());
            }
        });
    });
    group.bench_function("v4_block_index", |b| {
        b.iter(|| {
            for &h in &hot {
                black_box(v4.read_postings_for_text(0, h, 200).unwrap());
            }
        });
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let postings: Vec<Posting> = (0..4096u32)
        .map(|i| Posting {
            text: i / 4,
            window: CompactWindow::new(i % 200, i % 200 + 5, i % 200 + 40),
        })
        .collect();
    let mut encoded = Vec::new();
    encode_block(&postings, &mut encoded);
    println!(
        "codec: {} postings, v3 = {} B, v4 = {} B ({:.2}x smaller)",
        postings.len(),
        postings.len() * Posting::ENCODED_LEN,
        encoded.len(),
        (postings.len() * Posting::ENCODED_LEN) as f64 / encoded.len() as f64
    );
    let mut group = c.benchmark_group("storage_codec");
    group.throughput(Throughput::Elements(postings.len() as u64));
    group.bench_function("encode_block", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            encode_block(black_box(&postings), &mut out);
            black_box(out.len())
        });
    });
    group.bench_function("decode_block", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            decode_block(black_box(&encoded), postings.len(), &mut out).unwrap();
            black_box(out.len())
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(600))
        .warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_list_reads, bench_codec
}
criterion_main!(benches);
