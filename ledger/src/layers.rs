//! Per-layer measurements taken from outside: public functions of single
//! layers timed on inputs captured from the workload (its texts, its
//! queries, the lists and candidates those queries touch).

use std::hint::black_box;

use crate::adapter::{
    self, wire, Collision, Format, Hasher, Index, PackedBlock, Result, Rmq, Windows,
};
use crate::check::Gate;
use crate::common::{per_call_ns, timed};
use crate::host::Scratch;
use crate::load::{Load, Rng, Text};
use crate::report::Metrics;
use crate::{spec, stats};

const ROUNDS: usize = 5;
/// Texts and queries the primitives are timed on.
const SAMPLE_TEXTS: usize = 64;
const SAMPLE_QUERIES: usize = 64;
/// Lists at least this long carry zone maps and are probed, not read.
const LONG_LIST: u64 = 1024;

/// hash, rmq, windows, bitpack, and the serve codecs.
pub fn primitives(
    load: &Load,
    queries: &[Text],
    gate: &mut Gate,
    metrics: &mut Metrics,
) -> Result<()> {
    let texts = &load.corpus.texts[..SAMPLE_TEXTS.min(load.corpus.texts.len())];
    let queries = &queries[..SAMPLE_QUERIES.min(queries.len())];
    let tokens: usize = texts.iter().map(Vec::len).sum();
    let hasher = Hasher::new();

    let ns = per_call_ns(queries, ROUNDS, |q| {
        black_box(hasher.sketch(q));
    });
    metrics.set(
        "hash.sketch_ns_per_token",
        ns / spec::QUERY_LEN as f64,
        queries.len(),
    );

    // The Cartesian tree the indexer builds per text and function, and the
    // block RMQ of the recursive generator.
    let mut hashes: Vec<Vec<u64>> = Vec::new();
    for text in texts {
        let mut out = Vec::new();
        hasher.position_hashes(0, text, &mut out);
        hashes.push(out);
    }
    let ns = per_call_ns(&hashes, ROUNDS, |h| {
        black_box(adapter::cartesian_tree(h));
    });
    metrics.set(
        "rmq.build_ns_per_elem",
        ns * texts.len() as f64 / tokens as f64,
        texts.len(),
    );
    let flat: Vec<u64> = hashes.iter().flatten().copied().collect();
    let rmq = Rmq::new(&flat);
    let mut rng = Rng::new(17);
    let ranges: Vec<(usize, usize)> = (0..1_000)
        .map(|i| {
            let width = [10, 100, 1_000][i % 3].min(flat.len() - 1);
            let l = rng.below(flat.len() - width);
            (l, l + width)
        })
        .collect();
    let ns = per_call_ns(&ranges, ROUNDS, |&(l, r)| {
        black_box(rmq.argmin(l, r));
    });
    metrics.set("rmq.query_ns", ns, ranges.len());

    // Window generation, all functions; the count is exact and close to
    // theory's 2(n+1)/(t+1) - 1 per text and function.
    let mut windows = Windows::new();
    let mut generated = 0usize;
    let (_, secs) = timed(|| {
        for func in 0..spec::K {
            for text in texts {
                generated += windows.generate(&hasher, func, text);
            }
        }
    });
    metrics.set(
        "windows.gen_ns_per_token",
        secs * 1e9 / (tokens * spec::K) as f64,
        texts.len() * spec::K,
    );
    metrics.set(
        "windows.per_token",
        generated as f64 / (tokens * spec::K) as f64,
        tokens,
    );
    let expected: f64 = texts
        .iter()
        .map(|t| adapter::expected_windows(t.len()))
        .sum::<f64>()
        * spec::K as f64;
    gate.expect((generated as f64 / expected - 1.0).abs() < 0.1, || {
        format!("{generated} windows generated, theory expects about {expected:.0}")
    });

    // Blocks shaped like posting columns: small deltas, a few wide values.
    let blocks: Vec<PackedBlock> = (0..256)
        .map(|b| {
            let mut values = [0u32; adapter::BLOCK_LEN];
            let bits = 4 + (b % 5) * 4;
            for v in &mut values {
                *v = (rng.next_u64() & ((1u64 << bits) - 1)) as u32;
            }
            PackedBlock::pack(&values)
        })
        .collect();
    let mut out = [0u32; adapter::BLOCK_LEN];
    let ns = per_call_ns(&blocks, ROUNDS, |b| {
        b.unpack(&mut out);
        black_box(&out);
    });
    metrics.set("bitpack.unpack_ns_per_block", ns, blocks.len());
    let ns = per_call_ns(&blocks, ROUNDS, |b| {
        b.unpack_scalar(&mut out);
        black_box(&out);
    });
    metrics.set("bitpack.unpack_ns_per_block.scalar", ns, blocks.len());

    // Codecs, on the workload's queries and a ten-match answer.
    let top: adapter::TopK = (0..spec::TOP)
        .map(|i| {
            (
                i * 37,
                spec::K as u32 - i,
                vec![(i * 3, i * 3 + 70), (400 + i, 480 + i)],
            )
        })
        .collect();
    let ns = per_call_ns(queries, ROUNDS, |q| {
        black_box(wire::encode_request(q));
    });
    metrics.set("serve.frame.encode_req_ns", ns, queries.len());
    let payloads: Vec<Vec<u8>> = queries.iter().map(|q| wire::encode_request(q)).collect();
    let mut decoded = true;
    let ns = per_call_ns(&payloads, ROUNDS, |p| {
        decoded &= black_box(wire::decode_request(p))
    });
    metrics.set("serve.frame.decode_req_ns", ns, payloads.len());
    let response = wire::response(&top);
    let ns = per_call_ns(&[(); 64], ROUNDS, |()| {
        black_box(wire::encode_response(&response));
    });
    metrics.set("serve.frame.encode_resp_ns", ns, 64);
    let answer = wire::encode_response(&response);
    let ns = per_call_ns(&[(); 64], ROUNDS, |()| {
        decoded &= black_box(wire::decode_response(&answer))
    });
    metrics.set("serve.frame.decode_resp_ns", ns, 64);

    let bodies: Vec<String> = queries.iter().map(|q| adapter::HttpConn::body(q)).collect();
    let requests: Vec<Vec<u8>> = bodies.iter().map(|b| wire::http_request(b)).collect();
    let ns = per_call_ns(&requests, ROUNDS, |r| {
        decoded &= black_box(wire::http_parse(r))
    });
    metrics.set("serve.http.parse_ns", ns, requests.len());
    let mut sink = Vec::new();
    let ns = per_call_ns(&bodies, ROUNDS, |b| {
        decoded &= wire::http_write(&mut sink, b.as_bytes())
    });
    metrics.set("serve.http.write_ns", ns, bodies.len());
    let bytes: usize = bodies.iter().map(String::len).sum();
    let ns = per_call_ns(&bodies, ROUNDS, |b| {
        decoded &= black_box(wire::json_parse(b)).is_some()
    });
    metrics.set(
        "json.parse_ns_per_byte",
        ns * bodies.len() as f64 / bytes as f64,
        bodies.len(),
    );
    let docs: Vec<_> = bodies.iter().filter_map(|b| wire::json_parse(b)).collect();
    let ns = per_call_ns(&docs, ROUNDS, |d| {
        black_box(wire::json_emit(d));
    });
    metrics.set(
        "json.emit_ns_per_byte",
        ns * docs.len() as f64 / bytes as f64,
        docs.len(),
    );
    gate.expect(decoded && docs.len() == bodies.len(), || {
        "a codec refused bytes its own encoder produced".to_string()
    });
    Ok(())
}

/// The lists the sample queries select, split at the zone-map threshold,
/// and the windows of the texts they gather: inputs of the read-path and
/// counting primitives.
struct Touched {
    short: Vec<(usize, u64)>,
    /// `(func, hash, text)`: a long list and a text to probe it for.
    long: Vec<(usize, u64, u32)>,
    /// Windows `(l, c, r)` per gathered text, largest groups first.
    groups: Vec<Vec<(u32, u32, u32)>>,
}

fn touched(index: &Index, queries: &[Text]) -> Result<Touched> {
    let searcher = index.searcher()?;
    let mut t = Touched {
        short: Vec::new(),
        long: Vec::new(),
        groups: Vec::new(),
    };
    for q in queries.iter().take(SAMPLE_QUERIES) {
        let sketch = searcher.sketch(q);
        let outcome = searcher.search(q)?;
        let probe_text = outcome.matches.first().map_or(0, |m| m.text);
        let mut by_text: std::collections::BTreeMap<u32, Vec<(u32, u32, u32)>> = Default::default();
        for func in 0..spec::K {
            let hash = sketch.value(func);
            if index.list_len(func, hash)? >= LONG_LIST {
                t.long.push((func, hash, probe_text));
            } else {
                t.short.push((func, hash));
                for (text, l, c, r) in index.read_list(func, hash)? {
                    by_text.entry(text).or_default().push((l, c, r));
                }
            }
        }
        let mut groups: Vec<_> = by_text.into_values().collect();
        groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
        t.groups.extend(groups.into_iter().take(4));
    }
    Ok(t)
}

/// index.read (pread and mmap), query.collision, query.interval.
pub fn read_path(
    index_dir: &std::path::Path,
    queries: &[Text],
    metrics: &mut Metrics,
) -> Result<()> {
    let mut groups = Vec::new();
    for (suffix, mmap) in [("pread", false), ("mmap", true)] {
        let index = Index::open(index_dir, mmap)?;
        let t = touched(&index, queries)?;
        let mut postings = 0u64;
        for &(func, hash) in &t.short {
            postings += index.list_len(func, hash)?;
        }
        let mut failed = false;
        let ns = per_call_ns(&t.short, ROUNDS, |&(func, hash)| {
            failed |= black_box(index.read_list(func, hash)).is_err();
        });
        metrics.set(
            &format!("index.read.list_ns_per_posting.{suffix}"),
            ns * t.short.len() as f64 / postings.max(1) as f64,
            t.short.len(),
        );
        // A corpus this size may give the sample no long list at all; the
        // probe then reads as free rather than as missing.
        let ns = if t.long.is_empty() {
            0.0
        } else {
            per_call_ns(&t.long, ROUNDS, |&(func, hash, text)| {
                failed |= black_box(index.probe(func, hash, text)).is_err();
            })
        };
        metrics.set(&format!("index.read.probe_ns.{suffix}"), ns, t.long.len());
        if failed {
            return Err("an index read failed while being timed".into());
        }
        groups = t.groups;
    }

    let windows: Vec<_> = groups.iter().map(|g| Collision::windows(g)).collect();
    let total: usize = windows.iter().map(Vec::len).sum();
    let mut collision = Collision::new();
    let ns = per_call_ns(&windows, ROUNDS, |w| {
        black_box(collision.count(w));
    });
    metrics.set(
        "query.collision_ns_per_window",
        ns * windows.len() as f64 / total.max(1) as f64,
        total,
    );
    let intervals: Vec<_> = groups
        .iter()
        .map(|g| adapter::intervals(&g.iter().map(|&(l, c, _)| (l, c)).collect::<Vec<_>>()))
        .collect();
    let ns = per_call_ns(&intervals, ROUNDS, |iv| {
        black_box(adapter::interval_scan(iv, iv.len().clamp(1, 2)));
    });
    metrics.set(
        "query.interval_ns_per_interval",
        ns * intervals.len() as f64 / total.max(1) as f64,
        total,
    );
    Ok(())
}

/// index.build and index.format: the corpus built once per format in
/// separate steps, once out of core, and opened.
pub fn build_and_format(load: &Load, scratch: &Scratch, metrics: &mut Metrics) -> Result<()> {
    let corpus = adapter::Corpus::new(&load.corpus.texts);
    let tokens = corpus.tokens() as f64;
    for (format, name) in [(Format::V3, "v3"), (Format::V4, "v4"), (Format::V5, "v5")] {
        let dir = scratch.fresh(&format!("format_{name}"))?;
        let (mem_s, write_s) = adapter::build_in_steps(&corpus, format, &dir)?;
        let bytes = adapter::serving_bytes(&dir)? as f64;
        metrics.set(&format!("index.bytes_per_token.{name}"), bytes / tokens, 1);
        if format == Format::V5 {
            metrics.set("index.build.mem_s", mem_s, 1);
            metrics.set("index.build.write_s", write_s, 1);
            // Bytes per function over corpus bytes, against the paper's 8/t.
            let ratio = bytes / spec::K as f64 / (4.0 * tokens);
            metrics.set(
                "index.bound_ratio.v5",
                ratio / adapter::size_ratio_bound(),
                1,
            );
            let opens: Vec<f64> = (0..5)
                .map(|_| timed(|| Index::open(&dir, false)))
                .map(|(index, secs)| index.map(|_| secs * 1e3))
                .collect::<Result<_>>()?;
            metrics.set("index.open_ms", stats::median(&opens), opens.len());
        }
        std::fs::remove_dir_all(&dir)?;
    }
    let dir = scratch.fresh("external")?;
    let (built, secs) = timed(|| adapter::build_external(&corpus, &dir));
    built?;
    metrics.set("index.build.external_s", secs, 1);
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
