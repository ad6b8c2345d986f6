//! `ndss synth`: generate a synthetic corpus file with planted duplicates.

use std::path::Path;

use ndss::corpus::disk::write_corpus;
use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss synth` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &[
    "out",
    "texts",
    "vocab",
    "seed",
    "min-len",
    "max-len",
    "dup-rate",
    "mutation",
    "provenance",
];

pub fn run(args: &Args) -> Result<(), String> {
    let out = args.required("out")?;
    let texts: usize = args.get_or("texts", 10_000)?;
    let vocab: usize = args.get_or("vocab", 32_000)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let min_len: usize = args.get_or("min-len", 200)?;
    let max_len: usize = args.get_or("max-len", 600)?;
    let dup_rate: f64 = args.get_or("dup-rate", 0.4)?;
    let mutation: f64 = args.get_or("mutation", 0.05)?;

    if min_len == 0 || min_len > max_len {
        return Err(format!("invalid length range [{min_len}, {max_len}]"));
    }
    eprintln!("generating {texts} texts (vocab {vocab}, seed {seed})…");
    let (corpus, planted) = SyntheticCorpusBuilder::new(seed)
        .num_texts(texts)
        .text_len(min_len, max_len)
        .vocab_size(vocab)
        .duplicates_per_text(dup_rate)
        .mutation_rate(mutation)
        .build();
    write_corpus(&corpus, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} texts / {} tokens to {out} ({} planted near-duplicate pairs)",
        corpus.num_texts(),
        corpus.total_tokens(),
        planted.len()
    );

    if let Some(prov) = args.get("provenance") {
        let json = encode_provenance(&planted)?;
        std::fs::write(prov, json).map_err(|e| e.to_string())?;
        println!(
            "wrote provenance of {} planted pairs to {prov}",
            planted.len()
        );
    }
    Ok(())
}

fn encode_provenance(planted: &[ndss::corpus::PlantedDuplicate]) -> Result<String, String> {
    // Hand-rolled, line-oriented JSONL: src_text,src_start,src_end,
    // dst_text,dst_start,dst_end,mutated — easy to consume from any tool.
    let mut out = String::new();
    for p in planted {
        out.push_str(&format!(
            "{{\"src\":[{},{},{}],\"dst\":[{},{},{}],\"mutated\":{}}}\n",
            p.src.text,
            p.src.span.start,
            p.src.span.end,
            p.dst.text,
            p.dst.span.start,
            p.dst.span.end,
            p.mutated_tokens
        ));
    }
    Ok(out)
}
