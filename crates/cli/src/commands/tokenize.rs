//! `ndss tokenize`: train a BPE tokenizer on raw text (one document per
//! line) and write the tokenized corpus.

use std::path::Path;

use ndss::prelude::*;

use crate::args::Args;

/// Every flag `ndss tokenize` reads; any other is refused before it runs.
pub const FLAGS: &[&str] = &["input", "out", "tokenizer", "vocab-size"];

pub fn run(args: &Args) -> Result<(), String> {
    let input = args.required("input")?;
    let out = args.required("out")?;
    let vocab_size: usize = args.get_or("vocab-size", 32_000)?;

    eprintln!("reading {input}…");
    let raw = std::fs::read_to_string(input).map_err(|e| e.to_string())?;
    let documents: Vec<&str> = raw.lines().filter(|l| !l.trim().is_empty()).collect();
    if documents.is_empty() {
        return Err("input contains no non-empty lines".into());
    }

    eprintln!(
        "training BPE tokenizer (target vocab {vocab_size}) on {} documents…",
        documents.len()
    );
    let tokenizer = BpeTrainer::new(vocab_size).train(documents.iter().copied());
    println!(
        "trained tokenizer: vocab {} ({} merges)",
        tokenizer.vocab_size(),
        tokenizer.merges().len()
    );
    if let Some(tok_path) = args.get("tokenizer") {
        tokenizer
            .save(Path::new(tok_path))
            .map_err(|e| e.to_string())?;
        println!("saved tokenizer to {tok_path}");
    }

    eprintln!("tokenizing…");
    let mut writer =
        ndss::corpus::DiskCorpusWriter::create(Path::new(out)).map_err(|e| e.to_string())?;
    let mut total_tokens = 0u64;
    for doc in &documents {
        let ids = tokenizer.encode(doc);
        total_tokens += ids.len() as u64;
        writer.push_text(&ids).map_err(|e| e.to_string())?;
    }
    let corpus = writer.finish().map_err(|e| e.to_string())?;
    println!(
        "wrote {} texts / {total_tokens} tokens to {out}",
        corpus.num_texts()
    );
    Ok(())
}
