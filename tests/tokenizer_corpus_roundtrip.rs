//! Integration of the tokenizer with the corpus and search layers: raw text
//! in, tokenized corpus indexed, matches decoded back to text.

use ndss::corpus::types::CorpusSource;
use ndss::prelude::*;
use proptest::prelude::*;

/// A small "natural-language-like" raw-text corpus built from pseudo-words,
/// with the last text plagiarizing a sentence from the first.
fn raw_corpus() -> Vec<String> {
    let mut texts: Vec<String> = Vec::new();
    for t in 0..12u32 {
        let words: Vec<String> = (0..120)
            .map(|i| PseudoWords::word((t * 7919 + i * 104729) % 900))
            .collect();
        texts.push(words.join(" "));
    }
    // Plagiarize: copy a long middle chunk of text 0 into a fresh text.
    let source = texts[0].clone();
    let chunk: String = source
        .split(' ')
        .skip(20)
        .take(60)
        .collect::<Vec<_>>()
        .join(" ");
    texts.push(format!(
        "{} {} {}",
        PseudoWords::render(&[1, 2, 3]),
        chunk,
        PseudoWords::render(&[4, 5, 6])
    ));
    texts
}

#[test]
fn tokenize_index_search_decode() {
    let raw = raw_corpus();
    let tokenizer = BpeTrainer::new(600).train(raw.iter().map(String::as_str));

    // Tokenize into a corpus.
    let mut corpus = InMemoryCorpus::new();
    for text in &raw {
        corpus.push_text(&tokenizer.encode(text));
    }

    // Index and query with the plagiarized chunk.
    let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 20, 42)).unwrap();
    let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
    let chunk: String = raw[0]
        .split(' ')
        .skip(20)
        .take(60)
        .collect::<Vec<_>>()
        .join(" ");
    let query = tokenizer.encode(&chunk);
    assert!(query.len() >= 20, "query must exceed the length threshold");
    let outcome = searcher.search(&query, 0.8).unwrap();

    // Both the original (text 0) and the plagiarizing text (last) match.
    let matched: Vec<TextId> = outcome.matches.iter().map(|m| m.text).collect();
    assert!(matched.contains(&0), "original text not found: {matched:?}");
    assert!(
        matched.contains(&(raw.len() as u32 - 1)),
        "plagiarizing text not found: {matched:?}"
    );

    // Decode a merged matched span from text 0 and check it shares words
    // with the chunk.
    let m0 = outcome.matches.iter().find(|m| m.text == 0).unwrap();
    let span = m0.merged_spans(outcome.t)[0];
    let tokens = corpus.sequence_to_vec(SeqRef { text: 0, span }).unwrap();
    let decoded = tokenizer.decode(&tokens);
    let chunk_words: std::collections::HashSet<&str> = chunk.split(' ').collect();
    let shared = decoded
        .split(' ')
        .filter(|w| chunk_words.contains(w))
        .count();
    assert!(
        shared >= 20,
        "decoded match shares only {shared} words with the query chunk"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// BPE round-trips arbitrary ASCII-ish strings after training on an
    /// unrelated corpus.
    #[test]
    fn bpe_roundtrip_arbitrary_text(text in "[ -~]{0,200}") {
        let raw = raw_corpus();
        let tokenizer = BpeTrainer::new(400).train(raw.iter().map(String::as_str));
        prop_assert_eq!(tokenizer.decode(&tokenizer.encode(&text)), text);
    }

    /// Disk corpus round-trips arbitrary token arrays.
    #[test]
    fn disk_corpus_roundtrip(texts in proptest::collection::vec(
        proptest::collection::vec(proptest::num::u32::ANY, 0..50), 1..8)
    ) {
        let path = ndss_integration::scratch("roundtrip", "corpus").join("c.ndsc");
        let mem = InMemoryCorpus::from_texts(texts.clone());
        let disk = ndss::corpus::disk::write_corpus(&mem, &path).unwrap();
        prop_assert_eq!(disk.num_texts(), texts.len());
        for (i, t) in texts.iter().enumerate() {
            prop_assert_eq!(&disk.text_to_vec(i as u32).unwrap(), t);
        }
        std::fs::remove_file(&path).ok();
    }
}
