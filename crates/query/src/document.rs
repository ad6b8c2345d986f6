//! Document-level near-duplicate search.
//!
//! The paper's applications never issue one isolated query: the
//! memorization evaluation slides fixed-width windows over each generated
//! text (§5), and the plagiarism/dedup use cases slide windows over a
//! suspicious document. This module packages that scan on the lane set
//! ([`ShardedSearcher`]): cut windows of `width` tokens every `stride`
//! tokens of the document, search them all in one parallel batch, and
//! aggregate the hits **per corpus text** — merged matched regions, how
//! many document windows hit the text, and the best collision count.
//!
//! Results order by evidence: texts hit by more windows first, ties by best
//! collision count, then text id (deterministic).

use std::collections::BTreeMap;

use ndss_corpus::{SeqSpan, TextId};
use ndss_hash::TokenId;

use crate::search::merge_spans;
use crate::sharded::ShardedSearcher;
use crate::QueryError;

/// Aggregated evidence that `text` shares near-duplicate content with the
/// queried document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocumentMatch {
    /// The corpus text.
    pub text: TextId,
    /// Merged, disjoint matched regions within that text.
    pub regions: Vec<SeqSpan>,
    /// Number of document windows with at least one hit in this text.
    pub query_windows: usize,
    /// Spans of the document (token ranges) whose windows hit this text,
    /// merged and disjoint — "which parts of my document are copied".
    pub document_regions: Vec<SeqSpan>,
    /// The best per-window collision count observed (out of k).
    pub best_collisions: u32,
}

/// Configuration of the sliding-window scan.
#[derive(Debug, Clone, Copy)]
pub struct DocumentScan {
    /// Window width in tokens (the paper's `x`).
    pub width: usize,
    /// Step between window starts; `width` = non-overlapping (the paper's
    /// §5 protocol), smaller = denser coverage.
    pub stride: usize,
}

impl DocumentScan {
    /// Non-overlapping windows of `width` tokens (paper §5).
    pub fn non_overlapping(width: usize) -> Self {
        Self {
            width,
            stride: width,
        }
    }

    /// Overlapping windows with an explicit stride.
    pub fn with_stride(width: usize, stride: usize) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        Self { width, stride }
    }
}

impl ShardedSearcher<'_> {
    /// Scans `document` with sliding windows — one [`Self::search_all`]
    /// over all of them — and aggregates near-duplicate evidence per
    /// corpus text. Windows shorter than `scan.width` (at the document
    /// tail) are skipped, as in the paper.
    pub fn search_document(
        &self,
        document: &[TokenId],
        scan: DocumentScan,
        theta: f64,
    ) -> Result<Vec<DocumentMatch>, QueryError> {
        if scan.width == 0 || scan.stride == 0 {
            return Err(QueryError::EmptyQuery);
        }
        let windows: Vec<Vec<TokenId>> = document
            .windows(scan.width)
            .step_by(scan.stride)
            .map(<[TokenId]>::to_vec)
            .collect();
        let outcomes = self.search_all(&windows, theta)?;
        let mut per_text: BTreeMap<TextId, DocumentMatch> = BTreeMap::new();
        for (outcome, start) in outcomes.iter().zip((0..).step_by(scan.stride)) {
            for m in &outcome.matches {
                let spans = m.merged_spans(outcome.t);
                if spans.is_empty() {
                    continue;
                }
                let hit = per_text.entry(m.text).or_insert_with(|| DocumentMatch {
                    text: m.text,
                    regions: Vec::new(),
                    query_windows: 0,
                    document_regions: Vec::new(),
                    best_collisions: 0,
                });
                hit.regions.extend(spans);
                hit.document_regions
                    .push(SeqSpan::new(start as u32, (start + scan.width - 1) as u32));
                hit.query_windows += 1;
                hit.best_collisions = hit.best_collisions.max(m.best_collisions());
            }
        }
        let mut out: Vec<DocumentMatch> = per_text.into_values().collect();
        for hit in &mut out {
            hit.regions = merge_spans(std::mem::take(&mut hit.regions));
            hit.document_regions = merge_spans(std::mem::take(&mut hit.document_regions));
        }
        out.sort_by(|a, b| {
            b.query_windows
                .cmp(&a.query_windows)
                .then_with(|| b.best_collisions.cmp(&a.best_collisions))
                .then_with(|| a.text.cmp(&b.text))
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrefixFilter, ShardedIndex};
    use ndss_corpus::{CorpusSource, SyntheticCorpusBuilder};
    use ndss_index::{build_sharded, IndexConfig, MemoryIndex, ShardedBuildOptions};

    #[test]
    fn document_containing_copied_span_flags_the_source() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(151)
            .num_texts(60)
            .text_len(200, 400)
            .duplicates_per_text(1.0)
            .dup_len(80, 120)
            .mutation_rate(0.0)
            .build();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 7)).unwrap();
        let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
        // Fabricate a "document": 100 fresh tokens + a planted span + more
        // fresh tokens.
        let p = planted.iter().find(|p| p.dst.span.len() >= 100).unwrap();
        let copied = corpus.sequence_to_vec(p.dst).unwrap();
        let mut document: Vec<u32> = (2_000_000..2_000_100).collect();
        document.extend_from_slice(&copied);
        document.extend(2_000_100..2_000_200u32);

        let matches = searcher
            .search_document(&document, DocumentScan::non_overlapping(32), 0.9)
            .unwrap();
        assert!(!matches.is_empty());
        let hit = matches
            .iter()
            .find(|m| m.text == p.src.text)
            .expect("source text flagged");
        assert!(hit.query_windows >= 2, "long copy spans several windows");
        // Document regions point inside the copied section.
        for span in &hit.document_regions {
            assert!(span.end >= 100 && (span.start as usize) < 100 + copied.len() + 32);
        }
        // Regions are merged-disjoint.
        for w in hit.regions.windows(2) {
            assert!(w[0].end + 1 < w[1].start);
        }
    }

    #[test]
    fn clean_document_matches_nothing() {
        let (corpus, _) = SyntheticCorpusBuilder::new(152)
            .num_texts(30)
            .vocab_size(5_000)
            .build();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 7)).unwrap();
        let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
        let document: Vec<u32> = (3_000_000..3_000_300).collect();
        let matches = searcher
            .search_document(&document, DocumentScan::non_overlapping(32), 0.8)
            .unwrap();
        assert!(matches.is_empty());
    }

    #[test]
    fn overlapping_stride_finds_at_least_as_much() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(153)
            .num_texts(50)
            .duplicates_per_text(1.0)
            .mutation_rate(0.02)
            .build();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 7)).unwrap();
        let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
        let p = planted.first().unwrap();
        let document = corpus.text_to_vec(p.dst.text).unwrap();
        let coarse = searcher
            .search_document(&document, DocumentScan::non_overlapping(64), 0.8)
            .unwrap();
        let dense = searcher
            .search_document(&document, DocumentScan::with_stride(64, 16), 0.8)
            .unwrap();
        assert!(dense.len() >= coarse.len());
    }

    #[test]
    fn two_lane_store_equals_one_lane() {
        let (corpus, planted) = SyntheticCorpusBuilder::new(156)
            .num_texts(40)
            .duplicates_per_text(1.0)
            .mutation_rate(0.02)
            .build();
        let config = IndexConfig::new(16, 25, 7);
        let index = MemoryIndex::build(&corpus, config.clone()).unwrap();
        let one = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
        let root = std::env::temp_dir().join(format!("ndss_document_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        build_sharded(&corpus, config, &root, 2, &ShardedBuildOptions::default()).unwrap();
        let store = ShardedIndex::open(&root).unwrap();
        let two = store.searcher_with_filter(PrefixFilter::default()).unwrap();
        // A document whose copies come from both halves of the corpus.
        let mut document = Vec::new();
        for p in [planted.first().unwrap(), planted.last().unwrap()] {
            document.extend(corpus.text_to_vec(p.dst.text).unwrap());
        }
        for scan in [
            DocumentScan::non_overlapping(32),
            DocumentScan::with_stride(48, 16),
        ] {
            let expected = one.search_document(&document, scan, 0.8).unwrap();
            assert!(expected.len() >= 2, "the document copies two texts");
            assert_eq!(two.search_document(&document, scan, 0.8).unwrap(), expected);
        }
        drop(store);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn short_document_yields_no_windows() {
        let (corpus, _) = SyntheticCorpusBuilder::new(154).num_texts(10).build();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(4, 25, 7)).unwrap();
        let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
        let matches = searcher
            .search_document(&[1, 2, 3], DocumentScan::non_overlapping(32), 0.8)
            .unwrap();
        assert!(matches.is_empty());
    }

    #[test]
    fn zero_width_is_an_error() {
        let (corpus, _) = SyntheticCorpusBuilder::new(155).num_texts(5).build();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(4, 25, 7)).unwrap();
        let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
        // A scan that cuts no window, or never advances (once an endless loop).
        for (width, stride) in [(0, 1), (2, 0)] {
            let scan = DocumentScan { width, stride };
            assert!(searcher.search_document(&[1, 2, 3], scan, 0.8).is_err());
        }
    }
}
