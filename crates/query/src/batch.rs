//! Parallel batch query execution against one index.
//!
//! Memorization evaluation is a *throughput* workload: thousands of model
//! generations are checked against the training corpus, and each query is
//! independent. [`BatchSearcher`] is the lane set of one lane
//! ([`ShardedSearcher::single`]) and runs on its batch driver: queries fan
//! out over a thread pool, outcomes come back **in input order**, each with
//! per-query [`crate::QueryStats`] attributed through that query's own IO
//! accumulator, and the first failure cancels the rest
//! ([`ShardedSearcher::search_all`]). One `Result` per query under a
//! per-query budget is [`ShardedSearcher::search_all_governed`].

use ndss_hash::TokenId;
use ndss_index::IndexAccess;

use crate::search::{PrefixFilter, SearchOutcome};
use crate::sharded::ShardedSearcher;
use crate::QueryError;

/// Runs many queries against one index across a thread pool.
///
/// Results are deterministic: `search_all(queries, θ)[i]` equals
/// `NearDupSearcher::search(queries[i], θ)`, whatever the thread count.
/// Stats are exact per query, but timing fields vary run to run, and with
/// a shared hot-list cache `io_bytes`/hit counts depend on which query
/// touched a list first (disable the cache for schedule-independent IO
/// attribution).
pub struct BatchSearcher<'a>(ShardedSearcher<'a>);

impl<'a> BatchSearcher<'a> {
    /// A batch searcher with prefix filtering disabled and one thread per
    /// available core.
    pub fn new(index: &'a dyn IndexAccess) -> Result<Self, QueryError> {
        Self::with_prefix_filter(index, PrefixFilter::Disabled)
    }

    /// A batch searcher with the given prefix-filtering policy.
    pub fn with_prefix_filter(
        index: &'a dyn IndexAccess,
        filter: PrefixFilter,
    ) -> Result<Self, QueryError> {
        ShardedSearcher::single(index, filter).map(Self)
    }

    /// Pins the worker-thread count (`0` or `1` runs serially inline).
    pub fn threads(self, threads: usize) -> Self {
        Self(self.0.threads(threads))
    }

    /// Runs every query at threshold `theta`; `results[i]` corresponds to
    /// `queries[i]`. Fails fast with the first error in input order.
    pub fn search_all(
        &self,
        queries: &[Vec<TokenId>],
        theta: f64,
    ) -> Result<Vec<SearchOutcome>, QueryError> {
        self.0.search_all(queries, theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NearDupSearcher, QueryBudget};
    use ndss_corpus::{CorpusSource, SyntheticCorpusBuilder};
    use ndss_index::{IndexConfig, MemoryIndex};

    fn workload() -> (ndss_corpus::InMemoryCorpus, Vec<Vec<u32>>) {
        let (corpus, planted) = SyntheticCorpusBuilder::new(71)
            .num_texts(50)
            .duplicates_per_text(1.0)
            .mutation_rate(0.03)
            .build();
        let queries: Vec<Vec<u32>> = planted
            .iter()
            .take(12)
            .map(|p| corpus.sequence_to_vec(p.dst).unwrap())
            .collect();
        (corpus, queries)
    }

    #[test]
    fn batch_matches_serial_in_input_order() {
        let (corpus, queries) = workload();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 9)).unwrap();

        let serial = NearDupSearcher::new(&index).unwrap();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| serial.search(q, 0.8).unwrap().enumerate_all())
            .collect();

        for threads in [1, 4, 8] {
            let batch = BatchSearcher::new(&index).unwrap().threads(threads);
            let got = batch.search_all(&queries, 0.8).unwrap();
            assert_eq!(got.len(), queries.len());
            for (i, outcome) in got.iter().enumerate() {
                assert_eq!(
                    outcome.enumerate_all(),
                    expected[i],
                    "query {i} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_batch_and_bad_query_propagate() {
        let (corpus, _) = SyntheticCorpusBuilder::new(72).num_texts(5).build();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(4, 25, 1)).unwrap();
        let batch = BatchSearcher::new(&index).unwrap().threads(4);
        assert!(batch.search_all(&[], 0.8).unwrap().is_empty());
        let queries = vec![vec![1u32, 2, 3], Vec::new()];
        assert!(matches!(
            batch.search_all(&queries, 0.8),
            Err(QueryError::EmptyQuery)
        ));
    }

    /// Per-slot results: the poisoned query is exactly one `Err` at its own
    /// index; every other outcome is bit-identical to a solo run.
    #[test]
    fn isolate_mode_confines_a_poisoned_query() {
        let (corpus, mut queries) = workload();
        let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 9)).unwrap();
        let serial = NearDupSearcher::new(&index).unwrap();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| serial.search(q, 0.8).unwrap().enumerate_all())
            .collect();
        let poisoned = 3;
        queries[poisoned] = Vec::new(); // EmptyQuery on arrival

        for threads in [1, 4] {
            let batch = ShardedSearcher::single(&index, PrefixFilter::Disabled)
                .unwrap()
                .threads(threads);
            let results = batch.search_all_governed(&queries, 0.8, &QueryBudget::unlimited());
            assert_eq!(results.len(), queries.len());
            for (i, r) in results.iter().enumerate() {
                if i == poisoned {
                    assert!(matches!(r, Err(QueryError::EmptyQuery)), "index {i}");
                } else {
                    assert_eq!(
                        r.as_ref().unwrap().enumerate_all(),
                        expected[i],
                        "index {i}"
                    );
                }
            }
        }
    }
}
