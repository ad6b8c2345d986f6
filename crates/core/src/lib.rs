//! # ndss — Near-Duplicate Sequence Search at Scale
//!
//! A from-scratch Rust implementation of the SIGMOD 2023 paper
//! *"Near-Duplicate Sequence Search at Scale for Large Language Model
//! Memorization Evaluation"* (Peng, Wang, Deng). Given a corpus of tokenized
//! texts, the system indexes the min-hash of **every sequence of length ≥ t**
//! in linear time and space via *compact windows*, and answers queries of
//! the form "find every sequence whose Jaccard similarity with `Q` is at
//! least θ" with guarantees (exactly, for the min-hash collision formulation
//! of Definition 2).
//!
//! This crate re-exports the workspace layers and, in [`prelude`], the
//! types an application needs: build an index in memory
//! ([`index::MemoryIndex`]), on disk ([`index::build_and_write`]) or out of
//! core ([`index::ExternalIndexBuilder`]), open a directory or store
//! ([`query::ShardedIndex::open`]), and search it with the lane set
//! ([`query::ShardedSearcher`]).
//!
//! ## Layers (each its own crate)
//!
//! | crate | contents |
//! |---|---|
//! | [`hash`] (`ndss-hash`) | PRNGs, universal hashing, min-hash sketches, exact Jaccard |
//! | [`rmq`] (`ndss-rmq`) | sparse-table / block / Cartesian-tree RMQ |
//! | [`tokenizer`] (`ndss-tokenizer`) | trainable BPE tokenizer |
//! | [`corpus`] (`ndss-corpus`) | corpus storage, streaming, synthetic generation |
//! | [`windows`] (`ndss-windows`) | compact-window generation (Algorithm 2, Theorem 1) |
//! | [`index`] (`ndss-index`) | inverted indexes, zone maps, external build (Algorithm 1) |
//! | [`query`] (`ndss-query`) | interval scan, collision counting, prefix filtering (Algorithms 3–5) |
//! | [`serve`] (`ndss-serve`) | network daemon: HTTP + binary framing over a hot-swappable index |
//! | [`lm`] (`ndss-lm`) | n-gram LM substrate + memorization evaluation (§5) |
//!
//! ## Quickstart
//!
//! ```
//! use ndss::prelude::*;
//!
//! // A synthetic Zipfian corpus with planted near-duplicates.
//! let (corpus, planted) = SyntheticCorpusBuilder::new(7)
//!     .num_texts(50)
//!     .duplicates_per_text(1.0)
//!     .build();
//!
//! // Index every sequence of ≥ 25 tokens with k = 16 hash functions.
//! let index = MemoryIndex::build(&corpus, IndexConfig::new(16, 25, 42)).unwrap();
//! let searcher = ShardedSearcher::single(&index, PrefixFilter::default()).unwrap();
//!
//! // Query with a copy of a planted span: its source must be found.
//! let p = &planted[0];
//! let query = corpus.sequence_to_vec(p.dst).unwrap();
//! let outcome = searcher.search(&query, 0.8).unwrap();
//! assert!(outcome.matches.iter().any(|m| m.text == p.src.text));
//! ```

pub use ndss_baseline as baseline;
pub use ndss_corpus as corpus;
pub use ndss_durable as durable;
pub use ndss_exact as exact;
pub use ndss_hash as hash;
pub use ndss_json as json;
pub use ndss_lm as lm;
pub use ndss_obs as obs;
pub use ndss_parallel as parallel;
pub use ndss_rmq as rmq;
pub use ndss_serve as serve;
pub use ndss_tokenizer as tokenizer;
pub use ndss_windows as windows;

/// The index layer (`ndss-index`).
pub mod index {
    pub use crate::ledger_compat::{GenerationStore, ShardedStore};
    pub use ndss_index::*;
}

/// The query layer (`ndss-query`).
pub mod query {
    pub use crate::ledger_compat::{BatchSearcher, NearDupSearcher, OverlaySearcher};
    pub use ndss_query::*;
}

#[doc(hidden)]
pub mod ledger_compat;

pub use ledger_compat::{CorpusIndex, SearchParams, ShardedCorpusIndex};

/// The common imports for applications built on ndss.
pub mod prelude {
    pub use ndss_baseline::{LshParams, LshWindowIndex};
    pub use ndss_corpus::{
        CorpusSlice, CorpusSource, DiskCorpus, DiskCorpusWriter, InMemoryCorpus, PseudoWords,
        SeqRef, SeqSpan, SyntheticCorpusBuilder, TextId,
    };
    pub use ndss_exact::ExactSubstringIndex;
    pub use ndss_hash::jaccard::{distinct_jaccard, multiset_jaccard};
    pub use ndss_hash::{MinHasher, Sketch, TokenId};
    pub use ndss_index::{
        build_sharded, partition_texts, resolve_index_dir, verify_memtable, DiskIndex,
        ExternalIndexBuilder, FaultMode, FaultPlan, IndexAccess, IndexConfig, IngestIndex,
        IngestOptions, Manifest, MemSegment, MemoryIndex, MemtableReport, MergeOptions,
        ReadOptions, Segment, ShardedBuildOptions, Store,
    };
    pub use ndss_lm::{evaluate_memorization, GenerationStrategy, MemorizationConfig, NGramModel};
    pub use ndss_obs::{Registry, Unit};
    pub use ndss_query::{
        CancelToken, DocumentMatch, DocumentScan, PrefixFilter, QueryBudget, QueryError,
        RankedMatch, Resource, SearchOutcome, ServingIndex, ServingOptions, ShardedIndex,
        ShardedSearcher, TextMatch,
    };
    pub use ndss_tokenizer::{BpeTokenizer, BpeTrainer};
}
