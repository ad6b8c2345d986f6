//! Hashing primitives for near-duplicate sequence search.
//!
//! This crate provides the randomness and hashing substrate used by the rest
//! of the workspace:
//!
//! * [`prng`] — small, fast, deterministic pseudo-random number generators
//!   ([`SplitMix64`], [`Xoshiro256StarStar`]). All randomness in the library
//!   (hash-function seeds, synthetic data, sampling) flows through these so
//!   every artifact is reproducible from a single master seed.
//! * [`universal`] — the universal hash family over token ids
//!   ([`MultiplyShiftHash`]).
//! * [`minhash`] — the [`MinHasher`] (a bank of `k` independent token hash
//!   functions), [`Sketch`] (the *k-mins sketch* of a sequence), collision
//!   counting, and Jaccard similarity estimation from sketches.
//! * [`jaccard`] — exact distinct and multi-set Jaccard similarity, used as
//!   ground truth by tests and by the optional verified search mode.
//!
//! # Background
//!
//! The paper (SIGMOD 2023, §3.2) estimates the Jaccard similarity of two
//! sequences by the fraction of `k` independent min-hash functions on which
//! the sequences collide. A sequence's min-hash under a token hash function
//! `f` is `min { f(token) : token ∈ sequence }`; because duplicate tokens
//! hash identically, taking the min over *positions* equals taking it over
//! *distinct tokens*, which is exactly what the distinct Jaccard similarity
//! needs.
//!
//! # Example
//!
//! ```
//! use ndss_hash::{MinHasher, jaccard::distinct_jaccard};
//!
//! let hasher = MinHasher::new(64, 42);
//! let a = [1u32, 2, 3, 4, 5, 6, 7, 8];
//! let b = [1u32, 2, 3, 4, 5, 6, 7, 9];
//! let sa = hasher.sketch(&a);
//! let sb = hasher.sketch(&b);
//! let est = sa.estimate_jaccard(&sb);
//! let truth = distinct_jaccard(&a, &b);
//! assert!((est - truth).abs() < 0.25, "estimate {est} far from truth {truth}");
//! ```

pub mod jaccard;
pub mod minhash;
pub mod prng;
pub mod universal;

pub use minhash::{MinHasher, Sketch};
pub use prng::{SplitMix64, Xoshiro256StarStar};
pub use universal::MultiplyShiftHash;

/// A token identifier. Tokens are produced by a tokenizer (BPE ids) or by a
/// synthetic corpus generator; the search algorithms never interpret them
/// beyond equality, so a bare `u32` (the paper's "4-byte integer per token")
/// is the canonical representation.
pub type TokenId = u32;

/// A 64-bit token hash value. Min-hash comparisons and inverted-index keys
/// operate on this type.
pub type HashValue = u64;
