//! The universal hash family over token ids.
//!
//! The min-hash construction needs `k` *independent random universal hash
//! functions* `f_1 … f_k : TokenId → u64` (paper §3.2, Definition 2).
//! [`MultiplyShiftHash`] is Dietzfelbinger's multiply–shift scheme extended
//! to 128-bit arithmetic: constant space, two multiplications per hash.
//!
//! Functions are seeded deterministically so that an index built twice from
//! the same master seed is byte-identical.

use crate::prng::SplitMix64;
use crate::{HashValue, TokenId};

/// Multiply–shift universal hashing on 64→64 bits.
///
/// `h(x) = ((a * x + b) >> 64) mod 2^64` computed in 128-bit arithmetic with
/// a random odd multiplier `a` and random addend `b`. The token id is first
/// spread to 64 bits by a fixed odd constant so that small consecutive ids do
/// not map to nearby values before the universal step.
///
/// The function is *pure* (same token → same value for the lifetime of the
/// object): the correctness of compact-window indexing relies on the query
/// and the indexer observing identical token hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiplyShiftHash {
    multiplier: u128,
    addend: u128,
}

impl MultiplyShiftHash {
    /// Derives a hash function from a seed. Different seeds give (with
    /// overwhelming probability) different functions.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        // The multiplier must be odd for the family to be universal.
        let multiplier = ((rng.next_u64() as u128) << 64) | (rng.next_u64() | 1) as u128;
        let addend = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        Self { multiplier, addend }
    }

    /// Hashes one token id.
    #[inline]
    pub fn hash(&self, token: TokenId) -> HashValue {
        self.hash_spread(Self::spread(token))
    }

    /// Spreads a 32-bit token id across 64 bits: the first, seed-free half
    /// of [`Self::hash`], which a caller hashing one token under many
    /// functions computes once.
    #[inline]
    pub fn spread(token: TokenId) -> u64 {
        (token as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((token as u64) << 32)
    }

    /// The multiply-shift step of [`Self::hash`] on a [`Self::spread`] id.
    #[inline]
    pub fn hash_spread(&self, x: u64) -> HashValue {
        let product = self
            .multiplier
            .wrapping_mul(x as u128)
            .wrapping_add(self.addend);
        (product >> 64) as u64
    }

    /// Returns the minimum hash over a token slice, or `None` if it is empty.
    ///
    /// Because duplicate tokens hash identically, this equals the min-hash of
    /// the *distinct* token set, which is what the distinct Jaccard estimator
    /// requires.
    pub fn min_hash(&self, tokens: &[TokenId]) -> Option<HashValue> {
        tokens.iter().map(|&t| self.hash(t)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiply_shift_is_pure() {
        let h = MultiplyShiftHash::new(17);
        for t in 0..1000u32 {
            assert_eq!(h.hash(t), h.hash(t));
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = MultiplyShiftHash::new(1);
        let b = MultiplyShiftHash::new(2);
        let agree = (0..1000u32).filter(|&t| a.hash(t) == b.hash(t)).count();
        assert_eq!(
            agree, 0,
            "independent functions should (almost) never agree"
        );
    }

    #[test]
    fn hash_values_look_uniform_in_top_bit() {
        let h = MultiplyShiftHash::new(3);
        let ones = (0..100_000u32).filter(|&t| h.hash(t) >> 63 == 1).count();
        let frac = ones as f64 / 100_000.0;
        assert!((frac - 0.5).abs() < 0.02, "top-bit fraction {frac}");
    }

    #[test]
    fn min_hash_of_empty_is_none() {
        let h = MultiplyShiftHash::new(4);
        assert_eq!(h.min_hash(&[]), None);
    }

    #[test]
    fn min_hash_ignores_duplicates() {
        let h = MultiplyShiftHash::new(5);
        let with_dups = [7u32, 7, 7, 3, 3, 9];
        let distinct = [7u32, 3, 9];
        assert_eq!(h.min_hash(&with_dups), h.min_hash(&distinct));
    }

    #[test]
    fn min_hash_is_elementwise_min() {
        let h = MultiplyShiftHash::new(6);
        let tokens = [1u32, 2, 3, 4, 5];
        let expected = tokens.iter().map(|&t| h.hash(t)).min();
        assert_eq!(h.min_hash(&tokens), expected);
    }
}
