//! Min-hash sketching with `k` independent hash functions.
//!
//! A [`MinHasher`] owns a bank of `k` token hash functions derived from a
//! master seed. Sketching a sequence produces its *k-mins sketch* — the
//! vector of per-function minimum hash values (paper §3.2 and §3.5). Two
//! sketches estimate the distinct Jaccard similarity of the underlying
//! sequences by their collision fraction, an unbiased estimator with
//! variance `O(1/k)`.

use crate::universal::MultiplyShiftHash;
use crate::{HashValue, SplitMix64, TokenId};

/// The k-mins sketch of a sequence: one minimum hash value per hash function.
///
/// Sketches are only comparable when produced by the same [`MinHasher`]
/// (same `k` and master seed); [`Sketch::estimate_jaccard`] checks
/// the lengths match and the caller is responsible for the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    values: Vec<HashValue>,
}

impl Sketch {
    /// The number of hash functions `k` this sketch was built with.
    pub fn k(&self) -> usize {
        self.values.len()
    }

    /// The min-hash value under the `i`-th hash function.
    pub fn value(&self, i: usize) -> HashValue {
        self.values[i]
    }

    /// All min-hash values, in hash-function order.
    pub fn values(&self) -> &[HashValue] {
        &self.values
    }

    /// Counts positions on which the two sketches collide.
    ///
    /// # Panics
    /// Panics if the sketches have different `k`.
    pub fn collisions(&self, other: &Sketch) -> usize {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "sketches built with different k cannot be compared"
        );
        self.values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a == b)
            .count()
    }

    /// Estimates the distinct Jaccard similarity as `collisions / k`.
    pub fn estimate_jaccard(&self, other: &Sketch) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.collisions(other) as f64 / self.values.len() as f64
    }
}

/// The minimum number of min-hash collisions a sequence must have with the
/// query to qualify under threshold `theta`: `β = ⌈kθ⌉` (paper Definition 2).
///
/// Clamped to at least 1 so a zero or negative threshold still requires some
/// evidence, and at most `k`.
pub fn collision_threshold(k: usize, theta: f64) -> usize {
    let beta = (k as f64 * theta).ceil() as isize;
    beta.clamp(1, k as isize) as usize
}

/// A bank of `k` independent token hash functions plus sketching helpers.
///
/// Construction is deterministic in `(k, seed)`: the indexer and the query
/// processor must be configured identically for collisions to be
/// meaningful, and index metadata records both.
pub struct MinHasher {
    functions: Vec<MultiplyShiftHash>,
    seed: u64,
}

impl std::fmt::Debug for MinHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MinHasher")
            .field("k", &self.functions.len())
            .field("seed", &self.seed)
            .finish()
    }
}

impl MinHasher {
    /// Creates `k` multiply–shift hash functions derived from `seed`.
    pub fn new(k: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let functions = (0..k)
            .map(|_| MultiplyShiftHash::new(rng.next_u64()))
            .collect();
        Self { functions, seed }
    }

    /// The number of hash functions `k`.
    pub fn k(&self) -> usize {
        self.functions.len()
    }

    /// The master seed the bank was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `i`-th hash function.
    pub fn function(&self, i: usize) -> &MultiplyShiftHash {
        &self.functions[i]
    }

    /// Hashes every position of `tokens` under function `i` into `out`
    /// (cleared first). Used by window generation, which needs the full
    /// hash array, not just the minimum.
    pub fn hash_positions_into(&self, i: usize, tokens: &[TokenId], out: &mut Vec<HashValue>) {
        out.clear();
        out.reserve(tokens.len());
        let f = &self.functions[i];
        out.extend(tokens.iter().map(|&t| f.hash(t)));
    }

    /// Computes the k-mins sketch of a token sequence.
    ///
    /// Returns an all-`u64::MAX` sketch for an empty sequence; callers that
    /// care should reject empty queries earlier.
    pub fn sketch(&self, tokens: &[TokenId]) -> Sketch {
        // Each token is spread once, then hashed under every function.
        let mut values = vec![HashValue::MAX; self.functions.len()];
        for &token in tokens {
            let x = MultiplyShiftHash::spread(token);
            for (min, f) in values.iter_mut().zip(&self.functions) {
                *min = (*min).min(f.hash_spread(x));
            }
        }
        Sketch { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::distinct_jaccard;

    #[test]
    fn sketch_has_k_values() {
        let h = MinHasher::new(16, 1);
        let s = h.sketch(&[1, 2, 3]);
        assert_eq!(s.k(), 16);
    }

    #[test]
    fn identical_sequences_collide_everywhere() {
        let h = MinHasher::new(32, 2);
        let a = h.sketch(&[5, 6, 7, 8]);
        let b = h.sketch(&[5, 6, 7, 8]);
        assert_eq!(a.collisions(&b), 32);
        assert_eq!(a.estimate_jaccard(&b), 1.0);
    }

    #[test]
    fn order_and_multiplicity_do_not_matter() {
        // Distinct Jaccard treats a sequence as a set of tokens.
        let h = MinHasher::new(32, 3);
        let a = h.sketch(&[1, 2, 3, 2, 1]);
        let b = h.sketch(&[3, 1, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn disjoint_sequences_rarely_collide() {
        let h = MinHasher::new(64, 4);
        let a = h.sketch(&(0..100).collect::<Vec<_>>());
        let b = h.sketch(&(1000..1100).collect::<Vec<_>>());
        // Expected collisions = 0 for disjoint sets (up to hash collisions).
        assert!(a.collisions(&b) <= 2);
    }

    #[test]
    fn estimator_tracks_true_jaccard() {
        // Average the estimator over several seeds to smooth the variance,
        // then check it is close to the exact similarity.
        let a: Vec<u32> = (0..60).collect();
        let b: Vec<u32> = (20..80).collect(); // |∩| = 40, |∪| = 80 → J = 0.5
        let truth = distinct_jaccard(&a, &b);
        assert!((truth - 0.5).abs() < 1e-9);
        let mut total = 0.0;
        let trials = 20;
        for seed in 0..trials {
            let h = MinHasher::new(128, seed);
            total += h.sketch(&a).estimate_jaccard(&h.sketch(&b));
        }
        let mean = total / trials as f64;
        assert!(
            (mean - truth).abs() < 0.05,
            "mean estimate {mean} vs truth {truth}"
        );
    }

    #[test]
    fn collision_threshold_matches_paper_formula() {
        assert_eq!(collision_threshold(32, 1.0), 32);
        assert_eq!(collision_threshold(32, 0.8), 26); // ⌈25.6⌉
        assert_eq!(collision_threshold(32, 0.7), 23); // ⌈22.4⌉
        assert_eq!(collision_threshold(10, 0.05), 1);
        assert_eq!(collision_threshold(10, 0.0), 1); // clamped to ≥ 1
        assert_eq!(collision_threshold(10, 2.0), 10); // clamped to ≤ k
    }

    #[test]
    fn deterministic_across_instances() {
        let a = MinHasher::new(8, 42);
        let b = MinHasher::new(8, 42);
        assert_eq!(a.sketch(&[1, 2, 3]), b.sketch(&[1, 2, 3]));
    }

    /// Spreading each token once is bit-identical to taking each
    /// function's min-hash on its own, the empty sequence included.
    #[test]
    fn sketch_equals_per_function_min_hash() {
        let h = MinHasher::new(32, 7);
        let mut rng = SplitMix64::new(11);
        for len in [0usize, 1, 2, 17, 64, 300] {
            let tokens: Vec<TokenId> = (0..len).map(|_| rng.next_u64() as TokenId).collect();
            let expect: Vec<HashValue> = (0..h.k())
                .map(|i| h.function(i).min_hash(&tokens).unwrap_or(HashValue::MAX))
                .collect();
            assert_eq!(h.sketch(&tokens).values(), &expect[..], "length {len}");
        }
    }

    #[test]
    fn hash_positions_matches_function() {
        let h = MinHasher::new(4, 6);
        let tokens = [9u32, 8, 7];
        let mut out = Vec::new();
        h.hash_positions_into(2, &tokens, &mut out);
        let expect: Vec<u64> = tokens.iter().map(|&t| h.function(2).hash(t)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn mismatched_sketches_panic() {
        let a = MinHasher::new(4, 1).sketch(&[1]);
        let b = MinHasher::new(8, 1).sketch(&[1]);
        let _ = a.collisions(&b);
    }
}
