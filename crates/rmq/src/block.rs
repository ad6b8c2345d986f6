//! Block-decomposed RMQ: `O(n)` space with near-constant queries.
//!
//! The array is cut into fixed-size blocks. A [`super::SparseTable`] over the
//! per-block minima answers the "middle" part of a query in `O(1)`; the two
//! boundary blocks are scanned directly (`O(b)` for block size `b`). With a
//! cache-line-sized block this is the fastest practical structure on the
//! token-hash arrays window generation works with, and its space overhead is
//! `O(n / b)` words instead of the sparse table's `O(n log n)`.
//! [`BlockRmq::rebuild`] re-targets one structure at array after array
//! without allocating, which is how the indexer uses it: once per text and
//! hash function.
//!
//! This is the "advanced RMQ" slot from the paper's complexity discussion
//! (§3.3): it removes the `log n` factor from preprocessing space while
//! keeping queries effectively constant-time.

use crate::{RangeArgmin, SparseTable};

/// Default block size: 16 values = two 64-byte cache lines of `u64`s.
/// Picked by measurement: window generation over the ledger corpus at
/// `t = 25` ran at 5.9 ns per token and function with 16, 6.2–6.8 with 8
/// and 6.1–6.5 with 32.
const DEFAULT_BLOCK: usize = 16;

/// A block-decomposed RMQ structure over an owned value array.
#[derive(Debug, Clone)]
pub struct BlockRmq {
    values: Vec<u64>,
    block: usize,
    /// Index (into `values`) of the leftmost minimum of each block.
    block_argmin: Vec<u32>,
    /// Sparse table over the per-block minimum *values*, answering which
    /// block holds the smallest value in a block range.
    summary: SparseTable,
}

impl Default for BlockRmq {
    /// The structure over no values, with the default block size; give it
    /// an array with [`Self::rebuild`].
    fn default() -> Self {
        Self::with_block_size(&[], DEFAULT_BLOCK)
    }
}

impl BlockRmq {
    /// Builds the structure with the default block size.
    pub fn new(values: &[u64]) -> Self {
        Self::with_block_size(values, DEFAULT_BLOCK)
    }

    /// Builds the structure with an explicit block size (`>= 1`).
    pub fn with_block_size(values: &[u64], block: usize) -> Self {
        assert!(block >= 1, "block size must be at least 1");
        let mut rmq = Self {
            values: Vec::new(),
            block,
            block_argmin: Vec::new(),
            summary: SparseTable::default(),
        };
        rmq.rebuild(|buf| buf.extend_from_slice(values));
        rmq
    }

    /// Rebuilds the structure in place over the values `fill` writes into
    /// the (emptied) value buffer. Nothing is allocated once the buffers
    /// have grown to the longest array seen, which is what lets the indexer
    /// keep one structure for every text and hash function.
    pub fn rebuild(&mut self, fill: impl FnOnce(&mut Vec<u64>)) {
        self.values.clear();
        fill(&mut self.values);
        let (values, block) = (&self.values, self.block);
        let block_argmin = &mut self.block_argmin;
        block_argmin.clear();
        self.summary.rebuild(|minima| {
            for (b, chunk) in values.chunks(block).enumerate() {
                let best = b * block + leftmost_min(chunk);
                block_argmin.push(best as u32);
                minima.push(values[best]);
            }
        });
    }

    /// The underlying values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

/// Offset of the leftmost minimum of a non-empty slice. Both running values
/// are selects, not branches: on hash values the comparison is a coin flip
/// the predictor cannot learn.
#[inline]
fn leftmost_min(values: &[u64]) -> usize {
    let (mut best, mut min) = (0, values[0]);
    for (i, &v) in values.iter().enumerate().skip(1) {
        let smaller = v < min;
        best = if smaller { i } else { best };
        min = if smaller { v } else { min };
    }
    best
}

impl RangeArgmin for BlockRmq {
    fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn argmin(&self, l: usize, r: usize) -> usize {
        let values = &self.values[..];
        assert!(l <= r && r < values.len(), "argmin range out of bounds");
        let lb = l / self.block;
        let rb = r / self.block;
        if lb == rb {
            return l + leftmost_min(&values[l..=r]);
        }
        // Left partial block, middle whole blocks, right partial block;
        // a later candidate replaces an earlier one only when strictly less.
        let right_start = rb * self.block;
        let mut best = l + leftmost_min(&values[l..(lb + 1) * self.block]);
        if lb + 1 < rb {
            let cand = self.block_argmin[self.summary.argmin(lb + 1, rb - 1)] as usize;
            if values[cand] < values[best] {
                best = cand;
            }
        }
        let cand = right_start + leftmost_min(&values[right_start..=r]);
        if values[cand] < values[best] {
            best = cand;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveArgmin;

    fn check_all_ranges(values: &[u64], block: usize) {
        let rmq = BlockRmq::with_block_size(values, block);
        let naive = NaiveArgmin::new(values);
        for l in 0..values.len() {
            for r in l..values.len() {
                assert_eq!(
                    rmq.argmin(l, r),
                    naive.argmin(l, r),
                    "mismatch on [{l},{r}] block={block} over {values:?}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_across_block_sizes() {
        let values: Vec<u64> = (0..100u64)
            .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 50) % 32)
            .collect();
        for block in [1usize, 2, 3, 7, 8, 16, 100, 200] {
            check_all_ranges(&values, block);
        }
    }

    #[test]
    fn single_block_behaves() {
        check_all_ranges(&[4, 1, 1, 9], 16);
    }

    #[test]
    fn ties_resolve_leftmost() {
        let values = [3u64, 0, 5, 0, 0, 2, 0, 7, 7];
        let rmq = BlockRmq::with_block_size(&values, 3);
        assert_eq!(rmq.argmin(0, 8), 1);
        assert_eq!(rmq.argmin(2, 8), 3);
        assert_eq!(rmq.argmin(4, 8), 4);
        assert_eq!(rmq.argmin(7, 8), 7);
    }

    #[test]
    fn default_block_size_works() {
        let values: Vec<u64> = (0..64u64).rev().collect();
        let rmq = BlockRmq::new(&values);
        assert_eq!(rmq.argmin(0, 63), 63);
        assert_eq!(rmq.argmin(0, 31), 31);
    }

    #[test]
    fn rebuild_in_place_matches_fresh_and_naive() {
        // One structure re-targeted at arrays of every length around the
        // block boundaries, long before short, so stale block minima or
        // summary levels from a longer array would be read if any survived.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut reused = BlockRmq::default();
        for n in [300usize, 33, 32, 31, 17, 16, 15, 1, 0, 64, 2, 257] {
            for modulus in [3u64, 40, u64::MAX] {
                let values: Vec<u64> = (0..n).map(|_| next() % modulus).collect();
                reused.rebuild(|buf| buf.extend_from_slice(&values));
                let fresh = BlockRmq::new(&values);
                let naive = NaiveArgmin::new(&values);
                assert_eq!(reused.values(), &values[..]);
                for l in 0..n {
                    for r in l..n {
                        let want = naive.argmin(l, r);
                        assert_eq!(reused.argmin(l, r), want, "reused [{l},{r}] n={n}");
                        assert_eq!(fresh.argmin(l, r), want, "fresh [{l},{r}] n={n}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_rejected() {
        BlockRmq::with_block_size(&[1, 2, 3], 0);
    }
}
