//! Sparse-table RMQ: `O(n log n)` preprocessing, `O(1)` queries.
//!
//! Level `j` of the table stores, for every position `i`, the index of the
//! minimum in the window `[i, i + 2^j - 1]`. A query `[l, r]` combines the
//! two (possibly overlapping) windows of length `2^⌊log₂(r-l+1)⌋` anchored at
//! `l` and at `r - 2^j + 1`. Ties resolve to the leftmost index because the
//! left window's candidate is preferred on equality and each level is built
//! left-candidate-first. All levels live in one flat buffer, so
//! [`SparseTable::rebuild`] re-targets a table at a new array without
//! allocating once the buffers have grown.

use crate::RangeArgmin;

/// A doubling sparse table over an owned value array.
#[derive(Debug, Clone, Default)]
pub struct SparseTable {
    values: Vec<u64>,
    /// Every level in one buffer: level `j ≥ 1` starts at `(j - 1) * n` and
    /// its entry `i` is the index of the leftmost min in `[i, i + 2^j - 1]`.
    /// Level 0 (the identity) is implicit.
    table: Vec<u32>,
}

impl SparseTable {
    /// Builds the table. `O(n log n)` time and space.
    pub fn new(values: &[u64]) -> Self {
        let mut table = Self::default();
        table.rebuild(|buf| buf.extend_from_slice(values));
        table
    }

    /// Rebuilds the table in place over the values `fill` writes into the
    /// (emptied) value buffer, reusing both allocations.
    pub fn rebuild(&mut self, fill: impl FnOnce(&mut Vec<u64>)) {
        self.values.clear();
        fill(&mut self.values);
        let values = &self.values;
        let n = values.len();
        let levels = if n >= 2 { n.ilog2() as usize } else { 0 };
        self.table.clear();
        self.table.resize(levels * n, 0);
        if levels == 0 {
            return;
        }
        // Level 1: windows of length 2.
        for (i, slot) in self.table[..n - 1].iter_mut().enumerate() {
            *slot = (i + usize::from(values[i + 1] < values[i])) as u32;
        }
        for j in 2..=levels {
            let half = 1usize << (j - 1);
            let (prev, lvl) = self.table[(j - 2) * n..].split_at_mut(n);
            for (i, slot) in lvl[..n - 2 * half + 1].iter_mut().enumerate() {
                let (a, b) = (prev[i], prev[i + half]);
                *slot = if values[b as usize] < values[a as usize] {
                    b
                } else {
                    a
                };
            }
        }
    }

    /// The underlying values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

impl RangeArgmin for SparseTable {
    fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn argmin(&self, l: usize, r: usize) -> usize {
        let n = self.values.len();
        assert!(l <= r && r < n, "argmin range out of bounds");
        if l == r {
            return l;
        }
        // j = ⌊log2(span)⌋ ≥ 1: two windows of width 2^j cover [l, r].
        let j = (r - l + 1).ilog2() as usize;
        let level = &self.table[(j - 1) * n..];
        let a = level[l] as usize;
        let b = level[r + 1 - (1 << j)] as usize;
        // Prefer the left window's candidate on ties; when the windows
        // overlap and b < a positionally we still must compare values first.
        if self.values[b] < self.values[a] || (self.values[b] == self.values[a] && b < a) {
            b
        } else {
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveArgmin;

    fn check_all_ranges(values: &[u64]) {
        let st = SparseTable::new(values);
        let naive = NaiveArgmin::new(values);
        for l in 0..values.len() {
            for r in l..values.len() {
                assert_eq!(
                    st.argmin(l, r),
                    naive.argmin(l, r),
                    "mismatch on [{l},{r}] over {values:?}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_on_small_arrays() {
        check_all_ranges(&[5, 3, 9, 3, 7]);
        check_all_ranges(&[1]);
        check_all_ranges(&[2, 2, 2, 2]);
        check_all_ranges(&[9, 8, 7, 6, 5, 4, 3, 2, 1]);
        check_all_ranges(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn matches_naive_on_pseudorandom_array() {
        // Deterministic pseudo-random values with plenty of ties.
        let values: Vec<u64> = (0..257u64)
            .map(|i| (i.wrapping_mul(2654435761) >> 7) % 16)
            .collect();
        check_all_ranges(&values);
    }

    #[test]
    fn rebuild_in_place_matches_fresh() {
        let mut reused = SparseTable::default();
        for n in [130usize, 64, 5, 1, 0, 2, 33] {
            let values: Vec<u64> = (0..n as u64)
                .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 9) % 7)
                .collect();
            reused.rebuild(|buf| buf.extend_from_slice(&values));
            let naive = NaiveArgmin::new(&values);
            for l in 0..n {
                for r in l..n {
                    assert_eq!(reused.argmin(l, r), naive.argmin(l, r), "[{l},{r}] n={n}");
                }
            }
        }
    }

    #[test]
    fn empty_table_is_empty() {
        let st = SparseTable::new(&[]);
        assert!(st.is_empty());
    }

    #[test]
    fn power_of_two_lengths() {
        for n in [2usize, 4, 8, 16, 32, 64] {
            let values: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(37) % 11).collect();
            check_all_ranges(&values);
        }
    }

    #[test]
    fn leftmost_tie_break_on_full_range() {
        let values = [4u64, 1, 6, 1, 1, 9];
        let st = SparseTable::new(&values);
        assert_eq!(st.argmin(0, 5), 1);
        assert_eq!(st.argmin(2, 5), 3);
        assert_eq!(st.argmin(3, 4), 3);
    }
}
