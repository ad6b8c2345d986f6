//! The compact-window generators.
//!
//! All generators consume the array of *position hashes*
//! `hashes[p] = f(T[p])` and a length threshold `t ≥ 1`, and produce every
//! valid compact window — `(l, c, r)` with `r − l + 1 ≥ t` where `c` is the
//! leftmost minimum of `hashes[l..=r]` and the window arises from the
//! divide-and-conquer of Algorithm 2. Ties break leftmost, making output
//! deterministic (the paper permits arbitrary tie-breaking).
//!
//! Output order is unspecified and differs between generators; callers that
//! need a canonical order sort (tests do).

use ndss_rmq::{BlockRmq, CartesianTree, RangeArgmin};

use ndss_hash::{HashValue, MinHasher, TokenId};

use crate::{CompactWindow, HashedWindow};

/// Paper Algorithm 2 over the values of `rmq`, on an explicit work stack so
/// monotone hash arrays (recursion depth `n`) cannot overflow the call
/// stack. Line 1's length test runs before a sub-range is pushed, not after
/// it is popped, so a pruned range costs no stack slot and the work is
/// exactly one argmin per emitted window.
fn algorithm2(rmq: &BlockRmq, t: usize, stack: &mut Vec<(u32, u32)>, out: &mut Vec<HashedWindow>) {
    assert!(t >= 1, "length threshold must be at least 1");
    let hashes = rmq.values();
    if hashes.len() < t {
        return;
    }
    stack.clear();
    stack.push((0, (hashes.len() - 1) as u32));
    while let Some((l, r)) = stack.pop() {
        // Line 2: the (leftmost) position with the minimum hash value.
        let c = rmq.argmin(l as usize, r as usize) as u32;
        // Line 3: emit the compact window (l, c, r).
        out.push(HashedWindow {
            hash: hashes[c as usize],
            window: CompactWindow::new(l, c, r),
        });
        // Lines 4–5 with line 1 folded in: recurse on [l, c-1] and
        // [c+1, r] where they still hold t positions.
        if (c - l) as usize >= t {
            stack.push((l, c - 1));
        }
        if (r - c) as usize >= t {
            stack.push((c + 1, r));
        }
    }
}

/// Paper Algorithm 2, faithfully: divide-and-conquer with an RMQ structure,
/// `O(n)`-ish with the block RMQ (the paper's "advanced RMQ" slot). The
/// allocating form of the loop [`WindowGenerator`] runs over reused buffers.
pub fn generate_recursive(hashes: &[HashValue], t: usize, out: &mut Vec<HashedWindow>) {
    algorithm2(&BlockRmq::new(hashes), t, &mut Vec::new(), out);
}

/// The independent oracle: the Cartesian tree of the hash array *is* the
/// recursion tree of Algorithm 2 (each node's subtree span `[l, r]` with
/// pivot `c` is exactly one candidate window), so building it in linear time
/// and walking it with pruning yields the same window set with no RMQ
/// queries at all. It builds all `n` nodes to emit about `2n/t` of them,
/// which is why the indexer runs [`WindowGenerator`] instead.
pub fn generate_cartesian(hashes: &[HashValue], t: usize, out: &mut Vec<HashedWindow>) {
    assert!(t >= 1, "length threshold must be at least 1");
    if hashes.len() < t {
        return;
    }
    let tree = CartesianTree::new(hashes);
    out.reserve(2 * hashes.len() / t + 1);
    tree.visit_spans(|l, c, r| {
        if r - l + 1 < t {
            // Every span in this subtree is narrower still: prune.
            return false;
        }
        out.push(HashedWindow {
            hash: hashes[c],
            window: CompactWindow::new(l as u32, c as u32, r as u32),
        });
        true
    });
}

/// Buffer-reusing generator used by the indexer: hashes a text's tokens
/// under one of the [`MinHasher`]'s functions straight into its block RMQ's
/// value buffer, rebuilds the RMQ in place and runs Algorithm 2 over it.
/// Once the buffers have grown to the longest text seen, indexing a million
/// texts allocates nothing here.
#[derive(Debug, Default)]
pub struct WindowGenerator {
    rmq: BlockRmq,
    stack: Vec<(u32, u32)>,
}

impl WindowGenerator {
    /// A fresh generator (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates the valid compact windows of `tokens` under hash function
    /// `func_idx` of `hasher`, appending them to `out`.
    pub fn generate(
        &mut self,
        hasher: &MinHasher,
        func_idx: usize,
        tokens: &[TokenId],
        t: usize,
        out: &mut Vec<HashedWindow>,
    ) {
        if tokens.len() < t {
            // No valid window: skip the hashing too.
            return;
        }
        self.rmq
            .rebuild(|hashes| hasher.hash_positions_into(func_idx, tokens, hashes));
        algorithm2(&self.rmq, t, &mut self.stack, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_partition_property;

    /// The paper's running example (Figure 1): 17 tokens whose hash values
    /// produce 5 valid windows at t = 5, matching `2·18/(5+1) − 1 = 5`.
    /// Hash values chosen so position 12 (0-based; paper's 13) is the global
    /// minimum and position 5 (paper's 6) the minimum of the left part.
    fn figure1_hashes() -> Vec<u64> {
        // positions:     0   1   2   3   4   5   6   7   8   9  10  11  12  13  14  15  16
        vec![
            55, 80, 62, 91, 47, 20, 30, 66, 88, 41, 95, 59, 10, 77, 84, 35, 93,
        ]
        // Recursion at t = 5: pivot 12 → (0,12,16); left part pivots at 5 →
        // (0,5,11); then (0,4,4), (6,6,11), (7,9,11). Total 5 windows,
        // matching the paper's Example 1 count 2·18/6 − 1 = 5.
    }

    fn sorted(mut v: Vec<HashedWindow>) -> Vec<HashedWindow> {
        v.sort_by_key(|hw| (hw.window.l, hw.window.c, hw.window.r));
        v
    }

    #[test]
    fn figure1_example_produces_expected_count() {
        let hashes = figure1_hashes();
        let mut out = Vec::new();
        generate_cartesian(&hashes, 5, &mut out);
        assert_eq!(out.len(), 5, "paper's Example 1 expects 5 valid windows");
        // The first division produces (1, 13, 17) in paper coordinates,
        // i.e. (0, 12, 16) in ours.
        assert!(out
            .iter()
            .any(|hw| hw.window == CompactWindow::new(0, 12, 16)));
        // And the left half divides at paper position 6 → (1, 6, 12)/(0,5,11).
        assert!(out
            .iter()
            .any(|hw| hw.window == CompactWindow::new(0, 5, 11)));
    }

    #[test]
    fn recursive_and_cartesian_agree() {
        for (seed, len) in [(1u64, 1usize), (2, 2), (3, 17), (4, 100), (5, 257)] {
            let hashes: Vec<u64> = (0..len as u64)
                .map(|i| {
                    // Deterministic pseudo-random with deliberate ties (mod).
                    (i.wrapping_add(seed).wrapping_mul(0x9E3779B97F4A7C15) >> 40) % 97
                })
                .collect();
            for t in [1usize, 2, 3, 5, 10, 50] {
                let mut a = Vec::new();
                let mut b = Vec::new();
                generate_recursive(&hashes, t, &mut a);
                generate_cartesian(&hashes, t, &mut b);
                assert_eq!(
                    sorted(a),
                    sorted(b),
                    "generators disagree at seed={seed} len={len} t={t}"
                );
            }
        }
    }

    #[test]
    fn windows_satisfy_partition_property() {
        let hashes = figure1_hashes();
        for t in [1usize, 3, 5, 8, 17] {
            let mut out = Vec::new();
            generate_cartesian(&hashes, t, &mut out);
            check_partition_property(&hashes, t, &out).unwrap();
        }
    }

    #[test]
    fn partition_holds_with_duplicate_tokens() {
        // Many ties: only 3 distinct hash values.
        let hashes: Vec<u64> = (0..60u64).map(|i| i % 3).collect();
        for t in [1usize, 4, 10, 30] {
            let mut out = Vec::new();
            generate_cartesian(&hashes, t, &mut out);
            check_partition_property(&hashes, t, &out).unwrap();
        }
    }

    #[test]
    fn short_text_produces_nothing() {
        let mut out = Vec::new();
        generate_cartesian(&[1, 2, 3], 4, &mut out);
        assert!(out.is_empty());
        generate_recursive(&[1, 2, 3], 4, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn t_equals_one_covers_every_position_as_pivot() {
        // With t = 1 the full recursion runs: exactly n windows, one per
        // pivot position.
        let hashes = figure1_hashes();
        let mut out = Vec::new();
        generate_cartesian(&hashes, 1, &mut out);
        assert_eq!(out.len(), hashes.len());
        let mut pivots: Vec<u32> = out.iter().map(|hw| hw.window.c).collect();
        pivots.sort_unstable();
        assert_eq!(pivots, (0..hashes.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn emitted_hash_is_range_minimum() {
        let hashes = figure1_hashes();
        let mut out = Vec::new();
        generate_cartesian(&hashes, 3, &mut out);
        for hw in &out {
            let w = hw.window;
            let min = (w.l..=w.r).map(|p| hashes[p as usize]).min().unwrap();
            assert_eq!(hw.hash, min);
            assert_eq!(hashes[w.c as usize], min);
        }
    }

    #[test]
    fn monotone_arrays_do_not_overflow() {
        // Increasing hashes → recursion depth n in the naive formulation,
        // and n − t + 1 windows. At 2 M elements a generator quadratic in
        // either would not finish, so this also guards the linear bound.
        let n = 2_000_000usize;
        let ascending: Vec<u64> = (0..n as u64).collect();
        let descending: Vec<u64> = ascending.iter().rev().copied().collect();
        for hashes in [&ascending, &descending] {
            for t in [25, n / 2] {
                let mut out = Vec::new();
                generate_recursive(hashes, t, &mut out);
                assert_eq!(out.len(), n - t + 1);
                let mut out2 = Vec::new();
                generate_cartesian(hashes, t, &mut out2);
                assert_eq!(sorted(out), sorted(out2));
            }
        }
    }

    #[test]
    fn window_generator_matches_direct_path() {
        let hasher = MinHasher::new(4, 9);
        let tokens: Vec<u32> = (0..200).map(|i| i % 37).collect();
        let mut gen = WindowGenerator::new();
        let mut a = Vec::new();
        gen.generate(&hasher, 2, &tokens, 10, &mut a);

        let mut hashes = Vec::new();
        hasher.hash_positions_into(2, &tokens, &mut hashes);
        let mut b = Vec::new();
        generate_cartesian(&hashes, 10, &mut b);
        assert_eq!(sorted(a), sorted(b));
    }
}
