//! Property tests for Theorem 1 over seeded random inputs:
//!
//! 1. **Partition** — for arbitrary hash arrays (heavy ties and distinct
//!    alike), every sequence of length ≥ t is covered by exactly one valid
//!    compact window, shorter sequences by at most one, and each window's
//!    recorded hash is its range minimum (`check_partition_property` is the
//!    O(n²)–O(n³) oracle).
//! 2. **Expectation** — for distinct tokens with random hashes, the mean
//!    number of valid windows tracks the closed form `2(n+1)/(t+1) − 1`.
//!
//! 3. **One loop, one oracle** — the indexer's `WindowGenerator` (Algorithm
//!    2 over a block RMQ it rebuilds in place) emits exactly the Cartesian
//!    tree's window set on the array shapes and lengths where a block
//!    structure goes wrong first: monotone, constant and sawtooth arrays at
//!    lengths around the block size `B`, thresholds from 1 to past `n`, and
//!    a long text followed by a short one through the same generator.
//!
//! Seeds are pinned so CI failures reproduce exactly.

use ndss_hash::{MinHasher, SplitMix64};
use ndss_windows::theory::{expected_windows, expected_windows_recurrence};
use ndss_windows::verify::check_partition_property;
use ndss_windows::{generate_cartesian, generate_recursive, HashedWindow, WindowGenerator};

fn sorted(mut windows: Vec<HashedWindow>) -> Vec<HashedWindow> {
    windows.sort_by_key(|hw| (hw.window.l, hw.window.c, hw.window.r));
    windows
}

/// Tokens whose hashes under `func` have the order of `shape` (equal where
/// it is equal): `shape[i]` picks the token with the `shape[i]`-th smallest
/// hash, so the generator's own hashing step is part of what is tested.
fn tokens_shaped(hasher: &MinHasher, func: usize, shape: &[usize]) -> Vec<u32> {
    let distinct = shape.iter().max().map_or(0, |&m| m + 1);
    let mut by_hash: Vec<u32> = (0..distinct as u32).collect();
    by_hash.sort_by_key(|&token| hasher.function(func).hash(token));
    shape.iter().map(|&rank| by_hash[rank]).collect()
}

#[test]
fn indexer_generator_matches_cartesian_on_adversarial_shapes() {
    const B: usize = 16; // `BlockRmq`'s block size
    let hasher = MinHasher::new(2, 0x5EED);
    let mut rng = SplitMix64::new(0xB10C);
    let mut generator = WindowGenerator::new();
    // Descending lengths: every rebuild but the first shrinks the buffers'
    // live prefix, so stale block minima would be within reach.
    for n in [1_000usize, 2 * B + 1, 2 * B - 1, B + 1, B, B - 1, 3, 2, 1] {
        let shapes: [(&str, Vec<usize>); 5] = [
            ("ascending", (0..n).collect()),
            ("descending", (0..n).rev().collect()),
            ("constant", vec![0; n]),
            ("sawtooth", (0..n).map(|i| i % 5).collect()),
            (
                "three values",
                (0..n).map(|_| (rng.next_u64() % 3) as usize).collect(),
            ),
        ];
        for (name, shape) in &shapes {
            let tokens = tokens_shaped(&hasher, 1, shape);
            let mut hashes = Vec::new();
            hasher.hash_positions_into(1, &tokens, &mut hashes);
            for t in [1, 2, B, n.saturating_sub(1).max(1), n, n + 1] {
                let mut got = Vec::new();
                generator.generate(&hasher, 1, &tokens, t, &mut got);
                let mut want = Vec::new();
                generate_cartesian(&hashes, t, &mut want);
                assert_eq!(sorted(got), sorted(want), "{name}, n={n}, t={t}");
            }
        }
    }
}

#[test]
fn reused_generator_carries_nothing_from_a_longer_text() {
    let hasher = MinHasher::new(3, 41);
    let mut rng = SplitMix64::new(0x57A1E);
    let long: Vec<u32> = (0..5_000).map(|_| (rng.next_u64() % 900) as u32).collect();
    let short: Vec<u32> = (0..40).map(|_| (rng.next_u64() % 900) as u32).collect();
    let mut reused = WindowGenerator::new();
    for func in 0..3 {
        let mut scratch = Vec::new();
        reused.generate(&hasher, func, &long, 25, &mut scratch);
        let mut got = Vec::new();
        reused.generate(&hasher, func, &short, 10, &mut got);
        let mut want = Vec::new();
        WindowGenerator::new().generate(&hasher, func, &short, 10, &mut want);
        assert_eq!(sorted(got.clone()), sorted(want), "func {func}");
        let mut hashes = Vec::new();
        hasher.hash_positions_into(func, &short, &mut hashes);
        check_partition_property(&hashes, 10, &got).unwrap();
    }
}

#[test]
fn random_inputs_satisfy_partition_property() {
    let mut rng = SplitMix64::new(0xA11CE);
    for case in 0..150 {
        let n = 1 + (rng.next_u64() % 80) as usize;
        let t = 1 + (rng.next_u64() % 16) as usize;
        // Alternate tie-heavy and distinct hash arrays: duplicate hashes
        // exercise the tie-breaking that makes windows a partition.
        let range = if case % 2 == 0 { 24 } else { u64::MAX };
        let hashes: Vec<u64> = (0..n).map(|_| rng.next_u64() % range).collect();

        let mut cart = Vec::new();
        generate_cartesian(&hashes, t, &mut cart);
        check_partition_property(&hashes, t, &cart)
            .unwrap_or_else(|e| panic!("case {case} (n={n}, t={t}): {e}"));

        // Both generators must produce the identical window set.
        let mut rec = Vec::new();
        generate_recursive(&hashes, t, &mut rec);
        let key = |hw: &ndss_windows::HashedWindow| (hw.window.l, hw.window.c, hw.window.r);
        cart.sort_by_key(key);
        rec.sort_by_key(key);
        assert_eq!(cart, rec, "case {case} (n={n}, t={t}): generators differ");
    }
}

#[test]
fn every_long_sequence_covered_exactly_once_exhaustive_small() {
    // Exhaustive coverage check on every (i, j) pair for all n ≤ 12 with
    // fully adversarial tiny hash alphabets {0, 1, 2}.
    let mut rng = SplitMix64::new(0xBEE5);
    for n in 1..=12usize {
        for t in 1..=n {
            for _ in 0..20 {
                let hashes: Vec<u64> = (0..n).map(|_| rng.next_u64() % 3).collect();
                let mut out = Vec::new();
                generate_cartesian(&hashes, t, &mut out);
                for i in 0..n {
                    for j in i..n {
                        let covered = out
                            .iter()
                            .filter(|hw| hw.window.covers(i as u32, j as u32))
                            .count();
                        if j - i + 1 >= t {
                            assert_eq!(
                                covered, 1,
                                "n={n} t={t} [{i},{j}] covered {covered} times ({hashes:?})"
                            );
                        } else {
                            assert!(covered <= 1, "short [{i},{j}] covered {covered} times");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn mean_window_count_matches_theorem_1_closed_form() {
    // Distinct tokens ⇔ i.i.d. random hashes: the empirical mean count of
    // valid windows must track S_n = 2(n+1)/(t+1) − 1. The closed form is
    // independently cross-checked against the paper's recurrence.
    let mut rng = SplitMix64::new(0x7E01);
    for &(n, t, trials, tol) in &[
        (300usize, 5usize, 250usize, 0.04f64),
        (400, 25, 250, 0.05),
        (200, 50, 400, 0.08),
    ] {
        let closed = expected_windows(n, t);
        let rec = expected_windows_recurrence(n, t);
        assert!(
            (closed - rec).abs() < 1e-9 * closed,
            "closed form {closed} vs recurrence {rec} (n={n}, t={t})"
        );
        let mut total = 0usize;
        let mut out = Vec::new();
        for _ in 0..trials {
            let hashes: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            out.clear();
            generate_cartesian(&hashes, t, &mut out);
            total += out.len();
        }
        let mean = total as f64 / trials as f64;
        let rel = (mean - closed).abs() / closed;
        assert!(
            rel < tol,
            "n={n} t={t}: empirical mean {mean:.2} vs 2(n+1)/(t+1)−1 = {closed:.2} (rel {rel:.3})"
        );
    }
}
