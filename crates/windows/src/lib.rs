//! Compact-window generation (the paper's §3.3, Algorithm 2).
//!
//! A **compact window** `(l, c, r)` over a text `T` under a token hash
//! function `f` asserts that *every* sequence `T[i..=j]` with
//! `l ≤ i ≤ c ≤ j ≤ r` has min-hash `f(T[c])`, and that the window is
//! maximal. Generating one window therefore prices the min-hash of
//! `(c−l+1)·(r−c+1)` sequences at `O(1)` — this is what makes indexing all
//! `O(n²)` sequences of a text feasible.
//!
//! The paper's contribution over ALIGN is the **length threshold `t`**: only
//! *valid* windows with width `r − l + 1 ≥ t` are generated, because every
//! sequence of length ≥ t lies in a window of width ≥ t. Theorem 1 shows a
//! text of `n` distinct tokens yields only `2(n+1)/(t+1) − 1` valid windows
//! in expectation, and that the valid windows still cover every sequence of
//! length ≥ t exactly once.
//!
//! Two algorithms are provided, producing identical window sets (tested
//! against each other and against a brute-force checker):
//!
//! * Algorithm 2 as printed — a divide-and-conquer over RMQ queries on an
//!   explicit work stack (adversarially sorted hash arrays cannot overflow
//!   the call stack), asking one query per emitted window.
//!   [`generate::WindowGenerator`] is what the indexer runs: it hashes a
//!   text's tokens into a block RMQ it rebuilds in place, so it allocates
//!   nothing per text; [`generate::generate_recursive`] is the same loop
//!   over a fresh RMQ, for callers that hold a hash array.
//! * [`generate::generate_cartesian`] — the independent oracle: builds the
//!   Cartesian tree of the hash array (its shape *is* the recursion tree of
//!   Algorithm 2) and walks it with pruning at spans narrower than `t`.
//!
//! [`theory`] holds the closed-form expectation and [`verify`] the
//! partition-property oracle used by unit, property, and integration tests.

pub mod generate;
pub mod theory;
pub mod verify;

pub use generate::{generate_cartesian, generate_recursive, WindowGenerator};

use ndss_hash::HashValue;

/// A compact window `(l, c, r)`: positions are 0-based, both ends inclusive,
/// with `l ≤ c ≤ r`. The token at `c` carries the minimum hash value in
/// `[l, r]` (leftmost on ties).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompactWindow {
    /// Leftmost start position a covered sequence may have.
    pub l: u32,
    /// The pivot position holding the range-minimum hash.
    pub c: u32,
    /// Rightmost end position a covered sequence may have.
    pub r: u32,
}

impl CompactWindow {
    /// Creates a window; `l ≤ c ≤ r` is required.
    #[inline]
    pub fn new(l: u32, c: u32, r: u32) -> Self {
        debug_assert!(l <= c && c <= r, "invalid window ({l}, {c}, {r})");
        Self { l, c, r }
    }

    /// The window's width `r − l + 1` (the longest covered sequence).
    #[inline]
    pub fn width(&self) -> u32 {
        self.r - self.l + 1
    }

    /// Whether the sequence `[i, j]` is covered: `l ≤ i ≤ c ≤ j ≤ r`.
    #[inline]
    pub fn covers(&self, i: u32, j: u32) -> bool {
        self.l <= i && i <= self.c && self.c <= j && j <= self.r
    }

    /// Number of sequences this window represents.
    #[inline]
    pub fn sequences_covered(&self) -> u64 {
        (self.c - self.l + 1) as u64 * (self.r - self.c + 1) as u64
    }
}

/// A compact window annotated with its min-hash value — the record the
/// inverted index stores (`(T, l, c, r)` in list `hash`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedWindow {
    /// `f(T[c])`: the shared min-hash of all covered sequences.
    pub hash: HashValue,
    /// The window itself.
    pub window: CompactWindow,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_geometry() {
        let w = CompactWindow::new(2, 5, 9);
        assert_eq!(w.width(), 8);
        assert_eq!(w.sequences_covered(), 4 * 5);
        assert!(w.covers(2, 9));
        assert!(w.covers(5, 5));
        assert!(!w.covers(6, 9)); // starts right of the pivot
        assert!(!w.covers(2, 4)); // ends left of the pivot
        assert!(!w.covers(1, 9)); // starts left of the window
    }

    #[test]
    fn single_position_window() {
        let w = CompactWindow::new(3, 3, 3);
        assert_eq!(w.width(), 1);
        assert_eq!(w.sequences_covered(), 1);
        assert!(w.covers(3, 3));
    }
}
