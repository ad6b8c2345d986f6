//! `CollisionCount` (paper Algorithms 4 and 5).
//!
//! Input: the compact windows of **one text** gathered from the query's
//! retrieved inverted lists, plus a collision threshold `α`. Because each
//! window `(l, c, r)` attests one min-hash collision for every sequence
//! `T[i..=j]` with `i ∈ [l, c]`, `j ∈ [c, r]`, a sequence's collision count
//! is the number of windows covering it. Splitting windows into left
//! (`[l, c]`) and right (`[c, r]`) intervals reduces "covered by ≥ α
//! windows" to two nested interval sweeps:
//!
//! 1. sweep the left intervals: each hit gives an elementary start-range
//!    `[x, x']` and the subset `C'` of windows whose left interval covers it;
//! 2. sweep the right intervals of `C'`: each hit gives an end-range
//!    `[y, y']` where `|C''| ≥ α` of those windows remain active.
//!
//! Every sequence `(i, j)` with `i ∈ [x, x']` and `j ∈ [y, y']` then collides
//! exactly `|C''|` times. The produced [`Rectangle`]s are pairwise disjoint
//! (elementary ranges partition the `i` axis; for fixed `i`, the nested
//! sweep partitions the `j` axis), so downstream counting never
//! double-counts.
//!
//! [`collision_sweep`] does the sorting of both sweeps **once per text**
//! rather than once per elementary range: sort the left endpoints, sort and
//! compress the right coordinates `{c, r + 1}` of every window, then keep a
//! per-coordinate difference array up to date (±1 as a window enters or
//! leaves `C'`), with one bit per coordinate marking those some window of
//! `C'` touches. The inner sweep of one elementary range is then a single
//! prefix-sum pass over the marked coordinates only, which stops as soon as
//! the count can no longer reach α — O(m log m + ranges × (live coordinates
//! + coordinates / 64)) instead of O(ranges × m log m).

use std::ops::ControlFlow;

use ndss_windows::CompactWindow;

use crate::QueryError;

/// A maximal axis-aligned block of sequences sharing one collision count:
/// all `T[i..=j]` with `i ∈ [x_lo, x_hi]`, `j ∈ [y_lo, y_hi]` collide with
/// the query exactly `collisions` times. Invariant: `x_hi ≤ y_lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rectangle {
    /// Inclusive range of sequence start positions.
    pub x_lo: u32,
    /// Inclusive upper bound of start positions.
    pub x_hi: u32,
    /// Inclusive range of sequence end positions.
    pub y_lo: u32,
    /// Inclusive upper bound of end positions.
    pub y_hi: u32,
    /// The common collision count (≥ the α used to produce it).
    pub collisions: u32,
}

impl Rectangle {
    /// Whether the sequence `(i, j)` lies in this rectangle.
    pub fn contains(&self, i: u32, j: u32) -> bool {
        self.x_lo <= i && i <= self.x_hi && self.y_lo <= j && j <= self.y_hi
    }

    /// Number of sequences `(i, j)` in the rectangle with `j − i + 1 ≥ t`.
    ///
    /// Closed form, O(1): for each start `i`, valid ends are
    /// `max(y_lo, i + t − 1) ..= y_hi`. The i-axis splits at the point where
    /// the length constraint overtakes `y_lo` — full rows before it, an
    /// arithmetic series after. `t = 0` counts the same sequences as
    /// `t = 1` (every `(i, j)` has length ≥ 1) instead of underflowing.
    pub fn sequences_at_least(&self, t: u32) -> u64 {
        let d = t.saturating_sub(1) as i128;
        let (x0, x1) = (self.x_lo as i128, self.x_hi as i128);
        let (y0, y1) = (self.y_lo as i128, self.y_hi as i128);
        // Starts with i + d ≤ y_lo see the full end-range [y_lo, y_hi].
        let full_rows = (x1.min(y0 - d) - x0 + 1).max(0);
        let mut total = full_rows * (y1 - y0 + 1);
        // Length-constrained starts: row i holds (y1 − d + 1) − i ends.
        let a = x0.max(y0 - d + 1);
        let b = x1.min(y1 - d);
        if a <= b {
            total += (b - a + 1) * (2 * (y1 - d + 1) - a - b) / 2;
        }
        total.max(0) as u64
    }

    /// The union of token positions covered by the rectangle's sequences of
    /// length ≥ t, as a single span `[x_lo, y_hi]` — or `None` when no
    /// sequence in the rectangle is long enough. (If any qualifying `(i, j)`
    /// exists, the shortest-start one begins at `x_lo` and the longest ends
    /// at `y_hi`, and coverage in between is contiguous.)
    pub fn covered_span(&self, t: u32) -> Option<(u32, u32)> {
        if self.sequences_at_least(t) == 0 {
            None
        } else {
            Some((self.x_lo, self.y_hi))
        }
    }
}

const IDX_BITS: u32 = 30;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;
const END_BIT: u64 = 1 << IDX_BITS;
const POS_SHIFT: u32 = IDX_BITS + 1;

/// Packed sort key of one sweep endpoint: `position` (33 bits — `r + 1`
/// reaches 2³²) above `is_end` (1 bit) above the window's index in its run
/// (30 bits). One `u64` comparison orders events by `(position, is_end,
/// index)`: starts before ends at the same position.
fn event(pos: u64, is_end: bool, idx: usize) -> u64 {
    pos << POS_SHIFT | (is_end as u64) << IDX_BITS | idx as u64
}

/// The longest run of windows one [`collision_sweep`] accepts: the index
/// width of its packed sort keys (12 GiB of windows — any run that fits in
/// memory).
pub const MAX_SWEEP_WINDOWS: usize = 1 << IDX_BITS;

/// One compressed right coordinate (a `c` or an `r + 1` of some window of
/// the run) with what the windows currently in `C'` put on it.
#[derive(Debug, Clone, Copy)]
struct Coord {
    pos: u64,
    /// Active right intervals starting here minus those ending here.
    delta: i32,
    /// Active endpoints here. The inner sweep splits exactly at the
    /// coordinates where this is non-zero.
    events: u32,
}

/// The set bits of `words` at index `from` or later, ascending.
fn ones_from(words: &[u64], from: usize) -> impl Iterator<Item = usize> + '_ {
    let mut w = from / 64;
    let mut bits = words.get(w).map_or(0, |&x| x & (!0 << (from % 64)));
    std::iter::from_fn(move || {
        while bits == 0 {
            w += 1;
            bits = *words.get(w)?;
        }
        let bit = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(w * 64 + bit)
    })
}

/// Reusable buffers for [`collision_sweep`]. The query loop runs one sweep
/// per candidate text and the endpoint lists are the only heap state a
/// sweep needs, so one scratch per query removes every per-text allocation.
#[derive(Debug, Default)]
pub struct CollisionScratch {
    /// Left-sweep endpoints `(l, start)` and `(c + 1, end)`, sorted.
    left: Vec<u64>,
    /// Right coordinates `(c, start)` and `(r + 1, end)`, sorted — only to
    /// be compressed into `coords` / `at`.
    right: Vec<u64>,
    /// The distinct right coordinates, ascending.
    coords: Vec<Coord>,
    /// `at[idx]` = where window `idx`'s `c` and `r + 1` sit in `coords`.
    at: Vec<[u32; 2]>,
    /// Bit `i` is set exactly when `coords[i].events != 0`: the coordinates
    /// the inner sweep visits.
    live: Vec<u64>,
}

/// Runs Algorithm 4 on the windows of one text. Returns the rectangles of
/// all sequences covered by at least `alpha` of the given windows.
///
/// Windows may repeat pivots or overlap arbitrarily (they come from up to
/// `k` different hash functions, and one function can contribute several
/// windows of the same text).
///
/// # Panics
/// Like its two `_into` siblings, when given more than
/// [`MAX_SWEEP_WINDOWS`] windows; [`collision_sweep`] reports that as an
/// error instead.
pub fn collision_count(windows: &[CompactWindow], alpha: usize) -> Vec<Rectangle> {
    let mut rects = Vec::new();
    collision_count_into(windows, alpha, &mut CollisionScratch::default(), &mut rects);
    rects
}

/// [`collision_count`] without the allocations: clears `out` and fills it
/// with the same rectangles, reusing `scratch`'s buffers across calls.
pub fn collision_count_into(
    windows: &[CompactWindow],
    alpha: usize,
    scratch: &mut CollisionScratch,
    out: &mut Vec<Rectangle>,
) {
    collision_count_fn_into(windows.len(), |i| windows[i], alpha, scratch, out);
}

/// [`collision_count_into`] over any indexed window source.
pub fn collision_count_fn_into(
    num_windows: usize,
    window_at: impl Fn(usize) -> CompactWindow,
    alpha: usize,
    scratch: &mut CollisionScratch,
    out: &mut Vec<Rectangle>,
) {
    out.clear();
    collision_sweep(num_windows, window_at, alpha, scratch, |rect| {
        out.push(rect);
        ControlFlow::Continue(())
    })
    .expect("more windows than one sweep can index");
}

/// The one implementation of Algorithm 4: hands `emit` every rectangle of
/// sequences covered by at least `alpha` of the `num_windows` windows
/// `window_at(0..num_windows)`, ordered by start range and, within one start
/// range, by end range. `emit` returning [`ControlFlow::Break`] ends the
/// sweep, so the rectangles seen are always a prefix of the full output.
/// The query loop feeds posting runs straight in, without first copying
/// their windows into a buffer.
///
/// The outer sweep walks the sorted left endpoints and only counts how many
/// windows are active. At an elementary range `[x, x']` with at least
/// `alpha` of them, the endpoints walked since the previous such range are
/// applied to the compressed right coordinates (built on first use: a text
/// whose windows never stack `alpha` deep costs one sort), and one pass over
/// the coordinates some active window touches, from `x` on, accumulates the
/// active count and cuts a rectangle at each of them. The pass stops once no
/// rectangle is open and the count plus the active starts still ahead is
/// below `alpha`.
///
/// A run longer than [`MAX_SWEEP_WINDOWS`] is
/// [`QueryError::TooManyPostings`].
pub fn collision_sweep(
    num_windows: usize,
    window_at: impl Fn(usize) -> CompactWindow,
    alpha: usize,
    scratch: &mut CollisionScratch,
    mut emit: impl FnMut(Rectangle) -> ControlFlow<()>,
) -> Result<(), QueryError> {
    assert!(alpha >= 1, "collision threshold must be at least 1");
    if num_windows < alpha {
        return Ok(());
    }
    if num_windows > MAX_SWEEP_WINDOWS {
        return Err(QueryError::TooManyPostings {
            postings: num_windows,
            limit: MAX_SWEEP_WINDOWS,
        });
    }
    let CollisionScratch {
        left,
        right,
        coords,
        at,
        live,
    } = scratch;
    // Positions are widened to u64 before packing so `c + 1` and `r + 1`
    // cannot overflow at u32::MAX.
    left.clear();
    for idx in 0..num_windows {
        let w = window_at(idx);
        left.push(event(w.l as u64, false, idx));
        left.push(event(w.c as u64 + 1, true, idx));
    }
    left.sort_unstable();
    coords.clear();
    // Windows whose [l, c] covers the current elementary range.
    let mut active = 0usize;
    // `left[..applied]` is what `coords` reflects.
    let mut applied = 0usize;
    // `coords[..first]` lie left of the current elementary range, where no
    // active window has a coordinate (x ≤ c for every one of them).
    let mut first = 0usize;
    let mut i = 0;
    while i < left.len() {
        let pos = left[i] >> POS_SHIFT;
        while i < left.len() && left[i] >> POS_SHIFT == pos {
            if left[i] & END_BIT == 0 {
                active += 1;
            } else {
                active -= 1;
            }
            i += 1;
        }
        if active < alpha {
            continue;
        }
        // The active set persists until the next distinct endpoint (ends
        // exist for all active intervals, so `left[i]` is in bounds).
        let (x_lo, x_hi) = (pos as u32, ((left[i] >> POS_SHIFT) - 1) as u32);
        if coords.is_empty() {
            right.clear();
            for idx in 0..num_windows {
                let w = window_at(idx);
                right.push(event(w.c as u64, false, idx));
                right.push(event(w.r as u64 + 1, true, idx));
            }
            right.sort_unstable();
            at.clear();
            at.resize(num_windows, [0; 2]);
            for &key in right.iter() {
                let pos = key >> POS_SHIFT;
                if coords.last().is_none_or(|c| c.pos != pos) {
                    coords.push(Coord {
                        pos,
                        delta: 0,
                        events: 0,
                    });
                }
                let end = (key & END_BIT != 0) as usize;
                at[(key & IDX_MASK) as usize][end] = (coords.len() - 1) as u32;
            }
            live.clear();
            live.resize(coords.len().div_ceil(64), 0);
        }
        for &key in &left[applied..i] {
            let [c, r] = at[(key & IDX_MASK) as usize];
            let step = if key & END_BIT == 0 { 1 } else { -1 };
            for (slot, delta) in [(c as usize, step), (r as usize, -step)] {
                let coord = &mut coords[slot];
                coord.delta += delta;
                coord.events = coord.events.wrapping_add_signed(step);
                let (word, bit) = (&mut live[slot / 64], slot % 64);
                *word = *word & !(1 << bit) | ((coord.events != 0) as u64) << bit;
            }
        }
        applied = i;
        while coords[first].pos < pos {
            first += 1;
        }
        // The inner sweep: a running sum of `delta` over the live
        // coordinates, one rectangle per stretch between them where it is at
        // least alpha. `count + starts_left` bounds every later count.
        let mut count = 0i32;
        let mut starts_left = active as i32;
        let mut open: Option<(u32, u32)> = None;
        for slot in ones_from(live, first) {
            let coord = &coords[slot];
            count += coord.delta;
            starts_left -= (coord.events as i32 + coord.delta) / 2;
            if open.is_none() && ((count + starts_left) as usize) < alpha {
                break;
            }
            if let Some((y_lo, collisions)) = open.take() {
                let rect = Rectangle {
                    x_lo,
                    x_hi,
                    y_lo,
                    y_hi: (coord.pos - 1) as u32,
                    collisions,
                };
                if emit(rect).is_break() {
                    return Ok(());
                }
            }
            if count as usize >= alpha {
                open = Some((coord.pos as u32, count as u32));
            }
        }
    }
    Ok(())
}

/// Brute-force oracle for tests: collision count of every sequence `(i, j)`
/// is the number of windows covering it; returns those with count ≥ alpha
/// as `((i, j), count)`.
pub fn bruteforce_collisions(
    windows: &[CompactWindow],
    alpha: usize,
    max_pos: u32,
) -> Vec<((u32, u32), u32)> {
    let mut out = Vec::new();
    for i in 0..=max_pos {
        for j in i..=max_pos {
            let count = windows.iter().filter(|w| w.covers(i, j)).count() as u32;
            if count as usize >= alpha {
                out.push(((i, j), count));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand(rects: &[Rectangle]) -> Vec<((u32, u32), u32)> {
        let mut out = Vec::new();
        for r in rects {
            for i in r.x_lo..=r.x_hi {
                for j in r.y_lo..=r.y_hi {
                    assert!(i <= j, "rectangle yields inverted sequence ({i},{j})");
                    out.push(((i, j), r.collisions));
                }
            }
        }
        out.sort();
        out
    }

    fn check(windows: &[CompactWindow], alpha: usize, max_pos: u32) {
        let rects = collision_count(windows, alpha);
        assert_eq!(
            expand(&rects),
            bruteforce_collisions(windows, alpha, max_pos),
            "mismatch for {windows:?} alpha={alpha}"
        );
    }

    #[test]
    fn single_window() {
        let w = [CompactWindow::new(2, 4, 8)];
        check(&w, 1, 10);
    }

    #[test]
    fn two_overlapping_windows() {
        let w = [CompactWindow::new(0, 3, 9), CompactWindow::new(1, 5, 7)];
        for alpha in 1..=2 {
            check(&w, alpha, 10);
        }
    }

    #[test]
    fn stacked_identical_windows() {
        let w = [
            CompactWindow::new(1, 4, 9),
            CompactWindow::new(1, 4, 9),
            CompactWindow::new(1, 4, 9),
        ];
        for alpha in 1..=3 {
            check(&w, alpha, 11);
        }
    }

    #[test]
    fn disjoint_windows_never_stack() {
        let w = [CompactWindow::new(0, 1, 3), CompactWindow::new(5, 6, 9)];
        check(&w, 1, 10);
        assert!(collision_count(&w, 2).is_empty());
    }

    #[test]
    fn rectangles_are_disjoint() {
        let w = [
            CompactWindow::new(0, 5, 12),
            CompactWindow::new(2, 6, 10),
            CompactWindow::new(3, 5, 15),
            CompactWindow::new(0, 8, 12),
        ];
        let rects = collision_count(&w, 2);
        let seqs = expand(&rects);
        let mut keys: Vec<(u32, u32)> = seqs.iter().map(|&(ij, _)| ij).collect();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "a sequence appeared in two rectangles");
        check(&w, 2, 16);
    }

    #[test]
    fn pseudorandom_cross_check() {
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for _ in 0..40 {
            let n = 1 + (next() % 8) as usize;
            let windows: Vec<CompactWindow> = (0..n)
                .map(|_| {
                    let l = next() % 12;
                    let c = l + next() % 6;
                    let r = c + next() % 8;
                    CompactWindow::new(l, c, r)
                })
                .collect();
            for alpha in 1..=n {
                check(&windows, alpha, 30);
            }
        }
    }

    /// Runs of 70–300 windows put their coordinates across several bitset
    /// words, and α near the deepest stack makes the walk stop early on most
    /// elementary ranges.
    #[test]
    fn multi_word_runs_near_the_deepest_stack_match_bruteforce() {
        let mut state = 7u64;
        let mut next = |bound: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32 % bound
        };
        for _ in 0..6 {
            let n = 70 + next(231);
            let windows: Vec<CompactWindow> = (0..n)
                .map(|_| {
                    let l = next(120);
                    let c = l + next(30);
                    CompactWindow::new(l, c, c + next(40))
                })
                .collect();
            let every = bruteforce_collisions(&windows, 1, 190);
            let deepest = every.iter().map(|&(_, count)| count).max().unwrap();
            for alpha in deepest.saturating_sub(3).max(1)..=deepest {
                let want: Vec<_> = every.iter().filter(|s| s.1 >= alpha).copied().collect();
                let got = expand(&collision_count(&windows, alpha as usize));
                assert_eq!(got, want, "{n} windows, alpha {alpha}");
            }
        }
    }

    /// `ones_from` yields exactly the set bits at or after `from`, whatever
    /// lies below it in the same word.
    #[test]
    fn ones_from_skips_every_bit_below_its_start() {
        let words = [u64::MAX, 0, 0b1011 << 60, 0, 1];
        let set: Vec<usize> = (0..words.len() * 64)
            .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
            .collect();
        for from in 0..=words.len() * 64 {
            let want: Vec<usize> = set.iter().copied().filter(|&i| i >= from).collect();
            assert_eq!(
                ones_from(&words, from).collect::<Vec<_>>(),
                want,
                "from {from}"
            );
        }
    }

    #[test]
    fn sequences_at_least_counts_triangle() {
        // Rectangle i ∈ [0, 2], j ∈ [1, 4], t = 3:
        //  i=0: j ≥ 2 → j ∈ {2,3,4} → 3
        //  i=1: j ≥ 3 → {3,4}      → 2
        //  i=2: j ≥ 4 → {4}        → 1
        let r = Rectangle {
            x_lo: 0,
            x_hi: 2,
            y_lo: 1,
            y_hi: 4,
            collisions: 5,
        };
        assert_eq!(r.sequences_at_least(3), 6);
        // t = 1: i=0 → j∈{1..4}, i=1 → {1..4} (j ≥ i), i=2 → {2..4}.
        assert_eq!(r.sequences_at_least(1), 4 + 4 + 3);
        assert_eq!(r.sequences_at_least(6), 0);
        assert_eq!(r.covered_span(3), Some((0, 4)));
        assert_eq!(r.covered_span(6), None);
    }

    /// Closed form agrees with the per-start loop it replaced, including the
    /// t = 0 case that used to underflow `t - 1`.
    #[test]
    fn sequences_at_least_matches_bruteforce() {
        fn brute(r: &Rectangle, t: u32) -> u64 {
            let mut total = 0u64;
            for i in r.x_lo..=r.x_hi {
                for j in r.y_lo..=r.y_hi {
                    if j >= i && (j - i + 1) as u64 >= t.max(1) as u64 {
                        total += 1;
                    }
                }
            }
            total
        }
        let rects = [
            Rectangle {
                x_lo: 0,
                x_hi: 2,
                y_lo: 1,
                y_hi: 4,
                collisions: 1,
            },
            Rectangle {
                x_lo: 3,
                x_hi: 3,
                y_lo: 3,
                y_hi: 3,
                collisions: 1,
            },
            Rectangle {
                x_lo: 0,
                x_hi: 9,
                y_lo: 9,
                y_hi: 30,
                collisions: 1,
            },
            Rectangle {
                x_lo: 5,
                x_hi: 7,
                y_lo: 7,
                y_hi: 8,
                collisions: 1,
            },
        ];
        for r in &rects {
            for t in 0..40u32 {
                assert_eq!(r.sequences_at_least(t), brute(r, t), "{r:?} t={t}");
            }
            // t = 0 is "any sequence", identical to t = 1, and must not panic.
            assert_eq!(r.sequences_at_least(0), r.sequences_at_least(1));
            assert_eq!(r.sequences_at_least(u32::MAX), 0);
        }
        // Huge coordinates: the closed form must not overflow.
        let big = Rectangle {
            x_lo: 0,
            x_hi: u32::MAX - 1,
            y_lo: 0,
            y_hi: u32::MAX - 1,
            collisions: 1,
        };
        assert_eq!(big.sequences_at_least(u32::MAX), 1);
        assert!(big.sequences_at_least(1) > 0);
    }

    #[test]
    fn threshold_larger_than_group_is_empty() {
        let w = [CompactWindow::new(0, 1, 5)];
        assert!(collision_count(&w, 2).is_empty());
    }

    fn rect(x_lo: u32, x_hi: u32, y_lo: u32, y_hi: u32, collisions: u32) -> Rectangle {
        Rectangle {
            x_lo,
            x_hi,
            y_lo,
            y_hi,
            collisions,
        }
    }

    /// Adversarial shapes: the rectangles — values *and* order — are those
    /// the per-range re-sorting implementation this sweep replaced produced
    /// (recorded from it before it was deleted), and, where the coordinates
    /// are small enough to enumerate, those of the brute-force count.
    #[test]
    fn adversarial_shapes_match_the_replaced_implementation() {
        let w = CompactWindow::new;
        let m = u32::MAX;
        // All identical: one rectangle at every threshold up to the stack.
        let identical = vec![w(3, 7, 12); 5];
        assert_eq!(collision_count(&identical, 3), [rect(3, 7, 7, 12, 5)]);
        check(&identical, 3, 14);
        // Nested: every start range keeps all earlier windows active.
        let nested: Vec<CompactWindow> = (0..5).map(|i| w(i, 10, 20 - i)).collect();
        assert_eq!(
            collision_count(&nested, 2),
            [
                rect(1, 1, 10, 19, 2),
                rect(2, 2, 10, 18, 3),
                rect(2, 2, 19, 19, 2),
                rect(3, 3, 10, 17, 4),
                rect(3, 3, 18, 18, 3),
                rect(3, 3, 19, 19, 2),
                rect(4, 10, 10, 16, 5),
                rect(4, 10, 17, 17, 4),
                rect(4, 10, 18, 18, 3),
                rect(4, 10, 19, 19, 2),
            ]
        );
        check(&nested, 2, 22);
        // Staircase: windows enter and leave one at a time.
        let staircase: Vec<CompactWindow> =
            (0..6).map(|i| w(2 * i, 2 * i + 3, 2 * i + 8)).collect();
        assert_eq!(
            collision_count(&staircase, 2),
            [
                rect(2, 3, 5, 8, 2),
                rect(4, 5, 7, 10, 2),
                rect(6, 7, 9, 12, 2),
                rect(8, 9, 11, 14, 2),
                rect(10, 11, 13, 16, 2),
            ]
        );
        check(&staircase, 2, 20);
        // c = r = u32::MAX: both `c + 1` and `r + 1` need the 33rd bit.
        let at_max = [w(0, 5, m), w(2, 5, m), w(m - 1, m, m), w(4, m, m)];
        assert_eq!(
            collision_count(&at_max, 1),
            [
                rect(0, 1, 5, m, 1),
                rect(2, 3, 5, m, 2),
                rect(4, 5, 5, m - 1, 2),
                rect(4, 5, m, m, 3),
                rect(6, m - 2, m, m, 1),
                rect(m - 1, m, m, m, 2),
            ]
        );
        assert_eq!(
            collision_count(&at_max, 2),
            [
                rect(2, 3, 5, m, 2),
                rect(4, 5, 5, m - 1, 2),
                rect(4, 5, m, m, 3),
                rect(m - 1, m, m, m, 2),
            ]
        );
        // A start and an end on one coordinate, on both axes: window 0's
        // left interval ends at 3 where window 1's starts, and its right
        // interval ends at 6 where window 1's starts.
        let touching = [w(0, 2, 5), w(3, 6, 9), w(1, 2, 8)];
        assert_eq!(
            collision_count(&touching, 1),
            [
                rect(0, 0, 2, 5, 1),
                rect(1, 2, 2, 5, 2),
                rect(1, 2, 6, 8, 1),
                rect(3, 6, 6, 9, 1),
            ]
        );
        check(&touching, 1, 11);
    }

    /// FNV-1a over every field of every rectangle, in order.
    fn checksum(rects: &[Rectangle]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for r in rects {
            for v in [r.x_lo, r.x_hi, r.y_lo, r.y_hi, r.collisions] {
                h = (h ^ v as u64).wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    fn nested(n: u32) -> Vec<CompactWindow> {
        (0..n)
            .map(|i| CompactWindow::new(i, n + 7, 3 * n - i))
            .collect()
    }

    /// m = 2 000 windows: rectangle count and checksum as recorded from the
    /// replaced implementation.
    #[test]
    fn two_thousand_windows_match_recorded_checksums() {
        let w = CompactWindow::new;
        let n = 2000u32;
        let nested = nested(n);
        let staircase: Vec<CompactWindow> =
            (0..n).map(|i| w(3 * i, 3 * i + 40, 3 * i + 100)).collect();
        let identical = vec![w(5, 9, 30); n as usize];
        for (windows, alpha, count, sum) in [
            (&nested, 1, 2_001_000, 0x8f4bb56d18ed995d),
            (&nested, 8, 1_987_021, 0xf60bfdf67002bbb1),
            (&nested, 1000, 501_501, 0xa0fa8d6346267981),
            (&staircase, 1, 103_637, 0x7f8712743f83cf2b),
            (&staircase, 8, 47_749, 0xe658985d017b7827),
            (&staircase, 1000, 0, 0xcbf29ce484222325),
            (&identical, 1, 1, 0xf76b154f8e90b648),
            (&identical, 1000, 1, 0xf76b154f8e90b648),
        ] {
            let rects = collision_count(windows, alpha);
            assert_eq!(rects.len(), count, "alpha {alpha}");
            assert_eq!(checksum(&rects), sum, "alpha {alpha}");
        }
    }

    /// 2 000 nested windows at α = 1 900: a hundred start ranges with ~1 950
    /// windows active in each. Ten such sweeps took the replaced
    /// implementation — which re-collected and re-sorted ~3 900 endpoints
    /// per start range — 43 ms optimised and 1.15 s unoptimised on the host
    /// that recorded the checksums above; sorting once takes 4.6 ms and
    /// 57 ms there. The bound sits between, and the best of three attempts
    /// is held to it so a descheduled run does not fail the suite.
    #[test]
    fn two_thousand_stacked_windows_inside_a_bound_resorting_misses() {
        let windows = nested(2000);
        let mut scratch = CollisionScratch::default();
        let best = (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                for _ in 0..10 {
                    let mut rects = 0usize;
                    collision_sweep(
                        windows.len(),
                        |i| windows[i],
                        1900,
                        &mut scratch,
                        |_| {
                            rects += 1;
                            ControlFlow::Continue(())
                        },
                    )
                    .unwrap();
                    assert_eq!(rects, 5151);
                }
                start.elapsed()
            })
            .min()
            .unwrap();
        let bound = if cfg!(debug_assertions) { 500 } else { 20 };
        assert!(
            best < std::time::Duration::from_millis(bound),
            "ten sweeps took {best:?}, bound {bound} ms"
        );
    }

    /// Whenever `emit` breaks, what it saw is a prefix of the full sweep.
    #[test]
    fn stopped_sweep_yields_a_prefix() {
        let windows: Vec<CompactWindow> = (0..12)
            .map(|i| CompactWindow::new(i, i + 5 + i % 3, i + 9 + i % 4))
            .collect();
        for alpha in 1..=4 {
            let full = collision_count(&windows, alpha);
            assert!(full.len() > 3);
            for stop_after in 0..=full.len() {
                let mut seen = Vec::new();
                collision_sweep(
                    windows.len(),
                    |i| windows[i],
                    alpha,
                    &mut CollisionScratch::default(),
                    |rect| {
                        seen.push(rect);
                        if seen.len() > stop_after {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    },
                )
                .unwrap();
                let want = (stop_after + 1).min(full.len());
                assert_eq!(seen, full[..want]);
            }
        }
    }

    /// One scratch serves runs of different sizes back to back (the query
    /// loop's use): nothing of an earlier run leaks into a later one.
    #[test]
    fn scratch_is_reusable_across_runs() {
        let big: Vec<CompactWindow> = (0..40)
            .map(|i| CompactWindow::new(i, i + 9, i + 30))
            .collect();
        let small = [CompactWindow::new(1, 2, 3), CompactWindow::new(2, 2, 9)];
        let mut scratch = CollisionScratch::default();
        let mut out = Vec::new();
        for (windows, alpha) in [
            (&big[..], 3),
            (&small[..], 1),
            (&big[..], 7),
            (&small[..], 2),
        ] {
            collision_count_into(windows, alpha, &mut scratch, &mut out);
            assert_eq!(out, collision_count(windows, alpha));
        }
    }

    /// The sort key's 30 index bits are a checked limit, not a panic: a
    /// longer run is refused before a single window is read.
    #[test]
    fn oversized_run_is_an_error() {
        let result = collision_sweep(
            MAX_SWEEP_WINDOWS + 1,
            |_| unreachable!("refused before any window is read"),
            1,
            &mut CollisionScratch::default(),
            |_| ControlFlow::Continue(()),
        );
        assert!(matches!(
            result,
            Err(QueryError::TooManyPostings { postings, limit })
                if postings == MAX_SWEEP_WINDOWS + 1 && limit == MAX_SWEEP_WINDOWS
        ));
    }
}
