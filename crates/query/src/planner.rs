//! Per-query cost-based planning of the long/short list split.
//!
//! The paper delegates the choice of the prefix-filtering cutoff to cost
//! models from the set-similarity literature ("a few works design
//! cost-models to choose a good cutoff of long and short inverted lists",
//! §3.5 citing [7, 22, 62]). A static percentile cutoff (the
//! [`crate::PrefixFilter`] policies) treats every query alike; this module
//! implements the adaptive alternative: given the *actual* lengths of the
//! query's k lists, choose which to defer so the estimated total work is
//! minimal.
//!
//! # Cost model
//!
//! Reading short lists costs their postings. Deferring lists to the probe
//! phase costs, per candidate text, one zone probe of roughly
//! `zone_step` postings per deferred list. The number of candidates shrinks
//! as the reduced threshold `α₀ = β − (#long)` grows, which couples the two
//! choices. We estimate candidates from the short-list postings with a
//! union-bound heuristic and search over the number of deferred lists
//! `0 ≤ d ≤ β − 1` (soundness bound), always deferring the longest lists
//! first — for a fixed `d` that dominates every other choice of which lists
//! to defer.

use crate::QueryError;
use ndss_index::IndexAccess;

/// The outcome of planning: which hash functions' lists to defer (probe per
/// candidate) and the estimated costs that justified it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Hash-function indices whose lists are deferred, longest first.
    pub deferred: Vec<usize>,
    /// Estimated postings read if nothing were deferred.
    pub full_cost: f64,
    /// Estimated postings read under this plan.
    pub planned_cost: f64,
}

/// Plans the long/short split for one query's list lengths.
///
/// `lens[f]` is the length of the list the query's sketch selects under
/// function `f`; `beta` the collision threshold; `zone_step` the index's
/// zone-map sampling step (probe granularity).
pub fn plan_query(lens: &[u64], beta: usize, zone_step: u32) -> QueryPlan {
    let k = lens.len();
    let full_cost: f64 = lens.iter().map(|&l| l as f64).sum();
    // Order functions by list length, longest first: for any number of
    // deferrals d, deferring the d longest minimizes short-list reads while
    // maximizing α₀'s filtering power relative to the alternatives.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_unstable_by_key(|&f| std::cmp::Reverse(lens[f]));

    let mut best_d = 0usize;
    let mut best_cost = full_cost;
    // d may not exceed β − 1 (soundness: α₀ ≥ 1) nor k.
    let max_d = beta.saturating_sub(1).min(k);
    for d in 1..=max_d {
        let alpha0 = beta - d;
        let short_cost: f64 = order[d..].iter().map(|&f| lens[f] as f64).sum();
        // Candidate estimate: a text needs α₀ short-list postings; treat
        // postings as spread over distinct texts (worst case for us) so the
        // candidate count is at most (short postings) / α₀.
        let candidates = short_cost / alpha0 as f64;
        // Each candidate probes every deferred list: one zone-map chunk of
        // about `zone_step` postings (plus the cached zone map itself,
        // amortized to ~0 across candidates).
        let probe_cost = candidates * d as f64 * zone_step as f64;
        let cost = short_cost + probe_cost;
        if cost < best_cost {
            best_cost = cost;
            best_d = d;
        }
    }
    QueryPlan {
        deferred: order[..best_d].to_vec(),
        full_cost,
        planned_cost: best_cost,
    }
}

/// Convenience: plan directly from an index and a sketch.
pub fn plan_for_sketch<I: IndexAccess + ?Sized>(
    index: &I,
    sketch: &ndss_hash::Sketch,
    beta: usize,
) -> Result<QueryPlan, QueryError> {
    let config = index.config();
    let mut lens = vec![0; config.k];
    index.list_lens(&sketch.values()[..config.k], &mut lens)?;
    Ok(plan_query(&lens, beta, config.zone_step))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_short_lists_defer_nothing() {
        // All lists tiny: probing can only add cost.
        let lens = vec![4u64; 16];
        let plan = plan_query(&lens, 13, 256);
        assert!(plan.deferred.is_empty());
        assert_eq!(plan.planned_cost, plan.full_cost);
    }

    #[test]
    fn one_huge_list_is_deferred() {
        let mut lens = vec![10u64; 16];
        lens[3] = 1_000_000;
        let plan = plan_query(&lens, 13, 64);
        assert_eq!(plan.deferred, vec![3]);
        assert!(plan.planned_cost < plan.full_cost / 100.0);
    }

    #[test]
    fn deferral_respects_soundness_bound() {
        // Even if every list is huge, at most β − 1 may be deferred.
        let lens = vec![1_000_000u64; 8];
        let plan = plan_query(&lens, 3, 64);
        assert!(plan.deferred.len() <= 2);
    }

    #[test]
    fn longest_lists_are_deferred_first() {
        let lens = vec![10u64, 500_000, 20, 800_000, 30, 40, 50, 60];
        let plan = plan_query(&lens, 6, 64);
        assert!(!plan.deferred.is_empty());
        assert_eq!(plan.deferred[0], 3);
        if plan.deferred.len() > 1 {
            assert_eq!(plan.deferred[1], 1);
        }
    }

    #[test]
    fn plan_cost_never_exceeds_full_cost() {
        // Pseudo-random stress: the planner must never pick a plan it
        // estimates as worse than reading everything.
        let mut state = 42u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..200 {
            let k = 1 + (next() % 64) as usize;
            let lens: Vec<u64> = (0..k).map(|_| next() % 100_000).collect();
            let beta = 1 + (next() as usize % k);
            let plan = plan_query(&lens, beta, 256);
            assert!(plan.planned_cost <= plan.full_cost + 1e-9);
            assert!(plan.deferred.len() <= beta.saturating_sub(1));
        }
    }

    #[test]
    fn beta_one_never_defers() {
        let lens = vec![1_000_000u64; 4];
        let plan = plan_query(&lens, 1, 64);
        assert!(plan.deferred.is_empty());
    }
}
