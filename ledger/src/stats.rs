//! Statistics the ledger reports: medians, percentiles with enough samples
//! beyond them, rates over time slices, and the quartile spread the
//! acceptance rule uses.

use std::time::Duration;

/// Linear-interpolated quantile of an ascending slice, `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it; `None` below twenty samples.
pub fn top_percentile(samples: usize) -> Option<f64> {
    // Per mille, so that 100 samples beyond the 90th are exactly ten.
    [999usize, 990, 950, 900, 500]
        .into_iter()
        .find(|pm| samples * (1_000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 1_000.0)
}

/// A latency sample summarised the way the ledger prints it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// `(percentile, value)` of [`top_percentile`].
    pub top: Option<(f64, f64)>,
}

impl Summary {
    /// The summary as one line: sample count, median, and the highest
    /// percentile the sample supports.
    pub fn describe(&self, unit: &str) -> String {
        let top = match self.top {
            Some((p, v)) => format!("p{} {v:.1} {unit}", p * 100.0),
            None => "too few samples for a tail percentile".to_string(),
        };
        format!("n={} p50 {:.1} {unit}, {top}", self.samples, self.p50)
    }
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        samples: s.len(),
        p50: quantile(&s, 0.5),
        p95: quantile(&s, 0.95),
        p99: quantile(&s, 0.99),
        top: top_percentile(s.len()).map(|p| (p, quantile(&s, p))),
    }
}

/// Median and 95th percentile over the least disturbed half of `groups`:
/// the groups (slices of a stage, rounds of a phase — equal work each) are
/// ranked by their own median, the better half is pooled, and the pool is
/// summarised. One group is too few samples for a 95th percentile where a
/// group is a hundred requests; the pool has enough, and still leaves out
/// the seconds in which the host was busy with someone else.
pub fn least_disturbed_half(groups: &[Vec<f64>]) -> Option<(f64, f64)> {
    let mut ranked: Vec<(f64, &Vec<f64>)> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| (median(g), g))
        .collect();
    if ranked.is_empty() {
        return None;
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = ranked.len().div_ceil(2);
    let pool: Vec<f64> = ranked[..keep]
        .iter()
        .flat_map(|(_, g)| g.iter().copied())
        .collect();
    let s = summarize(&pool);
    Some((s.p50, s.p95))
}

/// The slice of width `width_s` each offset falls in, for offsets from the
/// start of a region of `slices` slices; `None` beyond the region.
pub fn slice_of(offset: Duration, width_s: f64, slices: usize) -> Option<usize> {
    let i = (offset.as_secs_f64() / width_s) as usize;
    (i < slices).then_some(i)
}

/// Operations per second in each of `slices` equal time slices of the
/// region. `completions` are offsets from the start of the region.
pub fn slice_rates(completions: &[Duration], region: Duration, slices: usize) -> Vec<f64> {
    let slices = slices.max(1);
    let width = region.as_secs_f64() / slices as f64;
    let mut counts = vec![0u64; slices];
    for c in completions {
        if let Some(i) = slice_of(*c, width, slices) {
            counts[i] += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.95), 95.0);
        assert_eq!(quantile(&s, 0.0), 0.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(0.5));
        assert_eq!(top_percentile(100), Some(0.9));
        assert_eq!(top_percentile(200), Some(0.95));
        assert_eq!(top_percentile(1_000), Some(0.99));
        assert_eq!(top_percentile(10_000), Some(0.999));
        let summary = summarize(&(0..200).map(f64::from).collect::<Vec<_>>());
        assert_eq!(summary.top.unwrap().0, 0.95);
        assert_eq!(summary.samples, 200);
        assert!(summary
            .describe("us")
            .starts_with("n=200 p50 99.5 us, p95 "));
        assert!(summarize(&[1.0, 2.0])
            .describe("us")
            .contains("too few samples"));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), [10.0, 20.0, 30.0]);
    }

    #[test]
    fn the_least_disturbed_half_pools_the_groups_with_the_lowest_medians() {
        let quiet = vec![1.0; 50];
        let mut quiet_with_tail = vec![1.0; 45];
        quiet_with_tail.extend([3.0; 5]);
        let busy = vec![2.0; 50];
        let groups = vec![busy.clone(), quiet, busy, quiet_with_tail, Vec::new()];
        // Four non-empty groups: the two with median 1 are pooled, and the
        // pool of 100 has its 95th percentile just inside the tail of five.
        let (p50, p95) = least_disturbed_half(&groups).unwrap();
        assert_eq!(p50, 1.0);
        assert!(p95 > 1.0 && p95 <= 3.0, "{p95}");
        assert_eq!(least_disturbed_half(&[Vec::new()]), None);
        assert_eq!(least_disturbed_half(&[vec![4.0]]), Some((4.0, 4.0)));
    }

    #[test]
    fn slice_rates_confine_a_stall_to_its_slice() {
        // 100 ops/s for four seconds, except nothing completes in second 2.
        let mut completions = Vec::new();
        for i in 0..400u64 {
            if !(200..300).contains(&i) {
                completions.push(Duration::from_millis(i * 10 + 5));
            }
        }
        let rates = slice_rates(&completions, Duration::from_secs(4), 4);
        assert_eq!(rates, [100.0, 100.0, 0.0, 100.0]);
    }
}
