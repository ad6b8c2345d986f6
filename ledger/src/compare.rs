//! `ledger compare <a.json> <b.json>`: applies the bounds of
//! `BENCHMARK.json` to two sets of runs, one row per metric and workload.

use std::collections::BTreeMap;
use std::path::Path;

use ndss::json::Json;

use crate::adapter::Result;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either set is wider than the bound, so the
    /// medians cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `(higher is better, bound)` per end-to-end metric.
pub type Bounds = BTreeMap<String, (bool, f64)>;

pub fn bounds_from(benchmark_json: &str) -> Result<Bounds> {
    let doc = Json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut bounds = Bounds::new();
    for m in list {
        let field = |key: &str| {
            m.get(key)
                .ok_or_else(|| format!("end_to_end entry without {key}"))
        };
        let name = field("name")?.as_str().ok_or("name is not a string")?;
        let better = field("better")?.as_str().ok_or("better is not a string")?;
        let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
        bounds.insert(name.to_string(), (better == "higher", bound));
    }
    Ok(bounds)
}

/// Values per `(workload, metric)` of the untraced runs in a results file.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

pub fn samples_from(results_json: &str) -> Result<Samples> {
    let doc = Json::parse(results_json)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("results file has no runs list")?;
    let mut samples = Samples::new();
    for run in runs {
        if run.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let Some(Json::Object(metrics)) = run.get("metrics") else {
            return Err("run without metrics".into());
        };
        for (name, value) in metrics {
            let value = value
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name} has no numeric value"))?;
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

/// One side of a row: median, quartiles and how many runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub runs: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(values: &[f64]) -> Side {
        let median = stats::median(values);
        let (q1, q3) = if values.len() >= 2 {
            let [q1, _, q3] = stats::quartiles(values);
            (q1, q3)
        } else {
            (median, median)
        };
        Side {
            runs: values.len(),
            median,
            q1,
            q3,
        }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median (negative
/// when it is better).
pub fn worsening(a: &Side, b: &Side, higher_is_better: bool) -> f64 {
    if a.median == 0.0 {
        return 0.0;
    }
    let change = (b.median - a.median) / a.median.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(a: &Side, b: &Side, higher_is_better: bool, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worsening(a, b, higher_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints one row per bounded metric and workload; returns how many rows
/// regressed and how many are unresolved.
pub fn compare(bounds: &Bounds, a: &Samples, b: &Samples) -> (usize, usize) {
    println!(
        "{:<18} {:<26} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "worse%", "a iqr%", "b iqr%", "bound%"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for ((workload, metric), a_values) in a {
        let (Some(&(higher, bound)), Some(b_values)) = (
            bounds.get(metric),
            b.get(&(workload.clone(), metric.clone())),
        ) else {
            continue;
        };
        let (sa, sb) = (Side::of(a_values), Side::of(b_values));
        let v = verdict(&sa, &sb, higher, bound);
        regressed += (v == Verdict::Regressed) as usize;
        unresolved += (v == Verdict::Unresolved) as usize;
        println!(
            "{workload:<18} {metric:<26} {:>12.4} {:>12.4} {:>8.2} {:>7.2} {:>7.2} {:>6.1}  {} (n={}/{}, q1..q3 {:.4}..{:.4} / {:.4}..{:.4})",
            sa.median,
            sb.median,
            100.0 * worsening(&sa, &sb, higher),
            100.0 * sa.spread(),
            100.0 * sb.spread(),
            100.0 * bound,
            v.as_str(),
            sa.runs,
            sb.runs,
            sa.q1,
            sa.q3,
            sb.q1,
            sb.q3,
        );
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    (regressed, unresolved)
}

pub fn compare_files(benchmark: &Path, a: &Path, b: &Path) -> Result<(usize, usize)> {
    let bounds = bounds_from(&std::fs::read_to_string(benchmark)?)?;
    let a = samples_from(&std::fs::read_to_string(a)?)?;
    let b = samples_from(&std::fs::read_to_string(b)?)?;
    Ok(compare(&bounds, &a, &b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side::of(values)
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = side(&[100.0, 101.0, 99.0, 100.0]);
        // Lower is better: 4 % slower is inside a 7 % bound, 10 % is not.
        assert_eq!(
            verdict(&steady, &side(&[104.0, 104.5, 103.5, 104.0]), false, 0.07),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady, &side(&[110.0, 110.5, 109.5, 110.0]), false, 0.07),
            Verdict::Regressed
        );
        // Higher is better: the same rise is an improvement.
        assert_eq!(
            verdict(&steady, &side(&[110.0, 110.5, 109.5, 110.0]), true, 0.07),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady, &side(&[90.0, 90.5, 89.5, 90.0]), true, 0.07),
            Verdict::Regressed
        );
        // A set noisier than the bound resolves nothing.
        let noisy = side(&[80.0, 100.0, 120.0, 100.0]);
        assert_eq!(verdict(&noisy, &steady, false, 0.07), Verdict::Unresolved);
        assert_eq!(verdict(&steady, &noisy, false, 0.07), Verdict::Unresolved);
        // One run per side: no spread to speak of, medians decide.
        assert_eq!(
            verdict(&side(&[100.0]), &side(&[120.0]), false, 0.07),
            Verdict::Regressed
        );
    }

    #[test]
    fn bounds_and_samples_are_read_from_their_files() {
        let bounds = bounds_from(&crate::spec::benchmark_json()).unwrap();
        assert_eq!(bounds.len(), crate::spec::END_TO_END.len());
        assert!(bounds["ops_per_s"].0 && !bounds["setup_s"].0);

        let results = r#"{"runs":[
            {"workload":"w","trace":0,"metrics":{"ops_per_s":{"value":10.0,"unit":"1/s"}}},
            {"workload":"w","trace":0,"metrics":{"ops_per_s":{"value":12,"unit":"1/s"}}},
            {"workload":"w","trace":1,"metrics":{"hash.sketch_ns_per_token":{"value":3.0,"unit":"ns"}}}
        ]}"#;
        let samples = samples_from(results).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(
            samples[&("w".to_string(), "ops_per_s".to_string())],
            vec![10.0, 12.0]
        );

        let (regressed, unresolved) = compare(&bounds, &samples, &samples);
        assert_eq!((regressed, unresolved), (0, 1), "10 and 12 are 18 % apart");
    }
}
