//! What a run prints: every metric by name with unit and sample count, and
//! as its last line the one JSON object the driver reads.

use std::collections::BTreeMap;

use ndss::json::Json;

use crate::spec;

/// One measured value and how many samples stand behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: String,
    pub samples: usize,
}

/// Metrics of one run, by name. Units come from the spec tables, so a
/// metric the spec does not know cannot be reported.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, Value>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    spec::END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            spec::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
        })
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not in the spec"));
        self.values.insert(
            name.to_string(),
            Value {
                value,
                unit: unit.to_string(),
                samples,
            },
        );
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The names this run must report: every end-to-end metric with
    /// tracing off, every per-layer metric with tracing on.
    pub fn expected_names(traced: bool) -> Vec<&'static str> {
        if traced {
            spec::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            spec::END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// Checks the output contract; `--smoke` checks nothing else.
    pub fn contract_violations(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let expected = Self::expected_names(self.traced);
        for name in &expected {
            match self.metrics.values.get(*name) {
                None => problems.push(format!("{name}: missing")),
                Some(v) if !v.value.is_finite() => problems.push(format!("{name}: not a number")),
                Some(v) if v.unit.is_empty() => problems.push(format!("{name}: no unit")),
                Some(v) if !self.traced && v.value == 0.0 => {
                    problems.push(format!("{name}: an end-to-end metric may not be 0"))
                }
                Some(_) => {}
            }
        }
        for name in self.metrics.values.keys() {
            if !expected.contains(&name.as_str()) {
                problems.push(format!(
                    "{name}: not expected with trace {}",
                    self.traced as u8
                ));
            }
        }
        if self.attempted == 0 {
            problems.push("attempted is 0".to_string());
        }
        problems
    }

    /// The last line of standard output, exactly as the driver reads it.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .values
            .iter()
            .map(|(name, v)| {
                (
                    name.clone(),
                    Json::Object(vec![
                        ("value".to_string(), Json::Float(v.value)),
                        ("unit".to_string(), Json::Str(v.unit.clone())),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::UInt(self.attempted)),
            ("failed".to_string(), Json::UInt(self.failed)),
            ("metrics".to_string(), Json::Object(metrics)),
        ])
        .to_string_compact()
    }

    /// One line per metric for people.
    pub fn print_table(&self) {
        println!(
            "-- {} seed {} trace {} : attempted {} failed {} --",
            self.workload, self.seed, self.traced as u8, self.attempted, self.failed
        );
        for (name, v) in &self.metrics.values {
            println!("{name:<44} {:>16.4} {:<8} n={}", v.value, v.unit, v.samples);
        }
    }
}

/// Host facts printed before the metrics and stored with every results file.
pub fn host_json(scratch: &std::path::Path) -> Json {
    use crate::host;
    Json::Object(vec![
        ("nproc".to_string(), Json::UInt(host::nproc() as u64)),
        ("cpu_flags".to_string(), Json::Str(host::cpu_flags())),
        ("scratch_fs".to_string(), Json::Str(host::fs_type(scratch))),
        (
            "commit".to_string(),
            Json::Str(host::commit(std::path::Path::new("."))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(traced: bool) -> RunResult {
        let mut metrics = Metrics::default();
        for name in RunResult::expected_names(traced) {
            metrics.set(name, 1.25, 10);
        }
        RunResult {
            workload: "search_novel".to_string(),
            seed: 3,
            traced,
            attempted: 100,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = full(false).result_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let Json::Object(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(100));
        let Json::Object(metrics) = doc.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.25));
    }

    #[test]
    fn contract_check_finds_missing_nan_zero_and_stray_metrics() {
        assert!(full(false).contract_violations().is_empty());
        assert!(full(true).contract_violations().is_empty());

        let mut r = full(false);
        r.metrics.values.remove("setup_s");
        r.metrics.set("ops_per_s", f64::NAN, 1);
        r.metrics.set("op_p50_us", 0.0, 1);
        r.metrics.set("hash.sketch_ns_per_token", 1.0, 1);
        let problems = r.contract_violations().join("\n");
        assert!(problems.contains("setup_s: missing"));
        assert!(problems.contains("ops_per_s: not a number"));
        assert!(problems.contains("op_p50_us: an end-to-end metric may not be 0"));
        assert!(problems.contains("hash.sketch_ns_per_token: not expected"));

        let mut failed = full(true);
        failed.failed = 2;
        assert!(!failed.correct());
        assert!(failed.result_line().starts_with("{\"correct\":false"));
    }

    #[test]
    #[should_panic(expected = "not in the spec")]
    fn unknown_metric_names_are_refused() {
        Metrics::default().set("made.up", 1.0, 1);
    }
}
