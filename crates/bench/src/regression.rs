//! Tolerance-aware comparison of benchmark result files — the library
//! behind the `bench-regression` CI gate.
//!
//! The committed `BENCH_*.json` files at the repo root are the performance
//! contract of this tree: they hold the throughput and speedup numbers the
//! current implementation is known to reach. The gate re-measures a fresh
//! JSON on the PR head (`cargo bench --bench pipeline -- --quick --out …`)
//! and fails the build when any **higher-is-better** metric dropped by
//! more than the tolerance (20% by default — wide enough to absorb CI
//! scheduler noise, narrow enough to catch a real pipeline regression).
//!
//! Metric selection is by key shape, so new benchmarks join the gate by
//! just writing JSON: any numeric leaf whose dotted path ends in
//! `*_per_sec` (absolute throughput) or `speedup` (a within-run ratio,
//! machine-independent by construction) is compared; latency-style leaves
//! (`*_us_per_txn`, `*_ns_per_op`) are reported but never gated, since
//! lower is better there and they are implied by the throughputs anyway.
//! A metric present in the baseline but missing from the current run fails
//! the gate too — a rename must not silently disable its check.

use serde::{Content, DeError, Deserialize};
use std::collections::BTreeMap;

/// A parsed JSON tree, kept as the shim's raw [`Content`] so benchmark
/// files of any shape can be flattened without a schema.
struct RawJson(Content);

impl Deserialize for RawJson {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(RawJson(content.clone()))
    }
}

/// One metric compared between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Dotted path of the numeric leaf, e.g. `levels.2.txn_per_sec`.
    pub metric: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub current: f64,
}

impl MetricDelta {
    /// current / baseline; > 1 is an improvement.
    pub fn ratio(&self) -> f64 {
        if self.baseline == 0.0 {
            f64::INFINITY
        } else {
            self.current / self.baseline
        }
    }

    /// True when the drop exceeds `tolerance` (0.2 = fail below 80% of
    /// the baseline).
    pub fn regressed(&self, tolerance: f64) -> bool {
        self.ratio() < 1.0 - tolerance
    }
}

/// The outcome of comparing one baseline file against one current file.
#[derive(Debug, Clone, Default)]
pub struct RegressionReport {
    /// Every gated metric found in both files.
    pub compared: Vec<MetricDelta>,
    /// The subset of [`RegressionReport::compared`] that dropped beyond
    /// tolerance.
    pub regressions: Vec<MetricDelta>,
    /// Gated metrics present in the baseline but absent from the current
    /// run (also a failure: a rename must not disable its check).
    pub missing: Vec<String>,
}

impl RegressionReport {
    /// True when no gated metric regressed or went missing.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// True for dotted paths whose value is gated (higher is better).
fn is_gated(path: &str) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    leaf.ends_with("per_sec") || leaf == "speedup"
}

fn flatten(content: &Content, prefix: &str, out: &mut BTreeMap<String, f64>) {
    let join = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    match content {
        Content::I64(v) => {
            out.insert(prefix.to_string(), *v as f64);
        }
        Content::U64(v) => {
            out.insert(prefix.to_string(), *v as f64);
        }
        Content::F64(v) => {
            out.insert(prefix.to_string(), *v);
        }
        Content::Map(entries) => {
            for (key, value) in entries {
                flatten(value, &join(key), out);
            }
        }
        Content::Seq(items) => {
            for (index, value) in items.iter().enumerate() {
                flatten(value, &join(&index.to_string()), out);
            }
        }
        Content::Null | Content::Bool(_) | Content::Str(_) => {}
    }
}

/// Flattens a benchmark JSON file into dotted-path → numeric-leaf pairs
/// (every number, gated or not — callers filter).
pub fn numeric_leaves(json: &str) -> Result<BTreeMap<String, f64>, String> {
    let raw: RawJson =
        serde_json::from_str(json).map_err(|e| format!("invalid benchmark JSON: {e}"))?;
    let mut out = BTreeMap::new();
    flatten(&raw.0, "", &mut out);
    Ok(out)
}

/// Compares two benchmark JSON documents, gating every higher-is-better
/// metric at the given drop tolerance.
pub fn compare(
    baseline_json: &str,
    current_json: &str,
    tolerance: f64,
) -> Result<RegressionReport, String> {
    let baseline = numeric_leaves(baseline_json)?;
    let current = numeric_leaves(current_json)?;
    let mut report = RegressionReport::default();
    for (metric, baseline_value) in baseline {
        if !is_gated(&metric) {
            continue;
        }
        match current.get(&metric) {
            None => report.missing.push(metric),
            Some(current_value) => {
                let delta = MetricDelta {
                    metric,
                    baseline: baseline_value,
                    current: *current_value,
                };
                if delta.regressed(tolerance) {
                    report.regressions.push(delta.clone());
                }
                report.compared.push(delta);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
        "config": {"threads": 4, "quick": false},
        "lock": {"baseline_ops_per_sec": 1000.0, "speedup": 2.0},
        "levels": [
            {"clients": 64, "txn_per_sec": 500.0, "us_per_txn": 2000.0}
        ]
    }"#;

    #[test]
    fn gates_per_sec_and_speedup_leaves_only() {
        assert!(is_gated("lock.baseline_ops_per_sec"));
        assert!(is_gated("levels.0.txn_per_sec"));
        assert!(is_gated("quorum.speedup"));
        assert!(!is_gated("levels.0.us_per_txn"));
        assert!(!is_gated("config.threads"));
        assert!(!is_gated("micro.ns_per_op"));
    }

    #[test]
    fn identical_files_pass() {
        let report = compare(BASELINE, BASELINE, 0.2).unwrap();
        assert!(report.passed());
        assert_eq!(report.compared.len(), 3);
        // Config counters and latency leaves are not gated.
        assert!(report.compared.iter().all(|d| is_gated(&d.metric)));
    }

    #[test]
    fn a_drop_beyond_tolerance_fails() {
        let current = BASELINE.replace("500.0", "390.0"); // -22%
        let report = compare(BASELINE, &current, 0.2).unwrap();
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "levels.0.txn_per_sec");
    }

    #[test]
    fn a_drop_within_tolerance_passes() {
        let current = BASELINE.replace("500.0", "410.0"); // -18%
        let report = compare(BASELINE, &current, 0.2).unwrap();
        assert!(report.passed(), "regressions: {:?}", report.regressions);
    }

    #[test]
    fn latency_leaves_are_never_gated_even_when_worse() {
        let current = BASELINE.replace("2000.0", "9000.0");
        let report = compare(BASELINE, &current, 0.2).unwrap();
        assert!(report.passed());
    }

    #[test]
    fn a_missing_gated_metric_fails() {
        let current = BASELINE.replace("txn_per_sec", "renamed_txn_rate");
        let report = compare(BASELINE, &current, 0.2).unwrap();
        assert!(!report.passed());
        assert_eq!(report.missing, vec!["levels.0.txn_per_sec"]);
    }

    #[test]
    fn improvements_always_pass() {
        let current = BASELINE.replace("500.0", "5000.0");
        let report = compare(BASELINE, &current, 0.2).unwrap();
        assert!(report.passed());
    }

    #[test]
    fn invalid_json_is_an_error() {
        assert!(compare("{", BASELINE, 0.2).is_err());
        assert!(compare(BASELINE, "not json", 0.2).is_err());
    }

    #[test]
    fn zero_baseline_never_divides_by_zero() {
        let baseline = r#"{"x_per_sec": 0.0}"#;
        let current = r#"{"x_per_sec": 10.0}"#;
        let report = compare(baseline, current, 0.2).unwrap();
        assert!(report.passed());
    }
}
