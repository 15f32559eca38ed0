//! What a run reports: named metrics with units, correctness checks,
//! and the one-line JSON result the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// One correctness check and what it saw.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The observed values behind the verdict.
    pub detail: String,
}

/// Per-layer readings by name (value, unit).
pub type Layers = BTreeMap<&'static str, (f64, &'static str)>;

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests (or operations) the run attempted.
    pub attempted: u64,
    /// Of those, how many failed or were refused.
    pub failed: u64,
    /// Correctness checks, all of which must hold.
    pub checks: Vec<Check>,
    /// Measurement validity flags: printed, but a run flagged invalid
    /// (a generator the host kept from its schedule) still answered
    /// correctly and does not fail.
    pub validity: Vec<Check>,
    /// End-to-end metrics: the result's metrics in an untraced run.
    pub e2e: Vec<Metric>,
    /// Further end-to-end figures printed alongside (workload-specific
    /// ones, and the percentile a tail figure stands for).
    pub info: Vec<Metric>,
    /// Per-layer metrics: the result's metrics in a traced run.
    pub layers: Layers,
}

impl Report {
    /// Records a check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    /// The end-to-end metric `name` (NaN when absent).
    pub fn e2e_value(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Formats a finite metric value as JSON (non-finite values, which JSON
/// cannot carry, become `null` and fail the run upstream).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let m = [
            Metric {
                name: "p50_ms",
                value: 1.25,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            },
        ];
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_json(false, 1, 1, &[]).ends_with("\"metrics\": {}}"));
        assert_eq!(json_number(f64::NAN), "null");
    }
}
