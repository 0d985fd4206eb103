//! The result line, order statistics, and host memory.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one benchmark run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted: measured tasks (slices of a simulation, or
    /// campaign seeds).
    pub attempted: u64,
    /// Attempted operations whose output check missed.
    pub failed: u64,
    /// One line per missed output check.
    pub failures: Vec<String>,
    /// The metrics, in emission order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a missed check that invalidates `tasks` operations.
    pub fn fail(&mut self, tasks: u64, what: String) {
        self.failed += tasks.max(1);
        self.failures.push(what);
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The single-line JSON result. A non-finite value (which only a
    /// broken measurement can produce) is written as `null` and makes the
    /// run incorrect, so it can never pass as a number.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct() && finite,
            self.attempted.max(1),
            self.failed.min(self.attempted.max(1)),
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_marks_non_finite_values_incorrect() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("a", 1.5, "ms");
        assert!(o
            .to_json()
            .starts_with("{\"correct\": true, \"attempted\": 3"));
        assert!(o
            .to_json()
            .contains("\"a\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        o.metric("b", f64::NAN, "ms");
        assert!(o.to_json().starts_with("{\"correct\": false"));
    }
}
