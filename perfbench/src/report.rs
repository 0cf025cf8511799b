//! The benchmark's result: operation counts, failures and named metrics,
//! printed for people and as the one-line JSON object that ends stdout.

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (packets, frames, city runs).
    pub attempted: usize,
    /// Operations whose output disagreed with ground truth.
    pub failed: usize,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Problems that make the run invalid without being an operation
    /// failure (a metric with no samples, for instance).
    pub errors: Vec<String>,
}

impl Report {
    /// Records a metric; a missing or non-finite value is an error.
    pub fn metric(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) if v.is_finite() => self.metrics.push(Metric {
                name: name.to_owned(),
                value: v,
                unit,
            }),
            _ => self
                .errors
                .push(format!("metric {name} has no finite value")),
        }
    }

    /// Whether every output was correct and every metric present.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The final stdout line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each value with all its digits.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Prints one human-readable result line.
pub fn line(name: &str, value: f64, unit: &str, detail: &str) {
    println!("  {name:<34} {value:>14.4} {unit:<8} {detail}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("latency_ms", Some(1.25), "ms");
        r.metric("rate_per_s", Some(400.0), "1/s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"rate_per_s\": {\"value\": 400, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn missing_values_and_failures_make_the_run_incorrect() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("x_ms", None, "ms");
        assert!(!r.correct());
        assert!(r.metrics.is_empty());
        let r = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        assert!(!r.correct());
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
