//! Metrics, run facts and the two output forms: readable lines for people
//! and the final one-line JSON object.

use std::fmt::Write as _;

use crate::stats;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// Anything a reader needs to interpret it (the tail percentile, …).
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Median of `ms` as a metric; `NaN` when there is no sample.
pub fn median_metric(name: &str, unit: &'static str, values: &[f64]) -> Metric {
    Metric::new(
        name,
        unit,
        stats::median(values).unwrap_or(f64::NAN),
        values.len(),
    )
    .note("median")
}

/// Tail of `values` under the ten-beyond rule; `NaN` when there are too
/// few samples.
pub fn tail_metric(name: &str, unit: &'static str, values: &[f64]) -> Metric {
    match stats::tail(values) {
        Some((pct, v)) => Metric::new(name, unit, v, values.len()).note(format!("p{pct}")),
        None => Metric::new(name, unit, f64::NAN, values.len()).note(format!(
            "refused: fewer than {} samples",
            stats::MIN_TAIL_SAMPLES
        )),
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// End-to-end metrics under the names of the benchmark's definition.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Run facts: seed, sizes, thread counts, flush policy, …
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what.into());
        }
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    pub fn e2e(&self, name: &str) -> Option<&Metric> {
        self.e2e.iter().find(|m| m.name == name)
    }
}

/// `value` as JSON: every digit of a finite number, `null` otherwise.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One metric as a readable line.
pub fn line(m: &Metric) -> String {
    let mut s = format!(
        "  {:<34} {:>14.6} {:<6} n={}",
        m.name, m.value, m.unit, m.samples
    );
    if !m.note.is_empty() {
        let _ = write!(s, "  ({})", m.note);
    }
    s
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit_and_escapes_names() {
        let m = [
            Metric::new("a_ms", "ms", 1.203_456_789, 3),
            Metric::new("b\"q", "1/s", f64::NAN, 0),
        ];
        assert_eq!(
            json(true, 4, 0, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}, \
             \"b\\\"q\": {\"value\": null, \"unit\": \"1/s\"}}}"
        );
    }
}
