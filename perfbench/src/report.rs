//! Metric collection, summary statistics and the result line.

use std::time::Duration;

/// Percentile `p` (0–100) of `values`, interpolating linearly between the
/// closest ranks; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one workload run reports.
pub struct Report {
    workload: String,
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problem(format!("metric {name} is not finite"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Counts one checked operation, failing it with `outcome`'s message.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.note(e);
        }
    }

    /// A failed run-level condition (not an operation): the run is wrong.
    pub fn problem(&mut self, msg: String) {
        self.note(msg.clone());
        self.problems.push(msg);
    }

    fn note(&self, msg: String) {
        eprintln!("[{}] check failed: {msg}", self.workload);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Prints one `name value unit` line per metric, in declared order,
    /// then the result line, which leaves out the metrics named in
    /// `unbounded`. Returns whether every check passed.
    ///
    /// # Panics
    /// Panics unless every declared metric was added exactly once, with its
    /// declared unit, and nothing else was.
    pub fn print(&self, declared: &[(&str, &str)], unbounded: &[&str]) -> bool {
        assert_eq!(
            self.metrics.len(),
            declared.len(),
            "one value per declared metric"
        );
        let ordered: Vec<(&str, f64, &str)> = declared
            .iter()
            .map(|&(name, unit)| {
                let found: Vec<_> = self.metrics.iter().filter(|m| m.0 == name).collect();
                assert_eq!(found.len(), 1, "metric {name} must be reported once");
                assert_eq!(found[0].2, unit, "metric {name} has unit {unit}");
                (name, found[0].1, unit)
            })
            .collect();
        for (name, value, unit) in &ordered {
            println!(
                "{:<14} {:<42} {:>16.6} {}",
                self.workload, name, value, unit
            );
        }
        let error_rate = ratio(self.failed as f64, self.attempted as f64);
        println!(
            "{:<14} {:<42} {:>16.6} ratio",
            self.workload, "error_rate", error_rate
        );
        let body: Vec<String> = ordered
            .iter()
            .filter(|(name, _, _)| !unbounded.contains(name))
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        self.correct()
    }
}
