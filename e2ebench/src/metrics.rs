//! The metric registry and the statistics every workload reports with.
//!
//! The two tables below are the benchmark's contract: `BENCHMARK.json`
//! declares exactly these names and units (a unit test keeps them in
//! step), and [`Report::to_json`] refuses to print a metric that is not
//! declared or to omit one that is.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Duration;

/// Length of one measurement window.
pub const WINDOW: Duration = Duration::from_secs(2);

/// Splits `budget` into whole windows of about [`WINDOW`] (at least
/// one): their count and length.
pub fn windows(budget: Duration) -> (u32, Duration) {
    let count = (budget.as_secs_f64() / WINDOW.as_secs_f64()).round().max(1.0) as u32;
    (count, budget / count)
}

/// One declared metric: its name and its unit.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Printed by an untraced run (`--trace 0`) of every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("pass_ms_p50", "ms"),
    m("pass_ms_p95", "ms"),
    m("latency_ms_p50", "ms"),
    m("latency_ms_p99", "ms"),
    m("ops_per_s", "1/s"),
    m("populate_s", "s"),
    m("rewarm_s", "s"),
    m("bytes_per_result", "B"),
    m("peak_rss_mb", "MB"),
];

/// Printed by a traced run (`--trace 1`) of every workload. The prefix
/// is the layer: the crate (or module) whose public function was timed.
pub const PER_LAYER: &[MetricDef] = &[
    m("ops.build_ms", "ms"),
    m("isa.validate_ms", "ms"),
    m("isa.validate_ns_per_event", "ns"),
    m("sim.engine_ms", "ms"),
    m("sim.engine_ns_per_event", "ns"),
    m("sim.sinks_ms", "ms"),
    m("sim.events_per_pass", "count"),
    m("profile.from_metrics_ms", "ms"),
    m("roofline.analyze_ms", "ms"),
    m("pipeline.overhead_ms", "ms"),
    m("pipeline.cache_hit_us", "us"),
    m("pipeline.cache_hit_rate", "ratio"),
    m("service.submit_us", "us"),
    m("service.wait_ms_p99", "ms"),
    m("codec.encode_ms", "ms"),
    m("codec.decode_ms", "ms"),
    m("store.put_ms", "ms"),
    m("store.open_ms", "ms"),
    m("store.get_ms", "ms"),
    m("transport.frame_us", "us"),
    m("cluster.round_trip_ms_p50", "ms"),
    m("cluster.respawns", "count"),
];

/// The declared table for a run mode.
pub fn declared(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one run measured: operation accounting, the verdict of every
/// correctness check, and the metric values by name.
///
/// A timed metric is observed once per window of the run (see
/// [`Report::observe`]); its reported value is the median of its
/// windows.
/// A metric that is no timing (a size, a count) is [`Report::set`]
/// directly.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness violation seen (empty means correct).
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-window values of the windowed metrics, in window order.
    pub windows: BTreeMap<&'static str, Vec<f64>>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records one window's value of a timed metric.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.windows.entry(name).or_default().push(value);
    }

    /// Records a failed correctness check; the run reports
    /// `"correct": false` and exits non-zero.
    pub fn violation(&mut self, message: impl Into<String>) {
        let message = message.into();
        if self.violations.len() < 16 {
            eprintln!("check failed: {message}");
        }
        self.violations.push(message);
    }

    /// The value a metric reports: set directly, or the median of its
    /// windows.
    pub fn value(&self, def: &MetricDef) -> Option<f64> {
        match self.metrics.get(def.name) {
            Some(value) => Some(*value),
            None => self.windows.get(def.name).map(|windows| median(windows)),
        }
    }

    /// One line per windowed metric: every window's value, so a run
    /// shows how far the host moved it.
    pub fn print_windows(&self) {
        for (name, values) in &self.windows {
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4e}")).collect();
            println!("  window {name:<18} {}", shown.join(" "));
        }
    }

    /// The result line: exactly the declared metrics of the mode, each
    /// with its unit.
    ///
    /// # Errors
    ///
    /// Names a metric that is undeclared, missing, or not finite.
    pub fn to_json(&self, trace: bool) -> Result<Value, String> {
        let table = declared(trace);
        for name in self.metrics.keys().chain(self.windows.keys()) {
            if !table.iter().any(|def| def.name == *name) {
                return Err(format!("metric {name} is not declared for this mode"));
            }
        }
        let mut metrics = BTreeMap::new();
        for def in table {
            let value =
                self.value(def).ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", def.name));
            }
            metrics.insert(def.name.to_string(), json!({ "value": value, "unit": def.unit }));
        }
        Ok(json!({
            "correct": self.violations.is_empty(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        }))
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The three quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which the benchmark's bounds
/// are judged by. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median and interquartile range of per-repetition samples, for the
/// human-readable spread lines.
pub fn spread_line(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => {
            let share = if q2 != 0.0 { (q3 - q1) / q2.abs() * 100.0 } else { 0.0 };
            format!("median {q2:.4e}  iqr {:.4e} ({share:.1}%)  n={}", q3 - q1, values.len())
        }
        None => format!("value {:.4e}  n={}", values.first().copied().unwrap_or(0.0), values.len()),
    }
}

/// Nearest-rank percentile of durations in milliseconds.
pub fn ms(values: &[f64], p: f64) -> f64 {
    percentile(values, p) * 1e3
}

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`), in clock ticks summed over all CPUs; `None` when
/// unreadable.
pub fn host_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of a process, in MB, from its
/// `/proc/<pid>/status`; `None` when unreadable.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn report_refuses_undeclared_and_missing_metrics() {
        let mut report = Report::default();
        for def in END_TO_END {
            report.set(def.name, 1.0);
        }
        assert!(report.to_json(false).is_ok());
        report.set("not.declared", 1.0);
        assert!(report.to_json(false).is_err());
        let mut partial = Report::default();
        partial.set("setup_s", 1.0);
        assert!(partial.to_json(false).is_err());
    }

    #[test]
    fn a_budget_splits_into_whole_windows() {
        assert_eq!(windows(Duration::from_secs(36)), (18, Duration::from_secs(2)));
        assert_eq!(windows(Duration::from_millis(500)), (1, Duration::from_millis(500)));
    }

    #[test]
    fn a_windowed_metric_reports_its_median_window() {
        let mut report = Report::default();
        for value in [3.0, 2.0, 9.0] {
            report.observe("pass_ms_p50", value);
        }
        let def = |name| END_TO_END.iter().find(|def| def.name == name).unwrap();
        assert_eq!(report.value(def("pass_ms_p50")), Some(3.0));
        assert_eq!(report.value(def("setup_s")), None);
    }
}
