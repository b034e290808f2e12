//! Layer-attributed end-to-end benchmark of the Ascend analysis stack.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench --spread <k> [--workload <name>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run drives one workload through the public entry points of
//! `ascend-pipeline` for `--seconds`, checks every result against the
//! reference engine, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones of [`metrics::END_TO_END`]; with
//! `--trace 1` the run spends part of its time on the workload (for the
//! cache hit rate) and the rest on the layer probe, and prints
//! [`metrics::PER_LAYER`]. `--spread k` runs each workload `k` times
//! with seeds `1..=k` and prints every metric's median and quartile
//! distance. See `README.md` for the workloads and what each metric
//! should move.

mod check;
mod metrics;
mod pangu;
mod probe;
mod store;

use ascend_arch::ChipSpec;
use metrics::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` declares them.
pub const WORKLOADS: [&str; 2] = ["pangu_cold", "store_rewarm"];

/// Share of a traced run spent on the workload itself; the probe gets
/// the rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.4;

/// What every workload needs: the chip, the seed, and a scratch
/// directory inside the checkout (removed when the run ends).
pub struct Ctx {
    pub chip: ChipSpec,
    pub seed: u64,
    pub scratch: PathBuf,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spread: Option<usize>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("e2ebench: {problem}");
    eprintln!("usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!("       e2ebench --spread <k> [--workload <name>] [--seconds <s>] [--trace <0|1>]");
    eprintln!("workloads: {}", WORKLOADS.join(", "));
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10.0, trace: false, spread: None };
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let bad = || format!("malformed {} {value:?}", argv[i]);
        match argv[i].as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                args.workload = Some(value.clone());
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spread" => {
                args.spread = Some(value.parse().ok().filter(|&k| k >= 2).ok_or_else(bad)?)
            }
            _ => return Err(bad()),
        }
        i += 2;
    }
    Ok(args)
}

/// Runs one workload's loop for `budget`; returns its cache hit rate.
fn run_workload(name: &str, ctx: &Ctx, budget: Duration, report: &mut Report) -> f64 {
    match name {
        "pangu_cold" => pangu::run(ctx, budget, report),
        "store_rewarm" => store::run(ctx, budget, report),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

fn measure(name: &str, args: &Args, ctx: &Ctx) -> Report {
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut report = Report::default();
    if !args.trace {
        run_workload(name, ctx, seconds, &mut report);
        println!("each timed metric reports the median of its windows:");
        report.print_windows();
        return report;
    }
    // The workload's own loop runs untraced, into a report of its own:
    // the traced run prints its figures only to show the tracing
    // overhead.
    let mut workload = Report::default();
    let hit_rate = run_workload(name, ctx, seconds.mul_f64(TRACED_WORKLOAD_SHARE), &mut workload);
    report.attempted = workload.attempted;
    report.failed = workload.failed;
    report.violations = std::mem::take(&mut workload.violations);
    println!("workload figures of this traced run (untraced loop):");
    for def in metrics::END_TO_END {
        if let Some(value) = workload.value(def) {
            println!("  {:<18} {value:.6} {}", def.name, def.unit);
        }
    }
    report.set("pipeline.cache_hit_rate", hit_rate);
    let probe = probe::run(
        ctx,
        &pangu::stream(),
        seconds.mul_f64(1.0 - TRACED_WORKLOAD_SHARE),
        &mut report,
    );
    let overhead_ms = report.metrics.get("pipeline.overhead_ms").copied().unwrap_or(0.0);
    println!(
        "traced pass {:.4} ms = stage self times {:.4} ms + pipeline.overhead {:.4} ms",
        probe.traced_pass_s * 1e3,
        probe.stages_s * 1e3,
        overhead_ms
    );
    // The untraced loop's typical pass: the median of its windows.
    let untraced = workload.windows.get("pass_ms_p50").map(|windows| metrics::median(windows));
    if let (Some(untraced), "pangu_cold") = (untraced, name) {
        println!(
            "tracing overhead: traced pass p50 {:.4} ms vs untraced pass p50 {untraced:.4} ms \
             ({:+.1}%)",
            probe.traced_pass_s * 1e3,
            (probe.traced_pass_s * 1e3 / untraced - 1.0) * 100.0
        );
    }
    report
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    // Cluster shards are this binary re-executed; in the ordinary
    // invocation this returns at once.
    ascend_pipeline::run_worker_if_requested();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    if let Some(k) = args.spread {
        return spread(&args, k);
    }
    let Some(name) = args.workload.clone() else {
        return usage("--workload is required");
    };
    let scratch = Scratch(
        PathBuf::from(".bench_build").join("e2ebench-scratch").join(std::process::id().to_string()),
    );
    let ctx = Ctx { chip: ChipSpec::training(), seed: args.seed, scratch: scratch.0.clone() };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "e2ebench {name}: seed {} seconds {} trace {} on {} cores",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores
    );
    let (steal_before, started) = (metrics::host_steal_ticks(), std::time::Instant::now());
    let report = measure(&name, &args, &ctx);
    drop(scratch);
    if let (Some(before), Some(after)) = (steal_before, metrics::host_steal_ticks()) {
        // `/proc/stat` counts in USER_HZ, 100 ticks a second on Linux.
        let cpu_ticks = started.elapsed().as_secs_f64() * 100.0 * cores as f64;
        println!(
            "host steal: {:.1}% of this box's CPU time went to other guests during the run",
            after.saturating_sub(before) as f64 / cpu_ticks * 100.0
        );
    }
    match report.to_json(args.trace) {
        Ok(line) => {
            println!("{line}");
            if report.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("{} correctness violation(s)", report.violations.len());
                ExitCode::FAILURE
            }
        }
        Err(problem) => {
            eprintln!("e2ebench: no result: {problem}");
            for violation in &report.violations {
                eprintln!("  {violation}");
            }
            ExitCode::FAILURE
        }
    }
}

/// `--spread k`: runs each selected workload `k` times (seeds `1..=k`)
/// in child processes and prints every metric's median and quartile
/// distance, the figures `BENCHMARK.json`'s bounds are set from.
fn spread(args: &Args, k: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("e2ebench: cannot locate this executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let selected: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut ok = true;
    for name in selected {
        let mut values: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
        let mut failed_shares = Vec::new();
        for seed in 1..=k {
            let output = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace"])
                .arg(if args.trace { "1" } else { "0" })
                .stderr(std::process::Stdio::inherit())
                .output();
            let text = output
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
                .unwrap_or_default();
            if let Some(steal) = text.lines().find(|line| line.starts_with("host steal:")) {
                println!("{name} seed {seed}: {steal}");
            }
            let parsed = text
                .lines()
                .last()
                .and_then(|line| serde_json::from_str::<serde_json::Value>(line).ok());
            let Some(result) = parsed else {
                println!("{name} seed {seed}: run failed");
                ok = false;
                continue;
            };
            let attempted = result["attempted"].as_f64().unwrap_or(0.0);
            failed_shares.push(result["failed"].as_f64().unwrap_or(0.0) / attempted.max(1.0));
            if let Some(metrics) = result["metrics"].as_object() {
                for (metric, entry) in metrics {
                    if let Some(value) = entry["value"].as_f64() {
                        values.entry(metric.clone()).or_default().push(value);
                    }
                }
            }
        }
        println!("{name}: {k} runs, failed shares {failed_shares:?}");
        for (metric, samples) in &values {
            let runs: Vec<String> = samples.iter().map(|v| format!("{v:.4e}")).collect();
            println!("  {metric:<28} {}  [{}]", metrics::spread_line(samples), runs.join(" "));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_printed_metric_is_declared_with_its_unit() {
        let doc = declared();
        for (key, table) in [("end_to_end", metrics::END_TO_END), ("per_layer", metrics::PER_LAYER)]
        {
            let entries = doc[key].as_array().expect("metric list");
            assert_eq!(entries.len(), table.len(), "{key}: declared and printed counts differ");
            for def in table {
                assert!(valid_name(def.name), "bad metric name {}", def.name);
                let entry = entries
                    .iter()
                    .find(|e| e["name"].as_str() == Some(def.name))
                    .unwrap_or_else(|| panic!("{} is printed but not declared", def.name));
                assert_eq!(entry["unit"].as_str(), Some(def.unit), "{} unit", def.name);
            }
        }
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(WORKLOADS.iter().all(|name| valid_name(name)));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse(&args("--workload pangu_cold --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }
}
