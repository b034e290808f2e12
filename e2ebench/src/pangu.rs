//! `pangu_cold`: one client in a closed loop runs `AnalysisPipeline::run`
//! over the PanGu-α stream with the memory cache cleared before every
//! pass and no store attached, so every pass takes the miss path (build,
//! validate, engine with trace collection, profile, analyze). Each cold
//! pass is followed by a warm replay of the same stream from the memory
//! cache.

use crate::check::Expected;
use crate::metrics::{median, ms, peak_rss_mb, windows, Report};
use crate::Ctx;
use ascend_models::zoo;
use ascend_ops::Operator;
use ascend_pipeline::{AnalysisPipeline, PipelineResult};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline constructions timed per window for `setup_s`.
const SETUP_REPS: usize = 100;

/// The PanGu-α operator stream: the model's 9 distinct operators.
pub fn stream() -> Vec<Box<dyn Operator>> {
    zoo::pangu_alpha()
        .ops()
        .iter()
        .map(|inv| inv.operator().with_flags_dyn(inv.operator().flags()))
        .collect()
}

/// The reference results of [`stream`].
pub fn expected(ctx: &Ctx, ops: &[Box<dyn Operator>]) -> Result<Vec<Expected>, String> {
    ops.iter().map(|op| Expected::compute(op.as_ref(), &ctx.chip)).collect()
}

/// Mean serialized size of `results` (what a store record or a reply
/// frame carries).
pub fn mean_json_len<'a>(results: impl Iterator<Item = &'a PipelineResult>) -> f64 {
    let sizes: Vec<usize> =
        results.map(|r| serde_json::to_string(r).map_or(0, |json| json.len())).collect();
    sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64
}

/// Runs cold passes for `budget` and fills the end-to-end metrics.
/// Returns the pipeline's cache hit rate over the last pass.
pub fn run(ctx: &Ctx, budget: Duration, report: &mut Report) -> f64 {
    let ops = stream();
    let expected = match expected(ctx, &ops) {
        Ok(expected) => expected,
        Err(err) => {
            report.violation(format!("reference computation failed: {err}"));
            return 0.0;
        }
    };
    let pipeline = AnalysisPipeline::new(ctx.chip.clone());
    let mut last = Vec::new();
    let mut passes = 0;
    let (count, length) = windows(budget);
    for _ in 0..count {
        let setups: Vec<f64> = (0..SETUP_REPS)
            .map(|_| {
                let start = Instant::now();
                let pipeline = black_box(AnalysisPipeline::new(ctx.chip.clone()));
                let elapsed = start.elapsed().as_secs_f64();
                drop(pipeline);
                elapsed
            })
            .collect();
        let (mut cold, mut warm, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while cold.is_empty() || start.elapsed() < length {
            pipeline.reset();
            let pass = Instant::now();
            let results: Vec<_> = ops
                .iter()
                .map(|op| {
                    let begun = Instant::now();
                    let result = pipeline.run(op.as_ref());
                    latencies.push(begun.elapsed().as_secs_f64());
                    result
                })
                .collect();
            cold.push(pass.elapsed().as_secs_f64());
            let replay = Instant::now();
            let hits: Vec<_> = ops.iter().map(|op| pipeline.run(op.as_ref())).collect();
            warm.push(replay.elapsed().as_secs_f64());

            report.attempted += 2 * ops.len() as u64;
            last.clear();
            for ((result, hit), expected) in results.into_iter().zip(hits).zip(&expected) {
                match (result, hit) {
                    (Ok(result), Ok(hit)) => {
                        if let Err(err) = expected.check(&result) {
                            report.violation(err);
                        }
                        if !Arc::ptr_eq(&result, &hit) {
                            report.violation(format!(
                                "{}: replay was not a cache hit",
                                result.kernel_name
                            ));
                        }
                        last.push(result);
                    }
                    (result, hit) => {
                        report.failed += u64::from(result.is_err()) + u64::from(hit.is_err());
                    }
                }
            }
        }
        passes += cold.len();
        report.observe("setup_s", median(&setups));
        report.observe("pass_ms_p50", ms(&cold, 50.0));
        report.observe("pass_ms_p95", ms(&cold, 95.0));
        report.observe("latency_ms_p50", ms(&latencies, 50.0));
        report.observe("latency_ms_p99", ms(&latencies, 99.0));
        report.observe("ops_per_s", (cold.len() * ops.len()) as f64 / cold.iter().sum::<f64>());
        report.observe("populate_s", median(&cold));
        report.observe("rewarm_s", median(&warm));
    }
    println!(
        "phase cold_passes: attempted {} failed {} in {passes} passes over {count} windows",
        report.attempted, report.failed
    );
    let stats = pipeline.cache_stats();
    report.set("bytes_per_result", mean_json_len(last.iter().map(|r| &**r)));
    report.set("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0));
    stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
}
