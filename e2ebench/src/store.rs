//! `store_rewarm`: an in-process pipeline over a `ResultStore` in its
//! default configuration (fsync after every put), in a fresh directory
//! for each cycle. *Populate* analyzes the PanGu-α stream cold and
//! persists every result; the store is then dropped, reopened (recovery
//! scan) and *rewarm* serves the same stream from disk.

use crate::metrics::{median, ms, peak_rss_mb, windows, Report};
use crate::pangu;
use crate::Ctx;
use ascend_pipeline::{AnalysisPipeline, ResultStore};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One store cycle's timings, in seconds.
struct Cycle {
    open: f64,
    populate: f64,
    rewarm: f64,
    total: f64,
    /// Memory-cache hits and lookups over the cycle's two pipelines.
    hits: u64,
    lookups: u64,
}

/// Runs whole cycles for `budget` and fills the end-to-end metrics.
/// Returns the memory-cache hit rate over all lookups (populate misses,
/// and rewarm lookups answered from disk, which count as hits).
pub fn run(ctx: &Ctx, budget: Duration, report: &mut Report) -> f64 {
    let ops = pangu::stream();
    let expected = match pangu::expected(ctx, &ops) {
        Ok(expected) => expected,
        Err(err) => {
            report.violation(format!("reference computation failed: {err}"));
            return 0.0;
        }
    };
    let context = AnalysisPipeline::new(ctx.chip.clone()).context();
    let n = ops.len() as u64;
    let mut cycle_count = 0;
    let mut bytes = 0.0;
    let (mut hits, mut lookups) = (0, 0);
    let (count, length) = windows(budget);
    'windows: for _ in 0..count {
        let mut cycles = Vec::new();
        let mut latencies = Vec::new();
        let start = Instant::now();
        while cycles.is_empty() || start.elapsed() < length {
            let path = ctx.scratch.join(format!("store-{cycle_count}")).join("results.astr");
            cycle_count += 1;
            let outcome = one_cycle(ctx, &path, context, &ops, &expected, &mut latencies, report);
            if let Some(dir) = path.parent() {
                let _ = std::fs::remove_dir_all(dir);
            }
            match outcome {
                Ok((cycle, size)) => {
                    report.attempted += 2 * n;
                    bytes = size;
                    hits += cycle.hits;
                    lookups += cycle.lookups;
                    cycles.push(cycle);
                }
                Err(err) => {
                    report.violation(err);
                    break 'windows;
                }
            }
        }
        let pick = |f: fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();
        let totals = pick(|c| c.total);
        report.observe("setup_s", median(&pick(|c| c.open)));
        report.observe("populate_s", median(&pick(|c| c.populate)));
        report.observe("rewarm_s", median(&pick(|c| c.rewarm)));
        report.observe("pass_ms_p50", ms(&totals, 50.0));
        report.observe("pass_ms_p95", ms(&totals, 95.0));
        report.observe("latency_ms_p50", ms(&latencies, 50.0));
        report.observe("latency_ms_p99", ms(&latencies, 99.0));
        report.observe(
            "ops_per_s",
            (2 * n) as f64 * cycles.len() as f64 / totals.iter().sum::<f64>(),
        );
    }
    println!(
        "phase store_cycles: attempted {} failed {} in {cycle_count} cycles over {count} windows",
        report.attempted, report.failed
    );
    report.set("bytes_per_result", bytes);
    report.set("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0));
    hits as f64 / lookups.max(1) as f64
}

/// One populate → verify → reopen → rewarm cycle. Returns its timings
/// (the offline verify excluded) and the mean record payload size.
fn one_cycle(
    ctx: &Ctx,
    path: &Path,
    context: u64,
    ops: &[Box<dyn ascend_ops::Operator>],
    expected: &[crate::check::Expected],
    latencies: &mut Vec<f64>,
    report: &mut Report,
) -> Result<(Cycle, f64), String> {
    let begun = Instant::now();
    let store = ResultStore::open(path, context).map_err(|err| format!("store open: {err}"))?;
    let open = begun.elapsed().as_secs_f64();
    let pipeline = AnalysisPipeline::new(ctx.chip.clone())
        .with_result_store(Arc::new(store))
        .map_err(|err| format!("store attach: {err}"))?;
    let populating = Instant::now();
    let results: Vec<_> = ops.iter().map(|op| pipeline.run(op.as_ref())).collect();
    let populate = populating.elapsed().as_secs_f64();
    let populate_stats = pipeline.cache_stats();
    drop(pipeline);
    let populated = begun.elapsed().as_secs_f64();

    let mut served = Vec::new();
    for (result, expected) in results.into_iter().zip(expected) {
        match result {
            Ok(result) => {
                if let Err(err) = expected.check(&result) {
                    report.violation(err);
                }
                served.push(result);
            }
            Err(_) => report.failed += 1,
        }
    }
    let bytes = pangu::mean_json_len(served.iter().map(|r| &**r));
    let verify = ResultStore::verify(path).map_err(|err| format!("store verify: {err}"))?;
    if !verify.is_clean() || verify.live != ops.len() as u64 {
        report.violation(format!("store not clean after populate: {verify}"));
    }

    let reopening = Instant::now();
    let store = ResultStore::open(path, context).map_err(|err| format!("store reopen: {err}"))?;
    let pipeline = AnalysisPipeline::new(ctx.chip.clone())
        .with_result_store(Arc::new(store))
        .map_err(|err| format!("store attach: {err}"))?;
    let rewarmed: Vec<_> = ops
        .iter()
        .map(|op| {
            let asked = Instant::now();
            let result = pipeline.run(op.as_ref());
            latencies.push(asked.elapsed().as_secs_f64());
            result
        })
        .collect();
    let rewarm = reopening.elapsed().as_secs_f64();
    for ((result, expected), first) in rewarmed.into_iter().zip(expected).zip(&served) {
        match result {
            Ok(result) => {
                if let Err(err) = expected.check(&result) {
                    report.violation(err);
                }
                if *result != **first {
                    report.violation(format!("{}: disk copy differs", result.kernel_name));
                }
            }
            Err(_) => report.failed += 1,
        }
    }
    let cache = pipeline.cache_stats();
    let disk = pipeline.store_stats().unwrap_or_default();
    let n = ops.len() as u64;
    if cache.hits != n || cache.misses != 0 || disk.hits != n || disk.recovered != n {
        report.violation(format!(
            "rewarm was not served from disk: {} hits, {} recomputes, {} disk hits, {} recovered",
            cache.hits, cache.misses, disk.hits, disk.recovered
        ));
    }
    let hits = populate_stats.hits + cache.hits;
    let lookups = hits + populate_stats.misses + cache.misses;
    Ok((Cycle { open, populate, rewarm, total: populated + rewarm, hits, lookups }, bytes))
}
