//! The traced run's layer probe: times calls into each layer's public
//! functions from outside, on the PanGu-α stream.
//!
//! The pipeline's `StageTimings` cannot be used for this: its "simulate"
//! stage starts before `Simulator::simulate_into` validates the kernel,
//! so validation is billed to the engine. The probe instead calls each
//! stage itself, one span per call, in the order the pipeline runs them:
//!
//! * `ops.build` — `Operator::build`
//! * `isa.validate` — `ascend_isa::validate`
//! * `sim.engine` — `Simulator::simulate_unchecked_into` with a `NullSink`
//! * `sim.sinks` — the same call with the pipeline's
//!   `(TraceCollector, MetricsSink)` pair, minus the `NullSink` run
//! * `profile.from_metrics`, `roofline.analyze`
//!
//! then runs `AnalysisPipeline::run` over the same operators with the
//! cache cleared (the traced pass). `pipeline.overhead` is the median
//! traced pass minus the stage spans' medians, so the stage self times
//! and the overhead account for the traced pass exactly. The other
//! layers are timed one call at a time: the JSON codec, the result
//! store and the ASBX frame codec on the pass's results, a warm
//! in-process service on the same operators, and a two-shard cluster
//! round trip on small operators.

use crate::check::Expected;
use crate::metrics::{median, percentile, spread_line, Report};
use crate::Ctx;
use ascend_isa::validate;
use ascend_ops::{OpSpec, Operator};
use ascend_pipeline::{
    encode_frame, read_frame, AnalysisPipeline, AnalysisService, ClusterConfig, ClusterService,
    FrameKind, PipelineResult, Priority, Request, ResultStore, SandboxConfig, ServiceConfig,
};
use ascend_profile::Profile;
use ascend_roofline::{analyze, Thresholds};
use ascend_sim::{MetricsSink, NullSink, Simulator, TraceCollector};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-repetition samples of each span, in seconds.
#[derive(Default)]
struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    fn push(&mut self, name: &'static str, secs: f64) {
        self.0.entry(name).or_default().push(secs);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Times `f`, adding its duration to `total`.
fn span<T>(total: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *total += start.elapsed().as_secs_f64();
    out
}

/// The spans that make up a pipeline pass, in the order it runs them.
const STAGES: [&str; 6] = [
    "ops.build",
    "isa.validate",
    "sim.engine",
    "sim.sinks",
    "profile.from_metrics",
    "roofline.analyze",
];

/// What the probe saw, for the traced run's summary lines.
pub struct Probe {
    /// Median traced `AnalysisPipeline::run` pass over the operators.
    pub traced_pass_s: f64,
    /// Sum of the stage spans' medians.
    pub stages_s: f64,
}

/// Runs the probe for about `budget` and sets every per-layer metric
/// except `pipeline.cache_hit_rate` (which comes from the workload).
pub fn run(ctx: &Ctx, ops: &[Box<dyn Operator>], budget: Duration, report: &mut Report) -> Probe {
    let mut spans = Spans::default();
    let (events, results) = stages(ctx, ops, budget.mul_f64(0.4), &mut spans, report);
    codec_and_store(ctx, &results, budget.mul_f64(0.3), &mut spans, report);
    service(ctx, ops, budget.mul_f64(0.15), &mut spans, report);
    cluster(ctx, budget.mul_f64(0.15), &mut spans, report);

    let per_pass_ms = |name| median(spans.get(name)) * 1e3;
    let events = events.max(1) as f64;
    let traced_pass_s = median(spans.get("pipeline.pass"));
    let stages_s: f64 = STAGES.iter().map(|name| median(spans.get(name))).sum();
    report.set("ops.build_ms", per_pass_ms("ops.build"));
    report.set("isa.validate_ms", per_pass_ms("isa.validate"));
    report.set("isa.validate_ns_per_event", median(spans.get("isa.validate")) * 1e9 / events);
    report.set("sim.engine_ms", per_pass_ms("sim.engine"));
    report.set("sim.engine_ns_per_event", median(spans.get("sim.engine")) * 1e9 / events);
    report.set("sim.sinks_ms", per_pass_ms("sim.sinks"));
    report.set("sim.events_per_pass", events);
    report.set("profile.from_metrics_ms", per_pass_ms("profile.from_metrics"));
    report.set("roofline.analyze_ms", per_pass_ms("roofline.analyze"));
    report.set("pipeline.overhead_ms", (traced_pass_s - stages_s) * 1e3);
    report.set("pipeline.cache_hit_us", median(spans.get("pipeline.cache_hit")) * 1e6);
    report.set("service.submit_us", median(spans.get("service.submit")) * 1e6);
    report.set("service.wait_ms_p99", percentile(spans.get("service.wait"), 99.0) * 1e3);
    report.set("codec.encode_ms", per_pass_ms("codec.encode"));
    report.set("codec.decode_ms", per_pass_ms("codec.decode"));
    report.set("store.put_ms", per_pass_ms("store.put"));
    report.set("store.open_ms", per_pass_ms("store.open"));
    report.set("store.get_ms", per_pass_ms("store.get"));
    report.set("transport.frame_us", median(spans.get("transport.frame")) * 1e6);
    report.set("cluster.round_trip_ms_p50", per_pass_ms("cluster.round_trip"));

    println!("layer spans (seconds; per pass, per result or per call as the metric says):");
    for (name, samples) in &spans.0 {
        println!("  {name:<22} {}", spread_line(samples));
    }
    Probe { traced_pass_s, stages_s }
}

/// Stage spans and traced pipeline passes. Returns the events of one
/// pass and the last traced pass's results.
fn stages(
    ctx: &Ctx,
    ops: &[Box<dyn Operator>],
    budget: Duration,
    spans: &mut Spans,
    report: &mut Report,
) -> (u64, Vec<Arc<PipelineResult>>) {
    let chip = &ctx.chip;
    let thresholds = Thresholds::default();
    let simulator = Simulator::new(chip.clone());
    let pipeline = AnalysisPipeline::new(chip.clone());
    let mut events = 0;
    let mut results = Vec::new();
    let start = Instant::now();
    while results.is_empty() || start.elapsed() < budget {
        let [mut build, mut check, mut engine, mut sinks, mut profile, mut roofline] = [0.0; 6];
        events = 0;
        for op in ops {
            let outcome = (|| -> Result<(), String> {
                let kernel = span(&mut build, || op.build(chip)).map_err(|e| e.to_string())?;
                span(&mut check, || validate(&kernel, chip)).map_err(|e| e.to_string())?;
                let null =
                    span(&mut engine, || simulator.simulate_unchecked_into(&kernel, &mut NullSink))
                        .map_err(|e| e.to_string())?;
                events += null.events;
                let mut pair = (TraceCollector::new(), MetricsSink::new());
                let mut with_sinks = 0.0;
                let summary =
                    span(&mut with_sinks, || simulator.simulate_unchecked_into(&kernel, &mut pair))
                        .map_err(|e| e.to_string())?;
                sinks += with_sinks;
                let metrics = pair.1;
                let p =
                    span(&mut profile, || Profile::from_metrics(&metrics, summary.total_cycles));
                black_box(span(&mut roofline, || analyze(&p, chip, &thresholds)));
                black_box(pair.0);
                Ok(())
            })();
            if let Err(err) = outcome {
                report.violation(format!("probe stage failed: {err}"));
                return (events, results);
            }
        }
        // `sinks` so far holds the whole sink-carrying run; its self
        // time is what it costs beyond the NullSink run.
        let sinks_self = sinks - engine;
        pipeline.reset();
        let pass_start = Instant::now();
        let pass: Result<Vec<_>, _> = ops.iter().map(|op| pipeline.run(op.as_ref())).collect();
        let pass_s = pass_start.elapsed().as_secs_f64();
        let Ok(pass) = pass else {
            report.violation("probe pipeline pass failed");
            return (events, results);
        };
        for op in ops {
            let mut hit = 0.0;
            black_box(span(&mut hit, || pipeline.run(op.as_ref())).ok());
            spans.push("pipeline.cache_hit", hit);
        }
        spans.push("ops.build", build);
        spans.push("isa.validate", check);
        spans.push("sim.engine", engine);
        spans.push("sim.sinks", sinks_self);
        spans.push("profile.from_metrics", profile);
        spans.push("roofline.analyze", roofline);
        spans.push("pipeline.pass", pass_s);
        results = pass;
    }
    (events, results)
}

/// JSON codec, result store and frame codec, one call per result.
fn codec_and_store(
    ctx: &Ctx,
    results: &[Arc<PipelineResult>],
    budget: Duration,
    spans: &mut Spans,
    report: &mut Report,
) {
    if results.is_empty() {
        return;
    }
    let n = results.len() as f64;
    let context = AnalysisPipeline::new(ctx.chip.clone()).context();
    let start = Instant::now();
    let mut rep = 0;
    while rep == 0 || start.elapsed() < budget {
        let path = ctx.scratch.join(format!("probe-store-{rep}")).join("results.astr");
        rep += 1;
        let store = match ResultStore::open(&path, context) {
            Ok(store) => store,
            Err(err) => {
                report.violation(format!("probe store open: {err}"));
                return;
            }
        };
        let [mut encode, mut decode, mut put, mut get, mut open] = [0.0; 5];
        let mut payloads = Vec::with_capacity(results.len());
        for result in results {
            let json = span(&mut encode, || serde_json::to_string(&**result)).unwrap_or_default();
            let back = span(&mut decode, || serde_json::from_str::<PipelineResult>(&json));
            if back.as_ref().ok() != Some(&**result) {
                report.violation(format!("{}: JSON round trip differs", result.kernel_name));
            }
            span(&mut put, || store.put(result.fingerprint, json.as_bytes()));
            let mut frame_s = 0.0;
            let frame = span(&mut frame_s, || {
                let frame = encode_frame(FrameKind::Outcome, json.as_bytes());
                read_frame(&mut frame.as_slice())
            });
            spans.push("transport.frame", frame_s);
            if frame.ok().flatten().map(|f| f.payload) != Some(json.clone().into_bytes()) {
                report.violation(format!("{}: frame round trip differs", result.kernel_name));
            }
            payloads.push(json);
        }
        drop(store);
        let reopened = span(&mut open, || ResultStore::open(&path, context));
        match reopened {
            Ok(store) => {
                for (result, json) in results.iter().zip(&payloads) {
                    let bytes = span(&mut get, || store.get(result.fingerprint));
                    if bytes.as_deref() != Some(json.as_bytes()) {
                        report.violation(format!("{}: store read differs", result.kernel_name));
                    }
                }
            }
            Err(err) => report.violation(format!("probe store reopen: {err}")),
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
        spans.push("codec.encode", encode / n);
        spans.push("codec.decode", decode / n);
        spans.push("store.put", put / n);
        spans.push("store.get", get / n);
        spans.push("store.open", open);
    }
}

/// Submit and wait on a two-worker in-process service, warm.
fn service(
    ctx: &Ctx,
    ops: &[Box<dyn Operator>],
    budget: Duration,
    spans: &mut Spans,
    report: &mut Report,
) {
    let service = AnalysisService::start(
        AnalysisPipeline::new(ctx.chip.clone()),
        ServiceConfig { workers: 2, queue_capacity: 1 << 14, ..ServiceConfig::default() },
    );
    let round = |spans: Option<&mut Spans>| -> u64 {
        let mut submitted = Vec::new();
        let mut failed = 0;
        let mut submit_s = Vec::new();
        for op in ops {
            let begun = Instant::now();
            let ticket = service.submit(Request::interactive(op.with_flags_dyn(op.flags())));
            submit_s.push(begun.elapsed().as_secs_f64());
            submitted.push((begun, ticket));
        }
        let mut waits = Vec::new();
        for (begun, ticket) in submitted {
            match ticket.and_then(|t| t.wait()) {
                Ok(_) => waits.push(begun.elapsed().as_secs_f64()),
                Err(_) => failed += 1,
            }
        }
        if let Some(spans) = spans {
            submit_s.into_iter().for_each(|s| spans.push("service.submit", s));
            waits.into_iter().for_each(|s| spans.push("service.wait", s));
        }
        failed
    };
    let mut failed = round(None);
    let start = Instant::now();
    while start.elapsed() < budget || spans.get("service.wait").is_empty() {
        failed += round(Some(spans));
        if failed > 0 {
            break;
        }
    }
    let drain = service.drain(Duration::from_secs(30));
    let c = service.health().counters;
    if failed > 0 || !drain.quiesced || c.terminal_states() != c.accepted || c.failed > 0 {
        report.violation(format!("probe service lost work: {failed} failed, {c:?}"));
    }
}

/// The `serve` binary's clean cluster mix: 4 kinds × sizes 2^10..2^14,
/// small results whose decode does not swamp the wire.
fn small_mix() -> Vec<OpSpec> {
    let kinds: [fn(u64) -> OpSpec; 4] =
        [OpSpec::add_relu, OpSpec::softmax, OpSpec::layer_norm, OpSpec::gelu];
    kinds.iter().flat_map(|kind| (10..15).map(move |log| kind(1 << log))).collect()
}

/// Round trips of shard-cached keys on a two-shard cluster.
fn cluster(ctx: &Ctx, budget: Duration, spans: &mut Spans, report: &mut Report) {
    let specs = small_mix();
    let expected: Result<Vec<Expected>, String> =
        specs.iter().map(|s| Expected::compute(s.instantiate().as_ref(), &ctx.chip)).collect();
    let expected = match expected {
        Ok(expected) => expected,
        Err(err) => {
            report.violation(format!("probe reference failed: {err}"));
            return;
        }
    };
    let cluster = match ClusterService::start(
        ctx.chip.clone(),
        ClusterConfig {
            shards: 2,
            seed: ctx.seed,
            sandbox: SandboxConfig {
                heartbeat_timeout: Duration::from_secs(5),
                wall_clock_limit: Duration::from_secs(30),
                ..SandboxConfig::default()
            },
            ..ClusterConfig::default()
        },
    ) {
        Ok(cluster) => cluster,
        Err(err) => {
            report.violation(format!("probe cluster start: {err}"));
            return;
        }
    };
    let mut round_trips = Vec::new();
    let start = Instant::now();
    let mut warm = false;
    'outer: while !warm || start.elapsed() < budget || round_trips.is_empty() {
        for (spec, expected) in specs.iter().zip(&expected) {
            let begun = Instant::now();
            let outcome = cluster.submit(*spec, Priority::Interactive).and_then(|t| t.wait());
            let elapsed = begun.elapsed().as_secs_f64();
            match outcome {
                Ok(result) => {
                    if let Err(err) = expected.check(&result) {
                        report.violation(err);
                    }
                    if warm {
                        round_trips.push(elapsed);
                    }
                }
                Err(err) => {
                    report.violation(format!("probe cluster request failed: {err}"));
                    break 'outer;
                }
            }
        }
        warm = true;
    }
    let drain = cluster.drain(Duration::from_secs(30));
    let c = cluster.health().counters;
    // `respawns` counts every bring-up, the two initial spawns included.
    let restarts = c.respawns.saturating_sub(2);
    report.set("cluster.respawns", restarts as f64);
    if !drain.quiesced || c.terminal_states() != c.accepted || restarts + c.kills > 0 {
        report.violation(format!("probe cluster was not clean: {c:?}"));
    }
    for secs in round_trips {
        spans.push("cluster.round_trip", secs);
    }
}
