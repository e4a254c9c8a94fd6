//! The in-process workloads, `edge-dsb` and `scan-tiled`: one caller runs
//! `SegEngine::run` in a closed loop over a rotating set of seeded images.

use std::sync::Arc;
use std::time::{Duration, Instant};

use imaging::metrics::matched_binary_iou;
use seghdc::{
    EngineOptions, ExecutedMode, ExecutionMode, SegEngine, SegHdcConfig, SegmentOutput,
    SegmentRequest, TileConfig,
};
use synthdata::{DatasetProfile, NucleiImageGenerator, Sample};

use crate::host::{self, Measured, Quiet, Window};
use crate::report::{checksum, mean, median, ms, quantile, ratio, Report};
use crate::trace::{self, KernelTotals, Span, SpanLog, TracedBackend, TracedKernels, KERNEL_OPS};
use crate::Args;

/// One in-process workload.
pub struct Spec {
    config: SegHdcConfig,
    options: EngineOptions,
    mode: ExecutionMode,
    profile: DatasetProfile,
    /// Distinct images the caller rotates through.
    images: usize,
    /// Fresh engines whose cold start `setup_s` is the median of.
    setup_repeats: usize,
    /// Tiles per image the planner must choose (0 for whole-image).
    tiles: usize,
}

/// The paper's Table II use case: 320×256 RGB DSB2018-like images at the
/// edge configuration (`d = 800`, 3 iterations), whole-image, warm cache.
pub fn edge_dsb() -> Spec {
    Spec {
        config: SegHdcConfig::edge_dsb2018(),
        options: EngineOptions::default(),
        mode: ExecutionMode::WholeImage,
        profile: DatasetProfile::dsb2018_like(),
        images: 16,
        setup_repeats: 9,
        tiles: 0,
    }
}

/// 512×512 single-channel scans at `d = 1024`. The 32 MiB whole-image
/// matrix exceeds the 16 MiB budget, so the planner itself picks 16
/// halo-padded 128² tiles.
pub fn scan_tiled() -> Spec {
    Spec {
        config: SegHdcConfig::builder()
            .dimension(1024)
            .iterations(3)
            .beta(16)
            .build()
            .expect("scan-tiled configuration is valid"),
        options: EngineOptions {
            matrix_budget_bytes: 16 << 20,
            auto_tile: TileConfig::square(128, 8).expect("128² tiles with an 8 px halo are valid"),
            ..EngineOptions::default()
        },
        mode: ExecutionMode::Auto,
        profile: DatasetProfile::microscopy_scan_like().scaled(512, 512),
        images: 8,
        setup_repeats: 7,
        tiles: 16,
    }
}

/// `count` seeded samples of `profile`.
pub fn samples(profile: &DatasetProfile, seed: u64, count: usize) -> Vec<Sample> {
    let generator =
        NucleiImageGenerator::new(profile.clone(), seed).expect("benchmark profiles are valid");
    (0..count)
        .map(|i| generator.generate(i).expect("a valid profile generates"))
        .collect()
}

/// Mean matched binary IoU of label maps against their samples' truth.
pub fn mean_iou<'a>(pairs: impl Iterator<Item = (&'a imaging::LabelMap, &'a Sample)>) -> f64 {
    let scores: Vec<f64> = pairs
        .map(|(labels, sample)| {
            matched_binary_iou(labels, &sample.ground_truth.to_binary())
                .expect("label maps match their image's shape")
        })
        .collect();
    mean(&scores)
}

/// Host context of a timed phase, printed with every run so a run taken
/// during a slow episode (high steal) can be recognised.
pub fn print_host(args: &Args, kernel_isa: &str, ops: u64, measured: &Measured) {
    let capacity = measured.wall.as_secs_f64() * host::nproc() as f64;
    println!(
        "host: workload={} seed={} trace={} kernel_isa={kernel_isa} nproc={} ops={ops} wall_s={:.3} steal_ms={:.0} steal_share={:.4}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        measured.wall.as_secs_f64(),
        ms(measured.steal),
        ratio(measured.steal.as_secs_f64(), capacity),
    );
}

/// Results of one timed closed-loop phase.
struct Phase {
    /// End instant and latency of every successful untraced op.
    ops: Vec<(Instant, f64)>,
    /// The same for traced ops.
    traced_ops: Vec<(Instant, f64)>,
    attempted: u64,
    measured: Measured,
}

struct Runner<'a> {
    spec: &'a Spec,
    samples: &'a [Sample],
    /// Checksum of the first label map seen per image.
    first: Vec<Option<u64>>,
}

impl Runner<'_> {
    fn request(&self, index: usize) -> SegmentRequest<'_> {
        SegmentRequest::image(&self.samples[index].image).mode(self.spec.mode)
    }

    /// Checks that the planner chose the expected execution and that the
    /// labels equal the first result for the same image.
    fn check(&mut self, report: &mut Report, index: usize, out: &SegmentOutput) {
        let tiles = tiles_of(out);
        let expected = self.spec.tiles;
        report.check(tiles == expected, || {
            format!("image {index} ran as {tiles} tiles, expected {expected}")
        });
        let sum = checksum(out.label_map.as_raw());
        match self.first[index] {
            None => self.first[index] = Some(sum),
            Some(first) => report.check(first == sum, || {
                format!("image {index}: labels differ from its first result")
            }),
        }
    }

    fn build(&self, backend: Option<TracedBackend>) -> SegEngine {
        let mut builder =
            SegEngine::builder(self.spec.config.clone()).options(self.spec.options.clone());
        if let Some(backend) = backend {
            builder = builder.backend(Box::new(backend));
        }
        builder
            .build()
            .expect("benchmark engine configuration is valid")
    }

    /// Builds fresh engines and times each until its first result. Returns
    /// the last engine (warm), the median cold start and the median of
    /// first-run minus warm-run time (the codebook build).
    fn setup(&mut self, report: &mut Report) -> (SegEngine, f64, f64) {
        let mut cold_s = Vec::new();
        let mut build_ms = Vec::new();
        let mut engine = None;
        for _ in 0..self.spec.setup_repeats {
            drop(engine.take());
            let start = Instant::now();
            let fresh = self.build(None);
            let first_start = Instant::now();
            let first = fresh.run(&self.request(0));
            let cold = start.elapsed();
            let warm_start = Instant::now();
            let second = fresh.run(&self.request(0));
            let warm = warm_start.elapsed();
            for result in [first, second] {
                match result {
                    Ok(run) => self.check(report, 0, run.single()),
                    Err(err) => report.fail(format!("setup run failed: {err}")),
                }
            }
            cold_s.push(cold.as_secs_f64());
            build_ms.push(ms((warm_start - first_start).saturating_sub(warm)));
            engine = Some(fresh);
        }
        let engine = engine.expect("at least one setup repeat");
        (engine, median(&cold_s), median(&build_ms))
    }

    /// Runs images in rotation until `duration` has passed. With a traced
    /// engine, ops alternate between `engine` and the traced one, two ops
    /// per image, so both see the same images under the same host
    /// conditions; each traced op gets an `engine.run` root span.
    fn timed(
        &mut self,
        engine: &SegEngine,
        traced: Option<(&SegEngine, &SpanLog)>,
        duration: Duration,
        report: &mut Report,
    ) -> Phase {
        let mut ops = Vec::new();
        let mut traced_ops = Vec::new();
        let mut attempted = 0u64;
        let window = Window::open();
        let start = Instant::now();
        while start.elapsed() < duration {
            let turn = attempted as usize;
            attempted += 1;
            let (index, tracer) = match traced {
                Some(tracer) => (turn / 2, (turn % 2 == 1).then_some(tracer)),
                None => (turn, None),
            };
            let index = index % self.samples.len();
            let request = self.request(index);
            let guard = tracer.map(|(_, log)| log.begin_op());
            let op_start = Instant::now();
            let result = tracer.map_or(engine, |(traced, _)| traced).run(&request);
            let end = Instant::now();
            match result {
                Ok(run) => {
                    let out = run.single();
                    let op = (end, ms(end - op_start));
                    if let (Some((_, log)), Some(guard)) = (tracer, guard) {
                        log.end_op(guard, "engine.run", end, output_attrs(out));
                        traced_ops.push(op);
                    } else {
                        ops.push(op);
                    }
                    self.check(report, index, out);
                }
                Err(err) => eprintln!("image {index}: run failed: {err}"),
            }
        }
        let measured = window.close();
        report.attempted += attempted;
        report.failed += attempted - (ops.len() + traced_ops.len()) as u64;
        Phase {
            ops,
            traced_ops,
            attempted,
            measured,
        }
    }
}

fn tiles_of(out: &SegmentOutput) -> usize {
    match out.mode {
        ExecutedMode::WholeImage => 0,
        ExecutedMode::Tiled {
            tiles_x, tiles_y, ..
        } => tiles_x * tiles_y,
    }
}

/// What the public API reports about one output, kept on its root span.
pub fn output_attrs(out: &SegmentOutput) -> Vec<(&'static str, u64)> {
    vec![
        ("iterations", out.iterations_run as u64),
        ("tiles", tiles_of(out) as u64),
        ("encode_ns", out.encode_time.as_nanos() as u64),
        ("cluster_ns", out.cluster_time.as_nanos() as u64),
        ("stitch_ns", out.stitch_time.as_nanos() as u64),
    ]
}

pub fn run(spec: &Spec, args: &Args) -> Report {
    let mut report = Report::default();
    let samples = samples(&spec.profile, args.seed, spec.images);
    let mut runner = Runner {
        spec,
        samples: &samples,
        first: vec![None; samples.len()],
    };
    let (engine, setup_s, build_ms) = runner.setup(&mut report);

    if !args.trace {
        let phase = runner.timed(&engine, None, args.seconds, &mut report);
        print_host(args, engine.kernel_isa(), phase.attempted, &phase.measured);
        // Quality is scored after the timed phase from one more run per
        // image, each checked against the image's first result.
        let outputs: Vec<_> = (0..samples.len())
            .filter_map(|index| match engine.run(&runner.request(index)) {
                Ok(run) => {
                    let out = run
                        .outputs
                        .into_iter()
                        .next()
                        .expect("one output per image");
                    runner.check(&mut report, index, &out);
                    Some((out.label_map, &samples[index]))
                }
                Err(err) => {
                    report.fail(format!("image {index}: scoring run failed: {err}"));
                    None
                }
            })
            .collect();
        let quality = mean_iou(outputs.iter().map(|(map, sample)| (map, *sample)));
        end_to_end(&mut report, setup_s, &phase.ops, &phase.measured, quality);
        return report;
    }

    // Traced run: the first half runs the shipped engine alone; the second
    // alternates it with an engine whose backend and kernels are wrapped.
    let half = args.seconds / 2;
    let plain = runner.timed(&engine, None, half, &mut report);
    let kernels = TracedKernels::leak(hdc::kernels::auto());
    let log = SpanLog::new();
    let traced_engine = runner.build(Some(TracedBackend::new(kernels, Arc::clone(&log))));
    if let Err(err) = traced_engine.run(&runner.request(0)) {
        report.fail(format!("traced warm-up run failed: {err}"));
    }
    log.take();
    let kernels_before = kernels.totals();
    let telemetry_before = traced_engine.telemetry();
    let mixed = runner.timed(
        &engine,
        Some((&traced_engine, &log)),
        args.seconds - half,
        &mut report,
    );
    let telemetry = traced_engine.telemetry();
    let kernel_delta = kernel_delta(kernels_before, kernels.totals());
    let spans = log.take();
    print_host(
        args,
        traced_engine.kernel_isa(),
        mixed.attempted,
        &mixed.measured,
    );

    engine_layers(
        &mut report,
        &spans,
        &kernel_delta,
        telemetry.peak_matrix_bytes,
    );
    let hits = telemetry.cache_hits - telemetry_before.cache_hits;
    let misses = telemetry.cache_misses - telemetry_before.cache_misses;
    cache_layer(
        &mut report,
        hits,
        misses,
        telemetry.cache_evictions - telemetry_before.cache_evictions,
        build_ms,
    );
    parallel_layer(&mut report, &plain.measured, plain.ops.len() as u64);
    absent_server_layers(&mut report);
    overhead(&mut report, &mixed.ops, &mixed.traced_ops, &mixed.measured);
    if let Err(err) = trace::write_spans(&crate::spans_path(args), &spans) {
        report.fail(format!("writing spans failed: {err}"));
    }
    report
}

/// Latencies of the ops that finished in the phase's quiet intervals.
pub fn quiet_latencies(ops: &[(Instant, f64)], quiet: &Quiet) -> Vec<f64> {
    ops.iter()
        .filter(|(end, _)| quiet.contains(*end))
        .map(|(_, latency)| *latency)
        .collect()
}

/// The eight end-to-end metrics of one timed phase. Wall-clock and CPU
/// metrics count only the ops that finished in quiet intervals.
pub fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    ops: &[(Instant, f64)],
    measured: &Measured,
    quality: f64,
) {
    let quiet = Quiet::of(measured);
    let latencies = quiet_latencies(ops, &quiet);
    let counted = latencies.len() as f64;
    println!(
        "quiet: {} of {} intervals, {} of {} ops, steal share {:.4} (whole phase {:.4})",
        quiet.intervals.len(),
        measured.intervals.len(),
        latencies.len(),
        ops.len(),
        quiet.steal_share(),
        ratio(
            measured.steal.as_secs_f64(),
            measured.wall.as_secs_f64() * host::nproc() as f64
        ),
    );
    report.metric("setup_s", setup_s, "s");
    report.metric("latency_p50_ms", quantile(&latencies, 0.5), "ms");
    report.metric("latency_p90_ms", quantile(&latencies, 0.9), "ms");
    report.metric(
        "images_per_s",
        ratio(counted, quiet.wall().as_secs_f64()),
        "1/s",
    );
    report.metric("cpu_ms_per_op", ratio(ms(quiet.cpu()), counted), "ms");
    report.metric("peak_rss_mb", measured.peak_rss_mib, "MiB");
    report.metric("quality_iou", quality, "ratio");
    report.metric(
        "ok_ratio",
        ratio(ops.len() as f64, report.attempted as f64),
        "ratio",
    );
    if latencies.len() < 100 {
        println!(
            "note: only {} ops counted, so fewer than 10 samples lie beyond p90",
            latencies.len()
        );
    }
}

pub fn kernel_delta(before: [KernelTotals; 4], after: [KernelTotals; 4]) -> [KernelTotals; 4] {
    std::array::from_fn(|i| KernelTotals {
        calls: after[i].calls - before[i].calls,
        busy_ns: after[i].busy_ns - before[i].busy_ns,
        bytes: after[i].bytes - before[i].bytes,
    })
}

/// Per-op totals of the engine ledger, built from the spans of each op.
#[derive(Default)]
struct Ledger {
    ops: u64,
    run_ns: u64,
    self_ns: u64,
    encode_calls: u64,
    encode_ns: u64,
    encode_rows: u64,
    cluster_calls: u64,
    cluster_ns: u64,
    cluster_iterations: u64,
    iterations: u64,
    tiles: u64,
    stitch_ns: u64,
}

fn attr(span: &Span, key: &str) -> u64 {
    span.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |(_, v)| *v)
}

/// Builds the ledger: each op's `engine.run` span minus the time its
/// backend child spans cover is the engine's self time. Checks that every
/// child lies inside its root and that children do not overlap, so that
/// self + encode + cluster adds back up to the run exactly.
fn ledger(spans: &[Span], report: &mut Report) -> Ledger {
    let mut ledger = Ledger::default();
    for op in spans.chunk_by(|a, b| a.op == b.op) {
        let Some(root) = op.iter().find(|s| s.parent.is_none()) else {
            report.fail(format!("op {} has no root span", op[0].op));
            continue;
        };
        ledger.ops += 1;
        ledger.run_ns += root.duration_ns();
        ledger.iterations += attr(root, "iterations");
        ledger.tiles += attr(root, "tiles");
        ledger.stitch_ns += attr(root, "stitch_ns");
        let mut covered_until = root.start_ns;
        let mut children_ns = 0;
        for child in op.iter().filter(|s| s.parent == Some(root.id)) {
            report.check(
                child.start_ns >= covered_until && child.end_ns <= root.end_ns,
                || {
                    format!(
                        "op {}: span {} overlaps a sibling or leaves its root",
                        root.op, child.name
                    )
                },
            );
            covered_until = covered_until.max(child.end_ns);
            children_ns += child.duration_ns();
            match child.name {
                "backend.encode_region" => {
                    ledger.encode_calls += 1;
                    ledger.encode_ns += child.duration_ns();
                    ledger.encode_rows += attr(child, "rows");
                }
                "backend.cluster_matrix" => {
                    ledger.cluster_calls += 1;
                    ledger.cluster_ns += child.duration_ns();
                    ledger.cluster_iterations += attr(child, "iterations");
                }
                other => report.fail(format!("unexpected span {other}")),
            }
        }
        ledger.self_ns += root.duration_ns().saturating_sub(children_ns);
    }
    let sum = ledger.self_ns + ledger.encode_ns + ledger.cluster_ns;
    report.check(sum == ledger.run_ns, || {
        format!(
            "ledger does not reconcile: self + encode + cluster = {sum} ns, run = {} ns",
            ledger.run_ns
        )
    });
    let per_op = |ns: u64| ns as f64 / 1e6 / ledger.ops.max(1) as f64;
    println!(
        "ledger: engine.run_ms {:.4} = engine.self_ms {:.4} + backend.encode_region {:.4} + backend.cluster_matrix {:.4} per op over {} ops (residual {} ns)",
        per_op(ledger.run_ns),
        per_op(ledger.self_ns),
        per_op(ledger.encode_ns),
        per_op(ledger.cluster_ns),
        ledger.ops,
        ledger.run_ns as i128 - sum as i128,
    );
    ledger
}

/// Engine, backend, cluster, kernel and tiling metrics from traced ops.
pub fn engine_layers(
    report: &mut Report,
    spans: &[Span],
    kernels: &[KernelTotals; 4],
    peak_matrix_bytes: usize,
) {
    let ledger = ledger(spans, report);
    let ops = ledger.ops.max(1) as f64;
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops;
    report.metric("engine.run_ms", per_op_ms(ledger.run_ns), "ms");
    report.metric("engine.self_ms", per_op_ms(ledger.self_ns), "ms");
    report.metric(
        "engine.peak_matrix_mb",
        peak_matrix_bytes as f64 / f64::from(1 << 20),
        "MiB",
    );
    report.metric(
        "backend.encode_region.calls",
        ledger.encode_calls as f64 / ops,
        "count",
    );
    report.metric(
        "backend.encode_region.busy_ms",
        per_op_ms(ledger.encode_ns),
        "ms",
    );
    report.metric(
        "backend.encode_region.rows",
        ledger.encode_rows as f64 / ops,
        "count",
    );
    report.metric(
        "backend.cluster_matrix.calls",
        ledger.cluster_calls as f64 / ops,
        "count",
    );
    report.metric(
        "backend.cluster_matrix.busy_ms",
        per_op_ms(ledger.cluster_ns),
        "ms",
    );
    report.metric(
        "cluster.iterations",
        ledger.iterations as f64 / ops,
        "count",
    );
    report.metric(
        "cluster.ms_per_iteration",
        ratio(
            ledger.cluster_ns as f64 / 1e6,
            ledger.cluster_iterations as f64,
        ),
        "ms",
    );
    for (name, totals) in KERNEL_OPS.iter().zip(kernels) {
        report.metric(
            format!("kernels.{name}.calls"),
            totals.calls as f64 / ops,
            "count",
        );
        report.metric(
            format!("kernels.{name}.busy_ms"),
            per_op_ms(totals.busy_ns),
            "ms",
        );
        report.metric(
            format!("kernels.{name}.bytes"),
            totals.bytes as f64 / ops,
            "B",
        );
    }
    report.metric("tiled.tiles_per_image", ledger.tiles as f64 / ops, "count");
    report.metric("tiled.stitch_ms", per_op_ms(ledger.stitch_ns), "ms");
}

pub fn cache_layer(report: &mut Report, hits: u64, misses: u64, evictions: u64, build_ms: f64) {
    report.metric("cache.hits", hits as f64, "count");
    report.metric("cache.misses", misses as f64, "count");
    report.metric("cache.evictions", evictions as f64, "count");
    report.metric(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    report.metric("cache.build_ms", build_ms, "ms");
}

/// Parallelism as seen from the process: CPU time over wall time, and
/// context switches per completed op, over an untraced phase.
pub fn parallel_layer(report: &mut Report, measured: &Measured, ops: u64) {
    report.metric(
        "parallel.cpu_util",
        ratio(measured.cpu.as_secs_f64(), measured.wall.as_secs_f64()),
        "ratio",
    );
    report.metric(
        "parallel.ctx_switches_per_op",
        ratio(measured.ctx_switches as f64, ops as f64),
        "count",
    );
}

/// Median latency of traced ops over untraced ops of the same phase,
/// minus one, each over the phase's quiet intervals.
pub fn overhead(
    report: &mut Report,
    plain: &[(Instant, f64)],
    traced: &[(Instant, f64)],
    measured: &Measured,
) {
    let quiet = Quiet::of(measured);
    let plain = median(&quiet_latencies(plain, &quiet));
    let traced = median(&quiet_latencies(traced, &quiet));
    println!("trace overhead: p50 untraced {plain:.4} ms, traced {traced:.4} ms");
    report.metric(
        "trace.overhead_pct",
        ratio(traced - plain, plain) * 100.0,
        "%",
    );
}

/// In-process workloads never pass through the server layers.
fn absent_server_layers(report: &mut Report) {
    for (name, unit) in [
        ("wire.transit_ms", "ms"),
        ("wire.bytes_per_op", "B"),
        ("queue.wait_ms_p50", "ms"),
        ("queue.wait_ms_p90", "ms"),
        ("shard.spilled", "count"),
        ("shard.stolen", "count"),
        ("server.service_ms_p50", "ms"),
        ("server.service_ms_p90", "ms"),
        ("server.fused_share", "ratio"),
        ("server.coalesced", "count"),
        ("server.rejected", "count"),
    ] {
        report.metric(name, 0.0, unit);
    }
}
