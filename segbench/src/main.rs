//! End-to-end and per-layer benchmark of the SegHDC engine and server.
//!
//! ```text
//! cargo run --release --offline --manifest-path segbench/Cargo.toml -- \
//!     --workload edge-dsb --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `README.md` for why each exists):
//! * `edge-dsb`    — `SegEngine::run` on 320×256 RGB images at the paper's
//!   edge configuration, whole-image, warm cache.
//! * `serve-crops` — a loopback server driven by two closed-loop clients
//!   with 64×64 crops; a quarter of the requests miss the codebook cache.
//! * `scan-tiled`  — `SegEngine::run` on 512×512 scans the planner splits
//!   into 16 halo-padded tiles.
//!
//! With `--trace 0` the run reports the end-to-end metrics of the program
//! as shipped. With `--trace 1` it reports per-layer metrics: the first
//! half of the time runs untraced, the second alternates untraced ops with
//! ops through the tracing wrappers of `trace.rs`, and the difference in
//! their median latency is the tracing overhead. The last line of standard
//! output is the JSON result.

mod host;
mod inprocess;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Every end-to-end metric, reported by every workload with `--trace 0`.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "images_per_s",
    "cpu_ms_per_op",
    "peak_rss_mb",
    "quality_iou",
    "ok_ratio",
];

/// Every per-layer metric, reported by every workload with `--trace 1`; a
/// layer a workload does not pass through reads 0.
const PER_LAYER: &[&str] = &[
    "engine.run_ms",
    "engine.self_ms",
    "engine.peak_matrix_mb",
    "backend.encode_region.calls",
    "backend.encode_region.busy_ms",
    "backend.encode_region.rows",
    "backend.cluster_matrix.calls",
    "backend.cluster_matrix.busy_ms",
    "cluster.iterations",
    "cluster.ms_per_iteration",
    "kernels.plane_dot_multi.calls",
    "kernels.plane_dot_multi.busy_ms",
    "kernels.plane_dot_multi.bytes",
    "kernels.hamming_multi.calls",
    "kernels.hamming_multi.busy_ms",
    "kernels.hamming_multi.bytes",
    "kernels.counts_dot_multi.calls",
    "kernels.counts_dot_multi.busy_ms",
    "kernels.counts_dot_multi.bytes",
    "kernels.bundle_add_planes.calls",
    "kernels.bundle_add_planes.busy_ms",
    "kernels.bundle_add_planes.bytes",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "cache.hit_ratio",
    "cache.build_ms",
    "tiled.tiles_per_image",
    "tiled.stitch_ms",
    "parallel.cpu_util",
    "parallel.ctx_switches_per_op",
    "wire.transit_ms",
    "wire.bytes_per_op",
    "queue.wait_ms_p50",
    "queue.wait_ms_p90",
    "shard.spilled",
    "shard.stolen",
    "server.service_ms_p50",
    "server.service_ms_p90",
    "server.fused_share",
    "server.coalesced",
    "server.rejected",
    "trace.overhead_pct",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Where the traced run writes its spans (inside the benchmark's own
/// directory, which the repository ignores).
pub fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("segbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "edge-dsb" => inprocess::run(&inprocess::edge_dsb(), &args),
        "scan-tiled" => inprocess::run(&inprocess::scan_tiled(), &args),
        "serve-crops" => serve::run(&args),
        other => {
            eprintln!("segbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut expected: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut reported: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    expected.sort_unstable();
    reported.sort_unstable();
    if reported != expected {
        let message =
            format!("reported metrics {reported:?} differ from the expected {expected:?}");
        report.fail(message);
    }
    for failure in &report.failures {
        eprintln!("segbench: check failed: {failure}");
    }
    for metric in &report.metrics {
        println!("{:<36} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
