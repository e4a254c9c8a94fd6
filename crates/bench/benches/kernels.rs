//! Per-ISA benchmarks of the word-kernel layer and the engine above it.
//!
//! Measures the raw `hdc::kernels` operations the pipeline's hot loops
//! dispatch through (popcount-fused Hamming, bit-sliced plane dots,
//! vertical-counter carry adds, XOR binds), the composed
//! `cluster_matrix_with` K-Means run (its assignment step is the shipped
//! fused `BitSlicedGroup` path), and one warm-cache `SegEngine::run`, for
//! **every** kernel ISA the host supports (`hdc::kernels::available()`),
//! not just scalar-versus-auto.
//!
//! Timing is a median over `SAMPLES` wall-clock runs after one warm-up
//! (`bench_json::median_ns_per_op`). Besides the human-readable report,
//! every measurement is merged into `crates/bench/BENCH_kernels.json`
//! (override the path with `SEGHDC_BENCH_JSON`) as
//! `(op, isa, dim, k, ns_per_op)` records — the machine-readable perf
//! trajectory referenced by `crates/bench/README.md`. End-to-end latency,
//! throughput and per-layer costs are measured by `segbench/` instead.

use hdc::kernels;
use hdc::{Accumulator, BinaryHypervector, HdcRng, HvMatrix};
use imaging::DynamicImage;
use seghdc::{DistanceMetric, HvKmeans, SegEngine, SegHdcConfig, SegmentRequest, SimdCpuBackend};
use seghdc_bench::bench_json::{self, BenchRecord};
use std::hint::black_box;
use synthdata::{DatasetProfile, NucleiImageGenerator};

const DIMENSION: usize = 16_384;
const ROWS: usize = 2_000;
const SAMPLES: usize = 10;

/// The composed-stage workload: a 128x128 image's worth of rows at the
/// paper's edge dimension, with up to K = 4 centroids.
const IMAGE_SIZE: usize = 128;
const IMAGE_ROWS: usize = IMAGE_SIZE * IMAGE_SIZE;
const IMAGE_DIMENSION: usize = 2_048;
const CLUSTERS: usize = 4;

fn random_matrix(rows: usize, dim: usize, seed: u64) -> HvMatrix {
    let mut rng = HdcRng::seed_from(seed);
    let vectors: Vec<BinaryHypervector> = (0..rows)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect();
    HvMatrix::from_vectors(&vectors).expect("vectors share a dimension")
}

struct Reporter {
    records: Vec<BenchRecord>,
}

impl Reporter {
    fn record(&mut self, op: &str, isa: &str, dim: usize, k: usize, ns_per_op: f64) {
        println!("{op:28} {isa:16} d={dim:<6} k={k}  {ns_per_op:12.1} ns/op");
        self.records.push(BenchRecord {
            op: op.to_string(),
            isa: isa.to_string(),
            dim,
            k,
            ns_per_op,
        });
    }
}

fn bench_hamming(report: &mut Reporter) {
    let matrix = random_matrix(ROWS, DIMENSION, 1);
    let probe = matrix.row(0).to_hypervector();
    for k in kernels::available() {
        let ns = bench_json::median_ns_per_op(SAMPLES, ROWS as u64, || {
            let mut total = 0u64;
            for row in 0..ROWS {
                total += k.hamming(matrix.row(row).as_words(), probe.as_words());
            }
            black_box(total)
        });
        report.record("hamming", k.name(), DIMENSION, 1, ns);
    }
}

fn bench_plane_dot(report: &mut Reporter) {
    let matrix = random_matrix(ROWS, DIMENSION, 2);
    let mut accumulator = Accumulator::zeros(DIMENSION).expect("dimension is non-zero");
    for row in 0..9 {
        accumulator.add_row(matrix.row(row)).expect("dims match");
    }
    for k in kernels::available() {
        let sliced = accumulator.to_bit_sliced_with(k);
        let ns = bench_json::median_ns_per_op(SAMPLES, ROWS as u64, || {
            let mut total = 0u64;
            for row in 0..ROWS {
                total += sliced.dot_row_with(matrix.row(row), k).expect("dims match");
            }
            black_box(total)
        });
        report.record("plane_dot", k.name(), DIMENSION, 1, ns);
    }
}

fn bench_bundle_add(report: &mut Reporter) {
    let matrix = random_matrix(ROWS, DIMENSION, 3);
    for k in kernels::available() {
        let ns = bench_json::median_ns_per_op(SAMPLES, ROWS as u64, || {
            let mut accumulator = Accumulator::zeros(DIMENSION).expect("non-zero");
            for row in 0..ROWS {
                accumulator
                    .add_row_with(matrix.row(row), k)
                    .expect("dims match");
            }
            black_box(accumulator.items())
        });
        report.record("bundle_add", k.name(), DIMENSION, 1, ns);
    }
}

fn bench_xor_into(report: &mut Reporter) {
    let matrix = random_matrix(ROWS, DIMENSION, 4);
    let key = matrix.row(0).to_hypervector();
    for k in kernels::available() {
        let mut scratch = random_matrix(ROWS, DIMENSION, 5);
        let ns = bench_json::median_ns_per_op(SAMPLES, ROWS as u64, || {
            for row in 0..ROWS {
                scratch
                    .row_mut(row)
                    .xor_assign_with(&key, k)
                    .expect("dims match");
            }
            black_box(scratch.row(0).count_ones())
        });
        report.record("xor_into", k.name(), DIMENSION, 1, ns);
    }
}

/// The composed K-Means run (`cluster_matrix_with`, 3 iterations of the
/// fused assignment and the bit-serial update) on the image-sized workload.
fn bench_cluster_iteration(report: &mut Reporter) {
    let matrix = random_matrix(IMAGE_ROWS, IMAGE_DIMENSION, 6);
    let intensities: Vec<u8> = (0..matrix.rows()).map(|i| (i % 251) as u8).collect();
    for clusters in [2usize, CLUSTERS] {
        let kmeans = HvKmeans::new(clusters, 3, DistanceMetric::Cosine, false).expect("valid");
        for k in kernels::available() {
            let ns = bench_json::median_ns_per_op(SAMPLES, 1, || {
                black_box(
                    kmeans
                        .cluster_matrix_with(&matrix, &intensities, k)
                        .expect("clustering succeeds"),
                )
            });
            report.record("cluster_matrix", k.name(), IMAGE_DIMENSION, clusters, ns);
        }
    }
}

fn sample_image(width: usize, height: usize) -> DynamicImage {
    let profile = DatasetProfile::dsb2018_like().scaled(width, height);
    NucleiImageGenerator::new(profile, 3)
        .expect("profile is valid")
        .generate(0)
        .expect("generation succeeds")
        .image
}

fn engine_config() -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(IMAGE_DIMENSION)
        .beta(8)
        .iterations(3)
        .build()
        .expect("parameters are valid")
}

/// One warm-cache whole-image engine request (128x128 dsb2018-like RGB,
/// d = 2048, 3 iterations) per available kernel ISA, recorded as
/// `engine_run`.
fn bench_engine_run(report: &mut Reporter) {
    let image = sample_image(IMAGE_SIZE, IMAGE_SIZE);
    let clusters = engine_config().clusters;
    for k in kernels::available() {
        let engine = SegEngine::builder(engine_config())
            .backend(Box::new(SimdCpuBackend::with_kernels(k)))
            .build()
            .expect("config is valid");
        // Warm the codebook cache so the measurement isolates the
        // encode + cluster kernels.
        engine
            .run(&SegmentRequest::image(&image).whole_image())
            .expect("segmentation succeeds");
        let ns = bench_json::median_ns_per_op(SAMPLES, 1, || {
            black_box(
                engine
                    .run(&SegmentRequest::image(&image).whole_image())
                    .unwrap(),
            )
        });
        report.record("engine_run", k.name(), IMAGE_DIMENSION, clusters, ns);
    }
}

fn main() {
    let mut report = Reporter {
        records: Vec::new(),
    };
    println!("kernel-layer benchmarks ({SAMPLES} samples, median):");
    bench_hamming(&mut report);
    bench_plane_dot(&mut report);
    bench_bundle_add(&mut report);
    bench_xor_into(&mut report);
    bench_cluster_iteration(&mut report);
    bench_engine_run(&mut report);
    let path = bench_json::path_for("BENCH_kernels.json");
    bench_json::merge_into_file(&path, &report.records).expect("bench JSON is writable");
    println!(
        "merged {} records into {}",
        report.records.len(),
        path.display()
    );
}
