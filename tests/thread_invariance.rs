//! Labels do not depend on the worker-thread count.
//!
//! The K-Means assignment and update steps split their rows across worker
//! threads, and the update merges per-chunk partial bundles. Integer
//! bundling is exact, so every split must give the same labels. This test
//! pins an FNV-1a checksum of the labels of one seeded image, run whole and
//! tiled; CI re-runs it under `RAYON_NUM_THREADS=1` and `=3`, so a
//! reduction whose result depended on the split would fail on one of them.
//!
//! The image has 100 × 83 = 8300 pixels: two full 4096-row bundling chunks
//! plus a 108-row tail. The tiles' padded regions (up to 76 × 76 = 5776
//! rows) cross a chunk boundary as well.

use seghdc_suite::prelude::*;

const WIDTH: usize = 100;
const HEIGHT: usize = 83;

/// Pinned FNV-1a checksum of the whole-image labels.
const WHOLE_CHECKSUM: u64 = 0xcf0bfe0f2444e9f5;
/// Pinned FNV-1a checksum of the stitched tiled labels.
const TILED_CHECKSUM: u64 = 0x1ba1c474f53540e6;

/// 64-bit FNV-1a over the labels' little-endian bytes.
fn fnv1a(labels: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in labels.iter().flat_map(|label| label.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn image() -> DynamicImage {
    SyntheticDataset::new(DatasetProfile::dsb2018_like().scaled(WIDTH, HEIGHT), 23, 1)
        .unwrap()
        .sample(0)
        .unwrap()
        .image
}

fn engine() -> SegEngine {
    let config = SegHdcConfig::builder()
        .dimension(640)
        .beta(4)
        .iterations(3)
        .seed(5)
        .build()
        .unwrap();
    SegEngine::new(config).unwrap()
}

fn labels(engine: &SegEngine, request: &SegmentRequest<'_>) -> Vec<u32> {
    let mut run = engine.run(request).unwrap();
    let output = run.outputs.remove(0);
    assert_eq!(output.label_map.pixel_count(), WIDTH * HEIGHT);
    output.label_map.as_raw().to_vec()
}

#[test]
fn label_checksums_are_pinned_whole_and_tiled() {
    let image = image();
    let engine = engine();
    let whole = labels(&engine, &SegmentRequest::image(&image).whole_image());
    let tiles = TileConfig::square(64, 6).unwrap();
    let tiled = labels(&engine, &SegmentRequest::image(&image).tiled(tiles));
    // A checksum of one repeated label would pin nothing worth pinning.
    for run in [&whole, &tiled] {
        assert!(run.iter().any(|&label| label != run[0]));
    }
    assert_eq!(
        (fnv1a(&whole), fnv1a(&tiled)),
        (WHOLE_CHECKSUM, TILED_CHECKSUM),
        "labels changed (RAYON_NUM_THREADS={:?})",
        std::env::var("RAYON_NUM_THREADS").ok()
    );
}
