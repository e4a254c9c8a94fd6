//! Peak-memory regression harness for streaming tiled segmentation.
//!
//! The whole point of tiled execution is that transient matrix memory
//! stays ≈ one halo-padded tile regardless of the image size. The engine's
//! `telemetry.peak_matrix_bytes` (the high-water mark of its
//! tile arenas) makes that guarantee observable; on a fresh engine it is
//! exactly one run's peak. This test pins it so it cannot silently rot.

use seghdc_suite::prelude::*;

/// Tiled-runs `image` on a fresh engine; returns the output and the run's
/// matrix high-water mark.
fn tiled_peak(
    config: &SegHdcConfig,
    image: &DynamicImage,
    tiles: TileConfig,
) -> (seghdc_suite::seghdc::SegmentOutput, usize) {
    let mut report = SegEngine::new(config.clone())
        .unwrap()
        .run(&SegmentRequest::image(image).tiled(tiles))
        .unwrap();
    (report.outputs.remove(0), report.telemetry.peak_matrix_bytes)
}

/// Bytes of one packed hypervector row at dimension `dim`.
fn row_bytes(dim: usize) -> usize {
    dim.div_ceil(64) * 8
}

#[test]
fn streaming_a_512x512_scan_stays_within_two_tiles_of_matrix_memory() {
    let dim = 2048;
    let (tile_edge, halo) = (128, 8);

    // A synthetic 512x512 scan (the workload class the paper's edge devices
    // cannot fit as one matrix).
    let profile = DatasetProfile::microscopy_scan_like().scaled(512, 512);
    let generator = NucleiImageGenerator::new(profile, 41).unwrap();
    let sample = generator.generate(0).unwrap();

    let config = SegHdcConfig::builder()
        .dimension(dim)
        .iterations(1)
        .beta(8)
        .build()
        .unwrap();
    let tiles = TileConfig::square(tile_edge, halo).unwrap();
    let (result, peak) = tiled_peak(&config, &sample.image, tiles);

    assert_eq!(result.label_map.pixel_count(), 512 * 512);
    assert!(matches!(
        result.mode,
        ExecutedMode::Tiled {
            tiles_x: 4,
            tiles_y: 4,
            ..
        }
    ));

    // The bound itself: no more matrix bytes than ~2 halo-padded tiles.
    let padded_tile_bytes = (tile_edge + 2 * halo) * (tile_edge + 2 * halo) * row_bytes(dim);
    assert!(peak > 0);
    assert!(
        peak <= 2 * padded_tile_bytes,
        "peak {peak} exceeds two padded tiles ({})",
        2 * padded_tile_bytes
    );

    // Sanity on both sides: at least one full tile was actually resident,
    // and the whole-image matrix would have been an order of magnitude more.
    assert!(peak >= tile_edge * tile_edge * row_bytes(dim));
    let whole_image_bytes = 512 * 512 * row_bytes(dim);
    assert!(peak * 8 <= whole_image_bytes);
}

#[test]
fn arena_peak_scales_with_the_tile_not_the_image() {
    // Same tile size over two image sizes: the recorded peak must not grow
    // with the image.
    let config = SegHdcConfig::builder()
        .dimension(1024)
        .iterations(1)
        .beta(4)
        .build()
        .unwrap();
    let tiles = TileConfig::square(16, 2).unwrap();

    let small = DynamicImage::Gray(GrayImage::filled(48, 48, 90).unwrap());
    let large = DynamicImage::Gray(GrayImage::filled(96, 96, 90).unwrap());
    let (_, small_peak) = tiled_peak(&config, &small, tiles);
    let (_, large_peak) = tiled_peak(&config, &large, tiles);
    assert_eq!(small_peak, large_peak);
}
