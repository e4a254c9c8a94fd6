//! Equivalence harness for the engine's execution modes: the planner only
//! picks between executors, it never changes what they compute.
//!
//! * Auto-planned runs are **byte-identical** to the forced mode the
//!   planner picked (whole-image under the budget, tiled over it).
//! * Every output of a tiled batch is **permutation-equivalent** (the same
//!   partition of the pixels) to its whole-image run.

use seghdc_suite::prelude::*;

/// A bright square on a dark background with intensity jitter: the
/// high-contrast case whose multi-tile stitching is stable, used for the
/// permutation-equivalence assertions (cf. `tests/tiled_equivalence.rs`).
fn square_image(size: usize) -> DynamicImage {
    let mut img = GrayImage::new(size, size).unwrap();
    let lo = size / 4;
    let hi = 3 * size / 4;
    for y in 0..size {
        for x in 0..size {
            let jitter = ((x * 7 + y * 3) % 30) as u8;
            if (lo..hi).contains(&x) && (lo..hi).contains(&y) {
                img.set(x, y, 200 + jitter).unwrap();
            } else {
                img.set(x, y, 15 + jitter).unwrap();
            }
        }
    }
    DynamicImage::Gray(img)
}

fn sample_image() -> DynamicImage {
    SyntheticDataset::new(DatasetProfile::dsb2018_like().scaled(40, 40), 19, 1)
        .unwrap()
        .sample(0)
        .unwrap()
        .image
}

fn config() -> SegHdcConfig {
    SegHdcConfig::builder()
        .dimension(768)
        .beta(4)
        .iterations(3)
        .build()
        .unwrap()
}

#[test]
fn tiled_batch_outputs_permute_their_whole_image_runs() {
    let images = vec![square_image(40), square_image(32), square_image(24)];
    let tiles = TileConfig::square(16, 2).unwrap();
    let engine = SegEngine::new(config()).unwrap();
    let tiled = engine
        .run(&SegmentRequest::batch(&images).tiled(tiles))
        .unwrap();
    assert_eq!(tiled.outputs.len(), images.len());
    for (image, output) in images.iter().zip(&tiled.outputs) {
        assert!(matches!(output.mode, ExecutedMode::Tiled { .. }));
        let whole = engine
            .run(&SegmentRequest::image(image).whole_image())
            .unwrap();
        assert!(output
            .label_map
            .is_permutation_of(&whole.single().label_map));
    }
}

#[test]
fn auto_planned_runs_match_forced_modes() {
    // Auto mode must not change outputs, only pick between the same two
    // executors: under the budget it is byte-identical to whole-image,
    // over the budget byte-identical to tiled.
    let image = sample_image();
    let under = SegEngine::new(config()).unwrap();
    let auto = under.run(&SegmentRequest::image(&image)).unwrap();
    let whole = under
        .run(&SegmentRequest::image(&image).whole_image())
        .unwrap();
    assert_eq!(
        auto.outputs[0].label_map.as_raw(),
        whole.outputs[0].label_map.as_raw()
    );
    assert!(matches!(auto.outputs[0].mode, ExecutedMode::WholeImage));

    let tiles = TileConfig::square(16, 2).unwrap();
    let over = SegEngine::builder(config())
        .matrix_budget_bytes(1)
        .auto_tile(tiles)
        .build()
        .unwrap();
    let auto = over.run(&SegmentRequest::image(&image)).unwrap();
    let tiled = over
        .run(&SegmentRequest::image(&image).tiled(tiles))
        .unwrap();
    assert_eq!(
        auto.outputs[0].label_map.as_raw(),
        tiled.outputs[0].label_map.as_raw()
    );
    assert!(matches!(auto.outputs[0].mode, ExecutedMode::Tiled { .. }));
}
