//! Cross-crate integration tests: dataset on disk → all stitcher variants
//! → global optimization → composition, checked against ground truth.

use stitching::gpu::{Device, DeviceConfig};
use stitching::image::{pgm, tiff, ScanConfig, SceneParams, SyntheticPlate};
use stitching::prelude::*;

fn scan(rows: usize, cols: usize, seed: u64) -> ScanConfig {
    ScanConfig {
        grid_rows: rows,
        grid_cols: cols,
        tile_width: 64,
        tile_height: 48,
        overlap: 0.25,
        stage_jitter: 2.5,
        backlash_x: 1.0,
        noise_sigma: 40.0,
        vignette: 0.03,
        seed,
    }
}

#[test]
fn disk_dataset_full_pipeline() {
    let dir = std::env::temp_dir().join("stitch_it_e2e");
    let _ = std::fs::remove_dir_all(&dir);
    let plate = SyntheticPlate::generate(scan(3, 4, 101));
    plate.write_to_dir(&dir).unwrap();
    let source = DirSource::open(&dir).unwrap();

    let result = PipelinedCpuStitcher::new(2).compute_displacements(&source);
    assert!(result.is_complete());
    let (tw, tn) = truth_vectors(&plate);
    // phase 1 may fail on the rare featureless pair; phase 2 must repair it
    assert!(result.count_errors(&tw, &tn, 0) <= 2);

    let positions = GlobalOptimizer::default().solve(&result);
    assert_eq!(positions.max_deviation(plate.positions()), (0, 0));

    // the mosaic must reproduce the noise-free scene up to noise/vignette:
    // sample the center of tile (1,1) and compare against the tile pixel.
    // Sample at the tile's *solved* position: the optimizer normalizes the
    // mosaic origin, so absolute truth coordinates are shifted by a global
    // translation (already checked exactly by max_deviation above).
    let (px, py) = positions.get(TileId::new(1, 1));
    let mosaic = Composer::new(positions, Blend::Average).compose(&source);
    let tile = plate.render_tile(1, 1);
    let got = mosaic.get(px as usize + 32, py as usize + 24);
    let want = tile.get(32, 24);
    assert!(
        (got as i64 - want as i64).abs() < 2500,
        "mosaic {got} vs tile {want}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_stitchers_agree_and_match_truth() {
    let plate = SyntheticPlate::generate(scan(3, 4, 202));
    let source = SyntheticSource::new(plate);
    let (tw, tn) = truth_vectors(source.plate());

    let reference = SimpleCpuStitcher::default().compute_displacements(&source);
    for variant in Variant::ALL {
        let s = variant.build(&Resources {
            threads: 2,
            devices: vec![Device::new(0, DeviceConfig::small(128 << 20))],
            ..Resources::default()
        });
        let r = s.compute_displacements(&source);
        assert!(r.is_complete(), "{}", s.name());
        assert_eq!(r.west, reference.west, "{}", s.name());
        assert_eq!(r.north, reference.north, "{}", s.name());
        // phase 1 may fail on the rare featureless pair (equally in every
        // implementation — they share the algorithm)
        assert!(r.count_errors(&tw, &tn, 0) <= 2, "{}", s.name());
        // but phase 2 must land every tile exactly
        let positions = GlobalOptimizer::default().solve(&r);
        assert_eq!(
            positions.max_deviation(source.plate().positions()),
            (0, 0),
            "{}",
            s.name()
        );
    }
}

#[test]
fn phase2_repairs_corrupted_pair() {
    let plate = SyntheticPlate::generate(scan(3, 4, 303));
    let source = SyntheticSource::new(plate);
    let mut result = SimpleCpuStitcher::default().compute_displacements(&source);
    // corrupt one displacement as if phase 1 had failed on a blank overlap
    let idx = result.shape.index(TileId::new(1, 2));
    result.west[idx] = Some(Displacement::new(-7, 23, 0.05));
    let positions = GlobalOptimizer::default().solve(&result);
    assert_eq!(
        positions.max_deviation(source.plate().positions()),
        (0, 0),
        "low-correlation outlier must not corrupt the solution"
    );
}

#[test]
fn sparse_scene_still_stitches() {
    // early-experiment low density (§I): few cells, texture only in most
    // overlaps — phase correlation must still work
    let config = scan(2, 3, 404);
    let scene = SceneParams {
        colony_count: 2,
        cells_per_colony: (2, 5),
        ..SceneParams::default()
    };
    let plate = SyntheticPlate::generate_with_scene(config, scene);
    let source = SyntheticSource::new(plate);
    let (tw, tn) = truth_vectors(source.plate());
    let r = SimpleCpuStitcher::default().compute_displacements(&source);
    assert_eq!(r.count_errors(&tw, &tn, 1), 0, "west={:?}", r.west);
}

#[test]
fn multi_gpu_partitioning_is_exact() {
    let plate = SyntheticPlate::generate(scan(3, 7, 505));
    let source = SyntheticSource::new(plate);
    let one = PipelinedGpuStitcher::single(Device::new(0, DeviceConfig::small(128 << 20)))
        .compute_displacements(&source);
    for gpus in [2usize, 3] {
        let devices: Vec<Device> = (0..gpus)
            .map(|i| Device::new(i, DeviceConfig::small(128 << 20)))
            .collect();
        let multi =
            PipelinedGpuStitcher::new(devices, Default::default()).compute_displacements(&source);
        assert_eq!(multi.west, one.west, "{gpus} GPUs");
        assert_eq!(multi.north, one.north, "{gpus} GPUs");
    }
}

#[test]
fn composed_mosaic_round_trips_through_codecs() {
    let plate = SyntheticPlate::generate(scan(2, 2, 606));
    let source = SyntheticSource::new(plate);
    let r = SimpleCpuStitcher::default().compute_displacements(&source);
    let positions = GlobalOptimizer::default().solve(&r);
    let mosaic = Composer::new(positions, Blend::Overlay).compose(&source);
    let (mut tif, mut pgm16) = (Vec::new(), Vec::new());
    tiff::write_to(&mut tif, &mosaic).unwrap();
    pgm::write_to(&mut pgm16, &mosaic).unwrap();
    assert_eq!(tiff::decode_tiff(&tif).unwrap(), mosaic);
    assert_eq!(pgm::decode_pgm(&pgm16).unwrap(), mosaic);
}

#[test]
fn spanning_tree_and_least_squares_agree_on_clean_data() {
    let plate = SyntheticPlate::generate(scan(3, 3, 707));
    let source = SyntheticSource::new(plate);
    let r = SimpleCpuStitcher::default().compute_displacements(&source);
    let ls = GlobalOptimizer {
        method: Method::LeastSquares,
    }
    .solve(&r);
    let mst = GlobalOptimizer {
        method: Method::SpanningTree,
    }
    .solve(&r);
    assert_eq!(ls.positions, mst.positions);
}
