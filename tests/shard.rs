//! Shard conformance battery: the sharded out-of-core path must be a
//! drop-in replacement for the unsharded stitch.
//!
//! * the differential oracle proves bit-identity (displacements,
//!   positions, mosaic pixels) across shard geometries;
//! * the stress battery proves determinism and leak-freedom under
//!   random geometry, tight budgets, faults, and cancellation;
//! * the peak-memory gate proves the headline claim: arbiter high-water
//!   is *flat* in grid area — a grid 20× the standard preset stitches
//!   under the same fixed budget as the 1× grid.

use std::sync::Arc;

use stitch_core::{
    Blend, FailurePolicy, GlobalOptimizer, SimpleCpuStitcher, Stitcher, SyntheticSource, TileSource,
};
use stitch_image::{ScanConfig, SyntheticPlate};
use stitch_sched::StitchJob;
use stitch_shard::{stitch_sharded, stitch_sharded_streaming, ShardConfig};
use stitch_testkit::{run_shard_differential, run_shard_stress};
use stitch_trace::{RunReport, TraceHandle};

#[test]
fn shard_differential_battery_is_clean() {
    let report = run_shard_differential(0xA11CE);
    assert!(
        report.is_clean(),
        "{} of {} shard cases not bit-identical:\n{}",
        report.mismatches.len(),
        report.ran.len(),
        report
            .mismatches
            .iter()
            .map(|m| format!("  {}: {}", m.label, m.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn shard_differential_digest_is_pure_in_seed() {
    let a = run_shard_differential(42);
    let b = run_shard_differential(42);
    assert_eq!(a.digest, b.digest, "same seed must reproduce bit-for-bit");
    let c = run_shard_differential(43);
    assert_ne!(
        a.digest, c.digest,
        "different seed stitches different plates"
    );
}

#[test]
fn shard_stress_battery_is_deterministic_and_leak_free() {
    for seed in [7u64, 0xBEEF] {
        let a = run_shard_stress(seed);
        let b = run_shard_stress(seed);
        assert_eq!(
            a, b,
            "seed {seed} not deterministic:\n{:#?}\n{:#?}",
            a.fates, b.fates
        );
        assert!(
            a.resources_clean(),
            "seed {seed} leaked: {} reservations, {} spectra, high-water ok: {}\n{:#?}",
            a.leaked_reservations,
            a.leaked_spectra,
            a.high_water_ok,
            a.fates
        );
        assert_eq!(a.fates.len(), a.iterations);
    }
}

/// End-to-end pin of the degenerate-geometry fix: single-row and
/// single-column grids (where filtered edges leave orphans with only one
/// step axis available) must still round-trip bit-identically through
/// the sharded path.
#[test]
fn degenerate_single_row_and_column_grids_round_trip() {
    for (rows, cols, sr, sc) in [(1, 5, 1, 2), (5, 1, 2, 1), (1, 1, 1, 1)] {
        let scan = ScanConfig::for_grid(rows, cols, 48, 36, 0.25, 99);
        let source: Arc<dyn TileSource> =
            Arc::new(SyntheticSource::new(SyntheticPlate::generate(scan)));
        let baseline = SimpleCpuStitcher::default()
            .try_compute_displacements(&*source, &FailurePolicy::default())
            .expect("baseline");
        let base_positions = GlobalOptimizer::default().solve(&baseline);
        let config = ShardConfig {
            shard_rows: sr,
            shard_cols: sc,
            compose: Some(Blend::Overlay),
            band_rows: 5,
            ..ShardConfig::default()
        };
        let sharded = stitch_sharded(Arc::clone(&source), &config)
            .unwrap_or_else(|e| panic!("{rows}x{cols} grid in {sr}x{sc} shards: {e}"));
        assert_eq!(
            base_positions, sharded.positions,
            "{rows}x{cols} grid in {sr}x{sc} shards: positions diverge"
        );
        assert!(sharded.mosaic.is_some());
        assert_eq!(sharded.leaked_reservations, 0);
        assert_eq!(sharded.leaked_spectra, 0);
    }
}

/// The headline out-of-core gate. One shard's admission estimate fixes
/// the budget; grids of 1×, 4×, and 20× the base area must all complete
/// under it, with *identical* arbiter high-water — peak memory is a
/// function of (shard size × workers), not grid area.
#[test]
fn peak_memory_is_flat_in_grid_area_and_within_budget() {
    let (tw, th) = (32, 24);
    let workers = 2;
    // one 2x2-tile shard's scheduler admission estimate
    let est =
        StitchJob::new("estimate", ScanConfig::for_grid(2, 2, tw, th, 0.25, 0)).estimated_bytes();
    let budget = workers * est;

    // 4x6 = 24 tiles (1x), 8x12 = 96 (4x), 20x24 = 480 (20x)
    let mut high_waters = Vec::new();
    for (rows, cols) in [(4, 6), (8, 12), (20, 24)] {
        let scan = ScanConfig::for_grid(rows, cols, tw, th, 0.25, 5);
        let source: Arc<dyn TileSource> =
            Arc::new(SyntheticSource::new(SyntheticPlate::generate(scan)));
        let config = ShardConfig {
            shard_rows: 2,
            shard_cols: 2,
            workers,
            memory_budget: budget,
            ..ShardConfig::default()
        };
        let out = stitch_sharded(source, &config)
            .unwrap_or_else(|e| panic!("{rows}x{cols} under {budget}B budget: {e}"));
        assert!(
            out.high_water <= budget,
            "{rows}x{cols}: high-water {} exceeds budget {budget}",
            out.high_water
        );
        assert!(
            out.high_water >= est,
            "{rows}x{cols}: implausibly low high-water"
        );
        assert_eq!(out.leaked_reservations, 0);
        assert_eq!(out.leaked_spectra, 0);
        high_waters.push(out.high_water);
    }
    assert!(
        high_waters.windows(2).all(|w| w[0] == w[1]),
        "peak memory must be flat in grid area, got {high_waters:?}"
    );
}

/// The 20× grid again, this time streaming the mosaic out in bounded
/// bands: no band may exceed its `band_rows` bound, bands must arrive
/// top-to-bottom and reassemble the exact unsharded mosaic height.
#[test]
fn streaming_composition_stays_banded_and_ordered() {
    let scan = ScanConfig::for_grid(20, 24, 32, 24, 0.25, 5);
    let source: Arc<dyn TileSource> =
        Arc::new(SyntheticSource::new(SyntheticPlate::generate(scan)));
    let band_rows = 48;
    let config = ShardConfig {
        shard_rows: 2,
        shard_cols: 2,
        compose: Some(Blend::Overlay),
        band_rows,
        ..ShardConfig::default()
    };
    let mut next_y = 0usize;
    let mut width = None;
    let out = stitch_sharded_streaming(Arc::clone(&source), &config, &mut |y0, band| {
        assert_eq!(y0, next_y, "bands must arrive top-to-bottom, gapless");
        assert!(band.height() <= band_rows, "band taller than the bound");
        assert_eq!(*width.get_or_insert(band.width()), band.width());
        next_y += band.height();
    })
    .expect("streaming run");
    assert!(
        out.mosaic.is_none(),
        "streaming path must not materialize the mosaic"
    );
    let (mw, mh) = out.positions.mosaic_dims(32, 24);
    assert_eq!(width, Some(mw));
    assert_eq!(next_y, mh, "bands must cover the full mosaic height");
    assert!(out.max_band_bytes <= mw * band_rows * 2);
}

/// Out-of-core composition into the pyramid canvas: baking the shard
/// run's bands must reproduce the collected mosaic bit-for-bit at
/// scale 0 and match the `pyramid()` kernel at every scale above,
/// while retaining zero placements (bands are pre-composed, so only
/// the pyramid stays lazy).
#[test]
fn sharded_canvas_sink_matches_collected_mosaic_at_every_scale() {
    use stitch_canvas::{CanvasConfig, SharedCanvas};
    use stitch_core::pyramid;
    use stitch_shard::stitch_sharded_into_canvas;

    let scan = ScanConfig::for_grid(4, 6, 32, 24, 0.25, 13);
    let source: Arc<dyn TileSource> =
        Arc::new(SyntheticSource::new(SyntheticPlate::generate(scan)));
    let config = ShardConfig {
        shard_rows: 2,
        shard_cols: 2,
        compose: Some(Blend::Overlay),
        band_rows: 17, // deliberately unaligned with tile and chunk sizes
        ..ShardConfig::default()
    };
    let canvas = SharedCanvas::new(CanvasConfig {
        chunk: 64,
        ..CanvasConfig::default()
    });
    let out =
        stitch_sharded_into_canvas(Arc::clone(&source), &config, &canvas).expect("canvas-sink run");
    assert!(out.mosaic.is_none(), "sink path must stream, not collect");

    let collected = stitch_sharded(source, &config)
        .expect("collected run")
        .mosaic
        .expect("compose requested");
    let (mw, mh) = (collected.width(), collected.height());
    let base = canvas.get_region(0, 0, 0, mw, mh);
    assert_eq!(base.pixels(), collected.pixels(), "scale 0 diverges");
    let levels = pyramid(collected, canvas.max_scale());
    for (scale, level) in levels.iter().enumerate().skip(1) {
        let got = canvas.get_region(scale, 0, 0, level.width(), level.height());
        assert_eq!(got.pixels(), level.pixels(), "scale {scale} diverges");
    }
    let stats = canvas.stats();
    assert_eq!(stats.placements, 0, "baked mode retains no tile images");
}

/// Sharded runs carry per-shard trace lanes plus the merge/compose
/// phases, so a trace viewer can see every shard as its own track.
#[test]
fn trace_carries_per_shard_lanes_and_merge_track() {
    let scan = ScanConfig::for_grid(3, 4, 48, 36, 0.25, 11);
    let source: Arc<dyn TileSource> =
        Arc::new(SyntheticSource::new(SyntheticPlate::generate(scan)));
    let trace = TraceHandle::new();
    let config = ShardConfig {
        shard_rows: 2,
        shard_cols: 2,
        compose: Some(Blend::Overlay),
        trace: trace.clone(),
        ..ShardConfig::default()
    };
    stitch_sharded(source, &config).expect("traced run");
    let tracks = trace.tracks();
    for shard in ["shard-r0c0", "shard-r0c1", "shard-r1c0", "shard-r1c1"] {
        assert!(
            tracks
                .iter()
                .any(|t| t.starts_with(&format!("job.{shard}/"))),
            "missing per-shard lane for {shard} in {tracks:?}"
        );
    }
    assert!(
        tracks.iter().any(|t| t == "shard/merge"),
        "missing merge track in {tracks:?}"
    );
    assert!(
        tracks.iter().any(|t| t == "shard/compose"),
        "missing compose track in {tracks:?}"
    );
}

/// The seam walk stamps layers, not hand-named spans: every seam tile read
/// is a `read`, and every registered seam pair one `seam_register`.
#[test]
fn seam_walk_stamps_one_seam_register_per_pair() {
    let scan = ScanConfig::for_grid(3, 4, 48, 36, 0.25, 12);
    let source: Arc<dyn TileSource> =
        Arc::new(SyntheticSource::new(SyntheticPlate::generate(scan)));
    let trace = TraceHandle::new();
    let config = ShardConfig {
        shard_rows: 2,
        shard_cols: 2,
        trace: trace.clone(),
        ..ShardConfig::default()
    };
    let outcome = stitch_sharded(source, &config).expect("traced run");
    assert!(outcome.seam_pairs > 0);
    let report = RunReport::from_trace(&trace);
    let count = |name: &str| {
        report
            .layers
            .iter()
            .find(|l| l.name == name)
            .map(|l| l.count)
    };
    assert_eq!(count("seam_register"), Some(outcome.seam_pairs as u64));
    let merge = trace
        .spans()
        .into_iter()
        .filter(|s| s.track == "shard/merge");
    assert!(
        merge.clone().any(|s| s.cat == "read"),
        "seam reads are the read layer"
    );
    assert!(
        merge
            .filter(|s| s.cat != "compute")
            .all(|s| s.name == s.cat),
        "every merge-track span but the wrapper is a layer"
    );
}
