//! Multi-channel / z-stack conformance: the replay bit-identity oracle
//! and the flat-field registration-accuracy battery.
//!
//! Two claims are machine-checked here:
//!
//! 1. **Replay bit-identity** — a multi-channel run registers *once* on
//!    the reference channel and replays the solved frame everywhere, so
//!    every channel's mosaic must be composed with positions
//!    bit-identical to a solo run over the reference source.
//! 2. **Correction helps where it should** — radial vignetting is
//!    tile-fixed, so uncorrected it correlates between overlapping tiles
//!    at zero displacement and drags phase-correlation peaks off the
//!    true offset. Sweeping falloff strength on ground-truth plates,
//!    flat-field-corrected registration must never be less accurate than
//!    uncorrected, and must be *strictly* more accurate once the falloff
//!    passes [`IMPROVEMENT_THRESHOLD`].
//!
//! The whole battery is pure in `seed`: the same seed always produces
//! the same report digest.

use std::sync::Arc;

use stitch_core::{
    run_channel_plan, Blend, ChannelPlan, ChannelSession, Composer, FailurePolicy,
    MultiSyntheticSource, SimpleCpuStitcher, Stitcher, TruthVector, ZMode,
};
use stitch_image::{Fnv64, MultiChannelPlate, MultiScanConfig, ScanConfig, SceneParams};

use crate::outputs::{diff_pixels, Measured, Outputs, Report};

/// One point of the corrected-vs-uncorrected accuracy sweep.
#[derive(Clone, Debug)]
pub struct AccuracyPoint {
    /// True vignetting falloff of the level's plates.
    pub vignette: f64,
    /// Displacement-pair errors (vs ground truth, ±1 px tolerance)
    /// registering the raw tiles, summed over the level's plates.
    pub uncorrected_errors: usize,
    /// The same count registering flat-field-corrected tiles.
    pub corrected_errors: usize,
    /// Mean falloff the estimator recovered from the tile stacks (0 when
    /// every fit snapped to the identity).
    pub estimated_falloff: f64,
    /// Displacement pairs scored across the level's plates (the
    /// denominator for the error counts).
    pub pairs: usize,
}

impl Measured for Vec<AccuracyPoint> {
    fn lines(&self) -> Vec<String> {
        let line = |p: &AccuracyPoint| {
            let (u, c, n) = (p.uncorrected_errors, p.corrected_errors, p.pairs);
            let (v, est) = (p.vignette, p.estimated_falloff);
            format!("vignette {v:.2}: {u} uncorrected vs {c} corrected errors of {n} pairs (estimated falloff {est:.3})")
        };
        self.iter().map(line).collect()
    }
}

/// Ground-truth displacement vectors of a multi-channel plate, in the
/// layout `StitchResult::count_errors` expects. Positions are shared by
/// every channel and plane, so one pair of vectors covers them all.
pub fn multi_truth_vectors(plate: &MultiChannelPlate) -> (TruthVector, TruthVector) {
    let rows = plate.base().grid_rows;
    let cols = plate.base().grid_cols;
    let mut west = vec![None; rows * cols];
    let mut north = vec![None; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            let (x1, y1) = plate.true_position(r, c);
            if c > 0 {
                let (x0, y0) = plate.true_position(r, c - 1);
                west[r * cols + c] = Some((x1 - x0, y1 - y0));
            }
            if r > 0 {
                let (x0, y0) = plate.true_position(r - 1, c);
                north[r * cols + c] = Some((x1 - x0, y1 - y0));
            }
        }
    }
    (west, north)
}

/// The replay-identity case list: a stacked run, a max-z run, and a
/// corrected run on a strongly vignetted plate. Its plates are channel
/// stacks, vignetted per case, so they are built here, not from a
/// `SweepCase`.
fn replay_cases(seed: u64) -> Vec<(String, MultiScanConfig, ChannelPlan)> {
    let base = |case_seed: u64, vignette: f64| ScanConfig {
        grid_rows: 2,
        grid_cols: 3,
        tile_width: 64,
        tile_height: 48,
        overlap: 0.2,
        vignette,
        seed: case_seed ^ (seed & 0xffff),
        ..ScanConfig::default()
    };
    vec![
        (
            "stack 2ch x 2z".into(),
            MultiScanConfig::for_channels(base(901, 0.04), 2, 2),
            ChannelPlan::default(),
        ),
        (
            "maxz 3ch x 3z".into(),
            MultiScanConfig::for_channels(base(902, 0.04), 3, 3),
            ChannelPlan {
                z_mode: ZMode::MaxProject,
                reference_channel: 1,
                ..ChannelPlan::default()
            },
        ),
        (
            "corrected stack 2ch x 2z, vignette 0.5".into(),
            MultiScanConfig::for_channels(base(903, 0.5), 2, 2),
            ChannelPlan {
                correct_illumination: true,
                ..ChannelPlan::default()
            },
        ),
    ]
}

/// The accuracy sweep's plate: bright background, modest plate-fixed
/// texture, sparse colonies. A strong vignette over a bright background
/// is a large tile-fixed signal, while the weak texture gives phase
/// correlation just enough plate-fixed structure to recover the true
/// offset once the field is divided out — the regime where uncorrected
/// registration actually fails and correction must rescue it.
fn sweep_config(seed: u64, plate: u64, vignette: f64) -> MultiScanConfig {
    let base = ScanConfig {
        grid_rows: 3,
        grid_cols: 3,
        tile_width: 64,
        tile_height: 48,
        overlap: 0.25,
        noise_sigma: 40.0,
        vignette,
        seed: 0x7a11 ^ (seed & 0xffff) ^ (plate * 131),
        ..ScanConfig::default()
    };
    let mut cfg = MultiScanConfig::for_channels(base, 1, 1);
    cfg.channels[0].scene = SceneParams {
        colony_count: 3,
        texture_amplitude: 60.0,
        background: 10_000.0,
        ..cfg.channels[0].scene.clone()
    };
    cfg
}

/// Falloff levels the accuracy battery sweeps, and the threshold beyond
/// which correction must strictly improve registration. Error counts are
/// aggregated over [`SWEEP_PLATES`] independent plates per level, so a
/// single borderline pair cannot flip the ordering.
const SWEEP_LEVELS: [f64; 5] = [0.0, 0.15, 0.3, 0.45, 0.6];
const SWEEP_PLATES: u64 = 3;
/// The falloff from which flat-field correction must be strictly better.
pub const IMPROVEMENT_THRESHOLD: f64 = 0.45;

/// Runs the whole battery: each case's replay diffed bit for bit against
/// the reference-channel solo run, then the accuracy sweep, whose points
/// are the report's measurements. Pure in `seed`: the same seed always
/// yields the same report digest.
pub fn run_channel_differential(seed: u64) -> Report<Vec<AccuracyPoint>> {
    let mut report = Report::new(format!("channel differential, seed {seed}"), Vec::new());
    let mut digest = Fnv64::new();
    let stitcher = SimpleCpuStitcher::default();

    // ------------------------------------------------------- replay identity
    for (label, cfg, plan) in replay_cases(seed) {
        report.ran.push(label.clone());
        let plate = MultiChannelPlate::generate(cfg);
        let source = Arc::new(MultiSyntheticSource::new(plate));
        let session = match ChannelSession::new(source, plan) {
            Ok(s) => s,
            Err(e) => {
                report.record(&label, [format!("session setup failed: {e}")]);
                continue;
            }
        };

        // The reference-channel solo run the whole batch must agree with.
        let reg_source = session.registration_source();
        let solo = crate::reference_pass(&stitcher, reg_source.as_ref(), None);

        let run = match run_channel_plan(&session, &stitcher, Blend::Overlay) {
            Ok(r) => r,
            Err(e) => {
                report.record(&label, [format!("sequential run failed: {e}")]);
                continue;
            }
        };
        let replayed = Outputs {
            result: run.registration,
            positions: run.positions,
            mosaic: None,
        };
        report.record(&label, replayed.diff(&solo));
        replayed.digest(&mut digest);
        for (unit, mosaic) in &run.mosaics {
            let solo_mosaic = Composer::new(solo.positions.clone(), Blend::Overlay)
                .compose(session.unit_source(*unit).as_ref());
            let diff = diff_pixels(&solo_mosaic, mosaic);
            report.record(&label, diff.map(|d| format!("unit {}: {d}", unit.label())));
            digest.write_u16s(mosaic.pixels());
        }
    }

    // ------------------------------------------- corrected-vs-uncorrected
    for &vignette in &SWEEP_LEVELS {
        let mut errors = [0usize; 2];
        let mut pairs = 0usize;
        let mut estimated_falloff = 0.0;
        for plate_idx in 0..SWEEP_PLATES {
            let cfg = sweep_config(seed, plate_idx, vignette);
            let plate = MultiChannelPlate::generate(cfg);
            let (tw, tn) = multi_truth_vectors(&plate);
            pairs += tw.iter().chain(tn.iter()).filter(|d| d.is_some()).count();
            let source: Arc<MultiSyntheticSource> = Arc::new(MultiSyntheticSource::new(plate));

            for (i, correct) in [false, true].into_iter().enumerate() {
                let session = ChannelSession::new(
                    Arc::clone(&source) as Arc<_>,
                    ChannelPlan {
                        correct_illumination: correct,
                        ..ChannelPlan::default()
                    },
                )
                .expect("valid plan");
                if correct {
                    estimated_falloff += session.flat(0).falloff() / SWEEP_PLATES as f64;
                }
                let result = stitcher
                    .try_compute_displacements(
                        session.registration_source().as_ref(),
                        &FailurePolicy::default(),
                    )
                    .expect("registration on a clean synthetic plate");
                errors[i] += result.count_errors(&tw, &tn, 1);
            }
        }
        let (u, c, n) = (errors[0], errors[1], pairs);
        let label = format!("sweep vignette {vignette}");
        let worse = (c > u).then(|| format!("correction made registration worse: {u} -> {c}"));
        report.record(&label, worse);
        let flat = (vignette >= IMPROVEMENT_THRESHOLD && c >= u)
            .then(|| format!("no strict improvement past threshold: {u} vs {c} (of {n} pairs)"));
        report.record(&label, flat);
        digest.write(&vignette.to_le_bytes());
        digest.write_u64(u as u64);
        digest.write_u64(c as u64);
        let point = AccuracyPoint {
            vignette,
            uncorrected_errors: u,
            corrected_errors: c,
            estimated_falloff,
            pairs,
        };
        report.measured.push(point);
    }
    report.digest = digest.finish();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_is_clean_and_pure_in_seed() {
        // correlation bits are compared: no backend may switch meanwhile
        let _guard = crate::backends::serial_guard();
        let a = run_channel_differential(5);
        assert!(a.is_clean(), "{a}");
        let b = run_channel_differential(5);
        assert_eq!(a.digest, b.digest, "report must be pure in the seed");
    }
}
