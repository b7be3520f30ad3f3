//! Multi-channel / z-stack conformance battery: registration runs once
//! on the reference channel and replays everywhere, and flat-field
//! correction helps exactly where it should.

use std::sync::Arc;

use stitch_core::{
    run_channel_plan, Blend, ChannelPlan, ChannelSession, MultiSyntheticSource, SimpleCpuStitcher,
    ZMode,
};
use stitch_image::{Fnv64, MultiChannelPlate, MultiScanConfig, ScanConfig};
use stitch_testkit::channels::IMPROVEMENT_THRESHOLD;
use stitch_testkit::run_channel_differential;

#[test]
fn channel_differential_battery_is_clean() {
    for seed in [5u64, 11] {
        let report = run_channel_differential(seed);
        assert!(
            report.is_clean(),
            "seed {seed}: {} violations over {} cases:\n{}",
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
}

#[test]
fn channel_differential_digest_is_pure_in_seed() {
    let a = run_channel_differential(42);
    let b = run_channel_differential(42);
    assert_eq!(a.digest, b.digest, "same seed must reproduce bit-for-bit");
    let c = run_channel_differential(43);
    assert_ne!(
        a.digest, c.digest,
        "different seed stitches different plates"
    );
}

/// The accuracy sweep's headline shape, pinned end to end: no vignette →
/// the estimator snaps to the identity and the error counts are equal;
/// strong vignette → corrected registration is strictly more accurate.
#[test]
fn correction_is_noop_when_flat_and_wins_when_vignetted() {
    let report = run_channel_differential(5);
    let flat = &report.measured[0];
    assert_eq!(flat.vignette, 0.0);
    assert_eq!(
        flat.estimated_falloff, 0.0,
        "un-vignetted stacks must estimate the exact identity"
    );
    assert_eq!(flat.uncorrected_errors, flat.corrected_errors);
    for p in &report.measured {
        assert!(
            p.corrected_errors <= p.uncorrected_errors,
            "correction made vignette {} worse: {} -> {}",
            p.vignette,
            p.uncorrected_errors,
            p.corrected_errors
        );
        if p.vignette >= IMPROVEMENT_THRESHOLD {
            assert!(
                p.corrected_errors < p.uncorrected_errors,
                "no strict win at vignette {}: {} vs {}",
                p.vignette,
                p.uncorrected_errors,
                p.corrected_errors
            );
        }
    }
}

/// Max-z projection mode: one mosaic per channel, and the projection is
/// a pixelwise upper bound of every plane's mosaic at the same frame.
#[test]
fn maxz_mode_produces_one_mosaic_per_channel() {
    let cfg = MultiScanConfig::for_channels(
        ScanConfig {
            grid_rows: 2,
            grid_cols: 2,
            tile_width: 48,
            tile_height: 36,
            ..ScanConfig::default()
        },
        2,
        3,
    );
    let source = Arc::new(MultiSyntheticSource::new(MultiChannelPlate::generate(cfg)));
    let session = ChannelSession::new(
        source,
        ChannelPlan {
            z_mode: ZMode::MaxProject,
            ..ChannelPlan::default()
        },
    )
    .expect("valid plan");
    let run = run_channel_plan(&session, &SimpleCpuStitcher::default(), Blend::Overlay)
        .expect("plan completes");
    assert_eq!(run.mosaics.len(), 2);
    for (unit, _) in &run.mosaics {
        assert!(unit.plane.is_none(), "max-z units carry no plane index");
    }
}

/// `channel_replay`'s geometry — 232×174 tiles at 15 % overlap and a
/// strong vignette — corrected and replayed over every unit, pinned by one
/// FNV-1a digest over the mosaics in unit order. The CLI's pass golden can
/// only run the generator's default vignette, a field the correction
/// barely touches.
#[test]
fn channel_replay_corrected_mosaics_are_pinned() {
    let scan = ScanConfig {
        grid_rows: 2,
        grid_cols: 3,
        tile_width: 232,
        tile_height: 174,
        overlap: 0.15,
        noise_sigma: 50.0,
        vignette: 0.3,
        seed: 2014,
        ..ScanConfig::default()
    };
    let plate = MultiChannelPlate::generate(MultiScanConfig::for_channels(scan, 3, 2));
    let plan = ChannelPlan {
        correct_illumination: true,
        ..ChannelPlan::default()
    };
    let session = ChannelSession::new(Arc::new(MultiSyntheticSource::new(plate)), plan).unwrap();
    for channel in 0..3 {
        assert!(!session.flat(channel).is_identity(), "channel {channel}");
    }
    let run = run_channel_plan(&session, &SimpleCpuStitcher::default(), Blend::Overlay).unwrap();
    assert_eq!(run.mosaics.len(), 6);
    let mut digest = Fnv64::new();
    for (_, mosaic) in &run.mosaics {
        digest.write_u64(mosaic.width() as u64);
        digest.write_u64(mosaic.height() as u64);
        digest.write_u16s(mosaic.pixels());
    }
    assert_eq!(
        digest.finish(),
        0x3020_bd3f_c9a8_d280,
        "{:#018x}",
        digest.finish()
    );
}
