//! Cross-variant differential oracle.
//!
//! Runs all six stitcher variants on the *same* tile source and checks
//! that every observable output — phase-1 displacements, phase-2 global
//! positions, and the composed mosaic — is **bit-identical** to the
//! Simple-CPU reference. The paper's variants differ only in schedule
//! (threading, pipelining, device placement); any numeric divergence is
//! a bug, and the oracle reports exactly which tile pair / tile /
//! pixel diverged on which variant.

use std::fmt;

use stitch_core::prelude::*;
use stitch_gpu::{Device, DeviceConfig};
use stitch_image::Image;

use crate::cases::SweepCase;

/// How many mismatches of each kind are recorded per variant before the
/// report truncates (the run still *counts* everything).
const MAX_RECORDED_PER_VARIANT: usize = 8;

/// Worker-thread count for the threaded variants: small enough to be
/// cheap on CI runners, large enough to exercise real concurrency.
const THREADS: usize = 2;

/// The six variants of Table II ([`Variant::ALL`]), reference
/// (Simple-CPU) first. A fresh set is built per call, each on its own
/// simulated device — stitchers hold per-run state, so sharing them across
/// cases would couple the runs.
pub fn variants() -> Vec<Box<dyn Stitcher>> {
    Variant::ALL
        .iter()
        .map(|v| {
            v.build(&Resources {
                threads: THREADS,
                devices: vec![Device::new(0, DeviceConfig::small(128 << 20))],
                ..Resources::default()
            })
        })
        .collect()
}

/// What diverged, in enough detail to reproduce and debug.
#[derive(Clone, Debug, PartialEq)]
pub enum MismatchDetail {
    /// A phase-1 relative displacement differs from the reference.
    Displacement {
        /// `"west"` or `"north"` — which pair family.
        axis: &'static str,
        /// The tile whose pair diverged.
        tile: TileId,
        /// The Simple-CPU reference value.
        reference: Option<Displacement>,
        /// The value this variant produced.
        got: Option<Displacement>,
    },
    /// A phase-2 global position differs from the reference.
    Position {
        /// The tile whose solved position diverged.
        tile: TileId,
        /// The Simple-CPU reference position.
        reference: (i64, i64),
        /// The position this variant produced.
        got: (i64, i64),
    },
    /// The composed mosaics have different dimensions.
    MosaicShape {
        /// Reference mosaic `(width, height)`.
        reference: (usize, usize),
        /// This variant's mosaic `(width, height)`.
        got: (usize, usize),
    },
    /// The composed mosaics differ pixel-wise.
    MosaicPixels {
        /// Coordinates of the first differing pixel.
        first: (usize, usize),
        /// Reference value at that pixel.
        reference: u16,
        /// This variant's value at that pixel.
        got: u16,
        /// Total number of differing pixels.
        differing: usize,
    },
    /// The variant did not produce a displacement for every pair.
    Incomplete,
}

impl fmt::Display for MismatchDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MismatchDetail::Displacement {
                axis,
                tile,
                reference,
                got,
            } => write!(
                f,
                "{axis} pair at tile ({}, {}): reference {reference:?}, got {got:?}",
                tile.row, tile.col
            ),
            MismatchDetail::Position {
                tile,
                reference,
                got,
            } => write!(
                f,
                "global position of tile ({}, {}): reference {reference:?}, got {got:?}",
                tile.row, tile.col
            ),
            MismatchDetail::MosaicShape { reference, got } => write!(
                f,
                "mosaic dims: reference {}x{}, got {}x{}",
                reference.0, reference.1, got.0, got.1
            ),
            MismatchDetail::MosaicPixels {
                first,
                reference,
                got,
                differing,
            } => write!(
                f,
                "mosaic pixels: {differing} differ, first at ({}, {}): reference {reference}, got {got}",
                first.0, first.1
            ),
            MismatchDetail::Incomplete => write!(f, "result incomplete: missing pair displacements"),
        }
    }
}

/// One recorded divergence: which variant, and what exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Mismatch {
    /// Variant name (as reported by [`Stitcher::name`]).
    pub variant: String,
    /// The divergence itself.
    pub detail: MismatchDetail,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.variant, self.detail)
    }
}

/// The oracle's verdict for one sweep case.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// Human-readable case identifier.
    pub label: String,
    /// The case that was run.
    pub case: SweepCase,
    /// Names of all variants that ran, reference first.
    pub variants: Vec<String>,
    /// Pairs where the *reference* disagrees with ground truth at zero
    /// tolerance (phase 1 may legitimately miss a featureless pair; the
    /// cross-variant checks are unaffected — every variant must miss it
    /// identically).
    pub truth_errors: usize,
    /// `max_deviation` of the reference's solved positions against the
    /// plate's ground-truth positions.
    pub position_deviation: (i64, i64),
    /// Every divergence found, capped per variant and kind.
    pub mismatches: Vec<Mismatch>,
    /// Total divergences found (not capped).
    pub total_mismatches: usize,
}

impl CaseReport {
    /// True when all variants agreed bit-for-bit on every output.
    pub fn is_clean(&self) -> bool {
        self.total_mismatches == 0
    }
}

impl fmt::Display for CaseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "case: {}", self.label)?;
        writeln!(
            f,
            "reference truth errors: {} pairs, position deviation {:?}",
            self.truth_errors, self.position_deviation
        )?;
        if self.is_clean() {
            write!(f, "all {} variants bit-identical", self.variants.len())
        } else {
            writeln!(
                f,
                "{} mismatches ({} recorded):",
                self.total_mismatches,
                self.mismatches.len()
            )?;
            for m in &self.mismatches {
                writeln!(f, "  {m}")?;
            }
            Ok(())
        }
    }
}

struct Reference {
    result: StitchResult,
    positions: AbsolutePositions,
    mosaic: Image<u16>,
}

/// Runs all six variants on `case` and diffs them against the Simple-CPU
/// reference. Panics never; the verdict (including any divergences) is in
/// the returned [`CaseReport`].
pub fn run_case(case: &SweepCase) -> CaseReport {
    let source = case.source();
    let plate = case.plate();
    let (truth_west, truth_north) = truth_vectors(&plate);

    let mut report = CaseReport {
        label: case.label(),
        case: case.clone(),
        variants: Vec::new(),
        truth_errors: 0,
        position_deviation: (0, 0),
        mismatches: Vec::new(),
        total_mismatches: 0,
    };

    let mut reference: Option<Reference> = None;
    for stitcher in variants() {
        let name = stitcher.name();
        report.variants.push(name.clone());

        let overlay = Some(crate::overlay());
        let (result, positions, mosaic) = crate::reference_pass(&*stitcher, &source, overlay);
        let mosaic = mosaic.expect("composed");

        match &reference {
            None => {
                report.truth_errors = result.count_errors(&truth_west, &truth_north, 0);
                report.position_deviation = positions.max_deviation(plate.positions());
                reference = Some(Reference {
                    result,
                    positions,
                    mosaic,
                });
            }
            Some(r) => diff_variant(&name, r, &result, &positions, &mosaic, &mut report),
        }
    }
    report
}

fn diff_variant(
    name: &str,
    reference: &Reference,
    result: &StitchResult,
    positions: &AbsolutePositions,
    mosaic: &Image<u16>,
    report: &mut CaseReport,
) {
    let mut recorded_for_variant = 0;
    let mut record = |report: &mut CaseReport, detail: MismatchDetail| {
        report.total_mismatches += 1;
        if recorded_for_variant < MAX_RECORDED_PER_VARIANT {
            recorded_for_variant += 1;
            report.mismatches.push(Mismatch {
                variant: name.to_string(),
                detail,
            });
        }
    };

    if !result.is_complete() && reference.result.is_complete() {
        record(report, MismatchDetail::Incomplete);
    }

    let shape = result.shape;
    for id in shape.ids().collect::<Vec<_>>() {
        let i = shape.index(id);
        for (axis, got, want) in [
            ("west", result.west[i], reference.result.west[i]),
            ("north", result.north[i], reference.result.north[i]),
        ] {
            if got != want {
                record(
                    report,
                    MismatchDetail::Displacement {
                        axis,
                        tile: id,
                        reference: want,
                        got,
                    },
                );
            }
        }
    }

    if positions.positions != reference.positions.positions {
        for id in shape.ids().collect::<Vec<_>>() {
            let got = positions.get(id);
            let want = reference.positions.get(id);
            if got != want {
                record(
                    report,
                    MismatchDetail::Position {
                        tile: id,
                        reference: want,
                        got,
                    },
                );
            }
        }
    }

    if mosaic.dims() != reference.mosaic.dims() {
        record(
            report,
            MismatchDetail::MosaicShape {
                reference: reference.mosaic.dims(),
                got: mosaic.dims(),
            },
        );
    } else if mosaic != &reference.mosaic {
        let w = mosaic.width();
        let mut first = None;
        let mut differing = 0usize;
        for (idx, (a, b)) in mosaic
            .pixels()
            .iter()
            .zip(reference.mosaic.pixels())
            .enumerate()
        {
            if a != b {
                differing += 1;
                if first.is_none() {
                    first = Some((idx % w, idx / w, *b, *a));
                }
            }
        }
        if let Some((x, y, want, got)) = first {
            record(
                report,
                MismatchDetail::MosaicPixels {
                    first: (x, y),
                    reference: want,
                    got,
                    differing,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_case_reports_clean() {
        let case = SweepCase {
            rows: 2,
            cols: 2,
            tile_width: 48,
            tile_height: 40,
            overlap: 0.25,
            noise_sigma: 30.0,
            seed: 11,
        };
        let report = run_case(&case);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.variants.len(), 6);
        assert_eq!(report.position_deviation, (0, 0), "{report}");
        let shown = format!("{report}");
        assert!(shown.contains("bit-identical"), "{shown}");
    }

    #[test]
    fn injected_divergence_is_reported_with_location() {
        // Diff a doctored result against a genuine reference to prove the
        // report pinpoints the divergence (variant, axis, tile).
        let case = SweepCase {
            rows: 2,
            cols: 2,
            tile_width: 48,
            tile_height: 40,
            overlap: 0.25,
            noise_sigma: 30.0,
            seed: 12,
        };
        let source = case.source();
        let overlay = Some(crate::overlay());
        let stitcher = SimpleCpuStitcher::default();
        let (result, positions, mosaic) = crate::reference_pass(&stitcher, &source, overlay);
        let mosaic = mosaic.expect("composed");
        let reference = Reference {
            result: result.clone(),
            positions: positions.clone(),
            mosaic: mosaic.clone(),
        };

        let mut doctored = result;
        let tile = TileId::new(1, 1);
        let idx = doctored.shape.index(tile);
        doctored.west[idx] = Some(Displacement::new(999, -999, 0.5));

        let mut report = CaseReport {
            label: case.label(),
            case,
            variants: vec!["reference".into(), "doctored".into()],
            truth_errors: 0,
            position_deviation: (0, 0),
            mismatches: Vec::new(),
            total_mismatches: 0,
        };
        diff_variant(
            "doctored",
            &reference,
            &doctored,
            &positions,
            &mosaic,
            &mut report,
        );
        assert!(!report.is_clean());
        let m = &report.mismatches[0];
        assert_eq!(m.variant, "doctored");
        let text = format!("{m}");
        assert!(text.contains("west pair at tile (1, 1)"), "{text}");
        assert!(text.contains("999"), "{text}");
    }

    #[test]
    fn mosaic_pixel_divergence_is_located() {
        let case = SweepCase {
            rows: 2,
            cols: 2,
            tile_width: 48,
            tile_height: 40,
            overlap: 0.25,
            noise_sigma: 30.0,
            seed: 13,
        };
        let source = case.source();
        let overlay = Some(crate::overlay());
        let stitcher = SimpleCpuStitcher::default();
        let (result, positions, mosaic) = crate::reference_pass(&stitcher, &source, overlay);
        let mosaic = mosaic.expect("composed");
        let reference = Reference {
            result: result.clone(),
            positions: positions.clone(),
            mosaic: mosaic.clone(),
        };
        let mut doctored = mosaic.clone();
        let v = doctored.get(5, 7);
        doctored.set(5, 7, v.wrapping_add(1));

        let mut report = CaseReport {
            label: case.label(),
            case,
            variants: vec!["reference".into(), "doctored".into()],
            truth_errors: 0,
            position_deviation: (0, 0),
            mismatches: Vec::new(),
            total_mismatches: 0,
        };
        diff_variant(
            "doctored",
            &reference,
            &result,
            &positions,
            &doctored,
            &mut report,
        );
        assert_eq!(report.total_mismatches, 1);
        match &report.mismatches[0].detail {
            MismatchDetail::MosaicPixels {
                first, differing, ..
            } => {
                assert_eq!(*first, (5, 7));
                assert_eq!(*differing, 1);
            }
            other => panic!("wrong detail: {other:?}"),
        }
    }
}
