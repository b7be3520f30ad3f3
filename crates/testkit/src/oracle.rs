//! Cross-variant differential oracle.
//!
//! Runs all six stitcher variants on the *same* tile source and checks
//! that every observable output — phase-1 displacements, phase-2 global
//! positions, and the composed mosaic — is **bit-identical** to the
//! Simple-CPU reference. The paper's variants differ only in schedule
//! (threading, pipelining, device placement); any numeric divergence is
//! a bug, and the oracle's [`Report`] names exactly which tile pair /
//! tile / pixel diverged on which variant.

use stitch_core::prelude::*;
use stitch_gpu::{Device, DeviceConfig};

use crate::cases::SweepCase;
use crate::outputs::{Measured, Report};

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

/// How the Simple-CPU reference fares against the plate's ground truth.
#[derive(Clone, Debug, Default)]
pub struct Truth {
    /// Pairs where the reference disagrees with ground truth at zero
    /// tolerance (phase 1 may legitimately miss a featureless pair; the
    /// cross-variant checks are unaffected — every variant must miss it
    /// identically).
    pub errors: usize,
    /// `max_deviation` of the reference's solved positions against the
    /// plate's ground-truth positions.
    pub position_deviation: (i64, i64),
}

impl Measured for Truth {
    fn lines(&self) -> Vec<String> {
        let (errors, deviation) = (self.errors, self.position_deviation);
        vec![format!(
            "reference truth errors: {errors} pairs, position deviation {deviation:?}"
        )]
    }
}

/// Runs all six variants on `case` and diffs each, bit for bit, against
/// the Simple-CPU reference, keeping up to 8 findings per variant. Panics
/// never; the verdict (including any divergences) is in the returned
/// [`Report`].
pub fn run_case(case: &SweepCase) -> Report<Truth> {
    let (source, plate) = (case.source(), case.plate());
    let mut report = Report::new(format!("case: {}", case.label()), Truth::default());
    let runs = variants().into_iter().map(|stitcher| {
        let overlay = Some(crate::overlay());
        (
            stitcher.name(),
            crate::reference_pass(&*stitcher, &source, overlay),
        )
    });
    let reference = report.differential(runs).expect("six variants");
    let (truth_west, truth_north) = truth_vectors(&plate);
    report.measured = Truth {
        errors: reference.result.count_errors(&truth_west, &truth_north, 0),
        position_deviation: reference.positions.max_deviation(plate.positions()),
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_case_reports_clean() {
        // correlation bits are compared: no backend may switch meanwhile
        let _guard = crate::backends::serial_guard();
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
        assert_eq!(report.ran.len(), 6);
        assert_eq!(report.measured.position_deviation, (0, 0), "{report}");
        let shown = format!("{report}");
        assert!(shown.starts_with("case: 2x2"), "{shown}");
        assert!(shown.contains("reference truth errors: "), "{shown}");
        assert!(shown.contains("6 runs agree: Simple-CPU, "), "{shown}");
    }
}
