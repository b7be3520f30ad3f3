//! Cross-backend differential oracle.
//!
//! The compute-backend contract (see `stitch_fft::backend`): swapping
//! the scalar, portable, or explicit-SIMD kernels under the stitching
//! pipeline must not move a single *integer* observable — phase-1
//! displacements, phase-2 global positions, composed mosaic pixels.
//! The NCC normalize, the max reduction and every FFT butterfly are
//! bit-identical across backends by construction; only the CCF
//! co-moments re-associate, and the disambiguation they feed is
//! gated here empirically, over the same ground-truth sweep (including
//! the prime/Bluestein tile sizes) the cross-variant oracle runs.
//!
//! The active backend is process-global state, so every sweep in this
//! module serializes behind one lock ([`serial_guard`]) and restores
//! `auto` on exit — callers running their own backend experiments
//! (e.g. the per-backend zero-alloc assertion) should hold the same
//! guard.

use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use stitch_core::prelude::*;
use stitch_fft::backend::{self, BackendChoice};
use stitch_image::Image;

use crate::cases::SweepCase;

/// Serializes all backend switching in this process.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Takes the global backend lock. A panic in a previous holder does not
/// invalidate the lock's purpose (mutual exclusion), so poisoning is
/// ignored.
pub fn serial_guard() -> MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The backend choices the differential sweep covers. `Simd` is always
/// included: off x86_64 (or off AVX2 hosts) it resolves to the portable
/// implementation, which must of course still agree.
pub fn choices() -> Vec<BackendChoice> {
    vec![
        BackendChoice::Scalar,
        BackendChoice::Portable,
        BackendChoice::Simd,
    ]
}

/// One recorded cross-backend divergence.
#[derive(Clone, Debug)]
pub struct BackendMismatch {
    /// Resolved name of the diverging backend.
    pub backend: &'static str,
    /// What diverged, with location and both values.
    pub detail: String,
}

impl fmt::Display for BackendMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.backend, self.detail)
    }
}

/// The oracle's verdict for one sweep case.
#[derive(Clone, Debug)]
pub struct BackendReport {
    /// Human-readable case identifier.
    pub label: String,
    /// Resolved backend names that ran, scalar reference first.
    pub backends: Vec<&'static str>,
    /// Every divergence found.
    pub mismatches: Vec<BackendMismatch>,
}

impl BackendReport {
    /// True when every backend agreed on every integer observable.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for BackendReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "case: {}", self.label)?;
        if self.is_clean() {
            write!(f, "backends {:?} identical", self.backends)
        } else {
            writeln!(f, "{} mismatches:", self.mismatches.len())?;
            for m in &self.mismatches {
                writeln!(f, "  {m}")?;
            }
            Ok(())
        }
    }
}

struct Outputs {
    result: StitchResult,
    positions: AbsolutePositions,
    mosaic: Image<u16>,
}

fn run_under(choice: BackendChoice, source: &impl TileSource) -> Outputs {
    backend::select(choice);
    let overlay = Some(crate::overlay());
    let (result, positions, mosaic) =
        crate::reference_pass(&SimpleCpuStitcher::default(), source, overlay);
    Outputs {
        result,
        positions,
        mosaic: mosaic.expect("composed"),
    }
}

/// Runs the Simple-CPU pipeline on `case` once per backend and diffs
/// every integer observable against the scalar reference. Restores the
/// `auto` backend before returning.
pub fn run_backend_case(case: &SweepCase) -> BackendReport {
    let _guard = serial_guard();
    let source = case.source();

    let mut report = BackendReport {
        label: case.label(),
        backends: Vec::new(),
        mismatches: Vec::new(),
    };

    let mut reference: Option<Outputs> = None;
    for choice in choices() {
        let name = backend::resolved_name(choice);
        report.backends.push(name);
        let out = run_under(choice, &source);
        match &reference {
            None => reference = Some(out),
            Some(r) => diff_backend(name, r, &out, &mut report),
        }
    }
    backend::select(BackendChoice::Auto);
    report
}

fn diff_backend(name: &'static str, reference: &Outputs, got: &Outputs, rep: &mut BackendReport) {
    let shape = got.result.shape;
    for id in shape.ids() {
        let i = shape.index(id);
        for (axis, g, want) in [
            ("west", got.result.west[i], reference.result.west[i]),
            ("north", got.result.north[i], reference.result.north[i]),
        ] {
            // Integer displacement only: the correlation channel carries
            // CCF values, whose co-moments legitimately re-associate.
            let gxy = g.map(|d| (d.x, d.y));
            let wxy = want.map(|d| (d.x, d.y));
            if gxy != wxy {
                rep.mismatches.push(BackendMismatch {
                    backend: name,
                    detail: format!(
                        "{axis} displacement at tile ({}, {}): scalar {wxy:?}, got {gxy:?}",
                        id.row, id.col
                    ),
                });
            }
        }
        let (gp, wp) = (got.positions.get(id), reference.positions.get(id));
        if gp != wp {
            rep.mismatches.push(BackendMismatch {
                backend: name,
                detail: format!(
                    "position of tile ({}, {}): scalar {wp:?}, got {gp:?}",
                    id.row, id.col
                ),
            });
        }
    }
    if got.mosaic.dims() != reference.mosaic.dims() {
        rep.mismatches.push(BackendMismatch {
            backend: name,
            detail: format!(
                "mosaic dims: scalar {:?}, got {:?}",
                reference.mosaic.dims(),
                got.mosaic.dims()
            ),
        });
    } else if got.mosaic != reference.mosaic {
        let w = got.mosaic.width();
        let (idx, (a, b)) = got
            .mosaic
            .pixels()
            .iter()
            .zip(reference.mosaic.pixels())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| (i, (*a, *b)))
            .expect("mosaics differ");
        rep.mismatches.push(BackendMismatch {
            backend: name,
            detail: format!(
                "mosaic pixel at ({}, {}): scalar {b}, got {a}",
                idx % w,
                idx / w
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_choice_list_covers_all_non_auto_backends() {
        let c = choices();
        assert_eq!(c.len(), BackendChoice::NAMES.len() - 1);
        assert!(!c.contains(&BackendChoice::Auto));
    }

    #[test]
    fn single_case_runs_clean_and_restores_auto() {
        let case = SweepCase {
            rows: 2,
            cols: 2,
            tile_width: 48,
            tile_height: 40,
            overlap: 0.25,
            noise_sigma: 30.0,
            seed: 21,
        };
        let report = run_backend_case(&case);
        assert_eq!(report.backends.len(), choices().len());
        assert_eq!(report.backends[0], "scalar");
        assert!(report.is_clean(), "{report}");
    }
}
