//! Cross-backend differential oracle.
//!
//! The compute-backend contract (see `stitch_fft::backend`): swapping
//! the scalar, portable, or explicit-SIMD kernels under the stitching
//! pipeline must not move a single bit of any output — phase-1
//! displacements with their correlations, phase-2 global positions,
//! composed mosaic pixels. The NCC normalize, every FFT butterfly and the
//! exact integer CCF co-moments are bit-identical across backends by
//! construction; this oracle checks it end to end over the same
//! ground-truth sweep (including the prime/Bluestein tile sizes) the
//! cross-variant oracle runs.
//!
//! The active backend is process-global state, so every sweep in this
//! module serializes behind one lock ([`serial_guard`]) and restores
//! `auto` on exit — callers running their own backend experiments
//! (e.g. the per-backend zero-alloc assertion) should hold the same
//! guard.

use std::sync::{Mutex, MutexGuard, PoisonError};

use stitch_core::SimpleCpuStitcher;
use stitch_fft::backend::{self, BackendChoice};

use crate::cases::SweepCase;
use crate::outputs::Report;

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

/// Runs the Simple-CPU pipeline on `case` once per backend and diffs
/// every output, bit for bit, against the scalar reference. Restores the
/// `auto` backend before returning.
pub fn run_backend_case(case: &SweepCase) -> Report {
    let _guard = serial_guard();
    let source = case.source();
    let mut report = Report::new(format!("case: {}", case.label()), ());
    let runs = choices().into_iter().map(|choice| {
        backend::select(choice);
        let overlay = Some(crate::overlay());
        let outputs = crate::reference_pass(&SimpleCpuStitcher::default(), &source, overlay);
        (backend::resolved_name(choice).to_string(), outputs)
    });
    report.differential(runs);
    backend::select(BackendChoice::Auto);
    report
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
        assert_eq!(report.ran.len(), choices().len());
        assert_eq!(report.ran[0], "scalar");
        assert!(report.is_clean(), "{report}");
    }
}
