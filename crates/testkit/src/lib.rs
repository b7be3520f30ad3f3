//! # stitch-testkit — conformance and stress harness for the stitching system
//!
//! The paper's core claim is that all implementation variants compute the
//! *same* stitching result and differ only in schedule. This crate turns
//! that claim into machine-checked oracles:
//!
//! * [`canvas`] — the incremental-canvas differential oracle: a
//!   seeded-random arrival order with mid-run re-anchors fed through
//!   `stitch_canvas::run_incremental` must leave every pyramid scale
//!   bit-identical to one-shot compose + `pyramid()`, for every blend
//!   mode, with peak canvas residency bounded by touched chunks; plus
//!   a seeded stress harness over random geometries, chunk sizes,
//!   solve cadences, out-of-bounds reads, and resets;
//! * [`cases`] — a ground-truth grid generator over
//!   `stitch_image::synth`: textured scenes cut into `r×c` tile grids
//!   with known absolute positions, swept over overlap %, noise level,
//!   and tile sizes including awkward FFT lengths (primes → Bluestein);
//! * [`oracle`] — a cross-variant differential oracle that runs all six
//!   variants (`stitch_core::Variant::ALL`) on the same `TileSource` and asserts
//!   bit-identical phase-1 displacements, phase-2 positions, and composed
//!   mosaics, producing a structured diff report on mismatch;
//! * [`backends`] — a cross-*backend* differential oracle: the same
//!   pipeline under each `stitch_fft::backend` compute backend (scalar /
//!   portable / SIMD) must produce identical integer displacements,
//!   positions and mosaics over the same ground-truth sweep;
//! * [`channels`] — the multi-channel replay oracle: every channel and
//!   plane of a stacked acquisition must be composed with positions
//!   bit-identical to the reference-channel solo run (sequential and
//!   scheduler-backed drivers alike), plus a corrected-vs-uncorrected
//!   registration-accuracy sweep over vignetting strengths;
//! * [`metamorphic`] — metamorphic properties of PCIAM:
//!   translation consistency, flip symmetry, intensity-scale invariance
//!   of the peak location;
//! * [`serve_chaos`] — a seeded chaos/soak harness for the
//!   `stitch serve` daemon: tenant storms, hung and panicking jobs,
//!   mid-run cancels, malformed lines, and client disconnects, with a
//!   deterministic fate digest and lease/queue-depth audits;
//! * [`shard`] — the sharded-vs-unsharded differential oracle and a
//!   seeded shard stress harness: random shard geometries (including
//!   degenerate 1×1/1×N/N×1 and uneven remainders), tight memory
//!   budgets, boundary-tile fault injection, and mid-run shard
//!   cancellation, with leak audits on every exit path;
//! * [`stress`] — a seeded stress runner that drives the pipelined
//!   variants under randomized-but-seeded queue capacities, worker
//!   counts, transfer-model latencies, and fault specs; the same seed
//!   always yields the same mosaic and health report.
//!
//! Every battery speaks one language: a run's [`Outputs`] (displacements,
//! positions, mosaic) are diffed against a reference by [`Outputs::diff`] —
//! bit for bit, or integer offsets only across backends — and digested by
//! [`Outputs::digest`]; what differs is a [`Mismatch`] in the battery's
//! one [`Report`]. Every battery's reference run is one
//! `stitch_core::run_pass`, the driver the product runs. The top-level
//! `tests/conformance.rs` suite drives the oracle; setting
//! `STITCH_TESTKIT_EXHAUSTIVE=1` extends the sweep (see [`cases::sweep`]).

#![warn(missing_docs)]

pub mod alloc;
pub mod backends;
pub mod canvas;
pub mod cases;
pub mod channels;
pub mod metamorphic;
pub mod oracle;
pub mod outputs;
pub mod sched_stress;
pub mod serve_chaos;
pub mod shard;
pub mod stress;

pub use backends::run_backend_case;
pub use canvas::{run_canvas_differential, run_canvas_stress, CanvasStressOutcome};
pub use cases::{exhaustive_sweep, standard_sweep, sweep, SweepCase};
pub use channels::{multi_truth_vectors, run_channel_differential, AccuracyPoint};
pub use oracle::{run_case, variants, Truth};
pub use outputs::{Measured, Mismatch, Outputs, Report};
pub use sched_stress::{
    run_job_solo, run_sched_stress, solo_digests, JobDigest, SchedStressConfig, SchedStressOutcome,
};
pub use serve_chaos::{
    run_serve_chaos, run_serve_soak, JobFate, ServeChaosConfig, ServeChaosOutcome, ServeSoakOutcome,
};
pub use shard::{
    run_shard_differential, run_shard_stress, shard_cases, ShardCaseSpec, ShardStressOutcome,
};
pub use stress::{run_stress, StressConfig, StressOutcome};

use stitch_core::{
    default_workers, run_pass, Blend, FailurePolicy, MosaicSpec, Stitcher, TileSource,
};
use stitch_trace::TraceHandle;

/// A battery's reference run: one untraced pass under the default policy,
/// composed per `mosaic`. The plates are clean: a phase-1 failure panics.
fn reference_pass(
    stitcher: &dyn Stitcher,
    source: &dyn TileSource,
    mosaic: Option<MosaicSpec>,
) -> Outputs {
    let (policy, untraced) = (FailurePolicy::default(), TraceHandle::disabled());
    let pass = run_pass(stitcher, source, &policy, mosaic, &untraced, &|| false)
        .unwrap_or_else(|e| panic!("{}: {e}", stitcher.name()));
    Outputs {
        result: pass.result,
        positions: pass.positions.expect("never stopped"),
        mosaic: pass.mosaic,
    }
}

/// Overlay on every core: the batteries' phase 3.
fn overlay() -> MosaicSpec {
    MosaicSpec {
        blend: Blend::Overlay,
        workers: default_workers(),
        highlight: false,
    }
}
