//! # stitching — hybrid CPU-GPU large-scale microscopy image stitching
//!
//! A from-scratch Rust reproduction of *Blattner et al., "A Hybrid
//! CPU-GPU System for Stitching Large Scale Optical Microscopy Images"*
//! (ICPP 2014) — the system that became NIST's MIST tool. This facade
//! crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`fft`] | FFT substrate (FFTW/cuFFT stand-in): mixed-radix, Bluestein, 2-D, real-input, planner |
//! | [`image`] | image substrate: buffers, TIFF/PGM codecs, synthetic plate generator |
//! | [`pipeline`] | general-purpose bounded-queue pipeline framework (§VI-A's "general purpose API") |
//! | [`gpu`] | simulated accelerator: device memory, streams, events, kernels, profiler |
//! | [`core`] | the stitching system: PCIAM, six implementation variants, global optimization, composition |
//! | [`sched`] | multi-job scheduler: shared-resource arbitration, fair-share dispatch, admission control |
//! | [`serve`] | long-running job daemon: line protocol, tenant quotas, watchdogs, load shedding, graceful drain |
//! | [`sim`] | virtual-time discrete-event simulator for the paper's scaling experiments |
//! | [`trace`] | unified run observability: merged CPU+GPU span timeline, Chrome-trace export, run reports |
//!
//! ## Quickstart
//!
//! ```
//! use stitching::prelude::*;
//! use stitching::image::{ScanConfig, SyntheticPlate};
//!
//! // synthesize a small plate (stands in for the paper's A10 dataset)
//! let plate = SyntheticPlate::generate(ScanConfig {
//!     grid_rows: 2,
//!     grid_cols: 3,
//!     tile_width: 64,
//!     tile_height: 48,
//!     overlap: 0.25,
//!     ..ScanConfig::default()
//! });
//! let source = SyntheticSource::new(plate);
//!
//! // one pass with any of the six variants: phase 1 (relative
//! // displacements), phase 2 (absolute positions), phase 3 (the mosaic)
//! let stitcher = Variant::SimpleCpu.build(&Resources { threads: 1, ..Resources::default() });
//! let overlay = MosaicSpec { blend: Blend::Overlay, workers: 1, highlight: false };
//! let (policy, trace) = (FailurePolicy::default(), TraceHandle::disabled());
//! let pass = run_pass(&*stitcher, &source, &policy, Some(overlay), &trace, &|| false)?;
//! assert!(pass.result.is_complete());
//! assert!(pass.mosaic.expect("asked for, never stopped").width() > 64);
//! # Ok::<(), StitchError>(())
//! ```

pub mod cli;

pub use stitch_core as core;
pub use stitch_fft as fft;
pub use stitch_gpu as gpu;
pub use stitch_image as image;
pub use stitch_pipeline as pipeline;
pub use stitch_sched as sched;
pub use stitch_serve as serve;
pub use stitch_sim as sim;
pub use stitch_trace as trace;

/// One-stop imports for applications.
pub mod prelude {
    pub use stitch_core::prelude::*;
    pub use stitch_gpu::{Device, DeviceConfig};
    pub use stitch_image::{GridManifest, Image, ScanConfig, SyntheticPlate};
    pub use stitch_trace::{RunReport, TraceHandle};
}
