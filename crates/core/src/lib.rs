//! # stitch-core — hybrid CPU-GPU image stitching (ICPP 2014)
//!
//! The paper's contribution: Fourier-based (phase-correlation) stitching
//! of microscopy tile grids, organized as pipelines that overlap disk
//! I/O, host↔device transfers and compute while staying inside strict
//! memory limits.
//!
//! ## The three phases (§III)
//!
//! 1. **Relative displacements** — [`pciam`] implements Fig 1/2/3 (FFT →
//!    NCC → inverse FFT → max → CCF disambiguation); the [`Stitcher`]
//!    implementations compute it for every adjacent pair:
//!    * [`SimpleCpuStitcher`] — sequential reference (§IV-A);
//!    * [`MtCpuStitcher`] — SPMD spatial decomposition (§IV-A);
//!    * [`PipelinedCpuStitcher`] — 3-stage CPU pipeline (§IV-B);
//!    * [`SimpleGpuStitcher`] — synchronous single-stream GPU port (§IV-A);
//!    * [`PipelinedGpuStitcher`] — the paper's six-stage multi-GPU
//!      pipeline (§IV-B, Fig 8);
//!    * [`FijiStyleStitcher`] — ImageJ/Fiji-plugin-style baseline (§V).
//! 2. **Global optimization** — [`GlobalOptimizer`] resolves the
//!    over-constrained displacement graph (spanning tree or weighted
//!    least squares) into absolute positions.
//! 3. **Composition** — [`Composer`] renders the mosaic (overlay /
//!    average / feathered blends, on-demand regions, pyramids).
//!
//! Every product caller builds its stitcher with [`Variant::build`] and
//! runs the three phases with [`run_pass`] ([`pass`]):
//!
//! ```no_run
//! use stitch_core::prelude::*;
//! use stitch_image::{ScanConfig, SyntheticPlate};
//! use stitch_trace::TraceHandle;
//!
//! let plate = SyntheticPlate::generate(ScanConfig::default());
//! let source = SyntheticSource::new(plate);
//! let stitcher = Variant::PipelinedCpu.build(&Resources { threads: 4, ..Resources::default() });
//! let overlay = MosaicSpec { blend: Blend::Overlay, workers: 4, highlight: false };
//! let (policy, trace) = (FailurePolicy::default(), TraceHandle::disabled());
//! let pass = run_pass(stitcher.as_ref(), &source, &policy, Some(overlay), &trace, &|| false)?;
//! let mosaic = pass.mosaic.expect("asked for and never stopped");
//! println!("stitched {}x{} pixels", mosaic.width(), mosaic.height());
//! # Ok::<(), StitchError>(())
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod channel;
pub mod compose;
pub mod fault;
pub mod global_opt;
pub mod grid;
pub mod hostpool;
pub mod mt_cpu;
pub mod opcount;
pub mod pairgraph;
pub mod pass;
pub mod pciam;
mod phase1;
pub mod pipelined_cpu;
pub mod pipelined_gpu;
pub mod quality;
pub mod simple_cpu;
pub mod simple_gpu;
pub mod source;
pub mod stitcher;
pub mod types;

pub use baseline::FijiStyleStitcher;
pub use channel::{
    estimate_channel_flat_field, run_channel_plan, ChannelPlan, ChannelRun, ChannelSession,
    ComposeUnit, CorrectedSource, MaxZSource, MultiDirSource, MultiSyntheticSource,
    MultiTileSource, PlaneSource, ZMode,
};
pub use compose::{pyramid, Blend, BlendWindow, Composer};
pub use fault::{
    load_with_retry, FailurePolicy, FaultSpec, FaultTracker, FaultySource, HealthReport,
    RetryPolicy, SourceError, StitchError, TileStatus,
};
pub use global_opt::{AbsolutePositions, GlobalOptimizer, Method};
pub use grid::{GridShape, Traversal};
pub use hostpool::{PooledSpectrum, SpectrumPool, WeakSpectrumPool};
pub use mt_cpu::MtCpuStitcher;
pub use opcount::{OpCounters, OpCounts};
pub use pairgraph::PairLedger;
pub use pass::{run_pass, MosaicSpec, Pass, Resources, Variant};
pub use pciam::PciamContext;
#[doc(hidden)]
pub use pipelined_cpu::TransformKind;
pub use pipelined_cpu::{PipelinedCpuConfig, PipelinedCpuStitcher};
pub use pipelined_gpu::{PipelinedGpuConfig, PipelinedGpuStitcher};
pub use quality::{correlation_stats, coverage, seam_error, CorrelationStats, SeamError};
pub use simple_cpu::SimpleCpuStitcher;
pub use simple_gpu::SimpleGpuStitcher;
pub use source::{DirSource, MemorySource, SubgridSource, SyntheticSource, TileSource};
pub use stitch_image::par::{default_workers, par_map};
pub use stitcher::{truth_vectors, StitchResult, Stitcher, TruthVector};
pub use types::{Displacement, PairKind, TileId};

/// Convenience re-exports for application code.
pub mod prelude {
    pub use crate::channel::{
        run_channel_plan, ChannelPlan, ChannelSession, ComposeUnit, MultiDirSource,
        MultiSyntheticSource, MultiTileSource, ZMode,
    };
    pub use crate::compose::{Blend, Composer};
    pub use crate::fault::{
        FailurePolicy, FaultSpec, FaultySource, HealthReport, RetryPolicy, SourceError,
        StitchError, TileStatus,
    };
    pub use crate::global_opt::{AbsolutePositions, GlobalOptimizer, Method};
    pub use crate::grid::{GridShape, Traversal};
    pub use crate::pass::{run_pass, MosaicSpec, Pass, Resources, Variant};
    pub use crate::source::{DirSource, MemorySource, SubgridSource, SyntheticSource, TileSource};
    pub use crate::stitcher::{truth_vectors, StitchResult, Stitcher};
    pub use crate::types::{Displacement, PairKind, TileId};
    pub use crate::{
        FijiStyleStitcher, MtCpuStitcher, PipelinedCpuStitcher, PipelinedGpuStitcher,
        SimpleCpuStitcher, SimpleGpuStitcher,
    };
}
