//! # stitch-shard — sharded out-of-core stitching
//!
//! Breaks the single-grid size ceiling: the tile grid is partitioned
//! into rectangular sub-grids ([`ShardPlan`]), each stitched
//! independently as a job on the existing `stitch-sched` scheduler
//! (sharing its job slots, FFT plan cache, and memory-budget
//! arbiter), then merged back into one absolute frame:
//!
//! 1. **Shard jobs** — each shard is a [`SubgridSource`] view of the
//!    full plate submitted via [`StitchJob::over_source`]; admission
//!    control sizes reservations from the *shard* geometry, so with a
//!    fixed shard size the arbiter high-water is `workers × one shard`
//!    no matter how large the plate grows.
//! 2. **Seam registration** — the adjacent pairs that cross shard
//!    boundaries are registered with the identical PCIAM kernel the
//!    in-shard stitchers use ([`register_seams_on`] the driver's
//!    workers), two tiles live per pair in flight.
//! 3. **Merge + solve** — shard-local displacements and seam
//!    displacements reassemble the exact full-grid pair graph
//!    ([`merge_results`]); the committed positions come from the
//!    standard [`GlobalOptimizer`](stitch_core::GlobalOptimizer) on
//!    that graph and are therefore **bit-identical to the unsharded
//!    solve**. A hierarchical anchor solve ([`solve_hierarchical`])
//!    provides the provisional streaming frame and a consistency audit.
//! 4. **Banded composition** — the mosaic streams out in bounded
//!    full-width row bands
//!    ([`Composer::compose_bands`](stitch_core::Composer::compose_bands)),
//!    so composition memory is one band plus the row of tiles it
//!    intersects.
//!
//! Entry points: [`stitch_sharded`] (collects the mosaic when
//! composition is requested), [`stitch_sharded_streaming`] (hands
//! bands to a sink and never materializes the mosaic), and
//! [`stitch_sharded_into_canvas`] (bakes the bands into a
//! [`stitch_canvas::SharedCanvas`] pyramid for on-demand region reads
//! at any scale).

#![warn(missing_docs)]

pub mod driver;
pub mod merge;
pub mod plan;

pub use driver::{
    stitch_sharded, stitch_sharded_into_canvas, stitch_sharded_streaming, ShardConfig, ShardError,
    ShardOutcome,
};
pub use merge::{
    merge_results, register_seams, register_seams_on, solve_hierarchical, HierarchicalSolve,
    SeamOutcome,
};
pub use plan::{SeamPair, Shard, ShardPlan};

// re-exported for doc links and driver callers
#[doc(no_inline)]
pub use stitch_core::SubgridSource;
#[doc(no_inline)]
pub use stitch_sched::StitchJob;
