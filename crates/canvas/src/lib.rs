//! Incremental stitching onto a chunked, pyramid-downsampled canvas.
//!
//! The paper's §VI-A visualization prototype "generates image pyramids
//! … and renders a stitched image at varying resolutions"; this crate is
//! that store. A [`PyramidCanvas`] keeps the mosaic as lazily allocated
//! 256×256 chunks at pyramid scales 0–5 (scale `s` is the mosaic
//! downsampled `2^s`×), so a sparse or partially acquired plate costs
//! memory proportional to what is actually covered — never the bounding
//! box — and any window at any scale can be read on demand with
//! [`PyramidCanvas::get_region`].
//!
//! Writes are blend-mode aware and bit-exact with phase 3: resolving a
//! chunk replays [`Composer::compose_region`]'s per-pixel arithmetic
//! (same tile order, same `f64` accumulation, same rounding), and each
//! downsampled scale replays [`pyramid`]'s 2×2 round-to-nearest kernel,
//! so a fully placed canvas reads back bit-identical to one-shot
//! composition plus pyramid generation. Dirty chunks propagate up the
//! pyramid automatically and are re-resolved lazily on the next read.
//!
//! [`IncrementalStitcher`] feeds the canvas as tiles *arrive* (any
//! order): phase-1 registration runs against already-arrived neighbors
//! through the same `PciamContext` kernel the batch stitchers use, the
//! global optimizer re-solves periodically, and when a solve shifts
//! previously committed positions the canvas **re-anchors** — only the
//! tiles whose committed position actually changed are re-placed.
//!
//! [`Composer::compose_region`]: stitch_core::Composer::compose_region
//! [`pyramid`]: stitch_core::pyramid

mod incremental;
mod store;

pub use incremental::{
    run_incremental, IncrementalConfig, IncrementalOutcome, IncrementalStitcher,
};
pub use store::{CanvasConfig, CanvasStats, PyramidCanvas, SharedCanvas};
