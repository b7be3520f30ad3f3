//! Incremental (arrival-order) stitching onto a [`SharedCanvas`].
//!
//! Tiles are offered in whatever order they arrive from the microscope.
//! Each arrival is registered against its already-arrived grid
//! neighbors through the exact `PciamContext` kernel the batch stitchers
//! use — phase 1 is a pure per-pair function, so the accumulated
//! west/north displacement sets are bit-identical to a batch run no
//! matter the arrival order. Every [`IncrementalConfig::solve_every`]
//! arrivals the global optimizer re-solves the partial graph and the
//! canvas **re-anchors**: only tiles whose committed position changed
//! are re-placed (dirtying just their footprints). [`finish`] runs the
//! final solve over the complete graph, whose positions — and therefore
//! the canvas content — are bit-identical to the one-shot
//! `SimpleCpu → GlobalOptimizer → Composer` pipeline.
//!
//! [`finish`]: IncrementalStitcher::finish

use std::sync::Arc;

use stitch_core::{
    AbsolutePositions, FailurePolicy, FaultTracker, GlobalOptimizer, GridShape, OpCounters,
    PairLedger, PciamContext, PooledSpectrum, SpectrumPool, StitchError, StitchResult, TileId,
    TileSource,
};
use stitch_fft::{PlanMode, Planner};
use stitch_image::Image;

use crate::store::SharedCanvas;

/// Configuration for [`IncrementalStitcher`].
#[derive(Clone, Debug)]
pub struct IncrementalConfig {
    /// Re-solve (and re-anchor) every this many arrivals; `0` solves
    /// only at [`IncrementalStitcher::finish`].
    pub solve_every: usize,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig { solve_every: 8 }
    }
}

/// What a finished incremental run produced.
pub struct IncrementalOutcome {
    /// The accumulated phase-1 pair graph (west/north displacements are
    /// bit-identical to a batch run over the same source).
    pub result: StitchResult,
    /// The final solve (bit-identical to the one-shot solve).
    pub positions: AbsolutePositions,
    /// Tiles offered.
    pub placed: usize,
    /// Solves performed, including the final one.
    pub solves: usize,
    /// Re-anchor movements: placements whose committed canvas position
    /// changed after a solve.
    pub moved: u64,
}

/// A tile resident for registration: its forward transform and pixels
/// (shared with the canvas placement), held by the ledger until every
/// neighbor pair is registered or written off — the batch stitchers'
/// §IV-A early release.
struct Resident {
    img: Arc<Image<u16>>,
    fft: PooledSpectrum,
}

/// An offered tile's pixels and its committed canvas position.
#[derive(Clone)]
struct Placed {
    img: Arc<Image<u16>>,
    pos: (i64, i64),
}

/// Streams tiles in arrival order into registration, periodic solves,
/// and canvas placement.
pub struct IncrementalStitcher {
    shape: GridShape,
    tile_dims: (usize, usize),
    cfg: IncrementalConfig,
    ctx: PciamContext,
    result: StitchResult,
    ledger: PairLedger<Resident>,
    canvas: Arc<SharedCanvas>,
    /// Per tile index; `None` = not offered.
    placed: Vec<Option<Placed>>,
    last_solve: Option<AbsolutePositions>,
    pairs_registered: usize,
    since_solve: usize,
    solves: usize,
    moved: u64,
}

impl IncrementalStitcher {
    /// Creates a stitcher writing to `canvas`. `tile_dims` is the
    /// uniform tile size of the plate being acquired.
    pub fn new(
        shape: GridShape,
        tile_dims: (usize, usize),
        cfg: IncrementalConfig,
        canvas: Arc<SharedCanvas>,
    ) -> IncrementalStitcher {
        IncrementalStitcher::on_stage(shape, (tile_dims, None), cfg, canvas)
    }

    /// [`IncrementalStitcher::new`] on a stage at nominal `overlap`, whose
    /// pairs are searched as the batch stitchers search them.
    fn on_stage(
        shape: GridShape,
        (tile_dims, overlap): ((usize, usize), Option<f64>),
        cfg: IncrementalConfig,
        canvas: Arc<SharedCanvas>,
    ) -> IncrementalStitcher {
        let (w, h) = tile_dims;
        assert!(w > 0 && h > 0, "tile dims must be positive");
        let planner = Planner::new(PlanMode::Estimate);
        let pool = SpectrumPool::new(PciamContext::spectrum_len(tile_dims, overlap));
        let counters = OpCounters::new_shared();
        let ctx = PciamContext::with_pool(&planner, tile_dims, overlap, counters, pool);
        IncrementalStitcher {
            shape,
            tile_dims,
            cfg,
            ctx,
            result: StitchResult::empty(shape),
            ledger: PairLedger::new(shape),
            canvas,
            placed: vec![None; shape.tiles()],
            last_solve: None,
            pairs_registered: 0,
            since_solve: 0,
            solves: 0,
            moved: 0,
        }
    }

    /// The canvas being fed.
    pub fn canvas(&self) -> &Arc<SharedCanvas> {
        &self.canvas
    }

    /// Tiles offered so far.
    pub fn arrived(&self) -> usize {
        self.placed.iter().flatten().count()
    }

    /// Offers one arrived tile. Registers it against every
    /// already-arrived neighbor, places it on the canvas at the current
    /// best position estimate, and re-solves when the cadence says so.
    /// Panics if `id` is outside the grid, already offered, or the
    /// image's dimensions don't match the plate's tile size.
    pub fn offer(&mut self, id: TileId, image: Image<u16>) {
        assert!(
            id.row < self.shape.rows && id.col < self.shape.cols,
            "tile r{}c{} outside the {}x{} grid",
            id.row,
            id.col,
            self.shape.rows,
            self.shape.cols
        );
        let idx = self.shape.index(id);
        assert!(
            self.placed[idx].is_none(),
            "tile r{}c{} offered twice",
            id.row,
            id.col
        );
        assert_eq!(image.dims(), self.tile_dims, "tile dimension mismatch");
        let img = Arc::new(image);
        let resident = Resident {
            img: Arc::clone(&img),
            fft: self.ctx.forward_fft(&img),
        };
        // register against neighbors that have already arrived; the
        // ledger's canonical slot and operand order are the batch
        // stitchers', so the result is bit-identical to a batch run
        self.ledger.arrive(id, resident, |a, b, kind, slot| {
            let d = self
                .ctx
                .displacement_oriented(&a.fft, &b.fft, &a.img, &b.img, Some(kind));
            self.result.set(kind, slot, d);
            self.pairs_registered += 1;
        });
        // provisional placement: last solve if one exists, else the
        // nominal (non-overlapping) grid position — a later solve
        // re-anchors it
        let pos = match &self.last_solve {
            Some(solve) => solve.get(id),
            None => (
                id.col as i64 * self.tile_dims.0 as i64,
                id.row as i64 * self.tile_dims.1 as i64,
            ),
        };
        self.canvas.place_tile(id, pos, Arc::clone(&img));
        self.placed[idx] = Some(Placed { img, pos });
        self.since_solve += 1;
        if self.cfg.solve_every > 0
            && self.since_solve >= self.cfg.solve_every
            && self.pairs_registered > 0
        {
            self.resolve();
        }
    }

    /// Declares that `id` will never be offered (it failed permanently):
    /// its pairs are written off, so neighbors waiting only on it release
    /// their transforms now instead of at [`finish`](Self::finish).
    pub fn skip(&mut self, id: TileId) {
        self.ledger.fail(id);
    }

    /// Solves the partial graph now and re-anchors the canvas: every
    /// arrived tile whose solved position differs from its committed one
    /// is re-placed. Returns how many tiles moved.
    pub fn resolve(&mut self) -> usize {
        if self.pairs_registered == 0 {
            return 0;
        }
        let positions = GlobalOptimizer::default().solve(&self.result);
        self.solves += 1;
        self.since_solve = 0;
        let mut moved_now = 0;
        // deterministic re-anchor order (row-major)
        for id in self.shape.ids() {
            let Some(placed) = &mut self.placed[self.shape.index(id)] else {
                continue;
            };
            let p = positions.get(id);
            if p != placed.pos {
                self.canvas.place_tile(id, p, Arc::clone(&placed.img));
                placed.pos = p;
                moved_now += 1;
                self.moved += 1;
            }
        }
        self.last_solve = Some(positions);
        moved_now
    }

    /// Runs the final solve and re-anchor, consuming the stitcher. After
    /// this, a fully offered grid's canvas is bit-identical to one-shot
    /// compose + pyramid.
    pub fn finish(mut self) -> IncrementalOutcome {
        self.resolve();
        let positions = self.last_solve.take().unwrap_or_else(|| {
            // no pair ever registered (e.g. a 1×1 grid): commit the
            // provisional nominal positions
            AbsolutePositions {
                shape: self.shape,
                positions: self
                    .shape
                    .ids()
                    .map(|id| {
                        (
                            id.col as i64 * self.tile_dims.0 as i64,
                            id.row as i64 * self.tile_dims.1 as i64,
                        )
                    })
                    .collect(),
            }
        });
        IncrementalOutcome {
            placed: self.arrived(),
            result: self.result,
            positions,
            solves: self.solves,
            moved: self.moved,
        }
    }
}

/// Drives a full incremental run: loads `order` (the arrival order, which
/// may stop early) from `source` under `policy`, offers each tile — or
/// writes it off when it fails permanently — and finishes. The canvas
/// ends bit-identical to one-shot composition of the same source.
pub fn run_incremental(
    source: &dyn TileSource,
    order: impl IntoIterator<Item = TileId>,
    cfg: IncrementalConfig,
    canvas: Arc<SharedCanvas>,
    policy: &FailurePolicy,
) -> Result<IncrementalOutcome, StitchError> {
    let shape = source.shape();
    let stage = (source.tile_dims(), source.nominal_overlap());
    let mut inc = IncrementalStitcher::on_stage(shape, stage, cfg, canvas);
    let tracker = FaultTracker::new(shape);
    for id in order {
        match tracker.load(source, id, &policy.retry) {
            Some(img) => inc.offer(id, img),
            None => inc.skip(id),
        }
    }
    let mut outcome = inc.finish();
    outcome.result.health = tracker.finish(policy)?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CanvasConfig;
    use stitch_core::{Blend, Composer, SimpleCpuStitcher, Stitcher, SyntheticSource};
    use stitch_image::{ScanConfig, SyntheticPlate};

    fn plate(rows: usize, cols: usize) -> SyntheticSource {
        let cfg = ScanConfig {
            grid_rows: rows,
            grid_cols: cols,
            tile_width: 24,
            tile_height: 18,
            ..ScanConfig::default()
        };
        SyntheticSource::new(SyntheticPlate::generate(cfg))
    }

    #[test]
    fn arrival_order_reproduces_batch_displacements() {
        let src = plate(3, 3);
        let batch = SimpleCpuStitcher::default().compute_displacements(&src);
        // reverse row-major arrival: every pair registers through the
        // "neighbor already arrived" path at least once in each role
        let order: Vec<TileId> = {
            let mut ids: Vec<_> = src.shape().ids().collect();
            ids.reverse();
            ids
        };
        let canvas = Arc::new(SharedCanvas::new(CanvasConfig {
            chunk: 16,
            scales: 2,
            ..CanvasConfig::default()
        }));
        let out = run_incremental(
            &src,
            order,
            IncrementalConfig::default(),
            canvas,
            &FailurePolicy::default(),
        )
        .expect("runs");
        assert_eq!(out.result.west, batch.west);
        assert_eq!(out.result.north, batch.north);
        assert_eq!(out.placed, 9);
    }

    #[test]
    fn final_canvas_matches_one_shot_compose() {
        let src = plate(2, 3);
        let batch = SimpleCpuStitcher::default().compute_displacements(&src);
        let positions = GlobalOptimizer::default().solve(&batch);
        let composer = Composer::new(positions, Blend::Overlay);
        let full = composer.compose(&src);
        let order: Vec<TileId> = {
            let mut ids: Vec<_> = src.shape().ids().collect();
            ids.swap(0, 5);
            ids.swap(2, 3);
            ids
        };
        let canvas = Arc::new(SharedCanvas::new(CanvasConfig {
            chunk: 16,
            scales: 2,
            ..CanvasConfig::default()
        }));
        // force several mid-run re-anchors
        let cfg = IncrementalConfig { solve_every: 2 };
        let out = run_incremental(
            &src,
            order,
            cfg,
            Arc::clone(&canvas),
            &FailurePolicy::default(),
        )
        .expect("runs");
        assert!(out.moved > 0, "solves must have re-anchored something");
        assert!(out.solves >= 2);
        let (w, h) = full.dims();
        let read = canvas.get_region(0, 0, 0, w, h);
        assert_eq!(read.pixels(), full.pixels());
    }

    #[test]
    fn preview_is_readable_mid_run() {
        let src = plate(2, 2);
        let canvas = Arc::new(SharedCanvas::new(CanvasConfig {
            chunk: 16,
            scales: 2,
            ..CanvasConfig::default()
        }));
        let mut inc = IncrementalStitcher::new(
            src.shape(),
            src.tile_dims(),
            IncrementalConfig::default(),
            Arc::clone(&canvas),
        );
        inc.offer(TileId::new(0, 0), src.load(TileId::new(0, 0)).unwrap());
        // one tile placed: its nominal footprint reads back non-zero
        let read = canvas.get_region(0, 0, 0, 24, 18);
        assert!(read.pixels().iter().any(|&p| p != 0));
        inc.offer(TileId::new(0, 1), src.load(TileId::new(0, 1)).unwrap());
        inc.offer(TileId::new(1, 0), src.load(TileId::new(1, 0)).unwrap());
        inc.offer(TileId::new(1, 1), src.load(TileId::new(1, 1)).unwrap());
        let out = inc.finish();
        assert_eq!(out.placed, 4);
    }

    #[test]
    fn failed_tile_releases_neighbor_transforms_before_finish() {
        use stitch_core::{FaultSpec, FaultySource};
        let faulty = FaultySource::new(plate(3, 3), FaultSpec::parse("corrupt=1.1").unwrap().0);
        let policy = FailurePolicy::partial();
        let batch = SimpleCpuStitcher::default()
            .try_compute_displacements(&faulty, &policy)
            .expect("partial batch run");
        let canvas = || Arc::new(SharedCanvas::new(CanvasConfig::default()));

        // the driver's loop, by hand, to look at the stitcher before finish
        let shape = faulty.shape();
        let mut inc = IncrementalStitcher::new(
            shape,
            faulty.tile_dims(),
            IncrementalConfig::default(),
            canvas(),
        );
        for id in shape.ids() {
            match faulty.load(id) {
                Ok(img) => inc.offer(id, img),
                Err(_) => inc.skip(id),
            }
        }
        assert_eq!(inc.arrived(), 8);
        assert_eq!(
            inc.ledger.live(),
            0,
            "the four neighbors of the failed center must not wait for it"
        );
        let by_hand = inc.finish();

        let driven = run_incremental(
            &faulty,
            shape.ids(),
            IncrementalConfig::default(),
            canvas(),
            &policy,
        )
        .expect("allow_partial run");
        assert_eq!(driven.result.health.failed_tiles(), vec![TileId::new(1, 1)]);
        for out in [&by_hand, &driven] {
            assert_eq!(out.result.west, batch.west);
            assert_eq!(out.result.north, batch.north);
            assert_eq!(out.placed, 8);
        }
    }

    #[test]
    #[should_panic(expected = "offered twice")]
    fn double_offer_panics() {
        let src = plate(2, 2);
        let canvas = Arc::new(SharedCanvas::new(CanvasConfig::default()));
        let mut inc = IncrementalStitcher::new(
            src.shape(),
            src.tile_dims(),
            IncrementalConfig::default(),
            canvas,
        );
        let img = src.load(TileId::new(0, 0)).unwrap();
        inc.offer(TileId::new(0, 0), img.clone());
        inc.offer(TileId::new(0, 0), img);
    }
}
