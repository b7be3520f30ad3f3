//! The stitcher interface: phase 1 of the paper's computation — relative
//! displacements for every adjacent tile pair (Fig 4).

use std::time::Duration;

use crate::fault::{FailurePolicy, HealthReport, StitchError, TileStatus};
use crate::grid::GridShape;
use crate::opcount::OpCounts;
use crate::source::TileSource;
use crate::types::{Displacement, PairKind, TileId};

/// Phase-1 output: per-pair relative displacements.
///
/// `west[i]` is the displacement of tile `i` relative to its **western**
/// neighbor (`position(i) − position(west(i))`, `None` in column 0);
/// `north[i]` relative to its **northern** neighbor (`None` in row 0).
#[derive(Clone, Debug)]
pub struct StitchResult {
    /// Grid dimensions.
    pub shape: GridShape,
    /// West-pair displacements, row-major.
    pub west: Vec<Option<Displacement>>,
    /// North-pair displacements, row-major.
    pub north: Vec<Option<Displacement>>,
    /// End-to-end wall time of the displacement computation.
    pub elapsed: Duration,
    /// Operation counts observed during the computation (Table I audit).
    pub ops: OpCounts,
    /// Peak number of simultaneously live tile transforms (memory
    /// management quality; bounded by the pool in pipelined versions).
    pub peak_live_tiles: usize,
    /// Per-tile read health: which tiles loaded cleanly, which needed
    /// retries, which failed permanently.
    pub health: HealthReport,
}

impl StitchResult {
    /// An empty result skeleton for `shape`.
    pub fn empty(shape: GridShape) -> StitchResult {
        StitchResult {
            shape,
            west: vec![None; shape.tiles()],
            north: vec![None; shape.tiles()],
            elapsed: Duration::ZERO,
            ops: OpCounts::default(),
            peak_live_tiles: 0,
            health: HealthReport::new(shape),
        }
    }

    /// Stores the displacement of the `kind` pair whose second tile has
    /// row-major index `slot`.
    pub fn set(&mut self, kind: PairKind, slot: usize, d: Displacement) {
        match kind {
            PairKind::West => self.west[slot] = Some(d),
            PairKind::North => self.north[slot] = Some(d),
        }
    }

    /// West displacement of `id`, if computed.
    pub fn west_of(&self, id: TileId) -> Option<Displacement> {
        self.west[self.shape.index(id)]
    }

    /// North displacement of `id`, if computed.
    pub fn north_of(&self, id: TileId) -> Option<Displacement> {
        self.north[self.shape.index(id)]
    }

    /// True when every expected pair has a displacement.
    pub fn is_complete(&self) -> bool {
        for id in self.shape.ids().collect::<Vec<_>>() {
            let i = self.shape.index(id);
            if id.col > 0 && self.west[i].is_none() {
                return false;
            }
            if id.row > 0 && self.north[i].is_none() {
                return false;
            }
        }
        true
    }

    /// Like [`is_complete`](StitchResult::is_complete), but pairs that
    /// touch a permanently failed tile are excused: the degraded-but-done
    /// check for `--allow-partial` runs.
    pub fn is_complete_modulo_failures(&self) -> bool {
        let failed = |id: TileId| matches!(self.health.status(id), TileStatus::Failed { .. });
        for id in self.shape.ids().collect::<Vec<_>>() {
            let i = self.shape.index(id);
            if id.col > 0
                && self.west[i].is_none()
                && !failed(id)
                && !failed(TileId::new(id.row, id.col - 1))
            {
                return false;
            }
            if id.row > 0
                && self.north[i].is_none()
                && !failed(id)
                && !failed(TileId::new(id.row - 1, id.col))
            {
                return false;
            }
        }
        true
    }

    /// Number of pairs whose displacement differs from the given ground
    /// truth by more than `tol` pixels on either axis. Truth vectors are
    /// row-major `(dx, dy)` with the same orientation conventions.
    pub fn count_errors(
        &self,
        truth_west: &[Option<(i64, i64)>],
        truth_north: &[Option<(i64, i64)>],
        tol: i64,
    ) -> usize {
        let mut errors = 0;
        for i in 0..self.shape.tiles() {
            for (got, want) in [
                (self.west[i], truth_west[i]),
                (self.north[i], truth_north[i]),
            ] {
                match (got, want) {
                    (Some(d), Some((tx, ty))) => {
                        if (d.x - tx).abs() > tol || (d.y - ty).abs() > tol {
                            errors += 1;
                        }
                    }
                    (None, None) => {}
                    _ => errors += 1,
                }
            }
        }
        errors
    }
}

/// A phase-1 implementation. The paper evaluates six of these (Table II);
/// this workspace implements them all plus the Fiji-style baseline.
pub trait Stitcher {
    /// Implementation name as it appears in Table II.
    fn name(&self) -> String;

    /// Host threads phase 1 computes on. A driver that was handed only the
    /// stitcher runs the stages around phase 1 (channel replay) on as many.
    fn threads(&self) -> usize {
        1
    }

    /// Computes relative displacements for every adjacent pair in the
    /// grid under a failure policy: transient read errors are retried
    /// per `policy.retry`, and permanently failed tiles either degrade
    /// the result (`policy.allow_partial`, with the casualties listed in
    /// [`StitchResult::health`]) or abort it with [`StitchError::Tile`].
    fn try_compute_displacements(
        &self,
        source: &dyn TileSource,
        policy: &FailurePolicy,
    ) -> Result<StitchResult, StitchError>;

    /// Infallible convenience wrapper over
    /// [`try_compute_displacements`](Stitcher::try_compute_displacements)
    /// with the default policy (bounded retries, no partial output).
    /// Panics on permanent failure — reads from a healthy source keep
    /// the original behavior.
    fn compute_displacements(&self, source: &dyn TileSource) -> StitchResult {
        self.try_compute_displacements(source, &FailurePolicy::default())
            .unwrap_or_else(|e| panic!("{} failed: {e}", self.name()))
    }
}

/// Ground-truth displacement vectors, row-major, `None` where no pair
/// exists (column 0 for west, row 0 for north).
pub type TruthVector = Vec<Option<(i64, i64)>>;

/// Extracts ground-truth displacement vectors from a synthetic plate, in
/// the layout [`StitchResult::count_errors`] expects.
pub fn truth_vectors(plate: &stitch_image::SyntheticPlate) -> (TruthVector, TruthVector) {
    let rows = plate.config.grid_rows;
    let cols = plate.config.grid_cols;
    let mut west = vec![None; rows * cols];
    let mut north = vec![None; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            if c > 0 {
                west[r * cols + c] = Some(plate.true_west_displacement(r, c));
            }
            if r > 0 {
                north[r * cols + c] = Some(plate.true_north_displacement(r, c));
            }
        }
    }
    (west, north)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_result_shape() {
        let r = StitchResult::empty(GridShape::new(3, 4));
        assert_eq!(r.west.len(), 12);
        assert!(!r.is_complete(), "interior pairs missing");
        assert_eq!(r.west_of(TileId::new(0, 0)), None);
    }

    #[test]
    fn single_tile_grid_is_trivially_complete() {
        let r = StitchResult::empty(GridShape::new(1, 1));
        assert!(r.is_complete());
    }

    #[test]
    fn count_errors_tolerance() {
        let shape = GridShape::new(1, 2);
        let mut r = StitchResult::empty(shape);
        r.west[1] = Some(Displacement::new(50, 2, 0.9));
        let tw = vec![None, Some((51, 2))];
        let tn = vec![None, None];
        assert_eq!(r.count_errors(&tw, &tn, 0), 1);
        assert_eq!(r.count_errors(&tw, &tn, 1), 0);
    }
}
