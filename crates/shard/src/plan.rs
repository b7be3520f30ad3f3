//! Shard planning: partitioning a tile grid into rectangular sub-grids.
//!
//! A [`ShardPlan`] tiles the full grid with shards of at most
//! `shard_rows × shard_cols` tiles; shards on the bottom/right edges
//! keep whatever remainder is left, so every tile belongs to exactly
//! one shard and no shard is empty. Adjacent-tile pairs whose endpoints
//! fall in *different* shards are the [seam pairs](ShardPlan::seam_pairs)
//! — the only registrations the sharded driver must compute itself
//! after the per-shard jobs finish.

use stitch_core::{GridShape, PairKind, TileId};

/// One rectangular sub-grid of the full plate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Index into [`ShardPlan::shards`] (row-major over shard coords).
    pub index: usize,
    /// Shard-grid row.
    pub srow: usize,
    /// Shard-grid column.
    pub scol: usize,
    /// Full-grid row of this shard's top-left tile.
    pub row0: usize,
    /// Full-grid column of this shard's top-left tile.
    pub col0: usize,
    /// Tiles in this shard.
    pub shape: GridShape,
}

impl Shard {
    /// Scheduler job name for this shard (also its trace-lane name:
    /// the scheduler merges the job's spans as `job.<name>/…`).
    pub fn name(&self) -> String {
        format!("shard-r{}c{}", self.srow, self.scol)
    }

    /// Does this shard contain the full-grid tile?
    pub fn contains(&self, id: TileId) -> bool {
        id.row >= self.row0
            && id.row < self.row0 + self.shape.rows
            && id.col >= self.col0
            && id.col < self.col0 + self.shape.cols
    }

    /// Full-grid tile id → shard-local tile id. Panics when the tile is
    /// outside the shard.
    pub fn to_local(&self, id: TileId) -> TileId {
        assert!(self.contains(id), "{id:?} outside shard {}", self.name());
        TileId::new(id.row - self.row0, id.col - self.col0)
    }

    /// Shard-local tile id → full-grid tile id.
    pub fn to_global(&self, local: TileId) -> TileId {
        TileId::new(local.row + self.row0, local.col + self.col0)
    }
}

/// An adjacent-tile pair that crosses a shard boundary. By the repo-wide
/// convention, `b` is the east/south member — the displacement belongs
/// in `west[index(b)]` / `north[index(b)]` of the full-grid result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeamPair {
    /// West/north member.
    pub a: TileId,
    /// East/south member (the result slot).
    pub b: TileId,
    /// Pair orientation.
    pub kind: PairKind,
}

/// A partition of the full grid into shards.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Full grid being partitioned.
    pub grid: GridShape,
    /// Maximum tiles per shard, vertically.
    pub shard_rows: usize,
    /// Maximum tiles per shard, horizontally.
    pub shard_cols: usize,
    /// Shard-grid rows (`ceil(grid.rows / shard_rows)`).
    pub shards_down: usize,
    /// Shard-grid columns (`ceil(grid.cols / shard_cols)`).
    pub shards_across: usize,
}

impl ShardPlan {
    /// Plans a partition. Shard dimensions are clamped to the grid, so
    /// e.g. `shard_rows > grid.rows` simply yields one shard row.
    pub fn new(grid: GridShape, shard_rows: usize, shard_cols: usize) -> Result<ShardPlan, String> {
        if grid.rows == 0 || grid.cols == 0 {
            return Err(format!(
                "cannot shard an empty {}x{} grid",
                grid.rows, grid.cols
            ));
        }
        if shard_rows == 0 || shard_cols == 0 {
            return Err("shard dimensions must be at least 1x1".to_string());
        }
        let shard_rows = shard_rows.min(grid.rows);
        let shard_cols = shard_cols.min(grid.cols);
        Ok(ShardPlan {
            grid,
            shard_rows,
            shard_cols,
            shards_down: grid.rows.div_ceil(shard_rows),
            shards_across: grid.cols.div_ceil(shard_cols),
        })
    }

    /// Total shard count.
    pub fn shard_count(&self) -> usize {
        self.shards_down * self.shards_across
    }

    /// The shard at shard-grid coordinates `(srow, scol)`.
    fn shard_at(&self, srow: usize, scol: usize) -> Shard {
        debug_assert!(srow < self.shards_down && scol < self.shards_across);
        let row0 = srow * self.shard_rows;
        let col0 = scol * self.shard_cols;
        Shard {
            index: srow * self.shards_across + scol,
            srow,
            scol,
            row0,
            col0,
            shape: GridShape::new(
                self.shard_rows.min(self.grid.rows - row0),
                self.shard_cols.min(self.grid.cols - col0),
            ),
        }
    }

    /// All shards, row-major over shard coordinates.
    pub fn shards(&self) -> Vec<Shard> {
        (0..self.shards_down)
            .flat_map(|sr| (0..self.shards_across).map(move |sc| (sr, sc)))
            .map(|(sr, sc)| self.shard_at(sr, sc))
            .collect()
    }

    /// Index of the shard containing a full-grid tile.
    pub fn shard_of(&self, id: TileId) -> usize {
        debug_assert!(id.row < self.grid.rows && id.col < self.grid.cols);
        (id.row / self.shard_rows) * self.shards_across + id.col / self.shard_cols
    }

    /// Every adjacent-tile pair whose endpoints fall in different
    /// shards, in row-major order of the east/south member. These are
    /// exactly the pairs missing from the union of shard-local results:
    /// together they reassemble the full-grid pair graph.
    pub fn seam_pairs(&self) -> Vec<SeamPair> {
        let mut out = Vec::new();
        for id in self.grid.ids() {
            let s = self.shard_of(id);
            if let Some(w) = self.grid.west(id) {
                if self.shard_of(w) != s {
                    out.push(SeamPair {
                        a: w,
                        b: id,
                        kind: PairKind::West,
                    });
                }
            }
            if let Some(n) = self.grid.north(id) {
                if self.shard_of(n) != s {
                    out.push(SeamPair {
                        a: n,
                        b: id,
                        kind: PairKind::North,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uneven_partition_covers_every_tile_exactly_once() {
        let grid = GridShape::new(5, 7);
        let plan = ShardPlan::new(grid, 2, 3).unwrap();
        assert_eq!((plan.shards_down, plan.shards_across), (3, 3));
        let shards = plan.shards();
        assert_eq!(shards.len(), plan.shard_count());
        let mut owner = vec![usize::MAX; grid.tiles()];
        for s in &shards {
            assert!(s.shape.rows >= 1 && s.shape.cols >= 1, "no empty shards");
            for r in 0..s.shape.rows {
                for c in 0..s.shape.cols {
                    let g = s.to_global(TileId::new(r, c));
                    let i = grid.index(g);
                    assert_eq!(owner[i], usize::MAX, "tile {g:?} owned twice");
                    owner[i] = s.index;
                    assert_eq!(plan.shard_of(g), s.index);
                    assert_eq!(s.to_local(g), TileId::new(r, c));
                }
            }
        }
        assert!(owner.iter().all(|&o| o != usize::MAX), "every tile owned");
        // remainder shards: last shard row has 1 tile row, last column 1 tile col
        assert_eq!(plan.shard_at(2, 2).shape, GridShape::new(1, 1));
    }

    #[test]
    fn seam_pairs_plus_shard_pairs_reassemble_the_full_pair_graph() {
        for (rows, cols, sr, sc) in [(5, 7, 2, 3), (4, 4, 1, 4), (3, 5, 3, 1), (2, 2, 1, 1)] {
            let grid = GridShape::new(rows, cols);
            let plan = ShardPlan::new(grid, sr, sc).unwrap();
            let internal: usize = plan.shards().iter().map(|s| s.shape.pairs()).sum();
            let seams = plan.seam_pairs();
            assert_eq!(
                internal + seams.len(),
                grid.pairs(),
                "{rows}x{cols} grid in {sr}x{sc} shards"
            );
            for p in &seams {
                assert_ne!(plan.shard_of(p.a), plan.shard_of(p.b));
                match p.kind {
                    PairKind::West => {
                        assert_eq!(p.a.row, p.b.row);
                        assert_eq!(p.a.col + 1, p.b.col);
                    }
                    PairKind::North => {
                        assert_eq!(p.a.col, p.b.col);
                        assert_eq!(p.a.row + 1, p.b.row);
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_shard_shapes_still_produce_both_axis_seams() {
        // 1-row shards: every north pair is a seam, every west pair internal
        let grid = GridShape::new(3, 4);
        let plan = ShardPlan::new(grid, 1, 4).unwrap();
        let seams = plan.seam_pairs();
        assert_eq!(seams.len(), (grid.rows - 1) * grid.cols);
        assert!(seams.iter().all(|p| p.kind == PairKind::North));
        // 1-column shards: the transpose
        let plan = ShardPlan::new(grid, 3, 1).unwrap();
        let seams = plan.seam_pairs();
        assert_eq!(seams.len(), grid.rows * (grid.cols - 1));
        assert!(seams.iter().all(|p| p.kind == PairKind::West));
        // 1x1 shards: every pair is a seam, in both axes
        let plan = ShardPlan::new(grid, 1, 1).unwrap();
        let seams = plan.seam_pairs();
        assert_eq!(seams.len(), grid.pairs());
        assert!(seams.iter().any(|p| p.kind == PairKind::West));
        assert!(seams.iter().any(|p| p.kind == PairKind::North));
    }

    #[test]
    fn oversized_shard_dims_clamp_to_one_shard() {
        let plan = ShardPlan::new(GridShape::new(2, 3), 10, 10).unwrap();
        assert_eq!(plan.shard_count(), 1);
        assert!(plan.seam_pairs().is_empty());
        assert_eq!(plan.shards()[0].shape, GridShape::new(2, 3));
    }

    #[test]
    fn rejects_empty_inputs() {
        assert!(ShardPlan::new(GridShape::new(0, 3), 1, 1).is_err());
        assert!(ShardPlan::new(GridShape::new(2, 2), 0, 1).is_err());
    }
}
