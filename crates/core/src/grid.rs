//! Grid topology and traversal orders.
//!
//! The reference implementation "supported multiple traversal orders of
//! the grid (row, column, diagonal, and their chained counterparts)" and
//! found that "the chained-diagonal traversal order gave the best
//! performance because it allowed memory to be freed earlier" (§IV-A).
//! The same order drives GPU buffer recycling in the pipelined
//! implementation: "the minimum pool size must exceed the smallest
//! dimension of the image grid; using the chained diagonal grid traversal
//! ensures that the system starts recycling GPU buffers as early as
//! possible" (§IV-B).

use crate::pairgraph::PairLedger;
use crate::types::{PairKind, TileId};

/// Grid dimensions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GridShape {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl GridShape {
    /// Constructs a shape.
    pub fn new(rows: usize, cols: usize) -> GridShape {
        GridShape { rows, cols }
    }

    /// Total tile count.
    pub fn tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of adjacent pairs: `rows·(cols−1)` west + `(rows−1)·cols`
    /// north = `2·n·m − n − m` (Table I's operation count for ⊗, the
    /// inverse FFT, and the reductions).
    pub fn pairs(&self) -> usize {
        if self.rows == 0 || self.cols == 0 {
            return 0;
        }
        self.rows * (self.cols - 1) + (self.rows - 1) * self.cols
    }

    /// The transform pool bound, `4·min(rows, cols) + 8`: the most spectra
    /// any variant holds live at once over this grid.
    pub fn transform_pool(&self) -> usize {
        4 * self.rows.min(self.cols) + 8
    }

    /// Flat row-major index of a tile.
    pub fn index(&self, id: TileId) -> usize {
        debug_assert!(id.row < self.rows && id.col < self.cols);
        id.row * self.cols + id.col
    }

    /// The western neighbor, if any.
    pub fn west(&self, id: TileId) -> Option<TileId> {
        (id.col > 0).then(|| TileId::new(id.row, id.col - 1))
    }

    /// The northern neighbor, if any.
    pub fn north(&self, id: TileId) -> Option<TileId> {
        (id.row > 0).then(|| TileId::new(id.row - 1, id.col))
    }

    /// The eastern neighbor, if any.
    pub fn east(&self, id: TileId) -> Option<TileId> {
        (id.col + 1 < self.cols).then(|| TileId::new(id.row, id.col + 1))
    }

    /// The southern neighbor, if any.
    pub fn south(&self, id: TileId) -> Option<TileId> {
        (id.row + 1 < self.rows).then(|| TileId::new(id.row + 1, id.col))
    }

    /// The pairs tile `id` participates in, as `(a, b, kind)` with `a`
    /// the west or north tile of the pair and `b` the other (the tile
    /// whose index the displacement is stored at), in west, north, east,
    /// south order of the neighbor.
    pub fn pairs_of(&self, id: TileId) -> impl Iterator<Item = (TileId, TileId, PairKind)> {
        [
            self.west(id).map(|w| (w, id, PairKind::West)),
            self.north(id).map(|n| (n, id, PairKind::North)),
            self.east(id).map(|e| (id, e, PairKind::West)),
            self.south(id).map(|s| (id, s, PairKind::North)),
        ]
        .into_iter()
        .flatten()
    }

    /// Number of displacement computations tile `id` participates in
    /// (its degree in the adjacency graph) — the initial reference count
    /// for transform recycling.
    pub fn degree(&self, id: TileId) -> usize {
        self.pairs_of(id).count()
    }

    /// All tile ids in row-major order.
    pub fn ids(&self) -> impl Iterator<Item = TileId> + '_ {
        let cols = self.cols;
        (0..self.tiles()).map(move |i| TileId::new(i / cols, i % cols))
    }
}

/// Order in which tiles are visited (and their transforms produced).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Traversal {
    /// Row by row, each row left→right.
    Row,
    /// Column by column, each column top→bottom.
    Column,
    /// Anti-diagonals (constant `row+col`), restarting at the top edge
    /// each time.
    Diagonal,
    /// Anti-diagonals traversed in alternating (boustrophedon) direction —
    /// the paper's best performer and the default.
    #[default]
    ChainedDiagonal,
    /// Rows in alternating direction (serpentine).
    ChainedRow,
}

impl Traversal {
    /// All traversal orders, for sweeps.
    pub const ALL: [Traversal; 5] = [
        Traversal::Row,
        Traversal::Column,
        Traversal::Diagonal,
        Traversal::ChainedDiagonal,
        Traversal::ChainedRow,
    ];

    /// The visit order over `shape`: every tile exactly once.
    pub fn order(&self, shape: GridShape) -> Vec<TileId> {
        let (r, c) = (shape.rows, shape.cols);
        let mut out = Vec::with_capacity(shape.tiles());
        match self {
            Traversal::Row => {
                for row in 0..r {
                    for col in 0..c {
                        out.push(TileId::new(row, col));
                    }
                }
            }
            Traversal::ChainedRow => {
                for row in 0..r {
                    if row % 2 == 0 {
                        for col in 0..c {
                            out.push(TileId::new(row, col));
                        }
                    } else {
                        for col in (0..c).rev() {
                            out.push(TileId::new(row, col));
                        }
                    }
                }
            }
            Traversal::Column => {
                for col in 0..c {
                    for row in 0..r {
                        out.push(TileId::new(row, col));
                    }
                }
            }
            Traversal::Diagonal | Traversal::ChainedDiagonal => {
                let chained = *self == Traversal::ChainedDiagonal;
                if r == 0 || c == 0 {
                    return out;
                }
                for d in 0..(r + c - 1) {
                    let row_start = d.saturating_sub(c - 1);
                    let row_end = d.min(r - 1);
                    let cells: Vec<TileId> = (row_start..=row_end)
                        .map(|row| TileId::new(row, d - row))
                        .collect();
                    if chained && d % 2 == 1 {
                        out.extend(cells.into_iter().rev());
                    } else {
                        out.extend(cells);
                    }
                }
            }
        }
        out
    }

    /// Peak number of simultaneously "live" tiles when transforms are
    /// freed as soon as all of a tile's pair computations are done and
    /// pairs are computed as early as the order allows. This is the metric
    /// that makes chained-diagonal the right default (it bounds the GPU
    /// pool size, §IV-B).
    pub fn peak_live(&self, shape: GridShape) -> usize {
        let mut ledger = PairLedger::new(shape);
        for id in self.order(shape) {
            ledger.arrive(id, (), |_, _, _, _| {});
        }
        ledger.peak_live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn shape_counts_match_table1() {
        // Table I: (2nm − n − m) pair operations for an n×m grid.
        let s = GridShape::new(42, 59);
        assert_eq!(s.tiles(), 2478);
        assert_eq!(s.pairs(), 2 * 42 * 59 - 42 - 59);
    }

    #[test]
    fn neighbors_and_degree() {
        let s = GridShape::new(3, 3);
        let corner = TileId::new(0, 0);
        assert_eq!(s.west(corner), None);
        assert_eq!(s.north(corner), None);
        assert_eq!(s.degree(corner), 2);
        let center = TileId::new(1, 1);
        assert_eq!(s.degree(center), 4);
        assert_eq!(s.west(center), Some(TileId::new(1, 0)));
        assert_eq!(s.north(center), Some(TileId::new(0, 1)));
    }

    #[test]
    fn every_traversal_is_a_permutation() {
        for shape in [
            GridShape::new(1, 1),
            GridShape::new(4, 7),
            GridShape::new(6, 3),
        ] {
            for t in Traversal::ALL {
                let order = t.order(shape);
                assert_eq!(order.len(), shape.tiles(), "{t:?}");
                let set: HashSet<TileId> = order.iter().copied().collect();
                assert_eq!(set.len(), shape.tiles(), "{t:?} revisits a tile");
                for id in &order {
                    assert!(id.row < shape.rows && id.col < shape.cols);
                }
            }
        }
    }

    #[test]
    fn diagonal_order_groups_antidiagonals() {
        let order = Traversal::Diagonal.order(GridShape::new(3, 3));
        let sums: Vec<usize> = order.iter().map(|t| t.row + t.col).collect();
        let mut sorted = sums.clone();
        sorted.sort_unstable();
        assert_eq!(sums, sorted, "anti-diagonal index must be non-decreasing");
    }

    #[test]
    fn chained_diagonal_minimizes_peak_live() {
        // §IV-A: chained-diagonal frees memory earlier than row order.
        let shape = GridShape::new(8, 12);
        let chained = Traversal::ChainedDiagonal.peak_live(shape);
        let row = Traversal::Row.peak_live(shape);
        assert!(
            chained <= row,
            "chained-diagonal ({chained}) should not be worse than row ({row})"
        );
        // pool-size rule of thumb: peak live stays near the smaller grid
        // dimension for chained-diagonal
        assert!(
            chained <= 2 * shape.rows.min(shape.cols) + 2,
            "peak {chained}"
        );
    }

    #[test]
    fn pairs_of_is_canonical() {
        let s = GridShape::new(3, 3);
        let t = TileId::new;
        let center: Vec<_> = s.pairs_of(t(1, 1)).collect();
        assert_eq!(
            center,
            vec![
                (t(1, 0), t(1, 1), PairKind::West),
                (t(0, 1), t(1, 1), PairKind::North),
                (t(1, 1), t(1, 2), PairKind::West),
                (t(1, 1), t(2, 1), PairKind::North),
            ]
        );
        assert_eq!(s.pairs_of(t(2, 2)).count(), 2);
        let total: usize = s.ids().map(|id| s.pairs_of(id).count()).sum();
        assert_eq!(total, 2 * s.pairs());
    }

    #[test]
    fn peak_live_single_row() {
        // a 1×n grid only ever needs 2 live tiles under row order
        assert_eq!(Traversal::Row.peak_live(GridShape::new(1, 10)), 2);
    }

    #[test]
    fn empty_grid() {
        let s = GridShape::new(0, 0);
        assert_eq!(s.tiles(), 0);
        assert_eq!(s.pairs(), 0);
        assert!(Traversal::ChainedDiagonal.order(s).is_empty());
    }
}
