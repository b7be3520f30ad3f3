//! Phase 2: resolving the over-constrained displacement system (§III).
//!
//! "These displacements form an over-constrained system that one can
//! represent as a directed graph where vertices are images and edges
//! relate adjacent images. ... The second phase resolves the
//! over-constraint in the system and computes absolute displacements. It
//! selects a subset of the relative displacements or uses a global
//! optimization approach to adjust them to a path invariant state."
//!
//! Both strategies the paper names are implemented:
//!
//! * [`Method::SpanningTree`] — keep the highest-correlation spanning
//!   subset of edges (a maximum spanning tree), which is trivially path
//!   invariant;
//! * [`Method::LeastSquares`] — adjust *all* edges at once by minimizing
//!   `Σ wᵢⱼ ‖pⱼ − pᵢ − dᵢⱼ‖²` (correlation-weighted), solved per axis by
//!   conjugate gradient on the weighted graph Laplacian with tile (0,0)
//!   pinned as the gauge.
//!
//! Low-correlation edges (outliers from featureless overlaps) are
//! down-weighted or dropped before solving; this is what lets phase 2
//! repair the occasional phase-1 outlier.

use crate::grid::GridShape;
use crate::stitcher::StitchResult;
use crate::types::TileId;

/// Over-constraint resolution strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Method {
    /// Maximum-correlation spanning tree ("selects a subset").
    SpanningTree,
    /// Correlation-weighted least squares ("global optimization").
    #[default]
    LeastSquares,
}

/// Edges with correlation below this are discarded entirely (they carry
/// no information; typical featureless-overlap correlations hover near
/// zero).
pub const MIN_CORRELATION: f64 = 0.3;

/// After a least-squares solve, edges whose residual exceeds this many
/// pixels are discarded and the system re-solved. This is what catches
/// *confident* outliers — a wrong displacement with a high correlation
/// passes the correlation filter but cannot be reconciled with the
/// redundant constraints around it.
const RESIDUAL_FILTER_PX: f64 = 3.0;

/// IRLS rounds before the residual trim.
const REFILTER_ROUNDS: usize = 2;

/// Conjugate-gradient iteration cap (least squares, and the shard
/// driver's anchor solve).
pub const CG_MAX_ITERATIONS: usize = 1000;

/// Conjugate-gradient residual tolerance.
pub const CG_TOLERANCE: f64 = 1e-9;

/// Phase-2 configuration.
#[derive(Clone, Debug, Default)]
pub struct GlobalOptimizer {
    /// Resolution strategy.
    pub method: Method,
}

/// Absolute tile positions (phase-2 output), normalized so the minimum
/// coordinate on each axis is zero. `PartialEq`/`Eq` support the
/// cross-variant differential oracle (`stitch-testkit`), which asserts
/// bit-identical phase-2 output across all implementation variants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbsolutePositions {
    /// Grid dimensions.
    pub shape: GridShape,
    /// Top-left plate coordinate of each tile, row-major.
    pub positions: Vec<(i64, i64)>,
}

impl AbsolutePositions {
    /// Position of one tile.
    pub fn get(&self, id: TileId) -> (i64, i64) {
        self.positions[self.shape.index(id)]
    }

    /// Bounding-box size of the mosaic given the tile dimensions.
    pub fn mosaic_dims(&self, tile_w: usize, tile_h: usize) -> (usize, usize) {
        let max_x = self.positions.iter().map(|p| p.0).max().unwrap_or(0);
        let max_y = self.positions.iter().map(|p| p.1).max().unwrap_or(0);
        (max_x as usize + tile_w, max_y as usize + tile_h)
    }

    /// Maximum per-axis deviation from another solution after aligning
    /// gauges (useful for comparing against ground truth).
    pub fn max_deviation(&self, truth: &[(i64, i64)]) -> (i64, i64) {
        assert_eq!(truth.len(), self.positions.len());
        // align gauges on tile 0
        let (gx, gy) = (
            self.positions[0].0 - truth[0].0,
            self.positions[0].1 - truth[0].1,
        );
        let mut dev = (0i64, 0i64);
        for (p, t) in self.positions.iter().zip(truth) {
            dev.0 = dev.0.max((p.0 - t.0 - gx).abs());
            dev.1 = dev.1.max((p.1 - t.1 - gy).abs());
        }
        dev
    }
}

/// One usable edge of the displacement graph: `to = from + (dx, dy)`.
struct Edge {
    from: usize,
    to: usize,
    dx: f64,
    dy: f64,
    /// Current solve weight (mutated by IRLS).
    weight: f64,
    /// Correlation-derived weight the IRLS rounds rescale from.
    base_weight: f64,
}

impl GlobalOptimizer {
    /// Resolves a phase-1 result into absolute positions.
    pub fn solve(&self, result: &StitchResult) -> AbsolutePositions {
        self.solve_to(result, CG_TOLERANCE)
    }

    /// [`solve`](Self::solve) with conjugate gradient run to `tolerance`.
    fn solve_to(&self, result: &StitchResult, tolerance: f64) -> AbsolutePositions {
        let shape = result.shape;
        let n = shape.tiles();
        if n == 0 {
            return AbsolutePositions {
                shape,
                positions: Vec::new(),
            };
        }
        let mut edges = self.collect_edges(result);
        let mut positions = match self.method {
            Method::SpanningTree => self.solve_mst(shape, &edges),
            Method::LeastSquares => self.solve_least_squares(shape, &edges, tolerance),
        };
        // robust refinement (least squares only: a spanning tree has no
        // redundancy to expose outliers). Plain hard thresholding is
        // unstable — an outlier drags its neighbors' residuals over the
        // limit and good edges get cut with it — so the solve is refined
        // by IRLS (a Cauchy-style robust loss that progressively mutes
        // high-residual edges) and only then trimmed and re-solved.
        if self.method == Method::LeastSquares {
            let residual = |e: &Edge, pos: &[(f64, f64)]| -> f64 {
                let (fx, fy) = pos[e.from];
                let (tx, ty) = pos[e.to];
                (tx - fx - e.dx).abs().max((ty - fy - e.dy).abs())
            };
            for _ in 0..REFILTER_ROUNDS {
                for e in edges.iter_mut() {
                    let r = residual(e, &positions) / RESIDUAL_FILTER_PX;
                    e.weight = e.base_weight / (1.0 + r * r);
                }
                positions = self.solve_least_squares(shape, &edges, tolerance);
            }
            // final hard trim: by now outlier residuals stand out
            edges.retain(|e| residual(e, &positions) <= RESIDUAL_FILTER_PX);
            for e in edges.iter_mut() {
                e.weight = e.base_weight;
            }
            positions = self.solve_least_squares(shape, &edges, tolerance);
        }
        // normalize: min coordinate → 0
        let min_x = positions.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let min_y = positions.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        AbsolutePositions {
            shape,
            positions: positions
                .into_iter()
                .map(|(x, y)| ((x - min_x).round() as i64, (y - min_y).round() as i64))
                .collect(),
        }
    }

    fn collect_edges(&self, result: &StitchResult) -> Vec<Edge> {
        let shape = result.shape;
        let mut edges = Vec::with_capacity(shape.pairs());
        for id in shape.ids() {
            let i = shape.index(id);
            if let (Some(w), Some(d)) = (shape.west(id), result.west[i]) {
                if d.correlation >= MIN_CORRELATION {
                    edges.push(Edge {
                        from: shape.index(w),
                        to: i,
                        dx: d.x as f64,
                        dy: d.y as f64,
                        weight: d.correlation.max(1e-3),
                        base_weight: d.correlation.max(1e-3),
                    });
                }
            }
            if let (Some(nn), Some(d)) = (shape.north(id), result.north[i]) {
                if d.correlation >= MIN_CORRELATION {
                    edges.push(Edge {
                        from: shape.index(nn),
                        to: i,
                        dx: d.x as f64,
                        dy: d.y as f64,
                        weight: d.correlation.max(1e-3),
                        base_weight: d.correlation.max(1e-3),
                    });
                }
            }
        }
        edges
    }

    /// Maximum-correlation spanning tree + BFS placement. Unreachable
    /// tiles (possible when many edges were filtered) fall back to the
    /// position of their nearest placed neighbor plus the median step.
    fn solve_mst(&self, shape: GridShape, edges: &[Edge]) -> Vec<(f64, f64)> {
        let n = shape.tiles();
        // Kruskal with union-find, highest weight first.
        let mut order: Vec<usize> = (0..edges.len()).collect();
        order.sort_by(|&a, &b| {
            edges[b]
                .weight
                .partial_cmp(&edges[a].weight)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut adj: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); n];
        for &ei in &order {
            let e = &edges[ei];
            let (ra, rb) = (find(&mut parent, e.from), find(&mut parent, e.to));
            if ra != rb {
                parent[ra] = rb;
                adj[e.from].push((e.to, e.dx, e.dy));
                adj[e.to].push((e.from, -e.dx, -e.dy));
            }
        }
        // BFS from node 0
        let mut pos = vec![(0.0f64, 0.0f64); n];
        let mut placed = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        placed[0] = true;
        queue.push_back(0usize);
        while let Some(u) = queue.pop_front() {
            for &(v, dx, dy) in &adj[u] {
                if !placed[v] {
                    placed[v] = true;
                    pos[v] = (pos[u].0 + dx, pos[u].1 + dy);
                    queue.push_back(v);
                }
            }
        }
        self.place_orphans(shape, &mut pos, &mut placed, edges);
        pos
    }

    /// Weighted least squares via conjugate gradient on the graph
    /// Laplacian (node 0 pinned to the origin), solved per axis.
    fn solve_least_squares(
        &self,
        shape: GridShape,
        edges: &[Edge],
        tolerance: f64,
    ) -> Vec<(f64, f64)> {
        let n = shape.tiles();
        if n == 1 {
            return vec![(0.0, 0.0)];
        }
        // assemble L (sparse, CSR-ish adjacency) over nodes 1..n
        let mut diag = vec![0.0f64; n];
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut rhs_x = vec![0.0f64; n];
        let mut rhs_y = vec![0.0f64; n];
        for e in edges {
            diag[e.from] += e.weight;
            diag[e.to] += e.weight;
            adj[e.from].push((e.to, e.weight));
            adj[e.to].push((e.from, e.weight));
            rhs_x[e.to] += e.weight * e.dx;
            rhs_x[e.from] -= e.weight * e.dx;
            rhs_y[e.to] += e.weight * e.dy;
            rhs_y[e.from] -= e.weight * e.dy;
        }
        let apply = |p: &[f64], out: &mut [f64]| {
            // L·p over the reduced system (node 0 clamped to 0)
            for i in 1..n {
                let mut v = diag[i] * p[i];
                for &(j, w) in &adj[i] {
                    if j != 0 {
                        v -= w * p[j];
                    }
                }
                out[i] = v;
            }
        };
        let solve_axis = |rhs: &[f64]| -> Vec<f64> {
            let mut x = vec![0.0f64; n];
            let mut r = rhs.to_vec();
            r[0] = 0.0;
            let mut p = r.clone();
            let mut ap = vec![0.0f64; n];
            let mut rs: f64 = r[1..].iter().map(|v| v * v).sum();
            if rs == 0.0 {
                return x;
            }
            for _ in 0..CG_MAX_ITERATIONS {
                apply(&p, &mut ap);
                ap[0] = 0.0;
                let p_ap: f64 = p[1..].iter().zip(&ap[1..]).map(|(a, b)| a * b).sum();
                if p_ap.abs() < 1e-300 {
                    break;
                }
                let alpha = rs / p_ap;
                for i in 1..n {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
                let rs_new: f64 = r[1..].iter().map(|v| v * v).sum();
                if rs_new.sqrt() < tolerance {
                    break;
                }
                let beta = rs_new / rs;
                rs = rs_new;
                for i in 1..n {
                    p[i] = r[i] + beta * p[i];
                }
            }
            x
        };
        let xs = solve_axis(&rhs_x);
        let ys = solve_axis(&rhs_y);
        let mut pos: Vec<(f64, f64)> = xs.into_iter().zip(ys).collect();
        // disconnected components (all their edges filtered) stay at the
        // origin in the CG solution; place them heuristically
        let mut placed = self.reachability(n, edges);
        self.place_orphans(shape, &mut pos, &mut placed, edges);
        pos
    }

    fn reachability(&self, n: usize, edges: &[Edge]) -> Vec<bool> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in edges {
            adj[e.from].push(e.to);
            adj[e.to].push(e.from);
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(0usize);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// Positions tiles that ended up with no usable edges: infer the
    /// median grid step from placed neighbors and extrapolate.
    fn place_orphans(
        &self,
        shape: GridShape,
        pos: &mut [(f64, f64)],
        placed: &mut [bool],
        edges: &[Edge],
    ) {
        if placed.iter().all(|&p| p) {
            return;
        }
        // median horizontal/vertical steps from the edges we do trust
        let mut hx: Vec<f64> = Vec::new();
        let mut vy: Vec<f64> = Vec::new();
        for e in edges {
            // A horizontal (west) edge joins adjacent indices *within one
            // row*. The index-difference test alone misclassifies north
            // edges on single-column grids, where vertical neighbors also
            // differ by exactly one index.
            let same_row = e.to / shape.cols == e.from / shape.cols;
            if e.to == e.from + 1 && same_row {
                hx.push(e.dx);
            } else {
                vy.push(e.dy);
            }
        }
        let median = |v: &mut Vec<f64>, default: f64| -> f64 {
            if v.is_empty() {
                return default;
            }
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let step_x = median(&mut hx, 0.0);
        let step_y = median(&mut vy, 0.0);
        // iterate until fixed point: place each orphan next to any placed
        // neighbor using the median steps
        let mut changed = true;
        while changed {
            changed = false;
            for id in shape.ids() {
                let i = shape.index(id);
                if placed[i] {
                    continue;
                }
                for (n_id, sx, sy) in [
                    (shape.west(id), step_x, 0.0),
                    (shape.east(id), -step_x, 0.0),
                    (shape.north(id), 0.0, step_y),
                    (shape.south(id), 0.0, -step_y),
                ] {
                    if let Some(nb) = n_id {
                        let j = shape.index(nb);
                        if placed[j] {
                            pos[i] = (pos[j].0 + sx, pos[j].1 + sy);
                            placed[i] = true;
                            changed = true;
                            break;
                        }
                    }
                }
            }
        }
        // a fully disconnected grid (no edges at all): nominal raster
        for id in shape.ids() {
            let i = shape.index(id);
            if !placed[i] {
                pos[i] = (id.col as f64 * step_x, id.row as f64 * step_y);
                placed[i] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stitcher::StitchResult;
    use crate::types::Displacement;

    /// Builds a StitchResult from exact truth positions.
    fn exact_result(shape: GridShape, truth: &[(i64, i64)]) -> StitchResult {
        let mut r = StitchResult::empty(shape);
        for id in shape.ids() {
            let i = shape.index(id);
            if let Some(w) = shape.west(id) {
                let (x0, y0) = truth[shape.index(w)];
                let (x1, y1) = truth[i];
                r.west[i] = Some(Displacement::new(x1 - x0, y1 - y0, 0.95));
            }
            if let Some(nn) = shape.north(id) {
                let (x0, y0) = truth[shape.index(nn)];
                let (x1, y1) = truth[i];
                r.north[i] = Some(Displacement::new(x1 - x0, y1 - y0, 0.95));
            }
        }
        r
    }

    fn grid_truth(shape: GridShape, step_x: i64, step_y: i64, jitter: i64) -> Vec<(i64, i64)> {
        shape
            .ids()
            .map(|id| {
                let j =
                    ((id.row * 7 + id.col * 13) % (2 * jitter.max(1) as usize + 1)) as i64 - jitter;
                (id.col as i64 * step_x + j, id.row as i64 * step_y - j)
            })
            .collect()
    }

    #[test]
    fn both_methods_recover_consistent_system_exactly() {
        let shape = GridShape::new(4, 5);
        let truth = grid_truth(shape, 50, 40, 3);
        let r = exact_result(shape, &truth);
        for method in [Method::SpanningTree, Method::LeastSquares] {
            let opt = GlobalOptimizer { method };
            let sol = opt.solve(&r);
            assert_eq!(sol.max_deviation(&truth), (0, 0), "{method:?}");
        }
    }

    #[test]
    fn single_column_orphan_uses_vertical_step() {
        // Regression: on a single-column grid every north edge joins
        // adjacent indices, so the old horizontal/vertical classifier
        // (`e.to == e.from + 1`) filed them all as horizontal steps and
        // extrapolated orphans with a vertical step of 0. A sharded run
        // routinely produces 1-column sub-grids, so this must hold.
        let shape = GridShape::new(4, 1);
        let truth: Vec<(i64, i64)> = (0..4).map(|r| (0, r * 40)).collect();
        let mut r = exact_result(shape, &truth);
        // sever the last tile: low correlation gets the edge filtered
        let i = shape.index(TileId::new(3, 0));
        r.north[i] = Some(Displacement::new(0, 40, 0.01));
        let sol = GlobalOptimizer::default().solve(&r);
        assert_eq!(
            sol.max_deviation(&truth),
            (0, 0),
            "orphan on a 1-column grid must extrapolate the 40 px vertical step: {:?}",
            sol.positions
        );
    }

    #[test]
    fn single_row_orphan_uses_horizontal_step() {
        let shape = GridShape::new(1, 4);
        let truth: Vec<(i64, i64)> = (0..4).map(|c| (c * 50, 0)).collect();
        let mut r = exact_result(shape, &truth);
        let i = shape.index(TileId::new(0, 3));
        r.west[i] = Some(Displacement::new(50, 0, 0.01));
        let sol = GlobalOptimizer::default().solve(&r);
        assert_eq!(
            sol.max_deviation(&truth),
            (0, 0),
            "orphan on a 1-row grid must extrapolate the 50 px horizontal step: {:?}",
            sol.positions
        );
    }

    #[test]
    fn least_squares_repairs_single_outlier() {
        let shape = GridShape::new(3, 4);
        let truth = grid_truth(shape, 50, 40, 2);
        let mut r = exact_result(shape, &truth);
        // corrupt one edge badly but with telltale low correlation
        let i = shape.index(TileId::new(1, 2));
        r.west[i] = Some(Displacement::new(-30, 90, 0.05));
        let sol = GlobalOptimizer::default().solve(&r);
        let dev = sol.max_deviation(&truth);
        assert_eq!(dev, (0, 0), "outlier must be filtered and bridged");
    }

    #[test]
    fn both_methods_repair_injected_outlier_identically() {
        // Seeded grids with one injected outlier edge: the outlier's
        // telltale low correlation puts it below `MIN_CORRELATION`, so
        // *both* strategies must discard it and land exactly on the
        // ground-truth positions — and therefore on each other.
        for seed in [3u64, 17, 92] {
            let shape = GridShape::new(4, 4);
            let truth = grid_truth(shape, 50, 40, (seed % 4) as i64 + 1);
            let mut r = exact_result(shape, &truth);
            // pick the corrupted edge from the seed (any interior west edge)
            let row = 1 + (seed as usize % (shape.rows - 1));
            let col = 1 + (seed as usize / 3 % (shape.cols - 1));
            let i = shape.index(TileId::new(row, col));
            r.west[i] = Some(Displacement::new(-120, 75, 0.08));
            let mut solutions = Vec::new();
            for method in [Method::SpanningTree, Method::LeastSquares] {
                let opt = GlobalOptimizer { method };
                let sol = opt.solve(&r);
                assert_eq!(
                    sol.max_deviation(&truth),
                    (0, 0),
                    "seed={seed} {method:?} must repair the outlier to truth"
                );
                solutions.push(sol);
            }
            assert_eq!(
                solutions[0], solutions[1],
                "seed={seed}: the two methods must agree bit-identically"
            );
        }
    }

    #[test]
    fn cg_converges_within_documented_tolerance() {
        // A consistent 8×8 system: conjugate gradient at the documented
        // default tolerance (1e-9) and iteration cap must reproduce the
        // integer truth exactly after rounding — which requires the CG
        // residual to actually reach well below half a pixel. A sharper
        // check: tightening the tolerance further must not change the
        // rounded solution, i.e. the default already converged.
        let shape = GridShape::new(8, 8);
        let truth = grid_truth(shape, 55, 43, 3);
        let r = exact_result(shape, &truth);
        assert_eq!(CG_TOLERANCE, 1e-9, "documented default tolerance");
        assert!(CG_MAX_ITERATIONS >= shape.tiles());
        let opt = GlobalOptimizer::default();
        let sol = opt.solve(&r);
        assert_eq!(sol.max_deviation(&truth), (0, 0));
        assert_eq!(
            sol,
            opt.solve_to(&r, 1e-12),
            "default tolerance must already be converged"
        );
    }

    #[test]
    fn mst_ignores_low_correlation_edges() {
        let shape = GridShape::new(3, 3);
        let truth = grid_truth(shape, 50, 40, 2);
        let mut r = exact_result(shape, &truth);
        let i = shape.index(TileId::new(2, 2));
        r.west[i] = Some(Displacement::new(999, -999, 0.02));
        let opt = GlobalOptimizer {
            method: Method::SpanningTree,
        };
        let sol = opt.solve(&r);
        assert_eq!(sol.max_deviation(&truth), (0, 0));
    }

    #[test]
    fn least_squares_averages_inconsistent_edges() {
        // 1×3 strip with a disagreeing pair of constraints around the loop:
        // LS must land between them, weighted by correlation
        let shape = GridShape::new(2, 2);
        let mut r = StitchResult::empty(shape);
        // square: west edges say dx=50, north edges say dy=40, but one west
        // edge is off by 4 px with equal weight — the loop cannot close
        r.west[1] = Some(Displacement::new(50, 0, 0.9));
        r.west[3] = Some(Displacement::new(54, 0, 0.9));
        r.north[2] = Some(Displacement::new(0, 40, 0.9));
        r.north[3] = Some(Displacement::new(0, 40, 0.9));
        let sol = GlobalOptimizer::default().solve(&r);
        let dx_top = sol.positions[1].0 - sol.positions[0].0;
        let dx_bot = sol.positions[3].0 - sol.positions[2].0;
        // the disagreement splits: both rows end up strictly between 50 and 54
        assert!((50..=54).contains(&dx_top), "dx_top={dx_top}");
        assert!((50..=54).contains(&dx_bot), "dx_bot={dx_bot}");
        assert!(dx_bot >= dx_top);
    }

    #[test]
    fn positions_are_normalized_non_negative() {
        let shape = GridShape::new(2, 3);
        let truth = grid_truth(shape, 50, 40, 2);
        let r = exact_result(shape, &truth);
        let sol = GlobalOptimizer::default().solve(&r);
        assert!(sol.positions.iter().all(|&(x, y)| x >= 0 && y >= 0));
        assert!(sol.positions.iter().any(|&(x, _)| x == 0));
        assert!(sol.positions.iter().any(|&(_, y)| y == 0));
    }

    #[test]
    fn mosaic_dims_cover_all_tiles() {
        let shape = GridShape::new(2, 2);
        let truth = vec![(0, 0), (45, 2), (1, 38), (46, 41)];
        let r = exact_result(shape, &truth);
        let sol = GlobalOptimizer::default().solve(&r);
        let (mw, mh) = sol.mosaic_dims(64, 48);
        assert_eq!((mw, mh), (46 + 64, 41 + 48));
    }

    #[test]
    fn fully_filtered_grid_falls_back_to_raster() {
        let shape = GridShape::new(2, 2);
        let mut r = StitchResult::empty(shape);
        for d in r.west.iter_mut().chain(r.north.iter_mut()) {
            *d = Some(Displacement::new(50, 1, 0.01)); // all below threshold
        }
        let sol = GlobalOptimizer::default().solve(&r);
        assert_eq!(sol.positions.len(), 4);
        // degenerate but well-defined: everything at the origin
        assert!(sol.positions.iter().all(|&(x, y)| x == 0 && y == 0));
    }

    #[test]
    fn single_tile() {
        let shape = GridShape::new(1, 1);
        let r = StitchResult::empty(shape);
        let sol = GlobalOptimizer::default().solve(&r);
        assert_eq!(sol.positions, vec![(0, 0)]);
    }
}
