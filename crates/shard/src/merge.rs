//! Merging shard-local results into one full-grid solve.
//!
//! Three pieces:
//!
//! 1. [`register_seams`] — phase-1 registration of the pairs that cross
//!    shard boundaries, with the *same* correlator kernel and settings
//!    the in-shard stitchers use. PCIAM phase 1 is a pure function of
//!    the two tile images, so a seam displacement computed here is
//!    bit-identical to the one the unsharded run computes for the same
//!    pair. The pairs are independent, so they are registered on every
//!    worker the driver has; a tile two pairs share is read once.
//! 2. [`merge_results`] — copies shard-local displacements into their
//!    full-grid slots and adds the seam displacements, reassembling the
//!    exact pair graph the unsharded run would have produced.
//! 3. [`solve_hierarchical`] — per-shard local solves plus a weighted
//!    least-squares solve over *shard anchors* constrained by the seam
//!    displacements. This is the streaming/provisional frame (each
//!    shard's tiles are placeable as soon as its local solve and seams
//!    are in) and a consistency audit for the committed positions; the
//!    committed positions themselves come from running the standard
//!    [`GlobalOptimizer`] on the merged full-grid graph, which is what
//!    makes them bit-identical to the unsharded solve.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use stitch_core::global_opt::{CG_MAX_ITERATIONS, CG_TOLERANCE, MIN_CORRELATION};
use stitch_core::{
    default_workers, par_map, AbsolutePositions, Displacement, FailurePolicy, FaultTracker,
    GlobalOptimizer, HealthReport, OpCounters, PciamContext, PooledSpectrum, SpectrumPool,
    StitchError, StitchResult, TileId, TileSource, TileStatus,
};
use stitch_fft::Planner;
use stitch_image::Image;
use stitch_trace::TraceHandle;

use crate::plan::{SeamPair, Shard, ShardPlan};

/// Everything [`register_seams`] produced.
pub struct SeamOutcome {
    /// Registered seam displacements (pairs with a failed endpoint are
    /// absent, mirroring how the in-shard stitchers void such pairs).
    pub displacements: Vec<(SeamPair, Displacement)>,
    /// Health of the boundary tiles read during the seam walk.
    pub health: HealthReport,
}

/// [`register_seams_on`] every core the host offers.
pub fn register_seams(
    source: &dyn TileSource,
    plan: &ShardPlan,
    planner: &Planner,
    policy: &FailurePolicy,
    trace: &TraceHandle,
) -> Result<SeamOutcome, StitchError> {
    register_seams_on(default_workers(), source, plan, planner, policy, trace)
}

/// Registers every seam pair on `workers` threads, each with its own
/// [`PciamContext`], by loading its two tiles, transforming them, and
/// running the oriented PCIAM displacement — the identical kernel path
/// `SimpleCpuStitcher` uses, so results are bit-identical to an unsharded
/// run's for the same pairs. A seam tile (one at a shard corner sits in
/// two pairs) is read through the one [`FaultTracker`] and transformed
/// exactly once, by whichever pair reaches it first, and dropped after its
/// last: displacements (in plan order), health and error do not depend on
/// the worker count or the interleaving, and peak memory is the pairs in
/// flight plus the corner tiles awaiting their second pair.
pub fn register_seams_on(
    workers: usize,
    source: &dyn TileSource,
    plan: &ShardPlan,
    planner: &Planner,
    policy: &FailurePolicy,
    trace: &TraceHandle,
) -> Result<SeamOutcome, StitchError> {
    let (w, h) = source.tile_dims();
    let counters = OpCounters::new_shared();
    let (dims, overlap) = ((w, h), source.nominal_overlap());
    let pool = SpectrumPool::new(PciamContext::spectrum_len(dims, overlap));
    let contexts = Mutex::new(Vec::new());
    let tracker = FaultTracker::new(plan.grid);
    let pairs = plan.seam_pairs();
    // per tile: the pairs yet to use it, and — once read — its pixels and
    // transform (`Some(None)`: unreadable, or every pair is done)
    type Seam = Option<Arc<(Image<u16>, PooledSpectrum)>>;
    let mut tiles: Vec<(usize, Option<Seam>)> = vec![(0, None); plan.grid.tiles()];
    for id in pairs.iter().flat_map(|pair| [pair.a, pair.b]) {
        tiles[plan.grid.index(id)].0 += 1;
    }
    let tiles: Vec<_> = tiles.into_iter().map(Mutex::new).collect();
    // The read and the transform happen under the tile's lock, so a pair
    // that shares the tile waits for it instead of reading it again.
    let fetch = |ctx: &mut PciamContext, id: TileId| -> Seam {
        let mut slot = tiles[plan.grid.index(id)].lock();
        let (uses, tile) = &mut *slot;
        let read = || {
            let loaded = {
                let _span = trace.layer("shard/merge", "read");
                tracker.load(source, id, &policy.retry)
            };
            loaded.map(|img| {
                let spectrum = ctx.forward_fft(&img);
                Arc::new((img, spectrum))
            })
        };
        let held = tile.get_or_insert_with(read).clone();
        *uses -= 1;
        if *uses == 0 {
            *tile = Some(None);
        }
        held
    };
    let _span = trace.scope("shard/merge", "compute", "register seams");
    let registered = par_map(workers, pairs, |pair| {
        let pooled = contexts.lock().pop();
        let mut ctx = pooled.unwrap_or_else(|| {
            PciamContext::with_pool(planner, dims, overlap, Arc::clone(&counters), pool.clone())
        });
        // a pair with a failed endpoint is void, as in the shard stitchers
        let d = match (fetch(&mut ctx, pair.a), fetch(&mut ctx, pair.b)) {
            (Some(a), Some(b)) => {
                let _span = trace.layer("shard/merge", "seam_register");
                Some(ctx.displacement_oriented(&a.1, &b.1, &a.0, &b.0, Some(pair.kind)))
            }
            _ => None,
        };
        contexts.lock().push(ctx);
        d.map(|d| (pair, d))
    });
    let health = tracker.finish(policy)?;
    Ok(SeamOutcome {
        displacements: registered.into_iter().flatten().collect(),
        health,
    })
}

/// Reassembles the full-grid [`StitchResult`] from shard-local results
/// (indexed like `plan.shards()`) and the registered seam
/// displacements. Because each shard saw the identical tile images the
/// full grid holds and seam pairs were registered with the identical
/// kernel, the merged pair graph is bit-identical to the unsharded
/// run's. Ops and retries are summed; `elapsed` is left at zero for the
/// driver to stamp with its own wall clock.
pub fn merge_results(
    plan: &ShardPlan,
    shards: &[(Shard, StitchResult)],
    seams: &SeamOutcome,
) -> StitchResult {
    let mut merged = StitchResult::empty(plan.grid);
    let mut peak_live = 0usize;
    for (shard, local) in shards {
        for local_id in shard.shape.ids() {
            let g = plan.grid.index(shard.to_global(local_id));
            let l = shard.shape.index(local_id);
            if local.west[l].is_some() {
                merged.west[g] = local.west[l];
            }
            if local.north[l].is_some() {
                merged.north[g] = local.north[l];
            }
            merge_tile_status(
                &mut merged.health.tiles[g],
                &local.health.tiles[shard.shape.index(local_id)],
            );
        }
        merged.ops.reads += local.ops.reads;
        merged.ops.forward_ffts += local.ops.forward_ffts;
        merged.ops.elementwise_mults += local.ops.elementwise_mults;
        merged.ops.inverse_ffts += local.ops.inverse_ffts;
        merged.ops.max_reductions += local.ops.max_reductions;
        merged.ops.ccf_groups += local.ops.ccf_groups;
        merged.ops.ccf_probes += local.ops.ccf_probes;
        merged.ops.ccf_pixels += local.ops.ccf_pixels;
        merged.ops.fft_real_mults += local.ops.fft_real_mults;
        merged.ops.windowed_pairs += local.ops.windowed_pairs;
        merged.ops.window_fallbacks += local.ops.window_fallbacks;
        merged.ops.coarse_pairs += local.ops.coarse_pairs;
        merged.ops.coarse_fallbacks += local.ops.coarse_fallbacks;
        merged.health.total_retries += local.health.total_retries;
        peak_live = peak_live.max(local.peak_live_tiles);
    }
    for (pair, d) in &seams.displacements {
        merged.set(pair.kind, plan.grid.index(pair.b), *d);
    }
    for id in plan.grid.ids() {
        merge_tile_status(
            &mut merged.health.tiles[plan.grid.index(id)],
            &seams.health.tiles[plan.grid.index(id)],
        );
    }
    merged.health.total_retries += seams.health.total_retries;
    // a seam pair holds 2 tiles live on top of the per-shard peak
    merged.peak_live_tiles = peak_live.max(2);
    merged.elapsed = Duration::ZERO;
    merged
}

/// Combines two observations of the same tile (a shard job's and the
/// seam walk's): `Failed` dominates, then `Recovered` (attempts summed),
/// then `Ok`.
fn merge_tile_status(into: &mut TileStatus, other: &TileStatus) {
    match (&*into, other) {
        (TileStatus::Failed { .. }, _) => {}
        (_, TileStatus::Failed { error }) => {
            *into = TileStatus::Failed {
                error: error.clone(),
            };
        }
        (TileStatus::Recovered { attempts: a }, TileStatus::Recovered { attempts: b }) => {
            *into = TileStatus::Recovered { attempts: a + b };
        }
        (TileStatus::Ok, TileStatus::Recovered { attempts }) => {
            *into = TileStatus::Recovered {
                attempts: *attempts,
            };
        }
        (_, TileStatus::Ok) => {}
    }
}

/// The hierarchical (two-level) solve: shard-local positions re-anchored
/// into one absolute frame.
pub struct HierarchicalSolve {
    /// Per-shard anchor offsets (indexed like `plan.shards()`), before
    /// normalization.
    pub anchors: Vec<(f64, f64)>,
    /// Re-anchored absolute positions, normalized to a `(0, 0)` minimum
    /// like [`GlobalOptimizer::solve`]'s output.
    pub positions: AbsolutePositions,
}

/// Solves shard anchors from seam constraints and re-anchors each
/// shard's local positions into one frame.
///
/// For a seam pair `a → b` with displacement `d` joining shard `i` to
/// shard `j`, consistency demands
/// `anchor_j − anchor_i = local_i(a) + d − local_j(b)` per axis. The
/// over-constrained system is solved by correlation-weighted least
/// squares (conjugate gradient on the shard-anchor Laplacian, anchor 0
/// pinned). Note this two-level decomposition is *not* algebraically
/// identical to the flat least-squares-with-IRLS solve on the merged
/// graph when measurements disagree — which is why the driver commits
/// the merged-graph solve and uses this as the provisional streaming
/// frame plus a consistency audit. The anchors are always solved this
/// way, to the optimizer's conjugate-gradient constants; the optimizer
/// argument's method does not apply.
pub fn solve_hierarchical(
    plan: &ShardPlan,
    locals: &[AbsolutePositions],
    seams: &SeamOutcome,
    _optimizer: &GlobalOptimizer,
    tile_dims: (usize, usize),
) -> HierarchicalSolve {
    let n = plan.shard_count();
    assert_eq!(locals.len(), n, "one local solve per shard");
    let shards = plan.shards();
    // weighted constraints between anchors
    struct C {
        i: usize,
        j: usize,
        dx: f64,
        dy: f64,
        w: f64,
    }
    let mut cs: Vec<C> = Vec::new();
    for (pair, d) in &seams.displacements {
        if d.correlation < MIN_CORRELATION {
            continue;
        }
        let i = plan.shard_of(pair.a);
        let j = plan.shard_of(pair.b);
        let la = locals[i].get(shards[i].to_local(pair.a));
        let lb = locals[j].get(shards[j].to_local(pair.b));
        cs.push(C {
            i,
            j,
            dx: (la.0 + d.x - lb.0) as f64,
            dy: (la.1 + d.y - lb.1) as f64,
            w: d.correlation.max(1e-3),
        });
    }
    // CG on the anchor Laplacian, anchor 0 pinned at the origin
    let mut lap = vec![0.0f64; n * n];
    let mut rhs_x = vec![0.0f64; n];
    let mut rhs_y = vec![0.0f64; n];
    for c in &cs {
        lap[c.i * n + c.i] += c.w;
        lap[c.j * n + c.j] += c.w;
        lap[c.i * n + c.j] -= c.w;
        lap[c.j * n + c.i] -= c.w;
        rhs_x[c.j] += c.w * c.dx;
        rhs_x[c.i] -= c.w * c.dx;
        rhs_y[c.j] += c.w * c.dy;
        rhs_y[c.i] -= c.w * c.dy;
    }
    let solve_axis = |rhs: &[f64]| -> Vec<f64> {
        let mut x = vec![0.0f64; n];
        if n <= 1 {
            return x;
        }
        // project out node 0 (pin): solve over indices 1..n
        let mut r: Vec<f64> = rhs[1..].to_vec();
        let mut p = r.clone();
        let mut rs: f64 = r.iter().map(|v| v * v).sum();
        for _ in 0..CG_MAX_ITERATIONS.max(n) {
            if rs.sqrt() <= CG_TOLERANCE {
                break;
            }
            // ap = L[1.., 1..] * p
            let mut ap = vec![0.0f64; n - 1];
            for (ri, ap_i) in ap.iter_mut().enumerate() {
                let row = &lap[(ri + 1) * n..(ri + 2) * n];
                *ap_i = row[1..]
                    .iter()
                    .zip(p.iter())
                    .map(|(l, pv)| l * pv)
                    .sum::<f64>();
            }
            let denom: f64 = p.iter().zip(ap.iter()).map(|(a, b)| a * b).sum();
            if denom.abs() < f64::EPSILON {
                break;
            }
            let alpha = rs / denom;
            for i in 0..n - 1 {
                x[i + 1] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let rs_new: f64 = r.iter().map(|v| v * v).sum();
            let beta = rs_new / rs;
            rs = rs_new;
            for i in 0..n - 1 {
                p[i] = r[i] + beta * p[i];
            }
        }
        x
    };
    let ax = solve_axis(&rhs_x);
    let ay = solve_axis(&rhs_y);
    let mut anchors: Vec<(f64, f64)> = ax.into_iter().zip(ay).collect();
    // shards with no usable seam constraint to the pinned component sit
    // at the origin in the CG solution; place them at their nominal
    // raster offset (default 25% overlap) so the provisional frame stays
    // renderable even with a severed seam
    let mut placed = vec![false; n];
    placed[0] = true;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in &cs {
        adj[c.i].push(c.j);
        adj[c.j].push(c.i);
    }
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if !placed[v] {
                placed[v] = true;
                queue.push_back(v);
            }
        }
    }
    let (tw, th) = tile_dims;
    let (step_x, step_y) = (tw as f64 * 0.75, th as f64 * 0.75);
    for (s, anchor) in anchors.iter_mut().enumerate() {
        if !placed[s] {
            *anchor = (
                shards[s].col0 as f64 * step_x,
                shards[s].row0 as f64 * step_y,
            );
        }
    }
    // re-anchor: global tile position = shard anchor + local position
    let mut positions = vec![(0i64, 0i64); plan.grid.tiles()];
    for (s, shard) in shards.iter().enumerate() {
        for local_id in shard.shape.ids() {
            let (lx, ly) = locals[s].get(local_id);
            let g = plan.grid.index(shard.to_global(local_id));
            positions[g] = (
                (anchors[s].0 + lx as f64).round() as i64,
                (anchors[s].1 + ly as f64).round() as i64,
            );
        }
    }
    let min_x = positions.iter().map(|p| p.0).min().unwrap_or(0);
    let min_y = positions.iter().map(|p| p.1).min().unwrap_or(0);
    for p in &mut positions {
        p.0 -= min_x;
        p.1 -= min_y;
    }
    HierarchicalSolve {
        anchors,
        positions: AbsolutePositions {
            shape: plan.grid,
            positions,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_core::{GridShape, PairKind, TileId};

    /// Hand-builds a consistent two-shard world and checks the anchor
    /// solve recovers the exact offset between the shards.
    #[test]
    fn anchor_solve_recovers_exact_offsets() {
        let grid = GridShape::new(2, 4);
        let plan = ShardPlan::new(grid, 2, 2).unwrap();
        let shards = plan.shards();
        assert_eq!(shards.len(), 2);
        // each shard's local solve: a clean 50x40 raster
        let local = |shape: GridShape| AbsolutePositions {
            shape,
            positions: shape
                .ids()
                .map(|id| (id.col as i64 * 50, id.row as i64 * 40))
                .collect(),
        };
        let locals = vec![local(shards[0].shape), local(shards[1].shape)];
        // two seam pairs between col 1 and col 2, both implying that the
        // right shard starts 100 px right of the left shard's origin
        let seams = SeamOutcome {
            displacements: vec![
                (
                    SeamPair {
                        a: TileId::new(0, 1),
                        b: TileId::new(0, 2),
                        kind: PairKind::West,
                    },
                    Displacement::new(50, 0, 0.9),
                ),
                (
                    SeamPair {
                        a: TileId::new(1, 1),
                        b: TileId::new(1, 2),
                        kind: PairKind::West,
                    },
                    Displacement::new(50, 0, 0.9),
                ),
            ],
            health: HealthReport::new(grid),
        };
        let h = solve_hierarchical(
            &plan,
            &locals,
            &seams,
            &GlobalOptimizer::default(),
            (64, 48),
        );
        let expect: Vec<(i64, i64)> = grid
            .ids()
            .map(|id| (id.col as i64 * 50, id.row as i64 * 40))
            .collect();
        assert_eq!(h.positions.positions, expect);
    }

    /// Seam registration over a faulty 4x6 plate in 2x3-tile shards: the
    /// displacements, the health report and (partial output off) the error
    /// are those of one worker, whatever the worker count.
    #[test]
    fn seam_outcome_does_not_depend_on_the_worker_count() {
        use stitch_core::{FaultSpec, FaultySource, RetryPolicy, SyntheticSource};
        use stitch_image::{ScanConfig, SyntheticPlate};

        let scan = ScanConfig::for_grid(4, 6, 32, 24, 0.25, 9);
        let plan = ShardPlan::new(GridShape::new(4, 6), 2, 3).unwrap();
        let planner = Planner::new(stitch_fft::PlanMode::Estimate);
        // tiles (1,2), (1,3), (2,2), (2,3) meet at the shard corner and sit
        // in two seam pairs each; (0,2) sits in one
        let specs = [
            FaultSpec::default(),
            FaultSpec {
                seed: 5,
                transient_rate: 0.4,
                ..FaultSpec::default()
            },
            FaultSpec {
                seed: 11,
                transient_rate: 0.3,
                corrupt: vec![TileId::new(2, 3), TileId::new(0, 2)],
                ..FaultSpec::default()
            },
        ];
        let retry = RetryPolicy {
            max_retries: 12,
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        for spec in specs {
            for allow_partial in [true, false] {
                let policy = FailurePolicy {
                    retry: retry.clone(),
                    allow_partial,
                };
                let run = |workers: usize| {
                    let plate = SyntheticPlate::generate(scan.clone());
                    let source = FaultySource::new(SyntheticSource::new(plate), spec.clone());
                    let trace = TraceHandle::disabled();
                    let seams =
                        register_seams_on(workers, &source, &plan, &planner, &policy, &trace);
                    // every seam tile is read once: 10 pairs over 16 tiles,
                    // four of them shared
                    let stats = source.stats();
                    assert_eq!(stats.delivered + stats.corrupt, 16, "{workers} workers");
                    seams
                        .map(|s| (s.displacements, s.health))
                        .map_err(|e| e.to_string())
                };
                let one = run(1);
                match (&one, spec.corrupt.is_empty() || allow_partial) {
                    (Ok((displacements, health)), true) => {
                        // (2,3) voids its two pairs, (0,2) its one
                        let void = if spec.corrupt.is_empty() { 0 } else { 3 };
                        assert_eq!(displacements.len(), 10 - void);
                        assert_eq!(health.failed_tiles(), {
                            let mut lost = spec.corrupt.clone();
                            lost.sort_by_key(|id| plan.grid.index(*id));
                            lost
                        });
                    }
                    // the error names the first lost tile in grid order
                    (Err(e), false) => assert!(e.starts_with("tile (0,2) failed"), "{e}"),
                    other => panic!("unexpected outcome {other:?}"),
                }
                for workers in 2..=4 {
                    assert_eq!(run(workers), one, "{workers} workers, {spec:?}");
                }
            }
        }
    }

    /// A shard with every seam severed gets the nominal-raster fallback
    /// instead of collapsing onto the origin.
    #[test]
    fn disconnected_shard_falls_back_to_nominal_raster() {
        let grid = GridShape::new(1, 4);
        let plan = ShardPlan::new(grid, 1, 2).unwrap();
        let shards = plan.shards();
        let local = |shape: GridShape| AbsolutePositions {
            shape,
            positions: shape.ids().map(|id| (id.col as i64 * 48, 0)).collect(),
        };
        let locals = vec![local(shards[0].shape), local(shards[1].shape)];
        let seams = SeamOutcome {
            displacements: Vec::new(),
            health: HealthReport::new(grid),
        };
        let h = solve_hierarchical(
            &plan,
            &locals,
            &seams,
            &GlobalOptimizer::default(),
            (64, 48),
        );
        // right shard anchored at col0 * 64 * 0.75 = 2 * 48 = 96
        assert_eq!(h.anchors[1], (96.0, 0.0));
        assert_eq!(h.positions.get(TileId::new(0, 2)), (96, 0));
    }
}
