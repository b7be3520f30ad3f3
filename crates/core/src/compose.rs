//! Phase 3: composing the stitched mosaic (§III, §VI-A, Figs 13–14).
//!
//! "The third phase uses the absolute displacements to compose the
//! stitched image"; the paper renders its 17k×22k result with an *overlay*
//! blend (Fig 13) and a variant with highlighted tile borders (Fig 14),
//! and prototypes a visualization tool that renders "at varying
//! resolutions" (image pyramids). Composition is region-based so it can
//! run on demand — "the third phase can be carried out on demand as part
//! of visualizing the stitched image."
//!
//! Every entry point walks its window top to bottom in bands (a tile row
//! or more, or the caller's `band_rows`): the tiles a band is the first to
//! touch are read — each exactly once, across the composer's workers — and
//! the band's rows are split between the same workers, each blending
//! straight into its own slice of the one output buffer; a thread is only
//! started for [`PIXELS_PER_WORKER`] of work. [`BlendWindow`] resolves a
//! pixel from the tiles covering that pixel alone, so the split never
//! reaches the pixels: any worker count gives the serial bytes.

use stitch_image::par::{default_workers, par_map};
use stitch_image::{round_to_u16, Image};
use stitch_trace::TraceHandle;

use crate::fault::{load_with_retry, RetryPolicy};
use crate::global_opt::AbsolutePositions;
use crate::source::TileSource;
use crate::types::TileId;

/// How overlapping pixels are resolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Blend {
    /// Later tiles (row-major order) overwrite earlier ones — the paper's
    /// Fig 13 overlay blend.
    #[default]
    Overlay,
    /// The first tile to cover a pixel wins.
    First,
    /// Unweighted mean of every tile covering the pixel.
    Average,
    /// Distance-to-edge feathered mean (smooth seams).
    Linear,
}

/// The `--blend` tokens.
impl std::str::FromStr for Blend {
    type Err = String;

    fn from_str(s: &str) -> Result<Blend, String> {
        match s {
            "overlay" => Ok(Blend::Overlay),
            "first" => Ok(Blend::First),
            "average" => Ok(Blend::Average),
            "linear" => Ok(Blend::Linear),
            other => Err(format!(
                "unknown blend '{other}' (expected overlay, first, average, or linear)"
            )),
        }
    }
}

/// The one blend loop: accumulates tiles into a `w × h` window at
/// `(x0, y0)` (signed pixel coordinates in whatever frame the caller
/// places tiles in) and resolves it into the caller's pixels. Every blend
/// mode resolves a pixel from the tiles covering *that pixel* alone, added
/// in a fixed order, so any partition of a mosaic into windows — whole,
/// banded, split between threads, or canvas chunks — produces the same
/// pixels.
pub struct BlendWindow<'a> {
    blend: Blend,
    x0: i64,
    y0: i64,
    w: usize,
    h: usize,
    /// The resolved window, row-major, borrowed from the caller.
    /// [`Blend::Overlay`] and [`Blend::First`] copy one tile's value per
    /// pixel, so they write it as tiles arrive.
    pixels: &'a mut [u16],
    /// [`Blend::First`] only: pixels that already have their value.
    taken: Vec<bool>,
    /// [`Blend::Average`] / [`Blend::Linear`] only: weighted sum and
    /// total weight per pixel, divided out by [`BlendWindow::finish`].
    acc: Vec<f64>,
    weight: Vec<f64>,
    /// Fig-14 highlight: tile-border pixels, stamped at full intensity
    /// after resolution so they beat the blend.
    border_mask: Option<Vec<bool>>,
    covered: bool,
}

impl<'a> BlendWindow<'a> {
    /// An empty window over `pixels` — `w` columns wide, as many rows as
    /// the slice holds, all zero (pixels no tile covers are left as they
    /// are); `highlight` draws 1-px tile borders.
    pub fn new(
        blend: Blend,
        highlight: bool,
        x0: i64,
        y0: i64,
        w: usize,
        pixels: &'a mut [u16],
    ) -> BlendWindow<'a> {
        let h = pixels.len().checked_div(w).unwrap_or(0);
        assert_eq!(pixels.len(), w * h, "window is not whole rows");
        // a plane the blend does not use stays empty
        let plane = |used: bool| if used { w * h } else { 0 };
        let summed = matches!(blend, Blend::Average | Blend::Linear);
        BlendWindow {
            blend,
            x0,
            y0,
            w,
            h,
            pixels,
            taken: vec![false; plane(blend == Blend::First)],
            acc: vec![0.0; plane(summed)],
            weight: vec![0.0; plane(summed)],
            border_mask: highlight.then(|| vec![false; w * h]),
            covered: false,
        }
    }

    /// Whether a `tw × th` tile at `pos` touches the window.
    pub fn intersects(&self, pos: (i64, i64), tw: usize, th: usize) -> bool {
        let (x1, y1) = (self.x0 + self.w as i64, self.y0 + self.h as i64);
        pos.0 < x1 && pos.0 + tw as i64 > self.x0 && pos.1 < y1 && pos.1 + th as i64 > self.y0
    }

    /// Blends in the part of `tile`, placed at `pos`, that falls inside
    /// the window. Order matters for [`Blend::Overlay`] / [`Blend::First`].
    pub fn add(&mut self, pos: (i64, i64), tile: &Image<u16>) {
        let (px, py) = pos;
        let (tw, th) = tile.dims();
        if !self.intersects(pos, tw, th) {
            return;
        }
        self.covered = true;
        let (x0, y0, w) = (self.x0, self.y0, self.w);
        let (ix0, iy0) = (px.max(x0), py.max(y0));
        let ix1 = (px + tw as i64).min(x0 + w as i64);
        let iy1 = (py + th as i64).min(y0 + self.h as i64);
        // the tile columns of the intersection
        let (tx0, tx1) = ((ix0 - px) as usize, (ix1 - px) as usize);
        for gy in iy0..iy1 {
            let ty = (gy - py) as usize;
            let src = &tile.row(ty)[tx0..tx1];
            let o0 = (gy - y0) as usize * w + (ix0 - x0) as usize;
            let span = o0..o0 + src.len();
            if let Some(mask) = &mut self.border_mask {
                for (tx, m) in (tx0..tx1).zip(&mut mask[span.clone()]) {
                    *m |= tx == 0 || ty == 0 || tx == tw - 1 || ty == th - 1;
                }
            }
            match self.blend {
                Blend::Overlay => self.pixels[span].copy_from_slice(src),
                Blend::First => {
                    let dst = self.pixels[span.clone()].iter_mut();
                    for ((out, taken), &v) in dst.zip(&mut self.taken[span]).zip(src) {
                        if !*taken {
                            (*out, *taken) = (v, true);
                        }
                    }
                }
                Blend::Average | Blend::Linear => {
                    // Linear weights by distance to the nearest tile edge
                    let linear = self.blend == Blend::Linear;
                    let dye = (ty.min(th - 1 - ty) + 1) as f64;
                    for (tx, &v) in (tx0..tx1).zip(src) {
                        let dxe = (tx.min(tw - 1 - tx) + 1) as f64;
                        let wgt = if linear { dxe * dye } else { 1.0 };
                        let oi = o0 + tx - tx0;
                        self.acc[oi] += v as f64 * wgt;
                        self.weight[oi] += wgt;
                    }
                }
            }
        }
    }

    /// Resolves the window into its pixels; `false` when no added tile
    /// intersected it (the pixels are untouched).
    pub fn finish(self) -> bool {
        for ((px, a), wt) in self.pixels.iter_mut().zip(self.acc).zip(self.weight) {
            if wt > 0.0 {
                *px = round_to_u16(a / wt);
            }
        }
        if let Some(mask) = self.border_mask {
            for (px, is_border) in self.pixels.iter_mut().zip(mask) {
                if is_border {
                    *px = 65535;
                }
            }
        }
        self.covered
    }
}

/// Pixels a thread must have to read or blend before it is worth starting
/// (its unit tests split toy mosaics).
const PIXELS_PER_WORKER: usize = if cfg!(test) { 16 } else { 1 << 18 };

/// A tile's pixels between the bands of one composition.
#[derive(Clone)]
enum Slot {
    Unread,
    Resident(Image<u16>),
    /// The read failed (a hole in every band, never retried), or the bands
    /// have moved past the tile.
    Gone,
}

/// Mosaic composer: absolute positions + blend mode.
pub struct Composer {
    positions: AbsolutePositions,
    blend: Blend,
    /// Draw 1-px tile borders at full intensity (Fig 14's highlighted
    /// tiles). Borders *override* the blend: a border pixel renders at
    /// full intensity even where `Average`/`Linear` would otherwise mix
    /// it down with overlapping interiors.
    pub highlight_tiles: bool,
    trace: TraceHandle,
    /// Cached at construction (positions are immutable afterwards), so
    /// per-region composition doesn't rescan every position.
    origin: (i64, i64),
    /// Threads a band's reads and rows are split between.
    workers: usize,
    /// How each tile read is retried and size-checked.
    retry: RetryPolicy,
}

impl Composer {
    /// Creates a composer working on every core the host offers (a caller
    /// that was given a thread count hands it to [`Composer::with_workers`]).
    pub fn new(positions: AbsolutePositions, blend: Blend) -> Composer {
        let ox = positions.positions.iter().map(|p| p.0).min().unwrap_or(0);
        let oy = positions.positions.iter().map(|p| p.1).min().unwrap_or(0);
        Composer {
            positions,
            blend,
            highlight_tiles: false,
            trace: TraceHandle::disabled(),
            origin: (ox, oy),
            workers: default_workers(),
            retry: RetryPolicy::default(),
        }
    }

    /// Splits each band's reads and rows between `workers` threads; 1 is
    /// for a caller that already runs compositions side by side. The pixels
    /// do not depend on it.
    pub fn with_workers(mut self, workers: usize) -> Composer {
        self.workers = workers.max(1);
        self
    }

    /// Reads tiles under `retry` (by default [`RetryPolicy::default`]),
    /// as phase 1 does: a tile still unreadable, or not `tile_dims()`, is a
    /// hole in the mosaic.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Composer {
        self.retry = retry;
        self
    }

    /// Records each composition call as a `compose` layer span on track
    /// `"compose"`, with its tile reads (cat `"io"`) inside it.
    pub fn with_trace(mut self, trace: TraceHandle) -> Composer {
        self.trace = trace;
        self
    }

    /// The absolute positions in use.
    pub fn positions(&self) -> &AbsolutePositions {
        &self.positions
    }

    /// The mosaic origin: the minimum placed coordinate on each axis.
    /// [`GlobalOptimizer::solve`](crate::global_opt::GlobalOptimizer::solve)
    /// normalizes positions so this is `(0, 0)`, but hand-built or
    /// partially-updated position sets may legitimately place tiles at
    /// negative coordinates; every composition method translates by this
    /// origin so such sets render correctly instead of wrapping through an
    /// unsigned cast. The origin is computed once at construction.
    pub fn origin(&self) -> (i64, i64) {
        self.origin
    }

    /// Full mosaic dimensions for `source`'s tile size (origin-translated
    /// bounding box of every tile).
    pub fn mosaic_dims(&self, source: &dyn TileSource) -> (usize, usize) {
        let (tw, th) = source.tile_dims();
        let (ox, oy) = self.origin;
        let max_x = self.positions.positions.iter().map(|p| p.0).max();
        let max_y = self.positions.positions.iter().map(|p| p.1).max();
        match (max_x, max_y) {
            (Some(mx), Some(my)) => ((mx - ox) as usize + tw, (my - oy) as usize + th),
            _ => (0, 0),
        }
    }

    /// Composes the whole mosaic.
    pub fn compose(&self, source: &dyn TileSource) -> Image<u16> {
        let (mw, mh) = self.mosaic_dims(source);
        self.compose_region(source, 0, 0, mw, mh)
    }

    /// Composes only the `w × h` window at `(x0, y0)` of the mosaic —
    /// the on-demand path used for interactive visualization. Window
    /// coordinates are origin-translated mosaic coordinates: `(0, 0)` is
    /// the top-left of the bounding box, i.e. [`Composer::origin`]. The
    /// tile rows of one band (two, at the paper's tile size) are resident
    /// at a time.
    pub fn compose_region(
        &self,
        source: &dyn TileSource,
        x0: usize,
        y0: usize,
        w: usize,
        h: usize,
    ) -> Image<u16> {
        let mut mosaic = Image::new(w, h);
        let (_, th) = source.tile_dims();
        let mut slots = vec![Slot::Unread; self.positions.shape.tiles()];
        // a tile row, or as many rows as occupy every worker
        let rows = th.max((self.workers * PIXELS_PER_WORKER).div_ceil(w.max(1)));
        let bands = mosaic.pixels_mut().chunks_mut(rows * w.max(1));
        for (y, band) in (y0..).step_by(rows).zip(bands) {
            self.compose_rows(source, &mut slots, x0, y, w, band);
        }
        mosaic
    }

    /// Composes the rows `out` holds — `w` columns from `x0`, starting at
    /// mosaic row `y0` — of a top-to-bottom walk that keeps its tiles in
    /// `slots`: reads the tiles these rows are the first to touch (one that
    /// cannot be read leaves a hole rather than aborting the composition),
    /// blends, and drops the tiles no later row reaches.
    fn compose_rows(
        &self,
        source: &dyn TileSource,
        slots: &mut [Slot],
        x0: usize,
        y0: usize,
        w: usize,
        out: &mut [u16],
    ) {
        let Some(h) = out.len().checked_div(w).filter(|&h| h > 0) else {
            return;
        };
        let (tw, th) = source.tile_dims();
        let (blend, highlight, trace) = (self.blend, self.highlight_tiles, &self.trace);
        let _span = trace.layer("compose", "compose");
        // the tiles touching these rows, in blend order
        let (ox, oy) = self.origin;
        let (x0, y0) = (x0 as i64, y0 as i64);
        let (x1, y1) = (x0 + w as i64, y0 + h as i64);
        let touching: Vec<(usize, TileId, (i64, i64))> = (self.positions.shape.ids().enumerate())
            .map(|(i, id)| (i, id, self.positions.positions[i]))
            .map(|(i, id, (px, py))| (i, id, (px - ox, py - oy)))
            .filter(|&(_, _, (px, _))| px < x1 && px + tw as i64 > x0)
            .filter(|&(_, _, (_, py))| py < y1 && py + th as i64 > y0)
            .collect();
        let mut unread = touching.clone();
        unread.retain(|t| matches!(slots[t.0], Slot::Unread));
        let threads = |pixels: usize| self.workers.min(pixels / PIXELS_PER_WORKER);
        let read = par_map(threads(unread.len() * tw * th), unread, |(i, id, _)| {
            let _span = trace.scope("compose", "io", "read");
            let tile = load_with_retry(source, id, &self.retry).map(|(tile, _)| tile);
            (i, tile.map_or(Slot::Gone, Slot::Resident))
        });
        for (i, slot) in read {
            slots[i] = slot;
        }
        let rows = h.div_ceil(threads(h * w).clamp(1, h));
        let parts = (y0..).step_by(rows).zip(out.chunks_mut(rows * w));
        let resident = &*slots;
        par_map(self.workers, parts.collect::<Vec<_>>(), |(y, part)| {
            let mut window = BlendWindow::new(blend, highlight, x0, y, w, part);
            for &(i, _, pos) in &touching {
                if let Slot::Resident(tile) = &resident[i] {
                    window.add(pos, tile);
                }
            }
            window.finish();
        });
        for (i, _, (_, py)) in touching {
            if py + th as i64 <= y1 {
                slots[i] = Slot::Gone;
            }
        }
    }

    /// Composes the mosaic as a sequence of full-width horizontal bands
    /// of at most `band_rows` pixel rows, calling `sink(y0, band)` for
    /// each band from top to bottom. Every blend mode resolves a pixel
    /// from the tiles covering *that pixel* alone, so the stacked bands
    /// are bit-identical to [`Composer::compose`] while peak memory is
    /// one band plus the row of tiles it intersects, instead of the whole
    /// mosaic — the out-of-core composition path used by the sharded
    /// stitcher.
    ///
    /// Tiles spanning several bands are read once and kept until the
    /// bands have moved past their footprint; the `compose` trace records
    /// exactly one `io` span per tile.
    pub fn compose_bands(
        &self,
        source: &dyn TileSource,
        band_rows: usize,
        sink: &mut dyn FnMut(usize, Image<u16>),
    ) {
        let (mw, mh) = self.mosaic_dims(source);
        let mut slots = vec![Slot::Unread; self.positions.shape.tiles()];
        for y in (0..mh).step_by(band_rows.max(1)) {
            let h = band_rows.max(1).min(mh - y);
            let mut band = Image::new(mw, h);
            self.compose_rows(source, &mut slots, 0, y, mw, band.pixels_mut());
            sink(y, band);
        }
    }
}

/// Builds an image pyramid: level 0 is `base`, each further level halves
/// both dimensions by 2×2 averaging (the §VI-A visualization prototype
/// "generates image pyramids ... and renders a stitched image at varying
/// resolutions").
///
/// Averages are rounded to the nearest integer (ties round up), not
/// floored — flooring would darken every level by up to 0.75 intensity
/// units and the bias would compound across levels. When a dimension is
/// odd, the trailing edge row/column has no 2×2 partner and is dropped
/// (each level is exactly `(w / 2, h / 2)`); levels stop early once either
/// dimension reaches 1.
pub fn pyramid(base: Image<u16>, levels: usize) -> Vec<Image<u16>> {
    let mut out = Vec::with_capacity(levels + 1);
    out.push(base);
    for _ in 0..levels {
        let prev = out.last().unwrap();
        let (w, h) = prev.dims();
        if w <= 1 || h <= 1 {
            break;
        }
        let (nw, nh) = (w / 2, h / 2);
        let next = Image::from_fn(nw, nh, |x, y| {
            let s = prev.get(2 * x, 2 * y) as u32
                + prev.get(2 * x + 1, 2 * y) as u32
                + prev.get(2 * x, 2 * y + 1) as u32
                + prev.get(2 * x + 1, 2 * y + 1) as u32;
            ((s + 2) / 4) as u16
        });
        out.push(next);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_opt::AbsolutePositions;
    use crate::grid::GridShape;
    use crate::source::MemorySource;
    use crate::stitcher::Stitcher;

    fn simple_setup() -> (MemorySource, AbsolutePositions) {
        // 1×2 grid of 8×8 tiles overlapping by 3 px
        let shape = GridShape::new(1, 2);
        let a = Image::filled(8, 8, 100u16);
        let b = Image::filled(8, 8, 300u16);
        let src = MemorySource::new(shape, vec![a, b]);
        let pos = AbsolutePositions {
            shape,
            positions: vec![(0, 0), (5, 0)],
        };
        (src, pos)
    }

    #[test]
    fn mosaic_dims() {
        let (src, pos) = simple_setup();
        let c = Composer::new(pos, Blend::Overlay);
        assert_eq!(c.mosaic_dims(&src), (13, 8));
    }

    #[test]
    fn overlay_last_tile_wins() {
        let (src, pos) = simple_setup();
        let m = Composer::new(pos, Blend::Overlay).compose(&src);
        assert_eq!(m.get(2, 4), 100);
        assert_eq!(m.get(6, 4), 300, "overlap region owned by tile b");
        assert_eq!(m.get(12, 4), 300);
    }

    #[test]
    fn banded_composition_is_bit_identical_to_full() {
        use stitch_image::{ScanConfig, SyntheticPlate};
        let cfg = ScanConfig {
            grid_rows: 2,
            grid_cols: 3,
            tile_width: 24,
            tile_height: 18,
            ..ScanConfig::default()
        };
        let src = crate::source::SyntheticSource::new(SyntheticPlate::generate(cfg));
        let result = crate::simple_cpu::SimpleCpuStitcher::default().compute_displacements(&src);
        let pos = crate::global_opt::GlobalOptimizer::default().solve(&result);
        for blend in [Blend::Overlay, Blend::Average, Blend::Linear] {
            let c = Composer::new(pos.clone(), blend);
            let full = c.compose(&src);
            // odd band height that does not divide the mosaic: exercises
            // the remainder band
            for band_rows in [1usize, 7, 1000] {
                let (mw, mh) = c.mosaic_dims(&src);
                let mut stacked = Vec::with_capacity(mw * mh);
                let mut next_y = 0;
                c.compose_bands(&src, band_rows, &mut |y0, band| {
                    assert_eq!(y0, next_y, "bands must arrive in order");
                    assert_eq!(band.width(), mw);
                    stacked.extend_from_slice(band.pixels());
                    next_y += band.height();
                });
                assert_eq!(next_y, mh, "bands must cover the mosaic");
                assert_eq!(
                    stacked,
                    full.pixels(),
                    "band_rows={band_rows} blend={blend:?} must stack to the full compose"
                );
            }
        }
    }

    /// One [`BlendWindow`] over the whole mosaic, every tile added in
    /// row-major order on this thread: the walk every split must equal.
    fn serial_walk(
        tiles: &[Option<Image<u16>>],
        pos: &AbsolutePositions,
        (mw, mh): (usize, usize),
        blend: Blend,
        highlight: bool,
    ) -> Vec<u16> {
        let ox = pos.positions.iter().map(|p| p.0).min().unwrap();
        let oy = pos.positions.iter().map(|p| p.1).min().unwrap();
        let mut pixels = vec![0; mw * mh];
        let mut window = BlendWindow::new(blend, highlight, 0, 0, mw, &mut pixels);
        for (tile, &(px, py)) in tiles.iter().zip(&pos.positions) {
            if let Some(tile) = tile {
                window.add((px - ox, py - oy), tile);
            }
        }
        window.finish();
        pixels
    }

    /// Serves `tiles`; a `None` is a tile that cannot be read.
    struct Holey(GridShape, (usize, usize), Vec<Option<Image<u16>>>);

    impl TileSource for Holey {
        fn shape(&self) -> GridShape {
            self.0
        }
        fn tile_dims(&self) -> (usize, usize) {
            self.1
        }
        fn load(&self, id: TileId) -> Result<Image<u16>, crate::fault::SourceError> {
            self.2[self.0.index(id)]
                .clone()
                .ok_or(crate::fault::SourceError::Corrupt {
                    id,
                    detail: "hole".into(),
                })
        }
    }

    #[test]
    fn any_worker_count_composes_the_serial_walk() {
        // a jittered 3x3 with a negative origin and an unreadable tile, and
        // a 1x3 strip whose 4-row mosaic is shorter than seven workers
        let plates = [
            (
                GridShape::new(3, 3),
                (10usize, 8usize),
                vec![
                    (-4, -3),
                    (4, -2),
                    (13, -4),
                    (-3, 3),
                    (5, 4),
                    (12, 2),
                    (-4, 9),
                    (4, 10),
                    (13, 8),
                ],
                Some(4),
            ),
            (
                GridShape::new(1, 3),
                (6, 3),
                vec![(0, 0), (4, 1), (9, 0)],
                None,
            ),
        ];
        for (shape, (tw, th), positions, hole) in plates {
            let tiles: Vec<Option<Image<u16>>> = (0..shape.tiles())
                .map(|i| {
                    (Some(i) != hole)
                        .then(|| Image::from_fn(tw, th, |x, y| (i * 1000 + y * tw + x + 1) as u16))
                })
                .collect();
            let src = Holey(shape, (tw, th), tiles.clone());
            let pos = AbsolutePositions { shape, positions };
            for blend in [Blend::Overlay, Blend::First, Blend::Average, Blend::Linear] {
                for highlight in [false, true] {
                    let dims = Composer::new(pos.clone(), blend).mosaic_dims(&src);
                    let (mw, mh) = dims;
                    let serial = serial_walk(&tiles, &pos, dims, blend, highlight);
                    for workers in [1, 2, 3, 7] {
                        let what = format!("{shape:?} {blend:?} hl={highlight} workers={workers}");
                        let trace = TraceHandle::new();
                        let mut c = Composer::new(pos.clone(), blend)
                            .with_workers(workers)
                            .with_trace(trace.clone());
                        c.highlight_tiles = highlight;
                        assert_eq!(c.compose(&src).pixels(), serial, "{what}");
                        let reads = trace.spans().iter().filter(|s| s.cat == "io").count();
                        assert_eq!(reads, shape.tiles(), "{what}: one read per tile");
                        // a window that starts inside a tile, off the band grid
                        let region = c.compose_region(&src, 3, 2, mw - 5, mh - 2);
                        for y in 0..mh - 2 {
                            let want = &serial[(y + 2) * mw + 3..][..mw - 5];
                            assert_eq!(region.row(y), want, "{what} region row {y}");
                        }
                        for band_rows in [1, 5, 1000] {
                            let mut stacked = Vec::new();
                            c.compose_bands(&src, band_rows, &mut |y0, band| {
                                assert_eq!(y0 * mw, stacked.len(), "bands arrive in order");
                                stacked.extend_from_slice(band.pixels());
                            });
                            assert_eq!(stacked, serial, "{what} band_rows={band_rows}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn first_blend_keeps_first_tile() {
        let (src, pos) = simple_setup();
        let m = Composer::new(pos, Blend::First).compose(&src);
        assert_eq!(m.get(6, 4), 100, "overlap region owned by tile a");
    }

    #[test]
    fn average_blend_midpoint_in_overlap() {
        let (src, pos) = simple_setup();
        let m = Composer::new(pos, Blend::Average).compose(&src);
        assert_eq!(m.get(6, 4), 200);
        assert_eq!(m.get(1, 1), 100);
        assert_eq!(m.get(12, 7), 300);
    }

    #[test]
    fn linear_blend_bounded_by_inputs() {
        let (src, pos) = simple_setup();
        let m = Composer::new(pos, Blend::Linear).compose(&src);
        let v = m.get(6, 4);
        assert!((100..=300).contains(&v), "{v}");
    }

    #[test]
    fn uncovered_pixels_are_black() {
        let shape = GridShape::new(1, 2);
        let src = MemorySource::new(shape, vec![Image::filled(4, 4, 9u16); 2]);
        let pos = AbsolutePositions {
            shape,
            positions: vec![(0, 0), (10, 0)], // gap between tiles
        };
        let m = Composer::new(pos, Blend::Overlay).compose(&src);
        assert_eq!(m.get(6, 2), 0);
        assert_eq!(m.get(1, 1), 9);
        assert_eq!(m.get(11, 1), 9);
    }

    #[test]
    fn region_matches_full_compose() {
        let (src, pos) = simple_setup();
        let c = Composer::new(pos, Blend::Average);
        let full = c.compose(&src);
        let region = c.compose_region(&src, 4, 2, 6, 4);
        for y in 0..4 {
            for x in 0..6 {
                assert_eq!(region.get(x, y), full.get(x + 4, y + 2));
            }
        }
    }

    #[test]
    fn highlight_draws_borders() {
        let (src, pos) = simple_setup();
        let mut c = Composer::new(pos, Blend::Overlay);
        c.highlight_tiles = true;
        let m = c.compose(&src);
        assert_eq!(m.get(0, 0), 65535);
        assert_eq!(m.get(12, 7), 65535);
        assert_eq!(m.get(2, 4), 100, "interior untouched");
    }

    #[test]
    fn banded_compose_reads_each_tile_once() {
        use stitch_image::{ScanConfig, SyntheticPlate};
        let cfg = ScanConfig {
            grid_rows: 3,
            grid_cols: 4,
            tile_width: 24,
            tile_height: 18,
            ..ScanConfig::default()
        };
        let src = crate::source::SyntheticSource::new(SyntheticPlate::generate(cfg));
        let result = crate::simple_cpu::SimpleCpuStitcher::default().compute_displacements(&src);
        let pos = crate::global_opt::GlobalOptimizer::default().solve(&result);
        // band_rows far below tile_height: every tile spans several bands
        // and used to be re-read once per band it intersected
        for band_rows in [1usize, 5] {
            let trace = stitch_trace::TraceHandle::new();
            let c = Composer::new(pos.clone(), Blend::Average).with_trace(trace.clone());
            c.compose_bands(&src, band_rows, &mut |_, _| {});
            let reads = trace.spans().iter().filter(|s| s.cat == "io").count();
            assert_eq!(
                reads,
                pos.shape.tiles(),
                "band_rows={band_rows}: each tile must be read exactly once"
            );
        }
    }

    #[test]
    fn highlight_borders_override_blend_in_overlaps() {
        // Regression: border pixels used to enter the Average/Linear
        // accumulators like any other sample, so a border crossing an
        // overlap was mixed down (e.g. (65535 + 300) / 2) and Fig-14
        // style tile outlines dimmed or vanished. Borders must override.
        let (src, pos) = simple_setup();
        for blend in [Blend::Overlay, Blend::First, Blend::Average, Blend::Linear] {
            let mut c = Composer::new(pos.clone(), blend);
            c.highlight_tiles = true;
            let m = c.compose(&src);
            // tile a's right border (x=7) and tile b's left border (x=5)
            // both sit inside the overlap x∈[5,8)
            assert_eq!(m.get(7, 4), 65535, "{blend:?}: a's border must show");
            assert_eq!(m.get(5, 4), 65535, "{blend:?}: b's border must show");
            assert_eq!(m.get(0, 0), 65535, "{blend:?}: outer border");
            assert_eq!(m.get(2, 4), 100, "{blend:?}: interior untouched");
        }
        // non-border overlap pixels still blend normally
        let mut c = Composer::new(pos, Blend::Average);
        c.highlight_tiles = true;
        assert_eq!(c.compose(&src).get(6, 2), 200);
    }

    #[test]
    fn negative_positions_translate_instead_of_wrap() {
        // tile a hand-placed at (-5, -3): before origin translation this
        // wrapped through `as usize` into a huge offset
        let shape = GridShape::new(1, 2);
        let a = Image::filled(8, 8, 100u16);
        let b = Image::filled(8, 8, 300u16);
        let src = MemorySource::new(shape, vec![a, b]);
        let pos = AbsolutePositions {
            shape,
            positions: vec![(-5, -3), (0, 0)],
        };
        let c = Composer::new(pos, Blend::Overlay);
        assert_eq!(c.origin(), (-5, -3));
        // bounding box: x spans [-5, 8), y spans [-3, 8) → 13 × 11
        assert_eq!(c.mosaic_dims(&src), (13, 11));
        let m = c.compose(&src);
        assert_eq!(m.get(0, 0), 100, "tile a renders at the origin");
        assert_eq!(m.get(12, 10), 300, "tile b at its translated offset");
        assert_eq!(m.get(12, 0), 0, "corner covered by neither tile");
        // identical to composing the same layout shifted to min (0,0)
        let norm = Composer::new(
            AbsolutePositions {
                shape,
                positions: vec![(0, 0), (5, 3)],
            },
            Blend::Overlay,
        )
        .compose(&src);
        assert_eq!(m.pixels(), norm.pixels());
    }

    #[test]
    fn traced_compose_records_read_and_blend_spans() {
        let (src, pos) = simple_setup();
        let trace = stitch_trace::TraceHandle::new();
        Composer::new(pos, Blend::Overlay)
            .with_trace(trace.clone())
            .compose(&src);
        let spans = trace.spans();
        assert!(spans.iter().any(|s| s.cat == "io" && s.name == "read"));
        assert!(spans
            .iter()
            .any(|s| s.cat == "compose" && s.name == "compose"));
    }

    #[test]
    fn pyramid_rounds_to_nearest_not_floor() {
        // 2×2 block (1,2,3,5): mean 2.75 → rounds to 3 (flooring gave 2)
        let base = Image::from_vec(2, 2, vec![1u16, 2, 3, 5]);
        let pyr = pyramid(base, 1);
        assert_eq!(pyr[1].dims(), (1, 1));
        assert_eq!(pyr[1].get(0, 0), 3);
        // saturation-safe at the top of the range
        let bright = Image::filled(2, 2, 65535u16);
        assert_eq!(pyramid(bright, 1)[1].get(0, 0), 65535);
    }

    #[test]
    fn pyramid_level1_pins_values_and_drops_odd_edges() {
        // 5×3 base: only the 4×2 even region participates in level 1;
        // column 4 and row 2 are dropped (documented edge behavior)
        let base = Image::from_fn(5, 3, |x, y| (10 * y + x) as u16);
        // rows: [0 1 2 3 4] [10 11 12 13 14] [20 21 22 23 24]
        let pyr = pyramid(base, 1);
        assert_eq!(pyr[1].dims(), (2, 1));
        // (0,0): avg(0,1,10,11) = 5.5 → 6; (1,0): avg(2,3,12,13) = 7.5 → 8
        assert_eq!(pyr[1].get(0, 0), 6);
        assert_eq!(pyr[1].get(1, 0), 8);
    }

    #[test]
    fn pyramid_halves_dimensions() {
        let base = Image::from_fn(16, 12, |x, y| (x * y) as u16);
        let pyr = pyramid(base, 3);
        assert_eq!(pyr.len(), 4);
        assert_eq!(pyr[1].dims(), (8, 6));
        assert_eq!(pyr[2].dims(), (4, 3));
        assert_eq!(pyr[3].dims(), (2, 1));
    }

    #[test]
    fn pyramid_preserves_mean_roughly() {
        let base = Image::filled(32, 32, 500u16);
        let pyr = pyramid(base, 2);
        assert_eq!(pyr[2].pixels().iter().copied().max(), Some(500));
        assert_eq!(pyr[2].pixels().iter().copied().min(), Some(500));
    }
}
