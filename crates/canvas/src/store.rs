//! The chunked pyramid store.
//!
//! Geometry: the canvas is an unbounded signed pixel plane. Scale 0 is
//! mosaic resolution; scale `s` halves scale `s-1` (pixel `x` at scale
//! `s` covers pixels `2x` and `2x+1` at scale `s-1`, floor semantics for
//! negative coordinates). Every scale is tiled into `chunk × chunk`
//! pixel chunks keyed by signed chunk coordinates, and because a scale-s
//! chunk's source region is exactly the four scale-(s-1) chunks
//! `(2cx..2cx+1, 2cy..2cy+1)`, downsampling never crosses chunk-grid
//! phase — pyramid blocks stay aligned to canvas coordinate `(0, 0)`
//! at every scale, which is what makes re-anchoring cheap.
//!
//! A canvas is fed in one of two modes:
//!
//! * **placed** ([`PyramidCanvas::place_tile`]): the canvas retains the
//!   placements and resolves a dirty scale-0 chunk by re-blending every
//!   intersecting tile in row-major id order through the same
//!   `BlendWindow` that `Composer::compose_region` uses, so highlight
//!   borders override the blend here too. Re-placing a tile (a re-anchor) dirties only its old and
//!   new footprints.
//! * **baked** ([`PyramidCanvas::bake_region`]): already-composed,
//!   non-overlapping pixel rectangles (e.g. the sharded driver's
//!   composition bands) are written straight into scale-0 chunks and
//!   only the pyramid above is kept lazy. No placement images are
//!   retained, so the out-of-core property of banded composition
//!   survives. Mixing the two modes on one canvas is a caller bug and
//!   panics.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use stitch_core::{Blend, BlendWindow, TileId};
use stitch_image::Image;

/// Canvas geometry and blend policy.
#[derive(Clone, Copy, Debug)]
pub struct CanvasConfig {
    /// Chunk edge length in pixels, at every scale.
    pub chunk: usize,
    /// Number of downsampled scales above scale 0 (`5` ⇒ scales 0–5).
    pub scales: usize,
    /// How overlapping placements resolve (mirrors phase 3).
    pub blend: Blend,
    /// Draw 1-px tile borders at full intensity, overriding the blend
    /// (the Fig-14 highlight, matching `Composer::highlight_tiles`).
    pub highlight_tiles: bool,
}

impl Default for CanvasConfig {
    fn default() -> Self {
        CanvasConfig {
            chunk: 256,
            scales: 5,
            blend: Blend::Overlay,
            highlight_tiles: false,
        }
    }
}

/// A point-in-time snapshot of canvas occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CanvasStats {
    /// Tiles currently placed (0 in baked mode).
    pub placements: usize,
    /// Materialized chunks across every scale.
    pub live_chunks: usize,
    /// Bytes held by materialized chunks.
    pub chunk_bytes: usize,
    /// High-water mark of `chunk_bytes` over the canvas lifetime.
    pub peak_chunk_bytes: usize,
    /// Scale-0 chunk resolutions performed (blend replays).
    pub resolves: u64,
    /// Pyramid chunk downsamples performed.
    pub downsamples: u64,
    /// Placements that moved an already-placed tile (re-anchor work).
    pub moved: u64,
}

struct Placement {
    pos: (i64, i64),
    image: Arc<Image<u16>>,
}

#[derive(Default)]
struct Level {
    chunks: HashMap<(i64, i64), Vec<u16>>,
    dirty: HashSet<(i64, i64)>,
}

/// The chunked, pyramid-downsampled mosaic store. Not thread-safe by
/// itself; wrap in [`SharedCanvas`] for concurrent access.
pub struct PyramidCanvas {
    cfg: CanvasConfig,
    placements: BTreeMap<TileId, Placement>,
    levels: Vec<Level>,
    baked: bool,
    stats: CanvasStats,
}

impl PyramidCanvas {
    /// Creates an empty canvas. Panics if `chunk` is 0.
    pub fn new(cfg: CanvasConfig) -> PyramidCanvas {
        assert!(cfg.chunk > 0, "chunk size must be positive");
        let levels = (0..=cfg.scales).map(|_| Level::default()).collect();
        PyramidCanvas {
            cfg,
            placements: BTreeMap::new(),
            levels,
            baked: false,
            stats: CanvasStats::default(),
        }
    }

    /// The coarsest readable scale ([`CanvasConfig::scales`]).
    pub fn max_scale(&self) -> usize {
        self.cfg.scales
    }

    /// Current occupancy counters.
    pub fn stats(&self) -> CanvasStats {
        let mut s = self.stats;
        s.placements = self.placements.len();
        s.live_chunks = self.levels.iter().map(|l| l.chunks.len()).sum();
        s.chunk_bytes = s.live_chunks * self.cfg.chunk * self.cfg.chunk * 2;
        s
    }

    /// Clears every placement, chunk, and counter; the configuration is
    /// kept.
    pub fn reset(&mut self) {
        self.placements.clear();
        for level in &mut self.levels {
            level.chunks.clear();
            level.dirty.clear();
        }
        self.baked = false;
        self.stats = CanvasStats::default();
    }

    /// Places (or re-places) tile `id` at canvas position `pos`. The
    /// image is retained (shared, not copied) so overlapping chunks can
    /// re-blend on demand. Re-placing at the same position with the same
    /// image is a no-op; moving a tile dirties its old and new
    /// footprints at every scale. Panics on a baked canvas.
    pub fn place_tile(&mut self, id: TileId, pos: (i64, i64), image: Arc<Image<u16>>) {
        assert!(
            !self.baked,
            "place_tile on a baked canvas: pick one feed mode per canvas"
        );
        assert!(!image.is_empty(), "cannot place an empty image");
        if let Some(old) = self.placements.get(&id) {
            if old.pos == pos && Arc::ptr_eq(&old.image, &image) {
                return;
            }
            let (w, h) = (old.image.width() as i64, old.image.height() as i64);
            let (ox, oy) = old.pos;
            self.mark_dirty_rect(ox, oy, ox + w, oy + h);
            self.stats.moved += 1;
        }
        let (w, h) = (image.width() as i64, image.height() as i64);
        self.mark_dirty_rect(pos.0, pos.1, pos.0 + w, pos.1 + h);
        self.placements.insert(id, Placement { pos, image });
    }

    /// Writes an already-composed, non-overlapping rectangle (e.g. one
    /// out-of-core composition band) straight into the scale-0 chunks at
    /// `pos`, keeping only the pyramid above it lazy. Nothing is
    /// retained beyond the touched chunks. Panics on a canvas that has
    /// placements.
    pub fn bake_region(&mut self, pos: (i64, i64), image: &Image<u16>) {
        assert!(
            self.placements.is_empty(),
            "bake_region on a canvas with placements: pick one feed mode per canvas"
        );
        if image.is_empty() {
            return;
        }
        self.baked = true;
        let c = self.cfg.chunk as i64;
        let (x0, y0) = pos;
        let (w, h) = (image.width() as i64, image.height() as i64);
        for cy in (y0.div_euclid(c))..=((y0 + h - 1).div_euclid(c)) {
            for cx in (x0.div_euclid(c))..=((x0 + w - 1).div_euclid(c)) {
                // intersection of the image with this chunk, in canvas px
                let ix0 = x0.max(cx * c);
                let iy0 = y0.max(cy * c);
                let ix1 = (x0 + w).min((cx + 1) * c);
                let iy1 = (y0 + h).min((cy + 1) * c);
                let chunk = self.levels[0]
                    .chunks
                    .entry((cx, cy))
                    .or_insert_with(|| vec![0u16; (c * c) as usize]);
                for gy in iy0..iy1 {
                    let src_row = image.row((gy - y0) as usize);
                    let dst_off = ((gy - cy * c) * c + (ix0 - cx * c)) as usize;
                    let src_off = (ix0 - x0) as usize;
                    let span = (ix1 - ix0) as usize;
                    chunk[dst_off..dst_off + span]
                        .copy_from_slice(&src_row[src_off..src_off + span]);
                }
            }
        }
        // only the pyramid above is stale: baked scale-0 chunks are final
        self.mark_dirty_rect_above(x0, y0, x0 + w, y0 + h);
        self.note_peak();
    }

    /// Reads the `w × h` window at `(x0, y0)` of pyramid scale `scale`
    /// (canvas coordinates at that scale, signed). Uncovered pixels are
    /// 0. Dirty chunks in the window — and any stale chunks below them —
    /// are resolved on the way.
    pub fn get_region(&mut self, scale: usize, x0: i64, y0: i64, w: usize, h: usize) -> Image<u16> {
        assert!(scale <= self.cfg.scales, "scale {scale} out of range");
        let mut out = Image::new(w, h);
        if w == 0 || h == 0 {
            return out;
        }
        let c = self.cfg.chunk as i64;
        let (x1, y1) = (x0 + w as i64, y0 + h as i64);
        for cy in (y0.div_euclid(c))..=((y1 - 1).div_euclid(c)) {
            for cx in (x0.div_euclid(c))..=((x1 - 1).div_euclid(c)) {
                self.ensure_chunk(scale, cx, cy);
                let Some(chunk) = self.levels[scale].chunks.get(&(cx, cy)) else {
                    continue;
                };
                let ix0 = x0.max(cx * c);
                let iy0 = y0.max(cy * c);
                let ix1 = x1.min((cx + 1) * c);
                let iy1 = y1.min((cy + 1) * c);
                for gy in iy0..iy1 {
                    let src_off = ((gy - cy * c) * c + (ix0 - cx * c)) as usize;
                    let span = (ix1 - ix0) as usize;
                    let dst = out.row_mut((gy - y0) as usize);
                    let dst_off = (ix0 - x0) as usize;
                    dst[dst_off..dst_off + span].copy_from_slice(&chunk[src_off..src_off + span]);
                }
            }
        }
        out
    }

    /// Marks `[x0, x1) × [y0, y1)` (scale-0 canvas pixels) dirty at every
    /// scale.
    fn mark_dirty_rect(&mut self, x0: i64, y0: i64, x1: i64, y1: i64) {
        self.mark_dirty_scales(x0, y0, x1, y1, 0);
    }

    /// Like [`PyramidCanvas::mark_dirty_rect`] but skipping scale 0
    /// (used by baking, which writes scale 0 directly).
    fn mark_dirty_rect_above(&mut self, x0: i64, y0: i64, x1: i64, y1: i64) {
        self.mark_dirty_scales(x0, y0, x1, y1, 1);
    }

    fn mark_dirty_scales(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, from_scale: usize) {
        if x0 >= x1 || y0 >= y1 {
            return;
        }
        let c = self.cfg.chunk as i64;
        for scale in from_scale..=self.cfg.scales {
            let step = 1i64 << scale;
            // the scale-s pixels whose 2^s-block intersects the rect
            let sx0 = x0.div_euclid(step);
            let sy0 = y0.div_euclid(step);
            let sx1 = (x1 - 1).div_euclid(step);
            let sy1 = (y1 - 1).div_euclid(step);
            for cy in sy0.div_euclid(c)..=sy1.div_euclid(c) {
                for cx in sx0.div_euclid(c)..=sx1.div_euclid(c) {
                    self.levels[scale].dirty.insert((cx, cy));
                }
            }
        }
    }

    /// Brings chunk `(cx, cy)` at `scale` to its final readable state:
    /// either materialized and clean, or removed (meaning all-zero).
    fn ensure_chunk(&mut self, scale: usize, cx: i64, cy: i64) {
        if !self.levels[scale].dirty.remove(&(cx, cy)) {
            return;
        }
        let resolved = if scale == 0 {
            self.resolve_base_chunk(cx, cy)
        } else {
            self.downsample_chunk(scale, cx, cy)
        };
        match resolved {
            Some(pixels) => {
                self.levels[scale].chunks.insert((cx, cy), pixels);
                self.note_peak();
            }
            None => {
                self.levels[scale].chunks.remove(&(cx, cy));
            }
        }
    }

    /// Blends every placement intersecting the scale-0 chunk through the
    /// composer's [`BlendWindow`], in row-major tile-id order. Returns
    /// `None` when nothing intersects.
    fn resolve_base_chunk(&mut self, cx: i64, cy: i64) -> Option<Vec<u16>> {
        let c = self.cfg.chunk;
        let (x0, y0) = (cx * c as i64, cy * c as i64);
        let mut pixels = vec![0; c * c];
        let (blend, highlight) = (self.cfg.blend, self.cfg.highlight_tiles);
        let mut window = BlendWindow::new(blend, highlight, x0, y0, c, &mut pixels);
        for placement in self.placements.values() {
            window.add(placement.pos, &placement.image);
        }
        if !window.finish() {
            return None;
        }
        self.stats.resolves += 1;
        Some(pixels)
    }

    /// Resolves a scale-`s` chunk from its four scale-`(s-1)` children
    /// with `pyramid`'s 2×2 round-to-nearest kernel. Returns `None` when
    /// all children are empty.
    fn downsample_chunk(&mut self, scale: usize, cx: i64, cy: i64) -> Option<Vec<u16>> {
        let c = self.cfg.chunk;
        for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            self.ensure_chunk(scale - 1, 2 * cx + dx, 2 * cy + dy);
        }
        let child_level = &self.levels[scale - 1].chunks;
        let quads: [[Option<&Vec<u16>>; 2]; 2] = [
            [
                child_level.get(&(2 * cx, 2 * cy)),
                child_level.get(&(2 * cx + 1, 2 * cy)),
            ],
            [
                child_level.get(&(2 * cx, 2 * cy + 1)),
                child_level.get(&(2 * cx + 1, 2 * cy + 1)),
            ],
        ];
        if quads.iter().flatten().all(|q| q.is_none()) {
            return None;
        }
        // Two child rows (each the left then the right child's row, zeros
        // where a child is empty) are gathered per output row, so the 2×2
        // kernel runs over plain slices whatever the chunk size's parity.
        let mut out = vec![0u16; c * c];
        let mut rows = vec![0u16; 4 * c];
        for (y, out_row) in out.chunks_exact_mut(c).enumerate() {
            for (ly, row) in (2 * y..).zip(rows.chunks_exact_mut(2 * c)) {
                for (quad, half) in quads[ly / c].iter().zip(row.chunks_exact_mut(c)) {
                    match quad {
                        Some(pixels) => half.copy_from_slice(&pixels[(ly % c) * c..][..c]),
                        None => half.fill(0),
                    }
                }
            }
            let (top, bottom) = rows.split_at(2 * c);
            let blocks = top.chunks_exact(2).zip(bottom.chunks_exact(2));
            for (px, (t, b)) in out_row.iter_mut().zip(blocks) {
                let s = t[0] as u32 + t[1] as u32 + b[0] as u32 + b[1] as u32;
                *px = ((s + 2) / 4) as u16;
            }
        }
        self.stats.downsamples += 1;
        Some(out)
    }

    fn note_peak(&mut self) {
        let live: usize = self.levels.iter().map(|l| l.chunks.len()).sum();
        let bytes = live * self.cfg.chunk * self.cfg.chunk * 2;
        self.stats.peak_chunk_bytes = self.stats.peak_chunk_bytes.max(bytes);
    }
}

/// A mutex-wrapped [`PyramidCanvas`]: the form shared between a running
/// incremental stitch (writer) and progressive-preview readers (e.g.
/// the serve daemon's `region` requests).
pub struct SharedCanvas {
    inner: Mutex<PyramidCanvas>,
}

impl SharedCanvas {
    /// Creates an empty shared canvas.
    pub fn new(cfg: CanvasConfig) -> SharedCanvas {
        SharedCanvas {
            inner: Mutex::new(PyramidCanvas::new(cfg)),
        }
    }

    /// See [`PyramidCanvas::place_tile`].
    pub fn place_tile(&self, id: TileId, pos: (i64, i64), image: Arc<Image<u16>>) {
        self.inner.lock().place_tile(id, pos, image);
    }

    /// See [`PyramidCanvas::bake_region`].
    pub fn bake_region(&self, pos: (i64, i64), image: &Image<u16>) {
        self.inner.lock().bake_region(pos, image);
    }

    /// See [`PyramidCanvas::get_region`].
    pub fn get_region(&self, scale: usize, x0: i64, y0: i64, w: usize, h: usize) -> Image<u16> {
        self.inner.lock().get_region(scale, x0, y0, w, h)
    }

    /// See [`PyramidCanvas::reset`].
    pub fn reset(&self) {
        self.inner.lock().reset();
    }

    /// See [`PyramidCanvas::stats`].
    pub fn stats(&self) -> CanvasStats {
        self.inner.lock().stats()
    }

    /// See [`PyramidCanvas::max_scale`].
    pub fn max_scale(&self) -> usize {
        self.inner.lock().max_scale()
    }

    /// Runs `f` with the locked canvas (compound operations).
    pub fn with<R>(&self, f: impl FnOnce(&mut PyramidCanvas) -> R) -> R {
        f(&mut self.inner.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize, salt: u16) -> Arc<Image<u16>> {
        Arc::new(Image::from_fn(w, h, |x, y| {
            (salt.wrapping_mul(311)).wrapping_add((y * w + x) as u16)
        }))
    }

    fn small_cfg(blend: Blend) -> CanvasConfig {
        CanvasConfig {
            chunk: 16,
            scales: 3,
            blend,
            highlight_tiles: false,
        }
    }

    #[test]
    fn empty_canvas_reads_zero_everywhere() {
        let mut canvas = PyramidCanvas::new(small_cfg(Blend::Overlay));
        for scale in 0..=3 {
            let img = canvas.get_region(scale, -7, -7, 20, 20);
            assert!(img.pixels().iter().all(|&p| p == 0));
        }
        assert_eq!(canvas.stats().live_chunks, 0);
    }

    #[test]
    fn single_tile_round_trips_at_scale_zero() {
        let mut canvas = PyramidCanvas::new(small_cfg(Blend::Overlay));
        let tile = gradient(24, 18, 3);
        // straddles chunk boundaries on both axes (chunk = 16)
        canvas.place_tile(TileId::new(0, 0), (5, 9), Arc::clone(&tile));
        let read = canvas.get_region(0, 5, 9, 24, 18);
        assert_eq!(read.pixels(), tile.pixels());
        // outside the tile: zero
        assert_eq!(
            canvas
                .get_region(0, 0, 0, 5, 9)
                .pixels()
                .iter()
                .sum::<u16>(),
            0
        );
    }

    #[test]
    fn downsample_matches_pyramid_kernel() {
        // odd chunk sizes put a 2×2 block across four children; the
        // off-origin tile leaves empty children beside full ones
        for chunk in [16, 7, 5, 1] {
            let cfg = CanvasConfig {
                chunk,
                ..small_cfg(Blend::Overlay)
            };
            let mut canvas = PyramidCanvas::new(cfg);
            let tile = gradient(24, 16, 7);
            canvas.place_tile(TileId::new(0, 0), (8, 16), Arc::clone(&tile));
            let mut plane = Image::new(32, 32);
            for y in 0..16 {
                plane.row_mut(16 + y)[8..].copy_from_slice(tile.row(y));
            }
            let pyr = stitch_core::pyramid(plane, 3);
            for (scale, level) in pyr.iter().enumerate() {
                let (w, h) = level.dims();
                let read = canvas.get_region(scale, 0, 0, w, h);
                assert_eq!(read.pixels(), level.pixels(), "chunk {chunk} scale {scale}");
            }
        }
    }

    #[test]
    fn moving_a_tile_dirties_old_and_new_footprints() {
        let mut canvas = PyramidCanvas::new(small_cfg(Blend::Overlay));
        let tile = gradient(8, 8, 1);
        canvas.place_tile(TileId::new(0, 0), (0, 0), Arc::clone(&tile));
        assert_eq!(canvas.get_region(0, 0, 0, 8, 8).pixels(), tile.pixels());
        // re-anchor: move the tile; old site must read zero again
        canvas.place_tile(TileId::new(0, 0), (40, 40), Arc::clone(&tile));
        assert!(canvas
            .get_region(0, 0, 0, 8, 8)
            .pixels()
            .iter()
            .all(|&p| p == 0));
        assert_eq!(canvas.get_region(0, 40, 40, 8, 8).pixels(), tile.pixels());
        assert_eq!(canvas.stats().moved, 1);
        // the stale old-site chunk was dropped, and the pyramid followed
        assert!(canvas
            .get_region(1, 0, 0, 4, 4)
            .pixels()
            .iter()
            .all(|&p| p == 0));
    }

    #[test]
    fn replacing_at_same_position_is_a_noop() {
        let mut canvas = PyramidCanvas::new(small_cfg(Blend::Overlay));
        let tile = gradient(8, 8, 1);
        canvas.place_tile(TileId::new(0, 0), (3, 3), Arc::clone(&tile));
        canvas.get_region(0, 0, 0, 16, 16);
        let resolves = canvas.stats().resolves;
        canvas.place_tile(TileId::new(0, 0), (3, 3), Arc::clone(&tile));
        canvas.get_region(0, 0, 0, 16, 16);
        assert_eq!(canvas.stats().resolves, resolves, "no re-resolution");
        assert_eq!(canvas.stats().moved, 0);
    }

    #[test]
    fn sparse_placements_do_not_allocate_the_bounding_box() {
        let mut canvas = PyramidCanvas::new(CanvasConfig {
            chunk: 16,
            scales: 5,
            ..CanvasConfig::default()
        });
        let tile = gradient(16, 16, 2);
        canvas.place_tile(TileId::new(0, 0), (0, 0), Arc::clone(&tile));
        canvas.place_tile(TileId::new(0, 1), (100_000, 100_000), Arc::clone(&tile));
        canvas.get_region(0, 0, 0, 16, 16);
        canvas.get_region(0, 100_000, 100_000, 16, 16);
        let stats = canvas.stats();
        // bounding box is ~6250² chunks; live chunks must stay tiny
        assert!(stats.live_chunks <= 16, "live {}", stats.live_chunks);
        assert_eq!(stats.peak_chunk_bytes, stats.chunk_bytes);
    }

    #[test]
    fn negative_coordinates_resolve_with_floor_alignment() {
        let mut canvas = PyramidCanvas::new(small_cfg(Blend::Overlay));
        let tile = Arc::new(Image::filled(4, 4, 400u16));
        canvas.place_tile(TileId::new(0, 0), (-4, -4), Arc::clone(&tile));
        let read = canvas.get_region(0, -4, -4, 8, 8);
        assert_eq!(read.get(0, 0), 400);
        assert_eq!(read.get(3, 3), 400);
        assert_eq!(read.get(4, 4), 0);
        // scale 1: pixel (-2,-2) covers scale-0 (-4..-2)² — all 400
        let down = canvas.get_region(1, -2, -2, 2, 2);
        assert_eq!(down.get(0, 0), 400);
    }

    #[test]
    fn bake_then_place_panics() {
        let mut canvas = PyramidCanvas::new(small_cfg(Blend::Overlay));
        canvas.bake_region((0, 0), &Image::filled(4, 4, 1u16));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            canvas.place_tile(
                TileId::new(0, 0),
                (0, 0),
                Arc::new(Image::filled(4, 4, 1u16)),
            );
        }));
        assert!(result.is_err());
    }

    #[test]
    fn baked_bands_stack_like_a_mosaic() {
        let mut canvas = PyramidCanvas::new(small_cfg(Blend::Overlay));
        let full = Image::from_fn(40, 30, |x, y| (y * 40 + x) as u16);
        let mut y = 0;
        while y < 30 {
            let h = 7.min(30 - y);
            canvas.bake_region((0, y as i64), &full.crop(0, y, 40, h));
            y += h;
        }
        assert_eq!(canvas.get_region(0, 0, 0, 40, 30).pixels(), full.pixels());
        let pyr = stitch_core::pyramid(full, 2);
        for (scale, level) in pyr.iter().enumerate() {
            let (w, h) = level.dims();
            assert_eq!(
                canvas.get_region(scale, 0, 0, w, h).pixels(),
                level.pixels(),
                "scale {scale}"
            );
        }
        assert_eq!(canvas.stats().placements, 0, "bands are not retained");
    }

    #[test]
    fn reset_clears_content_and_counters() {
        let mut canvas = PyramidCanvas::new(small_cfg(Blend::Average));
        canvas.place_tile(TileId::new(0, 0), (0, 0), gradient(8, 8, 5));
        canvas.get_region(0, 0, 0, 8, 8);
        canvas.reset();
        let stats = canvas.stats();
        assert_eq!(stats, CanvasStats::default());
        assert!(canvas
            .get_region(0, 0, 0, 8, 8)
            .pixels()
            .iter()
            .all(|&p| p == 0));
        // a reset canvas accepts either feed mode again
        canvas.bake_region((0, 0), &Image::filled(4, 4, 9u16));
        assert_eq!(canvas.get_region(0, 0, 0, 1, 1).get(0, 0), 9);
    }

    #[test]
    fn shared_canvas_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedCanvas>();
    }
}
