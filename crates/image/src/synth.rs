//! Synthetic microscopy plate generator.
//!
//! Substitutes for the paper's A10 cell-colony dataset (42×59 grid of
//! 1392×1040 16-bit tiles, §I). A procedural *scene* — cell colonies laid
//! out over a virtual plate — is rasterized on demand into overlapping
//! tiles, exactly the way a motorized stage scans a physical plate:
//!
//! * nominal stage steps of `tile × (1 − overlap)` perturbed by per-tile
//!   **jitter** and a serpentine **backlash** bias (the mechanical effects
//!   the paper names as the reason displacements must be *computed*);
//! * per-tile sensor noise (different noise in the two copies of an
//!   overlap region, as with a real camera) and radial vignetting;
//! * tunable feature density — sparse scenes model the early-experiment
//!   low-density images that defeat feature-based stitchers (§I).
//!
//! Ground-truth tile positions are retained so tests can assert that the
//! recovered displacements are exactly right, something the real dataset
//! never allowed.

use std::f64::consts::PI;
use std::fs;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{ImageError, Result};
use crate::image::{round_to_u16, Image};
use crate::opts::{Dims, Options};
use crate::par::{default_workers, par_map};
use crate::tiff;

/// One fluorescent cell: an oriented anisotropic Gaussian blob.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Center x in plate coordinates.
    pub x: f64,
    /// Center y in plate coordinates.
    pub y: f64,
    /// Major-axis sigma.
    pub sx: f64,
    /// Minor-axis sigma.
    pub sy: f64,
    /// Orientation cosine.
    pub cos_t: f64,
    /// Orientation sine.
    pub sin_t: f64,
    /// Peak intensity above background.
    pub amp: f64,
    /// Focal depth in z-plane units (0 for flat 2-D scenes).
    pub z: f64,
}

impl Cell {
    /// In-focus radius beyond which the blob's contribution is negligible.
    /// Volume scenes widen this by the worst-case defocus blur factor.
    fn support(&self) -> f64 {
        3.5 * self.sx.max(self.sy)
    }

    /// The factors of [`Cell::eval_at_plane`] that no pixel changes, each
    /// computed by the same expression, and its exponent's quadratic form.
    fn at_plane(&self, plane: f64, defocus: f64) -> PlaneCell {
        let dz = (plane - self.z) * defocus;
        let f2 = 1.0 + dz * dz;
        let (den_u, den_v) = (2.0 * self.sx * self.sx * f2, 2.0 * self.sy * self.sy * f2);
        let (c, s) = (self.cos_t, self.sin_t);
        PlaneCell {
            cell: *self,
            den_u,
            den_v,
            amp_f2: self.amp / f2,
            form: [
                c * c / den_u + s * s / den_v,
                c * s * (1.0 / den_u - 1.0 / den_v),
                s * s / den_u + c * c / den_v,
            ],
        }
    }

    /// Intensity contribution as imaged from focal plane `plane`: an
    /// out-of-focus cell blurs (σ grows with the defocus distance) and dims
    /// (peak falls as 1/blur², conserving integrated energy) — the standard
    /// thin-lens defocus approximation. The per-point oracle of
    /// [`Scene::render_region_plane`].
    #[cfg(test)]
    fn eval_at_plane(&self, px: f64, py: f64, plane: f64, defocus: f64) -> f64 {
        let dz = (plane - self.z) * defocus;
        let f2 = 1.0 + dz * dz;
        let dx = px - self.x;
        let dy = py - self.y;
        let u = dx * self.cos_t + dy * self.sin_t;
        let v = -dx * self.sin_t + dy * self.cos_t;
        let e = -(u * u / (2.0 * self.sx * self.sx * f2) + v * v / (2.0 * self.sy * self.sy * f2));
        if e < -12.0 {
            0.0
        } else {
            self.amp / f2 * e.exp()
        }
    }
}

/// A cell seen from one focal plane: the denominators `2·sx²·f2`, `2·sy²·f2`,
/// the dimmed peak `amp / f2`, and `e = −(a·dx² + 2b·dx·dy + c·dy²)` as the
/// form `[a, b, c]`, which decides where the cell is evaluated, not what it adds.
#[derive(Clone, Copy)]
struct PlaneCell {
    cell: Cell,
    den_u: f64,
    den_v: f64,
    amp_f2: f64,
    form: [f64; 3],
}

impl PlaneCell {
    /// The cell on row `py`: itself, `dy·sin_t`, `dy·cos_t` and the `dx`
    /// interval outside which its exponent is below −12.5, so that
    /// [`Cell::eval_at_plane`] adds exactly `0.0`; `None` if the whole row
    /// is. Rounding moves the bounds only where `e` is a hair from −12.5.
    fn on_row(self, py: f64) -> Option<(PlaneCell, f64, f64, f64, f64)> {
        let dy = py - self.cell.y;
        let [a, b, c] = self.form;
        let (b, k) = (b * dy, c * dy * dy);
        let disc = b * b - a * (k - 12.5);
        if disc < 0.0 {
            return None;
        }
        let (dy_sin, dy_cos, root) = (dy * self.cell.sin_t, dy * self.cell.cos_t, disc.sqrt());
        Some((self, dy_sin, dy_cos, (-b - root) / a, (-b + root) / a))
    }
}

/// Scene content parameters.
#[derive(Clone, Debug)]
pub struct SceneParams {
    /// Number of colonies scattered over the plate.
    pub colony_count: usize,
    /// Cells per colony (inclusive range).
    pub cells_per_colony: (usize, usize),
    /// Colony radius: cells are Gaussian-scattered with this sigma.
    pub colony_spread: f64,
    /// Cell sigma range in pixels.
    pub cell_sigma: (f64, f64),
    /// Cell peak intensity range (16-bit counts above background).
    pub cell_intensity: (f64, f64),
    /// Background level (16-bit counts).
    pub background: f64,
    /// Amplitude of the slow illumination gradient across the plate.
    pub illumination_amplitude: f64,
    /// Amplitude of the plate-fixed fine texture (debris, media granularity,
    /// fixed-pattern structure). This is *scene* content — overlapping
    /// tiles see the same texture — and is what gives phase correlation
    /// signal even where no cell lands in the overlap strip.
    pub texture_amplitude: f64,
    /// RNG seed for scene content.
    pub seed: u64,
}

impl Default for SceneParams {
    fn default() -> Self {
        SceneParams {
            colony_count: 60,
            cells_per_colony: (8, 40),
            colony_spread: 60.0,
            cell_sigma: (2.0, 6.0),
            cell_intensity: (3_000.0, 20_000.0),
            background: 1_200.0,
            illumination_amplitude: 150.0,
            texture_amplitude: 220.0,
            seed: 42,
        }
    }
}

/// A procedural plate: cell list plus a uniform spatial hash for fast
/// region queries, so arbitrarily large plates never get materialized
/// (the paper's full plates reach 200k pixels per side).
pub struct Scene {
    width: f64,
    height: f64,
    params: SceneParams,
    cells: Vec<Cell>,
    bucket: f64,
    buckets_x: usize,
    buckets_y: usize,
    /// Defocus blur growth per plane of distance from a cell's focal depth.
    defocus: f64,
    /// bucket index → indices into `cells`
    index: Vec<Vec<u32>>,
}

impl Scene {
    /// Generates a flat (single-plane) scene covering `width × height`
    /// plate pixels.
    pub fn generate(width: f64, height: f64, params: SceneParams) -> Scene {
        Self::generate_volume(width, height, params, 1, 0.0)
    }

    /// Generates a volumetric scene: cells additionally carry a focal depth
    /// in `[0, z_planes-1]`, and rendering a given plane defocuses cells in
    /// proportion to their distance from it. Focal depths come from a hash
    /// stream separate from the colony RNG, so the cell layout of a stacked
    /// scene is identical to the flat scene with the same parameters.
    pub fn generate_volume(
        width: f64,
        height: f64,
        params: SceneParams,
        z_planes: usize,
        defocus: f64,
    ) -> Scene {
        let z_planes = z_planes.max(1);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut cells = Vec::new();
        for _ in 0..params.colony_count {
            let cx = rng.gen_range(0.0..width);
            let cy = rng.gen_range(0.0..height);
            let n = rng.gen_range(params.cells_per_colony.0..=params.cells_per_colony.1);
            for _ in 0..n {
                let (gx, gy) = gaussian_pair(&mut rng);
                let theta = rng.gen_range(0.0..PI);
                let sx = rng.gen_range(params.cell_sigma.0..=params.cell_sigma.1);
                cells.push(Cell {
                    x: cx + gx * params.colony_spread,
                    y: cy + gy * params.colony_spread,
                    sx,
                    sy: sx * rng.gen_range(0.5..1.0),
                    cos_t: theta.cos(),
                    sin_t: theta.sin(),
                    amp: rng.gen_range(params.cell_intensity.0..=params.cell_intensity.1),
                    z: 0.0,
                });
            }
        }
        let zspan = (z_planes - 1) as f64;
        if zspan > 0.0 {
            for (i, c) in cells.iter_mut().enumerate() {
                c.z = hash01(i as u64, params.seed) * zspan;
            }
        }
        // Worst-case blur factor across the stack: a cell can be at most
        // `zspan` planes out of focus. The spatial index must cover the
        // blurred support, not just the in-focus one.
        let max_blur = (1.0 + (zspan * defocus) * (zspan * defocus)).sqrt();
        let max_support = cells.iter().map(|c| c.support()).fold(8.0, f64::max) * max_blur;
        let bucket = (max_support * 2.0).max(64.0);
        let buckets_x = (width / bucket).ceil().max(1.0) as usize;
        let buckets_y = (height / bucket).ceil().max(1.0) as usize;
        let mut index = vec![Vec::new(); buckets_x * buckets_y];
        for (i, c) in cells.iter().enumerate() {
            let r = c.support() * max_blur;
            let bx0 = (((c.x - r) / bucket).floor().max(0.0) as usize).min(buckets_x - 1);
            let bx1 = (((c.x + r) / bucket).floor().max(0.0) as usize).min(buckets_x - 1);
            let by0 = (((c.y - r) / bucket).floor().max(0.0) as usize).min(buckets_y - 1);
            let by1 = (((c.y + r) / bucket).floor().max(0.0) as usize).min(buckets_y - 1);
            for by in by0..=by1 {
                for bx in bx0..=bx1 {
                    index[by * buckets_x + bx].push(i as u32);
                }
            }
        }
        Scene {
            width,
            height,
            params,
            cells,
            bucket,
            buckets_x,
            buckets_y,
            defocus,
            index,
        }
    }

    /// Total cell count.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Noise-free scene intensity at a plate point, seen from plane 0.
    #[cfg(test)]
    fn intensity(&self, px: f64, py: f64) -> f64 {
        self.intensity_at_plane(px, py, 0.0)
    }

    /// Noise-free scene intensity at a plate point as imaged from focal
    /// plane `plane`: the per-point reference [`Scene::render_region_plane`]
    /// evaluates row by row. Background, the slow illumination gradient,
    /// and the plate-fixed texture are depth-independent; cells defocus
    /// with their distance from the plane. For flat scenes this equals
    /// [`Scene::intensity`] at every plane.
    #[cfg(test)]
    fn intensity_at_plane(&self, px: f64, py: f64, plane: f64) -> f64 {
        let mut v = self.params.background
            + self.params.illumination_amplitude
                * ((2.0 * PI * px / self.width).sin() * (2.0 * PI * py / self.height).cos());
        if self.params.texture_amplitude > 0.0 {
            v += self.params.texture_amplitude
                * plate_texture(px.floor() as i64, py.floor() as i64, self.params.seed);
        }
        let (bx, by) = (
            self.bucket_of(px, self.buckets_x),
            self.bucket_of(py, self.buckets_y),
        );
        for &ci in &self.index[by * self.buckets_x + bx] {
            v += self.cells[ci as usize].eval_at_plane(px, py, plane, self.defocus);
        }
        v
    }

    /// Spatial-hash bucket of plate coordinate `p` along an axis of `n`
    /// buckets.
    fn bucket_of(&self, p: f64, n: usize) -> usize {
        ((p / self.bucket).floor().max(0.0) as usize).min(n - 1)
    }

    /// Rasterizes the `w × h` region whose top-left plate coordinate is
    /// `(x0, y0)`, applying radial vignetting (`vignette` in `[0,1]`) and
    /// additive Gaussian sensor noise with sigma `noise_sigma`. The noise
    /// stream comes from `noise_seed` so a tile is reproducible, yet two
    /// tiles covering the same plate area get *different* noise.
    #[allow(clippy::too_many_arguments)] // mirrors the microscope's knobs
    pub fn render_region(
        &self,
        x0: f64,
        y0: f64,
        w: usize,
        h: usize,
        vignette: f64,
        noise_sigma: f64,
        noise_seed: u64,
    ) -> Image<u16> {
        self.render_region_plane(x0, y0, w, h, 0.0, vignette, noise_sigma, noise_seed)
    }

    /// [`Scene::render_region`] imaged from focal plane `plane` of a
    /// volumetric scene. The vignette is *tile-fixed* — centered on the
    /// rendered region, not the plate — which is exactly why an uncorrected
    /// illumination field biases registration toward grid-aligned peaks.
    ///
    /// Every factor of one coordinate is evaluated once: the illumination
    /// `sin`, texture column, bucket and `dx²` per column, the `cos`,
    /// texture row, bucket row and `dy²` per row, each cell's plane factors
    /// per call. A row keeps the cells of its buckets that reach it, and a
    /// pixel evaluates those whose `dx` interval holds it: any other adds
    /// exactly `0.0`. Each pixel then sums the same terms in the same order
    /// as the per-point formula, and draws its noise in raster order, so
    /// the output is that formula's bit for bit.
    #[allow(clippy::too_many_arguments)] // mirrors the microscope's knobs
    pub fn render_region_plane(
        &self,
        x0: f64,
        y0: f64,
        w: usize,
        h: usize,
        plane: f64,
        vignette: f64,
        noise_sigma: f64,
        noise_seed: u64,
    ) -> Image<u16> {
        let mut rng = StdRng::seed_from_u64(noise_seed);
        let p = &self.params;
        let cx = w as f64 / 2.0;
        let cy = h as f64 / 2.0;
        let r_max2 = cx * cx + cy * cy;
        // bucket indices below are relative to the region's first bucket
        let bx0 = self.bucket_of(x0, self.buckets_x);
        let by0 = self.bucket_of(y0, self.buckets_y);
        let columns: Vec<(f64, f64, i64, usize, f64)> = (0..w)
            .map(|x| {
                let px = x0 + x as f64;
                let dx = x as f64 - cx;
                let sin = (2.0 * PI * px / self.width).sin();
                (
                    px,
                    sin,
                    px.floor() as i64,
                    self.bucket_of(px, self.buckets_x) - bx0,
                    dx * dx,
                )
            })
            .collect();
        let nbx = columns.last().map_or(0, |c| c.3 + 1);
        let nby = h.checked_sub(1).map_or(0, |last| {
            self.bucket_of(y0 + last as f64, self.buckets_y) - by0 + 1
        });
        // each touched bucket's cells at this plane, in index order, and
        // per row the ones that reach it
        let at_plane = |&ci: &u32| self.cells[ci as usize].at_plane(plane, self.defocus);
        let buckets: Vec<Vec<PlaneCell>> = (by0..by0 + nby)
            .flat_map(|by| &self.index[by * self.buckets_x + bx0..][..nbx])
            .map(|list| list.iter().map(at_plane).collect())
            .collect();
        let mut kept = vec![Vec::new(); nbx];
        let mut data = Vec::with_capacity(w * h);
        for y in 0..h {
            let py = y0 + y as f64;
            let cos = (2.0 * PI * py / self.height).cos();
            let tex_y = py.floor() as i64;
            let row0 = (self.bucket_of(py, self.buckets_y) - by0) * nbx;
            for (row, bucket) in kept.iter_mut().zip(&buckets[row0..]) {
                row.clear();
                row.extend(bucket.iter().filter_map(|c| c.on_row(py)));
            }
            let dy = y as f64 - cy;
            let dy2 = dy * dy;
            data.extend(columns.iter().map(|&(px, sin, tex_x, bx, dx2)| {
                let mut v = p.background + p.illumination_amplitude * (sin * cos);
                if p.texture_amplitude > 0.0 {
                    v += p.texture_amplitude * plate_texture(tex_x, tex_y, p.seed);
                }
                for (c, dy_sin, dy_cos, lo, hi) in &kept[bx] {
                    let dx = px - c.cell.x;
                    if dx < *lo || dx > *hi {
                        continue;
                    }
                    // `eval_at_plane`'s expressions, operand for operand
                    let u = dx * c.cell.cos_t + dy_sin;
                    let t = -dx * c.cell.sin_t + dy_cos;
                    let e = -(u * u / c.den_u + t * t / c.den_v);
                    if e < -12.0 {
                        continue; // NaN falls through, as in `eval_at_plane`
                    }
                    v += c.amp_f2 * e.exp();
                }
                if vignette > 0.0 {
                    v *= 1.0 - vignette * (dx2 + dy2) / r_max2;
                }
                if noise_sigma > 0.0 {
                    let (g, _) = gaussian_pair(&mut rng);
                    v += g * noise_sigma;
                }
                round_to_u16(v)
            }));
        }
        Image::from_vec(w, h, data)
    }
}

/// Deterministic plate-fixed texture in [-1, 1]: an integer hash of the
/// plate pixel, so two tiles covering the same plate area sample identical
/// texture (unlike sensor noise, which differs per exposure).
fn plate_texture(x: i64, y: i64, seed: u64) -> f64 {
    let mut h = (x as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((y as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
        .wrapping_add(seed);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51AFD7ED558CCD);
    h ^= h >> 33;
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Deterministic hash of `(i, seed)` mapped to `[0, 1)` — used for per-cell
/// focal depths so they ride outside the colony RNG stream.
fn hash01(i: u64, seed: u64) -> f64 {
    let mut h = i
        .wrapping_mul(0xD1B54A32D192ED03)
        .wrapping_add(seed.wrapping_mul(0x9E3779B97F4A7C15));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51AFD7ED558CCD);
    h ^= h >> 33;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Box-Muller standard normal pair.
fn gaussian_pair(rng: &mut impl Rng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let t = 2.0 * PI * u2;
    (r * t.cos(), r * t.sin())
}

/// Microscope scan configuration: grid shape, tile geometry, and the
/// mechanical imperfections that make stitching necessary.
#[derive(Clone, Debug, PartialEq)]
pub struct ScanConfig {
    /// Grid rows (the paper's headline grid is 42 rows…).
    pub grid_rows: usize,
    /// …by 59 columns.
    pub grid_cols: usize,
    /// Tile width in pixels (paper: 1392).
    pub tile_width: usize,
    /// Tile height in pixels (paper: 1040).
    pub tile_height: usize,
    /// Nominal overlap fraction between adjacent tiles (paper setups use
    /// ~10 %).
    pub overlap: f64,
    /// Uniform stage jitter bound in pixels: actual positions deviate from
    /// nominal by up to ± this much on each axis.
    pub stage_jitter: f64,
    /// Horizontal backlash bias applied on alternating (serpentine) rows.
    pub backlash_x: f64,
    /// Sensor read-noise sigma (16-bit counts).
    pub noise_sigma: f64,
    /// Radial vignetting strength in `[0, 1]`.
    pub vignette: f64,
    /// Seed for stage jitter and per-tile noise streams.
    pub seed: u64,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            grid_rows: 4,
            grid_cols: 5,
            tile_width: 128,
            tile_height: 96,
            overlap: 0.10,
            stage_jitter: 3.0,
            backlash_x: 1.5,
            noise_sigma: 60.0,
            vignette: 0.04,
            seed: 7,
        }
    }
}

impl ScanConfig {
    /// Convenience constructor for conformance sweeps: a grid with the
    /// given geometry and seed, and the default mechanical imperfections
    /// (jitter, backlash, noise, vignetting). Sweep code tunes individual
    /// fields afterwards via struct update.
    pub fn for_grid(
        rows: usize,
        cols: usize,
        tile_width: usize,
        tile_height: usize,
        overlap: f64,
        seed: u64,
    ) -> ScanConfig {
        ScanConfig {
            grid_rows: rows,
            grid_cols: cols,
            tile_width,
            tile_height,
            overlap,
            seed,
            ..ScanConfig::default()
        }
    }

    /// Range-checks a geometry that came from outside the program: grid
    /// and tile at least 1×1 with a pixel count that fits `usize`, overlap
    /// in `[0, 1)`, jitter and noise finite and non-negative. Thin but
    /// legal overlaps pass — this refuses only what no plate can have.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let (rows, cols) = (self.grid_rows, self.grid_cols);
        let (w, h) = (self.tile_width, self.tile_height);
        if rows == 0 || cols == 0 {
            return Err(format!("grid must be at least 1x1, got {rows}x{cols}"));
        }
        if w == 0 || h == 0 {
            return Err(format!("tile must be at least 1x1, got {w}x{h}"));
        }
        let pixels = [cols, w, h].iter().try_fold(rows, |n, &m| n.checked_mul(m));
        if pixels.and_then(|n| n.checked_mul(2)).is_none() {
            return Err(format!(
                "grid {rows}x{cols} of tile {w}x{h} is out of range"
            ));
        }
        if !(0.0..1.0).contains(&self.overlap) {
            return Err(format!("overlap must be in [0, 1), got {}", self.overlap));
        }
        for (name, v) in [("jitter", self.stage_jitter), ("noise", self.noise_sigma)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and >= 0, got {v}"));
            }
        }
        Ok(())
    }

    /// The grid's `manifest.tsv` header line.
    fn manifest_header(&self) -> String {
        let (rows, cols) = (self.grid_rows, self.grid_cols);
        let (w, h, overlap) = (self.tile_width, self.tile_height, self.overlap);
        format!("# rows={rows} cols={cols} tile_w={w} tile_h={h} overlap={overlap}")
    }

    /// Compact one-line description of the scan geometry — the key test
    /// harnesses use to identify a sweep case in failure reports.
    pub fn label(&self) -> String {
        format!(
            "{}x{} grid, {}x{} tiles, overlap {:.0}%, noise {:.0}, seed {}",
            self.grid_rows,
            self.grid_cols,
            self.tile_width,
            self.tile_height,
            self.overlap * 100.0,
            self.noise_sigma,
            self.seed
        )
    }

    /// Nominal stage step along x.
    pub fn step_x(&self) -> f64 {
        self.tile_width as f64 * (1.0 - self.overlap)
    }

    /// Nominal stage step along y.
    pub fn step_y(&self) -> f64 {
        self.tile_height as f64 * (1.0 - self.overlap)
    }

    /// Plate size needed to cover the whole scan with a safety margin.
    fn plate_dims(&self) -> (f64, f64) {
        (
            self.step_x() * (self.grid_cols.max(1) - 1) as f64
                + self.tile_width as f64
                + 2.0 * self.stage_jitter
                + 16.0,
            self.step_y() * (self.grid_rows.max(1) - 1) as f64
                + self.tile_height as f64
                + 2.0 * self.stage_jitter
                + 16.0,
        )
    }

    /// Bytes of the plate at 16 bits per pixel: what a synthetic scan of
    /// this geometry is rendered from and composed back into. Grows with
    /// the grid's *area*; saturates rather than overflows.
    pub fn plate_bytes(&self) -> usize {
        let (w, h) = self.plate_dims();
        (w * h * 2.0) as usize
    }

    /// Total tile count.
    pub fn tiles(&self) -> usize {
        self.grid_rows * self.grid_cols
    }
}

/// Simulates one pass of the motorized stage: nominal serpentine steps
/// perturbed by per-tile jitter and odd-row backlash, all drawn from
/// `config.seed`. This is *the* ground truth of a scan — every channel and
/// every z-plane of an acquisition shares the one physical stage path, so
/// multi-channel plates reuse the same vector by construction.
fn stage_positions(config: &ScanConfig) -> Vec<(i64, i64)> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let margin = config.stage_jitter + 8.0;
    let mut positions = Vec::with_capacity(config.tiles());
    for r in 0..config.grid_rows {
        for c in 0..config.grid_cols {
            let nominal_x = margin + config.step_x() * c as f64;
            let nominal_y = margin + config.step_y() * r as f64;
            let jx = rng.gen_range(-config.stage_jitter..=config.stage_jitter);
            let jy = rng.gen_range(-config.stage_jitter..=config.stage_jitter);
            // serpentine backlash: odd rows scan right-to-left, shifting
            // every tile by a consistent bias
            let bx = if r % 2 == 1 { config.backlash_x } else { 0.0 };
            positions.push((
                (nominal_x + jx + bx).round() as i64,
                (nominal_y + jy).round() as i64,
            ));
        }
    }
    positions
}

/// A synthesized plate: scene + ground-truth stage positions. Tiles are
/// rendered lazily so plates of any size fit in memory.
pub struct SyntheticPlate {
    /// The scan that produced this plate.
    pub config: ScanConfig,
    scene: Scene,
    /// Actual (jittered) top-left plate coordinates of each tile,
    /// row-major. This is the ground truth stitching must recover.
    positions: Vec<(i64, i64)>,
}

impl SyntheticPlate {
    /// Synthesizes a plate with default scene density scaled to the plate
    /// area: channel 0 of [`ChannelConfig::for_channel`].
    pub fn generate(config: ScanConfig) -> SyntheticPlate {
        let params = ChannelConfig::for_channel(&config, 0).scene;
        Self::generate_with_scene(config, params)
    }

    /// Synthesizes a plate with explicit scene parameters (e.g. sparse
    /// scenes for the low-feature-density robustness tests).
    pub fn generate_with_scene(config: ScanConfig, params: SceneParams) -> SyntheticPlate {
        let (pw, ph) = config.plate_dims();
        let scene = Scene::generate(pw, ph, params);
        let positions = stage_positions(&config);
        SyntheticPlate {
            config,
            scene,
            positions,
        }
    }

    /// Ground-truth top-left position of tile `(row, col)`.
    pub fn true_position(&self, row: usize, col: usize) -> (i64, i64) {
        self.positions[row * self.config.grid_cols + col]
    }

    /// All ground-truth positions, row-major.
    pub fn positions(&self) -> &[(i64, i64)] {
        &self.positions
    }

    /// Ground-truth relative displacement of tile `(row, col)` with respect
    /// to its **western** neighbor: `pos(r,c) − pos(r,c−1)`.
    pub fn true_west_displacement(&self, row: usize, col: usize) -> (i64, i64) {
        assert!(col > 0);
        let (x1, y1) = self.true_position(row, col);
        let (x0, y0) = self.true_position(row, col - 1);
        (x1 - x0, y1 - y0)
    }

    /// Ground-truth relative displacement with respect to the **northern**
    /// neighbor: `pos(r,c) − pos(r−1,c)`.
    pub fn true_north_displacement(&self, row: usize, col: usize) -> (i64, i64) {
        assert!(row > 0);
        let (x1, y1) = self.true_position(row, col);
        let (x0, y0) = self.true_position(row - 1, col);
        (x1 - x0, y1 - y0)
    }

    /// Renders tile `(row, col)` — deterministic, with a per-tile noise
    /// stream.
    pub fn render_tile(&self, row: usize, col: usize) -> Image<u16> {
        let (x, y) = self.true_position(row, col);
        let noise_seed = self
            .config
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((row * self.config.grid_cols + col) as u64);
        self.scene.render_region(
            x as f64,
            y as f64,
            self.config.tile_width,
            self.config.tile_height,
            self.config.vignette,
            self.config.noise_sigma,
            noise_seed,
        )
    }

    /// The underlying scene (for rendering reference plate images).
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Standard tile file name, mirroring microscope acquisition software
    /// conventions. Carries the full tile identity — channel, z-plane, row,
    /// column — so the tiles of a multi-channel z-stack acquisition never
    /// collide on disk.
    pub fn tile_file_name(channel: usize, plane: usize, row: usize, col: usize) -> String {
        format!("img_c{channel:02}_z{plane:02}_r{row:03}_c{col:03}.tif")
    }

    /// Writes every tile as TIFF plus a `manifest.tsv` with the ground
    /// truth into `dir` (created if needed), rendering on every core.
    /// Returns the number of tiles written. This produces the on-disk
    /// dataset the end-to-end pipelines read, so disk I/O is really
    /// exercised.
    pub fn write_to_dir(&self, dir: impl AsRef<Path>) -> Result<usize> {
        self.write_with(dir.as_ref(), default_workers())
    }

    /// [`Self::write_to_dir`] on up to `workers` threads.
    pub(crate) fn write_with(&self, dir: &Path, workers: usize) -> Result<usize> {
        let (cfg, header) = (&self.config, self.config.manifest_header());
        let dims = [1, 1, cfg.grid_rows, cfg.grid_cols];
        write_dataset(dir, workers, header, dims, |[_, _, r, c]| {
            let (x, y) = self.true_position(r, c);
            (format!("{r}\t{c}\t{x}\t{y}"), self.render_tile(r, c))
        })
    }
}

/// Writes `channels × planes × rows × cols` images as TIFF on up to
/// `workers` threads, then `manifest.tsv`: `header`, and the fields
/// `image` gives with each file's name, in that nesting order. Each image
/// is a pure function of its `[channel, plane, row, col]`, so the files
/// are the same bytes on any number of workers.
fn write_dataset(
    dir: &Path,
    workers: usize,
    header: String,
    [channels, planes, rows, cols]: [usize; 4],
    image: impl Fn([usize; 4]) -> (String, Image<u16>) + Sync,
) -> Result<usize> {
    fs::create_dir_all(dir)?;
    let images = channels * planes * rows * cols;
    let lines = par_map(workers, 0..images, |i| -> Result<String> {
        let (ch, z) = (i / (planes * rows * cols), i / (rows * cols) % planes);
        let (r, c) = (i / cols % rows, i % cols);
        let (fields, tile) = image([ch, z, r, c]);
        let name = SyntheticPlate::tile_file_name(ch, z, r, c);
        tiff::write_tiff(dir.join(&name), &tile)?;
        Ok(format!("{fields}\t{name}\n"))
    });
    let lines: String = lines.into_iter().collect::<Result<_>>()?;
    fs::write(dir.join("manifest.tsv"), header + "\n" + &lines)?;
    Ok(images)
}

/// Per-channel imaging parameters of a multi-channel acquisition: each
/// fluorescence channel images its own structures (its own scene) through
/// its own optical path (its own vignette and sensor noise), but over the
/// *same* stage positions as every other channel.
#[derive(Clone, Debug)]
pub struct ChannelConfig {
    /// Display name (e.g. `ch00`, `DAPI`).
    pub name: String,
    /// Scene content this channel's fluorophore labels.
    pub scene: SceneParams,
    /// Radial illumination falloff of this channel's optical path, in
    /// `[0, 1]` (fraction lost at the tile corner).
    pub vignette: f64,
    /// Sensor read-noise sigma for this channel.
    pub noise_sigma: f64,
}

impl ChannelConfig {
    /// Default channel derived from the scan geometry: channel 0 matches
    /// the single-channel plate (same scene seed, same vignette); higher
    /// channels image different structures (different scene seed) through
    /// progressively stronger illumination falloff — the shape real
    /// filter-wheel systems show.
    pub fn for_channel(base: &ScanConfig, channel: usize) -> ChannelConfig {
        let (pw, ph) = base.plate_dims();
        // one colony per ~160×160 px patch, whatever the plate size
        let colonies = ((pw * ph) / (160.0 * 160.0)).ceil() as usize;
        ChannelConfig {
            name: format!("ch{channel:02}"),
            scene: SceneParams {
                colony_count: colonies.max(4),
                seed: base.seed ^ 0x5ce11e ^ (channel as u64).wrapping_mul(0x9E37_79B9),
                ..SceneParams::default()
            },
            vignette: (base.vignette + 0.06 * channel as f64).min(0.8),
            noise_sigma: base.noise_sigma,
        }
    }
}

/// A multi-channel z-stack scan: one stage path (`base`) shared by all
/// channels, per-channel optics, and `z_planes` focal planes imaged with
/// defocus blur growing `defocus` per plane of distance.
#[derive(Clone, Debug)]
pub struct MultiScanConfig {
    /// Stage geometry and mechanics; also seeds the shared stage path.
    pub base: ScanConfig,
    /// Per-channel content and optics (must be non-empty).
    pub channels: Vec<ChannelConfig>,
    /// Number of focal planes per tile position (≥ 1).
    pub z_planes: usize,
    /// Defocus blur growth per plane of distance from a cell's focal depth.
    pub defocus: f64,
}

impl MultiScanConfig {
    /// A stack with `channels` default channels ([`ChannelConfig::for_channel`])
    /// and `z_planes` focal planes at a moderate defocus.
    pub fn for_channels(base: ScanConfig, channels: usize, z_planes: usize) -> MultiScanConfig {
        let channels = channels.max(1);
        MultiScanConfig {
            channels: (0..channels)
                .map(|ch| ChannelConfig::for_channel(&base, ch))
                .collect(),
            base,
            z_planes: z_planes.max(1),
            defocus: 0.35,
        }
    }

    /// Compact one-line description for test failure reports.
    pub fn label(&self) -> String {
        format!(
            "{} · {} channels × {} planes",
            self.base.label(),
            self.channels.len(),
            self.z_planes
        )
    }

    /// Total images in the acquisition (channels × planes × grid tiles).
    pub fn images(&self) -> usize {
        self.channels.len() * self.z_planes * self.base.tiles()
    }
}

/// A synthesized multi-channel z-stack plate. All channels and planes share
/// one ground-truth stage path — per-channel true positions are identical
/// *by construction*, which is what lets registration run once on a
/// reference channel and replay everywhere.
pub struct MultiChannelPlate {
    /// The acquisition that produced this plate.
    pub config: MultiScanConfig,
    scenes: Vec<Scene>,
    positions: Vec<(i64, i64)>,
}

impl MultiChannelPlate {
    /// Synthesizes the plate: one volumetric scene per channel, one shared
    /// stage path from `config.base.seed`.
    pub fn generate(config: MultiScanConfig) -> MultiChannelPlate {
        assert!(!config.channels.is_empty(), "at least one channel");
        let (pw, ph) = config.base.plate_dims();
        let scenes = config
            .channels
            .iter()
            .map(|ch| {
                Scene::generate_volume(pw, ph, ch.scene.clone(), config.z_planes, config.defocus)
            })
            .collect();
        let positions = stage_positions(&config.base);
        MultiChannelPlate {
            config,
            scenes,
            positions,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.config.channels.len()
    }

    /// Number of focal planes.
    pub fn z_planes(&self) -> usize {
        self.config.z_planes
    }

    /// Stage geometry shared by every channel and plane.
    pub fn base(&self) -> &ScanConfig {
        &self.config.base
    }

    /// Ground-truth top-left position of tile `(row, col)` — the same for
    /// every channel and plane.
    pub fn true_position(&self, row: usize, col: usize) -> (i64, i64) {
        self.positions[row * self.config.base.grid_cols + col]
    }

    /// All ground-truth positions, row-major.
    pub fn positions(&self) -> &[(i64, i64)] {
        &self.positions
    }

    /// The volumetric scene a channel images.
    pub fn scene(&self, channel: usize) -> &Scene {
        &self.scenes[channel]
    }

    /// Renders one image of the acquisition — deterministic, with a noise
    /// stream unique to the `(channel, plane, row, col)` exposure.
    pub fn render_tile(&self, channel: usize, plane: usize, row: usize, col: usize) -> Image<u16> {
        let base = &self.config.base;
        let (x, y) = self.true_position(row, col);
        let exposure =
            (channel * self.config.z_planes + plane) * base.tiles() + row * base.grid_cols + col;
        let noise_seed = base
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(exposure as u64);
        let ch = &self.config.channels[channel];
        self.scenes[channel].render_region_plane(
            x as f64,
            y as f64,
            base.tile_width,
            base.tile_height,
            plane as f64,
            ch.vignette,
            ch.noise_sigma,
            noise_seed,
        )
    }

    /// Writes every image as TIFF plus a `manifest.tsv` (extended header
    /// with `channels=`/`z_planes=`, seven-field lines carrying channel and
    /// plane) into `dir`, rendering on every core. Returns the number of
    /// images written.
    pub fn write_to_dir(&self, dir: impl AsRef<Path>) -> Result<usize> {
        self.write_with(dir.as_ref(), default_workers())
    }

    /// [`Self::write_to_dir`] on up to `workers` threads.
    pub(crate) fn write_with(&self, dir: &Path, workers: usize) -> Result<usize> {
        let (base, channels, planes) = (&self.config.base, self.channels(), self.z_planes());
        let header = base.manifest_header() + &format!(" channels={channels} z_planes={planes}");
        let dims = [channels, planes, base.grid_rows, base.grid_cols];
        write_dataset(dir, workers, header, dims, |[ch, z, r, c]| {
            let (x, y) = self.true_position(r, c);
            let fields = format!("{ch}\t{z}\t{r}\t{c}\t{x}\t{y}");
            (fields, self.render_tile(ch, z, r, c))
        })
    }
}

/// A tile-grid dataset on disk (as produced by
/// [`SyntheticPlate::write_to_dir`]): geometry plus per-tile file paths and,
/// when available, ground-truth positions.
#[derive(Clone, Debug)]
pub struct GridManifest {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Tile width.
    pub tile_width: usize,
    /// Tile height.
    pub tile_height: usize,
    /// Nominal overlap fraction.
    pub overlap: f64,
    /// Tile file paths, row-major.
    pub files: Vec<std::path::PathBuf>,
    /// Ground-truth positions, row-major (empty when unknown).
    pub truth: Vec<(i64, i64)>,
}

impl GridManifest {
    /// Loads `manifest.tsv` from a dataset directory: the one-channel ×
    /// one-plane case of [`MultiGridManifest::load`].
    pub fn load(dir: impl AsRef<Path>) -> Result<GridManifest> {
        let m = MultiGridManifest::load(dir)?;
        if m.channels != 1 || m.z_planes != 1 {
            return Err(ImageError::Format(format!(
                "manifest lists {} channel(s) x {} plane(s), not a single-plane grid",
                m.channels, m.z_planes
            )));
        }
        Ok(GridManifest {
            rows: m.rows,
            cols: m.cols,
            tile_width: m.tile_width,
            tile_height: m.tile_height,
            overlap: m.overlap,
            files: m.files,
            truth: m.truth,
        })
    }

    /// Tile file path at `(row, col)`.
    pub fn file(&self, row: usize, col: usize) -> &Path {
        &self.files[row * self.cols + col]
    }

    /// Total tile count.
    pub fn tiles(&self) -> usize {
        self.rows * self.cols
    }
}

/// A multi-channel z-stack dataset on disk (as produced by
/// [`MultiChannelPlate::write_to_dir`]). Also loads legacy single-channel
/// manifests, which appear as one channel × one plane.
#[derive(Clone, Debug)]
pub struct MultiGridManifest {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Tile width.
    pub tile_width: usize,
    /// Tile height.
    pub tile_height: usize,
    /// Nominal overlap fraction.
    pub overlap: f64,
    /// Channel count (≥ 1).
    pub channels: usize,
    /// Focal-plane count (≥ 1).
    pub z_planes: usize,
    /// Image file paths, indexed `(channel, plane, row, col)` — see
    /// [`MultiGridManifest::index`].
    pub files: Vec<std::path::PathBuf>,
    /// Ground-truth stage positions, row-major over the grid (shared by all
    /// channels/planes; empty when unknown).
    pub truth: Vec<(i64, i64)>,
}

impl MultiGridManifest {
    /// Loads `manifest.tsv` from a dataset directory. Accepts both the
    /// extended seven-field format and the legacy five-field single-channel
    /// format.
    pub fn load(dir: impl AsRef<Path>) -> Result<MultiGridManifest> {
        let dir = dir.as_ref();
        let text = fs::read_to_string(dir.join("manifest.tsv"))?;
        let header = text
            .lines()
            .next()
            .ok_or_else(|| ImageError::Format("empty manifest".into()))?;
        let bad_header = |e: String| ImageError::Format(format!("manifest header: {e}"));
        let mut header = Options::from_pairs(header.trim_start_matches('#').split_whitespace())
            .map_err(bad_header)?;
        // a header without grid or tile dims reads as 0x0 and is refused
        let geometry = header
            .take_scan(
                ScanConfig::for_grid(0, 0, 0, 0, 0.0, 0),
                Dims::Each("rows", "cols"),
                Dims::Each("tile_w", "tile_h"),
            )
            .map_err(bad_header)?;
        let channels = header.take_count("channels").map_err(bad_header)?;
        let z_planes = header.take_count("z_planes").map_err(bad_header)?;
        header.finish().map_err(bad_header)?;
        let (rows, cols) = (geometry.grid_rows, geometry.grid_cols);
        let (channels, z_planes) = (channels.unwrap_or(1), z_planes.unwrap_or(1));

        // size the tables from the lines actually present, never from the
        // header alone: one line per image or the manifest is refused
        let lines = || {
            let data = text.lines().skip(1);
            data.filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        };
        let listed = lines().count();
        let images = channels
            .checked_mul(z_planes)
            .and_then(|n| n.checked_mul(rows * cols));
        if images != Some(listed) {
            return Err(ImageError::Format(format!(
                "manifest lists {listed} images, header says {channels} x {z_planes} x {rows}x{cols}"
            )));
        }
        let mut files = vec![std::path::PathBuf::new(); listed];
        let mut truth = vec![(0i64, 0i64); rows * cols];
        for line in lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = |what: &str| ImageError::Format(format!("bad {what} in line: {line}"));
            // seven fields carry (ch, z, r, c, x, y, name); legacy five
            // carry (r, c, x, y, name) for channel 0 / plane 0
            let (ch, z, rest) = match f.len() {
                7 => (
                    f[0].parse().map_err(|_| bad("channel"))?,
                    f[1].parse().map_err(|_| bad("plane"))?,
                    &f[2..],
                ),
                5 => (0usize, 0usize, &f[..]),
                _ => return Err(ImageError::Format(format!("bad manifest line: {line}"))),
            };
            let r: usize = rest[0].parse().map_err(|_| bad("row"))?;
            let c: usize = rest[1].parse().map_err(|_| bad("col"))?;
            let x: i64 = rest[2].parse().map_err(|_| bad("x"))?;
            let y: i64 = rest[3].parse().map_err(|_| bad("y"))?;
            if ch >= channels || z >= z_planes {
                return Err(ImageError::Format(format!(
                    "image (ch {ch}, z {z}) outside stack"
                )));
            }
            if r >= rows || c >= cols {
                return Err(ImageError::Format(format!("tile ({r},{c}) outside grid")));
            }
            files[((ch * z_planes + z) * rows + r) * cols + c] = dir.join(rest[4]);
            truth[r * cols + c] = (x, y);
        }
        Ok(MultiGridManifest {
            rows,
            cols,
            tile_width: geometry.tile_width,
            tile_height: geometry.tile_height,
            overlap: geometry.overlap,
            channels,
            z_planes,
            files,
            truth,
        })
    }

    /// Flat index of image `(channel, plane, row, col)` into `files`.
    pub fn index(&self, channel: usize, plane: usize, row: usize, col: usize) -> usize {
        ((channel * self.z_planes + plane) * self.rows + row) * self.cols + col
    }

    /// Image file path for `(channel, plane, row, col)`.
    pub fn file(&self, channel: usize, plane: usize, row: usize, col: usize) -> &Path {
        &self.files[self.index(channel, plane, row, col)]
    }

    /// Total image count (channels × planes × grid tiles).
    pub fn images(&self) -> usize {
        self.channels * self.z_planes * self.rows * self.cols
    }

    /// Grid tile count per (channel, plane).
    pub fn tiles(&self) -> usize {
        self.rows * self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ScanConfig {
        ScanConfig {
            grid_rows: 3,
            grid_cols: 4,
            tile_width: 64,
            tile_height: 48,
            ..ScanConfig::default()
        }
    }

    #[test]
    fn deterministic_rendering() {
        let plate = SyntheticPlate::generate(small_config());
        let a = plate.render_tile(1, 2);
        let b = plate.render_tile(1, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn different_tiles_differ() {
        let plate = SyntheticPlate::generate(small_config());
        assert_ne!(plate.render_tile(0, 0), plate.render_tile(2, 3));
    }

    #[test]
    fn positions_respect_overlap_geometry() {
        let cfg = small_config();
        let plate = SyntheticPlate::generate(cfg.clone());
        for r in 0..cfg.grid_rows {
            for c in 1..cfg.grid_cols {
                let (dx, _dy) = plate.true_west_displacement(r, c);
                // west displacement ≈ step_x within jitter + backlash + rounding
                let bound = cfg.stage_jitter * 2.0 + cfg.backlash_x + 2.0;
                assert!(
                    (dx as f64 - cfg.step_x()).abs() <= bound,
                    "dx={dx} nominal={}",
                    cfg.step_x()
                );
            }
        }
    }

    #[test]
    fn overlapping_tiles_share_content() {
        // The overlap strip of (0,0) and (0,1) covers the same plate area,
        // so despite independent noise the pixel correlation must be high.
        let mut cfg = small_config();
        cfg.noise_sigma = 20.0;
        let plate = SyntheticPlate::generate(cfg.clone());
        let a = plate.render_tile(0, 0);
        let b = plate.render_tile(0, 1);
        let (dx, dy) = plate.true_west_displacement(0, 1);
        let dx = dx as usize;
        assert_eq!(dy.unsigned_abs() as usize, dy.unsigned_abs() as usize);
        let ow = cfg.tile_width - dx; // overlap width
        let mut num = 0.0;
        let mut da = 0.0;
        let mut db = 0.0;
        let mean = |img: &Image<u16>| {
            img.pixels().iter().map(|&v| f64::from(v)).sum::<f64>() / img.len() as f64
        };
        let (ma, mb) = (mean(&a), mean(&b));
        for y in 4..cfg.tile_height.saturating_sub(4) {
            let yb = (y as i64 - dy) as usize;
            if yb >= cfg.tile_height {
                continue;
            }
            for x in 0..ow {
                let va = a.get(dx + x, y) as f64 - ma;
                let vb = b.get(x, yb) as f64 - mb;
                num += va * vb;
                da += va * va;
                db += vb * vb;
            }
        }
        let corr = num / (da.sqrt() * db.sqrt());
        assert!(corr > 0.5, "overlap correlation too low: {corr}");
    }

    #[test]
    fn write_and_reload_manifest() {
        let dir = std::env::temp_dir().join("stitch_synth_test");
        let _ = fs::remove_dir_all(&dir);
        let cfg = small_config();
        let plate = SyntheticPlate::generate(cfg.clone());
        let n = plate.write_to_dir(&dir).unwrap();
        assert_eq!(n, 12);
        let m = GridManifest::load(&dir).unwrap();
        assert_eq!((m.rows, m.cols), (3, 4));
        assert_eq!(m.tile_width, 64);
        assert_eq!(m.truth[5], plate.true_position(1, 1));
        // files decode back to the rendered tiles
        let img = tiff::read_tiff(m.file(1, 1)).unwrap();
        assert_eq!(img, plate.render_tile(1, 1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backlash_biases_odd_rows() {
        let mut cfg = small_config();
        cfg.stage_jitter = 0.0;
        cfg.backlash_x = 4.0;
        let plate = SyntheticPlate::generate(cfg.clone());
        let (x_even, _) = plate.true_position(0, 1);
        let (x_odd, _) = plate.true_position(1, 1);
        assert_eq!(x_odd - x_even, 4);
    }

    #[test]
    fn for_grid_matches_default_imperfections() {
        let cfg = ScanConfig::for_grid(3, 4, 61, 47, 0.25, 9);
        assert_eq!((cfg.grid_rows, cfg.grid_cols), (3, 4));
        assert_eq!((cfg.tile_width, cfg.tile_height), (61, 47));
        assert_eq!(cfg.overlap, 0.25);
        assert_eq!(cfg.seed, 9);
        let d = ScanConfig::default();
        assert_eq!(cfg.stage_jitter, d.stage_jitter);
        assert_eq!(cfg.noise_sigma, d.noise_sigma);
        let label = cfg.label();
        assert!(label.contains("3x4") && label.contains("61x47"), "{label}");
    }

    #[test]
    fn sparse_scene_has_few_cells() {
        let params = SceneParams {
            colony_count: 2,
            cells_per_colony: (1, 3),
            ..SceneParams::default()
        };
        let scene = Scene::generate(500.0, 500.0, params);
        assert!(scene.cell_count() <= 6);
    }

    #[test]
    fn intensity_includes_background() {
        let scene = Scene::generate(300.0, 300.0, SceneParams::default());
        let v = scene.intensity(150.0, 150.0);
        assert!(v > 0.0 && v < 65535.0);
    }

    fn small_multi() -> MultiScanConfig {
        MultiScanConfig::for_channels(small_config(), 3, 2)
    }

    #[test]
    fn tile_file_names_carry_the_full_identity() {
        assert_eq!(
            SyntheticPlate::tile_file_name(2, 3, 41, 58),
            "img_c02_z03_r041_c058.tif"
        );
        // distinct identities never collide on disk
        assert_ne!(
            SyntheticPlate::tile_file_name(0, 1, 2, 3),
            SyntheticPlate::tile_file_name(1, 0, 2, 3)
        );
    }

    #[test]
    fn multi_channel_positions_shared_and_match_single() {
        let multi = MultiChannelPlate::generate(small_multi());
        let single = SyntheticPlate::generate(small_config());
        // one stage path: identical to the single-channel plate with the
        // same base scan, for every channel by construction
        assert_eq!(multi.positions(), single.positions());
        assert_eq!(multi.true_position(2, 3), single.true_position(2, 3));
    }

    #[test]
    fn multi_channel_rendering_deterministic_and_distinct() {
        let a = MultiChannelPlate::generate(small_multi());
        let b = MultiChannelPlate::generate(small_multi());
        assert_eq!(a.render_tile(1, 1, 2, 2), b.render_tile(1, 1, 2, 2));
        // channels image different structures; planes defocus differently
        assert_ne!(a.render_tile(0, 0, 1, 1), a.render_tile(1, 0, 1, 1));
        assert_ne!(a.render_tile(0, 0, 1, 1), a.render_tile(0, 1, 1, 1));
    }

    #[test]
    fn flat_scene_unchanged_by_volume_path() {
        // generate() is the z_planes=1 special case of generate_volume()
        let p = SceneParams::default();
        let flat = Scene::generate(400.0, 300.0, p.clone());
        let vol = Scene::generate_volume(400.0, 300.0, p, 1, 0.0);
        for (x, y) in [(10.3, 20.7), (200.0, 150.0), (399.0, 299.0)] {
            assert_eq!(
                flat.intensity(x, y).to_bits(),
                vol.intensity(x, y).to_bits()
            );
            assert_eq!(
                vol.intensity(x, y).to_bits(),
                vol.intensity_at_plane(x, y, 3.0).to_bits(),
                "flat scenes are plane-independent"
            );
        }
    }

    /// The renderer as it was before its per-column and per-row factors
    /// were hoisted: every pixel evaluated by the per-point formula.
    #[allow(clippy::too_many_arguments)]
    fn render_per_point(
        scene: &Scene,
        (x0, y0): (f64, f64),
        w: usize,
        h: usize,
        plane: f64,
        vignette: f64,
        noise_sigma: f64,
        noise_seed: u64,
    ) -> Image<u16> {
        let mut rng = StdRng::seed_from_u64(noise_seed);
        let (cx, cy) = (w as f64 / 2.0, h as f64 / 2.0);
        let r_max2 = cx * cx + cy * cy;
        Image::from_fn(w, h, |x, y| {
            let mut v = scene.intensity_at_plane(x0 + x as f64, y0 + y as f64, plane);
            if vignette > 0.0 {
                let (dx, dy) = (x as f64 - cx, y as f64 - cy);
                v *= 1.0 - vignette * (dx * dx + dy * dy) / r_max2;
            }
            if noise_sigma > 0.0 {
                v += gaussian_pair(&mut rng).0 * noise_sigma;
            }
            v.clamp(0.0, 65535.0).round() as u16
        })
    }

    #[test]
    fn row_render_matches_the_per_point_formula() {
        let params = SceneParams {
            colony_count: 30,
            seed: 5,
            ..SceneParams::default()
        };
        let crowded = SceneParams {
            colony_count: 200,
            ..params.clone()
        };
        let scenes = [
            (
                "flat",
                Scene::generate(400.0, 300.0, params.clone()),
                &[0.0, 2.0][..],
            ),
            (
                "volume",
                Scene::generate_volume(400.0, 300.0, params.clone(), 4, 0.35),
                &[0.0, 2.0],
            ),
            (
                "deep",
                Scene::generate_volume(400.0, 300.0, params, 12, 0.35),
                &[0.0, 5.5, 11.0],
            ),
            (
                "crowded",
                Scene::generate_volume(400.0, 300.0, crowded, 4, 0.35),
                &[0.0, 2.0],
            ),
        ];
        // inside, fractional, negative and past-the-edge origins, with a
        // bucket boundary (the buckets are ≥ 64 px) inside most regions,
        // under every optics; and one region wider and taller than the
        // plate, past all four edges, under the benchmark's optics
        let small = [(0.0, 0.0), (0.3, 0.0), (0.0, 45.0), (0.04, 60.0)];
        let regions = [
            ((10.0, 20.0), (71, 53), &small[..]),
            ((-7.0, -3.0), (71, 53), &small),
            ((33.25, 61.5), (71, 53), &small),
            ((-12.5, 250.75), (71, 53), &small),
            ((370.0, 280.0), (71, 53), &small),
            ((-30.5, -20.25), (463, 341), &small[3..]),
        ];
        for (name, scene, planes) in &scenes {
            for &(origin, (w, h), optics) in &regions {
                for &(vignette, noise) in optics {
                    for &plane in *planes {
                        let got = scene.render_region_plane(
                            origin.0, origin.1, w, h, plane, vignette, noise, 9,
                        );
                        let want = render_per_point(scene, origin, w, h, plane, vignette, noise, 9);
                        assert_eq!(
                            got, want,
                            "{name} at {origin:?}, vignette {vignette}, noise {noise}, plane {plane}"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any region, plane and optics of a stacked scene render as the
        /// per-point formula does, byte for byte.
        #[test]
        fn any_region_renders_as_the_per_point_formula(
            x0 in -150.0f64..450.0,
            y0 in -120.0f64..340.0,
            w in 1usize..=97,
            h in 1usize..=71,
            plane in 0.0f64..6.0,
            vignette in 0.0f64..0.8,
            noisy in proptest::prelude::any::<bool>(),
            noise in 0.0f64..80.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let noise = if noisy { noise } else { 0.0 };
            let params = SceneParams { colony_count: 40, seed: 11, ..SceneParams::default() };
            let scene = Scene::generate_volume(400.0, 300.0, params, 6, 0.35);
            let got = scene.render_region_plane(x0, y0, w, h, plane, vignette, noise, seed);
            let want = render_per_point(&scene, (x0, y0), w, h, plane, vignette, noise, seed);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn write_and_reload_multi_manifest() {
        let dir = std::env::temp_dir().join("stitch_synth_multi_test");
        let _ = fs::remove_dir_all(&dir);
        let mut cfg = small_multi();
        cfg.base.grid_rows = 2;
        cfg.base.grid_cols = 3;
        let plate = MultiChannelPlate::generate(cfg);
        let n = plate.write_to_dir(&dir).unwrap();
        assert_eq!(n, 3 * 2 * 6);
        let m = MultiGridManifest::load(&dir).unwrap();
        assert_eq!((m.rows, m.cols, m.channels, m.z_planes), (2, 3, 3, 2));
        assert_eq!(m.truth[4], plate.true_position(1, 1));
        let img = tiff::read_tiff(m.file(2, 1, 1, 2)).unwrap();
        assert_eq!(img, plate.render_tile(2, 1, 1, 2));
        fs::remove_dir_all(&dir).ok();
    }

    /// The number of workers never reaches the dataset: at 1 and at 4 every
    /// file decodes to exactly its `render_tile` and `manifest.tsv` lists
    /// the images in the serial loop's order.
    #[test]
    fn parallel_generation_writes_the_serial_dataset() {
        let dir = std::env::temp_dir().join(format!("stitch_synth_par_{}", std::process::id()));
        let single = SyntheticPlate::generate(small_config());
        let mut cfg = MultiScanConfig::for_channels(small_config(), 2, 3);
        (cfg.base.grid_rows, cfg.base.grid_cols) = (2, 3);
        let multi = MultiChannelPlate::generate(cfg);
        let mut single_manifest = String::from("# rows=3 cols=4 tile_w=64 tile_h=48 overlap=0.1\n");
        for (r, c) in (0..3).flat_map(|r| (0..4).map(move |c| (r, c))) {
            let (x, y) = single.true_position(r, c);
            let name = SyntheticPlate::tile_file_name(0, 0, r, c);
            single_manifest.push_str(&format!("{r}\t{c}\t{x}\t{y}\t{name}\n"));
        }
        let mut multi_manifest =
            String::from("# rows=2 cols=3 tile_w=64 tile_h=48 overlap=0.1 channels=2 z_planes=3\n");
        let ids = (0..2).flat_map(|ch| {
            (0..3).flat_map(move |z| (0..2).flat_map(move |r| (0..3).map(move |c| (ch, z, r, c))))
        });
        for (ch, z, r, c) in ids.clone() {
            let (x, y) = multi.true_position(r, c);
            let name = SyntheticPlate::tile_file_name(ch, z, r, c);
            multi_manifest.push_str(&format!("{ch}\t{z}\t{r}\t{c}\t{x}\t{y}\t{name}\n"));
        }
        for workers in [1, 4] {
            let _ = fs::remove_dir_all(&dir);
            assert_eq!(single.write_with(&dir.join("single"), workers).unwrap(), 12);
            assert_eq!(multi.write_with(&dir.join("multi"), workers).unwrap(), 36);
            let read = |name: &str| fs::read_to_string(dir.join(name).join("manifest.tsv"));
            assert_eq!(
                read("single").unwrap(),
                single_manifest,
                "{workers} workers"
            );
            assert_eq!(read("multi").unwrap(), multi_manifest, "{workers} workers");
            let m = GridManifest::load(dir.join("single")).unwrap();
            for (r, c) in (0..3).flat_map(|r| (0..4).map(move |c| (r, c))) {
                assert_eq!(
                    tiff::read_tiff(m.file(r, c)).unwrap(),
                    single.render_tile(r, c)
                );
            }
            let m = MultiGridManifest::load(dir.join("multi")).unwrap();
            for (ch, z, r, c) in ids.clone() {
                let tile = tiff::read_tiff(m.file(ch, z, r, c)).unwrap();
                assert_eq!(tile, multi.render_tile(ch, z, r, c), "{workers} workers");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_manifest_reads_legacy_single_channel_dataset() {
        let dir = std::env::temp_dir().join("stitch_synth_legacy_test");
        let _ = fs::remove_dir_all(&dir);
        let plate = SyntheticPlate::generate(small_config());
        plate.write_to_dir(&dir).unwrap();
        let m = MultiGridManifest::load(&dir).unwrap();
        assert_eq!((m.channels, m.z_planes), (1, 1));
        assert_eq!((m.rows, m.cols), (3, 4));
        assert_eq!(m.truth[5], plate.true_position(1, 1));
        let img = tiff::read_tiff(m.file(0, 0, 1, 1)).unwrap();
        assert_eq!(img, plate.render_tile(1, 1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn defocus_blurs_and_dims_out_of_focus_planes() {
        // a single in-focus cell at z=0: plane 3 must show a lower peak
        let params = SceneParams {
            colony_count: 0,
            texture_amplitude: 0.0,
            illumination_amplitude: 0.0,
            ..SceneParams::default()
        };
        let mut scene = Scene::generate_volume(256.0, 256.0, params, 4, 0.5);
        // inject a known cell directly to keep the check analytic
        scene.cells.push(Cell {
            x: 128.0,
            y: 128.0,
            sx: 3.0,
            sy: 3.0,
            cos_t: 1.0,
            sin_t: 0.0,
            amp: 10_000.0,
            z: 0.0,
        });
        for b in scene.index.iter_mut() {
            b.push(0);
        }
        let focused = scene.intensity_at_plane(128.0, 128.0, 0.0);
        let blurred = scene.intensity_at_plane(128.0, 128.0, 3.0);
        let expected = 10_000.0 / (1.0 + (3.0f64 * 0.5).powi(2));
        assert!((focused - (params_background() + 10_000.0)).abs() < 1e-6);
        assert!((blurred - (params_background() + expected)).abs() < 1e-6);
    }

    fn params_background() -> f64 {
        SceneParams::default().background
    }
}
