//! BaSiC-style flat-field (illumination) correction.
//!
//! Microscope optics attenuate each tile by a fixed per-channel field —
//! radial vignetting in this system's sensor model. Because that field is
//! *tile-fixed* (every exposure is multiplied by the same pattern) while
//! scene content is *plate-fixed*, the field correlates between overlapping
//! tiles at zero displacement and biases phase correlation toward
//! grid-aligned peaks. Estimating the field from the tile stack and
//! dividing it out before registration removes that bias.
//!
//! The estimator follows the shape of BaSiC (Peng et al. 2017): reduce the
//! stack to a per-pixel background field, then regularize. The reduction is
//! the per-pixel *minimum* over the stack — cells only ever add light, so
//! the lower envelope tracks `background × gain` and is nearly immune to
//! scene structure even on small stacks, where a mean would not be. BaSiC
//! regularizes with a Fourier-domain smoothness prior; here the field is
//! fit to the sensor's radial model `gain(ρ) = 1 − f·ρ`, `ρ = r²/r²_max`
//! from the tile center — a two-parameter least squares that cannot absorb
//! scene structure — plus two physical priors: falloff must be positive
//! (vignetting darkens corners; a brightening fit is scene leakage), and
//! near-flat fits snap to the *exact* identity, so correcting an
//! un-vignetted stack is a bit-exact no-op.

use crate::image::{round_to_u16, Image};

/// A per-channel illumination field: multiplicative bright-field gain plus
/// an additive dark-field offset, applied as `(v − dark) / gain`.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatField {
    width: usize,
    height: usize,
    /// Estimated relative falloff at the tile corner; 0 for the identity.
    falloff: f64,
    /// Dark-field offset (the synthetic sensor has none, but the BaSiC
    /// application model retains the term).
    dark: f64,
}

impl FlatField {
    /// Fits with corner falloff below this fraction snap to the exact
    /// identity — the flatness prior that keeps scene structure from being
    /// mistaken for illumination and makes un-vignetted stacks a no-op.
    pub const FLATNESS_PRIOR: f64 = 0.01;

    /// The exact identity field: `apply` returns the input unchanged.
    pub fn identity(width: usize, height: usize) -> FlatField {
        FlatField {
            width,
            height,
            falloff: 0.0,
            dark: 0.0,
        }
    }

    /// True when `apply` is a bit-exact no-op.
    pub fn is_identity(&self) -> bool {
        self.falloff == 0.0 && self.dark == 0.0
    }

    /// Tile dimensions the field was estimated for.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Estimated relative falloff at the tile corner (the sensor model's
    /// `vignette` strength).
    pub fn falloff(&self) -> f64 {
        self.falloff
    }

    /// Bright-field gain at a pixel (1 at the optical center): the formula
    /// [`FlatField::apply`]'s row loop evaluates, one pixel at a time.
    #[cfg(test)]
    fn gain_at(&self, x: usize, y: usize) -> f64 {
        if self.falloff == 0.0 {
            return 1.0;
        }
        let cx = self.width as f64 / 2.0;
        let cy = self.height as f64 / 2.0;
        let dx = x as f64 - cx;
        let dy = y as f64 - cy;
        1.0 - self.falloff * (dx * dx + dy * dy) / (cx * cx + cy * cy)
    }

    /// Corrects one tile: `round((v − dark) / gain)`, clamped to u16, with
    /// `gain = 1 − falloff·(dx² + dy²) / r²_max` from the tile center.
    /// The identity field returns the input bit-for-bit.
    ///
    /// A row loop over a pre-sized buffer with `dx²` hoisted per column and
    /// [`round_to_u16`] for the conversion: no call per pixel, so it
    /// compiles to straight-line vector code. The operations and their
    /// order are those of the per-pixel formula above.
    pub fn apply(&self, img: &Image<u16>) -> Image<u16> {
        assert_eq!(
            img.dims(),
            (self.width, self.height),
            "flat field estimated for different tile dims"
        );
        if self.is_identity() || img.is_empty() {
            return img.clone();
        }
        let (cx, cy) = (self.width as f64 / 2.0, self.height as f64 / 2.0);
        let r_max2 = cx * cx + cy * cy;
        let dx2: Vec<f64> = (0..self.width)
            .map(|x| (x as f64 - cx) * (x as f64 - cx))
            .collect();
        let mut out = vec![0u16; img.len()];
        let rows = img.pixels().chunks_exact(self.width);
        for (y, (src, dst)) in rows.zip(out.chunks_exact_mut(self.width)).enumerate() {
            let dy = y as f64 - cy;
            let dy2 = dy * dy;
            for ((o, &p), &dx2) in dst.iter_mut().zip(src).zip(&dx2) {
                let gain = 1.0 - self.falloff * (dx2 + dy2) / r_max2;
                *o = round_to_u16((p as f64 - self.dark) / gain);
            }
        }
        Image::from_vec(self.width, self.height, out)
    }
}

/// Streaming per-channel flat-field estimator: feed it every tile of a
/// channel's stack (all planes, all grid positions), then [`finish`].
///
/// [`finish`]: FlatFieldEstimator::finish
#[derive(Clone, Debug)]
pub struct FlatFieldEstimator {
    width: usize,
    height: usize,
    /// Per-pixel lower envelope of the stack.
    floor: Vec<u16>,
    tiles: usize,
}

impl FlatFieldEstimator {
    /// An estimator for tiles of the given dimensions.
    pub fn new(width: usize, height: usize) -> FlatFieldEstimator {
        FlatFieldEstimator {
            width,
            height,
            floor: vec![u16::MAX; width * height],
            tiles: 0,
        }
    }

    /// Accumulates one tile of the stack.
    pub fn add(&mut self, tile: &Image<u16>) {
        assert_eq!(tile.dims(), (self.width, self.height), "tile dims mismatch");
        for (acc, &v) in self.floor.iter_mut().zip(tile.pixels()) {
            *acc = (*acc).min(v);
        }
        self.tiles += 1;
    }

    /// Folds in another estimator's tiles: the floor is a per-pixel
    /// minimum, so a stack accumulated in parts merges to the same floor.
    pub fn merge(&mut self, other: &FlatFieldEstimator) {
        assert_eq!(self.floor.len(), other.floor.len(), "tile dims mismatch");
        for (acc, &v) in self.floor.iter_mut().zip(&other.floor) {
            *acc = (*acc).min(v);
        }
        self.tiles += other.tiles;
    }

    /// Number of tiles accumulated so far.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Least-squares fit of the radial model to the stack's lower envelope.
    /// With no tiles, a negative fitted falloff, or a fit below
    /// [`FlatField::FLATNESS_PRIOR`], returns the exact identity.
    pub fn finish(self) -> FlatField {
        if self.tiles == 0 {
            return FlatField::identity(self.width, self.height);
        }
        let cx = self.width as f64 / 2.0;
        let cy = self.height as f64 / 2.0;
        let r_max2 = cx * cx + cy * cy;
        // fit floor(ρ) ≈ b0 + b1·ρ over all pixels
        let n = (self.width * self.height) as f64;
        let (mut sr, mut srr, mut sm, mut srm) = (0.0, 0.0, 0.0, 0.0);
        for y in 0..self.height {
            for x in 0..self.width {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                let rho = (dx * dx + dy * dy) / r_max2;
                let m = self.floor[y * self.width + x] as f64;
                sr += rho;
                srr += rho * rho;
                sm += m;
                srm += rho * m;
            }
        }
        let det = n * srr - sr * sr;
        if det.abs() < 1e-12 {
            return FlatField::identity(self.width, self.height);
        }
        let b1 = (n * srm - sr * sm) / det;
        let b0 = (sm - b1 * sr) / n;
        if b0 <= 0.0 {
            return FlatField::identity(self.width, self.height);
        }
        // relative falloff at the corner (ρ = 1); positivity prior, and a
        // clamp away from a vanishing corner gain
        let falloff = (-b1 / b0).min(0.95);
        if falloff < FlatField::FLATNESS_PRIOR {
            return FlatField::identity(self.width, self.height);
        }
        FlatField {
            width: self.width,
            height: self.height,
            falloff,
            dark: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{ScanConfig, SyntheticPlate};

    fn plate(vignette: f64) -> SyntheticPlate {
        let cfg = ScanConfig {
            grid_rows: 3,
            grid_cols: 4,
            tile_width: 96,
            tile_height: 64,
            vignette,
            noise_sigma: 20.0,
            seed: 11,
            ..ScanConfig::default()
        };
        SyntheticPlate::generate(cfg)
    }

    fn estimate(plate: &SyntheticPlate) -> FlatField {
        let cfg = &plate.config;
        let mut est = FlatFieldEstimator::new(cfg.tile_width, cfg.tile_height);
        for r in 0..cfg.grid_rows {
            for c in 0..cfg.grid_cols {
                est.add(&plate.render_tile(r, c));
            }
        }
        est.finish()
    }

    #[test]
    fn unvignetted_stack_estimates_exact_identity() {
        let p = plate(0.0);
        let f = estimate(&p);
        assert!(f.is_identity(), "falloff {}", f.falloff());
        let tile = p.render_tile(1, 2);
        assert_eq!(f.apply(&tile), tile, "identity apply must be bit-exact");
    }

    #[test]
    fn recovers_synthetic_vignette_strength() {
        let f = estimate(&plate(0.4));
        assert!(
            (f.falloff() - 0.4).abs() < 0.08,
            "estimated falloff {} vs true 0.4",
            f.falloff()
        );
        assert!(
            (f.gain_at(48, 32) - 1.0).abs() < 1e-9,
            "unit gain at center"
        );
    }

    #[test]
    fn correction_flattens_a_vignetted_tile() {
        // compare the corrected tile to the same exposure rendered without
        // vignetting: correction must cut the mean absolute error by > 3x
        let cfg = plate(0.4).config.clone();
        let vignetted = plate(0.4);
        let mut flat_cfg = cfg.clone();
        flat_cfg.vignette = 0.0;
        let reference = SyntheticPlate::generate(flat_cfg);
        let f = estimate(&vignetted);
        let raw = vignetted.render_tile(1, 1);
        let fixed = f.apply(&raw);
        let truth = reference.render_tile(1, 1);
        let mae = |img: &Image<u16>| {
            img.pixels()
                .iter()
                .zip(truth.pixels())
                .map(|(&a, &b)| (a as f64 - b as f64).abs())
                .sum::<f64>()
                / img.len() as f64
        };
        let (e_raw, e_fixed) = (mae(&raw), mae(&fixed));
        assert!(
            e_fixed * 3.0 < e_raw,
            "correction too weak: raw {e_raw:.1} fixed {e_fixed:.1}"
        );
    }

    #[test]
    fn row_loop_apply_matches_the_per_pixel_formula() {
        // odd and even dims, every falloff the estimator can return, pixels
        // at both ends of the range (the clamp) and in between
        for (w, h) in [(1usize, 1usize), (7, 5), (96, 64), (33, 2)] {
            for falloff in [0.01, 0.3, 0.4137, 0.95] {
                for dark in [0.0, 12.5] {
                    let f = FlatField {
                        width: w,
                        height: h,
                        falloff,
                        dark,
                    };
                    let img =
                        Image::from_fn(w, h, |x, y| ((x * 7919 + y * 104_729) % 65_536) as u16);
                    let want = Image::from_fn(w, h, |x, y| {
                        let v = (img.get(x, y) as f64 - dark) / f.gain_at(x, y);
                        v.clamp(0.0, 65535.0).round() as u16
                    });
                    assert_eq!(f.apply(&img), want, "{w}x{h} falloff {falloff} dark {dark}");
                }
            }
        }
        // random tiles, dims, falloffs and dark levels
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        for _ in 0..400 {
            let (w, h) = (rng.gen_range(1..40usize), rng.gen_range(1..30usize));
            let f = FlatField {
                width: w,
                height: h,
                falloff: rng.gen_range(0.01..0.95),
                dark: rng.gen_range(-50.0..500.0),
            };
            let img = Image::from_fn(w, h, |_, _| rng.gen_range(0..=u16::MAX));
            let want = Image::from_fn(w, h, |x, y| {
                let v = (img.get(x, y) as f64 - f.dark) / f.gain_at(x, y);
                v.clamp(0.0, 65535.0).round() as u16
            });
            assert_eq!(f.apply(&img), want, "{f:?}");
        }
    }

    #[test]
    fn empty_estimator_is_identity() {
        assert!(FlatFieldEstimator::new(32, 32).finish().is_identity());
    }
}
