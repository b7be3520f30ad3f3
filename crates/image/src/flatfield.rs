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
    /// The gain over the quadrant `x ≤ w/2, y ≤ h/2`, `w/2 + 1` values a
    /// row (empty for the identity). The field is mirror-symmetric bit for
    /// bit — `dx` at `x` and at `w − x` are exact negatives — so pixel
    /// `(x, y)` reads entry `(min(x, w − x), min(y, h − y))`.
    quarter: Vec<f64>,
}

impl FlatField {
    /// Fits with corner falloff below this fraction snap to the exact
    /// identity — the flatness prior that keeps scene structure from being
    /// mistaken for illumination and makes un-vignetted stacks a no-op.
    pub const FLATNESS_PRIOR: f64 = 0.01;

    /// The exact identity field: `apply` returns the input unchanged.
    pub fn identity(width: usize, height: usize) -> FlatField {
        FlatField::radial(width, height, 0.0, 0.0)
    }

    /// The field `gain = 1 − falloff·(dx² + dy²) / r²_max` from the tile
    /// center, its quarter tabulated once with `dx²` hoisted per column.
    fn radial(width: usize, height: usize, falloff: f64, dark: f64) -> FlatField {
        let mut quarter = Vec::new();
        if falloff != 0.0 || dark != 0.0 {
            let (cx, cy) = (width as f64 / 2.0, height as f64 / 2.0);
            let r_max2 = cx * cx + cy * cy;
            let dx2: Vec<f64> = (0..=width / 2)
                .map(|x| (x as f64 - cx) * (x as f64 - cx))
                .collect();
            for y in 0..=height / 2 {
                let dy2 = (y as f64 - cy) * (y as f64 - cy);
                quarter.extend(dx2.iter().map(|&dx2| 1.0 - falloff * (dx2 + dy2) / r_max2));
            }
        }
        FlatField {
            width,
            height,
            falloff,
            dark,
            quarter,
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

    /// Bright-field gain at a pixel (1 at the optical center): the
    /// per-pixel formula the quarter table holds.
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

    /// Corrects one tile: `round((v − dark) / gain)`, clamped to u16.
    /// The identity field returns the input bit-for-bit.
    pub fn apply(&self, img: &Image<u16>) -> Image<u16> {
        let mut out = img.clone();
        self.correct_in_place(&mut out);
        out
    }

    /// [`FlatField::apply`] on the tile's own pixels: one division per
    /// pixel by the tabulated gain, each row read from the quarter table
    /// forwards up to the center column and mirrored past it, and
    /// [`round_to_u16`] for the conversion, so the row loop vectorises.
    pub fn correct_in_place(&self, img: &mut Image<u16>) {
        assert_eq!(
            img.dims(),
            (self.width, self.height),
            "flat field estimated for different tile dims"
        );
        if self.is_identity() || img.is_empty() {
            return;
        }
        let (w, h, dark) = (self.width, self.height, self.dark);
        let qw = w / 2 + 1;
        for (y, row) in img.pixels_mut().chunks_exact_mut(w).enumerate() {
            let gains = &self.quarter[y.min(h - y) * qw..][..qw];
            let (left, right) = row.split_at_mut(qw.min(w));
            divide(left, gains.iter(), dark);
            divide(right, gains[1..=right.len()].iter().rev(), dark);
        }
    }
}

/// `px[i] = round((px[i] − dark) / gain[i])`, clamped to u16.
fn divide<'a>(px: &mut [u16], gains: impl Iterator<Item = &'a f64>, dark: f64) {
    for (p, g) in px.iter_mut().zip(gains) {
        *p = round_to_u16((f64::from(*p) - dark) / g);
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
        FlatField::radial(self.width, self.height, falloff, 0.0)
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
                    let f = FlatField::radial(w, h, falloff, dark);
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
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any field the estimator can return, on any tile — odd and even
        /// dims, with or without a dark offset, pixels over the whole u16
        /// range with both ends frequent — corrects to the per-pixel
        /// formula bit for bit, through `apply` and in place.
        #[test]
        fn apply_is_the_per_pixel_formula(
            w in 1usize..=97,
            h in 1usize..=71,
            falloff in 0.01f64..=0.95,
            dark_on in proptest::prelude::any::<bool>(),
            dark in 0.0f64..=400.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let img = Image::from_fn(w, h, |_, _| match rng.gen_range(0..8) {
                0 => 0,
                1 => u16::MAX,
                _ => rng.gen_range(0..=u16::MAX),
            });
            // the dark offset is nudged by less than one level so that one
            // pixel's quotient lands on a rounding tie, where a division and
            // a multiplication by the reciprocal round apart
            let (x, y) = (rng.gen_range(0..w), rng.gen_range(0..h));
            let v = img.get(x, y) as f64;
            let g = FlatField::radial(w, h, falloff, 0.0).gain_at(x, y);
            let tie = ((v - dark) / g).floor() + 0.5;
            let f = FlatField::radial(w, h, falloff, if dark_on { v - tie * g } else { 0.0 });
            let want = Image::from_fn(w, h, |x, y| {
                let v = (img.get(x, y) as f64 - f.dark) / f.gain_at(x, y);
                v.clamp(0.0, 65535.0).round() as u16
            });
            let mut in_place = img.clone();
            f.correct_in_place(&mut in_place);
            proptest::prop_assert_eq!(&f.apply(&img), &want);
            proptest::prop_assert_eq!(&in_place, &want);
        }
    }

    #[test]
    fn empty_estimator_is_identity() {
        assert!(FlatFieldEstimator::new(32, 32).finish().is_identity());
    }
}
