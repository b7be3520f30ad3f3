//! Metamorphic properties of PCIAM.
//!
//! Phase correlation has algebraic symmetries that hold regardless of
//! the scene: translating a pair translates its displacement, mirroring
//! a pair mirrors it, and rescaling intensities by a power of two leaves
//! the peak location (and, in `f64`, every correlation value) *bit*
//! unchanged — normalization divides the scale factor out exactly. These
//! properties need no ground truth, so they catch regressions even where
//! the synthetic-plate oracle has none.

use std::sync::Arc;

use stitch_core::opcount::OpCounters;
use stitch_core::types::Displacement;
use stitch_core::PciamContext;
use stitch_fft::Planner;
use stitch_image::synth::{Scene, SceneParams};
use stitch_image::Image;

/// Mirrors an image left↔right. Under `pciam`'s convention this maps a
/// pair displacement `(dx, dy)` to `(-dx, dy)` when applied to both
/// tiles.
pub fn flip_horizontal(img: &Image<u16>) -> Image<u16> {
    let (w, h) = img.dims();
    let mut out = Image::new(w, h);
    for y in 0..h {
        for x in 0..w {
            out.set(x, y, img.get(w - 1 - x, y));
        }
    }
    out
}

/// Mirrors an image top↔bottom: pair displacement `(dx, dy)` becomes
/// `(dx, -dy)` when applied to both tiles.
pub fn flip_vertical(img: &Image<u16>) -> Image<u16> {
    let (w, h) = img.dims();
    let mut out = Image::new(w, h);
    for y in 0..h {
        for x in 0..w {
            out.set(x, y, img.get(x, h - 1 - y));
        }
    }
    out
}

/// Scales every pixel by an integer factor, saturating at `u16::MAX`.
/// With a power-of-two factor and unsaturated pixels, every PCIAM
/// intermediate scales exactly and the displacement (including its
/// correlation value) is bit-identical.
pub fn scale_intensity(img: &Image<u16>, factor: u16) -> Image<u16> {
    let (w, h) = img.dims();
    let mut out = Image::new(w, h);
    for (o, &p) in out.pixels_mut().iter_mut().zip(img.pixels()) {
        *o = p.saturating_mul(factor);
    }
    out
}

/// One-shot PCIAM between two same-size tiles: `d = pos(b) − pos(a)`.
pub fn pciam_displacement(a: &Image<u16>, b: &Image<u16>) -> Displacement {
    let planner = Planner::default();
    let mut ctx = PciamContext::new(
        &planner,
        a.width(),
        a.height(),
        Arc::new(OpCounters::default()),
    );
    ctx.pciam(a, b)
}

/// A deterministic, well-textured analytic scene for rendering tile
/// pairs at arbitrary (even fractional) offsets, noise- and
/// vignette-free so translations are exact content shifts.
pub fn test_scene(seed: u64) -> Scene {
    Scene::generate(
        512.0,
        512.0,
        SceneParams {
            colony_count: 14,
            seed,
            ..SceneParams::default()
        },
    )
}

/// Renders a `w × h` tile whose top-left corner sits at `(x0, y0)` in
/// scene coordinates (no noise, no vignette).
pub fn render_at(scene: &Scene, x0: f64, y0: f64, w: usize, h: usize) -> Image<u16> {
    scene.render_region(x0, y0, w, h, 0.0, 0.0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: usize = 64;
    const H: usize = 48;

    /// Anchored pairs with a known offset: PCIAM must recover the offset
    /// exactly, from any anchor — d(render(p), render(p+t)) == t.
    #[test]
    fn translation_consistency_integer_offsets() {
        let scene = test_scene(9001);
        for (ax, ay) in [(40.0, 40.0), (120.0, 200.0), (300.0, 77.0)] {
            for (dx, dy) in [(45i64, 2i64), (44, -3), (-2, 33), (3, 35)] {
                let a = render_at(&scene, ax, ay, W, H);
                let b = render_at(&scene, ax + dx as f64, ay + dy as f64, W, H);
                let d = pciam_displacement(&a, &b);
                assert_eq!(
                    (d.x, d.y),
                    (dx, dy),
                    "anchor ({ax}, {ay}), true offset ({dx}, {dy}), got {d:?}"
                );
            }
        }
    }

    /// Adding δ to a pair's offset adds δ to its displacement — the
    /// metamorphic relation proper, checked without trusting either
    /// absolute answer.
    #[test]
    fn translation_metamorphic_relation() {
        let scene = test_scene(9002);
        let (ax, ay) = (100.0, 150.0);
        let a = render_at(&scene, ax, ay, W, H);
        let base = pciam_displacement(&a, &render_at(&scene, ax + 42.0, ay + 1.0, W, H));
        for (ddx, ddy) in [(1i64, 0i64), (0, 1), (3, -2), (-5, 4)] {
            let shifted = pciam_displacement(
                &a,
                &render_at(&scene, ax + 42.0 + ddx as f64, ay + 1.0 + ddy as f64, W, H),
            );
            assert_eq!(
                (shifted.x, shifted.y),
                (base.x + ddx, base.y + ddy),
                "δ = ({ddx}, {ddy}), base {base:?}, shifted {shifted:?}"
            );
        }
    }

    /// Mirroring both tiles mirrors the displacement: flip_h negates dx,
    /// flip_v negates dy, and the winning correlation is preserved.
    #[test]
    fn flip_symmetry() {
        let scene = test_scene(9003);
        let a = render_at(&scene, 60.0, 90.0, W, H);
        let b = render_at(&scene, 60.0 + 46.0, 90.0 + 3.0, W, H);
        let d = pciam_displacement(&a, &b);
        assert_eq!((d.x, d.y), (46, 3));

        let dh = pciam_displacement(&flip_horizontal(&a), &flip_horizontal(&b));
        assert_eq!((dh.x, dh.y), (-d.x, d.y), "flip_h: {d:?} → {dh:?}");

        let dv = pciam_displacement(&flip_vertical(&a), &flip_vertical(&b));
        assert_eq!((dv.x, dv.y), (d.x, -d.y), "flip_v: {d:?} → {dv:?}");

        // flips permute pixels, they do not change overlap statistics
        assert_eq!(d.correlation, dh.correlation);
        assert_eq!(d.correlation, dv.correlation);
    }

    /// Power-of-two intensity scaling is exact in f64 end to end (FFT,
    /// NCC normalization, Pearson CCF): displacement *and* correlation
    /// are bit-identical.
    #[test]
    fn intensity_scale_invariance_is_bit_exact() {
        let scene = test_scene(9004);
        let a = render_at(&scene, 200.0, 50.0, W, H);
        let b = render_at(&scene, 200.0 + 45.0, 50.0 - 2.0, W, H);
        // scene intensities stay < 22_000, so ×2 cannot saturate u16
        assert!(a.pixels().iter().all(|&p| p < 32_768));
        let a2 = scale_intensity(&a, 2);
        let b2 = scale_intensity(&b, 2);

        let d = pciam_displacement(&a, &b);
        let d2 = pciam_displacement(&a2, &b2);
        assert_eq!(
            d, d2,
            "integer displacement + correlation must match bitwise"
        );
    }
}
