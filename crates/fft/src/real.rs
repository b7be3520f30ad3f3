//! Real-to-complex and complex-to-real transforms, 1-D and 2-D.
//!
//! Microscopy tiles are real-valued, so their spectra are Hermitian and only
//! `n/2 + 1` of the `n` frequency bins are independent. The paper lists
//! real-to-complex transforms as a planned optimization (§VI-A: "using real
//! to complex transforms ... will further improve performance by doing less
//! work; it will also reduce the computation's memory footprint"); here the
//! half spectrum is the only layout the product uses.
//!
//! Even lengths use the classic pack-two-reals-into-one-complex trick
//! (one length-`n/2` complex FFT); odd lengths run a full complex
//! transform internally but expose the same half-spectrum API.
//!
//! Everything is written once over the engine's precision and lane type
//! (see [`crate::radix`]). [`RealFft2d`] runs `L::N` image rows per pass
//! through the row transform — lane = row, the pack and the
//! recombination fused into the transform's loads and the pass's stores
//! — and `L::N` spectrum columns per pass through the column transform:
//! with a register's worth of lanes a panel row is eight adjacent `C32`
//! (four `C64`), one cache line, so the spectrum is walked in whole lines
//! instead of one strided element at a time, and the panel (`L::N ×
//! height` complex) stays in L2. The last rows/columns of an axis that is
//! no multiple of `L::N` ride in a panel whose spare lanes repeat the last
//! valid one and are not stored. Which lane count and instruction set run
//! is the compute backend's choice ([`crate::backend::FftLanes`]); the
//! arithmetic per lane is the same in all of them.

use std::ops::Range;
use std::sync::Arc;

use crate::backend::{self, FftLanes};
use crate::complex::{Cx, Float, Lane};
use crate::plan::{FftPlan, Planner};
use crate::radix::Direction;
use crate::scratch;

/// Number of independent spectrum bins for a length-`n` real signal.
#[inline]
pub fn spectrum_len(n: usize) -> usize {
    n / 2 + 1
}

/// The `f32` input of a transform at `1/factor` (1 or 2) of the resolution
/// of a `u16` tile `width` pixels wide: each value the sum of one `factor
/// × factor` block, exact in `f32`, so no order of additions can show.
pub fn bin_into(pixels: &[u16], width: usize, factor: usize, out: &mut [f32]) {
    if factor == 1 {
        out.iter_mut()
            .zip(pixels)
            .for_each(|(o, &p)| *o = f32::from(p));
        return;
    }
    for (rows, out) in pixels
        .chunks_exact(2 * width)
        .zip(out.chunks_exact_mut(width / 2))
    {
        let (upper, lower) = rows.split_at(width);
        let blocks = upper.chunks_exact(2).zip(lower.chunks_exact(2));
        for (o, (u, l)) in out.iter_mut().zip(blocks) {
            *o = (u32::from(u[0]) + u32::from(u[1]) + u32::from(l[0]) + u32::from(l[1])) as f32;
        }
    }
}

/// The row transform of [`RealFft2d`]: a planned 1-D real-input FFT
/// (forward: `n` reals → `n/2+1` complex; inverse: back to `n` reals).
struct RealFft<T> {
    n: usize,
    /// Even `n`: complex plans of length `n/2` over the packed signal
    /// `x[2k] + i·x[2k+1]`; odd `n`: of length `n` over the signal itself.
    fwd: Arc<FftPlan<T>>,
    inv: Arc<FftPlan<T>>,
    /// Even `n`: `−i·e^{-2πi j/n}` for `j ≤ n/2`, the factor that splits
    /// (forward) and, conjugated, rebuilds (inverse) the packed spectrum.
    twiddle: Vec<Cx<T>>,
}

impl<T: Float> RealFft<T> {
    /// Plans a length-`n` real transform (`n ≥ 1`).
    fn new(planner: &Planner, n: usize) -> RealFft<T> {
        let (len, twiddle) = if n.is_multiple_of(2) {
            let step = -2.0 * std::f64::consts::PI / n as f64;
            let tw = |j| Cx::from_c64(crate::C64::cis(step * j as f64).mul_neg_i());
            (n / 2, (0..=n / 2).map(tw).collect())
        } else {
            (n, Vec::new())
        };
        RealFft {
            n,
            fwd: planner.plan(len, Direction::Forward),
            inv: planner.plan(len, Direction::Inverse),
            twiddle,
        }
    }

    /// Length of the complex transform underneath.
    fn panel_len(&self) -> usize {
        self.fwd.len()
    }

    /// Scratch elements beside the panel.
    fn scratch_len(&self) -> usize {
        self.fwd.scratch_len()
    }

    /// Real multiplications of one execution, per lane: the complex
    /// transform underneath plus the recombination (forward: six per
    /// bin; inverse: four per packed bin) and the inverse's final scale.
    fn real_mults(&self, dir: Direction) -> u64 {
        let even = !self.twiddle.is_empty();
        match dir {
            Direction::Forward if even => self.fwd.real_mults() + 6 * spectrum_len(self.n) as u64,
            Direction::Forward => self.fwd.real_mults(),
            Direction::Inverse if even => self.inv.real_mults() + (2 + 1) * self.n as u64,
            Direction::Inverse => self.inv.real_mults() + self.n as u64,
        }
    }

    /// `L::N` forward transforms side by side: sample `i` of all of them
    /// is `x(i)`, bin `j` goes to `store(j, ·)`. `panel` holds
    /// [`RealFft::panel_len`] elements.
    #[inline(always)]
    fn forward_lanes<L: Lane<Scalar = T>>(
        &self,
        x: impl Fn(usize) -> L,
        panel: &mut [Cx<L>],
        scratch: &mut [Cx<L>],
        mut store: impl FnMut(usize, Cx<L>),
    ) {
        if self.twiddle.is_empty() {
            let zero = L::default();
            self.fwd.run(|k| Cx { re: x(k), im: zero }, panel, scratch);
            for (j, &z) in panel[..spectrum_len(self.n)].iter().enumerate() {
                store(j, z);
            }
            return;
        }
        let half = self.n / 2;
        let packed = |k| Cx {
            re: x(2 * k),
            im: x(2 * k + 1),
        };
        self.fwd.run(packed, panel, scratch);
        // X_j = E_j + W^j·O_j with E_j = (Z_j + conj Z_{half−j})/2 and
        // O_j = −i·(Z_j − conj Z_{half−j})/2 (indices mod half).
        let half_scale = T::from_f64(0.5);
        for (j, &w) in self.twiddle.iter().enumerate() {
            let zj = panel[if j == half { 0 } else { j }];
            let zc = panel[if j == 0 { 0 } else { half - j }].conj();
            store(j, ((zj + zc) + (zj - zc) * w).scale(half_scale));
        }
    }

    /// `L::N` inverse transforms side by side: bin `j` of all of them is
    /// `spec(j)`, sample `i` times `scale` goes to `store(i, ·)`.
    #[inline(always)]
    fn inverse_lanes<L: Lane<Scalar = T>>(
        &self,
        spec: impl Fn(usize) -> Cx<L>,
        panel: &mut [Cx<L>],
        scratch: &mut [Cx<L>],
        scale: f64,
        mut store: impl FnMut(usize, L),
    ) {
        let s = L::splat(T::from_f64(scale / self.n as f64));
        if self.twiddle.is_empty() {
            // Mirror the half-spectrum into a full Hermitian spectrum.
            let sl = spectrum_len(self.n);
            let full = |j| {
                if j < sl {
                    spec(j)
                } else {
                    spec(self.n - j).conj()
                }
            };
            self.inv.run(full, panel, scratch);
            for (i, z) in panel.iter().enumerate() {
                store(i, z.re.mul(s));
            }
            return;
        }
        let half = self.n / 2;
        // 2·Z_j = (X_j + conj X_{half−j}) + i·conj(W^j)·(X_j − conj X_{half−j});
        // the 2 rides in the scale.
        let packed = |j| {
            let (xj, xc) = (spec(j), spec(half - j).conj());
            (xj + xc) + (xj - xc) * self.twiddle[j].conj()
        };
        self.inv.run(packed, panel, scratch);
        for (k, z) in panel.iter().enumerate() {
            store(2 * k, z.re.mul(s));
            store(2 * k + 1, z.im.mul(s));
        }
    }
}

/// `rows` rows of a `height`-row surface from `start`, wrapping past the
/// last row to row 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowBand {
    start: usize,
    rows: usize,
    height: usize,
}

impl RowBand {
    /// Panics unless the band fits the surface.
    pub fn new(start: usize, rows: usize, height: usize) -> RowBand {
        assert!(start < height && rows <= height, "band outside the surface");
        RowBand {
            start,
            rows,
            height,
        }
    }

    /// Every row of a `height`-row surface.
    pub fn all(height: usize) -> RowBand {
        RowBand::new(0, height, height)
    }

    /// How many rows the band holds.
    pub fn rows(self) -> usize {
        self.rows
    }

    /// The rows outside the band.
    pub fn rest(self) -> RowBand {
        let start = (self.start + self.rows) % self.height;
        RowBand::new(start, self.height - self.rows, self.height)
    }

    /// The band's rows as two ascending ranges, lower rows first (the
    /// second is empty unless the band wraps).
    pub fn ranges(self) -> [Range<usize>; 2] {
        let end = self.start + self.rows;
        if end <= self.height {
            [self.start..end, 0..0]
        } else {
            [0..end - self.height, self.start..self.height]
        }
    }
}

/// A planned 2-D real-input FFT at precision `T`: `w × h` reals →
/// `(w/2+1) × h` complex (row-major, the reduced axis is the fast one).
/// The product runs it at `f32`; `f64` is the reference.
pub struct RealFft2d<T> {
    width: usize,
    height: usize,
    row: RealFft<T>,
    col_fwd: Arc<FftPlan<T>>,
    col_inv: Arc<FftPlan<T>>,
}

impl<T: Float> RealFft2d<T> {
    /// Plans a `width × height` real transform.
    pub fn new(planner: &Planner, width: usize, height: usize) -> RealFft2d<T> {
        assert!(width > 0 && height > 0);
        RealFft2d {
            width,
            height,
            row: RealFft::new(planner, width),
            col_fwd: planner.plan(height, Direction::Forward),
            col_inv: planner.plan(height, Direction::Inverse),
        }
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spectrum width `w/2 + 1`.
    fn spectrum_width(&self) -> usize {
        spectrum_len(self.width)
    }

    /// Total spectrum element count `(w/2+1) × h`.
    pub fn spectrum_len(&self) -> usize {
        self.spectrum_width() * self.height
    }

    /// Real multiplications one transform in direction `dir` performs:
    /// `height` row transforms (recombination included) plus `w/2+1`
    /// column transforms. Fixed at plan time; identical on every host,
    /// backend and run.
    pub fn real_mults(&self, dir: Direction) -> u64 {
        let col = match dir {
            Direction::Forward => &self.col_fwd,
            Direction::Inverse => &self.col_inv,
        };
        self.row_pass_mults(dir, self.height) + self.spectrum_width() as u64 * col.real_mults()
    }

    /// Real multiplications the row pass in direction `dir` performs over
    /// `rows` rows.
    pub fn row_pass_mults(&self, dir: Direction, rows: usize) -> u64 {
        rows as u64 * self.row.real_mults(dir)
    }

    /// Forward: `input.len() == w·h` (row-major reals) →
    /// `output.len() == (w/2+1)·h`. Unscaled. Runs on the active compute
    /// backend's lanes.
    pub fn forward(&self, input: &[T], output: &mut [Cx<T>]) {
        self.forward_on(backend::active().fft_lanes(), input, output);
    }

    /// Inverse: half-spectrum back to `w·h` reals. *Scaled* so the round
    /// trip is the identity. **Consumes its input**: the column pass runs
    /// in place, so `spectrum` holds intermediate values afterwards.
    pub fn inverse(&self, spectrum: &mut [Cx<T>], output: &mut [T]) {
        self.inverse_band(spectrum, output, RowBand::all(self.height));
    }

    /// [`RealFft2d::inverse`] onto `band`'s rows of `output` only, each
    /// the whole inverse's to the bit; the spectrum is left column-passed
    /// for [`RealFft2d::inverse_rest`].
    pub fn inverse_band(&self, spectrum: &mut [Cx<T>], output: &mut [T], band: RowBand) {
        let lanes = backend::active().fft_lanes();
        self.inverse_on(lanes, spectrum, output, true, band);
    }

    /// Finishes [`RealFft2d::inverse_band`] over `band`: the rows outside
    /// it, without a second column pass.
    pub fn inverse_rest(&self, spectrum: &mut [Cx<T>], output: &mut [T], band: RowBand) {
        let lanes = backend::active().fft_lanes();
        self.inverse_on(lanes, spectrum, output, false, band.rest());
    }

    /// [`RealFft2d::forward`] on the given lanes.
    pub(crate) fn forward_on(&self, lanes: FftLanes, input: &[T], output: &mut [Cx<T>]) {
        assert_eq!(input.len(), self.width * self.height);
        assert_eq!(output.len(), self.spectrum_len());
        match lanes {
            FftLanes::One => self.forward_lanes::<T>(input, output),
            #[cfg(target_arch = "x86_64")]
            FftLanes::WideAvx2 if backend::simd_supported() => {
                // SAFETY: AVX2 confirmed on this host.
                unsafe { backend::simd::real_fft2d_forward_avx2(self, input, output) }
            }
            FftLanes::Wide | FftLanes::WideAvx2 => self.forward_lanes::<T::Wide>(input, output),
        }
    }

    /// The inverse on the given lanes: the column pass when `columns`,
    /// then the row pass over `band`.
    pub(crate) fn inverse_on(
        &self,
        lanes: FftLanes,
        spectrum: &mut [Cx<T>],
        output: &mut [T],
        columns: bool,
        band: RowBand,
    ) {
        assert_eq!(spectrum.len(), self.spectrum_len());
        assert_eq!(output.len(), self.width * self.height);
        assert_eq!(band.height, self.height, "band of another surface");
        match lanes {
            FftLanes::One => self.inverse_lanes::<T>(spectrum, output, columns, band),
            #[cfg(target_arch = "x86_64")]
            FftLanes::WideAvx2 if backend::simd_supported() => {
                // SAFETY: AVX2 confirmed on this host.
                unsafe {
                    backend::simd::real_fft2d_inverse_avx2(self, spectrum, output, columns, band)
                }
            }
            FftLanes::Wide | FftLanes::WideAvx2 => {
                self.inverse_lanes::<T::Wide>(spectrum, output, columns, band)
            }
        }
    }

    /// One scratch buffer for a whole transform: the panel (the longer of
    /// a row's and a column's) and, behind it, whatever a chirp-z axis
    /// needs.
    fn panel_len(&self) -> usize {
        self.row.panel_len().max(self.height)
    }

    fn take_scratch<L: Lane<Scalar = T>>(&self) -> scratch::Scratch<L> {
        let chirp = self.row.scratch_len().max(self.col_fwd.scratch_len());
        scratch::take(self.panel_len() + chirp)
    }

    /// The column pass of either direction, in place, `L::N` columns at a
    /// time.
    #[inline(always)]
    fn columns<L: Lane<Scalar = T>>(
        &self,
        plan: &FftPlan<T>,
        spectrum: &mut [Cx<T>],
        panel: &mut [Cx<L>],
        scratch: &mut [Cx<L>],
    ) {
        let sw = self.spectrum_width();
        let panel = &mut panel[..self.height];
        for x0 in (0..sw).step_by(L::N) {
            let valid = (sw - x0).min(L::N);
            let load = |y: usize| {
                let row = &spectrum[y * sw + x0..][..valid];
                if valid == L::N {
                    Cx::from_fn(|l| row[l])
                } else {
                    Cx::from_fn(|l| row[l.min(valid - 1)])
                }
            };
            plan.run(load, panel, scratch);
            for (y, z) in panel.iter().enumerate() {
                for (l, out) in spectrum[y * sw + x0..][..valid].iter_mut().enumerate() {
                    *out = z.lane(l);
                }
            }
        }
    }

    /// [`RealFft2d::forward`] over lane type `L`.
    #[inline(always)]
    pub(crate) fn forward_lanes<L: Lane<Scalar = T>>(&self, input: &[T], output: &mut [Cx<T>]) {
        let (w, h, sw) = (self.width, self.height, self.spectrum_width());
        let mut buf = self.take_scratch::<L>();
        let (panel, scratch) = buf.slice().split_at_mut(self.panel_len());
        // r2c along rows, lane = row.
        for y0 in (0..h).step_by(L::N) {
            let valid = (h - y0).min(L::N);
            let x = |i: usize| L::from_fn(|l| input[(y0 + l.min(valid - 1)) * w + i]);
            let rows = &mut output[y0 * sw..(y0 + valid) * sw];
            let store = |j: usize, v: Cx<L>| {
                for (l, row) in rows.chunks_exact_mut(sw).enumerate() {
                    row[j] = v.lane(l);
                }
            };
            let row_panel = &mut panel[..self.row.panel_len()];
            self.row.forward_lanes(x, row_panel, scratch, store);
        }
        // c2c along columns of the reduced spectrum.
        self.columns(&self.col_fwd, output, panel, scratch);
    }

    /// [`RealFft2d::inverse_on`] over lane type `L`. A lane's arithmetic
    /// does not depend on which rows share its panel, so a band's rows
    /// come out as the whole inverse's do.
    #[inline(always)]
    pub(crate) fn inverse_lanes<L: Lane<Scalar = T>>(
        &self,
        spectrum: &mut [Cx<T>],
        output: &mut [T],
        columns: bool,
        band: RowBand,
    ) {
        let (w, h, sw) = (self.width, self.height, self.spectrum_width());
        let mut buf = self.take_scratch::<L>();
        let (panel, scratch) = buf.slice().split_at_mut(self.panel_len());
        // Unscaled inverse c2c along columns; 1/h rides in the rows' scale.
        if columns {
            self.columns(&self.col_inv, spectrum, panel, scratch);
        }
        // c2r along rows, lane = row.
        let blocks = |r: Range<usize>| r.clone().step_by(L::N).map(move |y0| (y0, r.end));
        for (y0, end) in band.ranges().into_iter().flat_map(blocks) {
            let valid = (end - y0).min(L::N);
            let spec = |j: usize| Cx::from_fn(|l| spectrum[(y0 + l.min(valid - 1)) * sw + j]);
            let rows = &mut output[y0 * w..(y0 + valid) * w];
            let store = |i: usize, v: L| {
                for (l, row) in rows.chunks_exact_mut(w).enumerate() {
                    row[i] = v.get(l);
                }
            };
            let row_panel = &mut panel[..self.row.panel_len()];
            let scale = 1.0 / h as f64;
            self.row
                .inverse_lanes(spec, row_panel, scratch, scale, store);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, C64};
    use crate::fft2d::tests::dft2d_naive;

    /// The complex forward FFT of a real signal, planned by a default
    /// planner: what the half spectrum must match.
    fn fft_forward(x: &[f64]) -> Vec<C64> {
        let x: Vec<C64> = x.iter().map(|&v| c64(v, 0.0)).collect();
        let mut out = vec![C64::ZERO; x.len()];
        let plan = Planner::default().plan(x.len(), Direction::Forward);
        plan.process(&x, &mut out);
        out
    }
    use crate::vectorops::ncc_scalar;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| ((k * 7) % 13) as f64 - 6.0 + 0.5 * ((k % 5) as f64))
            .collect()
    }

    #[test]
    fn forward_matches_complex_fft_even() {
        for n in [2usize, 8, 16, 30, 64, 348] {
            let x = signal(n);
            let r = RealFft2d::new(&Planner::default(), n, 1);
            let mut half = vec![C64::ZERO; r.spectrum_len()];
            r.forward(&x, &mut half);
            let full = fft_forward(&x);
            for j in 0..r.spectrum_len() {
                assert!((half[j] - full[j]).abs() < 1e-8 * n as f64, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn forward_matches_complex_fft_odd() {
        for n in [1usize, 3, 7, 15, 29] {
            let x = signal(n);
            let r = RealFft2d::new(&Planner::default(), n, 1);
            let mut half = vec![C64::ZERO; r.spectrum_len()];
            r.forward(&x, &mut half);
            let full = fft_forward(&x);
            for j in 0..r.spectrum_len() {
                assert!(
                    (half[j] - full[j]).abs() < 1e-9 * n.max(4) as f64,
                    "n={n} j={j}"
                );
            }
        }
    }

    #[test]
    fn round_trip_1d() {
        for n in [2usize, 9, 16, 31, 100, 1040] {
            let x = signal(n);
            let r = RealFft2d::new(&Planner::default(), n, 1);
            let mut spec = vec![C64::ZERO; r.spectrum_len()];
            let mut back = vec![0.0; n];
            r.forward(&x, &mut spec);
            r.inverse(&mut spec, &mut back);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-8, "n={n}");
            }
        }
    }

    /// Half spectrum of the naive row-column 2-D DFT.
    fn naive_2d(x: &[f64], w: usize, h: usize) -> Vec<C64> {
        let x: Vec<C64> = x.iter().map(|&v| c64(v, 0.0)).collect();
        let full = dft2d_naive(&x, w, h, Direction::Forward);
        let rows = full.chunks_exact(w);
        rows.flat_map(|row| &row[..spectrum_len(w)])
            .copied()
            .collect()
    }

    /// Forward against the naive 2-D DFT and inverse of the naive spectrum
    /// against the image, at both precisions, one lane and a register's
    /// worth. Half-widths ≡ 0..7 mod 8 and heights off a multiple of 8
    /// leave every kind of partial last panel; the axes carry 13 and 29;
    /// 39 is an odd width; 74 = 2·37 puts chirp-z under the rows (74×26)
    /// and the columns (26×74).
    #[test]
    fn matches_naive_2d_in_every_lane() {
        fn check<L: Lane>(x: &[f64], want: &[C64], (w, h): (usize, usize), tol: f64) {
            let what = format!("{w}x{h}, {} lane(s)", L::N);
            let r = RealFft2d::<L::Scalar>::new(&Planner::default(), w, h);
            let x_t: Vec<L::Scalar> = x.iter().map(|&v| Float::from_f64(v)).collect();
            let mut spec = vec![Cx::ZERO; r.spectrum_len()];
            r.forward_lanes::<L>(&x_t, &mut spec);
            let err = spec.iter().zip(want).map(|(a, b)| (a.to_c64() - *b).abs());
            assert!(
                err.fold(0.0, f64::max) < tol * x.len() as f64,
                "forward {what}"
            );
            let mut back = vec![L::Scalar::ZERO; x.len()];
            let mut spec: Vec<_> = want.iter().map(|&z| Cx::from_c64(z)).collect();
            r.inverse_lanes::<L>(&mut spec, &mut back, true, RowBand::all(h));
            let err = back.iter().zip(x).map(|(a, b)| (a.to_f64() - b).abs());
            assert!(err.fold(0.0, f64::max) < tol * 10.0, "inverse {what}");
        }
        for (w, h) in [
            (104usize, 26usize),
            (58, 26),
            (60, 26),
            (62, 39),
            (174, 130),
            (39, 26),
            (74, 26),
            (26, 74),
            (5, 3),
            (2, 1),
        ] {
            let x = signal(w * h);
            let want = naive_2d(&x, w, h);
            check::<f64>(&x, &want, (w, h), 1e-10);
            check::<[f64; 4]>(&x, &want, (w, h), 1e-10);
            check::<f32>(&x, &want, (w, h), 1e-5);
            check::<[f32; 8]>(&x, &want, (w, h), 1e-5);
        }
    }

    /// A tile-like image seen from `(ox, oy)`: 16-bit values (exact at
    /// `f32`) around a mean of 3000, smooth structure, and noise of its
    /// own (`seed`).
    fn tile(w: usize, h: usize, (ox, oy): (f64, f64), seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..w * h)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let (x, y) = ((i % w) as f64 + ox, (i / w) as f64 + oy);
                let blob =
                    900.0 * (x * 0.31).sin() * (y * 0.47).cos() + 400.0 * (x * y * 0.003).sin();
                let noise = (state % 101) as f64 - 50.0;
                (3000.0 + blob + noise).round()
            })
            .collect()
    }

    /// Forward spectrum of `x` at precision `T`, widened, and the
    /// correlation surface of the pair `(x, y)` — NCC, then the inverse.
    fn spectrum_and_surface<T: Float>(
        x: &[f64],
        y: &[f64],
        w: usize,
        h: usize,
    ) -> (Vec<C64>, Vec<f64>) {
        let r = RealFft2d::<T>::new(&Planner::default(), w, h);
        let spectrum = |v: &[f64]| {
            let v: Vec<T> = v.iter().map(|&p| T::from_f64(p)).collect();
            let mut s = vec![Cx::ZERO; r.spectrum_len()];
            r.forward(&v, &mut s);
            s
        };
        let (sx, sy) = (spectrum(x), spectrum(y));
        let mut ncc = vec![Cx::ZERO; r.spectrum_len()];
        ncc_scalar(&sx, &sy, &mut ncc);
        let mut surface = vec![T::ZERO; w * h];
        r.inverse(&mut ncc, &mut surface);
        (
            sx.iter().map(|z| z.to_c64()).collect(),
            surface.iter().map(|v| v.to_f64()).collect(),
        )
    }

    /// The product's `f32` spectrum and correlation surface against the
    /// `f64` reference: the spectrum's RMS error relative to its RMS
    /// magnitude (measured ≤ 1.6e-7), and the surface's worst error
    /// relative to its RMS — the noise floor peaks are told apart against
    /// (measured 2e-5 to 5e-5 on the mixed-radix sizes, 1.4e-4 through
    /// chirp-z). The paper tile, the
    /// `channel_replay` tile (29 on both axes after halving: 232 = 8·29,
    /// 174 = 6·29), prime tiles (chirp-z on both axes), chirp-z under one
    /// axis, and odd widths.
    #[test]
    fn single_precision_tracks_the_reference() {
        for (w, h) in [
            (1392usize, 1040usize),
            (232, 174),
            (61, 47),
            (74, 26),
            (87, 58),
            (39, 26),
        ] {
            let shift = ((w / 10) as f64, 2.0);
            let (x, y) = (tile(w, h, (0.0, 0.0), 1), tile(w, h, shift, 2));
            let (s64, f64_surface) = spectrum_and_surface::<f64>(&x, &y, w, h);
            let (s32, f32_surface) = spectrum_and_surface::<f32>(&x, &y, w, h);
            let sq = |v: C64| v.norm_sqr();
            let err: f64 = s32.iter().zip(&s64).map(|(a, b)| sq(*a - *b)).sum();
            let norm: f64 = s64.iter().map(|&z| sq(z)).sum();
            let spectrum_err = (err / norm).sqrt();
            assert!(
                spectrum_err < 1e-6,
                "{w}x{h} spectrum rms error {spectrum_err:e}"
            );
            let rms = (f64_surface.iter().map(|v| v * v).sum::<f64>() / (w * h) as f64).sqrt();
            let worst = f32_surface
                .iter()
                .zip(&f64_surface)
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(
                worst < 5e-4 * rms,
                "{w}x{h} surface error {:e} of its rms",
                worst / rms
            );
        }
    }

    /// The inverse runs its column pass in place: the round trip is the
    /// identity, and the spectrum it was given is gone.
    #[test]
    fn round_trip_2d_consumes_the_spectrum() {
        for (w, h) in [(8usize, 6usize), (13, 9), (16, 16), (30, 22), (174, 130)] {
            let x = signal(w * h);
            let r = RealFft2d::new(&Planner::default(), w, h);
            let mut spec = vec![C64::ZERO; r.spectrum_len()];
            let mut back = vec![0.0; w * h];
            r.forward(&x, &mut spec);
            let forward = spec.clone();
            r.inverse(&mut spec, &mut back);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-7, "{w}x{h}");
            }
            assert!(spec != forward, "{w}x{h}: inverse left its input intact");
        }
    }

    #[test]
    fn dc_bin_is_sum() {
        let x = signal(24);
        let r = RealFft2d::new(&Planner::default(), 24, 1);
        let mut spec = vec![C64::ZERO; r.spectrum_len()];
        r.forward(&x, &mut spec);
        let sum: f64 = x.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-9);
        assert!(spec[0].im.abs() < 1e-9);
    }

    #[test]
    fn spectrum_width_reduction() {
        let r = RealFft2d::<f32>::new(&Planner::default(), 1040, 16);
        assert_eq!(r.spectrum_width(), 521);
        assert_eq!(r.spectrum_len(), 521 * 16);
    }
}
