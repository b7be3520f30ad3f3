//! Runtime-selected compute backends for the phase-1 hot loops.
//!
//! The paper's §IV-A found that GCC would not auto-vectorize the two hot
//! element-wise loops of the stitching computation and hand-coded them
//! with SSE intrinsics. This module generalizes that observation into a
//! [`ComputeBackend`] trait covering every phase-1 hot loop — the NCC
//! normalized conjugate multiply of two `C32` spectra, the CCF co-moments
//! of one overlap rectangle, and the lanes the 2-D real FFT pair runs on
//! ([`FftLanes`], at either precision) — with three implementations
//! selected at runtime:
//!
//! * [`scalar`] — straight sequential reference loops; the FFT engine
//!   with one lane, one row or column at a time;
//! * [`portable`] — the lane-unrolled dependency-free NCC from
//!   [`crate::vectorops`], which LLVM auto-vectorizes on any target; the
//!   FFT engine one 256-bit register wide (`[f32; 8]`, `[f64; 4]`), eight
//!   (four) rows or columns per pass;
//! * [`simd`] — explicit `core::arch` x86_64 AVX2 intrinsics behind
//!   `is_x86_feature_detected!`, and the same wide FFT engine compiled
//!   under `#[target_feature(enable = "avx2")]`; falls back to `portable`
//!   elsewhere.
//!
//! # Selection
//!
//! [`active`] resolves the backend in precedence order: an explicit
//! [`select`] call (the CLI's `--backend` flag), the `STITCH_BACKEND`
//! environment variable (`auto`, `scalar`, `portable`, `simd`), then
//! auto-detection (AVX2 available → `simd`, otherwise `portable`).
//! Selection is process-global and cheap to read (one relaxed atomic
//! load), and it is re-read on every kernel dispatch — cached FFT plans
//! do *not* capture the backend at plan time — so tests can switch
//! backends mid-process and every subsequent operation follows.
//!
//! # Bit-exactness contract
//!
//! Every kernel returns the same bits on every backend:
//!
//! * the NCC evaluates the *same IEEE-754 expression DAG* everywhere:
//!   widened exactly to `f64`, no FMA contraction, division and square
//!   root correctly rounded, one rounding back to `f32`;
//! * the FFT has one engine source ([`crate::radix`]), vectorised
//!   *across* transforms, so a lane of the wide run executes the very
//!   operation sequence of the one-lane run and a backend only chooses how
//!   many transforms share an instruction (AVX2 is enabled without FMA);
//! * the co-moments ([`ComputeBackend::comoment_rect`]) are integers,
//!   summed exactly in `i64`, so no lane split or row order can change
//!   them.
//!
//! NCC surfaces, FFT outputs, peak indices and CCF correlations are
//! therefore bit-identical across backends; the testkit backend oracle
//! pins this.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::complex::C32;

pub mod portable;
pub mod scalar;
#[cfg(target_arch = "x86_64")]
pub mod simd;

/// The phase-1 hot-loop kernels every backend provides.
///
/// All slice-length preconditions are the caller's responsibility
/// (callers assert once per pair, not once per element). See the module
/// docs for the bit-exactness contract.
pub trait ComputeBackend: Send + Sync {
    /// Backend name as used by `--backend` / `STITCH_BACKEND`.
    fn name(&self) -> &'static str;

    /// Element-wise normalized conjugate multiply (paper Fig 2 step 4):
    /// `out[i] = a[i]·conj(b[i]) / |a[i]·conj(b[i])|`, each bin computed
    /// in `f64` and rounded once, zero where the product magnitude
    /// underflows (≤ 1e-300). All slices must share one length.
    fn ncc(&self, a: &[C32], b: &[C32], out: &mut [C32]);

    /// CCF co-moments `[Σa, Σb, Σab, Σa², Σb²]` of a `rows × cols`
    /// rectangle of `u16` pixels, exact in `i64`: the whole overlap of one
    /// CCF probe in one call. Row `r` starts at `a[r·stride]` and
    /// `b[r·stride]`; no pixel past the last row's `cols` is read.
    fn comoment_rect(
        &self,
        a: &[u16],
        b: &[u16],
        stride: usize,
        rows: usize,
        cols: usize,
    ) -> [i64; 5];

    /// The lanes and instruction set [`crate::RealFft2d`] runs on under
    /// this backend.
    fn fft_lanes(&self) -> FftLanes;
}

/// How the FFT engine runs: how many transforms share an instruction,
/// and under which instruction set. The arithmetic of each transform is
/// the same in all three.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FftLanes {
    /// One transform at a time.
    One,
    /// One 256-bit register of transforms side by side (`[f32; 8]`,
    /// `[f64; 4]`), in the build's baseline instruction set.
    Wide,
    /// [`FftLanes::Wide`] compiled with AVX2 — where the host has it;
    /// `Wide` elsewhere.
    WideAvx2,
}

/// A backend requested by the user (CLI flag, env var, or testkit).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BackendChoice {
    /// Pick the fastest backend this host supports (AVX2 → `simd`,
    /// otherwise `portable`).
    #[default]
    Auto,
    /// Sequential reference loops.
    Scalar,
    /// Lane-unrolled auto-vectorizable loops.
    Portable,
    /// Explicit AVX2 intrinsics; falls back to `portable` when the host
    /// (or target architecture) lacks them.
    Simd,
}

/// The `--backend` / `STITCH_BACKEND` tokens.
impl std::str::FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<BackendChoice, String> {
        match s {
            "auto" => Ok(BackendChoice::Auto),
            "scalar" => Ok(BackendChoice::Scalar),
            "portable" => Ok(BackendChoice::Portable),
            "simd" => Ok(BackendChoice::Simd),
            other => Err(format!(
                "unknown backend {other:?} (expected auto, scalar, portable, or simd)"
            )),
        }
    }
}

impl BackendChoice {
    /// Every valid token.
    pub const NAMES: [&'static str; 4] = ["auto", "scalar", "portable", "simd"];
}

const UNRESOLVED: u8 = 0;
const SCALAR: u8 = 1;
const PORTABLE: u8 = 2;
const SIMD: u8 = 3;

/// The process-global backend selection. `UNRESOLVED` until the first
/// [`active`] call or an explicit [`select`].
static ACTIVE: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// True when the explicit-SIMD backend can run on this host.
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves a choice to a concrete backend code, applying the SIMD →
/// portable fallback.
fn resolve(choice: BackendChoice) -> u8 {
    match choice {
        BackendChoice::Scalar => SCALAR,
        BackendChoice::Portable => PORTABLE,
        BackendChoice::Simd | BackendChoice::Auto => {
            if simd_supported() {
                SIMD
            } else {
                PORTABLE
            }
        }
    }
}

/// Explicitly selects the process-global backend (the CLI's `--backend`
/// flag and the testkit's per-backend sweeps). Overrides `STITCH_BACKEND`
/// and auto-detection; a `Simd` request without host support silently
/// falls back to `portable` (check [`active`]`().name()` to see what
/// actually runs).
pub fn select(choice: BackendChoice) {
    ACTIVE.store(resolve(choice), Ordering::Release);
}

/// First-use resolution: `STITCH_BACKEND` if set and valid, else auto.
/// Reading the environment allocates, which is why contexts touch
/// [`active`] during construction — never on the steady-state path
/// (the zero-alloc conformance test runs on every backend).
fn resolve_from_env() -> u8 {
    let choice = match std::env::var("STITCH_BACKEND") {
        Ok(v) => v.parse().unwrap_or_default(),
        Err(_) => BackendChoice::Auto,
    };
    resolve(choice)
}

fn instance(code: u8) -> &'static dyn ComputeBackend {
    match code {
        SCALAR => &scalar::ScalarBackend,
        PORTABLE => &portable::PortableBackend,
        #[cfg(target_arch = "x86_64")]
        SIMD => &simd::SimdBackend,
        _ => &portable::PortableBackend,
    }
}

/// The currently active backend: one relaxed atomic load in the steady
/// state. Every kernel dispatch (including inside cached FFT plans)
/// re-reads this, so a [`select`] call takes effect immediately.
pub fn active() -> &'static dyn ComputeBackend {
    let code = ACTIVE.load(Ordering::Acquire);
    if code != UNRESOLVED {
        return instance(code);
    }
    let code = resolve_from_env();
    ACTIVE.store(code, Ordering::Release);
    instance(code)
}

/// The backend a given choice resolves to on this host, without
/// changing the selection.
pub fn resolved_name(choice: BackendChoice) -> &'static str {
    instance(resolve(choice)).name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, Cx, Float};
    use crate::plan::Planner;
    use crate::real::{RealFft2d, RowBand};

    /// Deterministic pseudo-random complex data.
    pub(crate) fn data(n: usize, seed: u64) -> Vec<C32> {
        (0..n)
            .map(|i| {
                let v = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed.wrapping_mul(0xD1B54A32D192ED03));
                C32::from_c64(c64(
                    ((v >> 16) % 2000) as f64 / 10.0 - 100.0,
                    ((v >> 40) % 2000) as f64 / 10.0 - 100.0,
                ))
            })
            .collect()
    }

    fn backends() -> Vec<&'static dyn ComputeBackend> {
        let mut v: Vec<&'static dyn ComputeBackend> =
            vec![&scalar::ScalarBackend, &portable::PortableBackend];
        #[cfg(target_arch = "x86_64")]
        if simd_supported() {
            v.push(&simd::SimdBackend);
        }
        v
    }

    #[test]
    fn parse_choices() {
        assert_eq!("auto".parse::<BackendChoice>(), Ok(BackendChoice::Auto));
        assert_eq!("scalar".parse::<BackendChoice>(), Ok(BackendChoice::Scalar));
        assert_eq!(
            "portable".parse::<BackendChoice>(),
            Ok(BackendChoice::Portable)
        );
        assert_eq!("simd".parse::<BackendChoice>(), Ok(BackendChoice::Simd));
        assert!("cuda".parse::<BackendChoice>().is_err());
    }

    #[test]
    fn ncc_bit_identical_across_backends() {
        for n in [0usize, 1, 3, 4, 7, 16, 64, 1001] {
            let a = data(n, 1);
            let b = data(n, 2);
            let mut reference = vec![C32::ZERO; n];
            scalar::ScalarBackend.ncc(&a, &b, &mut reference);
            for be in backends() {
                let mut out = vec![C32 { re: 9.0, im: 9.0 }; n];
                be.ncc(&a, &b, &mut out);
                for i in 0..n {
                    assert!(
                        reference[i].re.to_bits() == out[i].re.to_bits()
                            && reference[i].im.to_bits() == out[i].im.to_bits(),
                        "{} n={n} i={i}: {:?} vs {:?}",
                        be.name(),
                        reference[i],
                        out[i]
                    );
                }
            }
        }
    }

    #[test]
    fn ncc_underflow_lanes_zero_in_every_backend() {
        // lane 1 of each 4-wide chunk underflows; the masked blend must
        // zero exactly those lanes
        let mut a = data(12, 3);
        for i in (1..12).step_by(4) {
            a[i] = C32::ZERO;
        }
        let b = data(12, 4);
        for be in backends() {
            let mut out = vec![C32 { re: 5.0, im: 5.0 }; 12];
            be.ncc(&a, &b, &mut out);
            for (i, v) in out.iter().enumerate() {
                if i % 4 == 1 {
                    assert_eq!(*v, C32::ZERO, "{} i={i}", be.name());
                } else {
                    assert!((v.to_c64().abs() - 1.0).abs() < 1e-7, "{} i={i}", be.name());
                }
            }
        }
    }

    /// The co-moments as a plain `i64` loop over every pixel of the
    /// rectangle: what every backend must return, bit for bit.
    fn plain_moments(a: &[u16], b: &[u16], stride: usize, rows: usize, cols: usize) -> [i64; 5] {
        let mut m = [0i64; 5];
        for r in 0..rows {
            for c in 0..cols {
                let (x, y) = (i64::from(a[r * stride + c]), i64::from(b[r * stride + c]));
                m[0] += x;
                m[1] += y;
                m[2] += x * y;
                m[3] += x * x;
                m[4] += y * y;
            }
        }
        m
    }

    /// Every backend's moments of the `rows × cols` rectangle at `origin`
    /// of two `w`-wide tiles equal [`plain_moments`]. The slices handed
    /// over end at the rectangle's last pixel, so a kernel reading past a
    /// row's tail would read past the slice.
    fn assert_exact(
        label: &str,
        a: &[u16],
        b: &[u16],
        w: usize,
        origin: usize,
        rows: usize,
        cols: usize,
    ) {
        let end = origin + (rows - 1) * w + cols;
        let (a, b) = (&a[origin..end], &b[origin..end]);
        let want = plain_moments(a, b, w, rows, cols);
        for be in backends() {
            let got = be.comoment_rect(a, b, w, rows, cols);
            assert_eq!(
                got,
                want,
                "{} {label}: {rows}x{cols} at {origin}",
                be.name()
            );
        }
    }

    #[test]
    fn comoment_rect_is_exact_on_every_backend() {
        let (w, h) = (37usize, 23usize);
        let hash = |i: usize, k: usize| (((i * k) ^ (i >> 3)) % 65_536) as u16;
        let a: Vec<u16> = (0..w * h).map(|i| hash(i, 7919)).collect();
        let b: Vec<u16> = (0..w * h).map(|i| hash(i, 104_729)).collect();
        // widths around the 16-pixel step and the full width, at the
        // tile's origin and ending at its last pixel, one row and many
        for cols in [1usize, 6, 15, 16, 17, 24, 33, w] {
            for rows in [1usize, 5, h] {
                assert_exact("mixed", &a, &b, w, 0, rows, cols);
                assert_exact("mixed", &a, &b, w, (h - rows) * w + w - cols, rows, cols);
            }
        }
        // the madd wrap: both lanes of a pair at 0 (a'·b' = 2³⁰ twice),
        // at 65 535, and one tile at each extreme
        let (zero, full) = (vec![0u16; w * h], vec![u16::MAX; w * h]);
        let span: Vec<u16> = (0..w * h)
            .map(|i| (i * 65_535 / (w * h - 1)) as u16)
            .collect();
        for (label, a, b) in [
            ("zeros", &zero, &zero),
            ("saturated", &full, &full),
            ("zero against saturated", &zero, &full),
            ("span 0..65535", &span, &a),
            (
                "span against its mirror",
                &span,
                &span.iter().rev().copied().collect(),
            ),
        ] {
            for cols in [1usize, 6, 16, 17, 33, w] {
                assert_exact(label, a, b, w, 0, h, cols);
            }
        }
        // the paper's 140-px-wide west strip, saturated: the largest
        // moments a probe forms (Σa² ≈ 6.3e14)
        let (pw, ph) = (1392usize, 1040usize);
        let paper = vec![u16::MAX; pw * ph];
        assert_exact("paper strip", &paper, &paper, pw, pw - 140, ph, 140);
        // a whole paper tile: more row steps than an i32 lane sums
        let mixed: Vec<u16> = (0..pw * ph).map(|i| hash(i, 31)).collect();
        assert_exact("paper tile", &mixed, &paper, pw, 0, ph, pw);
    }

    /// One transform pair at precision `T` on `be`'s lanes: the spectrum
    /// and the surface the consumed spectrum inverts to, as bits.
    fn pair_bits<T: Float>(be: &dyn ComputeBackend, w: usize, h: usize) -> Vec<u64> {
        let plan = RealFft2d::<T>::new(&Planner::default(), w, h);
        let input: Vec<T> = data(w * h, 31)
            .iter()
            .map(|z| T::from_f64(z.re.into()))
            .collect();
        let mut spec = vec![Cx::<T>::ZERO; plan.spectrum_len()];
        plan.forward_on(be.fft_lanes(), &input, &mut spec);
        let mut back = vec![T::ZERO; w * h];
        let mut bits: Vec<u64> = spec
            .iter()
            .flat_map(|z| [z.re, z.im])
            .map(|v| v.to_f64().to_bits())
            .collect();
        plan.inverse_on(be.fft_lanes(), &mut spec, &mut back, true, RowBand::all(h));
        bits.extend(back.iter().map(|v| v.to_f64().to_bits()));
        bits
    }

    #[test]
    fn real_fft2d_bit_identical_across_backends() {
        // 174×130 carries both awkward primes (29, 13) and leaves a
        // partial last panel on both axes; 96×72 is the dense toy tile;
        // 61×47 runs chirp-z on both axes.
        for (w, h) in [(174usize, 130usize), (96, 72), (61, 47)] {
            let (want32, want64) = (
                pair_bits::<f32>(&scalar::ScalarBackend, w, h),
                pair_bits::<f64>(&scalar::ScalarBackend, w, h),
            );
            for be in backends() {
                assert!(
                    pair_bits::<f32>(be, w, h) == want32,
                    "{} f32 {w}x{h}",
                    be.name()
                );
                assert!(
                    pair_bits::<f64>(be, w, h) == want64,
                    "{} f64 {w}x{h}",
                    be.name()
                );
            }
        }
    }

    /// The inverse onto a band of rows, then `inverse_rest`, on every
    /// backend's lanes (one, eight, eight under AVX2): each band row is
    /// the whole inverse's to the bit, the rows outside are untouched
    /// until the rest pass, and the finished surface is the whole one.
    /// Even and odd widths; a band wrapping past the last row (a west
    /// window), bands off the 8-row lane blocks.
    #[test]
    fn banded_inverse_rows_are_the_whole_inverses() {
        for (w, h) in [(174usize, 140usize), (87, 133)] {
            let plan = RealFft2d::<f32>::new(&Planner::default(), w, h);
            let input: Vec<f32> = data(w * h, 7).iter().map(|z| z.re).collect();
            let mut spectrum = vec![C32::ZERO; plan.spectrum_len()];
            plan.forward(&input, &mut spectrum);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for band in [(h - 16, 33), (101, 33), (3, 33), (0, h)] {
                let band = RowBand::new(band.0, band.1, h);
                for be in backends() {
                    let what = format!("{} {w}x{h} {band:?}", be.name());
                    let mut whole = vec![0.0; w * h];
                    let all = RowBand::all(h);
                    plan.inverse_on(be.fft_lanes(), &mut spectrum.clone(), &mut whole, true, all);
                    let (mut spec, mut part) = (spectrum.clone(), vec![f32::NAN; w * h]);
                    plan.inverse_on(be.fft_lanes(), &mut spec, &mut part, true, band);
                    for y in 0..h {
                        let row = y * w..(y + 1) * w;
                        if band.ranges().iter().any(|r| r.contains(&y)) {
                            assert_eq!(bits(&part[row.clone()]), bits(&whole[row]), "{what} {y}");
                        } else {
                            assert!(part[row].iter().all(|v| v.is_nan()), "{what} {y}");
                        }
                    }
                    plan.inverse_on(be.fft_lanes(), &mut spec, &mut part, false, band.rest());
                    assert_eq!(bits(&part), bits(&whole), "{what} finished");
                }
            }
        }
    }

    #[test]
    fn selection_resolves_and_switches() {
        // exercised in one test to avoid racing the process-global
        // selection across the parallel test harness
        let initial = active().name();
        assert!(!initial.is_empty());
        select(BackendChoice::Scalar);
        assert_eq!(active().name(), "scalar");
        select(BackendChoice::Portable);
        assert_eq!(active().name(), "portable");
        select(BackendChoice::Simd);
        if simd_supported() {
            assert_eq!(active().name(), "simd");
        } else {
            assert_eq!(active().name(), "portable");
        }
        assert_eq!(resolved_name(BackendChoice::Scalar), "scalar");
        select(BackendChoice::Auto);
        assert_eq!(active().name(), resolved_name(BackendChoice::Auto));
    }
}
