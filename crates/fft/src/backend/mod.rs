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
//! * [`portable`] — the lane-unrolled dependency-free shape from
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
//! The element-wise kernel (`ncc`) evaluates the *same IEEE-754
//! expression DAG* in every backend: widened exactly to `f64`, no FMA
//! contraction, division and square root correctly rounded, one rounding
//! back to `f32`. The FFT needs no such care: there is one engine source
//! ([`crate::radix`]), vectorised *across* transforms, so a lane of the
//! wide run executes the very operation sequence of the one-lane run and
//! a backend only chooses how many transforms share an instruction (AVX2
//! is enabled without FMA). All backends therefore produce bit-identical
//! NCC surfaces, FFT outputs, and peak indices — the testkit backend
//! oracle pins this.
//!
//! The co-moments ([`ComputeBackend::comoment_rect`]) are a reduction.
//! The contract is per rectangle: the backend loops the rows inside its
//! own frame (one dynamic call per CCF probe, not per overlap row), each
//! row reduced by its row kernel and the row sums added in row order. The
//! `portable` and `simd` row kernels split a row over four lanes in one
//! order and are bit-identical to each other; against `scalar` they
//! re-associate and agree to ~1e-12 relative, which the CCF scoring
//! tolerates (see DESIGN.md § "Compute backends").

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
    /// rectangle of `u16` pixels, widened and centered on the fly
    /// (`va = a[i] − ca`, `(ca, cb) = centers`): the whole overlap of one
    /// CCF probe in one call. Row `r` starts at `a[r·stride]` and
    /// `b[r·stride]`. Each row is reduced with the backend's lane
    /// arithmetic and the row sums are added in row order, so the result
    /// is the per-row sum, bit for bit; lane-split backends re-associate
    /// within a row (see module docs).
    fn comoment_rect(
        &self,
        a: &[u16],
        b: &[u16],
        stride: usize,
        rows: usize,
        cols: usize,
        centers: (f64, f64),
    ) -> [f64; 5];

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
    use crate::real::RealFft2d;
    use crate::vectorops;

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

    /// A backend's own row kernel.
    fn row_kernel(name: &str, a: &[u16], b: &[u16], (ca, cb): (f64, f64)) -> [f64; 5] {
        match name {
            "scalar" => vectorops::comoment_u16_scalar(a, b, ca, cb),
            "portable" => vectorops::comoment_u16_vectorized(a, b, ca, cb),
            // SAFETY: `backends()` lists simd only where AVX2 runs.
            #[cfg(target_arch = "x86_64")]
            "simd" => unsafe { simd::comoment_u16_avx2(a, b, ca, cb) },
            other => unreachable!("no backend {other}"),
        }
    }

    /// The reference a backend's rectangle must equal bit for bit: its
    /// row kernel over each row, the row sums added in row order.
    fn per_row_sum(name: &str, rect: &Rect, a: &[u16], b: &[u16]) -> [f64; 5] {
        let mut acc = [0.0f64; 5];
        for r in 0..rect.rows {
            let (ra, rb) = (rect.a0 + r * rect.stride, rect.b0 + r * rect.stride);
            let sums = row_kernel(
                name,
                &a[ra..ra + rect.cols],
                &b[rb..rb + rect.cols],
                rect.centers,
            );
            for k in 0..5 {
                acc[k] += sums[k];
            }
        }
        acc
    }

    /// The overlap of two `w × h` tiles with `b` at `(dx, dy)` in `a`'s
    /// frame, as the CCF probe addresses it.
    struct Rect {
        a0: usize,
        b0: usize,
        stride: usize,
        rows: usize,
        cols: usize,
        centers: (f64, f64),
    }

    fn overlap(w: usize, h: usize, dx: i64, dy: i64) -> Rect {
        let (ax0, ay0) = (dx.max(0) as usize, dy.max(0) as usize);
        let (bx0, by0) = ((-dx).max(0) as usize, (-dy).max(0) as usize);
        Rect {
            a0: ay0 * w + ax0,
            b0: by0 * w + bx0,
            stride: w,
            rows: h - dy.unsigned_abs() as usize,
            cols: w - dx.unsigned_abs() as usize,
            centers: (30_123.25, 29_876.5),
        }
    }

    #[test]
    fn comoment_rect_is_the_per_row_sum_on_every_backend() {
        let (w, h) = (37usize, 23usize);
        let a: Vec<u16> = (0..w * h)
            .map(|i| ((i * 7919 + 3) % 65536) as u16)
            .collect();
        let b: Vec<u16> = (0..w * h)
            .map(|i| ((i * 104_729 + 11) % 65536) as u16)
            .collect();
        let w_ = w as i64;
        // 1-, 2-, 5- and 6-px-wide overlaps on both sides, full width,
        // corners in all four quadrants, one-row strips
        let mut shifts = Vec::new();
        for cols in [1i64, 2, 5, 6] {
            for dy in [-3i64, 0, 4] {
                shifts.push((w_ - cols, dy));
                shifts.push((cols - w_, dy));
            }
        }
        shifts.extend([
            (0, 0),
            (0, 9),
            (0, -9),
            (0, 22),
            (13, 7),
            (-13, 7),
            (13, -7),
            (-13, -7),
        ]);
        for (dx, dy) in shifts {
            let rect = overlap(w, h, dx, dy);
            let (ra, rb) = (&a[rect.a0..], &b[rect.b0..]);
            let mut lane_split = None;
            for be in backends() {
                let got = be.comoment_rect(ra, rb, w, rect.rows, rect.cols, rect.centers);
                let want = per_row_sum(be.name(), &rect, &a, &b);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{} dx={dx} dy={dy}",
                    be.name()
                );
                // the two lane-split backends share one summation order
                if be.name() != "scalar" {
                    let first = *lane_split.get_or_insert(got);
                    assert_eq!(
                        first.map(f64::to_bits),
                        got.map(f64::to_bits),
                        "{}",
                        be.name()
                    );
                }
            }
        }
    }

    #[test]
    fn comoment_rect_backends_agree_to_reassociation_tolerance() {
        let (w, h) = (64usize, 48usize);
        let a: Vec<u16> = (0..w * h).map(|i| ((i * 37 + 11) % 4096) as u16).collect();
        let b: Vec<u16> = (0..w * h).map(|i| ((i * 53 + 7) % 4096) as u16).collect();
        let reference = scalar::ScalarBackend.comoment_rect(&a, &b, w, h, w, (2048.5, 2047.25));
        for be in backends() {
            let got = be.comoment_rect(&a, &b, w, h, w, (2048.5, 2047.25));
            for k in 0..5 {
                let denom = reference[k].abs().max(1.0);
                assert!(
                    ((reference[k] - got[k]) / denom).abs() < 1e-9,
                    "{} k={k}",
                    be.name()
                );
            }
        }
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
        plan.inverse_on(be.fft_lanes(), &mut spec, &mut back);
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
