//! Runtime-selected compute backends for the phase-1 hot loops.
//!
//! The paper's §IV-A found that GCC would not auto-vectorize the two hot
//! element-wise loops of the stitching computation and hand-coded them
//! with SSE intrinsics. This module generalizes that observation into a
//! [`ComputeBackend`] trait covering every phase-1 hot loop — the NCC
//! normalized conjugate multiply, the max reduction, the CCF co-moment
//! accumulation, and the 2-D real FFT pair — with three implementations
//! selected at runtime:
//!
//! * [`scalar`] — straight sequential reference loops; the FFT engine
//!   with one `f64` lane, one row or column at a time;
//! * [`portable`] — the lane-unrolled dependency-free shape from
//!   [`crate::vectorops`], which LLVM auto-vectorizes on any target; the
//!   FFT engine with four lanes (`[f64; 4]`), four rows or columns per
//!   pass;
//! * [`simd`] — explicit `core::arch` x86_64 AVX2 intrinsics behind
//!   `is_x86_feature_detected!`, and the same four-lane FFT engine
//!   compiled under `#[target_feature(enable = "avx2")]`; falls back to
//!   `portable` elsewhere.
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
//! The element-wise kernel (`ncc`) and the max reduction evaluate the
//! *same IEEE-754 expression DAG* in every backend: no FMA contraction,
//! no re-associated sums, division and square root are correctly
//! rounded, and tie-breaks resolve to the lowest index. The FFT needs no
//! such care: there is one engine source ([`crate::radix`]), vectorised
//! *across* transforms, so a lane of the four-lane run executes the very
//! operation sequence of the one-lane run and a backend only chooses how
//! many transforms share an instruction (AVX2 is enabled without FMA).
//! All backends therefore produce bit-identical NCC surfaces, FFT
//! outputs, and peak indices — the testkit backend oracle pins this. The
//! co-moment accumulators (`comoment*`) are reductions; the lane-split
//! versions re-associate the sum and are only guaranteed equal to ~1e-12
//! relative, which the CCF scoring tolerates (see DESIGN.md § "Compute
//! backends").

use std::sync::atomic::{AtomicU8, Ordering};

use crate::complex::C64;
use crate::real::RealFft2d;

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
    /// `out[i] = a[i]·conj(b[i]) / |a[i]·conj(b[i])|`, zero where the
    /// product magnitude underflows (≤ 1e-300). All slices must share
    /// one length.
    fn ncc(&self, a: &[C64], b: &[C64], out: &mut [C64]);

    /// Index and squared magnitude of the largest `|·|²` (paper Fig 2
    /// step 5). `None` iff `data` is empty or every element's magnitude
    /// is NaN; NaN elements are skipped; ties resolve to the lowest
    /// index.
    fn max_norm_sqr(&self, data: &[C64]) -> Option<(usize, f64)>;

    /// CCF co-moment accumulators over pre-centered values:
    /// `[Σa, Σb, Σab, Σa², Σb²]`. Lane-split backends re-associate the
    /// sums (see module docs).
    fn comoment(&self, a: &[f64], b: &[f64]) -> [f64; 5];

    /// [`ComputeBackend::comoment`] fused with the `u16 → f64` widening
    /// and mean-centering (`va = a[i] − ca`), the exact inner loop of
    /// the CCF overlap scan — the dominant per-pair cost.
    fn comoment_u16(&self, a: &[u16], b: &[u16], ca: f64, cb: f64) -> [f64; 5];

    /// [`RealFft2d::forward`] with this backend's lane type and
    /// instruction set (lengths already checked).
    fn real_fft2d_forward(&self, plan: &RealFft2d, input: &[f64], output: &mut [C64]);

    /// [`RealFft2d::inverse`], likewise; `spectrum` is consumed.
    fn real_fft2d_inverse(&self, plan: &RealFft2d, spectrum: &mut [C64], output: &mut [f64]);
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
    use crate::complex::c64;

    /// Deterministic pseudo-random complex data.
    pub(crate) fn data(n: usize, seed: u64) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let v = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed.wrapping_mul(0xD1B54A32D192ED03));
                c64(
                    ((v >> 16) % 2000) as f64 / 10.0 - 100.0,
                    ((v >> 40) % 2000) as f64 / 10.0 - 100.0,
                )
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
            let mut reference = vec![C64::ZERO; n];
            scalar::ScalarBackend.ncc(&a, &b, &mut reference);
            for be in backends() {
                let mut out = vec![c64(9.0, 9.0); n];
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
            a[i] = C64::ZERO;
        }
        let b = data(12, 4);
        for be in backends() {
            let mut out = vec![c64(5.0, 5.0); 12];
            be.ncc(&a, &b, &mut out);
            for (i, v) in out.iter().enumerate() {
                if i % 4 == 1 {
                    assert_eq!(*v, C64::ZERO, "{} i={i}", be.name());
                } else {
                    assert!((v.abs() - 1.0).abs() < 1e-12, "{} i={i}", be.name());
                }
            }
        }
    }

    #[test]
    fn max_bit_identical_across_backends() {
        for n in [1usize, 2, 4, 5, 63, 64, 65, 999] {
            for seed in 0..6 {
                let d = data(n, seed);
                let reference = scalar::ScalarBackend.max_norm_sqr(&d);
                for be in backends() {
                    let got = be.max_norm_sqr(&d);
                    assert_eq!(
                        reference.map(|(i, m)| (i, m.to_bits())),
                        got.map(|(i, m)| (i, m.to_bits())),
                        "{} n={n} seed={seed}",
                        be.name()
                    );
                }
            }
        }
    }

    #[test]
    fn max_empty_and_all_nan_are_none() {
        let nan = c64(f64::NAN, 0.0);
        for be in backends() {
            assert_eq!(be.max_norm_sqr(&[]), None, "{} empty", be.name());
            assert_eq!(be.max_norm_sqr(&[nan; 7]), None, "{} all-NaN", be.name());
            assert_eq!(be.max_norm_sqr(&[nan; 16]), None, "{} all-NaN", be.name());
        }
    }

    #[test]
    fn max_skips_nan_elements() {
        let mut d = data(33, 9);
        let truth = scalar::ScalarBackend.max_norm_sqr(&d).unwrap();
        // poison everything except the true peak's chunk neighbors
        for i in [0usize, 5, 6, 13, 31] {
            if i != truth.0 {
                d[i] = c64(f64::NAN, 3.0);
            }
        }
        let reference = scalar::ScalarBackend.max_norm_sqr(&d).unwrap();
        for be in backends() {
            assert_eq!(be.max_norm_sqr(&d), Some(reference), "{}", be.name());
        }
    }

    #[test]
    fn max_cross_lane_and_cross_chunk_ties_take_lowest_index() {
        // equal peaks in different lanes of one chunk, and across chunks
        for (i, j) in [(1usize, 3usize), (2, 9), (5, 21), (0, 63)] {
            let mut d = data(64, 11);
            let peak = c64(4000.0, 3000.0);
            d[i] = peak;
            d[j] = peak;
            for be in backends() {
                let (idx, m) = be.max_norm_sqr(&d).unwrap();
                assert_eq!(idx, i, "{} tie ({i},{j})", be.name());
                assert_eq!(m.to_bits(), peak.norm_sqr().to_bits());
            }
        }
    }

    #[test]
    fn comoments_agree_to_reassociation_tolerance() {
        for n in [0usize, 1, 5, 16, 100, 1003] {
            let a: Vec<f64> = data(n, 4).iter().map(|z| z.re).collect();
            let b: Vec<f64> = data(n, 5).iter().map(|z| z.im).collect();
            let reference = scalar::ScalarBackend.comoment(&a, &b);
            for be in backends() {
                let got = be.comoment(&a, &b);
                for k in 0..5 {
                    let denom = reference[k].abs().max(1.0);
                    assert!(
                        ((reference[k] - got[k]) / denom).abs() < 1e-9,
                        "{} n={n} k={k}: {} vs {}",
                        be.name(),
                        reference[k],
                        got[k]
                    );
                }
            }
        }
    }

    #[test]
    fn comoment_u16_matches_f64_comoment() {
        let n = 103;
        let a: Vec<u16> = (0..n).map(|i| ((i * 37 + 11) % 4096) as u16).collect();
        let b: Vec<u16> = (0..n).map(|i| ((i * 53 + 7) % 4096) as u16).collect();
        let (ca, cb) = (1000.25, 999.75);
        let af: Vec<f64> = a.iter().map(|&p| p as f64 - ca).collect();
        let bf: Vec<f64> = b.iter().map(|&p| p as f64 - cb).collect();
        for be in backends() {
            let direct = be.comoment_u16(&a, &b, ca, cb);
            let via_f64 = be.comoment(&af, &bf);
            for k in 0..5 {
                assert_eq!(
                    direct[k].to_bits(),
                    via_f64[k].to_bits(),
                    "{} k={k}",
                    be.name()
                );
            }
        }
    }

    #[test]
    fn portable_and_simd_comoments_bit_identical() {
        // scalar may re-associate differently, but the two lane-split
        // backends share one summation order exactly
        #[cfg(target_arch = "x86_64")]
        if simd_supported() {
            for n in [0usize, 3, 4, 64, 257, 1000] {
                let a: Vec<f64> = data(n, 6).iter().map(|z| z.re).collect();
                let b: Vec<f64> = data(n, 7).iter().map(|z| z.im).collect();
                let p = portable::PortableBackend.comoment(&a, &b);
                let s = simd::SimdBackend.comoment(&a, &b);
                for k in 0..5 {
                    assert_eq!(p[k].to_bits(), s[k].to_bits(), "n={n} k={k}");
                }
                let au: Vec<u16> = (0..n).map(|i| ((i * 97) % 65536) as u16).collect();
                let bu: Vec<u16> = (0..n).map(|i| ((i * 31 + 5) % 65536) as u16).collect();
                let p = portable::PortableBackend.comoment_u16(&au, &bu, 32000.5, 31999.5);
                let s = simd::SimdBackend.comoment_u16(&au, &bu, 32000.5, 31999.5);
                for k in 0..5 {
                    assert_eq!(p[k].to_bits(), s[k].to_bits(), "u16 n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn real_fft2d_bit_identical_across_backends() {
        use crate::plan::Planner;
        // 174×130 carries both awkward primes (29, 13) and leaves a
        // partial last panel on both axes; 96×72 is the dense toy tile.
        for (w, h) in [(174usize, 130usize), (96, 72)] {
            let plan = RealFft2d::new(&Planner::default(), w, h);
            let input: Vec<f64> = data(w * h, 31).iter().map(|z| z.re).collect();
            let mut reference: Option<(Vec<C64>, Vec<f64>)> = None;
            for be in backends() {
                let mut spec = vec![C64::ZERO; plan.spectrum_len()];
                be.real_fft2d_forward(&plan, &input, &mut spec);
                let forward = spec.clone();
                let mut back = vec![0.0; w * h];
                be.real_fft2d_inverse(&plan, &mut spec, &mut back);
                let (want_fwd, want_back) =
                    reference.get_or_insert((forward.clone(), back.clone()));
                let same = forward.iter().zip(want_fwd.iter()).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
                assert!(same, "{} forward {w}x{h}", be.name());
                let same = back
                    .iter()
                    .zip(want_back.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{} inverse {w}x{h}", be.name());
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
