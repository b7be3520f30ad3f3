//! # stitch-fft — FFT substrate for the stitching system
//!
//! A from-scratch FFT library standing in for FFTW3 (CPU path) and cuFFT
//! (simulated-GPU path) in the ICPP 2014 stitching paper's software stack.
//! Every transform is generic over its precision ([`Float`]): the product
//! stores and transforms its spectra in single precision ([`C32`]),
//! double precision ([`C64`]) is the reference the tests hold it to. It
//! provides:
//!
//! * arbitrary-length 1-D complex transforms — mixed-radix Cooley-Tukey for
//!   smooth sizes ([`MixedRadixPlan`]: one engine generic over its lane
//!   type, so `[f32; 8]` runs eight transforms in lock step; odd-prime
//!   butterflies by Hermitian symmetry), Bluestein/chirp-z for sizes with
//!   large prime factors ([`BluesteinPlan`]);
//! * an FFTW-style [`Planner`] with Estimate / Measure / Patient search
//!   modes and a plan cache (§IV-A of the paper);
//! * the product's 2-D transform, real-to-complex / complex-to-real
//!   ([`RealFft2d`], the paper's §VI-A future-work optimization): eight
//!   rows, then eight `C32` spectrum columns — one cache line — per pass,
//!   the inverse in place;
//! * complex 2-D transforms via row-column decomposition with a blocked
//!   transpose ([`Fft2d`]) — the reference the tests compare against;
//! * explicitly vector-shaped element-wise kernels ([`vectorops`]) — the
//!   NCC multiply and max reduction the paper hand-coded with SSE
//!   intrinsics (§IV-A);
//! * runtime-selected compute backends ([`backend`]) — scalar reference,
//!   lane-unrolled portable, and explicit AVX2 implementations of the
//!   phase-1 hot loops (and the lane width and instruction set of the
//!   FFT engine) behind one [`ComputeBackend`] trait, chosen per
//!   process via `--backend` / `STITCH_BACKEND` / CPU feature detection;
//! * size utilities for the padding ablation ([`factor::next_smooth`]).
//!
//! Conventions: forward kernel `e^{-2πi jk/n}`, unscaled in both directions
//! (`inverse(forward(x)) = n·x`), matching FFTW.
//!
//! ```
//! use stitch_fft::{c64, Direction, Planner, C64};
//! let x: Vec<C64> = (0..12).map(|k| c64(k as f64, 0.0)).collect();
//! let planner = Planner::default();
//! let (mut spec, mut back) = (vec![C64::ZERO; 12], vec![C64::ZERO; 12]);
//! planner.plan(12, Direction::Forward).process(&x, &mut spec);
//! planner.plan(12, Direction::Inverse).process(&spec, &mut back);
//! assert!(back.iter().zip(&x).all(|(a, b)| (a.scale(1.0 / 12.0) - *b).abs() < 1e-9));
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod bluestein;
pub mod complex;
pub mod factor;
pub mod fft2d;
pub mod plan;
pub mod radix;
pub mod real;
pub mod scratch;
pub mod vectorops;

pub use backend::{BackendChoice, ComputeBackend};
pub use bluestein::BluesteinPlan;
pub use complex::{c64, Float, C32, C64};
pub use fft2d::{transpose, Fft2d};
pub use plan::{FftPlan, PlanMode, Planner};
pub use radix::{dft_naive, Direction, MixedRadixPlan};
pub use real::{bin_into, RealFft2d, RowBand};
