//! Backend differential suite: every compute backend must produce
//! bit-identical displacements (correlations included), global positions
//! and mosaics over the ground-truth sweep (including the prime/Bluestein
//! tile sizes), bit-identical single-precision spectra, NCC bins,
//! correlation surfaces, peaks and CCF, finite bins where `f32` would
//! overflow, and every backend must honor the steady-state
//! zero-allocation contract of the PCIAM pair hot path.
//!
//! The active backend is process-global, so this suite lives in its own
//! integration binary (its tests serialize via
//! `stitch_testkit::backends::serial_guard`) instead of riding along in
//! `conformance.rs`, whose tests assume the backend never moves under
//! them.

mod f64_reference;

use std::sync::Arc;
use stitch_core::pciam::{resolve_peaks_oriented, DEFAULT_PEAK_COUNT};

use stitch_core::{OpCounters, OpCounts, PairKind, PciamContext, SpectrumPool};
use stitch_fft::backend::{self, BackendChoice};
use stitch_fft::{PlanMode, Planner, RealFft2d, C32};
use stitch_image::{Image, ScanConfig, Scene, SceneParams, SyntheticPlate};
use stitch_testkit::alloc::CountingAllocator;
use stitch_testkit::backends::{choices, run_backend_case, serial_guard};
use stitch_testkit::sweep;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn all_backends_bit_identical_across_sweep() {
    let cases = sweep();
    assert!(cases.len() >= 12, "sweep shrank below the acceptance floor");
    assert!(
        cases.iter().any(|c| c.has_prime_dim()),
        "sweep lost its prime-tile (Bluestein) coverage"
    );
    let mut failures = Vec::new();
    for case in &cases {
        let report = run_backend_case(case);
        if !report.is_clean() {
            failures.push(report);
        }
    }
    assert!(
        failures.is_empty(),
        "backend divergence in {} case(s):\n{}",
        failures.len(),
        failures
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Runs `pairs` full PCIAM computations of the west pair `(a, b)` after
/// `warmup` of the same under the currently selected backend, searching
/// within the stage window of `overlap` if given, and returns the heap
/// allocations the measured iterations performed on this thread and the
/// run's counts. Mirrors the conformance suite's probe; the warmup also
/// absorbs the backend module's one-time `STITCH_BACKEND` environment
/// read.
fn steady_state_pair_allocations(
    warmup: usize,
    pairs: usize,
    (a, b): &(Image<u16>, Image<u16>),
    overlap: Option<f64>,
) -> (u64, OpCounts) {
    let (w, h) = a.dims();
    let planner = Planner::new(PlanMode::Estimate);
    let counters = OpCounters::new_shared();
    let pool = SpectrumPool::new(PciamContext::spectrum_len((w, h), overlap));
    let mut ctx = PciamContext::with_pool(&planner, (w, h), overlap, Arc::clone(&counters), pool);
    let run_pair = |ctx: &mut PciamContext| {
        let fa = ctx.forward_fft(a);
        let fb = ctx.forward_fft(b);
        ctx.displacement_oriented(&fa, &fb, a, b, Some(PairKind::West))
    };
    let mut sink = Vec::with_capacity(warmup + pairs);
    for _ in 0..warmup {
        sink.push(run_pair(&mut ctx));
    }
    let before = CountingAllocator::thread_allocations();
    for _ in 0..pairs {
        sink.push(run_pair(&mut ctx));
    }
    let measured = CountingAllocator::thread_allocations() - before;
    assert!(sink.windows(2).all(|p| p[0] == p[1]), "unstable result");
    (measured, counters.snapshot())
}

/// A 64×48 west pair of the conformance suite's probe.
fn toy_pair() -> (Image<u16>, Image<u16>) {
    let (w, h) = (64usize, 48usize);
    let scene = Scene::generate(
        w as f64 * 3.0,
        h as f64 * 3.0,
        SceneParams {
            colony_count: 20,
            seed: 99,
            ..SceneParams::default()
        },
    );
    let a = scene.render_region(w as f64, h as f64, w, h, 0.02, 30.0, 1);
    let b = scene.render_region(w as f64 * 1.75, h as f64 + 2.0, w, h, 0.02, 30.0, 2);
    (a, b)
}

/// The toy pair over the whole surface; a 232×174 pair (scanned at 10 %
/// overlap) within its stage window, once where the window holds and
/// once told 30 %, so the truth is outside and every pair falls back.
/// Then a paper-size pair whose Fourier half runs on binned tiles, after
/// one warm-up pair: told its overlap, no pair is redone; told 30 %,
/// every pair is redone at full resolution and falls back there too.
#[test]
fn every_backend_is_allocation_free_in_steady_state() {
    let _guard = serial_guard();
    let (toy, tall, paper) = (
        toy_pair(),
        west_pair(232, 174, 29),
        west_pair(1392, 1040, 7),
    );
    for choice in choices() {
        backend::select(choice);
        let name = backend::resolved_name(choice);
        let runs = [
            (&toy, None, (3, 5), [0, 0, 0, 0]),
            (&tall, Some(0.1), (3, 5), [8, 0, 0, 0]),
            (&tall, Some(0.3), (3, 5), [8, 8, 0, 0]),
            (&paper, Some(0.1), (1, 3), [0, 0, 4, 0]),
            (&paper, Some(0.3), (1, 3), [4, 4, 4, 4]),
        ];
        for (pair, overlap, (warmup, pairs), want) in runs {
            let (allocs, ops) = steady_state_pair_allocations(warmup, pairs, pair, overlap);
            assert_eq!(
                allocs, 0,
                "backend {name} at {overlap:?}: steady-state pair computation allocated {allocs} times"
            );
            let got = [
                ops.windowed_pairs,
                ops.window_fallbacks,
                ops.coarse_pairs,
                ops.coarse_fallbacks,
            ];
            assert_eq!(got, want, "backend {name} at {overlap:?}");
        }
    }
    backend::select(BackendChoice::Auto);
}

/// The west pair of a one-row, two-tile scan at the benchmark's optics.
fn west_pair(w: usize, h: usize, seed: u64) -> (Image<u16>, Image<u16>) {
    let plate = SyntheticPlate::generate(ScanConfig {
        noise_sigma: 50.0,
        stage_jitter: 3.0,
        vignette: 0.03,
        ..ScanConfig::for_grid(1, 2, w, h, 0.10, seed)
    });
    (plate.render_tile(0, 0), plate.render_tile(0, 1))
}

/// What the kernel computes for one pair under the active backend: both
/// spectra, the NCC bins, the correlation surface, and the peaks and
/// displacement `PciamContext` reports. The NCC and the inverse are the
/// kernel's own calls (the backend's `ncc`, the `f32` `RealFft2d`), made
/// here so their outputs can be inspected.
struct Stages {
    spectra: [Vec<C32>; 2],
    ncc: Vec<C32>,
    surface: Vec<f32>,
    peaks: Vec<(usize, f64)>,
    displacement: stitch_core::Displacement,
}

impl Stages {
    fn of(a: &Image<u16>, b: &Image<u16>) -> Stages {
        let (w, h) = a.dims();
        let planner = Planner::new(PlanMode::Estimate);
        let mut ctx = PciamContext::new(&planner, w, h, OpCounters::new_shared());
        let (fa, fb) = (ctx.forward_fft(a), ctx.forward_fft(b));
        let mut ncc = vec![C32::ZERO; fa.len()];
        backend::active().ncc(&fa, &fb, &mut ncc);
        let mut surface = vec![0.0; w * h];
        RealFft2d::new(&planner, w, h).inverse(&mut ncc.clone(), &mut surface);
        Stages {
            peaks: ctx.correlation_peaks(&fa, &fb, DEFAULT_PEAK_COUNT),
            displacement: ctx.displacement_oriented(&fa, &fb, a, b, Some(PairKind::West)),
            spectra: [fa.to_vec(), fb.to_vec()],
            ncc,
            surface,
        }
    }

    fn bits(&self) -> Vec<u64> {
        let bins = |v: &[C32]| v.iter().flat_map(|z| [z.re, z.im]).collect::<Vec<_>>();
        let floats = [
            &bins(&self.spectra[0]),
            &bins(&self.spectra[1]),
            &bins(&self.ncc),
        ];
        let floats = floats.into_iter().flatten().chain(&self.surface);
        let peaks = self
            .peaks
            .iter()
            .flat_map(|&(i, m)| [i as u64, m.to_bits()]);
        let d = &self.displacement;
        let displacement = [d.x as u64, d.y as u64, d.correlation.to_bits()];
        floats
            .map(|v| u64::from(v.to_bits()))
            .chain(peaks)
            .chain(displacement)
            .collect()
    }
}

/// Scalar (one lane), portable (`[f32; 8]`) and simd (the same lanes
/// under AVX2, and the AVX2 NCC and co-moments) compute every stage of the
/// kernel to the same bits, the CCF's displacement and correlation
/// included: 232×174 carries 29 on both axes of the half spectrum's
/// transforms, 61×47 runs chirp-z on both, 87×58 has an odd width.
#[test]
fn every_backend_computes_the_same_spectra_surfaces_and_peaks() {
    let _guard = serial_guard();
    for (w, h, seed) in [(232usize, 174usize, 29u64), (61, 47, 61), (87, 58, 87)] {
        let (a, b) = west_pair(w, h, seed);
        let mut first: Option<(&str, Vec<u64>)> = None;
        for choice in choices() {
            backend::select(choice);
            let got = Stages::of(&a, &b);
            let name = backend::resolved_name(choice);
            let (first_name, want) = first.get_or_insert_with(|| (name, got.bits()));
            assert!(
                got.bits() == *want,
                "{w}x{h}: {name} differs from {first_name}"
            );
        }
    }
    backend::select(BackendChoice::Auto);
}

/// At paper size a tile's DC bin is ≈ 4e9 (mean 3 000) to ≈ 9e10
/// (saturated at 65 535), so `|a·conj b|²` is past `f32::MAX`: the NCC
/// normalises in `f64`, and on every backend the bins and the surface are
/// finite, the DC bin is exactly 1, and the peaks and the displacement are
/// the `f64` reference's.
#[test]
fn paper_size_bins_do_not_overflow_single_precision() {
    let _guard = serial_guard();
    let (a, b) = west_pair(1392, 1040, 2014);
    let bright = |img: &Image<u16>| img.map(|p| p.saturating_add(3000));
    let saturated = |img: &Image<u16>| img.map(|p| p.saturating_mul(80));
    let planner = Planner::new(PlanMode::Estimate);
    for (label, a, b) in [
        ("mean >= 3000", bright(&a), bright(&b)),
        ("saturated", saturated(&a), saturated(&b)),
    ] {
        let sum: u64 = a.pixels().iter().map(|&p| u64::from(p)).sum();
        assert!(sum >= 3000 * a.len() as u64, "{label}: sum {sum}");
        if label == "saturated" {
            let clipped = a.pixels().iter().filter(|&&p| p == u16::MAX).count();
            assert!(clipped * 4 > a.len(), "{label}: {clipped} pixels at 65535");
        }
        let reference = f64_reference::peaks(&planner, &a, &b, DEFAULT_PEAK_COUNT);
        let (w, h) = a.dims();
        let expected = resolve_peaks_oriented(&reference, w, h, &a, &b, Some(PairKind::West));
        for choice in choices() {
            backend::select(choice);
            let name = backend::resolved_name(choice);
            let s = Stages::of(&a, &b);
            assert!(
                s.ncc.iter().all(|z| z.is_finite()),
                "{label} {name}: NCC bin"
            );
            assert!(
                s.surface.iter().all(|v| v.is_finite()),
                "{label} {name}: surface"
            );
            assert_eq!(s.ncc[0], C32 { re: 1.0, im: 0.0 }, "{label} {name}: DC bin");
            let peaks: Vec<usize> = s.peaks.iter().map(|&(i, _)| i).collect();
            assert_eq!(peaks, reference, "{label} {name}: peaks");
            assert_eq!(s.displacement, expected, "{label} {name}: displacement");
        }
    }
    backend::select(BackendChoice::Auto);
}
