//! Conformance suite: the cross-variant differential oracle over the
//! full sweep, plus stress-runner reproducibility.
//!
//! `STITCH_TESTKIT_EXHAUSTIVE=1` widens the sweep (bigger grids, more
//! prime geometries, harsher noise); the default sweep is sized for
//! tier-1 CI. On failure the oracle prints a structured report naming
//! the variant, tile pair / tile / pixel, and both values — see
//! EXPERIMENTS.md § "Conformance & stress testing" for how to read it.
//!
//! This binary also runs under the counting allocator so it can assert
//! the hot-path invariant directly: steady-state PCIAM pair computation
//! performs zero heap allocations after warmup.

mod f64_reference;

use stitch_core::pciam::{resolve_peaks_oriented, DEFAULT_PEAK_COUNT};
use stitch_core::{
    GridShape, MemorySource, OpCounters, OpCounts, PairKind, PciamContext, SimpleCpuStitcher,
    SourceError, Stitcher, SyntheticSource, TileId, TileSource,
};
use stitch_fft::vectorops::{ncc_scalar, top_peaks_into};
use stitch_fft::{c64, Direction, Fft2d, PlanMode, Planner, RealFft2d, RowBand, C64};
use stitch_image::{Image, ScanConfig, Scene, SceneParams, SyntheticPlate};
use stitch_testkit::alloc::CountingAllocator;
use stitch_testkit::{run_case, run_stress, sweep};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Runs `pairs` full PCIAM pair computations (two forward FFTs + NCC +
/// inverse + peaks + CCF refine) after `warmup` of the same, returning
/// the number of heap allocations the measured iterations performed on
/// this thread.
fn steady_state_pair_allocations(warmup: usize, pairs: usize) -> u64 {
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
    let planner = Planner::new(PlanMode::Estimate);
    let mut ctx = PciamContext::new(&planner, w, h, OpCounters::new_shared());
    let run_pair = |ctx: &mut PciamContext| {
        let fa = ctx.forward_fft(&a);
        let fb = ctx.forward_fft(&b);
        ctx.displacement_oriented(&fa, &fb, &a, &b, Some(PairKind::West))
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
    // sanity: the work actually happened and was deterministic
    assert!(sink.windows(2).all(|p| p[0] == p[1]), "unstable result");
    measured
}

#[test]
fn steady_state_pair_computation_is_allocation_free() {
    let allocs = steady_state_pair_allocations(3, 5);
    assert_eq!(
        allocs, 0,
        "steady-state pair computation allocated {allocs} times"
    );
}

/// Fig 2 steps 2–7 the way the paper published them — full
/// complex-to-complex double-precision transforms of both tiles, NCC,
/// inverse transform, top-`k` of |·|² — from `stitch-fft`'s public pieces
/// only. Shares no code with `PciamContext`, the half-spectrum transforms
/// or single precision, so it is the reference the one production kernel
/// is compared against.
fn complex_reference_peaks(a: &Image<u16>, b: &Image<u16>, k: usize) -> Vec<usize> {
    let (w, h) = a.dims();
    let planner = Planner::new(PlanMode::Estimate);
    let forward = Fft2d::new(&planner, w, h, Direction::Forward);
    let mut scratch = vec![C64::ZERO; w * h];
    let mut spectrum = |img: &Image<u16>| {
        let mut f: Vec<C64> = img.pixels().iter().map(|&p| c64(p as f64, 0.0)).collect();
        forward.process(&mut f, &mut scratch);
        f
    };
    let (fa, fb) = (spectrum(a), spectrum(b));
    let mut surface = vec![C64::ZERO; w * h];
    ncc_scalar(&fa, &fb, &mut surface);
    Fft2d::new(&planner, w, h, Direction::Inverse).process(&mut surface, &mut scratch);
    let (mut cand, mut peaks) = (Vec::new(), Vec::new());
    top_peaks_into(
        &surface,
        w,
        RowBand::all(h),
        k,
        C64::norm_sqr,
        &mut cand,
        &mut peaks,
    );
    peaks.into_iter().map(|(i, _)| i).collect()
}

/// Every adjacent pair of `source`: the kernel's peaks must be the
/// reference's, index for index, and its displacement the one those
/// peaks resolve to.
fn assert_kernel_matches_complex_reference(source: &dyn TileSource, label: &str) {
    let shape = source.shape();
    let (w, h) = source.tile_dims();
    let planner = Planner::new(PlanMode::Estimate);
    let mut ctx = PciamContext::new(&planner, w, h, OpCounters::new_shared());
    let tiles: Vec<Image<u16>> = shape.ids().map(|id| source.load(id).unwrap()).collect();
    let spectra: Vec<_> = tiles.iter().map(|t| ctx.forward_fft(t)).collect();
    for id in shape.ids() {
        let pairs = [
            (shape.west(id), PairKind::West),
            (shape.north(id), PairKind::North),
        ];
        for (neighbour, kind) in pairs {
            let Some(neighbour) = neighbour else { continue };
            let (ia, ib) = (shape.index(neighbour), shape.index(id));
            let reference = complex_reference_peaks(&tiles[ia], &tiles[ib], DEFAULT_PEAK_COUNT);
            let peaks = ctx.correlation_peaks(&spectra[ia], &spectra[ib], DEFAULT_PEAK_COUNT);
            let indices: Vec<usize> = peaks.iter().map(|&(i, _)| i).collect();
            assert_eq!(indices, reference, "{label}: {kind:?} pair into {id:?}");
            let d = ctx.displacement_oriented(
                &spectra[ia],
                &spectra[ib],
                &tiles[ia],
                &tiles[ib],
                Some(kind),
            );
            let expected =
                resolve_peaks_oriented(&reference, w, h, &tiles[ia], &tiles[ib], Some(kind));
            assert_eq!(d, expected, "{label}: {kind:?} pair into {id:?}");
        }
    }
}

#[test]
fn kernel_matches_the_complex_reference_across_sweep() {
    for case in sweep() {
        assert_kernel_matches_complex_reference(&case.source(), &case.label());
    }
    // 174 = 2·3·29 by 130 = 2·5·13: both of the paper tile's awkward
    // primes, and a partial last panel on both axes of the 2-D transform.
    let plate = SyntheticPlate::generate(ScanConfig::for_grid(2, 2, 174, 130, 0.2, 29));
    assert_kernel_matches_complex_reference(&SyntheticSource::new(plate), "174x130");
}

#[test]
fn kernel_matches_the_complex_reference_at_paper_tile_size() {
    let pair = SyntheticPlate::generate(ScanConfig {
        noise_sigma: 50.0,
        stage_jitter: 3.0,
        vignette: 0.03,
        ..ScanConfig::for_grid(1, 2, 1392, 1040, 0.10, 2014)
    });
    assert_kernel_matches_complex_reference(&SyntheticSource::new(pair), "1392x1040");
}

/// A source that tells the stitchers a nominal overlap of its own.
struct Told<'a>(&'a dyn TileSource, f64);

impl TileSource for Told<'_> {
    fn shape(&self) -> GridShape {
        self.0.shape()
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.0.tile_dims()
    }

    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        self.0.load(id)
    }

    fn nominal_overlap(&self) -> Option<f64> {
        Some(self.1)
    }
}

/// Runs every variant on `source` told a nominal `overlap` and checks that
/// each searches every pair within its stage window, returns the whole
/// surface's answers (`MemorySource` has no stage) and counts what the
/// others count. Returns how many pairs fell back.
fn assert_windowed_variants_match_the_whole_surface(source: &SyntheticSource, overlap: f64) -> u64 {
    let (shape, (w, h)) = (source.shape(), source.tile_dims());
    let pairs = shape.pairs() as u64;
    let tiles = shape.ids().map(|id| source.load(id).unwrap());
    let unstaged = MemorySource::new(shape, tiles.collect());
    let full = SimpleCpuStitcher::default().compute_displacements(&unstaged);
    assert_eq!(full.ops.windowed_pairs, 0);
    let plan = RealFft2d::<f32>::new(&Planner::default(), w, h);
    let told = Told(source, overlap);
    let mut first = None;
    for stitcher in stitch_testkit::variants() {
        let r = stitcher.compute_displacements(&told);
        let what = format!("{} told {overlap}", stitcher.name());
        assert_eq!((&r.west, &r.north), (&full.west, &full.north), "{what}");
        assert_eq!(r.ops.windowed_pairs, pairs, "{what}");
        // the pairs' work, whatever the schedule reads twice
        let forward = r.ops.forward_ffts * plan.real_mults(Direction::Forward);
        let (reads, forward_ffts) = (0, 0);
        let fft_real_mults = r.ops.fft_real_mults - forward;
        let ops = OpCounts {
            reads,
            forward_ffts,
            fft_real_mults,
            ..r.ops
        };
        assert_eq!(ops, *first.get_or_insert(ops), "{what}");
    }
    first.map_or(0, |ops| ops.window_fallbacks)
}

/// A 232×174 scan with a stage of the synthetic default (±3 px per tile):
/// told the scan's overlap, every variant keeps every pair's windowed
/// answer, the whole surface's. Told 35 % for the scan's 15 %, every
/// truth lies outside its window: every pair falls back, and the six
/// still return exactly the unbounded answers.
#[test]
fn every_variant_searches_the_stage_window_and_falls_back_alike() {
    let source = SyntheticSource::new(SyntheticPlate::generate(ScanConfig {
        noise_sigma: 50.0,
        stage_jitter: 3.0,
        backlash_x: 1.5,
        vignette: 0.03,
        ..ScanConfig::for_grid(2, 3, 232, 174, 0.15, 36)
    }));
    let pairs = source.shape().pairs() as u64;
    assert_eq!(
        assert_windowed_variants_match_the_whole_surface(&source, 0.15),
        0
    );
    assert_eq!(
        assert_windowed_variants_match_the_whole_surface(&source, 0.35),
        pairs
    );
}

/// A stage worse than the window assumes (±10 px per tile): three truths
/// lie one or two pixels outside their windows — (214, 4) and (180, 1)
/// against west columns 181..=213, (18, 140) against north columns
/// −16..=16. A search bounded at the window stops on its edge or on an
/// in-window maximum that correlates above 0.5; searching a margin beyond
/// the window, those pairs' winners land outside it and fall back, so
/// every variant still returns the whole surface's answers.
#[test]
fn truths_just_outside_the_window_fall_back_to_the_whole_surface() {
    let plate = SyntheticPlate::generate(ScanConfig {
        noise_sigma: 50.0,
        stage_jitter: 10.0,
        backlash_x: 1.5,
        vignette: 0.03,
        ..ScanConfig::for_grid(3, 4, 232, 174, 0.15, 1)
    });
    let outside = [(1, 1, (214, 4)), (1, 2, (180, 1))];
    for (row, col, truth) in outside {
        assert_eq!(plate.true_west_displacement(row, col), truth);
    }
    assert_eq!(plate.true_north_displacement(1, 1), (18, 140));
    let source = SyntheticSource::new(plate);
    let fallbacks = assert_windowed_variants_match_the_whole_surface(&source, 0.15);
    assert!(fallbacks >= 3, "{fallbacks} fallbacks");
}

/// A plate of paper tiles against the benchmark's optics ([`OPTICS`]):
/// overlap, stage jitter (px), colony count as a fraction of the
/// specimen's, and the specimen's texture amplitude if not its own.
#[derive(Clone, Copy)]
struct Variation {
    overlap: f64,
    jitter: f64,
    colonies: f64,
    texture: Option<f64>,
}

/// The ledger's `paper_tile` rows: 10 % overlap, ±3 px.
const OPTICS: Variation = Variation {
    overlap: 0.10,
    jitter: 3.0,
    colonies: 1.0,
    texture: None,
};

/// A 3×3 plate of paper tiles as `vary` says, scanned with `seed`; its
/// specimen is the one stitchbench builds from seed 2014 for that plate.
fn paper_plate(seed: u64, vary: Variation) -> SyntheticPlate {
    let scan = |seed| ScanConfig {
        stage_jitter: vary.jitter,
        backlash_x: 1.5,
        noise_sigma: 50.0,
        vignette: 0.03,
        ..ScanConfig::for_grid(3, 3, 1392, 1040, vary.overlap, seed)
    };
    let mut specimen = stitch_image::ChannelConfig::for_channel(&scan(2014), 0).scene;
    specimen.colony_count = (specimen.colony_count as f64 * vary.colonies).round() as usize;
    specimen.texture_amplitude = vary.texture.unwrap_or(specimen.texture_amplitude);
    SyntheticPlate::generate_with_scene(scan(seed), specimen)
}

/// The plates binning alone got wrong (DESIGN.md § PCIAM
/// "Coarse-to-fine"): a thin overlap, a stage worse than the window,
/// sparse colonies and none at all.
const COARSE_ROWS: [(&str, Variation); 4] = [
    (
        "5 % overlap",
        Variation {
            overlap: 0.05,
            ..OPTICS
        },
    ),
    (
        "±10 px",
        Variation {
            jitter: 10.0,
            ..OPTICS
        },
    ),
    (
        "colonies ×0.1",
        Variation {
            colonies: 0.1,
            ..OPTICS
        },
    ),
    (
        "colony-free, texture 60",
        Variation {
            colonies: 0.0,
            texture: Some(60.0),
            ..OPTICS
        },
    ),
];

/// Stitches `plate` with Simple-CPU, feeds each pair's `(dx, dy)` to
/// `digest` in grid order, and returns the run's counts.
fn digest_pairs(plate: SyntheticPlate, digest: &mut stitch_image::Fnv64) -> OpCounts {
    let source = SyntheticSource::new(plate);
    let result = SimpleCpuStitcher::default().compute_displacements(&source);
    let shape = source.shape();
    for id in shape.ids() {
        for d in [result.west_of(id), result.north_of(id)]
            .into_iter()
            .flatten()
        {
            digest.write_u64(d.x as u64);
            digest.write_u64(d.y as u64);
        }
    }
    result.ops
}

/// The coarse search on the plates where binning alone went wrong: a
/// thin overlap, a stage worse than the window, sparse colonies and no
/// colonies at all. Every displacement is the full-resolution path's —
/// the digest was taken from a build without the coarse search — and the
/// doubtful pairs that prove it are there: redone on the last three
/// kinds, none at the benchmark's optics.
#[test]
fn coarse_search_moves_no_displacement() {
    const FULL_RESOLUTION_DIGEST: u64 = 0x16a3_deca_6ce5_d3bf;
    let mut digest = stitch_image::Fnv64::new();
    for (i, (name, vary)) in COARSE_ROWS.into_iter().enumerate() {
        let mut redone = 0;
        for seed in [6042, 6043] {
            let ops = digest_pairs(paper_plate(seed, vary), &mut digest);
            assert_eq!(ops.coarse_pairs, 12, "{name} / {seed}");
            redone += ops.coarse_fallbacks;
        }
        assert!(i == 0 || redone > 0, "{name}: no pair redone");
    }
    assert_eq!(
        digest.finish(),
        FULL_RESOLUTION_DIGEST,
        "{:016x}",
        digest.finish()
    );
    let ops = digest_pairs(paper_plate(6044, OPTICS), &mut stitch_image::Fnv64::new());
    assert_eq!((ops.coarse_pairs, ops.coarse_fallbacks), (12, 0));
}

/// The census behind the coarse search (EXPERIMENTS.md "Coarse-to-fine"):
/// per row of eight 3×3 paper plates, the pairs, how many were redone at
/// full resolution, and the FNV digest of every pair's `(dx, dy)` — diff
/// the digests against a build without the coarse search to see whether
/// any displacement moved.
///
/// `cargo test --release --test conformance -- --ignored --nocapture coarse_census`
#[test]
#[ignore = "minutes in release"]
fn coarse_census() {
    let mut rows: Vec<(String, Variation, std::ops::Range<u64>)> = Vec::new();
    for overlap in [0.04, 0.05, 0.075, 0.10, 0.15, 0.20] {
        let name = format!("{:.1} % overlap", overlap * 100.0);
        rows.push((name, Variation { overlap, ..OPTICS }, 6042..6050));
    }
    for jitter in [8.0, 10.0, 12.0] {
        let name = format!("±{jitter} px");
        rows.push((name, Variation { jitter, ..OPTICS }, 6042..6050));
    }
    for colonies in [0.25, 0.1] {
        let name = format!("colonies ×{colonies}");
        rows.push((name, Variation { colonies, ..OPTICS }, 6042..6050));
    }
    for texture in [60.0, 30.0] {
        let name = format!("colony-free, texture {texture}");
        let vary = Variation {
            colonies: 0.0,
            texture: Some(texture),
            ..OPTICS
        };
        rows.push((name, vary, 6042..6050));
    }
    rows.push(("10.0 % overlap, 12 more scans".into(), OPTICS, 6050..6062));
    println!("row\tpairs\tredone\tdxdy_fnv");
    for (name, vary, seeds) in rows {
        let (mut digest, mut pairs, mut redone) = (stitch_image::Fnv64::new(), 0, 0);
        for seed in seeds {
            let ops = digest_pairs(paper_plate(seed, vary), &mut digest);
            (pairs, redone) = (pairs + ops.coarse_pairs, redone + ops.coarse_fallbacks);
        }
        println!("{name}\t{pairs}\t{redone}\t{:016x}", digest.finish());
    }
}

#[test]
fn all_variants_bit_identical_across_sweep() {
    let cases = sweep();
    assert!(cases.len() >= 12, "sweep shrank below the acceptance floor");
    assert!(
        cases.iter().any(|c| c.has_prime_dim()),
        "sweep lost its prime-tile (Bluestein) coverage"
    );
    let mut failures = Vec::new();
    for case in &cases {
        let report = run_case(case);
        assert_eq!(report.ran.len(), 6, "{}", report.label);
        // Cross-variant agreement is the hard invariant. Truth recovery
        // is asserted separately below on well-conditioned cases.
        if !report.is_clean() {
            failures.push(report);
        }
    }
    assert!(
        failures.is_empty(),
        "variant divergence in {} of {} cases:\n{}",
        failures.len(),
        cases.len(),
        failures
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn well_conditioned_cases_also_match_ground_truth() {
    // Generous overlap, moderate noise: phase 1 should nail every pair
    // and phase 2 must land every tile exactly. (Thin-overlap and
    // high-noise sweep cases may legitimately miss a featureless pair —
    // identically in all variants — so truth is only asserted here.)
    for case in sweep()
        .into_iter()
        .filter(|c| c.overlap >= 0.25 && c.noise_sigma <= 40.0)
    {
        let report = run_case(&case);
        assert!(report.is_clean(), "{report}");
        assert!(
            report.measured.errors <= 2,
            "phase-1 truth errors ({}) out of line: {report}",
            report.measured.errors
        );
        assert_eq!(
            report.measured.position_deviation,
            (0, 0),
            "phase 2 must recover exact positions: {report}"
        );
    }
}

#[test]
fn stress_runner_is_reproducible() {
    for seed in [1u64, 2026] {
        let a = run_stress(seed);
        let b = run_stress(seed);
        assert_eq!(a, b, "seed {seed}: same seed must give identical outcome");
        assert!(
            a.cpu_gpu_agree(),
            "seed {seed}: pipelined CPU and GPU diverged under stress\ncpu west {:?}\ngpu west {:?}",
            a.cpu_west,
            a.gpu_west
        );
    }
}

/// What [`all_variants_bit_identical_across_sweep`] cannot see: the CCF
/// work counters are a pure function of the tiles, so they repeat exactly
/// between runs and across the six variants, and the disambiguation stays
/// within a fixed number of whole-tile scans per pair (it was ~250 when
/// every candidate was hill-climbed; see DESIGN.md § PCIAM). Likewise the
/// FFT work: every variant's multiplication count is exactly its transform
/// counts times the plan-time cost of one transform.
#[test]
fn ccf_work_is_bounded_and_repeats_exactly_across_variants() {
    const MAX_TILE_SCANS_PER_PAIR: f64 = 64.0;
    let planner = Planner::new(PlanMode::Estimate);
    for case in sweep() {
        let source = case.source();
        let plan = RealFft2d::<f32>::new(&planner, case.tile_width, case.tile_height);
        let (fwd, inv) = (Direction::Forward, Direction::Inverse);
        let counts = |stitcher: &dyn Stitcher| {
            let ops = stitcher.compute_displacements(&source).ops;
            let mults =
                ops.forward_ffts * plan.real_mults(fwd) + ops.inverse_ffts * plan.real_mults(inv);
            assert_eq!(
                ops.fft_real_mults,
                mults,
                "{}: {}",
                case.label(),
                stitcher.name()
            );
            (ops.ccf_groups, ops.ccf_probes, ops.ccf_pixels)
        };
        let all = stitch_testkit::variants();
        let (groups, probes, pixels) = counts(all[0].as_ref());
        assert_eq!(groups as usize, source.shape().pairs(), "{}", case.label());
        for stitcher in &all {
            let got = counts(stitcher.as_ref());
            let name = stitcher.name();
            assert_eq!(got, (groups, probes, pixels), "{}: {name}", case.label());
        }
        let tile = (case.tile_width * case.tile_height) as f64;
        let scans = pixels as f64 / groups as f64 / tile;
        assert!(
            probes > 0 && scans <= MAX_TILE_SCANS_PER_PAIR,
            "{}: {scans:.1} tile scans per pair",
            case.label()
        );
    }
}

/// The paper's tile is the size whose primes (29, 13) the FFT engine is
/// built around: one forward transform stays under 48 real
/// multiplications per pixel (the table-driven `p × p` butterflies this
/// engine replaced cost ≈ 107), on every host — it is a plan-time count.
#[test]
fn paper_tile_forward_fft_costs_at_most_48_multiplies_per_pixel() {
    let plan = RealFft2d::<f32>::new(&Planner::new(PlanMode::Estimate), 1392, 1040);
    let per_px = plan.real_mults(Direction::Forward) as f64 / (1392.0 * 1040.0);
    assert!(per_px <= 48.0, "{per_px:.1} real multiplies per pixel");
}

/// The census behind the CCF refinement gate (DESIGN.md § PCIAM,
/// EXPERIMENTS.md "Known deviations" #3): every pair of six scans of each
/// stitchbench geometry is resolved by an independent, memo-free
/// re-implementation of the search under each candidate gate, and by the
/// kernel. Prints, per geometry and scan, the pixel cost in whole-tile
/// scans per pair and how many pairs each gate moves right→wrong /
/// wrong→right against the stage truth, relative to climbing everything.
/// The kernel must be the `c<.5|>=2%` column pair for pair; on the
/// geometries with a workable overlap it may not lose a single pair and
/// must stay the stated factor under climb-all. The thin-overlap
/// geometries are printed, not gated (ROADMAP 5(a)/8).
///
/// `cargo test --release --test conformance -- --ignored --nocapture census`
#[test]
#[ignore = "minutes in debug; the CI conformance job runs it in release"]
fn ccf_gate_census() {
    use census::*;
    let geometries = [
        // name, rows, cols, tile, overlap, vignette, gated: fewest times cheaper
        ("dense_grid", 28, 40, (96, 72), 0.25, 0.03, Some(10.0)),
        ("shard_canvas", 12, 16, (256, 192), 0.15, 0.03, Some(6.0)),
        ("channel_replay", 5, 6, (232, 174), 0.15, 0.3, Some(6.0)),
        ("paper_tile", 3, 3, (1392, 1040), 0.10, 0.03, Some(10.0)),
        ("thin 64x48@10%", 12, 16, (64, 48), 0.10, 0.03, None),
        ("serve_mix", 4, 6, (64, 48), 0.10, 0.03, None),
    ];
    println!("tile scans per pair, then right→wrong/wrong→right against climb-all");
    println!(
        "{:<15}{:>5}{:>6}{:>6} |{:>10}{:>10}{:>8} |{}",
        "geometry",
        "seed",
        "pairs",
        "wrong",
        "climb-all",
        "memo-only",
        "kernel",
        GATES
            .iter()
            .map(|(name, _)| format!("{name:>16}"))
            .collect::<String>()
    );
    let mut failures = Vec::new();
    for (name, rows, cols, (tw, th), overlap, vignette, gated) in geometries {
        let scan = |seed| ScanConfig {
            stage_jitter: 3.0,
            backlash_x: 1.5,
            noise_sigma: 50.0,
            vignette,
            ..ScanConfig::for_grid(rows, cols, tw, th, overlap, seed)
        };
        // stitchbench's plates: one specimen, the seed drives the scan
        // (serve_mix jobs render their own plate per seed)
        let specimen = stitch_image::ChannelConfig::for_channel(&scan(2014), 0).scene;
        for seed in 6042..6048 {
            let plate = if name == "serve_mix" {
                SyntheticPlate::generate(scan(seed))
            } else {
                SyntheticPlate::generate_with_scene(scan(seed), specimen.clone())
            };
            let row = census_of(plate);
            println!(
                "{name:<15}{seed:>5}{:>6}{:>6} |{:>10.1}{:>10.1}{:>8.1} |{}",
                row.pairs,
                row.wrong_climb_all,
                row.scans_climb_all,
                row.scans_memo_only,
                row.scans_kernel,
                row.gates
                    .iter()
                    .map(|g| format!(
                        "{:>8.1} {:>3}/{:<3}",
                        g.scans, g.right_to_wrong, g.wrong_to_right
                    ))
                    .collect::<String>()
            );
            assert_eq!(row.kernel_differs_from_its_gate, 0, "{name} seed {seed}");
            let Some(factor) = gated else { continue };
            let lost = row.gates[KERNEL_GATE].right_to_wrong;
            if lost > 0 {
                failures.push(format!("{name} seed {seed}: {lost} pairs right→wrong"));
            }
            if row.scans_kernel * factor > row.scans_climb_all {
                failures.push(format!("{name} seed {seed}: under {factor}x cheaper"));
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The precision census and the truth ledger (ROADMAP 5(b), first cut).
/// Every pair of every row is resolved by the product — Simple-CPU, whose
/// kernel runs in single precision — and by the [`f64_reference`] kernel
/// with the same CCF stage; not one displacement may differ. Each row's
/// accuracy against the stage truth — pairs off the truth, and the worst
/// solved position error — may not be worse than `tests/golden/ledger.tsv`,
/// which holds what the double-precision kernel scored. A last column,
/// printed only, digests every pair's integer `(dx, dy)`, so two builds'
/// runs show at a glance whether any displacement moved. Rows: three
/// stitchbench scans of each benchmark geometry (75 `serve_mix` plates in
/// one row), and 25 / 15 / 10 % overlap at 96×72 and 232×174. Prints the
/// rows in the golden's format.
///
/// `cargo test --release --test conformance -- --ignored --nocapture precision_census`
#[test]
#[ignore = "minutes in debug; the CI conformance job runs it in release"]
fn precision_census_and_truth_ledger() {
    let golden: Vec<Vec<&str>> = include_str!("golden/ledger.tsv")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
        .collect();
    println!("{}\tdxdy_fnv", golden[0].join("\t"));
    let (mut failures, mut pairs, mut differing) = (Vec::new(), 0, 0);
    for (name, plates) in ledger::rows() {
        let row = ledger::measure(plates);
        (pairs, differing) = (pairs + row.pairs, differing + row.differing);
        let line = format!(
            "{name}\t{}\t{}\t{:.4}\t{}",
            row.pairs,
            row.wrong,
            row.wrong as f64 / row.pairs as f64,
            row.max_err_px
        );
        println!("{line}\t{:016x}", row.digest.finish());
        if row.differing > 0 {
            failures.push(format!(
                "{name}: {} pairs differ from the f64 kernel",
                row.differing
            ));
        }
        let ledger = golden.iter().find(|g| g[0] == name);
        let no_worse = ledger.is_some_and(|g| {
            g[1] == row.pairs.to_string()
                && row.wrong <= g[2].parse().unwrap()
                && row.max_err_px <= g[4].parse().unwrap()
        });
        if !no_worse {
            failures.push(format!("{line} against the ledger's {ledger:?}"));
        }
    }
    println!("# census: {differing} of {pairs} displacements differ from the f64 kernel");
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The rows of [`precision_census_and_truth_ledger`] and their outcome.
mod ledger {
    use super::f64_reference;
    use stitch_core::pciam::{resolve_peaks_oriented, DEFAULT_PEAK_COUNT};
    use stitch_core::{
        truth_vectors, GlobalOptimizer, PairKind, SimpleCpuStitcher, Stitcher, SyntheticSource,
        TileSource,
    };
    use stitch_fft::{PlanMode, Planner};
    use stitch_image::{ChannelConfig, Fnv64, Image, ScanConfig, SyntheticPlate};

    /// The benchmark's three default scans (`--seed 2014`).
    const SCANS: std::ops::Range<u64> = 6042..6045;

    /// Each row's name and plates, built as stitchbench builds them: the
    /// benchmark's optics, one specimen whose scan the seed drives
    /// (`serve_mix` jobs render a plate of their own per seed).
    pub fn rows() -> Vec<(String, Vec<SyntheticPlate>)> {
        let geometries = [
            // name, rows, cols, tile, overlap, vignette
            ("dense_grid", 28, 40, (96, 72), 0.25, 0.03),
            ("shard_canvas", 12, 16, (256, 192), 0.15, 0.03),
            ("channel_replay", 5, 6, (232, 174), 0.15, 0.3),
            ("paper_tile", 3, 3, (1392, 1040), 0.10, 0.03),
            ("sweep_96x72@25%", 8, 10, (96, 72), 0.25, 0.03),
            ("sweep_96x72@15%", 8, 10, (96, 72), 0.15, 0.03),
            ("sweep_96x72@10%", 8, 10, (96, 72), 0.10, 0.03),
            ("sweep_232x174@25%", 4, 5, (232, 174), 0.25, 0.03),
            ("sweep_232x174@15%", 4, 5, (232, 174), 0.15, 0.03),
            ("sweep_232x174@10%", 4, 5, (232, 174), 0.10, 0.03),
        ];
        let scan = |(rows, cols, (tw, th), overlap, vignette), seed| ScanConfig {
            stage_jitter: 3.0,
            backlash_x: 1.5,
            noise_sigma: 50.0,
            vignette,
            ..ScanConfig::for_grid(rows, cols, tw, th, overlap, seed)
        };
        let mut out = Vec::new();
        for (name, rows, cols, tile, overlap, vignette) in geometries {
            let shape = (rows, cols, tile, overlap, vignette);
            let specimen = ChannelConfig::for_channel(&scan(shape, 2014), 0).scene;
            for seed in SCANS {
                let plate =
                    SyntheticPlate::generate_with_scene(scan(shape, seed), specimen.clone());
                out.push((format!("{name}/{seed}"), vec![plate]));
            }
        }
        let serve = (4, 6, (64, 48), 0.10, 0.03);
        let plates =
            (SCANS.start..SCANS.start + 75).map(|seed| SyntheticPlate::generate(scan(serve, seed)));
        out.push(("serve_mix/75_plates".to_string(), plates.collect()));
        out
    }

    #[derive(Default)]
    pub struct Outcome {
        pub pairs: usize,
        /// Pairs off the stage truth.
        pub wrong: usize,
        /// Worst solved position error against the stage truth, px.
        pub max_err_px: i64,
        /// Pairs whose displacement differs from the `f64` kernel's.
        pub differing: usize,
        /// Every pair's product `(dx, dy)`, in grid order.
        pub digest: Fnv64,
    }

    pub fn measure(plates: Vec<SyntheticPlate>) -> Outcome {
        let planner = Planner::new(PlanMode::Estimate);
        let mut out = Outcome::default();
        for plate in plates {
            let (truth_west, truth_north) = truth_vectors(&plate);
            let truth = plate.positions().to_vec();
            let source = SyntheticSource::new(plate);
            let (shape, (w, h)) = (source.shape(), source.tile_dims());
            let result = SimpleCpuStitcher::default().compute_displacements(&source);
            out.pairs += shape.pairs();
            out.wrong += result.count_errors(&truth_west, &truth_north, 0);
            let (dx, dy) = GlobalOptimizer::default()
                .solve(&result)
                .max_deviation(&truth);
            out.max_err_px = out.max_err_px.max(dx.max(dy));
            let tiles: Vec<Image<u16>> = shape.ids().map(|id| source.load(id).unwrap()).collect();
            for id in shape.ids() {
                let pairs = [
                    (shape.west(id), PairKind::West, result.west_of(id)),
                    (shape.north(id), PairKind::North, result.north_of(id)),
                ];
                for (neighbour, kind, product) in pairs {
                    let Some(neighbour) = neighbour else { continue };
                    let (dx, dy) = product.map_or((i64::MIN, i64::MIN), |d| (d.x, d.y));
                    out.digest.write_u64(dx as u64);
                    out.digest.write_u64(dy as u64);
                    let (a, b) = (&tiles[shape.index(neighbour)], &tiles[shape.index(id)]);
                    let peaks = f64_reference::peaks(&planner, a, b, DEFAULT_PEAK_COUNT);
                    let reference = resolve_peaks_oriented(&peaks, w, h, a, b, Some(kind));
                    out.differing += usize::from(product != Some(reference));
                }
            }
        }
        out
    }
}

/// The reference search of [`ccf_gate_census`]: candidates, t-statistic,
/// steepest-ascent climb and gate written again from the public probe
/// primitive, sharing nothing with the kernel's scorer or its memo table.
mod census {
    use std::collections::HashMap;

    use stitch_core::pciam::{ccf_at, overlap_pixels, peak_candidates, DEFAULT_PEAK_COUNT};
    use stitch_core::{
        truth_vectors, Displacement, OpCounters, PairKind, PciamContext, SyntheticSource,
        TileSource,
    };
    use stitch_fft::{PlanMode, Planner};
    use stitch_image::{Image, SyntheticPlate};

    /// Which candidates after the leader are hill-climbed, given the
    /// candidate's initial significance and the best refined one so far.
    pub type Gate = fn(f64, f64, f64) -> bool;

    pub const GATES: [(&str, Gate); 8] = [
        ("s0>0", |s0, _, _| s0 > 0.0),
        ("s0>0,>=2%", |s0, leader, _| s0 > 0.0 && s0 >= 0.02 * leader),
        ("s0>0,>=5%", |s0, leader, _| s0 > 0.0 && s0 >= 0.05 * leader),
        ("c<.3|>=2%", |s0, leader, c| c < 0.3 || s0 >= 0.02 * leader),
        ("c<.5|>=2%", |s0, leader, c| c < 0.5 || s0 >= 0.02 * leader),
        ("c<.7|>=2%", |s0, leader, c| c < 0.7 || s0 >= 0.02 * leader),
        ("c<.5|>=5%", |s0, leader, c| c < 0.5 || s0 >= 0.05 * leader),
        ("top-1", |_, _, _| false),
    ];
    /// Index in [`GATES`] of the rule the kernel implements.
    pub const KERNEL_GATE: usize = 4;

    #[derive(Default)]
    pub struct GateRow {
        pub scans: f64,
        pub right_to_wrong: usize,
        pub wrong_to_right: usize,
    }

    #[derive(Default)]
    pub struct Row {
        pub pairs: usize,
        pub wrong_climb_all: usize,
        pub scans_climb_all: f64,
        pub scans_memo_only: f64,
        pub scans_kernel: f64,
        pub gates: Vec<GateRow>,
        pub kernel_differs_from_its_gate: usize,
    }

    struct Probe<'a> {
        a: &'a Image<u16>,
        b: &'a Image<u16>,
        kind: PairKind,
        seen: HashMap<(i64, i64), f64>,
        /// Pixels visited with and without sharing repeated cells.
        pixels_shared: u64,
        pixels_unshared: u64,
    }

    impl Probe<'_> {
        fn score(&mut self, dx: i64, dy: i64) -> Option<(f64, Displacement)> {
            let legal = match self.kind {
                PairKind::West => dx >= 1,
                PairKind::North => dy >= 1,
            };
            if !legal {
                return None;
            }
            let (w, h) = self.a.dims();
            let n = overlap_pixels(w, h, dx, dy);
            let ccf = match self.seen.get(&(dx, dy)) {
                Some(&ccf) => ccf,
                None => {
                    let ccf = ccf_at(self.a, self.b, dx, dy)?;
                    self.seen.insert((dx, dy), ccf);
                    self.pixels_shared += n as u64;
                    ccf
                }
            };
            self.pixels_unshared += n as u64;
            let t = ccf * (n as f64 - 2.0).sqrt() / (1.0 - ccf * ccf).max(1e-9).sqrt();
            Some((t, Displacement::new(dx, dy, ccf)))
        }

        fn climb(&mut self, mut best: (f64, Displacement)) -> (f64, Displacement) {
            for _ in 0..8 {
                let center = best.1;
                for sy in -2..=2 {
                    for sx in -2..=2 {
                        if (sx, sy) == (0, 0) {
                            continue;
                        }
                        match self.score(center.x + sx, center.y + sy) {
                            Some(cand) if cand.0 > best.0 => best = cand,
                            _ => {}
                        }
                    }
                }
                if (best.1.x, best.1.y) == (center.x, center.y) {
                    break;
                }
            }
            best
        }

        fn resolve(&mut self, peaks: &[usize], gate: Option<Gate>) -> Displacement {
            let (w, h) = self.a.dims();
            let mut scored: Vec<_> = peaks
                .iter()
                .flat_map(|&p| peak_candidates(p, (w, h), 1))
                .filter_map(|(dx, dy)| self.score(dx, dy))
                .collect();
            scored.sort_by(|(sa, da), (sb, db)| {
                sb.total_cmp(sa).then((da.x, da.y).cmp(&(db.x, db.y)))
            });
            scored.dedup_by_key(|(_, d)| (d.x, d.y));
            let mut best: Option<(f64, Displacement)> = None;
            for cand in scored {
                if let (Some((leader, ld)), Some(gate)) = (best, gate) {
                    if !gate(cand.0, leader, ld.correlation) {
                        continue;
                    }
                }
                let refined = self.climb(cand);
                if best.is_none_or(|(leader, _)| refined.0 > leader) {
                    best = Some(refined);
                }
            }
            best.expect("census tiles always overlap").1
        }
    }

    /// Resolves every pair of `plate` under climb-all, each gate and the
    /// kernel, against the stage truth.
    pub fn census_of(plate: SyntheticPlate) -> Row {
        let (truth_west, truth_north) = truth_vectors(&plate);
        let (w, h) = (plate.config.tile_width, plate.config.tile_height);
        let source = SyntheticSource::new(plate);
        let shape = source.shape();
        let counters = OpCounters::new_shared();
        let planner = Planner::new(PlanMode::Estimate);
        let mut ctx = PciamContext::new(&planner, w, h, counters.clone());
        let tiles: Vec<Image<u16>> = shape.ids().map(|id| source.load(id).unwrap()).collect();
        let spectra: Vec<_> = tiles.iter().map(|t| ctx.forward_fft(t)).collect();
        let mut row = Row {
            gates: GATES.iter().map(|_| GateRow::default()).collect(),
            ..Row::default()
        };
        let mut gate_pixels = [0u64; GATES.len()];
        let (mut all_shared, mut all_unshared) = (0u64, 0u64);
        for id in shape.ids() {
            let i = shape.index(id);
            let pairs = [
                (shape.west(id), PairKind::West, truth_west[i]),
                (shape.north(id), PairKind::North, truth_north[i]),
            ];
            for (neighbour, kind, truth) in pairs {
                let Some(neighbour) = neighbour else { continue };
                let (ia, ib) = (shape.index(neighbour), i);
                let (a, b) = (&tiles[ia], &tiles[ib]);
                let truth = truth.expect("interior pair has a truth");
                let right = |d: Displacement| (d.x, d.y) == truth;
                let peaks: Vec<usize> = ctx
                    .correlation_peaks(&spectra[ia], &spectra[ib], DEFAULT_PEAK_COUNT)
                    .iter()
                    .map(|&(i, _)| i)
                    .collect();
                let probe = || Probe {
                    a,
                    b,
                    kind,
                    seen: HashMap::new(),
                    pixels_shared: 0,
                    pixels_unshared: 0,
                };
                row.pairs += 1;
                let mut all = probe();
                let base = right(all.resolve(&peaks, None));
                row.wrong_climb_all += usize::from(!base);
                all_shared += all.pixels_shared;
                all_unshared += all.pixels_unshared;
                let kernel =
                    ctx.displacement_oriented(&spectra[ia], &spectra[ib], a, b, Some(kind));
                for (g, (_, gate)) in GATES.iter().enumerate() {
                    let mut p = probe();
                    let d = p.resolve(&peaks, Some(*gate));
                    gate_pixels[g] += p.pixels_shared;
                    row.gates[g].right_to_wrong += usize::from(base && !right(d));
                    row.gates[g].wrong_to_right += usize::from(!base && right(d));
                    if g == KERNEL_GATE {
                        row.kernel_differs_from_its_gate += usize::from(d != kernel);
                    }
                }
            }
        }
        let per_pair = |pixels: u64| pixels as f64 / row.pairs as f64 / (w * h) as f64;
        row.scans_climb_all = per_pair(all_unshared);
        row.scans_memo_only = per_pair(all_shared);
        row.scans_kernel = per_pair(counters.snapshot().ccf_pixels);
        for (g, pixels) in gate_pixels.into_iter().enumerate() {
            row.gates[g].scans = per_pair(pixels);
        }
        row
    }
}
