//! §IV-A / §VI-A ablations, measured for real on this host:
//!
//! 1. **FFT planning modes** — estimate vs measure vs patient (§IV-A:
//!    patient gave ~2× execution improvement over estimate on their
//!    tiles, with minutes of planning cost amortized over thousands of
//!    transforms);
//! 2. **Tile padding** — §VI-A future work: "padding image tiles (or
//!    trimming them) to have smaller prime factors ... is known to
//!    enhance the performance of FFTW and cuFFT";
//! 3. **Real-to-complex transforms** — §VI-A future work: "will further
//!    improve performance by doing less work" (the transform every
//!    stitcher now runs on; both stay in `stitch-fft` as a library);
//! 4. **Traversal orders** — §IV-A: chained-diagonal frees memory
//!    earliest (peak-live-transform comparison).
//!
//! ```text
//! cargo run --release -p stitch-bench --bin ablation [-- --full]
//! ```

use std::time::Instant;

use stitch_bench::{full_scale, ResultTable};
use stitch_core::grid::{GridShape, Traversal};
use stitch_fft::{c64, factor, Fft2d, PlanMode, Planner, RealFft2d, C64};

fn time_fft2d(planner: &Planner, w: usize, h: usize, reps: usize) -> (f64, u128) {
    let mut data: Vec<C64> = (0..w * h).map(|k| c64((k % 251) as f64, 0.0)).collect();
    let mut scratch = vec![C64::ZERO; w * h];
    let fft = Fft2d::new(planner, w, h, stitch_fft::Direction::Forward);
    let t0 = Instant::now();
    for _ in 0..reps {
        fft.process(&mut data, &mut scratch);
    }
    (
        t0.elapsed().as_secs_f64() / reps as f64 * 1e3,
        planner.planning_nanos(),
    )
}

fn main() {
    let (w, h, reps) = if full_scale() {
        (1392, 1040, 3)
    } else {
        (348, 260, 10)
    };

    // 1. planning modes
    let mut t = ResultTable::new(
        "ablation_planning",
        &format!("FFT planning modes, {w}x{h} transforms"),
        &["mode", "exec ms/transform", "planning cost"],
    );
    for (name, mode) in [
        ("estimate", PlanMode::Estimate),
        ("measure", PlanMode::Measure),
        ("patient", PlanMode::Patient),
    ] {
        let planner = Planner::new(mode);
        let (ms, plan_ns) = time_fft2d(&planner, w, h, reps);
        t.row(
            name,
            &[format!("{ms:.2}"), format!("{:.1}ms", plan_ns as f64 / 1e6)],
        );
    }
    t.note("paper: patient mode ~2x faster execution than estimate for their tiles,");
    t.note("plan cost amortized over thousands of transforms");
    t.emit();

    // 2. padding to 7-smooth sizes
    let planner = Planner::new(PlanMode::Estimate);
    let (pw, ph) = (factor::next_smooth(w), factor::next_smooth(h));
    let (p2w, p2h) = (w.next_power_of_two(), h.next_power_of_two());
    let mut p = ResultTable::new(
        "ablation_padding",
        "tile padding ablation (§VI-A future work)",
        &["size", "factors", "exec ms/transform", "px overhead"],
    );
    for (label, cw, ch) in [
        ("native", w, h),
        ("7-smooth pad", pw, ph),
        ("pow2 pad", p2w, p2h),
    ] {
        let (ms, _) = time_fft2d(&planner, cw, ch, reps);
        let overhead = (cw * ch) as f64 / (w * h) as f64 - 1.0;
        p.row(
            format!("{label} {cw}x{ch}"),
            &[
                format!("{:?}x{:?}", factor::factorize(cw), factor::factorize(ch)),
                format!("{ms:.2}"),
                format!("{:+.1}%", overhead * 100.0),
            ],
        );
    }
    p.note("padding trades a few % more pixels for friendlier radix schedules");
    p.emit();

    // 3. real-to-complex vs complex
    let mut r = ResultTable::new(
        "ablation_r2c",
        "real-to-complex vs complex transforms (§VI-A future work)",
        &["path", "exec ms/transform", "spectrum bytes"],
    );
    {
        let (ms, _) = time_fft2d(&planner, w, h, reps);
        r.row(
            "complex-to-complex",
            &[format!("{ms:.2}"), format!("{}", w * h * 16)],
        );
        let real = RealFft2d::new(&planner, w, h);
        let input: Vec<f64> = (0..w * h).map(|k| (k % 251) as f64).collect();
        let mut spec = vec![C64::ZERO; real.spectrum_len()];
        let t0 = Instant::now();
        for _ in 0..reps {
            real.forward(&input, &mut spec);
        }
        let ms = t0.elapsed().as_secs_f64() / reps as f64 * 1e3;
        r.row(
            "real-to-complex",
            &[format!("{ms:.2}"), format!("{}", real.spectrum_len() * 16)],
        );
    }
    r.note("r2c halves the spectrum memory footprint (the paper's stated second win)");
    r.emit();

    // 4. traversal orders: peak live transforms
    let shape = GridShape::new(42, 59);
    let mut o = ResultTable::new(
        "ablation_traversal",
        "traversal orders: peak live transforms on a 42x59 grid (§IV-A)",
        &["order", "peak live tiles", "RAM at 23MB/transform"],
    );
    for tr in Traversal::ALL {
        let peak = tr.peak_live(shape);
        o.row(
            format!("{tr:?}"),
            &[
                peak.to_string(),
                format!("{:.1} GB", peak as f64 * 23.2e6 / 1e9),
            ],
        );
    }
    o.note("chained-diagonal frees memory earliest — the paper's default");
    o.emit();
}
