//! The double-precision reference the single-precision kernel is held to:
//! PCIAM steps 2–7 of one pair — forward transforms, NCC, inverse, top-k —
//! from public pieces only: the `f64` real transform, the scalar NCC and
//! the peak reduction. It shares the FFT engine's source with the product
//! but none of its buffers, its precision or `PciamContext`, so a
//! disagreement is the precision's doing.

use stitch_fft::vectorops::{ncc_scalar, top_peaks_into};
use stitch_fft::{Planner, RealFft2d, RowBand, C64};
use stitch_image::Image;

/// The top-`k` correlation peaks of the pair `(a, b)`, strongest first, as
/// flat indices into the `w × h` surface.
pub fn peaks(planner: &Planner, a: &Image<u16>, b: &Image<u16>, k: usize) -> Vec<usize> {
    let (w, h) = a.dims();
    let plan = RealFft2d::<f64>::new(planner, w, h);
    let spectrum = |img: &Image<u16>| {
        let real: Vec<f64> = img.pixels().iter().map(|&p| f64::from(p)).collect();
        let mut s = vec![C64::ZERO; plan.spectrum_len()];
        plan.forward(&real, &mut s);
        s
    };
    let mut ncc = vec![C64::ZERO; plan.spectrum_len()];
    ncc_scalar(&spectrum(a), &spectrum(b), &mut ncc);
    let mut surface = vec![0.0; w * h];
    plan.inverse(&mut ncc, &mut surface);
    let (mut cand, mut peaks) = (Vec::new(), Vec::new());
    top_peaks_into(
        &surface,
        w,
        RowBand::all(h),
        k,
        f64::abs,
        &mut cand,
        &mut peaks,
    );
    peaks.into_iter().map(|(i, _)| i).collect()
}
