//! Built-in device kernels used by the stitching computation.
//!
//! These are the simulation's counterparts of the paper's custom CUDA
//! kernels (§IV-A): the cuFFT 2-D transform, the normalized-correlation
//! element-wise kernel, and the Harris-style max reduction that returns
//! only its index scalar ("minimizes transfers from device to host memory
//! by only copying the result of the parallel reduction"). They run the
//! host's single-precision kernel on device buffers (`C32` spectra, `f32`
//! surfaces), so every variant computes the same bits; the simulator's
//! cost model still prices the paper's double-precision device.

use std::ops::Deref;
use std::sync::Arc;

use stitch_fft::vectorops::top_peaks_into;
use stitch_fft::{RealFft2d, RowBand, C32};

use crate::memory::DeviceBuffer;
use crate::profile::SpanKind;
use crate::stream::{HostFuture, Stream};

/// Result of the on-device max-|·| reduction: flat index and magnitude.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaxLoc {
    /// Flat row-major index of the maximum element.
    pub index: usize,
    /// Magnitude of that element.
    pub value: f64,
}

impl Stream {
    /// Kernel: forward real-input 2-D FFT of a `u16` tile at `1/factor`
    /// of its resolution. Bins `staging` ([`stitch_fft::bin_into`]) into
    /// the `width × height` workspace `real` of `plan` and transforms that
    /// into the half spectrum `out` (`plan.spectrum_len()` bins). Flagged
    /// as an FFT so the device's Fermi serialization applies. Build `plan`
    /// from the device's plan cache ([`crate::Device::planner`]).
    ///
    /// `staging` is held until the kernel has executed, so a pooled lease
    /// handed over here returns to its pool only once it has been read.
    pub fn fft2d_forward(
        &self,
        (plan, factor): (&Arc<RealFft2d<f32>>, usize),
        staging: impl Deref<Target = DeviceBuffer<u16>> + Send + 'static,
        real: &DeviceBuffer<f32>,
        out: &DeviceBuffer<C32>,
    ) {
        let n = plan.width() * plan.height();
        let tile = n * factor * factor;
        assert!(staging.len() >= tile, "fft2d_forward staging too small");
        assert!(real.len() >= n, "fft2d_forward workspace too small");
        assert!(
            out.len() >= plan.spectrum_len(),
            "fft2d_forward output too small"
        );
        let (plan, real, out) = (Arc::clone(plan), real.clone(), out.clone());
        self.enqueue(SpanKind::Kernel, true, "fft2d_fwd", 0, move |tok| {
            staging.map(tok, |s| {
                real.map(tok, |r| {
                    let width = plan.width() * factor;
                    stitch_fft::bin_into(&s[..tile], width, factor, &mut r[..n]);
                    out.map(tok, |o| {
                        plan.forward(&r[..n], &mut o[..plan.spectrum_len()])
                    });
                });
            });
        });
    }

    /// Kernel: inverse 2-D FFT of the half spectrum `spectrum` (consumed:
    /// the transform works in it) onto the rows of `band` of the real
    /// `width × height` surface `surface` ([`RealFft2d::inverse_band`]).
    /// Flagged as an FFT, like [`Stream::fft2d_forward`].
    pub fn fft2d_inverse(
        &self,
        plan: &Arc<RealFft2d<f32>>,
        spectrum: &DeviceBuffer<C32>,
        surface: &DeviceBuffer<f32>,
        band: RowBand,
    ) {
        let n = plan.width() * plan.height();
        assert!(
            spectrum.len() >= plan.spectrum_len(),
            "fft2d_inverse input too small"
        );
        assert!(surface.len() >= n, "fft2d_inverse surface too small");
        let (plan, spectrum, surface) = (Arc::clone(plan), spectrum.clone(), surface.clone());
        self.enqueue(SpanKind::Kernel, true, "fft2d_inv", 0, move |tok| {
            spectrum.map(tok, |s| {
                surface.map(tok, |o| {
                    plan.inverse_band(&mut s[..plan.spectrum_len()], &mut o[..n], band)
                });
            });
        });
    }

    /// Kernel: element-wise normalized conjugate multiplication,
    /// `out[i] = (a[i]·conj(b[i])) / |a[i]·conj(b[i])|` (paper Fig 2,
    /// steps 4–5: the normalized correlation coefficient). Zero-magnitude
    /// products map to zero.
    pub fn ncc(
        &self,
        a: &DeviceBuffer<C32>,
        b: &DeviceBuffer<C32>,
        out: &DeviceBuffer<C32>,
        len: usize,
    ) {
        assert!(a.len() >= len && b.len() >= len && out.len() >= len);
        let a = a.clone();
        let b = b.clone();
        let out = out.clone();
        self.launch("ncc", move |tok| {
            a.map(tok, |av| {
                b.map(tok, |bv| {
                    out.map(tok, |ov| {
                        stitch_fft::backend::active().ncc(&av[..len], &bv[..len], &mut ov[..len]);
                    });
                });
            });
        });
    }

    /// Kernel + copy-back: top-`k` |·| maxima over the rows of `band` of
    /// `buf[..len]` viewed as a row-major image of width `width`,
    /// suppressing maxima within a small Chebyshev radius of a stronger
    /// one. Only the tiny `(index, value)` list crosses back to the host
    /// ("minimizes transfers from device to host memory by only copying
    /// the result of the parallel reduction").
    pub fn top_abs_peaks(
        &self,
        buf: &DeviceBuffer<f32>,
        len: usize,
        width: usize,
        band: RowBand,
        k: usize,
    ) -> HostFuture<Vec<MaxLoc>> {
        assert!(buf.len() >= len && width > 0 && k >= 1);
        let buf = buf.clone();
        let (tx, fut) = HostFuture::pair();
        self.launch("top_peaks", move |tok| {
            let (mut cand, mut peaks) = (Vec::new(), Vec::new());
            buf.map(tok, |d| {
                let magnitude = |v: f32| f64::from(v.abs());
                top_peaks_into(&d[..len], width, band, k, magnitude, &mut cand, &mut peaks)
            });
            let out = peaks
                .into_iter()
                .map(|(index, value)| MaxLoc { index, value });
            let _ = tx.send(out.collect());
        });
        fut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceConfig};

    fn device() -> Device {
        Device::new(0, DeviceConfig::small(64 << 20))
    }

    #[test]
    fn device_fft_matches_host_fft_and_round_trips() {
        let dev = device();
        let s = dev.create_stream("s");
        let (w, h) = (9usize, 4usize); // odd width: no even-length fast path
        let plan = Arc::new(RealFft2d::new(dev.planner(), w, h));
        let pixels: Vec<u16> = (0..w * h).map(|k| (k * 37 % 101) as u16).collect();
        let staging = Arc::new(dev.alloc::<u16>(w * h).unwrap());
        let real = dev.alloc::<f32>(w * h).unwrap();
        let spec = dev.alloc::<C32>(plan.spectrum_len()).unwrap();
        s.h2d(Arc::new(pixels.clone()), &staging);
        s.fft2d_forward((&plan, 1), Arc::clone(&staging), &real, &spec);
        let got = s.d2h(&spec).wait();
        let input: Vec<f32> = pixels.iter().map(|&p| f32::from(p)).collect();
        let mut reference = vec![C32::ZERO; plan.spectrum_len()];
        plan.forward(&input, &mut reference);
        assert_eq!(got, reference, "same code, same bits");
        // the inverse is scaled: forward ∘ inverse is the identity
        s.fft2d_inverse(&plan, &spec, &real, RowBand::all(h));
        let back = s.d2h(&real).wait();
        for (b, &p) in back.iter().zip(&pixels) {
            assert!((b - f32::from(p)).abs() < 1e-3);
        }
    }

    #[test]
    fn ncc_normalizes_magnitudes() {
        let dev = device();
        let s = dev.create_stream("s");
        let a = dev.alloc::<C32>(3).unwrap();
        let b = dev.alloc::<C32>(3).unwrap();
        let out = dev.alloc::<C32>(3).unwrap();
        let c = |re, im| C32 { re, im };
        s.h2d(Arc::new(vec![c(3.0, 4.0), c(0.0, 0.0), c(2.0, 0.0)]), &a);
        s.h2d(Arc::new(vec![c(1.0, 0.0), c(5.0, 1.0), c(0.0, -2.0)]), &b);
        s.ncc(&a, &b, &out, 3);
        let v = s.d2h(&out).wait();
        assert!((v[0].to_c64().abs() - 1.0).abs() < 1e-7);
        assert_eq!(v[1], C32::ZERO); // zero product stays zero
        assert!((v[2].to_c64().abs() - 1.0).abs() < 1e-7);
    }

    #[test]
    fn full_phase_correlation_on_device() {
        // end-to-end sanity: fft → ncc → ifft → peak on a shifted signal
        let dev = device();
        let s = dev.create_stream("s");
        let n = 32usize;
        let plan = Arc::new(RealFft2d::new(dev.planner(), n, 1));
        let base: Vec<u16> = (0..n).map(|k| ((k * k) % 17) as u16).collect();
        let shift = 5usize;
        let shifted: Vec<u16> = (0..n).map(|k| base[(k + n - shift) % n]).collect();
        let staging = Arc::new(dev.alloc::<u16>(n).unwrap());
        let real = dev.alloc::<f32>(n).unwrap();
        let spectra = [base, shifted].map(|signal| {
            let spec = dev.alloc::<C32>(plan.spectrum_len()).unwrap();
            s.h2d(Arc::new(signal), &staging);
            s.fft2d_forward((&plan, 1), Arc::clone(&staging), &real, &spec);
            spec
        });
        let pair = dev.alloc::<C32>(plan.spectrum_len()).unwrap();
        // note: shifted as "a", base as "b"
        s.ncc(&spectra[1], &spectra[0], &pair, plan.spectrum_len());
        s.fft2d_inverse(&plan, &pair, &real, RowBand::all(1));
        let peaks = s.top_abs_peaks(&real, n, n, RowBand::all(1), 1).wait();
        assert_eq!(peaks[0].index, shift);
    }
}
