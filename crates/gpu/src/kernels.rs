//! Built-in device kernels used by the stitching computation.
//!
//! These are the simulation's counterparts of the paper's custom CUDA
//! kernels (§IV-A): the cuFFT 2-D transform, the normalized-correlation
//! element-wise kernel, and the Harris-style max reduction that returns
//! only its index scalar ("minimizes transfers from device to host memory
//! by only copying the result of the parallel reduction").

use stitch_fft::vectorops::top_peaks_into;
use stitch_fft::{Direction, Fft2d, C64};

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
    /// Kernel: widen a `u16` tile into the complex transform buffer
    /// (`re = pixel`, `im = 0`).
    pub fn convert_u16_to_complex(&self, src: &DeviceBuffer<u16>, dst: &DeviceBuffer<C64>) {
        assert!(src.len() <= dst.len(), "convert destination too small");
        let src = src.clone();
        let dst = dst.clone();
        self.launch("u16_to_c64", move |tok| {
            src.map(tok, |s| {
                dst.map(tok, |d| {
                    for (o, &p) in d.iter_mut().zip(s.iter()) {
                        *o = C64 {
                            re: p as f64,
                            im: 0.0,
                        };
                    }
                });
            });
        });
    }

    /// Kernel: in-place 2-D FFT of `buf` (`w × h` row-major) using
    /// `scratch` as workspace. Flagged as an FFT so the device's Fermi
    /// serialization applies. Plans come from the device's plan cache.
    pub fn fft2d(
        &self,
        width: usize,
        height: usize,
        direction: Direction,
        buf: &DeviceBuffer<C64>,
        scratch: &DeviceBuffer<C64>,
    ) {
        assert!(buf.len() >= width * height, "fft2d buffer too small");
        assert!(scratch.len() >= width * height, "fft2d scratch too small");
        let buf = buf.clone();
        let scratch = scratch.clone();
        let device = std::sync::Arc::clone(self.device());
        let name = match direction {
            Direction::Forward => "fft2d_fwd",
            Direction::Inverse => "fft2d_inv",
        };
        self.enqueue(SpanKind::Kernel, true, name, 0, move |tok| {
            let plan = Fft2d::new(&device.planner, width, height, direction);
            buf.map(tok, |b| {
                scratch.map(tok, |s| {
                    plan.process(&mut b[..width * height], &mut s[..width * height]);
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
        a: &DeviceBuffer<C64>,
        b: &DeviceBuffer<C64>,
        out: &DeviceBuffer<C64>,
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

    /// Kernel + copy-back: top-`k` |·| maxima over `buf[..len]` viewed as a
    /// row-major image of width `width`, suppressing maxima within a small
    /// Chebyshev radius of a stronger one. Only the tiny `(index, value)`
    /// list crosses back to the host — the same "copy only the reduction
    /// result" discipline as [`Stream::max_abs_index`].
    pub fn top_abs_peaks(
        &self,
        buf: &DeviceBuffer<C64>,
        len: usize,
        width: usize,
        k: usize,
    ) -> HostFuture<Vec<MaxLoc>> {
        assert!(buf.len() >= len && width > 0 && k >= 1);
        let buf = buf.clone();
        let (tx, fut) = HostFuture::pair();
        self.launch("top_peaks", move |tok| {
            let (mut cand, mut peaks) = (Vec::new(), Vec::new());
            buf.map(tok, |d| {
                top_peaks_into(&d[..len], width, k, C64::norm_sqr, &mut cand, &mut peaks)
            });
            let out = peaks.into_iter().map(|(index, m)| MaxLoc {
                index,
                value: m.sqrt(),
            });
            let _ = tx.send(out.collect());
        });
        fut
    }

    /// Kernel + copy-back: max-|·| reduction over `buf[..len]`, returning
    /// only the `(index, value)` scalar to the host.
    pub fn max_abs_index(&self, buf: &DeviceBuffer<C64>, len: usize) -> HostFuture<MaxLoc> {
        assert!(buf.len() >= len);
        let buf = buf.clone();
        let (tx, fut) = HostFuture::pair();
        self.launch("max_reduce", move |tok| {
            let loc = buf.map(tok, |d| {
                // multi-lane reduction (Harris-style, §IV-A) on squared
                // magnitudes; sqrt once at the end. An empty or all-NaN
                // surface has no peak: keep the NaN value (callers treat it
                // as "no correlation") at a well-defined index 0.
                match stitch_fft::backend::active().max_norm_sqr(&d[..len]) {
                    Some((index, m)) => MaxLoc {
                        index,
                        value: m.sqrt(),
                    },
                    None => MaxLoc {
                        index: 0,
                        value: f64::NAN,
                    },
                }
            });
            let _ = tx.send(loc);
        });
        fut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceConfig};
    use std::sync::Arc;
    use stitch_fft::{c64, fft_forward};

    fn device() -> Device {
        Device::new(0, DeviceConfig::small(64 << 20))
    }

    #[test]
    fn convert_widens_pixels() {
        let dev = device();
        let s = dev.create_stream("s");
        let src = dev.alloc::<u16>(4).unwrap();
        let dst = dev.alloc::<C64>(4).unwrap();
        s.h2d(Arc::new(vec![1u16, 2, 3, 4]), &src);
        s.convert_u16_to_complex(&src, &dst);
        let out = s.d2h(&dst).wait();
        assert_eq!(out[2], c64(3.0, 0.0));
    }

    #[test]
    fn device_fft_matches_host_fft() {
        let dev = device();
        let s = dev.create_stream("s");
        let (w, h) = (8usize, 4usize);
        let host: Vec<C64> = (0..w * h).map(|k| c64(k as f64, 0.0)).collect();
        let buf = dev.alloc::<C64>(w * h).unwrap();
        let scratch = dev.alloc::<C64>(w * h).unwrap();
        s.h2d(Arc::new(host.clone()), &buf);
        s.fft2d(w, h, Direction::Forward, &buf, &scratch);
        let got = s.d2h(&buf).wait();
        // host reference: rows then cols via 1-D FFTs
        let planner = stitch_fft::Planner::default();
        let mut reference = host;
        let mut scr = vec![C64::ZERO; w * h];
        Fft2d::new(&planner, w, h, Direction::Forward).process(&mut reference, &mut scr);
        for (a, b) in got.iter().zip(&reference) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn ncc_normalizes_magnitudes() {
        let dev = device();
        let s = dev.create_stream("s");
        let a = dev.alloc::<C64>(3).unwrap();
        let b = dev.alloc::<C64>(3).unwrap();
        let out = dev.alloc::<C64>(3).unwrap();
        s.h2d(
            Arc::new(vec![c64(3.0, 4.0), c64(0.0, 0.0), c64(2.0, 0.0)]),
            &a,
        );
        s.h2d(
            Arc::new(vec![c64(1.0, 0.0), c64(5.0, 1.0), c64(0.0, -2.0)]),
            &b,
        );
        s.ncc(&a, &b, &out, 3);
        let v = s.d2h(&out).wait();
        assert!((v[0].abs() - 1.0).abs() < 1e-12);
        assert_eq!(v[1], C64::ZERO); // zero product stays zero
        assert!((v[2].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_reduction_finds_peak() {
        let dev = device();
        let s = dev.create_stream("s");
        let buf = dev.alloc::<C64>(100).unwrap();
        let mut host = vec![c64(0.1, 0.0); 100];
        host[63] = c64(-5.0, 12.0); // |·| = 13
        s.h2d(Arc::new(host), &buf);
        let loc = s.max_abs_index(&buf, 100).wait();
        assert_eq!(loc.index, 63);
        assert!((loc.value - 13.0).abs() < 1e-12);
    }

    #[test]
    fn full_phase_correlation_on_device() {
        // end-to-end sanity: fft → ncc → ifft → max on a shifted signal
        let dev = device();
        let s = dev.create_stream("s");
        let n = 32usize;
        let base: Vec<f64> = (0..n).map(|k| ((k * k) % 17) as f64).collect();
        let shift = 5usize;
        let shifted: Vec<f64> = (0..n).map(|k| base[(k + n - shift) % n]).collect();
        let fa = fft_forward(&base.iter().map(|&v| c64(v, 0.0)).collect::<Vec<_>>());
        let fb = fft_forward(&shifted.iter().map(|&v| c64(v, 0.0)).collect::<Vec<_>>());
        let a = dev.alloc::<C64>(n).unwrap();
        let b = dev.alloc::<C64>(n).unwrap();
        let nccb = dev.alloc::<C64>(n).unwrap();
        let scratch = dev.alloc::<C64>(n).unwrap();
        s.h2d(Arc::new(fb), &a); // note: shifted as "i", base as "j"
        s.h2d(Arc::new(fa), &b);
        s.ncc(&a, &b, &nccb, n);
        s.fft2d(n, 1, Direction::Inverse, &nccb, &scratch);
        let loc = s.max_abs_index(&nccb, n).wait();
        assert_eq!(loc.index, shift);
    }
}
