//! Simple-GPU: the direct port of Simple-CPU onto the device (§IV-A).
//!
//! "The reference GPU implementation is single threaded on the CPU,
//! executes CUDA memory copies synchronously, and invokes all kernels on
//! the default stream." Each operation is followed by a stream
//! synchronize, so nothing overlaps — the profile this produces (Fig 7)
//! shows one kernel at a time with gaps for host work in between. It still
//! carries all of the paper's §IV-A mitigations: transforms computed once
//! and kept in device memory, a pre-allocated buffer pool with
//! reference-count recycling, and only reduction scalars copied back.

use std::sync::Arc;

use stitch_fft::{RealFft2d, C32};
use stitch_gpu::{Device, PooledBuffer};
use stitch_image::Image;
use stitch_trace::TraceHandle;

use crate::fault::{FailurePolicy, StitchError};
use crate::grid::Traversal;
use crate::pairgraph::PairLedger;
use crate::pciam::{resolution, PciamContext, Search, DEFAULT_PEAK_COUNT};
use crate::phase1::Phase1;
use crate::source::TileSource;
use crate::stitcher::{StitchResult, Stitcher};

/// The synchronous single-stream GPU stitcher.
pub struct SimpleGpuStitcher {
    pub(crate) device: Device,
    /// Host `read` and `ccf` spans (track `"cpu/main"`), then the device
    /// profiler's spans (`"gpu{id}/{stream}"`).
    pub(crate) trace: TraceHandle,
}

struct DeviceTile {
    img: Image<u16>,
    buf: PooledBuffer<C32>,
}

impl SimpleGpuStitcher {
    /// Creates a Simple-GPU stitcher on `device`.
    pub fn new(device: Device) -> SimpleGpuStitcher {
        SimpleGpuStitcher {
            device,
            trace: TraceHandle::disabled(),
        }
    }
}

impl Stitcher for SimpleGpuStitcher {
    fn name(&self) -> String {
        "Simple-GPU".to_string()
    }

    fn try_compute_displacements(
        &self,
        source: &dyn TileSource,
        policy: &FailurePolicy,
    ) -> Result<StitchResult, StitchError> {
        let (shape, (w, h)) = (source.shape(), source.tile_dims());
        if shape.tiles() == 0 {
            return Ok(StitchResult::empty(shape));
        }
        let frame = Phase1::start(source, policy, &self.trace);
        let counters = &frame.counters;
        // the Fourier half runs on tiles binned by `factor`, the CCF on
        // the full-resolution host images
        let overlap = source.nominal_overlap();
        let factor = resolution((w, h), overlap);
        let (n, cw, ch) = (w * h, w / factor, h / factor);
        let mut result = StitchResult::empty(shape);

        // §IV-A: "allocates a pool of buffers in GPU memory for FFT
        // transforms ... to help manage the limited memory available"
        let pool_size = 2 * shape.rows.min(shape.cols) + 4;
        let spectrum_len = frame.spectrum_len();
        let pool = self
            .device
            .buffer_pool::<C32>(spectrum_len, pool_size)
            .expect("transform pool fits device memory");
        let stream = self.device.create_stream("default");
        let plan = Arc::new(RealFft2d::new(self.device.planner(), cw, ch));
        let staging = Arc::new(self.device.alloc::<u16>(n).expect("staging buffer"));
        // one real workspace serves both transforms (the binned tile of
        // the forward one, the correlation surface of the inverse one):
        // every operation below is synchronous on one stream
        let real = self.device.alloc::<f32>(cw * ch).expect("real workspace");
        let pair_buf = self.device.alloc::<C32>(spectrum_len).expect("pair buffer");

        let mut ledger: PairLedger<DeviceTile> = PairLedger::new(shape);
        // host-side scratch reused across the whole run: the synchronous
        // h2d below means the upload buffer is unique again right after
        // each synchronize, so one allocation serves every tile
        let mut upload: Arc<Vec<u16>> = Arc::new(vec![0u16; n]);
        // the host's CCF, and its fallback, on a context planned as the device is
        let meter = frame.meter("cpu/main".into());
        let mut host = PciamContext::full_resolution(self.device.planner(), (w, h), overlap, meter);

        for id in Traversal::ChainedDiagonal.order(shape) {
            // read tile (host), copy synchronously, transform
            let Some(img) = frame.load("cpu/main", id) else {
                ledger.fail(id); // stranded neighbors recycle their device buffers
                continue;
            };
            let buf = pool.acquire();
            match Arc::get_mut(&mut upload) {
                Some(host) => host.copy_from_slice(img.pixels()),
                None => upload = Arc::new(img.pixels().to_vec()),
            }
            stream.h2d(Arc::clone(&upload), &staging);
            stream.synchronize(); // synchronous cudaMemcpy
            stream.fft2d_forward((&plan, factor), Arc::clone(&staging), &real, &buf);
            stream.synchronize();
            counters.count_forward_fft(&plan);

            // complete ready pairs, one fully synchronous op at a time;
            // a released endpoint recycles its device buffer
            ledger.arrive(id, DeviceTile { img, buf }, |ta, tb, kind, slot| {
                let search = Search::new((w, h), Some(kind), overlap, factor);
                let band = search.rows;
                stream.ncc(ta.buf.buffer(), tb.buf.buffer(), &pair_buf, spectrum_len);
                stream.synchronize();
                counters.count_elementwise();
                stream.fft2d_inverse(&plan, &pair_buf, &real, band);
                stream.synchronize();
                counters.count_inverse_fft(&plan, band);
                let peaks = stream
                    .top_abs_peaks(&real, cw * ch, cw, band, DEFAULT_PEAK_COUNT)
                    .wait();
                counters.count_max_reduction();
                // CCF disambiguation on the CPU (host images)
                let peaks = peaks.iter().map(|p| p.index);
                let d = host.resolve_device(peaks, (&ta.img, &tb.img), kind, search);
                result.set(kind, slot, d);
            });
        }
        stream.synchronize();
        debug_assert!(ledger.is_drained(), "all device tiles must be recycled");
        self.trace.merge_from(
            self.device.profiler().trace(),
            &format!("gpu{}", self.device.id()),
        );
        frame.finish(result, ledger.peak_live())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple_cpu::SimpleCpuStitcher;
    use crate::source::SyntheticSource;
    use crate::stitcher::truth_vectors;
    use stitch_gpu::DeviceConfig;
    use stitch_image::{ScanConfig, SyntheticPlate};

    fn source(rows: usize, cols: usize) -> SyntheticSource {
        SyntheticSource::new(SyntheticPlate::generate(ScanConfig {
            grid_rows: rows,
            grid_cols: cols,
            tile_width: 64,
            tile_height: 48,
            overlap: 0.25,
            stage_jitter: 2.0,
            backlash_x: 1.0,
            noise_sigma: 40.0,
            vignette: 0.03,
            seed: 71,
        }))
    }

    fn device() -> Device {
        Device::new(0, DeviceConfig::small(256 << 20))
    }

    #[test]
    fn matches_cpu_results() {
        let src = source(3, 4);
        let cpu = SimpleCpuStitcher::default().compute_displacements(&src);
        let gpu = SimpleGpuStitcher::new(device()).compute_displacements(&src);
        assert_eq!(gpu.west, cpu.west);
        assert_eq!(gpu.north, cpu.north);
    }

    #[test]
    fn recovers_ground_truth() {
        let src = source(3, 3);
        let r = SimpleGpuStitcher::new(device()).compute_displacements(&src);
        assert!(r.is_complete());
        let (tw, tn) = truth_vectors(src.plate());
        assert_eq!(r.count_errors(&tw, &tn, 0), 0);
    }

    #[test]
    fn releases_all_device_memory() {
        let dev = device();
        let src = source(2, 3);
        let before = dev.memory_used();
        SimpleGpuStitcher::new(dev.clone()).compute_displacements(&src);
        assert_eq!(dev.memory_used(), before, "pool and buffers must be freed");
    }

    #[test]
    fn serialized_profile_has_gaps() {
        // Fig 7's signature: one kernel at a time on the default stream
        let dev = device();
        let src = source(2, 3);
        SimpleGpuStitcher::new(dev.clone()).compute_displacements(&src);
        assert_eq!(
            dev.profiler()
                .peak_concurrency(stitch_gpu::SpanKind::Kernel),
            1
        );
    }
}
