//! Per-operation cost models for the virtual-time simulator.
//!
//! Two sources of truth:
//!
//! * [`CostModel::paper_c2070`] — back-derived from the paper's own
//!   measurements of the full-scale workload (42×59 grid of 1392×1040
//!   tiles on 2× Xeon E-5620 + Tesla C2070, §IV/§V);
//! * [`CostModel::calibrated`] — measured on the current host: the real
//!   kernel of `stitch-core` runs traced at a given tile size and each
//!   step is priced by its layer in the run report, so virtual results
//!   stay anchored to real code.

use stitch_core::opcount::OpCounters;
use stitch_core::pciam::PciamContext;
use stitch_core::types::PairKind;
use stitch_fft::{PlanMode, Planner};
use stitch_image::{Scene, SceneParams};
use stitch_trace::{RunReport, TraceHandle};

/// Nanosecond costs of the primitive operations of the stitching
/// computation (per tile or per pair as noted).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Reading one tile from disk into memory (decode included).
    pub read_ns: u64,
    /// One 2-D FFT (forward or inverse) of a tile on a CPU core.
    pub fft_cpu_ns: u64,
    /// One 2-D FFT on the GPU (paper: cuFFT ≈ 1.5× faster than FFTW
    /// patient mode, §IV-A).
    pub fft_gpu_ns: u64,
    /// NCC element-wise multiply of one pair on a CPU core.
    pub ncc_cpu_ns: u64,
    /// NCC on the GPU (≈ 2.3× faster than the CPU function, §IV-A).
    pub ncc_gpu_ns: u64,
    /// Max reduction of one pair on a CPU core.
    pub reduce_cpu_ns: u64,
    /// Max reduction on the GPU (≈ 1.5× faster, §IV-A).
    pub reduce_gpu_ns: u64,
    /// CCF disambiguation of one pair on a CPU core (stage 6).
    pub ccf_ns: u64,
    /// Host→device copy of one tile.
    pub h2d_ns: u64,
    /// Device→host copy of the reduction scalar.
    pub d2h_scalar_ns: u64,
    /// Fixed kernel-launch overhead (per GPU kernel).
    pub launch_ns: u64,
    /// Cost of one synchronous host↔device round trip (driver
    /// synchronization + pageable-memory staging). Only the Simple-GPU
    /// architecture pays this, after every single operation.
    pub sync_ns: u64,
    /// Bytes of one transform buffer (a tile's complex spectrum) — drives
    /// the working-set / paging model (paper: ~22 MB per 1392×1040
    /// transform, §III).
    pub transform_bytes: u64,
    /// Sequential-disk throughput for the paging model, bytes/s.
    pub disk_bytes_per_sec: f64,
}

impl CostModel {
    /// Costs of the paper's full-scale workload, back-derived from §IV/§V.
    ///
    /// Derivation from the paper's own numbers (42×59 grid ⇒ 2 478 tiles,
    /// 4 855 pairs, 7 333 2-D FFTs):
    ///
    /// * Simple-CPU = 10.6 min = 636 s with "80 % of this time spent on
    ///   Fourier transforms" ⇒ `0.8·636 / 7333 ≈ 69 ms` per CPU FFT.
    /// * The remaining ~127 s: 2.76 MB TIFF reads at 2012-era disk speed ≈
    ///   20 ms each (49.6 s), leaving ~5 ms for each element-wise op.
    /// * Pipelined-GPU(1 GPU) = 49.7 s ≈ 2 478 reads × 20 ms — the
    ///   pipeline is *reader-bound*, which pins the GPU FFT well under
    ///   `49.7 s / 7333 ≈ 6.8 ms`; a C2070 running cuFFT on 1.45 Mpixel
    ///   double-complex data sits near 5 ms (its "1.5× over FFTW" quote is
    ///   against multi-threaded FFTW).
    /// * Fig 10: with 2 GPUs, going from 1 CCF thread (~42 s) to 2 (~29 s)
    ///   helps but more do not ⇒ CCF ≈ 8 ms/pair (42 s ≈ 4 855 × 8 ms ⇒
    ///   1-thread CCF is the bottleneck; at 2 threads the readers are).
    /// * Simple-GPU = 9.3 min: dominated by synchronous-call round trips
    ///   (default stream, unpinned synchronous copies); `sync_ns` is
    ///   calibrated so the row lands at its reported time.
    pub fn paper_c2070() -> CostModel {
        CostModel {
            read_ns: 20_000_000,
            fft_cpu_ns: 69_400_000,
            fft_gpu_ns: 4_800_000,
            ncc_cpu_ns: 5_300_000,
            ncc_gpu_ns: 2_300_000,
            reduce_cpu_ns: 5_300_000,
            reduce_gpu_ns: 3_500_000,
            ccf_ns: 8_000_000,
            h2d_ns: 500_000,
            d2h_scalar_ns: 10_000,
            launch_ns: 10_000,
            sync_ns: 20_000_000,
            transform_bytes: 1392 * 1040 * 16, // double-complex spectrum ≈ 23 MB
            disk_bytes_per_sec: 140.0e6,       // 2012-era SATA sequential
        }
    }

    /// Measures the real kernels on this host for `width × height` tiles:
    /// `reps` (≥ 1) traced pair computations, each step priced by the mean
    /// of its layer in the run report.
    pub fn calibrated(width: usize, height: usize, reps: usize) -> CostModel {
        let planner = Planner::new(PlanMode::Estimate);
        let trace = TraceHandle::new();
        let mut ctx = PciamContext::new(&planner, width, height, OpCounters::new_shared())
            .traced(&trace, "calibrate".into());
        // two overlapping views of a synthetic scene as a realistic pair
        let scene = Scene::generate(
            width as f64 * 2.0,
            height as f64 * 2.0,
            SceneParams::default(),
        );
        let shift = (width as f64 * 0.75).round();
        let a = scene.render_region(0.0, 0.0, width, height, 0.02, 40.0, 1);
        let b = scene.render_region(shift, 2.0, width, height, 0.02, 40.0, 2);
        for _ in 0..reps.max(1) {
            let (fa, fb) = (ctx.forward_fft(&a), ctx.forward_fft(&b));
            ctx.displacement_oriented(&fa, &fb, &a, &b, Some(PairKind::West));
        }
        let layers = RunReport::from_trace(&trace).layers;
        let mean_ns = |layer: &str| {
            let l = layers.iter().find(|l| l.name == layer).expect("stamped");
            (l.total_ns / l.count).max(1)
        };
        let (fft_ns, ccf_ns) = (mean_ns("fft_fwd"), mean_ns("ccf"));
        let (ncc_ns, reduce_ns) = (mean_ns("ncc"), mean_ns("peak"));

        // tile read ≈ TIFF decode of w·h·2 bytes plus page-cache copy
        let bytes = (width * height * 2) as u64;
        let read_ns = (bytes as f64 / 600.0e6 * 1e9) as u64 + 200_000;

        CostModel {
            read_ns,
            fft_cpu_ns: fft_ns,
            fft_gpu_ns: (fft_ns as f64 / 1.5) as u64,
            ncc_cpu_ns: ncc_ns,
            ncc_gpu_ns: (ncc_ns as f64 / 2.3) as u64,
            reduce_cpu_ns: reduce_ns,
            reduce_gpu_ns: (reduce_ns as f64 / 1.5) as u64,
            ccf_ns,
            h2d_ns: (bytes as f64 / 6.0e9 * 1e9) as u64 + 10_000,
            d2h_scalar_ns: 10_000,
            launch_ns: 10_000,
            sync_ns: 100_000,
            transform_bytes: (width * height * 16) as u64,
            disk_bytes_per_sec: 500.0e6,
        }
    }

    /// Cost of the GPU pair computation chain (NCC + inverse FFT + reduce,
    /// launches included), i.e. stage 5's service time.
    pub fn gpu_pair_ns(&self) -> u64 {
        3 * self.launch_ns
            + self.ncc_gpu_ns
            + self.fft_gpu_ns
            + self.reduce_gpu_ns
            + self.d2h_scalar_ns
    }

    /// Cost of the CPU pair computation (NCC + inverse FFT + reduce).
    pub fn cpu_pair_ns(&self) -> u64 {
        self.ncc_cpu_ns + self.fft_cpu_ns + self.reduce_cpu_ns
    }
}

/// The virtual machine the simulations run on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineSpec {
    /// Physical cores (paper testbed: 2× quad-core = 8).
    pub physical_cores: usize,
    /// Logical cores with hyper-threading (paper: 16).
    pub logical_cores: usize,
    /// Fraction of a core's throughput each additional *physical* core
    /// contributes (sub-linear real-world scaling; ~0.8 fits Fig 11's
    /// "almost linear" region).
    pub core_efficiency: f64,
    /// Fraction of a core's throughput an extra hyper-thread adds once all
    /// physical cores are busy (Fig 11 shows the slope flattening past 8
    /// threads — a ~0.25 contribution fits the paper's curve).
    pub smt_efficiency: f64,
    /// Number of GPUs (paper: 2× Tesla C2070).
    pub gpus: usize,
    /// Main-memory budget in bytes (Fig 5's cliff machine had 24 GB).
    pub ram_bytes: u64,
}

/// The `simulate --machine` presets.
impl std::str::FromStr for MachineSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<MachineSpec, String> {
        match s {
            "testbed" => Ok(MachineSpec::paper_testbed()),
            "laptop" => Ok(MachineSpec::paper_laptop()),
            other => Err(format!(
                "unknown machine '{other}' (expected testbed or laptop)"
            )),
        }
    }
}

impl MachineSpec {
    /// The paper's evaluation machine (§IV): 2× Xeon E-5620 (8 cores / 16
    /// threads), 48 GB RAM, 2 Tesla C2070.
    pub fn paper_testbed() -> MachineSpec {
        MachineSpec {
            physical_cores: 8,
            logical_cores: 16,
            core_efficiency: 0.82,
            smt_efficiency: 0.25,
            gpus: 2,
            ram_bytes: 48 * (1 << 30),
        }
    }

    /// The paper's §VI laptop validation machine: i7-950 quad-core, 12 GB,
    /// one GTX 560M.
    fn paper_laptop() -> MachineSpec {
        MachineSpec {
            physical_cores: 4,
            logical_cores: 8,
            core_efficiency: 0.82,
            smt_efficiency: 0.25,
            gpus: 1,
            ram_bytes: 12 * (1 << 30),
        }
    }

    /// The Fig 5 machine: "the same evaluation machine but with 24 GB of
    /// RAM only".
    pub fn fig5_machine() -> MachineSpec {
        MachineSpec {
            ram_bytes: 24 * (1 << 30),
            ..MachineSpec::paper_testbed()
        }
    }

    /// Aggregate throughput (in core-equivalents) of `threads` busy
    /// threads: the first core is full speed, each further physical core
    /// contributes `core_efficiency` (memory bandwidth and synchronization
    /// keep real scaling below ideal — Fig 11's "almost linear" slope is
    /// ~0.8), and each hyper-thread beyond the physical cores contributes
    /// `smt_efficiency`. Flat past the logical core count.
    pub fn capacity(&self, threads: usize) -> f64 {
        if threads == 0 {
            return 0.0;
        }
        let phys = threads.min(self.physical_cores);
        let smt = threads
            .min(self.logical_cores)
            .saturating_sub(self.physical_cores);
        1.0 + (phys - 1) as f64 * self.core_efficiency + smt as f64 * self.smt_efficiency
    }

    /// Service-time inflation factor for `threads` concurrently busy
    /// threads (≥ 1; equals `threads / capacity`).
    pub fn contention(&self, threads: usize) -> f64 {
        if threads == 0 {
            return 1.0;
        }
        (threads as f64 / self.capacity(threads)).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_reconstructs_simple_cpu_time() {
        // Σ costs over the 42×59 grid should land near the reported
        // 10.6 min = 636 s
        let c = CostModel::paper_c2070();
        let (n, m) = (42u64, 59u64);
        let tiles = n * m;
        let pairs = 2 * n * m - n - m;
        let total_ns = tiles * (c.read_ns + c.fft_cpu_ns)
            + pairs * (c.ncc_cpu_ns + c.fft_cpu_ns + c.reduce_cpu_ns + c.ccf_ns);
        let total_s = total_ns as f64 / 1e9;
        assert!((580.0..700.0).contains(&total_s), "got {total_s}");
        // and FFT work should be ~80 % of it
        let fft_s = ((tiles + pairs) * c.fft_cpu_ns) as f64 / 1e9;
        let share = fft_s / total_s;
        assert!((0.70..0.90).contains(&share), "fft share {share}");
    }

    #[test]
    fn capacity_model_matches_fig11_shape() {
        let m = MachineSpec::paper_testbed();
        assert_eq!(m.capacity(1), 1.0);
        assert!((6.0..8.0).contains(&m.capacity(8)), "near-linear to 8");
        // slope flattens past the physical cores
        let gain_low = m.capacity(8) - m.capacity(7);
        let gain_high = m.capacity(12) - m.capacity(11);
        assert!(gain_high < gain_low);
        assert_eq!(m.capacity(16), m.capacity(32), "no gain past logical cores");
    }

    #[test]
    fn contention_at_least_one() {
        let m = MachineSpec::paper_testbed();
        assert_eq!(m.contention(1), 1.0);
        // sub-linear core scaling: mild inflation even below 8 threads
        assert!((1.0..1.3).contains(&m.contention(4)));
        assert!(m.contention(16) > m.contention(4));
    }

    #[test]
    fn calibration_runs_and_is_positive() {
        let c = CostModel::calibrated(48, 32, 1);
        assert!(c.fft_cpu_ns > 0);
        assert!(c.ccf_ns > 0);
        assert!(c.fft_gpu_ns < c.fft_cpu_ns);
        assert_eq!(c.transform_bytes, 48 * 32 * 16);
    }

    #[test]
    fn gpu_pair_cheaper_than_cpu_pair() {
        let c = CostModel::paper_c2070();
        assert!(c.gpu_pair_ns() < c.cpu_pair_ns());
    }
}
