//! Seeded stress runner for the pipelined variants.
//!
//! Randomizes — from a single seed — everything that is *allowed* to
//! vary without changing the answer: queue capacities, worker counts,
//! buffer-pool sizes, simulated transfer bandwidths and launch
//! overheads, injected fault patterns and retry backoffs. Then runs the
//! Pipelined-CPU and Pipelined-GPU stitchers under that regime and
//! packages every observable output into a [`StressOutcome`].
//!
//! The contract: `run_stress(seed)` is a pure function of `seed`. Two
//! runs with the same seed must produce `==` outcomes (same
//! displacements, same health reports, same mosaic), and within one
//! outcome the CPU and GPU pipelines must agree with each other — the
//! schedule chaos the randomization creates must never leak into the
//! result.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stitch_core::prelude::*;
use stitch_core::{PipelinedCpuConfig, PipelinedCpuStitcher, PipelinedGpuConfig};
use stitch_gpu::{Device, DeviceConfig};
use stitch_image::Image;
use stitch_trace::TraceHandle;

use crate::cases::SweepCase;

/// Everything `run_stress` randomizes, fully determined by the seed.
#[derive(Clone, Debug, PartialEq)]
pub struct StressConfig {
    /// The driving seed.
    pub seed: u64,
    /// The grid/imaging case under stress.
    pub case: SweepCase,
    /// Compute workers in the CPU pipeline.
    pub cpu_threads: usize,
    /// Reader threads in the CPU pipeline.
    pub read_threads: usize,
    /// CPU transform-pool size (kept ≥ `2·min_dim + 2`, the deadlock-free
    /// floor for chained-diagonal traversal).
    pub cpu_pool: usize,
    /// Queue-capacity floor for the CPU pipeline's inter-stage queues.
    pub queue_floor: usize,
    /// CCF host threads in the GPU pipeline.
    pub ccf_threads: usize,
    /// GPU transform-pool buffers.
    pub gpu_pool: usize,
    /// Simulated host→device bandwidth, bytes/s.
    pub h2d_bytes_per_sec: f64,
    /// Simulated device→host bandwidth, bytes/s.
    pub d2h_bytes_per_sec: f64,
    /// Simulated kernel launch overhead, nanoseconds.
    pub launch_overhead_nanos: u64,
    /// Probability that any single read attempt fails transiently.
    pub transient_rate: f64,
    /// Tile that always fails permanently, if any.
    pub corrupt: Option<TileId>,
    /// Injected per-read latency, microseconds.
    pub read_latency_micros: u64,
    /// Retry budget per tile.
    pub max_retries: u32,
    /// First-retry backoff, microseconds (doubles per retry).
    pub backoff_micros: u64,
}

impl StressConfig {
    /// Derives a full stress regime from a seed. Every parameter stays
    /// inside its documented safe envelope (pool sizes above the
    /// deadlock-free floor, latencies small enough to keep runs fast),
    /// so any seed is a valid test.
    pub fn derive(seed: u64) -> StressConfig {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57e55);
        let rows = rng.gen_range(2usize..=3);
        let cols = rng.gen_range(2usize..=4);
        let (tile_width, tile_height) = [(48, 40), (64, 48), (40, 32)][rng.gen_range(0usize..3)];
        let case = SweepCase {
            rows,
            cols,
            tile_width,
            tile_height,
            overlap: 0.20 + 0.03 * rng.gen_range(0u64..6) as f64,
            noise_sigma: 10.0 * rng.gen_range(0u64..7) as f64,
            seed: seed ^ 0x9e37,
        };
        let min_dim = rows.min(cols);
        let corrupt = if rng.gen_range(0u32..2) == 1 {
            // never tile (0,0): the optimizer pins the mosaic gauge there
            let idx = rng.gen_range(1usize..rows * cols);
            Some(TileId::new(idx / cols, idx % cols))
        } else {
            None
        };
        StressConfig {
            seed,
            case,
            cpu_threads: rng.gen_range(2usize..=4),
            read_threads: rng.gen_range(1usize..=2),
            cpu_pool: rng.gen_range(2 * min_dim + 2..=4 * min_dim + 8),
            queue_floor: rng.gen_range(1usize..=16),
            ccf_threads: rng.gen_range(1usize..=4),
            gpu_pool: rng.gen_range(2 * min_dim + 2..=2 * min_dim + 10),
            h2d_bytes_per_sec: 1.0e8 * rng.gen_range(1u64..=100) as f64,
            d2h_bytes_per_sec: 1.0e8 * rng.gen_range(1u64..=100) as f64,
            launch_overhead_nanos: rng.gen_range(0u64..=20_000),
            transient_rate: 0.05 * rng.gen_range(0u64..=5) as f64,
            corrupt,
            read_latency_micros: rng.gen_range(0u64..=300),
            max_retries: rng.gen_range(3u32..=6),
            backoff_micros: rng.gen_range(10u64..=200),
        }
    }

    fn fault_spec(&self) -> FaultSpec {
        FaultSpec {
            seed: self.seed ^ 0xfa17,
            transient_rate: self.transient_rate,
            corrupt: self.corrupt.into_iter().collect(),
            latency: Duration::from_micros(self.read_latency_micros),
        }
    }

    fn failure_policy(&self) -> FailurePolicy {
        FailurePolicy {
            retry: RetryPolicy {
                max_retries: self.max_retries,
                backoff: Duration::from_micros(self.backoff_micros),
                max_backoff: Duration::from_millis(5),
                deadline: None,
            },
            allow_partial: true,
        }
    }
}

/// Every observable output of one stress run. Derives `PartialEq` so
/// reproducibility is a single `==`.
#[derive(Clone, Debug, PartialEq)]
pub struct StressOutcome {
    /// The derived regime (itself part of the reproducibility contract).
    pub config: StressConfig,
    /// Pipelined-CPU west displacements, row-major.
    pub cpu_west: Vec<Option<Displacement>>,
    /// Pipelined-CPU north displacements.
    pub cpu_north: Vec<Option<Displacement>>,
    /// Pipelined-CPU per-tile read health.
    pub cpu_health: HealthReport,
    /// Pipelined-GPU west displacements.
    pub gpu_west: Vec<Option<Displacement>>,
    /// Pipelined-GPU north displacements.
    pub gpu_north: Vec<Option<Displacement>>,
    /// Pipelined-GPU per-tile read health.
    pub gpu_health: HealthReport,
    /// Global positions solved from the CPU result.
    pub positions: Vec<(i64, i64)>,
    /// The mosaic composed from those positions (clean source, so the
    /// composition is total even when some pairs degraded).
    pub mosaic: Image<u16>,
}

impl StressOutcome {
    /// True when the CPU and GPU pipelines agreed on every displacement
    /// and on the per-tile health (the cross-variant half of the stress
    /// contract).
    pub fn cpu_gpu_agree(&self) -> bool {
        self.cpu_west == self.gpu_west
            && self.cpu_north == self.gpu_north
            && self.cpu_health.tiles == self.gpu_health.tiles
    }
}

/// Runs one seeded stress iteration: derive the regime, run both
/// pipelined variants over (independently instantiated but identically
/// seeded) faulty sources, solve and compose. Pure in `seed`.
pub fn run_stress(seed: u64) -> StressOutcome {
    let config = StressConfig::derive(seed);
    let policy = config.failure_policy();

    // Fresh FaultySource per run: it counts attempts per instance, so
    // sharing one would hand the second stitcher different fault rolls.
    let cpu_source = FaultySource::new(config.case.source(), config.fault_spec());
    let cpu_cfg = PipelinedCpuConfig {
        read_threads: config.read_threads,
        pool_size: Some(config.cpu_pool),
        queue_floor: Some(config.queue_floor),
        ..PipelinedCpuConfig::with_threads(config.cpu_threads)
    };
    let (stitcher, untraced) = (
        PipelinedCpuStitcher::with_config(cpu_cfg),
        TraceHandle::disabled(),
    );
    let cpu = run_pass(&stitcher, &cpu_source, &policy, None, &untraced, &|| false)
        .expect("partial policy tolerates tile failures");
    let (cpu, positions) = (cpu.result, cpu.positions.expect("never stopped"));

    let gpu_source = FaultySource::new(config.case.source(), config.fault_spec());
    let device = Device::new(
        0,
        DeviceConfig {
            h2d_bytes_per_sec: Some(config.h2d_bytes_per_sec),
            d2h_bytes_per_sec: Some(config.d2h_bytes_per_sec),
            launch_overhead: Duration::from_nanos(config.launch_overhead_nanos),
            ..DeviceConfig::small(128 << 20)
        },
    );
    let gpu_cfg = PipelinedGpuConfig {
        ccf_threads: config.ccf_threads,
        pool_size: Some(config.gpu_pool),
    };
    let gpu = PipelinedGpuStitcher::new(vec![device], gpu_cfg)
        .try_compute_displacements(&gpu_source, &policy)
        .expect("partial policy tolerates tile failures");

    // composed from the clean plate: the solved frame is what is on trial
    let mosaic = Composer::new(positions.clone(), Blend::Overlay).compose(&config.case.source());

    StressOutcome {
        config,
        cpu_west: cpu.west,
        cpu_north: cpu.north,
        cpu_health: cpu.health,
        gpu_west: gpu.west,
        gpu_north: gpu.north,
        gpu_health: gpu.health,
        positions: positions.positions,
        mosaic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_in_envelope() {
        for seed in 0..64u64 {
            let a = StressConfig::derive(seed);
            let b = StressConfig::derive(seed);
            assert_eq!(a, b);
            let min_dim = a.case.rows.min(a.case.cols);
            assert!(a.cpu_pool >= 2 * min_dim + 2, "{a:?}");
            assert!(a.gpu_pool >= 2 * min_dim + 2, "{a:?}");
            assert!(a.queue_floor >= 1 && a.queue_floor <= 16);
            assert!(a.transient_rate <= 0.25 + 1e-9);
            assert!(a.corrupt != Some(TileId::new(0, 0)));
        }
    }

    #[test]
    fn same_seed_same_outcome() {
        let a = run_stress(7);
        let b = run_stress(7);
        assert_eq!(a, b);
        assert!(a.cpu_gpu_agree(), "CPU/GPU divergence under stress");
    }

    #[test]
    fn corrupt_tile_degrades_identically_on_both_pipelines() {
        // find a seed whose regime includes a corrupt tile
        let seed = (0..64u64)
            .find(|&s| StressConfig::derive(s).corrupt.is_some())
            .expect("half of all seeds corrupt a tile");
        let out = run_stress(seed);
        let id = out.config.corrupt.unwrap();
        let shape = out.cpu_health.shape;
        assert!(matches!(
            out.cpu_health.tiles[shape.index(id)],
            TileStatus::Failed { .. }
        ));
        assert!(
            out.cpu_gpu_agree(),
            "degradation must match across pipelines"
        );
        // the mosaic still composes (partial-mosaic contract from PR 1)
        assert!(out.mosaic.width() > 0 && out.mosaic.height() > 0);
    }
}
