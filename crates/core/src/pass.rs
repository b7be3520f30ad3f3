//! One variant table and one pass driver. The paper's six
//! implementations differ only in how phase 1 is scheduled (Table II);
//! phases 2 and 3 are the same for all of them (§III). [`Variant::build`]
//! turns a variant and the caller's [`Resources`] into a [`Stitcher`], and
//! [`run_pass`] runs phase 1 → solve → compose over it.

use std::str::FromStr;
use std::sync::Arc;

use stitch_fft::Planner;
use stitch_gpu::Device;
use stitch_image::Image;
use stitch_trace::TraceHandle;

use crate::baseline::FijiStyleStitcher;
use crate::compose::{Blend, Composer};
use crate::fault::{FailurePolicy, StitchError};
use crate::global_opt::{AbsolutePositions, GlobalOptimizer};
use crate::hostpool::SpectrumPool;
use crate::mt_cpu::MtCpuStitcher;
use crate::pipelined_cpu::PipelinedCpuStitcher;
use crate::pipelined_gpu::{PipelinedGpuConfig, PipelinedGpuStitcher};
use crate::simple_cpu::SimpleCpuStitcher;
use crate::simple_gpu::SimpleGpuStitcher;
use crate::source::TileSource;
use crate::stitcher::{StitchResult, Stitcher};

/// Which phase-1 implementation a pass runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// Sequential reference CPU implementation.
    SimpleCpu,
    /// Multi-threaded CPU implementation.
    MtCpu,
    /// Three-stage pipelined CPU implementation.
    PipelinedCpu,
    /// Fiji-style per-pair implementation.
    FijiStyle,
    /// Single-stream GPU implementation (needs a device).
    SimpleGpu,
    /// Pipelined GPU implementation (needs a device).
    PipelinedGpu,
}

impl Variant {
    /// Every variant, Simple-CPU (the reference) first.
    pub const ALL: [Variant; 6] = [
        Variant::SimpleCpu,
        Variant::MtCpu,
        Variant::PipelinedCpu,
        Variant::FijiStyle,
        Variant::SimpleGpu,
        Variant::PipelinedGpu,
    ];

    /// The CLI/job-file token for this variant.
    pub fn token(&self) -> &'static str {
        match self {
            Variant::SimpleCpu => "simple-cpu",
            Variant::MtCpu => "mt-cpu",
            Variant::PipelinedCpu => "pipelined-cpu",
            Variant::FijiStyle => "fiji",
            Variant::SimpleGpu => "simple-gpu",
            Variant::PipelinedGpu => "pipelined-gpu",
        }
    }

    /// Whether this variant runs on a (simulated) device.
    pub fn needs_device(&self) -> bool {
        matches!(self, Variant::SimpleGpu | Variant::PipelinedGpu)
    }

    /// The stitcher this variant runs on `res`: Simple-GPU on the first
    /// device, Pipelined-GPU on all of them (a GPU variant without one
    /// panics); only Pipelined-CPU uses the pool and planner.
    pub fn build(self, res: &Resources) -> Box<dyn Stitcher> {
        let (threads, trace) = (res.threads, res.trace.clone());
        match self {
            Variant::SimpleCpu => Box::new(SimpleCpuStitcher {
                trace,
                ..SimpleCpuStitcher::default()
            }),
            Variant::MtCpu => Box::new(MtCpuStitcher {
                trace,
                ..MtCpuStitcher::new(threads)
            }),
            Variant::PipelinedCpu => Box::new(PipelinedCpuStitcher {
                shared_spectra: res.spectrum_pool.clone(),
                shared_planner: res.planner.clone(),
                ..PipelinedCpuStitcher::new(threads).with_trace(trace)
            }),
            Variant::FijiStyle => Box::new(FijiStyleStitcher {
                trace,
                ..FijiStyleStitcher::new(threads)
            }),
            Variant::SimpleGpu => Box::new(SimpleGpuStitcher {
                trace,
                ..SimpleGpuStitcher::new(res.devices.first().expect("needs a device").clone())
            }),
            Variant::PipelinedGpu => {
                let config = PipelinedGpuConfig {
                    ccf_threads: threads.max(1),
                    ..PipelinedGpuConfig::default()
                };
                Box::new(PipelinedGpuStitcher {
                    trace,
                    ..PipelinedGpuStitcher::new(res.devices.clone(), config)
                })
            }
        }
    }
}

/// The `--impl` / `variant=` tokens ([`Variant::token`]).
impl FromStr for Variant {
    type Err = String;

    fn from_str(s: &str) -> Result<Variant, String> {
        Variant::ALL
            .into_iter()
            .find(|v| v.token() == s)
            .ok_or_else(|| {
                format!(
                    "unknown variant '{s}' (expected simple-cpu, mt-cpu, \
                     pipelined-cpu, fiji, simple-gpu, or pipelined-gpu)"
                )
            })
    }
}

/// What a caller hands [`Variant::build`]. Every caller sets `threads`;
/// the rest default to no device, no trace, and a private spectrum pool
/// and planner per run.
#[derive(Default)]
pub struct Resources {
    /// Compute threads (CCF threads for Pipelined-GPU).
    pub threads: usize,
    /// The (simulated) devices the GPU variants run on.
    pub devices: Vec<Device>,
    /// Where phase 1 records its spans.
    pub trace: TraceHandle,
    /// A spectrum pool for Pipelined-CPU, the scheduler's per-job quota:
    /// a bounded pool's cap must be at least the transform-pool size or
    /// the run stalls on acquire.
    pub spectrum_pool: Option<SpectrumPool>,
    /// An FFT planner for Pipelined-CPU, shared by concurrent jobs.
    pub planner: Option<Arc<Planner>>,
}

/// The mosaic phase 3 should produce.
#[derive(Clone, Copy, Debug)]
pub struct MosaicSpec {
    /// Blend mode.
    pub blend: Blend,
    /// Compose threads (the pixels do not depend on them).
    pub workers: usize,
    /// Draw tile borders (Fig 14).
    pub highlight: bool,
}

/// What a pass produced.
pub struct Pass {
    /// Phase-1 displacements.
    pub result: StitchResult,
    /// Phase-2 positions, unless the pass stopped after phase 1.
    pub positions: Option<AbsolutePositions>,
    /// The mosaic, when asked for and not stopped before phase 3.
    pub mosaic: Option<Image<u16>>,
    /// The stop check ended the pass at a phase boundary.
    pub stopped: bool,
}

/// Runs phase 1 with `stitcher` under `policy`, the solve, and the
/// compose `mosaic` asks for, stamping the solve and compose on `trace`.
/// `stop` is asked after phase 1 and after the solve: once it says yes the
/// pass ends there, with the result alone or with the positions too.
pub fn run_pass(
    stitcher: &dyn Stitcher,
    source: &dyn TileSource,
    policy: &FailurePolicy,
    mosaic: Option<MosaicSpec>,
    trace: &TraceHandle,
    stop: &dyn Fn() -> bool,
) -> Result<Pass, StitchError> {
    let mut pass = Pass {
        result: stitcher.try_compute_displacements(source, policy)?,
        positions: None,
        mosaic: None,
        stopped: true,
    };
    if stop() {
        return Ok(pass);
    }
    let positions = {
        let _span = trace.layer("solve", "solve");
        GlobalOptimizer::default().solve(&pass.result)
    };
    if !stop() {
        pass.stopped = false;
        pass.mosaic = mosaic.map(|spec| {
            let mut composer = Composer::new(positions.clone(), spec.blend)
                .with_workers(spec.workers)
                .with_retry(policy.retry.clone())
                .with_trace(trace.clone());
            composer.highlight_tiles = spec.highlight;
            composer.compose(source)
        });
    }
    pass.positions = Some(positions);
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_token_round_trips_and_all_has_six_members() {
        assert_eq!(Variant::ALL.len(), 6);
        for v in Variant::ALL {
            assert_eq!(v.token().parse::<Variant>(), Ok(v));
        }
        let err = "sse9".parse::<Variant>().unwrap_err();
        assert!(err.contains("'sse9'"), "{err}");
    }
}
