//! The phase-1 frame every schedule shares. The six variants differ only
//! in how they order Table I's steps (§IV); what they count, where the time
//! of each step is stamped, how a tile is read and how a run is booked is
//! the same for all of them and lives here.
//!
//! A step is timed where it is counted: [`Phase1::load`] stamps `read`,
//! [`PciamContext`] stamps `fft_fwd`, `ncc`, `fft_inv` and `peak`, and the
//! CCF stamps `ccf` (on a [`Meter`]), each as a span of that layer on the
//! worker's track. With the trace off a stamp is one branch and allocates
//! nothing.

use std::sync::Arc;
use std::time::Instant;

use stitch_fft::Planner;
use stitch_image::Image;
use stitch_trace::{SpanGuard, TraceHandle};

use crate::fault::{FailurePolicy, FaultTracker, StitchError};
use crate::hostpool::SpectrumPool;
use crate::opcount::OpCounters;
use crate::pciam::PciamContext;
use crate::source::TileSource;
use crate::stitcher::StitchResult;
use crate::types::TileId;

/// Where one worker counts its steps and stamps their time: the run's
/// [`OpCounters`] and one trace track.
#[derive(Clone, Default)]
pub(crate) struct Meter {
    pub(crate) counters: Arc<OpCounters>,
    trace: TraceHandle,
    track: String,
}

impl Meter {
    /// A meter on `track` of `trace`.
    pub(crate) fn new(counters: Arc<OpCounters>, trace: &TraceHandle, track: String) -> Meter {
        Meter {
            counters,
            trace: trace.clone(),
            track,
        }
    }

    /// Times `layer` (one of `stitch_trace::LAYERS`) until the guard drops.
    pub(crate) fn span(&self, layer: &'static str) -> SpanGuard<'_> {
        self.trace.layer(&self.track, layer)
    }
}

/// One phase-1 run: its clock, counters, tile health and trace.
pub(crate) struct Phase1<'a> {
    t0: Instant,
    pub(crate) source: &'a dyn TileSource,
    policy: &'a FailurePolicy,
    tracker: FaultTracker,
    pub(crate) counters: Arc<OpCounters>,
    trace: &'a TraceHandle,
}

impl<'a> Phase1<'a> {
    /// Starts the clock on a run over `source` under `policy`.
    pub(crate) fn start(
        source: &'a dyn TileSource,
        policy: &'a FailurePolicy,
        trace: &'a TraceHandle,
    ) -> Phase1<'a> {
        Phase1 {
            t0: Instant::now(),
            source,
            policy,
            tracker: FaultTracker::new(source.shape()),
            counters: OpCounters::new_shared(),
            trace,
        }
    }

    /// A meter on `track`, for a schedule that runs a step outside a
    /// [`PciamContext`] (the GPU variants' host CCF).
    pub(crate) fn meter(&self, track: String) -> Meter {
        Meter::new(Arc::clone(&self.counters), self.trace, track)
    }

    /// A kernel context over the run's tiles that counts on the run's
    /// counters and stamps on `track`, recycling spectra through `pool`,
    /// and searches on the source's stage.
    pub(crate) fn context(
        &self,
        planner: &Planner,
        pool: SpectrumPool,
        track: String,
    ) -> PciamContext {
        let (dims, overlap) = (self.source.tile_dims(), self.source.nominal_overlap());
        PciamContext::with_pool(planner, dims, overlap, Arc::clone(&self.counters), pool)
            .traced(self.trace, track)
    }

    /// Elements of one spectrum of the run's tiles on the source's stage
    /// ([`PciamContext::spectrum_len`]).
    pub(crate) fn spectrum_len(&self) -> usize {
        PciamContext::spectrum_len(self.source.tile_dims(), self.source.nominal_overlap())
    }

    /// Reads tile `id` with the policy's retries, as a `read` span on
    /// `track`. A read that succeeds is counted; a tile lost for good is
    /// booked in the run's health and returns `None` (its span still shows
    /// the time it took).
    pub(crate) fn load(&self, track: &str, id: TileId) -> Option<Image<u16>> {
        let _span = self.trace.layer(track, "read");
        let img = self.tracker.load(self.source, id, &self.policy.retry)?;
        self.counters.count_read();
        Some(img)
    }

    /// Books the run into `result`: elapsed time, op counts (the stage
    /// window's two and the coarse search's two also as trace counters),
    /// the peak of live transforms (also the `peak_live_tiles` gauge) and
    /// tile health, which fails the run when a tile was lost and the
    /// policy forbids partial output.
    pub(crate) fn finish(
        self,
        mut result: StitchResult,
        peak_live_tiles: usize,
    ) -> Result<StitchResult, StitchError> {
        result.elapsed = self.t0.elapsed();
        result.ops = self.counters.snapshot();
        result.peak_live_tiles = peak_live_tiles;
        self.trace
            .set_gauge("peak_live_tiles", peak_live_tiles as f64);
        let ops = &result.ops;
        self.trace.add_counter("windowed_pairs", ops.windowed_pairs);
        self.trace
            .add_counter("window_fallbacks", ops.window_fallbacks);
        self.trace.add_counter("coarse_pairs", ops.coarse_pairs);
        self.trace
            .add_counter("coarse_fallbacks", ops.coarse_fallbacks);
        result.health = self.tracker.finish(self.policy)?;
        Ok(result)
    }
}
