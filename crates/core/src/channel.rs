//! Multi-channel / z-stack workloads: register once, replay everywhere.
//!
//! Real high-content runs (Opera Phenix-style plates) acquire several
//! fluorescence channels at several focal planes per stage position. The
//! stage moves once, so every channel and plane shares one set of true
//! tile positions — registration therefore runs on a single *reference
//! channel* (optionally its max-z projection), and the solved frame is
//! replayed across all `(channel, plane)` compositions. Per-channel
//! illumination falloff is estimated from the tile stack
//! ([`stitch_image::flatfield`]) and divided out *before* registration:
//! the falloff is tile-fixed, so uncorrected it correlates between
//! overlapping tiles at zero displacement and drags phase-correlation
//! peaks toward the grid.
//!
//! [`MultiTileSource`] is the volumetric analog of [`TileSource`]; thin
//! adapter views ([`PlaneSource`], [`MaxZSource`], [`CorrectedSource`])
//! lower it back onto the existing single-grid machinery, so phases 1–3
//! run unchanged. [`ChannelPlan`] + [`ChannelSession`] hold the policy and
//! the estimated fields; [`run_channel_plan`] is the driver.
//!
//! Around the one registration everything is order-free: a channel's
//! illumination floor is a per-pixel minimum, folded in as many groups as
//! the host has cores, and the compose units share only the solved frame,
//! so they run side by side on the handed-in stitcher's thread count, the
//! mosaics bit-identical to the serial walk and returned in unit order.

use std::path::PathBuf;
use std::sync::Arc;

use stitch_image::par::{default_workers, par_map};
use stitch_image::{
    tiff, FlatField, FlatFieldEstimator, Image, MultiChannelPlate, MultiGridManifest,
};
use stitch_trace::TraceHandle;

use crate::compose::{Blend, Composer};
use crate::fault::{FailurePolicy, SourceError, StitchError};
use crate::global_opt::AbsolutePositions;
use crate::grid::GridShape;
use crate::pass::run_pass;
use crate::source::TileSource;
use crate::stitcher::{StitchResult, Stitcher};
use crate::types::TileId;

/// A multi-channel z-stack tile grid: `channels × z_planes` images per
/// stage position, all sharing one grid geometry.
pub trait MultiTileSource: Send + Sync {
    /// Grid dimensions (stage positions).
    fn shape(&self) -> GridShape;
    /// Tile dimensions `(width, height)` — uniform across the acquisition.
    fn tile_dims(&self) -> (usize, usize);
    /// Number of channels (≥ 1).
    fn channels(&self) -> usize;
    /// Number of focal planes per channel (≥ 1).
    fn z_planes(&self) -> usize;
    /// Loads the image of `(channel, plane)` at grid position `id`.
    fn load_plane(
        &self,
        channel: usize,
        plane: usize,
        id: TileId,
    ) -> Result<Image<u16>, SourceError>;
    /// The stage's nominal overlap, as [`TileSource::nominal_overlap`].
    fn nominal_overlap(&self) -> Option<f64> {
        None
    }
}

/// Images rendered on demand from a [`MultiChannelPlate`] (ground-truth
/// access for tests).
pub struct MultiSyntheticSource {
    plate: MultiChannelPlate,
}

impl MultiSyntheticSource {
    /// Wraps a synthetic multi-channel plate.
    pub fn new(plate: MultiChannelPlate) -> MultiSyntheticSource {
        MultiSyntheticSource { plate }
    }

    /// The underlying plate (ground truth access).
    pub fn plate(&self) -> &MultiChannelPlate {
        &self.plate
    }
}

impl MultiTileSource for MultiSyntheticSource {
    fn shape(&self) -> GridShape {
        GridShape::new(self.plate.base().grid_rows, self.plate.base().grid_cols)
    }

    fn tile_dims(&self) -> (usize, usize) {
        (self.plate.base().tile_width, self.plate.base().tile_height)
    }

    fn channels(&self) -> usize {
        self.plate.channels()
    }

    fn z_planes(&self) -> usize {
        self.plate.z_planes()
    }

    fn load_plane(
        &self,
        channel: usize,
        plane: usize,
        id: TileId,
    ) -> Result<Image<u16>, SourceError> {
        Ok(self.plate.render_tile(channel, plane, id.row, id.col))
    }
}

/// Images read from a multi-channel dataset directory (see
/// [`MultiChannelPlate::write_to_dir`]); also opens legacy single-channel
/// datasets as one channel × one plane. Missing files are reported up
/// front, all at once, like [`DirSource`](crate::source::DirSource).
pub struct MultiDirSource {
    shape: GridShape,
    dims: (usize, usize),
    overlap: f64,
    channels: usize,
    z_planes: usize,
    files: Vec<PathBuf>,
    truth: Vec<(i64, i64)>,
}

impl MultiDirSource {
    /// Opens a dataset directory, validating that every listed image file
    /// exists.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<MultiDirSource, SourceError> {
        let m = MultiGridManifest::load(dir).map_err(|e| SourceError::Manifest {
            detail: e.to_string(),
        })?;
        crate::source::require_files(&m.files)?;
        Ok(MultiDirSource {
            shape: GridShape::new(m.rows, m.cols),
            dims: (m.tile_width, m.tile_height),
            overlap: m.overlap,
            channels: m.channels,
            z_planes: m.z_planes,
            files: m.files,
            truth: m.truth,
        })
    }

    /// Ground-truth stage positions from the manifest (empty when unknown).
    pub fn truth(&self) -> &[(i64, i64)] {
        &self.truth
    }
}

impl MultiTileSource for MultiDirSource {
    fn shape(&self) -> GridShape {
        self.shape
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.dims
    }

    fn channels(&self) -> usize {
        self.channels
    }

    fn z_planes(&self) -> usize {
        self.z_planes
    }

    fn nominal_overlap(&self) -> Option<f64> {
        Some(self.overlap)
    }

    fn load_plane(
        &self,
        channel: usize,
        plane: usize,
        id: TileId,
    ) -> Result<Image<u16>, SourceError> {
        let idx = ((channel * self.z_planes + plane) * self.shape.rows + id.row) * self.shape.cols
            + id.col;
        let path = &self.files[idx];
        tiff::read_tiff(path).map_err(|e| SourceError::Io {
            id,
            detail: format!("{}: {e}", path.display()),
        })
    }
}

/// One `(channel, plane)` of a [`MultiTileSource`] as a plain
/// [`TileSource`]. Loads delegate directly, so the view returns literally
/// identical images — the basis of the replay bit-identity guarantee.
#[derive(Clone)]
pub struct PlaneSource {
    inner: Arc<dyn MultiTileSource>,
    channel: usize,
    plane: usize,
}

impl PlaneSource {
    /// A view of `channel` at `plane`. Panics if either is out of range.
    pub fn new(inner: Arc<dyn MultiTileSource>, channel: usize, plane: usize) -> PlaneSource {
        assert!(channel < inner.channels(), "channel {channel} out of range");
        assert!(plane < inner.z_planes(), "plane {plane} out of range");
        PlaneSource {
            inner,
            channel,
            plane,
        }
    }
}

impl TileSource for PlaneSource {
    fn shape(&self) -> GridShape {
        self.inner.shape()
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.inner.tile_dims()
    }

    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        self.inner.load_plane(self.channel, self.plane, id)
    }

    fn nominal_overlap(&self) -> Option<f64> {
        self.inner.nominal_overlap()
    }
}

/// Per-pixel maximum projection across all focal planes of one channel —
/// the standard way to get one well-focused 2-D image out of a z-stack
/// for registration or preview.
#[derive(Clone)]
pub struct MaxZSource {
    inner: Arc<dyn MultiTileSource>,
    channel: usize,
}

impl MaxZSource {
    /// A max-z projection view of `channel`. Panics if out of range.
    pub fn new(inner: Arc<dyn MultiTileSource>, channel: usize) -> MaxZSource {
        assert!(channel < inner.channels(), "channel {channel} out of range");
        MaxZSource { inner, channel }
    }
}

impl TileSource for MaxZSource {
    fn shape(&self) -> GridShape {
        self.inner.shape()
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.inner.tile_dims()
    }

    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        let mut acc = self.inner.load_plane(self.channel, 0, id)?;
        for plane in 1..self.inner.z_planes() {
            let next = self.inner.load_plane(self.channel, plane, id)?;
            for (a, &b) in acc.pixels_mut().iter_mut().zip(next.pixels()) {
                *a = (*a).max(b);
            }
        }
        Ok(acc)
    }

    fn nominal_overlap(&self) -> Option<f64> {
        self.inner.nominal_overlap()
    }
}

/// A flat-field-corrected view of a [`TileSource`]: every loaded tile is
/// divided by the channel's estimated illumination gain, in place, as a
/// `flatfield` span on the loading thread's track. Wrapping with the
/// identity field is a bit-exact no-op.
#[derive(Clone)]
pub struct CorrectedSource {
    inner: Arc<dyn TileSource>,
    flat: Arc<FlatField>,
    trace: TraceHandle,
}

impl CorrectedSource {
    /// Wraps `inner`, correcting with `flat` and tracing on `trace`.
    /// Panics if the field was estimated for different tile dimensions.
    pub fn new(
        inner: Arc<dyn TileSource>,
        flat: Arc<FlatField>,
        trace: TraceHandle,
    ) -> CorrectedSource {
        assert_eq!(
            flat.dims(),
            inner.tile_dims(),
            "flat field dims must match tile dims"
        );
        CorrectedSource { inner, flat, trace }
    }
}

/// The calling thread's `flatfield` track (nothing formatted when off).
fn flatfield_track(trace: &TraceHandle) -> String {
    let thread = || format!("flatfield/{:?}", std::thread::current().id());
    trace.is_enabled().then(thread).unwrap_or_default()
}

impl TileSource for CorrectedSource {
    fn shape(&self) -> GridShape {
        self.inner.shape()
    }

    fn tile_dims(&self) -> (usize, usize) {
        self.inner.tile_dims()
    }

    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        let mut tile = self.inner.load(id)?;
        let track = flatfield_track(&self.trace);
        let _span = self.trace.layer(&track, "flatfield");
        self.flat.correct_in_place(&mut tile);
        Ok(tile)
    }

    fn nominal_overlap(&self) -> Option<f64> {
        self.inner.nominal_overlap()
    }
}

/// How the z dimension is handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZMode {
    /// Register on one focal plane of the reference channel; compose every
    /// `(channel, plane)` separately.
    Stack,
    /// Register on the max-z projection of the reference channel; compose
    /// one max-z mosaic per channel.
    MaxProject,
}

/// One composition output of a channel run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComposeUnit {
    /// Channel index.
    pub channel: usize,
    /// Focal plane, or `None` for the channel's max-z projection.
    pub plane: Option<usize>,
}

impl ComposeUnit {
    /// Stable name fragment for output files and job names (`c00_z02`,
    /// `c01_maxz`).
    pub fn label(&self) -> String {
        match self.plane {
            Some(z) => format!("c{:02}_z{z:02}", self.channel),
            None => format!("c{:02}_maxz", self.channel),
        }
    }
}

/// Policy for a multi-channel run: where to register, how to handle z,
/// whether to flat-field correct.
#[derive(Clone, Debug)]
pub struct ChannelPlan {
    /// Channel whose images drive registration.
    pub reference_channel: usize,
    /// z handling (see [`ZMode`]).
    pub z_mode: ZMode,
    /// Focal plane used for registration in [`ZMode::Stack`]; `None`
    /// picks the middle plane (least expected defocus).
    pub registration_plane: Option<usize>,
    /// Estimate per-channel flat fields from the tile stack and correct
    /// every image before registration and composition.
    pub correct_illumination: bool,
}

impl Default for ChannelPlan {
    fn default() -> Self {
        ChannelPlan {
            reference_channel: 0,
            z_mode: ZMode::Stack,
            registration_plane: None,
            correct_illumination: false,
        }
    }
}

impl ChannelPlan {
    /// The plane [`ZMode::Stack`] registration reads.
    pub fn effective_registration_plane(&self, z_planes: usize) -> usize {
        self.registration_plane.unwrap_or(z_planes / 2)
    }

    /// Checks the plan against an acquisition's geometry.
    pub fn validate(&self, source: &dyn MultiTileSource) -> Result<(), StitchError> {
        let bad = |detail: String| StitchError::Pipeline { detail };
        if self.reference_channel >= source.channels() {
            return Err(bad(format!(
                "reference channel {} out of range (acquisition has {})",
                self.reference_channel,
                source.channels()
            )));
        }
        if let Some(z) = self.registration_plane {
            if z >= source.z_planes() {
                return Err(bad(format!(
                    "registration plane {z} out of range (acquisition has {})",
                    source.z_planes()
                )));
            }
        }
        Ok(())
    }

    /// The compose units this plan produces for an acquisition.
    pub fn units(&self, channels: usize, z_planes: usize) -> Vec<ComposeUnit> {
        match self.z_mode {
            ZMode::Stack => (0..channels)
                .flat_map(|ch| {
                    (0..z_planes).map(move |z| ComposeUnit {
                        channel: ch,
                        plane: Some(z),
                    })
                })
                .collect(),
            ZMode::MaxProject => (0..channels)
                .map(|ch| ComposeUnit {
                    channel: ch,
                    plane: None,
                })
                .collect(),
        }
    }
}

/// Estimates the flat field of one channel from its full tile stack
/// (every plane at every grid position) on every core the host offers:
/// the floor is a per-pixel minimum, so the stack folds in any grouping.
/// The error, if any, is the walk's first.
pub fn estimate_channel_flat_field(
    source: &dyn MultiTileSource,
    channel: usize,
) -> Result<FlatField, StitchError> {
    let (w, h) = source.tile_dims();
    let mut stack = Vec::new();
    for plane in 0..source.z_planes() {
        stack.extend(source.shape().ids().map(|id| (plane, id)));
    }
    let workers = default_workers();
    let group = stack.len().div_ceil(workers).max(1);
    let floors = par_map(workers, stack.chunks(group), |tiles| {
        let mut est = FlatFieldEstimator::new(w, h);
        for &(plane, id) in tiles {
            match source.load_plane(channel, plane, id) {
                Ok(tile) => est.add(&tile),
                Err(error) => return Err(StitchError::Tile { id, error }),
            }
        }
        Ok(est)
    });
    let mut est = FlatFieldEstimator::new(w, h);
    for floor in floors {
        est.merge(&floor?);
    }
    Ok(est.finish())
}

/// A validated plan bound to an acquisition, with per-channel flat fields
/// estimated once up front (the identity when correction is off).
pub struct ChannelSession {
    source: Arc<dyn MultiTileSource>,
    plan: ChannelPlan,
    flats: Vec<Arc<FlatField>>,
    trace: TraceHandle,
}

impl ChannelSession {
    /// Validates the plan and estimates flat fields.
    pub fn new(
        source: Arc<dyn MultiTileSource>,
        plan: ChannelPlan,
    ) -> Result<ChannelSession, StitchError> {
        ChannelSession::traced(source, plan, &TraceHandle::disabled())
    }

    /// [`ChannelSession::new`] with each channel's fit, and every tile its
    /// corrected sources load, a `flatfield` span on `trace`.
    pub fn traced(
        source: Arc<dyn MultiTileSource>,
        plan: ChannelPlan,
        trace: &TraceHandle,
    ) -> Result<ChannelSession, StitchError> {
        plan.validate(source.as_ref())?;
        let (w, h) = source.tile_dims();
        let mut flats = Vec::with_capacity(source.channels());
        for ch in 0..source.channels() {
            let flat = if plan.correct_illumination {
                let track = flatfield_track(trace);
                let _span = trace.layer(&track, "flatfield");
                estimate_channel_flat_field(source.as_ref(), ch)?
            } else {
                FlatField::identity(w, h)
            };
            flats.push(Arc::new(flat));
        }
        Ok(ChannelSession {
            source,
            plan,
            flats,
            trace: trace.clone(),
        })
    }

    /// The plan this session runs.
    pub fn plan(&self) -> &ChannelPlan {
        &self.plan
    }

    /// The acquisition.
    pub fn source(&self) -> &Arc<dyn MultiTileSource> {
        &self.source
    }

    /// The estimated flat field of a channel.
    pub fn flat(&self, channel: usize) -> &Arc<FlatField> {
        &self.flats[channel]
    }

    /// The compose units of this run.
    pub fn units(&self) -> Vec<ComposeUnit> {
        self.plan
            .units(self.source.channels(), self.source.z_planes())
    }

    /// The single-grid source registration reads: the reference channel's
    /// registration plane ([`ZMode::Stack`]) or max-z projection
    /// ([`ZMode::MaxProject`]), flat-field corrected per the plan.
    pub fn registration_source(&self) -> Arc<dyn TileSource> {
        let unit = match self.plan.z_mode {
            ZMode::Stack => ComposeUnit {
                channel: self.plan.reference_channel,
                plane: Some(
                    self.plan
                        .effective_registration_plane(self.source.z_planes()),
                ),
            },
            ZMode::MaxProject => ComposeUnit {
                channel: self.plan.reference_channel,
                plane: None,
            },
        };
        self.unit_source(unit)
    }

    /// The single-grid source composing `unit` reads (corrected per the
    /// plan). Correction applies to the projected tile in max-z units,
    /// matching the registration input exactly.
    pub fn unit_source(&self, unit: ComposeUnit) -> Arc<dyn TileSource> {
        let base: Arc<dyn TileSource> = match unit.plane {
            Some(z) => Arc::new(PlaneSource::new(Arc::clone(&self.source), unit.channel, z)),
            None => Arc::new(MaxZSource::new(Arc::clone(&self.source), unit.channel)),
        };
        let flat = Arc::clone(&self.flats[unit.channel]);
        if flat.is_identity() {
            base
        } else {
            Arc::new(CorrectedSource::new(base, flat, self.trace.clone()))
        }
    }

    /// One pass over the registration source (default [`FailurePolicy`]);
    /// then, only when `blend` is given, the frame replayed over every
    /// unit on `stitcher`'s thread count, each compose traced on `trace`.
    pub fn replay(
        &self,
        stitcher: &dyn Stitcher,
        blend: Option<Blend>,
        trace: &TraceHandle,
    ) -> Result<ChannelRun, StitchError> {
        let (reg, policy) = (self.registration_source(), FailurePolicy::default());
        let pass = run_pass(stitcher, reg.as_ref(), &policy, None, trace, &|| false)?;
        let positions = pass.positions.expect("a pass that is never stopped solves");
        // the units are the pass's one level of threads: each composes alone
        let mosaics = match blend {
            Some(blend) => par_map(stitcher.threads(), self.units(), |unit| {
                let composer = Composer::new(positions.clone(), blend)
                    .with_workers(1)
                    .with_retry(policy.retry.clone())
                    .with_trace(trace.clone());
                (unit, composer.compose(self.unit_source(unit).as_ref()))
            }),
            None => Vec::new(),
        };
        Ok(ChannelRun {
            registration: pass.result,
            positions,
            mosaics,
        })
    }
}

/// The output of a channel run: the reference registration, the solved
/// frame, and one mosaic per compose unit — all sharing the same
/// positions.
pub struct ChannelRun {
    /// Phase-1 output on the registration source.
    pub registration: StitchResult,
    /// The solved frame every unit is composed with.
    pub positions: AbsolutePositions,
    /// One mosaic per compose unit, in [`ChannelSession::units`] order
    /// (none when the replay was asked for no mosaics).
    pub mosaics: Vec<(ComposeUnit, Image<u16>)>,
}

/// The one channel driver: [`ChannelSession::replay`] with every unit
/// composed and nothing traced. `stitch_testkit`'s
/// channel differential proves every unit composed with positions
/// bit-identical to a solo run over the reference source.
pub fn run_channel_plan(
    session: &ChannelSession,
    stitcher: &dyn Stitcher,
    blend: Blend,
) -> Result<ChannelRun, StitchError> {
    session.replay(stitcher, Some(blend), &TraceHandle::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_image::{MultiScanConfig, ScanConfig};

    fn small_source() -> Arc<dyn MultiTileSource> {
        let cfg = MultiScanConfig::for_channels(
            ScanConfig {
                grid_rows: 2,
                grid_cols: 3,
                tile_width: 48,
                tile_height: 36,
                ..ScanConfig::default()
            },
            2,
            3,
        );
        Arc::new(MultiSyntheticSource::new(MultiChannelPlate::generate(cfg)))
    }

    #[test]
    fn plane_view_is_bit_identical_to_direct_load() {
        let src = small_source();
        let view = PlaneSource::new(Arc::clone(&src), 1, 2);
        let id = TileId::new(1, 1);
        assert_eq!(
            view.load(id).unwrap(),
            src.load_plane(1, 2, id).unwrap(),
            "plane view must delegate bit-for-bit"
        );
    }

    #[test]
    fn maxz_is_pixelwise_upper_bound_of_planes() {
        let src = small_source();
        let proj = MaxZSource::new(Arc::clone(&src), 0)
            .load(TileId::new(0, 0))
            .unwrap();
        let mut expected = src.load_plane(0, 0, TileId::new(0, 0)).unwrap();
        for z in 1..src.z_planes() {
            let p = src.load_plane(0, z, TileId::new(0, 0)).unwrap();
            for (a, &b) in expected.pixels_mut().iter_mut().zip(p.pixels()) {
                *a = (*a).max(b);
            }
        }
        assert_eq!(proj, expected);
    }

    #[test]
    fn identity_correction_is_noop_and_skipped() {
        let src = small_source();
        let session = ChannelSession::new(
            Arc::clone(&src),
            ChannelPlan {
                correct_illumination: false,
                ..ChannelPlan::default()
            },
        )
        .unwrap();
        assert!(session.flat(0).is_identity());
        let unit = ComposeUnit {
            channel: 0,
            plane: Some(0),
        };
        let id = TileId::new(0, 1);
        assert_eq!(
            session.unit_source(unit).load(id).unwrap(),
            src.load_plane(0, 0, id).unwrap()
        );
    }

    #[test]
    fn plan_validation_rejects_out_of_range() {
        let src = small_source();
        let bad_ch = ChannelPlan {
            reference_channel: 9,
            ..ChannelPlan::default()
        };
        assert!(bad_ch.validate(src.as_ref()).is_err());
        let bad_z = ChannelPlan {
            registration_plane: Some(7),
            ..ChannelPlan::default()
        };
        assert!(bad_z.validate(src.as_ref()).is_err());
    }

    #[test]
    fn units_enumerate_stack_and_maxz() {
        let plan = ChannelPlan::default();
        assert_eq!(plan.units(2, 3).len(), 6);
        let maxz = ChannelPlan {
            z_mode: ZMode::MaxProject,
            ..ChannelPlan::default()
        };
        let units = maxz.units(2, 3);
        assert_eq!(units.len(), 2);
        assert!(units.iter().all(|u| u.plane.is_none()));
        assert_eq!(units[1].label(), "c01_maxz");
    }

    /// `inner` with one `(channel, plane, tile)` that cannot be read.
    struct Holed(Arc<dyn MultiTileSource>, (usize, usize, TileId));

    impl MultiTileSource for Holed {
        fn shape(&self) -> GridShape {
            self.0.shape()
        }
        fn tile_dims(&self) -> (usize, usize) {
            self.0.tile_dims()
        }
        fn channels(&self) -> usize {
            self.0.channels()
        }
        fn z_planes(&self) -> usize {
            self.0.z_planes()
        }
        fn load_plane(
            &self,
            channel: usize,
            plane: usize,
            id: TileId,
        ) -> Result<Image<u16>, SourceError> {
            if (channel, plane, id) == self.1 {
                let detail = "hole".to_string();
                return Err(SourceError::Corrupt { id, detail });
            }
            self.0.load_plane(channel, plane, id)
        }
    }

    #[test]
    fn run_replays_one_frame_across_all_units_on_any_thread_count() {
        // a tile of a unit registration never reads cannot be loaded: that
        // unit's mosaic keeps the same hole however the units are spread
        let hole = (1, 0, TileId::new(1, 2));
        let src: Arc<dyn MultiTileSource> = Arc::new(Holed(small_source(), hole));
        let session = ChannelSession::new(Arc::clone(&src), ChannelPlan::default()).unwrap();
        // threads below, at and above the six units
        for threads in [1, 2, 3, 6, 8] {
            let stitcher = crate::mt_cpu::MtCpuStitcher::new(threads);
            let run = run_channel_plan(&session, &stitcher, Blend::Overlay).unwrap();
            let order: Vec<ComposeUnit> = run.mosaics.iter().map(|(unit, _)| *unit).collect();
            assert_eq!(order, session.units(), "{threads} threads");
            // every unit's mosaic equals a solo compose with the same frame
            for (unit, mosaic) in &run.mosaics {
                let solo = Composer::new(run.positions.clone(), Blend::Overlay)
                    .with_workers(1)
                    .compose(session.unit_source(*unit).as_ref());
                assert_eq!(mosaic, &solo, "unit {} diverged", unit.label());
            }
            let (tw, th) = src.tile_dims();
            let (hx, hy) = run.positions.get(hole.2);
            let holed = &run.mosaics[3];
            assert_eq!((holed.0.channel, holed.0.plane), (1, Some(0)));
            assert_eq!(holed.1.get(hx as usize + tw - 1, hy as usize + th - 1), 0);
        }
    }

    #[test]
    fn flat_field_floor_is_the_serial_fold() {
        let src = small_source();
        let (w, h) = src.tile_dims();
        for channel in 0..src.channels() {
            let mut est = FlatFieldEstimator::new(w, h);
            for plane in 0..src.z_planes() {
                for id in src.shape().ids() {
                    est.add(&src.load_plane(channel, plane, id).unwrap());
                }
            }
            let folded = estimate_channel_flat_field(src.as_ref(), channel).unwrap();
            assert_eq!(folded, est.finish());
        }
    }
}
