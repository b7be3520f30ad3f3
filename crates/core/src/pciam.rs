//! PCIAM — the phase correlation image alignment method (paper §III).
//!
//! Implements the data-flow of Fig 1 / pseudo-code of Fig 2 for one
//! adjacent pair `(a, b)`:
//!
//! 1. forward 2-D FFTs of both tiles;
//! 2. `NCC = (F_a ⊗ conj(F_b)) / |·|` — element-wise normalized conjugate
//!    multiply;
//! 3. inverse 2-D FFT of the NCC;
//! 4. max-|·| reduction → peak index `(x, y)`;
//! 5. periodicity disambiguation: the peak is only defined modulo the tile
//!    size, so the true displacement is one of the four signed candidates
//!    `{x, x−W} × {y, y−H}` (equivalently the paper's overlap modes
//!    `(x | W−x) × (y | H−y)` — same four overlap geometries, expressed
//!    with signs so northern/western jitter can be negative);
//! 6. each candidate is scored by the cross-correlation factor (Fig 3:
//!    Pearson correlation of the overlap pixels) and the best wins, after
//!    a short hill-climb of the plausible ones ([`resolve_peaks_oriented`]).
//!
//! **Convention**: `pciam(a, b)` returns `d = position(b) − position(a)`
//! in plate coordinates — pixel `p` of `b` shows the same plate content as
//! pixel `p + d` of `a`. For a west pair, `a` is the western tile and `d.x
//! ≈ +step`; for a north pair, `a` is the northern tile and `d.y ≈ +step`.

use std::sync::Arc;

use stitch_fft::vectorops::top_peaks_into;
use stitch_fft::{Planner, RealFft2d, RowBand, C32};
use stitch_image::{buf, Image};
use stitch_trace::TraceHandle;

use crate::hostpool::{PooledSpectrum, SpectrumPool};
use crate::opcount::OpCounters;
use crate::phase1::Meter;
use crate::types::{Displacement, PairKind};

/// Minimum overlap area (in pixels) for a CCF candidate to be considered.
/// Below this the correlation estimate is meaningless noise.
const MIN_OVERLAP_PIXELS: i64 = 4;

/// How many correlation peaks are tested with the CCF before picking a
/// displacement. The paper's Fig 2 uses the single max; the ImageJ/Fiji
/// plugin it compares against checks several peaks, and with small
/// overlaps the true peak is frequently not the global one (spectral
/// leakage puts spurious maxima on the axes). Checking the top few peaks
/// costs four cheap CCF evaluations each and removes that failure mode.
pub const DEFAULT_PEAK_COUNT: usize = 8;

/// Slots of the per-pair CCF memo table. The gated search scores some 60
/// distinct cells per pair where the overlap is workable, up to ~1000 on
/// 6-pixel overlaps; once the table is half full a cell is simply
/// evaluated again — memoisation saves work and never changes a value.
const MEMO_SLOTS: usize = 2048;
const _: () = assert!(MEMO_SLOTS.is_power_of_two());

/// `(generation, (dx, dy), ccf)`: live when the generation is the
/// current pair's, so a new pair empties the table without touching it.
type MemoSlot = (u64, (i64, i64), f64);

/// How far, in pixels per axis, a stage may land from where it was sent:
/// the synthetic stage's ±3 px jitter per tile plus 1.5 px of backlash,
/// twice over.
const STAGE_REPEATABILITY: i64 = 16;

/// The stage window of a `kind` pair of `width × height` tiles on a stage
/// at nominal `overlap`: where its answer can lie on a stage that stepped
/// by the tile size times `1 − overlap`, within [`STAGE_REPEATABILITY`]
/// of that step per axis. As the step and the surface rows its `dy` range
/// falls on; `None` without an overlap in `(0, 1)` or when those rows
/// would pass a quarter of the surface (under 132 rows).
fn stage_window(
    (width, height): (usize, usize),
    kind: PairKind,
    overlap: Option<f64>,
) -> Option<((i64, i64), RowBand)> {
    let r = STAGE_REPEATABILITY;
    let band = 2 * r as usize + 1;
    let overlap = overlap.filter(|o| *o > 0.0 && *o < 1.0)?;
    if 4 * band > height {
        return None;
    }
    let step = |n: usize| (n as f64 * (1.0 - overlap)).round() as i64;
    let step = match kind {
        PairKind::West => (step(width), 0),
        PairKind::North => (0, step(height)),
    };
    let start = (step.1 - r).rem_euclid(height as i64) as usize;
    Some((step, RowBand::new(start, band, height)))
}

/// The resolution factor of the Fourier half of PCIAM for `width ×
/// height` tiles on a stage at nominal `overlap`: 2 when the 2×2-binned
/// tile would take a stage window (even sides, at least 264 rows), and
/// otherwise 1. A rule of the geometry, not an option (DESIGN.md § PCIAM
/// "Coarse-to-fine").
pub(crate) fn resolution((width, height): (usize, usize), overlap: Option<f64>) -> usize {
    let binned = stage_window((width / 2, height / 2), PairKind::North, overlap);
    1 + usize::from(width % 2 == 0 && height % 2 == 0 && binned.is_some())
}

/// How one pair is searched: its Fourier half at `1/factor` resolution
/// over `rows` of the surface, its CCF within `2R` of the stage's nominal
/// step, if the stage gives a window — so that a truth just outside the
/// window shows itself (DESIGN.md § PCIAM).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Search {
    factor: usize,
    /// The surface rows the inverse computes.
    pub(crate) rows: RowBand,
    /// The nominal step, the full-resolution window's centre.
    step: Option<(i64, i64)>,
}

impl Search {
    /// The search of a `kind` pair (`None`: unoriented) of `dims` tiles
    /// whose Fourier half runs at `factor` on a stage at nominal
    /// `overlap`, the one place a search is derived: at factor 2 the
    /// inverse covers the binned tile's own window rows.
    pub(crate) fn new(
        dims: (usize, usize),
        kind: Option<PairKind>,
        overlap: Option<f64>,
        factor: usize,
    ) -> Search {
        let window = |dims| kind.and_then(|kind| stage_window(dims, kind, overlap));
        let coarse = (dims.0 / factor, dims.1 / factor);
        Search {
            factor,
            rows: window(coarse).map_or(RowBand::all(coarse.1), |(_, rows)| rows),
            step: window(dims).map(|(step, _)| step),
        }
    }

    /// How far `(dx, dy)` lies from the nominal step, on the farther axis
    /// (0 without a window).
    fn offset(&self, dx: i64, dy: i64) -> i64 {
        self.step
            .map_or(0, |(x, y)| (dx - x).abs().max((dy - y).abs()))
    }

    /// Whether windowed winner `d` is set aside, counting the pair: below
    /// [`CONVINCING_CCF`], or not inside the window — on its edge, where a
    /// climb toward a truth outside may stop, or beyond it. At factor 1 it
    /// is set aside for the whole surface's answer; at factor 2, as is one
    /// whose climb did not `converge`, for a redo at factor 1.
    fn falls_back(&self, d: &Displacement, converged: bool, ops: &OpCounters) -> bool {
        if self.step.is_none() {
            return false;
        }
        let weak = d.correlation < CONVINCING_CCF || self.offset(d.x, d.y) >= STAGE_REPEATABILITY;
        let doubtful = weak || (self.factor == 2 && !converged);
        ops.count_windowed_pair(self.factor == 2, doubtful);
        doubtful
    }
}

/// Reusable working memory of one CCF disambiguation, sized once so the
/// steady-state pair computation is allocation-free.
pub(crate) struct CcfScratch {
    scored: Vec<(f64, Displacement)>,
    memo: Box<[MemoSlot]>,
    generation: u64,
}

impl Default for CcfScratch {
    fn default() -> Self {
        CcfScratch {
            scored: Vec::with_capacity(4 * DEFAULT_PEAK_COUNT),
            memo: vec![(0, (0, 0), 0.0); MEMO_SLOTS].into(),
            generation: 0,
        }
    }
}

/// Reusable per-pair working vectors (peak gather/output buffers, CCF
/// scratch). Capacities converge after the first pair, making the
/// steady-state pair computation allocation-free.
#[derive(Default)]
struct PairScratch {
    cand: Vec<(usize, f64)>,
    peaks: Vec<(usize, f64)>,
    ccf: CcfScratch,
}

/// Per-thread context for PCIAM computations over one tile geometry:
/// holds the planned transforms, scratch memory, and a [`SpectrumPool`]
/// that recycles tile-spectrum buffers, so the steady-state hot path
/// performs no heap allocation at all.
///
/// A tile is real, so its spectrum is Hermitian and the `(w/2+1)·h` bins
/// of the real-input transform carry all of it (the paper's §VI-A "real
/// to complex" step: less work, half the memory). That half spectrum is
/// the only layout: the NCC of two Hermitian spectra is Hermitian, and
/// the complex-to-real inverse takes it straight to the real `w × h`
/// correlation surface, whose torus period is the tile size.
///
/// Spectra, NCC and surface are single precision ([`C32`], `f32`): the
/// transforms are memory-bound, and the NCC keeps only each bin's phase,
/// which `f32` carries to ≈ 1e-5 rad at the noise floor — far inside what
/// decides which peaks enter the top [`DEFAULT_PEAK_COUNT`]. The CCF that
/// picks the winner is exact integer co-moments of the `u16` pixels and
/// one `f64` division (DESIGN.md § "Precision").
///
/// On a stage whose tiles qualify ([`resolution`] 2), the Fourier half —
/// transforms, NCC, surface, peaks, and the spectra of the pool — runs on
/// 2×2-binned tiles, the CCF at full resolution, and a doubtful pair is
/// redone by a factor-1 context this one holds.
///
/// Each step is timed where it is counted: a context built
/// [`traced`](PciamContext::traced) stamps `fft_fwd`, `ncc`, `fft_inv`,
/// `peak` and `ccf` spans on its track; an untraced one stays
/// allocation-free.
pub struct PciamContext {
    width: usize,
    height: usize,
    /// The Fourier half runs on tiles binned by this factor
    /// ([`resolution`]): the transforms, buffers and pool below are
    /// `width/factor × height/factor`.
    factor: usize,
    fft: RealFft2d<f32>,
    /// NCC output, one spectrum; the inverse transform works in it.
    /// Taken from the recycler on first use, like the two below, and
    /// given back on drop.
    work: Vec<C32>,
    /// The correlation surface.
    surface: Vec<f32>,
    /// A tile binned (or widened) to `f32`, exactly.
    real_in: Vec<f32>,
    pool: SpectrumPool,
    pair: PairScratch,
    meter: Meter,
    /// The stage's nominal overlap: with it, oriented pairs are searched
    /// within their stage window.
    overlap: Option<f64>,
    /// At factor 2, the factor-1 context on the same stage that redoes a
    /// doubtful pair: planned with this one, its buffers allocated on
    /// its first redo.
    fine: Option<Box<PciamContext>>,
}

impl PciamContext {
    /// Element count of one tile spectrum over `width × height` tiles on
    /// a stage at nominal `overlap` (`None`: no stage): the spectrum at
    /// the [`resolution`] those tiles' Fourier half runs at. Every
    /// spectrum pool and device transform buffer takes its size from
    /// here.
    pub fn spectrum_len((width, height): (usize, usize), overlap: Option<f64>) -> usize {
        let factor = resolution((width, height), overlap);
        stitch_fft::real::spectrum_len(width / factor) * (height / factor)
    }

    /// Bytes of one tile spectrum, as [`PciamContext::spectrum_len`]: the
    /// one source every memory budget and reservation prices a spectrum
    /// by.
    pub fn spectrum_bytes(dims: (usize, usize), overlap: Option<f64>) -> usize {
        Self::spectrum_len(dims, overlap) * std::mem::size_of::<C32>()
    }

    /// Builds a context for `width × height` tiles, without a stage, with
    /// a private spectrum pool. Plans come from (and are cached by)
    /// `planner`.
    pub fn new(planner: &Planner, width: usize, height: usize, counters: Arc<OpCounters>) -> Self {
        let pool = SpectrumPool::new(Self::spectrum_len((width, height), None));
        Self::with_pool(planner, (width, height), None, counters, pool)
    }

    /// A context for `dims` tiles on a stage at nominal `overlap` (`None`:
    /// no stage), recycling spectra through `pool` — the multi-threaded
    /// stitchers hand one pool to every worker so buffers released by one
    /// thread serve another's next tile. The pool must hold buffers of
    /// [`PciamContext::spectrum_len`] elements. On a stage it searches
    /// every oriented pair within its stage window, at the stage's
    /// [`resolution`].
    pub fn with_pool(
        planner: &Planner,
        dims: (usize, usize),
        overlap: Option<f64>,
        counters: Arc<OpCounters>,
        pool: SpectrumPool,
    ) -> Self {
        let factor = resolution(dims, overlap);
        let len = Self::spectrum_len(dims, overlap);
        assert_eq!(pool.buf_len(), len, "pool sized for other tiles");
        let meter = Meter::new(counters, &TraceHandle::disabled(), String::new());
        let fine = (factor == 2)
            .then(|| Box::new(Self::full_resolution(planner, dims, overlap, meter.clone())));
        let mut ctx = Self::build(planner, dims, overlap, factor, pool, meter);
        ctx.fine = fine;
        ctx
    }

    /// The factor-1 context on a stage at nominal `overlap` that redoes
    /// the doubtful pairs of a factor-2 one (and a GPU schedule's on its
    /// host), counting and stamping on `meter`.
    pub(crate) fn full_resolution(
        planner: &Planner,
        dims: (usize, usize),
        overlap: Option<f64>,
        meter: Meter,
    ) -> Self {
        let pool = SpectrumPool::new(Self::spectrum_len(dims, None));
        Self::build(planner, dims, overlap, 1, pool, meter)
    }

    fn build(
        planner: &Planner,
        (width, height): (usize, usize),
        overlap: Option<f64>,
        factor: usize,
        pool: SpectrumPool,
        meter: Meter,
    ) -> Self {
        PciamContext {
            width,
            height,
            factor,
            fft: RealFft2d::new(planner, width / factor, height / factor),
            work: Vec::new(),
            surface: Vec::new(),
            real_in: Vec::new(),
            pool,
            pair: PairScratch::default(),
            meter,
            overlap,
            fine: None,
        }
    }

    /// Stamps every step this context runs as a span of its layer on
    /// `track` of `trace`.
    pub fn traced(mut self, trace: &TraceHandle, track: String) -> Self {
        self.meter = Meter::new(Arc::clone(&self.meter.counters), trace, track);
        if let Some(fine) = &mut self.fine {
            fine.meter = self.meter.clone();
        }
        self
    }

    /// Step 2 of Fig 2: the forward 2-D FFT of a tile, binned to the
    /// context's resolution. The returned spectrum's storage comes from
    /// (and returns to) the context's [`SpectrumPool`] — drop it and the
    /// next tile reuses the memory.
    pub fn forward_fft(&mut self, img: &Image<u16>) -> PooledSpectrum {
        assert_eq!(img.dims(), (self.width, self.height), "tile dims mismatch");
        let _span = self.meter.span("fft_fwd");
        let mut spec = self.pool.acquire();
        if self.real_in.is_empty() {
            self.real_in = buf::take(self.fft.width() * self.fft.height());
        }
        stitch_fft::bin_into(img.pixels(), self.width, self.factor, &mut self.real_in);
        self.fft.forward(&self.real_in, &mut spec);
        self.meter.counters.count_forward_fft(&self.fft);
        spec
    }

    /// Steps 4–7 of Fig 2: NCC, inverse FFT, max reduction. Returns up to
    /// `k` distinct peaks (suppressing near-duplicates) as flat index and
    /// magnitude, strongest first. Indices are row-major over the
    /// surface, which is the tile's at factor 1.
    pub fn correlation_peaks(&mut self, fa: &[C32], fb: &[C32], k: usize) -> Vec<(usize, f64)> {
        self.correlation_peaks_into(fa, fb, k, RowBand::all(self.fft.height()));
        self.pair.peaks.clone()
    }

    /// Allocation-free core of [`PciamContext::correlation_peaks`] over
    /// the surface rows of `band`: the result lands in `self.pair.peaks`.
    fn correlation_peaks_into(&mut self, fa: &[C32], fb: &[C32], k: usize, band: RowBand) {
        assert_eq!(fa.len(), self.pool.buf_len());
        assert_eq!(fb.len(), self.pool.buf_len());
        if self.work.is_empty() {
            self.work = buf::take(self.pool.buf_len());
            self.surface = buf::take(self.fft.width() * self.fft.height());
        }
        let meter = &self.meter;
        // The NCC is the paper's first hand-vectorized kernel (§IV-A) and
        // goes through the process-wide compute backend.
        let span = meter.span("ncc");
        stitch_fft::backend::active().ncc(fa, fb, &mut self.work);
        meter.counters.count_elementwise();
        drop(span);
        let span = meter.span("fft_inv");
        self.fft
            .inverse_band(&mut self.work, &mut self.surface, band);
        meter.counters.count_inverse_fft(&self.fft, band);
        drop(span);
        self.peaks_in(band, k);
    }

    /// The whole-surface answer of a pair whose windowed winner fell back
    /// (factor 1): the rows the window's inverse skipped, then the CCF
    /// over the whole surface's peaks.
    fn whole_surface(
        &mut self,
        band: RowBand,
        (a, b): (&Image<u16>, &Image<u16>),
        kind: Option<PairKind>,
    ) -> Displacement {
        let span = self.meter.span("fft_inv");
        self.fft
            .inverse_rest(&mut self.work, &mut self.surface, band);
        self.meter.counters.count_inverse_rest(&self.fft, band);
        drop(span);
        self.peaks_in(RowBand::all(self.height), DEFAULT_PEAK_COUNT);
        let whole = Search::new((self.width, self.height), None, None, 1);
        self.resolve((a, b), kind, &whole).0
    }

    /// Step 7 of Fig 2 over the surface rows of `band`.
    fn peaks_in(&mut self, band: RowBand, k: usize) {
        let (meter, PairScratch { cand, peaks, .. }) = (&self.meter, &mut self.pair);
        let _span = meter.span("peak");
        let magnitude = |v: f32| f64::from(v.abs());
        let width = self.fft.width();
        top_peaks_into(&self.surface, width, band, k, magnitude, cand, peaks);
        meter.counters.count_max_reduction();
    }

    /// Full pair computation from precomputed transforms plus the pixel
    /// data needed for CCF disambiguation. `kind` makes the scan geometry
    /// explicit: for a [`PairKind::West`] pair tile `b` is physically east
    /// of `a` (`dx ≥ 1`), for [`PairKind::North`] it is physically south
    /// (`dy ≥ 1`). The constraint discards scene-self-similarity matches
    /// in the impossible half-plane — the same stage-model prior NIST's
    /// production tool applies; `None` is unconstrained. `fa` / `fb`
    /// are what [`PciamContext::forward_fft`] returned for the two tiles.
    ///
    /// A context on a stage searches an oriented pair within its stage
    /// window, if any: the inverse and the peak search cover its
    /// rows, no candidate leaves it. At factor 1 a weak windowed winner
    /// is set aside for the whole surface's; at factor 2 a doubtful one
    /// for the factor-1 context's answer, as is an unoriented pair.
    pub fn displacement_oriented(
        &mut self,
        fa: &PooledSpectrum,
        fb: &PooledSpectrum,
        img_a: &Image<u16>,
        img_b: &Image<u16>,
        kind: Option<PairKind>,
    ) -> Displacement {
        let dims = (self.width, self.height);
        let search = Search::new(dims, kind, self.overlap, self.factor);
        if let Some(fine) = self.fine.as_mut().filter(|_| search.step.is_none()) {
            return fine.pciam(img_a, img_b, kind);
        }
        self.correlation_peaks_into(fa, fb, DEFAULT_PEAK_COUNT, search.rows);
        let (d, converged) = self.resolve((img_a, img_b), kind, &search);
        if !search.falls_back(&d, converged, &self.meter.counters) {
            return d;
        }
        match &mut self.fine {
            Some(fine) => fine.pciam(img_a, img_b, kind),
            None => self.whole_surface(search.rows, (img_a, img_b), kind),
        }
    }

    /// Step 8 onwards over the peaks in `self.pair.peaks`.
    fn resolve(
        &mut self,
        pair: (&Image<u16>, &Image<u16>),
        kind: Option<PairKind>,
        search: &Search,
    ) -> (Displacement, bool) {
        let PairScratch { peaks, ccf, .. } = &mut self.pair;
        let peaks = peaks.iter().map(|&(i, _)| i);
        resolve_peaks_oriented_into(peaks, pair, kind, search, ccf, &self.meter)
    }

    /// Convenience: the whole of Fig 2 for a `kind` pair of images (see
    /// [`PciamContext::displacement_oriented`]); the redo of a factor-2
    /// context's doubtful pair runs this on its factor-1 context.
    pub fn pciam(
        &mut self,
        a: &Image<u16>,
        b: &Image<u16>,
        kind: Option<PairKind>,
    ) -> Displacement {
        let (fa, fb) = (self.forward_fft(a), self.forward_fft(b));
        self.displacement_oriented(&fa, &fb, a, b, kind)
    }

    /// A GPU schedule's host side of a `kind` pair, on a CCF worker's
    /// [`full_resolution`](PciamContext::full_resolution) context: the CCF
    /// over the `peaks` of the device surface searched as `search`, and
    /// for a winner that falls back the CPU path's own fallback, counted
    /// as the CPU counts it — at factor 2 the redo; at factor 1 a replay
    /// of the window, uncounted, then the whole surface.
    pub(crate) fn resolve_device(
        &mut self,
        peaks: impl Iterator<Item = usize>,
        (a, b): (&Image<u16>, &Image<u16>),
        kind: PairKind,
        search: Search,
    ) -> Displacement {
        let (ccf, kind) = (&mut self.pair.ccf, Some(kind));
        let (d, converged) =
            resolve_peaks_oriented_into(peaks, (a, b), kind, &search, ccf, &self.meter);
        if !search.falls_back(&d, converged, &self.meter.counters) {
            return d;
        }
        if search.factor == 2 {
            return self.pciam(a, b, kind);
        }
        let counted = std::mem::take(&mut self.meter);
        let (fa, fb) = (self.forward_fft(a), self.forward_fft(b));
        self.correlation_peaks_into(&fa, &fb, DEFAULT_PEAK_COUNT, search.rows);
        self.meter = counted;
        self.whole_surface(search.rows, (a, b), kind)
    }
}

impl Drop for PciamContext {
    fn drop(&mut self) {
        buf::give(std::mem::take(&mut self.work));
        buf::give(std::mem::take(&mut self.surface));
        buf::give(std::mem::take(&mut self.real_in));
    }
}

/// Converts a correlation-peak index into the four signed displacement
/// candidates implied by FFT periodicity (Fig 2 steps 8–11) on `width ×
/// height` tiles whose surface ran at `1/factor` resolution: peak `(x, y)`
/// of the binned surface stands for `(factor·x, factor·y)` of the tile's.
pub fn peak_candidates(
    peak: usize,
    (width, height): (usize, usize),
    factor: usize,
) -> [(i64, i64); 4] {
    let cols = width / factor;
    let x = (factor * (peak % cols)) as i64;
    let y = (factor * (peak / cols)) as i64;
    let w = width as i64;
    let h = height as i64;
    [(x, y), (x - w, y), (x, y - h), (x - w, y - h)]
}

/// Scores the four interpretation candidates of *each* peak with the CCF
/// and returns the global winner (Fig 2 step 12), under an optional
/// pair-orientation constraint; see
/// [`PciamContext::displacement_oriented`].
///
/// Candidates are ranked by correlation *significance* — the t-statistic
/// of `candidate_score` — rather than the raw coefficient: a 0.8
/// correlation over a one-pixel-thin sliver is far weaker evidence than
/// 0.6 over a thousand-pixel strip, and without the weighting thin slivers
/// win often enough to corrupt grids. A peak can land a pixel or two off
/// the truth, where it scores below a spurious-but-smooth candidate
/// although its hill-climbed form wins decisively, so candidates are
/// climbed before they are compared: in descending initial significance,
/// the leader always, a later one only if it passes `climb_gate`.
/// Panics when the tiles are not both `width × height`.
pub fn resolve_peaks_oriented(
    peaks: &[usize],
    width: usize,
    height: usize,
    img_a: &Image<u16>,
    img_b: &Image<u16>,
    kind: Option<PairKind>,
) -> Displacement {
    assert_eq!(img_a.dims(), (width, height), "tile dims mismatch");
    let (peaks, mut scratch) = (peaks.iter().copied(), CcfScratch::default());
    let (meter, whole) = (Meter::default(), Search::new(img_a.dims(), None, None, 1));
    resolve_peaks_oriented_into(peaks, (img_a, img_b), kind, &whole, &mut scratch, &meter).0
}

/// Allocation-free core of [`resolve_peaks_oriented`] over the peaks of
/// a surface at `search`'s resolution, scoring nothing outside its
/// window: works in the caller's `scratch`, counts the group and its
/// probes on `meter` and stamps it there as `ccf`. Also says whether the
/// winner's climb reached a local maximum.
pub(crate) fn resolve_peaks_oriented_into(
    peaks: impl Iterator<Item = usize>,
    (a, b): (&Image<u16>, &Image<u16>),
    kind: Option<PairKind>,
    search: &Search,
    scratch: &mut CcfScratch,
    meter: &Meter,
) -> (Displacement, bool) {
    let _span = meter.span("ccf");
    let (dims, factor) = (a.dims(), search.factor);
    scratch.generation += 1;
    let (scored, memo, generation) = (&mut scratch.scored, &mut *scratch.memo, scratch.generation);
    let mut scorer = Scorer {
        a,
        b,
        kind,
        search: *search,
        memo,
        generation,
        probes: 0,
        pixels: 0,
    };
    // without a usable overlap (degenerate tiny tiles): the strongest raw
    // peak, with zero confidence
    let mut peaks = peaks.peekable();
    let (dx, dy) = peak_candidates(peaks.peek().copied().unwrap_or(0), dims, factor)[0];
    let fallback = Displacement::new(dx, dy, 0.0);
    scored.clear();
    for peak in peaks {
        for (dx, dy) in peak_candidates(peak, dims, factor) {
            scored.extend(scorer.score(dx, dy));
        }
    }
    // a total order, so the climbing order is a function of the candidates
    scored.sort_unstable_by(|(sa, da), (sb, db)| {
        sb.total_cmp(sa).then((da.x, da.y).cmp(&(db.x, db.y)))
    });
    scored.dedup_by_key(|(_, d)| (d.x, d.y));
    let mut best: Option<((f64, Displacement), bool)> = None;
    for &cand in scored.iter() {
        if best.is_none_or(|(leader, _)| climb_gate(cand.0, leader)) {
            let refined = scorer.climb(cand);
            if best.is_none_or(|((leader, _), _)| refined.0 .0 > leader) {
                best = Some(refined);
            }
        }
    }
    meter.counters.count_ccf_group(scorer.probes, scorer.pixels);
    best.map_or((fallback, true), |((_, d), converged)| (d, converged))
}

/// The one place a pair's CCF is evaluated: holds the tiles and the
/// pair's memo table, so the initial scoring and every hill-climb share
/// each `(dx, dy)` evaluation.
struct Scorer<'a> {
    a: &'a Image<u16>,
    b: &'a Image<u16>,
    kind: Option<PairKind>,
    search: Search,
    memo: &'a mut [MemoSlot],
    generation: u64,
    /// CCF kernel evaluations so far, and the overlap pixels they visited.
    probes: u64,
    pixels: u64,
}

impl Scorer<'_> {
    /// The candidate at `(dx, dy)` with its significance; `None` outside
    /// the orientation's legal half-plane, outside the stage window or
    /// without a usable overlap. The CCF is [`ccf_at`]'s, or the table's
    /// copy of it.
    fn score(&mut self, dx: i64, dy: i64) -> Option<(f64, Displacement)> {
        match self.kind {
            Some(PairKind::West) if dx < 1 => return None,
            Some(PairKind::North) if dy < 1 => return None,
            _ => {}
        }
        if self.search.offset(dx, dy) > 2 * STAGE_REPEATABILITY {
            return None;
        }
        let (w, h) = self.a.dims();
        let mask = self.memo.len() - 1;
        let hash = (dx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (dy as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let mut slot = (hash >> 32) as usize & mask;
        let ccf = 'ccf: {
            // linear probing; entries stop being added before half the
            // slots are taken, so the walk ends at a free one
            while self.memo[slot].0 == self.generation {
                if self.memo[slot].1 == (dx, dy) {
                    break 'ccf self.memo[slot].2;
                }
                slot = (slot + 1) & mask;
            }
            let ccf = ccf_at(self.a, self.b, dx, dy)?;
            self.probes += 1;
            self.pixels += overlap_pixels(w, h, dx, dy) as u64;
            if self.probes as usize <= self.memo.len() / 2 {
                self.memo[slot] = (self.generation, (dx, dy), ccf);
            }
            ccf
        };
        let score = candidate_score(w, h, dx, dy, ccf);
        Some((score, Displacement::new(dx, dy, ccf)))
    }

    /// Hill-climbs the significance from `start` to a local maximum
    /// (bounded steps): the CCF landscape around the truth is smooth, so a
    /// short greedy walk snaps a peak that landed a pixel or two off onto
    /// it (the same translation refinement the NIST tool grew).
    /// Also says whether it got there within [`MAX_STEPS`].
    fn climb(&mut self, start: (f64, Displacement)) -> ((f64, Displacement), bool) {
        /// Search radius per step. Radius 2 jumps over the single-pixel
        /// saddles that trap a radius-1 climb on smooth content.
        const RADIUS: i64 = 2;
        let mut best = start;
        for _ in 0..MAX_STEPS {
            // steepest ascent: score the whole window around the *fixed*
            // current center, then take the single best move — updating
            // the center mid-scan would shift the window away from uphill
            // cells
            let center = best.1;
            for sy in -RADIUS..=RADIUS {
                for sx in (-RADIUS..=RADIUS).filter(|&sx| (sx, sy) != (0, 0)) {
                    match self.score(center.x + sx, center.y + sy) {
                        Some(cand) if cand.0 > best.0 => best = cand,
                        _ => {}
                    }
                }
            }
            if (best.1.x, best.1.y) == (center.x, center.y) {
                return (best, true);
            }
        }
        (best, false)
    }
}

/// Steps of one hill-climb.
const MAX_STEPS: usize = 8;

/// A leader whose refined correlation is below this has not matched one
/// scene in both tiles and does not close the search: census truths
/// correlate above 0.8 where the overlap is workable, and the right
/// answers a bare fraction test lost sat behind leaders at 0.19 and 0.25.
const CONVINCING_CCF: f64 = 0.5;

/// Behind a convincing leader, a candidate is climbed only from this
/// fraction of the leader's refined significance. That shuts out starts
/// without positive evidence: none climbed past a true leader into the
/// truth, a few per thousand pairs climbed into a vignette-driven
/// near-full-overlap maximum that out-scored it (DESIGN.md § PCIAM).
const CLIMB_MIN_LEADER_FRACTION: f64 = 0.02;

/// Whether a candidate of initial significance `initial` is worth a
/// hill-climb when `leader` is the best refined candidate so far.
fn climb_gate(initial: f64, leader: (f64, Displacement)) -> bool {
    leader.1.correlation < CONVINCING_CCF || initial >= CLIMB_MIN_LEADER_FRACTION * leader.0
}

/// Significance score of a CCF candidate: the t-statistic of the Pearson
/// correlation, `ccf·√(n−2) / √(1−ccf²)`. This is the quantity that makes
/// a 0.79 correlation over a 120-pixel sliver lose to a 0.94 over a
/// 900-pixel strip (√n term) *without* dragging the choice toward larger
/// overlaps when correlations are near-equal (the `1−ccf²` term rewards
/// the sharply higher correlation at the exact alignment).
fn candidate_score(width: usize, height: usize, dx: i64, dy: i64, ccf: f64) -> f64 {
    let n = overlap_pixels(width, height, dx, dy) as f64;
    if n < 3.0 {
        return f64::NEG_INFINITY;
    }
    ccf * (n - 2.0).sqrt() / (1.0 - ccf * ccf).max(1e-9).sqrt()
}

/// Number of pixels two same-size tiles share at signed displacement
/// `(dx, dy)` (zero when disjoint).
pub fn overlap_pixels(width: usize, height: usize, dx: i64, dy: i64) -> i64 {
    let ow = width as i64 - dx.abs();
    let oh = height as i64 - dy.abs();
    if ow <= 0 || oh <= 0 {
        0
    } else {
        ow * oh
    }
}

/// The cross-correlation factor of Fig 3 evaluated at a *signed*
/// displacement: Pearson correlation of the pixels where tile `b`,
/// placed at offset `(dx, dy)` inside tile `a`'s frame, overlaps `a`.
/// `None` when the overlap is smaller than [`MIN_OVERLAP_PIXELS`]; `0.0`
/// when either side of it is constant.
///
/// The co-moments are exact integers from one compute-backend call (the
/// dominant cost of the disambiguation stage), so the covariance
/// `n·Σab − Σa·Σb` and both variances are exact in `i128`, and the
/// coefficient is one rounding of each into `f64`, one square root and one
/// division: the same bits on every backend.
pub fn ccf_at(img_a: &Image<u16>, img_b: &Image<u16>, dx: i64, dy: i64) -> Option<f64> {
    let (w, h) = img_a.dims();
    assert_eq!(img_b.dims(), (w, h), "CCF requires same-size tiles");
    let (w, h) = (w as i64, h as i64);
    // overlap rectangle in a's coordinates
    let ax0 = dx.max(0);
    let ay0 = dy.max(0);
    let ax1 = (w + dx).min(w);
    let ay1 = (h + dy).min(h);
    let ow = ax1 - ax0;
    let oh = ay1 - ay0;
    if ow <= 0 || oh <= 0 || ow * oh < MIN_OVERLAP_PIXELS {
        return None;
    }
    let w = w as usize;
    let a = &img_a.pixels()[ay0 as usize * w + ax0 as usize..];
    let b = &img_b.pixels()[(ay0 - dy) as usize * w + (ax0 - dx) as usize..];
    let moments = stitch_fft::backend::active().comoment_rect(a, b, w, oh as usize, ow as usize);
    let [sum_a, sum_b, sum_ab, sum_aa, sum_bb] = moments.map(i128::from);
    let n = i128::from(ow * oh);
    let cov = n * sum_ab - sum_a * sum_b;
    let (var_a, var_b) = (n * sum_aa - sum_a * sum_a, n * sum_bb - sum_b * sum_b);
    if var_a == 0 || var_b == 0 {
        return Some(0.0);
    }
    Some(cov as f64 / (var_a as f64 * var_b as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stitch_fft::Direction;
    use stitch_image::{Scene, SceneParams};

    /// Renders two overlapping views of one scene, `b` offset by
    /// `(dx, dy)` plate pixels from `a`.
    fn scene_pair(w: usize, h: usize, dx: i64, dy: i64, noise: f64) -> (Image<u16>, Image<u16>) {
        let scene = Scene::generate(
            (w as f64) * 3.0,
            (h as f64) * 3.0,
            SceneParams {
                colony_count: 24,
                seed: 99,
                ..SceneParams::default()
            },
        );
        let base = (w as f64, h as f64); // start inside the scene
        let a = scene.render_region(base.0, base.1, w, h, 0.0, noise, 1);
        let b = scene.render_region(base.0 + dx as f64, base.1 + dy as f64, w, h, 0.0, noise, 2);
        (a, b)
    }

    fn ctx(w: usize, h: usize) -> PciamContext {
        PciamContext::new(&Planner::default(), w, h, OpCounters::new_shared())
    }

    /// Like [`scene_pair`] but vignetted and noisy, from its own scene.
    fn rough_pair(w: usize, h: usize, dx: i64, dy: i64, seed: u64) -> (Image<u16>, Image<u16>) {
        let scene = Scene::generate(
            w as f64 * 3.0,
            h as f64 * 3.0,
            SceneParams {
                colony_count: 24,
                seed,
                ..SceneParams::default()
            },
        );
        let (x, y) = (w as f64, h as f64);
        let a = scene.render_region(x, y, w, h, 0.02, 30.0, 1);
        let b = scene.render_region(x + dx as f64, y + dy as f64, w, h, 0.02, 30.0, 2);
        (a, b)
    }

    /// West-pair displacement of `(a, b)`.
    fn west(a: &Image<u16>, b: &Image<u16>) -> Displacement {
        let (w, h) = a.dims();
        let mut ctx = ctx(w, h);
        let fa = ctx.forward_fft(a);
        let fb = ctx.forward_fft(b);
        ctx.displacement_oriented(&fa, &fb, a, b, Some(PairKind::West))
    }

    #[test]
    fn recovers_known_shift_east() {
        let (w, h) = (96, 64);
        let (a, b) = scene_pair(w, h, 77, 3, 0.0);
        let d = ctx(w, h).pciam(&a, &b, None);
        assert_eq!((d.x, d.y), (77, 3), "corr={}", d.correlation);
        assert!(d.correlation > 0.8);
    }

    #[test]
    fn recovers_negative_jitter() {
        // west pair with the eastern tile slightly *above* — dy < 0, the
        // case the signed candidates exist for
        let (w, h) = (96, 64);
        let (a, b) = scene_pair(w, h, 76, -4, 0.0);
        let d = ctx(w, h).pciam(&a, &b, None);
        assert_eq!((d.x, d.y), (76, -4));
    }

    #[test]
    fn recovers_shift_south() {
        let (w, h) = (64, 96);
        let (a, b) = scene_pair(w, h, -2, 75, 0.0);
        let d = ctx(w, h).pciam(&a, &b, None);
        assert_eq!((d.x, d.y), (-2, 75));
    }

    #[test]
    fn robust_to_sensor_noise() {
        let (w, h) = (96, 64);
        let (a, b) = scene_pair(w, h, 75, 2, 80.0);
        let d = ctx(w, h).pciam(&a, &b, None);
        assert_eq!((d.x, d.y), (75, 2));
    }

    #[test]
    fn zero_shift_is_identity() {
        let (w, h) = (48, 48);
        let (a, b) = scene_pair(w, h, 0, 0, 0.0);
        let d = ctx(w, h).pciam(&a, &b, None);
        assert_eq!((d.x, d.y), (0, 0));
        assert!(d.correlation > 0.99);
    }

    #[test]
    fn candidates_cover_all_sign_combinations() {
        let c = peak_candidates(5 + 3 * 16, (16, 12), 1); // x=5, y=3
        assert_eq!(c, [(5, 3), (-11, 3), (5, -9), (-11, -9)]);
    }

    /// A peak of a 2×2-binned surface stands for twice its coordinates on
    /// the tile, each wrapped by the tile's own sides.
    #[test]
    fn binned_peaks_map_to_full_resolution_candidates() {
        let c = peak_candidates(5 + 3 * 8, (16, 12), 2); // binned x=5, y=3
        assert_eq!(c, [(10, 6), (-6, 6), (10, -6), (-6, -6)]);
        // the last binned row and column: both axes wrap to −2
        let c = peak_candidates(7 + 5 * 8, (16, 12), 2);
        assert_eq!(c[3], (-2, -2));
    }

    #[test]
    fn only_a_stage_whose_binned_tile_takes_a_window_runs_at_factor_2() {
        let at = |w, h, overlap| resolution((w, h), overlap);
        assert_eq!(at(1392, 1040, Some(0.1)), 2);
        assert_eq!(at(528, 264, Some(0.1)), 2);
        // the other benchmark plates, a binned tile under 132 rows
        assert_eq!(at(232, 174, Some(0.15)), 1);
        assert_eq!(at(256, 192, Some(0.15)), 1);
        assert_eq!(at(96, 72, Some(0.25)), 1);
        assert_eq!(at(528, 262, Some(0.1)), 1);
        // odd sides, no stage, no overlap
        assert_eq!(at(1391, 1040, Some(0.1)), 1);
        assert_eq!(at(1392, 1041, Some(0.1)), 1);
        assert_eq!(at(1392, 1040, None), 1);
        assert_eq!(at(1392, 1040, Some(0.0)), 1);
        assert_eq!(
            PciamContext::spectrum_len((1392, 1040), Some(0.1)),
            349 * 520
        );
        assert_eq!(PciamContext::spectrum_len((1392, 1040), None), 697 * 1040);
    }

    #[test]
    fn ccf_perfect_correlation_on_identical_overlap() {
        let img = Image::from_fn(16, 16, |x, y| ((x * 7 + y * 13) % 97) as u16);
        assert_eq!(ccf_at(&img, &img, 0, 0), Some(1.0));
    }

    #[test]
    fn ccf_detects_true_offset_better_than_wrong_one() {
        let (w, h) = (64, 48);
        let (a, b) = scene_pair(w, h, 50, 2, 0.0);
        let right = ccf_at(&a, &b, 50, 2).unwrap();
        let wrong = ccf_at(&a, &b, 30, 2).unwrap();
        assert!(right > wrong, "{right} vs {wrong}");
    }

    #[test]
    fn ccf_none_when_no_overlap() {
        let img = Image::from_fn(8, 8, |x, _| x as u16);
        assert!(ccf_at(&img, &img, 8, 0).is_none());
        assert!(ccf_at(&img, &img, 0, -8).is_none());
        assert!(
            ccf_at(&img, &img, 7, 7).is_none(),
            "1px overlap below minimum"
        );
    }

    #[test]
    fn ccf_constant_region_returns_zero() {
        let a = Image::filled(8, 8, 100u16);
        let b = Image::filled(8, 8, 200u16);
        assert_eq!(ccf_at(&a, &b, 0, 0).unwrap(), 0.0);
        // one constant side of an overlap inside a textured tile
        let textured = Image::from_fn(40, 8, |x, y| if x < 20 { 7 } else { (x * y) as u16 });
        assert_eq!(ccf_at(&textured, &textured, -20, 0).unwrap(), 0.0);
    }

    /// The paper's 140-px west strip at full swing (pixels 0 and 65 535):
    /// `n·Σab` ≈ 5e19 is past `i64`, exact in `i128`, and the coefficient
    /// is exactly ±1.
    #[test]
    fn ccf_is_exact_on_a_saturated_paper_strip() {
        let (w, h) = (1392, 1040);
        let swing = |x: usize, y: usize| if (x * 3 + y * 5) % 7 < 3 { 0 } else { u16::MAX };
        let a = Image::from_fn(w, h, swing);
        let mirror = Image::from_fn(w, h, |x, y| u16::MAX - swing(x, y));
        let dx = (w - 140) as i64;
        let shifted = Image::from_fn(w, h, |x, y| swing(x + w - 140, y) * u16::from(x < 140));
        assert_eq!(ccf_at(&a, &shifted, dx, 0), Some(1.0));
        let mirrored = Image::from_fn(w, h, |x, y| mirror.get((x + w - 140) % w, y));
        assert_eq!(ccf_at(&a, &mirrored, dx, 0), Some(-1.0));
    }

    #[test]
    fn counters_count_fig2_steps() {
        let (w, h) = (32, 32);
        let counters = OpCounters::new_shared();
        let mut ctx = PciamContext::new(&Planner::default(), w, h, Arc::clone(&counters));
        let (a, b) = scene_pair(w, h, 20, 1, 0.0);
        ctx.pciam(&a, &b, None);
        let s = counters.snapshot();
        assert_eq!(s.forward_ffts, 2);
        assert_eq!(s.elementwise_mults, 1);
        assert_eq!(s.inverse_ffts, 1);
        assert_eq!(s.max_reductions, 1);
        assert_eq!(s.ccf_groups, 1);
    }

    #[test]
    fn works_on_awkward_tile_sizes() {
        // 58×42 → prime-ish factors, exercises Bluestein inside the 2-D FFT
        let (w, h) = (58, 41);
        let (a, b) = scene_pair(w, h, 43, 2, 0.0);
        let d = ctx(w, h).pciam(&a, &b, None);
        assert_eq!((d.x, d.y), (43, 2));
    }

    #[test]
    fn spectrum_len_is_the_half_spectrum() {
        // (w/2+1)·h bins, odd widths included
        assert_eq!(PciamContext::spectrum_len((96, 64), None), 49 * 64);
        assert_eq!(PciamContext::spectrum_len((87, 58), None), 44 * 58);
        for (w, h) in [(96usize, 64usize), (87, 58)] {
            let img = Image::from_fn(w, h, |x, y| (x * 31 + y * 17) as u16);
            let len = ctx(w, h).forward_fft(&img).len();
            assert_eq!(len, PciamContext::spectrum_len((w, h), None), "{w}x{h}");
        }
    }

    #[test]
    #[should_panic(expected = "pool sized for other tiles")]
    fn rejects_a_pool_sized_for_other_tiles() {
        let pool = SpectrumPool::new(96 * 64);
        let counters = OpCounters::new_shared();
        PciamContext::with_pool(&Planner::default(), (96, 64), None, counters, pool);
    }

    #[test]
    fn recovers_the_shift_on_rough_tiles() {
        let (a, b) = rough_pair(64, 48, 44, 1, 4242);
        let d = west(&a, &b);
        assert_eq!((d.x, d.y), (44, 1));
        let (a, b) = rough_pair(96, 64, 70, 3, 4242);
        let d = west(&a, &b);
        assert_eq!((d.x, d.y), (70, 3));
        // awkward on purpose: odd width, both dims carry a factor 29
        let (a, b) = rough_pair(87, 58, 64, 2, 777);
        let d = west(&a, &b);
        assert_eq!((d.x, d.y), (64, 2));
    }

    /// Tiles `a` and `b` (row-major indices) of scan `seed` of a
    /// stitchbench geometry — the plates the gate census ran on
    /// (`tests/conformance.rs::ccf_gate_census`).
    fn census_pair(
        (rows, cols, w, h, overlap, vignette): Geometry,
        seed: u64,
        (a, b): (usize, usize),
    ) -> (Image<u16>, Image<u16>) {
        use stitch_image::{ChannelConfig, ScanConfig, SyntheticPlate};
        let scan = |seed| ScanConfig {
            stage_jitter: 3.0,
            backlash_x: 1.5,
            noise_sigma: 50.0,
            vignette,
            ..ScanConfig::for_grid(rows, cols, w, h, overlap, seed)
        };
        let specimen = ChannelConfig::for_channel(&scan(2014), 0).scene;
        let plate = SyntheticPlate::generate_with_scene(scan(seed), specimen);
        (
            plate.render_tile(a / cols, a % cols),
            plate.render_tile(b / cols, b % cols),
        )
    }

    /// Rows, columns, tile width and height, overlap and vignette.
    type Geometry = (usize, usize, usize, usize, f64, f64);
    const DENSE_GRID: Geometry = (28, 40, 96, 72, 0.25, 0.03);
    const SHARD_CANVAS: Geometry = (12, 16, 256, 192, 0.15, 0.03);
    const CHANNEL_REPLAY: Geometry = (5, 6, 232, 174, 0.15, 0.3);

    /// A scorer over `memo`, as `resolve_peaks_oriented_into` builds it.
    fn scorer<'a>(
        a: &'a Image<u16>,
        b: &'a Image<u16>,
        kind: Option<PairKind>,
        memo: &'a mut [MemoSlot],
    ) -> Scorer<'a> {
        Scorer {
            a,
            b,
            kind,
            search: Search::new(a.dims(), None, None, 1),
            memo,
            generation: 1,
            probes: 0,
            pixels: 0,
        }
    }

    fn displacement(a: &Image<u16>, b: &Image<u16>, kind: PairKind) -> Displacement {
        let (w, h) = a.dims();
        let mut ctx = ctx(w, h);
        let (fa, fb) = (ctx.forward_fft(a), ctx.forward_fft(b));
        ctx.displacement_oriented(&fa, &fb, a, b, Some(kind))
    }

    #[test]
    fn anticorrelated_junk_is_not_climbed_past_a_true_leader() {
        // The truth (-3, 53) leads at t = 71.6. One of the correlation
        // peaks also reads as (-56, 16), anti-correlated at t = -4.4; from
        // there the climb slides down the vignette into the near-full
        // overlap at (-65, 2), t = 82.1 — which used to win.
        let (a, b) = census_pair(DENSE_GRID, 6042, (160, 200));
        let mut scratch = CcfScratch::default();
        let mut scorer = scorer(&a, &b, Some(PairKind::North), &mut scratch.memo);
        let truth = scorer.score(-3, 53).unwrap();
        let junk = scorer.score(-56, 16).unwrap();
        assert!(junk.0 < 0.0, "{junk:?}");
        let (slid, _) = scorer.climb(junk);
        assert_eq!((slid.1.x, slid.1.y), (-65, 2));
        assert!(slid.0 > truth.0, "{slid:?} vs {truth:?}");
        assert!(!climb_gate(junk.0, truth));

        let d = displacement(&a, &b, PairKind::North);
        assert_eq!((d.x, d.y), (-3, 53));
    }

    #[test]
    fn weak_true_starts_are_still_climbed() {
        // a true start at 6 % of a wrong leader's refined significance
        // (1.54 → 67.1 against 24.5): the fraction gate must stay below it
        let (a, b) = census_pair(DENSE_GRID, 6042, (436, 437));
        let d = displacement(&a, &b, PairKind::West);
        assert_eq!((d.x, d.y), (73, 1));
        // wrong leaders that never matched the scene (ccf 0.25 and 0.19)
        // do not close the search: the truth starts anti-correlated 12 px
        // away in one pair, at 1.5 % of the leader in the other
        let (a, b) = census_pair(DENSE_GRID, 6047, (359, 399));
        let d = displacement(&a, &b, PairKind::North);
        assert_eq!((d.x, d.y), (4, 59));
        let (a, b) = census_pair(SHARD_CANVAS, 6046, (30, 31));
        let d = displacement(&a, &b, PairKind::West);
        assert_eq!((d.x, d.y), (218, 0));
    }

    #[test]
    fn memoised_scores_are_the_probe_primitive_bit_for_bit() {
        let (a, b) = rough_pair(64, 48, 44, 1, 4242);
        let mut scratch = CcfScratch::default();
        let mut scorer = scorer(&a, &b, None, &mut scratch.memo);
        for pass in 0..2 {
            for dy in -6..=6 {
                for dx in 38..=50 {
                    let got = scorer.score(dx, dy).map(|(_, d)| d.correlation);
                    assert_eq!(got, ccf_at(&a, &b, dx, dy), "pass {pass} at ({dx},{dy})");
                }
            }
            // the second pass is all memo hits
            assert_eq!(scorer.probes, 13 * 13);
        }
        let cells: i64 = (-6..=6)
            .flat_map(|dy| (38..=50).map(move |dx| overlap_pixels(64, 48, dx, dy)))
            .sum();
        assert_eq!(scorer.pixels, cells as u64);
    }

    #[test]
    fn a_full_memo_table_degrades_to_direct_evaluation() {
        let (full, tiny) = (OpCounters::new_shared(), Meter::default());
        for seed in 0..6u64 {
            let (a, b) = rough_pair(64, 48, 40 + seed as i64, seed as i64 - 3, 100 + seed);
            let mut ctx = PciamContext::new(&Planner::default(), 64, 48, Arc::clone(&full));
            let (fa, fb) = (ctx.forward_fft(&a), ctx.forward_fft(&b));
            let kind = Some(PairKind::West);
            let d = ctx.displacement_oriented(&fa, &fb, &a, &b, kind);
            assert_eq!(Some(d.correlation), ccf_at(&a, &b, d.x, d.y), "seed {seed}");
            // one live entry: nearly every probe is evaluated directly
            let peaks = ctx.pair.peaks.iter().map(|&(i, _)| i);
            let mut scratch = CcfScratch {
                memo: vec![(0, (0, 0), 0.0); 2].into(),
                ..CcfScratch::default()
            };
            let whole = Search::new((64, 48), None, None, 1);
            let direct =
                resolve_peaks_oriented_into(peaks, (&a, &b), kind, &whole, &mut scratch, &tiny);
            assert_eq!(direct.0, d, "seed {seed}");
        }
        let (full, tiny) = (
            full.snapshot().ccf_probes,
            tiny.counters.snapshot().ccf_probes,
        );
        assert!(
            tiny > full,
            "a 2-slot table must re-evaluate: {tiny} vs {full}"
        );
    }

    #[test]
    fn wide_strip_outranks_a_better_correlated_sliver() {
        // White-noise 20×20 tiles whose CCF has exactly two bumps: columns
        // 0..3 of `b` copy `a` at dx = 17 (ccf ≈ 0.84 over a 3×20 strip),
        // columns 3..15 copy it at dx = 5 (ccf ≈ 0.68 over 15×20). By the
        // t-statistic the wide strip wins, 10.6 to 8.2.
        let lcg = |state: &mut u64| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*state >> 33) % 2001) as i64 - 1000
        };
        let (mut sa, mut sb) = (12345u64, 999u64);
        let a = Image::from_fn(20, 20, |_, _| (30000 + lcg(&mut sa) * 10) as u16);
        let b = Image::from_fn(20, 20, |x, y| {
            let n = lcg(&mut sb);
            match x {
                0..=2 => (a.get(x + 17, y) as i64 + n * 6) as u16,
                3..=14 => (a.get(x + 5, y) as i64 + n * 6) as u16,
                _ => (30000 + n * 10) as u16,
            }
        });
        assert!(ccf_at(&a, &b, 17, 0).unwrap() > ccf_at(&a, &b, 5, 0).unwrap());
        let d = resolve_peaks_oriented(&[17, 5], 20, 20, &a, &b, Some(PairKind::West));
        assert_eq!((d.x, d.y), (5, 0));
    }

    /// A context searching within the stage window of `overlap`, counting
    /// on `counters`.
    fn staged(w: usize, h: usize, overlap: f64, counters: &Arc<OpCounters>) -> PciamContext {
        let pool = SpectrumPool::new(PciamContext::spectrum_len((w, h), Some(overlap)));
        let (dims, counters) = ((w, h), Arc::clone(counters));
        PciamContext::with_pool(&Planner::default(), dims, Some(overlap), counters, pool)
    }

    #[test]
    fn the_window_needs_132_rows_and_an_overlap() {
        let search = |kind, dims| Search::new(dims, Some(kind), Some(0.15), 1);
        let west = search(PairKind::West, (232, 174));
        // dy in [-16, 16]: rows 158..174 then 0..=16, lower rows first
        assert_eq!(west.rows.ranges(), [0..17, 158..174]);
        // centred on the step (197, 0); a winner on the edge or past it
        // falls back, as does a weak one
        assert_eq!(
            (west.offset(197 - 16, -3), west.offset(197 + 2, 17)),
            (16, 17)
        );
        let counters = OpCounters::new_shared();
        let falls = |x, y, ccf| west.falls_back(&Displacement::new(x, y, ccf), true, &counters);
        assert!(!falls(197 + 15, -15, 0.9) && falls(197 - 16, 0, 0.9) && falls(197, 0, 0.4));
        assert_eq!(counters.snapshot().window_fallbacks, 2);
        let north = search(PairKind::North, (232, 174));
        assert_eq!(north.rows.ranges(), [132..165, 0..0]);
        assert_eq!(north.offset(-16, 150), 16);
        let window = |dims, overlap| stage_window(dims, PairKind::West, Some(overlap));
        assert!(window((64, 132), 0.1).is_some());
        assert!(window((64, 131), 0.1).is_none());
        assert!(window((64, 200), 0.0).is_none());
        // no window: the whole surface, nothing refused, nothing set aside
        let unstaged = Search::new((64, 131), Some(PairKind::West), Some(0.1), 1);
        assert_eq!(
            (unstaged.rows, unstaged.offset(-60, 99)),
            (RowBand::all(131), 0)
        );
    }

    /// A windowed pair that holds: the inverse counts only the rows it
    /// ran, and the answer is the full surface's.
    #[test]
    fn a_windowed_pair_runs_the_windows_rows_only() {
        let (w, h) = (160, 140);
        let (a, b) = scene_pair(w, h, 145, -3, 20.0);
        let counters = OpCounters::new_shared();
        let mut ctx = staged(w, h, 0.1, &counters);
        let d = ctx.pciam(&a, &b, Some(PairKind::West));
        assert_eq!((d.x, d.y), (145, -3));
        assert_eq!(d, west(&a, &b), "the full surface's answer");
        let s = counters.snapshot();
        assert_eq!(
            (s.windowed_pairs, s.window_fallbacks, s.inverse_ffts),
            (1, 0, 1)
        );
        let plan = RealFft2d::<f32>::new(&Planner::default(), w, h);
        let skipped = plan.row_pass_mults(Direction::Inverse, h - 33);
        let full = 2 * plan.real_mults(Direction::Forward) + plan.real_mults(Direction::Inverse);
        assert_eq!(s.fft_real_mults, full - skipped);
    }

    /// A truth outside the window leaves only junk inside it: the weak
    /// windowed winner falls back, the surface is finished from the same
    /// column pass, and the answer is exactly the unbounded search's.
    #[test]
    fn a_weak_windowed_winner_falls_back_to_the_full_surface_answer() {
        let (w, h) = (160, 140);
        let (a, b) = rough_pair(w, h, 100, 3, 5150);
        let counters = OpCounters::new_shared();
        let mut ctx = staged(w, h, 0.1, &counters);
        let d = ctx.pciam(&a, &b, Some(PairKind::West));
        assert_eq!(d, west(&a, &b), "the full surface's answer");
        assert_eq!((d.x, d.y), (100, 3));
        let s = counters.snapshot();
        assert_eq!((s.windowed_pairs, s.window_fallbacks), (1, 1));
        assert_eq!((s.inverse_ffts, s.max_reductions, s.ccf_groups), (2, 2, 2));
        let plan = RealFft2d::<f32>::new(&Planner::default(), w, h);
        let full = 2 * plan.real_mults(Direction::Forward) + plan.real_mults(Direction::Inverse);
        assert_eq!(s.fft_real_mults, full, "no second column pass");
    }

    /// `channel_replay` scan 6042, pair 26→27: the rows of the window
    /// alone let a vignette-driven (112, 8) win; bounded in `dx` as well,
    /// the CCF search keeps the truth (202, 1).
    #[test]
    fn the_window_bounds_dx_as_well_as_the_rows() {
        let (a, b) = census_pair(CHANNEL_REPLAY, 6042, (26, 27));
        let (w, h) = a.dims();
        let mut ctx = staged(w, h, 0.15, &OpCounters::new_shared());
        let d = ctx.pciam(&a, &b, Some(PairKind::West));
        assert_eq!((d.x, d.y), (202, 1));
        let window = Search::new((w, h), Some(PairKind::West), Some(0.15), 1);
        let (fa, fb) = (ctx.forward_fft(&a), ctx.forward_fft(&b));
        ctx.correlation_peaks_into(&fa, &fb, DEFAULT_PEAK_COUNT, window.rows);
        let whole = Search::new((w, h), None, None, 1);
        let (d, _) = ctx.resolve((&a, &b), Some(PairKind::West), &whole);
        assert_eq!((d.x, d.y), (112, 8));
    }

    /// A coarse winner that holds is the factor-1 context's answer, from
    /// transforms that ran and counted at the binned size.
    #[test]
    fn a_coarse_pair_that_holds_is_the_full_resolution_answer() {
        let (w, h) = (320, 264);
        let (a, b) = rough_pair(w, h, 240, 2, 5150);
        let counters = OpCounters::new_shared();
        let mut ctx = staged(w, h, 0.25, &counters);
        assert_eq!(ctx.factor, 2);
        let d = ctx.pciam(&a, &b, Some(PairKind::West));
        assert_eq!((d.x, d.y), (240, 2));
        let fine = PciamContext::full_resolution(
            &Planner::default(),
            (w, h),
            Some(0.25),
            Meter::default(),
        );
        assert_eq!(d, { fine }.pciam(&a, &b, Some(PairKind::West)));
        let s = counters.snapshot();
        assert_eq!(
            (s.coarse_pairs, s.coarse_fallbacks, s.windowed_pairs),
            (1, 0, 0)
        );
        let plan = RealFft2d::<f32>::new(&Planner::default(), w / 2, h / 2);
        let skipped = plan.row_pass_mults(Direction::Inverse, h / 2 - 33);
        let full = 2 * plan.real_mults(Direction::Forward) + plan.real_mults(Direction::Inverse);
        assert_eq!(s.fft_real_mults, full - skipped);
    }

    /// Told a stage it was not scanned on, a coarse pair's winner is weak
    /// and the pair is redone by the factor-1 context, whose own window
    /// falls back in turn: the answer is that context's, bit for bit, and
    /// the whole surface's.
    #[test]
    fn a_doubtful_coarse_pair_is_the_factor_1_contexts_answer() {
        let (w, h) = (320, 264);
        let (a, b) = rough_pair(w, h, 240, 2, 5150);
        let counters = OpCounters::new_shared();
        let d = staged(w, h, 0.45, &counters).pciam(&a, &b, Some(PairKind::West));
        let mut fine = PciamContext::full_resolution(
            &Planner::default(),
            (w, h),
            Some(0.45),
            Meter::default(),
        );
        assert_eq!(d, fine.pciam(&a, &b, Some(PairKind::West)));
        assert_eq!(d, west(&a, &b), "the full surface's answer");
        let s = counters.snapshot();
        let fallbacks = [
            s.coarse_pairs,
            s.coarse_fallbacks,
            s.windowed_pairs,
            s.window_fallbacks,
        ];
        assert_eq!(fallbacks, [1, 1, 1, 1]);
        assert_eq!((s.forward_ffts, s.inverse_ffts, s.ccf_groups), (4, 3, 3));
    }

    /// A climb that has not reached a local maximum within `MAX_STEPS`
    /// says so, and a coarse winner from it is redone however well it
    /// correlates; a factor-1 window ignores it, as it always has.
    #[test]
    fn a_climb_that_has_not_converged_falls_back() {
        // one broad bump: the significance rises all the way to the truth
        let bump = |x: f64, y: f64| {
            let r2 = ((x - 150.0).powi(2) + (y - 60.0).powi(2)) / (2.0 * 70.0 * 70.0);
            (20_000.0 * (-r2).exp()) as u16
        };
        let a = Image::from_fn(200, 150, |x, y| bump(x as f64, y as f64));
        let b = Image::from_fn(200, 150, |x, y| bump(x as f64 + 100.0, y as f64));
        let mut scratch = CcfScratch::default();
        let mut scorer = scorer(&a, &b, Some(PairKind::West), &mut scratch.memo);
        let far = scorer.score(100 + 30, 0).unwrap();
        let (stopped, converged) = scorer.climb(far);
        assert!(!converged, "{stopped:?}");
        assert_eq!(stopped.1.x, 100 + 30 - 2 * MAX_STEPS as i64);
        let (near, converged) = scorer.climb(stopped);
        assert!(converged && (near.1.x, near.1.y) == (100, 0), "{near:?}");

        let counters = OpCounters::new_shared();
        let strong = Displacement::new(288, 0, 0.99);
        let coarse = Search::new((320, 264), Some(PairKind::West), Some(0.1), 2);
        assert!(coarse.falls_back(&strong, false, &counters));
        assert!(!coarse.falls_back(&strong, true, &counters));
        let windowed = Search::new((320, 264), Some(PairKind::West), Some(0.1), 1);
        assert!(!windowed.falls_back(&strong, false, &counters));
        let s = counters.snapshot();
        assert_eq!(
            [s.coarse_pairs, s.coarse_fallbacks, s.windowed_pairs],
            [2, 1, 1]
        );
    }
}
