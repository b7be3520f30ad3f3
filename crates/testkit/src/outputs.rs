//! The one differential every battery runs: what a pass produced
//! ([`Outputs`]), how it differs from a reference ([`Outputs::diff`]),
//! how it digests ([`Outputs::digest`]), and the one verdict a battery
//! returns ([`Report`] of [`Mismatch`]es).

use std::fmt;

use stitch_core::{AbsolutePositions, Displacement, StitchResult};
use stitch_image::{Fnv64, Image};

/// Findings one [`Report::record`] call keeps; the rest are only counted.
const KEPT_PER_RECORD: usize = 8;

/// What a pass produced that a battery compares: the phase-1 pair graph,
/// the solved positions, and the mosaic when one was composed.
#[derive(Clone, Debug)]
pub struct Outputs {
    /// Phase-1 displacements (health and op counts are not compared).
    pub result: StitchResult,
    /// Phase-2 global positions.
    pub positions: AbsolutePositions,
    /// The phase-3 mosaic, when composed.
    pub mosaic: Option<Image<u16>>,
}

impl Outputs {
    /// One line per difference from `reference`, each naming its pair,
    /// tile or pixel with both values: displacements (every bit, the
    /// correlation included), then positions, then the mosaic. Empty when
    /// the two agree.
    pub fn diff(&self, reference: &Outputs) -> Vec<String> {
        let (got, want) = (&self.result, &reference.result);
        if got.shape != want.shape {
            return vec![format!(
                "grid: reference {:?}, got {:?}",
                want.shape, got.shape
            )];
        }
        let bits = |d: &Option<Displacement>| d.map(|d| (d.x, d.y, d.correlation.to_bits()));
        let mut found = Vec::new();
        for id in got.shape.ids() {
            let i = got.shape.index(id);
            for (axis, g, w) in [
                ("west", got.west[i], want.west[i]),
                ("north", got.north[i], want.north[i]),
            ] {
                if bits(&g) != bits(&w) {
                    let (r, c) = (id.row, id.col);
                    found.push(format!(
                        "{axis} pair at tile ({r}, {c}): reference {w:?}, got {g:?}"
                    ));
                }
            }
        }
        for id in got.shape.ids() {
            let (g, w) = (self.positions.get(id), reference.positions.get(id));
            if g != w {
                let (r, c) = (id.row, id.col);
                found.push(format!(
                    "position of tile ({r}, {c}): reference {w:?}, got {g:?}"
                ));
            }
        }
        match (&self.mosaic, &reference.mosaic) {
            (Some(g), Some(w)) => found.extend(diff_pixels(w, g)),
            (None, None) => {}
            (g, w) => {
                let dims = |m: &Option<Image<u16>>| m.as_ref().map(Image::dims);
                found.push(format!(
                    "mosaic: reference {:?}, got {:?}",
                    dims(w),
                    dims(g)
                ));
            }
        }
        found
    }

    /// Feeds every compared output to `h`: each displacement (offsets and
    /// correlation bits; a missing one as one `0xFF` byte), each position,
    /// and the mosaic's dims and pixels.
    pub fn digest(&self, h: &mut Fnv64) {
        for d in self.result.west.iter().chain(&self.result.north) {
            match d {
                Some(d) => {
                    h.write_u64(d.x as u64);
                    h.write_u64(d.y as u64);
                    h.write(&d.correlation.to_le_bytes());
                }
                None => h.write(&[0xFF]),
            }
        }
        for &(x, y) in &self.positions.positions {
            h.write_u64(x as u64);
            h.write_u64(y as u64);
        }
        if let Some(m) = &self.mosaic {
            h.write_u64(m.width() as u64);
            h.write_u64(m.height() as u64);
            h.write_u16s(m.pixels());
        }
    }
}

/// How `got` differs from `reference`: their dims, or how many pixels
/// differ and the first of them with both values. `None` when equal.
pub(crate) fn diff_pixels(reference: &Image<u16>, got: &Image<u16>) -> Option<String> {
    let ((rw, rh), (gw, gh)) = (reference.dims(), got.dims());
    if (rw, rh) != (gw, gh) {
        return Some(format!("mosaic dims: reference {rw}x{rh}, got {gw}x{gh}"));
    }
    let pairs = got.pixels().iter().zip(reference.pixels());
    let mut differ = pairs.enumerate().filter(|(_, (g, r))| g != r);
    let (i, (g, r)) = differ.next()?;
    let (x, y, n) = (i % gw, i / gw, 1 + differ.count());
    Some(format!(
        "mosaic pixels: {n} differ, first at ({x}, {y}): reference {r}, got {g}"
    ))
}

/// One finding: which run (variant, backend or case) and what differed.
#[derive(Clone, Debug, PartialEq)]
pub struct Mismatch {
    /// The run it was found in.
    pub label: String,
    /// What differed, with its location and both values.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.label, self.detail)
    }
}

/// What a battery measured beside its findings — the oracle's ground
/// truth, the channel battery's accuracy sweep — one line each as
/// [`Report`]'s `Display` shows them.
pub trait Measured {
    /// The lines shown under the report's label.
    fn lines(&self) -> Vec<String>;
}

impl Measured for () {
    fn lines(&self) -> Vec<String> {
        Vec::new()
    }
}

/// A battery's verdict: every finding, what it measured beside them, and a
/// digest of every output it compared.
#[derive(Clone, Debug)]
pub struct Report<M = ()> {
    /// What was run: the case, or the battery and its seed.
    pub label: String,
    /// The runs compared: variant or backend names, or case labels.
    pub ran: Vec<String>,
    /// What the battery measured beside its findings.
    pub measured: M,
    /// The findings kept, in the order found.
    pub mismatches: Vec<Mismatch>,
    /// Every finding, kept or not.
    pub total: usize,
    /// FNV digest of every output compared — pure in the seed.
    pub digest: u64,
}

impl<M> Report<M> {
    pub(crate) fn new(label: String, measured: M) -> Report<M> {
        Report {
            label,
            ran: Vec::new(),
            measured,
            mismatches: Vec::new(),
            total: 0,
            digest: 0,
        }
    }

    /// True when no finding was made.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Counts every one of `details` as a finding in run `label`, keeping
    /// the first [`KEPT_PER_RECORD`].
    pub(crate) fn record(&mut self, label: &str, details: impl IntoIterator<Item = String>) {
        for (n, detail) in details.into_iter().enumerate() {
            self.total += 1;
            if n < KEPT_PER_RECORD {
                let label = label.to_string();
                self.mismatches.push(Mismatch { label, detail });
            }
        }
    }

    /// The differential: each of `runs` after the first is diffed against
    /// the first and its findings recorded under its name; every run is
    /// digested. Returns the first, the reference.
    pub(crate) fn differential(
        &mut self,
        runs: impl IntoIterator<Item = (String, Outputs)>,
    ) -> Option<Outputs> {
        let (mut reference, mut digest) = (None, Fnv64::new());
        for (name, outputs) in runs {
            outputs.digest(&mut digest);
            match &reference {
                None => reference = Some(outputs),
                Some(r) => self.record(&name, outputs.diff(r)),
            }
            self.ran.push(name);
        }
        self.digest = digest.finish();
        reference
    }
}

impl<M: Measured> fmt::Display for Report<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.label)?;
        for line in self.measured.lines() {
            writeln!(f, "{line}")?;
        }
        if self.is_clean() {
            return write!(f, "{} runs agree: {}", self.ran.len(), self.ran.join(", "));
        }
        let (total, kept) = (self.total, self.mismatches.len());
        writeln!(f, "{total} mismatches ({kept} recorded):")?;
        for m in &self.mismatches {
            writeln!(f, "  {m}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::SweepCase;
    use stitch_core::{SimpleCpuStitcher, TileId};

    fn reference() -> Outputs {
        let case = SweepCase {
            rows: 2,
            cols: 2,
            tile_width: 48,
            tile_height: 40,
            overlap: 0.25,
            noise_sigma: 30.0,
            seed: 12,
        };
        let overlay = Some(crate::overlay());
        crate::reference_pass(&SimpleCpuStitcher::default(), &case.source(), overlay)
    }

    /// Four seeded defects, one output each: the diff locates every one
    /// with both values, a one-bit change of a correlation included.
    #[test]
    fn the_diff_locates_each_seeded_defect_with_both_values() {
        let reference = reference();
        let tile = TileId::new(1, 1);
        let i = reference.result.shape.index(tile);
        let n = reference.result.north[i].expect("registered").correlation;
        let after = f64::from_bits(n.to_bits() ^ 1);
        let doctor = |f: &dyn Fn(&mut Outputs)| {
            let mut o = reference.clone();
            f(&mut o);
            o
        };
        let moved = doctor(&|o| o.result.west[i] = Some(Displacement::new(999, -999, 0.5)));
        let placed = doctor(&|o| o.positions.positions[i] = (777, 888));
        let pixel = doctor(&|o| {
            let m = o.mosaic.as_mut().expect("composed");
            m.set(5, 7, m.get(5, 7).wrapping_add(1));
        });
        let rebits = doctor(&|o| {
            o.result.north[i] = o.result.north[i].map(|d| Displacement::new(d.x, d.y, after));
        });
        let cases: [(&Outputs, &[&str]); 4] = [
            (&moved, &["west pair at tile (1, 1)", "999"]),
            (&placed, &["position of tile (1, 1)", "(777, 888)"]),
            (&pixel, &["1 differ, first at (5, 7)"]),
            (&rebits, &["north pair at tile (1, 1)"]),
        ];
        for (doctored, needles) in cases {
            let found = doctored.diff(&reference);
            assert_eq!(found.len(), 1, "{found:?}");
            for needle in needles {
                assert!(found[0].contains(needle), "{needle}: {found:?}");
            }
            assert!(found[0].contains("reference") && found[0].contains("got"));
        }
        let shown = rebits.diff(&reference).remove(0);
        assert!(shown.contains(&format!("{n:?}")) && shown.contains(&format!("{after:?}")));
        assert!(reference.diff(&reference).is_empty());
    }

    #[test]
    fn digest_sees_every_output_and_report_caps_what_it_keeps() {
        let reference = reference();
        let digest = |o: &Outputs| {
            let mut h = Fnv64::new();
            o.digest(&mut h);
            h.finish()
        };
        let mut no_mosaic = reference.clone();
        no_mosaic.mosaic = None;
        assert_eq!(digest(&reference), digest(&reference.clone()));
        assert_ne!(digest(&reference), digest(&no_mosaic));

        let mut report = Report::new("case: x".into(), ());
        report.record("MT-CPU", (0..10).map(|k| format!("finding {k}")));
        assert_eq!(
            (report.total, report.mismatches.len()),
            (10, KEPT_PER_RECORD)
        );
        let shown = report.to_string();
        assert!(shown.starts_with("case: x\n10 mismatches (8 recorded):\n  [MT-CPU] finding 0"));
    }
}
