//! Incremental-canvas conformance battery: the chunked pyramid canvas
//! fed in arrival order must be a drop-in replacement for one-shot
//! composition.
//!
//! * the differential oracle proves bit-identity at every pyramid scale
//!   for every blend mode (and border highlighting) under seeded-random
//!   arrival orders with mid-run re-anchors, with peak canvas residency
//!   bounded by touched chunks rather than mosaic area;
//! * the stress battery proves determinism across random geometries,
//!   chunk sizes, solve cadences, off-canvas reads, and resets;
//! * the bounds regression pins the `Image::get`/`set` hard panic in
//!   release builds (run via `cargo test --release --test canvas`).

use stitch_image::Image;
use stitch_testkit::{run_canvas_differential, run_canvas_stress};

#[test]
fn canvas_differential_battery_is_clean() {
    let report = run_canvas_differential(0xCA0A5);
    assert!(
        report.is_clean(),
        "{} of {} canvas cases not bit-identical:\n{}",
        report.mismatches.len(),
        report.ran.len(),
        report
            .mismatches
            .iter()
            .map(|m| format!("  {}: {}", m.label, m.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn canvas_differential_digest_is_pure_in_seed() {
    let a = run_canvas_differential(42);
    let b = run_canvas_differential(42);
    assert_eq!(a.digest, b.digest, "same seed must reproduce bit-for-bit");
    let c = run_canvas_differential(43);
    assert_ne!(
        a.digest, c.digest,
        "different seed stitches different plates"
    );
}

#[test]
fn canvas_stress_battery_is_deterministic_and_resets_clean() {
    for seed in [7u64, 0xF00D] {
        let a = run_canvas_stress(seed);
        let b = run_canvas_stress(seed);
        assert_eq!(
            a, b,
            "seed {seed} not deterministic:\n{:#?}\n{:#?}",
            a.fates, b.fates
        );
        assert!(
            a.fates.iter().all(|f| !f.contains("DIRTY")),
            "a reset left state behind:\n{:#?}",
            a.fates
        );
    }
}

/// `Image::get`/`set` must panic out of bounds in release builds too —
/// the old `debug_assert!` let `get(width, 0)` silently alias pixel
/// `(0, 1)` through the row-major index when assertions were compiled
/// out.
#[test]
fn image_bounds_panic_survives_release() {
    let mut img: Image<u16> = Image::new(8, 4);
    img.set(7, 3, 42);
    assert_eq!(img.get(7, 3), 42);
    let (w, h) = img.dims();
    let read = std::panic::catch_unwind(|| img.get(w, 0));
    assert!(read.is_err(), "get(width, 0) must panic, not alias (0, 1)");
    let read = std::panic::catch_unwind(|| img.get(0, h));
    assert!(read.is_err(), "get(0, height) must panic");
    let mut img2: Image<u16> = Image::new(8, 4);
    let write = std::panic::catch_unwind(move || img2.set(8, 0, 1));
    assert!(write.is_err(), "set(width, 0) must panic, not alias (0, 1)");
}
