//! What the synthetic microscope costs per pixel on each benchmark plate.
//!
//! Every stitchbench dataset and every daemon job's tiles come out of
//! `Scene::render_region_plane`. This renders each workload's tiles with
//! its scan and specimen (`benchmark/src/workload.rs`) and prints the best
//! of five rounds in ns per pixel, single thread.
//!
//! ```text
//! cargo run --release --example render_cost
//! ```

use std::time::Instant;

use stitching::image::{Image, MultiChannelPlate, MultiScanConfig, ScanConfig, SyntheticPlate};

/// Stitchbench's scan of its specimen (seed 2014): ±3 px jitter, 1.5 px
/// backlash, noise 50.
fn scan(rows: usize, cols: usize, w: usize, h: usize, overlap: f64, vignette: f64) -> ScanConfig {
    ScanConfig {
        vignette,
        noise_sigma: 50.0,
        ..ScanConfig::for_grid(rows, cols, w, h, overlap, 2014)
    }
}

/// Best of five rounds of `render`, in ns per pixel and ms per round.
fn best(render: impl Fn() -> Vec<Image<u16>>) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut pixels = 0;
    for _ in 0..5 {
        let t0 = Instant::now();
        let tiles = render();
        best = best.min(t0.elapsed().as_secs_f64());
        pixels = tiles.iter().map(Image::len).sum::<usize>();
    }
    (best * 1e9 / pixels as f64, best * 1e3)
}

fn main() {
    println!("{:<38} {:>8} {:>10}", "tiles", "ns/px", "ms");
    let report = |name: &str, (ns, ms): (f64, f64)| println!("{name:<38} {ns:>8.1} {ms:>10.2}");

    let paper = SyntheticPlate::generate(scan(3, 3, 1392, 1040, 0.10, 0.03));
    report(
        "paper_tile: tile (1,1), 1392x1040",
        best(|| vec![paper.render_tile(1, 1)]),
    );
    let dense = SyntheticPlate::generate(scan(28, 40, 96, 72, 0.25, 0.03));
    let row = |p: &SyntheticPlate, r: usize| {
        (0..p.config.grid_cols)
            .map(|c| p.render_tile(r, c))
            .collect()
    };
    report("dense_grid: row 13, 40 x 96x72", best(|| row(&dense, 13)));
    let shard = SyntheticPlate::generate(scan(12, 16, 256, 192, 0.15, 0.03));
    report("shard_canvas: row 5, 16 x 256x192", best(|| row(&shard, 5)));
    let stack = MultiScanConfig::for_channels(scan(5, 6, 232, 174, 0.15, 0.3), 3, 6);
    let stack = MultiChannelPlate::generate(stack);
    let column = || {
        let units = (0..3).flat_map(|ch| (0..6).map(move |z| (ch, z)));
        units
            .map(|(ch, z)| stack.render_tile(ch, z, 2, 3))
            .collect()
    };
    report("channel_replay: (2,3), 3 ch x 6 planes", best(column));
    // a serve_mix job renders its whole plate with the job defaults
    let serve = SyntheticPlate::generate(ScanConfig::for_grid(4, 6, 64, 48, 0.10, 7));
    let job = || (0..4).flat_map(|r| (0..6).map(move |c| (r, c)));
    report(
        "serve_mix: one job's 24 x 64x48",
        best(|| job().map(|(r, c)| serve.render_tile(r, c)).collect()),
    );
}
