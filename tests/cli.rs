//! In-process integration tests for the `stitch` CLI: parse + run over a
//! real temporary dataset.

use stitching::cli::{parse, run, Command};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn generate_then_info_then_stitch() {
    let dir = std::env::temp_dir().join("stitch_cli_it");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.display().to_string();

    // generate
    let cmd = parse(&argv(&format!(
        "generate --out {dir_s} --rows 2 --cols 3 --tile-width 64 --tile-height 48"
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);
    assert!(dir.join("manifest.tsv").exists());
    assert!(dir.join("img_c00_z00_r000_c000.tif").exists());

    // info
    let cmd = parse(&argv(&format!("info --dataset {dir_s}"))).unwrap();
    assert_eq!(run(cmd), 0);

    // stitch with outputs: the mosaic's write is one `write` layer span
    let mosaic = dir.join("mosaic.pgm");
    let (pos, report) = (dir.join("pos.tsv"), dir.join("report.json"));
    let cmd = parse(&argv(&format!(
        "stitch --dataset {dir_s} --impl simple-cpu --out {} --positions {} --run-report {}",
        mosaic.display(),
        pos.display(),
        report.display()
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);
    assert!(mosaic.exists());
    let reported = std::fs::read_to_string(&report).unwrap();
    assert!(reported.contains("\"write\":{\"count\":1,"), "{reported}");
    // the buffer recycler's high-water and idle bytes are gauges
    for gauge in ["memory.recycled_peak_mb", "memory.recycled_idle_mb"] {
        assert!(
            reported.contains(&format!("\"{gauge}\":")),
            "{gauge}: {reported}"
        );
    }
    let tsv = std::fs::read_to_string(&pos).unwrap();
    assert!(tsv.starts_with("row\tcol\tx\ty\n"));
    assert_eq!(tsv.lines().count(), 1 + 6, "header + one line per tile");

    // the mosaic decodes and is larger than a single tile
    let img = stitching::image::pgm::read_pgm(&mosaic).unwrap();
    assert!(img.width() > 64 && img.height() > 48);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_then_stitch_multichannel_stack() {
    let dir = std::env::temp_dir().join("stitch_cli_it_channels");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.display().to_string();

    // generate a 2-channel × 2-plane stack
    let cmd = parse(&argv(&format!(
        "generate --out {dir_s} --rows 2 --cols 3 --tile-width 64 --tile-height 48 \
         --channels 2 --z-planes 2"
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);
    assert!(dir.join("manifest.tsv").exists());
    assert!(dir.join("img_c01_z01_r001_c002.tif").exists());

    // stitch: the extended manifest flips the CLI into channel mode with
    // no extra flags — one mosaic per (channel, plane), each compose traced
    // and each file's write a `write` layer span
    let mosaic = dir.join("m.pgm");
    let (pos, trace) = (dir.join("pos.tsv"), dir.join("trace.json"));
    let report = dir.join("report.json");
    let stitch = |out: &str| {
        let cmd = parse(&argv(&format!(
            "stitch --dataset {dir_s} --impl simple-cpu --positions {} --trace-json {} \
             --run-report {} {out}",
            pos.display(),
            trace.display(),
            report.display()
        )))
        .unwrap();
        assert_eq!(run(cmd), 0);
        let read = |p| std::fs::read_to_string(p).unwrap();
        (read(&pos), read(&trace), read(&report))
    };
    let (tsv, traced, reported) = stitch(&format!("--out {}", mosaic.display()));
    for label in ["c00_z00", "c00_z01", "c01_z00", "c01_z01"] {
        assert!(
            dir.join(format!("m_{label}.pgm")).exists(),
            "missing unit {label}"
        );
    }
    assert_eq!(tsv.lines().count(), 1 + 6, "one shared frame for all units");
    assert!(traced.contains("\"compose\""), "unit composes are traced");
    assert!(reported.contains("\"write\":{\"count\":4,"), "{reported}");
    assert!(
        !reported.contains("flatfield"),
        "nothing corrected: {reported}"
    );
    // without --out the same frame is solved and not one unit is composed
    // or written
    let (positions_only, traced, reported) = stitch("");
    assert_eq!(positions_only, tsv);
    assert!(traced.contains("\"solve\"") && !traced.contains("compose"));
    assert!(!reported.contains("\"write\""), "{reported}");

    // max-z + flat-field correction: one projection per channel, each
    // channel's fit and tile correction a `flatfield` layer span
    let cmd = parse(&argv(&format!(
        "stitch --dataset {dir_s} --impl simple-cpu --maxz --correct-illumination \
         --ref-channel 1 --out {} --run-report {}",
        mosaic.display(),
        report.display()
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);
    let reported = std::fs::read_to_string(&report).unwrap();
    assert!(reported.contains("\"flatfield\":{\"count\":"), "{reported}");
    assert!(dir.join("m_c00_maxz.pgm").exists());
    assert!(dir.join("m_c01_maxz.pgm").exists());
    let img = stitching::image::pgm::read_pgm(dir.join("m_c01_maxz.pgm")).unwrap();
    assert!(img.width() > 64 && img.height() > 48);

    // an out-of-range reference channel fails cleanly
    let cmd = parse(&argv(&format!("stitch --dataset {dir_s} --ref-channel 9"))).unwrap();
    assert_eq!(run(cmd), 1);

    std::fs::remove_dir_all(&dir).ok();
}

/// There is one spectrum layout and no flag selects it: `--transform`
/// is an unknown flag like any other, whatever the implementation.
#[test]
fn transform_flag_is_gone_for_every_impl() {
    let impls = [
        "simple-cpu",
        "mt-cpu",
        "pipelined-cpu",
        "simple-gpu",
        "pipelined-gpu",
        "fiji",
    ];
    for variant in impls {
        let line = format!("stitch --dataset /d --impl {variant} --transform real");
        let err = parse(&argv(&line)).unwrap_err();
        assert_eq!(err, "unknown flag --transform for 'stitch'", "{variant}");
    }
}

#[test]
fn unknown_flags_are_rejected_per_subcommand() {
    // `--thread 8` used to be swallowed and the run kept 4 threads
    let err = parse(&argv("stitch --dataset /d --thread 8")).unwrap_err();
    assert_eq!(err, "unknown flag --thread for 'stitch'");
    // a flag of one sub-command is unknown to another
    let err = parse(&argv("info --dataset /d --threads 2")).unwrap_err();
    assert_eq!(err, "unknown flag --threads for 'info'");
    assert!(parse(&argv("shard --jitter 1.0")).is_err());
    // generate's two undocumented-until-now flags stay accepted
    match parse(&argv("generate --out /tmp/x --jitter 0.5 --noise 7")).unwrap() {
        Command::Generate { config, .. } => {
            assert_eq!((config.stage_jitter, config.noise_sigma), (0.5, 7.0));
        }
        other => panic!("{other:?}"),
    }
    let err = parse(&argv("stitch --dataset /d --impl nope")).unwrap_err();
    for token in [
        "simple-cpu",
        "mt-cpu",
        "pipelined-cpu",
        "fiji",
        "simple-gpu",
        "pipelined-gpu",
    ] {
        assert!(err.contains(token), "{err}");
    }
}

/// One tile of the dataset has other dimensions than the manifest says:
/// every implementation reports it as a lost tile (exit 2, tile named)
/// instead of panicking in a kernel or never returning.
#[test]
fn wrong_sized_tile_aborts_with_the_tile_named() {
    use std::time::{Duration, Instant};
    use stitching::image::{tiff::write_tiff, Image, SyntheticPlate};

    let dir = std::env::temp_dir().join("stitch_cli_it_wrong_size");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.display().to_string();
    let cmd = parse(&argv(&format!(
        "generate --out {dir_s} --rows 3 --cols 4 --tile-width 64 --tile-height 48"
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);
    write_tiff(
        dir.join(SyntheticPlate::tile_file_name(0, 0, 1, 1)),
        &Image::<u16>::filled(40, 32, 7),
    )
    .unwrap();

    for variant in ["pipelined-cpu", "pipelined-gpu", "simple-cpu"] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_stitch"))
            .args(["stitch", "--dataset", &dir_s, "--impl", variant])
            .stderr(std::process::Stdio::piped())
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let t0 = Instant::now();
        while child.try_wait().unwrap().is_none() {
            if t0.elapsed() > Duration::from_secs(20) {
                child.kill().ok();
                panic!("--impl {variant} did not return within 20 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--impl {variant}: {stderr}");
        assert!(
            stderr.contains("error: tile (1,1)") && stderr.contains("tile is 40x32"),
            "--impl {variant}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The phase-1 line of `stitch stitch` prints the CCF counters of
/// `StitchResult::ops`: probes and the overlap pixels they visited, then
/// probes per pair and pixels per probe; then the pairs searched within
/// their stage window and the fallbacks. 64×48 tiles are too short for a
/// window, 160×140 ones take it.
#[test]
fn phase1_line_prints_the_ccf_counters() {
    use stitching::core::{DirSource, SimpleCpuStitcher, Stitcher, TileSource};

    // toy tiles, tiles that take the stage window, and a 2×2 plate of
    // paper tiles whose Fourier half runs binned
    for (w, h, rows, cols) in [(64, 48, 3, 4), (160, 140, 3, 4), (1392, 1040, 2, 2)] {
        let dir = std::env::temp_dir().join(format!("stitch_cli_it_ccf_counters_{w}x{h}"));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.display().to_string();
        let cmd = parse(&argv(&format!(
            "generate --out {dir_s} --rows {rows} --cols {cols} --tile-width {w} --tile-height {h}"
        )))
        .unwrap();
        assert_eq!(run(cmd), 0);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_stitch"))
            .args(["stitch", "--dataset", &dir_s, "--impl", "simple-cpu"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("phase 1:"))
            .unwrap_or_else(|| panic!("no phase-1 line in {stdout}"));
        let ccf = line
            .split("CCF ")
            .nth(1)
            .unwrap_or_else(|| panic!("{line}"));
        let words: Vec<&str> = ccf.split_whitespace().collect();

        let source = DirSource::open(&dir).unwrap();
        let pairs = source.shape().pairs() as f64;
        let ops = SimpleCpuStitcher::default()
            .compute_displacements(&source)
            .ops;
        assert!(
            ops.ccf_probes > 0 && ops.ccf_pixels > ops.ccf_probes,
            "{ops:?}"
        );
        let windowed = if (132..264).contains(&h) {
            pairs as u64
        } else {
            0
        };
        assert_eq!(ops.windowed_pairs, windowed, "{ops:?}");
        let coarse = if h >= 264 { pairs as u64 } else { 0 };
        assert_eq!(
            (ops.coarse_pairs, ops.coarse_fallbacks),
            (coarse, 0),
            "{ops:?}"
        );
        let want = [
            ops.ccf_probes.to_string(),
            ops.ccf_pixels.to_string(),
            format!("{:.1}", ops.ccf_probes as f64 / pairs),
            format!("{:.1}", ops.ccf_pixels as f64 / ops.ccf_probes as f64),
            ops.windowed_pairs.to_string(),
            ops.window_fallbacks.to_string(),
            ops.coarse_pairs.to_string(),
            ops.coarse_fallbacks.to_string(),
        ];
        let got = [
            words[0], words[3], words[5], words[9], words[16], words[18], words[24], words[26],
        ];
        assert_eq!(got, want.each_ref().map(String::as_str), "{line}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn stitch_missing_dataset_fails_cleanly() {
    let cmd = parse(&argv("stitch --dataset /nonexistent/place")).unwrap();
    assert_eq!(run(cmd), 1);
}

#[test]
fn info_missing_dataset_fails_cleanly() {
    let cmd = parse(&argv("info --dataset /nonexistent/place")).unwrap();
    assert_eq!(run(cmd), 1);
}

#[test]
fn simulate_runs() {
    let cmd = parse(&argv("simulate --machine laptop --rows 8 --cols 8")).unwrap();
    assert!(matches!(cmd, Command::Simulate { .. }));
    assert_eq!(run(cmd), 0);
}

#[test]
fn help_runs() {
    assert_eq!(run(Command::Help), 0);
}
