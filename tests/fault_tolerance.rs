//! Acceptance tests for the fault-tolerance work: deterministic fault
//! injection against every stitcher variant, checking (a) transient
//! faults + retries leave the output bit-identical, (b) a permanently
//! corrupt tile degrades to a partial result under `--allow-partial`,
//! (c) strict mode aborts cleanly instead of hanging, (d) a tile of the
//! wrong size is a failed tile, (e) a panicking read stage becomes a
//! `StitchError::Pipeline` with nothing leaked, and (f) phase 3 reads
//! under the pass's retry policy, so a lost tile is a hole in the mosaic.

use std::time::Duration;

use stitch_testkit::variants;
use stitching::core::{PciamContext, PipelinedGpuConfig, SpectrumPool};
use stitching::gpu::{Device, DeviceConfig};
use stitching::image::{ScanConfig, SyntheticPlate};
use stitching::prelude::*;

fn scan(rows: usize, cols: usize, seed: u64) -> ScanConfig {
    ScanConfig {
        grid_rows: rows,
        grid_cols: cols,
        tile_width: 64,
        tile_height: 48,
        overlap: 0.25,
        stage_jitter: 2.5,
        backlash_x: 1.0,
        noise_sigma: 40.0,
        vignette: 0.03,
        seed,
    }
}

/// A retry policy that spins fast (no real sleeping) with enough budget
/// that a 20% per-attempt transient rate cannot plausibly exhaust it.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 8,
        backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        deadline: None,
    }
}

#[test]
fn transient_faults_with_retries_are_bit_identical() {
    let cfg = scan(3, 4, 1101);
    let clean = SyntheticSource::new(SyntheticPlate::generate(cfg.clone()));
    let reference = SimpleCpuStitcher::default().compute_displacements(&clean);
    assert!(reference.is_complete());

    let spec = FaultSpec::parse("seed=7,transient=0.2").unwrap().0;
    let policy = FailurePolicy {
        retry: fast_retry(),
        allow_partial: false,
    };
    for s in variants() {
        let faulty = FaultySource::new(
            SyntheticSource::new(SyntheticPlate::generate(cfg.clone())),
            spec.clone(),
        );
        let r = s
            .try_compute_displacements(&faulty, &policy)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        assert!(r.is_complete(), "{}", s.name());
        assert_eq!(r.west, reference.west, "{}", s.name());
        assert_eq!(r.north, reference.north, "{}", s.name());
        assert!(r.health.failed_tiles().is_empty(), "{}", s.name());
        assert!(
            faulty.stats().transient > 0,
            "{}: seed 7 at 20% must inject something",
            s.name()
        );
        assert!(
            r.health.total_retries > 0,
            "{}: injected transients imply retries",
            s.name()
        );
    }
}

/// One pass of `stitcher` over `source` under `policy`, composed with
/// the overlay blend on two workers.
fn mosaic_of(
    stitcher: &dyn Stitcher,
    source: &dyn TileSource,
    policy: &FailurePolicy,
) -> Image<u16> {
    let overlay = MosaicSpec {
        blend: Blend::Overlay,
        workers: 2,
        highlight: false,
    };
    let untraced = TraceHandle::disabled();
    run_pass(stitcher, source, policy, Some(overlay), &untraced, &|| {
        false
    })
    .unwrap_or_else(|e| panic!("{}: {e}", stitcher.name()))
    .mosaic
    .expect("composed")
}

/// Phase 3 reads under the pass's retry policy, as phase 1 does: the
/// transients it meets are retried away, never drawn as holes.
#[test]
fn transient_faults_with_retries_compose_the_clean_mosaic() {
    let cfg = scan(3, 4, 1101);
    let clean = SyntheticSource::new(SyntheticPlate::generate(cfg.clone()));
    let reference = mosaic_of(
        &SimpleCpuStitcher::default(),
        &clean,
        &FailurePolicy::default(),
    );

    let spec = FaultSpec::parse("seed=7,transient=0.2").unwrap().0;
    let policy = FailurePolicy {
        retry: fast_retry(),
        allow_partial: false,
    };
    for s in variants() {
        let faulty = FaultySource::new(
            SyntheticSource::new(SyntheticPlate::generate(cfg.clone())),
            spec.clone(),
        );
        let mosaic = mosaic_of(&*s, &faulty, &policy);
        assert!(
            mosaic == reference,
            "{}: mosaic differs from the clean run's",
            s.name()
        );
    }
}

/// A source whose one tile decodes to other dimensions than it declares.
struct MisSizedSource {
    inner: SyntheticSource,
    odd: TileId,
}

impl TileSource for MisSizedSource {
    fn shape(&self) -> GridShape {
        self.inner.shape()
    }
    fn tile_dims(&self) -> (usize, usize) {
        self.inner.tile_dims()
    }
    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        if id == self.odd {
            return Ok(Image::filled(32, 24, 7));
        }
        self.inner.load(id)
    }
}

/// A mis-sized tile is lost in phase 3 as it is in phase 1: its mosaic is
/// the one a corrupt tile in its place leaves, hole and all.
#[test]
fn wrong_sized_tile_is_the_same_hole_as_a_corrupt_one() {
    let cfg = scan(2, 3, 1616);
    let plate = || SyntheticSource::new(SyntheticPlate::generate(cfg.clone()));
    let odd = TileId::new(1, 1);
    let policy = FailurePolicy::partial();
    let stitcher = SimpleCpuStitcher::default();
    let mis_sized = MisSizedSource {
        inner: plate(),
        odd,
    };
    let corrupt = FaultySource::new(plate(), FaultSpec::parse("corrupt=1.1").unwrap().0);
    let (got, want) = (
        mosaic_of(&stitcher, &mis_sized, &policy),
        mosaic_of(&stitcher, &corrupt, &policy),
    );
    assert_eq!(got.dims(), want.dims());
    let differ = got
        .pixels()
        .iter()
        .zip(want.pixels())
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(differ, 0, "the mis-sized tile was drawn into the mosaic");
}

#[test]
fn corrupt_tile_degrades_to_partial_result() {
    let cfg = scan(3, 4, 1202);
    let truth = SyntheticPlate::generate(cfg.clone()).positions().to_vec();
    let dead = TileId::new(1, 1);
    let spec = FaultSpec::parse("corrupt=1.1").unwrap().0;
    let policy = FailurePolicy {
        retry: fast_retry(),
        allow_partial: true,
    };
    for s in variants() {
        let faulty = FaultySource::new(
            SyntheticSource::new(SyntheticPlate::generate(cfg.clone())),
            spec.clone(),
        );
        let r = s
            .try_compute_displacements(&faulty, &policy)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        assert_eq!(r.health.failed_tiles(), vec![dead], "{}", s.name());
        assert!(r.health.is_degraded(), "{}", s.name());
        assert!(r.is_complete_modulo_failures(), "{}", s.name());
        assert!(!r.is_complete(), "{}", s.name());

        // phase 2 must still place every survivor exactly (up to the
        // global translation the optimizer normalizes away)
        let positions = GlobalOptimizer::default().solve(&r);
        let anchor = TileId::new(0, 0);
        let (ax, ay) = positions.get(anchor);
        let (tx, ty) = truth[r.shape.index(anchor)];
        for id in r.shape.ids() {
            if id == dead {
                continue;
            }
            let (x, y) = positions.get(id);
            let (wx, wy) = truth[r.shape.index(id)];
            assert_eq!(
                (x - ax, y - ay),
                (wx - tx, wy - ty),
                "{}: survivor {id} misplaced",
                s.name()
            );
        }

        // the machine-readable summary must name the lost tile
        let json = r.health.to_json();
        assert!(json.contains("\"failed\""), "{}: {json}", s.name());
        assert!(
            json.contains("1,1") || json.contains("(1, 1)"),
            "{}: {json}",
            s.name()
        );

        // and composition must still produce a mosaic (with a hole)
        let mosaic = Composer::new(positions, Blend::First).compose(&faulty);
        assert!(mosaic.width() > 0 && mosaic.height() > 0, "{}", s.name());
    }
}

#[test]
fn strict_mode_aborts_cleanly_on_corrupt_tile() {
    let cfg = scan(3, 4, 1303);
    let spec = FaultSpec::parse("corrupt=2.0").unwrap().0;
    let policy = FailurePolicy {
        retry: fast_retry(),
        allow_partial: false,
    };
    for s in variants() {
        let faulty = FaultySource::new(
            SyntheticSource::new(SyntheticPlate::generate(cfg.clone())),
            spec.clone(),
        );
        let err = s
            .try_compute_displacements(&faulty, &policy)
            .err()
            .unwrap_or_else(|| panic!("{}: strict mode must refuse a lost tile", s.name()));
        match &err {
            StitchError::Tile { id, .. } => assert_eq!(*id, TileId::new(2, 0), "{}", s.name()),
            other => panic!("{}: unexpected error {other:?}", s.name()),
        }
        assert!(
            err.to_string().contains("allow-partial"),
            "{}: the error must point at the escape hatch: {err}",
            s.name()
        );
    }
}

#[test]
fn device_faults_and_tile_faults_compose() {
    // one spec string drives both layers: tile transients retried by the
    // reader, device transfer/kernel faults retried by the stream workers
    let cfg = scan(3, 4, 1404);
    let clean = SyntheticSource::new(SyntheticPlate::generate(cfg.clone()));
    let reference = SimpleCpuStitcher::default().compute_displacements(&clean);

    let spec_str = "seed=5,transient=0.15,gpu-seed=5,gpu-h2d=0.1,gpu-d2h=0.1,gpu-kernel=0.1";
    let (tile_spec, gpu_cfg) = FaultSpec::parse(spec_str).unwrap();
    let gpu_cfg = gpu_cfg.unwrap();
    let device_config = DeviceConfig {
        fault: Some(gpu_cfg),
        ..DeviceConfig::small(128 << 20)
    };
    let policy = FailurePolicy {
        retry: fast_retry(),
        allow_partial: false,
    };

    let stitchers: Vec<Box<dyn Stitcher>> = vec![
        Box::new(SimpleGpuStitcher::new(Device::new(
            0,
            device_config.clone(),
        ))),
        Box::new(PipelinedGpuStitcher::single(Device::new(
            0,
            device_config.clone(),
        ))),
    ];
    for s in stitchers {
        let faulty = FaultySource::new(
            SyntheticSource::new(SyntheticPlate::generate(cfg.clone())),
            tile_spec.clone(),
        );
        let r = s
            .try_compute_displacements(&faulty, &policy)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        assert!(r.is_complete(), "{}", s.name());
        assert_eq!(r.west, reference.west, "{}", s.name());
        assert_eq!(r.north, reference.north, "{}", s.name());
    }
}

#[test]
fn both_endpoints_of_a_pair_can_fail() {
    // adjacent corrupt tiles: the shared pair must be voided exactly once
    // and every variant must still terminate and report both tiles
    let cfg = scan(3, 4, 1505);
    let spec = FaultSpec::parse("corrupt=1.1+1.2").unwrap().0;
    let policy = FailurePolicy {
        retry: fast_retry(),
        allow_partial: true,
    };
    for s in variants() {
        let faulty = FaultySource::new(
            SyntheticSource::new(SyntheticPlate::generate(cfg.clone())),
            spec.clone(),
        );
        let r = s
            .try_compute_displacements(&faulty, &policy)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        let mut failed = r.health.failed_tiles();
        failed.sort();
        assert_eq!(
            failed,
            vec![TileId::new(1, 1), TileId::new(1, 2)],
            "{}",
            s.name()
        );
        assert!(r.is_complete_modulo_failures(), "{}", s.name());
    }
}

/// Runs `f` on a helper thread and fails — instead of hanging the suite —
/// if it has not finished within ten seconds.
fn within_10s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("stitcher did not return within 10 s (hang)")
}

#[test]
fn wrong_sized_tile_is_a_failed_tile_in_every_variant() {
    use stitching::image::tiff::write_tiff;
    let dir = std::env::temp_dir().join("stitch_ft_wrong_size");
    let _ = std::fs::remove_dir_all(&dir);
    SyntheticPlate::generate(scan(3, 4, 1606))
        .write_to_dir(&dir)
        .unwrap();
    let odd = TileId::new(1, 1);
    write_tiff(
        dir.join(SyntheticPlate::tile_file_name(0, 0, odd.row, odd.col)),
        &Image::<u16>::filled(40, 32, 7),
    )
    .unwrap();
    let source = std::sync::Arc::new(DirSource::open(&dir).unwrap());

    for allow_partial in [false, true] {
        for variant in 0..variants().len() {
            let source = std::sync::Arc::clone(&source);
            let (name, outcome) = within_10s(move || {
                let s = variants().swap_remove(variant);
                let policy = FailurePolicy {
                    retry: fast_retry(),
                    allow_partial,
                };
                let outcome = s.try_compute_displacements(source.as_ref(), &policy);
                (s.name(), outcome)
            });
            if allow_partial {
                let r = outcome.unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(r.health.failed_tiles(), vec![odd], "{name}");
                assert!(r.is_complete_modulo_failures(), "{name}");
            } else {
                match outcome {
                    Err(StitchError::Tile { id, error }) => {
                        assert_eq!(id, odd, "{name}");
                        assert!(matches!(error, SourceError::Corrupt { .. }), "{name}");
                        let text = error.to_string();
                        assert!(
                            text.contains("40x32") && text.contains("64x48"),
                            "{name}: {text}"
                        );
                    }
                    other => panic!("{name}: expected a tile error, got {other:?}"),
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A source whose `load` panics on one tile — a stand-in for a decoder
/// bug, the failure the stage framework has to contain.
struct PanickingSource {
    inner: SyntheticSource,
    bomb: TileId,
}

impl TileSource for PanickingSource {
    fn shape(&self) -> GridShape {
        self.inner.shape()
    }
    fn tile_dims(&self) -> (usize, usize) {
        self.inner.tile_dims()
    }
    fn load(&self, id: TileId) -> Result<Image<u16>, SourceError> {
        assert_ne!(id, self.bomb, "injected decoder panic");
        self.inner.load(id)
    }
}

fn panicking_source(rows: usize, cols: usize, bomb: TileId) -> PanickingSource {
    PanickingSource {
        inner: SyntheticSource::new(SyntheticPlate::generate(scan(rows, cols, 1707))),
        bomb,
    }
}

fn assert_read_stage_panic(err: StitchError, read_stage: &str, case: &str) {
    match err {
        StitchError::Pipeline { detail } => {
            assert!(
                detail.contains(&format!("stage '{read_stage}' panicked")),
                "{case}: {detail}"
            );
            assert!(
                detail.contains("injected decoder panic"),
                "{case}: {detail}"
            );
        }
        other => panic!("{case}: expected a pipeline error, got {other:?}"),
    }
}

#[test]
fn pipelined_cpu_contains_a_panicking_read() {
    for threads in [1, 2] {
        let (w, h) = (64, 48);
        let spectra = SpectrumPool::new(PciamContext::spectrum_len((w, h), None));
        let pool = spectra.clone();
        let err = within_10s(move || {
            let resources = Resources {
                threads,
                spectrum_pool: Some(pool),
                ..Resources::default()
            };
            Variant::PipelinedCpu
                .build(&resources)
                .try_compute_displacements(
                    &panicking_source(4, 5, TileId::new(2, 2)),
                    &FailurePolicy::default(),
                )
        })
        .expect_err("a panicking read cannot produce a result");
        let case = format!("Pipelined-CPU({threads})");
        assert_read_stage_panic(err, "read", &case);
        assert_eq!(spectra.leased(), 0, "{case}: a spectrum was stranded");
    }
}

#[test]
fn pipelined_gpu_contains_a_panicking_read() {
    for gpus in [1, 2] {
        let devices: Vec<Device> = (0..gpus)
            .map(|id| Device::new(id, DeviceConfig::small(128 << 20)))
            .collect();
        let handles = devices.clone();
        // column 1 belongs to device 0 with one device and with two
        let err = within_10s(move || {
            PipelinedGpuStitcher::new(devices, PipelinedGpuConfig::default())
                .try_compute_displacements(
                    &panicking_source(4, 6, TileId::new(2, 1)),
                    &FailurePolicy::default(),
                )
        })
        .expect_err("a panicking read cannot produce a result");
        let case = format!("Pipelined-GPU({gpus})");
        assert_read_stage_panic(err, "pipe0/read", &case);
        for d in handles {
            assert_eq!(d.memory_used(), 0, "{case}: device {} leaked", d.id());
        }
    }
}
