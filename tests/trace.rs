//! End-to-end tests for unified run observability: the merged CPU+GPU
//! timeline, Chrome-trace export, and the run report.

use stitching::gpu::{Device, DeviceConfig};
use stitching::image::{ScanConfig, SyntheticPlate};
use stitching::prelude::*;
use stitching::trace::json;

fn profile_source() -> SyntheticSource {
    // kernel time must dominate per-item overheads for the Fig 7 vs
    // Fig 9 contrast to show, hence larger-than-default tiles
    SyntheticSource::new(SyntheticPlate::generate(ScanConfig {
        grid_rows: 6,
        grid_cols: 6,
        tile_width: 160,
        tile_height: 120,
        overlap: 0.25,
        stage_jitter: 2.0,
        backlash_x: 1.0,
        noise_sigma: 40.0,
        vignette: 0.03,
        seed: 83,
    }))
}

fn transfer_device(id: usize) -> Device {
    Device::new(
        id,
        DeviceConfig {
            memory_bytes: 256 << 20,
            ..DeviceConfig::with_transfer_model()
        },
    )
}

/// A device whose upload of one 160×120 tile takes about as long (≈ 1 ms)
/// as the kernels that tile needs, so an upload that a schedule lets
/// overlap a kernel will.
fn slow_link_device(id: usize) -> Device {
    Device::new(
        id,
        DeviceConfig {
            memory_bytes: 256 << 20,
            h2d_bytes_per_sec: Some(40.0e6),
            ..DeviceConfig::with_transfer_model()
        },
    )
}

/// `variant` on `device`, recording into `trace` (four CCF threads, the
/// Pipelined-GPU default).
fn traced(variant: Variant, device: Device, trace: &TraceHandle) -> Box<dyn Stitcher> {
    variant.build(&Resources {
        threads: 4,
        devices: vec![device],
        trace: trace.clone(),
        ..Resources::default()
    })
}

/// The unified trace's acceptance test, the paper's Fig 7 vs Fig 9
/// contrast read off the merged timeline: Simple-GPU follows every
/// operation with a stream synchronize, so not one nanosecond of copy time
/// is hidden under a kernel; Pipelined-GPU uploads the next tile while the
/// kernels of earlier ones run. (Until the CCF stage got cheap this test
/// compared kernel densities. Those also move with how slow the host work
/// between two launches happens to be — Simple-GPU's idle gaps *were* the
/// host CCF — and with whatever else the machine runs.)
#[test]
fn merged_timeline_hides_copies_under_kernels_only_when_pipelined() {
    let src = profile_source();

    let trace_simple = TraceHandle::new();
    traced(Variant::SimpleGpu, slow_link_device(0), &trace_simple).compute_displacements(&src);
    let rep_simple = RunReport::from_trace(&trace_simple);

    let trace_pipe = TraceHandle::new();
    traced(Variant::PipelinedGpu, slow_link_device(1), &trace_pipe).compute_displacements(&src);
    let rep_pipe = RunReport::from_trace(&trace_pipe);

    assert!(rep_simple.kernel_density > 0.0 && rep_pipe.kernel_density > 0.0);
    assert_eq!(rep_simple.copy_compute_overlap, 0.0);
    assert!(rep_pipe.copy_compute_overlap > 0.0);
}

/// A single traced stitch run emits one Chrome-trace file holding both
/// CPU stage spans and simulated-device spans on a shared clock.
#[test]
fn chrome_trace_merges_host_and_device_rows() {
    let src = profile_source();
    let trace = TraceHandle::new();
    traced(Variant::PipelinedGpu, transfer_device(0), &trace).compute_displacements(&src);

    let spans = trace.spans();
    let host = |s: &stitching::trace::TraceSpan| s.track.starts_with("pipe0/");
    let device = |s: &stitching::trace::TraceSpan| s.track.starts_with("gpu0/");
    assert!(spans.iter().any(host), "host stage spans present");
    assert!(spans.iter().any(device), "device spans present");
    // shared clock: the two families of spans interleave — each one's
    // window overlaps the other's rather than sitting disjoint
    let window = |f: &dyn Fn(&stitching::trace::TraceSpan) -> bool| {
        let lo = spans.iter().filter(|s| f(s)).map(|s| s.start_ns).min();
        let hi = spans.iter().filter(|s| f(s)).map(|s| s.end_ns).max();
        (lo.unwrap(), hi.unwrap())
    };
    let (h0, h1) = window(&|s: &stitching::trace::TraceSpan| host(s));
    let (d0, d1) = window(&|s: &stitching::trace::TraceSpan| device(s));
    assert!(h0 < d1 && d0 < h1, "host {h0}..{h1} vs device {d0}..{d1}");

    let chrome = trace.to_chrome_json();
    json::validate(&chrome).expect("well-formed JSON");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("pipe0/read"), "host row named");
    assert!(chrome.contains("gpu0/"), "device row named");

    // queue occupancy stats made it into the report
    let rep = RunReport::from_trace(&trace);
    assert!(rep.queues.iter().any(|q| q.name == "gpu0.q12"));
    assert!(rep.queues.iter().any(|q| q.name == "q56"));
    json::validate(&rep.to_json()).expect("well-formed report JSON");
}

/// One recorder, one formula: the profiler reads kernel density off the
/// device's own trace with the formula `RunReport` applies, so after a
/// Pipelined-GPU run the two agree bit for bit — and the run trace's
/// device rows are that trace's spans, one for one.
#[test]
fn profiler_density_is_the_run_reports_over_the_device_trace() {
    let src = profile_source();
    let device = transfer_device(0);
    let trace = TraceHandle::new();
    traced(Variant::PipelinedGpu, device.clone(), &trace).compute_displacements(&src);
    let profiler = device.profiler();
    let density = profiler.kernel_density();
    assert!(density > 0.0);
    let report = RunReport::from_trace(profiler.trace());
    assert_eq!(density.to_bits(), report.kernel_density.to_bits());
    let device_rows = trace
        .spans()
        .iter()
        .filter(|s| s.track.starts_with("gpu0/"))
        .count();
    assert_eq!(device_rows, profiler.spans().len());
}

/// `RunReport.stages` lists the real stages of both pipelined variants,
/// with the framework's own item counts and busy time.
#[test]
fn run_report_lists_every_pipeline_stage() {
    let src = SyntheticSource::new(SyntheticPlate::generate(ScanConfig::for_grid(
        3, 4, 64, 48, 0.25, 21,
    )));
    let (tiles, pairs) = (12, 17);
    let stages_of = |trace: &TraceHandle| -> Vec<(String, usize, u64)> {
        let stages = RunReport::from_trace(trace).stages;
        for s in &stages {
            assert!(s.busy_ns > 0, "stage {} reports no busy time", s.name);
        }
        stages
            .into_iter()
            .map(|s| (s.name, s.threads, s.items))
            .collect()
    };

    let trace = TraceHandle::new();
    PipelinedCpuStitcher::new(2)
        .with_trace(trace.clone())
        .compute_displacements(&src);
    let stage = |name: &str, threads, items| (name.to_string(), threads, items);
    assert_eq!(
        stages_of(&trace),
        [
            stage("traversal", 1, 1),
            stage("read", 1, tiles),
            stage("fft", 2, tiles + pairs),
            stage("bk", 1, tiles),
        ]
    );

    let trace = TraceHandle::new();
    traced(Variant::PipelinedGpu, transfer_device(0), &trace).compute_displacements(&src);
    assert_eq!(
        stages_of(&trace),
        [
            stage("pipe0/read", 1, 1), // a source: one run, not one item per tile
            stage("pipe0/copy", 1, tiles),
            stage("pipe0/fft", 1, tiles),
            stage("pipe0/bk", 1, tiles),
            stage("pipe0/disp", 1, pairs),
            stage("ccf", 4, pairs),
        ]
    );
}

/// `--trace-json` / `--run-report` work end to end through the CLI.
#[test]
fn cli_writes_trace_and_report() {
    use stitching::cli::{parse, run};
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();

    let dir = std::env::temp_dir().join("stitch_trace_it");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.display().to_string();
    let cmd = parse(&argv(&format!(
        "generate --out {dir_s} --rows 2 --cols 3 --tile-width 64 --tile-height 48"
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);

    let trace_path = dir.join("trace.json");
    let report_path = dir.join("report.json");
    let cmd = parse(&argv(&format!(
        "stitch --dataset {dir_s} --impl pipelined-gpu --trace-json {} --run-report {}",
        trace_path.display(),
        report_path.display()
    )))
    .unwrap();
    assert_eq!(run(cmd), 0);

    let chrome = std::fs::read_to_string(&trace_path).unwrap();
    json::validate(&chrome).expect("well-formed trace JSON");
    assert!(chrome.contains("pipe0/read"), "host rows");
    assert!(chrome.contains("gpu0/"), "device rows");

    let report = std::fs::read_to_string(&report_path).unwrap();
    json::validate(&report).expect("well-formed report JSON");
    assert!(report.contains("\"kernel_density\""));
    assert!(report.contains("\"queues\""));

    std::fs::remove_dir_all(&dir).ok();
}

/// Cross-job device contention: two GPU jobs submitted to the scheduler
/// share one device with a single stream slot. They must serialize their
/// kernels (never deadlock), release every lease, and produce a merged
/// per-job-lane timeline that passes the strict trace checker.
#[test]
fn two_gpu_jobs_on_one_stream_serialize_without_deadlock() {
    use stitching::gpu::SpanKind;
    use stitching::sched::{JobStatus, JobVariant, Scheduler, SchedulerConfig, StitchJob};

    let device = Device::new(
        0,
        DeviceConfig {
            stream_slots: Some(1),
            ..DeviceConfig::with_transfer_model()
        },
    );
    let trace = TraceHandle::new();
    let sched = Scheduler::new(SchedulerConfig {
        workers: 2, // both jobs get a worker; only the stream slot gates
        device: Some(device.clone()),
        trace: trace.clone(),
        ..SchedulerConfig::default()
    });
    let scan = |seed| ScanConfig::for_grid(3, 3, 64, 48, 0.25, seed);
    let a = sched
        .submit(
            StitchJob::new("a", scan(1))
                .variant(JobVariant::SimpleGpu)
                .compose(false),
        )
        .unwrap();
    let b = sched
        .submit(
            StitchJob::new("b", scan(2))
                .variant(JobVariant::SimpleGpu)
                .compose(false),
        )
        .unwrap();
    assert_eq!(a.wait().status, JobStatus::Completed, "job a must finish");
    assert_eq!(b.wait().status, JobStatus::Completed, "job b must finish");
    sched.join();
    assert_eq!(device.active_stream_leases(), 0, "stream leases returned");

    // One stream slot means whole-job serialization on the device: at no
    // instant were two kernels in flight.
    assert_eq!(
        device.profiler().peak_concurrency(SpanKind::Kernel),
        1,
        "kernels overlapped on a one-stream device"
    );

    // The merged timeline carries one lane family per job, device rows
    // included, and survives the strict Chrome-trace checker.
    let spans = trace.spans();
    assert!(spans.iter().any(|s| s.track.starts_with("job.a/")));
    assert!(spans.iter().any(|s| s.track.starts_with("job.b/")));
    assert!(
        spans
            .iter()
            .any(|s| s.track.starts_with("job.a/gpu0/") && s.cat == "kernel"),
        "per-job device kernel rows present"
    );
    json::validate(&trace.to_chrome_json()).expect("well-formed merged trace");
}
