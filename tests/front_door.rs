//! Robustness of the front door: everything an operator types or the
//! acquisition writes to disk — command lines, job lines, serve requests,
//! fault specs, manifests, TIFF and PGM files — is answered with `Ok` or
//! `Err`, never a panic or an abort, and never by allocating more than a
//! small multiple of the input (a header's word is not a size).
//!
//! Two kinds of input per entry point: arbitrary printable text / bytes,
//! and well-formed inputs with a few mutations (a flipped byte, a
//! truncation, a number swapped for a nasty one). `degenerate_inputs_*`
//! pin the specific inputs that used to panic a worker, abort the process
//! or silently succeed.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use stitch_testkit::alloc::CountingAllocator;
use stitching::cli::{parse, run};
use stitching::core::FaultSpec;
use stitching::image::{pgm, tiff, GridManifest, Image, MultiGridManifest};
use stitching::sched::{parse_job_line, run_batch_text, BatchOptions};
use stitching::serve::{parse_request, Event, ServeConfig, ServeDaemon};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Runs `f` on an input of `len` bytes and checks that this thread asked
/// the heap for at most `factor × len` bytes plus a fixed allowance
/// (error strings, small tables).
fn bounded<T>(what: &str, len: usize, factor: u64, f: impl FnOnce() -> T) -> T {
    let before = CountingAllocator::thread_bytes_allocated();
    let out = f();
    let spent = CountingAllocator::thread_bytes_allocated() - before;
    assert!(
        spent <= factor * len as u64 + 16 * 1024,
        "{what}: {spent} bytes allocated for a {len}-byte input"
    );
    out
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stitch_front_door_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// inputs
// ---------------------------------------------------------------------------

const COMMAND_LINES: [&str; 8] = [
    "generate --out /tmp/x --rows 2 --cols 3 --tile-width 64 --tile-height 48 --overlap 0.2 \
     --seed 5 --jitter 1.5 --noise 20 --channels 2 --z-planes 3",
    "stitch --dataset /d --impl pipelined-gpu --gpus 2 --threads 8 --blend linear --out m.tif \
     --positions p.tsv --highlight --retries 5 --retry-backoff-ms 20 \
     --fault-spec transient=0.1,gpu-h2d=0.05 --allow-partial --health-json h.json \
     --trace-json t.json --run-report r.json --backend scalar --ref-channel 1 \
     --correct-illumination --maxz",
    "shard --rows 10 --cols 12 --tile-width 64 --tile-height 48 --overlap 0.15 --seed 3 \
     --shard-rows 2 --shard-cols 3 --mem-budget-mb 64 --workers 3 --impl mt-cpu --threads 4 \
     --blend average --band-rows 32 --out m.pgm --positions p.tsv --preview ov.pgm \
     --preview-scale 3 --trace-json t.json",
    "shard --dataset /d",
    "serve --workers 3 --budget-mb 128 --max-pending 16 --watchdog-ms 5000 --tenant-jobs 4 \
     --rate-burst 10 --rate-per-sec 2.5 --tenant-cap-mb 64 --breaker-threshold 3 \
     --drain cancel-all --socket /tmp/s.sock --trace-json t.json --reports-dir out",
    "serve-batch --jobs batch.txt --workers 4 --budget-mb 128 --stream-slots 1 \
     --trace-json t.json --reports-dir out",
    "info --dataset /d",
    "simulate --machine laptop --rows 8 --cols 8",
];

const JOB_LINES: [&str; 3] = [
    "name=j1 variant=mt-cpu grid=3x4 tile=32x24 overlap=0.2 seed=11 threads=3 priority=5 \
     deadline-ms=250 compose=false",
    "name=w tenant=acme watchdog-ms=75 hang-ms=500 panic=true grid=2x2 tile=32x24 preview=true",
    "name=gpu0 variant=simple-gpu grid=4x4 tile=48x32",
];

const REQUESTS: [&str; 7] = [
    "submit name=j1 tenant=acme variant=pipelined-cpu grid=2x2 tile=32x24 compose=false",
    "cancel tenant=acme name=j1",
    "region tenant=acme name=j1 scale=2 x=-8 y=4 w=32 h=16",
    "drain policy=cancel-pending",
    "drain",
    "stats",
    "ping  # liveness",
];

const FAULT_SPECS: [&str; 2] = [
    "seed=7,transient=0.25,latency-ms=2,corrupt=0.1+2.3",
    "transient=0.2,gpu-seed=7,gpu-h2d=0.1,gpu-d2h=0.2,gpu-kernel=0.3,gpu-oom=0.1,gpu-retries=3",
];

/// A legacy five-field and an extended seven-field manifest.
fn manifests() -> [String; 2] {
    let mut legacy = String::from("# rows=2 cols=2 tile_w=32 tile_h=24 overlap=0.1\n");
    let mut extended =
        String::from("# rows=2 cols=2 tile_w=32 tile_h=24 overlap=0.1 channels=2 z_planes=1\n");
    for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
        legacy.push_str(&format!(
            "{r}\t{c}\t{}\t{}\timg_r{r}_c{c}.tif\n",
            c * 29,
            r * 21
        ));
        for ch in 0..2 {
            let (x, y) = (c * 29, r * 21);
            extended.push_str(&format!(
                "{ch}\t0\t{r}\t{c}\t{x}\t{y}\timg_c{ch}_r{r}_c{c}.tif\n"
            ));
        }
    }
    [legacy, extended]
}

/// 16-bit TIFF, 16-bit PGM and 8-bit PGM encodings of small images.
fn image_files() -> [Vec<u8>; 3] {
    let img = Image::from_fn(7, 5, |x, y| (x * 257 + y * 7919) as u16);
    let mut pgm8 = b"P5\n# 8-bit\n6 4\n255\n".to_vec();
    pgm8.extend((0..24u8).map(|i| i * 10));
    let (mut tif, mut pgm16) = (Vec::new(), Vec::new());
    tiff::write_to(&mut tif, &img).unwrap();
    pgm::write_to(&mut pgm16, &img).unwrap();
    [tif, pgm16, pgm8]
}

/// A 74-byte TIFF whose IFD claims 2^30 × 2^30 16-bit pixels.
fn lying_tiff() -> Vec<u8> {
    let mut b = b"II\x2a\x00\x08\x00\x00\x00\x05\x00".to_vec();
    for (tag, typ, value) in [
        (256u16, 4u16, 1u32 << 30),
        (257, 4, 1 << 30),
        (258, 3, 16),
        (273, 4, 8),
        (279, 4, 4),
    ] {
        b.extend(tag.to_le_bytes());
        b.extend(typ.to_le_bytes());
        b.extend(1u32.to_le_bytes());
        b.extend(value.to_le_bytes());
    }
    b.extend(0u32.to_le_bytes());
    assert_eq!(b.len(), 74);
    b
}

/// Numbers that sit on the edges of every range check.
const NASTY: [&str; 10] = [
    "0",
    "-1",
    "nan",
    "inf",
    "1e309",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "100000",
    "",
];

/// `(position, byte, kind)` edits.
type Edits = Vec<(usize, u8, u8)>;

fn edits() -> impl Strategy<Value = Edits> {
    collection::vec((any::<usize>(), any::<u8>(), 0u8..4), 1..4)
}

/// Mutates text: overwrite a byte with a printable one, delete a byte,
/// truncate, or swap the number at a position for a [`NASTY`] one.
fn mutate_text(text: &str, edits: &Edits) -> String {
    let mut s: Vec<u8> = text.bytes().collect();
    for &(pos, byte, kind) in edits {
        if s.is_empty() {
            break;
        }
        let pos = pos % s.len();
        match kind {
            0 => s[pos] = b' ' + byte % 95,
            1 => {
                s.remove(pos);
            }
            2 => s.truncate(pos),
            _ => {
                let is_num = |b: &u8| b.is_ascii_digit() || *b == b'.';
                let start = pos + s[pos..].iter().position(is_num).unwrap_or(0);
                let end = start + s[start..].iter().take_while(|b| is_num(b)).count();
                s.splice(start..end, NASTY[byte as usize % NASTY.len()].bytes());
            }
        }
    }
    String::from_utf8_lossy(&s).into_owned()
}

/// Mutates bytes: flip a bit, truncate, or overwrite a 4-byte field with
/// all-ones / zero (the sizes and offsets a header can lie about).
fn mutate_bytes(bytes: &[u8], edits: &Edits) -> Vec<u8> {
    let mut b = bytes.to_vec();
    for &(pos, byte, kind) in edits {
        if b.is_empty() {
            break;
        }
        let pos = pos % b.len();
        match kind {
            0 => b[pos] ^= 1 << (byte % 8),
            1 => b.truncate(pos),
            kind => {
                let end = (pos + 4).min(b.len());
                b[pos..end].fill(if kind == 2 { 0xFF } else { 0 });
            }
        }
    }
    b
}

fn printable(max: usize) -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..max).prop_map(|bytes| {
        // mostly printable ASCII, with the grammar's own punctuation and
        // line structure over-represented
        const EXTRA: &[u8] = b"=-,x.+#\t\n  ";
        let pick = |b: u8| match b {
            0..=94 => b' ' + b,
            _ => EXTRA[b as usize % EXTRA.len()],
        };
        bytes.into_iter().map(|b| pick(b) as char).collect()
    })
}

// ---------------------------------------------------------------------------
// the sweep
// ---------------------------------------------------------------------------

fn sweep_command_line(line: &str) {
    let args = argv(line);
    let _ = bounded("cli::parse", line.len(), 64, || parse(&args));
}

fn sweep_job_line(line: &str) {
    let _ = bounded("parse_job_line", line.len(), 64, || parse_job_line(line));
}

fn sweep_request(line: &str) {
    let _ = bounded("parse_request", line.len(), 64, || parse_request(line));
}

fn sweep_fault_spec(spec: &str) {
    let _ = bounded("FaultSpec::parse", spec.len(), 64, || {
        FaultSpec::parse(spec)
    });
}

fn sweep_manifest(dir: &Path, text: &str) {
    std::fs::write(dir.join("manifest.tsv"), text).unwrap();
    // a loaded manifest holds one path (directory + name) per line
    let factor = 64 + dir.as_os_str().len() as u64;
    let _ = bounded("GridManifest::load", text.len(), factor, || {
        GridManifest::load(dir)
    });
    let _ = bounded("MultiGridManifest::load", text.len(), factor, || {
        MultiGridManifest::load(dir)
    });
}

fn sweep_image(bytes: &[u8]) {
    let _ = bounded("decode_tiff", bytes.len(), 16, || tiff::decode_tiff(bytes));
    let _ = bounded("decode_pgm", bytes.len(), 16, || pgm::decode_pgm(bytes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn command_lines_never_panic(noise in printable(120), pick in 0usize..8, edits in edits()) {
        sweep_command_line(&noise);
        // arbitrary text behind a real sub-command reaches its flag reads
        sweep_command_line(&format!("{} {noise}", ["stitch", "shard", "serve"][pick % 3]));
        sweep_command_line(&mutate_text(COMMAND_LINES[pick], &edits));
    }

    #[test]
    fn job_lines_never_panic(noise in printable(120), pick in 0usize..3, edits in edits()) {
        sweep_job_line(&noise);
        sweep_job_line(&mutate_text(JOB_LINES[pick], &edits));
    }

    #[test]
    fn requests_never_panic(noise in printable(120), pick in 0usize..7, edits in edits()) {
        sweep_request(&noise);
        sweep_request(&format!("{} {noise}", ["submit", "cancel", "region", "drain"][pick % 4]));
        sweep_request(&mutate_text(REQUESTS[pick], &edits));
    }

    #[test]
    fn fault_specs_never_panic(noise in printable(80), pick in 0usize..2, edits in edits()) {
        sweep_fault_spec(&noise);
        sweep_fault_spec(&mutate_text(FAULT_SPECS[pick], &edits));
    }

    #[test]
    fn image_decoders_never_panic_or_over_allocate(
        noise in collection::vec(any::<u8>(), 0..200),
        pick in 0usize..3,
        edits in edits(),
    ) {
        sweep_image(&noise);
        // arbitrary bytes behind a valid magic reach the header parsers
        sweep_image(&[b"II\x2a\x00\x08\x00\x00\x00".as_slice(), &noise].concat());
        sweep_image(&[b"P5\n".as_slice(), &noise].concat());
        sweep_image(&mutate_bytes(&image_files()[pick], &edits));
        sweep_image(&mutate_bytes(&lying_tiff(), &edits));
    }
}

proptest! {
    // each case writes a file: fewer cases than the in-memory sweeps
    #![proptest_config(ProptestConfig::with_cases(250))]

    #[test]
    fn manifest_loaders_never_panic_or_over_allocate(
        noise in printable(200),
        pick in 0usize..2,
        edits in edits(),
    ) {
        let dir = temp_dir("sweep");
        sweep_manifest(&dir, &noise);
        sweep_manifest(&dir, &format!("# rows=2 cols=2 tile_w=8 tile_h=8 {noise}"));
        sweep_manifest(&dir, &mutate_text(&manifests()[pick], &edits));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The mutation corpus itself is well-formed: every entry parses.
#[test]
fn well_formed_inputs_are_accepted() {
    for line in COMMAND_LINES {
        parse(&argv(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    for line in JOB_LINES {
        parse_job_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    for line in REQUESTS {
        let request = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(request.is_some(), "{line}");
    }
    for spec in FAULT_SPECS {
        FaultSpec::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
    }
    let dir = temp_dir("corpus");
    let [legacy, extended] = manifests();
    std::fs::write(dir.join("manifest.tsv"), legacy).unwrap();
    assert_eq!(GridManifest::load(&dir).unwrap().tiles(), 4);
    assert_eq!(MultiGridManifest::load(&dir).unwrap().images(), 4);
    std::fs::write(dir.join("manifest.tsv"), extended).unwrap();
    assert_eq!(MultiGridManifest::load(&dir).unwrap().images(), 8);
    assert!(GridManifest::load(&dir).is_err(), "two channels");
    let [tiff16, pgm16, pgm8] = image_files();
    assert_eq!(tiff::decode_tiff(&tiff16).unwrap().dims(), (7, 5));
    assert_eq!(pgm::decode_pgm(&pgm16).unwrap().dims(), (7, 5));
    assert_eq!(pgm::decode_pgm(&pgm8).unwrap().dims(), (6, 4));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// the inputs that used to panic, abort or silently succeed
// ---------------------------------------------------------------------------

/// Degenerate geometry and counts are refused where they are read, with
/// an error naming the key — on the command line, in a job line, by the
/// daemon and per line by `serve-batch`.
#[test]
fn degenerate_inputs_are_refused_at_the_door() {
    let command_lines = [
        ("stitch --dataset /d --threads 0", "--threads"),
        ("stitch --dataset /d --impl mt-cpu --threads 0", "--threads"),
        ("shard --threads 0", "--threads"),
        (
            "shard --tile-width 0 --tile-height 0",
            "tile must be at least 1x1",
        ),
        ("shard --shard-rows 0", "--shard-rows"),
        ("shard --shard-cols 0", "--shard-cols"),
        ("shard --workers 0", "--workers"),
        (
            "generate --out /tmp/x --tile-width 0 --tile-height 0",
            "tile must be at least 1x1",
        ),
        (
            "generate --out /tmp/x --rows 0",
            "grid must be at least 1x1",
        ),
        (
            "generate --out /tmp/x --overlap nan",
            "overlap must be in [0, 1)",
        ),
        (
            "generate --out /tmp/x --overlap 1",
            "overlap must be in [0, 1)",
        ),
        (
            "generate --out /tmp/x --jitter -1",
            "jitter must be finite and >= 0",
        ),
        (
            "generate --out /tmp/x --noise inf",
            "noise must be finite and >= 0",
        ),
        ("serve --workers 0", "--workers"),
        ("serve-batch --jobs f --workers 0", "--workers"),
        ("simulate --rows 0 --cols 0", "--rows"),
        ("simulate --cols 0", "--cols"),
        ("simulate --machine bogus", "unknown machine 'bogus'"),
    ];
    for (line, expected) in command_lines {
        let err = parse(&argv(line)).expect_err(line);
        assert!(err.contains(expected), "{line}: {err}");
    }

    let job_keys = [
        ("tile=0x0", "tile must be at least 1x1"),
        ("tile=0x24", "tile must be at least 1x1"),
        ("grid=0x0", "grid must be at least 1x1"),
        ("overlap=nan", "overlap must be in [0, 1)"),
        ("overlap=5", "overlap must be in [0, 1)"),
        ("overlap=-1", "overlap must be in [0, 1)"),
        ("threads=0", "threads"),
        ("grid=4294967296x4294967296", "out of range"),
    ];
    let daemon = ServeDaemon::new(ServeConfig::default());
    for (key, expected) in job_keys {
        let line = format!("name=z tenant=acme grid=2x2 tile=32x24 {key}");
        let err = parse_job_line(&line).expect_err(&line);
        assert!(err.contains(expected), "{line}: {err}");
        // the daemon answers with one error event and admits nothing
        match daemon.handle_line(&format!("submit {line}")).as_slice() {
            [Event::Error { reason }] => {
                assert!(
                    reason.starts_with("parse: ") && reason.contains(expected),
                    "{reason}"
                )
            }
            other => panic!("{line}: {other:?}"),
        }
    }
    assert_eq!(daemon.stats().accepted, 0);
    // the thin-but-legal overlap of the serve workload's plates is admitted
    parse_job_line("name=thin grid=2x2 tile=64x48 overlap=0.1").unwrap();
    parse_job_line("name=none grid=1x1 tile=1x1 overlap=0").unwrap();

    // serve-batch: a per-line error, and the rest of the batch runs
    let report = run_batch_text(
        "name=ok grid=2x2 tile=32x24 compose=false\nname=bad grid=2x2 tile=0x0\n",
        &BatchOptions::default(),
    )
    .unwrap();
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(report.parse_errors.len(), 1);
    assert_eq!(report.parse_errors[0].line, 2);
}

/// A job line's grid is not a size either: a synthetic job renders its
/// own plate, whose bytes follow the grid's *area* while the reservation
/// follows its shorter side. A legal one-row grid whose plate cannot fit
/// the budget is refused when submitted — by `serve-batch` and by the
/// daemon — before anything of that size is generated.
#[test]
fn a_plate_that_cannot_fit_the_budget_is_refused_at_submit() {
    use stitching::sched::SubmitError;
    let strip = "name=strip grid=1x100000000000 tile=64x48";
    parse_job_line(strip).expect("a legal geometry");

    let batch = format!("{strip}\nname=ok grid=2x2 tile=32x24 compose=false\n");
    let report = run_batch_text(&batch, &BatchOptions::default()).unwrap();
    assert_eq!(report.outcomes.len(), 1, "the rest of the batch runs");
    match report.rejected.as_slice() {
        [(name, SubmitError::TooLarge { requested, budget })] => {
            assert_eq!(name, "strip");
            assert!(requested > budget);
        }
        other => panic!("{other:?}"),
    }

    let daemon = ServeDaemon::new(ServeConfig::default());
    match daemon.handle_line(&format!("submit {strip}")).as_slice() {
        [Event::Rejected { job, reason, .. }] => {
            assert_eq!(job, "strip");
            assert!(reason.contains("budget is"), "{reason}");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(daemon.stats().accepted, 0);
}

/// A header's word is not a size: files that claim far more than they
/// hold are malformed, not an allocation request.
#[test]
fn degenerate_inputs_sized_from_headers_are_errors_not_aborts() {
    use stitching::image::ImageError;
    let format_error = |r: Result<Image<u16>, ImageError>, what: &str| match r {
        Err(ImageError::Format(_)) => {}
        other => panic!("{what}: expected a format error, got {other:?}"),
    };
    // 26 bytes: one IFD entry whose value count is u32::MAX
    let mut counted = b"II\x2a\x00\x08\x00\x00\x00\x01\x00".to_vec();
    counted.extend(273u16.to_le_bytes());
    counted.extend(4u16.to_le_bytes());
    counted.extend(u32::MAX.to_le_bytes());
    counted.extend([0; 8]);
    // a well-formed 7x5 tile whose one strip starts past the end of the file
    let mut past_eof = image_files()[0].clone();
    let strip_offset = 8 + 7 * 5 * 2 + 2 + 5 * 12 + 8;
    past_eof[strip_offset..strip_offset + 4].copy_from_slice(&4096u32.to_le_bytes());
    // each refused alike from memory and from a file, within the input's size
    let dir = temp_dir("hostile_tiffs");
    for (bytes, what) in [
        (lying_tiff(), "74-byte TIFF claiming 2^60 pixels"),
        (counted, "IFD entry with 2^32 values"),
        (past_eof, "strip past the end of the file"),
    ] {
        let path = dir.join("t.tif");
        std::fs::write(&path, &bytes).unwrap();
        let len = bytes.len();
        let read = bounded("read_tiff", len, 16, || tiff::read_tiff(&path));
        let decoded = bounded("decode_tiff", len, 16, || tiff::decode_tiff(&bytes));
        assert_eq!(
            read.as_ref().map_err(ToString::to_string),
            decoded.as_ref().map_err(ToString::to_string),
            "{what}"
        );
        format_error(read, what);
    }
    std::fs::remove_dir_all(&dir).ok();
    format_error(
        pgm::decode_pgm(b"P5\n4294967296 4294967296\n65535\n\x00\x00"),
        "PGM whose w*h*2 overflows",
    );
    format_error(
        pgm::decode_pgm(b"P5\n100000 100000\n255\n\x00"),
        "PGM claiming 10^10 pixels",
    );

    let dir = temp_dir("headers");
    for header in [
        "# rows=100000 cols=100000 tile_w=64 tile_h=48 overlap=0.1",
        "# rows=100000 cols=100000",
        "# rows=2 cols=2 tile_w=64 tile_h=48 channels=4294967296 z_planes=4294967296",
        "# rows=2 cols=2 tile_w=0 tile_h=0",
        "# rows=2 cols=2 tile_w=64 tile_h=48 overlap=nan",
    ] {
        std::fs::write(dir.join("manifest.tsv"), format!("{header}\n")).unwrap();
        assert!(GridManifest::load(&dir).is_err(), "{header}");
        assert!(MultiGridManifest::load(&dir).is_err(), "{header}");
        // `stitch info` on it ends with the CLI's own error exit
        let info = format!("info --dataset {}", dir.display());
        assert_eq!(run(parse(&argv(&info)).unwrap()), 1, "{header}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One tile replaced by the lying TIFF is a failed tile: `stitch` aborts
/// with its own error (exit 2), or degrades under `--allow-partial`.
#[test]
fn degenerate_tile_is_a_failed_tile_not_an_abort() {
    let dir = temp_dir("lying_tile");
    let d = dir.display();
    let generate = format!("generate --out {d} --rows 2 --cols 3 --tile-width 64 --tile-height 48");
    assert_eq!(run(parse(&argv(&generate)).unwrap()), 0);
    std::fs::write(dir.join("img_c00_z00_r001_c001.tif"), lying_tiff()).unwrap();
    let stitch = format!("stitch --dataset {d} --impl simple-cpu");
    assert_eq!(run(parse(&argv(&stitch)).unwrap()), 2);
    let health = dir.join("health.json");
    let partial = format!(
        "{stitch} --allow-partial --health-json {}",
        health.display()
    );
    assert_eq!(run(parse(&argv(&partial)).unwrap()), 0);
    assert!(std::fs::read_to_string(&health).unwrap().contains("failed"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Flags mean the same thing whatever the dataset's channel count: the
/// three reports are written on the channel path too, and the five flags
/// the replay driver cannot honour are refused rather than ignored.
#[test]
fn multichannel_stitch_writes_reports_and_refuses_what_it_cannot_honour() {
    let dir = temp_dir("channels");
    let d = dir.display();
    let generate = format!(
        "generate --out {d} --rows 2 --cols 3 --tile-width 64 --tile-height 48 --channels 2"
    );
    assert_eq!(run(parse(&argv(&generate)).unwrap()), 0);
    let stitch = format!("stitch --dataset {d} --impl simple-cpu");
    let reports = format!(
        "{stitch} --trace-json {d}/t.json --run-report {d}/r.json --health-json {d}/h.json"
    );
    assert_eq!(run(parse(&argv(&reports)).unwrap()), 0);
    for file in ["t.json", "r.json", "h.json"] {
        let len = std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
        assert!(len > 2, "{file} must be written");
    }
    for flag in [
        "--fault-spec corrupt=0.0",
        "--retries 5",
        "--retry-backoff-ms 9",
        "--allow-partial",
        "--highlight",
    ] {
        let line = format!("{stitch} {flag}");
        assert_eq!(run(parse(&argv(&line)).unwrap()), 1, "{flag}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
