//! Regression tests for the reproduced tables and figures.
//!
//! The files under `golden/` are the `--json` output of the per-figure
//! binaries this crate had before `paperfigs` replaced them (`table1`,
//! `table2`, `table2 --preset laptop`, `fig5`, `fig10`, `fig11`, `fig12`,
//! `ablation`, each run twice and `cmp`-identical): a change in
//! `stitch-sim` or the op counters that rewrites a reproduced table fails
//! here instead of passing silently.

use std::process::Command;
use std::sync::OnceLock;

use stitch_bench::figures::{select, Args, REGISTRY};
use stitch_bench::ResultTable;
use stitch_trace::json;

fn args(flags: &str) -> Args {
    let flags: Vec<String> = flags.split_whitespace().map(String::from).collect();
    Args::parse(&flags).unwrap()
}

/// Every table of `paperfigs all` at default scale, run once.
fn all_tables() -> &'static [ResultTable] {
    static TABLES: OnceLock<Vec<ResultTable>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let defaults = args("");
        let all = select(&["all".to_string()]).unwrap();
        all.iter().flat_map(|e| (e.2)(&defaults)).collect()
    })
}

fn table(id: &str) -> &'static ResultTable {
    let found = all_tables().iter().find(|t| t.experiment == id);
    found.unwrap_or_else(|| panic!("`paperfigs all` made no table '{id}'"))
}

#[test]
fn deterministic_tables_are_byte_identical_to_the_golden_json() {
    for (id, golden) in [
        ("table1", include_str!("golden/table1.json")),
        (
            "table1_validation",
            include_str!("golden/table1_validation.json"),
        ),
        ("table2_virtual", include_str!("golden/table2_virtual.json")),
        ("fig5", include_str!("golden/fig5.json")),
        ("fig10", include_str!("golden/fig10.json")),
        ("fig11", include_str!("golden/fig11.json")),
        ("fig12", include_str!("golden/fig12.json")),
        (
            "ablation_traversal",
            include_str!("golden/ablation_traversal.json"),
        ),
    ] {
        assert_eq!(table(id).to_json(), golden, "{id} drifted from its golden");
    }
    let table2 = select(&["table2".to_string()]).unwrap()[0].2;
    assert_eq!(
        table2(&args("--machine laptop"))[0].to_json(),
        include_str!("golden/table2_virtual_laptop.json"),
        "table2 --machine laptop drifted from its golden"
    );
}

/// The tables that carry host timings: shape only.
#[test]
fn timing_tables_keep_their_columns_and_row_labels() {
    let shapes: [(&str, &[&str], &[&str]); 6] = [
        (
            "fig5_real",
            &["tiles", "time/tile", "spills", "faults"],
            &["16", "32", "48", "64", "96"],
        ),
        (
            "fig7_9",
            &["metric", "Simple-GPU", "Pipelined-GPU"],
            &[
                "kernel density (merged timeline)",
                "copy/compute overlap",
                "peak kernel concurrency",
                "kernel spans",
                "elapsed (this host)",
            ],
        ),
        (
            "fig13",
            &["step", "result"],
            &[
                "phase 1 (displacements)",
                "phase 2 (global optimization)",
                "phase 3 (compose, overlay)",
                "fig13 output",
                "fig14 output",
                "pyramid level 1",
                "pyramid level 2",
                "pyramid level 3",
            ],
        ),
        (
            "ablation_planning",
            &["mode", "exec ms/transform", "planning cost"],
            &["estimate", "measure", "patient"],
        ),
        (
            "ablation_padding",
            &["size", "factors", "exec ms/transform", "px overhead"],
            &["native 348x260", "7-smooth pad 350x270", "pow2 pad 512x512"],
        ),
        (
            "ablation_r2c",
            &["path", "exec ms/transform", "spectrum bytes"],
            &["complex-to-complex", "real-to-complex"],
        ),
    ];
    for (id, columns, labels) in shapes {
        let t = table(id);
        assert_eq!(t.columns, columns, "{id} columns");
        let got: Vec<&str> = t.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(got, labels, "{id} row labels");
        for r in &t.rows {
            assert_eq!(r.values.len() + 1, columns.len(), "{id} row {}", r.label);
        }
        assert!(!t.notes.is_empty(), "{id} notes");
        json::validate(&t.to_json()).unwrap_or_else(|e| panic!("{id}: {e}"));
    }
    let attached: Vec<&str> = table("fig7_9")
        .attachments
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(
        attached,
        [
            "fig7_simple_gpu_spans.csv",
            "fig9_pipelined_gpu_spans.csv",
            "fig7_simple_gpu_trace.json",
            "fig9_pipelined_gpu_trace.json",
        ]
    );
}

/// The real spill demo holds exactly its titled 48 transforms: none spill
/// up to 48 tiles, and every row past the budget spills.
#[test]
fn fig5_real_spills_exactly_past_its_budget_of_48_transforms() {
    let t = table("fig5_real");
    assert!(t.title.contains("budget = 48 transforms"), "{}", t.title);
    for r in &t.rows {
        let tiles: usize = r.label.parse().unwrap();
        let spills: u64 = r.values[1].parse().unwrap();
        assert_eq!(spills > 0, tiles > 48, "{tiles} tiles: {spills} spills");
    }
}

#[test]
fn registry_ids_are_unique_and_the_design_index_resolves() {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.0).collect();
    for (i, id) in ids.iter().enumerate() {
        assert!(!ids[..i].contains(id), "duplicate id '{id}'");
        assert!(!["all", "list"].contains(id), "'{id}' is a reserved word");
    }
    let all = select(&["all".to_string()]).unwrap();
    assert_eq!(all.iter().map(|e| e.0).collect::<Vec<_>>(), ids);

    // every regenerator DESIGN.md's experiment index names, and back
    let design = include_str!("../../../DESIGN.md");
    let named: Vec<&str> = design
        .split("`paperfigs -- ")
        .skip(1)
        .map(|rest| rest.split(['`', ' ']).next().unwrap())
        .collect();
    for id in &named {
        assert!(
            ids.contains(id),
            "DESIGN.md names unknown experiment '{id}'"
        );
    }
    for id in &ids {
        assert!(named.contains(id), "DESIGN.md's index does not name '{id}'");
    }
}

fn paperfigs(argv: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paperfigs"))
        .args(argv.split_whitespace())
        .output()
        .expect("run paperfigs")
}

/// Each of these printed a table and exited 0 before `paperfigs`.
#[test]
fn bad_command_lines_exit_2_naming_the_offender() {
    for (argv, offender) in [
        ("nosuch", "unknown experiment 'nosuch'"),
        ("table2 --machine labtop", "unknown machine 'labtop'"),
        ("fig11 --bogus 1", "unknown flag --bogus"),
        ("table2 --json", "flag --json needs a value"),
        ("table2 --costs fast", "unknown costs 'fast'"),
        ("fig11 --full stray", "unexpected argument \"stray\""),
        ("list --preset laptop", "unknown flag --preset"),
        ("", "no experiment named"),
    ] {
        let out = paperfigs(argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{argv}`: {stderr}");
        assert!(out.stdout.is_empty(), "`{argv}` printed a table");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: ") && first.contains(offender),
            "`{argv}`: {stderr}"
        );
        assert!(
            stderr.contains("ids: table1 table2 fig5"),
            "`{argv}`: {stderr}"
        );
    }
}

#[test]
fn json_goes_where_the_flag_says() {
    let dir = std::env::temp_dir().join(format!("stitch_paperfigs_{}", std::process::id()));
    let out = paperfigs(&format!("fig11 fig12 --json {}", dir.display()));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
    assert_eq!(read("fig11.json"), include_str!("golden/fig11.json"));
    assert_eq!(read("fig12.json"), include_str!("golden/fig12.json"));
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
    let _ = std::fs::remove_dir_all(&dir);

    let out = paperfigs("list");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).lines().count(),
        REGISTRY.len()
    );
}
