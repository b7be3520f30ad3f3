//! # stitch-bench — experiment harness
//!
//! Regenerates every table and figure of the paper (see `DESIGN.md`'s
//! experiment index): [`figures`] holds one function per experiment and
//! the registry the `paperfigs` binary runs them from; this module holds
//! the shared plumbing — standard workloads, result tables and their
//! machine-readable output for `EXPERIMENTS.md`. Nothing here is a
//! performance gate: the product is timed by `stitchbench` (`benchmark/`).

use std::fmt::Display;
use std::path::Path;

use stitch_core::prelude::*;
use stitch_image::{ScanConfig, SyntheticPlate};
use stitch_trace::json::quote;

pub mod figures;

/// The standard scaled-down experiment workload: the paper's 42×59 grid
/// shape with smaller tiles, 25 % overlap (small tiles need a larger
/// overlap *fraction* for the same overlap statistics — see DESIGN.md).
pub fn scaled_scan(rows: usize, cols: usize, tile_w: usize, tile_h: usize) -> ScanConfig {
    ScanConfig {
        grid_rows: rows,
        grid_cols: cols,
        tile_width: tile_w,
        tile_height: tile_h,
        overlap: 0.25,
        stage_jitter: 3.0,
        backlash_x: 1.5,
        noise_sigma: 50.0,
        vignette: 0.03,
        seed: 2014,
    }
}

/// Builds an in-memory synthetic source for a scan config.
pub fn synthetic_source(config: ScanConfig) -> SyntheticSource {
    SyntheticSource::new(SyntheticPlate::generate(config))
}

/// One row of an experiment result table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (implementation, parameter value, …).
    pub label: String,
    /// Column values, aligned with the table's header.
    pub values: Vec<String>,
}

/// A printable, JSON-dumpable experiment result table.
#[derive(Clone, Debug)]
pub struct ResultTable {
    /// Experiment id ("table2", "fig11", …).
    pub experiment: String,
    /// Human title.
    pub title: String,
    /// Column headers (first column is the row label).
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Free-form notes (workload, substitutions, caveats).
    pub notes: Vec<String>,
    /// Raw companions of the table (e.g. Chrome traces) as `(file
    /// name, contents)`, written beside its JSON.
    pub attachments: Vec<(String, String)>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(experiment: &str, title: &str, columns: &[&str]) -> ResultTable {
        ResultTable {
            experiment: experiment.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            attachments: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, label: impl Display, values: &[String]) {
        self.rows.push(Row {
            label: label.to_string(),
            values: values.to_vec(),
        });
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Display) {
        self.notes.push(note.to_string());
    }

    /// Attaches a raw companion file, written beside the table's JSON.
    pub fn attach(&mut self, file_name: &str, contents: String) {
        self.attachments.push((file_name.to_string(), contents));
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for r in &self.rows {
            widths[0] = widths[0].max(r.label.len());
            for (i, v) in r.values.iter().enumerate() {
                if i + 1 < widths.len() {
                    widths[i + 1] = widths[i + 1].max(v.len());
                }
            }
        }
        let mut out = format!("== {} — {} ==\n", self.experiment, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            let mut cells = vec![format!("{:>w$}", r.label, w = widths[0])];
            for (i, v) in r.values.iter().enumerate() {
                cells.push(format!(
                    "{v:>w$}",
                    w = widths.get(i + 1).copied().unwrap_or(0)
                ));
            }
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Renders the table as JSON (hand-rolled: the offline build has no
    /// serde, and the schema is four string fields deep).
    pub fn to_json(&self) -> String {
        fn str_array(items: &[String], indent: &str) -> String {
            let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
            format!("[{}]", quoted.join(&format!(",\n{indent} ")))
        }
        let mut rows = Vec::new();
        for r in &self.rows {
            rows.push(format!(
                "    {{\"label\": {}, \"values\": {}}}",
                quote(&r.label),
                str_array(&r.values, "      ")
            ));
        }
        format!(
            "{{\n  \"experiment\": {},\n  \"title\": {},\n  \"columns\": {},\n  \"rows\": [\n{}\n  ],\n  \"notes\": {}\n}}\n",
            quote(&self.experiment),
            quote(&self.title),
            str_array(&self.columns, "   "),
            rows.join(",\n"),
            str_array(&self.notes, "  ")
        )
    }

    /// Prints the table and, given a directory, also writes
    /// `<dir>/<experiment>.json` and the table's attachments there.
    pub fn emit(&self, json_dir: Option<&Path>) -> std::io::Result<()> {
        println!("{}", self.render());
        let Some(dir) = json_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        std::fs::write(&path, self.to_json())?;
        for (name, contents) in &self.attachments {
            std::fs::write(dir.join(name), contents)?;
        }
        eprintln!("(wrote {})", path.display());
        Ok(())
    }
}

/// Formats a nanosecond duration human-readably.
pub fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 90.0 {
        format!("{:.1}min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = ResultTable::new("t", "demo", &["impl", "time", "speedup"]);
        t.row("Simple-CPU", &["10.6min".into(), "1.0".into()]);
        t.row("Pipelined-GPU", &["49.7s".into(), "12.8".into()]);
        t.note("virtual time");
        let s = t.render();
        assert!(s.contains("Simple-CPU"));
        assert!(s.contains("note: virtual time"));
    }

    #[test]
    fn json_escapes_every_control_character() {
        let mut t = ResultTable::new("t", "a \"quoted\" title", &["k", "v"]);
        t.row("tab\there", &["cr\rlf\n".into()]);
        t.note("bell \u{7} and backslash \\");
        let json = t.to_json();
        stitch_trace::json::validate(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert!(
            json.contains("cr\\rlf\\n") && json.contains("\\u0007"),
            "{json}"
        );
    }

    #[test]
    fn fmt_ns_ranges() {
        assert_eq!(fmt_ns(500_000_000), "500ms");
        assert_eq!(fmt_ns(49_700_000_000), "49.7s");
        assert_eq!(fmt_ns(636_000_000_000), "10.6min");
    }
}
