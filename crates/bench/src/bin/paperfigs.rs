//! `paperfigs` — regenerates the paper's tables and figures from the
//! registry in [`stitch_bench::figures`].
//!
//! ```text
//! cargo run --release -p stitch-bench --bin paperfigs -- list
//! cargo run --release -p stitch-bench --bin paperfigs -- all --json DIR
//! cargo run --release -p stitch-bench --bin paperfigs -- table2 --machine laptop
//! ```
//!
//! Exit codes as `stitch`: 2 for a command line that does not parse, 1
//! for a `--json` directory that cannot be written.

use std::process::exit;

use stitch_bench::figures::{select, Args, REGISTRY};

const USAGE: &str = "usage: paperfigs list | all | <id>... \
    [--full] [--json DIR] [--machine testbed|laptop] [--costs paper|calibrated]";

fn usage_error(e: String) -> ! {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.0).collect();
    eprintln!("error: {e}\n{USAGE}\nids: {}", ids.join(" "));
    exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // experiment ids first, then flags
    let split = argv.iter().position(|a| a.starts_with("--"));
    let (names, flags) = argv.split_at(split.unwrap_or(argv.len()));
    let args = Args::parse(flags).unwrap_or_else(|e| usage_error(e));
    if names == ["list"] {
        for (id, title, _) in REGISTRY {
            println!("{id:<10} {title}");
        }
        return;
    }
    for (_, _, experiment) in select(names).unwrap_or_else(|e| usage_error(e)) {
        for table in experiment(&args) {
            if let Err(e) = table.emit(args.json.as_deref()) {
                eprintln!("error: cannot write {}.json: {e}", table.experiment);
                exit(1);
            }
        }
    }
}
