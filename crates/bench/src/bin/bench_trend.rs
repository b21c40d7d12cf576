//! Benchmark trend check: compares a fresh `BENCH_conv.json` against the
//! committed copy.
//!
//! ```text
//! bench_trend <baseline.json> <fresh.json>
//! ```
//!
//! Only the same-session ratio keys gate (see [`snn_bench::trend`]): a
//! ratio more than 20 % worse prints a GitHub `::warning::` annotation,
//! more than 50 % worse prints `::error::` and exits non-zero; absolute
//! rows are printed side by side and never gate.  A missing baseline (the
//! first run of a new summary) is reported and skipped; a fresh summary
//! that is unreadable, malformed or shares no ratio key with the baseline
//! exits non-zero — a bench that crashed before writing its record must
//! not pass.

use snn_bench::trend::check;
use std::io::ErrorKind;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: bench_trend <baseline.json> <fresh.json>");
        exit(2);
    };
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == ErrorKind::NotFound => None,
        Err(e) => {
            println!("::error::bench-trend: cannot read {baseline_path} ({e})");
            exit(1);
        }
    };
    let fresh = match std::fs::read_to_string(fresh_path) {
        Ok(text) => text,
        Err(e) => {
            println!("::error::bench-trend: cannot read {fresh_path} ({e})");
            exit(1);
        }
    };
    println!("bench-trend: {baseline_path} -> {fresh_path}");
    let verdict = check(baseline.as_deref(), &fresh);
    print!("{verdict}");
    if verdict.failed() {
        exit(1);
    }
}
