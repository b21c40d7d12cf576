//! # snn-bench
//!
//! Experiment harnesses that regenerate every table of the paper's
//! evaluation section, plus Criterion micro-benchmarks for the simulator
//! itself (`conv_unit`, which writes the kernel record `BENCH_conv.json`,
//! and `encoding`).  End-to-end and over-the-wire measurement is not here:
//! it lives in the stand-alone `benchmark/` package, which takes only
//! [`workloads`] from this crate.
//!
//! Each table has a binary that prints the regenerated rows:
//!
//! * `cargo run -p snn-bench --release --bin table1` — accuracy and latency
//!   versus spike-train length (Table I).
//! * `cargo run -p snn-bench --release --bin table2` — latency, power and
//!   resources versus the number of convolution units (Table II).
//! * `cargo run -p snn-bench --release --bin table3` — the cross-accelerator
//!   comparison including LeNet-5, the CNN of Fang et al. and VGG-11
//!   (Table III).
//!
//! The building blocks live in [`experiments`] so integration tests can
//! assert the trends without shelling out to the binaries.  [`trend`] is
//! the `bench_trend` binary's rule: it gates the same-session ratio keys
//! of `BENCH_conv.json` against the committed copy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod trend;
pub mod workloads;
