//! # snn-accel
//!
//! A software model of the resource-efficient FPGA accelerator for spiking
//! neural networks with radix encoding (DATE 2022).
//!
//! The crate reproduces the paper's hardware architecture at two levels of
//! detail that are verified against each other:
//!
//! * **Spike-major processing units** — [`conv::ConvolutionUnit`],
//!   [`pool::PoolingUnit`] and [`linear::LinearUnit`] model the
//!   micro-architecture of Fig. 2: the input shift register, the X×Y adder
//!   array with multiplexer gating on spikes, the per-kernel-row pipeline,
//!   the partial-sum propagation and the radix left-shift accumulation in
//!   the output logic.  The engines walk the activations' packed spike
//!   occupancy, skipping silent regions a word at a time, add one
//!   channel-last packed weight row per spike and covering tap into all
//!   output-channel lanes at once ([`snn_model::packed`]), up to four
//!   spikes per pass over an accumulator row, and derive the
//!   exact cycle and operation counts analytically; the counter-stepped
//!   originals are retained in [`mod@reference`] and property tests assert
//!   bit-identical accumulators *and* counters.
//! * **Analytical models** — [`timing`] derives layer latencies from the
//!   loop hierarchy of Alg. 1, and [`cost`] estimates LUT/FF/BRAM usage and
//!   power, calibrated against the paper's Tables II and III.
//!
//! The top-level [`sim::Accelerator`] compiles a converted
//! [`snn_model::snn::SnnModel`] onto a configurable number of processing
//! units ([`config::AcceleratorConfig`]), runs inference through the
//! layer loop in [`exec`] (one thread per inference; batches of inferences
//! spread over the global [`snn_parallel::ThreadBudget`]), and produces a
//! [`report::RunReport`] with the prediction, latency, energy, memory
//! traffic and per-unit utilisation — the quantities reported in the
//! paper's evaluation.  Deep models run within a fixed on-chip budget:
//! with [`config::AcceleratorConfig::activation_buffer_bytes`] set, the
//! [`memory`] tiling planner sizes oversized layers into halo-aware row
//! bands at compile time, as the paper sizes its buffers at design time,
//! and the host runs each layer whole, so full-scale VGG-11 executes
//! cycle-accurately under the budget (bit-identical to the untiled run).
//! For serving-scale traffic, [`serve::StreamServer`] serves a bounded
//! submission queue from N dispatcher threads over the same engine.
//!
//! # Example
//!
//! ```
//! use snn_accel::config::AcceleratorConfig;
//! use snn_accel::sim::Accelerator;
//! use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
//! use snn_model::{params::Parameters, zoo};
//! use snn_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = zoo::tiny_cnn();
//! let params = Parameters::he_init(&net, 1)?;
//! let input = Tensor::filled(vec![1, 12, 12], 0.5f32);
//! let stats = CalibrationStats::collect(&net, &params, [&input])?;
//! let snn = convert(&net, &params, &stats, ConversionConfig::default())?;
//!
//! let accel = Accelerator::new(AcceleratorConfig::default());
//! let report = accel.run(&snn, &input)?;
//! assert!(report.prediction < 10);
//! assert!(report.latency_us(&AcceleratorConfig::default()) > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;

pub mod compiler;
pub mod config;
pub mod conv;
pub mod cost;
pub mod dse;
pub mod energy;
pub mod exec;
pub mod linear;
pub mod memory;
pub mod pool;
pub mod reference;
pub mod report;
pub mod serve;
pub mod sim;
pub mod timing;
pub mod units;

pub use error::AccelError;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, AccelError>;
