//! # snn-model
//!
//! Network descriptions, parameters, quantization and the ANN-to-SNN
//! conversion flow used by the paper.
//!
//! The accelerator in the paper does not train networks: SNN models are
//! obtained by training an equivalent ANN, quantizing its parameters to
//! 3 bits and transferring them to a radix-encoded SNN (Section IV-A,
//! reference \[14\]).  This crate provides every piece of that flow:
//!
//! * [`layer::LayerSpec`] / [`network::NetworkSpec`] — declarative
//!   descriptions of the feed-forward CNN topologies the accelerator
//!   supports (convolution, pooling, flatten, fully-connected).
//! * [`zoo`] — the concrete models of the paper: LeNet-5, the CNNs of
//!   Fang et al. \[11\] and Ju et al. \[12\], and VGG-11.
//! * [`params::Parameters`] — floating-point weights (randomly initialised
//!   or produced by `snn-train`).
//! * [`forward`] — the floating-point ANN reference forward pass.
//! * [`convert`] — ANN-to-SNN conversion: 3-bit weight quantization and
//!   packing, activation-range calibration and per-layer requantization
//!   scales.
//! * [`snn`] — the *functional* radix-encoded SNN: integer-domain
//!   inference that the cycle-level accelerator simulator in `snn-accel`
//!   reproduces bit-exactly.
//! * [`packed`] — the channel-last 8/16-bit packed weights every
//!   conv/linear layer holds as its only weight copy, the layout that
//!   simulator's engine executes from.
//!
//! # Example
//!
//! ```
//! use snn_model::{zoo, params::Parameters};
//!
//! let net = zoo::lenet5();
//! assert_eq!(net.layers().len(), 9);
//! let params = Parameters::he_init(&net, 42)?;
//! assert_eq!(params.layer_weights().len(), net.layers().len());
//! # Ok::<(), snn_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod convert;
pub mod forward;
pub mod layer;
pub mod network;
pub mod packed;
pub mod params;
pub mod snn;
pub mod summary;
pub mod zoo;

pub use error::ModelError;
pub use layer::LayerSpec;
pub use network::NetworkSpec;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, ModelError>;
