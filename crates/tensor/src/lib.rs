//! # snn-tensor
//!
//! Dense tensor substrate used throughout the SNN accelerator reproduction.
//!
//! The accelerator in the paper operates on small, statically-shaped feature
//! maps (e.g. 32×32 LeNet inputs, 3-bit quantized kernels).  This crate
//! provides exactly the pieces the rest of the workspace needs:
//!
//! * [`Shape`] and [`Tensor`] — a minimal row-major dense tensor over any
//!   element type.
//! * [`ops`] — reference implementations of the neural-network operators
//!   (2-D convolution, average/max pooling, fully-connected layers, ReLU)
//!   in both floating point and integer arithmetic.  The integer variants
//!   are the golden model the cycle-level hardware simulator is checked
//!   against bit-exactly.
//! * [`quant`] — symmetric fixed-point quantization used for the 3-bit
//!   network parameters of the paper.
//! * [`bitplane`] — radix activations packed into per-time-step binary
//!   planes of `u64` row words, the substrate of the sparse execution
//!   engine in `snn-accel` (word-level skipping of silent regions through
//!   the planes' one-pass occupancy).
//! * [`simd`] — runtime-dispatched word-level kernels (AVX2 with an
//!   always-compiled scalar oracle) behind the bit-plane engine's inner
//!   loops: occupancy-row packing and the widening weight-row
//!   multiply-accumulate of blocks of up to four spikes.  `SNN_SIMD=0`
//!   forces the scalar path.
//!
//! # Example
//!
//! ```
//! use snn_tensor::{Tensor, ops};
//!
//! // A 1×4×4 input feature map and a single 1×1×3×3 kernel.
//! let input = Tensor::from_vec(vec![1, 4, 4], (0..16).map(|v| v as f32).collect())?;
//! let kernel = Tensor::filled(vec![1, 1, 3, 3], 1.0f32);
//! let out = ops::conv2d(&input, &kernel, None, 1, 0)?;
//! assert_eq!(out.shape().dims(), &[1, 2, 2]);
//! # Ok::<(), snn_tensor::TensorError>(())
//! ```

// `deny` rather than `forbid`: the `simd` module carries the only
// `#[allow(unsafe_code)]` overrides in the workspace, scoped to the
// feature-gated intrinsic wrappers that runtime dispatch proves sound.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod bitplane;
pub mod ops;
pub mod quant;
pub mod simd;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
