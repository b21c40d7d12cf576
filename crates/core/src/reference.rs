//! Retained scalar reference implementations of the processing units.
//!
//! These are the original cycle-by-cycle, counter-stepped models: every
//! `(output channel, time step, input channel, row, tile, kernel row,
//! kernel column)` tuple is walked with scalar loads, and the
//! [`UnitStats`] counters are incremented inside the innermost loops —
//! exactly as the RTL schedules the work.
//!
//! The optimised engines in [`crate::conv`] and [`crate::linear`] do work
//! proportional to the spikes instead and *derive* the same counters
//! analytically.  These reference models are kept (rather than deleted) for
//! two reasons:
//!
//! 1. **Verification** — property tests assert that the sparse engines
//!    produce bit-identical accumulators *and* bit-identical `UnitStats`
//!    for arbitrary shapes, strides, paddings and data.
//! 2. **Benchmarking** — the criterion harness measures the sparse engine
//!    against this baseline so the speedup is tracked over time.
//!
//! Nothing in the inference path calls into this module.

use crate::config::ArrayGeometry;
use crate::conv::ConvResult;
use crate::linear::LinearResult;
use crate::units::UnitStats;
use crate::{AccelError, Result};
use snn_tensor::{ops, Tensor};

/// Counter-stepped scalar model of one convolution unit (the seed
/// implementation of [`crate::conv::ConvolutionUnit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceConvolutionUnit {
    geometry: ArrayGeometry,
}

impl ReferenceConvolutionUnit {
    /// Creates a reference convolution unit with the given geometry.
    pub fn new(geometry: ArrayGeometry) -> Self {
        ReferenceConvolutionUnit { geometry }
    }

    /// Number of column tiles needed for an output row of `width` values.
    pub fn column_tiles(&self, width: usize) -> usize {
        width.div_ceil(self.geometry.columns)
    }

    /// Executes one convolution layer cycle by cycle, stepping every
    /// counter in the innermost loops.  Semantics are identical to
    /// [`crate::conv::ConvolutionUnit::run_layer`].
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnsupportedLayer`] when the kernel has more
    /// rows than the adder array, and propagates shape errors.
    pub fn run_layer(
        &self,
        input_levels: &Tensor<i64>,
        kernel_codes: &Tensor<i64>,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        stride: usize,
        padding: usize,
    ) -> Result<ConvResult> {
        let in_dims = input_levels.shape().dims();
        let k_dims = kernel_codes.shape().dims();
        if in_dims.len() != 3 || k_dims.len() != 4 {
            return Err(AccelError::UnsupportedLayer {
                layer: 0,
                context: "convolution unit expects [C,H,W] inputs and [O,C,K,K] kernels"
                    .to_string(),
            });
        }
        let (c_in, h, w) = (in_dims[0], in_dims[1], in_dims[2]);
        let (c_out, kc_in, kr, kc) = (k_dims[0], k_dims[1], k_dims[2], k_dims[3]);
        if kc_in != c_in {
            return Err(AccelError::UnsupportedLayer {
                layer: 0,
                context: format!("kernel expects {kc_in} channels, input has {c_in}"),
            });
        }
        if kr > self.geometry.rows {
            return Err(AccelError::UnsupportedLayer {
                layer: 0,
                context: format!(
                    "kernel has {kr} rows but the adder array only has {} rows",
                    self.geometry.rows
                ),
            });
        }
        let (h_out, w_out) = ops::conv2d_output_dims((h, w), (kr, kc), stride, padding)
            .map_err(AccelError::Tensor)?;

        let mut accumulators = Tensor::filled(vec![c_out, h_out, w_out], 0i64);
        let mut stats = UnitStats::new();
        let in_data = input_levels.as_slice();
        let k_data = kernel_codes.as_slice();
        let tiles = self.column_tiles(w_out);

        for oc in 0..c_out {
            // Time-step accumulators for this output channel (the output
            // logic's registers).
            let mut channel_acc = vec![0i64; h_out * w_out];
            for t in 0..time_steps {
                // Spike plane bit for this time step: MSB first.
                let bit = time_steps - 1 - t;
                let mut step_sum = vec![0i64; h_out * w_out];
                for ic in 0..c_in {
                    // Pipeline fill for this channel pass.
                    stats.cycles += kr as u64;
                    for oy in 0..h_out {
                        for tile in 0..tiles {
                            let col_start = tile * self.geometry.columns;
                            let col_end = (col_start + self.geometry.columns).min(w_out);
                            // The input logic fetches one input row per
                            // kernel row into the shift register.
                            for ky in 0..kr {
                                let iy = (oy * stride + ky) as isize - padding as isize;
                                stats.activation_reads += 1;
                                stats.cycles += 1; // row load into the shift register
                                for kx in 0..kc {
                                    // One shift of the input register and one
                                    // kernel value broadcast per cycle.
                                    let kernel_value =
                                        k_data[oc * c_in * kr * kc + ic * kr * kc + ky * kc + kx];
                                    stats.kernel_reads += 1;
                                    stats.cycles += 1;
                                    if iy < 0 || iy >= h as isize {
                                        continue; // padding row: all taps silent
                                    }
                                    for ox in col_start..col_end {
                                        let ix = (ox * stride + kx) as isize - padding as isize;
                                        if ix < 0 || ix >= w as isize {
                                            continue; // padding column
                                        }
                                        let level =
                                            in_data[ic * h * w + iy as usize * w + ix as usize];
                                        let spike = (level >> bit) & 1 == 1;
                                        if spike {
                                            // Multiplexer admits the kernel
                                            // value into the adder.
                                            step_sum[oy * w_out + ox] += kernel_value;
                                            stats.adder_ops += 1;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                // Output logic: accumulate over input channels happened in
                // `step_sum`; now fold this time step into the running
                // radix accumulation with a single left shift.
                for (acc, s) in channel_acc.iter_mut().zip(step_sum.iter()) {
                    *acc = (*acc << 1) + s;
                }
            }
            // Bias and write-back of the completed output channel.
            let bias = bias_acc.as_slice().get(oc).copied().unwrap_or(0);
            for (idx, acc) in channel_acc.iter().enumerate() {
                accumulators.as_mut_slice()[oc * h_out * w_out + idx] = acc + bias;
                stats.output_writes += 1;
            }
        }

        Ok(ConvResult {
            accumulators,
            stats,
        })
    }
}

/// Counter-stepped scalar model of the linear unit (the seed
/// implementation of [`crate::linear::LinearUnit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceLinearUnit {
    lanes: usize,
}

impl ReferenceLinearUnit {
    /// Creates a reference linear unit with `lanes` parallel output
    /// channels.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "linear unit needs at least one output lane");
        ReferenceLinearUnit { lanes }
    }

    /// Executes one fully-connected layer cycle by cycle.  Semantics are
    /// identical to [`crate::linear::LinearUnit::run_layer`].
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnsupportedLayer`] when shapes do not match.
    pub fn run_layer(
        &self,
        input_levels: &Tensor<i64>,
        weight_codes: &Tensor<i64>,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
    ) -> Result<LinearResult> {
        if input_levels.shape().rank() != 1 || weight_codes.shape().rank() != 2 {
            return Err(AccelError::UnsupportedLayer {
                layer: 0,
                context: "linear unit expects a [N] input and [O, N] weights".to_string(),
            });
        }
        let n = input_levels.len();
        let o = weight_codes.shape().dims()[0];
        if weight_codes.shape().dims()[1] != n {
            return Err(AccelError::UnsupportedLayer {
                layer: 0,
                context: format!(
                    "weight matrix expects {} inputs, activation buffer provides {n}",
                    weight_codes.shape().dims()[1]
                ),
            });
        }

        let in_data = input_levels.as_slice();
        let w_data = weight_codes.as_slice();
        let mut accumulators = vec![0i64; o];
        let mut stats = UnitStats::new();

        // Output channels are processed in groups of `lanes`.
        let groups = o.div_ceil(self.lanes);
        for group in 0..groups {
            let lane_start = group * self.lanes;
            let lane_end = (lane_start + self.lanes).min(o);
            for t in 0..time_steps {
                let bit = time_steps - 1 - t;
                for acc in accumulators.iter_mut().take(lane_end).skip(lane_start) {
                    // Radix shift once per time step per output.
                    *acc <<= 1;
                }
                for ni in 0..n {
                    // One cycle: one input neuron, `lanes` weights fetched.
                    stats.cycles += 1;
                    stats.activation_reads += 1;
                    stats.kernel_reads += (lane_end - lane_start) as u64;
                    let spike = (in_data[ni] >> bit) & 1 == 1;
                    if !spike {
                        continue;
                    }
                    for (oi, acc) in accumulators
                        .iter_mut()
                        .enumerate()
                        .take(lane_end)
                        .skip(lane_start)
                    {
                        *acc += w_data[oi * n + ni];
                        stats.adder_ops += 1;
                    }
                }
            }
        }

        for (acc, &b) in accumulators.iter_mut().zip(bias_acc.as_slice()) {
            *acc += b;
            stats.output_writes += 1;
        }

        Ok(LinearResult {
            accumulators: Tensor::from_vec(vec![o], accumulators).map_err(AccelError::Tensor)?,
            stats,
        })
    }
}
