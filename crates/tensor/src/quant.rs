//! Symmetric fixed-point quantization.
//!
//! The paper sets the resolution of the network parameters to **3 bits**
//! (Section IV-A).  Weights are quantized symmetrically around zero: a
//! per-tensor scale maps the real-valued weights onto a small signed integer
//! grid, and the integer codes are what the accelerator's adders consume.
//! Activations in the radix-encoded SNN are binary spikes, so only weights
//! and the requantization step after each layer need this module.

use crate::{Result, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// A tensor quantized to `bits`-bit signed integers with a single
/// per-tensor scale: `real ≈ code * scale`.
///
/// # Example
///
/// ```
/// use snn_tensor::{Tensor, quant::QuantizedTensor};
///
/// let weights = Tensor::from_vec(vec![4], vec![-1.0f32, -0.5, 0.25, 1.0])?;
/// let q = QuantizedTensor::quantize(&weights, 3)?;
/// let back = q.dequantize();
/// // 3 bits -> codes in [-3, 3]; the round trip stays within half a step.
/// for (orig, deq) in weights.iter().zip(back.iter()) {
///     assert!((orig - deq).abs() <= q.scale() / 2.0 + 1e-6);
/// }
/// # Ok::<(), snn_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    codes: Tensor<i32>,
    scale: f32,
    bits: u8,
}

/// `x` rounded half away from zero and clamped to `±max_code`:
/// `(x.round() as i32).clamp(-max_code, max_code)`, without the software
/// `round` the baseline x86-64 target calls for it.  The magnitude is
/// truncated and its fraction compared with one half; below `max_code`
/// (at most `2^15 - 1`) that fraction is exact in `f32`, and at or above
/// it the clamp decides alone.  NaN truncates to 0, as `round` does.
#[inline]
fn code_of(x: f32, max_code: i32) -> i32 {
    let magnitude = x.abs();
    let whole = magnitude as i32;
    let code = if whole >= max_code {
        max_code
    } else {
        whole + i32::from(magnitude - whole as f32 >= 0.5)
    };
    if x < 0.0 {
        -code
    } else {
        code
    }
}

impl QuantizedTensor {
    /// Quantizes `real` to signed `bits`-bit codes with a symmetric range.
    ///
    /// The code range is `[-(2^(bits-1) - 1), 2^(bits-1) - 1]`, i.e. the
    /// most negative code is not used so the grid is symmetric (for 3 bits:
    /// codes −3..=3).  The scale is chosen so the largest-magnitude element
    /// maps to the largest code.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] if `bits` is not in `2..=16`.
    pub fn quantize(real: &Tensor<f32>, bits: u8) -> Result<Self> {
        if !(2..=16).contains(&bits) {
            return Err(TensorError::InvalidParameter {
                context: format!("quantization bits must be in 2..=16, got {bits}"),
            });
        }
        let max_code = Self::max_code_for(bits);
        let max_abs = real.max_abs();
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / max_code as f32
        };
        let codes = real.map(|&v| code_of(v / scale, max_code));
        Ok(QuantizedTensor { codes, scale, bits })
    }

    /// Builds a quantized tensor directly from integer codes and a scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] if `bits` is out of range or
    /// any code exceeds the representable range.
    pub fn from_codes(codes: Tensor<i32>, scale: f32, bits: u8) -> Result<Self> {
        if !(2..=16).contains(&bits) {
            return Err(TensorError::InvalidParameter {
                context: format!("quantization bits must be in 2..=16, got {bits}"),
            });
        }
        let max_code = Self::max_code_for(bits);
        if codes.iter().any(|&c| c < -max_code || c > max_code) {
            return Err(TensorError::InvalidParameter {
                context: format!("code exceeds {bits}-bit symmetric range ±{max_code}"),
            });
        }
        Ok(QuantizedTensor { codes, scale, bits })
    }

    /// Largest representable code magnitude for `bits`-bit symmetric
    /// quantization.
    pub fn max_code_for(bits: u8) -> i32 {
        (1i32 << (bits - 1)) - 1
    }

    /// The integer codes.
    pub fn codes(&self) -> &Tensor<i32> {
        &self.codes
    }

    /// The per-tensor scale factor (`real ≈ code * scale`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The bit width used during quantization.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Reconstructs the real-valued tensor from the codes.
    pub fn dequantize(&self) -> Tensor<f32> {
        self.codes.map(|&c| c as f32 * self.scale)
    }

    /// Root-mean-square quantization error against a reference tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn rms_error(&self, reference: &Tensor<f32>) -> Result<f32> {
        if reference.shape() != self.codes.shape() {
            return Err(TensorError::ShapeMismatch {
                context: "reference shape differs from quantized shape".to_string(),
            });
        }
        let deq = self.dequantize();
        let sum_sq: f32 = deq
            .iter()
            .zip(reference.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        Ok((sum_sq / reference.len().max(1) as f32).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_code_matches_bit_width() {
        assert_eq!(QuantizedTensor::max_code_for(3), 3);
        assert_eq!(QuantizedTensor::max_code_for(4), 7);
        assert_eq!(QuantizedTensor::max_code_for(8), 127);
    }

    #[test]
    fn quantize_roundtrip_error_bounded_by_half_step() {
        let real =
            Tensor::from_vec(vec![7], vec![-0.9f32, -0.33, -0.1, 0.0, 0.2, 0.55, 0.9]).unwrap();
        let q = QuantizedTensor::quantize(&real, 3).unwrap();
        let deq = q.dequantize();
        for (orig, back) in real.iter().zip(deq.iter()) {
            assert!((orig - back).abs() <= q.scale() / 2.0 + 1e-6);
        }
    }

    /// The `round` expression `quantize` computes without calling it: the
    /// oracle `code_of` is pinned to.
    fn code_by_round(x: f32, max_code: i32) -> i32 {
        (x.round() as i32).clamp(-max_code, max_code)
    }

    #[test]
    fn codes_match_the_round_expression_at_every_half_way_point() {
        for bits in 2..=16u8 {
            let max_code = QuantizedTensor::max_code_for(bits);
            let check = |x: f32| {
                assert_eq!(
                    code_of(x, max_code),
                    code_by_round(x, max_code),
                    "x = {x:e} ({:#x}), bits {bits}",
                    x.to_bits()
                );
            };
            // Every half-way point up to one past the top code, and the 8
            // floats on either side of each, both signs.
            for k in 0..=max_code {
                let half = k as f32 + 0.5;
                for ulps in -8i32..=8 {
                    let x = f32::from_bits(half.to_bits().wrapping_add_signed(ulps));
                    check(x);
                    check(-x);
                }
            }
            // Signed zeros, non-finite values, subnormals, huge values.
            let specials = [
                0.0,
                f32::NAN,
                f32::INFINITY,
                f32::MIN_POSITIVE,
                f32::from_bits(1),
                f32::from_bits(0x007f_ffff),
                f32::MAX,
                2_147_483_648.0,
                1e20,
                max_code as f32,
                max_code as f32 + 1.0,
            ];
            for x in specials {
                check(x);
                check(-x);
            }
            // Random bit patterns, and random magnitudes up to twice the top
            // code.
            let mut state = 0x2545_f491_4f6c_dd1du64 ^ u64::from(bits);
            for _ in 0..20_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                check(f32::from_bits(state as u32));
                let unit = (state >> 40) as f32 / (1u64 << 24) as f32;
                check((unit - 0.5) * 4.0 * max_code as f32);
            }
        }
    }

    #[test]
    fn quantize_matches_the_round_expression() {
        // Through the public entry, the scale included: random weights at
        // every precision, plus signed zeros, the largest magnitude and a
        // weight near the half-way point between codes 0 and 1.
        for bits in 2..=16u8 {
            let max_code = QuantizedTensor::max_code_for(bits);
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(bits);
            let mut values: Vec<f32> = (0..4096)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.3
                })
                .collect();
            values.extend([0.0, -0.0, 1.0, 1.0 / (2 * max_code) as f32]);
            let real = Tensor::from_vec(vec![values.len()], values.clone()).unwrap();
            let q = QuantizedTensor::quantize(&real, bits).unwrap();
            for (&v, &code) in values.iter().zip(q.codes().iter()) {
                assert_eq!(code, code_by_round(v / q.scale(), max_code), "{v}");
            }
        }
    }

    #[test]
    fn largest_magnitude_maps_to_largest_code() {
        let real = Tensor::from_vec(vec![3], vec![0.1f32, -0.8, 0.4]).unwrap();
        let q = QuantizedTensor::quantize(&real, 3).unwrap();
        assert_eq!(q.codes().as_slice()[1], -3);
    }

    #[test]
    fn zero_tensor_quantizes_to_zero_codes() {
        let real = Tensor::filled(vec![5], 0.0f32);
        let q = QuantizedTensor::quantize(&real, 3).unwrap();
        assert!(q.codes().iter().all(|&c| c == 0));
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn invalid_bit_width_rejected() {
        let real = Tensor::filled(vec![2], 1.0f32);
        assert!(QuantizedTensor::quantize(&real, 1).is_err());
        assert!(QuantizedTensor::quantize(&real, 17).is_err());
    }

    #[test]
    fn from_codes_validates_range() {
        let codes = Tensor::from_vec(vec![2], vec![3, -3]).unwrap();
        assert!(QuantizedTensor::from_codes(codes.clone(), 0.5, 3).is_ok());
        let too_big = Tensor::from_vec(vec![1], vec![4]).unwrap();
        assert!(QuantizedTensor::from_codes(too_big, 0.5, 3).is_err());
    }

    #[test]
    fn rms_error_zero_for_exactly_representable_values() {
        let real = Tensor::from_vec(vec![3], vec![-0.5f32, 0.0, 0.5]).unwrap();
        // With 3 bits and max 0.5 the grid step is 0.5/3; -0.5, 0, 0.5 are on-grid.
        let q = QuantizedTensor::quantize(&real, 3).unwrap();
        let err = q.rms_error(&real).unwrap();
        assert!(err < 1e-6, "rms error was {err}");
    }

    #[test]
    fn rms_error_shape_mismatch() {
        let real = Tensor::filled(vec![3], 0.5f32);
        let q = QuantizedTensor::quantize(&real, 3).unwrap();
        let other = Tensor::filled(vec![4], 0.5f32);
        assert!(q.rms_error(&other).is_err());
    }
}
