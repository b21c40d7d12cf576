//! Radix encoding — the emerging neural encoding scheme the accelerator is
//! built for (reference \[6\] of the paper).
//!
//! An activation `a ∈ [0, 1]` is quantized to an integer level
//! `round(a * (2^T - 1))` (half away from zero, computed exactly by
//! truncate and compare in [`RadixEncoder::level_of`]; a test pins it to
//! `f32::round` for every `T`) and transmitted as its binary expansion, most
//! significant bit first: the spike at time step `t` carries a weight of
//! `2^(T-1-t)`.  A spike train of length `T` therefore provides `T` bits of
//! activation resolution, which is why 3–6 time steps suffice where rate
//! encoding needs hundreds.
//!
//! On the hardware side the position weighting is free: the output logic
//! shifts the running partial sum left by one bit before accumulating the
//! next time step (Alg. 1, line 12 / Fig. 2 of the paper), implemented here
//! in `snn-accel`'s output logic and mirrored by
//! [`RadixEncoder::weighted_sum`].

use crate::{Encoder, EncodingError, Result, SpikeTrain};
use serde::{Deserialize, Serialize};

/// Maximum supported spike-train length for radix encoding.
///
/// 24 bits comfortably exceeds any useful activation resolution while
/// keeping integer levels inside `u32`/`i64` arithmetic.
pub const MAX_TIME_STEPS: usize = 24;

/// Radix (binary positional) encoder.
///
/// # Example
///
/// ```
/// use snn_encoding::{radix::RadixEncoder, Encoder};
///
/// let enc = RadixEncoder::new(4)?;
/// let train = enc.encode_value(0.6);       // 0.6 * 15 = 9 -> 0b1001
/// assert_eq!(train.to_level(), 9);
/// assert!((enc.decode_value(&train) - 0.6).abs() < 0.05);
/// # Ok::<(), snn_encoding::EncodingError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RadixEncoder {
    time_steps: usize,
}

impl RadixEncoder {
    /// Creates a radix encoder producing trains of `time_steps` steps.
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::InvalidTimeSteps`] when `time_steps` is zero
    /// or exceeds [`MAX_TIME_STEPS`].
    pub fn new(time_steps: usize) -> Result<Self> {
        if time_steps == 0 || time_steps > MAX_TIME_STEPS {
            return Err(EncodingError::InvalidTimeSteps {
                requested: time_steps,
                max: MAX_TIME_STEPS,
            });
        }
        Ok(RadixEncoder { time_steps })
    }

    /// The largest integer level representable by this encoder
    /// (`2^T - 1`).
    pub fn max_level(&self) -> u32 {
        (1u32 << self.time_steps) - 1
    }

    /// Quantizes an activation in `[0, 1]` to its integer level: the value
    /// is clamped to `[0, 1]` and `value * max_level` rounded half away
    /// from zero (NaN maps to level 0).
    ///
    /// The rounding truncates and compares the fraction, which is exact
    /// because the product stays below `2^24`; it equals `f32::round`
    /// everywhere without a software `round` call on targets that lack a
    /// rounding instruction.
    #[inline]
    pub fn level_of(&self, value: f32) -> u32 {
        let scaled = value.clamp(0.0, 1.0) * self.max_level() as f32;
        let whole = scaled as u32;
        whole + u32::from(scaled - whole as f32 >= 0.5)
    }

    /// The positional weight `2^(T-1-t)` of a spike at time step `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= time_steps`.
    pub fn step_weight(&self, t: usize) -> u32 {
        assert!(t < self.time_steps, "time step {t} out of range");
        1u32 << (self.time_steps - 1 - t)
    }

    /// Computes the radix-weighted sum of a spike train — the integer level
    /// it encodes — using the same left-shift-and-accumulate recurrence the
    /// hardware output logic uses.
    pub fn weighted_sum(&self, train: &SpikeTrain) -> u32 {
        let mut acc = 0u32;
        for t in 0..self.time_steps {
            acc <<= 1; // Alg. 1, line 12: shift previous partial sum left.
            acc += u32::from(train.spike_at(t));
        }
        acc
    }
}

impl Encoder for RadixEncoder {
    fn time_steps(&self) -> usize {
        self.time_steps
    }

    fn encode_value(&self, value: f32) -> SpikeTrain {
        SpikeTrain::from_level(self.level_of(value), self.time_steps)
    }

    fn decode_value(&self, train: &SpikeTrain) -> f32 {
        self.weighted_sum(train) as f32 / self.max_level() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_lengths() {
        assert!(RadixEncoder::new(0).is_err());
        assert!(RadixEncoder::new(MAX_TIME_STEPS + 1).is_err());
        assert!(RadixEncoder::new(MAX_TIME_STEPS).is_ok());
    }

    #[test]
    fn max_level_is_two_to_t_minus_one() {
        assert_eq!(RadixEncoder::new(3).unwrap().max_level(), 7);
        assert_eq!(RadixEncoder::new(6).unwrap().max_level(), 63);
    }

    #[test]
    fn encode_extremes() {
        let enc = RadixEncoder::new(4).unwrap();
        assert_eq!(enc.encode_value(0.0).to_level(), 0);
        assert_eq!(enc.encode_value(1.0).to_level(), 15);
        // Values outside [0, 1] are clamped.
        assert_eq!(enc.encode_value(-3.0).to_level(), 0);
        assert_eq!(enc.encode_value(2.5).to_level(), 15);
    }

    #[test]
    fn step_weight_is_msb_first() {
        let enc = RadixEncoder::new(4).unwrap();
        assert_eq!(enc.step_weight(0), 8);
        assert_eq!(enc.step_weight(1), 4);
        assert_eq!(enc.step_weight(2), 2);
        assert_eq!(enc.step_weight(3), 1);
    }

    #[test]
    fn weighted_sum_matches_positional_weights() {
        let enc = RadixEncoder::new(5).unwrap();
        for level in 0..32u32 {
            let train = SpikeTrain::from_level(level, 5);
            // Explicit positional sum.
            let explicit: u32 = (0..5)
                .map(|t| u32::from(train.spike_at(t)) * enc.step_weight(t))
                .sum();
            assert_eq!(enc.weighted_sum(&train), explicit);
            assert_eq!(enc.weighted_sum(&train), level);
        }
    }

    #[test]
    fn decode_inverts_encode_on_grid_points() {
        let enc = RadixEncoder::new(6).unwrap();
        for level in 0..=enc.max_level() {
            let value = level as f32 / enc.max_level() as f32;
            let train = enc.encode_value(value);
            assert_eq!(train.to_level(), level);
            assert!((enc.decode_value(&train) - value).abs() < 1e-6);
        }
    }

    #[test]
    fn encoding_error_bounded_by_half_level() {
        let enc = RadixEncoder::new(3).unwrap();
        let half_step = 0.5 / enc.max_level() as f32;
        for i in 0..=100 {
            let value = i as f32 / 100.0;
            let decoded = enc.decode_value(&enc.encode_value(value));
            assert!(
                (value - decoded).abs() <= half_step + 1e-6,
                "value {value} decoded to {decoded}"
            );
        }
    }

    /// The `f32::round` expression `level_of` computes without calling
    /// `round`: the oracle the truncate-and-compare form is pinned to.
    fn level_by_round(enc: &RadixEncoder, value: f32) -> u32 {
        (value.clamp(0.0, 1.0) * enc.max_level() as f32).round() as u32
    }

    #[test]
    fn level_of_matches_the_round_expression() {
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1.0,
            -1e-30,
            -0.5,
            1.0 + f32::EPSILON,
            2.5,
            f32::MAX,
            f32::MIN,
            f32::from_bits(1),
        ];
        let mut half_way_hits = 0u32;
        for t in 1..=MAX_TIME_STEPS {
            let enc = RadixEncoder::new(t).unwrap();
            let check = |value: f32| {
                assert_eq!(
                    enc.level_of(value),
                    level_by_round(&enc, value),
                    "T = {t}, value {value:e} ({:#x})",
                    value.to_bits()
                );
            };
            specials.iter().copied().for_each(check);
            // The f32s of [0, 1] at a stride of 4099 ulps.
            (0..=1.0f32.to_bits())
                .step_by(4099)
                .map(f32::from_bits)
                .for_each(check);
            // ±8 ulps around every half-way point (k + 0.5) / max, up to
            // 4096 of them per T.
            let max = enc.max_level();
            for k in (0..max).step_by((max as usize / 4096).max(1)) {
                let half_way = (k as f32 + 0.5) / max as f32;
                for d in -8i32..=8 {
                    let value = f32::from_bits(half_way.to_bits().wrapping_add_signed(d));
                    check(value);
                    let scaled = value * max as f32;
                    half_way_hits += u32::from(scaled.fract() == 0.5);
                }
            }
        }
        // Exact half-way products are among the points: a `>` in place of
        // `>=` would round them down.
        assert!(
            half_way_hits > 1000,
            "{half_way_hits} exact half-way products"
        );
    }

    #[test]
    fn spike_count_is_popcount_of_level() {
        let enc = RadixEncoder::new(6).unwrap();
        let train = enc.encode_value(41.0 / 63.0); // 41 = 0b101001
        assert_eq!(train.spike_count(), 3);
    }
}
