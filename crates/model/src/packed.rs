//! Channel-last packed weights: the layout the accelerator engine reads.
//!
//! [`crate::snn::SnnLayer`] stores weight codes the way the ANN produced
//! them — `[O, C, Kr, Kc]` for a convolution, `[O, N]` for a
//! fully-connected layer, output channel outermost, one `i64` per code.
//! The paper's units are parallel over *output channels*: the convolution
//! units work on different output channels of the same input row, and the
//! linear unit is a row of adders fed one weight word per cycle.  The
//! engine in `snn-accel` executes the same way — for each input spike it
//! adds one weight row into all output-channel lanes — so it wants the
//! output channel *innermost*: `[C, Kr, Kc, O_pad]`, and for a linear
//! layer `[N, O_pad]`, which is the same thing with a 1×1 kernel.
//!
//! Codes are stored as `i16`: [`snn_tensor::quant::QuantizedTensor`] caps
//! weight precision at 16 bits, the narrow element quarters the bytes the
//! engine streams per spike, and the kernel sign-extends to `i64` lanes.
//! A code that does not fit is a typed error at pack time, never a
//! truncation.
//!
//! # How wide the sums get
//!
//! Packing also records the one number that bounds every sum the engine
//! can form from these weights: `abs_sum_max`, the largest `Σ|w|` any
//! output channel has over all its `(c, ky, kx)` rows.  An output position
//! receives at most one contribution per `(c, ky, kx)` (per input neuron
//! for a linear layer), each at most `level_mask(T) × |w|` in magnitude,
//! so `level_mask(T) × abs_sum_max` bounds the magnitude of every partial
//! sum of the layer — whatever the order of the additions, the row band,
//! the lane block or the output chunk.  Where that product is at most
//! `i32::MAX` ([`PackedWeights::sums_fit_i32`]) 32-bit accumulators hold
//! the *same* integers as 64-bit ones, not merely congruent ones, and the
//! engine uses them: twice the lanes per vector.  3-bit weights at `T = 4`
//! reach 19 bits on VGG-11.

use crate::{ModelError, Result};
use snn_tensor::{bitplane, Tensor};

/// Output-channel lanes are padded (with zero weights) to a multiple of
/// this, so a 256-bit `i64` vector never straddles the end of a row.
pub const LANE_ALIGN: usize = 4;

/// Side of the square blocks the packing transpose works in: 32 source
/// rows × 32 columns keeps both the strided reads and the contiguous
/// writes inside a few cache lines.  A plain strided transpose of VGG-11
/// costs ten times the rest of model set-up; of the block shapes from 8
/// to 64 a side, and a variant staging each block in a local tile, this
/// one measured fastest on both the 4096×4096 and the 512×4608 matrix.
const BLOCK: usize = 32;

/// One layer's weight codes in channel-last order (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedWeights {
    c_in: usize,
    kernel_rows: usize,
    kernel_cols: usize,
    c_out: usize,
    lanes: usize,
    /// `[c_in, kernel_rows, kernel_cols, lanes]`, lanes `c_out..` zero.
    data: Vec<i16>,
    /// Largest `Σ|w|` of one output channel over all its rows (see the
    /// module docs).
    abs_sum_max: u64,
}

impl PackedWeights {
    /// Packs `[O, C, Kr, Kc]` convolution kernel codes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParameterMismatch`] when the tensor is not
    /// rank 4 or a code does not fit `i16`.
    pub fn from_conv(codes: &Tensor<i64>) -> Result<Self> {
        match *codes.shape().dims() {
            [c_out, c_in, kr, kc] => Self::pack(codes.as_slice(), c_out, c_in, kr, kc),
            ref dims => Err(ModelError::ParameterMismatch {
                context: format!("convolution kernels must be [O, C, Kr, Kc], got {dims:?}"),
            }),
        }
    }

    /// Packs `[O, N]` fully-connected weight codes (a 1×1 kernel over `N`
    /// input channels).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParameterMismatch`] when the tensor is not
    /// rank 2 or a code does not fit `i16`.
    pub fn from_linear(codes: &Tensor<i64>) -> Result<Self> {
        match *codes.shape().dims() {
            [c_out, n] => Self::pack(codes.as_slice(), c_out, n, 1, 1),
            ref dims => Err(ModelError::ParameterMismatch {
                context: format!("linear weights must be [O, N], got {dims:?}"),
            }),
        }
    }

    /// Transposes the `[c_out, c_in * kr * kc]` matrix `src` into
    /// `[c_in * kr * kc, lanes]`, narrowing each code, block by block, and
    /// sums each output channel's magnitudes on the way.
    fn pack(src: &[i64], c_out: usize, c_in: usize, kr: usize, kc: usize) -> Result<Self> {
        let cols = c_in * kr * kc;
        let lanes = c_out.next_multiple_of(LANE_ALIGN);
        let mut data = vec![0i16; cols * lanes];
        let mut out_of_range = false;
        let mut abs_sum_max = 0u64;
        for r0 in (0..c_out).step_by(BLOCK) {
            let r1 = (r0 + BLOCK).min(c_out);
            let rows = &src[r0 * cols..r1 * cols];
            let mut abs_sums = [0u64; BLOCK];
            for c0 in (0..cols).step_by(BLOCK) {
                // At most `BLOCK` magnitudes of at most 2^15 each per lane.
                let mut block_sums = [0u32; BLOCK];
                for c in c0..(c0 + BLOCK).min(cols) {
                    let dst = &mut data[c * lanes + r0..c * lanes + r1];
                    for (d, row) in dst.iter_mut().zip(rows.chunks_exact(cols)) {
                        let code = row[c];
                        *d = code as i16;
                        out_of_range |= i64::from(*d) != code;
                    }
                    // Its own loop over the row just written: contiguous,
                    // so it vectorises; fused into the strided narrowing
                    // loop above it nearly doubled the transpose.
                    for (sum, d) in block_sums.iter_mut().zip(dst.iter()) {
                        *sum += u32::from(d.unsigned_abs());
                    }
                }
                for (total, sum) in abs_sums.iter_mut().zip(block_sums) {
                    *total += u64::from(sum);
                }
            }
            abs_sum_max = abs_sums.into_iter().fold(abs_sum_max, u64::max);
        }
        if out_of_range {
            let code = src
                .iter()
                .find(|&&code| i16::try_from(code).is_err())
                .expect("the narrowing pass saw a code outside i16");
            return Err(ModelError::ParameterMismatch {
                context: format!("weight code {code} does not fit the packed 16-bit element"),
            });
        }
        Ok(PackedWeights {
            c_in,
            kernel_rows: kr,
            kernel_cols: kc,
            c_out,
            lanes,
            data,
            abs_sum_max,
        })
    }

    /// Whether every sum the engine can form from these weights under
    /// spike trains of `time_steps` fits `i32` — exactly
    /// `level_mask(time_steps) × abs_sum_max <= i32::MAX` (see the module
    /// docs).  The engine accumulates in 32-bit lanes iff this holds.
    pub fn sums_fit_i32(&self, time_steps: usize) -> bool {
        let level_max = bitplane::level_mask(time_steps).unsigned_abs();
        u128::from(level_max) * u128::from(self.abs_sum_max) <= i32::MAX as u128
    }

    /// Input channels (input neurons for a linear layer).
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Kernel rows (1 for a linear layer).
    pub fn kernel_rows(&self) -> usize {
        self.kernel_rows
    }

    /// Kernel columns (1 for a linear layer).
    pub fn kernel_cols(&self) -> usize {
        self.kernel_cols
    }

    /// Output channels.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Length of every weight row: `c_out` rounded up to [`LANE_ALIGN`].
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The weights of tap `(ky, kx)` of input channel `ic` for every
    /// output channel: [`Self::lanes`] codes, zero beyond `c_out`.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn row(&self, ic: usize, ky: usize, kx: usize) -> &[i16] {
        assert!(
            ic < self.c_in && ky < self.kernel_rows && kx < self.kernel_cols,
            "packed weight row ({ic}, {ky}, {kx}) out of range"
        );
        let start = ((ic * self.kernel_rows + ky) * self.kernel_cols + kx) * self.lanes;
        &self.data[start..start + self.lanes]
    }

    /// Every weight row of input channel `ic`, `[kernel_rows, kernel_cols,
    /// lanes]`: tap `(ky, kx)` starts at `(ky * kernel_cols + kx) * lanes`.
    ///
    /// # Panics
    ///
    /// Panics when `ic` is out of range.
    pub fn channel(&self, ic: usize) -> &[i16] {
        let len = self.kernel_rows * self.kernel_cols * self.lanes;
        &self.data[ic * len..(ic + 1) * len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_rows_hold_every_output_channel_of_one_tap() {
        // Sizes that cross the 32-wide transpose blocks on both axes.
        let (o, c, kr, kc) = (37usize, 5usize, 3usize, 3usize);
        let code = |oc: usize, ic: usize, ky: usize, kx: usize| {
            ((oc * 131 + ic * 31 + ky * 7 + kx) % 4001) as i64 - 2000
        };
        let mut values = Vec::new();
        for oc in 0..o {
            for ic in 0..c {
                for ky in 0..kr {
                    for kx in 0..kc {
                        values.push(code(oc, ic, ky, kx));
                    }
                }
            }
        }
        let packed =
            PackedWeights::from_conv(&Tensor::from_vec(vec![o, c, kr, kc], values).unwrap())
                .unwrap();
        assert_eq!(
            (packed.c_in(), packed.kernel_rows(), packed.kernel_cols()),
            (c, kr, kc)
        );
        assert_eq!((packed.c_out(), packed.lanes()), (37, 40));
        for ic in 0..c {
            for ky in 0..kr {
                for kx in 0..kc {
                    let row = packed.row(ic, ky, kx);
                    for (oc, &w) in row.iter().enumerate() {
                        let expected = if oc < o { code(oc, ic, ky, kx) } else { 0 };
                        assert_eq!(i64::from(w), expected, "({ic},{ky},{kx}) lane {oc}");
                    }
                }
            }
        }
    }

    #[test]
    fn linear_is_a_one_by_one_kernel() {
        let weights = Tensor::from_vec(vec![3, 2], vec![1i64, 2, 3, 4, 5, 6]).unwrap();
        let packed = PackedWeights::from_linear(&weights).unwrap();
        assert_eq!((packed.c_in(), packed.c_out(), packed.lanes()), (2, 3, 4));
        assert_eq!(packed.row(0, 0, 0), &[1, 3, 5, 0]);
        assert_eq!(packed.row(1, 0, 0), &[2, 4, 6, 0]);
    }

    #[test]
    fn the_whole_i16_range_packs_and_one_past_it_is_rejected() {
        let edge = Tensor::from_vec(vec![1, 2], vec![i64::from(i16::MIN), 32767]).unwrap();
        assert_eq!(
            PackedWeights::from_linear(&edge).unwrap().row(1, 0, 0)[0],
            i16::MAX
        );
        for bad in [32768i64, -32769, 1 << 40] {
            let codes = Tensor::from_vec(vec![2, 2], vec![0, 1, bad, 2]).unwrap();
            let err = PackedWeights::from_linear(&codes).unwrap_err();
            assert!(
                matches!(&err, ModelError::ParameterMismatch { context } if context.contains(&bad.to_string())),
                "{err}"
            );
        }
    }

    #[test]
    fn abs_sum_max_is_the_largest_channel_magnitude_sum() {
        // Sizes crossing the transpose blocks, with padded lanes (37 -> 40)
        // and both `i16` edges present.
        let (o, c, kr, kc) = (37usize, 7usize, 3usize, 2usize);
        let cols = c * kr * kc;
        let code = |oc: usize, col: usize| match (oc * 53 + col * 17) % 11 {
            0 => i64::from(i16::MIN),
            1 => i64::from(i16::MAX),
            x => x as i64 * 300 - 1500,
        };
        let values: Vec<i64> = (0..o * cols).map(|i| code(i / cols, i % cols)).collect();
        let naive = (0..o)
            .map(|oc| {
                (0..cols)
                    .map(|col| code(oc, col).unsigned_abs())
                    .sum::<u64>()
            })
            .max()
            .unwrap();
        let conv = PackedWeights::from_conv(
            &Tensor::from_vec(vec![o, c, kr, kc], values.clone()).unwrap(),
        )
        .unwrap();
        assert_eq!(conv.abs_sum_max, naive);
        let linear =
            PackedWeights::from_linear(&Tensor::from_vec(vec![o, cols], values).unwrap()).unwrap();
        assert_eq!(linear.abs_sum_max, naive);
        // One channel of `i16::MIN`s: 32768 each, not 32767.
        let mins = Tensor::filled(vec![1, 5], i64::from(i16::MIN));
        assert_eq!(
            PackedWeights::from_linear(&mins).unwrap().abs_sum_max,
            5 << 15
        );
    }

    #[test]
    fn sums_fit_i32_up_to_and_including_i32_max() {
        // Σ|w| = 2^31 - 1 exactly (65 538 x 32 767 + 1), and one more.
        let mut codes = vec![-32767i64; 65538];
        codes.push(1);
        let at_bound =
            PackedWeights::from_linear(&Tensor::from_vec(vec![1, 65539], codes.clone()).unwrap())
                .unwrap();
        assert_eq!(at_bound.abs_sum_max, i32::MAX as u64);
        assert!(at_bound.sums_fit_i32(1));
        assert!(!at_bound.sums_fit_i32(2));
        codes[65538] = -2;
        let past =
            PackedWeights::from_linear(&Tensor::from_vec(vec![1, 65539], codes).unwrap()).unwrap();
        assert!(!past.sums_fit_i32(1));
        // No spike train carries a level, and all-zero weights carry no sum.
        assert!(past.sums_fit_i32(0));
        let zeros = PackedWeights::from_linear(&Tensor::filled(vec![3, 4], 0i64)).unwrap();
        assert!(zeros.sums_fit_i32(63));
        // 3-bit codes over a VGG-sized fan-in at T = 4, and T where it stops.
        let vgg = PackedWeights::from_conv(&Tensor::filled(vec![2, 512, 3, 3], -4i64)).unwrap();
        assert!(vgg.sums_fit_i32(4));
        assert!(vgg.sums_fit_i32(16));
        assert!(!vgg.sums_fit_i32(17));
    }

    #[test]
    fn a_channel_is_its_rows_back_to_back() {
        let codes: Vec<i64> = (0..6 * 3 * 2 * 2).map(|v| v as i64 - 30).collect();
        let packed =
            PackedWeights::from_conv(&Tensor::from_vec(vec![6, 3, 2, 2], codes).unwrap()).unwrap();
        let lanes = packed.lanes();
        for ic in 0..3 {
            for (ky, kx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let at = (ky * 2 + kx) * lanes;
                assert_eq!(&packed.channel(ic)[at..at + lanes], packed.row(ic, ky, kx));
            }
        }
    }

    #[test]
    fn wrong_ranks_are_rejected() {
        let flat = Tensor::filled(vec![4], 1i64);
        assert!(PackedWeights::from_conv(&flat).is_err());
        assert!(PackedWeights::from_linear(&flat).is_err());
    }
}
