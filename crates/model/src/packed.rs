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

use crate::{ModelError, Result};
use snn_tensor::Tensor;

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
    /// `[c_in * kr * kc, lanes]`, narrowing each code, block by block.
    fn pack(src: &[i64], c_out: usize, c_in: usize, kr: usize, kc: usize) -> Result<Self> {
        let cols = c_in * kr * kc;
        let lanes = c_out.next_multiple_of(LANE_ALIGN);
        let mut data = vec![0i16; cols * lanes];
        let mut out_of_range = false;
        for r0 in (0..c_out).step_by(BLOCK) {
            let r1 = (r0 + BLOCK).min(c_out);
            let rows = &src[r0 * cols..r1 * cols];
            for c0 in (0..cols).step_by(BLOCK) {
                for c in c0..(c0 + BLOCK).min(cols) {
                    let dst = &mut data[c * lanes + r0..c * lanes + r1];
                    for (d, row) in dst.iter_mut().zip(rows.chunks_exact(cols)) {
                        let code = row[c];
                        *d = code as i16;
                        out_of_range |= i64::from(*d) != code;
                    }
                }
            }
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
        })
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
    fn wrong_ranks_are_rejected() {
        let flat = Tensor::filled(vec![4], 1i64);
        assert!(PackedWeights::from_conv(&flat).is_err());
        assert!(PackedWeights::from_linear(&flat).is_err());
    }
}
