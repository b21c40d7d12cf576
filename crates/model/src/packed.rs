//! Channel-last packed weights: the one stored copy of a layer's weight
//! codes, and the layout the accelerator engine reads.
//!
//! The ANN produces weight codes output channel outermost — `[O, C, Kr,
//! Kc]` for a convolution, `[O, N]` for a fully-connected layer.  The
//! paper's units are parallel over *output channels*: the convolution
//! units work on different output channels of the same input row, and the
//! linear unit is a row of adders fed one weight word per cycle.  The
//! engine in `snn-accel` executes the same way — for each input spike it
//! adds weight rows into all output-channel lanes — so it wants the
//! output channel *innermost*: `[C, Kr, Kc, O_pad]`, and for a linear
//! layer `[N, O_pad]`, which is the same thing with a 1×1 kernel.
//! [`crate::convert`] packs each layer straight from its quantized `i32`
//! codes, one layer at a time, and [`crate::snn::SnnLayer`] holds only the
//! packed copy: one byte per code at the paper's precisions, where an `i64`
//! per code would take eight.  The gold model reads it back a block of
//! output channels at a time ([`PackedWeights::output_channels`]).
//!
//! Within each kernel row the columns are stored **reversed**: tap
//! `(ky, kx)` is row `ky * Kc + (Kc - 1 - kx)` of its channel.  At stride
//! one a spike at input column `ix` reaches output column `ox` through
//! `kx = ix + padding - ox`, so consecutive outputs take *descending* `kx`:
//! reversed, the weight rows of one spike's run of outputs along a kernel
//! row lie back to back, exactly as the accumulator rows of those outputs
//! do, and the whole run is one contiguous multiply-accumulate — the host
//! picture of the paper's adder row stepping through its kernel row as the
//! input register shifts.  [`PackedWeights::row`] still takes the logical
//! tap; only [`PackedWeights::codes`] and [`PackedWeights::channel`] show
//! the stored order.
//!
//! # How wide the codes are
//!
//! The paper stores 3-bit weights; the engine streams every code of a row
//! per spike, so the packed element is as narrow as the layer's codes
//! allow: `i8` when every code lies in `-128..=127` — always, at the
//! paper's weight precisions of at most 8 bits — and `i16` otherwise
//! ([`snn_tensor::quant::QuantizedTensor`] caps weight precision at 16
//! bits).  The choice is made once, inside the pack; only the chosen copy
//! is kept ([`PackedWeights::codes`]).  A code that does not fit `i16` is a
//! typed error at pack time, never a truncation.
//!
//! # How wide the sums get
//!
//! Packing also records the two numbers that bound every sum the engine
//! can form from these weights.
//!
//! `abs_sum_max` is the largest `Σ|w|` any output channel has over all its
//! `(c, ky, kx)` rows.  An output position receives at most one
//! contribution per `(c, ky, kx)` (per input neuron for a linear layer),
//! each at most `level_mask(T) × |w|` in magnitude, so
//! `level_mask(T) × abs_sum_max` bounds the magnitude of every partial
//! sum of the layer — whatever the order of the additions, the row band
//! or the output chunk.  Where that product is at most
//! `i32::MAX` ([`PackedWeights::sums_fit_i32`]) 32-bit accumulators hold
//! the *same* integers as 64-bit ones, not merely congruent ones, and the
//! engine uses them: twice the lanes per vector.  3-bit weights at `T = 4`
//! reach 19 bits on VGG-11.
//!
//! `abs_max` is the largest `|w|` of the layer.  Within `G` consecutive
//! input channels an output lane receives at most `G × Kr × Kc`
//! contributions, each at most `level_mask(T) × abs_max`, so with
//! `G = ⌊32767 / (level_mask(T) × Kr × Kc × abs_max)⌋`
//! ([`PackedWeights::i16_group`]) no partial sum of such a group leaves
//! `i16`, again in any order, band or chunk: the engine adds a
//! group up in 16-bit lanes — twice the lanes again, half the accumulator
//! bytes — and widen-adds it into the 32-bit row at the group boundary,
//! which therefore holds the same integers as before.  3-bit weights at
//! `T = 4` give `G = 60` channels under a 3×3 kernel and 546 input neurons
//! in a linear layer.

use crate::{ModelError, Result};
use serde::{Deserialize, Serialize};
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

/// Packed codes in the element they are stored in: a whole layer
/// ([`PackedWeights::codes`]), one channel or one row of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codes<'a> {
    /// Every code of the layer lies in `-128..=127`.
    I8(&'a [i8]),
    /// Some code needs more than 8 bits.
    I16(&'a [i16]),
}

impl<'a> Codes<'a> {
    fn slice(self, range: std::ops::Range<usize>) -> Self {
        match self {
            Codes::I8(codes) => Codes::I8(&codes[range]),
            Codes::I16(codes) => Codes::I16(&codes[range]),
        }
    }
}

/// The one stored copy of a layer's codes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Stored {
    I8(Vec<i8>),
    I16(Vec<i16>),
}

/// An element the pack can narrow codes to.
trait Element: Copy + Default + Into<i16> {
    /// The low bits of `code`.
    fn truncate(code: i64) -> Self;
}

impl Element for i8 {
    fn truncate(code: i64) -> Self {
        code as i8
    }
}

impl Element for i16 {
    fn truncate(code: i64) -> Self {
        code as i16
    }
}

/// Transposes the `[c_out, cols]` matrix `src` into `[cols, lanes]` with
/// every run of `kc` columns (one kernel row) reversed, narrowing each code
/// to `E`, block by block, and sums each output channel's magnitudes on
/// the way: the rows, the largest `Σ|w|` of an output channel and the
/// largest `|w|`.  `None` when a code does not fit `E`.
fn narrow<E: Element, T: Copy + Into<i64>>(
    src: &[T],
    c_out: usize,
    cols: usize,
    kc: usize,
    lanes: usize,
) -> Option<(Vec<E>, u64, u16)> {
    let mut data = vec![E::default(); cols * lanes];
    let mut out_of_range = false;
    let mut abs_sum_max = 0u64;
    let mut abs_max = 0u16;
    for r0 in (0..c_out).step_by(BLOCK) {
        let r1 = (r0 + BLOCK).min(c_out);
        let rows = &src[r0 * cols..r1 * cols];
        let mut abs_sums = [0u64; BLOCK];
        for c0 in (0..cols).step_by(BLOCK) {
            // At most `BLOCK` magnitudes of at most 2^15 each per lane.
            let mut block_sums = [0u32; BLOCK];
            // The kernel column of `c`, stepped along with it: one division
            // per block, none per column in this innermost column loop.
            let mut kx = c0 % kc;
            for c in c0..(c0 + BLOCK).min(cols) {
                let to = c - kx + (kc - 1 - kx);
                kx = if kx + 1 == kc { 0 } else { kx + 1 };
                let dst = &mut data[to * lanes + r0..to * lanes + r1];
                for (d, row) in dst.iter_mut().zip(rows.chunks_exact(cols)) {
                    let code = row[c].into();
                    *d = E::truncate(code);
                    out_of_range |= i64::from((*d).into()) != code;
                }
                // Its own loop over the row just written: contiguous,
                // so it vectorises; fused into the strided narrowing
                // loop above it nearly doubled the transpose.
                for (sum, d) in block_sums.iter_mut().zip(dst.iter()) {
                    let magnitude = (*d).into().unsigned_abs();
                    *sum += u32::from(magnitude);
                    abs_max = abs_max.max(magnitude);
                }
            }
            for (total, sum) in abs_sums.iter_mut().zip(block_sums) {
                *total += u64::from(sum);
            }
        }
        if out_of_range {
            return None;
        }
        abs_sum_max = abs_sums.into_iter().fold(abs_sum_max, u64::max);
    }
    Some((data, abs_sum_max, abs_max))
}

/// One layer's weight codes in channel-last order (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedWeights {
    c_in: usize,
    kernel_rows: usize,
    kernel_cols: usize,
    c_out: usize,
    lanes: usize,
    /// `[c_in, kernel_rows, kernel_cols reversed, lanes]`, lanes `c_out..`
    /// zero.
    data: Stored,
    /// Largest `Σ|w|` of one output channel over all its rows (see the
    /// module docs).
    abs_sum_max: u64,
    /// Largest `|w|` of the layer.
    abs_max: u16,
}

impl PackedWeights {
    /// Packs `[O, C, Kr, Kc]` convolution kernel codes of any integer
    /// element (`i32` from the quantizer, `i64` in tests).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParameterMismatch`] when the tensor is not
    /// rank 4 or a code does not fit `i16`.
    pub fn from_conv<T: Copy + Into<i64>>(codes: &Tensor<T>) -> Result<Self> {
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
    pub fn from_linear<T: Copy + Into<i64>>(codes: &Tensor<T>) -> Result<Self> {
        match *codes.shape().dims() {
            [c_out, n] => Self::pack(codes.as_slice(), c_out, n, 1, 1),
            ref dims => Err(ModelError::ParameterMismatch {
                context: format!("linear weights must be [O, N], got {dims:?}"),
            }),
        }
    }

    /// Packs the `[c_out, c_in * kr * kc]` matrix `src` straight to `i8`
    /// rows — one pass writing one byte per code — and only where a code
    /// misses that element packs again to `i16`.
    fn pack<T: Copy + Into<i64>>(
        src: &[T],
        c_out: usize,
        c_in: usize,
        kr: usize,
        kc: usize,
    ) -> Result<Self> {
        let cols = c_in * kr * kc;
        let lanes = c_out.next_multiple_of(LANE_ALIGN);
        let packed = narrow(src, c_out, cols, kc, lanes)
            .map(|(codes, sum, max)| (Stored::I8(codes), sum, max))
            .or_else(|| {
                narrow(src, c_out, cols, kc, lanes)
                    .map(|(codes, sum, max)| (Stored::I16(codes), sum, max))
            });
        let Some((data, abs_sum_max, abs_max)) = packed else {
            let code = src
                .iter()
                .map(|&code| code.into())
                .find(|&code| i16::try_from(code).is_err())
                .expect("the narrowing pass saw a code outside i16");
            return Err(ModelError::ParameterMismatch {
                context: format!("weight code {code} does not fit the packed 16-bit element"),
            });
        };
        Ok(PackedWeights {
            c_in,
            kernel_rows: kr,
            kernel_cols: kc,
            c_out,
            lanes,
            data,
            abs_sum_max,
            abs_max,
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

    /// How many consecutive input channels (input neurons of a linear
    /// layer) may contribute to one 16-bit partial sum under spike trains
    /// of `time_steps`: the largest `G` with
    /// `G × level_mask(time_steps) × Kr × Kc × abs_max <= i16::MAX` (see
    /// the module docs).  Zero when a single channel can already leave
    /// `i16`; unbounded (`usize::MAX`) when nothing can be added at all.
    pub fn i16_group(&self, time_steps: usize) -> usize {
        let level_max = bitplane::level_mask(time_steps).unsigned_abs();
        let per_channel = u128::from(level_max)
            * (self.kernel_rows * self.kernel_cols) as u128
            * u128::from(self.abs_max);
        match per_channel {
            0 => usize::MAX,
            _ => (i16::MAX as u128 / per_channel) as usize,
        }
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

    /// Every code, `[c_in, kernel_rows, kernel_cols reversed, lanes]`, in
    /// the stored element: channel `ic` is the `kernel_rows * kernel_cols *
    /// lanes` codes from `ic` times that, and in it tap `(ky, kx)` starts
    /// at `(ky * kernel_cols + kernel_cols - 1 - kx) * lanes` (see the
    /// module docs).
    pub fn codes(&self) -> Codes<'_> {
        match &self.data {
            Stored::I8(codes) => Codes::I8(codes),
            Stored::I16(codes) => Codes::I16(codes),
        }
    }

    /// The weights of tap `(ky, kx)` of input channel `ic` for every
    /// output channel: [`Self::lanes`] codes, zero beyond `c_out`.  `kx` is
    /// the logical kernel column, whatever the stored order.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn row(&self, ic: usize, ky: usize, kx: usize) -> Codes<'_> {
        assert!(
            ic < self.c_in && ky < self.kernel_rows && kx < self.kernel_cols,
            "packed weight row ({ic}, {ky}, {kx}) out of range"
        );
        let stored = ky * self.kernel_cols + self.kernel_cols - 1 - kx;
        let start = (ic * self.kernel_rows * self.kernel_cols + stored) * self.lanes;
        self.codes().slice(start..start + self.lanes)
    }

    /// Every weight row of input channel `ic`, `[kernel_rows, kernel_cols
    /// reversed, lanes]`: tap `(ky, kx)` starts at
    /// `(ky * kernel_cols + kernel_cols - 1 - kx) * lanes`.
    ///
    /// # Panics
    ///
    /// Panics when `ic` is out of range.
    pub fn channel(&self, ic: usize) -> Codes<'_> {
        let len = self.kernel_rows * self.kernel_cols * self.lanes;
        self.codes().slice(ic * len..(ic + 1) * len)
    }

    /// The codes of output channels `outputs` in the ANN's order, widened:
    /// `[outputs.len(), c_in, kernel_rows, kernel_cols]` with `kx` logical —
    /// those channels' `[C, Kr, Kc]` kernels (`[N]` weight rows) as the
    /// layer was packed from them.  The gold model reads a layer back this
    /// way, a block of output channels at a time, so the whole layer is
    /// never held as `i64`.
    ///
    /// # Panics
    ///
    /// Panics when `outputs` reaches past [`Self::c_out`].
    pub fn output_channels(&self, outputs: std::ops::Range<usize>) -> Vec<i64> {
        assert!(
            outputs.start <= outputs.end && outputs.end <= self.c_out,
            "output channels {outputs:?} out of range"
        );
        fn gather<E: Copy + Into<i64>>(
            codes: &[E],
            outputs: std::ops::Range<usize>,
            lanes: usize,
            kc: usize,
        ) -> Vec<i64> {
            let cols = codes.len() / lanes;
            let mut out = vec![0i64; outputs.len() * cols];
            // The transpose of `narrow`, `BLOCK` columns at a time: the
            // block's stored rows stay in cache while every output
            // channel's run of columns is written contiguously.
            let mut stored = [0usize; BLOCK];
            for c0 in (0..cols).step_by(BLOCK) {
                let width = BLOCK.min(cols - c0);
                let mut kx = c0 % kc;
                for (c, row) in (c0..c0 + width).zip(&mut stored) {
                    *row = (c - kx + kc - 1 - kx) * lanes;
                    kx = if kx + 1 == kc { 0 } else { kx + 1 };
                }
                for (b, o) in outputs.clone().enumerate() {
                    let dst = &mut out[b * cols + c0..b * cols + c0 + width];
                    for (d, &row) in dst.iter_mut().zip(&stored) {
                        *d = codes[row + o].into();
                    }
                }
            }
            out
        }
        let (lanes, kc) = (self.lanes, self.kernel_cols);
        match &self.data {
            Stored::I8(codes) => gather(codes, outputs, lanes, kc),
            Stored::I16(codes) => gather(codes, outputs, lanes, kc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row's codes, whichever element they are stored in.
    fn widened(row: Codes<'_>) -> Vec<i64> {
        match row {
            Codes::I8(codes) => codes.iter().map(|&w| i64::from(w)).collect(),
            Codes::I16(codes) => codes.iter().map(|&w| i64::from(w)).collect(),
        }
    }

    #[test]
    fn conv_rows_hold_every_output_channel_of_one_tap() {
        // Sizes that cross the 32-wide transpose blocks on both axes, in
        // both stored elements.
        let (o, c, kr, kc) = (37usize, 5usize, 3usize, 3usize);
        for (modulus, offset) in [(4001usize, 2000i64), (256, 128)] {
            let code = |oc: usize, ic: usize, ky: usize, kx: usize| {
                ((oc * 131 + ic * 31 + ky * 7 + kx) % modulus) as i64 - offset
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
            assert_eq!(matches!(packed.codes(), Codes::I8(_)), modulus == 256);
            assert_eq!(
                (packed.c_in(), packed.kernel_rows(), packed.kernel_cols()),
                (c, kr, kc)
            );
            assert_eq!((packed.c_out(), packed.lanes()), (37, 40));
            for ic in 0..c {
                for ky in 0..kr {
                    for kx in 0..kc {
                        let row = widened(packed.row(ic, ky, kx));
                        assert_eq!(row.len(), 40);
                        for (oc, &w) in row.iter().enumerate() {
                            let expected = if oc < o { code(oc, ic, ky, kx) } else { 0 };
                            assert_eq!(w, expected, "({ic},{ky},{kx}) lane {oc}");
                        }
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
        assert_eq!(packed.row(0, 0, 0), Codes::I8(&[1, 3, 5, 0]));
        assert_eq!(packed.row(1, 0, 0), Codes::I8(&[2, 4, 6, 0]));
    }

    #[test]
    fn the_whole_i16_range_packs_and_one_past_it_is_rejected() {
        let edge = Tensor::from_vec(vec![1, 2], vec![i64::from(i16::MIN), 32767]).unwrap();
        assert_eq!(
            PackedWeights::from_linear(&edge).unwrap().row(1, 0, 0),
            Codes::I16(&[i16::MAX, 0, 0, 0])
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
    fn codes_are_stored_in_i8_exactly_up_to_its_edges() {
        // One code at the edge among small ones, late enough that whole
        // blocks of the transpose pass before it; -128 and 127 are the last
        // codes the 8-bit element holds, -129 and 128 the first it misses.
        let (o, n) = (70usize, 45usize);
        for (edge, bytes) in [(-128i64, true), (127, true), (-129, false), (128, false)] {
            let mut values: Vec<i64> = (0..o * n).map(|i| (i % 7) as i64 - 3).collect();
            values[(o - 1) * n + n / 2] = edge;
            let packed =
                PackedWeights::from_linear(&Tensor::from_vec(vec![o, n], values.clone()).unwrap())
                    .unwrap();
            assert_eq!(matches!(packed.codes(), Codes::I8(_)), bytes, "edge {edge}");
            assert_eq!(packed.abs_max, edge.unsigned_abs() as u16, "edge {edge}");
            // Nothing is lost either way.
            for ni in 0..n {
                let row = widened(packed.row(ni, 0, 0));
                for oc in 0..o {
                    assert_eq!(row[oc], values[oc * n + ni], "edge {edge} ({oc}, {ni})");
                }
                assert!(row[o..].iter().all(|&w| w == 0));
            }
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
    fn abs_max_is_the_largest_magnitude_of_the_layer() {
        // Sizes crossing the transpose blocks with padded lanes (37 -> 40,
        // whose zeros must not count); the largest magnitude sits in the
        // last block, is negative, and in the third case is `i16::MIN`,
        // whose magnitude 32768 no `i16` holds.
        let (o, cols) = (37usize, 70usize);
        for (largest, offset) in [(-100i64, 40i64), (-3000, 1000), (i64::from(i16::MIN), 1000)] {
            let mut values: Vec<i64> = (0..o * cols)
                .map(|i| (i as i64 * 37) % (2 * offset) - offset)
                .collect();
            values[(o - 1) * cols + cols - 2] = largest;
            let naive = values.iter().map(|v| v.unsigned_abs()).max().unwrap();
            assert_eq!(naive, largest.unsigned_abs());
            let packed =
                PackedWeights::from_linear(&Tensor::from_vec(vec![o, cols], values).unwrap())
                    .unwrap();
            assert_eq!(u64::from(packed.abs_max), naive);
        }
    }

    #[test]
    fn i16_group_is_the_floor_of_the_budget_over_one_channel() {
        // The ruler's operating point: 3-bit codes at T = 4.
        let conv3 = PackedWeights::from_conv(&Tensor::filled(vec![2, 512, 3, 3], -4i64)).unwrap();
        assert_eq!(conv3.i16_group(4), 60); // 32767 / (15 x 9 x 4)
        let conv5 = PackedWeights::from_conv(&Tensor::filled(vec![2, 6, 5, 5], 4i64)).unwrap();
        assert_eq!(conv5.i16_group(4), 21); // 32767 / (15 x 25 x 4)
        let linear = PackedWeights::from_linear(&Tensor::filled(vec![2, 9], -4i64)).unwrap();
        assert_eq!(linear.i16_group(4), 546); // 32767 / (15 x 4)

        // Exactly at the budget, and one past it: 32767 = 7 x 31 x 151.
        let exact = PackedWeights::from_linear(&Tensor::filled(vec![1, 3], 31i64)).unwrap();
        assert_eq!(exact.i16_group(3), 151);
        let one_more = PackedWeights::from_linear(&Tensor::filled(vec![1, 3], 32i64)).unwrap();
        assert_eq!(one_more.i16_group(3), 146); // floor(32767 / 224), not 147
                                                // A power of two a channel: 512 of them would sum to 32768.
        let sixty_four = PackedWeights::from_linear(&Tensor::filled(vec![1, 3], -64i64)).unwrap();
        assert_eq!(sixty_four.i16_group(1), 511);
        let whole = PackedWeights::from_linear(&Tensor::filled(vec![1, 3], 127i64)).unwrap();
        assert_eq!(whole.i16_group(8), 1); // 255 x 127 = 32385
        assert_eq!(whole.i16_group(9), 0); // 511 x 127 leaves i16 at once
        assert_eq!(whole.i16_group(63), 0);

        // Nothing to add: no division, no bound.
        let zeros = PackedWeights::from_conv(&Tensor::filled(vec![3, 2, 3, 3], 0i64)).unwrap();
        assert_eq!(zeros.abs_max, 0);
        assert_eq!(zeros.i16_group(4), usize::MAX);
        assert_eq!(whole.i16_group(0), usize::MAX);
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
        // A non-square kernel whose rows cross the 32-wide transpose blocks
        // (3 x 5 x 7 = 105 columns), so the reversal runs mid-block too.
        let (o, c, kr, kc) = (6usize, 3usize, 5usize, 7usize);
        let code = |oc: usize, ic: usize, ky: usize, kx: usize| {
            (((oc * c + ic) * kr + ky) * kc + kx) as i64 % 251 - 125
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
        let lanes = packed.lanes();
        let all = widened(packed.codes());
        for ic in 0..c {
            let channel = widened(packed.channel(ic));
            assert_eq!(
                channel,
                all[ic * kr * kc * lanes..(ic + 1) * kr * kc * lanes]
            );
            for ky in 0..kr {
                for kx in 0..kc {
                    // Stored order: kernel row `ky`, column `kc - 1 - kx`.
                    let at = (ky * kc + kc - 1 - kx) * lanes;
                    let stored = &channel[at..at + lanes];
                    assert_eq!(stored, widened(packed.row(ic, ky, kx)), "({ic},{ky},{kx})");
                    for (oc, &w) in stored.iter().enumerate() {
                        let expected = if oc < o { code(oc, ic, ky, kx) } else { 0 };
                        assert_eq!(w, expected, "({ic},{ky},{kx}) lane {oc}");
                    }
                }
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
