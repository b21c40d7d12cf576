//! The pooling unit.
//!
//! Pooling units work on the same two-dimensional, row-based data as the
//! convolution units and reuse the same structure (Section III-B), but they
//! are much smaller: no kernel values need to be supplied to the adders and
//! no output logic is needed because pooling does not accumulate over input
//! channels.  Average pooling is adder-based, with the division by the
//! window size folded into the subsequent requantization (a right shift for
//! power-of-two windows); max pooling replaces the adders with comparators.
//!
//! The unit's counters are analytical: `cycles`, `activation_reads` and
//! `output_writes` follow from the closed-form schedule, and `adder_ops`
//! is the popcount of the streamed levels masked to the `T` planes the
//! schedule streams (`level & level_mask(T)`, as in the convolution and
//! linear units) — every input level, read by a window or not, one
//! [`snn_tensor::simd::count_spikes`] over the map.  The levels come from
//! one pass over the channel-last map the executor holds (`[H, W, C]`,
//! bytes for trains of up to 8 steps): an output pixel's channels are the
//! maximum, or the sum (in `u32` for bytes) divided with truncation, of
//! its window pixels' channel vectors, whole vectors at a time.  The
//! frozen `[C, H, W]` entries rearrange their input channel-last, pool as
//! `i64`, and rearrange the result back.  The functional
//! `snn_tensor::ops::{avg,max}_pool2d` are the oracle the tests pin this
//! pass to.

use crate::config::ArrayGeometry;
use crate::memory::RowBand;
use crate::units::{channel_first, channel_last, map_dims, Activation, Map, UnitStats};
use crate::{AccelError, Result};
use snn_model::layer::PoolKind;
use snn_tensor::{bitplane, ops, simd, Tensor};

/// Output of a pooling-unit layer execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolResult {
    /// Pooled activation levels `[C, H_out, W_out]`.
    pub levels: Tensor<i64>,
    /// Cycle and operation counters.
    pub stats: UnitStats,
}

/// The pooling unit: a streaming pass for the levels, the closed-form
/// schedule for the counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolingUnit {
    geometry: ArrayGeometry,
}

impl PoolingUnit {
    /// Creates a pooling unit with the given adder/comparator array
    /// geometry.
    pub fn new(geometry: ArrayGeometry) -> Self {
        PoolingUnit { geometry }
    }

    /// The array geometry.
    pub fn geometry(&self) -> ArrayGeometry {
        self.geometry
    }

    /// Number of column tiles needed for an output row of `width` values.
    pub fn column_tiles(&self, width: usize) -> usize {
        width.div_ceil(self.geometry.columns)
    }

    /// Executes one pooling layer.
    ///
    /// Average pooling sums each window and divides by the window area with
    /// truncation (a right shift in hardware for power-of-two windows); max
    /// pooling takes the maximum level.  Both operate on the integer levels
    /// that the radix spike trains encode.  The `[C, H, W]` levels are
    /// rearranged channel-last, pooled as `i64` and rearranged back.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnsupportedLayer`] for non-3-D inputs or a
    /// window that does not fit.
    pub fn run_layer(
        &self,
        input_levels: &Tensor<i64>,
        kind: PoolKind,
        window: usize,
        time_steps: usize,
    ) -> Result<PoolResult> {
        let [c, h, w] = map_dims(input_levels, "pooling unit expects a [C, H, W] input")?;
        let mut levels = Vec::new();
        channel_last(input_levels.as_slice(), c, h, w, &mut levels, |level| level);
        let input = Map {
            levels: &levels,
            h,
            w,
            c,
        };
        let mut pooled = Vec::new();
        let (stats, [h_out, w_out]) = self.run(input, kind, window, time_steps, &mut pooled)?;
        channel_first(&pooled, h_out * w_out, c, &mut levels, |level| level);
        let levels = Tensor::from_vec(vec![c, h_out, w_out], levels).map_err(AccelError::Tensor)?;
        Ok(PoolResult { levels, stats })
    }

    /// Pools the channel-last map `input` into `out` (`[H_out, W_out, C]`)
    /// and returns the counters and the output rows and columns.
    pub(crate) fn run<L: Activation>(
        &self,
        input: Map<'_, L>,
        kind: PoolKind,
        window: usize,
        time_steps: usize,
        out: &mut Vec<L>,
    ) -> Result<(UnitStats, [usize; 2])> {
        let Map { h, w, c, .. } = input;
        let (h_out, w_out) = ops::pool_output_dims((h, w), window).map_err(AccelError::Tensor)?;
        out.clear();
        out.resize(h_out * w_out * c, L::default());
        // The 2x2 window of LeNet-5 and VGG-11 gets its own inlined copy of
        // the pass, in which the window and the divisor are constants.
        if window == 2 {
            pool_map(input, out, kind, 2);
        } else {
            pool_map(input, out, kind, window);
        }

        // Operation counting: the unit walks the input row-based, one binary
        // plane per time step, `window` input rows per output row.
        let mut stats = UnitStats::new();
        stats.cycles = self.layer_cycles(c, h_out, w_out, window, time_steps);
        stats.activation_reads =
            (time_steps * c * h_out * window * self.column_tiles(w_out)) as u64;
        stats.output_writes = (c * h_out * w_out) as u64;
        // Adder/comparator activations are gated by spikes: every spike of
        // the `T` streamed planes, including those of trailing rows and
        // columns no window reads.
        stats.adder_ops = simd::count_spikes(input.levels, bitplane::level_mask(time_steps));
        Ok((stats, [h_out, w_out]))
    }

    /// Executes one **row-band tile** of a pooling layer.
    ///
    /// Pooling is non-overlapping and its schedule has no pipeline-fill
    /// term, so a band is simply the layer restricted to the band's rows:
    /// `band_levels` holds input rows `band.in_lo..band.in_hi` (which must
    /// start at `band.out_lo * window`; the final band also carries any
    /// trailing input rows a non-divisible height leaves unread, so the
    /// streamed spike count — `adder_ops` — partitions exactly).  Counters
    /// summed over a partition of the output rows reproduce
    /// [`PoolingUnit::run_layer`]'s counters bit-exactly.  The executor
    /// runs whole layers; this entry replays one tile of the compile-time
    /// plan ([`crate::memory::plan_network_tiles`]).
    ///
    /// # Errors
    ///
    /// As [`PoolingUnit::run_layer`], plus [`AccelError::UnsupportedLayer`]
    /// when the band tensor does not match the band's row range or the
    /// band is not aligned to the pooling window.
    pub fn run_layer_band(
        &self,
        band_levels: &Tensor<i64>,
        kind: PoolKind,
        window: usize,
        time_steps: usize,
        band: &RowBand,
    ) -> Result<PoolResult> {
        let dims = band_levels.shape().dims();
        if dims.len() != 3 || dims[1] != band.in_rows() {
            return Err(AccelError::UnsupportedLayer {
                layer: 0,
                context: format!(
                    "pool band tensor {dims:?} does not span input rows {}..{}",
                    band.in_lo, band.in_hi
                ),
            });
        }
        if band.in_lo != band.out_lo * window {
            return Err(AccelError::UnsupportedLayer {
                layer: 0,
                context: format!(
                    "pool band input starts at row {} but output row {} pools from row {}",
                    band.in_lo,
                    band.out_lo,
                    band.out_lo * window
                ),
            });
        }
        self.run_layer(band_levels, kind, window, time_steps)
    }

    /// Closed-form cycle count of a pooling layer on this unit.
    pub fn layer_cycles(
        &self,
        channels: usize,
        h_out: usize,
        w_out: usize,
        window: usize,
        time_steps: usize,
    ) -> u64 {
        let tiles = self.column_tiles(w_out) as u64;
        // Per output row: `window` input rows are loaded and each is shifted
        // `window` times, exactly like a kernel row pass without weights.
        let per_row = (window as u64) * (window as u64 + 1);
        (time_steps as u64) * (channels as u64) * (h_out as u64) * tiles * per_row
    }
}

/// Pools the channel-last map `input` into `out` (`[H / window, W /
/// window, C]`): each output pixel's channels side by side, each the
/// maximum — or the sum divided with truncation, toward zero like the
/// hardware's shift — of its window's levels of that channel.  A window
/// pixel's channels are one contiguous vector, so both fold whole channel
/// vectors.  Trailing rows and columns no window covers are not read.
#[inline(always)]
fn pool_map<L: Activation>(input: Map<'_, L>, out: &mut [L], kind: PoolKind, window: usize) {
    let Map { w, c, .. } = input;
    if c == 0 {
        return;
    }
    let w_out = w / window;
    let area = L::area(window);
    for (at, pixel) in out.chunks_exact_mut(c).enumerate() {
        let (y, x) = (at / w_out * window, at % w_out * window);
        let tap = |ky: usize, kx: usize| input.pixel(y + ky, x + kx);
        match kind {
            PoolKind::Max => {
                pixel.copy_from_slice(tap(0, 0));
                for (ky, kx) in (0..window * window)
                    .map(|k| (k / window, k % window))
                    .skip(1)
                {
                    for (level, &other) in pixel.iter_mut().zip(tap(ky, kx)) {
                        *level = (*level).max(other);
                    }
                }
            }
            // The 2x2 window of LeNet-5 reads its four pixels side by side.
            PoolKind::Average if window == 2 => {
                let rows = tap(0, 0)
                    .iter()
                    .zip(tap(0, 1))
                    .zip(tap(1, 0).iter().zip(tap(1, 1)));
                for (level, ((&a, &b), (&c, &d))) in pixel.iter_mut().zip(rows) {
                    *level = L::narrow((a.widen() + b.widen() + c.widen() + d.widen()) / area);
                }
            }
            PoolKind::Average => {
                for (ch, level) in pixel.iter_mut().enumerate() {
                    let mut sum = L::Sum::default();
                    for (ky, kx) in (0..window * window).map(|k| (k / window, k % window)) {
                        sum = sum + tap(ky, kx)[ch].widen();
                    }
                    *level = L::narrow(sum / area);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> PoolingUnit {
        PoolingUnit::new(ArrayGeometry {
            columns: 14,
            rows: 2,
        })
    }

    #[test]
    fn average_pooling_matches_reference() {
        let input =
            Tensor::from_vec(vec![2, 4, 4], (0..32).map(|v| (v % 7) as i64).collect()).unwrap();
        let result = unit().run_layer(&input, PoolKind::Average, 2, 3).unwrap();
        let expected = ops::avg_pool2d(&input, 2).unwrap();
        assert_eq!(result.levels, expected);
    }

    #[test]
    fn max_pooling_matches_reference() {
        let input = Tensor::from_vec(
            vec![1, 4, 4],
            vec![0i64, 5, 1, 2, 7, 3, 0, 0, 1, 1, 6, 6, 2, 2, 4, 3],
        )
        .unwrap();
        let result = unit().run_layer(&input, PoolKind::Max, 2, 3).unwrap();
        assert_eq!(result.levels.as_slice(), &[7, 2, 2, 6]);
    }

    #[test]
    fn cycles_match_closed_form_and_scale_with_time_steps() {
        let input = Tensor::filled(vec![3, 8, 8], 5i64);
        let u = unit();
        let r3 = u.run_layer(&input, PoolKind::Average, 2, 3).unwrap();
        let r6 = u.run_layer(&input, PoolKind::Average, 2, 6).unwrap();
        assert_eq!(r3.stats.cycles, u.layer_cycles(3, 4, 4, 2, 3));
        assert_eq!(r6.stats.cycles, 2 * r3.stats.cycles);
    }

    #[test]
    fn out_of_range_levels_are_truncated_like_the_schedule() {
        // A level outside 0..=2^T - 1 only puts its T low bits on the
        // streamed planes, so only those gate adders: at T = 2, 9 streams
        // 0b01, -1 streams 0b11, 4 streams nothing and 3 streams 0b11: five
        // spikes in all.  The levels themselves are pooled unmasked, as the
        // functional model pools them.
        let input = Tensor::from_vec(vec![1, 2, 2], vec![9i64, -1, 4, 3]).unwrap();
        for (kind, expected) in [
            (PoolKind::Average, ops::avg_pool2d(&input, 2).unwrap()),
            (PoolKind::Max, ops::max_pool2d(&input, 2).unwrap()),
        ] {
            let result = unit().run_layer(&input, kind, 2, 2).unwrap();
            assert_eq!(result.levels, expected, "{kind:?}");
            assert_eq!(result.stats.adder_ops, 5, "{kind:?}");
        }
    }

    #[test]
    fn silent_input_uses_no_adders() {
        let input = Tensor::filled(vec![1, 4, 4], 0i64);
        let result = unit().run_layer(&input, PoolKind::Average, 2, 4).unwrap();
        assert_eq!(result.stats.adder_ops, 0);
    }

    #[test]
    fn pooling_unit_is_smaller_than_a_conv_unit_pass() {
        // No kernel reads at all — that is the area/power saving the paper
        // attributes to the pooling unit.
        let input = Tensor::filled(vec![1, 4, 4], 3i64);
        let result = unit().run_layer(&input, PoolKind::Average, 2, 3).unwrap();
        assert_eq!(result.stats.kernel_reads, 0);
    }

    #[test]
    fn row_bands_sum_to_the_untiled_layer() {
        use crate::memory::RowBand;
        // 9 input rows with a 2x2 window: the last band carries the
        // trailing unread row so the streamed spike counts partition.
        let input = Tensor::from_vec(
            vec![3, 9, 8],
            (0..3 * 9 * 8).map(|v| ((v * 13) % 16) as i64).collect(),
        )
        .unwrap();
        let u = unit();
        for kind in [PoolKind::Average, PoolKind::Max] {
            let whole = u.run_layer(&input, kind, 2, 4).unwrap();
            let dims = whole.levels.shape().dims().to_vec();
            let (h_out, w_out) = (dims[1], dims[2]);
            let mut summed = UnitStats::default();
            let mut stitched = Tensor::filled(dims.clone(), 0i64);
            for lo in (0..h_out).step_by(3) {
                let hi = (lo + 3).min(h_out);
                let band = RowBand {
                    out_lo: lo,
                    out_hi: hi,
                    in_lo: lo * 2,
                    in_hi: if hi == h_out { 9 } else { hi * 2 },
                };
                let mut band_data = Vec::new();
                for c in 0..3 {
                    band_data.extend_from_slice(
                        &input.as_slice()[c * 9 * 8 + band.in_lo * 8..c * 9 * 8 + band.in_hi * 8],
                    );
                }
                let band_input = Tensor::from_vec(vec![3, band.in_rows(), 8], band_data).unwrap();
                let part = u.run_layer_band(&band_input, kind, 2, 4, &band).unwrap();
                summed += part.stats;
                for c in 0..3 {
                    let bh = hi - lo;
                    stitched.as_mut_slice()
                        [c * h_out * w_out + lo * w_out..c * h_out * w_out + hi * w_out]
                        .copy_from_slice(
                            &part.levels.as_slice()[c * bh * w_out..(c + 1) * bh * w_out],
                        );
                }
            }
            assert_eq!(stitched, whole.levels, "{kind:?}");
            assert_eq!(summed, whole.stats, "{kind:?}");
        }
    }

    #[test]
    fn channel_last_byte_pooling_matches_the_functional_operators() {
        // Byte levels up to 255, windows 1 to 3 over maps whose trailing
        // rows and columns no window reads: the levels equal
        // `ops::{avg,max}_pool2d` and `adder_ops` pops every input level.
        let mut state = 0x9e37_79b9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for (c, h, w) in [(1usize, 4usize, 4usize), (6, 7, 9), (64, 5, 4), (3, 8, 8)] {
            for t in [1usize, 4, 8] {
                let mask = bitplane::level_mask(t);
                let bytes: Vec<u8> = (0..c * h * w).map(|_| next() & mask as u8).collect();
                let chw: Vec<i64> = bytes.iter().map(|&b| i64::from(b)).collect();
                let mut hwc = Vec::new();
                channel_last(&chw, c, h, w, &mut hwc, |level| level as u8);
                let input = Tensor::from_vec(vec![c, h, w], chw.clone()).unwrap();
                let spikes: u64 = chw
                    .iter()
                    .map(|&l| u64::from((l & mask).count_ones()))
                    .sum();
                for window in 1..=3usize {
                    for kind in [PoolKind::Average, PoolKind::Max] {
                        let map = Map {
                            levels: &hwc,
                            h,
                            w,
                            c,
                        };
                        let mut out = Vec::new();
                        let (stats, [h_out, w_out]) =
                            unit().run(map, kind, window, t, &mut out).unwrap();
                        let expected = match kind {
                            PoolKind::Average => ops::avg_pool2d(&input, window),
                            PoolKind::Max => ops::max_pool2d(&input, window),
                        }
                        .unwrap();
                        let case = format!("{c}x{h}x{w} T={t} window={window} {kind:?}");
                        let mut pooled = Vec::new();
                        channel_first(&out, h_out * w_out, c, &mut pooled, i64::from);
                        assert_eq!(pooled, expected.as_slice(), "{case}");
                        assert_eq!(stats.adder_ops, spikes, "{case}");
                        let whole = unit().run_layer(&input, kind, window, t).unwrap();
                        assert_eq!(whole.stats, stats, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn misaligned_pool_band_is_rejected() {
        use crate::memory::RowBand;
        let input = Tensor::filled(vec![1, 4, 4], 1i64);
        let band = RowBand {
            out_lo: 1,
            out_hi: 2,
            in_lo: 1, // should be out_lo * window = 2
            in_hi: 5,
        };
        assert!(matches!(
            unit().run_layer_band(&input, PoolKind::Average, 2, 3, &band),
            Err(AccelError::UnsupportedLayer { .. })
        ));
    }

    #[test]
    fn rejects_window_larger_than_input() {
        let input = Tensor::filled(vec![1, 2, 2], 1i64);
        assert!(unit().run_layer(&input, PoolKind::Average, 3, 3).is_err());
    }

    #[test]
    fn rejects_non_3d_input() {
        let input = Tensor::filled(vec![4, 4], 1i64);
        assert!(matches!(
            unit().run_layer(&input, PoolKind::Max, 2, 3),
            Err(AccelError::UnsupportedLayer { .. })
        ));
    }
}
