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
//! linear units).  The levels themselves come from one streaming pass:
//! each input row is folded into its output row (a running sum, later
//! divided with truncation, or a running maximum) while its spikes are
//! counted, with no per-window buffer.  The functional
//! `snn_tensor::ops::{avg,max}_pool2d` are the oracle the tests pin this
//! pass to.

use crate::config::ArrayGeometry;
use crate::memory::RowBand;
use crate::units::UnitStats;
use crate::{AccelError, Result};
use snn_model::layer::PoolKind;
use snn_tensor::{bitplane, ops, Tensor};

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
    /// that the radix spike trains encode.
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
        let dims = input_levels.shape().dims();
        if dims.len() != 3 {
            return Err(AccelError::UnsupportedLayer {
                layer: 0,
                context: "pooling unit expects a [C, H, W] input".to_string(),
            });
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let (h_out, w_out) = ops::pool_output_dims((h, w), window).map_err(AccelError::Tensor)?;

        let mask = bitplane::level_mask(time_steps);
        let mut out = vec![0i64; c * h_out * w_out];
        let mut adder_ops = 0u64;
        // `pool_output_dims` guarantees `1 <= window <= h, w`, so no chunk
        // size in `pool_plane` is zero.
        for (plane, out_plane) in input_levels
            .as_slice()
            .chunks_exact(h * w)
            .zip(out.chunks_exact_mut(h_out * w_out))
        {
            // The 2x2 window of LeNet-5 and VGG-11 gets its own inlined
            // copy of the pass, in which the window and the divisor are
            // constants.
            adder_ops += if window == 2 {
                pool_plane(plane, out_plane, kind, 2, w, mask)
            } else {
                pool_plane(plane, out_plane, kind, window, w, mask)
            };
        }
        let levels = Tensor::from_vec(vec![c, h_out, w_out], out).map_err(AccelError::Tensor)?;

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
        stats.adder_ops = adder_ops;

        Ok(PoolResult { levels, stats })
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

/// Pools one `[H, W]` input plane into its `[H / window, W / window]`
/// output plane in a single pass over the input rows, and returns the
/// spikes (`level & mask` set bits) of every input row, read or not.
#[inline(always)]
fn pool_plane(
    plane: &[i64],
    out_plane: &mut [i64],
    kind: PoolKind,
    window: usize,
    width: usize,
    mask: i64,
) -> u64 {
    let spikes = |row: &[i64]| -> u64 { row.iter().map(|&v| (v & mask).count_ones() as u64).sum() };
    let mut adder_ops = 0;
    let mut rows = plane.chunks_exact(width);
    for out_row in out_plane.chunks_exact_mut(width / window) {
        for ky in 0..window {
            let row = rows
                .next()
                .expect("H / window output rows read at most H rows");
            adder_ops += spikes(row);
            let windows = row.chunks_exact(window).zip(out_row.iter_mut());
            match (kind, ky) {
                (PoolKind::Average, 0) => windows.for_each(|(x, o)| *o = x.iter().sum()),
                (PoolKind::Average, _) => windows.for_each(|(x, o)| *o += x.iter().sum::<i64>()),
                (PoolKind::Max, 0) => windows.for_each(|(x, o)| *o = window_max(x)),
                (PoolKind::Max, _) => windows.for_each(|(x, o)| *o = (*o).max(window_max(x))),
            }
        }
        if kind == PoolKind::Average {
            // Truncates toward zero, like the hardware's shift.
            let area = (window * window) as i64;
            out_row.iter_mut().for_each(|o| *o /= area);
        }
    }
    // Rows a non-divisible height leaves unread still stream through the
    // unit.
    adder_ops + rows.map(spikes).sum::<u64>()
}

/// The largest level of one window row.
fn window_max(row: &[i64]) -> i64 {
    row.iter().fold(i64::MIN, |m, &v| m.max(v))
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
