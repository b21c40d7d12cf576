//! The linear (fully-connected) unit.
//!
//! Fully-connected layers are matrix multiplications with one distinct
//! weight per accumulation, so — unlike convolution — there is no weight
//! reuse to exploit.  The paper's linear unit therefore maximises memory
//! bandwidth utilisation: new weights are fetched on every clock cycle and
//! fed to a row of adders whose length equals the number of output channels
//! processed in parallel (`linear_lanes` in the configuration).  The unit
//! iterates over input neurons and time steps, gating each addition on the
//! input spike, and accumulates with the same radix left shift as the
//! convolution output logic.
//!
//! # Spike-major execution model
//!
//! Like [`crate::conv`], the engine executes that schedule with work
//! proportional to spikes and output channels innermost.  The spiking
//! neurons are gathered once from the `[N]` levels — bytes for trains of
//! up to 8 steps, `i64` beyond — 64 at a time as one spike mask
//! ([`snn_tensor::simd::spiking`]), and each spike adds
//! `masked_level × W[n, 0..O]` — one
//! row of the channel-last [`PackedWeights`], the layout a convolution
//! with a 1×1 kernel would have, one byte per code at the paper's
//! precisions — into the row of output accumulators: the host-side picture
//! of the paper's row of adders fed one weight word per cycle.  Every
//! spike reaches the same output lanes, so consecutive spikes go in blocks
//! of four (the tail of a group or of the list in a block of one to
//! three): one [`snn_tensor::simd::axpy_taps`] call per block adds the
//! members' products in registers and loads and stores each accumulator
//! lane once.  Only the rows of spiking neurons are ever read, so a
//! 24 %-dense input streams 24 % of the matrix — in spike order, which no
//! hardware prefetcher follows, so the loop hints the heads of the next
//! block's rows one block ahead ([`snn_tensor::simd::prefetch`]).
//! The result is bit-identical to the radix shift-and-add by the same
//! identity as the convolution engine, and its datapath is sized by the
//! same two proofs: an output neuron receives at most one contribution per
//! input neuron, each at most `level_mask(T) × |w|`, so where
//! [`PackedWeights::sums_fit_i32`]`(T)` holds no partial sum leaves `i32`
//! in any order or chunk and the accumulator row is 32-bit;
//! and any `G =` [`PackedWeights::i16_group`]`(T)` spikes — 546 for 3-bit
//! weights at `T = 4` — sum to at most `i16::MAX`, so they are added up in
//! a 16-bit row, which is widen-added into the 32-bit one after every
//! `G`-th spike; blocks are cut within a group, so none reaches past a
//! drain.  The one scatter loop (`scatter`, generic over
//! [`snn_tensor::simd::WeightLane`] and [`snn_tensor::simd::Accumulator`])
//! is instantiated per call from the stored element, `sums_fit_i32(T)` and
//! `G >= 1`; `G = 0`, 16-bit codes and long trains keep the plain 32- or
//! 64-bit row.  The row ends as the convolution's does: in the executor, the
//! level epilogue adds the bias and writes the `[O]` levels by the layer's
//! thresholds ([`snn_tensor::simd::drain_levels`]); a classifier and the
//! frozen `[N]` entries end in the raw `i64` sums.  The counters are
//! derived from the closed-form schedule (`cycles`, `activation_reads`,
//! `kernel_reads`) plus one plane popcount (`adder_ops`); property tests
//! check them against the counter-stepped
//! [`crate::reference::ReferenceLinearUnit`].

use crate::conv::Spike;
use crate::units::{
    unsupported, Ending, EngineScratch, Epilogue, KernelSource, Lane, LaneRows, UnitStats,
};
use crate::{AccelError, Result};
use snn_model::packed::{Codes, PackedWeights};
use snn_tensor::{bitplane, simd, Tensor};

/// Output of a linear-unit layer execution.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearResult {
    /// Raw integer accumulators `[O]` (bias included, before
    /// ReLU/requantization).
    pub accumulators: Tensor<i64>,
    /// Cycle and operation counters.
    pub stats: UnitStats,
}

/// What the unit reports for an input or weights of the wrong shape.
const LINEAR_SHAPES: &str = "linear unit expects a [N] input and [O, N] weights";

/// Spike-major model of the linear unit.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearUnit {
    lanes: usize,
}

/// How many spikes ahead the scatter loop asks for a weight row: one
/// block.  The rows of consecutive spiking neurons lie kilobytes apart in a
/// matrix far beyond any cache, in an order no hardware prefetcher
/// follows; a block of arithmetic is about one memory latency.
const PREFETCH_SPIKES_AHEAD: usize = simd::BLOCK;

/// How many bytes of that row piece are asked for: its first eight cache
/// lines.  Once a piece is being read the hardware streamer runs ahead of
/// the kernel by itself; hinting all 64 lines of a 2048-lane piece measured
/// *slower* than no hint at all (1.27 vs 1.12 ms on a 4096x4096 layer,
/// against 1.04 ms for the head alone).
const PREFETCH_HEAD_BYTES: usize = 512;

/// The one scatter loop: each block of up to [`simd::BLOCK`] consecutive
/// spikes adds its members' levels times their weight rows (of element
/// `W`) into the output lanes with one load-add-store of each lane, chunk
/// by chunk of `chunk` outputs, and the `[O]` sums end as `end` says
/// ([`Ending::finish`], one position of `O` lanes).  Blocks are cut from the
/// spike list at fixed strides — within a group, every [`simd::BLOCK`]
/// spikes, with a tail block of the rest.
///
/// The spikes scatter into a row of element `S`.  With `group: None` that
/// is the layer's sums themselves (`A` is then `S`, and unused).  With
/// `Some(g)` it holds the 16-bit partial sums of `g` spikes at a time —
/// `g` must be at most [`PackedWeights::i16_group`] — which are
/// widen-added into a row of element `A` after every `g`-th spike and
/// after the last.
fn scatter<W: simd::WeightLane, S: Lane, A: Lane, L: simd::Level>(
    codes: &[W],
    weights: &PackedWeights,
    group: Option<usize>,
    spikes: &[Spike],
    chunk: usize,
    rows: &mut LaneRows,
    end: Ending<'_, L>,
) {
    let (o, lanes) = (weights.c_out(), weights.lanes());
    let mut sums = rows.take::<S>(o);
    let mut wide = rows.take::<A>(group.map_or(0, |_| o));
    let head = PREFETCH_HEAD_BYTES / std::mem::size_of::<W>();
    for lo in (0..o).step_by(chunk) {
        let hi = (lo + chunk).min(o);
        let sums = &mut sums[lo..hi];
        let piece = |spike: &Spike| &codes[spike.at as usize * lanes + lo..][..hi - lo];
        let mut ahead = spikes.iter().skip(PREFETCH_SPIKES_AHEAD);
        for members in spikes.chunks(group.unwrap_or(usize::MAX)) {
            for block in members.chunks(simd::BLOCK) {
                for spike in ahead.by_ref().take(block.len()) {
                    let piece = piece(spike);
                    simd::prefetch(&piece[..piece.len().min(head)]);
                }
                match block.len() {
                    1 => scatter_block::<1, _, _>(sums, block, codes, lanes, lo),
                    2 => scatter_block::<2, _, _>(sums, block, codes, lanes, lo),
                    3 => scatter_block::<3, _, _>(sums, block, codes, lanes, lo),
                    _ => scatter_block::<4, _, _>(sums, block, codes, lanes, lo),
                }
            }
            if group.is_some() {
                simd::drain_partials(&mut wide[lo..hi], sums);
            }
        }
    }
    match group {
        Some(_) => end.finish(&wide, o, rows),
        None => end.finish(&sums, o, rows),
    }
    // `wide` first: where `A` is `S` it is the empty stand-in, and the row
    // worth keeping is `sums`.
    rows.give(wide);
    rows.give(sums);
}

/// One block of `N` spikes: every member's level times the piece of its
/// weight row from lane `lo` on into `sums`, the `N` products of a lane
/// added up before it is written back.
fn scatter_block<const N: usize, W: simd::WeightLane, S: Lane>(
    sums: &mut [S],
    block: &[Spike],
    codes: &[W],
    lanes: usize,
    lo: usize,
) {
    let width = sums.len();
    let pieces: [&[W]; N] =
        std::array::from_fn(|m| &codes[block[m].at as usize * lanes + lo..][..width]);
    let levels: [S; N] = std::array::from_fn(|m| S::from_level(block[m].level));
    simd::axpy_taps(sums, pieces, &[simd::Tap::default()], width, levels);
}

impl LinearUnit {
    /// Creates a linear unit with `lanes` parallel output channels.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "linear unit needs at least one output lane");
        LinearUnit { lanes }
    }

    /// As [`LinearUnit::new`]: the dense-gather threshold selected between
    /// two kernels the engine no longer has and is **ignored**.  Kept only
    /// because the frozen `benchmark/` package calls it; slated for
    /// deletion in the next benchmark PR.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn with_threshold(lanes: usize, _dense_gather_threshold: f64) -> Self {
        Self::new(lanes)
    }

    /// Number of parallel output channels.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Executes one fully-connected layer.
    ///
    /// * `input_levels` — `[N]` radix levels of the input activations.
    /// * `weight_codes` — a layer's packed weights, or raw `[O, N]` codes
    ///   packed for this one call (see [`KernelSource`]).
    /// * `bias_acc` — `[O]` biases pre-scaled to accumulator units.
    ///
    /// Runs [`LinearUnit::run_packed`] with a throw-away scratch.
    ///
    /// # Errors
    ///
    /// As [`LinearUnit::run_packed`], plus
    /// [`AccelError::UnsupportedLayer`] when a raw weight code does not fit
    /// the widest packed element, `i16`.
    pub fn run_layer<K: KernelSource + ?Sized>(
        &self,
        input_levels: &Tensor<i64>,
        weight_codes: &K,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
    ) -> Result<LinearResult> {
        self.run_packed(
            input_levels,
            &*weight_codes.packed(PackedWeights::from_linear)?,
            bias_acc,
            time_steps,
            &mut EngineScratch::new(),
        )
    }

    /// Executes one fully-connected layer.  `scratch` is working memory
    /// only: any [`EngineScratch`] gives the same result, a reused one
    /// saves the allocations.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnsupportedLayer`] when shapes do not match,
    /// `bias_acc` does not hold exactly one bias per output, or
    /// `time_steps` exceeds the 63 payload bits of an `i64` level.
    pub fn run_packed(
        &self,
        input_levels: &Tensor<i64>,
        weights: &PackedWeights,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        scratch: &mut EngineScratch,
    ) -> Result<LinearResult> {
        // One chunk covering every output is the untiled execution.
        let all = weights.c_out().max(1);
        self.run_raw(input_levels, weights, bias_acc, time_steps, all, scratch)
    }

    /// Executes one fully-connected layer in **lane-aligned output
    /// chunks** — the 1-D counterpart of the row-band tiling in
    /// [`crate::memory::plan_network_tiles`].  The whole input vector
    /// stays resident (every output needs every input) while only
    /// `chunk_outputs` output neurons are staged at a time — a chunk is
    /// the lane range `lo..hi` of every packed weight row, so nothing is
    /// copied — which is what bounds the 1-D activation buffer for
    /// VGG-class classifier layers.  The executor runs whole layers; this
    /// entry replays the plan's chunks.  `weight_codes` is a layer's
    /// packed weights or raw `[O, N]` codes packed for this one call (see
    /// [`KernelSource`]); the scratch is a throw-away one.
    ///
    /// `chunk_outputs` must be a multiple of the lane count (or cover all
    /// outputs at once): each chunk then occupies a whole number of lane
    /// groups, so the per-chunk cycle counts sum to exactly the untiled
    /// schedule of [`LinearUnit::run_packed`].  Accumulators and all other
    /// counters are bit-identical by linearity in the output neurons.
    ///
    /// # Errors
    ///
    /// As [`LinearUnit::run_packed`], plus
    /// [`AccelError::UnsupportedLayer`] for a zero or misaligned chunk, or
    /// when a raw weight code does not fit the widest packed element,
    /// `i16`.
    pub fn run_layer_chunked<K: KernelSource + ?Sized>(
        &self,
        input_levels: &Tensor<i64>,
        weight_codes: &K,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        chunk_outputs: usize,
    ) -> Result<LinearResult> {
        let weights = weight_codes.packed(PackedWeights::from_linear)?;
        if chunk_outputs == 0
            || (!chunk_outputs.is_multiple_of(self.lanes) && chunk_outputs < weights.c_out())
        {
            return Err(unsupported(format!(
                "output chunk of {chunk_outputs} is not a multiple of the {} lanes",
                self.lanes
            )));
        }
        self.run_raw(
            input_levels,
            &weights,
            bias_acc,
            time_steps,
            chunk_outputs,
            &mut EngineScratch::new(),
        )
    }

    /// The entries' path: the one execution path in its `i64`
    /// instantiation, ending in the raw `[O]` accumulators.
    fn run_raw(
        &self,
        input_levels: &Tensor<i64>,
        weights: &PackedWeights,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        chunk: usize,
        scratch: &mut EngineScratch,
    ) -> Result<LinearResult> {
        if input_levels.shape().rank() != 1 {
            return Err(unsupported(LINEAR_SHAPES.to_string()));
        }
        let mut sums = Vec::new();
        let stats = self.run_chunks(
            input_levels.as_slice(),
            weights,
            bias_acc,
            time_steps,
            chunk,
            scratch,
            Epilogue::Raw(&mut sums),
        )?;
        Ok(LinearResult {
            accumulators: Tensor::from_vec(vec![sums.len()], sums).map_err(AccelError::Tensor)?,
            stats,
        })
    }

    /// The one execution path: the output neurons of the `[N]` levels
    /// `input` in consecutive chunks of `chunk` (the last may be shorter),
    /// counters summed over the chunks, ending in `epilogue`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_chunks<L: simd::Level>(
        &self,
        input: &[L],
        weights: &PackedWeights,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        chunk: usize,
        scratch: &mut EngineScratch,
        epilogue: Epilogue<'_, L>,
    ) -> Result<UnitStats> {
        if (weights.kernel_rows(), weights.kernel_cols()) != (1, 1) {
            return Err(unsupported(LINEAR_SHAPES.to_string()));
        }
        let n = input.len();
        let o = weights.c_out();
        if weights.c_in() != n {
            return Err(unsupported(format!(
                "weight matrix expects {} inputs, activation buffer provides {n}",
                weights.c_in()
            )));
        }
        if bias_acc.len() != o {
            return Err(unsupported(format!(
                "linear unit needs one bias per output ({o}), got {}",
                bias_acc.len()
            )));
        }
        if time_steps > 63 {
            // Same bound as the convolution engine: an i64 level carries at
            // most 63 payload bits.
            return Err(unsupported(format!(
                "spike trains of {time_steps} steps exceed the 63-bit level payload"
            )));
        }

        // Gather the spiking neurons once, 64 levels to a spike mask,
        // folding the plane popcount — silent neurons contribute no bits —
        // into the walk.
        let mask = bitplane::level_mask(time_steps);
        let EngineScratch {
            spikes,
            rows,
            drain,
            ..
        } = scratch;
        let spikes = &mut spikes.arena;
        spikes.clear();
        let mut total_popcount = 0u64;
        for (word, levels) in input.chunks(bitplane::WORD_BITS).enumerate() {
            let mut members = simd::spiking(levels, mask);
            while members != 0 {
                let k = members.trailing_zeros() as usize;
                members &= members - 1;
                total_popcount += u64::from(levels[k].spikes(mask));
                // No block marks: `scatter` cuts blocks at fixed strides.
                let at = word * bitplane::WORD_BITS + k;
                spikes.push(Spike::new(at, 0, levels[k].into() & mask, 0));
            }
        }

        // Derived statistics: the schedule visits every (group, time
        // step, neuron) slot regardless of the data; only the adder
        // activity is data-dependent (every spike bit toggles one adder
        // per output in the group, i.e. `O x popcount` in total).
        let bias = bias_acc.as_slice();
        let slots = (time_steps * n) as u64;
        let mut stats = UnitStats::default();
        for lo in (0..o).step_by(chunk) {
            let hi = (lo + chunk).min(o);
            let outputs = (hi - lo) as u64;
            let groups = (hi - lo).div_ceil(self.lanes) as u64;
            stats += UnitStats {
                cycles: groups * slots,
                adder_ops: outputs * total_popcount,
                activation_reads: groups * slots,
                kernel_reads: outputs * slots,
                output_writes: outputs,
                ..UnitStats::default()
            };
        }

        // Compute, in the narrowest elements the packed weights prove exact
        // for this spike-train length: 8-bit codes in 16-bit groups under a
        // 32-bit row where all three hold, else the 32-bit or 64-bit row
        // alone.
        let narrow = weights.sums_fit_i32(time_steps);
        let group = weights.i16_group(time_steps);
        let e = Ending::new(weights, time_steps, bias, epilogue, drain);
        match (weights.codes(), narrow) {
            (Codes::I8(codes), true) if group >= 1 => {
                scatter::<_, i16, i32, L>(codes, weights, Some(group), spikes, chunk, rows, e)
            }
            (Codes::I8(codes), true) => {
                scatter::<_, i32, i32, L>(codes, weights, None, spikes, chunk, rows, e)
            }
            (Codes::I8(codes), false) => {
                scatter::<_, i64, i64, L>(codes, weights, None, spikes, chunk, rows, e)
            }
            (Codes::I16(codes), true) => {
                scatter::<_, i32, i32, L>(codes, weights, None, spikes, chunk, rows, e)
            }
            (Codes::I16(codes), false) => {
                scatter::<_, i64, i64, L>(codes, weights, None, spikes, chunk, rows, e)
            }
        }
        Ok(stats)
    }

    /// Closed-form cycle count of a fully-connected layer on this unit.
    pub fn layer_cycles(&self, inputs: usize, outputs: usize, time_steps: usize) -> u64 {
        (outputs.div_ceil(self.lanes) as u64) * (inputs as u64) * (time_steps as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceLinearUnit;
    use snn_tensor::ops;

    #[test]
    fn matches_reference_matrix_multiplication() {
        let input = Tensor::from_vec(vec![5], vec![7i64, 0, 3, 5, 1]).unwrap();
        let weight =
            Tensor::from_vec(vec![3, 5], (0..15).map(|v| ((v % 7) as i64) - 3).collect()).unwrap();
        let bias = Tensor::from_vec(vec![3], vec![10i64, -5, 0]).unwrap();
        let result = LinearUnit::new(2)
            .run_layer(&input, &weight, &bias, 3)
            .unwrap();
        let expected = ops::linear(&input, &weight, Some(&bias)).unwrap();
        assert_eq!(result.accumulators, expected);
    }

    #[test]
    fn lane_count_does_not_change_results() {
        let input = Tensor::from_vec(vec![4], vec![1i64, 2, 3, 4]).unwrap();
        let weight = Tensor::from_vec(vec![4, 4], (0..16).map(|v| v as i64 - 8).collect()).unwrap();
        let bias = Tensor::filled(vec![4], 0i64);
        let one_lane = LinearUnit::new(1)
            .run_layer(&input, &weight, &bias, 3)
            .unwrap();
        let many_lanes = LinearUnit::new(8)
            .run_layer(&input, &weight, &bias, 3)
            .unwrap();
        assert_eq!(one_lane.accumulators, many_lanes.accumulators);
        // More lanes means fewer cycles.
        assert!(many_lanes.stats.cycles < one_lane.stats.cycles);
    }

    #[test]
    fn cycles_match_closed_form() {
        let input = Tensor::filled(vec![20], 5i64);
        let weight = Tensor::filled(vec![7, 20], 1i64);
        let bias = Tensor::filled(vec![7], 0i64);
        let unit = LinearUnit::new(3);
        let result = unit.run_layer(&input, &weight, &bias, 4).unwrap();
        assert_eq!(result.stats.cycles, unit.layer_cycles(20, 7, 4));
        assert_eq!(result.stats.cycles, 3 * 20 * 4);
    }

    #[test]
    fn silent_input_performs_no_additions() {
        let input = Tensor::filled(vec![6], 0i64);
        let weight = Tensor::filled(vec![2, 6], 3i64);
        let bias = Tensor::filled(vec![2], 0i64);
        let result = LinearUnit::new(2)
            .run_layer(&input, &weight, &bias, 4)
            .unwrap();
        assert_eq!(result.stats.adder_ops, 0);
        assert!(result.accumulators.iter().all(|&v| v == 0));
    }

    #[test]
    fn lane_aligned_chunks_sum_to_the_untiled_layer() {
        let input =
            Tensor::from_vec(vec![23], (0..23).map(|v| ((v * 11) % 16) as i64).collect()).unwrap();
        let weight = Tensor::from_vec(
            vec![11, 23],
            (0..11 * 23).map(|v| ((v % 7) as i64) - 3).collect(),
        )
        .unwrap();
        let bias = Tensor::from_vec(vec![11], (0..11).map(|v| v - 4).collect()).unwrap();
        let unit = LinearUnit::new(2);
        let whole = unit.run_layer(&input, &weight, &bias, 4).unwrap();
        // Chunks of 4 outputs = two lane groups each, final chunk of 3.
        let chunked = unit
            .run_layer_chunked(&input, &weight, &bias, 4, 4)
            .unwrap();
        assert_eq!(chunked.accumulators, whole.accumulators);
        assert_eq!(chunked.stats, whole.stats);
        // A chunk covering every output is the untiled execution.
        let all = unit
            .run_layer_chunked(&input, &weight, &bias, 4, 16)
            .unwrap();
        assert_eq!(all.stats, whole.stats);
    }

    #[test]
    fn misaligned_chunk_is_rejected() {
        let input = Tensor::filled(vec![4], 1i64);
        let weight = Tensor::filled(vec![8, 4], 1i64);
        let bias = Tensor::filled(vec![8], 0i64);
        let unit = LinearUnit::new(4);
        assert!(matches!(
            unit.run_layer_chunked(&input, &weight, &bias, 3, 0),
            Err(AccelError::UnsupportedLayer { .. })
        ));
        assert!(matches!(
            unit.run_layer_chunked(&input, &weight, &bias, 3, 6),
            Err(AccelError::UnsupportedLayer { .. })
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let input = Tensor::filled(vec![4], 1i64);
        let weight = Tensor::filled(vec![2, 5], 1i64);
        let bias = Tensor::filled(vec![2], 0i64);
        assert!(matches!(
            LinearUnit::new(2).run_layer(&input, &weight, &bias, 3),
            Err(AccelError::UnsupportedLayer { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one output lane")]
    fn zero_lanes_rejected() {
        LinearUnit::new(0);
    }

    #[test]
    fn overlong_spike_trains_are_rejected() {
        let input = Tensor::filled(vec![4], 1i64);
        let weight = Tensor::filled(vec![2, 4], 1i64);
        let bias = Tensor::filled(vec![2], 0i64);
        let unit = LinearUnit::new(2);
        assert!(unit.run_layer(&input, &weight, &bias, 63).is_ok());
        assert!(matches!(
            unit.run_layer(&input, &weight, &bias, 64),
            Err(AccelError::UnsupportedLayer { .. })
        ));
    }

    #[test]
    fn stats_and_accumulators_match_the_reference_unit() {
        let input =
            Tensor::from_vec(vec![23], (0..23).map(|v| ((v * 11) % 16) as i64).collect()).unwrap();
        let weight = Tensor::from_vec(
            vec![9, 23],
            (0..9 * 23).map(|v| ((v % 7) as i64) - 3).collect(),
        )
        .unwrap();
        let bias = Tensor::from_vec(vec![9], (0..9).map(|v| v - 4).collect()).unwrap();
        for lanes in [1, 2, 4, 9, 16] {
            for t in [1usize, 3, 6] {
                let fast = LinearUnit::new(lanes)
                    .run_layer(&input, &weight, &bias, t)
                    .unwrap();
                let slow = ReferenceLinearUnit::new(lanes)
                    .run_layer(&input, &weight, &bias, t)
                    .unwrap();
                assert_eq!(fast.accumulators, slow.accumulators, "lanes={lanes} t={t}");
                assert_eq!(fast.stats, slow.stats, "lanes={lanes} t={t}");
            }
        }
    }

    #[test]
    fn out_of_range_levels_are_truncated_like_the_schedule() {
        let input = Tensor::from_vec(vec![3], vec![9i64, -1, 2]).unwrap();
        let weight = Tensor::filled(vec![2, 3], 3i64);
        let bias = Tensor::filled(vec![2], 1i64);
        let fast = LinearUnit::new(2)
            .run_layer(&input, &weight, &bias, 2)
            .unwrap();
        let slow = ReferenceLinearUnit::new(2)
            .run_layer(&input, &weight, &bias, 2)
            .unwrap();
        assert_eq!(fast.accumulators, slow.accumulators);
        assert_eq!(fast.stats, slow.stats);
    }
}
