//! The convolution unit (Fig. 2 of the paper).
//!
//! A convolution unit is a two-dimensional array of adders with `X` columns
//! (parallel output positions of one feature-map row) and `Y` rows (one per
//! kernel row, operated as pipeline stages).  The input logic fetches one
//! row of a *binary* input feature map — one time step of the radix-encoded
//! activations — into a shift register; taps spaced by the stride feed the
//! adder columns.  As the register shifts `Kc` times, each adder row steps
//! through its kernel row, accumulating the kernel value whenever the tap
//! carries a spike (a multiplexer forces zero otherwise).  Partial sums
//! stream from adder row to adder row; after `Kr` rows every column holds a
//! complete kernel-window sum, which the output logic accumulates over
//! input channels and — with a left shift per time step — over the radix
//! time steps (Alg. 1, line 12).  Several units run side by side on
//! *different output channels* of the same input row.
//!
//! # Spike-major execution model
//!
//! The engine does not step that schedule cycle by cycle.  It computes the
//! *same* accumulators and the *same* [`UnitStats`] by splitting the work
//! the schedule interleaves:
//!
//! * **Compute** — work proportional to spikes, output channels innermost.
//!   By the radix shift-and-add identity, folding the per-time-step binary
//!   planes with a left shift per step is algebraically identical to
//!   weighting each spiking pixel by its masked level
//!   (`level & level_mask(T)`).  The engine walks the planes' OR-reduction
//!   (the occupancy mask, [`snn_tensor::bitplane::Occupancy::from_levels`],
//!   skipping silent rows 64 pixels per word) once into a flat
//!   `(column, level)` spike list, and then, for each spike, adds
//!   `level × W[ic, ky, kx, 0..O]` into the accumulator row of every output
//!   position a `(kernel tap, output position)` pair covers it with — the
//!   host-side picture of the paper's output-channel parallelism.  The
//!   weights come channel-last from [`PackedWeights`] (held by the model,
//!   so an inference packs nothing), in the element their codes fit — one
//!   byte each at the paper's precisions — with each kernel row's columns
//!   reversed: at stride one the taps of a spike along kernel row `ky`
//!   reach consecutive output positions through consecutive stored weight
//!   rows, so the whole run is *one* multiply-accumulate of `count × O`
//!   lanes, as the paper's adder row steps through its kernel row while
//!   the input register shifts.  A spike is one
//!   [`snn_tensor::simd::axpy_taps`] call of one run per kernel row (5 on
//!   LeNet-5, 3 on VGG-11); at larger strides the same loop emits runs of
//!   one tap.  The accumulators are
//!   channel-last too and are transposed to `[O, H, W]`, widened to `i64`
//!   and bias added, once per band.  Wrapping `i64` arithmetic commutes, so
//!   the result is bit-identical to the cycle-stepped reference — including
//!   for out-of-range levels, which the mask truncates to exactly the bits
//!   the schedule would see.  The whole loop runs on the calling thread:
//!   the paper's units working side by side on different output channels
//!   are *modelled* (every cycle count comes from [`crate::timing`]), and
//!   splitting the lanes over host threads measured slower than not, alone
//!   and inside a batch (the numbers are in `ARCHITECTURE.md`), so the
//!   host runs requests, not layers, in parallel.  Spike list, occupancy words,
//!   reach tables and accumulator rows live in the caller's
//!   [`EngineScratch`], so the bands and layers of an inference allocate
//!   them once.
//! * **Datapath width** — the paper sizes its adders to the sums they can
//!   hold, and so does the engine, twice.  An output position receives at
//!   most one contribution per `(c, ky, kx)`, each at most
//!   `level_mask(T) × |w|`, so where
//!   [`PackedWeights::sums_fit_i32`]`(T)` holds — 3-bit weights at `T = 4`
//!   need 19 bits on VGG-11 — no partial sum of the layer leaves `i32` in
//!   any order or band, and the accumulator rows are 32-bit.
//!   And within `G` consecutive input channels it receives at most
//!   `G × Kr × Kc` contributions of at most `level_mask(T) × abs_max`, so
//!   with `G =` [`PackedWeights::i16_group`]`(T)` — 60 channels for 3-bit
//!   weights under a 3×3 kernel at `T = 4`, all of LeNet-5's — no partial
//!   sum *of such a group* leaves `i16`: the spikes of a group scatter into
//!   16-bit rows, sixteen lanes per vector and half the bytes in L1, which
//!   are widen-added into the 32-bit rows each time the spike rows
//!   (ascending by channel) cross into the next group.  Both rows hold the
//!   *same* integers the 64-bit instantiation would.  The one scatter loop
//!   (`scatter`, generic over [`snn_tensor::simd::WeightLane`] and
//!   [`snn_tensor::simd::Accumulator`]) is instantiated per call from the
//!   stored element, `sums_fit_i32(T)` and `G >= 1` — a pure function of
//!   the packed weights and `T`; `G = 0`, 16-bit codes and long trains keep
//!   the plain 32- or 64-bit rows.
//! * **Statistics** — the schedule is static, so `cycles`,
//!   `activation_reads`, `kernel_reads` and `output_writes` follow in
//!   closed form from the loop bounds ([`ConvolutionUnit::layer_cycles`]
//!   and friends).  The data-dependent `adder_ops` is a popcount folded
//!   into the spike walk: each input pixel toggles one adder per set plane
//!   bit per covering `(output position, kernel tap)` pair, so
//!   `adder_ops = C_out * Σ_pixels popcount(level & mask) * coverage(pixel)`.
//!   The optional product-sparsity prepass (`product_sparsity_counts`)
//!   is accounting only: it re-derives `adder_ops` and the two reuse
//!   counters from the spike list and never touches the compute.
//!   Property tests assert both parts equal the counter-stepped values of
//!   [`crate::reference::ReferenceConvolutionUnit`] exactly.

use crate::config::ArrayGeometry;
use crate::memory::RowBand;
use crate::units::{unsupported, EngineScratch, Lane, LaneRows, UnitStats};
use crate::{AccelError, Result};
use snn_model::packed::{Codes, PackedWeights};
use snn_tensor::{bitplane, ops, simd, Tensor};

/// Output of a convolution-unit layer execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvResult {
    /// Raw integer accumulators `[O, H_out, W_out]` (bias included, before
    /// ReLU/requantization).
    pub accumulators: Tensor<i64>,
    /// Cycle and operation counters.
    pub stats: UnitStats,
}

/// Spike-major model of one convolution unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvolutionUnit {
    geometry: ArrayGeometry,
    /// Enable the product-sparsity accounting (see
    /// [`crate::config::AcceleratorConfig::product_sparsity`]).
    product_sparsity: bool,
}

/// Where one input coordinate of an axis lands: it feeds the `count`
/// consecutive outputs `first_out..`, the first through kernel tap
/// `first_tap` and each next one through the tap `stride` lower
/// (`o * stride + k == input + padding`).  One entry per coordinate, so the
/// scatter loop does no bounds arithmetic per spike and a band call
/// reuses one table per axis.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reach {
    first_out: u32,
    first_tap: u32,
    count: u32,
}

impl Reach {
    /// Fills `table` with the reach of each input coordinate in `inputs`
    /// among the outputs `outputs`; `first_out` is relative to
    /// `outputs.start`.
    fn fill_axis(
        table: &mut Vec<Reach>,
        inputs: std::ops::Range<usize>,
        kernel_extent: usize,
        outputs: std::ops::Range<usize>,
        stride: usize,
        padding: usize,
    ) {
        table.clear();
        table.extend(inputs.map(|i| {
            // Outputs `o` with `0 <= i + padding - o * stride < kernel`.
            let lo = (i + padding + 1)
                .saturating_sub(kernel_extent)
                .div_ceil(stride)
                .max(outputs.start);
            let hi = ((i + padding) / stride + 1).min(outputs.end);
            if lo >= hi {
                return Reach {
                    first_out: 0,
                    first_tap: 0,
                    count: 0,
                };
            }
            Reach {
                first_out: (lo - outputs.start) as u32,
                first_tap: (i + padding - lo * stride) as u32,
                count: (hi - lo) as u32,
            }
        }));
    }

    /// The `(kernel tap, output)` pairs this coordinate goes through.
    fn taps(self, stride: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..self.count as usize).map(move |j| {
            (
                self.first_tap as usize - j * stride,
                self.first_out as usize + j,
            )
        })
    }
}

/// One non-silent input row of a band: a range of the spike arena.
#[derive(Debug)]
pub(crate) struct SpikeRow {
    ic: usize,
    /// Band-local input row.
    iy: usize,
    start: usize,
    end: usize,
}

/// Every spiking pixel of a band that feeds at least one output row, as
/// ranges into one `(column, masked level)` buffer — built once per band
/// call.  The linear engine keeps its `(input neuron, masked level)` list
/// in the arena alone.
#[derive(Debug, Default)]
pub(crate) struct Spikes {
    /// Ascending by `(ic, iy)`.
    rows: Vec<SpikeRow>,
    /// Ascending by column within a row.
    pub(crate) arena: Vec<(u32, i64)>,
}

impl Spikes {
    fn of(&self, row: &SpikeRow) -> &[(u32, i64)] {
        &self.arena[row.start..row.end]
    }
}

/// Walks `child`'s spikes against `parent`'s (both ascending by column):
/// when every parent spike appears in `child` with an equal level, returns
/// the adder work and the set bits of `child`'s spikes outside `parent`'s
/// support; `None` otherwise.
fn containment_diff(
    parent: &[(u32, i64)],
    child: &[(u32, i64)],
    x_reach: &[Reach],
) -> Option<(u64, u64)> {
    let (mut work, mut bits) = (0u64, 0u64);
    let mut pi = 0;
    for &(ix, level) in child {
        if pi < parent.len() && parent[pi].0 == ix {
            if parent[pi].1 != level {
                return None;
            }
            pi += 1;
        } else {
            let pop = u64::from(level.count_ones());
            bits += pop;
            work += pop * u64::from(x_reach[ix as usize].count);
        }
    }
    (pi == parent.len()).then_some((work, bits))
}

/// What the product-sparsity prepass changes in a band's counters.
struct ProductSparsityCounts {
    /// Adder work of ONE output channel with reuse applied.
    spike_work: u64,
    /// `(row, kernel row)` events that reused a parent's partial sums.
    reuse_events: u64,
    /// Set bits scattered as differences by those events.
    difference_bits: u64,
}

/// Product-sparsity **accounting** for one band (Prosperity-style, applied
/// to level rows): within each input channel, a row **B** is a *parent* of
/// a row **A** when B's spike pattern is contained in A's with equal
/// levels on B's support — hardware that kept B's per-tap correlation
/// vector could then produce A's as B's plus the scatter of the difference
/// spikes, `|diff|`-proportional work instead of `|A|`-proportional.
/// Containment is checked word-level on the occupancy rows first
/// (`B & !A == 0`), then by one merge walk over the spike lists.  Links
/// are greedy: rows sort by `(nnz, index)` and each row adopts the largest
/// earlier row that passes the check and the benefit gate
/// `diff_work + 2 * w_out < row_work` (one `w_out` for the child's merge,
/// one amortising the parent's).  Nothing here computes an accumulator:
/// the engine's one kernel produces those either way, and this only says
/// what the reuse would have saved.
fn product_sparsity_counts(
    spikes: &Spikes,
    occupancy: &bitplane::Occupancy,
    band_h: usize,
    y_reach: &[Reach],
    x_reach: &[Reach],
    stride: usize,
    w_out: usize,
) -> ProductSparsityCounts {
    /// Per-row outcome of the linking pass.
    #[derive(Default, Clone)]
    struct Link {
        /// Kernel rows for which this row reuses its parent: its taps
        /// that the parent also computes (and therefore materializes).
        reuse_kys: Vec<usize>,
        /// Kernel rows whose correlation vector is kept for children.
        materialize: Vec<usize>,
        /// Baseline adder work of computing this row fresh, per
        /// `(ky, oy)` event and output channel.
        row_work: u64,
        diff_work: u64,
        diff_bits: u64,
    }
    let rows = &spikes.rows;
    let mut links = vec![Link::default(); rows.len()];
    for (link, row) in links.iter_mut().zip(rows) {
        link.row_work = spikes
            .of(row)
            .iter()
            .map(|&(ix, level)| {
                u64::from(level.count_ones()) * u64::from(x_reach[ix as usize].count)
            })
            .sum();
    }

    // Channel groups are contiguous: spike rows are built ic-major.
    let mut start = 0;
    while start < rows.len() {
        let ic = rows[start].ic;
        let end = start + rows[start..].iter().take_while(|r| r.ic == ic).count();
        // Parents-first order: ascending (nnz, index).
        let mut sorted: Vec<usize> = (start..end).collect();
        sorted.sort_by_key(|&j| (rows[j].end - rows[j].start, j));
        for (s, &j) in sorted.iter().enumerate() {
            let child = &rows[j];
            let child_words = occupancy.row(ic * band_h + child.iy);
            // Largest candidate first maximises the reused partial sum.
            for &p in sorted[..s].iter().rev() {
                let candidate = &rows[p];
                let contained = occupancy
                    .row(ic * band_h + candidate.iy)
                    .iter()
                    .zip(child_words)
                    .all(|(&pw, &cw)| pw & !cw == 0);
                if !contained {
                    continue;
                }
                let Some((diff_work, diff_bits)) =
                    containment_diff(spikes.of(candidate), spikes.of(child), x_reach)
                else {
                    continue;
                };
                if diff_work + 2 * w_out as u64 >= links[j].row_work {
                    continue; // reuse would not beat a fresh compute
                }
                let parent_taps = y_reach[candidate.iy];
                let reuse_kys: Vec<usize> = y_reach[child.iy]
                    .taps(stride)
                    .map(|(ky, _)| ky)
                    .filter(|&ky| parent_taps.taps(stride).any(|(pky, _)| pky == ky))
                    .collect();
                if reuse_kys.is_empty() {
                    continue; // no shared tap: nothing to reuse
                }
                for &ky in &reuse_kys {
                    if !links[p].materialize.contains(&ky) {
                        links[p].materialize.push(ky);
                    }
                }
                links[j].reuse_kys = reuse_kys;
                links[j].diff_work = diff_work;
                links[j].diff_bits = diff_bits;
                break;
            }
        }
        start = end;
    }

    let mut counts = ProductSparsityCounts {
        spike_work: 0,
        reuse_events: 0,
        difference_bits: 0,
    };
    for (link, row) in links.iter().zip(rows) {
        for (ky, _oy) in y_reach[row.iy].taps(stride) {
            if link.reuse_kys.contains(&ky) {
                counts.spike_work += w_out as u64 + link.diff_work;
                counts.reuse_events += 1;
                counts.difference_bits += link.diff_bits;
            } else {
                counts.spike_work += link.row_work;
                if link.materialize.contains(&ky) {
                    counts.spike_work += w_out as u64;
                }
            }
        }
    }
    counts
}

/// Runs handed to the kernel per call.  At stride one a spike makes one
/// run per kernel row — 3 on VGG-11, 5 on LeNet-5 — and at larger strides
/// at most `Kr x Kc` runs of one tap, so one call per spike is the rule; a
/// larger kernel just takes more calls.
const TAP_BATCH: usize = 32;

/// What a band's scatter works on, apart from the element types.
struct ScatterJob<'a> {
    weights: &'a PackedWeights,
    spikes: &'a Spikes,
    bias: &'a [i64],
    y_reach: &'a [Reach],
    x_reach: &'a [Reach],
    stride: usize,
    out_h: usize,
    w_out: usize,
}

/// The one scatter loop: every spike adds its level times one packed
/// weight row (of element `W`) into the accumulator row of each output
/// position it covers; the result is `[O, out_h, w_out]` with the bias
/// added.  The rows are channel-last, `[position][lane]`.  Along one
/// kernel row a spike reaches `count` outputs through taps `stride`
/// apart; the columns being stored reversed, at stride one those are
/// consecutive weight rows for consecutive accumulator rows, and one tap
/// of `count x lanes` covers the run.  At larger strides each tap is its
/// own run.
///
/// The spikes scatter into rows of element `S`.  With `group: None` those
/// are the layer's sums themselves (`A` is then `S`, and unused).  With
/// `Some(g)` they are the 16-bit partial sums of `g` consecutive input
/// channels at a time — `g` must be at most
/// [`PackedWeights::i16_group`] — which are widen-added into rows of
/// element `A` whenever the spike rows, ascending by channel, cross into
/// the next group, and after the last.
fn scatter<W: simd::WeightLane, S: Lane, A: Lane>(
    job: &ScatterJob<'_>,
    codes: &[W],
    group: Option<usize>,
    rows: &mut LaneRows,
) -> Tensor<i64> {
    let &ScatterJob {
        weights,
        spikes,
        bias,
        y_reach,
        x_reach,
        stride,
        out_h,
        w_out,
    } = job;
    let (c_out, kc, lanes) = (weights.c_out(), weights.kernel_cols(), weights.lanes());
    let channel_len = weights.kernel_rows() * kc * lanes;
    let out_positions = out_h * w_out;
    let mut sums = rows.take::<S>(out_positions * lanes);
    let mut wide = rows.take::<A>(group.map_or(0, |_| out_positions * lanes));
    let channels_per_group = group.unwrap_or(usize::MAX);
    let mut taps = [simd::Tap::default(); TAP_BATCH];
    let same_group =
        |a: &SpikeRow, b: &SpikeRow| a.ic / channels_per_group == b.ic / channels_per_group;
    for members in spikes.rows.chunk_by(same_group) {
        for row in members {
            let ys = y_reach[row.iy];
            let channel = &codes[row.ic * channel_len..][..channel_len];
            for &(ix, level) in spikes.of(row) {
                let xs = x_reach[ix as usize];
                let run = if stride == 1 {
                    (xs.count as usize).max(1)
                } else {
                    1
                };
                let width = run * lanes;
                let level = S::from_level(level);
                let mut pending = 0;
                for (ky, oy) in ys.taps(stride) {
                    for (kx, ox) in xs.taps(stride).step_by(run) {
                        if pending == TAP_BATCH {
                            simd::axpy_taps(&mut sums, channel, &taps, width, level);
                            pending = 0;
                        }
                        taps[pending] = simd::Tap {
                            acc_at: (oy * w_out + ox) * lanes,
                            w_at: (ky * kc + kc - 1 - kx) * lanes,
                        };
                        pending += 1;
                    }
                }
                simd::axpy_taps(&mut sums, channel, &taps[..pending], width, level);
            }
        }
        if group.is_some() {
            simd::drain_partials(&mut wide, &mut sums);
        }
    }

    // Widen, transpose to `[O, H_out, W_out]` and add the bias, once.
    let mut accumulators = Tensor::filled(vec![c_out, out_h, w_out], 0i64);
    let planes = accumulators.as_mut_slice();
    match group {
        Some(_) => transpose(&wide, planes, lanes, out_positions, bias),
        None => transpose(&sums, planes, lanes, out_positions, bias),
    }
    // `wide` first: where `A` is `S` it is the empty stand-in, and the row
    // worth keeping is `sums`.
    rows.give(wide);
    rows.give(sums);
    accumulators
}

/// The widening transpose that ends a scatter: channel-last
/// `[position][lane]` rows to `[O, positions]` planes, bias added.
fn transpose<E: Copy + Into<i64>>(
    rows: &[E],
    planes: &mut [i64],
    lanes: usize,
    out_positions: usize,
    bias: &[i64],
) {
    for (oc, plane) in planes.chunks_mut(out_positions).enumerate() {
        let bias = bias[oc];
        for (position, out) in plane.iter_mut().enumerate() {
            *out = rows[position * lanes + oc].into() + bias;
        }
    }
}

/// Packs raw `[O, C, Kr, Kc]` kernel codes for one call of a raw-tensor
/// entry point.
fn pack_kernels(kernel_codes: &Tensor<i64>) -> Result<PackedWeights> {
    PackedWeights::from_conv(kernel_codes).map_err(|e| unsupported(e.to_string()))
}

impl ConvolutionUnit {
    /// Creates a convolution unit with the given adder-array geometry.
    pub fn new(geometry: ArrayGeometry) -> Self {
        Self::with_product_sparsity(geometry, false)
    }

    /// Creates a convolution unit with the product-sparsity accounting on
    /// or off (see [`crate::config::AcceleratorConfig::product_sparsity`]).
    pub fn with_product_sparsity(geometry: ArrayGeometry, product_sparsity: bool) -> Self {
        ConvolutionUnit {
            geometry,
            product_sparsity,
        }
    }

    /// As [`ConvolutionUnit::new`]: the dense-gather threshold selected
    /// between two row kernels the engine no longer has and is **ignored**.
    /// Kept only because the frozen `benchmark/` package calls it; slated
    /// for deletion in the next benchmark PR.
    pub fn with_threshold(geometry: ArrayGeometry, _dense_gather_threshold: f64) -> Self {
        Self::new(geometry)
    }

    /// As [`ConvolutionUnit::with_product_sparsity`]; the threshold is
    /// **ignored** and the constructor slated for deletion (see
    /// [`ConvolutionUnit::with_threshold`]).
    pub fn with_options(
        geometry: ArrayGeometry,
        _dense_gather_threshold: f64,
        product_sparsity: bool,
    ) -> Self {
        Self::with_product_sparsity(geometry, product_sparsity)
    }

    /// The adder-array geometry.
    pub fn geometry(&self) -> ArrayGeometry {
        self.geometry
    }

    /// Whether the product-sparsity accounting is enabled.
    pub fn product_sparsity(&self) -> bool {
        self.product_sparsity
    }

    /// Number of column tiles needed for an output row of `width` values.
    ///
    /// The paper chooses `X` at least as large as the widest output row to
    /// avoid tiling; the model supports tiling so narrower units still work.
    pub fn column_tiles(&self, width: usize) -> usize {
        width.div_ceil(self.geometry.columns)
    }

    /// Executes one convolution layer on this unit from raw kernel codes.
    ///
    /// * `input_levels` — `[C, H, W]` radix levels of the input activations
    ///   (each level's binary expansion is the spike train, MSB first).
    /// * `kernel_codes` — `[O, C, K, K]` quantized kernel codes.
    /// * `bias_acc` — `[O]` biases pre-scaled to accumulator units.
    /// * `time_steps` — spike-train length `T`.
    ///
    /// Packs the kernels for this one call and runs
    /// [`ConvolutionUnit::run_packed`]; the executor, which holds a model,
    /// passes [`snn_model::snn::SnnModel::packed`] instead and packs
    /// nothing per inference.
    ///
    /// # Errors
    ///
    /// As [`ConvolutionUnit::run_packed`], plus
    /// [`AccelError::UnsupportedLayer`] when a kernel code does not fit
    /// the widest packed element, `i16`.
    pub fn run_layer(
        &self,
        input_levels: &Tensor<i64>,
        kernel_codes: &Tensor<i64>,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        stride: usize,
        padding: usize,
    ) -> Result<ConvResult> {
        let weights = pack_kernels(kernel_codes)?;
        self.run_packed(
            input_levels,
            &weights,
            bias_acc,
            time_steps,
            stride,
            padding,
            &mut EngineScratch::new(),
        )
    }

    /// Executes one convolution layer on this unit.
    ///
    /// Returns raw accumulators plus exact cycle/operation counts for the
    /// *whole* layer executed on a single unit; the controller divides the
    /// output channels across units to obtain the wall-clock latency.  The
    /// accumulators and counters are bit-identical to the counter-stepped
    /// [`crate::reference::ReferenceConvolutionUnit`] (see the module docs
    /// for the execution model).  `scratch` is working memory only: any
    /// [`EngineScratch`] gives the same result, a reused one saves the
    /// allocations.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnsupportedLayer`] when the kernel has more
    /// rows than the adder array or `time_steps` exceeds the 63 payload
    /// bits of an `i64` level, and propagates shape errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run_packed(
        &self,
        input_levels: &Tensor<i64>,
        weights: &PackedWeights,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        stride: usize,
        padding: usize,
        scratch: &mut EngineScratch,
    ) -> Result<ConvResult> {
        let &[_, h, w] = input_levels.shape().dims() else {
            return Err(unsupported(
                "convolution unit expects [C,H,W] inputs and [O,C,K,K] kernels".to_string(),
            ));
        };
        let kernel = (weights.kernel_rows(), weights.kernel_cols());
        let (h_out, _w_out) =
            ops::conv2d_output_dims((h, w), kernel, stride, padding).map_err(AccelError::Tensor)?;
        self.run_packed_band(
            input_levels,
            weights,
            bias_acc,
            time_steps,
            stride,
            padding,
            &RowBand {
                out_lo: 0,
                out_hi: h_out,
                in_lo: 0,
                in_hi: h,
            },
            scratch,
        )
    }

    /// Executes one **row-band tile** of a convolution layer from raw
    /// kernel codes: packs them for this one call and runs
    /// [`ConvolutionUnit::run_packed_band`].
    ///
    /// # Errors
    ///
    /// As [`ConvolutionUnit::run_packed_band`], plus
    /// [`AccelError::UnsupportedLayer`] when a kernel code does not fit
    /// the widest packed element, `i16`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_layer_band(
        &self,
        band_levels: &Tensor<i64>,
        kernel_codes: &Tensor<i64>,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        stride: usize,
        padding: usize,
        band: &RowBand,
    ) -> Result<ConvResult> {
        let weights = pack_kernels(kernel_codes)?;
        self.run_packed_band(
            band_levels,
            &weights,
            bias_acc,
            time_steps,
            stride,
            padding,
            band,
            &mut EngineScratch::new(),
        )
    }

    /// Executes one **row-band tile** of a convolution layer.
    ///
    /// `band_levels` holds only the halo-extended input rows
    /// `band.in_lo..band.in_hi` of the full feature map (all channels,
    /// `[C, band.in_rows(), W]`); the result covers output rows
    /// `band.out_lo..band.out_hi` (`[O, band.out_rows(), W_out]`).  The
    /// spike list is built per tile, so only the band is ever resident —
    /// this is the compute kernel of the tiled activation-buffer model
    /// ([`crate::memory::plan_network_tiles`]).
    ///
    /// **Exactness contract:** accumulators are the same integer sums as
    /// the untiled layer restricted to the band, and every counter is
    /// defined so that summing over a partition of the output rows
    /// reproduces [`ConvolutionUnit::run_packed`]'s counters bit-exactly;
    /// the schedule's per-pass pipeline-fill cycles are charged to the
    /// band containing output row zero.  Property tests pin both.
    ///
    /// **Caller contract on `in_hi`:** the unit does not know the full
    /// image height, so it treats `band.in_hi` as the bottom of the
    /// available data — input rows at or beyond `in_hi` contribute
    /// nothing, exactly as rows beyond the image do.  It therefore cannot
    /// detect a band whose `in_hi` stops short of rows that *do* exist in
    /// the full map; supplying one silently drops their contributions.
    /// Bands produced by [`crate::memory::plan_network_tiles`] always
    /// extend `in_hi` to `min(needed, H)` and are safe; hand-built bands
    /// must do the same.
    ///
    /// # Errors
    ///
    /// As [`ConvolutionUnit::run_packed`], plus
    /// [`AccelError::UnsupportedLayer`] when `band_levels` does not match
    /// the band's row count, the band is empty, the stride is zero,
    /// `bias_acc` does not hold exactly one bias per output channel, or the
    /// band's input rows start later than its first output row reads (the
    /// start is checkable without the image height; the end is not — see
    /// the caller contract above).
    #[allow(clippy::too_many_arguments)]
    pub fn run_packed_band(
        &self,
        band_levels: &Tensor<i64>,
        weights: &PackedWeights,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        stride: usize,
        padding: usize,
        band: &RowBand,
        scratch: &mut EngineScratch,
    ) -> Result<ConvResult> {
        let &[c_in, band_h, w] = band_levels.shape().dims() else {
            return Err(unsupported(
                "convolution unit expects [C,H,W] inputs and [O,C,K,K] kernels".to_string(),
            ));
        };
        let (c_out, kr, kc) = (
            weights.c_out(),
            weights.kernel_rows(),
            weights.kernel_cols(),
        );
        if weights.c_in() != c_in {
            return Err(unsupported(format!(
                "kernel expects {} channels, input has {c_in}",
                weights.c_in()
            )));
        }
        if kr > self.geometry.rows {
            return Err(unsupported(format!(
                "kernel has {kr} rows but the adder array only has {} rows",
                self.geometry.rows
            )));
        }
        if time_steps > 63 {
            // An i64 level can only carry 63 payload bits; beyond that the
            // engine and the shift-stepped reference would no longer agree
            // (the reference hits the sign bit at T = 64).
            return Err(unsupported(format!(
                "spike trains of {time_steps} steps exceed the 63-bit level payload"
            )));
        }
        if stride == 0 {
            return Err(unsupported(
                "convolution stride must be non-zero".to_string(),
            ));
        }
        if bias_acc.len() != c_out {
            return Err(unsupported(format!(
                "convolution needs one bias per output channel ({c_out}), got {}",
                bias_acc.len()
            )));
        }
        if band.out_hi <= band.out_lo || band.in_hi <= band.in_lo {
            return Err(unsupported(format!(
                "degenerate row band (out {}..{}, in {}..{})",
                band.out_lo, band.out_hi, band.in_lo, band.in_hi
            )));
        }
        if band.in_rows() != band_h {
            return Err(unsupported(format!(
                "band tensor has {band_h} input rows but the band spans {}..{}",
                band.in_lo, band.in_hi
            )));
        }
        if band.in_lo > (band.out_lo * stride).saturating_sub(padding) {
            return Err(unsupported(format!(
                "band input starts at row {} but output row {} reads from row {}",
                band.in_lo,
                band.out_lo,
                (band.out_lo * stride).saturating_sub(padding)
            )));
        }
        if w + 2 * padding < kc {
            return Err(unsupported(format!(
                "kernel of {kc} columns does not fit a padded width of {w}"
            )));
        }
        let w_out = (w + 2 * padding - kc) / stride + 1;
        let out_h = band.out_rows();

        let in_data = band_levels.as_slice();
        let mask = bitplane::level_mask(time_steps);

        // Which outputs, through which kernel taps, each input coordinate
        // feeds — shared by the statistics and the scatter loop.  Row reach
        // is band-local; column reach spans the full width.
        let EngineScratch {
            occupancy,
            spikes,
            y_reach,
            x_reach,
            rows,
        } = scratch;
        Reach::fill_axis(
            y_reach,
            band.in_lo..band.in_hi,
            kr,
            band.out_lo..band.out_hi,
            stride,
            padding,
        );
        Reach::fill_axis(x_reach, 0..w, kc, 0..w_out, stride, padding);

        // --- One walk over the occupancy (the planes' OR-reduction, silent
        // rows skipped a word at a time) gathers the spike list the scatter
        // walks and, folded into it, the popcount behind the data-dependent
        // adder activity. ---
        occupancy.refill(in_data, c_in * band_h, w, time_steps);
        spikes.rows.clear();
        spikes.arena.clear();
        let mut spike_work = 0u64; // adder ops of ONE output channel
        for ic in 0..c_in {
            for iy in 0..band_h {
                let taps_y = u64::from(y_reach[iy].count);
                if taps_y == 0 {
                    continue;
                }
                let levels = &in_data[(ic * band_h + iy) * w..][..w];
                let start = spikes.arena.len();
                let mut row_work = 0u64;
                bitplane::for_each_set_bit(occupancy.row(ic * band_h + iy), 0, |ix| {
                    let level = levels[ix] & mask;
                    row_work += u64::from(level.count_ones()) * u64::from(x_reach[ix].count);
                    spikes.arena.push((ix as u32, level));
                });
                if spikes.arena.len() == start {
                    continue;
                }
                spike_work += taps_y * row_work;
                spikes.rows.push(SpikeRow {
                    ic,
                    iy,
                    start,
                    end: spikes.arena.len(),
                });
            }
        }

        // --- Statistics: closed-form schedule counts plus the popcount
        // above; product sparsity re-derives `adder_ops` to mirror the
        // reduced work while the schedule counters keep the baseline
        // static schedule. ---
        let mut stats = self.derived_stats(
            c_in,
            c_out,
            out_h,
            w_out,
            kr,
            kc,
            time_steps,
            spike_work,
            band.is_first(),
        );
        if self.product_sparsity {
            let ps =
                product_sparsity_counts(spikes, occupancy, band_h, y_reach, x_reach, stride, w_out);
            stats.adder_ops = c_out as u64 * ps.spike_work;
            stats.reused_partials = c_out as u64 * ps.reuse_events;
            stats.difference_bits = c_out as u64 * ps.difference_bits;
        }

        // --- Compute, in the narrowest elements the packed weights prove
        // exact for this spike-train length: 8-bit codes in 16-bit groups
        // under a 32-bit row where all three hold, else the 32-bit or
        // 64-bit row alone. ---
        let job = ScatterJob {
            weights,
            spikes,
            bias: bias_acc.as_slice(),
            y_reach,
            x_reach,
            stride,
            out_h,
            w_out,
        };
        let narrow = weights.sums_fit_i32(time_steps);
        let group = weights.i16_group(time_steps);
        let accumulators = match (weights.codes(), narrow) {
            (Codes::I8(codes), true) if group >= 1 => {
                scatter::<_, i16, i32>(&job, codes, Some(group), rows)
            }
            (Codes::I8(codes), true) => scatter::<_, i32, i32>(&job, codes, None, rows),
            (Codes::I8(codes), false) => scatter::<_, i64, i64>(&job, codes, None, rows),
            (Codes::I16(codes), true) => scatter::<_, i32, i32>(&job, codes, None, rows),
            (Codes::I16(codes), false) => scatter::<_, i64, i64>(&job, codes, None, rows),
        };

        Ok(ConvResult {
            accumulators,
            stats,
        })
    }

    /// Row slots of the static schedule: one per `(output row, tile,
    /// kernel row)` triple — a row load each, plus `kc` shift cycles.
    fn row_slots(&self, h_out: usize, w_out: usize, kr: usize) -> u64 {
        (h_out as u64) * self.column_tiles(w_out) as u64 * kr as u64
    }

    /// The single source of the closed-form cycle expression, shared by
    /// [`ConvolutionUnit::layer_cycles`] and the derived counters so the
    /// analytical timing model can never drift from the unit's reports.
    /// For a row band, `first_band` controls whether the per-pass pipeline
    /// fill is charged — it belongs to exactly one band per layer, so the
    /// band cycle counts sum to the untiled expression.
    #[allow(clippy::too_many_arguments)]
    fn schedule_cycles(
        &self,
        c_in: usize,
        c_out: usize,
        h_out: usize,
        w_out: usize,
        kr: usize,
        kc: usize,
        time_steps: usize,
        first_band: bool,
    ) -> u64 {
        let passes = (c_out * time_steps * c_in) as u64;
        let fill = if first_band { kr as u64 } else { 0 };
        // Per channel pass: pipeline fill + (1 load + Kc shifts) per slot.
        passes * (fill + self.row_slots(h_out, w_out, kr) * (1 + kc as u64))
    }

    /// The full analytically derived counter set for one layer (or band)
    /// execution: closed-form schedule counts plus the externally computed
    /// per-channel adder activity (`spike_work`).
    #[allow(clippy::too_many_arguments)]
    fn derived_stats(
        &self,
        c_in: usize,
        c_out: usize,
        h_out: usize,
        w_out: usize,
        kr: usize,
        kc: usize,
        time_steps: usize,
        spike_work: u64,
        first_band: bool,
    ) -> UnitStats {
        let passes = (c_out * time_steps * c_in) as u64;
        let row_slots = self.row_slots(h_out, w_out, kr);
        UnitStats {
            cycles: self.schedule_cycles(c_in, c_out, h_out, w_out, kr, kc, time_steps, first_band),
            adder_ops: c_out as u64 * spike_work,
            activation_reads: passes * row_slots,
            kernel_reads: passes * row_slots * kc as u64,
            output_writes: (c_out * h_out * w_out) as u64,
            ..UnitStats::default()
        }
    }

    /// Closed-form cycle count of [`ConvolutionUnit::run_layer`] for a
    /// square-kernel layer with the given dimensions — the formula the
    /// analytical timing model uses, and (being the very expression the
    /// engine derives its counters from) exactly the value reported in
    /// [`ConvResult::stats`].
    pub fn layer_cycles(
        &self,
        c_in: usize,
        c_out: usize,
        h_out: usize,
        w_out: usize,
        kernel: usize,
        time_steps: usize,
    ) -> u64 {
        self.schedule_cycles(c_in, c_out, h_out, w_out, kernel, kernel, time_steps, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceConvolutionUnit;
    use snn_tensor::ops;

    fn unit(x: usize, y: usize) -> ConvolutionUnit {
        ConvolutionUnit::new(ArrayGeometry {
            columns: x,
            rows: y,
        })
    }

    fn reference(
        input: &Tensor<i64>,
        kernel: &Tensor<i64>,
        bias: &Tensor<i64>,
        stride: usize,
        padding: usize,
    ) -> Tensor<i64> {
        let acc = ops::conv2d(input, kernel, None, stride, padding).unwrap();
        let dims = acc.shape().dims().to_vec();
        let (o, hw) = (dims[0], dims[1] * dims[2]);
        let mut out = acc.clone();
        for oc in 0..o {
            for i in 0..hw {
                out.as_mut_slice()[oc * hw + i] += bias.as_slice()[oc];
            }
        }
        out
    }

    #[test]
    fn matches_reference_convolution_bit_exactly() {
        let input =
            Tensor::from_vec(vec![2, 5, 5], (0..50).map(|v| (v * 7 % 8) as i64).collect()).unwrap();
        let kernel = Tensor::from_vec(
            vec![3, 2, 3, 3],
            (0..54).map(|v| ((v % 7) as i64) - 3).collect(),
        )
        .unwrap();
        let bias = Tensor::from_vec(vec![3], vec![5i64, -2, 0]).unwrap();
        let result = unit(8, 3)
            .run_layer(&input, &kernel, &bias, 3, 1, 0)
            .unwrap();
        let expected = reference(&input, &kernel, &bias, 1, 0);
        assert_eq!(result.accumulators, expected);
    }

    #[test]
    fn matches_reference_with_padding_and_stride() {
        let input =
            Tensor::from_vec(vec![1, 6, 6], (0..36).map(|v| (v % 4) as i64).collect()).unwrap();
        let kernel = Tensor::from_vec(
            vec![2, 1, 3, 3],
            (0..18).map(|v| ((v % 5) as i64) - 2).collect(),
        )
        .unwrap();
        let bias = Tensor::filled(vec![2], 1i64);
        let result = unit(4, 3)
            .run_layer(&input, &kernel, &bias, 2, 2, 1)
            .unwrap();
        let expected = reference(&input, &kernel, &bias, 2, 1);
        assert_eq!(result.accumulators, expected);
    }

    #[test]
    fn column_tiling_does_not_change_results() {
        let input =
            Tensor::from_vec(vec![1, 5, 9], (0..45).map(|v| (v % 3) as i64).collect()).unwrap();
        let kernel = Tensor::from_vec(vec![1, 1, 3, 3], vec![1i64; 9]).unwrap();
        let bias = Tensor::filled(vec![1], 0i64);
        // Wide unit (no tiling) vs narrow unit (tiling) must agree.
        let wide = unit(16, 3)
            .run_layer(&input, &kernel, &bias, 2, 1, 0)
            .unwrap();
        let narrow = unit(2, 3)
            .run_layer(&input, &kernel, &bias, 2, 1, 0)
            .unwrap();
        assert_eq!(wide.accumulators, narrow.accumulators);
    }

    #[test]
    fn silent_input_uses_no_adders() {
        let input = Tensor::filled(vec![1, 4, 4], 0i64);
        let kernel = Tensor::filled(vec![1, 1, 3, 3], 3i64);
        let bias = Tensor::filled(vec![1], 0i64);
        let result = unit(4, 3)
            .run_layer(&input, &kernel, &bias, 4, 1, 0)
            .unwrap();
        assert_eq!(result.stats.adder_ops, 0);
        assert!(result.accumulators.iter().all(|&v| v == 0));
        // Cycles are still consumed: the schedule is input-independent.
        assert!(result.stats.cycles > 0);
    }

    #[test]
    fn denser_spike_trains_cost_more_adder_operations() {
        let kernel = Tensor::filled(vec![1, 1, 3, 3], 1i64);
        let bias = Tensor::filled(vec![1], 0i64);
        let sparse = Tensor::filled(vec![1, 4, 4], 1i64); // one spike (LSB)
        let dense = Tensor::filled(vec![1, 4, 4], 7i64); // three spikes
        let u = unit(4, 3);
        let sparse_ops = u
            .run_layer(&sparse, &kernel, &bias, 3, 1, 0)
            .unwrap()
            .stats
            .adder_ops;
        let dense_ops = u
            .run_layer(&dense, &kernel, &bias, 3, 1, 0)
            .unwrap()
            .stats
            .adder_ops;
        assert_eq!(dense_ops, 3 * sparse_ops);
    }

    #[test]
    fn cycle_count_matches_closed_form() {
        let input =
            Tensor::from_vec(vec![3, 6, 6], (0..108).map(|v| (v % 8) as i64).collect()).unwrap();
        let kernel = Tensor::filled(vec![4, 3, 3, 3], 1i64);
        let bias = Tensor::filled(vec![4], 0i64);
        let u = unit(2, 3);
        let result = u.run_layer(&input, &kernel, &bias, 5, 1, 0).unwrap();
        let expected = u.layer_cycles(3, 4, 4, 4, 3, 5);
        assert_eq!(result.stats.cycles, expected);
    }

    #[test]
    fn cycles_scale_linearly_with_time_steps() {
        let input = Tensor::filled(vec![1, 5, 5], 3i64);
        let kernel = Tensor::filled(vec![1, 1, 3, 3], 1i64);
        let bias = Tensor::filled(vec![1], 0i64);
        let u = unit(3, 3);
        let c3 = u
            .run_layer(&input, &kernel, &bias, 3, 1, 0)
            .unwrap()
            .stats
            .cycles;
        let c6 = u
            .run_layer(&input, &kernel, &bias, 6, 1, 0)
            .unwrap()
            .stats
            .cycles;
        assert_eq!(c6, 2 * c3);
    }

    #[test]
    fn oversized_kernel_is_rejected() {
        let input = Tensor::filled(vec![1, 8, 8], 1i64);
        let kernel = Tensor::filled(vec![1, 1, 5, 5], 1i64);
        let bias = Tensor::filled(vec![1], 0i64);
        // Only 3 adder rows — a 5-row kernel cannot be mapped.
        let err = unit(8, 3)
            .run_layer(&input, &kernel, &bias, 3, 1, 0)
            .unwrap_err();
        assert!(matches!(err, AccelError::UnsupportedLayer { .. }));
    }

    #[test]
    fn overlong_spike_trains_are_rejected() {
        let input = Tensor::filled(vec![1, 4, 4], 1i64);
        let kernel = Tensor::filled(vec![1, 1, 3, 3], 1i64);
        let bias = Tensor::filled(vec![1], 0i64);
        let u = unit(4, 3);
        assert!(u.run_layer(&input, &kernel, &bias, 63, 1, 0).is_ok());
        assert!(matches!(
            u.run_layer(&input, &kernel, &bias, 64, 1, 0),
            Err(AccelError::UnsupportedLayer { .. })
        ));
    }

    #[test]
    fn dense_gather_threshold_never_changes_results() {
        // The threshold used to select a row kernel and is now ignored:
        // whatever it is set to, accumulators and stats must match the
        // default exactly.
        let input = Tensor::from_vec(
            vec![2, 6, 6],
            (0..72).map(|v| ((v * 5) % 8) as i64).collect(),
        )
        .unwrap();
        let kernel = Tensor::from_vec(
            vec![3, 2, 3, 3],
            (0..54).map(|v| ((v % 7) as i64) - 3).collect(),
        )
        .unwrap();
        let bias = Tensor::from_vec(vec![3], vec![1i64, -2, 0]).unwrap();
        let geometry = ArrayGeometry {
            columns: 6,
            rows: 3,
        };
        let default = ConvolutionUnit::new(geometry)
            .run_layer(&input, &kernel, &bias, 3, 1, 1)
            .unwrap();
        for threshold in [0.0, 0.25, 2.0, 1.0e6] {
            let tuned = ConvolutionUnit::with_threshold(geometry, threshold)
                .run_layer(&input, &kernel, &bias, 3, 1, 1)
                .unwrap();
            assert_eq!(tuned.accumulators, default.accumulators, "thr={threshold}");
            assert_eq!(tuned.stats, default.stats, "thr={threshold}");
        }
    }

    #[test]
    fn row_bands_sum_to_the_untiled_layer() {
        use crate::memory::RowBand;
        let input = Tensor::from_vec(
            vec![2, 9, 7],
            (0..2 * 9 * 7).map(|v| ((v * 11) % 16) as i64).collect(),
        )
        .unwrap();
        let kernel = Tensor::from_vec(
            vec![3, 2, 3, 3],
            (0..54).map(|v| ((v % 7) as i64) - 3).collect(),
        )
        .unwrap();
        let bias = Tensor::from_vec(vec![3], vec![2i64, -1, 4]).unwrap();
        let u = unit(4, 3);
        for (stride, padding, t, rows) in [(1, 0, 4, 2), (2, 1, 3, 1), (1, 2, 5, 3), (3, 0, 2, 1)] {
            let whole = u
                .run_layer(&input, &kernel, &bias, t, stride, padding)
                .unwrap();
            let dims = whole.accumulators.shape().dims().to_vec();
            let (h_out, w_out) = (dims[1], dims[2]);
            let h = input.shape().dims()[1];
            let mut summed = UnitStats::default();
            let mut stitched = Tensor::filled(dims.clone(), 0i64);
            for lo in (0..h_out).step_by(rows) {
                let hi = (lo + rows).min(h_out);
                let in_lo = (lo * stride).saturating_sub(padding);
                let in_hi = ((hi - 1) * stride + 3).saturating_sub(padding).min(h);
                let band = RowBand {
                    out_lo: lo,
                    out_hi: hi,
                    in_lo,
                    in_hi,
                };
                // Gather the halo-extended input band.
                let mut band_data = Vec::new();
                for c in 0..2 {
                    band_data.extend_from_slice(
                        &input.as_slice()[c * h * 7 + in_lo * 7..c * h * 7 + in_hi * 7],
                    );
                }
                let band_input = Tensor::from_vec(vec![2, in_hi - in_lo, 7], band_data).unwrap();
                let part = u
                    .run_layer_band(&band_input, &kernel, &bias, t, stride, padding, &band)
                    .unwrap();
                summed += part.stats;
                for oc in 0..dims[0] {
                    let src = part.accumulators.as_slice();
                    let dst = stitched.as_mut_slice();
                    let bh = hi - lo;
                    dst[oc * h_out * w_out + lo * w_out..oc * h_out * w_out + hi * w_out]
                        .copy_from_slice(&src[oc * bh * w_out..(oc + 1) * bh * w_out]);
                }
            }
            assert_eq!(stitched, whole.accumulators, "s={stride} p={padding} t={t}");
            assert_eq!(summed, whole.stats, "s={stride} p={padding} t={t}");
        }
    }

    #[test]
    fn radix_weighting_is_applied_msb_first() {
        // Single 1x1 kernel of weight 1: the accumulator must equal the
        // input level itself, demonstrating the left-shift accumulation.
        let input = Tensor::from_vec(vec![1, 1, 2], vec![5i64, 3]).unwrap();
        let kernel = Tensor::from_vec(vec![1, 1, 1, 1], vec![1i64]).unwrap();
        let bias = Tensor::filled(vec![1], 0i64);
        let result = unit(2, 1)
            .run_layer(&input, &kernel, &bias, 3, 1, 0)
            .unwrap();
        assert_eq!(result.accumulators.as_slice(), &[5, 3]);
    }

    #[test]
    fn out_of_range_levels_are_truncated_like_the_schedule() {
        // A level above 2^T - 1 only contributes its T low bits in the
        // cycle-stepped schedule; the engine must mask identically.
        let input = Tensor::from_vec(vec![1, 2, 2], vec![9i64, -1, 4, 3]).unwrap();
        let kernel = Tensor::filled(vec![1, 1, 2, 2], 2i64);
        let bias = Tensor::filled(vec![1], 1i64);
        let u = unit(4, 2);
        let fast = u.run_layer(&input, &kernel, &bias, 2, 1, 0).unwrap();
        let slow = ReferenceConvolutionUnit::new(u.geometry())
            .run_layer(&input, &kernel, &bias, 2, 1, 0)
            .unwrap();
        assert_eq!(fast.accumulators, slow.accumulators);
        assert_eq!(fast.stats, slow.stats);
    }

    #[test]
    fn stats_and_accumulators_match_the_reference_unit() {
        let input = Tensor::from_vec(
            vec![2, 7, 7],
            (0..98).map(|v| ((v * 13) % 16) as i64).collect(),
        )
        .unwrap();
        let kernel = Tensor::from_vec(
            vec![3, 2, 3, 3],
            (0..54).map(|v| ((v % 7) as i64) - 3).collect(),
        )
        .unwrap();
        let bias = Tensor::from_vec(vec![3], vec![2i64, -1, 4]).unwrap();
        for (stride, padding, t) in [(1, 0, 4), (2, 1, 3), (1, 2, 5), (3, 0, 1)] {
            let u = unit(4, 3);
            let fast = u
                .run_layer(&input, &kernel, &bias, t, stride, padding)
                .unwrap();
            let slow = ReferenceConvolutionUnit::new(u.geometry())
                .run_layer(&input, &kernel, &bias, t, stride, padding)
                .unwrap();
            assert_eq!(
                fast.accumulators, slow.accumulators,
                "s={stride} p={padding} t={t}"
            );
            assert_eq!(fast.stats, slow.stats, "s={stride} p={padding} t={t}");
        }
    }
}
