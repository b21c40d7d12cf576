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
//!   (`level & level_mask(T)`).  The input map is channel-last, `[H, W,
//!   C]` levels — bytes for trains of up to 8 steps, `i64` beyond (see
//!   [`crate::units`]) — so a pixel's channels lie side by side: the engine
//!   scans them once, up to 64 at a time as one spike mask
//!   ([`snn_tensor::simd::spiking`]: compare with zero and movemask), into
//!   a flat `(column, channel, level)` spike list, and then, for each
//!   spike, adds
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
//!   the input register shifts.  Spikes at the same pixel in different
//!   input channels reach the same accumulator rows through the same runs,
//!   with different weight rows, so the list is built **pixel-major**
//!   (within each group of channels, below), each pixel's spike count on
//!   its first spike.  The scatter works out a pixel's runs once and cuts
//!   its spikes into blocks of up to four: a block is one
//!   [`snn_tensor::simd::axpy_taps`] call of one run per kernel row (5 on
//!   LeNet-5, 3 on VGG-11), which adds its members' products in registers
//!   and loads and stores each accumulator lane once — the paper's output
//!   logic, which sums over input channels before it writes back.  At
//!   larger strides the same loop emits runs of one tap.  The accumulators
//!   are channel-last too, so the layer ends without a transpose: the
//!   level epilogue (`units::Ending::finish`, one dispatched
//!   [`snn_tensor::simd::drain_levels`] over all rows) adds the bias and
//!   maps each sum to its level by the layer's requantisation thresholds,
//!   writing the next layer's `[H, W, O]` input.  Only the frozen
//!   `[C, H, W]` entries (and a classifier) end in the raw epilogue: the
//!   sums transposed to `[O, H, W]`, widened to `i64` and biased.  Those
//!   entries rearrange their input channel-last and run the same list
//!   builder and scatter in the `i64` instantiation.  Wrapping integer sums are
//!   associative and commutative, so neither the order of the spikes nor
//!   their blocks change a bit: the result is bit-identical to the
//!   cycle-stepped reference — including
//!   for out-of-range levels, which the mask truncates to exactly the bits
//!   the schedule would see.  The whole loop runs on the calling thread:
//!   the paper's units working side by side on different output channels
//!   are *modelled* (every cycle count comes from [`crate::timing`]), and
//!   splitting the lanes over host threads measured slower than not, alone
//!   and inside a batch (the numbers are in `ARCHITECTURE.md`), so the
//!   host runs requests, not layers, in parallel.  Spike list, reach
//!   tables, accumulator rows and the epilogue's staged biases and
//!   thresholds live in the caller's [`EngineScratch`], so the layers of an
//!   inference allocate them once.
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
//!   (groups ascending) cross into the next group.  The list is pixel-major
//!   *within* a group, and a block never leaves its group, so every
//!   partial sum the 16-bit rows ever hold is one the proof bounds: a
//!   block's products are partial sums of its group.  Both rows hold the
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
//!   counters from an ic-major spike list it builds for itself — from the
//!   map rearranged channel-first and its occupancy words, rebuilt only
//!   when it is enabled — and never touches the compute.  It links rows only within
//!   one row band, so a layer under a tile plan runs it once per plan band
//!   (over the whole map, the rows that feed none of the band's outputs
//!   dropping out) and sums the counts.
//!   Property tests assert both parts equal the counter-stepped values of
//!   [`crate::reference::ReferenceConvolutionUnit`] exactly.

use crate::config::ArrayGeometry;
use crate::memory::RowBand;
use crate::units::{
    channel_first, channel_last, map_dims, unsupported, Ending, EngineScratch, Epilogue,
    KernelSource, Lane, LaneRows, Map, UnitStats,
};
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

/// One spike in the arena: where it is, the input channel it comes from,
/// its masked level, and — on the first of a pixel's spikes in the
/// scatter's list — how many spikes at that pixel follow in a row.  16
/// bytes, as a `(u32, i64)` pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spike {
    /// The column (the input neuron, in the linear engine's list).
    pub(crate) at: u32,
    /// The input channel in the low [`CHANNEL_BITS`] bits; above them, on
    /// the first of a pixel's spikes, their count (zero elsewhere).
    channel_and_count: u32,
    /// The masked level.
    pub(crate) level: i64,
}

/// Bits of [`Spike::channel_and_count`] that hold the input channel; the
/// seven above hold a pixel's spike count of at most [`SLICE`].
const CHANNEL_BITS: u32 = 25;

impl Spike {
    /// A spike at `at` from input channel `channel`, the first of `count`
    /// spikes at its pixel (0: not the first).
    pub(crate) fn new(at: usize, channel: usize, level: i64, count: usize) -> Self {
        debug_assert!(channel < 1 << CHANNEL_BITS && count <= SLICE);
        Spike {
            at: at as u32,
            channel_and_count: channel as u32 | (count as u32) << CHANNEL_BITS,
            level,
        }
    }

    /// Records `count` spikes at this spike's pixel, this one the first.
    fn set_count(&mut self, count: usize) {
        debug_assert!(count <= SLICE && self.count() == 0);
        self.channel_and_count |= (count as u32) << CHANNEL_BITS;
    }

    fn channel(self) -> usize {
        (self.channel_and_count & ((1 << CHANNEL_BITS) - 1)) as usize
    }

    fn count(self) -> usize {
        (self.channel_and_count >> CHANNEL_BITS) as usize
    }
}

/// One non-silent input row of a band: a range of the spike arena.
#[derive(Debug)]
pub(crate) struct SpikeRow {
    /// The first input channel of the row's spikes: the row's channel in an
    /// ic-major list, the first channel of its group in a pixel-major one.
    ic: usize,
    /// Band-local input row.
    iy: usize,
    start: usize,
    end: usize,
}

/// Every spiking pixel of a band that feeds at least one output row, as
/// ranges into one buffer of [`Spike`]s — built once per band call.  The
/// scatter's list is **pixel-major**: one row per `(channel group, input
/// row)`, the groups ascending, and within a row the spikes ascend by
/// `(column, channel slice, channel)`, so the spikes of one pixel's slice
/// sit side by side, their count recorded on the first.  The scatter cuts each such
/// run into blocks of at most [`simd::BLOCK`]; a slice is at most
/// [`SLICE`] channels of one group, so no block leaves its group.  The
/// linear engine keeps its list of `(input neuron, masked level)` spikes
/// in the arena alone.
#[derive(Debug, Default)]
pub(crate) struct Spikes {
    rows: Vec<SpikeRow>,
    pub(crate) arena: Vec<Spike>,
}

impl Spikes {
    fn of(&self, row: &SpikeRow) -> &[Spike] {
        &self.arena[row.start..row.end]
    }
}

/// Channels whose spikes at one pixel the list builder gathers at a time:
/// one `u64` spike mask of a pixel's channel levels.
const SLICE: usize = 64;

/// Fills `spikes` with the scatter's pixel-major list (see [`Spikes`]) of
/// the channel-last band `map` for groups of `channels_per_group` input
/// channels, and returns the adder work of ONE output channel: each
/// spike's set bits times the `(kernel tap, output)` pairs that cover it.
/// A pixel's channels of a group lie side by side, so each slice of at
/// most [`SLICE`] of them is one spike mask ([`simd::spiking`]), whose set
/// bits hand the spiking channels out in ascending order, the count on
/// the first.  Columns no output reads are skipped: they would add
/// nothing.
fn fill_pixel_major<L: simd::Level>(
    map: Map<'_, L>,
    mask: i64,
    spikes: &mut Spikes,
    channels_per_group: usize,
    y_reach: &[Reach],
    x_reach: &[Reach],
) -> u64 {
    spikes.rows.clear();
    spikes.arena.clear();
    let arena = &mut spikes.arena;
    let mut spike_work = 0u64;
    if map.c == 0 {
        return 0;
    }
    // At most one spike per level: grow the arena once, not by doubling.
    arena.reserve(map.levels.len());
    for group in (0..map.c).step_by(channels_per_group) {
        let group_end = group.saturating_add(channels_per_group).min(map.c);
        for (iy, ys) in y_reach.iter().enumerate() {
            if ys.count == 0 {
                continue;
            }
            let start = arena.len();
            let mut row_work = 0u64;
            let row = &map.levels[iy * map.w * map.c..][..map.w * map.c];
            if map.c == 1 {
                // One channel (LeNet-5's first layer): the row is the list.
                for (ix, (xs, &level)) in x_reach.iter().zip(row).enumerate() {
                    let bits = level.spikes(mask);
                    if bits != 0 && xs.count != 0 {
                        row_work += u64::from(bits) * u64::from(xs.count);
                        arena.push(Spike::new(ix, 0, level.into() & mask, 1));
                    }
                }
            } else {
                for (ix, (xs, pixel)) in x_reach.iter().zip(row.chunks_exact(map.c)).enumerate() {
                    if xs.count == 0 {
                        continue;
                    }
                    let mut bits = 0u64;
                    let mut slice = group;
                    while slice < group_end {
                        let levels = &pixel[slice..(slice + SLICE).min(group_end)];
                        let mut members = simd::spiking(levels, mask);
                        if members != 0 {
                            let first = arena.len();
                            while members != 0 {
                                let k = members.trailing_zeros() as usize;
                                members &= members - 1;
                                bits += u64::from(levels[k].spikes(mask));
                                arena.push(Spike::new(ix, slice + k, levels[k].into() & mask, 0));
                            }
                            let count = arena.len() - first;
                            arena[first].set_count(count);
                        }
                        slice += SLICE;
                    }
                    row_work += bits * u64::from(xs.count);
                }
            }
            if arena.len() == start {
                continue;
            }
            spike_work += u64::from(ys.count) * row_work;
            spikes.rows.push(SpikeRow {
                ic: group,
                iy,
                start,
                end: arena.len(),
            });
        }
    }
    spike_work
}

/// What the product-sparsity accounting reads of a band: its levels
/// channel-first and their occupancy, rebuilt from the channel-last map
/// only when the accounting runs.
struct BandSpikes<'a> {
    occupancy: &'a bitplane::Occupancy,
    levels: &'a [i64],
    mask: i64,
    c_in: usize,
    band_h: usize,
    w: usize,
}

impl BandSpikes<'_> {
    /// The levels of input channel `ic`'s band row `iy`.
    fn row(&self, ic: usize, iy: usize) -> &[i64] {
        &self.levels[(ic * self.band_h + iy) * self.w..][..self.w]
    }

    /// The band's spikes ic-major: one row per non-silent `(channel, input
    /// row)` that feeds an output row, columns ascending — the rows the
    /// product-sparsity accounting compares, built only when it runs.
    fn ic_major(&self, y_reach: &[Reach]) -> Spikes {
        let mut spikes = Spikes::default();
        for ic in 0..self.c_in {
            for (iy, ys) in y_reach.iter().enumerate() {
                if ys.count == 0 {
                    continue;
                }
                let levels = self.row(ic, iy);
                let start = spikes.arena.len();
                bitplane::for_each_set_bit(self.occupancy.row(ic * self.band_h + iy), 0, |ix| {
                    spikes
                        .arena
                        .push(Spike::new(ix, ic, levels[ix] & self.mask, 1));
                });
                if spikes.arena.len() > start {
                    spikes.rows.push(SpikeRow {
                        ic,
                        iy,
                        start,
                        end: spikes.arena.len(),
                    });
                }
            }
        }
        spikes
    }
}

/// Walks `child`'s spikes against `parent`'s (both ascending by column):
/// when every parent spike appears in `child` with an equal level, returns
/// the adder work and the set bits of `child`'s spikes outside `parent`'s
/// support; `None` otherwise.
fn containment_diff(parent: &[Spike], child: &[Spike], x_reach: &[Reach]) -> Option<(u64, u64)> {
    let (mut work, mut bits) = (0u64, 0u64);
    let mut pi = 0;
    for spike in child {
        if pi < parent.len() && parent[pi].at == spike.at {
            if parent[pi].level != spike.level {
                return None;
            }
            pi += 1;
        } else {
            let pop = u64::from(spike.level.count_ones());
            bits += pop;
            work += pop * u64::from(x_reach[spike.at as usize].count);
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
    band: &BandSpikes<'_>,
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
    let spikes = band.ic_major(y_reach);
    let (occupancy, band_h) = (band.occupancy, band.band_h);
    let rows = &spikes.rows;
    let mut links = vec![Link::default(); rows.len()];
    for (link, row) in links.iter_mut().zip(rows) {
        link.row_work = spikes
            .of(row)
            .iter()
            .map(|spike| {
                u64::from(spike.level.count_ones()) * u64::from(x_reach[spike.at as usize].count)
            })
            .sum();
    }

    // Channel groups are contiguous: these spike rows are ic-major.
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

/// Runs handed to the kernel per call.  At stride one a pixel makes one
/// run per kernel row — 3 on VGG-11, 5 on LeNet-5 — and at larger strides
/// at most `Kr x Kc` runs of one tap, so one call per block is the rule; a
/// larger kernel just takes more calls.
const TAP_BATCH: usize = 32;

/// What a band's scatter works on, apart from the element types.
struct ScatterJob<'a> {
    weights: &'a PackedWeights,
    spikes: &'a Spikes,
    y_reach: &'a [Reach],
    x_reach: &'a [Reach],
    stride: usize,
    out_h: usize,
    w_out: usize,
}

/// The one scatter loop: every block of spikes at one pixel adds its
/// members' levels times their packed weight rows (of element `W`) into
/// the accumulator row of each output position the pixel covers, and the
/// rows end as `end` says ([`Ending::finish`]).  The rows are channel-last,
/// `[position][lane]`.  The pixel-major list ([`Spikes`]) records how many
/// spikes each pixel has, so the loop reads where a pixel's spikes end and
/// cuts them into blocks without searching.
///
/// The spikes scatter into rows of element `S`.  With `group: None` those
/// are the layer's sums themselves (`A` is then `S`, and unused).  With
/// `Some(g)` they are the 16-bit partial sums of `g` consecutive input
/// channels at a time — `g` must be at most [`PackedWeights::i16_group`],
/// and the list built for groups of `g` — which are widen-added into rows
/// of element `A` whenever the spike rows cross into the next group, and
/// after the last.
fn scatter<W: simd::WeightLane, S: Lane, A: Lane, L: simd::Level>(
    job: &ScatterJob<'_>,
    codes: &[W],
    group: Option<usize>,
    rows: &mut LaneRows,
    end: Ending<'_, L>,
) {
    let &ScatterJob {
        weights,
        spikes,
        y_reach,
        out_h,
        w_out,
        ..
    } = job;
    let lanes = weights.lanes();
    let out_positions = out_h * w_out;
    let mut sums = rows.take::<S>(out_positions * lanes);
    let mut wide = rows.take::<A>(group.map_or(0, |_| out_positions * lanes));
    let mut taps = [simd::Tap::default(); TAP_BATCH];
    for members in spikes.rows.chunk_by(|a, b| a.ic == b.ic) {
        for row in members {
            let row_spikes = spikes.of(row);
            let mut at = 0;
            while at < row_spikes.len() {
                let pixel = &row_spikes[at..at + row_spikes[at].count()];
                scatter_pixel(job, codes, y_reach[row.iy], pixel, &mut sums, &mut taps);
                at += pixel.len();
            }
        }
        if group.is_some() {
            simd::drain_partials(&mut wide, &mut sums);
        }
    }

    match group {
        Some(_) => end.finish(&wide, lanes, rows),
        None => end.finish(&sums, lanes, rows),
    }
    // `wide` first: where `A` is `S` it is the empty stand-in, and the row
    // worth keeping is `sums`.
    rows.give(wide);
    rows.give(sums);
}

/// The spikes at one pixel (input row `ys`, the column of `pixel[0]`):
/// along one kernel row the pixel reaches `count` outputs through taps
/// `stride` apart; the columns being stored reversed, at stride one those
/// are consecutive weight rows for consecutive accumulator rows, and one
/// tap of `count x lanes` covers the run.  At larger strides each tap is
/// its own run.  The taps are worked out once for all of the pixel's
/// blocks.
fn scatter_pixel<W: simd::WeightLane, S: Lane>(
    job: &ScatterJob<'_>,
    codes: &[W],
    ys: Reach,
    pixel: &[Spike],
    sums: &mut [S],
    taps: &mut [simd::Tap; TAP_BATCH],
) {
    let &ScatterJob {
        weights,
        x_reach,
        stride,
        w_out,
        ..
    } = job;
    let (kc, lanes) = (weights.kernel_cols(), weights.lanes());
    let channel_len = weights.kernel_rows() * kc * lanes;
    let xs = x_reach[pixel[0].at as usize];
    let run = if stride == 1 {
        (xs.count as usize).max(1)
    } else {
        1
    };
    let width = run * lanes;
    let mut pending = 0;
    for (ky, oy) in ys.taps(stride) {
        for (kx, ox) in xs.taps(stride).step_by(run) {
            if pending == TAP_BATCH {
                scatter_blocks(codes, channel_len, pixel, taps, width, sums);
                pending = 0;
            }
            taps[pending] = simd::Tap {
                acc_at: (oy * w_out + ox) * lanes,
                w_at: (ky * kc + kc - 1 - kx) * lanes,
            };
            pending += 1;
        }
    }
    scatter_blocks(codes, channel_len, pixel, &taps[..pending], width, sums);
}

/// A pixel's spikes over `taps`, in blocks of up to [`simd::BLOCK`]: one
/// kernel call per block, which adds the members' products in registers
/// and loads and stores each accumulator lane once.
fn scatter_blocks<W: simd::WeightLane, S: Lane>(
    codes: &[W],
    channel_len: usize,
    pixel: &[Spike],
    taps: &[simd::Tap],
    width: usize,
    sums: &mut [S],
) {
    for block in pixel.chunks(simd::BLOCK) {
        match block.len() {
            1 => block_axpy::<1, _, _>(codes, channel_len, block, taps, width, sums),
            2 => block_axpy::<2, _, _>(codes, channel_len, block, taps, width, sums),
            3 => block_axpy::<3, _, _>(codes, channel_len, block, taps, width, sums),
            _ => block_axpy::<4, _, _>(codes, channel_len, block, taps, width, sums),
        }
    }
}

/// One block of `N` spikes: each member's channel of packed weights and its
/// level, handed to the kernel together.
fn block_axpy<const N: usize, W: simd::WeightLane, S: Lane>(
    codes: &[W],
    channel_len: usize,
    block: &[Spike],
    taps: &[simd::Tap],
    width: usize,
    sums: &mut [S],
) {
    let channels: [&[W]; N] =
        std::array::from_fn(|m| &codes[block[m].channel() * channel_len..][..channel_len]);
    let levels: [S; N] = std::array::from_fn(|m| S::from_level(block[m].level));
    simd::axpy_taps(sums, channels, taps, width, levels);
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

    /// Executes one convolution layer on this unit.
    ///
    /// * `input_levels` — `[C, H, W]` radix levels of the input activations
    ///   (each level's binary expansion is the spike train, MSB first).
    /// * `kernel_codes` — a layer's packed kernels, or raw `[O, C, K, K]`
    ///   codes packed for this one call (see [`KernelSource`]).
    /// * `bias_acc` — `[O]` biases pre-scaled to accumulator units.
    /// * `time_steps` — spike-train length `T`.
    ///
    /// Runs [`ConvolutionUnit::run_packed`] with a throw-away scratch.
    ///
    /// # Errors
    ///
    /// As [`ConvolutionUnit::run_packed`], plus
    /// [`AccelError::UnsupportedLayer`] when a raw kernel code does not fit
    /// the widest packed element, `i16`.
    pub fn run_layer<K: KernelSource + ?Sized>(
        &self,
        input_levels: &Tensor<i64>,
        kernel_codes: &K,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        stride: usize,
        padding: usize,
    ) -> Result<ConvResult> {
        self.run_packed(
            input_levels,
            &*kernel_codes.packed(PackedWeights::from_conv)?,
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
        self.run_raw(
            input_levels,
            weights,
            bias_acc,
            time_steps,
            stride,
            padding,
            None,
            scratch,
        )
    }

    /// Executes one **row-band tile** of a convolution layer, from a
    /// layer's packed kernels or raw `[O, C, K, K]` codes packed for this
    /// one call (see [`KernelSource`]), with a throw-away scratch.
    ///
    /// `band_levels` holds only the halo-extended input rows
    /// `band.in_lo..band.in_hi` of the full feature map (all channels,
    /// `[C, band.in_rows(), W]`); the result covers output rows
    /// `band.out_lo..band.out_hi` (`[O, band.out_rows(), W_out]`).  The
    /// executor runs whole layers; this entry replays one tile of the
    /// compile-time plan ([`crate::memory::plan_network_tiles`]), as the
    /// stand-alone benchmark package and the plan-replay property tests do.
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
    /// the caller contract above), or when a raw kernel code does not fit
    /// the widest packed element, `i16`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_layer_band<K: KernelSource + ?Sized>(
        &self,
        band_levels: &Tensor<i64>,
        kernel_codes: &K,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        stride: usize,
        padding: usize,
        band: &RowBand,
    ) -> Result<ConvResult> {
        self.run_raw(
            band_levels,
            &*kernel_codes.packed(PackedWeights::from_conv)?,
            bias_acc,
            time_steps,
            stride,
            padding,
            Some(band),
            &mut EngineScratch::new(),
        )
    }

    /// The entries' path: `[C, H, W]` levels rearranged channel-last, the
    /// one execution path in its `i64` instantiation, and the raw sums as
    /// `[O, H_out, W_out]` accumulators.
    #[allow(clippy::too_many_arguments)]
    fn run_raw(
        &self,
        band_levels: &Tensor<i64>,
        weights: &PackedWeights,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        stride: usize,
        padding: usize,
        band: Option<&RowBand>,
        scratch: &mut EngineScratch,
    ) -> Result<ConvResult> {
        let [c, h, w] = map_dims(
            band_levels,
            "convolution unit expects [C,H,W] inputs and [O,C,K,K] kernels",
        )?;
        let mut levels = Vec::new();
        channel_last(band_levels.as_slice(), c, h, w, &mut levels, |level| level);
        let input = Map {
            levels: &levels,
            h,
            w,
            c,
        };
        let mut sums = Vec::new();
        let (stats, [out_h, w_out]) = self.run(
            input,
            weights,
            bias_acc,
            time_steps,
            stride,
            padding,
            band,
            None,
            scratch,
            Epilogue::Raw(&mut sums),
        )?;
        Ok(ConvResult {
            accumulators: Tensor::from_vec(vec![weights.c_out(), out_h, w_out], sums)
                .map_err(AccelError::Tensor)?,
            stats,
        })
    }

    /// The one execution path: the row band `band` of a layer (`None`: the
    /// whole layer) from its channel-last input rows `input`, ending in
    /// `epilogue`, with the product-sparsity accounting run once per band
    /// of `accounting` (a partition of the band's output rows — a layer's
    /// tile plan; `None`: the band itself) and summed.  The accounting
    /// links rows only within one band, so it is the one counter the
    /// partition changes.  Returns the counters and the output rows and
    /// columns.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<L: simd::Level>(
        &self,
        input: Map<'_, L>,
        weights: &PackedWeights,
        bias_acc: &Tensor<i64>,
        time_steps: usize,
        stride: usize,
        padding: usize,
        band: Option<&RowBand>,
        accounting: Option<&[RowBand]>,
        scratch: &mut EngineScratch,
        epilogue: Epilogue<'_, L>,
    ) -> Result<(UnitStats, [usize; 2])> {
        let Map {
            h: band_h,
            w,
            c: c_in,
            ..
        } = input;
        let band = match band {
            Some(band) => *band,
            None => {
                let kernel = (weights.kernel_rows(), weights.kernel_cols());
                let (h_out, _) = ops::conv2d_output_dims((band_h, w), kernel, stride, padding)
                    .map_err(AccelError::Tensor)?;
                RowBand {
                    out_lo: 0,
                    out_hi: h_out,
                    in_lo: 0,
                    in_hi: band_h,
                }
            }
        };
        let accounting = accounting.unwrap_or(std::slice::from_ref(&band));
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
        if c_in >= 1 << CHANNEL_BITS {
            return Err(unsupported(format!(
                "{c_in} input channels exceed the spike list's {CHANNEL_BITS}-bit channel field"
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
        let mut next_row = band.out_lo;
        let partitioned = accounting.iter().all(|scope| {
            let follows = scope.out_lo == next_row && scope.out_hi > scope.out_lo;
            next_row = scope.out_hi;
            follows
        });
        if !partitioned || next_row != band.out_hi {
            return Err(unsupported(format!(
                "accounting bands {accounting:?} do not partition output rows {}..{}",
                band.out_lo, band.out_hi
            )));
        }
        if w + 2 * padding < kc {
            return Err(unsupported(format!(
                "kernel of {kc} columns does not fit a padded width of {w}"
            )));
        }
        let w_out = (w + 2 * padding - kc) / stride + 1;
        let out_h = band.out_rows();

        let mask = bitplane::level_mask(time_steps);

        // Which outputs, through which kernel taps, each input coordinate
        // feeds — shared by the statistics and the scatter loop.  Row reach
        // is band-local; column reach spans the full width.
        let EngineScratch {
            spikes,
            y_reach,
            x_reach,
            rows,
            drain,
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

        // --- Which elements the compute runs in: the narrowest the packed
        // weights prove exact for this spike-train length — 8-bit codes in
        // 16-bit groups under a 32-bit row where all three hold, else the
        // 32-bit or 64-bit row alone.  The spike list is cut into groups to
        // match. ---
        let narrow = weights.sums_fit_i32(time_steps);
        let group = match weights.codes() {
            Codes::I8(_) if narrow && weights.i16_group(time_steps) >= 1 => {
                Some(weights.i16_group(time_steps))
            }
            _ => None,
        };

        // --- One walk over the pixels' channel levels gathers the
        // pixel-major spike list the scatter walks and, folded into it,
        // the popcount behind the data-dependent adder activity. ---
        let spike_work = fill_pixel_major(
            input,
            mask,
            spikes,
            group.unwrap_or(c_in).max(1),
            y_reach,
            x_reach,
        );

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
            // The accounting compares channel rows: rebuild them
            // channel-first, with their occupancy.
            let mut levels = Vec::new();
            channel_first(input.levels, band_h * w, c_in, &mut levels, Into::into);
            let occupancy = bitplane::Occupancy::from_levels(&levels, c_in * band_h, w, time_steps);
            let band_spikes = BandSpikes {
                occupancy: &occupancy,
                levels: &levels,
                mask,
                c_in,
                band_h,
                w,
            };
            // Per accounting band: only the rows that feed its outputs.
            stats.adder_ops = 0;
            let mut scope_reach = Vec::new();
            for scope in accounting {
                Reach::fill_axis(
                    &mut scope_reach,
                    band.in_lo..band.in_hi,
                    kr,
                    scope.out_lo..scope.out_hi,
                    stride,
                    padding,
                );
                let ps =
                    product_sparsity_counts(&band_spikes, &scope_reach, x_reach, stride, w_out);
                stats.adder_ops += c_out as u64 * ps.spike_work;
                stats.reused_partials += c_out as u64 * ps.reuse_events;
                stats.difference_bits += c_out as u64 * ps.difference_bits;
            }
        }

        // --- Compute, and the epilogue. ---
        let job = ScatterJob {
            weights,
            spikes,
            y_reach,
            x_reach,
            stride,
            out_h,
            w_out,
        };
        let e = Ending::new(weights, time_steps, bias_acc.as_slice(), epilogue, drain);
        match (weights.codes(), narrow, group) {
            (Codes::I8(c), _, Some(_)) => scatter::<_, i16, i32, L>(&job, c, group, rows, e),
            (Codes::I8(c), true, None) => scatter::<_, i32, i32, L>(&job, c, None, rows, e),
            (Codes::I8(c), false, None) => scatter::<_, i64, i64, L>(&job, c, None, rows, e),
            (Codes::I16(c), true, _) => scatter::<_, i32, i32, L>(&job, c, None, rows, e),
            (Codes::I16(c), false, _) => scatter::<_, i64, i64, L>(&job, c, None, rows, e),
        }
        Ok((stats, [out_h, w_out]))
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

    /// The pixel-major list of a band where all `c_in` channels spike at
    /// every pixel, built for groups of `group` channels: per row, the
    /// block sizes at each pixel in order.
    fn block_sizes(c_in: usize, group: usize) -> Vec<(usize, Vec<Vec<usize>>)> {
        let (h, w) = (2usize, 5usize);
        let levels: Vec<u8> = (0..c_in * h * w).map(|i| (i % 7 + 1) as u8).collect();
        let map = Map {
            levels: &levels,
            h,
            w,
            c: c_in,
        };
        let (mut y_reach, mut x_reach) = (Vec::new(), Vec::new());
        Reach::fill_axis(&mut y_reach, 0..h, 1, 0..h, 1, 0);
        Reach::fill_axis(&mut x_reach, 0..w, 1, 0..w, 1, 0);
        let mut spikes = Spikes::default();
        fill_pixel_major(map, 15, &mut spikes, group, &y_reach, &x_reach);
        spikes
            .rows
            .iter()
            .map(|row| {
                let row_spikes = spikes.of(row);
                let mut pixels: Vec<Vec<usize>> = Vec::new();
                let mut at = 0;
                while at < row_spikes.len() {
                    let pixel = &row_spikes[at..at + row_spikes[at].count()];
                    assert!(pixel[1..].iter().all(|s| s.count() == 0));
                    assert!(pixel.iter().all(|s| s.at == pixel[0].at), "one pixel");
                    assert!(pixel.windows(2).all(|p| p[0].channel() < p[1].channel()));
                    assert!(pixel
                        .iter()
                        .all(|s| (row.ic..row.ic + group).contains(&s.channel())));
                    assert_eq!(row.ic % group, 0, "rows start at a group");
                    // The blocks the scatter cuts the pixel's spikes into.
                    pixels.push(pixel.chunks(simd::BLOCK).map(<[Spike]>::len).collect());
                    at += pixel.len();
                }
                (row.ic, pixels)
            })
            .collect()
    }

    /// One row of a spike list: its first channel, its input row and its
    /// spikes as `(column, channel, masked level, count)`.
    type ListRow = (usize, usize, Vec<(u32, usize, i64, usize)>);

    /// The pixel-major list built straight from `[C, H, W]` levels, one
    /// level at a time: per `(group, input row)` that an output row reads,
    /// per column an output reads, per slice of at most [`SLICE`] of the
    /// group's channels, the spiking channels ascending with the count on
    /// the first — and the adder work of one output channel.
    fn oracle_list(
        chw: &[i64],
        [c, h, w]: [usize; 3],
        mask: i64,
        group: usize,
        y_reach: &[Reach],
        x_reach: &[Reach],
    ) -> (Vec<ListRow>, u64) {
        let mut rows = Vec::new();
        let mut work = 0u64;
        for first in (0..c).step_by(group) {
            let end = (first + group).min(c);
            for iy in (0..h).filter(|&iy| y_reach[iy].count > 0) {
                let mut row = Vec::new();
                for ix in (0..w).filter(|&ix| x_reach[ix].count > 0) {
                    for slice in (first..end).step_by(SLICE) {
                        let spiking: Vec<usize> = (slice..(slice + SLICE).min(end))
                            .filter(|&ch| chw[(ch * h + iy) * w + ix] & mask != 0)
                            .collect();
                        for (nth, &ch) in spiking.iter().enumerate() {
                            let level = chw[(ch * h + iy) * w + ix] & mask;
                            let reach = u64::from(x_reach[ix].count * y_reach[iy].count);
                            work += u64::from(level.count_ones()) * reach;
                            let count = if nth == 0 { spiking.len() } else { 0 };
                            row.push((ix as u32, ch, level, count));
                        }
                    }
                }
                if !row.is_empty() {
                    rows.push((first, iy, row));
                }
            }
        }
        (rows, work)
    }

    /// The list the engine builds from the channel-last map in element `L`.
    fn byte_built_list<L: simd::Level>(
        hwc: &[L],
        [c, h, w]: [usize; 3],
        mask: i64,
        group: usize,
        y_reach: &[Reach],
        x_reach: &[Reach],
    ) -> (Vec<ListRow>, u64) {
        let map = Map {
            levels: hwc,
            h,
            w,
            c,
        };
        let mut spikes = Spikes::default();
        let work = fill_pixel_major(map, mask, &mut spikes, group, y_reach, x_reach);
        let rows = spikes
            .rows
            .iter()
            .map(|row| {
                let list = spikes.of(row);
                let list = list.iter().map(|s| (s.at, s.channel(), s.level, s.count()));
                (row.ic, row.iy, list.collect())
            })
            .collect();
        (rows, work)
    }

    #[test]
    fn the_byte_built_spike_list_is_the_channel_first_oracle_list() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Channel counts inside one slice, across the 64-channel slices and
        // groups that end mid-slice; stride, padding and kernel reach that
        // leave rows and columns unread.
        let shapes = [
            (1usize, 1usize),
            (3, 3),
            (7, 3),
            (64, 64),
            (65, 60),
            (130, 130),
            (130, 64),
        ];
        for (case, &(c, group)) in shapes.iter().enumerate() {
            for (t, stride, padding) in [(1usize, 1usize, 0usize), (4, 2, 1), (8, 1, 2), (9, 3, 0)]
            {
                let (h, w, kernel) = (5usize, 9usize, 3usize);
                let mask = bitplane::level_mask(t);
                // A third of the levels silent; the rest anywhere up to the
                // train's top level (255 at T = 8).
                let chw: Vec<i64> = (0..c * h * w)
                    .map(|_| match next() % 3 {
                        0 => 0,
                        _ => (next() as i64) & mask,
                    })
                    .collect();
                let (mut y_reach, mut x_reach) = (Vec::new(), Vec::new());
                let h_out = (h + 2 * padding - kernel) / stride + 1;
                let w_out = (w + 2 * padding - kernel) / stride + 1;
                Reach::fill_axis(&mut y_reach, 0..h, kernel, 0..h_out, stride, padding);
                Reach::fill_axis(&mut x_reach, 0..w, kernel, 0..w_out, stride, padding);
                let dims = [c, h, w];
                let oracle = oracle_list(&chw, dims, mask, group, &y_reach, &x_reach);
                assert!(oracle.1 > 0, "case {case}: the map spikes");
                let mut wide = Vec::new();
                channel_last(&chw, c, h, w, &mut wide, |level| level);
                let built = byte_built_list(&wide, dims, mask, group, &y_reach, &x_reach);
                assert_eq!(built, oracle, "i64, case {case}, T = {t}");
                if t <= 8 {
                    let mut bytes = Vec::new();
                    channel_last(&chw, c, h, w, &mut bytes, |level| level as u8);
                    let built = byte_built_list(&bytes, dims, mask, group, &y_reach, &x_reach);
                    assert_eq!(built, oracle, "u8, case {case}, T = {t}");
                }
            }
        }
    }

    #[test]
    fn the_spike_list_cuts_each_pixel_into_blocks_inside_its_group() {
        let every_pixel = |sizes: &[usize]| vec![sizes.to_vec(); 5];
        // Groups of 3 of 7 channels: 3, 3 and 1 at every pixel, one row
        // per (group, input row), groups ascending.
        let rows = block_sizes(7, 3);
        let starts: Vec<usize> = rows.iter().map(|&(ic, _)| ic).collect();
        assert_eq!(starts, [0, 0, 3, 3, 6, 6]);
        assert_eq!(rows[0].1, every_pixel(&[3]));
        assert_eq!(rows[2].1, every_pixel(&[3]));
        assert_eq!(rows[4].1, every_pixel(&[1]));
        // One group: blocks of four and a tail, never five.
        let rows = block_sizes(9, 9);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1, every_pixel(&[4, 4, 1]));
        let rows = block_sizes(6, 6);
        assert_eq!(rows[1].1, every_pixel(&[4, 2]));
        // One channel: blocks of one.
        assert_eq!(block_sizes(1, 1)[0].1, every_pixel(&[1]));
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
