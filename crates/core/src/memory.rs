//! Memory management: ping-pong activation buffer sizing, weight memory, the
//! external DRAM model (Section III-C of the paper) and the **tiling
//! planner** that fits deep models into a fixed activation-buffer budget.
//!
//! Activations are kept entirely on chip.  Two memory blocks exist, one for
//! two-dimensional feature maps (convolution/pooling stages) and one for
//! one-dimensional activations (fully-connected stages); each is a
//! *ping-pong* pair so a layer can read its input from one half while
//! writing its output to the other.  Convolution kernels and weights either
//! fit entirely in on-chip block RAM or are fetched from external DRAM
//! before each layer.
//!
//! # Tiled activation buffers
//!
//! Sizing the ping-pong halves for the largest feature map
//! ([`ActivationBufferPlan`]) works for LeNet-class models but not for
//! VGG-11, whose widest layer alone exceeds any realistic on-chip budget.
//! When [`crate::config::AcceleratorConfig::activation_buffer_bytes`] is
//! set, [`plan_network_tiles`] instead splits every oversized layer into
//! **row-band tiles**: the read half holds one halo-extended band of input
//! rows, the write half one band of output rows, and the bands stream
//! through the buffer pair in order.  The planner is halo-aware (a band's
//! input rows include the `kernel - stride` rows shared with its
//! neighbour), aligns convolution bands to a following pooling window so
//! no pooling window straddles two bands, and tiles fully-connected
//! layers into lane-aligned output chunks.  Budget accounting models the
//! hardware representation: every activation element costs its `T`-bit
//! radix code, so a tile of `e` elements occupies `ceil(e * T / 8)` bytes
//! and a layer's working set is `bytes(input tile) + bytes(output tile)`.
//!
//! The plan is a compile-time model, like the paper's buffers sized to the
//! network at design time: the compiler checks the budget with it and
//! records each layer's tiling, and the host runs every layer whole.  Every
//! unit counter is defined so that the per-tile values sum to exactly the
//! whole layer's counters, so the plan changes no reported bit; the one
//! count the band partition changes, the optional product-sparsity
//! accounting, is scoped to the plan's bands.  Property tests replay the
//! plan tile by tile through the units' band entries and pin the stitched
//! result to the whole-layer run.

use crate::config::{AcceleratorConfig, MemoryOption};
use crate::{AccelError, Result};
use serde::{Deserialize, Serialize};
use snn_model::{LayerSpec, NetworkSpec};

/// Capacity of one Xilinx-style block RAM in bits (36 kb).
pub const BRAM36_BITS: u64 = 36 * 1024;

/// Converts a bit count into 36 kb block-RAM blocks.
pub fn bits_to_bram36(bits: u64) -> u64 {
    bits.div_ceil(BRAM36_BITS)
}

/// Sizing of the on-chip activation buffers.
///
/// The width and height of the buffers are chosen so that the activations
/// of every relevant layer fit while the size is minimal — here that means
/// sizing each ping/pong half for the largest feature map it will ever hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivationBufferPlan {
    /// Bits in each half of the two-dimensional ping-pong buffer.
    pub buffer_2d_bits: u64,
    /// Bits in each half of the one-dimensional ping-pong buffer.
    pub buffer_1d_bits: u64,
    /// Spike-train length the plan was computed for.
    pub time_steps: usize,
}

impl ActivationBufferPlan {
    /// Computes buffer sizes for a network and spike-train length.
    ///
    /// Every activation element is stored as its `T`-bit radix code.
    pub fn for_network(net: &NetworkSpec, time_steps: usize) -> Self {
        let mut max_2d = net.input_shape().iter().product::<usize>();
        let mut max_1d = 0usize;
        for i in 0..net.layers().len() {
            let out: usize = net.layer_output_shape(i).iter().product();
            if net.layer_output_shape(i).len() == 3 {
                max_2d = max_2d.max(out);
            } else {
                max_1d = max_1d.max(out);
            }
        }
        ActivationBufferPlan {
            buffer_2d_bits: (max_2d * time_steps) as u64,
            buffer_1d_bits: (max_1d * time_steps) as u64,
            time_steps,
        }
    }

    /// Total on-chip bits for both ping-pong pairs (×2 for ping and pong).
    pub fn total_bits(&self) -> u64 {
        2 * (self.buffer_2d_bits + self.buffer_1d_bits)
    }

    /// Number of 36 kb BRAM blocks needed for the activation buffers.
    pub fn bram36(&self) -> u64 {
        bits_to_bram36(2 * self.buffer_2d_bits) + bits_to_bram36(2 * self.buffer_1d_bits)
    }
}

/// Sizing and placement of the weight memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightMemoryPlan {
    /// Total parameter storage in bits at the configured weight precision.
    pub total_weight_bits: u64,
    /// Largest single layer's weights in bits (the DRAM staging buffer must
    /// hold one layer at a time).
    pub max_layer_weight_bits: u64,
    /// Where the weights live.
    pub option: MemoryOption,
}

impl WeightMemoryPlan {
    /// Computes the weight-memory plan for a network.
    pub fn for_network(net: &NetworkSpec, weight_bits: u8, option: MemoryOption) -> Self {
        let mut total = 0u64;
        let mut max_layer = 0u64;
        for layer in net.layers() {
            let bits = layer.parameter_count() as u64 * weight_bits as u64;
            total += bits;
            max_layer = max_layer.max(bits);
        }
        WeightMemoryPlan {
            total_weight_bits: total,
            max_layer_weight_bits: max_layer,
            option,
        }
    }

    /// On-chip BRAM blocks used for weights: the whole model for
    /// [`MemoryOption::OnChip`], one layer's staging buffer for
    /// [`MemoryOption::Dram`].
    pub fn bram36(&self) -> u64 {
        match self.option {
            MemoryOption::OnChip => bits_to_bram36(self.total_weight_bits),
            MemoryOption::Dram => bits_to_bram36(self.max_layer_weight_bits),
        }
    }
}

/// Simple external-DRAM model: a fixed bus width per accelerator clock
/// cycle plus a per-bit transfer energy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramModel {
    /// Usable bus width in bits per accelerator cycle.
    pub bus_bits: usize,
    /// Energy per transferred bit in picojoules (DDR4-class interface).
    pub energy_pj_per_bit: f64,
}

impl Default for DramModel {
    fn default() -> Self {
        DramModel {
            bus_bits: 64,
            energy_pj_per_bit: 20.0,
        }
    }
}

impl DramModel {
    /// Creates a DRAM model matching an accelerator configuration.
    pub fn from_config(config: &AcceleratorConfig) -> Self {
        DramModel {
            bus_bits: config.dram_bus_bits,
            ..DramModel::default()
        }
    }

    /// Cycles needed to stream `bits` of parameters into the accelerator.
    pub fn transfer_cycles(&self, bits: u64) -> u64 {
        bits.div_ceil(self.bus_bits as u64)
    }

    /// Energy in microjoules for transferring `bits`.
    pub fn transfer_energy_uj(&self, bits: u64) -> f64 {
        bits as f64 * self.energy_pj_per_bit * 1e-6
    }
}

// ---------------------------------------------------------------------------
// Tiling planner
// ---------------------------------------------------------------------------

/// Bytes a tile of `elements` activation values occupies on chip when every
/// value is stored as its `time_steps`-bit radix code.
pub fn tile_bytes(elements: usize, time_steps: usize) -> u64 {
    ((elements * time_steps) as u64).div_ceil(8)
}

/// One row-band tile of a two-dimensional layer, in whole-layer
/// coordinates: the tile computes output rows `out_lo..out_hi` from the
/// halo-extended input rows `in_lo..in_hi` (all channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowBand {
    /// First output row of the band (inclusive).
    pub out_lo: usize,
    /// Last output row of the band (exclusive).
    pub out_hi: usize,
    /// First input row the band reads (inclusive).
    pub in_lo: usize,
    /// Last input row the band reads (exclusive).
    pub in_hi: usize,
}

impl RowBand {
    /// Number of output rows the band produces.
    pub fn out_rows(&self) -> usize {
        self.out_hi - self.out_lo
    }

    /// Number of input rows the band reads.
    pub fn in_rows(&self) -> usize {
        self.in_hi - self.in_lo
    }

    /// Whether this is the first band of its layer (the pipeline-fill
    /// cycles of the schedule are charged to it).
    pub fn is_first(&self) -> bool {
        self.out_lo == 0
    }
}

/// How one layer's activations are split to fit the configured buffer
/// budget.  A layer that fits untiled has no `LayerTiling` at all.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerTiling {
    /// Convolution/pooling layers: the output feature map is produced in
    /// row bands, each with its halo-extended input band resident.
    RowBands {
        /// The bands, in output-row order, covering every output row
        /// exactly once.
        bands: Vec<RowBand>,
        /// Output rows per full band (the final band may be shorter).
        rows_per_tile: usize,
    },
    /// Fully-connected layers: the whole input vector stays resident and
    /// the output neurons are produced in lane-aligned chunks.
    OutputChunks {
        /// Output neurons per chunk — always a multiple of the linear
        /// unit's lane count so per-chunk cycle counts sum exactly to the
        /// untiled schedule (the final chunk may be shorter).
        chunk: usize,
    },
}

impl LayerTiling {
    /// Number of tiles the layer is split into.
    pub fn tile_count(&self, output_extent: usize) -> usize {
        match self {
            LayerTiling::RowBands { bands, .. } => bands.len(),
            LayerTiling::OutputChunks { chunk } => output_extent.div_ceil((*chunk).max(1)),
        }
    }
}

/// Activation tiling of a whole network under one buffer budget.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TilePlan {
    /// Per-layer tiling, `None` where the layer fits untiled.
    pub layers: Vec<Option<LayerTiling>>,
    /// The byte budget the plan was computed for.
    pub budget_bytes: u64,
    /// Spike-train length the byte accounting used.
    pub time_steps: usize,
}

impl TilePlan {
    /// Whether any layer needed tiling.
    pub fn is_tiled(&self) -> bool {
        self.layers.iter().any(Option::is_some)
    }

    /// Number of layers that execute tiled.
    pub fn tiled_layers(&self) -> usize {
        self.layers.iter().filter(|t| t.is_some()).count()
    }
}

/// Working-set bytes of layer `index` executed *untiled*: the full input
/// plus the full output activation map at `time_steps`-bit radix codes.
pub fn layer_footprint_bytes(net: &NetworkSpec, index: usize, time_steps: usize) -> u64 {
    let input: usize = net.layer_input_shape(index).iter().product();
    let output: usize = net.layer_output_shape(index).iter().product();
    tile_bytes(input, time_steps) + tile_bytes(output, time_steps)
}

/// The largest untiled per-layer working set of the network — the budget an
/// untiled execution would need.  Tiling is interesting exactly when the
/// configured budget is (much) smaller than this.
pub fn largest_layer_footprint_bytes(net: &NetworkSpec, time_steps: usize) -> u64 {
    (0..net.layers().len())
        .map(|i| layer_footprint_bytes(net, i, time_steps))
        .max()
        .unwrap_or(0)
}

/// Input rows a band of `out_rows` convolution output rows needs in the
/// worst case (interior band, halo on both sides), clamped to the layer's
/// input height.
fn conv_band_input_rows(out_rows: usize, kernel: usize, stride: usize, input_h: usize) -> usize {
    ((out_rows - 1) * stride + kernel).min(input_h)
}

/// The halo-extended input row range of a convolution output band.
fn conv_band(
    out_lo: usize,
    out_hi: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    input_h: usize,
) -> RowBand {
    let in_lo = (out_lo * stride).saturating_sub(padding);
    let in_hi = ((out_hi - 1) * stride + kernel)
        .saturating_sub(padding)
        .min(input_h);
    RowBand {
        out_lo,
        out_hi,
        in_lo,
        in_hi,
    }
}

/// Plans row-band tiling for every layer of `net` so that each layer's
/// working set — the halo-extended input tile plus the output tile, both at
/// `time_steps`-bit radix codes — fits in `budget_bytes`.
///
/// Layers whose full input + output already fit get `None` (untiled).
/// Convolution bands are rounded down to a multiple of a directly
/// following pooling layer's window when possible, so each band's output
/// rows pool without reaching into the next band.  Flatten is a pure
/// element-wise buffer transfer and never needs tiling.  Fully-connected
/// layers keep the whole input vector resident and chunk their outputs in
/// multiples of `linear_lanes`.
///
/// # Errors
///
/// Returns [`AccelError::BufferBudget`] when even the smallest possible
/// tile of some layer (one output row, or one lane group of output
/// neurons) exceeds the budget.
pub fn plan_network_tiles(
    net: &NetworkSpec,
    time_steps: usize,
    budget_bytes: u64,
    linear_lanes: usize,
) -> Result<TilePlan> {
    let lanes = linear_lanes.max(1);
    let mut layers = Vec::with_capacity(net.layers().len());
    for (i, layer) in net.layers().iter().enumerate() {
        let in_shape = net.layer_input_shape(i);
        let out_shape = net.layer_output_shape(i);
        if layer_footprint_bytes(net, i, time_steps) <= budget_bytes {
            layers.push(None);
            continue;
        }
        let tiling = match *layer {
            LayerSpec::Conv2d {
                kernel,
                stride,
                padding,
                ..
            } => {
                let (c_in, h, w) = (in_shape[0], in_shape[1], in_shape[2]);
                let (c_out, h_out, w_out) = (out_shape[0], out_shape[1], out_shape[2]);
                let band_bytes = |rows: usize| {
                    tile_bytes(
                        c_in * conv_band_input_rows(rows, kernel, stride, h) * w,
                        time_steps,
                    ) + tile_bytes(c_out * rows * w_out, time_steps)
                };
                let mut rows = (1..=h_out)
                    .take_while(|&r| band_bytes(r) <= budget_bytes)
                    .last()
                    .ok_or(AccelError::BufferBudget {
                        layer: i,
                        required_bytes: band_bytes(1),
                        budget_bytes,
                    })?;
                // Align to a directly following pooling window so each
                // band can be pooled independently.
                if let Some(LayerSpec::Pool { window, .. }) = net.layers().get(i + 1) {
                    if rows >= *window {
                        rows -= rows % *window;
                    }
                }
                let bands = (0..h_out)
                    .step_by(rows)
                    .map(|lo| conv_band(lo, (lo + rows).min(h_out), kernel, stride, padding, h))
                    .collect();
                LayerTiling::RowBands {
                    bands,
                    rows_per_tile: rows,
                }
            }
            LayerSpec::Pool { window, .. } => {
                let (c, h) = (in_shape[0], in_shape[1]);
                let (w, h_out, w_out) = (in_shape[2], out_shape[1], out_shape[2]);
                // The final band also carries the `h % window` trailing
                // input rows a non-divisible height leaves below the last
                // window (so streamed spike counts partition exactly), so
                // size every band for that worst case.
                let trailing = h - h_out * window;
                let band_bytes = |rows: usize| {
                    tile_bytes(c * (rows * window + trailing) * w, time_steps)
                        + tile_bytes(c * rows * w_out, time_steps)
                };
                let rows = (1..=h_out)
                    .take_while(|&r| band_bytes(r) <= budget_bytes)
                    .last()
                    .ok_or(AccelError::BufferBudget {
                        layer: i,
                        required_bytes: band_bytes(1),
                        budget_bytes,
                    })?;
                let bands = (0..h_out)
                    .step_by(rows)
                    .map(|lo| {
                        let hi = (lo + rows).min(h_out);
                        RowBand {
                            out_lo: lo,
                            out_hi: hi,
                            // The final band also carries any input rows a
                            // non-divisible height leaves below the last
                            // window, so streamed spike counts match the
                            // untiled unit exactly.
                            in_lo: lo * window,
                            in_hi: if hi == h_out { h } else { hi * window },
                        }
                    })
                    .collect();
                LayerTiling::RowBands {
                    bands,
                    rows_per_tile: rows,
                }
            }
            // A flatten step moves one element per cycle between the 2-D
            // and 1-D buffers; it has no working set beyond the maps the
            // adjacent layers already account for.
            LayerSpec::Flatten => {
                layers.push(None);
                continue;
            }
            LayerSpec::Linear { in_features, .. } => {
                let out_features = out_shape[0];
                let input_bytes = tile_bytes(in_features, time_steps);
                let lane_chunk_bytes = input_bytes + tile_bytes(lanes, time_steps);
                if lane_chunk_bytes > budget_bytes {
                    return Err(AccelError::BufferBudget {
                        layer: i,
                        required_bytes: lane_chunk_bytes,
                        budget_bytes,
                    });
                }
                let spare_bits = (budget_bytes - input_bytes) * 8;
                let max_outputs = ((spare_bits / time_steps.max(1) as u64) as usize)
                    .min(out_features)
                    .max(lanes);
                LayerTiling::OutputChunks {
                    chunk: (max_outputs - max_outputs % lanes).max(lanes),
                }
            }
        };
        layers.push(Some(tiling));
    }
    Ok(TilePlan {
        layers,
        budget_bytes,
        time_steps,
    })
}

/// Aggregate memory-traffic statistics of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryTraffic {
    /// Bits streamed from external DRAM (zero for on-chip weight storage).
    pub dram_bits: u64,
    /// On-chip activation-buffer reads (rows).
    pub activation_reads: u64,
    /// On-chip weight-memory reads (words).
    pub weight_reads: u64,
    /// On-chip activation-buffer writes (values).
    pub activation_writes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_model::zoo;

    #[test]
    fn bram_conversion_rounds_up() {
        assert_eq!(bits_to_bram36(1), 1);
        assert_eq!(bits_to_bram36(BRAM36_BITS), 1);
        assert_eq!(bits_to_bram36(BRAM36_BITS + 1), 2);
    }

    #[test]
    fn lenet_activation_plan_is_dominated_by_first_conv_output() {
        let net = zoo::lenet5();
        let plan = ActivationBufferPlan::for_network(&net, 4);
        // Largest 2-D activation of LeNet-5 is 6x28x28 = 4704 values.
        assert_eq!(plan.buffer_2d_bits, 4704 * 4);
        // Largest 1-D activation is the flattened 120 / fc 120 = 120 values.
        assert_eq!(plan.buffer_1d_bits, 120 * 4);
        assert!(plan.total_bits() > 0);
        assert!(plan.bram36() >= 1);
    }

    #[test]
    fn buffer_grows_with_time_steps() {
        let net = zoo::lenet5();
        let p3 = ActivationBufferPlan::for_network(&net, 3);
        let p6 = ActivationBufferPlan::for_network(&net, 6);
        assert_eq!(p6.buffer_2d_bits, 2 * p3.buffer_2d_bits);
    }

    #[test]
    fn weight_plan_counts_all_parameters() {
        let net = zoo::lenet5();
        let plan = WeightMemoryPlan::for_network(&net, 3, MemoryOption::OnChip);
        assert_eq!(plan.total_weight_bits, net.parameter_count() as u64 * 3);
        assert!(plan.max_layer_weight_bits < plan.total_weight_bits);
        // On-chip option stores everything, DRAM option only one layer.
        let dram_plan = WeightMemoryPlan::for_network(&net, 3, MemoryOption::Dram);
        assert!(dram_plan.bram36() <= plan.bram36());
    }

    #[test]
    fn vgg_weights_do_not_fit_realistically_on_chip() {
        let net = zoo::vgg11(100);
        let plan = WeightMemoryPlan::for_network(&net, 3, MemoryOption::OnChip);
        // 28.5M parameters at 3 bits ≈ 85.6 Mbit — far more than the
        // ~94 Mbit total BRAM of even the largest UltraScale+ parts once
        // activations are accounted for, which is why the paper streams
        // VGG weights from DRAM.
        assert!(plan.total_weight_bits > 80_000_000);
    }

    #[test]
    fn dram_transfer_cycles_round_up() {
        let dram = DramModel {
            bus_bits: 64,
            energy_pj_per_bit: 20.0,
        };
        assert_eq!(dram.transfer_cycles(64), 1);
        assert_eq!(dram.transfer_cycles(65), 2);
        assert!(dram.transfer_energy_uj(1_000_000) > 0.0);
    }

    #[test]
    fn tile_bytes_rounds_radix_bits_up() {
        assert_eq!(tile_bytes(0, 4), 0);
        assert_eq!(tile_bytes(1, 4), 1); // 4 bits -> 1 byte
        assert_eq!(tile_bytes(2, 4), 1); // 8 bits -> 1 byte
        assert_eq!(tile_bytes(3, 4), 2); // 12 bits -> 2 bytes
        assert_eq!(tile_bytes(10, 3), 4); // 30 bits -> 4 bytes
    }

    #[test]
    fn generous_budget_plans_no_tiling() {
        let net = zoo::tiny_cnn();
        let plan = plan_network_tiles(&net, 4, 1 << 20, 32).unwrap();
        assert!(!plan.is_tiled());
        assert_eq!(plan.layers.len(), net.layers().len());
    }

    #[test]
    fn conv_bands_partition_output_rows_with_halo_extended_inputs() {
        // LeNet conv1: 1x32x32 -> 6x28x28, 5x5 kernel, stride 1, no pad.
        let net = zoo::lenet5();
        let budget = 2048u64; // far below conv1's ~21 KiB footprint at T=4
        let plan = plan_network_tiles(&net, 4, budget, 32).unwrap();
        let Some(LayerTiling::RowBands { bands, .. }) = &plan.layers[0] else {
            panic!("conv1 should be tiled");
        };
        assert!(bands.len() > 1);
        // Bands cover 0..28 exactly once, in order.
        let mut next = 0;
        for band in bands {
            assert_eq!(band.out_lo, next);
            next = band.out_hi;
            // Halo: a band of R output rows reads R + kernel - stride
            // extra rows (clamped at the borders).
            assert_eq!(band.in_lo, band.out_lo); // stride 1, no padding
            assert_eq!(band.in_hi, (band.out_hi - 1 + 5).min(32));
            // And its working set respects the budget.
            let in_bytes = tile_bytes(band.in_rows() * 32, 4);
            let out_bytes = tile_bytes(6 * band.out_rows() * 28, 4);
            assert!(in_bytes + out_bytes <= budget);
        }
        assert_eq!(next, 28);
        assert!(bands[0].is_first());
        assert!(!bands[1].is_first());
    }

    #[test]
    fn conv_bands_align_to_a_following_pool_window() {
        // VGG-11 conv1 feeds 2x2 max pooling: tile heights must be even
        // so no pooling window straddles two bands.
        let net = zoo::vgg11(10);
        let plan = plan_network_tiles(&net, 4, 8 * 1024, 32).unwrap();
        assert!(plan.is_tiled());
        for (i, layer) in net.layers().iter().enumerate() {
            let feeds_pool = matches!(net.layers().get(i + 1), Some(LayerSpec::Pool { .. }));
            if let (true, Some(LayerTiling::RowBands { bands, .. })) = (feeds_pool, &plan.layers[i])
            {
                assert!(matches!(layer, LayerSpec::Conv2d { .. }));
                for band in bands {
                    assert_eq!(band.out_rows() % 2, 0, "layer {i} band {band:?}");
                }
            }
        }
    }

    #[test]
    fn pool_bands_stay_within_budget_including_trailing_rows() {
        use snn_model::{LayerSpec, NetworkSpec};
        // 9 input rows, 2x2 window: the final band carries the trailing
        // ninth row, and the planner must budget for it.
        let net =
            NetworkSpec::new("odd-pool", vec![3, 9, 8], vec![LayerSpec::avg_pool2()]).unwrap();
        let budget = 66u64;
        let plan = plan_network_tiles(&net, 4, budget, 32).unwrap();
        let Some(LayerTiling::RowBands { bands, .. }) = &plan.layers[0] else {
            panic!("pool should be tiled");
        };
        let mut covered_in = 0;
        for band in bands {
            let bytes =
                tile_bytes(3 * band.in_rows() * 8, 4) + tile_bytes(3 * band.out_rows() * 4, 4);
            assert!(bytes <= budget, "band {band:?} uses {bytes} B");
            covered_in = band.in_hi;
        }
        // Every input row — including the unread trailing one — belongs
        // to exactly one band, so streamed spike counts partition.
        assert_eq!(covered_in, 9);
        assert_eq!(bands.last().unwrap().in_rows(), 3);
    }

    #[test]
    fn impossible_budget_is_a_typed_error_naming_the_layer() {
        let net = zoo::lenet5();
        // 8 bytes cannot hold even one output row of conv1.
        match plan_network_tiles(&net, 4, 8, 32) {
            Err(AccelError::BufferBudget {
                layer,
                required_bytes,
                budget_bytes,
            }) => {
                assert_eq!(layer, 0);
                assert!(required_bytes > budget_bytes);
                assert_eq!(budget_bytes, 8);
            }
            other => panic!("expected BufferBudget, got {other:?}"),
        }
    }

    #[test]
    fn linear_chunks_are_lane_aligned() {
        use snn_model::{LayerSpec, NetworkSpec};
        let net =
            NetworkSpec::new("big-fc", vec![4096], vec![LayerSpec::linear(4096, 4096)]).unwrap();
        // T = 4: the input vector costs 2 KiB; a 3 KiB budget leaves 1 KiB
        // of spare for 2048 output codes — far below the 4096 outputs.
        let plan = plan_network_tiles(&net, 4, 3 * 1024, 32).unwrap();
        match &plan.layers[0] {
            Some(LayerTiling::OutputChunks { chunk }) => {
                assert_eq!(*chunk, 2048);
                assert_eq!(chunk % 32, 0);
            }
            other => panic!("expected output chunks, got {other:?}"),
        }
        // A budget that cannot even hold one lane group is a typed error.
        match plan_network_tiles(&net, 4, 2049, 32) {
            Err(AccelError::BufferBudget { layer, .. }) => assert_eq!(layer, 0),
            other => panic!("expected BufferBudget, got {other:?}"),
        }
    }

    #[test]
    fn vgg11_fits_a_budget_four_times_below_its_largest_layer() {
        let net = zoo::vgg11(10);
        let largest = largest_layer_footprint_bytes(&net, 4);
        let budget = 8 * 1024u64;
        assert!(
            largest >= 4 * budget,
            "largest layer {largest} B is not 4x the {budget} B budget"
        );
        let plan = plan_network_tiles(&net, 4, budget, 32).unwrap();
        // The seven early layers (conv1..conv4 and the first three pools)
        // all exceed 8 KiB untiled; the narrow late layers fit.
        assert_eq!(plan.tiled_layers(), 7);
    }
}
