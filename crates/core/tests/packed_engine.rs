//! The spike-major engine against the counter-stepped reference units, on
//! the axes its layout adds: output-channel lane tails (`c_out` not a
//! multiple of any vector width, and below all), weight codes at the
//! edge of the packed 16-bit element or — the `small` flag — 3-bit codes
//! stored in the 8-bit one, spike trains on both sides of the
//! kernels' fast paths (`vpmaddwd` below 2^15 in 32-bit lanes, `vpmuldq`
//! below 2^31 in 64-bit ones) up to the 63-bit limit (with out-of-range
//! levels the mask must truncate), row bands and output chunks, and an
//! all-silent input — in every element combination: with
//! codes at the `i16` edges the long trains overflow 32 bits and run wide,
//! with codes clamped to the layer's 32-bit budget every train length runs
//! narrow, and with 3-bit codes `T = 1, 4, 8, 9, 11` put the whole layer,
//! 60, 3, 1 and no channels of a 3×3 convolution (8191, 546, 32, 16 and 4
//! spikes of a linear layer) into one 16-bit group of partial sums.
//! Accumulators **and** `UnitStats` must match.  The seams are pinned
//! where they lie: `level_mask(T) x max Σ|w|` of exactly `2^31 - 1` runs
//! narrow and reaches it, exactly `2^31` runs wide; a group's sum of
//! exactly `±32767` stays in 16 bits, and one more contribution starts the
//! next group.
//!
//! Also here: a weight code the packed element cannot hold is a typed
//! error from every raw-tensor entry point, and a solo inference of a
//! tiled VGG-shaped network never starts the worker pool, whatever the
//! thread budget.

use proptest::prelude::*;
use snn_accel::config::{AcceleratorConfig, ArrayGeometry};
use snn_accel::conv::ConvolutionUnit;
use snn_accel::linear::LinearUnit;
use snn_accel::memory::RowBand;
use snn_accel::reference::{ReferenceConvolutionUnit, ReferenceLinearUnit};
use snn_accel::sim::Accelerator;
use snn_accel::units::{EngineScratch, UnitStats};
use snn_accel::AccelError;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::packed::{Codes, PackedWeights};
use snn_model::params::Parameters;
use snn_model::{LayerSpec, NetworkSpec};
use snn_tensor::bitplane::level_mask;
use snn_tensor::Tensor;
use std::process::Command;

/// Output-channel counts around the 4-, 8- and 16-lane vectors (and their
/// half steps) and the unrolled widths of the kernels.
const LANE_TAILS: [usize; 7] = [1, 3, 5, 6, 10, 17, 40];

/// Spike-train lengths that, under 3-bit codes, size a 16-bit group at the
/// whole layer, 60, 3, 1 and 0 channels of a 3×3 convolution (`1, 4, 8, 9,
/// 11`); around the narrow kernel's `level < 2^15` and the wide kernel's
/// `level < 2^31` fast paths; and at the 63-bit payload limit.
const TIME_STEPS: [usize; 12] = [1, 4, 8, 9, 11, 15, 16, 17, 30, 31, 32, 63];

/// Input-channel counts on both sides of those group sizes.  The ones past
/// three only go with `small` codes: the overflow-checked reference needs
/// `terms x level x code` inside `i64`.
const CHANNELS: [usize; 6] = [1, 2, 3, 5, 61, 125];

fn mix(i: usize, seed: u64) -> u64 {
    (i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seed)
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        >> 7
}

/// Weight codes.  `small`: 3-bit codes, `-4..=4`, which the pack stores in
/// 8 bits.  Otherwise a third at each edge of the `i16`-symmetric range,
/// the rest small.
fn code(i: usize, seed: u64, small: bool) -> i64 {
    let x = mix(i, seed);
    match x % 6 {
        _ if small => (x % 9) as i64 - 4,
        0 => 32767,
        1 => -32767,
        _ => (x % 7) as i64 - 3,
    }
}

/// `fan_in` codes for each of `outputs` channels, channel-major.  With
/// `narrow_for` a spike-train length, every channel's codes are clamped so
/// that its `Σ|w|` stays inside the budget `i32::MAX / level_mask(T)` —
/// the layer then provably runs in 32-bit accumulators.
fn codes(
    outputs: usize,
    fan_in: usize,
    seed: u64,
    small: bool,
    narrow_for: Option<usize>,
) -> Vec<i64> {
    let budget = narrow_for.map(|t| i32::MAX as u64 / level_mask(t).unsigned_abs().max(1));
    let mut out = Vec::with_capacity(outputs * fan_in);
    for o in 0..outputs {
        let mut left = budget.unwrap_or(u64::MAX);
        for i in 0..fan_in {
            let wanted = code(o * fan_in + i, seed, small);
            let magnitude = wanted.unsigned_abs().min(left);
            left -= magnitude;
            out.push(wanted.signum() * magnitude as i64);
        }
    }
    out
}

/// Levels for a spike train of `time_steps`: a third silent, the rest a
/// payload of at most 40 bits (so `terms x level x code` stays inside
/// `i64` for the overflow-checked reference), and a fifth of those with
/// bits *above* `time_steps` set — the sign bit, or everything above the
/// payload — which the engine's mask must drop exactly as the schedule
/// never sees them.
fn level(i: usize, seed: u64, time_steps: usize, silent: bool) -> i64 {
    let x = mix(i, seed ^ 0xabcd);
    if silent || x.is_multiple_of(3) {
        return 0;
    }
    let payload = (x >> 8) as i64 & ((1i64 << time_steps.min(40)) - 1);
    match (x >> 3) % 5 {
        0 if time_steps < 63 => payload | (-1i64 << time_steps),
        0 => payload | i64::MIN,
        _ => payload,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Convolution: whole layer and every row-band partition, through the
    /// packed entry points and through the raw one, equal the reference.
    /// Kernels are non-square, `1..=5` a side (1×1 and LeNet-5's 5×5
    /// among them), at strides `1..=3` and paddings below the kernel
    /// width: the runs of one spike along a kernel row are then whole,
    /// cut at either border, or single taps.
    #[test]
    fn packed_conv_matches_the_reference_unit(
        c_out_sel in 0usize..LANE_TAILS.len(),
        t_sel in 0usize..TIME_STEPS.len(),
        c_in_sel in 0usize..CHANNELS.len(),
        size in 5usize..9,
        kr in 1usize..=5,
        kc in 1usize..=5,
        stride in 1usize..=3,
        padding_sel in 0usize..5,
        rows_per_band in 1usize..4,
        columns in 1usize..6,
        silent in proptest::bool::ANY,
        narrow in proptest::bool::ANY,
        small in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let (c_out, time_steps) = (LANE_TAILS[c_out_sel], TIME_STEPS[t_sel]);
        let c_in = CHANNELS[if small { c_in_sel } else { c_in_sel % 3 }];
        let padding = padding_sel % kc;
        // One input in eight is all silent.
        let silent = silent && seed.is_multiple_of(4);
        let input = Tensor::from_vec(
            vec![c_in, size, size],
            (0..c_in * size * size).map(|i| level(i, seed, time_steps, silent)).collect(),
        ).unwrap();
        let kernels = Tensor::from_vec(
            vec![c_out, c_in, kr, kc],
            codes(c_out, c_in * kr * kc, seed, small, narrow.then_some(time_steps)),
        ).unwrap();
        let bias = Tensor::from_vec(
            vec![c_out],
            (0..c_out).map(|i| (i as i64) * 1000 - 3).collect(),
        ).unwrap();

        let geometry = ArrayGeometry { columns, rows: kr };
        let oracle = ReferenceConvolutionUnit::new(geometry)
            .run_layer(&input, &kernels, &bias, time_steps, stride, padding)
            .unwrap();
        let unit = ConvolutionUnit::new(geometry);
        let weights = PackedWeights::from_conv(&kernels).unwrap();
        prop_assert!(!narrow || weights.sums_fit_i32(time_steps));
        prop_assert!(!small || matches!(weights.codes(), Codes::I8(_)));
        // One scratch through every call of the case, as the executor's.
        let mut scratch = EngineScratch::new();

        let whole = unit
            .run_packed(&input, &weights, &bias, time_steps, stride, padding, &mut scratch)
            .unwrap();
        prop_assert_eq!(&whole.accumulators, &oracle.accumulators);
        prop_assert_eq!(whole.stats, oracle.stats);
        let raw = unit
            .run_layer(&input, &kernels, &bias, time_steps, stride, padding)
            .unwrap();
        prop_assert_eq!(&raw, &whole);
        if silent {
            prop_assert_eq!(whole.stats.adder_ops, 0);
        }

        // Row bands: stitched accumulators and summed counters.
        let dims = oracle.accumulators.shape().dims().to_vec();
        let (h_out, w_out) = (dims[1], dims[2]);
        let mut stitched = Tensor::filled(dims.clone(), 0i64);
        let mut summed = UnitStats::default();
        for lo in (0..h_out).step_by(rows_per_band) {
            let hi = (lo + rows_per_band).min(h_out);
            // A band that reads only padding still names one input row.
            let in_lo = (lo * stride).saturating_sub(padding).min(size - 1);
            let band = RowBand {
                out_lo: lo,
                out_hi: hi,
                in_lo,
                in_hi: ((hi - 1) * stride + kr)
                    .saturating_sub(padding)
                    .clamp(in_lo + 1, size),
            };
            let mut rows = Vec::new();
            for c in 0..c_in {
                rows.extend_from_slice(
                    &input.as_slice()[(c * size + band.in_lo) * size..(c * size + band.in_hi) * size],
                );
            }
            let band_input = Tensor::from_vec(vec![c_in, band.in_rows(), size], rows).unwrap();
            let part = unit
                .run_packed_band(
                    &band_input, &weights, &bias, time_steps, stride, padding, &band, &mut scratch,
                )
                .unwrap();
            summed += part.stats;
            for oc in 0..c_out {
                stitched.as_mut_slice()[(oc * h_out + lo) * w_out..(oc * h_out + hi) * w_out]
                    .copy_from_slice(
                        &part.accumulators.as_slice()[oc * (hi - lo) * w_out..(oc + 1) * (hi - lo) * w_out],
                    );
            }
        }
        prop_assert_eq!(&stitched, &oracle.accumulators);
        prop_assert_eq!(summed, oracle.stats);
    }

    /// Fully-connected: untiled and in every lane-aligned chunking.
    #[test]
    fn packed_linear_matches_the_reference_unit(
        outputs_sel in 0usize..LANE_TAILS.len(),
        t_sel in 0usize..TIME_STEPS.len(),
        inputs in 1usize..120,
        lanes in 1usize..8,
        groups_per_chunk in 1usize..4,
        silent in proptest::bool::ANY,
        narrow in proptest::bool::ANY,
        small in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let (outputs, time_steps) = (LANE_TAILS[outputs_sel], TIME_STEPS[t_sel]);
        let silent = silent && seed.is_multiple_of(4);
        let input = Tensor::from_vec(
            vec![inputs],
            (0..inputs).map(|i| level(i, seed, time_steps, silent)).collect(),
        ).unwrap();
        let codes = Tensor::from_vec(
            vec![outputs, inputs],
            codes(outputs, inputs, seed, small, narrow.then_some(time_steps)),
        ).unwrap();
        let bias = Tensor::from_vec(
            vec![outputs],
            (0..outputs).map(|i| 7 - (i as i64) * 100).collect(),
        ).unwrap();

        let oracle = ReferenceLinearUnit::new(lanes)
            .run_layer(&input, &codes, &bias, time_steps)
            .unwrap();
        let unit = LinearUnit::new(lanes);
        let weights = PackedWeights::from_linear(&codes).unwrap();
        prop_assert!(!narrow || weights.sums_fit_i32(time_steps));
        prop_assert!(!small || matches!(weights.codes(), Codes::I8(_)));
        let mut scratch = EngineScratch::new();
        let whole = unit
            .run_packed(&input, &weights, &bias, time_steps, &mut scratch)
            .unwrap();
        prop_assert_eq!(&whole.accumulators, &oracle.accumulators);
        prop_assert_eq!(whole.stats, oracle.stats);
        prop_assert_eq!(&unit.run_layer(&input, &codes, &bias, time_steps).unwrap(), &whole);

        let chunk = lanes * groups_per_chunk;
        let chunked = unit
            .run_packed_chunked(&input, &weights, &bias, time_steps, chunk, &mut scratch)
            .unwrap();
        prop_assert_eq!(&chunked, &whole);
        prop_assert_eq!(
            &unit.run_layer_chunked(&input, &codes, &bias, time_steps, chunk).unwrap(),
            &whole
        );
    }
}

/// The seam between the accumulator widths, on both units.  `2^31 - 1` is
/// prime, so `level_mask(T) x max Σ|w|` equals it only as `1 x (2^31 - 1)`
/// (`T = 1`: 65 537 codes of -32 767 and one of -32 768, every input
/// spiking) or `(2^31 - 1) x 1` (`T = 31`, one code of -1 under a
/// full-scale level — the far end of the `vpmulld` path); both must run
/// narrow and land exactly on `-(2^31 - 1)`.  One more unit of weight —
/// `2^31` as 2^17 codes of 2^14, all spiking at `T = 1` — must run wide:
/// the 32-bit sum would wrap to `-2^31`.
#[test]
fn the_width_seam_lies_exactly_at_i32_max() {
    let bound = i64::from(i32::MAX);
    let at_bound = |fan_in: usize| {
        let mut codes = vec![-32767i64; fan_in];
        codes[fan_in / 2] = -32768;
        codes
    };
    // (codes of the one output channel, T, input level, expected sum, narrow?)
    let cases = [
        (at_bound(65538), 1, 1i64, -bound, true),
        (vec![0, -1, 0, 0], 31, bound, -bound, true),
        (vec![1 << 14; 1 << 17], 1, 1, bound + 1, false),
    ];
    for (codes, time_steps, level, expected, narrow) in cases {
        let fan_in = codes.len();
        let bias = Tensor::from_vec(vec![1], vec![3i64]).unwrap();

        // Linear: one output neuron over `fan_in` inputs.
        let matrix = Tensor::from_vec(vec![1, fan_in], codes.clone()).unwrap();
        let weights = PackedWeights::from_linear(&matrix).unwrap();
        assert_eq!(
            weights.sums_fit_i32(time_steps),
            narrow,
            "linear fan-in {fan_in}"
        );
        let input = Tensor::filled(vec![fan_in], level);
        let fast = LinearUnit::new(1)
            .run_packed(
                &input,
                &weights,
                &bias,
                time_steps,
                &mut EngineScratch::new(),
            )
            .unwrap();
        let slow = ReferenceLinearUnit::new(1)
            .run_layer(&input, &matrix, &bias, time_steps)
            .unwrap();
        assert_eq!(fast.accumulators.as_slice(), &[expected + 3]);
        assert_eq!(fast.accumulators, slow.accumulators);
        assert_eq!(fast.stats, slow.stats);

        // Convolution: the same codes as a 2x1 kernel over `fan_in / 2`
        // channels of a 2x1 map — one output position under every tap.
        let kernels = Tensor::from_vec(vec![1, fan_in / 2, 2, 1], codes).unwrap();
        let weights = PackedWeights::from_conv(&kernels).unwrap();
        assert_eq!(
            weights.sums_fit_i32(time_steps),
            narrow,
            "conv fan-in {fan_in}"
        );
        let input = Tensor::filled(vec![fan_in / 2, 2, 1], level);
        let geometry = ArrayGeometry {
            columns: 1,
            rows: 2,
        };
        let fast = ConvolutionUnit::new(geometry)
            .run_packed(
                &input,
                &weights,
                &bias,
                time_steps,
                1,
                0,
                &mut EngineScratch::new(),
            )
            .unwrap();
        let slow = ReferenceConvolutionUnit::new(geometry)
            .run_layer(&input, &kernels, &bias, time_steps, 1, 0)
            .unwrap();
        assert_eq!(fast.accumulators.as_slice(), &[expected + 3]);
        assert_eq!(fast.accumulators, slow.accumulators);
        assert_eq!(fast.stats, slow.stats);
    }
}

/// One output over `levels.len()` input channels, every kernel tap (`taps`
/// of them, a `taps x 1` kernel over a `taps x 1` map; a linear layer when
/// there is one) weighing `weight`: the engine must size its 16-bit groups
/// at `group` channels, and equal both the reference unit and the closed
/// form.
fn check_one_output(taps: usize, weight: i64, time_steps: usize, levels: &[i64], group: usize) {
    let c_in = levels.len();
    let bias = Tensor::from_vec(vec![1], vec![-5i64]).unwrap();
    let expected = -5 + levels.iter().sum::<i64>() * taps as i64 * weight;
    let what = format!("{c_in} channels x {taps} taps of {weight} at T={time_steps}");

    let kernels = Tensor::filled(vec![1, c_in, taps, 1], weight);
    let weights = PackedWeights::from_conv(&kernels).unwrap();
    assert!(matches!(weights.codes(), Codes::I8(_)), "{what}");
    assert!(weights.sums_fit_i32(time_steps), "{what}");
    assert_eq!(weights.i16_group(time_steps), group, "{what}");
    let input = Tensor::from_vec(
        vec![c_in, taps, 1],
        levels.iter().flat_map(|&l| vec![l; taps]).collect(),
    )
    .unwrap();
    let geometry = ArrayGeometry {
        columns: 1,
        rows: taps,
    };
    let fast = ConvolutionUnit::new(geometry)
        .run_packed(
            &input,
            &weights,
            &bias,
            time_steps,
            1,
            0,
            &mut EngineScratch::new(),
        )
        .unwrap();
    let slow = ReferenceConvolutionUnit::new(geometry)
        .run_layer(&input, &kernels, &bias, time_steps, 1, 0)
        .unwrap();
    assert_eq!(fast.accumulators.as_slice(), &[expected], "conv, {what}");
    assert_eq!(fast.accumulators, slow.accumulators, "conv, {what}");
    assert_eq!(fast.stats, slow.stats, "conv, {what}");

    if taps == 1 {
        let matrix = Tensor::filled(vec![1, c_in], weight);
        let weights = PackedWeights::from_linear(&matrix).unwrap();
        assert_eq!(weights.i16_group(time_steps), group, "{what}");
        let input = Tensor::from_vec(vec![c_in], levels.to_vec()).unwrap();
        let fast = LinearUnit::new(1)
            .run_packed(
                &input,
                &weights,
                &bias,
                time_steps,
                &mut EngineScratch::new(),
            )
            .unwrap();
        let slow = ReferenceLinearUnit::new(1)
            .run_layer(&input, &matrix, &bias, time_steps)
            .unwrap();
        assert_eq!(fast.accumulators.as_slice(), &[expected], "linear, {what}");
        assert_eq!(fast.accumulators, slow.accumulators, "linear, {what}");
        assert_eq!(fast.stats, slow.stats, "linear, {what}");
    }
}

/// The seam of the 16-bit partial sums, on both units.  `32767 = 7 x 31 x
/// 151`: full-scale levels at `T = 3` under weights of `±31` (or one-bit
/// levels under seven taps of them) allow exactly 151 channels a group,
/// whose sum is then exactly `±32767` — it must stay in 16 bits and be
/// right.  One more spiking channel must have been split off into the next
/// group (`32984` is no `i16`), and so must what follows a *silent*
/// channel 151: groups are counted in channels (spikes, in the linear
/// unit), not started by whichever channel happens to be a multiple.
/// Where one channel weighs a power of two the bound itself shows: 64 per
/// channel allows 511 of them, not the 512 whose sum is `32768`.
#[test]
fn the_partial_sum_seam_lies_exactly_at_i16_max() {
    for weight in [31i64, -31] {
        // One group exactly at the bound; a 152nd channel; two full groups
        // and a third around silent channels 151 and 302.
        let mut around_silence = vec![7i64; 304];
        (around_silence[151], around_silence[302]) = (0, 0);
        for levels in [vec![7i64; 151], vec![7; 152], around_silence] {
            check_one_output(1, weight, 3, &levels, 151);
            let bits: Vec<i64> = levels.iter().map(|&l| l.min(1)).collect();
            check_one_output(7, weight, 1, &bits, 151);
        }
    }
    // 512 x 64 = 32768 = 256 x (2 x 64): one more than the bound allows.
    check_one_output(1, 64, 1, &[1; 512], 511);
    check_one_output(2, 64, 1, &[1; 256], 255);
    check_one_output(1, -64, 1, &[1; 512], 511);
}

/// A weight code outside `i16` must never be truncated into the packed
/// copy: every raw-tensor entry point reports it as an unsupported layer.
#[test]
fn oversized_weight_codes_are_a_typed_error_from_the_raw_entries() {
    let conv = ConvolutionUnit::new(ArrayGeometry {
        columns: 4,
        rows: 3,
    });
    let input = Tensor::filled(vec![1, 4, 4], 1i64);
    let bias = Tensor::filled(vec![1], 0i64);
    let band = RowBand {
        out_lo: 0,
        out_hi: 2,
        in_lo: 0,
        in_hi: 4,
    };
    for bad in [32768i64, -32769] {
        let mut codes = vec![1i64; 9];
        codes[4] = bad;
        let kernels = Tensor::from_vec(vec![1, 1, 3, 3], codes).unwrap();
        assert!(matches!(
            conv.run_layer(&input, &kernels, &bias, 3, 1, 0),
            Err(AccelError::UnsupportedLayer { context, .. }) if context.contains(&bad.to_string())
        ));
        assert!(matches!(
            conv.run_layer_band(&input, &kernels, &bias, 3, 1, 0, &band),
            Err(AccelError::UnsupportedLayer { .. })
        ));

        let linear = LinearUnit::new(2);
        let vector = Tensor::filled(vec![3], 1i64);
        let weights = Tensor::from_vec(vec![2, 3], vec![0, 1, 2, bad, 4, 5]).unwrap();
        let bias2 = Tensor::filled(vec![2], 0i64);
        assert!(matches!(
            linear.run_layer(&vector, &weights, &bias2, 3),
            Err(AccelError::UnsupportedLayer { context, .. }) if context.contains(&bad.to_string())
        ));
        assert!(matches!(
            linear.run_layer_chunked(&vector, &weights, &bias2, 3, 2),
            Err(AccelError::UnsupportedLayer { .. })
        ));
    }
}

/// A bias tensor must hold exactly one bias per output channel: one too
/// few or one too many is a typed error from every convolution and linear
/// entry point, never a silently zero-filled or ignored bias.
#[test]
fn a_bias_of_the_wrong_length_is_a_typed_error_from_every_entry() {
    let conv = ConvolutionUnit::new(ArrayGeometry {
        columns: 4,
        rows: 3,
    });
    let input = Tensor::filled(vec![2, 5, 5], 3i64);
    let kernels = Tensor::filled(vec![3, 2, 3, 3], 1i64);
    let packed = PackedWeights::from_conv(&kernels).unwrap();
    let band = RowBand {
        out_lo: 0,
        out_hi: 3,
        in_lo: 0,
        in_hi: 5,
    };
    let linear = LinearUnit::new(4);
    let vector = Tensor::filled(vec![6], 3i64);
    let matrix = Tensor::filled(vec![8, 6], 1i64);
    let packed_matrix = PackedWeights::from_linear(&matrix).unwrap();
    let mut scratch = EngineScratch::new();
    let rejected = |result: Result<(), AccelError>, what: &str| {
        assert!(
            matches!(&result, Err(AccelError::UnsupportedLayer { context, .. }) if context.contains("bias")),
            "{what}: {result:?}"
        );
    };
    // The right length runs, through every entry.
    let (conv_bias, linear_bias) = (Tensor::filled(vec![3], 1i64), Tensor::filled(vec![8], 1i64));
    conv.run_layer(&input, &kernels, &conv_bias, 3, 1, 0)
        .unwrap();
    linear
        .run_packed_chunked(&vector, &packed_matrix, &linear_bias, 3, 4, &mut scratch)
        .unwrap();
    for len in [2usize, 4] {
        let bias = Tensor::filled(vec![len], 1i64);
        let what = |entry: &str| format!("conv {entry}, {len} biases for 3 channels");
        rejected(
            conv.run_layer(&input, &kernels, &bias, 3, 1, 0).map(drop),
            &what("run_layer"),
        );
        rejected(
            conv.run_layer_band(&input, &kernels, &bias, 3, 1, 0, &band)
                .map(drop),
            &what("run_layer_band"),
        );
        rejected(
            conv.run_packed(&input, &packed, &bias, 3, 1, 0, &mut scratch)
                .map(drop),
            &what("run_packed"),
        );
        rejected(
            conv.run_packed_band(&input, &packed, &bias, 3, 1, 0, &band, &mut scratch)
                .map(drop),
            &what("run_packed_band"),
        );
    }
    for len in [7usize, 9] {
        let bias = Tensor::filled(vec![len], 1i64);
        let what = |entry: &str| format!("linear {entry}, {len} biases for 8 outputs");
        rejected(
            linear.run_layer(&vector, &matrix, &bias, 3).map(drop),
            &what("run_layer"),
        );
        rejected(
            linear
                .run_layer_chunked(&vector, &matrix, &bias, 3, 4)
                .map(drop),
            &what("run_layer_chunked"),
        );
        rejected(
            linear
                .run_packed(&vector, &packed_matrix, &bias, 3, &mut scratch)
                .map(drop),
            &what("run_packed"),
        );
        rejected(
            linear
                .run_packed_chunked(&vector, &packed_matrix, &bias, 3, 4, &mut scratch)
                .map(drop),
            &what("run_packed_chunked"),
        );
    }
}

/// One inference of a tiled VGG-shaped network (wide 3×3 convolutions in
/// row bands, pooling, a chunked classifier) as a string, with the one
/// field that *records* the budget blanked.
fn tiled_vgg_shaped_report() -> String {
    let net = NetworkSpec::new(
        "vgg-shaped",
        vec![3, 16, 16],
        vec![
            LayerSpec::conv_padded(3, 40, 3, 1),
            LayerSpec::max_pool2(),
            LayerSpec::conv_padded(40, 72, 3, 1),
            LayerSpec::max_pool2(),
            LayerSpec::Flatten,
            LayerSpec::linear(72 * 4 * 4, 200),
            LayerSpec::linear(200, 10),
        ],
    )
    .unwrap();
    let input = Tensor::from_vec(
        vec![3, 16, 16],
        (0..3 * 16 * 16)
            .map(|j| ((j * 37) % 100) as f32 / 100.0)
            .collect(),
    )
    .unwrap();
    let params = Parameters::he_init(&net, 11).unwrap();
    let stats = CalibrationStats::collect(&net, &params, std::iter::once(&input)).unwrap();
    let model = convert(
        &net,
        &params,
        &stats,
        ConversionConfig {
            weight_bits: 3,
            time_steps: 4,
        },
    )
    .unwrap();
    let config = AcceleratorConfig {
        activation_buffer_bytes: Some(1024),
        ..AcceleratorConfig::vgg11_table3()
    };
    let accel = Accelerator::new(config);
    let program = accel.compile(&model).unwrap();
    assert!(
        program.steps.iter().filter(|s| s.tiling.is_some()).count() >= 4,
        "the budget must tile the convolutions and the classifier"
    );
    let mut report = accel.run(&model, &input).unwrap();
    report.thread_budget = 0;
    format!("{report:?}")
}

const REPORT_MARKER: &str = "TILED-VGG-SHAPED-REPORT ";

/// The `snn-pool-<n>` workers among this process's threads.
#[cfg(target_os = "linux")]
fn pool_workers() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("this process's thread list")
        .map(|task| {
            let comm = task.expect("thread entry").path().join("comm");
            std::fs::read_to_string(comm).expect("thread name")
        })
        .filter(|name| name.starts_with("snn-pool-"))
        .collect()
}

/// Not a test of its own: the child half of
/// [`a_solo_inference_never_touches_the_pool`], which runs this binary
/// again under `SNN_THREADS=4` (the budget is fixed per process, and only
/// a process that ran nothing else can say the pool never started).
#[test]
#[ignore = "helper run in a child process by a_solo_inference_never_touches_the_pool"]
fn print_tiled_vgg_shaped_report() {
    println!("{REPORT_MARKER}{}", tiled_vgg_shaped_report());
    // The pool spawns its workers on the first `par_map` that splits; one
    // thread per inference means a solo run never does.  The two-item map
    // is the control: its barrier needs a worker beside the caller, and
    // the scan then sees that worker.
    #[cfg(target_os = "linux")]
    {
        let started = pool_workers();
        assert!(started.is_empty(), "a solo inference started {started:?}");
        let both = std::sync::Barrier::new(2);
        snn_parallel::par_map(&[(), ()], 2, |_, _| both.wait().is_leader());
        assert!(!pool_workers().is_empty(), "the scan misses a live worker");
    }
}

/// One inference runs on one thread: with a budget of four to spend, a
/// solo `Accelerator::run` starts no pool worker, and its `RunReport` is
/// the one this process (at its own budget, beside other tests) gets.
#[test]
fn a_solo_inference_never_touches_the_pool() {
    let here = tiled_vgg_shaped_report();
    let output = Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--exact",
            "print_tiled_vgg_shaped_report",
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("SNN_THREADS", "4")
        .output()
        .expect("re-run the test binary");
    assert!(output.status.success(), "child failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    let there = stdout
        .lines()
        .find_map(|line| line.split_once(REPORT_MARKER).map(|(_, report)| report))
        .unwrap_or_else(|| panic!("no report in child output: {stdout}"));
    assert_eq!(there, here);
}
