//! Property-based tests for the processing-unit simulators: bit-exactness
//! against the reference operators, schedule invariance, and the
//! radix-accumulation identity — for arbitrary layer shapes and data.

use proptest::prelude::*;
use snn_accel::config::ArrayGeometry;
use snn_accel::conv::ConvolutionUnit;
use snn_accel::linear::LinearUnit;
use snn_accel::pool::PoolingUnit;
use snn_accel::reference::{ReferenceConvolutionUnit, ReferenceLinearUnit};
use snn_model::layer::PoolKind;
use snn_tensor::{ops, Tensor};

/// Adds the per-output-channel bias to a reference convolution result.
fn conv_reference(
    input: &Tensor<i64>,
    kernel: &Tensor<i64>,
    bias: &Tensor<i64>,
    stride: usize,
    padding: usize,
) -> Tensor<i64> {
    let acc = ops::conv2d(input, kernel, None, stride, padding).unwrap();
    let dims = acc.shape().dims().to_vec();
    let hw = dims[1] * dims[2];
    let mut out = acc;
    for oc in 0..dims[0] {
        for i in 0..hw {
            out.as_mut_slice()[oc * hw + i] += bias.as_slice()[oc];
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cycle-stepped convolution unit computes exactly the integer
    /// reference convolution for arbitrary shapes, strides and paddings.
    #[test]
    fn conv_unit_is_bit_exact(
        c_in in 1usize..3,
        c_out in 1usize..4,
        size in 4usize..8,
        kernel in 2usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        time_steps in 1usize..7,
        columns in 1usize..6,
        seed in 0u64..1000,
    ) {
        // Derive deterministic pseudo-random levels and kernel codes.
        let max_level = (1i64 << time_steps) - 1;
        let input = Tensor::from_vec(
            vec![c_in, size, size],
            (0..c_in * size * size)
                .map(|i| ((i as u64 * 2654435761 + seed) % (max_level as u64 + 1)) as i64)
                .collect(),
        ).unwrap();
        let kernel_t = Tensor::from_vec(
            vec![c_out, c_in, kernel, kernel],
            (0..c_out * c_in * kernel * kernel)
                .map(|i| (((i as u64 * 40503 + seed) % 7) as i64) - 3)
                .collect(),
        ).unwrap();
        let bias = Tensor::from_vec(
            vec![c_out],
            (0..c_out).map(|i| (i as i64) - 1).collect(),
        ).unwrap();

        let unit = ConvolutionUnit::new(ArrayGeometry { columns, rows: kernel });
        let result = unit
            .run_layer(&input, &kernel_t, &bias, time_steps, stride, padding)
            .unwrap();
        let expected = conv_reference(&input, &kernel_t, &bias, stride, padding);
        prop_assert_eq!(result.accumulators, expected);
    }

    /// The adder-operation count equals the total number of (spike, kernel
    /// weight) pairs inside valid receptive fields — i.e. the popcount of
    /// the input levels times the kernel positions that cover each pixel —
    /// for the no-padding, stride-1, single-channel case where that closed
    /// form is easy to state.
    #[test]
    fn conv_unit_adder_ops_scale_with_spike_count(
        size in 4usize..7,
        time_steps in 1usize..6,
        seed in 0u64..1000,
    ) {
        let max_level = (1i64 << time_steps) - 1;
        let mk_input = |scale: i64| Tensor::from_vec(
            vec![1, size, size],
            (0..size * size)
                .map(|i| (((i as u64 * 97 + seed) % (max_level as u64 + 1)) as i64).min(scale))
                .collect::<Vec<i64>>(),
        ).unwrap();
        let kernel = Tensor::filled(vec![1, 1, 3, 3], 1i64);
        let bias = Tensor::filled(vec![1], 0i64);
        let unit = ConvolutionUnit::new(ArrayGeometry { columns: 8, rows: 3 });
        // All-silent input -> zero adder ops; clamping to the full level
        // range can only add spikes, never remove them.
        let silent = unit.run_layer(&mk_input(0), &kernel, &bias, time_steps, 1, 0).unwrap();
        let full = unit.run_layer(&mk_input(max_level), &kernel, &bias, time_steps, 1, 0).unwrap();
        prop_assert_eq!(silent.stats.adder_ops, 0);
        prop_assert!(full.stats.adder_ops >= silent.stats.adder_ops);
        // Cycle counts are identical: the schedule is data-independent.
        prop_assert_eq!(silent.stats.cycles, full.stats.cycles);
    }

    /// The linear unit matches the reference matrix-vector product for any
    /// lane count, and its cycle count follows the closed form.
    #[test]
    fn linear_unit_is_bit_exact_for_any_lane_count(
        inputs in 1usize..12,
        outputs in 1usize..10,
        lanes in 1usize..12,
        time_steps in 1usize..7,
        seed in 0u64..1000,
    ) {
        let max_level = (1i64 << time_steps) - 1;
        let input = Tensor::from_vec(
            vec![inputs],
            (0..inputs)
                .map(|i| ((i as u64 * 31 + seed) % (max_level as u64 + 1)) as i64)
                .collect(),
        ).unwrap();
        let weight = Tensor::from_vec(
            vec![outputs, inputs],
            (0..outputs * inputs)
                .map(|i| (((i as u64 * 17 + seed) % 7) as i64) - 3)
                .collect(),
        ).unwrap();
        let bias = Tensor::from_vec(
            vec![outputs],
            (0..outputs).map(|i| (i as i64 % 5) - 2).collect(),
        ).unwrap();

        let unit = LinearUnit::new(lanes);
        let result = unit.run_layer(&input, &weight, &bias, time_steps).unwrap();
        let expected = ops::linear(&input, &weight, Some(&bias)).unwrap();
        prop_assert_eq!(result.accumulators, expected);
        prop_assert_eq!(
            result.stats.cycles,
            unit.layer_cycles(inputs, outputs, time_steps)
        );
    }

    /// The pooling unit's streaming pass agrees with the functional pooling
    /// operators for both flavours, windows 1–4, odd heights and widths
    /// (trailing rows and columns no window reads) and levels outside
    /// `0..2^T` (negative sums truncate toward zero); its adder ops are the
    /// spikes of the `T` streamed planes of every input level.
    #[test]
    fn pooling_unit_matches_reference(
        channels in 1usize..4,
        height in 1usize..12,
        width in 1usize..12,
        window in 1usize..5,
        max_pool in proptest::bool::ANY,
        time_steps in 1usize..7,
        seed in 0u64..1000,
    ) {
        let window = window.min(height).min(width);
        let input = Tensor::from_vec(
            vec![channels, height, width],
            (0..channels * height * width)
                .map(|i| ((i as u64 * 131 + seed) % 101) as i64 - 20)
                .collect(),
        ).unwrap();
        let kind = if max_pool { PoolKind::Max } else { PoolKind::Average };
        let unit = PoolingUnit::new(ArrayGeometry { columns: 14, rows: 2 });
        let result = unit.run_layer(&input, kind, window, time_steps).unwrap();
        let expected = match kind {
            PoolKind::Max => ops::max_pool2d(&input, window).unwrap(),
            PoolKind::Average => ops::avg_pool2d(&input, window).unwrap(),
        };
        prop_assert_eq!(result.levels, expected);
        let plane_mask = (1i64 << time_steps) - 1;
        let streamed_spikes: u64 = input
            .iter()
            .map(|&v| u64::from((v & plane_mask).count_ones()))
            .sum();
        prop_assert_eq!(result.stats.adder_ops, streamed_spikes);
    }

    /// The bit-plane sparse convolution engine reproduces the retained
    /// counter-stepped scalar reference exactly: same accumulators and the
    /// same `UnitStats`, for arbitrary shapes, strides, paddings, tile
    /// counts and data — the contract that makes the derived (analytical)
    /// statistics trustworthy.
    #[test]
    fn sparse_conv_engine_matches_scalar_reference_exactly(
        c_in in 1usize..3,
        c_out in 1usize..4,
        size in 4usize..9,
        kernel in 2usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        time_steps in 0usize..7,
        columns in 1usize..6,
        seed in 0u64..1000,
    ) {
        let max_level = (1i64 << time_steps.max(1)) - 1;
        let input = Tensor::from_vec(
            vec![c_in, size, size],
            (0..c_in * size * size)
                .map(|i| ((i as u64 * 2654435761 + seed) % (max_level as u64 + 2)) as i64)
                .collect(),
        ).unwrap();
        let kernel_t = Tensor::from_vec(
            vec![c_out, c_in, kernel, kernel],
            (0..c_out * c_in * kernel * kernel)
                .map(|i| (((i as u64 * 40503 + seed) % 7) as i64) - 3)
                .collect(),
        ).unwrap();
        let bias = Tensor::from_vec(
            vec![c_out],
            (0..c_out).map(|i| (i as i64) - 1).collect(),
        ).unwrap();

        let geometry = ArrayGeometry { columns, rows: kernel };
        let fast = ConvolutionUnit::new(geometry)
            .run_layer(&input, &kernel_t, &bias, time_steps, stride, padding)
            .unwrap();
        let slow = ReferenceConvolutionUnit::new(geometry)
            .run_layer(&input, &kernel_t, &bias, time_steps, stride, padding)
            .unwrap();
        prop_assert_eq!(&fast.accumulators, &slow.accumulators);
        prop_assert_eq!(fast.stats, slow.stats);
    }

    /// Same contract for the linear engine, over arbitrary lane counts.
    #[test]
    fn sparse_linear_engine_matches_scalar_reference_exactly(
        inputs in 1usize..16,
        outputs in 1usize..10,
        lanes in 1usize..12,
        time_steps in 0usize..7,
        seed in 0u64..1000,
    ) {
        let max_level = (1i64 << time_steps.max(1)) - 1;
        let input = Tensor::from_vec(
            vec![inputs],
            (0..inputs)
                .map(|i| ((i as u64 * 31 + seed) % (max_level as u64 + 2)) as i64)
                .collect(),
        ).unwrap();
        let weight = Tensor::from_vec(
            vec![outputs, inputs],
            (0..outputs * inputs)
                .map(|i| (((i as u64 * 17 + seed) % 7) as i64) - 3)
                .collect(),
        ).unwrap();
        let bias = Tensor::from_vec(
            vec![outputs],
            (0..outputs).map(|i| (i as i64 % 5) - 2).collect(),
        ).unwrap();

        let fast = LinearUnit::new(lanes)
            .run_layer(&input, &weight, &bias, time_steps)
            .unwrap();
        let slow = ReferenceLinearUnit::new(lanes)
            .run_layer(&input, &weight, &bias, time_steps)
            .unwrap();
        prop_assert_eq!(&fast.accumulators, &slow.accumulators);
        prop_assert_eq!(fast.stats, slow.stats);
    }

    /// Splitting the radix accumulation over time steps is exact: running
    /// with T time steps on levels bounded by 2^T - 1 gives the same result
    /// as a plain integer convolution — i.e. no precision is lost by the
    /// shift-and-accumulate output logic.
    #[test]
    fn radix_accumulation_loses_no_precision(
        time_steps in 1usize..10,
        seed in 0u64..1000,
    ) {
        let max_level = (1i64 << time_steps) - 1;
        let input = Tensor::from_vec(
            vec![1, 5, 5],
            (0..25).map(|i| ((i as u64 * 73 + seed) % (max_level as u64 + 1)) as i64).collect(),
        ).unwrap();
        let kernel = Tensor::from_vec(
            vec![1, 1, 3, 3],
            (0..9).map(|i| ((i as i64 + seed as i64) % 7) - 3).collect(),
        ).unwrap();
        let bias = Tensor::filled(vec![1], 0i64);
        let unit = ConvolutionUnit::new(ArrayGeometry { columns: 3, rows: 3 });
        let hw_result = unit.run_layer(&input, &kernel, &bias, time_steps, 1, 0).unwrap();
        let reference = ops::conv2d(&input, &kernel, None, 1, 0).unwrap();
        prop_assert_eq!(hw_result.accumulators, reference);
    }
}
