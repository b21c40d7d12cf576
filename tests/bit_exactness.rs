//! Property-based cross-crate test: for randomly generated small networks,
//! weights and inputs, the cycle-accurate accelerator simulator produces
//! exactly the same integers as the functional radix-SNN model.

use proptest::prelude::*;
use snn_repro::accel::config::{AcceleratorConfig, ArrayGeometry};
use snn_repro::accel::conv::ConvolutionUnit;
use snn_repro::accel::reference::ReferenceConvolutionUnit;
use snn_repro::accel::sim::Accelerator;
use snn_repro::model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_repro::model::params::{LayerParameters, Parameters};
use snn_repro::model::{LayerSpec, NetworkSpec};
use snn_repro::tensor::Tensor;

/// Builds a small random conv→pool→flatten→linear network together with
/// random parameters from the proptest-provided raw values.
fn build_network(
    channels: usize,
    kernel: usize,
    weights_seed: &[f32],
) -> (NetworkSpec, Parameters) {
    let side = 9usize;
    let pooled = (side - kernel).div_ceil(2);
    let flat = channels * pooled * pooled;
    let net = NetworkSpec::new(
        "prop",
        vec![1, side, side],
        vec![
            LayerSpec::conv(1, channels, kernel),
            LayerSpec::avg_pool2(),
            LayerSpec::Flatten,
            LayerSpec::linear(flat, 4),
        ],
    )
    .expect("generated network is valid");

    // Deterministically derive weights from the seed slice.
    let take = |n: usize, offset: usize| -> Vec<f32> {
        (0..n)
            .map(|i| weights_seed[(offset + i) % weights_seed.len()])
            .collect()
    };
    let conv_weight = Tensor::from_vec(
        vec![channels, 1, kernel, kernel],
        take(channels * kernel * kernel, 0),
    )
    .expect("conv weight");
    let conv_bias = Tensor::from_vec(vec![channels], take(channels, 7)).expect("conv bias");
    let lin_weight = Tensor::from_vec(vec![4, flat], take(4 * flat, 13)).expect("linear weight");
    let lin_bias = Tensor::from_vec(vec![4], take(4, 29)).expect("linear bias");
    let params = Parameters::new(
        &net,
        vec![
            Some(LayerParameters {
                weight: conv_weight,
                bias: conv_bias,
            }),
            None,
            None,
            Some(LayerParameters {
                weight: lin_weight,
                bias: lin_bias,
            }),
        ],
    )
    .expect("generated parameters match the network");
    (net, params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cycle-accurate simulator and the functional SNN model compute
    /// identical logits.
    #[test]
    fn accelerator_matches_functional_model(
        channels in 1usize..4,
        kernel in 2usize..4,
        time_steps in 1usize..7,
        weights in prop::collection::vec(-1.0f32..1.0, 64),
        pixels in prop::collection::vec(0.0f32..1.0, 81),
    ) {
        let (net, params) = build_network(channels, kernel, &weights);
        let input = Tensor::from_vec(vec![1, 9, 9], pixels).expect("input");
        let calibration = CalibrationStats::collect(&net, &params, [&input])
            .expect("calibration");
        let model = convert(
            &net,
            &params,
            &calibration,
            ConversionConfig { weight_bits: 3, time_steps },
        )
        .expect("conversion");

        let accel = Accelerator::new(AcceleratorConfig::default());
        let detailed = accel.run(&model, &input).expect("cycle-accurate run");
        let functional = model.forward(&input).expect("functional forward");

        prop_assert_eq!(&detailed.logits, functional.logits().as_slice());
        prop_assert_eq!(detailed.prediction, functional.predicted_class());
    }

    /// Results are independent of the accelerator's parallelism and adder
    /// array geometry (only latency changes).
    #[test]
    fn results_are_invariant_to_hardware_geometry(
        conv_units in 1usize..9,
        columns in 3usize..40,
        time_steps in 1usize..6,
        weights in prop::collection::vec(-1.0f32..1.0, 64),
    ) {
        let (net, params) = build_network(2, 3, &weights);
        let input = Tensor::filled(vec![1, 9, 9], 0.6f32);
        let calibration = CalibrationStats::collect(&net, &params, [&input])
            .expect("calibration");
        let model = convert(
            &net,
            &params,
            &calibration,
            ConversionConfig { weight_bits: 3, time_steps },
        )
        .expect("conversion");

        let reference = Accelerator::new(AcceleratorConfig::default())
            .run(&model, &input)
            .expect("reference run");
        let custom_config = AcceleratorConfig {
            conv_units,
            conv_geometry: ArrayGeometry { columns, rows: 5 },
            ..AcceleratorConfig::default()
        };
        let custom = Accelerator::new(custom_config)
            .run(&model, &input)
            .expect("custom run");
        prop_assert_eq!(reference.logits, custom.logits);
    }
}

/// Edge cases of the bit-plane sparse convolution path, each checked for
/// bit-identical accumulators *and* `UnitStats` against the retained
/// counter-stepped scalar reference.
mod sparse_path_edge_cases {
    use super::*;

    fn check(
        input: Tensor<i64>,
        kernel: Tensor<i64>,
        time_steps: usize,
        stride: usize,
        padding: usize,
        columns: usize,
    ) {
        let dims = kernel.shape().dims().to_vec();
        let bias = Tensor::from_vec(
            vec![dims[0]],
            (0..dims[0]).map(|i| (i as i64) - 1).collect(),
        )
        .expect("bias");
        let geometry = ArrayGeometry {
            columns,
            rows: dims[2],
        };
        let fast = ConvolutionUnit::new(geometry)
            .run_layer(&input, &kernel, &bias, time_steps, stride, padding)
            .expect("sparse run");
        let slow = ReferenceConvolutionUnit::new(geometry)
            .run_layer(&input, &kernel, &bias, time_steps, stride, padding)
            .expect("reference run");
        assert_eq!(fast.accumulators, slow.accumulators);
        assert_eq!(fast.stats, slow.stats);
    }

    fn patterned(shape: Vec<usize>, modulo: u64, seed: u64) -> Tensor<i64> {
        let len = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..len)
                .map(|i| ((i as u64 * 2654435761 + seed) % modulo) as i64)
                .collect(),
        )
        .expect("patterned tensor")
    }

    /// Zero-padding rows and columns: every output window touches padding
    /// somewhere when the padding equals the kernel extent minus one.
    #[test]
    fn zero_padding_rows_and_columns() {
        for padding in 1..=2 {
            check(
                patterned(vec![2, 5, 5], 8, 3),
                patterned(vec![3, 2, 3, 3], 7, 11),
                3,
                1,
                padding,
                8,
            );
        }
    }

    /// Strides larger than one subsample the input; only spikes aligned to
    /// the stride grid may contribute.
    #[test]
    fn stride_greater_than_one() {
        for stride in 2..=3 {
            check(
                patterned(vec![1, 9, 9], 16, 5),
                patterned(vec![2, 1, 3, 3], 5, 2),
                4,
                stride,
                1,
                6,
            );
        }
    }

    /// Output rows wider than the adder array force `column_tiles > 1`;
    /// the tile loop multiplies the schedule counters but not the results.
    #[test]
    fn output_rows_wider_than_the_adder_array() {
        let input = patterned(vec![1, 6, 12], 8, 7);
        let kernel = patterned(vec![2, 1, 3, 3], 7, 13);
        for columns in [1, 2, 3, 4, 7] {
            // w_out = 10, so columns < 10 needs more than one tile.
            check(input.clone(), kernel.clone(), 3, 1, 0, columns);
        }
    }

    /// All-silent input planes: no spikes at all, so zero adder operations
    /// and bias-only accumulators, while the static schedule still runs.
    #[test]
    fn all_silent_input_planes() {
        check(
            Tensor::filled(vec![2, 6, 6], 0i64),
            patterned(vec![3, 2, 3, 3], 7, 17),
            5,
            1,
            1,
            8,
        );
    }

    /// A single spike in one plane of one channel: the minimal non-silent
    /// case, placed at the border so padding interaction is exercised too.
    #[test]
    fn single_border_spike() {
        let mut levels = vec![0i64; 2 * 5 * 5];
        levels[5 * 5] = 1; // channel 1, top-left pixel, LSB plane only
        check(
            Tensor::from_vec(vec![2, 5, 5], levels).expect("input"),
            patterned(vec![2, 2, 3, 3], 7, 23),
            4,
            1,
            1,
            4,
        );
    }

    /// Everything at once: stride, padding, tiling and partially silent
    /// channels in one layer.
    #[test]
    fn combined_stride_padding_and_tiling() {
        let mut input = patterned(vec![3, 8, 8], 4, 29);
        // Silence a whole channel to exercise the word-level row skip.
        for v in &mut input.as_mut_slice()[64..128] {
            *v = 0;
        }
        check(input, patterned(vec![4, 3, 3, 3], 7, 31), 2, 2, 2, 2);
    }
}
