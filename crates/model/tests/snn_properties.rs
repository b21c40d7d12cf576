//! Property-based tests for the ANN-to-SNN conversion and the functional
//! radix SNN.

use proptest::prelude::*;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::packed::{PackedWeights, LANE_ALIGN};
use snn_model::params::{LayerParameters, Parameters};
use snn_model::snn::{requantize, SnnLayer, SnnModel};
use snn_model::{zoo, LayerSpec, NetworkSpec};
use snn_tensor::quant::QuantizedTensor;
use snn_tensor::Tensor;

/// Builds a two-layer MLP with weights derived from a seed vector.
fn mlp(inputs: usize, hidden: usize, outputs: usize, seed: &[f32]) -> (NetworkSpec, Parameters) {
    let net = NetworkSpec::new(
        "mlp",
        vec![inputs],
        vec![
            LayerSpec::linear(inputs, hidden),
            LayerSpec::linear(hidden, outputs),
        ],
    )
    .expect("valid MLP");
    let take = |n: usize, offset: usize| -> Vec<f32> {
        (0..n).map(|i| seed[(offset + i) % seed.len()]).collect()
    };
    let params = Parameters::new(
        &net,
        vec![
            Some(LayerParameters {
                weight: Tensor::from_vec(vec![hidden, inputs], take(hidden * inputs, 0)).unwrap(),
                bias: Tensor::from_vec(vec![hidden], take(hidden, 3)).unwrap(),
            }),
            Some(LayerParameters {
                weight: Tensor::from_vec(vec![outputs, hidden], take(outputs * hidden, 5)).unwrap(),
                bias: Tensor::from_vec(vec![outputs], take(outputs, 11)).unwrap(),
            }),
        ],
    )
    .expect("valid parameters");
    (net, params)
}

/// A `[1, 6, 6]` input through a 3×3 convolution of two channels and a
/// classifier, with weights derived from a seed vector.
fn small_cnn(seed: &[f32]) -> (NetworkSpec, Parameters) {
    let net = NetworkSpec::new(
        "cnn",
        vec![1, 6, 6],
        vec![
            LayerSpec::conv(1, 2, 3),
            LayerSpec::Flatten,
            LayerSpec::linear(2 * 4 * 4, 3),
        ],
    )
    .expect("valid CNN");
    let take = |n: usize, offset: usize| -> Vec<f32> {
        (0..n).map(|i| seed[(offset + i) % seed.len()]).collect()
    };
    let layer = |dims: Vec<usize>, offset: usize| {
        let (outputs, volume) = (dims[0], dims.iter().product());
        Some(LayerParameters {
            weight: Tensor::from_vec(dims, take(volume, offset)).unwrap(),
            bias: Tensor::from_vec(vec![outputs], take(outputs, offset + 1)).unwrap(),
        })
    };
    let params = Parameters::new(
        &net,
        vec![layer(vec![2, 1, 3, 3], 0), None, layer(vec![3, 32], 7)],
    )
    .expect("valid parameters");
    (net, params)
}

/// Every weight code of a packed layer in `[O, C, Kr, Kc]` (`[O, N]`)
/// order, read back one output channel at a time.
fn unpacked(weights: &PackedWeights) -> Vec<i64> {
    (0..weights.c_out())
        .flat_map(|o| weights.output_channels(o..o + 1))
        .collect()
}

/// The codes mixed into a round trip's small ones: none, the last codes
/// `i8` holds, or the first it misses and the edges of `i16`.
const SEAMS: [&[i64]; 3] = [&[], &[-128, -127, 127], &[-32768, -32767, -129, 128, 32767]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packing and reading back one output channel at a time gives every
    /// code back, for convolution and linear shapes whose output channels
    /// are not a multiple of the lane alignment; an `i32` source packs to
    /// exactly what the same codes as `i64` do.
    #[test]
    fn packing_round_trips_through_output_channels(
        c_out in 1usize..3 * LANE_ALIGN + 2,
        c_in in 1usize..6,
        kr in 1usize..4,
        kc in 1usize..4,
        draws in prop::collection::vec((0usize..8, -4i64..=4), 1..64),
        seams in 0usize..3,
    ) {
        let seams = SEAMS[seams];
        let pool: Vec<i64> = draws
            .iter()
            .map(|&(pick, small)| seams.get(pick).copied().unwrap_or(small))
            .collect();
        let volume = c_out * c_in * kr * kc;
        let codes: Vec<i64> = (0..volume).map(|i| pool[(i * 7) % pool.len()]).collect();
        let narrow: Vec<i32> = codes.iter().map(|&c| c as i32).collect();
        let cols = c_in * kr * kc;
        let conv = [c_out, c_in, kr, kc];
        let linear = [c_out, cols];
        let tensor = |dims: &[usize]| Tensor::from_vec(dims.to_vec(), codes.clone()).unwrap();
        let tensor32 = |dims: &[usize]| Tensor::from_vec(dims.to_vec(), narrow.clone()).unwrap();
        let pairs = [
            (
                PackedWeights::from_conv(&tensor(&conv)).unwrap(),
                PackedWeights::from_conv(&tensor32(&conv)).unwrap(),
            ),
            (
                PackedWeights::from_linear(&tensor(&linear)).unwrap(),
                PackedWeights::from_linear(&tensor32(&linear)).unwrap(),
            ),
        ];
        for (wide, from_i32) in pairs {
            prop_assert_eq!(&from_i32, &wide);
            prop_assert_eq!((wide.c_out(), wide.lanes() % LANE_ALIGN), (c_out, 0));
            prop_assert_eq!(unpacked(&wide), codes.clone());
            // Any block of output channels is those channels' codes.
            let (lo, hi) = (c_out / 3, c_out - c_out / 4);
            let block = codes[lo * cols..hi * cols].to_vec();
            prop_assert_eq!(wide.output_channels(lo..hi), block);
        }
    }

    /// Requantization always lands inside the representable level range and
    /// is monotone in its input.
    #[test]
    fn requantize_is_clamped_and_monotone(
        a in -1_000_000i64..1_000_000,
        b in -1_000_000i64..1_000_000,
        scale in 0.0001f32..10.0,
        time_steps in 1usize..10,
    ) {
        let max_level = (1i64 << time_steps) - 1;
        let qa = requantize(a, scale, max_level);
        let qb = requantize(b, scale, max_level);
        prop_assert!((0..=max_level).contains(&qa));
        prop_assert!((0..=max_level).contains(&qb));
        if a <= b {
            prop_assert!(qa <= qb);
        }
    }

    /// All hidden activations of a converted model stay within the T-bit
    /// level range — the invariant that lets the hardware store them in the
    /// ping-pong buffers as radix spike trains.
    #[test]
    fn hidden_activations_stay_within_level_range(
        weights in prop::collection::vec(-1.0f32..1.0, 64),
        pixels in prop::collection::vec(0.0f32..1.0, 6),
        time_steps in 1usize..8,
    ) {
        let (net, params) = mlp(6, 5, 3, &weights);
        let input = Tensor::from_vec(vec![6], pixels).unwrap();
        let calibration = CalibrationStats::collect(&net, &params, [&input]).unwrap();
        let model = convert(
            &net,
            &params,
            &calibration,
            ConversionConfig { weight_bits: 3, time_steps },
        )
        .unwrap();
        let trace = model.forward(&input).unwrap();
        let max_level = model.max_level();
        // Every layer except the classifier output is a level tensor.
        for act in &trace.activations[..trace.activations.len() - 1] {
            prop_assert!(act.iter().all(|&v| (0..=max_level).contains(&v)));
        }
    }

    /// Conversion is deterministic: converting twice yields identical
    /// models and identical predictions.
    #[test]
    fn conversion_is_deterministic(
        weights in prop::collection::vec(-1.0f32..1.0, 64),
        pixels in prop::collection::vec(0.0f32..1.0, 6),
    ) {
        let (net, params) = mlp(6, 4, 3, &weights);
        let input = Tensor::from_vec(vec![6], pixels).unwrap();
        let calibration = CalibrationStats::collect(&net, &params, [&input]).unwrap();
        let cfg = ConversionConfig { weight_bits: 3, time_steps: 5 };
        let a = convert(&net, &params, &calibration, cfg).unwrap();
        let b = convert(&net, &params, &calibration, cfg).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.predict(&input).unwrap(), b.predict(&input).unwrap());
    }

    /// Quantized weight codes in every converted layer — convolution and
    /// linear — respect the configured bit width.
    #[test]
    fn converted_weight_codes_respect_bit_width(
        weights in prop::collection::vec(-2.0f32..2.0, 64),
        bits in 2u8..6,
    ) {
        let max_code = ((1i64 << (bits - 1)) - 1).abs();
        let config = ConversionConfig { weight_bits: bits, time_steps: 4 };
        let (mlp_net, mlp_params) = mlp(6, 4, 3, &weights);
        let (cnn_net, cnn_params) = small_cnn(&weights);
        let mut checked = (0, 0);
        for (net, params, input) in [
            (mlp_net, mlp_params, Tensor::filled(vec![6], 0.5f32)),
            (cnn_net, cnn_params, Tensor::filled(vec![1, 6, 6], 0.5f32)),
        ] {
            let calibration = CalibrationStats::collect(&net, &params, [&input]).unwrap();
            let model = convert(&net, &params, &calibration, config).unwrap();
            for layer in model.layers() {
                match layer {
                    SnnLayer::Conv { .. } => checked.0 += 1,
                    SnnLayer::Linear { .. } => checked.1 += 1,
                    _ => continue,
                }
                let codes = unpacked(layer.weights().unwrap());
                prop_assert!(codes.iter().all(|&c| c.abs() <= max_code));
            }
        }
        prop_assert_eq!(checked, (1, 3));
    }

    /// Scaling the ANN input by a constant in (0, 1] never changes which
    /// class wins by more than the quantization can explain — specifically,
    /// the all-zero input always produces the bias-only logits.
    #[test]
    fn silent_input_produces_bias_only_logits(
        weights in prop::collection::vec(-1.0f32..1.0, 64),
        time_steps in 1usize..8,
    ) {
        let (net, params) = mlp(6, 4, 3, &weights);
        let calib_input = Tensor::filled(vec![6], 1.0f32);
        let calibration = CalibrationStats::collect(&net, &params, [&calib_input]).unwrap();
        let model = convert(
            &net,
            &params,
            &calibration,
            ConversionConfig { weight_bits: 3, time_steps },
        )
        .unwrap();
        let zero = Tensor::filled(vec![6], 0.0f32);
        let trace = model.forward(&zero).unwrap();
        // With no spikes, the first layer's accumulator is exactly its bias.
        if let SnnLayer::Linear { bias_acc, requant, .. } = &model.layers()[0] {
            let expected: Vec<i64> = bias_acc
                .iter()
                .map(|&b| match requant {
                    Some(r) => requantize(b, *r, model.max_level()),
                    None => b,
                })
                .collect();
            prop_assert_eq!(trace.activations[0].as_slice(), &expected[..]);
        } else {
            prop_assert!(false, "first layer should be linear");
        }
    }
}

/// Converts `net` over a few constant calibration inputs.
fn converted(net: &NetworkSpec, params: &Parameters, bits: u8) -> SnnModel {
    let inputs: Vec<Tensor<f32>> = (1..=3)
        .map(|i| Tensor::filled(net.input_shape().to_vec(), i as f32 / 3.0))
        .collect();
    let calibration = CalibrationStats::collect(net, params, inputs.iter()).unwrap();
    let config = ConversionConfig {
        weight_bits: bits,
        time_steps: 4,
    };
    convert(net, params, &calibration, config).unwrap()
}

/// Conversion packs exactly the quantizer's codes: every layer of tiny-CNN
/// and LeNet-5, read back, is `QuantizedTensor::quantize(weight, bits)`
/// widened, in the ANN's order.
#[test]
fn converted_layers_hold_the_quantizers_codes() {
    for (net, bits) in [
        (zoo::tiny_cnn(), 3u8),
        (zoo::lenet5(), 3),
        (zoo::lenet5(), 8),
    ] {
        let params = Parameters::he_init(&net, 17).unwrap();
        let model = converted(&net, &params, bits);
        let mut weighted = 0;
        for (i, layer) in model.layers().iter().enumerate() {
            let Some(weights) = layer.weights() else {
                assert!(params.layer(i).is_none(), "layer {i}");
                continue;
            };
            let quantized =
                QuantizedTensor::quantize(&params.layer(i).unwrap().weight, bits).unwrap();
            let expected: Vec<i64> = quantized.codes().iter().map(|&c| i64::from(c)).collect();
            assert_eq!(unpacked(weights), expected, "{} layer {i}", net.name());
            weighted += 1;
        }
        assert_eq!(
            weighted,
            net.layers().iter().filter(|l| l.has_weights()).count()
        );
    }
}
