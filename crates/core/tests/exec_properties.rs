//! Property tests pinning the execution engine to the functional model,
//! and the batch and streaming-server paths
//! **bit-identical** to a solo `Accelerator::run`: logits,
//! per-layer `UnitStats`, memory traffic and the complete `RunReport` must
//! match across random network shapes, strides, paddings, spike-train
//! lengths, accelerator geometries and batch sizes — including batch = 1
//! and an all-silent input.

use proptest::prelude::*;
use snn_accel::config::{AcceleratorConfig, ArrayGeometry};
use snn_accel::serve::{ServerOptions, StreamServer};
use snn_accel::sim::Accelerator;
use snn_accel::AccelError;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::{SnnLayer, SnnModel};
use snn_model::{zoo, LayerSpec, NetworkSpec};
use snn_tensor::Tensor;

#[derive(Debug, Clone, Copy)]
struct ScenarioParams {
    c_in: usize,
    c_out: usize,
    size: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    with_pool: bool,
    time_steps: usize,
    conv_units: usize,
    columns: usize,
    batch: usize,
    seed: u64,
}

/// Builds a random small network, converts it, and derives an accelerator
/// configuration whose narrow geometry forces several sequential channel
/// groups (straggler group included).  Returns `None` for dimension
/// combinations that do not form a valid network.
fn build_scenario(p: ScenarioParams) -> Option<(SnnModel, Vec<Tensor<f32>>, AcceleratorConfig)> {
    let padded = p.size + 2 * p.padding;
    if p.kernel > padded {
        return None;
    }
    let conv_out = (padded - p.kernel) / p.stride + 1;
    let mut layers = vec![LayerSpec::Conv2d {
        in_channels: p.c_in,
        out_channels: p.c_out,
        kernel: p.kernel,
        stride: p.stride,
        padding: p.padding,
    }];
    let (fh, fw) = if p.with_pool && conv_out >= 2 {
        layers.push(LayerSpec::avg_pool2());
        (conv_out / 2, conv_out / 2)
    } else {
        (conv_out, conv_out)
    };
    layers.push(LayerSpec::Flatten);
    layers.push(LayerSpec::linear(p.c_out * fh * fw, 4));
    let net = NetworkSpec::new("exec-prop", vec![p.c_in, p.size, p.size], layers).ok()?;
    let params = Parameters::he_init(&net, p.seed).ok()?;

    let volume = p.c_in * p.size * p.size;
    let inputs: Vec<Tensor<f32>> = (0..p.batch)
        .map(|b| {
            let values: Vec<f32> = (0..volume)
                .map(|j| {
                    let x = (j as u64 * 2654435761)
                        .wrapping_add(p.seed)
                        .wrapping_add(b as u64 * 7919);
                    (x % 97) as f32 / 96.0
                })
                .collect();
            Tensor::from_vec(vec![p.c_in, p.size, p.size], values).unwrap()
        })
        .collect();
    let stats = CalibrationStats::collect(&net, &params, inputs.iter()).ok()?;
    let model = convert(
        &net,
        &params,
        &stats,
        ConversionConfig {
            weight_bits: 3,
            time_steps: p.time_steps,
        },
    )
    .ok()?;

    let config = AcceleratorConfig {
        conv_units: p.conv_units,
        conv_geometry: ArrayGeometry {
            columns: p.columns,
            rows: p.kernel,
        },
        ..AcceleratorConfig::default()
    };
    Some((model, inputs, config))
}

/// Guards the generators: typical draws must produce a real scenario, the
/// narrow geometry must force several channel groups, and in that conv →
/// pool regime the unit-exact run must reproduce the functional model.
#[test]
fn typical_scenarios_build_and_pipeline() {
    let (model, inputs, config) = build_scenario(ScenarioParams {
        c_in: 2,
        c_out: 6,
        size: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
        with_pool: true,
        time_steps: 4,
        conv_units: 1,
        columns: 3,
        batch: 2,
        seed: 42,
    })
    .expect("scenario must build");
    assert_eq!(inputs.len(), 2);
    let accel = Accelerator::new(config);
    let program = accel.compile(&model).unwrap();
    assert!(
        program.steps[0].channel_groups > 1,
        "narrow geometry must force sequential channel groups"
    );
    let report = accel.run(&model, &inputs[0]).unwrap();
    let trace = model.forward(&inputs[0]).unwrap();
    assert_eq!(report.logits, trace.logits().as_slice());
    assert_eq!(report.prediction, trace.predicted_class());
}

/// A unit's error names the layer it failed on: LeNet-5 with the bias of
/// one weighted layer `k` one entry too long fails with
/// `UnsupportedLayer { layer: k }` from a solo run, a batch and a tiled run.
#[test]
fn executor_errors_name_the_failing_layer() {
    let net = zoo::lenet5();
    let params = Parameters::he_init(&net, 3).unwrap();
    let input = Tensor::filled(net.input_shape().to_vec(), 0.5f32);
    let calibration = CalibrationStats::collect(&net, &params, [&input]).unwrap();
    let model = convert(&net, &params, &calibration, ConversionConfig::default()).unwrap();
    let tiled = AcceleratorConfig {
        activation_buffer_bytes: Some(1024),
        ..AcceleratorConfig::lenet_table3()
    };
    let configs = [AcceleratorConfig::lenet_table3(), tiled];
    assert!(Accelerator::new(tiled)
        .compile(&model)
        .unwrap()
        .steps
        .iter()
        .any(|step| step.tiling.is_some()));
    let mut broken_layers = 0;
    for k in 0..model.layers().len() {
        let mut layers = model.layers().to_vec();
        let (SnnLayer::Conv { bias_acc, .. } | SnnLayer::Linear { bias_acc, .. }) = &mut layers[k]
        else {
            continue;
        };
        *bias_acc = Tensor::filled(vec![bias_acc.len() + 1], 0i64);
        let broken = SnnModel::new(net.clone(), layers, model.time_steps(), 3).unwrap();
        broken_layers += 1;
        for config in configs {
            let accel = Accelerator::new(config);
            let batch = [input.clone(), input.clone()];
            for err in [
                accel.run(&broken, &input).unwrap_err(),
                accel.run_batch(&broken, &batch).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, AccelError::UnsupportedLayer { layer, .. } if *layer == k),
                    "layer {k}: {err}"
                );
            }
        }
    }
    assert_eq!(broken_layers, 6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unit-exact execution agrees with the functional model: same logits
    /// and prediction.
    #[test]
    fn unit_exact_runs_agree_with_the_functional_model(
        c_in in 1usize..3,
        c_out in 1usize..8,
        size in 5usize..10,
        kernel in 2usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        time_steps in 1usize..6,
        conv_units in 1usize..3,
        columns in 2usize..6,
        seed in 0u64..1000,
    ) {
        let Some((model, inputs, config)) = build_scenario(ScenarioParams {
            c_in, c_out, size, kernel, stride, padding,
            with_pool: true, time_steps, conv_units, columns,
            batch: 1, seed,
        }) else { return Ok(()) };
        let accel = Accelerator::new(config);
        let unit_exact = accel.run(&model, &inputs[0]).unwrap();
        let trace = model.forward(&inputs[0]).unwrap();
        prop_assert_eq!(unit_exact.logits.as_slice(), trace.logits().as_slice());
        prop_assert_eq!(unit_exact.prediction, trace.predicted_class());
    }

    /// Batch execution over the shared worker pool returns, per input,
    /// exactly the report of a solo run — for batch sizes including one.
    #[test]
    fn batch_reports_match_solo_sequential_runs(
        c_out in 1usize..6,
        size in 5usize..9,
        kernel in 2usize..4,
        time_steps in 1usize..5,
        conv_units in 1usize..3,
        batch in 1usize..5,
        seed in 0u64..1000,
    ) {
        let Some((model, inputs, config)) = build_scenario(ScenarioParams {
            c_in: 1, c_out, size, kernel, stride: 1, padding: 0,
            with_pool: true, time_steps, conv_units, columns: 3,
            batch, seed,
        }) else { return Ok(()) };
        let accel = Accelerator::new(config);
        let reports = accel.run_batch(&model, &inputs).unwrap();
        prop_assert_eq!(reports.len(), inputs.len());
        for (report, input) in reports.iter().zip(&inputs) {
            let solo = accel.run(&model, input).unwrap();
            prop_assert_eq!(report, &solo);
            let trace = model.forward(input).unwrap();
            prop_assert_eq!(report.logits.as_slice(), trace.logits().as_slice());
        }
    }

    /// Every report the streaming server hands back is bit-identical to
    /// the solo run, for any micro-batch cap.
    #[test]
    fn stream_server_matches_sequential_oracle(
        c_out in 1usize..6,
        size in 5usize..9,
        kernel in 2usize..4,
        time_steps in 1usize..5,
        max_batch in 1usize..5,
        batch in 1usize..5,
        seed in 0u64..1000,
    ) {
        let Some((model, inputs, config)) = build_scenario(ScenarioParams {
            c_in: 1, c_out, size, kernel, stride: 1, padding: 1,
            with_pool: true, time_steps, conv_units: 1, columns: 3,
            batch, seed,
        }) else { return Ok(()) };
        let server = StreamServer::start_with(config, model.clone(), ServerOptions {
            max_batch,
            ..ServerOptions::default()
        }).unwrap();
        let served = server.run_all(&inputs).unwrap();
        let stats = server.shutdown();
        prop_assert_eq!(stats.completed, inputs.len() as u64);
        prop_assert_eq!(stats.errors, 0);
        let accel = Accelerator::new(config);
        for (report, input) in served.iter().zip(&inputs) {
            let solo = accel.run(&model, input).unwrap();
            prop_assert_eq!(report, &solo);
        }
    }

    /// An all-silent input exercises the engine's word-level skip paths:
    /// the served report still matches the solo run exactly and the
    /// processing units perform no data-dependent work.
    #[test]
    fn all_silent_input_is_bit_identical_and_workless(
        c_out in 1usize..6,
        size in 5usize..9,
        kernel in 2usize..4,
        time_steps in 1usize..5,
        seed in 0u64..1000,
    ) {
        let Some((model, _inputs, config)) = build_scenario(ScenarioParams {
            c_in: 1, c_out, size, kernel, stride: 1, padding: 0,
            with_pool: true, time_steps, conv_units: 1, columns: 2,
            batch: 2, seed,
        }) else { return Ok(()) };
        let silent = Tensor::filled(vec![1, size, size], 0.0f32);
        let accel = Accelerator::new(config);
        let solo = accel.run(&model, &silent).unwrap();
        // The first convolution sees no spikes at all.
        prop_assert_eq!(solo.layers[0].work.adder_ops, 0);
        // Cycles are still consumed: the schedule is input-independent.
        prop_assert!(solo.layers[0].work.cycles > 0);

        let server = StreamServer::start(config, model.clone()).unwrap();
        let served = server.run_all(std::slice::from_ref(&silent)).unwrap();
        prop_assert_eq!(&served[0], &solo);
    }
}
