//! Properties of the compile-time activation tile plan.
//!
//! The contract under test: with
//! [`AcceleratorConfig::activation_buffer_bytes`] set, the compiler plans
//! every layer whose working set exceeds the budget into row-band tiles
//! (lane-aligned output chunks for fully-connected layers), the executor
//! still runs each layer whole, and replaying the plan tile by tile
//! through the units' band entries reproduces the whole layer exactly:
//! stitched outputs, and summed `UnitStats` equal to the executor's.
//! The tiled [`RunReport`] — accumulators, per-layer `UnitStats`, traffic
//! and utilisation — is therefore **bit-identical** to the untiled run.
//! The edge cases the planner must survive: tile heights smaller than the
//! kernel halo, strides crossing tile boundaries, budgets too small for a
//! single row (a typed error at compile time), and batched execution.

mod plan_replay;

use snn_accel::config::AcceleratorConfig;
use snn_accel::memory::{self, LayerTiling};
use snn_accel::sim::Accelerator;
use snn_accel::AccelError;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::{zoo, LayerSpec, NetworkSpec};
use snn_tensor::Tensor;

fn converted(net: &NetworkSpec, time_steps: usize, inputs: &[Tensor<f32>]) -> SnnModel {
    let params = Parameters::he_init(net, 7).unwrap();
    let stats = CalibrationStats::collect(net, &params, inputs.iter()).unwrap();
    convert(
        net,
        &params,
        &stats,
        ConversionConfig {
            weight_bits: 3,
            time_steps,
        },
    )
    .unwrap()
}

fn tiny_setup(time_steps: usize) -> (SnnModel, Vec<Tensor<f32>>) {
    let net = zoo::tiny_cnn();
    let inputs: Vec<Tensor<f32>> = (0..4)
        .map(|i| {
            let values: Vec<f32> = (0..144)
                .map(|j| ((i * 29 + j * 13) % 100) as f32 / 100.0)
                .collect();
            Tensor::from_vec(vec![1, 12, 12], values).unwrap()
        })
        .collect();
    let model = converted(&net, time_steps, &inputs);
    (model, inputs)
}

/// A stride-2 padded convolution on a 13x13 map, with three inputs.
fn stride_setup() -> (SnnModel, Vec<Tensor<f32>>) {
    let net = NetworkSpec::new(
        "stride-net",
        vec![1, 13, 13],
        vec![
            LayerSpec::Conv2d {
                in_channels: 1,
                out_channels: 3,
                kernel: 3,
                stride: 2,
                padding: 1,
            },
            LayerSpec::Flatten,
            LayerSpec::linear(3 * 7 * 7, 8),
        ],
    )
    .unwrap();
    let inputs: Vec<Tensor<f32>> = (0..3)
        .map(|i| {
            let values: Vec<f32> = (0..169)
                .map(|j| ((i * 37 + j * 11) % 100) as f32 / 100.0)
                .collect();
            Tensor::from_vec(vec![1, 13, 13], values).unwrap()
        })
        .collect();
    (converted(&net, 3, &inputs), inputs)
}

/// One 5x5 convolution of two 16x16 channels: under a 128 B budget its
/// tiles are one output row each, shorter than the kernel's halo.
fn halo_net() -> NetworkSpec {
    NetworkSpec::new("halo-net", vec![2, 16, 16], vec![LayerSpec::conv(2, 8, 5)]).unwrap()
}

fn tiled_config(budget: u64) -> AcceleratorConfig {
    AcceleratorConfig {
        activation_buffer_bytes: Some(budget),
        ..AcceleratorConfig::default()
    }
}

#[test]
fn tiled_run_is_bit_identical_to_the_untiled_sequential_oracle() {
    let (model, inputs) = tiny_setup(4);
    // 128 B forces multi-band tiling of both the convolution (4-row bands,
    // pool-aligned) and the pooling layer; 66 B is close to the floor.
    for budget in [128u64, 66] {
        let tiled = Accelerator::new(tiled_config(budget));
        let untiled = Accelerator::new(AcceleratorConfig::default());
        for input in &inputs {
            let tiled_report = tiled.run(&model, input).unwrap();
            let oracle = untiled.run(&model, input).unwrap();
            assert_eq!(tiled_report, oracle, "budget={budget}");
            let functional = model.forward(input).unwrap();
            assert_eq!(oracle.logits, functional.logits().as_slice());
        }
    }
}

#[test]
fn tiled_fused_pair_streams_row_bands() {
    let (model, _) = tiny_setup(4);
    let config = tiled_config(128);
    let program = Accelerator::new(config).compile(&model).unwrap();
    // The conv layer must actually be tiled into pool-aligned bands …
    match &program.steps[0].tiling {
        Some(LayerTiling::RowBands {
            bands,
            rows_per_tile,
        }) => {
            assert!(bands.len() > 1);
            assert_eq!(rows_per_tile % 2, 0, "bands must align to the 2x2 pool");
        }
        other => panic!("conv layer should be row-band tiled, got {other:?}"),
    }
    // … and the pooling layer too (it exceeds the budget on its own).
    assert!(program.steps[1].tiling.is_some());
}

#[test]
fn untiled_conv_feeding_a_tiled_pool_respects_the_budget_model() {
    // The conv fits untiled but its pooling consumer does not: a whole
    // conv output feeding row-band pooling is still bit-identical to the
    // untiled run.
    let net = NetworkSpec::new(
        "wide-conv-pool",
        vec![1, 12, 12],
        vec![
            LayerSpec::conv(1, 16, 3),
            LayerSpec::avg_pool2(),
            LayerSpec::Flatten,
            LayerSpec::linear(16 * 5 * 5, 10),
        ],
    )
    .unwrap();
    let inputs: Vec<Tensor<f32>> = (0..3)
        .map(|i| {
            let values: Vec<f32> = (0..144)
                .map(|j| ((i * 41 + j * 17) % 100) as f32 / 100.0)
                .collect();
            Tensor::from_vec(vec![1, 12, 12], values).unwrap()
        })
        .collect();
    let model = converted(&net, 4, &inputs);
    let config = tiled_config(900);
    let program = Accelerator::new(config).compile(&model).unwrap();
    assert!(program.steps[0].tiling.is_none(), "conv fits untiled");
    assert!(program.steps[1].tiling.is_some(), "pool must be tiled");
    let tiled = Accelerator::new(config);
    let untiled = Accelerator::new(AcceleratorConfig::default());
    for input in &inputs {
        let report = tiled.run(&model, input).unwrap();
        let oracle = untiled.run(&model, input).unwrap();
        assert_eq!(report, oracle);
    }
}

#[test]
fn strides_crossing_tile_boundaries_do_not_change_results() {
    // A stride-2 padded convolution: interior bands start mid-stride, so
    // band coverage must reproduce the exact (input row -> output row)
    // pairs of the untiled layer.
    let (model, inputs) = stride_setup();
    let tiled = Accelerator::new(tiled_config(60));
    let untiled = Accelerator::new(AcceleratorConfig::default());
    // The budget really forces bands whose input windows overlap.
    let program = tiled.compile(&model).unwrap();
    let Some(LayerTiling::RowBands { bands, .. }) = &program.steps[0].tiling else {
        panic!("stride conv should be tiled");
    };
    assert!(bands.len() > 1);
    for input in &inputs {
        let tiled_report = tiled.run(&model, input).unwrap();
        let oracle = untiled.run(&model, input).unwrap();
        assert_eq!(tiled_report, oracle);
    }
}

#[test]
fn planner_handles_tiles_shorter_than_the_kernel_halo() {
    // One-row bands under a 5x5 kernel: each band's input halo spans four
    // more rows than the band itself.
    let plan = memory::plan_network_tiles(&halo_net(), 4, 128, 32).unwrap();
    let Some(LayerTiling::RowBands {
        bands,
        rows_per_tile,
    }) = &plan.layers[0]
    else {
        panic!("conv should be tiled");
    };
    assert_eq!(*rows_per_tile, 1);
    for band in bands {
        assert_eq!(band.out_rows(), 1);
        assert!(band.in_rows() >= 5, "halo rows missing: {band:?}");
        let bytes = memory::tile_bytes(2 * band.in_rows() * 16, 4)
            + memory::tile_bytes(8 * band.out_rows() * 12, 4);
        assert!(bytes <= 128);
    }
    assert_eq!(bands.len(), 12);
}

#[test]
fn plan_bands_replay_each_tiled_layer_exactly() {
    let (tiny, tiny_inputs) = tiny_setup(4);
    let (stride, stride_inputs) = stride_setup();
    let halo_inputs: Vec<Tensor<f32>> = (0..2)
        .map(|i| {
            let values: Vec<f32> = (0..2 * 16 * 16)
                .map(|j| ((i * 23 + j * 19) % 100) as f32 / 100.0)
                .collect();
            Tensor::from_vec(vec![2, 16, 16], values).unwrap()
        })
        .collect();
    let halo = converted(&halo_net(), 4, &halo_inputs);
    // (model, inputs, budget, tiled layers: conv + pool, conv, conv).
    let cases = [
        (&tiny, &tiny_inputs, 128, 2),
        (&tiny, &tiny_inputs, 66, 2),
        (&stride, &stride_inputs, 60, 1),
        (&halo, &halo_inputs, 128, 1),
    ];
    for (model, inputs, budget, tiled_layers) in cases {
        for input in inputs {
            let replayed =
                plan_replay::assert_plan_replays_exactly(model, tiled_config(budget), input);
            assert_eq!(replayed, tiled_layers, "budget {budget}");
        }
    }
}

#[test]
fn budget_too_small_for_one_row_is_a_compile_time_typed_error() {
    let (model, _) = tiny_setup(4);
    let accel = Accelerator::new(tiled_config(16));
    match accel.compile(&model) {
        Err(AccelError::BufferBudget {
            required_bytes,
            budget_bytes,
            ..
        }) => {
            assert!(required_bytes > budget_bytes);
            assert_eq!(budget_bytes, 16);
        }
        other => panic!("expected BufferBudget, got {other:?}"),
    }
    // And the run paths surface the same error.
    let input = Tensor::filled(vec![1, 12, 12], 0.5f32);
    assert!(matches!(
        accel.run(&model, &input),
        Err(AccelError::BufferBudget { .. })
    ));
}

#[test]
fn tiled_batches_match_solo_runs_and_the_oracle() {
    let (model, inputs) = tiny_setup(3);
    let tiled = Accelerator::new(tiled_config(128));
    let untiled = Accelerator::new(AcceleratorConfig::default());
    let batch = tiled.run_batch(&model, &inputs).unwrap();
    assert_eq!(batch.len(), inputs.len());
    for (report, input) in batch.iter().zip(&inputs) {
        assert_eq!(report, &tiled.run(&model, input).unwrap());
        assert_eq!(report, &untiled.run(&model, input).unwrap());
    }
}

/// Full-scale VGG-11 through the cycle-accurate `run` path under a buffer
/// budget more than four times smaller than its largest layer — the PR's
/// acceptance criterion and the paper's headline deployment.  Heavy
/// (28.5 M parameters), so it is ignored by default and exercised by the
/// CI smoke in release mode.
#[test]
#[ignore = "multi-second full-scale model; run explicitly (CI smoke does, in release)"]
fn vgg11_full_scale_runs_cycle_accurately_under_a_tiled_budget() {
    let net = zoo::vgg11_cifar10();
    let input = Tensor::from_vec(
        vec![3, 32, 32],
        (0..3 * 32 * 32)
            .map(|j| ((j * 7) % 100) as f32 / 100.0)
            .collect(),
    )
    .unwrap();
    let model = converted(&net, 4, std::slice::from_ref(&input));

    let config = AcceleratorConfig::vgg11_tiled();
    let budget = config.activation_buffer_bytes.unwrap();
    let largest = memory::largest_layer_footprint_bytes(&net, model.time_steps());
    assert!(
        largest >= 4 * budget,
        "budget {budget} B is not 4x below the largest layer ({largest} B)"
    );

    let accel = Accelerator::new(config);
    let report = accel.run(&model, &input).unwrap();
    // The functional model is the gold reference for the values …
    let trace = model.forward(&input).unwrap();
    assert_eq!(report.logits, trace.logits().as_slice());
    assert_eq!(report.prediction, trace.predicted_class());
    // … and the untiled engine for the full report (the host
    // has memory to spare; the modelled chip does not).
    let untiled = Accelerator::new(AcceleratorConfig {
        activation_buffer_bytes: None,
        ..config
    });
    let oracle = untiled.run(&model, &input).unwrap();
    assert_eq!(report, oracle);
    assert!(report.total_work().adder_ops > 0);
    // Replaying the plan band by band reproduces every tiled layer.
    assert!(plan_replay::assert_plan_replays_exactly(&model, config, &input) > 0);
}
