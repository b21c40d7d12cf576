//! Properties of the product-sparsity accounting (`AcceleratorConfig::
//! product_sparsity`): reusing a contained row's partial sums must be an
//! **accounting-only** optimisation.  Accumulators stay bit-identical to
//! the reuse-free engine and the counter-stepped scalar reference, the
//! static-schedule counters do not move, `adder_ops` can only shrink, and
//! the reuse statistics (`reused_partials`, `difference_bits`) are zero
//! exactly when no containment was exploited.  End to end, a PS-enabled
//! accelerator must produce the same logits and schedule as the PS-off
//! run — on LeNet here, and on the tiled full-scale VGG-11 in the ignored
//! release smoke.

use proptest::prelude::*;
use snn_accel::config::{AcceleratorConfig, ArrayGeometry};
use snn_accel::conv::ConvolutionUnit;
use snn_accel::memory;
use snn_accel::reference::ReferenceConvolutionUnit;
use snn_accel::sim::Accelerator;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::{zoo, NetworkSpec};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary shapes, strides, paddings, (ignored) gather thresholds
    /// and data — including inputs with repeated rows, where containment
    /// is common — the PS-enabled unit is bit-identical to the PS-off unit
    /// and the scalar reference, keeps every schedule counter, and only
    /// ever lowers `adder_ops`, by exactly zero when nothing was reused.
    #[test]
    fn product_sparsity_is_an_accounting_only_optimisation(
        c_in in 1usize..3,
        c_out in 1usize..4,
        size in 4usize..9,
        kernel in 2usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        time_steps in 0usize..7,
        columns in 1usize..6,
        threshold_sel in 0usize..3,
        repeat_rows in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let max_level = (1i64 << time_steps.max(1)) - 1;
        let input = Tensor::from_vec(
            vec![c_in, size, size],
            (0..c_in * size * size)
                .map(|i| {
                    // Optionally fold the row index so rows repeat within a
                    // channel — the regime where containment actually fires.
                    let i = if repeat_rows { i % (2 * size) } else { i };
                    ((i as u64 * 2654435761 + seed) % (max_level as u64 + 2)) as i64
                })
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
        // The threshold once chose a row kernel; it must select nothing now.
        let threshold = [0.0, 0.5, 2.0][threshold_sel];
        let ps = ConvolutionUnit::with_options(geometry, threshold, true)
            .run_layer(&input, &kernel_t, &bias, time_steps, stride, padding)
            .unwrap();
        let plain = ConvolutionUnit::with_options(geometry, threshold, false)
            .run_layer(&input, &kernel_t, &bias, time_steps, stride, padding)
            .unwrap();
        let oracle = ReferenceConvolutionUnit::new(geometry)
            .run_layer(&input, &kernel_t, &bias, time_steps, stride, padding)
            .unwrap();

        prop_assert_eq!(&ps.accumulators, &plain.accumulators);
        prop_assert_eq!(&ps.accumulators, &oracle.accumulators);
        // The static schedule is untouched by reuse.
        prop_assert_eq!(ps.stats.cycles, plain.stats.cycles);
        prop_assert_eq!(ps.stats.activation_reads, plain.stats.activation_reads);
        prop_assert_eq!(ps.stats.kernel_reads, plain.stats.kernel_reads);
        prop_assert_eq!(ps.stats.output_writes, plain.stats.output_writes);
        // Reuse only removes adder work, and reports it honestly.
        prop_assert!(ps.stats.adder_ops <= plain.stats.adder_ops);
        prop_assert_eq!(plain.stats.reused_partials, 0);
        prop_assert_eq!(plain.stats.difference_bits, 0);
        if ps.stats.reused_partials == 0 {
            prop_assert_eq!(ps.stats.adder_ops, plain.stats.adder_ops);
            prop_assert_eq!(ps.stats.difference_bits, 0);
        }
    }
}

/// A crafted input where containment is guaranteed: within the channel,
/// even-position rows are exact copies (empty difference) and the final
/// row is a strict superset of them (non-empty difference).  The prepass
/// must find the reuse, report it, and strictly reduce `adder_ops` —
/// while the accumulators stay bit-identical to the reuse-free engine.
#[test]
fn crafted_containment_is_found_and_reduces_adder_work() {
    let (h, w, time_steps) = (6usize, 16usize, 3usize);
    let mut levels = vec![0i64; h * w];
    for y in 0..h - 1 {
        for x in (0..w).step_by(2) {
            levels[y * w + x] = ((x / 2) % 7 + 1) as i64; // identical rows
        }
    }
    for x in 0..w {
        // Superset row: same levels on the shared support, plus odd columns.
        levels[(h - 1) * w + x] = if x % 2 == 0 {
            ((x / 2) % 7 + 1) as i64
        } else {
            5
        };
    }
    let input = Tensor::from_vec(vec![1, h, w], levels).unwrap();
    let kernel =
        Tensor::from_vec(vec![2, 1, 3, 3], (0..18).map(|i| (i % 5) - 2).collect()).unwrap();
    let bias = Tensor::from_vec(vec![2], vec![1, -1]).unwrap();

    let geometry = ArrayGeometry {
        columns: 8,
        rows: 3,
    };
    let ps = ConvolutionUnit::with_options(geometry, 0.5, true)
        .run_layer(&input, &kernel, &bias, time_steps, 1, 1)
        .unwrap();
    let plain = ConvolutionUnit::with_options(geometry, 0.5, false)
        .run_layer(&input, &kernel, &bias, time_steps, 1, 1)
        .unwrap();

    assert_eq!(ps.accumulators, plain.accumulators);
    assert!(
        ps.stats.reused_partials > 0,
        "identical rows must be detected as contained"
    );
    assert!(
        ps.stats.difference_bits > 0,
        "the superset row must reuse via a non-empty difference"
    );
    assert!(
        ps.stats.adder_ops < plain.stats.adder_ops,
        "reuse must strictly reduce adder work: {} vs {}",
        ps.stats.adder_ops,
        plain.stats.adder_ops
    );
    assert_eq!(ps.stats.cycles, plain.stats.cycles);
}

/// End to end on LeNet-5: with product sparsity enabled, the logits,
/// prediction and modelled latency must match the PS-off run bit for bit,
/// adder work can only shrink, and reuse must actually fire.
#[test]
fn lenet_product_sparsity_reports_match_the_sequential_oracle() {
    let net = zoo::lenet5();
    let inputs: Vec<Tensor<f32>> = (0..3)
        .map(|i| {
            let values: Vec<f32> = (0..32 * 32)
                .map(|j| ((i * 29 + j * 13) % 100) as f32 / 100.0)
                .collect();
            Tensor::from_vec(vec![1, 32, 32], values).unwrap()
        })
        .collect();
    let model = converted(&net, 4, &inputs);

    let ps_config = AcceleratorConfig {
        product_sparsity: true,
        ..AcceleratorConfig::default()
    };
    let ps_accel = Accelerator::new(ps_config);
    let plain_accel = Accelerator::new(AcceleratorConfig::default());
    let mut total_reused = 0u64;
    for input in &inputs {
        let ps = ps_accel.run(&model, input).unwrap();
        let plain = plain_accel.run(&model, input).unwrap();
        assert_eq!(ps.logits, plain.logits);
        assert_eq!(ps.prediction, plain.prediction);
        assert_eq!(ps.total_cycles(), plain.total_cycles());
        let ps_work = ps.total_work();
        let plain_work = plain.total_work();
        assert!(ps_work.adder_ops <= plain_work.adder_ops);
        assert_eq!(plain_work.reused_partials, 0);
        total_reused += ps_work.reused_partials;
    }
    assert!(
        total_reused > 0,
        "LeNet feature maps are expected to contain reusable rows"
    );
}

/// Full-scale VGG-11 under the paper's tiled deployment with product
/// sparsity enabled: logits must match the functional model's trace.
/// Heavy (28.5 M parameters), so ignored by default and exercised by the
/// CI smoke in release mode.
#[test]
#[ignore = "multi-second full-scale model; run explicitly (CI smoke does, in release)"]
fn vgg11_tiled_product_sparsity_is_bit_identical() {
    let net = zoo::vgg11_cifar10();
    let input = Tensor::from_vec(
        vec![3, 32, 32],
        (0..3 * 32 * 32)
            .map(|j| ((j * 7) % 100) as f32 / 100.0)
            .collect(),
    )
    .unwrap();
    let model = converted(&net, 4, std::slice::from_ref(&input));

    let config = AcceleratorConfig {
        product_sparsity: true,
        ..AcceleratorConfig::vgg11_tiled()
    };
    let budget = config.activation_buffer_bytes.unwrap();
    let largest = memory::largest_layer_footprint_bytes(&net, model.time_steps());
    assert!(largest >= 4 * budget, "tiling must actually engage");

    let accel = Accelerator::new(config);
    let report = accel.run(&model, &input).unwrap();
    let trace = model.forward(&input).unwrap();
    assert_eq!(report.logits, trace.logits().as_slice());
    assert_eq!(report.prediction, trace.predicted_class());
    // The PS-off run on the same tiling agrees on the values and the
    // static schedule, and reuse genuinely fired at this scale.
    let plain = Accelerator::new(AcceleratorConfig::vgg11_tiled())
        .run(&model, &input)
        .unwrap();
    assert_eq!(report.logits, plain.logits);
    assert_eq!(report.total_cycles(), plain.total_cycles());
    assert!(report.total_work().reused_partials > 0);
    assert!(report.total_work().adder_ops < plain.total_work().adder_ops);
}
