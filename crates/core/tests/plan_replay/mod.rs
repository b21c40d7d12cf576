//! Replays a compiled tile plan through the units' band entries, the way
//! the paper's buffers would stream it, and pins the stitched result to
//! the whole-layer run the executor performs.

use snn_accel::config::AcceleratorConfig;
use snn_accel::conv::ConvolutionUnit;
use snn_accel::linear::LinearUnit;
use snn_accel::memory::{LayerTiling, RowBand};
use snn_accel::pool::PoolingUnit;
use snn_accel::sim::Accelerator;
use snn_accel::units::UnitStats;
use snn_model::snn::{requantize, SnnLayer, SnnModel};
use snn_tensor::Tensor;

/// Runs `run` on each band's input rows of the `[C, H, W]` map `input`
/// and stitches the `[C', rows, W']` results into an `out_shape` map,
/// summing their counters.
fn stitch(
    input: &Tensor<i64>,
    bands: &[RowBand],
    out_shape: &[usize],
    run: impl Fn(&Tensor<i64>, &RowBand) -> (Tensor<i64>, UnitStats),
) -> (Tensor<i64>, UnitStats) {
    let (&[c, h, w], &[oc, oh, ow]) = (input.shape().dims(), out_shape) else {
        panic!("row bands of a {:?} map", input.shape().dims());
    };
    let mut stitched = Tensor::filled(out_shape.to_vec(), 0i64);
    let mut summed = UnitStats::default();
    for band in bands {
        let n = band.in_rows() * w;
        let rows = (0..c).flat_map(|ch| &input.as_slice()[(ch * h + band.in_lo) * w..][..n]);
        let rows = Tensor::from_vec(vec![c, band.in_rows(), w], rows.copied().collect());
        let (part, stats) = run(&rows.unwrap(), band);
        summed += stats;
        let n = band.out_rows() * ow;
        for ch in 0..oc {
            stitched.as_mut_slice()[(ch * oh + band.out_lo) * ow..][..n]
                .copy_from_slice(&part.as_slice()[ch * n..][..n]);
        }
    }
    (stitched, summed)
}

/// For product sparsity off and on: runs `input` through `model` on the
/// executor under `config`'s plan, replays every tiled layer's bands (or
/// output chunks) through the band entries on that layer's input from
/// [`SnnModel::forward_levels`], and requires the stitched output to equal
/// the whole layer's (and, requantized, the functional model's levels) and
/// the summed band counters to equal the executor's layer counters — and,
/// with product sparsity off, the whole-layer call's.  Returns the number
/// of tiled layers replayed per pass.
pub fn assert_plan_replays_exactly(
    model: &SnnModel,
    config: AcceleratorConfig,
    input: &Tensor<f32>,
) -> usize {
    let t = model.time_steps();
    let levels = model.encode_input(input).unwrap();
    let activations = model.forward_levels(&levels).unwrap();
    let mut replayed = 0;
    for product_sparsity in [false, true] {
        let config = AcceleratorConfig {
            product_sparsity,
            ..config
        };
        let accel = Accelerator::new(config);
        let program = accel.compile(model).unwrap();
        let report = accel.run(model, input).unwrap();
        let conv = ConvolutionUnit::with_product_sparsity(config.conv_geometry, product_sparsity);
        let pool = PoolingUnit::new(config.pool_geometry);
        let linear = LinearUnit::new(config.linear_lanes);
        replayed = 0;
        for (i, (layer, step)) in model.layers().iter().zip(&program.steps).enumerate() {
            let Some(tiling) = &step.tiling else {
                continue;
            };
            replayed += 1;
            let input = if i == 0 { &levels } else { &activations[i - 1] };
            let what = format!(
                "layer {i} ({}), product sparsity {product_sparsity}",
                step.notation
            );
            let shape = &step.out_shape;
            let (whole, whole_stats, (stitched, summed), requant) = match (layer, tiling) {
                (
                    SnnLayer::Conv {
                        weight_codes: k,
                        bias_acc: b,
                        stride: s,
                        padding: p,
                        requant,
                    },
                    LayerTiling::RowBands { bands, .. },
                ) => {
                    let whole = conv.run_layer(input, k, b, t, *s, *p).unwrap();
                    let replay = stitch(input, bands, shape, |rows, band| {
                        let part = conv.run_layer_band(rows, k, b, t, *s, *p, band).unwrap();
                        (part.accumulators, part.stats)
                    });
                    (whole.accumulators, whole.stats, replay, *requant)
                }
                (SnnLayer::Pool { kind, window }, LayerTiling::RowBands { bands, .. }) => {
                    let whole = pool.run_layer(input, *kind, *window, t).unwrap();
                    let replay = stitch(input, bands, shape, |rows, band| {
                        let part = pool.run_layer_band(rows, *kind, *window, t, band).unwrap();
                        (part.levels, part.stats)
                    });
                    (whole.levels, whole.stats, replay, None)
                }
                (
                    SnnLayer::Linear {
                        weight_codes: k,
                        bias_acc: b,
                        requant,
                    },
                    LayerTiling::OutputChunks { chunk },
                ) => {
                    let whole = linear.run_layer(input, k, b, t).unwrap();
                    let part = linear.run_layer_chunked(input, k, b, t, *chunk).unwrap();
                    let replay = (part.accumulators, part.stats);
                    (whole.accumulators, whole.stats, replay, *requant)
                }
                (_, tiling) => panic!("{what}: {tiling:?} does not fit the layer kind"),
            };
            assert_eq!(stitched, whole, "{what}: stitched output");
            let stitched = match requant {
                Some(r) => stitched.map(|&v| requantize(v, r, model.max_level())),
                None => stitched,
            };
            assert_eq!(stitched, activations[i], "{what}: functional levels");
            assert_eq!(summed, report.layers[i].work, "{what}: executor counters");
            if !product_sparsity {
                assert_eq!(summed, whole_stats, "{what}: whole-layer counters");
            }
        }
    }
    replayed
}
