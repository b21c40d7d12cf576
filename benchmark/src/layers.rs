//! The traced pass (`--trace 1`): every layer measured **from outside**, by
//! timing calls into the crates' public functions.  Host times are medians
//! over repetitions of each call; counts are exact.
//!
//! The engine section runs the workload's own model; the serving sections
//! (`serve.`, `telemetry.`, `net.`, `loadgen.`) always run LeNet-5, the
//! model the TCP workloads serve, so the same list of metrics is measured
//! on every workload.

use crate::alloc;
use crate::engine;
use crate::fixture::{Fixture, ModelKind, TIME_STEPS};
use crate::host::Yardstick;
use crate::loadgen::{self, reply_digest, LoadReport, Shape};
use crate::report::{Metric, PER_LAYER};
use crate::spans::{Recorder, NO_REQUEST};
use crate::stats;
use crate::tcp;
use crate::Workload;
use snn_accel::compiler::Program;
use snn_accel::config::AcceleratorConfig;
use snn_accel::conv::ConvolutionUnit;
use snn_accel::linear::LinearUnit;
use snn_accel::memory::LayerTiling;
use snn_accel::pool::PoolingUnit;
use snn_accel::report::RunReport;
use snn_accel::serve::{ServerOptions, StreamServer};
use snn_accel::sim::Accelerator;
use snn_accel::timing::StageKind;
use snn_model::snn::{requantize, SnnLayer, SnnModel};
use snn_net::protocol::{Frame, InferRequest, ScoreReply};
use snn_net::{NetClient, NetOptions, NetServer, ReactorBackend};
use snn_telemetry::{Phase, RequestTrace};
use snn_tensor::bitplane::{popcount_levels, BitPlanes, Occupancy};
use snn_tensor::Tensor;
use std::time::{Duration, Instant};

/// What the traced pass reports.
pub struct Traced {
    /// The common per-layer list, in `PER_LAYER` order.
    pub metrics: Vec<Metric>,
    /// Measurements outside that list (VGG's layers 07–11).
    pub extras: Vec<Metric>,
    pub attempted: u64,
    pub ok: u64,
    pub noisy: bool,
}

/// Measurements collected by the sections, and the results they verified.
#[derive(Default)]
struct Sheet {
    metrics: Vec<Metric>,
    attempted: u64,
    ok: u64,
}

impl Sheet {
    fn put(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    fn noted(&mut self, name: &str, unit: &str, value: f64, note: String) {
        self.metrics
            .push(Metric::new(name, unit, value).with_note(note));
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.ok += u64::from(ok);
    }

    /// Counts every request a generator run settled.
    fn count_load(&mut self, load: &LoadReport) {
        self.attempted += load.blocks.attempted();
        self.ok += load.blocks.ok();
    }

    fn check_report(&mut self, fixture: &Fixture, input: usize, report: &RunReport) {
        self.check(fixture.oracle.matches(
            input,
            &report.logits,
            report.prediction,
            report.total_cycles(),
        ));
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Repetitions of each timed call: LeNet calls take well under a
/// millisecond, VGG calls a sixth of a second.
fn reps(kind: ModelKind) -> usize {
    match kind {
        ModelKind::Lenet => 30,
        ModelKind::Vgg => 5,
    }
}

/// Repetitions of the calls that take seconds on VGG (conversion, the
/// functional forward pass).
fn heavy_reps(kind: ModelKind) -> usize {
    match kind {
        ModelKind::Lenet => 30,
        ModelKind::Vgg => 3,
    }
}

/// Times `call(input)` `reps` times for each of `inputs` inputs, rep-major
/// so a noisy episode touches every input alike; returns each input's
/// median in milliseconds.
fn per_input_median_ms(
    inputs: usize,
    reps: usize,
    yardstick: &mut Yardstick,
    mut call: impl FnMut(usize) -> f64,
) -> Vec<f64> {
    let mut times = vec![Vec::with_capacity(reps); inputs];
    for _ in 0..reps {
        yardstick.sample();
        for (input, series) in times.iter_mut().enumerate() {
            series.push(call(input));
        }
    }
    times.iter().map(|series| stats::median(series)).collect()
}

// ---------------------------------------------------------------------------
// Engine section
// ---------------------------------------------------------------------------

/// `[rows, width]` view of a layer input for the bit-plane packer.
fn plane_dims(levels: &Tensor<i64>) -> (usize, usize) {
    let dims = levels.shape().dims();
    match dims {
        [c, h, w] => (c * h, *w),
        _ => (1, levels.len()),
    }
}

fn requant_levels(acc: &Tensor<i64>, requant: Option<f32>, max_level: i64) -> Tensor<i64> {
    match requant {
        Some(r) => acc.map(|&v| requantize(v, r, max_level)),
        None => acc.clone(),
    }
}

/// Rows `lo..hi` of a `[C, H, W]` map as a `[C, hi - lo, W]` band.
fn row_band(levels: &Tensor<i64>, lo: usize, hi: usize) -> Tensor<i64> {
    let dims = levels.shape().dims();
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let src = levels.as_slice();
    let mut data = Vec::with_capacity(c * (hi - lo) * w);
    for ch in 0..c {
        data.extend_from_slice(&src[ch * h * w + lo * w..ch * h * w + hi * w]);
    }
    Tensor::from_vec(vec![c, hi - lo, w], data).expect("band shape")
}

fn write_band(dst: &mut Tensor<i64>, band: &Tensor<i64>, out_lo: usize) {
    let dims = dst.shape().dims().to_vec();
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let bh = band.shape().dims()[1];
    let src = band.as_slice();
    let out = dst.as_mut_slice();
    for ch in 0..c {
        out[ch * h * w + out_lo * w..ch * h * w + (out_lo + bh) * w]
            .copy_from_slice(&src[ch * bh * w..(ch + 1) * bh * w]);
    }
}

struct Units {
    conv: ConvolutionUnit,
    pool: PoolingUnit,
    linear: LinearUnit,
}

impl Units {
    fn from_config(config: &AcceleratorConfig) -> Units {
        Units {
            conv: ConvolutionUnit::with_options(
                config.conv_geometry,
                config.dense_gather_threshold,
                config.product_sparsity,
            ),
            pool: PoolingUnit::new(config.pool_geometry),
            linear: LinearUnit::with_threshold(config.linear_lanes, config.dense_gather_threshold),
        }
    }
}

/// One inference replayed layer by layer on the public processing units,
/// the way the sequential executor drives them (tile by tile where the
/// compiled step is tiled), with a span around each unit call.  Returns the
/// logits and each layer's unit time in milliseconds (zero for flatten).
fn replay_inference(
    rec: &mut Recorder,
    units: &Units,
    model: &SnnModel,
    program: &Program,
    levels: Tensor<i64>,
    request: u64,
) -> (Vec<i64>, Vec<f64>) {
    let t = model.time_steps();
    let max_level = model.max_level();
    let mut current = levels;
    let mut layer_ms = Vec::with_capacity(program.steps.len());
    for (layer, step) in model.layers().iter().zip(&program.steps) {
        let (next, ms) = match layer {
            SnnLayer::Conv {
                weight_codes,
                bias_acc,
                stride,
                padding,
                requant,
            } => {
                if let Some(LayerTiling::RowBands { bands, .. }) = &step.tiling {
                    let mut out = Tensor::filled(step.out_shape.clone(), 0i64);
                    let mut total = 0.0;
                    for band in bands {
                        let band_in = row_band(&current, band.in_lo, band.in_hi);
                        let (result, ms) = rec.timed("accel.conv.run_layer_band", request, |_| {
                            units
                                .conv
                                .run_layer_band(
                                    &band_in,
                                    weight_codes,
                                    bias_acc,
                                    t,
                                    *stride,
                                    *padding,
                                    band,
                                )
                                .expect("conv band")
                        });
                        total += ms;
                        write_band(
                            &mut out,
                            &requant_levels(&result.accumulators, *requant, max_level),
                            band.out_lo,
                        );
                    }
                    (out, total)
                } else {
                    let (result, ms) = rec.timed("accel.conv.run_layer", request, |_| {
                        units
                            .conv
                            .run_layer(&current, weight_codes, bias_acc, t, *stride, *padding)
                            .expect("conv layer")
                    });
                    (
                        requant_levels(&result.accumulators, *requant, max_level),
                        ms,
                    )
                }
            }
            SnnLayer::Pool { kind, window } => {
                if let Some(LayerTiling::RowBands { bands, .. }) = &step.tiling {
                    let mut out = Tensor::filled(step.out_shape.clone(), 0i64);
                    let mut total = 0.0;
                    for band in bands {
                        let band_in = row_band(&current, band.in_lo, band.in_hi);
                        let (result, ms) = rec.timed("accel.pool.run_layer_band", request, |_| {
                            units
                                .pool
                                .run_layer_band(&band_in, *kind, *window, t, band)
                                .expect("pool band")
                        });
                        total += ms;
                        write_band(&mut out, &result.levels, band.out_lo);
                    }
                    (out, total)
                } else {
                    let (result, ms) = rec.timed("accel.pool.run_layer", request, |_| {
                        units
                            .pool
                            .run_layer(&current, *kind, *window, t)
                            .expect("pool layer")
                    });
                    (result.levels, ms)
                }
            }
            SnnLayer::Flatten => {
                let volume = current.len();
                (current.clone().reshape(vec![volume]).expect("flatten"), 0.0)
            }
            SnnLayer::Linear {
                weight_codes,
                bias_acc,
                requant,
            } => {
                let (result, ms) = rec.timed("accel.linear.run_layer", request, |_| {
                    match &step.tiling {
                        Some(LayerTiling::OutputChunks { chunk }) => units
                            .linear
                            .run_layer_chunked(&current, weight_codes, bias_acc, t, *chunk),
                        _ => units.linear.run_layer(&current, weight_codes, bias_acc, t),
                    }
                    .expect("linear layer")
                });
                (
                    requant_levels(&result.accumulators, *requant, max_level),
                    ms,
                )
            }
        };
        layer_ms.push(ms);
        current = next;
    }
    (current.into_vec(), layer_ms)
}

/// LeNet's feature maps fit the paper's buffers untiled; to exercise the
/// tiling layer on it too, `accel.tiling_ratio` gives it this budget.
const LENET_TILE_BUDGET_BYTES: u64 = 1024;

struct EngineFigures {
    /// `Accelerator::run` per inference on this model, in milliseconds.
    run_ms: f64,
}

fn engine_section(
    rec: &mut Recorder,
    fixture: &Fixture,
    yardstick: &mut Yardstick,
    sheet: &mut Sheet,
) -> EngineFigures {
    let kind = fixture.kind;
    let (reps, heavy) = (reps(kind), heavy_reps(kind));
    let inputs = &fixture.inputs;
    let n = inputs.len();

    sheet.noted(
        "model.fixture_s",
        "s",
        fixture.fixture_s,
        "training/init, calibration, oracle: the benchmark's cost".to_string(),
    );
    let convert: Vec<f64> = (0..heavy)
        .map(|_| {
            rec.timed("model.convert", NO_REQUEST, |_| fixture.convert())
                .1
        })
        .collect();
    sheet.put("model.convert_ms", "ms", stats::median(&convert));
    let model = fixture.convert();
    let accel = Accelerator::new(fixture.config);
    let compile: Vec<f64> = (0..30)
        .map(|_| {
            rec.timed("accel.compile", NO_REQUEST, |_| accel.compile(&model))
                .1
        })
        .collect();
    let compile_ms = stats::median(&compile);
    sheet.put("accel.compile_us", "us", compile_ms * 1e3);
    let program = accel.compile(&model).expect("compile the fixture model");

    let levels: Vec<Tensor<i64>> = inputs
        .iter()
        .map(|input| model.encode_input(input).expect("encode"))
        .collect();
    let level_bits = |l: &Tensor<i64>| (l.len() * TIME_STEPS) as f64;
    sheet.put(
        "encoding.input_density",
        "ratio",
        stats::mean(
            &levels
                .iter()
                .map(|l| popcount_levels(l.as_slice()) as f64 / level_bits(l))
                .collect::<Vec<_>>(),
        ),
    );

    // model: the functional forward pass, which also yields every layer's
    // oracle input.
    let forward_ms = per_input_median_ms(n, heavy, yardstick, |i| {
        rec.timed("model.forward_levels", i as u64, |_| {
            model.forward_levels(&levels[i])
        })
        .1
    });
    sheet.put("model.forward_levels_ms", "ms", stats::mean(&forward_ms));
    let layer_inputs: Vec<Vec<Tensor<i64>>> = levels
        .iter()
        .map(|l| {
            let mut acts = model.forward_levels(l).expect("oracle activations");
            acts.pop();
            acts.insert(0, l.clone());
            acts
        })
        .collect();

    // tensor: bit-plane packing and the occupancy walk over every unit
    // layer's oracle input.
    let unit_layers: Vec<usize> = program
        .steps
        .iter()
        .filter(|step| step.kind != StageKind::Flatten)
        .map(|step| step.index)
        .collect();
    let pack_ms = per_input_median_ms(n, reps, yardstick, |i| {
        rec.timed("tensor.pack", i as u64, |_| {
            for &l in &unit_layers {
                let x = &layer_inputs[i][l];
                let (rows, width) = plane_dims(x);
                std::hint::black_box(BitPlanes::pack(x.as_slice(), rows, width, TIME_STEPS));
            }
        })
        .1
    });
    let occupancy_ms = per_input_median_ms(n, reps, yardstick, |i| {
        rec.timed("tensor.occupancy", i as u64, |_| {
            for &l in &unit_layers {
                let x = &layer_inputs[i][l];
                let (rows, width) = plane_dims(x);
                std::hint::black_box(Occupancy::from_levels(
                    x.as_slice(),
                    rows,
                    width,
                    TIME_STEPS,
                ));
            }
        })
        .1
    });
    sheet.put("tensor.pack_us", "us", stats::mean(&pack_ms) * 1e3);
    sheet.put(
        "tensor.occupancy_us",
        "us",
        stats::mean(&occupancy_ms) * 1e3,
    );
    // Spike bits set, and bits in all, in the input of layer `l` over the
    // whole input set.
    let plane_bits = |l: usize| -> (f64, f64) {
        layer_inputs.iter().fold((0.0, 0.0), |(set, all), acts| {
            (
                set + popcount_levels(acts[l].as_slice()) as f64,
                all + level_bits(&acts[l]),
            )
        })
    };
    let density = |l: usize| {
        let (set, all) = plane_bits(l);
        set / all
    };
    let (set, all) = unit_layers
        .iter()
        .map(|&l| plane_bits(l))
        .fold((0.0, 0.0), |(set, all), (s, a)| (set + s, all + a));
    sheet.put("tensor.plane_density", "ratio", set / all);

    // encoding + accel: the input encoder, the entry points and the units
    // replayed layer by layer, timed back to back in one repetition loop so
    // that `run_sequential` and its parts see the same machine state.
    let units = Units::from_config(&fixture.config);
    let layers = model.layers().len();
    let mut reports: Vec<Option<RunReport>> = vec![None; n];
    let series = || vec![Vec::with_capacity(reps); n];
    let (mut encode_t, mut run_t, mut sequential_t) = (series(), series(), series());
    let mut layer_times = vec![series(); layers];
    for _ in 0..reps {
        yardstick.sample();
        for i in 0..n {
            let request = i as u64;
            let (report, ms) = rec.timed("accel.run", request, |_| accel.run(&model, &inputs[i]));
            sheet.check_report(fixture, i, &report.expect("run"));
            run_t[i].push(ms);

            let (report, ms) = rec.timed("accel.run_sequential", request, |_| {
                accel.run_sequential(&model, &inputs[i])
            });
            let report = report.expect("run_sequential");
            sheet.check_report(fixture, i, &report);
            reports[i] = Some(report);
            sequential_t[i].push(ms);

            let (logits, layer_ms) = rec
                .timed("replay.inference", request, |rec| {
                    let (levels, ms) = rec.timed("encoding.encode_input", request, |_| {
                        model.encode_input(&inputs[i])
                    });
                    encode_t[i].push(ms);
                    replay_inference(
                        rec,
                        &units,
                        &model,
                        &program,
                        levels.expect("encode"),
                        request,
                    )
                })
                .0;
            sheet.check(logits == fixture.oracle.outputs[i].0);
            for (l, ms) in layer_ms.into_iter().enumerate() {
                layer_times[l][i].push(ms);
            }
        }
    }
    let medians = |per_input: &[Vec<f64>]| -> Vec<f64> {
        per_input
            .iter()
            .map(|series| stats::median(series))
            .collect()
    };
    let (encode_ms, run_ms, sequential_ms) =
        (medians(&encode_t), medians(&run_t), medians(&sequential_t));
    sheet.put("encoding.encode_us", "us", stats::mean(&encode_ms) * 1e3);
    let fast_ms = per_input_median_ms(n, heavy, yardstick, |i| {
        let (report, ms) = rec.timed("accel.run_fast", i as u64, |_| {
            accel.run_fast(&model, &inputs[i])
        });
        sheet.check_report(fixture, i, &report.expect("run_fast"));
        ms
    });
    let (run, sequential) = (stats::mean(&run_ms), stats::mean(&sequential_ms));
    sheet.put("accel.run_ms", "ms", run);
    sheet.put("accel.run_sequential_ms", "ms", sequential);
    sheet.put("accel.run_fast_ms", "ms", stats::mean(&fast_ms));
    sheet.noted(
        "accel.pipeline_ratio",
        "ratio",
        sequential / run,
        "run_sequential / run".to_string(),
    );

    // Per layer: the mean over inputs of each input's median.
    let layer_ms: Vec<f64> = layer_times
        .iter()
        .map(|per_input| {
            stats::mean(
                &per_input
                    .iter()
                    .map(|s| stats::median(s))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let stage_ms = |kind: StageKind| -> f64 {
        program
            .steps
            .iter()
            .zip(&layer_ms)
            .filter(|(step, _)| step.kind == kind)
            .map(|(_, ms)| ms)
            .sum()
    };
    let units_ms: f64 = layer_ms.iter().sum();
    sheet.put("accel.conv_ms", "ms", stage_ms(StageKind::Convolution));
    sheet.put("accel.pool_ms", "ms", stage_ms(StageKind::Pooling));
    sheet.put("accel.linear_ms", "ms", stage_ms(StageKind::Linear));

    // Simulated counts by stage, mean over the input set (exact).
    let reports: Vec<RunReport> = reports
        .into_iter()
        .map(|r| r.expect("a report per input"))
        .collect();
    let stage_count = |kind: StageKind, pick: fn(&snn_accel::report::LayerExecution) -> u64| {
        reports
            .iter()
            .map(|r| {
                r.layers
                    .iter()
                    .filter(|l| l.kind == kind)
                    .map(pick)
                    .sum::<u64>() as f64
            })
            .sum::<f64>()
            / n as f64
    };
    sheet.put(
        "accel.conv_cycles",
        "count",
        stage_count(StageKind::Convolution, |l| l.latency_cycles),
    );
    sheet.put(
        "accel.pool_cycles",
        "count",
        stage_count(StageKind::Pooling, |l| l.latency_cycles),
    );
    sheet.put(
        "accel.linear_cycles",
        "count",
        stage_count(StageKind::Linear, |l| l.latency_cycles),
    );
    sheet.put(
        "accel.conv_adder_ops",
        "count",
        stage_count(StageKind::Convolution, |l| l.work.adder_ops),
    );
    sheet.put(
        "accel.linear_adder_ops",
        "count",
        stage_count(StageKind::Linear, |l| l.work.adder_ops),
    );

    let weight_layers: Vec<usize> = program
        .steps
        .iter()
        .filter(|step| matches!(step.kind, StageKind::Convolution | StageKind::Linear))
        .map(|step| step.index)
        .collect();
    for (ordinal, &l) in weight_layers.iter().enumerate() {
        let tag = format!("accel.layer{:02}", ordinal + 1);
        sheet.noted(
            &format!("{tag}.host_us"),
            "us",
            layer_ms[l] * 1e3,
            program.steps[l].notation.clone(),
        );
        sheet.put(&format!("{tag}.plane_density"), "ratio", density(l));
    }
    let heaviest = weight_layers
        .iter()
        .map(|&l| layer_ms[l])
        .fold(0.0, f64::max);
    sheet.put("accel.heaviest_layer_share", "ratio", heaviest / units_ms);

    // Executor self time: what `run_sequential` spends outside the unit
    // calls, input encoding and its own compile.
    let encode = stats::mean(&encode_ms);
    let exec_self = sequential - units_ms - encode - compile_ms;
    sheet.noted(
        "accel.exec_self_ms",
        "ms",
        exec_self,
        format!(
            "run_sequential {sequential:.4} - units {units_ms:.4} - encode {encode:.4} - compile {compile_ms:.4}"
        ),
    );

    // Tiling: the same model with and without an activation budget.
    let tiled_config = AcceleratorConfig {
        activation_buffer_bytes: Some(
            fixture
                .config
                .activation_buffer_bytes
                .unwrap_or(LENET_TILE_BUDGET_BYTES),
        ),
        ..fixture.config
    };
    let untiled_config = AcceleratorConfig {
        activation_buffer_bytes: None,
        ..fixture.config
    };
    let mut variant_ms =
        |name: &'static str, config: AcceleratorConfig, sheet: &mut Sheet| -> (f64, f64) {
            let variant = Accelerator::new(config);
            let mut adder_ops = vec![0.0; n];
            let ms = per_input_median_ms(n, reps, yardstick, |i| {
                let (report, ms) = rec.timed(name, i as u64, |_| {
                    variant.run_sequential(&model, &inputs[i])
                });
                let report = report.expect("variant run");
                sheet.check_report(fixture, i, &report);
                adder_ops[i] = report.total_work().adder_ops as f64;
                ms
            });
            (stats::mean(&ms), stats::mean(&adder_ops))
        };
    let (tiled_ms, _) = variant_ms("accel.run_sequential.tiled", tiled_config, sheet);
    let (untiled_ms, _) = variant_ms("accel.run_sequential.untiled", untiled_config, sheet);
    sheet.noted(
        "accel.tiling_ratio",
        "ratio",
        tiled_ms / untiled_ms,
        format!(
            "{} B budget over no budget",
            tiled_config.activation_buffer_bytes.unwrap_or(0)
        ),
    );
    let tiled_program = Accelerator::new(tiled_config)
        .compile(&model)
        .expect("compile under the tile budget");
    let tiles: usize = tiled_program
        .steps
        .iter()
        .map(|s| {
            s.tiling
                .as_ref()
                .map_or(1, |t| t.tile_count(s.out_shape[0]))
        })
        .sum();
    sheet.put("accel.tiles_per_infer", "count", tiles as f64);

    // Host time per simulated event.
    let adder_ops = stats::mean(
        &reports
            .iter()
            .map(|r| r.total_work().adder_ops as f64)
            .collect::<Vec<_>>(),
    );
    let cycles = stats::mean(
        &reports
            .iter()
            .map(|r| r.total_cycles() as f64)
            .collect::<Vec<_>>(),
    );
    sheet.put(
        "accel.host_ns_per_adder_op",
        "ns",
        sequential * 1e6 / adder_ops,
    );
    sheet.put("accel.host_ns_per_cycle", "ns", sequential * 1e6 / cycles);
    let half = n / 2;
    sheet.noted(
        "accel.sparse_dense_host_ratio",
        "ratio",
        stats::mean(&sequential_ms[half..]) / stats::mean(&sequential_ms[..half]),
        "second half of the input set over the first (LeNet: 40 % noise over 5 %)".to_string(),
    );

    // Product sparsity, option on over option off.
    let sparsity = |on: bool| AcceleratorConfig {
        product_sparsity: on,
        ..fixture.config
    };
    let (on_ms, on_ops) = variant_ms(
        "accel.run_sequential.product_sparsity",
        sparsity(true),
        sheet,
    );
    let (off_ms, off_ops) = variant_ms("accel.run_sequential.plain", sparsity(false), sheet);
    sheet.put("accel.product_sparsity_host_ratio", "ratio", on_ms / off_ms);
    sheet.put("accel.product_sparsity_op_ratio", "ratio", on_ops / off_ops);

    // Allocations of one pass of the workload's own call.
    let before = alloc::snapshot();
    for input in inputs {
        std::hint::black_box(engine::call(kind, &accel, &model, input).expect("allocation pass"));
    }
    let pass = alloc::snapshot().since(before);
    sheet.put(
        "accel.allocs_per_infer",
        "count",
        pass.allocs as f64 / n as f64,
    );
    sheet.put(
        "accel.alloc_kib_per_infer",
        "KiB",
        pass.bytes as f64 / 1024.0 / n as f64,
    );

    // parallel
    sheet.put(
        "parallel.thread_budget",
        "count",
        snn_parallel::budget().total() as f64,
    );
    let items = [0u8; 2];
    let dispatch: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(snn_parallel::par_map(&items, 2, |_, x| *x));
            ms_since(start) * 1e3
        })
        .collect();
    sheet.noted(
        "parallel.par_map_dispatch_us",
        "us",
        stats::median(&dispatch),
        "two empty items on two threads".to_string(),
    );

    EngineFigures { run_ms: run }
}

// ---------------------------------------------------------------------------
// Serve section (in-process StreamServer, LeNet-5)
// ---------------------------------------------------------------------------

/// Inputs of one in-process burst.
const BURST_INPUTS: usize = 256;
const BURSTS: usize = 5;

fn serve_options(trace: bool, replicas: usize) -> ServerOptions {
    ServerOptions {
        trace,
        replicas,
        ..ServerOptions::default()
    }
}

/// Median throughput of `BURSTS` bursts of `run_all`, in inferences/s.
fn burst_rate(
    server: &StreamServer,
    lenet: &Fixture,
    burst: &[Tensor<f32>],
    sheet: &mut Sheet,
) -> f64 {
    let rates: Vec<f64> = (0..BURSTS)
        .map(|_| {
            let start = Instant::now();
            let reports = server.run_all(burst).expect("in-process burst");
            let rate = burst.len() as f64 / start.elapsed().as_secs_f64();
            for (i, report) in reports.iter().enumerate() {
                sheet.check_report(lenet, i % lenet.inputs.len(), report);
            }
            rate
        })
        .collect();
    stats::median(&rates)
}

fn phase_ms(traces: &[RequestTrace], phase: Phase) -> Vec<f64> {
    stats::sorted(
        traces
            .iter()
            .filter_map(|t| t.phase_seconds(phase))
            .map(|s| s * 1e3)
            .collect(),
    )
}

/// Returns the in-process solo round trip in milliseconds.
fn serve_section(rec: &mut Recorder, lenet: &Fixture, lenet_run_ms: f64, sheet: &mut Sheet) -> f64 {
    let model = lenet.convert();
    let n = lenet.inputs.len();
    let burst: Vec<Tensor<f32>> = (0..BURST_INPUTS)
        .map(|i| lenet.inputs[i % n].clone())
        .collect();
    let start = |trace, replicas| {
        StreamServer::start_with(lenet.config, model.clone(), serve_options(trace, replicas))
            .expect("start an in-process StreamServer")
    };

    let server = start(true, 1);
    let (mut submit_us, mut solo_ms) = (Vec::new(), Vec::new());
    for rep in 0..30 * n {
        let i = rep % n;
        let input = lenet.inputs[i].clone();
        let report = rec.scope("serve.solo_roundtrip", rep as u64, |rec| {
            let begin = Instant::now();
            let ticket = rec
                .scope("serve.submit", rep as u64, |_| server.submit(input))
                .expect("submit");
            submit_us.push(ms_since(begin) * 1e3);
            let report = ticket.wait().expect("solo inference");
            solo_ms.push(ms_since(begin));
            report
        });
        sheet.check_report(lenet, i, &report);
    }
    let solo = stats::median(&solo_ms);
    sheet.put("serve.submit_us", "us", stats::median(&submit_us));
    sheet.put("serve.solo_roundtrip_ms", "ms", solo);
    sheet.noted(
        "serve.solo_overhead_ms",
        "ms",
        solo - lenet_run_ms,
        format!("minus Accelerator::run at {lenet_run_ms:.4} ms"),
    );

    // Bursts, alternating tracing on and off so both see the same machine.
    let untraced = start(false, 1);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        on.push(burst_rate(&server, lenet, &burst, sheet));
        off.push(burst_rate(&untraced, lenet, &burst, sheet));
    }
    untraced.shutdown();
    let (on, off) = (stats::median(&on), stats::median(&off));
    sheet.put("serve.burst_infer_per_s", "1/s", on);
    sheet.noted(
        "telemetry.overhead_share",
        "ratio",
        1.0 - on / off,
        format!("ServerOptions::trace on {on:.1} inf/s, off {off:.1} inf/s"),
    );

    let before = alloc::snapshot();
    server.run_all(&burst).expect("allocation burst");
    let allocs = alloc::snapshot().since(before);
    sheet.put(
        "serve.allocs_per_infer",
        "count",
        allocs.allocs as f64 / burst.len() as f64,
    );

    let traces = server.recorder().drain();
    let stats_now = server.shutdown();
    sheet.put("serve.mean_batch", "count", stats_now.mean_batch());
    sheet.put(
        "serve.largest_batch",
        "count",
        stats_now.largest_batch as f64,
    );
    sheet.put("serve.rejected", "count", stats_now.rejected as f64);
    sheet.put(
        "serve.deadline_sheds",
        "count",
        stats_now.deadline_sheds as f64,
    );
    let (wait, assembly, compute) = (
        phase_ms(&traces, Phase::QueueWait),
        phase_ms(&traces, Phase::BatchAssembly),
        phase_ms(&traces, Phase::Compute),
    );
    sheet.put(
        "serve.queue_wait_p50_ms",
        "ms",
        stats::percentile(&wait, 0.5),
    );
    sheet.put(
        "serve.queue_wait_p90_ms",
        "ms",
        stats::percentile(&wait, 0.9),
    );
    sheet.put(
        "serve.batch_assembly_us",
        "us",
        stats::percentile(&assembly, 0.5) * 1e3,
    );
    sheet.put(
        "serve.compute_p50_ms",
        "ms",
        stats::percentile(&compute, 0.5),
    );
    sheet.put(
        "serve.compute_p90_ms",
        "ms",
        stats::percentile(&compute, 0.9),
    );

    let two = start(true, 2);
    let two_rate = burst_rate(&two, lenet, &burst, sheet);
    two.shutdown();
    sheet.noted(
        "serve.replicas2_ratio",
        "ratio",
        two_rate / on,
        format!("{two_rate:.1} inf/s at 2 replicas over {on:.1} at 1"),
    );
    solo
}

// ---------------------------------------------------------------------------
// Net section (loopback NetServer, LeNet-5)
// ---------------------------------------------------------------------------

fn median_us(reps: usize, mut call: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            call();
            ms_since(start) * 1e3
        })
        .collect();
    stats::median(&times)
}

/// Saturated throughput of a loopback server built with `options`.
fn saturated_rate(
    lenet: &Fixture,
    options: NetOptions,
    seed: u64,
    seconds: f64,
    sheet: &mut Sheet,
) -> (f64, NetServer) {
    let (_, first_ok, server) = tcp::setup_once(lenet, options);
    sheet.check(first_ok);
    let load = tcp::drive(&server, lenet, loadgen::SATURATE, seed, seconds);
    sheet.count_load(&load);
    (load.span_completed as f64 / load.span_s, server)
}

fn net_section(
    rec: &mut Recorder,
    lenet: &Fixture,
    seed: u64,
    seconds: f64,
    serve_solo_ms: f64,
    sheet: &mut Sheet,
) {
    // The codec alone.
    let input = &lenet.inputs[0];
    let (logits, prediction) = &lenet.oracle.outputs[0];
    let infer = Frame::Infer(InferRequest::from_tensor(1, input));
    let scores = Frame::Scores(ScoreReply {
        request_id: 1,
        prediction: *prediction as u32,
        time_steps: TIME_STEPS as u32,
        thread_budget: snn_parallel::budget().total() as u32,
        total_cycles: lenet.oracle.cycles,
        logits: logits.clone(),
    });
    let (infer_bytes, scores_bytes) = (infer.encode(), scores.encode());
    sheet.put(
        "net.encode_infer_us",
        "us",
        median_us(200, || {
            std::hint::black_box(infer.encode());
        }),
    );
    sheet.put(
        "net.decode_infer_us",
        "us",
        median_us(200, || {
            std::hint::black_box(Frame::decode(&infer_bytes).expect("decode INFER"));
        }),
    );
    sheet.put(
        "net.encode_scores_us",
        "us",
        median_us(200, || {
            std::hint::black_box(scores.encode());
        }),
    );
    sheet.put(
        "net.decode_scores_us",
        "us",
        median_us(200, || {
            std::hint::black_box(Frame::decode(&scores_bytes).expect("decode SCORES"));
        }),
    );
    sheet.put("net.request_bytes", "count", infer_bytes.len() as f64);
    sheet.put("net.reply_bytes", "count", scores_bytes.len() as f64);

    // One request at a time over loopback, tracing on.
    let (_, first_ok, server) = tcp::setup_once(lenet, tcp::net_options(true));
    sheet.check(first_ok);
    let mut client = NetClient::connect(server.local_addr()).expect("connect to loopback");
    let n = lenet.inputs.len();
    let mut solo_ms = Vec::with_capacity(30 * n);
    for rep in 0..30 * n {
        let i = rep % n;
        let (reply, ms) = rec.timed("net.solo_roundtrip", rep as u64, |_| {
            client.infer(&lenet.inputs[i])
        });
        solo_ms.push(ms);
        sheet.check(reply.is_ok_and(|r| {
            lenet
                .oracle
                .matches(i, &r.logits, r.prediction as usize, r.total_cycles)
        }));
    }
    let solo = stats::median(&solo_ms);
    sheet.put("net.solo_roundtrip_ms", "ms", solo);
    sheet.noted(
        "net.wire_overhead_ms",
        "ms",
        solo - serve_solo_ms,
        format!("minus serve.solo_roundtrip_ms at {serve_solo_ms:.4} ms"),
    );
    drop(client);
    server.shutdown();

    // Saturated, on each readiness backend.
    let backend = |backend| NetOptions {
        backend,
        ..tcp::net_options(true)
    };
    let (epoll_rate, server) =
        saturated_rate(lenet, backend(ReactorBackend::Epoll), seed, seconds, sheet);
    let stall_us = NetClient::connect(server.local_addr())
        .and_then(|mut c| c.stats_traces())
        .map(|jsonl| {
            let traces: Vec<RequestTrace> = jsonl
                .lines()
                .filter_map(RequestTrace::from_json_line)
                .collect();
            stats::percentile(&phase_ms(&traces, Phase::WriteStall), 0.9) * 1e3
        })
        .unwrap_or(f64::NAN);
    sheet.put("net.write_stall_p90_us", "us", stall_us);
    let net_stats = server.shutdown();
    sheet.put("net.requests", "count", net_stats.requests as f64);
    sheet.put(
        "net.protocol_errors",
        "count",
        net_stats.protocol_errors as f64,
    );
    sheet.put("net.turned_away", "count", net_stats.turned_away as f64);
    sheet.put("net.reactors", "count", net_stats.reactors as f64);
    let per_reactor: Vec<f64> = net_stats
        .per_reactor
        .iter()
        .map(|r| r.requests as f64)
        .collect();
    let (most, least) = per_reactor
        .iter()
        .fold((f64::MIN, f64::MAX), |(hi, lo), &r| (hi.max(r), lo.min(r)));
    sheet.noted(
        "net.reactor_request_skew",
        "ratio",
        (most - least) / stats::mean(&per_reactor),
        "(most - least) / mean requests per reactor".to_string(),
    );
    let (poll_rate, server) =
        saturated_rate(lenet, backend(ReactorBackend::Poll), seed, seconds, sheet);
    server.shutdown();
    sheet.noted(
        "net.poll_backend_ratio",
        "ratio",
        poll_rate / epoll_rate,
        format!("poll {poll_rate:.1} inf/s over epoll {epoll_rate:.1} inf/s, saturated"),
    );
}

// ---------------------------------------------------------------------------
// Load generator section
// ---------------------------------------------------------------------------

/// The generator's own figures for one run (also printed, as extras, by
/// the untraced TCP workloads).
pub fn loadgen_metrics(load: &LoadReport) -> Vec<Metric> {
    let latencies = load.latencies_ms();
    let lags = stats::sorted(load.records.iter().map(|r| r.send_lag_us()).collect());
    let lag_p99 = stats::percentile(&lags, 0.99);
    let mut out = vec![
        Metric::new(
            "loadgen.send_lag_p50_us",
            "us",
            stats::percentile(&lags, 0.5),
        ),
        Metric::new("loadgen.send_lag_p99_us", "us", lag_p99).with_note(if lag_p99 >= 1000.0 {
            "FLAG: the generator ran more than 1 ms late; the run measured the generator"
                .to_string()
        } else {
            String::new()
        }),
        Metric::new(
            "loadgen.cpu_share",
            "ratio",
            load.generator_cpu_s / load.span_s,
        )
        .with_note("generator thread CPU over the span; not in cpu_ms_per_infer".to_string()),
        Metric::new(
            "loadgen.offered_per_s",
            "1/s",
            load.span_offered as f64 / load.span_s,
        ),
        Metric::new(
            "loadgen.achieved_per_s",
            "1/s",
            load.span_completed as f64 / load.span_s,
        ),
        Metric::new("loadgen.samples", "count", latencies.len() as f64),
        Metric::new("loadgen.backlog_max", "count", load.backlog_max as f64)
            .with_note("requests unanswered when a burst came due".to_string()),
        Metric::new(
            "loadgen.latency_p90_ms",
            "ms",
            stats::percentile(&latencies, 0.9),
        ),
    ];
    // A percentile is reported only when at least ten samples lie beyond it.
    if latencies.len() >= 1000 {
        out.push(Metric::new(
            "loadgen.latency_p99_ms",
            "ms",
            stats::percentile(&latencies, 0.99),
        ));
    }
    out
}

/// Burst rates tried for `loadgen.slo_rate_per_s`, in inferences/s, and
/// the p90 limit a rate must meet.
const SLO_RATES: [u64; 4] = [200, 400, 800, 1200];
const SLO_P90_MS: f64 = 20.0;

/// Requests of one burst, over all connections.
const BURST_PER_TICK: usize = loadgen::BURST_PER_CONNECTION * loadgen::MAX_CONNECTIONS;

fn burst_at(rate_per_s: u64) -> Shape {
    Shape::Burst {
        period: Duration::from_nanos(BURST_PER_TICK as u64 * 1_000_000_000 / rate_per_s),
        per_connection: loadgen::BURST_PER_CONNECTION,
    }
}

fn loadgen_section(lenet: &Fixture, seed: u64, seconds: f64, sheet: &mut Sheet) {
    let (_, first_ok, server) = tcp::setup_once(lenet, tcp::net_options(false));
    sheet.check(first_ok);
    // Long enough for a p99 with ten samples beyond it at 400 inf/s.
    let load = tcp::drive(&server, lenet, loadgen::BURST, seed, seconds.max(3.0));
    sheet.count_load(&load);
    sheet.metrics.extend(loadgen_metrics(&load));

    let two_bursts = 2 * BURST_PER_TICK;
    let mut slo_rate = 0u64;
    let mut tried = Vec::new();
    for rate in SLO_RATES {
        let load = tcp::drive(&server, lenet, burst_at(rate), seed, 1.5);
        sheet.count_load(&load);
        let p90 = stats::percentile(&load.latencies_ms(), 0.9);
        let all_answered = load.blocks.ok() == load.blocks.attempted() && load.aborted.is_none();
        // More than two bursts unanswered at a due time is a backlog that
        // is not draining between bursts.
        let met = all_answered && p90 <= SLO_P90_MS && load.backlog_max <= two_bursts;
        tried.push(format!(
            "{rate}: p90 {p90:.2} ms backlog {}{}",
            load.backlog_max,
            if met { "" } else { " MISS" }
        ));
        if met {
            slo_rate = slo_rate.max(rate);
        }
    }
    server.shutdown();
    sheet.noted(
        "loadgen.slo_rate_per_s",
        "1/s",
        slo_rate as f64,
        format!(
            "highest burst rate with p90 <= {SLO_P90_MS} ms, all answered, no growing backlog; {}",
            tried.join("; ")
        ),
    );
}

// ---------------------------------------------------------------------------
// Tracing overhead and replay
// ---------------------------------------------------------------------------

/// A traced result kept for the replay: which input, and what came back.
struct Served {
    input: usize,
    digest: u64,
}

/// Most results replayed (evenly spaced over those recorded).
const REPLAY_LIMIT: usize = 256;

/// The engine workload's own loop for `seconds`; with `rec`, every call
/// runs inside a span.  Returns inferences per second and what was served.
fn engine_loop(
    fixture: &Fixture,
    engine: &(SnnModel, Accelerator),
    seconds: f64,
    mut rec: Option<&mut Recorder>,
    sheet: &mut Sheet,
) -> (f64, Vec<Served>) {
    let (model, accel) = engine;
    let mut served = Vec::new();
    let start = Instant::now();
    let mut done = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        for (i, input) in fixture.inputs.iter().enumerate() {
            let report = match rec.as_deref_mut() {
                Some(rec) => rec.scope("workload.call", done, |_| {
                    engine::call(fixture.kind, accel, model, input)
                }),
                None => engine::call(fixture.kind, accel, model, input),
            }
            .expect("workload call");
            sheet.check_report(fixture, i, &report);
            if rec.is_some() {
                served.push(Served {
                    input: i,
                    digest: reply_digest(&report.logits, report.prediction, report.total_cycles()),
                });
            }
            done += 1;
        }
    }
    (done as f64 / start.elapsed().as_secs_f64(), served)
}

/// The TCP workload's own load for `seconds` against a server with
/// request tracing on or off; with `rec`, every request becomes a span
/// (due → reply) with its time on the wire and in the server as a child.
fn tcp_loop(
    fixture: &Fixture,
    shape: Shape,
    seed: u64,
    seconds: f64,
    rec: Option<&mut Recorder>,
    sheet: &mut Sheet,
) -> (f64, Vec<Served>) {
    let (_, first_ok, server) = tcp::setup_once(fixture, tcp::net_options(rec.is_some()));
    sheet.check(first_ok);
    let load = tcp::drive(&server, fixture, shape, seed, seconds);
    server.shutdown();
    sheet.count_load(&load);
    let mut served = Vec::new();
    if let Some(rec) = rec {
        // The generator's clock started when it did; shift onto the
        // recorder's.
        let base = rec
            .now_ns()
            .saturating_sub(load.records.iter().map(|r| r.done_ns).max().unwrap_or(0));
        for (id, record) in load
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.done_ns != 0)
        {
            let request = rec.add(
                "workload.request",
                None,
                id as u64,
                base + record.due_ns,
                base + record.done_ns,
            );
            rec.add(
                "workload.request.sent_to_reply",
                Some(request),
                id as u64,
                base + record.sent_ns,
                base + record.done_ns,
            );
            served.push(Served {
                input: record.input as usize,
                digest: record.reply_digest,
            });
        }
    }
    (load.span_completed as f64 / load.span_s, served)
}

fn trace_section(
    rec: &mut Recorder,
    workload: Workload,
    fixture: &Fixture,
    seed: u64,
    seconds: f64,
    sheet: &mut Sheet,
) {
    // Untraced and traced segments alternate, so both see the same machine.
    const PAIRS: usize = 3;
    let segment = seconds / (2 * PAIRS) as f64;
    let engine = workload.shape().is_none().then(|| {
        let (_, first_ok, model, accel) = engine::setup_once(fixture);
        sheet.check(first_ok);
        (model, accel)
    });
    let run = |rec: Option<&mut Recorder>, sheet: &mut Sheet| match (workload.shape(), &engine) {
        (Some(shape), _) => tcp_loop(fixture, shape, seed, segment, rec, sheet),
        (None, Some(engine)) => engine_loop(fixture, engine, segment, rec, sheet),
        (None, None) => unreachable!("an engine workload builds its engine above"),
    };
    let (mut untraced, mut traced, mut served) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        untraced.push(run(None, sheet).0);
        let (rate, segment_served) = run(Some(rec), sheet);
        traced.push(rate);
        served.extend(segment_served);
    }
    let (untraced, traced) = (stats::median(&untraced), stats::median(&traced));
    sheet.noted(
        "trace.overhead_share",
        "ratio",
        1.0 - traced / untraced,
        format!(
            "the workload's own load, {PAIRS} alternating pairs of {segment:.1} s: traced {traced:.2} inf/s, untraced {untraced:.2} inf/s"
        ),
    );

    // Replay what the traced span served on the transaction-level path
    // (`run_fast_sequential`): another route to the same bits.
    let model = fixture.convert();
    let accel = Accelerator::new(fixture.config);
    let stride = served.len().div_ceil(REPLAY_LIMIT).max(1);
    let (mut requests, mut mismatches) = (0u64, 0u64);
    for item in served.iter().step_by(stride) {
        let report = rec
            .scope("replay.run_fast_sequential", requests, |_| {
                accel.run_fast_sequential(&model, &fixture.inputs[item.input])
            })
            .expect("replay");
        let same =
            reply_digest(&report.logits, report.prediction, report.total_cycles()) == item.digest;
        requests += 1;
        mismatches += u64::from(!same);
        sheet.check(same);
    }
    sheet.put("replay.requests", "count", requests as f64);
    sheet.put("replay.mismatches", "count", mismatches as f64);
}

// ---------------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------------

/// Runs every section and sorts the measurements into the declared list
/// and the extras.  `seconds` scales the spans that are loads rather than
/// repetitions of a call.
pub fn traced_pass(workload: Workload, fixture: &Fixture, seed: u64, seconds: f64) -> Traced {
    let mut rec = Recorder::new();
    let mut sheet = Sheet::default();
    let mut yardstick = Yardstick::with_capacity(1 << 12);

    let figures = engine_section(&mut rec, fixture, &mut yardstick, &mut sheet);

    let lenet_owned;
    let (lenet, lenet_run_ms) = if fixture.kind == ModelKind::Lenet {
        (fixture, figures.run_ms)
    } else {
        lenet_owned = Fixture::build(ModelKind::Lenet, seed);
        let model = lenet_owned.convert();
        let accel = Accelerator::new(lenet_owned.config);
        let run_ms = per_input_median_ms(lenet_owned.inputs.len(), 30, &mut yardstick, |i| {
            let start = Instant::now();
            std::hint::black_box(
                accel
                    .run(&model, &lenet_owned.inputs[i])
                    .expect("LeNet run"),
            );
            ms_since(start)
        });
        (&lenet_owned, stats::mean(&run_ms))
    };

    let serve_solo_ms = serve_section(&mut rec, lenet, lenet_run_ms, &mut sheet);
    net_section(
        &mut rec,
        lenet,
        seed,
        (seconds * 0.1).max(1.0),
        serve_solo_ms,
        &mut sheet,
    );
    loadgen_section(lenet, seed, seconds * 0.2, &mut sheet);
    trace_section(
        &mut rec,
        workload,
        fixture,
        seed,
        (seconds * 0.3).max(3.0),
        &mut sheet,
    );

    sheet.put("host.yardstick_us", "us", yardstick.median_us());
    sheet.put("host.yardstick_spread", "ratio", yardstick.spread());
    let span_file = crate::out_dir().join(format!("trace-{}.jsonl", workload.name()));
    sheet.noted(
        "trace.spans",
        "count",
        rec.spans().len() as f64,
        span_file.display().to_string(),
    );
    if let Err(e) = rec.write_jsonl(&span_file) {
        eprintln!(
            "snn-benchmark: could not write {}: {e}",
            span_file.display()
        );
    }

    // A declared metric nobody measured reads NaN, which fails the run.
    let mut collected = sheet.metrics;
    let metrics = PER_LAYER
        .iter()
        .map(
            |def| match collected.iter().position(|m| m.name == def.name) {
                Some(at) => collected.remove(at),
                None => {
                    Metric::new(def.name, def.unit, f64::NAN).with_note("NOT MEASURED".to_string())
                }
            },
        )
        .collect();
    Traced {
        metrics,
        extras: collected,
        attempted: sheet.attempted,
        ok: sheet.ok,
        noisy: yardstick.noisy(),
    }
}
