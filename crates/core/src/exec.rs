//! Execution engine: the layer loop of the simulator.
//!
//! `execute` walks the compiled [`Program`] one layer at a time on the
//! calling thread.  Each layer runs once, on its processing-unit model,
//! over the whole input map; its output becomes the next layer's input; a
//! unit's error is stamped with the index of the layer it failed on.
//!
//! # Activations between layers
//!
//! The paper's activation buffers hold each activation as its `T`-bit
//! radix spike train, and so does the executor: the maps between layers
//! are channel-last `[H, W, C]` levels (a vector after a flatten) in the
//! narrowest element the train allows — `u8` for trains of up to
//! [`MAX_THRESHOLD_STEPS`] steps whose every hidden conv and linear layer
//! requantises, `i64` otherwise — in two buffers sized once for the
//! largest map and swapped layer by layer.  It is one loop with two
//! instantiations, chosen from the model before the first layer.  A conv or
//! linear layer ends in the level epilogue, which writes the next layer's
//! levels straight from the channel-last accumulator rows: bias added, and
//! each sum's level the number of the layer's requantisation thresholds
//! ([`SnnModel::thresholds`], derived from `requantize` when the model is
//! built) it reaches.  Trains longer than [`MAX_THRESHOLD_STEPS`] hold no
//! thresholds, and their levels are `requantize` itself.  The next
//! convolution builds its spike list from each pixel's contiguous
//! channel levels, pooling folds whole channel vectors, and flatten is
//! free at one pixel (LeNet-5, VGG-11) and a gather into the channel-first
//! order the classifier's weight rows expect otherwise.  The last layer
//! yields the raw `i64` logits.  The frozen `[C, H, W]` entries of the
//! units rearrange at their boundary and run the same code in `i64`.
//!
//! The conv and linear units execute from the layers'
//! channel-last packed weights ([`SnnLayer::weights`]), so an inference
//! packs nothing, and there is no host parallelism below this loop: one
//! inference is one thread, and the only fan-out is across requests (the
//! blocks of [`crate::sim::Accelerator::run_batch`], the serving
//! dispatchers).
//! How the host orders this work has no bearing on modelled time: every
//! cycle count in a [`RunReport`] comes from the analytical timing model
//! of the compiled program.
//!
//! Per-unit **busy/idle cycle counters** are derived from the static
//! schedule ([`utilisation_from_program`], straggler-aware via
//! [`crate::timing::ConvGroupPlan`]) and feed the
//! [`RunReport::utilisation`] field and the serving benchmarks.
//!
//! # Tiled activation buffers
//!
//! The tile plan ([`crate::memory::plan_network_tiles`], driven by
//! [`AcceleratorConfig::activation_buffer_bytes`]) is a compile-time model
//! of the paper's buffers, sized to the network at design time: it checks
//! the budget (a typed [`AccelError::BufferBudget`] from the compiler) and
//! names each oversized layer's row bands or output chunks, but the host
//! does not act it out — it runs every layer whole, since the full map is
//! resident anyway.  Every unit counter is defined so that the per-tile
//! values sum to the whole layer's, so a tiled [`RunReport`] is the
//! untiled one; the one exception is the optional product-sparsity
//! accounting, which links rows only within what one band holds, so the
//! convolution unit scopes it to the plan's bands.  The units' band
//! entries ([`ConvolutionUnit::run_layer_band`],
//! [`PoolingUnit::run_layer_band`], [`LinearUnit::run_layer_chunked`])
//! replay the plan tile by tile, as the stand-alone benchmark package
//! does, and a property test pins that replay to the whole-layer run.

use crate::compiler::{LayerProgram, Program};
use crate::config::{AcceleratorConfig, MemoryOption};
use crate::conv::ConvolutionUnit;
use crate::linear::LinearUnit;
use crate::memory::{LayerTiling, MemoryTraffic};
use crate::pool::PoolingUnit;
use crate::report::{LayerExecution, RunReport, UnitUtilisation};
use crate::timing::{ConvGroupPlan, StageKind};
use crate::units::{
    channel_first, channel_last, unsupported, Activation, EngineScratch, Epilogue, Map, Requant,
    UnitStats,
};
use crate::{AccelError, Result};
use snn_model::snn::{SnnLayer, SnnModel, MAX_THRESHOLD_STEPS};
use snn_tensor::Tensor;

/// The instantiated processing units of one accelerator.
struct Units {
    conv: ConvolutionUnit,
    pool: PoolingUnit,
    linear: LinearUnit,
}

impl Units {
    fn from_config(config: &AcceleratorConfig) -> Self {
        Units {
            conv: ConvolutionUnit::with_product_sparsity(
                config.conv_geometry,
                config.product_sparsity,
            ),
            pool: PoolingUnit::new(config.pool_geometry),
            linear: LinearUnit::new(config.linear_lanes),
        }
    }
}

/// The shape of the activations between two layers.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `h × w` pixels of `c` channels, channel-last.
    Map { h: usize, w: usize, c: usize },
    /// A vector of levels.
    Flat,
}

/// The activations one layer hands the next: levels in the executor's
/// element, or — after a layer without requantisation — raw sums,
/// channel-first.
enum Output {
    /// Levels written to the output buffer.
    Written(Shape),
    /// The input levels themselves, reshaped.
    Kept(Shape),
    /// Raw sums.
    Raw(Vec<i64>, Shape),
}

/// Executes one inference over a compiled program: the strictly
/// sequential layer loop, each layer run once over its whole input.  The
/// activations between layers are channel-last levels in bytes where
/// every one fits a byte — a train of at most [`MAX_THRESHOLD_STEPS`]
/// steps, every hidden conv and linear layer requantising — and in `i64`
/// otherwise: one loop, two instantiations.
pub(crate) fn execute(
    config: &AcceleratorConfig,
    model: &SnnModel,
    program: &Program,
    input_levels: Tensor<i64>,
) -> Result<RunReport> {
    let layers = model.layers();
    let hidden = &layers[..layers.len().saturating_sub(1)];
    let requantised = |layer: &SnnLayer| {
        !matches!(
            layer,
            SnnLayer::Conv { requant: None, .. } | SnnLayer::Linear { requant: None, .. }
        )
    };
    if model.time_steps() <= MAX_THRESHOLD_STEPS && hidden.iter().all(requantised) {
        execute_as::<u8>(config, model, program, &input_levels)
    } else {
        execute_as::<i64>(config, model, program, &input_levels)
    }
}

/// [`execute`] with the activations held in `L`.
fn execute_as<L: Activation>(
    config: &AcceleratorConfig,
    model: &SnnModel,
    program: &Program,
    input_levels: &Tensor<i64>,
) -> Result<RunReport> {
    let time_steps = model.time_steps();
    let units = Units::from_config(config);

    // The activations the next layer reads, and the buffer the layer
    // writes: sized once for the largest map, then swapped layer by layer.
    let largest = program
        .steps
        .iter()
        .map(|step| step.out_shape.iter().product::<usize>())
        .fold(input_levels.len(), usize::max);
    let mut current: Vec<L> = Vec::with_capacity(largest);
    let mut next: Vec<L> = Vec::with_capacity(largest);
    let mut shape = match *input_levels.shape().dims() {
        [c, h, w] => {
            channel_last(input_levels.as_slice(), c, h, w, &mut current, L::from_raw);
            Shape::Map { h, w, c }
        }
        _ => {
            current.extend(input_levels.iter().map(|&level| L::from_raw(level)));
            Shape::Flat
        }
    };
    let mut logits = None;
    let mut layers = Vec::with_capacity(program.steps.len());
    let mut traffic = MemoryTraffic::default();
    // The engines' working memory: sized by the first layer, reused by
    // every layer after it.
    let mut scratch = EngineScratch::new();

    let stamp = |index: usize| {
        move |e| match e {
            AccelError::UnsupportedLayer { context, .. } => AccelError::UnsupportedLayer {
                layer: index,
                context,
            },
            other => other,
        }
    };
    for (index, step) in program.steps.iter().enumerate() {
        let (output, work) = execute_layer(
            &units,
            model,
            index,
            step,
            (&current, shape),
            &mut next,
            &mut scratch,
        )
        .map_err(stamp(index))?;
        traffic.activation_reads += work.activation_reads;
        traffic.weight_reads += work.kernel_reads;
        traffic.activation_writes += work.output_writes;
        if config.memory == MemoryOption::Dram {
            traffic.dram_bits += step.weight_bits;
        }
        layers.push(LayerExecution {
            index: step.index,
            notation: step.notation.clone(),
            kind: step.kind,
            latency_cycles: step.timing.total_cycles(),
            work,
        });
        let last = index + 1 == program.steps.len();
        match output {
            Output::Written(out) => {
                std::mem::swap(&mut current, &mut next);
                shape = out;
            }
            Output::Kept(out) => shape = out,
            Output::Raw(sums, out) if last => {
                logits = Some(sums);
                shape = out;
            }
            Output::Raw(sums, out) => {
                // A hidden layer without requantisation hands its raw sums
                // on; only the `i64` instantiation runs such a model.
                match out {
                    Shape::Map { h, w, c } => {
                        channel_last(&sums, c, h, w, &mut current, L::from_raw);
                    }
                    Shape::Flat => {
                        current.clear();
                        current.extend(sums.iter().map(|&sum| L::from_raw(sum)));
                    }
                }
                shape = out;
            }
        }
    }

    let logits = logits.unwrap_or_else(|| match shape {
        Shape::Map { h, w, c } => {
            let mut logits = Vec::new();
            channel_first(&current, h * w, c, &mut logits, Into::into);
            logits
        }
        Shape::Flat => current.iter().map(|&level| level.into()).collect(),
    });
    let prediction = logits
        .iter()
        .enumerate()
        .fold(
            (0usize, i64::MIN),
            |(bi, bv), (i, &v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            },
        )
        .0;

    Ok(RunReport {
        prediction,
        logits,
        layers,
        time_steps,
        traffic,
        thread_budget: snn_parallel::budget().total(),
        utilisation: utilisation_from_program(config, program),
    })
}

/// Executes layer `index` whole, on its unit, from `input` into `out`
/// (levels) or into the raw sums it returns.
fn execute_layer<L: Activation>(
    units: &Units,
    model: &SnnModel,
    index: usize,
    step: &LayerProgram,
    (input, shape): (&[L], Shape),
    out: &mut Vec<L>,
    scratch: &mut EngineScratch,
) -> Result<(Output, UnitStats)> {
    let time_steps = model.time_steps();
    let requant = |scale: Option<f32>| {
        scale.map(|scale| match model.thresholds(index) {
            Some(thresholds) => Requant::Thresholds(thresholds),
            None => Requant::Scale {
                scale,
                max_level: model.max_level(),
            },
        })
    };
    let mut raw = Vec::new();
    match &model.layers()[index] {
        SnnLayer::Conv {
            weight_codes: weights,
            bias_acc,
            stride,
            padding,
            requant: scale,
        } => {
            let Shape::Map { h, w, c } = shape else {
                return Err(unsupported(
                    "convolution unit expects [C,H,W] inputs and [O,C,K,K] kernels".to_string(),
                ));
            };
            // The plan's bands scope only the product-sparsity accounting.
            let bands = match &step.tiling {
                Some(LayerTiling::RowBands { bands, .. }) => Some(bands.as_slice()),
                _ => None,
            };
            let map = Map {
                levels: input,
                h,
                w,
                c,
            };
            let (stats, [h, w]) = units.conv.run(
                map,
                weights,
                bias_acc,
                time_steps,
                *stride,
                *padding,
                None,
                bands,
                scratch,
                epilogue(requant(*scale), out, &mut raw),
            )?;
            let out_shape = Shape::Map {
                h,
                w,
                c: weights.c_out(),
            };
            Ok((finished(scale.is_some(), raw, out_shape), stats))
        }
        SnnLayer::Linear {
            weight_codes: weights,
            bias_acc,
            requant: scale,
        } => {
            let Shape::Flat = shape else {
                return Err(unsupported(
                    "linear unit expects a [N] input and [O, N] weights".to_string(),
                ));
            };
            let all = weights.c_out().max(1);
            let stats = units.linear.run_chunks(
                input,
                weights,
                bias_acc,
                time_steps,
                all,
                scratch,
                epilogue(requant(*scale), out, &mut raw),
            )?;
            let out_shape = Shape::Flat;
            Ok((finished(scale.is_some(), raw, out_shape), stats))
        }
        SnnLayer::Pool { kind, window } => {
            let Shape::Map { h, w, c } = shape else {
                return Err(unsupported(
                    "pooling unit expects a [C, H, W] input".to_string(),
                ));
            };
            let map = Map {
                levels: input,
                h,
                w,
                c,
            };
            let (stats, [h, w]) = units.pool.run(map, *kind, *window, time_steps, out)?;
            Ok((Output::Written(Shape::Map { h, w, c }), stats))
        }
        SnnLayer::Flatten => {
            let volume = input.len();
            let work = UnitStats {
                cycles: volume as u64,
                activation_reads: volume as u64,
                output_writes: volume as u64,
                ..UnitStats::default()
            };
            // At one pixel the channel-last map is already the vector;
            // otherwise the vector is the map channel-first, the order the
            // next layer's weight rows were trained in.
            let output = match shape {
                Shape::Map { h, w, c } if h * w > 1 => {
                    channel_first(input, h * w, c, out, |level| level);
                    Output::Written(Shape::Flat)
                }
                _ => Output::Kept(Shape::Flat),
            };
            Ok((output, work))
        }
    }
}

/// How a conv or linear layer ends: in levels written to `out`, or raw
/// sums in `raw`.
fn epilogue<'a, L>(
    requant: Option<Requant<'a>>,
    out: &'a mut Vec<L>,
    raw: &'a mut Vec<i64>,
) -> Epilogue<'a, L> {
    match requant {
        Some(requant) => Epilogue::Levels { requant, out },
        None => Epilogue::Raw(raw),
    }
}

/// A conv or linear layer's output: the levels it wrote, or its raw sums.
fn finished(requantised: bool, raw: Vec<i64>, shape: Shape) -> Output {
    if requantised {
        Output::Written(shape)
    } else {
        Output::Raw(raw, shape)
    }
}

/// Derives the per-unit busy/idle cycle counters of one inference from the
/// static schedule.
///
/// Busy cycles count only the units that actually compute: convolution
/// layers are straggler-aware through [`ConvGroupPlan`] (a pass whose
/// channel group does not fill all units leaves the rest idle), pooling
/// and linear stages are single units occupied for their compute cycles.
/// Flatten is a buffer transfer, not a processing unit, so it contributes
/// only to the makespan.  Everything is derived from the compiled program,
/// never from the host execution.
pub fn utilisation_from_program(
    config: &AcceleratorConfig,
    program: &Program,
) -> Vec<UnitUtilisation> {
    let makespan: u64 = program.steps.iter().map(|s| s.timing.total_cycles()).sum();
    let mut conv_busy = 0u64;
    let mut pool_busy = 0u64;
    let mut linear_busy = 0u64;
    for step in &program.steps {
        match step.kind {
            StageKind::Convolution => {
                let groups = step.channel_groups.max(1) as u64;
                let plan = ConvGroupPlan::for_schedule(
                    config.conv_units,
                    step.channels_per_unit,
                    step.out_shape[0],
                    step.timing.compute_cycles / groups,
                );
                conv_busy += plan.busy_unit_cycles();
            }
            StageKind::Pooling => pool_busy += step.timing.compute_cycles,
            StageKind::Linear => linear_busy += step.timing.compute_cycles,
            StageKind::Flatten => {}
        }
    }
    vec![
        UnitUtilisation {
            kind: StageKind::Convolution,
            units: config.conv_units,
            busy_cycles: conv_busy,
            total_cycles: makespan * config.conv_units as u64,
        },
        UnitUtilisation {
            kind: StageKind::Pooling,
            units: 1,
            busy_cycles: pool_busy,
            total_cycles: makespan,
        },
        UnitUtilisation {
            kind: StageKind::Linear,
            units: 1,
            busy_cycles: linear_busy,
            total_cycles: makespan,
        },
    ]
}
