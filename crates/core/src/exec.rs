//! Execution engine: the layer loop of the simulator.
//!
//! `execute` walks the compiled [`Program`] one layer at a time on the
//! calling thread.  Each layer runs once, on its processing-unit model,
//! over the whole input map; its output becomes the next layer's input,
//! held in one local; a unit's error is stamped with the index of the
//! layer it failed on.  The conv and linear units execute from the layers'
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
use crate::units::{EngineScratch, UnitStats};
use crate::{AccelError, Result};
use snn_model::snn::{requantize, SnnLayer, SnnModel};
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

/// Executes one inference over a compiled program: the strictly
/// sequential layer loop, each layer run once over its whole input.
pub(crate) fn execute(
    config: &AcceleratorConfig,
    model: &SnnModel,
    program: &Program,
    input_levels: Tensor<i64>,
) -> Result<RunReport> {
    let max_level = model.max_level();
    let time_steps = model.time_steps();
    let units = Units::from_config(config);

    // The activations the next layer reads: the encoded input, then each
    // layer's output in turn.
    let mut current = input_levels;
    let mut layers = Vec::with_capacity(program.steps.len());
    let mut traffic = MemoryTraffic::default();
    // The engines' working memory: sized by the first layer, reused by
    // every layer after it.
    let mut scratch = EngineScratch::new();

    for (index, (step, layer)) in program.steps.iter().zip(model.layers()).enumerate() {
        let (next, work) = execute_layer(
            &units,
            layer,
            step,
            current,
            time_steps,
            max_level,
            &mut scratch,
        )
        .map_err(|e| match e {
            AccelError::UnsupportedLayer { context, .. } => AccelError::UnsupportedLayer {
                layer: index,
                context,
            },
            other => other,
        })?;
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
        current = next;
    }

    let logits = current;
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
        logits: logits.into_vec(),
        layers,
        time_steps,
        traffic,
        thread_budget: snn_parallel::budget().total(),
        utilisation: utilisation_from_program(config, program),
    })
}

/// Executes one layer whole, on its unit.
fn execute_layer(
    units: &Units,
    layer: &SnnLayer,
    step: &LayerProgram,
    current: Tensor<i64>,
    time_steps: usize,
    max_level: i64,
    scratch: &mut EngineScratch,
) -> Result<(Tensor<i64>, UnitStats)> {
    match layer {
        SnnLayer::Conv {
            weight_codes: weights,
            bias_acc,
            stride,
            padding,
            requant,
        } => {
            // The plan's bands scope only the product-sparsity accounting.
            let bands = match &step.tiling {
                Some(LayerTiling::RowBands { bands, .. }) => Some(bands.as_slice()),
                _ => None,
            };
            let result = units.conv.run(
                &current, weights, bias_acc, time_steps, *stride, *padding, None, bands, scratch,
            )?;
            let levels = apply_requant(result.accumulators, *requant, max_level);
            Ok((levels, result.stats))
        }
        SnnLayer::Linear {
            weight_codes: weights,
            bias_acc,
            requant,
        } => {
            let result = units
                .linear
                .run_packed(&current, weights, bias_acc, time_steps, scratch)?;
            let levels = apply_requant(result.accumulators, *requant, max_level);
            Ok((levels, result.stats))
        }
        SnnLayer::Pool { kind, window } => {
            let result = units.pool.run_layer(&current, *kind, *window, time_steps)?;
            Ok((result.levels, result.stats))
        }
        SnnLayer::Flatten => {
            let volume = current.len();
            let flattened = current.reshape(vec![volume]).map_err(AccelError::Tensor)?;
            let work = UnitStats {
                cycles: volume as u64,
                activation_reads: volume as u64,
                output_writes: volume as u64,
                ..UnitStats::default()
            };
            Ok((flattened, work))
        }
    }
}

/// Requantizes accumulators to levels in place; without a requantization
/// step (the last layer) they pass through as they are.
fn apply_requant(mut acc: Tensor<i64>, requant: Option<f32>, max_level: i64) -> Tensor<i64> {
    if let Some(r) = requant {
        for v in acc.iter_mut() {
            *v = requantize(*v, r, max_level);
        }
    }
    acc
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
