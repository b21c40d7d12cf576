//! Execution engine: the layer loop of the simulator.
//!
//! `execute` walks the compiled [`Program`] one layer at a time on the
//! calling thread.  Each layer reads the current half of the ping-pong
//! activation buffer, runs on its processing-unit model and writes the
//! other half; a unit's error is stamped with the index of the layer it
//! failed on.  The conv and linear units execute from the layers'
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
//! When the compiled program carries a tile plan
//! ([`crate::memory::plan_network_tiles`], driven by
//! [`AcceleratorConfig::activation_buffer_bytes`]), layers whose working
//! set exceeds the budget execute **tile by tile**: convolution and
//! pooling layers gather one halo-extended row band at a time (the
//! bit-plane packing happens per band inside the units) and
//! fully-connected layers stage lane-aligned output chunks.  Every
//! per-tile counter sums to exactly the untiled layer's counters, so the
//! tiled [`RunReport`] stays bit-identical to the untiled one.

use crate::compiler::{LayerProgram, Program};
use crate::config::{AcceleratorConfig, MemoryOption};
use crate::conv::ConvolutionUnit;
use crate::linear::LinearUnit;
use crate::memory::{LayerTiling, MemoryTraffic, PingPongBuffer};
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
/// sequential layer loop, tile by tile where the program carries a tiling.
pub(crate) fn execute(
    config: &AcceleratorConfig,
    model: &SnnModel,
    program: &Program,
    input_levels: Tensor<i64>,
) -> Result<RunReport> {
    let max_level = model.max_level();
    let time_steps = model.time_steps();
    let units = Units::from_config(config);

    // Activations live in the 2-D ping-pong buffer until the flatten step,
    // then in the 1-D buffer.  We model both with one runtime buffer pair
    // since only one is active at a time.
    let mut buffer = PingPongBuffer::new();
    buffer.load_input(input_levels);

    let mut layers = Vec::with_capacity(program.steps.len());
    let mut traffic = MemoryTraffic::default();
    // The engines' working memory: sized by the first band, reused by
    // every band and layer after it.
    let mut scratch = EngineScratch::new();

    for (index, (step, layer)) in program.steps.iter().zip(model.layers()).enumerate() {
        let (next, work) = execute_layer(
            &units,
            layer,
            step,
            buffer.current()?,
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
        buffer.write_and_swap(next);
    }

    let logits = buffer.into_current()?;
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

/// Copies the input rows `lo..hi` of a `[C, H, W]` feature map into a
/// fresh `[C, hi - lo, W]` band tensor — the modelled tile load into the
/// activation buffer's read half.
fn copy_row_band(levels: &Tensor<i64>, lo: usize, hi: usize) -> Result<Tensor<i64>> {
    let dims = levels.shape().dims();
    if dims.len() != 3 || hi > dims[1] || lo >= hi {
        return Err(AccelError::UnsupportedLayer {
            layer: 0,
            context: format!("row band {lo}..{hi} outside a {dims:?} feature map"),
        });
    }
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let src = levels.as_slice();
    let mut data = Vec::with_capacity(c * (hi - lo) * w);
    for ch in 0..c {
        data.extend_from_slice(&src[ch * h * w + lo * w..ch * h * w + hi * w]);
    }
    Tensor::from_vec(vec![c, hi - lo, w], data).map_err(AccelError::Tensor)
}

/// Writes a `[C, bh, W]` band of output rows into a `[C, H, W]` map at row
/// offset `out_lo` — the modelled drain of the buffer's write half.
fn write_row_band(dst: &mut Tensor<i64>, band: &Tensor<i64>, out_lo: usize) {
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

/// Executes one layer, tile by tile when the compiled step carries a
/// tiling.
fn execute_layer(
    units: &Units,
    layer: &SnnLayer,
    step: &LayerProgram,
    current: &Tensor<i64>,
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
            if let Some(LayerTiling::RowBands { bands, .. }) = &step.tiling {
                let mut levels = Tensor::filled(step.out_shape.clone(), 0i64);
                let mut work = UnitStats::default();
                for band in bands {
                    let band_input = copy_row_band(current, band.in_lo, band.in_hi)?;
                    let result = units.conv.run_packed_band(
                        &band_input,
                        weights,
                        bias_acc,
                        time_steps,
                        *stride,
                        *padding,
                        band,
                        scratch,
                    )?;
                    work += result.stats;
                    write_row_band(
                        &mut levels,
                        &apply_requant(result.accumulators, *requant, max_level),
                        band.out_lo,
                    );
                }
                return Ok((levels, work));
            }
            let result = units.conv.run_packed(
                current, weights, bias_acc, time_steps, *stride, *padding, scratch,
            )?;
            let levels = apply_requant(result.accumulators, *requant, max_level);
            Ok((levels, result.stats))
        }
        SnnLayer::Linear {
            weight_codes: weights,
            bias_acc,
            requant,
        } => {
            let result = if let Some(LayerTiling::OutputChunks { chunk }) = &step.tiling {
                units
                    .linear
                    .run_packed_chunked(current, weights, bias_acc, time_steps, *chunk, scratch)?
            } else {
                units
                    .linear
                    .run_packed(current, weights, bias_acc, time_steps, scratch)?
            };
            let levels = apply_requant(result.accumulators, *requant, max_level);
            Ok((levels, result.stats))
        }
        SnnLayer::Pool { kind, window } => {
            if let Some(LayerTiling::RowBands { bands, .. }) = &step.tiling {
                let mut levels = Tensor::filled(step.out_shape.clone(), 0i64);
                let mut work = UnitStats::default();
                for band in bands {
                    let band_input = copy_row_band(current, band.in_lo, band.in_hi)?;
                    let result =
                        units
                            .pool
                            .run_layer_band(&band_input, *kind, *window, time_steps, band)?;
                    work += result.stats;
                    write_row_band(&mut levels, &result.levels, band.out_lo);
                }
                return Ok((levels, work));
            }
            let result = units.pool.run_layer(current, *kind, *window, time_steps)?;
            Ok((result.levels, result.stats))
        }
        SnnLayer::Flatten => {
            let volume = current.len();
            let flattened = current
                .clone()
                .reshape(vec![volume])
                .map_err(AccelError::Tensor)?;
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
