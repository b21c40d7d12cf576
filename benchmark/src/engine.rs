//! The two engine workloads: one caller in a closed loop on
//! `Accelerator::run_sequential` (`lenet_engine`) or `Accelerator::run`
//! (`vgg11_tiled`), measured in fixed-work blocks.

use crate::alloc;
use crate::fixture::{Fixture, ModelKind, Oracle};
use crate::host::{self, Yardstick};
use crate::measure::{BlockSamples, EndToEnd, ModelCounts};
use crate::stats::Estimator;
use snn_accel::report::RunReport;
use snn_accel::sim::Accelerator;
use snn_model::snn::SnnModel;
use snn_tensor::Tensor;
use std::time::Instant;

/// The engine entry point a workload's caller uses.
pub fn call(
    kind: ModelKind,
    accel: &Accelerator,
    model: &SnnModel,
    input: &Tensor<f32>,
) -> snn_accel::Result<RunReport> {
    match kind {
        ModelKind::Lenet => accel.run_sequential(model, input),
        ModelKind::Vgg => accel.run(model, input),
    }
}

fn verified(oracle: &Oracle, input: usize, result: &snn_accel::Result<RunReport>) -> bool {
    match result {
        Ok(report) => oracle.matches(
            input,
            &report.logits,
            report.prediction,
            report.total_cycles(),
        ),
        Err(_) => false,
    }
}

/// One set-up as a user performs it: conversion → compile → first
/// oracle-verified result.  Returns its wall time, whether the result was
/// verified, and what it built.
pub fn setup_once(fixture: &Fixture) -> (f64, bool, SnnModel, Accelerator) {
    let started = Instant::now();
    let model = fixture.convert();
    let accel = Accelerator::new(fixture.config);
    let compiled = accel.compile(&model).is_ok();
    let first = call(fixture.kind, &accel, &model, &fixture.inputs[0]);
    let ok = compiled && verified(&fixture.oracle, 0, &first);
    (started.elapsed().as_secs_f64(), ok, model, accel)
}

/// Set-up repeats per run: one before the measured span, the rest after
/// it, so they sample different neighbour states.
pub fn setup_repeats(kind: ModelKind) -> usize {
    match kind {
        ModelKind::Lenet => 101,
        ModelKind::Vgg => 5,
    }
}

/// Simulated quantities per inference: one pass over the input set (which
/// also warms the caches before a measured span).
pub fn model_counts(fixture: &Fixture, model: &SnnModel, accel: &Accelerator) -> ModelCounts {
    let reports: Vec<RunReport> = fixture
        .inputs
        .iter()
        .map(|input| call(fixture.kind, accel, model, input).expect("counting pass"))
        .collect();
    let n = reports.len() as f64;
    ModelCounts {
        cycles: reports.iter().map(|r| r.total_cycles() as f64).sum::<f64>() / n,
        adder_ops: reports
            .iter()
            .map(|r| r.total_work().adder_ops as f64)
            .sum::<f64>()
            / n,
        energy_uj: reports
            .iter()
            .map(|r| r.energy_uj(&fixture.config))
            .sum::<f64>()
            / n,
    }
}

/// Runs the workload for `seconds` of measured span and reduces it to the
/// ten end-to-end metrics.
pub fn measure(fixture: &Fixture, seconds: f64) -> EndToEnd {
    let kind = fixture.kind;
    let oracle = &fixture.oracle;
    let inputs = &fixture.inputs;
    let repeats = setup_repeats(kind);
    let mut setups = Vec::with_capacity(repeats);

    let (first_setup_s, first_ok, model, accel) = setup_once(fixture);
    setups.push(first_setup_s);
    let mut attempted = 1u64;
    let mut ok = u64::from(first_ok);

    let counts = model_counts(fixture, &model, &accel);

    // Sample buffers are sized before the span so the harness itself
    // allocates nothing inside it (untouched capacity costs no memory).
    let capacity = 1 << 18;
    let mut samples = BlockSamples::with_capacity(capacity);
    let mut yardstick = Yardstick::with_capacity(capacity);
    let mut latencies_ms = vec![0.0f64; inputs.len()];

    let alloc_before = alloc::snapshot();
    let span = Instant::now();
    let mut span_inferences = 0u64;
    while span.elapsed().as_secs_f64() < seconds && samples.len() < capacity {
        yardstick.sample();
        let cpu_before = host::process_cpu_ns();
        let block = Instant::now();
        let mut block_ok = 0u64;
        for (i, input) in inputs.iter().enumerate() {
            let started = Instant::now();
            let result = call(kind, &accel, &model, input);
            latencies_ms[i] = started.elapsed().as_secs_f64() * 1e3;
            block_ok += u64::from(verified(oracle, i, &result));
        }
        let wall_s = block.elapsed().as_secs_f64();
        let cpu_ms = (host::process_cpu_ns() - cpu_before) as f64 / 1e6;
        let n = inputs.len() as u64;
        samples.push(n, block_ok, wall_s, cpu_ms, &mut latencies_ms);
        span_inferences += n;
    }
    let span_allocs = alloc::snapshot().since(alloc_before);
    attempted += samples.attempted();
    ok += samples.ok();

    drop((model, accel));
    for _ in 1..repeats {
        let (secs, setup_ok, ..) = setup_once(fixture);
        setups.push(secs);
        attempted += 1;
        ok += u64::from(setup_ok);
    }

    EndToEnd::reduce(
        &samples,
        Estimator::QuietDecile,
        &setups,
        span_allocs.allocs as f64 / span_inferences.max(1) as f64,
        counts,
        attempted,
        ok,
        &yardstick,
        None,
    )
}
