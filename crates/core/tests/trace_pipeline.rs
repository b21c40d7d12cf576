//! End-to-end tests of the per-request tracing pipeline at the serving
//! core: every admitted request yields exactly one complete
//! `RequestTrace` under its request id, phase durations stay within
//! wall-clock bounds, terminal outcomes match the settled results,
//! tracing never leaks an open span, and — the contract that makes
//! tracing safe to leave on — SCORES are bit-identical with tracing on
//! and off.
//!
//! The <3% overhead smoke lives here too, `#[ignore]`d by default (it
//! measures wall-clock throughput in alternating fixed-work pairs on two
//! long-lived servers, so it only means something where the machine is
//! quiet — the CI `observability` job invokes it explicitly).

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::{ServerOptions, StreamServer};
use snn_accel::AccelError;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_telemetry::{Outcome, Phase, RejectScope, PHASES};
use snn_tensor::Tensor;
use std::collections::HashSet;
use std::time::{Duration, Instant};

fn tiny_setup(seed: u64, time_steps: usize, count: usize) -> (SnnModel, Vec<Tensor<f32>>) {
    let net = zoo::tiny_cnn();
    let params = Parameters::he_init(&net, seed).unwrap();
    let inputs: Vec<Tensor<f32>> = (0..count)
        .map(|i| {
            let values: Vec<f32> = (0..144)
                .map(|j| {
                    let x = (j as u64 * 2654435761).wrapping_add(seed + i as u64 * 7919);
                    (x % 97) as f32 / 96.0
                })
                .collect();
            Tensor::from_vec(vec![1, 12, 12], values).unwrap()
        })
        .collect();
    let stats = CalibrationStats::collect(&net, &params, inputs.iter()).unwrap();
    let model = convert(
        &net,
        &params,
        &stats,
        ConversionConfig {
            weight_bits: 3,
            time_steps,
        },
    )
    .unwrap();
    (model, inputs)
}

fn traced_options(replicas: usize) -> ServerOptions {
    ServerOptions {
        replicas,
        trace: true,
        ..ServerOptions::default()
    }
}

#[test]
fn every_served_request_yields_one_complete_trace() {
    let (model, inputs) = tiny_setup(11, 3, 6);
    let server =
        StreamServer::start_with(AcceleratorConfig::default(), model, traced_options(2)).unwrap();
    let wall_start = Instant::now();
    let reports = server.run_all(&inputs).unwrap();
    let wall = wall_start.elapsed().as_secs_f64();
    assert_eq!(reports.len(), inputs.len());

    let recorder = server.recorder().clone();
    assert_eq!(recorder.open_spans(), 0, "no span may outlive its request");
    let traces = recorder.drain();
    assert_eq!(traces.len(), inputs.len(), "one trace per request");

    let ids: HashSet<u64> = traces.iter().map(|t| t.request_id).collect();
    assert_eq!(ids.len(), traces.len(), "request ids are unique");

    for trace in &traces {
        match &trace.outcome {
            Outcome::Scores { total_cycles } => assert!(*total_cycles > 0),
            other => panic!("served request traced as {other:?}"),
        }
        let replica = trace.replica.expect("served request was routed");
        assert!(replica < 2);
        assert!(trace.queue_depth_at_route.is_some());
        for phase in [
            Phase::Admission,
            Phase::Route,
            Phase::QueueWait,
            Phase::BatchAssembly,
            Phase::Compute,
        ] {
            assert!(
                trace.phase_seconds(phase).is_some(),
                "missing phase {phase:?} in {trace:?}"
            );
        }
        let phase_sum: f64 = PHASES.iter().filter_map(|&p| trace.phase_seconds(p)).sum();
        assert!(
            phase_sum <= trace.total_seconds() + 1e-6,
            "phases ({phase_sum}s) exceed the trace total ({}s)",
            trace.total_seconds()
        );
        assert!(
            trace.total_seconds() <= wall + 0.5,
            "trace total exceeds the run's wall clock"
        );
    }

    // The histograms saw every request.
    assert_eq!(recorder.duration_histogram().count(), inputs.len() as u64);
    assert_eq!(recorder.queue_wait_histogram().count(), inputs.len() as u64);
    assert_eq!(recorder.compute_histogram().count(), inputs.len() as u64);
    server.shutdown();
}

#[test]
fn scores_are_bit_identical_with_tracing_on_and_off_and_off_records_nothing() {
    let (model, inputs) = tiny_setup(23, 3, 5);
    let config = AcceleratorConfig::default();
    let traced = StreamServer::start_with(config, model.clone(), traced_options(2)).unwrap();
    let untraced = StreamServer::start_with(
        config,
        model,
        ServerOptions {
            trace: false,
            ..traced_options(2)
        },
    )
    .unwrap();

    let on = traced.run_all(&inputs).unwrap();
    let off = untraced.run_all(&inputs).unwrap();
    assert_eq!(on, off, "tracing must not perturb results");

    let recorder = untraced.recorder().clone();
    assert!(!recorder.enabled());
    assert_eq!(recorder.open_spans(), 0);
    assert!(
        recorder.drain().is_empty(),
        "disabled recorder stores no traces"
    );
    assert!(recorder.duration_histogram().is_empty());
    assert_eq!(traced.recorder().drain().len(), inputs.len());
    traced.shutdown();
    untraced.shutdown();
}

#[test]
fn deadline_sheds_trace_the_rejected_deadline_outcome() {
    let (model, inputs) = tiny_setup(31, 3, 4);
    let server = StreamServer::start_with(
        AcceleratorConfig::default(),
        model,
        ServerOptions {
            // A zero queue-wait deadline sheds every submission before
            // compute, deterministically.
            max_queue_wait: Some(Duration::ZERO),
            ..traced_options(1)
        },
    )
    .unwrap();
    let tickets: Vec<_> = inputs
        .iter()
        .map(|i| server.submit(i.clone()).unwrap())
        .collect();
    for ticket in tickets {
        match ticket.wait() {
            Err(AccelError::DeadlineExceeded { .. }) => {}
            other => panic!("expected a deadline shed, got {other:?}"),
        }
    }
    let recorder = server.recorder().clone();
    assert_eq!(recorder.open_spans(), 0);
    let traces = recorder.drain();
    assert_eq!(traces.len(), inputs.len());
    for trace in &traces {
        assert_eq!(
            trace.outcome,
            Outcome::Rejected {
                scope: RejectScope::Deadline
            },
            "shed request traced as {trace:?}"
        );
        // A shed request reached a queue but never computed.
        assert!(trace.phase_seconds(Phase::QueueWait).is_some());
        assert!(trace.phase_seconds(Phase::Compute).is_none());
    }
    server.shutdown();
}

/// The overhead budget: tracing on may cost at most 3% throughput versus
/// `SNN_TRACE=0`.  Wall-clock measurement, so the test is `#[ignore]`d in
/// the default tier and invoked explicitly by the CI `observability` job.
/// One untraced and one traced server are started and warmed once, so
/// server start-up is not part of what is timed; then both do the same
/// fixed passes, sized to at least 40 ms a side, in alternating off / on
/// pairs.  The median of the per-pair on/off ratios is compared, so one
/// disturbed pair decides nothing, and the overhead and every pair are
/// printed whether the budget holds or not.
#[test]
#[ignore = "wall-clock smoke; run explicitly: cargo test --release -- --ignored overhead_budget"]
fn overhead_budget_tracing_costs_under_three_percent() {
    const PAIRS: usize = 21;
    const PROBE_PASSES: usize = 8;
    let (model, inputs) = tiny_setup(47, 3, 8);
    let config = AcceleratorConfig::default();
    // One pass is a burst the default queue admits whole.
    let mut pass = Vec::with_capacity(inputs.len() * 25);
    for _ in 0..25 {
        pass.extend(inputs.iter().cloned());
    }
    let start = |trace: bool| {
        let options = ServerOptions {
            trace,
            ..traced_options(2)
        };
        let server = StreamServer::start_with(config, model.clone(), options).unwrap();
        // Untimed: threads, caches and the recorder warm up.
        server.run_all(&pass).unwrap();
        server
    };
    let (off, on) = (start(false), start(true));
    let time = |server: &StreamServer, passes: usize| {
        let started = Instant::now();
        for _ in 0..passes {
            server.run_all(&pass).unwrap();
        }
        started.elapsed().as_secs_f64()
    };

    let per_pass = time(&off, PROBE_PASSES) / PROBE_PASSES as f64;
    let passes = ((0.04 / per_pass).ceil() as usize).max(PROBE_PASSES);
    let pairs: Vec<(f64, f64)> = (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let off_s = time(&off, passes);
                (off_s, time(&on, passes))
            } else {
                let on_s = time(&on, passes);
                (time(&off, passes), on_s)
            }
        })
        .collect();
    let mut ratios: Vec<f64> = pairs.iter().map(|&(off_s, on_s)| on_s / off_s).collect();
    ratios.sort_by(f64::total_cmp);
    let overhead = ratios[ratios.len() / 2] - 1.0;
    println!(
        "tracing overhead {:+.2}% (median on/off ratio of {PAIRS} pairs, {passes} passes of {} \
         inferences a side; (off, on) seconds: {pairs:.4?})",
        overhead * 100.0,
        pass.len()
    );
    assert!(
        overhead < 0.03,
        "tracing overhead {:.2}% exceeds the 3% budget",
        overhead * 100.0
    );
    off.shutdown();
    on.shutdown();
}
