//! The serving scenario behind `BENCH_serve.json`: naive per-call
//! inference versus the streaming server, swept across replica counts.
//!
//! One compiled LeNet-5 program is served three ways: a naive sequential
//! `run_fast` call per input (per-call compile — what a client without the
//! server would do), the streaming micro-batching server with a single
//! engine, and the same server with 2 and 4 replica engines pulling from
//! its one queue.  Logits are bit-identical in every configuration
//! (pinned by the `exec_properties` and `replica_properties` suites); the
//! sweep records what each configuration buys in throughput.
//!
//! The body produced by [`sweep_body`] is shared by the `end_to_end`
//! criterion harness (which appends its `results` rows) and the standalone
//! `bench_serve` binary (which writes the sweep alone), so both regenerate
//! the same schema.
//!
//! Replica scaling is a property of the host: on a single hardware thread
//! the dispatcher threads time-slice one core and `replicas_2_vs_1` hovers
//! around 1.0; the committed numbers are whatever the recording host
//! honestly measured, and the trend check compares like against like.

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::{ServerOptions, StreamServer};
use snn_accel::sim::Accelerator;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Inferences per measured round.
pub const BATCH: usize = 32;

/// Micro-batch size of every server configuration in the sweep.
pub const MICRO_BATCH: usize = 8;

/// Measurement rounds per configuration; the best round is recorded.
pub const ROUNDS: usize = 3;

/// Replica-engine counts swept by the serving scenario.
pub const REPLICA_COUNTS: [usize; 3] = [1, 2, 4];

fn lenet_model() -> (SnnModel, Tensor<f32>) {
    let net = zoo::lenet5();
    let params = Parameters::he_init(&net, 7).expect("parameters");
    let input = Tensor::from_vec(
        vec![1, 32, 32],
        (0..1024).map(|i| (i % 97) as f32 / 96.0).collect(),
    )
    .expect("input");
    let stats = CalibrationStats::collect(&net, &params, [&input]).expect("calibration");
    let model = convert(
        &net,
        &params,
        &stats,
        ConversionConfig {
            weight_bits: 3,
            time_steps: 4,
        },
    )
    .expect("conversion");
    (model, input)
}

/// Measures the serving scenario and returns the `BENCH_serve.json` body
/// (everything except the criterion `results` array).
///
/// Baseline: naive sequential `run_fast` per-input calls.  Contenders: the
/// streaming server at each replica count in [`REPLICA_COUNTS`].  The
/// historical `inferences_per_sec/stream_server` and
/// `speedup_server_vs_naive` keys keep tracking the single-replica server
/// so the PR-over-PR trend is unbroken; the sweep adds
/// `replica_throughput_ips/replicas_N` and `replica_speedup` on top.
///
/// # Panics
///
/// Panics if any server fails to start or any inference errors — a bench
/// run that cannot serve must fail loudly rather than record garbage.
pub fn sweep_body() -> String {
    let (model, base_input) = lenet_model();
    let config = AcceleratorConfig::lenet_table3();
    let volume = base_input.len();
    let inputs: Vec<Tensor<f32>> = (0..BATCH)
        .map(|b| {
            let values: Vec<f32> = (0..volume)
                .map(|j| (((j * 13 + b * 101) % 97) as f32) / 96.0)
                .collect();
            Tensor::from_vec(vec![1, 32, 32], values).expect("serve input")
        })
        .collect();

    // Naive baseline: one `run_fast` call per input, best of ROUNDS.
    let accel = Accelerator::new(config);
    accel.run_fast(&model, &inputs[0]).expect("warmup");
    let mut naive_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for input in &inputs {
            black_box(accel.run_fast(&model, input).expect("naive run_fast"));
        }
        naive_best = naive_best.min(start.elapsed().as_secs_f64());
    }
    let naive_ips = BATCH as f64 / naive_best;

    // Replica sweep: compile once, micro-batch onto 1/2/4 engines off one
    // queue.  Single-replica stats feed the utilisation section so
    // the modelled per-unit numbers stay comparable with earlier PRs.
    let mut swept: Vec<(usize, f64)> = Vec::new();
    let mut single_stats = None;
    let mut phase_latency = String::from("{}");
    for replicas in REPLICA_COUNTS {
        let server = StreamServer::start_with(
            config,
            model.clone(),
            ServerOptions {
                max_batch: MICRO_BATCH,
                replicas,
                // The summary embeds per-phase trace percentiles, so
                // tracing is pinned on regardless of SNN_TRACE.
                trace: true,
                ..ServerOptions::default()
            },
        )
        .expect("start server");
        server.run_all(&inputs[..2]).expect("server warmup");
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let start = Instant::now();
            black_box(server.run_all(&inputs).expect("served batch"));
            best = best.min(start.elapsed().as_secs_f64());
        }
        let ips = BATCH as f64 / best;
        if replicas == 1 {
            // Per-phase latency percentiles from the single-replica run's
            // span recorder (tracing is on by default), summarised for
            // the PR-over-PR trend like the throughput numbers.
            let traces = server.recorder().drain();
            if !traces.is_empty() {
                phase_latency = crate::phases::phase_latency_json(&traces);
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.replicas, replicas, "sweep must run what it claims");
        assert_eq!(
            stats.healthy_replicas, replicas,
            "every engine must survive the measured rounds"
        );
        if replicas == 1 {
            single_stats = Some(stats);
        }
        swept.push((replicas, ips));
    }
    let stats = single_stats.expect("REPLICA_COUNTS includes 1");
    let serve_ips = swept[0].1;
    let speedup = serve_ips / naive_ips;
    let scaling: Vec<String> = swept
        .iter()
        .skip(1)
        .map(|(r, ips)| format!("{r}x={:.2}", ips / serve_ips))
        .collect();
    println!(
        "serve: naive {naive_ips:.1} inf/s, stream server {serve_ips:.1} inf/s ({speedup:.2}x, \
         thread budget {}); replica scaling {}",
        stats.thread_budget,
        scaling.join(" ")
    );

    let throughput: Vec<String> = swept
        .iter()
        .map(|(r, ips)| format!("\"replicas_{r}\": {ips:.2}"))
        .collect();
    let replica_speedup: Vec<String> = swept
        .iter()
        .skip(1)
        .map(|(r, ips)| format!("\"replicas_{r}_vs_1\": {:.3}", ips / serve_ips))
        .collect();
    let utilisation: Vec<String> = stats
        .utilisation
        .iter()
        .map(|u| {
            format!(
                "\"{:?}\": {{\"units\": {}, \"busy_cycles\": {}, \"total_cycles\": {}, \
                 \"utilisation\": {:.4}}}",
                u.kind,
                u.units,
                u.busy_cycles,
                u.total_cycles,
                u.utilisation()
            )
        })
        .collect();
    format!(
        "\"workload\": \"lenet5_T4_batch{BATCH}\",\n\
         \"batch\": {BATCH},\n\
         \"micro_batch\": {MICRO_BATCH},\n\
         \"thread_budget\": {},\n\
         \"inferences_per_sec\": {{\"naive_run_fast\": {naive_ips:.2}, \
         \"stream_server\": {serve_ips:.2}}},\n\
         \"speedup_server_vs_naive\": {speedup:.3},\n\
         \"replica_throughput_ips\": {{{}}},\n\
         \"replica_speedup\": {{{}}},\n\
         \"trace_phase_latency\": {phase_latency},\n\
         \"unit_utilisation\": {{{}}}",
        stats.thread_budget,
        throughput.join(", "),
        replica_speedup.join(", "),
        utilisation.join(", ")
    )
}
