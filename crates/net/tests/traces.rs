//! End-to-end tracing over real sockets: every pipelined request served
//! by a multi-replica `NetServer` yields exactly one complete
//! `RequestTrace` retrievable over the wire (framed STATS format `2` or
//! the plaintext `TRACES` line), with per-phase durations inside
//! wall-clock bounds and a `WriteStall` span amended by the reactor.
//! Tracing must not perturb results: scores stay bit-identical with the
//! recorder on and off.  The suite also pins the golden list of STATS
//! keys both exposition formats carry.

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::ServerOptions;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_net::{scrape_traces, NetClient, NetOptions, NetServer};
use snn_telemetry::{Outcome, Phase, RequestTrace, PHASES};
use snn_tensor::Tensor;
use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

fn tiny_setup(count: usize) -> (SnnModel, Vec<Tensor<f32>>) {
    let net = zoo::tiny_cnn();
    let params = Parameters::he_init(&net, 13).unwrap();
    let inputs: Vec<Tensor<f32>> = (0..count)
        .map(|i| {
            let values: Vec<f32> = (0..144)
                .map(|j| ((i * 31 + j * 7) % 100) as f32 / 100.0)
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
            time_steps: 3,
        },
    )
    .unwrap();
    (model, inputs)
}

fn traced_net_options(replicas: usize, trace: bool) -> NetOptions {
    NetOptions {
        server: ServerOptions {
            replicas,
            trace,
            ..ServerOptions::default()
        },
        ..NetOptions::default()
    }
}

fn parse_jsonl(dump: &str) -> Vec<RequestTrace> {
    dump.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            RequestTrace::from_json_line(l).unwrap_or_else(|| panic!("unparseable trace: {l}"))
        })
        .collect()
}

/// The acceptance pin: pipelined requests over a replicated loopback
/// server each produce one complete trace, correlated by request id,
/// with phase sums inside the observed wall clock.
#[test]
fn every_pipelined_request_yields_one_complete_trace_over_the_wire() {
    let (model, inputs) = tiny_setup(2);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        traced_net_options(2, true),
    )
    .unwrap();
    let batch: Vec<Tensor<f32>> = (0..8).map(|i| inputs[i % inputs.len()].clone()).collect();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let wall_start = Instant::now();
    let replies = client.infer_many(&batch).unwrap();
    let wall = wall_start.elapsed().as_secs_f64();
    for reply in &replies {
        assert!(reply.is_ok(), "pipelined inference failed: {reply:?}");
    }

    let traces = parse_jsonl(&client.stats_traces().unwrap());
    assert_eq!(traces.len(), batch.len(), "one trace per request");
    let ids: HashSet<u64> = traces.iter().map(|t| t.request_id).collect();
    assert_eq!(ids.len(), traces.len(), "request ids are unique");

    for trace in &traces {
        match &trace.outcome {
            Outcome::Scores { total_cycles } => assert!(*total_cycles > 0),
            other => panic!("served request traced as {other:?}"),
        }
        assert!(trace.replica.expect("routed") < 2);
        for phase in [
            Phase::Admission,
            Phase::Route,
            Phase::QueueWait,
            Phase::BatchAssembly,
            Phase::Compute,
        ] {
            assert!(
                trace.phase_seconds(phase).is_some(),
                "missing {phase:?} in {trace:?}"
            );
        }
        // The reactor amends each served trace with its reply's
        // write-queue residency once the kernel accepts the bytes — and
        // the client has the reply in hand, so the bytes were accepted.
        assert!(
            trace.phase_seconds(Phase::WriteStall).is_some(),
            "missing WriteStall in {trace:?}"
        );
        // WriteStall happens after settle, so it is excluded from the
        // in-pipeline total; the in-pipeline phases must fit inside it.
        let in_pipeline: f64 = PHASES
            .iter()
            .filter(|&&p| p != Phase::WriteStall)
            .filter_map(|&p| trace.phase_seconds(p))
            .sum();
        assert!(
            in_pipeline <= trace.total_seconds() + 1e-6,
            "phases ({in_pipeline}s) exceed trace total ({}s)",
            trace.total_seconds()
        );
        assert!(trace.total_seconds() <= wall + 0.5);
    }

    // The drain was destructive: a second scrape starts empty.
    assert!(client.stats_traces().unwrap().is_empty());

    // The Prometheus exposition carries the histogram families fed by
    // the same requests.
    let prom = client.stats_prometheus().unwrap();
    for family in [
        "snn_request_queue_wait_seconds",
        "snn_request_compute_seconds",
        "snn_request_duration_seconds",
        "snn_reactor_write_stall_seconds",
    ] {
        assert!(
            prom.contains(&format!("# TYPE {family} histogram")),
            "missing {family} in: {prom}"
        );
    }
    let count_line = "snn_request_duration_seconds_count{replica=\"0\"}";
    assert!(prom.contains(count_line), "missing {count_line}");
    server.shutdown();
}

#[test]
fn scores_over_tcp_are_bit_identical_with_tracing_on_and_off() {
    let (model, inputs) = tiny_setup(3);
    let config = AcceleratorConfig::default();
    let traced = NetServer::bind(
        "127.0.0.1:0",
        config,
        model.clone(),
        traced_net_options(2, true),
    )
    .unwrap();
    let untraced =
        NetServer::bind("127.0.0.1:0", config, model, traced_net_options(2, false)).unwrap();

    let mut on_client = NetClient::connect(traced.local_addr()).unwrap();
    let mut off_client = NetClient::connect(untraced.local_addr()).unwrap();
    for input in &inputs {
        let on = on_client.infer(input).unwrap();
        let off = off_client.infer(input).unwrap();
        assert_eq!(on.logits, off.logits, "tracing must not perturb scores");
        assert_eq!(on.prediction, off.prediction);
        assert_eq!(on.total_cycles, off.total_cycles);
    }

    // A disabled recorder serves empty trace dumps and empty histograms,
    // but the exposition still enumerates the families (count 0).
    assert!(off_client.stats_traces().unwrap().is_empty());
    let prom = off_client.stats_prometheus().unwrap();
    assert!(prom.contains("snn_request_duration_seconds_count{replica=\"0\"} 0"));
    assert!(!on_client.stats_traces().unwrap().is_empty());
    traced.shutdown();
    untraced.shutdown();
}

/// The `nc`-style plaintext `TRACES` line drains the same JSONL dump as
/// the framed format-2 request, destructively.
#[test]
fn plaintext_traces_line_drains_the_ring_as_jsonl() {
    let (model, inputs) = tiny_setup(3);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        traced_net_options(1, true),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr).unwrap();
    for input in &inputs {
        client.infer(input).unwrap();
    }
    drop(client);

    let traces = parse_jsonl(&scrape_traces(addr).unwrap());
    assert_eq!(traces.len(), inputs.len());
    for trace in &traces {
        assert!(matches!(trace.outcome, Outcome::Scores { .. }));
        assert_eq!(trace.replica, Some(0));
    }
    assert!(
        scrape_traces(addr).unwrap().is_empty(),
        "the plaintext drain is destructive too"
    );
    server.shutdown();
}

/// Every plaintext STATS key (family fields as `label.field`).  Both
/// formats render one table (`collect_metrics`), so this list and
/// [`GOLDEN_PROMETHEUS`] are the exposition's contract: a renamed, dropped
/// or added metric fails the test below with its name.
const GOLDEN_TEXT: &str = "
    snn_net_protocol_version completed errors panics rejected deadline_sheds
    reactor_alive reactor_backend replicas replicas_healthy
    queue_depth queue_capacity drain_rate_ips throughput_ips
    thread_budget connections_accepted connections_turned_away connections_open
    connections_max requests protocol_errors stats_requests trace_open_spans
    request_queue_wait_seconds_count request_queue_wait_seconds_sum
    request_compute_seconds_count request_compute_seconds_sum
    request_duration_seconds_count request_duration_seconds_sum
    reactor_write_stall_seconds_count reactor_write_stall_seconds_sum
    reactor.backend reactor.connections reactor.accepted reactor.turned_away
    reactor.requests reactor.protocol_errors reactor.stats_requests
    replica.healthy replica.completed replica.errors
    replica.panics replica.deadline_sheds replica.drain_rate_ips
    unit.units unit.busy_cycles unit.total_cycles unit.utilisation";

/// Every Prometheus sample name (histogram `_bucket` series aside).  The
/// text-valued scalar `reactor_backend` has no counterpart: Prometheus
/// carries it on the per-reactor series.
const GOLDEN_PROMETHEUS: &str = "
    snn_net_protocol_version snn_completed_total snn_errors_total snn_panics_total
    snn_rejected_total snn_deadline_sheds_total snn_reactor_alive snn_replicas
    snn_replicas_healthy snn_queue_depth snn_queue_capacity snn_drain_rate_ips
    snn_throughput_ips snn_thread_budget snn_connections_accepted_total
    snn_connections_turned_away_total snn_connections_open snn_connections_max
    snn_requests_total snn_protocol_errors_total snn_stats_requests_total
    snn_trace_open_spans
    snn_request_queue_wait_seconds_count snn_request_queue_wait_seconds_sum
    snn_request_compute_seconds_count snn_request_compute_seconds_sum
    snn_request_duration_seconds_count snn_request_duration_seconds_sum
    snn_reactor_write_stall_seconds_count snn_reactor_write_stall_seconds_sum
    snn_reactor_backend snn_reactor_connections snn_reactor_accepted_total
    snn_reactor_turned_away_total snn_reactor_requests_total snn_reactor_protocol_errors_total
    snn_reactor_stats_requests_total
    snn_replica_healthy snn_replica_completed_total snn_replica_errors_total
    snn_replica_panics_total
    snn_replica_deadline_sheds_total snn_replica_drain_rate_ips
    snn_unit_count snn_unit_busy_cycles snn_unit_total_cycles snn_unit_utilisation";

/// The golden key list: a live 2-replica server's plaintext
/// and Prometheus STATS carry exactly the golden keys, and every
/// Prometheus line has the exposition's shape.
#[test]
fn stats_text_and_prometheus_enumerate_the_same_key_set() {
    let (model, inputs) = tiny_setup(2);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        traced_net_options(2, true),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for input in &inputs {
        client.infer(input).unwrap();
    }

    let mut text_keys = BTreeSet::new();
    for line in client.stats_text().unwrap().lines() {
        let (key, value) = line.split_once(": ").expect("key: value");
        match key.split_once('[') {
            Some((label, _)) => text_keys.extend(value.split(' ').map(|field| {
                let field = field.split_once('=').expect("field=value").0;
                format!("{label}.{field}")
            })),
            None => {
                text_keys.insert(key.to_string());
            }
        }
    }
    let prom = client.stats_prometheus().unwrap();
    let mut prom_keys = BTreeSet::new();
    for line in prom.lines() {
        assert!(
            line.starts_with("# TYPE snn_")
                || line.starts_with("# HELP snn_")
                || line.starts_with("snn_"),
            "malformed exposition line: {line}"
        );
        let name = line.split(['{', ' ']).next().expect("metric name");
        if !line.starts_with('#') && !name.ends_with("_bucket") {
            prom_keys.insert(name.to_string());
        }
    }

    for (format, keys, golden) in [
        ("plaintext", text_keys, GOLDEN_TEXT),
        ("Prometheus", prom_keys, GOLDEN_PROMETHEUS),
    ] {
        let golden: BTreeSet<String> = golden.split_whitespace().map(str::to_string).collect();
        let stray: Vec<&String> = keys.symmetric_difference(&golden).collect();
        assert!(
            stray.is_empty(),
            "{format} STATS keys diverge from the golden list: {stray:?}"
        );
    }
    server.shutdown();
}
