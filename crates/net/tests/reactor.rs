//! Reactor loopback suite on both readiness backends: concurrent
//! connections get scores bit-identical to the in-process
//! `StreamServer::submit`, the reactor reports the backend it runs on,
//! and the connection cap sheds exactly and readmits once a slot frees.
//! Also pins the read-burst contract: a socket whose readable bytes
//! outlast one fairness burst is served in full, because both backends
//! re-report what the burst left behind.

use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::StreamServer;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_net::protocol::{reject_scope, Frame, InferRequest};
use snn_net::server::READ_BURST;
use snn_net::{NetClient, NetError, NetOptions, NetServer, ReactorBackend};
use snn_tensor::Tensor;
use std::time::Duration;

fn tiny_setup(count: usize) -> (SnnModel, Vec<Tensor<f32>>) {
    let net = zoo::tiny_cnn();
    let params = Parameters::he_init(&net, 19).unwrap();
    let inputs: Vec<Tensor<f32>> = (0..count)
        .map(|i| {
            let values: Vec<f32> = (0..144)
                .map(|j| ((i * 23 + j * 3) % 100) as f32 / 100.0)
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

fn options(backend: ReactorBackend) -> NetOptions {
    NetOptions {
        backend,
        poll_interval: Duration::from_millis(5),
        ..NetOptions::default()
    }
}

/// The exactness pin: three concurrent connections on one reactor
/// return logits bit-identical to the in-process submit — on the epoll
/// backend *and* the poll fallback, each reported as the backend in use.
#[test]
fn scores_match_in_process_submit_on_both_backends_with_three_connections() {
    let (model, inputs) = tiny_setup(4);
    let config = AcceleratorConfig::default();
    let in_process = StreamServer::start(config, model.clone()).unwrap();
    for (backend, expected) in [
        (ReactorBackend::Epoll, "epoll"),
        (ReactorBackend::Poll, "poll"),
    ] {
        let server =
            NetServer::bind("127.0.0.1:0", config, model.clone(), options(backend)).unwrap();
        let mut clients: Vec<NetClient> = (0..3)
            .map(|_| NetClient::connect(server.local_addr()).unwrap())
            .collect();
        for (i, input) in inputs.iter().enumerate() {
            let client = &mut clients[i % 3];
            let wire = client.infer(input).unwrap();
            let solo = in_process.submit(input.clone()).unwrap().wait().unwrap();
            assert_eq!(
                wire.logits, solo.logits,
                "logits must be bit-identical over the wire ({backend:?})"
            );
            assert_eq!(wire.prediction as usize, solo.prediction);
            assert_eq!(wire.total_cycles, solo.total_cycles());
        }
        let stats = server.stats();
        assert_eq!(stats.reactors, 1);
        assert_eq!(stats.per_reactor.len(), 1);
        assert_eq!(stats.per_reactor[0].backend, expected);
        assert_eq!(stats.accepted, 3);
        assert_eq!(stats.open_connections, 3);
        assert_eq!(stats.requests, inputs.len() as u64);
        assert!(stats.reactor_alive);
        drop(clients);
        server.shutdown();
    }
    in_process.shutdown();
}

/// The reactor serves at most `max_connections` connections, the shed
/// quotes that capacity, and a freed slot readmits.
#[test]
fn connection_cap_sheds_and_a_freed_slot_readmits() {
    let (model, inputs) = tiny_setup(1);
    let server = NetServer::bind(
        "127.0.0.1:0",
        AcceleratorConfig::default(),
        model,
        NetOptions {
            max_connections: 2,
            ..options(ReactorBackend::Auto)
        },
    )
    .unwrap();
    let addr = server.local_addr();
    // Fill both slots.
    let mut first = NetClient::connect(addr).unwrap();
    first.infer(&inputs[0]).unwrap();
    let mut second = NetClient::connect(addr).unwrap();
    second.infer(&inputs[0]).unwrap();
    // The third connection must be shed, quoting the capacity.
    let mut third = NetClient::connect(addr).unwrap();
    match third.infer(&inputs[0]) {
        Err(NetError::Rejected(reply)) => {
            assert_eq!(reply.scope, reject_scope::CONNECTIONS);
            assert_eq!(reply.capacity, 2);
        }
        other => panic!("expected a connection-scope rejection, got {other:?}"),
    }
    // Freeing one slot readmits.
    drop(first);
    let mut retry = NetClient::connect(addr).unwrap();
    let mut served = false;
    for _ in 0..100 {
        match retry.infer(&inputs[0]) {
            Ok(_) => {
                served = true;
                break;
            }
            Err(err) if err.is_backpressure() => {
                std::thread::sleep(Duration::from_millis(10));
                retry = NetClient::connect(addr).unwrap();
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(served, "a freed slot must readmit");
    let stats = server.shutdown();
    assert!(stats.turned_away >= 1);
    assert_eq!(stats.server.errors, 0);
}

/// A pipelined backlog larger than one read burst on one connection: the
/// reactor stops reading at [`READ_BURST`] for fairness, and every later
/// request is served only because the poller reports the socket again.
/// Every reply comes back, twice in a row on the same connection, on
/// both backends.
#[test]
fn a_pipelined_backlog_beyond_one_burst_is_served_in_full_on_both_backends() {
    let (model, inputs) = tiny_setup(2);
    let frame_len = Frame::Infer(InferRequest::from_tensor(0, &inputs[0]))
        .encode()
        .len();
    // About 1.25 bursts of tiny_cnn INFERs (≈ 550 frames, ≈ 320 KiB).
    let count = (READ_BURST + READ_BURST / 4) / frame_len;
    let batch: Vec<Tensor<f32>> = (0..count)
        .map(|i| inputs[i % inputs.len()].clone())
        .collect();
    for backend in [ReactorBackend::Epoll, ReactorBackend::Poll] {
        let server = NetServer::bind(
            "127.0.0.1:0",
            AcceleratorConfig::default(),
            model.clone(),
            options(backend),
        )
        .unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        for round in 0..2 {
            let replies = client.infer_many(&batch).unwrap();
            assert_eq!(replies.len(), count);
            for reply in &replies {
                reply
                    .as_ref()
                    .unwrap_or_else(|err| panic!("{backend:?} round {round}: {err}"));
            }
        }
        drop(client);
        let stats = server.shutdown();
        assert_eq!(stats.requests, 2 * count as u64, "{backend:?}");
        assert_eq!(stats.server.completed, 2 * count as u64, "{backend:?}");
        assert_eq!(stats.protocol_errors, 0, "{backend:?}");
    }
}
