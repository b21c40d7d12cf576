//! The two TCP workloads: a loopback `NetServer` with the options a user
//! gets by default, driven by the in-process generator.

use crate::engine;
use crate::fixture::Fixture;
use crate::loadgen::{self, LoadReport, RequestFrames, Shape};
use crate::measure::EndToEnd;
use crate::stats::Estimator;
use snn_accel::serve::ServerOptions;
use snn_accel::sim::Accelerator;
use snn_net::{NetClient, NetOptions, NetServer};
use std::time::Instant;

/// Default options, with request tracing off for end-to-end runs.
pub fn net_options(trace: bool) -> NetOptions {
    NetOptions {
        server: ServerOptions {
            trace,
            ..ServerOptions::default()
        },
        ..NetOptions::default()
    }
}

/// One set-up as a user performs it: conversion → `NetServer::bind`
/// (which compiles and starts the `StreamServer`) → connect → first
/// oracle-verified reply.
pub fn setup_once(fixture: &Fixture, options: NetOptions) -> (f64, bool, NetServer) {
    let started = Instant::now();
    let model = fixture.convert();
    let server = NetServer::bind("127.0.0.1:0", fixture.config, model, options)
        .expect("bind a loopback NetServer");
    let first = NetClient::connect(server.local_addr())
        .and_then(|mut client| client.infer(&fixture.inputs[0]));
    let ok = first.is_ok_and(|reply| {
        fixture.oracle.matches(
            0,
            &reply.logits,
            reply.prediction as usize,
            reply.total_cycles,
        )
    });
    (started.elapsed().as_secs_f64(), ok, server)
}

/// Set-up repeats per run (one before the span, the rest after it).
pub const SETUP_REPEATS: usize = 51;

/// Runs the generator on a thread of its own against `server`.
pub fn drive(
    server: &NetServer,
    fixture: &Fixture,
    shape: Shape,
    seed: u64,
    seconds: f64,
) -> LoadReport {
    let frames = RequestFrames::encode(&fixture.inputs);
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("bench-loadgen".to_string())
            .spawn_scoped(scope, || {
                loadgen::drive(addr, &frames, &fixture.oracle, shape, seed, seconds)
            })
            .expect("spawn the generator thread")
            .join()
            .expect("the generator thread does not panic")
            .expect("generator I/O on loopback")
    })
}

/// Runs the workload for `seconds` of measured span and reduces it to the
/// ten end-to-end metrics, plus the generator's own report.
pub fn measure(fixture: &Fixture, shape: Shape, seed: u64, seconds: f64) -> (EndToEnd, LoadReport) {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let (secs, first_ok, server) = setup_once(fixture, net_options(false));
    setups.push(secs);
    let mut attempted = 1u64;
    let mut ok = u64::from(first_ok);

    // Simulated counts: one pass of the input set on the same engine
    // configuration the server runs.
    let counts = engine::model_counts(
        fixture,
        &fixture.convert(),
        &Accelerator::new(fixture.config),
    );

    let load = drive(&server, fixture, shape, seed, seconds);
    attempted += load.blocks.attempted();
    ok += load.blocks.ok();
    server.shutdown();

    for _ in 1..SETUP_REPEATS {
        let (secs, setup_ok, server) = setup_once(fixture, net_options(false));
        setups.push(secs);
        attempted += 1;
        ok += u64::from(setup_ok);
        server.shutdown();
    }

    let open_loop = matches!(shape, Shape::Burst { .. });
    let throughput = open_loop.then(|| {
        (
            load.span_completed as f64 / load.span_s,
            format!(
                "{} completions over {:.3} s (offered {})",
                load.span_completed, load.span_s, load.span_offered
            ),
        )
    });
    let end_to_end = EndToEnd::reduce(
        &load.blocks,
        Estimator::Median,
        &setups,
        load.span_allocs.allocs as f64 / load.span_completed.max(1) as f64,
        counts,
        attempted,
        ok,
        &load.yardstick,
        throughput,
    );
    (end_to_end, load)
}
