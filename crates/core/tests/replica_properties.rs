//! Property tests for the replicated serving layer.
//!
//! Three tiers:
//!
//! * **Correlation** — for every interleaving proptest generates
//!   (submission permutation, replica count, mixed ticket/tagged
//!   submissions), every report an N-replica server
//!   hands back is **bit-identical** to the same input served by a
//!   replicas=1 server and by the solo sequential oracle.  Replication
//!   must be invisible in the results.
//! * **Admission bound** — for random replica counts, capacities and
//!   bursts the one shared queue never holds more than
//!   `queue_capacity × healthy_replicas`, and every `QueueFull` quotes
//!   exactly that bound.
//! * **No stranding** (`fault-injection` builds) — a replica killed
//!   inside a burst fails exactly its own in-flight request; everything else
//!   queued is served bit-exactly by the sibling, and killing the last
//!   replica settles the rest of the queue with typed errors instead of
//!   leaving it to hang.

use proptest::prelude::*;
use snn_accel::config::AcceleratorConfig;
use snn_accel::serve::{CompletionSink, ServerOptions, StreamServer, Ticket};
use snn_accel::sim::Accelerator;
use snn_accel::AccelError;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::zoo;
use snn_tensor::Tensor;
use std::sync::Arc;

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

/// Turns proptest's raw keys into a permutation of `0..len` (sort indices
/// by key, index as tiebreak) — the submission interleaving.
fn permutation(keys: &[u64], len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    order.sort_by_key(|&i| (keys.get(i).copied().unwrap_or(0), i));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The correlation suite: an N-replica server's SCORES (full
    /// `RunReport`s, logits included) are bit-identical to a replicas=1
    /// server and the solo oracle for every generated interleaving of
    /// submissions, ticketed and tagged.
    #[test]
    fn replicated_reports_match_single_replica_for_every_interleaving(
        replicas in 2usize..4,
        order_keys in proptest::collection::vec(0u64..1000, 8),
        tagged_mask in 0u32..256,
        time_steps in 1usize..4,
        seed in 0u64..1000,
    ) {
        let (model, inputs) = tiny_setup(seed, time_steps, order_keys.len());
        let config = AcceleratorConfig::default();

        // Oracle 1: replicas = 1.
        let single = StreamServer::start_with(config, model.clone(), ServerOptions {
            replicas: 1,
            ..ServerOptions::default()
        }).unwrap();
        let baseline = single.run_all(&inputs).unwrap();
        single.shutdown();

        // Oracle 2: solo sequential accelerator.
        let solo = Accelerator::new(config);

        // System under test: N replicas, submissions in a generated
        // permutation, each as a generated ticket or tagged submission.
        let server = StreamServer::start_with(config, model.clone(), ServerOptions {
            replicas,
            ..ServerOptions::default()
        }).unwrap();
        let (sink, completions) = CompletionSink::new(Arc::new(|| {}));
        let mut tickets: Vec<(usize, Ticket)> = Vec::new();
        let mut tagged = 0usize;
        for &index in &permutation(&order_keys, inputs.len()) {
            if tagged_mask & (1 << (index % 32)) != 0 {
                server.submit_tagged(inputs[index].clone(), index as u64, &sink, None).unwrap();
                tagged += 1;
            } else {
                tickets.push((index, server.submit(inputs[index].clone()).unwrap()));
            }
        }
        let mut reports = vec![None; inputs.len()];
        for (index, ticket) in tickets {
            reports[index] = Some(ticket.wait().unwrap());
        }
        for _ in 0..tagged {
            let completion = completions
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("tagged completion arrives");
            reports[completion.tag as usize] = Some(completion.result.unwrap());
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.replicas, replicas);
        prop_assert_eq!(stats.healthy_replicas, replicas);
        prop_assert_eq!(stats.completed, inputs.len() as u64);
        prop_assert_eq!(stats.errors, 0);

        for (index, report) in reports.into_iter().enumerate() {
            let report = report.expect("every submission settled");
            prop_assert_eq!(&report, &baseline[index],
                "replicas={} differs from replicas=1 at input {}", replicas, index);
            prop_assert_eq!(&report, &solo.run(&model, &inputs[index]).unwrap());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The admission bound: however fast a burst arrives, the shared
    /// queue's depth stays within `queue_capacity × healthy_replicas`, and
    /// a rejection quotes exactly that depth and that bound.
    #[test]
    fn shared_queue_depth_never_exceeds_capacity_times_healthy_replicas(
        replicas in 1usize..4,
        queue_capacity in 1usize..4,
        burst in 1usize..48,
        seed in 0u64..1000,
    ) {
        let (model, inputs) = tiny_setup(seed, 2, 2);
        let server = StreamServer::start_with(AcceleratorConfig::default(), model, ServerOptions {
            queue_capacity,
            replicas,
            ..ServerOptions::default()
        }).unwrap();
        let bound = queue_capacity * replicas;
        let mut tickets = Vec::new();
        let mut rejections = 0u64;
        for i in 0..burst {
            match server.submit(inputs[i % inputs.len()].clone()) {
                Ok(ticket) => tickets.push(ticket),
                Err(AccelError::QueueFull { queued, capacity }) => {
                    prop_assert_eq!((queued, capacity), (bound, bound));
                    rejections += 1;
                }
                Err(other) => prop_assert!(false, "unexpected admission error: {}", other),
            }
            let snapshot = server.queue_snapshot();
            prop_assert_eq!(snapshot.capacity, bound);
            prop_assert!(snapshot.depth <= bound,
                "depth {} over the bound {}", snapshot.depth, bound);
        }
        let accepted = tickets.len() as u64;
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.completed, accepted);
        prop_assert_eq!(stats.rejected, rejections);
        prop_assert_eq!(stats.queue.depth, 0);
    }
}

#[cfg(feature = "fault-injection")]
mod no_stranding {
    use super::*;
    use snn_accel::serve::poison;
    use std::time::Duration;

    /// One generous bound for every wait: a stranded request fails the
    /// property instead of hanging it.
    const SETTLE_WITHIN: Duration = Duration::from_secs(60);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// A kill pill inside a burst on a 2-replica server takes down
        /// exactly its own request; the sibling serves the rest of the
        /// shared queue bit-exactly.  A second burst then kills the last
        /// replica, and everything still queued settles with a typed
        /// error within a bounded wait.
        #[test]
        fn a_killed_replica_fails_only_its_in_flight_request(
            burst in 2usize..12,
            kill_at in 0usize..12,
            seed in 0u64..1000,
        ) {
            let (model, inputs) = tiny_setup(seed, 2, burst);
            let config = AcceleratorConfig::default();
            let solo = Accelerator::new(config);
            let server = StreamServer::start_with(config, model.clone(), ServerOptions {
                replicas: 2,
                ..ServerOptions::default()
            }).unwrap();
            let kill_at = kill_at % burst;
            let (sink, completions) = CompletionSink::new(Arc::new(|| {}));
            // Round 0 kills one of the two replicas, round 1 the survivor.
            for round in 0..2 {
                let first_tag = (round * burst) as u64;
                let mut admitted = 0;
                for (index, input) in inputs.iter().enumerate() {
                    let mut input = input.clone();
                    if index == kill_at {
                        input.as_mut_slice()[0] = poison::kill_pill();
                    }
                    match server.submit_tagged(input, first_tag + index as u64, &sink, None) {
                        Ok(()) => admitted += 1,
                        // Admission after the last replica has already died.
                        Err(AccelError::Serving { .. }) if round == 1 => {}
                        Err(other) => prop_assert!(false, "admission: {}", other),
                    }
                }
                let mut down = 0usize;
                for _ in 0..admitted {
                    let completion = completions.recv_timeout(SETTLE_WITHIN).expect("no stranding");
                    let index = (completion.tag - first_tag) as usize;
                    match completion.result {
                        Ok(report) => {
                            prop_assert!(index != kill_at, "the pill itself is never served");
                            prop_assert_eq!(&report, &solo.run(&model, &inputs[index]).unwrap());
                        }
                        Err(AccelError::ReplicaDown { .. }) => down += 1,
                        // What was still queued when the last replica died.
                        Err(AccelError::Serving { .. }) if round == 1 => {}
                        Err(other) => prop_assert!(false, "request {}: {}", index, other),
                    }
                }
                prop_assert_eq!(down, 1, "a kill strands exactly its own request");
                prop_assert_eq!(server.healthy_replicas(), 1 - round);
            }
            let snapshot = server.queue_snapshot();
            prop_assert_eq!((snapshot.depth, snapshot.capacity), (0, 0));
            let refused = matches!(
                server.submit(inputs[0].clone()),
                Err(AccelError::Serving { .. })
            );
            prop_assert!(refused, "a server with no replica left refuses with Serving");
            server.shutdown();
        }
    }
}
