//! The metric and workload tables (the single source `BENCHMARK.json` is
//! generated from), one run's result, and its JSON form.

use crate::host::HostInfo;
use crate::json::Value;
use crate::stats::Better;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The ten end-to-end metrics, the same on every workload.  Host times and
/// peak RSS carry the contract's maximum bound: their run-to-run spread
/// (quartile distance over median, ten seeds) read 3–17 % on this host,
/// depending on the hour.  Allocations spread 0.8 % at most and adder
/// operations 1.3 % (the inputs differ by seed); the other simulated counts
/// and `ok_share` do not move at all.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("infer_per_s", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_infer", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("allocs_per_infer", "count", Lower, 0.05),
    e2e("model_cycles_per_infer", "count", Lower, 0.0),
    e2e("model_adder_ops_per_infer", "count", Lower, 0.03),
    e2e("model_energy_uj_per_infer", "uJ", Lower, 0.0),
    e2e("ok_share", "ratio", Higher, 0.0),
];

/// The four workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "lenet_engine",
        "closed loop, one caller on Accelerator::run_sequential: units, bit-plane packing and executor with cache-resident weights; serve, parallel and net do nothing, so their changes must predict no change",
    ),
    (
        "vgg11_tiled",
        "closed loop, one caller on Accelerator::run: 512-channel layers and 4096-wide FCs beyond cache, 8 KiB row-band tiling, pipelined conv-pool stream and thread budget active; the paper's headline model",
    ),
    (
        "lenet_tcp_saturate",
        "closed loop over loopback TCP, 2 connections x 32 in flight: queue, router, micro-batcher, completion sink, reactor write path and reply codec kept full; batching and allocation gains show here",
    ),
    (
        "lenet_tcp_burst",
        "open loop over loopback TCP, 8 pipelined requests per connection every 40 ms (400 inf/s): partial batches and an idle queue, so a batching delay shows as latency measured from the due time",
    ),
];

/// The per-layer metrics every workload's traced pass reports (layers are
/// this repo's crates).  Workload-specific extras (VGG's layers 07–11) are printed and stored in the result file
/// but are not part of this common list.
pub const PER_LAYER: &[MetricDef] = &[
    layer("encoding.encode_us", "us", Lower),
    layer("encoding.input_density", "ratio", Lower),
    layer("tensor.pack_us", "us", Lower),
    layer("tensor.occupancy_us", "us", Lower),
    layer("tensor.plane_density", "ratio", Lower),
    layer("model.fixture_s", "s", Lower),
    layer("model.convert_ms", "ms", Lower),
    layer("model.forward_levels_ms", "ms", Lower),
    layer("accel.compile_us", "us", Lower),
    layer("accel.conv_ms", "ms", Lower),
    layer("accel.pool_ms", "ms", Lower),
    layer("accel.linear_ms", "ms", Lower),
    layer("accel.conv_cycles", "count", Lower),
    layer("accel.pool_cycles", "count", Lower),
    layer("accel.linear_cycles", "count", Lower),
    layer("accel.conv_adder_ops", "count", Lower),
    layer("accel.linear_adder_ops", "count", Lower),
    layer("accel.layer01.host_us", "us", Lower),
    layer("accel.layer01.plane_density", "ratio", Lower),
    layer("accel.layer02.host_us", "us", Lower),
    layer("accel.layer02.plane_density", "ratio", Lower),
    layer("accel.layer03.host_us", "us", Lower),
    layer("accel.layer03.plane_density", "ratio", Lower),
    layer("accel.layer04.host_us", "us", Lower),
    layer("accel.layer04.plane_density", "ratio", Lower),
    layer("accel.layer05.host_us", "us", Lower),
    layer("accel.layer05.plane_density", "ratio", Lower),
    layer("accel.layer06.host_us", "us", Lower),
    layer("accel.layer06.plane_density", "ratio", Lower),
    layer("accel.heaviest_layer_share", "ratio", Lower),
    layer("accel.run_ms", "ms", Lower),
    layer("accel.run_sequential_ms", "ms", Lower),
    layer("accel.run_fast_ms", "ms", Lower),
    layer("accel.exec_self_ms", "ms", Lower),
    layer("accel.pipeline_ratio", "ratio", Higher),
    layer("accel.tiling_ratio", "ratio", Lower),
    layer("accel.tiles_per_infer", "count", Lower),
    layer("accel.host_ns_per_adder_op", "ns", Lower),
    layer("accel.host_ns_per_cycle", "ns", Lower),
    layer("accel.sparse_dense_host_ratio", "ratio", Lower),
    layer("accel.product_sparsity_host_ratio", "ratio", Lower),
    layer("accel.product_sparsity_op_ratio", "ratio", Lower),
    layer("accel.allocs_per_infer", "count", Lower),
    layer("accel.alloc_kib_per_infer", "KiB", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.solo_roundtrip_ms", "ms", Lower),
    layer("serve.solo_overhead_ms", "ms", Lower),
    layer("serve.burst_infer_per_s", "1/s", Higher),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.largest_batch", "count", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.deadline_sheds", "count", Lower),
    layer("serve.queue_wait_p50_ms", "ms", Lower),
    layer("serve.queue_wait_p90_ms", "ms", Lower),
    layer("serve.batch_assembly_us", "us", Lower),
    layer("serve.compute_p50_ms", "ms", Lower),
    layer("serve.compute_p90_ms", "ms", Lower),
    layer("serve.replicas2_ratio", "ratio", Higher),
    layer("serve.allocs_per_infer", "count", Lower),
    layer("parallel.thread_budget", "count", Higher),
    layer("parallel.par_map_dispatch_us", "us", Lower),
    layer("telemetry.overhead_share", "ratio", Lower),
    layer("net.encode_infer_us", "us", Lower),
    layer("net.decode_infer_us", "us", Lower),
    layer("net.encode_scores_us", "us", Lower),
    layer("net.decode_scores_us", "us", Lower),
    layer("net.request_bytes", "count", Lower),
    layer("net.reply_bytes", "count", Lower),
    layer("net.solo_roundtrip_ms", "ms", Lower),
    layer("net.wire_overhead_ms", "ms", Lower),
    layer("net.write_stall_p90_us", "us", Lower),
    layer("net.requests", "count", Higher),
    layer("net.protocol_errors", "count", Lower),
    layer("net.turned_away", "count", Lower),
    layer("net.reactors", "count", Higher),
    layer("net.reactor_request_skew", "ratio", Lower),
    layer("net.poll_backend_ratio", "ratio", Higher),
    layer("loadgen.send_lag_p50_us", "us", Lower),
    layer("loadgen.send_lag_p99_us", "us", Lower),
    layer("loadgen.cpu_share", "ratio", Lower),
    layer("loadgen.offered_per_s", "1/s", Higher),
    layer("loadgen.achieved_per_s", "1/s", Higher),
    layer("loadgen.samples", "count", Higher),
    layer("loadgen.backlog_max", "count", Lower),
    layer("loadgen.latency_p90_ms", "ms", Lower),
    layer("loadgen.latency_p99_ms", "ms", Lower),
    layer("loadgen.slo_rate_per_s", "1/s", Higher),
    layer("host.yardstick_us", "us", Lower),
    layer("host.yardstick_spread", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("replay.requests", "count", Higher),
    layer("replay.mismatches", "count", Lower),
];

/// Looks a declared metric up by name (either table).
pub fn find_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Free text printed beside the value (median / worst block, repeats).
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// Everything one invocation measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// The yardstick spread exceeded `host::NOISY_SPREAD`.
    pub noisy: bool,
    pub host: HostInfo,
    /// The declared metrics (end-to-end, or the common per-layer list).
    pub metrics: Vec<Metric>,
    /// Further measurements of this workload, outside the declared lists.
    pub extras: Vec<Metric>,
}

fn metrics_object(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Number(m.value)),
                        ("unit".to_string(), Value::String(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

fn parse_metrics(value: Option<&Value>) -> Option<Vec<Metric>> {
    value?
        .as_object()?
        .iter()
        .map(|(name, m)| {
            Some(Metric::new(
                name,
                m.get("unit")?.as_str()?,
                m.get("value")?.as_f64()?,
            ))
        })
        .collect()
}

impl RunResult {
    /// A run is correct when every attempted operation succeeded and every
    /// reported value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The last line of standard output: the driver's contract.
    pub fn contract_line(&self) -> String {
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::Number(self.attempted as f64),
            ),
            ("failed".to_string(), Value::Number(self.failed as f64)),
            ("metrics".to_string(), metrics_object(&self.metrics)),
        ])
        .render()
    }

    /// The result file `compare` reads.
    pub fn to_json(&self) -> String {
        let host = Value::Object(vec![
            ("nproc".to_string(), Value::Number(self.host.nproc as f64)),
            (
                "program_cpu".to_string(),
                Value::Number(self.host.program_cpu as f64),
            ),
            (
                "generator_cpu".to_string(),
                Value::Number(self.host.generator_cpu as f64),
            ),
            (
                "cpu_model".to_string(),
                Value::String(self.host.cpu_model.clone()),
            ),
            ("simd".to_string(), Value::String(self.host.simd.clone())),
            (
                "thread_budget".to_string(),
                Value::Number(self.host.thread_budget as f64),
            ),
            ("rustc".to_string(), Value::String(self.host.rustc.clone())),
            (
                "git_revision".to_string(),
                Value::String(self.host.git_revision.clone()),
            ),
        ]);
        Value::Object(vec![
            ("workload".to_string(), Value::String(self.workload.clone())),
            ("seed".to_string(), Value::Number(self.seed as f64)),
            ("seconds".to_string(), Value::Number(self.seconds as f64)),
            ("trace".to_string(), Value::Bool(self.trace)),
            (
                "attempted".to_string(),
                Value::Number(self.attempted as f64),
            ),
            ("ok".to_string(), Value::Number(self.ok as f64)),
            ("failed".to_string(), Value::Number(self.failed as f64)),
            ("noisy".to_string(), Value::Bool(self.noisy)),
            ("host".to_string(), host),
            ("metrics".to_string(), metrics_object(&self.metrics)),
            ("extras".to_string(), metrics_object(&self.extras)),
        ])
        .render()
    }

    /// Parses a result file written by [`RunResult::to_json`] (notes are
    /// not stored, so they come back empty).
    pub fn from_json(text: &str) -> Option<RunResult> {
        let v = Value::parse(text)?;
        let host = v.get("host")?;
        Some(RunResult {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_f64()? as u64,
            seconds: v.get("seconds")?.as_f64()? as u64,
            trace: v.get("trace")?.as_bool()?,
            attempted: v.get("attempted")?.as_f64()? as u64,
            ok: v.get("ok")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            noisy: v.get("noisy")?.as_bool()?,
            host: HostInfo {
                nproc: host.get("nproc")?.as_f64()? as usize,
                program_cpu: host.get("program_cpu")?.as_f64()? as i64,
                generator_cpu: host.get("generator_cpu")?.as_f64()? as i64,
                cpu_model: host.get("cpu_model")?.as_str()?.to_string(),
                simd: host.get("simd")?.as_str()?.to_string(),
                thread_budget: host.get("thread_budget")?.as_f64()? as usize,
                rustc: host.get("rustc")?.as_str()?.to_string(),
                git_revision: host.get("git_revision")?.as_str()?.to_string(),
            },
            metrics: parse_metrics(v.get("metrics"))?,
            extras: parse_metrics(v.get("extras"))?,
        })
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "# snn-benchmark workload={} seed={} seconds={} trace={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace)
        );
        let h = &self.host;
        println!(
            "# host nproc={} program_cpu={} generator_cpu={} cpu=\"{}\" simd={} thread_budget={} rustc=\"{}\" git={}",
            h.nproc,
            h.program_cpu,
            h.generator_cpu,
            h.cpu_model,
            h.simd,
            h.thread_budget,
            h.rustc,
            h.git_revision
        );
        for m in self.metrics.iter().chain(self.extras.iter()) {
            println!("{:<34} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        println!(
            "attempted {} ok {} failed {}{}",
            self.attempted,
            self.ok,
            self.failed,
            if self.noisy {
                "   noisy: true (host yardstick spread above 0.15)"
            } else {
                ""
            }
        );
    }
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn manifest_json(run_seconds: u64) -> String {
    let defs = |table: &[MetricDef]| {
        Value::Array(
            table
                .iter()
                .map(|d| {
                    let mut fields = vec![
                        ("name".to_string(), Value::String(d.name.to_string())),
                        ("unit".to_string(), Value::String(d.unit.to_string())),
                        (
                            "better".to_string(),
                            Value::String(d.better.name().to_string()),
                        ),
                    ];
                    if let Some(bound) = d.bound {
                        fields.push(("bound".to_string(), Value::Number(bound)));
                    }
                    Value::Object(fields)
                })
                .collect(),
        )
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::Object(vec![
        (
            "command".to_string(),
            Value::Array(
                command
                    .iter()
                    .map(|s| Value::String((*s).to_string()))
                    .collect(),
            ),
        ),
        (
            "paths".to_string(),
            Value::Array(vec![Value::String("benchmark".to_string())]),
        ),
        ("run_seconds".to_string(), Value::Number(run_seconds as f64)),
        (
            "workloads".to_string(),
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Object(vec![
                            ("name".to_string(), Value::String((*name).to_string())),
                            ("why".to_string(), Value::String((*why).to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end".to_string(), defs(&END_TO_END)),
        ("per_layer".to_string(), defs(PER_LAYER)),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "lenet_engine".to_string(),
            seed: 7,
            seconds: 20,
            trace: false,
            attempted: 1000,
            ok: 1000,
            failed: 0,
            noisy: true,
            host: HostInfo {
                nproc: 2,
                program_cpu: 1,
                generator_cpu: 0,
                cpu_model: "Some \"quoted\" CPU @ 2.10GHz".to_string(),
                simd: "avx2".to_string(),
                thread_budget: 2,
                rustc: "rustc 1.95.0".to_string(),
                git_revision: "unknown".to_string(),
            },
            metrics: vec![
                Metric::new("setup_s", "s", 0.001_234_567_891),
                Metric::new("infer_per_s", "1/s", 5123.25),
            ],
            extras: vec![Metric::new("loadgen.samples", "count", 8000.0)],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let result = sample();
        let back = RunResult::from_json(&result.to_json()).expect("parses");
        assert_eq!(back, result);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = sample().contract_line();
        let v = Value::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.001_234_567_891)
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn non_finite_value_makes_the_run_incorrect() {
        let mut result = sample();
        result.metrics[0].value = f64::NAN;
        assert!(!result.correct());
        assert!(Value::parse(&result.contract_line()).is_some());
    }

    #[test]
    fn declared_names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(PER_LAYER.len() <= 128);
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", why.len());
        }
        assert!(END_TO_END.iter().all(|d| d.bound.unwrap() <= 0.25));
    }

    /// `BENCHMARK.json` at the repo root is generated from the tables
    /// (`snn-benchmark manifest`); this pins the two together.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = Value::parse(&committed).expect("valid JSON");
        let seconds = v.get("run_seconds").unwrap().as_f64().unwrap() as u64;
        assert_eq!(Value::parse(&manifest_json(seconds)), Some(v));
    }
}
