//! `snn-benchmark`: the repo's benchmark.
//!
//! ```text
//! snn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! snn-benchmark compare <a.json>... [--vs <b.json>...]
//! snn-benchmark manifest [run_seconds]
//! ```
//!
//! One invocation runs one workload.  `--trace 0` measures the ten
//! end-to-end metrics; `--trace 1` is the separate traced pass that
//! measures every layer from outside.  The last line of standard output is
//! the result as one JSON object; the same result, with workload-specific
//! extras, is written to `benchmark/out/`.

mod alloc;
mod compare;
mod engine;
mod fixture;
mod host;
mod json;
mod layers;
mod loadgen;
mod measure;
mod report;
mod spans;
mod stats;
mod tcp;

use fixture::{Fixture, ModelKind};
use report::{Metric, RunResult, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// A workload: which model it runs and how it is loaded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    LenetEngine,
    Vgg11Tiled,
    LenetTcpSaturate,
    LenetTcpBurst,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        [
            Workload::LenetEngine,
            Workload::Vgg11Tiled,
            Workload::LenetTcpSaturate,
            Workload::LenetTcpBurst,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    pub fn model(self) -> ModelKind {
        match self {
            Workload::Vgg11Tiled => ModelKind::Vgg,
            _ => ModelKind::Lenet,
        }
    }

    /// The generator shape of a TCP workload.
    pub fn shape(self) -> Option<loadgen::Shape> {
        match self {
            Workload::LenetTcpSaturate => Some(loadgen::SATURATE),
            Workload::LenetTcpBurst => Some(loadgen::BURST),
            _ => None,
        }
    }
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value:?} (1..=600)"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("missing --workload <name>")?,
        seed,
        seconds,
        trace,
    })
}

/// Where result and span files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &RunArgs) -> ExitCode {
    let overrides = host::snn_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "snn-benchmark: refusing to run with {} set: the run would measure a different program",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    // Both before any other thread exists.
    host::retain_freed_memory();
    let plan = *CPU_PLAN.get_or_init(host::confine_to_one_cpu);
    let host_info = host::HostInfo::collect(plan);
    let workload = args.workload;
    let seconds = args.seconds as f64;
    let fixture = Fixture::build(workload.model(), args.seed);

    let mut result = RunResult {
        workload: workload.name().to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        attempted: 0,
        ok: 0,
        failed: 0,
        noisy: false,
        host: host_info,
        metrics: Vec::new(),
        extras: Vec::new(),
    };
    if args.trace {
        let traced = layers::traced_pass(workload, &fixture, args.seed, seconds);
        result.metrics = traced.metrics;
        result.extras = traced.extras;
        result.attempted = traced.attempted;
        result.ok = traced.ok;
        result.noisy = traced.noisy;
    } else {
        let (end_to_end, load) = match workload.shape() {
            None => (engine::measure(&fixture, seconds), None),
            Some(shape) => {
                let (e, load) = tcp::measure(&fixture, shape, args.seed, seconds);
                (e, Some(load))
            }
        };
        result.extras.push(
            Metric::new("host.yardstick_us", "us", end_to_end.yardstick_us)
                .with_note("fixed integer kernel at every block boundary".to_string()),
        );
        result.extras.push(Metric::new(
            "host.yardstick_spread",
            "ratio",
            end_to_end.yardstick_spread,
        ));
        result.extras.push(
            Metric::new("model.fixture_s", "s", fixture.fixture_s)
                .with_note("the benchmark's cost, not in setup_s".to_string()),
        );
        if let Some(load) = &load {
            result.extras.extend(layers::loadgen_metrics(load));
            if let Some(reason) = &load.aborted {
                eprintln!("snn-benchmark: generator stopped early: {reason}");
            }
        }
        result.metrics = end_to_end.metrics;
        result.attempted = end_to_end.attempted;
        result.ok = end_to_end.ok;
        result.noisy = end_to_end.noisy;
    }
    result.failed = result.attempted - result.ok;

    result.print();
    let file = out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        result.workload,
        result.seed,
        u8::from(result.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&file, result.to_json() + "\n"))
    {
        eprintln!("snn-benchmark: could not write {}: {e}", file.display());
    }
    println!("{}", result.contract_line());
    // Any miss fails the run: no workload here is one on which operations
    // are expected to fail.
    if !result.correct() {
        eprintln!(
            "snn-benchmark: {} of {} results failed verification",
            result.failed, result.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Where this run's threads may execute; set once, first thing in `run`.
pub static CPU_PLAN: std::sync::OnceLock<host::CpuPlan> = std::sync::OnceLock::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("manifest") => {
            let seconds = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
            print!("{}", report::manifest_json(seconds));
            ExitCode::SUCCESS
        }
        _ => match parse_run_args(&args) {
            Ok(run_args) => run(&run_args),
            Err(message) => {
                eprintln!("snn-benchmark: {message}");
                eprintln!(
                    "usage: snn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     snn-benchmark compare <a.json>... [--vs <b.json>...]\n       \
                     snn-benchmark manifest [run_seconds]"
                );
                ExitCode::from(2)
            }
        },
    }
}
