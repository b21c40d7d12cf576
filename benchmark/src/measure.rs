//! Per-block samples of a measured span and their reduction to the ten
//! end-to-end metrics (shared by the engine and TCP workloads).

use crate::host::{self, Yardstick};
use crate::report::{Metric, END_TO_END};
use crate::stats::{self, summarise_blocks, Better, BlockSummary, Estimator};

/// Simulated quantities per inference (mean over one pass of the input
/// set): identical on every run of a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelCounts {
    pub cycles: f64,
    pub adder_ops: f64,
    pub energy_uj: f64,
}

/// One value per block for each host-time metric.  A block is a fixed
/// amount of work, so the values of one run are directly comparable.
#[derive(Debug, Default)]
pub struct BlockSamples {
    infer_per_s: Vec<f64>,
    latency_p50_ms: Vec<f64>,
    cpu_ms_per_infer: Vec<f64>,
    attempted: u64,
    ok: u64,
}

impl BlockSamples {
    pub fn with_capacity(blocks: usize) -> BlockSamples {
        BlockSamples {
            infer_per_s: Vec::with_capacity(blocks),
            latency_p50_ms: Vec::with_capacity(blocks),
            cpu_ms_per_infer: Vec::with_capacity(blocks),
            attempted: 0,
            ok: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.infer_per_s.len()
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn ok(&self) -> u64 {
        self.ok
    }

    /// Records one block of `attempted` inferences, `ok` of them verified,
    /// that took `wall_s` and `cpu_ms` of server CPU.  `latencies_ms` is
    /// the block's per-inference latencies (sorted in place: no allocation).
    pub fn push(
        &mut self,
        attempted: u64,
        ok: u64,
        wall_s: f64,
        cpu_ms: f64,
        latencies_ms: &mut [f64],
    ) {
        latencies_ms.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        self.infer_per_s.push(ok as f64 / wall_s);
        self.latency_p50_ms
            .push(stats::percentile(latencies_ms, 0.5));
        self.cpu_ms_per_infer.push(cpu_ms / attempted as f64);
        self.attempted += attempted;
        self.ok += ok;
    }

    /// Counts results that belong to no block (drained after the span).
    pub fn count_outside_blocks(&mut self, attempted: u64, ok: u64) {
        self.attempted += attempted;
        self.ok += ok;
    }
}

/// The ten end-to-end metrics of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub ok: u64,
    pub noisy: bool,
    pub yardstick_us: f64,
    pub yardstick_spread: f64,
}

fn block_note(s: &BlockSummary, quantile: &str) -> String {
    format!(
        "{quantile} of {} blocks; median {:.6}, worst {:.6}",
        s.blocks, s.median, s.worst
    )
}

impl EndToEnd {
    /// Reduces a span.  `infer_per_s_override` replaces the per-block
    /// throughput for the open-loop workload, whose throughput is
    /// completions over the whole span.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        samples: &BlockSamples,
        estimator: Estimator,
        setups_s: &[f64],
        allocs_per_infer: f64,
        counts: ModelCounts,
        attempted: u64,
        ok: u64,
        yardstick: &Yardstick,
        infer_per_s_override: Option<(f64, String)>,
    ) -> EndToEnd {
        let throughput = summarise_blocks(&samples.infer_per_s, Better::Higher, estimator);
        let latency = summarise_blocks(&samples.latency_p50_ms, Better::Lower, estimator);
        let cpu = summarise_blocks(&samples.cpu_ms_per_infer, Better::Lower, estimator);
        let (low, high) = (
            estimator.label(Better::Lower),
            estimator.label(Better::Higher),
        );
        let setups_sorted = stats::sorted(setups_s.to_vec());
        let setup_note = format!(
            "median of {} set-ups; fastest {:.6}; all: {}",
            setups_s.len(),
            setups_sorted.first().copied().unwrap_or(f64::NAN),
            setups_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let (infer_per_s, infer_note) = infer_per_s_override
            .unwrap_or_else(|| (throughput.value, block_note(&throughput, high)));
        let values = [
            (stats::percentile(&setups_sorted, 0.5), setup_note),
            (infer_per_s, infer_note),
            (latency.value, block_note(&latency, low)),
            (cpu.value, block_note(&cpu, low)),
            (host::peak_rss_mib(), "VmHWM".to_string()),
            (allocs_per_infer, "whole span".to_string()),
            (counts.cycles, "simulated".to_string()),
            (counts.adder_ops, "simulated".to_string()),
            (counts.energy_uj, "simulated".to_string()),
            (
                ok as f64 / attempted.max(1) as f64,
                format!("{ok} of {attempted}"),
            ),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(def, (value, note))| Metric::new(def.name, def.unit, value).with_note(note))
            .collect();
        EndToEnd {
            metrics,
            attempted,
            ok,
            noisy: yardstick.noisy(),
            yardstick_us: yardstick.median_us(),
            yardstick_spread: yardstick.spread(),
        }
    }
}
