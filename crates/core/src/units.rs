//! Shared bookkeeping for the processing-unit simulators: the counters
//! they report and the working memory they compute in.  Both engines run
//! a call start to finish on the calling thread, so one [`EngineScratch`]
//! per inference is all the state there is.

use crate::conv::{Reach, Spikes};
use crate::AccelError;
use serde::{Deserialize, Serialize};
use snn_tensor::{bitplane, simd};
use std::ops::{Add, AddAssign};

/// Cycle and operation counters reported by a processing unit after
/// executing (part of) a layer.
///
/// The counters are **analytical**: the accelerator's schedule is static,
/// so the units derive `cycles` and the memory-access counts in closed
/// form from the loop bounds, and the data-dependent `adder_ops` from
/// packed-plane popcounts — nothing is stepped inside a compute loop.
/// Property tests assert the derived values are bit-identical to the
/// counter-stepped reference models in [`crate::reference`].
///
/// The counters drive the latency, energy and memory-traffic figures of the
/// run reports:
///
/// * `cycles` — clock cycles consumed by the unit.
/// * `adder_ops` — number of adder activations (an adder only toggles when
///   an input spike gates it on, which is what makes sparse spike trains
///   cheap).
/// * `activation_reads` / `kernel_reads` / `output_writes` — memory accesses
///   to the activation buffers and the weight memory, the quantity the
///   paper's dataflow is designed to minimise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitStats {
    /// Clock cycles consumed.
    pub cycles: u64,
    /// Number of adder activations (gated by spikes).
    pub adder_ops: u64,
    /// Activation-buffer read operations (one feature-map row each).
    pub activation_reads: u64,
    /// Weight-memory read operations (one kernel/weight word each).
    pub kernel_reads: u64,
    /// Activation-buffer write operations (one output value each).
    pub output_writes: u64,
    /// Partial sums reused through the product-sparsity prepass (one per
    /// reused `(row, kernel row, output channel)` event; zero with the
    /// prepass disabled).
    #[serde(default)]
    pub reused_partials: u64,
    /// Spike bits scattered as pattern *differences* by reused rows —
    /// the residual work the prepass could not share.
    #[serde(default)]
    pub difference_bits: u64,
}

/// The error a unit reports for a layer it cannot execute (units do not
/// know their layer's index; the executor's errors carry it).
pub(crate) fn unsupported(context: String) -> AccelError {
    AccelError::UnsupportedLayer { layer: 0, context }
}

/// The working memory of the convolution and linear engines: spike list,
/// occupancy words, reach tables and accumulator rows.  The executor keeps
/// one per inference and hands it to every `run_packed*` call, so bands
/// and layers after the first allocate none of it again; it carries no
/// state from one call to the next, only capacity.
#[derive(Debug, Default)]
pub struct EngineScratch {
    pub(crate) occupancy: bitplane::Occupancy,
    pub(crate) spikes: Spikes,
    pub(crate) y_reach: Vec<Reach>,
    pub(crate) x_reach: Vec<Reach>,
    pub(crate) rows: LaneRows,
}

impl EngineScratch {
    /// An empty scratch: the first call through it sizes it.
    pub fn new() -> Self {
        EngineScratch::default()
    }
}

/// One reusable accumulator row per lane element.
#[derive(Debug, Default)]
pub(crate) struct LaneRows {
    partial: Vec<i16>,
    narrow: Vec<i32>,
    wide: Vec<i64>,
}

/// An accumulator element with its row in [`LaneRows`].
pub(crate) trait Lane: simd::Accumulator {
    fn row(rows: &mut LaneRows) -> &mut Vec<Self>;
}

impl Lane for i16 {
    fn row(rows: &mut LaneRows) -> &mut Vec<i16> {
        &mut rows.partial
    }
}

impl Lane for i32 {
    fn row(rows: &mut LaneRows) -> &mut Vec<i32> {
        &mut rows.narrow
    }
}

impl Lane for i64 {
    fn row(rows: &mut LaneRows) -> &mut Vec<i64> {
        &mut rows.wide
    }
}

impl LaneRows {
    /// Takes the row of element `E` out, zeroed and `len` long.  Taking an
    /// element a second time before [`LaneRows::give`] yields a fresh
    /// (for `len == 0`, unallocated) vector.
    pub(crate) fn take<E: Lane>(&mut self, len: usize) -> Vec<E> {
        let mut row = std::mem::take(E::row(self));
        row.clear();
        row.resize(len, E::default());
        row
    }

    /// Puts a row back for the next call to reuse its capacity.
    pub(crate) fn give<E: Lane>(&mut self, row: Vec<E>) {
        *E::row(self) = row;
    }
}

impl UnitStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        UnitStats::default()
    }

    /// Total number of memory accesses of any kind.
    pub fn total_memory_accesses(&self) -> u64 {
        self.activation_reads + self.kernel_reads + self.output_writes
    }
}

impl Add for UnitStats {
    type Output = UnitStats;

    fn add(self, rhs: UnitStats) -> UnitStats {
        UnitStats {
            cycles: self.cycles + rhs.cycles,
            adder_ops: self.adder_ops + rhs.adder_ops,
            activation_reads: self.activation_reads + rhs.activation_reads,
            kernel_reads: self.kernel_reads + rhs.kernel_reads,
            output_writes: self.output_writes + rhs.output_writes,
            reused_partials: self.reused_partials + rhs.reused_partials,
            difference_bits: self.difference_bits + rhs.difference_bits,
        }
    }
}

impl AddAssign for UnitStats {
    fn add_assign(&mut self, rhs: UnitStats) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let a = UnitStats {
            cycles: 10,
            adder_ops: 5,
            activation_reads: 2,
            kernel_reads: 3,
            output_writes: 1,
            reused_partials: 4,
            difference_bits: 6,
        };
        let b = UnitStats {
            cycles: 1,
            adder_ops: 1,
            activation_reads: 1,
            kernel_reads: 1,
            output_writes: 1,
            reused_partials: 1,
            difference_bits: 1,
        };
        let sum = a + b;
        assert_eq!(sum.cycles, 11);
        assert_eq!(sum.total_memory_accesses(), 3 + 4 + 2);
        assert_eq!(sum.reused_partials, 5);
        assert_eq!(sum.difference_bits, 7);
        let mut acc = UnitStats::new();
        acc += a;
        acc += b;
        assert_eq!(acc, sum);
    }
}
