//! Shared bookkeeping for the processing-unit simulators: the counters
//! they report, the working memory they compute in, where their weights
//! come from, the layout of the activations they pass on, and the level
//! epilogue that ends a conv or linear layer.  Both engines run a call
//! start to finish on the calling thread, so one [`EngineScratch`] per
//! inference is all the state there is.
//!
//! Between layers the executor holds each activation map channel-last,
//! `[H, W, C]` (`Map`), in the narrowest element its spike trains allow
//! ([`simd::Level`]: `u8` up to 8 steps, else `i64`) — the layout the
//! engines' accumulator rows already have, so a layer's drain writes the
//! next layer's input in the order it is read, and the next conv reads a
//! pixel's channels side by side.  The frozen `[C, H, W]` `Tensor<i64>` entries of
//! the units convert at their boundary (`channel_last`,
//! `channel_first`).

use crate::conv::{Reach, Spikes};
use crate::{AccelError, Result};
use serde::{Deserialize, Serialize};
use snn_model::packed::PackedWeights;
use snn_model::snn::requantize;
use snn_tensor::{simd, Tensor};
use std::borrow::Cow;
use std::ops::{Add, AddAssign, Div};

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

/// The error a unit reports for a layer it cannot execute.  Units do not
/// know their layer's index: `exec::execute` stamps it onto the error.
pub(crate) fn unsupported(context: String) -> AccelError {
    AccelError::UnsupportedLayer { layer: 0, context }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for snn_tensor::Tensor<i64> {}
    impl Sealed for snn_model::packed::PackedWeights {}
}

/// How a raw `Tensor<i64>` of codes is packed: `PackedWeights::from_conv`
/// or `PackedWeights::from_linear`.
pub type Pack = fn(&Tensor<i64>) -> snn_model::Result<PackedWeights>;

/// The weights a `run_layer*` entry of the convolution or linear unit
/// takes: a layer's [`PackedWeights`] (`SnnLayer::*::weight_codes`),
/// executed as they are, or a raw `[O, C, Kr, Kc]` / `[O, N]` `Tensor<i64>`
/// of codes, packed for that one call.  Sealed: these two are the only
/// sources.
pub trait KernelSource: sealed::Sealed {
    /// These weights packed: borrowed as they are, or a raw tensor packed
    /// by `pack`.
    ///
    /// # Errors
    ///
    /// [`AccelError::UnsupportedLayer`] when `pack` rejects a raw tensor (a
    /// wrong rank, or a code that does not fit `i16`).
    fn packed(&self, pack: Pack) -> Result<Cow<'_, PackedWeights>>;
}

impl KernelSource for PackedWeights {
    fn packed(&self, _: Pack) -> Result<Cow<'_, PackedWeights>> {
        Ok(Cow::Borrowed(self))
    }
}

impl KernelSource for Tensor<i64> {
    fn packed(&self, pack: Pack) -> Result<Cow<'_, PackedWeights>> {
        pack(self)
            .map(Cow::Owned)
            .map_err(|e| unsupported(e.to_string()))
    }
}

/// The working memory of the convolution and linear engines: spike list,
/// reach tables, accumulator rows and the level epilogue's staged biases
/// and thresholds.  The executor keeps one per inference and hands it to
/// every unit call, so layers after the first allocate none of it again;
/// it carries no state from one call to the next, only capacity.
#[derive(Debug, Default)]
pub struct EngineScratch {
    pub(crate) spikes: Spikes,
    pub(crate) y_reach: Vec<Reach>,
    pub(crate) x_reach: Vec<Reach>,
    pub(crate) rows: LaneRows,
    pub(crate) drain: DrainRows,
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
pub(crate) trait Lane: simd::Accumulator + Ord {
    fn row(rows: &mut LaneRows) -> &mut Vec<Self>;

    /// `value` clamped into this element.
    fn saturate(value: i64) -> Self;
}

macro_rules! lane {
    ($($element:ty => $row:ident),*) => {$(
        impl Lane for $element {
            fn row(rows: &mut LaneRows) -> &mut Vec<$element> {
                &mut rows.$row
            }

            fn saturate(value: i64) -> Self {
                value.clamp(<$element>::MIN.into(), <$element>::MAX.into()) as $element
            }
        }
    )*};
}
lane!(i16 => partial, i32 => narrow, i64 => wide);

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

/// An activation map as the units pass it between layers: `h × w` pixels
/// of `c` levels each, channel-last (`[H, W, C]`).  A fully-connected
/// layer's `[N]` vector is the map of one pixel with `N` channels.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Map<'a, L> {
    pub(crate) levels: &'a [L],
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) c: usize,
}

impl<'a, L> Map<'a, L> {
    /// The `c` levels of pixel `(y, x)`.
    pub(crate) fn pixel(&self, y: usize, x: usize) -> &'a [L] {
        &self.levels[(y * self.w + x) * self.c..][..self.c]
    }
}

/// What the executor and the pooling unit need of a level element beyond
/// [`simd::Level`]: a sum no pooling window can overflow, and the
/// conversion of a raw value passed on between layers.
pub(crate) trait Activation: simd::Level {
    /// The element a window's sum is formed in.
    type Sum: Copy + Default + Add<Output = Self::Sum> + Div<Output = Self::Sum>;

    /// This level as a sum.
    fn widen(self) -> Self::Sum;

    /// A window's average back as a level.
    fn narrow(sum: Self::Sum) -> Self;

    /// The divisor of a `window × window` sum.
    fn area(window: usize) -> Self::Sum;

    /// An encoded input level, or a raw sum passed on as a level, in this
    /// element: exact for `i64`; bytes hold only levels of trains of at
    /// most 8 steps, which the executor's choice of element guarantees.
    fn from_raw(value: i64) -> Self;
}

/// Bytes sum in `u32`: any window a map holds fits.
impl Activation for u8 {
    type Sum = u32;

    fn widen(self) -> u32 {
        u32::from(self)
    }

    fn narrow(sum: u32) -> u8 {
        sum as u8
    }

    fn area(window: usize) -> u32 {
        (window * window) as u32
    }

    fn from_raw(value: i64) -> u8 {
        debug_assert!((0..=255).contains(&value), "{value} is not a byte level");
        value as u8
    }
}

impl Activation for i64 {
    type Sum = i64;

    fn widen(self) -> i64 {
        self
    }

    fn narrow(sum: i64) -> i64 {
        sum
    }

    fn area(window: usize) -> i64 {
        (window * window) as i64
    }

    fn from_raw(value: i64) -> i64 {
        value
    }
}

/// `[C, H, W]` values (`chw`) rearranged channel-last into `out`, each
/// through `convert`.
pub(crate) fn channel_last<T: Copy, U: Copy + Default>(
    chw: &[T],
    c: usize,
    h: usize,
    w: usize,
    out: &mut Vec<U>,
    convert: impl Fn(T) -> U,
) {
    out.clear();
    out.resize(c * h * w, U::default());
    if h * w == 0 {
        return;
    }
    for (ch, plane) in chw.chunks_exact(h * w).enumerate() {
        for (pixel, &value) in plane.iter().enumerate() {
            out[pixel * c + ch] = convert(value);
        }
    }
}

/// Channel-last `[H, W, C]` values (`hwc`, `pixels` of `c`) rearranged
/// channel-first into `out`, each through `convert`.
pub(crate) fn channel_first<T: Copy, U: Copy + Default>(
    hwc: &[T],
    pixels: usize,
    c: usize,
    out: &mut Vec<U>,
    convert: impl Fn(T) -> U,
) {
    out.clear();
    out.resize(pixels * c, U::default());
    if pixels == 0 {
        return;
    }
    for (ch, plane) in out.chunks_exact_mut(pixels).enumerate() {
        for (pixel, value) in plane.iter_mut().enumerate() {
            *value = convert(hwc[pixel * c + ch]);
        }
    }
}

/// A `[C, H, W]` tensor's dimensions, or the unit's error for any other
/// rank.
pub(crate) fn map_dims(tensor: &Tensor<i64>, what: &str) -> Result<[usize; 3]> {
    match *tensor.shape().dims() {
        [c, h, w] => Ok([c, h, w]),
        _ => Err(unsupported(what.to_string())),
    }
}

/// How a requantising layer's levels follow from its biased sums.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Requant<'a> {
    /// The layer's thresholds (`SnnModel::thresholds`): a sum's level is
    /// how many of them it reaches.
    Thresholds(&'a [i64]),
    /// A train too long to hold thresholds for: the level is
    /// `requantize(sum, scale, max_level)` itself.
    Scale { scale: f32, max_level: i64 },
}

/// How a conv or linear layer ends.
#[derive(Debug)]
pub(crate) enum Epilogue<'a, L> {
    /// The next layer's input: `[positions, O]` levels, channel-last.
    Levels {
        requant: Requant<'a>,
        out: &'a mut Vec<L>,
    },
    /// The sums with the bias added, channel-first `[O, positions]` `i64`:
    /// the accumulators of the units' entries, and the logits.
    Raw(&'a mut Vec<i64>),
}

/// Where the level epilogue stages its biases and thresholds in the
/// element it compares in.
#[derive(Debug, Default)]
pub(crate) struct DrainRows {
    biases: LaneRows,
    thresholds: LaneRows,
}

/// How a conv or linear layer's rows end: its epilogue, the bias, and
/// where the drain stages what it compares against.
pub(crate) struct Ending<'a, L> {
    bias: &'a [i64],
    /// Whether every biased sum provably stays below `i32::MAX`
    /// ([`PackedWeights::biased_sums_fit_i32`]), so 32-bit sums may
    /// compare in `i32`.
    compare_i32: bool,
    epilogue: Epilogue<'a, L>,
    drain: &'a mut DrainRows,
}

impl<'a, L: simd::Level> Ending<'a, L> {
    /// The ending of a layer of `weights` under trains of `time_steps`.
    pub(crate) fn new(
        weights: &PackedWeights,
        time_steps: usize,
        bias: &'a [i64],
        epilogue: Epilogue<'a, L>,
        drain: &'a mut DrainRows,
    ) -> Self {
        let bias_abs_max = bias.iter().map(|b| b.unsigned_abs()).max().unwrap_or(0);
        Ending {
            bias,
            compare_i32: weights.biased_sums_fit_i32(time_steps, bias_abs_max),
            epilogue,
            drain,
        }
    }

    /// Ends the layer from its channel-last sums: `positions × lanes` of
    /// element `A`, one bias per output channel (the lanes beyond them
    /// padding).  Raw, the sums are widened, transposed to `[O,
    /// positions]` and biased.  As levels, every biased sum is mapped to
    /// its level — by the layer's thresholds, through the dispatched
    /// [`simd::drain_levels`] over all rows at once, in `i32` where
    /// `compare_i32` holds for 32-bit sums and in `i64` otherwise — and the
    /// padding lanes are then squeezed out in place.  `rows` lends the
    /// `i64` row that 32-bit sums are widened into when they may not
    /// compare in `i32`.
    pub(crate) fn finish<A: Lane>(self, sums: &[A], lanes: usize, rows: &mut LaneRows) {
        let Ending {
            bias,
            compare_i32,
            epilogue,
            drain,
        } = self;
        let c_out = bias.len();
        let positions = sums.len().checked_div(lanes).unwrap_or(0);
        let out = match epilogue {
            Epilogue::Raw(out) => {
                out.clear();
                out.resize(c_out * positions, 0);
                if positions > 0 {
                    for (oc, plane) in out.chunks_exact_mut(positions).enumerate() {
                        for (position, value) in plane.iter_mut().enumerate() {
                            *value = sums[position * lanes + oc].into().wrapping_add(bias[oc]);
                        }
                    }
                }
                return;
            }
            Epilogue::Levels {
                requant: Requant::Scale { scale, max_level },
                out,
            } => {
                out.clear();
                out.extend(sums.chunks_exact(lanes.max(1)).flat_map(|row| {
                    row.iter().zip(bias).map(|(&sum, &b)| {
                        let level = requantize(sum.into().wrapping_add(b), scale, max_level);
                        L::from_count(level as usize)
                    })
                }));
                return;
            }
            Epilogue::Levels {
                requant: Requant::Thresholds(thresholds),
                out,
            } => {
                out.clear();
                out.resize(sums.len(), L::default());
                if lanes == 0 {
                    return;
                }
                let width = std::mem::size_of::<A>();
                if width == 8 || (width == 4 && compare_i32) {
                    drain_in(sums, lanes, bias, thresholds, out, drain);
                } else {
                    let mut wide = rows.take::<i64>(sums.len());
                    for (wide, &sum) in wide.iter_mut().zip(sums) {
                        *wide = sum.into();
                    }
                    drain_in(&wide, lanes, bias, thresholds, out, drain);
                    rows.give(wide);
                }
                out
            }
        };
        if lanes != c_out {
            for position in 1..positions {
                for lane in 0..c_out {
                    out[position * c_out + lane] = out[position * lanes + lane];
                }
            }
            out.truncate(positions * c_out);
        }
    }
}

/// [`simd::drain_levels`] with the biases (padding lanes 0) and thresholds
/// staged in the element `C` the sums compare in — saturated, which the
/// caller's proof makes exact.
fn drain_in<C: Lane, L: simd::Level>(
    sums: &[C],
    lanes: usize,
    bias: &[i64],
    thresholds: &[i64],
    out: &mut [L],
    drain: &mut DrainRows,
) {
    let mut biases = drain.biases.take::<C>(lanes);
    for (staged, &b) in biases.iter_mut().zip(bias) {
        *staged = C::saturate(b);
    }
    let mut staged = drain.thresholds.take::<C>(thresholds.len());
    for (staged, &t) in staged.iter_mut().zip(thresholds) {
        *staged = C::saturate(t);
    }
    simd::drain_levels(sums, lanes, &biases, &staged, out);
    drain.biases.give(biases);
    drain.thresholds.give(staged);
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
    fn channel_last_and_channel_first_round_trip() {
        for (c, h, w) in [
            (1usize, 1usize, 1usize),
            (1, 4, 5),
            (6, 1, 1),
            (3, 2, 7),
            (16, 5, 5),
        ] {
            let chw: Vec<i64> = (0..c * h * w).map(|v| v as i64 * 7 - 40).collect();
            let mut hwc = Vec::new();
            channel_last(&chw, c, h, w, &mut hwc, |v| v);
            // Pixel `(y, x)` holds its channels side by side.
            let map = Map {
                levels: &hwc,
                h,
                w,
                c,
            };
            for (y, x) in (0..h).flat_map(|y| (0..w).map(move |x| (y, x))) {
                let pixel: Vec<i64> = (0..c).map(|ch| chw[(ch * h + y) * w + x]).collect();
                assert_eq!(map.pixel(y, x), pixel.as_slice());
            }
            let mut back = Vec::new();
            channel_first(&hwc, h * w, c, &mut back, |v| v);
            assert_eq!(back, chw, "{c}x{h}x{w}");
            // Through bytes too.
            let small: Vec<u8> = (0..c * h * w).map(|v| (v % 251) as u8).collect();
            let mut bytes = Vec::new();
            channel_last(&small, c, h, w, &mut bytes, |v| v);
            let mut back = Vec::new();
            channel_first(&bytes, h * w, c, &mut back, i64::from);
            assert!(back.iter().zip(&small).all(|(&b, &s)| b == i64::from(s)));
        }
    }

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
