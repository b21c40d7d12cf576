//! Runtime-dispatched SIMD kernels for the bit-plane engine's word loops.
//!
//! The sparse execution engine spends its inner loops on two word-level
//! primitives: packing the occupancy mask of a row of levels, and the
//! widening multiply-accumulate of packed weight rows into the
//! output-channel lanes of an accumulator row (`acc += level * row`) —
//! weights of either stored width ([`WeightLane`]: `i8 | i16`) into lanes
//! of any of three ([`Accumulator`]: `i16 | i32 | i64`).  The
//! multiply-accumulate takes a *block* of up to [`BLOCK`] spikes that
//! reach the same accumulator lanes through different weight rows (spikes
//! at one pixel in different input channels, or consecutive input neurons
//! of a fully-connected layer): their products are added up in registers,
//! so the accumulator row is loaded and stored once per block, not once
//! per spike.  Around it sit the primitives of the byte activations
//! between layers ([`Level`]: `u8 | i64`): the spike mask of a pixel's
//! channel levels ([`spiking`]), the spike popcount of a map
//! ([`count_spikes`]) and the level epilogue that maps a layer's biased
//! sums to levels by threshold compares ([`drain_levels`]).  This module
//! provides those primitives once, with two implementations behind one
//! dispatch point:
//!
//! * **Scalar** — portable Rust, always compiled, the *oracle* every other
//!   path is property-pinned against ([`scalar`]).
//! * **AVX2** — 256-bit paths, selected when `is_x86_feature_detected!`
//!   reports support.
//!
//! Dispatch is resolved **once** per process ([`active_level`]) and cached;
//! the `SNN_SIMD` environment variable is the escape hatch (any of `0`,
//! `off`, `scalar` — and `sse2` or `1`, which named a 128-bit level that no
//! longer exists — forces the scalar oracle) so CI can prove the fallback
//! stays green and hosts can rule SIMD in or out when bisecting a
//! numerical question.
//!
//! **Exactness contract:** every kernel computes bit-identical results on
//! every level — the integer operations are exact (`u64` bit ops; wrapping
//! multiply-accumulate at any one width is associative and commutative,
//! so neither the kernel level nor how products are grouped into blocks
//! can change an accumulator or a derived statistic).  Accumulators of
//! different widths agree with *each other* only where no sum leaves the
//! narrower one; proving that is the caller's job
//! (`snn_model::packed::PackedWeights::{sums_fit_i32, i16_group}`), not
//! this module's.  `tests/simd_properties.rs` pins all levels against
//! [`scalar`] on arbitrary densities, widths crossing word boundaries,
//! every block size and all-silent rows.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
pub mod scalar;

/// Which kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops — the always-compiled oracle.
    Scalar,
    /// 256-bit AVX2 paths (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Human-readable name, as accepted by `SNN_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Detects the best level the host supports, before applying `SNN_SIMD`.
fn detect_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// Applies an `SNN_SIMD` value to the detected level: the variable can
/// only *lower* the level, never enable an unsupported path.
fn cap_level(detected: SimdLevel, value: Option<&str>) -> SimdLevel {
    match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        // `sse2`/`1` named the deleted 128-bit level: the next one down is
        // the scalar oracle.
        Some("0" | "off" | "scalar" | "sse2" | "1") => SimdLevel::Scalar,
        _ => detected,
    }
}

/// The kernel level every dispatching function in this module uses,
/// resolved once per process (feature detection + `SNN_SIMD`).
pub fn active_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| cap_level(detect_level(), std::env::var("SNN_SIMD").ok().as_deref()))
}

/// Packs one occupancy row: bit `x` of `out` is set iff
/// `levels[x] & mask != 0`.  `out` must hold `words_per_row(levels.len())`
/// words and is fully overwritten.
///
/// # Panics
///
/// Panics when `out` is shorter than the packed row needs.
pub fn pack_occupancy_row(levels: &[i64], mask: i64, out: &mut [u64]) {
    let needed = levels.len().div_ceil(64).max(1);
    assert!(out.len() >= needed, "occupancy row buffer too short");
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::pack_occupancy_row(levels, mask, out),
        _ => scalar::pack_occupancy_row(levels, mask, out),
    }
}

/// One weight row of a spike's scatter: add `level` times the `width`
/// weights at `weights[w_at..]` into the `width` lanes at `acc[acc_at..]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tap {
    /// First accumulator lane.
    pub acc_at: usize,
    /// First weight of the row.
    pub w_at: usize,
}

mod sealed {
    //! Seals [`super::WeightLane`] and [`super::Accumulator`], and ties each
    //! to what the vector kernel needs of it on hosts that have one.

    #[cfg(target_arch = "x86_64")]
    pub trait Lane: super::avx2::Widen {}
    #[cfg(not(target_arch = "x86_64"))]
    pub trait Lane {}

    #[cfg(target_arch = "x86_64")]
    pub trait Sum: super::avx2::Lanes {}
    #[cfg(not(target_arch = "x86_64"))]
    pub trait Sum {}

    #[cfg(target_arch = "x86_64")]
    pub trait Level: super::avx2::LevelLanes {}
    #[cfg(not(target_arch = "x86_64"))]
    pub trait Level {}
}

/// The element a packed weight row is stored in: `i8` where every code of
/// the layer fits it, `i16` otherwise (decided once, by
/// `snn_model::packed::PackedWeights`).  Sealed — the engine is generic
/// over exactly these two.
pub trait WeightLane: sealed::Lane + Copy + Into<i16> + Send + Sync {}

/// The element an accumulator row is made of: `i64`; `i32` where the
/// caller has shown that no sum of the layer can leave it; `i16` for the
/// partial sums of a group of contributions the caller has shown cannot
/// leave *that*.  Sealed — the engine is generic over exactly these three.
pub trait Accumulator: sealed::Sum + Copy + Default + Into<i64> + Send + Sync {
    /// A spike level as a multiplier of this width (the low bits: products
    /// are exact modulo the element's width either way).
    fn from_level(level: i64) -> Self;

    /// `self + weight * level`, wrapping at this width: one lane of the
    /// scalar oracle.
    fn wrapping_mul_add(self, weight: i16, level: Self) -> Self;

    /// `self + partial`, wrapping at this width, the partial sum widened
    /// (or, were it the wider of the two, truncated) to it first.
    fn wrapping_add_partial<S: Accumulator>(self, partial: S) -> Self;
}

impl sealed::Lane for i8 {}
impl sealed::Lane for i16 {}
impl WeightLane for i8 {}
impl WeightLane for i16 {}

macro_rules! accumulator {
    ($($element:ty),*) => {$(
        impl sealed::Sum for $element {}

        impl Accumulator for $element {
            fn from_level(level: i64) -> Self {
                level as $element
            }

            fn wrapping_mul_add(self, weight: i16, level: Self) -> Self {
                self.wrapping_add((weight as $element).wrapping_mul(level))
            }

            fn wrapping_add_partial<S: Accumulator>(self, partial: S) -> Self {
                self.wrapping_add(partial.into() as $element)
            }
        }
    )*};
}
accumulator!(i16, i32, i64);

/// The element an activation level is stored in between layers: `u8`
/// where the spike train is at most 8 steps long, so that every level
/// fits a byte, `i64` otherwise.  Sealed — the engine is generic over
/// exactly these two.
pub trait Level: sealed::Level + Copy + Default + Ord + Into<i64> + Send + Sync {
    /// The level `count`, as this element: the number of thresholds a sum
    /// reached, which the caller keeps within the element's range.
    fn from_count(count: usize) -> Self;

    /// The spikes of this level's train: the set bits of `self & mask`.
    fn spikes(self, mask: i64) -> u32;
}

impl sealed::Level for u8 {}
impl sealed::Level for i64 {}

impl Level for u8 {
    fn from_count(count: usize) -> Self {
        count as u8
    }

    #[inline]
    fn spikes(self, mask: i64) -> u32 {
        // The baseline x86-64 target has no popcount instruction.
        u32::from(BYTE_SPIKES[usize::from(self & mask as u8)])
    }
}

/// The set bits of every byte.
const BYTE_SPIKES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = (byte as u8).count_ones() as u8;
        byte += 1;
    }
    table
};

impl Level for i64 {
    fn from_count(count: usize) -> Self {
        count as i64
    }

    #[inline]
    fn spikes(self, mask: i64) -> u32 {
        (self & mask).count_ones()
    }
}

/// Bit `k` of the result is set iff `levels[k] & mask != 0`: which of up
/// to 64 levels (one pixel's channels, or a run of input neurons) spike in
/// at least one of the time steps `mask` keeps.  Runs of fewer than 16
/// levels take a plain loop inline; longer byte runs take one compare and
/// movemask per 32 bytes.
///
/// # Panics
///
/// Panics when `levels` holds more than 64 levels.
#[inline]
pub fn spiking<L: Level>(levels: &[L], mask: i64) -> u64 {
    assert!(
        levels.len() <= 64,
        "one spike mask covers at most 64 levels"
    );
    if levels.len() < 16 {
        return scalar::spiking(levels, mask);
    }
    spiking_at(active_level(), levels, mask)
}

/// [`spiking`] on an explicit kernel level, as [`axpy_taps_at`].
fn spiking_at<L: Level>(kernel: SimdLevel, levels: &[L], mask: i64) -> u64 {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            L::spiking(levels, mask).unwrap_or_else(|| scalar::spiking(levels, mask))
        }
        _ => scalar::spiking(levels, mask),
    }
}

/// The spikes of every level's train: `Σ popcount(level & mask)` — the
/// adder activity a unit that streams the levels' planes is charged.  Bytes
/// take a nibble-table popcount of 32 at a time on AVX2.
pub fn count_spikes<L: Level>(levels: &[L], mask: i64) -> u64 {
    count_spikes_at(active_level(), levels, mask)
}

/// [`count_spikes`] on an explicit kernel level, as [`axpy_taps_at`].
fn count_spikes_at<L: Level>(kernel: SimdLevel, levels: &[L], mask: i64) -> u64 {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            L::count_spikes(levels, mask).unwrap_or_else(|| scalar::count_spikes(levels, mask))
        }
        _ => scalar::count_spikes(levels, mask),
    }
}

/// The level epilogue of a layer: every sum in `acc`, a whole number of
/// rows of `lanes` sums, plus the bias of its lane, mapped to the number of
/// `thresholds` it reaches — `out[i] = #{k : acc[i] + bias[i % lanes] >=
/// thresholds[k]}`, the addition wrapping at the element `A` it compares
/// in.  With the thresholds of a requantisation (the least sums reaching
/// each level, ascending) that is the requantised level.  Bit-identical on
/// every kernel level: the AVX2 path decides a level's bits MSB-first, one
/// compare per bit, in `i32` for trains of up to four steps (at most 15
/// thresholds); longer trains and `i64` compares take the scalar search.
/// That the sums plus bias do not leave `A` is the caller's to prove.
///
/// # Panics
///
/// Panics when `lanes` is zero or does not divide `acc`, when `bias` does
/// not hold `lanes` values or `out` is not as long as `acc`.
pub fn drain_levels<A: Accumulator + Ord, L: Level>(
    acc: &[A],
    lanes: usize,
    bias: &[A],
    thresholds: &[A],
    out: &mut [L],
) {
    drain_levels_at(active_level(), acc, lanes, bias, thresholds, out);
}

/// [`drain_levels`] on an explicit kernel level, as [`axpy_taps_at`].
fn drain_levels_at<A: Accumulator + Ord, L: Level>(
    kernel: SimdLevel,
    acc: &[A],
    lanes: usize,
    bias: &[A],
    thresholds: &[A],
    out: &mut [L],
) {
    assert!(
        lanes > 0 && acc.len().is_multiple_of(lanes),
        "sums are rows of lanes"
    );
    assert_eq!(bias.len(), lanes, "one bias per lane");
    assert_eq!(out.len(), acc.len(), "one level per sum");
    debug_assert!(thresholds.windows(2).all(|t| t[0] <= t[1]), "ascending");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if L::drain(acc, lanes, bias, thresholds, out) => {}
        _ => scalar::drain_levels(acc, lanes, bias, thresholds, out),
    }
}

/// The most spikes one [`axpy_taps`] call adds up before it writes the
/// accumulator row back.  Four level splats leave the unrolled AVX2 loop
/// its working registers; a block of four reads each accumulator lane
/// once for four products instead of once for one.
pub const BLOCK: usize = 4;

/// For every tap, `acc[acc_at + i] += levels[m] * rows[m][w_at + i]` over
/// `i < width` and every member `m < N`, each weight widened to the
/// accumulator element and the arithmetic wrapping at its width — the one
/// multiply-accumulate of the convolution and linear engines.  A block of
/// `N` spikes (`1 <= N <=` [`BLOCK`]) that reach the same accumulator lanes
/// through different weight rows shares its taps and width: member `m`
/// reads its channel-last packed weights from `rows[m]`, and the `N`
/// products of a lane are summed in registers before one load-add-store of
/// the accumulator.  One call per block rather than per tap or spike: the
/// dispatch, and the call into the vector kernel, are paid once.
///
/// # Panics
///
/// Panics when a tap reaches outside `acc` or any of `rows`.
pub fn axpy_taps<const N: usize, W: WeightLane, A: Accumulator>(
    acc: &mut [A],
    rows: [&[W]; N],
    taps: &[Tap],
    width: usize,
    levels: [A; N],
) {
    axpy_taps_at(active_level(), acc, rows, taps, width, levels);
}

/// [`axpy_taps`] on an explicit kernel level (which must not exceed what
/// the host supports), so tests can pin every compiled path in one
/// process.
fn axpy_taps_at<const N: usize, W: WeightLane, A: Accumulator>(
    kernel: SimdLevel,
    acc: &mut [A],
    rows: [&[W]; N],
    taps: &[Tap],
    width: usize,
    levels: [A; N],
) {
    const { assert!(N >= 1 && N <= BLOCK, "a block holds 1 to BLOCK spikes") };
    match kernel {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::axpy_taps(acc, rows, taps, width, levels),
        _ => scalar::axpy_taps(acc, rows, taps, width, levels),
    }
}

/// `acc[i] += level * w[i]`: [`axpy_taps`] for a single row of a single
/// spike.  Into `i64` lanes the product is exact mod 2^64 for every
/// `level`, so spike trains of any length `T <= 63` accumulate
/// bit-identically on every level.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn axpy<W: WeightLane, A: Accumulator>(acc: &mut [A], w: &[W], level: A) {
    axpy_at(active_level(), acc, w, level);
}

/// [`axpy`] on an explicit kernel level, as [`axpy_taps_at`].
fn axpy_at<W: WeightLane, A: Accumulator>(kernel: SimdLevel, acc: &mut [A], w: &[W], level: A) {
    assert_eq!(acc.len(), w.len(), "axpy rows differ in length");
    axpy_taps_at(kernel, acc, [w], &[Tap::default()], acc.len(), [level]);
}

/// Ends a group of partial sums: `wide[i] += partial[i]`, each partial sum
/// widened first, and `partial[i] = 0` for the next group.  Not
/// dispatched: it runs once per group of input channels where
/// [`axpy_taps`] runs once per block of spikes, and the plain loop
/// vectorises.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn drain_partials<S: Accumulator, A: Accumulator>(wide: &mut [A], partial: &mut [S]) {
    assert_eq!(wide.len(), partial.len(), "rows differ in length");
    for (sum, part) in wide.iter_mut().zip(partial) {
        *sum = sum.wrapping_add_partial(std::mem::take(part));
    }
}

/// Hints that `data` is about to be read, one prefetch per cache line.
/// For rows the hardware prefetcher cannot anticipate (the linear engine
/// jumps between weight rows kilobytes apart, in spike order); a hint
/// only — it never faults and never changes a result.
pub fn prefetch<W: WeightLane>(data: &[W]) {
    #[cfg(target_arch = "x86_64")]
    for line in data.chunks(64 / std::mem::size_of::<W>()) {
        // SAFETY: the address is inside `data`, and a prefetch reads
        // nothing architecturally.  SSE is part of the x86_64 baseline.
        #[allow(unsafe_code)]
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                line.as_ptr().cast(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel level this host can run.
    fn runnable_levels() -> impl Iterator<Item = SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2]
            .into_iter()
            .filter(|&level| level <= detect_level())
    }

    #[test]
    fn active_level_is_cached_and_valid() {
        let level = active_level();
        assert_eq!(level, active_level());
        assert!(level <= detect_level());
    }

    #[test]
    fn pack_occupancy_row_matches_scalar() {
        let levels: Vec<i64> = (0..131).map(|v| ((v * 37) % 9) as i64 - 2).collect();
        for mask in [0i64, 1, 7, i64::MAX] {
            let mut fast = vec![0u64; 3];
            let mut slow = vec![u64::MAX; 3];
            pack_occupancy_row(&levels, mask, &mut fast);
            scalar::pack_occupancy_row(&levels, mask, &mut slow);
            assert_eq!(fast, slow, "mask={mask}");
        }
    }

    #[test]
    fn snn_simd_can_only_lower_the_level() {
        for detected in [SimdLevel::Scalar, SimdLevel::Avx2] {
            for off in ["0", "off", "scalar", " Scalar ", "sse2", "SSE2", "1"] {
                assert_eq!(cap_level(detected, Some(off)), SimdLevel::Scalar, "{off}");
            }
            for keep in [None, Some("avx2"), Some("avx512"), Some("")] {
                assert_eq!(cap_level(detected, keep), detected, "{keep:?}");
            }
        }
    }

    /// Weights at both `i16` edges and in between.
    fn weight_row(len: usize) -> Vec<i16> {
        (0..len)
            .map(|i| match i % 5 {
                0 => i16::MAX,
                1 => i16::MIN,
                _ => (i as i16).wrapping_mul(2741) >> 3,
            })
            .collect()
    }

    /// The same pattern in the 8-bit element (both `i8` edges).
    fn byte_row(len: usize) -> Vec<i8> {
        weight_row(len).iter().map(|&w| (w >> 8) as i8).collect()
    }

    /// One (weight lane × accumulator) instantiation on `kernel` against
    /// the scalar oracle: every length across the unrolled, one-vector and
    /// half-vector steps and the scalar tail, at each of `levels`.
    fn check_axpy<W: WeightLane, A: Accumulator + PartialEq + std::fmt::Debug>(
        kernel: SimdLevel,
        row: fn(usize) -> Vec<W>,
        levels: &[i64],
    ) {
        for len in 0..=67usize {
            let w = row(len);
            for &c in levels {
                let level = A::from_level(c);
                let mut fast: Vec<A> = (0..len).map(|v| A::from_level(v as i64 * 3 - 50)).collect();
                let mut slow = fast.clone();
                axpy_at(kernel, &mut fast, &w, level);
                scalar::axpy(&mut slow, &w, level);
                assert_eq!(fast, slow, "kernel={kernel:?} len={len} c={c}");
            }
        }
    }

    #[test]
    fn axpy_matches_scalar() {
        // `i64` lanes: levels on both sides of the `vpmuldq` fast path
        // (2^31 - 1 | 2^31) up to 2^62, where the products wrap.
        let wide = [0i64, 1, (1 << 31) - 1, 1 << 31, 1 << 62, -3];
        // `i32` lanes: levels on both sides of the `vpmaddwd` fast path
        // (2^15 - 1 | 2^15) up to 2^31 - 1, where they wrap.
        let narrow = [
            0i64,
            1,
            15,
            (1 << 15) - 1,
            1 << 15,
            (1 << 16) + 1,
            i64::from(i32::MAX),
            -3,
        ];
        // `i16` lanes: one multiply at every level, up to where it wraps.
        let partial = [0i64, 1, 15, 255, 256, i64::from(i16::MAX), -3];
        for kernel in runnable_levels() {
            check_axpy::<i16, i64>(kernel, weight_row, &wide);
            check_axpy::<i8, i64>(kernel, byte_row, &wide);
            check_axpy::<i16, i32>(kernel, weight_row, &narrow);
            check_axpy::<i8, i32>(kernel, byte_row, &narrow);
            check_axpy::<i16, i16>(kernel, weight_row, &partial);
            check_axpy::<i8, i16>(kernel, byte_row, &partial);
        }
    }

    /// One block size of one (weight lane × accumulator) instantiation on
    /// `kernel` against the scalar oracle: every width across the
    /// unrolled, one-vector and half-vector steps and the scalar tail, taps
    /// that overlap in the accumulator and repeat a weight offset, members
    /// that share a row, and `levels` assigned to the members in turn.
    fn check_block<const N: usize, W: WeightLane, A: Accumulator + PartialEq + std::fmt::Debug>(
        kernel: SimdLevel,
        row: fn(usize) -> Vec<W>,
        levels: &[i64],
    ) {
        let weights = row(200);
        let offsets = [0usize, 37, 37, 101];
        for width in 0..=67usize {
            let taps = [
                Tap { acc_at: 0, w_at: 0 },
                Tap {
                    acc_at: 3,
                    w_at: 30,
                },
                Tap { acc_at: 0, w_at: 0 },
                Tap {
                    acc_at: 40,
                    w_at: 9,
                },
            ];
            let rows: [&[W]; N] = std::array::from_fn(|m| &weights[offsets[m]..][..99]);
            for (turn, _) in levels.iter().enumerate() {
                let block: [A; N] =
                    std::array::from_fn(|m| A::from_level(levels[(turn + m) % levels.len()]));
                let mut fast: Vec<A> = (0..110).map(|v| A::from_level(v * 3 - 50)).collect();
                let mut slow = fast.clone();
                axpy_taps_at(kernel, &mut fast, rows, &taps, width, block);
                scalar::axpy_taps(&mut slow, rows, &taps, width, block);
                assert_eq!(
                    fast, slow,
                    "kernel={kernel:?} N={N} width={width} turn={turn}"
                );
            }
        }
    }

    /// Every block size of one instantiation.
    fn check_blocks<W: WeightLane, A: Accumulator + PartialEq + std::fmt::Debug>(
        kernel: SimdLevel,
        row: fn(usize) -> Vec<W>,
        levels: &[i64],
    ) {
        check_block::<1, W, A>(kernel, row, levels);
        check_block::<2, W, A>(kernel, row, levels);
        check_block::<3, W, A>(kernel, row, levels);
        check_block::<4, W, A>(kernel, row, levels);
    }

    #[test]
    fn axpy_taps_blocks_match_scalar() {
        // Levels at the one-µop edges of each width, mixed within a block
        // so that one member off the fast path moves the whole block off.
        let wide = [1i64 << 31, 0, (1 << 31) - 1, 1 << 62, -3, 1];
        let narrow = [1i64 << 15, 0, (1 << 15) - 1, i64::from(i32::MAX), -3, 15];
        let partial = [0i64, 1, 255, i64::from(i16::MAX), -3, 256];
        for kernel in runnable_levels() {
            check_blocks::<i16, i64>(kernel, weight_row, &wide);
            check_blocks::<i8, i64>(kernel, byte_row, &wide);
            check_blocks::<i16, i32>(kernel, weight_row, &narrow);
            check_blocks::<i8, i32>(kernel, byte_row, &narrow);
            check_blocks::<i16, i16>(kernel, weight_row, &partial);
            check_blocks::<i8, i16>(kernel, byte_row, &partial);
        }
    }

    #[test]
    fn axpy_taps_is_one_axpy_per_tap() {
        // The oracle itself: taps that overlap in the accumulator, repeat
        // a weight row and end flush with both slices, against plain
        // per-lane arithmetic in `i64`.
        let weights = weight_row(93);
        let bytes = byte_row(93);
        let all = [(0usize, 7usize), (11, 0), (0, 7), (23, 53), (5, 30)];
        for width in [0usize, 1, 8, 37] {
            for count in [0, 1, all.len()] {
                let taps: Vec<Tap> = all[..count]
                    .iter()
                    .map(|&(acc_at, w_at)| Tap { acc_at, w_at })
                    .collect();
                let rows = [&weights[..90], &weights[3..], &weights[..90]];
                let byte_rows = [&bytes[..90], &bytes[3..], &bytes[..90]];
                let levels = [9, -2, 5];
                let mut narrow = vec![5i32; 60];
                scalar::axpy_taps(&mut narrow, rows, &taps, width, levels);
                // 8-bit weights into 16-bit lanes: nothing here leaves
                // `i16` (5 taps x 16 x 128 at most).
                let mut partial = vec![5i16; 60];
                scalar::axpy_taps(
                    &mut partial,
                    byte_rows,
                    &taps,
                    width,
                    levels.map(|l| l as i16),
                );
                let mut expected = vec![5i64; 60];
                let mut byte_sums = vec![5i64; 60];
                for tap in &taps {
                    for m in 0..3 {
                        for i in 0..width {
                            let level = i64::from(levels[m]);
                            expected[tap.acc_at + i] += level * i64::from(rows[m][tap.w_at + i]);
                            byte_sums[tap.acc_at + i] +=
                                level * i64::from(byte_rows[m][tap.w_at + i]);
                        }
                    }
                }
                // Nothing here leaves `i32`, so the widths agree.
                assert!(narrow
                    .iter()
                    .zip(&expected)
                    .all(|(&a, &b)| i64::from(a) == b));
                assert!(
                    partial
                        .iter()
                        .zip(&byte_sums)
                        .all(|(&a, &b)| i64::from(a) == b),
                    "width={width} taps={count}"
                );
            }
        }
    }

    #[test]
    fn drain_partials_widens_adds_and_clears() {
        for len in [0usize, 1, 7, 40] {
            let mut partial: Vec<i16> = (0..len)
                .map(|i| match i % 4 {
                    0 => i16::MAX,
                    1 => i16::MIN,
                    _ => i as i16 - 9,
                })
                .collect();
            let before = partial.clone();
            let mut wide: Vec<i32> = (0..len).map(|i| i as i32 * 100_000 - 7).collect();
            let expected: Vec<i32> = wide
                .iter()
                .zip(&before)
                .map(|(&w, &p)| w + i32::from(p))
                .collect();
            drain_partials(&mut wide, &mut partial);
            assert_eq!(wide, expected);
            assert!(partial.iter().all(|&p| p == 0));
        }
    }

    #[test]
    #[should_panic]
    fn a_tap_outside_the_accumulators_panics() {
        let tap = Tap { acc_at: 1, w_at: 0 };
        axpy_taps(&mut [0i32; 8], [&[1i16; 8][..]], &[tap], 8, [1]);
    }

    #[test]
    #[should_panic]
    fn a_tap_outside_any_members_weights_panics() {
        let tap = Tap { acc_at: 0, w_at: 1 };
        let (long, short) = ([1i8; 9], [1i8; 8]);
        axpy_taps(&mut [0i16; 8], [&long[..], &short[..]], &[tap], 8, [1, 1]);
    }

    /// A small xorshift stream: the suites here need no seeded crate.
    fn stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Levels of both elements, about a third of them silent under every
    /// mask, against the scalar oracle at every length a pixel's slice or
    /// a run of input neurons can have, on every runnable level — and the
    /// oracle against the definition, bit by bit.
    #[test]
    fn spiking_matches_scalar() {
        let mut next = stream(0x5eed);
        let bytes: Vec<u8> = (0..64)
            .map(|_| match next() % 3 {
                0 => 0,
                _ => next() as u8,
            })
            .collect();
        let wide: Vec<i64> = bytes
            .iter()
            .map(|&b| i64::from(b) << (next() % 3) | -i64::from(b == 7))
            .collect();
        for kernel in runnable_levels() {
            for len in 0..=64 {
                for mask in [0i64, 1, 8, 15, 255, -1] {
                    let expected = |k: usize, level: i64| u64::from(level & mask != 0) << k;
                    let want: u64 = (0..len).map(|k| expected(k, bytes[k].into())).sum();
                    assert_eq!(scalar::spiking(&bytes[..len], mask), want);
                    let case = format!("kernel={kernel:?} len={len} mask={mask}");
                    assert_eq!(spiking_at(kernel, &bytes[..len], mask), want, "{case}");
                    let want: u64 = (0..len).map(|k| expected(k, wide[k])).sum();
                    assert_eq!(spiking_at(kernel, &wide[..len], mask), want, "{case}");
                }
            }
        }
    }

    #[test]
    fn count_spikes_matches_scalar() {
        let mut next = stream(0xc0de);
        let bytes: Vec<u8> = (0..300).map(|_| next() as u8).collect();
        let wide: Vec<i64> = (0..300).map(|_| next() as i64).collect();
        for kernel in runnable_levels() {
            for len in [0usize, 1, 31, 32, 33, 64, 255, 300] {
                for mask in [0i64, 1, 15, 255, -1] {
                    let want: u64 = bytes[..len]
                        .iter()
                        .map(|&b| u64::from((i64::from(b) & mask).count_ones()))
                        .sum();
                    assert_eq!(scalar::count_spikes(&bytes[..len], mask), want);
                    assert_eq!(
                        count_spikes_at(kernel, &bytes[..len], mask),
                        want,
                        "len={len}"
                    );
                    let want: u64 = wide[..len]
                        .iter()
                        .map(|&v| u64::from((v & mask).count_ones()))
                        .sum();
                    assert_eq!(
                        count_spikes_at(kernel, &wide[..len], mask),
                        want,
                        "len={len}"
                    );
                }
            }
        }
    }

    /// One drain instantiation on `kernel` against the scalar oracle: rows
    /// of several widths (lane tails included), thresholds from none to
    /// 255 — with repeats and the element's extremes — and sums that land
    /// one below, on and one above every threshold once the bias is added,
    /// besides random ones.
    fn check_drain<A, L>(kernel: SimdLevel, seed: u64, to_a: fn(i64) -> A)
    where
        A: Accumulator + Ord + std::fmt::Debug,
        L: Level + std::fmt::Debug,
    {
        let mut next = stream(seed);
        for count in (0..=15).chain([31, 255]) {
            let mut thresholds: Vec<A> = (0..count)
                .map(|_| match next() % 8 {
                    0 => to_a(i64::MIN),
                    1 => to_a(i64::MAX),
                    _ => to_a((next() % 4001) as i64 - 1000),
                })
                .collect();
            thresholds.sort();
            if count > 2 {
                thresholds[count / 2] = thresholds[count / 2 - 1];
            }
            for lanes in [1usize, 4, 8, 12, 16, 20, 64, 84] {
                let bias: Vec<A> = (0..lanes)
                    .map(|_| to_a((next() % 201) as i64 - 100))
                    .collect();
                let mut acc = Vec::new();
                for (i, t) in thresholds.iter().enumerate() {
                    for d in [-1i64, 0, 1] {
                        let lane = (i * 3 + (d + 1) as usize) % lanes;
                        let x: i64 = (*t).into();
                        acc.push((lane, x.wrapping_sub(bias[lane].into()).wrapping_add(d)));
                    }
                }
                let rows = acc.len().div_ceil(lanes) + 2;
                let mut sums: Vec<A> = (0..rows * lanes)
                    .map(|_| to_a((next() % 4001) as i64 - 2000))
                    .collect();
                for (j, &(lane, x)) in acc.iter().enumerate() {
                    sums[j / lanes * lanes + lane] = to_a(x);
                }
                let mut fast = vec![L::default(); sums.len()];
                let mut slow = vec![L::from_count(1); sums.len()];
                drain_levels_at(kernel, &sums, lanes, &bias, &thresholds, &mut fast);
                scalar::drain_levels(&sums, lanes, &bias, &thresholds, &mut slow);
                assert_eq!(
                    fast, slow,
                    "kernel={kernel:?} thresholds={count} lanes={lanes}"
                );
            }
        }
    }

    #[test]
    fn drain_levels_matches_scalar() {
        for kernel in runnable_levels() {
            check_drain::<i32, u8>(kernel, 1, |v| {
                v.clamp(i32::MIN.into(), i32::MAX.into()) as i32
            });
            check_drain::<i32, i64>(kernel, 2, |v| {
                v.clamp(i32::MIN.into(), i32::MAX.into()) as i32
            });
            check_drain::<i64, u8>(kernel, 3, |v| v);
            check_drain::<i64, i64>(kernel, 4, |v| v);
        }
    }

    #[test]
    fn the_drain_oracle_counts_the_thresholds_reached() {
        // Lanes 0 and 1 with biases 10 and -10; thresholds 1, 5, 5, 9.
        let thresholds = [1i32, 5, 5, 9];
        let sums = [-10i32, 10, -9, 11, -6, 15, -5, 19, 100, -100];
        let mut levels = [0u8; 10];
        scalar::drain_levels(&sums, 2, &[10, -10], &thresholds, &mut levels);
        assert_eq!(levels, [0, 0, 1, 1, 1, 3, 3, 4, 4, 0]);
    }
}
