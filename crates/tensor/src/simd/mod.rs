//! Runtime-dispatched SIMD kernels for the bit-plane engine's word loops.
//!
//! The sparse execution engine spends its inner loops on a handful of
//! word-level primitives: OR-reducing packed plane rows into the occupancy
//! mask, popcounting planes for the analytical `adder_ops`, and the widening
//! multiply-accumulate of one packed weight row into the output-channel
//! lanes of an accumulator row (`acc += level * row`) — weights of either
//! stored width ([`WeightLane`]: `i8 | i16`) into lanes of any of three
//! ([`Accumulator`]: `i16 | i32 | i64`).  This module provides those
//! primitives once, with two implementations behind one dispatch point:
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
//! multiply-accumulate at any one width is associative and commutative),
//! so the choice of path can never change an accumulator or a derived
//! statistic.  Accumulators of different widths agree with *each other*
//! only where no sum leaves the narrower one; proving that is the caller's
//! job (`snn_model::packed::PackedWeights::{sums_fit_i32, i16_group}`),
//! not this module's.  `tests/simd_properties.rs` pins all levels against
//! [`scalar`] on arbitrary densities, widths crossing word boundaries and
//! all-silent rows.

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

/// `acc[i] |= src[i]` over packed words — the occupancy OR-reduction of
/// one plane row into the accumulator row.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn or_accumulate(acc: &mut [u64], src: &[u64]) {
    assert_eq!(acc.len(), src.len(), "word rows differ in length");
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::or_accumulate(acc, src),
        _ => scalar::or_accumulate(acc, src),
    }
}

/// Total number of set bits across `words` — the plane popcount behind the
/// data-dependent `adder_ops` counters.
pub fn popcount(words: &[u64]) -> u64 {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::popcount(words),
        _ => scalar::popcount(words),
    }
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

/// For every tap, `acc[acc_at + i] += level * weights[w_at + i]` over
/// `i < width`, each weight widened to the accumulator element and the
/// arithmetic wrapping at its width — the one multiply-accumulate of the
/// convolution and linear engines: a spike of weight `level` adds one
/// channel-last packed weight row per covering kernel tap into the
/// output-channel lanes of an accumulator row.  One call per spike rather
/// than per tap: the dispatch, and the call into the vector kernel, are
/// paid once.
///
/// # Panics
///
/// Panics when a tap reaches outside `acc` or `weights`.
pub fn axpy_taps<W: WeightLane, A: Accumulator>(
    acc: &mut [A],
    weights: &[W],
    taps: &[Tap],
    width: usize,
    level: A,
) {
    axpy_taps_at(active_level(), acc, weights, taps, width, level);
}

/// [`axpy_taps`] on an explicit kernel level (which must not exceed what
/// the host supports), so tests can pin every compiled path in one
/// process.
fn axpy_taps_at<W: WeightLane, A: Accumulator>(
    kernel: SimdLevel,
    acc: &mut [A],
    weights: &[W],
    taps: &[Tap],
    width: usize,
    level: A,
) {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::axpy_taps(acc, weights, taps, width, level),
        _ => {
            for tap in taps {
                let acc = &mut acc[tap.acc_at..][..width];
                scalar::axpy(acc, &weights[tap.w_at..][..width], level);
            }
        }
    }
}

/// `acc[i] += level * w[i]`: [`axpy_taps`] for a single row.  Into `i64`
/// lanes the product is exact mod 2^64 for every `level`, so spike trains
/// of any length `T <= 63` accumulate bit-identically on every level.
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
    axpy_taps_at(kernel, acc, w, &[Tap::default()], acc.len(), level);
}

/// Ends a group of partial sums: `wide[i] += partial[i]`, each partial sum
/// widened first, and `partial[i] = 0` for the next group.  Not
/// dispatched: it runs once per group of input channels where
/// [`axpy_taps`] runs once per spike, and the plain loop vectorises.
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
    fn or_accumulate_matches_scalar() {
        let src: Vec<u64> = (0..9)
            .map(|i| (i as u64).wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let mut acc = vec![0xf0f0_f0f0u64; 9];
        let mut oracle = acc.clone();
        or_accumulate(&mut acc, &src);
        scalar::or_accumulate(&mut oracle, &src);
        assert_eq!(acc, oracle);
    }

    #[test]
    fn popcount_matches_scalar() {
        let words: Vec<u64> = (0..33)
            .map(|i| (i as u64).wrapping_mul(0xdeadbeefcafebabe) ^ (i as u64) << 7)
            .collect();
        assert_eq!(popcount(&words), scalar::popcount(&words));
        assert_eq!(popcount(&[]), 0);
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

    #[test]
    fn axpy_taps_is_one_axpy_per_tap() {
        // Taps that overlap in the accumulator, repeat a weight row and end
        // flush with both slices; none, one and many of them.
        let weights = weight_row(90);
        let bytes = byte_row(90);
        let all = [(0usize, 7usize), (11, 0), (0, 7), (23, 53), (5, 30)];
        for kernel in runnable_levels() {
            for width in [0usize, 1, 8, 37] {
                for count in [0, 1, all.len()] {
                    let taps: Vec<Tap> = all[..count]
                        .iter()
                        .map(|&(acc_at, w_at)| Tap { acc_at, w_at })
                        .collect();
                    let mut fast = vec![5i32; 60];
                    let mut slow = fast.clone();
                    axpy_taps_at(kernel, &mut fast, &weights, &taps, width, 9);
                    let mut wide = vec![5i64; 60];
                    axpy_taps_at(kernel, &mut wide, &weights, &taps, width, 9);
                    // 8-bit weights into 16-bit lanes: nothing here leaves
                    // `i16` (5 taps x 9 x 128 at most), so it agrees with
                    // the wide sum of the same bytes.
                    let mut partial = vec![5i16; 60];
                    axpy_taps_at(kernel, &mut partial, &bytes, &taps, width, 9);
                    let mut byte_sums = vec![5i64; 60];
                    for tap in &taps {
                        scalar::axpy(
                            &mut slow[tap.acc_at..][..width],
                            &weights[tap.w_at..][..width],
                            9,
                        );
                        scalar::axpy(
                            &mut byte_sums[tap.acc_at..][..width],
                            &bytes[tap.w_at..][..width],
                            9,
                        );
                    }
                    assert_eq!(fast, slow, "kernel={kernel:?} width={width} taps={count}");
                    // Nothing here leaves `i32`, so the widths agree.
                    assert!(wide.iter().zip(&slow).all(|(&a, &b)| a == i64::from(b)));
                    assert!(
                        partial
                            .iter()
                            .zip(&byte_sums)
                            .all(|(&a, &b)| i64::from(a) == b),
                        "kernel={kernel:?} width={width} taps={count}"
                    );
                }
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
        axpy_taps(&mut [0i32; 8], &[1i16; 8], &[tap], 8, 1);
    }
}
