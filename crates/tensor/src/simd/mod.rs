//! Runtime-dispatched SIMD kernels for the bit-plane engine's word loops.
//!
//! The sparse execution engine spends its inner loops on a handful of
//! word-level primitives: OR-reducing packed plane rows into the occupancy
//! mask, popcounting planes for the analytical `adder_ops`, and the widening
//! multiply-accumulate of one packed weight row into the output-channel
//! lanes of an accumulator row (`acc += level * row`), into `i64` or `i32`
//! lanes ([`Accumulator`]).  This module provides those primitives once,
//! with two implementations behind one dispatch point:
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
//! `i64` and wrapping `i32` multiply-accumulate are associative and
//! commutative), so the choice of path can never change an accumulator or
//! a derived statistic.  The two accumulator widths agree with *each other*
//! only where no sum leaves `i32`; proving that is the caller's job
//! (`snn_model::packed::PackedWeights::sums_fit_i32`), not this module's.
//! `tests/simd_properties.rs` pins all levels against [`scalar`] on
//! arbitrary densities, widths crossing word boundaries and all-silent
//! rows.

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
    /// The kernels behind [`super::Accumulator`].  Private because `kernel`
    /// must be a level this host can run, which only this module's dispatch
    /// (and its tests) can promise.
    pub trait Kernels: Sized {
        fn axpy_taps(
            kernel: super::SimdLevel,
            acc: &mut [Self],
            weights: &[i16],
            taps: &[super::Tap],
            width: usize,
            level: Self,
        );
    }
}

/// The element an accumulator row is made of: `i64`, or `i32` where the
/// caller has shown that no sum can leave it.  Sealed — the engine is
/// generic over exactly these two.
pub trait Accumulator: sealed::Kernels + Copy + Default + Into<i64> + Send + Sync {
    /// A spike level as a multiplier of this width (the low bits: products
    /// are exact modulo the element's width either way).
    fn from_level(level: i64) -> Self;
}

impl Accumulator for i64 {
    fn from_level(level: i64) -> Self {
        level
    }
}

impl Accumulator for i32 {
    fn from_level(level: i64) -> Self {
        level as i32
    }
}

impl sealed::Kernels for i64 {
    fn axpy_taps(
        kernel: SimdLevel,
        acc: &mut [i64],
        weights: &[i16],
        taps: &[Tap],
        width: usize,
        level: i64,
    ) {
        match kernel {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => avx2::axpy_taps_i64(acc, weights, taps, width, level),
            _ => {
                for tap in taps {
                    let acc = &mut acc[tap.acc_at..][..width];
                    scalar::axpy_i16(acc, &weights[tap.w_at..][..width], level);
                }
            }
        }
    }
}

impl sealed::Kernels for i32 {
    fn axpy_taps(
        kernel: SimdLevel,
        acc: &mut [i32],
        weights: &[i16],
        taps: &[Tap],
        width: usize,
        level: i32,
    ) {
        match kernel {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => avx2::axpy_taps_i32(acc, weights, taps, width, level),
            _ => {
                for tap in taps {
                    let acc = &mut acc[tap.acc_at..][..width];
                    scalar::axpy_i16_i32(acc, &weights[tap.w_at..][..width], level);
                }
            }
        }
    }
}

/// For every tap, `acc[acc_at + i] += level * weights[w_at + i]` over
/// `i < width`, each `i16` weight widened to the accumulator element and
/// the arithmetic wrapping at its width — the one multiply-accumulate of
/// the convolution and linear engines: a spike of weight `level` adds one
/// channel-last packed weight row per covering kernel tap into the
/// output-channel lanes of an accumulator row.  One call per spike rather
/// than per tap: the dispatch, and the call into the vector kernel, are
/// paid once.
///
/// # Panics
///
/// Panics when a tap reaches outside `acc` or `weights`.
pub fn axpy_taps<A: Accumulator>(
    acc: &mut [A],
    weights: &[i16],
    taps: &[Tap],
    width: usize,
    level: A,
) {
    A::axpy_taps(active_level(), acc, weights, taps, width, level);
}

/// `acc[i] += level * w[i]`: [`axpy_taps`] for a single row.  Into `i64`
/// lanes the product is exact mod 2^64 for every `level`, so spike trains
/// of any length `T <= 63` accumulate bit-identically on every level.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn axpy_i16<A: Accumulator>(acc: &mut [A], w: &[i16], level: A) {
    axpy_i16_at(active_level(), acc, w, level);
}

/// [`axpy_i16`] on an explicit kernel level (which must not exceed what
/// the host supports), so tests can pin every compiled path in one
/// process.
fn axpy_i16_at<A: Accumulator>(kernel: SimdLevel, acc: &mut [A], w: &[i16], level: A) {
    assert_eq!(acc.len(), w.len(), "axpy rows differ in length");
    A::axpy_taps(kernel, acc, w, &[Tap::default()], acc.len(), level);
}

/// Hints that `data` is about to be read, one prefetch per cache line.
/// For rows the hardware prefetcher cannot anticipate (the linear engine
/// jumps between weight rows kilobytes apart, in spike order); a hint
/// only — it never faults and never changes a result.
pub fn prefetch(data: &[i16]) {
    #[cfg(target_arch = "x86_64")]
    for line in data.chunks(32) {
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
    use super::sealed::Kernels;
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

    #[test]
    fn axpy_matches_scalar() {
        // Every compiled level the host supports, every length across the
        // unrolled and one-vector loops and the scalar tail of both widths.
        for kernel in runnable_levels() {
            for len in 0..=67usize {
                let w = weight_row(len);
                // `i64` lanes: levels on both sides of the `vpmuldq` fast
                // path (2^31 - 1 | 2^31) up to 2^62, where the products wrap.
                for c in [0i64, 1, (1 << 31) - 1, 1 << 31, 1 << 62, -3] {
                    let mut fast: Vec<i64> = (0..len).map(|v| v as i64 * 3 - 50).collect();
                    let mut slow = fast.clone();
                    axpy_i16_at(kernel, &mut fast, &w, c);
                    scalar::axpy_i16(&mut slow, &w, c);
                    assert_eq!(fast, slow, "kernel={kernel:?} len={len} c={c}");
                }
                // `i32` lanes: levels on both sides of the `vpmaddwd` fast
                // path (2^15 - 1 | 2^15) up to 2^31 - 1, where they wrap.
                for c in [
                    0i32,
                    1,
                    15,
                    (1 << 15) - 1,
                    1 << 15,
                    (1 << 16) + 1,
                    i32::MAX,
                    -3,
                ] {
                    let mut fast: Vec<i32> = (0..len).map(|v| v as i32 * 3 - 50).collect();
                    let mut slow = fast.clone();
                    axpy_i16_at(kernel, &mut fast, &w, c);
                    scalar::axpy_i16_i32(&mut slow, &w, c);
                    assert_eq!(fast, slow, "kernel={kernel:?} len={len} c={c}");
                }
            }
        }
    }

    #[test]
    fn axpy_taps_is_one_axpy_per_tap() {
        // Taps that overlap in the accumulator, repeat a weight row and end
        // flush with both slices; none, one and many of them.
        let weights = weight_row(90);
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
                    i32::axpy_taps(kernel, &mut fast, &weights, &taps, width, 9);
                    let mut wide = vec![5i64; 60];
                    i64::axpy_taps(kernel, &mut wide, &weights, &taps, width, 9);
                    for tap in &taps {
                        scalar::axpy_i16_i32(
                            &mut slow[tap.acc_at..][..width],
                            &weights[tap.w_at..][..width],
                            9,
                        );
                    }
                    assert_eq!(fast, slow, "kernel={kernel:?} width={width} taps={count}");
                    // Nothing here leaves `i32`, so the widths agree.
                    assert!(wide.iter().zip(&slow).all(|(&a, &b)| a == i64::from(b)));
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn a_tap_outside_the_accumulators_panics() {
        let tap = Tap { acc_at: 1, w_at: 0 };
        axpy_taps(&mut [0i32; 8], &[1i16; 8], &[tap], 8, 1);
    }
}
