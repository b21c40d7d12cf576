//! Runtime-dispatched SIMD kernels for the bit-plane engine's word loops.
//!
//! The sparse execution engine spends its inner loops on a handful of
//! word-level primitives: OR-reducing packed plane rows into the occupancy
//! mask, popcounting planes for the analytical `adder_ops`, expanding
//! occupancy bitmasks into spike indices, and the widening
//! multiply-accumulate of one packed weight row into the output-channel
//! lanes of an accumulator row (`acc += level * row`).  This module
//! provides those primitives once, with three implementations behind one
//! dispatch point:
//!
//! * **Scalar** — portable Rust, always compiled, the *oracle* every other
//!   path is property-pinned against ([`scalar`]).
//! * **SSE2** — 128-bit paths, present on every `x86_64` host.
//! * **AVX2** — 256-bit paths, selected when `is_x86_feature_detected!`
//!   reports support.
//!
//! Dispatch is resolved **once** per process ([`active_level`]) and cached;
//! the `SNN_SIMD` environment variable is the escape hatch (`SNN_SIMD=0`
//! or `SNN_SIMD=scalar` forces the scalar oracle, `SNN_SIMD=sse2` caps the
//! level below AVX2) so CI can prove the fallback stays green and hosts
//! can rule SIMD in or out when bisecting a numerical question.
//!
//! **Exactness contract:** every kernel computes bit-identical results on
//! every level — the integer operations are exact (`u64` bit ops, wrapping
//! `i64` multiply-accumulate is associative and commutative), so the
//! choice of path can never change an accumulator or a derived statistic.
//! `tests/simd_properties.rs` pins all levels against [`scalar`] on
//! arbitrary densities, widths crossing word boundaries and all-silent
//! rows.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod sse2;

pub mod scalar;

/// Which kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops — the always-compiled oracle.
    Scalar,
    /// 128-bit SSE2 paths (baseline on every `x86_64`).
    Sse2,
    /// 256-bit AVX2 paths (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Human-readable name, as accepted by `SNN_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Detects the best level the host supports, before applying `SNN_SIMD`.
fn detect_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline.
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdLevel::Scalar
}

/// Applies the `SNN_SIMD` escape hatch to the detected level: the variable
/// can only *lower* the level, never enable an unsupported path.
fn resolve_level() -> SimdLevel {
    let detected = detect_level();
    match std::env::var("SNN_SIMD") {
        Ok(value) => {
            let requested = match value.trim().to_ascii_lowercase().as_str() {
                "0" | "off" | "scalar" => SimdLevel::Scalar,
                "sse2" | "1" => SimdLevel::Sse2,
                _ => detected,
            };
            requested.min(detected)
        }
        Err(_) => detected,
    }
}

/// The kernel level every dispatching function in this module uses,
/// resolved once per process (feature detection + `SNN_SIMD`).
pub fn active_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(resolve_level)
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
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => sse2::or_accumulate(acc, src),
        _ => scalar::or_accumulate(acc, src),
    }
}

/// Total number of set bits across `words` — the plane popcount behind the
/// data-dependent `adder_ops` counters.
pub fn popcount(words: &[u64]) -> u64 {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::popcount(words),
        // SSE2 has no shuffle-based nibble popcount (that needs SSSE3);
        // the scalar loop compiles to hardware POPCNT wherever available.
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
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => sse2::pack_occupancy_row(levels, mask, out),
        _ => scalar::pack_occupancy_row(levels, mask, out),
    }
}

/// `acc[i] += level * w[i]` with each `i16` weight widened to `i64` and
/// wrapping `i64` arithmetic — the one multiply-accumulate of the
/// convolution and linear engines: a spike of weight `level` adds one
/// channel-last packed weight row into the output-channel lanes of an
/// accumulator row.  The product is exact mod 2^64 for every `level`, so
/// spike trains of any length `T <= 63` accumulate bit-identically on
/// every level.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn axpy_i16(acc: &mut [i64], w: &[i16], level: i64) {
    axpy_i16_at(active_level(), acc, w, level);
}

/// [`axpy_i16`] on an explicit kernel level (which must not exceed what
/// the host supports), so tests can pin every compiled path in one
/// process.
fn axpy_i16_at(kernel: SimdLevel, acc: &mut [i64], w: &[i16], level: i64) {
    assert_eq!(acc.len(), w.len(), "axpy rows differ in length");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::axpy_i16(acc, w, level),
        // Widening `i16` lanes needs SSE4.1 (`pmovsxwq`); the SSE2 level
        // runs the scalar loop.
        _ => scalar::axpy_i16(acc, w, level),
    }
}

/// Expands the set bits of a packed row into ascending positions
/// (`base + bit_index`), appended to `out` — the bitmask-expansion side of
/// the sparse gather.
pub fn collect_set_bits(words: &[u64], base: usize, out: &mut Vec<u32>) {
    // The per-bit `trailing_zeros`/`clear-lowest` walk — whose work is
    // proportional to the set bits, not the row width — measures ~4x
    // faster than the byte-table batched expansion on x86 at the ~25 %
    // densities converted networks produce (`simd_kernels/sparse_gather`
    // in the conv_unit bench).  The batched expansion stays in [`scalar`]
    // as the alternate implementation both are pinned against.
    scalar::collect_set_bits(words, base, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel level this host can run.
    fn runnable_levels() -> impl Iterator<Item = SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
            .into_iter()
            .filter(|&level| level <= detect_level())
    }

    fn words_from_bits(bits: &[usize], len: usize) -> Vec<u64> {
        let mut words = vec![0u64; len];
        for &b in bits {
            words[b / 64] |= 1u64 << (b % 64);
        }
        words
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
    fn axpy_matches_scalar() {
        // Every compiled level the host supports, every length across the
        // 16- and 4-lane loops and the scalar tail, and levels on both
        // sides of the 32-bit fast path (2^31 - 1 | 2^31) up to 2^62,
        // where the products wrap.
        for kernel in runnable_levels() {
            for len in 0..=67usize {
                let w: Vec<i16> = (0..len)
                    .map(|i| match i % 5 {
                        0 => i16::MAX,
                        1 => i16::MIN,
                        _ => (i as i16).wrapping_mul(2741) >> 3,
                    })
                    .collect();
                for c in [0i64, 1, (1 << 31) - 1, 1 << 31, 1 << 62, -3] {
                    let mut fast: Vec<i64> = (0..len).map(|v| v as i64 * 3 - 50).collect();
                    let mut slow = fast.clone();
                    axpy_i16_at(kernel, &mut fast, &w, c);
                    scalar::axpy_i16(&mut slow, &w, c);
                    assert_eq!(fast, slow, "kernel={kernel:?} len={len} c={c}");
                }
            }
        }
    }

    #[test]
    fn collect_set_bits_matches_plain_walk() {
        let words = words_from_bits(&[0, 3, 63, 64, 67, 130, 191], 3);
        let mut batched = vec![99u32]; // pre-existing content is kept
        collect_set_bits(&words, 10, &mut batched);
        let mut plain = vec![99u32];
        scalar::collect_set_bits(&words, 10, &mut plain);
        assert_eq!(batched, plain);
        assert_eq!(batched[1..].to_vec(), vec![10, 13, 73, 74, 77, 140, 201]);
    }
}
