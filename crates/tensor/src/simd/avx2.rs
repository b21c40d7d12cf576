//! 256-bit AVX2 kernel implementations.
//!
//! Every function here is dispatched to only after
//! `is_x86_feature_detected!("avx2")` succeeded (see
//! [`super::active_level`]), which is what makes the `unsafe` blocks
//! sound: the intrinsics are available on the running CPU, and every
//! pointer stays inside the bounds of the borrowed slices.
//!
//! The integer arithmetic is exact: bitwise ops and popcounts are
//! lane-width-independent, and the 64-bit multiply is composed from
//! `vpmuludq` 32×32→64 partial products (`lo·lo + ((hi·lo + lo·hi) << 32)`),
//! which is precisely the wrapping 64-bit product (or, for factors that
//! fit 32 signed bits, one `vpmuldq`); the 32-bit multiply is `vpmulld`,
//! the wrapping 32-bit product (or, for levels below 2^15, one `vpmaddwd`)
//! — so accumulators of either width are bit-identical to the scalar
//! oracle.

#![allow(unsafe_code)]

use super::{scalar, Tap};
use std::arch::x86_64::*;

/// `acc[i] |= src[i]`, 4 words per iteration.
pub fn or_accumulate(acc: &mut [u64], src: &[u64]) {
    // SAFETY: dispatch guarantees AVX2; all loads/stores are within the
    // equal-length slices.
    unsafe { or_accumulate_impl(acc, src) }
}

#[target_feature(enable = "avx2")]
unsafe fn or_accumulate_impl(acc: &mut [u64], src: &[u64]) {
    let chunks = acc.len() / 4;
    unsafe {
        for i in 0..chunks {
            let a = _mm256_loadu_si256(acc.as_ptr().add(i * 4).cast());
            let s = _mm256_loadu_si256(src.as_ptr().add(i * 4).cast());
            _mm256_storeu_si256(acc.as_mut_ptr().add(i * 4).cast(), _mm256_or_si256(a, s));
        }
    }
    scalar::or_accumulate(&mut acc[chunks * 4..], &src[chunks * 4..]);
}

/// Harley-Seal-free nibble-LUT popcount: `vpshufb` counts each nibble,
/// `vpsadbw` folds bytes into per-lane `u64` sums.
pub fn popcount(words: &[u64]) -> u64 {
    // SAFETY: dispatch guarantees AVX2; loads stay inside `words`.
    unsafe { popcount_impl(words) }
}

#[target_feature(enable = "avx2")]
unsafe fn popcount_impl(words: &[u64]) -> u64 {
    let chunks = words.len() / 4;
    let mut total;
    unsafe {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // lane 0
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // lane 1
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let zero = _mm256_setzero_si256();
        let mut acc = zero;
        for i in 0..chunks {
            let v = _mm256_loadu_si256(words.as_ptr().add(i * 4).cast());
            let lo = _mm256_and_si256(v, low_mask);
            let hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
            let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        total = lanes.iter().sum::<u64>();
    }
    total += scalar::popcount(&words[chunks * 4..]);
    total
}

/// Packs one occupancy row 4 levels at a time: mask, compare against
/// zero, and fold the 4-lane movemask into the packed word.
pub fn pack_occupancy_row(levels: &[i64], mask: i64, out: &mut [u64]) {
    // SAFETY: dispatch guarantees AVX2; loads stay inside `levels`, and
    // the caller-checked `out` length covers every packed word written.
    unsafe { pack_occupancy_row_impl(levels, mask, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn pack_occupancy_row_impl(levels: &[i64], mask: i64, out: &mut [u64]) {
    let needed = levels.len().div_ceil(64).max(1);
    for w in out.iter_mut().take(needed) {
        *w = 0;
    }
    let quads = levels.len() / 4;
    unsafe {
        let vmask = _mm256_set1_epi64x(mask);
        let zero = _mm256_setzero_si256();
        for q in 0..quads {
            let v = _mm256_loadu_si256(levels.as_ptr().add(q * 4).cast());
            let masked = _mm256_and_si256(v, vmask);
            // Lane is all-ones where the masked level equals zero; invert
            // the movemask to get "spikes somewhere" per lane.
            let is_zero = _mm256_cmpeq_epi64(masked, zero);
            let bits = (!_mm256_movemask_pd(_mm256_castsi256_pd(is_zero)) & 0xf) as u64;
            let base = q * 4;
            out[base / 64] |= bits << (base % 64);
        }
    }
    for (x, &level) in levels.iter().enumerate().skip(quads * 4) {
        if level & mask != 0 {
            out[x / 64] |= 1u64 << (x % 64);
        }
    }
}

/// Wrapping 64-bit product of two `i64` vectors:
/// `lo·lo + ((hi·lo + lo·hi) << 32)` over unsigned 32-bit partials.
#[inline]
#[target_feature(enable = "avx2")]
fn mul_epi64(a: __m256i, b: __m256i) -> __m256i {
    let a_hi = _mm256_srli_epi64(a, 32);
    let b_hi = _mm256_srli_epi64(b, 32);
    let lo = _mm256_mul_epu32(a, b);
    let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
    _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32))
}

/// Every tap's `acc[acc_at..][..width] += level * weights[w_at..][..width]`
/// into `i64` lanes: `i16` weights sign-extended by `vpmovsxwq`, 4 lanes
/// per op, 16 per unrolled iteration.
///
/// # Panics
///
/// Panics when a tap reaches outside `acc` or `weights`.
pub fn axpy_taps_i64(acc: &mut [i64], weights: &[i16], taps: &[Tap], width: usize, level: i64) {
    // SAFETY: dispatch guarantees AVX2, the only requirement of these
    // (otherwise safe) functions.
    unsafe {
        if (0..1i64 << 31).contains(&level) {
            axpy_taps_i64_impl::<true>(acc, weights, taps, width, level)
        } else {
            axpy_taps_i64_impl::<false>(acc, weights, taps, width, level)
        }
    }
}

/// Product of sign-extended `i16` lanes with the broadcast level.
/// `LEVEL32` promises `0 <= level < 2^31`: both factors then fit the low
/// 32 bits of their lanes as signed values, so one signed 32x32->64
/// `vpmuldq` is the exact product; otherwise the full [`mul_epi64`].
#[inline]
#[target_feature(enable = "avx2")]
fn mul_level<const LEVEL32: bool>(w: __m256i, level: __m256i) -> __m256i {
    if LEVEL32 {
        _mm256_mul_epi32(w, level)
    } else {
        mul_epi64(w, level)
    }
}

#[target_feature(enable = "avx2")]
fn axpy_taps_i64_impl<const LEVEL32: bool>(
    acc: &mut [i64],
    weights: &[i16],
    taps: &[Tap],
    width: usize,
    level: i64,
) {
    let vl = _mm256_set1_epi64x(level);
    for tap in taps {
        let acc = &mut acc[tap.acc_at..][..width];
        let w = &weights[tap.w_at..][..width];
        let (ap, wp) = (acc.as_mut_ptr(), w.as_ptr());
        let mut i = 0;
        // SAFETY (both loops): `acc` and `w` are `width` long and
        // `i + lanes <= width` keeps every access inside them; unaligned
        // loads/stores carry no alignment requirement.
        unsafe {
            while i + 16 <= width {
                // Four `vpmovsxwq ymm, m64` (load and widen fused) rather
                // than one 256-bit load split by shuffles: the shuffle port
                // is the bottleneck of this loop.
                for q in (i..i + 16).step_by(4) {
                    let wv = _mm256_cvtepi16_epi64(_mm_loadl_epi64(wp.add(q).cast()));
                    let at = ap.add(q).cast::<__m256i>();
                    let sum =
                        _mm256_add_epi64(_mm256_loadu_si256(at), mul_level::<LEVEL32>(wv, vl));
                    _mm256_storeu_si256(at, sum);
                }
                i += 16;
            }
            while i + 4 <= width {
                let wv = _mm256_cvtepi16_epi64(_mm_loadl_epi64(wp.add(i).cast()));
                let at = ap.add(i).cast::<__m256i>();
                let sum = _mm256_add_epi64(_mm256_loadu_si256(at), mul_level::<LEVEL32>(wv, vl));
                _mm256_storeu_si256(at, sum);
                i += 4;
            }
        }
        scalar::axpy_i16(&mut acc[i..], &w[i..], level);
    }
}

/// [`axpy_taps_i64`] into `i32` lanes, 8 per op (`vpmovsxwd`), 32 per
/// unrolled iteration, in wrapping 32-bit arithmetic.
///
/// # Panics
///
/// Panics when a tap reaches outside `acc` or `weights`.
pub fn axpy_taps_i32(acc: &mut [i32], weights: &[i16], taps: &[Tap], width: usize, level: i32) {
    // SAFETY: dispatch guarantees AVX2, the only requirement of these
    // (otherwise safe) functions.
    unsafe {
        if (0..1i32 << 15).contains(&level) {
            axpy_taps_i32_impl::<true>(acc, weights, taps, width, level)
        } else {
            axpy_taps_i32_impl::<false>(acc, weights, taps, width, level)
        }
    }
}

/// Low 32 bits of the product of sign-extended `i16` lanes with the
/// broadcast level.  `MADD` promises `0 <= level < 2^15`: each 32-bit lane
/// of the broadcast is then the `i16` pair `(level, 0)` and each widened
/// weight the pair `(w, sign)`, so the one-µop `vpmaddwd` yields
/// `w * level + sign * 0` exactly.  From 2^15 up the low half of the
/// level would read as negative, hence the two-µop `vpmulld`.
#[inline]
#[target_feature(enable = "avx2")]
fn mul_level_i32<const MADD: bool>(w: __m256i, level: __m256i) -> __m256i {
    if MADD {
        _mm256_madd_epi16(w, level)
    } else {
        _mm256_mullo_epi32(w, level)
    }
}

#[target_feature(enable = "avx2")]
fn axpy_taps_i32_impl<const MADD: bool>(
    acc: &mut [i32],
    weights: &[i16],
    taps: &[Tap],
    width: usize,
    level: i32,
) {
    let vl = _mm256_set1_epi32(level);
    for tap in taps {
        let acc = &mut acc[tap.acc_at..][..width];
        let w = &weights[tap.w_at..][..width];
        let (ap, wp) = (acc.as_mut_ptr(), w.as_ptr());
        let mut i = 0;
        // SAFETY (both loops): `acc` and `w` are `width` long and
        // `i + lanes <= width` keeps every access inside them; unaligned
        // loads/stores carry no alignment requirement.
        unsafe {
            while i + 32 <= width {
                for q in (i..i + 32).step_by(8) {
                    let wv = _mm256_cvtepi16_epi32(_mm_loadu_si128(wp.add(q).cast()));
                    let at = ap.add(q).cast::<__m256i>();
                    let sum =
                        _mm256_add_epi32(_mm256_loadu_si256(at), mul_level_i32::<MADD>(wv, vl));
                    _mm256_storeu_si256(at, sum);
                }
                i += 32;
            }
            while i + 8 <= width {
                let wv = _mm256_cvtepi16_epi32(_mm_loadu_si128(wp.add(i).cast()));
                let at = ap.add(i).cast::<__m256i>();
                let sum = _mm256_add_epi32(_mm256_loadu_si256(at), mul_level_i32::<MADD>(wv, vl));
                _mm256_storeu_si256(at, sum);
                i += 8;
            }
        }
        scalar::axpy_i16_i32(&mut acc[i..], &w[i..], level);
    }
}
