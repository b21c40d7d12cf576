//! 128-bit SSE2 kernel implementations — the baseline vector path on
//! every `x86_64` host (SSE2 is part of the architecture baseline, so no
//! runtime check is needed for availability, only for the `SNN_SIMD` cap).
//!
//! SSE2 has no 64-bit lane compare (`pcmpeqq` is SSE4.1) and no shuffle
//! popcount (SSSE3), so the zero test is built from paired 32-bit
//! compares and popcount stays on the scalar path; the widening `axpy`
//! needs `pmovsxwq` (SSE4.1) and stays there too.

#![allow(unsafe_code)]

use super::scalar;
use std::arch::x86_64::*;

/// `acc[i] |= src[i]`, 2 words per iteration.
pub fn or_accumulate(acc: &mut [u64], src: &[u64]) {
    // SAFETY: SSE2 is the x86_64 baseline; all loads/stores stay within
    // the equal-length slices.
    unsafe { or_accumulate_impl(acc, src) }
}

#[target_feature(enable = "sse2")]
unsafe fn or_accumulate_impl(acc: &mut [u64], src: &[u64]) {
    let chunks = acc.len() / 2;
    unsafe {
        for i in 0..chunks {
            let a = _mm_loadu_si128(acc.as_ptr().add(i * 2).cast());
            let s = _mm_loadu_si128(src.as_ptr().add(i * 2).cast());
            _mm_storeu_si128(acc.as_mut_ptr().add(i * 2).cast(), _mm_or_si128(a, s));
        }
    }
    scalar::or_accumulate(&mut acc[chunks * 2..], &src[chunks * 2..]);
}

/// Packs one occupancy row 2 levels at a time.  The per-lane zero test
/// ANDs the two 32-bit `pcmpeqd` halves of each lane.
pub fn pack_occupancy_row(levels: &[i64], mask: i64, out: &mut [u64]) {
    // SAFETY: SSE2 is the x86_64 baseline; loads stay inside `levels`,
    // and the caller-checked `out` length covers every word written.
    unsafe { pack_occupancy_row_impl(levels, mask, out) }
}

#[target_feature(enable = "sse2")]
unsafe fn pack_occupancy_row_impl(levels: &[i64], mask: i64, out: &mut [u64]) {
    let needed = levels.len().div_ceil(64).max(1);
    for w in out.iter_mut().take(needed) {
        *w = 0;
    }
    let pairs = levels.len() / 2;
    unsafe {
        let vmask = _mm_set1_epi64x(mask);
        let zero = _mm_setzero_si128();
        for p in 0..pairs {
            let v = _mm_loadu_si128(levels.as_ptr().add(p * 2).cast());
            let masked = _mm_and_si128(v, vmask);
            // 64-bit lane is zero iff both 32-bit halves are zero.
            let eq32 = _mm_cmpeq_epi32(masked, zero);
            let swapped = _mm_shuffle_epi32(eq32, 0b1011_0001);
            let is_zero = _mm_and_si128(eq32, swapped);
            let bits = (!_mm_movemask_pd(_mm_castsi128_pd(is_zero)) & 0x3) as u64;
            let base = p * 2;
            out[base / 64] |= bits << (base % 64);
        }
    }
    for (x, &level) in levels.iter().enumerate().skip(pairs * 2) {
        if level & mask != 0 {
            out[x / 64] |= 1u64 << (x % 64);
        }
    }
}
