//! 256-bit AVX2 kernel implementations.
//!
//! Every function here is dispatched to only after
//! `is_x86_feature_detected!("avx2")` succeeded (see
//! [`super::active_level`]), which is what makes the `unsafe` blocks
//! sound: the intrinsics are available on the running CPU, and every
//! pointer stays inside the bounds of the borrowed slices.
//!
//! The multiply-accumulate is **one** kernel body, [`axpy_taps`], generic
//! over the weight element (`i8 | i16`, [`Widen`]) and the accumulator
//! element (`i16 | i32 | i64`, [`Lanes`]): the six instantiations differ
//! only in the widening load (`vpmovsx{bw,bd,bq,wd,wq}`, or none), the
//! multiply and the add.
//!
//! The integer arithmetic is exact: bitwise ops and popcounts are
//! lane-width-independent; the 64-bit multiply is composed from
//! `vpmuludq` 32×32→64 partial products (`lo·lo + ((hi·lo + lo·hi) << 32)`),
//! which is precisely the wrapping 64-bit product (or, for factors that
//! fit 32 signed bits, one `vpmuldq`); the 32-bit multiply is `vpmulld`,
//! the wrapping 32-bit product (or, for levels below 2^15, one `vpmaddwd`);
//! the 16-bit multiply is `vpmullw`, the wrapping 16-bit product — so
//! accumulators of every width are bit-identical to the scalar oracle.

#![allow(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

use super::{scalar, Accumulator, Tap, WeightLane};
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
    // SAFETY: the caller promises AVX2; `i * 4 + 4 <= chunks * 4` keeps every
    // 4-word load and store inside the equal-length slices.
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
    // SAFETY: the caller promises AVX2; each load reads the 4 words from
    // `i * 4 < chunks * 4 <= words.len()`, the store fills the local array.
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
    // SAFETY: the caller promises AVX2; each load reads the 4 levels from
    // `q * 4 < quads * 4 <= levels.len()`; `out` is indexed, not pointed into.
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

/// The low `BYTES` (2, 4, 8 or 16) bytes at `p` in the low end of a vector
/// — the source of a widening load, which the compiler fuses with it
/// (`vpmovsx.. ymm, m64`: the shuffle port is the bottleneck of the kernel,
/// so no 256-bit load split by shuffles).
///
/// # Safety
///
/// `BYTES` bytes must be readable at `p`; no alignment is required.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_low<const BYTES: usize>(p: *const u8) -> __m128i {
    // SAFETY: the caller promises `BYTES` readable bytes; every load here
    // is an unaligned one of exactly that many.
    unsafe {
        match BYTES {
            2 => _mm_cvtsi32_si128(i32::from(p.cast::<u16>().read_unaligned())),
            4 => _mm_cvtsi32_si128(p.cast::<i32>().read_unaligned()),
            8 => _mm_loadl_epi64(p.cast()),
            16 => _mm_loadu_si128(p.cast()),
            _ => unreachable!("no widening load reads {BYTES} bytes"),
        }
    }
}

/// What the one kernel body needs of an accumulator element: how many fill
/// a 256-bit vector, and the widening loads, the multiply and the add at
/// that width.
///
/// # Safety
///
/// Every `unsafe fn` here requires AVX2 on the running CPU; the loads
/// additionally read `N` weights at `p`, or `N / 2` when `HALF` (the other
/// lanes are then unspecified).
pub trait Lanes: Copy {
    /// Lanes of this element in a 256-bit vector.
    const N: usize;

    /// Whether `level` may take the one-µop multiply, `mul::<true>`.
    fn one_uop(level: Self) -> bool;

    /// `level` in every lane.
    unsafe fn splat(level: Self) -> __m256i;

    /// Lane-wise product of widened weights and the splat level, wrapping
    /// at this width.  `ONE_UOP` promises [`Lanes::one_uop`] held.
    unsafe fn mul<const ONE_UOP: bool>(w: __m256i, level: __m256i) -> __m256i;

    /// Lane-wise wrapping sum.
    unsafe fn add(a: __m256i, b: __m256i) -> __m256i;

    /// `i8` weights sign-extended to this element's lanes.
    unsafe fn widen_i8<const HALF: bool>(p: *const i8) -> __m256i;

    /// `i16` weights sign-extended to this element's lanes.
    unsafe fn widen_i16<const HALF: bool>(p: *const i16) -> __m256i;
}

/// A weight element: picks its widening load of [`Lanes`].
pub trait Widen: Copy {
    /// `A::N` weights at `p` (`A::N / 2` when `HALF`) as `A` lanes.
    ///
    /// # Safety
    ///
    /// As the loads of [`Lanes`].
    unsafe fn widen<A: Lanes, const HALF: bool>(p: *const Self) -> __m256i;
}

impl Widen for i8 {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen<A: Lanes, const HALF: bool>(p: *const i8) -> __m256i {
        // SAFETY: the caller's contract is `widen_i8`'s.
        unsafe { A::widen_i8::<HALF>(p) }
    }
}

impl Widen for i16 {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen<A: Lanes, const HALF: bool>(p: *const i16) -> __m256i {
        // SAFETY: the caller's contract is `widen_i16`'s.
        unsafe { A::widen_i16::<HALF>(p) }
    }
}

/// 16 lanes: `vpmovsxbw` (or a plain load of `i16` weights), `vpmullw`,
/// `vpaddw`.  The low 16 bits of a product need one µop at any level.
impl Lanes for i16 {
    const N: usize = 16;

    fn one_uop(_level: i16) -> bool {
        true
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn splat(level: i16) -> __m256i {
        _mm256_set1_epi16(level)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul<const ONE_UOP: bool>(w: __m256i, level: __m256i) -> __m256i {
        _mm256_mullo_epi16(w, level)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi16(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen_i8<const HALF: bool>(p: *const i8) -> __m256i {
        // SAFETY: 16 weights (8 when `HALF`) are readable at `p`.
        unsafe {
            _mm256_cvtepi8_epi16(if HALF {
                load_low::<8>(p.cast())
            } else {
                load_low::<16>(p.cast())
            })
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen_i16<const HALF: bool>(p: *const i16) -> __m256i {
        // SAFETY: 16 weights (8 when `HALF`) are readable at `p`.
        unsafe {
            if HALF {
                _mm256_castsi128_si256(load_low::<16>(p.cast()))
            } else {
                _mm256_loadu_si256(p.cast())
            }
        }
    }
}

/// 8 lanes: `vpmovsxbd` / `vpmovsxwd`, `vpaddd`, and for `0 <= level <
/// 2^15` the one-µop `vpmaddwd`: each 32-bit lane of the splat is then the
/// `i16` pair `(level, 0)` and each widened weight the pair `(w, sign)`, so
/// it yields `w * level + sign * 0` exactly.  From 2^15 up the low half of
/// the level would read as negative, hence the two-µop `vpmulld`.
impl Lanes for i32 {
    const N: usize = 8;

    fn one_uop(level: i32) -> bool {
        (0..1 << 15).contains(&level)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn splat(level: i32) -> __m256i {
        _mm256_set1_epi32(level)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul<const ONE_UOP: bool>(w: __m256i, level: __m256i) -> __m256i {
        if ONE_UOP {
            _mm256_madd_epi16(w, level)
        } else {
            _mm256_mullo_epi32(w, level)
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen_i8<const HALF: bool>(p: *const i8) -> __m256i {
        // SAFETY: 8 weights (4 when `HALF`) are readable at `p`.
        unsafe {
            _mm256_cvtepi8_epi32(if HALF {
                load_low::<4>(p.cast())
            } else {
                load_low::<8>(p.cast())
            })
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen_i16<const HALF: bool>(p: *const i16) -> __m256i {
        // SAFETY: 8 weights (4 when `HALF`) are readable at `p`.
        unsafe {
            _mm256_cvtepi16_epi32(if HALF {
                load_low::<8>(p.cast())
            } else {
                load_low::<16>(p.cast())
            })
        }
    }
}

/// 4 lanes: `vpmovsxbq` / `vpmovsxwq`, `vpaddq`, and for `0 <= level <
/// 2^31` one signed 32x32->64 `vpmuldq` — both factors then fit the low 32
/// bits of their lanes as signed values, so it is the exact product;
/// otherwise the full [`mul_epi64`].
impl Lanes for i64 {
    const N: usize = 4;

    fn one_uop(level: i64) -> bool {
        (0..1 << 31).contains(&level)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn splat(level: i64) -> __m256i {
        _mm256_set1_epi64x(level)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul<const ONE_UOP: bool>(w: __m256i, level: __m256i) -> __m256i {
        if ONE_UOP {
            _mm256_mul_epi32(w, level)
        } else {
            mul_epi64(w, level)
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi64(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen_i8<const HALF: bool>(p: *const i8) -> __m256i {
        // SAFETY: 4 weights (2 when `HALF`) are readable at `p`.
        unsafe {
            _mm256_cvtepi8_epi64(if HALF {
                load_low::<2>(p.cast())
            } else {
                load_low::<4>(p.cast())
            })
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen_i16<const HALF: bool>(p: *const i16) -> __m256i {
        // SAFETY: 4 weights (2 when `HALF`) are readable at `p`.
        unsafe {
            _mm256_cvtepi16_epi64(if HALF {
                load_low::<4>(p.cast())
            } else {
                load_low::<8>(p.cast())
            })
        }
    }
}

/// Every tap's `acc[acc_at..][..width] += level * weights[w_at..][..width]`,
/// the weights sign-extended to the accumulator's lanes: `A::N` lanes per
/// op, four ops per unrolled iteration, then single vectors, one half
/// vector and a scalar tail shorter than that.
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
    // SAFETY: dispatch guarantees AVX2, the only requirement of this
    // (otherwise safe) function.
    unsafe {
        if A::one_uop(level) {
            axpy_taps_impl::<W, A, true>(acc, weights, taps, width, level)
        } else {
            axpy_taps_impl::<W, A, false>(acc, weights, taps, width, level)
        }
    }
}

#[target_feature(enable = "avx2")]
fn axpy_taps_impl<W: WeightLane, A: Accumulator, const ONE_UOP: bool>(
    acc: &mut [A],
    weights: &[W],
    taps: &[Tap],
    width: usize,
    level: A,
) {
    // SAFETY: AVX2 is enabled for this function.
    let vl = unsafe { A::splat(level) };
    for tap in taps {
        let acc = &mut acc[tap.acc_at..][..width];
        let w = &weights[tap.w_at..][..width];
        let (ap, wp) = (acc.as_mut_ptr(), w.as_ptr());
        let mut i = 0;
        // SAFETY: AVX2 is enabled for this function; `acc` and `w` are
        // `width` long and every step is taken only when its `A::N` (half
        // step: `A::N / 2`) lanes from `i` end inside them.
        unsafe {
            while i + 4 * A::N <= width {
                for q in (i..i + 4 * A::N).step_by(A::N) {
                    step::<W, A, ONE_UOP, false>(ap.add(q), wp.add(q), vl);
                }
                i += 4 * A::N;
            }
            while i + A::N <= width {
                step::<W, A, ONE_UOP, false>(ap.add(i), wp.add(i), vl);
                i += A::N;
            }
            if i + A::N / 2 <= width {
                step::<W, A, ONE_UOP, true>(ap.add(i), wp.add(i), vl);
                i += A::N / 2;
            }
        }
        scalar::axpy(&mut acc[i..], &w[i..], level);
    }
}

/// One vector of the kernel: `A::N` lanes at `ap` += the weights at `wp`
/// times `level` — or, when `HALF`, the `A::N / 2` lanes of a 128-bit
/// vector, through the same 256-bit operations with the upper half
/// ignored.
///
/// # Safety
///
/// AVX2 must be available, and that many lanes readable at `wp` and
/// writable at `ap`; no alignment is required.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn step<W: Widen, A: Lanes, const ONE_UOP: bool, const HALF: bool>(
    ap: *mut A,
    wp: *const W,
    level: __m256i,
) {
    // SAFETY: the caller's contract covers the widening load and the
    // unaligned load/store of exactly the lanes it promised.
    unsafe {
        let product = A::mul::<ONE_UOP>(W::widen::<A, HALF>(wp), level);
        if HALF {
            let at = ap.cast::<__m128i>();
            let sum = A::add(_mm256_castsi128_si256(_mm_loadu_si128(at)), product);
            _mm_storeu_si128(at, _mm256_castsi256_si128(sum));
        } else {
            let at = ap.cast::<__m256i>();
            _mm256_storeu_si256(at, A::add(_mm256_loadu_si256(at), product));
        }
    }
}
