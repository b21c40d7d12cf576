//! 256-bit AVX2 kernel implementations.
//!
//! Every function here is dispatched to only after
//! `is_x86_feature_detected!("avx2")` succeeded (see
//! [`super::active_level`]), which is what makes the `unsafe` blocks
//! sound: the intrinsics are available on the running CPU, and every
//! pointer stays inside the bounds of the borrowed slices.
//!
//! The multiply-accumulate is **one** kernel body, [`axpy_taps`], generic
//! over the block size `N` (`1..=4` spikes whose products are summed in
//! registers before one load-add-store of the accumulator), the weight
//! element (`i8 | i16`, [`Widen`]) and the accumulator element
//! (`i16 | i32 | i64`, [`Lanes`]): the instantiations differ only in how
//! many weight rows a vector step reads, the widening load
//! (`vpmovsx{bw,bd,bq,wd,wq}`, or none), the multiply and the add.
//!
//! The integer arithmetic is exact: bitwise ops are lane-width-independent;
//! wrapping sums are associative, so adding a block's products before the
//! accumulator is the same integer as adding them to it one by one; the
//! 64-bit multiply is composed from
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

    /// The level epilogue into bytes (`super::drain_levels`) compared in
    /// this element, where it has a vector path: returns `false`, having
    /// written nothing, where it has none.  Safe to call only once AVX2
    /// has been detected.
    fn drain_bytes(
        _acc: &[Self],
        _lanes: usize,
        _bias: &[Self],
        _thresholds: &[Self],
        _out: &mut [u8],
    ) -> bool {
        false
    }
}

/// What the vector paths need of a level element ([`super::Level`]): the
/// byte scan and the byte drain, which only `u8` has.
pub trait LevelLanes: Copy {
    /// [`super::spiking`], where this element has a vector path.  Safe to
    /// call only once AVX2 has been detected.
    fn spiking(levels: &[Self], mask: i64) -> Option<u64>;

    /// [`super::count_spikes`], where this element has a vector path.
    /// Safe to call only once AVX2 has been detected.
    fn count_spikes(levels: &[Self], mask: i64) -> Option<u64>;

    /// [`super::drain_levels`] from `A` sums, where this element and `A`
    /// have a vector path: `false`, having written nothing, otherwise.
    /// Safe to call only once AVX2 has been detected.
    fn drain<A: Lanes>(
        acc: &[A],
        lanes: usize,
        bias: &[A],
        thresholds: &[A],
        out: &mut [Self],
    ) -> bool;
}

impl LevelLanes for u8 {
    fn spiking(levels: &[u8], mask: i64) -> Option<u64> {
        // SAFETY: dispatch guarantees AVX2, the only requirement of this
        // (otherwise safe) function.
        Some(unsafe { spiking_bytes(levels, mask as u8) })
    }

    fn count_spikes(levels: &[u8], mask: i64) -> Option<u64> {
        // SAFETY: dispatch guarantees AVX2, the only requirement of this
        // (otherwise safe) function.
        Some(unsafe { count_spikes_bytes(levels, mask as u8) })
    }

    fn drain<A: Lanes>(
        acc: &[A],
        lanes: usize,
        bias: &[A],
        thresholds: &[A],
        out: &mut [u8],
    ) -> bool {
        A::drain_bytes(acc, lanes, bias, thresholds, out)
    }
}

impl LevelLanes for i64 {
    fn spiking(_levels: &[i64], _mask: i64) -> Option<u64> {
        None
    }

    fn count_spikes(_levels: &[i64], _mask: i64) -> Option<u64> {
        None
    }

    fn drain<A: Lanes>(_: &[A], _: usize, _: &[A], _: &[A], _: &mut [i64]) -> bool {
        false
    }
}

/// `Σ popcount(byte & mask)`: each nibble's set bits from a 16-entry
/// `vpshufb` table, summed per 8 bytes by `vpsadbw`, 32 bytes at a time,
/// and a plain loop for the rest.
#[target_feature(enable = "avx2")]
fn count_spikes_bytes(levels: &[u8], mask: u8) -> u64 {
    let chunks = levels.len() / 32;
    let table = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
        3, 4,
    );
    let (nibble, vmask) = (_mm256_set1_epi8(0x0f), _mm256_set1_epi8(mask as i8));
    let mut sums = _mm256_setzero_si256();
    for chunk in 0..chunks {
        // SAFETY: AVX2 is enabled for this function; the 32 bytes from
        // `chunk * 32` end inside `levels` (`chunk < len / 32`).
        let v = unsafe { _mm256_loadu_si256(levels.as_ptr().add(chunk * 32).cast()) };
        let v = _mm256_and_si256(v, vmask);
        let low = _mm256_shuffle_epi8(table, _mm256_and_si256(v, nibble));
        let high = _mm256_shuffle_epi8(table, _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble));
        let bits = _mm256_add_epi8(low, high);
        sums = _mm256_add_epi64(sums, _mm256_sad_epu8(bits, _mm256_setzero_si256()));
    }
    let mut lanes = [0u64; 4];
    // SAFETY: `lanes` is 32 writable bytes; the store is unaligned.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), sums) };
    lanes.iter().sum::<u64>() + scalar::count_spikes(&levels[chunks * 32..], i64::from(mask))
}

/// The spike mask of at most 64 bytes: mask, compare with zero and
/// movemask, 32 bytes (then 16) at a time, and a plain loop for the rest.
#[target_feature(enable = "avx2")]
fn spiking_bytes(levels: &[u8], mask: u8) -> u64 {
    let n = levels.len();
    let p = levels.as_ptr();
    let mut bits = 0u64;
    let mut i = 0;
    // SAFETY: AVX2 is enabled for this function; every load reads 32 (16)
    // bytes from `i`, taken only when they end inside `levels`.
    unsafe {
        let vmask = _mm256_set1_epi8(mask as i8);
        while i + 32 <= n {
            let v = _mm256_and_si256(_mm256_loadu_si256(p.add(i).cast()), vmask);
            let silent = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, _mm256_setzero_si256()));
            bits |= u64::from(!(silent as u32)) << i;
            i += 32;
        }
        if i + 16 <= n {
            let v = _mm_and_si128(
                _mm_loadu_si128(p.add(i).cast()),
                _mm256_castsi256_si128(vmask),
            );
            let silent = _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_setzero_si128()));
            bits |= u64::from(!(silent as u32) & 0xffff) << i;
            i += 16;
        }
    }
    if i < n {
        bits |= scalar::spiking(&levels[i..], i64::from(mask)) << i;
    }
    bits
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

    fn drain_bytes(
        acc: &[i32],
        lanes: usize,
        bias: &[i32],
        thresholds: &[i32],
        out: &mut [u8],
    ) -> bool {
        if thresholds.len() > 15 {
            return false;
        }
        // SAFETY: dispatch guarantees AVX2, the only requirement of this
        // (otherwise safe) function.
        unsafe { drain_bytes_i32(acc, lanes, bias, thresholds, out) };
        true
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

/// Every tap's `acc[acc_at..][..width] += levels[m] * rows[m][w_at..][..width]`
/// over the block's members `m < N`, the weights sign-extended to the
/// accumulator's lanes and the `N` products of a lane summed in registers
/// before one load-add-store: `A::N` lanes per step, four steps per
/// unrolled iteration, then single vectors, one half vector and a scalar
/// tail shorter than that.
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
    // SAFETY: dispatch guarantees AVX2, the only requirement of this
    // (otherwise safe) function.
    unsafe {
        if levels.iter().all(|&level| A::one_uop(level)) {
            axpy_taps_impl::<N, W, A, true>(acc, rows, taps, width, levels)
        } else {
            axpy_taps_impl::<N, W, A, false>(acc, rows, taps, width, levels)
        }
    }
}

#[target_feature(enable = "avx2")]
fn axpy_taps_impl<const N: usize, W: WeightLane, A: Accumulator, const ONE_UOP: bool>(
    acc: &mut [A],
    rows: [&[W]; N],
    taps: &[Tap],
    width: usize,
    levels: [A; N],
) {
    let mut splats = [_mm256_setzero_si256(); N];
    for (splat, &level) in splats.iter_mut().zip(&levels) {
        // SAFETY: AVX2 is enabled for this function.
        *splat = unsafe { A::splat(level) };
    }
    for tap in taps {
        let acc = &mut acc[tap.acc_at..][..width];
        let mut wps = [std::ptr::null::<W>(); N];
        for (wp, row) in wps.iter_mut().zip(&rows) {
            *wp = row[tap.w_at..][..width].as_ptr();
        }
        let ap = acc.as_mut_ptr();
        let mut i = 0;
        // SAFETY: AVX2 is enabled for this function; `acc` and every
        // member's weights (from `wps`) are `width` long, and every step is
        // taken only when its `A::N` (half step: `A::N / 2`) lanes from `i`
        // end inside them.
        unsafe {
            while i + 4 * A::N <= width {
                for q in (i..i + 4 * A::N).step_by(A::N) {
                    step::<N, W, A, ONE_UOP, false>(ap, &wps, q, &splats);
                }
                i += 4 * A::N;
            }
            while i + A::N <= width {
                step::<N, W, A, ONE_UOP, false>(ap, &wps, i, &splats);
                i += A::N;
            }
            if i + A::N / 2 <= width {
                step::<N, W, A, ONE_UOP, true>(ap, &wps, i, &splats);
                i += A::N / 2;
            }
        }
        if i < width {
            for (row, &level) in rows.iter().zip(&levels) {
                scalar::axpy(&mut acc[i..], &row[tap.w_at + i..][..width - i], level);
            }
        }
    }
}

/// One vector of the kernel: the `A::N` lanes at `ap + at` += the weights
/// at `wps[m] + at` times `levels[m]`, summed over the block's members —
/// or, when `HALF`, the `A::N / 2` lanes of a 128-bit vector, through the
/// same 256-bit operations with the upper half ignored.
///
/// # Safety
///
/// AVX2 must be available, and that many lanes from `at` readable at every
/// `wps[m]` and writable at `ap`; no alignment is required.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn step<const N: usize, W: Widen, A: Lanes, const ONE_UOP: bool, const HALF: bool>(
    ap: *mut A,
    wps: &[*const W; N],
    at: usize,
    levels: &[__m256i; N],
) {
    // SAFETY: the caller's contract covers every widening load and the
    // unaligned load/store of exactly the lanes it promised.
    unsafe {
        let mut product = A::mul::<ONE_UOP>(W::widen::<A, HALF>(wps[0].add(at)), levels[0]);
        for m in 1..N {
            let next = A::mul::<ONE_UOP>(W::widen::<A, HALF>(wps[m].add(at)), levels[m]);
            product = A::add(product, next);
        }
        let ap = ap.add(at);
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

/// The level epilogue in `i32` into bytes, for at most 15 thresholds: per
/// row of `lanes` sums, eight lanes at a time, the biased sum's level is
/// decided MSB-first — four compares against the thresholds `8`, then `4`
/// or `12`, then one of `2, 6, 10, 14` and one of the odd ones, the last
/// two picked by a `vpermd` table lookup on the bits decided so far — and
/// the eight levels packed to bytes.  The table is padded to 15 with
/// `i32::MAX` and the level capped at the true count, so it is exactly the
/// oracle's count for every sum.  A row's last `lanes % 8` sums take the
/// oracle.
#[target_feature(enable = "avx2")]
fn drain_bytes_i32(acc: &[i32], lanes: usize, bias: &[i32], thresholds: &[i32], out: &mut [u8]) {
    let mut t = [i32::MAX; 16];
    t[1..=thresholds.len()].copy_from_slice(thresholds);
    let (t8, t4, t12) = (
        _mm256_set1_epi32(t[8]),
        _mm256_set1_epi32(t[4]),
        _mm256_set1_epi32(t[12]),
    );
    let quarters = _mm256_setr_epi32(t[2], t[6], t[10], t[14], t[14], t[14], t[14], t[14]);
    let eighths = _mm256_setr_epi32(t[1], t[3], t[5], t[7], t[9], t[11], t[13], t[15]);
    let (b8, b4, b2, b1) = (
        _mm256_set1_epi32(8),
        _mm256_set1_epi32(4),
        _mm256_set1_epi32(2),
        _mm256_set1_epi32(1),
    );
    let count = _mm256_set1_epi32(thresholds.len() as i32);
    // The biased sums' levels, eight at `at`, biases from `b`.
    let eight = |at: usize, b: usize, out: &mut [u8]| {
        // SAFETY: AVX2 is enabled for this function; the callers below
        // take eight sums at `at` inside `acc`, eight biases at `b` inside
        // `bias` and store eight bytes at `at` inside `out`.
        unsafe {
            let x = _mm256_add_epi32(
                _mm256_loadu_si256(acc.as_ptr().add(at).cast()),
                _mm256_loadu_si256(bias.as_ptr().add(b).cast()),
            );
            // `below` is all-ones where `x` is below the threshold.
            let below = _mm256_cmpgt_epi32(t8, x);
            let mut level = _mm256_andnot_si256(below, b8);
            let threshold = _mm256_blendv_epi8(t12, t4, below);
            let below = _mm256_cmpgt_epi32(threshold, x);
            level = _mm256_or_si256(level, _mm256_andnot_si256(below, b4));
            let threshold = _mm256_permutevar8x32_epi32(quarters, _mm256_srli_epi32(level, 2));
            let below = _mm256_cmpgt_epi32(threshold, x);
            level = _mm256_or_si256(level, _mm256_andnot_si256(below, b2));
            let threshold = _mm256_permutevar8x32_epi32(eighths, _mm256_srli_epi32(level, 1));
            let below = _mm256_cmpgt_epi32(threshold, x);
            level = _mm256_or_si256(level, _mm256_andnot_si256(below, b1));
            level = _mm256_min_epi32(level, count);
            // Levels are at most 15: both packs keep them exact.
            let words = _mm256_packs_epi32(level, level);
            let bytes = _mm256_packus_epi16(words, words);
            let levels = _mm_unpacklo_epi32(
                _mm256_castsi256_si128(bytes),
                _mm256_extracti128_si256::<1>(bytes),
            );
            _mm_storel_epi64(out.as_mut_ptr().add(at).cast(), levels);
        }
    };
    if lanes.is_multiple_of(8) {
        // Whole vectors per row: one flat run, the bias window cycling.
        let mut b = 0;
        for at in (0..acc.len()).step_by(8) {
            eight(at, b, out);
            b += 8;
            if b == lanes {
                b = 0;
            }
        }
        return;
    }
    let vectors = lanes / 8;
    for position in 0..acc.len() / lanes {
        let row = position * lanes;
        for v in 0..vectors {
            eight(row + v * 8, v * 8, out);
        }
        let done = vectors * 8;
        scalar::drain_levels(
            &acc[row + done..row + lanes],
            lanes - done,
            &bias[done..],
            thresholds,
            &mut out[row + done..row + lanes],
        );
    }
}
