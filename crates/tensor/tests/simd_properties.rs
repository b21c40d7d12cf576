//! Property tests pinning the runtime-dispatched SIMD kernels **bit-exact**
//! against the always-compiled scalar oracle, and the occupancy (which
//! routes through them) against its per-position definition — over
//! arbitrary densities, widths crossing `u64` word boundaries, every block
//! size of the multiply-accumulate, and all-silent rows.
//!
//! The dispatched level is whatever the host (and `SNN_SIMD`) resolves to;
//! CI runs this suite both with the default dispatch and with `SNN_SIMD=0`,
//! so every compiled path is pinned against the same oracle.

use proptest::prelude::*;
use snn_tensor::bitplane::{self, BitPlanes, Occupancy, WORD_BITS};
use snn_tensor::simd::{self, scalar};

/// Level rows with controllable spike density: `density` scales how many
/// positions carry non-zero levels (0 = all silent).
/// `density` in `0..=8` scales how many positions carry non-zero levels
/// (0 = all silent); `seed` makes the contents arbitrary but reproducible.
fn level_row(len: usize, density: u64, seed: u64) -> Vec<i64> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(seed)
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            if x % 8 < density {
                (x >> 32) as i64 & 0xff
            } else {
                0
            }
        })
        .collect()
}

/// Packed word rows with controllable density (0 = all zero).
fn word_row(len: usize, density: u64, seed: u64) -> Vec<u64> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0xdead_beef_cafe_babe)
                .wrapping_add(seed)
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            match density {
                0 => 0,
                1 => x & x >> 7 & x >> 13, // sparse
                2 => x,
                3 => x | x >> 3, // dense
                _ => u64::MAX,
            }
        })
        .collect()
}

/// Bounded pseudo-random `i64` in `(-bound, bound)` from an index/seed pair.
fn small_i64(i: usize, seed: u64, bound: u64) -> i64 {
    ((i as u64)
        .wrapping_mul(2654435761)
        .wrapping_add(seed)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        % (2 * bound)) as i64
        - bound as i64
}

/// The high byte of each weight: the same pattern in the 8-bit element,
/// both `i8` edges included.
fn bytes_of(w: &[i16]) -> Vec<i8> {
    w.iter().map(|&w| (w >> 8) as i8).collect()
}

/// One (weight lane × accumulator) instantiation of the dispatched kernel
/// against the scalar oracle, from the accumulators `start`.
fn check_axpy<W: simd::WeightLane, A: simd::Accumulator + PartialEq + std::fmt::Debug>(
    w: &[W],
    start: &[A],
    level: A,
) -> Result<(), TestCaseError> {
    let mut fast = start.to_vec();
    let mut slow = start.to_vec();
    simd::axpy(&mut fast, w, level);
    scalar::axpy(&mut slow, w, level);
    prop_assert_eq!(fast, slow);
    Ok(())
}

/// Levels around the narrow kernel's `0 <= level < 2^15` fast path, up to
/// where the 32-bit products wrap.
const NARROW_SEAM_LEVELS: [i32; 8] = [
    0,
    1,
    15,
    (1 << 15) - 1,
    1 << 15,
    (1 << 16) + 1,
    i32::MAX,
    -3,
];

/// Levels around the wide kernel's `0 <= level < 2^31` fast path, up to
/// where the 64-bit products wrap.
const WIDE_SEAM_LEVELS: [i64; 6] = [0, 1, (1 << 31) - 1, 1 << 31, 1 << 62, -3];

/// The first `N` members of a block, as the kernel takes them.
fn block<const N: usize, T: Copy>(members: &[T]) -> [T; N] {
    std::array::from_fn(|m| members[m])
}

/// Every block size of every (weight lane × accumulator) instantiation
/// whose accumulator is `A`: the dispatched kernel against the scalar
/// oracle, from accumulators `seed` makes arbitrary.
fn check_blocks<A: simd::Accumulator + PartialEq + std::fmt::Debug>(
    rows: &[&[i16]],
    byte_rows: &[&[i8]],
    taps: &[simd::Tap],
    width: usize,
    acc_len: usize,
    seed: u64,
    levels: &[A],
) -> Result<(), TestCaseError> {
    let start: Vec<A> = (0..acc_len)
        .map(|i| A::from_level(small_i64(i, seed, 1 << 40)))
        .collect();
    fn one<
        const N: usize,
        W: simd::WeightLane,
        A: simd::Accumulator + PartialEq + std::fmt::Debug,
    >(
        start: &[A],
        rows: &[&[W]],
        taps: &[simd::Tap],
        width: usize,
        levels: &[A],
    ) -> Result<(), TestCaseError> {
        let mut fast = start.to_vec();
        let mut slow = start.to_vec();
        simd::axpy_taps(
            &mut fast,
            block::<N, _>(rows),
            taps,
            width,
            block::<N, _>(levels),
        );
        scalar::axpy_taps(
            &mut slow,
            block::<N, _>(rows),
            taps,
            width,
            block::<N, _>(levels),
        );
        prop_assert_eq!(fast, slow, "N={}", N);
        Ok(())
    }
    one::<1, _, A>(&start, rows, taps, width, levels)?;
    one::<2, _, A>(&start, rows, taps, width, levels)?;
    one::<3, _, A>(&start, rows, taps, width, levels)?;
    one::<4, _, A>(&start, rows, taps, width, levels)?;
    one::<1, _, A>(&start, byte_rows, taps, width, levels)?;
    one::<2, _, A>(&start, byte_rows, taps, width, levels)?;
    one::<3, _, A>(&start, byte_rows, taps, width, levels)?;
    one::<4, _, A>(&start, byte_rows, taps, width, levels)?;
    Ok(())
}

proptest! {
    /// Occupancy row packing: bit `x` set iff `levels[x] & mask != 0`,
    /// for widths crossing word boundaries and any mask — dispatched and
    /// scalar paths agree, and both match the per-position definition.
    #[test]
    fn pack_occupancy_row_matches_definition(
        len in 1usize..200,
        density in 0u64..=8,
        seed in 0u64..u64::MAX,
        time_steps in 0usize..65,
    ) {
        let levels = level_row(len, density, seed);
        let mask = bitplane::level_mask(time_steps);
        let words = bitplane::words_per_row(levels.len());
        let mut fast = vec![u64::MAX; words];
        let mut slow = vec![0u64; words];
        simd::pack_occupancy_row(&levels, mask, &mut fast);
        scalar::pack_occupancy_row(&levels, mask, &mut slow);
        prop_assert_eq!(&fast, &slow);
        for (x, &level) in levels.iter().enumerate() {
            let bit = fast[x / WORD_BITS] >> (x % WORD_BITS) & 1 == 1;
            prop_assert_eq!(bit, level & mask != 0, "x={}", x);
        }
    }

    /// Widening multiply-accumulate (`acc += level * w`): dispatched
    /// kernel equals the scalar loop for any length, any weights of either
    /// stored element and levels on both sides of the 32-bit fast path.
    #[test]
    fn axpy_matches_scalar_oracle(
        w in prop::collection::vec(i16::MIN..=i16::MAX, 0..130),
        level_bits in 0u32..64,
        seed in 0u64..u64::MAX,
    ) {
        let level = (seed >> (63 - level_bits)) as i64;
        let start: Vec<i64> = (0..w.len()).map(|i| small_i64(i, seed, 1024)).collect();
        check_axpy(&w, &start, level)?;
        check_axpy(&bytes_of(&w), &start, level)?;
    }

    /// The same into 32-bit lanes, wrapping: dispatched kernel equals the
    /// scalar loop for any length (0..=67 crosses the unrolled, 8-lane,
    /// 4-lane and scalar-tail loops), any weights of either stored element,
    /// accumulators up to the `i32` edges, and levels on both sides of the
    /// `vpmaddwd` fast path.
    #[test]
    fn narrow_axpy_matches_scalar_oracle(
        w in prop::collection::vec(i16::MIN..=i16::MAX, 0..=67),
        level_sel in 0usize..2 * NARROW_SEAM_LEVELS.len(),
        seed in 0u64..u64::MAX,
    ) {
        let level = match NARROW_SEAM_LEVELS.get(level_sel) {
            Some(&level) => level,
            None => (seed >> 17) as i32,
        };
        let start: Vec<i32> = (0..w.len())
            .map(|i| small_i64(i, seed, 1 << 31) as i32)
            .collect();
        check_axpy(&w, &start, level)?;
        check_axpy(&bytes_of(&w), &start, level)?;
    }

    /// And into 16-bit lanes, the partial sums of a group: any length
    /// (0..=67 crosses the unrolled, 16-lane, 8-lane and scalar-tail
    /// loops), any weights of either stored element, accumulators and
    /// levels up to the `i16` edges, where everything wraps.
    #[test]
    fn partial_axpy_matches_scalar_oracle(
        w in prop::collection::vec(i16::MIN..=i16::MAX, 0..=67),
        level in i16::MIN..=i16::MAX,
        seed in 0u64..u64::MAX,
    ) {
        let start: Vec<i16> = (0..w.len())
            .map(|i| small_i64(i, seed, 1 << 15) as i16)
            .collect();
        check_axpy(&w, &start, level)?;
        check_axpy(&bytes_of(&w), &start, level)?;
    }

    /// One call over a spike's taps equals one scalar row update per tap,
    /// in order, in every width — taps may overlap, repeat and end flush
    /// with either slice — and the widths agree with each other, because
    /// nothing here leaves `i32`, nor, from 8-bit weights under a level
    /// below 16, `i16` (12 taps x 15 x 128 + 7 at most).
    #[test]
    fn axpy_taps_matches_one_scalar_axpy_per_tap(
        weights in prop::collection::vec(-2048i16..2048, 1..200),
        width_sel in 0usize..70,
        placements in prop::collection::vec((0usize..1000, 0usize..1000), 0..12),
        level in 0i32..(1 << 16),
    ) {
        let width = width_sel.min(weights.len());
        let acc_len = width + 40;
        let taps: Vec<simd::Tap> = placements
            .iter()
            .map(|&(a, b)| simd::Tap {
                acc_at: a % (acc_len - width + 1),
                w_at: b % (weights.len() - width + 1),
            })
            .collect();
        let mut narrow = vec![-7i32; acc_len];
        let mut wide = vec![-7i64; acc_len];
        let mut slow = narrow.clone();
        simd::axpy_taps(&mut narrow, [&weights[..]], &taps, width, [level]);
        simd::axpy_taps(&mut wide, [&weights[..]], &taps, width, [i64::from(level)]);
        let bytes = bytes_of(&weights);
        let small = (level % 16) as i16;
        let mut partial = vec![-7i16; acc_len];
        let mut bytes_narrow = vec![-7i32; acc_len];
        let mut bytes_slow = vec![-7i64; acc_len];
        simd::axpy_taps(&mut partial, [&bytes[..]], &taps, width, [small]);
        simd::axpy_taps(&mut bytes_narrow, [&bytes[..]], &taps, width, [i32::from(small)]);
        for tap in &taps {
            scalar::axpy(
                &mut slow[tap.acc_at..][..width],
                &weights[tap.w_at..][..width],
                level,
            );
            scalar::axpy(
                &mut bytes_slow[tap.acc_at..][..width],
                &bytes[tap.w_at..][..width],
                i64::from(small),
            );
        }
        prop_assert_eq!(&narrow, &slow);
        prop_assert!(wide.iter().zip(&slow).all(|(&a, &b)| a == i64::from(b)));
        prop_assert!(partial.iter().zip(&bytes_slow).all(|(&a, &b)| i64::from(a) == b));
        prop_assert!(bytes_narrow.iter().zip(&bytes_slow).all(|(&a, &b)| i64::from(a) == b));
    }

    /// The block kernel: `N` spikes (1..=4) of arbitrary weight rows and
    /// levels sharing taps (overlapping, repeated, flush with the slices)
    /// and a width from 0 to 67 equal the scalar oracle — `N` plain
    /// row updates per tap — in every (weight lane × accumulator)
    /// instantiation, with each member's level drawn from the one-µop
    /// edges of its width or at random.
    #[test]
    fn axpy_taps_blocks_match_scalar_oracle(
        weights in prop::collection::vec(i16::MIN..=i16::MAX, 68..260),
        width in 0usize..=67,
        placements in prop::collection::vec((0usize..1000, 0usize..1000), 0..6),
        members in prop::collection::vec((0usize..1000, 0usize..2 * NARROW_SEAM_LEVELS.len()), 4),
        seed in 0u64..u64::MAX,
    ) {
        let acc_len = width + 24;
        let row_len = width + 8;
        let taps: Vec<simd::Tap> = placements
            .iter()
            .map(|&(a, b)| simd::Tap {
                acc_at: a % (acc_len - width + 1),
                w_at: b % (row_len - width + 1),
            })
            .collect();
        let rows: Vec<&[i16]> = members
            .iter()
            .map(|&(at, _)| &weights[at % (weights.len() - row_len + 1)..][..row_len])
            .collect();
        let bytes: Vec<Vec<i8>> = rows.iter().map(|r| bytes_of(r)).collect();
        let byte_rows: Vec<&[i8]> = bytes.iter().map(Vec::as_slice).collect();
        let narrow: Vec<i32> = members
            .iter()
            .map(|&(_, sel)| match NARROW_SEAM_LEVELS.get(sel) {
                Some(&level) => level,
                None => (seed >> (sel % 40)) as i32,
            })
            .collect();
        let wide: Vec<i64> = members
            .iter()
            .map(|&(_, sel)| match WIDE_SEAM_LEVELS.get(sel) {
                Some(&level) => level,
                None => (seed >> (sel % 8)) as i64,
            })
            .collect();
        let partial: Vec<i16> = narrow.iter().map(|&level| level as i16).collect();
        check_blocks(&rows, &byte_rows, &taps, width, acc_len, seed, &narrow)?;
        check_blocks(&rows, &byte_rows, &taps, width, acc_len, seed, &wide)?;
        check_blocks(&rows, &byte_rows, &taps, width, acc_len, seed, &partial)?;
    }

    /// Ending a group: every partial sum is widen-added into its wide lane
    /// and cleared, at both `i16` edges.
    #[test]
    fn drain_partials_is_a_widening_add_that_clears(
        partial in prop::collection::vec(i16::MIN..=i16::MAX, 0..70),
        seed in 0u64..u64::MAX,
    ) {
        let mut partial = partial;
        let before = partial.clone();
        let mut wide: Vec<i32> = (0..partial.len())
            .map(|i| small_i64(i, seed, 1 << 30) as i32)
            .collect();
        let expected: Vec<i32> = wide.iter().zip(&before).map(|(&w, &p)| w + i32::from(p)).collect();
        simd::drain_partials(&mut wide, &mut partial);
        prop_assert_eq!(wide, expected);
        prop_assert!(partial.iter().all(|&p| p == 0));
    }

    /// The engine's gather, the closure-based `for_each_set_bit`: same
    /// positions, same (ascending) order as the per-bit oracle walk, for
    /// any base offset.
    #[test]
    fn set_bit_expansion_matches_plain_walk(
        len in 0usize..9,
        density in 0u64..5,
        seed in 0u64..u64::MAX,
        base in 0usize..100_000,
    ) {
        let words = word_row(len, density, seed);
        let mut plain = Vec::new();
        scalar::collect_set_bits(&words, base, &mut plain);
        let mut walked = Vec::new();
        bitplane::for_each_set_bit(&words, base, |p| walked.push(p as u32));
        prop_assert_eq!(&walked, &plain);
        let mut sorted = walked.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&walked, &sorted, "positions must ascend");
    }

    /// The one-pass occupancy keeps its definition: bit `x` of row `r` is
    /// set iff the masked level there is non-zero — the OR of the packed
    /// planes — and a row is silent iff no bit is.
    #[test]
    fn bitplane_structures_keep_their_definitions(
        width in 1usize..150,
        density in 0u64..=8,
        seed in 0u64..u64::MAX,
        rows in 1usize..4,
        time_steps in 0usize..9,
    ) {
        let levels = level_row(width, density, seed);
        let mut all = Vec::with_capacity(rows * width);
        for r in 0..rows {
            all.extend(levels.iter().map(|&v| v.rotate_left(r as u32)));
        }
        let mask = bitplane::level_mask(time_steps);
        let direct = Occupancy::from_levels(&all, rows, width, time_steps);
        let planes = BitPlanes::pack(&all, rows, width, time_steps);
        for r in 0..rows {
            let words = direct.row(r);
            let or = (0..time_steps).fold(vec![0u64; words.len()], |mut or, t| {
                or.iter_mut().zip(planes.row(t, r)).for_each(|(o, &p)| *o |= p);
                or
            });
            prop_assert_eq!(words, &or[..], "row {}", r);
            for x in 0..width {
                let bit = words[x / WORD_BITS] >> (x % WORD_BITS) & 1 == 1;
                prop_assert_eq!(bit, all[r * width + x] & mask != 0, "row {} x {}", r, x);
            }
            let silent = (0..width).all(|x| all[r * width + x] & mask == 0);
            prop_assert_eq!(direct.row_is_silent(r), silent, "row {}", r);
        }
    }
}
