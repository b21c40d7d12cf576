//! Portable scalar kernels — the always-compiled oracle every SIMD path
//! is property-pinned against, and the dispatch target on hosts (or under
//! `SNN_SIMD=0`) where no vector path applies.

use super::{Accumulator, Level, Tap, WeightLane};

/// Packs one occupancy row: bit `x` of `out` set iff `levels[x] & mask != 0`.
pub fn pack_occupancy_row(levels: &[i64], mask: i64, out: &mut [u64]) {
    let needed = levels.len().div_ceil(64).max(1);
    for w in out.iter_mut().take(needed) {
        *w = 0;
    }
    for (x, &level) in levels.iter().enumerate() {
        if level & mask != 0 {
            out[x / 64] |= 1u64 << (x % 64);
        }
    }
}

/// `acc[i] += level * w[i]`, each weight widened to the accumulator element
/// first, in arithmetic wrapping at that element's width — the one oracle
/// of every (weight lane × accumulator) kernel.  Exact mod 2^64 in `i64`
/// lanes for any `level`; in `i32` (`i16`) lanes *equal* to the `i64` sum
/// whenever that sum fits the element, which is what the engine proves
/// before it runs them (`snn_model::packed::PackedWeights::sums_fit_i32`
/// and `i16_group`).
pub fn axpy<W: WeightLane, A: Accumulator>(acc: &mut [A], w: &[W], level: A) {
    for (a, &v) in acc.iter_mut().zip(w) {
        *a = a.wrapping_mul_add(v.into(), level);
    }
}

/// For every tap and member `m`, one [`axpy`] of `rows[m]` at `levels[m]`
/// into the tap's accumulator lanes, member after member — the oracle of
/// the block kernel `super::axpy_taps`, whose vector paths add the `N`
/// products of a lane in registers first.
pub fn axpy_taps<const N: usize, W: WeightLane, A: Accumulator>(
    acc: &mut [A],
    rows: [&[W]; N],
    taps: &[Tap],
    width: usize,
    levels: [A; N],
) {
    for tap in taps {
        let acc = &mut acc[tap.acc_at..][..width];
        for (row, &level) in rows.iter().zip(&levels) {
            axpy(acc, &row[tap.w_at..][..width], level);
        }
    }
}

/// Bit `k` set iff `levels[k] & mask != 0`, for at most 64 levels.
#[inline]
pub fn spiking<L: Level>(levels: &[L], mask: i64) -> u64 {
    levels.iter().enumerate().fold(0, |bits, (k, &level)| {
        bits | u64::from(level.into() & mask != 0) << k
    })
}

/// `Σ popcount(level & mask)` over `levels`.
pub fn count_spikes<L: Level>(levels: &[L], mask: i64) -> u64 {
    levels
        .iter()
        .map(|&level| u64::from(level.spikes(mask)))
        .sum()
}

/// For every sum, the number of `thresholds` (ascending) that it plus its
/// lane's bias reaches, by binary search — the oracle of the level
/// epilogue `super::drain_levels`.
pub fn drain_levels<A: Accumulator + Ord, L: Level>(
    acc: &[A],
    lanes: usize,
    bias: &[A],
    thresholds: &[A],
    out: &mut [L],
) {
    for (row, out) in acc.chunks_exact(lanes).zip(out.chunks_exact_mut(lanes)) {
        for ((&sum, &bias), level) in row.iter().zip(bias).zip(out) {
            let x = sum.wrapping_add_partial(bias);
            *level = L::from_count(thresholds.partition_point(|&t| t <= x));
        }
    }
}

/// Per-bit expansion of set bits into ascending positions
/// (`base + bit_index`, appended to `out`) via the
/// `trailing_zeros`/`clear-lowest` walk — the oracle
/// `crate::bitplane::for_each_set_bit`, the engine's gather, is pinned
/// against.
pub fn collect_set_bits(words: &[u64], base: usize, out: &mut Vec<u32>) {
    for (word_index, &word) in words.iter().enumerate() {
        let mut remaining = word;
        while remaining != 0 {
            let bit = remaining.trailing_zeros() as usize;
            out.push((base + word_index * 64 + bit) as u32);
            remaining &= remaining - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_set_bits_appends_ascending_positions_from_base() {
        let mut words = vec![0u64; 3];
        for bit in [0usize, 3, 63, 64, 67, 130, 191] {
            words[bit / 64] |= 1 << (bit % 64);
        }
        let mut out = vec![99u32]; // pre-existing content is kept
        collect_set_bits(&words, 10, &mut out);
        assert_eq!(out, vec![99, 10, 13, 73, 74, 77, 140, 201]);
    }
}
