//! Packed binary spike planes for word-level sparse traversal.
//!
//! The accelerator processes radix-encoded activations one binary plane per
//! time step: at step `t` the hardware sees bit `T - 1 - t` of every
//! activation level (MSB first).  This module packs those planes into `u64`
//! row words so software models can skip silent regions 64 positions at a
//! time instead of testing one `(pixel, bit)` pair per cycle:
//!
//! * [`BitPlanes`] — all `T` planes of a row-major `[rows, width]` level
//!   array, one packed bit row per `(plane, row)` pair.
//! * [`Occupancy`] — the OR-reduction of the planes: bit `x` of row `r` is
//!   set iff the level at `(r, x)` spikes in *any* time step.  Iterating
//!   the occupancy's set bits visits exactly the pixels that contribute to
//!   an output, which (by the radix shift-and-add identity) is all a
//!   bit-exact sparse execution engine needs.
//! * [`for_each_set_bit`] — word-at-a-time set-bit traversal.
//! * [`popcount_levels`] — the spikes of a level array over all 64 bits.

/// Bits per packed word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold one packed row of `width` bits.
pub fn words_per_row(width: usize) -> usize {
    width.div_ceil(WORD_BITS).max(1)
}

/// Mask selecting the `time_steps` low bits of a level — the bits a
/// spike train of length `time_steps` can represent.  Levels are masked
/// with this before packing, so levels outside the representable range
/// contribute exactly the bits the cycle-accurate schedule would see.
pub fn level_mask(time_steps: usize) -> i64 {
    if time_steps >= 63 {
        i64::MAX
    } else {
        (1i64 << time_steps) - 1
    }
}

/// Sum of the set bits of `levels` over the full 64-bit words (no plane
/// masking) — the total number of spikes a unit streaming every bit of
/// every level would see.
pub fn popcount_levels(levels: &[i64]) -> u64 {
    levels.iter().map(|&v| v.count_ones() as u64).sum()
}

/// Calls `f(base + position)` for every set bit in the packed row
/// `words`, in ascending position order.  `base` is the absolute index of
/// bit 0 of `words[0]`, so band paths can traverse a sub-row slice
/// without re-deriving `word_index * WORD_BITS` offsets at every call
/// site.  Pinned against the oracle [`crate::simd::scalar::collect_set_bits`].
pub fn for_each_set_bit(words: &[u64], base: usize, mut f: impl FnMut(usize)) {
    for (word_index, &word) in words.iter().enumerate() {
        let mut remaining = word;
        while remaining != 0 {
            let bit = remaining.trailing_zeros() as usize;
            f(base + word_index * WORD_BITS + bit);
            remaining &= remaining - 1;
        }
    }
}

/// All `T` binary planes of a `[rows, width]` level array, packed into
/// `u64` row words, MSB-first: plane `t` holds bit `T - 1 - t` of each
/// level, matching the accelerator's time-step order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlanes {
    time_steps: usize,
    rows: usize,
    width: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitPlanes {
    /// Packs a row-major `[rows, width]` level slice into `time_steps`
    /// binary planes.  Levels are masked with [`level_mask`] first.
    ///
    /// # Panics
    ///
    /// Panics when `levels.len() != rows * width`.
    pub fn pack(levels: &[i64], rows: usize, width: usize, time_steps: usize) -> Self {
        assert_eq!(
            levels.len(),
            rows * width,
            "level slice does not match rows x width"
        );
        let wpr = words_per_row(width);
        let mask = level_mask(time_steps);
        let mut data = vec![0u64; time_steps * rows * wpr];
        for t in 0..time_steps {
            let bit = time_steps - 1 - t;
            if bit >= 63 {
                continue; // beyond the i64 payload: never set after masking
            }
            let plane = &mut data[t * rows * wpr..(t + 1) * rows * wpr];
            for row in 0..rows {
                let row_levels = &levels[row * width..(row + 1) * width];
                let row_words = &mut plane[row * wpr..(row + 1) * wpr];
                for (x, &level) in row_levels.iter().enumerate() {
                    if ((level & mask) >> bit) & 1 == 1 {
                        row_words[x / WORD_BITS] |= 1u64 << (x % WORD_BITS);
                    }
                }
            }
        }
        BitPlanes {
            time_steps,
            rows,
            width,
            words_per_row: wpr,
            data,
        }
    }

    /// Number of planes (time steps).
    pub fn time_steps(&self) -> usize {
        self.time_steps
    }

    /// Number of packed rows per plane.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bits per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Packed words per row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of `row` in plane `t` (time step `t`, MSB first).
    pub fn row(&self, t: usize, row: usize) -> &[u64] {
        let start = (t * self.rows + row) * self.words_per_row;
        &self.data[start..start + self.words_per_row]
    }
}

/// Per-position spike occupancy: bit `x` of row `r` is set iff the level
/// at `(r, x)` spikes in at least one time step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Occupancy {
    rows: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl Occupancy {
    /// Builds the occupancy directly from a row-major `[rows, width]` level
    /// slice in one pass: bit `x` of row `r` is set iff
    /// `levels[r * width + x] & level_mask(time_steps) != 0` — the
    /// OR-reduction of the `time_steps` planes, without materialising
    /// them.
    ///
    /// # Panics
    ///
    /// Panics when `levels.len() != rows * width`.
    pub fn from_levels(levels: &[i64], rows: usize, width: usize, time_steps: usize) -> Self {
        let mut occupancy = Occupancy::default();
        occupancy.refill(levels, rows, width, time_steps);
        occupancy
    }

    /// [`Occupancy::from_levels`] into this value, reusing its words.
    ///
    /// # Panics
    ///
    /// Panics when `levels.len() != rows * width`.
    pub fn refill(&mut self, levels: &[i64], rows: usize, width: usize, time_steps: usize) {
        assert_eq!(
            levels.len(),
            rows * width,
            "level slice does not match rows x width"
        );
        let wpr = words_per_row(width);
        let mask = level_mask(time_steps);
        self.rows = rows;
        self.words_per_row = wpr;
        // Every word is overwritten below, whatever an earlier fill left.
        self.data.resize(rows * wpr, 0);
        for row in 0..rows {
            let row_levels = &levels[row * width..(row + 1) * width];
            let row_words = &mut self.data[row * wpr..(row + 1) * wpr];
            crate::simd::pack_occupancy_row(row_levels, mask, row_words);
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The packed occupancy words of `row`.
    pub fn row(&self, row: usize) -> &[u64] {
        let start = row * self.words_per_row;
        &self.data[start..start + self.words_per_row]
    }

    /// `true` when no position of `row` ever spikes — lets callers skip
    /// whole rows with one comparison per word.
    pub fn row_is_silent(&self, row: usize) -> bool {
        self.row(row).iter().all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_mask_matches_representable_range() {
        assert_eq!(level_mask(0), 0);
        assert_eq!(level_mask(1), 1);
        assert_eq!(level_mask(3), 7);
        assert_eq!(level_mask(63), i64::MAX);
        assert_eq!(level_mask(80), i64::MAX);
    }

    #[test]
    fn planes_are_msb_first() {
        // Level 6 = 0b110 over T=3: spikes at t=0 (bit 2) and t=1 (bit 1).
        let planes = BitPlanes::pack(&[6], 1, 1, 3);
        assert_eq!(planes.row(0, 0), &[1]);
        assert_eq!(planes.row(1, 0), &[1]);
        assert_eq!(planes.row(2, 0), &[0]);
    }

    #[test]
    fn packing_matches_shift_and_test() {
        let levels: Vec<i64> = (0..150).map(|v| (v * 37) % 16).collect();
        let (rows, width, t_steps) = (2, 75, 4);
        let planes = BitPlanes::pack(&levels, rows, width, t_steps);
        for t in 0..t_steps {
            let bit = t_steps - 1 - t;
            for row in 0..rows {
                let words = planes.row(t, row);
                for x in 0..width {
                    let expected = (levels[row * width + x] >> bit) & 1 == 1;
                    let actual = words[x / WORD_BITS] >> (x % WORD_BITS) & 1 == 1;
                    assert_eq!(actual, expected, "t={t} row={row} x={x}");
                }
            }
        }
    }

    /// The positions of the set bits of `occupancy`'s rows.
    fn set_positions(occupancy: &Occupancy) -> Vec<(usize, usize)> {
        let mut set = Vec::new();
        for row in 0..occupancy.rows() {
            for_each_set_bit(occupancy.row(row), 0, |x| set.push((row, x)));
        }
        set
    }

    #[test]
    fn occupancy_is_or_of_planes() {
        let levels = vec![0i64, 1, 4, 0, 6, 0, 0, 7];
        let occ = Occupancy::from_levels(&levels, 2, 4, 3);
        assert_eq!(set_positions(&occ), vec![(0, 1), (0, 2), (1, 0), (1, 3)]);
        let planes = BitPlanes::pack(&levels, 2, 4, 3);
        for row in 0..2 {
            let or = (0..3).fold(0u64, |or, t| or | planes.row(t, row)[0]);
            assert_eq!(occ.row(row), &[or], "row {row}");
        }
        assert!(!occ.row_is_silent(0));
        assert!(Occupancy::from_levels(&[0, 0, 0], 1, 3, 5).row_is_silent(0));
    }

    #[test]
    fn from_levels_sets_a_bit_iff_the_masked_level_is_non_zero() {
        let levels: Vec<i64> = (0..90).map(|v| ((v * 53) % 9) as i64 - 1).collect();
        for t_steps in [0, 1, 3, 7, 63, 64] {
            let mask = level_mask(t_steps);
            let direct = Occupancy::from_levels(&levels, 3, 30, t_steps);
            let expected: Vec<(usize, usize)> = (0..90)
                .filter(|&i| levels[i] & mask != 0)
                .map(|i| (i / 30, i % 30))
                .collect();
            assert_eq!(set_positions(&direct), expected, "T={t_steps}");
        }
    }

    #[test]
    fn set_bit_iteration_crosses_word_boundaries() {
        let levels: Vec<i64> = (0..130).map(|x| i64::from(x % 67 == 0)).collect();
        let planes = BitPlanes::pack(&levels, 1, 130, 1);
        let mut hits = Vec::new();
        for_each_set_bit(planes.row(0, 0), 0, |x| hits.push(x));
        assert_eq!(hits, vec![0, 67]);
        let mut offset_hits = Vec::new();
        for_each_set_bit(planes.row(0, 0), 1000, |x| offset_hits.push(x));
        assert_eq!(offset_hits, vec![1000, 1067]);
    }

    #[test]
    fn negative_levels_pack_only_the_masked_payload() {
        // -1 has every payload bit set; with T=2 only the two low bits
        // survive the mask, exactly what the cycle-by-cycle schedule sees.
        let planes = BitPlanes::pack(&[-1, 0], 1, 2, 2);
        assert_eq!(planes.row(0, 0), &[1]);
        assert_eq!(planes.row(1, 0), &[1]);
    }

    #[test]
    fn zero_time_steps_produce_no_planes() {
        let planes = BitPlanes::pack(&[5, 3], 1, 2, 0);
        assert_eq!(planes.time_steps(), 0);
        assert!(Occupancy::from_levels(&[5, 3], 1, 2, 0).row_is_silent(0));
    }

    #[test]
    #[should_panic(expected = "rows x width")]
    fn mismatched_slice_is_rejected() {
        BitPlanes::pack(&[1, 2, 3], 2, 2, 1);
    }
}
