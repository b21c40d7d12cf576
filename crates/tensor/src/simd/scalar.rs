//! Portable scalar kernels — the always-compiled oracle every SIMD path
//! is property-pinned against, and the dispatch target on hosts (or under
//! `SNN_SIMD=0`) where no vector path applies.

/// `acc[i] |= src[i]` over packed words.
pub fn or_accumulate(acc: &mut [u64], src: &[u64]) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a |= s;
    }
}

/// Total number of set bits across `words`.
pub fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

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

/// `acc[i] += level * w[i]`, each `i16` weight widened to `i64` first,
/// in wrapping `i64` arithmetic (exact mod 2^64 for any `level`).
pub fn axpy_i16(acc: &mut [i64], w: &[i16], level: i64) {
    for (a, &v) in acc.iter_mut().zip(w) {
        *a = a.wrapping_add(i64::from(v).wrapping_mul(level));
    }
}

/// `acc[i] += level * w[i]` in wrapping `i32` arithmetic — the narrow
/// accumulator's oracle.  Exact mod 2^32; *equal* to the `i64` sum whenever
/// that sum fits `i32`, which is what the engine proves before it runs this
/// (`snn_model::packed::PackedWeights::sums_fit_i32`).
pub fn axpy_i16_i32(acc: &mut [i32], w: &[i16], level: i32) {
    for (a, &v) in acc.iter_mut().zip(w) {
        *a = a.wrapping_add(i32::from(v).wrapping_mul(level));
    }
}

/// Per-bit expansion of set bits into ascending positions via the
/// `trailing_zeros`/`clear-lowest` walk: work proportional to the set
/// bits, which makes it the dispatched path (and the oracle for
/// [`collect_set_bits_batched`]).
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

/// Byte-position table: entry `b` holds the bit positions set in the byte
/// `b`, packed one per nibble-free `u8`, plus the count.  Built once.
struct ByteTable {
    positions: [[u8; 8]; 256],
    counts: [u8; 256],
}

static BYTE_TABLE: ByteTable = {
    let mut positions = [[0u8; 8]; 256];
    let mut counts = [0u8; 256];
    let mut byte = 0usize;
    while byte < 256 {
        let mut count = 0u8;
        let mut bit = 0u8;
        while bit < 8 {
            if byte & (1usize << bit) != 0 {
                positions[byte][count as usize] = bit;
                count += 1;
            }
            bit += 1;
        }
        counts[byte] = count;
        byte += 1;
    }
    ByteTable { positions, counts }
};

/// Word-batched bitmask expansion: each non-zero byte of each word is
/// expanded through `BYTE_TABLE` (no per-bit branches), appending
/// ascending positions `base + bit_index` to `out`.  Its fixed
/// 8-bytes-per-word walk only pays off on near-saturated rows, so
/// [`collect_set_bits`] dispatches the per-bit walk; this stays as the
/// pinned alternate (see the `simd_kernels/sparse_gather` bench).
pub fn collect_set_bits_batched(words: &[u64], base: usize, out: &mut Vec<u32>) {
    for (word_index, &word) in words.iter().enumerate() {
        if word == 0 {
            continue;
        }
        let word_base = (base + word_index * 64) as u32;
        let mut bytes = word;
        let mut byte_index = 0u32;
        while bytes != 0 {
            let byte = (bytes & 0xff) as usize;
            if byte != 0 {
                let count = BYTE_TABLE.counts[byte] as usize;
                let table = &BYTE_TABLE.positions[byte];
                let offset = word_base + byte_index * 8;
                out.reserve(count);
                for &p in table.iter().take(count) {
                    out.push(offset + u32::from(p));
                }
            }
            bytes >>= 8;
            byte_index += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_expansion_equals_plain_walk_on_dense_words() {
        let words = vec![u64::MAX, 0, 0x8000_0000_0000_0001];
        let mut plain = Vec::new();
        collect_set_bits(&words, 5, &mut plain);
        let mut batched = Vec::new();
        collect_set_bits_batched(&words, 5, &mut batched);
        assert_eq!(plain, batched);
        assert_eq!(plain.len(), 66);
    }

    #[test]
    fn byte_table_is_consistent() {
        for byte in 0usize..256 {
            let count = BYTE_TABLE.counts[byte] as u32;
            assert_eq!(count, byte.count_ones());
            for i in 0..count as usize {
                let bit = BYTE_TABLE.positions[byte][i];
                assert!(byte & (1 << bit) != 0);
            }
        }
    }
}
