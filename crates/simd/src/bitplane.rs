//! Bit-matrix transposes for SPECK's deferred refinement: 64 magnitudes
//! become one packed word per bitplane (encoder), and a stack of
//! per-plane refinement words becomes 64 magnitudes again (decoder) — the
//! same transpose, which is its own inverse.

/// One stage of the recursive block-swap transpose: for every row pair
/// `(k, k + j)` exchanges the bit block at columns `[j, 2j)` of row `k`
/// with the block at columns `[0, j)` of row `k + j` (`mask` selects the
/// low `j` columns of every `2j`-column group).
#[inline(always)]
fn swap_stage<const N: usize>(m: &mut [u64; N], j: usize, mask: u64) {
    let mut k = 0;
    while k < N {
        let t = ((m[k] >> j) ^ m[k + j]) & mask;
        m[k] ^= t << j;
        m[k + j] ^= t;
        k = (k + j + 1) & !j;
    }
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `r` of `m[c]`
/// is what bit `c` of `m[r]` was. The SPECK decoder feeds it one 64-bit
/// refinement window per bitplane (row = plane, column = LSP entry) and
/// reads back one magnitude per entry; the encoder feeds it magnitudes
/// and reads back the plane words. Six block-swap stages of 32 row
/// pairs each (Hacker's Delight §7-3, LSB-first).
pub fn transpose_64x64(m: &mut [u64; 64]) {
    swap_stage(m, 32, 0x0000_0000_ffff_ffff);
    swap_stage(m, 16, 0x0000_ffff_0000_ffff);
    swap_stage(m, 8, 0x00ff_00ff_00ff_00ff);
    swap_stage(m, 4, 0x0f0f_0f0f_0f0f_0f0f);
    swap_stage(m, 2, 0x3333_3333_3333_3333);
    swap_stage(m, 1, 0x5555_5555_5555_5555);
}

/// Transposes a 32-row × 64-column bit matrix in place, as two 32×32
/// transposes run side by side in the halves of each word: afterwards
/// the low half of `m[c]` holds column `c` and the high half column
/// `c + 32` (bit `r` of a half = what bit `c` / `c + 32` of `m[r]` was).
/// Five stages of 16 row pairs — 2.4× less work than [`transpose_64x64`]
/// for the common `num_planes <= 32` decode.
pub fn transpose_32x64(m: &mut [u64; 32]) {
    swap_stage(m, 16, 0x0000_ffff_0000_ffff);
    swap_stage(m, 8, 0x00ff_00ff_00ff_00ff);
    swap_stage(m, 4, 0x0f0f_0f0f_0f0f_0f0f);
    swap_stage(m, 2, 0x3333_3333_3333_3333);
    swap_stage(m, 1, 0x5555_5555_5555_5555);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_rows<const N: usize>(seed: u64) -> [u64; N] {
        let mut x = seed | 1;
        std::array::from_fn(|_| {
            // xorshift64*
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        })
    }

    #[test]
    fn transpose_64x64_matches_scalar_and_bit_loop() {
        for seed in [1u64, 0xdead_beef, u64::MAX, 42] {
            let src: [u64; 64] = mixed_rows(seed);
            let mut fast = src;
            transpose_64x64(&mut fast);
            for r in 0..64 {
                for c in 0..64 {
                    assert_eq!((fast[c] >> r) & 1, (src[r] >> c) & 1, "seed {seed} r={r} c={c}");
                }
            }
            // An involution: transposing twice restores the input.
            transpose_64x64(&mut fast);
            assert_eq!(fast, src);
        }
    }

    #[test]
    fn transpose_32x64_matches_scalar_and_bit_loop() {
        for seed in [3u64, 0x1234_5678_9abc_def0, u64::MAX, 77] {
            let src: [u64; 32] = mixed_rows(seed);
            let mut fast = src;
            transpose_32x64(&mut fast);
            for r in 0..32 {
                for c in 0..64 {
                    let got = (fast[c % 32] >> (r + 32 * (c / 32))) & 1;
                    assert_eq!(got, (src[r] >> c) & 1, "seed {seed} r={r} c={c}");
                }
            }
        }
    }

    #[test]
    fn transpose_single_bits_land_where_expected() {
        let mut m = [0u64; 64];
        m[5] = 1 << 40; // plane 5, entry 40
        transpose_64x64(&mut m);
        assert_eq!(m[40], 1 << 5);
        assert_eq!(m.iter().filter(|&&w| w != 0).count(), 1);
        let mut n = [0u64; 32];
        n[31] = 1 << 63 | 1; // plane 31, entries 63 and 0
        transpose_32x64(&mut n);
        assert_eq!(n[0], 1 << 31);
        assert_eq!(n[31], 1 << 63);
    }
}
