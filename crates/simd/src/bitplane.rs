//! Bitplane gather/scatter kernels for SPECK's word-packed refinement:
//! collect bit `n` of up to 64 magnitudes into one packed word (encoder)
//! and turn a stack of per-plane refinement words back into magnitudes
//! with a bit-matrix transpose (decoder).

/// Packs bit `n` of each magnitude into one word, lane `j` = bit `n` of
/// `ks[j]`. `ks.len()` must be at most 64. Scalar twin:
/// [`scalar_plane_word_u64`].
pub fn plane_word_u64(ks: &[u64], n: u32) -> u64 {
    debug_assert!(ks.len() <= 64);
    // Per-lane shift/mask then a lane-indexed OR-reduction. Written
    // as two fixed-width passes (extract into a block, fold the
    // block) so the extraction loop vectorizes even when the
    // reduction does not.
    const W: usize = 8;
    let mut word = 0u64;
    let mut base = 0usize;
    let mut chunks = ks.chunks_exact(W);
    for c in chunks.by_ref() {
        let mut lanes = [0u64; W];
        for (l, &kv) in lanes.iter_mut().zip(c) {
            *l = (kv >> n) & 1;
        }
        for (j, &l) in lanes.iter().enumerate() {
            word |= l << (base + j);
        }
        base += W;
    }
    for (j, &kv) in chunks.remainder().iter().enumerate() {
        word |= ((kv >> n) & 1) << (base + j);
    }
    word
}

/// Scalar reference for [`plane_word_u64`].
pub fn scalar_plane_word_u64(ks: &[u64], n: u32) -> u64 {
    let mut word = 0u64;
    for (j, &kv) in ks.iter().enumerate() {
        word |= ((kv >> n) & 1) << j;
    }
    word
}

/// [`plane_word_u64`] over narrow magnitudes (the coder stores the LSP
/// as `u32` when every magnitude fits, halving refinement memory
/// traffic). Scalar twin: [`scalar_plane_word_u32`].
pub fn plane_word_u32(ks: &[u32], n: u32) -> u64 {
    debug_assert!(ks.len() <= 64);
    const W: usize = 8;
    let mut word = 0u64;
    let mut base = 0usize;
    let mut chunks = ks.chunks_exact(W);
    for c in chunks.by_ref() {
        let mut lanes = [0u32; W];
        for (l, &kv) in lanes.iter_mut().zip(c) {
            *l = (kv >> n) & 1;
        }
        for (j, &l) in lanes.iter().enumerate() {
            word |= (l as u64) << (base + j);
        }
        base += W;
    }
    for (j, &kv) in chunks.remainder().iter().enumerate() {
        word |= (((kv >> n) & 1) as u64) << (base + j);
    }
    word
}

/// Scalar reference for [`plane_word_u32`].
pub fn scalar_plane_word_u32(ks: &[u32], n: u32) -> u64 {
    let mut word = 0u64;
    for (j, &kv) in ks.iter().enumerate() {
        word |= (((kv >> n) & 1) as u64) << j;
    }
    word
}

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
/// reads back one magnitude per entry. Six block-swap stages of 32 row
/// pairs each (Hacker's Delight §7-3, LSB-first). Scalar twin:
/// [`scalar_transpose_64x64`].
pub fn transpose_64x64(m: &mut [u64; 64]) {
    swap_stage(m, 32, 0x0000_0000_ffff_ffff);
    swap_stage(m, 16, 0x0000_ffff_0000_ffff);
    swap_stage(m, 8, 0x00ff_00ff_00ff_00ff);
    swap_stage(m, 4, 0x0f0f_0f0f_0f0f_0f0f);
    swap_stage(m, 2, 0x3333_3333_3333_3333);
    swap_stage(m, 1, 0x5555_5555_5555_5555);
}

/// Scalar reference for [`transpose_64x64`]: one bit at a time.
pub fn scalar_transpose_64x64(m: &mut [u64; 64]) {
    let src = *m;
    for (c, out) in m.iter_mut().enumerate() {
        *out = 0;
        for (r, &row) in src.iter().enumerate() {
            *out |= ((row >> c) & 1) << r;
        }
    }
}

/// Transposes a 32-row × 64-column bit matrix in place, as two 32×32
/// transposes run side by side in the halves of each word: afterwards
/// the low half of `m[c]` holds column `c` and the high half column
/// `c + 32` (bit `r` of a half = what bit `c` / `c + 32` of `m[r]` was).
/// Five stages of 16 row pairs — 2.4× less work than [`transpose_64x64`]
/// for the common `num_planes <= 32` decode. Scalar twin:
/// [`scalar_transpose_32x64`].
pub fn transpose_32x64(m: &mut [u64; 32]) {
    swap_stage(m, 16, 0x0000_ffff_0000_ffff);
    swap_stage(m, 8, 0x00ff_00ff_00ff_00ff);
    swap_stage(m, 4, 0x0f0f_0f0f_0f0f_0f0f);
    swap_stage(m, 2, 0x3333_3333_3333_3333);
    swap_stage(m, 1, 0x5555_5555_5555_5555);
}

/// Scalar reference for [`transpose_32x64`]: one bit at a time.
pub fn scalar_transpose_32x64(m: &mut [u64; 32]) {
    let src = *m;
    for (c, out) in m.iter_mut().enumerate() {
        *out = 0;
        for (r, &row) in src.iter().enumerate() {
            *out |= ((row >> c) & 1) << r | ((row >> (c + 32)) & 1) << (r + 32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_word_matches_scalar() {
        let ks: Vec<u64> = (0..64).map(|i| (i * 2654435761u64) >> 3).collect();
        for n in [0u32, 1, 13, 31, 62] {
            assert_eq!(plane_word_u64(&ks, n), scalar_plane_word_u64(&ks, n));
        }
        let ks32: Vec<u32> = ks.iter().map(|&k| k as u32).collect();
        for n in [0u32, 7, 31] {
            assert_eq!(plane_word_u32(&ks32, n), scalar_plane_word_u32(&ks32, n));
        }
    }

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
            let (mut fast, mut slow) = (src, src);
            transpose_64x64(&mut fast);
            scalar_transpose_64x64(&mut slow);
            assert_eq!(fast, slow, "seed {seed}");
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
            let (mut fast, mut slow) = (src, src);
            transpose_32x64(&mut fast);
            scalar_transpose_32x64(&mut slow);
            assert_eq!(fast, slow, "seed {seed}");
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
