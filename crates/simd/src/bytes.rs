//! Byte-lane kernels: the pairwise maximum that coarsens SPECK's
//! significance bytes one partition level at a time, and the SWAR
//! movemask-style run scan that feeds its run-coalesced zero emission.

/// Pairwise horizontal maximum: `dst[i] = max(src[2i], src[2i+1])`, with
/// an odd trailing element passing through unchanged. `dst` must hold
/// `ceil(src.len() / 2)` elements. This is one halving step of the
/// dyadic geometry's significance bytes.
pub fn pairwise_max_into(src: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len().div_ceil(2));
    let pairs = src.len() / 2;
    let (dst_pairs, dst_tail) = dst.split_at_mut(pairs);
    // chunks_exact(2) + zip: a stride-2 interleaved-load pattern LLVM
    // recognizes (shuffle + vertical max), scalar tail below.
    for (d, p) in dst_pairs.iter_mut().zip(src.chunks_exact(2)) {
        *d = p[0].max(p[1]);
    }
    if let Some(d) = dst_tail.first_mut() {
        *d = src[src.len() - 1];
    }
}

/// Length of the longest prefix of `bytes` in which every byte is
/// `<= t`. Requires `t < 128` and every byte `< 128` (SPECK's packed
/// `msb_plus1` values are at most 64, bitplane indices at most 63).
///
/// This is the movemask-style significance scan: 8 lanes are tested per
/// step with one SWAR compare — `b > t` sets lane bit 7 of
/// `b + (127 - t)` exactly when `b, t < 128` — and the first significant
/// lane is located with a trailing-zeros count. The returned run length
/// feeds the coder's bulk zero emission and `copy_within` retention.
pub fn run_le(bytes: &[u8], t: u8) -> usize {
    debug_assert!(t < 128);
    const HI: u64 = 0x8080_8080_8080_8080;
    const LO: u64 = 0x0101_0101_0101_0101;
    let bias = LO * (127 - t) as u64;
    let mut chunks = bytes.chunks_exact(8);
    let mut run = 0usize;
    for c in chunks.by_ref() {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        debug_assert_eq!(w & HI, 0, "run_le bytes must be < 128");
        let mask = w.wrapping_add(bias) & HI;
        if mask != 0 {
            return run + (mask.trailing_zeros() / 8) as usize;
        }
        run += 8;
    }
    for &b in chunks.remainder() {
        if b > t {
            return run;
        }
        run += 1;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_le_basic() {
        assert_eq!(run_le(&[], 5), 0);
        assert_eq!(run_le(&[5, 5, 5], 5), 3);
        assert_eq!(run_le(&[6], 5), 0);
        assert_eq!(run_le(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 1], 8), 8);
        let long: Vec<u8> = (0..100).map(|i| if i == 77 { 64 } else { 3 }).collect();
        assert_eq!(run_le(&long, 63), 77);
        assert_eq!(run_le(&long, 64), 100);
    }

    #[test]
    fn pairwise_odd_tail() {
        let src = [3u8, 1, 4, 1, 5];
        let mut dst = [0u8; 3];
        pairwise_max_into(&src, &mut dst);
        assert_eq!(dst, [3, 4, 5]);
    }
}
