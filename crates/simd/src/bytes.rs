//! Byte-lane kernels: horizontal/elementwise/pairwise maxima for the
//! significance pyramid, and the SWAR movemask-style run scan that feeds
//! SPECK's run-coalesced zero emission.

use crate::Lane;

/// Block width for the generic integer max kernels. 16 lanes is one SSE2
/// register of `u8`, two of `u32`, four of `u64`; LLVM splits or fuses as
/// the lane width dictates.
const W: usize = 16;

/// Horizontal maximum of a slice (`T::default()` for an empty one).
///
/// Scalar twin: [`scalar_max_elem`].
pub fn max_elem<T: Lane>(a: &[T]) -> T {
    let mut chunks = a.chunks_exact(W);
    let mut acc = [T::default(); W];
    for c in chunks.by_ref() {
        // One independent max tree per lane: vectorizes to a pmaxu-
        // style op per block, horizontal reduction only at the end.
        for (l, &v) in acc.iter_mut().zip(c) {
            *l = (*l).max(v);
        }
    }
    let mut m = T::default();
    for &v in &acc {
        m = m.max(v);
    }
    for &v in chunks.remainder() {
        m = m.max(v);
    }
    m
}

/// Scalar reference for [`max_elem`].
pub fn scalar_max_elem<T: Lane>(a: &[T]) -> T {
    a.iter().copied().fold(T::default(), T::max)
}

/// Elementwise `dst[i] = max(dst[i], src[i])`. Slices must be equal
/// length. Scalar twin: [`scalar_max_assign`].
pub fn max_assign<T: Lane>(dst: &mut [T], src: &[T]) {
    assert_eq!(dst.len(), src.len());
    // Straight-line elementwise loop over equal-length slices: the
    // assert above lets LLVM drop the bounds checks and vectorize.
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).max(s);
    }
}

/// Scalar reference for [`max_assign`].
pub fn scalar_max_assign<T: Lane>(dst: &mut [T], src: &[T]) {
    assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).max(s);
    }
}

/// Pairwise horizontal maximum: `dst[i] = max(src[2i], src[2i+1])`, with
/// an odd trailing element passing through unchanged. `dst` must hold
/// `ceil(src.len() / 2)` elements. This is one axis-0 halving step of the
/// max pyramid. Scalar twin: [`scalar_pairwise_max_into`].
pub fn pairwise_max_into<T: Lane>(src: &[T], dst: &mut [T]) {
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

/// Scalar reference for [`pairwise_max_into`].
pub fn scalar_pairwise_max_into<T: Lane>(src: &[T], dst: &mut [T]) {
    assert_eq!(dst.len(), src.len().div_ceil(2));
    for (i, d) in dst.iter_mut().enumerate() {
        let a = src[2 * i];
        *d = match src.get(2 * i + 1) {
            Some(&b) => a.max(b),
            None => a,
        };
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
/// Scalar twin: [`scalar_run_le`].
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

/// Scalar reference for [`run_le`].
pub fn scalar_run_le(bytes: &[u8], t: u8) -> usize {
    bytes.iter().take_while(|&&b| b <= t).count()
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

    #[test]
    fn max_kernels_match_scalar_u64() {
        let v: Vec<u64> = (0..37).map(|i| (i * 2654435761u64) >> 13).collect();
        assert_eq!(max_elem(&v), scalar_max_elem(&v));
        let mut a = v.clone();
        let mut b = v.clone();
        a.reverse();
        let mut a2 = a.clone();
        max_assign(&mut a, &v);
        scalar_max_assign(&mut a2, &v);
        assert_eq!(a, a2);
        b.rotate_left(5);
        let mut d1 = vec![0u64; b.len().div_ceil(2)];
        let mut d2 = d1.clone();
        pairwise_max_into(&b, &mut d1);
        scalar_pairwise_max_into(&b, &mut d2);
        assert_eq!(d1, d2);
    }
}
