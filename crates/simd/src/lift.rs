//! Contiguous lifting-step kernels for the wavelet transform.
//!
//! The per-line CDF kernels historically lifted the interleaved signal
//! `[s0 d0 s1 d1 ...]` with stride-2 loops. The blocked layout splits a
//! line into its even/odd halves first, after which every lifting step is
//! a *contiguous* elementwise loop — `d[i] += c * (s[i] + s[i+1])` — that
//! LLVM vectorizes at any baseline feature level. Each output element is
//! an independent expression with the same operand order as the strided
//! original, so the result is bit-identical (see crate docs).
//!
//! Generic over [`Float`]: the `f32` instantiation fits twice the lanes
//! of a vector register per window, halving the memory traffic of every
//! lifting pass.

use crate::float::Float;

/// `dst[i] += c * (a[i] + b[i])` for every lane. All slices must share a
/// length; `a`/`b` are typically the same band offset by one sample.
/// Scalar twin: [`scalar_lift_pairs`].
pub fn lift_pairs<T: Float>(dst: &mut [T], a: &[T], b: &[T], c: T) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    const W: usize = 8;
    let n = dst.len();
    let blocks = n / W * W;
    let (dv, dt) = dst.split_at_mut(blocks);
    // Equal-length chunked zips: bounds checks hoist, the block body
    // is W independent fused mul-adds.
    for ((db, ab), bb) in dv
        .chunks_exact_mut(W)
        .zip(a[..blocks].chunks_exact(W))
        .zip(b[..blocks].chunks_exact(W))
    {
        for ((d, &x), &y) in db.iter_mut().zip(ab).zip(bb) {
            *d += c * (x + y);
        }
    }
    for ((d, &x), &y) in dt.iter_mut().zip(&a[blocks..]).zip(&b[blocks..]) {
        *d += c * (x + y);
    }
}

/// Scalar reference for [`lift_pairs`].
pub fn scalar_lift_pairs<T: Float>(dst: &mut [T], a: &[T], b: &[T], c: T) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += c * (x + y);
    }
}

/// `x[i] *= f` for every lane. Scalar twin: [`scalar_scale_in_place`].
pub fn scale_in_place<T: Float>(x: &mut [T], f: T) {
    const W: usize = 8;
    let mut it = x.chunks_exact_mut(W);
    for b in it.by_ref() {
        for v in b {
            *v *= f;
        }
    }
    for v in it.into_remainder() {
        *v *= f;
    }
}

/// Scalar reference for [`scale_in_place`].
pub fn scalar_scale_in_place<T: Float>(x: &mut [T], f: T) {
    for v in x {
        *v *= f;
    }
}

/// De-interleaves `x = [s0 d0 s1 d1 ...]` into `even` (`ceil(n/2)` lanes)
/// and `odd` (`n/2` lanes). Scalar twin: [`scalar_split_even_odd`].
pub fn split_even_odd<T: Float>(x: &[T], even: &mut [T], odd: &mut [T]) {
    let n = x.len();
    assert_eq!(even.len(), n.div_ceil(2));
    assert_eq!(odd.len(), n / 2);
    let pairs = n / 2;
    // chunks_exact(2): one interleaved load per pair, split into the
    // two bands with shuffles.
    for ((p, e), o) in x.chunks_exact(2).zip(even.iter_mut()).zip(odd.iter_mut()) {
        *e = p[0];
        *o = p[1];
    }
    if n % 2 == 1 {
        even[pairs] = x[n - 1];
    }
}

/// Scalar reference for [`split_even_odd`].
pub fn scalar_split_even_odd<T: Float>(x: &[T], even: &mut [T], odd: &mut [T]) {
    let n = x.len();
    assert_eq!(even.len(), n.div_ceil(2));
    assert_eq!(odd.len(), n / 2);
    for (i, &v) in x.iter().enumerate() {
        if i % 2 == 0 {
            even[i / 2] = v;
        } else {
            odd[i / 2] = v;
        }
    }
}

/// Re-interleaves the even/odd bands into `x`; inverse of
/// [`split_even_odd`]. Scalar twin: [`scalar_merge_even_odd`].
pub fn merge_even_odd<T: Float>(even: &[T], odd: &[T], x: &mut [T]) {
    let n = x.len();
    assert_eq!(even.len(), n.div_ceil(2));
    assert_eq!(odd.len(), n / 2);
    let pairs = n / 2;
    for ((p, &e), &o) in x.chunks_exact_mut(2).zip(even.iter()).zip(odd.iter()) {
        p[0] = e;
        p[1] = o;
    }
    if n % 2 == 1 {
        x[n - 1] = even[pairs];
    }
}

/// Scalar reference for [`merge_even_odd`].
pub fn scalar_merge_even_odd<T: Float>(even: &[T], odd: &[T], x: &mut [T]) {
    let n = x.len();
    assert_eq!(even.len(), n.div_ceil(2));
    assert_eq!(odd.len(), n / 2);
    for (i, v) in x.iter_mut().enumerate() {
        *v = if i % 2 == 0 { even[i / 2] } else { odd[i / 2] };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_merge_roundtrip() {
        for n in 0..33usize {
            let x: Vec<f64> = (0..n).map(|i| i as f64 * 1.5 - 3.0).collect();
            let mut even = vec![0.0; n.div_ceil(2)];
            let mut odd = vec![0.0; n / 2];
            split_even_odd(&x, &mut even, &mut odd);
            let mut back = vec![0.0; n];
            merge_even_odd(&even, &odd, &mut back);
            assert_eq!(x, back, "n={n}");
        }
    }

    #[test]
    fn split_merge_roundtrip_f32() {
        for n in 0..33usize {
            let x: Vec<f32> = (0..n).map(|i| i as f32 * 1.5 - 3.0).collect();
            let mut even = vec![0.0f32; n.div_ceil(2)];
            let mut odd = vec![0.0f32; n / 2];
            split_even_odd(&x, &mut even, &mut odd);
            let mut back = vec![0.0f32; n];
            merge_even_odd(&even, &odd, &mut back);
            assert_eq!(x, back, "n={n}");
        }
    }

    #[test]
    fn lift_matches_scalar_bitwise() {
        let a: Vec<f64> = (0..23).map(|i| (i as f64).sin() * 7.3).collect();
        let b: Vec<f64> = (0..23).map(|i| (i as f64).cos() * -2.1).collect();
        let mut d1: Vec<f64> = (0..23).map(|i| i as f64 * 0.01).collect();
        let mut d2 = d1.clone();
        lift_pairs(&mut d1, &a, &b, -1.586);
        scalar_lift_pairs(&mut d2, &a, &b, -1.586);
        assert_eq!(
            d1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            d2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        scale_in_place(&mut d1, 1.23);
        scalar_scale_in_place(&mut d2, 1.23);
        assert_eq!(
            d1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            d2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lift_matches_scalar_bitwise_f32() {
        let a: Vec<f32> = (0..29).map(|i| (i as f32).sin() * 7.3).collect();
        let b: Vec<f32> = (0..29).map(|i| (i as f32).cos() * -2.1).collect();
        let mut d1: Vec<f32> = (0..29).map(|i| i as f32 * 0.01).collect();
        let mut d2 = d1.clone();
        lift_pairs(&mut d1, &a, &b, -1.586f32);
        scalar_lift_pairs(&mut d2, &a, &b, -1.586f32);
        assert_eq!(
            d1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            d2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        scale_in_place(&mut d1, 1.23f32);
        scalar_scale_in_place(&mut d2, 1.23f32);
        assert_eq!(
            d1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            d2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
