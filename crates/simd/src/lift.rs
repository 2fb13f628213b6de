//! Contiguous lifting-step kernels for the wavelet transform.
//!
//! The per-line CDF kernels split a line into its even/odd halves first
//! ([`split_even_odd`]), after which every lifting step is a
//! *contiguous* elementwise loop — `d[i] += c * (s[i] + s[i+1])` — over
//! the bands, instead of a stride-2 loop over the interleaved signal
//! `[s0 d0 s1 d1 ...]`. Each output element is an independent expression
//! with the same operand order as the strided original, so the result is
//! bit-identical (see crate docs).
//!
//! [`lift_pairs`] and [`scale_in_place`] are plain loops: a hand-blocked
//! `lift_pairs` measured several times slower than the plain zip on the
//! baseline build (DESIGN.md §13). The split and merge keep their
//! pairwise `chunks_exact(2)` bodies, which measured several times
//! faster than an index-parity loop.

use crate::float::Float;

/// `dst[i] += c * (a[i] + b[i])` for every lane. All slices must share a
/// length; `a`/`b` are typically the same band offset by one sample.
pub fn lift_pairs<T: Float>(dst: &mut [T], a: &[T], b: &[T], c: T) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += c * (x + y);
    }
}

/// `x[i] *= f` for every lane.
pub fn scale_in_place<T: Float>(x: &mut [T], f: T) {
    for v in x {
        *v *= f;
    }
}

/// De-interleaves `x = [s0 d0 s1 d1 ...]` into `even` (`ceil(n/2)` lanes)
/// and `odd` (`n/2` lanes).
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

/// Re-interleaves the even/odd bands into `x`; inverse of
/// [`split_even_odd`].
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

    /// Splits `x`, runs `step` on the bands, merges them back.
    fn on_bands<T: Float>(x: &[T], step: impl FnOnce(&mut [T], &mut [T])) -> Vec<T> {
        let n = x.len();
        let (mut even, mut odd) = (vec![T::ZERO; n.div_ceil(2)], vec![T::ZERO; n / 2]);
        split_even_odd(x, &mut even, &mut odd);
        step(&mut even, &mut odd);
        let mut back = vec![T::ZERO; n];
        merge_even_odd(&even, &odd, &mut back);
        back
    }

    /// The band kernels against the strided scalar loops they replace, on
    /// the interleaved line: a detail step on an odd length (every odd
    /// sample has both neighbours), an interior approx step, and the
    /// per-band scaling. Compared bit for bit.
    fn lift_matches_strided<T: Float>(x: &[T], c: T, f: (T, T)) {
        let n = x.len();
        assert!(n % 2 == 1 && n >= 3);
        let ho = n / 2;
        let mut want = x.to_vec();
        for i in 0..ho {
            let lift = c * (want[2 * i] + want[2 * i + 2]);
            want[2 * i + 1] += lift;
        }
        let got = on_bands(x, |s, d| lift_pairs(d, &s[..ho], &s[1..ho + 1], c));
        assert_eq!(bits(&got), bits(&want), "detail step, n={n}");

        let mut want = x.to_vec();
        for i in 1..ho {
            let lift = c * (want[2 * i - 1] + want[2 * i + 1]);
            want[2 * i] += lift;
        }
        let got = on_bands(x, |s, d| {
            lift_pairs(&mut s[1..ho], &d[..ho - 1], &d[1..ho], c)
        });
        assert_eq!(bits(&got), bits(&want), "approx step, n={n}");

        let mut want = x.to_vec();
        for (i, v) in want.iter_mut().enumerate() {
            *v *= if i % 2 == 0 { f.0 } else { f.1 };
        }
        let got = on_bands(x, |s, d| {
            scale_in_place(s, f.0);
            scale_in_place(d, f.1);
        });
        assert_eq!(bits(&got), bits(&want), "scaling, n={n}");
    }

    fn bits<T: Float>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    #[test]
    fn lift_matches_scalar_bitwise() {
        for n in [3usize, 5, 23, 129] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 7.3).collect();
            lift_matches_strided(&x, -1.586, (1.23, 0.81));
        }
    }

    #[test]
    fn lift_matches_scalar_bitwise_f32() {
        for n in [3usize, 5, 29, 129] {
            let x: Vec<f32> = (0..n).map(|i| (i as f32).sin() * 7.3).collect();
            lift_matches_strided(&x, -1.586f32, (1.23f32, 0.81f32));
        }
    }
}
