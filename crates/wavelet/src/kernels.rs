//! Lifting kernels: CDF 9/7 (the paper's choice), CDF 5/3 and Haar
//! (ablation alternatives).
//!
//! All kernels split a line into its even/odd bands *first*
//! ([`sperr_simd::split_even_odd`]) and then run every lifting step as a
//! contiguous elementwise pass over the bands
//! ([`sperr_simd::lift_pairs`], a plain zip loop): `d[i] += c * (s[i] +
//! s[i+1])` over contiguous halves rather than a stride-2 loop over the
//! interleaved signal `[s0 d0 s1 d1 ...]`. Each output element computes
//! the *same expression with the same operand order* as the strided
//! original, so the results are bit-identical (the SPECK conformance
//! goldens depend on this, and the tests below check it against the
//! strided form directly). The forward de-interleave into the dyadic
//! `[approx... | detail...]` packing is free — the bands are built
//! directly in that layout.
//!
//! Boundary handling is whole-sample symmetric extension: index `-i`
//! reflects to `i` and index `n-1+i` to `n-1-i`, matching QccPack.
//!
//! The line kernels are generic over [`Float`]; the lifting constants are
//! stored in `f64` and narrowed once per call (`T::from_f64`, round to
//! nearest) so both widths lift with the best representable constants.

use sperr_simd::Float;

/// Daubechies–Sweldens lifting constants for CDF 9/7.
const ALPHA: f64 = -1.586_134_342_059_924;
const BETA: f64 = -0.052_980_118_572_961;
const GAMMA: f64 = 0.882_911_075_530_934;
const DELTA: f64 = 0.443_506_852_043_971;
/// Final scaling chosen so the analysis low-pass has DC gain √2, i.e. the
/// synthesis basis functions have approximately unit norm (§III-A).
const ZETA: f64 = std::f64::consts::SQRT_2 / 1.230_174_104_914_001;
const INV_ZETA: f64 = 1.0 / ZETA;

/// Which wavelet filter bank to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// Cohen–Daubechies–Feauveau 9/7 — the paper's production choice.
    #[default]
    Cdf97,
    /// CDF 5/3 (LeGall) — shorter filters, cheaper, worse compaction.
    Cdf53,
    /// Haar — trivial two-tap kernel, the compaction floor.
    Haar,
}

impl Kernel {
    /// Human-readable name for harness output.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Cdf97 => "CDF 9/7",
            Kernel::Cdf53 => "CDF 5/3",
            Kernel::Haar => "Haar",
        }
    }

    /// One forward level on `buf[..n]`, leaving `[approx | detail]`.
    /// `scratch` must be at least `n` long.
    pub(crate) fn forward_line<T: Float>(self, buf: &mut [T], n: usize, scratch: &mut [T]) {
        debug_assert!(buf.len() >= n && scratch.len() >= n);
        if n < 2 {
            return;
        }
        let half = n.div_ceil(2);
        let (s, rest) = scratch.split_at_mut(half);
        let d = &mut rest[..n - half];
        sperr_simd::split_even_odd(&buf[..n], s, d);
        match self {
            Kernel::Cdf97 => {
                lift_detail(s, d, T::from_f64(ALPHA));
                lift_approx(s, d, T::from_f64(BETA));
                lift_detail(s, d, T::from_f64(GAMMA));
                lift_approx(s, d, T::from_f64(DELTA));
                sperr_simd::scale_in_place(s, T::from_f64(ZETA));
                sperr_simd::scale_in_place(d, T::from_f64(INV_ZETA));
            }
            Kernel::Cdf53 => {
                lift_detail(s, d, T::from_f64(-0.5));
                lift_approx(s, d, T::from_f64(0.25));
                sperr_simd::scale_in_place(s, T::from_f64(std::f64::consts::SQRT_2));
                sperr_simd::scale_in_place(d, T::from_f64(std::f64::consts::FRAC_1_SQRT_2));
            }
            Kernel::Haar => {
                // Pairwise orthonormal butterfly; a trailing unpaired sample
                // (which the split parked in the approx band) passes through.
                let c = T::from_f64(std::f64::consts::FRAC_1_SQRT_2);
                for (e, o) in s.iter_mut().zip(d.iter_mut()) {
                    let (a, b) = (*e, *o);
                    *e = (a + b) * c;
                    *o = (a - b) * c;
                }
            }
        }
        // The bands already sit in dyadic [approx | detail] order.
        buf[..n].copy_from_slice(&scratch[..n]);
    }

    /// One inverse level on `buf[..n]`, consuming `[approx | detail]`.
    pub(crate) fn inverse_line<T: Float>(self, buf: &mut [T], n: usize, scratch: &mut [T]) {
        debug_assert!(buf.len() >= n && scratch.len() >= n);
        if n < 2 {
            return;
        }
        // The dyadic packing *is* the band split — no gather needed.
        let half = n.div_ceil(2);
        let (s, d) = buf[..n].split_at_mut(half);
        match self {
            Kernel::Cdf97 => {
                sperr_simd::scale_in_place(s, T::from_f64(INV_ZETA));
                sperr_simd::scale_in_place(d, T::from_f64(ZETA));
                lift_approx(s, d, T::from_f64(-DELTA));
                lift_detail(s, d, T::from_f64(-GAMMA));
                lift_approx(s, d, T::from_f64(-BETA));
                lift_detail(s, d, T::from_f64(-ALPHA));
            }
            Kernel::Cdf53 => {
                sperr_simd::scale_in_place(s, T::from_f64(std::f64::consts::FRAC_1_SQRT_2));
                sperr_simd::scale_in_place(d, T::from_f64(std::f64::consts::SQRT_2));
                lift_approx(s, d, T::from_f64(-0.25));
                lift_detail(s, d, T::from_f64(0.5));
            }
            Kernel::Haar => {
                let c = T::from_f64(std::f64::consts::FRAC_1_SQRT_2);
                for (e, o) in s.iter_mut().zip(d.iter_mut()) {
                    let (lo, hi) = (*e, *o);
                    *e = (lo + hi) * c;
                    *o = (lo - hi) * c;
                }
            }
        }
        sperr_simd::merge_even_odd(s, d, &mut scratch[..n]);
        buf[..n].copy_from_slice(&scratch[..n]);
    }
}

/// Detail (odd-sample) lifting step on the split bands:
/// `d[i] += c * (s[i] + s[i+1])`, i.e. the strided
/// `x[2i+1] += c * (x[2i] + x[2i+2])` with both neighbours now adjacent
/// approx samples. When the line length is even the last detail sample's
/// right neighbour reflects (`x[n] -> x[n-2]`), which in band terms is
/// its own left neighbour.
#[inline]
fn lift_detail<T: Float>(s: &[T], d: &mut [T], c: T) {
    let ho = d.len();
    if ho == 0 {
        return;
    }
    if s.len() > ho {
        // Odd line length: every detail sample has both neighbours.
        sperr_simd::lift_pairs(d, &s[..ho], &s[1..ho + 1], c);
    } else {
        sperr_simd::lift_pairs(&mut d[..ho - 1], &s[..ho - 1], &s[1..ho], c);
        d[ho - 1] += c * T::from_f64(2.0) * s[ho - 1];
    }
}

/// Approx (even-sample) lifting step on the split bands:
/// `s[i] += c * (d[i-1] + d[i])`, i.e. the strided
/// `x[2i] += c * (x[2i-1] + x[2i+1])`. The first approx sample's left
/// neighbour reflects (`x[-1] -> x[1]`); when the line length is odd the
/// last one's right neighbour reflects too.
#[inline]
fn lift_approx<T: Float>(s: &mut [T], d: &[T], c: T) {
    let ho = d.len();
    debug_assert!(ho >= 1);
    s[0] += c * T::from_f64(2.0) * d[0];
    sperr_simd::lift_pairs(&mut s[1..ho], &d[..ho - 1], &d[1..ho], c);
    if s.len() > ho {
        s[ho] += c * T::from_f64(2.0) * d[ho - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_layout_is_dyadic() {
        // forward(identity ramp) with Haar keeps the unpaired tail in the
        // approx band: [e0 e1 e2 | d0 d1] for n = 5.
        let mut x = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let mut scratch = vec![0.0; 5];
        Kernel::Haar.forward_line(&mut x, 5, &mut scratch);
        let c = std::f64::consts::FRAC_1_SQRT_2;
        assert_eq!(x, vec![1.0 * c, 5.0 * c, 4.0, -1.0 * c, -1.0 * c]);
    }

    #[test]
    fn line_roundtrips_all_kernels_all_lengths() {
        for kernel in [Kernel::Cdf97, Kernel::Cdf53, Kernel::Haar] {
            for n in 2..40usize {
                let orig: Vec<f64> = (0..n).map(|i| ((i * 29 % 13) as f64) - 6.0).collect();
                let mut x = orig.clone();
                let mut scratch = vec![0.0; n];
                kernel.forward_line(&mut x, n, &mut scratch);
                kernel.inverse_line(&mut x, n, &mut scratch);
                for (a, b) in x.iter().zip(&orig) {
                    assert!((a - b).abs() < 1e-10, "{kernel:?} n={n}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn two_sample_line_roundtrip() {
        for kernel in [Kernel::Cdf97, Kernel::Cdf53, Kernel::Haar] {
            let mut x = vec![1.0, -2.0];
            let mut scratch = vec![0.0; 2];
            kernel.forward_line(&mut x, 2, &mut scratch);
            kernel.inverse_line(&mut x, 2, &mut scratch);
            assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] + 2.0).abs() < 1e-12);
        }
    }

    use std::f64::consts::{FRAC_1_SQRT_2, SQRT_2};

    /// One lifting step of the strided form on the interleaved line:
    /// `x[i] += c·(x[i-1] + x[i+1])` for every `i` of the given parity,
    /// with whole-sample symmetric reflection at both ends.
    fn strided_step<T: Float>(x: &mut [T], first: usize, c: T) {
        let n = x.len();
        let reflect = |i: usize| if i >= n { 2 * (n - 1) - i } else { i };
        for i in (first..n).step_by(2) {
            let left = if i == 0 { x[1] } else { x[i - 1] };
            let lift = c * (left + x[reflect(i + 1)]);
            x[i] += lift;
        }
    }

    /// Scales the even samples by `even` and the odd ones by `odd`.
    fn strided_scale<T: Float>(x: &mut [T], even: f64, odd: f64) {
        let (even, odd) = (T::from_f64(even), T::from_f64(odd));
        for (i, v) in x.iter_mut().enumerate() {
            *v *= if i % 2 == 0 { even } else { odd };
        }
    }

    /// The Haar butterfly over each even/odd pair.
    fn strided_haar<T: Float>(x: &mut [T]) {
        let c = T::from_f64(FRAC_1_SQRT_2);
        for pair in x.chunks_exact_mut(2) {
            let (a, b) = (pair[0], pair[1]);
            pair[0] = (a + b) * c;
            pair[1] = (a - b) * c;
        }
    }

    /// The forward level in the strided form, then the de-interleave into
    /// `[approx | detail]`.
    fn strided_forward<T: Float>(kernel: Kernel, x: &[T]) -> Vec<T> {
        let mut x = x.to_vec();
        let t = T::from_f64;
        match kernel {
            Kernel::Cdf97 => {
                strided_step(&mut x, 1, t(ALPHA));
                strided_step(&mut x, 0, t(BETA));
                strided_step(&mut x, 1, t(GAMMA));
                strided_step(&mut x, 0, t(DELTA));
                strided_scale(&mut x, ZETA, INV_ZETA);
            }
            Kernel::Cdf53 => {
                strided_step(&mut x, 1, t(-0.5));
                strided_step(&mut x, 0, t(0.25));
                strided_scale(&mut x, SQRT_2, FRAC_1_SQRT_2);
            }
            Kernel::Haar => strided_haar(&mut x),
        }
        x.iter()
            .step_by(2)
            .chain(x.iter().skip(1).step_by(2))
            .copied()
            .collect()
    }

    /// The interleave of `[approx | detail]`, then the inverse level in
    /// the strided form.
    fn strided_inverse<T: Float>(kernel: Kernel, bands: &[T]) -> Vec<T> {
        let half = bands.len().div_ceil(2);
        let band = |i: usize| {
            if i.is_multiple_of(2) {
                i / 2
            } else {
                half + i / 2
            }
        };
        let mut x: Vec<T> = (0..bands.len()).map(|i| bands[band(i)]).collect();
        let t = T::from_f64;
        match kernel {
            Kernel::Cdf97 => {
                strided_scale(&mut x, INV_ZETA, ZETA);
                strided_step(&mut x, 0, t(-DELTA));
                strided_step(&mut x, 1, t(-GAMMA));
                strided_step(&mut x, 0, t(-BETA));
                strided_step(&mut x, 1, t(-ALPHA));
            }
            Kernel::Cdf53 => {
                strided_scale(&mut x, FRAC_1_SQRT_2, SQRT_2);
                strided_step(&mut x, 0, t(-0.25));
                strided_step(&mut x, 1, t(0.5));
            }
            Kernel::Haar => strided_haar(&mut x),
        }
        x
    }

    /// Every kernel's band-split line transform against the strided form,
    /// in both directions, at every length from 2 to 40 (odd and even),
    /// compared bit for bit: the lifting arithmetic checked without going
    /// through `forward_line`/`inverse_line` themselves.
    fn lines_match_the_strided_form<T: Float>() {
        let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        for kernel in [Kernel::Cdf97, Kernel::Cdf53, Kernel::Haar] {
            for n in 2..=40usize {
                let x: Vec<T> = (0..n)
                    .map(|i| T::from_f64((i as f64 * 0.7).sin() * 9.5 - 1.25))
                    .collect();
                let mut scratch = vec![T::ZERO; n];
                let mut got = x.clone();
                kernel.forward_line(&mut got, n, &mut scratch);
                assert_eq!(
                    bits(&got),
                    bits(&strided_forward(kernel, &x)),
                    "{kernel:?} fwd n={n}"
                );
                let mut back = x.clone();
                kernel.inverse_line(&mut back, n, &mut scratch);
                assert_eq!(
                    bits(&back),
                    bits(&strided_inverse(kernel, &x)),
                    "{kernel:?} inv n={n}"
                );
            }
        }
    }

    #[test]
    fn lines_match_the_strided_form_f64() {
        lines_match_the_strided_form::<f64>();
    }

    #[test]
    fn lines_match_the_strided_form_f32() {
        lines_match_the_strided_form::<f32>();
    }

    #[test]
    fn kernel_names() {
        assert_eq!(Kernel::Cdf97.name(), "CDF 9/7");
        assert_eq!(Kernel::default(), Kernel::Cdf97);
    }
}
