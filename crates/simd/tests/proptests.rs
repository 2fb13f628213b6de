//! Differential property tests: every blocked kernel must agree with its
//! scalar twin — exactly, including floating-point bit patterns — across
//! arbitrary lengths (odd, prime, block-multiple, tail-remainder) and
//! across *unaligned* slice offsets (the coder hands kernels interior
//! windows of larger arrays, so a kernel must not assume its slice starts
//! at an allocation boundary). This is the executable form of the crate's
//! bit-identity rule; the conformance goldens enforce the same property
//! end-to-end, these pin it per kernel with shrinkable counterexamples.

use proptest::prelude::*;
use sperr_simd as simd;
use sperr_simd::scalar;

/// Lengths that stress the chunked loops: 0, 1, the block widths used in
/// the crate (4, 8, 16), their neighbours, primes, and a few larger odd
/// sizes so every tail-remainder count occurs.
fn len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        2usize..=17,
        prop_oneof![Just(19usize), Just(23), Just(31), Just(61), Just(67), Just(127)],
        64usize..=129,
    ]
}

/// Offset into a padded backing vector, so kernels see slices whose first
/// element is not allocation-aligned.
fn off_strategy() -> impl Strategy<Value = usize> {
    0usize..=7
}

fn f64_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    // Finite but wide-ranged values plus signed zeros; NaN/inf handling
    // is pinned separately (quantize kernels saturate, lifting kernels
    // are only ever fed finite data by the transform).
    prop::collection::vec(
        prop_oneof![
            -1e9f64..1e9,
            Just(0.0f64),
            Just(-0.0f64),
            -1e-3f64..1e-3,
        ],
        n..=n,
    )
}

fn bytes_lt_128(n: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..128, n..=n)
}

proptest! {
    #[test]
    fn run_le_matches_scalar(
        (v, off, t) in (len_strategy(), off_strategy(), 0u8..128)
            .prop_flat_map(|(len, off, t)| (bytes_lt_128(len + off), Just(off), Just(t)))
    ) {
        let s = &v[off..];
        prop_assert_eq!(simd::run_le(s, t), scalar::scalar_run_le(s, t));
    }

    #[test]
    fn run_le_boundary_runs(boundary in 0usize..40) {
        // A run that flips exactly at `boundary` exercises every lane
        // position of the 8-byte SWAR step.
        let mut v = vec![5u8; 40];
        for b in v.iter_mut().skip(boundary) {
            *b = 99;
        }
        prop_assert_eq!(simd::run_le(&v, 7), boundary);
        prop_assert_eq!(simd::run_le(&v, 7), scalar::scalar_run_le(&v, 7));
    }

    #[test]
    fn max_kernels_match_scalar(
        (v, off) in (len_strategy(), off_strategy())
            .prop_flat_map(|(len, off)| (prop::collection::vec(any::<u8>(), len + off), Just(off)))
    ) {
        let s = &v[off..];
        prop_assert_eq!(simd::max_elem(s), scalar::scalar_max_elem(s));

        let mut d1: Vec<u8> = s.iter().map(|&b| b ^ 0x5a).collect();
        let mut d2 = d1.clone();
        simd::max_assign(&mut d1, s);
        scalar::scalar_max_assign(&mut d2, s);
        prop_assert_eq!(&d1, &d2);

        let mut p1 = vec![0u8; s.len().div_ceil(2)];
        let mut p2 = p1.clone();
        if !s.is_empty() {
            simd::pairwise_max_into(s, &mut p1);
            scalar::scalar_pairwise_max_into(s, &mut p2);
            prop_assert_eq!(&p1, &p2);
        }
    }

    #[test]
    fn transposes_match_scalar(rows in prop::collection::vec(any::<u64>(), 64)) {
        let mut a = [0u64; 64];
        a.copy_from_slice(&rows);
        let mut b = a;
        simd::transpose_64x64(&mut a);
        scalar::scalar_transpose_64x64(&mut b);
        prop_assert_eq!(a, b);
        let mut c = [0u64; 32];
        c.copy_from_slice(&rows[..32]);
        let mut d = c;
        simd::transpose_32x64(&mut c);
        scalar::scalar_transpose_32x64(&mut d);
        prop_assert_eq!(c, d);
    }

    #[test]
    fn lift_pairs_bit_identical(
        (len, off, c) in (len_strategy(), off_strategy(), -2.0f64..2.0)
    ) {
        let n = len + off;
        let a: Vec<f64> = (0..n).map(|i| ((i * 31 % 97) as f64 - 48.0) * 0.37).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 17 % 89) as f64 - 44.0) * -0.21).collect();
        let mut d1: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut d2 = d1.clone();
        simd::lift_pairs(&mut d1[off..], &a[off..], &b[off..], c);
        scalar::scalar_lift_pairs(&mut d2[off..], &a[off..], &b[off..], c);
        prop_assert_eq!(bits(&d1), bits(&d2));

        simd::scale_in_place(&mut d1[off..], c);
        scalar::scalar_scale_in_place(&mut d2[off..], c);
        prop_assert_eq!(bits(&d1), bits(&d2));
    }

    #[test]
    fn lift_pairs_bit_identical_dense(
        (d, a, b, c) in len_strategy().prop_flat_map(|len| {
            (f64_vec(len), f64_vec(len), f64_vec(len), -2.0f64..2.0)
        })
    ) {
        let mut d1 = d.clone();
        let mut d2 = d;
        simd::lift_pairs(&mut d1, &a, &b, c);
        scalar::scalar_lift_pairs(&mut d2, &a, &b, c);
        prop_assert_eq!(bits(&d1), bits(&d2));
    }

    #[test]
    fn split_merge_match_scalar((x, off) in (len_strategy(), off_strategy())
        .prop_flat_map(|(len, off)| (f64_vec(len + off), Just(off)))
    ) {
        let s = &x[off..];
        let n = s.len();
        let mut e1 = vec![0.0; n.div_ceil(2)];
        let mut o1 = vec![0.0; n / 2];
        let mut e2 = e1.clone();
        let mut o2 = o1.clone();
        simd::split_even_odd(s, &mut e1, &mut o1);
        scalar::scalar_split_even_odd(s, &mut e2, &mut o2);
        prop_assert_eq!(bits(&e1), bits(&e2));
        prop_assert_eq!(bits(&o1), bits(&o2));

        let mut m1 = vec![0.0; n];
        let mut m2 = vec![0.0; n];
        simd::merge_even_odd(&e1, &o1, &mut m1);
        scalar::scalar_merge_even_odd(&e2, &o2, &mut m2);
        prop_assert_eq!(bits(&m1), bits(&m2));
        // And the pair is an exact inverse.
        prop_assert_eq!(bits(&m1), bits(s));
    }

    #[test]
    fn quantize_kernels_match_scalar(
        (coeffs, off, q) in (len_strategy(), off_strategy())
            .prop_flat_map(|(len, off)| (f64_vec(len + off), Just(off), 1e-6f64..1e3))
    ) {
        let s = &coeffs[off..];
        let inv_q = 1.0 / q;
        let n = s.len();
        let mut r1 = vec![0.0f64; n];
        let mut r2 = vec![0.0f64; n];
        simd::reconstruct_mid_riser_into(s, q, inv_q, &mut r1);
        scalar::scalar_reconstruct_mid_riser_into(s, q, inv_q, &mut r2);
        prop_assert_eq!(bits(&r1), bits(&r2));
    }

    #[test]
    fn lift_pairs_bit_identical_f32(
        (len, off, c) in (len_strategy(), off_strategy(), (-2.0f64..2.0).prop_map(|c| c as f32))
    ) {
        let n = len + off;
        let a: Vec<f32> = (0..n).map(|i| ((i * 31 % 97) as f32 - 48.0) * 0.37).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i * 17 % 89) as f32 - 44.0) * -0.21).collect();
        let mut d1: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let mut d2 = d1.clone();
        simd::lift_pairs(&mut d1[off..], &a[off..], &b[off..], c);
        scalar::scalar_lift_pairs(&mut d2[off..], &a[off..], &b[off..], c);
        prop_assert_eq!(bits32(&d1), bits32(&d2));

        simd::scale_in_place(&mut d1[off..], c);
        scalar::scalar_scale_in_place(&mut d2[off..], c);
        prop_assert_eq!(bits32(&d1), bits32(&d2));
    }

    #[test]
    fn split_merge_match_scalar_f32((x, off) in (len_strategy(), off_strategy())
        .prop_flat_map(|(len, off)| (f32_vec(len + off), Just(off)))
    ) {
        let s = &x[off..];
        let n = s.len();
        let mut e1 = vec![0.0f32; n.div_ceil(2)];
        let mut o1 = vec![0.0f32; n / 2];
        let mut e2 = e1.clone();
        let mut o2 = o1.clone();
        simd::split_even_odd(s, &mut e1, &mut o1);
        scalar::scalar_split_even_odd(s, &mut e2, &mut o2);
        prop_assert_eq!(bits32(&e1), bits32(&e2));
        prop_assert_eq!(bits32(&o1), bits32(&o2));

        let mut m1 = vec![0.0f32; n];
        let mut m2 = vec![0.0f32; n];
        simd::merge_even_odd(&e1, &o1, &mut m1);
        scalar::scalar_merge_even_odd(&e2, &o2, &mut m2);
        prop_assert_eq!(bits32(&m1), bits32(&m2));
        // And the pair is an exact inverse.
        prop_assert_eq!(bits32(&m1), bits32(s));
    }

    #[test]
    fn quantize_kernels_match_scalar_f32(
        (coeffs, off, q) in (len_strategy(), off_strategy())
            .prop_flat_map(|(len, off)| (f32_vec(len + off), Just(off), (1e-5f64..1e3).prop_map(|q| q as f32)))
    ) {
        let s = &coeffs[off..];
        let inv_q = 1.0 / q;
        let n = s.len();
        let mut r1 = vec![0.0f32; n];
        let mut r2 = vec![0.0f32; n];
        simd::reconstruct_mid_riser_into(s, q, inv_q, &mut r1);
        scalar::scalar_reconstruct_mid_riser_into(s, q, inv_q, &mut r2);
        prop_assert_eq!(bits32(&r1), bits32(&r2));
    }
}

/// Exact f64 comparison via bit patterns (distinguishes -0.0 from 0.0 and
/// compares NaNs structurally) — the whole point of the bit-identity rule.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// f32 twin of [`bits`].
fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn f32_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    // The vendored proptest has no Range<f32> strategy; sample f64 and
    // narrow (round-to-nearest), keeping signed zeros distinct.
    prop::collection::vec(
        prop_oneof![
            (-1e9f64..1e9).prop_map(|v| v as f32),
            Just(0.0f32),
            Just(-0.0f32),
            (-1e-3f64..1e-3).prop_map(|v| v as f32),
        ],
        n..=n,
    )
}
