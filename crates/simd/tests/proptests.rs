//! Differential property tests: every blocked kernel must agree with its
//! plain-loop oracle — exactly, including floating-point bit patterns —
//! across arbitrary lengths (odd, prime, block-multiple, tail-remainder)
//! and across *unaligned* slice offsets (the coder hands kernels interior
//! windows of larger arrays, so a kernel must not assume its slice starts
//! at an allocation boundary). The oracles live here, not in the crate:
//! they are the obvious one-element-at-a-time loops, the executable
//! specification of each blocked body. The plain-loop kernels (lifting,
//! scaling, the quantizer) are checked against the formulas they
//! replaced: the strided lifting loop and the `u64` quantizer.

use proptest::prelude::*;
use sperr_simd as simd;
use sperr_simd::Float;

/// Lengths that stress the blocked loops: 0, 1, the block widths used in
/// the crate (2 and 8), their neighbours, primes, and a few larger odd
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
    // is pinned separately (the quantizer's unit tests; lifting kernels
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

/// Oracle for [`simd::run_le`]: the length of the `<= t` prefix.
fn oracle_run_le(bytes: &[u8], t: u8) -> usize {
    bytes.iter().take_while(|&&b| b <= t).count()
}

/// Oracle for [`simd::pairwise_max_into`]: one output per index.
fn oracle_pairwise_max_into(src: &[u8], dst: &mut [u8]) {
    for (i, d) in dst.iter_mut().enumerate() {
        let a = src[2 * i];
        *d = match src.get(2 * i + 1) {
            Some(&b) => a.max(b),
            None => a,
        };
    }
}

/// Oracle for [`simd::transpose_64x64`]: one bit at a time.
fn oracle_transpose_64x64(m: &mut [u64; 64]) {
    let src = *m;
    for (c, out) in m.iter_mut().enumerate() {
        *out = 0;
        for (r, &row) in src.iter().enumerate() {
            *out |= ((row >> c) & 1) << r;
        }
    }
}

/// Oracle for [`simd::transpose_32x64`]: one bit at a time, both halves.
fn oracle_transpose_32x64(m: &mut [u64; 32]) {
    let src = *m;
    for (c, out) in m.iter_mut().enumerate() {
        *out = 0;
        for (r, &row) in src.iter().enumerate() {
            *out |= ((row >> c) & 1) << r | ((row >> (c + 32)) & 1) << (r + 32);
        }
    }
}

/// Oracle for [`simd::split_even_odd`]: by index parity.
fn oracle_split_even_odd<T: Copy>(x: &[T], even: &mut [T], odd: &mut [T]) {
    for (i, &v) in x.iter().enumerate() {
        if i % 2 == 0 {
            even[i / 2] = v;
        } else {
            odd[i / 2] = v;
        }
    }
}

/// Oracle for [`simd::merge_even_odd`]: by index parity.
fn oracle_merge_even_odd<T: Copy>(even: &[T], odd: &[T], x: &mut [T]) {
    for (i, v) in x.iter_mut().enumerate() {
        *v = if i % 2 == 0 { even[i / 2] } else { odd[i / 2] };
    }
}

/// One lifting step two ways on the interleaved line `x` (odd length, so
/// every odd sample has both neighbours): the strided scalar loop
/// `x[2i+1] += c·(x[2i] + x[2i+2])`, then each band scaled, against
/// [`simd::lift_pairs`] and [`simd::scale_in_place`] on the split bands.
/// Returns (strided, banded).
fn lift_both_ways<T: Float>(x: &[T], c: T) -> (Vec<T>, Vec<T>) {
    let n = x.len();
    let ho = n / 2;
    let mut strided = x.to_vec();
    for i in 0..ho {
        let lift = c * (strided[2 * i] + strided[2 * i + 2]);
        strided[2 * i + 1] += lift;
    }
    for v in strided.iter_mut() {
        *v *= c;
    }
    let (mut even, mut odd) = (vec![T::ZERO; n.div_ceil(2)], vec![T::ZERO; ho]);
    simd::split_even_odd(x, &mut even, &mut odd);
    simd::lift_pairs(&mut odd, &even[..ho], &even[1..], c);
    simd::scale_in_place(&mut even, c);
    simd::scale_in_place(&mut odd, c);
    let mut banded = vec![T::ZERO; n];
    simd::merge_even_odd(&even, &odd, &mut banded);
    (strided, banded)
}

/// The quantizer's `u64` formula, which its `i64` conversion replaced.
fn u64_quantize<T: Float>(c: T, inv_q: T) -> u64 {
    let r = c.abs() * inv_q;
    if r >= T::CAP {
        1 << 62
    } else {
        r.to_f64() as u64
    }
}

/// The mid-riser placement over [`u64_quantize`].
fn u64_reconstruct<T: Float>(c: T, q: T, inv_q: T) -> T {
    let k = u64_quantize(c, inv_q);
    if k == 0 {
        return T::ZERO;
    }
    let mag = (T::from_u64_lossy(k) + T::HALF) * q;
    if c < T::ZERO {
        -mag
    } else {
        mag
    }
}

/// Both quantizer kernels against the `u64` formula over one slice.
fn quantizer_matches_u64<T: Float>(s: &[T], q: T) -> Result<(), TestCaseError> {
    let inv_q = T::ONE / q;
    for &c in s {
        prop_assert_eq!(simd::quantize_magnitude(c, inv_q), u64_quantize(c, inv_q));
        let got = simd::reconstruct_mid_riser(c, q, inv_q).to_f64();
        let want = u64_reconstruct(c, q, inv_q).to_f64();
        prop_assert_eq!(got.to_bits(), want.to_bits(), "c={:?}", c);
    }
    Ok(())
}

proptest! {
    #[test]
    fn run_le_matches_scalar(
        (v, off, t) in (len_strategy(), off_strategy(), 0u8..128)
            .prop_flat_map(|(len, off, t)| (bytes_lt_128(len + off), Just(off), Just(t)))
    ) {
        let s = &v[off..];
        prop_assert_eq!(simd::run_le(s, t), oracle_run_le(s, t));
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
        prop_assert_eq!(simd::run_le(&v, 7), oracle_run_le(&v, 7));
    }

    #[test]
    fn max_kernels_match_scalar(
        (v, off) in (len_strategy(), off_strategy())
            .prop_flat_map(|(len, off)| (prop::collection::vec(any::<u8>(), len + off), Just(off)))
    ) {
        let s = &v[off..];
        let mut p1 = vec![0u8; s.len().div_ceil(2)];
        let mut p2 = p1.clone();
        if !s.is_empty() {
            simd::pairwise_max_into(s, &mut p1);
            oracle_pairwise_max_into(s, &mut p2);
            prop_assert_eq!(&p1, &p2);
        }
    }

    #[test]
    fn transposes_match_scalar(rows in prop::collection::vec(any::<u64>(), 64)) {
        let mut a = [0u64; 64];
        a.copy_from_slice(&rows);
        let mut b = a;
        simd::transpose_64x64(&mut a);
        oracle_transpose_64x64(&mut b);
        prop_assert_eq!(a, b);
        let mut c = [0u64; 32];
        c.copy_from_slice(&rows[..32]);
        let mut d = c;
        simd::transpose_32x64(&mut c);
        oracle_transpose_32x64(&mut d);
        prop_assert_eq!(c, d);
    }

    #[test]
    fn lift_pairs_bit_identical(
        (len, off, c) in (len_strategy(), off_strategy(), -2.0f64..2.0)
    ) {
        // Odd lengths only, at an unaligned offset into the backing line.
        let n = 2 * (len / 2) + 1 + off;
        let x: Vec<f64> = (0..n).map(|i| ((i * 31 % 97) as f64 - 48.0) * 0.37).collect();
        let (strided, banded) = lift_both_ways(&x[off..], c);
        prop_assert_eq!(bits(&strided), bits(&banded));
    }

    #[test]
    fn lift_pairs_bit_identical_dense(
        (x, c) in len_strategy().prop_flat_map(|len| (f64_vec(2 * (len / 2) + 1), -2.0f64..2.0))
    ) {
        let (strided, banded) = lift_both_ways(&x, c);
        prop_assert_eq!(bits(&strided), bits(&banded));
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
        oracle_split_even_odd(s, &mut e2, &mut o2);
        prop_assert_eq!(bits(&e1), bits(&e2));
        prop_assert_eq!(bits(&o1), bits(&o2));

        let mut m1 = vec![0.0; n];
        let mut m2 = vec![0.0; n];
        simd::merge_even_odd(&e1, &o1, &mut m1);
        oracle_merge_even_odd(&e2, &o2, &mut m2);
        prop_assert_eq!(bits(&m1), bits(&m2));
        // And the pair is an exact inverse.
        prop_assert_eq!(bits(&m1), bits(s));
    }

    #[test]
    fn quantize_kernels_match_scalar(
        (coeffs, off, q) in (len_strategy(), off_strategy())
            .prop_flat_map(|(len, off)| (f64_vec(len + off), Just(off), 1e-6f64..1e3))
    ) {
        quantizer_matches_u64(&coeffs[off..], q)?;
    }

    #[test]
    fn lift_pairs_bit_identical_f32(
        (len, off, c) in (len_strategy(), off_strategy(), (-2.0f64..2.0).prop_map(|c| c as f32))
    ) {
        let n = 2 * (len / 2) + 1 + off;
        let x: Vec<f32> = (0..n).map(|i| ((i * 31 % 97) as f32 - 48.0) * 0.37).collect();
        let (strided, banded) = lift_both_ways(&x[off..], c);
        prop_assert_eq!(bits32(&strided), bits32(&banded));
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
        oracle_split_even_odd(s, &mut e2, &mut o2);
        prop_assert_eq!(bits32(&e1), bits32(&e2));
        prop_assert_eq!(bits32(&o1), bits32(&o2));

        let mut m1 = vec![0.0f32; n];
        let mut m2 = vec![0.0f32; n];
        simd::merge_even_odd(&e1, &o1, &mut m1);
        oracle_merge_even_odd(&e2, &o2, &mut m2);
        prop_assert_eq!(bits32(&m1), bits32(&m2));
        // And the pair is an exact inverse.
        prop_assert_eq!(bits32(&m1), bits32(s));
    }

    #[test]
    fn quantize_kernels_match_scalar_f32(
        (coeffs, off, q) in (len_strategy(), off_strategy())
            .prop_flat_map(|(len, off)| (f32_vec(len + off), Just(off), (1e-5f64..1e3).prop_map(|q| q as f32)))
    ) {
        quantizer_matches_u64(&coeffs[off..], q)?;
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
