//! Elementwise sign/magnitude quantization kernels — the split of a
//! coefficient array into quantized magnitudes plus the packed per-pixel
//! `meta = planes_of(k) << 1 | sign` byte array, and the mid-riser
//! reconstruction. These own SPERR's dead-zone semantics; the SPECK
//! reference and production encoders both call [`quantize_magnitude`] so
//! the paths cannot drift.
//!
//! All kernels are generic over [`Float`]: the `f64` instantiation is
//! bit-identical to the historical scalar-typed code (same expression,
//! same operand order), the `f32` instantiation packs twice the lanes
//! into each blocked window.

use crate::float::Float;

/// Saturated magnitude: quantized values cap at `2^62` so downstream
/// shifts cannot overflow (`2^62` is exactly representable at both
/// float widths — see [`Float::CAP`]).
const SAT: u64 = 1u64 << 62;

/// Quantizes one coefficient: `floor(|c| / q)`, saturating at `2^62`.
/// NaNs quantize to 0 (dead zone) via the saturating cast.
#[inline]
pub fn quantize_magnitude<T: Float>(c: T, inv_q: T) -> u64 {
    let r = c.abs() * inv_q;
    if r >= T::CAP {
        SAT
    } else {
        r.to_u64_saturating() // truncation == floor for r >= 0
    }
}

/// `64 - k.leading_zeros()`: number of significant bitplanes of a
/// magnitude. At most 63 because magnitudes saturate at `2^62`.
#[inline]
fn planes_of(k: u64) -> u8 {
    (64 - k.leading_zeros()) as u8
}

/// Quantizes every coefficient into its packed meta byte
/// `planes_of(k) << 1 | (c < 0)` where `k = quantize_magnitude(c)`. The
/// magnitudes themselves are *not* materialized — the SPECK coder
/// requantizes the few it needs (at LSP admission) straight from the
/// coefficient array, which beats writing and then randomly gathering a
/// full-size `u64` magnitude plane. Slices must be equal length. Scalar
/// twin: [`scalar_quantize_meta_into`].
pub fn quantize_meta_into<T: Float>(coeffs: &[T], inv_q: T, meta: &mut [u8]) {
    assert_eq!(coeffs.len(), meta.len());
    // 16 lanes per window: two 256-bit-class vectors of f64, one of
    // f32 pairs — the per-lane expressions are independent, so the
    // window width never affects results, only unrolling.
    const W: usize = 16;
    let mut c_it = coeffs.chunks_exact(W);
    let mut m_it = meta.chunks_exact_mut(W);
    for (cb, mb) in c_it.by_ref().zip(m_it.by_ref()) {
        // Block 1: the float -> magnitude cast, one independent
        // expression per lane (select between the saturated constant
        // and the truncating cast — no cross-lane state).
        let mut kw = [0u64; W];
        for (kv, &c) in kw.iter_mut().zip(cb) {
            let r = c.abs() * inv_q;
            *kv = if r >= T::CAP {
                SAT
            } else {
                r.to_u64_saturating()
            };
        }
        // Block 2: integer-only meta packing (lzcnt + shift + or).
        let mut mw = [0u8; W];
        for ((mv, &kv), &c) in mw.iter_mut().zip(&kw).zip(cb) {
            *mv = (planes_of(kv) << 1) | (c < T::ZERO) as u8;
        }
        mb.copy_from_slice(&mw);
    }
    for (&c, mv) in c_it.remainder().iter().zip(m_it.into_remainder()) {
        let q = quantize_magnitude(c, inv_q);
        *mv = (planes_of(q) << 1) | (c < T::ZERO) as u8;
    }
}

/// Scalar reference for [`quantize_meta_into`].
pub fn scalar_quantize_meta_into<T: Float>(coeffs: &[T], inv_q: T, meta: &mut [u8]) {
    assert_eq!(coeffs.len(), meta.len());
    for (&c, mv) in coeffs.iter().zip(meta.iter_mut()) {
        let q = quantize_magnitude(c, inv_q);
        *mv = (planes_of(q) << 1) | (c < T::ZERO) as u8;
    }
}

/// Mid-riser reconstruction of a complete quality-mode stream, computed
/// directly from the input: quantize each coefficient, then place it at
/// the centre of its quantization cell (`(k + 0.5) * q`, signed), with
/// dead-zone values (`k == 0`) reconstructing to exactly 0. Scalar twin:
/// [`scalar_reconstruct_mid_riser_into`].
pub fn reconstruct_mid_riser_into<T: Float>(coeffs: &[T], q: T, inv_q: T, out: &mut [T]) {
    assert_eq!(coeffs.len(), out.len());
    const W: usize = 8;
    let mut c_it = coeffs.chunks_exact(W);
    let mut o_it = out.chunks_exact_mut(W);
    for (cb, ob) in c_it.by_ref().zip(o_it.by_ref()) {
        for (o, &c) in ob.iter_mut().zip(cb) {
            let k = quantize_magnitude(c, inv_q);
            *o = if k == 0 {
                T::ZERO
            } else {
                let mag = (T::from_u64_lossy(k) + T::HALF) * q;
                if c < T::ZERO {
                    -mag
                } else {
                    mag
                }
            };
        }
    }
    for (o, &c) in o_it.into_remainder().iter_mut().zip(c_it.remainder()) {
        let k = quantize_magnitude(c, inv_q);
        *o = if k == 0 {
            T::ZERO
        } else {
            let mag = (T::from_u64_lossy(k) + T::HALF) * q;
            if c < T::ZERO {
                -mag
            } else {
                mag
            }
        };
    }
}

/// Scalar reference for [`reconstruct_mid_riser_into`].
pub fn scalar_reconstruct_mid_riser_into<T: Float>(coeffs: &[T], q: T, inv_q: T, out: &mut [T]) {
    assert_eq!(coeffs.len(), out.len());
    for (o, &c) in out.iter_mut().zip(coeffs) {
        let k = quantize_magnitude(c, inv_q);
        *o = if k == 0 {
            T::ZERO
        } else {
            let mag = (T::from_u64_lossy(k) + T::HALF) * q;
            if c < T::ZERO {
                -mag
            } else {
                mag
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_edge_cases() {
        assert_eq!(quantize_magnitude(f64::NAN, 1.0), 0);
        assert_eq!(quantize_magnitude(0.0, 1.0), 0);
        assert_eq!(quantize_magnitude(-0.0, 1.0), 0);
        assert_eq!(quantize_magnitude(f64::INFINITY, 1.0), SAT);
        assert_eq!(quantize_magnitude(1e300, 1.0), SAT);
        assert_eq!(quantize_magnitude(-2.75, 2.0), 5);
        // f32 instantiation: same dead-zone and saturation semantics.
        assert_eq!(quantize_magnitude(f32::NAN, 1.0f32), 0);
        assert_eq!(quantize_magnitude(f32::INFINITY, 1.0f32), SAT);
        assert_eq!(quantize_magnitude(1e38f32, 1.0f32), SAT);
        assert_eq!(quantize_magnitude(-2.75f32, 2.0f32), 5);
    }

    #[test]
    fn meta_matches_scalar() {
        let coeffs: Vec<f64> = (0..41)
            .map(|i| ((i * 37 % 19) as f64 - 9.0) * 0.3)
            .chain([f64::NAN, -0.0, 1e300, -1e300])
            .collect();
        let n = coeffs.len();
        let (mut m1, mut m2) = (vec![0u8; n], vec![0u8; n]);
        quantize_meta_into(&coeffs, 2.0, &mut m1);
        scalar_quantize_meta_into(&coeffs, 2.0, &mut m2);
        assert_eq!(m1, m2);
        let (mut r1, mut r2) = (vec![0.0f64; n], vec![0.0f64; n]);
        reconstruct_mid_riser_into(&coeffs, 0.5, 2.0, &mut r1);
        scalar_reconstruct_mid_riser_into(&coeffs, 0.5, 2.0, &mut r2);
        assert_eq!(
            r1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn meta_matches_scalar_f32() {
        let coeffs: Vec<f32> = (0..53)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.3)
            .chain([f32::NAN, -0.0, 1e38, -1e38])
            .collect();
        let n = coeffs.len();
        let (mut m1, mut m2) = (vec![0u8; n], vec![0u8; n]);
        quantize_meta_into(&coeffs, 2.0f32, &mut m1);
        scalar_quantize_meta_into(&coeffs, 2.0f32, &mut m2);
        assert_eq!(m1, m2);
        let (mut r1, mut r2) = (vec![0.0f32; n], vec![0.0f32; n]);
        reconstruct_mid_riser_into(&coeffs, 0.5f32, 2.0f32, &mut r1);
        scalar_reconstruct_mid_riser_into(&coeffs, 0.5f32, 2.0f32, &mut r2);
        assert_eq!(
            r1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
