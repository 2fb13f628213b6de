//! Elementwise sign/magnitude quantization — one coefficient to its
//! quantized magnitude — and the mid-riser reconstruction kernel. These
//! own SPERR's dead-zone semantics; the SPECK reference and production
//! encoders both call [`quantize_magnitude`] so the paths cannot drift.
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
    fn reconstruction_matches_scalar() {
        let coeffs: Vec<f64> = (0..41)
            .map(|i| ((i * 37 % 19) as f64 - 9.0) * 0.3)
            .chain([f64::NAN, -0.0, 1e300, -1e300])
            .collect();
        let n = coeffs.len();
        let (mut r1, mut r2) = (vec![0.0f64; n], vec![0.0f64; n]);
        reconstruct_mid_riser_into(&coeffs, 0.5, 2.0, &mut r1);
        scalar_reconstruct_mid_riser_into(&coeffs, 0.5, 2.0, &mut r2);
        assert_eq!(
            r1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reconstruction_matches_scalar_f32() {
        let coeffs: Vec<f32> = (0..53)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.3)
            .chain([f32::NAN, -0.0, 1e38, -1e38])
            .collect();
        let n = coeffs.len();
        let (mut r1, mut r2) = (vec![0.0f32; n], vec![0.0f32; n]);
        reconstruct_mid_riser_into(&coeffs, 0.5f32, 2.0f32, &mut r1);
        scalar_reconstruct_mid_riser_into(&coeffs, 0.5f32, 2.0f32, &mut r2);
        assert_eq!(
            r1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
