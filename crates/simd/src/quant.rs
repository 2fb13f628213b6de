//! Elementwise sign/magnitude quantization — one coefficient to its
//! quantized magnitude — and the mid-riser reconstruction of one
//! coefficient. These own SPERR's dead-zone semantics; the SPECK
//! reference and production encoders both call [`quantize_magnitude`] so
//! the paths cannot drift.
//!
//! Both convert through `i64`, which the baseline x86-64 ISA converts to
//! and from in one instruction each (`u64` has no such instruction below
//! AVX-512). The conversion is exact: every magnitude is capped at
//! [`SAT`] `= 2^62`, and NaN truncates to 0 either way.

use crate::float::Float;

/// Saturated magnitude: quantized values cap at `2^62` so downstream
/// shifts cannot overflow (`2^62` is exactly representable at both
/// float widths — see [`Float::CAP`]).
const SAT: i64 = 1 << 62;

/// `floor(|c| / q)`, saturating at [`SAT`]; NaN lands in the dead zone.
/// `to_f64` widens exactly, so the truncation is that of `|c| * inv_q`
/// at its own width.
#[inline]
fn cell<T: Float>(c: T, inv_q: T) -> i64 {
    let r = c.abs() * inv_q;
    if r >= T::CAP {
        SAT
    } else {
        r.to_f64() as i64 // truncation == floor for r >= 0; NaN -> 0
    }
}

/// Quantizes one coefficient: `floor(|c| / q)`, saturating at `2^62`.
/// NaNs quantize to 0 (dead zone).
#[inline]
pub fn quantize_magnitude<T: Float>(c: T, inv_q: T) -> u64 {
    cell(c, inv_q) as u64
}

/// Mid-riser reconstruction of one coefficient of a complete
/// quality-mode stream, computed directly from the input: quantize it,
/// then place it at the centre of its quantization cell (`(k + 0.5) * q`,
/// signed), with dead-zone values (`k == 0`) reconstructing to exactly 0.
/// `k` converts back without rounding: it is the truncation of a sample
/// of the same width, or `2^62`.
#[inline]
pub fn reconstruct_mid_riser<T: Float>(c: T, q: T, inv_q: T) -> T {
    let k = cell(c, inv_q);
    if k == 0 {
        return T::ZERO;
    }
    let mag = (T::from_f64(k as f64) + T::HALF) * q;
    if c < T::ZERO {
        -mag
    } else {
        mag
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
        assert_eq!(quantize_magnitude(f64::INFINITY, 1.0), SAT as u64);
        assert_eq!(quantize_magnitude(1e300, 1.0), SAT as u64);
        assert_eq!(quantize_magnitude(-2.75, 2.0), 5);
        // f32 instantiation: same dead-zone and saturation semantics.
        assert_eq!(quantize_magnitude(f32::NAN, 1.0f32), 0);
        assert_eq!(quantize_magnitude(f32::INFINITY, 1.0f32), SAT as u64);
        assert_eq!(quantize_magnitude(1e38f32, 1.0f32), SAT as u64);
        assert_eq!(quantize_magnitude(-2.75f32, 2.0f32), 5);
    }

    /// The `u64` formula the `i64` conversion replaced, kept as the
    /// oracle: a saturating `as u64` cast below the cap, and the cell
    /// index widened back with `from_u64_lossy`.
    fn u64_quantize<T: Float>(c: T, inv_q: T) -> u64 {
        let r = c.abs() * inv_q;
        if r >= T::CAP {
            1 << 62
        } else {
            r.to_f64() as u64
        }
    }

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

    /// The `i64` conversion against the `u64` formula, bit for bit, on
    /// the inputs where the two could part: signed zeros, subnormals, the
    /// cell boundaries around ½ and 1, the integers around the mantissa
    /// width, just below and at the cap, above it, infinities and NaN —
    /// at unit step and at a step that moves them off the integers.
    fn pins_the_u64_formula<T: Float>(extra: &[T]) {
        let cap = T::CAP.to_f64();
        let mut inputs: Vec<f64> = vec![
            0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            5e-324,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.5,
            2f64.powi(52) - 1.0,
            2f64.powi(52),
            2f64.powi(52) + 1.0,
            2f64.powi(53) + 1.0,
            2f64.powi(53) + 2.0,
            cap * (1.0 - f64::EPSILON),
            cap,
            cap * 2.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        inputs.extend(extra.iter().map(|v| v.to_f64()));
        for q in [1.0, 0.75, 3.0e-3] {
            let (qt, inv_q) = (T::from_f64(q), T::ONE / T::from_f64(q));
            for &v in &inputs {
                for c in [T::from_f64(v), -T::from_f64(v)] {
                    assert_eq!(
                        quantize_magnitude(c, inv_q),
                        u64_quantize(c, inv_q),
                        "{} quantize {c:?} at q={q}",
                        T::NAME
                    );
                    let (got, want) = (
                        reconstruct_mid_riser(c, qt, inv_q).to_f64(),
                        u64_reconstruct(c, qt, inv_q).to_f64(),
                    );
                    let name = T::NAME;
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{name} mid-riser {c:?} at q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn reconstruction_matches_scalar() {
        pins_the_u64_formula::<f64>(&[]);
    }

    #[test]
    fn reconstruction_matches_scalar_f32() {
        // The f32 neighbourhoods of its own mantissa width and of the cap.
        let p23 = 2f32.powi(23);
        let cap = <f32 as Float>::CAP;
        pins_the_u64_formula::<f32>(&[
            f32::MIN_POSITIVE / 4.0,
            1.0 - f32::EPSILON / 2.0,
            p23 - 1.0,
            p23 + 1.0,
            2.0 * p23 + 2.0,
            cap * (1.0 - f32::EPSILON),
            f32::MAX,
        ]);
    }
}
