//! The `Float` sample-type abstraction the generic hot path is built on.
//!
//! Every float-touching stage — wavelet lifting, SPECK quantization, the
//! outlier residual scan, the kernels in this crate — is generic over
//! `T: Float` with exactly two instantiations: `f64` (the historical
//! path, bit-identical to the pre-generic code because monomorphization
//! preserves expression and operand order) and `f32` (the native
//! single-precision path: half the memory traffic, twice the lanes per
//! vector register).
//!
//! The trait lives in `sperr-simd` because this crate sits at the bottom
//! of the workspace dependency graph; `sperr-core` re-exports it as part
//! of its public API.
//!
//! # Bit-identity contract
//!
//! Generic code must never reassociate or reorder float arithmetic based
//! on `T`: the same expression tree evaluates at both widths. `from_f64`
//! is the only sanctioned narrowing point (rounds once, to nearest), and
//! `to_f64` is exact, so f32 results widen losslessly for comparison
//! against f64 references.

use core::fmt::Debug;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Sample type of the compression hot path: `f32` or `f64`. Sealed by
/// construction — the pipeline's correctness arguments (quantizer
/// saturation, mid-riser exactness, LE wire layout) are only made for
/// IEEE-754 binary32/binary64.
pub trait Float:
    Copy
    + PartialOrd
    + Default
    + Send
    + Sync
    + Debug
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// 0.5, the mid-riser cell centre offset.
    const HALF: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Quantizer saturation threshold, `2^62` (exactly representable at
    /// both widths; keeps downstream bitplane shifts in range).
    const CAP: Self;
    /// Wire width in bytes (4 or 8); little-endian in every container
    /// and raw-file format.
    const BYTES: usize;
    /// `"f32"` / `"f64"`, for error messages and bench labels.
    const NAME: &'static str;

    /// Conversion from `f64`: identity for `f64`, round-to-nearest for
    /// `f32`. The single sanctioned narrowing point in generic code.
    fn from_f64(v: f64) -> Self;
    /// Exact widening to `f64`.
    fn to_f64(self) -> f64;
    /// `k as Self` — a decoded cell index as a sample, used by the SPECK
    /// decoders' mid-riser placement. Rounds when `k` exceeds the
    /// mantissa, exactly as the historical `k as f64` cast did.
    fn from_u64_lossy(k: u64) -> Self;
    /// `|self|`.
    fn abs(self) -> Self;
    /// IEEE maximum as implemented by `f32::max`/`f64::max`.
    fn max(self, other: Self) -> Self;
    /// Finiteness test (rejects NaN and infinities).
    fn is_finite(self) -> bool;
    /// Reads one sample from exactly `BYTES` little-endian bytes.
    fn read_le(bytes: &[u8]) -> Self;
    /// Writes one sample as exactly `BYTES` little-endian bytes.
    fn write_le(self, out: &mut [u8]);
}

impl Float for f64 {
    const ZERO: Self = 0.0;
    const HALF: Self = 0.5;
    const ONE: Self = 1.0;
    const CAP: Self = (1u64 << 62) as f64;
    const BYTES: usize = 8;
    const NAME: &'static str = "f64";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn from_u64_lossy(k: u64) -> Self {
        k as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn read_le(bytes: &[u8]) -> Self {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[..8]);
        f64::from_le_bytes(b)
    }
    #[inline(always)]
    fn write_le(self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.to_le_bytes());
    }
}

impl Float for f32 {
    const ZERO: Self = 0.0;
    const HALF: Self = 0.5;
    const ONE: Self = 1.0;
    const CAP: Self = (1u64 << 62) as f32;
    const BYTES: usize = 4;
    const NAME: &'static str = "f32";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn from_u64_lossy(k: u64) -> Self {
        k as f32
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn read_le(bytes: &[u8]) -> Self {
        let mut b = [0u8; 4];
        b.copy_from_slice(&bytes[..4]);
        f32::from_le_bytes(b)
    }
    #[inline(always)]
    fn write_le(self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_consts() {
        assert_eq!(<f64 as Float>::BYTES, 8);
        assert_eq!(<f32 as Float>::BYTES, 4);
        assert_eq!(<f64 as Float>::CAP, (1u64 << 62) as f64);
        assert_eq!(<f32 as Float>::CAP, (1u64 << 62) as f32);
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(f64::from_f64(1.25), 1.25);
        assert_eq!(f32::from_f64(1.25), 1.25f32);
        assert_eq!(Float::to_f64(0.1f32), 0.1f32 as f64);
        assert_eq!(f64::from_u64_lossy(7), 7.0);
        assert_eq!(f32::from_u64_lossy(7), 7.0f32);
    }

    #[test]
    fn le_wire_round_trip() {
        let mut b8 = [0u8; 8];
        Float::write_le(-3.75f64, &mut b8);
        assert_eq!(<f64 as Float>::read_le(&b8), -3.75);
        let mut b4 = [0u8; 4];
        Float::write_le(-3.75f32, &mut b4);
        assert_eq!(<f32 as Float>::read_le(&b4), -3.75f32);
    }
}
