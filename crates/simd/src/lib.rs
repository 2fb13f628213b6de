//! Portable explicit-width SIMD kernels for the SPERR hot loops.
//!
//! Every kernel here is written as an *autovectorization-friendly chunked
//! loop*: a fixed-width block body over `[T; W]`-shaped windows (so LLVM
//! can turn it into `f64x2`/`u8x16`-class vector code on any target, at
//! the baseline feature level) plus an explicit scalar tail. There is no
//! `core::simd` dependency, no nightly feature, no `std::arch` intrinsic
//! and no `unsafe`: the blocked code is ordinary safe Rust shaped so the
//! LLVM loop/SLP vectorizers reliably fire, and it cross-compiles
//! unchanged to non-x86 targets (CI checks aarch64).
//!
//! # Bit-identity rule
//!
//! Every kernel computes the **same per-element expression, with the same
//! operand order**, as its scalar reference (the `scalar_*` twins in this
//! crate). Integer kernels are trivially exact; the floating-point
//! kernels never reassociate across elements — each output lane is an
//! independent expression — so vector and scalar evaluation produce
//! bit-identical results. The SPECK and wavelet conformance goldens rely
//! on this: a blocked kernel may not change a single stream byte.
//!
//! # Scalar twins
//!
//! The twins are test oracles, not a build configuration: the proptests
//! in this crate diff blocked vs scalar at f32 and f64 on every shape
//! and tail, which is what proves the rule above.

mod bitplane;
mod bytes;
mod float;
mod lift;
mod quant;

pub use bitplane::{transpose_32x64, transpose_64x64};
pub use bytes::{max_assign, max_elem, pairwise_max_into, run_le};
pub use float::Float;
pub use lift::{lift_pairs, merge_even_odd, scale_in_place, split_even_odd};
pub use quant::{quantize_magnitude, reconstruct_mid_riser_into};

/// The scalar reference implementations (the `scalar_*` twins), exported
/// for differential tests: proptests diff every blocked kernel against
/// its twin across shapes, tails, and alignments.
pub mod scalar {
    pub use crate::bitplane::{scalar_transpose_32x64, scalar_transpose_64x64};
    pub use crate::bytes::{
        scalar_max_assign, scalar_max_elem, scalar_pairwise_max_into, scalar_run_le,
    };
    pub use crate::lift::{
        scalar_lift_pairs, scalar_merge_even_odd, scalar_scale_in_place, scalar_split_even_odd,
    };
    pub use crate::quant::scalar_reconstruct_mid_riser_into;
}

/// Primitive unsigned lane types the integer kernels are generic over.
/// Sealed by construction: implemented only for the widths the pyramid
/// and coder actually use.
pub trait Lane: Copy + Ord + Default {}
impl Lane for u8 {}
impl Lane for u16 {}
impl Lane for u32 {}
impl Lane for u64 {}

#[cfg(test)]
mod tests {
    #[test]
    fn public_surface_links() {
        // Smoke-link every re-export once so a broken cfg combination
        // fails the plain test build, not just downstream crates.
        assert_eq!(crate::max_elem(&[3u8, 9, 1]), 9);
        assert_eq!(crate::run_le(&[1u8, 2, 3], 2), 2);
        let mut rows = [0u64; 32];
        rows[1] = 1;
        crate::transpose_32x64(&mut rows);
        assert_eq!(rows[0], 0b10);
        let mut x = [1.0f64, 2.0];
        crate::scale_in_place(&mut x, 2.0);
        assert_eq!(x, [2.0, 4.0]);
        assert_eq!(crate::quantize_magnitude(2.5, 1.0), 2);
    }
}
