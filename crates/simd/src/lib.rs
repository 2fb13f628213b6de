//! The SPERR hot-loop kernels, one body each.
//!
//! A kernel's body is the plain loop — the obvious one-element-at-a-time
//! iterator code — unless a hand-blocked body was measured faster than it
//! at both sample widths on the shipped baseline x86-64 build (SSE2).
//! Four families keep a blocked body for that reason: the even/odd band
//! split and merge, the pairwise byte max, the SWAR run scan and the
//! bit-matrix transposes. Lifting, scaling and the quantizer are plain
//! loops: no blocked body beat them at both widths (DESIGN.md §13 has
//! the measurements). There is no `core::simd` dependency, no nightly
//! feature, no `std::arch` intrinsic and no `unsafe`, and the crate
//! cross-compiles unchanged to non-x86 targets (CI checks aarch64).
//!
//! # Bit-identity rule
//!
//! A blocked body computes the same per-element expression, with the same
//! operand order, as the plain loop it replaces; every output element is
//! an independent expression, so no float result depends on how the loop
//! is blocked. Rust never contracts a multiply and an add into a fused
//! one on its own, and kernel code never asks it to (`mul_add` and the
//! fast-math intrinsics are rejected by a tier-1 source scan). The SPECK
//! and wavelet conformance goldens rely on this.
//!
//! # Oracles
//!
//! Each blocked body is diffed against a plain-loop oracle, which lives
//! in `tests/proptests.rs` beside the property tests that use it.

mod bitplane;
mod bytes;
mod float;
mod lift;
mod quant;

pub use bitplane::{transpose_32x64, transpose_64x64};
pub use bytes::{pairwise_max_into, run_le};
pub use float::Float;
pub use lift::{lift_pairs, merge_even_odd, scale_in_place, split_even_odd};
pub use quant::{quantize_magnitude, reconstruct_mid_riser};

#[cfg(test)]
mod tests {
    #[test]
    fn public_surface_links() {
        // Smoke-link every re-export once so a broken cfg combination
        // fails the plain test build, not just downstream crates.
        let mut half = [0u8; 2];
        crate::pairwise_max_into(&[3, 9, 1], &mut half);
        assert_eq!(half, [9, 1]);
        assert_eq!(crate::run_le(&[1u8, 2, 3], 2), 2);
        let mut rows = [0u64; 32];
        rows[1] = 1;
        crate::transpose_32x64(&mut rows);
        assert_eq!(rows[0], 0b10);
        let mut x = [1.0f64, 2.0];
        crate::scale_in_place(&mut x, 2.0);
        assert_eq!(x, [2.0, 4.0]);
        assert_eq!(crate::quantize_magnitude(2.5, 1.0), 2);
        assert_eq!(crate::reconstruct_mid_riser(-2.5, 1.0, 1.0), -2.5);
    }
}
