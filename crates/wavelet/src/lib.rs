//! Wavelet-transform substrate for the SPERR reproduction.
//!
//! Implements the CDF 9/7 biorthogonal wavelet transform via the lifting
//! scheme (Daubechies & Sweldens factorization) with symmetric
//! (whole-sample) boundary extension and approximately unit-norm basis
//! functions — the configuration the paper borrows from QccPack (§III-A).
//! Because the basis is near-orthogonal and normalized, the L² error
//! introduced in wavelet coefficients during coding approximately equals
//! the L² error of the reconstruction, which SPERR's design relies on.
//!
//! Also provided, for the design-choice ablations in `crates/bench`:
//! CDF 5/3 (LeGall) and Haar kernels.
//!
//! # Layout
//!
//! Transforms are *in place* over a row-major array. After one level along
//! an axis of length `n`, the `ceil(n/2)` approximation coefficients occupy
//! the front of that axis and the `floor(n/2)` details the back — the
//! standard dyadic ("Mallat") packing SPECK's octree partitioning aligns
//! with.
//!
//! # Level rule
//!
//! Per the paper: with an input axis of length `N`, the number of recursive
//! transform passes is `min(6, ⌊log2 N⌋ − 2)` (and 0 when `N < 8`); see
//! [`num_levels`].
//!
//! # Example
//!
//! ```
//! use sperr_wavelet::{forward_3d, inverse_3d, levels_for_dims, Kernel};
//!
//! let dims = [16, 16, 16];
//! let mut data: Vec<f64> = (0..dims[0] * dims[1] * dims[2])
//!     .map(|i| (i as f64 * 0.37).sin())
//!     .collect();
//! let orig = data.clone();
//! let levels = levels_for_dims(dims);
//! forward_3d(&mut data, dims, levels, Kernel::Cdf97);
//! inverse_3d(&mut data, dims, levels, Kernel::Cdf97);
//! for (a, b) in orig.iter().zip(&data) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```

mod exec;
mod kernels;
mod support;
#[cfg(test)]
mod support_tests;
mod transform;

pub use exec::{TransformScratch, PANEL_W};
pub use kernels::Kernel;
pub use support::{Region, Support};
pub use transform::reference;
pub use transform::{
    approx_len, coarse_dims, coarse_scale, forward_1d, forward_1d_with, forward_2d, forward_3d,
    forward_3d_with, inverse_1d, inverse_1d_with, inverse_2d, inverse_3d, inverse_3d_partial,
    inverse_3d_partial_with, inverse_3d_with, levels_for_dims, num_levels,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    fn energy(a: &[f64]) -> f64 {
        a.iter().map(|x| x * x).sum()
    }

    #[test]
    fn level_rule_matches_paper() {
        assert_eq!(num_levels(1), 0);
        assert_eq!(num_levels(7), 0);
        assert_eq!(num_levels(8), 1);
        assert_eq!(num_levels(15), 1);
        assert_eq!(num_levels(16), 2);
        assert_eq!(num_levels(64), 4);
        assert_eq!(num_levels(256), 6);
        assert_eq!(num_levels(512), 6); // capped at six
        assert_eq!(num_levels(3072), 6);
    }

    #[test]
    fn approx_len_is_ceil_half() {
        assert_eq!(approx_len(9), 5);
        assert_eq!(approx_len(8), 4);
        assert_eq!(approx_len(1), 1);
    }

    #[test]
    fn perfect_reconstruction_1d_all_kernels() {
        for kernel in [Kernel::Cdf97, Kernel::Cdf53, Kernel::Haar] {
            for n in [2usize, 3, 5, 8, 9, 16, 17, 33, 64, 100, 257] {
                let orig: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.013).cos()).collect();
                let mut data = orig.clone();
                let levels = 1;
                forward_1d(&mut data, n, levels, kernel);
                inverse_1d(&mut data, n, levels, kernel);
                assert!(
                    max_abs_diff(&orig, &data) < 1e-10,
                    "PR failed: kernel={kernel:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn perfect_reconstruction_1d_multilevel() {
        for n in [32usize, 65, 100, 257] {
            let orig: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin() * 40.0).collect();
            let mut data = orig.clone();
            let levels = num_levels(n);
            forward_1d(&mut data, n, levels, Kernel::Cdf97);
            inverse_1d(&mut data, n, levels, Kernel::Cdf97);
            assert!(max_abs_diff(&orig, &data) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn perfect_reconstruction_2d() {
        let dims = [21, 34];
        let orig: Vec<f64> = (0..dims[0] * dims[1])
            .map(|i| (i as f64 * 0.17).sin() * 5.0 + (i as f64 * 0.031).cos())
            .collect();
        let mut data = orig.clone();
        let levels = [2, 2];
        forward_2d(&mut data, dims, levels, Kernel::Cdf97);
        inverse_2d(&mut data, dims, levels, Kernel::Cdf97);
        assert!(max_abs_diff(&orig, &data) < 1e-9);
    }

    #[test]
    fn perfect_reconstruction_3d_odd_dims() {
        let dims = [13, 10, 11];
        let orig: Vec<f64> = (0..dims[0] * dims[1] * dims[2])
            .map(|i| ((i % 97) as f64).sqrt() - (i as f64 * 0.003))
            .collect();
        let mut data = orig.clone();
        let levels = [1, 1, 1];
        forward_3d(&mut data, dims, levels, Kernel::Cdf97);
        inverse_3d(&mut data, dims, levels, Kernel::Cdf97);
        assert!(max_abs_diff(&orig, &data) < 1e-9);
    }

    #[test]
    fn perfect_reconstruction_3d_deep() {
        let dims = [32, 32, 32];
        let orig: Vec<f64> = (0..dims[0] * dims[1] * dims[2])
            .map(|i| (i as f64 * 0.0217).sin() * 100.0)
            .collect();
        let mut data = orig.clone();
        let levels = levels_for_dims(dims);
        assert_eq!(levels, [3, 3, 3]);
        forward_3d(&mut data, dims, levels, Kernel::Cdf97);
        inverse_3d(&mut data, dims, levels, Kernel::Cdf97);
        assert!(max_abs_diff(&orig, &data) < 1e-8);
    }

    #[test]
    fn constant_signal_concentrates_in_approx_band() {
        // A constant input must produce (near-)zero detail coefficients and
        // an approximation band scaled by sqrt(2) per level (unit-norm basis).
        let n = 64;
        let c = 3.5f64;
        let mut data = vec![c; n];
        forward_1d(&mut data, n, 1, Kernel::Cdf97);
        let half = approx_len(n);
        for &d in &data[half..] {
            assert!(d.abs() < 1e-12, "detail leak on constant input: {d}");
        }
        for &s in &data[..half] {
            assert!((s - c * std::f64::consts::SQRT_2).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_ramp_details_vanish_inside() {
        // CDF 9/7 analysis has vanishing moments; a linear ramp yields zero
        // detail coefficients away from boundaries. Whole-sample symmetric
        // extension preserves this at boundaries too for degree <= 1, but we
        // only assert the interior to stay robust.
        let n = 64;
        let mut data: Vec<f64> = (0..n).map(|i| 2.0 * i as f64 + 1.0).collect();
        forward_1d(&mut data, n, 1, Kernel::Cdf97);
        let half = approx_len(n);
        for &d in &data[half + 2..n - 2] {
            assert!(d.abs() < 1e-9, "interior detail on ramp: {d}");
        }
    }

    #[test]
    fn near_orthogonality_energy_preservation() {
        // §III-A: basis is near-orthonormal, so energy is roughly preserved.
        // CDF 9/7 is biorthogonal, not orthogonal: allow a few percent.
        let dims = [32, 32, 32];
        let orig: Vec<f64> = (0..dims[0] * dims[1] * dims[2])
            .map(|i| ((i as u64).wrapping_mul(2654435761) as f64 / u64::MAX as f64) - 0.5)
            .collect();
        let mut data = orig.clone();
        forward_3d(&mut data, dims, levels_for_dims(dims), Kernel::Cdf97);
        let ratio = energy(&data) / energy(&orig);
        assert!(
            (0.9..1.1).contains(&ratio),
            "energy ratio out of range: {ratio}"
        );
    }

    #[test]
    fn unequal_axis_levels() {
        // Axes of very different lengths get different level counts; the
        // driver must still invert exactly.
        let dims = [64, 8, 16];
        let levels = levels_for_dims(dims);
        assert_eq!(levels, [4, 1, 2]);
        let orig: Vec<f64> = (0..dims[0] * dims[1] * dims[2])
            .map(|i| (i as f64).sin())
            .collect();
        let mut data = orig.clone();
        forward_3d(&mut data, dims, levels, Kernel::Cdf97);
        inverse_3d(&mut data, dims, levels, Kernel::Cdf97);
        assert!(max_abs_diff(&orig, &data) < 1e-9);
    }

    #[test]
    fn zero_levels_is_identity() {
        let dims = [5, 5, 5];
        let orig: Vec<f64> = (0..125).map(|i| i as f64).collect();
        let mut data = orig.clone();
        forward_3d(&mut data, dims, [0, 0, 0], Kernel::Cdf97);
        assert_eq!(orig, data);
    }

    #[test]
    fn information_compaction_on_smooth_field() {
        // The defining property the paper relies on: most energy lands in a
        // small fraction of coefficients for smooth inputs (§II).
        let dims = [32, 32, 32];
        let mut orig = Vec::with_capacity(dims[0] * dims[1] * dims[2]);
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    orig.push(
                        (x as f64 * 0.2).sin() + (y as f64 * 0.15).cos() + (z as f64 * 0.1).sin(),
                    );
                }
            }
        }
        let mut data = orig.clone();
        forward_3d(&mut data, dims, levels_for_dims(dims), Kernel::Cdf97);
        let total = energy(&data);
        let mut mags: Vec<f64> = data.iter().map(|x| x * x).collect();
        mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top1pct: f64 = mags[..mags.len() / 100].iter().sum();
        assert!(
            top1pct / total > 0.99,
            "top 1% of coefficients hold only {:.4} of energy",
            top1pct / total
        );
    }
}
