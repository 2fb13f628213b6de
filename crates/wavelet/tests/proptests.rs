//! Property tests for the wavelet substrate: perfect reconstruction and
//! energy behaviour for arbitrary shapes, level counts and kernels.

use proptest::prelude::*;
use sperr_exec::stress::{ReverseOrder, StripedWorkers};
use sperr_wavelet::{
    coarse_dims, forward_1d, forward_1d_with, forward_3d, forward_3d_with, inverse_1d,
    inverse_1d_with, inverse_3d, inverse_3d_partial, inverse_3d_partial_with, inverse_3d_with,
    levels_for_dims, num_levels, reference, Kernel, Support, TransformScratch, PANEL_W,
};

fn kernel_strategy() -> impl Strategy<Value = Kernel> {
    prop_oneof![Just(Kernel::Cdf97), Just(Kernel::Cdf53), Just(Kernel::Haar)]
}

fn volume_strategy() -> impl Strategy<Value = (Vec<f64>, [usize; 3])> {
    (1usize..=20, 1usize..=20, 1usize..=12).prop_flat_map(|(nx, ny, nz)| {
        let n = nx * ny * nz;
        prop::collection::vec(-1e4f64..1e4, n..=n).prop_map(move |v| (v, [nx, ny, nz]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn perfect_reconstruction_any_shape((data, dims) in volume_strategy(),
                                        kernel in kernel_strategy(),
                                        extra_levels in 0usize..3) {
        let rule = levels_for_dims(dims);
        // Also exercise levels beyond the rule (driver must handle them).
        let levels = [rule[0] + extra_levels, rule[1] + extra_levels, rule[2] + extra_levels];
        let mut work = data.clone();
        forward_3d(&mut work, dims, levels, kernel);
        inverse_3d(&mut work, dims, levels, kernel);
        let scale = data.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, b) in data.iter().zip(&work) {
            prop_assert!((a - b).abs() <= scale * 1e-10,
                         "PR violation: {a} vs {b} (dims {dims:?}, kernel {kernel:?})");
        }
    }

    #[test]
    fn energy_roughly_preserved_cdf97((data, dims) in volume_strategy()) {
        let levels = levels_for_dims(dims);
        let mut work = data.clone();
        forward_3d(&mut work, dims, levels, Kernel::Cdf97);
        let e_in: f64 = data.iter().map(|v| v * v).sum();
        let e_out: f64 = work.iter().map(|v| v * v).sum();
        if e_in > 1e-12 {
            let ratio = e_out / e_in;
            // Biorthogonal, near-orthogonal: bounded drift even on noise.
            prop_assert!((0.5..2.0).contains(&ratio), "energy ratio {ratio}");
        }
    }

    #[test]
    fn partial_inverse_consistent_with_full((data, dims) in volume_strategy()) {
        // skip_finest = 0 must equal the full inverse.
        let levels = levels_for_dims(dims);
        let mut a = data.clone();
        forward_3d(&mut a, dims, levels, Kernel::Cdf97);
        let mut b = a.clone();
        inverse_3d(&mut a, dims, levels, Kernel::Cdf97);
        inverse_3d_partial(&mut b, dims, levels, 0, Kernel::Cdf97);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn coarse_dims_shrink_monotonically(nx in 1usize..200, ny in 1usize..200, nz in 1usize..200) {
        let dims = [nx, ny, nz];
        let levels = levels_for_dims(dims);
        let mut prev = dims;
        for skip in 1..=6usize {
            let c = coarse_dims(dims, levels, skip);
            for d in 0..3 {
                prop_assert!(c[d] <= prev[d]);
                prop_assert!(c[d] >= 1);
            }
            prev = c;
        }
    }

    #[test]
    fn level_rule_monotone(n in 1usize..100000) {
        // num_levels never decreases as n grows, and is capped at 6.
        let l = num_levels(n);
        prop_assert!(l <= 6);
        prop_assert!(num_levels(n + 1) >= l);
    }
}

/// Shapes that stress the panel machinery: axes crossing [`PANEL_W`]
/// (full + partial panels), prime and odd lengths, and axes shorter than
/// 8 where `num_levels` is 0 and the pass must be skipped identically.
fn panel_axis() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..8,                          // below the level-rule threshold
        Just(7usize),                       // prime
        Just(13usize),
        Just(PANEL_W - 1),                  // one line short of a panel
        Just(PANEL_W),
        Just(PANEL_W + 1),
        8usize..=2 * PANEL_W + 3,
    ]
}

fn panel_volume_strategy() -> impl Strategy<Value = (Vec<f64>, [usize; 3])> {
    (panel_axis(), panel_axis(), panel_axis()).prop_flat_map(|(nx, ny, nz)| {
        let n = nx * ny * nz;
        prop::collection::vec(-1e4f64..1e4, n..=n).prop_map(move |v| (v, [nx, ny, nz]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_forward_bit_identical_to_reference((data, dims) in panel_volume_strategy(),
                                                  kernel in kernel_strategy()) {
        let levels = levels_for_dims(dims);
        let mut per_line = data.clone();
        reference::forward_3d(&mut per_line, dims, levels, kernel);
        let mut blocked = data.clone();
        forward_3d(&mut blocked, dims, levels, kernel);
        // Bit-identical, not approximately equal: the panel scheme must
        // perform the exact same arithmetic as the per-line reference.
        prop_assert_eq!(per_line, blocked, "forward mismatch, dims {:?}", dims);
    }

    #[test]
    fn blocked_inverse_bit_identical_to_reference((data, dims) in panel_volume_strategy(),
                                                  kernel in kernel_strategy()) {
        let levels = levels_for_dims(dims);
        let mut coeffs = data.clone();
        forward_3d(&mut coeffs, dims, levels, kernel);
        let mut per_line = coeffs.clone();
        reference::inverse_3d(&mut per_line, dims, levels, kernel);
        let mut blocked = coeffs;
        inverse_3d(&mut blocked, dims, levels, kernel);
        prop_assert_eq!(per_line, blocked, "inverse mismatch, dims {:?}", dims);
    }

    #[test]
    fn blocked_2d_fields_bit_identical((data, dims) in (2usize..=2 * PANEL_W + 3, 2usize..=2 * PANEL_W + 3)
            .prop_flat_map(|(nx, ny)| {
                let n = nx * ny;
                prop::collection::vec(-1e3f64..1e3, n..=n).prop_map(move |v| (v, [nx, ny, 1]))
            }),
            kernel in kernel_strategy()) {
        // A 2D field is a dims[2] == 1 volume: the z pass is a no-op and
        // the y pass runs the strided panel path.
        let levels = levels_for_dims(dims);
        let mut per_line = data.clone();
        reference::forward_3d(&mut per_line, dims, levels, kernel);
        let mut blocked = data.clone();
        forward_3d(&mut blocked, dims, levels, kernel);
        prop_assert_eq!(per_line, blocked);
    }

    #[test]
    fn executor_order_and_worker_keying_do_not_change_bytes((data, dims) in panel_volume_strategy()) {
        let levels = levels_for_dims(dims);
        let kernel = Kernel::Cdf97;
        let mut serial = data.clone();
        forward_3d(&mut serial, dims, levels, kernel);

        let mut reversed = data.clone();
        let mut scratch = TransformScratch::new();
        forward_3d_with(&mut reversed, dims, levels, kernel, &ReverseOrder, &mut scratch);
        prop_assert_eq!(&serial, &reversed, "job order changed output");

        let mut striped = data.clone();
        let mut scratch = TransformScratch::new();
        forward_3d_with(&mut striped, dims, levels, kernel, &StripedWorkers(3), &mut scratch);
        prop_assert_eq!(&serial, &striped, "worker keying changed output");

        let pooled = sperr_exec::WorkerPool::scoped(3, |pool| {
            let mut pooled = data.clone();
            forward_3d_with(&mut pooled, dims, levels, kernel, pool, &mut TransformScratch::new());
            pooled
        });
        prop_assert_eq!(&serial, &pooled, "real threads changed output");

        // Same for the inverse, reusing the (already grown) scratch.
        let mut inv_serial = serial.clone();
        inverse_3d(&mut inv_serial, dims, levels, kernel);
        let mut inv_striped = striped;
        inverse_3d_with(&mut inv_striped, dims, levels, kernel, &StripedWorkers(3), &mut scratch);
        prop_assert_eq!(inv_serial, inv_striped);
    }

    #[test]
    fn blocked_f32_bit_identical_and_reconstructs((data, dims) in panel_volume_strategy(),
                                                  kernel in kernel_strategy()) {
        // The f32 instantiation honors the same contracts as f64: blocked
        // == per-line reference bitwise, any executor schedule, and the
        // inverse reconstructs to f32 tolerance.
        let data32: Vec<f32> = data.iter().map(|&v| v as f32).collect();
        let levels = levels_for_dims(dims);
        let mut per_line = data32.clone();
        reference::forward_3d(&mut per_line, dims, levels, kernel);
        let mut blocked = data32.clone();
        forward_3d(&mut blocked, dims, levels, kernel);
        prop_assert_eq!(
            per_line.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            blocked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "f32 forward mismatch, dims {:?}", dims
        );

        let mut striped = data32.clone();
        let mut scratch = TransformScratch::<f32>::new();
        forward_3d_with(&mut striped, dims, levels, kernel, &StripedWorkers(3), &mut scratch);
        prop_assert_eq!(
            blocked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            striped.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "f32 worker keying changed output"
        );

        inverse_3d(&mut blocked, dims, levels, kernel);
        let scale: f32 = data32.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for (a, b) in data32.iter().zip(&blocked) {
            prop_assert!((a - b).abs() <= scale * 1e-4, "f32 roundtrip error: {a} vs {b}");
        }
    }

    #[test]
    fn partial_inverse_with_matches_allocating((data, dims) in panel_volume_strategy(),
                                               skip in 0usize..3) {
        let levels = levels_for_dims(dims);
        prop_assume!(levels.iter().all(|&l| l >= skip));
        let mut coeffs = data.clone();
        forward_3d(&mut coeffs, dims, levels, Kernel::Cdf97);
        let mut a = coeffs.clone();
        inverse_3d_partial(&mut a, dims, levels, skip, Kernel::Cdf97);
        let mut b = coeffs;
        let mut scratch = TransformScratch::new();
        let support = Support::new(dims, levels, skip, None);
        inverse_3d_partial_with(&mut b, &support, Kernel::Cdf97, &StripedWorkers(3), &mut scratch);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn scratch_1d_variants_match_allocating(data in prop::collection::vec(-1e4f64..1e4, 2..300),
                                            kernel in kernel_strategy()) {
        let n = data.len();
        let levels = num_levels(n).max(1);
        let mut alloc = data.clone();
        forward_1d(&mut alloc, n, levels, kernel);
        let mut scratch = vec![0.0; n];
        let mut reuse = data.clone();
        forward_1d_with(&mut reuse, n, levels, kernel, &mut scratch);
        prop_assert_eq!(&alloc, &reuse);

        let mut alloc_inv = alloc.clone();
        inverse_1d(&mut alloc_inv, n, levels, kernel);
        let mut reuse_inv = reuse;
        inverse_1d_with(&mut reuse_inv, n, levels, kernel, &mut scratch);
        prop_assert_eq!(alloc_inv, reuse_inv);
    }
}
