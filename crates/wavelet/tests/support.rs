//! Differential tests of [`Support`]: a box reconstructed from its support
//! alone, through the line-restricted inverse, is bit-identical to the same
//! samples of the full (or coarse) inverse.
//!
//! Every coefficient outside the support is set to NaN first. Lifting
//! propagates a NaN into every sample that reads it, so a dependency the
//! support missed — a band sample, a line, a step — shows up as a NaN in the
//! box instead of hiding behind a value that happens to be close.
//!
//! The 70-sample shapes run in the release lane only (`scripts/ci.sh`); a
//! debug build caps the extents so the workspace step stays quick.

use proptest::prelude::*;
use sperr_exec::{stress::StripedWorkers, Serial};
use sperr_simd::Float;
use sperr_wavelet::{
    coarse_dims, forward_3d, inverse_3d_partial, inverse_3d_partial_with, levels_for_dims, Kernel,
    Region, Support, TransformScratch,
};

const PRIMES: [usize; 10] = [2, 3, 5, 7, 11, 13, 17, 31, 61, 67];

/// One axis extent of shape class `class`: any length, odd, prime,
/// extent 1, or a power of two (so the axes of one shape get unequal
/// level counts).
fn extent(class: u64, seed: u64) -> usize {
    let max = if cfg!(debug_assertions) { 24 } else { 70 };
    let seed = seed as usize;
    match class % 5 {
        0 => 1 + seed % max,
        1 => (1 + seed % max) | 1,
        2 => PRIMES[seed % PRIMES.len()].min(max),
        3 => 1,
        _ => (8usize << (seed % 3)).min(max),
    }
}

/// A box of the `out` volume: one voxel, all of it, against its low or its
/// high edge, or anywhere.
fn region(class: u64, seeds: [u64; 6], out: [usize; 3]) -> Region {
    let pick = |d: usize, s: u64| s as usize % out[d];
    let (mut lo, mut hi) = ([0; 3], out);
    for d in 0..3 {
        let (a, b) = (pick(d, seeds[d]), pick(d, seeds[d + 3]));
        match class % 5 {
            0 => (lo[d], hi[d]) = (a, a + 1),
            1 => {}
            2 => hi[d] = a + 1,
            3 => lo[d] = a,
            _ => (lo[d], hi[d]) = (a.min(b), a.max(b) + 1),
        }
    }
    (lo, hi)
}

fn sample<T: Float>(i: usize, seed: u64) -> T {
    let x = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    T::from_f64(((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2e3)
}

/// Reconstructs `region` of the level-`skip` output of a random field
/// twice — full inverse, and NaN-poisoned support through the restricted
/// inverse — and returns the first box sample whose bits differ.
fn mismatch<T: Float>(
    dims: [usize; 3],
    kernel: Kernel,
    skip: usize,
    region: Region,
    seed: u64,
    striped: bool,
) -> Option<([usize; 3], f64, f64)> {
    let levels = levels_for_dims(dims);
    let n = dims.iter().product();
    let mut coeffs: Vec<T> = (0..n).map(|i| sample(i, seed)).collect();
    forward_3d(&mut coeffs, dims, levels, kernel);
    let mut full = coeffs.clone();
    inverse_3d_partial(&mut full, dims, levels, skip, kernel);

    let support = Support::new(dims, levels, skip, Some(region));
    let kept = coeffs.clone();
    coeffs.fill(T::from_f64(f64::NAN));
    for (lo, hi) in support.boxes() {
        for z in lo[2]..hi[2] {
            for y in lo[1]..hi[1] {
                let row = dims[0] * (y + dims[1] * z);
                coeffs[row + lo[0]..row + hi[0]].copy_from_slice(&kept[row + lo[0]..row + hi[0]]);
            }
        }
    }
    let mut scratch = TransformScratch::new();
    if striped {
        inverse_3d_partial_with(&mut coeffs, &support, kernel, &StripedWorkers(3), &mut scratch);
    } else {
        inverse_3d_partial_with(&mut coeffs, &support, kernel, &Serial, &mut scratch);
    }
    let (lo, hi) = region;
    for z in lo[2]..hi[2] {
        for y in lo[1]..hi[1] {
            for x in lo[0]..hi[0] {
                let i = x + dims[0] * (y + dims[1] * z);
                let (got, want) = (coeffs[i].to_f64(), full[i].to_f64());
                if got.to_bits() != want.to_bits() {
                    return Some(([x, y, z], got, want));
                }
            }
        }
    }
    None
}

fn kernel_of(k: u64) -> Kernel {
    [Kernel::Cdf97, Kernel::Cdf53, Kernel::Haar][k as usize % 3]
}

/// SplitMix64 step: the case's other choices, drawn from its seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_box_from_its_support_alone_is_bit_identical(
        classes in (0u64..5, 0u64..5, 0u64..5),
        box_class in 0u64..5,
        kernel in 0u64..3,
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let dims = [classes.0, classes.1, classes.2].map(|c| extent(c, next(&mut state)));
        let levels = levels_for_dims(dims);
        let max_level = levels.iter().copied().max().unwrap_or(0);
        let skip = next(&mut state) as usize % (max_level + 1);
        let out = coarse_dims(dims, levels, skip);
        let region = region(box_class, std::array::from_fn(|_| next(&mut state)), out);
        let kernel = kernel_of(kernel);
        let striped = seed % 2 == 1;
        let bad = if wide {
            mismatch::<f64>(dims, kernel, skip, region, seed, striped)
        } else {
            mismatch::<f32>(dims, kernel, skip, region, seed, striped)
        };
        prop_assert!(
            bad.is_none(),
            "dims {dims:?} {kernel:?} level {skip} box {region:?} f64={wide}: {bad:?}"
        );
    }
}

#[test]
fn edge_boxes_of_unequal_level_shapes_at_every_level() {
    // The fixed corners of the space: single voxels at both ends and in the
    // middle, full volumes, every level, every kernel, both widths.
    for dims in [[64usize, 8, 16], [17, 1, 33], [1, 1, 61], [40, 40, 1], [9, 23, 12]] {
        let levels = levels_for_dims(dims);
        for skip in 0..=levels.iter().copied().max().unwrap_or(0) {
            let out = coarse_dims(dims, levels, skip);
            let last = out.map(|d| d - 1);
            let mid = out.map(|d| d / 2);
            let boxes = [
                ([0; 3], [1; 3]),
                (last, out),
                (mid, mid.map(|m| m + 1)),
                ([0; 3], out),
                (mid, out),
            ];
            for (k, region) in boxes.into_iter().enumerate() {
                for kernel in [Kernel::Cdf97, Kernel::Cdf53, Kernel::Haar] {
                    let bad = mismatch::<f64>(dims, kernel, skip, region, k as u64, false);
                    assert!(bad.is_none(), "{dims:?} {kernel:?} level {skip} {region:?}: {bad:?}");
                    let bad = mismatch::<f32>(dims, kernel, skip, region, k as u64, true);
                    assert!(bad.is_none(), "{dims:?} {kernel:?} level {skip} {region:?}: {bad:?}");
                }
            }
        }
    }
}

#[test]
fn a_small_box_of_a_big_chunk_keeps_a_small_support() {
    // Tightness, on the benchmark's region read: a 24³ box (0.66 % of the
    // samples) of a 128³ chunk, five levels per axis. No support can be
    // smaller than the box itself — the box's samples are independent
    // functions of the coefficients — and each step widens an output range
    // of `L` samples to about `L/2 + 4` samples of each band, so the
    // support is about 2.4 × the box: 1.03 % at a corner,
    // 1.56 % centred, 1.30–1.81 % over 200 random placements.
    let dims = [128usize; 3];
    let levels = levels_for_dims(dims);
    let n = dims.iter().product::<usize>();
    let box_volume = 24 * 24 * 24;
    for lo in [[0usize; 3], [52; 3], [104; 3], [13, 77, 40], [101, 3, 66]] {
        let support = Support::new(dims, levels, 0, Some((lo, lo.map(|l| l + 24))));
        let kept = support.coefficients();
        assert!(kept >= box_volume, "box at {lo:?}: {kept} coefficients");
        assert!(kept * 1000 <= n * 19, "box at {lo:?} keeps {kept} of {n}");
        assert!(kept * 10 <= box_volume * 26, "box at {lo:?} keeps {kept}");
    }
    // Pinned exactly, so a looser reach or a lost band does not pass
    // silently: level by level, the centred box's 24 samples per axis need
    // 16, 12, 10, 8 and 4 samples of each band.
    let centred = Support::new(dims, levels, 0, Some(([52; 3], [76; 3])));
    assert_eq!(centred.coefficients(), 32_664);
    // Multires: level l keeps the corner, 1/8^l of the chunk.
    let coarse = Support::new(dims, levels, 2, None);
    assert_eq!(coarse.coefficients(), 32 * 32 * 32);
    assert!(Support::new(dims, levels, 0, None).is_everything());
}
