//! The dyadic geometry: [`Geometry`] by arithmetic, for a domain whose
//! sides are all the same power of two.
//!
//! On a `2^k`-sided cube every split halves every axis evenly, so a cell
//! of partition level `l` is a side-`2^(k−l)` cube aligned to its own
//! size, and numbering cells in split order *is* Morton (Z-order)
//! numbering: the child enumeration of a split (`c = Σ which_d·2^d`,
//! first part = low half) appends one Morton digit. The tables of
//! [`crate::layout::Layout`] would therefore only spell out
//!
//! * `children(l, c) = c << D .. (c + 1) << D`,
//! * `to_row_major = demorton` (bit de-interleaving, done here with one
//!   group-of-bits lookup table),
//! * a level's maxima = `D` pairwise halvings of the level below
//!   ([`sperr_simd::pairwise_max_into`] — contiguous, vectorized),
//!
//! and a `256³` chunk, the shipped default, would pay 77 MB for them. No
//! pixel appears before level `k`. It is a second *geometry* behind the
//! same seam, not a second coder: the unit tests below hold its
//! arithmetic equal to the tables built for the same cube.

use crate::layout::{set_bit, Geometry};
use std::ops::Range;

/// True when `dims` is a power-of-two cube [`Dyadic`] describes (side >=
/// 2; a 1-cube is a bare pixel the tables cover).
pub(crate) fn applicable<const D: usize>(dims: [usize; D]) -> bool {
    let side = dims[0];
    side >= 2 && side.is_power_of_two() && dims.iter().all(|&d| d == side)
}

/// Morton ⇄ row-major index mapping for a `2^k`-sided `D`-cube, driven by
/// one group-of-bits lookup table.
///
/// Morton bit `J` addresses axis `J mod D`, bit `J / D` of that axis's
/// coordinate, so its row-major contribution is `stride[J % D] << (J / D)`
/// — additive over bits. Grouping `GB = D·B` Morton bits at a time (so
/// every group covers exactly `B` bits of *each* axis) makes the group's
/// contribution a pure shift of a table value:
/// `idx = Σ_g  L[(m >> g·GB) & (2^GB - 1)] << (g·B)`.
/// `B` is chosen so the table stays one-or-two-cache-lines hot
/// (`2^GB <= 512` entries).
pub(crate) struct MortonLayout {
    lut: Vec<u32>,
    /// Morton bits per group (`D · bits_per_axis_per_group`).
    group_bits: u32,
    /// Row-major shift per group step (`bits_per_axis_per_group`).
    axis_bits: u32,
    groups: u32,
}

impl MortonLayout {
    pub(crate) fn new<const D: usize>(side: usize) -> Self {
        debug_assert!(side.is_power_of_two() && side >= 2 && D >= 1);
        let k = side.trailing_zeros();
        // 9 Morton bits per group for D ∈ {1, 3}, 8 for D = 2.
        let b = (9 / D as u32).max(1);
        let gb = b * D as u32;
        let mut stride = [0u32; 8];
        let mut s = 1u32;
        for d in 0..D {
            stride[d] = s;
            s = s.wrapping_mul(side as u32);
        }
        let lut: Vec<u32> = (0u32..1 << gb)
            .map(|g| {
                let mut idx = 0u32;
                for j in 0..gb {
                    if g >> j & 1 == 1 {
                        idx += stride[j as usize % D] << (j / D as u32);
                    }
                }
                idx
            })
            .collect();
        MortonLayout { lut, group_bits: gb, axis_bits: b, groups: k.div_ceil(b) }
    }

    /// Row-major index of Morton index `m`.
    #[inline]
    pub(crate) fn demorton(&self, m: u32) -> u32 {
        let mask = (1u32 << self.group_bits) - 1;
        let mut idx = 0u32;
        for g in 0..self.groups {
            idx += self.lut[(m >> (g * self.group_bits) & mask) as usize] << (g * self.axis_bits);
        }
        idx
    }
}

/// The geometry of a `2^k`-sided `D`-cube.
pub(crate) struct Dyadic<const D: usize> {
    k: usize,
    layout: MortonLayout,
}

impl<const D: usize> Dyadic<D> {
    /// `dims` must satisfy [`applicable`].
    pub(crate) fn new(dims: [usize; D]) -> Self {
        Dyadic { k: dims[0].trailing_zeros() as usize, layout: MortonLayout::new::<D>(dims[0]) }
    }
}

impl<const D: usize> Geometry for Dyadic<D> {
    fn depth(&self) -> usize {
        self.k
    }

    fn cells(&self, level: usize) -> usize {
        1 << (D * level.min(self.k))
    }

    #[inline]
    fn children(&self, level: usize, cell: u32) -> Option<(u32, u32)> {
        // A cell the walk reached from the root is a cell the cube has.
        (level < self.k).then_some((cell << D, 1 << D))
    }

    #[inline]
    fn to_row_major(&self, pos: u32) -> Option<u32> {
        Some(self.layout.demorton(pos))
    }

    /// One table read and one add a pixel: the low group of Morton bits
    /// indexes the table directly, the groups above it change once every
    /// `2^group_bits` positions.
    fn row_major_run(&self, first: u32, out: &mut [u32]) {
        let low = (1u32 << self.layout.group_bits) - 1;
        let mut base = self.layout.demorton(first & !low);
        for (m, o) in (first..).zip(out) {
            if m & low == 0 {
                base = self.layout.demorton(m);
            }
            *o = base + self.layout.lut[(m & low) as usize];
        }
    }

    /// Three (two, one) pairwise halvings, 64 cells at a time through
    /// stack buffers.
    fn coarsen(&self, _level: usize, cells: Range<usize>, fine: &[u8], coarse: &mut [u8]) {
        let fine = &fine[cells.start << D..cells.end << D];
        let (mut half, mut quarter) = ([0u8; 64 << 2], [0u8; 64 << 1]);
        for (coarse, fine) in coarse.chunks_mut(64).zip(fine.chunks(64 << D)) {
            let (half, quarter) = (&mut half[..fine.len() / 2], &mut quarter[..fine.len() / 4]);
            match D {
                1 => sperr_simd::pairwise_max_into(fine, coarse),
                2 => {
                    sperr_simd::pairwise_max_into(fine, half);
                    sperr_simd::pairwise_max_into(half, coarse);
                }
                _ => {
                    sperr_simd::pairwise_max_into(fine, half);
                    sperr_simd::pairwise_max_into(half, quarter);
                    sperr_simd::pairwise_max_into(quarter, coarse);
                }
            }
        }
    }

    /// Morton-numbers each kept coefficient: per axis, a table spreads a
    /// coordinate's bits `D` apart, so a position is `D` lookups ORed.
    fn layout_bitmap(&self, row_major: &[u64], out: &mut [u64]) {
        if D == 1 {
            // A line is its own Morton order.
            out.iter_mut().zip(row_major).for_each(|(o, &r)| *o |= r);
            return;
        }
        let side = 1usize << self.k;
        let spread: Vec<[usize; D]> = (0..side)
            .map(|c| {
                let bits = (0..self.k).map(|j| (c >> j & 1) << (j * D));
                let spread = bits.fold(0usize, |acc, b| acc | b);
                std::array::from_fn(|d| spread << d)
            })
            .collect();
        for (w, &word) in row_major.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let i = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let mut pos = 0usize;
                for d in 0..D {
                    let c = i >> (d * self.k) & (side - 1);
                    pos |= spread.get(c).map_or(0, |s| s[d]);
                }
                if i >> (D * self.k) == 0 {
                    set_bit(out, pos);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode, reference, Termination};

    #[test]
    fn demorton_matches_bit_deinterleave_3d() {
        let side = 16usize;
        let layout = MortonLayout::new::<3>(side);
        for m in 0u32..(side * side * side) as u32 {
            let (mut x, mut y, mut z) = (0u32, 0u32, 0u32);
            for bit in 0..10 {
                x |= (m >> (3 * bit) & 1) << bit;
                y |= (m >> (3 * bit + 1) & 1) << bit;
                z |= (m >> (3 * bit + 2) & 1) << bit;
            }
            let expect = x + y * side as u32 + z * (side * side) as u32;
            assert_eq!(layout.demorton(m), expect, "m={m}");
        }
    }

    #[test]
    fn demorton_matches_bit_deinterleave_2d_and_1d() {
        let side = 32usize;
        let l2 = MortonLayout::new::<2>(side);
        for m in 0u32..(side * side) as u32 {
            let (mut x, mut y) = (0u32, 0u32);
            for bit in 0..16 {
                x |= (m >> (2 * bit) & 1) << bit;
                y |= (m >> (2 * bit + 1) & 1) << bit;
            }
            assert_eq!(l2.demorton(m), x + y * side as u32, "m={m}");
        }
        let l1 = MortonLayout::new::<1>(512);
        for m in [0u32, 1, 17, 255, 511] {
            assert_eq!(l1.demorton(m), m);
        }
    }

    #[test]
    fn morton_path_matches_reference_oracle() {
        // Power-of-two cubes dispatch to this module; the bit-at-a-time
        // reference knows nothing of Morton layouts. Byte-identical
        // streams and identical counters across dimensionalities and
        // termination modes prove the fast path is stream-neutral.
        let cases_3d = [[8usize, 8, 8], [16, 16, 16]];
        for dims in cases_3d {
            let n: usize = dims.iter().product();
            let coeffs: Vec<f64> =
                (0..n).map(|i| ((i * 37) % 113) as f64 - 56.0 + (i as f64 * 0.013)).collect();
            for term in [Termination::Quality, Termination::BitBudget(1777)] {
                let fast = encode(&coeffs, dims, 0.25, term);
                let slow = reference::encode(&coeffs, dims, 0.25, term);
                assert_eq!(fast.stream, slow.stream, "{dims:?} {term:?}");
                assert_eq!(fast.bits_used, slow.bits_used, "{dims:?} {term:?}");
                assert_eq!(fast.significance_bits, slow.significance_bits, "{dims:?} {term:?}");
                assert_eq!(fast.sign_bits, slow.sign_bits, "{dims:?} {term:?}");
                assert_eq!(fast.refinement_bits, slow.refinement_bits, "{dims:?} {term:?}");
            }
        }
        let coeffs: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.11).cos() * 90.0).collect();
        for term in [Termination::Quality, Termination::BitBudget(999)] {
            let fast = encode(&coeffs, [32usize, 32], 0.5, term);
            let slow = reference::encode(&coeffs, [32usize, 32], 0.5, term);
            assert_eq!(fast.stream, slow.stream, "2d {term:?}");
            let fast1 = encode(&coeffs, [1024usize], 0.5, term);
            let slow1 = reference::encode(&coeffs, [1024usize], 0.5, term);
            assert_eq!(fast1.stream, slow1.stream, "1d {term:?}");
        }
    }

    #[test]
    fn applicability_gate() {
        assert!(applicable([8usize, 8, 8]));
        assert!(applicable([2usize, 2]));
        assert!(applicable([64usize]));
        assert!(!applicable([8usize, 8, 4]));
        assert!(!applicable([12usize, 12, 12]));
        assert!(!applicable([1usize, 1, 1]));
    }
}
