//! Max-magnitude pyramid answering SPECK's set-significance queries.
//!
//! A significance test asks "does any coefficient in this cuboid have a
//! quantized magnitude ≥ 2^n?". Scanning the cuboid per test would make
//! each sorting pass O(N · sets); instead we build a mip-style pyramid of
//! per-block maxima once (O(N) total) and answer each query by recursive
//! block decomposition — O(1) for aligned sets, O(boundary · levels) worst
//! case.

/// Mip pyramid of running maxima over `2^level`-sized blocks of a
/// `D`-dimensional row-major array of quantized magnitudes. Only the
/// reference encoder ([`crate::reference`]) builds one; the production
/// coder answers the same queries from its own significance bytes.
///
/// Memory: the base level (the coefficients themselves) is **borrowed**,
/// not copied — only the coarser levels are owned, which together cost
/// under `N / (2^D - 1)` cells. Before the hot-path overhaul the builder
/// `to_vec()`-copied level 0, doubling the coder's peak magnitude
/// footprint; pixel significance tests now read the caller's `k` slice
/// directly, so the copy bought nothing.
///
/// Construction is row-based rather than cell-based: each output row
/// folds its up-to-`2^(D-1)` source rows with an elementwise max and then
/// halves along axis 0 with a pairwise max, instead of paying a full
/// odometer decomposition (div/mod per axis) per *cell* as the original
/// builder did.
#[derive(Debug)]
pub struct MaxPyramid<'a, const D: usize> {
    /// Level 0: the input magnitudes, borrowed.
    base: &'a [u64],
    base_dims: [usize; D],
    /// `levels[i]` is pyramid level `i + 1`; each level halves every axis
    /// (ceil). The last entry is a single cell holding the global max.
    /// Empty when the domain is a single cell per axis.
    levels: Vec<(Vec<u64>, [usize; D])>,
}

impl<'a, const D: usize> MaxPyramid<'a, D> {
    /// Builds the pyramid over quantized magnitudes `values` with shape
    /// `dims` (row-major, axis 0 fastest). `values` is borrowed for the
    /// pyramid's lifetime.
    pub fn build(values: &'a [u64], dims: [usize; D]) -> Self {
        assert_eq!(values.len(), dims.iter().product::<usize>());
        let mut levels: Vec<(Vec<u64>, [usize; D])> = Vec::new();
        // Row scratch: the elementwise fold of one output row's source
        // rows, before the axis-0 pairwise halving. Sized for the finest
        // level, reused throughout.
        let mut folded = vec![0u64; dims[0]];
        loop {
            let (prev, pdims): (&[u64], [usize; D]) = match levels.last() {
                None => (values, dims),
                Some((v, d)) => (v, *d),
            };
            if pdims.iter().all(|&d| d <= 1) {
                break;
            }
            let mut ndims = [0usize; D];
            for d in 0..D {
                ndims[d] = pdims[d].div_ceil(2);
            }
            let mut next = vec![0u64; ndims.iter().product()];

            // Strides of the source level, and the number of output rows
            // (the product of the output dims over axes 1..D).
            let mut pstride = [0usize; D];
            let mut s = 1usize;
            for d in 0..D {
                pstride[d] = s;
                s *= pdims[d];
            }
            let n_rows: usize = ndims.iter().skip(1).product();
            let row_len = pdims[0];
            let out_len = ndims[0];

            let mut coord = [0usize; D]; // output coords over axes 1..D
            for (out_row_i, out_row) in next.chunks_exact_mut(out_len).enumerate() {
                debug_assert!(out_row_i < n_rows.max(1));
                // Fold the up-to-2^(D-1) source rows of this output row.
                let mut first = true;
                let combos = 1usize << (D - 1);
                'combo: for c in 0..combos {
                    let mut base = 0usize;
                    for d in 1..D {
                        let x = coord[d] * 2 + ((c >> (d - 1)) & 1);
                        if x >= pdims[d] {
                            continue 'combo;
                        }
                        base += x * pstride[d];
                    }
                    let src = &prev[base..base + row_len];
                    if first {
                        folded[..row_len].copy_from_slice(src);
                        first = false;
                    } else {
                        for (f, &v) in folded.iter_mut().zip(src) {
                            *f = (*f).max(v);
                        }
                    }
                }
                debug_assert!(!first, "every output row has at least one source row");
                // Halve along axis 0; an odd trailing cell passes through.
                for (o, pair) in out_row.iter_mut().zip(folded[..row_len].chunks(2)) {
                    *o = pair.iter().copied().fold(0, u64::max);
                }
                // Advance the output-row odometer (axes 1..D).
                for d in 1..D {
                    coord[d] += 1;
                    if coord[d] < ndims[d] {
                        break;
                    }
                    coord[d] = 0;
                }
            }
            levels.push((next, ndims));
        }
        MaxPyramid { base: values, base_dims: dims, levels }
    }

    /// Data and dims of pyramid level `level` (0 = the borrowed base).
    #[inline]
    fn level(&self, level: usize) -> (&[u64], &[usize; D]) {
        if level == 0 {
            (self.base, &self.base_dims)
        } else {
            let (v, d) = &self.levels[level - 1];
            (v, d)
        }
    }

    /// Maximum magnitude stored anywhere (top of the pyramid).
    pub fn global_max(&self) -> u64 {
        let (top, _) = self.level(self.levels.len());
        top.iter().copied().fold(0, u64::max)
    }

    /// Maximum over the half-open cuboid `[lo[d], lo[d]+len[d])`.
    ///
    /// The encoder calls this once per cuboid set, at creation (the
    /// cached-significance scheme), and set sizes follow the partition
    /// geometry. At power-of-two dims every split is dyadic, so the
    /// overwhelming majority of queries are *aligned cubes* — for those
    /// one pyramid cell holds exactly the region's max and the query is
    /// a single load. Unaligned tiny regions scan the base level
    /// directly (a few contiguous rows beat a pyramid descent); larger
    /// irregular regions start the recursive decomposition at the level
    /// whose cells match the region scale (at most 2 cells per axis)
    /// instead of walking down from the apex every time.
    pub fn region_max(&self, lo: [u32; D], len: [u32; D]) -> u64 {
        let mut hi = [0usize; D];
        let mut lo_us = [0usize; D];
        let mut volume = 1usize;
        let mut max_len = 1usize;
        for d in 0..D {
            lo_us[d] = lo[d] as usize;
            hi[d] = lo[d] as usize + len[d] as usize;
            volume *= len[d] as usize;
            max_len = max_len.max(len[d] as usize);
        }
        if volume == 0 {
            return 0;
        }
        // Aligned power-of-two cube: level-L cells have extent 2^L per
        // axis, so the cell at `lo >> L` covers exactly this region (the
        // region is inside the domain; boundary clipping only trims past
        // it). One load answers the query.
        let l0 = len[0];
        if l0.is_power_of_two() && len.iter().all(|&l| l == l0) {
            let lvl = l0.trailing_zeros() as usize;
            if lvl <= self.levels.len()
                && (0..D).all(|d| lo_us[d] & (l0 as usize - 1) == 0)
            {
                let (data, dims) = self.level(lvl);
                let mut idx = 0usize;
                let mut stride = 1usize;
                for d in 0..D {
                    idx += (lo_us[d] >> lvl) * stride;
                    stride *= dims[d];
                }
                return data[idx];
            }
        }
        if volume <= 64 {
            return self.scan_base(&lo_us, &hi);
        }
        // Cells of size 2^level cover the region with at most 2 cells per
        // axis (2^level >= max_len).
        let level =
            ((usize::BITS - (max_len - 1).leading_zeros()) as usize).min(self.levels.len());
        let mut cell = [0usize; D];
        for d in 0..D {
            cell[d] = lo_us[d] >> level;
        }
        let mut m = 0u64;
        loop {
            m = m.max(self.recurse(level, cell, &lo_us, &hi));
            let mut d = 0;
            loop {
                if d == D {
                    return m;
                }
                cell[d] += 1;
                if cell[d] <= (hi[d] - 1) >> level {
                    break;
                }
                cell[d] = lo_us[d] >> level;
                d += 1;
            }
        }
    }

    /// Direct max over a small region of the base: row-at-a-time along
    /// axis 0 (contiguous memory), odometer over the remaining axes.
    fn scan_base(&self, lo: &[usize; D], hi: &[usize; D]) -> u64 {
        let row = hi[0] - lo[0];
        let mut coord = *lo;
        let mut m = 0u64;
        loop {
            let mut idx = 0usize;
            let mut stride = 1usize;
            for (&c, &extent) in coord.iter().zip(&self.base_dims) {
                idx += c * stride;
                stride *= extent;
            }
            m = self.base[idx..idx + row].iter().copied().fold(m, u64::max);
            let mut d = 1;
            loop {
                if d >= D {
                    return m;
                }
                coord[d] += 1;
                if coord[d] < hi[d] {
                    break;
                }
                coord[d] = lo[d];
                d += 1;
            }
        }
    }

    fn recurse(&self, level: usize, cell: [usize; D], lo: &[usize; D], hi: &[usize; D]) -> u64 {
        let (data, dims) = self.level(level);
        // Extent of this cell in level-0 coordinates.
        let mut c_lo = [0usize; D];
        let mut c_hi = [0usize; D];
        for d in 0..D {
            c_lo[d] = cell[d] << level;
            c_hi[d] = ((cell[d] + 1) << level).min(self.base_dims[d]);
            // Disjoint?
            if c_lo[d] >= hi[d] || c_hi[d] <= lo[d] {
                return 0;
            }
        }
        // Fully contained?
        if (0..D).all(|d| lo[d] <= c_lo[d] && c_hi[d] <= hi[d]) {
            let mut idx = 0usize;
            let mut stride = 1usize;
            for d in 0..D {
                idx += cell[d] * stride;
                stride *= dims[d];
            }
            return data[idx];
        }
        debug_assert!(level > 0, "level-0 cells are single points, always contained");
        // Partial overlap: descend into children.
        let (_, child_dims) = self.level(level - 1);
        let child_dims = *child_dims;
        let mut m = 0u64;
        let combos = 1usize << D;
        'combo: for c in 0..combos {
            let mut child = [0usize; D];
            for d in 0..D {
                let x = cell[d] * 2 + ((c >> d) & 1);
                if x >= child_dims[d] {
                    continue 'combo;
                }
                child[d] = x;
            }
            m = m.max(self.recurse(level - 1, child, lo, hi));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_max<const D: usize>(
        values: &[u64],
        dims: [usize; D],
        lo: [u32; D],
        len: [u32; D],
    ) -> u64 {
        let mut m = 0u64;
        let total: usize = dims.iter().product();
        'cell: for (i, &value) in values.iter().enumerate().take(total) {
            let mut rest = i;
            for d in 0..D {
                let x = rest % dims[d];
                rest /= dims[d];
                if x < lo[d] as usize || x >= lo[d] as usize + len[d] as usize {
                    continue 'cell;
                }
            }
            m = m.max(value);
        }
        m
    }

    #[test]
    fn global_max_matches() {
        let dims = [7usize, 5];
        let values: Vec<u64> = (0..35).map(|i| (i * 97 % 41) as u64).collect();
        let p = MaxPyramid::build(&values, dims);
        assert_eq!(p.global_max(), *values.iter().max().unwrap());
    }

    #[test]
    fn region_queries_match_brute_force_2d() {
        let dims = [13usize, 9];
        let values: Vec<u64> = (0..117).map(|i| ((i * 2654435761u64) >> 7) % 1000).collect();
        let p = MaxPyramid::build(&values, dims);
        for x0 in [0u32, 3, 7, 12] {
            for y0 in [0u32, 2, 8] {
                for lx in [1u32, 2, 5] {
                    for ly in [1u32, 3] {
                        if x0 + lx <= 13 && y0 + ly <= 9 {
                            let lo = [x0, y0];
                            let len = [lx, ly];
                            assert_eq!(
                                p.region_max(lo, len),
                                brute_max(&values, dims, lo, len),
                                "lo={lo:?} len={len:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn region_queries_match_brute_force_3d() {
        let dims = [5usize, 6, 4];
        let values: Vec<u64> = (0..120).map(|i| ((i * 31) % 77) as u64).collect();
        let p = MaxPyramid::build(&values, dims);
        // exhaustive over all valid cuboids (small domain)
        for x0 in 0..5u32 {
            for y0 in 0..6u32 {
                for z0 in 0..4u32 {
                    for lx in 1..=(5 - x0) {
                        for ly in 1..=(6 - y0) {
                            for lz in 1..=(4 - z0) {
                                let lo = [x0, y0, z0];
                                let len = [lx, ly, lz];
                                assert_eq!(
                                    p.region_max(lo, len),
                                    brute_max(&values, dims, lo, len)
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn aligned_cube_fast_path_matches_brute_force() {
        // Power-of-two domain: every dyadic cube must hit the one-load
        // fast path and still agree with brute force.
        let dims = [16usize, 16, 8];
        let values: Vec<u64> =
            (0..16 * 16 * 8).map(|i| ((i as u64) * 2654435761) >> 9).collect();
        let p = MaxPyramid::build(&values, dims);
        for l in [1u32, 2, 4, 8] {
            for x0 in (0..16).step_by(l as usize) {
                for y0 in (0..16).step_by(l as usize) {
                    for z0 in (0..8).step_by(l as usize) {
                        if z0 + l <= 8 {
                            let lo = [x0 as u32, y0 as u32, z0];
                            let len = [l, l, l];
                            assert_eq!(
                                p.region_max(lo, len),
                                brute_max(&values, dims, lo, len),
                                "lo={lo:?} len={len:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_cell_domain() {
        let p = MaxPyramid::build(&[42u64], [1usize]);
        assert_eq!(p.global_max(), 42);
        assert_eq!(p.region_max([0], [1]), 42);
    }

    #[test]
    fn all_zeros() {
        let p = MaxPyramid::build(&[0u64; 64], [4usize, 4, 4]);
        assert_eq!(p.global_max(), 0);
        assert_eq!(p.region_max([1, 1, 1], [2, 2, 2]), 0);
    }
}
