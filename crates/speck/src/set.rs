//! Set-partitioning geometry: the cuboid sets SPECK recursively splits.

/// A rectangular set of coefficients: a sub-cuboid of the transformed
/// domain, identified by origin and per-axis length, plus the partition
/// depth it was created at (used to bucket the LIS so smaller sets are
/// processed first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SetS<const D: usize> {
    pub origin: [u32; D],
    pub len: [u32; D],
    pub part_level: u16,
    /// Encoder-side cache: number of significant bitplanes of the set's
    /// max quantized magnitude, i.e. `64 - max.leading_zeros()`. The set
    /// is significant at plane `n` iff `msb_plus1 > n` — an integer
    /// compare instead of a pyramid query per plane. Filled exactly once,
    /// when the set is created (at root init or at split time); the
    /// decoder carries 0 (it learns significance from the stream).
    pub msb_plus1: u8,
}

impl<const D: usize> SetS<D> {
    /// The root set covering the whole domain.
    pub fn root(dims: [usize; D]) -> Self {
        let mut origin = [0u32; D];
        let mut len = [0u32; D];
        for d in 0..D {
            origin[d] = 0;
            len[d] = dims[d] as u32;
        }
        SetS { origin, len, part_level: 0, msb_plus1: 0 }
    }

    /// Number of coefficients in the set.
    #[allow(dead_code)] // used by tests and kept for diagnostics
    pub fn num_points(&self) -> u64 {
        self.len.iter().map(|&l| l as u64).product()
    }

    /// True when the set is a single coefficient.
    pub fn is_pixel(&self) -> bool {
        self.len.iter().all(|&l| l == 1)
    }

    /// Linear (row-major, axis 0 fastest) index of a pixel set.
    pub fn pixel_index(&self, dims: [usize; D]) -> usize {
        debug_assert!(self.is_pixel());
        let mut idx = 0usize;
        let mut stride = 1usize;
        for (&origin, &extent) in self.origin.iter().zip(&dims) {
            idx += origin as usize * stride;
            stride *= extent;
        }
        idx
    }

    /// Splits the set into up to `2^D` children, the *first* part of each
    /// axis taking `len - len/2` samples (so splits align with the dyadic
    /// subband layout where the approximation band holds `ceil(n/2)`
    /// samples). Children are produced in axis-0-fastest order; zero-length
    /// children are skipped. Invokes `f` for each child.
    pub fn split(&self, mut f: impl FnMut(SetS<D>)) {
        // Per axis: (offset, length) of the two parts.
        let mut parts: [[(u32, u32); 2]; D] = [[(0, 0); 2]; D];
        for (part, &len) in parts.iter_mut().zip(&self.len) {
            let second = len / 2;
            let first = len - second;
            *part = [(0, first), (first, second)];
        }
        let child_level = self.part_level + 1;
        // Iterate the cartesian product of part choices.
        let combos = 1usize << D;
        'outer: for c in 0..combos {
            let mut origin = self.origin;
            let mut len = [0u32; D];
            for d in 0..D {
                let which = (c >> d) & 1;
                let (off, l) = parts[d][which];
                if l == 0 {
                    continue 'outer;
                }
                origin[d] = self.origin[d] + off;
                len[d] = l;
            }
            f(SetS { origin, len, part_level: child_level, msb_plus1: 0 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_covers_domain() {
        let s = SetS::root([5usize, 3, 2]);
        assert_eq!(s.num_points(), 30);
        assert!(!s.is_pixel());
    }

    #[test]
    fn split_partitions_exactly() {
        let s = SetS::root([5usize, 3, 2]);
        let mut total = 0u64;
        let mut seen = std::collections::HashSet::new();
        s.split(|c| {
            total += c.num_points();
            // enumerate all covered cells, ensure disjoint
            for z in 0..c.len[2] {
                for y in 0..c.len[1] {
                    for x in 0..c.len[0] {
                        let cell = (c.origin[0] + x, c.origin[1] + y, c.origin[2] + z);
                        assert!(seen.insert(cell), "overlap at {cell:?}");
                    }
                }
            }
            assert_eq!(c.part_level, 1);
        });
        assert_eq!(total, 30);
        assert_eq!(seen.len(), 30);
    }

    #[test]
    fn split_first_part_is_ceil_half() {
        let s = SetS::root([5usize]);
        let mut children = Vec::new();
        s.split(|c| children.push(c));
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].len[0], 3); // ceil(5/2)
        assert_eq!(children[1].len[0], 2);
        assert_eq!(children[1].origin[0], 3);
    }

    #[test]
    fn split_unit_axis_yields_fewer_children() {
        let s = SetS::root([1usize, 4]);
        let mut children = Vec::new();
        s.split(|c| children.push(c));
        // axis 0 cannot split (second part would be empty) -> 2 children
        assert_eq!(children.len(), 2);
    }

    #[test]
    fn pixel_index_row_major() {
        let s = SetS::<3> { origin: [2, 1, 3], len: [1, 1, 1], part_level: 9, msb_plus1: 0 };
        assert!(s.is_pixel());
        assert_eq!(s.pixel_index([4, 5, 6]), 2 + 4 + 3 * 20);
    }

    #[test]
    fn repeated_split_reaches_pixels() {
        // Splitting until every set is a pixel must enumerate each cell once.
        let dims = [3usize, 7];
        let mut stack = vec![SetS::root(dims)];
        let mut pixels = 0;
        while let Some(s) = stack.pop() {
            if s.is_pixel() {
                pixels += 1;
            } else {
                s.split(|c| stack.push(c));
            }
        }
        assert_eq!(pixels, 21);
    }
}
