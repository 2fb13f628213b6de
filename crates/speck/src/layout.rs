//! The partition-order layout: SPECK's set partition as arithmetic on
//! cell numbers, for every domain shape.
//!
//! Which cuboid splits into which children follows from the extents
//! alone (paper §III-B), so the depth-first order in which splitting
//! visits the sets of one shape is fixed. Number the sets ("cells") of
//! every partition level in that order and
//!
//! * a set is a `u32`: cell `c` of level `l`;
//! * its children are the *consecutive* cells `lo..hi` of level `l + 1`
//!   ([`Geometry::children`]), already in split order, so their cached
//!   significance bytes are at most `2^D` consecutive bytes of that
//!   level's array;
//! * the deepest level `k` lists the pixels, and
//!   [`Geometry::to_row_major`] maps a position in it back to the grid.
//!
//! The two split lengths of one axis differ by at most 1 at every level,
//! so a pixel first appears on level `k − 1` or `k`, never higher. A
//! pixel of level `k − 1` gets exactly one child — itself — which keeps
//! level `k` a permutation of the whole grid; every other cell has at
//! least two children, which is how the coders tell the two apart.
//!
//! Two geometries implement the seam: the tables of [`Layout`] serve any
//! cuboid, and [`crate::morton::Dyadic`] answers the same questions by
//! shifts on a same-power-of-two cube, where the tables would only spell
//! out `child0 = c << D`. The coders in [`crate::coder`] and
//! [`crate::decoder`] are written once, against the trait.
//!
//! This file is on the decode path and audited for panic-freedom with it
//! (`tests/panic_audit.rs`): lookups are `get`s, table memory is
//! reserved fallibly.

use std::collections::TryReserveError;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What the coders need to know about a shape's partition.
pub(crate) trait Geometry {
    /// Depth `k` of the partition: level 0 holds the root, level `k` the
    /// pixels.
    fn depth(&self) -> usize;
    /// Number of cells on `level`.
    fn cells(&self, level: usize) -> usize;
    /// The first of the consecutive cells of `level + 1` that cell `cell`
    /// of `level` splits into, in split order, and how many they are. A
    /// single child marks a pixel found one level early. `None` for a
    /// cell the shape does not have.
    fn children(&self, level: usize, cell: u32) -> Option<(u32, u32)>;
    /// Row-major index of the pixel at position `pos` of level `k`.
    fn to_row_major(&self, pos: u32) -> Option<u32>;
    /// [`Geometry::to_row_major`] of the positions `first ..` into `out`
    /// (which must not run past the level): what the encoder's gather
    /// walks, a block at a time.
    fn row_major_run(&self, first: u32, out: &mut [u32]);
    /// Fills `coarse` (the cells `cells` of level `level`) with the
    /// maximum over each cell's children in `fine` (all of level
    /// `level + 1`).
    fn coarsen(&self, level: usize, cells: Range<usize>, fine: &[u8], coarse: &mut [u8]);
    /// ORs into `out` the row-major bitmap `row_major` (bit `i` of it:
    /// coefficient `i`) re-indexed by position on level `k`: bit `pos` is
    /// set when bit `to_row_major(pos)` is. Bits past either end are
    /// ignored.
    fn layout_bitmap(&self, row_major: &[u64], out: &mut [u64]);
}

/// Bit `i` of bitmap `words` (`false` past its end).
#[inline]
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// Sets bit `i` of bitmap `words` (nothing past its end).
#[inline]
pub(crate) fn set_bit(words: &mut [u64], i: usize) {
    if let Some(w) = words.get_mut(i / 64) {
        *w |= 1 << (i % 64);
    }
}

/// The tabled geometry of one shape. Immutable once built; shared
/// between threads through [`shared`].
pub(crate) struct Layout {
    dims: [usize; 3],
    /// `child0[l][c] .. child0[l][c + 1]` are cell `c`'s children on
    /// level `l + 1`; one table per level `0..k`, each one entry longer
    /// than its level.
    child0: Vec<Vec<u32>>,
    /// Level `k`: position in split order → row-major index.
    to_row_major: Vec<u32>,
}

/// `dims` as the three extents the tables are keyed by: missing axes
/// have extent 1, which never splits and leaves every order unchanged.
pub(crate) fn pad<const D: usize>(dims: [usize; D]) -> [usize; 3] {
    std::array::from_fn(|d| dims.get(d).copied().unwrap_or(1))
}

impl Layout {
    /// Builds the tables for `dims` (missing axes padded with 1; every
    /// extent non-zero, the product within `u32`).
    pub(crate) fn build(dims: [usize; 3]) -> Result<Layout, TryReserveError> {
        let longest = dims.iter().copied().max().unwrap_or(1).max(1);
        let k = longest.next_power_of_two().trailing_zeros() as usize;
        // A level cuts an axis into `min(2^level, extent)` intervals.
        let cuts = |level: usize| 1usize.checked_shl(level as u32).unwrap_or(usize::MAX);
        let cells = |level: usize| dims.iter().map(|&d| d.min(cuts(level))).product::<usize>();
        let mut child0 = Vec::new();
        child0.try_reserve_exact(k)?;
        for level in 0..k {
            let mut table = Vec::new();
            table.try_reserve_exact(cells(level) + 1)?;
            child0.push(table);
        }
        let mut to_row_major = Vec::new();
        to_row_major.try_reserve_exact(cells(k))?;
        let mut layout = Layout { dims, child0, to_row_major };
        layout.visit([0; 3], dims.map(|d| d as u32), 0);
        // Close every table with one entry past its level's last cell
        // (top-down: a closed table is one longer than its level).
        for level in 0..k {
            let end = layout.numbered(level + 1);
            if let Some(table) = layout.child0.get_mut(level) {
                table.push(end);
            }
        }
        Ok(layout)
    }

    /// While the tables are being filled: the cells of `level` numbered
    /// so far.
    fn numbered(&self, level: usize) -> u32 {
        self.child0.get(level).map_or(self.to_row_major.len(), Vec::len) as u32
    }

    /// Depth-first walk in split order: the first part of each axis takes
    /// `len − len/2` samples, children are enumerated with axis 0
    /// fastest, empty children are skipped.
    fn visit(&mut self, origin: [u32; 3], len: [u32; 3], level: usize) {
        let first_child = self.numbered(level + 1);
        if let Some(table) = self.child0.get_mut(level) {
            table.push(first_child);
        }
        if len == [1; 3] || level >= self.child0.len() {
            let [x, y, z] = origin.map(|o| o as usize);
            self.to_row_major.push((x + self.dims[0] * (y + self.dims[1] * z)) as u32);
            return;
        }
        let parts = [0, 1, 2].map(|d| {
            let first = len[d] - len[d] / 2;
            [(origin[d], first), (origin[d] + first, len[d] / 2)]
        });
        for c in 0..8usize {
            let child = [0, 1, 2].map(|d| parts[d][(c >> d) & 1]);
            if child.iter().all(|part| part.1 > 0) {
                self.visit(child.map(|part| part.0), child.map(|part| part.1), level + 1);
            }
        }
    }

    /// Bytes of table memory held.
    pub(crate) fn bytes(&self) -> usize {
        4 * (self.to_row_major.len() + self.child0.iter().map(Vec::len).sum::<usize>())
    }
}

impl Geometry for Layout {
    fn depth(&self) -> usize {
        self.child0.len()
    }

    fn cells(&self, level: usize) -> usize {
        self.child0
            .get(level)
            .map_or(self.to_row_major.len(), |table| table.len().saturating_sub(1))
    }

    #[inline]
    fn children(&self, level: usize, cell: u32) -> Option<(u32, u32)> {
        match self.child0.get(level)?.get(cell as usize..)? {
            [lo, hi, ..] => Some((*lo, hi.wrapping_sub(*lo))),
            _ => None,
        }
    }

    #[inline]
    fn to_row_major(&self, pos: u32) -> Option<u32> {
        self.to_row_major.get(pos as usize).copied()
    }

    fn row_major_run(&self, first: u32, out: &mut [u32]) {
        if let Some(run) = self.to_row_major.get(first as usize..first as usize + out.len()) {
            out.copy_from_slice(run);
        }
    }

    fn coarsen(&self, level: usize, cells: Range<usize>, fine: &[u8], coarse: &mut [u8]) {
        let Some(table) = self.child0.get(level).and_then(|t| t.get(cells.start..)) else {
            return;
        };
        for (out, span) in coarse.iter_mut().zip(table.windows(2)) {
            let children = fine.get(span[0] as usize..span[1] as usize).unwrap_or(&[]);
            *out = children.iter().copied().max().unwrap_or(0);
        }
    }

    /// One pass over the pixel table (there is no inverse table to walk
    /// the kept coefficients with instead).
    fn layout_bitmap(&self, row_major: &[u64], out: &mut [u64]) {
        for (pos, &at) in self.to_row_major.iter().enumerate() {
            if bit(row_major, at as usize) {
                set_bit(out, pos);
            }
        }
    }
}

/// Most shapes the cache holds: what one chunked volume can have (an
/// interior chunk shape plus the boundary shapes of three axes).
pub(crate) const MAX_CACHED_SHAPES: usize = 8;
/// Most table bytes the cache holds; a shape whose tables alone exceed
/// this is built per call and dropped.
pub(crate) const MAX_CACHED_BYTES: usize = 256 << 20;

/// Process-wide table cache, oldest shape first.
static CACHE: Mutex<Vec<Arc<Layout>>> = Mutex::new(Vec::new());

/// The cache holds whole `Arc`s pushed or removed in one step each, so a
/// holder that panicked left nothing torn behind: take the guard anyway
/// (the rule of `sperr-core`'s `lock_ignore_poison`) instead of failing
/// every later encode and decode in the process.
pub(crate) fn cache() -> MutexGuard<'static, Vec<Arc<Layout>>> {
    CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The tables for `dims`, from the cache or built now. The lock is held
/// for the lookup and for the insertion, never for a build; two threads
/// that miss together both build and the second copy is dropped. What a
/// coder computes from a `Layout` depends on `dims` only, never on
/// whether it came from here.
pub(crate) fn shared(dims: [usize; 3]) -> Result<Arc<Layout>, TryReserveError> {
    if let Some(hit) = cache().iter().find(|l| l.dims == dims) {
        return Ok(hit.clone());
    }
    let built = Arc::new(Layout::build(dims)?);
    Ok(admit(&mut cache(), built, MAX_CACHED_BYTES))
}

/// Puts `built` into `held`, evicting oldest-first until both bounds hold
/// again; tables bigger than `max_bytes` on their own are not kept.
/// Returns the tables to use: `built`, or the copy that got there first.
pub(crate) fn admit(
    held: &mut Vec<Arc<Layout>>,
    built: Arc<Layout>,
    max_bytes: usize,
) -> Arc<Layout> {
    if let Some(raced) = held.iter().find(|l| l.dims == built.dims) {
        return raced.clone();
    }
    let bytes = built.bytes();
    if bytes <= max_bytes {
        let total = |held: &[Arc<Layout>]| held.iter().map(|l| l.bytes()).sum::<usize>();
        while !held.is_empty()
            && (held.len() >= MAX_CACHED_SHAPES || total(held) + bytes > max_bytes)
        {
            held.remove(0);
        }
        held.push(built.clone());
    }
    built
}
