//! What an output box needs: the coefficients in its synthesis support
//! and, per inverse step, the lines that must be lifted to reach it.
//!
//! The inverse transform undoes the forward schedule step by step, last
//! step first: each step is one axis pass of one level over the box
//! `[0, cur)` the forward pass left behind. That is not Mallat packing: a
//! level's y pass runs only on the x-low half, so a per-axis dyadic cone
//! is wrong. [`Support::new`] therefore walks the same schedule the other
//! way, from the output box to the coefficients: before each undone step
//! the needed samples are one box inside `[0, cur)`; the step's output
//! range `[p0, p1)` along its axis needs band samples
//! `[p0/2 − REACH, (p1−1)/2 + 1 + REACH)` of both its low and its high
//! half, across the same lines. The high half is never touched again, so
//! its box is shed as coefficients; the low half is the needed box before
//! the next step. What is left after the coarsest step is the needed part
//! of the low-pass corner. So the support is at most one box per step
//! plus one, pairwise disjoint (each lies in a different band), and each
//! step lifts one rectangle of lines.
//!
//! [`REACH`] is the 9/7 synthesis reach: even output `2i` reads low
//! `i−1..=i+1` and high `i−2..=i+1`, odd `2i+1` low `i−1..=i+2` and high
//! `i−2..=i+2`. CDF 5/3 and Haar read a subset, so one constant serves
//! every kernel. Symmetric extension reflects an index past either end of
//! a band onto a sample within that reach, which clamping already keeps.
//!
//! Lines are lifted whole, so a lifted line holds the full decode's values
//! wherever its inputs did; the support guarantees that for the box.
//!
//! This file is audited for panic-freedom (`tests/panic_audit.rs`): the
//! box comes from the caller and the dims from an untrusted header.

use crate::transform::approx_len;
use std::collections::TryReserveError;
use std::ops::Range;

/// Band samples an inverse step reads on either side of the ones its
/// output range maps to (the CDF 9/7 synthesis reach; a superset for the
/// shorter kernels).
const REACH: usize = 2;

/// A half-open box `[lo, hi)` of a row-major volume.
pub type Region = ([usize; 3], [usize; 3]);

/// One inverse step: the forward pass it undoes and the lines it lifts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Step {
    /// Transform level of the pass (0 = finest).
    pub level: usize,
    /// Axis the pass lifts along.
    pub axis: usize,
    /// The box `[0, cur)` the forward pass transformed.
    pub cur: [usize; 3],
    /// The lines to lift: `lines[axis]` is the whole line `0..cur[axis]`,
    /// the other two ranges the rectangle of lines across it.
    pub lines: [Range<usize>; 3],
}

/// What reconstructing one box of a volume needs: which coefficients, and
/// which lines each inverse step lifts. Built by [`Support::new`]; consumed
/// by [`crate::inverse_3d_partial_with`] (the lines) and by whoever
/// assembles the coefficients ([`Support::boxes`], [`Support::keep_bitmap`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Support {
    dims: [usize; 3],
    /// The undone steps, in forward order (the inverse runs them reversed).
    steps: Vec<Step>,
    /// Disjoint coefficient boxes whose union is the support.
    boxes: Vec<Region>,
}

impl Support {
    /// The support of `region` of the volume an inverse of a `dims` array
    /// transformed with `levels` produces when it leaves the finest
    /// `skip_finest` levels undone (the `coarse_dims` corner; the whole
    /// array at 0). `region` is clamped to that volume; `None` is all of it,
    /// whose support is every coefficient of the corner (all of them at
    /// `skip_finest = 0`) and whose steps lift every line — the full read.
    pub fn new(
        dims: [usize; 3],
        levels: [usize; 3],
        skip_finest: usize,
        region: Option<Region>,
    ) -> Support {
        let max_levels = levels.iter().copied().max().unwrap_or(0);
        let mut steps = Vec::new();
        let mut cur = dims;
        let mut out = dims;
        for level in 0..max_levels {
            for axis in 0..3 {
                if level < levels[axis] && cur[axis] >= 2 {
                    if level >= skip_finest {
                        let lines = cur.map(|c| 0..c);
                        steps.push(Step { level, axis, cur, lines });
                    }
                    cur[axis] = approx_len(cur[axis]);
                }
            }
            if level < skip_finest {
                out = cur;
            }
        }
        let (mut lo, mut hi) = region.unwrap_or(([0; 3], out));
        for d in 0..3 {
            hi[d] = hi[d].min(out[d]);
            lo[d] = lo[d].min(hi[d]);
        }
        let mut boxes = Vec::new();
        if (0..3).any(|d| lo[d] == hi[d]) {
            // Nothing is needed: no coefficient, no line.
            for step in &mut steps {
                step.lines = [0..0, 0..0, 0..0];
            }
            return Support { dims, steps, boxes };
        }
        for step in &mut steps {
            let a = step.axis;
            let n = step.cur[a];
            let (low, high) = (approx_len(n), n / 2);
            for d in 0..3 {
                step.lines[d] = if d == a { 0..n } else { lo[d]..hi[d] };
            }
            let first = (lo[a] / 2).saturating_sub(REACH);
            let end = (hi[a] - 1) / 2 + 1 + REACH;
            if first < end.min(high) {
                let (mut shed_lo, mut shed_hi) = (lo, hi);
                shed_lo[a] = low + first;
                shed_hi[a] = low + end.min(high);
                boxes.push((shed_lo, shed_hi));
            }
            lo[a] = first;
            hi[a] = end.min(low);
        }
        boxes.push((lo, hi));
        Support { dims, steps, boxes }
    }

    /// Extent of the transformed array.
    pub(crate) fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// The coefficient boxes, pairwise disjoint.
    pub fn boxes(&self) -> &[Region] {
        &self.boxes
    }

    /// Number of coefficients in the support.
    pub fn coefficients(&self) -> usize {
        let volume = |(lo, hi): &Region| (0..3).map(|d| hi[d] - lo[d]).product::<usize>();
        self.boxes.iter().map(volume).sum()
    }

    /// Whether the support is every coefficient of the array.
    pub fn is_everything(&self) -> bool {
        self.coefficients() == self.dims.iter().product::<usize>()
    }

    pub(crate) fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The support as a row-major bitmap: bit `i % 64` of word `i / 64` is
    /// set when coefficient `i` is needed. `dims.product() / 8` bytes,
    /// reserved fallibly — the dims may come from an untrusted header.
    pub fn keep_bitmap(&self) -> Result<Vec<u64>, TryReserveError> {
        let [nx, ny, _] = self.dims;
        let n = self.dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
        let words = n.unwrap_or(usize::MAX).div_ceil(64);
        let mut bits = Vec::new();
        bits.try_reserve_exact(words)?;
        bits.resize(words, 0u64);
        for (lo, hi) in &self.boxes {
            for z in lo[2]..hi[2] {
                for y in lo[1]..hi[1] {
                    let row = nx * (y + ny * z);
                    set_bits(&mut bits, row + lo[0]..row + hi[0]);
                }
            }
        }
        Ok(bits)
    }
}

/// Sets bits `range` of the bitmap `words` (bits past its end are ignored).
pub(crate) fn set_bits(words: &mut [u64], range: Range<usize>) {
    let mut at = range.start;
    while at < range.end {
        let lane = at % 64;
        let take = (64 - lane).min(range.end - at);
        let mask = if take == 64 { u64::MAX } else { ((1u64 << take) - 1) << lane };
        if let Some(word) = words.get_mut(at / 64) {
            *word |= mask;
        }
        at += take;
    }
}
