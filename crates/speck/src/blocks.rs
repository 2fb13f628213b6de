//! Code blocks (DESIGN.md "Code blocks"): a quality-mode domain of more
//! than [`BLOCK_COEFFICIENTS`] coefficients is coded as independent SPECK
//! streams, one per sub-array of its partition's first splits, so both
//! directions can run the blocks on different threads and a read that
//! needs part of the domain decodes only the blocks that hold it.
//!
//! The split is the partition's own (paper §III-B): each split halves
//! every axis longer than one, the first part taking `len − len/2`, and
//! the blocks are the sets of the first level on which none holds more
//! than [`BLOCK_COEFFICIENTS`], in split order. In quality mode a
//! coefficient's quantized value does not depend on the set it is coded
//! in, so a split stream decodes to exactly the coefficients one stream
//! over the domain does.
//!
//! A split stream is marked by [`SPLIT_FLAG`] in its planes byte (whose
//! low bits keep the largest block's plane count) and starts with the
//! block table:
//!
//! ```text
//! depth: u8                         the split depth (at least 1)
//! per block, in split order:
//!   planes: u8                      the block's plane count
//!   planes × LEB128                 the block's byte length at the end of
//!                                   each plane, top plane first, as the
//!                                   growth over the plane before
//! the blocks' plane segments, plane-major: for each absolute plane from
//! the top down, the bytes each block (in split order) adds in it
//! ```
//!
//! The plane ends are what lets a budget cut every block at the same
//! plane ([`Blocks::cut`]). The plane-major order keeps every block's
//! upper planes, which are short and alike, next to each other, as one
//! stream over the domain has them: the lossless pass finds there what it
//! finds in one stream. A block's bytes are gathered from its segments
//! before it decodes. A stream without the flag is one block, as
//! every stream was before blocks existed; an empty split stream (every
//! block cut to nothing) decodes to zeros.
//!
//! Both directions run their blocks here, as one batch on an executor
//! ([`crate::Quantized::encode_on`], [`Blocks::decode_into`]), with a
//! caller's job beside them ([`batch`]).
//!
//! This file parses untrusted tables, decodes untrusted blocks and is
//! audited for panic-freedom with the decoder (`tests/panic_audit.rs`).

use crate::coder::{EncodedSpeck, Scratch, Termination};
use crate::decoder::{check_params, sorting_pass, DecodeError, Sorted};
use sperr_exec::{Exec, Slots};
use sperr_simd::Float;
use std::borrow::Cow;
use std::ops::Range;

/// Most coefficients one code block holds, `2·32³`: a quality-mode
/// domain with more is split.
pub const BLOCK_COEFFICIENTS: usize = 2 * 32 * 32 * 32;

/// Set in the planes byte of a split stream; the low bits hold the
/// largest block's plane count.
pub const SPLIT_FLAG: u8 = 0x80;

/// One code block: the sub-array of extent `dims` at `origin` of its
/// domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Block<const D: usize> {
    /// Lowest corner in the domain.
    pub(crate) origin: [usize; D],
    /// Extent.
    pub(crate) dims: [usize; D],
}

impl<const D: usize> Block<D> {
    /// Coefficients in the block.
    pub(crate) fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// The parts of the block's first split, in split order: every axis
    /// longer than one halved, the first part taking `len − len/2`.
    fn children(&self) -> impl Iterator<Item = Block<D>> + '_ {
        let parts = |d: usize| {
            let (len, second) = (self.dims[d], self.dims[d] / 2);
            [(0, len - second), (len - second, second)]
        };
        (0..1usize << D).filter_map(move |c| {
            let mut child = *self;
            for d in 0..D {
                let (offset, len) = parts(d)[c >> d & 1];
                if len == 0 {
                    return None;
                }
                child.origin[d] += offset;
                child.dims[d] = len;
            }
            Some(child)
        })
    }

    /// The domain's row-major index of the first coefficient of each of
    /// the block's rows (along axis 0), in the block's row-major order:
    /// an odometer over axes 1.., each row's start the last one's plus
    /// the stride of the axis that advanced.
    fn rows(&self, domain: [usize; D]) -> impl Iterator<Item = usize> + '_ {
        let rows = self.dims.iter().skip(1).product::<usize>();
        let (mut stride, mut step) = ([0usize; D], 1);
        let mut at = self.origin.first().copied().unwrap_or(0);
        for d in 1..D {
            step *= domain[d - 1];
            stride[d] = step;
            at += self.origin[d] * step;
        }
        let mut pos = [0usize; D];
        (0..rows).map(move |_| {
            let row = at;
            for d in 1..D {
                pos[d] += 1;
                at += stride[d];
                if pos[d] < self.dims[d] {
                    break;
                }
                at -= stride[d] * pos[d];
                pos[d] = 0;
            }
            row
        })
    }

    /// Whether `keep`, a row-major bitmap of the domain (bit `i % 64` of
    /// word `i / 64`: coefficient `i`), keeps any of the block.
    fn meets(&self, domain: [usize; D], keep: &[u64]) -> bool {
        let row_len = self.dims.first().copied().unwrap_or(0);
        let row = |first: usize| (0..row_len).step_by(64).map(move |x| (first + x, row_len - x));
        self.rows(domain).flat_map(row).any(|(at, left)| bits_at(keep, at, left.min(64)) != 0)
    }

    /// The block's part of `keep` (as [`Block::meets`] takes it; bits
    /// past its end are clear), as a row-major bitmap of the block, a
    /// word at a time.
    fn keep_bitmap(&self, domain: [usize; D], keep: &[u64]) -> Vec<u64> {
        let row_len = self.dims.first().copied().unwrap_or(0);
        let mut out = vec![0u64; self.len().div_ceil(64)];
        for (row, first) in self.rows(domain).enumerate() {
            for x in (0..row_len).step_by(64) {
                let take = (row_len - x).min(64);
                let word = bits_at(keep, first + x, take);
                let to = row * row_len + x;
                if let Some(w) = out.get_mut(to / 64) {
                    *w |= word << (to % 64);
                }
                if to % 64 + take > 64 {
                    if let Some(w) = out.get_mut(to / 64 + 1) {
                        *w |= word >> (64 - to % 64);
                    }
                }
            }
        }
        out
    }

    /// Copies `dense` — the block's coefficients, row-major — into `out`,
    /// which holds the domain's row-major coefficients from index `first`
    /// on. Rows that fall outside `out` are skipped.
    pub(crate) fn place<T: Copy>(
        &self,
        domain: [usize; D],
        dense: &[T],
        out: &mut [T],
        first: usize,
    ) {
        let row_len = self.dims.first().copied().unwrap_or(0);
        for (src, start) in dense.chunks_exact(row_len.max(1)).zip(self.rows(domain)) {
            let dst = start.checked_sub(first).and_then(|at| out.get_mut(at..at + src.len()));
            if let Some(dst) = dst {
                dst.copy_from_slice(src);
            }
        }
    }

    /// The block's coefficients out of the domain's row-major `coeffs`,
    /// row-major.
    pub(crate) fn gather<T: Copy>(&self, domain: [usize; D], coeffs: &[T]) -> Vec<T> {
        let row_len = self.dims.first().copied().unwrap_or(0);
        let rows = self.rows(domain);
        rows.flat_map(|start| coeffs.get(start..start + row_len).unwrap_or(&[])).copied().collect()
    }
}

/// Bits `from..from + len` of the bitmap `words` as one word, the first
/// in bit 0 (`len <= 64`; bits past its end read as clear).
fn bits_at(words: &[u64], from: usize, len: usize) -> u64 {
    let (at, shift) = (from / 64, from % 64);
    let low = words.get(at).copied().unwrap_or(0) >> shift;
    let high = match shift {
        0 => 0,
        _ => words.get(at + 1).copied().unwrap_or(0) << (64 - shift),
    };
    (low | high) & crate::lsp_decode::low_mask(len)
}

/// `2^depth`, saturating.
fn cuts(depth: u8) -> usize {
    1usize.checked_shl(u32::from(depth)).unwrap_or(usize::MAX)
}

/// The split depth of a `dims` domain coded under `term`: 0 for one
/// block (every bit-budget encode, and every domain of at most
/// [`BLOCK_COEFFICIENTS`]), else the first depth at which the largest
/// block — `⌈len / 2^depth⌉` along each axis — holds no more.
pub(crate) fn split_depth<const D: usize>(dims: [usize; D], term: Termination) -> u8 {
    let largest = |depth| dims.iter().map(|&len| len.div_ceil(cuts(depth))).product::<usize>();
    let mut depth = 0;
    if term == Termination::Quality {
        while largest(depth) > BLOCK_COEFFICIENTS {
            depth += 1;
        }
    }
    depth
}

/// How many blocks `dims` splits into at `depth`: an axis of length `n`
/// is cut into `min(n, 2^depth)` intervals.
fn count<const D: usize>(dims: [usize; D], depth: u8) -> usize {
    dims.iter().map(|&len| len.min(cuts(depth))).product()
}

/// How many code blocks a SPECK stream over `dims` whose planes byte is
/// `num_planes` holds: 1 without [`SPLIT_FLAG`], else as many as the
/// split rule cuts `dims` into.
pub fn block_count<const D: usize>(dims: [usize; D], num_planes: u8) -> usize {
    match num_planes & SPLIT_FLAG {
        0 => 1,
        _ => count(dims, split_depth(dims, Termination::Quality)),
    }
}

/// The blocks of a `dims` domain at split `depth`, in split order.
pub(crate) fn split<const D: usize>(dims: [usize; D], depth: u8) -> Vec<Block<D>> {
    let mut blocks = vec![Block { origin: [0; D], dims }];
    for _ in 0..depth {
        blocks = blocks.iter().flat_map(Block::children).collect();
    }
    blocks
}

/// Appends `value` as LEB128.
fn put_varint(out: &mut Vec<u8>, mut value: usize) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Bytes [`put_varint`] writes for `value`.
fn varint_len(value: usize) -> usize {
    (usize::BITS - value.leading_zeros()).div_ceil(7).max(1) as usize
}

/// Reads a LEB128 value of at most `usize` width from `bytes` at `*at`.
fn get_varint(bytes: &[u8], at: &mut usize) -> Result<usize, DecodeError> {
    let mut value = 0usize;
    for shift in (0..usize::BITS).step_by(7) {
        let byte = *bytes.get(*at).ok_or(DecodeError::Truncated("block table"))?;
        *at += 1;
        let bits = usize::from(byte & 0x7f);
        value |= bits.checked_shl(shift).filter(|v| v >> shift == bits).ok_or(OVERLONG)?;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(OVERLONG)
}

const OVERLONG: DecodeError = DecodeError::Corrupt("block table length overflows");

/// Calls `segment(b, i)` for every block's plane segments in the order a
/// split stream lays them out: plane by plane from the top absolute plane
/// `top - 1` down, and in a plane, every block that codes it, in split
/// order. Block `b` has `planes[b]` planes; its segment `i` (top plane
/// first) is absolute plane `planes[b] − 1 − i`.
fn plane_major(planes: &[u8], top: u8, mut segment: impl FnMut(usize, usize)) {
    for p in (0..top).rev() {
        for (b, &n) in planes.iter().enumerate() {
            if p < n {
                segment(b, usize::from(n - 1 - p));
            }
        }
    }
}

/// Segment `i` of a block whose byte lengths at its plane ends are `ends`:
/// the bytes `[ends[i − 1], ends[i])` of its stream.
fn segment_of(ends: &[usize], i: usize) -> Range<usize> {
    let start = i.checked_sub(1).and_then(|j| ends.get(j)).copied().unwrap_or(0);
    start..ends.get(i).copied().unwrap_or(start).max(start)
}

/// Appends the block table of blocks with `planes` planes and byte
/// lengths `ends` at their plane ends, at split `depth`.
fn put_table(out: &mut Vec<u8>, depth: u8, planes: &[u8], ends: &[Vec<usize>]) {
    out.push(depth);
    for (&n, ends) in planes.iter().zip(ends) {
        out.push(n);
        let mut before = 0;
        for &end in ends {
            put_varint(out, end - before);
            before = end;
        }
    }
}

/// The stream of the blocks `encoded` (in split order, at split `depth`)
/// into `out`: the table, then the blocks' plane segments, plane-major.
/// Returns the table's length.
pub(crate) fn join(depth: u8, encoded: &[EncodedSpeck], out: &mut Vec<u8>) -> usize {
    let planes: Vec<u8> = encoded.iter().map(|e| e.num_planes).collect();
    let ends = |b: usize| -> Vec<usize> {
        let ends = encoded.get(b).map_or(&[][..], |e| &e.plane_ends[..]);
        ends.iter().map(|bits| bits.div_ceil(8)).collect()
    };
    let ends: Vec<Vec<usize>> = (0..encoded.len()).map(ends).collect();
    out.clear();
    put_table(out, depth, &planes, &ends);
    let table = out.len();
    out.reserve(encoded.iter().map(|e| e.stream.len()).sum());
    let top = planes.iter().copied().max().unwrap_or(0);
    plane_major(&planes, top, |b, i| {
        let (Some(enc), Some(ends)) = (encoded.get(b), ends.get(b)) else { return };
        out.extend_from_slice(enc.stream.get(segment_of(ends, i)).unwrap_or(&[]));
    });
    table
}

/// A split stream's table, parsed and checked against the stream.
struct Table {
    depth: u8,
    /// Every block's plane count, in split order.
    planes: Vec<u8>,
    /// Where each block's plane ends start in `ends`.
    starts: Vec<usize>,
    /// Every block's byte length at the end of each of its planes, top
    /// plane first, block after block.
    ends: Vec<usize>,
    /// Bytes the table takes at the head of the stream.
    len: usize,
}

impl Table {
    /// Parses the table of a split `stream` over `dims` whose planes byte
    /// says `planes` (flag cleared): the depth must be the one the split
    /// rule gives `dims`, no block may have more planes than that byte
    /// and one must have as many, and the blocks' lengths must add up to
    /// the bytes after the table.
    fn parse<const D: usize>(
        stream: &[u8],
        dims: [usize; D],
        planes: u8,
    ) -> Result<Self, DecodeError> {
        let want = split_depth(dims, Termination::Quality);
        if want == 0 {
            return Err(DecodeError::Corrupt("split flag on a domain of one code block"));
        }
        let depth = *stream.first().ok_or(DecodeError::Truncated("block table"))?;
        if depth != want {
            return Err(DecodeError::Corrupt("block table depth does not match the domain"));
        }
        let k = count(dims, depth);
        if stream.len() < 1 + k {
            return Err(DecodeError::Truncated("block table"));
        }
        let mut table = Table {
            depth,
            planes: Vec::with_capacity(k),
            starts: Vec::with_capacity(k),
            ends: Vec::new(),
            len: 1,
        };
        let mut data = 0usize;
        for _ in 0..k {
            let block_planes =
                *stream.get(table.len).ok_or(DecodeError::Truncated("block table"))?;
            table.len += 1;
            if block_planes > planes {
                return Err(DecodeError::Corrupt("a code block has more planes than the stream"));
            }
            let mut end = 0usize;
            for _ in 0..block_planes {
                end = end.checked_add(get_varint(stream, &mut table.len)?).ok_or(OVERLONG)?;
                if end > stream.len() {
                    return Err(DecodeError::Corrupt("a code block is longer than the stream"));
                }
                table.ends.push(end);
            }
            table.planes.push(block_planes);
            table.starts.push(table.ends.len() - usize::from(block_planes));
            data += end;
        }
        if table.planes.iter().max() != Some(&planes) {
            return Err(DecodeError::Corrupt("no code block has the stream's plane count"));
        }
        match (table.len + data).cmp(&stream.len()) {
            std::cmp::Ordering::Greater => Err(DecodeError::Truncated("code block data")),
            std::cmp::Ordering::Less => Err(DecodeError::Corrupt("bytes after the code blocks")),
            std::cmp::Ordering::Equal => Ok(table),
        }
    }

    /// Block `b`'s plane ends.
    fn ends(&self, b: usize) -> &[usize] {
        let first = self.starts.get(b).copied().unwrap_or(0);
        let planes = self.planes.get(b).map_or(0, |&p| usize::from(p));
        self.ends.get(first..first + planes).unwrap_or(&[])
    }

    /// Where every block's plane segments lie in the stream, top plane
    /// first: plane-major after the table.
    fn segments(&self) -> Vec<Vec<Range<usize>>> {
        let mut segments: Vec<Vec<Range<usize>>> =
            self.planes.iter().map(|&n| vec![0..0; usize::from(n)]).collect();
        let top = self.planes.iter().copied().max().unwrap_or(0);
        let mut at = self.len;
        plane_major(&self.planes, top, |b, i| {
            let len = segment_of(self.ends(b), i).len();
            if let Some(slot) = segments.get_mut(b).and_then(|s| s.get_mut(i)) {
                *slot = at..at + len;
            }
            at += len;
        });
        segments
    }
}

/// A SPECK stream as the code blocks it holds: for each block, its part
/// of the domain, its plane count and where its bytes lie. A stream
/// without [`SPLIT_FLAG`] is one block over the whole domain.
pub struct Blocks<'a, const D: usize> {
    dims: [usize; D],
    stream: &'a [u8],
    q: f64,
    num_planes: u8,
    blocks: Vec<Block<D>>,
    /// Per block: plane count and its plane segments in the stream.
    coded: Vec<(u8, Vec<Range<usize>>)>,
    /// The block table of a split stream.
    table: Option<Table>,
}

/// The code blocks of `stream`, a SPECK stream over `dims` at step `q`
/// whose planes byte is `num_planes`: the parameter checks of
/// [`crate::decode`], then, on a split stream, its table parsed and
/// checked. A flag on a domain too small to split, a table that is cut
/// short or that does not match the stream is a typed error.
pub fn blocks<const D: usize>(
    stream: &[u8],
    dims: [usize; D],
    q: f64,
    num_planes: u8,
) -> Result<Blocks<'_, D>, DecodeError> {
    let planes = num_planes & !SPLIT_FLAG;
    let (_, coded) = check_params(dims, q, planes)?;
    let whole = Block { origin: [0; D], dims };
    let mut blocks = Blocks {
        dims,
        stream,
        q,
        num_planes,
        blocks: vec![whole],
        coded: vec![(planes, std::iter::once(0..stream.len()).collect())],
        table: None,
    };
    if num_planes & SPLIT_FLAG == 0 || stream.is_empty() {
        return Ok(blocks);
    }
    if !coded {
        return Err(DecodeError::Corrupt("split flag on a stream with no planes"));
    }
    let table = Table::parse(stream, dims, planes)?;
    blocks.blocks = split(dims, table.depth);
    blocks.coded = table.planes.iter().copied().zip(table.segments()).collect();
    blocks.table = Some(table);
    Ok(blocks)
}

impl<'a, const D: usize> Blocks<'a, D> {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether there is no block (never: a stream is at least one).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether the stream is split into code blocks.
    pub(crate) fn is_split(&self) -> bool {
        self.table.is_some()
    }

    /// Every block, in split order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Block<D>> + '_ {
        self.blocks.iter().copied()
    }

    /// The row-major ranges of the domain that the blocks' extents along
    /// the last axis cut it into (ascending, tiling the domain), and for
    /// each block the index of the one that holds it: blocks of different
    /// ranges write disjoint parts of a row-major output.
    fn layers(&self) -> (Vec<Range<usize>>, Vec<usize>) {
        let last = D.saturating_sub(1);
        let plane = self.dims.iter().take(last).product::<usize>();
        let span = |b: &Block<D>| (b.origin.get(last).copied(), b.dims.get(last).copied());
        let mut spans: Vec<_> = self.blocks.iter().map(span).collect();
        spans.sort_unstable();
        spans.dedup();
        let layers = spans
            .iter()
            .map(|&(start, len)| {
                let (start, len) = (start.unwrap_or(0), len.unwrap_or(1));
                start * plane..(start + len) * plane
            })
            .collect();
        let of = self.blocks.iter().map(|b| spans.binary_search(&span(b)).unwrap_or(0)).collect();
        (layers, of)
    }

    /// Block `b`'s stream — borrowed when it lies in one piece, gathered
    /// from its plane segments otherwise — and plane count; empty and 0
    /// past the last block.
    pub(crate) fn coded(&self, b: usize) -> (Cow<'a, [u8]>, u8) {
        let Some((planes, segments)) = self.coded.get(b) else { return (Cow::Borrowed(&[]), 0) };
        (self.gather(segments, Vec::new()), *planes)
    }

    /// The bytes of `segments`, borrowed when there is at most one, else
    /// gathered into `memory`.
    fn gather(&self, segments: &[Range<usize>], mut memory: Vec<u8>) -> Cow<'a, [u8]> {
        let stream: &'a [u8] = self.stream;
        let bytes = |r: &Range<usize>| stream.get(r.clone()).unwrap_or(&[]);
        match segments {
            [] => Cow::Borrowed(&[]),
            [one] => Cow::Borrowed(bytes(one)),
            many => {
                memory.clear();
                memory.reserve(many.iter().map(Range::len).sum());
                many.iter().for_each(|r| memory.extend_from_slice(bytes(r)));
                Cow::Owned(memory)
            }
        }
    }

    /// Block `b`'s sorting pass (the decoder's first phase on its own
    /// stream, extent and plane count), restricted to `keep`, a row-major
    /// bitmap of the block, when given; in the memory of `scratch`, whose
    /// stream buffer takes the block's bytes when they are gathered.
    fn sorting_pass(
        &self,
        b: usize,
        keep: Option<&[u64]>,
        mut scratch: Scratch,
    ) -> Result<Sorted<'a, D>, DecodeError> {
        let (Some(block), Some((planes, segments))) = (self.blocks.get(b), self.coded.get(b))
        else {
            return Err(DecodeError::Corrupt("no such code block"));
        };
        let stream = self.gather(segments, scratch.take_stream());
        sorting_pass(stream, block.dims, self.q, *planes, keep, scratch)
    }

    /// Decodes the blocks a read needs into `out`, the domain's
    /// coefficients in row-major order, which starts zeroed: with no
    /// `keep`, every block; with one — a row-major bitmap, as
    /// [`crate::decode_masked`] takes — the blocks holding a coefficient it
    /// keeps, each restricted to its part of it. One batch on `exec`:
    /// `first`, when given, is job 0, so it starts first, and each needed
    /// block is a job, in split order. A block's sorting pass runs in its
    /// own scratch, kept in `scratch`; a split stream's block assembles
    /// into the worker's buffer there, then its rows go to `out`, and a
    /// stream of one block assembles in place. The coefficients do not
    /// depend on the executor. Returns what `first` returned, or the
    /// lowest block's error.
    pub fn decode_into<T: Float, R: Send>(
        &self,
        out: &mut [T],
        keep: Option<&[u64]>,
        scratch: &mut Scratch,
        exec: &dyn Exec,
        first: Option<impl FnOnce() -> R + Send>,
    ) -> Result<Option<R>, DecodeError> {
        if out.len() != self.dims.iter().product::<usize>() {
            return Err(DecodeError::Corrupt("the output does not hold the domain"));
        }
        let needed: Vec<usize> = (self.blocks.iter().enumerate())
            .filter(|(_, block)| keep.is_none_or(|keep| block.meets(self.dims, keep)))
            .map(|(b, _)| b)
            .collect();
        sperr_telemetry::counter!("speck.blocks", needed.len());
        sperr_telemetry::counter!("speck.blocks_skipped", self.blocks.len() - needed.len());
        // Blocks of different layers write disjoint slabs of `out`; a
        // slab's lock is held while a block copies its rows in.
        let (layers, layer_of) = self.layers();
        let mut slabs = Vec::with_capacity(layers.len());
        let mut rest = out;
        for layer in &layers {
            let Some((slab, tail)) = rest.split_at_mut_checked(layer.len()) else { break };
            slabs.push(slab);
            rest = tail;
        }
        let slabs: Slots<&mut [T]> = slabs.into_iter().collect();
        let split = self.is_split();
        let lent: Slots<Scratch> = match split {
            true => scratch.block_slots(self.blocks.len()),
            false => std::iter::once(std::mem::take(scratch)).collect(),
        };
        let dense = if split { scratch.dense(exec.width()) } else { std::iter::empty().collect() };
        let results = Slots::new(needed.len(), || Ok::<(), DecodeError>(()));
        let first = batch(exec, needed.len(), first, &|i, worker| {
            let Some(&b) = needed.get(i) else { return };
            let Some(block) = self.blocks.get(b) else { return };
            let layer = layer_of.get(b).copied().unwrap_or(0);
            *results.lock(i) = (|| {
                let kept = keep.map(|keep| block.keep_bitmap(self.dims, keep));
                let lent_scratch = std::mem::take(&mut *lent.lock(b));
                let sorted = self.sorting_pass(b, kept.as_deref(), lent_scratch)?;
                if split {
                    let (mut held, mut own) = (dense.lock(worker), Vec::new());
                    let dense = held.of::<T>().unwrap_or(&mut own);
                    dense.clear();
                    dense.resize(block.len(), T::ZERO);
                    sorted.assemble(dense);
                    let start = layers.get(layer).map_or(0, |l| l.start);
                    block.place(self.dims, dense, &mut slabs.lock(layer), start);
                } else {
                    sorted.assemble(&mut slabs.lock(layer));
                }
                *lent.lock(b) = sorted.into_scratch();
                Ok(())
            })();
        });
        drop((slabs, dense));
        match split {
            true => scratch.return_blocks(lent),
            false => *scratch = lent.into_values().next().unwrap_or_default(),
        }
        results.into_values().collect::<Result<(), _>>()?;
        Ok(first)
    }

    /// The stream cut to at most `budget` bytes, for a preview. A stream
    /// of one block keeps its first `budget` bytes (the embedded-coding
    /// contract). A split stream keeps every block down to the end of the
    /// lowest plane `p` at which they all fit, behind a table whose plane
    /// ends are clamped to the blocks' new lengths; what is left of the
    /// budget goes to the plane below `p`, block by block in split order,
    /// each block starting only once the one before it holds that plane
    /// whole. So no block's length falls as the budget grows, and the cut
    /// fills the budget to within the two bytes a length in the table can
    /// grow by. A budget below the smallest table keeps nothing: an empty
    /// stream, all zeros.
    pub fn cut(&self, budget: usize) -> Cow<'a, [u8]> {
        let Some(table) = self.table.as_ref().filter(|_| budget < self.stream.len()) else {
            return Cow::Borrowed(self.stream.get(..budget).unwrap_or(self.stream));
        };
        let k = self.blocks.len();
        // Block `b`'s length at the end of absolute plane `p` (0 above
        // its own top plane), and the table bytes its plane ends take
        // when it is cut there.
        let end_at = |b: usize, p: u8| {
            let ends = table.ends(b);
            let below_top = ends.len().checked_sub(usize::from(p) + 1);
            below_top.and_then(|i| ends.get(i)).copied().unwrap_or(0)
        };
        let entry_bytes = |b: usize, p: u8| {
            let ends = table.ends(b);
            let above = ends.len().saturating_sub(usize::from(p));
            let coded = ends.iter().take(above).scan(0, |before, &end| {
                let delta = end - *before;
                *before = end;
                Some(varint_len(delta))
            });
            1 + coded.sum::<usize>() + (ends.len() - above)
        };
        let size = |p: u8| 1 + (0..k).map(|b| end_at(b, p) + entry_bytes(b, p)).sum::<usize>();
        let top = self.num_planes & !SPLIT_FLAG;
        if size(top) > budget {
            return Cow::Borrowed(&[]);
        }
        let mut p = top;
        while p > 0 && size(p - 1) <= budget {
            p -= 1;
        }
        let mut left = budget - size(p);
        let mut whole = true;
        let kept: Vec<usize> = (0..k)
            .map(|b| {
                let at = end_at(b, p);
                let room = p.checked_sub(1).map_or(0, |below| end_at(b, below) - at);
                // `more` bytes of the plane below cost `more` and the
                // growth of their length's entry beyond its one byte.
                let mut more = if whole { room.min(left) } else { 0 };
                while more > 0 && more + varint_len(more) - 1 > left {
                    more -= 1;
                }
                left -= more + varint_len(more) - 1;
                whole &= more == room;
                at + more
            })
            .collect();
        let clamped: Vec<Vec<usize>> = (0..k)
            .map(|b| {
                let len = kept.get(b).copied().unwrap_or(0);
                table.ends(b).iter().map(|&end| end.min(len)).collect()
            })
            .collect();
        let mut out = Vec::with_capacity(budget);
        put_table(&mut out, table.depth, &table.planes, &clamped);
        plane_major(&table.planes, top, |b, i| {
            let (Some((_, segments)), Some(ends)) = (self.coded.get(b), clamped.get(b)) else {
                return;
            };
            let keep = segment_of(ends, i).len();
            let at = segments.get(i).map_or(0, |r| r.start);
            out.extend_from_slice(self.stream.get(at..at + keep).unwrap_or(&[]));
        });
        Cow::Owned(out)
    }
}

/// Runs `n` jobs on `exec` — `job(i, worker)` for each `i` — after
/// `first`, when given, as job 0, so it starts first: the batch of either
/// direction's code blocks with a caller's job beside them. Returns what
/// `first` returned.
pub(crate) fn batch<R: Send>(
    exec: &dyn Exec,
    n: usize,
    first: Option<impl FnOnce() -> R + Send>,
    job: &(dyn Fn(usize, usize) + Sync),
) -> Option<R> {
    let skip = usize::from(first.is_some());
    let first: Slots<_> = std::iter::once(first).collect();
    let done = Slots::new(1, || None);
    exec.run(skip + n, &|j, worker| match j.checked_sub(skip) {
        Some(i) => job(i, worker),
        None => {
            let first = first.lock(0).take();
            *done.lock(0) = first.map(|f| f());
        }
    });
    done.into_values().next().flatten()
}
