//! The SPECK decoder, kept in its own modules so the whole decode path can
//! be audited for panic-freedom (see the repo's `tests/panic_audit.rs`):
//! nothing in this file, [`crate::lsp_decode`] or [`crate::layout`] may
//! `unwrap`, `expect`, `panic!` or `assert` — all failures on untrusted
//! input surface as [`DecodeError`].
//!
//! The decoder runs in two phases (DESIGN.md §13). The sorting pass — a
//! walk over the cells of the shape's [`Geometry`] — fills the back half
//! ([`DeferredLsp`]), which skips refinement bits while walking the
//! stream ([`crate::Blocks::sorting_pass`]). The assembly then turns the significant
//! pixels into coefficients, one z-slab of the output at a time
//! ([`Sorted::assemble`]), so slabs can go to different threads.

use crate::coder::Scratch;
use crate::layout::{self, Geometry, Layout};
use crate::lsp_decode::{DeferredLsp, Stop};
use crate::morton::{self, Dyadic};
use sperr_bitstream::BitReader;
use sperr_simd::Float;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Hard ceiling on the number of coefficients a decoder will allocate
/// reconstruction buffers for. Matches the encoder's own u32-index domain
/// limit: a stream claiming more could never have been produced by
/// [`crate::encode`].
pub const MAX_DECODE_ELEMENTS: u64 = u32::MAX as u64;

/// Typed decoder-side failure. Untrusted streams must never panic the
/// decoder; every structural problem maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before the declared structure was complete.
    Truncated(&'static str),
    /// The stream or its declared parameters are structurally invalid.
    Corrupt(&'static str),
    /// A declared size exceeds what the decoder is willing to allocate.
    LimitExceeded(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated(msg) => write!(f, "truncated SPECK stream: {msg}"),
            DecodeError::Corrupt(msg) => write!(f, "corrupt SPECK stream: {msg}"),
            DecodeError::LimitExceeded(msg) => write!(f, "SPECK decode limit exceeded: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<sperr_bitstream::Error> for DecodeError {
    fn from(e: sperr_bitstream::Error) -> Self {
        match e {
            sperr_bitstream::Error::UnexpectedEof => {
                DecodeError::Truncated("unexpected end of stream")
            }
            sperr_bitstream::Error::Corrupt(msg) => DecodeError::Corrupt(msg),
        }
    }
}

impl From<DecodeError> for sperr_compress_api::CompressError {
    fn from(e: DecodeError) -> Self {
        use sperr_compress_api::CompressError;
        match e {
            DecodeError::Truncated(_) => CompressError::Truncated(e.to_string()),
            DecodeError::Corrupt(_) => CompressError::Corrupt(e.to_string()),
            DecodeError::LimitExceeded(_) => CompressError::LimitExceeded(e.to_string()),
        }
    }
}

/// One LIS bucket (`buckets[level]`) at one plane. Insignificance bits
/// come in runs (the encoder emits them through `put_zeros`):
/// `count_zero_run` consumes a run through the refill register in bulk
/// and the still-insignificant cells are compacted to the front with one
/// `copy_within` — bucket storage is reused across planes. A cell whose
/// significance bit was 1 goes to [`significant`]; the cells that creates
/// land in *deeper* buckets (smaller sets, which this pass has already
/// finished), so the bucket is taken out of `buckets` while it is
/// scanned, and put back however the scan ends: when the stream runs out,
/// with whatever it holds (nothing reads the LIS again, but the next pass
/// in this scratch keeps its memory). The pixel bucket (level `k`) goes a
/// window at a time ([`pixel_windows`]) while the stream has 64 bits
/// left; this loop finishes it and runs every other bucket.
fn scan_bucket(
    input: &mut BitReader<'_>,
    geom: &impl Geometry,
    buckets: &mut [Vec<u32>],
    lsp: &mut DeferredLsp,
    level: usize,
) -> Result<(), Stop> {
    let mut bucket = buckets.get_mut(level).map(std::mem::take).unwrap_or_default();
    let scanned = scan(input, geom, buckets, lsp, level, &mut bucket);
    if let Some(slot) = buckets.get_mut(level) {
        *slot = bucket;
    }
    scanned
}

/// [`scan_bucket`] of `bucket`, taken out of `buckets`.
fn scan(
    input: &mut BitReader<'_>,
    geom: &impl Geometry,
    buckets: &mut [Vec<u32>],
    lsp: &mut DeferredLsp,
    level: usize,
    bucket: &mut Vec<u32>,
) -> Result<(), Stop> {
    let len = bucket.len();
    let (mut read, mut write) =
        if level == geom.depth() { pixel_windows(input, bucket, lsp)? } else { (0, 0) };
    while read < len {
        let run = input.count_zero_run(len - read);
        if write != read {
            bucket.copy_within(read..read + run, write);
        }
        read += run;
        write += run;
        if let Some(&cell) = bucket.get(read) {
            // The run stopped short: the next bit is a 1, or the stream
            // is exhausted.
            input.get_bit()?;
            significant(input, geom, buckets, lsp, level, cell)?;
            read += 1;
        }
    }
    bucket.truncate(write);
    Ok(())
}

/// Pixel-bucket entries one window decodes: at most two bits each, so
/// one [`BitReader::peek_bits`] of 56 holds a whole window.
const PIXEL_WINDOW: usize = 28;

/// The pixel bucket, [`PIXEL_WINDOW`] entries at a time, with no branch on
/// the data inside a window: one 56-bit peek, read as `0` (insignificant)
/// or `1` and a sign per entry by index arithmetic; the retained cells
/// compacted in place and the found pixels appended to the LSP in bulk;
/// one `skip_bits` for the bits used. A window that opens on eight zero
/// bits is the head of an insignificant run, consumed by
/// `count_zero_run`. Runs only while the stream has 64 bits left, so no
/// window can reach past its end: a truncated stream finishes in the
/// per-entry loop, which decodes every prefix as it always did, and so
/// does the bucket's last partial window. Returns where that loop takes
/// over: entries read and entries kept.
fn pixel_windows(
    input: &mut BitReader<'_>,
    bucket: &mut [u32],
    lsp: &mut DeferredLsp,
) -> Result<(usize, usize), Stop> {
    let len = bucket.len();
    let (mut read, mut write) = (0usize, 0usize);
    while input.remaining_bits() >= 64 {
        let Some(&window) = bucket.get(read..).and_then(|rest| rest.first_chunk::<PIXEL_WINDOW>())
        else {
            break;
        };
        let bits = input.peek_bits(56);
        if bits & 0xff == 0 {
            let run = input.count_zero_run(len - read);
            bucket.copy_within(read..read + run, write);
            (read, write) = (read + run, write + run);
            continue;
        }
        let (mut kept_cells, mut hits) = ([0u32; PIXEL_WINDOW], [0u32; PIXEL_WINDOW]);
        let (mut at, mut kept, mut hit, mut signs) = (0u32, 0usize, 0usize, 0u64);
        for cell in window {
            let s = (bits >> at) & 1;
            signs |= (bits >> (at + 1) & s) << hit;
            at += 1 + s as u32;
            if let Some(slot) = kept_cells.get_mut(kept) {
                *slot = cell;
            }
            kept += 1 - s as usize;
            if let Some(slot) = hits.get_mut(hit) {
                *slot = cell;
            }
            hit += s as usize;
        }
        input.skip_bits(at)?;
        // The whole window goes back: what lands past the kept entries
        // covers entries already read.
        if let Some(dst) = bucket.get_mut(write..write + PIXEL_WINDOW) {
            dst.copy_from_slice(&kept_cells);
        }
        lsp.extend(&hits[..hit], signs);
        (read, write) = (read + PIXEL_WINDOW, write + kept);
    }
    Ok((read, write))
}

/// A cell whose significance bit was 1. A pixel — a cell of the deepest
/// level, or one with a single child (itself, found one level early) —
/// records its sign, as a position of level `k`; any other cell splits
/// and each child is tested in turn, in the encoder's order.
fn significant(
    input: &mut BitReader<'_>,
    geom: &impl Geometry,
    buckets: &mut [Vec<u32>],
    lsp: &mut DeferredLsp,
    level: usize,
    cell: u32,
) -> Result<(), Stop> {
    let (lo, count) = match geom.children(level, cell) {
        Some((lo, count)) if count > 1 => (lo, count),
        one => {
            lsp.push(one.map_or(cell, |(lo, _)| lo), input.get_bit()?);
            return Ok(());
        }
    };
    // Children on the deepest level are pixels: no call to learn that.
    let leaves = level + 1 == geom.depth();
    for child in (lo..).take(count as usize) {
        if !input.get_bit()? {
            if let Some(bucket) = buckets.get_mut(level + 1) {
                bucket.push(child);
            }
        } else if leaves {
            lsp.push(child, input.get_bit()?);
        } else {
            significant(input, geom, buckets, lsp, level + 1, child)?;
        }
    }
    Ok(())
}

/// The parameter checks every decoder makes before it allocates
/// anything. Returns the sample count and whether there is anything to
/// walk: a stream with no planes is the all-zero answer.
pub(crate) fn check_params<const D: usize>(
    dims: [usize; D],
    q: f64,
    num_planes: u8,
) -> Result<(usize, bool), DecodeError> {
    if !(q.is_finite() && q > 0.0) {
        return Err(DecodeError::Corrupt("quantization step must be positive and finite"));
    }
    let n_total = dims
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
        .ok_or(DecodeError::LimitExceeded("dimension product overflows"))?;
    if n_total > MAX_DECODE_ELEMENTS {
        return Err(DecodeError::LimitExceeded("domain too large for u32 indices"));
    }
    let n_total = n_total as usize;
    if num_planes == 0 {
        return Ok((n_total, false));
    }
    if num_planes > 64 {
        return Err(DecodeError::Corrupt("num_planes exceeds 64"));
    }
    if n_total == 0 {
        // A zero-extent domain encodes to an empty stream with zero
        // planes; claiming coded planes over it is structurally invalid
        // (and the degenerate root set would recurse on garbage bits).
        return Err(DecodeError::Corrupt("coded planes over an empty domain"));
    }
    Ok((n_total, true))
}

/// Decodes a SPECK stream produced by [`crate::encode`] with the same
/// `dims`, `q` and `num_planes`. A truncated stream of one block
/// (embedded prefix, or a bit-budget encode) decodes to a coarser but
/// valid reconstruction; decoding never fails on its short input. A
/// split stream ([`crate::blocks`]) decodes block by block, and a block
/// table that is cut short or does not match the stream is a typed
/// error. Invalid parameters — a non-positive or non-finite `q`, more
/// than 64 bitplanes, or dims whose product exceeds
/// [`MAX_DECODE_ELEMENTS`] — return a typed error instead of panicking,
/// so header fields from untrusted containers can be passed through
/// unchecked. The shape's layout tables are fetched (or built) only once
/// those checks have passed.
///
/// Per block this is [`sorting_pass`], then [`Sorted::assemble`].
pub fn decode<T: Float, const D: usize>(
    stream: &[u8],
    dims: [usize; D],
    q: f64,
    num_planes: u8,
) -> Result<Vec<T>, DecodeError> {
    decode_blocks(stream, dims, q, num_planes, None)
}

/// [`decode`] for a read that needs only some coefficients — a region's
/// or a coarse level's synthesis support. `keep` is a row-major bitmap:
/// bit `i % 64` of word `i / 64` asks for coefficient `i` (a short bitmap
/// asks for nothing past its end). A code block holding no kept
/// coefficient is not decoded; in the others the sorting pass walks the
/// whole block as [`decode`] does, and only the assembly is restricted,
/// to the 64-entry blocks of the significant-pixel list that hold a kept
/// coefficient. Every kept coefficient comes back exactly as [`decode`]
/// returns it; every other one is 0 or that same value.
pub fn decode_masked<T: Float, const D: usize>(
    stream: &[u8],
    dims: [usize; D],
    q: f64,
    num_planes: u8,
    keep: &[u64],
) -> Result<Vec<T>, DecodeError> {
    decode_blocks(stream, dims, q, num_planes, Some(keep))
}

/// [`decode`] and [`decode_masked`]: every block (that `keep` touches)
/// decoded into a buffer of its own and placed into the domain.
fn decode_blocks<T: Float, const D: usize>(
    stream: &[u8],
    dims: [usize; D],
    q: f64,
    num_planes: u8,
    keep: Option<&[u64]>,
) -> Result<Vec<T>, DecodeError> {
    let blocks = crate::blocks::blocks(stream, dims, q, num_planes)?;
    if !blocks.is_split() {
        let sorted = blocks.sorting_pass(0, q, keep, Scratch::default())?;
        let mut out = vec![T::ZERO; sorted.len()];
        sorted.assemble(&mut out);
        return Ok(out);
    }
    let mut out = vec![T::ZERO; dims.iter().product()];
    let (mut dense, mut scratch) = (Vec::new(), Scratch::default());
    for (b, block) in blocks.iter().enumerate() {
        let block_keep = match keep {
            None => None,
            Some(keep) => match block.keep_bitmap(dims, keep) {
                None => continue,
                kept => kept,
            },
        };
        let sorted = blocks.sorting_pass(b, q, block_keep.as_deref(), scratch)?;
        dense.clear();
        dense.resize(block.len(), T::ZERO);
        sorted.assemble(&mut dense);
        scratch = sorted.into_scratch();
        block.place(dims, &dense, &mut out, 0);
    }
    Ok(out)
}

/// The decoder's first phase on one block's stream — a stream of one
/// block, or one of a split stream's ([`crate::Blocks::sorting_pass`]),
/// borrowed or gathered: the parameter checks, then the sorting pass over
/// the whole stream on the shape's geometry. What it returns assembles
/// into coefficients ([`Sorted::assemble`]). `keep` is [`decode_masked`]'s
/// row-major bitmap (`None`: the full read). The pass runs in the memory
/// of `scratch`, which [`Sorted::into_scratch`] gives back, a gathered
/// stream's memory with it.
pub(crate) fn sorting_pass<'a, const D: usize>(
    stream: Cow<'a, [u8]>,
    dims: [usize; D],
    q: f64,
    num_planes: u8,
    keep: Option<&[u64]>,
    scratch: Scratch,
) -> Result<Sorted<'a, D>, DecodeError> {
    let (_, coded) = check_params(dims, q, num_planes)?;
    let shape = if !coded {
        None
    } else if morton::applicable(dims) {
        Some(Shape::Dyadic(Dyadic::new(dims)))
    } else {
        let tables = layout::shared(layout::pad(dims))
            .map_err(|_| DecodeError::LimitExceeded("no memory for the layout tables"))?;
        Some(Shape::Table(tables))
    };
    Sorted::new(shape, stream, dims, q, num_planes, keep, scratch)
}

/// The sorting pass proper on `geom`, in the pixel list and buckets of
/// `scratch`: per plane, the buckets deepest level (smallest sets) first.
/// Also moves a keep bitmap into layout order.
fn walk(
    geom: &impl Geometry,
    stream: &[u8],
    n_total: usize,
    num_planes: u8,
    keep: Option<&[u64]>,
    scratch: &mut Scratch,
) -> Result<(DeferredLsp, Option<Vec<u64>>), DecodeError> {
    let in_layout = match keep {
        None => None,
        Some(row_major) => {
            let mut in_layout = Vec::new();
            in_layout
                .try_reserve_exact(n_total.div_ceil(64))
                .map_err(|_| DecodeError::LimitExceeded("no memory for the keep bitmap"))?;
            in_layout.resize(n_total.div_ceil(64), 0u64);
            geom.layout_bitmap(row_major, &mut in_layout);
            Some(in_layout)
        }
    };
    let k = geom.depth();
    let mut input = BitReader::new(stream);
    let (pixels, mut buckets) = scratch.lend_lists(k + 1);
    let mut lsp = DeferredLsp::for_stream(pixels, n_total, stream.len())?;
    if let Some(root) = buckets.first_mut() {
        root.push(0u32);
    }
    lsp.decode_planes(&mut input, num_planes, |input, lsp| {
        (0..=k).rev().try_for_each(|level| scan_bucket(input, geom, &mut buckets, lsp, level))
    });
    scratch.return_buckets(buckets);
    Ok((lsp, in_layout))
}

/// The geometry a [`Sorted`] stream was walked on and assembles on.
pub(crate) enum Shape<const D: usize> {
    Dyadic(Dyadic<D>),
    Table(Arc<Layout>),
}

/// A SPECK stream after its sorting pass: every significant pixel found,
/// with its sign and where its refinement bits sit in the stream; no
/// coefficient assembled yet (DESIGN.md §13).
pub struct Sorted<'a, const D: usize> {
    stream: Cow<'a, [u8]>,
    q: f64,
    num_planes: u8,
    n_total: usize,
    /// `None` for a stream with no planes: there is nothing to assemble.
    shape: Option<Shape<D>>,
    lsp: DeferredLsp,
    /// [`decode_masked`]'s bitmap, re-indexed into layout order so the
    /// assembly tests a pixel without locating it.
    keep: Option<Vec<u64>>,
    /// The memory the pass ran in, but for the pixel list (the LSP's).
    scratch: Scratch,
}

impl<'a, const D: usize> Sorted<'a, D> {
    /// Runs the sorting pass of `stream` on `shape` (parameters already
    /// checked) in the memory of `scratch`.
    pub(crate) fn new(
        shape: Option<Shape<D>>,
        stream: Cow<'a, [u8]>,
        dims: [usize; D],
        q: f64,
        num_planes: u8,
        keep: Option<&[u64]>,
        mut scratch: Scratch,
    ) -> Result<Self, DecodeError> {
        let n_total = dims.iter().product();
        let memory = &mut scratch;
        let (lsp, keep) = match &shape {
            None => (DeferredLsp::default(), None),
            Some(Shape::Dyadic(geom)) => walk(geom, &stream, n_total, num_planes, keep, memory)?,
            Some(Shape::Table(tables)) => {
                walk(&**tables, &stream, n_total, num_planes, keep, memory)?
            }
        };
        Ok(Sorted { stream, q, num_planes, n_total, shape, lsp, keep, scratch })
    }

    /// The memory the pass ran in, once the assembly is done with it.
    pub fn into_scratch(self) -> Scratch {
        let mut scratch = self.scratch;
        scratch.return_pixels(self.lsp.into_pixels());
        if let Cow::Owned(gathered) = self.stream {
            scratch.reuse_stream(gathered);
        }
        scratch
    }

    /// Coefficients in the domain (the output's length).
    pub fn len(&self) -> usize {
        self.n_total
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.n_total == 0
    }

    /// The decoder's second phase: writes every coefficient the sorting
    /// pass found into `out`, the domain in row-major order, which starts
    /// zeroed; an undiscovered coefficient stays 0. On a masked stream the
    /// coefficients outside the keep bitmap are 0 or their full-read value.
    pub fn assemble<T: Float>(&self, out: &mut [T]) {
        match &self.shape {
            None => {}
            Some(Shape::Dyadic(geom)) => self.assemble_on(geom, out),
            Some(Shape::Table(tables)) => self.assemble_on(&**tables, out),
        }
    }

    /// [`Sorted::assemble`] on the geometry the pass walked.
    fn assemble_on<T: Float>(&self, geom: &impl Geometry, out: &mut [T]) {
        let (stream, q, planes) = (&*self.stream, self.q, self.num_planes);
        match self.keep.as_deref() {
            None => self.lsp.assemble::<T, false>(stream, q, planes, geom, &[], out),
            Some(keep) => self.lsp.assemble::<T, true>(stream, q, planes, geom, keep, out),
        }
    }
}
