//! The SPECK decoder, kept in its own modules so the whole decode path can
//! be audited for panic-freedom (see the repo's `tests/panic_audit.rs`):
//! nothing in this file or [`crate::lsp_decode`] may `unwrap`, `expect`,
//! `panic!` or `assert` — all failures on untrusted input surface as
//! [`DecodeError`].
//!
//! Two sorting-pass front ends — Morton cells for power-of-two cubes,
//! [`SetS`] cuboids for every other shape — feed one back half
//! ([`DeferredLsp`]), which skips refinement bits while walking the stream
//! and assembles all magnitudes at the end (DESIGN.md §13).

use crate::lsp_decode::{DeferredLsp, Stop};
use crate::morton::{self, MortonLayout};
use crate::set::SetS;
use sperr_bitstream::BitReader;
use sperr_simd::Float;
use std::fmt;

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

/// One LIS bucket (`lists[at]`) at one plane, shared by both front ends.
/// Insignificance bits come in runs (the encoder emits them through
/// `put_zeros`): `count_zero_run` consumes a run through the refill
/// register in bulk and the still-insignificant sets are compacted to the
/// front with one `copy_within` — bucket storage is reused across planes.
/// `split` handles a set whose significance bit was 1; the sets it creates
/// land in *other* buckets (smaller sets, which this pass has already
/// finished), so the bucket is taken out of `lists` while it is scanned.
/// When the stream runs out it stays out, the set in hand dropped with
/// it: nothing reads the LIS again.
fn scan_bucket<S: Copy>(
    input: &mut BitReader<'_>,
    lists: &mut Vec<Vec<S>>,
    at: usize,
    mut split: impl FnMut(&mut BitReader<'_>, &mut Vec<Vec<S>>, S) -> Result<(), Stop>,
) -> Result<(), Stop> {
    let mut bucket = std::mem::take(&mut lists[at]);
    let len = bucket.len();
    let (mut read, mut write) = (0usize, 0usize);
    while read < len {
        let run = input.count_zero_run(len - read);
        if write != read {
            bucket.copy_within(read..read + run, write);
        }
        read += run;
        write += run;
        if read < len {
            // The run stopped short: the next bit is a 1, or the stream
            // is exhausted.
            input.get_bit()?;
            split(input, lists, bucket[read])?;
            read += 1;
        }
    }
    bucket.truncate(write);
    lists[at] = bucket;
    Ok(())
}

/// Generic front end: buckets are partition levels (deepest, i.e. smallest
/// sets, first). A significant pixel records its sign; a significant
/// cuboid splits and each child is tested in turn.
fn split_generic<const D: usize>(
    input: &mut BitReader<'_>,
    lis: &mut Vec<Vec<SetS<D>>>,
    lsp: &mut DeferredLsp,
    dims: [usize; D],
    set: SetS<D>,
) -> Result<(), Stop> {
    if set.is_pixel() {
        lsp.push(set.pixel_index(dims) as u32, input.get_bit()?);
        return Ok(());
    }
    let mut children = [set; 8];
    let mut count = 0usize;
    set.split(|c| {
        children[count] = c;
        count += 1;
    });
    for &child in &children[..count] {
        if input.get_bit()? {
            split_generic(input, lis, lsp, dims, child)?;
        } else {
            let lvl = child.part_level as usize;
            if lis.len() <= lvl {
                lis.resize_with(lvl + 1, Vec::new);
            }
            lis[lvl].push(child);
        }
    }
    Ok(())
}

/// Morton front end. On a `2^k` cube every set is an aligned dyadic cube
/// (see [`crate::morton`]): bucket `j` holds side-`2^j` cubes as bare
/// Morton cell numbers — 4 bytes a set — ascending `j` is the generic
/// front end's deepest-level-first order, and the `2^D` children of `cell`
/// are cells `cell << D | 0..2^D` one bucket down, in [`SetS::split`]'s
/// order. Bucket 0 is pixels, recorded as Morton cells.
fn split_morton<const D: usize>(
    input: &mut BitReader<'_>,
    buckets: &mut [Vec<u32>],
    lsp: &mut DeferredLsp,
    j: usize,
    cell: u32,
) -> Result<(), Stop> {
    if j == 0 {
        lsp.push(cell, input.get_bit()?);
        return Ok(());
    }
    for child in (cell << D)..(cell << D) + (1 << D) {
        if input.get_bit()? {
            split_morton::<D>(input, buckets, lsp, j - 1, child)?;
        } else if let Some(bucket) = buckets.get_mut(j - 1) {
            bucket.push(child);
        }
    }
    Ok(())
}

/// Decodes a SPECK stream produced by [`crate::encode`] with the same
/// `dims`, `q` and `num_planes`. A truncated stream (embedded prefix, or a
/// bit-budget encode) decodes to a coarser but valid reconstruction;
/// decoding never fails on short input. Invalid parameters — a
/// non-positive or non-finite `q`, more than 64 bitplanes, or dims whose
/// product exceeds [`MAX_DECODE_ELEMENTS`] — return a typed error instead
/// of panicking, so header fields from untrusted containers can be passed
/// through unchecked.
pub fn decode<T: Float, const D: usize>(
    stream: &[u8],
    dims: [usize; D],
    q: f64,
    num_planes: u8,
) -> Result<Vec<T>, DecodeError> {
    decode_with(stream, dims, q, num_planes, morton::applicable(dims))
}

/// [`decode`] with the front end chosen by the caller: `use_morton` must
/// imply `morton::applicable(dims)`; the generic front end takes any shape
/// (which is what makes it the Morton one's oracle).
pub(crate) fn decode_with<T: Float, const D: usize>(
    stream: &[u8],
    dims: [usize; D],
    q: f64,
    num_planes: u8,
    use_morton: bool,
) -> Result<Vec<T>, DecodeError> {
    if !(q > 0.0) || !q.is_finite() {
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
        return Ok(vec![T::ZERO; n_total]);
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
    let mut input = BitReader::new(stream);
    let mut lsp = DeferredLsp::default();
    if use_morton {
        let k = dims[0].trailing_zeros() as usize;
        let mut buckets = vec![Vec::new(); k + 1];
        buckets[k].push(0u32);
        lsp.decode_planes(&mut input, num_planes, |input, lsp| {
            (0..=k).try_for_each(|j| {
                scan_bucket(input, &mut buckets, j, |input, buckets, cell| {
                    split_morton::<D>(input, buckets, lsp, j, cell)
                })
            })
        });
        drop(buckets);
        let layout = MortonLayout::new::<D>(dims[0]);
        Ok(lsp.reconstruct(stream, q, n_total, num_planes, |cell| layout.demorton(cell)))
    } else {
        let mut lis = vec![vec![SetS::root(dims)]];
        lsp.decode_planes(&mut input, num_planes, |input, lsp| {
            (0..lis.len()).rev().try_for_each(|lvl| {
                scan_bucket(input, &mut lis, lvl, |input, lis, set| {
                    split_generic(input, lis, lsp, dims, set)
                })
            })
        });
        drop(lis);
        Ok(lsp.reconstruct(stream, q, n_total, num_planes, |idx| idx))
    }
}
