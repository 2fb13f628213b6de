//! The SLZ1 stream decoder: block directory, whole-stream and sparse
//! inflate. Kept in its own module (with `inflate.rs` and
//! `huffman/decode.rs`) so the whole decode path can be audited for
//! panic-freedom (see the repo's `tests/panic_audit.rs`): nothing in this
//! file may `unwrap`, `expect`, `panic!` or `assert` — all failures on
//! untrusted input surface as [`DecodeError`].
//!
//! SLZ1 blocks are self-contained — the LZ77 window never reaches before
//! a block's first byte and every coded block carries its own Huffman
//! tables — so the 5- or 9-byte block headers alone say where each
//! block's bytes sit in the stream and in the raw data. Walking them
//! yields a [`BlockDirectory`]; every decode is "directory, then inflate
//! some blocks": [`decompress`] inflates all of them, a region read
//! ([`BlockDirectory::inflate_ranges`]) only those under the bytes it
//! needs.

use crate::inflate::{inflate_block, inflate_block_into};
use crate::{BLOCK_SIZE, FLAG_CODED, FLAG_LAST, MAGIC};
use sperr_bitstream::ByteReader;
use sperr_exec::{Exec, Serial, Slots};
use std::fmt;
use std::ops::Range;

/// Upper bound on the output bytes a stream may declare per input byte.
/// The LZ77 back end tops out near 207x (a 259-byte match costs at least
/// 10 bits); anything above this factor cannot be a genuine SLZ1 stream
/// and is rejected before any allocation.
const MAX_EXPANSION: usize = 1024;

/// Cap on the up-front reservation for the output buffer; growth beyond
/// this is paid for by actual decoded blocks, so a huge declared raw
/// length cannot allocate memory the stream does not back.
const MAX_PREALLOC: usize = 16 * 1024 * 1024;

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
            DecodeError::Truncated(msg) => write!(f, "truncated SLZ1 stream: {msg}"),
            DecodeError::Corrupt(msg) => write!(f, "corrupt SLZ1 stream: {msg}"),
            DecodeError::LimitExceeded(msg) => write!(f, "SLZ1 decode limit exceeded: {msg}"),
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

/// Decompresses a stream produced by [`crate::compress`]. Corrupt or
/// truncated input returns a typed error; the declared raw length is
/// treated as untrusted and never allocated blindly.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
    decompress_with(data, &Serial)
}

/// Blocks one [`decompress_with`] batch inflates: 1 MiB of raw data,
/// enough jobs for a few workers, and little enough that the batch's
/// zero-filled part of the output is still in cache when its blocks
/// overwrite it.
pub(crate) const INFLATE_BATCH: usize = 8;

/// [`decompress`] with the per-block inflate handed to an executor — the
/// mirror of [`crate::compress_with`], and the same bytes or the same
/// error whatever the executor does: blocks inflate independently, each
/// into its own slice of the output, and the first failing block in
/// stream order names the error.
///
/// `exec` runs one batch of up to [`INFLATE_BATCH`] blocks at a time, and
/// a batch only once the blocks before it have inflated; inflating needs
/// no per-worker state. At most `MAX_PREALLOC` bytes of output are
/// allocated up front; past that the output grows a batch at a time, only
/// as blocks decode, so a raw length the stream does not back is never
/// allocated.
pub fn decompress_with(data: &[u8], exec: &dyn Exec) -> Result<Vec<u8>, DecodeError> {
    let _span = sperr_telemetry::span!("lossless.decompress", data.len());
    let dir = BlockDirectory::parse(data)?;
    let mut out = Vec::new();
    out.try_reserve_exact(dir.raw_len.min(MAX_PREALLOC))
        .map_err(|_| DecodeError::LimitExceeded("no memory for the decompressed data"))?;
    for batch in dir.blocks.chunks(INFLATE_BATCH) {
        let (start, end) = match (batch.first(), batch.last()) {
            (Some(first), Some(last)) => (first.raw.start, last.raw.end),
            _ => break,
        };
        out.try_reserve(end - start)
            .map_err(|_| DecodeError::LimitExceeded("no memory for the decompressed data"))?;
        out.resize(end, 0);
        let mut rest = out.get_mut(start..end).unwrap_or(&mut []);
        let mut slots = Vec::with_capacity(batch.len());
        for block in batch {
            let Some((dst, tail)) = rest.split_at_mut_checked(block.raw.len()) else { break };
            slots.push((dst, Ok(())));
            rest = tail;
        }
        let slots: Slots<(&mut [u8], Result<(), DecodeError>)> = slots.into_iter().collect();
        exec.run(slots.len(), &|i, _| {
            if let Some(block) = batch.get(i) {
                let (dst, result) = &mut *slots.lock(i);
                *result = dir.inflate_into(block, dst);
            }
        });
        for (_, result) in slots.into_values() {
            result?;
        }
    }
    Ok(out)
}

/// Where one block lives: `raw` in the decompressed data, `src` in the
/// stream (the coded payload, or the stored bytes themselves).
#[derive(Debug, Clone)]
struct Block {
    raw: Range<usize>,
    src: Range<usize>,
    coded: bool,
}

/// The block layout of one SLZ1 stream, read off its block headers
/// without inflating anything. Parsing validates the framing in full —
/// magic, plausible raw length, every block within [`BLOCK_SIZE`] and
/// backed by stream bytes, a last-block flag, `Σ block_len == raw_len` —
/// so a directory in hand means only block *payloads* can still be bad.
/// Its size is bounded by the stream's: one entry per 5+ header bytes.
#[derive(Debug, Clone)]
pub struct BlockDirectory<'a> {
    stream: &'a [u8],
    raw_len: usize,
    blocks: Vec<Block>,
}

impl<'a> BlockDirectory<'a> {
    /// Walks the block headers of `stream`.
    pub fn parse(stream: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(stream);
        if r.get_bytes(4)? != MAGIC {
            return Err(DecodeError::Corrupt("bad SLZ1 magic"));
        }
        let raw_len_u64 = r.get_u64()?;
        if raw_len_u64
            > (stream.len().saturating_mul(MAX_EXPANSION).saturating_add(BLOCK_SIZE)) as u64
        {
            return Err(DecodeError::LimitExceeded("declared raw length implausibly large"));
        }
        let raw_len = raw_len_u64 as usize;
        let mut blocks = Vec::new();
        let mut raw_start = 0usize;
        loop {
            let flags = r.get_u8()?;
            let block_len = r.get_u32()? as usize;
            if block_len > BLOCK_SIZE {
                return Err(DecodeError::Corrupt("block exceeds maximum block size"));
            }
            if raw_start + block_len > raw_len {
                return Err(DecodeError::Corrupt("blocks overrun declared raw length"));
            }
            let coded = flags & FLAG_CODED != 0;
            let src_len = if coded { r.get_u32()? as usize } else { block_len };
            let src_start = r.position();
            r.get_bytes(src_len)?;
            blocks.push(Block {
                raw: raw_start..raw_start + block_len,
                src: src_start..src_start + src_len,
                coded,
            });
            raw_start += block_len;
            if flags & FLAG_LAST != 0 {
                break;
            }
            if r.is_empty() {
                return Err(DecodeError::Truncated("missing last-block flag"));
            }
        }
        if raw_start != raw_len {
            return Err(DecodeError::Corrupt("raw length mismatch"));
        }
        Ok(BlockDirectory { stream, raw_len, blocks })
    }

    /// Length of the decompressed data.
    pub fn raw_len(&self) -> usize {
        self.raw_len
    }

    /// Appends blocks `run` to `out`, the last of them only up to raw
    /// offset `end` (see [`inflate_block`] for what a partial block
    /// skips). On failure returns the index of the block that failed,
    /// with `out` holding the blocks before it.
    fn inflate_run(
        &self,
        run: Range<usize>,
        end: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), (usize, DecodeError)> {
        for i in run {
            let Some((block, src)) =
                self.blocks.get(i).and_then(|b| Some((b, self.stream.get(b.src.clone())?)))
            else {
                return Err((i, DecodeError::Corrupt("block directory out of range")));
            };
            let want = end.saturating_sub(block.raw.start).min(block.raw.len());
            if block.coded {
                inflate_block(src, block.raw.len(), want, out).map_err(|e| (i, e.into()))?;
            } else {
                out.extend_from_slice(src.get(..want).unwrap_or(src));
            }
        }
        Ok(())
    }

    /// Inflates the whole of `block` into `dst`, which holds exactly its
    /// raw bytes.
    fn inflate_into(&self, block: &Block, dst: &mut [u8]) -> Result<(), DecodeError> {
        let src = self
            .stream
            .get(block.src.clone())
            .ok_or(DecodeError::Corrupt("block directory out of range"))?;
        if block.coded {
            Ok(inflate_block_into(src, dst)?)
        } else if src.len() == dst.len() {
            dst.copy_from_slice(src);
            Ok(())
        } else {
            Err(DecodeError::Corrupt("stored block length mismatch"))
        }
    }

    /// Index of the block holding raw offset `at` (`at < raw_len`).
    fn block_at(&self, at: usize) -> usize {
        self.blocks.partition_point(|b| b.raw.end <= at)
    }

    /// Inflates the blocks that hold any byte of `ranges` (raw offsets,
    /// in any order, overlapping or not), each block once, adjacent
    /// blocks into one contiguous buffer, and the last block of such a
    /// run only as far as the ranges reach. Blocks the ranges do not
    /// touch are neither read nor checked, so their damage cannot fail
    /// or slow the read; a needed block that fails to inflate is
    /// recorded and fails exactly the [`SparseBytes::get`] calls that
    /// overlap it. Errors here only for a range outside the data.
    pub fn inflate_ranges(&self, ranges: &[Range<usize>]) -> Result<SparseBytes, DecodeError> {
        let _span = sperr_telemetry::span!("lossless.inflate_ranges", ranges.len());
        // (first block, last block, raw end) per non-empty range.
        let mut spans = Vec::with_capacity(ranges.len());
        for r in ranges {
            if r.start > r.end || r.end > self.raw_len {
                return Err(DecodeError::Corrupt("range beyond the decompressed data"));
            }
            if !r.is_empty() {
                spans.push((self.block_at(r.start), self.block_at(r.end - 1), r.end));
            }
        }
        spans.sort_unstable();
        let mut sparse = SparseBytes { runs: Vec::new(), failed: Vec::new() };
        let mut spans = spans.into_iter().peekable();
        while let Some((first, mut last, mut end)) = spans.next() {
            // Grow the run over every span starting in or right after it.
            while let Some((_, l, e)) = spans.next_if(|s| s.0 <= last + 1) {
                last = last.max(l);
                end = end.max(e);
            }
            self.inflate_sparse_run(first..last + 1, end, &mut sparse);
        }
        Ok(sparse)
    }

    /// Inflates blocks `run` (up to raw offset `end`) into `sparse`. A
    /// block that fails ends the buffer before it and is recorded; the
    /// blocks after it — independent of it — start a new buffer.
    fn inflate_sparse_run(&self, mut run: Range<usize>, end: usize, sparse: &mut SparseBytes) {
        while let Some(start) = self.blocks.get(run.start).map(|b| b.raw.start) {
            if run.is_empty() {
                break;
            }
            let mut bytes = Vec::with_capacity(end.saturating_sub(start).min(MAX_PREALLOC));
            let failed = self.inflate_run(run.clone(), end, &mut bytes).err();
            if !bytes.is_empty() {
                sparse.runs.push((start, bytes));
            }
            let Some((i, e)) = failed else { break };
            if let Some(b) = self.blocks.get(i) {
                sparse.failed.push((b.raw.clone(), e));
            }
            run.start = i + 1;
        }
    }

    /// Bytes `range` of the decompressed data, inflating only the blocks
    /// that hold them.
    pub fn inflate_range(&self, range: Range<usize>) -> Result<Vec<u8>, DecodeError> {
        self.inflate_ranges(std::slice::from_ref(&range))?.get(range).map(<[u8]>::to_vec)
    }
}

/// What [`BlockDirectory::inflate_ranges`] inflated: contiguous buffers
/// at their raw offsets, and the raw extents of needed blocks that failed.
#[derive(Debug, Clone)]
pub struct SparseBytes {
    /// (raw offset of the first byte, bytes), ascending and disjoint.
    runs: Vec<(usize, Vec<u8>)>,
    failed: Vec<(Range<usize>, DecodeError)>,
}

impl SparseBytes {
    /// Bytes `range` of the decompressed data. Fails with the block's own
    /// error when `range` overlaps a block that did not inflate, and as
    /// `Corrupt` when it was not among the ranges asked for.
    pub fn get(&self, range: Range<usize>) -> Result<&[u8], DecodeError> {
        if range.is_empty() {
            return Ok(&[]);
        }
        if let Some((_, e)) =
            self.failed.iter().find(|(bad, _)| bad.start < range.end && range.start < bad.end)
        {
            return Err(e.clone());
        }
        let after = self.runs.partition_point(|(start, _)| *start <= range.start);
        after
            .checked_sub(1)
            .and_then(|i| self.runs.get(i))
            .and_then(|(start, bytes)| bytes.get(range.start - start..range.end - start))
            .ok_or(DecodeError::Corrupt("range was not inflated"))
    }
}
