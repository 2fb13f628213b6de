//! The SLZ1 stream decoder: block directory and the one block-inflate
//! loop. Kept in its own module (with `inflate.rs` and
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
//! the blocks under some ranges" ([`BlockDirectory::inflate_ranges`]):
//! [`decompress`] is the one range that covers everything, a region read
//! the ranges it needs.

use crate::inflate::{inflate_block_into, window};
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

/// Blocks one batch of the inflate loop holds: 1 MiB of raw data, enough
/// jobs for a few workers, and little enough that the batch's zero-filled
/// part of the output is still in cache when its blocks overwrite it.
pub(crate) const INFLATE_BATCH: usize = 8;

/// [`decompress`] with the per-block inflate handed to an executor — the
/// mirror of [`crate::compress_with`]: the inflate loop over every block,
/// stopped at the first batch with a failed block. The same bytes or the
/// same error whatever the executor does: the first failing block in
/// stream order names the error. Crate-private: callers want
/// [`decompress`]; this form lets the tests hold the loop to that contract.
pub(crate) fn decompress_with(data: &[u8], exec: &dyn Exec) -> Result<Vec<u8>, DecodeError> {
    let _span = sperr_telemetry::span!("lossless.decompress", data.len());
    let dir = BlockDirectory::parse(data)?;
    let every_block: Vec<_> = dir.blocks.iter().map(|b| (b, b.raw.len())).collect();
    let whole = dir.inflate(&every_block, exec, true)?;
    whole.failed.into_iter().next().map_or(Ok(whole.bytes), |(_, e)| Err(e))
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

    /// Decodes the first `want` bytes of `block` into `dst`, which holds
    /// its [`window`] for them: a coded block is inflated, a stored one
    /// copied.
    fn inflate_into(&self, block: &Block, want: usize, dst: &mut [u8]) -> Result<(), DecodeError> {
        let src = self
            .stream
            .get(block.src.clone())
            .ok_or(DecodeError::Corrupt("block directory out of range"))?;
        match (block.coded, src.get(..dst.len())) {
            (true, _) => Ok(inflate_block_into(src, block.raw.len(), want, dst)?),
            (false, Some(stored)) => {
                dst.copy_from_slice(stored);
                Ok(())
            }
            (false, None) => Err(DecodeError::Corrupt("stored block length mismatch")),
        }
    }

    /// Index of the block holding raw offset `at` (`at < raw_len`).
    fn block_at(&self, at: usize) -> usize {
        self.blocks.partition_point(|b| b.raw.end <= at)
    }

    /// Inflates the blocks that hold any byte of `ranges` (raw offsets,
    /// in any order, overlapping or not) on `exec`, each block once, and
    /// the last block of a run of adjacent ones only as far as the ranges
    /// reach. Blocks the ranges do not touch are neither read nor checked,
    /// so their damage cannot fail or slow the read; a needed block that
    /// fails to inflate is recorded and fails exactly the
    /// [`SparseBytes::get`] calls that overlap it. The result does not
    /// depend on the executor. Errors here only for a range outside the
    /// data, or for no memory to hold what the ranges ask for.
    pub fn inflate_ranges(
        &self,
        ranges: &[Range<usize>],
        exec: &dyn Exec,
    ) -> Result<SparseBytes, DecodeError> {
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
        let mut jobs = Vec::new();
        let mut spans = spans.into_iter().peekable();
        while let Some((first, mut last, mut end)) = spans.next() {
            // Grow the run over every span starting in or right after it.
            while let Some((_, l, e)) = spans.next_if(|s| s.0 <= last + 1) {
                last = last.max(l);
                end = end.max(e);
            }
            let run = self.blocks.get(first..=last).unwrap_or(&[]);
            jobs.extend(run.iter().map(|b| (b, end.min(b.raw.end) - b.raw.start)));
        }
        self.inflate(&jobs, exec, false)
    }

    /// The one inflate loop. Inflates the first `want` bytes of each of
    /// `jobs`' blocks (in stream order), a batch of [`INFLATE_BATCH`]
    /// blocks at a time on `exec`, each into its own slice of one buffer;
    /// a batch runs only once the one before it has. What decoded is kept;
    /// a block that failed is recorded and its slice dropped, and with
    /// `stop_at_failure` no batch after it runs. At most `MAX_PREALLOC`
    /// bytes are reserved up front; past that the buffer grows a batch at
    /// a time and keeps only decoded bytes, so a raw length the stream
    /// does not back is never allocated.
    fn inflate(
        &self,
        jobs: &[(&Block, usize)],
        exec: &dyn Exec,
        stop_at_failure: bool,
    ) -> Result<SparseBytes, DecodeError> {
        let no_memory = |_| DecodeError::LimitExceeded("no memory for the decompressed data");
        // A partly wanted coded block decodes up to one match past `want`.
        let room =
            |&(b, want): &(&Block, usize)| if b.coded { window(b.raw.len(), want) } else { want };
        let mut out = SparseBytes { bytes: Vec::new(), pieces: Vec::new(), failed: Vec::new() };
        let wanted = jobs.iter().map(|&(_, want)| want).sum::<usize>();
        out.bytes.try_reserve_exact(wanted.min(MAX_PREALLOC)).map_err(no_memory)?;
        for batch in jobs.chunks(INFLATE_BATCH) {
            let base = out.bytes.len();
            let len = batch.iter().map(room).sum::<usize>();
            out.bytes.try_reserve(len).map_err(no_memory)?;
            out.bytes.resize(base + len, 0);
            let mut rest = out.bytes.get_mut(base..).unwrap_or(&mut []);
            let mut slots = Vec::with_capacity(batch.len());
            for job in batch {
                let Some((dst, tail)) = rest.split_at_mut_checked(room(job)) else { break };
                slots.push((dst, Ok(())));
                rest = tail;
            }
            let slots: Slots<(&mut [u8], Result<(), DecodeError>)> = slots.into_iter().collect();
            exec.run(slots.len(), &|i, _| {
                if let Some(&(block, want)) = batch.get(i) {
                    let (dst, result) = &mut *slots.lock(i);
                    *result = self.inflate_into(block, want, dst);
                }
            });
            let settled: Vec<_> = slots.into_values().map(|(dst, r)| (dst.len(), r)).collect();
            // Pack what decoded down over window tails and failed blocks.
            let (mut read, mut write, mut failed) = (base, base, false);
            for (&(block, want), (room, result)) in batch.iter().zip(settled) {
                if let Err(e) = result {
                    out.failed.push((block.raw.clone(), e));
                    failed = true;
                } else {
                    if read != write {
                        out.bytes.copy_within(read..read + want, write);
                    }
                    let raw = block.raw.start..block.raw.start + want;
                    match out.pieces.last_mut() {
                        Some((last, at)) if last.end == raw.start && *at + last.len() == write => {
                            last.end = raw.end;
                        }
                        _ => out.pieces.push((raw, write)),
                    }
                    write += want;
                }
                read += room;
            }
            out.bytes.truncate(write);
            if failed && stop_at_failure {
                break;
            }
        }
        Ok(out)
    }
}

/// What [`BlockDirectory::inflate_ranges`] inflated: pieces of the
/// decompressed data packed into one buffer, and the raw extents of
/// needed blocks that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseBytes {
    bytes: Vec<u8>,
    /// (raw extent, offset in `bytes`), ascending and disjoint.
    pieces: Vec<(Range<usize>, usize)>,
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
        let after = self.pieces.partition_point(|(raw, _)| raw.start <= range.start);
        after
            .checked_sub(1)
            .and_then(|i| self.pieces.get(i))
            .filter(|(raw, _)| range.end <= raw.end)
            .and_then(|(raw, at)| {
                self.bytes.get(at + (range.start - raw.start)..at + (range.end - raw.start))
            })
            .ok_or(DecodeError::Corrupt("range was not inflated"))
    }
}
