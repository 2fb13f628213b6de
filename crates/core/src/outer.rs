//! The outer framing of a SPERR stream: one flag byte, then the container
//! either raw or packed by the lossless codec (§V's "losslessly compressed
//! by ZSTD"; see `sperr-lossless`).
//!
//! Compressing wraps a whole container ([`wrap_outer`]). Every read goes
//! through the framing by *random access*: [`Framed`] fetches byte ranges
//! of the container — the head, then the payloads a read plans — borrowing
//! them from a raw stream and inflating only the SLZ1 blocks that hold
//! them from a packed one. This is the one place that parses the framing
//! of untrusted bytes, so the file is listed in `tests/panic_audit.rs`.

use crate::container::{head_len, read_container_head, Parsed, FIXED_HEADER_BYTES};
use sperr_compress_api::CompressError;
use sperr_exec::{Exec, Serial, WorkerPool};
use sperr_lossless::{BlockDirectory, Encoders, SparseBytes};
use std::ops::Range;

pub(crate) const OUTER_RAW: u8 = 0;
pub(crate) const OUTER_LOSSLESS: u8 = 1;

/// Frames `container`. The lossless pass encodes its blocks on `pool`
/// with `encoders`' parse tables; the bytes do not depend on how many
/// workers that is.
pub(crate) fn wrap_outer(
    container: &[u8],
    lossless: bool,
    pool: &WorkerPool,
    encoders: &mut Encoders,
) -> Vec<u8> {
    let mut out = Vec::new();
    if lossless {
        out.push(OUTER_LOSSLESS);
        sperr_lossless::compress_with(container, pool, encoders, &mut out);
    } else {
        out.reserve_exact(container.len() + 1);
        out.push(OUTER_RAW);
        out.extend_from_slice(container);
    }
    out
}

/// Splits a stream into "was the lossless pass on" and what follows the
/// flag byte.
fn split_flag(stream: &[u8]) -> Result<(bool, &[u8]), CompressError> {
    match stream.split_first() {
        Some((&OUTER_RAW, rest)) => Ok((false, rest)),
        Some((&OUTER_LOSSLESS, rest)) => Ok((true, rest)),
        Some((f, _)) => Err(CompressError::Corrupt(format!("unknown outer flag {f}"))),
        None => Err(CompressError::Corrupt("empty stream".into())),
    }
}

/// A framed container opened for random access.
pub(crate) enum Framed<'a> {
    Raw(&'a [u8]),
    /// Packed: only the SLZ1 block headers have been read.
    Packed(BlockDirectory<'a>),
}

/// Container bytes fetched through a [`Framed`].
pub(crate) enum Fetched<'a> {
    Raw(&'a [u8]),
    Sparse(SparseBytes),
}

impl<'a> Framed<'a> {
    pub(crate) fn open(stream: &'a [u8]) -> Result<Self, CompressError> {
        let (lossless, rest) = split_flag(stream)?;
        Ok(if lossless { Framed::Packed(BlockDirectory::parse(rest)?) } else { Framed::Raw(rest) })
    }

    /// Whether the lossless pass was on.
    pub(crate) fn lossless(&self) -> bool {
        matches!(self, Framed::Packed(_))
    }

    /// Length of the container behind the framing.
    pub(crate) fn container_len(&self) -> usize {
        match self {
            Framed::Raw(bytes) => bytes.len(),
            Framed::Packed(dir) => dir.raw_len(),
        }
    }

    /// Makes `ranges` of the container (clamped to its length) readable.
    /// On a packed stream this inflates the blocks under them, on `exec`,
    /// and nothing else: cost follows the bytes asked for, and damage
    /// elsewhere in the stream is never even looked at. A needed block that
    /// fails to inflate fails the [`Fetched::get`] calls that overlap it.
    pub(crate) fn fetch(
        &self,
        ranges: &[Range<usize>],
        exec: &dyn Exec,
    ) -> Result<Fetched<'a>, CompressError> {
        match self {
            Framed::Raw(bytes) => Ok(Fetched::Raw(bytes)),
            Framed::Packed(dir) => {
                let len = dir.raw_len();
                let clamped: Vec<_> =
                    ranges.iter().map(|r| r.start.min(len)..r.end.min(len)).collect();
                Ok(Fetched::Sparse(dir.inflate_ranges(&clamped, exec)?))
            }
        }
    }

    /// Parses the container's head (headers, chunk table, index,
    /// checksums; header CRC verified), fetching no payload byte.
    pub(crate) fn read_head(&self) -> Result<Parsed, CompressError> {
        let len = self.container_len();
        let prefix = 0..FIXED_HEADER_BYTES.min(len);
        let fetched = self.fetch(std::slice::from_ref(&prefix), &Serial)?;
        let head = 0..head_len(fetched.get(prefix)?)?.min(len);
        let fetched = self.fetch(std::slice::from_ref(&head), &Serial)?;
        read_container_head(fetched.get(head)?, len)
    }
}

impl Fetched<'_> {
    /// Bytes `range` of the container; it must lie within a fetched range.
    pub(crate) fn get(&self, range: Range<usize>) -> Result<&[u8], CompressError> {
        match self {
            Fetched::Raw(bytes) => bytes.get(range).ok_or_else(|| {
                CompressError::Truncated("container shorter than its chunk table declares".into())
            }),
            Fetched::Sparse(sparse) => Ok(sparse.get(range)?),
        }
    }
}

#[cfg(test)]
#[path = "outer_tests.rs"]
mod tests;
