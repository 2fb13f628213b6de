//! The outer framing of a SPERR stream: one flag byte, then the container
//! either raw or packed by the lossless codec (§V's "losslessly compressed
//! by ZSTD"; see `sperr-lossless`).
//!
//! Besides wrapping and unwrapping whole containers, this module gives
//! the read paths that do not need a whole container — a region query, an
//! `inspect` — *random access through the framing*: [`Framed`] fetches
//! byte ranges of the container, borrowing them from a raw stream and
//! inflating only the SLZ1 blocks that hold them from a packed one.

use crate::container::{head_len, read_container_head, Parsed, FIXED_HEADER_BYTES};
use sperr_compress_api::CompressError;
use sperr_exec::WorkerPool;
use sperr_lossless::{BlockDirectory, SparseBytes};
use std::borrow::Cow;
use std::ops::Range;

pub(crate) const OUTER_RAW: u8 = 0;
pub(crate) const OUTER_LOSSLESS: u8 = 1;

/// Frames `container`. The lossless pass encodes its blocks on `pool`;
/// the bytes do not depend on how many workers that is.
pub(crate) fn wrap_outer(container: &[u8], lossless: bool, pool: &WorkerPool) -> Vec<u8> {
    let mut out = Vec::new();
    if lossless {
        out.push(OUTER_LOSSLESS);
        sperr_lossless::compress_with(container, pool, &mut out);
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

/// Strips the outer framing, undoing the lossless pass when present (a
/// raw container is borrowed, not copied) with its blocks inflated on
/// `pool`. Returns the container and whether the lossless pass was on.
pub(crate) fn unwrap_outer<'a>(
    stream: &'a [u8],
    pool: &WorkerPool,
) -> Result<(Cow<'a, [u8]>, bool), CompressError> {
    let (lossless, rest) = split_flag(stream)?;
    let container = if lossless {
        Cow::Owned(sperr_lossless::decompress_with(rest, pool)?)
    } else {
        Cow::Borrowed(rest)
    };
    Ok((container, lossless))
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
    /// On a packed stream this inflates the blocks under them and nothing
    /// else: cost follows the bytes asked for, and damage elsewhere in
    /// the stream is never even looked at. A needed block that fails to
    /// inflate fails the [`Fetched::get`] calls that overlap it.
    pub(crate) fn fetch(&self, ranges: &[Range<usize>]) -> Result<Fetched<'a>, CompressError> {
        match self {
            Framed::Raw(bytes) => Ok(Fetched::Raw(bytes)),
            Framed::Packed(dir) => {
                let len = dir.raw_len();
                let clamped: Vec<_> =
                    ranges.iter().map(|r| r.start.min(len)..r.end.min(len)).collect();
                Ok(Fetched::Sparse(dir.inflate_ranges(&clamped)?))
            }
        }
    }

    /// Parses the container's head (headers, chunk table, index,
    /// checksums; header CRC verified), fetching no payload byte.
    pub(crate) fn read_head(&self) -> Result<Parsed, CompressError> {
        let len = self.container_len();
        let prefix = 0..FIXED_HEADER_BYTES.min(len);
        let fetched = self.fetch(std::slice::from_ref(&prefix))?;
        let head = 0..head_len(fetched.get(prefix)?)?.min(len);
        let fetched = self.fetch(std::slice::from_ref(&head))?;
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
mod tests {
    use super::*;
    use crate::container::read_container;
    use crate::{Sperr, SperrConfig};
    use sperr_compress_api::{Bound, Field, LossyCompressor};
    use sperr_exec::stress::{ReverseOrder, StripedWorkers};
    use sperr_exec::Exec;

    /// A few SLZ1 blocks' worth of bytes, some that code and some that
    /// store (so block sizes differ and ordering mistakes show).
    fn blocky_bytes() -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut data = Vec::new();
        for block in 0..5 {
            for i in 0..128 * 1024 + 777 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                data.push(if block % 2 == 0 { x as u8 } else { (i % 61) as u8 });
            }
        }
        data
    }

    #[test]
    fn lossless_pass_is_byte_identical_under_any_executor_and_pool_width() {
        let data = blocky_bytes();
        let serial = sperr_lossless::compress(&data);
        // The adversarial executors the wavelet drivers are held to:
        // reversed job order, and jobs striped over worker slots.
        let executors: [&dyn Exec; 3] = [&ReverseOrder, &StripedWorkers(3), &StripedWorkers(7)];
        for exec in executors {
            let mut packed = Vec::new();
            sperr_lossless::compress_with(&data, exec, &mut packed);
            assert!(packed == serial, "executor of width {}", exec.width());
        }
        // The real pool, as the compress drivers use it.
        for threads in [1usize, 2, 7] {
            let framed = WorkerPool::scoped(threads, |pool| wrap_outer(&data, true, pool));
            assert_eq!(framed[0], OUTER_LOSSLESS);
            assert!(framed[1..] == serial[..], "{threads} threads");
        }
    }

    #[test]
    fn framed_access_agrees_with_whole_container_reads() {
        let field = Field::from_fn([40, 36, 28], |x, y, z| {
            (x as f64 * 0.3).sin() * 40.0 + (y * z) as f64 * 0.01 + ((x ^ y ^ z) % 7) as f64
        });
        for lossless in [false, true] {
            let sperr = Sperr::new(SperrConfig {
                chunk_dims: [16, 16, 16],
                lossless,
                num_threads: 1,
                ..SperrConfig::default()
            });
            let stream = sperr.compress(&field, Bound::Pwe(1e-6)).unwrap();
            let (container, flag) = unwrap_outer(&stream, &WorkerPool::inline()).unwrap();
            assert_eq!(flag, lossless);
            assert_eq!(matches!(container, Cow::Borrowed(_)), !lossless, "raw is borrowed");
            let framed = Framed::open(&stream).unwrap();
            assert_eq!(framed.lossless(), lossless);
            assert_eq!(framed.container_len(), container.len());

            // Head: same parse as from the whole container.
            let (head, whole) = (framed.read_head().unwrap(), read_container(&container).unwrap());
            assert_eq!(head.payload_start, whole.payload_start);
            assert_eq!(head.chunk_crcs, whole.chunk_crcs);
            assert_eq!(head.index, whole.index);
            assert_eq!(head.entries.len(), whole.entries.len());

            // Payload ranges, in scrambled order and overlapping.
            let len = container.len();
            let ranges = [len - 100..len, 50..90, len / 2..len / 2 + 3000, 60..70, 7..7];
            let fetched = framed.fetch(&ranges).unwrap();
            for r in ranges {
                assert_eq!(fetched.get(r.clone()).unwrap(), &container[r]);
            }
        }
    }
}
