//! Lossless back end for the SPERR reproduction.
//!
//! The paper's pipeline concatenates the SPECK and outlier bitstreams and
//! "losslessly compressed by ZSTD" (§V). ZSTD itself is out of scope for a
//! from-scratch reproduction, so this crate provides the same pipeline
//! stage with a self-contained LZ77 + canonical-Huffman codec (see
//! DESIGN.md §3 for the substitution rationale: same role — squeezing
//! residual redundancy out of already-entropy-dense coder output — with a
//! somewhat lower ratio than ZSTD).
//!
//! The [`huffman`] module is exported on its own because the SZ-style
//! baseline (`sperr-sz-like`) uses Huffman coding of quantization bins,
//! exactly as SZ does (paper §VI-E).
//!
//! # Format (`SLZ1`)
//!
//! ```text
//! magic "SLZ1" | u64 raw_len | blocks...
//! block: u8 flags (bit0 = huffman-compressed, bit1 = last)
//!        u32 raw_len
//!        stored:     raw bytes
//!        compressed: u32 payload_len, payload (bit-packed code tables + symbols)
//! ```
//!
//! Every block but the last holds exactly 128 KiB of raw data, and every
//! block is self-contained: its LZ77 window starts at its first byte and
//! a coded block carries its own Huffman tables. That independence is
//! what the implementation is built on — the block headers alone form a
//! [`BlockDirectory`], so a reader can inflate just the blocks under the
//! bytes it needs ([`BlockDirectory::inflate_ranges`]), and a writer or
//! reader can code blocks on any [`sperr_exec::Exec`] ([`compress_with`],
//! `inflate_ranges`) and get the same bytes. See DESIGN.md §3.
//!
//! # Example
//!
//! ```
//! let data = b"abcabcabcabc hello hello hello".repeat(20);
//! let packed = sperr_lossless::compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(sperr_lossless::decompress(&packed).unwrap(), data);
//! ```

pub mod huffman;

mod decode;
mod inflate;
mod lz77;
#[cfg(test)]
mod oracle;
#[cfg(test)]
mod proptests;

pub use decode::{decompress, BlockDirectory, DecodeError, SparseBytes};

use sperr_exec::{Exec, Serial, Slots};

const MAGIC: &[u8; 4] = b"SLZ1";
const BLOCK_SIZE: usize = 128 * 1024;
const FLAG_CODED: u8 = 0b01;
const FLAG_LAST: u8 = 0b10;

/// Compresses `data`; never fails. Incompressible blocks are stored
/// verbatim, so expansion is bounded by a few bytes per 128 KiB block;
/// most are found so before any parse (DESIGN.md §5, sperr-lossless).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut packed = Vec::new();
    compress_with(data, &Serial, &mut Encoders::default(), &mut packed);
    packed
}

/// The parse tables of [`compress_with`], one set per worker (≈ 1.9 MiB
/// each), kept by a caller that compresses repeatedly so that it
/// allocates them once. Every block resets what it reads, so the bytes do
/// not depend on what the tables saw before. The default holds none.
#[derive(Default)]
pub struct Encoders(Vec<lz77::BlockEncoder>);

impl Encoders {
    /// Bytes the tables hold.
    pub fn bytes(&self) -> usize {
        self.0.iter().map(lz77::BlockEncoder::bytes).sum()
    }
}

/// [`compress`] with the per-block encode run as jobs on `exec`, and the
/// stream appended to `out` (after whatever framing the caller already
/// put there) — the same bytes, whatever the executor does with them:
/// blocks are encoded independently of each other and laid down in order.
/// Each of `exec`'s workers codes with one set of `encoders`' tables,
/// made here when `encoders` has too few.
pub fn compress_with(data: &[u8], exec: &dyn Exec, encoders: &mut Encoders, out: &mut Vec<u8>) {
    let _span = sperr_telemetry::span!("lossless.compress", data.len());
    sperr_telemetry::counter!("lossless.bytes_in", data.len());
    // Empty input is one empty (stored, last) block.
    let n_blocks = data.len().div_ceil(BLOCK_SIZE).max(1);
    // One encoder per worker that can be busy at once; the rest wait.
    let busy = exec.width().clamp(1, n_blocks);
    let held = &mut encoders.0;
    held.extend((held.len()..busy).map(|_| lz77::BlockEncoder::new()));
    let idle = held.split_off(busy);
    let encoders: Slots<lz77::BlockEncoder> = held.drain(..).collect();
    // Every block is encoded into its own fixed-size slot of the output
    // buffer, then the slots are closed up in place: no per-block
    // buffers, no second copy of the stream.
    let stream_start = out.len();
    out.reserve_exact(12 + n_blocks * lz77::MAX_FRAMED_BLOCK);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    let body_start = out.len();
    out.resize(body_start + n_blocks * lz77::MAX_FRAMED_BLOCK, 0);
    let body = &mut out[body_start..];
    let slots: Slots<(&mut [u8], usize)> =
        body.chunks_mut(lz77::MAX_FRAMED_BLOCK).map(|slot| (slot, 0)).collect();
    exec.run(n_blocks, &|i, worker| {
        let block = &data[i * BLOCK_SIZE..data.len().min((i + 1) * BLOCK_SIZE)];
        // Uncontended by the executor contract (unless workers outnumber
        // blocks and two of them share an encoder — then they take turns);
        // an encoder left behind by a panicked job is safe to reuse
        // because every block resets it.
        let mut encoder = encoders.lock(worker % encoders.len());
        let mut slot = slots.lock(i);
        slot.1 = encoder.encode(block, i + 1 == n_blocks, slot.0);
    });
    held.extend(encoders.into_values());
    let unparsed: usize = held.iter_mut().map(|e| std::mem::take(&mut e.stored_unparsed)).sum();
    held.extend(idle);
    sperr_telemetry::counter!("lossless.blocks_stored_unparsed", unparsed);
    let lens: Vec<usize> = slots.into_values().map(|slot| slot.1).collect();
    let mut end = body_start;
    for (i, len) in lens.into_iter().enumerate() {
        let start = body_start + i * lz77::MAX_FRAMED_BLOCK;
        out.copy_within(start..start + len, end);
        end += len;
    }
    out.truncate(end);
    sperr_telemetry::counter!("lossless.bytes_out", end - stream_start);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrip() {
        let packed = compress(&[]);
        assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn tiny_roundtrip() {
        for data in [&b"a"[..], b"ab", b"abc", b"aaaa"] {
            let packed = compress(data);
            assert_eq!(decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = b"0123456789".repeat(10_000);
        let packed = compress(&data);
        assert!(
            packed.len() < data.len() / 10,
            "ratio too poor: {} / {}",
            packed.len(),
            data.len()
        );
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn incompressible_data_stored_with_bounded_expansion() {
        // Pseudo-random bytes: codec must fall back to stored blocks.
        let data: Vec<u8> = (0..300_000u64)
            .map(|i| (i.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407) >> 33)
                as u8)
            .collect();
        let packed = compress(&data);
        assert!(packed.len() <= data.len() + 64, "expanded too much: {}", packed.len());
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn multi_block_roundtrip() {
        // > BLOCK_SIZE so several blocks are produced, mixing stored and
        // compressed.
        let mut data = Vec::new();
        for i in 0..400_000u64 {
            if i % 3 == 0 {
                data.push((i % 251) as u8);
            } else {
                data.push(b'x');
            }
        }
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn text_like_data() {
        let data = b"The quick brown fox jumps over the lazy dog. ".repeat(2000);
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 4);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut packed = compress(b"hello world");
        packed[0] = b'X';
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = b"some reasonably long input that will compress".repeat(100);
        let packed = compress(&data);
        for cut in [0, 3, 10, packed.len() / 2, packed.len() - 1] {
            assert!(decompress(&packed[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn corrupt_payload_never_panics() {
        let data = b"compressible compressible compressible".repeat(200);
        let mut packed = compress(&data);
        let mid = packed.len() / 2;
        packed[mid] ^= 0xFF;
        let _ = decompress(&packed); // any Result is fine; no panic
    }

    #[test]
    fn speck_like_bitstream_roundtrip() {
        // The real workload: dense, high-entropy coder output with some
        // structure (long zero runs from padding, repeated headers).
        let mut data = Vec::new();
        for chunk in 0..64 {
            data.extend_from_slice(&[0u8; 20]); // header-ish
            for i in 0..2048u64 {
                data.push(((i * 2654435761).wrapping_add(chunk) >> 13) as u8);
            }
            data.extend_from_slice(&[0u8; 37]);
        }
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }
}
