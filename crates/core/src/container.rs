//! SPERR container format: a fixed 20-byte header (the paper's §V-A notes
//! a fixed twenty-byte header whose cost is included in all evaluations),
//! an extended header, per-chunk tables, and the concatenated chunk
//! bitstreams.
//!
//! Three format versions exist:
//!
//! * **v1** — header, chunk table, payloads (the original layout).
//! * **v2** — identical through the chunk table, then one CRC-32 per
//!   chunk payload, then a CRC-32 over everything preceding it (the
//!   "header CRC"), then payloads. The checksums let a reader detect
//!   corruption cheaply ([`crate::Sperr::verify`]) and localize damage to
//!   individual chunks ([`crate::OnDamage::ZeroFill`]).
//! * **v3** — identical through the chunk table, then a **chunk index**
//!   (per chunk: payload byte offset, encoded length, chunk-grid
//!   coordinates, and the chunk's post-correction max point-wise error),
//!   then the v2 checksum block (whose header CRC also covers the index),
//!   then payloads. The index lets a reader seek straight to the chunks
//!   intersecting a region of interest ([`crate::ReadRequest::Region`])
//!   without walking the chunk table, and carries per-chunk quality
//!   metadata for preview/refinement decisions.
//!
//! Compression always writes v3; v2 and v1 are written only by re-framing
//! an existing stream ([`crate::Sperr::downgrade_to_v2`] /
//! [`crate::Sperr::downgrade_to_v1`]). The reader accepts all
//! three versions (v1 streams have no checksums, so `chunk_crcs` parses
//! as `None`; v1/v2 streams have no index, so `index` parses as `None`).

use crate::crc32::{crc32, crc32_of};
use crate::pipeline::ChunkEncoding;
use sperr_bitstream::{ByteReader, ByteWriter};
use sperr_compress_api::{CompressError, Precision};
use sperr_wavelet::Kernel;

pub(crate) const MAGIC: &[u8; 4] = b"SPRR";
/// Newest version [`write_container`] can emit, and the default (public
/// so the conformance manifest can record which container format its
/// goldens were cut against).
pub const VERSION: u8 = 3;
/// Checksummed but index-free version, still written by
/// [`crate::Sperr::downgrade_to_v2`] and always accepted by
/// [`read_container_head`].
pub(crate) const VERSION_V2: u8 = 2;
/// Legacy checksum-free version, still accepted by [`read_container_head`].
pub(crate) const VERSION_V1: u8 = 1;

/// Serialized size of one chunk-table entry: f64 q, u8 num_planes,
/// u8 max_n, u32 num_outliers, u32 speck_len, u32 outlier_len.
pub(crate) const CHUNK_ENTRY_BYTES: usize = 22;

/// Serialized size of one chunk-index entry (v3 streams): u64 payload
/// offset, u32 encoded length, 3×u32 grid coordinates, f64 max error.
pub(crate) const INDEX_ENTRY_BYTES: usize = 32;

/// Hard ceiling on the total number of points a container may declare;
/// matches the SPECK coder's u32-index domain and keeps a corrupted
/// header from driving giant allocations.
const MAX_VOLUME_ELEMENTS: u64 = u32::MAX as u64;

/// Hard ceiling on the number of chunks in one container. The chunk grid
/// is materialized in memory, so a corrupt header must not be able to
/// declare an absurd grid.
const MAX_CHUNKS: u64 = 1 << 22;

/// Termination mode recorded in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Point-wise-error bounded (`bound_value` = tolerance t).
    Pwe,
    /// Size bounded (`bound_value` = target bits per point).
    Bpp,
    /// Average-error targeted (`bound_value` = target PSNR in dB); the
    /// §VII extension.
    Rmse,
}

/// Parsed container metadata.
#[derive(Debug, Clone)]
pub(crate) struct Header {
    pub mode: Mode,
    pub kernel: Kernel,
    pub precision: Precision,
    /// True when the chunk payloads were produced by the f32-native
    /// pipeline (precision tag 2 on the wire). Such streams decode
    /// natively to `f32`; the legacy Single tag (1) merely records that
    /// the *source* was f32 while the payload is still the f64 pipeline's.
    pub native_f32: bool,
    pub dims: [usize; 3],
    pub chunk_dims: [usize; 3],
    /// PWE tolerance (PWE mode) or target bits-per-point (BPP mode).
    pub bound_value: f64,
    pub n_chunks: usize,
}

/// Per-chunk table entry.
#[derive(Debug, Clone)]
pub(crate) struct ChunkEntry {
    pub q: f64,
    pub num_planes: u8,
    pub max_n: u8,
    /// Informational (cost accounting by external tools); not needed to
    /// decode.
    #[allow(dead_code)]
    pub num_outliers: u32,
    pub speck_len: usize,
    pub outlier_len: usize,
}

/// One entry of the v3 chunk index: where a chunk's payload lives, which
/// grid cell it covers, and how accurate its decode is. Public so tools
/// ([`crate::StreamInfo`], the CLI `info` command, conformance index
/// CRCs) can inspect the index without re-deriving it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkIndexEntry {
    /// Byte offset of the chunk's payload, relative to the first payload
    /// byte (so the index stays valid under outer lossless re-framing).
    pub offset: u64,
    /// Encoded payload length in bytes (SPECK stream + outlier stream).
    pub len: u32,
    /// Chunk-grid coordinates (x-fastest, matching [`crate::chunk_grid`]).
    pub coords: [u32; 3],
    /// Post-correction max point-wise error of this chunk's decode. Exact
    /// for PWE-mode streams; NaN when the mode doesn't track it (BPP/RMSE).
    pub max_err: f64,
}

impl ChunkIndexEntry {
    /// Deterministic byte serialization (little-endian, NaN via raw bits);
    /// used both by the container writer and by conformance index CRCs.
    pub fn to_bytes(&self) -> [u8; INDEX_ENTRY_BYTES] {
        let mut out = [0u8; INDEX_ENTRY_BYTES];
        out[0..8].copy_from_slice(&self.offset.to_le_bytes());
        out[8..12].copy_from_slice(&self.len.to_le_bytes());
        out[12..16].copy_from_slice(&self.coords[0].to_le_bytes());
        out[16..20].copy_from_slice(&self.coords[1].to_le_bytes());
        out[20..24].copy_from_slice(&self.coords[2].to_le_bytes());
        out[24..32].copy_from_slice(&self.max_err.to_bits().to_le_bytes());
        out
    }
}

/// Everything [`read_container_head`] extracts from a stream.
#[derive(Debug, Clone)]
pub(crate) struct Parsed {
    pub version: u8,
    pub header: Header,
    pub entries: Vec<ChunkEntry>,
    /// Byte offset of the first payload byte.
    pub payload_start: usize,
    /// Per-chunk payload CRC-32s (v2+ streams only).
    pub chunk_crcs: Option<Vec<u32>>,
    /// Chunk index (v3+ streams only), validated against the chunk table.
    pub index: Option<Vec<ChunkIndexEntry>>,
}

fn kernel_tag(k: Kernel) -> u8 {
    match k {
        Kernel::Cdf97 => 0,
        Kernel::Cdf53 => 1,
        Kernel::Haar => 2,
    }
}

fn kernel_from_tag(tag: u8) -> Result<Kernel, CompressError> {
    match tag {
        0 => Ok(Kernel::Cdf97),
        1 => Ok(Kernel::Cdf53),
        2 => Ok(Kernel::Haar),
        _ => Err(CompressError::Corrupt(format!("unknown kernel tag {tag}"))),
    }
}

/// Serializes header + chunk table (+ v3 index, + v2 checksums) +
/// payloads at the requested version: v3 for compression, the source
/// stream's for transcodes, and v2 or v1 for the re-framings
/// [`crate::Sperr::downgrade_to_v2`] and [`crate::Sperr::downgrade_to_v1`]
/// — the only writer of the legacy v1 layout, which every reader must keep
/// accepting.
pub(crate) fn write_container(header: &Header, chunks: &[ChunkEncoding], version: u8) -> Vec<u8> {
    write_container_into(header, chunks, version, Vec::new())
}

/// [`write_container`] in the memory of `buf`, whose contents are dropped.
pub(crate) fn write_container_into(
    header: &Header,
    chunks: &[ChunkEncoding],
    version: u8,
    buf: Vec<u8>,
) -> Vec<u8> {
    debug_assert!((VERSION_V1..=VERSION).contains(&version));
    // Room for the payloads and a head of at most 64 bytes a chunk.
    let payloads = chunks.iter().map(|c| c.speck_stream.len() + c.outlier_stream.len());
    let mut w =
        ByteWriter::reusing(buf, FIXED_HEADER_BYTES + 64 * chunks.len() + payloads.sum::<usize>());
    // Fixed 20-byte header.
    w.put_bytes(MAGIC);
    w.put_u8(version);
    w.put_u8(match header.mode {
        Mode::Pwe => 0,
        Mode::Bpp => 1,
        Mode::Rmse => 2,
    });
    w.put_u8(kernel_tag(header.kernel));
    // Precision byte: 0 = f64 payload from an f64 source, 1 = f64 payload
    // from an f32 source (legacy widen-at-ingest), 2 = f32-native payload.
    w.put_u8(if header.native_f32 {
        2
    } else {
        match header.precision {
            Precision::Double => 0,
            Precision::Single => 1,
        }
    });
    w.put_u32(header.dims[0] as u32);
    w.put_u32(header.dims[1] as u32);
    w.put_u32(header.dims[2] as u32);
    debug_assert_eq!(w.len(), 20);
    // Extended header.
    w.put_f64(header.bound_value);
    w.put_u32(header.chunk_dims[0] as u32);
    w.put_u32(header.chunk_dims[1] as u32);
    w.put_u32(header.chunk_dims[2] as u32);
    w.put_u32(chunks.len() as u32);
    // Chunk table.
    for c in chunks {
        w.put_f64(c.q);
        w.put_u8(c.num_planes);
        w.put_u8(c.max_n);
        w.put_u32(c.num_outliers);
        w.put_u32(c.speck_stream.len() as u32);
        w.put_u32(c.outlier_stream.len() as u32);
    }
    if version >= 3 {
        // Chunk index: offsets are relative to the first payload byte and
        // grid coordinates follow the x-fastest `chunk_grid` order the
        // chunks themselves are stored in.
        let grid = [
            header.dims[0].div_ceil(header.chunk_dims[0]) as u32,
            header.dims[1].div_ceil(header.chunk_dims[1]) as u32,
        ];
        let mut offset = 0u64;
        for (i, c) in chunks.iter().enumerate() {
            let len = (c.speck_stream.len() + c.outlier_stream.len()) as u32;
            let i = i as u32;
            let entry = ChunkIndexEntry {
                offset,
                len,
                coords: [i % grid[0], (i / grid[0]) % grid[1], i / (grid[0] * grid[1])],
                max_err: c.max_err,
            };
            w.put_bytes(&entry.to_bytes());
            offset += len as u64;
        }
    }
    if version >= 2 {
        // One CRC per chunk, over the chunk's concatenated payload bytes
        // (SPECK stream then outlier stream).
        for c in chunks {
            w.put_u32(crc32_of(&[&c.speck_stream, &c.outlier_stream]));
        }
        // Header CRC over every byte written so far (fixed + extended
        // headers, chunk table, v3 index when present, chunk CRCs).
        let header_crc = crc32(w.as_slice());
        w.put_u32(header_crc);
    }
    // Payloads.
    for c in chunks {
        w.put_bytes(&c.speck_stream);
        w.put_bytes(&c.outlier_stream);
    }
    w.into_bytes()
}

/// Bytes of the fixed and extended headers, through the chunk count:
/// what a reader needs before it can say how long the head is.
pub(crate) const FIXED_HEADER_BYTES: usize = 44;

/// Parses and validates the fixed and extended headers (the first
/// [`FIXED_HEADER_BYTES`]) into the format version and the metadata.
fn read_fixed_header(r: &mut ByteReader<'_>) -> Result<(u8, Header), CompressError> {
    if r.get_bytes(4)? != MAGIC {
        return Err(CompressError::Corrupt("bad magic".into()));
    }
    let version = r.get_u8()?;
    if !(VERSION_V1..=VERSION).contains(&version) {
        return Err(CompressError::Unsupported("unsupported container version"));
    }
    let mode = match r.get_u8()? {
        0 => Mode::Pwe,
        1 => Mode::Bpp,
        2 => Mode::Rmse,
        m => return Err(CompressError::Corrupt(format!("unknown mode {m}"))),
    };
    let kernel = kernel_from_tag(r.get_u8()?)?;
    let (precision, native_f32) = match r.get_u8()? {
        0 => (Precision::Double, false),
        1 => (Precision::Single, false),
        2 => (Precision::Single, true),
        p => return Err(CompressError::Corrupt(format!("unknown precision {p}"))),
    };
    let dims = [r.get_u32()? as usize, r.get_u32()? as usize, r.get_u32()? as usize];
    if dims.contains(&0) {
        return Err(CompressError::Corrupt("zero dimension".into()));
    }
    let n_total = dims.iter().fold(1u64, |acc, &d| acc.saturating_mul(d as u64));
    if n_total > MAX_VOLUME_ELEMENTS {
        return Err(CompressError::LimitExceeded(format!(
            "declared volume of {n_total} points exceeds the {MAX_VOLUME_ELEMENTS} limit"
        )));
    }
    let bound_value = r.get_f64()?;
    let chunk_dims = [r.get_u32()? as usize, r.get_u32()? as usize, r.get_u32()? as usize];
    if chunk_dims.contains(&0) {
        return Err(CompressError::Corrupt("zero chunk dimension".into()));
    }
    let n_chunks = r.get_u32()? as usize;
    // Validate the chunk count against the grid the dims imply, without
    // materializing the grid first (a corrupt header must not drive the
    // allocation inside `chunk_grid`).
    let grid_size = dims
        .iter()
        .zip(&chunk_dims)
        .fold(1u64, |acc, (&d, &c)| acc.saturating_mul(d.div_ceil(c) as u64));
    if grid_size > MAX_CHUNKS {
        return Err(CompressError::LimitExceeded(format!(
            "declared chunk grid of {grid_size} chunks exceeds the {MAX_CHUNKS} limit"
        )));
    }
    if n_chunks as u64 != grid_size {
        return Err(CompressError::Corrupt(format!(
            "chunk count {n_chunks} does not match grid {grid_size}"
        )));
    }
    let header =
        Header { mode, kernel, precision, native_f32, dims, chunk_dims, bound_value, n_chunks };
    Ok((version, header))
}

/// Length of a container's head — everything before the first payload
/// byte: headers, chunk table, v3 index, v2+ checksums — read off its
/// first [`FIXED_HEADER_BYTES`]. The chunk count it multiplies has been
/// validated against the grid and [`MAX_CHUNKS`], so the result is sane
/// even though nothing past the prefix has been seen yet.
pub(crate) fn head_len(prefix: &[u8]) -> Result<usize, CompressError> {
    let (version, header) = read_fixed_header(&mut ByteReader::new(prefix))?;
    let per_chunk = CHUNK_ENTRY_BYTES
        + if version >= 3 { INDEX_ENTRY_BYTES } else { 0 }
        + if version >= VERSION_V2 { 4 } else { 0 };
    Ok(FIXED_HEADER_BYTES + header.n_chunks * per_chunk + if version >= VERSION_V2 { 4 } else { 0 })
}

/// Parses a container (v1, v2 or v3) from its head — `head` must reach at
/// least to the first payload byte ([`head_len`]) and may run on past it;
/// `container_len` is the length of the whole container, payloads
/// included, which a reader that fetched only the head still knows.
/// Returns metadata, the chunk table, the payload offset, the v2+
/// checksums and the v3 index when present. For v2+ streams the header
/// CRC is verified here; per-chunk payload CRCs are left to the caller,
/// which may want per-chunk granularity (resilient decode) rather than
/// all-or-nothing failure. The v3 index is cross-checked against the
/// chunk table (offsets must be the cumulative payload lengths,
/// coordinates must walk the grid), so a parsed index can be trusted for
/// seeking.
pub(crate) fn read_container_head(
    head: &[u8],
    container_len: usize,
) -> Result<Parsed, CompressError> {
    let mut r = ByteReader::new(head);
    let (version, header) = read_fixed_header(&mut r)?;
    let Header { dims, chunk_dims, n_chunks, .. } = header;
    // The chunk table must physically fit in the remaining stream before
    // any reservation sized by it.
    if n_chunks.saturating_mul(CHUNK_ENTRY_BYTES) > r.remaining() {
        return Err(CompressError::Truncated("chunk table extends past end of stream".into()));
    }
    let mut entries = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        let q = r.get_f64()?;
        let num_planes = r.get_u8()?;
        let max_n = r.get_u8()?;
        let num_outliers = r.get_u32()?;
        let speck_len = r.get_u32()? as usize;
        let outlier_len = r.get_u32()? as usize;
        if !(q.is_finite() && q > 0.0) {
            return Err(CompressError::Corrupt("invalid quantization step".into()));
        }
        entries.push(ChunkEntry { q, num_planes, max_n, num_outliers, speck_len, outlier_len });
    }
    let index = if version >= 3 {
        if n_chunks.saturating_mul(INDEX_ENTRY_BYTES) > r.remaining() {
            return Err(CompressError::Truncated("chunk index extends past end of stream".into()));
        }
        let grid = [
            dims[0].div_ceil(chunk_dims[0]) as u32,
            dims[1].div_ceil(chunk_dims[1]) as u32,
        ];
        let mut idx = Vec::with_capacity(n_chunks);
        let mut expected_offset = 0u64;
        for (i, e) in entries.iter().enumerate() {
            let offset = r.get_u64()?;
            let len = r.get_u32()?;
            let coords = [r.get_u32()?, r.get_u32()?, r.get_u32()?];
            let max_err = r.get_f64()?;
            // The index duplicates information derivable from the chunk
            // table; require exact agreement so a reader can seek through
            // either without surprises.
            if offset != expected_offset || len as u64 != e.speck_len as u64 + e.outlier_len as u64
            {
                return Err(CompressError::Corrupt(format!(
                    "chunk index entry {i} disagrees with the chunk table"
                )));
            }
            let i32c = i as u32;
            let expect =
                [i32c % grid[0], (i32c / grid[0]) % grid[1], i32c / (grid[0] * grid[1])];
            if coords != expect {
                return Err(CompressError::Corrupt(format!(
                    "chunk index entry {i} has grid coordinates {coords:?}, expected {expect:?}"
                )));
            }
            idx.push(ChunkIndexEntry { offset, len, coords, max_err });
            expected_offset += len as u64;
        }
        Some(idx)
    } else {
        None
    };
    let chunk_crcs = if version >= 2 {
        if n_chunks.saturating_mul(4) + 4 > r.remaining() {
            return Err(CompressError::Truncated("checksum table extends past end of stream".into()));
        }
        let mut crcs = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            crcs.push(r.get_u32()?);
        }
        // Header CRC covers every byte before the CRC field itself.
        let covered = &head[..r.position()];
        let stored = r.get_u32()?;
        if crc32(covered) != stored {
            return Err(CompressError::Corrupt("header checksum mismatch".into()));
        }
        Some(crcs)
    } else {
        None
    };
    let payload_start = r.position();
    let payload_total = entries
        .iter()
        .fold(0u64, |acc, e| acc.saturating_add(e.speck_len as u64 + e.outlier_len as u64));
    if (container_len as u64) < payload_start as u64 + payload_total {
        return Err(CompressError::Truncated("payload section shorter than declared".into()));
    }
    Ok(Parsed {
        version,
        header,
        entries,
        payload_start,
        chunk_crcs,
        index,
    })
}

/// Parses a whole container; see [`read_container_head`]. Reads go
/// through the framing (`outer::Framed::read_head`), which fetches only the
/// head; this parses a container already in hand, for tests.
#[cfg(test)]
pub(crate) fn read_container(bytes: &[u8]) -> Result<Parsed, CompressError> {
    read_container_head(bytes, bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StageTimes;

    fn dummy_chunk(speck: Vec<u8>, outlier: Vec<u8>) -> ChunkEncoding {
        ChunkEncoding {
            speck_bits: speck.len() * 8,
            outlier_bits: outlier.len() * 8,
            speck_stream: speck,
            outlier_stream: outlier,
            q: 0.5,
            num_planes: 7,
            max_n: 3,
            num_outliers: 2,
            times: StageTimes::default(),
            coeff_sq_error: 0.0,
            max_err: 0.125,
        }
    }

    fn dummy_header() -> Header {
        Header {
            mode: Mode::Pwe,
            kernel: Kernel::Cdf97,
            precision: Precision::Double,
            native_f32: false,
            dims: [8, 8, 8],
            chunk_dims: [8, 8, 8],
            bound_value: 0.25,
            n_chunks: 1,
        }
    }

    #[test]
    fn header_is_exactly_20_bytes_before_extension() {
        let bytes = write_container(&dummy_header(), &[dummy_chunk(vec![1, 2, 3], vec![])], VERSION);
        assert_eq!(&bytes[..4], MAGIC);
        // dims start at offset 8, occupy 12 bytes -> fixed header = 20.
        let parsed = read_container(&bytes).unwrap();
        assert_eq!(parsed.version, VERSION);
        assert_eq!(parsed.header.dims, [8, 8, 8]);
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(&bytes[parsed.payload_start..parsed.payload_start + 3], &[1, 2, 3]);
    }

    #[test]
    fn roundtrip_multiple_chunks() {
        let header = Header {
            mode: Mode::Bpp,
            kernel: Kernel::Cdf53,
            precision: Precision::Single,
            native_f32: false,
            dims: [20, 8, 8],
            chunk_dims: [10, 8, 8],
            bound_value: 2.0,
            n_chunks: 2,
        };
        let chunks = vec![dummy_chunk(vec![9; 5], vec![7; 2]), dummy_chunk(vec![1; 3], vec![])];
        let bytes = write_container(&header, &chunks, VERSION);
        let parsed = read_container(&bytes).unwrap();
        assert_eq!(parsed.header.mode, Mode::Bpp);
        assert_eq!(parsed.header.kernel, Kernel::Cdf53);
        assert_eq!(parsed.header.precision, Precision::Single);
        assert_eq!(parsed.entries[0].speck_len, 5);
        assert_eq!(parsed.entries[0].outlier_len, 2);
        assert_eq!(parsed.entries[1].speck_len, 3);
        let payload = &bytes[parsed.payload_start..];
        assert_eq!(payload, &[9, 9, 9, 9, 9, 7, 7, 1, 1, 1]);
        // v2 checksums are present and match the payloads.
        let crcs = parsed.chunk_crcs.unwrap();
        assert_eq!(crcs.len(), 2);
        assert_eq!(crcs[0], crc32(&[9, 9, 9, 9, 9, 7, 7]));
        assert_eq!(crcs[1], crc32(&[1, 1, 1]));
        // v3 index carries cumulative offsets, lengths, grid coordinates
        // (two chunks along x) and the per-chunk max error.
        let index = parsed.index.unwrap();
        assert_eq!(
            index,
            vec![
                ChunkIndexEntry { offset: 0, len: 7, coords: [0, 0, 0], max_err: 0.125 },
                ChunkIndexEntry { offset: 7, len: 3, coords: [1, 0, 0], max_err: 0.125 },
            ]
        );
    }

    #[test]
    fn native_f32_precision_tag_roundtrips() {
        // Tag 2 on the wire: precision parses as Single with native_f32
        // set; legacy tags 0/1 keep native_f32 clear. Byte 7 is the
        // precision byte in the fixed header.
        let header = Header { native_f32: true, precision: Precision::Single, ..dummy_header() };
        let bytes = write_container(&header, &[dummy_chunk(vec![1, 2, 3], vec![])], VERSION);
        assert_eq!(bytes[7], 2);
        let parsed = read_container(&bytes).unwrap();
        assert_eq!(parsed.header.precision, Precision::Single);
        assert!(parsed.header.native_f32);
        let legacy = write_container(&dummy_header(), &[dummy_chunk(vec![1], vec![])], VERSION);
        assert_eq!(legacy[7], 0);
        assert!(!read_container(&legacy).unwrap().header.native_f32);
    }

    #[test]
    fn v1_stream_still_parses_without_checksums() {
        let chunks = [dummy_chunk(vec![1, 2, 3], vec![4])];
        let bytes = write_container(&dummy_header(), &chunks, VERSION_V1);
        let parsed = read_container(&bytes).unwrap();
        assert_eq!(parsed.version, VERSION_V1);
        assert!(parsed.chunk_crcs.is_none());
        assert!(parsed.index.is_none());
        assert_eq!(parsed.entries[0].speck_len, 3);
        assert_eq!(&bytes[parsed.payload_start..], &[1, 2, 3, 4]);
    }

    #[test]
    fn v2_is_v1_plus_checksum_block() {
        // The two layouts agree byte-for-byte up to the checksum block
        // (modulo the version byte), so v1 readers of the future could at
        // worst skip checksums, and sizes differ by exactly 4(n+1) bytes.
        let chunks = vec![dummy_chunk(vec![1, 2, 3], vec![4])];
        let v1 = write_container(&dummy_header(), &chunks, VERSION_V1);
        let v2 = write_container(&dummy_header(), &chunks, VERSION_V2);
        assert_eq!(v2.len(), v1.len() + 4 * (chunks.len() + 1));
        let table_end = 20 + 24 + CHUNK_ENTRY_BYTES * chunks.len();
        assert_eq!(v1[5..table_end], v2[5..table_end]);
        let parsed = read_container(&v2).unwrap();
        assert!(parsed.chunk_crcs.is_some());
        assert!(parsed.index.is_none());
    }

    #[test]
    fn v3_is_v2_plus_index_block() {
        // v3 inserts exactly one index entry per chunk between the chunk
        // table and the checksum block; everything before the index is
        // byte-identical to v2 (modulo the version byte), and the final
        // header CRC differs because it also covers the index.
        let chunks = vec![dummy_chunk(vec![1, 2, 3], vec![4]), dummy_chunk(vec![5; 6], vec![])];
        let header = Header { dims: [16, 8, 8], chunk_dims: [8, 8, 8], n_chunks: 2, ..dummy_header() };
        let v2 = write_container(&header, &chunks, VERSION_V2);
        let v3 = write_container(&header, &chunks, VERSION);
        assert_eq!(v3.len(), v2.len() + INDEX_ENTRY_BYTES * chunks.len());
        let table_end = 20 + 24 + CHUNK_ENTRY_BYTES * chunks.len();
        assert_eq!(v2[5..table_end], v3[5..table_end]);
        let parsed = read_container(&v3).unwrap();
        assert_eq!(parsed.version, VERSION);
        let index = parsed.index.unwrap();
        assert_eq!(index.len(), 2);
        assert_eq!(index[0].offset, 0);
        assert_eq!(index[0].len, 4);
        assert_eq!(index[1].offset, 4);
        assert_eq!(index[1].len, 6);
        assert_eq!(index[0].coords, [0, 0, 0]);
        assert_eq!(index[1].coords, [1, 0, 0]);
        // Payloads land identically in both versions.
        let parsed_v2 = read_container(&v2).unwrap();
        assert_eq!(v2[parsed_v2.payload_start..], v3[parsed.payload_start..]);
    }

    #[test]
    fn header_checksum_detects_any_header_byte_flip() {
        // v3: the protected region includes the chunk index, so any index
        // flip must also be rejected (either by the CRC or by the
        // index-vs-table consistency check).
        let bytes = write_container(&dummy_header(), &[dummy_chunk(vec![1, 2, 3], vec![])], VERSION);
        let parsed = read_container(&bytes).unwrap();
        // Flip each byte of the protected region (skipping none): every
        // mutation must be rejected, never panic.
        for i in 0..parsed.payload_start {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            assert!(read_container(&bad).is_err(), "header flip at byte {i} accepted");
        }
    }

    #[test]
    fn index_inconsistent_with_table_rejected() {
        // A v1-style hand-poke can't exercise this (v2+ header CRC fires
        // first), so corrupt the index *and* refresh the trailing CRC to
        // prove the structural cross-check stands on its own.
        let chunks = vec![dummy_chunk(vec![1, 2, 3], vec![4]), dummy_chunk(vec![5; 6], vec![])];
        let header = Header { dims: [16, 8, 8], chunk_dims: [8, 8, 8], n_chunks: 2, ..dummy_header() };
        let good = write_container(&header, &chunks, VERSION);
        let index_start = 20 + 24 + CHUNK_ENTRY_BYTES * chunks.len();
        let crc_pos = good.len() - (4 + 6) - 4; // payload bytes + header CRC
        for poke in [index_start, index_start + 8, index_start + 12] {
            let mut bad = good.clone();
            bad[poke] ^= 0x01;
            let crc = crc32(&bad[..crc_pos]);
            bad[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
            match read_container(&bad) {
                Err(CompressError::Corrupt(msg)) => {
                    assert!(msg.contains("chunk index"), "unexpected error: {msg}")
                }
                other => panic!("index poke at {poke} not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_inputs_rejected() {
        let good = write_container(&dummy_header(), &[dummy_chunk(vec![1, 2, 3], vec![])], VERSION);
        // magic
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(read_container(&bad).is_err());
        // version
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(read_container(&bad), Err(CompressError::Unsupported(_))));
        // truncated payload
        let bad = &good[..good.len() - 2];
        assert!(read_container(bad).is_err());
        // zero dim
        let mut bad = good.clone();
        bad[8..12].fill(0);
        assert!(read_container(&bad).is_err());
    }

    #[test]
    fn absurd_headers_hit_limits_not_allocations() {
        // Craft a v1 stream (no header CRC to fix up) with huge dims.
        let chunks = [dummy_chunk(vec![1, 2, 3], vec![])];
        let good = write_container(&dummy_header(), &chunks, VERSION_V1);
        // Volume limit: dims -> u32::MAX on every axis.
        let mut bad = good.clone();
        bad[8..20].fill(0xFF);
        assert!(matches!(read_container(&bad), Err(CompressError::LimitExceeded(_))));
        // Chunk-grid limit: big volume, 1x1x1 chunks.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&4096u32.to_le_bytes());
        bad[12..16].copy_from_slice(&4096u32.to_le_bytes());
        bad[16..20].copy_from_slice(&64u32.to_le_bytes());
        bad[28..32].copy_from_slice(&1u32.to_le_bytes());
        bad[32..36].copy_from_slice(&1u32.to_le_bytes());
        bad[36..40].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(read_container(&bad), Err(CompressError::LimitExceeded(_))));
    }
}
