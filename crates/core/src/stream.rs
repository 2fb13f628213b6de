//! Streaming compress/decompress over `Read`/`Write` endpoints, with raw
//! memory bounded by an in-flight chunk budget instead of the volume.
//!
//! Chunks are independent (§III-D), so every driver in this crate picks
//! some chunks, maps them over the [`WorkerPool`] and folds the results in
//! chunk order. A raw volume streams x-fastest, so here the chunks picked
//! are a **batch** of `max(1, budget / layer)` whole z-layers of the chunk
//! grid, and each direction is one loop over the batches:
//!
//! * compress: the caller appends a batch's z-planes to one slab (reused
//!   across batches), and `CompressRun::encode_batch` — the chunk loop the
//!   in-memory driver runs with the whole field as its slab — encodes the
//!   batch's chunks, each coder reading its rows straight from the slab;
//!   after the last batch the container is sealed and emitted as in
//!   memory.
//! * decompress: `Opened::run_on`, the executor of every in-memory read,
//!   decodes a batch, and the caller writes its z-planes out row by row.
//!
//! At most `budget` chunks' worth of samples are in flight, never fewer
//! than one layer (a row-major stream completes no chunk before its whole
//! layer). Compressed payloads still accumulate until the container
//! header, which precedes them, can be written.
//!
//! **Failures** are typed [`SperrError`]s, never an unwind. Every job of a
//! batch runs to completion; the call then stops at the first failing
//! chunk of the first failing batch. A refused non-finite sample is named
//! by the lowest linear index of the batch — of the volume, batches being
//! z-ordered slabs — as in memory. The pool is idle between batches, so
//! nothing is in flight when the call returns.

use std::io::{Read, Write};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::chunk::{chunk_grid, ChunkSpec};
use crate::compressor::Sperr;
use crate::decode::{DecodeArenas, Opened, Samples, TaskResult};
use crate::faultpoint;
use crate::pipeline::ScratchArena;
use crate::pool::{panic_payload_message, WorkerPool};
use crate::stats::{metric_labels, CompressionStats};
use crate::ChunkStatus;
use sperr_compress_api::{Bound, CompressError, Precision};
use sperr_simd::Float;

/// Stage labels specific to the streaming drivers (the per-chunk codec
/// stages reuse [`stage_labels`](crate::stage_labels)).
pub const STAGE_INGEST: &str = "stream.ingest";
/// See [`STAGE_INGEST`].
pub const STAGE_EMIT: &str = "stream.emit";
/// See [`STAGE_INGEST`].
pub const STAGE_CONTAINER: &str = "stream.container";

/// Typed error for the streaming pipeline. Every failure mode of
/// [`Sperr::compress_stream`] / [`Sperr::decompress_stream`] surfaces as
/// one of these — never a panic, never a hang.
#[derive(Debug, Clone, PartialEq)]
pub enum SperrError {
    /// A codec-level failure (corrupt/truncated/limit-violating stream,
    /// invalid parameters).
    Codec {
        /// Pipeline stage that raised the error.
        stage: &'static str,
        /// Chunk index, when the failure is attributable to one chunk.
        chunk: Option<usize>,
        /// The underlying typed codec error.
        source: CompressError,
    },
    /// A `Read`/`Write` endpoint failed.
    Io {
        /// Pipeline stage performing the I/O (`stream.ingest` or
        /// `stream.emit`).
        stage: &'static str,
        /// Chunk index, when attributable.
        chunk: Option<usize>,
        /// The I/O error kind, preserved for caller dispatch (e.g. the
        /// CLI's exit-code mapping).
        kind: std::io::ErrorKind,
        /// The error's display text.
        message: String,
    },
    /// A worker panicked; the pipeline cancelled deterministically and
    /// captured the payload.
    Panic {
        /// Last stage label the panicking thread entered.
        stage: &'static str,
        /// Chunk index being processed, when known.
        chunk: Option<usize>,
        /// The captured panic message.
        message: String,
    },
}

impl SperrError {
    fn io(stage: &'static str, chunk: Option<usize>, e: &std::io::Error) -> Self {
        SperrError::Io { stage, chunk, kind: e.kind(), message: e.to_string() }
    }

    /// A caught panic, attributed to the last stage the panicking thread
    /// entered.
    fn caught(chunk: Option<usize>, payload: &(dyn std::any::Any + Send)) -> Self {
        SperrError::Panic {
            stage: faultpoint::last_stage(),
            chunk,
            message: panic_payload_message(payload),
        }
    }
}

impl std::fmt::Display for SperrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let chunk = |c: &Option<usize>| match c {
            Some(i) => format!(" (chunk {i})"),
            None => String::new(),
        };
        match self {
            SperrError::Codec { stage, chunk: c, source } => {
                write!(f, "[{stage}{}] {source}", chunk(c))
            }
            SperrError::Io { stage, chunk: c, kind, message } => {
                write!(f, "[{stage}{}] i/o error ({kind:?}): {message}", chunk(c))
            }
            SperrError::Panic { stage, chunk: c, message } => {
                write!(f, "[{stage}{}] worker panicked: {message}", chunk(c))
            }
        }
    }
}

impl std::error::Error for SperrError {}

/// Outcome accounting for one streaming run.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Raw bytes consumed from the reader.
    pub bytes_in: u64,
    /// Bytes written to the writer.
    pub bytes_out: u64,
    /// Chunks processed.
    pub n_chunks: usize,
    /// The effective in-flight chunk budget the run enforced (config
    /// value clamped up to one chunk layer; see
    /// [`SperrConfig::in_flight_chunks`](crate::SperrConfig)).
    pub in_flight_budget: usize,
    /// Highest number of chunks simultaneously in flight —
    /// always `≤ in_flight_budget`; the bounded-memory tests assert on
    /// this.
    pub peak_in_flight: usize,
    /// Codec statistics (same accounting as the non-streaming path).
    pub stats: CompressionStats,
}

/// Report of a resilient streaming decompression: the usual accounting
/// plus one [`ChunkStatus`] per chunk, in chunk order.
#[derive(Debug, Clone)]
pub struct StreamResilientReport {
    /// Run accounting.
    pub report: StreamReport,
    /// Per-chunk outcome, in chunk-grid order.
    pub statuses: Vec<ChunkStatus>,
}

impl StreamResilientReport {
    /// True when every chunk decoded cleanly.
    pub fn all_ok(&self) -> bool {
        self.statuses.iter().all(|s| matches!(s, ChunkStatus::Ok))
    }
}

/// The chunk grid as the streaming drivers see it: a raw volume streams
/// x-fastest, so chunks arrive (and leave) in z-layers.
struct LayerGeometry {
    /// Chunks side by side in x.
    nx: usize,
    /// Chunks per z-layer.
    layer_len: usize,
    /// Chunks in the grid.
    n_chunks: usize,
}

impl LayerGeometry {
    fn new(dims: [usize; 3], chunk_dims: [usize; 3]) -> Self {
        let [nx, ny, nz] = [0, 1, 2].map(|d| dims[d].div_ceil(chunk_dims[d]));
        LayerGeometry { nx, layer_len: nx * ny, n_chunks: nx * ny * nz }
    }

    /// The batches the drivers work in, in z order: the grid indices of as
    /// many whole layers as `budget` chunks hold, at least one.
    fn batches(&self, budget: usize) -> impl Iterator<Item = Range<usize>> {
        let (step, n) = ((budget / self.layer_len).max(1) * self.layer_len, self.n_chunks);
        (0..n).step_by(step).map(move |first| first..(first + step).min(n))
    }
}

/// Reads raw little-endian scalars row by row, converting to the
/// pipeline's sample type `T` exactly like the CLI's file reader (so
/// streaming output is byte-identical to the file path). The `f64`
/// pipeline widens Single wire data (the legacy ingest); the `f32`
/// pipeline reads Single wire data natively (the f32→f64→f32 hop in
/// `from_f64` is exact).
struct ScalarReader<R: Read, T: Float = f64> {
    inner: R,
    precision: Precision,
    row_bytes: Vec<u8>,
    row: Vec<T>,
    bytes_in: u64,
}

impl<R: Read, T: Float> ScalarReader<R, T> {
    fn new(inner: R, precision: Precision, row_len: usize) -> Self {
        let scalar = match precision {
            Precision::Single => 4,
            Precision::Double => 8,
        };
        ScalarReader {
            inner,
            precision,
            row_bytes: vec![0u8; row_len * scalar],
            row: vec![T::ZERO; row_len],
            bytes_in: 0,
        }
    }

    /// Reads one x-row of scalars; short reads surface as
    /// `ErrorKind::UnexpectedEof`.
    fn read_row(&mut self) -> Result<&[T], SperrError> {
        self.inner
            .read_exact(&mut self.row_bytes)
            .map_err(|e| SperrError::io(STAGE_INGEST, None, &e))?;
        self.bytes_in += self.row_bytes.len() as u64;
        match self.precision {
            Precision::Single => {
                for (dst, src) in self.row.iter_mut().zip(self.row_bytes.chunks_exact(4)) {
                    *dst =
                        T::from_f64(f32::from_le_bytes([src[0], src[1], src[2], src[3]]) as f64);
                }
            }
            Precision::Double => {
                for (dst, src) in self.row.iter_mut().zip(self.row_bytes.chunks_exact(8)) {
                    *dst = T::from_f64(f64::from_le_bytes([
                        src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7],
                    ]));
                }
            }
        }
        Ok(&self.row)
    }
}

/// Writes `f64` rows as raw little-endian scalars, matching the CLI's
/// file writer byte for byte.
struct ScalarWriter<W: Write> {
    inner: W,
    precision: Precision,
    buf: Vec<u8>,
    bytes_out: u64,
}

impl<W: Write> ScalarWriter<W> {
    fn new(inner: W, precision: Precision) -> Self {
        ScalarWriter { inner, precision, buf: Vec::new(), bytes_out: 0 }
    }

    fn write_row(&mut self, row: &[f64]) -> Result<(), SperrError> {
        self.buf.clear();
        let precision = self.precision;
        for &v in row {
            match precision {
                Precision::Single => self.buf.extend_from_slice(&(v as f32).to_le_bytes()),
                Precision::Double => self.buf.extend_from_slice(&v.to_le_bytes()),
            }
        }
        self.inner
            .write_all(&self.buf)
            .map_err(|e| SperrError::io(STAGE_EMIT, None, &e))?;
        self.bytes_out += self.buf.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), SperrError> {
        self.inner.flush().map_err(|e| SperrError::io(STAGE_EMIT, None, &e))
    }
}

/// Reads the z-planes of the chunks `specs` (whole layers of a `dims`
/// volume) into `slab`, replacing what it held: the slab the batch's chunk
/// coders read their rows from.
fn ingest_planes<R: Read, T: Float>(
    rd: &mut ScalarReader<R, T>,
    dims: [usize; 3],
    specs: &[ChunkSpec],
    slab: &mut Vec<T>,
) -> Result<(), SperrError> {
    let planes = specs.last().map_or(0, |last| last.offset[2] + last.dims[2] - specs[0].offset[2]);
    slab.clear();
    slab.reserve_exact(planes * dims[0] * dims[1]);
    for _ in 0..planes {
        faultpoint::stage(STAGE_INGEST);
        for _ in 0..dims[1] {
            slab.extend_from_slice(rd.read_row()?);
        }
    }
    Ok(())
}

/// Writes the z-planes of a batch row by row from `chunks`, one decoded
/// chunk per chunk of `specs` (whole layers of the chunk grid, in grid
/// order). f32-native chunks widen exactly on the way into the row, and a
/// Single output narrows them back losslessly.
fn emit_layers<W: Write>(
    wr: &mut ScalarWriter<W>,
    geo: &LayerGeometry,
    specs: &[ChunkSpec],
    chunks: &[Samples],
    row: &mut [f64],
) -> Result<(), SperrError> {
    for (layer, layer_chunks) in specs.chunks(geo.layer_len).zip(chunks.chunks(geo.layer_len)) {
        let [_, _, z_lo] = layer[0].offset;
        for z in z_lo..z_lo + layer[0].dims[2] {
            faultpoint::stage(STAGE_EMIT);
            // One run of `nx` chunks side by side in x per chunk row.
            for (run, run_chunks) in layer.chunks(geo.nx).zip(layer_chunks.chunks(geo.nx)) {
                let [_, y_lo, _] = run[0].offset;
                for y in y_lo..y_lo + run[0].dims[1] {
                    for (chunk, spec) in run_chunks.iter().zip(run) {
                        let src_lo = [0, y - y_lo, z - z_lo];
                        let (extent, row_dims) = ([spec.dims[0], 1, 1], [row.len(), 1, 1]);
                        let dst_lo = [spec.offset[0], 0, 0];
                        chunk.copy_box(spec.dims, src_lo, extent, row, row_dims, dst_lo);
                    }
                    wr.write_row(row)?;
                }
            }
        }
    }
    Ok(())
}

/// Runs `body`, turning an unwind out of it into the typed [`SperrError::Panic`]
/// for `chunk`: nothing unwinds out of the streaming API, from any thread.
fn guarded<R>(
    chunk: Option<usize>,
    body: impl FnOnce() -> Result<R, SperrError>,
) -> Result<R, SperrError> {
    catch_unwind(AssertUnwindSafe(body))
        .unwrap_or_else(|p| Err(SperrError::caught(chunk, p.as_ref())))
}

impl Sperr {
    /// Resolved in-flight chunk budget: the configured value (0 = auto,
    /// 2 × worker threads), clamped up to one chunk layer — a row-major
    /// stream cannot complete any chunk without buffering its whole
    /// z-layer.
    fn resolve_budget(&self, threads: usize, layer_len: usize) -> usize {
        let configured = match self.config().in_flight_chunks {
            0 => 2 * threads,
            n => n,
        };
        configured.max(layer_len)
    }

    /// Streaming compression: reads `dims[0]·dims[1]·dims[2]` raw
    /// little-endian scalars (f32 or f64 per `precision`, x fastest) from
    /// `reader` and writes a SPERR stream to `writer`. Output is
    /// byte-identical to [`Sperr::compress`] on the same data; peak
    /// raw-data memory is bounded by the in-flight chunk budget (times
    /// chunk size) rather than the volume size.
    ///
    /// PSNR bounds are rejected: they require full-volume statistics
    /// (the data range) that a single pass cannot provide.
    pub fn compress_stream<R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        dims: [usize; 3],
        precision: Precision,
        bound: Bound,
    ) -> Result<StreamReport, SperrError> {
        // Outer guard: a panic anywhere on the caller thread (ingest,
        // container assembly, emit) still surfaces as a typed error.
        guarded(None, || {
            self.compress_stream_inner::<f64, R, W>(reader, writer, dims, precision, bound)
        })
    }

    /// Streaming compression through the f32-native pipeline: reads raw
    /// little-endian `f32` scalars (x fastest) from `reader` and writes an
    /// f32-native SPERR stream (precision tag 2), byte-identical to
    /// [`Sperr::compress_f32`] on the same data. Contrast with
    /// [`Sperr::compress_stream`] at `Precision::Single`, which keeps the
    /// legacy behavior of widening f32 input into the f64 pipeline.
    pub fn compress_stream_f32<R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        dims: [usize; 3],
        bound: Bound,
    ) -> Result<StreamReport, SperrError> {
        // Outer guard: see `compress_stream`.
        guarded(None, || {
            self.compress_stream_inner::<f32, R, W>(reader, writer, dims, Precision::Single, bound)
        })
    }

    fn compress_stream_inner<T: Float, R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        dims: [usize; 3],
        precision: Precision,
        bound: Bound,
    ) -> Result<StreamReport, SperrError> {
        let rejected =
            |source| SperrError::Codec { stage: STAGE_INGEST, chunk: None, source };
        if dims.iter().any(|&d| d == 0) {
            return Err(rejected(CompressError::Invalid("empty field".into())));
        }
        if let Bound::Psnr(_) = bound {
            return Err(rejected(CompressError::Unsupported(
                "PSNR-bounded compression needs the full-volume data range; \
                 unavailable in single-pass streaming",
            )));
        }
        let run = self.compress_run(bound, dims).map_err(rejected)?;
        let _run = sperr_telemetry::span!("sperr.compress_stream", dims.iter().product::<usize>());
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_COMPRESS_STREAM);

        let grid = chunk_grid(dims, self.config().chunk_dims);
        let geo = LayerGeometry::new(dims, self.config().chunk_dims);
        let threads = self.effective_threads(&grid);
        let budget = self.resolve_budget(threads, geo.layer_len);
        sperr_telemetry::record_units(metric_labels::STREAM_IN_FLIGHT_BUDGET, budget as u64);
        let mut rd = ScalarReader::<R, T>::new(reader, precision, dims[0]);

        // One pool for the whole call: the batches, then the blocks of the
        // lossless pass over the assembled container.
        WorkerPool::scoped(threads, |pool| {
            let (mut slab, mut scratch) = (Vec::new(), Vec::new());
            let mut encoded = Vec::with_capacity(grid.len());
            let mut peak_in_flight = 0;
            for chunks in geo.batches(budget) {
                let specs = &grid[chunks.clone()];
                ingest_planes(&mut rd, dims, specs, &mut slab)?;
                peak_in_flight = peak_in_flight.max(specs.len());
                sperr_telemetry::record_units(metric_labels::STREAM_IN_FLIGHT, specs.len() as u64);
                encoded.extend(run.encode_batch(
                    specs,
                    &slab,
                    pool,
                    &mut scratch,
                    |j, encode| guarded(Some(chunks.start + j), || Ok(encode())),
                    |j, refusal| {
                        let chunk = chunks.start + j;
                        let source = refusal.into_error(chunk);
                        SperrError::Codec { stage: STAGE_INGEST, chunk: Some(chunk), source }
                    },
                )?);
            }
            scratch.iter().for_each(ScratchArena::record_footprint);

            // Every chunk encoded: seal and emit the container exactly like
            // the in-memory driver.
            faultpoint::stage(STAGE_CONTAINER);
            let sealed = run.seal_container::<T>(precision, &encoded, pool);
            let (out, stats) = sealed.map_err(|(chunk, source)| {
                SperrError::Codec { stage: STAGE_CONTAINER, chunk: Some(chunk), source }
            })?;

            faultpoint::stage(STAGE_EMIT);
            let mut writer = writer;
            let written = writer.write_all(&out).and_then(|()| writer.flush());
            written.map_err(|e| SperrError::io(STAGE_EMIT, None, &e))?;
            Ok(StreamReport {
                bytes_in: rd.bytes_in,
                bytes_out: out.len() as u64,
                n_chunks: grid.len(),
                in_flight_budget: budget,
                peak_in_flight,
                stats,
            })
        })
    }

    /// Streaming strict decompression: reads a SPERR stream from `reader`
    /// and writes the raw little-endian scalar volume (x fastest) to
    /// `writer`, in `out_precision` (or the stream's recorded precision
    /// when `None`). Any chunk failure (checksum mismatch, decode error)
    /// fails the whole run with a typed error; see
    /// [`Sperr::decompress_stream_resilient`] for the
    /// salvage-what-you-can variant. Decoded chunks held in memory are
    /// bounded by the in-flight budget.
    pub fn decompress_stream<R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        out_precision: Option<Precision>,
    ) -> Result<StreamReport, SperrError> {
        // Outer guard: see `compress_stream`.
        guarded(None, || self.decompress_stream_inner(reader, writer, out_precision, false))
            .map(|r| r.report)
    }

    /// Streaming resilient decompression: like
    /// [`Sperr::decompress_stream`], but a corrupt chunk yields its
    /// [`ChunkStatus`] and a neutral zero-filled region while the stream
    /// continues — the streaming form of [`Sperr::read`] under
    /// [`crate::OnDamage::ZeroFill`].
    pub fn decompress_stream_resilient<R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        out_precision: Option<Precision>,
    ) -> Result<StreamResilientReport, SperrError> {
        guarded(None, || self.decompress_stream_inner(reader, writer, out_precision, true))
    }

    fn decompress_stream_inner<R: Read, W: Write>(
        &self,
        mut reader: R,
        writer: W,
        out_precision: Option<Precision>,
        resilient: bool,
    ) -> Result<StreamResilientReport, SperrError> {
        // The container's head precedes the payloads and the lossless pass
        // spans everything, so the compressed input is held whole; what
        // stays bounded is the *decoded* side.
        let mut stream = Vec::new();
        faultpoint::stage(STAGE_INGEST);
        reader
            .read_to_end(&mut stream)
            .map_err(|e| SperrError::io(STAGE_INGEST, None, &e))?;
        let bytes_in = stream.len() as u64;
        let _run = sperr_telemetry::span!("sperr.decompress_stream", stream.len());
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_DECOMPRESS_STREAM);

        // Strict mode verifies every payload checksum before anything is
        // decoded or emitted; resilient mode leaves them to the tasks.
        faultpoint::stage(STAGE_CONTAINER);
        let opened = if resilient { Opened::whole(&stream) } else { Opened::strict(&stream) }
            .map_err(|source| SperrError::Codec { stage: STAGE_CONTAINER, chunk: None, source })?;
        let (header, grid) = (&opened.header, &opened.grid);
        let tasks = opened.all_tasks();
        let geo = LayerGeometry::new(header.dims, header.chunk_dims);
        let threads = self.effective_threads(grid);
        let budget = self.resolve_budget(threads, geo.layer_len);
        sperr_telemetry::record_units(metric_labels::STREAM_IN_FLIGHT_BUDGET, budget as u64);

        // Chunk i's outcome, settled on the worker that decoded it (a strict
        // failure names that thread's stage): a failed chunk is zero-filled
        // when resilient and fails the run when strict.
        let settle = |i: usize, (data, status, times): TaskResult| match status.to_result(i) {
            Ok(()) => Ok((data, status, times)),
            Err(_) if resilient => Ok((Samples::Wide(vec![0.0; grid[i].len()]), status, times)),
            Err(source) => {
                Err(SperrError::Codec { stage: faultpoint::last_stage(), chunk: Some(i), source })
            }
        };

        let mut wr = ScalarWriter::new(writer, out_precision.unwrap_or(header.precision));
        let mut statuses: Vec<ChunkStatus> = Vec::with_capacity(grid.len());
        let mut stats = CompressionStats {
            num_points: header.dims.iter().product(),
            num_chunks: grid.len(),
            container_bytes: opened.container_len,
            output_bytes: stream.len(),
            ..CompressionStats::default()
        };
        let mut row = vec![0.0f64; header.dims[0]];
        let mut peak_in_flight = 0;
        WorkerPool::scoped(threads, |pool| {
            let mut arenas = Vec::new();
            for chunks in geo.batches(budget) {
                let results = opened.run_on(pool, &tasks[chunks.clone()], &mut arenas, |j, decode| {
                    guarded(Some(chunks.start + j), || settle(chunks.start + j, decode()))
                });
                let mut decoded = Vec::with_capacity(chunks.len());
                for result in results {
                    let (data, status, times) = result?;
                    stats.stage_times.accumulate(&times);
                    statuses.push(status);
                    decoded.push(data);
                }
                peak_in_flight = peak_in_flight.max(decoded.len());
                sperr_telemetry::record_units(metric_labels::STREAM_IN_FLIGHT, decoded.len() as u64);
                emit_layers(&mut wr, &geo, &grid[chunks], &decoded, &mut row)?;
            }
            arenas.iter().for_each(DecodeArenas::record_footprint);
            Ok::<(), SperrError>(())
        })?;

        wr.flush()?;
        Ok(StreamResilientReport {
            report: StreamReport {
                bytes_in,
                bytes_out: wr.bytes_out,
                n_chunks: grid.len(),
                in_flight_budget: budget,
                peak_in_flight,
                stats,
            },
            statuses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SperrConfig;
    use sperr_compress_api::{Field, LossyCompressor};

    fn wavy(dims: [usize; 3]) -> Field {
        Field::from_fn(dims, |x, y, z| {
            (x as f64 * 0.29).sin() * 30.0
                + (y as f64 * 0.15).cos() * 12.0
                + ((x * z) as f64 * 0.013).sin() * 5.0
                + z as f64 * 0.4
        })
    }

    fn raw_bytes(field: &Field, precision: Precision) -> Vec<u8> {
        let mut out = Vec::new();
        for &v in &field.data {
            match precision {
                Precision::Single => out.extend_from_slice(&(v as f32).to_le_bytes()),
                Precision::Double => out.extend_from_slice(&v.to_le_bytes()),
            }
        }
        out
    }

    fn cfg(threads: usize) -> SperrConfig {
        SperrConfig {
            chunk_dims: [16, 16, 16],
            num_threads: threads,
            ..SperrConfig::default()
        }
    }

    #[test]
    fn stream_compress_matches_in_memory_across_threads() {
        // Non-divisible dims: boundary chunks on every axis, 2 z-layers.
        let dims = [40usize, 28, 20];
        let field = wavy(dims);
        for precision in [Precision::Double, Precision::Single] {
            let raw = raw_bytes(&field, precision);
            // The in-memory reference must see exactly the f64 values the
            // stream reader reconstructs (f32 roundtrip for Single).
            let mut ref_field = field.clone().with_precision(precision);
            if precision == Precision::Single {
                for v in &mut ref_field.data {
                    *v = *v as f32 as f64;
                }
            }
            for bound in [Bound::Pwe(1e-3), Bound::Bpp(2.0)] {
                let reference = Sperr::new(cfg(1)).compress(&ref_field, bound).unwrap();
                for threads in [1usize, 2, 4, 8] {
                    let sperr = Sperr::new(cfg(threads));
                    let mut out = Vec::new();
                    let report = sperr
                        .compress_stream(&raw[..], &mut out, dims, precision, bound)
                        .unwrap();
                    assert_eq!(out, reference, "threads={threads} {bound:?} {precision:?}");
                    assert_eq!(report.bytes_in, raw.len() as u64);
                    assert_eq!(report.bytes_out, out.len() as u64);
                    assert!(report.peak_in_flight <= report.in_flight_budget);
                }
            }
        }
    }

    #[test]
    fn stream_decompress_matches_in_memory() {
        let dims = [40usize, 28, 20];
        let field = wavy(dims);
        let sperr = Sperr::new(cfg(4));
        let stream = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let decoded = sperr.decompress(&stream).unwrap();
        let want = raw_bytes(&decoded, decoded.precision);
        for threads in [1usize, 2, 4, 8] {
            let mut out = Vec::new();
            let report = Sperr::new(cfg(threads))
                .decompress_stream(&stream[..], &mut out, None)
                .unwrap();
            assert_eq!(out, want, "threads={threads}");
            assert!(report.peak_in_flight <= report.in_flight_budget);
            assert_eq!(report.n_chunks, 3 * 2 * 2);
        }
    }

    #[test]
    fn stream_f32_compress_matches_in_memory_across_threads() {
        // compress_stream_f32 must produce the exact bytes of the
        // in-memory f32-native path, at every thread count.
        let dims = [40usize, 28, 20];
        let field = wavy(dims);
        let f32_field = field.narrow_lossy();
        let raw: Vec<u8> =
            f32_field.data.iter().flat_map(|v| v.to_le_bytes()).collect();
        for bound in [Bound::Pwe(1e-3), Bound::Bpp(2.0)] {
            let reference = Sperr::new(cfg(1)).compress_f32(&f32_field, bound).unwrap();
            assert!(Sperr::new(cfg(1)).inspect(&reference).unwrap().native_f32);
            for threads in [1usize, 2, 4, 8] {
                let sperr = Sperr::new(cfg(threads));
                let mut out = Vec::new();
                let report = sperr
                    .compress_stream_f32(&raw[..], &mut out, dims, bound)
                    .unwrap();
                assert_eq!(out, reference, "threads={threads} {bound:?}");
                assert_eq!(report.bytes_in, raw.len() as u64);
                assert!(report.peak_in_flight <= report.in_flight_budget);
            }
        }
    }

    #[test]
    fn bounded_in_flight_budget_is_honored() {
        // 8 z-layers of 1 chunk each with a budget of 2: neither direction
        // may hold more than two chunks, and both keep the in-memory bytes.
        let dims = [16usize, 16, 128];
        let field = wavy(dims);
        let raw = raw_bytes(&field, Precision::Double);
        let reference = Sperr::new(cfg(1)).compress(&field, Bound::Pwe(1e-3)).unwrap();
        let decoded = Sperr::new(cfg(1)).decompress(&reference).unwrap();
        let want = raw_bytes(&decoded, decoded.precision);
        for threads in [1usize, 2, 4] {
            let sperr = Sperr::new(SperrConfig {
                in_flight_chunks: 2,
                ..cfg(threads)
            });
            let mut out = Vec::new();
            let report = sperr
                .compress_stream(&raw[..], &mut out, dims, Precision::Double, Bound::Pwe(1e-3))
                .unwrap();
            let mut round = Vec::new();
            let strict = sperr.decompress_stream(&reference[..], &mut round, None).unwrap();
            let mut salvaged = Vec::new();
            let resilient =
                sperr.decompress_stream_resilient(&reference[..], &mut salvaged, None).unwrap();
            assert!(resilient.all_ok());
            for (what, report) in
                [("compress", &report), ("decompress", &strict), ("resilient", &resilient.report)]
            {
                assert_eq!(report.n_chunks, 8, "{what} t{threads}");
                assert_eq!(report.in_flight_budget, 2, "{what} t{threads}");
                let peak = report.peak_in_flight;
                assert!(peak <= 2, "{what} t{threads}: budget 2 but peak {peak}");
            }
            assert_eq!(out, reference, "t{threads}");
            assert_eq!(round, want, "t{threads}");
            assert_eq!(salvaged, want, "t{threads}");
        }
    }

    #[test]
    fn refusals_name_the_lowest_bad_index_like_the_in_memory_driver() {
        // Two chunks side by side in x. Chunk 1 holds the lowest bad linear
        // index (20); chunk 0 holds a later one (2563 = (3, 0, 5)), and it
        // is the first chunk a serial loop reaches.
        let dims = [32usize, 16, 32];
        let mut field = wavy(dims);
        field.data[20] = f64::NAN;
        field.data[3 + 32 * 16 * 5] = f64::INFINITY;
        let narrow = field.narrow_lossy();
        let names_20 = |e: &CompressError| e.to_string().contains("linear index 20 ");
        for threads in [1usize, 2, 4, 8] {
            let sperr = Sperr::new(cfg(threads));
            for bound in [Bound::Pwe(1e-3), Bound::Bpp(2.0)] {
                let case = format!("t{threads} {bound:?}");
                assert!(names_20(&sperr.compress(&field, bound).unwrap_err()), "{case}");
                assert!(names_20(&sperr.compress_f32(&narrow, bound).unwrap_err()), "{case}");
                let raw = raw_bytes(&field, Precision::Double);
                let streamed = sperr
                    .compress_stream(&raw[..], Vec::new(), dims, Precision::Double, bound)
                    .unwrap_err();
                let raw: Vec<u8> = narrow.data.iter().flat_map(|v| v.to_le_bytes()).collect();
                let streamed_f32 =
                    sperr.compress_stream_f32(&raw[..], Vec::new(), dims, bound).unwrap_err();
                for e in [streamed, streamed_f32] {
                    let SperrError::Codec { stage, chunk, source } = &e else {
                        panic!("{case}: {e:?}")
                    };
                    assert_eq!((*stage, *chunk), (STAGE_INGEST, Some(1)), "{case}");
                    assert!(names_20(source), "{case}: {e}");
                }
            }
        }
    }

    #[test]
    fn a_refusal_in_a_later_batch_names_its_volume_index() {
        // 3 × 1 chunks per layer, 5 layers; x and z end in boundary chunks.
        // The one bad sample sits in a boundary chunk of layer 3 or 4, so
        // its coder reads it from a slab that starts at z 32, 48 or 64 —
        // at slab z 16 when a batch holds two layers (4 threads, default
        // budget) — and the refusal must still name its volume index.
        let dims = [40usize, 12, 72];
        for [x, y, z] in [[37usize, 9, 53], [38, 11, 70]] {
            let at = x + dims[0] * (y + dims[1] * z);
            let mut field = wavy(dims);
            field.data[at] = f64::NAN;
            let wide = raw_bytes(&field, Precision::Double);
            let narrow: Vec<u8> =
                field.narrow_lossy().data.iter().flat_map(|v| v.to_le_bytes()).collect();
            let chunk = 2 + 3 * (z / 16);
            for threads in [1usize, 2, 4] {
                for in_flight_chunks in [1, 0] {
                    let sperr = Sperr::new(SperrConfig { in_flight_chunks, ..cfg(threads) });
                    for bound in [Bound::Pwe(1e-3), Bound::Bpp(2.0)] {
                        let case = format!("({x}, {y}, {z}) t{threads} budget {in_flight_chunks}");
                        let double = Precision::Double;
                        let refusals = [
                            sperr.compress_stream(&wide[..], Vec::new(), dims, double, bound),
                            sperr.compress_stream_f32(&narrow[..], Vec::new(), dims, bound),
                        ];
                        for e in refusals {
                            let Err(SperrError::Codec { stage, chunk: c, source }) = &e else {
                                panic!("{case}: {e:?}")
                            };
                            assert_eq!((*stage, *c), (STAGE_INGEST, Some(chunk)), "{case}");
                            let named = format!("linear index {at} ");
                            assert!(source.to_string().contains(&named), "{case}: {source}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn short_read_is_typed_io_error() {
        let dims = [16usize, 16, 32];
        let field = wavy(dims);
        let raw = raw_bytes(&field, Precision::Double);
        let sperr = Sperr::new(cfg(4));
        let mut out = Vec::new();
        let err = sperr
            .compress_stream(
                &raw[..raw.len() / 2],
                &mut out,
                dims,
                Precision::Double,
                Bound::Pwe(1e-3),
            )
            .unwrap_err();
        match err {
            SperrError::Io { stage, kind, .. } => {
                assert_eq!(stage, STAGE_INGEST);
                assert_eq!(kind, std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn psnr_bound_rejected_with_typed_error() {
        let sperr = Sperr::new(cfg(2));
        let err = sperr
            .compress_stream(
                &[][..],
                Vec::new(),
                [8, 8, 8],
                Precision::Double,
                Bound::Psnr(60.0),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SperrError::Codec { source: CompressError::Unsupported(_), .. }
        ));
    }

    #[test]
    fn single_chunk_volume_streams() {
        let dims = [12usize, 10, 8];
        let field = wavy(dims);
        let raw = raw_bytes(&field, Precision::Double);
        let sperr = Sperr::new(cfg(4));
        let reference = Sperr::new(cfg(1)).compress(&field, Bound::Pwe(1e-3)).unwrap();
        let mut out = Vec::new();
        sperr
            .compress_stream(&raw[..], &mut out, dims, Precision::Double, Bound::Pwe(1e-3))
            .unwrap();
        assert_eq!(out, reference);
        let mut round = Vec::new();
        sperr.decompress_stream(&out[..], &mut round, None).unwrap();
        let rec = sperr.decompress(&reference).unwrap();
        assert_eq!(round, raw_bytes(&rec, rec.precision));
    }
}
