//! Staged streaming pipeline: bounded-memory compress/decompress over
//! `Read`/`Write` endpoints.
//!
//! The non-streaming API ([`Sperr::compress`]) holds the whole volume in
//! RAM. This module drives the same per-chunk pipeline — ingest →
//! wavelet → SPECK → outlier → lossless → ordered container emit —
//! incrementally: the producer (caller thread) reads raw scalars row by
//! row and assembles chunk buffers, replicated middle stages encode or
//! decode chunks on the [`WorkerPool`], and an in-flight budget enforces
//! back-pressure so peak raw-data memory is `O(in_flight × chunk)`
//! instead of `O(volume)`. (Compressed chunk payloads still accumulate
//! until the container header — which precedes them — can be written, so
//! total memory is `O(in_flight × chunk + compressed_output)`.)
//!
//! # Back-pressure protocol
//!
//! One mutex-guarded [`PipeState`] plus two condvars per direction:
//!
//! * compress: the producer blocks acquiring a chunk buffer while
//!   `in_flight ≥ budget`; workers wake it when they return a buffer.
//!   Workers block waiting for *their* chunk index to appear in the
//!   ready mailbox; the producer wakes them as chunks complete.
//! * decompress: workers block acquiring a decode token (granted in
//!   strict chunk-index order — see below); the emitter wakes them after
//!   writing out a layer. The emitter blocks waiting for the decoded
//!   chunks of the current layer.
//!
//! Decode tokens are granted in ascending chunk order: the pool's job
//! counter hands indices out in order, but lock-acquisition races could
//! otherwise let later chunks hog the whole budget while the emitter
//! waits on an earlier layer — a deadlock. With ordered grants the
//! lowest un-emitted layer always makes progress.
//!
//! # Cancellation semantics
//!
//! The first failure — reader/writer error, decode error (strict mode) or
//! a caught worker panic — stores a typed [`SperrError`] in the shared
//! state and broadcasts both condvars. Every wait loop re-checks the
//! error and bails; chunks already being encoded/decoded run to
//! completion (draining, not aborting, keeps buffer accounting exact);
//! the producer stops at the next row boundary. The pool batch always
//! drains fully, so no worker is left blocked and the pool stays usable.
//!
//! # Fault taxonomy
//!
//! * [`SperrError::Io`] — a `Read`/`Write` endpoint failed; carries the
//!   pipeline stage (`stream.ingest` / `stream.emit`) and chunk index
//!   when attributable.
//! * [`SperrError::Codec`] — a typed codec error (corrupt stream,
//!   truncation, limit violations); carries the stage label that raised
//!   it and the chunk index when per-chunk.
//! * [`SperrError::Panic`] — a worker panicked; carries the captured
//!   panic message and the last stage label the panicking thread
//!   entered. Never escapes as an unwind.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

use crate::chunk::{chunk_grid, ChunkSpec};
use crate::compressor::{CompressRun, Sperr};
use crate::decode::{Opened, Samples};
use crate::faultpoint;
use crate::pipeline::{ChunkEncoding, DecodeArenas, NonFinite, ScratchArena};
use crate::pool::{lock_ignore_poison, panic_payload_message, Slots, WorkerPool};
use crate::stats::{metric_labels, CompressionStats, StageTimes};
use crate::ChunkStatus;
use sperr_compress_api::{Bound, CompressError, Precision};
use sperr_simd::Float;

/// Stage labels specific to the streaming pipeline (the per-chunk codec
/// stages reuse [`stage_labels`]).
pub const STAGE_INGEST: &str = "stream.ingest";
/// See [`STAGE_INGEST`].
pub const STAGE_EMIT: &str = "stream.emit";
/// See [`STAGE_INGEST`].
pub const STAGE_CONTAINER: &str = "stream.container";
/// Fallback stage label when a panic cannot be attributed more precisely.
pub const STAGE_PIPELINE: &str = "stream.pipeline";

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

    /// The underlying codec error, when this is a codec failure.
    pub fn codec_source(&self) -> Option<&CompressError> {
        match self {
            SperrError::Codec { source, .. } => Some(source),
            _ => None,
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
    /// Highest number of raw chunk buffers simultaneously in flight —
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

/// Geometry of the chunk grid as seen by the streaming drivers: chunks
/// arrive (and leave) in z-layers because the raw volume is streamed in
/// x-fastest row-major order.
struct LayerGeometry {
    dims: [usize; 3],
    chunk_dims: [usize; 3],
    /// Chunk-grid extent per axis.
    nx: usize,
    ny: usize,
    nz: usize,
}

impl LayerGeometry {
    fn new(dims: [usize; 3], chunk_dims: [usize; 3]) -> Self {
        LayerGeometry {
            dims,
            chunk_dims,
            nx: dims[0].div_ceil(chunk_dims[0]),
            ny: dims[1].div_ceil(chunk_dims[1]),
            nz: dims[2].div_ceil(chunk_dims[2]),
        }
    }

    /// Chunks per z-layer.
    fn layer_len(&self) -> usize {
        self.nx * self.ny
    }

    /// Inclusive-exclusive z range of layer `l`.
    fn z_range(&self, l: usize) -> (usize, usize) {
        let z0 = l * self.chunk_dims[2];
        (z0, (z0 + self.chunk_dims[2]).min(self.dims[2]))
    }

    /// Last volume-y covered by chunk row `cy`.
    fn last_y(&self, cy: usize) -> usize {
        ((cy + 1) * self.chunk_dims[1]).min(self.dims[1]) - 1
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
        match self.precision {
            Precision::Single => {
                for &v in row {
                    self.buf.extend_from_slice(&(v as f32).to_le_bytes());
                }
            }
            Precision::Double => {
                for &v in row {
                    self.buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        self.inner
            .write_all(&self.buf)
            .map_err(|e| SperrError::io(STAGE_EMIT, None, &e))?;
        self.bytes_out += self.buf.len() as u64;
        Ok(())
    }

    fn write_all_at_once(&mut self, bytes: &[u8]) -> Result<(), SperrError> {
        self.inner
            .write_all(bytes)
            .map_err(|e| SperrError::io(STAGE_EMIT, None, &e))?;
        self.bytes_out += bytes.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), SperrError> {
        self.inner.flush().map_err(|e| SperrError::io(STAGE_EMIT, None, &e))
    }
}

/// Sink for the ingest loop: hands out chunk buffers and receives them
/// back filled. The serial driver encodes inline; the parallel driver's
/// sink is the back-pressured handoff to the worker stages.
trait ChunkSink<T> {
    fn acquire(&mut self, idx: usize) -> Result<Vec<T>, SperrError>;
    fn complete(&mut self, idx: usize, buf: Vec<T>) -> Result<(), SperrError>;
}

/// Streams the raw volume row by row, assembling each chunk's x-fastest
/// buffer in exactly the order `extract_chunk_into` would, and handing
/// completed chunks to the sink. Chunks complete as early as possible
/// (during the layer's last z-plane, per chunk row) so downstream stages
/// overlap with ingest.
fn ingest_volume<R: Read, T: Float>(
    rd: &mut ScalarReader<R, T>,
    geo: &LayerGeometry,
    grid: &[ChunkSpec],
    sink: &mut dyn ChunkSink<T>,
) -> Result<(), SperrError> {
    let layer_len = geo.layer_len();
    for l in 0..geo.nz {
        let (z0, z1) = geo.z_range(l);
        let base = l * layer_len;
        let mut bufs: Vec<Option<Vec<T>>> = Vec::with_capacity(layer_len);
        for p in 0..layer_len {
            let idx = base + p;
            let mut b = sink.acquire(idx)?;
            b.clear();
            b.reserve(grid[idx].len());
            bufs.push(Some(b));
        }
        for z in z0..z1 {
            faultpoint::stage(STAGE_INGEST);
            for y in 0..geo.dims[1] {
                let row = rd.read_row()?;
                let cy = y / geo.chunk_dims[1];
                for cx in 0..geo.nx {
                    let p = cy * geo.nx + cx;
                    let spec = &grid[base + p];
                    let ox = spec.offset[0];
                    if let Some(buf) = bufs[p].as_mut() {
                        buf.extend_from_slice(&row[ox..ox + spec.dims[0]]);
                    }
                }
                // Chunk row (cy, all cx) completes on its last (y, z).
                if z + 1 == z1 && y == geo.last_y(cy) {
                    for cx in 0..geo.nx {
                        let p = cy * geo.nx + cx;
                        if let Some(buf) = bufs[p].take() {
                            sink.complete(base + p, buf)?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Shared state of one parallel streaming run. Generic over the raw
/// sample type the compress direction buffers (unused on the decompress
/// side, whose decoded chunks enter the mailbox as [`Samples`]).
struct PipeState<T> {
    /// Completed chunk buffers awaiting their worker (compress) or the
    /// emitter (decompress): index → payload.
    ready: HashMap<usize, ReadyChunk<T>>,
    /// Returned raw buffers for reuse (compress only).
    free: Vec<Vec<T>>,
    /// Buffers/tokens currently in flight.
    in_flight: usize,
    /// High-water mark of `in_flight`.
    peak: usize,
    /// Next chunk index allowed to take a decode token (decompress);
    /// tokens are granted in ascending order to keep the lowest
    /// un-emitted layer progressing.
    next_token: usize,
    /// First failure; set once, checked by every wait loop.
    error: Option<SperrError>,
}

enum ReadyChunk<T> {
    Raw(Vec<T>),
    Decoded { data: Samples, status: ChunkStatus, times: StageTimes },
}

struct PipeShared<T> {
    state: Mutex<PipeState<T>>,
    /// Wakes the producer/emitter side.
    caller_cv: Condvar,
    /// Wakes worker-side waits.
    worker_cv: Condvar,
    budget: usize,
}

impl<T> PipeShared<T> {
    fn new(budget: usize) -> Self {
        PipeShared {
            state: Mutex::new(PipeState {
                ready: HashMap::new(),
                free: Vec::new(),
                in_flight: 0,
                peak: 0,
                next_token: 0,
                error: None,
            }),
            caller_cv: Condvar::new(),
            worker_cv: Condvar::new(),
            budget,
        }
    }

    /// Records the first error and wakes every waiter on both sides.
    fn cancel(&self, err: SperrError) {
        let mut st = lock_ignore_poison(&self.state);
        if st.error.is_none() {
            st.error = Some(err);
        }
        drop(st);
        self.caller_cv.notify_all();
        self.worker_cv.notify_all();
    }

    fn take_error(&self) -> Option<SperrError> {
        lock_ignore_poison(&self.state).error.take()
    }

    fn peak_in_flight(&self) -> usize {
        lock_ignore_poison(&self.state).peak
    }
}

/// The refusal of `chunk`'s non-finite sample, as the streaming driver
/// reports it: the first bad sample of the first chunk found to hold one.
fn non_finite(chunk: usize, bad: NonFinite) -> SperrError {
    SperrError::Codec { stage: STAGE_INGEST, chunk: Some(chunk), source: bad.into() }
}

/// Runs `body`, turning an unwind out of it into the typed
/// [`SperrError::Panic`] for `chunk` — nothing unwinds out of the
/// streaming API, wherever on the caller or a worker thread it started.
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
        let configured = if self.config().in_flight_chunks == 0 {
            2 * threads
        } else {
            self.config().in_flight_chunks
        };
        configured.max(layer_len).max(1)
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
        // Outer guard: a panic anywhere on the caller thread (e.g. in
        // container assembly, after the pool has drained) still surfaces
        // as a typed error.
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
        let total_points: usize = dims.iter().product();
        let _run = sperr_telemetry::span!("sperr.compress_stream", total_points);
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_COMPRESS_STREAM);

        let grid = chunk_grid(dims, self.config().chunk_dims);
        let geo = LayerGeometry::new(dims, self.config().chunk_dims);
        let n_chunks = grid.len();
        let threads = self.effective_threads(&grid);
        let budget = self.resolve_budget(threads, geo.layer_len());
        sperr_telemetry::record_units(metric_labels::STREAM_IN_FLIGHT_BUDGET, budget as u64);

        let mut rd = ScalarReader::<R, T>::new(reader, precision, dims[0]);
        let results: Slots<Option<ChunkEncoding>> = Slots::new(n_chunks, || None);

        // One pool for the whole call: the chunk pipeline, then the blocks
        // of the lossless pass over the assembled container. With one
        // thread it spawns nothing and every batch runs inline.
        WorkerPool::scoped(threads, |pool| {
            let peak_in_flight;
            if threads == 1 {
                // Serial driver: ingest a layer, encode its chunks inline,
                // reuse the buffers. In flight = one layer by construction.
                struct SerialSink<'a, T: Float> {
                    free: Vec<Vec<T>>,
                    in_flight: usize,
                    peak: usize,
                    grid: &'a [ChunkSpec],
                    results: &'a Slots<Option<ChunkEncoding>>,
                    run: &'a CompressRun<'a>,
                    pool: &'a WorkerPool,
                    arena: ScratchArena<T>,
                }
                impl<T: Float> ChunkSink<T> for SerialSink<'_, T> {
                    fn acquire(&mut self, _idx: usize) -> Result<Vec<T>, SperrError> {
                        self.in_flight += 1;
                        self.peak = self.peak.max(self.in_flight);
                        sperr_telemetry::record_units(
                            metric_labels::STREAM_IN_FLIGHT,
                            self.in_flight as u64,
                        );
                        Ok(self.free.pop().unwrap_or_default())
                    }
                    fn complete(&mut self, idx: usize, buf: Vec<T>) -> Result<(), SperrError> {
                        let encoded = guarded(Some(idx), || {
                            let (spec, arena) = (&self.grid[idx], &mut self.arena);
                            let encoded = self.run.encode_chunk(&buf, spec, self.pool, arena);
                            encoded.map_err(|bad| non_finite(idx, bad))
                        });
                        self.in_flight -= 1;
                        sperr_telemetry::record_units(
                            metric_labels::STREAM_IN_FLIGHT,
                            self.in_flight as u64,
                        );
                        self.free.push(buf);
                        *self.results.lock(idx) = Some(encoded?);
                        Ok(())
                    }
                }
                let mut sink = SerialSink {
                    free: Vec::new(),
                    in_flight: 0,
                    peak: 0,
                    grid: &grid,
                    results: &results,
                    run: &run,
                    pool,
                    arena: ScratchArena::new(),
                };
                ingest_volume(&mut rd, &geo, &grid, &mut sink)?;
                sink.arena.record_footprint();
                peak_in_flight = sink.peak;
            } else {
                let shared = PipeShared::new(budget);
                let grid_ref = &grid;
                let shared_ref = &shared;
                let drained = {
                    let arenas = Slots::new(pool.threads(), ScratchArena::new);
                    let worker = |i: usize, w: usize| {
                        // Wait for chunk i (or cancellation).
                        let buf = {
                            let mut st = lock_ignore_poison(&shared_ref.state);
                            loop {
                                if st.error.is_some() {
                                    return;
                                }
                                if let Some(ReadyChunk::Raw(b)) = st.ready.remove(&i) {
                                    break b;
                                }
                                st = shared_ref
                                    .worker_cv
                                    .wait(st)
                                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                            }
                        };
                        let encoded = guarded(Some(i), || {
                            run.encode_chunk(&buf, &grid_ref[i], pool, &mut arenas.lock(w))
                                .map_err(|bad| non_finite(i, bad))
                        });
                        match encoded {
                            Ok(enc) => *results.lock(i) = Some(enc),
                            Err(e) => shared_ref.cancel(e),
                        }
                        // Return the buffer and unblock the producer.
                        let mut st = lock_ignore_poison(&shared_ref.state);
                        st.free.push(buf);
                        st.in_flight -= 1;
                        sperr_telemetry::record_units(
                            metric_labels::STREAM_IN_FLIGHT,
                            st.in_flight as u64,
                        );
                        drop(st);
                        shared_ref.caller_cv.notify_all();
                    };
                    let producer = || {
                        struct ParallelSink<'a, T> {
                            shared: &'a PipeShared<T>,
                        }
                        impl<T: Float> ChunkSink<T> for ParallelSink<'_, T> {
                            fn acquire(&mut self, _idx: usize) -> Result<Vec<T>, SperrError> {
                                let mut st = lock_ignore_poison(&self.shared.state);
                                loop {
                                    if let Some(e) = &st.error {
                                        return Err(e.clone());
                                    }
                                    if st.in_flight < self.shared.budget {
                                        st.in_flight += 1;
                                        st.peak = st.peak.max(st.in_flight);
                                        sperr_telemetry::record_units(
                                            metric_labels::STREAM_IN_FLIGHT,
                                            st.in_flight as u64,
                                        );
                                        return Ok(st.free.pop().unwrap_or_default());
                                    }
                                    st = self
                                        .shared
                                        .caller_cv
                                        .wait(st)
                                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                                }
                            }
                            fn complete(
                                &mut self,
                                idx: usize,
                                buf: Vec<T>,
                            ) -> Result<(), SperrError> {
                                let mut st = lock_ignore_poison(&self.shared.state);
                                if let Some(e) = &st.error {
                                    return Err(e.clone());
                                }
                                st.ready.insert(idx, ReadyChunk::Raw(buf));
                                drop(st);
                                self.shared.worker_cv.notify_all();
                                Ok(())
                            }
                        }
                        let mut sink = ParallelSink { shared: shared_ref };
                        let ingest = || ingest_volume(&mut rd, &geo, grid_ref, &mut sink);
                        if let Err(e) = guarded(None, ingest) {
                            shared_ref.cancel(e);
                        }
                    };
                    let drained = pool.run_with_producer(n_chunks, producer, &worker);
                    arenas.into_values().for_each(|arena| arena.record_footprint());
                    drained
                };
                if let Some(e) = shared.take_error() {
                    return Err(e);
                }
                if let Err(jp) = drained {
                    return Err(SperrError::Panic {
                        stage: STAGE_PIPELINE,
                        chunk: None,
                        message: jp.message,
                    });
                }
                peak_in_flight = shared.peak_in_flight();
            }

            // All chunks encoded (any failure returned above); assemble and
            // emit the container exactly like the non-streaming path.
            let mut encoded = Vec::with_capacity(n_chunks);
            for (i, slot) in results.into_values().enumerate() {
                match slot {
                    Some(enc) => encoded.push(enc),
                    None => {
                        return Err(SperrError::Panic {
                            stage: STAGE_PIPELINE,
                            chunk: Some(i),
                            message: "chunk result missing after pipeline drain".into(),
                        })
                    }
                }
            }
            faultpoint::stage(STAGE_CONTAINER);
            let (out, stats) = run
                .seal_container::<T>(precision, &encoded, pool)
                .map_err(|(chunk, source)| SperrError::Codec {
                    stage: STAGE_CONTAINER,
                    chunk: Some(chunk),
                    source,
                })?;

            faultpoint::stage(STAGE_EMIT);
            let mut wr = ScalarWriter::new(writer, precision);
            wr.write_all_at_once(&out)?;
            wr.flush()?;
            Ok(StreamReport {
                bytes_in: rd.bytes_in,
                bytes_out: wr.bytes_out,
                n_chunks,
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
        self.decompress_stream_impl(reader, writer, out_precision, false).map(|r| r.report)
    }

    /// Streaming resilient decompression: like
    /// [`Sperr::decompress_stream`], but a corrupt chunk yields its
    /// [`ChunkStatus`] and a neutral zero-filled region while the stream
    /// continues — the streaming form of
    /// [`Sperr::decompress_resilient`].
    pub fn decompress_stream_resilient<R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        out_precision: Option<Precision>,
    ) -> Result<StreamResilientReport, SperrError> {
        self.decompress_stream_impl(reader, writer, out_precision, true)
    }

    fn decompress_stream_impl<R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        out_precision: Option<Precision>,
        resilient: bool,
    ) -> Result<StreamResilientReport, SperrError> {
        // Outer guard: see `compress_stream`.
        guarded(None, || self.decompress_stream_inner(reader, writer, out_precision, resilient))
    }

    fn decompress_stream_inner<R: Read, W: Write>(
        &self,
        mut reader: R,
        writer: W,
        out_precision: Option<Precision>,
        resilient: bool,
    ) -> Result<StreamResilientReport, SperrError> {
        // The container places header + chunk table + checksums before
        // the payloads, and the lossless outer pass spans everything, so
        // the compressed input must be held whole; what stays bounded is
        // the *decoded* side.
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
        let header = &opened.header;
        let grid = &opened.grid;
        let tasks = opened.all_tasks();
        let geo = LayerGeometry::new(header.dims, header.chunk_dims);
        let n_chunks = grid.len();
        let threads = self.effective_threads(grid);
        let budget = self.resolve_budget(threads, geo.layer_len());
        sperr_telemetry::record_units(metric_labels::STREAM_IN_FLIGHT_BUDGET, budget as u64);

        // Decodes chunk i through the decode plan's per-task function,
        // honoring resilient semantics: Ok(status) with a data buffer
        // (zero-filled on per-chunk failure), Err on a strict-mode failure.
        let decode_chunk = |i: usize,
                            pool: &WorkerPool,
                            arenas: &mut DecodeArenas|
         -> Result<(Samples, ChunkStatus, StageTimes), SperrError> {
            guarded(Some(i), || {
                let (data, status, times) = opened.decode_task(&tasks[i], pool, arenas);
                match status.to_result(i) {
                    Ok(()) => Ok((data, status, times)),
                    Err(_) if resilient => {
                        Ok((Samples::Wide(vec![0.0; grid[i].len()]), status, times))
                    }
                    Err(source) => Err(SperrError::Codec {
                        stage: faultpoint::last_stage(),
                        chunk: Some(i),
                        source,
                    }),
                }
            })
        };

        let mut wr = ScalarWriter::new(writer, out_precision.unwrap_or(header.precision));
        let mut statuses: Vec<ChunkStatus> = Vec::with_capacity(n_chunks);
        let mut stats = CompressionStats {
            num_points: header.dims.iter().product(),
            num_chunks: n_chunks,
            container_bytes: opened.container_len,
            output_bytes: stream.len(),
            ..CompressionStats::default()
        };
        let mut row = vec![0.0f64; header.dims[0]];

        let peak_in_flight;
        // `n_chunks == 1` must use the serial driver too: the pool's
        // single-job fast path runs the producer to completion before the
        // job, and this direction's producer (the emitter) blocks waiting
        // for the decoded chunk — producer-first would deadlock.
        if threads == 1 || n_chunks == 1 {
            // Chunks decode inline on the caller, but inside a scoped
            // pool so a lone chunk still fans its wavelet/SPECK passes
            // out across workers (decode_chunk nests `pool.run`).
            peak_in_flight = WorkerPool::scoped(threads, |pool| {
                let mut arenas = DecodeArenas::default();
                let mut peak = 0usize;
                for l in 0..geo.nz {
                    let base = l * geo.layer_len();
                    let mut layer: Vec<Samples> = Vec::with_capacity(geo.layer_len());
                    for p in 0..geo.layer_len() {
                        let (data, status, times) = decode_chunk(base + p, pool, &mut arenas)?;
                        stats.stage_times.accumulate(&times);
                        statuses.push(status);
                        layer.push(data);
                    }
                    peak = peak.max(layer.len());
                    sperr_telemetry::record_units(
                        metric_labels::STREAM_IN_FLIGHT,
                        layer.len() as u64,
                    );
                    emit_layer(&mut wr, &geo, grid, base, &layer, &mut row)?;
                }
                arenas.record_footprint();
                Ok::<usize, SperrError>(peak)
            })?;
        } else {
            // No raw buffers travel in this direction; `f64` only names the type.
            let shared = PipeShared::<f64>::new(budget);
            let shared_ref = &shared;
            let statuses_ref = &mut statuses;
            let stats_ref = &mut stats;
            let wr_ref = &mut wr;
            let row_ref = &mut row;
            let geo_ref = &geo;
            let grid_ref = grid;
            let decode_ref = &decode_chunk;
            let run = WorkerPool::scoped(threads, |pool| {
                let arenas = Slots::new(pool.threads(), DecodeArenas::default);
                let worker = |i: usize, w: usize| {
                    // Ordered token grant (see module docs).
                    {
                        let mut st = lock_ignore_poison(&shared_ref.state);
                        loop {
                            if st.error.is_some() {
                                return;
                            }
                            if st.next_token == i && st.in_flight < shared_ref.budget {
                                st.in_flight += 1;
                                st.next_token += 1;
                                st.peak = st.peak.max(st.in_flight);
                                sperr_telemetry::record_units(
                                    metric_labels::STREAM_IN_FLIGHT,
                                    st.in_flight as u64,
                                );
                                break;
                            }
                            st = shared_ref
                                .worker_cv
                                .wait(st)
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                        }
                        drop(st);
                        // The grant advanced next_token: other waiters
                        // (including the next index) must re-check.
                        shared_ref.worker_cv.notify_all();
                    }
                    match decode_ref(i, pool, &mut arenas.lock(w)) {
                        Ok((data, status, times)) => {
                            let mut st = lock_ignore_poison(&shared_ref.state);
                            st.ready.insert(i, ReadyChunk::Decoded { data, status, times });
                            drop(st);
                            shared_ref.caller_cv.notify_all();
                        }
                        Err(e) => {
                            // Token stays accounted; cancellation stops
                            // the run, so the budget is moot.
                            shared_ref.cancel(e);
                        }
                    }
                };
                let emit_all = || -> Result<(), SperrError> {
                    for l in 0..geo_ref.nz {
                        let base = l * geo_ref.layer_len();
                        let mut layer: Vec<Samples> = Vec::with_capacity(geo_ref.layer_len());
                        for p in 0..geo_ref.layer_len() {
                            let idx = base + p;
                            let chunk = {
                                let mut st = lock_ignore_poison(&shared_ref.state);
                                loop {
                                    if let Some(e) = &st.error {
                                        return Err(e.clone());
                                    }
                                    if let Some(c) = st.ready.remove(&idx) {
                                        break c;
                                    }
                                    st = shared_ref
                                        .caller_cv
                                        .wait(st)
                                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                                }
                            };
                            let ReadyChunk::Decoded { data, status, times } = chunk else {
                                // Only decoded chunks enter the mailbox on
                                // this path.
                                continue;
                            };
                            stats_ref.stage_times.accumulate(&times);
                            statuses_ref.push(status);
                            layer.push(data);
                        }
                        emit_layer(wr_ref, geo_ref, grid_ref, base, &layer, row_ref)?;
                        // Layer written: release its decode tokens and wake
                        // token waiters.
                        let mut st = lock_ignore_poison(&shared_ref.state);
                        st.in_flight -= layer.len();
                        sperr_telemetry::record_units(
                            metric_labels::STREAM_IN_FLIGHT,
                            st.in_flight as u64,
                        );
                        drop(st);
                        shared_ref.worker_cv.notify_all();
                    }
                    Ok(())
                };
                let emitter = || {
                    if let Err(e) = guarded(None, emit_all) {
                        shared_ref.cancel(e);
                    }
                };
                let run = pool.run_with_producer(n_chunks, emitter, &worker);
                arenas.into_values().for_each(|a| a.record_footprint());
                run
            });
            if let Some(e) = shared.take_error() {
                return Err(e);
            }
            if let Err(jp) = run {
                return Err(SperrError::Panic {
                    stage: STAGE_PIPELINE,
                    chunk: None,
                    message: jp.message,
                });
            }
            peak_in_flight = shared.peak_in_flight();
        }

        wr.flush()?;
        Ok(StreamResilientReport {
            report: StreamReport {
                bytes_in,
                bytes_out: wr.bytes_out,
                n_chunks,
                in_flight_budget: budget,
                peak_in_flight,
                stats,
            },
            statuses,
        })
    }
}

/// Writes one chunk layer's z-planes to the writer, interleaving the
/// per-chunk buffers back into x-fastest volume rows (f32-native chunks
/// widen exactly on the way into the row; row emission narrows back
/// losslessly when the output precision is Single).
fn emit_layer<W: Write>(
    wr: &mut ScalarWriter<W>,
    geo: &LayerGeometry,
    grid: &[ChunkSpec],
    base: usize,
    layer: &[Samples],
    row: &mut [f64],
) -> Result<(), SperrError> {
    let l = base / geo.layer_len();
    let (z0, z1) = geo.z_range(l);
    let row_dims = [geo.dims[0], 1, 1];
    for z in z0..z1 {
        faultpoint::stage(STAGE_EMIT);
        for y in 0..geo.dims[1] {
            let cy = y / geo.chunk_dims[1];
            for cx in 0..geo.nx {
                let p = cy * geo.nx + cx;
                let spec = &grid[base + p];
                let src_lo = [0, y - spec.offset[1], z - spec.offset[2]];
                let extent = [spec.dims[0], 1, 1];
                layer[p].copy_box(spec.dims, src_lo, extent, row, row_dims, [spec.offset[0], 0, 0]);
            }
            wr.write_row(row)?;
        }
    }
    Ok(())
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
        // 8 z-layers of 1 chunk each with a budget of 2: the producer
        // must block rather than buffer ahead.
        let dims = [16usize, 16, 128];
        let field = wavy(dims);
        let raw = raw_bytes(&field, Precision::Double);
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            num_threads: 4,
            in_flight_chunks: 2,
            ..SperrConfig::default()
        });
        let mut out = Vec::new();
        let report = sperr
            .compress_stream(&raw[..], &mut out, dims, Precision::Double, Bound::Pwe(1e-3))
            .unwrap();
        assert_eq!(report.n_chunks, 8);
        assert_eq!(report.in_flight_budget, 2);
        assert!(
            report.peak_in_flight <= 2,
            "budget 2 but peak {}",
            report.peak_in_flight
        );
        // And the output is still the reference bytes.
        let reference = Sperr::new(cfg(1)).compress(&field, Bound::Pwe(1e-3)).unwrap();
        assert_eq!(out, reference);
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
