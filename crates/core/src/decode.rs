//! The decode plan: every read this crate offers — full, f32-native,
//! resilient, multi-resolution, region, preview, streaming — is the same
//! steps, because the paper's chunks are independent by construction
//! (§III-D). This module owns those steps, the one read loop that runs
//! them, and [`Sperr::read`], the in-memory read built on that loop.
//!
//! 1. **Open** ([`Sperr::open`], one way for every read): outer flag →
//!    container head, fetched through the framing → chunk grid
//!    cross-checked against the chunk table → each payload's offset (from
//!    the v3 index, or a walk of the table) → the plan ([`Head::plan`]: a
//!    list of [`ChunkTask`]s — which chunk, what of it to keep, how much
//!    of its SPECK stream to read, whether corrections apply, at which
//!    resolution) → a pool sized from the planned chunks → on that pool,
//!    one fetch of the planned payloads: the SLZ1 blocks under them, and
//!    no other ([`Opened`], whose [`Opened::payload`] serves them). Under
//!    [`OnDamage::Fail`] every planned payload is then checked before
//!    anything decodes.
//! 2. **Loop** ([`Opened::read_into`]): the decode width is chosen once
//!    ([`Head::decodes_f32`]); then, batch by batch, [`Opened::run_on`]
//!    decodes the batch's tasks on the pool through
//!    [`Opened::decode_task`] — CRC, split, the one [`decode_chunk`] — and
//!    settles each on its worker under the [`OnDamage`] fold: under `Fail`
//!    the first task that did not decode stops the read ([`Stop`]), under
//!    `ZeroFill` its status is kept and its box left zero. The loop sums
//!    the stage times (the open's included) and hands each batch to a
//!    [`Sink`]: the in-memory read places the boxes into the volume
//!    ([`Volume`]) in one batch of every task; the streaming read writes a
//!    batch's z-layers.
//!
//! Everything here walks untrusted chunk tables and decodes untrusted
//! payloads, so the file is listed in `tests/panic_audit.rs`: no panicking
//! construct, typed errors only.

use crate::chunk::{chunk_grid, copy_box, ChunkSpec};
use crate::compressor::{preview_budget_bytes, validate_bound, Sperr};
use crate::container::{ChunkEntry, ChunkIndexEntry, Header, Mode, Parsed};
use crate::crc32::crc32;
use crate::faultpoint::{self, Caught};
use crate::outer::{Fetched, Framed};
use crate::pipeline::{phase, ScratchArena};
use crate::stats::{metric_labels, stage_labels, CompressionStats, StageTimes};
use crate::warm::Warm;
use sperr_compress_api::{Bound, CompressError, FieldOf};
use sperr_exec::WorkerPool;
use sperr_simd::Float;
use sperr_telemetry::timed;
use sperr_wavelet::{
    coarse_dims, coarse_scale, inverse_3d_partial_with, levels_for_dims, Kernel, Support,
};
use std::any::Any;
use std::ops::{Deref, Range};
use std::time::Instant;

/// One chunk's decode, as the container's chunk table and the read at
/// hand describe it.
pub(crate) struct ChunkJob<'a> {
    /// The SPECK stream.
    pub speck: &'a [u8],
    /// Bytes of the SPECK stream a preview keeps ([`sperr_speck::Blocks::cut`];
    /// truncation is the embedded-coding contract, not corruption), or
    /// `usize::MAX` for all of it.
    pub budget: usize,
    /// The outlier stream; empty when there are no corrections or the read
    /// does not apply them (previews, coarse levels).
    pub outliers: &'a [u8],
    /// Chunk extent.
    pub dims: [usize; 3],
    /// SPECK's finest quantization step.
    pub q: f64,
    /// SPECK's planes byte (bitplane count, and the code-block flag).
    pub num_planes: u8,
    /// Outlier coder starting exponent.
    pub max_n: u8,
    /// The compression-time PWE tolerance (scales the outlier thresholds);
    /// ignored when `outliers` is empty.
    pub tolerance: f64,
    /// Wavelet kernel.
    pub kernel: Kernel,
    /// Chunk-local half-open box outside which outlier corrections are
    /// skipped (a region read keeps nothing else); `None` keeps them all.
    pub keep: Option<([usize; 3], [usize; 3])>,
    /// Finest transform levels left undone: 0 reconstructs the chunk, `l`
    /// its `1/2^l`-resolution approximation (paper §VII: the wavelet
    /// hierarchy "enables multi-level reconstruction that is useful in
    /// areas such as explorative analysis"). The caller has checked that
    /// the chunk has that many levels on every axis.
    pub level: usize,
}

/// Decompresses one chunk: SPECK decode in `arena`'s SPECK scratch,
/// inverse wavelet transform on `pool` with `arena`'s panel scratch,
/// outlier corrections — all into `arena`'s coefficient buffer, which
/// leaves as the result. Also reports per-stage wall times for
/// `info --verbose`.
///
/// The read decodes what it returns and no more: the [`Support`] of the
/// kept box — `keep`, or at `level > 0` the coarse corner — names the
/// coefficients SPECK assembles, the code blocks it decodes (those that
/// one of its boxes meets) and the lines each inverse step lifts. Inside
/// that box the result is bit-identical to the same samples of a full
/// decode (the support is exact, corrections are point-local, Eq. 1);
/// outside it the buffer holds whatever the restricted inverse left, and
/// corrections are skipped. A box whose support is the whole chunk takes
/// the full read. At `level > 0` the returned buffer still has the chunk's
/// full extent, with the coarse approximation, re-scaled to physical
/// units, in its `[0, coarse_dims)` corner.
///
/// SPECK runs as one pool batch ([`sperr_speck::Blocks::decode_into`]):
/// job 0 decodes the outlier list, and every other job one code block,
/// into the arena's coefficient buffer and SPECK scratch. The batch
/// spreads over the pool when it [fans out](WorkerPool::fans_out) and
/// runs on this worker otherwise; either way the bits are those of a
/// serial decode, and a failure is reported in the serial order: the
/// lowest block's SPECK error, then the outlier list's, then a correction
/// out of range.
pub(crate) fn decode_chunk<T: Float>(
    job: &ChunkJob<'_>,
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> Result<(Vec<T>, StageTimes), CompressError> {
    let dims = job.dims;
    let levels = levels_for_dims(dims);
    let keep = if job.level > 0 { None } else { job.keep };
    let support = Support::new(dims, levels, job.level, keep);
    crate::faultpoint::stage(stage_labels::SPECK_DECODE);
    let (decoded, speck_time) = phase(stage_labels::SPECK_DECODE, || {
        let blocks = sperr_speck::blocks(job.speck, dims, job.q, job.num_planes)?;
        let cut = if job.budget < job.speck.len() { Some(blocks.cut(job.budget)) } else { None };
        let blocks = match &cut {
            Some(cut) => sperr_speck::blocks(cut, dims, job.q, job.num_planes)?,
            None => blocks,
        };
        let keep = match support.is_everything() {
            true => None,
            false => Some(support.keep_bitmap().map_err(|_| {
                sperr_speck::DecodeError::LimitExceeded("no memory for the region's keep bitmap")
            })?),
        };
        // The chunk decodes into the arena's coefficient buffer, which
        // leaves with the result; the read hands it back once the sink is
        // done. New memory comes zeroed from the allocator, untouched where
        // a region's support does not reach.
        let mut coeffs = std::mem::take(&mut arena.coeffs);
        coeffs.clear();
        let n = dims.iter().product();
        if coeffs.capacity() == 0 {
            coeffs = vec![T::ZERO; n];
        } else {
            coeffs.resize(n, T::ZERO);
        }
        let list = || {
            faultpoint::carry(stage_labels::SPECK_DECODE, || {
                phase(stage_labels::OUTLIER_APPLY, || outlier_list(job))
            })
        };
        // A panic out of a code block is raised as SPECK's, then job 0's.
        let listed = faultpoint::within(stage_labels::SPECK_DECODE, || {
            blocks.decode_into(&mut coeffs, keep.as_deref(), &mut arena.speck, pool, Some(list))
        })?;
        let (corrections, list_time) = listed
            .map(|listed| listed.unwrap_or_else(Caught::resume))
            .unwrap_or_else(|| (Ok(Vec::new()), Default::default()));
        Ok::<_, CompressError>((coeffs, corrections?, list_time))
    });
    let (mut coeffs, corrections, list_time) = decoded?;

    crate::faultpoint::stage(stage_labels::WAVELET_INVERSE);
    let ((), wavelet_time) = timed(stage_labels::WAVELET_INVERSE, || {
        inverse_3d_partial_with(&mut coeffs, &support, job.kernel, pool, &mut arena.wavelet);
        if job.level > 0 {
            // The approximation band carries the kernel's DC gain.
            let cdims = coarse_dims(dims, levels, job.level);
            let scale = 1.0 / coarse_scale(dims, levels, job.level);
            for z in 0..cdims[2] {
                for y in 0..cdims[1] {
                    let row = dims[0] * (y + dims[1] * z);
                    for c in &mut coeffs[row..row + cdims[0]] {
                        *c = T::from_f64(c.to_f64() * scale);
                    }
                }
            }
        }
    });

    crate::faultpoint::stage(stage_labels::OUTLIER_APPLY);
    let (applied, apply_time) =
        phase(stage_labels::OUTLIER_APPLY, || apply_corrections(job, &corrections, &mut coeffs));
    applied?;

    let times = StageTimes {
        wavelet: wavelet_time,
        speck: speck_time.saturating_sub(list_time),
        outlier_coding: list_time + apply_time,
        ..StageTimes::default()
    };
    sperr_telemetry::record_ns(stage_labels::SPECK_DECODE, times.speck.as_nanos() as u64);
    sperr_telemetry::record_ns(stage_labels::OUTLIER_APPLY, times.outlier_coding.as_nanos() as u64);
    Ok((coeffs, times))
}

/// The chunk's outlier corrections, decoded (none when the read does not
/// apply them).
fn outlier_list(job: &ChunkJob<'_>) -> Result<Vec<sperr_outlier::Outlier>, CompressError> {
    if job.outliers.is_empty() {
        return Ok(Vec::new());
    }
    // NaN is missing too; an infinite tolerance is the outlier decoder's
    // to refuse.
    if job.tolerance.is_nan() || job.tolerance <= 0.0 {
        return Err(CompressError::Corrupt("outlier stream present but tolerance missing".into()));
    }
    let n = job.dims.iter().product();
    Ok(sperr_outlier::decode(job.outliers, n, job.tolerance, job.max_n)?)
}

/// Adds `corrections` to the reconstructed chunk, skipping those outside
/// the kept box.
fn apply_corrections<T: Float>(
    job: &ChunkJob<'_>,
    corrections: &[sperr_outlier::Outlier],
    coeffs: &mut [T],
) -> Result<(), CompressError> {
    let dims = job.dims;
    for c in corrections {
        if c.pos >= coeffs.len() {
            return Err(CompressError::Corrupt("outlier position out of range".into()));
        }
        if let Some((lo, hi)) = job.keep {
            let x = c.pos % dims[0];
            let y = (c.pos / dims[0]) % dims[1];
            let z = c.pos / (dims[0] * dims[1]);
            if x < lo[0] || x >= hi[0] || y < lo[1] || y >= hi[1] || z < lo[2] || z >= hi[2] {
                continue;
            }
        }
        // z = x̃ + corr (Eq. 1), applied in f64 and narrowed once so the
        // f32 path pays a single rounding (exact for f64).
        coeffs[c.pos] = T::from_f64(coeffs[c.pos].to_f64() + c.corr);
    }
    Ok(())
}

/// One unit of decode work: a chunk and what the read wants of it.
#[derive(Debug, Clone)]
pub(crate) struct ChunkTask {
    /// Grid index of the chunk.
    pub chunk: usize,
    /// Chunk-local half-open box the read keeps; `None` keeps the chunk.
    pub keep: Option<([usize; 3], [usize; 3])>,
    /// Bytes of the chunk's SPECK stream to read (clamped to its length).
    pub budget: usize,
    /// Whether the outlier corrections apply (they are full-fidelity,
    /// full-resolution data: previews and coarse levels skip them).
    pub outliers: bool,
    /// Finest transform levels left undone (0 = full resolution).
    pub level: usize,
}

impl ChunkTask {
    /// The whole of `chunk`, at full fidelity.
    fn full(chunk: usize) -> Self {
        ChunkTask { chunk, keep: None, budget: usize::MAX, outliers: true, level: 0 }
    }
}

/// What one task leaves for the [`Sink`], at the read's decode width: the
/// chunk's samples, or `None` for a damaged chunk, whose box stays zero.
pub(crate) type Decoded<S> = Option<Vec<S>>;

/// One task, settled on its worker: its box, status and stage times, or
/// the [`Stop`] that ends the read.
type Settled<S> = Result<(Decoded<S>, ChunkStatus, StageTimes), Stop>;

/// Why a read stopped before its sink saw every batch.
pub(crate) enum Stop {
    /// `chunk` did not decode under [`OnDamage::Fail`]; `stage` is the
    /// last its worker entered.
    Failed { chunk: usize, stage: &'static str, source: CompressError },
    /// The worker decoding `chunk` panicked.
    Panicked { chunk: usize, caught: Caught },
}

impl Stop {
    /// What an in-memory read does with it: a failure is the read's error;
    /// a panic resumes on the caller, as a pool batch's own panics do.
    fn into_read_error(self) -> CompressError {
        match self {
            Stop::Failed { source, .. } => source,
            Stop::Panicked { caught, .. } => caught.resume(),
        }
    }
}

/// Where [`Opened::read_into`] hands each decoded batch: the volume of an
/// in-memory read ([`Volume`]), or the writer of a streaming one.
pub(crate) trait Sink {
    /// What stops the read: a [`Stop`], or the sink's own failure.
    type Error: From<Stop>;

    /// Takes the boxes of the tasks `batch` (task indices), in task order,
    /// at the decode width `S` the read chose. What it leaves of them the
    /// read keeps for its next batch.
    fn batch<S: Float>(
        &mut self,
        batch: Range<usize>,
        boxes: &mut [Decoded<S>],
    ) -> Result<(), Self::Error>;
}

/// Where the payloads lie in the container.
enum Offsets {
    /// The v3 chunk index, kept as parsed: offsets from `payload_start`.
    Indexed { payload_start: usize, index: Vec<ChunkIndexEntry> },
    /// Legacy v1/v2 stream: offsets from a walk of the chunk table.
    Walked(Vec<usize>),
}

/// Everything a container's head says, in the form the plan builders and
/// the executor use it.
pub(crate) struct Head {
    /// Container format version (1–3).
    pub version: u8,
    /// The parsed header.
    pub header: Header,
    /// The chunk grid the header implies, one spec per chunk-table entry.
    pub grid: Vec<ChunkSpec>,
    /// The chunk table.
    pub entries: Vec<ChunkEntry>,
    /// Where each chunk's payload lies.
    offsets: Offsets,
    /// Per-chunk payload CRCs still to be checked (v2+ streams; `None`
    /// for v1, and after a strict open has checked the planned payloads).
    crcs: Option<Vec<u32>>,
}

impl Head {
    fn new(parsed: Parsed) -> Result<Self, CompressError> {
        let Parsed { version, header, entries, payload_start, chunk_crcs, index } = parsed;
        let grid = chunk_grid(header.dims, header.chunk_dims);
        if grid.len() != entries.len() {
            return Err(CompressError::Corrupt("chunk table size mismatch".into()));
        }
        // The parser has checked the index against the table, so both
        // routes give the same offsets; the index just gives them without
        // the walk.
        let offsets = match index {
            Some(index) => Offsets::Indexed { payload_start, index },
            None => Offsets::Walked(
                entries
                    .iter()
                    .scan(payload_start, |cursor, e| {
                        let start = *cursor;
                        *cursor += e.speck_len + e.outlier_len;
                        Some(start)
                    })
                    .collect(),
            ),
        };
        Ok(Head { version, header, grid, entries, offsets, crcs: chunk_crcs })
    }

    /// Whether the offsets come from the v3 chunk index (`false`: legacy
    /// v1/v2 stream, offsets from a walk of the chunk table).
    pub(crate) fn used_index(&self) -> bool {
        matches!(self.offsets, Offsets::Indexed { .. })
    }

    /// Whether the stream carries per-chunk checksums not yet verified.
    pub(crate) fn checksummed(&self) -> bool {
        self.crcs.is_some()
    }

    /// Where `chunk`'s payload (SPECK stream, then outlier stream) lies in
    /// the container.
    fn payload_range(&self, chunk: usize) -> Range<usize> {
        let e = &self.entries[chunk];
        let start = match &self.offsets {
            Offsets::Indexed { payload_start, index } => payload_start + index[chunk].offset as usize,
            Offsets::Walked(offsets) => offsets[chunk],
        };
        start..start + e.speck_len + e.outlier_len
    }

    /// The decode width of a read of `what`, chosen once for the read:
    /// f32 for an f32-native stream (its native width, with no f64 on the
    /// chunk path), except at a coarse level, which has always been
    /// reconstructed at f64; f64 otherwise.
    pub(crate) fn decodes_f32(&self, what: ReadRequest<'_>) -> bool {
        self.header.native_f32 && !matches!(what, ReadRequest::Level(l) if l > 0)
    }

    /// The plan of a read of `what`, with the dims of the volume it
    /// returns:
    /// - `Full`: every chunk, whole;
    /// - `Region`: one task per chunk intersecting the half-open box
    ///   `[lo, hi)`, keeping the chunk-local intersection;
    /// - `Level(l)`: every chunk, `l` transform levels left undone, no
    ///   corrections;
    /// - `Bpp`, `Budgets`: every chunk, its SPECK stream cut at the
    ///   chunk's budget, no corrections.
    pub(crate) fn plan(
        &self,
        what: ReadRequest<'_>,
    ) -> Result<(Vec<ChunkTask>, [usize; 3]), CompressError> {
        let Header { dims, chunk_dims, .. } = self.header;
        let n = self.grid.len();
        let preview = |budget_of: &dyn Fn(usize) -> usize| -> Vec<ChunkTask> {
            let cut = |chunk| ChunkTask {
                budget: budget_of(chunk),
                outliers: false,
                ..ChunkTask::full(chunk)
            };
            (0..n).map(cut).collect()
        };
        match what {
            ReadRequest::Full | ReadRequest::Level(0) => {
                Ok(((0..n).map(ChunkTask::full).collect(), dims))
            }
            ReadRequest::Region { lo, hi } => {
                if (0..3).any(|d| lo[d] >= hi[d] || hi[d] > dims[d]) {
                    return Err(CompressError::Invalid(format!(
                        "region [{lo:?}, {hi:?}) out of bounds for dims {dims:?}"
                    )));
                }
                let mut tasks = Vec::new();
                for (chunk, spec) in self.grid.iter().enumerate() {
                    let mut keep = ([0; 3], [0; 3]);
                    for d in 0..3 {
                        let (start, end) = (spec.offset[d], spec.offset[d] + spec.dims[d]);
                        keep.0[d] = lo[d].max(start) - start;
                        keep.1[d] = hi[d].min(end).saturating_sub(start);
                    }
                    if (0..3).all(|d| keep.0[d] < keep.1[d]) {
                        tasks.push(ChunkTask { keep: Some(keep), ..ChunkTask::full(chunk) });
                    }
                }
                Ok((tasks, [0, 1, 2].map(|d| hi[d] - lo[d])))
            }
            ReadRequest::Level(level) => {
                // Chunk offsets are multiples of chunk_dims; they must stay
                // aligned after coarsening (single-chunk streams are always
                // fine).
                let divides = |d: &usize| d.trailing_zeros() as usize >= level;
                if self.grid.len() > 1 && !chunk_dims.iter().all(divides) {
                    return Err(CompressError::Invalid(format!(
                        "chunk dims {chunk_dims:?} not divisible by 2^{level}"
                    )));
                }
                for spec in &self.grid {
                    let levels = levels_for_dims(spec.dims);
                    if levels.iter().any(|&l| l < level) {
                        return Err(CompressError::Invalid(format!(
                            "resolution level {level} exceeds the chunk's transform depth \
                             {levels:?}"
                        )));
                    }
                }
                // No axis has more than six transform levels, so the shift
                // is in range. Iterated ceil-halving == ceil(n / 2^level).
                let coarse = dims.map(|d| d.div_ceil(1 << level));
                let task = |chunk| ChunkTask { outliers: false, level, ..ChunkTask::full(chunk) };
                Ok(((0..n).map(task).collect(), coarse))
            }
            ReadRequest::Bpp(bpp) => {
                Ok((preview(&|chunk| preview_budget_bytes(bpp, &self.grid[chunk])), dims))
            }
            ReadRequest::Budgets(budgets) => {
                if budgets.len() != self.entries.len() {
                    return Err(CompressError::Invalid(format!(
                        "{} budgets for {} chunks",
                        budgets.len(),
                        self.entries.len()
                    )));
                }
                Ok((preview(&|chunk| budgets[chunk]), dims))
            }
        }
    }

    /// The chunk-local box of `task`'s decode that the read keeps, as
    /// (origin, extent): the keep-box, the whole chunk, or — at a coarse
    /// level — the approximation corner.
    fn kept_box(&self, task: &ChunkTask) -> ([usize; 3], [usize; 3]) {
        let dims = self.grid[task.chunk].dims;
        if task.level > 0 {
            return ([0; 3], coarse_dims(dims, levels_for_dims(dims), task.level));
        }
        match task.keep {
            Some((lo, hi)) => (lo, [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]]),
            None => ([0; 3], dims),
        }
    }
}

/// A stream opened for a read ([`Sperr::open`]): its [`Head`] (reachable
/// through `Deref`, so the metadata reads the same as on the head alone),
/// the read's plan, and the planned payloads, fetched.
pub(crate) struct Opened<'a> {
    head: Head,
    /// The plan: one task per chunk the read decodes, ascending.
    pub tasks: Vec<ChunkTask>,
    /// Dims of the volume the plan returns.
    pub out_dims: [usize; 3],
    fetched: Fetched<'a>,
    /// Whether the lossless pass was on.
    pub lossless: bool,
    /// Length of the container behind the outer framing.
    pub container_len: usize,
    /// Wall time of the payload fetch (`lossless`, on a packed stream)
    /// and of the head's parse and plan plus any up-front checks
    /// (`container`).
    pub open_times: StageTimes,
    /// The working set of the `Sperr` that opened the stream, which the
    /// read decodes in.
    warm: &'a Warm,
}

impl Deref for Opened<'_> {
    type Target = Head;

    fn deref(&self) -> &Head {
        &self.head
    }
}

impl Sperr {
    /// Opens `stream` for a read of `what` and runs `read` on it: every
    /// read's one open. The head is fetched through the framing and parsed,
    /// the read planned, and a pool sized from the planned chunks; on that
    /// pool the planned payloads are fetched in one go — on a packed stream
    /// the SLZ1 blocks under them and no other, so cost follows chunks
    /// touched, and damage elsewhere in the stream, even inside the
    /// lossless wrapper, is never looked at. A needed block that fails to
    /// inflate fails the tasks whose payloads overlap it, not the open.
    /// Under [`OnDamage::Fail`] every planned payload is then checked —
    /// fetched, and its checksum verified — so a damaged stream fails
    /// before anything decodes, naming its lowest damaged planned chunk;
    /// under `ZeroFill` the checks are left to the tasks. Damage to the
    /// head or the framing fails the open. A caller whose `read` does not
    /// `decode` (`verify`, `transcode_to_bpp`, `reframe`) leaves nothing
    /// for the pool to do on a raw stream, so there it gets no workers.
    pub(crate) fn open<R>(
        &self,
        stream: &[u8],
        what: ReadRequest<'_>,
        on_damage: OnDamage,
        decode: bool,
        read: impl FnOnce(&Opened<'_>, &WorkerPool) -> R,
    ) -> Result<R, CompressError> {
        let (planned, head_time) = phase(stage_labels::CONTAINER_READ, || {
            let framed = Framed::open(stream)?;
            let head = Head::new(framed.read_head()?)?;
            let (tasks, out_dims) = head.plan(what)?;
            Ok::<_, CompressError>((framed, head, tasks, out_dims))
        });
        let (framed, head, tasks, out_dims) = planned?;
        let threads = if decode || framed.lossless() {
            self.effective_threads(tasks.iter().map(|t| &head.grid[t.chunk]))
        } else {
            1
        };
        WorkerPool::scoped(threads, |pool| {
            let wanted: Vec<_> = tasks.iter().map(|t| head.payload_range(t.chunk)).collect();
            let (fetched, fetch_time) =
                timed(stage_labels::LOSSLESS_DECOMPRESS, || framed.fetch(&wanted, pool));
            let mut opened = Opened {
                head,
                tasks,
                out_dims,
                fetched: fetched?,
                lossless: framed.lossless(),
                container_len: framed.container_len(),
                open_times: StageTimes::default(),
                warm: self.warm(),
            };
            let (checked, check_time) =
                phase(stage_labels::CONTAINER_READ, || opened.check_up_front(on_damage));
            checked?;
            if opened.lossless {
                opened.open_times.lossless = fetch_time;
            }
            opened.open_times.container = head_time + check_time;
            sperr_telemetry::record_ns(
                stage_labels::CONTAINER_READ,
                opened.open_times.container.as_nanos() as u64,
            );
            Ok(read(&opened, pool))
        })
    }
}

impl Opened<'_> {
    /// Under [`OnDamage::Fail`], checks every planned payload and fails
    /// on the lowest damaged one; the tasks then need not check them again.
    fn check_up_front(&mut self, on_damage: OnDamage) -> Result<(), CompressError> {
        if on_damage == OnDamage::Fail {
            for task in &self.tasks {
                if let Err(status) = self.checked_payload(task.chunk) {
                    status.to_result(task.chunk)?;
                }
            }
            self.head.crcs = None;
        }
        Ok(())
    }

    /// `chunk`'s payload bytes: SPECK stream, then outlier stream.
    pub(crate) fn payload(&self, chunk: usize) -> Result<&[u8], CompressError> {
        self.fetched.get(self.payload_range(chunk))
    }

    /// `chunk`'s payload, if it was fetched (its SLZ1 blocks inflated) and
    /// passes its checksum — when one is still to be checked.
    fn checked_payload(&self, chunk: usize) -> Result<&[u8], ChunkStatus> {
        let payload = self.payload(chunk).map_err(ChunkStatus::DecodeFailed)?;
        match &self.crcs {
            Some(crcs) if crc32(payload) != crcs[chunk] => Err(ChunkStatus::ChecksumMismatch),
            _ => Ok(payload),
        }
    }

    /// Planned chunks whose payload did not fetch or fails its checksum,
    /// ascending (a v1 stream carries no checksums).
    pub(crate) fn corrupt_chunks(&self) -> impl Iterator<Item = usize> + '_ {
        let chunks = self.tasks.iter().map(|t| t.chunk);
        chunks.filter(|&chunk| self.checked_payload(chunk).is_err())
    }

    /// Runs one task: checksum, split, decode at width `S`. The one place
    /// a chunk gets decoded, for every read; a chunk that does not decode
    /// yields its status.
    fn decode_task<S: Float>(
        &self,
        task: &ChunkTask,
        pool: &WorkerPool,
        arena: &mut ScratchArena<S>,
    ) -> Result<(Vec<S>, StageTimes), ChunkStatus> {
        // Known-bad payloads are not even handed to the coders.
        let payload = self.checked_payload(task.chunk)?;
        let e = &self.entries[task.chunk];
        let (speck, outliers) = payload.split_at(e.speck_len);
        let job = ChunkJob {
            speck,
            budget: task.budget,
            outliers: if task.outliers { outliers } else { &[] },
            dims: self.grid[task.chunk].dims,
            q: e.q,
            num_planes: e.num_planes,
            max_n: e.max_n,
            tolerance: match self.header.mode {
                Mode::Pwe => self.header.bound_value,
                Mode::Bpp | Mode::Rmse => 0.0,
            },
            kernel: self.header.kernel,
            keep: task.keep,
            level: task.level,
        };
        decode_chunk(&job, pool, arena).map_err(ChunkStatus::DecodeFailed)
    }

    /// The executor: task `j` runs on the `pool` worker that claims it,
    /// with that worker's arena (kept across batches), and is settled there
    /// under `on_damage` — so a failure or a panic names the stage that
    /// worker was in. Results in task order. Scheduling depends on neither
    /// the width nor the kind of read, so every read is thread-count
    /// deterministic alike.
    fn run_on<S: Float>(
        &self,
        pool: &WorkerPool,
        tasks: &[ChunkTask],
        arenas: &mut Vec<ScratchArena<S>>,
        on_damage: OnDamage,
    ) -> Vec<Settled<S>> {
        pool.map_with_state(tasks.len(), arenas, |j, arena| {
            let chunk = tasks[j].chunk;
            let decoded = faultpoint::catch(|| self.decode_task(&tasks[j], pool, arena))
                .map_err(|caught| Stop::Panicked { chunk, caught })?;
            let (samples, status, times) = match decoded {
                Ok((samples, times)) => (Some(samples), ChunkStatus::Ok, times),
                Err(status) => (None, status, StageTimes::default()),
            };
            if on_damage == OnDamage::Fail {
                if let Err(source) = status.to_result(chunk) {
                    return Err(Stop::Failed { chunk, stage: faultpoint::last_stage(), source });
                }
            }
            Ok((samples, status, times))
        })
    }

    /// The one read loop, behind [`Sperr::read`] and the streaming read:
    /// decodes the planned tasks in `batches` (ranges of task indices, in
    /// order) at the width [`Head::decodes_f32`] chooses for `what`, and
    /// hands each batch to `sink`. Every task of a batch runs to completion; a
    /// [`Stop`] then ends the read at its first stopped task, before the
    /// sink sees that batch. Returns each task's status and the read's
    /// stats: the chunk count, the container's size, and the stage times,
    /// the open's included.
    pub(crate) fn read_into<K: Sink>(
        &self,
        pool: &WorkerPool,
        batches: impl Iterator<Item = Range<usize>>,
        what: ReadRequest<'_>,
        on_damage: OnDamage,
        sink: &mut K,
    ) -> Result<(ReadReport, CompressionStats), K::Error> {
        if self.decodes_f32(what) {
            self.read_at::<f32, K>(pool, batches, on_damage, sink)
        } else {
            self.read_at::<f64, K>(pool, batches, on_damage, sink)
        }
    }

    /// [`Opened::read_into`] at decode width `S`.
    fn read_at<S: Float, K: Sink>(
        &self,
        pool: &WorkerPool,
        batches: impl Iterator<Item = Range<usize>>,
        on_damage: OnDamage,
        sink: &mut K,
    ) -> Result<(ReadReport, CompressionStats), K::Error> {
        let tasks = &self.tasks;
        let mut statuses = Vec::with_capacity(tasks.len());
        let mut stage_times = self.open_times;
        // The batches decode in the `Sperr`'s working set, given back
        // however the read returns.
        let mut set = self.warm.take::<S>();
        let read = || {
            for batch in batches {
                let settled = self.run_on(pool, &tasks[batch.clone()], &mut set.arenas, on_damage);
                let mut boxes = Vec::with_capacity(settled.len());
                for task in settled {
                    let (samples, status, times) = task?;
                    stage_times.accumulate(&times);
                    statuses.push(status);
                    boxes.push(samples);
                }
                sink.batch(batch, &mut boxes)?;
                set.take_back(boxes);
            }
            Ok::<(), K::Error>(())
        };
        let read = read();
        self.warm.give_back(set);
        read?;
        let report = ReadReport {
            chunk_ids: tasks.iter().map(|t| t.chunk).collect(),
            statuses,
            used_index: self.used_index(),
        };
        let stats = CompressionStats {
            num_chunks: tasks.len(),
            container_bytes: self.container_len,
            stage_times,
            ..CompressionStats::default()
        };
        Ok((report, stats))
    }

    /// Runs the planned tasks on `pool` and folds their results into what
    /// [`Sperr::read`] returns for a read of `what` (all but the stream's
    /// length in the stats).
    fn read_on<T: Float>(
        &self,
        pool: &WorkerPool,
        what: ReadRequest<'_>,
        on_damage: OnDamage,
    ) -> Result<ReadOutput<T>, CompressError> {
        let (tasks, out_dims) = (&self.tasks, self.out_dims);
        if T::BYTES == 4 && !self.decodes_f32(what) {
            return Err(CompressError::Invalid(if self.header.native_f32 {
                "coarse levels are reconstructed at f64; read them as f64".into()
            } else {
                "stream is not f32-native; decode it with decompress() and narrow explicitly".into()
            }));
        }
        let used_index = self.used_index();
        match what {
            ReadRequest::Region { .. } => {
                if !used_index {
                    warn_legacy_region_scan(self.version);
                }
                sperr_telemetry::counter!("region.chunks_touched", tasks.len());
                sperr_telemetry::counter!("region.used_index", used_index as u64);
            }
            ReadRequest::Bpp(_) | ReadRequest::Budgets(_) => {
                let kept = tasks.iter().map(|t| self.entries[t.chunk].speck_len.min(t.budget));
                sperr_telemetry::counter!("preview.kept_speck_bytes", kept.sum::<usize>());
            }
            ReadRequest::Full | ReadRequest::Level(_) => {}
        }

        let origin = match what {
            ReadRequest::Region { lo, .. } => lo,
            _ => [0; 3],
        };
        let mut volume = Volume { opened: self, origin, data: Vec::new() };
        let every_task = std::iter::once(0..tasks.len());
        let (report, mut stats) = self
            .read_into(pool, every_task, what, on_damage, &mut volume)
            .map_err(Stop::into_read_error)?;
        stats.num_points = volume.data.len();
        let field = FieldOf::new(out_dims, volume.data).with_precision(self.header.precision);
        Ok(ReadOutput { field, report, stats })
    }
}

/// The sink of an in-memory read, which runs every task in one batch: the
/// kept boxes placed into a zero-filled volume of the plan's dims whose
/// origin sits at `origin` of the full (at a coarse level: the coarsened)
/// volume. Boxes of damaged chunks stay zero. When the one task's kept box is that
/// whole volume at width `D` — a full read of a one-chunk stream — its
/// buffer is the volume, taken instead of copied.
struct Volume<'r, 'a, D> {
    opened: &'r Opened<'a>,
    origin: [usize; 3],
    data: Vec<D>,
}

impl<D: Float> Sink for Volume<'_, '_, D> {
    type Error = Stop;

    fn batch<S: Float>(&mut self, _: Range<usize>, boxes: &mut [Decoded<S>]) -> Result<(), Stop> {
        let placed = |task: &ChunkTask| {
            let spec = &self.opened.grid[task.chunk];
            let (src_lo, extent) = self.opened.kept_box(task);
            let dst_lo =
                [0, 1, 2].map(|d| (spec.offset[d] >> task.level) + src_lo[d] - self.origin[d]);
            (spec.dims, src_lo, extent, dst_lo)
        };
        let (tasks, out_dims) = (&self.opened.tasks, self.opened.out_dims);
        if let ([task], [Some(samples)]) = (tasks.as_slice(), &mut *boxes) {
            if placed(task) == (out_dims, [0; 3], out_dims, [0; 3]) {
                let same_width: &mut dyn Any = samples;
                if let Some(volume) = same_width.downcast_mut::<Vec<D>>() {
                    self.data = std::mem::take(volume);
                    return Ok(());
                }
            }
        }
        let mut out = vec![D::ZERO; out_dims.iter().product()];
        for (task, samples) in tasks.iter().zip(&*boxes) {
            if let Some(samples) = samples {
                let (src_dims, src_lo, extent, dst_lo) = placed(task);
                copy_box(samples, src_dims, src_lo, extent, &mut out, out_dims, dst_lo);
            }
        }
        self.data = out;
        Ok(())
    }
}

/// What [`Sperr::read`] reconstructs of a stream. The paper's §VII read
/// modes — coarse levels, truncated previews of the embedded stream, and
/// region reads of the chunked volume — are, like the full decode, one
/// plan over independent chunks with different chunk tasks; a request
/// names which. Being an enum, it cannot express a combination no read
/// supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadRequest<'a> {
    /// The whole volume at full fidelity.
    Full,
    /// The sub-box `[lo, hi)`, decoding just the chunks that intersect it
    /// and, inside each, just the box's wavelet support: a field of dims
    /// `hi - lo`, bit-identical to the same slice of a full read (chunks
    /// decode independently, and corrections are point-local).
    Region {
        /// Lower corner, inclusive.
        lo: [usize; 3],
        /// Upper corner, exclusive.
        hi: [usize; 3],
    },
    /// The `1/2^l`-resolution approximation, of dims `⌈dims / 2^l⌉`, from
    /// undoing only the coarser transform levels (§VII multi-level
    /// reconstruction), without outlier corrections (they are
    /// full-resolution data). Needs every chunk to have `l` transform
    /// levels on every axis and, on a multi-chunk stream, `chunk_dims`
    /// divisible by `2^l`. `Level(0)` is `Full`.
    Level(usize),
    /// A preview at a uniform rate: each chunk's SPECK stream cut at the
    /// bytes a `bpp` bits-per-point target implies — the accounting of
    /// [`Sperr::transcode_to_bpp`], so this is bit-identical to decoding
    /// the transcoded stream without materializing it.
    Bpp(f64),
    /// A preview with chunk `c`'s SPECK stream cut at `budgets[c]` bytes
    /// (clamped to its length; `usize::MAX` keeps it all), one budget per
    /// chunk. Truncation is the embedded-coding contract, not corruption:
    /// any budget decodes to a coarser field. Previews skip the outlier
    /// corrections and carry no point-wise error guarantee.
    Budgets(&'a [usize]),
}

/// What a read does with a chunk that fails its checksum or its decode.
/// Damage to the head (magic, header CRC, chunk table, the framing of the
/// lossless wrapper) fails every read: without it nothing can be located.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnDamage {
    /// The read fails, naming its lowest damaged chunk. Whole-volume reads
    /// check every payload checksum before anything decodes.
    Fail,
    /// The chunk's box is left zero-filled and reported in the
    /// [`ReadReport`]; every healthy chunk decodes normally.
    ZeroFill,
}

/// Outcome of one chunk of a read.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkStatus {
    /// Decoded normally.
    Ok,
    /// The v2 payload checksum failed; the chunk was not decoded.
    ChecksumMismatch,
    /// The payload passed its checksum (or the stream is v1) but the
    /// coders rejected it.
    DecodeFailed(CompressError),
}

impl ChunkStatus {
    /// The strict reading of this outcome for chunk `chunk`: anything but
    /// [`ChunkStatus::Ok`] is the error that fails the read.
    pub(crate) fn to_result(&self, chunk: usize) -> Result<(), CompressError> {
        match self {
            ChunkStatus::Ok => Ok(()),
            ChunkStatus::ChecksumMismatch => {
                Err(CompressError::Corrupt(format!("chunk {chunk} payload checksum mismatch")))
            }
            ChunkStatus::DecodeFailed(e) => Err(e.clone()),
        }
    }
}

/// Per-chunk outcomes of a [`Sperr::read`].
#[derive(Debug, Clone)]
pub struct ReadReport {
    /// Grid indices of the chunks the read decoded, ascending: every chunk,
    /// or for a region read those that intersect its box.
    pub chunk_ids: Vec<usize>,
    /// One status per chunk, parallel to `chunk_ids` (all
    /// [`ChunkStatus::Ok`] when an [`OnDamage::Fail`] read returns).
    pub statuses: Vec<ChunkStatus>,
    /// Whether the container-v3 chunk index gave the payload offsets
    /// (false for legacy v1/v2 streams, which fall back to a walk of the
    /// chunk table).
    pub used_index: bool,
}

impl ReadReport {
    /// True when every chunk the read touched decoded cleanly.
    pub fn all_ok(&self) -> bool {
        self.statuses.iter().all(|s| matches!(s, ChunkStatus::Ok))
    }

    /// Grid indices of the chunks that failed (either way), ascending.
    pub fn failed_chunks(&self) -> Vec<usize> {
        let outcomes = self.chunk_ids.iter().zip(&self.statuses);
        outcomes.filter(|(_, s)| !matches!(s, ChunkStatus::Ok)).map(|(&id, _)| id).collect()
    }
}

/// What a [`Sperr::read`] returns.
#[derive(Debug, Clone)]
pub struct ReadOutput<T: Float> {
    /// The volume the request names, carrying the stream's recorded
    /// precision.
    pub field: FieldOf<T>,
    /// Per-chunk outcomes.
    pub report: ReadReport,
    /// Sizes and per-stage wall times of the read (`info --verbose`).
    pub stats: CompressionStats,
}

impl Sperr {
    /// Reads `what` of `stream` at sample width `T`: every in-memory
    /// decode this crate offers, as one open → plan → run → fold.
    ///
    /// **Cost.** Every read touches the container's head (headers, chunk
    /// table, index, checksums) and the planned chunks' payloads, nothing
    /// else: with the lossless pass on, the SLZ1 blocks (128 KiB of
    /// container each) that hold those bytes, each inflated once, on the
    /// read's pool. A [`ReadRequest::Region`] read's cost follows chunks
    /// touched, not stream length; v1/v2 streams carry no index, so the
    /// table is walked (and, for a region read, a once-per-process warning
    /// says so).
    ///
    /// **Damage** ([`OnDamage`]). Under `Fail` a read checks every planned
    /// payload up front — its SLZ1 blocks inflated, its checksum verified —
    /// and fails on the lowest damaged chunk, so damage outside the plan,
    /// even in an SLZ1 block the read does not need, neither slows nor
    /// fails it. Under `ZeroFill` each chunk's outcome is reported instead:
    /// a chunk whose payload overlaps a damaged SLZ1 block or fails its
    /// checksum is left zero, and every other chunk decodes.
    ///
    /// **Width.** `T = f64` reads every stream; f32-native payloads widen
    /// exactly. `T = f32` reads an f32-native stream (precision tag 2) at
    /// its native width, with no f64 on the chunk path. A stream from the
    /// f64 pipeline, or a coarse level (reconstructed at f64), is
    /// `Invalid` at `f32`: narrowing is lossy, so the caller opts in with
    /// `read::<f64>` and [`FieldOf::narrow_lossy`].
    pub fn read<T: Float>(
        &self,
        stream: &[u8],
        what: ReadRequest<'_>,
        on_damage: OnDamage,
    ) -> Result<ReadOutput<T>, CompressError> {
        let what = if what == ReadRequest::Level(0) { ReadRequest::Full } else { what };
        let narrow = T::BYTES == 4;
        let span = match what {
            ReadRequest::Full if narrow => Some("sperr.decompress_f32"),
            ReadRequest::Full => Some("sperr.decompress"),
            ReadRequest::Region { .. } => Some("sperr.decode_region"),
            ReadRequest::Bpp(_) | ReadRequest::Budgets(_) => Some("sperr.decode_at_budgets"),
            ReadRequest::Level(_) => None,
        };
        let _run = span.map(|label| sperr_telemetry::span!(label, stream.len()));
        // A full read's op label follows the payload width, unknown until
        // the head parses — so time manually and record on success.
        let t0 = sperr_telemetry::is_recording().then(Instant::now);
        if let ReadRequest::Bpp(bpp) = what {
            validate_bound(Bound::Bpp(bpp))?;
        }
        let read = |opened: &Opened<'_>, pool: &WorkerPool| {
            let out = opened.read_on(pool, what, on_damage)?;
            Ok::<_, CompressError>((out, opened.header.native_f32))
        };
        let (mut out, native) = self.open(stream, what, on_damage, true, read)??;
        out.stats.output_bytes = stream.len();
        let op = match what {
            ReadRequest::Full if native => Some(metric_labels::OP_DECOMPRESS_F32),
            ReadRequest::Full => Some(metric_labels::OP_DECOMPRESS_F64),
            ReadRequest::Region { .. } => Some(metric_labels::OP_DECODE_REGION),
            ReadRequest::Bpp(_) | ReadRequest::Budgets(_) => Some(metric_labels::OP_DECODE_PREVIEW),
            ReadRequest::Level(_) => None,
        };
        if let (Some(t0), Some(op)) = (t0, op) {
            sperr_telemetry::record_ns(op, t0.elapsed().as_nanos() as u64);
        }
        Ok(out)
    }
}

/// One-time warning that a region read had to walk a legacy container's
/// chunk table. `Once` so a service looping over regions does not flood
/// stderr; the fallback itself is fully supported, just not seekable.
fn warn_legacy_region_scan(version: u8) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "sperr: container v{version} carries no chunk index; decode_region is walking \
             the chunk table instead of seeking (re-encode as container v3 for indexed \
             random access). This warning is printed once per process."
        );
    });
}
