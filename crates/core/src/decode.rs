//! The decode plan: every read this crate offers — full, f32-native,
//! resilient, multi-resolution, region, preview, streaming — is the same
//! three steps, because the paper's chunks are independent by construction
//! (§III-D). This module owns those steps and nothing else.
//!
//! 1. **Open** ([`Opened`]): outer flag → container head → chunk grid
//!    cross-checked against the chunk table → each payload's offset (from
//!    the v3 index, or a walk of the table) → tolerance. Payload bytes sit
//!    behind one accessor, [`Opened::payload`], backed either by the
//!    wholly inflated container ([`Opened::whole`], [`Opened::strict`]) or
//!    by the SLZ1 blocks under the wanted chunks ([`Opened::region`]).
//! 2. **Plan**: a list of [`ChunkTask`]s — which chunk, what of it to
//!    keep, how much of its SPECK stream to read, whether corrections
//!    apply, at which resolution.
//! 3. **Execute** ([`Opened::run_on`]): task `j` runs on the pool with its
//!    worker's arenas through [`Opened::decode_task`] — CRC, split, the
//!    one [`decode_chunk`] — and yields `(samples, status, stage times)`
//!    in task order. The in-memory reads run every task at once
//!    ([`Opened::run`]); streaming runs one batch of whole z-layers at a
//!    time on the same executor.
//!
//! What remains for an entry point is a **fold** of the results: strict
//! reads fail on the first task that did not decode ([`strict`]);
//! resilient and region reads keep the statuses and leave failed boxes
//! zero-filled; all of them place the kept boxes with the one box copy
//! ([`Opened::assemble`]).
//!
//! Everything here walks untrusted chunk tables and decodes untrusted
//! payloads, so the file is listed in `tests/panic_audit.rs`: no panicking
//! construct, typed errors only.

use crate::chunk::{chunk_grid, copy_box, ChunkSpec};
use crate::compressor::{ChunkStatus, Sperr};
use crate::container::{read_container, ChunkEntry, ChunkIndexEntry, Header, Mode, Parsed};
use crate::crc32::crc32;
use crate::outer::{unwrap_outer, Fetched, Framed};
use crate::pipeline::ScratchArena;
use crate::pool::WorkerPool;
use crate::stats::{stage_labels, StageTimes};
use sperr_compress_api::CompressError;
use sperr_simd::Float;
use sperr_telemetry::timed;
use sperr_wavelet::{
    coarse_dims, coarse_scale, inverse_3d_partial_with, levels_for_dims, Kernel, Support,
};
use std::borrow::Cow;
use std::ops::{Deref, Range};

/// One worker's decode scratch at both sample widths, for the drivers
/// that learn a stream's width from its header (a stream decodes at one
/// width only, and an arena costs nothing until it is used).
#[derive(Default)]
pub(crate) struct DecodeArenas {
    pub(crate) wide: ScratchArena<f64>,
    pub(crate) narrow: ScratchArena<f32>,
}

impl DecodeArenas {
    /// Records the footprint of the arena(s) this worker decoded with.
    pub(crate) fn record_footprint(&self) {
        if self.narrow.bytes() > 0 {
            self.narrow.record_footprint();
        }
        if self.wide.bytes() > 0 {
            self.wide.record_footprint();
        }
    }
}

/// One chunk's decode, as the container's chunk table and the read at
/// hand describe it.
pub(crate) struct ChunkJob<'a> {
    /// The SPECK stream, or the prefix of it a preview keeps (truncation
    /// is the embedded-coding contract, not corruption).
    pub speck: &'a [u8],
    /// The outlier stream; empty when there are no corrections or the read
    /// does not apply them (previews, coarse levels).
    pub outliers: &'a [u8],
    /// Chunk extent.
    pub dims: [usize; 3],
    /// SPECK's finest quantization step.
    pub q: f64,
    /// SPECK bitplane count.
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

/// Decompresses one chunk: SPECK decode, inverse wavelet transform on
/// `pool` with `arena`'s panel scratch, outlier corrections. Also reports
/// per-stage wall times for `info --verbose`.
///
/// The read decodes what it returns and no more: the [`Support`] of the
/// kept box — `keep`, or at `level > 0` the coarse corner — names the
/// coefficients SPECK assembles and the lines each inverse step lifts.
/// Inside that box the result is bit-identical to the same samples of a
/// full decode (the support is exact, corrections are point-local, Eq. 1);
/// outside it the buffer holds whatever the restricted inverse left, and
/// corrections are skipped. A box whose support is the whole chunk takes
/// the full read. At `level > 0` the returned buffer still has the chunk's
/// full extent, with the coarse approximation, re-scaled to physical
/// units, in its `[0, coarse_dims)` corner.
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
    let (decoded, speck_time) = timed(stage_labels::SPECK_DECODE, || {
        if support.is_everything() {
            return sperr_speck::decode(job.speck, dims, job.q, job.num_planes);
        }
        let bitmap = support.keep_bitmap().map_err(|_| {
            sperr_speck::DecodeError::LimitExceeded("no memory for the region's keep bitmap")
        })?;
        sperr_speck::decode_masked(job.speck, dims, job.q, job.num_planes, &bitmap)
    });
    let mut coeffs: Vec<T> = decoded?;

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
    let (applied, outlier_time) = timed(stage_labels::OUTLIER_APPLY, || {
        if !job.outliers.is_empty() {
            if !(job.tolerance > 0.0) {
                return Err(CompressError::Corrupt(
                    "outlier stream present but tolerance missing".into(),
                ));
            }
            let corrections =
                sperr_outlier::decode(job.outliers, coeffs.len(), job.tolerance, job.max_n)?;
            for c in corrections {
                if c.pos >= coeffs.len() {
                    return Err(CompressError::Corrupt("outlier position out of range".into()));
                }
                if let Some((lo, hi)) = job.keep {
                    let x = c.pos % dims[0];
                    let y = (c.pos / dims[0]) % dims[1];
                    let z = c.pos / (dims[0] * dims[1]);
                    if x < lo[0] || x >= hi[0] || y < lo[1] || y >= hi[1] || z < lo[2] || z >= hi[2]
                    {
                        continue;
                    }
                }
                // z = x̃ + corr (Eq. 1), applied in f64 and narrowed once
                // so the f32 path pays a single rounding (exact for f64).
                coeffs[c.pos] = T::from_f64(coeffs[c.pos].to_f64() + c.corr);
            }
        }
        Ok(())
    });
    applied?;

    let times = StageTimes {
        wavelet: wavelet_time,
        speck: speck_time,
        outlier_coding: outlier_time,
        ..StageTimes::default()
    };
    Ok((coeffs, times))
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

/// One chunk's decoded samples, at the width they were decoded at.
pub(crate) enum Samples {
    /// From the f64 pipeline.
    Wide(Vec<f64>),
    /// From the f32-native pipeline (precision tag 2).
    Narrow(Vec<f32>),
}

impl Samples {
    /// [`copy_box`] out of these samples, widening on the way when the
    /// destination is wider (exact).
    pub(crate) fn copy_box<D: Float>(
        &self,
        src_dims: [usize; 3],
        src_lo: [usize; 3],
        extent: [usize; 3],
        dst: &mut [D],
        dst_dims: [usize; 3],
        dst_lo: [usize; 3],
    ) {
        match self {
            Samples::Wide(v) => copy_box(v, src_dims, src_lo, extent, dst, dst_dims, dst_lo),
            Samples::Narrow(v) => copy_box(v, src_dims, src_lo, extent, dst, dst_dims, dst_lo),
        }
    }
}

/// What one task yields: the samples (empty unless the status is
/// [`ChunkStatus::Ok`]), the outcome, and the per-stage wall times.
pub(crate) type TaskResult = (Samples, ChunkStatus, StageTimes);

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
    /// for v1, and after [`Opened::verify_crcs`] has checked them all).
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

    /// The plan of a full decode: every chunk, whole.
    pub(crate) fn all_tasks(&self) -> Vec<ChunkTask> {
        (0..self.grid.len()).map(ChunkTask::full).collect()
    }

    /// The plan of a preview: every chunk, its SPECK stream cut at
    /// `budget_of(chunk)` bytes, no corrections.
    pub(crate) fn preview_tasks(&self, budget_of: impl Fn(usize) -> usize) -> Vec<ChunkTask> {
        let cut = |chunk| ChunkTask {
            budget: budget_of(chunk),
            outliers: false,
            ..ChunkTask::full(chunk)
        };
        (0..self.grid.len()).map(cut).collect()
    }

    /// The plan of a `1/2^level`-resolution decode, with the dims of the
    /// coarse volume: every chunk, `level` transform levels left undone,
    /// no corrections.
    pub(crate) fn coarse_tasks(
        &self,
        level: usize,
    ) -> Result<(Vec<ChunkTask>, [usize; 3]), CompressError> {
        let Header { dims, chunk_dims, .. } = self.header;
        // Chunk offsets are multiples of chunk_dims; they must stay
        // aligned after coarsening (single-chunk streams are always fine).
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
                    "resolution level {level} exceeds the chunk's transform depth {levels:?}"
                )));
            }
        }
        // No axis has more than six transform levels, so the shift is in
        // range. Iterated ceil-halving == ceil(n / 2^level).
        let coarse = dims.map(|d| d.div_ceil(1 << level));
        let task = |chunk| ChunkTask { outliers: false, level, ..ChunkTask::full(chunk) };
        Ok(((0..self.grid.len()).map(task).collect(), coarse))
    }

    /// The plan of a region read: one task per chunk intersecting the
    /// half-open box `[lo, hi)`, keeping the chunk-local intersection.
    fn region_tasks(
        &self,
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Result<Vec<ChunkTask>, CompressError> {
        let dims = self.header.dims;
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
        Ok(tasks)
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

/// The container bytes an [`Opened`] stream reads payloads from.
enum Bytes<'a> {
    /// The whole container (borrowed from a raw stream, inflated from a
    /// packed one).
    Whole(Cow<'a, [u8]>),
    /// The SLZ1 blocks under the planned chunks' payloads.
    Sparse(Fetched<'a>),
}

/// A stream opened for decoding: its [`Head`] (reachable through `Deref`,
/// so the metadata reads the same with or without bytes attached) plus the
/// payload bytes the plan needs.
pub(crate) struct Opened<'a> {
    head: Head,
    bytes: Bytes<'a>,
    /// Whether the lossless pass was on.
    pub lossless: bool,
    /// Length of the container behind the outer framing.
    pub container_len: usize,
    /// Wall time of the inflate (`lossless`) and of the parse plus any
    /// up-front CRC pass (`container`); zero on the region path.
    pub open_times: StageTimes,
}

impl Deref for Opened<'_> {
    type Target = Head;

    fn deref(&self) -> &Head {
        &self.head
    }
}

impl<'a> Opened<'a> {
    /// Opens `stream` for a read that needs every payload and leaves
    /// checksum failures to the tasks (resilient decode, `verify`): the
    /// container is inflated whole.
    pub(crate) fn whole(stream: &'a [u8]) -> Result<Self, CompressError> {
        Self::open_whole(stream, false)
    }

    /// [`Opened::whole`] for the strict reads: every payload checksum is
    /// verified before anything decodes ([`Opened::verify_crcs`]), so a
    /// damaged stream fails fast, naming its lowest damaged chunk.
    pub(crate) fn strict(stream: &'a [u8]) -> Result<Self, CompressError> {
        Self::open_whole(stream, true)
    }

    fn open_whole(stream: &'a [u8], verify: bool) -> Result<Self, CompressError> {
        let (unwrapped, lossless_time) =
            timed(stage_labels::LOSSLESS_DECOMPRESS, || unwrap_outer(stream));
        let (container, lossless) = unwrapped?;
        let (opened, container_time) = timed(stage_labels::CONTAINER_READ, || {
            let head = Head::new(read_container(&container)?)?;
            let mut opened = Opened {
                head,
                lossless,
                container_len: container.len(),
                bytes: Bytes::Whole(container),
                open_times: StageTimes::default(),
            };
            if verify {
                opened.verify_crcs()?;
            }
            Ok::<_, CompressError>(opened)
        });
        let mut opened = opened?;
        if lossless {
            opened.open_times.lossless = lossless_time;
        }
        opened.open_times.container = container_time;
        Ok(opened)
    }

    /// Opens `stream` for a read of the sub-box `[lo, hi)` and plans it.
    /// Only the head and the SLZ1 blocks under the planned chunks'
    /// payloads are inflated — cost follows chunks touched, and damage
    /// elsewhere in the stream, even inside the lossless wrapper, is never
    /// looked at. A needed block that fails to inflate fails the tasks
    /// whose payloads overlap it, not the call.
    pub(crate) fn region(
        stream: &'a [u8],
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Result<(Self, Vec<ChunkTask>), CompressError> {
        let framed = Framed::open(stream)?;
        let head = Head::new(framed.read_head()?)?;
        let tasks = head.region_tasks(lo, hi)?;
        let wanted: Vec<_> = tasks.iter().map(|t| head.payload_range(t.chunk)).collect();
        let opened = Opened {
            head,
            bytes: Bytes::Sparse(framed.fetch(&wanted)?),
            lossless: framed.lossless(),
            container_len: framed.container_len(),
            open_times: StageTimes::default(),
        };
        Ok((opened, tasks))
    }

    /// `chunk`'s payload bytes: SPECK stream, then outlier stream.
    pub(crate) fn payload(&self, chunk: usize) -> Result<&[u8], CompressError> {
        let range = self.payload_range(chunk);
        match &self.bytes {
            Bytes::Whole(container) => container.get(range).ok_or_else(|| {
                CompressError::Truncated("container shorter than its chunk table declares".into())
            }),
            Bytes::Sparse(fetched) => fetched.get(range),
        }
    }

    /// Chunks whose payload fails its checksum, ascending (none on a v1
    /// stream, which carries no checksums).
    pub(crate) fn corrupt_chunks(&self) -> impl Iterator<Item = usize> + '_ {
        let crcs = self.crcs.as_deref().unwrap_or(&[]);
        let bad = |&(chunk, &crc): &(usize, &u32)| {
            !self.payload(chunk).is_ok_and(|payload| crc32(payload) == crc)
        };
        crcs.iter().enumerate().filter(bad).map(|(chunk, _)| chunk)
    }

    /// Checks every payload checksum now, failing on the lowest damaged
    /// chunk. Having passed, the table is dropped, so tasks do not check
    /// each payload a second time.
    pub(crate) fn verify_crcs(&mut self) -> Result<(), CompressError> {
        if let Some(chunk) = self.corrupt_chunks().next() {
            return ChunkStatus::ChecksumMismatch.to_result(chunk);
        }
        self.head.crcs = None;
        Ok(())
    }

    /// Runs one task: checksum, split, decode at the stream's width. The
    /// one place a chunk gets decoded, for every read.
    fn decode_task(
        &self,
        task: &ChunkTask,
        pool: &WorkerPool,
        arenas: &mut DecodeArenas,
    ) -> TaskResult {
        let failed = |status| (Samples::Wide(Vec::new()), status, StageTimes::default());
        let payload = match self.payload(task.chunk) {
            Ok(payload) => payload,
            // The payload's SLZ1 block did not inflate.
            Err(e) => return failed(ChunkStatus::DecodeFailed(e)),
        };
        if let Some(crcs) = &self.crcs {
            if crc32(payload) != crcs[task.chunk] {
                // Known-bad payload: don't even hand it to the coders.
                return failed(ChunkStatus::ChecksumMismatch);
            }
        }
        let e = &self.entries[task.chunk];
        let (speck, outliers) = payload.split_at(e.speck_len);
        let job = ChunkJob {
            speck: &speck[..e.speck_len.min(task.budget)],
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
        // f32-native payloads decode at their native width; every f64
        // surface widens them exactly on assembly. Coarse levels have
        // always been reconstructed at f64, whatever the payload's width.
        let decoded = if self.header.native_f32 && task.level == 0 {
            decode_chunk(&job, pool, &mut arenas.narrow).map(|(v, t)| (Samples::Narrow(v), t))
        } else {
            decode_chunk(&job, pool, &mut arenas.wide).map(|(v, t)| (Samples::Wide(v), t))
        };
        match decoded {
            Ok((samples, times)) => (samples, ChunkStatus::Ok, times),
            Err(e) => failed(ChunkStatus::DecodeFailed(e)),
        }
    }

    /// The executor of the in-memory reads: [`Opened::run_on`] a pool sized
    /// by `sperr` for the chunks `tasks` touch.
    pub(crate) fn run(&self, sperr: &Sperr, tasks: &[ChunkTask]) -> Vec<TaskResult> {
        let threads = sperr.effective_threads(tasks.iter().map(|t| &self.grid[t.chunk]));
        WorkerPool::scoped(threads, |pool| {
            let mut arenas = Vec::new();
            let results = self.run_on(pool, tasks, &mut arenas, |_, decode| decode());
            arenas.iter().for_each(DecodeArenas::record_footprint);
            results
        })
    }

    /// The executor: task `j` runs as `guard(j, decode)` on the `pool`
    /// worker that claims it, with that worker's arenas (kept across calls),
    /// results in task order. Scheduling does not depend on the width or the
    /// kind of read, so every surface is thread-count deterministic alike.
    pub(crate) fn run_on<R: Send>(
        &self,
        pool: &WorkerPool,
        tasks: &[ChunkTask],
        arenas: &mut Vec<DecodeArenas>,
        guard: impl Fn(usize, &mut dyn FnMut() -> TaskResult) -> R + Sync,
    ) -> Vec<R> {
        pool.map_with_state(tasks.len(), arenas, |j, arenas| {
            guard(j, &mut || self.decode_task(&tasks[j], pool, arenas))
        })
    }

    /// Places every decoded task's kept box into a zero-filled volume of
    /// `out_dims` whose origin sits at `origin` of the full (at a coarse
    /// level: the coarsened) volume. Boxes of failed tasks stay zero.
    pub(crate) fn assemble<D: Float>(
        &self,
        tasks: &[ChunkTask],
        results: &[TaskResult],
        origin: [usize; 3],
        out_dims: [usize; 3],
    ) -> Vec<D> {
        let mut out = vec![D::ZERO; out_dims.iter().product()];
        for (task, (samples, status, _)) in tasks.iter().zip(results) {
            if !matches!(status, ChunkStatus::Ok) {
                continue;
            }
            let spec = &self.grid[task.chunk];
            let (src_lo, extent) = self.kept_box(task);
            let dst_lo = [0, 1, 2].map(|d| (spec.offset[d] >> task.level) + src_lo[d] - origin[d]);
            samples.copy_box(spec.dims, src_lo, extent, &mut out, out_dims, dst_lo);
        }
        out
    }
}

/// The strict fold: the first task, in task order, that did not decode
/// fails the read. (The strict whole-container reads verify every checksum
/// on opening, so for them this is the lowest-index decode failure.)
pub(crate) fn strict(tasks: &[ChunkTask], results: &[TaskResult]) -> Result<(), CompressError> {
    tasks.iter().zip(results).try_for_each(|(task, (_, status, _))| status.to_result(task.chunk))
}
