//! The top-level SPERR compressor: chunking, the parallel chunk loop of both
//! compress drivers (§III-D), container assembly and the lossless post-pass
//! (§V), plus the reads that re-frame a stream instead of decoding it. Every
//! in-memory decode is [`Sperr::read`] ([`crate::decode`]); the few named
//! reads left here are one-line calls of it.

use crate::chunk::{chunk_grid, ChunkSpec};
use crate::container::{
    write_container, write_container_into, ChunkIndexEntry, Header, Mode, VERSION, VERSION_V1,
    VERSION_V2,
};
use crate::decode::{Opened, OnDamage, ReadReport, ReadRequest};
use crate::outer::{wrap_outer, Framed};
use crate::pipeline::{compress_chunk, ChunkEncoding, ChunkMode, Refusal, ScratchArena};
use crate::stats::{metric_labels, stage_labels, CompressionStats};
use crate::warm::{Warm, WorkingSet};
use sperr_compress_api::{Bound, CompressError, Field, FieldOf, LossyCompressor, Precision};
use sperr_exec::WorkerPool;
use sperr_simd::Float;
use sperr_telemetry::timed;
use sperr_wavelet::{Kernel, PANEL_W};

/// Amortized per-chunk container overhead charged against the bit budget
/// in size-bounded mode (chunk-table entry + share of the header).
pub(crate) const PER_CHUNK_HEADER_BITS: usize = 26 * 8;

/// Bytes of a chunk's SPECK stream a `bpp` bits-per-point target keeps:
/// the chunk's share of the rate minus the per-chunk container overhead.
/// One formula for [`ReadRequest::Bpp`] and [`Sperr::transcode_to_bpp`],
/// so the preview is bit-identical to decoding the transcoded stream.
pub(crate) fn preview_budget_bytes(bpp: f64, spec: &ChunkSpec) -> usize {
    ((bpp * spec.len() as f64) as usize / 8).saturating_sub(PER_CHUNK_HEADER_BITS / 8)
}

/// Checks a bound's value and names the termination mode it selects.
pub(crate) fn validate_bound(bound: Bound) -> Result<(Mode, f64), CompressError> {
    let (mode, value, what) = match bound {
        Bound::Pwe(t) => (Mode::Pwe, t, "tolerance"),
        Bound::Bpp(r) => (Mode::Bpp, r, "bitrate"),
        // §VII extension: average-error-targeted compression via the
        // near-orthogonality of the transform.
        Bound::Psnr(p) => (Mode::Rmse, p, "PSNR target"),
    };
    if !(value > 0.0) || !value.is_finite() {
        return Err(CompressError::Invalid(format!("invalid {what} {value}")));
    }
    Ok((mode, value))
}

/// Configuration for [`Sperr`].
#[derive(Debug, Clone)]
pub struct SperrConfig {
    /// Chunk extent; the volume is partitioned into chunks of at most this
    /// size. The paper's default is 256³ (§V-B); it need not divide the
    /// volume dimensions.
    pub chunk_dims: [usize; 3],
    /// SPECK quantization step as a multiple of the PWE tolerance:
    /// `q = q_factor · t`. The paper settles on 1.5 (§IV-D).
    pub q_factor: f64,
    /// Wavelet kernel (CDF 9/7 in the paper; others for ablations).
    pub kernel: Kernel,
    /// Apply the lossless post-pass to the final container (§V; on by
    /// default, standing in for ZSTD).
    pub lossless: bool,
    /// Worker threads for chunk-parallel execution; 0 = one per available
    /// core.
    pub num_threads: usize,
    /// Bound on the chunks the streaming pipeline
    /// ([`Sperr::compress_stream`] / [`Sperr::decompress_stream`]) keeps
    /// in flight at once (raw samples or decoded buffers); back-pressure
    /// blocks the ingest/emit side when the budget is exhausted. 0 = auto
    /// (2 × worker threads). The effective budget is never below the number
    /// of chunks in one z-layer of the chunk grid — a row-major stream
    /// cannot complete any chunk of a layer without buffering the whole
    /// layer.
    pub in_flight_chunks: usize,
}

impl Default for SperrConfig {
    fn default() -> Self {
        SperrConfig {
            chunk_dims: [256, 256, 256],
            q_factor: 1.5,
            kernel: Kernel::Cdf97,
            lossless: true,
            num_threads: 0,
            in_flight_chunks: 0,
        }
    }
}

/// The SPERR compressor. See the crate docs for the pipeline description.
///
/// Between calls a `Sperr` retains up to one chunk's working set per
/// worker — the largest chunk's coefficient, wavelet, SPECK and outlier
/// buffers — plus the last compress's container buffer and lossless
/// parse tables, so a caller that compresses repeatedly through one
/// `Sperr` allocates them once; its reads decode in the same memory. The
/// memory goes with the `Sperr`; a clone or a default starts without it.
/// Calls on one `Sperr` from several threads stay correct and never wait
/// on each other: a call that finds the set in use works in fresh memory.
/// No byte of any stream or sample depends on what is retained.
#[derive(Debug, Clone, Default)]
pub struct Sperr {
    config: SperrConfig,
    warm: Warm,
}

/// One chunk's encode: its encoding, or why the coder refused it.
pub(crate) type Encoded = Result<ChunkEncoding, Refusal>;

/// What the two compress drivers share: the termination mode resolved once
/// per call, the chunk loop it drives, and the sealing of the encoded
/// chunks into the final stream.
pub(crate) struct CompressRun<'a> {
    config: &'a SperrConfig,
    /// Extent of the volume being compressed.
    dims: [usize; 3],
    mode: Mode,
    bound_value: f64,
    /// RMSE each chunk targets in [`Mode::Rmse`]; needs the whole field's
    /// range, so the in-memory driver fills it in.
    rmse_target: f64,
}

impl CompressRun<'_> {
    /// Encodes one batch of chunks on `pool`, in batch order — the chunk
    /// loop of both compress drivers. `slab` is whole z-planes of the
    /// volume from the first chunk's z-offset on, holding every chunk of
    /// `specs`: in memory the field itself (one batch of every chunk),
    /// streaming the batch's z-layers. Each chunk coder reads its rows
    /// straight from it. `specs[j]`'s encode runs as `guard(j, encode)` on
    /// the worker that claims it; `scratch` keeps each worker's arena
    /// across batches. Failures fold whatever the scheduling: the guard
    /// error of the lowest chunk, else `refused(j, refusal)` for the
    /// non-finite sample at the lowest linear index of the volume, else for
    /// the lowest chunk whose transform overflowed or whose step the coder
    /// cannot use.
    pub(crate) fn encode_batch<T: Float, E: Send>(
        &self,
        specs: &[ChunkSpec],
        slab: &[T],
        pool: &WorkerPool,
        scratch: &mut Vec<ScratchArena<T>>,
        guard: impl Fn(usize, &mut dyn FnMut() -> Encoded) -> Result<Encoded, E> + Sync,
        refused: impl Fn(usize, Refusal) -> E,
    ) -> Result<Vec<ChunkEncoding>, E> {
        let z0 = specs.first().map_or(0, |spec| spec.offset[2]);
        let plane = self.dims[0] * self.dims[1];
        let slab_dims = [self.dims[0], self.dims[1], slab.len() / plane];
        let encoded = pool.map_with_state(specs.len(), scratch, |j, arena| {
            guard(j, &mut || {
                let mut spec = specs[j];
                spec.offset[2] -= z0;
                let (mode, kernel) = (self.chunk_mode(&spec), self.config.kernel);
                let encoded = compress_chunk(slab, slab_dims, &spec, mode, kernel, pool, arena);
                encoded.map_err(|refusal| match refusal {
                    Refusal::NonFinite { index, value } => {
                        Refusal::NonFinite { index: index + z0 * plane, value }
                    }
                    overflow => overflow,
                })
            })
        });
        let encoded = encoded.into_iter().collect::<Result<Vec<Encoded>, E>>()?;
        let refusals = encoded.iter().enumerate();
        let refusals = refusals.filter_map(|(j, e)| Some((j, *e.as_ref().err()?)));
        let first = refusals.min_by_key(|&(j, refusal)| match refusal {
            Refusal::NonFinite { index, .. } => (0, index),
            Refusal::Overflow | Refusal::Step { .. } => (1, j),
        });
        if let Some((j, refusal)) = first {
            return Err(refused(j, refusal));
        }
        Ok(encoded.into_iter().flatten().collect())
    }

    /// What the run's termination mode asks of the coder of `spec`.
    fn chunk_mode(&self, spec: &ChunkSpec) -> ChunkMode {
        match self.mode {
            Mode::Pwe => ChunkMode::Pwe { t: self.bound_value, q_factor: self.config.q_factor },
            // Per-chunk bit budget: the raw target minus the amortized
            // chunk-table overhead, so the final container lands at or
            // under the requested rate.
            Mode::Bpp => ChunkMode::Bpp {
                budget_bits: ((self.bound_value * spec.len() as f64) as usize)
                    .saturating_sub(PER_CHUNK_HEADER_BITS),
            },
            Mode::Rmse => ChunkMode::Rmse { target_rmse: self.rmse_target },
        }
    }

    /// Seals the encoded chunks of the run's volume into the final stream:
    /// folds their accounting into the run's statistics, writes the
    /// container and frames it, the lossless pass (when on) running its
    /// blocks on `pool` — both in the memory of `set`. The sample type `T`
    /// the chunks were encoded from selects the payload-width tag.
    ///
    /// Refuses — naming the chunk — when a PWE-bounded f64 chunk knows it
    /// missed the bound: `ChunkEncoding::max_err` is the exact error a
    /// decode will show, and `max|x − x̂| <= t` is the contract of the
    /// mode (a tolerance below what the quantizer's 2^62 cap and the
    /// outlier coder can express ends above it). f32-native chunks are
    /// held to the range-relative budget of DESIGN.md §15 instead, which
    /// needs the whole field's range and is not checked here.
    pub(crate) fn seal_container<T: Float>(
        &self,
        precision: Precision,
        encoded: &[ChunkEncoding],
        pool: &WorkerPool,
        set: &mut WorkingSet<T>,
    ) -> Result<(Vec<u8>, CompressionStats), (usize, CompressError)> {
        let cfg = self.config;
        if let (Mode::Pwe, 8) = (self.mode, T::BYTES) {
            let t = self.bound_value;
            if let Some((chunk, enc)) = encoded.iter().enumerate().find(|(_, e)| e.max_err > t) {
                let max_err = enc.max_err;
                return Err((
                    chunk,
                    CompressError::Invalid(format!(
                        "PWE tolerance {t:e} cannot be met: chunk {chunk} ends at max error \
                         {max_err:e} (the tolerance is below what the coders can express \
                         for this data)"
                    )),
                ));
            }
        }
        let mut stats = CompressionStats {
            num_points: self.dims.iter().product(),
            num_chunks: encoded.len(),
            ..CompressionStats::default()
        };
        for enc in encoded {
            sperr_telemetry::record_bytes(
                metric_labels::SIZE_CHUNK_SPECK,
                enc.speck_stream.len() as u64,
            );
            stats.speck_bits += enc.speck_bits;
            stats.outlier_bits += enc.outlier_bits;
            stats.num_outliers += enc.num_outliers as usize;
            stats.stage_times.accumulate(&enc.times);
            stats.coeff_sq_error += enc.coeff_sq_error;
        }
        let header = Header {
            mode: self.mode,
            kernel: cfg.kernel,
            precision,
            native_f32: T::BYTES == 4,
            dims: self.dims,
            chunk_dims: cfg.chunk_dims,
            bound_value: self.bound_value,
            n_chunks: encoded.len(),
        };
        let memory = std::mem::take(&mut set.container);
        let (container, container_time) = timed(stage_labels::CONTAINER_WRITE, || {
            write_container_into(&header, encoded, VERSION, memory)
        });
        stats.container_bytes = container.len();
        stats.stage_times.container = container_time;

        let encoders = &mut set.lossless;
        let out = if cfg.lossless {
            let (out, lossless_time) = timed(stage_labels::LOSSLESS_COMPRESS, || {
                wrap_outer(&container, true, pool, encoders)
            });
            stats.stage_times.lossless = lossless_time;
            out
        } else {
            wrap_outer(&container, false, pool, encoders)
        };
        set.container = container;
        stats.output_bytes = out.len();
        sperr_telemetry::record_bytes(metric_labels::SIZE_OUTPUT, out.len() as u64);
        Ok((out, stats))
    }
}

impl Sperr {
    /// Creates a compressor with the given configuration.
    pub fn new(config: SperrConfig) -> Self {
        assert!(
            config.q_factor.is_finite() && config.q_factor > 0.0,
            "q_factor must be finite and positive"
        );
        assert!(config.chunk_dims.iter().all(|&d| d > 0), "chunk dims must be positive");
        Sperr { config, warm: Warm::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> &SperrConfig {
        &self.config
    }

    /// The working set kept between calls.
    pub(crate) fn warm(&self) -> &Warm {
        &self.warm
    }

    /// Worker count for the pool, clamped to the parallelism actually
    /// available in `chunks`. Deliberately *not* clamped to the chunk
    /// count alone — a single-chunk volume still uses every thread
    /// through the intra-chunk (wavelet-panel / elementwise-sweep)
    /// parallelism — but bounded by those inner job counts, so a tiny
    /// volume on a many-core machine does not spawn workers that
    /// outnumber the jobs they would run.
    pub(crate) fn effective_threads<'a>(
        &self,
        chunks: impl IntoIterator<Item = &'a ChunkSpec>,
    ) -> usize {
        let t = if self.config.num_threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.config.num_threads
        };
        // Useful-worker ceiling: the outer chunk jobs, or — in the
        // few-chunk regime where the inner levels fan out instead — the
        // strided-pass job count of the largest chunk (lines along the
        // non-transformed axis × panels along x; see `apply_axis_blocked`
        // in `sperr-wavelet`).
        let (n_chunks, panel_jobs) = chunks.into_iter().fold((0, 0), |(n, jobs), c| {
            (n + 1, jobs.max(c.dims[1].max(c.dims[2]) * c.dims[0].div_ceil(PANEL_W)))
        });
        t.min(n_chunks.max(panel_jobs)).max(1)
    }

    /// Compresses `field` and returns the stream together with cost/timing
    /// statistics (the instrumentation behind Figs. 2, 4 and 6). The sample
    /// type selects the pipeline: `f64` fields run the double-precision
    /// one; `f32` fields run every hot-path stage (wavelet, SPECK
    /// quantization, outlier scan) at single precision and mark the stream
    /// f32-native (precision tag 2), so `read::<f32>` reconstructs it
    /// without an f64 round-trip. The PWE guarantee holds against the
    /// samples as given.
    pub fn compress_with_stats<T: Float>(
        &self,
        field: &FieldOf<T>,
        bound: Bound,
    ) -> Result<(Vec<u8>, CompressionStats), CompressError> {
        if field.is_empty() {
            return Err(CompressError::Invalid("empty field".into()));
        }
        let native_f32 = T::BYTES == 4;
        let _run = sperr_telemetry::span!("sperr.compress", field.len());
        let _op = sperr_telemetry::OpTimer::new(if native_f32 {
            metric_labels::OP_COMPRESS_F32
        } else {
            metric_labels::OP_COMPRESS_F64
        });
        let mut run = self.compress_run(bound, field.dims)?;
        if let Mode::Rmse = run.mode {
            // PSNR targets translate to an RMSE target over the whole
            // field's range; a zero-range (constant) field quantizes
            // relative to its magnitude.
            let range = field.range();
            if !range.is_finite() {
                // An infinite sample, or finite ones whose spread
                // overflows: no target exists either way.
                let bad = field.data.iter().position(|v| !v.is_finite());
                return Err(bad.map_or_else(
                    || CompressError::Invalid(format!("field range {range} is not finite")),
                    |index| {
                        let value = field.data[index].to_f64();
                        Refusal::NonFinite { index, value }.into_error(0)
                    },
                ));
            }
            run.rmse_target = if range > 0.0 {
                range / 10f64.powf(run.bound_value / 20.0)
            } else {
                let max_abs = field.data.iter().fold(0.0f64, |m, &v| m.max(v.to_f64().abs()));
                max_abs.max(1.0) * f64::exp2(-40.0)
            };
            if run.rmse_target <= 0.0 {
                return Err(CompressError::Invalid(format!(
                    "PSNR target {} dB is out of reach: the RMSE it asks of a range of {range} \
                     is zero",
                    run.bound_value
                )));
            }
        }
        let grid = chunk_grid(field.dims, self.config.chunk_dims);
        // One pool for the whole call: the chunk encodes, then the blocks
        // of the lossless pass over the assembled container, all in the
        // working set this `Sperr` keeps.
        let mut set = self.warm.take::<T>();
        let sealed = WorkerPool::scoped(self.effective_threads(&grid), |pool| {
            let encoded = run.encode_batch(
                &grid,
                &field.data,
                pool,
                &mut set.arenas,
                |_, encode| Ok(encode()),
                |chunk, refusal| refusal.into_error(chunk),
            )?;
            let precision = if native_f32 { Precision::Single } else { field.precision };
            let sealed = run.seal_container(precision, &encoded, pool, &mut set);
            set.reclaim(encoded);
            sealed.map_err(|(_, refused)| refused)
        });
        self.warm.give_back(set);
        sealed
    }

    /// `compress_with_stats(field, bound)` without the statistics. Kept
    /// because the benchmark harness calls it by this name.
    pub fn compress_f32(
        &self,
        field: &FieldOf<f32>,
        bound: Bound,
    ) -> Result<Vec<u8>, CompressError> {
        self.compress_with_stats(field, bound).map(|(stream, _)| stream)
    }

    /// Validates `bound` and resolves it, with the configuration, into the
    /// per-call state both compress drivers work from for a `dims` volume.
    pub(crate) fn compress_run(
        &self,
        bound: Bound,
        dims: [usize; 3],
    ) -> Result<CompressRun<'_>, CompressError> {
        let (mode, bound_value) = validate_bound(bound)?;
        Ok(CompressRun { config: &self.config, dims, mode, bound_value, rmse_target: 0.0 })
    }

    /// Inspects a SPERR stream without decoding it: dimensions, mode,
    /// chunking and per-chunk stream sizes. Reads the container's head
    /// only — on a lossless-packed stream that inflates the head's bytes
    /// and no payload.
    pub fn inspect(&self, stream: &[u8]) -> Result<StreamInfo, CompressError> {
        let framed = Framed::open(stream)?;
        let lossless = framed.lossless();
        let parsed = framed.read_head()?;
        Ok(StreamInfo {
            dims: parsed.header.dims,
            chunk_dims: parsed.header.chunk_dims,
            mode: parsed.header.mode,
            bound_value: parsed.header.bound_value,
            n_chunks: parsed.header.n_chunks,
            precision: parsed.header.precision,
            native_f32: parsed.header.native_f32,
            lossless,
            speck_bytes: parsed.entries.iter().map(|e| e.speck_len).sum(),
            outlier_bytes: parsed.entries.iter().map(|e| e.outlier_len).sum(),
            version: parsed.version,
            payload_offset: parsed.payload_start,
            chunk_payload_sizes: parsed
                .entries
                .iter()
                .map(|e| e.speck_len + e.outlier_len)
                .collect(),
            chunk_index: parsed.index,
        })
    }

    /// Verifies a stream's integrity without running the (much more
    /// expensive) SPECK decode: the open of a full read — header CRC
    /// checked by the container parser, every payload fetched — then each
    /// chunk's payload CRC recomputed. A chunk whose payload overlaps an
    /// SLZ1 block that does not inflate is listed as corrupt too. v1
    /// streams carry no checksums — the report says so via
    /// [`VerifyReport::checksummed`].
    pub fn verify(&self, stream: &[u8]) -> Result<VerifyReport, CompressError> {
        self.open(stream, ReadRequest::Full, OnDamage::ZeroFill, false, |opened, _| VerifyReport {
            version: opened.version,
            checksummed: opened.checksummed(),
            n_chunks: opened.header.n_chunks,
            corrupt_chunks: opened.corrupt_chunks().collect(),
        })
    }

    /// `read::<f64>(stream, Region { lo, hi }, ZeroFill)` as a pair: the
    /// sub-box `[lo, hi)`, damaged chunks zero-filled and reported. Kept
    /// because the benchmark harness calls it by this name.
    pub fn decode_region(
        &self,
        stream: &[u8],
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Result<(Field, ReadReport), CompressError> {
        let out = self.read(stream, ReadRequest::Region { lo, hi }, OnDamage::ZeroFill)?;
        Ok((out.field, out.report))
    }

    /// `read::<f64>(stream, Bpp(bpp), Fail)`'s field: a preview at a
    /// uniform rate. Kept because the benchmark harness calls it by this
    /// name.
    pub fn decode_at_bpp(&self, stream: &[u8], bpp: f64) -> Result<Field, CompressError> {
        Ok(self.read(stream, ReadRequest::Bpp(bpp), OnDamage::Fail)?.field)
    }

    /// `read::<f32>(stream, Full, Fail)`'s field: an f32-native stream at
    /// its native width (a stream from the f64 pipeline is `Invalid`). Kept
    /// because the benchmark harness calls it by this name.
    pub fn decompress_f32(&self, stream: &[u8]) -> Result<FieldOf<f32>, CompressError> {
        Ok(self.read(stream, ReadRequest::Full, OnDamage::Fail)?.field)
    }

    /// Re-rates an existing SPERR stream to a (lower) size target without
    /// re-encoding, by truncating each chunk's embedded SPECK stream (§VII:
    /// "any prefix of the bitstream can reconstruct a less-accurate
    /// version of the data"). Outlier corrections are dropped — the result
    /// is a size-bounded stream with no error guarantee.
    pub fn transcode_to_bpp(&self, stream: &[u8], bpp: f64) -> Result<Vec<u8>, CompressError> {
        validate_bound(Bound::Bpp(bpp))?;
        self.open(stream, ReadRequest::Full, OnDamage::Fail, false, |opened, pool| {
            let cut = |chunk| {
                let budget = preview_budget_bytes(bpp, &opened.grid[chunk]);
                stored_chunk(opened, chunk, budget, false)
            };
            let chunks = (0..opened.grid.len()).map(cut).collect::<Result<Vec<_>, _>>()?;
            let header = Header { mode: Mode::Bpp, bound_value: bpp, ..opened.header.clone() };
            // Keep the source stream's container version (v1 sources stay
            // at v2: the writer no longer emits v1 except via
            // `downgrade_to_v1`).
            let container = write_container(&header, &chunks, opened.version.max(VERSION_V2));
            Ok(wrap_outer(&container, opened.lossless, pool, &mut Default::default()))
        })?
    }

    /// Re-frames a stream as a legacy **container v1** (checksum-free)
    /// stream with byte-identical chunk payloads, preserving the outer
    /// lossless framing. Real v1 streams predate this repo's checksummed
    /// container; this is how the conformance suite regenerates its
    /// committed v1 back-compat fixture without keeping an old encoder
    /// around. The result must always decode to exactly the same field as
    /// the input stream.
    pub fn downgrade_to_v1(&self, stream: &[u8]) -> Result<Vec<u8>, CompressError> {
        self.reframe(stream, VERSION_V1)
    }

    /// Re-frames a stream as a **container v2** (checksummed, index-free)
    /// stream with byte-identical chunk payloads, preserving the outer
    /// lossless framing. The v3 → v2 downgrade drops only the chunk
    /// index, which is derived data — the result must always decode to
    /// exactly the same field as the input stream. Used by the
    /// conformance suite to prove the v3 fixtures are v2 goldens plus an
    /// index and nothing else.
    pub fn downgrade_to_v2(&self, stream: &[u8]) -> Result<Vec<u8>, CompressError> {
        self.reframe(stream, VERSION_V2)
    }

    /// Re-frames `stream` as a container of `version` with byte-identical
    /// chunk payloads, preserving the outer lossless framing.
    fn reframe(&self, stream: &[u8], version: u8) -> Result<Vec<u8>, CompressError> {
        self.open(stream, ReadRequest::Full, OnDamage::Fail, false, |opened, pool| {
            let chunks = (0..opened.grid.len())
                .map(|chunk| stored_chunk(opened, chunk, usize::MAX, true))
                .collect::<Result<Vec<_>, _>>()?;
            let container = write_container(&opened.header, &chunks, version);
            Ok(wrap_outer(&container, opened.lossless, pool, &mut Default::default()))
        })?
    }

}

/// `chunk` of `opened` as the container stores it, re-packaged for the
/// container writer with its SPECK stream cut at `speck_budget` bytes and,
/// unless `outliers`, its corrections dropped. `max_err` is NaN: a cut
/// voids the recorded bound, and re-framing does not carry it.
fn stored_chunk(
    opened: &Opened<'_>,
    chunk: usize,
    speck_budget: usize,
    outliers: bool,
) -> Result<ChunkEncoding, CompressError> {
    let e = &opened.entries[chunk];
    let (speck, outlier) = opened.payload(chunk)?.split_at(e.speck_len);
    let speck = &speck[..e.speck_len.min(speck_budget)];
    let outlier = if outliers { outlier } else { &[] };
    Ok(ChunkEncoding {
        speck_stream: speck.to_vec(),
        outlier_stream: outlier.to_vec(),
        q: e.q,
        num_planes: e.num_planes,
        max_n: if outliers { e.max_n } else { 0 },
        num_outliers: if outliers { e.num_outliers } else { 0 },
        speck_bits: speck.len() * 8,
        outlier_bits: outlier.len() * 8,
        times: Default::default(),
        coeff_sq_error: 0.0,
        max_err: f64::NAN,
    })
}

/// Result of a checksum-only integrity pass (see [`Sperr::verify`]).
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Container format version (1, 2 or 3).
    pub version: u8,
    /// Whether the stream carries checksums at all (v2 and v3; not v1).
    pub checksummed: bool,
    /// Number of chunks in the stream.
    pub n_chunks: usize,
    /// Indices of chunks whose payload CRC failed, or whose payload
    /// overlaps an SLZ1 block that did not inflate.
    pub corrupt_chunks: Vec<usize>,
}

impl VerifyReport {
    /// True when every payload fetched and no checksum failed (on a v1
    /// stream only the fetch can fail — check [`Self::checksummed`] to tell
    /// the difference).
    pub fn is_ok(&self) -> bool {
        self.corrupt_chunks.is_empty()
    }
}

/// Metadata describing a SPERR stream (see [`Sperr::inspect`]).
#[derive(Debug, Clone)]
pub struct StreamInfo {
    /// Full-resolution volume dimensions.
    pub dims: [usize; 3],
    /// Chunk extent used at compression time.
    pub chunk_dims: [usize; 3],
    /// Termination mode.
    pub mode: Mode,
    /// The bound's value: tolerance (PWE), bits-per-point (BPP) or PSNR
    /// target in dB (RMSE mode).
    pub bound_value: f64,
    /// Number of chunks.
    pub n_chunks: usize,
    /// Source precision recorded in the header.
    pub precision: Precision,
    /// Whether the SPECK payload is f32-native (precision tag 2). When
    /// false with `precision == Single`, the stream is a legacy
    /// widen-at-ingest encode whose payload is f64.
    pub native_f32: bool,
    /// Whether the lossless post-pass was applied.
    pub lossless: bool,
    /// Total SPECK payload bytes across chunks.
    pub speck_bytes: usize,
    /// Total outlier payload bytes across chunks.
    pub outlier_bytes: usize,
    /// Container format version (1 = legacy, 2 = checksummed,
    /// 3 = checksummed + chunk index).
    pub version: u8,
    /// Byte offset of the first chunk payload *within the container*
    /// (add 1 for the outer flag byte when `lossless` is false; for
    /// lossless streams the container is not byte-addressable from the
    /// outside).
    pub payload_offset: usize,
    /// Per-chunk payload sizes (SPECK + outlier bytes), in chunk order.
    pub chunk_payload_sizes: Vec<usize>,
    /// The v3 chunk index (offset, length, grid coordinates, max error
    /// per chunk), validated against the chunk table; `None` for v1/v2.
    pub chunk_index: Option<Vec<ChunkIndexEntry>>,
}

impl LossyCompressor for Sperr {
    fn name(&self) -> &'static str {
        "SPERR"
    }

    fn supports(&self, bound: &Bound) -> bool {
        matches!(bound, Bound::Pwe(_) | Bound::Bpp(_) | Bound::Psnr(_))
    }

    fn compress(&self, field: &Field, bound: Bound) -> Result<Vec<u8>, CompressError> {
        self.compress_with_stats(field, bound).map(|(stream, _)| stream)
    }

    /// `read::<f64>(stream, Full, Fail)`'s field. Kept because the trait
    /// (and through it the benchmark harness) asks for it.
    fn decompress(&self, stream: &[u8]) -> Result<Field, CompressError> {
        Ok(self.read(stream, ReadRequest::Full, OnDamage::Fail)?.field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_field(dims: [usize; 3]) -> Field {
        Field::from_fn(dims, |x, y, z| {
            (x as f64 * 0.3).sin() * 20.0 + (y as f64 * 0.2).cos() * 10.0 + z as f64 * 0.5
        })
    }

    fn raw_sperr() -> Sperr {
        Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            lossless: false,
            ..SperrConfig::default()
        })
    }

    #[test]
    fn stream_bytes_identical_across_thread_counts() {
        // The acceptance bar for the parallel overhaul: the container bytes
        // must not depend on the thread count, for multi-chunk volumes
        // (outer parallelism) and single-chunk volumes (intra-chunk
        // parallelism) alike, in every mode.
        for (dims, bound) in [
            ([32usize, 16, 16], Bound::Pwe(1e-3)), // 2 chunks
            ([20, 20, 20], Bound::Pwe(1e-3)),      // 1 chunk: intra-chunk path
            ([20, 20, 20], Bound::Bpp(2.0)),
            ([20, 20, 20], Bound::Psnr(60.0)),
        ] {
            let field = test_field(dims);
            let streams: Vec<Vec<u8>> = [1usize, 2, 4, 8]
                .iter()
                .map(|&t| {
                    Sperr::new(SperrConfig {
                        chunk_dims: [16, 16, 16],
                        lossless: false,
                        num_threads: t,
                        ..SperrConfig::default()
                    })
                    .compress(&field, bound)
                    .unwrap()
                })
                .collect();
            for (i, s) in streams.iter().enumerate().skip(1) {
                assert_eq!(&streams[0], s, "threads=1 vs threads={}", [1, 2, 4, 8][i]);
            }
            // Decompression is also thread-count independent.
            let rec1 = Sperr::new(SperrConfig { num_threads: 1, ..SperrConfig::default() })
                .decompress(&streams[0])
                .unwrap();
            let rec8 = Sperr::new(SperrConfig { num_threads: 8, ..SperrConfig::default() })
                .decompress(&streams[0])
                .unwrap();
            assert_eq!(rec1.data, rec8.data);
        }
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = SperrConfig::default();
        assert_eq!(cfg.chunk_dims, [256, 256, 256]); // §V-B default
        assert!((cfg.q_factor - 1.5).abs() < 1e-12); // §IV-D choice
        assert_eq!(cfg.kernel, Kernel::Cdf97);
        assert!(cfg.lossless); // §V: ZSTD stage on by default
    }

    #[test]
    #[should_panic(expected = "q_factor must be finite and positive")]
    fn infinite_q_factor_fails_at_construction() {
        // +∞ passes `> 0.0`; unchecked, it dies inside a pool job at
        // `sperr_speck::encode`'s step assertion.
        Sperr::new(SperrConfig { q_factor: f64::INFINITY, ..SperrConfig::default() });
    }

    #[test]
    fn v3_index_recorded_and_pwe_max_err_exact() {
        // The default writer emits an indexed v3 stream whose per-chunk
        // max_err is the error a full decode actually shows.
        let field = test_field([32, 16, 16]);
        let sperr = raw_sperr();
        let t = 1e-3;
        let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        let info = sperr.inspect(&stream).unwrap();
        assert_eq!(info.version, 3);
        let index = info.chunk_index.expect("v3 stream must carry an index");
        assert_eq!(index.len(), 2);
        assert_eq!(index[0].coords, [0, 0, 0]);
        assert_eq!(index[1].coords, [1, 0, 0]);
        assert_eq!(index[0].offset, 0);
        assert_eq!(index[0].len as usize, info.chunk_payload_sizes[0]);
        assert_eq!(index[1].offset as usize, info.chunk_payload_sizes[0]);
        let rec = sperr.decompress(&stream).unwrap();
        // Per-chunk measured max error must equal the recorded one; chunk
        // 0 is x in 0..16, chunk 1 is x in 16..32.
        for (chunk, x_range) in [(0usize, 0..16usize), (1, 16..32)] {
            let mut measured = 0.0f64;
            for z in 0..16 {
                for y in 0..16 {
                    for x in x_range.clone() {
                        let i = x + 32 * (y + 16 * z);
                        measured = measured.max((rec.data[i] - field.data[i]).abs());
                    }
                }
            }
            assert_eq!(index[chunk].max_err, measured, "chunk {chunk}");
            assert!(index[chunk].max_err <= t);
        }
    }

    #[test]
    fn downgrade_to_v2_round_trips() {
        let field = test_field([24, 16, 16]);
        for lossless in [false, true] {
            let sperr = Sperr::new(SperrConfig {
                chunk_dims: [16, 16, 16],
                lossless,
                ..SperrConfig::default()
            });
            let v3 = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
            let v2 = sperr.downgrade_to_v2(&v3).unwrap();
            assert_eq!(sperr.inspect(&v2).unwrap().version, 2);
            assert_eq!(sperr.decompress(&v2).unwrap().data, sperr.decompress(&v3).unwrap().data);
            // The v2 conformance goldens are built this way and pin its
            // bytes against the native v2 encodes they were committed from.
            assert_eq!(sperr.downgrade_to_v2(&v2).unwrap(), v2, "downgrade is not idempotent");
        }
    }

    fn test_field_f32(dims: [usize; 3]) -> FieldOf<f32> {
        FieldOf::<f32>::from_fn(dims, |x, y, z| {
            (x as f64 * 0.3).sin() * 20.0 + (y as f64 * 0.2).cos() * 10.0 + z as f64 * 0.5
        })
    }

    #[test]
    fn f32_native_roundtrip_meets_pwe_bound() {
        let field = test_field_f32([32, 16, 16]);
        let sperr = raw_sperr();
        let t = 1e-3;
        let stream = sperr.compress_f32(&field, Bound::Pwe(t)).unwrap();
        let info = sperr.inspect(&stream).unwrap();
        assert_eq!(info.precision, Precision::Single);
        assert!(info.native_f32);

        let rec = sperr.decompress_f32(&stream).unwrap();
        assert_eq!(rec.dims, field.dims);
        assert_eq!(rec.precision, Precision::Single);
        // f32 arithmetic costs a few ulps on top of the nominal bound; the
        // slack is proportional to tolerance and magnitude (~30 max here).
        let slack = t * 1e-5 + 32.0 * 1e-5;
        for (a, b) in field.data.iter().zip(&rec.data) {
            assert!(
                (a - b).abs() as f64 <= t + slack,
                "PWE violated: {a} vs {b} (t = {t})"
            );
        }
    }

    #[test]
    fn f32_stream_bytes_identical_across_thread_counts() {
        // Same determinism bar as the f64 path: container bytes must not
        // depend on the thread count at either sample width.
        for (dims, bound) in [
            ([32usize, 16, 16], Bound::Pwe(1e-3)), // 2 chunks
            ([20, 20, 20], Bound::Pwe(1e-3)),      // 1 chunk: intra-chunk path
            ([20, 20, 20], Bound::Bpp(2.0)),
            ([20, 20, 20], Bound::Psnr(60.0)),
        ] {
            let field = test_field_f32(dims);
            let streams: Vec<Vec<u8>> = [1usize, 2, 4, 8]
                .iter()
                .map(|&t| {
                    Sperr::new(SperrConfig {
                        chunk_dims: [16, 16, 16],
                        num_threads: t,
                        lossless: false,
                        ..SperrConfig::default()
                    })
                    .compress_f32(&field, bound)
                    .unwrap()
                })
                .collect();
            for s in &streams[1..] {
                assert_eq!(s, &streams[0], "f32 stream differs across threads ({dims:?})");
            }
            // Decode determinism too.
            let decodes: Vec<Vec<f32>> = [1usize, 2, 4, 8]
                .iter()
                .map(|&t| {
                    Sperr::new(SperrConfig {
                        chunk_dims: [16, 16, 16],
                        num_threads: t,
                        lossless: false,
                        ..SperrConfig::default()
                    })
                    .decompress_f32(&streams[0])
                    .unwrap()
                    .data
                })
                .collect();
            for d in &decodes[1..] {
                let same = d.iter().zip(&decodes[0]).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "f32 decode differs across threads ({dims:?})");
            }
        }
    }
}
