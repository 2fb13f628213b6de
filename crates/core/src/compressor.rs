//! The top-level SPERR compressor: chunking, the embarrassingly parallel
//! driver (§III-D), container assembly and the lossless post-pass (§V).

use crate::chunk::{chunk_grid, extract_chunk_into, insert_chunk, ChunkSpec};
use crate::container::{
    read_container, write_container, ChunkEntry, ChunkIndexEntry, Header, Mode, VERSION,
    VERSION_V2,
};
use crate::crc32::crc32;
use crate::outer::{unwrap_outer, wrap_outer, Framed};
use crate::pipeline::{
    compress_chunk_bpp_with, compress_chunk_pwe_with, compress_chunk_rmse_with, decompress_chunk,
    decompress_chunk_multires, decompress_chunk_region_with, decompress_chunk_with, ChunkEncoding,
    DecodeArenas, ScratchArena,
};
use crate::pool::{PerWorker, WorkerPool};
use crate::stats::{metric_labels, stage_labels, CompressionStats, StageTimes};
use sperr_compress_api::{Bound, CompressError, Field, FieldOf, LossyCompressor, Precision};
use sperr_simd::Float;
use sperr_telemetry::timed;
use sperr_wavelet::{Kernel, PANEL_W};

/// Amortized per-chunk container overhead charged against the bit budget
/// in size-bounded mode (chunk-table entry + share of the header).
pub(crate) const PER_CHUNK_HEADER_BITS: usize = 26 * 8;

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
    /// Bound on the number of raw chunk buffers the streaming pipeline
    /// ([`Sperr::compress_stream`] / [`Sperr::decompress_stream`]) keeps
    /// in flight at once; back-pressure blocks the ingest/emit side when
    /// the budget is exhausted. 0 = auto (2 × worker threads). The
    /// effective budget is never below the number of chunks in one
    /// z-layer of the chunk grid — a row-major stream cannot complete any
    /// chunk of a layer without buffering the whole layer.
    pub in_flight_chunks: usize,
    /// Container format version to write: 3 (default; carries the chunk
    /// index that makes [`Sperr::decode_region`] seek instead of scan) or
    /// 2 (checksummed but index-free — the layout the conformance goldens
    /// pin). The reader accepts 1–3 regardless of this setting.
    pub container_version: u8,
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
            container_version: VERSION,
        }
    }
}

/// The SPERR compressor. See the crate docs for the pipeline description.
#[derive(Debug, Clone, Default)]
pub struct Sperr {
    config: SperrConfig,
}

impl Sperr {
    /// Creates a compressor with the given configuration.
    pub fn new(config: SperrConfig) -> Self {
        assert!(config.q_factor > 0.0, "q_factor must be positive");
        assert!(config.chunk_dims.iter().all(|&d| d > 0), "chunk dims must be positive");
        assert!(
            (VERSION_V2..=VERSION).contains(&config.container_version),
            "writable container versions are {VERSION_V2}..={VERSION}"
        );
        Sperr { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SperrConfig {
        &self.config
    }

    /// Worker count for the pool, clamped to the parallelism actually
    /// available in `chunks`. Deliberately *not* clamped to the chunk
    /// count alone — a single-chunk volume still uses every thread
    /// through the intra-chunk (wavelet-panel / elementwise-sweep)
    /// parallelism — but bounded by those inner job counts, so a tiny
    /// volume on a many-core machine does not spawn workers that
    /// outnumber the jobs they would run.
    pub(crate) fn effective_threads(&self, chunks: &[ChunkSpec]) -> usize {
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
        let panel_jobs = chunks
            .iter()
            .map(|c| c.dims[1].max(c.dims[2]) * c.dims[0].div_ceil(PANEL_W))
            .max()
            .unwrap_or(1);
        t.min(chunks.len().max(panel_jobs)).max(1)
    }

    /// The worker-pool size a run over a volume of `dims` would actually
    /// use (thread config clamped to the available parallelism); surfaced
    /// so benchmark artifacts can record it alongside the raw thread
    /// count.
    pub fn effective_workers(&self, dims: [usize; 3]) -> usize {
        self.effective_threads(&chunk_grid(dims, self.config.chunk_dims))
    }

    /// Number of chunks a volume of `dims` partitions into under this
    /// configuration.
    pub fn chunk_count(&self, dims: [usize; 3]) -> usize {
        chunk_grid(dims, self.config.chunk_dims).len()
    }

    /// Compresses and returns the stream together with cost/timing
    /// statistics (the instrumentation behind Figs. 2, 4 and 6).
    pub fn compress_with_stats(
        &self,
        field: &Field,
        bound: Bound,
    ) -> Result<(Vec<u8>, CompressionStats), CompressError> {
        self.compress_impl(field, bound, false)
    }

    /// Compresses an `f32` field through the f32-native pipeline: every
    /// hot-path stage (wavelet, SPECK quantization, outlier scan) runs at
    /// single precision, and the stream is marked f32-native (precision
    /// tag 2) so [`Sperr::decompress_f32`] reconstructs it without an f64
    /// round-trip. The PWE guarantee holds against the f32 samples.
    pub fn compress_f32(
        &self,
        field: &FieldOf<f32>,
        bound: Bound,
    ) -> Result<Vec<u8>, CompressError> {
        self.compress_f32_with_stats(field, bound).map(|(stream, _)| stream)
    }

    /// [`Sperr::compress_f32`] with cost/timing statistics.
    pub fn compress_f32_with_stats(
        &self,
        field: &FieldOf<f32>,
        bound: Bound,
    ) -> Result<(Vec<u8>, CompressionStats), CompressError> {
        self.compress_impl(field, bound, true)
    }

    /// The width-generic compression driver behind both public surfaces.
    /// `native_f32` selects the wire precision tag; the chunk pipeline
    /// itself is monomorphized over `T`, so the `f64` instantiation is
    /// bit-for-bit the pre-generic code path.
    fn compress_impl<T: Float>(
        &self,
        field: &FieldOf<T>,
        bound: Bound,
        native_f32: bool,
    ) -> Result<(Vec<u8>, CompressionStats), CompressError> {
        if field.is_empty() {
            return Err(CompressError::Invalid("empty field".into()));
        }
        let _run = sperr_telemetry::span!("sperr.compress", field.len());
        let _op = sperr_telemetry::OpTimer::new(if native_f32 {
            metric_labels::OP_COMPRESS_F32
        } else {
            metric_labels::OP_COMPRESS_F64
        });
        let chunks_spec = chunk_grid(field.dims, self.config.chunk_dims);
        let (mode, bound_value) = match bound {
            Bound::Pwe(t) => {
                if !(t > 0.0) || !t.is_finite() {
                    return Err(CompressError::Invalid(format!("invalid tolerance {t}")));
                }
                (Mode::Pwe, t)
            }
            Bound::Bpp(r) => {
                if !(r > 0.0) || !r.is_finite() {
                    return Err(CompressError::Invalid(format!("invalid bitrate {r}")));
                }
                (Mode::Bpp, r)
            }
            Bound::Psnr(p) => {
                // §VII extension: average-error-targeted compression via
                // the near-orthogonality of the transform.
                if !(p > 0.0) || !p.is_finite() {
                    return Err(CompressError::Invalid(format!("invalid PSNR target {p}")));
                }
                (Mode::Rmse, p)
            }
        };
        // PSNR targets translate to an RMSE target over the whole field's
        // range; a zero-range (constant) field quantizes relative to its
        // magnitude.
        let rmse_target = if let Mode::Rmse = mode {
            let range = field.range();
            if range > 0.0 {
                range / 10f64.powf(bound_value / 20.0)
            } else {
                let max_abs = field.data.iter().fold(0.0f64, |m, &v| m.max(v.to_f64().abs()));
                max_abs.max(1.0) * f64::exp2(-40.0)
            }
        } else {
            0.0
        };

        // Per-chunk bit budget for size mode: the raw target minus the
        // amortized chunk-table overhead, so the final container lands at
        // or under the requested rate.
        let per_chunk_header_bits = PER_CHUNK_HEADER_BITS;
        let cfg = &self.config;
        let q_factor = cfg.q_factor;
        let kernel = cfg.kernel;
        let volume_dims = field.dims;
        let data = &field.data;

        let n_chunks = chunks_spec.len();
        let threads = self.effective_threads(&chunks_spec);
        // One pool for the whole call: the chunk encodes, then the blocks
        // of the lossless pass over the assembled container.
        WorkerPool::scoped(threads, |pool| {
            let arenas = PerWorker::new(pool.threads(), ScratchArena::new);
            let inputs = PerWorker::new(pool.threads(), Vec::new);
            let encode_one = |i: usize, w: usize| {
                // SAFETY: concurrent jobs see distinct worker slots (pool
                // contract), so each arena/input buffer has one user.
                let (arena, input) = unsafe { (arenas.get(w), inputs.get(w)) };
                let spec = &chunks_spec[i];
                extract_chunk_into(data, volume_dims, spec, input);
                match mode {
                    Mode::Pwe => compress_chunk_pwe_with(
                        input, spec.dims, bound_value, q_factor, kernel, pool, arena,
                    ),
                    Mode::Bpp => {
                        let budget = ((bound_value * spec.len() as f64) as usize)
                            .saturating_sub(per_chunk_header_bits);
                        compress_chunk_bpp_with(input, spec.dims, budget, kernel, pool, arena)
                    }
                    Mode::Rmse => {
                        compress_chunk_rmse_with(input, spec.dims, rmse_target, kernel, pool, arena)
                    }
                }
            };
            let encoded = if n_chunks >= pool.threads() {
                // Enough chunks to saturate the pool: parallelize the outer
                // loop; each chunk's inner stages then run inline.
                pool.map(n_chunks, |i, w| encode_one(i, w))
            } else {
                // Few chunks: serial outer loop so each chunk's wavelet
                // panels and elementwise sweeps fan out across the pool.
                (0..n_chunks).map(|i| encode_one(i, 0)).collect()
            };
            for w in 0..pool.threads() {
                // SAFETY: all jobs have completed; no concurrent users.
                unsafe { arenas.get(w) }.record_footprint();
            }

            let mut stats = CompressionStats {
                num_points: field.len(),
                num_chunks: n_chunks,
                ..CompressionStats::default()
            };
            for enc in &encoded {
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
                mode,
                kernel,
                precision: if native_f32 { Precision::Single } else { field.precision },
                native_f32,
                dims: field.dims,
                chunk_dims: cfg.chunk_dims,
                bound_value,
                n_chunks,
            };
            let (container, container_time) = timed(stage_labels::CONTAINER_WRITE, || {
                write_container(&header, &encoded, cfg.container_version)
            });
            stats.container_bytes = container.len();
            stats.stage_times.container = container_time;

            let out = if cfg.lossless {
                let (out, lossless_time) =
                    timed(stage_labels::LOSSLESS_COMPRESS, || wrap_outer(&container, true, pool));
                stats.stage_times.lossless = lossless_time;
                out
            } else {
                wrap_outer(&container, false, pool)
            };
            stats.output_bytes = out.len();
            sperr_telemetry::record_bytes(metric_labels::SIZE_OUTPUT, out.len() as u64);
            Ok((out, stats))
        })
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

    /// Verifies a v2 stream's integrity checksums without running the
    /// (much more expensive) SPECK decode: the header CRC is checked by
    /// the container parser, then each chunk's payload CRC is recomputed.
    /// v1 streams carry no checksums — the report says so via
    /// [`VerifyReport::checksummed`] and trivially lists no corruption.
    pub fn verify(&self, stream: &[u8]) -> Result<VerifyReport, CompressError> {
        let (container, _) = unwrap_outer(stream)?;
        let parsed = read_container(&container)?;
        let mut corrupt_chunks = Vec::new();
        if let Some(crcs) = &parsed.chunk_crcs {
            let offsets = chunk_offsets(&parsed.entries, parsed.payload_start);
            for (i, (e, &start)) in parsed.entries.iter().zip(&offsets).enumerate() {
                let payload = &container[start..start + e.speck_len + e.outlier_len];
                if crc32(payload) != crcs[i] {
                    corrupt_chunks.push(i);
                }
            }
        }
        Ok(VerifyReport {
            version: parsed.version,
            checksummed: parsed.chunk_crcs.is_some(),
            n_chunks: parsed.header.n_chunks,
            corrupt_chunks,
        })
    }

    /// Best-effort decompression of a damaged stream: chunks whose payload
    /// checksum mismatches (v2) or whose decode fails are skipped and
    /// their region of the volume left neutrally zero-filled, while every
    /// healthy chunk is reconstructed normally. The per-chunk outcome is
    /// returned alongside the field. Header-level damage (bad magic,
    /// unreadable chunk table, failed header CRC, or a corrupted lossless
    /// outer wrapper) still fails outright — without the table there is
    /// nothing to salvage.
    pub fn decompress_resilient(
        &self,
        stream: &[u8],
    ) -> Result<(Field, ResilientReport), CompressError> {
        let (container, _) = unwrap_outer(stream)?;
        let parsed = read_container(&container)?;
        let chunks_spec = chunk_grid(parsed.header.dims, parsed.header.chunk_dims);
        if chunks_spec.len() != parsed.entries.len() {
            return Err(CompressError::Corrupt("chunk table size mismatch".into()));
        }
        let tolerance = match parsed.header.mode {
            Mode::Pwe => parsed.header.bound_value,
            Mode::Bpp | Mode::Rmse => 0.0,
        };
        let offsets = chunk_offsets(&parsed.entries, parsed.payload_start);
        let mut volume = vec![0.0f64; parsed.header.dims.iter().product()];
        let mut statuses = Vec::with_capacity(parsed.entries.len());
        for (i, (spec, e)) in chunks_spec.iter().zip(&parsed.entries).enumerate() {
            let start = offsets[i];
            let payload = &container[start..start + e.speck_len + e.outlier_len];
            if let Some(crcs) = &parsed.chunk_crcs {
                if crc32(payload) != crcs[i] {
                    // Known-bad payload: don't even hand it to the coders.
                    statuses.push(ChunkStatus::ChecksumMismatch);
                    continue;
                }
            }
            let (speck, outlier) = payload.split_at(e.speck_len);
            // f32-native payloads decode at native width and widen exactly,
            // matching the strict decoder's output for healthy chunks.
            let result = if parsed.header.native_f32 {
                decompress_chunk::<f32>(
                    speck,
                    outlier,
                    spec.dims,
                    e.q,
                    e.num_planes,
                    e.max_n,
                    tolerance,
                    parsed.header.kernel,
                )
                .map(|c| c.iter().map(|&v| v as f64).collect())
            } else {
                decompress_chunk::<f64>(
                    speck,
                    outlier,
                    spec.dims,
                    e.q,
                    e.num_planes,
                    e.max_n,
                    tolerance,
                    parsed.header.kernel,
                )
            };
            match result {
                Ok(chunk) => {
                    insert_chunk(&mut volume, parsed.header.dims, spec, &chunk);
                    statuses.push(ChunkStatus::Ok);
                }
                Err(e) => statuses.push(ChunkStatus::DecodeFailed(e)),
            }
        }
        let field =
            Field::new(parsed.header.dims, volume).with_precision(parsed.header.precision);
        Ok((field, ResilientReport { statuses }))
    }

    /// Multi-resolution decompression (§VII): reconstructs the field at
    /// `1/2^level` resolution per axis by undoing only the coarser
    /// transform levels. `level = 0` is full resolution (without outlier
    /// corrections applied at `level > 0`, which are full-resolution
    /// data). Requires every chunk to have at least `level` transform
    /// levels on every axis and `chunk_dims` divisible by `2^level`.
    pub fn decompress_multires(
        &self,
        stream: &[u8],
        level: usize,
    ) -> Result<Field, CompressError> {
        if level == 0 {
            return self.decompress(stream);
        }
        let (container, _) = unwrap_outer(stream)?;
        let parsed = read_container(&container)?;
        verify_chunk_crcs(&container, &parsed)?;
        let Header { dims, chunk_dims, kernel, precision, .. } = parsed.header;
        let entries = parsed.entries;
        let payload_start = parsed.payload_start;
        let chunks_spec = chunk_grid(dims, chunk_dims);
        if chunks_spec.len() != entries.len() {
            return Err(CompressError::Corrupt("chunk table size mismatch".into()));
        }
        let step = 1usize << level;
        // Offsets are multiples of chunk_dims; they must stay aligned
        // after coarsening (single-chunk streams are always fine).
        if chunks_spec.len() > 1 && chunk_dims.iter().any(|&d| d % step != 0) {
            return Err(CompressError::Invalid(format!(
                "chunk dims {chunk_dims:?} not divisible by 2^{level}"
            )));
        }
        // Coarse volume geometry: iterated ceil-halving == ceil(n / 2^l).
        let cdims =
            [dims[0].div_ceil(step), dims[1].div_ceil(step), dims[2].div_ceil(step)];
        let mut volume = vec![0.0f64; cdims.iter().product()];
        let mut cursor = payload_start;
        for (spec, e) in chunks_spec.iter().zip(&entries) {
            let speck = &container[cursor..cursor + e.speck_len];
            cursor += e.speck_len + e.outlier_len;
            let (chunk, chunk_cdims) =
                decompress_chunk_multires(speck, spec.dims, e.q, e.num_planes, level, kernel)?;
            let coffset = [spec.offset[0] / step, spec.offset[1] / step, spec.offset[2] / step];
            insert_chunk(
                &mut volume,
                cdims,
                &crate::chunk::ChunkSpec { offset: coffset, dims: chunk_cdims },
                &chunk,
            );
        }
        Ok(Field::new(cdims, volume).with_precision(precision))
    }

    /// Region-of-interest decompression: reconstructs only the sub-box
    /// `[lo, hi)` of the volume, decoding just the chunks that intersect
    /// it — the practical payoff of SPERR's chunked storage for
    /// explorative analysis. Returns a field of dims `hi - lo`.
    ///
    /// Strict wrapper around [`Sperr::decode_region`]: any intersecting
    /// chunk that fails its checksum or decode fails the whole call.
    pub fn decompress_region(
        &self,
        stream: &[u8],
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Result<Field, CompressError> {
        let (field, report) = self.decode_region(stream, lo, hi)?;
        for (&id, status) in report.chunk_ids.iter().zip(&report.statuses) {
            match status {
                ChunkStatus::Ok => {}
                ChunkStatus::ChecksumMismatch => {
                    return Err(CompressError::Corrupt(format!(
                        "chunk {id} payload checksum mismatch"
                    )))
                }
                ChunkStatus::DecodeFailed(e) => return Err(e.clone()),
            }
        }
        Ok(field)
    }

    /// Random-access decode of the sub-box `[lo, hi)`: maps the bbox to
    /// the intersecting chunks through the chunk grid, seeks straight to
    /// their payloads via the container-v3 chunk index (v1/v2 streams
    /// fall back to a chunk-table scan — see [`RegionReport::used_index`]),
    /// decodes only those chunks in parallel on the worker pool, and
    /// assembles the sub-volume.
    ///
    /// **Cost model.** The read touches the container's head (headers,
    /// chunk table, index, checksums) and the touched chunks' payloads,
    /// nothing else. With the lossless pass on (the default) that means
    /// inflating the SLZ1 blocks — 128 KiB of container each,
    /// independently decodable — that hold those bytes: the head's block,
    /// plus the blocks under the touched payloads, each once. Cost follows
    /// chunks touched, not stream length.
    ///
    /// **Damage.** Contained per chunk, like
    /// [`Sperr::decompress_resilient`]: a touched chunk that fails its
    /// CRC or its decode, *or whose payload lies in an SLZ1 block that
    /// fails to inflate*, leaves its intersection zero-filled and is
    /// reported in the [`RegionReport`] instead of failing the call (the
    /// other chunks sharing a broken block fail with it; chunks in healthy
    /// blocks decode). Only the touched chunks' checksums and the blocks
    /// they need are inspected — corruption elsewhere in the stream, even
    /// inside the lossless wrapper, neither slows the query down nor fails
    /// it. Damage to the head (or to the block framing of the wrapper,
    /// without which no block can be located) fails the call.
    ///
    /// Within the region the output is bit-identical to the same slice of
    /// a full [`Sperr::decompress`] (chunks decode independently, and
    /// skipped outlier corrections are point-local).
    pub fn decode_region(
        &self,
        stream: &[u8],
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Result<(Field, RegionReport), CompressError> {
        let _run = sperr_telemetry::span!("sperr.decode_region", stream.len());
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_DECODE_REGION);
        let framed = Framed::open(stream)?;
        let parsed = framed.read_head()?;
        let header = parsed.header;
        let entries = parsed.entries;
        for d in 0..3 {
            if lo[d] >= hi[d] || hi[d] > header.dims[d] {
                return Err(CompressError::Invalid(format!(
                    "region [{lo:?}, {hi:?}) out of bounds for dims {:?}",
                    header.dims
                )));
            }
        }
        let chunks_spec = chunk_grid(header.dims, header.chunk_dims);
        if chunks_spec.len() != entries.len() {
            return Err(CompressError::Corrupt("chunk table size mismatch".into()));
        }
        // Seek table. The v3 index gives each payload's offset directly;
        // legacy v1/v2 streams force a full walk of the chunk table (the
        // documented fallback — cheap relative to decode, but a scan all
        // the same, hence the one-time nudge to re-encode).
        let used_index = parsed.index.is_some();
        let offsets: Vec<usize> = match &parsed.index {
            Some(index) => {
                index.iter().map(|e| parsed.payload_start + e.offset as usize).collect()
            }
            None => {
                warn_legacy_region_scan(parsed.version);
                chunk_offsets(&entries, parsed.payload_start)
            }
        };
        let tolerance = match header.mode {
            Mode::Pwe => header.bound_value,
            Mode::Bpp | Mode::Rmse => 0.0,
        };

        // Clip the bbox against the grid: one decode job per intersecting
        // chunk, carrying the chunk-local box to keep.
        struct Target {
            chunk: usize,
            isect_lo: [usize; 3],
            isect_hi: [usize; 3],
        }
        let mut targets = Vec::new();
        let mut target_specs = Vec::new();
        for (i, spec) in chunks_spec.iter().enumerate() {
            let c_lo = spec.offset;
            let c_hi = [
                spec.offset[0] + spec.dims[0],
                spec.offset[1] + spec.dims[1],
                spec.offset[2] + spec.dims[2],
            ];
            let isect_lo = [lo[0].max(c_lo[0]), lo[1].max(c_lo[1]), lo[2].max(c_lo[2])];
            let isect_hi = [hi[0].min(c_hi[0]), hi[1].min(c_hi[1]), hi[2].min(c_hi[2])];
            if (0..3).any(|d| isect_lo[d] >= isect_hi[d]) {
                continue; // chunk does not touch the region
            }
            targets.push(Target { chunk: i, isect_lo, isect_hi });
            target_specs.push(*spec);
        }

        let n_targets = targets.len();
        sperr_telemetry::counter!("region.chunks_touched", n_targets);
        sperr_telemetry::counter!("region.used_index", used_index as u64);
        let payload_of = |chunk: usize| {
            let e = &entries[chunk];
            offsets[chunk]..offsets[chunk] + e.speck_len + e.outlier_len
        };
        let wanted: Vec<_> = targets.iter().map(|t| payload_of(t.chunk)).collect();
        let fetched = framed.fetch(&wanted)?;
        let threads = self.effective_threads(&target_specs);
        let entries_ref = &entries;
        let specs_ref = &chunks_spec;
        let targets_ref = &targets;
        let crcs_ref = &parsed.chunk_crcs;
        let kernel = header.kernel;
        let native_f32 = header.native_f32;
        let decoded: Vec<(Vec<f64>, ChunkStatus)> = WorkerPool::scoped(threads, |pool| {
            let arenas = PerWorker::new(pool.threads(), DecodeArenas::default);
            let decode_one = |j: usize, w: usize| {
                let t = &targets_ref[j];
                let spec = &specs_ref[t.chunk];
                let e = &entries_ref[t.chunk];
                let payload = match fetched.get(payload_of(t.chunk)) {
                    Ok(payload) => payload,
                    // The payload's SLZ1 block did not inflate.
                    Err(err) => return (vec![0.0; spec.len()], ChunkStatus::DecodeFailed(err)),
                };
                if let Some(crcs) = crcs_ref {
                    if crc32(payload) != crcs[t.chunk] {
                        return (vec![0.0; spec.len()], ChunkStatus::ChecksumMismatch);
                    }
                }
                let (speck, outlier) = payload.split_at(e.speck_len);
                // Chunk-local keep box: only corrections landing inside
                // the intersection matter for the assembled output.
                let keep_lo = [
                    t.isect_lo[0] - spec.offset[0],
                    t.isect_lo[1] - spec.offset[1],
                    t.isect_lo[2] - spec.offset[2],
                ];
                let keep_hi = [
                    t.isect_hi[0] - spec.offset[0],
                    t.isect_hi[1] - spec.offset[1],
                    t.isect_hi[2] - spec.offset[2],
                ];
                // f32-native payloads decode at native width and widen
                // exactly, keeping the bit-identity contract with the
                // full-decompress slice.
                let decoded = if native_f32 {
                    // SAFETY: concurrent jobs see distinct worker slots.
                    let arena32 = &mut unsafe { arenas.get(w) }.narrow;
                    decompress_chunk_region_with(
                        speck,
                        outlier,
                        spec.dims,
                        e.q,
                        e.num_planes,
                        e.max_n,
                        tolerance,
                        kernel,
                        keep_lo,
                        keep_hi,
                        pool,
                        arena32,
                    )
                    .map(|(c, t)| (c.iter().map(|&v| v as f64).collect::<Vec<f64>>(), t))
                } else {
                    // SAFETY: concurrent jobs see distinct worker slots.
                    let arena = &mut unsafe { arenas.get(w) }.wide;
                    decompress_chunk_region_with(
                        speck,
                        outlier,
                        spec.dims,
                        e.q,
                        e.num_planes,
                        e.max_n,
                        tolerance,
                        kernel,
                        keep_lo,
                        keep_hi,
                        pool,
                        arena,
                    )
                };
                match decoded {
                    Ok((chunk, _)) => (chunk, ChunkStatus::Ok),
                    Err(err) => (vec![0.0; spec.len()], ChunkStatus::DecodeFailed(err)),
                }
            };
            let decoded = if n_targets >= pool.threads() {
                pool.map(n_targets, |j, w| decode_one(j, w))
            } else {
                (0..n_targets).map(|j| decode_one(j, 0)).collect()
            };
            for w in 0..pool.threads() {
                // SAFETY: all jobs have completed; no concurrent users.
                unsafe { arenas.get(w) }.record_footprint(native_f32);
            }
            decoded
        });

        let region_dims = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
        let mut out = vec![0.0f64; region_dims.iter().product()];
        let mut chunk_ids = Vec::with_capacity(n_targets);
        let mut statuses = Vec::with_capacity(n_targets);
        for (t, (chunk, status)) in targets.iter().zip(decoded) {
            let spec = &chunks_spec[t.chunk];
            if matches!(status, ChunkStatus::Ok) {
                for z in t.isect_lo[2]..t.isect_hi[2] {
                    for y in t.isect_lo[1]..t.isect_hi[1] {
                        let src_row = (t.isect_lo[0] - spec.offset[0])
                            + spec.dims[0]
                                * ((y - spec.offset[1]) + spec.dims[1] * (z - spec.offset[2]));
                        let dst_row = (t.isect_lo[0] - lo[0])
                            + region_dims[0] * ((y - lo[1]) + region_dims[1] * (z - lo[2]));
                        let len = t.isect_hi[0] - t.isect_lo[0];
                        out[dst_row..dst_row + len]
                            .copy_from_slice(&chunk[src_row..src_row + len]);
                    }
                }
            }
            chunk_ids.push(t.chunk);
            statuses.push(status);
        }
        let field = Field::new(region_dims, out).with_precision(header.precision);
        Ok((field, RegionReport { chunk_ids, statuses, used_index }))
    }

    /// Progressive (preview) decode: reconstructs the full volume with
    /// each chunk's embedded SPECK stream truncated at `budgets[chunk]`
    /// bytes (clamped to the stream's actual length; `usize::MAX` means
    /// "everything"). Truncation is the embedded-coding contract, not
    /// corruption: the SPECK decoder treats budget exhaustion as clean
    /// early exit, so any budget decodes without error to a coarser
    /// field. Outlier corrections are full-fidelity data and are skipped
    /// entirely — previews carry no point-wise error guarantee.
    pub fn decode_at_budgets(
        &self,
        stream: &[u8],
        budgets: &[usize],
    ) -> Result<Field, CompressError> {
        let _run = sperr_telemetry::span!("sperr.decode_at_budgets", stream.len());
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_DECODE_PREVIEW);
        let (container, _) = unwrap_outer(stream)?;
        let parsed = read_container(&container)?;
        verify_chunk_crcs(&container, &parsed)?;
        let header = parsed.header;
        let entries = parsed.entries;
        if budgets.len() != entries.len() {
            return Err(CompressError::Invalid(format!(
                "{} budgets for {} chunks",
                budgets.len(),
                entries.len()
            )));
        }
        let chunks_spec = chunk_grid(header.dims, header.chunk_dims);
        if chunks_spec.len() != entries.len() {
            return Err(CompressError::Corrupt("chunk table size mismatch".into()));
        }
        let offsets = chunk_offsets(&entries, parsed.payload_start);
        let kept_bytes: usize =
            entries.iter().zip(budgets).map(|(e, &b)| e.speck_len.min(b)).sum();
        sperr_telemetry::counter!("preview.kept_speck_bytes", kept_bytes);
        let n_chunks = entries.len();
        let threads = self.effective_threads(&chunks_spec);
        let container_ref = &container;
        let entries_ref = &entries;
        let offsets_ref = &offsets;
        let specs_ref = &chunks_spec;
        let kernel = header.kernel;
        let native_f32 = header.native_f32;
        type Decoded = Result<(Vec<f64>, StageTimes), CompressError>;
        let decoded: Vec<Decoded> = WorkerPool::scoped(threads, |pool| {
            let arenas = PerWorker::new(pool.threads(), DecodeArenas::default);
            let decode_one = |i: usize, w: usize| {
                let e = &entries_ref[i];
                let start = offsets_ref[i];
                let keep = e.speck_len.min(budgets[i]);
                let speck = &container_ref[start..start + keep];
                // Empty outlier stream + zero tolerance: corrections do
                // not apply to a truncated reconstruction.
                if native_f32 {
                    // f32-native payloads preview at native width and widen
                    // exactly, so decode_at_bpp stays bit-identical to
                    // transcode-then-decompress for tag-2 streams too.
                    // SAFETY: concurrent jobs see distinct worker slots.
                    let arena32 = &mut unsafe { arenas.get(w) }.narrow;
                    decompress_chunk_with(
                        speck,
                        &[],
                        specs_ref[i].dims,
                        e.q,
                        e.num_planes,
                        0,
                        0.0,
                        kernel,
                        pool,
                        arena32,
                    )
                    .map(|(c, t)| (c.iter().map(|&v| v as f64).collect::<Vec<f64>>(), t))
                } else {
                    // SAFETY: concurrent jobs see distinct worker slots.
                    let arena = &mut unsafe { arenas.get(w) }.wide;
                    decompress_chunk_with(
                        speck,
                        &[],
                        specs_ref[i].dims,
                        e.q,
                        e.num_planes,
                        0,
                        0.0,
                        kernel,
                        pool,
                        arena,
                    )
                }
            };
            let decoded = if n_chunks >= pool.threads() {
                pool.map(n_chunks, |i, w| decode_one(i, w))
            } else {
                (0..n_chunks).map(|i| decode_one(i, 0)).collect()
            };
            for w in 0..pool.threads() {
                // SAFETY: all jobs have completed; no concurrent users.
                unsafe { arenas.get(w) }.record_footprint(native_f32);
            }
            decoded
        });
        let mut volume = vec![0.0f64; header.dims.iter().product()];
        for (spec, result) in chunks_spec.iter().zip(decoded) {
            let (chunk, _) = result?;
            insert_chunk(&mut volume, header.dims, spec, &chunk);
        }
        Ok(Field::new(header.dims, volume).with_precision(header.precision))
    }

    /// Progressive (preview) decode at a uniform rate: truncates each
    /// chunk's SPECK stream at the byte budget a `bpp` bits-per-point
    /// target implies (the same per-chunk accounting as
    /// [`Sperr::transcode_to_bpp`], so `decode_at_bpp(s, r)` is
    /// bit-identical to `decompress(transcode_to_bpp(s, r))` without
    /// materializing the transcoded stream). See
    /// [`Sperr::decode_at_budgets`].
    pub fn decode_at_bpp(&self, stream: &[u8], bpp: f64) -> Result<Field, CompressError> {
        if !(bpp > 0.0) || !bpp.is_finite() {
            return Err(CompressError::Invalid(format!("invalid bitrate {bpp}")));
        }
        let info = self.inspect(stream)?;
        let budgets: Vec<usize> = chunk_grid(info.dims, info.chunk_dims)
            .iter()
            .map(|spec| ((bpp * spec.len() as f64) as usize / 8).saturating_sub(26))
            .collect();
        self.decode_at_budgets(stream, &budgets)
    }

    /// Re-rates an existing SPERR stream to a (lower) size target without
    /// re-encoding, by truncating each chunk's embedded SPECK stream (§VII:
    /// "any prefix of the bitstream can reconstruct a less-accurate
    /// version of the data"). Outlier corrections are dropped — the result
    /// is a size-bounded stream with no error guarantee.
    pub fn transcode_to_bpp(&self, stream: &[u8], bpp: f64) -> Result<Vec<u8>, CompressError> {
        if !(bpp > 0.0) || !bpp.is_finite() {
            return Err(CompressError::Invalid(format!("invalid bitrate {bpp}")));
        }
        let (container, lossless) = unwrap_outer(stream)?;
        let parsed = read_container(&container)?;
        verify_chunk_crcs(&container, &parsed)?;
        let header = parsed.header;
        let entries = parsed.entries;
        let payload_start = parsed.payload_start;
        let chunks_spec = chunk_grid(header.dims, header.chunk_dims);
        if chunks_spec.len() != entries.len() {
            return Err(CompressError::Corrupt("chunk table size mismatch".into()));
        }
        let mut new_chunks = Vec::with_capacity(entries.len());
        let mut cursor = payload_start;
        for (spec, e) in chunks_spec.iter().zip(&entries) {
            let speck = &container[cursor..cursor + e.speck_len];
            cursor += e.speck_len + e.outlier_len;
            let budget_bytes = ((bpp * spec.len() as f64) as usize / 8).saturating_sub(26);
            let keep = e.speck_len.min(budget_bytes);
            new_chunks.push(ChunkEncoding {
                speck_stream: speck[..keep].to_vec(),
                outlier_stream: Vec::new(),
                q: e.q,
                num_planes: e.num_planes,
                max_n: 0,
                num_outliers: 0,
                speck_bits: keep * 8,
                outlier_bits: 0,
                times: Default::default(),
                coeff_sq_error: 0.0,
                max_err: f64::NAN, // truncation voids the recorded bound
            });
        }
        let new_header = Header {
            mode: Mode::Bpp,
            kernel: header.kernel,
            precision: header.precision,
            native_f32: header.native_f32,
            dims: header.dims,
            chunk_dims: header.chunk_dims,
            bound_value: bpp,
            n_chunks: new_chunks.len(),
        };
        // Keep the source stream's container version (v1 sources stay at
        // v2: the writer no longer emits v1 except via `downgrade_to_v1`).
        let new_container =
            write_container(&new_header, &new_chunks, parsed.version.max(VERSION_V2));
        Ok(wrap_outer(&new_container, lossless, &WorkerPool::inline()))
    }

    /// Re-frames a stream as a legacy **container v1** (checksum-free)
    /// stream with byte-identical chunk payloads, preserving the outer
    /// lossless framing. Real v1 streams predate this repo's checksummed
    /// container; this is how the conformance suite regenerates its
    /// committed v1 back-compat fixture without keeping an old encoder
    /// around. The result must always decode to exactly the same field as
    /// the input stream.
    pub fn downgrade_to_v1(&self, stream: &[u8]) -> Result<Vec<u8>, CompressError> {
        let (container, lossless) = unwrap_outer(stream)?;
        let parsed = read_container(&container)?;
        verify_chunk_crcs(&container, &parsed)?;
        let offsets = chunk_offsets(&parsed.entries, parsed.payload_start);
        let chunks: Vec<ChunkEncoding> = parsed
            .entries
            .iter()
            .zip(&offsets)
            .map(|(e, &s)| ChunkEncoding {
                speck_stream: container[s..s + e.speck_len].to_vec(),
                outlier_stream: container[s + e.speck_len..s + e.speck_len + e.outlier_len]
                    .to_vec(),
                q: e.q,
                num_planes: e.num_planes,
                max_n: e.max_n,
                num_outliers: e.num_outliers,
                speck_bits: e.speck_len * 8,
                outlier_bits: e.outlier_len * 8,
                times: Default::default(),
                coeff_sq_error: 0.0,
                max_err: f64::NAN, // not representable in v1
            })
            .collect();
        let v1 = crate::container::write_container_v1(&parsed.header, &chunks);
        Ok(wrap_outer(&v1, lossless, &WorkerPool::inline()))
    }

    /// Re-frames a stream as a **container v2** (checksummed, index-free)
    /// stream with byte-identical chunk payloads, preserving the outer
    /// lossless framing. The v3 → v2 downgrade drops only the chunk
    /// index, which is derived data — the result must always decode to
    /// exactly the same field as the input stream. Used by the
    /// conformance suite to prove the v3 fixtures are v2 goldens plus an
    /// index and nothing else.
    pub fn downgrade_to_v2(&self, stream: &[u8]) -> Result<Vec<u8>, CompressError> {
        let (container, lossless) = unwrap_outer(stream)?;
        let parsed = read_container(&container)?;
        verify_chunk_crcs(&container, &parsed)?;
        let offsets = chunk_offsets(&parsed.entries, parsed.payload_start);
        let chunks: Vec<ChunkEncoding> = parsed
            .entries
            .iter()
            .zip(&offsets)
            .map(|(e, &s)| ChunkEncoding {
                speck_stream: container[s..s + e.speck_len].to_vec(),
                outlier_stream: container[s + e.speck_len..s + e.speck_len + e.outlier_len]
                    .to_vec(),
                q: e.q,
                num_planes: e.num_planes,
                max_n: e.max_n,
                num_outliers: e.num_outliers,
                speck_bits: e.speck_len * 8,
                outlier_bits: e.outlier_len * 8,
                times: Default::default(),
                coeff_sq_error: 0.0,
                max_err: f64::NAN, // not representable in v2
            })
            .collect();
        let v2 = write_container(&parsed.header, &chunks, VERSION_V2);
        Ok(wrap_outer(&v2, lossless, &WorkerPool::inline()))
    }

    /// Decompresses and returns the field together with per-stage timing
    /// statistics (surfaced by the CLI's `info --verbose`).
    pub fn decompress_with_stats(
        &self,
        stream: &[u8],
    ) -> Result<(Field, CompressionStats), CompressError> {
        let _run = sperr_telemetry::span!("sperr.decompress", stream.len());
        // The op label depends on the stream's width tag, unknown until
        // the container parses — so time manually and record on success.
        let op_t0 = sperr_telemetry::is_recording().then(std::time::Instant::now);
        let (unwrapped, lossless_time) =
            timed(stage_labels::LOSSLESS_DECOMPRESS, || unwrap_outer(stream));
        let (container, was_lossless) = unwrapped?;
        // Strict mode: any checksummed chunk failing its CRC fails the
        // whole decode (use `decompress_resilient` to salvage the rest).
        let (parsed, container_time) = timed(stage_labels::CONTAINER_READ, || {
            let parsed = read_container(&container)?;
            verify_chunk_crcs(&container, &parsed)?;
            Ok::<_, CompressError>(parsed)
        });
        let parsed = parsed?;
        let header = parsed.header;
        let entries = parsed.entries;
        let (volume, chunk_times) = if header.native_f32 {
            // f32-native payloads decode at their native width; widening
            // for the f64 surface is exact, so this field carries exactly
            // the values `decompress_f32` would return.
            let (v32, t) =
                self.decode_volume::<f32>(&container, &header, &entries, parsed.payload_start)?;
            (v32.iter().map(|&v| v as f64).collect::<Vec<f64>>(), t)
        } else {
            self.decode_volume::<f64>(&container, &header, &entries, parsed.payload_start)?
        };

        let mut stats = CompressionStats {
            num_points: header.dims.iter().product(),
            num_chunks: entries.len(),
            container_bytes: container.len(),
            output_bytes: stream.len(),
            ..CompressionStats::default()
        };
        if was_lossless {
            stats.stage_times.lossless = lossless_time;
        }
        stats.stage_times.container = container_time;
        stats.stage_times.accumulate(&chunk_times);
        if let Some(t0) = op_t0 {
            let label = if header.native_f32 {
                metric_labels::OP_DECOMPRESS_F32
            } else {
                metric_labels::OP_DECOMPRESS_F64
            };
            sperr_telemetry::record_ns(label, t0.elapsed().as_nanos() as u64);
        }
        let field = Field::new(header.dims, volume).with_precision(header.precision);
        Ok((field, stats))
    }

    /// Reconstructs an f32-native stream (precision tag 2) at its native
    /// width — no f64 materialization anywhere on the chunk hot path.
    /// Streams from the f64 pipeline (tags 0/1) are rejected: narrowing
    /// their decode is lossy, so the caller must opt in explicitly via
    /// [`Sperr::decompress`] + [`Field::narrow_lossy`].
    pub fn decompress_f32(&self, stream: &[u8]) -> Result<FieldOf<f32>, CompressError> {
        self.decompress_f32_with_stats(stream).map(|(field, _)| field)
    }

    /// [`Sperr::decompress_f32`] with per-stage timing statistics.
    pub fn decompress_f32_with_stats(
        &self,
        stream: &[u8],
    ) -> Result<(FieldOf<f32>, CompressionStats), CompressError> {
        let _run = sperr_telemetry::span!("sperr.decompress_f32", stream.len());
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_DECOMPRESS_F32);
        let (unwrapped, lossless_time) =
            timed(stage_labels::LOSSLESS_DECOMPRESS, || unwrap_outer(stream));
        let (container, was_lossless) = unwrapped?;
        let (parsed, container_time) = timed(stage_labels::CONTAINER_READ, || {
            let parsed = read_container(&container)?;
            verify_chunk_crcs(&container, &parsed)?;
            Ok::<_, CompressError>(parsed)
        });
        let parsed = parsed?;
        if !parsed.header.native_f32 {
            return Err(CompressError::Invalid(
                "stream is not f32-native; decode it with decompress() and narrow explicitly"
                    .into(),
            ));
        }
        let header = parsed.header;
        let entries = parsed.entries;
        let (volume, chunk_times) =
            self.decode_volume::<f32>(&container, &header, &entries, parsed.payload_start)?;
        let mut stats = CompressionStats {
            num_points: header.dims.iter().product(),
            num_chunks: entries.len(),
            container_bytes: container.len(),
            output_bytes: stream.len(),
            ..CompressionStats::default()
        };
        if was_lossless {
            stats.stage_times.lossless = lossless_time;
        }
        stats.stage_times.container = container_time;
        stats.stage_times.accumulate(&chunk_times);
        let field = FieldOf::<f32>::new(header.dims, volume).with_precision(header.precision);
        Ok((field, stats))
    }

    /// Decodes every chunk of a parsed container at sample width `T` and
    /// assembles the full volume, returning it with the accumulated
    /// per-chunk stage times. Pool scheduling (outer chunk map vs.
    /// intra-chunk fan-out) is width-independent, so thread-count
    /// determinism holds at both widths.
    fn decode_volume<T: Float>(
        &self,
        container: &[u8],
        header: &Header,
        entries: &[ChunkEntry],
        payload_start: usize,
    ) -> Result<(Vec<T>, StageTimes), CompressError> {
        let chunks_spec = chunk_grid(header.dims, header.chunk_dims);
        if chunks_spec.len() != entries.len() {
            return Err(CompressError::Corrupt("chunk table size mismatch".into()));
        }

        // Pre-slice each chunk's payload region.
        let offsets = chunk_offsets(entries, payload_start);

        let tolerance = match header.mode {
            Mode::Pwe => header.bound_value,
            Mode::Bpp | Mode::Rmse => 0.0,
        };
        let n_chunks = entries.len();
        let threads = self.effective_threads(&chunks_spec);
        let offsets_ref = &offsets;
        let specs_ref = &chunks_spec;
        let kernel = header.kernel;
        type Decoded<T> = Result<(Vec<T>, StageTimes), CompressError>;
        let decoded: Vec<Decoded<T>> = WorkerPool::scoped(threads, |pool| {
            let arenas = PerWorker::new(pool.threads(), ScratchArena::<T>::new);
            let decode_one = |i: usize, w: usize| {
                // SAFETY: concurrent jobs see distinct worker slots.
                let arena = unsafe { arenas.get(w) };
                let e = &entries[i];
                let start = offsets_ref[i];
                let speck = &container[start..start + e.speck_len];
                let outlier =
                    &container[start + e.speck_len..start + e.speck_len + e.outlier_len];
                decompress_chunk_with(
                    speck,
                    outlier,
                    specs_ref[i].dims,
                    e.q,
                    e.num_planes,
                    e.max_n,
                    tolerance,
                    kernel,
                    pool,
                    arena,
                )
            };
            let decoded = if n_chunks >= pool.threads() {
                pool.map(n_chunks, |i, w| decode_one(i, w))
            } else {
                (0..n_chunks).map(|i| decode_one(i, 0)).collect()
            };
            for w in 0..pool.threads() {
                // SAFETY: all jobs have completed; no concurrent users.
                unsafe { arenas.get(w) }.record_footprint();
            }
            decoded
        });

        let mut times = StageTimes::default();
        let mut volume = vec![T::ZERO; header.dims.iter().product()];
        for (spec, result) in chunks_spec.iter().zip(decoded) {
            let (chunk, t) = result?;
            times.accumulate(&t);
            insert_chunk(&mut volume, header.dims, spec, &chunk);
        }
        Ok((volume, times))
    }
}

/// One-time warning that a region query had to scan a legacy container.
/// `Once` so a service looping over regions does not flood stderr; the
/// fallback itself is fully supported, just not seekable.
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

/// Byte offset of each chunk's payload within the container.
pub(crate) fn chunk_offsets(entries: &[ChunkEntry], payload_start: usize) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(entries.len());
    let mut cursor = payload_start;
    for e in entries {
        offsets.push(cursor);
        cursor += e.speck_len + e.outlier_len;
    }
    offsets
}

/// Checks every chunk payload against its v2 CRC; no-op for v1 streams.
pub(crate) fn verify_chunk_crcs(
    container: &[u8],
    parsed: &crate::container::Parsed,
) -> Result<(), CompressError> {
    let Some(crcs) = &parsed.chunk_crcs else { return Ok(()) };
    let offsets = chunk_offsets(&parsed.entries, parsed.payload_start);
    for (i, (e, &start)) in parsed.entries.iter().zip(&offsets).enumerate() {
        let payload = &container[start..start + e.speck_len + e.outlier_len];
        if crc32(payload) != crcs[i] {
            return Err(CompressError::Corrupt(format!("chunk {i} payload checksum mismatch")));
        }
    }
    Ok(())
}

/// Outcome of one chunk in [`Sperr::decompress_resilient`].
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

/// Per-chunk outcomes of a resilient decode.
#[derive(Debug, Clone)]
pub struct ResilientReport {
    /// One status per chunk, in chunk-grid order.
    pub statuses: Vec<ChunkStatus>,
}

impl ResilientReport {
    /// True when every chunk decoded cleanly.
    pub fn all_ok(&self) -> bool {
        self.statuses.iter().all(|s| matches!(s, ChunkStatus::Ok))
    }

    /// Indices of chunks that failed (either way).
    pub fn failed_chunks(&self) -> Vec<usize> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s, ChunkStatus::Ok))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Per-chunk outcomes of a region decode (see [`Sperr::decode_region`]).
/// Only the chunks intersecting the requested bbox appear; `chunk_ids[i]`
/// names the grid index `statuses[i]` refers to.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// Grid indices of the chunks that intersect the region, ascending.
    pub chunk_ids: Vec<usize>,
    /// One status per intersecting chunk, parallel to `chunk_ids`.
    pub statuses: Vec<ChunkStatus>,
    /// Whether the container-v3 chunk index was used to seek (false for
    /// legacy v1/v2 streams, which fall back to a chunk-table scan).
    pub used_index: bool,
}

impl RegionReport {
    /// True when every intersecting chunk decoded cleanly.
    pub fn all_ok(&self) -> bool {
        self.statuses.iter().all(|s| matches!(s, ChunkStatus::Ok))
    }
}

/// Result of a checksum-only integrity pass (see [`Sperr::verify`]).
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Container format version (1, 2 or 3).
    pub version: u8,
    /// Whether the stream carries checksums at all (v2 only).
    pub checksummed: bool,
    /// Number of chunks in the stream.
    pub n_chunks: usize,
    /// Indices of chunks whose payload CRC failed.
    pub corrupt_chunks: Vec<usize>,
}

impl VerifyReport {
    /// True when no checksum failed (vacuously true for v1 streams —
    /// check [`Self::checksummed`] to tell the difference).
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

    fn decompress(&self, stream: &[u8]) -> Result<Field, CompressError> {
        self.decompress_with_stats(stream).map(|(field, _)| field)
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
    fn v1_stream_decodes_back_compat() {
        // Re-emit a freshly compressed stream in the legacy v1 layout and
        // check the reader still accepts it, byte-identically.
        let field = test_field([16, 16, 16]);
        let sperr = raw_sperr();
        let v2 = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let parsed = read_container(&v2[1..]).unwrap();
        let offsets = chunk_offsets(&parsed.entries, parsed.payload_start);
        let chunks: Vec<ChunkEncoding> = parsed
            .entries
            .iter()
            .zip(&offsets)
            .map(|(e, &s)| ChunkEncoding {
                speck_stream: v2[1 + s..1 + s + e.speck_len].to_vec(),
                outlier_stream:
                    v2[1 + s + e.speck_len..1 + s + e.speck_len + e.outlier_len].to_vec(),
                q: e.q,
                num_planes: e.num_planes,
                max_n: e.max_n,
                num_outliers: e.num_outliers,
                speck_bits: e.speck_len * 8,
                outlier_bits: e.outlier_len * 8,
                times: Default::default(),
                coeff_sq_error: 0.0,
                max_err: f64::NAN,
            })
            .collect();
        let v1 = crate::container::write_container_v1(&parsed.header, &chunks);
        let mut legacy = vec![crate::outer::OUTER_RAW];
        legacy.extend_from_slice(&v1);
        assert_eq!(
            sperr.decompress(&legacy).unwrap().data,
            sperr.decompress(&v2).unwrap().data
        );
        assert_eq!(sperr.inspect(&legacy).unwrap().version, 1);
        let report = sperr.verify(&legacy).unwrap();
        assert!(!report.checksummed);
        assert!(report.is_ok());
    }

    #[test]
    fn resilient_decode_isolates_damaged_chunk() {
        // Two chunks; flip a byte inside the second chunk's payload. The
        // strict decoder must reject the stream, verify() must name the
        // chunk, and the resilient decoder must return chunk 0
        // bit-identical with chunk 1 zero-filled.
        let field = test_field([32, 16, 16]);
        let sperr = raw_sperr();
        let stream = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let info = sperr.inspect(&stream).unwrap();
        assert_eq!(info.n_chunks, 2);
        let clean = sperr.decompress(&stream).unwrap();

        let mut bad = stream.clone();
        let target = 1 + info.payload_offset + info.chunk_payload_sizes[0] + 2;
        bad[target] ^= 0xFF;

        assert!(matches!(sperr.decompress(&bad), Err(CompressError::Corrupt(_))));
        assert_eq!(sperr.verify(&bad).unwrap().corrupt_chunks, vec![1]);

        let (rec, report) = sperr.decompress_resilient(&bad).unwrap();
        assert_eq!(report.statuses[0], ChunkStatus::Ok);
        assert_eq!(report.statuses[1], ChunkStatus::ChecksumMismatch);
        assert_eq!(report.failed_chunks(), vec![1]);
        assert!(!report.all_ok());
        // Chunk 0 spans x in 0..16; chunk 1 spans x in 16..32.
        for z in 0..16 {
            for y in 0..16 {
                for x in 0..32 {
                    let i = x + 32 * (y + 16 * z);
                    if x < 16 {
                        assert_eq!(rec.data[i], clean.data[i], "healthy chunk altered at {i}");
                    } else {
                        assert_eq!(rec.data[i], 0.0, "damaged chunk not neutral at {i}");
                    }
                }
            }
        }
        // An undamaged stream reports all chunks Ok and matches strict.
        let (rec2, report2) = sperr.decompress_resilient(&stream).unwrap();
        assert!(report2.all_ok());
        assert_eq!(rec2.data, clean.data);
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
        assert_eq!(cfg.container_version, 3); // indexed container
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
    fn decode_region_seeks_v3_and_scans_legacy() {
        // The same bbox query must produce identical bytes from a v3
        // stream (index seek), its v2 downgrade and its v1 downgrade
        // (both full-scan fallback), with used_index reporting the path.
        let field = test_field([40, 24, 16]);
        let sperr = raw_sperr();
        let v3 = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let v2 = sperr.downgrade_to_v2(&v3).unwrap();
        let v1 = sperr.downgrade_to_v1(&v3).unwrap();
        assert_eq!(sperr.inspect(&v2).unwrap().version, 2);
        assert!(sperr.inspect(&v2).unwrap().chunk_index.is_none());
        let (lo, hi) = ([7usize, 3, 2], [25usize, 20, 13]);
        let (r3, rep3) = sperr.decode_region(&v3, lo, hi).unwrap();
        let (r2, rep2) = sperr.decode_region(&v2, lo, hi).unwrap();
        let (r1, rep1) = sperr.decode_region(&v1, lo, hi).unwrap();
        assert!(rep3.used_index);
        assert!(!rep2.used_index);
        assert!(!rep1.used_index);
        assert!(rep3.all_ok() && rep2.all_ok() && rep1.all_ok());
        assert_eq!(r3.data, r2.data);
        assert_eq!(r3.data, r1.data);
        // Bit-identical to the bbox slice of a full decompress.
        let full = sperr.decompress(&v3).unwrap();
        let rdims = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
        assert_eq!(r3.dims, rdims);
        for z in 0..rdims[2] {
            for y in 0..rdims[1] {
                for x in 0..rdims[0] {
                    let src = (x + lo[0]) + 40 * ((y + lo[1]) + 24 * (z + lo[2]));
                    let dst = x + rdims[0] * (y + rdims[1] * z);
                    assert_eq!(full.data[src].to_bits(), r3.data[dst].to_bits());
                }
            }
        }
        // Only the chunks the bbox touches get decoded.
        assert!(rep3.chunk_ids.len() < sperr.chunk_count([40, 24, 16]));
    }

    #[test]
    fn decode_region_contains_damage_to_touched_chunks() {
        // Damage inside the region: the damaged chunk's intersection is
        // zero-filled and reported; healthy chunks still decode. Damage
        // *outside* the region is invisible to the query.
        let field = test_field([32, 16, 16]);
        let sperr = raw_sperr();
        let stream = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let info = sperr.inspect(&stream).unwrap();
        let mut bad = stream.clone();
        // Corrupt chunk 1 (x in 16..32).
        bad[1 + info.payload_offset + info.chunk_payload_sizes[0] + 2] ^= 0xFF;

        // Query only chunk 0: unaffected, and strict wrapper succeeds.
        let (r, rep) = sperr.decode_region(&bad, [0, 0, 0], [16, 16, 16]).unwrap();
        assert!(rep.all_ok());
        assert_eq!(rep.chunk_ids, vec![0]);
        assert_eq!(
            r.data,
            sperr.decompress_region(&stream, [0, 0, 0], [16, 16, 16]).unwrap().data
        );
        assert!(sperr.decompress_region(&bad, [0, 0, 0], [16, 16, 16]).is_ok());

        // Query spanning both: chunk 1's slice zero-filled + reported,
        // strict wrapper errors.
        let (r, rep) = sperr.decode_region(&bad, [12, 0, 0], [20, 16, 16]).unwrap();
        assert_eq!(rep.chunk_ids, vec![0, 1]);
        assert_eq!(rep.statuses[0], ChunkStatus::Ok);
        assert_eq!(rep.statuses[1], ChunkStatus::ChecksumMismatch);
        for z in 0..16 {
            for y in 0..16 {
                for x in 16..20 {
                    assert_eq!(r.data[(x - 12) + 8 * (y + 16 * z)], 0.0);
                }
            }
        }
        assert!(matches!(
            sperr.decompress_region(&bad, [12, 0, 0], [20, 16, 16]),
            Err(CompressError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_at_bpp_matches_transcode_then_decompress() {
        // The in-place preview must be bit-identical to materializing the
        // transcoded stream and decoding it — same budget arithmetic, same
        // truncated decode.
        let field = test_field([32, 20, 16]);
        let sperr = raw_sperr();
        let stream = sperr.compress(&field, Bound::Pwe(1e-4)).unwrap();
        for bpp in [0.25, 1.0, 4.0] {
            let preview = sperr.decode_at_bpp(&stream, bpp).unwrap();
            let transcoded = sperr.transcode_to_bpp(&stream, bpp).unwrap();
            let reference = sperr.decompress(&transcoded).unwrap();
            assert_eq!(preview.dims, reference.dims);
            let identical = preview
                .data
                .iter()
                .zip(&reference.data)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "preview at {bpp} bpp diverges from transcode");
        }
        // Unlimited budgets reproduce the outlier-free reconstruction of
        // every chunk without error — truncation is never "corruption".
        let info = sperr.inspect(&stream).unwrap();
        let full = sperr.decode_at_budgets(&stream, &vec![usize::MAX; info.n_chunks]).unwrap();
        assert_eq!(full.dims, field.dims);
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
            // A v2-configured compressor produces that exact stream.
            let direct = Sperr::new(SperrConfig {
                chunk_dims: [16, 16, 16],
                lossless,
                container_version: 2,
                ..SperrConfig::default()
            })
            .compress(&field, Bound::Pwe(1e-3))
            .unwrap();
            assert_eq!(v2, direct, "downgrade differs from a native v2 encode");
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
    fn f32_stream_decompresses_to_exact_widening() {
        // decompress() on a tag-2 stream must equal decompress_f32()
        // widened — the f64 surface never re-runs the math at f64.
        let field = test_field_f32([20, 20, 20]);
        let sperr = raw_sperr();
        let stream = sperr.compress_f32(&field, Bound::Pwe(1e-3)).unwrap();
        let narrow = sperr.decompress_f32(&stream).unwrap();
        let wide = sperr.decompress(&stream).unwrap();
        assert_eq!(wide.precision, Precision::Single);
        assert_eq!(wide.data.len(), narrow.data.len());
        for (w, n) in wide.data.iter().zip(&narrow.data) {
            assert_eq!(w.to_bits(), (*n as f64).to_bits());
        }
    }

    #[test]
    fn decompress_f32_rejects_non_native_stream() {
        let field = test_field([16, 16, 16]);
        let sperr = raw_sperr();
        let stream = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        assert!(matches!(
            sperr.decompress_f32(&stream),
            Err(CompressError::Invalid(_))
        ));
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

    #[test]
    fn f32_stream_supports_all_f64_decode_surfaces() {
        // Region decode, resilient decode, transcode and budget previews
        // all accept tag-2 streams and agree with the widened full decode.
        let field = test_field_f32([32, 20, 16]);
        let sperr = raw_sperr();
        let stream = sperr.compress_f32(&field, Bound::Pwe(1e-4)).unwrap();
        let full = sperr.decompress(&stream).unwrap();

        // Region decode matches the same slice of the full decode.
        let region = sperr.decompress_region(&stream, [4, 2, 1], [20, 18, 9]).unwrap();
        for z in 1..9 {
            for y in 2..18 {
                for x in 4..20 {
                    let fi = x + 32 * (y + 20 * z);
                    let ri = (x - 4) + 16 * ((y - 2) + 16 * (z - 1));
                    assert_eq!(full.data[fi].to_bits(), region.data[ri].to_bits());
                }
            }
        }

        // Resilient decode of an undamaged stream matches strict.
        let (res, report) = sperr.decompress_resilient(&stream).unwrap();
        assert!(report.all_ok());
        assert_eq!(res.data, full.data);

        // Transcode preserves the native-f32 tag; the preview is
        // bit-identical to transcode-then-decompress.
        for bpp in [0.5, 2.0] {
            let transcoded = sperr.transcode_to_bpp(&stream, bpp).unwrap();
            assert!(sperr.inspect(&transcoded).unwrap().native_f32);
            let preview = sperr.decode_at_bpp(&stream, bpp).unwrap();
            let reference = sperr.decompress(&transcoded).unwrap();
            let same = preview
                .data
                .iter()
                .zip(&reference.data)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "tag-2 preview at {bpp} bpp diverges from transcode");
        }
    }

    #[test]
    fn f32_lossless_postpass_roundtrips() {
        let field = test_field_f32([20, 20, 20]);
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            lossless: true,
            ..SperrConfig::default()
        });
        let stream = sperr.compress_f32(&field, Bound::Pwe(1e-3)).unwrap();
        assert!(sperr.inspect(&stream).unwrap().native_f32);
        let raw = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            lossless: false,
            ..SperrConfig::default()
        })
        .compress_f32(&field, Bound::Pwe(1e-3))
        .unwrap();
        assert_eq!(
            sperr.decompress_f32(&stream).unwrap().data,
            sperr.decompress_f32(&raw).unwrap().data
        );
    }
}
