//! Cost and timing accounting for the evaluation harness (Figs. 2, 4, 6).

use std::time::Duration;

/// Canonical telemetry span labels for the pipeline stages, shared by the
/// instrumentation sites (pipeline/compressor), the CLI `--stats` printer
/// and the trace-schema checks in the bench harness. One label per
/// [`StageTimes`] field, split by direction.
pub mod stage_labels {
    /// Forward wavelet transform of one chunk.
    pub const WAVELET_FORWARD: &str = "stage.wavelet.forward";
    /// SPECK encoding of one chunk's coefficients.
    pub const SPECK_ENCODE: &str = "stage.speck.encode";
    /// Outlier location: reconstruction + inverse transform + scan.
    pub const OUTLIER_LOCATE: &str = "stage.outlier.locate";
    /// Outlier correction encoding.
    pub const OUTLIER_ENCODE: &str = "stage.outlier.encode";
    /// Container serialization of the whole run.
    pub const CONTAINER_WRITE: &str = "stage.container.write";
    /// Lossless back end over the serialized container.
    pub const LOSSLESS_COMPRESS: &str = "stage.lossless.compress";

    /// Lossless decode of the outer framing.
    pub const LOSSLESS_DECOMPRESS: &str = "stage.lossless.decompress";
    /// Container parse + per-chunk CRC verification.
    pub const CONTAINER_READ: &str = "stage.container.read";
    /// SPECK decoding of one chunk.
    pub const SPECK_DECODE: &str = "stage.speck.decode";
    /// Inverse wavelet transform of one chunk.
    pub const WAVELET_INVERSE: &str = "stage.wavelet.inverse";
    /// Application of decoded outlier corrections.
    pub const OUTLIER_APPLY: &str = "stage.outlier.apply";

    /// Every compression-side stage, in pipeline order.
    pub const COMPRESS: &[&str] = &[
        WAVELET_FORWARD,
        SPECK_ENCODE,
        OUTLIER_LOCATE,
        OUTLIER_ENCODE,
        CONTAINER_WRITE,
        LOSSLESS_COMPRESS,
    ];

    /// Every decompression-side stage, in pipeline order.
    pub const DECOMPRESS: &[&str] =
        &[LOSSLESS_DECOMPRESS, CONTAINER_READ, SPECK_DECODE, WAVELET_INVERSE, OUTLIER_APPLY];
}

/// Canonical metric labels for the histogram layer: top-level operation
/// latencies (split by coefficient width where the pipeline forks),
/// output-size distributions, and memory gauges. Stage latencies reuse
/// [`stage_labels`] directly — `sperr_telemetry::timed` records a
/// histogram sample under the span label at every stage call site.
pub mod metric_labels {
    /// Wall time of one compress call on the f64 pipeline.
    pub const OP_COMPRESS_F64: &str = "op.compress.f64";
    /// Wall time of one compress call on the f32-native pipeline.
    pub const OP_COMPRESS_F32: &str = "op.compress.f32";
    /// Wall time of one full read (`ReadRequest::Full`) of an f64 stream.
    pub const OP_DECOMPRESS_F64: &str = "op.decompress.f64";
    /// Wall time of one full read of an f32-native stream, at either
    /// width.
    pub const OP_DECOMPRESS_F32: &str = "op.decompress.f32";
    /// Wall time of one region read (either width).
    pub const OP_DECODE_REGION: &str = "op.decode_region";
    /// Wall time of one preview read (`Bpp` or `Budgets`).
    pub const OP_DECODE_PREVIEW: &str = "op.decode_preview";
    /// Wall time of one streaming `compress_stream` run.
    pub const OP_COMPRESS_STREAM: &str = "op.compress_stream";
    /// Wall time of one streaming `decompress_stream` run.
    pub const OP_DECOMPRESS_STREAM: &str = "op.decompress_stream";

    /// Final output bytes per compress call (the exporter appends the
    /// `_bytes` unit suffix — labels stay unit-free).
    pub const SIZE_OUTPUT: &str = "size.output";
    /// SPECK payload bytes per encoded chunk.
    pub const SIZE_CHUNK_SPECK: &str = "size.chunk.speck";

    /// Working memory on the f64 path: per compress, what the `Sperr`
    /// keeps between calls (every worker's arena, the container buffer and
    /// the lossless tables); per read, each worker's decode arena. The
    /// histogram max is the high-water mark.
    pub const MEM_ARENA_F64: &str = "mem.arena.f64";
    /// [`MEM_ARENA_F64`] on the f32-native path.
    pub const MEM_ARENA_F32: &str = "mem.arena.f32";

    /// Streaming pipeline in-flight chunk occupancy, sampled at every
    /// admit/retire transition; max is the observed peak.
    pub const STREAM_IN_FLIGHT: &str = "stream.in_flight_chunks";
    /// Streaming pipeline configured in-flight budget (constant gauge).
    pub const STREAM_IN_FLIGHT_BUDGET: &str = "stream.in_flight_budget";

    /// Every operation-latency label, for exporters and tests.
    pub const OPS: &[&str] = &[
        OP_COMPRESS_F64,
        OP_COMPRESS_F32,
        OP_DECOMPRESS_F64,
        OP_DECOMPRESS_F32,
        OP_DECODE_REGION,
        OP_DECODE_PREVIEW,
        OP_COMPRESS_STREAM,
        OP_DECOMPRESS_STREAM,
    ];
}

/// Records `bytes` of working memory at sample width `T` into the
/// width-matched memory histogram ([`metric_labels::MEM_ARENA_F64`] /
/// [`metric_labels::MEM_ARENA_F32`]), whose max the exporters surface as
/// the high-water mark.
pub(crate) fn record_memory<T: sperr_simd::Float>(bytes: usize) {
    let label = match T::BYTES {
        4 => metric_labels::MEM_ARENA_F32,
        _ => metric_labels::MEM_ARENA_F64,
    };
    sperr_telemetry::record_bytes(label, bytes as u64);
}

/// Wall time spent in each pipeline stage (§V-C's four major steps, plus
/// the container serialization and lossless back end that bracket them —
/// with those included, `total()` reconciles with end-to-end time on a
/// serial run).
///
/// Stages are timed where they run, so on more than one thread they
/// overlap and `total()` can exceed the wall time: chunks decode side by
/// side, and within a chunk whose batch leaves workers idle the outlier
/// list decodes (counted in `outlier_coding`) while SPECK's sorting pass
/// runs (counted in `speck`). On one thread nothing overlaps, and
/// `total()` is at most the wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// 1) forward wavelet transform.
    pub wavelet: Duration,
    /// 2) SPECK coding of wavelet coefficients.
    pub speck: Duration,
    /// 3) locating outliers: inverse transform + comparison.
    pub locate_outliers: Duration,
    /// 4) encoding located outliers.
    pub outlier_coding: Duration,
    /// 5) container serialization (write on compress, parse + CRC verify
    /// on decompress). Run-level, not per-chunk.
    pub container: Duration,
    /// 6) lossless back end over the whole container (ZSTD stand-in).
    /// Run-level; zero when the lossless pass is disabled.
    pub lossless: Duration,
}

impl StageTimes {
    /// Sum of all stages.
    pub fn total(&self) -> Duration {
        self.wavelet
            + self.speck
            + self.locate_outliers
            + self.outlier_coding
            + self.container
            + self.lossless
    }

    /// Accumulates another chunk's times.
    pub fn accumulate(&mut self, other: &StageTimes) {
        self.wavelet += other.wavelet;
        self.speck += other.speck;
        self.locate_outliers += other.locate_outliers;
        self.outlier_coding += other.outlier_coding;
        self.container += other.container;
        self.lossless += other.lossless;
    }
}

/// Aggregate cost accounting for one compression run.
#[derive(Debug, Clone, Default)]
pub struct CompressionStats {
    /// Total input points.
    pub num_points: usize,
    /// Bits produced by SPECK coefficient coding (all chunks).
    pub speck_bits: usize,
    /// Bits produced by outlier coding (all chunks).
    pub outlier_bits: usize,
    /// Number of outliers corrected.
    pub num_outliers: usize,
    /// Container bytes before the lossless pass.
    pub container_bytes: usize,
    /// Final output bytes (after the lossless pass, when enabled).
    pub output_bytes: usize,
    /// Accumulated per-stage times across chunks (serial CPU time).
    pub stage_times: StageTimes,
    /// Number of chunks processed.
    pub num_chunks: usize,
    /// Sum of squared quantization errors in the *wavelet domain*,
    /// accumulated during encoding at negligible cost. Because the CDF 9/7
    /// basis is near-orthonormal (§III-A), this estimates the
    /// reconstruction L2 error without any decode pass — the property §VII
    /// says "enables estimating compression error without much
    /// computational overhead".
    pub coeff_sq_error: f64,
}

impl CompressionStats {
    /// Overall bitrate in bits per point (final output).
    pub fn bpp(&self) -> f64 {
        self.output_bytes as f64 * 8.0 / self.num_points.max(1) as f64
    }

    /// Coefficient-coding bitrate in bits per point (Fig. 2's split).
    pub fn speck_bpp(&self) -> f64 {
        self.speck_bits as f64 / self.num_points.max(1) as f64
    }

    /// Outlier-coding bitrate in bits per point (Fig. 2's split).
    pub fn outlier_bpp(&self) -> f64 {
        self.outlier_bits as f64 / self.num_points.max(1) as f64
    }

    /// Average bits spent per outlier (Figs. 4 and 11); NaN when no
    /// outliers were produced.
    pub fn bits_per_outlier(&self) -> f64 {
        self.outlier_bits as f64 / self.num_outliers as f64
    }

    /// Fraction of points that were outliers (Fig. 4's dashed lines).
    pub fn outlier_percentage(&self) -> f64 {
        100.0 * self.num_outliers as f64 / self.num_points.max(1) as f64
    }

    /// Estimated reconstruction RMSE from the wavelet-domain quantization
    /// error (no decode needed; see [`CompressionStats::coeff_sq_error`]).
    /// For PWE streams this estimates the error *before* outlier
    /// correction (corrections only shrink it further).
    pub fn estimated_rmse(&self) -> f64 {
        (self.coeff_sq_error / self.num_points.max(1) as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bpp_accounting() {
        let stats = CompressionStats {
            num_points: 1000,
            speck_bits: 2000,
            outlier_bits: 500,
            num_outliers: 50,
            output_bytes: 400,
            ..Default::default()
        };
        assert!((stats.bpp() - 3.2).abs() < 1e-12);
        assert!((stats.speck_bpp() - 2.0).abs() < 1e-12);
        assert!((stats.outlier_bpp() - 0.5).abs() < 1e-12);
        assert!((stats.bits_per_outlier() - 10.0).abs() < 1e-12);
        assert!((stats.outlier_percentage() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stage_times_accumulate() {
        let mut a = StageTimes {
            wavelet: Duration::from_millis(5),
            speck: Duration::from_millis(10),
            locate_outliers: Duration::from_millis(3),
            outlier_coding: Duration::from_millis(2),
            container: Duration::from_millis(4),
            lossless: Duration::from_millis(6),
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total(), Duration::from_millis(60));
    }
}
