//! SPERR: SPEck with ERRor bounding — the paper's primary contribution.
//!
//! A lossy compressor for structured scientific floating-point data that
//! couples:
//!
//! 1. a CDF 9/7 wavelet transform (`sperr-wavelet`),
//! 2. the SPECK set-partitioning coder with arbitrary quantization step
//!    (`sperr-speck`),
//! 3. an outlier coder that records positions and correction values of
//!    points violating the point-wise error tolerance (`sperr-outlier`),
//! 4. a lossless post-pass over the concatenated bitstreams
//!    (`sperr-lossless`, standing in for ZSTD — §V).
//!
//! Termination modes — the paper's two plus its §VII extension:
//!
//! * **PWE-bounded** (`Bound::Pwe(t)`): SPECK runs at quantization step
//!   `q = 1.5·t` (the §IV-D sweet-spot default), the reconstruction is
//!   compared against the original, and every point off by more than `t`
//!   is corrected through the outlier coder. The decoded field satisfies
//!   `max |xᵢ − zᵢ| ≤ t`.
//! * **Size-bounded** (`Bound::Bpp(r)`): SPECK's embedded stream is cut at
//!   the bit budget; no outlier pass (no error guarantee), like SPECK/ZFP
//!   fixed-rate modes.
//! * **Average-error** (`Bound::Psnr(db)`): quantization step set from the
//!   PSNR target via the transform's near-orthogonality (§VII item 1).
//!
//! Beyond compress/decompress, one read ([`Sperr::read`]) answers every
//! [`ReadRequest`] at either sample width: multi-resolution decoding,
//! random-access region decoding via the container-v3 chunk index,
//! progressive byte-budget previews, and damaged-stream salvage
//! ([`OnDamage`]). Also: re-rating without re-encoding
//! ([`Sperr::transcode_to_bpp`]), stream inspection ([`Sperr::inspect`])
//! and bounded-memory streaming over `Read`/`Write`
//! ([`Sperr::compress_stream`] / [`Sperr::decompress_stream`]).
//!
//! Large volumes are split into chunks (default 256³, configurable, not
//! required to divide the volume — §III-D) and chunks are processed
//! embarrassingly parallel on one worker pool per call.
//!
//! # Example
//!
//! ```
//! use sperr_core::{Sperr, SperrConfig};
//! use sperr_compress_api::{Bound, Field, LossyCompressor};
//!
//! let field = Field::from_fn([32, 32, 32], |x, y, z| {
//!     (x as f64 * 0.2).sin() + (y as f64 * 0.1).cos() + z as f64 * 0.01
//! });
//! let t = 1e-4;
//! let sperr = Sperr::new(SperrConfig::default());
//! let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
//! let restored = sperr.decompress(&stream).unwrap();
//! let max_err = field.data.iter().zip(&restored.data)
//!     .map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
//! assert!(max_err <= t);
//! ```

mod chunk;
mod compressor;
mod container;
mod crc32;
mod decode;
mod outer;
#[doc(hidden)]
pub mod faultpoint;
mod pipeline;
mod stats;
mod stream;
mod warm;
pub use stats::{metric_labels, stage_labels};

pub use chunk::{chunk_grid, extract_chunk, extract_chunk_into, ChunkSpec};
pub use compressor::{Sperr, SperrConfig, StreamInfo, VerifyReport};
pub use container::Mode;
pub use container::{ChunkIndexEntry, VERSION as CONTAINER_VERSION};
pub use crc32::crc32;
pub use decode::{ChunkStatus, OnDamage, ReadOutput, ReadReport, ReadRequest};
pub use pipeline::{compress_chunk, ChunkEncoding, ChunkMode, Refusal, ScratchArena};
pub use sperr_exec::WorkerPool;
/// The sample-width abstraction the generic pipeline is written against,
/// re-exported so downstream crates need not depend on `sperr-simd`.
pub use sperr_simd::Float;
pub use stats::{CompressionStats, StageTimes};
pub use stream::{SperrError, StreamReport, STAGE_CONTAINER, STAGE_EMIT, STAGE_INGEST};

#[cfg(test)]
mod tests {
    use super::*;
    use sperr_compress_api::{Bound, CompressError, Field, LossyCompressor};

    /// `what` of `stream` at f64, strictly.
    fn read(sperr: &Sperr, stream: &[u8], what: ReadRequest) -> Result<Field, CompressError> {
        Ok(sperr.read(stream, what, OnDamage::Fail)?.field)
    }

    fn wavy_field(dims: [usize; 3]) -> Field {
        Field::from_fn(dims, |x, y, z| {
            (x as f64 * 0.31).sin() * 40.0
                + (y as f64 * 0.17).cos() * 25.0
                + ((x * y) as f64 * 0.01).sin() * 10.0
                + z as f64 * 0.5
        })
    }

    fn max_err(a: &Field, b: &Field) -> f64 {
        a.data
            .iter()
            .zip(&b.data)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn pwe_guarantee_single_chunk() {
        let field = wavy_field([32, 32, 32]);
        let sperr = Sperr::new(SperrConfig::default());
        for idx in [5u32, 10, 20, 30] {
            let t = field.tolerance_for_idx(idx);
            let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
            let restored = sperr.decompress(&stream).unwrap();
            assert_eq!(restored.dims, field.dims);
            let e = max_err(&field, &restored);
            assert!(e <= t, "idx={idx}: max err {e} > t {t}");
        }
    }

    #[test]
    fn pwe_guarantee_multi_chunk_non_divisible() {
        // 40 is not divisible by 16: boundary chunks are smaller (§III-D).
        let field = wavy_field([40, 24, 20]);
        let cfg = SperrConfig { chunk_dims: [16, 16, 16], ..SperrConfig::default() };
        let sperr = Sperr::new(cfg);
        let t = field.tolerance_for_idx(15);
        let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        let restored = sperr.decompress(&stream).unwrap();
        assert!(max_err(&field, &restored) <= t);
    }

    #[test]
    fn parallel_output_matches_serial() {
        let field = wavy_field([48, 32, 32]);
        let t = field.tolerance_for_idx(12);
        let serial = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            num_threads: 1,
            ..SperrConfig::default()
        });
        let parallel = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            num_threads: 4,
            ..SperrConfig::default()
        });
        let a = serial.compress(&field, Bound::Pwe(t)).unwrap();
        let b = parallel.compress(&field, Bound::Pwe(t)).unwrap();
        assert_eq!(a, b, "chunk order must be deterministic regardless of threading");
        assert_eq!(
            serial.decompress(&a).unwrap().data,
            parallel.decompress(&b).unwrap().data
        );
    }

    #[test]
    fn bpp_mode_hits_target_size() {
        let field = wavy_field([32, 32, 32]);
        let sperr = Sperr::new(SperrConfig::default());
        for target in [0.5f64, 2.0, 4.0] {
            let stream = sperr.compress(&field, Bound::Bpp(target)).unwrap();
            let bpp = stream.len() as f64 * 8.0 / field.len() as f64;
            // Lossless post-pass and headers blur it slightly; stay close.
            assert!(
                bpp <= target * 1.15 + 0.2,
                "target {target} bpp, got {bpp}"
            );
            let restored = sperr.decompress(&stream).unwrap();
            assert_eq!(restored.len(), field.len());
        }
    }

    #[test]
    fn bpp_quality_improves_with_rate() {
        let field = wavy_field([32, 32, 32]);
        let sperr = Sperr::new(SperrConfig::default());
        let lo = sperr.compress(&field, Bound::Bpp(0.5)).unwrap();
        let hi = sperr.compress(&field, Bound::Bpp(6.0)).unwrap();
        let rmse = |s: &[u8]| {
            let rec = sperr.decompress(s).unwrap();
            sperr_metrics::rmse(&field.data, &rec.data)
        };
        assert!(rmse(&hi) < rmse(&lo));
    }

    #[test]
    fn two_dimensional_slice() {
        let field = Field::from_fn([64, 48, 1], |x, y, _| {
            ((x as f64 * 0.2).sin() + (y as f64 * 0.3).cos()) * 100.0
        });
        let sperr = Sperr::new(SperrConfig::default());
        let t = field.tolerance_for_idx(18);
        let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        let restored = sperr.decompress(&stream).unwrap();
        assert!(max_err(&field, &restored) <= t);
    }

    #[test]
    fn constant_field_compresses_tiny() {
        let field = Field::new([16, 16, 16], vec![3.5; 4096]);
        let sperr = Sperr::new(SperrConfig::default());
        let stream = sperr.compress(&field, Bound::Pwe(1e-9)).unwrap();
        // 4096 f64 = 32 KiB raw; the approximation band's handful of
        // deep-precision coefficients still cost a few hundred bytes.
        assert!(stream.len() < 600, "constant field took {} bytes", stream.len());
        let restored = sperr.decompress(&stream).unwrap();
        assert!(max_err(&field, &restored) <= 1e-9);
    }

    #[test]
    fn lossless_pass_toggle_roundtrips() {
        let field = wavy_field([24, 24, 24]);
        let t = field.tolerance_for_idx(10);
        for lossless in [false, true] {
            let sperr = Sperr::new(SperrConfig { lossless, ..SperrConfig::default() });
            let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
            let restored = sperr.decompress(&stream).unwrap();
            assert!(max_err(&field, &restored) <= t, "lossless={lossless}");
        }
    }

    #[test]
    fn stats_account_for_both_coders() {
        let field = wavy_field([32, 32, 32]);
        let sperr = Sperr::new(SperrConfig::default());
        let t = field.tolerance_for_idx(20);
        let (_, stats) = sperr.compress_with_stats(&field, Bound::Pwe(t)).unwrap();
        assert!(stats.speck_bits > 0);
        assert_eq!(stats.num_points, field.len());
        // q = 1.5t leaves some outliers on this field at most tolerances;
        // outlier bits must be accounted whenever outliers exist.
        if stats.num_outliers > 0 {
            assert!(stats.outlier_bits > 0);
            let bpo = stats.outlier_bits as f64 / stats.num_outliers as f64;
            assert!((2.0..64.0).contains(&bpo), "bits/outlier {bpo}");
        }
    }

    #[test]
    fn corrupt_stream_is_error_not_panic() {
        let field = wavy_field([16, 16, 16]);
        let sperr = Sperr::new(SperrConfig::default());
        let stream = sperr.compress(&field, Bound::Pwe(0.1)).unwrap();
        // Truncations at various points.
        for cut in [0usize, 1, 5, 10, stream.len() / 2] {
            assert!(sperr.decompress(&stream[..cut]).is_err(), "cut={cut}");
        }
        // Bit flips in the header region.
        let mut bad = stream.clone();
        bad[0] ^= 0xFF;
        assert!(sperr.decompress(&bad).is_err());
    }

    #[test]
    fn all_bound_kinds_supported() {
        // PWE and BPP from the paper; PSNR via the §VII extension.
        let sperr = Sperr::new(SperrConfig::default());
        assert!(sperr.supports(&Bound::Psnr(80.0)));
        assert!(sperr.supports(&Bound::Pwe(0.1)));
        assert!(sperr.supports(&Bound::Bpp(2.0)));
        // Invalid bound values are still rejected.
        let field = wavy_field([8, 8, 8]);
        assert!(sperr.compress(&field, Bound::Pwe(-1.0)).is_err());
        assert!(sperr.compress(&field, Bound::Bpp(f64::NAN)).is_err());
        assert!(sperr.compress(&field, Bound::Psnr(0.0)).is_err());
        // A target whose RMSE underflows to zero is refused, not a panic.
        assert!(sperr.compress(&field, Bound::Psnr(1e4)).is_err());
    }

    #[test]
    fn nan_is_refused_wherever_a_positive_value_is_checked() {
        // Each guard is written so that NaN fails it: a bound, a chunk's
        // quantization step read from a container, and the tolerance the
        // outlier decoder is handed.
        let sperr = Sperr::new(SperrConfig::default());
        let field = wavy_field([8, 8, 8]);
        for bound in [Bound::Pwe(f64::NAN), Bound::Psnr(f64::NAN)] {
            let err = compressor::validate_bound(bound).err();
            assert!(matches!(err, Some(CompressError::Invalid(_))), "{bound:?}: {err:?}");
            let err = sperr.compress(&field, bound).unwrap_err();
            assert!(matches!(err, CompressError::Invalid(_)), "{bound:?}: {err:?}");
        }
        // A container whose one chunk has `q` NaN, with every checksum right.
        let header = container::Header {
            mode: container::Mode::Pwe,
            kernel: sperr_wavelet::Kernel::Cdf97,
            precision: sperr_compress_api::Precision::Double,
            native_f32: false,
            dims: [8, 8, 8],
            chunk_dims: [8, 8, 8],
            bound_value: 0.25,
            n_chunks: 1,
        };
        let chunk = pipeline::ChunkEncoding {
            speck_stream: vec![1, 2, 3],
            outlier_stream: Vec::new(),
            q: f64::NAN,
            num_planes: 7,
            max_n: 0,
            num_outliers: 0,
            speck_bits: 24,
            outlier_bits: 0,
            times: stats::StageTimes::default(),
            coeff_sq_error: 0.0,
            max_err: 0.125,
        };
        let bytes = container::write_container(&header, &[chunk], container::VERSION);
        let err = container::read_container(&bytes).err();
        assert!(matches!(err, Some(CompressError::Corrupt(_))), "chunk q NaN: {err:?}");
        let err = sperr_outlier::decode(&[0xff; 4], 512, f64::NAN, 3).unwrap_err();
        assert!(matches!(err, sperr_outlier::DecodeError::Corrupt(_)), "tolerance NaN: {err:?}");
    }

    #[test]
    fn q_factor_controls_outlier_balance() {
        // §IV-D: larger q -> coarser SPECK -> more outliers.
        let field = wavy_field([32, 32, 32]);
        let t = field.tolerance_for_idx(15);
        let count_outliers = |qf: f64| {
            let sperr = Sperr::new(SperrConfig { q_factor: qf, ..SperrConfig::default() });
            let (_, stats) = sperr.compress_with_stats(&field, Bound::Pwe(t)).unwrap();
            stats.num_outliers
        };
        let few = count_outliers(1.0);
        let many = count_outliers(2.5);
        assert!(many > few, "q=2.5t gave {many} outliers vs q=1.0t {few}");
    }

    #[test]
    fn psnr_mode_meets_target() {
        // §VII extension: average-error-targeted compression.
        let field = wavy_field([32, 32, 32]);
        let sperr = Sperr::new(SperrConfig::default());
        for target in [40.0f64, 70.0, 100.0] {
            let stream = sperr.compress(&field, Bound::Psnr(target)).unwrap();
            let rec = sperr.decompress(&stream).unwrap();
            let achieved = sperr_metrics::psnr(&field.data, &rec.data);
            assert!(achieved >= target, "target {target}, achieved {achieved}");
        }
    }

    #[test]
    fn psnr_mode_has_no_outlier_stream() {
        // The average-error mode skips outlier correction entirely; its
        // cost stays in the same ballpark as the PWE mode at matched idx.
        let field = wavy_field([32, 32, 32]);
        let sperr = Sperr::new(SperrConfig::default());
        let idx = 20u32;
        let pwe = sperr.compress(&field, Bound::Pwe(field.tolerance_for_idx(idx))).unwrap();
        let psnr = sperr
            .compress(&field, Bound::Psnr(sperr_metrics::psnr_target_for_idx(idx)))
            .unwrap();
        let info = sperr.inspect(&psnr).unwrap();
        assert_eq!(info.outlier_bytes, 0);
        assert!(matches!(info.mode, crate::Mode::Rmse));
        assert!(psnr.len() < pwe.len() * 2);
    }

    #[test]
    fn multires_decoding_levels() {
        // §VII extension: multi-level reconstruction from one stream.
        let field = Field::from_fn([64, 64, 32], |x, y, z| {
            (x as f64 * 0.08).sin() * 20.0 + (y as f64 * 0.06).cos() * 10.0 + z as f64 * 0.2
        });
        let sperr = Sperr::new(SperrConfig::default());
        let t = field.tolerance_for_idx(20);
        let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        // level 0 == ordinary decode
        let full = read(&sperr, &stream, ReadRequest::Level(0)).unwrap();
        assert_eq!(full.dims, field.dims);
        for level in 1..=3usize {
            let coarse = read(&sperr, &stream, ReadRequest::Level(level)).unwrap();
            let s = 1 << level;
            assert_eq!(
                coarse.dims,
                [64usize.div_ceil(s), 64usize.div_ceil(s), 32usize.div_ceil(s)]
            );
            // The coarse field must resemble a downsampling of the data:
            // compare against the original at the corresponding grid
            // positions (loose bound — wavelet smoothing shifts values).
            let mut err_sum = 0.0;
            let mut count = 0usize;
            for z in 0..coarse.dims[2] {
                for y in 0..coarse.dims[1] {
                    for x in 0..coarse.dims[0] {
                        let orig = field.data
                            [(x * s).min(63) + 64 * ((y * s).min(63) + 64 * (z * s).min(31))];
                        let c = coarse.data[x + coarse.dims[0] * (y + coarse.dims[1] * z)];
                        err_sum += (orig - c).abs();
                        count += 1;
                    }
                }
            }
            let mean_err = err_sum / count as f64;
            assert!(
                mean_err < field.range() * 0.1,
                "level {level}: mean deviation {mean_err} vs range {}",
                field.range()
            );
        }
    }

    #[test]
    fn multires_multi_chunk() {
        let field = wavy_field([64, 32, 32]);
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: [32, 32, 32],
            ..SperrConfig::default()
        });
        let t = field.tolerance_for_idx(15);
        let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        let coarse = read(&sperr, &stream, ReadRequest::Level(1)).unwrap();
        assert_eq!(coarse.dims, [32, 16, 16]);
        // Too-deep level must error cleanly, not panic.
        assert!(read(&sperr, &stream, ReadRequest::Level(7)).is_err());
    }

    #[test]
    fn transcode_reduces_rate_without_reencoding() {
        let field = wavy_field([32, 32, 32]);
        let sperr = Sperr::new(SperrConfig::default());
        let t = field.tolerance_for_idx(25);
        let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        let full_rec = sperr.decompress(&stream).unwrap();
        let cut = sperr.transcode_to_bpp(&stream, 2.0).unwrap();
        assert!(cut.len() < stream.len());
        let bpp = cut.len() as f64 * 8.0 / field.len() as f64;
        assert!(bpp <= 2.2, "transcoded to {bpp} bpp");
        let cut_rec = sperr.decompress(&cut).unwrap();
        // Coarser than the original decode, but a real reconstruction.
        let full_rmse = sperr_metrics::rmse(&field.data, &full_rec.data);
        let cut_rmse = sperr_metrics::rmse(&field.data, &cut_rec.data);
        assert!(cut_rmse >= full_rmse);
        assert!(cut_rmse < field.range(), "cut rmse {cut_rmse} not a reconstruction");
    }

    #[test]
    fn region_decode_matches_full_decode() {
        let field = wavy_field([48, 32, 24]);
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            ..SperrConfig::default()
        });
        let t = field.tolerance_for_idx(15);
        let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        let full = sperr.decompress(&stream).unwrap();
        for (lo, hi) in [
            ([0usize, 0, 0], [48usize, 32, 24]), // whole volume
            ([5, 7, 3], [20, 30, 20]),           // spans several chunks
            ([17, 17, 17], [18, 18, 18]),        // single point
            ([40, 0, 16], [48, 16, 24]),         // corner
        ] {
            let region = read(&sperr, &stream, ReadRequest::Region { lo, hi }).unwrap();
            assert_eq!(region.dims, [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]]);
            for z in 0..region.dims[2] {
                for y in 0..region.dims[1] {
                    for x in 0..region.dims[0] {
                        let want = full.data
                            [(lo[0] + x) + 48 * ((lo[1] + y) + 32 * (lo[2] + z))];
                        let got =
                            region.data[x + region.dims[0] * (y + region.dims[1] * z)];
                        assert_eq!(want, got, "mismatch at {x},{y},{z} for {lo:?}..{hi:?}");
                    }
                }
            }
        }
        // Invalid regions are rejected.
        assert!(read(&sperr, &stream, ReadRequest::Region { lo: [0; 3], hi: [0, 1, 1] }).is_err());
        assert!(read(&sperr, &stream, ReadRequest::Region { lo: [0; 3], hi: [49, 1, 1] }).is_err());
    }

    #[test]
    fn estimated_rmse_tracks_actual() {
        // §III-A / §VII: the wavelet-domain quantization error predicts
        // the reconstruction RMSE without a decode pass. For PSNR-mode
        // streams the estimate must be within a small factor of truth.
        let field = wavy_field([32, 32, 32]);
        let sperr = Sperr::new(SperrConfig::default());
        let (stream, stats) = sperr
            .compress_with_stats(&field, Bound::Psnr(70.0))
            .unwrap();
        let rec = sperr.decompress(&stream).unwrap();
        let actual = sperr_metrics::rmse(&field.data, &rec.data);
        let estimated = stats.estimated_rmse();
        assert!(actual > 0.0);
        let ratio = estimated / actual;
        assert!(
            (0.7..1.5).contains(&ratio),
            "estimate {estimated} vs actual {actual} (ratio {ratio})"
        );
    }

    #[test]
    fn inspect_reports_stream_layout() {
        let field = wavy_field([40, 24, 20]);
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            ..SperrConfig::default()
        });
        let t = field.tolerance_for_idx(12);
        let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        let info = sperr.inspect(&stream).unwrap();
        assert_eq!(info.dims, [40, 24, 20]);
        assert_eq!(info.chunk_dims, [16, 16, 16]);
        assert_eq!(info.n_chunks, 3 * 2 * 2);
        assert!(info.lossless);
        assert!(matches!(info.mode, crate::Mode::Pwe));
        assert!((info.bound_value - t).abs() < 1e-18);
        assert!(info.speck_bytes > 0);
    }

    #[test]
    fn tight_tolerance_on_rough_data() {
        // Rough data + tight tolerance stresses the outlier path heavily.
        let field = Field::from_fn([20, 20, 20], |x, y, z| {
            (((x * 73 + y * 149 + z * 211) % 97) as f64) * 0.173
        });
        let sperr = Sperr::new(SperrConfig::default());
        let t = field.tolerance_for_idx(25);
        let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        let restored = sperr.decompress(&stream).unwrap();
        assert!(max_err(&field, &restored) <= t);
    }
}
