//! ZFP-like baseline: a from-scratch Rust implementation of the algorithm
//! in Lindstrom, *Fixed-Rate Compressed Floating-Point Arrays* (TVCG 2014)
//! — the transform-based compressor the paper benchmarks as "ZFP" (§VI).
//!
//! Pipeline per 4×4×4 block: common-exponent block-floating-point →
//! lifted integer decorrelating transform (a DCT-like basis) →
//! total-sequency coefficient ordering → negabinary mapping → embedded
//! group-tested bitplane coding. Two termination modes:
//!
//! * **fixed accuracy** (`Bound::Pwe`): bitplanes below the tolerance
//!   (with ZFP's guard band) are dropped;
//! * **fixed rate** (`Bound::Bpp`): every block gets the same bit budget,
//!   preserving ZFP's random-access property.
//!
//! Fidelity notes vs. real ZFP are in DESIGN.md §5 (no 4D mode, no
//! execution policies beyond slab threading).

mod block;
mod codec;
mod compressor;

pub use compressor::ZfpLike;

#[cfg(test)]
mod tests {
    use super::*;
    use sperr_compress_api::{Bound, Field, LossyCompressor};

    fn smooth_field(dims: [usize; 3]) -> Field {
        Field::from_fn(dims, |x, y, z| {
            (x as f64 * 0.21).sin() * 30.0 + (y as f64 * 0.13).cos() * 20.0 + z as f64 * 0.4
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
    fn accuracy_mode_bounds_error() {
        let field = smooth_field([17, 13, 9]); // partial blocks included
        let zfp = ZfpLike::default();
        for tol in [1.0, 1e-2, 1e-5, 1e-9] {
            let stream = zfp.compress(&field, Bound::Pwe(tol)).unwrap();
            let rec = zfp.decompress(&stream).unwrap();
            let e = max_err(&field, &rec);
            assert!(e <= tol, "tol={tol}: max err {e}");
        }
    }

    #[test]
    fn rate_mode_hits_size() {
        let field = smooth_field([32, 32, 32]);
        let zfp = ZfpLike::default();
        for rate in [1.0f64, 4.0, 8.0] {
            let stream = zfp.compress(&field, Bound::Bpp(rate)).unwrap();
            let bpp = stream.len() as f64 * 8.0 / field.len() as f64;
            // fixed-rate blocks + small header
            assert!(bpp <= rate * 1.05 + 0.1, "rate {rate} -> {bpp}");
            assert!(bpp >= rate * 0.9, "rate {rate} -> {bpp} (suspiciously small)");
            let rec = zfp.decompress(&stream).unwrap();
            assert_eq!(rec.dims, field.dims);
        }
    }

    #[test]
    fn rate_mode_quality_improves_with_rate() {
        let field = smooth_field([32, 32, 32]);
        let zfp = ZfpLike::default();
        let rmse = |rate: f64| {
            let stream = zfp.compress(&field, Bound::Bpp(rate)).unwrap();
            let rec = zfp.decompress(&stream).unwrap();
            sperr_metrics::rmse(&field.data, &rec.data)
        };
        let lo = rmse(1.0);
        let hi = rmse(8.0);
        assert!(hi < lo / 10.0, "8bpp rmse {hi} vs 1bpp {lo}");
    }

    #[test]
    fn compression_actually_compresses_smooth_data() {
        let field = smooth_field([32, 32, 32]);
        let zfp = ZfpLike::default();
        let stream = zfp.compress(&field, Bound::Pwe(field.range() / 1024.0)).unwrap();
        let raw = field.len() * 8;
        assert!(
            stream.len() < raw / 8,
            "only {} vs raw {raw}",
            stream.len()
        );
    }

    #[test]
    fn multithreaded_matches_single_thread() {
        // A stream has one slab per compress thread; decoding runs the
        // slabs on the decoder's own `num_threads`, with the same bits for
        // every pairing.
        let field = smooth_field([20, 12, 36]);
        let at = |threads| ZfpLike { num_threads: threads };
        let bits = |f: &Field| f.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let stream_at = |threads| at(threads).compress(&field, Bound::Pwe(1e-4)).unwrap();
        let want = bits(&at(1).decompress(&stream_at(1)).unwrap());
        for compress_threads in [1, 2, 4, 8] {
            let stream = stream_at(compress_threads);
            for decode_threads in [1, 2, 4, 8] {
                let got = bits(&at(decode_threads).decompress(&stream).unwrap());
                let what = format!("compressed at {compress_threads}, decoded at {decode_threads}");
                assert!(got == want, "{what}");
            }
        }
    }

    #[test]
    fn zero_field_is_tiny() {
        let field = Field::new([16, 16, 16], vec![0.0; 4096]);
        let zfp = ZfpLike::default();
        let stream = zfp.compress(&field, Bound::Pwe(1e-6)).unwrap();
        assert!(stream.len() < 100);
        let rec = zfp.decompress(&stream).unwrap();
        assert_eq!(rec.data, field.data);
    }

    #[test]
    fn corrupt_stream_rejected() {
        let field = smooth_field([8, 8, 8]);
        let zfp = ZfpLike::default();
        let stream = zfp.compress(&field, Bound::Pwe(0.01)).unwrap();
        for cut in [0usize, 3, 10] {
            assert!(zfp.decompress(&stream[..cut]).is_err());
        }
        let mut bad = stream.clone();
        bad[0] = b'!';
        assert!(zfp.decompress(&bad).is_err());
    }

    #[test]
    fn psnr_bound_unsupported() {
        let zfp = ZfpLike::default();
        assert!(!zfp.supports(&Bound::Psnr(100.0)));
        let field = smooth_field([8, 8, 8]);
        assert!(zfp.compress(&field, Bound::Psnr(100.0)).is_err());
    }

    #[test]
    fn fixed_precision_mode() {
        // ZFP's third mode: more retained bitplanes -> smaller error;
        // streams decode through the ordinary path.
        let field = smooth_field([20, 20, 12]);
        let zfp = ZfpLike::default();
        let mut last_rmse = f64::INFINITY;
        for bits in [8u32, 16, 32, 52] {
            let stream = zfp.compress_fixed_precision(&field, bits).unwrap();
            let rec = zfp.decompress(&stream).unwrap();
            let rmse = sperr_metrics::rmse(&field.data, &rec.data);
            assert!(
                rmse <= last_rmse * (1.0 + 1e-12),
                "precision {bits}: rmse {rmse} > previous {last_rmse}"
            );
            last_rmse = rmse;
        }
        assert!(last_rmse < field.range() * 1e-12, "52-bit precision still lossy: {last_rmse}");
        assert!(zfp.compress_fixed_precision(&field, 0).is_err());
        assert!(zfp.compress_fixed_precision(&field, 65).is_err());
    }

    #[test]
    fn rough_data_error_still_bounded() {
        let field = Field::from_fn([20, 12, 8], |x, y, z| {
            (((x * 7919 + y * 104729 + z * 1299709) % 1000) as f64) - 500.0
        });
        let zfp = ZfpLike::default();
        let tol = 0.5;
        let stream = zfp.compress(&field, Bound::Pwe(tol)).unwrap();
        let rec = zfp.decompress(&stream).unwrap();
        assert!(max_err(&field, &rec) <= tol);
    }
}
