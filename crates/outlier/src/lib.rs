//! The SPECK-inspired outlier coder (paper §IV, Listings 1–3).
//!
//! This is the component that turns SPECK into SPERR: after wavelet
//! reconstruction, data points whose error exceeds the point-wise error
//! (PWE) tolerance `t` — the *outliers* — get their positions and
//! correction values encoded by this coder, so the decoder can restore
//! them to within the tolerance.
//!
//! Given outliers `(pos, corr)` with `|corr| > t`, the encoder walks
//! thresholds `thrd = 2^n · t` from the largest power-of-two multiple of
//! `t` below `max |corr|` down to `t` itself. Each iteration runs a
//! *sorting pass* (binary set partitioning over the linearized 1-D domain,
//! one significance bit per tested set, one sign bit per newly significant
//! point — Listing 2) and a *refinement pass* (one bit per previously
//! significant point telling which half of its uncertainty interval the
//! true correction lies in — Listing 3). After the final iteration every
//! decoded correction is within `t/2` of the truth, strictly satisfying
//! the PWE tolerance.
//!
//! The paper's §IV-C choice is preserved: multi-dimensional inputs are
//! *linearized* before coding because outlier positions carry little
//! spatial correlation (Fig. 1); what SPECK-style coding buys here is
//! cheap position coding plus variable-length value coding in one
//! mechanism.
//!
//! # Example
//!
//! ```
//! use sperr_outlier::{encode, decode, Outlier};
//!
//! let t = 0.1;
//! let outliers = vec![
//!     Outlier { pos: 3, corr: 0.35 },
//!     Outlier { pos: 900, corr: -1.7 },
//! ];
//! let enc = encode(&outliers, 1024, t);
//! let mut decoded = decode(&enc.stream, 1024, t, enc.max_n).unwrap();
//! decoded.sort_by_key(|o| o.pos); // decode order is discovery order
//! assert_eq!(decoded.len(), 2);
//! for (d, o) in decoded.iter().zip(&outliers) {
//!     assert_eq!(d.pos, o.pos);
//!     assert!((d.corr - o.corr).abs() <= t / 2.0 + 1e-12);
//! }
//! ```

pub mod alternatives;
mod coder;
mod decoder;

pub use coder::{encode, encode_with, EncodeScratch, EncodedOutliers, Outlier};
pub use decoder::{decode, DecodeError};

/// Version of the outlier bitstream layout produced by [`encode`]. Bump
/// whenever an intentional change alters the emitted bits for the same
/// input — the `sperr-conformance` golden-stream manifest records it, so a
/// silent format drift fails conformance while a deliberate one leaves a
/// paper trail (new constant here, regenerated goldens there).
pub const BITSTREAM_FORMAT: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    fn check_roundtrip(outliers: &[Outlier], n: usize, t: f64) -> EncodedOutliers {
        let enc = encode(outliers, n, t);
        let dec = decode(&enc.stream, n, t, enc.max_n).unwrap();
        assert_eq!(dec.len(), outliers.len(), "outlier count mismatch");
        let mut dec_sorted = dec.clone();
        dec_sorted.sort_by_key(|o| o.pos);
        let mut orig_sorted = outliers.to_vec();
        orig_sorted.sort_by_key(|o| o.pos);
        for (d, o) in dec_sorted.iter().zip(&orig_sorted) {
            assert_eq!(d.pos, o.pos, "position must be exact");
            assert!(
                (d.corr - o.corr).abs() <= t / 2.0 + 1e-12,
                "correction error {} exceeds t/2 = {} (pos {})",
                (d.corr - o.corr).abs(),
                t / 2.0,
                o.pos
            );
        }
        enc
    }

    #[test]
    fn empty_outlier_list() {
        let enc = encode(&[], 100, 0.5);
        assert!(enc.stream.is_empty());
        let dec = decode(&enc.stream, 100, 0.5, enc.max_n).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn a_reused_scratch_gives_the_fresh_encode() {
        // One scratch through every encode, most outliers first, sorted
        // and shuffled input: what an earlier encode left must not show.
        let mut scratch = EncodeScratch::default();
        for (count, n, shuffled) in [
            (900usize, 5000usize, false),
            (40, 300, true),
            (0, 10, false),
            (7, 64, true),
            (900, 4000, true),
        ] {
            let mut outliers: Vec<Outlier> = (0..count)
                .map(|i| Outlier {
                    pos: i * (n / count.max(1)),
                    corr: ((i * 37 % 11) as f64 + 1.5) * if i % 3 == 0 { -1.0 } else { 1.0 },
                })
                .collect();
            if shuffled {
                outliers.reverse();
            }
            let fresh = encode(&outliers, n, 1.0);
            let warm = encode_with(&outliers, n, 1.0, &mut scratch);
            assert_eq!(warm.stream, fresh.stream, "{count} outliers");
            assert_eq!(
                (warm.max_n, warm.bits_used, warm.max_err),
                (fresh.max_n, fresh.bits_used, fresh.max_err)
            );
            scratch.reuse_stream(warm.stream);
        }
        assert!(scratch.bytes() > 900 * 8, "the scratch kept nothing");
    }

    #[test]
    fn single_outlier() {
        check_roundtrip(&[Outlier { pos: 57, corr: 2.0 }], 128, 0.5);
    }

    #[test]
    fn correction_beyond_the_exponent_range_terminates() {
        // |corr| / t overflows to infinity: the starting exponent caps at
        // u8::MAX instead of searching down from i64::MAX.
        let enc = encode(&[Outlier { pos: 3, corr: -1e307 }], 8, 1e-3);
        assert_eq!(enc.max_n, u8::MAX);
        assert_eq!(decode(&enc.stream, 8, 1e-3, enc.max_n).unwrap().len(), 1);
    }

    #[test]
    fn outlier_at_domain_edges() {
        let t = 0.25;
        check_roundtrip(
            &[
                Outlier { pos: 0, corr: 1.0 },
                Outlier { pos: 999, corr: -0.9 },
            ],
            1000,
            t,
        );
    }

    #[test]
    fn barely_over_tolerance() {
        // corr only slightly above t: max_n == 0 path.
        let t = 1.0;
        check_roundtrip(&[Outlier { pos: 5, corr: 1.000001 }], 16, t);
    }

    #[test]
    fn huge_dynamic_range() {
        let t = 1e-9;
        check_roundtrip(
            &[
                Outlier { pos: 1, corr: 1e-8 },
                Outlier { pos: 2, corr: -1e3 },
                Outlier { pos: 3, corr: 2e-9 },
            ],
            8,
            t,
        );
    }

    #[test]
    fn dense_outliers() {
        // Every position is an outlier.
        let t = 0.1;
        let outliers: Vec<Outlier> = (0..64)
            .map(|i| Outlier {
                pos: i,
                corr: (0.2 + (i as f64) * 0.01) * if i % 2 == 0 { 1.0 } else { -1.0 },
            })
            .collect();
        check_roundtrip(&outliers, 64, t);
    }

    #[test]
    fn sparse_random_positions() {
        let t = 0.5;
        let outliers: Vec<Outlier> = (0..50)
            .map(|i| Outlier {
                pos: (i * 7919) % 100_000,
                corr: ((i as f64 * 1.73).sin() * 10.0).signum()
                    * (t * 1.01 + (i as f64 * 0.37).cos().abs() * 5.0),
            })
            .collect();
        // positions from the hash are unique because 7919 is coprime to 1e5
        check_roundtrip(&outliers, 100_000, t);
    }

    #[test]
    fn unsorted_input_is_accepted() {
        let t = 0.1;
        let outliers = vec![
            Outlier { pos: 90, corr: 0.5 },
            Outlier { pos: 3, corr: -0.7 },
            Outlier { pos: 42, corr: 0.2 },
        ];
        check_roundtrip(&outliers, 100, t);
    }

    #[test]
    fn bits_per_outlier_in_expected_range() {
        // §V-A: the cost of outlier coding is mostly 6–16 bits per outlier.
        // With ~1% random outliers on a reasonable domain we should land in
        // (or near) that band.
        let t = 1.0;
        let n = 10_000;
        let outliers: Vec<Outlier> = (0..100)
            .map(|i| Outlier {
                pos: (i * 97 + 13) % n,
                corr: (1.1 + (i % 7) as f64 * 0.33) * if i % 3 == 0 { -1.0 } else { 1.0 },
            })
            .collect();
        let enc = check_roundtrip(&outliers, n, t);
        let bpo = enc.bits_used as f64 / outliers.len() as f64;
        assert!(
            (4.0..30.0).contains(&bpo),
            "bits per outlier wildly off: {bpo}"
        );
    }

    #[test]
    fn decode_truncated_stream_never_panics() {
        let t = 0.5;
        let outliers: Vec<Outlier> = (0..30)
            .map(|i| Outlier { pos: i * 31, corr: 1.0 + i as f64 * 0.1 })
            .collect();
        let enc = encode(&outliers, 1000, t);
        for cut in 0..enc.stream.len() {
            let dec = decode(&enc.stream[..cut], 1000, t, enc.max_n);
            assert!(dec.is_ok());
        }
    }

    #[test]
    fn decode_garbage_never_panics() {
        let garbage: Vec<u8> = (0..500u32).map(|i| (i.wrapping_mul(101) >> 2) as u8).collect();
        for max_n in [0u8, 3, 20, 60] {
            let _ = decode(&garbage, 4096, 0.5, max_n);
        }
    }

    #[test]
    #[should_panic(expected = "outlier magnitude")]
    fn rejects_non_outliers() {
        // |corr| <= t is not an outlier; encoding such input is a caller bug.
        encode(&[Outlier { pos: 0, corr: 0.5 }], 10, 1.0);
    }

    #[test]
    #[should_panic(expected = "position")]
    fn rejects_out_of_range_position() {
        encode(&[Outlier { pos: 10, corr: 5.0 }], 10, 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_positions() {
        encode(
            &[
                Outlier { pos: 4, corr: 5.0 },
                Outlier { pos: 4, corr: -5.0 },
            ],
            10,
            1.0,
        );
    }

    #[test]
    fn amortized_cost_drops_with_density() {
        // §V-A / Fig. 4: more outliers amortize set-significance tests, so
        // bits/outlier decreases as density rises.
        let t = 1.0;
        let n = 4096;
        let make = |count: usize| -> Vec<Outlier> {
            (0..count)
                .map(|i| Outlier {
                    pos: (i * (n / count)) % n,
                    corr: 1.5 + (i % 5) as f64,
                })
                .collect()
        };
        let sparse = make(16);
        let dense = make(1024);
        let enc_sparse = encode(&sparse, n, t);
        let enc_dense = encode(&dense, n, t);
        let bpo_sparse = enc_sparse.bits_used as f64 / 16.0;
        let bpo_dense = enc_dense.bits_used as f64 / 1024.0;
        assert!(
            bpo_dense < bpo_sparse,
            "dense {bpo_dense} should be cheaper than sparse {bpo_sparse}"
        );
    }
}
