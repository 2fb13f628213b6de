//! SPECK: Set-Partitioned Embedded bloCK coding of wavelet coefficients.
//!
//! This crate implements the improved SPECK variant described in §III of
//! the SPERR paper:
//!
//! * **Arbitrary quantization thresholds** (§III-C): coefficients are
//!   pre-scaled by the reciprocal of the finest quantization step `q` and
//!   coded with integer thresholds `2^n`. The dead zone is `(-q, q)` and
//!   encoded coefficients reconstruct with a mid-riser quantizer
//!   (`(i + ½)·q` for magnitudes in `[iq, (i+1)q)`), for a per-coefficient
//!   quantization error of at most `q/2`.
//! * **Set partitioning** (§III-B): the transformed domain is recursively
//!   split into octants (3D) / quadrants (2D) / halves (1D); each split
//!   puts `len − len/2` samples in the *first* part so set boundaries track
//!   the dyadic subband layout. One bit is emitted per significance test.
//! * **Bitplane-by-bitplane coding**: a sorting pass locates newly
//!   significant coefficients, a refinement pass appends one bit of
//!   precision to previously found ones. The output is *embedded*: any
//!   prefix of the bitstream decodes to a valid (coarser) reconstruction,
//!   which is what enables SPERR's fixed-size compression mode.
//!
//! * **Code blocks** ([`blocks`]): a quality-mode domain of more than
//!   [`BLOCK_COEFFICIENTS`] coefficients is coded as independent streams
//!   over the sets of its partition's first splits, behind a block table,
//!   so both directions run on every core and a read of part of the
//!   domain decodes only the blocks that hold it.
//!
//! The implementation is generic over dimensionality `D ∈ {1, 2, 3}`.
//! The partition is geometry, not data, so it is numbered once per shape
//! (the `layout` module): coefficients are laid out in the order splitting
//! visits them, a set is a cell number, its children's cached
//! significance bytes are consecutive, and one encoder body and one
//! decoder body serve every shape. [`reference`] keeps the
//! bit-at-a-time cuboid coders as the oracle.
//!
//! # Example
//!
//! ```
//! use sperr_speck::{encode, decode, Termination};
//!
//! let dims = [8usize, 8, 8];
//! let coeffs: Vec<f64> = (0..512).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
//! let q = 0.5;
//! let enc = encode(&coeffs, dims, q, Termination::Quality);
//! let rec = decode(&enc.stream, dims, q, enc.num_planes).unwrap();
//! for (c, r) in coeffs.iter().zip(&rec) {
//!     // dead zone + mid-riser: error strictly below q
//!     assert!((c - r).abs() < q);
//! }
//! ```

pub mod blocks;
#[cfg(test)]
mod blocks_tests;
mod coder;
mod decoder;
mod layout;
#[cfg(test)]
mod layout_tests;
mod lsp_decode;
mod morton;
mod pyramid;
pub mod reference;
mod set;

pub use coder::{
    encode, mid_riser, quantize, reconstruct_quantized, reconstruct_quantized_into, Scratch,
    EncodedSpeck, Quantized, Termination,
};
pub use blocks::{block_count, blocks, Block, Blocks, BLOCK_COEFFICIENTS, SPLIT_FLAG};
pub use decoder::{decode, decode_masked, DecodeError, Sorted, MAX_DECODE_ELEMENTS};

/// Version of the SPECK bitstream layout produced by [`encode`]. Bump this
/// whenever an intentional change alters the emitted bits for the same
/// input — the `sperr-conformance` golden-stream manifest records it, so a
/// silent format drift fails conformance while a deliberate one leaves a
/// paper trail (new constant here, regenerated goldens there).
///
/// 2: a quality-mode domain of more than [`BLOCK_COEFFICIENTS`]
/// coefficients is coded as code blocks behind a block table
/// ([`blocks`]); every other stream is format 1's, byte for byte, and
/// format 1 streams decode as they did.
pub const BITSTREAM_FORMAT: u32 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<const D: usize>(coeffs: &[f64], dims: [usize; D], q: f64) -> Vec<f64> {
        let enc = encode(coeffs, dims, q, Termination::Quality);
        decode(&enc.stream, dims, q, enc.num_planes).unwrap()
    }

    #[test]
    fn all_zero_input() {
        let dims = [4usize, 4, 4];
        let coeffs = vec![0.0; 64];
        let enc = encode(&coeffs, dims, 1.0, Termination::Quality);
        assert_eq!(enc.num_planes, 0);
        let rec: Vec<f64> = decode(&enc.stream, dims, 1.0, enc.num_planes).unwrap();
        assert_eq!(rec, coeffs);
    }

    #[test]
    fn dead_zone_reconstructs_to_zero() {
        let dims = [8usize];
        // everything strictly inside (-q, q)
        let coeffs = vec![0.4, -0.3, 0.0, 0.9, -0.99, 0.5, 0.1, -0.7];
        let rec = roundtrip(&coeffs, dims, 1.0);
        assert!(rec.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn midriser_reconstruction_levels() {
        let dims = [4usize];
        let q = 1.0;
        let coeffs = vec![1.2, -2.7, 5.0, 0.2];
        let rec = roundtrip(&coeffs, dims, q);
        // [1,2) -> 1.5 ; [2,3) -> -2.5 ; [5,6) -> 5.5 ; dead zone -> 0
        assert_eq!(rec, vec![1.5, -2.5, 5.5, 0.0]);
    }

    #[test]
    fn quality_mode_error_below_q_3d() {
        let dims = [9usize, 7, 5];
        let n = dims.iter().product();
        let coeffs: Vec<f64> = (0..n)
            .map(|i| ((i as f64 * 1.7).sin() * 100.0) + ((i % 13) as f64))
            .collect();
        for q in [0.1, 0.73, 2.5] {
            let rec = roundtrip(&coeffs, dims, q);
            for (c, r) in coeffs.iter().zip(&rec) {
                assert!((c - r).abs() < q, "q={q}, c={c}, r={r}");
            }
        }
    }

    #[test]
    fn quality_mode_error_below_half_q_outside_deadzone() {
        let dims = [16usize, 16];
        let n = 256;
        let coeffs: Vec<f64> =
            (0..n).map(|i| (i as f64 * 0.913).tan().clamp(-50.0, 50.0)).collect();
        let q = 0.25;
        let rec = roundtrip(&coeffs, dims, q);
        for (c, r) in coeffs.iter().zip(&rec) {
            if c.abs() >= q {
                assert!((c - r).abs() <= q / 2.0 + 1e-12, "c={c} r={r}");
            }
        }
    }

    #[test]
    fn phase_one_gives_the_coefficients_back_only_when_phase_two_reads_none() {
        // Quality mode with every magnitude in 32 bits releases the
        // borrow; more planes, or a bit budget, keep it. Either way the
        // two phases are `encode`. A cube takes the Morton geometry, the
        // cuboid the tables.
        fn check<const D: usize>(dims: [usize; D]) {
            let n = dims.iter().product();
            let coeffs: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7).sin() * 100.0).collect();
            let rows = [
                (0.1, Termination::Quality, true),
                (1e-9, Termination::Quality, false),
                (0.1, Termination::BitBudget(300), false),
            ];
            for (q, term, releases) in rows {
                let want = encode(&coeffs, dims, q, term);
                let phase1 = quantize(&coeffs, dims, q, term, &sperr_exec::Serial, Scratch::default());
                let (got, released) = match phase1.release() {
                    Ok(phase1) => (phase1.encode(), true),
                    Err(phase1) => (phase1.encode(), false),
                };
                assert_eq!(released, releases, "{dims:?} q={q} {term:?}");
                assert_eq!((want.num_planes > 32), q < 1e-6, "{dims:?} q={q}");
                assert_eq!(got.stream, want.stream, "{dims:?} q={q} {term:?}");
                assert_eq!(got.bits_used, want.bits_used);
            }
        }
        check([8usize, 8, 8]);
        check([9usize, 7, 5]);
    }

    #[test]
    fn single_coefficient_domain() {
        let rec = roundtrip(&[42.0], [1usize], 1.0);
        assert_eq!(rec, vec![42.5]);
    }

    #[test]
    fn single_significant_coefficient_in_volume() {
        let dims = [16usize, 16, 16];
        let mut coeffs = vec![0.0; 4096];
        coeffs[1234] = -77.7;
        let rec = roundtrip(&coeffs, dims, 0.5);
        for (i, (&c, &r)) in coeffs.iter().zip(&rec).enumerate() {
            if i == 1234 {
                assert!((c - r).abs() < 0.5);
            } else {
                assert_eq!(r, 0.0);
            }
        }
    }

    #[test]
    fn embedded_prefix_decodes_coarser() {
        // Truncating the stream must (a) decode without error and (b) give
        // monotonically non-increasing RMSE as the prefix grows.
        let dims = [16usize, 16];
        let coeffs: Vec<f64> = (0..256).map(|i| (i as f64 * 0.31).sin() * 64.0).collect();
        let q = 0.01;
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        let full_len = enc.stream.len();
        let mut last_rmse = f64::INFINITY;
        for frac in [0.1, 0.3, 0.5, 0.8, 1.0] {
            let cut = ((full_len as f64 * frac) as usize).max(1);
            let rec = decode(&enc.stream[..cut], dims, q, enc.num_planes).unwrap();
            let rmse = (coeffs
                .iter()
                .zip(&rec)
                .map(|(c, r)| (c - r) * (c - r))
                .sum::<f64>()
                / 256.0)
                .sqrt();
            assert!(
                rmse <= last_rmse + 1e-9,
                "rmse grew at frac={frac}: {rmse} > {last_rmse}"
            );
            last_rmse = rmse;
        }
        assert!(last_rmse < q, "full decode rmse {last_rmse} >= q {q}");
    }

    #[test]
    fn bit_budget_mode_respects_budget() {
        let dims = [32usize, 32];
        let coeffs: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.11).cos() * 100.0).collect();
        let budget_bits = 2000;
        let enc = encode(&coeffs, dims, 0.001, Termination::BitBudget(budget_bits));
        assert!(enc.bits_used <= budget_bits);
        assert!(enc.stream.len() <= budget_bits.div_ceil(8));
        // Budget-truncated stream still decodes.
        let rec: Vec<f64> = decode(&enc.stream, dims, 0.001, enc.num_planes).unwrap();
        assert_eq!(rec.len(), 1024);
    }

    #[test]
    fn budget_and_quality_agree_when_budget_ample() {
        let dims = [8usize, 8];
        let coeffs: Vec<f64> = (0..64).map(|i| (i as f64) - 31.5).collect();
        let q = 0.5;
        let quality = encode(&coeffs, dims, q, Termination::Quality);
        let budget = encode(&coeffs, dims, q, Termination::BitBudget(usize::MAX / 2));
        assert_eq!(quality.stream, budget.stream);
    }

    #[test]
    fn decode_empty_stream_is_all_zero() {
        let dims = [4usize, 4];
        let rec: Vec<f64> = decode(&[], dims, 1.0, 5).unwrap();
        assert_eq!(rec, vec![0.0; 16]);
    }

    #[test]
    fn cut_between_significance_and_sign_drops_the_pixel() {
        // Hand-built streams whose last pixel's significance bit is bit 7
        // and whose sign bit is bit 8: a one-byte prefix must drop the
        // pixel (both front ends, as the bit-at-a-time decoder always
        // did), the second byte brings it back at its discovery magnitude.
        // 2x2, 4 planes: root insignificant on planes 3..1 (bits 0-2);
        // plane 0: root 1, children 0 0 0 1 (bits 3-7), sign (bit 8).
        for dec in [decode::<f64, 2>, reference::decode::<f64, 2>] {
            assert_eq!(dec(&[0x88], [2, 2], 1.0, 4).unwrap(), vec![0.0; 4]);
            assert_eq!(dec(&[0x88, 1], [2, 2], 1.0, 4).unwrap(), vec![0.0, 0.0, 0.0, -1.5]);
        }
        // A 3-vector (generic front end only), 6 planes: root insignificant
        // on planes 5..1 (bits 0-4); plane 0: root 1, left half 0, right
        // pixel 1 (bits 5-7), sign (bit 8).
        assert_eq!(decode::<f64, 1>(&[0xA0], [3], 1.0, 6).unwrap(), vec![0.0; 3]);
        assert_eq!(decode::<f64, 1>(&[0xA0, 1], [3], 1.0, 6).unwrap(), vec![0.0, 0.0, -1.5]);
    }

    #[test]
    fn partial_last_refinement_segment_keeps_present_bits_only() {
        // 2-vector, 3 planes. Plane 2: root 1, pixel0 1 +, pixel1 1 -
        // (bits 0-4: 1 1 0 1 1). Plane 1: no sets left; refinement bits for
        // both pixels (bits 5-6: 1 0). Plane 0: refinement bits 7-8: 1 1.
        // One byte holds plane 0's first refinement bit only: pixel 0 is
        // refined down to plane 0 (4+2+1 = 7 -> 7.5), pixel 1 stays at
        // plane 1 (4 -> 4 + 1 = 5).
        let bytes = [0b1011_1011u8, 0b1];
        for dec in [decode::<f64, 1>, reference::decode::<f64, 1>] {
            assert_eq!(dec(&bytes[..1], [2], 1.0, 3).unwrap(), vec![7.5, -5.0]);
            assert_eq!(dec(&bytes, [2], 1.0, 3).unwrap(), vec![7.5, -5.5]);
        }
    }

    #[test]
    fn wide_magnitudes_take_the_64_plane_transpose() {
        // > 32 planes: magnitudes past u32, cube and non-cube shapes, all
        // three decoders agree with the encode-side reconstruction.
        let coeffs: Vec<f64> =
            (0..512).map(|i| ((i * 7919) % 1021) as f64 * 1.0e9 - 4.0e11).collect();
        let q = 1.0e-3;
        for dims in [[8usize, 8, 8], [16, 8, 4]] {
            let enc = encode(&coeffs, dims, q, Termination::Quality);
            assert!(enc.num_planes > 32, "planes {}", enc.num_planes);
            let want = reconstruct_quantized(&coeffs, q);
            assert_eq!(decode::<f64, 3>(&enc.stream, dims, q, enc.num_planes).unwrap(), want);
            assert_eq!(
                reference::decode::<f64, 3>(&enc.stream, dims, q, enc.num_planes).unwrap(),
                want
            );
        }
    }

    #[test]
    fn decode_garbage_never_panics() {
        let dims = [8usize, 8, 8];
        let garbage: Vec<u8> =
            (0..997u32).map(|i| (i.wrapping_mul(193) >> 3) as u8).collect();
        for planes in [1u8, 7, 33, 63] {
            let rec = decode::<f64, 3>(&garbage, dims, 0.5, planes);
            // Must terminate and produce a full-size result or a clean error.
            if let Ok(v) = rec {
                assert_eq!(v.len(), 512);
            }
        }
    }

    #[test]
    fn nonsquare_dims_roundtrip() {
        for dims in [[5usize, 12, 3], [1, 1, 17], [31, 1, 1], [2, 9, 2]] {
            let n: usize = dims.iter().product();
            let coeffs: Vec<f64> = (0..n).map(|i| ((i * 7 % 23) as f64) - 11.0).collect();
            let q = 0.3;
            let rec = roundtrip(&coeffs, dims, q);
            for (c, r) in coeffs.iter().zip(&rec) {
                assert!((c - r).abs() < q, "dims={dims:?}");
            }
        }
    }

    #[test]
    fn negative_values_keep_sign() {
        let dims = [8usize];
        let coeffs = vec![-3.3, 3.3, -100.0, 100.0, -0.4, 0.4, -7.0, 7.0];
        let rec = roundtrip(&coeffs, dims, 0.5);
        for (c, r) in coeffs.iter().zip(&rec) {
            if c.abs() >= 0.5 {
                assert_eq!(c.signum(), r.signum(), "c={c} r={r}");
            }
        }
    }

    #[test]
    fn bitrate_decreases_with_larger_q() {
        let dims = [16usize, 16, 16];
        let coeffs: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.017).sin() * 50.0).collect();
        let small = encode(&coeffs, dims, 0.01, Termination::Quality);
        let large = encode(&coeffs, dims, 1.0, Termination::Quality);
        assert!(large.bits_used < small.bits_used);
    }

    #[test]
    fn bit_type_accounting_sums_to_total() {
        // §IV-B: every output bit is a significance test, a sign, or a
        // refinement direction — the three counters must cover the stream.
        let dims = [12usize, 10, 8];
        let n: usize = dims.iter().product();
        let coeffs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 30.0).collect();
        let enc = encode(&coeffs, dims, 0.05, Termination::Quality);
        assert_eq!(
            enc.significance_bits + enc.sign_bits + enc.refinement_bits,
            enc.bits_used
        );
        assert!(enc.significance_bits > 0);
        assert!(enc.sign_bits > 0);
        assert!(enc.refinement_bits > 0);
    }

    #[test]
    fn budget_truncates_at_exactly_the_same_bit_as_quality_prefix() {
        // Regression for the run-granular budget check: BitBudget(b) must
        // stop at *exactly* bit b — the stream must be a bit-exact prefix
        // of the quality stream, with bits_used == min(b, full bits), for
        // budgets landing inside zero runs, inside packed refinement
        // words, and on word/accumulator boundaries.
        let dims = [13usize, 9, 5];
        let n: usize = dims.iter().product();
        let coeffs: Vec<f64> = (0..n)
            .map(|i| ((i as f64 * 0.83).sin() * 90.0) * if i % 7 == 0 { 0.0 } else { 1.0 })
            .collect();
        let q = 0.05;
        let full = encode(&coeffs, dims, q, Termination::Quality);
        let bit_of = |stream: &[u8], i: usize| (stream[i / 8] >> (i % 8)) & 1;
        for b in [0usize, 1, 7, 8, 63, 64, 65, 100, 511, 512, 513, 1000, full.bits_used - 1] {
            let cut = encode(&coeffs, dims, q, Termination::BitBudget(b));
            assert_eq!(cut.bits_used, b.min(full.bits_used), "budget {b}");
            assert_eq!(
                cut.significance_bits + cut.sign_bits + cut.refinement_bits,
                cut.bits_used,
                "budget {b}: bit-type accounting"
            );
            for i in 0..cut.bits_used {
                assert_eq!(
                    bit_of(&cut.stream, i),
                    bit_of(&full.stream, i),
                    "budget {b}: bit {i} diverged from quality prefix"
                );
            }
        }
        // A budget beyond the full stream must reproduce it bit for bit.
        let ample = encode(&coeffs, dims, q, Termination::BitBudget(full.bits_used + 999));
        assert_eq!(ample.stream, full.stream);
        assert_eq!(ample.bits_used, full.bits_used);
    }

    #[test]
    fn fast_path_matches_reference_encoder() {
        // The word-granular production encoder vs the kept bit-at-a-time
        // reference: byte-identical streams and identical counters, in
        // both termination modes (see also the conformance oracle and the
        // proptest sweep).
        let dims = [11usize, 6, 7];
        let n: usize = dims.iter().product();
        let coeffs: Vec<f64> =
            (0..n).map(|i| ((i * 31) % 113) as f64 - 56.0 + (i as f64 * 0.01)).collect();
        for term in [Termination::Quality, Termination::BitBudget(777)] {
            let fast = encode(&coeffs, dims, 0.25, term);
            let slow = reference::encode(&coeffs, dims, 0.25, term);
            assert_eq!(fast.stream, slow.stream, "{term:?}");
            assert_eq!(fast.bits_used, slow.bits_used, "{term:?}");
            assert_eq!(fast.num_planes, slow.num_planes, "{term:?}");
            assert_eq!(fast.significance_bits, slow.significance_bits, "{term:?}");
            assert_eq!(fast.sign_bits, slow.sign_bits, "{term:?}");
            assert_eq!(fast.refinement_bits, slow.refinement_bits, "{term:?}");
        }
    }

    #[test]
    fn f32_streams_match_reference_and_roundtrip() {
        // The f32 instantiation honors the same contracts as f64:
        // production vs bit-at-a-time reference streams byte-identical
        // (both general-shape and Morton-cube domains), decode agrees
        // exactly with the encode-side reconstruction, and quality-mode
        // error stays below q for f32-representable magnitudes.
        for dims in [[11usize, 6, 7], [16, 16, 16]] {
            let n: usize = dims.iter().product();
            let coeffs: Vec<f32> =
                (0..n).map(|i| ((i * 29) % 97) as f32 - 48.0 + (i as f32 * 0.011)).collect();
            let q = 0.25;
            for term in [Termination::Quality, Termination::BitBudget(901)] {
                let fast = encode(&coeffs, dims, q, term);
                let slow = reference::encode(&coeffs, dims, q, term);
                assert_eq!(fast.stream, slow.stream, "{dims:?} {term:?}");
                assert_eq!(fast.bits_used, slow.bits_used, "{dims:?} {term:?}");
                assert_eq!(fast.num_planes, slow.num_planes, "{dims:?} {term:?}");
            }
            let enc = encode(&coeffs, dims, q, Termination::Quality);
            let via_decode: Vec<f32> = decode(&enc.stream, dims, q, enc.num_planes).unwrap();
            let via_fast = reconstruct_quantized(&coeffs, q);
            assert_eq!(via_decode, via_fast);
            for (c, r) in coeffs.iter().zip(&via_decode) {
                assert!((c - r).abs() < q as f32, "c={c} r={r}");
            }
        }
    }

    #[test]
    fn f32_and_f64_streams_agree_on_exact_values() {
        // Inputs exactly representable at both widths quantize to the same
        // integers, so the two instantiations must emit identical streams.
        let dims = [8usize, 8, 8];
        let vals64: Vec<f64> = (0..512).map(|i| ((i * 37) % 113) as f64 - 56.0).collect();
        let vals32: Vec<f32> = vals64.iter().map(|&v| v as f32).collect();
        let q = 0.5;
        let e64 = encode(&vals64, dims, q, Termination::Quality);
        let e32 = encode(&vals32, dims, q, Termination::Quality);
        assert_eq!(e64.stream, e32.stream);
        assert_eq!(e64.num_planes, e32.num_planes);
    }

    #[test]
    fn reconstruct_quantized_matches_decode() {
        // The fast path (used by the SPERR pipeline to locate outliers
        // without a decode pass) must agree exactly with a full decode of a
        // quality-mode stream.
        let dims = [7usize, 11, 3];
        let n: usize = dims.iter().product();
        let coeffs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 20.0).collect();
        let q = 0.1;
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        let via_decode: Vec<f64> = decode(&enc.stream, dims, q, enc.num_planes).unwrap();
        let via_fast = reconstruct_quantized(&coeffs, q);
        assert_eq!(via_decode, via_fast);
    }
}
