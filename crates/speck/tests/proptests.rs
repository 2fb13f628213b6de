//! Property tests for the SPECK coder: the quantization-error contract and
//! the embedded-stream property must hold for arbitrary inputs.

use proptest::prelude::*;
use sperr_speck::{decode, encode, Termination};

fn field_strategy() -> impl Strategy<Value = (Vec<f64>, [usize; 3])> {
    (1usize..=10, 1usize..=10, 1usize..=6).prop_flat_map(|(nx, ny, nz)| {
        let n = nx * ny * nz;
        prop::collection::vec(-1e6f64..1e6f64, n..=n).prop_map(move |v| (v, [nx, ny, nz]))
    })
}

/// A `2^k`-sided `D`-cube worth of coefficients, described by seeds so one
/// strategy serves every `D`: at most `nnz` non-zero entries (large cubes
/// stay sparse so their streams are short enough to sweep every prefix),
/// magnitudes log-uniform over `2^0..2^mag_bits` so a fine `q` reaches
/// the > 32-plane wide path.
fn cube_field(n: usize, seed: u64, mag_bits: u32) -> Vec<f64> {
    let nnz = if n > 4096 { 4 } else { n.min(40) };
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut field = vec![0.0f64; n];
    for _ in 0..nnz {
        let at = next() as usize % n;
        let mag = (1u64 << (next() % mag_bits as u64)) as f64 * (1.0 + (next() % 1000) as f64 / 1000.0);
        field[at] = if next() & 1 == 1 { -mag } else { mag };
    }
    field
}

/// Morton front end ([`decode`] on a power-of-two cube) vs the generic
/// cuboid front end ([`sperr_speck::reference::decode`]): bit-identical
/// output at every byte prefix, for the stream's own plane count and an
/// arbitrary one.
fn front_ends_agree<T: sperr_simd::Float, const D: usize>(
    coeffs: &[T],
    side: usize,
    q: f64,
    budget_frac: f64,
    planes: u8,
) -> Result<(), TestCaseError> {
    let dims = [side; D];
    let full = encode(coeffs, dims, q, Termination::Quality);
    let budget = (full.bits_used as f64 * budget_frac) as usize;
    let cut = encode(coeffs, dims, q, Termination::BitBudget(budget));
    for enc in [&full, &cut] {
        for len in 0..=enc.stream.len() {
            for np in [enc.num_planes, planes] {
                let morton = decode::<T, D>(&enc.stream[..len], dims, q, np);
                let generic = sperr_speck::reference::decode::<T, D>(&enc.stream[..len], dims, q, np);
                match (morton, generic) {
                    (Ok(m), Ok(g)) => {
                        let same = m.len() == g.len()
                            && m.iter().zip(&g).all(|(a, b)| a.to_f64().to_bits() == b.to_f64().to_bits());
                        prop_assert!(same, "D={} side={} len={} np={}", D, side, len, np);
                    }
                    (m, g) => prop_assert!(m.is_err() && g.is_err(), "Ok/Err split at len={}", len),
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn morton_and_generic_front_ends_decode_identically(
        (d, k) in (1usize..=3, 1u32..=6),
        seed in any::<u64>(),
        mag_bits in 1u32..=50,
        q_exp in -12i32..=4,
        budget_frac in 0.0f64..1.0,
        planes in 1u8..=64,
    ) {
        let side = 1usize << k;
        let q = 2f64.powi(q_exp) * 1.37;
        let field = cube_field(side.pow(d as u32), seed, mag_bits);
        let field32: Vec<f32> = field.iter().map(|&v| v as f32).collect();
        match d {
            1 => {
                front_ends_agree::<f64, 1>(&field, side, q, budget_frac, planes)?;
                front_ends_agree::<f32, 1>(&field32, side, q, budget_frac, planes)?;
            }
            2 => {
                front_ends_agree::<f64, 2>(&field, side, q, budget_frac, planes)?;
                front_ends_agree::<f32, 2>(&field32, side, q, budget_frac, planes)?;
            }
            _ => {
                front_ends_agree::<f64, 3>(&field, side, q, budget_frac, planes)?;
                front_ends_agree::<f32, 3>(&field32, side, q, budget_frac, planes)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quality_mode_bounds_error_by_q((coeffs, dims) in field_strategy(),
                                      q in 1e-3f64..1e3) {
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        let rec = decode(&enc.stream, dims, q, enc.num_planes).unwrap();
        for (c, r) in coeffs.iter().zip(&rec) {
            // Dead-zone values reconstruct as 0 (error < q); coded values
            // reconstruct mid-riser (error <= q/2).
            prop_assert!((c - r).abs() < q * (1.0 + 1e-12),
                         "c={c} r={r} q={q}");
            if c.abs() >= q {
                prop_assert!((c - r).abs() <= q / 2.0 * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn zeros_decode_to_zeros((coeffs, dims) in field_strategy(), q in 1e-3f64..1e3) {
        // Exact-zero coefficients must come back as exact zeros.
        let mut coeffs = coeffs;
        for (i, c) in coeffs.iter_mut().enumerate() {
            if i % 3 == 0 { *c = 0.0; }
        }
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        let rec = decode::<f64, 3>(&enc.stream, dims, q, enc.num_planes).unwrap();
        for (i, (&c, &r)) in coeffs.iter().zip(&rec).enumerate() {
            if c == 0.0 {
                prop_assert_eq!(r, 0.0, "idx {}", i);
            }
        }
    }

    #[test]
    fn every_prefix_decodes((coeffs, dims) in field_strategy(), q in 1e-2f64..1e2) {
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        // Every byte-prefix must decode to a full-size result without error.
        let step = (enc.stream.len() / 7).max(1);
        let n: usize = dims.iter().product();
        let mut cut = 0;
        while cut <= enc.stream.len() {
            let rec = decode::<f64, 3>(&enc.stream[..cut], dims, q, enc.num_planes).unwrap();
            prop_assert_eq!(rec.len(), n);
            cut += step;
        }
    }

    #[test]
    fn truncation_at_every_byte_boundary_never_panics((coeffs, dims) in field_strategy(),
                                                      q in 1e-2f64..1e2) {
        // Exhaustive sweep: EVERY proper prefix must decode cleanly (the
        // stream is embedded — truncation means lower quality, not error)
        // and must never panic.
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        let n: usize = dims.iter().product();
        for cut in 0..=enc.stream.len() {
            let rec = decode::<f64, 3>(&enc.stream[..cut], dims, q, enc.num_planes);
            match rec {
                Ok(v) => prop_assert_eq!(v.len(), n),
                Err(_) => prop_assert!(false, "embedded prefix rejected at {}", cut),
            }
        }
    }

    #[test]
    fn corrupted_streams_never_panic((coeffs, dims) in field_strategy(),
                                     q in 1e-2f64..1e2,
                                     pos_seed in any::<u64>(),
                                     planes in 0u8..=64) {
        // Bit flips and adversarial plane counts: any Result is fine.
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        if !enc.stream.is_empty() {
            let mut bad = enc.stream.clone();
            let pos = (pos_seed as usize) % bad.len();
            bad[pos] ^= 1 << (pos_seed % 8);
            let _ = decode::<f64, 3>(&bad, dims, q, enc.num_planes);
        }
        let _ = decode::<f64, 3>(&enc.stream, dims, q, planes);
    }

    #[test]
    fn fast_path_bit_identical_to_reference((coeffs, dims) in field_strategy(),
                                            q in 1e-3f64..1e3,
                                            budget_seed in any::<u64>()) {
        // The word-granular hot path must emit the exact bytes (and bit
        // counters) of the kept bit-at-a-time reference encoder, in both
        // termination modes, for arbitrary inputs — the property that
        // makes the PR 4 overhaul stream-neutral.
        let fast = encode(&coeffs, dims, q, Termination::Quality);
        let slow = sperr_speck::reference::encode(&coeffs, dims, q, Termination::Quality);
        prop_assert_eq!(&fast.stream, &slow.stream);
        prop_assert_eq!(fast.bits_used, slow.bits_used);
        prop_assert_eq!(fast.significance_bits, slow.significance_bits);
        prop_assert_eq!(fast.sign_bits, slow.sign_bits);
        prop_assert_eq!(fast.refinement_bits, slow.refinement_bits);

        let budget = (budget_seed as usize) % (fast.bits_used + 2);
        let fast_b = encode(&coeffs, dims, q, Termination::BitBudget(budget));
        let slow_b = sperr_speck::reference::encode(&coeffs, dims, q, Termination::BitBudget(budget));
        prop_assert_eq!(&fast_b.stream, &slow_b.stream);
        prop_assert_eq!(fast_b.bits_used, slow_b.bits_used);
    }

    #[test]
    fn f32_fast_path_matches_reference_and_bounds_error((coeffs, dims) in field_strategy(),
                                                        q in 1e-2f64..1e2) {
        // f32 instantiation: production == reference bitwise, decode ==
        // encode-side reconstruction, and the quantization-error contract
        // holds up to f32 rounding (quantizing c/q in f32 loses precision
        // once the ratio nears 2^24, so the bound carries a relative term).
        let coeffs32: Vec<f32> = coeffs.iter().map(|&v| v as f32).collect();
        let fast = encode(&coeffs32, dims, q, Termination::Quality);
        let slow = sperr_speck::reference::encode(&coeffs32, dims, q, Termination::Quality);
        prop_assert_eq!(&fast.stream, &slow.stream);
        prop_assert_eq!(fast.bits_used, slow.bits_used);
        let rec: Vec<f32> = decode(&fast.stream, dims, q, fast.num_planes).unwrap();
        let via_fast = sperr_speck::reconstruct_quantized(&coeffs32, q);
        prop_assert_eq!(&rec, &via_fast);
        for (&c, &r) in coeffs32.iter().zip(&rec) {
            let err = (c as f64 - r as f64).abs();
            prop_assert!(err < q * (1.0 + 1e-5) + (c as f64).abs() * 1e-5,
                         "c={c} r={r} q={q}");
        }
    }

    #[test]
    fn budget_prefix_of_quality_stream((coeffs, dims) in field_strategy(), q in 1e-2f64..1e2,
                                       frac in 0.05f64..1.0) {
        // A bit-budget encode must be a strict prefix of the quality-mode
        // stream (same coder state, earlier stop).
        let full = encode(&coeffs, dims, q, Termination::Quality);
        let budget_bits = ((full.bits_used as f64) * frac) as usize;
        let cut = encode(&coeffs, dims, q, Termination::BitBudget(budget_bits));
        prop_assert!(cut.bits_used <= budget_bits.max(0));
        let full_bits = &full.stream;
        let cut_bytes = cut.bits_used / 8;
        prop_assert_eq!(&cut.stream[..cut_bytes], &full_bits[..cut_bytes]);
    }
}
