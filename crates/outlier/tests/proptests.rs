//! Property tests: the PWE guarantee of the outlier coder must hold for
//! arbitrary outlier sets — exact positions, corrections within t/2.

use proptest::prelude::*;
use sperr_outlier::{decode, encode, Outlier};

/// Arbitrary outlier sets: unique positions within a random domain, signed
/// magnitudes strictly above a random tolerance.
fn outlier_set() -> impl Strategy<Value = (Vec<Outlier>, usize, f64)> {
    (1usize..5000, 1e-6f64..10.0).prop_flat_map(|(n, t)| {
        let positions = prop::collection::btree_set(0..n, 0..50.min(n));
        let t2 = t;
        (positions, Just(n), Just(t2)).prop_flat_map(move |(pos_set, n, t)| {
            let count = pos_set.len();
            let positions: Vec<usize> = pos_set.into_iter().collect();
            (
                prop::collection::vec((1.0001f64..1e6, any::<bool>()), count..=count),
                Just(positions),
                Just(n),
                Just(t),
            )
                .prop_map(move |(mags, positions, n, t)| {
                    let outliers: Vec<Outlier> = positions
                        .iter()
                        .zip(&mags)
                        .map(|(&pos, &(factor, neg))| Outlier {
                            pos,
                            corr: t * factor * if neg { -1.0 } else { 1.0 },
                        })
                        .collect();
                    (outliers, n, t)
                })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_guarantees_pwe((outliers, n, t) in outlier_set()) {
        let enc = encode(&outliers, n, t);
        let mut dec = decode(&enc.stream, n, t, enc.max_n).unwrap();
        prop_assert_eq!(dec.len(), outliers.len());
        dec.sort_by_key(|o| o.pos);
        let mut orig = outliers.clone();
        orig.sort_by_key(|o| o.pos);
        for (d, o) in dec.iter().zip(&orig) {
            prop_assert_eq!(d.pos, o.pos);
            let err = (d.corr - o.corr).abs();
            prop_assert!(err <= t / 2.0 * (1.0 + 1e-9),
                         "pos {} corr {} decoded {} err {} > t/2 {}",
                         o.pos, o.corr, d.corr, err, t / 2.0);
        }
    }

    #[test]
    fn stream_is_deterministic((outliers, n, t) in outlier_set()) {
        let a = encode(&outliers, n, t);
        let b = encode(&outliers, n, t);
        prop_assert_eq!(a.stream, b.stream);
        prop_assert_eq!(a.max_n, b.max_n);
    }

    #[test]
    fn max_err_is_the_decoded_error_bit_for_bit((outliers, n, t) in outlier_set()) {
        // What the encoder reports without decoding equals what pairing
        // the decoded corrections with the inputs measures, to the bit.
        let enc = encode(&outliers, n, t);
        let mut dec = decode(&enc.stream, n, t, enc.max_n).unwrap();
        dec.sort_by_key(|o| o.pos);
        let mut orig = outliers.clone();
        orig.sort_by_key(|o| o.pos);
        let paired = orig.iter().zip(&dec).fold(0.0f64, |m, (o, d)| m.max((o.corr - d.corr).abs()));
        prop_assert_eq!(enc.max_err.to_bits(), paired.to_bits(),
                        "encoder {} vs decoded {}", enc.max_err, paired);
    }

    #[test]
    fn truncation_at_every_byte_boundary_never_panics((outliers, n, t) in outlier_set()) {
        // Exhaustive sweep: every proper prefix decodes to a valid subset
        // (the coder is embedded) and never panics.
        let enc = encode(&outliers, n, t);
        for cut in 0..=enc.stream.len() {
            let dec = decode(&enc.stream[..cut], n, t, enc.max_n);
            match dec {
                Ok(subset) => {
                    prop_assert!(subset.len() <= outliers.len());
                    for d in &subset {
                        prop_assert!(d.pos < n);
                    }
                }
                Err(_) => prop_assert!(false, "embedded prefix rejected at {}", cut),
            }
        }
    }

    #[test]
    fn corrupted_streams_never_panic((outliers, n, t) in outlier_set(),
                                     pos_seed in any::<u64>(),
                                     max_n in 0u8..=64) {
        // Bit flips and adversarial max_n: any Result is fine, panics are not.
        let enc = encode(&outliers, n, t);
        if !enc.stream.is_empty() {
            let mut bad = enc.stream.clone();
            let pos = (pos_seed as usize) % bad.len();
            bad[pos] ^= 1 << (pos_seed % 8);
            let _ = decode(&bad, n, t, enc.max_n);
        }
        let _ = decode(&enc.stream, n, t, max_n);
    }

    #[test]
    fn truncation_is_graceful((outliers, n, t) in outlier_set(), frac in 0.0f64..1.0) {
        let enc = encode(&outliers, n, t);
        let cut = ((enc.stream.len() as f64) * frac) as usize;
        let dec = decode(&enc.stream[..cut], n, t, enc.max_n).unwrap();
        // Partial decode yields a subset of positions, all valid.
        for d in &dec {
            prop_assert!(d.pos < n);
        }
        prop_assert!(dec.len() <= outliers.len());
    }
}
