//! Fault plans ([`sperr_core::faultpoint`]) are process-global, so a test
//! that arms one must not share a process with tests that run the same
//! pipeline stages concurrently — they would steal the fault. This file
//! is its own test binary and holds exactly one test for that reason.

use sperr_compress_api::{Bound, Field, Precision};
use sperr_core::{faultpoint, stage_labels, Sperr, SperrConfig, SperrError};

#[test]
fn one_chunk_compress_panic_keeps_its_stage_at_every_thread_count() {
    // From 2 threads on, the outlier locate of a one-chunk compress and
    // then the outlier encode run on the second worker, beside SPECK's
    // sorting passes on the caller. A panic in either must come back as
    // at 1 thread: with its own stage and message, not the stage the
    // caller was in.
    let dims = [32usize; 3];
    let field = Field::from_fn(dims, |x, y, z| {
        (x as f64 * 0.29).sin() * 30.0 + (y as f64 * 0.15).cos() * 12.0 + z as f64 * 0.4
    });
    let raw: Vec<u8> = field.data.iter().flat_map(|v| v.to_le_bytes()).collect();
    for label in [stage_labels::OUTLIER_LOCATE, stage_labels::OUTLIER_ENCODE] {
        for threads in [1usize, 2, 4] {
            let what = format!("{label}, threads={threads}");
            faultpoint::arm(label, 0);
            let sperr = Sperr::new(SperrConfig { num_threads: threads, ..SperrConfig::default() });
            let mut out = Vec::new();
            let err = sperr
                .compress_stream(&raw[..], &mut out, dims, Precision::Double, Bound::Pwe(1e-3))
                .unwrap_err();
            assert!(!faultpoint::is_armed(), "{what}: the fault never fired");
            faultpoint::disarm();
            match err {
                SperrError::Panic { stage, chunk, message } => {
                    assert_eq!(stage, label, "{what}");
                    assert_eq!(chunk, Some(0), "{what}");
                    assert_eq!(message, format!("injected fault at {label}"), "{what}");
                }
                other => panic!("{what}: expected Panic, got {other:?}"),
            }
        }
    }
}
