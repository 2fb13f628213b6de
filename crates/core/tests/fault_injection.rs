//! Fault plans ([`sperr_core::faultpoint`]) are process-global, so a test
//! that arms one must not share a process with tests that run the same
//! pipeline stages concurrently — they would steal the fault. This file
//! is its own test binary and holds exactly one test for that reason.

use sperr_compress_api::{Bound, Field, Precision};
use sperr_core::{faultpoint, stage_labels, Sperr, SperrConfig, SperrError};

#[test]
fn injected_worker_panic_cancels_with_stage_and_message() {
    let dims = [16usize, 16, 64];
    let field = Field::from_fn(dims, |x, y, z| {
        (x as f64 * 0.29).sin() * 30.0 + (y as f64 * 0.15).cos() * 12.0 + z as f64 * 0.4
    });
    let raw: Vec<u8> = field.data.iter().flat_map(|v| v.to_le_bytes()).collect();
    for threads in [1usize, 4] {
        faultpoint::arm(stage_labels::SPECK_ENCODE, 1);
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            num_threads: threads,
            ..SperrConfig::default()
        });
        let mut out = Vec::new();
        let err = sperr
            .compress_stream(&raw[..], &mut out, dims, Precision::Double, Bound::Pwe(1e-3))
            .unwrap_err();
        faultpoint::disarm();
        match err {
            SperrError::Panic { stage, message, .. } => {
                assert_eq!(stage, stage_labels::SPECK_ENCODE, "threads={threads}");
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected Panic, got {other:?}"),
        }
    }
}
