//! Streaming-pipeline integration tests: the public `compress_stream` /
//! `decompress_stream` API end to end, container edge cases fed through
//! the streaming reader (a corrupt header must produce a typed error
//! before it can drive any allocation), and — with the `telemetry`
//! feature — proof that both streaming directions spread their chunks
//! across pool workers.

use sperr_compress_api::{Bound, Field, LossyCompressor, Precision};
use sperr_core::{stage_labels, Sperr, SperrConfig, SperrError, STAGE_CONTAINER};
use sperr_datagen::SyntheticField;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests that run pool work: telemetry sessions are
/// process-wide, so a concurrent test's spans would land in another's
/// timeline.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn sperr(threads: usize) -> Sperr {
    Sperr::new(SperrConfig {
        chunk_dims: [16, 16, 16],
        num_threads: threads,
        lossless: false, // OUTER_RAW framing: container bytes start at offset 1
        ..SperrConfig::default()
    })
}

fn raw_f64(field: &Field) -> Vec<u8> {
    field.data.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// A small in-memory stream for header-tampering tests: compressed with
/// the v2 path, then downgraded to the CRC-free v1 container so header
/// edits reach the parser instead of tripping the v2 header checksum.
fn v1_stream() -> (Sperr, Vec<u8>) {
    let field = SyntheticField::MirandaDensity.generate([24, 20, 16], 3);
    let t = field.range() * 1e-3;
    let s = sperr(1);
    let stream = s.compress(&field, Bound::Pwe(t)).unwrap();
    let v1 = s.downgrade_to_v1(&stream).unwrap();
    assert_eq!(v1[0], 0, "expected OUTER_RAW framing");
    (s, v1)
}

fn stream_decode_err(s: &Sperr, bytes: &[u8]) -> SperrError {
    let mut out = Vec::new();
    s.decompress_stream(bytes, &mut out, None)
        .expect_err("tampered container must not decode")
}

// Container-relative byte offsets (stream offset = +1 for the outer
// framing byte): magic 0..4, version 4, mode 5, kernel 6, precision 7,
// dims 8..20, bound 20..28, chunk_dims 28..40, n_chunks 40..44.
const STREAM_DIMS: usize = 1 + 8;
const STREAM_CHUNK_DIMS: usize = 1 + 28;
const STREAM_N_CHUNKS: usize = 1 + 40;

#[test]
fn streaming_roundtrip_matches_in_memory_api() {
    let _serial = serial();
    let dims = [24usize, 20, 16];
    let field = SyntheticField::S3dTemperature.generate(dims, 9);
    let t = field.range() * 1e-3;
    let s = sperr(2);

    let reference = s.compress(&field, Bound::Pwe(t)).unwrap();
    let mut compressed = Vec::new();
    let report = s
        .compress_stream(&raw_f64(&field)[..], &mut compressed, dims, Precision::Double, Bound::Pwe(t))
        .unwrap();
    assert_eq!(compressed, reference, "streaming output must be byte-identical");
    assert_eq!(report.n_chunks, 4);

    let mut decoded = Vec::new();
    s.decompress_stream(&compressed[..], &mut decoded, None).unwrap();
    let restored = s.decompress(&reference).unwrap();
    assert_eq!(decoded, raw_f64(&restored), "streaming decode must match in-memory decode");
}

#[test]
fn zero_chunk_container_is_typed_error() {
    let (s, mut v1) = v1_stream();
    v1[STREAM_N_CHUNKS..STREAM_N_CHUNKS + 4].fill(0);
    match stream_decode_err(&s, &v1) {
        SperrError::Codec { stage, source, .. } => {
            assert_eq!(stage, STAGE_CONTAINER);
            let msg = source.to_string();
            assert!(msg.contains("chunk count 0"), "unexpected error: {msg}");
        }
        other => panic!("expected typed container error, got {other:?}"),
    }
}

#[test]
fn chunk_table_past_end_of_stream_is_typed_error() {
    // Header declares a full chunk grid but the stream ends right after
    // the chunk count: the declared table cannot physically fit, and the
    // parser must say so before reserving anything sized by the count.
    let (s, v1) = v1_stream();
    let truncated = &v1[..STREAM_N_CHUNKS + 4];
    match stream_decode_err(&s, truncated) {
        SperrError::Codec { stage, source, .. } => {
            assert_eq!(stage, STAGE_CONTAINER);
            let msg = source.to_string();
            assert!(
                msg.contains("chunk table extends past end of stream"),
                "unexpected error: {msg}"
            );
        }
        other => panic!("expected typed truncation error, got {other:?}"),
    }
}

#[test]
fn oversized_chunk_grid_is_limit_error_without_allocation() {
    // dims 2048×2048×2 with 1³ chunks declares an 8.4M-chunk grid —
    // over the 2^22 limit, but a volume small enough to pass the
    // element-count check. The parser must reject on the *declared*
    // grid arithmetic, never by materializing the grid.
    let (s, mut v1) = v1_stream();
    for (i, d) in [2048u32, 2048, 2].iter().enumerate() {
        v1[STREAM_DIMS + 4 * i..STREAM_DIMS + 4 * i + 4].copy_from_slice(&d.to_le_bytes());
    }
    for i in 0..3 {
        v1[STREAM_CHUNK_DIMS + 4 * i..STREAM_CHUNK_DIMS + 4 * i + 4]
            .copy_from_slice(&1u32.to_le_bytes());
    }
    match stream_decode_err(&s, &v1) {
        SperrError::Codec { stage, source, .. } => {
            assert_eq!(stage, STAGE_CONTAINER);
            let msg = source.to_string();
            assert!(msg.contains("exceeds the"), "unexpected error: {msg}");
        }
        other => panic!("expected typed limit error, got {other:?}"),
    }
}

/// Whether spans on two different tracks overlap in wall time; each track
/// is a list of `(start_ns, dur_ns)`.
fn any_concurrent(tracks: &[Vec<(u64, u64)>]) -> bool {
    tracks.iter().enumerate().any(|(i, a)| {
        tracks[i + 1..].iter().any(|b| {
            a.iter().any(|&(sa, da)| b.iter().any(|&(sb, db)| sa < sb + db && sb < sa + da))
        })
    })
}

/// The spans labelled `label` (any label when `None`) of every pool worker
/// track that has one.
fn worker_spans(report: &sperr_telemetry::Report, label: Option<&str>) -> Vec<Vec<(u64, u64)>> {
    let wanted = |s: &&sperr_telemetry::Span| label.is_none_or(|l| s.label == l);
    report
        .tracks
        .iter()
        .filter(|tr| tr.worker.is_some())
        .map(|tr| tr.spans.iter().filter(wanted).map(|s| (s.start_ns, s.dur_ns)).collect())
        .filter(|spans: &Vec<_>| !spans.is_empty())
        .collect()
}

/// With telemetry compiled in, streaming runs must fan out in both
/// directions: a compression's worker timelines show concurrent spans on
/// two or more tracks, and a decompression on a two-thread pool decodes on
/// both slots at once (the caller is a decode worker, not only the
/// emitter). Runtime-gated so the default (telemetry-off) test run skips it.
#[test]
fn streaming_worker_timelines_overlap() {
    if !sperr_telemetry::is_enabled() {
        return;
    }
    let _serial = serial();
    let dims = [32usize, 32, 32]; // 8 chunks of 16³, two z-layers of 4
    let field = SyntheticField::MirandaPressure.generate(dims, 11);
    let t = field.range() * 1e-4;

    sperr_telemetry::start();
    let mut out = Vec::new();
    sperr(4)
        .compress_stream(&raw_f64(&field)[..], &mut out, dims, Precision::Double, Bound::Pwe(t))
        .unwrap();
    let busy = worker_spans(&sperr_telemetry::stop(), None);
    assert!(
        busy.len() >= 2,
        "streaming compress used {} busy worker track(s); expected overlap across >= 2",
        busy.len()
    );
    assert!(any_concurrent(&busy), "no concurrent compress spans across worker timelines");

    sperr_telemetry::start();
    sperr(2).decompress_stream(&out[..], &mut Vec::new(), None).unwrap();
    let decoding = worker_spans(&sperr_telemetry::stop(), Some(stage_labels::SPECK_DECODE));
    assert_eq!(decoding.len(), 2, "streaming decode ran on {} of 2 slots", decoding.len());
    assert!(any_concurrent(&decoding), "the two slots never decoded at the same time");
}

#[test]
fn pwe_compress_that_knows_it_missed_the_bound_is_refused() {
    // `max|x − x̂| <= t` is the mode's contract and the encoder knows the
    // exact error each chunk ends at. Tolerances below what the
    // quantizer (saturating at 2^62) and the outlier coder can express
    // used to come back `Ok` with the miss recorded in the stream's own
    // index: 4.4 on this field of range 7.8 at 1e-300, ~1e-15 at 1e-18.
    let _serial = serial();
    let dims = [20usize, 20, 20];
    let field = SyntheticField::MirandaPressure.generate(dims, 1);
    let s = Sperr::new(SperrConfig { chunk_dims: [16, 16, 16], ..SperrConfig::default() });
    for t in [1e-300, 1e-30, 1e-18] {
        let refused = s.compress(&field, Bound::Pwe(t)).unwrap_err();
        let msg = refused.to_string();
        assert!(matches!(refused, sperr_compress_api::CompressError::Invalid(_)), "{msg}");
        assert!(msg.contains(&format!("{t:e}")) && msg.contains("chunk 0"), "{msg}");

        let mut out = Vec::new();
        let refused = s
            .compress_stream(&raw_f64(&field)[..], &mut out, dims, Precision::Double, Bound::Pwe(t))
            .unwrap_err();
        assert!(out.is_empty(), "t={t:e}: {} bytes written before the refusal", out.len());
        match refused {
            SperrError::Codec { stage, chunk, source } => {
                assert_eq!((stage, chunk), (STAGE_CONTAINER, Some(0)));
                assert_eq!(source.to_string(), msg, "both drivers refuse alike");
            }
            other => panic!("expected a typed refusal, got {other}"),
        }
    }
    // The tightest tolerance the coders do meet on this field still works,
    // on both drivers, and the stream keeps its promise.
    let t = 1e-15;
    let stream = s.compress(&field, Bound::Pwe(t)).unwrap();
    let mut streamed = Vec::new();
    s.compress_stream(&raw_f64(&field)[..], &mut streamed, dims, Precision::Double, Bound::Pwe(t))
        .unwrap();
    assert_eq!(streamed, stream);
    let back = s.decompress(&stream).unwrap();
    let worst = field.data.iter().zip(&back.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    assert!(worst <= t, "max error {worst:e} above {t:e}");
}
