//! Telemetry-observability guarantees (compiled only with the
//! `telemetry` feature; `scripts/ci.sh` runs this target explicitly):
//!
//! 1. Recording MUST NOT change compressed output — streams are
//!    byte-identical with a telemetry session active vs. inactive, over
//!    the conformance corpus and over random fields (property test).
//! 2. Recording does a fixed, counted number of operations per chunk —
//!    per stage, bitplane and transform pass, never per sample.
//! 3. A traced run produces Chrome trace-event JSON with a span for
//!    every compress-side pipeline stage and one track per pool worker.
#![cfg(feature = "telemetry")]

use proptest::prelude::*;
use sperr_compress_api::{Bound, Field, LossyCompressor};
use sperr_core::{stage_labels, Sperr, SperrConfig};
use std::sync::{Mutex, OnceLock};

/// Telemetry sessions are process-global; every test that starts one
/// holds this lock so parallel test threads cannot interleave sessions.
fn session_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The conformance goldens' compressor configuration.
fn golden_sperr() -> Sperr {
    Sperr::new(SperrConfig {
        chunk_dims: [16, 16, 16],
        num_threads: 1,
        ..SperrConfig::default()
    })
}

fn compress_recorded(sperr: &Sperr, field: &Field, bound: Bound) -> Vec<u8> {
    sperr_telemetry::start();
    let stream = sperr.compress(field, bound).unwrap();
    let report = sperr_telemetry::stop();
    assert!(!report.is_empty(), "session recorded nothing");
    stream
}

#[test]
fn corpus_streams_identical_with_recording_on_and_off() {
    let _guard = session_lock();
    let sperr = golden_sperr();
    for input in sperr_conformance::corpus::corpus_inputs() {
        let field = input.generate();
        for bound in [Bound::Pwe(field.tolerance_for_idx(15)), Bound::Bpp(2.0)] {
            let quiet = sperr.compress(&field, bound).unwrap();
            let recorded = compress_recorded(&sperr, &field, bound);
            assert_eq!(
                quiet, recorded,
                "{}: stream bytes differ when telemetry records ({bound:?})",
                input.id
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_field_streams_identical_with_recording(
        (nx, ny, nz) in (2usize..=12, 2usize..=12, 1usize..=8),
        seed in 0u64..1000,
        idx in 4u32..24,
    ) {
        let _guard = session_lock();
        let n = nx * ny * nz;
        // Cheap deterministic pseudo-random field from the seed.
        let data: Vec<f64> = (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
                ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2e4
            })
            .collect();
        let field = Field::new([nx, ny, nz], data);
        let t = field.range() / f64::exp2(idx as f64);
        prop_assume!(t > 0.0);
        let sperr = golden_sperr();
        let quiet = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        let recorded = compress_recorded(&sperr, &field, Bound::Pwe(t));
        prop_assert_eq!(quiet, recorded);
    }
}

#[test]
fn recording_does_a_bounded_number_of_operations_per_chunk() {
    // Recording costs a fixed amount per event, so its overhead is pinned
    // by counting events instead of timing them on a shared host. Per
    // chunk, a PWE compress records one span per stage and coder phase,
    // one per bitplane, one per wavelet axis pass (the forward transform
    // and the outlier locate's inverse), one event per counter and one
    // histogram sample per stage, size and memory gauge — exactly, and
    // none per sample: 8× the samples adds two planes and six passes.
    let _guard = session_lock();
    const STAGE_AND_PHASE_SPANS: usize = 11;
    const COUNTERS: usize = 9;
    const HISTOGRAM_SAMPLES: u64 = 9;
    for edge in [32usize, 64] {
        let dims = [edge; 3];
        let field = sperr_datagen::SyntheticField::MirandaDensity.generate(dims, 20230512);
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: dims,
            lossless: false,
            num_threads: 1,
            ..SperrConfig::default()
        });
        sperr_telemetry::start();
        sperr.compress(&field, Bound::Pwe(field.range() * 1e-4)).unwrap();
        let report = sperr_telemetry::stop();
        let spans = |label: &str| {
            report.tracks.iter().flat_map(|t| &t.spans).filter(|s| s.label == label).count()
        };
        let planes = spans("speck.encode.plane");
        let passes = 2 * sperr_wavelet::levels_for_dims(dims).iter().sum::<usize>();
        assert!((1..=64).contains(&planes), "{edge}³: {planes} planes");
        assert_eq!(
            report.event_count(),
            STAGE_AND_PHASE_SPANS + COUNTERS + planes + passes,
            "{edge}³: events recorded beyond the per-chunk operations"
        );
        let samples: u64 = report.metrics.entries.iter().map(|e| e.hist.count).sum();
        assert_eq!(samples, HISTOGRAM_SAMPLES, "{edge}³: histogram samples");
    }
}

#[test]
fn metrics_snapshot_covers_ops_stages_and_memory() {
    let _guard = session_lock();
    let dims = [32usize, 32, 32];
    let field = sperr_datagen::SyntheticField::MirandaDensity.generate(dims, 11);
    let field32 = field.narrow_lossy();
    let t = field.range() * 1e-4;
    let sperr = Sperr::new(SperrConfig {
        chunk_dims: [16, 16, 16],
        num_threads: 2,
        ..SperrConfig::default()
    });
    sperr_telemetry::start();
    let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
    sperr.decompress(&stream).unwrap();
    let stream32 = sperr.compress_f32(&field32, Bound::Pwe(t)).unwrap();
    sperr.decompress_f32(&stream32).unwrap();
    sperr.decode_region(&stream, [0; 3], [8, 8, 8]).unwrap();
    sperr.decode_at_bpp(&stream, 1.0).unwrap();
    let snap = sperr_telemetry::stop().metrics;
    // One latency histogram per exercised top-level operation…
    use sperr_core::metric_labels as m;
    for label in [
        m::OP_COMPRESS_F64,
        m::OP_DECOMPRESS_F64,
        m::OP_COMPRESS_F32,
        m::OP_DECOMPRESS_F32,
        m::OP_DECODE_REGION,
        m::OP_DECODE_PREVIEW,
    ] {
        let e = snap.get(label).unwrap_or_else(|| panic!("no metric for {label}"));
        assert!(e.hist.count >= 1, "{label} recorded no samples");
        assert!(e.hist.quantile(0.5) <= e.hist.quantile(0.99), "{label} quantiles inverted");
    }
    // …plus stage latencies (recorded by `timed` under the span labels),
    // size distributions and the arena memory gauges at both widths.
    for label in stage_labels::COMPRESS.iter().chain(stage_labels::DECOMPRESS) {
        assert!(snap.get(label).is_some(), "no stage histogram for {label}");
    }
    for label in [m::SIZE_OUTPUT, m::SIZE_CHUNK_SPECK, m::MEM_ARENA_F64, m::MEM_ARENA_F32] {
        let e = snap.get(label).unwrap_or_else(|| panic!("no metric for {label}"));
        assert!(e.hist.max > 0, "{label} peak is zero");
    }

    // Both exports render: the Prometheus text carries a summary with
    // quantile series per entry, the JSON names the schema.
    let prom = snap.render_prometheus();
    assert!(prom.contains("# TYPE sperr_op_compress_f64_seconds summary"));
    assert!(prom.contains("sperr_op_compress_f64_seconds{quantile=\"0.99\"} "));
    assert!(prom.contains("# TYPE sperr_mem_arena_f64_bytes_max gauge"));
    assert!(snap.render_json().contains("sperr-metrics/v1"));

    // Snapshots are session-scoped: a fresh session resets them, so two
    // CLI runs in one process cannot bleed into each other.
    sperr_telemetry::start();
    assert!(sperr_telemetry::stop().metrics.is_empty(), "metrics survived a session reset");
}

#[test]
fn the_kept_working_set_is_recorded_once_per_call() {
    // A `Sperr` keeps one working set between calls; every call that
    // borrows it records what it holds once, in its width's memory
    // histogram, however many workers the call ran: two compresses and a
    // read at two threads on 8 chunks are three samples. The warm
    // compress holds what the cold one grew, and the read decodes in it.
    let _guard = session_lock();
    let dims = [32usize, 32, 32];
    let field = sperr_datagen::SyntheticField::MirandaDensity.generate(dims, 17);
    let sperr = Sperr::new(SperrConfig {
        chunk_dims: [16, 16, 16],
        num_threads: 2,
        ..SperrConfig::default()
    });
    let bound = Bound::Pwe(field.range() * 1e-4);
    sperr_telemetry::start();
    let cold = sperr.compress(&field, bound).unwrap();
    let warm = sperr.compress(&field, bound).unwrap();
    sperr.decompress(&warm).unwrap();
    let snap = sperr_telemetry::stop().metrics;
    assert_eq!(cold, warm);
    use sperr_core::metric_labels as m;
    let memory = &snap.get(m::MEM_ARENA_F64).expect("no working-set footprint").hist;
    assert_eq!(memory.count, 3, "one footprint sample per call");
    assert!(memory.min > 0, "a call recorded an empty working set");
    assert!(snap.get(m::MEM_ARENA_F32).is_none(), "an f64 call recorded at f32");
}

#[test]
fn lossless_spans_and_counters_fire_once_per_call_not_per_block() {
    // The lossless pass encodes block by block on the pool and reads
    // inflate block by block, but the dashboards built on these labels
    // count *calls*: one `lossless.compress` span and one
    // `bytes_in`/`bytes_out`/`blocks_stored_unparsed` triple per
    // compress, one payload inflate (the read's `stage.lossless.decompress`
    // span around its one fetch of the planned payloads) per read —
    // however many SLZ1 blocks the container spans (four here) and
    // however many workers code them. No read inflates the whole
    // container (`lossless.decompress`, the library's whole-stream call).
    let _guard = session_lock();
    let field = sperr_datagen::SyntheticField::MirandaPressure.generate([64, 64, 64], 5);
    let sperr = Sperr::new(SperrConfig {
        chunk_dims: [16, 16, 16],
        num_threads: 2,
        ..SperrConfig::default()
    });
    sperr_telemetry::start();
    let stream = sperr.compress(&field, Bound::Pwe(field.tolerance_for_idx(14))).unwrap();
    sperr.decompress(&stream).unwrap();
    let report = sperr_telemetry::stop();
    let info = sperr.inspect(&stream).unwrap();
    let container_bytes = info.payload_offset + info.chunk_payload_sizes.iter().sum::<usize>();
    assert!(container_bytes > 3 * 128 * 1024, "want a multi-block container");

    let spans = |label: &str| -> usize {
        report.tracks.iter().flat_map(|t| &t.spans).filter(|s| s.label == label).count()
    };
    assert_eq!(spans("lossless.compress"), 1);
    assert_eq!(spans(stage_labels::LOSSLESS_DECOMPRESS), 1);
    assert_eq!(spans("lossless.decompress"), 0);
    let counter = |label: &str| -> Vec<u64> {
        let events = report.tracks.iter().flat_map(|t| &t.counters);
        events.filter(|c| c.label == label).map(|c| c.value).collect()
    };
    assert_eq!(counter("lossless.bytes_in"), [container_bytes as u64]);
    assert_eq!(counter("lossless.bytes_out"), [stream.len() as u64 - 1]);
    // Blocks stored without a parse are some of the stored ones: walk the
    // SLZ1 frames (after the stream's one-byte tag, the magic and the raw
    // length) and count those without the coded flag.
    let (mut at, mut stored) = (1 + 4 + 8, 0u64);
    while at < stream.len() {
        let raw = u32::from_le_bytes(stream[at + 1..at + 5].try_into().unwrap()) as usize;
        let coded = stream[at] & 1 == 1;
        let payload = if coded {
            4 + u32::from_le_bytes(stream[at + 5..at + 9].try_into().unwrap()) as usize
        } else {
            raw
        };
        stored += u64::from(!coded);
        at += 5 + payload;
    }
    // This container has one such block, and its coder output is dense
    // enough that the parse is skipped.
    let unparsed = counter("lossless.blocks_stored_unparsed");
    assert_eq!(unparsed.len(), 1, "one count per call: {unparsed:?}");
    assert!((1..=stored).contains(&unparsed[0]), "{unparsed:?} unparsed of {stored} stored");

    // A region read inflates sparsely the same way: one payload inflate,
    // no full inflate.
    sperr_telemetry::start();
    sperr.decode_region(&stream, [3, 3, 3], [9, 9, 9]).unwrap();
    let report = sperr_telemetry::stop();
    assert!(report.has_span("lossless.inflate_ranges"));
    let stage_spans = report.tracks.iter().flat_map(|t| &t.spans);
    assert_eq!(stage_spans.filter(|s| s.label == stage_labels::LOSSLESS_DECOMPRESS).count(), 1);
    assert!(!report.has_span("lossless.decompress"));
}

#[test]
fn one_chunk_read_uses_both_workers() {
    // A full read of a one-chunk volume on a 2-thread pool: the outlier
    // list decodes on one worker while SPECK's sorting pass walks its
    // planes on the other, and both workers assemble a z-slab. The caller
    // claims job 0 of every batch before the worker can see it, so slot 0
    // always runs the sorting pass and the first slab; slot 1's share is
    // a race it loses only by sleeping through a whole phase, and such a
    // host is given a few more reads before this fails.
    let _guard = session_lock();
    let field = sperr_datagen::SyntheticField::MirandaPressure.generate([64, 64, 64], 3);
    let sperr = Sperr::new(SperrConfig { num_threads: 2, ..SperrConfig::default() });
    let stream = sperr.compress(&field, Bound::Pwe(field.tolerance_for_idx(16))).unwrap();
    assert!(sperr.inspect(&stream).unwrap().outlier_bytes > 0, "no outliers to decode");
    // (start, end) of every span labelled `label`, per worker slot.
    let on_slot = |report: &sperr_telemetry::Report, slot: usize, label: &str| -> Vec<(u64, u64)> {
        let tracks = report.tracks.iter().filter(|t| t.worker == Some(slot));
        let spans = tracks.flat_map(|t| &t.spans).filter(|s| s.label == label);
        spans.map(|s| (s.start_ns, s.start_ns + s.dur_ns)).collect()
    };
    let overlap = |a: &[(u64, u64)], b: &[(u64, u64)]| {
        a.iter().any(|&(s0, e0)| b.iter().any(|&(s1, e1)| s0 < e1 && s1 < e0))
    };
    let mut seen = Vec::new();
    for _ in 0..5 {
        sperr_telemetry::start();
        sperr.decompress(&stream).unwrap();
        let report = sperr_telemetry::stop();
        let beside = [(0, 1), (1, 0)].iter().any(|&(a, b)| {
            overlap(
                &on_slot(&report, a, "outlier.decode"),
                &on_slot(&report, b, "speck.decode.plane"),
            )
        });
        let assembled =
            [0, 1].map(|slot| !on_slot(&report, slot, "speck.decode.reconstruct").is_empty());
        if beside && assembled == [true, true] {
            return;
        }
        seen.push((beside, assembled));
    }
    panic!("(outlier decode beside the sorting pass, assembly per slot) over five reads: {seen:?}");
}

#[test]
fn one_chunk_compress_uses_both_workers() {
    // A PWE compress of a one-chunk volume on a 2-thread pool: once SPECK
    // has quantized the coefficients, the outlier locate and then the
    // outlier encode run on one worker while the sorting passes walk
    // their planes on the other. The volume is 128³ at idx 20, where the
    // planes outlast the locate: at 64³ the two take about as long, and
    // the encode often began only during the refinement. Which slot takes
    // which job is a race; a host that leaves one worker asleep through
    // the whole locate or encode is given a few more compresses before
    // this fails.
    let _guard = session_lock();
    let field = sperr_datagen::SyntheticField::MirandaPressure.generate([128, 128, 128], 3);
    let sperr = Sperr::new(SperrConfig { num_threads: 2, ..SperrConfig::default() });
    let bound = Bound::Pwe(field.tolerance_for_idx(20));
    let on_slot = |report: &sperr_telemetry::Report, slot: usize, label: &str| -> Vec<(u64, u64)> {
        let tracks = report.tracks.iter().filter(|t| t.worker == Some(slot));
        let spans = tracks.flat_map(|t| &t.spans).filter(|s| s.label == label);
        spans.map(|s| (s.start_ns, s.start_ns + s.dur_ns)).collect()
    };
    let overlap = |a: &[(u64, u64)], b: &[(u64, u64)]| {
        a.iter().any(|&(s0, e0)| b.iter().any(|&(s1, e1)| s0 < e1 && s1 < e0))
    };
    let mut misses = Vec::new();
    for _ in 0..5 {
        sperr_telemetry::start();
        let stream = sperr.compress(&field, bound).unwrap();
        let report = sperr_telemetry::stop();
        assert!(sperr.inspect(&stream).unwrap().outlier_bytes > 0, "no outliers located");
        let beside = |label: &str| {
            [(0, 1), (1, 0)].iter().any(|&(a, b)| {
                overlap(&on_slot(&report, a, label), &on_slot(&report, b, "speck.encode.plane"))
            })
        };
        let seen = [stage_labels::OUTLIER_LOCATE, stage_labels::OUTLIER_ENCODE].map(beside);
        if seen == [true, true] {
            return;
        }
        misses.push(seen);
    }
    panic!(
        "(outlier locate, outlier encode) beside SPECK's sorting passes over five compresses: \
         {misses:?}"
    );
}

#[test]
fn trace_covers_all_stages_and_worker_tracks() {
    let _guard = session_lock();
    let dims = [32usize, 32, 32];
    let field = sperr_datagen::SyntheticField::MirandaPressure.generate(dims, 7);
    let t = field.range() * 1e-4;
    // 8 chunks across 4 workers: the pool fans out, so the report must
    // carry one named track per worker slot.
    let threads = 4;
    let sperr = Sperr::new(SperrConfig {
        chunk_dims: [16, 16, 16],
        num_threads: threads,
        ..SperrConfig::default()
    });
    sperr_telemetry::start();
    let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
    sperr.decompress(&stream).unwrap();
    let report = sperr_telemetry::stop();

    for label in stage_labels::COMPRESS.iter().chain(stage_labels::DECOMPRESS) {
        assert!(report.has_span(label), "no span recorded for stage {label}");
    }
    let worker_tracks: Vec<usize> =
        report.tracks.iter().filter_map(|track| track.worker).collect();
    for slot in 0..threads {
        assert!(
            worker_tracks.contains(&slot),
            "no timeline track for worker {slot} (have {worker_tracks:?})"
        );
    }

    // The rendered Chrome trace passes the exporter's own schema check,
    // including every stage label of both directions.
    let all_labels: Vec<&str> = stage_labels::COMPRESS
        .iter()
        .chain(stage_labels::DECOMPRESS)
        .copied()
        .collect();
    sperr_telemetry::validate_chrome_trace(&report.chrome_trace(), &all_labels).unwrap();
}
