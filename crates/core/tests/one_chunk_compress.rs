//! A compress of one chunk splits across the pool: once SPECK has
//! quantized the coefficients, its sorting passes run on one worker while
//! the mode's own work on the coefficients — the outlier locate (PWE), the
//! quantization error (RMSE) — runs on the other. Every driver must still
//! write the 1-thread stream's bytes, or give its error, at every thread
//! count; so must the cases that keep the serial order (a bit budget, and
//! magnitudes wider than 32 bits, where the sorting passes read the
//! coefficients again).

use sperr_compress_api::{Bound, CompressError, Field, Precision};
use sperr_core::{compress_chunk, ChunkMode, ChunkSpec, ScratchArena, Sperr, SperrConfig};
use sperr_core::{WorkerPool, CONTAINER_VERSION};

const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

fn one(threads: usize) -> Sperr {
    Sperr::new(SperrConfig { num_threads: threads, ..SperrConfig::default() })
}

/// A smooth field, with sparse spikes of `spike` so that a tight PWE bound
/// leaves outliers.
fn field(dims: [usize; 3], spike: f64) -> Field {
    Field::from_fn(dims, |x, y, z| {
        let spike = if (x * 7 + y * 3 + z * 5) % 89 == 0 { spike } else { 0.0 };
        (x as f64 * 0.31).sin() * 20.0 + (y as f64 * 0.17).cos() * 9.0 + z as f64 * 0.4 + spike
    })
}

/// The SPECK bitplane count and outlier count of `field` as one chunk.
fn planes_and_outliers(field: &Field, bound: Bound) -> (u8, u32) {
    let Bound::Pwe(t) = bound else { unreachable!("PWE rows only") };
    let dims = field.dims;
    let spec = ChunkSpec { offset: [0; 3], dims };
    let mode = ChunkMode::Pwe { t, q_factor: SperrConfig::default().q_factor };
    let (pool, mut arena) = (WorkerPool::inline(), ScratchArena::new());
    let kernel = SperrConfig::default().kernel;
    let enc = compress_chunk(&field.data, dims, &spec, mode, kernel, &pool, &mut arena).unwrap();
    (enc.num_planes, enc.num_outliers)
}

/// Both in-memory widths, and the streaming driver at both widths when it
/// takes the bound: the stream of each, in that order.
fn streams(s: &Sperr, field: &Field, bound: Bound) -> Vec<Result<Vec<u8>, String>> {
    let narrow = field.narrow_lossy();
    let mut out = vec![
        s.compress_with_stats(field, bound).map(|(b, _)| b).map_err(|e| e.to_string()),
        s.compress_with_stats(&narrow, bound).map(|(b, _)| b).map_err(|e| e.to_string()),
    ];
    if matches!(bound, Bound::Pwe(_) | Bound::Bpp(_)) {
        let wide: Vec<u8> = field.data.iter().flat_map(|v| v.to_le_bytes()).collect();
        let narrow: Vec<u8> = narrow.data.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut a = Vec::new();
        let got = s.compress_stream(&wide[..], &mut a, field.dims, Precision::Double, bound);
        out.push(got.map(|_| a).map_err(|e| e.to_string()));
        let mut b = Vec::new();
        let got = s.compress_stream_f32(&narrow[..], &mut b, field.dims, bound);
        out.push(got.map(|_| b).map_err(|e| e.to_string()));
    }
    out
}

#[test]
fn one_chunk_compress_is_byte_identical_at_every_thread_count() {
    // (what the row covers, dims, spikes, bound). 32³ takes SPECK's
    // Morton geometry, 24×20×18 its tables.
    let rows = [
        ("PWE with outliers", [32, 32, 32], 25.0, Bound::Pwe(0.5)),
        ("PWE with outliers, tables", [24, 20, 18], 25.0, Bound::Pwe(0.5)),
        ("PWE without outliers", [32, 32, 32], 0.0, Bound::Pwe(10.0)),
        ("PWE, more than 32 planes", [24, 20, 18], 25.0, Bound::Pwe(1e-9)),
        ("RMSE", [32, 32, 32], 25.0, Bound::Psnr(70.0)),
        ("BPP", [24, 20, 18], 25.0, Bound::Bpp(2.0)),
    ];
    for (what, dims, spike, bound) in rows {
        let field = field(dims, spike);
        if let Bound::Pwe(_) = bound {
            let (planes, outliers) = planes_and_outliers(&field, bound);
            match what {
                "PWE without outliers" => assert_eq!(outliers, 0, "{what}"),
                "PWE, more than 32 planes" => assert!(planes > 32, "{what}: {planes} planes"),
                _ => assert!(outliers > 0 && planes <= 32, "{what}: {planes}, {outliers}"),
            }
        }
        let serial = streams(&one(1), &field, bound);
        for stream in &serial {
            let stream = stream.as_ref().unwrap_or_else(|e| panic!("{what}: {e}"));
            let info = one(1).inspect(stream).unwrap();
            assert_eq!((info.n_chunks, info.version), (1, CONTAINER_VERSION), "{what}");
        }
        for threads in &THREADS[1..] {
            let got = streams(&one(*threads), &field, bound);
            assert!(got == serial, "{what}: a stream differs at {threads} threads");
        }
    }
}

#[test]
fn one_chunk_compress_refuses_a_locate_overflow_at_every_thread_count() {
    // Finite coefficients and a huge step: a mid-riser value lands past
    // f64::MAX, the inverse transform spreads it, and the outlier locate —
    // beside SPECK's sorting passes from 2 threads on — finds non-finite
    // residuals. Every thread count refuses the chunk with the same error,
    // in memory and streaming.
    let dims = [16usize; 3];
    let field =
        Field::new(dims, (0..4096).map(|i| 0.04 * f64::MAX + (i as f64 * 0.1).sin()).collect());
    let bound = Bound::Pwe(3e307);
    let raw: Vec<u8> = field.data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let refused = |threads| {
        let s = one(threads);
        let in_memory = s.compress_with_stats(&field, bound).map(drop).unwrap_err();
        let mut out = Vec::new();
        let streamed = s.compress_stream(&raw[..], &mut out, dims, Precision::Double, bound);
        (in_memory, streamed.map(drop).unwrap_err().to_string(), out.len())
    };
    let serial = refused(1);
    let CompressError::Invalid(message) = &serial.0 else { panic!("{:?}", serial.0) };
    assert!(message.contains("chunk 0: its wavelet transform overflows"), "{message}");
    assert!(serial.1.contains(message.as_str()), "{}", serial.1);
    assert_eq!(serial.2, 0, "a refused compress writes nothing");
    for threads in &THREADS[1..] {
        assert_eq!(refused(*threads), serial, "{threads} threads");
    }
}
