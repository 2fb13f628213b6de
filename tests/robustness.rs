//! Failure-injection and robustness tests: hostile inputs must produce
//! clean errors (or valid decodes), never panics, across every
//! compressor; plus the paper's QMCPACK chunk-alignment scenario.

use sperr_compress_api::{Bound, CompressError, Field, FieldOf, LossyCompressor, Precision};
use sperr_core::{Float, OnDamage, ReadOutput, ReadRequest, Sperr, SperrConfig, SperrError};
use sperr_datagen::{qmcpack_stack, SyntheticField};

/// Deterministic xorshift for fuzz positions.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn bit_flip_fuzzing_never_panics() {
    let field = SyntheticField::S3dCh4.generate([16, 16, 16], 3);
    let t = field.tolerance_for_idx(12);
    let sperr = Sperr::new(SperrConfig::default());
    let sz = sperr_sz_like::SzLike::default();
    let zfp = sperr_zfp_like::ZfpLike::default();
    let mgard = sperr_mgard_like::MgardLike;
    let tthresh = sperr_tthresh_like::TthreshLike;

    let cases: Vec<(&dyn LossyCompressor, Bound)> = vec![
        (&sperr, Bound::Pwe(t)),
        (&sz, Bound::Pwe(t)),
        (&zfp, Bound::Pwe(t)),
        (&mgard, Bound::Pwe(t)),
        (&tthresh, Bound::Psnr(60.0)),
    ];
    let mut rng = Rng(0x5eed_cafe);
    for (comp, bound) in cases {
        let stream = comp.compress(&field, bound).unwrap();
        for _ in 0..40 {
            let mut bad = stream.clone();
            let pos = (rng.next() as usize) % bad.len();
            let bit = (rng.next() % 8) as u8;
            bad[pos] ^= 1 << bit;
            // Any Result is acceptable; a panic is a bug.
            let _ = comp.decompress(&bad);
        }
        // Truncations at random points, too.
        for _ in 0..20 {
            let cut = (rng.next() as usize) % (stream.len() + 1);
            let _ = comp.decompress(&stream[..cut]);
        }
    }
}

#[test]
fn decompress_random_garbage_never_panics() {
    let mut rng = Rng(42);
    let sperr = Sperr::new(SperrConfig::default());
    let sz = sperr_sz_like::SzLike::default();
    let zfp = sperr_zfp_like::ZfpLike::default();
    let mgard = sperr_mgard_like::MgardLike;
    let tthresh = sperr_tthresh_like::TthreshLike;
    let comps: Vec<&dyn LossyCompressor> = vec![&sperr, &sz, &zfp, &mgard, &tthresh];
    for len in [0usize, 1, 7, 64, 1000] {
        let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        for comp in &comps {
            let _ = comp.decompress(&garbage);
        }
    }
}

#[test]
fn qmcpack_stack_chunked_per_orbital() {
    // §VI-B: the stack is best compressed as individual volumes, which
    // SPERR achieves by setting the chunk size to one orbital (69²×115).
    let field = qmcpack_stack(3, 8);
    let t = field.tolerance_for_idx(18);
    let per_orbital = Sperr::new(SperrConfig {
        chunk_dims: [69, 69, 115],
        ..SperrConfig::default()
    });
    let (stream, stats) = per_orbital.compress_with_stats(&field, Bound::Pwe(t)).unwrap();
    assert_eq!(stats.num_chunks, 3, "one chunk per orbital");
    let rec = per_orbital.decompress(&stream).unwrap();
    assert!(sperr_metrics::max_pwe(&field.data, &rec.data) <= t);

    // The "less than ideal" monolithic layout still honours the bound.
    let mono = Sperr::new(SperrConfig {
        chunk_dims: [69, 69, 115 * 3],
        ..SperrConfig::default()
    });
    let (mono_stream, mono_stats) = mono.compress_with_stats(&field, Bound::Pwe(t)).unwrap();
    assert_eq!(mono_stats.num_chunks, 1);
    let mono_rec = mono.decompress(&mono_stream).unwrap();
    assert!(sperr_metrics::max_pwe(&field.data, &mono_rec.data) <= t);
    // Orbital-aligned chunking should not cost more than a few percent —
    // the orbitals are statistically independent, so nothing is lost by
    // cutting there (and parallelism is gained).
    assert!(
        (stream.len() as f64) < mono_stream.len() as f64 * 1.05,
        "per-orbital {} vs monolithic {}",
        stream.len(),
        mono_stream.len()
    );
}

#[test]
fn two_d_slices_through_all_pwe_compressors() {
    // nz == 1 must work everywhere (the paper compresses 2D slices too).
    let field = SyntheticField::Image2d.generate([64, 48, 1], 4);
    let t = field.tolerance_for_idx(10);
    let sperr = Sperr::new(SperrConfig::default());
    let sz = sperr_sz_like::SzLike::default();
    let zfp = sperr_zfp_like::ZfpLike::default();
    let mgard = sperr_mgard_like::MgardLike;
    for comp in [&sperr as &dyn LossyCompressor, &sz, &zfp, &mgard] {
        let stream = comp.compress(&field, Bound::Pwe(t)).unwrap();
        let rec = comp.decompress(&stream).unwrap();
        let e = sperr_metrics::max_pwe(&field.data, &rec.data);
        let bound = if comp.name() == "MGARD-like" {
            sperr_mgard_like::MgardLike::hard_error_bound(field.dims, t)
        } else {
            t
        };
        assert!(e <= bound, "{}: {e} > {bound}", comp.name());
    }
}

#[test]
fn extreme_values_handled() {
    // Huge magnitudes, tiny magnitudes, mixed signs.
    let mut data = vec![0.0f64; 512];
    for (i, v) in data.iter_mut().enumerate() {
        *v = match i % 4 {
            0 => 1e30,
            1 => -1e30,
            2 => 1e-30,
            _ => 0.0,
        };
    }
    let field = Field::new([8, 8, 8], data);
    let t = field.range() / 1e6;
    let sperr = Sperr::new(SperrConfig::default());
    let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
    let rec = sperr.decompress(&stream).unwrap();
    assert!(sperr_metrics::max_pwe(&field.data, &rec.data) <= t);
}

// ---------------------------------------------------------------------------
// Structured mutation campaign: deterministic corruption of specific stream
// regions (header fields, chunk table, payloads, truncations, bit flips)
// across every compressor. No input may panic; for SPERR v2 streams the
// checksums must additionally catch every single-byte mutation.
// ---------------------------------------------------------------------------

/// All five compressors paired with a bound each supports, plus a stream
/// compressed from the same small field.
fn mutation_corpus() -> Vec<(Box<dyn LossyCompressor>, Vec<u8>)> {
    let field = SyntheticField::S3dCh4.generate([16, 16, 16], 3);
    let t = field.tolerance_for_idx(12);
    let comps: Vec<(Box<dyn LossyCompressor>, Bound)> = vec![
        (Box::new(Sperr::new(SperrConfig::default())), Bound::Pwe(t)),
        (Box::new(sperr_sz_like::SzLike::default()), Bound::Pwe(t)),
        (Box::new(sperr_zfp_like::ZfpLike::default()), Bound::Pwe(t)),
        (Box::new(sperr_mgard_like::MgardLike), Bound::Pwe(t)),
        (Box::new(sperr_tthresh_like::TthreshLike), Bound::Psnr(60.0)),
    ];
    comps
        .into_iter()
        .map(|(c, b)| {
            let stream = c.compress(&field, b).unwrap();
            (c, stream)
        })
        .collect()
}

#[test]
fn mutation_campaign_header_fields() {
    // Class 1: header-field mutations. The first bytes of every format hold
    // magic/version/precision/dims; rewrite each with adversarial patterns.
    for (comp, stream) in mutation_corpus() {
        let header_len = stream.len().min(64);
        for pos in 0..header_len {
            for pattern in [0x00u8, 0xFF, stream[pos] ^ 0x01, stream[pos] ^ 0x80] {
                let mut bad = stream.clone();
                bad[pos] = pattern;
                let _ = comp.decompress(&bad); // must not panic
            }
        }
    }
}

#[test]
fn mutation_campaign_chunk_table_and_payload() {
    // Classes 2+3: for the SPERR container the chunk table and payload
    // regions are locatable via inspect(); damage each region separately.
    // With v2+ checksums, EVERY single-byte corruption must be caught:
    // the header CRC covers flag..table (including the v3 chunk index),
    // per-chunk CRCs cover the payloads.
    let field = SyntheticField::S3dCh4.generate([16, 16, 16], 3);
    let t = field.tolerance_for_idx(12);
    let sperr = Sperr::new(SperrConfig {
        lossless: false, // raw container: regions sit at known offsets
        ..SperrConfig::default()
    });
    let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
    let info = sperr.inspect(&stream).unwrap();
    assert_eq!(info.version, sperr_core::CONTAINER_VERSION);
    let payload_start = 1 + info.payload_offset; // +1 outer flag byte
    assert!(payload_start < stream.len());
    for pos in 0..stream.len() {
        let mut bad = stream.clone();
        bad[pos] ^= 0xFF;
        let region = if pos < payload_start { "header/table" } else { "payload" };
        assert!(
            sperr.decompress(&bad).is_err(),
            "byte {pos} ({region}) corruption went undetected"
        );
    }
}

#[test]
fn mutation_campaign_truncation_every_boundary() {
    // Class 4: truncation at every byte boundary. No compressor may panic;
    // SPERR must report a typed error for every proper prefix.
    for (comp, stream) in mutation_corpus() {
        for cut in 0..stream.len() {
            let _ = comp.decompress(&stream[..cut]);
        }
    }
    let field = SyntheticField::S3dCh4.generate([12, 12, 12], 5);
    let sperr = Sperr::new(SperrConfig { lossless: false, ..SperrConfig::default() });
    let stream = sperr
        .compress(&field, Bound::Pwe(field.tolerance_for_idx(10)))
        .unwrap();
    for cut in 0..stream.len() {
        assert!(
            sperr.decompress(&stream[..cut]).is_err(),
            "prefix of {cut} bytes decoded without error"
        );
    }
}

#[test]
fn mutation_campaign_dense_bit_flips() {
    // Class 5: every bit of the header region, single-bit flips. Denser than
    // the random fuzzing above and fully deterministic.
    for (comp, stream) in mutation_corpus() {
        let span = stream.len().min(48);
        for pos in 0..span {
            for bit in 0..8 {
                let mut bad = stream.clone();
                bad[pos] ^= 1 << bit;
                let _ = comp.decompress(&bad);
            }
        }
    }
}

#[test]
fn verify_detects_corruption_without_decoding() {
    let field = SyntheticField::S3dCh4.generate([32, 16, 16], 9);
    let t = field.tolerance_for_idx(14);
    let sperr = Sperr::new(SperrConfig {
        chunk_dims: [16, 16, 16],
        lossless: false,
        ..SperrConfig::default()
    });
    let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
    let info = sperr.inspect(&stream).unwrap();
    assert_eq!(info.n_chunks, 2);

    let clean = sperr.verify(&stream).unwrap();
    assert!(clean.checksummed && clean.is_ok(), "clean stream: {clean:?}");

    // Corrupt one byte inside chunk 1's payload.
    let mut bad = stream.clone();
    let target = 1 + info.payload_offset + info.chunk_payload_sizes[0] + 3;
    bad[target] ^= 0x40;
    let report = sperr.verify(&bad).unwrap();
    assert_eq!(report.corrupt_chunks, vec![1]);
    assert!(!report.is_ok());
}

#[test]
fn resilient_decode_recovers_undamaged_chunks() {
    // The acceptance scenario: a multi-chunk archive with one damaged chunk
    // must still yield every other chunk bit-identical, with the report
    // flagging exactly the damaged one.
    let field = SyntheticField::NyxDarkMatterDensity.generate([48, 16, 16], 2);
    let t = field.tolerance_for_idx(16);
    let sperr = Sperr::new(SperrConfig {
        chunk_dims: [16, 16, 16],
        lossless: false,
        ..SperrConfig::default()
    });
    let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
    let info = sperr.inspect(&stream).unwrap();
    assert_eq!(info.n_chunks, 3);
    let clean = sperr.decompress(&stream).unwrap();

    // Damage the middle chunk's payload.
    let mut bad = stream.clone();
    let target = 1 + info.payload_offset + info.chunk_payload_sizes[0] + 1;
    bad[target] ^= 0xFF;
    assert!(sperr.decompress(&bad).is_err(), "strict decode must reject");

    let ReadOutput { field: rec, report, .. } =
        sperr.read::<f64>(&bad, ReadRequest::Full, OnDamage::ZeroFill).unwrap();
    assert_eq!(report.statuses.len(), 3);
    assert_eq!(report.failed_chunks(), vec![1]);
    assert_eq!(report.statuses[0], sperr_core::ChunkStatus::Ok);
    assert_eq!(report.statuses[2], sperr_core::ChunkStatus::Ok);

    // Chunks 0 (x in 0..16) and 2 (x in 32..48) are bit-identical to the
    // clean decode; chunk 1 is neutral-filled.
    let [nx, ny, nz] = field.dims;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = x + nx * (y + ny * z);
                if x / 16 == 1 {
                    assert_eq!(rec.data[i], 0.0, "damaged chunk must be neutral");
                } else {
                    assert_eq!(rec.data[i].to_bits(), clean.data[i].to_bits());
                }
            }
        }
    }

    // On an undamaged stream the resilient path is equivalent to strict.
    let ReadOutput { field: rec2, report: report2, .. } =
        sperr.read::<f64>(&stream, ReadRequest::Full, OnDamage::ZeroFill).unwrap();
    assert!(report2.all_ok());
    assert_eq!(rec2.data, clean.data);
}

#[test]
fn nan_free_output_for_finite_input() {
    let field = SyntheticField::NyxDarkMatterDensity.generate([12, 12, 12], 6);
    let sperr = Sperr::new(SperrConfig::default());
    for bound in [
        Bound::Pwe(field.tolerance_for_idx(15)),
        Bound::Bpp(1.0),
        Bound::Psnr(60.0),
    ] {
        let stream = sperr.compress(&field, bound).unwrap();
        let rec = sperr.decompress(&stream).unwrap();
        assert!(rec.data.iter().all(|v| v.is_finite()), "{bound:?}");
    }
}

/// A smooth field with `bad` written at the given linear indices.
fn poisoned(dims: [usize; 3], bad: f64, at: &[usize]) -> Field {
    let mut field = Field::from_fn(dims, |x, y, z| {
        (x as f64 * 0.3).sin() + (y as f64 * 0.2).cos() * 2.0 + z as f64 * 0.1
    });
    for &i in at {
        field.data[i] = bad;
    }
    field
}

/// The one refusal every compress surface must give for a non-finite
/// sample: invalid input, naming the lowest bad linear index.
fn is_refusal(e: &CompressError, index: usize) -> bool {
    matches!(e, CompressError::Invalid(msg) if msg.contains(&format!("linear index {index} ")))
}

#[test]
fn non_finite_samples_are_refused_by_index_never_hang_or_panic() {
    // Each used to hang (+inf under a PWE bound: the bitplane loop never
    // ends), panic (+inf under BPP or PSNR: a non-finite quantization step)
    // or exit 0 with the NaN decoded as 0. Every bound, both widths, in
    // memory and streaming, one chunk and several.
    let dims = [16usize, 16, 16];
    let started = std::time::Instant::now();
    for chunk_dims in [[16usize, 16, 16], [8, 8, 8]] {
        let config = SperrConfig { chunk_dims, num_threads: 2, ..SperrConfig::default() };
        let sperr = Sperr::new(config);
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            // One bad sample, and two in chunks processed out of linear order.
            for at in [vec![1234usize], vec![4000, 9, 2000]] {
                let first = *at.iter().min().unwrap();
                let field = poisoned(dims, bad, &at);
                let narrow = FieldOf::new(dims, field.data.iter().map(|&v| v as f32).collect());
                for bound in [Bound::Pwe(1e-3), Bound::Bpp(4.0), Bound::Psnr(60.0)] {
                    let case = format!("{bad} at {at:?}, chunks {chunk_dims:?}, {bound:?}");
                    let e = sperr.compress(&field, bound).unwrap_err();
                    assert!(is_refusal(&e, first), "{case}: {e}");
                    let e = sperr.compress_f32(&narrow, bound).unwrap_err();
                    assert!(is_refusal(&e, first), "{case} f32: {e}");
                    if let Bound::Psnr(_) = bound {
                        continue; // streaming takes PWE and BPP bounds only
                    }
                    let bytes: Vec<u8> = field.data.iter().flat_map(|v| v.to_le_bytes()).collect();
                    let mut out = Vec::new();
                    let (raw, width) = (&bytes[..], Precision::Double);
                    let e = sperr.compress_stream(raw, &mut out, dims, width, bound).unwrap_err();
                    let SperrError::Codec { source, .. } = &e else { panic!("{case}: {e:?}") };
                    // Streaming names the same sample as in memory.
                    assert!(is_refusal(source, first), "{case} streamed: {e:?}");
                    assert!(out.is_empty(), "{case}: streamed output for a refused input");
                    let bytes: Vec<u8> = narrow.data.iter().flat_map(|v| v.to_le_bytes()).collect();
                    let e = sperr.compress_stream_f32(&bytes[..], &mut Vec::new(), dims, bound);
                    let Err(SperrError::Codec { source, .. }) = &e else { panic!("{case}: {e:?}") };
                    assert!(is_refusal(source, first), "{case} f32 streamed: {e:?}");
                }
            }
        }
    }
    // Refusing is a scan, not a search: the whole matrix takes well under
    // the time one hung compress used to run before being killed.
    assert!(started.elapsed() < std::time::Duration::from_secs(60));
}

/// Runs `probe` on a thread of its own and waits at most `secs` for its
/// result, so a hang fails the test instead of stalling it (and a panic
/// fails it too: the sender is dropped unsent).
fn within<R, F>(secs: u64, what: &str, probe: F) -> R
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(probe());
    });
    let limit = std::time::Duration::from_secs(secs);
    rx.recv_timeout(limit).unwrap_or_else(|e| panic!("{what}: no result within {secs} s ({e:?})"))
}

#[test]
fn finite_samples_whose_transform_overflows_are_refused_in_bounded_time() {
    // One finite sample at ±MAX of its width overflows the lifting steps.
    // Each bound used to hang (PWE, and the range-derived PWE of `--idx`),
    // panic on a non-finite quantization step (BPP) or encode a stream that
    // decodes to non-finite samples (PSNR); now every one is a typed
    // refusal naming the chunk, in memory and streaming (which takes
    // absolute PWE and BPP bounds only), at both widths, and nothing is
    // written. At MAX/4 the transform stays finite: an f64 PWE bound of
    // 1e-3 then cannot be met (the correction / t ratio overflows, which
    // used to hang the outlier coder) and is refused; the rest encode.
    let dims = [16usize; 3];
    for threads in [1usize, 2] {
        let sperr = Sperr::new(SperrConfig { num_threads: threads, ..SperrConfig::default() });
        for scale in [1.0, -1.0, 0.25] {
            let mut wide = Field::new(dims, (0..4096).map(|i| (i as f64 * 0.1).sin()).collect());
            wide.data[1234] = scale * f64::MAX;
            let mut narrow = wide.narrow_lossy();
            narrow.data[1234] = scale as f32 * f32::MAX;
            let overflows = scale != 0.25;
            let wide_raw: Vec<u8> = wide.data.iter().flat_map(|v| v.to_le_bytes()).collect();
            let narrow_raw: Vec<u8> = narrow.data.iter().flat_map(|v| v.to_le_bytes()).collect();
            // (bound, whether streaming takes it)
            let bounds = [
                (Bound::Pwe(1e-3), true),
                (Bound::Pwe(wide.tolerance_for_idx(20)), false),
                (Bound::Bpp(4.0), true),
                (Bound::Psnr(60.0), false),
            ];
            for (i, (bound, streams)) in bounds.into_iter().enumerate() {
                let case = format!("t{threads} {scale}·MAX {bound:?}");
                // Ok, or the error text with the bytes written before it.
                type Outcome = Result<(), (String, usize)>;
                let check = |what: &str, got: Outcome, must_refuse: bool| match got {
                    Err((msg, written)) => {
                        let typed = msg.contains("invalid input") && msg.contains("chunk 0");
                        assert!(typed && written == 0, "{case} {what}: {msg} ({written} B out)");
                    }
                    Ok(()) => assert!(!must_refuse, "{case} {what}: accepted"),
                };
                let in_memory = |e: CompressError| (e.to_string(), 0);
                let (s, f) = (sperr.clone(), wide.clone());
                let got = within(20, &case, move || s.compress(&f, bound).map(drop));
                let got = got.map_err(in_memory);
                check("f64", got, overflows || i == 0);
                let (s, f) = (sperr.clone(), narrow.clone());
                let got = within(20, &case, move || s.compress_f32(&f, bound).map(drop));
                let got = got.map_err(in_memory);
                check("f32", got, overflows);
                if !streams {
                    continue;
                }
                let (s, raw) = (sperr.clone(), wide_raw.clone());
                let got = within(20, &case, move || {
                    let mut out = Vec::new();
                    let got = s.compress_stream(&raw[..], &mut out, dims, Precision::Double, bound);
                    got.map(drop).map_err(|e| (e.to_string(), out.len()))
                });
                check("f64 streamed", got, overflows || i == 0);
                let (s, raw) = (sperr.clone(), narrow_raw.clone());
                let got = within(20, &case, move || {
                    let mut out = Vec::new();
                    let got = s.compress_stream_f32(&raw[..], &mut out, dims, bound);
                    got.map(drop).map_err(|e| (e.to_string(), out.len()))
                });
                check("f32 streamed", got, overflows);
            }
        }
    }
}

#[test]
fn tiny_finite_samples_get_a_usable_step_or_a_typed_refusal() {
    // Two inputs used to reach the quantization-step assertion in
    // `sperr_speck::encode` (a panic: exit 101 in memory, 8 streaming):
    // subnormal samples at a BPP target, whose largest coefficient times
    // 2^-48 underflows to zero, and a PWE tolerance of the smallest
    // subnormal at q-factor 0.4, whose product rounds to zero. The BPP
    // step now has a floor (the width's smallest normal number), so the
    // stream decodes to finite samples no farther from the input than its
    // range; the PWE bound is a typed refusal naming the chunk, with
    // nothing written, as is one whose step is positive but below the
    // width's smallest normal. Both drivers, 1 and 2 threads, both widths
    // (f32 has no subnormal as small as 5e-324, so its BPP probe uses its
    // own).
    let dims = [16usize; 3];
    let wave = |x: usize, y: usize, z: usize| {
        (0.3 * x as f64 + 0.2 * y as f64 + 0.1 * z as f64).sin()
    };
    let sub = Field::new(dims, (0..4096).map(|i| (i % 7) as f64 * 5e-324).collect());
    let sub32 = FieldOf::<f32>::new(dims, (0..4096).map(|i| f32::from_bits(i % 7)).collect());
    let tiny = Field::from_fn(dims, |x, y, z| wave(x, y, z) * 1e-310);
    let tiny32 = FieldOf::<f32>::from_fn(dims, |x, y, z| wave(x, y, z) * 1e-40);
    fn raw<T: Float>(field: &FieldOf<T>) -> Vec<u8> {
        let mut out = vec![0; field.len() * T::BYTES];
        let samples = field.data.iter().zip(out.chunks_exact_mut(T::BYTES));
        samples.for_each(|(v, bytes)| v.write_le(bytes));
        out
    }
    fn stream<T: Float>(
        s: &Sperr,
        field: &FieldOf<T>,
        bound: Bound,
    ) -> Result<Vec<u8>, (SperrError, usize)> {
        let mut out = Vec::new();
        let got = if T::BYTES == 4 {
            s.compress_stream_f32(&raw(field)[..], &mut out, field.dims, bound)
        } else {
            s.compress_stream(&raw(field)[..], &mut out, field.dims, Precision::Double, bound)
        };
        match got {
            Ok(_) => Ok(out),
            Err(e) => Err((e, out.len())),
        }
    }
    fn decoded_within_range<T: Float>(s: &Sperr, field: &FieldOf<T>, bytes: &[u8]) {
        let decoded = s.read::<T>(bytes, ReadRequest::Full, OnDamage::Fail).unwrap().field;
        let range = field.range();
        for (a, b) in field.data.iter().zip(&decoded.data) {
            assert!(b.is_finite(), "decoded a non-finite sample");
            let (a, b) = (a.to_f64(), b.to_f64());
            assert!((a - b).abs() <= range, "{a:e} decoded as {b:e}");
        }
    }
    for threads in [1usize, 2] {
        let sperr = Sperr::new(SperrConfig { num_threads: threads, ..SperrConfig::default() });
        let in_memory = sperr.compress(&sub, Bound::Bpp(4.0)).unwrap();
        assert_eq!(stream(&sperr, &sub, Bound::Bpp(4.0)).unwrap(), in_memory, "t{threads} f64");
        decoded_within_range(&sperr, &sub, &in_memory);
        let in_memory = sperr.compress_with_stats(&sub32, Bound::Bpp(4.0)).unwrap().0;
        assert_eq!(stream(&sperr, &sub32, Bound::Bpp(4.0)).unwrap(), in_memory, "t{threads} f32");
        decoded_within_range(&sperr, &sub32, &in_memory);

        let config = SperrConfig { num_threads: threads, q_factor: 0.4, ..SperrConfig::default() };
        let zero_step = Sperr::new(config);
        let refused = |e: &CompressError| {
            matches!(e, CompressError::Invalid(m) if m.contains("chunk 0") && m.contains("step"))
        };
        // 0.4 · 5e-324 rounds to zero at both widths. 1.5 · 1e-39 is positive
        // but below f32's smallest normal number, so SPECK's 1/q overflows:
        // f32 streams used to come back Ok at 10⁴ times the tolerance.
        let probes = [(&zero_step, Bound::Pwe(5e-324), true), (&sperr, Bound::Pwe(1e-39), false)];
        for (s, bound, wide) in probes {
            let case = format!("t{threads} {bound:?}");
            let mut streamed = vec![("f32", stream(s, &tiny32, bound))];
            let e = s.compress_with_stats(&tiny32, bound).unwrap_err();
            assert!(refused(&e), "{case} f32: {e}");
            if wide {
                let e = s.compress(&tiny, bound).unwrap_err();
                assert!(refused(&e), "{case} f64: {e}");
                streamed.push(("f64", stream(s, &tiny, bound)));
            }
            for (width, got) in streamed {
                let Err((SperrError::Codec { source, .. }, 0)) = &got else {
                    panic!("{case} {width} streamed: {got:?}")
                };
                assert!(refused(source), "{case} {width} streamed: {source}");
            }
        }
    }
}
