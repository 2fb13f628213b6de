//! Every decode surface, one table.
//!
//! All reads run one plan executor (`src/decode.rs`), so all of them must
//! agree bit for bit on every kind of stream the crate can read:
//! {v1, v2, v3 containers} × {raw, lossless framing} × {f64, f32-native
//! payloads} × {PWE, BPP termination} × {1, 3 threads}. A second test
//! damages two chunks of one stream and pins what each surface makes of
//! it; a third pins the coarse levels of an f32-native stream and the
//! typed rejection of levels no chunk has.

use sperr_compress_api::{Bound, CompressError, Field, FieldOf, LossyCompressor, Precision};
use sperr_core::{crc32, ChunkStatus, Sperr, SperrConfig, SperrError, STAGE_CONTAINER};

/// 3 × 2 × 2 chunks of 16³, with a smaller boundary chunk on every axis
/// (of 8, so that every chunk still has one transform level).
const DIMS: [usize; 3] = [40, 24, 24];
const N_CHUNKS: usize = 12;

fn field() -> Field {
    Field::from_fn(DIMS, |x, y, z| {
        (x as f64 * 0.3).sin() * 20.0
            + (y as f64 * 0.2).cos() * 10.0
            + ((x * z) as f64 * 0.013).sin() * 5.0
            + z as f64 * 0.5
    })
}

fn sperr(lossless: bool, threads: usize) -> Sperr {
    Sperr::new(SperrConfig {
        chunk_dims: [16, 16, 16],
        lossless,
        num_threads: threads,
        ..SperrConfig::default()
    })
}

/// The stream of one table row: compressed as container v3, re-framed
/// down to `version`.
fn stream_of(version: u8, lossless: bool, narrow: bool, bound: Bound) -> Vec<u8> {
    let s = sperr(lossless, 1);
    let v3 = if narrow {
        s.compress_f32(&field().narrow_lossy(), bound).unwrap()
    } else {
        s.compress(&field(), bound).unwrap()
    };
    match version {
        1 => s.downgrade_to_v1(&v3).unwrap(),
        2 => s.downgrade_to_v2(&v3).unwrap(),
        _ => v3,
    }
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// The sub-box `[lo, hi)` of a `DIMS` volume, x fastest.
fn slice(data: &[f64], lo: [usize; 3], hi: [usize; 3]) -> Vec<f64> {
    let mut out = Vec::new();
    for z in lo[2]..hi[2] {
        for y in lo[1]..hi[1] {
            let row = DIMS[0] * (y + DIMS[1] * z);
            out.extend_from_slice(&data[row + lo[0]..row + hi[0]]);
        }
    }
    out
}

/// `field` as the raw little-endian scalars `decompress_stream` writes by
/// default (the stream's recorded precision).
fn raw_bytes(field: &Field) -> Vec<u8> {
    match field.precision {
        Precision::Single => field.data.iter().flat_map(|&v| (v as f32).to_le_bytes()).collect(),
        Precision::Double => field.data.iter().flat_map(|&v| v.to_le_bytes()).collect(),
    }
}

#[test]
fn every_surface_agrees_on_every_kind_of_stream() {
    for narrow in [false, true] {
        for bound in [Bound::Pwe(1e-3), Bound::Bpp(3.0)] {
            // What every row of this (width, mode) must decode to: neither
            // the container version nor the framing touches a payload.
            let mut expected: Option<(Vec<u64>, Vec<u64>)> = None;
            for version in [1u8, 2, 3] {
                for lossless in [false, true] {
                    let stream = stream_of(version, lossless, narrow, bound);
                    for threads in [1, 3] {
                        let row = format!(
                            "v{version} lossless={lossless} narrow={narrow} {bound:?} \
                             threads={threads}"
                        );
                        let s = sperr(lossless, threads);
                        let (full, coarse) = check_row(&stream, &s, version, narrow, bound, &row);
                        let (want_full, want_coarse) =
                            expected.get_or_insert_with(|| (full.clone(), coarse.clone()));
                        assert_eq!(&full, want_full, "{row}: decode depends on the row");
                        assert_eq!(&coarse, want_coarse, "{row}: level 1 depends on the row");
                    }
                }
            }
        }
    }
}

/// Checks every surface of `s` against `decompress` on one stream; returns
/// the bits of the full decode and of the level-1 decode.
fn check_row(
    stream: &[u8],
    s: &Sperr,
    version: u8,
    narrow: bool,
    bound: Bound,
    row: &str,
) -> (Vec<u64>, Vec<u64>) {
    let reference = s.decompress(stream).unwrap();
    assert_eq!(reference.dims, DIMS, "{row}");
    let want = bits(&reference.data);
    let all_chunks: Vec<usize> = (0..N_CHUNKS).collect();

    let info = s.inspect(stream).unwrap();
    let framing = (info.version, info.n_chunks, info.native_f32);
    assert_eq!(framing, (version, N_CHUNKS, narrow), "{row}");
    let verified = s.verify(stream).unwrap();
    assert_eq!((verified.checksummed, verified.is_ok()), (version >= 2, true), "{row}");

    let (with_stats, stats) = s.decompress_with_stats(stream).unwrap();
    assert_eq!(bits(&with_stats.data), want, "{row}: decompress_with_stats");
    assert_eq!((stats.num_chunks, stats.output_bytes), (N_CHUNKS, stream.len()), "{row}");

    let (resilient, report) = s.decompress_resilient(stream).unwrap();
    assert_eq!(bits(&resilient.data), want, "{row}: decompress_resilient");
    assert_eq!(report.statuses, vec![ChunkStatus::Ok; N_CHUNKS], "{row}");

    let (region, report) = s.decode_region(stream, [0; 3], DIMS).unwrap();
    assert_eq!(bits(&region.data), want, "{row}: decode_region over the full box");
    assert_eq!(report.chunk_ids, all_chunks, "{row}");
    assert_eq!(report.statuses, vec![ChunkStatus::Ok; N_CHUNKS], "{row}");
    assert_eq!(report.used_index, version == 3, "{row}: index seek vs. table scan");
    let region = s.decompress_region(stream, [0; 3], DIMS).unwrap();
    assert_eq!(bits(&region.data), want, "{row}: decompress_region over the full box");
    assert_eq!(region.precision, reference.precision, "{row}");

    // A sub-box: the same slice of the full decode, from fewer chunks.
    let (lo, hi) = ([7, 3, 2], [25, 20, 13]);
    let (sub, report) = s.decode_region(stream, lo, hi).unwrap();
    assert_eq!(sub.dims, [18, 17, 11], "{row}");
    assert_eq!(bits(&sub.data), bits(&slice(&reference.data, lo, hi)), "{row}: sub-box");
    assert_eq!(report.chunk_ids, [0, 1, 3, 4], "{row}: only the chunks the box touches");

    let mut streamed = Vec::new();
    s.decompress_stream(stream, &mut streamed, None).unwrap();
    assert_eq!(streamed, raw_bytes(&reference), "{row}: decompress_stream");
    let mut streamed = Vec::new();
    let report = s.decompress_stream_resilient(stream, &mut streamed, None).unwrap();
    assert_eq!(streamed, raw_bytes(&reference), "{row}: decompress_stream_resilient");
    assert_eq!(report.statuses, vec![ChunkStatus::Ok; N_CHUNKS], "{row}");

    if narrow {
        // The f64 surfaces carry exactly the native samples, widened.
        assert_eq!(reference.precision, Precision::Single, "{row}");
        let native: FieldOf<f32> = s.decompress_f32(stream).unwrap();
        let widened: Vec<f64> = native.data.iter().map(|&v| v as f64).collect();
        assert_eq!(bits(&widened), want, "{row}: decompress_f32");
        let mut streamed = Vec::new();
        s.decompress_stream(stream, &mut streamed, Some(Precision::Double)).unwrap();
        let as_f64: Vec<u8> = widened.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(streamed, as_f64, "{row}: decompress_stream to f64");
    } else {
        assert!(matches!(s.decompress_f32(stream), Err(CompressError::Invalid(_))), "{row}");
    }

    // Previews: an unlimited budget is the outlier-free decode (all there
    // is to a BPP stream), and a rate is what transcoding to it decodes to.
    let unlimited = s.decode_at_budgets(stream, &[usize::MAX; N_CHUNKS]).unwrap();
    if let Bound::Bpp(_) = bound {
        assert_eq!(bits(&unlimited.data), want, "{row}: decode_at_budgets(usize::MAX)");
    }
    let too_few = s.decode_at_budgets(stream, &[usize::MAX; N_CHUNKS - 1]);
    assert!(matches!(too_few, Err(CompressError::Invalid(_))), "{row}");
    for bpp in [0.25, 1.0, 4.0] {
        let preview = s.decode_at_bpp(stream, bpp).unwrap();
        let transcoded = s.transcode_to_bpp(stream, bpp).unwrap();
        assert_eq!(s.inspect(&transcoded).unwrap().native_f32, narrow, "{row}");
        assert_eq!(
            bits(&preview.data),
            bits(&s.decompress(&transcoded).unwrap().data),
            "{row}: decode_at_bpp({bpp}) vs. transcode_to_bpp"
        );
    }

    let coarse = s.decompress_multires(stream, 1).unwrap();
    assert_eq!(coarse.dims, [20, 12, 12], "{row}");
    assert_eq!(
        bits(&s.decompress_multires(stream, 0).unwrap().data),
        want,
        "{row}: level 0 is the full decode"
    );
    (want, bits(&coarse.data))
}

#[test]
fn two_damaged_chunks_strict_names_the_lower_resilient_keeps_the_rest() {
    let clean = stream_of(3, false, false, Bound::Pwe(1e-3));
    let s = sperr(false, 3);
    let info = s.inspect(&clean).unwrap();
    let mut bad = clean.clone();
    for chunk in [7, 3] {
        let before: usize = info.chunk_payload_sizes[..chunk].iter().sum();
        bad[1 + info.payload_offset + before + 2] ^= 0xFF;
    }
    let chunk3 = CompressError::Corrupt("chunk 3 payload checksum mismatch".into());

    // Strict reads: the lower damaged chunk, whatever the surface.
    assert_eq!(s.decompress(&bad).unwrap_err(), chunk3);
    assert_eq!(s.decompress_multires(&bad, 1).unwrap_err(), chunk3);
    assert_eq!(s.decode_at_budgets(&bad, &[usize::MAX; N_CHUNKS]).unwrap_err(), chunk3);
    assert_eq!(s.decode_at_bpp(&bad, 1.0).unwrap_err(), chunk3);
    assert_eq!(s.transcode_to_bpp(&bad, 1.0).unwrap_err(), chunk3);
    assert_eq!(s.downgrade_to_v2(&bad).unwrap_err(), chunk3);
    assert_eq!(s.decompress_region(&bad, [0; 3], DIMS).unwrap_err(), chunk3);
    let mut out = Vec::new();
    assert_eq!(
        s.decompress_stream(&bad[..], &mut out, None).unwrap_err(),
        SperrError::Codec { stage: STAGE_CONTAINER, chunk: None, source: chunk3.clone() }
    );
    assert!(out.is_empty(), "strict streaming emitted samples of a stream it rejects");
    assert_eq!(s.verify(&bad).unwrap().corrupt_chunks, [3, 7]);

    // Resilient reads: both reported, zero-filled; the rest bit-identical.
    let reference = s.decompress(&clean).unwrap();
    let mut statuses = vec![ChunkStatus::Ok; N_CHUNKS];
    statuses[3] = ChunkStatus::ChecksumMismatch;
    statuses[7] = ChunkStatus::ChecksumMismatch;
    let (resilient, report) = s.decompress_resilient(&bad).unwrap();
    assert_eq!(report.statuses, statuses);
    assert_eq!(report.failed_chunks(), [3, 7]);
    for z in 0..DIMS[2] {
        for y in 0..DIMS[1] {
            for x in 0..DIMS[0] {
                let i = x + DIMS[0] * (y + DIMS[1] * z);
                let chunk = x / 16 + 3 * (y / 16 + 2 * (z / 16));
                let want = if chunk == 3 || chunk == 7 { 0.0 } else { reference.data[i] };
                assert_eq!(resilient.data[i].to_bits(), want.to_bits(), "at {x},{y},{z}");
            }
        }
    }
    let (region, report) = s.decode_region(&bad, [0; 3], DIMS).unwrap();
    assert_eq!(report.statuses, statuses);
    assert_eq!(bits(&region.data), bits(&resilient.data));
    let mut out = Vec::new();
    let report = s.decompress_stream_resilient(&bad[..], &mut out, None).unwrap();
    assert_eq!(report.statuses, statuses);
    assert_eq!(out, raw_bytes(&resilient));

    // A region over healthy chunks never looks at the damage.
    let (lo, hi) = ([0, 0, 0], [40, 16, 16]); // chunks 0, 1, 2
    let healthy = s.decompress_region(&bad, lo, hi).unwrap();
    assert_eq!(bits(&healthy.data), bits(&slice(&reference.data, lo, hi)));
    // One that straddles a damaged chunk reports it and keeps the rest.
    let (lo, hi) = ([10, 10, 0], [30, 20, 8]); // chunks 0, 1, 3, 4
    let (straddling, report) = s.decode_region(&bad, lo, hi).unwrap();
    assert_eq!(report.chunk_ids, [0, 1, 3, 4]);
    assert_eq!(report.statuses[2], ChunkStatus::ChecksumMismatch);
    let mut want = slice(&resilient.data, lo, hi);
    assert_eq!(bits(&straddling.data), bits(&want));
    want.iter_mut().for_each(|v| *v = 0.0);
    assert_ne!(bits(&straddling.data), bits(&want), "healthy chunks were dropped too");
    assert_eq!(s.decompress_region(&bad, lo, hi).unwrap_err(), chunk3);
}

#[test]
fn coarse_levels_of_an_f32_native_stream_and_levels_no_chunk_has() {
    // 3 × 2 × 1 chunks of 16³: two transform levels each. Coarse levels
    // are reconstructed at f64 whatever the payload's width; the checksums
    // are of the values (little-endian f64) the decoder produced for this
    // stream before the reads shared one plan executor.
    let dims = [48, 32, 16];
    let field = Field::from_fn(dims, |x, y, z| {
        (x as f64 * 0.3).sin() * 20.0 + (y as f64 * 0.2).cos() * 10.0 + z as f64 * 0.5
    });
    let stream = sperr(true, 1).compress_f32(&field.narrow_lossy(), Bound::Pwe(1e-3)).unwrap();
    let pinned = [(1, [24, 16, 8], 0xCFD3_B68Bu32), (2, [12, 8, 4], 0xC8D2_E346)];
    for (level, coarse_dims, checksum) in pinned {
        for threads in [1, 3] {
            let coarse = sperr(true, threads).decompress_multires(&stream, level).unwrap();
            assert_eq!(coarse.dims, coarse_dims);
            assert_eq!(coarse.precision, Precision::Single);
            let le: Vec<u8> = coarse.data.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(crc32(&le), checksum, "level {level}, {threads} thread(s)");
        }
    }

    // Levels no chunk has are one typed error — no shift overflow, the same
    // message in debug and release builds. On a multi-chunk stream the
    // chunk-alignment check speaks first once 2^level no longer divides
    // 16, the depth check before that and on a single-chunk stream.
    let s = sperr(true, 1);
    let depth = |level: usize, levels: [usize; 3]| {
        CompressError::Invalid(format!(
            "resolution level {level} exceeds the chunk's transform depth {levels:?}"
        ))
    };
    assert_eq!(s.decompress_multires(&stream, 3).unwrap_err(), depth(3, [2, 2, 2]));
    let single = Sperr::default().compress(&field, Bound::Pwe(1e-3)).unwrap();
    for level in [63, 64, 65, 200, usize::MAX] {
        assert_eq!(
            s.decompress_multires(&stream, level).unwrap_err(),
            CompressError::Invalid(format!("chunk dims [16, 16, 16] not divisible by 2^{level}"))
        );
        assert_eq!(s.decompress_multires(&single, level).unwrap_err(), depth(level, [3, 3, 2]));
    }
}
