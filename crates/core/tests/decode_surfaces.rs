//! Every decode surface, one table.
//!
//! All reads run one plan executor (`src/decode.rs`), so all of them must
//! agree bit for bit on every kind of stream the crate can read:
//! {v1, v2, v3 containers} × {raw, lossless framing} × {f64, f32-native
//! payloads} × {PWE, BPP termination} × {1, 3 threads}; on each, every
//! `ReadRequest` kind under both `OnDamage` policies at both widths. A
//! second test damages two chunks of one stream and pins what each surface
//! makes of it; a third pins the coarse levels of an f32-native stream and
//! the typed rejection of levels no chunk has.

use sperr_compress_api::{Bound, CompressError, Field, FieldOf, LossyCompressor, Precision};
use sperr_core::{
    crc32, ChunkStatus, Float, OnDamage, ReadRequest, Sperr, SperrConfig, SperrError,
    STAGE_CONTAINER,
};

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

/// The sub-box every row reads, and the chunks it touches.
const SUB: ([usize; 3], [usize; 3]) = ([7, 3, 2], [25, 20, 13]);
const SUB_CHUNKS: [usize; 4] = [0, 1, 3, 4];

/// What every read of one stream must return, from `decompress` and
/// `transcode_to_bpp` alone.
struct Expected {
    version: u8,
    /// Bits of the full decode.
    full: Vec<u64>,
    precision: Precision,
    /// Bits of the full decode's [`SUB`] slice.
    sub: Vec<u64>,
    /// Bits of the full decode of the stream transcoded to each rate.
    transcoded: Vec<(f64, Vec<u64>)>,
    /// Whether the stream is size-bounded (so an unlimited preview, which
    /// skips corrections, is the full decode).
    bpp: bool,
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
    let info = s.inspect(stream).unwrap();
    let framing = (info.version, info.n_chunks, info.native_f32);
    assert_eq!(framing, (version, N_CHUNKS, narrow), "{row}");
    let verified = s.verify(stream).unwrap();
    assert_eq!((verified.checksummed, verified.is_ok()), (version >= 2, true), "{row}");

    let transcoded = [0.25, 1.0, 4.0].map(|bpp| {
        let transcoded = s.transcode_to_bpp(stream, bpp).unwrap();
        assert_eq!(s.inspect(&transcoded).unwrap().native_f32, narrow, "{row}");
        (bpp, bits(&s.decompress(&transcoded).unwrap().data))
    });
    let expected = Expected {
        version,
        full: bits(&reference.data),
        precision: reference.precision,
        sub: bits(&slice(&reference.data, SUB.0, SUB.1)),
        transcoded: transcoded.to_vec(),
        bpp: matches!(bound, Bound::Bpp(_)),
    };

    // The benchmark's shims are the reads they name.
    let (region, report) = s.decode_region(stream, [0; 3], DIMS).unwrap();
    assert_eq!(bits(&region.data), expected.full, "{row}: decode_region over the full box");
    assert_eq!(report.chunk_ids, (0..N_CHUNKS).collect::<Vec<_>>(), "{row}");
    let preview = s.decode_at_bpp(stream, 1.0).unwrap();
    assert_eq!(bits(&preview.data), expected.transcoded[1].1, "{row}: decode_at_bpp");

    let mut coarse: Option<Vec<u64>> = None;
    for on_damage in [OnDamage::Fail, OnDamage::ZeroFill] {
        let row = format!("{row} {on_damage:?}");
        let level1 = check_reads::<f64>(stream, s, on_damage, &expected, &row);
        assert!(level1.is_some() && coarse.as_ref().is_none_or(|c| Some(c) == level1.as_ref()));
        coarse = level1;
        if narrow {
            assert_eq!(check_reads::<f32>(stream, s, on_damage, &expected, &row), None);
        } else {
            // Narrowing is lossy, so no read of an f64 stream is f32.
            for what in requests() {
                let read = s.read::<f32>(stream, what, on_damage);
                assert!(matches!(read, Err(CompressError::Invalid(_))), "{row}: {what:?}");
            }
        }
    }

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
        assert_eq!(bits(&widened), expected.full, "{row}: decompress_f32");
        let mut streamed = Vec::new();
        s.decompress_stream(stream, &mut streamed, Some(Precision::Double)).unwrap();
        let as_f64: Vec<u8> = widened.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(streamed, as_f64, "{row}: decompress_stream to f64");
    } else {
        assert!(matches!(s.decompress_f32(stream), Err(CompressError::Invalid(_))), "{row}");
    }
    (expected.full, coarse.unwrap())
}

/// One request of every kind (and the typed-error ones).
fn requests() -> [ReadRequest<'static>; 10] {
    const UNLIMITED: &[usize] = &[usize::MAX; N_CHUNKS];
    const TOO_FEW: &[usize] = &[usize::MAX; N_CHUNKS - 1];
    [
        ReadRequest::Full,
        ReadRequest::Region { lo: [0; 3], hi: DIMS },
        ReadRequest::Region { lo: SUB.0, hi: SUB.1 },
        ReadRequest::Level(0),
        ReadRequest::Level(1),
        ReadRequest::Budgets(UNLIMITED),
        ReadRequest::Budgets(TOO_FEW),
        ReadRequest::Bpp(0.25),
        ReadRequest::Bpp(1.0),
        ReadRequest::Bpp(4.0),
    ]
}

/// Checks every request kind at width `T` under `on_damage` against the
/// full decode's bits, slices and cuts (widened: f32-native samples widen
/// exactly). Returns the bits of the level-1 read, which only `f64` has.
fn check_reads<T: Float>(
    stream: &[u8],
    s: &Sperr,
    on_damage: OnDamage,
    expected: &Expected,
    row: &str,
) -> Option<Vec<u64>> {
    let all_chunks: Vec<usize> = (0..N_CHUNKS).collect();
    let width = if T::BYTES == 4 { "f32" } else { "f64" };
    let row = format!("{row} {width}");
    let widened = |field: &FieldOf<T>| -> Vec<u64> {
        field.data.iter().map(|v| v.to_f64().to_bits()).collect()
    };
    let mut coarse = None;
    for what in requests() {
        let row = format!("{row} {what:?}");
        let read = s.read::<T>(stream, what, on_damage);
        let out = match (what, T::BYTES) {
            (ReadRequest::Budgets(budgets), _) if budgets.len() != N_CHUNKS => {
                assert!(matches!(read, Err(CompressError::Invalid(_))), "{row}");
                continue;
            }
            (ReadRequest::Level(1), 4) => {
                // Coarse levels are reconstructed at f64.
                assert!(matches!(read, Err(CompressError::Invalid(_))), "{row}");
                continue;
            }
            _ => read.unwrap(),
        };
        let got = widened(&out.field);
        assert_eq!(out.field.precision, expected.precision, "{row}");
        assert!(out.report.all_ok() && out.report.failed_chunks().is_empty(), "{row}");
        assert_eq!(out.report.statuses.len(), out.report.chunk_ids.len(), "{row}");
        assert_eq!(out.report.used_index, expected.version == 3, "{row}: index seek vs. scan");
        assert_eq!((out.stats.num_points, out.stats.output_bytes), (got.len(), stream.len()));
        match what {
            ReadRequest::Full | ReadRequest::Level(0) => {
                assert_eq!(got, expected.full, "{row}");
                assert_eq!(out.report.chunk_ids, all_chunks, "{row}");
                assert_eq!(out.stats.num_chunks, N_CHUNKS, "{row}");
            }
            ReadRequest::Region { lo: [0, 0, 0], hi: DIMS } => {
                assert_eq!(got, expected.full, "{row}: region over the full box");
                assert_eq!(out.report.chunk_ids, all_chunks, "{row}");
            }
            ReadRequest::Region { .. } => {
                // A sub-box: the same slice of the full decode, from fewer
                // chunks.
                assert_eq!(out.field.dims, [18, 17, 11], "{row}");
                assert_eq!(got, expected.sub, "{row}: sub-box");
                assert_eq!(out.report.chunk_ids, SUB_CHUNKS, "{row}: only the chunks it touches");
            }
            ReadRequest::Level(_) => {
                assert_eq!(out.field.dims, [20, 12, 12], "{row}");
                coarse = Some(got);
            }
            // An unlimited budget is the outlier-free decode, all there is
            // to a BPP stream.
            ReadRequest::Budgets(_) => {
                if expected.bpp {
                    assert_eq!(got, expected.full, "{row}: unlimited budgets");
                }
            }
            // A rate is what transcoding to it decodes to.
            ReadRequest::Bpp(bpp) => {
                let (_, want) = expected.transcoded.iter().find(|(r, _)| *r == bpp).unwrap();
                assert_eq!(&got, want, "{row}: preview vs. transcode_to_bpp");
            }
        }
    }
    coarse
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
    let read = |stream: &[u8], what, on_damage| s.read::<f64>(stream, what, on_damage);
    let full_box = ReadRequest::Region { lo: [0; 3], hi: DIMS };

    // Strict reads: the lower damaged chunk, whatever the surface.
    assert_eq!(s.decompress(&bad).unwrap_err(), chunk3);
    for what in [
        ReadRequest::Full,
        ReadRequest::Level(1),
        ReadRequest::Budgets(&[usize::MAX; N_CHUNKS]),
        ReadRequest::Bpp(1.0),
        full_box,
    ] {
        assert_eq!(read(&bad, what, OnDamage::Fail).unwrap_err(), chunk3, "{what:?}");
    }
    assert_eq!(s.decode_at_bpp(&bad, 1.0).unwrap_err(), chunk3);
    assert_eq!(s.transcode_to_bpp(&bad, 1.0).unwrap_err(), chunk3);
    assert_eq!(s.downgrade_to_v2(&bad).unwrap_err(), chunk3);
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
    let resilient = read(&bad, ReadRequest::Full, OnDamage::ZeroFill).unwrap();
    assert_eq!(resilient.report.statuses, statuses);
    assert_eq!(resilient.report.failed_chunks(), [3, 7]);
    assert!(!resilient.report.all_ok());
    let resilient = resilient.field;
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

    // Coarse levels and previews zero-fill the same two chunks: the clean
    // stream's read with their boxes (halved at level 1) set to zero.
    for (what, shift) in [(ReadRequest::Level(1), 1), (ReadRequest::Bpp(1.0), 0)] {
        let damaged = read(&bad, what, OnDamage::ZeroFill).unwrap();
        assert_eq!(damaged.report.chunk_ids, (0..N_CHUNKS).collect::<Vec<_>>(), "{what:?}");
        assert_eq!(damaged.report.statuses, statuses, "{what:?}");
        assert_eq!(damaged.report.failed_chunks(), [3, 7], "{what:?}");
        let healthy = read(&clean, what, OnDamage::Fail).unwrap().field;
        let dims = healthy.dims;
        assert_eq!(damaged.field.dims, dims, "{what:?}");
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    let i = x + dims[0] * (y + dims[1] * z);
                    let edge = 16 >> shift;
                    let chunk = x / edge + 3 * (y / edge + 2 * (z / edge));
                    let want = if chunk == 3 || chunk == 7 { 0.0 } else { healthy.data[i] };
                    let got = damaged.field.data[i];
                    assert_eq!(got.to_bits(), want.to_bits(), "{what:?} at {x},{y},{z}");
                }
            }
        }
    }

    // A region over healthy chunks never looks at the damage.
    let (lo, hi) = ([0, 0, 0], [40, 16, 16]); // chunks 0, 1, 2
    let healthy = read(&bad, ReadRequest::Region { lo, hi }, OnDamage::Fail).unwrap().field;
    assert_eq!(bits(&healthy.data), bits(&slice(&reference.data, lo, hi)));
    // One that straddles a damaged chunk reports it and keeps the rest.
    let (lo, hi) = ([10, 10, 0], [30, 20, 8]); // chunks 0, 1, 3, 4
    let (straddling, report) = s.decode_region(&bad, lo, hi).unwrap();
    assert_eq!(report.chunk_ids, [0, 1, 3, 4]);
    assert_eq!(report.statuses[2], ChunkStatus::ChecksumMismatch);
    assert_eq!(report.failed_chunks(), [3]);
    let mut want = slice(&resilient.data, lo, hi);
    assert_eq!(bits(&straddling.data), bits(&want));
    want.iter_mut().for_each(|v| *v = 0.0);
    assert_ne!(bits(&straddling.data), bits(&want), "healthy chunks were dropped too");
    let strict = read(&bad, ReadRequest::Region { lo, hi }, OnDamage::Fail);
    assert_eq!(strict.unwrap_err(), chunk3);
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
    let level = |s: &Sperr, stream: &[u8], level| -> Result<Field, CompressError> {
        Ok(s.read(stream, ReadRequest::Level(level), OnDamage::Fail)?.field)
    };
    let pinned = [(1, [24, 16, 8], 0xCFD3_B68Bu32), (2, [12, 8, 4], 0xC8D2_E346)];
    for (l, coarse_dims, checksum) in pinned {
        for threads in [1, 3] {
            let coarse = level(&sperr(true, threads), &stream, l).unwrap();
            assert_eq!(coarse.dims, coarse_dims);
            assert_eq!(coarse.precision, Precision::Single);
            let le: Vec<u8> = coarse.data.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(crc32(&le), checksum, "level {l}, {threads} thread(s)");
        }
        // Narrowing them is refused, however native the payload.
        let narrow = sperr(true, 1).read::<f32>(&stream, ReadRequest::Level(l), OnDamage::Fail);
        assert!(matches!(narrow, Err(CompressError::Invalid(_))), "level {l} at f32");
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
    assert_eq!(level(&s, &stream, 3).unwrap_err(), depth(3, [2, 2, 2]));
    let single = Sperr::default().compress(&field, Bound::Pwe(1e-3)).unwrap();
    for l in [63, 64, 65, 200, usize::MAX] {
        assert_eq!(
            level(&s, &stream, l).unwrap_err(),
            CompressError::Invalid(format!("chunk dims [16, 16, 16] not divisible by 2^{l}"))
        );
        assert_eq!(level(&s, &single, l).unwrap_err(), depth(l, [3, 3, 2]));
    }
}
