//! The traced pass: where the end-to-end time goes, layer by layer.
//!
//! The workload's chunks are replayed, single-threaded, through each
//! layer's public function from here, with a span around every call; the
//! program itself is not instrumented. The replay proves it measures the
//! program's work (same SPECK and outlier bytes as the production stream,
//! same container out of the lossless pass, reconstruction as accurate),
//! and whatever `Sperr::compress` spends beyond the replayed calls —
//! orchestration, container assembly, the outlier scan, copies — is printed
//! as `core.*.self_s`. Nothing measured here feeds an end-to-end metric.

use crate::access::{seconds_of, Access, Api, Cli, Width};
use crate::alloc;
use crate::e2e::{Input, Ops};
use crate::json::Value;
use crate::stats::{mb_per_s, median, value_unit};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{Rng, Run};
use sperr_compress_api::Bound;
use sperr_core::{chunk_grid, crc32, extract_chunk_into, ChunkSpec, Sperr, SperrConfig};
use sperr_outlier::Outlier;
use sperr_speck::Termination;
use sperr_wavelet::{forward_3d, inverse_3d, levels_for_dims};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::time::Instant;

/// Size-bounded mode as `sperr-core` drives SPECK: 48 bitplanes below the
/// largest coefficient are addressable, and each chunk's budget gives up
/// 26 bytes to the container. Not part of any public interface — the
/// replay's byte counts are checked against `Sperr::inspect`, so a change
/// to either constant fails the pass instead of skewing it.
const BPP_PLANES: i32 = 48;
const BPP_CHUNK_HEADER_BITS: usize = 26 * 8;

/// What one chunk's replayed encode leaves for the replayed decode.
struct ChunkCode {
    spec: ChunkSpec,
    speck: Vec<u8>,
    q: f64,
    planes: u8,
    outlier: Vec<u8>,
    max_n: u8,
}

/// Counts the replayed encode adds up over the chunks.
#[derive(Default)]
struct Counts {
    planes: usize,
    significance_bits: usize,
    sign_bits: usize,
    refinement_bits: usize,
    sets_split: usize,
    zero_runs: usize,
    outliers: usize,
}

/// Every chunk through extract, transform, SPECK, locate and outlier
/// coding, then `container` — the bytes the program assembles from those
/// streams — through the lossless pass and a checksum.
fn replay_compress<T: Width>(
    tr: &mut Tracer,
    input: &Input<T>,
    cfg: &SperrConfig,
    container: &[u8],
) -> (Vec<ChunkCode>, Counts, Vec<u8>) {
    let dims = input.field.dims;
    let mut counts = Counts::default();
    let (mut samples, mut coeffs, mut recon) = (Vec::new(), Vec::new(), Vec::new());
    let (codes, packed) = tr.span("replay.compress", input.field.len() * T::BYTES, |tr| {
        let mut codes = Vec::new();
        for (i, spec) in chunk_grid(dims, cfg.chunk_dims).into_iter().enumerate() {
            let bytes = spec.len() * T::BYTES;
            let levels = levels_for_dims(spec.dims);
            let code = tr.span(format!("chunk[{i}]"), bytes, |tr| {
                tr.call("core.chunk.extract", bytes, || {
                    (extract_chunk_into(&input.field.data, dims, &spec, &mut samples), bytes)
                });
                coeffs.clone_from(&samples);
                tr.call("wavelet.forward", bytes, || {
                    (forward_3d(&mut coeffs, spec.dims, levels, cfg.kernel), bytes)
                });
                let (q, termination) = match input.bound {
                    Bound::Bpp(rate) => {
                        let max = coeffs.iter().fold(0.0f64, |m, c| m.max(c.to_f64().abs()));
                        let budget = ((rate * spec.len() as f64) as usize)
                            .saturating_sub(BPP_CHUNK_HEADER_BITS);
                        let q =
                            if max > 0.0 { max * f64::exp2(-f64::from(BPP_PLANES)) } else { 1.0 };
                        (q, Termination::BitBudget(budget))
                    }
                    Bound::Pwe(t) => (cfg.q_factor * t, Termination::Quality),
                    Bound::Psnr(_) => unreachable!("no workload targets a PSNR"),
                };
                let enc = tr.call("speck.encode", bytes, || {
                    let enc = sperr_speck::encode(&coeffs, spec.dims, q, termination);
                    let len = enc.stream.len();
                    (enc, len)
                });
                counts.planes += usize::from(enc.num_planes);
                counts.significance_bits += enc.significance_bits;
                counts.sign_bits += enc.sign_bits;
                counts.refinement_bits += enc.refinement_bits;
                counts.sets_split += enc.sets_split;
                counts.zero_runs += enc.zero_runs;

                let mut code = ChunkCode {
                    spec,
                    speck: enc.stream,
                    q,
                    planes: enc.num_planes,
                    outlier: Vec::new(),
                    max_n: 0,
                };
                if let Bound::Pwe(t) = input.bound {
                    // Locate: what the decoder will see, compared with the input.
                    recon.clear();
                    recon.resize(coeffs.len(), T::ZERO);
                    tr.call("speck.reconstruct", bytes, || {
                        (sperr_speck::reconstruct_quantized_into(&coeffs, q, &mut recon), bytes)
                    });
                    tr.call("wavelet.inverse", bytes, || {
                        (inverse_3d(&mut recon, spec.dims, levels, cfg.kernel), bytes)
                    });
                    let outliers: Vec<Outlier> = samples
                        .iter()
                        .zip(&recon)
                        .enumerate()
                        .filter_map(|(pos, (&x, &r))| {
                            let corr = (x - r).to_f64();
                            (corr.abs() > t).then_some(Outlier { pos, corr })
                        })
                        .collect();
                    counts.outliers += outliers.len();
                    let listed = std::mem::size_of_val(outliers.as_slice());
                    let enc = tr.call("outlier.encode", listed, || {
                        let enc = sperr_outlier::encode(&outliers, spec.len(), t);
                        let len = enc.stream.len();
                        (enc, len)
                    });
                    code.outlier = enc.stream;
                    code.max_n = enc.max_n;
                }
                let coded = code.speck.len() + code.outlier.len();
                (code, coded)
            });
            codes.push(code);
        }
        let packed = tr.call("lossless.compress", container.len(), || {
            let p = sperr_lossless::compress(container);
            let len = p.len();
            (p, len)
        });
        tr.call("core.crc32", container.len(), || (crc32(container), 4));
        let len = packed.len();
        ((codes, packed), len)
    });
    (codes, counts, packed)
}

/// The mirror of [`replay_compress`]: inflate, checksum, then per chunk
/// SPECK decode, inverse transform, outlier corrections.
fn replay_decompress<T: Width>(
    tr: &mut Tracer,
    input: &Input<T>,
    cfg: &SperrConfig,
    packed: &[u8],
    codes: &[ChunkCode],
) -> Vec<T> {
    let dims = input.field.dims;
    tr.span("replay.decompress", packed.len(), |tr| {
        let container = tr.call("lossless.decompress", packed.len(), || {
            let c = sperr_lossless::decompress(packed).expect("the production stream inflates");
            let len = c.len();
            (c, len)
        });
        tr.call("core.crc32", container.len(), || (crc32(&container), 4));
        let mut volume = vec![T::ZERO; input.field.len()];
        for (i, code) in codes.iter().enumerate() {
            let (spec, bytes) = (code.spec, code.spec.len() * T::BYTES);
            tr.span(format!("chunk[{i}]"), code.speck.len() + code.outlier.len(), |tr| {
                let mut chunk: Vec<T> = tr.call("speck.decode", code.speck.len(), || {
                    let c = sperr_speck::decode(&code.speck, spec.dims, code.q, code.planes)
                        .expect("a freshly encoded SPECK stream decodes");
                    (c, bytes)
                });
                tr.call("wavelet.inverse", bytes, || {
                    (
                        inverse_3d(&mut chunk, spec.dims, levels_for_dims(spec.dims), cfg.kernel),
                        bytes,
                    )
                });
                if let Bound::Pwe(t) = input.bound {
                    tr.call("outlier.decode", code.outlier.len(), || {
                        let fixes = sperr_outlier::decode(&code.outlier, spec.len(), t, code.max_n)
                            .expect("a freshly encoded outlier stream decodes");
                        for f in &fixes {
                            chunk[f.pos] = T::from_f64(chunk[f.pos].to_f64() + f.corr);
                        }
                        ((), std::mem::size_of_val(fixes.as_slice()))
                    });
                }
                for (row, samples) in chunk.chunks_exact(spec.dims[0]).enumerate() {
                    let (y, z) = (row % spec.dims[1], row / spec.dims[1]);
                    let at = spec.offset[0]
                        + dims[0] * ((spec.offset[1] + y) + dims[1] * (spec.offset[2] + z));
                    volume[at..at + spec.dims[0]].copy_from_slice(samples);
                }
                ((), bytes)
            });
        }
        let raw = volume.len() * T::BYTES;
        (volume, raw)
    })
}

/// Median seconds of `reps` runs of a timed operation.
fn repeat(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    (0..reps).map(|_| f()).collect::<Result<Vec<f64>, String>>().map(|s| median(&s))
}

/// Allocation calls and peak live MB of one operation.
fn counted<R>(f: impl FnOnce() -> Result<R, String>) -> Result<(f64, f64), String> {
    let (result, calls, peak) = alloc::measure(f);
    result.map(|_| (calls as f64, peak as f64 / 1e6))
}

/// Runs the pass and returns the per-layer metrics, plus the seconds one
/// compress + decompress took here the way the end-to-end pass runs them
/// (the parent turns that into `trace.overhead_share`). Also writes the
/// spans to `trace_path`.
pub fn pass<T: Width>(run: &Run, trace_path: &std::path::Path) -> Result<Value, String> {
    if !alloc::installed() {
        return Err("the traced pass runs in bench-traced, which counts allocations".into());
    }
    let input = Input::<T>::load(run)?;
    let reps = if run.smoke { 1 } else { 3 };
    let raw = run.raw_bytes() as f64;
    let mut ops = Ops::default();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut put =
        |name: &'static str, value: f64, unit: &'static str| metrics.push((name, value, unit));

    // The program as it ships, at every core and at one thread.
    let mut all = Api::new(run, 0, &input.field, input.bound);
    let mut one = Api::new(run, 1, &input.field, input.bound);
    all.compress()?;
    all.decompress()?;
    let compress_all = repeat(reps, || all.compress())?;
    let decompress_all = repeat(reps, || all.decompress())?;
    let compress_one = repeat(reps, || one.compress())?;
    let decompress_one = repeat(reps, || one.decompress())?;
    let stream = all.stream()?.into_owned();
    let (max_err, _) = input.quality(&all.decoded()?);
    put("max_err_rel", max_err / input.range, "1");
    put("core.compress_1t_s", compress_one, "s");
    put("core.decompress_1t_s", decompress_one, "s");
    let threads = sys::nproc();
    put("core.pool.threads", threads as f64, "count");
    if threads < 2 {
        // One thread cannot show what a pool does; 0 stands for "refused".
        eprintln!("note: 1-thread host, core.pool.*_speedup not measured");
    }
    let scaling = |one: f64, all: f64| if threads < 2 { 0.0 } else { one / all };
    put("core.pool.compress_speedup", scaling(compress_one, compress_all), "x");
    put("core.pool.decompress_speedup", scaling(decompress_one, decompress_all), "x");

    // Allocation calls and peak live bytes around one operation each.
    let (lo, hi) = Rng(run.seed).region(run.dims(), run.box_edge());
    let (calls, peak_mb) = counted(|| one.compress())?;
    put("core.compress.allocs", calls, "count");
    put("core.compress.alloc_peak_mb", peak_mb, "MB");
    let (calls, peak_mb) = counted(|| one.decompress())?;
    put("core.decompress.allocs", calls, "count");
    put("core.decompress.alloc_peak_mb", peak_mb, "MB");
    let (calls, peak_mb) = counted(|| one.region(lo, hi))?;
    put("core.region.allocs", calls, "count");
    put("core.region.alloc_peak_mb", peak_mb, "MB");

    // Replay. The container is what the program writes with the lossless
    // pass off, minus the one framing byte in front of it.
    let cfg = run.config(1);
    let info = all.sperr.inspect(&stream).map_err(|e| e.to_string())?;
    let unpacked = Sperr::new(SperrConfig { lossless: false, ..cfg.clone() });
    let container = T::compress(&unpacked, &input.field, input.bound).map_err(|e| e.to_string())?;
    let container = &container[1..];
    let mut tr = Tracer::default();
    let (codes, counts, packed) = replay_compress(&mut tr, &input, &cfg, container);
    let replayed = replay_decompress(&mut tr, &input, &cfg, &packed, &codes);

    ops.gate(stream[1..] == packed[..], || "replayed lossless pass differs from the stream".into());
    let (replay_err, _) = input.quality(&replayed);
    ops.gate(replay_err <= max_err.max(input.allowed_err.unwrap_or(0.0)), || {
        format!("replay reconstructs to {replay_err:e}, the program to {max_err:e}")
    });

    // Layer seconds, by the replay they belong to.
    let compress_side = |name: &str| tr.total("replay.compress", name);
    let decompress_side = |name: &str| tr.total("replay.decompress", name);
    let (encode_s, _, encode_out) = compress_side("speck.encode");
    let (decode_s, ..) = decompress_side("speck.decode");
    let (forward_s, ..) = compress_side("wavelet.forward");
    let (inverse_s, ..) = decompress_side("wavelet.inverse");
    let (locate_inverse_s, ..) = compress_side("wavelet.inverse");
    let (reconstruct_s, ..) = compress_side("speck.reconstruct");
    let (outlier_encode_s, _, outlier_out) = compress_side("outlier.encode");
    let (outlier_decode_s, ..) = decompress_side("outlier.decode");
    let (extract_s, ..) = compress_side("core.chunk.extract");
    let (inflate_s, ..) = decompress_side("lossless.decompress");
    let (deflate_s, ..) = compress_side("lossless.compress");
    let (crc_write_s, ..) = compress_side("core.crc32");
    let (crc_read_s, ..) = decompress_side("core.crc32");
    ops.gate(
        (encode_out, outlier_out) == (info.speck_bytes as u64, info.outlier_bytes as u64),
        || {
            format!(
            "replay coded {encode_out} SPECK + {outlier_out} outlier bytes, the program {} + {}",
            info.speck_bytes, info.outlier_bytes
        )
        },
    );
    put("speck.encode_s", encode_s, "s");
    put("speck.encode_mbps", mb_per_s(raw, encode_s), "MB/s");
    put("speck.bytes_out", encode_out as f64, "bytes");
    put("speck.planes", counts.planes as f64, "count");
    put("speck.significance_bits", counts.significance_bits as f64, "count");
    put("speck.sign_bits", counts.sign_bits as f64, "count");
    put("speck.refinement_bits", counts.refinement_bits as f64, "count");
    put("speck.sets_split", counts.sets_split as f64, "count");
    put("speck.zero_runs", counts.zero_runs as f64, "count");
    put("speck.decode_s", decode_s, "s");
    put("speck.decode_mbps", mb_per_s(raw, decode_s), "MB/s");
    put("speck.reconstruct_s", reconstruct_s, "s");
    put("wavelet.forward_s", forward_s, "s");
    put("wavelet.forward_mbps", mb_per_s(raw, forward_s), "MB/s");
    put("wavelet.inverse_s", inverse_s, "s");
    put("wavelet.inverse_mbps", mb_per_s(raw, inverse_s), "MB/s");
    put("wavelet.inverse_locate_s", locate_inverse_s, "s");
    put("outlier.count", counts.outliers as f64, "count");
    put("outlier.share", counts.outliers as f64 / input.field.len() as f64, "share");
    put("outlier.encode_s", outlier_encode_s, "s");
    put("outlier.decode_s", outlier_decode_s, "s");
    put("outlier.bytes_out", outlier_out as f64, "bytes");
    put("lossless.compress_s", deflate_s, "s");
    put("lossless.compress_mbps", mb_per_s(container.len() as f64, deflate_s), "MB/s");
    put("lossless.decompress_s", inflate_s, "s");
    put("lossless.decompress_mbps", mb_per_s(container.len() as f64, inflate_s), "MB/s");
    put("lossless.bytes_in", container.len() as f64, "bytes");
    put("lossless.bytes_out", packed.len() as f64, "bytes");
    put("lossless.saving_share", 1.0 - packed.len() as f64 / container.len() as f64, "share");
    put("core.chunk.extract_s", extract_s, "s");
    put(
        "core.crc32_mbps",
        mb_per_s(2.0 * container.len() as f64, crc_write_s + crc_read_s),
        "MB/s",
    );
    // What the program spends beyond the replayed calls; may be negative
    // when its pooled, arena-backed calls beat the plain ones used here.
    let replayed_compress_s = extract_s
        + forward_s
        + encode_s
        + reconstruct_s
        + locate_inverse_s
        + outlier_encode_s
        + deflate_s
        + crc_write_s;
    let replayed_decompress_s = inflate_s + crc_read_s + decode_s + inverse_s + outlier_decode_s;
    put("core.compress.self_s", compress_one - replayed_compress_s, "s");
    put("core.decompress.self_s", decompress_one - replayed_decompress_s, "s");

    let (inspect_s, _) = seconds_of(|| all.sperr.inspect(&stream));
    put("core.inspect_ms", inspect_s * 1e3, "ms");
    let (verify_s, verified) = seconds_of(|| all.sperr.verify(&stream));
    ops.gate(verified.is_ok_and(|v| v.is_ok()), || "Sperr::verify rejects the stream".into());
    put("core.verify_s", verify_s, "s");

    // Region reads: how much of what is decoded is asked for.
    let mut rng = Rng(run.seed);
    let (mut region_ms, mut touched, mut decoded_points, mut returned_points) =
        (Vec::new(), 0, 0, 0);
    let grid = chunk_grid(run.dims(), cfg.chunk_dims);
    let reads = if run.smoke { 4 } else { 20 };
    for _ in 0..reads {
        let (lo, hi) = rng.region(run.dims(), run.box_edge());
        let (secs, result) = seconds_of(|| all.sperr.decode_region(&stream, lo, hi));
        let (field, report) = result.map_err(|e| e.to_string())?;
        region_ms.push(secs * 1e3);
        touched += report.chunk_ids.len();
        decoded_points += report.chunk_ids.iter().map(|&c| grid[c].len()).sum::<usize>();
        returned_points += field.len();
    }
    put("core.region.chunks_touched_mean", touched as f64 / reads as f64, "count");
    put("core.region.useful_share", returned_points as f64 / decoded_points as f64, "share");
    put("core.region.inflate_share", inflate_s * 1e3 / median(&region_ms), "share");

    // Streaming in-process over the staged files, then the same through
    // the CLI: the difference is what the process and its start-up cost.
    let (stream_file, decoded_file) = (run.dir.join("stream.sperr"), run.dir.join("stream.raw"));
    let open = |p: &std::path::Path| File::open(p).map(BufReader::new).map_err(|e| e.to_string());
    let create =
        |p: &std::path::Path| File::create(p).map(BufWriter::new).map_err(|e| e.to_string());
    let stream_compress = repeat(reps, || {
        let (reader, mut writer) = (open(&run.input())?, create(&stream_file)?);
        let (secs, report) = seconds_of(|| {
            T::compress_stream(&all.sperr, reader, &mut writer, run.dims(), input.bound)
                .map_err(|e| e.to_string())
                .and_then(|_| writer.flush().map_err(|e| e.to_string()))
        });
        report.map(|_| secs)
    })?;
    let stream_decompress = repeat(reps, || {
        let (reader, mut writer) = (open(&stream_file)?, create(&decoded_file)?);
        let (secs, report) = seconds_of(|| {
            all.sperr
                .decompress_stream(reader, &mut writer, None)
                .map_err(|e| e.to_string())
                .and_then(|_| writer.flush().map_err(|e| e.to_string()))
        });
        report.map(|_| secs)
    })?;
    put("core.stream.compress_s", stream_compress, "s");
    put("core.stream.decompress_s", stream_decompress, "s");
    put("core.stream.vs_memory", stream_compress / compress_all, "x");
    let mut cli = Cli::new(run, 0, input.bound);
    let cpu_before = sys::children_usage().1;
    let wall = Instant::now();
    let cli_compress = repeat(reps, || Access::<T>::compress(&mut cli))?;
    let cli_decompress = repeat(reps, || Access::<T>::decompress(&mut cli))?;
    let wall = wall.elapsed().as_secs_f64();
    put("cli.compress_overhead_s", cli_compress - stream_compress, "s");
    put("cli.decompress_overhead_s", cli_decompress - stream_decompress, "s");
    put("cli.cpu_over_wall", (sys::children_usage().1 - cpu_before) / wall, "x");

    std::fs::write(trace_path, tr.to_json(run.workload.name).pretty())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let roundtrip_s = if run.workload.via_cli {
        cli_compress + cli_decompress
    } else {
        compress_all + decompress_all
    };
    let metrics = metrics.into_iter().map(|(name, value, unit)| (name, value_unit(value, unit)));
    let mut out = vec![("roundtrip_s", Value::Num(roundtrip_s)), ("metrics", Value::obj(metrics))];
    out.extend(ops.to_json());
    Ok(Value::obj(out))
}
