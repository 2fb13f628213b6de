//! The end-to-end pass: a closed loop, one client, no instrumentation.
//! Runs in a process of its own so that `peak_rss_mb` is the program's
//! memory and not datagen's, and checks every result before reporting.

use crate::access::{Access, Api, Cli, Width};
use crate::json::Value;
use crate::workloads::{allowed_error, read_raw, Rng, Run};
use sperr_compress_api::{Bound, FieldOf};
use sperr_core::{crc32, extract_chunk, ChunkSpec};
use std::time::{Duration, Instant};

/// Longest warm-up before the timed loop; a quarter of the run if shorter.
const WARM_UP_SECONDS: f64 = 3.0;

/// Counts every operation and check made, and how many failed.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; a failed one is reported and yields `None`.
    pub fn op<R>(&mut self, result: Result<R, String>) -> Option<R> {
        self.attempted += 1;
        result.map_err(|e| self.fail(&e)).ok()
    }

    /// Counts one correctness gate.
    pub fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.fail(&what());
        }
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
    }

    pub fn to_json(&self) -> [(&'static str, Value); 2] {
        [
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
        ]
    }
}

/// The workload's input as the measured process sees it: the staged
/// samples and the bound derived from them.
pub struct Input<T: Width> {
    pub field: FieldOf<T>,
    pub range: f64,
    pub bound: Bound,
    /// Largest point-wise error a decode may show; `None` when size-bounded.
    pub allowed_err: Option<f64>,
}

impl<T: Width> Input<T> {
    pub fn load(run: &Run) -> Result<Self, String> {
        let field = read_raw::<T>(&run.input(), run.dims())?;
        let range = field.range();
        let bound = run.workload.bound;
        Ok(Input { field, range, bound, allowed_err: allowed_error::<T>(bound, range) })
    }

    /// The workload's own way in, or the other one.
    pub fn access<'a>(
        &'a self,
        run: &'a Run,
        via_cli: bool,
        threads: usize,
    ) -> Box<dyn Access<T> + 'a> {
        if via_cli {
            Box::new(Cli::new(run, threads, self.bound))
        } else {
            Box::new(Api::new(run, threads, &self.field, self.bound))
        }
    }

    /// Max point-wise error and PSNR of `decoded` against the input.
    pub fn quality(&self, decoded: &[T]) -> (f64, f64) {
        let widen = |v: &[T]| v.iter().map(|s| s.to_f64()).collect::<Vec<f64>>();
        let (original, decoded) = (widen(&self.field.data), widen(decoded));
        (sperr_metrics::max_pwe(&original, &decoded), sperr_metrics::psnr(&original, &decoded))
    }
}

/// CRC-32 of the samples as little-endian f64: equal checksums stand for
/// bit-identical values without keeping either copy.
pub fn checksum(values: impl Iterator<Item = f64>) -> u32 {
    crc32(&values.flat_map(f64::to_le_bytes).collect::<Vec<u8>>())
}

/// Seconds per compress and decompress, milliseconds per region and preview.
#[derive(Default)]
struct Samples {
    compress_s: Vec<f64>,
    decompress_s: Vec<f64>,
    region_ms: Vec<f64>,
    preview_ms: Vec<f64>,
}

/// One region read, remembered so it can be checked against the full
/// decode after the memory high-water mark has been taken.
struct RegionRead {
    lo: [usize; 3],
    hi: [usize; 3],
    checksum: u32,
}

/// Compress, decompress, `regions_per_cycle` region reads, one preview.
/// Returns the checksum of the stream the compress produced.
fn cycle<T: Width>(
    run: &Run,
    access: &mut dyn Access<T>,
    rng: &mut Rng,
    ops: &mut Ops,
    samples: &mut Samples,
    reads: &mut Vec<RegionRead>,
) -> Option<u32> {
    samples.compress_s.push(ops.op(access.compress())?);
    samples.decompress_s.push(ops.op(access.decompress())?);
    for _ in 0..run.workload.regions_per_cycle {
        let (lo, hi) = rng.region(run.dims(), run.box_edge());
        let (secs, values) = ops.op(access.region(lo, hi))?;
        samples.region_ms.push(secs * 1e3);
        reads.push(RegionRead { lo, hi, checksum: checksum(values.into_iter()) });
    }
    samples.preview_ms.push(ops.op(access.preview())? * 1e3);
    ops.op(access.stream()).map(|s| crc32(&s))
}

/// Runs the pass and returns what the parent turns into metrics. A failed
/// operation ends the loop early: the counts say so and the samples that
/// would have followed are missing, never made up.
pub fn pass<T: Width>(run: &Run) -> Result<Value, String> {
    let input = Input::<T>::load(run)?;
    let via_cli = run.workload.via_cli;
    let mut access = input.access(run, via_cli, 0);
    let mut rng = Rng(run.seed);
    let (mut ops, mut samples, mut reads) = (Ops::default(), Samples::default(), Vec::new());

    // Warm-up: caches fill, lazy set-up finishes and the host's cores come
    // up to speed (the first second of work after staging runs up to twice
    // as slow here). Its operations are checked like any other; only its
    // timings are dropped.
    let warm_until =
        Instant::now() + Duration::from_secs_f64((run.seconds / 4.0).min(WARM_UP_SECONDS));
    let first = loop {
        let crc = cycle(run, access.as_mut(), &mut rng, &mut ops, &mut samples, &mut reads);
        if run.smoke || crc.is_none() || Instant::now() >= warm_until {
            break crc;
        }
    };
    samples = Samples::default();
    let mut streams_identical = true;
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    while first.is_some() {
        let crc = cycle(run, access.as_mut(), &mut rng, &mut ops, &mut samples, &mut reads);
        streams_identical &= crc == first;
        let done =
            if run.smoke { samples.compress_s.len() >= 2 } else { Instant::now() >= deadline };
        if done || crc.is_none() {
            break;
        }
    }
    // Read before any verification buffer exists.
    let peak_rss = access.peak_rss();
    let mut out = vec![("raw_bytes", Value::Num(run.raw_bytes() as f64))];
    if ops.failed == 0 {
        let stream = access.stream()?.into_owned();
        let decoded = access.decoded()?;
        let (max_err, psnr_db) = input.quality(&decoded);

        if let Some(allowed) = input.allowed_err {
            ops.gate(max_err <= allowed, || {
                format!("max error {max_err:e} above the bound {allowed:e}")
            });
        }
        ops.gate(streams_identical, || "stream bytes differ between repetitions".into());
        let spec =
            |r: &RegionRead| ChunkSpec { offset: r.lo, dims: [0, 1, 2].map(|d| r.hi[d] - r.lo[d]) };
        let mismatched = reads
            .iter()
            .filter(|r| {
                let slice = extract_chunk(&decoded, run.dims(), &spec(r));
                checksum(slice.iter().map(|v| v.to_f64())) != r.checksum
            })
            .count();
        ops.gate(mismatched == 0, || {
            format!("{mismatched} of {} region reads differ from the full decode", reads.len())
        });
        // The same bytes must come out at one thread, and out of the other
        // way in (library call ↔ `sperr compress --stream`).
        for (cli, threads, what) in
            [(via_cli, 1, "at 1 thread"), (!via_cli, 0, "through the other path")]
        {
            let mut other = input.access(run, cli, threads);
            let same = ops.op(other.compress().and_then(|_| Ok(other.stream()? == stream)));
            ops.gate(same == Some(true), || format!("stream bytes differ {what}"));
        }

        out.extend([
            ("stream_bytes", Value::Num(stream.len() as f64)),
            ("compress_s", Value::nums(&samples.compress_s)),
            ("decompress_s", Value::nums(&samples.decompress_s)),
            ("region_ms", Value::nums(&samples.region_ms)),
            ("preview_ms", Value::nums(&samples.preview_ms)),
            ("ratio", Value::Num(run.raw_bytes() as f64 / stream.len() as f64)),
            ("psnr_db", Value::Num(psnr_db)),
            ("max_err_rel", Value::Num(max_err / input.range)),
            ("peak_rss_mb", Value::Num(peak_rss as f64 / 1e6)),
        ]);
    }
    out.extend(ops.to_json());
    Ok(Value::obj(out))
}
