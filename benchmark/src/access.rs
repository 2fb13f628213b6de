//! The two ways into the program a workload can take — library calls on
//! memory, or `sperr` child processes working file → file — behind one set
//! of four timed operations, and the two sample widths behind one trait.

use crate::sys;
use crate::workloads::{read_raw, Run};
use sperr_compress_api::{Bound, CompressError, FieldOf, LossyCompressor, Precision};
use sperr_core::{Float, Sperr, SperrError, StreamReport};
use std::borrow::Cow;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Bits per point of the preview every cycle decodes.
pub const PREVIEW_BPP: f64 = 1.0;

/// `Sperr`'s entry points are named per width; this picks them by type.
pub trait Width: Float {
    fn compress(s: &Sperr, f: &FieldOf<Self>, b: Bound) -> Result<Vec<u8>, CompressError>;
    fn decompress(s: &Sperr, stream: &[u8]) -> Result<FieldOf<Self>, CompressError>;
    fn compress_stream<R: Read, W: Write>(
        s: &Sperr,
        reader: R,
        writer: W,
        dims: [usize; 3],
        b: Bound,
    ) -> Result<StreamReport, SperrError>;
}

impl Width for f64 {
    fn compress(s: &Sperr, f: &FieldOf<f64>, b: Bound) -> Result<Vec<u8>, CompressError> {
        LossyCompressor::compress(s, f, b)
    }
    fn decompress(s: &Sperr, stream: &[u8]) -> Result<FieldOf<f64>, CompressError> {
        LossyCompressor::decompress(s, stream)
    }
    fn compress_stream<R: Read, W: Write>(
        s: &Sperr,
        reader: R,
        writer: W,
        dims: [usize; 3],
        b: Bound,
    ) -> Result<StreamReport, SperrError> {
        s.compress_stream(reader, writer, dims, Precision::Double, b)
    }
}

impl Width for f32 {
    fn compress(s: &Sperr, f: &FieldOf<f32>, b: Bound) -> Result<Vec<u8>, CompressError> {
        s.compress_f32(f, b)
    }
    fn decompress(s: &Sperr, stream: &[u8]) -> Result<FieldOf<f32>, CompressError> {
        s.decompress_f32(stream)
    }
    fn compress_stream<R: Read, W: Write>(
        s: &Sperr,
        reader: R,
        writer: W,
        dims: [usize; 3],
        b: Bound,
    ) -> Result<StreamReport, SperrError> {
        s.compress_stream_f32(reader, writer, dims, b)
    }
}

/// The four operations a cycle times. Each returns the seconds it took;
/// what it produced stays behind for [`Access::stream`] / [`Access::decoded`].
pub trait Access<T: Width> {
    fn compress(&mut self) -> Result<f64, String>;
    fn decompress(&mut self) -> Result<f64, String>;
    /// Decodes the half-open box `lo..hi`; the samples come back widened.
    fn region(&mut self, lo: [usize; 3], hi: [usize; 3]) -> Result<(f64, Vec<f64>), String>;
    /// Decodes the whole volume from [`PREVIEW_BPP`] bits per point.
    fn preview(&mut self) -> Result<f64, String>;
    /// The bytes the last `compress` produced.
    fn stream(&self) -> Result<Cow<'_, [u8]>, String>;
    /// The samples the last `decompress` produced.
    fn decoded(&self) -> Result<Cow<'_, [T]>, String>;
    /// Peak resident memory of the processes that did the work, in bytes.
    fn peak_rss(&self) -> u64;
}

/// Runs `f` and returns the seconds it took with what it produced.
pub fn seconds_of<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = std::hint::black_box(f());
    (start.elapsed().as_secs_f64(), result)
}

fn timed<R, E: std::fmt::Display>(f: impl FnOnce() -> Result<R, E>) -> Result<(f64, R), String> {
    let (secs, result) = seconds_of(f);
    result.map(|r| (secs, r)).map_err(|e| e.to_string())
}

/// Library calls on samples held in memory.
pub struct Api<'a, T: Width> {
    pub sperr: Sperr,
    field: &'a FieldOf<T>,
    bound: Bound,
    stream: Vec<u8>,
    decoded: Vec<T>,
}

impl<'a, T: Width> Api<'a, T> {
    pub fn new(run: &Run, threads: usize, field: &'a FieldOf<T>, bound: Bound) -> Self {
        let sperr = Sperr::new(run.config(threads));
        Api { sperr, field, bound, stream: Vec::new(), decoded: Vec::new() }
    }
}

impl<T: Width> Access<T> for Api<'_, T> {
    fn compress(&mut self) -> Result<f64, String> {
        let (secs, stream) = timed(|| T::compress(&self.sperr, self.field, self.bound))?;
        self.stream = stream;
        Ok(secs)
    }

    fn decompress(&mut self) -> Result<f64, String> {
        let (secs, field) = timed(|| T::decompress(&self.sperr, &self.stream))?;
        self.decoded = field.data;
        Ok(secs)
    }

    fn region(&mut self, lo: [usize; 3], hi: [usize; 3]) -> Result<(f64, Vec<f64>), String> {
        let (secs, (field, report)) = timed(|| self.sperr.decode_region(&self.stream, lo, hi))?;
        if !report.all_ok() {
            return Err(format!("region {lo:?}..{hi:?} hit damaged chunks"));
        }
        Ok((secs, field.data))
    }

    fn preview(&mut self) -> Result<f64, String> {
        timed(|| self.sperr.decode_at_bpp(&self.stream, PREVIEW_BPP)).map(|(secs, _)| secs)
    }

    fn stream(&self) -> Result<Cow<'_, [u8]>, String> {
        Ok(Cow::Borrowed(&self.stream))
    }

    fn decoded(&self) -> Result<Cow<'_, [T]>, String> {
        Ok(Cow::Borrowed(&self.decoded))
    }

    fn peak_rss(&self) -> u64 {
        sys::own_peak_rss()
    }
}

/// One `sperr` child per operation, file → file, timed around the child:
/// what a shell user pays, process start and cold arenas included.
pub struct Cli<'a> {
    run: &'a Run,
    threads: usize,
    bound: Bound,
}

impl<'a> Cli<'a> {
    pub fn new(run: &'a Run, threads: usize, bound: Bound) -> Self {
        Cli { run, threads, bound }
    }

    fn file(&self, name: &str) -> PathBuf {
        // One set of files per thread setting, so a 1-thread check never
        // overwrites what the measured loop left behind.
        self.run.dir.join(format!("cli{}-{name}", self.threads))
    }

    /// Runs `sperr <command> --input … --output … <args>` and times it.
    fn sperr<T: Width>(
        &self,
        command: &str,
        input: PathBuf,
        output: PathBuf,
        args: &[String],
    ) -> Result<f64, String> {
        let mut cmd = Command::new(&self.run.sperr);
        cmd.arg(command).arg("--input").arg(input).arg("--output").arg(output);
        cmd.args(["--dtype", T::NAME, "--quiet"]).args(args).stdout(Stdio::null());
        if self.threads != 0 {
            cmd.args(["--threads", &self.threads.to_string()]);
        }
        let (secs, status) = timed(|| cmd.status())?;
        if status.success() {
            Ok(secs)
        } else {
            Err(format!("`sperr {command} {}` ended with {status}", args.join(" ")))
        }
    }
}

fn triple(v: [usize; 3]) -> String {
    format!("{},{},{}", v[0], v[1], v[2])
}

impl<T: Width> Access<T> for Cli<'_> {
    fn compress(&mut self) -> Result<f64, String> {
        let mut args = vec!["--stream".into(), "--dims".into(), triple(self.run.dims())];
        if self.run.workload.chunks_per_axis.is_some() {
            args.extend(["--chunk".into(), triple(self.run.config(0).chunk_dims)]);
        }
        // `{}` prints the shortest decimal that parses back to the same
        // f64, so the child compresses to exactly this bound.
        args.extend(match self.bound {
            Bound::Pwe(t) => ["--pwe".into(), t.to_string()],
            Bound::Bpp(r) => ["--bpp".into(), r.to_string()],
            Bound::Psnr(p) => ["--psnr".into(), p.to_string()],
        });
        self.sperr::<T>("compress", self.run.input(), self.file("stream.sperr"), &args)
    }

    fn decompress(&mut self) -> Result<f64, String> {
        let (input, output) = (self.file("stream.sperr"), self.file("decoded.raw"));
        self.sperr::<T>("decompress", input, output, &["--stream".into()])
    }

    fn region(&mut self, lo: [usize; 3], hi: [usize; 3]) -> Result<(f64, Vec<f64>), String> {
        let spec = format!("{}:{},{}:{},{}:{}", lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]);
        let output = self.file("region.raw");
        let secs = self.sperr::<T>(
            "decompress",
            self.file("stream.sperr"),
            output.clone(),
            &["--region".into(), spec],
        )?;
        let dims = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
        let field = read_raw::<T>(&output, dims)?;
        Ok((secs, field.data.iter().map(|v| v.to_f64()).collect()))
    }

    fn preview(&mut self) -> Result<f64, String> {
        let (input, output) = (self.file("stream.sperr"), self.file("preview.raw"));
        self.sperr::<T>(
            "decompress",
            input,
            output,
            &["--preview-bpp".into(), PREVIEW_BPP.to_string()],
        )
    }

    fn stream(&self) -> Result<Cow<'_, [u8]>, String> {
        let path = self.file("stream.sperr");
        std::fs::read(&path).map(Cow::Owned).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn decoded(&self) -> Result<Cow<'_, [T]>, String> {
        read_raw::<T>(&self.file("decoded.raw"), self.run.dims()).map(|f| Cow::Owned(f.data))
    }

    fn peak_rss(&self) -> u64 {
        sys::children_usage().0
    }
}
