//! `sperr` — command-line front end for the SPERR reproduction.
//!
//! ```text
//! sperr compress   --input x.raw --output x.sperr --dims 384,384,256 --type f64 \
//!                  (--pwe T | --idx N | --bpp R | --psnr P) \
//!                  [--chunk 256,256,256] [--threads N] [--q-factor 1.5] [--no-lossless]
//! sperr decompress --input x.sperr --output y.raw --type f64 [--level L]
//! sperr info       --input x.sperr
//! sperr gen        --field miranda-pressure --dims 64,64,64 --output x.raw --type f64 [--seed S]
//! sperr eval       --original a.raw --reconstructed b.raw --dims 64,64,64 --type f64
//! ```

mod args;
mod rawio;

use args::{parse_type, Args, ScalarType};
use sperr_compress_api::{Bound, CompressError, FieldOf, Precision};
use sperr_core::{
    CompressionStats, Float, OnDamage, ReadOutput, ReadReport, ReadRequest, Sperr, SperrConfig,
    SperrError, StreamReport,
};
use sperr_datagen::SyntheticField;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::process::ExitCode;

/// CLI failure, carrying enough structure for a meaningful exit code.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command, malformed or missing options.
    Usage(String),
    /// Filesystem-level failure reading or writing a file.
    Io(String),
    /// A typed failure from the compression library.
    Compress(CompressError),
    /// A typed failure from the streaming pipeline: carries the stage,
    /// chunk and failure class (I/O, codec, or captured worker panic).
    Stream(SperrError),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e.to_string())
    }
}

impl From<CompressError> for CliError {
    fn from(e: CompressError) -> Self {
        CliError::Compress(e)
    }
}

impl From<SperrError> for CliError {
    fn from(e: SperrError) -> Self {
        CliError::Stream(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Io(msg) => write!(f, "{msg}"),
            CliError::Compress(e) => write!(f, "{e}"),
            CliError::Stream(e) => write!(f, "{e}"),
        }
    }
}

/// Exit code for each codec failure class (shared by the in-memory and
/// streaming paths).
fn compress_error_code(c: &CompressError) -> u8 {
    match c {
        CompressError::Invalid(_) => 3,
        CompressError::Unsupported(_) => 4,
        CompressError::Corrupt(_) => 5,
        CompressError::Truncated(_) => 6,
        CompressError::LimitExceeded(_) => 7,
    }
}

/// Distinct exit codes per failure class, so scripts can react without
/// parsing stderr: 0 success, 1 I/O, 2 usage, one code per
/// `CompressError` variant, 8 for an internal error (captured worker
/// panic). Streaming errors map to the same classes as their in-memory
/// counterparts — a broken pipe or ENOSPC on stdout is exit 1, not a
/// panic backtrace.
fn exit_code(e: &CliError) -> u8 {
    match e {
        CliError::Io(_) => 1,
        CliError::Usage(_) => 2,
        CliError::Compress(c) => compress_error_code(c),
        CliError::Stream(s) => match s {
            SperrError::Io { .. } => 1,
            SperrError::Codec { source, .. } => compress_error_code(source),
            SperrError::Panic { .. } => 8,
        },
    }
}

const USAGE: &str = "\
sperr — lossy scientific data compression (SPERR reproduction)

USAGE:
  sperr compress   --input RAW --output SPERR --dims NX,NY[,NZ] [--dtype f32|f64]
                   (--pwe T | --idx N | --bpp R | --psnr P)
                   [--chunk CX,CY,CZ] [--threads N] [--q-factor F] [--no-lossless]
                   [--stream] [--in-flight N] [--verbose] [--stats] [--trace FILE]
                   [--metrics FILE] [--quiet]
  sperr decompress --input SPERR --output RAW [--dtype f32|f64] [--level L]
                   [--region X0:X1,Y0:Y1,Z0:Z1] [--preview-bpp R]
                   [--stream] [--in-flight N] [--resilient]
                   [--threads N] [--verbose] [--stats] [--trace FILE]
                   [--metrics FILE] [--quiet]
  sperr info       --input SPERR [--verify] [--verbose]
  sperr metrics    --input SPERR [--json] [--threads N]
  sperr gen        --field NAME --dims NX,NY[,NZ] --output RAW [--dtype f32|f64] [--seed S]
                   [--quiet]
  sperr eval       --original RAW --reconstructed RAW --dims NX,NY[,NZ] [--dtype f32|f64]

Bounds: --pwe is an absolute point-wise error tolerance; --idx N sets it to
range/2^N (paper Table I); --bpp targets a size in bits per point (no error
guarantee); --psnr targets an average error in dB.

Precision: --dtype names the raw file's scalar width (--type is the legacy
spelling); when omitted it is inferred from a .f32/.f64 file extension.
f32 inputs compress through the native single-precision pipeline (streams
decode back to f32, half the memory traffic); f64 inputs through the
double-precision one. Decompression defaults its output width to the
stream's recorded precision, and refuses to narrow f64 data to f32 output
unless --dtype f32 is given explicitly.

Random access: --region decodes only the chunks intersecting the given
half-open voxel box (axes left out default to 0:1) and writes just that
sub-volume; container v3 streams seek via the chunk index, older streams
fall back to a chunk-table walk. --preview-bpp decodes a coarse preview
by truncating each chunk's embedded SPECK stream at the given bitrate
(no error guarantee; outlier corrections are skipped). --region,
--preview-bpp and --level are mutually exclusive.

--verify checks the stream's integrity checksums (container v2+) without
decompressing; corrupt chunks are listed and reflected in the exit code.
--verbose adds per-stage wall times (wavelet / SPECK / outlier detection
and coding / container / lossless); for info it runs a timed decode to
produce them.
--quiet suppresses the one-line summary a command prints on success.
--stats prints a telemetry summary (per-span CPU vs wall time, counters,
per-worker utilization); --trace FILE writes Chrome trace-event JSON
loadable in Perfetto (ui.perfetto.dev) or chrome://tracing; --metrics FILE
exports latency/size histograms with p50/p90/p99/p999 quantiles and memory
high-water marks as Prometheus text exposition (JSON when FILE ends in
.json). `sperr metrics --input S` runs a recorded decode and prints the
exposition to stdout. All need a build with the `telemetry` cargo feature;
without it a warning is printed and nothing is recorded. With data on
stdout (--output -) every summary goes to stderr.

Drivers: the request picks one. compress with --pwe or --bpp streams
raw chunks from the input to the output in bounded memory; only --idx
and --psnr load the whole volume (they need its range). A full
decompress streams; only --region, --level and --preview-bpp load the
stream for random access. --in-flight N caps the chunks in flight
(0 = 2x threads; never below one chunk layer). \"-\" as --input or
--output means stdin/stdout. --stream (implied by \"-\") picks nothing:
it refuses --idx, --psnr, --region, --level and --preview-bpp, and
changes no output byte. --resilient zero-fills corrupt chunks with a
warning on every decompress instead of failing. A raw input file whose
length is not dims x width is refused before it is read, and a failed
command leaves no file at --output.

Exit codes: 0 ok, 1 I/O, 2 usage, 3 invalid input, 4 unsupported,
5 corrupt stream, 6 truncated stream, 7 resource limit exceeded,
8 internal error (captured worker panic).

Fields for gen: miranda-pressure miranda-viscosity miranda-vx miranda-density
s3d-ch4 s3d-temp s3d-vx nyx-dm nyx-vx qmcpack image2d";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(exit_code(&e))
        }
    }
}

/// One subcommand: the `--key value` options and boolean `--flag`s it
/// accepts — what USAGE lists for it, plus the legacy `--type` spelling —
/// and its entry point. Anything else on its command line is a usage
/// error, so a typo cannot silently run with defaults.
struct Command {
    name: &'static str,
    options: &'static [&'static str],
    flags: &'static [&'static str],
    run: fn(&Args) -> Result<(), CliError>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "compress",
        options: &[
            "input", "output", "dims", "dtype", "type", "pwe", "idx", "bpp", "psnr", "chunk",
            "threads", "q-factor", "in-flight", "trace", "metrics",
        ],
        flags: &["no-lossless", "stream", "verbose", "stats", "quiet"],
        run: cmd_compress,
    },
    Command {
        name: "decompress",
        options: &[
            "input", "output", "dtype", "type", "level", "region", "preview-bpp", "in-flight",
            "threads", "trace", "metrics",
        ],
        flags: &["stream", "resilient", "verbose", "stats", "quiet"],
        run: cmd_decompress,
    },
    Command { name: "info", options: &["input"], flags: &["verify", "verbose"], run: cmd_info },
    Command { name: "metrics", options: &["input", "threads"], flags: &["json"], run: cmd_metrics },
    Command {
        name: "gen",
        options: &["field", "dims", "output", "dtype", "type", "seed"],
        flags: &["quiet"],
        run: cmd_gen,
    },
    Command {
        name: "eval",
        options: &["original", "reconstructed", "dims", "dtype", "type"],
        flags: &[],
        run: cmd_eval,
    },
];

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        println!("{USAGE}");
        return Ok(());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == cmd)
        .ok_or_else(|| format!("unknown command {cmd}; run `sperr help`"))?;
    let args = Args::parse(rest, command.options, command.flags)
        .map_err(|e| format!("sperr {cmd}: {e}; run `sperr help`"))?;
    if args.flag("help") {
        println!("{USAGE}");
        return Ok(());
    }
    if !args.positional().is_empty() {
        return Err(CliError::Usage(format!("unexpected argument: {}", args.positional()[0])));
    }
    (command.run)(&args)
}

/// Where a command's human-readable output goes (its summary line, the
/// `--verbose` stage times, the `--stats` report): stdout, unless the data
/// owns stdout (`--output -`), then stderr.
fn human(output: &str) -> Box<dyn Write> {
    if output == "-" {
        Box::new(std::io::stderr())
    } else {
        Box::new(std::io::stdout())
    }
}

/// Per-stage timing table for `--verbose`. Times are summed across chunks
/// (serial CPU time, not wall time when threads overlap); MB/s is computed
/// over the full volume's f64 footprint.
fn print_stage_times(out: &mut dyn Write, stages: &sperr_core::StageTimes, num_points: usize) {
    let mb = (num_points * 8) as f64 / 1e6;
    fn row(out: &mut dyn Write, mb: f64, name: &str, d: std::time::Duration) {
        let s = d.as_secs_f64();
        if s > 0.0 {
            writeln!(out, "  {name:<16} {s:>9.4} s  {:>9.1} MB/s", mb / s).ok();
        } else {
            // Stage skipped in this mode (e.g. outlier pass in BPP decode).
            writeln!(out, "  {name:<16} {s:>9.4} s          -").ok();
        }
    }
    writeln!(out, "stage times (per-stage CPU, summed over chunks):").ok();
    row(out, mb, "wavelet", stages.wavelet);
    row(out, mb, "speck", stages.speck);
    row(out, mb, "locate-outliers", stages.locate_outliers);
    row(out, mb, "outlier-coding", stages.outlier_coding);
    row(out, mb, "container", stages.container);
    row(out, mb, "lossless", stages.lossless);
    row(out, mb, "total", stages.total());
}

/// Opens a data source: `-` is stdin, anything else a file (buffered).
fn open_reader(path: &str) -> Result<Box<dyn Read>, CliError> {
    if path == "-" {
        Ok(Box::new(std::io::stdin().lock()))
    } else {
        let f = std::fs::File::open(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        Ok(Box::new(BufReader::new(f)))
    }
}

/// Reads a whole data source (`-` is stdin).
fn read_input(path: &str) -> Result<Vec<u8>, CliError> {
    let mut bytes = Vec::new();
    let read = open_reader(path)?.read_to_end(&mut bytes);
    read.map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    Ok(bytes)
}

/// Runs `body` on the data sink `path` names: stdout for `-`, else the
/// file, created (or truncated) here and flushed after `body`. When
/// anything fails, a regular file at `path` is removed again, so a failed
/// command leaves nothing that looks like an output; devices such as
/// `/dev/full` are left alone.
fn write_output<R>(
    path: &str,
    body: impl FnOnce(&mut dyn Write) -> Result<R, CliError>,
) -> Result<R, CliError> {
    if path == "-" {
        let mut out = std::io::stdout().lock();
        let r = body(&mut out)?;
        out.flush()?;
        return Ok(r);
    }
    let file = std::fs::File::create(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let regular = file.metadata().is_ok_and(|m| m.is_file());
    let mut out = BufWriter::new(file);
    let result = body(&mut out)
        .and_then(|r| out.flush().map(|()| r).map_err(|e| CliError::Io(format!("{path}: {e}"))));
    if result.is_err() && regular {
        drop(out);
        let _ = std::fs::remove_file(path);
    }
    result
}

/// Telemetry capture around one CLI operation: `--stats` prints an
/// aggregate summary after the run, `--trace FILE` writes Chrome
/// trace-event JSON, `--metrics FILE` exports the histogram snapshot
/// (Prometheus text exposition, or JSON for a `.json` path). All are
/// inert (with a warning) when the binary was built without the
/// `telemetry` feature.
struct TelemetryScope {
    stats: bool,
    trace: Option<std::path::PathBuf>,
    metrics: Option<std::path::PathBuf>,
    /// The command's `--output`, which decides where summaries go.
    output: String,
}

impl TelemetryScope {
    /// Reads the flags and, when any is present, opens a recording
    /// session (or warns that the build cannot record).
    fn begin(args: &Args, output: &str) -> TelemetryScope {
        let scope = TelemetryScope {
            stats: args.flag("stats"),
            trace: args.opt("trace").map(|p| Path::new(p).to_path_buf()),
            metrics: args.opt("metrics").map(|p| Path::new(p).to_path_buf()),
            output: output.to_string(),
        };
        if scope.wanted() {
            if sperr_telemetry::is_enabled() {
                sperr_telemetry::start();
            } else {
                eprintln!(
                    "warning: this build has no `telemetry` feature; \
                     --stats/--trace/--metrics will record nothing"
                );
            }
        }
        scope
    }

    fn wanted(&self) -> bool {
        self.stats || self.trace.is_some() || self.metrics.is_some()
    }

    /// Stops the session and emits whatever was requested.
    fn finish(self) -> Result<(), CliError> {
        if !self.wanted() || !sperr_telemetry::is_enabled() {
            return Ok(());
        }
        let report = sperr_telemetry::stop();
        let mut out = human(&self.output);
        if let Some(path) = &self.trace {
            std::fs::write(path, report.chrome_trace())?;
            writeln!(out, "trace:       {} events -> {}", report.event_count(), path.display())
                .ok();
        }
        if let Some(path) = &self.metrics {
            let snap = &report.metrics;
            let text = if path.extension().is_some_and(|e| e == "json") {
                snap.render_json()
            } else {
                snap.render_prometheus()
            };
            std::fs::write(path, text)?;
            writeln!(out, "metrics:     {} series -> {}", snap.entries.len(), path.display())
                .ok();
        }
        if self.stats {
            print_telemetry_stats_to(out.as_mut(), &report);
        }
        Ok(())
    }
}

/// The `--stats` report: per-span CPU (summed across workers) vs wall
/// (interval union) time, counter totals and per-worker utilization.
fn print_telemetry_stats_to(out: &mut dyn Write, report: &sperr_telemetry::Report) {
    if report.is_empty() {
        writeln!(out, "telemetry:   nothing recorded").ok();
        return;
    }
    let session_ns = report.wall_ns();
    writeln!(
        out,
        "telemetry:   session {:.3} ms wall, {} events",
        session_ns as f64 / 1e6,
        report.event_count()
    )
    .ok();
    writeln!(out, "  {:<28} {:>7} {:>11} {:>11} {:>6}", "span", "count", "cpu ms", "wall ms", "par")
        .ok();
    for s in report.span_summary() {
        let cpu = s.cpu_ns as f64 / 1e6;
        let wall = s.wall_ns as f64 / 1e6;
        let par = if s.wall_ns > 0 { s.cpu_ns as f64 / s.wall_ns as f64 } else { 0.0 };
        writeln!(
            out,
            "  {:<28} {:>7} {:>11.3} {:>11.3} {:>5.2}x",
            s.label, s.count, cpu, wall, par
        )
        .ok();
    }
    let counters = report.counter_totals();
    if !counters.is_empty() {
        writeln!(out, "  counters:").ok();
        for (label, total) in counters {
            writeln!(out, "    {label:<30} {total}").ok();
        }
    }
    writeln!(out, "  workers:").ok();
    for (name, busy_ns) in report.track_busy_ns() {
        let pct =
            if session_ns > 0 { 100.0 * busy_ns as f64 / session_ns as f64 } else { 0.0 };
        writeln!(
            out,
            "    {name:<12} busy {:>9.3} ms  ({pct:>5.1}% of session)",
            busy_ns as f64 / 1e6
        )
        .ok();
    }
    if report.dropped > 0 {
        writeln!(out, "  dropped events: {} (event buffers filled)", report.dropped).ok();
    }
}

/// Infers the raw-file scalar type from a `.f32` / `.f64` file extension.
fn infer_dtype(path: &str) -> Option<ScalarType> {
    match Path::new(path).extension()?.to_str()? {
        "f32" => Some(ScalarType::F32),
        "f64" => Some(ScalarType::F64),
        _ => None,
    }
}

/// Resolves the raw-file scalar type: an explicit `--dtype` (or the legacy
/// `--type` spelling) wins, else the extension of `path` decides. Returns
/// the type and whether it was explicit — lossy narrowing on output is
/// only allowed when it was.
fn resolve_dtype(args: &Args, path: &str) -> Result<Option<(ScalarType, bool)>, String> {
    if let Some(s) = args.opt("dtype").or_else(|| args.opt("type")) {
        return Ok(Some((parse_type(s)?, true)));
    }
    Ok(infer_dtype(path).map(|t| (t, false)))
}

/// Like [`resolve_dtype`] but required: errors when neither flag nor
/// extension names a type.
fn require_dtype(args: &Args, path: &str) -> Result<(ScalarType, bool), CliError> {
    resolve_dtype(args, path)?.ok_or_else(|| {
        CliError::Usage(format!(
            "cannot tell f32 from f64 for {path}: pass --dtype f32|f64 \
             (or use a .f32/.f64 file extension)"
        ))
    })
}

fn build_sperr(args: &Args) -> Result<Sperr, String> {
    let mut cfg = SperrConfig::default();
    if let Some(chunk) = args.opt_dims("chunk")? {
        cfg.chunk_dims = chunk;
    }
    if let Some(threads) = args.opt_usize("threads")? {
        cfg.num_threads = threads;
    }
    if let Some(qf) = args.opt_f64("q-factor")? {
        // `Sperr::new` asserts the same; here it is a usage error. Written
        // so that NaN fails it too.
        if !(qf.is_finite() && qf > 0.0) {
            return Err("--q-factor must be finite and positive".into());
        }
        cfg.q_factor = qf;
    }
    if args.flag("no-lossless") {
        cfg.lossless = false;
    }
    if let Some(n) = args.opt_usize("in-flight")? {
        cfg.in_flight_chunks = n;
    }
    Ok(Sperr::new(cfg))
}

/// `--stream`, implied by a `-` endpoint, picks no driver: it refuses the
/// requests the streaming driver cannot serve.
fn streaming(args: &Args, input: &str, output: &str) -> bool {
    args.flag("stream") || input == "-" || output == "-"
}

/// A compress bound as given. The absolute ones stream; `--idx` (Table
/// I's range/2^N) and `--psnr` need the whole field's range.
#[derive(Clone, Copy)]
enum Target {
    Absolute(Bound),
    Idx(u32),
    Psnr(f64),
}

fn parse_target(args: &Args) -> Result<Target, CliError> {
    match (
        args.opt_f64("pwe")?,
        args.opt_usize("idx")?,
        args.opt_f64("bpp")?,
        args.opt_f64("psnr")?,
    ) {
        (Some(t), None, None, None) => Ok(Target::Absolute(Bound::Pwe(t))),
        (None, None, Some(r), None) => Ok(Target::Absolute(Bound::Bpp(r))),
        (None, Some(idx), None, None) => Ok(Target::Idx(idx as u32)),
        (None, None, None, Some(p)) => Ok(Target::Psnr(p)),
        _ => Err(CliError::Usage("give exactly one of --pwe, --idx, --bpp, --psnr".into())),
    }
}

/// `sperr compress`: `--pwe` and `--bpp` stream raw chunks from the input
/// to the output in bounded memory; `--idx` and `--psnr` load the volume
/// for its range. Either way the stream bytes are the same.
fn cmd_compress(args: &Args) -> Result<(), CliError> {
    let (input, output) = (args.req("input")?, args.req("output")?);
    let dims = args.req_dims("dims")?;
    let (ty, _) = require_dtype(args, input)?;
    let target = parse_target(args)?;
    let whole = match target {
        Target::Absolute(_) => None,
        Target::Idx(_) => Some("--idx"),
        Target::Psnr(_) => Some("--psnr"),
    };
    if let Some(flag) = whole.filter(|_| streaming(args, input, output)) {
        return Err(CliError::Usage(format!(
            "{flag} needs the whole volume's range; --stream (or `-`) takes --pwe or --bpp"
        )));
    }
    let sperr = build_sperr(args)?;
    if input != "-" {
        rawio::check_file_len(Path::new(input), dims, ty)?;
    }
    let scope = TelemetryScope::begin(args, output);
    let report = match target {
        Target::Absolute(bound) => {
            let reader = open_reader(input)?;
            write_output(output, |out| {
                // f32 input runs the native-width pipeline (tag-2 streams
                // that decode back to f32), f64 the double-precision one.
                Ok(match ty {
                    ScalarType::F32 => sperr.compress_stream_f32(reader, out, dims, bound),
                    ScalarType::F64 => {
                        sperr.compress_stream(reader, out, dims, Precision::Double, bound)
                    }
                }?)
            })?
        }
        Target::Idx(_) | Target::Psnr(_) => {
            let path = Path::new(input);
            let (stream, stats) = match ty {
                ScalarType::F32 => {
                    compress_whole(&sperr, rawio::read_field_f32(path, dims)?, target)
                }
                ScalarType::F64 => {
                    compress_whole(&sperr, rawio::read_field(path, dims, ty)?, target)
                }
            }?;
            write_output(output, |out| Ok(out.write_all(&stream)?))?;
            // The whole volume was in memory: every chunk in flight at once.
            let n_chunks = stats.num_chunks;
            StreamReport {
                bytes_in: (dims.iter().product::<usize>() * ty.bytes()) as u64,
                bytes_out: stream.len() as u64,
                n_chunks,
                in_flight_budget: n_chunks,
                peak_in_flight: n_chunks,
                stats,
            }
        }
    };
    scope.finish()?;
    if !args.flag("quiet") {
        let (mut out, stats) = (human(output), &report.stats);
        writeln!(
            out,
            "{input} -> {output}: {} -> {} bytes ({:.2}x, {:.3} bpp; speck {:.3} bpp, \
             outliers {:.3} bpp / {}; {} chunks, in-flight peak {}/{})",
            report.bytes_in,
            report.bytes_out,
            report.bytes_in as f64 / report.bytes_out as f64,
            stats.bpp(),
            stats.speck_bpp(),
            stats.outlier_bpp(),
            stats.num_outliers,
            report.n_chunks,
            report.peak_in_flight,
            report.in_flight_budget,
        )
        .ok();
        if args.flag("verbose") {
            print_stage_times(out.as_mut(), &stats.stage_times, stats.num_points);
        }
    }
    Ok(())
}

/// Compresses a loaded `field` to a `--idx` or `--psnr` target.
fn compress_whole<T: Float>(
    sperr: &Sperr,
    field: FieldOf<T>,
    target: Target,
) -> Result<(Vec<u8>, CompressionStats), CliError> {
    let bound = match target {
        Target::Absolute(bound) => bound,
        Target::Idx(idx) => Bound::Pwe(field.tolerance_for_idx(idx)),
        Target::Psnr(p) => Bound::Psnr(p),
    };
    Ok(sperr.compress_with_stats(&field, bound)?)
}

/// `sperr decompress`: a full read streams, holding decoded chunks within
/// the in-flight budget; `--region`, `--level` and `--preview-bpp` load
/// the stream for random access. `--resilient` zero-fills damaged chunks
/// with a warning instead of failing.
fn cmd_decompress(args: &Args) -> Result<(), CliError> {
    let (input, output) = (args.req("input")?, args.req("output")?);
    let dtype = resolve_dtype(args, output)?;
    let level = args.opt_usize("level")?.unwrap_or(0);
    let what = match (args.opt_region("region")?, args.opt_f64("preview-bpp")?, level) {
        (None, None, 0) => None,
        (Some((lo, hi)), None, 0) => Some(ReadRequest::Region { lo, hi }),
        (None, Some(bpp), 0) => Some(ReadRequest::Bpp(bpp)),
        (None, None, level) => Some(ReadRequest::Level(level)),
        _ => {
            return Err(CliError::Usage(
                "--region, --preview-bpp and --level are mutually exclusive".into(),
            ))
        }
    };
    if what.is_some() && streaming(args, input, output) {
        return Err(CliError::Usage(
            "--region, --level and --preview-bpp need random access into the stream; \
             --stream (or `-`) refuses them"
                .into(),
        ));
    }
    let sperr = build_sperr(args)?;
    let resilient = args.flag("resilient");
    let scope = TelemetryScope::begin(args, output);
    let (bytes_in, bytes_out, note, stats) = match what {
        None => {
            // Only an f32 width inferred from the extension can narrow
            // silently, and only the stream's head says whether it would:
            // read the stream ahead for the guard then, before the output
            // is created.
            let reader: Box<dyn Read> = match dtype {
                Some((ScalarType::F32, false)) => {
                    let stream = read_input(input)?;
                    let source = sperr.inspect(&stream)?.precision;
                    rawio::check_narrowing(ScalarType::F32, false, source)?;
                    Box::new(std::io::Cursor::new(stream))
                }
                _ => open_reader(input)?,
            };
            // Without a width the stream's own decides.
            let precision = dtype.map(|(ty, _)| ty.precision());
            let report = write_output(output, |out| {
                if !resilient {
                    return Ok(sperr.decompress_stream(reader, out, precision)?);
                }
                let (report, read) = sperr.decompress_stream_resilient(reader, out, precision)?;
                warn_zero_filled(&read);
                Ok(report)
            })?;
            let note = format!(
                "{} chunks, in-flight peak {}/{}",
                report.n_chunks, report.peak_in_flight, report.in_flight_budget
            );
            (report.bytes_in, report.bytes_out, note, Some(report.stats))
        }
        Some(what) => {
            let stream = read_input(input)?;
            let info = sperr.inspect(&stream)?;
            let (ty, explicit) = dtype.unwrap_or((ScalarType::of(info.precision), false));
            rawio::check_narrowing(ty, explicit, info.precision)?;
            // f32-native streams headed to f32 output decode at native
            // width; the samples never materialize as f64. Coarse levels
            // are reconstructed at f64.
            let native =
                info.native_f32 && ty == ScalarType::F32 && !matches!(what, ReadRequest::Level(_));
            let (report, bytes_out) = if native {
                read_to::<f32>(&sperr, &stream, what, resilient, output, ty)?
            } else {
                read_to::<f64>(&sperr, &stream, what, resilient, output, ty)?
            };
            let chunks = report.chunk_ids.len();
            let note = match what {
                ReadRequest::Region { lo, hi } => format!(
                    "region {}:{},{}:{},{}:{} — {chunks} chunk(s) via {}",
                    lo[0], hi[0], lo[1], hi[1], lo[2], hi[2],
                    if report.used_index { "index seek" } else { "chunk-table scan" },
                ),
                ReadRequest::Level(level) => format!("resolution level {level}; {chunks} chunks"),
                ReadRequest::Bpp(bpp) => format!("preview at {bpp} bpp; {chunks} chunks"),
                _ => format!("{chunks} chunks"),
            };
            (stream.len() as u64, bytes_out, note, None)
        }
    };
    scope.finish()?;
    if !args.flag("quiet") {
        let mut out = human(output);
        writeln!(out, "{input} -> {output}: {bytes_in} -> {bytes_out} bytes ({note})").ok();
        // Per-stage times only exist for the full-resolution path; the
        // other reads skip stages, so their timings would not compare.
        if let Some(stats) = stats.filter(|_| args.flag("verbose")) {
            print_stage_times(out.as_mut(), &stats.stage_times, stats.num_points);
        }
    }
    Ok(())
}

/// Reads `what` of `stream` at sample width `T` and writes the field to
/// `output` as `ty`. A region read reports every damaged chunk it touches
/// (exit 5 naming them all); every other read fails on its lowest damaged
/// chunk. Under `--resilient` each damaged chunk is zero-filled instead.
fn read_to<T: Float>(
    sperr: &Sperr,
    stream: &[u8],
    what: ReadRequest<'_>,
    resilient: bool,
    output: &str,
    ty: ScalarType,
) -> Result<(ReadReport, u64), CliError> {
    let zero_fill = resilient || matches!(what, ReadRequest::Region { .. });
    let on_damage = if zero_fill { OnDamage::ZeroFill } else { OnDamage::Fail };
    let ReadOutput { field, report, .. } = sperr.read::<T>(stream, what, on_damage)?;
    if !resilient && !report.all_ok() {
        return Err(CliError::Compress(CompressError::Corrupt(format!(
            "region decode hit damaged chunks {:?}",
            report.failed_chunks()
        ))));
    }
    warn_zero_filled(&report);
    write_output(output, |out| Ok(rawio::write_field(out, &field, ty)?))?;
    Ok((report, (field.len() * ty.bytes()) as u64))
}

/// The `--resilient` warning: which of the chunks the read touched were
/// damaged and zero-filled.
fn warn_zero_filled(report: &ReadReport) {
    let bad = report.failed_chunks();
    if !bad.is_empty() {
        let n = report.chunk_ids.len();
        eprintln!("warning: {} of {n} chunks corrupt, zero-filled: {bad:?}", bad.len());
    }
}

fn cmd_info(args: &Args) -> Result<(), CliError> {
    let input = Path::new(args.req("input")?).to_path_buf();
    let stream = std::fs::read(&input)?;
    let sperr = Sperr::new(SperrConfig::default());
    let info = sperr.inspect(&stream)?;
    println!("file:        {}", input.display());
    println!("format:      container v{}", info.version);
    println!("stream:      {} bytes (lossless pass: {})", stream.len(), info.lossless);
    println!("dims:        {}x{}x{}", info.dims[0], info.dims[1], info.dims[2]);
    let prec = if info.native_f32 {
        "f32 (native payload)"
    } else {
        match info.precision {
            sperr_compress_api::Precision::Single => "f32 source (legacy f64 payload)",
            sperr_compress_api::Precision::Double => "f64",
        }
    };
    println!("precision:   {prec}");
    println!("chunks:      {} of {}x{}x{}", info.n_chunks, info.chunk_dims[0], info.chunk_dims[1], info.chunk_dims[2]);
    let (mode, unit) = match info.mode {
        sperr_core::Mode::Pwe => ("PWE-bounded", "tolerance"),
        sperr_core::Mode::Bpp => ("size-bounded", "bits per point"),
        sperr_core::Mode::Rmse => ("average-error", "PSNR dB"),
    };
    println!("mode:        {mode} ({unit} = {:.6e})", info.bound_value);
    println!("payloads:    speck {} B, outliers {} B", info.speck_bytes, info.outlier_bytes);
    let n: usize = info.dims.iter().product();
    println!("bitrate:     {:.4} bpp", stream.len() as f64 * 8.0 / n as f64);
    // Instrumentation is byte-transparent by contract (DESIGN.md §16):
    // streams from instrumented and plain builds are identical, so
    // provenance is reported for *this* binary, not read from the bytes.
    println!(
        "telemetry:   {}",
        if sperr_telemetry::is_enabled() {
            "this build is instrumented (recording never alters stream bytes)"
        } else {
            "this build is not instrumented (`telemetry` feature off)"
        }
    );
    match &info.chunk_index {
        Some(index) => {
            println!("index:       {} entries (random access: indexed seek)", index.len());
            println!("  {:>5}  {:<12} {:>10}  {:>9}  {:>12}", "chunk", "coords", "offset", "bytes", "max err");
            let shown = if args.flag("verbose") { index.len() } else { index.len().min(8) };
            for (i, e) in index.iter().take(shown).enumerate() {
                let err = if e.max_err.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.3e}", e.max_err)
                };
                println!(
                    "  {i:>5}  {:<12} {:>10}  {:>9}  {err:>12}",
                    format!("{},{},{}", e.coords[0], e.coords[1], e.coords[2]),
                    e.offset,
                    e.len,
                );
            }
            if shown < index.len() {
                println!("  ... {} more (use --verbose for all)", index.len() - shown);
            }
        }
        None => {
            println!(
                "index:       none (container v{} predates the chunk index; \
                 random access falls back to a chunk-table scan)",
                info.version
            );
        }
    }
    let blocks = info.chunk_blocks.iter().sum::<usize>();
    let split = info.chunk_blocks.iter().filter(|&&k| k > 1).count();
    println!("code blocks: {blocks} ({split} of {} chunks split)", info.n_chunks);
    if args.flag("verbose") {
        for (chunk, k) in info.chunk_blocks.iter().enumerate() {
            println!("  chunk {chunk:>5}: {k} code block{}", if *k == 1 { "" } else { "s" });
        }
        // A timed full decode, to report where decompression time goes.
        let t0 = std::time::Instant::now();
        let ReadOutput { field, stats, .. } =
            sperr.read::<f64>(&stream, ReadRequest::Full, OnDamage::Fail)?;
        let wall = t0.elapsed();
        println!("decode:      {:.4} s wall", wall.as_secs_f64());
        print_stage_times(&mut std::io::stdout(), &stats.stage_times, field.len());
    }
    if args.flag("verify") {
        let report = sperr.verify(&stream)?;
        if !report.is_ok() {
            // A v1 stream has no checksums, but a chunk under an SLZ1
            // block that does not inflate still fails.
            let what = if report.checksummed { "checksums" } else { "payloads (v1 stream)" };
            println!(
                "verify:      {}/{} chunk {what} FAILED (chunks {:?})",
                report.corrupt_chunks.len(),
                report.n_chunks,
                report.corrupt_chunks
            );
            return Err(CliError::Compress(CompressError::Corrupt(format!(
                "{} of {} chunk payloads failed verification",
                report.corrupt_chunks.len(),
                report.n_chunks
            ))));
        } else if report.checksummed {
            println!("verify:      all {} chunk checksums OK", report.n_chunks);
        } else {
            println!("verify:      no checksums (v1 stream) — nothing to check");
        }
    }
    Ok(())
}

/// `sperr metrics`: runs a recorded decode of the input stream and
/// prints the resulting histogram snapshot — Prometheus text exposition
/// by default, JSON with `--json`. This is the scrape-style surface of
/// the metrics layer: one command, machine-readable output on stdout.
fn cmd_metrics(args: &Args) -> Result<(), CliError> {
    let input = Path::new(args.req("input")?).to_path_buf();
    let stream = std::fs::read(&input)?;
    if !sperr_telemetry::is_enabled() {
        eprintln!(
            "warning: this build has no `telemetry` feature; \
             the snapshot below is empty"
        );
    }
    let sperr = build_sperr(args)?;
    sperr_telemetry::start();
    let decode = sperr.read::<f64>(&stream, ReadRequest::Full, OnDamage::Fail);
    let snap = sperr_telemetry::stop().metrics;
    decode?;
    let text =
        if args.flag("json") { snap.render_json() } else { snap.render_prometheus() };
    print!("{text}");
    Ok(())
}

fn field_by_name(name: &str) -> Result<SyntheticField, String> {
    Ok(match name {
        "miranda-pressure" => SyntheticField::MirandaPressure,
        "miranda-viscosity" => SyntheticField::MirandaViscosity,
        "miranda-vx" => SyntheticField::MirandaVelocityX,
        "miranda-density" => SyntheticField::MirandaDensity,
        "s3d-ch4" => SyntheticField::S3dCh4,
        "s3d-temp" => SyntheticField::S3dTemperature,
        "s3d-vx" => SyntheticField::S3dVelocityX,
        "nyx-dm" => SyntheticField::NyxDarkMatterDensity,
        "nyx-vx" => SyntheticField::NyxVelocityX,
        "qmcpack" => SyntheticField::Qmcpack,
        "image2d" => SyntheticField::Image2d,
        _ => return Err(format!("unknown field {name}; run `sperr help`")),
    })
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let name = args.req("field")?;
    let dims = args.req_dims("dims")?;
    let output = args.req("output")?;
    let (ty, _) = require_dtype(args, output)?;
    let seed = args.opt_usize("seed")?.unwrap_or(42) as u64;
    let field = field_by_name(name)?.generate(dims, seed);
    // Generating raw test data at a requested width is a sanctioned
    // narrowing — there is no "original" being degraded.
    write_output(output, |out| Ok(rawio::write_field(out, &field, ty)?))?;
    if !args.flag("quiet") {
        let [nx, ny, nz] = dims;
        writeln!(
            human(output),
            "generated {name} {nx}x{ny}x{nz} (range {:.4e}) -> {output}",
            field.range()
        )
        .ok();
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), CliError> {
    let dims = args.req_dims("dims")?;
    let (ty, _) = require_dtype(args, args.req("original")?)?;
    let a = rawio::read_field(Path::new(args.req("original")?), dims, ty)?;
    let b = rawio::read_field(Path::new(args.req("reconstructed")?), dims, ty)?;
    println!("points:        {}", a.len());
    println!("range:         {:.6e}", a.range());
    println!("rmse:          {:.6e}", sperr_metrics::rmse(&a.data, &b.data));
    println!("max pwe:       {:.6e}", sperr_metrics::max_pwe(&a.data, &b.data));
    println!("psnr:          {:.3} dB", sperr_metrics::psnr(&a.data, &b.data));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn full_cli_roundtrip_via_files() {
        let dir = std::env::temp_dir().join("sperr_cli_main_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        let packed = dir.join("x.sperr");
        let restored = dir.join("y.raw");

        run(&w(&["gen", "--field", "s3d-temp", "--dims", "24,24,16", "--output",
                 raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "24,24,16", "--type", "f64",
                 "--idx", "15", "--quiet"]))
            .unwrap();
        run(&w(&["info", "--input", packed.to_str().unwrap()])).unwrap();
        run(&w(&["decompress", "--input", packed.to_str().unwrap(), "--output",
                 restored.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();

        let a = rawio::read_field(&raw, [24, 24, 16], ScalarType::F64).unwrap();
        let b = rawio::read_field(&restored, [24, 24, 16], ScalarType::F64).unwrap();
        let t = a.range() / f64::exp2(15.0);
        assert!(sperr_metrics::max_pwe(&a.data, &b.data) <= t);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verbose_stage_times_paths_succeed() {
        let dir = std::env::temp_dir().join("sperr_cli_verbose_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        let packed = dir.join("x.sperr");
        let restored = dir.join("y.raw");
        run(&w(&["gen", "--field", "qmcpack", "--dims", "16,16,16", "--output",
                 raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "16,16,16", "--type", "f64",
                 "--idx", "12", "--threads", "2", "--verbose"]))
            .unwrap();
        run(&w(&["info", "--input", packed.to_str().unwrap(), "--verbose"])).unwrap();
        run(&w(&["decompress", "--input", packed.to_str().unwrap(), "--output",
                 restored.to_str().unwrap(), "--type", "f64", "--threads", "2",
                 "--verbose"]))
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_compress_writes_a_valid_chrome_trace() {
        // With the `telemetry` feature a traced multi-chunk compress must
        // emit Chrome trace JSON that passes the exporter's schema check
        // with a span for every compress stage and a worker track; without
        // it the flags warn and record nothing.
        let dir = std::env::temp_dir().join("sperr_cli_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        let packed = dir.join("x.sperr");
        let trace = dir.join("trace.json");
        run(&w(&["gen", "--field", "miranda-density", "--dims", "32,32,32",
                 "--output", raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "32,32,32", "--type", "f64",
                 "--idx", "13", "--chunk", "16,16,16", "--threads", "2", "--stats",
                 "--trace", trace.to_str().unwrap(), "--quiet"]))
            .unwrap();
        if sperr_telemetry::is_enabled() {
            let json = std::fs::read_to_string(&trace).unwrap();
            sperr_telemetry::validate_chrome_trace(&json, sperr_core::stage_labels::COMPRESS)
                .unwrap();
        } else {
            eprintln!("trace validation skipped: built without the `telemetry` feature");
            assert!(!trace.exists(), "trace written by a telemetry-less build");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_flag_and_subcommand_export_snapshots() {
        let dir = std::env::temp_dir().join("sperr_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        let packed = dir.join("x.sperr");
        let prom = dir.join("metrics.prom");
        let json = dir.join("metrics.json");
        run(&w(&["gen", "--field", "miranda-density", "--dims", "24,24,16",
                 "--output", raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "24,24,16", "--type", "f64",
                 "--pwe", "1e-3", "--metrics", prom.to_str().unwrap(), "--quiet"]))
            .unwrap();
        run(&w(&["decompress", "--input", packed.to_str().unwrap(), "--output",
                 dir.join("y.raw").to_str().unwrap(), "--type", "f64",
                 "--metrics", json.to_str().unwrap(), "--quiet"]))
            .unwrap();
        if sperr_telemetry::is_enabled() {
            let text = std::fs::read_to_string(&prom).unwrap();
            // `--pwe` and a full read both run the streaming driver.
            assert!(text.contains("# TYPE sperr_op_compress_stream_seconds summary"));
            assert!(text.contains("quantile=\"0.99\""));
            assert!(text.contains("sperr_stage_speck_encode_seconds_count"));
            assert!(text.contains("sperr_mem_arena_f64_bytes_max"));
            let j = std::fs::read_to_string(&json).unwrap();
            assert!(j.contains("sperr-metrics/v1"));
            assert!(j.contains("op.decompress_stream"));
        } else {
            assert!(!prom.exists(), "metrics written by a telemetry-less build");
        }
        // The subcommand prints the exposition for a recorded decode.
        run(&w(&["metrics", "--input", packed.to_str().unwrap()])).unwrap();
        run(&w(&["metrics", "--input", packed.to_str().unwrap(), "--json"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compress_requires_exactly_one_bound() {
        let dir = std::env::temp_dir().join("sperr_cli_bound_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        run(&w(&["gen", "--field", "nyx-vx", "--dims", "8,8,8", "--output",
                 raw.to_str().unwrap(), "--type", "f32", "--quiet"]))
            .unwrap();
        let base = [
            "compress", "--input", raw.to_str().unwrap(), "--output",
            "/dev/null", "--dims", "8,8,8", "--type", "f32",
        ];
        // none
        assert!(run(&w(&base)).is_err());
        // two
        let mut two = base.to_vec();
        two.extend_from_slice(&["--pwe", "0.1", "--bpp", "2"]);
        assert!(run(&w(&two)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_and_field_errors() {
        assert!(run(&w(&["frobnicate"])).is_err());
        assert!(run(&w(&["gen", "--field", "nope", "--dims", "4,4,4",
                         "--output", "/dev/null", "--type", "f32"]))
            .is_err());
    }

    #[test]
    fn help_paths_succeed() {
        run(&w(&[])).unwrap();
        run(&w(&["help"])).unwrap();
        run(&w(&["compress", "--help"])).unwrap();
    }

    /// The `--name` words USAGE lists under each `sperr NAME` synopsis.
    fn usage_options() -> Vec<(String, Vec<String>)> {
        let synopsis = USAGE.split("USAGE:\n").nth(1).unwrap().split("\n\n").next().unwrap();
        let mut listed: Vec<(String, Vec<String>)> = Vec::new();
        for line in synopsis.lines() {
            let mut words = line.split_whitespace().peekable();
            if words.peek() == Some(&"sperr") {
                listed.push((words.nth(1).unwrap().to_string(), Vec::new()));
            }
            let names = words
                .flat_map(|word| word.split(|c: char| !(c.is_ascii_lowercase() || c == '-')))
                .filter_map(|word| word.strip_prefix("--"));
            listed.last_mut().unwrap().1.extend(names.map(str::to_string));
        }
        listed
    }

    #[test]
    fn each_subcommand_accepts_exactly_the_options_help_lists_for_it() {
        let listed = usage_options();
        assert_eq!(listed.len(), COMMANDS.len());
        for (name, mut listed) in listed {
            let command = COMMANDS.iter().find(|c| c.name == name).unwrap();
            let mut accepted: Vec<String> = (command.options.iter().chain(command.flags))
                .filter(|&&n| n != "type") // legacy spelling of --dtype, named in the prose
                .map(|n| n.to_string())
                .collect();
            accepted.sort();
            listed.sort();
            assert_eq!(accepted, listed, "sperr {name}");
        }
    }

    /// Parses every `sperr <subcommand> …` command in the `sh` blocks of
    /// `readme` — continuation lines joined, pipelines split, trailing
    /// comments dropped — against the `COMMANDS` table, and returns how many
    /// it checked, or the first command that names an unknown subcommand,
    /// an option its subcommand does not take, or a stray argument.
    fn check_readme_commands(readme: &str) -> Result<usize, String> {
        let mut checked = 0;
        for block in readme.split("```sh\n").skip(1) {
            let block = block.split("```").next().unwrap_or("").replace("\\\n", " ");
            for line in block.lines() {
                let line = line.split(" #").next().unwrap_or("");
                for command in line.split('|') {
                    let words: Vec<String> = command.split_whitespace().map(String::from).collect();
                    let Some((program, rest)) = words.split_first() else { continue };
                    if !program.ends_with("sperr") {
                        continue;
                    }
                    let known = rest.split_first().and_then(|(name, rest)| {
                        Some((COMMANDS.iter().find(|c| c.name == name.as_str())?, rest))
                    });
                    let Some((sub, rest)) = known else {
                        return Err(format!("unknown subcommand: {command}"));
                    };
                    let args = Args::parse(rest, sub.options, sub.flags)
                        .map_err(|e| format!("{e}: {command}"))?;
                    if !args.positional().is_empty() {
                        return Err(format!("stray argument: {command}"));
                    }
                    checked += 1;
                }
            }
        }
        Ok(checked)
    }

    #[test]
    fn readme_command_lines_name_only_what_the_cli_accepts() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).unwrap();
        let checked = check_readme_commands(&readme).unwrap();
        assert!(checked >= 10, "only {checked} `sperr` commands found in README.md");
        // The guard bites: a misspelled option, a removed subcommand.
        assert!(check_readme_commands(&readme.replace("--in-flight", "--inflight")).is_err());
        assert!(check_readme_commands(&readme.replace("sperr eval", "sperr evaluate")).is_err());
    }

    #[test]
    fn unknown_options_are_usage_errors_not_silent_defaults() {
        let compress = |extra: &[&str]| {
            let mut v = vec![
                "compress", "--input", "/dev/null", "--output", "/dev/null",
                "--dims", "8,8,8", "--type", "f64", "--idx", "10",
            ];
            v.extend_from_slice(extra);
            run(&w(&v))
        };
        let cases = [
            (compress(&["--q", "3"]), "--q"),
            (compress(&["--theads", "8"]), "--theads"),
            (compress(&["--bogus", "1"]), "--bogus"),
            // A flag and an option that exist, but for other subcommands.
            (compress(&["--verify"]), "--verify"),
            (run(&w(&["info", "--input", "/dev/null", "--dims", "8,8,8"])), "--dims"),
            (run(&w(&["eval", "--quiet"])), "--quiet"),
        ];
        for (result, name) in cases {
            let err = result.unwrap_err();
            assert!(matches!(&err, CliError::Usage(_)), "{name}: {err:?}");
            assert_eq!(exit_code(&err), 2);
            assert!(err.to_string().contains(&format!("unknown option {name};")), "{err}");
        }
    }

    #[test]
    fn q_factor_must_be_finite_and_positive() {
        // Usage errors before any I/O, never a panic (exit 101) in
        // `Sperr::new` or in a pool job.
        for value in ["nan", "inf", "-inf", "0", "-1"] {
            let err = run(&w(&["compress", "--input", "/dev/null", "--output", "/dev/null",
                               "--dims", "8,8,8", "--type", "f64", "--pwe", "0.1",
                               "--q-factor", value]))
                .unwrap_err();
            assert!(matches!(&err, CliError::Usage(_)), "--q-factor {value}: {err:?}");
            assert_eq!(exit_code(&err), 2);
            assert!(err.to_string().contains("--q-factor"), "{err}");
        }
    }

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        assert_eq!(exit_code(&CliError::Io("gone".into())), 1);
        assert_eq!(exit_code(&CliError::Usage("bad flag".into())), 2);
        let c = |e| exit_code(&CliError::Compress(e));
        assert_eq!(c(CompressError::Invalid("x".into())), 3);
        assert_eq!(c(CompressError::Unsupported("x")), 4);
        assert_eq!(c(CompressError::Corrupt("x".into())), 5);
        assert_eq!(c(CompressError::Truncated("x".into())), 6);
        assert_eq!(c(CompressError::LimitExceeded("x".into())), 7);
    }

    #[test]
    fn failures_map_to_their_class() {
        // Missing file -> Io; unknown command / bad options -> Usage;
        // garbage stream -> Compress.
        assert!(matches!(
            run(&w(&["info", "--input", "/nonexistent/x.sperr"])),
            Err(CliError::Io(_))
        ));
        assert!(matches!(run(&w(&["frobnicate"])), Err(CliError::Usage(_))));
        let dir = std::env::temp_dir().join("sperr_cli_class_test");
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.sperr");
        std::fs::write(&junk, [0u8, 1, 2, 3]).unwrap();
        assert!(matches!(
            run(&w(&["info", "--input", junk.to_str().unwrap()])),
            Err(CliError::Compress(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_compress_matches_in_memory_and_roundtrips() {
        // `--stream` changes no output byte. Every bound at both widths
        // writes exactly `compress_with_stats`'s stream on the same
        // samples, a full read writes the same bytes either way, and the
        // random-access reads and `--resilient` work on every decompress.
        let dir = std::env::temp_dir().join("sperr_cli_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let dims = [40, 28, 32];
        let sperr = Sperr::new(SperrConfig { chunk_dims: [16, 16, 16], ..SperrConfig::default() });
        let compress = |raw: &str, packed: &str, ty: &str, extra: &[&str]| {
            let mut args = w(&["compress", "--input", raw, "--output", packed, "--dims",
                               "40,28,32", "--dtype", ty, "--chunk", "16,16,16", "--quiet"]);
            args.extend(w(extra));
            run(&args)
        };
        /// `compress_with_stats` of `field` under the bound a flag pair names.
        fn reference<T: Float>(
            sperr: &Sperr,
            field: std::io::Result<FieldOf<T>>,
            bound: [&str; 2],
        ) -> Vec<u8> {
            let (field, v) = (field.unwrap(), bound[1].parse::<f64>().unwrap());
            let bound = match bound[0] {
                "--pwe" => Bound::Pwe(v),
                "--bpp" => Bound::Bpp(v),
                "--psnr" => Bound::Psnr(v),
                _ => Bound::Pwe(field.tolerance_for_idx(v as u32)),
            };
            sperr.compress_with_stats(&field, bound).unwrap().0
        }
        let decompress = |packed: &str, out: &str, extra: &[&str]| {
            let mut args = w(&["decompress", "--input", packed, "--output", out, "--quiet"]);
            args.extend(w(extra));
            run(&args)
        };
        for ty in ["f32", "f64"] {
            let raw = path(&format!("x.{ty}"));
            run(&w(&["gen", "--field", "miranda-density", "--dims", "40,28,32", "--output",
                     &raw, "--quiet"]))
                .unwrap();
            for bound in [["--pwe", "1e-3"], ["--bpp", "2"], ["--idx", "12"], ["--psnr", "60"]] {
                let samples = Path::new(&raw);
                let want = match ty {
                    "f32" => reference(&sperr, rawio::read_field_f32(samples, dims), bound),
                    _ => reference(&sperr, rawio::read_field(samples, dims, ScalarType::F64), bound),
                };
                let packed = path("x.sperr");
                let spellings: [&[&str]; 3] =
                    [&[], &["--stream"], &["--stream", "--threads", "4", "--in-flight", "6"]];
                for extra in spellings {
                    if !extra.is_empty() && matches!(bound[0], "--idx" | "--psnr") {
                        continue; // refused under --stream
                    }
                    compress(&raw, &packed, ty, &[&bound[..], extra].concat()).unwrap();
                    assert_eq!(std::fs::read(&packed).unwrap(), want, "{ty} {bound:?} {extra:?}");
                }
            }

            // A full read writes the same bytes with and without --stream,
            // in the stream's own width and in the other one.
            let packed = path(&format!("{ty}.sperr"));
            compress(&raw, &packed, ty, &["--pwe", "1e-3"]).unwrap();
            for out_ty in ["f32", "f64"] {
                let (a, b) = (path("a.raw"), path("b.raw"));
                decompress(&packed, &a, &["--dtype", out_ty]).unwrap();
                decompress(&packed, &b, &["--dtype", out_ty, "--stream", "--threads", "4"])
                    .unwrap();
                let (a, b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
                assert_eq!(a, b, "{ty} -> {out_ty}");
            }
            let restored = path(&format!("y.{ty}"));
            decompress(&packed, &restored, &[]).unwrap();
            let st = parse_type(ty).unwrap();
            let a = rawio::read_field(Path::new(&raw), dims, st).unwrap();
            let b = rawio::read_field(Path::new(&restored), dims, st).unwrap();
            assert!(sperr_metrics::max_pwe(&a.data, &b.data) <= 1e-3 * 1.001, "{ty}");

            // The random-access reads still work, without --stream.
            decompress(&packed, &path("r.raw"), &["--region", "5:23,12:20,3:18"]).unwrap();
            decompress(&packed, &path("l.raw"), &["--level", "1"]).unwrap();
            decompress(&packed, &path("p.raw"), &["--preview-bpp", "1"]).unwrap();
        }

        // --resilient on every decompress: a full read (either spelling)
        // and a region read of a stream with one damaged chunk succeed,
        // zero-filling exactly that chunk's voxels.
        let (raw, packed) = (path("x.f64"), path("damaged.sperr"));
        compress(&raw, &packed, "f64", &["--pwe", "1e-3", "--no-lossless"]).unwrap();
        let clean = path("clean.raw");
        decompress(&packed, &clean, &[]).unwrap();
        let mut bytes = std::fs::read(&packed).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF; // the tail of the last chunk's payload
        std::fs::write(&packed, bytes).unwrap();
        let clean = rawio::read_field(Path::new(&clean), dims, ScalarType::F64).unwrap();
        // The last chunk of the 3x2x2 grid: x 32..40, y 16..28, z 16..32.
        let damaged = |x: usize, y: usize, z: usize| x >= 32 && y >= 16 && z >= 16;
        for extra in [&[][..], &["--stream"]] {
            let out = path("resilient.raw");
            let err = decompress(&packed, &out, extra).unwrap_err();
            assert_eq!(exit_code(&err), 5, "{extra:?}: {err}");
            assert!(!Path::new(&out).exists(), "{extra:?} left an output file");
            decompress(&packed, &out, &[extra, &["--resilient"]].concat()).unwrap();
            let got = rawio::read_field(Path::new(&out), dims, ScalarType::F64).unwrap();
            for (i, (&g, &c)) in got.data.iter().zip(&clean.data).enumerate() {
                let (x, y, z) = (i % 40, i / 40 % 28, i / (40 * 28));
                assert_eq!(g, if damaged(x, y, z) { 0.0 } else { c }, "({x},{y},{z}) {extra:?}");
            }
        }
        let region = path("region.raw");
        let err = decompress(&packed, &region, &["--region", "30:40,20:28,10:20"]).unwrap_err();
        assert_eq!(exit_code(&err), 5, "{err}");
        decompress(&packed, &region, &["--region", "30:40,20:28,10:20", "--resilient"]).unwrap();
        let got = rawio::read_field(Path::new(&region), [10, 8, 10], ScalarType::F64).unwrap();
        for (i, &g) in got.data.iter().enumerate() {
            let (x, y, z) = (30 + i % 10, 20 + i / 10 % 8, 10 + i / 80);
            let want = if damaged(x, y, z) { 0.0 } else { clean.data[(z * 28 + y) * 40 + x] };
            assert_eq!(g, want, "region voxel ({x},{y},{z})");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_rejects_full_volume_options() {
        let base = |extra: &[&str]| {
            let mut v = vec![
                "compress", "--input", "/dev/null", "--output", "/dev/null",
                "--dims", "8,8,8", "--type", "f64", "--stream",
            ];
            v.extend_from_slice(extra);
            run(&w(&v))
        };
        assert!(matches!(base(&["--idx", "12"]), Err(CliError::Usage(_))));
        assert!(matches!(base(&["--psnr", "60"]), Err(CliError::Usage(_))));
        assert!(matches!(base(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&w(&["decompress", "--input", "/dev/null", "--output", "/dev/null",
                     "--type", "f64", "--stream", "--level", "1"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn streaming_io_failures_exit_with_io_code_not_panic() {
        // Truncated input file: refused by its length before it is read,
        // exit code 1. (A short stdin is the stream's typed ingest error;
        // `tests/exit_codes.rs` pipes one.)
        let dir = std::env::temp_dir().join("sperr_cli_stream_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let short = dir.join("short.raw");
        std::fs::write(&short, vec![0u8; 128]).unwrap();
        let err = run(&w(&["compress", "--input", short.to_str().unwrap(),
                           "--output", dir.join("o.sperr").to_str().unwrap(),
                           "--dims", "16,16,16", "--type", "f64", "--pwe", "1e-3",
                           "--stream", "--quiet"]))
            .unwrap_err();
        assert!(matches!(&err, CliError::Io(_)), "{err:?}");
        let want = "holds 128 bytes but dims [16, 16, 16] as F64 need 32768";
        assert!(err.to_string().contains(want), "{err}");
        assert_eq!(exit_code(&err), 1);
        assert!(!dir.join("o.sperr").exists());

        // ENOSPC on the output (only meaningful where /dev/full exists).
        if std::path::Path::new("/dev/full").exists() {
            let raw = dir.join("x.raw");
            run(&w(&["gen", "--field", "qmcpack", "--dims", "16,16,16", "--output",
                     raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
                .unwrap();
            let err = run(&w(&["compress", "--input", raw.to_str().unwrap(),
                               "--output", "/dev/full", "--dims", "16,16,16",
                               "--type", "f64", "--pwe", "1e-3", "--stream",
                               "--quiet"]))
                .unwrap_err();
            assert!(matches!(&err, CliError::Stream(SperrError::Io { .. })), "{err:?}");
            assert_eq!(exit_code(&err), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pwe_compress_that_misses_its_bound_exits_3_and_writes_nothing() {
        // Tolerances below what the quantizer's 2^62 cap and the outlier
        // coder can express used to exit 0 with a stream whose own index
        // recorded the miss (4.4 on a field of range 7.8 at 1e-300).
        let dir = std::env::temp_dir().join("sperr_cli_pwe_refusal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        let packed = dir.join("x.sperr");
        run(&w(&["gen", "--field", "miranda-pressure", "--dims", "20,20,20", "--output",
                 raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();
        let compress = |bound: &[&str], stream: bool| {
            let mut args = w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                               packed.to_str().unwrap(), "--dims", "20,20,20", "--type",
                               "f64", "--quiet"]);
            args.extend(w(bound));
            args.extend(w(if stream { &["--stream"] } else { &[] }));
            run(&args)
        };
        for stream in [false, true] {
            for bound in [["--pwe", "1e-300"], ["--pwe", "1e-30"], ["--pwe", "1e-18"], ["--idx", "100"]] {
                if stream && bound[0] == "--idx" {
                    continue; // a usage error in streaming mode
                }
                let err = compress(&bound, stream).unwrap_err();
                assert_eq!(exit_code(&err), 3, "{bound:?} stream={stream}: {err:?}");
                assert!(err.to_string().contains("cannot be met: chunk 0"), "{err}");
                assert!(!packed.exists(), "{bound:?} stream={stream} left an output file");
            }
            compress(&["--pwe", "1e-15"], stream).unwrap();
            assert!(std::fs::metadata(&packed).unwrap().len() > 0);
            std::fs::remove_file(&packed).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_input_exits_3_and_writes_nothing() {
        // One +inf or NaN in a 16³ f64 field used to hang (`--pwe`, in
        // memory and streaming), panic with exit 101 (`--bpp`, `--psnr`)
        // or exit 0 with the NaN decoded as 0.
        let dir = std::env::temp_dir().join("sperr_cli_non_finite_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        let packed = dir.join("x.sperr");
        for bad in [f64::INFINITY, f64::NAN] {
            run(&w(&["gen", "--field", "miranda-pressure", "--dims", "16,16,16", "--output",
                     raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
                .unwrap();
            let mut bytes = std::fs::read(&raw).unwrap();
            bytes[8 * 1234..8 * 1235].copy_from_slice(&bad.to_le_bytes());
            std::fs::write(&raw, bytes).unwrap();
            for bound in [["--pwe", "1e-3"], ["--bpp", "4"], ["--psnr", "60"], ["--idx", "20"]] {
                for stream in [false, true] {
                    if stream && matches!(bound[0], "--psnr" | "--idx") {
                        continue; // a usage error in streaming mode
                    }
                    let mut args = w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                                       packed.to_str().unwrap(), "--dims", "16,16,16", "--type",
                                       "f64", "--quiet"]);
                    args.extend(w(&bound));
                    args.extend(w(if stream { &["--stream"] } else { &[] }));
                    let err = run(&args).unwrap_err();
                    let case = format!("{bad} {bound:?} stream={stream}");
                    assert_eq!(exit_code(&err), 3, "{case}: {err:?}");
                    // `--idx` of an infinite range is an infinite tolerance.
                    let named = err.to_string().contains("linear index 1234 ");
                    assert!(named || bound[0] == "--idx", "{case}: {err}");
                    assert!(!packed.exists(), "{case} left an output file");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_error_classes_map_to_exit_codes() {
        let s = |e| exit_code(&CliError::Stream(e));
        assert_eq!(
            s(SperrError::Io {
                stage: sperr_core::STAGE_EMIT,
                chunk: None,
                kind: std::io::ErrorKind::BrokenPipe,
                message: "broken pipe".into(),
            }),
            1
        );
        assert_eq!(
            s(SperrError::Codec {
                stage: sperr_core::STAGE_CONTAINER,
                chunk: None,
                source: CompressError::Truncated("x".into()),
            }),
            6
        );
        assert_eq!(
            s(SperrError::Panic {
                stage: "stage.speck.encode",
                chunk: Some(3),
                message: "boom".into(),
            }),
            8
        );
    }

    #[test]
    fn verify_flag_detects_payload_corruption() {
        let dir = std::env::temp_dir().join("sperr_cli_verify_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        let packed = dir.join("x.sperr");
        run(&w(&["gen", "--field", "s3d-temp", "--dims", "16,16,16", "--output",
                 raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();
        // No lossless outer wrapper so payload bytes are addressable.
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "16,16,16", "--type", "f64",
                 "--idx", "12", "--no-lossless", "--quiet"]))
            .unwrap();
        // Pristine stream verifies clean.
        run(&w(&["info", "--input", packed.to_str().unwrap(), "--verify"])).unwrap();
        // Flip the stream's last byte (tail of the last chunk payload).
        let mut bytes = std::fs::read(&packed).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&packed, &bytes).unwrap();
        let err = run(&w(&["info", "--input", packed.to_str().unwrap(), "--verify"]))
            .unwrap_err();
        assert!(matches!(&err, CliError::Compress(CompressError::Corrupt(_))), "{err:?}");
        assert_eq!(exit_code(&err), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn region_decode_matches_full_decode_slice() {
        let dir = std::env::temp_dir().join("sperr_cli_region_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        let packed = dir.join("x.sperr");
        let full = dir.join("full.raw");
        let region = dir.join("region.raw");
        let dims = [40, 28, 20];
        run(&w(&["gen", "--field", "miranda-pressure", "--dims", "40,28,20",
                 "--output", raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "40,28,20", "--type", "f64",
                 "--pwe", "1e-3", "--chunk", "16,16,16", "--quiet"]))
            .unwrap();
        run(&w(&["decompress", "--input", packed.to_str().unwrap(), "--output",
                 full.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();
        // A chunk-straddling bbox: crosses the 16-boundary on every axis.
        let (lo, hi) = ([5, 12, 3], [23, 20, 18]);
        run(&w(&["decompress", "--input", packed.to_str().unwrap(), "--output",
                 region.to_str().unwrap(), "--type", "f64", "--region",
                 "5:23,12:20,3:18", "--quiet"]))
            .unwrap();
        let rdims = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
        let f = rawio::read_field(&full, dims, ScalarType::F64).unwrap();
        let r = rawio::read_field(&region, rdims, ScalarType::F64).unwrap();
        for z in 0..rdims[2] {
            for y in 0..rdims[1] {
                for x in 0..rdims[0] {
                    let got = r.data[(z * rdims[1] + y) * rdims[0] + x];
                    let want = f.data
                        [((z + lo[2]) * dims[1] + y + lo[1]) * dims[0] + x + lo[0]];
                    assert_eq!(got.to_bits(), want.to_bits(), "voxel ({x},{y},{z})");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preview_bpp_decodes_full_dims_from_partial_budget() {
        let dir = std::env::temp_dir().join("sperr_cli_preview_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        let packed = dir.join("x.sperr");
        let preview = dir.join("preview.raw");
        run(&w(&["gen", "--field", "s3d-ch4", "--dims", "24,24,16", "--output",
                 raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "24,24,16", "--type", "f64",
                 "--bpp", "8", "--chunk", "16,16,16", "--quiet"]))
            .unwrap();
        run(&w(&["decompress", "--input", packed.to_str().unwrap(), "--output",
                 preview.to_str().unwrap(), "--type", "f64", "--preview-bpp",
                 "1.5", "--quiet"]))
            .unwrap();
        // The preview is a valid full-dims field; coarse, but finite everywhere.
        let p = rawio::read_field(&preview, [24, 24, 16], ScalarType::F64).unwrap();
        assert_eq!(p.data.len(), 24 * 24 * 16);
        assert!(p.data.iter().all(|v| v.is_finite()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn level_no_chunk_has_is_a_typed_error_not_a_shift_overflow() {
        let dir = std::env::temp_dir().join("sperr_cli_level_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        let packed = dir.join("x.sperr");
        let coarse = dir.join("coarse.raw");
        run(&w(&["gen", "--field", "s3d-ch4", "--dims", "32,32,16", "--output",
                 raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "32,32,16", "--type", "f64",
                 "--pwe", "1e-3", "--chunk", "16,16,16", "--quiet"]))
            .unwrap();
        let decompress_at = |level: &str| {
            run(&w(&["decompress", "--input", packed.to_str().unwrap(), "--output",
                     coarse.to_str().unwrap(), "--type", "f64", "--level", level, "--quiet"]))
        };
        decompress_at("1").unwrap();
        assert_eq!(std::fs::metadata(&coarse).unwrap().len(), 16 * 16 * 8 * 8);
        // 64 used to overflow `1 << level` (a panic in debug builds, a
        // level-mod-64-dependent message in release); exit code 3.
        for level in ["64", "65", "18446744073709551615"] {
            let err = decompress_at(level).unwrap_err();
            assert!(matches!(&err, CliError::Compress(CompressError::Invalid(_))), "{err:?}");
            assert_eq!(exit_code(&err), 3);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn region_preview_and_level_are_mutually_exclusive() {
        let combos: &[&[&str]] = &[
            &["--region", "0:4,0:4,0:4", "--level", "1"],
            &["--region", "0:4,0:4,0:4", "--preview-bpp", "1"],
            &["--preview-bpp", "1", "--level", "1"],
        ];
        for extra in combos {
            let mut v = vec![
                "decompress", "--input", "/dev/null", "--output", "/dev/null",
                "--type", "f64",
            ];
            v.extend_from_slice(extra);
            assert!(matches!(run(&w(&v)), Err(CliError::Usage(_))), "{extra:?}");
        }
        // Streaming decompress supports neither random-access option.
        for extra in [&["--region", "0:4,0:4,0:4"][..], &["--preview-bpp", "1"][..]] {
            let mut v = vec![
                "decompress", "--input", "/dev/null", "--output", "/dev/null",
                "--type", "f64", "--stream",
            ];
            v.extend_from_slice(extra);
            assert!(matches!(run(&w(&v)), Err(CliError::Usage(_))), "{extra:?}");
        }
    }

    #[test]
    fn f32_extension_routes_native_path_and_roundtrips() {
        // .f32 in/out with no --dtype: the type is inferred, the stream is
        // f32-native (tag 2), and the restored samples come back through
        // the native decoder with the PWE guarantee intact.
        let dir = std::env::temp_dir().join("sperr_cli_f32_native_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.f32");
        let packed = dir.join("x.sperr");
        let restored = dir.join("y.f32");
        run(&w(&["gen", "--field", "miranda-pressure", "--dims", "24,24,16",
                 "--output", raw.to_str().unwrap(), "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "24,24,16",
                 "--pwe", "1e-2", "--chunk", "16,16,16", "--quiet"]))
            .unwrap();
        let info = Sperr::new(SperrConfig::default())
            .inspect(&std::fs::read(&packed).unwrap())
            .unwrap();
        assert!(info.native_f32, "f32 input must produce a tag-2 stream");
        run(&w(&["info", "--input", packed.to_str().unwrap()])).unwrap();
        run(&w(&["decompress", "--input", packed.to_str().unwrap(), "--output",
                 restored.to_str().unwrap(), "--quiet"]))
            .unwrap();
        let a = rawio::read_field_f32(&raw, [24, 24, 16]).unwrap();
        let b = rawio::read_field_f32(&restored, [24, 24, 16]).unwrap();
        let worst = a
            .data
            .iter()
            .zip(&b.data)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(worst as f64 <= 1e-2 * 1.001, "PWE violated: {worst}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_f32_matches_in_memory_native_path() {
        let dir = std::env::temp_dir().join("sperr_cli_f32_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.f32");
        let packed = dir.join("mem.sperr");
        let packed_stream = dir.join("stream.sperr");
        run(&w(&["gen", "--field", "s3d-ch4", "--dims", "40,28,20", "--output",
                 raw.to_str().unwrap(), "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "40,28,20",
                 "--pwe", "1e-3", "--chunk", "16,16,16", "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed_stream.to_str().unwrap(), "--dims", "40,28,20",
                 "--pwe", "1e-3", "--chunk", "16,16,16", "--threads", "4",
                 "--stream", "--quiet"]))
            .unwrap();
        assert_eq!(
            std::fs::read(&packed).unwrap(),
            std::fs::read(&packed_stream).unwrap(),
            "streaming f32 output must match the in-memory native path"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lossy_narrowing_to_f32_requires_explicit_dtype() {
        let dir = std::env::temp_dir().join("sperr_cli_narrow_guard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.f64");
        let packed = dir.join("x.sperr");
        run(&w(&["gen", "--field", "qmcpack", "--dims", "16,16,16", "--output",
                 raw.to_str().unwrap(), "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "16,16,16",
                 "--idx", "12", "--quiet"]))
            .unwrap();
        // Inferred f32 output from a .f32 extension on an f64 stream:
        // refused before the output is created, with or without --stream.
        for extra in [&[][..], &["--stream"]] {
            let mut args = w(&["decompress", "--input", packed.to_str().unwrap(),
                               "--output", dir.join("y.f32").to_str().unwrap(), "--quiet"]);
            args.extend(w(extra));
            let err = run(&args).unwrap_err();
            assert!(matches!(&err, CliError::Io(_)), "{extra:?}: {err:?}");
            assert!(!dir.join("y.f32").exists(), "{extra:?} left an output file");
        }
        // Explicit --dtype f32 overrides.
        run(&w(&["decompress", "--input", packed.to_str().unwrap(), "--output",
                 dir.join("y.f32").to_str().unwrap(), "--dtype", "f32",
                 "--quiet"]))
            .unwrap();
        // No dtype, no extension: defaults to the stream precision (f64).
        let plain = dir.join("y.raw");
        run(&w(&["decompress", "--input", packed.to_str().unwrap(), "--output",
                 plain.to_str().unwrap(), "--quiet"]))
            .unwrap();
        assert_eq!(
            std::fs::metadata(&plain).unwrap().len(),
            16 * 16 * 16 * 8,
            "default output width must be the stream's f64"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dtype_unresolvable_is_usage_error() {
        let err = run(&w(&["compress", "--input", "/dev/null", "--output",
                           "/dev/null", "--dims", "8,8,8", "--pwe", "0.1"]))
            .unwrap_err();
        assert!(matches!(&err, CliError::Usage(_)), "{err:?}");
        assert_eq!(exit_code(&err), 2);
    }

    #[test]
    fn region_out_of_bounds_is_invalid() {
        let dir = std::env::temp_dir().join("sperr_cli_region_oob_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("x.raw");
        let packed = dir.join("x.sperr");
        run(&w(&["gen", "--field", "image2d", "--dims", "16,16,1", "--output",
                 raw.to_str().unwrap(), "--type", "f64", "--quiet"]))
            .unwrap();
        run(&w(&["compress", "--input", raw.to_str().unwrap(), "--output",
                 packed.to_str().unwrap(), "--dims", "16,16,1", "--type", "f64",
                 "--idx", "12", "--quiet"]))
            .unwrap();
        let err = run(&w(&["decompress", "--input", packed.to_str().unwrap(),
                           "--output", "/dev/null", "--type", "f64", "--region",
                           "0:32,0:16,0:1", "--quiet"]))
            .unwrap_err();
        assert!(matches!(&err, CliError::Compress(CompressError::Invalid(_))), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
