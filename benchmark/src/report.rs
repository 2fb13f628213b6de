//! The command: stages a workload's inputs, runs the end-to-end pass and
//! (when asked) the traced pass, each in a child process and strictly one
//! at a time, then prints every metric and writes the results file.

use crate::access::Width;
use crate::json::{self, Value};
use crate::stats::{mb_per_s, median, quantile, value_unit, Summary};
use crate::workloads::{self, Run, Workload, WORKLOADS};
use crate::{agree, e2e, layers, sys, BENCHMARK_JSON};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const DEFAULT_SEED: u64 = 20230512;
/// Times the inputs are staged; `setup_s` is the median.
const SETUP_REPS: usize = 5;

const USAGE: &str = "usage:
  bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--sperr PATH]
      Without --workload: all four workloads, end-to-end and traced passes.
  bench agree A.json B.json
      Compares two results files against the bounds in BENCHMARK.json.";

/// `--key value` pairs and bare words, in the order given.
struct Args {
    words: Vec<String>,
    options: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { words: Vec::new(), options: Vec::new(), smoke: false };
        let mut argv = argv.peekable();
        while let Some(word) = argv.next() {
            match word.strip_prefix("--") {
                Some("smoke") => args.smoke = true,
                Some(key) => {
                    let value = argv.next().ok_or(format!("--{key} needs a value"))?;
                    args.options.push((key.to_owned(), value));
                }
                None => args.words.push(word),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn number<N: std::str::FromStr>(&self, key: &str, default: N) -> Result<N, String> {
        self.get(key)
            .map_or(Ok(default), |v| v.parse().map_err(|_| format!("--{key}: bad value {v}")))
    }
}

pub fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)` is a run that measured but found something wrong.
fn run(argv: impl Iterator<Item = String>) -> Result<bool, String> {
    let args = Args::parse(argv)?;
    let contract = json::parse(BENCHMARK_JSON)?;
    match args.words.first().map(String::as_str) {
        Some("agree") => match &args.words[1..] {
            [a, b] => agree::compare(&contract, Path::new(a), Path::new(b)),
            _ => Err(USAGE.into()),
        },
        Some("child") => child(&args, &contract).map(|()| true),
        Some(_) => Err(USAGE.into()),
        None => parent(&args, &contract),
    }
}

fn settings(
    args: &Args,
    workload: &'static Workload,
    dir: PathBuf,
    contract: &Value,
) -> Result<Run, String> {
    let run_seconds =
        contract.get("run_seconds").and_then(Value::as_f64).ok_or("no run_seconds")?;
    Ok(Run {
        workload,
        seed: args.number("seed", DEFAULT_SEED)?,
        seconds: args.number("seconds", run_seconds)?,
        smoke: args.smoke,
        dir,
        sperr: args.get("sperr").map_or_else(default_sperr, PathBuf::from),
    })
}

/// The CLI when `--sperr` is not given (`run.sh` always gives it): where the
/// root workspace's own release build leaves it.
fn default_sperr() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/release/sperr")
}

fn sibling(name: &str) -> PathBuf {
    std::env::current_exe().expect("a running binary has a path").with_file_name(name)
}

/// One measured pass, in the process made for it.
fn child(args: &Args, contract: &Value) -> Result<(), String> {
    let name = args.get("workload").ok_or(USAGE)?;
    let workload = workloads::find(name).ok_or(format!("no workload {name}"))?;
    let dir = PathBuf::from(args.get("dir").ok_or(USAGE)?);
    let run = settings(args, workload, dir, contract)?;
    fn pass<T: Width>(run: &Run, trace_file: Option<&str>) -> Result<Value, String> {
        match trace_file {
            Some(path) => layers::pass::<T>(run, Path::new(path)),
            None => e2e::pass::<T>(run),
        }
    }
    let trace_file = args.get("trace-file");
    let result = if workload.f32_samples {
        pass::<f32>(&run, trace_file)
    } else {
        pass::<f64>(&run, trace_file)
    }?;
    println!("{}", result.compact());
    Ok(())
}

/// Removes the scratch directory on every way out, unwinding included.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `exe child …` for `run` and parses the one JSON line it prints.
fn spawn_pass(exe: &Path, run: &Run, trace_file: Option<&Path>) -> Result<Value, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", run.workload.name]).arg("--dir").arg(&run.dir);
    cmd.args(["--seed", &run.seed.to_string(), "--seconds", &run.seconds.to_string()]);
    cmd.arg("--sperr").arg(&run.sperr);
    if run.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = trace_file {
        cmd.arg("--trace-file").arg(path);
    }
    let out =
        cmd.stderr(Stdio::inherit()).output().map_err(|e| format!("{}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} pass of {} ended with {}",
            exe.display(),
            run.workload.name,
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    json::parse(text.lines().last().unwrap_or(""))
}

/// One metric of one workload: the median of its samples, or the one value.
struct Metric {
    name: String,
    unit: String,
    summary: Summary,
}

fn metric(name: &str, unit: &str, summary: Summary) -> Metric {
    Metric { name: name.to_owned(), unit: unit.to_owned(), summary }
}

/// Everything measured on one workload.
struct Measured {
    raw_bytes: f64,
    stream_bytes: f64,
    attempted: f64,
    failed: f64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn measure(run: &Run, out_dir: &Path, trace: bool) -> Result<Measured, String> {
    let _scratch = Scratch(run.dir.clone());
    std::fs::create_dir_all(&run.dir).map_err(|e| format!("{}: {e}", run.dir.display()))?;
    let setup_s: Vec<f64> = (0..if run.smoke { 1 } else { SETUP_REPS })
        .map(|_| {
            let start = Instant::now();
            run.stage().map(|()| start.elapsed().as_secs_f64())
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("staging {}: {e}", run.workload.name))?;

    let e2e = spawn_pass(&sibling("bench"), run, None)?;
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let mut m = Measured {
        raw_bytes: num(&e2e, "raw_bytes"),
        stream_bytes: num(&e2e, "stream_bytes"),
        attempted: num(&e2e, "attempted"),
        failed: num(&e2e, "failed"),
        end_to_end: vec![metric("setup_s", "s", Summary::of(&setup_s))],
        per_layer: Vec::new(),
    };
    let (compress_s, decompress_s) = (e2e.f64s("compress_s"), e2e.f64s("decompress_s"));
    let (region_ms, preview_ms) = (e2e.f64s("region_ms"), e2e.f64s("preview_ms"));
    if [&compress_s, &decompress_s, &region_ms, &preview_ms].iter().any(|s| s.is_empty()) {
        // The pass stopped at a failed operation; its counts are all there is.
        return Ok(m);
    }
    // MB of raw input at its native width, per sample.
    let rate = |secs: &[f64]| secs.iter().map(|&s| mb_per_s(m.raw_bytes, s)).collect::<Vec<f64>>();
    let exact = |key: &str| Summary::exact(num(&e2e, key));
    let region_p90 = Summary { n: region_ms.len(), ..Summary::exact(quantile(&region_ms, 0.9)) };
    m.end_to_end.extend([
        metric("compress_mbps", "MB/s", Summary::of(&rate(&compress_s))),
        metric("decompress_mbps", "MB/s", Summary::of(&rate(&decompress_s))),
        metric("ratio", "x", exact("ratio")),
        metric("psnr_db", "dB", exact("psnr_db")),
        metric("peak_rss_mb", "MB", exact("peak_rss_mb")),
        metric("region_p50_ms", "ms", Summary::of(&region_ms)),
        metric("region_p90_ms", "ms", region_p90),
        metric("preview_p50_ms", "ms", Summary::of(&preview_ms)),
    ]);

    if trace {
        let trace_file = out_dir.join(format!("trace-{}.json", run.workload.name));
        let traced = spawn_pass(&sibling("bench-traced"), run, Some(&trace_file))?;
        m.attempted += num(&traced, "attempted");
        m.failed += num(&traced, "failed");
        for (name, v) in traced.get("metrics").map_or(&[][..], Value::as_obj) {
            let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
            m.per_layer.push(metric(name, unit, Summary::exact(num(v, "value"))));
        }
        // The same compress + decompress, here and in the untraced binary.
        let overhead = num(&traced, "roundtrip_s") / (median(&compress_s) + median(&decompress_s));
        m.per_layer.extend([
            metric("trace.overhead_share", "share", Summary::exact(overhead - 1.0)),
            metric("failed_share", "share", Summary::exact(m.failed / m.attempted)),
        ]);
    }
    Ok(m)
}

impl Measured {
    fn print(&self, workload: &str) {
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            println!("{workload} {} {} {}", m.name, m.summary.median, m.unit);
        }
    }

    fn to_json(&self) -> Value {
        let section = |metrics: &[Metric]| {
            Value::obj(metrics.iter().map(|m| (m.name.as_str(), m.summary.to_json(&m.unit))))
        };
        Value::obj([
            ("raw_bytes", Value::Num(self.raw_bytes)),
            ("stream_bytes", Value::Num(self.stream_bytes)),
            ("attempted", Value::Num(self.attempted)),
            ("failed", Value::Num(self.failed)),
            ("end_to_end", section(&self.end_to_end)),
            ("per_layer", section(&self.per_layer)),
        ])
    }

    /// The metrics `BENCHMARK.json` declares under `section`, as the last
    /// line of a run reports them; an error names the first one missing.
    fn declared(&self, contract: &Value, section: &str) -> Result<Value, String> {
        let measured = if section == "end_to_end" { &self.end_to_end } else { &self.per_layer };
        let mut out = Vec::new();
        for entry in contract.get(section).map_or(&[][..], Value::as_arr) {
            let name = entry.get("name").and_then(Value::as_str).unwrap_or("");
            match measured.iter().find(|m| m.name == name) {
                Some(m) if m.summary.median.is_finite() => {
                    out.push((name.to_owned(), value_unit(m.summary.median, &m.unit)))
                }
                _ => return Err(format!("declared metric {name} was not measured")),
            }
        }
        Ok(Value::Obj(out))
    }
}

fn parent(args: &Args, contract: &Value) -> Result<bool, String> {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    // One workload and one set of metrics when the driver asks for them;
    // everything otherwise.
    let (chosen, trace, file) = match args.get("workload") {
        Some(name) => (
            vec![workloads::find(name).ok_or(format!("no workload {name}"))?],
            args.number("trace", 0u8)? != 0,
            format!("results-{name}.json"),
        ),
        None => (WORKLOADS.iter().collect(), true, "results.json".to_owned()),
    };
    let runs = chosen
        .into_iter()
        .map(|w| {
            let dir = out_dir.join(format!("tmp-{}-{}", std::process::id(), w.name));
            settings(args, w, dir, contract)
        })
        .collect::<Result<Vec<Run>, String>>()?;
    let environment = sys::environment();
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    let (mut results, mut last_line_metrics) = (Vec::new(), Value::Obj(Vec::new()));
    for run in &runs {
        let m = measure(run, &out_dir, trace)?;
        m.print(run.workload.name);
        attempted += m.attempted;
        failed += m.failed;
        // With --trace 1 the last line carries the per-layer metrics, but the
        // end-to-end pass ran too and must be complete.
        let sections = if trace { &["end_to_end", "per_layer"][..] } else { &["end_to_end"][..] };
        for section in sections {
            match m.declared(contract, section) {
                Ok(metrics) => last_line_metrics = metrics,
                Err(e) => {
                    eprintln!("bench: {}: {e}", run.workload.name);
                    correct = false;
                }
            }
        }
        results.push((run.workload.name, m.to_json()));
    }
    correct &= failed == 0.0;

    let file = out_dir.join(file);
    let report = Value::obj([
        ("schema", Value::str("sperr-benchmark/v1")),
        ("seed", Value::Num(runs[0].seed as f64)),
        ("seconds", Value::Num(runs[0].seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("setup_reps", Value::Num(if args.smoke { 1.0 } else { SETUP_REPS as f64 })),
        ("environment", environment),
        ("workloads", Value::obj(results)),
    ]);
    std::fs::write(&file, report.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!("results: {}", file.display());

    let mut last = vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted)),
        ("failed", Value::Num(failed)),
    ];
    if args.get("workload").is_some() {
        last.push(("metrics", last_line_metrics));
    }
    println!("{}", Value::obj(last).compact());
    Ok(correct)
}
