//! Runs `bench --smoke` and holds what it prints against `BENCHMARK.json`:
//! every declared workload and metric, nothing undeclared, units as
//! declared. One test, because the runs share `benchmark/out/` and the
//! machine's cores.

use sperr_benchmark::json::{self, Value};
use sperr_benchmark::workloads::WORKLOADS;
use sperr_benchmark::BENCHMARK_JSON;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds the `sperr` binary the way `run.sh` does and returns its path.
fn sperr_cli() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let built = Command::new(cargo)
        .args(["build", "--release", "--offline", "-p", "sperr-cli"])
        .current_dir(root)
        .status()
        .expect("cargo runs");
    assert!(built.success(), "building sperr-cli failed");
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    root.join(target).join("release/sperr")
}

/// Runs `bench <args>`; returns its exit status and standard output.
fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench")).args(args).output().expect("bench runs");
    (out.status.success(), String::from_utf8(out.stdout).expect("bench prints UTF-8"))
}

/// `name → unit` of one section of `BENCHMARK.json`.
fn declared(contract: &Value, section: &str) -> BTreeMap<String, String> {
    let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).expect(k).to_owned();
    contract
        .get(section)
        .expect(section)
        .as_arr()
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Checks the last line of a driver-style run: exactly the contracted keys,
/// and as metrics exactly the declared section, every value a number.
fn check_last_line(stdout: &str, expected: &BTreeMap<String, String>, never_zero: bool) {
    let last = json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    let keys: Vec<&str> = last.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(last.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0);
    let metrics = last.get("metrics").expect("metrics").as_obj();
    let names: BTreeSet<&String> = metrics.iter().map(|(k, _)| k).collect();
    assert_eq!(names, expected.keys().collect::<BTreeSet<_>>());
    for (name, m) in metrics {
        let value =
            m.get("value").and_then(Value::as_f64).unwrap_or_else(|| panic!("{name} has no value"));
        assert!(value.is_finite() && !(never_zero && value == 0.0), "{name} = {value}");
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(expected[name].as_str()), "{name}");
    }
}

#[test]
fn smoke_run_matches_benchmark_json() {
    let contract = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    assert!(end_to_end.keys().chain(per_layer.keys()).all(|n| valid_name(n)));
    assert_eq!(
        end_to_end.keys().filter(|n| per_layer.contains_key(*n)).count(),
        0,
        "a name is used twice"
    );

    // The workloads in the contract are the workloads in the code.
    let workloads = contract.get("workloads").expect("workloads").as_arr();
    let names: Vec<&str> =
        workloads.iter().map(|w| w.get("name").and_then(Value::as_str).expect("name")).collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    for w in workloads {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {:?} is too long", w.get("name"));
    }

    // The whole report: every line is `workload metric value unit`.
    let cli = sperr_cli();
    let cli = cli.to_str().expect("UTF-8 path");
    let (ok, stdout) = bench(&["--smoke", "--sperr", cli]);
    assert!(ok, "bench --smoke failed:\n{stdout}");
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = json::parse(lines.pop().expect("output")).expect("last line is JSON");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    let mut printed: BTreeMap<&str, BTreeMap<&str, &str>> = BTreeMap::new();
    for line in lines {
        let words: Vec<&str> = line.split(' ').collect();
        let [workload, metric, value, unit] = words[..] else { panic!("malformed line {line:?}") };
        assert!(valid_name(metric) && !unit.is_empty(), "{line:?}");
        assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{line:?}");
        assert!(
            printed.entry(workload).or_default().insert(metric, unit).is_none(),
            "{line:?} printed twice"
        );
    }
    assert_eq!(printed.keys().copied().collect::<Vec<_>>(), {
        let mut n = names.clone();
        n.sort();
        n
    });
    let all: BTreeMap<&str, &str> =
        end_to_end.iter().chain(&per_layer).map(|(n, u)| (n.as_str(), u.as_str())).collect();
    for (workload, metrics) in &printed {
        assert_eq!(
            metrics, &all,
            "{workload} prints other metrics or units than BENCHMARK.json declares"
        );
    }

    // What it leaves behind: results with their context, one trace each,
    // and no scratch directory.
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let results = out.join("results.json");
    let report = json::parse(&std::fs::read_to_string(&results).expect("results.json"))
        .expect("results parse");
    for key in ["git_commit", "rustc", "nproc", "cpu_model", "caches", "load_average_at_start"] {
        assert!(
            report.get("environment").and_then(|e| e.get(key)).is_some(),
            "environment lacks {key}"
        );
    }
    for name in &names {
        let w = report.get("workloads").and_then(|w| w.get(name)).expect("workload in results");
        assert!(
            w.get("raw_bytes").and_then(Value::as_f64)
                > w.get("stream_bytes").and_then(Value::as_f64)
        );
        let timing =
            w.get("end_to_end").and_then(|e| e.get("compress_mbps")).expect("compress_mbps");
        assert!(["value", "unit", "n", "q1", "q3"].iter().all(|k| timing.get(k).is_some()));
        let trace =
            std::fs::read_to_string(out.join(format!("trace-{name}.json"))).expect("trace file");
        let spans = json::parse(&trace).expect("trace parses");
        let spans = spans.get("spans").expect("spans").as_arr();
        for root in ["replay.compress", "replay.decompress"] {
            assert!(
                spans.iter().any(|s| s.get("name").and_then(Value::as_str) == Some(root)),
                "{name}: no {root}"
            );
        }
    }
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .expect("out/")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "scratch left behind: {leftovers:?}");

    // A results file agrees with itself.
    let (ok, table) = bench(&[
        "agree",
        results.to_str().expect("UTF-8 path"),
        results.to_str().expect("UTF-8 path"),
    ]);
    assert!(ok && !table.lines().any(|row| row.ends_with("worse")), "{table}");
    assert_eq!(table.lines().count(), 1 + names.len() * end_to_end.len());

    // The driver's form, on a second seed: one workload, one set of metrics.
    let (ok, stdout) = bench(&[
        "--workload",
        "cli_stream_bpp",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
        "--sperr",
        cli,
    ]);
    assert!(ok, "{stdout}");
    check_last_line(&stdout, &end_to_end, true);
    let (ok, stdout) = bench(&[
        "--workload",
        "chunked_f32_spiky",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
        "--sperr",
        cli,
    ]);
    assert!(ok, "{stdout}");
    check_last_line(&stdout, &per_layer, false);
    assert!(!bench(&["--workload", "no_such_workload"]).0);
}
