//! `bench agree A.json B.json`: do two results files tell the same story?
//! Every workload × end-to-end metric pair of B is held against A with the
//! bound `BENCHMARK.json` fixes for that metric.

use crate::json::{self, Value};
use crate::stats::Summary;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The samples of A or B are spread wider than the bound, so a
    /// difference inside it cannot be told from noise.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn judge(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64) -> Verdict {
    if worsening(a.median, b.median, lower_is_better) > bound {
        Verdict::Worse
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints one row per pair and returns whether none is `worse`.
pub fn compare(contract: &Value, a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let workloads = |v: &Value| v.get("workloads").map_or(Vec::new(), |w| w.as_obj().to_vec());
    let (mut pairs, mut all_ok) = (0, true);
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse%", "bound%", "iqr%"
    );
    for (workload, in_a) in workloads(&a) {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(&workload)) else { continue };
        for entry in contract.get("end_to_end").map_or(&[][..], Value::as_arr) {
            let name = entry.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let bound =
                entry.get("bound").and_then(Value::as_f64).ok_or("metric without a bound")?;
            let lower = entry.get("better").and_then(Value::as_str) == Some("lower");
            let summary = |v: &Value| v.get("end_to_end")?.get(name).and_then(Summary::from_json);
            let (Some(sa), Some(sb)) = (summary(&in_a), summary(in_b)) else {
                return Err(format!("{workload} {name} is missing from one of the files"));
            };
            let verdict = judge(&sa, &sb, lower, bound);
            all_ok &= verdict != Verdict::Worse;
            pairs += 1;
            println!(
                "{workload:<18} {name:<16} {:>12.5} {:>12.5} {:>8.2} {:>7.2} {:>7.2}  {}",
                sa.median,
                sb.median,
                worsening(sa.median, sb.median, lower) * 100.0,
                bound * 100.0,
                sa.spread().max(sb.spread()) * 100.0,
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    if pairs == 0 {
        return Err("the two files share no workload".into());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary { n: 10, median, q1: median * 0.99, q3: median * 1.01 }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 112.0, true) - 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 112.0, false) + 0.12).abs() < 1e-12);
        assert_eq!(judge(&tight(100.0), &tight(112.0), true, 0.1), Verdict::Worse);
        assert_eq!(judge(&tight(100.0), &tight(112.0), false, 0.1), Verdict::Ok);
        assert_eq!(judge(&tight(100.0), &tight(88.0), false, 0.1), Verdict::Worse);
        assert_eq!(judge(&tight(100.0), &tight(109.0), true, 0.1), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let noisy = Summary { n: 10, median: 100.0, q1: 90.0, q3: 110.0 };
        assert_eq!(judge(&noisy, &tight(101.0), true, 0.1), Verdict::Unresolved);
        assert_eq!(judge(&tight(100.0), &noisy, true, 0.1), Verdict::Unresolved);
        // A difference beyond the bound is still reported as worse.
        assert_eq!(judge(&noisy, &tight(150.0), true, 0.1), Verdict::Worse);
    }
}
