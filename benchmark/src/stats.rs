//! Order statistics over timing samples.

use crate::json::Value;

/// The `p`-quantile (`0 < p < 1`) of `samples` by linear interpolation at
/// position `p·(n+1)` — the rule Python's `statistics.quantiles` uses, so
/// quartiles printed here match the ones an outside script computes — but
/// clamped to the sample range instead of extrapolating when `n` is small.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (p * (sorted.len() + 1) as f64).clamp(1.0, sorted.len() as f64);
    let below = pos.floor() as usize;
    let frac = pos - below as f64;
    match sorted.get(below) {
        Some(&above) => sorted[below - 1] + frac * (above - sorted[below - 1]),
        None => sorted[below - 1],
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Throughput in MB/s, a MB being 10^6 bytes; 0 for a call that took no
/// time because it did no work.
pub fn mb_per_s(bytes: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes / 1e6 / secs
    } else {
        0.0
    }
}

/// How a measurement is written wherever one is: `{"value": …, "unit": …}`.
pub fn value_unit(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}

/// What the results file keeps of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            n: samples.len(),
            median: median(samples),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
        }
    }

    /// A metric measured once (a ratio, a byte count).
    pub fn exact(value: f64) -> Summary {
        Summary { n: 1, median: value, q1: value, q3: value }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Value {
        Value::obj([
            ("value", Value::Num(self.median)),
            ("unit", Value::str(unit)),
            ("n", Value::Num(self.n as f64)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let num = |k: &str| v.get(k).and_then(Value::as_f64);
        Some(Summary {
            n: num("n")? as usize,
            median: num("value")?,
            q1: num("q1")?,
            q3: num("q3")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn high_percentile_needs_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&v, 0.9) - 90.9).abs() < 1e-9);
        // Too few samples: clamped to the largest, never extrapolated.
        assert_eq!(quantile(&[1.0, 2.0], 0.9), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.1), 1.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary { n: 10, median: 50.0, q1: 45.0, q3: 55.0 };
        assert!((s.spread() - 0.2).abs() < 1e-12);
        assert_eq!(Summary::exact(3.0).spread(), 0.0);
        assert_eq!(Summary::from_json(&s.to_json("ms")), Some(s));
    }
}
