//! Metrics data model: log-linear histograms, merged snapshots, and the
//! JSON / Prometheus text-exposition renderers. Everything here compiles
//! whether or not the `enabled` feature is on (like [`crate::Report`]),
//! so the CLI and bench exporters need no `cfg` of their own; only the
//! per-thread recorders that fill the histograms live behind the feature
//! gate.
//!
//! # Bucket scheme
//!
//! Values are `u64` (nanoseconds, bytes, or plain counts). Buckets are
//! log-linear: values below 2^[`SUB_BITS`] get one bucket each (exact),
//! and every octave above is split into 2^[`SUB_BITS`] = 16 linear
//! sub-buckets. A bucket covering value `v` therefore has width at most
//! `v / 16`, so any quantile read off the bucket upper edge exceeds the
//! true sample value by at most **6.25% relative error** (plus ±1
//! absolute in the exact range). That bound is what the quantile
//! proptests in `tests/metrics.rs` pin.
//!
//! 16 exact buckets + 60 octaves × 16 sub-buckets = 976 buckets ≈ 7.8 KiB
//! of counts per histogram — small enough to keep one histogram per
//! (label × thread) without blowing the per-thread footprint past the
//! event buffers'.

/// Linear sub-bucket resolution: 2^SUB_BITS sub-buckets per octave.
pub const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count covering the whole `u64` range.
pub const NUM_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Maximum relative error of a quantile estimate vs the true sample
/// value (documented bound; see module docs).
pub const QUANTILE_REL_ERROR: f64 = 1.0 / SUB as f64;

/// Bucket index for a value. Total order preserving: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // position of leading 1, >= SUB_BITS
        let octave = (e - SUB_BITS) as usize;
        let sub = ((v >> (e - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB + octave * SUB + sub
    }
}

/// Exclusive upper edge of a bucket: every value in bucket `i` is
/// strictly below this. Saturates at `u64::MAX` for the top bucket.
pub fn bucket_upper_edge(i: usize) -> u64 {
    if i < SUB {
        i as u64 + 1
    } else {
        let octave = (i - SUB) / SUB;
        let sub = ((i - SUB) % SUB) as u64;
        let e = octave as u32 + SUB_BITS;
        let width = 1u64 << octave;
        let lower = (1u64 << e) + sub * width;
        lower.saturating_add(width)
    }
}

/// What a histogram's values measure, deciding the Prometheus unit
/// suffix and scale (`Nanos` exports as seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// Durations recorded in nanoseconds; exported as `_seconds`.
    Nanos,
    /// Byte sizes; exported as `_bytes`.
    Bytes,
    /// Dimensionless counts (e.g. in-flight chunk occupancy).
    Units,
}

impl Unit {
    /// Prometheus metric-name suffix for this unit.
    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Nanos => "_seconds",
            Unit::Bytes => "_bytes",
            Unit::Units => "",
        }
    }

    /// Scale factor from the recorded integer to the exported value.
    pub fn scale(self) -> f64 {
        match self {
            Unit::Nanos => 1e-9,
            Unit::Bytes | Unit::Units => 1.0,
        }
    }
}

/// A mergeable log-linear histogram with count/sum/min/max sidecars.
#[derive(Clone)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    /// `u64::MAX` while empty.
    pub min: u64,
    pub max: u64,
    counts: Box<[u64; NUM_BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            counts: Box::new([0u64; NUM_BUCKETS]),
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another histogram into this one. Bucket-wise addition, so
    /// the operation is associative and commutative (pinned by proptest)
    /// — per-thread histograms can be merged in any order at `stop()`.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Raw bucket counts (index via [`bucket_index`]).
    pub fn bucket_counts(&self) -> &[u64; NUM_BUCKETS] {
        &self.counts
    }

    /// Quantile estimate: the upper edge of the bucket holding the
    /// `q`-rank sample, clamped to the observed max. Guaranteed to be
    /// `>=` the true q-quantile sample and to exceed it by at most
    /// [`QUANTILE_REL_ERROR`] relatively (±1 absolute below 2^SUB_BITS).
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_edge(i).min(self.max);
            }
        }
        self.max
    }
}

/// One named histogram in a merged snapshot.
#[derive(Debug, Clone)]
pub struct MetricEntry {
    /// Dotted label as recorded (e.g. `stage.wavelet.forward`).
    pub name: String,
    pub unit: Unit,
    pub hist: Histogram,
}

impl MetricEntry {
    fn quantiles(&self) -> [(f64, u64); 4] {
        [
            (0.5, self.hist.quantile(0.5)),
            (0.9, self.hist.quantile(0.9)),
            (0.99, self.hist.quantile(0.99)),
            (0.999, self.hist.quantile(0.999)),
        ]
    }
}

/// Every thread's histograms of one session, merged. Obtained from
/// [`crate::Report::metrics`]; always empty without the `enabled`
/// feature.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Entries sorted by name.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by its recorded label.
    pub fn get(&self, name: &str) -> Option<&MetricEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Renders the snapshot as a JSON object: one key per metric with
    /// count/sum/min/max and the four tracked quantiles, all in the
    /// recorded integer unit (nanoseconds stay nanoseconds here; the
    /// Prometheus export is the one that scales to seconds).
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.entries.len() * 160);
        out.push_str("{\n  \"schema\": \"sperr-metrics/v1\",\n");
        out.push_str("  \"metrics\": {");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let unit = match e.unit {
                Unit::Nanos => "ns",
                Unit::Bytes => "bytes",
                Unit::Units => "count",
            };
            let min = if e.hist.count == 0 { 0 } else { e.hist.min };
            out.push_str(&format!(
                "\n    {}: {{\"unit\": \"{unit}\", \"count\": {}, \"sum\": {}, \
                 \"min\": {min}, \"max\": {}",
                json_escape(&e.name),
                e.hist.count,
                e.hist.sum,
                e.hist.max,
            ));
            for (q, v) in e.quantiles() {
                out.push_str(&format!(", \"p{}\": {v}", (q * 1000.0) as u32));
            }
            out.push('}');
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// one `summary` per histogram (quantile series plus `_sum`/`_count`)
    /// and a companion `_max` gauge carrying the high-water mark —
    /// summaries have no max of their own, and the arena/in-flight
    /// metrics exist precisely for their peaks. Label names are mangled
    /// to `sperr_<dotted_label><unit suffix>`; durations are scaled to
    /// seconds per Prometheus convention.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(256 + self.entries.len() * 400);
        for e in &self.entries {
            let name = format!("sperr_{}{}", mangle(&e.name), e.unit.suffix());
            let scale = e.unit.scale();
            out.push_str(&format!(
                "# HELP {name} Distribution of \"{}\" samples.\n",
                e.name
            ));
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, v) in e.quantiles() {
                out.push_str(&format!(
                    "{name}{{quantile=\"{q}\"}} {}\n",
                    fmt_value(v as f64 * scale)
                ));
            }
            out.push_str(&format!("{name}_sum {}\n", fmt_value(e.hist.sum as f64 * scale)));
            out.push_str(&format!("{name}_count {}\n", e.hist.count));
            out.push_str(&format!("# HELP {name}_max Peak \"{}\" sample.\n", e.name));
            out.push_str(&format!("# TYPE {name}_max gauge\n"));
            out.push_str(&format!("{name}_max {}\n", fmt_value(e.hist.max as f64 * scale)));
        }
        out
    }
}

/// Dotted label → Prometheus metric-name fragment: anything outside
/// `[a-zA-Z0-9_]` becomes `_`.
fn mangle(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect()
}

/// Prometheus sample values: plain decimal, no exponent for the common
/// magnitudes the scrape consumes, finite by construction.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 2,
            u64::MAX,
        ];
        let mut prev = None;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            if let Some((pv, pi)) = prev {
                assert!(pv <= v);
                assert!(pi <= i, "bucket order broken between {pv} and {v}");
            }
            // The value lies strictly below its bucket's upper edge …
            assert!(v < bucket_upper_edge(i) || bucket_upper_edge(i) == u64::MAX);
            // … and the edge respects the documented relative error.
            if v >= 16 {
                let edge = bucket_upper_edge(i);
                assert!(
                    edge as f64 <= v as f64 * (1.0 + QUANTILE_REL_ERROR) + 1.0,
                    "edge {edge} too far above {v}"
                );
            }
            prev = Some((v, i));
        }
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        let p50 = h.quantile(0.5);
        assert!((500..=540).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [3u64, 17, 17, 900, 1 << 30] {
            a.record(v);
            both.record(v);
        }
        for v in [5u64, 17, 1 << 40] {
            b.record(v);
            both.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count, both.count);
        assert_eq!(a.sum, both.sum);
        assert_eq!(a.min, both.min);
        assert_eq!(a.max, both.max);
        assert_eq!(a.bucket_counts()[..], both.bucket_counts()[..]);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let mut h = Histogram::new();
        for v in [1_000_000u64, 2_000_000, 30_000_000] {
            h.record(v);
        }
        let snap = MetricsSnapshot {
            entries: vec![
                MetricEntry { name: "op.compress.f64".into(), unit: Unit::Nanos, hist: h.clone() },
                MetricEntry { name: "mem.arena".into(), unit: Unit::Bytes, hist: h },
            ],
        };
        let text = snap.render_prometheus();
        assert!(text.ends_with('\n'));
        assert!(text.contains("# TYPE sperr_op_compress_f64_seconds summary"));
        assert!(text.contains("sperr_op_compress_f64_seconds{quantile=\"0.5\"} "));
        assert!(text.contains("sperr_op_compress_f64_seconds_count 3"));
        assert!(text.contains("# TYPE sperr_mem_arena_bytes_max gauge"));
        // Every non-comment line is `name[{labels}] value` with a finite
        // float value — the shape a Prometheus scraper requires.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            let v: f64 = value.parse().expect("sample value parses as float");
            assert!(v.is_finite());
        }
    }

    #[test]
    fn json_snapshot_mentions_every_metric() {
        let mut h = Histogram::new();
        h.record(42);
        let snap = MetricsSnapshot {
            entries: vec![MetricEntry {
                name: "stream.in_flight".into(),
                unit: Unit::Units,
                hist: h,
            }],
        };
        let json = snap.render_json();
        assert!(json.contains("\"sperr-metrics/v1\""));
        assert!(json.contains("\"stream.in_flight\""));
        assert!(json.contains("\"p999\""));
    }
}
