//! Drained telemetry data and its aggregations: per-label CPU vs. wall
//! time, counter totals, and per-worker busy time. These types compile
//! (and stay usable, as empties) whether or not the `enabled` feature is
//! on, so exporters and printers downstream need no `cfg` of their own.

use std::collections::BTreeMap;

use crate::metrics::MetricsSnapshot;

/// Everything recorded in one `start()`..`stop()` session.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Session open, nanoseconds on the process-wide monotonic clock.
    pub t0_ns: u64,
    /// Session close on the same clock.
    pub t1_ns: u64,
    /// One timeline track per recorded thread, workers first.
    pub tracks: Vec<Track>,
    /// Events discarded because some thread's event buffer filled up.
    pub dropped: u64,
    /// Every thread's histograms, merged and sorted by label.
    pub metrics: MetricsSnapshot,
}

/// One thread's timeline.
#[derive(Debug, Clone)]
pub struct Track {
    /// "worker N" for pool workers (N = slot, caller is 0), else "thread N".
    pub name: String,
    /// Worker slot, when the thread announced one via `set_worker`.
    pub worker: Option<usize>,
    /// Completed spans, ordered by start time.
    pub spans: Vec<Span>,
    /// Raw counter events in recording order.
    pub counters: Vec<CounterEvent>,
}

/// A completed (or forcibly closed at session end) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub label: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Nesting depth within the track (0 = top level).
    pub depth: u16,
    /// Optional numeric payload (e.g. bitplane index, axis level).
    pub value: Option<u64>,
}

/// A single counter increment.
#[derive(Debug, Clone, Copy)]
pub struct CounterEvent {
    pub label: &'static str,
    pub t_ns: u64,
    pub value: u64,
}

/// Per-label span aggregate across all tracks.
#[derive(Debug, Clone)]
pub struct LabelSummary {
    pub label: &'static str,
    /// Number of spans with this label.
    pub count: usize,
    /// Sum of span durations — total CPU time across workers.
    pub cpu_ns: u64,
    /// Union of span intervals — wall-clock footprint of the label.
    /// `cpu_ns / wall_ns` approximates the label's effective parallelism.
    pub wall_ns: u64,
}

impl Report {
    /// True when nothing was recorded (always the case without the
    /// `enabled` feature).
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// Session length on the monotonic clock.
    pub fn wall_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }

    /// Total recorded events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.spans.len() + t.counters.len()).sum()
    }

    /// Whether any track carries a span with this label.
    pub fn has_span(&self, label: &str) -> bool {
        self.tracks.iter().any(|t| t.spans.iter().any(|s| s.label == label))
    }

    /// Counter totals, aggregated across tracks, sorted by label.
    pub fn counter_totals(&self) -> Vec<(&'static str, u64)> {
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for track in &self.tracks {
            for c in &track.counters {
                *totals.entry(c.label).or_insert(0) += c.value;
            }
        }
        totals.into_iter().collect()
    }

    /// Per-label CPU (summed) and wall (interval union) time, sorted by
    /// label.
    pub fn span_summary(&self) -> Vec<LabelSummary> {
        let mut by_label: BTreeMap<&'static str, LabelSpans> = BTreeMap::new();
        for track in &self.tracks {
            for s in &track.spans {
                let entry = by_label.entry(s.label).or_default();
                entry.0 += 1;
                entry.1 += s.dur_ns;
                entry.2.push((s.start_ns, s.start_ns.saturating_add(s.dur_ns)));
            }
        }
        by_label
            .into_iter()
            .map(|(label, (count, cpu_ns, mut intervals))| LabelSummary {
                label,
                count,
                cpu_ns,
                wall_ns: interval_union_ns(&mut intervals),
            })
            .collect()
    }

    /// Per-track busy time: the union of each track's top-level spans.
    /// For pool workers that is exactly the batch-execution timeline, so
    /// `busy / wall` is the worker's utilization.
    pub fn track_busy_ns(&self) -> Vec<(String, u64)> {
        self.tracks
            .iter()
            .map(|t| {
                let mut intervals: Vec<(u64, u64)> = t
                    .spans
                    .iter()
                    .filter(|s| s.depth == 0)
                    .map(|s| (s.start_ns, s.start_ns.saturating_add(s.dur_ns)))
                    .collect();
                (t.name.clone(), interval_union_ns(&mut intervals))
            })
            .collect()
    }

    /// Renders the report as Chrome trace-event JSON (Perfetto-loadable).
    pub fn chrome_trace(&self) -> String {
        crate::chrome::render(self)
    }
}

/// One label's spans while [`Report::span_summary`] folds them: how many,
/// their summed duration, and their `[start, end)` intervals.
type LabelSpans = (usize, u64, Vec<(u64, u64)>);

/// Total length covered by a set of possibly-overlapping intervals.
fn interval_union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((cur_start, cur_end)) if start <= cur_end => {
                current = Some((cur_start, cur_end.max(end)));
            }
            Some((cur_start, cur_end)) => {
                total += cur_end - cur_start;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cur_start, cur_end)) = current {
        total += cur_end - cur_start;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: &'static str, start_ns: u64, dur_ns: u64, depth: u16) -> Span {
        Span { label, start_ns, dur_ns, depth, value: None }
    }

    fn track(name: &str, worker: Option<usize>, spans: Vec<Span>) -> Track {
        Track { name: name.to_string(), worker, spans, counters: Vec::new() }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        let mut iv = vec![(0, 10), (5, 15), (20, 30), (30, 35)];
        assert_eq!(interval_union_ns(&mut iv), 15 + 15);
        let mut empty: Vec<(u64, u64)> = Vec::new();
        assert_eq!(interval_union_ns(&mut empty), 0);
    }

    #[test]
    fn summary_separates_cpu_from_wall() {
        // Two workers run the same label fully overlapped: CPU doubles,
        // wall does not.
        let report = Report {
            t0_ns: 0,
            t1_ns: 100,
            tracks: vec![
                track("worker 0", Some(0), vec![span("stage.speck.encode", 10, 50, 0)]),
                track("worker 1", Some(1), vec![span("stage.speck.encode", 10, 50, 0)]),
            ],
            ..Default::default()
        };
        let summary = report.span_summary();
        assert_eq!(summary.len(), 1);
        assert_eq!(summary[0].count, 2);
        assert_eq!(summary[0].cpu_ns, 100);
        assert_eq!(summary[0].wall_ns, 50);
    }

    #[test]
    fn busy_time_uses_top_level_spans_only() {
        let report = Report {
            t0_ns: 0,
            t1_ns: 100,
            tracks: vec![track(
                "worker 0",
                Some(0),
                vec![span("pool.batch", 0, 40, 0), span("wavelet.fwd.x", 5, 10, 1)],
            )],
            ..Default::default()
        };
        assert_eq!(report.track_busy_ns(), vec![("worker 0".to_string(), 40)]);
    }
}
