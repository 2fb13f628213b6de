//! The recording runtime behind the `enabled` feature: one [`Recorder`]
//! per thread, one global registry of them, and the start/stop session
//! machinery that drains every recorder into a [`Report`].
//!
//! Concurrency model: a recorder is written by its owning thread and read
//! by `start()`/`stop()`, each access under the recorder's own `Mutex`.
//! Outside those two calls the lock is uncontended. A recorder holds the
//! thread's event buffer and, beside it, the thread's histograms, so a
//! full buffer never costs a histogram sample. The buffer's capacity is
//! reserved when the recorder is made, at the thread's first recorded
//! event or sample; when it is full, further events are dropped and
//! counted ([`Report::dropped`]) instead of allocating. A drop can orphan
//! a span's exit event, in which case the span is closed at session end
//! during pairing. There is a benign race at session boundaries (a thread
//! that loaded the recording flag just before `stop()` may land one more
//! event); since sessions bracket whole pipeline runs and `start()`
//! resets every recorder, this cannot leak events across sessions.

use std::cell::{Cell, OnceCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::metrics::{Histogram, MetricEntry, MetricsSnapshot, Unit};
use crate::report::{CounterEvent, Report, Span, Track};

/// Events per thread before overflow. 64 Ki events × 40 B ≈ 2.5 MiB per
/// recorded thread — enough for hundreds of chunks of per-stage,
/// per-axis, and per-bitplane spans.
const RING_CAPACITY: usize = 1 << 16;

const K_ENTER: u8 = 0;
const K_EXIT: u8 = 1;
const K_COUNTER: u8 = 2;

/// Sentinel for "span has no numeric payload".
const NO_VALUE: u64 = u64::MAX;

#[derive(Clone, Copy)]
struct Event {
    t_ns: u64,
    value: u64,
    label: &'static str,
    kind: u8,
}

/// One thread's recording: its events, its worker slot and its
/// histograms.
struct Recorder {
    /// At most [`RING_CAPACITY`] events, all of it reserved up front.
    events: Vec<Event>,
    /// Events discarded because `events` was full.
    dropped: u64,
    /// Worker slot + 1 as reported via [`set_worker`]; 0 = unnamed.
    worker: usize,
    hists: BTreeMap<&'static str, (Unit, Histogram)>,
}

impl Recorder {
    #[inline]
    fn push(&mut self, ev: Event) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    #[inline]
    fn record(&mut self, label: &'static str, unit: Unit, value: u64) {
        self.hists.entry(label).or_insert_with(|| (unit, Histogram::new())).1.record(value);
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static SESSION_T0: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Vec<Arc<Mutex<Recorder>>>> = Mutex::new(Vec::new());
static ANCHOR: OnceLock<Instant> = OnceLock::new();

#[inline]
fn now_ns() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nothing panics while a recorder or the registry is locked, and every
/// update leaves either valid, so a poisoned lock is taken as it is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    /// Worker slot + 1 announced before the thread's recorder exists (the
    /// pool names its threads up front; the recorder is only made at the
    /// first recorded event, so an instrumented build that never records
    /// never allocates).
    static WORKER_HINT: Cell<usize> = const { Cell::new(0) };
    static RECORDER: OnceCell<Arc<Mutex<Recorder>>> = const { OnceCell::new() };
}

fn register() -> Arc<Mutex<Recorder>> {
    let recorder = Arc::new(Mutex::new(Recorder {
        events: Vec::with_capacity(RING_CAPACITY),
        dropped: 0,
        worker: WORKER_HINT.with(Cell::get),
        hists: BTreeMap::new(),
    }));
    lock(&REGISTRY).push(Arc::clone(&recorder));
    recorder
}

/// Runs `f` on the calling thread's recorder, making it on first use.
#[inline]
fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|cell| f(&mut lock(cell.get_or_init(register))));
}

#[inline]
fn push_event(kind: u8, label: &'static str, value: u64) {
    if !is_recording() {
        return;
    }
    let t_ns = now_ns();
    with_recorder(|r| r.push(Event { t_ns, value, label, kind }));
}

/// Records one histogram sample under `label` on the calling thread.
#[inline]
pub(crate) fn record(label: &'static str, unit: Unit, value: u64) {
    if is_recording() {
        with_recorder(|r| r.record(label, unit, value));
    }
}

/// Scoped span handle: records an enter event at construction and an
/// exit event when dropped. Spans nest; pairing relies on drop order.
pub struct SpanGuard {
    label: &'static str,
}

impl SpanGuard {
    #[inline]
    pub fn new(label: &'static str) -> SpanGuard {
        push_event(K_ENTER, label, NO_VALUE);
        SpanGuard { label }
    }

    #[inline]
    pub fn with_value(label: &'static str, value: u64) -> SpanGuard {
        push_event(K_ENTER, label, if value == NO_VALUE { NO_VALUE - 1 } else { value });
        SpanGuard { label }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        push_event(K_EXIT, self.label, NO_VALUE);
    }
}

/// Adds `value` to the named counter.
#[inline]
pub fn add_counter(label: &'static str, value: u64) {
    push_event(K_COUNTER, label, value);
}

/// Names the calling thread's timeline track after a worker slot.
/// Cheap and callable whether or not a session is active.
pub fn set_worker(slot: usize) {
    WORKER_HINT.with(|c| c.set(slot + 1));
    RECORDER.with(|cell| {
        if let Some(recorder) = cell.get() {
            lock(recorder).worker = slot + 1;
        }
    });
}

/// True while a recording session is active.
#[inline]
pub fn is_recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Begins a recording session: prunes recorders whose threads have
/// exited, empties the survivors' events and histograms, and opens the
/// gate.
pub fn start() {
    let mut registry = lock(&REGISTRY);
    // A recorder whose owning thread is gone has strong_count == 1 (the
    // registry's own reference); keeping it would only accumulate dead
    // tracks and memory across sessions.
    registry.retain(|recorder| Arc::strong_count(recorder) > 1);
    for recorder in registry.iter() {
        let mut r = lock(recorder);
        r.events.clear();
        r.dropped = 0;
        r.hists.clear();
    }
    SESSION_T0.store(now_ns(), Ordering::Relaxed);
    RECORDING.store(true, Ordering::Release);
}

/// Ends the session and drains every recorder into a [`Report`]: events
/// into tracks, ordered workers-first (by slot), then unnamed threads;
/// histograms merged across threads into [`Report::metrics`], sorted by
/// label.
pub fn stop() -> Report {
    RECORDING.store(false, Ordering::Release);
    let t1_ns = now_ns();
    let t0_ns = SESSION_T0.load(Ordering::Relaxed);

    let mut tracks = Vec::new();
    let mut dropped = 0u64;
    let mut unnamed = 0usize;
    let mut merged: BTreeMap<&'static str, (Unit, Histogram)> = BTreeMap::new();
    for recorder in lock(&REGISTRY).iter() {
        let r = lock(recorder);
        dropped += r.dropped;
        for (&label, (unit, hist)) in &r.hists {
            merged.entry(label).or_insert_with(|| (*unit, Histogram::new())).1.merge_from(hist);
        }
        if r.events.is_empty() {
            continue;
        }
        let (spans, counters) = pair_events(&r.events, t1_ns);
        let (name, worker_slot) = if r.worker > 0 {
            (format!("worker {}", r.worker - 1), Some(r.worker - 1))
        } else {
            unnamed += 1;
            (format!("thread {unnamed}"), None)
        };
        tracks.push(Track { name, worker: worker_slot, spans, counters });
    }
    tracks.sort_by_key(|t| (t.worker.is_none(), t.worker, t.name.clone()));
    // `start()` empties the histograms, so every entry holds a sample of
    // this session: no export carries an empty series.
    let entries = merged
        .into_iter()
        .map(|(name, (unit, hist))| MetricEntry { name: name.to_string(), unit, hist })
        .collect();
    Report { t0_ns, t1_ns, tracks, dropped, metrics: MetricsSnapshot { entries } }
}

/// Folds a thread's raw event list into completed spans (via a nesting
/// stack — guards guarantee LIFO order per thread) and counter events.
/// Unmatched enters (still open at session end, or whose exit was
/// dropped on overflow) are closed at `t_end`; unmatched exits (session
/// started mid-span) are ignored.
fn pair_events(events: &[Event], t_end: u64) -> (Vec<Span>, Vec<CounterEvent>) {
    let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
    let mut spans = Vec::new();
    let mut counters = Vec::new();
    for ev in events {
        match ev.kind {
            K_ENTER => stack.push((ev.label, ev.t_ns, ev.value)),
            K_EXIT => {
                if let Some((label, start_ns, value)) = stack.pop() {
                    spans.push(Span {
                        label,
                        start_ns,
                        dur_ns: ev.t_ns.saturating_sub(start_ns),
                        depth: stack.len() as u16,
                        value: (value != NO_VALUE).then_some(value),
                    });
                }
            }
            _ => counters.push(CounterEvent { label: ev.label, t_ns: ev.t_ns, value: ev.value }),
        }
    }
    while let Some((label, start_ns, value)) = stack.pop() {
        spans.push(Span {
            label,
            start_ns,
            dur_ns: t_end.saturating_sub(start_ns),
            depth: stack.len() as u16,
            value: (value != NO_VALUE).then_some(value),
        });
    }
    spans.sort_by_key(|s| (s.start_ns, s.depth));
    (spans, counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions are global; tests that record must not interleave.
    fn session_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn spans_and_counters_round_trip() {
        let _serial = session_lock();
        start();
        {
            let _outer = crate::span!("outer");
            {
                let _inner = crate::span!("inner", 3);
            }
            crate::counter!("widgets", 5);
            crate::counter!("widgets", 7);
        }
        let report = stop();
        assert_eq!(report.tracks.len(), 1);
        let spans = &report.tracks[0].spans;
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.label == "outer").unwrap();
        let inner = spans.iter().find(|s| s.label == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.value, Some(3));
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert_eq!(report.counter_totals(), vec![("widgets", 12)]);
    }

    #[test]
    fn nothing_recorded_outside_sessions() {
        let _serial = session_lock();
        // Make sure no session is active, record, then check the next
        // session starts empty.
        let _ = stop();
        {
            let _g = crate::span!("ghost");
            crate::counter!("ghost.counter", 1);
            crate::record_units("test.gated", 5);
        }
        start();
        let report = stop();
        let total_events: usize =
            report.tracks.iter().map(|t| t.spans.len() + t.counters.len()).sum();
        assert_eq!(total_events, 0);
        assert!(report.metrics.get("test.gated").is_none());
    }

    #[test]
    fn worker_threads_become_named_tracks() {
        let _serial = session_lock();
        start();
        std::thread::scope(|scope| {
            for slot in 1..3usize {
                scope.spawn(move || {
                    set_worker(slot);
                    let _g = crate::span!("pool.batch");
                });
            }
            set_worker(0);
            let _g = crate::span!("pool.batch");
        });
        let report = stop();
        let workers: Vec<Option<usize>> = report.tracks.iter().map(|t| t.worker).collect();
        assert!(workers.contains(&Some(0)));
        assert!(workers.contains(&Some(1)));
        assert!(workers.contains(&Some(2)));
        // Workers-first ordering, ascending slots.
        assert_eq!(report.tracks[0].worker, Some(0));
        assert!(report.tracks.iter().all(|t| t.name.starts_with("worker ")));
    }

    #[test]
    fn sessions_reset_between_runs() {
        let _serial = session_lock();
        start();
        {
            let _g = crate::span!("first.session");
            crate::record_bytes("test.reset", 42);
        }
        let first = stop();
        assert!(first.has_span("first.session"));
        assert_eq!(first.metrics.get("test.reset").unwrap().hist.count, 1);
        start();
        {
            let _g = crate::span!("second.session");
        }
        let second = stop();
        assert!(second.has_span("second.session"));
        assert!(!second.has_span("first.session"));
        assert!(second.metrics.get("test.reset").is_none());
    }

    #[test]
    fn open_spans_are_closed_at_session_end() {
        let _serial = session_lock();
        start();
        let guard = crate::span!("left.open");
        let report = stop();
        drop(guard); // exit lands after the gate closed; ignored
        assert!(report.has_span("left.open"));
        let track = &report.tracks[0];
        let span = track.spans.iter().find(|s| s.label == "left.open").unwrap();
        assert!(span.start_ns + span.dur_ns <= report.t1_ns);
    }

    #[test]
    fn histograms_merge_across_threads() {
        let _serial = session_lock();
        start();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for v in [1_000u64, 2_000, 4_000] {
                        crate::record_ns("test.latency", v);
                    }
                });
            }
        });
        crate::record_ns("test.latency", 8_000);
        let snap = stop().metrics;
        let e = snap.get("test.latency").expect("metric recorded");
        assert_eq!(e.hist.count, 10);
        assert_eq!(e.hist.min, 1_000);
        assert_eq!(e.hist.max, 8_000);
        assert_eq!(e.unit, Unit::Nanos);
    }

    #[test]
    fn a_full_event_buffer_costs_no_histogram_sample() {
        // Op latencies are recorded last, when the buffer is fullest.
        let _serial = session_lock();
        const EXTRA: usize = 5;
        start();
        for _ in 0..RING_CAPACITY + EXTRA {
            crate::counter!("test.flood", 1);
        }
        for v in 1..=3u64 {
            crate::record_ns("test.after_flood", v * 1_000);
        }
        let report = stop();
        assert_eq!(report.dropped, EXTRA as u64);
        assert_eq!(report.event_count(), RING_CAPACITY);
        let e = report.metrics.get("test.after_flood").expect("samples kept");
        assert_eq!(e.hist.count, 3);
        assert_eq!((e.hist.min, e.hist.max, e.hist.sum), (1_000, 3_000, 6_000));
    }
}
