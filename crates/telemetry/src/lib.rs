//! Zero-overhead observability shim for the SPERR pipeline.
//!
//! The whole crate is built around one switch: the `enabled` Cargo
//! feature. With the feature **off** (the default) every entry point
//! here compiles to nothing — [`SpanGuard`] is a zero-sized type with no
//! `Drop` impl, [`add_counter`] and [`record_ns`] are empty
//! `#[inline(always)]` functions, and [`stop`] returns an empty
//! [`Report`]. Instrumented hot loops therefore carry no branches, no
//! atomics, and no code size for production builds. With the feature
//! **on**, each thread records into one recorder behind an uncontended
//! lock: spans and counters into a bounded event buffer (overflow counted
//! rather than blocking or allocating), histogram samples beside it.
//! [`stop`] drains every recorder into a [`Report`], whose
//! [`Report::metrics`] holds the merged histograms.
//!
//! Recording is further gated at runtime by [`start`]/[`stop`]: even in
//! an `enabled` build, nothing is recorded until `start()` flips one
//! relaxed `AtomicBool`, so an instrumented binary run without
//! `--stats`/`--trace`/`--metrics` pays only that load per event site.
//!
//! Threads identify themselves as workers via [`set_worker`] (the
//! `WorkerPool` calls this with the worker slot); each worker becomes
//! one timeline track in the report and in the exported Chrome trace.
//!
//! ```text
//! let _span = sperr_telemetry::span!("stage.wavelet.forward");
//! sperr_telemetry::counter!("speck.refinement_bits", enc.refinement_bits);
//! ```

#![forbid(unsafe_code)]

mod chrome;
pub mod metrics;
mod report;

pub use chrome::validate as validate_chrome_trace;
pub use metrics::{Histogram, MetricEntry, MetricsSnapshot, Unit};
pub use report::{CounterEvent, LabelSummary, Report, Span, Track};

/// Whether the `enabled` feature was compiled in. Const so callers can
/// branch without cost.
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
mod runtime;

#[cfg(feature = "enabled")]
pub use runtime::{add_counter, is_recording, set_worker, start, stop, SpanGuard};

#[cfg(not(feature = "enabled"))]
mod disabled {
    /// No-op span handle: zero-sized, no `Drop`, vanishes entirely.
    pub struct SpanGuard;

    impl SpanGuard {
        #[inline(always)]
        pub fn new(_label: &'static str) -> SpanGuard {
            SpanGuard
        }

        #[inline(always)]
        pub fn with_value(_label: &'static str, _value: u64) -> SpanGuard {
            SpanGuard
        }
    }

    #[inline(always)]
    pub fn add_counter(_label: &'static str, _value: u64) {}

    #[inline(always)]
    pub fn set_worker(_slot: usize) {}

    #[inline(always)]
    pub fn start() {}

    #[inline(always)]
    pub fn is_recording() -> bool {
        false
    }

    #[inline(always)]
    pub fn stop() -> crate::Report {
        crate::Report::default()
    }
}

#[cfg(not(feature = "enabled"))]
pub use disabled::{add_counter, is_recording, set_worker, start, stop, SpanGuard};

/// Records one duration sample (nanoseconds) into the named latency
/// histogram. No-op without the `enabled` feature or outside a session.
#[inline(always)]
pub fn record_ns(label: &'static str, ns: u64) {
    #[cfg(feature = "enabled")]
    runtime::record(label, Unit::Nanos, ns);
    #[cfg(not(feature = "enabled"))]
    let _ = (label, ns);
}

/// Records one byte-size sample into the named size histogram (its max
/// doubles as the high-water mark in the export).
#[inline(always)]
pub fn record_bytes(label: &'static str, bytes: u64) {
    #[cfg(feature = "enabled")]
    runtime::record(label, Unit::Bytes, bytes);
    #[cfg(not(feature = "enabled"))]
    let _ = (label, bytes);
}

/// Records one dimensionless sample (e.g. in-flight chunk occupancy).
#[inline(always)]
pub fn record_units(label: &'static str, value: u64) {
    #[cfg(feature = "enabled")]
    runtime::record(label, Unit::Units, value);
    #[cfg(not(feature = "enabled"))]
    let _ = (label, value);
}

/// Guard that records the wall time from construction to drop into the
/// named latency histogram. Used for the top-level operation metrics
/// (`op.compress.f64`, `op.decode_region`, …) whose bodies have early
/// returns that make a closure-based [`timed`] awkward. Zero-sized and
/// inert without the `enabled` feature; in an enabled build it only arms
/// when a session is recording.
pub struct OpTimer {
    #[cfg(feature = "enabled")]
    armed: Option<(&'static str, std::time::Instant)>,
}

impl OpTimer {
    #[inline]
    pub fn new(label: &'static str) -> OpTimer {
        #[cfg(feature = "enabled")]
        {
            OpTimer { armed: is_recording().then(|| (label, std::time::Instant::now())) }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = label;
            OpTimer {}
        }
    }
}

impl Drop for OpTimer {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some((label, t0)) = self.armed {
            record_ns(label, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Runs `f`, returning its result and wall-clock duration, and records a
/// span around it plus a latency-histogram sample when telemetry is
/// enabled. This is the replacement for the hand-rolled `Instant::now()`
/// pairs in the pipeline: the stage timing that feeds `StageTimes`, the
/// telemetry span and the stage histogram all come from one call site.
#[inline]
pub fn timed<R>(label: &'static str, f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let guard = SpanGuard::new(label);
    let t0 = std::time::Instant::now();
    let r = f();
    let elapsed = t0.elapsed();
    drop(guard);
    record_ns(label, elapsed.as_nanos() as u64);
    (r, elapsed)
}

/// Records a scoped span. Returns a guard; the span closes when the
/// guard drops. An optional second argument attaches a numeric payload
/// (e.g. the bitplane index) that shows up in the Chrome trace `args`.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::SpanGuard::new($label)
    };
    ($label:expr, $value:expr) => {
        $crate::SpanGuard::with_value($label, $value as u64)
    };
}

/// Adds `value` to the named counter (recorded as a timestamped event;
/// totals are aggregated per label in the report).
#[macro_export]
macro_rules! counter {
    ($label:expr, $value:expr) => {
        $crate::add_counter($label, $value as u64)
    };
}

#[cfg(all(test, not(feature = "enabled")))]
mod tests {
    use super::*;

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_api_is_inert() {
        assert!(!is_enabled());
        start();
        assert!(!is_recording());
        let _g = span!("never.recorded");
        counter!("never.counted", 7);
        set_worker(3);
        let report = stop();
        assert!(report.is_empty());
        assert_eq!(report.dropped, 0);
        assert!(report.counter_totals().is_empty());
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_span_guard_is_zero_sized() {
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        assert_eq!(std::mem::size_of::<OpTimer>(), 0);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_metrics_are_inert() {
        start();
        record_ns("never.timed", 1_000);
        record_bytes("never.sized", 4096);
        record_units("never.counted", 3);
        let _t = OpTimer::new("never.op");
        drop(_t);
        let snap = stop().metrics;
        assert!(snap.is_empty());
        // Renderers stay usable on the empty snapshot.
        assert!(snap.render_prometheus().is_empty());
        assert!(snap.render_json().contains("sperr-metrics/v1"));
    }
}
