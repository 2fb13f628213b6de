//! Scripted fault injection for the robustness test campaign.
//!
//! Pipeline stages call [`stage`] as they start. In normal operation that
//! is one relaxed atomic load (the armed flag) plus a thread-local store
//! — cheap enough to leave compiled in unconditionally, which keeps the
//! fault campaign exercising the *production* binary rather than a
//! test-only build. When a test arms a plan with [`arm`], the matching
//! stage call panics with a recognizable message, simulating a worker
//! crash at exactly that point in the pipeline.
//!
//! This module is `#[doc(hidden)]`: it is test machinery that happens to
//! live in the production crate so the hooks can sit inside private
//! functions.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use sperr_exec::lock_ignore_poison;

/// Fast-path gate: true only while a plan is armed. Checked before
/// touching the mutex so un-instrumented runs pay one relaxed load.
static ARMED: AtomicBool = AtomicBool::new(false);

struct Plan {
    /// Stage label to fire at (exact match against the labels passed to
    /// [`stage`], i.e. `stats::stage_labels` plus the stream-only ones).
    label: String,
    /// Number of times the labelled stage has been entered since arming.
    hits: usize,
    /// Fire on the `trigger_at`-th entry (0-based).
    trigger_at: usize,
}

static PLAN: Mutex<Option<Plan>> = Mutex::new(None);

thread_local! {
    /// Last stage label seen on this thread; lets panic-side code report
    /// where it was when it died.
    static LAST_STAGE: std::cell::Cell<&'static str> = const { std::cell::Cell::new("") };
}

/// Marks entry into a pipeline stage. Panics iff a matching fault plan is
/// armed and its trigger count is reached (one-shot: the plan disarms as
/// it fires, so cancellation paths running the same stage again don't
/// re-panic).
pub fn stage(label: &'static str) {
    LAST_STAGE.with(|c| c.set(label));
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let fire = {
        let mut plan = lock_ignore_poison(&PLAN);
        match plan.as_mut() {
            Some(p) if p.label == label => {
                let hit = p.hits;
                p.hits += 1;
                if hit == p.trigger_at {
                    *plan = None;
                    ARMED.store(false, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    };
    if fire {
        panic!("injected fault at {label}");
    }
}

/// Arms a one-shot panic at the `trigger_at`-th entry (0-based) of the
/// stage with `label`. Replaces any previously armed plan.
pub fn arm(label: &str, trigger_at: usize) {
    let mut plan = lock_ignore_poison(&PLAN);
    *plan = Some(Plan { label: label.to_string(), hits: 0, trigger_at });
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms any pending plan. Safe to call unconditionally in test
/// teardown.
pub fn disarm() {
    let mut plan = lock_ignore_poison(&PLAN);
    *plan = None;
    ARMED.store(false, Ordering::Relaxed);
}

/// Whether a plan is currently armed (i.e. `arm` was called and the fault
/// has not fired yet). Lets the campaign detect a plan that never
/// triggered — e.g. a stage label that no longer exists.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Last stage label recorded on the calling thread.
pub fn last_stage() -> &'static str {
    LAST_STAGE.with(|c| c.get())
}

/// A panic caught by [`catch`] or [`carry`], with the stage its thread had
/// entered last.
pub(crate) struct Caught {
    pub(crate) stage: &'static str,
    pub(crate) payload: Box<dyn Any + Send>,
}

impl Caught {
    /// Raises the panic again on the calling thread, with its own payload,
    /// after recording its stage there: whoever catches it reads the
    /// stage the job died in, not the one this thread was in.
    pub(crate) fn resume<R>(self) -> R {
        LAST_STAGE.with(|c| c.set(self.stage));
        resume_unwind(self.payload)
    }
}

/// Runs `f` — a pool job of the stage `label`, which the issuing thread
/// has entered through [`stage`] — on whichever thread the pool gives it,
/// and catches its panic with the stage that thread was in. `label` is
/// recorded, not checked against the plan: one stage, one hit.
pub(crate) fn carry<R>(label: &'static str, f: impl FnOnce() -> R) -> Result<R, Caught> {
    LAST_STAGE.with(|c| c.set(label));
    catch(f)
}

/// Runs `f` — a batch whose jobs do not mark their stage, such as SPECK's
/// code blocks — and raises a panic out of it as one of the stage `label`,
/// whichever stage this thread was in last.
pub(crate) fn within<R>(label: &'static str, f: impl FnOnce() -> R) -> R {
    catch(f).unwrap_or_else(|caught| Caught { stage: label, ..caught }.resume())
}

/// Runs `f` and catches its panic with the stage this thread was in.
pub(crate) fn catch<R>(f: impl FnOnce() -> R) -> Result<R, Caught> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| Caught { stage: last_stage(), payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fault plans are process-global; keep the tests serialized so they
    // don't steal each other's plans.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_stage_is_noop() {
        let _g = lock_ignore_poison(&SERIAL);
        disarm();
        stage("stage.test.a");
        assert_eq!(last_stage(), "stage.test.a");
    }

    #[test]
    fn armed_stage_fires_once_at_trigger() {
        let _g = lock_ignore_poison(&SERIAL);
        arm("stage.test.b", 2);
        stage("stage.test.b"); // hit 0
        stage("stage.test.other");
        stage("stage.test.b"); // hit 1
        let r = std::panic::catch_unwind(|| stage("stage.test.b")); // hit 2: fires
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("injected fault at stage.test.b"), "{msg}");
        assert!(!is_armed(), "plan must disarm as it fires");
        // One-shot: the same stage no longer fires.
        stage("stage.test.b");
    }
}
