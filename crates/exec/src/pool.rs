//! The worker pool: one set of threads per [`WorkerPool::scoped`] region,
//! used for chunks in the outer loop and for wavelet line-panels, SLZ1
//! blocks and elementwise sweeps inside a chunk when too few chunks exist
//! to keep the workers busy. It is the one place in the workspace that
//! starts threads and synchronises them by hand; every coder runs its
//! jobs through it, by way of [`Exec`](crate::Exec).
//!
//! # Nesting and oversubscription
//!
//! A pool has `threads` worker slots (the caller thread is slot 0;
//! spawned workers are 1..threads). A [`WorkerPool::run`] issued *from
//! inside a job of the same pool* executes its jobs inline on that job's
//! worker slot — nested parallelism never spawns or wakes anything, so
//! the thread count is bounded by `threads` no matter how deeply batches
//! nest (regression-tested). Inside a job of *another* pool the batch is
//! a top-level call of this one: its worker indices are this pool's, not
//! the other's. A top-level `run` with a single job also executes inline,
//! but *without* entering job context, so parallelism engaged deeper in
//! the call tree (e.g. the wavelet passes of a single-chunk volume) still
//! fans out.
//!
//! A job of one pool cannot issue a batch on a second pool while that
//! second pool's own batch waits on the job: the batch would queue behind
//! the one waiting for it. On the thread of the waiting job that is the
//! inline case above; on another pool's worker it would block forever,
//! so `run` panics there instead, naming the cause. Each batch carries
//! the pools its issuer is inside, and a worker running it inherits them.
//! Trivial batches still run inline. No compress or read path calls back
//! into an outer pool.
//!
//! # Determinism
//!
//! Jobs race only for *which worker runs them*; each job's inputs and
//! outputs are independent of scheduling, so results are identical for
//! any thread count — the compressed-stream determinism tests rely on
//! this.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

thread_local! {
    /// The pool jobs executing on this thread, innermost last, as
    /// `(pool id, worker slot)`. A batch of a pool listed here inlines on
    /// that slot.
    static JOBS: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
    /// The pools whose batches wait on the batch this worker thread runs,
    /// without this thread being inside one of their jobs: what the batch's
    /// issuer was inside.
    static WAITING: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Source of [`WorkerPool`] ids, which key [`JOBS`].
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// Every mutex in this module protects state whose invariants hold at
/// every await point (plain counters / Option slots mutated atomically
/// under the lock), so a poisoned lock carries no torn data — treating
/// poison as fatal would turn one caught job panic into a cascade that
/// wedges every later compression on the same pool.
pub fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Extracts a human-readable message from a caught panic payload.
/// `panic!("...")` yields `&'static str`; `panic!("{x}")` yields
/// `String`; anything else gets a placeholder.
pub fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-batch counters. Heap-allocated and kept alive by `Arc` strong
/// references — `run`'s own plus one per worker holding a copy of the
/// batch — so a straggler that grabs the batch from the shared slot just
/// before the caller retires it still touches live memory: it finds the
/// job counter drained, breaks out, and drops its reference. (These used
/// to live on `run`'s stack frame, which a late claimant could touch
/// after `run` returned — a use-after-free.)
struct BatchState {
    n: usize,
    next: AtomicUsize,
    finished: AtomicUsize,
    panicked: AtomicBool,
    /// First panic message captured by [`execute_batch`] (first writer
    /// wins; later panics in the same batch are dropped).
    panic_msg: Mutex<Option<String>>,
    /// The pools the issuing thread was inside (its jobs' pools and those
    /// waiting on them), which wait on this batch in turn.
    inside: Vec<usize>,
}

/// One in-flight batch of jobs, published to the workers. Only the job
/// closure pointer references the caller's stack; it is dereferenced
/// solely after claiming a job index `< n`, which can happen only while
/// `run` is still blocked on that job — see SAFETY in [`execute_batch`].
#[derive(Clone)]
struct Batch {
    f: *const (dyn Fn(usize, usize) + Sync),
    state: Arc<BatchState>,
}
unsafe impl Send for Batch {}

#[derive(Default)]
struct State {
    batch: Option<Batch>,
    generation: u64,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Signals workers: new batch available or shutdown.
    work: Condvar,
    /// Signals callers: batch finished (or batch slot freed).
    done: Condvar,
}

/// Scoped worker pool; see the module docs. Construct via
/// [`WorkerPool::scoped`] (spawns workers) or [`WorkerPool::inline`]
/// (zero workers, every batch runs on the caller).
pub struct WorkerPool {
    /// Tells this pool's jobs from another pool's in [`JOBS`].
    id: usize,
    threads: usize,
    shared: Shared,
}

impl WorkerPool {
    fn new(threads: usize) -> WorkerPool {
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        WorkerPool { id, threads, shared: Shared::default() }
    }

    /// A pool with no spawned workers: all jobs run inline on the caller.
    pub fn inline() -> WorkerPool {
        WorkerPool::new(1)
    }

    /// Runs `body` with a pool of `threads` worker slots (min 1). Workers
    /// are spawned once, live for the whole region (scoped threads — they
    /// may borrow from the caller), and are joined before `scoped`
    /// returns, even if `body` panics.
    pub fn scoped<R>(threads: usize, body: impl FnOnce(&WorkerPool) -> R) -> R {
        let threads = threads.max(1);
        let pool = WorkerPool::new(threads);
        // The caller participates in every batch as worker slot 0; name
        // its telemetry track accordingly (no-op without the feature).
        sperr_telemetry::set_worker(0);
        if threads == 1 {
            return body(&pool);
        }
        std::thread::scope(|scope| {
            for slot in 1..threads {
                let (shared, id) = (&pool.shared, pool.id);
                scope.spawn(move || worker_loop(shared, id, slot));
            }
            // Shut workers down when `body` finishes OR unwinds —
            // otherwise `scope` would join forever.
            struct Shutdown<'a>(&'a Shared);
            impl Drop for Shutdown<'_> {
                fn drop(&mut self) {
                    lock_ignore_poison(&self.0.state).shutdown = true;
                    self.0.work.notify_all();
                }
            }
            let _guard = Shutdown(&pool.shared);
            body(&pool)
        })
    }

    /// The worker slot of the job of this pool that this thread is
    /// executing, if it is inside one (at any depth).
    fn job_slot(&self) -> Option<usize> {
        JOBS.with(|jobs| jobs.borrow().iter().rev().find(|job| job.0 == self.id).map(|job| job.1))
    }

    /// Runs `f(job, worker)` for every `job in 0..n`, returning when all
    /// are done. `worker < width()`; concurrent jobs always see
    /// distinct worker values (they index per-worker scratch). Nested
    /// calls from inside a job of this pool run inline on that job's
    /// worker slot.
    ///
    /// Panics in `f` are caught on the worker, and `run` panics on the
    /// caller after the batch drains — with the first captured panic
    /// message — and the pool stays usable.
    pub fn run(&self, n: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        if n == 0 {
            return;
        }
        // Inside a job of this pool: inline on its slot (no
        // oversubscription, no deadlock on the single batch slot).
        if let Some(slot) = self.job_slot() {
            (0..n).for_each(|i| f(i, slot));
            return;
        }
        // Trivial batches run on the caller as slot 0 *without* entering
        // job context, so deeper batches can still go parallel.
        if self.threads == 1 || n == 1 {
            (0..n).for_each(|i| f(i, 0));
            return;
        }
        let inside: Vec<usize> = JOBS.with(|jobs| {
            let waiting = WAITING.with(|waiting| waiting.borrow().clone());
            jobs.borrow().iter().map(|job| job.0).chain(waiting).collect()
        });
        assert!(
            !inside.contains(&self.id),
            "worker-pool batch issued from another pool's worker while this pool's own \
             batch waits on that worker's job: it would queue behind the batch that waits \
             for it and never run"
        );

        // Job 0 is the caller's before any worker can see the batch: a
        // worker woken onto the caller's core could otherwise preempt it
        // and claim every job of a short batch, leaving the caller idle.
        let state = Arc::new(BatchState {
            n,
            next: AtomicUsize::new(1),
            finished: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
            inside,
        });
        let batch = Batch {
            // SAFETY (lifetime erasure): workers dereference `f` only
            // after claiming a job index < n, and `run` cannot return
            // before all n jobs finish — so every such dereference happens
            // while the closure is alive. A late claimant that misses the
            // jobs entirely touches only the Arc-held counters.
            f: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize, usize) + Sync),
                    *const (dyn Fn(usize, usize) + Sync),
                >(f as *const _)
            },
            state: Arc::clone(&state),
        };
        {
            let mut st = lock_ignore_poison(&self.shared.state);
            // Another top-level caller may have a batch in flight (pools
            // are per compression call, but the API does not forbid it).
            while st.batch.is_some() {
                st = self.shared.done.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.batch = Some(batch.clone());
            st.generation += 1;
        }
        self.shared.work.notify_all();

        // The caller participates as worker 0, starting with job 0.
        execute_batch(&batch, self.id, 0, Some(0));

        // Wait for stragglers, then free the batch slot. Workers that
        // copied the batch but have not run yet keep their own Arc and
        // find the job counter drained — retiring the slot never races
        // with their counter accesses.
        {
            let mut st = lock_ignore_poison(&self.shared.state);
            while state.finished.load(Ordering::Acquire) < n {
                st = self.shared.done.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.batch = None;
        }
        self.shared.done.notify_all();
        if state.panicked.load(Ordering::Acquire) {
            let message = lock_ignore_poison(&state.panic_msg)
                .take()
                .unwrap_or_else(|| "non-string panic payload".to_string());
            panic!("worker-pool job panicked: {message}");
        }
    }

    /// Whether a batch issued here would use more than this thread: the
    /// pool has workers and the caller is not inside one of its jobs
    /// (nested batches run inline). A chunk decoded while other chunks
    /// keep the workers busy answers `false`, and does not split its work.
    pub fn fans_out(&self) -> bool {
        self.threads > 1 && self.job_slot().is_none()
    }

    /// Runs `a` and `b` as one batch of two jobs — side by side when the
    /// pool [`fans_out`](Self::fans_out), one after the other otherwise —
    /// and returns both results. The caller's slot takes `a` (it claims
    /// job 0 before publishing the batch), so what `a` allocates comes from
    /// the caller thread's heap.
    pub fn join<A: Send, B: Send>(
        &self,
        a: impl FnOnce() -> A + Send,
        b: impl FnOnce() -> B + Send,
    ) -> (A, B) {
        let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
        let (ra, rb) = (Mutex::new(None), Mutex::new(None));
        let run_a = || {
            let a = lock_ignore_poison(&a).take()?;
            *lock_ignore_poison(&ra) = Some(a());
            Some(())
        };
        let run_b = || {
            let b = lock_ignore_poison(&b).take()?;
            *lock_ignore_poison(&rb) = Some(b());
            Some(())
        };
        // Two jobs, two takers: each runs its slot's preference if it is
        // still there, else the other one.
        self.run(2, &|_, worker| {
            let ran = if worker == 0 { run_a().or_else(run_b) } else { run_b().or_else(run_a) };
            debug_assert!(ran.is_some(), "a join job found nothing to run");
        });
        let ra = ra.into_inner().unwrap_or_else(PoisonError::into_inner);
        let rb = rb.into_inner().unwrap_or_else(PoisonError::into_inner);
        (ra.expect("join ran job 0"), rb.expect("join ran job 1"))
    }

    /// Ordered parallel map: `f(job, worker)` for `job in 0..n`, results
    /// collected in job order.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        let out = Slots::new(n, || None);
        self.run(n, &|i, w| *out.lock(i) = Some(f(i, w)));
        out.into_values().map(|v| v.expect("worker failed to fill slot")).collect()
    }
}

/// Executes job `claimed`, if given, then claims and executes jobs of
/// `batch` until its counter drains; enters the job context of pool `pool`
/// so nested `run`s on it inline onto `slot`.
fn execute_batch(batch: &Batch, pool: usize, slot: usize, mut claimed: Option<usize>) {
    // One span per batch per participating worker: the gaps between
    // these spans on a worker's track are its idle time.
    let _busy = sperr_telemetry::span!("pool.batch");
    let st = &*batch.state;
    JOBS.with(|jobs| jobs.borrow_mut().push((pool, slot)));
    loop {
        let i = claimed.take().unwrap_or_else(|| st.next.fetch_add(1, Ordering::Relaxed));
        if i >= st.n {
            break;
        }
        // SAFETY: job `i < n` was claimed, so `finished` stays below `n`
        // at least until this job completes — `run` is still blocked in
        // its completion wait and the closure it borrows is alive.
        let f = unsafe { &*batch.f };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, slot))) {
            let message = panic_payload_message(payload.as_ref());
            let mut slot_msg = lock_ignore_poison(&st.panic_msg);
            if slot_msg.is_none() {
                *slot_msg = Some(message);
            }
            drop(slot_msg);
            st.panicked.store(true, Ordering::Release);
        }
        st.finished.fetch_add(1, Ordering::AcqRel);
    }
    JOBS.with(|jobs| jobs.borrow_mut().pop());
}

fn worker_loop(shared: &Shared, pool: usize, slot: usize) {
    sperr_telemetry::set_worker(slot);
    // A worker's timeline track exists from its first event. Record one
    // at spawn: with more slots than cores, the caller and the other
    // workers can drain every batch of a short run before this thread is
    // first scheduled, and it would otherwise leave no track at all.
    sperr_telemetry::counter!("pool.workers", 1);
    let mut seen_generation = 0u64;
    loop {
        let batch = {
            let mut st = lock_ignore_poison(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen_generation {
                    if let Some(batch) = &st.batch {
                        seen_generation = st.generation;
                        break batch.clone();
                    }
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        WAITING.with(|waiting| waiting.borrow_mut().extend_from_slice(&batch.state.inside));
        execute_batch(&batch, pool, slot, None);
        WAITING.with(|waiting| waiting.borrow_mut().clear());
        // Wake the caller (and any queued caller) once the batch drains.
        // The lock round-trip orders the notify after the caller's
        // check-then-wait, avoiding a lost wakeup. The counters are held
        // alive by this worker's own Arc even if the caller has already
        // retired the batch.
        if batch.state.finished.load(Ordering::Acquire) >= batch.state.n {
            drop(lock_ignore_poison(&shared.state));
            shared.done.notify_all();
        }
    }
}

impl crate::Exec for WorkerPool {
    /// Number of worker slots (including the caller, slot 0).
    fn width(&self) -> usize {
        self.threads
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        WorkerPool::run(self, n, f);
    }
}

/// One value per index, handed out mutably through `&self`: per-worker
/// state such as scratch buffers and encoders (indexed by worker slot),
/// per-job results and output blocks (indexed by job). Each value sits
/// behind its own mutex. Concurrent jobs always see distinct worker slots
/// and distinct job indices (the [`Exec`](crate::Exec) contract), so a
/// lock is never contended; it is what makes `&mut T` out of `&self`
/// safe.
pub struct Slots<T> {
    slots: Box<[Mutex<T>]>,
}

impl<T> Slots<T> {
    /// `n` values, each made by `init`.
    pub fn new(n: usize, mut init: impl FnMut() -> T) -> Self {
        (0..n).map(|_| init()).collect()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// The value at `index`, for the duration of one job.
    pub fn lock(&self, index: usize) -> MutexGuard<'_, T> {
        lock_ignore_poison(&self.slots[index])
    }

    /// Hands the values back, in index order, once every job is done.
    pub fn into_values(self) -> impl Iterator<Item = T> {
        self.slots
            .into_vec()
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<T> FromIterator<T> for Slots<T> {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Self {
        Slots { slots: values.into_iter().map(Mutex::new).collect() }
    }
}

impl WorkerPool {
    /// Ordered map of `n` jobs, each with exclusive use of one of the
    /// per-worker `states` (one per slot, defaulted as needed and kept for
    /// the caller's next batch) — the chunk loop of every driver. With
    /// enough jobs to saturate the pool they run in parallel and whatever
    /// they nest runs inline; with fewer they run one after another on the
    /// caller (state 0), so each job's inner batches (wavelet panels,
    /// elementwise sweeps) fan out across the pool. Results in job order.
    pub fn map_with_state<S, T, F>(&self, n: usize, states: &mut Vec<S>, f: F) -> Vec<T>
    where
        S: Send + Default,
        T: Send,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        states.resize_with(self.threads, S::default);
        let slots: Slots<S> = states.drain(..).collect();
        let out = if n >= self.threads {
            self.map(n, |i, w| f(i, &mut slots.lock(w)))
        } else {
            (0..n).map(|i| f(i, &mut slots.lock(0))).collect()
        };
        states.extend(slots.into_values());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Exec;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_order() {
        WorkerPool::scoped(4, |pool| {
            let out = pool.map(100, |i, _| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        });
    }

    #[test]
    fn single_thread_pool_is_inline() {
        let pool = WorkerPool::inline();
        let out = pool.map(5, |i, w| {
            assert_eq!(w, 0);
            i + 1
        });
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn nested_run_inlines_on_callers_slot() {
        // Regression test for the old parallel_map's failure mode: nested
        // use must neither deadlock nor run on extra threads.
        WorkerPool::scoped(4, |pool| {
            let inner_threads = Mutex::new(std::collections::HashSet::new());
            pool.run(8, &|outer, outer_worker| {
                // Nested batch: must execute inline, same thread, same slot.
                let tid = std::thread::current().id();
                pool.run(16, &|_, inner_worker| {
                    assert_eq!(inner_worker, outer_worker, "nested job changed slot");
                    assert_eq!(std::thread::current().id(), tid, "nested job changed thread");
                    inner_threads.lock().unwrap().insert(std::thread::current().id());
                });
                let _ = outer;
            });
            // Nested jobs ran on at most `threads` distinct OS threads.
            assert!(inner_threads.lock().unwrap().len() <= 4);
        });
    }

    #[test]
    fn single_job_batch_leaves_room_for_deeper_parallelism() {
        WorkerPool::scoped(4, |pool| {
            let distinct = Mutex::new(std::collections::HashSet::new());
            // n == 1 runs inline without job context...
            pool.run(1, &|_, w| {
                assert_eq!(w, 0);
                // ...so this deeper batch may still fan out.
                pool.run(64, &|_, _| {
                    distinct.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
            });
            assert!(distinct.lock().unwrap().len() >= 1);
        });
    }

    #[test]
    fn pool_reusable_across_batches() {
        WorkerPool::scoped(3, |pool| {
            for round in 0..50 {
                let count = AtomicUsize::new(0);
                pool.run(round % 7 + 1, &|_, _| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(count.load(Ordering::Relaxed), round % 7 + 1);
            }
        });
    }

    #[test]
    fn concurrent_jobs_see_distinct_workers() {
        WorkerPool::scoped(4, |pool| {
            let in_flight: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.run(64, &|_, w| {
                assert_eq!(in_flight[w].fetch_add(1, Ordering::SeqCst), 0, "slot {w} shared");
                std::thread::sleep(std::time::Duration::from_micros(200));
                in_flight[w].fetch_sub(1, Ordering::SeqCst);
            });
        });
    }

    #[test]
    fn batch_retirement_does_not_race_late_claimants() {
        // Regression test for a use-after-free: a worker could grab the
        // batch from the shared slot just before the caller retired it,
        // then touch the (then stack-allocated) counters after `run`
        // returned, corrupting the next batch. Hammer the slot with rapid
        // back-to-back batches from several top-level callers — under the
        // old code this corrupted job counts or dropped jobs.
        WorkerPool::scoped(4, |pool| {
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        for round in 0..300 {
                            let jobs = round % 5 + 1;
                            let count = AtomicUsize::new(0);
                            pool.run(jobs, &|_, _| {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                            assert_eq!(count.load(Ordering::Relaxed), jobs);
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn zero_job_batch_is_noop() {
        // n == 0 must return immediately without publishing a batch,
        // waking a worker, or poisoning the pool — from the top level,
        // from inside a job, and through `map`.
        WorkerPool::scoped(4, |pool| {
            pool.run(0, &|_, _| panic!("zero-job batch ran a job"));
            assert_eq!(pool.map(0, |i, _| i), Vec::<usize>::new());
            pool.run(3, &|_, _| {
                // Nested zero-job batch inside job context.
                pool.run(0, &|_, _| panic!("nested zero-job batch ran a job"));
            });
            // Pool still fully functional afterwards.
            assert_eq!(pool.map(5, |i, _| i * 2), vec![0, 2, 4, 6, 8]);
        });
    }

    #[test]
    fn single_job_with_many_threads() {
        // One job on a wide pool runs inline on the caller (slot 0), never
        // waits on the workers, and leaves them usable for later batches.
        WorkerPool::scoped(8, |pool| {
            let caller = std::thread::current().id();
            for _ in 0..100 {
                pool.run(1, &|i, w| {
                    assert_eq!(i, 0);
                    assert_eq!(w, 0, "single job ran off the caller slot");
                    assert_eq!(std::thread::current().id(), caller);
                });
            }
            // The workers were not consumed: a wide batch still fans out.
            let out = pool.map(64, |i, _| i);
            assert_eq!(out, (0..64).collect::<Vec<_>>());
        });
    }

    #[test]
    fn panic_in_nested_job_propagates_to_outer_run() {
        // A panic in a batch issued from *inside* a pool job unwinds
        // through the outer job; the outer `run` must report it and the
        // pool must survive.
        WorkerPool::scoped(4, |pool| {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(4, &|outer, _| {
                    pool.run(8, &|inner, _| {
                        if outer == 2 && inner == 5 {
                            panic!("nested boom");
                        }
                    });
                });
            }));
            assert!(result.is_err(), "nested panic was swallowed");
            assert_eq!(pool.map(4, |i, _| i + 1), vec![1, 2, 3, 4]);
        });
    }

    #[test]
    fn every_job_still_runs_when_several_panic() {
        // Panicking jobs are caught per-job: the batch drains fully (no
        // job skipped, no deadlock) and the caller panics exactly once at
        // the end, even with many panicking jobs racing many threads.
        WorkerPool::scoped(8, |pool| {
            let ran = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(64, &|i, _| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i % 3 == 0 {
                        panic!("boom {i}");
                    }
                });
            }));
            assert!(result.is_err());
            assert_eq!(ran.load(Ordering::SeqCst), 64, "a job was skipped");
            assert_eq!(pool.map(2, |i, _| i), vec![0, 1]);
        });
    }

    #[test]
    fn map_panic_propagates_not_unfilled_slot() {
        // A panic inside `map`'s closure must surface as the pool's batch
        // panic, not as the "worker failed to fill slot" expect on a
        // missing result.
        WorkerPool::scoped(4, |pool| {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map(16, |i, _| {
                    if i == 7 {
                        panic!("map boom");
                    }
                    i
                })
            }));
            let msg = *result.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains("map boom"), "panic message lost the original payload: {msg:?}");
        });
    }

    /// The message `run` panics with when a job of `n` panics, or `None`
    /// when none does.
    fn run_panic(pool: &WorkerPool, n: usize, f: &(dyn Fn(usize, usize) + Sync)) -> Option<String> {
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(n, f))).err()?;
        Some(*err.downcast::<String>().expect("run panics with a formatted message"))
    }

    #[test]
    fn run_panics_with_first_job_message() {
        WorkerPool::scoped(4, |pool| {
            let msg = run_panic(pool, 16, &|i, _| {
                if i == 5 {
                    panic!("stage exploded on job {i}");
                }
            });
            let msg = msg.expect("the job's panic was swallowed");
            assert!(msg.contains("stage exploded"), "lost payload: {msg:?}");
            // Pool is reusable; a clean batch succeeds.
            assert_eq!(run_panic(pool, 8, &|_, _| {}), None);
        });
    }

    #[test]
    fn run_non_string_payload_gets_placeholder() {
        WorkerPool::scoped(2, |pool| {
            let msg = run_panic(pool, 4, &|i, _| {
                if i == 1 {
                    std::panic::panic_any(42u32);
                }
            });
            assert!(msg.is_some_and(|m| m.ends_with("non-string panic payload")));
        });
    }

    #[test]
    fn pool_survives_poisoned_external_state_after_caught_panic() {
        // A caught job panic may poison unrelated user mutexes; the pool's
        // own locks must keep working (lock_ignore_poison) so back-to-back
        // batches after a panic don't cascade into PoisonError unwraps.
        WorkerPool::scoped(4, |pool| {
            for round in 0..10 {
                let msg = run_panic(pool, 8, &|i, _| {
                    if i == 2 {
                        panic!("round {round} boom");
                    }
                });
                assert!(msg.is_some_and(|m| m.contains("boom")));
                assert_eq!(pool.map(3, |i, _| i * 10), vec![0, 10, 20]);
            }
        });
    }

    #[test]
    fn a_pool_inside_another_pools_job_keys_its_own_workers() {
        // A batch of pool B issued from a job of pool A is a top-level
        // batch of B: its workers are B's (below B's width), and it still
        // fans out over B's threads.
        WorkerPool::scoped(4, |outer| {
            outer.run(8, &|_, outer_worker| {
                let here = std::thread::current().id();
                WorkerPool::scoped(2, |inner| {
                    assert!(inner.fans_out());
                    let out = inner.map(16, |i, w| {
                        assert!(w < inner.width(), "inner worker {w} of 2");
                        // On the thread of the outer job, an outer batch
                        // is still nested in it: inline, on its slot.
                        if std::thread::current().id() == here {
                            outer.run(3, &|_, w| assert_eq!(w, outer_worker));
                        }
                        i
                    });
                    assert_eq!(out, (0..16).collect::<Vec<_>>());
                });
                // This thread is still inside an outer job.
                assert!(!outer.fans_out());
            });
        });
    }

    #[test]
    fn a_batch_on_a_pool_waiting_on_the_issuer_panics_instead_of_hanging() {
        // Pool A's job starts pool B, and B's worker thread issues a batch
        // on A, whose own batch waits on that job: it would never run. The
        // meeting point makes both of B's threads take one job each, so
        // one of them is B's worker. Trivial batches on A and a batch on B
        // itself still run inline there; the caller's side (inside A's
        // job) runs A's batch inline as before.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let inline = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::scoped(2, |a| {
                    a.run(2, &|_, _| {
                        WorkerPool::scoped(2, |b| {
                            let started = AtomicUsize::new(0);
                            b.run(2, &|_, _| {
                                started.fetch_add(1, Ordering::SeqCst);
                                while started.load(Ordering::SeqCst) < 2 {
                                    std::thread::yield_now();
                                }
                                a.run(1, &|_, _| _ = inline.fetch_add(1, Ordering::SeqCst));
                                b.run(2, &|_, _| _ = inline.fetch_add(1, Ordering::SeqCst));
                                a.run(2, &|_, _| {});
                            });
                        });
                    });
                });
            }));
            let message = result.err().map(|p| panic_payload_message(p.as_ref()));
            _ = tx.send((message, inline.load(Ordering::SeqCst)));
        });
        let (message, inline) = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a batch on a pool that waits on its issuer hung");
        let message = message.expect("the batch that cannot run did not panic");
        assert!(message.contains("this pool's own batch waits on"), "{message}");
        // Both jobs of both B pools ran their trivial and same-pool batches.
        assert_eq!(inline, 2 * 2 * 3);
    }

    #[test]
    fn job_panic_propagates_without_deadlock() {
        WorkerPool::scoped(2, |pool| {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(8, &|i, _| {
                    if i == 3 {
                        panic!("boom");
                    }
                });
            }));
            assert!(result.is_err());
            // Pool still works after a failed batch.
            assert_eq!(pool.map(3, |i, _| i), vec![0, 1, 2]);
        });
    }

    #[test]
    fn join_runs_both_sides_and_fans_out_only_at_the_top() {
        // At the top of a wide pool the two sides run at once — each waits
        // for the other to start — and the caller reports that the pool
        // fans out; inside a pool job both run inline on the job's thread.
        WorkerPool::scoped(2, |pool| {
            assert!(pool.fans_out());
            let started = AtomicUsize::new(0);
            let meet = || {
                started.fetch_add(1, Ordering::SeqCst);
                while started.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
                std::thread::current().id()
            };
            let (a, b) = pool.join(meet, meet);
            assert_ne!(a, b, "the two sides ran on one thread");
            pool.run(2, &|_, _| {
                assert!(!pool.fans_out());
                let here = std::thread::current().id();
                let (a, b) = pool.join(|| std::thread::current().id(), || 7);
                assert_eq!((a, b), (here, 7));
            });
        });
        assert!(!WorkerPool::inline().fans_out());
        assert_eq!(WorkerPool::inline().join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn map_with_state_gives_each_job_exclusive_worker_state() {
        WorkerPool::scoped(4, |pool| {
            // Many jobs: outer-parallel, one state per worker, every job
            // counted exactly once, results in job order.
            let mut states = Vec::new();
            let out = pool.map_with_state(64, &mut states, |i, seen: &mut usize| {
                *seen += 1;
                std::thread::sleep(std::time::Duration::from_micros(100));
                i * 3
            });
            assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(states.len(), 4);
            assert_eq!(states.iter().sum::<usize>(), 64);
            // Fewer jobs than workers: serial on the caller with state 0,
            // out of job context, so a nested batch still fans out. The
            // states carry over from the batch before.
            let caller = std::thread::current().id();
            let before = states.clone();
            let out = pool.map_with_state(3, &mut states, |i, seen| {
                *seen += 1;
                assert_eq!(std::thread::current().id(), caller);
                pool.map(8, |j, _| j).len() + i
            });
            assert_eq!(out, vec![8, 9, 10]);
            assert_eq!(states[0], before[0] + 3);
            assert_eq!(states[1..], before[1..]);
        });
    }
}
