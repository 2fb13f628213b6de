//! The one executor contract under every coder.
//!
//! SPERR's parallelism is independent work: chunks (paper §III-D), and
//! inside a chunk the lines of a wavelet pass, the blocks of an SLZ1
//! stream, the slabs of the ZFP-like baseline. Every coder describes such
//! a step as `n` independent jobs and hands it to an [`Exec`], which
//! decides how to run them. [`WorkerPool`] runs them on threads;
//! [`Serial`] and the [`stress`] executors run them on the caller.
//!
//! Per-worker state — scratch buffers, encoders — lives in [`Slots`],
//! indexed by the `worker` argument: the contract keeps concurrent jobs
//! on distinct workers, so a slot's lock is never contended.
//!
//! Bit-exactness is each coder's side of the bargain: a job's output may
//! depend on its job index only, never on its worker or on when it runs,
//! so results are identical under any executor (the coders' differential
//! tests run every executor here).

mod pool;

pub use pool::{lock_ignore_poison, panic_payload_message, Slots, WorkerPool};

/// Runs batches of independent jobs, possibly in parallel.
///
/// # Contract
///
/// * `run(n, f)` calls `f(job, worker)` exactly once for every
///   `job in 0..n`, with `worker < width()`, and returns only after every
///   call has completed.
/// * Two jobs executing *concurrently* are passed distinct `worker`
///   values — `worker` indexes per-worker state.
pub trait Exec: Sync {
    /// Upper bound (exclusive) on the `worker` indices passed to jobs.
    fn width(&self) -> usize;

    /// Runs `f(job, worker)` for every `job in 0..n`.
    fn run(&self, n: usize, f: &(dyn Fn(usize, usize) + Sync));
}

/// The trivial executor: every job runs on the calling thread as worker 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl Exec for Serial {
    fn width(&self) -> usize {
        1
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        (0..n).for_each(|job| f(job, 0));
    }
}

/// Adversarial executors for differential testing.
///
/// A coder promises identical output under any legal [`Exec`] — any
/// scheduling order, any worker keying. These executors stress both
/// without real threads, so the check is deterministic. They are shared
/// by the coders' tests and the `sperr-conformance` oracles.
pub mod stress {
    use super::Exec;

    /// Runs jobs in reverse order — still serial, still worker 0. Output
    /// must not depend on job scheduling order.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct ReverseOrder;

    impl Exec for ReverseOrder {
        fn width(&self) -> usize {
            1
        }

        fn run(&self, n: usize, f: &(dyn Fn(usize, usize) + Sync)) {
            (0..n).rev().for_each(|job| f(job, 0));
        }
    }

    /// Serial executor that cycles jobs over `width` worker slots —
    /// exercises per-worker state keying without real threads.
    #[derive(Debug, Clone, Copy)]
    pub struct StripedWorkers(pub usize);

    impl Exec for StripedWorkers {
        fn width(&self) -> usize {
            self.0.max(1)
        }

        fn run(&self, n: usize, f: &(dyn Fn(usize, usize) + Sync)) {
            (0..n).for_each(|job| f(job, job % self.width()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::stress::{ReverseOrder, StripedWorkers};
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Holds `exec` to the contract on batches of 0, 1 and 64 jobs: every
    /// job runs once, `worker < width()`, and no two jobs in flight at once
    /// share a worker (each job lingers so that real threads overlap).
    fn check_contract(exec: &dyn Exec, what: &str) {
        let width = exec.width();
        let in_flight: Vec<AtomicUsize> = (0..width).map(|_| AtomicUsize::new(0)).collect();
        for n in [0usize, 1, 64] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            exec.run(n, &|job, worker| {
                assert!(worker < width, "{what}: worker {worker} of width {width}");
                let busy = in_flight[worker].fetch_add(1, Ordering::SeqCst);
                assert_eq!(busy, 0, "{what}: worker {worker} shared");
                hits[job].fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(50));
                in_flight[worker].fetch_sub(1, Ordering::SeqCst);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{what}: n = {n}");
        }
    }

    #[test]
    fn every_exec_keeps_the_contract() {
        check_contract(&Serial, "Serial");
        check_contract(&ReverseOrder, "ReverseOrder");
        check_contract(&StripedWorkers(3), "StripedWorkers(3)");
        check_contract(&WorkerPool::inline(), "inline pool");
        for threads in [1usize, 2, 4] {
            WorkerPool::scoped(threads, |pool| {
                check_contract(pool, &format!("{threads}-thread pool"));
                // Nested: a batch from inside the same pool's jobs, and a
                // second pool's batch from inside them.
                let nested = format!("{threads}-thread pool, nested");
                pool.run(threads, &|_, _| check_contract(pool, &nested));
                let inside = format!("pool in a {threads}-thread pool's job");
                pool.run(threads, &|_, _| {
                    WorkerPool::scoped(2, |inner| check_contract(inner, &inside))
                });
            });
        }
    }
}
