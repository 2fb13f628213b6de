//! Per-worker scratch for the multilevel transforms.
//!
//! The multilevel transform is a sequence of axis passes; within one pass
//! every line (or panel of lines) is independent, so each pass goes to a
//! [`sperr_exec::Exec`] as independent jobs. Each job borrows its worker's
//! panel and line buffers from [`TransformScratch`].
//!
//! Bit-exactness: every job performs the same per-line arithmetic as the
//! serial reference path, and jobs touch disjoint samples, so the output
//! is identical regardless of executor, worker count or scheduling order
//! (enforced by the equivalence proptests).

use sperr_exec::Slots;
use sperr_simd::Float;

/// Number of adjacent lines gathered into one contiguous panel for the
/// strided (y/z) axis passes. A panel is `PANEL_W · n` doubles; at the
/// default 256-long lines that is 64 KiB — small enough to live in L2
/// while the gather/scatter streams through it, wide enough that every
/// byte of a fetched cache line is used (8 doubles per 64-byte line).
pub const PANEL_W: usize = 32;

/// Per-worker scratch owned by [`TransformScratch`]: one panel plus the
/// kernel's de/interleave line buffer.
pub(crate) struct WorkerScratch<T> {
    /// `PANEL_W` lines, line-major (`panel[w*n + i]` is sample `i` of
    /// panel line `w`).
    pub panel: Vec<T>,
    /// Kernel line scratch (`Kernel::forward_line`'s `scratch` argument).
    pub line: Vec<T>,
}

/// Reusable scratch for the `_with` transform drivers: per-worker panel
/// and line buffers sized for the largest axis seen so far. Create once,
/// reuse across chunks/calls — the whole point is that repeated
/// transforms allocate nothing. Generic over the sample type with the
/// historical `f64` as default, so existing call sites are unchanged.
pub struct TransformScratch<T: Float = f64> {
    pub(crate) workers: Slots<WorkerScratch<T>>,
    max_dim: usize,
}

impl<T: Float> Default for TransformScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Float> TransformScratch<T> {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        TransformScratch { workers: Slots::new(0, || unreachable!()), max_dim: 0 }
    }

    /// Grows the scratch to serve `workers` concurrent jobs on axes up to
    /// `max_dim` long. Shrinking never happens — reuse keeps capacity.
    pub fn ensure(&mut self, max_dim: usize, workers: usize) {
        let workers = workers.max(1);
        if workers > self.workers.len() || max_dim > self.max_dim {
            let dim = max_dim.max(self.max_dim);
            self.workers = Slots::new(workers.max(self.workers.len()), || WorkerScratch {
                panel: vec![T::ZERO; PANEL_W * dim],
                line: vec![T::ZERO; dim],
            });
            self.max_dim = dim;
        }
    }

    /// Total bytes currently held across all worker buffers (memory
    /// accounting; capacity equals length because buffers only grow via
    /// whole reallocation in [`TransformScratch::ensure`]).
    pub fn bytes(&self) -> usize {
        self.workers.len() * (PANEL_W + 1) * self.max_dim * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_runs_every_job_once() {
        use sperr_exec::{Exec, Serial};
        let hits: Vec<std::sync::atomic::AtomicUsize> =
            (0..17).map(|_| std::sync::atomic::AtomicUsize::new(0)).collect();
        Serial.run(17, &|j, w| {
            assert_eq!(w, 0);
            hits[j].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(std::sync::atomic::Ordering::Relaxed) == 1));
    }

    #[test]
    fn scratch_grows_monotonically() {
        let mut s = TransformScratch::<f64>::new();
        s.ensure(16, 1);
        s.ensure(8, 4); // more workers, smaller dim: keeps the larger dim
        assert_eq!(s.workers.lock(3).panel.len(), PANEL_W * 16);
        assert_eq!(s.workers.lock(0).line.len(), 16);
        s.ensure(64, 2); // grows dim, keeps 4 workers
        assert_eq!(s.workers.lock(3).panel.len(), PANEL_W * 64);
    }
}
