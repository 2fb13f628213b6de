//! The working memory a [`crate::Sperr`] keeps between calls.
//!
//! The paper sizes memory by the chunk (§III-D), so a chunk's working set
//! is the unit kept: per worker slot, the [`ScratchArena`] (coefficients,
//! wavelet scratch, SPECK's levels, magnitudes, found list, buckets and
//! stream buffer, the outlier lists and coder scratch); per call, the
//! container buffer and the lossless pass's parse tables. A compress
//! borrows the set the `Sperr` holds, works in it, and gives it back, so
//! a long-running caller allocates each chunk-sized buffer once per
//! `Sperr` instead of once per call — and its pages stay faulted in. Only
//! the returned stream is new memory. A read borrows the same set: its
//! chunks decode into the arenas' coefficient buffers and run SPECK's
//! sorting pass in their SPECK scratch, so the memory a `Sperr` keeps
//! for compressing serves its reads too instead of adding to them.
//!
//! The rules, each pinned by a test in `tests/warm_memory.rs`:
//!
//! * one set at most — one arena per worker slot, grown to the largest
//!   chunk seen — dropped with the `Sperr`;
//! * a clone or a default `Sperr` starts empty: two `Sperr`s never share
//!   memory;
//! * nothing held reaches the bytes: every buffer is overwritten (or
//!   cleared) before it is read, so a warm call gives a cold one's stream
//!   or samples;
//! * no call waits on another: a call that finds the set taken (another
//!   call on this `Sperr` has it) or of the other sample width works in
//!   fresh memory, as every call did before the cache. Of two sets of one
//!   width given back the larger stays; a set of the other width is
//!   replaced, so the width last used stays warm.

use crate::pipeline::{ChunkEncoding, ScratchArena};
use crate::stats::record_memory;
use sperr_lossless::Encoders;
use sperr_simd::Float;
use std::any::Any;
use std::sync::{Mutex, MutexGuard, TryLockError};

/// What one call works in.
#[derive(Default)]
pub(crate) struct WorkingSet<T: Float> {
    /// One arena per worker slot of the call's pool.
    pub(crate) arenas: Vec<ScratchArena<T>>,
    /// The container the chunks are sealed into.
    pub(crate) container: Vec<u8>,
    /// The lossless pass's parse tables, one set per worker.
    pub(crate) lossless: Encoders,
}

impl<T: Float> WorkingSet<T> {
    /// Bytes the set holds.
    pub(crate) fn bytes(&self) -> usize {
        let arenas = self.arenas.iter().map(ScratchArena::bytes).sum::<usize>();
        arenas + self.container.capacity() + self.lossless.bytes()
    }

    /// Takes back the memory of decoded boxes a read's sink left: the
    /// largest, one to each arena whose coefficient buffer went out as a
    /// box.
    pub(crate) fn take_back(&mut self, boxes: Vec<Option<Vec<T>>>) {
        let mut boxes: Vec<Vec<T>> = boxes.into_iter().flatten().collect();
        boxes.sort_unstable_by_key(|b| std::cmp::Reverse(b.capacity()));
        let lacking = self.arenas.iter_mut().filter(|a| a.coeffs.capacity() == 0);
        for (arena, coeffs) in lacking.zip(boxes) {
            arena.coeffs = coeffs;
        }
    }

    /// Takes back the memory of sealed chunks' SPECK and outlier streams:
    /// the largest of each, one to an arena, for the next call's encodes
    /// to write into.
    pub(crate) fn reclaim(&mut self, encoded: Vec<ChunkEncoding>) {
        let largest = |mut streams: Vec<Vec<u8>>| {
            streams.sort_unstable_by_key(|s| std::cmp::Reverse(s.capacity()));
            streams
        };
        let (speck, outlier): (Vec<_>, Vec<_>) =
            encoded.into_iter().map(|e| (e.speck_stream, e.outlier_stream)).unzip();
        for (arena, stream) in self.arenas.iter_mut().zip(largest(speck)) {
            arena.speck.reuse_stream(stream);
        }
        for (arena, stream) in self.arenas.iter_mut().zip(largest(outlier)) {
            arena.outliers.coder.reuse_stream(stream);
        }
    }
}

/// A set given back, of either width, with its size.
struct Held {
    bytes: usize,
    set: Box<dyn Any + Send>,
}

/// The one working set a `Sperr` keeps between calls (see the module
/// docs). A clone starts empty.
#[derive(Default)]
pub(crate) struct Warm(Mutex<Option<Held>>);

impl Warm {
    /// The lock, when no other call holds it this instant. Every holder
    /// only moves a box in or out, so a poisoned lock guards nothing torn.
    fn try_lock(&self) -> Option<MutexGuard<'_, Option<Held>>> {
        match self.0.try_lock() {
            Ok(held) => Some(held),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// The set held, or an empty one when there is none, it is of the
    /// other width, or another call has it.
    pub(crate) fn take<T: Float>(&self) -> WorkingSet<T> {
        let Some(mut held) = self.try_lock() else { return WorkingSet::default() };
        match held.take().map(|h| h.set.downcast::<WorkingSet<T>>().map_err(|set| (h.bytes, set))) {
            Some(Ok(set)) => *set,
            Some(Err((bytes, set))) => {
                *held = Some(Held { bytes, set });
                WorkingSet::default()
            }
            None => WorkingSet::default(),
        }
    }

    /// Gives `set` back after a call and records its footprint. It
    /// replaces the set held unless that one is of the same width and
    /// larger (another call gave it back meanwhile): the last width used
    /// stays warm.
    pub(crate) fn give_back<T: Float>(&self, set: WorkingSet<T>) {
        let bytes = set.bytes();
        record_memory::<T>(bytes);
        if let Some(mut held) = self.try_lock() {
            let larger = |h: &Held| h.bytes > bytes && h.set.is::<WorkingSet<T>>();
            if !held.as_ref().is_some_and(larger) {
                *held = Some(Held { bytes, set: Box::new(set) });
            }
        }
    }

    /// Bytes held between calls.
    pub(crate) fn bytes(&self) -> usize {
        self.try_lock().and_then(|held| held.as_ref().map(|h| h.bytes)).unwrap_or(0)
    }
}

impl Clone for Warm {
    /// Empty: two `Sperr`s never share memory.
    fn clone(&self) -> Self {
        Warm::default()
    }
}

impl std::fmt::Debug for Warm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warm").field("bytes", &self.bytes()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set of width `T` holding `bytes` of container buffer.
    fn set<T: Float>(bytes: usize) -> WorkingSet<T> {
        WorkingSet { container: Vec::with_capacity(bytes), ..WorkingSet::default() }
    }

    #[test]
    fn a_taken_set_is_not_shared_and_the_larger_one_stays() {
        // The interleavings of two calls on one `Sperr`, one step at a
        // time: the second to take finds nothing and works cold; of the
        // two sets given back the larger stays, whichever comes back last.
        for larger_last in [false, true] {
            let warm = Warm::default();
            warm.give_back(set::<f64>(1000));
            let first = warm.take::<f64>();
            assert_eq!(first.bytes(), 1000);
            let second = warm.take::<f64>();
            assert_eq!(second.bytes(), 0, "two calls shared one set");
            let (larger, smaller) = (set::<f64>(2000), set::<f64>(500));
            if larger_last {
                warm.give_back(smaller);
                warm.give_back(larger);
            } else {
                warm.give_back(larger);
                warm.give_back(smaller);
            }
            assert_eq!(warm.bytes(), 2000, "larger given back last: {larger_last}");
            assert_eq!(warm.take::<f64>().bytes(), 2000);
        }
    }

    #[test]
    fn the_width_last_used_stays_warm() {
        // A call of the other width leaves the set it cannot use in place
        // and works cold; giving its own back replaces it, however large.
        let warm = Warm::default();
        warm.give_back(set::<f64>(4000));
        let narrow = warm.take::<f32>();
        assert_eq!((narrow.bytes(), warm.bytes()), (0, 4000));
        warm.give_back(set::<f32>(100));
        assert_eq!(warm.bytes(), 100);
        assert_eq!(warm.take::<f64>().bytes(), 0);
        assert_eq!(warm.take::<f32>().bytes(), 100);
    }

    #[test]
    fn a_clone_holds_nothing() {
        let warm = Warm::default();
        warm.give_back(set::<f64>(1000));
        assert_eq!((warm.clone().bytes(), warm.bytes()), (0, 1000));
    }
}
