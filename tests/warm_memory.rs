//! A warm `Sperr`: what it keeps between calls, and that nothing it keeps
//! reaches the bytes.
//!
//! A `Sperr` keeps one chunk's working set per worker between calls
//! (`crates/core/src/warm.rs`). The budget test pins what that buys: the
//! second of two identical compresses allocates almost nothing but the
//! stream it returns. The other tests pin the rules of the cache — warm
//! calls give a cold `Sperr`'s bytes and samples, concurrent calls give
//! serial calls' bytes, a clone starts cold.
//!
//! The budget counts allocations with this file's own `GlobalAlloc`, on
//! the measuring thread only, so tests running beside it do not disturb
//! the count. Its `unsafe impl` is test-only code; `tests/panic_audit.rs`
//! scans the library crates, not this file.

use sperr_compress_api::{Bound, Field, FieldOf, LossyCompressor};
use sperr_core::{Float, OnDamage, ReadRequest, Sperr, SperrConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the allocator hands the thread that set `COUNTING`.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if counting {
        let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every request goes unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    /// A realloc counts its whole new size: it may move to new memory.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the bytes this thread allocated while it ran.
fn allocated<R>(f: impl FnOnce() -> R) -> (R, u64) {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (result, BYTES.with(Cell::get))
}

const MIB: u64 = 1 << 20;

/// `default_f64`'s field and bound at 64³: one chunk under the default
/// configuration, PWE with outliers to correct.
fn pressure(edge: usize) -> Field {
    sperr_datagen::SyntheticField::MirandaPressure.generate([edge; 3], 901)
}

const PWE: Bound = Bound::Pwe(9.5 / 1_048_576.0);

fn one_thread() -> Sperr {
    Sperr::new(SperrConfig { num_threads: 1, ..SperrConfig::default() })
}

#[test]
fn a_second_compress_allocates_little_beyond_its_stream() {
    // ROADMAP item 3's bar: at one thread, the second of two identical
    // compresses on one `Sperr` allocates at most 1 MiB beyond the
    // capacity of the stream it returns. The first, cold, allocates the
    // whole working set; the bar is far below it, so a cache that kept
    // nothing would fail here.
    let field = pressure(64);
    let sperr = one_thread();
    let ((first, _), cold) = allocated(|| sperr.compress_with_stats(&field, PWE).unwrap());
    let ((second, _), warm) = allocated(|| sperr.compress_with_stats(&field, PWE).unwrap());
    assert_eq!(first, second, "a warm compress changed the bytes");
    let stream = second.capacity() as u64;
    assert!(
        warm <= stream + MIB,
        "the warm compress allocated {warm} B: {} B beyond its {stream} B stream",
        warm - stream.min(warm)
    );
    assert!(cold > stream + 8 * MIB, "the cold compress allocated only {cold} B");
}

#[test]
fn a_clone_starts_cold() {
    // Two `Sperr`s never share memory: a clone of a warm one allocates
    // its own working set, and the original stays warm.
    let field = pressure(64);
    let warm = one_thread();
    let stream = warm.compress(&field, PWE).unwrap();
    let clone = warm.clone();
    let (from_clone, cold) = allocated(|| clone.compress(&field, PWE).unwrap());
    let (again, kept) = allocated(|| warm.compress(&field, PWE).unwrap());
    assert_eq!((&from_clone, &again), (&stream, &stream));
    assert!(cold > stream.capacity() as u64 + 8 * MIB, "the clone shared memory: {cold} B");
    assert!(kept <= again.capacity() as u64 + MIB, "the original went cold: {kept} B");
}

/// A smooth field at any width, of any extent.
fn wavy<T: Float>(dims: [usize; 3], phase: f64) -> FieldOf<T> {
    FieldOf::from_fn(dims, |x, y, z| {
        (x as f64 * 0.21 + phase).sin() * 30.0
            + (y as f64 * 0.13).cos() * 12.0
            + ((x * z) as f64 * 0.003).sin() * 5.0
            + y as f64 * 0.05
    })
}

#[test]
fn warm_compresses_give_a_cold_sperrs_bytes() {
    // One `Sperr` runs a 64³ chunk, a smaller non-power-of-two one, then
    // 64³ again, so the last two start from buffers a larger or another
    // shape's chunk left behind; each stream must be a fresh `Sperr`'s.
    // At both widths, in every mode, at one and two threads.
    fn check<T: Float>() {
        let fields = [wavy::<T>([64; 3], 0.0), wavy([40, 36, 30], 0.7), wavy([64; 3], 1.9)];
        for bound in [PWE, Bound::Bpp(3.0), Bound::Psnr(70.0)] {
            for threads in [1, 2] {
                let config = SperrConfig { num_threads: threads, ..SperrConfig::default() };
                let warm = Sperr::new(config.clone());
                for field in &fields {
                    let got = warm.compress_with_stats(field, bound).unwrap().0;
                    let fresh = Sperr::new(config.clone());
                    let want = fresh.compress_with_stats(field, bound).unwrap().0;
                    let what =
                        format!("{} B, {:?}, {bound:?}, {threads} threads", T::BYTES, field.dims);
                    assert!(got == want, "{what}: a warm compress changed the bytes");
                }
            }
        }
    }
    check::<f64>();
    check::<f32>();
}

#[test]
fn reads_between_compresses_return_the_same_samples() {
    // Reads decode in the same working set: a full read and a region read
    // placed between compresses give a fresh `Sperr`'s samples, and the
    // compresses around them the same bytes.
    let (field, small) = (pressure(64), wavy::<f64>([40, 36, 30], 0.3));
    let sperr = one_thread();
    let region = ReadRequest::Region { lo: [3, 10, 7], hi: [37, 33, 28] };
    let read =
        |s: &Sperr, stream: &[u8], what| s.read::<f64>(stream, what, OnDamage::Fail).unwrap();
    let mut streams = Vec::new();
    let mut reads = Vec::new();
    for f in [&field, &small, &field] {
        let stream = sperr.compress(f, PWE).unwrap();
        reads.push((read(&sperr, &stream, ReadRequest::Full), read(&sperr, &stream, region)));
        streams.push(stream);
    }
    assert_eq!(streams[0], streams[2]);
    for (stream, (full, part)) in streams.iter().zip(&reads) {
        let fresh = one_thread();
        assert_eq!(full.field.data, read(&fresh, stream, ReadRequest::Full).field.data);
        assert_eq!(part.field.data, read(&fresh, stream, region).field.data);
    }
}

#[test]
fn threads_compressing_through_one_sperr_give_serial_bytes() {
    // Calls on one `Sperr` from two threads, released together each round
    // so their calls overlap: one finds the working set taken and works
    // cold, and whichever gives back last decides what stays (the policy
    // itself is pinned step by step in `sperr-core`'s `warm` tests). Every
    // stream must still be the serial one.
    let fields = [wavy::<f64>([48, 40, 36], 0.1), wavy::<f64>([32; 3], 2.3)];
    let sperr = Sperr::new(SperrConfig { num_threads: 2, ..SperrConfig::default() });
    let serial: Vec<Vec<u8>> = fields.iter().map(|f| sperr.compress(f, PWE).unwrap()).collect();
    let start = std::sync::Barrier::new(fields.len());
    let rounds = std::thread::scope(|scope| {
        let threads: Vec<_> = fields
            .iter()
            .map(|field| {
                let (sperr, start) = (&sperr, &start);
                // Results are checked after the join: a thread that stopped
                // early would leave the other waiting at the barrier.
                scope.spawn(move || {
                    let round = || {
                        start.wait();
                        sperr.compress(field, PWE)
                    };
                    (0..6).map(|_| round()).collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect::<Vec<_>>()
    });
    for (got, want) in rounds.iter().zip(&serial) {
        for (round, got) in got.iter().enumerate() {
            let got = got.as_ref().unwrap();
            assert!(got == want, "round {round}: a concurrent compress changed the bytes");
        }
    }
}

/// A `Sperr` crosses threads and is shared between them.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<Sperr>();
};
