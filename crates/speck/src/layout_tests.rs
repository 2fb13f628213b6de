//! Tests of the layout seam that need the crate's private side: the
//! tables against a recursive [`SetS::split`] walk, the dyadic arithmetic
//! against the tables, both geometries through both coder bodies against
//! the reference coders, and the shared table cache. (They live outside
//! `layout.rs` because that file is scanned by `tests/panic_audit.rs`.)

use crate::coder::{Phase1, Quantized};
use crate::decoder::{Shape, Sorted};
use crate::layout::{self, Geometry, Layout, MAX_CACHED_BYTES, MAX_CACHED_SHAPES};
use crate::morton::{applicable, Dyadic};
use crate::set::SetS;
use crate::{decode, encode, reference, Termination};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

const PRIMES: [usize; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Shapes of every class the coders meet: arbitrary extents, extent-1
/// axes, primes, powers of two that are not cubes, cubes.
fn shape(class: u8, seeds: [usize; 3]) -> [usize; 3] {
    match class % 5 {
        0 => seeds.map(|s| 1 + s % 40),
        1 => [1 + seeds[0] % 40, 1, 1 + seeds[2] % 7],
        2 => seeds.map(|s| PRIMES[s % PRIMES.len()]),
        3 => [1 << (seeds[0] % 6), 1 << (seeds[1] % 4), 2 << (seeds[2] % 4)],
        _ => [1 << (1 + seeds[0] % 4); 3],
    }
}

/// Walks `set` and everything below it in split order, checking each set
/// against the tables: it is the next unvisited cell of its level, its
/// children are the run `children` says, a pixel sits where the layout
/// says. Returns the positions of level `k` the set covers.
fn walk(
    layout: &Layout,
    dims: [usize; 3],
    set: SetS<3>,
    next_cell: &mut Vec<u32>,
) -> std::ops::Range<u32> {
    let k = layout.depth();
    let level = set.part_level as usize;
    assert!(level <= k, "{dims:?}: a set below the deepest level");
    let cell = next_cell[level];
    next_cell[level] += 1;
    if set.is_pixel() {
        assert!(level + 1 >= k, "{dims:?}: pixel on level {level} of {k}");
        let pos = if level == k {
            assert_eq!(layout.children(level, cell), None);
            cell
        } else {
            // Found one level early: its only child is itself.
            let only = next_cell[k];
            next_cell[k] += 1;
            assert_eq!(layout.children(level, cell), Some((only, 1)), "{dims:?}");
            only
        };
        assert_eq!(layout.to_row_major(pos), Some(set.pixel_index(dims) as u32), "{dims:?}");
        return pos..pos + 1;
    }
    let mut children = Vec::new();
    set.split(|c| children.push(c));
    assert!(children.len() >= 2);
    let lo = next_cell[level + 1];
    assert_eq!(layout.children(level, cell), Some((lo, children.len() as u32)), "{dims:?}");
    let mut covered: Option<std::ops::Range<u32>> = None;
    for child in children {
        let part = walk(layout, dims, child, next_cell);
        // Children cover consecutive runs, in order.
        let start = covered.map_or(part.start, |so_far| {
            assert_eq!(so_far.end, part.start, "{dims:?}");
            so_far.start
        });
        covered = Some(start..part.end);
    }
    let covered = covered.unwrap();
    assert_eq!(covered.len() as u64, set.num_points(), "{dims:?}");
    covered
}

fn check_layout(dims: [usize; 3]) {
    let layout = Layout::build(dims).unwrap();
    let n: usize = dims.iter().product();
    let k = layout.depth();
    let mut seen = vec![false; n];
    for pos in 0..n as u32 {
        let at = layout.to_row_major(pos).unwrap() as usize;
        assert!(!std::mem::replace(&mut seen[at], true), "{dims:?}: {at} listed twice");
    }
    assert_eq!(layout.to_row_major(n as u32), None);
    let mut next_cell = vec![0u32; k + 1];
    assert_eq!(walk(&layout, dims, SetS::root(dims), &mut next_cell), 0..n as u32);
    for (level, &visited) in next_cell.iter().enumerate() {
        assert_eq!(visited as usize, layout.cells(level), "{dims:?} level {level}");
        assert_eq!(layout.children(level, visited), None, "{dims:?}: a cell past the last");
    }
    assert_eq!(layout.children(k + 1, 0), None);
}

#[test]
fn tables_follow_the_split_walk_on_named_shapes() {
    for dims in [[1, 1, 1], [2, 1, 1], [3, 1, 1], [1, 1, 17], [8, 8, 4], [21, 10, 11], [40, 40, 40]]
    {
        check_layout(dims);
    }
}

/// Every cell and every pixel of a cube: the arithmetic of [`Dyadic`]
/// equals the tables, and so do the level maxima it computes.
fn check_dyadic<const D: usize>(side: usize) {
    let dims = [side; D];
    assert!(applicable(dims));
    let (dyadic, tables) = (Dyadic::new(dims), Layout::build(layout::pad(dims)).unwrap());
    let k = tables.depth();
    assert_eq!(dyadic.depth(), k);
    for level in 0..=k + 1 {
        assert_eq!(dyadic.cells(level.min(k)), tables.cells(level));
        for cell in 0..tables.cells(level) as u32 {
            assert_eq!(
                dyadic.children(level, cell),
                tables.children(level, cell),
                "{level} {cell}"
            );
        }
    }
    let n = tables.cells(k);
    for pos in 0..n as u32 {
        assert_eq!(dyadic.to_row_major(pos), tables.to_row_major(pos));
    }
    // Runs from any start, across the lookup table's group boundary.
    for first in [0, 1, 63, 500, 511, 512, 4095].into_iter().filter(|&f| f < n) {
        let mut got = vec![0u32; (n - first).min(700)];
        let mut want = got.clone();
        dyadic.row_major_run(first as u32, &mut got);
        tables.row_major_run(first as u32, &mut want);
        assert_eq!(got, want, "run from {first}");
        assert_eq!(Some(want[0]), tables.to_row_major(first as u32));
    }
    for level in 0..k {
        let fine: Vec<u8> =
            (0..tables.cells(level + 1)).map(|i| (i.wrapping_mul(2654435761) >> 7) as u8).collect();
        let cells = tables.cells(level);
        let mut got = vec![0u8; cells];
        let mut want = got.clone();
        dyadic.coarsen(level, 0..cells, &fine, &mut got);
        tables.coarsen(level, 0..cells, &fine, &mut want);
        assert_eq!(got, want, "level {level}");
        // Any range of cells on its own gives the same bytes.
        for (start, len) in [(0, 1), (cells / 3, cells / 2), (cells - 1, 1), (1, cells - 1)] {
            let mut part = vec![0u8; len];
            dyadic.coarsen(level, start..start + len, &fine, &mut part);
            assert_eq!(part, want[start..start + len], "level {level}, cells {start}+{len}");
            tables.coarsen(level, start..start + len, &fine, &mut part);
            assert_eq!(part, want[start..start + len], "level {level}, cells {start}+{len}");
        }
    }
}

#[test]
fn dyadic_arithmetic_equals_the_tables() {
    for side in [2, 4, 8, 16] {
        check_dyadic::<3>(side);
        check_dyadic::<2>(side * 2);
        check_dyadic::<1>(side * 32);
    }
}

fn seeded_field(n: usize, seed: u64, mag_bits: u32, nnz: usize) -> Vec<f64> {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut field = vec![0.0f64; n];
    for _ in 0..nnz.min(n) {
        let at = next() as usize % n;
        let mag =
            (1u64 << (next() % mag_bits as u64)) as f64 * (1.0 + (next() % 1000) as f64 / 1e3);
        field[at] = if next() & 1 == 1 { -mag } else { mag };
    }
    field
}

/// Both geometries through both coder bodies on one cube: same bytes and
/// counters as the reference encoder, and at every byte prefix the same
/// values as the reference decoder.
fn cube_on_both_geometries<const D: usize>(side: usize, seed: u64, mag_bits: u32, q: f64) {
    let dims = [side; D];
    let field = seeded_field(side.pow(D as u32), seed, mag_bits, 48);
    let tables = std::sync::Arc::new(Layout::build(layout::pad(dims)).unwrap());
    let full = reference::encode(&field, dims, q, Termination::Quality);
    for term in [Termination::Quality, Termination::BitBudget(full.bits_used * 2 / 3)] {
        let want = reference::encode(&field, dims, q, term);
        let table = Some(Shape::<D>::Table(tables.clone()));
        let phase1 =
            Phase1::new(table, &field, None, q, term, &sperr_exec::Serial, Default::default());
        let mut tabled = Quantized::one(phase1, Default::default()).encode();
        // The decodes below run in the encode's memory, longest prefix
        // first: whatever an earlier pass left must not show.
        let mut scratch = std::mem::take(&mut tabled.scratch);
        for got in [encode(&field, dims, q, term), tabled] {
            assert_eq!(got.stream, want.stream, "{dims:?} {term:?}");
            assert_eq!(
                (got.bits_used, got.significance_bits, got.sign_bits, got.refinement_bits),
                (want.bits_used, want.significance_bits, want.sign_bits, want.refinement_bits),
                "{dims:?} {term:?}"
            );
        }
        for len in (0..=want.stream.len()).rev() {
            let prefix = &want.stream[..len];
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let oracle = bits(reference::decode(prefix, dims, q, want.num_planes).unwrap());
            assert_eq!(bits(decode(prefix, dims, q, want.num_planes).unwrap()), oracle);
            let shape = Some(Shape::Table(tables.clone()));
            let planes = want.num_planes;
            let prefix = std::borrow::Cow::Borrowed(prefix);
            let sorted = Sorted::new(shape, prefix, dims, q, planes, None, scratch).unwrap();
            let mut tabled = vec![0.0f64; field.len()];
            sorted.assemble(&mut tabled);
            scratch = sorted.into_scratch();
            assert_eq!(bits(tabled), oracle, "{dims:?} {term:?} prefix {len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tables_follow_the_split_walk(
        class in any::<u8>(),
        (a, b, c) in (any::<usize>(), any::<usize>(), any::<usize>()),
    ) {
        check_layout(shape(class, [a, b, c]));
    }

    #[test]
    fn cubes_code_identically_on_both_geometries(
        (d, k) in (1usize..=3, 1u32..=4),
        seed in any::<u64>(),
        mag_bits in 1u32..=50,
        q_exp in -12i32..=4,
    ) {
        let q = 2f64.powi(q_exp) * 1.37;
        match d {
            1 => cube_on_both_geometries::<1>(1 << (k + 2), seed, mag_bits, q),
            2 => cube_on_both_geometries::<2>(1 << k, seed, mag_bits, q),
            _ => cube_on_both_geometries::<3>(1 << k, seed, mag_bits, q),
        }
    }
}

// ------------------------------------------------------------------ cache

#[test]
fn concurrent_coding_over_many_shapes_matches_serial() {
    // Twelve shapes — more than the cache holds, so entries are evicted
    // and rebuilt while other threads use them — coded by four threads at
    // once, each in its own order.
    let shapes: Vec<[usize; 3]> = (0..12).map(|i| [5 + i, 3 + (i * 7) % 11, 1 + i % 4]).collect();
    let code = |dims: [usize; 3]| {
        let n: usize = dims.iter().product();
        let field = seeded_field(n, n as u64 * 77, 20, n / 2);
        let enc = encode(&field, dims, 0.37, Termination::Quality);
        let rec: Vec<f64> = decode(&enc.stream, dims, 0.37, enc.num_planes).unwrap();
        (enc.stream, rec.into_iter().map(f64::to_bits).collect::<Vec<_>>())
    };
    let serial: Vec<_> = shapes.iter().map(|&d| code(d)).collect();
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (shapes, serial, start, code) = (&shapes, &serial, &start, &code);
            scope.spawn(move || {
                start.wait();
                for round in 0..3 {
                    for i in 0..shapes.len() {
                        let at = (i * (2 * t + 1) + round) % shapes.len();
                        assert_eq!(code(shapes[at]), serial[at], "thread {t} shape {at}");
                    }
                }
            });
        }
    });
    let held = layout::cache();
    assert!(held.len() <= MAX_CACHED_SHAPES);
    assert!(held.iter().map(|l| l.bytes()).sum::<usize>() <= MAX_CACHED_BYTES);
}

#[test]
fn admission_keeps_both_bounds() {
    let tables = |i: usize| Arc::new(Layout::build([4 + i, 3, 2]).unwrap());
    let mut held = Vec::new();
    for i in 0..MAX_CACHED_SHAPES + 3 {
        layout::admit(&mut held, tables(i), usize::MAX);
        assert!(held.len() <= MAX_CACHED_SHAPES);
    }
    // Oldest out first; a shape already held is not added twice.
    assert_eq!(held.len(), MAX_CACHED_SHAPES);
    let newest = tables(MAX_CACHED_SHAPES + 2);
    assert!(!Arc::ptr_eq(&layout::admit(&mut held, newest.clone(), usize::MAX), &newest));
    assert_eq!(held.len(), MAX_CACHED_SHAPES);
    // The byte bound evicts too, and tables above it are never kept.
    let cap = held.iter().map(|l| l.bytes()).sum::<usize>();
    let small = tables(20);
    layout::admit(&mut held, small.clone(), cap);
    assert!(held.iter().map(|l| l.bytes()).sum::<usize>() <= cap);
    assert!(held.iter().any(|l| Arc::ptr_eq(l, &small)));
    let big = Arc::new(Layout::build([40, 40, 10]).unwrap());
    assert!(big.bytes() > cap);
    assert!(Arc::ptr_eq(&layout::admit(&mut held, big.clone(), cap), &big));
    assert!(!held.iter().any(|l| Arc::ptr_eq(l, &big)));
}

#[test]
fn a_panic_under_the_cache_lock_does_not_wedge_later_calls() {
    let dims = [9usize, 5, 3];
    let field = seeded_field(135, 5, 12, 60);
    let before = encode(&field, dims, 0.5, Termination::Quality);
    let poisoner = std::thread::spawn(|| {
        let _held = layout::cache();
        panic!("poisoning the layout cache on purpose");
    });
    assert!(poisoner.join().is_err());
    let after = encode(&field, dims, 0.5, Termination::Quality);
    assert_eq!(before.stream, after.stream);
    let rec: Vec<f64> = decode(&after.stream, [7usize, 3, 2], 0.5, 3).unwrap();
    assert_eq!(rec.len(), 42);
}

#[test]
fn cheap_exits_come_before_any_table() {
    // Header fields of an untrusted container arrive here unchecked: a
    // claim of 2^32 samples, an invalid step or plane count must fail
    // before any table is built for the claimed shape (building one for
    // these shapes would take gigabytes).
    use crate::DecodeError::{Corrupt, LimitExceeded};
    let huge = [65_535usize, 65_535, 1]; // just under u32::MAX samples
    assert!(matches!(
        decode::<f32, 3>(&[0xff; 48], [1 << 16, 1 << 16, 1], 1.0, 20),
        Err(LimitExceeded(_))
    ));
    assert!(matches!(
        decode::<f32, 3>(&[0xff; 48], [usize::MAX, 2, 2], 1.0, 20),
        Err(LimitExceeded(_))
    ));
    assert!(matches!(decode::<f32, 3>(&[0xff; 48], huge, 1.0, 65), Err(Corrupt(_))));
    assert!(matches!(decode::<f32, 3>(&[0xff; 48], huge, f64::NAN, 20), Err(Corrupt(_))));
    assert!(matches!(decode::<f32, 3>(&[0xff; 48], huge, 0.0, 20), Err(Corrupt(_))));
    assert!(matches!(decode::<f32, 3>(&[0xff; 48], [0, 7, 7], 1.0, 20), Err(Corrupt(_))));
}
