//! Property tests for the SPECK coder: the quantization-error contract and
//! the embedded-stream property must hold for arbitrary inputs.

use proptest::prelude::*;
use sperr_speck::{decode, decode_masked, encode, Termination};

fn field_strategy() -> impl Strategy<Value = (Vec<f64>, [usize; 3])> {
    (1usize..=10, 1usize..=10, 1usize..=6).prop_flat_map(|(nx, ny, nz)| {
        let n = nx * ny * nz;
        prop::collection::vec(-1e6f64..1e6f64, n..=n).prop_map(move |v| (v, [nx, ny, nz]))
    })
}

/// `n` coefficients described by seeds, so one strategy serves every
/// shape: at most `nnz` non-zero entries (large domains stay sparse so
/// their streams are short enough to sweep), magnitudes log-uniform over
/// `2^0..2^mag_bits` so a fine `q` reaches the > 32-plane wide path.
fn seeded_field(n: usize, seed: u64, mag_bits: u32, nnz: usize) -> Vec<f64> {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut field = vec![0.0f64; n];
    for _ in 0..nnz {
        let at = next() as usize % n;
        let mag =
            (1u64 << (next() % mag_bits as u64)) as f64 * (1.0 + (next() % 1000) as f64 / 1000.0);
        field[at] = if next() & 1 == 1 { -mag } else { mag };
    }
    field
}

const PRIMES: [usize; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// A `D`-dimensional shape of one of the classes the coders meet:
/// arbitrary extents up to 40, extent-1 axes, primes, powers of two that
/// are not cubes, power-of-two cubes (the dyadic geometry), and the two
/// shapes the benchmark's chunks have.
fn shape<const D: usize>(class: u8, seeds: [usize; 3]) -> [usize; D] {
    // The big 3-D ones run in the release lane only (`scripts/ci.sh`):
    // the reference coders are too slow for them in a debug build.
    let small = cfg!(debug_assertions) && D == 3;
    let three = match class % 7 {
        0 => seeds.map(|s| 1 + s % if small { 12 } else { 40 }),
        1 => [1 + seeds[0] % 40, 1, 1 + seeds[2] % 9],
        2 => seeds.map(|s| PRIMES[s % if small { 5 } else { PRIMES.len() }]),
        3 => [8 << (seeds[0] % 3), 8, 4],
        4 => [2 << (seeds[0] % if small { 3 } else { 5 }); 3],
        5 if !small => [40, 40, 40],
        _ => [21, 10, 11],
    };
    std::array::from_fn(|d| three[d])
}

fn bits_of<T: sperr_simd::Float>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

/// [`decode`] — the dyadic geometry on a power-of-two cube, the tabled one
/// on every other shape — vs the bit-at-a-time cuboid walk of
/// [`sperr_speck::reference::decode`]: bit-identical output at every byte
/// prefix, for the stream's own plane count and an arbitrary one.
fn decodes_like_the_reference<T: sperr_simd::Float, const D: usize>(
    coeffs: &[T],
    dims: [usize; D],
    q: f64,
    budget_frac: f64,
    planes: u8,
) -> Result<(), TestCaseError> {
    let full = encode(coeffs, dims, q, Termination::Quality);
    let budget = (full.bits_used as f64 * budget_frac) as usize;
    let cut = encode(coeffs, dims, q, Termination::BitBudget(budget));
    for enc in [&full, &cut] {
        for len in 0..=enc.stream.len() {
            for np in [enc.num_planes, planes] {
                let fast = decode::<T, D>(&enc.stream[..len], dims, q, np);
                let oracle =
                    sperr_speck::reference::decode::<T, D>(&enc.stream[..len], dims, q, np);
                match (fast, oracle) {
                    (Ok(f), Ok(o)) => {
                        prop_assert!(bits_of(&f) == bits_of(&o), "{:?} len={} np={}", dims, len, np)
                    }
                    (f, o) => prop_assert!(f.is_err() && o.is_err(), "Ok/Err split at len={}", len),
                }
            }
        }
    }
    Ok(())
}

/// The budget just short of, and just reaching, the `ordinal`-th
/// refinement bit of the quality stream. `refinement_bits` grows by one
/// per budget bit inside a refinement span and not at all inside a
/// sorting pass, so the bit is found by bisection.
fn budgets_around_refinement_bit<T: sperr_simd::Float, const D: usize>(
    coeffs: &[T],
    dims: [usize; D],
    q: f64,
    bits_used: usize,
    ordinal: usize,
) -> [usize; 2] {
    let (mut lo, mut hi) = (0usize, bits_used);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if encode(coeffs, dims, q, Termination::BitBudget(mid)).refinement_bits >= ordinal {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    [lo - 1, lo]
}

/// [`encode`] vs [`sperr_speck::reference::encode`]: the same bytes and
/// the same counters, in quality mode and at budgets of every kind — 0,
/// 1, inside a sorting pass, on the first and last bit of refinement
/// spans and inside them, the whole stream and beyond. Small streams are
/// swept at every budget.
fn encodes_like_the_reference<T: sperr_simd::Float, const D: usize>(
    coeffs: &[T],
    dims: [usize; D],
    q: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let same = |term: Termination| -> Result<sperr_speck::EncodedSpeck, TestCaseError> {
        let fast = encode(coeffs, dims, q, term);
        let slow = sperr_speck::reference::encode(coeffs, dims, q, term);
        prop_assert!(fast.stream == slow.stream, "{:?} {:?}: bytes differ", dims, term);
        prop_assert_eq!(
            (
                fast.bits_used,
                fast.significance_bits,
                fast.sign_bits,
                fast.refinement_bits,
                fast.num_planes
            ),
            (
                slow.bits_used,
                slow.significance_bits,
                slow.sign_bits,
                slow.refinement_bits,
                slow.num_planes
            ),
            "{:?} {:?}",
            dims,
            term
        );
        Ok(fast)
    };
    let full = same(Termination::Quality)?;
    let bits = full.bits_used;
    let mut budgets =
        vec![0, 1, bits.saturating_sub(1), bits, bits + 1, bits + 4096, usize::MAX / 2];
    if bits <= 1500 {
        budgets.extend(0..bits);
    } else {
        budgets.extend((0..6).map(|i| (seed.rotate_left(i * 11) % bits as u64) as usize));
    }
    if full.refinement_bits > 0 {
        // Where each plane's refinement span begins and ends, as ordinals
        // of refinement bits: the span of plane `p` has one bit per
        // coefficient found on a higher plane.
        let inv_q = T::ONE / T::from_f64(q);
        let mags: Vec<u64> =
            coeffs.iter().map(|&c| sperr_simd::quantize_magnitude(c, inv_q)).collect();
        let mut edges = Vec::new();
        let mut before = 0usize;
        for p in (0..full.num_planes as u32).rev() {
            let older = mags.iter().filter(|&&k| k >> (p + 1) != 0).count();
            if older > 0 {
                edges.extend([before + 1, before + older.div_ceil(2), before + older]);
            }
            before += older;
        }
        prop_assert_eq!(before, full.refinement_bits);
        for i in 0..4u32 {
            let ordinal = edges[(seed.rotate_right(i * 13) % edges.len() as u64) as usize];
            budgets.extend(budgets_around_refinement_bit(coeffs, dims, q, bits, ordinal));
        }
        budgets.extend(budgets_around_refinement_bit(coeffs, dims, q, bits, full.refinement_bits));
    }
    for b in budgets {
        let cut = same(Termination::BitBudget(b))?;
        prop_assert_eq!(cut.bits_used, b.min(bits));
        prop_assert_eq!(cut.significance_bits + cut.sign_bits + cut.refinement_bits, cut.bits_used);
    }
    Ok(())
}

/// One seeded case of both differentials at both widths.
fn differential_case<const D: usize>(
    class: u8,
    seeds: [usize; 3],
    seed: u64,
    mag_bits: u32,
    q: f64,
    budget_frac: f64,
    planes: u8,
) -> Result<(), TestCaseError> {
    let dims: [usize; D] = shape(class, seeds);
    let n: usize = dims.iter().product();
    // All-zero, single-nonzero, sparse and dense fields (large domains
    // are never fully dense: the reference encoder is slow).
    let nnz = match (seed >> 8) % 16 {
        0 => 0,
        1 => 1,
        2..=5 => n.min(40),
        _ if n <= 2500 => n,
        _ => n / 16,
    };
    let mut field = seeded_field(n, seed, mag_bits, nnz);
    if seed.is_multiple_of(5) && nnz > 0 {
        // Past every representable magnitude: quantizes to the 2^62 cap.
        field[seed as usize % n] = -3.0e38;
    }
    let field32: Vec<f32> = field.iter().map(|&v| v as f32).collect();
    encodes_like_the_reference::<f64, D>(&field, dims, q, seed)?;
    encodes_like_the_reference::<f32, D>(&field32, dims, q, seed)?;
    // Every prefix of two streams at two plane counts: short streams only.
    if n <= 600 || nnz <= 40 {
        decodes_like_the_reference::<f64, D>(&field, dims, q, budget_frac, planes)?;
        decodes_like_the_reference::<f32, D>(&field32, dims, q, budget_frac, planes)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn both_directions_match_the_reference_on_every_shape_class(
        d in 1usize..=3,
        class in any::<u8>(),
        (a, b, c) in (any::<usize>(), any::<usize>(), any::<usize>()),
        seed in any::<u64>(),
        (wide, mag_bits) in (any::<bool>(), 1u32..=62),
        q_exp in -12i32..=4,
        budget_frac in 0.0f64..1.0,
        planes in 1u8..=64,
    ) {
        // Half the cases stay within 32 planes (the narrow transpose).
        let (mag_bits, q_exp) = if wide { (mag_bits, q_exp) } else { (1 + mag_bits % 20, q_exp.max(-8)) };
        let q = 2f64.powi(q_exp) * 1.37;
        match d {
            1 => differential_case::<1>(class, [a, b, c], seed, mag_bits, q, budget_frac, planes)?,
            2 => differential_case::<2>(class, [a, b, c], seed, mag_bits, q, budget_frac, planes)?,
            _ => differential_case::<3>(class, [a, b, c], seed, mag_bits, q, budget_frac, planes)?,
        }
    }
}

/// The cells of partition level `k - 1` (`k = ⌈log2(longest extent)⌉`),
/// each as the row-major indices of its pixels: per axis, `k - 1`
/// halvings of `[0, n)` (the first part taking `len - len/2`, empty parts
/// dropped), and a cell is one interval per axis.
fn cells_above_pixels<const D: usize>(dims: [usize; D]) -> Vec<Vec<usize>> {
    let longest = dims.iter().copied().max().unwrap_or(1);
    let k = longest.next_power_of_two().trailing_zeros() as usize;
    let axis = |n: usize| {
        let mut parts = vec![(0usize, n)];
        for _ in 1..k {
            parts = parts
                .into_iter()
                .flat_map(|(lo, len)| {
                    let first = len - len / 2;
                    [(lo, first), (lo + first, len / 2)].into_iter().filter(|p| p.1 > 0)
                })
                .collect();
        }
        parts
    };
    let mut cells = vec![vec![0usize]];
    let mut stride = 1;
    for &n in &dims {
        let parts = axis(n);
        cells = cells
            .iter()
            .flat_map(|base| {
                parts.iter().map(move |&(lo, len)| {
                    base.iter()
                        .flat_map(|&b| (lo..lo + len).map(move |x| b + x * stride))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        stride *= n;
    }
    cells
}

/// A field whose pixel bucket holds exactly `len` entries from the second
/// plane on: level-`k − 1` cells with one or more big pixels (`2^12`, all
/// found on the first plane) and their other pixels small, until the
/// cells' leftover pixels number `len`; every other pixel is zero. The
/// first plane that finds a small pixel scans a bucket of exactly `len`
/// entries. With `mixed`, a small pixel is zero or 1 to 15, so windows
/// mix significant and insignificant entries over the last four planes;
/// without, every small pixel is found on the last plane, whose windows
/// are all significant: the longest bit patterns a window has.
fn pixel_bucket_field<const D: usize>(
    dims: [usize; D],
    len: usize,
    mixed: bool,
    seed: u64,
) -> Vec<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut field = vec![0.0f64; dims.iter().product()];
    let mut left = len;
    for cell in cells_above_pixels(dims).into_iter().filter(|c| c.len() > 1) {
        if left == 0 {
            break;
        }
        let bigs = if left >= cell.len() - 1 { 1 } else { cell.len() - left };
        for (j, &at) in cell.iter().enumerate() {
            let sign = if next() & 1 == 1 { -1.0 } else { 1.0 };
            field[at] = sign
                * match (j < bigs, mixed, next() % 4) {
                    (true, _, _) => 4096.5,
                    (false, false, _) => 1.0 + (next() % 90) as f64 / 100.0,
                    (false, true, 0) => 0.0,
                    (false, true, _) => 1.0 + (next() % 1500) as f64 / 100.0,
                };
        }
        left -= cell.len() - bigs;
    }
    assert_eq!(left, 0, "{dims:?} has too few cells for a bucket of {len}");
    field
}

/// The smallest budget whose cut stream carries `signs` sign bits
/// (`sign_bits` only grows with the budget).
fn budget_reaching_sign_bit<T: sperr_simd::Float, const D: usize>(
    coeffs: &[T],
    dims: [usize; D],
    bits_used: usize,
    signs: usize,
) -> usize {
    let (mut lo, mut hi) = (0usize, bits_used);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if encode(coeffs, dims, 1.0, Termination::BitBudget(mid)).sign_bits >= signs {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// [`encode`] and [`decode`] vs the reference around the pixel windows'
/// edges, at three points of the quality stream: where the first small
/// pixel is found (the first scan of the `len`-entry bucket that finds
/// anything), where half of the last plane's discoveries are made, and
/// the middle. Every budget within ±70 bits of each point gives the same
/// bytes and counters; every byte prefix over the last 16 bytes of the
/// quality stream and of the streams cut at the points, and within 8
/// bytes of each point, decodes to the same values.
fn window_edges_match_the_reference<T: sperr_simd::Float, const D: usize>(
    coeffs: &[T],
    dims: [usize; D],
    len: usize,
) -> Result<(), TestCaseError> {
    let q = 1.0;
    let full = encode(coeffs, dims, q, Termination::Quality);
    let slow = sperr_speck::reference::encode(coeffs, dims, q, Termination::Quality);
    prop_assert!(full.stream == slow.stream, "{:?}: quality bytes differ", dims);
    let bits = full.bits_used;
    let bigs = coeffs.iter().filter(|c| c.to_f64().abs() > 4096.0).count();
    let points = [
        budget_reaching_sign_bit(coeffs, dims, bits, bigs + 1),
        budget_reaching_sign_bit(coeffs, dims, bits, full.sign_bits.saturating_sub(len / 2)),
        bits / 2,
    ];
    let mut streams = vec![full.clone()];
    for point in points {
        for b in point.saturating_sub(70)..=point + 70 {
            let term = Termination::BitBudget(b);
            let fast = encode(coeffs, dims, q, term);
            let slow = sperr_speck::reference::encode(coeffs, dims, q, term);
            prop_assert!(fast.stream == slow.stream, "{:?} budget {}: bytes differ", dims, b);
            prop_assert_eq!(
                (fast.bits_used, fast.significance_bits, fast.sign_bits, fast.refinement_bits),
                (slow.bits_used, slow.significance_bits, slow.sign_bits, slow.refinement_bits),
                "{:?} budget {}",
                dims,
                b
            );
            if b == point {
                streams.push(fast);
            }
        }
    }
    for (i, enc) in streams.iter().enumerate() {
        let n = enc.stream.len();
        let mut lens: Vec<usize> = (n.saturating_sub(16)..=n).collect();
        if i == 0 {
            for point in points {
                lens.extend((point / 8).saturating_sub(8)..=(point / 8 + 8).min(n));
            }
        }
        for cut in lens {
            let prefix = &enc.stream[..cut];
            let fast = decode::<T, D>(prefix, dims, q, enc.num_planes).unwrap();
            let oracle =
                sperr_speck::reference::decode::<T, D>(prefix, dims, q, enc.num_planes).unwrap();
            prop_assert!(bits_of(&fast) == bits_of(&oracle), "{:?} prefix {}", dims, cut);
        }
    }
    Ok(())
}

/// Pixel buckets one entry either side of the windows' sizes — 28 (a
/// decoder window), 32 (an encoder window) and 64 (two of them) — with
/// mixed and with all-significant windows, on a power-of-two cube and a
/// non-pow2 shape, both widths.
fn window_edge_sweep<const D: usize>(cube: [usize; D], other: [usize; D]) {
    for dims in [cube, other] {
        for (i, len) in [27, 28, 29, 31, 32, 33, 63, 64, 65].into_iter().enumerate() {
            for mixed in [true, false] {
                let field = pixel_bucket_field(dims, len, mixed, 0x5eed + i as u64);
                let field32: Vec<f32> = field.iter().map(|&v| v as f32).collect();
                window_edges_match_the_reference::<f64, D>(&field, dims, len).unwrap();
                window_edges_match_the_reference::<f32, D>(&field32, dims, len).unwrap();
            }
        }
    }
}

#[test]
fn pixel_window_edges_match_the_reference_1d() {
    window_edge_sweep([256], [200]);
}

#[test]
fn pixel_window_edges_match_the_reference_2d() {
    window_edge_sweep([16, 16], [13, 11]);
}

#[test]
fn pixel_window_edges_match_the_reference_3d() {
    window_edge_sweep([8, 8, 8], [7, 6, 5]);
}

/// A keep bitmap over `n` coefficients of one of four kinds: nothing,
/// everything, a contiguous run (a box row), or scattered single bits —
/// one word short of `n` when `short`, so the tail keeps nothing.
fn keep_bitmap(n: usize, kind: u8, seed: u64, short: bool) -> Vec<u64> {
    let mut bits = vec![0u64; n.div_ceil(64)];
    let mut set = |i: usize| bits[i / 64] |= 1 << (i % 64);
    let at = |k: u64| (seed.rotate_left(k as u32 * 7) % n.max(1) as u64) as usize;
    match kind % 4 {
        0 => {}
        1 => (0..n).for_each(&mut set),
        2 => (at(0)..(at(0) + 1 + at(1) % 97).min(n)).for_each(&mut set),
        _ => (0..1 + n / 50).for_each(|k| set(at(k as u64 + 2))),
    }
    if short {
        bits.pop();
    }
    bits
}

/// [`decode_masked`] vs [`decode`] at every byte prefix: every kept
/// coefficient bit-identical, every other one 0 or the decoded value.
fn masked_decodes_like_decode<T: sperr_simd::Float, const D: usize>(
    coeffs: &[T],
    dims: [usize; D],
    q: f64,
    keep: &[u64],
) -> Result<(), TestCaseError> {
    let enc = encode(coeffs, dims, q, Termination::Quality);
    for len in 0..=enc.stream.len() {
        let full = decode::<T, D>(&enc.stream[..len], dims, q, enc.num_planes).unwrap();
        let masked =
            decode_masked::<T, D>(&enc.stream[..len], dims, q, enc.num_planes, keep).unwrap();
        prop_assert_eq!(masked.len(), full.len());
        for (i, (m, f)) in masked.iter().zip(&full).enumerate() {
            let kept = keep.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1);
            let (m, f) = (m.to_f64().to_bits(), f.to_f64().to_bits());
            prop_assert!(m == f || (!kept && m == 0), "{:?} len={} at {}: kept={}", dims, len, i, kept);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn masked_decode_keeps_exactly_what_decode_gives(
        d in 1usize..=3,
        class in any::<u8>(),
        (a, b, c) in (any::<usize>(), any::<usize>(), any::<usize>()),
        seed in any::<u64>(),
        kind in any::<u8>(),
        wide in any::<bool>(),
    ) {
        fn case<const D: usize>(
            class: u8,
            seeds: [usize; 3],
            seed: u64,
            kind: u8,
            wide: bool,
        ) -> Result<(), TestCaseError> {
            let dims: [usize; D] = shape(class, seeds);
            let n: usize = dims.iter().product();
            let field = seeded_field(n, seed, 20, n.min(300));
            let keep = keep_bitmap(n, kind, seed, seed % 7 == 0);
            if wide {
                masked_decodes_like_decode::<f64, D>(&field, dims, 0.37, &keep)
            } else {
                let field32: Vec<f32> = field.iter().map(|&v| v as f32).collect();
                masked_decodes_like_decode::<f32, D>(&field32, dims, 0.37, &keep)
            }
        }
        match d {
            1 => case::<1>(class, [a, b, c], seed, kind, wide)?,
            2 => case::<2>(class, [a, b, c], seed, kind, wide)?,
            _ => case::<3>(class, [a, b, c], seed, kind, wide)?,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quality_mode_bounds_error_by_q((coeffs, dims) in field_strategy(),
                                      q in 1e-3f64..1e3) {
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        let rec = decode(&enc.stream, dims, q, enc.num_planes).unwrap();
        for (c, r) in coeffs.iter().zip(&rec) {
            // Dead-zone values reconstruct as 0 (error < q); coded values
            // reconstruct mid-riser (error <= q/2).
            prop_assert!((c - r).abs() < q * (1.0 + 1e-12),
                         "c={c} r={r} q={q}");
            if c.abs() >= q {
                prop_assert!((c - r).abs() <= q / 2.0 * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn zeros_decode_to_zeros((coeffs, dims) in field_strategy(), q in 1e-3f64..1e3) {
        // Exact-zero coefficients must come back as exact zeros.
        let mut coeffs = coeffs;
        for (i, c) in coeffs.iter_mut().enumerate() {
            if i % 3 == 0 { *c = 0.0; }
        }
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        let rec = decode::<f64, 3>(&enc.stream, dims, q, enc.num_planes).unwrap();
        for (i, (&c, &r)) in coeffs.iter().zip(&rec).enumerate() {
            if c == 0.0 {
                prop_assert_eq!(r, 0.0, "idx {}", i);
            }
        }
    }

    #[test]
    fn every_prefix_decodes((coeffs, dims) in field_strategy(), q in 1e-2f64..1e2) {
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        // Every byte-prefix must decode to a full-size result without error.
        let step = (enc.stream.len() / 7).max(1);
        let n: usize = dims.iter().product();
        let mut cut = 0;
        while cut <= enc.stream.len() {
            let rec = decode::<f64, 3>(&enc.stream[..cut], dims, q, enc.num_planes).unwrap();
            prop_assert_eq!(rec.len(), n);
            cut += step;
        }
    }

    #[test]
    fn truncation_at_every_byte_boundary_never_panics((coeffs, dims) in field_strategy(),
                                                      q in 1e-2f64..1e2) {
        // Exhaustive sweep: EVERY proper prefix must decode cleanly (the
        // stream is embedded — truncation means lower quality, not error)
        // and must never panic.
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        let n: usize = dims.iter().product();
        for cut in 0..=enc.stream.len() {
            let rec = decode::<f64, 3>(&enc.stream[..cut], dims, q, enc.num_planes);
            match rec {
                Ok(v) => prop_assert_eq!(v.len(), n),
                Err(_) => prop_assert!(false, "embedded prefix rejected at {}", cut),
            }
        }
    }

    #[test]
    fn corrupted_streams_never_panic((coeffs, dims) in field_strategy(),
                                     q in 1e-2f64..1e2,
                                     pos_seed in any::<u64>(),
                                     planes in 0u8..=64) {
        // Bit flips and adversarial plane counts: any Result is fine.
        let enc = encode(&coeffs, dims, q, Termination::Quality);
        if !enc.stream.is_empty() {
            let mut bad = enc.stream.clone();
            let pos = (pos_seed as usize) % bad.len();
            bad[pos] ^= 1 << (pos_seed % 8);
            let _ = decode::<f64, 3>(&bad, dims, q, enc.num_planes);
        }
        let _ = decode::<f64, 3>(&enc.stream, dims, q, planes);
    }

    #[test]
    fn fast_path_bit_identical_to_reference((coeffs, dims) in field_strategy(),
                                            q in 1e-3f64..1e3,
                                            budget_seed in any::<u64>()) {
        // The word-granular hot path must emit the exact bytes (and bit
        // counters) of the kept bit-at-a-time reference encoder, in both
        // termination modes, for arbitrary inputs — the property that
        // makes the PR 4 overhaul stream-neutral.
        let fast = encode(&coeffs, dims, q, Termination::Quality);
        let slow = sperr_speck::reference::encode(&coeffs, dims, q, Termination::Quality);
        prop_assert_eq!(&fast.stream, &slow.stream);
        prop_assert_eq!(fast.bits_used, slow.bits_used);
        prop_assert_eq!(fast.significance_bits, slow.significance_bits);
        prop_assert_eq!(fast.sign_bits, slow.sign_bits);
        prop_assert_eq!(fast.refinement_bits, slow.refinement_bits);

        let budget = (budget_seed as usize) % (fast.bits_used + 2);
        let fast_b = encode(&coeffs, dims, q, Termination::BitBudget(budget));
        let slow_b = sperr_speck::reference::encode(&coeffs, dims, q, Termination::BitBudget(budget));
        prop_assert_eq!(&fast_b.stream, &slow_b.stream);
        prop_assert_eq!(fast_b.bits_used, slow_b.bits_used);
    }

    #[test]
    fn f32_fast_path_matches_reference_and_bounds_error((coeffs, dims) in field_strategy(),
                                                        q in 1e-2f64..1e2) {
        // f32 instantiation: production == reference bitwise, decode ==
        // encode-side reconstruction, and the quantization-error contract
        // holds up to f32 rounding (quantizing c/q in f32 loses precision
        // once the ratio nears 2^24, so the bound carries a relative term).
        let coeffs32: Vec<f32> = coeffs.iter().map(|&v| v as f32).collect();
        let fast = encode(&coeffs32, dims, q, Termination::Quality);
        let slow = sperr_speck::reference::encode(&coeffs32, dims, q, Termination::Quality);
        prop_assert_eq!(&fast.stream, &slow.stream);
        prop_assert_eq!(fast.bits_used, slow.bits_used);
        let rec: Vec<f32> = decode(&fast.stream, dims, q, fast.num_planes).unwrap();
        let via_fast = sperr_speck::reconstruct_quantized(&coeffs32, q);
        prop_assert_eq!(&rec, &via_fast);
        for (&c, &r) in coeffs32.iter().zip(&rec) {
            let err = (c as f64 - r as f64).abs();
            prop_assert!(err < q * (1.0 + 1e-5) + (c as f64).abs() * 1e-5,
                         "c={c} r={r} q={q}");
        }
    }

    #[test]
    fn budget_prefix_of_quality_stream((coeffs, dims) in field_strategy(), q in 1e-2f64..1e2,
                                       frac in 0.05f64..1.0) {
        // A bit-budget encode must be a strict prefix of the quality-mode
        // stream (same coder state, earlier stop).
        let full = encode(&coeffs, dims, q, Termination::Quality);
        let budget_bits = ((full.bits_used as f64) * frac) as usize;
        let cut = encode(&coeffs, dims, q, Termination::BitBudget(budget_bits));
        prop_assert!(cut.bits_used <= budget_bits.max(0));
        let full_bits = &full.stream;
        let cut_bytes = cut.bits_used / 8;
        prop_assert_eq!(&cut.stream[..cut_bytes], &full_bits[..cut_bytes]);
    }
}
