//! Tests of the code blocks ([`crate::blocks`]), kept out of the audited
//! file.

use crate::blocks::{blocks, split, split_depth, Block, BLOCK_COEFFICIENTS, SPLIT_FLAG};
use crate::{decode, decode_masked, encode, reconstruct_quantized, reference, Termination};
use crate::{quantize, EncodedSpeck, Scratch};
use sperr_exec::stress::{ReverseOrder, StripedWorkers};
use sperr_exec::{Exec, Serial, WorkerPool};
use sperr_simd::Float;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A smooth field with detail at every scale, in wavelet-like decay.
fn field<T: Float>(dims: [usize; 3]) -> Vec<T> {
    let n: usize = dims.iter().product();
    (0..n)
        .map(|i| {
            let (x, y, z) = (i % dims[0], i / dims[0] % dims[1], i / (dims[0] * dims[1]));
            let v = (x as f64 * 0.37).sin() * 90.0 / (1 + x + y) as f64
                + (y as f64 * 0.11 + z as f64 * 0.07).cos() * 40.0 / (1 + z) as f64
                + ((i * 7919) % 101) as f64 * 0.003;
            T::from_f64(v)
        })
        .collect()
}

fn bits<T: Float>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

/// Bytes of a split stream's block table: what its blocks leave.
fn table_bytes(stream: &[u8], dims: [usize; 3], q: f64, planes: u8) -> usize {
    let parsed = blocks(stream, dims, q, planes).unwrap();
    stream.len() - (0..parsed.len()).map(|b| parsed.coded(b).0.len()).sum::<usize>()
}

#[test]
fn the_split_rule_cuts_large_quality_domains_into_blocks_of_at_most_2x32_cubed() {
    let rows: [([usize; 3], usize); 7] = [
        ([32, 32, 32], 1),
        ([40, 40, 40], 1),
        ([64, 64, 64], 8),
        ([128, 128, 128], 64),
        ([256, 256, 256], 512),
        ([72, 66, 50], 8),
        ([300, 2, 200], 8),
    ];
    for (dims, k) in rows {
        let depth = split_depth(dims, Termination::Quality);
        let blocks = split(dims, depth);
        assert_eq!(blocks.len(), k, "{dims:?}");
        assert_eq!(split_depth(dims, Termination::BitBudget(usize::MAX)), 0, "{dims:?}");
        // The blocks tile the domain, none larger than the bound.
        let mut seen = vec![0u8; dims.iter().product()];
        for b in &blocks {
            assert!(b.len() <= BLOCK_COEFFICIENTS, "{dims:?}: {b:?}");
            let rows = b.gather(dims, &(0..seen.len()).collect::<Vec<_>>());
            assert_eq!(rows.len(), b.len());
            rows.into_iter().for_each(|i| seen[i] += 1);
        }
        assert!(seen.iter().all(|&s| s == 1), "{dims:?}: blocks overlap or leave a gap");
    }
    // The first split is SPECK's own: ⌈len/2⌉ first, axis 0 fastest.
    let first = split([5usize, 3, 1], 1);
    let want = [([0, 0, 0], [3, 2, 1]), ([3, 0, 0], [2, 2, 1]), ([0, 2, 0], [3, 1, 1])];
    for (got, (origin, dims)) in first.iter().zip(want) {
        assert_eq!(*got, Block { origin, dims });
    }
    assert_eq!(first.len(), 4);
}

#[test]
fn split_streams_decode_to_the_one_stream_coefficients() {
    // In quality mode every coefficient quantizes alone, so the blocks
    // decode to the very values one stream over the domain gives; the
    // reference coders, behind the same table, agree byte for byte.
    fn check<T: Float>(dims: [usize; 3]) {
        let coeffs: Vec<T> = field(dims);
        let q = 0.01;
        let split = encode(&coeffs, dims, q, Termination::Quality);
        assert!(split.num_planes & SPLIT_FLAG != 0, "{dims:?} did not split");
        let one = encode(&coeffs, dims, q, Termination::BitBudget(usize::MAX));
        assert_eq!(one.num_planes & SPLIT_FLAG, 0);
        assert_eq!(split.num_planes & !SPLIT_FLAG, one.num_planes, "{dims:?}");
        let want = reconstruct_quantized(&coeffs, q);
        let got: Vec<T> = decode(&split.stream, dims, q, split.num_planes).unwrap();
        assert_eq!(bits(&got), bits(&want), "{dims:?}");
        let from_one: Vec<T> = decode(&one.stream, dims, q, one.num_planes).unwrap();
        assert_eq!(bits(&from_one), bits(&want), "{dims:?}");

        let slow = reference::encode(&coeffs, dims, q, Termination::Quality);
        assert!(slow.stream == split.stream, "{dims:?}: reference bytes differ");
        assert_eq!(slow.num_planes, split.num_planes);
        assert_eq!(
            (slow.bits_used, slow.significance_bits, slow.sign_bits, slow.refinement_bits),
            (split.bits_used, split.significance_bits, split.sign_bits, split.refinement_bits)
        );
        let oracle: Vec<T> = reference::decode(&split.stream, dims, q, split.num_planes).unwrap();
        assert_eq!(bits(&oracle), bits(&want), "{dims:?}");

        // The table costs little: a few bytes per block.
        let table = table_bytes(&split.stream, dims, q, split.num_planes);
        assert!(split.stream.len() <= one.stream.len() + table + 8 * 8, "{dims:?}");
    }
    check::<f64>([64, 64, 64]);
    check::<f32>([64, 64, 64]);
    check::<f64>([72, 66, 50]);
    check::<f32>([72, 66, 50]);
}

#[test]
fn a_masked_decode_skips_the_blocks_it_does_not_keep() {
    let dims = [72usize, 66, 50];
    let coeffs: Vec<f64> = field(dims);
    let enc = encode(&coeffs, dims, 0.01, Termination::Quality);
    let full: Vec<f64> = decode(&enc.stream, dims, 0.01, enc.num_planes).unwrap();
    // Keep a box inside the first block and one coefficient in the last.
    let n: usize = dims.iter().product();
    let mut keep = vec![0u64; n.div_ceil(64)];
    let mut kept = Vec::new();
    for z in 3..9 {
        for y in 2..30 {
            for x in 5..20 {
                kept.push(x + dims[0] * (y + dims[1] * z));
            }
        }
    }
    kept.push(n - 1);
    kept.iter().for_each(|&i| keep[i / 64] |= 1 << (i % 64));
    let got: Vec<f64> = decode_masked(&enc.stream, dims, 0.01, enc.num_planes, &keep).unwrap();
    for &i in &kept {
        assert_eq!(got[i].to_bits(), full[i].to_bits(), "kept coefficient {i}");
    }
    for (i, (g, f)) in got.iter().zip(&full).enumerate() {
        assert!(g.to_bits() == f.to_bits() || *g == 0.0, "coefficient {i}");
    }
    // A block between the two holds nothing kept: it stays zero.
    let middle = split(dims, 1)[3];
    let untouched = middle.gather(dims, &got);
    assert!(untouched.iter().all(|&v| v == 0.0), "a block without kept coefficients decoded");
}

#[test]
fn blocks_run_the_same_on_every_executor() {
    // Both block batches on every executor against `Serial`: the encode's
    // sorting passes give the same stream and counters, and a read — of
    // everything, of a corner box, of nothing — the same coefficients,
    // bit for bit, the full read one stream's. Job 0 runs exactly once
    // beside the blocks and its value comes back. Two split domains (the
    // Morton geometry and the tables) and one of one block, at both
    // widths.
    fn check<T: Float>(exec: &dyn Exec, name: &str) {
        for dims in [[64usize, 64, 64], [72, 66, 50], [40, 40, 40]] {
            let what = format!("{name}, {} B, {dims:?}", T::BYTES);
            let (coeffs, q, n): (Vec<T>, _, usize) = (field(dims), 0.01, dims.iter().product());
            let counters = |e: &EncodedSpeck| {
                let bits = [e.bits_used, e.significance_bits, e.sign_bits, e.refinement_bits];
                (e.num_planes, bits, e.sets_split, e.zero_runs)
            };
            let want = encode(&coeffs, dims, q, Termination::Quality);
            // Job 0 counts its runs and returns `value`; `ran` reads the
            // count back and clears it.
            let runs = AtomicUsize::new(0);
            let job0 = |value: u32| {
                let runs = &runs;
                move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    value
                }
            };
            let ran = || runs.swap(0, Ordering::SeqCst);
            let phase1 = quantize(&coeffs, dims, q, Termination::Quality, exec, Scratch::default());
            let (got, _, first) = phase1.encode_on(exec, Some(job0(7)));
            assert_eq!((first, ran()), (Some(7), 1), "{what}: encode's job 0");
            assert!(got.stream == want.stream, "{what}: streams differ");
            assert_eq!(counters(&got), counters(&want), "{what}");

            let mut corner = vec![0u64; n.div_ceil(64)];
            for z in 0..dims[2] / 4 {
                for y in 0..dims[1] / 4 {
                    for x in 0..dims[0] / 2 + 4 {
                        let i = x + dims[0] * (y + dims[1] * z);
                        corner[i / 64] |= 1 << (i % 64);
                    }
                }
            }
            let nothing = vec![0u64; n.div_ceil(64)];
            let full = bits(&reconstruct_quantized(&coeffs, q));
            let parsed = blocks(&got.stream, dims, q, got.num_planes).unwrap();
            for (keep, read) in
                [(None, "full"), (Some(&corner), "corner"), (Some(&nothing), "none")]
            {
                let want: Vec<T> = match keep {
                    None => decode(&got.stream, dims, q, got.num_planes).unwrap(),
                    Some(keep) => decode_masked(&got.stream, dims, q, got.num_planes, keep).unwrap(),
                };
                let mut out = vec![T::ZERO; n];
                let mut scratch = Scratch::default();
                let keep = keep.map(Vec::as_slice);
                let first = parsed.decode_into(&mut out, keep, &mut scratch, exec, Some(job0(11)));
                assert_eq!((first, ran()), (Ok(Some(11)), 1), "{what}, {read} read: job 0");
                assert!(bits(&out) == bits(&want), "{what}, {read} read differs");
                let kept = |i: usize| keep.is_none_or(|k| k[i / 64] >> (i % 64) & 1 == 1);
                let (out, wrong) = (bits(&out), (0..n).filter(|&i| kept(i)));
                assert_eq!(wrong.filter(|&i| out[i] != full[i]).count(), 0, "{what}, {read}");
            }
        }
    }
    for (exec, name) in [
        (&Serial as &dyn Exec, "Serial"),
        (&ReverseOrder, "ReverseOrder"),
        (&StripedWorkers(3), "StripedWorkers(3)"),
    ] {
        check::<f64>(exec, name);
        check::<f32>(exec, name);
    }
    for threads in [1usize, 2, 4] {
        WorkerPool::scoped(threads, |pool| {
            check::<f64>(pool, &format!("{threads}-thread pool"));
            check::<f32>(pool, &format!("{threads}-thread pool"));
        });
    }
}

#[test]
fn a_bad_block_table_is_a_typed_error() {
    let dims = [64usize, 64, 64];
    let coeffs: Vec<f64> = field(dims);
    let q = 0.05;
    let enc = encode(&coeffs, dims, q, Termination::Quality);
    let planes = enc.num_planes;
    let table = table_bytes(&enc.stream, dims, q, planes);
    let fails = |stream: &[u8], dims: [usize; 3], planes: u8| {
        let fast = decode::<f64, 3>(stream, dims, q, planes);
        let slow = reference::decode::<f64, 3>(stream, dims, q, planes);
        assert_eq!(fast.as_ref().err(), slow.as_ref().err());
        fast.is_err()
    };
    // Every cut inside the table, and some inside the blocks.
    for len in (1..table + 3).chain([enc.stream.len() / 2, enc.stream.len() - 1]) {
        assert!(fails(&enc.stream[..len], dims, planes), "a {len}-byte prefix decoded");
    }
    // Bytes after the last block.
    let mut long = enc.stream.clone();
    long.push(0);
    assert!(fails(&long, dims, planes));
    // The depth the rule does not give, a block with more planes than the
    // planes byte, a planes byte that no block reaches.
    let mut bad = enc.stream.clone();
    bad[0] = 2;
    assert!(fails(&bad, dims, planes));
    let mut bad = enc.stream.clone();
    bad[1] = (planes & !SPLIT_FLAG) + 1;
    assert!(fails(&bad, dims, planes));
    assert!(fails(&enc.stream, dims, planes + 1));
    // An overlong length.
    let mut bad = enc.stream[..2].to_vec();
    bad.extend([0xff; 12]);
    assert!(fails(&bad, dims, planes));
    // The flag on a stream of one block: a domain too small to split, and
    // a large domain's one-block stream.
    let small = encode(&coeffs[..32 * 32 * 32], [32, 32, 32], q, Termination::Quality);
    assert!(fails(&small.stream, [32, 32, 32], small.num_planes | SPLIT_FLAG));
    let one = encode(&coeffs, dims, q, Termination::BitBudget(usize::MAX));
    assert!(fails(&one.stream, dims, one.num_planes | SPLIT_FLAG));
    // A split stream read without its flag decodes (to other values) or
    // fails, but never panics; an empty split stream is all zeros.
    let _ = decode::<f64, 3>(&enc.stream, dims, q, planes & !SPLIT_FLAG);
    assert_eq!(decode::<f64, 3>(&[], dims, q, planes).unwrap(), vec![0.0; coeffs.len()]);
    // Past 64 planes the planes byte is refused as before.
    let err = decode::<f64, 3>(&enc.stream, dims, q, 200).unwrap_err();
    assert_eq!(err.to_string(), "corrupt SPECK stream: num_planes exceeds 64");
}

/// Peak signal-to-noise ratio of `got` against `want`, in dB.
fn psnr(want: &[f64], got: &[f64]) -> f64 {
    let (lo, hi) = want.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
    let mse = want.iter().zip(got).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / want.len() as f64;
    20.0 * (hi - lo).log10() - 10.0 * mse.log10()
}

#[test]
fn cuts_are_monotone_in_the_budget_and_track_the_one_stream_cut() {
    // Every block is cut at one plane and the rest of the budget spent in
    // split order: each block keeps at least as much as the budget grows,
    // the cut fills the budget to within two bytes and decodes, and its
    // PSNR never falls. Up to 0.5 bpp the PSNR is within 0.1 dB of a cut
    // of one stream over the domain at the same bytes; above it the plane
    // split across the blocks in split order trails one stream's order by
    // up to 0.9 dB on this field (DESIGN.md "Code blocks"). The
    // coefficients are a 64³ field's CDF 9/7 transform, coded at idx 20.
    let dims = [64usize, 64, 64];
    let mut coeffs = sperr_datagen::SyntheticField::MirandaPressure.generate(dims, 901).data;
    let levels = sperr_wavelet::levels_for_dims(dims);
    sperr_wavelet::forward_3d(&mut coeffs, dims, levels, sperr_wavelet::Kernel::Cdf97);
    let q = 1.5 * 9.5 / 1_048_576.0;
    let enc = encode(&coeffs, dims, q, Termination::Quality);
    let one = encode(&coeffs, dims, q, Termination::BitBudget(usize::MAX));
    let parsed = blocks(&enc.stream, dims, q, enc.num_planes).unwrap();
    assert_eq!(parsed.len(), 8);
    let lengths_of = |cut: &[u8]| -> Vec<usize> {
        let b = blocks(cut, dims, q, enc.num_planes).unwrap();
        (0..b.len()).map(|i| b.coded(i).0.len()).collect()
    };
    assert!(parsed.cut(enc.stream.len()) == enc.stream);
    // The smallest table: every block's planes byte and one byte a plane.
    let planes = (0..parsed.len()).map(|b| parsed.coded(b).1 as usize).sum::<usize>();
    let smallest = 1 + parsed.len() + planes;
    assert!(parsed.cut(smallest - 1).is_empty());
    assert_eq!(parsed.cut(smallest).len(), smallest);
    let psnr_of =
        |cut: &[u8]| psnr(&coeffs, &decode::<f64, 3>(cut, dims, q, enc.num_planes).unwrap());
    let one_at = |len: usize| {
        psnr(&coeffs, &decode::<f64, 3>(&one.stream[..len], dims, q, one.num_planes).unwrap())
    };
    let (mut last_lengths, mut last_psnr) = (vec![0; parsed.len()], 0.0);
    for step in 1..=48 {
        let budget = coeffs.len() * step / 16 / 8;
        let cut = parsed.cut(budget);
        assert!(cut.len() <= budget && cut.len() + 2 >= budget, "budget {budget}: {}", cut.len());
        let lengths = lengths_of(&cut);
        assert!(lengths.iter().zip(&last_lengths).all(|(a, b)| a >= b), "budget {budget}");
        let split_db = psnr_of(&cut);
        assert!(split_db >= last_psnr, "budget {budget}: {split_db} dB after {last_psnr} dB");
        if step <= 8 {
            let one_db = one_at(budget);
            assert!(split_db > one_db - 0.1, "budget {budget}: {split_db} dB vs one {one_db}");
        }
        // A cut of a cut at a larger budget is the cut itself.
        let twice = blocks(&cut, dims, q, enc.num_planes).unwrap().cut(budget + 100);
        assert!(twice == cut);
        (last_lengths, last_psnr) = (lengths, split_db);
    }
}
