//! Differential tests: the table-driven, block-seekable coder against the
//! bit-at-a-time [`crate::oracle`] it replaced — identical bytes out of
//! the encoder, identical `Result`s out of the decoder (same bytes, or
//! the very same error), on clean, damaged and hostile input alike.

use crate::decode::{decompress_with, INFLATE_BATCH};
use crate::huffman::{self, CanonicalCode};
use crate::inflate::inflate_block;
use crate::lz77::{BlockEncoder, MAX_FRAMED_BLOCK};
use crate::oracle::{self, OracleCode};
use crate::{
    compress, compress_with, decompress, BlockDirectory, DecodeError, Encoders, BLOCK_SIZE,
    FLAG_CODED, FLAG_LAST,
};
use proptest::prelude::*;
use sperr_bitstream::{BitReader, BitWriter, Error};
use sperr_exec::stress::{ReverseOrder, StripedWorkers};
use sperr_exec::{Exec, Serial, WorkerPool};
use std::ops::Range;

/// Bytes `range` of `dir`'s data, inflating only the blocks that hold them.
fn inflate_range(dir: &BlockDirectory<'_>, range: Range<usize>) -> Result<Vec<u8>, DecodeError> {
    dir.inflate_ranges(std::slice::from_ref(&range), &Serial)?.get(range).map(<[u8]>::to_vec)
}

/// Deterministic xorshift, so corpus entries are a function of their seed.
struct Rng(u64);
impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// `len` bytes of one of the shapes the coder meets: 0 random (stored),
/// 1 skewed literals (coded, few matches), 2 short-period repeats with
/// noise (many matches at small distances), 3 long single-byte runs
/// (maximum-length overlapping matches), 4 coder-like output — dense
/// bytes broken by zero padding and repeated headers, 5 far repeats (a
/// slab copied ~30 KiB later: distances near the window limit).
fn corpus(kind: usize, len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut data = Vec::with_capacity(len);
    match kind % 6 {
        0 => data.extend((0..len).map(|_| rng.next() as u8)),
        1 => data.extend((0..len).map(|_| {
            let r = rng.next();
            if r % 8 < 5 {
                b'a'
            } else {
                (r >> 8) as u8 % 17
            }
        })),
        2 => {
            let period = 3 + rng.below(40);
            let unit: Vec<u8> = (0..period).map(|_| rng.next() as u8).collect();
            data.extend((0..len).map(|i| {
                if rng.below(97) == 0 {
                    rng.next() as u8
                } else {
                    unit[i % period]
                }
            }));
        }
        3 => {
            while data.len() < len {
                let (byte, run) = (rng.next() as u8, 1 + rng.below(2000));
                data.extend(std::iter::repeat_n(byte, run.min(len - data.len())));
            }
        }
        4 => {
            while data.len() < len {
                data.extend_from_slice(&[0u8; 20]);
                data.extend((0..1 + rng.below(3000)).map(|_| rng.next() as u8));
                data.extend(std::iter::repeat_n(0, rng.below(60)));
            }
            data.truncate(len);
        }
        _ => {
            let slab: Vec<u8> = (0..1 + rng.below(9000)).map(|_| rng.next() as u8).collect();
            while data.len() < len {
                data.extend_from_slice(&slab);
                data.extend((0..rng.below(31_000)).map(|_| (rng.next() % 251) as u8));
            }
            data.truncate(len);
        }
    }
    data
}

/// Lengths that matter: nothing, shorter than a match, a few bytes, and
/// both sides of one and two block boundaries (the final short block).
fn interesting_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..8,
        8usize..3000,
        BLOCK_SIZE - 5..BLOCK_SIZE + 6,
        2 * BLOCK_SIZE - 3..2 * BLOCK_SIZE + 300,
    ]
}

/// The new block decoder's result in the oracle's shape.
fn inflate(payload: &[u8], raw_len: usize) -> Result<Vec<u8>, Error> {
    let mut out = vec![0xEE; 3]; // inflate appends; earlier content is not its window
    inflate_block(payload, raw_len, raw_len, &mut out)?;
    Ok(out.split_off(3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encoder_is_byte_identical_to_oracle(
        kind in 0usize..6, len in interesting_len(), seed in any::<u64>()
    ) {
        let data = corpus(kind, len, seed);
        let packed = compress(&data);
        prop_assert!(packed == oracle::compress(&data), "kind {} len {}", kind, len);
        prop_assert!(decompress(&packed).as_deref() == Ok(&data[..]));
    }

    #[test]
    fn block_decoder_agrees_with_oracle_under_damage(
        kind in 1usize..6, len in 0usize..6000, seed in any::<u64>()
    ) {
        let data = corpus(kind, len, seed);
        let payload = oracle::compress_block(&data);
        prop_assert_eq!(inflate(&payload, len), Ok(data));
        let mut rng = Rng::new(seed ^ 0xD1FF);
        for _ in 0..40 {
            let mut bad = payload.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bad.len() * 8);
                bad[at / 8] ^= 1 << (at % 8);
            }
            prop_assert_eq!(inflate(&bad, len), oracle::decompress_block(&bad, len));
        }
        for declared in [len.saturating_sub(1), len + 1, len + 300] {
            prop_assert_eq!(
                inflate(&payload, declared),
                oracle::decompress_block(&payload, declared)
            );
        }
    }

    #[test]
    fn block_decoder_agrees_with_oracle_on_hostile_tables(
        shape in 0usize..6, seed in any::<u64>()
    ) {
        // A payload is 315 four-bit lengths, then tokens. Write tables no
        // encoder would — over-subscribed, incomplete, single-symbol,
        // all-zero distance or literal table — followed by random bits.
        let mut rng = Rng::new(seed);
        let mut w = BitWriter::new();
        for sym in 0..285 + 30 {
            let dist_table = sym >= 285;
            let len = match shape {
                0 => 1 + rng.below(3),                          // wildly over-subscribed
                1 => if rng.below(4) == 0 { 0 } else { 8 + rng.below(8) }, // mildly
                2 => if rng.below(40) == 0 { 2 + rng.below(14) } else { 0 }, // incomplete
                3 => usize::from(sym == 65 || sym == 285),      // single-symbol tables
                4 => if dist_table { 0 } else { 8 + rng.below(2) }, // no distances at all
                _ => if dist_table { 1 + rng.below(15) } else { 0 }, // no literals at all
            };
            w.put_bits(len as u64, 4);
        }
        for _ in 0..rng.below(400) {
            w.put_bits(rng.next(), 64);
        }
        let payload = w.into_bytes();
        for raw_len in [0, 1, 700, BLOCK_SIZE] {
            prop_assert_eq!(inflate(&payload, raw_len), oracle::decompress_block(&payload, raw_len));
        }
    }

    #[test]
    fn symbol_decoder_agrees_with_oracle_on_any_length_table(
        alphabet in prop_oneof![1usize..40, 250usize..600],
        max_len in 1u8..32,
        fill in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng::new(seed);
        let lengths: Vec<u8> = (0..alphabet)
            .map(|_| if rng.below(12) < fill { 1 + rng.below(max_len as usize) as u8 } else { 0 })
            .collect();
        let (table, oracle) = (CanonicalCode::from_lengths(&lengths), OracleCode::from_lengths(&lengths));
        let bytes: Vec<u8> = (0..rng.below(64)).map(|_| rng.next() as u8).collect();
        let (mut a, mut b) = (BitReader::new(&bytes), BitReader::new(&bytes));
        loop {
            let (x, y) = (table.decode_symbol(&mut a), oracle.decode_symbol(&mut b));
            prop_assert_eq!(&x, &y, "lengths {:?}", lengths);
            if x.is_err() {
                break;
            }
            prop_assert_eq!(a.position_bits(), b.position_bits());
        }
    }

    #[test]
    fn stream_decoder_agrees_with_oracle_under_damage(
        kind in 0usize..6, len in interesting_len(), seed in any::<u64>()
    ) {
        // Header damage can surface differently (the directory walk sees
        // every block header before any payload), so the contract at
        // stream level is: same bytes, or both refuse.
        let data = corpus(kind, len, seed);
        let packed = compress(&data);
        let mut rng = Rng::new(seed ^ 0xBAD);
        for _ in 0..12 {
            let mut bad = packed.clone();
            let at = rng.below(bad.len() * 8);
            bad[at / 8] ^= 1 << (at % 8);
            prop_assert_eq!(decompress(&bad).ok(), oracle::decompress(&bad).ok());
            let cut = rng.below(packed.len());
            prop_assert!(decompress(&packed[..cut]).is_err() && oracle::decompress(&packed[..cut]).is_err());
        }
    }

    #[test]
    fn inflate_range_equals_slice_of_decompress(
        n_blocks in 1usize..6, tail in 0usize..5000, seed in any::<u64>()
    ) {
        // Alternate incompressible and repetitive blocks so the stream
        // mixes stored and coded ones.
        let mut rng = Rng::new(seed);
        let mut data = Vec::new();
        for b in 0..n_blocks {
            let kind = if (b + seed as usize).is_multiple_of(2) { 0 } else { 2 };
            data.extend(corpus(kind, BLOCK_SIZE, seed + b as u64));
        }
        data.extend(corpus(4, tail, seed));
        let packed = compress(&data);
        let dir = BlockDirectory::parse(&packed).unwrap();
        prop_assert_eq!(dir.raw_len(), data.len());
        let mut ranges = vec![0..0, data.len()..data.len(), 0..data.len(), 0..44.min(data.len())];
        for b in 1..=n_blocks {
            // Straddle each block boundary, and end exactly on it.
            let edge = (b * BLOCK_SIZE).min(data.len());
            ranges.push(edge.saturating_sub(1 + rng.below(300))..(edge + rng.below(300)).min(data.len()));
            ranges.push(edge.saturating_sub(rng.below(5000))..edge);
        }
        ranges.push(data.len().saturating_sub(1 + rng.below(4000))..data.len()); // the last block
        for _ in 0..6 {
            let (a, b) = (rng.below(data.len() + 1), rng.below(data.len() + 1));
            ranges.push(a.min(b)..a.max(b));
        }
        for r in &ranges {
            prop_assert!(inflate_range(&dir, r.clone()).as_deref() == Ok(&data[r.clone()]), "range {:?}", r);
        }
        // All of them in one sparse read: each block inflated once, every
        // range served from the shared buffers.
        let sparse = dir.inflate_ranges(&ranges, &Serial).unwrap();
        for r in &ranges {
            prop_assert!(sparse.get(r.clone()) == Ok(&data[r.clone()]), "range {:?}", r);
        }
        prop_assert!(inflate_range(&dir, 0..data.len() + 1).is_err());
    }
}

/// One block of the shapes the store decision must get right: 0 uniform
/// noise, 1 SPECK-like output (noise broken by sparse-bit stretches, as a
/// sorting pass writes them), 2 a random pattern repeated at a period from
/// 1 B to 64 KiB, over the block or over a stretch of noise, 3 noise with
/// sparse copies of 8–64-byte snippets, 4 noise with zero runs.
fn store_probe_input(kind: usize, len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
    match kind % 5 {
        0 => {}
        1 => {
            let mut at = rng.below(2000);
            while at < len {
                let run = (1 + rng.below(600)).min(len - at);
                let density = 1 + rng.below(24);
                for byte in &mut data[at..at + run] {
                    *byte = (0..8).fold(0u8, |b, bit| b | u8::from(rng.below(64) < density) << bit);
                }
                at += run + rng.below(6000);
            }
        }
        2 => {
            let scale = 1 << (1 + rng.below(16));
            let period = 1 + rng.below(scale).min(65_535);
            let pattern: Vec<u8> = (0..period).map(|_| rng.next() as u8).collect();
            let (start, end) = if rng.below(2) == 0 {
                (0, len)
            } else {
                let start = rng.below(len.max(1));
                (start, start + rng.below(len - start + 1))
            };
            for (i, byte) in data[start..end].iter_mut().enumerate() {
                *byte = pattern[i % period];
            }
        }
        3 => {
            for _ in 0..1 + rng.below(4) {
                let snippet: Vec<u8> = (0..8 + rng.below(57)).map(|_| rng.next() as u8).collect();
                for _ in 0..1 + rng.below(6) {
                    if len > snippet.len() {
                        let at = rng.below(len - snippet.len());
                        data[at..at + snippet.len()].copy_from_slice(&snippet);
                    }
                }
            }
        }
        _ => {
            for _ in 0..1 + rng.below(8) {
                let at = rng.below(len.max(1));
                let scale = 1 << (1 + rng.below(12));
                let run = (1 + rng.below(scale)).min(len - at);
                data[at..at + run].fill(0);
            }
        }
    }
    data
}

/// Block lengths: full blocks mostly, and short and partial last blocks.
fn store_probe_len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(BLOCK_SIZE), Just(BLOCK_SIZE), 0usize..200, 200usize..BLOCK_SIZE]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn store_decision_agrees_with_the_full_parse(
        kind in 0usize..5, len in store_probe_len(), seed in any::<u64>(), last in any::<bool>()
    ) {
        // The decision against the full parse of the same block: the same
        // bytes whenever the parse stores it, and a store without a parse
        // only where the parse would save at most 0.5 % of the block.
        let block = store_probe_input(kind, len, seed);
        let mut encoder = BlockEncoder::new();
        let (mut decided, mut parsed) = (vec![0u8; MAX_FRAMED_BLOCK], vec![0u8; MAX_FRAMED_BLOCK]);
        let n = encoder.encode(&block, last, &mut decided);
        let unparsed = encoder.stored_unparsed == 1;
        let m = encoder.encode_parsed(&block, last, &mut parsed);
        let stored = m == len + 5 && parsed[0] & FLAG_CODED == 0;
        if stored || !unparsed {
            prop_assert!(decided[..n] == parsed[..m], "kind {} len {}: bytes differ", kind, len);
        }
        if unparsed {
            prop_assert_eq!(n, len + 5);
            let saved = len + 5 - m;
            prop_assert!(saved * 200 <= len, "kind {} len {}: the parse saves {} bytes", kind, len, saved);
        }
    }
}

#[test]
fn whole_corpus_at_block_scale_matches_oracle() {
    // One full-size pass per shape, past what the proptest sizes reach:
    // several blocks plus a short tail.
    for kind in 0..6 {
        let data = corpus(kind, 3 * BLOCK_SIZE + 77, 0x5EED + kind as u64);
        let packed = compress(&data);
        assert!(packed == oracle::compress(&data), "kind {kind}");
        assert!(decompress(&packed).as_deref() == Ok(&data[..]), "kind {kind}");
    }
}

#[test]
fn block_decoder_agrees_with_oracle_at_every_truncation() {
    for (kind, len) in [(1, 900), (2, 2500), (3, 5000), (5, 40_000)] {
        let data = corpus(kind, len, 77);
        let payload = oracle::compress_block(&data);
        let step = (payload.len() / 600).max(1); // every byte for the small ones
        for cut in (0..payload.len()).step_by(step) {
            assert_eq!(
                inflate(&payload[..cut], len),
                oracle::decompress_block(&payload[..cut], len),
                "kind {kind} cut {cut}"
            );
        }
    }
}

#[test]
fn partial_inflate_stops_early_and_leaves_out_intact_on_error() {
    let data = corpus(2, 50_000, 9);
    let payload = oracle::compress_block(&data);
    for want in [0, 1, 44, 4000, 49_999, 50_000] {
        let mut out = b"head".to_vec();
        inflate_block(&payload, data.len(), want, &mut out).unwrap();
        assert_eq!(&out[..4], b"head");
        assert_eq!(&out[4..], &data[..want]);
    }
    // A flipped bit late in the payload is invisible to an early stop...
    let mut bad = payload.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x55;
    bad.truncate(last); // ...and so is a missing tail.
    let mut out = b"head".to_vec();
    inflate_block(&bad, data.len(), 100, &mut out).unwrap();
    assert_eq!(&out[4..], &data[..100]);
    // A full decode of the same payload fails and rolls `out` back.
    assert!(inflate_block(&bad, data.len(), data.len(), &mut out).is_err());
    assert_eq!(&out[4..], &data[..100]);
}

#[test]
fn sparse_inflate_ignores_damage_in_blocks_it_does_not_need() {
    // Five coded blocks; break the middle one's payload.
    let data = corpus(2, 5 * BLOCK_SIZE, 21);
    let mut packed = compress(&data);
    let clean = BlockDirectory::parse(&packed).unwrap();
    let victim = inflate_range(&clean, 2 * BLOCK_SIZE..3 * BLOCK_SIZE).unwrap();
    assert_eq!(victim, &data[2 * BLOCK_SIZE..3 * BLOCK_SIZE]);
    // The blocks code to similar sizes, so the middle of the stream is
    // inside the middle block's payload.
    let mid = packed.len() / 2;
    packed[mid..mid + 64].fill(0xFF);
    assert!(decompress(&packed).is_err());
    let dir = BlockDirectory::parse(&packed).unwrap();
    let (mut ok, mut failed) = (0, 0);
    for b in 0..5 {
        let r = b * BLOCK_SIZE + 10..(b + 1) * BLOCK_SIZE - 10;
        match inflate_range(&dir, r.clone()) {
            Ok(bytes) => {
                assert_eq!(bytes, &data[r]);
                ok += 1;
            }
            Err(_) => failed += 1,
        }
    }
    assert_eq!((ok, failed), (4, 1), "exactly the damaged block fails");
    // One sparse read across all five: the healthy blocks on either side
    // of the bad one are still served.
    let wanted: Vec<_> = (0..5).map(|b| b * BLOCK_SIZE + 5..b * BLOCK_SIZE + 900).collect();
    let sparse = dir.inflate_ranges(&wanted, &Serial).unwrap();
    assert_eq!(wanted.iter().filter(|r| sparse.get((*r).clone()).is_ok()).count(), 4);
    // Bytes past where the last block stopped early were never inflated:
    // refused, not invented.
    assert!(sparse.get(4 * BLOCK_SIZE + 5000..4 * BLOCK_SIZE + 5010).is_err());
}

/// Runs `check` under each executor the block coders are held to: in
/// order on one worker, in reverse, striped over three worker slots, and
/// pools of 2 and 7 threads racing for jobs.
fn for_each_executor(mut check: impl FnMut(&str, &dyn Exec)) {
    check("serial", &Serial);
    check("reversed", &ReverseOrder);
    check("striped", &StripedWorkers(3));
    for threads in [2usize, 7] {
        WorkerPool::scoped(threads, |pool| check(&format!("{threads}-thread pool"), pool));
    }
}

/// Runs every job on the last of its `.0` workers.
struct LastWorker(usize);

impl Exec for LastWorker {
    fn width(&self) -> usize {
        self.0
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        (0..n).for_each(|i| f(i, self.0 - 1));
    }
}

#[test]
fn compress_with_is_executor_independent() {
    let mut data = corpus(4, 3 * BLOCK_SIZE, 5);
    data.extend(corpus(0, BLOCK_SIZE + 123, 6));
    let serial = compress(&data);
    // One set of tables for every call: each comes to its blocks warm
    // from the calls before it, which must not show in the bytes.
    let mut warm = Encoders::default();
    let mut with = |data: &[u8], exec: &dyn Exec| {
        let mut out = b"framing".to_vec(); // appended to, not overwritten
        compress_with(data, exec, &mut warm, &mut out);
        assert_eq!(&out[..7], b"framing");
        out.split_off(7)
    };
    for_each_executor(|name, exec| assert!(with(&data, exec) == serial, "{name}"));
    // More workers than blocks, and a worker index past the block count.
    assert_eq!(with(&[], &LastWorker(4)), compress(&[]));
}

#[test]
fn decompress_with_is_executor_independent() {
    // Mixed stored and coded blocks; then the stream cut short, and with
    // bits flipped in block headers and payloads. Every executor gives
    // `decompress`'s bytes, or its very error.
    let mut data = corpus(4, 2 * BLOCK_SIZE, 5);
    data.extend(corpus(0, BLOCK_SIZE + 123, 6));
    let packed = compress(&data);
    let mut streams = vec![packed.clone(), compress(&[])];
    let cuts = [packed.len() - 1, packed.len() / 2, 20, 11, 0];
    streams.extend(cuts.map(|cut| packed[..cut].to_vec()));
    let mut rng = Rng::new(36);
    for _ in 0..12 {
        let mut bad = packed.clone();
        let at = rng.below(bad.len() * 8);
        bad[at / 8] ^= 1 << (at % 8);
        streams.push(bad);
    }
    assert_eq!(decompress(&packed).as_deref(), Ok(&data[..]));
    for stream in &streams {
        let serial = decompress(stream);
        for_each_executor(|name, exec| assert!(decompress_with(stream, exec) == serial, "{name}"));
    }
}

#[test]
fn inflate_ranges_is_executor_independent() {
    // Mixed stored and coded blocks, clean and with bits flipped in block
    // payloads; ranges that straddle block edges, stop inside a block and
    // leave blocks out. Every executor records the same pieces and the
    // same failed blocks as the serial inflate.
    let mut data = corpus(4, 2 * BLOCK_SIZE, 5);
    data.extend(corpus(0, BLOCK_SIZE, 6));
    data.extend(corpus(2, 9 * BLOCK_SIZE + 123, 7));
    let packed = compress(&data);
    let mut rng = Rng::new(42);
    let mut streams = vec![packed.clone()];
    for _ in 0..8 {
        let mut bad = packed.clone();
        for _ in 0..3 {
            let at = 13 + rng.below(bad.len() - 13);
            bad[at] ^= 1 << rng.below(8);
        }
        streams.push(bad);
    }
    let ranges: Vec<_> = (0..12)
        .map(|_| {
            let (a, b) = (rng.below(data.len() + 1), rng.below(data.len() + 1));
            a.min(b)..a.max(b)
        })
        .chain([0..10, BLOCK_SIZE - 5..BLOCK_SIZE + 5, data.len() - 7..data.len()])
        .collect();
    let clean = BlockDirectory::parse(&packed).unwrap().inflate_ranges(&ranges, &Serial).unwrap();
    for r in &ranges {
        assert!(clean.get(r.clone()) == Ok(&data[r.clone()]), "range {r:?}");
    }
    let mut damage_seen = false;
    for stream in &streams {
        // A flipped header bit may break the directory itself.
        let Ok(dir) = BlockDirectory::parse(stream) else { continue };
        let serial = dir.inflate_ranges(&ranges, &Serial).unwrap();
        damage_seen |= ranges.iter().any(|r| serial.get(r.clone()).is_err());
        for_each_executor(|name, exec| {
            assert!(dir.inflate_ranges(&ranges, exec).unwrap() == serial, "{name}");
        });
    }
    assert!(damage_seen, "no stream had a block fail");
}

/// An SLZ1 stream of `n` copies of `packed`'s one coded block.
fn repeated_block(packed: &[u8], n: usize) -> Vec<u8> {
    let (flags, block) = (packed[12], &packed[13..]);
    let raw_len = u32::from_le_bytes(block[..4].try_into().unwrap()) as u64;
    assert_eq!(flags, FLAG_CODED | FLAG_LAST, "a one-block stream that codes");
    let mut stream = b"SLZ1".to_vec();
    stream.extend_from_slice(&(n as u64 * raw_len).to_le_bytes());
    for i in 0..n {
        stream.push(if i + 1 == n { FLAG_CODED | FLAG_LAST } else { FLAG_CODED });
        stream.extend_from_slice(block);
    }
    stream
}

#[test]
fn decompress_with_inflates_a_bounded_batch_at_a_time() {
    // 300 coded blocks of zeros declare 39 MB from 180 KB of stream. The
    // inflate is handed out a batch of INFLATE_BATCH blocks at a time, in
    // order, and a batch with a bad block is the last one asked for: the
    // output grows only as blocks really decode.
    let zeros = compress(&vec![0u8; BLOCK_SIZE]);
    let packed = repeated_block(&zeros, 300);
    assert!(packed.len() * 200 < 300 * BLOCK_SIZE, "{} bytes", packed.len());
    let recording = Recording::default();
    let inflated = decompress_with(&packed, &recording);
    assert!(inflated.is_ok_and(|d| d.len() == 300 * BLOCK_SIZE && d.iter().all(|&b| b == 0)));
    let mut want = vec![INFLATE_BATCH; 300 / INFLATE_BATCH];
    want.push(300 % INFLATE_BATCH);
    assert_eq!(*recording.0.lock().unwrap(), want);
    // The same blocks with their payload broken: the first batch fails and
    // nothing past it is asked for.
    let mut broken = zeros.clone();
    broken[21..29].fill(0xFF);
    let bad = repeated_block(&broken, 300);
    assert!(decompress(&bad).is_err());
    let recording = Recording::default();
    assert!(decompress_with(&bad, &recording) == decompress(&bad));
    assert_eq!(*recording.0.lock().unwrap(), [INFLATE_BATCH]);
}

/// The serial executor, recording the size of every batch it is handed.
#[derive(Default)]
struct Recording(std::sync::Mutex<Vec<usize>>);

impl Exec for Recording {
    fn width(&self) -> usize {
        1
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        self.0.lock().unwrap().push(n);
        Serial.run(n, f);
    }
}

/// The pre-table `encode_symbols`: same header, codes emitted bit by bit.
fn oracle_encode_symbols(symbols: &[u32], alphabet: usize) -> Vec<u8> {
    let mut freqs = vec![0u64; alphabet];
    for &s in symbols {
        freqs[s as usize] += 1;
    }
    let lengths = huffman::code_lengths(&freqs, huffman::MAX_CODE_LEN);
    let code = OracleCode::from_lengths(&lengths);
    let mut w = BitWriter::new();
    w.put_bits(alphabet as u64, 32);
    w.put_bits(symbols.len() as u64, 64);
    for &l in &lengths {
        w.put_bits(l as u64, huffman::LENGTH_FIELD_BITS);
    }
    for &s in symbols {
        code.encode_symbol(s, &mut w);
    }
    w.into_bytes()
}

#[test]
fn symbol_streams_roundtrip_and_match_oracle_at_every_alphabet_size() {
    for alphabet in [1usize, 2, 30, 285, 50_000] {
        let mut rng = Rng::new(alphabet as u64);
        // Geometric-ish skew plus, for the big alphabet, every symbol at
        // least once: 50 000 distinct symbols force depth > 15.
        let mut symbols: Vec<u32> = (0..20_000)
            .map(|_| (rng.below(alphabet).min(rng.below(alphabet)).min(rng.below(alphabet))) as u32)
            .collect();
        if alphabet > 1 << 15 {
            symbols.extend(0..alphabet as u32);
        }
        let bytes = huffman::encode_symbols(&symbols, alphabet);
        assert!(bytes == oracle_encode_symbols(&symbols, alphabet), "alphabet {alphabet}");
        assert!(
            huffman::decode_symbols(&bytes).as_deref() == Ok(&symbols[..]),
            "alphabet {alphabet}"
        );
        if alphabet > 1 << 15 {
            let depth = CanonicalCode::from_freqs(&{
                let mut f = vec![0u64; alphabet];
                symbols.iter().for_each(|&s| f[s as usize] += 1);
                f
            })
            .lengths()
            .iter()
            .copied()
            .max();
            assert!(depth > Some(15), "depth {depth:?}");
        }
        // Damage: any Result is fine, a panic is not.
        for _ in 0..30 {
            let mut bad = bytes.clone();
            let at = rng.below(bad.len() * 8);
            bad[at / 8] ^= 1 << (at % 8);
            let _ = huffman::decode_symbols(&bad);
            let _ = huffman::decode_symbols(&bytes[..rng.below(bytes.len())]);
        }
    }
}

#[test]
fn unsupported_length_tables_decode_nothing() {
    // A length past 32 cannot come out of any serialized table here; a
    // code built from one refuses every read instead of guessing.
    let code = CanonicalCode::from_lengths(&[1, 33, 2]);
    let bytes = [0u8; 8];
    assert_eq!(
        code.decode_symbol(&mut BitReader::new(&bytes)),
        Err(Error::Corrupt("invalid Huffman code"))
    );
}
