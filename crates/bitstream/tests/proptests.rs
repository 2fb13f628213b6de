//! Property tests: anything written through `BitWriter` reads back
//! identically through `BitReader`, for arbitrary interleavings of bit
//! widths.

use proptest::prelude::*;
use sperr_bitstream::{BitReader, BitWriter};

/// A single write operation: a value and the bit width used to store it.
#[derive(Debug, Clone)]
struct Op {
    value: u64,
    width: u32,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..=64).prop_flat_map(|width| {
        let max = if width == 0 {
            Just(0u64).boxed()
        } else if width == 64 {
            any::<u64>().boxed()
        } else {
            (0..(1u64 << width)).boxed()
        };
        max.prop_map(move |value| Op { value, width })
    })
}

proptest! {
    #[test]
    fn mixed_width_roundtrip(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let mut w = BitWriter::new();
        for op in &ops {
            w.put_bits(op.value, op.width);
        }
        let total_bits: usize = ops.iter().map(|o| o.width as usize).sum();
        prop_assert_eq!(w.len_bits(), total_bits);
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len(), total_bits.div_ceil(8));

        let mut r = BitReader::new(&bytes);
        for op in &ops {
            prop_assert_eq!(r.get_bits(op.width).unwrap(), op.value);
        }
    }

    #[test]
    fn bitwise_equals_bulk(bits in prop::collection::vec(any::<bool>(), 0..512)) {
        // Writing bit-by-bit and reading in arbitrary chunks agree.
        let mut w = BitWriter::new();
        for &b in &bits {
            w.put_bit(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut read_back = Vec::with_capacity(bits.len());
        let mut left = bits.len();
        let mut chunk = 1usize;
        while left > 0 {
            let take = chunk.min(left).min(64);
            let v = r.get_bits(take as u32).unwrap();
            for i in 0..take {
                read_back.push((v >> i) & 1 == 1);
            }
            left -= take;
            chunk = (chunk * 2 + 1) % 67; // vary chunk sizes deterministically
            if chunk == 0 {
                chunk = 1;
            }
        }
        prop_assert_eq!(read_back, bits);
    }

    #[test]
    fn truncated_stream_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64),
                                     reads in prop::collection::vec(0u32..=64, 0..32)) {
        let mut r = BitReader::new(&bytes);
        for n in reads {
            // Must either produce a value or a clean EOF error.
            let _ = r.get_bits(n);
        }
    }

    #[test]
    fn put_zeros_matches_bit_at_a_time(ops in prop::collection::vec(zero_run_op_strategy(), 0..64)) {
        // The bulk zero-run path (accumulator top-up, whole-byte resize,
        // partial tail) must be indistinguishable from emitting the same
        // zeros one put_bit(false) at a time, at every alignment the
        // surrounding one-bits create.
        let mut fast = BitWriter::new();
        let mut slow = BitWriter::new();
        for op in &ops {
            match *op {
                ZeroRunOp::One => {
                    fast.put_bit(true);
                    slow.put_bit(true);
                }
                ZeroRunOp::Zeros(n) => {
                    fast.put_zeros(n);
                    for _ in 0..n {
                        slow.put_bit(false);
                    }
                }
            }
        }
        prop_assert_eq!(fast.len_bits(), slow.len_bits());
        prop_assert_eq!(fast.into_bytes(), slow.into_bytes());
    }

    #[test]
    fn into_bytes_pads_tail_with_zeros(bits in prop::collection::vec(any::<bool>(), 0..200)) {
        // The final partial byte must be zero-padded: every bit past
        // len_bits() reads as 0. Decoders rely on this (padding decodes
        // as insignificance, never as spurious structure).
        let mut w = BitWriter::new();
        for &b in &bits {
            w.put_bit(b);
        }
        let len = w.len_bits();
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len(), len.div_ceil(8));
        for i in len..bytes.len() * 8 {
            prop_assert_eq!((bytes[i / 8] >> (i % 8)) & 1, 0, "padding bit {} set", i);
        }
    }

    #[test]
    fn count_zero_run_matches_bit_at_a_time(bytes in prop::collection::vec(any::<u8>(), 0..64),
                                            maxes in prop::collection::vec(zero_run_max_strategy(), 0..32)) {
        // Bulk zero-run counting must consume exactly the zeros a
        // peek-one-bit-at-a-time loop would: stop before the first 1 bit,
        // after `max` zeros, or at EOF. Interleaves a get_bit between
        // calls (consuming the 1 that ended a run, when there is one) so
        // runs start at every register alignment.
        let mut r = BitReader::new(&bytes);
        let mut reference = BitReader::new(&bytes);
        for max in maxes {
            let got = r.count_zero_run(max);
            let mut want = 0usize;
            while want < max {
                let mut probe = reference.clone();
                match probe.get_bit() {
                    Ok(false) => {
                        reference = probe;
                        want += 1;
                    }
                    _ => break, // next bit is a 1 (left unconsumed) or EOF
                }
            }
            prop_assert_eq!(got, want, "max {}", max);
            prop_assert_eq!(r.position_bits(), reference.position_bits());
            let (a, b) = (r.get_bit().ok(), reference.get_bit().ok());
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn peek_and_skip_match_bit_at_a_time(bytes in prop::collection::vec(any::<u8>(), 0..40),
                                         ops in prop::collection::vec((0u32..4, 0u32..=70), 0..48)) {
        // The table decoders' pair: `peek_bits` must show exactly the bits
        // a bit-at-a-time reader is about to deliver (zeros past the end),
        // without moving; `skip_bits` must move exactly as far as reading
        // would, or fail and stay put. Interleaved with the register's
        // other users (`get_bit`, `get_bits`, `count_zero_run`) so every
        // mix of topped-up and plainly refilled register states occurs.
        let mut r = BitReader::new(&bytes);
        let mut reference = BitReader::new(&bytes);
        for (kind, n) in ops {
            match kind {
                0 => {
                    let mut probe = reference.clone();
                    let mut want = 0u64;
                    for i in 0..n.min(56) {
                        want |= (probe.get_bit().unwrap_or(false) as u64) << i;
                    }
                    prop_assert_eq!(r.peek_bits(n), want, "peek {}", n);
                }
                1 => {
                    let fits = reference.remaining_bits() >= n as usize;
                    prop_assert_eq!(r.skip_bits(n).is_ok(), fits, "skip {}", n);
                    if fits {
                        for _ in 0..n {
                            reference.get_bit().unwrap();
                        }
                    }
                }
                2 => prop_assert_eq!(r.get_bits(n.min(64)).ok(), reference.get_bits(n.min(64)).ok()),
                _ => prop_assert_eq!(r.count_zero_run(n as usize), reference.count_zero_run(n as usize)),
            }
            prop_assert_eq!(r.position_bits(), reference.position_bits());
            prop_assert_eq!(r.remaining_bits(), reference.remaining_bits());
            prop_assert_eq!(r.clone().get_bit().ok(), reference.clone().get_bit().ok());
        }
    }

    #[test]
    fn refill_get_bits_matches_bit_at_a_time(bytes in prop::collection::vec(any::<u8>(), 0..64),
                                             widths in prop::collection::vec(width_strategy(), 0..32)) {
        // Word reads through the refill register must return exactly the
        // bits a bit-at-a-time reader would, for widths straddling every
        // accumulator boundary — including reads that hit EOF, which must
        // consume nothing (the next reader keeps agreeing afterwards).
        let mut r = BitReader::new(&bytes);
        let mut reference = BitReader::new(&bytes);
        for n in widths {
            let got = r.get_bits(n);
            if reference.remaining_bits() < n as usize {
                prop_assert!(got.is_err(), "width {} past EOF must fail", n);
                continue;
            }
            let mut want = 0u64;
            for i in 0..n {
                if reference.get_bit().unwrap() {
                    want |= 1u64 << i;
                }
            }
            prop_assert_eq!(got.unwrap(), want, "width {}", n);
            prop_assert_eq!(r.position_bits(), reference.position_bits());
            prop_assert_eq!(r.remaining_bits(), reference.remaining_bits());
        }
    }
}

/// One step of the zero-run differential test: a literal one-bit (to
/// shift alignment) or a bulk zero run.
#[derive(Debug, Clone, Copy)]
enum ZeroRunOp {
    One,
    Zeros(usize),
}

fn zero_run_op_strategy() -> impl Strategy<Value = ZeroRunOp> {
    // Accumulator-boundary run lengths appear as explicit alternatives:
    // empty runs, single bits, and runs that exactly fill / barely miss /
    // barely cross the 64-bit accumulator, alongside arbitrary lengths.
    prop_oneof![
        Just(ZeroRunOp::One),
        Just(ZeroRunOp::Zeros(0)),
        Just(ZeroRunOp::Zeros(1)),
        Just(ZeroRunOp::Zeros(63)),
        Just(ZeroRunOp::Zeros(64)),
        Just(ZeroRunOp::Zeros(65)),
        (0usize..200).prop_map(ZeroRunOp::Zeros),
    ]
}

/// Read widths with the accumulator-boundary cases as explicit
/// alternatives next to the full range.
fn width_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(1), Just(63), Just(64), 0u32..=64]
}

/// Zero-run caps with the accumulator boundaries as explicit
/// alternatives.
fn zero_run_max_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), 0usize..200]
}
