//! Canonical Huffman coding over an arbitrary `u32` symbol alphabet.
//!
//! Used in two places:
//! * the LZ77 back end (literal/length and distance alphabets), and
//! * the SZ-style baseline, which Huffman-codes quantization-bin indices
//!   the same way SZ does (paper §VI-E: "quantized outlier correction
//!   values are stored as non-zero integers and then Huffman coded
//!   together with zero-valued inliers").
//!
//! Code lengths are depth-limited (default 15) by the frequency-halving
//! rebuild heuristic; codes are canonical so only the length table needs
//! to be transmitted.

use sperr_bitstream::BitWriter;

mod decode;

pub use decode::decode_symbols;

/// Maximum code length used throughout.
pub const MAX_CODE_LEN: u8 = 15;

/// Computes depth-limited Huffman code lengths for `freqs` (one entry per
/// symbol; zero-frequency symbols get length 0). Guarantees the Kraft sum
/// is exactly 1 when at least two symbols occur (one symbol gets length 1).
///
/// A depth limit of `max_len` can encode at most `2^max_len` distinct
/// symbols (Kraft); when more occur, the limit is raised automatically —
/// callers that serialize lengths in fixed-width fields must size them
/// for the worst case they feed in (see [`LENGTH_FIELD_BITS`]).
pub fn code_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    let n = freqs.len();
    let mut lengths = vec![0u8; n];
    let used = freqs.iter().filter(|&&f| f > 0).count();
    match used {
        0 => return lengths,
        1 => {
            let i = freqs.iter().position(|&f| f > 0).unwrap();
            lengths[i] = 1;
            return lengths;
        }
        _ => {}
    }
    // A tree over `used` leaves needs depth >= ceil(log2(used)); raise the
    // cap if the requested one is infeasible (otherwise the flattening
    // loop below would never terminate).
    let min_feasible = (usize::BITS - (used - 1).leading_zeros()) as u8;
    let max_len = max_len.max(min_feasible);

    let mut f: Vec<u64> = freqs.to_vec();
    loop {
        let lens = huffman_lengths(&f);
        let depth = lens.iter().copied().max().unwrap_or(0);
        if depth <= max_len {
            for (i, &l) in lens.iter().enumerate() {
                lengths[i] = l;
            }
            return lengths;
        }
        // Flatten the distribution and retry; terminates because all
        // frequencies converge toward 1 (uniform distribution has depth
        // ceil(log2 used) <= max_len by the adjustment above).
        for x in f.iter_mut() {
            if *x > 0 {
                *x = *x / 2 + 1;
            }
        }
    }
}

/// Bits used to serialize one code length in [`encode_symbols`]: supports
/// depths up to 31, enough for any alphabet up to 2^31 symbols.
pub const LENGTH_FIELD_BITS: u32 = 5;

/// Plain (unlimited) Huffman code lengths via the standard two-queue /
/// heap construction.
fn huffman_lengths(freqs: &[u64]) -> Vec<u8> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Node {
        weight: u64,
        id: usize,
    }

    let n = freqs.len();
    let mut lengths = vec![0u8; n];
    // Tree nodes: leaves 0..n, internal nodes appended after.
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    let mut heap: BinaryHeap<Reverse<Node>> = BinaryHeap::new();
    for (i, &w) in freqs.iter().enumerate() {
        if w > 0 {
            heap.push(Reverse(Node { weight: w, id: i }));
        }
    }
    if heap.len() < 2 {
        if let Some(Reverse(node)) = heap.pop() {
            lengths[node.id] = 1;
        }
        return lengths;
    }
    while heap.len() > 1 {
        let Reverse(a) = heap.pop().unwrap();
        let Reverse(b) = heap.pop().unwrap();
        let id = parent.len();
        parent.push(usize::MAX);
        parent[a.id] = id;
        parent[b.id] = id;
        heap.push(Reverse(Node { weight: a.weight.saturating_add(b.weight), id }));
    }
    let root = heap.pop().unwrap().0.id;
    // Depth of each leaf by walking parents (tree is small).
    for i in 0..n {
        if freqs[i] == 0 {
            continue;
        }
        let mut d = 0u8;
        let mut cur = i;
        while cur != root {
            cur = parent[cur];
            d += 1;
        }
        lengths[i] = d;
    }
    lengths
}

/// Widest code a [`CanonicalCode`] handles: what fits the `u32` codes the
/// encoder stores, and more than either serialized length field in this
/// workspace (4 bits in SLZ1 blocks, [`LENGTH_FIELD_BITS`] here) can
/// express.
pub(crate) const MAX_SUPPORTED_LEN: usize = 32;

/// A canonical Huffman encoder/decoder pair built from code lengths.
///
/// Canonical assignment: symbols sorted by (length, index) receive
/// consecutive code values per length, so the length table alone
/// determines the code. Codes go onto the wire most-significant bit
/// first, but the bitstream packs LSB-first — so both directions work on
/// the *bit-reversed* code: the encoder stores it reversed and emits it
/// with one `put_bits`, the decoder indexes its lookup table with the
/// next stream bits exactly as `peek_bits` returns them (see
/// `huffman/decode.rs`, which also owns construction because the lengths
/// may come from an untrusted stream).
#[derive(Debug, Clone)]
pub struct CanonicalCode {
    lengths: Vec<u8>,
    /// Per-symbol code, bit-reversed within its length.
    codes: Vec<u32>,
    /// Decode table over the next `primary_bits` stream bits: entry =
    /// `symbol << LEN_FIELD | length` of the shortest code that prefixes
    /// the index, 0 where no code of at most `primary_bits` bits does.
    primary: Vec<u32>,
    primary_bits: u32,
    /// Canonical walk tables for codes longer than `primary_bits`: per
    /// length, the first code value, how many codes, and where its
    /// symbols start in `sorted_symbols`.
    first_code: [u64; MAX_SUPPORTED_LEN + 1],
    count: [u32; MAX_SUPPORTED_LEN + 1],
    first_index: [u32; MAX_SUPPORTED_LEN + 1],
    sorted_symbols: Vec<u32>,
    max_len: u32,
}

impl CanonicalCode {
    /// Builds an optimal (depth-limited) code for the given frequencies.
    pub fn from_freqs(freqs: &[u64]) -> Self {
        Self::from_lengths(&code_lengths(freqs, MAX_CODE_LEN))
    }

    /// Per-symbol code lengths (for serializing the table).
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// The stream bits of `symbol`'s code (first bit in bit 0) and their
    /// count, for callers that append extra bits and emit both at once.
    #[inline]
    pub(crate) fn code(&self, symbol: u32) -> (u64, u32) {
        let len = self.lengths[symbol as usize];
        debug_assert!(len > 0, "encoding symbol {symbol} with zero frequency");
        (u64::from(self.codes[symbol as usize]), u32::from(len))
    }

    /// Writes the code for `symbol` to the bit sink.
    #[inline]
    pub fn encode_symbol(&self, symbol: u32, out: &mut BitWriter) {
        let (code, len) = self.code(symbol);
        out.put_bits(code, len);
    }
}

/// Convenience: Huffman-encode a symbol sequence over `0..alphabet` into a
/// self-contained byte vector (length table + payload).
pub fn encode_symbols(symbols: &[u32], alphabet: usize) -> Vec<u8> {
    let mut freqs = vec![0u64; alphabet];
    for &s in symbols {
        freqs[s as usize] += 1;
    }
    let code = CanonicalCode::from_freqs(&freqs);
    // Exact output size: fixed header + length table + Σ freq·code-length.
    let payload_bits: u64 =
        freqs.iter().zip(code.lengths()).map(|(&f, &l)| f * u64::from(l)).sum();
    let table_bits = 32 + 64 + alphabet * LENGTH_FIELD_BITS as usize;
    let mut w = BitWriter::with_capacity_bits(table_bits + payload_bits as usize);
    // Table: alphabet size (u32), then LENGTH_FIELD_BITS per length.
    w.put_bits(alphabet as u64, 32);
    w.put_bits(symbols.len() as u64, 64);
    for &l in code.lengths() {
        w.put_bits(l as u64, LENGTH_FIELD_BITS);
    }
    for &s in symbols {
        code.encode_symbol(s, &mut w);
    }
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::canonical_codes;

    #[test]
    fn kraft_sum_is_valid() {
        let freqs = vec![90, 5, 3, 1, 1, 0, 40, 12];
        let lens = code_lengths(&freqs, MAX_CODE_LEN);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft {kraft}");
        assert_eq!(lens[5], 0, "zero-frequency symbol must get length 0");
    }

    #[test]
    fn depth_limit_enforced() {
        // Fibonacci-like frequencies force deep trees without a limit.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = code_lengths(&freqs, 15);
        assert!(lens.iter().all(|&l| l <= 15));
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12);
    }

    #[test]
    fn single_symbol_alphabet() {
        let symbols = vec![7u32; 100];
        let bytes = encode_symbols(&symbols, 10);
        assert_eq!(decode_symbols(&bytes).unwrap(), symbols);
    }

    #[test]
    fn empty_sequence() {
        let bytes = encode_symbols(&[], 5);
        assert_eq!(decode_symbols(&bytes).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn skewed_distribution_roundtrip_and_ratio() {
        // 95% zeros — like SZ quantization bins on smooth data.
        let symbols: Vec<u32> = (0..10_000)
            .map(|i| if i % 20 == 0 { 1 + (i % 7) as u32 } else { 0 })
            .collect();
        let bytes = encode_symbols(&symbols, 16);
        assert_eq!(decode_symbols(&bytes).unwrap(), symbols);
        // Entropy is well under 1 bit/symbol; allow overhead but require
        // real compression vs. 4 bits/symbol naive.
        assert!(bytes.len() * 8 < symbols.len() * 2, "len {}", bytes.len());
    }

    #[test]
    fn uniform_distribution_roundtrip() {
        let symbols: Vec<u32> = (0..4096).map(|i| (i % 256) as u32).collect();
        let bytes = encode_symbols(&symbols, 256);
        assert_eq!(decode_symbols(&bytes).unwrap(), symbols);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs = vec![5u64, 9, 12, 13, 16, 45, 0, 3];
        let lens = code_lengths(&freqs, 15);
        let codes = canonical_codes(&lens);
        for i in 0..freqs.len() {
            for j in 0..freqs.len() {
                if i == j || lens[i] == 0 || lens[j] == 0 || lens[i] > lens[j] {
                    continue;
                }
                let prefix = codes[j] >> (lens[j] - lens[i]);
                assert!(
                    !(prefix == codes[i]),
                    "code {i} is a prefix of code {j}"
                );
            }
        }
    }

    #[test]
    fn huge_alphabets_terminate_and_roundtrip() {
        // Regression: > 2^15 distinct symbols cannot fit a depth-15 code
        // (Kraft); code_lengths must raise the depth instead of looping
        // forever, and the (5-bit) length serialization must carry it.
        let n = 50_000u32;
        let symbols: Vec<u32> = (0..n).collect(); // all distinct
        let bytes = encode_symbols(&symbols, n as usize);
        assert_eq!(decode_symbols(&bytes).unwrap(), symbols);
        let mut freqs = vec![1u64; n as usize];
        freqs[0] = 1 << 40; // skew it, too
        let lens = code_lengths(&freqs, MAX_CODE_LEN);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9);
        assert!(lens.iter().all(|&l| l <= 31));
    }

    #[test]
    fn corrupt_stream_is_error_not_panic() {
        let symbols: Vec<u32> = (0..100).map(|i| (i % 5) as u32).collect();
        let mut bytes = encode_symbols(&symbols, 5);
        let last = bytes.len() - 1;
        bytes.truncate(last);
        let _ = decode_symbols(&bytes); // must not panic
    }
}
