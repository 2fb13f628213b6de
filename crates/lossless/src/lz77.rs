//! Block-level LZ77 parse + Huffman entropy stage (encode side; the
//! decoder is `inflate.rs`).
//!
//! Deflate-style symbol design (literal/length alphabet with extra bits,
//! separate distance alphabet) but an independent format: match lengths
//! 4..=259, distances 1..=32768, canonical-Huffman tables transmitted as
//! 4-bit code lengths per block.

use crate::huffman::CanonicalCode;
use crate::{BLOCK_SIZE, FLAG_CODED, FLAG_LAST};
use sperr_bitstream::BitWriter;

pub(crate) const MIN_MATCH: usize = 4;
pub(crate) const MAX_MATCH: usize = 259;
pub(crate) const MAX_DIST: usize = 32768;
pub(crate) const EOB: u32 = 256;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 48;
const FILTER_BITS: u32 = 18;

/// First length symbol; symbol `LENGTH_BASE + i` is length bucket `i`.
pub(crate) const LENGTH_BASE: u32 = 257;
pub(crate) const LITLEN_ALPHABET: usize = LENGTH_BASE as usize + LENGTH_BUCKETS.len();
pub(crate) const DIST_ALPHABET: usize = DIST_BUCKETS.len();
/// The most one framed block takes in a stream: a full block, stored.
/// (A coded block is chosen only when it is smaller than that.)
pub(crate) const MAX_FRAMED_BLOCK: usize = 5 + BLOCK_SIZE;
/// Bits of the two 4-bit-per-symbol length tables that open a payload.
pub(crate) const TABLE_BITS: usize = (LITLEN_ALPHABET + DIST_ALPHABET) * 4;

/// (base, extra-bits) buckets for match lengths; bucket `i` covers
/// lengths `base ..= base + 2^extra - 1`.
pub(crate) const LENGTH_BUCKETS: [(u32, u8); 28] = {
    let mut v = [(0u32, 0u8); 28];
    let mut i = 0;
    while i < 8 {
        v[i] = (MIN_MATCH as u32 + i as u32, 0);
        i += 1;
    }
    let mut base = MIN_MATCH as u32 + 8;
    let mut extra = 1u8;
    while extra <= 5 {
        let mut k = 0;
        while k < 4 {
            v[i] = (base, extra);
            base += 1 << extra;
            i += 1;
            k += 1;
        }
        extra += 1;
    }
    assert!(base as usize == MAX_MATCH + 1);
    v
};

/// (base, extra-bits) buckets for distances; bucket `i` covers distances
/// `base ..= base + 2^extra - 1`.
pub(crate) const DIST_BUCKETS: [(u32, u8); 30] = {
    let mut v = [(0u32, 0u8); 30];
    let mut i = 0;
    while i < 4 {
        v[i] = (i as u32 + 1, 0);
        i += 1;
    }
    let mut base = 5u32;
    let mut extra = 1u8;
    while extra <= 13 {
        let mut k = 0;
        while k < 2 {
            v[i] = (base, extra);
            base += 1 << extra;
            i += 1;
            k += 1;
        }
        extra += 1;
    }
    assert!(base as usize == MAX_DIST + 1);
    v
};

/// Length → bucket index, for every legal match length.
const LENGTH_BUCKET_OF: [u8; MAX_MATCH + 1] = {
    let mut v = [0u8; MAX_MATCH + 1];
    let mut b = 0;
    while b < LENGTH_BUCKETS.len() {
        let (base, extra) = LENGTH_BUCKETS[b];
        let mut len = base;
        while len < base + (1 << extra) {
            v[len as usize] = b as u8;
            len += 1;
        }
        b += 1;
    }
    v
};

/// Distance → bucket index. Past the four single-distance buckets, each
/// power of two of `dist - 1` splits into two buckets on its next bit.
#[inline]
fn dist_bucket_of(dist: u32) -> usize {
    let v = dist - 1;
    if v < 4 {
        return v as usize;
    }
    let msb = 31 - v.leading_zeros();
    (2 * msb + (v >> (msb - 1) & 1)) as usize
}

/// One match of the parse. Literals are not recorded: they are the block
/// bytes between matches.
#[derive(Clone, Copy)]
struct Match {
    pos: u32,
    len: u16,
    /// 1..=[`MAX_DIST`]; the top of that range is why this is not a `u16`.
    dist: u32,
}

/// No position: the hash tables hold block-relative `u32` offsets.
const NONE: u32 = u32::MAX;

/// Bucket of a 4-byte word in the hash chains.
#[inline]
fn chain_hash(word: u32) -> usize {
    (word.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Slot of a 4-byte word in the `seen` filter: more bits than the chain
/// hash and a different multiplier, so the two collide independently.
#[inline]
fn filter_hash(word: u32) -> usize {
    (word.wrapping_mul(0x85EB_CA6B) >> (32 - FILTER_BITS)) as usize
}

/// One worker's reusable state for encoding blocks: the hash-chain tables
/// of the LZ77 parse and its match list (≈ 1.6 MiB). Every
/// block starts from a reset state, so a block's bytes do not depend on
/// which encoder ran it or what that encoder saw before.
pub(crate) struct BlockEncoder {
    /// Most recent position per hash bucket.
    head: Vec<u32>,
    /// Previous position with the same hash, per position.
    prev: Vec<u32>,
    /// Most recent position per filter slot (see [`BlockEncoder::parse`]).
    seen: Vec<u32>,
    matches: Vec<Match>,
    lit_freq: [u64; LITLEN_ALPHABET],
    dist_freq: [u64; DIST_ALPHABET],
    /// Σ extra bits over the match tokens of the current block.
    extra_bits: usize,
}

impl BlockEncoder {
    pub(crate) fn new() -> Self {
        // Zeroed, i.e. untouched until `parse` resets what it reads.
        BlockEncoder {
            head: vec![0; 1 << HASH_BITS],
            prev: vec![0; BLOCK_SIZE],
            seen: vec![0; 1 << FILTER_BITS],
            matches: Vec::new(),
            lit_freq: [0; LITLEN_ALPHABET],
            dist_freq: [0; DIST_ALPHABET],
            extra_bits: 0,
        }
    }

    #[inline]
    fn push_match(&mut self, pos: usize, len: usize, dist: usize) {
        self.matches.push(Match { pos: pos as u32, len: len as u16, dist: dist as u32 });
        let lb = usize::from(LENGTH_BUCKET_OF[len]);
        let db = dist_bucket_of(dist as u32);
        self.lit_freq[LENGTH_BASE as usize + lb] += 1;
        self.dist_freq[db] += 1;
        self.extra_bits += usize::from(LENGTH_BUCKETS[lb].1) + usize::from(DIST_BUCKETS[db].1);
    }

    /// Enters position `i`, whose four bytes are `word`, into the tables.
    #[inline]
    fn insert(&mut self, i: usize, word: u32) {
        let h = chain_hash(word);
        self.prev[i] = self.head[h];
        self.head[h] = i as u32;
        self.seen[filter_hash(word)] = i as u32;
    }

    /// Greedy hash-chain LZ77 parse of `block` (at most [`BLOCK_SIZE`]
    /// bytes) into `self.matches`, with the symbol histograms alongside.
    ///
    /// The token stream is pinned by the committed golden streams: the
    /// hash, the chain order, [`MAX_CHAIN`] (which counts every candidate
    /// visited) and the strict `l > best_len` tie-break — the first
    /// candidate in chain order to reach the maximum length wins — are
    /// format in all but name. Everything else here only avoids work whose
    /// outcome is known:
    ///
    /// * A candidate sharing fewer than [`MIN_MATCH`] bytes can never
    ///   become a token, nor keep a longer one from winning, so candidates
    ///   are compared four bytes at once and dropped on a mismatch.
    /// * `seen` remembers, per wider hash of those four bytes, the last
    ///   position that had it. A position whose four bytes were last seen
    ///   nowhere, or beyond [`MAX_DIST`], has no candidate that could pass
    ///   that comparison within reach — the chain is not walked at all.
    ///   On coder output, where almost nothing repeats, that is most
    ///   positions, and the walk (dependent loads, unpredictable exits) is
    ///   where the time went.
    /// * A candidate that differs at offset `best_len` cannot beat the
    ///   current best (the old quick-reject, kept).
    fn parse(&mut self, block: &[u8]) {
        let n = block.len();
        self.matches.clear();
        self.lit_freq.fill(0);
        self.dist_freq.fill(0);
        self.extra_bits = 0;
        // Positions that start a full 4-byte word.
        let hashable = n.saturating_sub(MIN_MATCH - 1);
        if hashable > 0 {
            self.head.fill(NONE);
            self.seen.fill(NONE);
        }
        let word = |i: usize| block[i..].first_chunk::<4>().map_or(0, |w| u32::from_le_bytes(*w));
        let mut i = 0usize;
        while i < n {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i < hashable {
                let w = word(i);
                let seen = self.seen[filter_hash(w)];
                if seen != NONE && i - seen as usize <= MAX_DIST {
                    let max_len = (n - i).min(MAX_MATCH);
                    let here = &block[i..i + max_len];
                    let mut cand = self.head[chain_hash(w)];
                    let mut chain = 0;
                    while cand != NONE && chain < MAX_CHAIN {
                        let c = cand as usize;
                        let dist = i - c;
                        if dist > MAX_DIST {
                            break;
                        }
                        if word(c) == w && (best_len == 0 || block[c + best_len] == here[best_len])
                        {
                            let l = MIN_MATCH
                                + common_prefix(
                                    &block[c + MIN_MATCH..c + max_len],
                                    &here[MIN_MATCH..],
                                );
                            if l > best_len {
                                best_len = l;
                                best_dist = dist;
                                if l >= max_len {
                                    break;
                                }
                            }
                        }
                        cand = self.prev[c];
                        chain += 1;
                    }
                }
                // Position `i` enters the tables either way; a match also
                // enters every later position it covers, below.
                self.insert(i, w);
            }
            if best_len >= MIN_MATCH {
                self.push_match(i, best_len, best_dist);
                for j in i + 1..(i + best_len).min(hashable) {
                    self.insert(j, word(j));
                }
                i += best_len;
            } else {
                self.lit_freq[usize::from(block[i])] += 1;
                i += 1;
            }
        }
    }

    /// Writes `block` to the front of `out` (at least
    /// [`MAX_FRAMED_BLOCK`] bytes) framed as one SLZ1 block — flags, raw
    /// length, then either the coded payload (length-prefixed) or the raw
    /// bytes — and returns the bytes written. Coded wins only when it
    /// saves more than its 4-byte length field; the payload size is exact
    /// from the histograms (tables + Σ freq·code-length + extra bits), so
    /// a block that ends up stored never pays for the emit.
    pub(crate) fn encode(&mut self, block: &[u8], last: bool, out: &mut [u8]) -> usize {
        self.parse(block);
        self.lit_freq[EOB as usize] += 1;
        let lit_code = CanonicalCode::from_freqs(&self.lit_freq);
        let dist_code = CanonicalCode::from_freqs(&self.dist_freq);
        let coded_bits = |freq: &[u64], code: &CanonicalCode| -> usize {
            freq.iter().zip(code.lengths()).map(|(&f, &l)| f as usize * usize::from(l)).sum()
        };
        let payload_bits = TABLE_BITS
            + coded_bits(&self.lit_freq, &lit_code)
            + coded_bits(&self.dist_freq, &dist_code)
            + self.extra_bits;
        let payload_len = payload_bits.div_ceil(8);
        let flags = if last { FLAG_LAST } else { 0 };
        out[1..5].copy_from_slice(&(block.len() as u32).to_le_bytes());
        if payload_len + 4 >= block.len() {
            out[0] = flags;
            out[5..5 + block.len()].copy_from_slice(block);
            return 5 + block.len();
        }

        let mut w = BitWriter::with_capacity_bits(payload_bits);
        for &l in lit_code.lengths().iter().chain(dist_code.lengths()) {
            w.put_bits(u64::from(l), 4);
        }
        let mut at = 0usize;
        for m in &self.matches {
            let (pos, len) = (m.pos as usize, u32::from(m.len));
            for &b in &block[at..pos] {
                lit_code.encode_symbol(u32::from(b), &mut w);
            }
            at = pos + len as usize;
            // One `put_bits` per match: length code, length extra bits,
            // distance code, distance extra bits — at most 15+5+15+13.
            let lb = usize::from(LENGTH_BUCKET_OF[len as usize]);
            let db = dist_bucket_of(m.dist);
            let (lbase, lextra) = LENGTH_BUCKETS[lb];
            let (dbase, dextra) = DIST_BUCKETS[db];
            let (mut bits, mut n) = lit_code.code(LENGTH_BASE + lb as u32);
            bits |= u64::from(len - lbase) << n;
            n += u32::from(lextra);
            let (dcode, dlen) = dist_code.code(db as u32);
            bits |= dcode << n;
            n += dlen;
            bits |= u64::from(m.dist - dbase) << n;
            n += u32::from(dextra);
            w.put_bits(bits, n);
        }
        for &b in &block[at..] {
            lit_code.encode_symbol(u32::from(b), &mut w);
        }
        lit_code.encode_symbol(EOB, &mut w);
        let payload = w.into_bytes();
        debug_assert_eq!(payload.len(), payload_len);
        out[0] = flags | FLAG_CODED;
        out[5..9].copy_from_slice(&(payload_len as u32).to_le_bytes());
        out[9..9 + payload_len].copy_from_slice(&payload);
        9 + payload_len
    }
}

/// Length of the common prefix of two equally long slices, eight bytes
/// per step.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut l = 0;
    while let (Some(x), Some(y)) = (a[l..].first_chunk::<8>(), b[l..].first_chunk::<8>()) {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..].iter().zip(&b[l..]).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_tables_cover_ranges() {
        for len in MIN_MATCH..=MAX_MATCH {
            let (base, extra) = LENGTH_BUCKETS[usize::from(LENGTH_BUCKET_OF[len])];
            assert!(len as u32 >= base && (len as u32) < base + (1 << extra), "len {len}");
        }
        for dist in 1..=MAX_DIST as u32 {
            let (base, extra) = DIST_BUCKETS[dist_bucket_of(dist)];
            assert!(dist >= base && dist < base + (1 << extra), "dist {dist}");
        }
    }
}
