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
/// Word positions per window of the store probe ([`BlockEncoder::probe`]),
/// and its table's size.
const PROBE_WINDOW: usize = 32;
const PROBE_BITS: u32 = 14;
/// Fraction bits of [`log2_fixed`].
const LOG_FRAC: u32 = 16;

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

/// The four bytes of `block` from `i` on, little-endian (0 past the end).
#[inline]
fn word_at(block: &[u8], i: usize) -> u32 {
    block[i..].first_chunk::<4>().map_or(0, |w| u32::from_le_bytes(*w))
}

/// `log2(x)` in units of `2^-LOG_FRAC`, rounded down, for `x >= 1`: the
/// integer part is the bit length, each fraction bit one squaring of the
/// mantissa. Truncating the squares only lowers the result, which lies
/// within two units below the true value.
fn log2_fixed(x: u32) -> u64 {
    debug_assert!(x > 0);
    let int = 31 - x.leading_zeros();
    // The mantissa `x / 2^int`, in [1, 2), with 31 fraction bits.
    let mut m = u64::from(x) << (31 - int);
    let mut frac = 0u64;
    for _ in 0..LOG_FRAC {
        m = (m * m) >> 31;
        frac <<= 1;
        if m >> 32 != 0 {
            m >>= 1;
            frac |= 1;
        }
    }
    u64::from(int) << LOG_FRAC | frac
}

/// Whether a coded `block` would be stored even if its parse found no
/// match: an integer lower bound on its order-0 entropy `n·H0` proves
/// that literal codes and tables take at least `8·(n − 4)` bits, what the
/// stored frame costs. Any prefix code spends at least `n·H0` bits on the
/// bytes (Kraft and Gibbs), so the payload with no match is at least
/// [`TABLE_BITS`]` + n·H0` bits. Integers only, so every target decides
/// alike.
pub(crate) fn literals_cannot_pay(block: &[u8]) -> bool {
    let n = block.len();
    if n <= MIN_MATCH {
        return true;
    }
    // Four histograms, so that a run of one byte does not chain its
    // increments through one counter.
    let mut freq = [[0u32; 256]; 4];
    let quads = block.chunks_exact(4);
    for &b in quads.remainder() {
        freq[0][usize::from(b)] += 1;
    }
    for q in quads {
        for (f, &b) in freq.iter_mut().zip(q) {
            f[usize::from(b)] += 1;
        }
    }
    // n·log2(n) from below, Σ f·log2(f) from above: 2 units covers the
    // rounding of each `log2_fixed`. A sum that would go below zero stops
    // at zero, still a lower bound of `n·H0`.
    let mut bound = n as u64 * log2_fixed(n as u32);
    for b in 0..256 {
        let f = freq.iter().map(|f| f[b]).sum::<u32>();
        if f > 0 {
            bound = bound.saturating_sub(u64::from(f) * (log2_fixed(f) + 2));
        }
    }
    ((TABLE_BITS as u64) << LOG_FRAC) + bound >= (8 * (n - MIN_MATCH) as u64) << LOG_FRAC
}

/// One worker's reusable state for encoding blocks: the hash-chain tables
/// of the LZ77 parse and its match list (≈ 1.6 MiB), and the table of the
/// store probe. Every block starts from a reset state, so a block's bytes
/// do not depend on which encoder ran it or what that encoder saw before.
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
    /// The store probe's samples: `hash << 32 | end + 1`, `end` the last
    /// position of the first window the word was least of (0: none).
    probe: Vec<u64>,
    /// Blocks stored without a parse since the count was last taken.
    pub(crate) stored_unparsed: usize,
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
            probe: vec![0; 1 << PROBE_BITS],
            stored_unparsed: 0,
        }
    }

    /// Bytes the tables and the match list hold.
    pub(crate) fn bytes(&self) -> usize {
        4 * (self.head.capacity() + self.prev.capacity() + self.seen.capacity())
            + 8 * self.probe.capacity()
            + std::mem::size_of::<Match>() * self.matches.capacity()
    }

    /// Whether a content-defined sample of `block`'s 4-byte words holds
    /// one word twice, about [`MAX_DIST`] or less apart: what the parse
    /// would need to find a match worth having.
    ///
    /// The sample is winnowing: each window of [`PROBE_WINDOW`]
    /// consecutive word positions gives its least hash. The hash is a
    /// bijection of the word, so equal hashes are equal words, and which
    /// word a window gives depends on its bytes alone: two copies of a
    /// run of `PROBE_WINDOW + 3` bytes or more give the same word, and a
    /// window that takes in a word equal to the previous window's least
    /// holds it twice — every pattern shorter than the window, a run of
    /// one byte included. A word is entered once per stretch of windows
    /// it is least of, about one position in 16 where nothing repeats.
    ///
    /// Window minima come a window-sized step at a time, from the
    /// previous step's suffix minima and this step's prefix minima, and
    /// are compared in bulk; only a step where the least word changes
    /// goes to the table. Positions past the last whole step are not
    /// sampled.
    fn probe(&mut self, block: &[u8]) -> bool {
        const W: usize = PROBE_WINDOW;
        let steps = block.len().saturating_sub(MIN_MATCH - 1) / W;
        if steps == 0 {
            return false;
        }
        self.probe.fill(0);
        // `suffix[j]`: the least hash of the previous step from offset
        // `j` on; `suffix[W]` stands for nothing.
        let (mut suffix, mut next) = ([u32::MAX; W + 1], [u32::MAX; W + 1]);
        let (mut hashes, mut least) = ([0u32; W], [0u32; W]);
        // The least hash of the window before this step's first.
        let mut before = u32::MAX;
        for step in 0..steps {
            let base = step * W;
            let Some(bytes) = block[base..].first_chunk::<{ W + MIN_MATCH - 1 }>() else { break };
            for (j, h) in hashes.iter_mut().enumerate() {
                let word = [bytes[j], bytes[j + 1], bytes[j + 2], bytes[j + 3]];
                *h = u32::from_le_bytes(word).wrapping_mul(0x9E37_79B1);
            }
            // `least[j]`: the least hash of the window that ends at
            // `base + j`, from this step's prefix and the previous step's
            // suffix; this step's suffix minima come in the same loop.
            let (mut prefix, mut tail) = (u32::MAX, u32::MAX);
            for j in 0..W {
                prefix = prefix.min(hashes[j]);
                least[j] = prefix.min(suffix[j + 1]);
                tail = tail.min(hashes[W - 1 - j]);
                next[W - 1 - j] = tail;
            }
            std::mem::swap(&mut suffix, &mut next);
            // A hash equal to the window before's least is a repeat within
            // the window (the very first has no window before it); where
            // the least changes, a word is sampled.
            let (mut repeat, mut changed, mut prev) = (false, 0u32, before);
            for (j, (&h, &l)) in hashes.iter().zip(&least).enumerate() {
                repeat |= h == prev && base + j > 0;
                changed |= u32::from(l != prev) << j;
                prev = l;
            }
            if repeat {
                return true;
            }
            before = prev;
            while changed != 0 {
                let j = changed.trailing_zeros() as usize;
                changed &= changed - 1;
                let (min, at) = (least[j], base + j + 1);
                let slot = (min.wrapping_mul(0x85EB_CA6B) >> (32 - PROBE_BITS)) as usize;
                let entry = &mut self.probe[slot];
                let seen = *entry as u32 as usize;
                if seen != 0 && *entry >> 32 == u64::from(min) && at - seen <= MAX_DIST {
                    return true;
                }
                *entry = u64::from(min) << 32 | at as u64;
            }
        }
        false
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
        let word = |i: usize| word_at(block, i);
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
    /// bytes — and returns the bytes written.
    ///
    /// A block is stored without a parse when no literal-only code can
    /// pay for it ([`literals_cannot_pay`]) and the probe finds no word it
    /// could match ([`BlockEncoder::probe`]): dense coder output, where
    /// the parse would find next to nothing and store the block anyway.
    /// Every other block takes [`BlockEncoder::encode_parsed`].
    pub(crate) fn encode(&mut self, block: &[u8], last: bool, out: &mut [u8]) -> usize {
        if literals_cannot_pay(block) && !self.probe(block) {
            self.stored_unparsed += 1;
            return store(block, last, out);
        }
        self.encode_parsed(block, last, out)
    }

    /// [`BlockEncoder::encode`] after the full parse. Coded wins only when
    /// it saves more than its 4-byte length field; the payload size is
    /// exact from the histograms (tables + Σ freq·code-length + extra
    /// bits), so a block that ends up stored never pays for the emit.
    pub(crate) fn encode_parsed(&mut self, block: &[u8], last: bool, out: &mut [u8]) -> usize {
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
        if payload_len + 4 >= block.len() {
            return store(block, last, out);
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
        out[0] = if last { FLAG_LAST | FLAG_CODED } else { FLAG_CODED };
        out[1..5].copy_from_slice(&(block.len() as u32).to_le_bytes());
        out[5..9].copy_from_slice(&(payload_len as u32).to_le_bytes());
        out[9..9 + payload_len].copy_from_slice(&payload);
        9 + payload_len
    }
}

/// Writes `block` to the front of `out` as one stored SLZ1 block and
/// returns the bytes written.
fn store(block: &[u8], last: bool, out: &mut [u8]) -> usize {
    out[0] = if last { FLAG_LAST } else { 0 };
    out[1..5].copy_from_slice(&(block.len() as u32).to_le_bytes());
    out[5..5 + block.len()].copy_from_slice(block);
    5 + block.len()
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

    /// Deterministic xorshift bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn log2_fixed_is_a_lower_bound_within_two_units() {
        // Pinned values: the store decision is made from these integers,
        // so they are the same on every target.
        let pinned = [(1u32, 0u64), (2, 65_536), (3, 103_872), (10, 217_705), (131_072, 1_114_112)];
        for (x, want) in pinned {
            assert_eq!(log2_fixed(x), want, "log2({x})");
        }
        for x in (1..5000u32).chain((5000..=BLOCK_SIZE as u32).step_by(97)) {
            let exact = f64::from(x).log2() * f64::from(1u32 << LOG_FRAC);
            let got = log2_fixed(x) as f64;
            assert!(got <= exact + 1e-6 && exact - got < 2.0, "log2({x}): {got} vs {exact}");
        }
    }

    #[test]
    fn the_store_decision_is_pinned_on_fixed_inputs() {
        // Noise of a full block clears the literal bound and has nothing for
        // the probe, so it is stored unparsed; the same noise with a zero
        // run of 64 bytes, a copy of 48 of its bytes 20 000 further on, or
        // one byte in a hundred replaced by 0x55 is not. Blocks too short
        // to hold a payload's tables always clear the bound.
        let random = noise(BLOCK_SIZE, 7);
        let mut zeros = random.clone();
        zeros[70_000..70_064].fill(0);
        let mut copied = random.clone();
        copied.copy_within(1_000..1_048, 21_000);
        let skewed: Vec<u8> =
            random.iter().enumerate().map(|(i, &b)| if i % 100 == 0 { 0x55 } else { b }).collect();
        let mut enc = BlockEncoder::new();
        let decide =
            |enc: &mut BlockEncoder, block: &[u8]| (literals_cannot_pay(block), enc.probe(block));
        assert_eq!(decide(&mut enc, &random), (true, false));
        assert_eq!(decide(&mut enc, &zeros), (true, true));
        assert_eq!(decide(&mut enc, &copied), (true, true));
        assert!(!decide(&mut enc, &skewed).0);
        for len in [0, 1, 4, 5, 100, 161] {
            assert!(literals_cannot_pay(&vec![0u8; len]), "{len} zero bytes");
        }
        assert!(!literals_cannot_pay(&[0u8; 162]));
        let mut out = vec![0u8; MAX_FRAMED_BLOCK];
        assert_eq!(enc.encode(&random, true, &mut out), BLOCK_SIZE + 5);
        assert_eq!((out[0], enc.stored_unparsed), (FLAG_LAST, 1));
        enc.encode(&zeros, false, &mut out);
        assert_eq!(enc.stored_unparsed, 1, "a block the probe flags is parsed");
    }

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
