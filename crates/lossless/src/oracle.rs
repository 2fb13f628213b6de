//! The bit-at-a-time SLZ1 coder this crate shipped before the tables —
//! one `put_bit`/`get_bit` per code bit, `Vec` bucket tables, `usize`
//! hash chains, bytewise match copies — kept verbatim as the reference
//! the differential tests hold the production coder against: same bytes
//! out of the encoder, same bytes or same error out of the decoder.
//! Test-only; nothing here is reachable from a build of the library.

use crate::huffman::{code_lengths, MAX_CODE_LEN};
use crate::{DecodeError, BLOCK_SIZE, MAGIC};
use sperr_bitstream::{BitReader, BitWriter, ByteReader, ByteWriter, Error};

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 259;
const MAX_DIST: usize = 32768;
const EOB: u32 = 256;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 48;
const LITLEN_ALPHABET: usize = 257 + 28;
const DIST_ALPHABET: usize = 30;

/// Canonical code assignment: symbols sorted by (length, index) receive
/// consecutive code values per length. Returns per-symbol codes (MSB-first
/// bit patterns).
pub(crate) fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let max = lengths.iter().copied().max().unwrap_or(0);
    let mut count = vec![0u64; max as usize + 1];
    for &l in lengths {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next = vec![0u64; max as usize + 2];
    let mut code = 0u64;
    for l in 1..=max as usize {
        code = code.wrapping_add(count[l - 1]).wrapping_shl(1);
        next[l] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next[l as usize];
                next[l as usize] = c.wrapping_add(1);
                c as u32
            }
        })
        .collect()
}

/// The pre-table canonical Huffman code.
pub(crate) struct OracleCode {
    lengths: Vec<u8>,
    codes: Vec<u32>,
    first_code: Vec<u64>,
    first_index: Vec<u32>,
    count: Vec<u32>,
    sorted_symbols: Vec<u32>,
    max_len: u8,
}

impl OracleCode {
    pub(crate) fn from_lengths(lengths: &[u8]) -> Self {
        let codes = canonical_codes(lengths);
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        let mut count = vec![0u32; max_len as usize + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let mut first_code = vec![0u64; max_len as usize + 2];
        let mut first_index = vec![0u32; max_len as usize + 2];
        let mut code = 0u64;
        let mut index = 0u32;
        for l in 1..=max_len as usize {
            code = code.wrapping_add(count[l - 1] as u64).wrapping_shl(1);
            first_code[l] = code;
            first_index[l] = index;
            index = index.wrapping_add(count[l]);
        }
        let mut sorted: Vec<u32> =
            (0..lengths.len() as u32).filter(|&s| lengths[s as usize] > 0).collect();
        sorted.sort_by_key(|&s| (lengths[s as usize], s));
        OracleCode {
            lengths: lengths.to_vec(),
            codes,
            first_code,
            first_index,
            count,
            sorted_symbols: sorted,
            max_len,
        }
    }

    pub(crate) fn from_freqs(freqs: &[u64]) -> Self {
        Self::from_lengths(&code_lengths(freqs, MAX_CODE_LEN))
    }

    pub(crate) fn encode_symbol(&self, symbol: u32, out: &mut BitWriter) {
        let len = self.lengths[symbol as usize];
        let code = self.codes[symbol as usize];
        for i in (0..len).rev() {
            out.put_bit((code >> i) & 1 == 1);
        }
    }

    pub(crate) fn decode_symbol(&self, input: &mut BitReader<'_>) -> Result<u32, Error> {
        let mut code = 0u64;
        for len in 1..=(self.max_len as usize).min(63) {
            code = (code << 1) | input.get_bit()? as u64;
            let fc = self.first_code[len];
            if code >= fc && code.wrapping_sub(fc) < self.count[len] as u64 {
                let idx = self.first_index[len] as u64 + (code - fc);
                return match self.sorted_symbols.get(idx as usize) {
                    Some(&s) => Ok(s),
                    None => Err(Error::Corrupt("invalid Huffman code")),
                };
            }
        }
        Err(Error::Corrupt("invalid Huffman code"))
    }
}

fn length_buckets() -> Vec<(u32, u8)> {
    let mut v = Vec::with_capacity(28);
    for i in 0..8 {
        v.push((MIN_MATCH as u32 + i, 0));
    }
    let mut base = MIN_MATCH as u32 + 8;
    for extra in 1..=5u8 {
        for _ in 0..4 {
            v.push((base, extra));
            base += 1 << extra;
        }
    }
    v
}

fn dist_buckets() -> Vec<(u32, u8)> {
    let mut v = vec![(1, 0), (2, 0), (3, 0), (4, 0)];
    let mut base = 5u32;
    for extra in 1..=13u8 {
        for _ in 0..2 {
            v.push((base, extra));
            base += 1 << extra;
        }
    }
    v
}

fn bucket_of(buckets: &[(u32, u8)], value: u32) -> usize {
    buckets.partition_point(|&(base, _)| base <= value) - 1
}

enum Token {
    Literal(u8),
    Match { len: u32, dist: u32 },
}

fn parse(block: &[u8]) -> Vec<Token> {
    let n = block.len();
    let mut tokens = Vec::with_capacity(n / 2);
    if n < MIN_MATCH {
        tokens.extend(block.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    let hash = |i: usize| -> usize {
        let v = u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    };
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; n];
    let mut i = 0usize;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash(i);
            let mut cand = head[h];
            let mut chain = 0;
            let max_len = (n - i).min(MAX_MATCH);
            while cand != usize::MAX && chain < MAX_CHAIN {
                let dist = i - cand;
                if dist > MAX_DIST {
                    break;
                }
                if best_len == 0 || block[cand + best_len] == block[i + best_len] {
                    let mut l = 0usize;
                    while l < max_len && block[cand + l] == block[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l >= max_len {
                            break;
                        }
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match { len: best_len as u32, dist: best_dist as u32 });
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let mut j = i;
            while j < end {
                let h = hash(j);
                prev[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i += best_len;
        } else {
            if i + MIN_MATCH <= n {
                let h = hash(i);
                prev[i] = head[h];
                head[h] = i;
            }
            tokens.push(Token::Literal(block[i]));
            i += 1;
        }
    }
    tokens
}

pub(crate) fn compress_block(block: &[u8]) -> Vec<u8> {
    let len_buckets = length_buckets();
    let d_buckets = dist_buckets();
    let tokens = parse(block);

    let mut lit_freq = vec![0u64; LITLEN_ALPHABET];
    let mut dist_freq = vec![0u64; DIST_ALPHABET];
    lit_freq[EOB as usize] = 1;
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                lit_freq[257 + bucket_of(&len_buckets, len)] += 1;
                dist_freq[bucket_of(&d_buckets, dist)] += 1;
            }
        }
    }
    let lit_code = OracleCode::from_freqs(&lit_freq);
    let dist_code = OracleCode::from_freqs(&dist_freq);

    let mut w = BitWriter::with_capacity_bits(block.len() * 4);
    for &l in &lit_code.lengths {
        w.put_bits(l as u64, 4);
    }
    for &l in &dist_code.lengths {
        w.put_bits(l as u64, 4);
    }
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_code.encode_symbol(b as u32, &mut w),
            Token::Match { len, dist } => {
                let lb = bucket_of(&len_buckets, len);
                lit_code.encode_symbol(257 + lb as u32, &mut w);
                let (base, extra) = len_buckets[lb];
                w.put_bits((len - base) as u64, extra as u32);
                let db = bucket_of(&d_buckets, dist);
                dist_code.encode_symbol(db as u32, &mut w);
                let (dbase, dextra) = d_buckets[db];
                w.put_bits((dist - dbase) as u64, dextra as u32);
            }
        }
    }
    lit_code.encode_symbol(EOB, &mut w);
    w.into_bytes()
}

pub(crate) fn decompress_block(payload: &[u8], raw_len: usize) -> Result<Vec<u8>, Error> {
    let len_buckets = length_buckets();
    let d_buckets = dist_buckets();
    let mut r = BitReader::new(payload);

    let mut lit_lengths = vec![0u8; LITLEN_ALPHABET];
    for l in lit_lengths.iter_mut() {
        *l = r.get_bits(4)? as u8;
    }
    let mut dist_lengths = vec![0u8; DIST_ALPHABET];
    for l in dist_lengths.iter_mut() {
        *l = r.get_bits(4)? as u8;
    }
    let lit_code = OracleCode::from_lengths(&lit_lengths);
    let dist_code = OracleCode::from_lengths(&dist_lengths);

    let mut out: Vec<u8> = Vec::with_capacity(raw_len);
    loop {
        let sym = lit_code.decode_symbol(&mut r)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => break,
            _ => {
                let lb = (sym - 257) as usize;
                if lb >= len_buckets.len() {
                    return Err(Error::Corrupt("bad length symbol"));
                }
                let (base, extra) = len_buckets[lb];
                let len = base + r.get_bits(extra as u32)? as u32;
                let db = dist_code.decode_symbol(&mut r)? as usize;
                if db >= d_buckets.len() {
                    return Err(Error::Corrupt("bad distance symbol"));
                }
                let (dbase, dextra) = d_buckets[db];
                let dist = (dbase + r.get_bits(dextra as u32)? as u32) as usize;
                if dist == 0 || dist > out.len() {
                    return Err(Error::Corrupt("distance beyond output"));
                }
                if out.len() + len as usize > raw_len {
                    return Err(Error::Corrupt("block overruns declared length"));
                }
                let start = out.len() - dist;
                for k in 0..len as usize {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        if out.len() > raw_len {
            return Err(Error::Corrupt("block overruns declared length"));
        }
    }
    if out.len() != raw_len {
        return Err(Error::Corrupt("block length mismatch"));
    }
    Ok(out)
}

pub(crate) fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = ByteWriter::new();
    out.put_bytes(MAGIC);
    out.put_u64(data.len() as u64);
    if data.is_empty() {
        out.put_u8(0b10);
        out.put_u32(0);
        return out.into_bytes();
    }
    let mut offset = 0;
    while offset < data.len() {
        let end = (offset + BLOCK_SIZE).min(data.len());
        let block = &data[offset..end];
        let last = end == data.len();
        let payload = compress_block(block);
        if payload.len() + 4 < block.len() {
            out.put_u8(0b01 | if last { 0b10 } else { 0 });
            out.put_u32(block.len() as u32);
            out.put_u32(payload.len() as u32);
            out.put_bytes(&payload);
        } else {
            out.put_u8(if last { 0b10 } else { 0 });
            out.put_u32(block.len() as u32);
            out.put_bytes(block);
        }
        offset = end;
    }
    out.into_bytes()
}

pub(crate) fn decompress(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let mut r = ByteReader::new(data);
    if r.get_bytes(4)? != MAGIC {
        return Err(DecodeError::Corrupt("bad SLZ1 magic"));
    }
    let raw_len_u64 = r.get_u64()?;
    if raw_len_u64 > (data.len().saturating_mul(1024).saturating_add(BLOCK_SIZE)) as u64 {
        return Err(DecodeError::LimitExceeded("declared raw length implausibly large"));
    }
    let raw_len = raw_len_u64 as usize;
    let mut out = Vec::with_capacity(raw_len.min(16 * 1024 * 1024));
    loop {
        let flags = r.get_u8()?;
        let block_len = r.get_u32()? as usize;
        if block_len > BLOCK_SIZE {
            return Err(DecodeError::Corrupt("block exceeds maximum block size"));
        }
        if out.len() + block_len > raw_len {
            return Err(DecodeError::Corrupt("blocks overrun declared raw length"));
        }
        if flags & 0b01 != 0 {
            let payload_len = r.get_u32()? as usize;
            let payload = r.get_bytes(payload_len)?;
            let block = decompress_block(payload, block_len)?;
            out.extend_from_slice(&block);
        } else {
            out.extend_from_slice(r.get_bytes(block_len)?);
        }
        if flags & 0b10 != 0 {
            break;
        }
        if r.is_empty() {
            return Err(DecodeError::Truncated("missing last-block flag"));
        }
    }
    if out.len() != raw_len {
        return Err(DecodeError::Corrupt("raw length mismatch"));
    }
    Ok(out)
}
