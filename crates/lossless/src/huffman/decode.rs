//! Decode side of [`CanonicalCode`]: table construction from (possibly
//! untrusted) code lengths and the table-driven symbol decoder. Audited
//! by the repo's `tests/panic_audit.rs` — nothing here may `unwrap`,
//! `expect`, `panic!` or `assert`, and nothing indexes by a decoded value
//! without a check.
//!
//! # Table layout and bit order
//!
//! A code is written most-significant bit first into a stream that packs
//! LSB-first, so the first code bit is bit 0 of what
//! [`BitReader::peek_bits`] returns. The primary table is therefore
//! indexed by the *bit-reversed* code: a code of `len <= primary_bits`
//! bits owns every index whose low `len` bits equal its reversal
//! (`2^(primary_bits - len)` entries, stride `2^len`). One peek, one
//! load and one `skip_bits(len)` decode a symbol. The table stays small
//! (`2^min(max_len, 11)` entries); codes longer than it — the rare tail
//! of the baselines' 2²⁴-symbol, depth-31 alphabets — fall back to the
//! canonical first-code walk over the same peeked bits, starting past
//! the primary width.
//!
//! # Hostile length tables
//!
//! Lengths read from a stream need not form a prefix code. Whatever they
//! are, decoding resolves exactly as reading the stream one bit at a
//! time and accepting the first length whose canonical range contains
//! the bits so far would (the `#[cfg(test)]` oracle, differentially
//! tested): the *shortest* matching code wins. Concretely, table fill
//! goes by ascending length and never overwrites, so an over-subscribed
//! table cannot let a long code shadow a short one; canonical values that
//! outgrow their own length (`code >= 2^len`) can never be read and get
//! no entry; an incomplete table leaves holes that decode as
//! `Corrupt("invalid Huffman code")`; a single-symbol table decodes its
//! one 1-bit code and rejects the other bit; an all-zero table rejects
//! every read. The only tables rejected up front are those outside the
//! supported domain — a length above [`MAX_SUPPORTED_LEN`] or more than
//! 2²⁶ symbols, neither expressible in any serialized form here — which
//! build a code that decodes nothing (every read is `Corrupt`).

use super::{CanonicalCode, LENGTH_FIELD_BITS, MAX_SUPPORTED_LEN};
use sperr_bitstream::{BitReader, Error};

/// Width of the primary lookup table; 2¹¹ `u32` entries are 8 KiB, well
/// inside L1 next to the data being inflated.
const PRIMARY_BITS: u32 = 11;

/// Low bits of a primary entry holding the code length (1..=32).
const LEN_FIELD: u32 = 6;

/// Largest alphabet whose symbols fit a primary entry beside the length.
const MAX_ALPHABET: usize = 1 << (32 - LEN_FIELD);

impl CanonicalCode {
    /// Builds the code from per-symbol lengths (0 = symbol unused).
    pub fn from_lengths(lengths: &[u8]) -> Self {
        const N: usize = MAX_SUPPORTED_LEN + 1;
        let mut count = [0u32; N];
        let mut supported = lengths.len() <= MAX_ALPHABET;
        for &l in lengths {
            match count.get_mut(usize::from(l)) {
                Some(c) => *c += 1,
                None => supported = false,
            }
        }
        if !supported {
            count = [0; N];
        }
        count[0] = 0;
        let max_len = (1..N).rev().find(|&l| count[l] > 0).unwrap_or(0) as u32;
        let primary_bits = max_len.min(PRIMARY_BITS);

        // Canonical first code and first sorted-symbol index per length.
        // u64 cannot overflow (at most 2^26 codes per length, 32 lengths),
        // but an over-subscribed table does push codes past 2^len.
        let mut first_code = [0u64; N];
        let mut first_index = [0u32; N];
        let (mut code, mut index) = (0u64, 0u32);
        for l in 1..N {
            code = (code + u64::from(count[l - 1])) << 1;
            first_code[l] = code;
            first_index[l] = index;
            index += count[l];
        }

        // Symbols sorted by (length, symbol), and each symbol's reversed
        // code for the encoder.
        let mut sorted_symbols = vec![0u32; index as usize];
        let mut codes = vec![0u32; lengths.len()];
        let mut next = first_index;
        for (sym, (&l, rev)) in lengths.iter().zip(codes.iter_mut()).enumerate() {
            let l = usize::from(l);
            if l == 0 || !supported {
                continue;
            }
            let (Some(slot), Some(&fc), Some(&fi)) =
                (next.get_mut(l), first_code.get(l), first_index.get(l))
            else {
                continue;
            };
            if let Some(s) = sorted_symbols.get_mut(*slot as usize) {
                *s = sym as u32;
            }
            *rev = reverse(fc + u64::from(*slot - fi), l as u32).unwrap_or(0) as u32;
            *slot += 1;
        }

        // Primary table, shortest codes first, never overwriting.
        let mut primary = vec![0u32; 1 << primary_bits];
        for l in 1..=primary_bits as usize {
            let symbols = sorted_symbols.iter().skip(first_index[l] as usize);
            for (k, &sym) in symbols.take(count[l] as usize).enumerate() {
                let Some(rev) = reverse(first_code[l] + k as u64, l as u32) else {
                    break; // this and every later code of the length is unreadable
                };
                let entry = sym << LEN_FIELD | l as u32;
                for slot in primary.iter_mut().skip(rev as usize).step_by(1 << l) {
                    if *slot == 0 {
                        *slot = entry;
                    }
                }
            }
        }

        CanonicalCode {
            lengths: lengths.to_vec(),
            codes,
            primary,
            primary_bits,
            first_code,
            count,
            first_index,
            sorted_symbols,
            max_len,
        }
    }

    /// Resolves the code at the front of `bits` (stream order, first bit
    /// in bit 0, at least [`MAX_SUPPORTED_LEN`] of them meaningful or
    /// zero-padded) to `(symbol, length)`; length 0 means no code matches.
    /// The caller checks the length against the bits really available.
    #[inline]
    pub(crate) fn lookup(&self, bits: u64) -> (u32, u32) {
        let index = (bits & ((1u64 << self.primary_bits) - 1)) as usize;
        match self.primary.get(index) {
            Some(&entry) if entry != 0 => (entry >> LEN_FIELD, entry & ((1 << LEN_FIELD) - 1)),
            _ => self.lookup_long(bits),
        }
    }

    /// Canonical walk for codes longer than the primary table.
    #[cold]
    fn lookup_long(&self, bits: u64) -> (u32, u32) {
        let p = self.primary_bits;
        let mut code = reverse(bits & ((1u64 << p) - 1), p).unwrap_or(0);
        for len in p + 1..=self.max_len {
            code = code << 1 | (bits >> (len - 1) & 1);
            let l = len as usize;
            let (Some(&fc), Some(&n), Some(&fi)) =
                (self.first_code.get(l), self.count.get(l), self.first_index.get(l))
            else {
                break;
            };
            if code >= fc && code - fc < u64::from(n) {
                let index = u64::from(fi) + (code - fc);
                if let Some(&sym) = self.sorted_symbols.get(index as usize) {
                    return (sym, len);
                }
            }
        }
        (0, 0)
    }

    /// The error for a failed [`CanonicalCode::lookup`] with `avail` real
    /// bits left: a bit-at-a-time reader runs out of stream before it can
    /// rule out the longest code, and only otherwise sees an invalid one.
    #[inline]
    pub(crate) fn miss(&self, avail: usize) -> Error {
        if avail < self.max_len as usize {
            Error::UnexpectedEof
        } else {
            Error::Corrupt("invalid Huffman code")
        }
    }

    /// Reads one symbol from the bit source.
    #[inline]
    pub fn decode_symbol(&self, input: &mut BitReader<'_>) -> Result<u32, Error> {
        let avail = input.remaining_bits();
        let (symbol, len) = self.lookup(input.peek_bits(MAX_SUPPORTED_LEN as u32));
        if len == 0 {
            return Err(self.miss(avail));
        }
        input.skip_bits(len)?;
        Ok(symbol)
    }
}

/// `code` reversed within `len` bits, or `None` when it does not fit them
/// (`len` in 0..=32).
#[inline]
fn reverse(code: u64, len: u32) -> Option<u64> {
    if code >> len != 0 {
        return None;
    }
    Some(if len == 0 { 0 } else { code.reverse_bits() >> (64 - len) })
}

/// Inverse of [`super::encode_symbols`].
pub fn decode_symbols(bytes: &[u8]) -> Result<Vec<u32>, Error> {
    let mut r = BitReader::new(bytes);
    let alphabet = r.get_bits(32)? as usize;
    let count = r.get_bits(64)?;
    if alphabet > (1 << 24) {
        return Err(Error::Corrupt("implausible Huffman alphabet"));
    }
    // Each length costs LENGTH_FIELD_BITS bits; a header declaring more
    // lengths than the stream can hold is rejected before any allocation.
    if (alphabet as u64).saturating_mul(LENGTH_FIELD_BITS as u64) > r.remaining_bits() as u64 {
        return Err(Error::UnexpectedEof);
    }
    let mut lengths = Vec::with_capacity(alphabet);
    for _ in 0..alphabet {
        lengths.push(r.get_bits(LENGTH_FIELD_BITS)? as u8);
    }
    let code = CanonicalCode::from_lengths(&lengths);
    // Every coded symbol costs at least one bit, so the remaining stream
    // bounds the symbol count; this keeps the reservation honest.
    if count > r.remaining_bits() as u64 {
        return Err(Error::UnexpectedEof);
    }
    let count = count as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(code.decode_symbol(&mut r)?);
    }
    Ok(out)
}
