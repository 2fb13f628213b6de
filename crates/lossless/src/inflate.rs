//! Inflates one coded SLZ1 block (the decode side of `lz77.rs`). Audited
//! by the repo's `tests/panic_audit.rs`: nothing here may `unwrap`,
//! `expect`, `panic!` or `assert`, and every index derived from decoded
//! bits goes through `.get(..)`.
//!
//! One `peek_bits` fills a 56-bit register that is then consumed token by
//! token — several literals, or one match (at most 48 bits: length code
//! 15 + extra 5 + distance code 15 + extra 13) — before the reader is
//! advanced once. Each step still checks what it used against the bits
//! really left, in the order a bit-at-a-time reader would have failed, so
//! a truncated payload yields the very error it did before the tables.

use crate::huffman::CanonicalCode;
use crate::lz77::{
    DIST_ALPHABET, DIST_BUCKETS, EOB, LENGTH_BASE, LENGTH_BUCKETS, LITLEN_ALPHABET, MAX_MATCH,
};
use sperr_bitstream::{BitReader, Error};

/// What one `peek_bits` yields; several literals' worth of codes.
const PEEK_BITS: u32 = 56;
/// Most bits one token can take: a match with both codes and both extra
/// fields at their longest.
const TOKEN_BITS: u32 = 15 + 5 + 15 + 13;
/// Longest code a 4-bit length field can declare.
const MAX_CODE_BITS: u32 = 15;

/// Reads one 4-bit-per-symbol length table.
fn read_lengths<const N: usize>(r: &mut BitReader<'_>) -> Result<CanonicalCode, Error> {
    let mut lengths = [0u8; N];
    for l in lengths.iter_mut() {
        *l = r.get_bits(4)? as u8;
    }
    Ok(CanonicalCode::from_lengths(&lengths))
}

const OVERRUN: Error = Error::Corrupt("block overruns declared length");

/// Bytes of output window the first `want` bytes of a block of `raw_len`
/// need: a partial decode stops at the first token boundary at or past
/// `want`, within one match of it.
pub(crate) fn window(raw_len: usize, want: usize) -> usize {
    raw_len.min(want.saturating_add(MAX_MATCH))
}

/// Decodes the first `want` bytes (`want <= raw_len`) of the block of
/// `raw_len` bytes coded in `payload` into `dst`, which holds
/// [`window`]`(raw_len, want)` bytes; on error `dst` holds whatever was
/// decoded. With `want == raw_len` the block is decoded to its
/// end-of-block symbol and must produce exactly `raw_len` bytes; with
/// less, decoding stops at the first token boundary at or past `want` and
/// the rest of the payload goes unread (and unchecked).
pub(crate) fn inflate_block_into(
    payload: &[u8],
    raw_len: usize,
    want: usize,
    dst: &mut [u8],
) -> Result<(), Error> {
    inflate_tokens(payload, raw_len, want.min(raw_len), dst)
}

/// Decodes tokens into `dst`, the block's own output window, until `want`
/// bytes are there (`want < raw_len`) or the block ends (`want ==
/// raw_len`, which must coincide with `dst.len()` bytes written).
///
/// Match distances are checked against the bytes this block has produced:
/// `dst` starts at the block start, so a distance reaching before it is
/// corrupt no matter what the caller's buffer holds in front.
///
/// Inlined into its caller: as a shared out-of-line function the token
/// loop measured about a quarter slower.
#[inline(always)]
fn inflate_tokens(
    payload: &[u8],
    raw_len: usize,
    want: usize,
    dst: &mut [u8],
) -> Result<(), Error> {
    let mut r = BitReader::new(payload);
    let lit_code = read_lengths::<LITLEN_ALPHABET>(&mut r)?;
    let dist_code = read_lengths::<DIST_ALPHABET>(&mut r)?;
    let mut pos = 0usize;
    'refill: while pos < want || want == raw_len {
        // One register of stream bits, shifted down token by token; `have`
        // of them are real (the rest, past the end of the stream, read 0)
        // and `left` of those are still unconsumed.
        let mut bits = r.peek_bits(PEEK_BITS);
        let have = r.remaining_bits().min(PEEK_BITS as usize) as u32;
        let mut left = have;
        while pos < want || want == raw_len {
            // Literals go on until a code might not fit what is left of
            // the register; only an untouched register (the stream's last
            // bytes) is allowed to be that short.
            if left < MAX_CODE_BITS && left < have {
                break;
            }
            let (sym, len) = lit_code.lookup(bits);
            if len == 0 {
                return Err(lit_code.miss(left as usize));
            }
            if len > left {
                return Err(Error::UnexpectedEof);
            }
            if sym < EOB {
                *dst.get_mut(pos).ok_or(OVERRUN)? = sym as u8;
                pos += 1;
                bits >>= len;
                left -= len;
                continue;
            }
            if sym == EOB {
                if pos != raw_len {
                    return Err(Error::Corrupt("block length mismatch"));
                }
                break 'refill;
            }
            // A match wants up to TOKEN_BITS; start it on a fresh register.
            if left < TOKEN_BITS && left < have {
                break;
            }
            bits >>= len;
            left -= len;
            let &(lbase, lextra) = LENGTH_BUCKETS
                .get((sym - LENGTH_BASE) as usize)
                .ok_or(Error::Corrupt("bad length symbol"))?;
            let len = (lbase + take(&mut bits, &mut left, lextra)?) as usize;
            let (dsym, dlen) = dist_code.lookup(bits);
            if dlen == 0 {
                return Err(dist_code.miss(left as usize));
            }
            take(&mut bits, &mut left, dlen as u8)?;
            let &(dbase, dextra) =
                DIST_BUCKETS.get(dsym as usize).ok_or(Error::Corrupt("bad distance symbol"))?;
            let dist = (dbase + take(&mut bits, &mut left, dextra)?) as usize;

            if dist > pos {
                return Err(Error::Corrupt("distance beyond output"));
            }
            if len > dst.len() - pos {
                return Err(OVERRUN);
            }
            // `dist >= 1` (bucket bases start at 1), so each pass copies
            // from bytes already in place; an overlapping match (`dist <
            // len`) doubles its finished part until done.
            let src = pos - dist;
            let mut done = 0;
            while done < len {
                let n = (len - done).min(dist + done);
                dst.copy_within(src..src + n, pos + done);
                done += n;
            }
            pos += len;
        }
        r.skip_bits(have - left)?;
    }
    Ok(())
}

/// Takes the low `n` bits (`n < 64`) off the register, or fails when
/// fewer than `n` real bits are left in it.
#[inline]
fn take(bits: &mut u64, left: &mut u32, n: u8) -> Result<u32, Error> {
    let n = u32::from(n);
    if n > *left {
        return Err(Error::UnexpectedEof);
    }
    let v = *bits & ((1u64 << n) - 1);
    *bits >>= n;
    *left -= n;
    Ok(v as u32)
}

/// [`inflate_block_into`] appending to `out`, which is left as it was on
/// error.
#[cfg(test)]
pub(crate) fn inflate_block(
    payload: &[u8],
    raw_len: usize,
    want: usize,
    out: &mut Vec<u8>,
) -> Result<(), Error> {
    let want = want.min(raw_len);
    let base = out.len();
    out.resize(base + window(raw_len, want), 0);
    let result = match out.get_mut(base..) {
        Some(dst) => inflate_block_into(payload, raw_len, want, dst),
        None => Err(OVERRUN),
    };
    out.truncate(base + if result.is_ok() { want } else { 0 });
    result
}
