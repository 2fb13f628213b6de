use crate::{Error, Result};

/// A cursor over a packed bitstream, reading LSB-first within each byte.
///
/// Mirrors [`crate::BitWriter`]. Reads past the end return
/// [`Error::UnexpectedEof`] without consuming anything, which lets the SPECK
/// decoder stop cleanly on a truncated (embedded) prefix.
///
/// Internally the reader keeps a 64-bit refill register mirroring the
/// writer's accumulator: `get_bit` costs a shift and a decrement on the
/// hot path, refilling eight bytes at a time, instead of a bounds check
/// plus byte indexing per bit.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Index of the next byte to load into `acc`.
    next: usize,
    /// Not-yet-consumed bits, LSB-first (matching the writer's packing).
    acc: u64,
    /// Number of valid bits in `acc` (0..=64).
    acc_len: u32,
}

/// Shift helpers that tolerate a full-width (64) shift, which Rust's `>>`
/// and `<<` on `u64` do not.
#[inline]
fn shr(v: u64, s: u32) -> u64 {
    if s >= 64 {
        0
    } else {
        v >> s
    }
}

#[inline]
fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, next: 0, acc: 0, acc_len: 0 }
    }

    /// Loads up to 8 further bytes into the (empty) register.
    #[inline]
    fn refill(&mut self) {
        let rest = &self.bytes[self.next..];
        if let Some(word) = rest.first_chunk::<8>() {
            self.acc = u64::from_le_bytes(*word);
            self.acc_len = 64;
            self.next += 8;
        } else {
            let mut acc = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                acc |= (b as u64) << (8 * i);
            }
            self.acc = acc;
            self.acc_len = (rest.len() * 8) as u32;
            self.next += rest.len();
        }
    }

    /// Reads one bit.
    #[inline]
    pub fn get_bit(&mut self) -> Result<bool> {
        if self.acc_len == 0 {
            self.refill();
            if self.acc_len == 0 {
                return Err(Error::UnexpectedEof);
            }
        }
        let bit = self.acc & 1 == 1;
        self.acc >>= 1;
        self.acc_len -= 1;
        Ok(bit)
    }

    /// Reads `n` bits (`n <= 64`) into the low bits of the result, LSB
    /// first. Widths above 64 are a caller error surfaced as a clean
    /// [`Error::Corrupt`] so that widths read from untrusted headers can be
    /// passed through without pre-validation.
    pub fn get_bits(&mut self, n: u32) -> Result<u64> {
        if n > 64 {
            return Err(Error::Corrupt("bit width exceeds 64"));
        }
        if n == 0 {
            return Ok(0);
        }
        if self.remaining_bits() < n as usize {
            return Err(Error::UnexpectedEof);
        }
        let take = n.min(self.acc_len);
        let mut out = self.acc & low_mask(take);
        self.acc = shr(self.acc, take);
        self.acc_len -= take;
        if take < n {
            // Cross the refill boundary: the length check above guarantees
            // one refill supplies the remaining `n - take` bits.
            self.refill();
            let more = n - take;
            out |= (self.acc & low_mask(more)) << take;
            self.acc = shr(self.acc, more);
            self.acc_len -= more;
        }
        Ok(out)
    }

    /// Appends whole bytes above the register's valid bits until fewer
    /// than eight free bits remain (or the stream ends), keeping the bits
    /// above `acc_len` zero like every other path here. Callers hold
    /// `acc_len < 56`, so the shifts stay in range.
    #[inline]
    fn top_up(&mut self) {
        let rest = &self.bytes[self.next..];
        let room = (64 - self.acc_len) / 8;
        if let Some(word) = rest.first_chunk::<8>() {
            self.acc |= (u64::from_le_bytes(*word) & low_mask(room * 8)) << self.acc_len;
            self.acc_len += room * 8;
            self.next += room as usize;
        } else {
            for &b in rest.iter().take(room as usize) {
                self.acc |= (b as u64) << self.acc_len;
                self.acc_len += 8;
                self.next += 1;
            }
        }
    }

    /// Returns the next `n` bits (`n <= 56`, the most a byte-granular
    /// top-up of a 64-bit register can guarantee) without consuming them,
    /// first stream bit in bit 0. Bits past the end of the stream read as
    /// 0; whether they were really there is [`BitReader::skip_bits`]'s
    /// call. Together the pair lets a table-driven decoder look a whole
    /// code up in one step and then pay only for the bits it used.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        let n = n.min(56);
        if self.acc_len < n {
            self.top_up();
        }
        self.acc & low_mask(n)
    }

    /// Consumes `n` bits, or fails with [`Error::UnexpectedEof`] and
    /// consumes nothing when fewer remain.
    #[inline]
    pub fn skip_bits(&mut self, n: u32) -> Result<()> {
        if n <= self.acc_len {
            self.acc = shr(self.acc, n);
            self.acc_len -= n;
            return Ok(());
        }
        if n as usize > self.remaining_bits() {
            return Err(Error::UnexpectedEof);
        }
        // Drop the register, whole bytes, then the odd bits of the next
        // refill (which the length check guarantees are there).
        let rest = n - self.acc_len;
        self.acc = 0;
        self.acc_len = 0;
        self.next += (rest / 8) as usize;
        let odd = rest % 8;
        if odd > 0 {
            self.refill();
            self.acc >>= odd;
            self.acc_len -= odd;
        }
        Ok(())
    }

    /// Consumes and counts a run of consecutive 0 bits, stopping before
    /// the first 1 bit, after `max` zeros, or at end of stream —
    /// whichever comes first. The read-side mirror of
    /// [`crate::BitWriter::put_zeros`]: a SPECK-style decoder retains a
    /// whole run of insignificant sets per call instead of paying one
    /// `get_bit` per set.
    ///
    /// Returns the number of zeros consumed. The caller distinguishes
    /// "stopped at a 1" from "stopped at EOF" by the next `get_bit`,
    /// which preserves the exact truncation semantics of a bit-at-a-time
    /// loop.
    pub fn count_zero_run(&mut self, max: usize) -> usize {
        let mut total = 0usize;
        while total < max {
            if self.acc_len == 0 {
                self.refill();
                if self.acc_len == 0 {
                    break; // end of stream mid-run
                }
            }
            let window = (self.acc_len as usize).min(max - total);
            // trailing_zeros() is 64 for an all-zero register; the min
            // keeps the count inside this call's window either way.
            let tz = (self.acc.trailing_zeros() as usize).min(window);
            self.acc = shr(self.acc, tz as u32);
            self.acc_len -= tz as u32;
            total += tz;
            if tz < window {
                break; // the next bit is a 1
            }
        }
        total
    }

    /// Skips forward to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        // position_bits ≡ -acc_len (mod 8), so the distance to the next
        // byte boundary is acc_len % 8 — always available in the register.
        let skip = self.acc_len % 8;
        self.acc >>= skip;
        self.acc_len -= skip;
    }

    /// Bits consumed so far.
    #[inline]
    pub fn position_bits(&self) -> usize {
        self.next * 8 - self.acc_len as usize
    }

    /// Bits still available.
    #[inline]
    pub fn remaining_bits(&self) -> usize {
        (self.bytes.len() - self.next) * 8 + self.acc_len as usize
    }
}
