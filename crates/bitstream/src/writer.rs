/// An append-only bit sink that packs bits LSB-first into bytes.
///
/// The hot path of both SPECK and the outlier coder is `put_bit`, called
/// once per significance test / sign / refinement decision, so it is kept
/// branch-light: bits accumulate in a 64-bit register that is flushed to the
/// byte vector once full.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not yet flushed to `bytes`, LSB-first.
    acc: u64,
    /// Number of valid bits in `acc` (0..64).
    acc_len: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with capacity reserved for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bits / 8 + 8),
            acc: 0,
            acc_len: 0,
        }
    }

    /// A writer in the memory of `bytes`, whose contents are dropped, with
    /// room for `bits` bits: a caller that encodes repeatedly hands back
    /// the buffer [`BitWriter::into_bytes`] gave it and allocates nothing
    /// once the buffer has grown to its largest stream. Memory that holds
    /// nothing yet is [`BitWriter::with_capacity_bits`]`(bits)`.
    pub fn reusing(mut bytes: Vec<u8>, bits: usize) -> Self {
        if bytes.capacity() == 0 {
            return Self::with_capacity_bits(bits);
        }
        bytes.clear();
        bytes.reserve(bits / 8 + 8);
        Self { bytes, acc: 0, acc_len: 0 }
    }

    /// Appends a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.acc |= (bit as u64) << self.acc_len;
        self.acc_len += 1;
        if self.acc_len == 64 {
            self.flush_acc();
        }
    }

    /// Appends the `n` least-significant bits of `value`, LSB first.
    /// `n` must be <= 64.
    #[inline]
    pub fn put_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let value = if n == 64 { value } else { value & ((1u64 << n) - 1) };
        let room = 64 - self.acc_len;
        if n <= room {
            self.acc |= value << self.acc_len;
            self.acc_len += n;
            if self.acc_len == 64 {
                self.flush_acc();
            }
        } else {
            // Split across the accumulator boundary.
            self.acc |= value << self.acc_len;
            let consumed = room;
            self.acc_len = 64;
            self.flush_acc();
            self.acc = value >> consumed;
            self.acc_len = n - consumed;
        }
    }

    /// Appends `n` zero bits in one call. Equivalent to `n` calls of
    /// `put_bit(false)` but O(n/8): the accumulator is topped up (its
    /// unused high bits are already zero by invariant), whole zero bytes
    /// are appended directly, and the remainder becomes the new partial
    /// accumulator. This is the bulk path behind SPECK's run-coalesced
    /// emission of guaranteed-insignificant significance bits.
    pub fn put_zeros(&mut self, n: usize) {
        let room = (64 - self.acc_len) as usize;
        if n < room {
            self.acc_len += n as u32;
            return;
        }
        let rest = n - room;
        self.acc_len = 64;
        self.flush_acc();
        // acc == 0 and acc_len == 0 now; append whole zero bytes, then
        // leave the sub-byte remainder as pending accumulator bits.
        self.bytes.resize(self.bytes.len() + rest / 8, 0);
        self.acc_len = (rest % 8) as u32;
    }

    /// Pads with zero bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let rem = self.len_bits() % 8;
        if rem != 0 {
            self.put_bits(0, 8 - rem as u32);
        }
    }

    /// Total number of bits written so far.
    #[inline]
    pub fn len_bits(&self) -> usize {
        self.bytes.len() * 8 + self.acc_len as usize
    }

    /// Consumes the writer, returning the packed bytes. The final partial
    /// byte (if any) is zero-padded in its high bits.
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail_bits = self.acc_len;
        let acc = self.acc;
        let mut bits_left = tail_bits;
        let mut a = acc;
        while bits_left > 0 {
            self.bytes.push((a & 0xFF) as u8);
            a >>= 8;
            bits_left = bits_left.saturating_sub(8);
        }
        self.bytes
    }

    #[inline]
    fn flush_acc(&mut self) {
        debug_assert_eq!(self.acc_len, 64);
        self.bytes.extend_from_slice(&self.acc.to_le_bytes());
        self.acc = 0;
        self.acc_len = 0;
    }
}
