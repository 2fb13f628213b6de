//! From-scratch CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) used
//! by the v2 container format for header and per-chunk payload integrity
//! checks. Slicing-by-8: eight 256-entry tables, built at compile time,
//! fold eight input bytes per step — the whole container passes through
//! here on every compress, decompress, verify and preview.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight lookups advance
/// the register over eight bytes at once.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The byte-at-a-time register update the sliced loop is built from; also
/// handles the (< 8 byte) tail.
#[inline]
fn update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 of `data` (initial value 0xFFFFFFFF, final XOR 0xFFFFFFFF — the
/// standard zlib/PNG convention). Public because it is the repo's one
/// checksum: the container uses it for integrity, and external integrity
/// tooling (the conformance golden-stream manifest) uses it for digests.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_of(&[data])
}

/// [`crc32`] of the concatenation of `parts`, without concatenating them.
pub(crate) fn crc32_of(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(!0u32, |crc, part| update(crc, part))
}

/// Advances the register over `data`, eight bytes a step.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in words.by_ref() {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    update_bytewise(crc, words.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    proptest::proptest! {
        #[test]
        fn sliced_matches_bytewise(
            (buf, off, tail) in (
                proptest::collection::vec(proptest::any::<u8>(), 4100 + 16),
                0usize..16,
                0usize..16,
            ),
            blocks in 0usize..512,
        ) {
            // Random lengths 0..=4100 at every alignment, every tail
            // length 0..=15 past a whole number of 8-byte steps.
            for len in [blocks * 8 + tail, tail, blocks % 7] {
                let len = len.min(4100);
                let data = &buf[off..off + len];
                proptest::prop_assert_eq!(crc32(data), !update_bytewise(!0, data));
                // Split anywhere, the parts give the whole's checksum.
                let (a, b) = data.split_at(off.min(len));
                proptest::prop_assert_eq!(crc32_of(&[a, b]), crc32(data));
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at byte {i} bit {bit} undetected");
                copy[i] ^= 1 << bit;
            }
        }
    }
}
