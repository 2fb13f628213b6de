//! Morton-layout (Z-order) fast path for power-of-two cubic domains.
//!
//! On a `2^k`-sided cube every set SPECK creates is an *aligned dyadic
//! cube*: each [`SetS::split`] halves every axis evenly, so a set at
//! partition level `t` is a side-`2^(k-t)` cube at a position aligned to
//! its own size. Laying the per-pixel `meta` bytes out in Morton order
//! turns this geometry into arithmetic on the index alone:
//!
//! * an aligned side-`2^j` cube is the block of `2^(D·j)` *consecutive*
//!   Morton indices starting at `cell << (D·j)`, so "cube" reduces to a
//!   single `u32` cell number at its level;
//! * its `2^D` split children are cells `cell·2^D + 0 .. 2^D` at the next
//!   level down — and their cached significance bytes are `2^D`
//!   *consecutive bytes* of that level's max array, one cache line
//!   instead of the up-to-`2^D` scattered pyramid reads the general
//!   encoder pays per split (the dominant cost of its sorting pass);
//! * the child enumeration order of [`SetS::split`] (`c = Σ which_d·2^d`,
//!   first part = low half, all splits even) *is* Morton child order, so
//!   processing children by ascending Morton cell reproduces the general
//!   encoder's emission order bit for bit.
//!
//! Significance caches are byte maxima of `meta = msb << 1 | sign`.
//! Because `x >> 1` is monotone and attains its maximum at the maximum
//! element, `max(meta) >> 1 == max(msb)`, so a region is insignificant at
//! plane `n` exactly when its max byte is `<= 2n + 1` — the same
//! one-sided byte compare the bucket scan ([`sperr_simd::run_le`]) uses,
//! with no shift. Pixel entries carry their own meta byte, so the sign
//! of a newly significant pixel is `byte & 1` — no memory re-read at LIS
//! exit. LIS entries shrink from a 20-odd-byte [`SetS`] to a `u32` cell
//! plus the cached byte.
//!
//! Stream identity with the general encoder (and therefore with the
//! bit-at-a-time [`crate::reference`] oracle) holds bit for bit: the
//! significance predicate is equivalent (`max_byte <= 2n+1 ⟺ max_msb <=
//! n`), bucket processing order is equivalent (cube side `2^j` ⟺
//! partition level `k - j`, so ascending `j` = descending level =
//! smallest-first), child order is equivalent (above), and both paths
//! share [`BitSink`]/[`Lsp`] for the emission semantics. Enforced by the
//! conformance goldens and the oracle tests below.

use crate::coder::{empty_result, finish, BitSink, EncodedSpeck, Lsp, Stop};
use sperr_simd::Float;

/// True when `dims` is a power-of-two cube the Morton path handles
/// (side >= 2; a 1-cube is a bare pixel the general path covers).
pub(crate) fn applicable<const D: usize>(dims: [usize; D]) -> bool {
    let side = dims[0];
    side >= 2 && side.is_power_of_two() && dims.iter().all(|&d| d == side)
}

/// Morton ⇄ row-major index mapping for a `2^k`-sided `D`-cube, driven by
/// one group-of-bits lookup table.
///
/// Morton bit `J` addresses axis `J mod D`, bit `J / D` of that axis's
/// coordinate, so its row-major contribution is `stride[J % D] << (J / D)`
/// — additive over bits. Grouping `GB = D·B` Morton bits at a time (so
/// every group covers exactly `B` bits of *each* axis) makes the group's
/// contribution a pure shift of a table value:
/// `idx = Σ_g  L[(m >> g·GB) & (2^GB - 1)] << (g·B)`.
/// `B` is chosen so the table stays one-or-two-cache-lines hot
/// (`2^GB <= 512` entries).
pub(crate) struct MortonLayout {
    lut: Vec<u32>,
    /// Morton bits per group (`D · bits_per_axis_per_group`).
    group_bits: u32,
    /// Row-major shift per group step (`bits_per_axis_per_group`).
    axis_bits: u32,
    groups: u32,
}

impl MortonLayout {
    pub(crate) fn new<const D: usize>(side: usize) -> Self {
        debug_assert!(side.is_power_of_two() && side >= 2 && D >= 1);
        let k = side.trailing_zeros();
        // 9 Morton bits per group for D ∈ {1, 3}, 8 for D = 2.
        let b = (9 / D as u32).max(1);
        let gb = b * D as u32;
        let mut stride = [0u32; 8];
        let mut s = 1u32;
        for d in 0..D {
            stride[d] = s;
            s = s.wrapping_mul(side as u32);
        }
        let lut: Vec<u32> = (0u32..1 << gb)
            .map(|g| {
                let mut idx = 0u32;
                for j in 0..gb {
                    if g >> j & 1 == 1 {
                        idx += stride[j as usize % D] << (j / D as u32);
                    }
                }
                idx
            })
            .collect();
        MortonLayout { lut, group_bits: gb, axis_bits: b, groups: k.div_ceil(b) }
    }

    /// Row-major index of Morton index `m`.
    #[inline]
    pub(crate) fn demorton(&self, m: u32) -> u32 {
        let mask = (1u32 << self.group_bits) - 1;
        let mut idx = 0u32;
        for g in 0..self.groups {
            idx += self.lut[(m >> (g * self.group_bits) & mask) as usize] << (g * self.axis_bits);
        }
        idx
    }
}

/// Permutes row-major `meta` into Morton order (sequential writes,
/// gathered reads — the independent per-element gathers keep many misses
/// in flight).
fn mortonize(meta: &[u8], layout: &MortonLayout) -> Vec<u8> {
    let mut out = vec![0u8; meta.len()];
    for (m, o) in out.iter_mut().enumerate() {
        *o = meta[layout.demorton(m as u32) as usize];
    }
    out
}

/// Builds the per-cube max levels over the Morton meta array:
/// `levels[j][c]` is the max meta byte of the side-`2^j` cube spanning
/// Morton block `[c·2^(D·j), (c+1)·2^(D·j))`. `levels[0]` is the meta
/// array itself; each next level is `D` pairwise halvings
/// ([`sperr_simd::pairwise_max_into`] — contiguous, vectorized). Total
/// extra memory ≈ `n / (2^D − 1)`.
fn build_levels<const D: usize>(morton_meta: Vec<u8>, k: u32) -> Vec<Vec<u8>> {
    let _span = sperr_telemetry::span!("speck.encode.build_levels", k);
    let mut levels = Vec::with_capacity(k as usize + 1);
    levels.push(morton_meta);
    for _ in 1..=k {
        let mut cur = {
            let src = levels.last().unwrap();
            let mut t = vec![0u8; src.len() / 2];
            sperr_simd::pairwise_max_into(src, &mut t);
            t
        };
        for _ in 1..D {
            let mut t = vec![0u8; cur.len() / 2];
            sperr_simd::pairwise_max_into(&cur, &mut t);
            cur = t;
        }
        levels.push(cur);
    }
    levels
}

/// One LIS bucket: all insignificant cubes of one size, as parallel
/// arrays of cell index and cached max-meta byte. Bucket `j` holds
/// side-`2^j` cubes (`j = 0` holds pixels, whose byte is their own meta).
struct Bucket {
    cells: Vec<u32>,
    mb: Vec<u8>,
}

struct MortonEncoder<'a, T: Float, const D: usize, const CHECKED: bool> {
    coeffs: &'a [T],
    inv_q: T,
    layout: MortonLayout,
    levels: Vec<Vec<u8>>,
    /// Insignificant cubes bucketed by size log `j` — ascending `j` is
    /// the general encoder's descending-partition-level (smallest-first)
    /// order.
    buckets: Vec<Bucket>,
    lsp: Lsp,
    sink: BitSink<CHECKED>,
    sets_split: usize,
}

impl<'a, T: Float, const D: usize, const CHECKED: bool> MortonEncoder<'a, T, D, CHECKED> {
    /// One sorting pass at plane `n`: the same SWAR-scan + `copy_within`
    /// compaction as the general encoder's bucket loop, with the
    /// insignificance threshold expressed on raw meta bytes
    /// (`byte <= 2n+1 ⟺ msb <= n`; both sides < 128, so the movemask
    /// trick applies).
    fn sorting_pass(&mut self, n: u32) -> Result<(), Stop> {
        debug_assert!(n < 63);
        let t = (2 * n + 1) as u8;
        for j in 0..self.buckets.len() {
            let len = self.buckets[j].cells.len();
            let mut read = 0usize;
            let mut write = 0usize;
            while read < len {
                let run = sperr_simd::run_le(&self.buckets[j].mb[read..len], t);
                if run > 0 {
                    if write != read {
                        let b = &mut self.buckets[j];
                        b.cells.copy_within(read..read + run, write);
                        b.mb.copy_within(read..read + run, write);
                    }
                    write += run;
                    read += run;
                    self.sink.emit_zero_run(run)?;
                }
                if read < len {
                    let cell = self.buckets[j].cells[read];
                    let byte = self.buckets[j].mb[read];
                    read += 1;
                    self.sink.emit(true, false)?;
                    if j == 0 {
                        // Pixel: its bucket byte is its own meta — sign
                        // included, no memory read.
                        self.sink.emit(byte & 1 == 1, true)?;
                        self.lsp.new_idx.push(self.layout.demorton(cell));
                    } else {
                        self.code_s(j, cell, t)?;
                    }
                }
            }
            let b = &mut self.buckets[j];
            b.cells.truncate(write);
            b.mb.truncate(write);
        }
        self.sink.flush()
    }

    /// Splits a significant size-`2^j` cube: the children's cached bytes
    /// are the `2^D` consecutive bytes `levels[j-1][cell·2^D ..]` — one
    /// contiguous load, copied to a local block so the recursion can
    /// borrow `self` freely.
    fn code_s(&mut self, j: usize, cell: u32, t: u8) -> Result<(), Stop> {
        self.sets_split += 1;
        let jc = j - 1;
        let base = (cell as usize) << D;
        let nc = 1usize << D;
        let mut cb = [0u8; 8];
        cb[..nc].copy_from_slice(&self.levels[jc][base..base + nc]);
        for (ci, &m) in cb.iter().enumerate().take(nc) {
            let sig = m > t;
            self.sink.emit(sig, false)?;
            if jc == 0 {
                if sig {
                    self.sink.emit(m & 1 == 1, true)?;
                    self.lsp.new_idx.push(self.layout.demorton((base + ci) as u32));
                } else {
                    let b = &mut self.buckets[0];
                    b.cells.push((base + ci) as u32);
                    b.mb.push(m);
                }
            } else if sig {
                self.code_s(jc, (base + ci) as u32, t)?;
            } else {
                let b = &mut self.buckets[jc];
                b.cells.push((base + ci) as u32);
                b.mb.push(m);
            }
        }
        Ok(())
    }

    fn run(&mut self, num_planes: u8) {
        for n in (0..num_planes as u32).rev() {
            let _plane = sperr_telemetry::span!("speck.encode.plane", n);
            if self.sorting_pass(n).is_err() {
                break;
            }
            if self.lsp.refine(&mut self.sink, n).is_err() {
                break;
            }
            self.lsp.admit(self.coeffs, self.inv_q);
        }
    }
}

pub(crate) fn encode_morton<T: Float, const D: usize, const CHECKED: bool>(
    coeffs: &[T],
    dims: [usize; D],
    inv_q: T,
    meta: Vec<u8>,
    budget: usize,
) -> EncodedSpeck {
    debug_assert!(applicable(dims));
    let side = dims[0];
    let k = side.trailing_zeros();
    let n_total = meta.len();

    let layout = MortonLayout::new::<D>(side);
    let morton_meta = {
        let _span = sperr_telemetry::span!("speck.encode.mortonize");
        mortonize(&meta, &layout)
    };
    drop(meta);
    let levels = build_levels::<D>(morton_meta, k);

    let num_planes = levels[k as usize][0] >> 1;
    if num_planes == 0 {
        return empty_result();
    }

    // Root: the whole domain, as the single cell of the coarsest level.
    let mut buckets: Vec<Bucket> =
        (0..=k).map(|_| Bucket { cells: Vec::new(), mb: Vec::new() }).collect();
    buckets[k as usize].cells.push(0);
    buckets[k as usize].mb.push(levels[k as usize][0]);

    let mut enc = MortonEncoder::<'_, T, D, CHECKED> {
        coeffs,
        inv_q,
        layout,
        levels,
        buckets,
        lsp: Lsp::new(num_planes),
        sink: BitSink::new(budget, n_total / 2),
        sets_split: 0,
    };
    enc.run(num_planes);
    sperr_telemetry::counter!("speck.morton.cells", n_total);
    sperr_telemetry::counter!("speck.morton.buckets", k as usize + 1);
    finish(enc.sink, enc.sets_split, num_planes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode, reference, Termination};

    #[test]
    fn demorton_matches_bit_deinterleave_3d() {
        let side = 16usize;
        let layout = MortonLayout::new::<3>(side);
        for m in 0u32..(side * side * side) as u32 {
            let (mut x, mut y, mut z) = (0u32, 0u32, 0u32);
            for bit in 0..10 {
                x |= (m >> (3 * bit) & 1) << bit;
                y |= (m >> (3 * bit + 1) & 1) << bit;
                z |= (m >> (3 * bit + 2) & 1) << bit;
            }
            let expect = x + y * side as u32 + z * (side * side) as u32;
            assert_eq!(layout.demorton(m), expect, "m={m}");
        }
    }

    #[test]
    fn demorton_matches_bit_deinterleave_2d_and_1d() {
        let side = 32usize;
        let l2 = MortonLayout::new::<2>(side);
        for m in 0u32..(side * side) as u32 {
            let (mut x, mut y) = (0u32, 0u32);
            for bit in 0..16 {
                x |= (m >> (2 * bit) & 1) << bit;
                y |= (m >> (2 * bit + 1) & 1) << bit;
            }
            assert_eq!(l2.demorton(m), x + y * side as u32, "m={m}");
        }
        let l1 = MortonLayout::new::<1>(512);
        for m in [0u32, 1, 17, 255, 511] {
            assert_eq!(l1.demorton(m), m);
        }
    }

    #[test]
    fn morton_path_matches_reference_oracle() {
        // Power-of-two cubes dispatch to this module; the bit-at-a-time
        // reference knows nothing of Morton layouts. Byte-identical
        // streams and identical counters across dimensionalities and
        // termination modes prove the fast path is stream-neutral.
        let cases_3d = [[8usize, 8, 8], [16, 16, 16]];
        for dims in cases_3d {
            let n: usize = dims.iter().product();
            let coeffs: Vec<f64> =
                (0..n).map(|i| ((i * 37) % 113) as f64 - 56.0 + (i as f64 * 0.013)).collect();
            for term in [Termination::Quality, Termination::BitBudget(1777)] {
                let fast = encode(&coeffs, dims, 0.25, term);
                let slow = reference::encode(&coeffs, dims, 0.25, term);
                assert_eq!(fast.stream, slow.stream, "{dims:?} {term:?}");
                assert_eq!(fast.bits_used, slow.bits_used, "{dims:?} {term:?}");
                assert_eq!(fast.significance_bits, slow.significance_bits, "{dims:?} {term:?}");
                assert_eq!(fast.sign_bits, slow.sign_bits, "{dims:?} {term:?}");
                assert_eq!(fast.refinement_bits, slow.refinement_bits, "{dims:?} {term:?}");
            }
        }
        let coeffs: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.11).cos() * 90.0).collect();
        for term in [Termination::Quality, Termination::BitBudget(999)] {
            let fast = encode(&coeffs, [32usize, 32], 0.5, term);
            let slow = reference::encode(&coeffs, [32usize, 32], 0.5, term);
            assert_eq!(fast.stream, slow.stream, "2d {term:?}");
            let fast1 = encode(&coeffs, [1024usize], 0.5, term);
            let slow1 = reference::encode(&coeffs, [1024usize], 0.5, term);
            assert_eq!(fast1.stream, slow1.stream, "1d {term:?}");
        }
    }

    #[test]
    fn applicability_gate() {
        assert!(applicable([8usize, 8, 8]));
        assert!(applicable([2usize, 2]));
        assert!(applicable([64usize]));
        assert!(!applicable([8usize, 8, 4]));
        assert!(!applicable([12usize, 12, 12]));
        assert!(!applicable([1usize, 1, 1]));
    }
}
