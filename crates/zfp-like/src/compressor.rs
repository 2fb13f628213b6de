//! Whole-field ZFP-like compressor: block iteration, slab parallelism and
//! the container format, driving the per-block codec in either
//! fixed-accuracy or fixed-rate mode.

use crate::block::{
    block_exponent, forward_transform, from_ints, int_to_negabinary, inverse_transform,
    negabinary_to_int, sequency_permutation, to_ints, BLOCK_EDGE, BLOCK_SIZE,
};
use crate::codec::{decode_ints, encode_ints};
use sperr_bitstream::{BitReader, BitWriter, ByteReader, ByteWriter};
use sperr_compress_api::{Bound, CompressError, Field, LossyCompressor, Precision};
use sperr_exec::{Slots, WorkerPool};

const MAGIC: &[u8; 4] = b"ZFPL";
/// Bias applied to the per-block exponent when stored in 14 bits.
const EMAX_BIAS: i32 = 8191;
/// Per-block side information: 1 zero-flag bit + 14 exponent bits.
const HEADER_BITS: usize = 15;

/// The ZFP-like baseline compressor (see DESIGN.md §5 for fidelity notes).
#[derive(Debug, Clone)]
pub struct ZfpLike {
    /// Worker threads for slab-parallel coding; 0 = one per core.
    pub num_threads: usize,
}

impl Default for ZfpLike {
    fn default() -> Self {
        ZfpLike { num_threads: 0 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Fixed accuracy: absolute error tolerance.
    Accuracy(f64),
    /// Fixed rate: bits per value.
    Rate(f64),
    /// Fixed precision: keep this many most-significant bitplanes per
    /// block (ZFP's third mode; relative-error flavoured).
    Precision(u32),
}

/// `kmin` for accuracy mode: keep bitplanes whose float weight stays above
/// ~tolerance/64 (ZFP's `2(d+1)`-plane guard band for 3D).
fn kmin_for(emax: i32, tolerance: f64) -> u32 {
    let minexp = tolerance.log2().floor() as i32;
    (54 - emax + minexp).clamp(0, 64) as u32
}

fn block_grid(dims: [usize; 3]) -> [usize; 3] {
    [
        dims[0].div_ceil(BLOCK_EDGE),
        dims[1].div_ceil(BLOCK_EDGE),
        dims[2].div_ceil(BLOCK_EDGE),
    ]
}

/// Gathers a 4³ block at block coordinates `(bx, by, bz)`, replicating
/// edge samples for partial boundary blocks (as ZFP does).
fn gather(data: &[f64], dims: [usize; 3], bx: usize, by: usize, bz: usize) -> [f64; BLOCK_SIZE] {
    let mut out = [0.0; BLOCK_SIZE];
    for lz in 0..BLOCK_EDGE {
        let z = (bz * BLOCK_EDGE + lz).min(dims[2] - 1);
        for ly in 0..BLOCK_EDGE {
            let y = (by * BLOCK_EDGE + ly).min(dims[1] - 1);
            for lx in 0..BLOCK_EDGE {
                let x = (bx * BLOCK_EDGE + lx).min(dims[0] - 1);
                out[lx + BLOCK_EDGE * (ly + BLOCK_EDGE * lz)] =
                    data[x + dims[0] * (y + dims[1] * z)];
            }
        }
    }
    out
}

/// Scatters a block back, skipping padded samples.
fn scatter(
    data: &mut [f64],
    dims: [usize; 3],
    bx: usize,
    by: usize,
    bz: usize,
    block: &[f64; BLOCK_SIZE],
) {
    for lz in 0..BLOCK_EDGE {
        let z = bz * BLOCK_EDGE + lz;
        if z >= dims[2] {
            break;
        }
        for ly in 0..BLOCK_EDGE {
            let y = by * BLOCK_EDGE + ly;
            if y >= dims[1] {
                break;
            }
            for lx in 0..BLOCK_EDGE {
                let x = bx * BLOCK_EDGE + lx;
                if x >= dims[0] {
                    break;
                }
                data[x + dims[0] * (y + dims[1] * z)] =
                    block[lx + BLOCK_EDGE * (ly + BLOCK_EDGE * lz)];
            }
        }
    }
}

fn encode_block(values: &[f64; BLOCK_SIZE], mode: Mode, perm: &[usize; BLOCK_SIZE], out: &mut BitWriter) {
    let block_start = out.len_bits();
    let max_bits = match mode {
        Mode::Accuracy(_) | Mode::Precision(_) => usize::MAX / 2,
        Mode::Rate(bpp) => ((bpp * BLOCK_SIZE as f64) as usize).max(HEADER_BITS),
    };
    match block_exponent(values) {
        None => {
            out.put_bit(false); // all-zero block
        }
        Some(emax) => {
            out.put_bit(true);
            out.put_bits((emax + EMAX_BIAS) as u64, 14);
            let mut ints = to_ints(values, emax);
            forward_transform(&mut ints);
            let mut nega = [0u64; BLOCK_SIZE];
            for (slot, &p) in nega.iter_mut().zip(perm.iter()) {
                *slot = int_to_negabinary(ints[p]);
            }
            let kmin = match mode {
                Mode::Accuracy(tol) => kmin_for(emax, tol),
                Mode::Rate(_) => 0,
                Mode::Precision(p) => 64u32.saturating_sub(p),
            };
            encode_ints(&nega, out, max_bits - HEADER_BITS, kmin);
        }
    }
    if let Mode::Rate(_) = mode {
        // Pad to the fixed per-block size (random-access property).
        while out.len_bits() - block_start < max_bits {
            out.put_bit(false);
        }
    }
}

fn decode_block(
    input: &mut BitReader<'_>,
    mode: Mode,
    perm: &[usize; BLOCK_SIZE],
) -> Result<[f64; BLOCK_SIZE], CompressError> {
    let block_start = input.position_bits();
    let max_bits = match mode {
        Mode::Accuracy(_) | Mode::Precision(_) => usize::MAX / 2,
        Mode::Rate(bpp) => ((bpp * BLOCK_SIZE as f64) as usize).max(HEADER_BITS),
    };
    let nonzero = input.get_bit()?;
    let mut values = [0.0f64; BLOCK_SIZE];
    if nonzero {
        let emax = input.get_bits(14)? as i32 - EMAX_BIAS;
        if !(-2000..=2000).contains(&emax) {
            return Err(CompressError::Corrupt("implausible block exponent".into()));
        }
        let kmin = match mode {
            Mode::Accuracy(tol) => kmin_for(emax, tol),
            Mode::Rate(_) => 0,
            Mode::Precision(p) => 64u32.saturating_sub(p),
        };
        let nega = decode_ints(input, max_bits - HEADER_BITS, kmin)?;
        let mut ints = [0i64; BLOCK_SIZE];
        for (i, &p) in perm.iter().enumerate() {
            ints[p] = negabinary_to_int(nega[i]);
        }
        inverse_transform(&mut ints);
        values = from_ints(&ints, emax);
    }
    if let Mode::Rate(_) = mode {
        while input.position_bits() - block_start < max_bits {
            input.get_bit()?;
        }
    }
    Ok(values)
}

impl ZfpLike {
    fn threads(&self, work_items: usize) -> usize {
        let t = if self.num_threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.num_threads
        };
        t.min(work_items).max(1)
    }
}

impl ZfpLike {
    /// ZFP's fixed-precision mode: keep `bits` (1..=64) most-significant
    /// bitplanes of every block — a relative-error-flavoured control not
    /// expressible through [`Bound`]. Decode with the ordinary
    /// [`LossyCompressor::decompress`].
    pub fn compress_fixed_precision(
        &self,
        field: &Field,
        bits: u32,
    ) -> Result<Vec<u8>, CompressError> {
        if !(1..=64).contains(&bits) {
            return Err(CompressError::Invalid(format!("precision {bits} out of 1..=64")));
        }
        self.compress_mode(field, Mode::Precision(bits))
    }

    fn compress_mode(&self, field: &Field, mode: Mode) -> Result<Vec<u8>, CompressError> {
        if field.is_empty() {
            return Err(CompressError::Invalid("empty field".into()));
        }
        let grid = block_grid(field.dims);
        let perm = sequency_permutation();

        // Slab-parallel: split the z block rows across workers, each
        // producing an independent bitstream.
        let threads = self.threads(grid[2]);
        let slab_bounds: Vec<(usize, usize)> = split_ranges(grid[2], threads);
        let (dims, data) = (field.dims, &field.data);
        let slabs: Vec<Vec<u8>> = WorkerPool::scoped(threads, |pool| {
            pool.map(slab_bounds.len(), |slab, _| {
                let (z0, z1) = slab_bounds[slab];
                // Size hint: exact for fixed-rate; a mid-range per-block
                // guess otherwise (grows if exceeded).
                let blocks = (z1 - z0) * grid[1] * grid[0];
                let per_block = match mode {
                    Mode::Rate(bpp) => ((bpp * BLOCK_SIZE as f64) as usize).max(HEADER_BITS),
                    _ => HEADER_BITS + BLOCK_SIZE * 8,
                };
                let mut w = BitWriter::with_capacity_bits(blocks * per_block);
                for bz in z0..z1 {
                    for by in 0..grid[1] {
                        for bx in 0..grid[0] {
                            let block = gather(data, dims, bx, by, bz);
                            encode_block(&block, mode, &perm, &mut w);
                        }
                    }
                }
                w.into_bytes()
            })
        });

        let mut out = ByteWriter::new();
        out.put_bytes(MAGIC);
        out.put_u8(match mode {
            Mode::Accuracy(_) => 0,
            Mode::Rate(_) => 1,
            Mode::Precision(_) => 2,
        });
        out.put_u8(match field.precision {
            Precision::Double => 0,
            Precision::Single => 1,
        });
        out.put_f64(match mode {
            Mode::Accuracy(t) => t,
            Mode::Rate(r) => r,
            Mode::Precision(p) => f64::from(p),
        });
        out.put_u32(field.dims[0] as u32);
        out.put_u32(field.dims[1] as u32);
        out.put_u32(field.dims[2] as u32);
        out.put_u32(slabs.len() as u32);
        for s in &slabs {
            out.put_u32(s.len() as u32);
        }
        for s in &slabs {
            out.put_bytes(s);
        }
        Ok(out.into_bytes())
    }
}

impl LossyCompressor for ZfpLike {
    fn name(&self) -> &'static str {
        "ZFP-like"
    }

    fn supports(&self, bound: &Bound) -> bool {
        matches!(bound, Bound::Pwe(_) | Bound::Bpp(_))
    }

    fn compress(&self, field: &Field, bound: Bound) -> Result<Vec<u8>, CompressError> {
        let mode = match bound {
            Bound::Pwe(t) if t > 0.0 && t.is_finite() => Mode::Accuracy(t),
            Bound::Bpp(r) if r > 0.0 && r.is_finite() => Mode::Rate(r),
            Bound::Psnr(_) => {
                return Err(CompressError::Unsupported("ZFP-like has no PSNR mode"))
            }
            _ => return Err(CompressError::Invalid("invalid bound value".into())),
        };
        self.compress_mode(field, mode)
    }

    fn decompress(&self, stream: &[u8]) -> Result<Field, CompressError> {
        let mut r = ByteReader::new(stream);
        if r.get_bytes(4)? != MAGIC {
            return Err(CompressError::Corrupt("bad ZFPL magic".into()));
        }
        let mode_tag = r.get_u8()?;
        let precision = match r.get_u8()? {
            0 => Precision::Double,
            1 => Precision::Single,
            p => return Err(CompressError::Corrupt(format!("bad precision {p}"))),
        };
        let param = r.get_f64()?;
        let mode = match mode_tag {
            0 if param > 0.0 => Mode::Accuracy(param),
            1 if param > 0.0 => Mode::Rate(param),
            2 if (1.0..=64.0).contains(&param) => Mode::Precision(param as u32),
            _ => return Err(CompressError::Corrupt("bad mode/param".into())),
        };
        let dims = [r.get_u32()? as usize, r.get_u32()? as usize, r.get_u32()? as usize];
        if dims.iter().any(|&d| d == 0) {
            return Err(CompressError::Corrupt("zero dimension".into()));
        }
        // Untrusted header: cap the declared volume before sizing any
        // allocation by it (u32-index domain, like the SPERR container).
        if dims
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
            .map_or(true, |n| n > u32::MAX as u64)
        {
            return Err(CompressError::LimitExceeded("declared volume too large".into()));
        }
        let n_slabs = r.get_u32()? as usize;
        let grid = block_grid(dims);
        if n_slabs == 0 || n_slabs > grid[2] {
            return Err(CompressError::Corrupt("bad slab count".into()));
        }
        // The slab-length table must physically fit the remaining stream
        // before reserving for it.
        if n_slabs.saturating_mul(4) > r.remaining() {
            return Err(CompressError::Truncated("slab table extends past end of stream".into()));
        }
        let mut slab_lens = Vec::with_capacity(n_slabs);
        for _ in 0..n_slabs {
            slab_lens.push(r.get_u32()? as usize);
        }
        let mut slab_data = Vec::with_capacity(n_slabs);
        for &len in &slab_lens {
            slab_data.push(r.get_bytes(len)?);
        }
        let slab_bounds = split_ranges(grid[2], n_slabs);
        // `decode_block` reads at least one bit per block, so a slab's
        // byte length bounds the blocks it can hold. Checked before any
        // slab or output buffer is sized by the (untrusted) dims: memory
        // stays proportional to the stream, not to a header field.
        for (&(z0, z1), bytes) in slab_bounds.iter().zip(&slab_data) {
            let blocks = (z1 - z0) as u64 * grid[0] as u64 * grid[1] as u64;
            if blocks > 8 * bytes.len() as u64 {
                return Err(CompressError::Corrupt(
                    "declared dims need more blocks than the slab payload can hold".into(),
                ));
            }
        }
        let perm = sequency_permutation();

        // Each slab decodes straight into its z rows [z0*4, min(z1*4, nz))
        // of the output, on at most `num_threads` workers however many
        // slabs the stream declares.
        let mut out = vec![0.0f64; dims.iter().product()];
        let plane = dims[0] * dims[1];
        let mut rest = &mut out[..];
        let parts: Slots<&mut [f64]> = slab_bounds
            .iter()
            .map(|&(z0, z1)| {
                let rows = (z1 * BLOCK_EDGE).min(dims[2]) - z0 * BLOCK_EDGE;
                let (part, tail) = std::mem::take(&mut rest).split_at_mut(rows * plane);
                rest = tail;
                part
            })
            .collect();
        let results = WorkerPool::scoped(self.threads(n_slabs), |pool| {
            pool.map(n_slabs, |slab, _| {
                let (z0, z1) = slab_bounds[slab];
                let part = &mut *parts.lock(slab);
                let part_dims = [dims[0], dims[1], part.len() / plane];
                let mut input = BitReader::new(slab_data[slab]);
                for bz in z0..z1 {
                    for by in 0..grid[1] {
                        for bx in 0..grid[0] {
                            let block = decode_block(&mut input, mode, &perm)?;
                            scatter(part, part_dims, bx, by, bz - z0, &block);
                        }
                    }
                }
                Ok(())
            })
        });
        results.into_iter().collect::<Result<(), CompressError>>()?;
        Ok(Field::new(dims, out).with_precision(precision))
    }
}

/// Splits `n` items into `parts` contiguous near-equal ranges.
fn split_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_cover() {
        assert_eq!(split_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(split_ranges(2, 5), vec![(0, 1), (1, 2)]);
        assert_eq!(split_ranges(1, 1), vec![(0, 1)]);
    }

    #[test]
    fn inflated_dims_are_rejected_before_any_allocation() {
        // One flipped header bit used to reach `vec![0.0; dims.product()]`
        // and ask for gigabytes (the tier-1 SIGABRT). Declare the largest
        // volume the absolute cap lets through — 34 GB of output — over a
        // payload of a few hundred bytes: the block-count guard must refuse
        // it, and do so without sizing anything by the dims.
        let field = Field::from_fn([8, 8, 8], |x, y, z| (x + 2 * y + 3 * z) as f64);
        let mut stream = ZfpLike::default().compress(&field, Bound::Pwe(1e-3)).unwrap();
        // Header: magic(4) mode(1) precision(1) param(8), then dims 3×u32.
        for (i, d) in [1024u32, 1024, 4095].into_iter().enumerate() {
            stream[14 + 4 * i..18 + 4 * i].copy_from_slice(&d.to_le_bytes());
        }
        let err = ZfpLike::default().decompress(&stream).unwrap_err();
        assert!(matches!(err, CompressError::Corrupt(_)), "{err:?}");
        // Every single-bit flip of the dims decodes or errors — never
        // aborts (this test binary would die with it).
        let clean = ZfpLike::default().compress(&field, Bound::Pwe(1e-3)).unwrap();
        for bit in 14 * 8..26 * 8 {
            let mut bad = clean.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let _ = ZfpLike::default().decompress(&bad);
        }
    }

    #[test]
    fn kmin_scales_with_tolerance() {
        // Tighter tolerance -> lower kmin (more planes).
        assert!(kmin_for(0, 1e-6) < kmin_for(0, 1e-2));
        // Bigger data -> higher emax -> lower kmin for same tolerance.
        assert!(kmin_for(10, 1e-3) < kmin_for(0, 1e-3));
    }
}
