//! The pre-overhaul SPECK encoder, kept verbatim as a differential
//! oracle (mirroring `wavelet::reference` for the lifting scheme), and a
//! decoder written the same way.
//!
//! Both do everything the slow, obviously-correct way, on the cuboid
//! sets themselves ([`SetS`]) and knowing nothing of layouts: one
//! [`BitWriter::put_bit`] / [`BitReader::get_bit`] per bit with a per-bit
//! budget check, a [`MaxPyramid::region_max`] query per significance
//! test, take-and-rebuild LIS buckets, a refinement pass per plane. The
//! production [`crate::encode`] must emit **byte-identical** streams and
//! identical bit-type counters for every input, and [`crate::decode`]
//! must return bit-identical values for every stream and every prefix of
//! one — `sperr-conformance` and the crate's property tests enforce
//! this. Do not optimize this file; its value is being boring.

use crate::coder::{quantize_all, EncodedSpeck, Termination};
use crate::decoder::{check_params, DecodeError};
use crate::pyramid::MaxPyramid;
use crate::set::SetS;
use sperr_bitstream::{BitReader, BitWriter};
use sperr_simd::Float;

/// Signals that the bit budget has been exhausted; unwinds the pass.
struct Stop;

struct Encoder<'a, const D: usize> {
    dims: [usize; D],
    k: &'a [u64],
    negative: &'a [bool],
    pyramid: &'a MaxPyramid<'a, D>,
    lis: Vec<Vec<SetS<D>>>,
    lsp: Vec<u32>,
    lsp_new: Vec<u32>,
    out: BitWriter,
    budget: usize,
    significance_bits: usize,
    sign_bits: usize,
    refinement_bits: usize,
}

impl<'a, const D: usize> Encoder<'a, D> {
    #[inline]
    fn emit(&mut self, bit: bool) -> Result<(), Stop> {
        if self.out.len_bits() >= self.budget {
            return Err(Stop);
        }
        self.out.put_bit(bit);
        Ok(())
    }

    fn push_lis(&mut self, set: SetS<D>) {
        let lvl = set.part_level as usize;
        if self.lis.len() <= lvl {
            self.lis.resize_with(lvl + 1, Vec::new);
        }
        self.lis[lvl].push(set);
    }

    fn sorting_pass(&mut self, n: u32) -> Result<(), Stop> {
        // Smallest sets first (paper, Listing 2: "in increasing order of
        // their sizes"): iterate buckets from the deepest partition level.
        for lvl in (0..self.lis.len()).rev() {
            let bucket = std::mem::take(&mut self.lis[lvl]);
            for set in bucket {
                self.process_s(set, n)?;
            }
        }
        Ok(())
    }

    fn process_s(&mut self, set: SetS<D>, n: u32) -> Result<(), Stop> {
        let max = if set.is_pixel() {
            self.k[set.pixel_index(self.dims)]
        } else {
            self.pyramid.region_max(set.origin, set.len)
        };
        let sig = (max >> n) != 0;
        self.emit(sig)?;
        self.significance_bits += 1;
        if sig {
            if set.is_pixel() {
                let idx = set.pixel_index(self.dims);
                self.emit(self.negative[idx])?;
                self.sign_bits += 1;
                self.lsp_new.push(idx as u32);
            } else {
                self.code_s(&set, n)?;
            }
            // Significant sets are consumed (not returned to the LIS).
        } else {
            self.push_lis(set);
        }
        Ok(())
    }

    fn code_s(&mut self, set: &SetS<D>, n: u32) -> Result<(), Stop> {
        let mut children = [*set; 8];
        let mut count = 0usize;
        set.split(|c| {
            children[count] = c;
            count += 1;
        });
        for child in children.iter().take(count) {
            self.process_s(*child, n)?;
        }
        Ok(())
    }

    fn refinement_pass(&mut self, n: u32) -> Result<(), Stop> {
        for i in 0..self.lsp.len() {
            let idx = self.lsp[i] as usize;
            let bit = (self.k[idx] >> n) & 1 == 1;
            self.emit(bit)?;
            self.refinement_bits += 1;
        }
        // Newly significant points join the LSP *after* the refinement pass
        // (their bit `n` is implied by the significance test itself).
        let new = std::mem::take(&mut self.lsp_new);
        self.lsp.extend(new);
        Ok(())
    }
}

/// Encodes `coeffs` exactly like [`crate::encode`], through the
/// pre-overhaul bit-at-a-time path. Differential-oracle use only.
pub fn encode<T: Float, const D: usize>(
    coeffs: &[T],
    dims: [usize; D],
    q: f64,
    term: Termination,
) -> EncodedSpeck {
    assert!(q > 0.0 && q.is_finite(), "quantization step must be positive");
    let n_total: usize = dims.iter().product();
    assert_eq!(coeffs.len(), n_total, "coeffs/dims mismatch");
    assert!(n_total as u64 <= u32::MAX as u64, "domain too large for u32 indices");

    let (k, negative) = quantize_all(coeffs, q);
    let pyramid = MaxPyramid::build(&k, dims);
    let max_k = pyramid.global_max();
    if max_k == 0 {
        return EncodedSpeck {
            stream: Vec::new(),
            num_planes: 0,
            bits_used: 0,
            significance_bits: 0,
            sign_bits: 0,
            refinement_bits: 0,
            sets_split: 0,
            zero_runs: 0,
            scratch: Default::default(),
        };
    }
    let num_planes = (64 - max_k.leading_zeros()) as u8;

    let budget = match term {
        Termination::Quality => usize::MAX,
        Termination::BitBudget(b) => b,
    };
    let mut enc = Encoder {
        dims,
        k: &k,
        negative: &negative,
        pyramid: &pyramid,
        lis: vec![vec![SetS::root(dims)]],
        lsp: Vec::new(),
        lsp_new: Vec::new(),
        out: BitWriter::with_capacity_bits(n_total / 2),
        budget,
        significance_bits: 0,
        sign_bits: 0,
        refinement_bits: 0,
    };

    'planes: for n in (0..num_planes as u32).rev() {
        if enc.sorting_pass(n).is_err() {
            break 'planes;
        }
        if enc.refinement_pass(n).is_err() {
            break 'planes;
        }
    }

    let bits_used = enc.out.len_bits();
    EncodedSpeck {
        significance_bits: enc.significance_bits,
        sign_bits: enc.sign_bits,
        refinement_bits: enc.refinement_bits,
        // Structural statistics are a production-path concern; the oracle
        // only compares streams and bit-type counters.
        sets_split: 0,
        zero_runs: 0,
        stream: enc.out.into_bytes(),
        num_planes,
        bits_used,
        scratch: Default::default(),
    }
}

/// A significant coefficient as the decoder knows it so far.
struct Found {
    idx: u32,
    negative: bool,
    /// The magnitude bits read so far.
    val: u64,
    /// The lowest plane whose bit is known; everything below is not.
    unc: u32,
}

struct Decoder<'a, const D: usize> {
    dims: [usize; D],
    input: BitReader<'a>,
    lis: Vec<Vec<SetS<D>>>,
    lsp: Vec<Found>,
    lsp_new: Vec<Found>,
}

impl<const D: usize> Decoder<'_, D> {
    fn read(&mut self) -> Result<bool, Stop> {
        self.input.get_bit().map_err(|_| Stop)
    }

    fn sorting_pass(&mut self, n: u32) -> Result<(), Stop> {
        for lvl in (0..self.lis.len()).rev() {
            let bucket = std::mem::take(&mut self.lis[lvl]);
            for set in bucket {
                self.process_s(set, n)?;
            }
        }
        Ok(())
    }

    fn process_s(&mut self, set: SetS<D>, n: u32) -> Result<(), Stop> {
        if !self.read()? {
            let lvl = set.part_level as usize;
            if self.lis.len() <= lvl {
                self.lis.resize_with(lvl + 1, Vec::new);
            }
            self.lis[lvl].push(set);
        } else if set.is_pixel() {
            // A pixel whose sign bit the stream no longer holds is dropped.
            let negative = self.read()?;
            let idx = set.pixel_index(self.dims) as u32;
            self.lsp_new.push(Found { idx, negative, val: 1u64 << n, unc: n });
        } else {
            let mut children = Vec::new();
            set.split(|c| children.push(c));
            for child in children {
                self.process_s(child, n)?;
            }
        }
        Ok(())
    }

    fn refinement_pass(&mut self, n: u32) -> Result<(), Stop> {
        for i in 0..self.lsp.len() {
            let bit = self.read()?;
            self.lsp[i].val |= (bit as u64) << n;
            self.lsp[i].unc = n;
        }
        Ok(())
    }
}

/// Decodes exactly like [`crate::decode`] — same parameter checks, same
/// treatment of a stream that ends anywhere, same mid-riser arithmetic —
/// through the bit-at-a-time cuboid walk. Differential-oracle use only.
pub fn decode<T: Float, const D: usize>(
    stream: &[u8],
    dims: [usize; D],
    q: f64,
    num_planes: u8,
) -> Result<Vec<T>, DecodeError> {
    let (n_total, coded) = check_params(dims, q, num_planes)?;
    let mut out = vec![T::ZERO; n_total];
    if !coded {
        return Ok(out);
    }
    let mut dec = Decoder {
        dims,
        input: BitReader::new(stream),
        lis: vec![vec![SetS::root(dims)]],
        lsp: Vec::new(),
        lsp_new: Vec::new(),
    };
    for n in (0..num_planes as u32).rev() {
        let stopped = dec.sorting_pass(n).is_err() || dec.refinement_pass(n).is_err();
        // Pixels found in a pass the stream ran out of still count, at
        // their discovery magnitude.
        dec.lsp.append(&mut dec.lsp_new);
        if stopped {
            break;
        }
    }
    // A coefficient whose bits below plane `unc` are unknown lies in
    // `[val·q, (val + 2^unc)·q)`: place it at the interval centre.
    let qt = T::from_f64(q);
    for p in &dec.lsp {
        let half = T::HALF * T::from_u64_lossy(1u64 << p.unc);
        let mag = (T::from_u64_lossy(p.val) + half) * qt;
        out[p.idx as usize] = if p.negative { -mag } else { mag };
    }
    Ok(out)
}
