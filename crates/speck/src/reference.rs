//! The pre-overhaul SPECK encoder, kept verbatim as a differential
//! oracle (mirroring `wavelet::reference` for the lifting scheme), and
//! the decoder's oracle entry point, [`decode`].
//!
//! The encoder here does everything the slow, obviously-correct way:
//! one [`BitWriter::put_bit`] per output bit with a per-bit budget check,
//! a [`MaxPyramid::region_max`] query per significance test, and
//! take-and-rebuild LIS buckets. The production [`crate::encode`] must
//! emit **byte-identical** streams and identical bit-type counters for
//! every input — `sperr-conformance` and the crate's property tests
//! enforce this. Do not optimize this file; its value is being boring.

use crate::coder::{quantize_all, EncodedSpeck, Termination};
use crate::decoder::DecodeError;
use crate::pyramid::MaxPyramid;
use crate::set::SetS;
use sperr_bitstream::BitWriter;
use sperr_simd::Float;

/// Signals that the bit budget has been exhausted; unwinds the pass.
struct Stop;

struct Encoder<'a, const D: usize> {
    dims: [usize; D],
    k: &'a [u64],
    negative: &'a [bool],
    pyramid: &'a MaxPyramid<'a, u64, D>,
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
    }
}

/// Decodes exactly like [`crate::decode`] but always through the generic
/// cuboid front end, whatever the shape — on power-of-two cubes, where
/// [`crate::decode`] takes the Morton front end, the two must return
/// bit-identical reconstructions for every stream and every prefix of it.
/// Differential-oracle use only.
pub fn decode<T: Float, const D: usize>(
    stream: &[u8],
    dims: [usize; D],
    q: f64,
    num_planes: u8,
) -> Result<Vec<T>, DecodeError> {
    crate::decoder::decode_with(stream, dims, q, num_planes, false)
}
