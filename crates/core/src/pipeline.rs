//! The per-chunk SPERR pipeline: transform → SPECK → outlier detection →
//! outlier coding (compression) and the mirror image (decompression).
//!
//! The hot-path entry points take a [`WorkerPool`] plus a reusable
//! [`ScratchArena`] so that a stream of chunks performs no per-chunk
//! scratch allocations and can fan the elementwise and wavelet work out
//! across the pool. Compression has one `_with` function per termination
//! mode (plus the allocating [`compress_chunk_pwe`] the conformance oracle
//! calls); decompression is the single [`decode_chunk`], whatever the
//! read — full, region, preview or coarse.
//!
//! # Determinism
//!
//! The parallel sweeps split work into *fixed-size* blocks
//! ([`ELEM_BLOCK`]) independent of the thread count, and reduce block
//! results in block order. Outlier lists and error accumulators — and
//! therefore the compressed bytes — are identical for any `--threads`
//! value, and identical to the serial reference path.

use crate::pool::{Slots, WorkerPool};
use crate::stats::{stage_labels, StageTimes};
use sperr_compress_api::CompressError;
use sperr_outlier::Outlier;
use sperr_simd::Float;
use sperr_speck::Termination;
use sperr_telemetry::timed;
use sperr_wavelet::{
    coarse_dims, coarse_scale, forward_3d_with, inverse_3d_partial_with, inverse_3d_with,
    levels_for_dims, Kernel, Support, TransformScratch,
};

/// Block length (in samples) for parallel elementwise sweeps. Fixed — not
/// derived from the thread count — so that floating-point reduction order
/// and outlier-list order are identical for every `--threads` value.
const ELEM_BLOCK: usize = 1 << 16;

/// Reusable per-worker scratch for the `_with` pipeline entry points.
///
/// Holds the coefficient buffer, the reconstruction buffer and the wavelet
/// transform's panel/line scratch. Buffers grow to the largest chunk seen
/// and are never shrunk; a compressor keeps one arena per worker slot so
/// that a multi-gigabyte run allocates a bounded, chunk-count-independent
/// amount.
/// Generic over the sample type: the f32 pipeline keeps all of its
/// scratch at half width (the type parameter defaults to `f64` so
/// existing code is unaffected).
pub struct ScratchArena<T: Float = f64> {
    coeffs: Vec<T>,
    recon: Vec<T>,
    wavelet: TransformScratch<T>,
}

impl<T: Float> Default for ScratchArena<T> {
    fn default() -> Self {
        ScratchArena { coeffs: Vec::new(), recon: Vec::new(), wavelet: TransformScratch::new() }
    }
}

impl<T: Float> ScratchArena<T> {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently held by this arena's buffers, wavelet panel/line
    /// scratch included. Buffers never shrink, so after a run this *is*
    /// the arena's high-water mark.
    pub fn bytes(&self) -> usize {
        (self.coeffs.capacity() + self.recon.capacity()) * std::mem::size_of::<T>()
            + self.wavelet.bytes()
    }

    /// Records the current footprint into the width-matched memory
    /// histogram (whose max the exporters surface as the high-water
    /// mark). The drivers call this once per worker arena per run.
    pub(crate) fn record_footprint(&self) {
        let label = if std::mem::size_of::<T>() == 4 {
            crate::stats::metric_labels::MEM_ARENA_F32
        } else {
            crate::stats::metric_labels::MEM_ARENA_F64
        };
        sperr_telemetry::record_bytes(label, self.bytes() as u64);
    }
}

/// One worker's decode scratch at both sample widths, for the drivers
/// that learn a stream's width from its header (a stream decodes at one
/// width only, and an arena costs nothing until it is used).
#[derive(Default)]
pub(crate) struct DecodeArenas {
    pub(crate) wide: ScratchArena<f64>,
    pub(crate) narrow: ScratchArena<f32>,
}

impl DecodeArenas {
    /// Records the footprint of the arena(s) this worker decoded with.
    pub(crate) fn record_footprint(&self) {
        if self.narrow.bytes() > 0 {
            self.narrow.record_footprint();
        }
        if self.wide.bytes() > 0 {
            self.wide.record_footprint();
        }
    }
}

/// Samples per block of [`load_coeffs`]: the copy and the finiteness test
/// of one block both run while it sits in L1.
const LOAD_BLOCK: usize = 1024;

/// A sample that is not a finite number, refused before anything is
/// encoded. The error contract `max|x − x̂| ≤ t` is over finite reals; one
/// NaN would smear through the transform and decode as 0, one infinity
/// stalls the bitplane loop or sets a non-finite quantization step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFinite {
    /// Linear index of the sample: chunk-local from the chunk coders, of
    /// the whole volume once a compress driver has placed it.
    pub index: usize,
    /// The sample, widened to `f64`.
    pub value: f64,
}

impl From<NonFinite> for CompressError {
    fn from(bad: NonFinite) -> Self {
        CompressError::Invalid(format!(
            "sample at linear index {} is {}: only finite values can be compressed",
            bad.index, bad.value
        ))
    }
}

/// Fills `coeffs` with a copy of `data` (the transform is in-place and
/// must not clobber the caller's input), reusing capacity, and refuses the
/// first sample that is not finite — the copy is the one pass that reads
/// every sample, so the check rides it. Part of the wavelet stage's timed
/// region, hence free-standing rather than a method (the arena is already
/// destructured at the call sites).
fn load_coeffs<T: Float>(coeffs: &mut Vec<T>, data: &[T]) -> Result<(), NonFinite> {
    coeffs.clear();
    coeffs.reserve(data.len());
    for (b, block) in data.chunks(LOAD_BLOCK).enumerate() {
        coeffs.extend_from_slice(block);
        if !block.iter().fold(true, |finite, v| finite & v.is_finite()) {
            let at = block.iter().position(|v| !v.is_finite()).unwrap_or(0);
            return Err(NonFinite { index: b * LOAD_BLOCK + at, value: block[at].to_f64() });
        }
    }
    Ok(())
}

/// Everything produced by compressing one chunk.
#[derive(Debug, Clone)]
pub struct ChunkEncoding {
    /// SPECK coefficient bitstream.
    pub speck_stream: Vec<u8>,
    /// Outlier correction bitstream (empty in size-bounded mode or when no
    /// outliers were produced).
    pub outlier_stream: Vec<u8>,
    /// Finest quantization step used by SPECK (`q = q_factor · t` in PWE
    /// mode, derived from the coefficient range in BPP mode).
    pub q: f64,
    /// SPECK bitplane count (decoder input).
    pub num_planes: u8,
    /// Outlier coder starting exponent (decoder input).
    pub max_n: u8,
    /// Number of outliers corrected.
    pub num_outliers: u32,
    /// Exact SPECK bits before byte padding.
    pub speck_bits: usize,
    /// Exact outlier-coding bits before byte padding.
    pub outlier_bits: usize,
    /// Wall time per stage.
    pub times: StageTimes,
    /// Sum of squared reconstruction errors before outlier correction
    /// (space domain in PWE mode, wavelet domain otherwise; ~equal by
    /// near-orthogonality, §III-A).
    pub coeff_sq_error: f64,
    /// Exact post-correction max point-wise error of this chunk's decode
    /// (PWE mode: max of the in-tolerance residuals and the quantized
    /// outlier-correction residuals). NaN in BPP/RMSE modes, which don't
    /// reconstruct in the space domain at encode time. Recorded in the
    /// container-v3 chunk index.
    pub max_err: f64,
}

/// Mid-riser reconstruction of `coeffs` into `out` (same length), block-
/// parallel over the pool. Bit-identical to the serial sweep.
fn reconstruct_blocks<T: Float>(coeffs: &[T], q: f64, out: &mut [T], pool: &WorkerPool) {
    debug_assert_eq!(coeffs.len(), out.len());
    let blocks: Slots<&mut [T]> = out.chunks_mut(ELEM_BLOCK).collect();
    pool.run(coeffs.len().div_ceil(ELEM_BLOCK), &|b, _| {
        let start = b * ELEM_BLOCK;
        let dst = &mut *blocks.lock(b);
        sperr_speck::reconstruct_quantized_into(&coeffs[start..start + dst.len()], q, dst);
    });
}

/// Compares `data` with `recon` block-parallel, returning the outliers
/// (positions ascending), the total squared error, and the max residual
/// over the *in-tolerance* points (the part of the final max error that
/// outlier correction won't touch). Fixed blocks + block-order reduction
/// keep all three deterministic across thread counts (max is also
/// order-independent).
fn scan_outliers<T: Float>(
    data: &[T],
    recon: &[T],
    t: f64,
    pool: &WorkerPool,
) -> (Vec<Outlier>, f64, f64) {
    let len = data.len();
    let n_blocks = len.div_ceil(ELEM_BLOCK).max(1);
    let per_block = pool.map(n_blocks, |b, _| {
        let start = b * ELEM_BLOCK;
        let end = (start + ELEM_BLOCK).min(len);
        let mut sq = 0.0;
        let mut max_in_tol = 0.0f64;
        let mut found = Vec::new();
        for pos in start..end {
            // Residual in the native width, widened exactly for the (f64)
            // outlier coder — the f64 instantiation is unchanged.
            let corr = (data[pos] - recon[pos]).to_f64();
            sq += corr * corr;
            if corr.abs() > t {
                found.push(Outlier { pos, corr });
            } else {
                max_in_tol = max_in_tol.max(corr.abs());
            }
        }
        (found, sq, max_in_tol)
    });
    let mut outliers = Vec::new();
    let mut coeff_sq_error = 0.0;
    let mut max_in_tol = 0.0f64;
    for (found, sq, m) in per_block {
        outliers.extend(found);
        coeff_sq_error += sq;
        max_in_tol = max_in_tol.max(m);
    }
    (outliers, coeff_sq_error, max_in_tol)
}

/// PWE-bounded compression of one chunk (§IV): SPECK at `q = q_factor · t`
/// followed by outlier correction so every point lands within `t`.
/// Allocating compatibility wrapper around [`compress_chunk_pwe_with`].
pub fn compress_chunk_pwe<T: Float>(
    data: &[T],
    dims: [usize; 3],
    t: f64,
    q_factor: f64,
    kernel: Kernel,
) -> Result<ChunkEncoding, NonFinite> {
    compress_chunk_pwe_with(
        data,
        dims,
        t,
        q_factor,
        kernel,
        &WorkerPool::inline(),
        &mut ScratchArena::new(),
    )
}

/// Hot-path PWE compression: wavelet panels, the mid-riser reconstruction
/// and the outlier scan all run on `pool`; every buffer comes from
/// `arena`. Output is bit-identical to [`compress_chunk_pwe`]. A sample
/// that is not finite is refused (as are the other chunk coders').
pub fn compress_chunk_pwe_with<T: Float>(
    data: &[T],
    dims: [usize; 3],
    t: f64,
    q_factor: f64,
    kernel: Kernel,
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> Result<ChunkEncoding, NonFinite> {
    assert!(t > 0.0 && t.is_finite(), "PWE tolerance must be positive");
    assert!(q_factor > 0.0, "q factor must be positive");
    let levels = levels_for_dims(dims);
    let q = q_factor * t;

    let ScratchArena { coeffs, recon, wavelet } = arena;

    // Stage 1: forward wavelet transform.
    crate::faultpoint::stage(stage_labels::WAVELET_FORWARD);
    let (loaded, wavelet_time) = timed(stage_labels::WAVELET_FORWARD, || {
        load_coeffs(coeffs, data)?;
        forward_3d_with(coeffs, dims, levels, kernel, pool, wavelet);
        Ok(())
    });
    loaded?;

    // Stage 2: SPECK coding of coefficients, all planes down to q.
    crate::faultpoint::stage(stage_labels::SPECK_ENCODE);
    let (enc, speck_time) = timed(stage_labels::SPECK_ENCODE, || {
        sperr_speck::encode(coeffs, dims, q, Termination::Quality)
    });
    sperr_telemetry::counter!("speck.sets_split", enc.sets_split);
    sperr_telemetry::counter!("speck.zero_runs", enc.zero_runs);
    sperr_telemetry::counter!("speck.significance_bits", enc.significance_bits);
    sperr_telemetry::counter!("speck.sign_bits", enc.sign_bits);
    sperr_telemetry::counter!("speck.refinement_bits", enc.refinement_bits);

    // Stage 3: locate outliers — reconstruct (quantized coefficients +
    // inverse transform) and compare with the original input.
    crate::faultpoint::stage(stage_labels::OUTLIER_LOCATE);
    let ((outliers, coeff_sq_error, max_in_tol), locate_time) =
        timed(stage_labels::OUTLIER_LOCATE, || {
            recon.clear();
            recon.resize(coeffs.len(), T::ZERO);
            reconstruct_blocks(coeffs, q, recon, pool);
            inverse_3d_with(recon, dims, levels, kernel, pool, wavelet);
            scan_outliers(data, recon, t, pool)
        });
    sperr_telemetry::counter!("outlier.count", outliers.len());

    // Stage 4: encode the outliers.
    crate::faultpoint::stage(stage_labels::OUTLIER_ENCODE);
    let ((out_enc, max_err), outlier_time) = timed(stage_labels::OUTLIER_ENCODE, || {
        let out_enc = sperr_outlier::encode(&outliers, data.len(), t);
        // Exact post-correction max error for the v3 chunk index: the
        // in-tolerance residuals stay as-is, and the corrected points end
        // at the residual the *quantized* correction leaves behind —
        // measured by decoding the stream we just wrote (cheap: outliers
        // are sparse by construction).
        let mut max_err = max_in_tol;
        if !outliers.is_empty() {
            // Decode returns corrections in bit-plane discovery order, not
            // position order — sort before pairing with the scan output
            // (which is ascending by construction).
            let mut corrections =
                sperr_outlier::decode(&out_enc.stream, data.len(), t, out_enc.max_n)
                    .expect("freshly encoded outlier stream must decode");
            corrections.sort_by_key(|c| c.pos);
            debug_assert_eq!(corrections.len(), outliers.len());
            for (o, c) in outliers.iter().zip(&corrections) {
                debug_assert_eq!(o.pos, c.pos);
                max_err = max_err.max((o.corr - c.corr).abs());
            }
        }
        (out_enc, max_err)
    });
    sperr_telemetry::counter!("outlier.correction_bits", out_enc.bits_used);

    Ok(ChunkEncoding {
        speck_stream: enc.stream,
        outlier_stream: out_enc.stream,
        q,
        num_planes: enc.num_planes,
        max_n: out_enc.max_n,
        num_outliers: outliers.len() as u32,
        speck_bits: enc.bits_used,
        outlier_bits: out_enc.bits_used,
        times: StageTimes {
            wavelet: wavelet_time,
            speck: speck_time,
            locate_outliers: locate_time,
            outlier_coding: outlier_time,
            ..StageTimes::default()
        },
        coeff_sq_error,
        max_err,
    })
}

/// Number of bitplanes below the maximum coefficient magnitude that the
/// size-bounded mode makes addressable. 48 planes put the floor far below
/// any practical bit budget.
const BPP_MODE_PLANES: i32 = 48;

/// Size-bounded compression of one chunk: SPECK's embedded stream is cut
/// at `budget_bits`; no error guarantee, no outlier pass (§III-B: "the
/// encoding process can terminate whenever a user-prescribed output size
/// is reached").
pub fn compress_chunk_bpp_with<T: Float>(
    data: &[T],
    dims: [usize; 3],
    budget_bits: usize,
    kernel: Kernel,
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> Result<ChunkEncoding, NonFinite> {
    let levels = levels_for_dims(dims);
    let ScratchArena { coeffs, wavelet, .. } = arena;
    crate::faultpoint::stage(stage_labels::WAVELET_FORWARD);
    let (loaded, wavelet_time) = timed(stage_labels::WAVELET_FORWARD, || {
        load_coeffs(coeffs, data)?;
        forward_3d_with(coeffs, dims, levels, kernel, pool, wavelet);
        Ok(())
    });
    loaded?;

    let max_mag = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.to_f64().abs()));
    // Quantization floor well below the budget's reach; degenerate
    // all-zero chunks encode to an empty stream with any positive q.
    let q = if max_mag > 0.0 { max_mag * f64::exp2(-f64::from(BPP_MODE_PLANES)) } else { 1.0 };

    crate::faultpoint::stage(stage_labels::SPECK_ENCODE);
    let (enc, speck_time) = timed(stage_labels::SPECK_ENCODE, || {
        sperr_speck::encode(coeffs, dims, q, Termination::BitBudget(budget_bits))
    });

    Ok(ChunkEncoding {
        speck_stream: enc.stream,
        outlier_stream: Vec::new(),
        q,
        num_planes: enc.num_planes,
        max_n: 0,
        num_outliers: 0,
        speck_bits: enc.bits_used,
        outlier_bits: 0,
        times: StageTimes {
            wavelet: wavelet_time,
            speck: speck_time,
            ..StageTimes::default()
        },
        coeff_sq_error: 0.0, // budget truncation: not tracked
        max_err: f64::NAN,   // no space-domain reconstruction at encode time
    })
}

/// Average-error-targeted compression of one chunk (paper §VII: "the
/// property of roughly equal root-mean-square error between wavelet
/// coefficients and their inversely transformed reconstruction ...
/// enables ... compression targeting an average error"): SPECK runs at
/// `q = target_rmse`, whose mid-riser error (≤ q/2 per coded coefficient,
/// < q in the dead zone) keeps the reconstruction RMSE at or below the
/// target thanks to the transform's near-orthogonality. No outlier pass.
pub fn compress_chunk_rmse_with<T: Float>(
    data: &[T],
    dims: [usize; 3],
    target_rmse: f64,
    kernel: Kernel,
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> Result<ChunkEncoding, NonFinite> {
    assert!(target_rmse > 0.0 && target_rmse.is_finite());
    let levels = levels_for_dims(dims);
    let ScratchArena { coeffs, recon, wavelet } = arena;
    crate::faultpoint::stage(stage_labels::WAVELET_FORWARD);
    let (loaded, wavelet_time) = timed(stage_labels::WAVELET_FORWARD, || {
        load_coeffs(coeffs, data)?;
        forward_3d_with(coeffs, dims, levels, kernel, pool, wavelet);
        Ok(())
    });
    loaded?;

    let q = target_rmse;
    crate::faultpoint::stage(stage_labels::SPECK_ENCODE);
    let (enc, speck_time) = timed(stage_labels::SPECK_ENCODE, || {
        sperr_speck::encode(coeffs, dims, q, Termination::Quality)
    });

    // Wavelet-domain quantization error ~ reconstruction error (§III-A).
    recon.clear();
    recon.resize(coeffs.len(), T::ZERO);
    reconstruct_blocks(coeffs, q, recon, pool);
    let coeff_sq_error: f64 = {
        // Same fixed-block reduction order as the outlier scan.
        let len = coeffs.len();
        let n_blocks = len.div_ceil(ELEM_BLOCK).max(1);
        pool.map(n_blocks, |b, _| {
            let start = b * ELEM_BLOCK;
            let end = (start + ELEM_BLOCK).min(len);
            let mut sq = 0.0;
            for i in start..end {
                let d = (coeffs[i] - recon[i]).to_f64();
                sq += d * d;
            }
            sq
        })
        .into_iter()
        .sum()
    };

    Ok(ChunkEncoding {
        speck_stream: enc.stream,
        outlier_stream: Vec::new(),
        q,
        num_planes: enc.num_planes,
        max_n: 0,
        num_outliers: 0,
        speck_bits: enc.bits_used,
        outlier_bits: 0,
        times: StageTimes { wavelet: wavelet_time, speck: speck_time, ..StageTimes::default() },
        coeff_sq_error,
        max_err: f64::NAN, // tracked in the wavelet domain only
    })
}

/// One chunk's decode, as the container's chunk table and the read at
/// hand describe it.
pub(crate) struct ChunkJob<'a> {
    /// The SPECK stream, or the prefix of it a preview keeps (truncation
    /// is the embedded-coding contract, not corruption).
    pub speck: &'a [u8],
    /// The outlier stream; empty when there are no corrections or the read
    /// does not apply them (previews, coarse levels).
    pub outliers: &'a [u8],
    /// Chunk extent.
    pub dims: [usize; 3],
    /// SPECK's finest quantization step.
    pub q: f64,
    /// SPECK bitplane count.
    pub num_planes: u8,
    /// Outlier coder starting exponent.
    pub max_n: u8,
    /// The compression-time PWE tolerance (scales the outlier thresholds);
    /// ignored when `outliers` is empty.
    pub tolerance: f64,
    /// Wavelet kernel.
    pub kernel: Kernel,
    /// Chunk-local half-open box outside which outlier corrections are
    /// skipped (a region read keeps nothing else); `None` keeps them all.
    pub keep: Option<([usize; 3], [usize; 3])>,
    /// Finest transform levels left undone: 0 reconstructs the chunk, `l`
    /// its `1/2^l`-resolution approximation (paper §VII: the wavelet
    /// hierarchy "enables multi-level reconstruction that is useful in
    /// areas such as explorative analysis"). The caller has checked that
    /// the chunk has that many levels on every axis.
    pub level: usize,
}

/// Decompresses one chunk: SPECK decode, inverse wavelet transform on
/// `pool` with `arena`'s panel scratch, outlier corrections. Also reports
/// per-stage wall times for `info --verbose`.
///
/// The read decodes what it returns and no more: the [`Support`] of the
/// kept box — `keep`, or at `level > 0` the coarse corner — names the
/// coefficients SPECK assembles and the lines each inverse step lifts.
/// Inside that box the result is bit-identical to the same samples of a
/// full decode (the support is exact, corrections are point-local, Eq. 1);
/// outside it the buffer holds whatever the restricted inverse left, and
/// corrections are skipped. A box whose support is the whole chunk takes
/// the full read. At `level > 0` the returned buffer still has the chunk's
/// full extent, with the coarse approximation, re-scaled to physical
/// units, in its `[0, coarse_dims)` corner.
pub(crate) fn decode_chunk<T: Float>(
    job: &ChunkJob<'_>,
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> Result<(Vec<T>, StageTimes), CompressError> {
    let dims = job.dims;
    let levels = levels_for_dims(dims);
    let keep = if job.level > 0 { None } else { job.keep };
    let support = Support::new(dims, levels, job.level, keep);
    crate::faultpoint::stage(stage_labels::SPECK_DECODE);
    let (decoded, speck_time) = timed(stage_labels::SPECK_DECODE, || {
        if support.is_everything() {
            return sperr_speck::decode(job.speck, dims, job.q, job.num_planes);
        }
        let bitmap = support.keep_bitmap().map_err(|_| {
            sperr_speck::DecodeError::LimitExceeded("no memory for the region's keep bitmap")
        })?;
        sperr_speck::decode_masked(job.speck, dims, job.q, job.num_planes, &bitmap)
    });
    let mut coeffs: Vec<T> = decoded?;

    crate::faultpoint::stage(stage_labels::WAVELET_INVERSE);
    let ((), wavelet_time) = timed(stage_labels::WAVELET_INVERSE, || {
        inverse_3d_partial_with(&mut coeffs, &support, job.kernel, pool, &mut arena.wavelet);
        if job.level > 0 {
            // The approximation band carries the kernel's DC gain.
            let cdims = coarse_dims(dims, levels, job.level);
            let scale = 1.0 / coarse_scale(dims, levels, job.level);
            for z in 0..cdims[2] {
                for y in 0..cdims[1] {
                    let row = dims[0] * (y + dims[1] * z);
                    for c in &mut coeffs[row..row + cdims[0]] {
                        *c = T::from_f64(c.to_f64() * scale);
                    }
                }
            }
        }
    });

    crate::faultpoint::stage(stage_labels::OUTLIER_APPLY);
    let (applied, outlier_time) = timed(stage_labels::OUTLIER_APPLY, || {
        if !job.outliers.is_empty() {
            if !(job.tolerance > 0.0) {
                return Err(CompressError::Corrupt(
                    "outlier stream present but tolerance missing".into(),
                ));
            }
            let corrections =
                sperr_outlier::decode(job.outliers, coeffs.len(), job.tolerance, job.max_n)?;
            for c in corrections {
                if c.pos >= coeffs.len() {
                    return Err(CompressError::Corrupt("outlier position out of range".into()));
                }
                if let Some((lo, hi)) = job.keep {
                    let x = c.pos % dims[0];
                    let y = (c.pos / dims[0]) % dims[1];
                    let z = c.pos / (dims[0] * dims[1]);
                    if x < lo[0] || x >= hi[0] || y < lo[1] || y >= hi[1] || z < lo[2] || z >= hi[2]
                    {
                        continue;
                    }
                }
                // z = x̃ + corr (Eq. 1), applied in f64 and narrowed once
                // so the f32 path pays a single rounding (exact for f64).
                coeffs[c.pos] = T::from_f64(coeffs[c.pos].to_f64() + c.corr);
            }
        }
        Ok(())
    });
    applied?;

    let times = StageTimes {
        wavelet: wavelet_time,
        speck: speck_time,
        outlier_coding: outlier_time,
        ..StageTimes::default()
    };
    Ok((coeffs, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_data(dims: [usize; 3]) -> Vec<f64> {
        (0..dims.iter().product())
            .map(|i| (i as f64 * 0.213).sin() * 12.0 + (i as f64 * 0.0071).cos() * 3.0)
            .collect()
    }

    /// The full-resolution job for everything `enc` holds.
    fn job<'a>(enc: &'a ChunkEncoding, dims: [usize; 3], t: f64) -> ChunkJob<'a> {
        ChunkJob {
            speck: &enc.speck_stream,
            outliers: &enc.outlier_stream,
            dims,
            q: enc.q,
            num_planes: enc.num_planes,
            max_n: enc.max_n,
            tolerance: t,
            kernel: Kernel::Cdf97,
            keep: None,
            level: 0,
        }
    }

    fn decode(job: &ChunkJob<'_>) -> Vec<f64> {
        decode_chunk(job, &WorkerPool::inline(), &mut ScratchArena::new()).unwrap().0
    }

    fn compress_bpp(data: &[f64], dims: [usize; 3], budget_bits: usize) -> ChunkEncoding {
        let (pool, mut arena) = (WorkerPool::inline(), ScratchArena::new());
        compress_chunk_bpp_with(data, dims, budget_bits, Kernel::Cdf97, &pool, &mut arena).unwrap()
    }

    #[test]
    fn chunk_pwe_roundtrip_bounds_error() {
        let dims = [24usize, 16, 12];
        let data = test_data(dims);
        let t = 0.01;
        let enc = compress_chunk_pwe(&data, dims, t, 1.5, Kernel::Cdf97).unwrap();
        for (a, b) in data.iter().zip(&decode(&job(&enc, dims, t))) {
            assert!((a - b).abs() <= t, "{a} vs {b}");
        }
    }

    #[test]
    fn every_coder_refuses_the_first_non_finite_sample() {
        let dims = [24usize, 16, 12];
        let (pool, mut arena) = (WorkerPool::inline(), ScratchArena::new());
        let cases = [(0, f64::NAN), (1023, f64::INFINITY), (1024, f64::NEG_INFINITY), (4607, f64::NAN)];
        for (at, bad) in cases {
            let mut data = test_data(dims);
            data[at] = bad;
            data[4607.min(at + 100)] = f64::NAN; // a later one is not the one named
            let k = Kernel::Cdf97;
            let refusals = [
                compress_chunk_pwe_with(&data, dims, 0.01, 1.5, k, &pool, &mut arena).err(),
                compress_chunk_bpp_with(&data, dims, 4096, k, &pool, &mut arena).err(),
                compress_chunk_rmse_with(&data, dims, 0.01, k, &pool, &mut arena).err(),
            ];
            for refused in refusals {
                let refused = refused.expect("non-finite sample accepted");
                assert_eq!(refused.index, at);
                assert_eq!(refused.value.to_bits(), bad.to_bits());
            }
        }
    }

    #[test]
    fn outliers_actually_corrected() {
        // With a large q factor SPECK alone violates t; the outlier pass
        // must fix every violation.
        let dims = [16usize, 16, 16];
        let data = test_data(dims);
        let t = 0.001;
        let enc = compress_chunk_pwe(&data, dims, t, 3.0, Kernel::Cdf97).unwrap();
        assert!(enc.num_outliers > 0, "expected outliers at q = 3t");
        let rec = decode(&job(&enc, dims, t));
        let max_err = data.iter().zip(&rec).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(max_err <= t);
    }

    #[test]
    fn bpp_chunk_respects_budget() {
        let dims = [16usize, 16, 16];
        let data = test_data(dims);
        let budget = 4096usize; // 1 bpp
        let enc = compress_bpp(&data, dims, budget);
        assert!(enc.speck_bits <= budget);
        assert_eq!(decode(&job(&enc, dims, 0.0)).len(), data.len());
    }

    #[test]
    fn all_zero_chunk() {
        let dims = [8usize, 8, 8];
        let data = vec![0.0; 512];
        let enc = compress_chunk_pwe(&data, dims, 0.1, 1.5, Kernel::Cdf97).unwrap();
        assert!(enc.speck_stream.is_empty());
        assert_eq!(enc.num_outliers, 0);
        assert_eq!(decode(&job(&enc, dims, 0.1)), data);
    }

    #[test]
    fn pooled_pwe_matches_serial_bit_for_bit() {
        // The `_with` path on a real multi-worker pool must produce the
        // exact bytes of the allocating serial path — for every stream and
        // for an arena reused across differently-sized chunks.
        let t = 0.004;
        let mut arena = ScratchArena::new();
        WorkerPool::scoped(4, |pool| {
            for dims in [[24usize, 16, 12], [16, 16, 16], [7, 5, 3]] {
                let data = test_data(dims);
                let serial = compress_chunk_pwe(&data, dims, t, 1.5, Kernel::Cdf97).unwrap();
                let pooled =
                    compress_chunk_pwe_with(&data, dims, t, 1.5, Kernel::Cdf97, pool, &mut arena)
                        .unwrap();
                assert_eq!(serial.speck_stream, pooled.speck_stream, "dims {dims:?}");
                assert_eq!(serial.outlier_stream, pooled.outlier_stream, "dims {dims:?}");
                assert_eq!(serial.num_outliers, pooled.num_outliers);
                assert_eq!(serial.q, pooled.q);
                assert_eq!(serial.coeff_sq_error, pooled.coeff_sq_error, "fp order changed");
            }
        });
    }

    #[test]
    fn recorded_max_err_is_exact() {
        // The ChunkEncoding's max_err must equal the max point-wise error
        // actually measured after a full decode — both with and without
        // outliers in play.
        let dims = [16usize, 16, 16];
        let data = test_data(dims);
        for (t, q_factor) in [(0.01, 1.5), (0.001, 3.0)] {
            let enc = compress_chunk_pwe(&data, dims, t, q_factor, Kernel::Cdf97).unwrap();
            let rec = decode(&job(&enc, dims, t));
            let measured =
                data.iter().zip(&rec).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            assert_eq!(enc.max_err, measured, "t={t} q_factor={q_factor}");
            assert!(enc.max_err <= t);
        }
    }

    #[test]
    fn keep_box_matches_full_decode_inside_it() {
        // Outliers outside the kept box are skipped; inside it the decode
        // must be bit-identical to the full chunk decode.
        let dims = [16usize, 12, 10];
        let data = test_data(dims);
        let t = 0.001;
        let enc = compress_chunk_pwe(&data, dims, t, 3.0, Kernel::Cdf97).unwrap();
        assert!(enc.num_outliers > 0, "test needs outliers to be meaningful");
        let full = decode(&job(&enc, dims, t));
        let (lo, hi) = ([3usize, 0, 2], [9usize, 12, 7]);
        let region = decode(&ChunkJob { keep: Some((lo, hi)), ..job(&enc, dims, t) });
        for z in lo[2]..hi[2] {
            for y in lo[1]..hi[1] {
                for x in lo[0]..hi[0] {
                    let pos = x + dims[0] * (y + dims[1] * z);
                    assert_eq!(full[pos].to_bits(), region[pos].to_bits(), "at {x},{y},{z}");
                }
            }
        }
        assert_ne!(full, region, "no correction fell outside the box");
    }

    #[test]
    fn coarse_level_is_the_rescaled_partial_inverse() {
        // Level l leaves the finest l transform levels undone and divides
        // the approximation corner by the kernel's DC gain, nothing else.
        let dims = [24usize, 16, 12];
        let data = test_data(dims);
        let enc = compress_chunk_pwe(&data, dims, 0.01, 1.5, Kernel::Cdf97).unwrap();
        let levels = levels_for_dims(dims);
        for level in 1..=2 {
            let coarse = decode(&ChunkJob { outliers: &[], level, ..job(&enc, dims, 0.01) });
            let mut want: Vec<f64> =
                sperr_speck::decode(&enc.speck_stream, dims, enc.q, enc.num_planes).unwrap();
            sperr_wavelet::inverse_3d_partial(&mut want, dims, levels, level, Kernel::Cdf97);
            let cdims = coarse_dims(dims, levels, level);
            let scale = 1.0 / coarse_scale(dims, levels, level);
            for z in 0..cdims[2] {
                for y in 0..cdims[1] {
                    for x in 0..cdims[0] {
                        let pos = x + dims[0] * (y + dims[1] * z);
                        assert_eq!(coarse[pos].to_bits(), (want[pos] * scale).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_decompress_matches_serial() {
        let dims = [20usize, 14, 9];
        let data = test_data(dims);
        let t = 0.002;
        let enc = compress_chunk_pwe(&data, dims, t, 1.5, Kernel::Cdf97).unwrap();
        let serial = decode(&job(&enc, dims, t));
        let mut arena = ScratchArena::new();
        WorkerPool::scoped(3, |pool| {
            let (pooled, times) = decode_chunk(&job(&enc, dims, t), pool, &mut arena).unwrap();
            assert_eq!(serial, pooled);
            assert!(times.speck + times.wavelet > std::time::Duration::ZERO);
        });
    }
}
