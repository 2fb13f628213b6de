//! The per-chunk SPERR pipeline: transform → SPECK → outlier detection →
//! outlier coding (compression) and the mirror image (decompression).
//!
//! Each stage comes in two flavours: the classic allocating entry points
//! (`compress_chunk_pwe`, `decompress_chunk`, …) kept for API
//! compatibility and tests, and the hot-path `_with` variants that take a
//! [`WorkerPool`] plus a reusable [`ScratchArena`] so that compressing a
//! stream of chunks performs no per-chunk allocations and can fan the
//! elementwise and wavelet work out across the pool.
//!
//! # Determinism
//!
//! The parallel sweeps split work into *fixed-size* blocks
//! ([`ELEM_BLOCK`]) independent of the thread count, and reduce block
//! results in block order. Outlier lists and error accumulators — and
//! therefore the compressed bytes — are identical for any `--threads`
//! value, and identical to the serial reference path.

use crate::pool::WorkerPool;
use crate::stats::{stage_labels, StageTimes};
use sperr_compress_api::CompressError;
use sperr_outlier::Outlier;
use sperr_simd::Float;
use sperr_speck::Termination;
use sperr_telemetry::timed;
use sperr_wavelet::{
    forward_3d_with, inverse_3d_with, levels_for_dims, Kernel, TransformScratch,
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
    /// Records the footprint of the arena the stream's width used.
    pub(crate) fn record_footprint(&self, native_f32: bool) {
        if native_f32 {
            self.narrow.record_footprint();
        } else {
            self.wide.record_footprint();
        }
    }
}

/// Fills `coeffs` with a copy of `data` (the transform is in-place and
/// must not clobber the caller's input), reusing capacity. Part of the
/// wavelet stage's timed region, hence free-standing rather than a method
/// (the arena is already destructured at the call sites).
fn load_coeffs<T: Float>(coeffs: &mut Vec<T>, data: &[T]) {
    coeffs.clear();
    coeffs.extend_from_slice(data);
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

/// Raw-pointer wrapper for disjoint block writes from pool jobs. The
/// method (not field) access makes closures capture the `Sync` wrapper.
struct BlockPtr<T>(*mut T);
unsafe impl<T: Send> Send for BlockPtr<T> {}
unsafe impl<T: Send> Sync for BlockPtr<T> {}
impl<T> BlockPtr<T> {
    /// # Safety
    ///
    /// Caller guarantees `start..start + len` is in bounds and disjoint
    /// from every other concurrently accessed block.
    unsafe fn block(&self, start: usize, len: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// Mid-riser reconstruction of `coeffs` into `out` (same length), block-
/// parallel over the pool. Bit-identical to the serial sweep.
fn reconstruct_blocks<T: Float>(coeffs: &[T], q: f64, out: &mut [T], pool: &WorkerPool) {
    let len = coeffs.len();
    debug_assert_eq!(len, out.len());
    let n_blocks = len.div_ceil(ELEM_BLOCK).max(1);
    let dst = BlockPtr(out.as_mut_ptr());
    pool.run(n_blocks, &|b, _| {
        let start = b * ELEM_BLOCK;
        let n = ELEM_BLOCK.min(len - start);
        // SAFETY: blocks are disjoint and in bounds.
        let dst = unsafe { dst.block(start, n) };
        sperr_speck::reconstruct_quantized_into(&coeffs[start..start + n], q, dst);
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
) -> ChunkEncoding {
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
/// `arena`. Output is bit-identical to [`compress_chunk_pwe`].
pub fn compress_chunk_pwe_with<T: Float>(
    data: &[T],
    dims: [usize; 3],
    t: f64,
    q_factor: f64,
    kernel: Kernel,
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> ChunkEncoding {
    assert!(t > 0.0 && t.is_finite(), "PWE tolerance must be positive");
    assert!(q_factor > 0.0, "q factor must be positive");
    let levels = levels_for_dims(dims);
    let q = q_factor * t;

    let ScratchArena { coeffs, recon, wavelet } = arena;

    // Stage 1: forward wavelet transform.
    crate::faultpoint::stage(stage_labels::WAVELET_FORWARD);
    let ((), wavelet_time) = timed(stage_labels::WAVELET_FORWARD, || {
        load_coeffs(coeffs, data);
        forward_3d_with(coeffs, dims, levels, kernel, pool, wavelet);
    });

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

    ChunkEncoding {
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
    }
}

/// Number of bitplanes below the maximum coefficient magnitude that the
/// size-bounded mode makes addressable. 48 planes put the floor far below
/// any practical bit budget.
const BPP_MODE_PLANES: i32 = 48;

/// Size-bounded compression of one chunk: SPECK's embedded stream is cut
/// at `budget_bits`; no error guarantee, no outlier pass (§III-B: "the
/// encoding process can terminate whenever a user-prescribed output size
/// is reached"). Allocating wrapper around [`compress_chunk_bpp_with`].
pub fn compress_chunk_bpp<T: Float>(
    data: &[T],
    dims: [usize; 3],
    budget_bits: usize,
    kernel: Kernel,
) -> ChunkEncoding {
    compress_chunk_bpp_with(
        data,
        dims,
        budget_bits,
        kernel,
        &WorkerPool::inline(),
        &mut ScratchArena::new(),
    )
}

/// Hot-path size-bounded compression; see [`compress_chunk_bpp`].
pub fn compress_chunk_bpp_with<T: Float>(
    data: &[T],
    dims: [usize; 3],
    budget_bits: usize,
    kernel: Kernel,
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> ChunkEncoding {
    let levels = levels_for_dims(dims);
    let ScratchArena { coeffs, wavelet, .. } = arena;
    crate::faultpoint::stage(stage_labels::WAVELET_FORWARD);
    let ((), wavelet_time) = timed(stage_labels::WAVELET_FORWARD, || {
        load_coeffs(coeffs, data);
        forward_3d_with(coeffs, dims, levels, kernel, pool, wavelet);
    });

    let max_mag = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.to_f64().abs()));
    // Quantization floor well below the budget's reach; degenerate
    // all-zero chunks encode to an empty stream with any positive q.
    let q = if max_mag > 0.0 { max_mag * f64::exp2(-f64::from(BPP_MODE_PLANES)) } else { 1.0 };

    crate::faultpoint::stage(stage_labels::SPECK_ENCODE);
    let (enc, speck_time) = timed(stage_labels::SPECK_ENCODE, || {
        sperr_speck::encode(coeffs, dims, q, Termination::BitBudget(budget_bits))
    });

    ChunkEncoding {
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
    }
}

/// Average-error-targeted compression of one chunk (paper §VII: "the
/// property of roughly equal root-mean-square error between wavelet
/// coefficients and their inversely transformed reconstruction ...
/// enables ... compression targeting an average error"): SPECK runs at
/// `q = target_rmse`, whose mid-riser error (≤ q/2 per coded coefficient,
/// < q in the dead zone) keeps the reconstruction RMSE at or below the
/// target thanks to the transform's near-orthogonality. No outlier pass.
/// Allocating wrapper around [`compress_chunk_rmse_with`].
pub fn compress_chunk_rmse<T: Float>(
    data: &[T],
    dims: [usize; 3],
    target_rmse: f64,
    kernel: Kernel,
) -> ChunkEncoding {
    compress_chunk_rmse_with(
        data,
        dims,
        target_rmse,
        kernel,
        &WorkerPool::inline(),
        &mut ScratchArena::new(),
    )
}

/// Hot-path average-error compression; see [`compress_chunk_rmse`].
pub fn compress_chunk_rmse_with<T: Float>(
    data: &[T],
    dims: [usize; 3],
    target_rmse: f64,
    kernel: Kernel,
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> ChunkEncoding {
    assert!(target_rmse > 0.0 && target_rmse.is_finite());
    let levels = levels_for_dims(dims);
    let ScratchArena { coeffs, recon, wavelet } = arena;
    crate::faultpoint::stage(stage_labels::WAVELET_FORWARD);
    let ((), wavelet_time) = timed(stage_labels::WAVELET_FORWARD, || {
        load_coeffs(coeffs, data);
        forward_3d_with(coeffs, dims, levels, kernel, pool, wavelet);
    });

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

    ChunkEncoding {
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
    }
}

/// Multi-resolution decompression of one chunk (paper §VII: the wavelet
/// hierarchy "enables multi-level reconstruction that is useful in areas
/// such as explorative analysis"): decodes the coefficients, undoes all
/// but the finest `level` transform levels, and returns the coarse
/// approximation (re-scaled to physical units) together with its dims.
/// Outlier corrections are full-resolution data and do not apply to a
/// coarse reconstruction.
pub fn decompress_chunk_multires(
    speck_stream: &[u8],
    dims: [usize; 3],
    q: f64,
    num_planes: u8,
    level: usize,
    kernel: Kernel,
) -> Result<(Vec<f64>, [usize; 3]), CompressError> {
    let levels = levels_for_dims(dims);
    if levels.iter().any(|&l| l < level) {
        return Err(CompressError::Invalid(format!(
            "resolution level {level} exceeds the chunk's transform depth {levels:?}"
        )));
    }
    let mut coeffs: Vec<f64> = sperr_speck::decode(speck_stream, dims, q, num_planes)?;
    sperr_wavelet::inverse_3d_partial(&mut coeffs, dims, levels, level, kernel);
    let cdims = sperr_wavelet::coarse_dims(dims, levels, level);
    let scale = 1.0 / sperr_wavelet::coarse_scale(dims, levels, level);
    let mut out = Vec::with_capacity(cdims.iter().product());
    for z in 0..cdims[2] {
        for y in 0..cdims[1] {
            for x in 0..cdims[0] {
                out.push(coeffs[x + dims[0] * (y + dims[1] * z)] * scale);
            }
        }
    }
    Ok((out, cdims))
}

/// Decompresses one chunk. `tolerance` must be the compression-time `t`
/// for PWE streams (used to scale outlier thresholds); it is ignored when
/// the outlier stream is empty. Allocating compatibility wrapper around
/// [`decompress_chunk_with`].
#[allow(clippy::too_many_arguments)]
pub fn decompress_chunk<T: Float>(
    speck_stream: &[u8],
    outlier_stream: &[u8],
    dims: [usize; 3],
    q: f64,
    num_planes: u8,
    max_n: u8,
    tolerance: f64,
    kernel: Kernel,
) -> Result<Vec<T>, CompressError> {
    decompress_chunk_with(
        speck_stream,
        outlier_stream,
        dims,
        q,
        num_planes,
        max_n,
        tolerance,
        kernel,
        &WorkerPool::inline(),
        &mut ScratchArena::new(),
    )
    .map(|(data, _)| data)
}

/// Hot-path decompression: the inverse wavelet transform runs on `pool`
/// using `arena`'s panel scratch. Also reports per-stage wall times
/// (SPECK decode / wavelet / outlier correction) for `info --verbose`.
#[allow(clippy::too_many_arguments)]
pub fn decompress_chunk_with<T: Float>(
    speck_stream: &[u8],
    outlier_stream: &[u8],
    dims: [usize; 3],
    q: f64,
    num_planes: u8,
    max_n: u8,
    tolerance: f64,
    kernel: Kernel,
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> Result<(Vec<T>, StageTimes), CompressError> {
    decompress_chunk_inner(
        speck_stream,
        outlier_stream,
        dims,
        q,
        num_planes,
        max_n,
        tolerance,
        kernel,
        None,
        pool,
        arena,
    )
}

/// Region-of-interest variant of [`decompress_chunk_with`]: identical
/// pipeline, but outlier corrections landing outside the chunk-local
/// half-open box `keep_lo..keep_hi` are skipped. The wavelet transform is
/// global to the chunk, so the full chunk is still reconstructed — only
/// the sparse correction pass is scoped — and the kept box is
/// bit-identical to a full decode of the chunk (corrections are
/// point-local, Eq. 1). Used by [`crate::Sperr::decode_region`].
#[allow(clippy::too_many_arguments)]
pub fn decompress_chunk_region_with<T: Float>(
    speck_stream: &[u8],
    outlier_stream: &[u8],
    dims: [usize; 3],
    q: f64,
    num_planes: u8,
    max_n: u8,
    tolerance: f64,
    kernel: Kernel,
    keep_lo: [usize; 3],
    keep_hi: [usize; 3],
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> Result<(Vec<T>, StageTimes), CompressError> {
    decompress_chunk_inner(
        speck_stream,
        outlier_stream,
        dims,
        q,
        num_planes,
        max_n,
        tolerance,
        kernel,
        Some((keep_lo, keep_hi)),
        pool,
        arena,
    )
}

#[allow(clippy::too_many_arguments)]
fn decompress_chunk_inner<T: Float>(
    speck_stream: &[u8],
    outlier_stream: &[u8],
    dims: [usize; 3],
    q: f64,
    num_planes: u8,
    max_n: u8,
    tolerance: f64,
    kernel: Kernel,
    keep: Option<([usize; 3], [usize; 3])>,
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> Result<(Vec<T>, StageTimes), CompressError> {
    let levels = levels_for_dims(dims);
    crate::faultpoint::stage(stage_labels::SPECK_DECODE);
    let (decoded, speck_time) = timed(stage_labels::SPECK_DECODE, || {
        sperr_speck::decode(speck_stream, dims, q, num_planes)
    });
    let mut coeffs = decoded?;

    crate::faultpoint::stage(stage_labels::WAVELET_INVERSE);
    let ((), wavelet_time) = timed(stage_labels::WAVELET_INVERSE, || {
        inverse_3d_with(&mut coeffs, dims, levels, kernel, pool, &mut arena.wavelet);
    });

    crate::faultpoint::stage(stage_labels::OUTLIER_APPLY);
    let (applied, outlier_time) = timed(stage_labels::OUTLIER_APPLY, || {
        if !outlier_stream.is_empty() {
            if !(tolerance > 0.0) {
                return Err(CompressError::Corrupt(
                    "outlier stream present but tolerance missing".into(),
                ));
            }
            let corrections =
                sperr_outlier::decode(outlier_stream, coeffs.len(), tolerance, max_n)?;
            for c in corrections {
                if c.pos >= coeffs.len() {
                    return Err(CompressError::Corrupt("outlier position out of range".into()));
                }
                if let Some((lo, hi)) = keep {
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

    #[test]
    fn chunk_pwe_roundtrip_bounds_error() {
        let dims = [24usize, 16, 12];
        let data = test_data(dims);
        let t = 0.01;
        let enc = compress_chunk_pwe(&data, dims, t, 1.5, Kernel::Cdf97);
        let rec = decompress_chunk(
            &enc.speck_stream,
            &enc.outlier_stream,
            dims,
            enc.q,
            enc.num_planes,
            enc.max_n,
            t,
            Kernel::Cdf97,
        )
        .unwrap();
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() <= t, "{a} vs {b}");
        }
    }

    #[test]
    fn outliers_actually_corrected() {
        // With a large q factor SPECK alone violates t; the outlier pass
        // must fix every violation.
        let dims = [16usize, 16, 16];
        let data = test_data(dims);
        let t = 0.001;
        let enc = compress_chunk_pwe(&data, dims, t, 3.0, Kernel::Cdf97);
        assert!(enc.num_outliers > 0, "expected outliers at q = 3t");
        let rec = decompress_chunk(
            &enc.speck_stream,
            &enc.outlier_stream,
            dims,
            enc.q,
            enc.num_planes,
            enc.max_n,
            t,
            Kernel::Cdf97,
        )
        .unwrap();
        let max_err = data
            .iter()
            .zip(&rec)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_err <= t);
    }

    #[test]
    fn bpp_chunk_respects_budget() {
        let dims = [16usize, 16, 16];
        let data = test_data(dims);
        let budget = 4096usize; // 1 bpp
        let enc = compress_chunk_bpp(&data, dims, budget, Kernel::Cdf97);
        assert!(enc.speck_bits <= budget);
        let rec = decompress_chunk::<f64>(
            &enc.speck_stream,
            &[],
            dims,
            enc.q,
            enc.num_planes,
            0,
            0.0,
            Kernel::Cdf97,
        )
        .unwrap();
        assert_eq!(rec.len(), data.len());
    }

    #[test]
    fn all_zero_chunk() {
        let dims = [8usize, 8, 8];
        let data = vec![0.0; 512];
        let enc = compress_chunk_pwe(&data, dims, 0.1, 1.5, Kernel::Cdf97);
        assert!(enc.speck_stream.is_empty());
        assert_eq!(enc.num_outliers, 0);
        let rec = decompress_chunk::<f64>(
            &enc.speck_stream,
            &enc.outlier_stream,
            dims,
            enc.q,
            enc.num_planes,
            enc.max_n,
            0.1,
            Kernel::Cdf97,
        )
        .unwrap();
        assert_eq!(rec, data);
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
                let serial = compress_chunk_pwe(&data, dims, t, 1.5, Kernel::Cdf97);
                let pooled =
                    compress_chunk_pwe_with(&data, dims, t, 1.5, Kernel::Cdf97, pool, &mut arena);
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
            let enc = compress_chunk_pwe(&data, dims, t, q_factor, Kernel::Cdf97);
            let rec = decompress_chunk(
                &enc.speck_stream,
                &enc.outlier_stream,
                dims,
                enc.q,
                enc.num_planes,
                enc.max_n,
                t,
                Kernel::Cdf97,
            )
            .unwrap();
            let measured =
                data.iter().zip(&rec).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            assert_eq!(enc.max_err, measured, "t={t} q_factor={q_factor}");
            assert!(enc.max_err <= t);
        }
    }

    #[test]
    fn region_variant_matches_full_decode_inside_kept_box() {
        // Outliers outside the kept box are skipped; inside it the decode
        // must be bit-identical to the full chunk decode.
        let dims = [16usize, 12, 10];
        let data = test_data(dims);
        let t = 0.001;
        let enc = compress_chunk_pwe(&data, dims, t, 3.0, Kernel::Cdf97);
        assert!(enc.num_outliers > 0, "test needs outliers to be meaningful");
        let full = decompress_chunk::<f64>(
            &enc.speck_stream,
            &enc.outlier_stream,
            dims,
            enc.q,
            enc.num_planes,
            enc.max_n,
            t,
            Kernel::Cdf97,
        )
        .unwrap();
        let (lo, hi) = ([3usize, 0, 2], [9usize, 12, 7]);
        let mut arena = ScratchArena::<f64>::new();
        let (region, _) = decompress_chunk_region_with(
            &enc.speck_stream,
            &enc.outlier_stream,
            dims,
            enc.q,
            enc.num_planes,
            enc.max_n,
            t,
            Kernel::Cdf97,
            lo,
            hi,
            &WorkerPool::inline(),
            &mut arena,
        )
        .unwrap();
        for z in lo[2]..hi[2] {
            for y in lo[1]..hi[1] {
                for x in lo[0]..hi[0] {
                    let pos = x + dims[0] * (y + dims[1] * z);
                    assert_eq!(full[pos].to_bits(), region[pos].to_bits(), "at {x},{y},{z}");
                }
            }
        }
    }

    #[test]
    fn pooled_decompress_matches_serial() {
        let dims = [20usize, 14, 9];
        let data = test_data(dims);
        let t = 0.002;
        let enc = compress_chunk_pwe(&data, dims, t, 1.5, Kernel::Cdf97);
        let serial = decompress_chunk::<f64>(
            &enc.speck_stream,
            &enc.outlier_stream,
            dims,
            enc.q,
            enc.num_planes,
            enc.max_n,
            t,
            Kernel::Cdf97,
        )
        .unwrap();
        let mut arena = ScratchArena::new();
        WorkerPool::scoped(3, |pool| {
            let (pooled, times) = decompress_chunk_with(
                &enc.speck_stream,
                &enc.outlier_stream,
                dims,
                enc.q,
                enc.num_planes,
                enc.max_n,
                t,
                Kernel::Cdf97,
                pool,
                &mut arena,
            )
            .unwrap();
            assert_eq!(serial, pooled);
            assert!(times.speck + times.wavelet > std::time::Duration::ZERO);
        });
    }
}
