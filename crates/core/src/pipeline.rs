//! The per-chunk SPERR compressor: transform → SPECK → outlier detection →
//! outlier coding (§IV), one [`compress_chunk`] for every termination mode.
//! Its mirror image, the chunk decode, belongs to the decode plan
//! ([`crate::decode`]).
//!
//! The coder reads its chunk's rows straight out of the volume (in memory:
//! the field; streaming: one z-slab) into the worker's [`ScratchArena`],
//! the only chunk-sized float buffer of a compress. The forward transform,
//! SPECK, the mid-riser reconstruction and the inverse transform of the
//! outlier locate all run in place there, and the outlier scan compares
//! against the volume's rows. The elementwise sweeps and the wavelet
//! panels run on the [`WorkerPool`], and so does SPECK's first phase;
//! when the pool has a worker to spare, the outlier locate and encode run
//! beside SPECK's sorting passes.
//!
//! # Determinism
//!
//! The parallel sweeps split work into *fixed-size* blocks
//! ([`ELEM_BLOCK`]) independent of the thread count, and reduce block
//! results in block order. Outlier lists and error accumulators — and
//! therefore the compressed bytes — are identical for any `--threads`
//! value, and identical to the serial reference path.

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::chunk::ChunkSpec;
use crate::faultpoint::Caught;
use crate::stats::{stage_labels, StageTimes};
use sperr_compress_api::CompressError;
use sperr_exec::{lock_ignore_poison, Slots, WorkerPool};
use std::sync::Mutex;
use sperr_outlier::Outlier;
use sperr_simd::Float;
use sperr_speck::Termination;
use sperr_telemetry::timed;
use sperr_wavelet::{forward_3d_with, inverse_3d_with, levels_for_dims, Kernel, TransformScratch};

/// Block length (in samples) for parallel elementwise sweeps. Fixed — not
/// derived from the thread count — so that floating-point reduction order
/// and outlier-list order are identical for every `--threads` value.
const ELEM_BLOCK: usize = 1 << 16;

/// Samples per L1-sized block: the load copies and checks one block of a
/// row at a time.
const L1_BLOCK: usize = 1024;

/// Reusable per-worker scratch — one chunk's working set: the coefficient
/// buffer, the wavelet transform's panel/line scratch, SPECK's
/// ([`sperr_speck::Scratch`]: its phase-1 levels and magnitudes,
/// its found list and buckets, a buffer for the next SPECK stream, and
/// the same per code block), the outlier locate's lists and coder's
/// scratch ([`sperr_outlier::EncodeScratch`]), and the decode's code-block
/// buffers.
/// Buffers grow to the largest chunk seen and are never shrunk; a driver
/// keeps one arena per worker slot so that a multi-gigabyte run allocates
/// a bounded, chunk-count-independent amount, and a [`crate::Sperr`]
/// keeps its drivers' arenas between calls. Generic over the sample type:
/// the f32 pipeline keeps its float scratch at half width (the type
/// parameter defaults to `f64`).
pub struct ScratchArena<T: Float = f64> {
    pub(crate) coeffs: Vec<T>,
    pub(crate) wavelet: TransformScratch<T>,
    pub(crate) speck: sperr_speck::Scratch,
    pub(crate) outliers: OutlierScratch,
    /// Per worker slot of the pool a chunk decodes on, the buffer one of
    /// its code blocks assembles into before its rows go to the chunk.
    pub(crate) blocks: Vec<Vec<T>>,
}

/// The outlier locate's and coder's share of an arena.
#[derive(Default)]
pub(crate) struct OutlierScratch {
    /// Per [`ELEM_BLOCK`] of the scan, the outliers it found.
    found: Vec<Vec<Outlier>>,
    /// All of them, in position order.
    list: Vec<Outlier>,
    pub(crate) coder: sperr_outlier::EncodeScratch,
}

impl OutlierScratch {
    fn bytes(&self) -> usize {
        let lists = self.found.iter().chain([&self.list]).map(Vec::capacity).sum::<usize>();
        lists * std::mem::size_of::<Outlier>() + self.coder.bytes()
    }
}

impl<T: Float> Default for ScratchArena<T> {
    fn default() -> Self {
        ScratchArena {
            coeffs: Vec::new(),
            wavelet: TransformScratch::new(),
            speck: sperr_speck::Scratch::default(),
            outliers: OutlierScratch::default(),
            blocks: Vec::new(),
        }
    }
}

impl<T: Float> ScratchArena<T> {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently held by this arena's buffers, the wavelet's, SPECK's
    /// and the outlier coder's scratch included. Buffers never shrink, so after a run this *is*
    /// the arena's high-water mark.
    pub fn bytes(&self) -> usize {
        let blocks = self.blocks.iter().map(Vec::capacity).sum::<usize>();
        (self.coeffs.capacity() + blocks) * std::mem::size_of::<T>()
            + self.wavelet.bytes()
            + self.speck.bytes()
            + self.outliers.bytes()
    }
}

/// Why a chunk coder refused its chunk; nothing of it is encoded. The
/// contract `max|x − x̂| ≤ t` is over finite reals, and every stage after
/// the load assumes finite numbers: one NaN smears through the transform
/// and decodes as 0, one infinity stalls the outlier coder's exponent
/// search or sets a non-finite quantization step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Refusal {
    /// A sample that is not a finite number.
    NonFinite {
        /// Linear index of the sample in the volume the coder read — of
        /// the whole volume once a compress driver has placed its slab.
        index: usize,
        /// The sample, widened to `f64`.
        value: f64,
    },
    /// Finite samples whose wavelet coefficients, or whose reconstruction
    /// in the outlier locate, are not finite at the sample width: values
    /// within a small factor of the type's largest finite value.
    Overflow,
    /// A bound whose quantization step is not a finite normal number of
    /// the sample width: a PWE tolerance or RMSE target so small that the
    /// step rounds to zero or that SPECK's `1/q` overflows, or so large that
    /// the step does.
    Step {
        /// The step the bound set.
        q: f64,
    },
}

impl Refusal {
    /// The typed error a compress driver returns for this refusal of chunk
    /// `chunk` (named by an [`Refusal::Overflow`] error; a non-finite
    /// sample is named by its index instead).
    pub fn into_error(self, chunk: usize) -> CompressError {
        match self {
            Refusal::NonFinite { index, value } => CompressError::Invalid(format!(
                "sample at linear index {index} is {value}: only finite values can be compressed"
            )),
            Refusal::Overflow => CompressError::Invalid(format!(
                "chunk {chunk}: its wavelet transform overflows (samples too close to the \
                 largest finite value); nothing was encoded"
            )),
            Refusal::Step { q } => CompressError::Invalid(format!(
                "chunk {chunk}: the bound sets quantization step {q:e}, which is not a finite \
                 normal number at this sample width (the bound is out of the coder's range); \
                 nothing was encoded"
            )),
        }
    }
}

/// A chunk coder's termination mode, with what it needs of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkMode {
    /// PWE-bounded (§IV): SPECK at `q = q_factor · t`, then outlier
    /// correction so every point lands within `t`.
    Pwe {
        /// Point-wise error tolerance.
        t: f64,
        /// SPECK quantization step as a multiple of `t`.
        q_factor: f64,
    },
    /// Size-bounded: SPECK's embedded stream is cut at `budget_bits`; no
    /// error guarantee, no outlier pass (§III-B: "the encoding process can
    /// terminate whenever a user-prescribed output size is reached").
    Bpp {
        /// The chunk's bit budget.
        budget_bits: usize,
    },
    /// Average-error-targeted (paper §VII: "the property of roughly equal
    /// root-mean-square error between wavelet coefficients and their
    /// inversely transformed reconstruction ... enables ... compression
    /// targeting an average error"): SPECK runs at `q = target_rmse`,
    /// whose mid-riser error (≤ q/2 per coded coefficient, < q in the dead
    /// zone) keeps the reconstruction RMSE at or below the target thanks
    /// to the transform's near-orthogonality. No outlier pass.
    Rmse {
        /// The RMSE the chunk targets.
        target_rmse: f64,
    },
}

/// Number of bitplanes below the maximum coefficient magnitude that the
/// size-bounded mode makes addressable. 48 planes put the floor far below
/// any practical bit budget.
const BPP_MODE_PLANES: i32 = 48;

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

/// A chunk's samples where they lie: rows of `spec.dims[0]` samples of a
/// row-major volume of extent `volume_dims`.
struct Rows<'a, T> {
    volume: &'a [T],
    volume_dims: [usize; 3],
    spec: &'a ChunkSpec,
}

impl<'a, T> Rows<'a, T> {
    /// Volume index of the chunk-local linear position `pos`.
    fn volume_index(&self, pos: usize) -> usize {
        let [cx, cy, _] = self.spec.dims;
        let [x, y, z] = [pos % cx, pos / cx % cy, pos / (cx * cy)];
        let [ox, oy, oz] = self.spec.offset;
        ox + x + self.volume_dims[0] * (oy + y + self.volume_dims[1] * (oz + z))
    }

    /// The chunk-local positions `range` as runs within one row each, in
    /// order: `(first position, samples)`.
    fn runs(&self, range: Range<usize>) -> impl Iterator<Item = (usize, &'a [T])> + '_ {
        let cx = self.spec.dims[0];
        let mut pos = range.start;
        std::iter::from_fn(move || {
            (pos < range.end).then(|| {
                let (first, start) = (pos, self.volume_index(pos));
                pos = range.end.min((pos / cx + 1) * cx);
                (first, &self.volume[start..start + (pos - first)])
            })
        })
    }
}

/// Fills `coeffs` with the chunk's samples, row by row from the volume
/// (the transform is in place and must not clobber the caller's input),
/// reusing capacity, and refuses the first sample that is not finite —
/// the copy is the one pass that reads every sample, so the check rides
/// it, one L1-sized block at a time.
fn load_coeffs<T: Float>(coeffs: &mut Vec<T>, chunk: &Rows<'_, T>) -> Result<(), Refusal> {
    coeffs.clear();
    coeffs.reserve_exact(chunk.spec.len());
    for (_, row) in chunk.runs(0..chunk.spec.len()) {
        for block in row.chunks(L1_BLOCK) {
            let pos = coeffs.len();
            coeffs.extend_from_slice(block);
            if !block.iter().fold(true, |finite, v| finite & v.is_finite()) {
                let at = block.iter().position(|v| !v.is_finite()).unwrap_or(0);
                let index = chunk.volume_index(pos + at);
                return Err(Refusal::NonFinite { index, value: block[at].to_f64() });
            }
        }
    }
    Ok(())
}

/// The largest coefficient magnitude, or `None` when a coefficient is not
/// finite. Block-parallel; a max does not depend on the reduction order.
fn max_magnitude<T: Float>(coeffs: &[T], pool: &WorkerPool) -> Option<f64> {
    let len = coeffs.len();
    let per_block = pool.map(len.div_ceil(ELEM_BLOCK), |b, _| {
        let block = &coeffs[b * ELEM_BLOCK..((b + 1) * ELEM_BLOCK).min(len)];
        block.iter().fold((0.0f64, true), |(m, finite), &c| {
            (m.max(c.to_f64().abs()), finite & c.is_finite())
        })
    });
    per_block.into_iter().try_fold(0.0f64, |m, (b, finite)| finite.then(|| m.max(b)))
}

/// Mid-riser reconstruction of `coeffs` in place, block-parallel over the
/// pool.
fn reconstruct_in_place<T: Float>(coeffs: &mut [T], q: f64, pool: &WorkerPool) {
    let centre = sperr_speck::mid_riser(q);
    let n_blocks = coeffs.len().div_ceil(ELEM_BLOCK);
    let blocks: Slots<&mut [T]> = coeffs.chunks_mut(ELEM_BLOCK).collect();
    pool.run(n_blocks, &|b, _| blocks.lock(b).iter_mut().for_each(|c| *c = centre(*c)));
}

/// Sum of squared differences between `coeffs` and their mid-riser
/// reconstruction, summed in position order within each fixed block and
/// in block order across them.
fn quantization_sq_error<T: Float>(coeffs: &[T], q: f64, pool: &WorkerPool) -> f64 {
    let centre = sperr_speck::mid_riser(q);
    let len = coeffs.len();
    let per_block = pool.map(len.div_ceil(ELEM_BLOCK).max(1), |b, _| {
        let block = &coeffs[(b * ELEM_BLOCK).min(len)..((b + 1) * ELEM_BLOCK).min(len)];
        block.iter().fold(0.0, |sq, &c| {
            let d = (c - centre(c)).to_f64();
            sq + d * d
        })
    });
    per_block.into_iter().sum()
}

/// Compares the chunk's samples with `recon` block-parallel, leaving the
/// outliers (positions ascending) in `scratch.list` and returning the
/// total squared error and the max residual over the *in-tolerance*
/// points (the part of the final max error that outlier correction won't
/// touch). Fixed blocks + block-order reduction keep all three
/// deterministic across thread counts (max is also order-independent). A
/// residual that is not finite — the inverse transform overflowed —
/// refuses the chunk.
fn scan_outliers<T: Float>(
    chunk: &Rows<'_, T>,
    recon: &[T],
    t: f64,
    pool: &WorkerPool,
    scratch: &mut OutlierScratch,
) -> Result<(f64, f64), Refusal> {
    let len = recon.len();
    let n_blocks = len.div_ceil(ELEM_BLOCK).max(1);
    scratch.found.resize_with(n_blocks.max(scratch.found.len()), Vec::new);
    let lists: Slots<&mut Vec<Outlier>> = scratch.found.iter_mut().collect();
    let per_block = pool.map(n_blocks, |b, _| {
        let block = (b * ELEM_BLOCK).min(len)..((b + 1) * ELEM_BLOCK).min(len);
        let mut sq = 0.0;
        let mut max_in_tol = 0.0f64;
        let mut found = lists.lock(b);
        found.clear();
        for (first, samples) in chunk.runs(block.clone()) {
            let recon = &recon[first..first + samples.len()];
            for (pos, (&x, &r)) in (first..).zip(samples.iter().zip(recon)) {
                // Residual in the native width, widened exactly for the
                // (f64) outlier coder.
                let corr = (x - r).to_f64();
                sq += corr * corr;
                if corr.abs() > t {
                    found.push(Outlier { pos, corr });
                } else {
                    max_in_tol = max_in_tol.max(corr.abs());
                }
            }
        }
        // A residual that is not finite makes the sum not finite; so can
        // finite ones whose squares overflow, hence the second look.
        let finite = sq.is_finite()
            || chunk.runs(block).all(|(first, samples)| {
                let recon = &recon[first..];
                samples.iter().zip(recon).all(|(&x, &r)| (x - r).to_f64().is_finite())
            });
        (sq, max_in_tol, finite)
    });
    drop(lists);
    scratch.list.clear();
    let mut coeff_sq_error = 0.0;
    let mut max_in_tol = 0.0f64;
    for ((sq, m, finite), found) in per_block.into_iter().zip(&scratch.found) {
        if !finite {
            return Err(Refusal::Overflow);
        }
        scratch.list.extend_from_slice(found);
        coeff_sq_error += sq;
        max_in_tol = max_in_tol.max(m);
    }
    Ok((coeff_sq_error, max_in_tol))
}

/// Compresses the chunk `spec` of the row-major `volume` (of extent
/// `volume_dims`) under `mode`: load and forward transform, SPECK, and by
/// mode the outlier locate and coding (PWE) or the wavelet-domain
/// quantization error (RMSE). Every buffer comes from `arena`; the wavelet
/// panels and elementwise sweeps run on `pool`, bit-identically for any
/// thread count. A dense chunk is the volume whose extent is the chunk's.
///
/// SPECK runs in its two phases ([`sperr_speck::quantize`], its pieces or
/// its code blocks on `pool`, then each block's sorting passes, one pool
/// job a block, joined in block order by [`sperr_speck::Quantized::join`]).
/// When the second needs nothing of the coefficients — every magnitude
/// fits 32 bits, no bit budget — the mode's work on them (the locate and
/// the outlier encode, or the RMSE error sum) is job 0 of the blocks'
/// batch; otherwise it runs after the sorting passes. Either way the
/// bytes, the refusal and a panic's stage are those of the serial order,
/// at any thread count.
///
/// Refuses the chunk's first sample that is not finite, a chunk whose
/// transform or reconstruction overflows, and a bound whose quantization
/// step is not a finite normal number of the sample width ([`Refusal`]).
///
/// # Panics
///
/// On caller bugs: a chunk outside the volume, or a PWE tolerance that is
/// not positive and finite (the outlier coder asserts it).
pub fn compress_chunk<T: Float>(
    volume: &[T],
    volume_dims: [usize; 3],
    spec: &ChunkSpec,
    mode: ChunkMode,
    kernel: Kernel,
    pool: &WorkerPool,
    arena: &mut ScratchArena<T>,
) -> Result<ChunkEncoding, Refusal> {
    let inside = (0..3).all(|d| spec.offset[d] + spec.dims[d] <= volume_dims[d]);
    assert!(inside && volume.len() == volume_dims.iter().product(), "{spec:?} not in volume");
    let chunk = Rows { volume, volume_dims, spec };
    let dims = spec.dims;
    let levels = levels_for_dims(dims);
    let ScratchArena { coeffs, wavelet, speck, outliers, .. } = arena;

    // Stage 1: forward wavelet transform of the chunk's samples. The
    // largest coefficient magnitude is the size-bounded mode's scale and
    // the check that every coefficient stayed finite.
    crate::faultpoint::stage(stage_labels::WAVELET_FORWARD);
    let (max_mag, wavelet_time) = timed(stage_labels::WAVELET_FORWARD, || {
        load_coeffs(coeffs, &chunk)?;
        forward_3d_with(coeffs, dims, levels, kernel, pool, wavelet);
        max_magnitude(coeffs, pool).ok_or(Refusal::Overflow)
    });
    let max_mag = max_mag?;

    // SPECK quantizes with `1/q` at the sample width, so the step must be
    // a normal number of that width: below the smallest, `1/q` overflows.
    let min_step = match T::BYTES {
        4 => f64::from(f32::MIN_POSITIVE),
        _ => f64::MIN_POSITIVE,
    };
    let (q, termination) = match mode {
        ChunkMode::Pwe { t, q_factor } => (q_factor * t, Termination::Quality),
        // Quantization floor well below the budget's reach, but no lower
        // than the coder can go (tiny coefficients underflow the product);
        // degenerate all-zero chunks encode to an empty stream with any q.
        ChunkMode::Bpp { budget_bits } => (
            if max_mag > 0.0 {
                (max_mag * f64::exp2(-f64::from(BPP_MODE_PLANES))).max(min_step)
            } else {
                1.0
            },
            Termination::BitBudget(budget_bits),
        ),
        ChunkMode::Rmse { target_rmse } => (target_rmse, Termination::Quality),
    };
    if !(q >= min_step && q.is_finite()) {
        return Err(Refusal::Step { q });
    }

    // Stage 2: SPECK, in its two phases. The first quantizes the
    // coefficients into layout order; the second (the sorting passes)
    // needs them again only when it cannot hold every magnitude in 32
    // bits, or under a bit budget.
    crate::faultpoint::stage(stage_labels::SPECK_ENCODE);
    let (quantized, quantize_time) = phase(stage_labels::SPECK_ENCODE, || {
        let scratch = std::mem::take(speck);
        sperr_speck::quantize(coeffs.as_slice(), dims, q, termination, pool, scratch)
    });
    // What the mode does with the coefficients besides SPECK: the outlier
    // locate (PWE) reconstructs and inverse-transforms them in place and
    // compares the result with the chunk's rows of the volume, and the
    // outliers it finds are encoded; RMSE sums their quantization error.
    let beside = |coeffs: &mut [T],
                  wavelet: &mut TransformScratch<T>,
                  scratch: &mut OutlierScratch| match mode {
        ChunkMode::Pwe { t, .. } => {
            crate::faultpoint::stage(stage_labels::OUTLIER_LOCATE);
            let (located, locate_time) = timed(stage_labels::OUTLIER_LOCATE, || {
                reconstruct_in_place(coeffs, q, pool);
                inverse_3d_with(coeffs, dims, levels, kernel, pool, wavelet);
                scan_outliers(&chunk, coeffs, t, pool, scratch)
            });
            let (coeff_sq_error, max_in_tol) = located?;
            let OutlierScratch { list: outliers, coder, .. } = scratch;
            // Stage 4: encode the outliers. The coder reports how far its
            // quantized corrections land from the true ones; with the
            // in-tolerance residuals that is the chunk's exact
            // post-correction max error, for the v3 chunk index.
            crate::faultpoint::stage(stage_labels::OUTLIER_ENCODE);
            let (encoded, encode_time) = timed(stage_labels::OUTLIER_ENCODE, || {
                sperr_outlier::encode_with(outliers, spec.len(), t, coder)
            });
            Ok(Beside::Located {
                count: outliers.len(),
                encoded,
                coeff_sq_error,
                max_in_tol,
                locate_time,
                encode_time,
            })
        }
        ChunkMode::Rmse { .. } => Ok(Beside::SqError(quantization_sq_error(coeffs, q, pool))),
        ChunkMode::Bpp { .. } => Ok(Beside::Nothing),
    };
    let ((mut enc, sort_time), beside) = match quantized.release() {
        // The second phase reads only what the first left, so the mode's
        // work on the coefficients is job 0 of the blocks' batch: it starts
        // first, and the blocks' sorting passes fill the other workers
        // while it runs (all of them after it, on a pool that does not fan
        // out). A panic on either side is raised here, the blocks' first,
        // with its own stage (the locate's or the outlier encode's for
        // job 0).
        Ok(quantized) => {
            let side = || beside(coeffs, wavelet, outliers);
            let (enc, side) = sort_blocks(quantized, pool, Some(side));
            (enc, side.unwrap_or(Ok(Beside::Nothing)))
        }
        Err(quantized) => {
            let (enc, _) = sort_blocks(quantized, pool, None::<fn()>);
            (enc, beside(coeffs, wavelet, outliers))
        }
    };
    *speck = std::mem::take(&mut enc.scratch);
    let speck_time = quantize_time + sort_time;
    sperr_telemetry::record_ns(stage_labels::SPECK_ENCODE, speck_time.as_nanos() as u64);
    let mut out = ChunkEncoding {
        speck_stream: enc.stream,
        outlier_stream: Vec::new(),
        q,
        num_planes: enc.num_planes,
        max_n: 0,
        num_outliers: 0,
        speck_bits: enc.bits_used,
        outlier_bits: 0,
        times: StageTimes { wavelet: wavelet_time, speck: speck_time, ..StageTimes::default() },
        coeff_sq_error: 0.0,
        max_err: f64::NAN,
    };

    match beside? {
        Beside::Located {
            count,
            encoded,
            coeff_sq_error,
            max_in_tol,
            locate_time,
            encode_time,
        } => {
            sperr_telemetry::counter!("speck.sets_split", enc.sets_split);
            sperr_telemetry::counter!("speck.zero_runs", enc.zero_runs);
            sperr_telemetry::counter!("speck.significance_bits", enc.significance_bits);
            sperr_telemetry::counter!("speck.sign_bits", enc.sign_bits);
            sperr_telemetry::counter!("speck.refinement_bits", enc.refinement_bits);
            sperr_telemetry::counter!("outlier.count", count);
            sperr_telemetry::counter!("outlier.correction_bits", encoded.bits_used);

            out.max_n = encoded.max_n;
            out.num_outliers = count as u32;
            out.outlier_bits = encoded.bits_used;
            out.times.locate_outliers = locate_time;
            out.times.outlier_coding = encode_time;
            out.coeff_sq_error = coeff_sq_error;
            out.max_err = max_in_tol.max(encoded.max_err);
            out.outlier_stream = encoded.stream;
        }
        // Wavelet-domain quantization error ~ reconstruction error (§III-A).
        Beside::SqError(sq) => out.coeff_sq_error = sq,
        // Budget truncation: the error is not tracked.
        Beside::Nothing => {}
    }
    Ok(out)
}

/// What a chunk's mode took from its coefficients besides SPECK.
enum Beside {
    /// PWE: the located outliers, encoded.
    Located {
        /// How many outliers were located.
        count: usize,
        encoded: sperr_outlier::EncodedOutliers,
        /// Sum of the squared residuals.
        coeff_sq_error: f64,
        /// The largest residual within the tolerance.
        max_in_tol: f64,
        /// The locate's and the outlier encode's wall times.
        locate_time: Duration,
        encode_time: Duration,
    },
    /// RMSE: the wavelet-domain quantization error.
    SqError(f64),
    /// BPP: nothing.
    Nothing,
}

/// The second phase of `quantized`: one job a code block on `pool`, each
/// block's sorting passes in its own scratch, with `side` as job 0 when
/// given (so it starts first), then the blocks joined in block order.
/// Returns the encode with the wall time of the blocks' side of the batch,
/// and what `side` returned. A panic in any job is raised after the batch:
/// the lowest block's first, then `side`'s, each with the stage its thread
/// was in.
fn sort_blocks<T: Float, R: Send>(
    quantized: sperr_speck::Quantized<'_, T, 3>,
    pool: &WorkerPool,
    side: Option<impl FnOnce() -> R + Send>,
) -> ((sperr_speck::EncodedSpeck, Duration), Option<R>) {
    let k = quantized.blocks();
    let first = usize::from(side.is_some());
    let side = Mutex::new(side);
    let side_out = Mutex::new(None);
    let encoded = Slots::new(k, || None);
    let start = Instant::now();
    let speck_end = Mutex::new(start);
    pool.run(first + k, &|j, _| {
        if j < first {
            let side = lock_ignore_poison(&side).take();
            let done = side.map(|side| crate::faultpoint::carry(stage_labels::SPECK_ENCODE, side));
            *lock_ignore_poison(&side_out) = done;
            return;
        }
        let b = j - first;
        let enc = crate::faultpoint::carry(stage_labels::SPECK_ENCODE, || {
            let _span = sperr_telemetry::span!(stage_labels::SPECK_ENCODE);
            quantized.encode_block(b)
        });
        *encoded.lock(b) = Some(enc);
        let mut end = lock_ignore_poison(&speck_end);
        *end = (*end).max(Instant::now());
    });
    let encoded: Vec<_> = encoded
        .into_values()
        .map(|enc| enc.expect("every block's job ran").unwrap_or_else(Caught::resume))
        .collect();
    let side = lock_ignore_poison(&side_out).take().map(|r| r.unwrap_or_else(Caught::resume));
    let sort_time = lock_ignore_poison(&speck_end).duration_since(start);
    ((quantized.join(encoded), sort_time), side)
}

/// Runs `f` under `label`'s span and returns its wall time. A stage that
/// runs in two phases, possibly on two workers, records its histogram
/// sample once, from the sum, where [`timed`] would record one per phase.
pub(crate) fn phase<R>(label: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    let _span = sperr_telemetry::span!(label);
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_chunk, ChunkJob};
    use sperr_wavelet::{coarse_dims, coarse_scale};

    fn test_data(dims: [usize; 3]) -> Vec<f64> {
        (0..dims.iter().product())
            .map(|i| (i as f64 * 0.213).sin() * 12.0 + (i as f64 * 0.0071).cos() * 3.0)
            .collect()
    }

    /// The whole of a `dims` volume as one chunk.
    fn whole(dims: [usize; 3]) -> ChunkSpec {
        ChunkSpec { offset: [0; 3], dims }
    }

    fn pwe(t: f64, q_factor: f64) -> ChunkMode {
        ChunkMode::Pwe { t, q_factor }
    }

    /// The dense chunk `data` of `dims`, serially with a fresh arena.
    fn compress<T: Float>(data: &[T], dims: [usize; 3], mode: ChunkMode) -> ChunkEncoding {
        let (pool, mut arena) = (WorkerPool::inline(), ScratchArena::new());
        compress_chunk(data, dims, &whole(dims), mode, Kernel::Cdf97, &pool, &mut arena).unwrap()
    }

    /// The full-resolution job for everything `enc` holds.
    fn job<'a>(enc: &'a ChunkEncoding, dims: [usize; 3], t: f64) -> ChunkJob<'a> {
        ChunkJob {
            speck: &enc.speck_stream,
            budget: usize::MAX,
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

    #[test]
    fn chunk_pwe_roundtrip_bounds_error() {
        let dims = [24usize, 16, 12];
        let data = test_data(dims);
        let t = 0.01;
        let enc = compress(&data, dims, pwe(t, 1.5));
        for (a, b) in data.iter().zip(&decode(&job(&enc, dims, t))) {
            assert!((a - b).abs() <= t, "{a} vs {b}");
        }
    }

    #[test]
    fn a_chunk_read_in_place_encodes_like_its_extracted_copy() {
        // Every mode reads the chunk's rows straight from the volume; the
        // bytes, the error sum and a refused sample's volume index must be
        // those of the same chunk extracted into a dense buffer.
        let vdims = [29usize, 14, 11];
        let volume = test_data(vdims);
        let spec = ChunkSpec { offset: [5, 3, 2], dims: [17, 9, 8] };
        let dense = crate::chunk::extract_chunk(&volume, vdims, &spec);
        let (pool, mut arena) = (WorkerPool::inline(), ScratchArena::new());
        for mode in [pwe(0.004, 1.5), ChunkMode::Bpp { budget_bits: 3000 }, ChunkMode::Rmse {
            target_rmse: 0.01,
        }] {
            let k = Kernel::Cdf97;
            let got = compress_chunk(&volume, vdims, &spec, mode, k, &pool, &mut arena).unwrap();
            let want = compress(&dense, spec.dims, mode);
            assert_eq!(got.speck_stream, want.speck_stream, "{mode:?}");
            assert_eq!(got.outlier_stream, want.outlier_stream, "{mode:?}");
            assert_eq!(got.coeff_sq_error.to_bits(), want.coeff_sq_error.to_bits(), "{mode:?}");
            assert_eq!(got.max_err.to_bits(), want.max_err.to_bits(), "{mode:?}");
        }
        let mut poisoned = volume.clone();
        let at = 9 + vdims[0] * (7 + vdims[1] * 6); // chunk-local (4, 4, 4)
        poisoned[at] = f64::NAN;
        poisoned[vdims[0] * vdims[1] * 10 + 20] = f64::INFINITY; // a later one
        poisoned[3] = f64::INFINITY; // outside the chunk
        let (k, mode) = (Kernel::Cdf97, pwe(0.004, 1.5));
        let refused = compress_chunk(&poisoned, vdims, &spec, mode, k, &pool, &mut arena);
        let named = matches!(refused, Err(Refusal::NonFinite { index, .. }) if index == at);
        assert!(named, "{refused:?}");
    }

    #[test]
    fn every_mode_refuses_the_first_non_finite_sample() {
        let dims = [24usize, 16, 12];
        let (pool, mut arena) = (WorkerPool::inline(), ScratchArena::new());
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for (at, bad) in [(0, nan), (1023, inf), (1024, -inf), (4607, nan)] {
            let mut data = test_data(dims);
            data[at] = bad;
            data[4607.min(at + 100)] = f64::NAN; // a later one is not the one named
            for mode in [
                pwe(0.01, 1.5),
                ChunkMode::Bpp { budget_bits: 4096 },
                ChunkMode::Rmse { target_rmse: 0.01 },
            ] {
                let k = Kernel::Cdf97;
                let refused = compress_chunk(&data, dims, &whole(dims), mode, k, &pool, &mut arena);
                let Err(Refusal::NonFinite { index, value }) = refused else {
                    panic!("{mode:?}: non-finite sample accepted: {refused:?}")
                };
                assert_eq!(index, at);
                assert_eq!(value.to_bits(), bad.to_bits());
            }
        }
    }

    #[test]
    fn every_mode_refuses_a_transform_that_overflows() {
        // One finite sample at the width's largest value: the lifting steps
        // overflow it, and every mode refuses instead of hanging (PWE: an
        // infinite correction), panicking (BPP: an infinite step) or
        // encoding a stream that decodes to non-finite samples (RMSE).
        fn check<T: Float>(max: T) {
            let dims = [16usize; 3];
            let mut data: Vec<T> = test_data(dims).iter().map(|&v| T::from_f64(v)).collect();
            data[1234] = max;
            let (pool, mut arena) = (WorkerPool::inline(), ScratchArena::new());
            for mode in [
                pwe(1e-3, 1.5),
                ChunkMode::Bpp { budget_bits: 4 * 4096 },
                ChunkMode::Rmse { target_rmse: 1e-3 },
            ] {
                let k = Kernel::Cdf97;
                let refused = compress_chunk(&data, dims, &whole(dims), mode, k, &pool, &mut arena);
                assert!(matches!(refused, Err(Refusal::Overflow)), "{mode:?}: {refused:?}");
            }
        }
        check(f64::MAX);
        check(f32::MAX);

        // Finite coefficients, but a huge step: a mid-riser value (k + ½)·q
        // lands past MAX, the inverse spreads it, and every residual is
        // non-finite; unchecked, the stream decodes to 4096 non-finite
        // samples. The outlier scan refuses it.
        let dims = [16usize; 3];
        let data: Vec<f64> = (0..4096).map(|i| 0.04 * f64::MAX + (i as f64 * 0.1).sin()).collect();
        let (pool, mut arena) = (WorkerPool::inline(), ScratchArena::new());
        let k = Kernel::Cdf97;
        let refused =
            compress_chunk(&data, dims, &whole(dims), pwe(3e307, 1.5), k, &pool, &mut arena);
        assert!(matches!(refused, Err(Refusal::Overflow)), "{refused:?}");
    }

    #[test]
    fn the_arena_is_the_only_chunk_sized_buffer() {
        // Coefficients, reconstruction and inverse transform share one
        // buffer: after a one-chunk 32³ compress the arena's float buffers
        // hold the chunk once (plus panel scratch), never a second
        // chunk-sized buffer. (SPECK's and the outlier coder's scratch,
        // which the arena keeps too, hold no sample.)
        fn check<T: Float>() {
            let dims = [32usize; 3];
            let data: Vec<T> = test_data(dims).iter().map(|&v| T::from_f64(v)).collect();
            let chunk_bytes = data.len() * std::mem::size_of::<T>();
            for mode in [
                pwe(1e-3, 1.5),
                ChunkMode::Bpp { budget_bits: 2 * data.len() },
                ChunkMode::Rmse { target_rmse: 1e-3 },
            ] {
                for threads in [1, 2] {
                    let mut arena = ScratchArena::<T>::new();
                    WorkerPool::scoped(threads, |pool| {
                        let k = Kernel::Cdf97;
                        compress_chunk(&data, dims, &whole(dims), mode, k, pool, &mut arena)
                            .unwrap();
                    });
                    let floats = arena.coeffs.capacity() * std::mem::size_of::<T>();
                    let bytes = floats + arena.wavelet.bytes();
                    assert!(
                        bytes < 2 * chunk_bytes,
                        "{mode:?} t{threads}: arena {bytes} B for a {chunk_bytes} B chunk"
                    );
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn outliers_actually_corrected() {
        // With a large q factor SPECK alone violates t; the outlier pass
        // must fix every violation.
        let dims = [16usize, 16, 16];
        let data = test_data(dims);
        let t = 0.001;
        let enc = compress(&data, dims, pwe(t, 3.0));
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
        let enc = compress(&data, dims, ChunkMode::Bpp { budget_bits: budget });
        assert!(enc.speck_bits <= budget);
        assert_eq!(decode(&job(&enc, dims, 0.0)).len(), data.len());
    }

    #[test]
    fn all_zero_chunk() {
        let dims = [8usize, 8, 8];
        let data = vec![0.0; 512];
        let enc = compress(&data, dims, pwe(0.1, 1.5));
        assert!(enc.speck_stream.is_empty());
        assert_eq!(enc.num_outliers, 0);
        assert_eq!(decode(&job(&enc, dims, 0.1)), data);
    }

    #[test]
    fn pooled_compress_matches_serial_bit_for_bit() {
        // The coder on a real multi-worker pool must produce the exact
        // bytes and error sums of the serial path — in every mode, for
        // chunks of more than one fixed block, and for an arena reused
        // across differently-sized chunks.
        let mut arena = ScratchArena::new();
        WorkerPool::scoped(4, |pool| {
            for dims in [[24usize, 16, 12], [48, 40, 36], [16, 16, 16], [7, 5, 3]] {
                let data = test_data(dims);
                for mode in [
                    pwe(0.004, 1.5),
                    ChunkMode::Bpp { budget_bits: data.len() },
                    ChunkMode::Rmse { target_rmse: 0.004 },
                ] {
                    let serial = compress(&data, dims, mode);
                    let k = Kernel::Cdf97;
                    let pooled =
                        compress_chunk(&data, dims, &whole(dims), mode, k, pool, &mut arena)
                            .unwrap();
                    let case = format!("dims {dims:?} {mode:?}");
                    assert_eq!(serial.speck_stream, pooled.speck_stream, "{case}");
                    assert_eq!(serial.outlier_stream, pooled.outlier_stream, "{case}");
                    assert_eq!(serial.num_outliers, pooled.num_outliers, "{case}");
                    assert_eq!(serial.q, pooled.q, "{case}");
                    let (s, p) = (serial.coeff_sq_error, pooled.coeff_sq_error);
                    assert_eq!(s.to_bits(), p.to_bits(), "{case}: fp order changed");
                }
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
            let enc = compress(&data, dims, pwe(t, q_factor));
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
        // must be bit-identical to the full chunk decode. On the split
        // chunks (the boxes' tables and Morton cubes, 8 code blocks) the
        // region read decodes only the blocks its support meets.
        let cases: [([usize; 3], [usize; 3], [usize; 3]); 3] = [
            ([16, 12, 10], [3, 0, 2], [9, 12, 7]),
            ([72, 66, 50], [40, 3, 30], [47, 20, 41]),
            ([64, 64, 64], [5, 40, 33], [12, 47, 40]),
        ];
        for (dims, lo, hi) in cases {
            let data = test_data(dims);
            let t = 0.001;
            let enc = compress(&data, dims, pwe(t, 3.0));
            assert!(enc.num_outliers > 0, "test needs outliers to be meaningful");
            let full = decode(&job(&enc, dims, t));
            let region = decode(&ChunkJob { keep: Some((lo, hi)), ..job(&enc, dims, t) });
            for z in lo[2]..hi[2] {
                for y in lo[1]..hi[1] {
                    for x in lo[0]..hi[0] {
                        let pos = x + dims[0] * (y + dims[1] * z);
                        let what = format!("{dims:?} at {x},{y},{z}");
                        assert_eq!(full[pos].to_bits(), region[pos].to_bits(), "{what}");
                    }
                }
            }
            assert_ne!(full, region, "{dims:?}: no correction fell outside the box");
        }
    }

    #[test]
    fn coarse_level_is_the_rescaled_partial_inverse() {
        // Level l leaves the finest l transform levels undone and divides
        // the approximation corner by the kernel's DC gain, nothing else —
        // on one stream and on a split chunk, whose level read decodes only
        // the code blocks the corner's support meets.
        for dims in [[24usize, 16, 12], [72, 66, 50]] {
            let data = test_data(dims);
            let enc = compress(&data, dims, pwe(0.01, 1.5));
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
    }

    #[test]
    fn one_chunk_blocks_decode_like_one_stream_at_every_thread_count() {
        // A split chunk's code blocks decode to exactly the samples one
        // stream over the same coefficients gives, with the same
        // corrections, on 1, 2 and 4 threads, at both widths, on Morton
        // cubes (8 and 64 blocks) and on a box the tables serve. The split
        // encode's bytes do not depend on the thread count either.
        fn check<T: Float>(dims: [usize; 3]) {
            let data: Vec<T> = test_data(dims).iter().map(|&v| T::from_f64(v)).collect();
            let t = 0.004;
            let enc = compress(&data, dims, pwe(t, 1.5));
            assert!(enc.num_planes & sperr_speck::SPLIT_FLAG != 0, "{dims:?} did not split");
            let mut coeffs = data.clone();
            sperr_wavelet::forward_3d(&mut coeffs, dims, levels_for_dims(dims), Kernel::Cdf97);
            let budget = sperr_speck::Termination::BitBudget(usize::MAX);
            let one = sperr_speck::encode(&coeffs, dims, enc.q, budget);
            let one_job =
                ChunkJob { speck: &one.stream, num_planes: one.num_planes, ..job(&enc, dims, t) };
            let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
            let serial =
                decode_chunk::<T>(&one_job, &WorkerPool::inline(), &mut ScratchArena::new());
            let want = bits(&serial.unwrap().0);
            let mut arena = ScratchArena::<T>::new();
            for threads in [1, 2, 4] {
                WorkerPool::scoped(threads, |pool| {
                    let what = format!("{} B {dims:?} t{threads}", T::BYTES);
                    let split = decode_chunk(&job(&enc, dims, t), pool, &mut arena).unwrap().0;
                    assert!(bits(&split) == want, "{what}: split decode differs");
                    let single = decode_chunk(&one_job, pool, &mut arena).unwrap().0;
                    assert!(bits(&single) == want, "{what}: one-stream decode differs");
                    let (k, mode, mut fresh) = (Kernel::Cdf97, pwe(t, 1.5), ScratchArena::new());
                    let again =
                        compress_chunk(&data, dims, &whole(dims), mode, k, pool, &mut fresh);
                    assert!(again.unwrap().speck_stream == enc.speck_stream, "{what}: bytes");
                });
            }
        }
        for dims in [[64usize, 64, 64], [128, 128, 128], [72, 66, 50]] {
            check::<f64>(dims);
            check::<f32>(dims);
        }
    }

    #[test]
    fn pooled_decompress_matches_serial() {
        let dims = [20usize, 14, 9];
        let data = test_data(dims);
        let t = 0.002;
        let enc = compress(&data, dims, pwe(t, 1.5));
        let serial = decode(&job(&enc, dims, t));
        let mut arena = ScratchArena::new();
        WorkerPool::scoped(3, |pool| {
            let (pooled, times) = decode_chunk(&job(&enc, dims, t), pool, &mut arena).unwrap();
            assert_eq!(serial, pooled);
            assert!(times.speck + times.wavelet > std::time::Duration::ZERO);
        });
    }
}
