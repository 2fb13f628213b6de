//! Differential oracles: named equivalence checks between independent
//! implementations of the same computation.
//!
//! Each check is a plain function returning [`CheckResult`], so tests,
//! the bench binary, and future fuzz targets can all assert the same
//! property through one implementation. A failure names the check and
//! carries a human-readable detail string; callers decide whether to
//! panic, collect, or shrink.

use crate::corpus::{check_budget, f32_budget, ErrorBudget};
use sperr_compress_api::{Bound, Field, FieldOf, LossyCompressor};
use sperr_core::{
    compress_chunk, ChunkEncoding, ChunkMode, ChunkSpec, Float, OnDamage, ReadOutput, ReadRequest,
    Refusal, ScratchArena, Sperr, SperrConfig, StageTimes, WorkerPool,
};
use sperr_outlier::Outlier;
use sperr_speck::Termination;
use sperr_wavelet::{levels_for_dims, reference, Kernel, LineExecutor, Serial, TransformScratch};
use std::time::Instant;

/// A named oracle violation.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// The oracle that fired (stable name, e.g. `"blocked-lifting"`).
    pub check: &'static str,
    /// What diverged, with enough numbers to start debugging.
    pub detail: String,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// Outcome of one oracle run.
pub type CheckResult = Result<(), CheckFailure>;

fn fail(check: &'static str, detail: String) -> CheckResult {
    Err(CheckFailure { check, detail })
}

/// Index and values of the first mismatch between two equal-length
/// slices, bit-compared (NaN-safe, sign-of-zero-sensitive — the blocked
/// scheme claims *bit* identity, not approximate equality).
fn first_bit_mismatch(a: &[f64], b: &[f64]) -> Option<(usize, f64, f64)> {
    a.iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
        .map(|i| (i, a[i], b[i]))
}

// ---------------------------------------------------------------------
// Oracle 1: blocked panel lifting vs the per-line reference transform.
// ---------------------------------------------------------------------

/// Forward + inverse blocked lifting must be **bit-identical** to the
/// per-line `wavelet::reference` implementation on the same input, for
/// any [`LineExecutor`] (the executor only reorders whole independent
/// lines, so the arithmetic per line is the same).
pub fn blocked_lifting_matches_reference_with(
    data: &[f64],
    dims: [usize; 3],
    kernel: Kernel,
    exec: &dyn LineExecutor,
) -> CheckResult {
    let levels = levels_for_dims(dims);

    let mut want = data.to_vec();
    reference::forward_3d(&mut want, dims, levels, kernel);

    let mut got = data.to_vec();
    let mut scratch = TransformScratch::default();
    sperr_wavelet::forward_3d_with(&mut got, dims, levels, kernel, exec, &mut scratch);
    if let Some((i, g, w)) = first_bit_mismatch(&got, &want) {
        return fail(
            "blocked-lifting",
            format!("forward dims {dims:?} {kernel:?}: blocked[{i}]={g:e} != reference[{i}]={w:e}"),
        );
    }

    reference::inverse_3d(&mut want, dims, levels, kernel);
    sperr_wavelet::inverse_3d_with(&mut got, dims, levels, kernel, exec, &mut scratch);
    if let Some((i, g, w)) = first_bit_mismatch(&got, &want) {
        return fail(
            "blocked-lifting",
            format!("inverse dims {dims:?} {kernel:?}: blocked[{i}]={g:e} != reference[{i}]={w:e}"),
        );
    }
    Ok(())
}

/// [`blocked_lifting_matches_reference_with`] under the default serial
/// executor.
pub fn blocked_lifting_matches_reference(
    data: &[f64],
    dims: [usize; 3],
    kernel: Kernel,
) -> CheckResult {
    blocked_lifting_matches_reference_with(data, dims, kernel, &Serial)
}

// ---------------------------------------------------------------------
// Oracle 2: the overhauled chunk encoder vs a from-parts reference
// pipeline (the pre-overhaul implementation reassembled from public
// APIs).
// ---------------------------------------------------------------------

/// Output of [`reference_chunk_pwe`]: the two bitstreams plus per-stage
/// wall time (the bench binary charts reference-vs-current throughput
/// from the same run that proves bit identity).
#[derive(Debug, Clone)]
pub struct ReferenceChunk {
    /// SPECK coefficient stream.
    pub speck_stream: Vec<u8>,
    /// Outlier correction stream.
    pub outlier_stream: Vec<u8>,
    /// Wall time per pipeline stage.
    pub times: StageTimes,
}

/// The single-chunk PWE pipeline assembled step-by-step from public
/// APIs, the way `pipeline.rs` worked before the hot-path overhaul:
/// per-line (reference) wavelet transforms, a fresh allocation per
/// intermediate buffer, one thread, serial elementwise sweeps. This is
/// the oracle the production [`compress_chunk`] must match
/// bit-for-bit.
pub fn reference_chunk_pwe(
    data: &[f64],
    dims: [usize; 3],
    t: f64,
    q_factor: f64,
    kernel: Kernel,
) -> ReferenceChunk {
    let levels = levels_for_dims(dims);
    let q = q_factor * t;

    let t0 = Instant::now();
    let mut coeffs = data.to_vec();
    reference::forward_3d(&mut coeffs, dims, levels, kernel);
    let wavelet = t0.elapsed();

    let t1 = Instant::now();
    let enc = sperr_speck::encode(&coeffs, dims, q, Termination::Quality);
    let speck = t1.elapsed();

    let t2 = Instant::now();
    let mut recon = sperr_speck::reconstruct_quantized(&coeffs, q);
    reference::inverse_3d(&mut recon, dims, levels, kernel);
    let outliers: Vec<Outlier> = data
        .iter()
        .zip(&recon)
        .enumerate()
        .filter_map(|(pos, (&orig, &rec))| {
            let corr = orig - rec;
            (corr.abs() > t).then_some(Outlier { pos, corr })
        })
        .collect();
    let locate_outliers = t2.elapsed();

    let t3 = Instant::now();
    let out_enc = sperr_outlier::encode(&outliers, data.len(), t);
    let outlier_coding = t3.elapsed();

    ReferenceChunk {
        speck_stream: enc.stream,
        outlier_stream: out_enc.stream,
        times: StageTimes {
            wavelet,
            speck,
            locate_outliers,
            outlier_coding,
            ..StageTimes::default()
        },
    }
}

/// The production chunk coder on the dense PWE chunk `data`, serially
/// with a fresh arena.
fn production_chunk_pwe(
    data: &[f64],
    dims: [usize; 3],
    t: f64,
    q_factor: f64,
    kernel: Kernel,
) -> Result<ChunkEncoding, Refusal> {
    let (spec, mode) = (ChunkSpec { offset: [0; 3], dims }, ChunkMode::Pwe { t, q_factor });
    let (pool, mut arena) = (WorkerPool::inline(), ScratchArena::new());
    compress_chunk(data, dims, &spec, mode, kernel, &pool, &mut arena)
}

/// The production chunk encoder must emit the same SPECK and outlier
/// bytes as [`reference_chunk_pwe`].
pub fn encoder_matches_reference(
    data: &[f64],
    dims: [usize; 3],
    t: f64,
    q_factor: f64,
    kernel: Kernel,
) -> CheckResult {
    let want = reference_chunk_pwe(data, dims, t, q_factor, kernel);
    let got = production_chunk_pwe(data, dims, t, q_factor, kernel).map_err(|bad| CheckFailure {
        check: "encoder-vs-reference",
        detail: format!("production encoder refused dims {dims:?}: {}", bad.into_error(0)),
    })?;
    if got.speck_stream != want.speck_stream {
        return fail(
            "encoder-vs-reference",
            format!(
                "SPECK stream diverged on dims {dims:?} t={t:e}: {} vs {} bytes",
                got.speck_stream.len(),
                want.speck_stream.len()
            ),
        );
    }
    if got.outlier_stream != want.outlier_stream {
        return fail(
            "encoder-vs-reference",
            format!(
                "outlier stream diverged on dims {dims:?} t={t:e}: {} vs {} bytes",
                got.outlier_stream.len(),
                want.outlier_stream.len()
            ),
        );
    }
    Ok(())
}

/// Two independently produced streams that claim to be the same encoding
/// must be the same bytes. `label` names the pair in the failure (e.g.
/// `"pre-PR vs pooled"`); callers that already hold both streams (the
/// bench binary times its own compressions) assert through this instead
/// of an ad-hoc `assert_eq!`.
pub fn streams_bit_identical(label: &str, a: &[u8], b: &[u8]) -> CheckResult {
    if a == b {
        return Ok(());
    }
    let first = a.iter().zip(b.iter()).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    fail(
        "stream-identity",
        format!(
            "{label}: streams diverge ({} vs {} bytes, first difference at byte {first})",
            a.len(),
            b.len()
        ),
    )
}

// ---------------------------------------------------------------------
// Oracle 3: thread-count bit identity of the full container.
// ---------------------------------------------------------------------

/// Compressing the same field with the same configuration must produce
/// the **same bytes** at every worker-pool width — parallelism is a
/// scheduling decision, never an encoding decision. Returns the
/// (identical) stream so callers can feed it to further checks without
/// recompressing.
pub fn thread_count_bit_identity(
    field: &Field,
    bound: Bound,
    chunk_dims: [usize; 3],
    thread_counts: &[usize],
) -> Result<Vec<u8>, CheckFailure> {
    let build = |threads: usize| {
        Sperr::new(SperrConfig { chunk_dims, num_threads: threads, ..SperrConfig::default() })
    };
    let (&first, rest) = thread_counts
        .split_first()
        .expect("thread_count_bit_identity needs at least one thread count");
    let baseline = build(first).compress(field, bound).map_err(|e| CheckFailure {
        check: "thread-identity",
        detail: format!("{first}-thread compress failed: {e}"),
    })?;
    for &threads in rest {
        let stream = build(threads).compress(field, bound).map_err(|e| CheckFailure {
            check: "thread-identity",
            detail: format!("{threads}-thread compress failed: {e}"),
        })?;
        if stream != baseline {
            return Err(CheckFailure {
                check: "thread-identity",
                detail: format!(
                    "stream differs between {first} and {threads} threads \
                     (dims {:?}, chunk {chunk_dims:?}, {} vs {} bytes)",
                    field.dims,
                    baseline.len(),
                    stream.len()
                ),
            });
        }
    }
    Ok(baseline)
}

// ---------------------------------------------------------------------
// Oracle 4: the resilient decoder vs the strict decoder on clean input.
// ---------------------------------------------------------------------

/// On an *undamaged* stream, [`Sperr::read`] under [`OnDamage::ZeroFill`] must agree
/// bit-for-bit with the strict [`Sperr::decompress`] and report every
/// chunk healthy — degradation paths must cost nothing when nothing is
/// degraded.
pub fn resilient_matches_strict(sperr: &Sperr, stream: &[u8]) -> CheckResult {
    let strict = sperr.decompress(stream).map_err(|e| CheckFailure {
        check: "resilient-vs-strict",
        detail: format!("strict decode failed on clean stream: {e}"),
    })?;
    let resilient = sperr.read::<f64>(stream, ReadRequest::Full, OnDamage::ZeroFill);
    let ReadOutput { field: resilient, report, .. } = resilient.map_err(|e| CheckFailure {
        check: "resilient-vs-strict",
        detail: format!("resilient decode failed on clean stream: {e}"),
    })?;
    if !report.all_ok() {
        return fail(
            "resilient-vs-strict",
            format!("clean stream reported damaged chunks: {:?}", report.failed_chunks()),
        );
    }
    if resilient.dims != strict.dims {
        return fail(
            "resilient-vs-strict",
            format!("dims diverged: {:?} vs {:?}", resilient.dims, strict.dims),
        );
    }
    if let Some((i, r, s)) = first_bit_mismatch(&resilient.data, &strict.data) {
        return fail(
            "resilient-vs-strict",
            format!("value diverged at {i}: resilient {r:e} vs strict {s:e}"),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Oracle 5: encode → decode → re-encode stability.
// ---------------------------------------------------------------------

/// Re-encoding a reconstruction under the same bound must keep honoring
/// the codec's documented budget *relative to that reconstruction* —
/// i.e. a decompress→compress cycle drifts by at most one budget, never
/// compounds unboundedly. `budget` is the guarantee for `bound` (see
/// [`crate::corpus::documented_budget`]).
pub fn reencode_idempotent(
    codec: &dyn LossyCompressor,
    field: &Field,
    bound: Bound,
    budget: ErrorBudget,
) -> CheckResult {
    let err = |what: &str, e: sperr_compress_api::CompressError| CheckFailure {
        check: "reencode-idempotent",
        detail: format!("{what} failed on dims {:?}: {e}", field.dims),
    };
    let first = codec.compress(field, bound).map_err(|e| err("first compress", e))?;
    let recon = codec.decompress(&first).map_err(|e| err("first decompress", e))?;
    let second = codec.compress(&recon, bound).map_err(|e| err("re-compress", e))?;
    let recon2 = codec.decompress(&second).map_err(|e| err("second decompress", e))?;
    if let Err((observed, allowed)) = check_budget(&recon.data, &recon2.data, budget) {
        return fail(
            "reencode-idempotent",
            format!(
                "{} re-encode drifted past its budget on dims {:?}: observed {observed:e}, \
                 allowed {allowed:e}",
                codec.name(),
                field.dims
            ),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Oracle 6 & 7: stage-level round trips (SPECK, outlier coder).
// ---------------------------------------------------------------------

/// A quality-terminated SPECK stream must decode to exactly the midpoint
/// reconstruction of the encoder's own quantization — the decoder's
/// documented contract.
pub fn speck_roundtrip_stable(coeffs: &[f64], dims: [usize; 3], q: f64) -> CheckResult {
    let enc = sperr_speck::encode(coeffs, dims, q, Termination::Quality);
    let want = sperr_speck::reconstruct_quantized(coeffs, q);
    let got = sperr_speck::decode(&enc.stream, dims, q, enc.num_planes).map_err(|e| {
        CheckFailure {
            check: "speck-roundtrip",
            detail: format!("decode failed on own stream (dims {dims:?}, q {q:e}): {e}"),
        }
    })?;
    if let Some((i, g, w)) = first_bit_mismatch(&got, &want) {
        return fail(
            "speck-roundtrip",
            format!("dims {dims:?} q {q:e}: decoded[{i}]={g:e} != quantized[{i}]={w:e}"),
        );
    }
    Ok(())
}

/// The word-granular SPECK hot path (cached set significance, coalesced
/// zero runs, packed refinement words) must emit the **same bytes and
/// the same bit counters** as the retained bit-at-a-time encoder in
/// `sperr_speck::reference`, in both termination modes. This is the
/// stage-level oracle behind the PR 4 fast-path overhaul; the golden
/// corpus then pins the same property end-to-end.
pub fn speck_matches_reference(coeffs: &[f64], dims: [usize; 3], q: f64) -> CheckResult {
    let mismatch = |mode: &str, what: &str, got: usize, want: usize| {
        fail(
            "speck-vs-reference",
            format!("dims {dims:?} q {q:e} ({mode}): {what} diverged, {got} vs {want}"),
        )
    };
    let fast = sperr_speck::encode(coeffs, dims, q, Termination::Quality);
    let slow = sperr_speck::reference::encode(coeffs, dims, q, Termination::Quality);
    if fast.stream != slow.stream {
        return mismatch("quality", "stream bytes", fast.stream.len(), slow.stream.len());
    }
    if fast.bits_used != slow.bits_used {
        return mismatch("quality", "bits_used", fast.bits_used, slow.bits_used);
    }
    if fast.significance_bits != slow.significance_bits {
        return mismatch(
            "quality",
            "significance_bits",
            fast.significance_bits,
            slow.significance_bits,
        );
    }
    if fast.refinement_bits != slow.refinement_bits {
        return mismatch("quality", "refinement_bits", fast.refinement_bits, slow.refinement_bits);
    }
    // A budget cut mid-stream exercises the run-truncation and partial-word
    // paths; two-thirds of the full length lands inside the coded body.
    let budget = fast.bits_used * 2 / 3;
    let fast_b = sperr_speck::encode(coeffs, dims, q, Termination::BitBudget(budget));
    let slow_b = sperr_speck::reference::encode(coeffs, dims, q, Termination::BitBudget(budget));
    if fast_b.stream != slow_b.stream {
        return mismatch("budget", "stream bytes", fast_b.stream.len(), slow_b.stream.len());
    }
    if fast_b.bits_used != slow_b.bits_used {
        return mismatch("budget", "bits_used", fast_b.bits_used, slow_b.bits_used);
    }
    Ok(())
}

/// What the SPECK encoder *did*, not only what it wrote: sets split and
/// bulk zero runs per corpus input — `[quality, 2/3-budget, f32
/// quality]` × `[sets_split, zero_runs]` at `q = 1.5 · tolerance(idx
/// 15)` — as measured at commit `b4c368a`, the last with a `SetS` walker
/// and a Morton twin on the hot path. The reference encoder reports 0
/// for both, so the bytes-and-bit-counters oracle above cannot see a
/// coder that reaches the same stream by a different walk; these can.
const SPECK_STRUCTURE: [(&str, [usize; 6]); 8] = [
    ("press-1d61", [60, 5, 60, 5, 60, 5]),
    ("press-2d29x23", [314, 160, 314, 160, 314, 160]),
    ("press-3d16", [585, 1551, 585, 1544, 585, 1551]),
    ("press-3d21x10x11", [1135, 698, 1135, 691, 1135, 698]),
    ("nyx-1d61", [60, 28, 60, 28, 60, 28]),
    ("nyx-2d29x23", [314, 374, 306, 347, 314, 374]),
    ("nyx-3d16", [585, 2512, 585, 2215, 585, 2512]),
    ("nyx-3d21x10x11", [1131, 1205, 1046, 1008, 1131, 1205]),
];

/// `sets_split` and `zero_runs` of the production encoder on corpus
/// input `id` must equal the pinned [`SPECK_STRUCTURE`] row.
pub fn speck_structure_pinned(
    id: &str,
    coeffs: &[f64],
    coeffs32: &[f32],
    dims: [usize; 3],
    q: f64,
) -> CheckResult {
    let Some((_, want)) = SPECK_STRUCTURE.iter().find(|(name, _)| *name == id) else {
        return fail("speck-structure", format!("no pinned row for corpus input {id}"));
    };
    let full = sperr_speck::encode(coeffs, dims, q, Termination::Quality);
    let budget = Termination::BitBudget(full.bits_used * 2 / 3);
    let cut = sperr_speck::encode(coeffs, dims, q, budget);
    let full32 = sperr_speck::encode(coeffs32, dims, q, Termination::Quality);
    let got = [
        full.sets_split,
        full.zero_runs,
        cut.sets_split,
        cut.zero_runs,
        full32.sets_split,
        full32.zero_runs,
    ];
    if got != *want {
        return fail("speck-structure", format!("{id}: {got:?}, pinned {want:?}"));
    }
    Ok(())
}

/// The decoder against its oracle: `sperr_speck::decode` walks cell
/// numbers — the dyadic geometry on a power-of-two cube, the tabled one
/// on every other shape — while `sperr_speck::reference::decode` walks
/// cuboid sets bit by bit, and the two must return the same `Ok`/`Err`
/// and bit-identical samples — for the full stream, a bit-budget stream
/// and byte prefixes of both (truncation inside sorting and refinement
/// passes alike), at both sample widths. Swept on the input's own shape
/// and on the cubes (1-D, 2-D and 3-D, the largest the samples fill) cut
/// from the head of `samples`, so every corpus input exercises both
/// geometries whatever its shape.
pub fn speck_decode_matches_reference(samples: &[f64], dims: [usize; 3], q: f64) -> CheckResult {
    fn sweep<T: Float, const D: usize>(coeffs: &[T], dims: [usize; D], q: f64) -> CheckResult {
        let full = sperr_speck::encode(coeffs, dims, q, Termination::Quality);
        let budget = Termination::BitBudget(full.bits_used * 2 / 3);
        let cut = sperr_speck::encode(coeffs, dims, q, budget);
        for enc in [&full, &cut] {
            let total = enc.stream.len();
            for len in (0..total).step_by((total / 16).max(1)).chain([total]) {
                let prefix = &enc.stream[..len];
                let fast = sperr_speck::decode::<T, D>(prefix, dims, q, enc.num_planes);
                let oracle =
                    sperr_speck::reference::decode::<T, D>(prefix, dims, q, enc.num_planes);
                let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
                if fast.as_deref().map(bits) != oracle.as_deref().map(bits) {
                    return fail(
                        "speck-decode-vs-reference",
                        format!(
                            "{} dims {dims:?} q {q:e}: decoder and oracle diverge on the \
                             {len}-byte prefix of a {total}-byte stream",
                            T::NAME
                        ),
                    );
                }
            }
        }
        Ok(())
    }
    fn cube<T: Float, const D: usize>(samples: &[T], q: f64) -> CheckResult {
        let mut side = 1usize;
        while (side * 2).pow(D as u32) <= samples.len() {
            side *= 2;
        }
        if side < 2 {
            return Ok(());
        }
        sweep(&samples[..side.pow(D as u32)], [side; D], q)
    }
    let narrow: Vec<f32> = samples.iter().map(|&v| v as f32).collect();
    sweep(samples, dims, q)?;
    sweep(&narrow, dims, q)?;
    cube::<f64, 1>(samples, q)?;
    cube::<f64, 2>(samples, q)?;
    cube::<f64, 3>(samples, q)?;
    cube::<f32, 1>(&narrow, q)?;
    cube::<f32, 2>(&narrow, q)?;
    cube::<f32, 3>(&narrow, q)
}

// ---------------------------------------------------------------------
// Oracle 8: random-access region decode vs the full decode.
// ---------------------------------------------------------------------

/// Deterministic bbox sampler for the region oracle: always includes the
/// degenerate extremes (full volume, single voxel, a chunk-straddling
/// box, a prime-offset box), then fills up to `n` with seeded random
/// boxes. Every box is half-open `[lo, hi)` and in-bounds by
/// construction.
pub fn region_bboxes(
    dims: [usize; 3],
    chunk_dims: [usize; 3],
    n: usize,
    seed: u64,
) -> Vec<([usize; 3], [usize; 3])> {
    use rand::{rngs::StdRng, Rng as _, SeedableRng};
    let mut out = Vec::with_capacity(n);
    // Full volume: region decode must degrade gracefully to a plain
    // decompress.
    out.push(([0; 3], dims));
    // Single voxel, dead centre.
    let c = [dims[0] / 2, dims[1] / 2, dims[2] / 2];
    out.push((c, [c[0] + 1, c[1] + 1, c[2] + 1]));
    // Chunk-straddling: one voxel either side of the first chunk
    // boundary on every axis that has one.
    let straddle_lo = [
        chunk_dims[0].min(dims[0]).saturating_sub(1),
        chunk_dims[1].min(dims[1]).saturating_sub(1),
        chunk_dims[2].min(dims[2]).saturating_sub(1),
    ];
    let straddle_hi = [
        (straddle_lo[0] + 2).min(dims[0]),
        (straddle_lo[1] + 2).min(dims[1]),
        (straddle_lo[2] + 2).min(dims[2]),
    ];
    out.push((straddle_lo, straddle_hi));
    // Prime offsets and extents — misaligned with every power-of-two
    // chunk grid.
    let plo = [3 % dims[0].max(1), 5 % dims[1].max(1), 7 % dims[2].max(1)];
    let phi = [
        (plo[0] + 11).min(dims[0]).max(plo[0] + 1),
        (plo[1] + 13).min(dims[1]).max(plo[1] + 1),
        (plo[2] + 17).min(dims[2]).max(plo[2] + 1),
    ];
    out.push((plo, phi));
    let mut rng = StdRng::seed_from_u64(seed);
    while out.len() < n {
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for a in 0..3 {
            let x0 = rng.next_u64() as usize % dims[a];
            let x1 = x0 + 1 + rng.next_u64() as usize % (dims[a] - x0);
            lo[a] = x0;
            hi[a] = x1;
        }
        out.push((lo, hi));
    }
    out.truncate(n);
    out
}

/// `Sperr::decode_region` must be **bit-identical** to slicing the same
/// bbox out of a full [`Sperr::decompress`], at every thread count, with
/// a healthy per-chunk report. `expect_index` asserts how the region was
/// located: via the v3 chunk index (`true`) or the legacy chunk-table
/// scan (`false`) — catching a v3 stream that silently fell back.
pub fn region_vs_full(
    stream: &[u8],
    chunk_dims: [usize; 3],
    bboxes: &[([usize; 3], [usize; 3])],
    thread_counts: &[usize],
    expect_index: bool,
) -> CheckResult {
    let build = |threads: usize| {
        Sperr::new(SperrConfig { chunk_dims, num_threads: threads, ..SperrConfig::default() })
    };
    let full = build(1).decompress(stream).map_err(|e| CheckFailure {
        check: "region-vs-full",
        detail: format!("full decompress failed: {e}"),
    })?;
    let [nx, ny, _] = full.dims;
    for &(lo, hi) in bboxes {
        let mut want = Vec::with_capacity((hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]));
        for z in lo[2]..hi[2] {
            for y in lo[1]..hi[1] {
                let row = (z * ny + y) * nx + lo[0];
                want.extend_from_slice(&full.data[row..row + (hi[0] - lo[0])]);
            }
        }
        for &threads in thread_counts {
            let (region, report) =
                build(threads).decode_region(stream, lo, hi).map_err(|e| CheckFailure {
                    check: "region-vs-full",
                    detail: format!("decode_region {lo:?}..{hi:?} @{threads}t failed: {e}"),
                })?;
            if !report.all_ok() {
                return fail(
                    "region-vs-full",
                    format!(
                        "clean stream, bbox {lo:?}..{hi:?} @{threads}t: damaged chunks \
                         reported: {:?}",
                        report.statuses
                    ),
                );
            }
            if report.used_index != expect_index {
                return fail(
                    "region-vs-full",
                    format!(
                        "bbox {lo:?}..{hi:?} @{threads}t: used_index {} but expected {}",
                        report.used_index, expect_index
                    ),
                );
            }
            let expect_dims = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
            if region.dims != expect_dims {
                return fail(
                    "region-vs-full",
                    format!(
                        "bbox {lo:?}..{hi:?} @{threads}t: sub-volume dims {:?} != {expect_dims:?}",
                        region.dims
                    ),
                );
            }
            if let Some((i, r, f)) = first_bit_mismatch(&region.data, &want) {
                return fail(
                    "region-vs-full",
                    format!(
                        "bbox {lo:?}..{hi:?} @{threads}t: region[{i}]={r:e} != full-slice[{i}]={f:e}"
                    ),
                );
            }
        }
    }
    Ok(())
}

/// The streams the region and multires oracles decode: each corpus field
/// under every wavelet kernel at f64, and under the paper's at f32-native.
/// A region or coarse read assembles only its synthesis support and lifts
/// only the lines reaching it, so every kernel and width needs its own
/// proof that nothing it reads was left out.
pub const READ_VARIANTS: [(&str, Kernel, bool); 4] = [
    ("cdf97", Kernel::Cdf97, false),
    ("cdf53", Kernel::Cdf53, false),
    ("haar", Kernel::Haar, false),
    ("cdf97-f32", Kernel::Cdf97, true),
];

/// `field` compressed as a corpus region-oracle stream (PWE at idx 15) of
/// `variant`, with `chunk_dims`.
pub fn variant_stream(
    field: &Field,
    (_, kernel, narrow): (&str, Kernel, bool),
    chunk_dims: [usize; 3],
) -> Result<Vec<u8>, sperr_compress_api::CompressError> {
    let config = SperrConfig { chunk_dims, kernel, num_threads: 1, ..SperrConfig::default() };
    let sperr = Sperr::new(config);
    let bound = Bound::Pwe(field.tolerance_for_idx(15));
    if narrow {
        sperr.compress_f32(&field.narrow_lossy(), bound)
    } else {
        sperr.compress(field, bound)
    }
}

/// CRC-32 of everything a [`ReadRequest::Level`] read answers for `field`
/// at levels 1–3 under every [`READ_VARIANTS`] entry, in 16³ chunks and in
/// one chunk, decoded at `threads`: the little-endian dims and samples of
/// each coarse volume, or the text of its typed refusal. Pinned per corpus
/// field (`MULTIRES_CRC`) with the values the decoder gave before coarse
/// reads decoded only their corner, so they stay bit-identical.
pub fn multires_digest(field: &Field, threads: usize) -> u32 {
    let mut bytes = Vec::new();
    for variant in READ_VARIANTS {
        for chunk_dims in [[16, 16, 16], [256, 256, 256]] {
            let stream = match variant_stream(field, variant, chunk_dims) {
                Ok(stream) => stream,
                Err(e) => {
                    bytes.extend(e.to_string().into_bytes());
                    continue;
                }
            };
            let config = SperrConfig { chunk_dims, num_threads: threads, ..SperrConfig::default() };
            let sperr = Sperr::new(config);
            for level in 1..=3 {
                match sperr.read::<f64>(&stream, ReadRequest::Level(level), OnDamage::Fail) {
                    Ok(ReadOutput { field: coarse, .. }) => {
                        bytes.extend(coarse.dims.iter().flat_map(|&d| (d as u64).to_le_bytes()));
                        bytes.extend(coarse.data.iter().flat_map(|v| v.to_le_bytes()));
                    }
                    Err(e) => bytes.extend(e.to_string().into_bytes()),
                }
            }
        }
    }
    sperr_core::crc32(&bytes)
}

/// [`multires_digest`] of every corpus field, pinned: `(corpus id, CRC)`.
/// The 1-D and 2-D fields pin only refusals (no chunk of theirs has a
/// transform level on every axis), which read the same for both fields.
pub const MULTIRES_CRC: [(&str, u32); 8] = [
    ("press-1d61", 0xE252_E9E5),
    ("press-2d29x23", 0x2A89_6EF6),
    ("press-3d16", 0xFD0E_55E5),
    ("press-3d21x10x11", 0x69D9_B748),
    ("nyx-1d61", 0xE252_E9E5),
    ("nyx-2d29x23", 0x2A89_6EF6),
    ("nyx-3d16", 0xCC3F_039F),
    ("nyx-3d21x10x11", 0xF30F_7D44),
];

/// Coarse reads of `field` (corpus id `id`) match their pinned digest at
/// one thread and at three.
pub fn multires_pinned(id: &str, field: &Field) -> CheckResult {
    let Some(&(_, want)) = MULTIRES_CRC.iter().find(|(pinned, _)| *pinned == id) else {
        return fail("multires-pinned", format!("{id}: no pinned digest"));
    };
    for threads in [1, 3] {
        let got = multires_digest(field, threads);
        if got != want {
            return fail(
                "multires-pinned",
                format!("{id} @{threads}t: coarse reads digest to {got:#010X}, not {want:#010X}"),
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Oracle 8b: region reads through a damaged lossless wrapper.
// ---------------------------------------------------------------------

/// One SLZ1 block of a lossless-packed stream: the container bytes it
/// holds (`raw`) and where its own bytes — stored data or coded payload —
/// sit in the SPERR stream (`src`, outer flag byte included).
struct WrapperBlock {
    raw: std::ops::Range<usize>,
    src: std::ops::Range<usize>,
    coded: bool,
}

/// Walks the SLZ1 block headers of a lossless-packed SPERR stream (flag
/// byte, `"SLZ1"`, `u64` raw length, then per block: flags, `u32` raw
/// length, and for coded blocks a `u32` payload length). An independent
/// reading of the format documented in `sperr-lossless`, so the oracle
/// does not lean on the directory code it is checking.
fn wrapper_blocks(stream: &[u8]) -> Option<Vec<WrapperBlock>> {
    let u32_at = |at: usize| -> Option<usize> {
        Some(u32::from_le_bytes(stream.get(at..at + 4)?.try_into().ok()?) as usize)
    };
    if stream.first() != Some(&1) || stream.get(1..5)? != b"SLZ1" {
        return None;
    }
    let (mut at, mut raw_at, mut blocks) = (13usize, 0usize, Vec::new());
    loop {
        let flags = *stream.get(at)?;
        let raw_len = u32_at(at + 1)?;
        let coded = flags & 1 != 0;
        let (src_start, src_len) =
            if coded { (at + 9, u32_at(at + 5)?) } else { (at + 5, raw_len) };
        blocks.push(WrapperBlock {
            raw: raw_at..raw_at + raw_len,
            src: src_start..src_start + src_len,
            coded,
        });
        raw_at += raw_len;
        at = src_start + src_len;
        if flags & 2 != 0 {
            return Some(blocks);
        }
    }
}

/// A default-configuration (lossless on, v3) stream for
/// [`region_survives_wrapper_damage`]: 64 chunks whose container spans
/// four SLZ1 blocks, three coded and one stored, so both kinds of block
/// get damaged. Returns the stream, its chunk dims and its volume dims.
pub fn wrapper_damage_stream() -> (Vec<u8>, [usize; 3], [usize; 3]) {
    let dims = [64, 64, 64];
    let chunk_dims = [16, 16, 16];
    let field = sperr_datagen::SyntheticField::MirandaPressure.generate(dims, 5);
    let sperr = Sperr::new(SperrConfig { chunk_dims, num_threads: 1, ..SperrConfig::default() });
    let stream = sperr
        .compress(&field, Bound::Pwe(field.tolerance_for_idx(14)))
        .expect("a valid field and tolerance compress");
    (stream, chunk_dims, dims)
}

/// What a region read owes a caller whose stream is damaged *inside the
/// lossless wrapper* (the default configuration), for each bbox:
///
/// 1. damage confined to an SLZ1 block that holds neither the container
///    head nor a touched chunk's payload is invisible — healthy report,
///    bytes identical to the clean read — although a full decode of the
///    same stream fails;
/// 2. damage in a block under a touched chunk's payload is contained per
///    chunk: the call succeeds, only chunks whose payload overlaps that
///    block may be reported failed (and at least one is), their voxels
///    read 0, every other voxel is identical to the clean read;
/// 3. damage in the head's block fails the call.
///
/// Stored blocks are damaged at a byte of the payload in question; coded
/// blocks in their Huffman tables, which every decode of the block reads.
/// Needs a stream spanning at least three SLZ1 blocks.
pub fn region_survives_wrapper_damage(
    stream: &[u8],
    chunk_dims: [usize; 3],
    bboxes: &[([usize; 3], [usize; 3])],
) -> CheckResult {
    const CHECK: &str = "region-wrapper-damage";
    let sperr = Sperr::new(SperrConfig { chunk_dims, num_threads: 2, ..SperrConfig::default() });
    let info = sperr
        .inspect(stream)
        .map_err(|e| CheckFailure { check: CHECK, detail: format!("inspect failed: {e}") })?;
    let Some(blocks) = wrapper_blocks(stream).filter(|b| b.len() >= 3) else {
        return fail(CHECK, "stream is not lossless-packed over at least three blocks".into());
    };
    let grid = sperr_core::chunk_grid(info.dims, chunk_dims);
    // Container byte range of every chunk payload, and of the head.
    let mut payloads = Vec::with_capacity(info.n_chunks);
    let mut at = info.payload_offset;
    for &size in &info.chunk_payload_sizes {
        payloads.push(at..at + size);
        at += size;
    }
    let overlaps =
        |a: &std::ops::Range<usize>, b: &std::ops::Range<usize>| a.start < b.end && b.start < a.end;
    let head = 0..info.payload_offset;
    // Overwrites a few bytes of block `b`: at container offset `at` when
    // the block is stored, in the code tables when it is coded.
    let damage = |b: &WrapperBlock, at: usize| {
        let mut bad = stream.to_vec();
        let start = if b.coded { b.src.start } else { b.src.start + (at - b.raw.start) };
        for byte in &mut bad[start..(start + 24).min(b.src.end)] {
            *byte = !*byte;
        }
        bad
    };

    for &(lo, hi) in bboxes {
        let (clean, report) = sperr.decode_region(stream, lo, hi).map_err(|e| CheckFailure {
            check: CHECK,
            detail: format!("clean decode_region {lo:?}..{hi:?} failed: {e}"),
        })?;
        let touched = &report.chunk_ids;
        let needed: Vec<bool> = blocks
            .iter()
            .map(|b| {
                overlaps(&b.raw, &head) || touched.iter().any(|&c| overlaps(&b.raw, &payloads[c]))
            })
            .collect();

        // 1. A block the read does not need.
        if let Some(b) = blocks.iter().zip(&needed).find(|(_, &n)| !n).map(|(b, _)| b) {
            let bad = damage(b, b.raw.start + b.raw.len() / 2);
            if sperr.decompress(&bad).is_ok() {
                return fail(
                    CHECK,
                    format!("bbox {lo:?}..{hi:?}: damage went unnoticed by a full decode"),
                );
            }
            match sperr.decode_region(&bad, lo, hi) {
                Ok((region, rep)) if rep.all_ok() => {
                    if let Some((i, r, f)) = first_bit_mismatch(&region.data, &clean.data) {
                        return fail(
                            CHECK,
                            format!("bbox {lo:?}..{hi:?}: unneeded-block damage changed region[{i}]: {r:e} != {f:e}"),
                        );
                    }
                }
                Ok((_, rep)) => {
                    return fail(
                        CHECK,
                        format!(
                            "bbox {lo:?}..{hi:?}: damage in an unneeded block reported as {:?}",
                            rep.statuses
                        ),
                    )
                }
                Err(e) => {
                    return fail(
                        CHECK,
                        format!(
                            "bbox {lo:?}..{hi:?}: damage in an unneeded block failed the read: {e}"
                        ),
                    )
                }
            }
        }

        // 2. A block under a touched payload (and not under the head).
        let victim = touched.iter().find_map(|&c| {
            let b = blocks
                .iter()
                .find(|b| overlaps(&b.raw, &payloads[c]) && !overlaps(&b.raw, &head))?;
            Some((b, payloads[c].start.max(b.raw.start)))
        });
        if let Some((b, at)) = victim {
            let bad = damage(b, at);
            let (region, rep) = sperr.decode_region(&bad, lo, hi).map_err(|e| CheckFailure {
                check: CHECK,
                detail: format!(
                    "bbox {lo:?}..{hi:?}: damage under a touched chunk failed the whole read: {e}"
                ),
            })?;
            let failed: Vec<usize> = rep
                .chunk_ids
                .iter()
                .zip(&rep.statuses)
                .filter(|(_, s)| !matches!(s, sperr_core::ChunkStatus::Ok))
                .map(|(&c, _)| c)
                .collect();
            if failed.is_empty() || failed.iter().any(|&c| !overlaps(&b.raw, &payloads[c])) {
                return fail(
                    CHECK,
                    format!(
                        "bbox {lo:?}..{hi:?}: block {:?} damaged, chunks reported failed: {failed:?} of {touched:?}",
                        b.raw
                    ),
                );
            }
            let dims = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
            for (i, (&got, &want)) in region.data.iter().zip(&clean.data).enumerate() {
                let p = [
                    lo[0] + i % dims[0],
                    lo[1] + i / dims[0] % dims[1],
                    lo[2] + i / (dims[0] * dims[1]),
                ];
                let chunk = grid.iter().position(|s| {
                    (0..3).all(|d| (s.offset[d]..s.offset[d] + s.dims[d]).contains(&p[d]))
                });
                let want = if chunk.is_some_and(|c| failed.contains(&c)) { 0.0 } else { want };
                if got.to_bits() != want.to_bits() {
                    return fail(
                        CHECK,
                        format!(
                            "bbox {lo:?}..{hi:?}: voxel {p:?} reads {got:e}, expected {want:e}"
                        ),
                    );
                }
            }
        }

        // 3. The head's block.
        if let Some(b) = blocks.iter().find(|b| overlaps(&b.raw, &head)) {
            if sperr.decode_region(&damage(b, 4), lo, hi).is_ok() {
                return fail(
                    CHECK,
                    format!("bbox {lo:?}..{hi:?}: head damage did not fail the read"),
                );
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Oracle 9: the f32-native path vs the widened-f64 path.
// ---------------------------------------------------------------------

/// The f32-native pipeline against the f64 pipeline fed the widened
/// copy of the same samples. Four properties, all on one compression:
///
/// 1. the native stream is marked f32 (precision tag 2) and its own
///    reconstruction honors the PWE bound at the f32-adjusted budget
///    ([`f32_budget`]);
/// 2. the f64 decode surface on the native stream is *exactly* the
///    widened f32 reconstruction — one decode, two views, no second
///    rounding;
/// 3. the native reconstruction stays within the combined budget of the
///    widened-f64 path's reconstruction (both are within their own
///    budget of the same input, so a larger gap means one path drifted);
/// 4. the native stream is bit-identical at every worker-pool width, the
///    same thread-identity contract the f64 path pins.
pub fn f32_vs_widened(
    field32: &FieldOf<f32>,
    t: f64,
    chunk_dims: [usize; 3],
    thread_counts: &[usize],
) -> CheckResult {
    let dims = field32.dims;
    let err = |what: &str, e: sperr_compress_api::CompressError| CheckFailure {
        check: "f32-vs-widened",
        detail: format!("{what} failed on dims {dims:?} t {t:e}: {e}"),
    };
    let build = |threads: usize| {
        Sperr::new(SperrConfig { chunk_dims, num_threads: threads, ..SperrConfig::default() })
    };
    let sperr = build(thread_counts.first().copied().unwrap_or(1));
    let stream32 = sperr.compress_f32(field32, Bound::Pwe(t)).map_err(|e| err("compress_f32", e))?;

    // Property 1: native marking + PWE at the f32 budget.
    let info = sperr.inspect(&stream32).map_err(|e| err("inspect", e))?;
    if !info.native_f32 {
        return fail(
            "f32-vs-widened",
            format!("compress_f32 stream not marked f32-native (dims {dims:?})"),
        );
    }
    let recon32 = sperr.decompress_f32(&stream32).map_err(|e| err("decompress_f32", e))?;
    let allowed = f32_budget(t, field32.range());
    let observed = field32
        .data
        .iter()
        .zip(&recon32.data)
        .map(|(&a, &b)| (a as f64 - b as f64).abs())
        .fold(0.0, f64::max);
    if observed > allowed {
        return fail(
            "f32-vs-widened",
            format!("native PWE violated on dims {dims:?}: observed {observed:e} > allowed {allowed:e} (t {t:e})"),
        );
    }

    // Property 2: the f64 surface is the exact widening of the f32 decode.
    let recon64 = sperr.decompress(&stream32).map_err(|e| err("decompress (f64 surface)", e))?;
    let widened: Vec<f64> = recon32.data.iter().map(|&v| v as f64).collect();
    if let Some((i, a, b)) = first_bit_mismatch(&recon64.data, &widened) {
        return fail(
            "f32-vs-widened",
            format!(
                "f64 decode of a native stream is not the exact widening: [{i}] {a:e} vs {b:e}"
            ),
        );
    }

    // Property 3: the two paths' reconstructions stay within the combined
    // budget (the widened path guarantees t against the same samples).
    let widened_field = field32.widen();
    let stream64 =
        sperr.compress(&widened_field, Bound::Pwe(t)).map_err(|e| err("widened compress", e))?;
    let recon_w = sperr.decompress(&stream64).map_err(|e| err("widened decompress", e))?;
    let cross = recon_w
        .data
        .iter()
        .zip(&widened)
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0, f64::max);
    let cross_allowed = t + allowed;
    if cross > cross_allowed {
        return fail(
            "f32-vs-widened",
            format!(
                "native and widened reconstructions diverge on dims {dims:?}: \
                 {cross:e} > combined budget {cross_allowed:e}"
            ),
        );
    }

    // Property 4: thread-count bit identity at f32.
    for &threads in thread_counts.iter().skip(1) {
        let other =
            build(threads).compress_f32(field32, Bound::Pwe(t)).map_err(|e| err("compress_f32", e))?;
        if other != stream32 {
            return fail(
                "f32-vs-widened",
                format!(
                    "f32 stream differs between {} and {threads} threads (dims {dims:?}, \
                     {} vs {} bytes)",
                    thread_counts[0],
                    stream32.len(),
                    other.len()
                ),
            );
        }
    }
    Ok(())
}

/// The outlier coder must return corrections at exactly the encoded
/// positions, each within `t` of the original correction (its refinement
/// contract: residual error after correction is at most the tolerance).
pub fn outlier_roundtrip_exact(outliers: &[Outlier], array_len: usize, t: f64) -> CheckResult {
    let enc = sperr_outlier::encode(outliers, array_len, t);
    let mut got =
        sperr_outlier::decode(&enc.stream, array_len, t, enc.max_n).map_err(|e| CheckFailure {
            check: "outlier-roundtrip",
            detail: format!("decode failed on own stream (n {array_len}, t {t:e}): {e}"),
        })?;
    // The decoder emits corrections in refinement order, not position
    // order; normalize before pairing up.
    got.sort_by_key(|o| o.pos);
    let mut want: Vec<Outlier> = outliers.to_vec();
    want.sort_by_key(|o| o.pos);
    if got.len() != want.len() {
        return fail(
            "outlier-roundtrip",
            format!("{} outliers in, {} out (n {array_len}, t {t:e})", want.len(), got.len()),
        );
    }
    for (g, w) in got.iter().zip(&want) {
        if g.pos != w.pos {
            return fail(
                "outlier-roundtrip",
                format!("position drifted: encoded {} decoded {}", w.pos, g.pos),
            );
        }
        let residual = (g.corr - w.corr).abs();
        if residual > t {
            return fail(
                "outlier-roundtrip",
                format!("correction at {} off by {residual:e} > t {t:e}", g.pos),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperr_datagen::SyntheticField;
    use sperr_wavelet::stress::{ReverseOrder, StripedWorkers};

    fn small_field() -> Field {
        SyntheticField::MirandaPressure.generate([13, 10, 11], 3)
    }

    #[test]
    fn lifting_oracle_accepts_all_executors() {
        let f = small_field();
        for exec in [&Serial as &dyn LineExecutor, &ReverseOrder, &StripedWorkers(3)] {
            blocked_lifting_matches_reference_with(&f.data, f.dims, Kernel::Cdf97, exec)
                .unwrap();
        }
    }

    #[test]
    fn encoder_oracle_accepts_production_encoder() {
        let f = small_field();
        let t = f.range() * 1e-3;
        encoder_matches_reference(&f.data, f.dims, t, 1.5, Kernel::Cdf97).unwrap();
    }

    #[test]
    fn encoder_oracle_rejects_perturbed_input() {
        // Sanity: the oracle actually discriminates — reference on one
        // input vs production on a different input must fail.
        let f = small_field();
        let t = f.range() * 1e-3;
        let want = reference_chunk_pwe(&f.data, f.dims, t, 1.5, Kernel::Cdf97);
        let mut perturbed = f.data.clone();
        perturbed[0] += 10.0 * f.range();
        let got = production_chunk_pwe(&perturbed, f.dims, t, 1.5, Kernel::Cdf97).unwrap();
        assert_ne!(got.speck_stream, want.speck_stream);
    }

    #[test]
    fn speck_fast_path_oracle_accepts_production_encoder() {
        let f = small_field();
        let t = f.range() * 1e-3;
        speck_matches_reference(&f.data, f.dims, 1.5 * t).unwrap();
    }

    #[test]
    fn speck_decoder_oracle_accepts_both_geometries() {
        let f = small_field();
        speck_decode_matches_reference(&f.data, f.dims, 1.5e-3 * f.range()).unwrap();
    }

    #[test]
    fn speck_structure_is_pinned_on_the_corpus() {
        for input in crate::corpus::corpus_inputs() {
            let (f, f32s) = (input.generate(), input.generate_f32());
            let q = 1.5 * f.tolerance_for_idx(15);
            speck_structure_pinned(input.id, &f.data, &f32s.data, f.dims, q).unwrap();
        }
        assert!(speck_structure_pinned("no-such-input", &[0.0], &[0.0], [1, 1, 1], 1.0).is_err());
    }

    #[test]
    fn region_oracle_smoke() {
        // Tier-1 smoke: a multi-chunk field, a handful of bboxes, both
        // the indexed and the legacy-scan paths. The full sweep (50
        // bboxes × corpus × 1/2/4/8 threads) runs tier-2 via
        // `sperr-conformance regions`.
        let f = SyntheticField::MirandaPressure.generate([21, 18, 17], 7);
        let chunk_dims = [16, 16, 16];
        let sperr = Sperr::new(SperrConfig {
            chunk_dims,
            num_threads: 1,
            ..SperrConfig::default()
        });
        let t = f.range() * 1e-3;
        let stream = sperr.compress(&f, Bound::Pwe(t)).unwrap();
        let bboxes = region_bboxes(f.dims, chunk_dims, 8, 11);
        region_vs_full(&stream, chunk_dims, &bboxes, &[1, 2], true).unwrap();
        let v2 = sperr.downgrade_to_v2(&stream).unwrap();
        region_vs_full(&v2, chunk_dims, &bboxes, &[1, 2], false).unwrap();
    }

    #[test]
    fn coarse_reads_match_their_pins_and_a_wrong_pin_fails() {
        // The full corpus runs in `sperr-conformance regions`; here one
        // field with coarse levels and one with only refusals.
        for input in crate::corpus::corpus_inputs() {
            if ["press-3d21x10x11", "nyx-1d61"].contains(&input.id) {
                multires_pinned(input.id, &input.generate()).unwrap();
            }
        }
        let other = crate::corpus::corpus_inputs().remove(2).generate();
        assert!(multires_pinned("press-3d21x10x11", &other).is_err());
    }

    #[test]
    fn region_wrapper_damage_oracle_smoke() {
        let (stream, chunk_dims, dims) = wrapper_damage_stream();
        // One chunk, a straddle of eight, a slab, the last chunks.
        let bboxes = [
            ([2, 3, 4], [9, 9, 9]),
            ([30, 30, 30], [35, 34, 33]),
            ([0, 20, 40], [64, 28, 48]),
            ([50, 50, 50], [64, 64, 64]),
        ];
        region_survives_wrapper_damage(&stream, chunk_dims, &bboxes).unwrap();
        // And bit-identity with the full decode on the same multi-block
        // stream, through the sparse inflate.
        region_vs_full(&stream, chunk_dims, &region_bboxes(dims, chunk_dims, 10, 3), &[1, 2], true)
            .unwrap();
    }

    #[test]
    fn f32_oracle_accepts_native_path() {
        // Tier-1 smoke: a multi-chunk 3D field through the f32-native
        // pipeline at two thread counts. The full corpus sweep at
        // 1/2/4/8 threads runs tier-2 via `sperr-conformance oracles`.
        let f = SyntheticField::MirandaPressure.generate([21, 10, 11], 3).narrow_lossy();
        let t = f.tolerance_for_idx(15);
        f32_vs_widened(&f, t, [16, 16, 16], &[1, 2]).unwrap();
    }

    #[test]
    fn stage_roundtrip_oracles_hold() {
        let f = small_field();
        let t = f.range() * 1e-3;
        speck_roundtrip_stable(&f.data, f.dims, 1.5 * t).unwrap();
        let outliers = vec![
            Outlier { pos: 0, corr: 5.0 * t },
            Outlier { pos: 7, corr: -3.2 * t },
            Outlier { pos: f.data.len() - 1, corr: 40.0 * t },
        ];
        outlier_roundtrip_exact(&outliers, f.data.len(), t).unwrap();
    }
}
