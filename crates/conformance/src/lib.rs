//! Conformance subsystem for the SPERR reproduction.
//!
//! SPERR's headline claim is a *guaranteed* maximum point-wise error, and
//! the paper's evaluation (§VI) rests on driving five codecs through
//! identical error bounds. After the hot-path overhaul every future perf
//! or scaling PR carries a real risk of silent encoder regression — a
//! stream that still decodes but no longer matches what yesterday's
//! encoder produced, or an error bound that quietly stopped holding. This
//! crate is the frozen oracle those PRs land against. Three layers:
//!
//! 1. **Golden streams** ([`golden`]): committed, versioned compressed
//!    artifacts for a matrix of synthetic fields × dimension shapes
//!    (1D/2D/3D, odd/prime/pow2) × termination modes, for all five codecs.
//!    A tier-2 test re-encodes each corpus input and compares against the
//!    committed bytes (byte-for-byte), then decodes the committed bytes
//!    and checks the decoded values' digest and error bound
//!    (value-for-value). Regenerate with
//!    `cargo run -p sperr-conformance -- regen` — and bump
//!    [`golden::GOLDEN_VERSION`] when doing so; CI rejects golden changes
//!    without a version bump.
//! 2. **Differential oracles** ([`oracle`]): named, reusable equivalence
//!    checks — blocked-vs-reference wavelet lifting, pooled-vs-single-
//!    thread bit identity, resilient-vs-strict decoding on clean input,
//!    encode→decode→re-encode idempotence, and the composed-from-parts
//!    reference PWE pipeline the bench binary measures against. Tests,
//!    `crates/bench`, and future fuzz targets all call the same
//!    implementations, so "what counts as equivalent" is defined once.
//! 3. **Fault-injection campaign** ([`fault`]): adversarial I/O
//!    endpoints (short reads, scripted `ErrorKind` injection, zero-
//!    progress writers) and scripted worker-panic injection at every
//!    pipeline stage, driven against the streaming API's contract — clean
//!    typed errors, no escaping panics, no hangs (watchdog-enforced), no
//!    partial container that verifies, bounded in-flight memory, and
//!    byte-identity with the in-memory path on every successful run.
//!    `sperr-conformance faults [N]`.
//! 4. **PWE-guarantee campaign** ([`pwe`]): randomized fields with
//!    injected outliers, swept across tolerance decades, asserting
//!    `max|x − x̂| ≤ ε` for SPERR and each baseline's *documented* bound
//!    (ZFP/SZ: ≤ t; MGARD: ≤ its hard `(L+1)·t/2` bound; TTHRESH:
//!    achieved PSNR ≥ target). Failures shrink to a minimal reproducer
//!    dumped under `target/conformance-failures/`.
//! 5. **Region oracle** ([`oracle::region_vs_full`]): `decode_region`
//!    over randomized bboxes (full-volume, single-voxel,
//!    chunk-straddling, prime-offset) must be bit-identical to slicing
//!    the full decode, at every thread count, on both indexed (v3) and
//!    legacy containers; and, on a stream whose lossless wrapper spans
//!    several SLZ1 blocks, damage inside the wrapper must stay contained
//!    ([`oracle::region_survives_wrapper_damage`]: invisible when the
//!    block holds nothing the read needs, reported per chunk when it
//!    does, fatal only in the head). `sperr-conformance regions [N]`.
//! 6. **Progressive-refinement campaign** ([`refine`]): size-bounded
//!    streams decoded at budgets `b1 < b2 < full`; the achieved max
//!    error must be monotone non-increasing, the unbounded budget must
//!    be bit-identical to the strict decode, and truncation must never
//!    error. Failures shrink and dump like the PWE campaign.
//!    `sperr-conformance refine [N]`.
//!
//! The motivating literature: SDRBench (Zhao et al., 2021) on how lossy-
//! compressor results drift without a pinned conformance corpus, and
//! Li et al. (2020) on why error-bounded codecs need end-to-end
//! verification of the bound itself, not just unit tests.

pub mod corpus;
pub mod fault;
pub mod golden;
pub mod oracle;
pub mod pwe;
pub mod refine;

pub use corpus::{documented_budget, CodecId, CorpusInput, ErrorBudget};
pub use fault::{run_fault_campaign, FaultyReader, FaultyWriter};
pub use golden::GOLDEN_VERSION;
pub use oracle::{CheckFailure, CheckResult};
pub use refine::{run_refine_campaign, RefineConfig};
