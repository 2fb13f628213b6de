//! The progressive-refinement campaign: randomized fields decoded at
//! increasing per-chunk byte budgets, asserting the embedded-coding
//! contract end-to-end.
//!
//! Each case synthesizes a spiky random field (the same generator as the
//! PWE campaign), encodes it size-bounded (BPP mode — no outlier stream,
//! so the SPECK truncation story is exercised in isolation), then decodes
//! three previews at budgets `b1 < b2 < full` and asserts:
//!
//! * **monotone refinement**: the achieved max point-wise error never
//!   increases as the budget grows — `err(b1) ≥ err(b2) ≥ err(full)`;
//! * **full-budget identity**: decoding with an unbounded budget is
//!   bit-identical to the plain [`Sperr::decompress`] of the untruncated
//!   stream;
//! * **truncation never errors**: even a near-zero budget decodes
//!   cleanly — budget exhaustion is an early exit, not `Corrupt`.
//!
//! On a violation the campaign shrinks the field with the same greedy
//! half-box cropper as the PWE campaign and dumps a replayable
//! reproducer under `target/conformance-failures/`.

use crate::oracle::CheckFailure;
use crate::pwe::{crop, default_failure_dir, random_dims, random_spiky_field};
use rand::{rngs::StdRng, Rng, SeedableRng};
use sperr_compress_api::{Bound, Field, LossyCompressor};
use sperr_core::{OnDamage, ReadOutput, ReadRequest, Sperr, SperrConfig};
use std::path::PathBuf;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// Number of randomized cases.
    pub cases: usize,
    /// Master seed; case `i` derives its own RNG from `seed ^ i`.
    pub seed: u64,
    /// Where to dump shrunk reproducers (`None` = don't dump).
    pub failure_dir: Option<PathBuf>,
}

impl RefineConfig {
    /// The tier-2 configuration, dumping reproducers under `target/`.
    pub fn tier2(cases: usize) -> Self {
        RefineConfig { cases, seed: 0x9ef1_2026, failure_dir: Some(default_failure_dir()) }
    }
}

/// One fully-determined refinement case.
#[derive(Debug, Clone)]
pub struct RefineCase {
    /// Case index (names the reproducer directory on failure).
    pub index: usize,
    /// The synthesized field.
    pub field: Field,
    /// Bitrate the stream is encoded at (BPP mode).
    pub encode_bpp: f64,
    /// First (coarser) preview bitrate, strictly below `preview_hi`.
    pub preview_lo: f64,
    /// Second preview bitrate, strictly below `encode_bpp`.
    pub preview_hi: f64,
}

/// Campaign outcome.
#[derive(Debug)]
pub struct RefineReport {
    /// Cases executed.
    pub cases: usize,
    /// One failure per violating case (after shrinking).
    pub violations: Vec<CheckFailure>,
}

impl RefineReport {
    /// True when every case refined monotonically.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The SPERR instance the campaign drives: conformance chunking (16³, so
/// modest fields still span several chunks), single thread, indexed
/// container.
fn refine_sperr() -> Sperr {
    Sperr::new(SperrConfig { chunk_dims: [16, 16, 16], num_threads: 1, ..SperrConfig::default() })
}

/// Builds case `index` deterministically from the master seed.
pub fn make_case(index: usize, seed: u64) -> RefineCase {
    let mut rng = StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let dims = random_dims(&mut rng);
    let field = random_spiky_field(&mut rng, dims);
    // Encode rich enough that truncation has something to cut; previews
    // sit strictly inside (0, encode_bpp).
    let encode_bpp = 4.0 + 8.0 * rng.random::<f64>();
    let preview_lo = 0.2 + 0.3 * encode_bpp * rng.random::<f64>();
    let preview_hi = preview_lo + (encode_bpp - preview_lo) * (0.3 + 0.6 * rng.random::<f64>());
    RefineCase { index, field, encode_bpp, preview_lo, preview_hi }
}

/// Runs the three-budget check on one field. Returns the violation
/// detail, or `None` when the contract holds.
fn violates(field: &Field, encode_bpp: f64, lo: f64, hi: f64) -> Option<String> {
    let sperr = refine_sperr();
    let stream = match sperr.compress(field, Bound::Bpp(encode_bpp)) {
        Ok(s) => s,
        Err(e) => return Some(format!("compress @{encode_bpp:.3}bpp failed: {e}")),
    };
    let full = match sperr.decompress(&stream) {
        Ok(f) => f,
        Err(e) => return Some(format!("decompress failed: {e}")),
    };
    let info = match sperr.inspect(&stream) {
        Ok(i) => i,
        Err(e) => return Some(format!("inspect failed: {e}")),
    };
    // Full-budget identity: an unbounded per-chunk budget must reproduce
    // the strict decode bit-for-bit (BPP mode has no outlier stream, so
    // the preview path and the strict path decode identical bytes).
    let unbounded = vec![usize::MAX; info.n_chunks as usize];
    match sperr.read::<f64>(&stream, ReadRequest::Budgets(&unbounded), OnDamage::Fail) {
        Ok(ReadOutput { field: f, .. }) => {
            let same = f.data.len() == full.data.len()
                && f.data.iter().zip(&full.data).all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Some("unbounded-budget decode differs from strict decompress".into());
            }
        }
        Err(e) => return Some(format!("unbounded-budget decode failed: {e}")),
    }
    // Truncation never errors: a budget so small every chunk clamps to
    // (nearly) nothing must still decode to a field of the right shape.
    match sperr.decode_at_bpp(&stream, 0.05) {
        Ok(f) => {
            if f.dims != field.dims {
                return Some(format!("near-zero preview has dims {:?}", f.dims));
            }
        }
        Err(e) => return Some(format!("near-zero budget errored instead of truncating: {e}")),
    }
    // Monotone refinement across b1 < b2 < full.
    let err_at = |bpp: f64| -> Result<f64, String> {
        let f = sperr
            .decode_at_bpp(&stream, bpp)
            .map_err(|e| format!("preview @{bpp:.3}bpp failed: {e}"))?;
        Ok(sperr_metrics::max_pwe(&field.data, &f.data))
    };
    let e1 = match err_at(lo) {
        Ok(e) => e,
        Err(d) => return Some(d),
    };
    let e2 = match err_at(hi) {
        Ok(e) => e,
        Err(d) => return Some(d),
    };
    let ef = sperr_metrics::max_pwe(&field.data, &full.data);
    if e2 > e1 {
        return Some(format!(
            "refinement regressed: err@{lo:.3}bpp {e1:e} < err@{hi:.3}bpp {e2:e}"
        ));
    }
    if ef > e2 {
        return Some(format!(
            "full decode worse than preview: err@{hi:.3}bpp {e2:e} < err@full {ef:e}"
        ));
    }
    None
}

/// Shrinks a violating field by repeatedly keeping whichever axis
/// half-box still violates (same greedy scheme as the PWE campaign).
pub fn shrink_violation(case: &RefineCase) -> Field {
    let mut cur = case.field.clone();
    'outer: loop {
        for axis in 0..3 {
            if cur.dims[axis] < 2 {
                continue;
            }
            let half = cur.dims[axis] / 2;
            for (start, len) in [(0, half), (cur.dims[axis] - half, half)] {
                let mut lo = [0; 3];
                lo[axis] = start;
                let mut dims = cur.dims;
                dims[axis] = len;
                let candidate = crop(&cur, lo, dims);
                if violates(&candidate, case.encode_bpp, case.preview_lo, case.preview_hi)
                    .is_some()
                {
                    cur = candidate;
                    continue 'outer;
                }
            }
        }
        return cur;
    }
}

/// Writes the reproducer for a shrunk violation: `input.bin` (raw f64
/// little-endian, x fastest) and `config.txt` (replay parameters).
fn dump_reproducer(
    dir: &std::path::Path,
    case: &RefineCase,
    shrunk: &Field,
    detail: &str,
) -> std::io::Result<PathBuf> {
    let case_dir = dir.join(format!("refine-{:04}", case.index));
    std::fs::create_dir_all(&case_dir)?;
    let mut bytes = Vec::with_capacity(shrunk.data.len() * 8);
    for v in &shrunk.data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(case_dir.join("input.bin"), &bytes)?;
    let config = format!(
        "case_index {}\nencode_bpp {:e}\nencode_bpp_bits {:016x}\npreview_lo {:e}\n\
         preview_lo_bits {:016x}\npreview_hi {:e}\npreview_hi_bits {:016x}\n\
         dims {} {} {}\nviolation {detail}\n\
         replay: decode input.bin as little-endian f64, x fastest; compress with SPERR \
         (16^3 chunks, 1 thread) at encode_bpp, then decode_at_bpp at preview_lo and \
         preview_hi and assert max error is monotone non-increasing\n",
        case.index,
        case.encode_bpp,
        case.encode_bpp.to_bits(),
        case.preview_lo,
        case.preview_lo.to_bits(),
        case.preview_hi,
        case.preview_hi.to_bits(),
        shrunk.dims[0],
        shrunk.dims[1],
        shrunk.dims[2],
    );
    std::fs::write(case_dir.join("config.txt"), config)?;
    Ok(case_dir)
}

/// Runs one case end-to-end; on violation, shrinks and (if configured)
/// dumps a reproducer.
pub fn run_case(case: &RefineCase, failure_dir: Option<&std::path::Path>) -> Result<(), CheckFailure> {
    let Some(first_detail) = violates(&case.field, case.encode_bpp, case.preview_lo, case.preview_hi)
    else {
        return Ok(());
    };
    let shrunk = shrink_violation(case);
    let detail_at_shrunk =
        violates(&shrunk, case.encode_bpp, case.preview_lo, case.preview_hi)
            .unwrap_or(first_detail);
    let mut detail = format!(
        "case {} dims {:?} (shrunk to {:?}): {detail_at_shrunk}",
        case.index, case.field.dims, shrunk.dims,
    );
    if let Some(dir) = failure_dir {
        match dump_reproducer(dir, case, &shrunk, &detail_at_shrunk) {
            Ok(path) => detail.push_str(&format!("; reproducer at {}", path.display())),
            Err(e) => detail.push_str(&format!("; reproducer dump FAILED: {e}")),
        }
    }
    Err(CheckFailure { check: "refine-campaign", detail })
}

/// Runs the full campaign.
pub fn run_refine_campaign(config: &RefineConfig) -> RefineReport {
    let mut violations = Vec::new();
    for i in 0..config.cases {
        let case = make_case(i, config.seed);
        if let Err(f) = run_case(&case, config.failure_dir.as_deref()) {
            violations.push(f);
        }
    }
    RefineReport { cases: config.cases, violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_with_ordered_budgets() {
        for i in 0..8 {
            let a = make_case(i, 42);
            let b = make_case(i, 42);
            assert_eq!(a.field.data, b.field.data);
            assert_eq!(a.preview_lo.to_bits(), b.preview_lo.to_bits());
            assert!(0.0 < a.preview_lo && a.preview_lo < a.preview_hi);
            assert!(a.preview_hi < a.encode_bpp);
        }
    }

    #[test]
    fn small_campaign_is_clean() {
        // A handful of cases doubles as the tier-1 smoke for the
        // progressive-decode path; the full sweep runs tier-2.
        let report = run_refine_campaign(&RefineConfig {
            cases: 3,
            seed: 0x9ef1_2026,
            failure_dir: None,
        });
        assert!(report.clean(), "violations: {:?}", report.violations);
    }
}
