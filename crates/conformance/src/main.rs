//! Conformance driver.
//!
//! ```text
//! cargo run -p sperr-conformance -- regen         # rewrite golden/ + manifest
//! cargo run -p sperr-conformance -- check         # verify committed goldens
//! cargo run -p sperr-conformance -- oracles       # run the differential oracles
//! cargo run -p sperr-conformance -- campaign [N]  # N randomized PWE cases (default 200)
//! cargo run -p sperr-conformance -- faults [N]    # streaming fault injection (default 12)
//! cargo run -p sperr-conformance -- regions [N]   # N random bboxes per corpus field (default 50)
//! cargo run -p sperr-conformance -- refine [N]    # N progressive-refinement cases (default 60)
//! ```
//!
//! Every subcommand except `regen` exits nonzero on any failure, so CI
//! can call them directly. `regen` is the only subcommand that writes to
//! the source tree — remember to bump `GOLDEN_VERSION` when committing
//! its output.

use sperr_conformance::corpus::{corpus_inputs, documented_budget, CodecId};
use sperr_conformance::oracle;
use sperr_conformance::pwe::{run_campaign, CampaignConfig};
use sperr_conformance::{golden, CheckFailure};
use sperr_compress_api::Bound;
use sperr_core::{Sperr, SperrConfig};
use sperr_wavelet::Kernel;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("regen") => regen(),
        Some("check") => report("golden check", &golden::check(&golden::golden_dir())),
        Some("oracles") => report("oracles", &run_oracles()),
        Some("campaign") => {
            let n = args.get(1).map_or(Ok(200), |s| s.parse()).unwrap_or_else(|_| {
                eprintln!("campaign: case count must be a number");
                std::process::exit(2);
            });
            campaign(n)
        }
        Some("faults") => {
            let n = args.get(1).map_or(Ok(12), |s| s.parse()).unwrap_or_else(|_| {
                eprintln!("faults: case count must be a number");
                std::process::exit(2);
            });
            report("fault campaign", &sperr_conformance::fault::run_fault_campaign(n))
        }
        Some("regions") => {
            let n = args.get(1).map_or(Ok(50), |s| s.parse()).unwrap_or_else(|_| {
                eprintln!("regions: bbox count must be a number");
                std::process::exit(2);
            });
            report("region oracle", &run_regions(n))
        }
        Some("refine") => {
            let n = args.get(1).map_or(Ok(60), |s| s.parse()).unwrap_or_else(|_| {
                eprintln!("refine: case count must be a number");
                std::process::exit(2);
            });
            refine(n)
        }
        _ => {
            eprintln!(
                "usage: sperr-conformance regen | check | oracles | campaign [N] | faults [N] \
                 | regions [N] | refine [N]"
            );
            2
        }
    };
    std::process::exit(code);
}

fn regen() -> i32 {
    let dir = golden::golden_dir();
    match golden::regenerate(&dir) {
        Ok(n) => {
            println!(
                "wrote {n} golden streams + v1/v3/code-block fixtures + manifest to {} \
                 (GOLDEN_VERSION {})",
                dir.display(),
                golden::GOLDEN_VERSION
            );
            println!("remember: commit these together with a GOLDEN_VERSION bump");
            0
        }
        Err(e) => {
            eprintln!("regen failed: {e}");
            1
        }
    }
}

fn report(what: &str, failures: &[CheckFailure]) -> i32 {
    if failures.is_empty() {
        println!("{what}: OK");
        0
    } else {
        for f in failures {
            eprintln!("FAIL {f}");
        }
        eprintln!("{what}: {} failure(s)", failures.len());
        1
    }
}

/// The full differential-oracle sweep over the corpus: blocked lifting,
/// encoder-vs-reference, SPECK-stage fast path vs bit-at-a-time
/// reference (bytes and counters, plus the pinned structural counts),
/// SPECK decoder vs its cuboid-walk oracle, thread identity (1/2/4/8),
/// resilient decode, re-encode stability, and the f32-native path vs its
/// widened-f64 twin.
fn run_oracles() -> Vec<CheckFailure> {
    let mut failures = Vec::new();
    fn run(failures: &mut Vec<CheckFailure>, r: oracle::CheckResult) {
        if let Err(f) = r {
            failures.push(f);
        }
    }
    for input in corpus_inputs() {
        let field = input.generate();
        let t = field.tolerance_for_idx(15);
        run(&mut failures, oracle::blocked_lifting_matches_reference(&field.data, field.dims, Kernel::Cdf97));
        run(&mut failures, oracle::encoder_matches_reference(&field.data, field.dims, t, 1.5, Kernel::Cdf97));
        run(&mut failures, oracle::speck_matches_reference(&field.data, field.dims, 1.5 * t));
        run(&mut failures, oracle::speck_decode_matches_reference(&field.data, field.dims, 1.5 * t));
        let field32 = input.generate_f32();
        run(
            &mut failures,
            oracle::speck_structure_pinned(input.id, &field.data, &field32.data, field.dims, 1.5 * t),
        );
        run(
            &mut failures,
            oracle::f32_vs_widened(&field32, field32.tolerance_for_idx(15), [16, 16, 16], &[1, 2, 4, 8]),
        );
        match oracle::thread_count_bit_identity(&field, Bound::Pwe(t), [16, 16, 16], &[1, 2, 4, 8])
        {
            Ok(stream) => {
                let sperr = Sperr::new(SperrConfig {
                    chunk_dims: [16, 16, 16],
                    num_threads: 1,
                    ..SperrConfig::default()
                });
                run(&mut failures, oracle::resilient_matches_strict(&sperr, &stream));
            }
            Err(f) => failures.push(f),
        }
        for codec in CodecId::ALL {
            let compressor = codec.build();
            let bound = if compressor.supports(&Bound::Pwe(t)) {
                Bound::Pwe(t)
            } else {
                Bound::Psnr(60.0)
            };
            let budget = documented_budget(codec, bound, field.dims);
            run(&mut failures, oracle::reencode_idempotent(compressor.as_ref(), &field, bound, budget));
        }
    }
    failures
}

/// The region oracle over the whole corpus: each field compressed once per
/// read variant (every kernel at f64, CDF 9/7 at f32-native; PWE at the
/// corpus-standard tolerance, indexed v3 container), then `decode_region`
/// over `n` randomized bboxes at 1/2/4/8 threads must match the full
/// decode bit-for-bit — and again through the legacy chunk-table scan
/// after a `downgrade_to_v2`. Every field's coarse reads must match their
/// pinned digest. Then the wrapper-damage oracle on one multi-block stream.
fn run_regions(n: usize) -> Vec<CheckFailure> {
    let chunk_dims = [16usize, 16, 16];
    let sperr =
        Sperr::new(SperrConfig { chunk_dims, num_threads: 1, ..SperrConfig::default() });
    let threads = [1usize, 2, 4, 8];
    let mut failures = Vec::new();
    for (i, input) in corpus_inputs().iter().enumerate() {
        let field = input.generate();
        let bboxes = oracle::region_bboxes(field.dims, chunk_dims, n, 0x8e90_2026 ^ i as u64);
        for variant in oracle::READ_VARIANTS {
            let id = format!("{} {}", input.id, variant.0);
            let stream = match oracle::variant_stream(&field, variant, chunk_dims) {
                Ok(s) => s,
                Err(e) => {
                    failures.push(CheckFailure {
                        check: "region-vs-full",
                        detail: format!("{id}: compress failed: {e}"),
                    });
                    continue;
                }
            };
            if let Err(mut f) = oracle::region_vs_full(&stream, chunk_dims, &bboxes, &threads, true)
            {
                f.detail = format!("{id} (v3): {}", f.detail);
                failures.push(f);
            }
            match sperr.downgrade_to_v2(&stream) {
                Ok(v2) => {
                    if let Err(mut f) =
                        oracle::region_vs_full(&v2, chunk_dims, &bboxes, &threads, false)
                    {
                        f.detail = format!("{id} (v2 scan): {}", f.detail);
                        failures.push(f);
                    }
                }
                Err(e) => failures.push(CheckFailure {
                    check: "region-vs-full",
                    detail: format!("{id}: downgrade_to_v2 failed: {e}"),
                }),
            }
        }
        if let Err(f) = oracle::multires_pinned(input.id, &field) {
            failures.push(f);
        }
    }
    // Damage inside the lossless wrapper, on a stream of several SLZ1
    // blocks: contained per block and per chunk (see the oracle).
    let (stream, chunk_dims, dims) = oracle::wrapper_damage_stream();
    let bboxes = oracle::region_bboxes(dims, chunk_dims, n.min(12), 0xb10c);
    if let Err(f) = oracle::region_survives_wrapper_damage(&stream, chunk_dims, &bboxes) {
        failures.push(f);
    }
    failures
}

fn refine(cases: usize) -> i32 {
    let config = sperr_conformance::RefineConfig::tier2(cases);
    let r = sperr_conformance::run_refine_campaign(&config);
    if r.clean() {
        println!("refine: {} cases, 0 violations", r.cases);
        0
    } else {
        for f in &r.violations {
            eprintln!("FAIL {f}");
        }
        eprintln!("refine: {} cases, {} violation(s)", r.cases, r.violations.len());
        1
    }
}

fn campaign(cases: usize) -> i32 {
    let config = CampaignConfig::tier2(cases);
    let r = run_campaign(&config);
    if r.clean() {
        println!("campaign: {} cases, 0 violations", r.cases);
        0
    } else {
        for f in &r.violations {
            eprintln!("FAIL {f}");
        }
        eprintln!("campaign: {} cases, {} violation(s)", r.cases, r.violations.len());
        1
    }
}
