//! Tier-2: the differential oracles over the whole corpus — blocked
//! lifting vs reference, production encoder vs from-parts reference
//! pipeline, container bit identity at 1/2/4/8 threads, resilient vs
//! strict decoding, and re-encode stability for all five codecs.

use sperr_compress_api::{Bound, LossyCompressor};
use sperr_conformance::corpus::{corpus_inputs, documented_budget, CodecId};
use sperr_conformance::oracle;
use sperr_core::{Sperr, SperrConfig};
use sperr_exec::stress::{ReverseOrder, StripedWorkers};
use sperr_exec::{Exec, Serial};
use sperr_wavelet::Kernel;

/// Chunk shape used throughout: small enough that the 3D corpus inputs
/// split into several chunks, so the pool actually schedules work.
const CHUNK: [usize; 3] = [16, 16, 16];

#[test]
fn blocked_lifting_matches_reference_under_adversarial_executors() {
    for input in corpus_inputs() {
        let field = input.generate();
        for exec in [&Serial as &dyn Exec, &ReverseOrder, &StripedWorkers(3)] {
            for kernel in [Kernel::Cdf97, Kernel::Haar] {
                oracle::blocked_lifting_matches_reference_with(&field.data, field.dims, kernel, exec)
                    .unwrap_or_else(|f| panic!("{} ({kernel:?}): {f}", input.id));
            }
        }
    }
}

#[test]
fn production_encoder_matches_reference_pipeline() {
    for input in corpus_inputs() {
        let field = input.generate();
        for idx in [10, 15, 20] {
            let t = field.tolerance_for_idx(idx);
            oracle::encoder_matches_reference(&field.data, field.dims, t, 1.5, Kernel::Cdf97)
                .unwrap_or_else(|f| panic!("{} idx {idx}: {f}", input.id));
        }
    }
}

#[test]
fn streams_are_bit_identical_across_1_2_4_8_threads() {
    for input in corpus_inputs() {
        let field = input.generate();
        let t = field.tolerance_for_idx(15);
        for bound in [Bound::Pwe(t), Bound::Bpp(2.0)] {
            oracle::thread_count_bit_identity(&field, bound, CHUNK, &[1, 2, 4, 8])
                .unwrap_or_else(|f| panic!("{} {bound:?}: {f}", input.id));
        }
    }
}

#[test]
fn resilient_decoder_matches_strict_on_clean_streams() {
    let sperr =
        Sperr::new(SperrConfig { chunk_dims: CHUNK, num_threads: 1, ..SperrConfig::default() });
    for input in corpus_inputs() {
        let field = input.generate();
        let t = field.tolerance_for_idx(15);
        for bound in [Bound::Pwe(t), Bound::Bpp(2.0)] {
            let stream = sperr.compress(&field, bound).unwrap();
            oracle::resilient_matches_strict(&sperr, &stream)
                .unwrap_or_else(|f| panic!("{} {bound:?}: {f}", input.id));
        }
    }
}

#[test]
fn f32_native_path_matches_widened_path_across_threads() {
    for input in corpus_inputs() {
        let field32 = input.generate_f32();
        let t = field32.tolerance_for_idx(15);
        oracle::f32_vs_widened(&field32, t, CHUNK, &[1, 2, 4, 8])
            .unwrap_or_else(|f| panic!("{}: {f}", input.id));
    }
}

#[test]
fn reencoding_a_reconstruction_stays_within_budget_for_all_codecs() {
    for input in corpus_inputs() {
        let field = input.generate();
        let t = field.tolerance_for_idx(15);
        for codec in CodecId::ALL {
            let compressor = codec.build();
            let bound =
                if compressor.supports(&Bound::Pwe(t)) { Bound::Pwe(t) } else { Bound::Psnr(60.0) };
            let budget = documented_budget(codec, bound, field.dims);
            oracle::reencode_idempotent(compressor.as_ref(), &field, bound, budget)
                .unwrap_or_else(|f| panic!("{} {}: {f}", input.id, codec.tag()));
        }
    }
}
