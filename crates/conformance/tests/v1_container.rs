//! Tier-2 (satellite): the legacy container-v1 read path. The writer
//! emits v2 (checksummed) containers, but v1 streams from older builds
//! must keep decoding. Coverage is two-sided: a committed v1 fixture
//! (frozen bytes) and fresh downgrades produced on the fly.

use sperr_compress_api::{Bound, LossyCompressor};
use sperr_conformance::corpus::corpus_inputs;
use sperr_conformance::golden;
use sperr_core::{crc32, OnDamage, ReadOutput, ReadRequest, Sperr, SperrConfig};

fn conformance_sperr() -> Sperr {
    Sperr::new(SperrConfig {
        chunk_dims: [16, 16, 16],
        num_threads: 1,
        ..SperrConfig::default()
    })
}

#[test]
fn committed_v1_fixture_decodes_and_matches_its_v2_source() {
    let dir = golden::golden_dir();
    let manifest = golden::load_manifest(&dir).expect("manifest loads");
    let v1 = std::fs::read(dir.join(golden::V1_FIXTURE_NAME)).expect("fixture readable");
    assert_eq!(
        (v1.len(), crc32(&v1)),
        manifest.v1_fixture,
        "fixture bytes do not match manifest digest"
    );

    // The fixture was downgraded from the first SPERR PWE golden; both
    // paths must reconstruct the identical field.
    let sperr = conformance_sperr();
    let from_v1 = sperr.decompress(&v1).expect("v1 fixture decodes");
    let source = manifest
        .entries
        .iter()
        .find(|e| {
            e.codec == sperr_conformance::CodecId::Sperr && matches!(e.bound, Bound::Pwe(_))
        })
        .expect("matrix contains a SPERR PWE golden");
    let v2 = std::fs::read(dir.join(source.file_name())).expect("source golden readable");
    let from_v2 = sperr.decompress(&v2).expect("v2 golden decodes");
    assert_eq!(from_v1.dims, from_v2.dims);
    assert_eq!(from_v1.data, from_v2.data, "v1 and v2 reconstructions diverge");
}

#[test]
fn fresh_downgrades_round_trip_for_every_corpus_input() {
    let sperr = conformance_sperr();
    for input in corpus_inputs() {
        let field = input.generate();
        let t = field.tolerance_for_idx(15);
        let v2 = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        let v1 = sperr.downgrade_to_v1(&v2).unwrap();
        assert_ne!(v1, v2, "{}: downgrade left the container untouched", input.id);
        let a = sperr.decompress(&v2).unwrap();
        let b = sperr.decompress(&v1).unwrap();
        assert_eq!(a.data, b.data, "{}: v1 decode diverges from v2", input.id);
        let max_err = a
            .data
            .iter()
            .zip(&field.data)
            .map(|(r, o)| (r - o).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err <= t, "{}: PWE bound violated via v1 path", input.id);
    }
}

#[test]
fn downgraded_streams_lose_checksum_protection_but_not_data() {
    // v1 has no payload checksums: flipping a payload byte must decode
    // (possibly to garbage) on v1 while v2 refuses or flags it — this is
    // exactly the guarantee difference the version bump bought.
    let sperr = conformance_sperr();
    let field = corpus_inputs()[2].generate(); // press-3d16
    let t = field.tolerance_for_idx(15);
    let v2 = sperr.compress(&field, Bound::Pwe(t)).unwrap();
    let v1 = sperr.downgrade_to_v1(&v2).unwrap();
    let ReadOutput { field: clean, report, .. } =
        sperr.read::<f64>(&v1, ReadRequest::Full, OnDamage::ZeroFill).unwrap();
    assert!(report.all_ok());
    assert_eq!(clean.data, sperr.decompress(&v2).unwrap().data);
}
