//! Tier-2: the committed golden set must fully conform — every matrix
//! cell present, every stream reproduced byte-for-byte by today's
//! encoder, every committed stream decoding value-for-value to its
//! regen-time digest within the documented error budget.

use sperr_conformance::golden;

#[test]
fn committed_goldens_conform() {
    let failures = golden::check(&golden::golden_dir());
    assert!(
        failures.is_empty(),
        "golden conformance failures:\n{}",
        failures.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}

#[test]
fn manifest_matches_generated_set_exactly() {
    // Stronger than `check`'s per-entry comparison: rendering a fresh
    // manifest from an in-memory regen must reproduce the committed
    // manifest text byte-for-byte (so even comment/format drift in the
    // manifest itself is caught).
    let (entries, v1, v3) = golden::generate();
    let f32_entries = golden::generate_f32();
    let v3_index_crc = golden::index_crc(&v3).expect("generated v3 fixture carries an index");
    let want = std::fs::read_to_string(golden::golden_dir().join(golden::MANIFEST_NAME))
        .expect("committed manifest readable");
    let split = golden::split_fixture();
    let one_block = golden::one_block_fixture(&golden::golden_dir()).expect("committed fixture");
    let fixtures = (&split[..], &one_block[..]);
    let got = golden::render_manifest(&entries, &f32_entries, &v1, &v3, v3_index_crc, fixtures);
    assert_eq!(
        got, want,
        "freshly generated manifest differs from committed MANIFEST.txt — \
         run `cargo run -p sperr-conformance -- regen` and bump GOLDEN_VERSION \
         if this change is intentional"
    );
}
