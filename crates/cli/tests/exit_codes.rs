//! The `sperr` binary's exit status as a calling script sees it. The
//! in-process tests in `main.rs` check which code each error maps to;
//! these spawn the binary and check that the process really exits with
//! it.

use std::path::Path;
use std::process::{Command, Output};

fn sperr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sperr")).args(args).output().expect("spawn the sperr binary")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("a UTF-8 temp path")
}

#[test]
fn a_non_finite_sample_exits_3_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("sperr_exit_codes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (raw, bad_raw, packed) = (dir.join("x.raw"), dir.join("bad.raw"), dir.join("x.sperr"));
    let gen = sperr(&[
        "gen",
        "--field",
        "miranda-pressure",
        "--dims",
        "16,16,16",
        "--output",
        path(&raw),
        "--dtype",
        "f64",
        "--quiet",
    ]);
    assert!(gen.status.success(), "gen: {}", String::from_utf8_lossy(&gen.stderr));
    let compress = |input: &Path, bound: &[&str]| {
        let mut args = vec![
            "compress",
            "--input",
            path(input),
            "--output",
            path(&packed),
            "--dims",
            "16,16,16",
            "--dtype",
            "f64",
            "--quiet",
        ];
        args.extend_from_slice(bound);
        sperr(&args)
    };
    for bad in [f64::INFINITY, f64::NAN] {
        let mut bytes = std::fs::read(&raw).unwrap();
        bytes[8 * 1234..8 * 1235].copy_from_slice(&bad.to_le_bytes());
        std::fs::write(&bad_raw, bytes).unwrap();
        for bound in [&["--pwe", "1e-3"][..], &["--bpp", "4"], &["--pwe", "1e-3", "--stream"]] {
            let out = compress(&bad_raw, bound);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(3), "{bad} {bound:?}: {stderr}");
            assert!(stderr.contains("linear index 1234 "), "{bad} {bound:?}: {stderr}");
            assert!(!packed.exists(), "{bad} {bound:?} left an output file");
        }
    }
    // The same field without the bad sample compresses.
    let out = compress(&raw, &["--pwe", "1e-3"]);
    assert!(out.status.success(), "finite input: {}", String::from_utf8_lossy(&out.stderr));
    assert!(packed.exists());
    std::fs::remove_dir_all(&dir).ok();
}
