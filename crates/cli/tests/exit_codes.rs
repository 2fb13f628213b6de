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

/// `sperr gen … --dtype f64` into `dir/name`.
fn gen_f64(dir: &Path, name: &str, dims: &str) -> std::path::PathBuf {
    let raw = dir.join(name);
    let out = sperr(&["gen", "--field", "miranda-pressure", "--dims", dims, "--output", path(&raw),
                      "--dtype", "f64", "--quiet"]);
    assert!(out.status.success(), "gen: {}", String::from_utf8_lossy(&out.stderr));
    raw
}

#[test]
fn a_raw_file_of_the_wrong_length_exits_1_with_or_without_stream() {
    let dir = std::env::temp_dir().join(format!("sperr_exit_len_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let raw = gen_f64(&dir, "x.raw", "16,16,16");
    let mut bytes = std::fs::read(&raw).unwrap();
    bytes.extend_from_slice(&[0; 8]);
    std::fs::write(&raw, bytes).unwrap();
    let packed = dir.join("x.sperr");
    for bound in [&["--pwe", "1e-6"][..], &["--pwe", "1e-6", "--stream"], &["--idx", "20"]] {
        let mut args = vec!["compress", "--input", path(&raw), "--output", path(&packed),
                            "--dims", "16,16,16", "--dtype", "f64", "--quiet"];
        args.extend_from_slice(bound);
        let out = sperr(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bound:?}: {stderr}");
        assert!(stderr.contains("holds 32776 bytes but dims [16, 16, 16] as F64 need 32768"),
                "{bound:?}: {stderr}");
        assert!(!packed.exists(), "{bound:?} left an output file");
    }
    // Stdin has no length to check: a short one is the stream's typed
    // ingest error, also exit 1.
    let mut child = Command::new(env!("CARGO_BIN_EXE_sperr"))
        .args(["compress", "--input", "-", "--output", path(&packed), "--dims", "16,16,16",
               "--dtype", "f64", "--pwe", "1e-3", "--quiet"])
        .stdin(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn the sperr binary");
    std::io::Write::write_all(&mut child.stdin.take().unwrap(), &[0; 128]).unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("[stream.ingest]"), "{stderr}");
    assert!(!packed.exists(), "a short stdin left an output file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_damaged_stream_exits_5_and_leaves_no_file_unless_resilient() {
    let dir = std::env::temp_dir().join(format!("sperr_exit_damage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let raw = gen_f64(&dir, "x.raw", "32,32,32");
    let packed = dir.join("x.sperr");
    let out = sperr(&["compress", "--input", path(&raw), "--output", path(&packed), "--dims",
                      "32,32,32", "--dtype", "f64", "--pwe", "1e-3", "--chunk", "16,16,16",
                      "--no-lossless", "--quiet"]);
    assert!(out.status.success(), "compress: {}", String::from_utf8_lossy(&out.stderr));
    let mut bytes = std::fs::read(&packed).unwrap();
    *bytes.last_mut().unwrap() ^= 0xFF; // the tail of the last chunk's payload
    std::fs::write(&packed, bytes).unwrap();
    let decoded = dir.join("y.raw");
    let decompress = |extra: &[&str]| {
        let mut args = vec!["decompress", "--input", path(&packed), "--output", path(&decoded),
                            "--quiet"];
        args.extend_from_slice(extra);
        sperr(&args)
    };
    for extra in [&[][..], &["--stream"], &["--region", "8:24,8:24,8:24"]] {
        let out = decompress(extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(5), "{extra:?}: {stderr}");
        assert!(!decoded.exists(), "{extra:?} left an output file");
        let out = decompress(&[extra, &["--resilient"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{extra:?} --resilient: {stderr}");
        assert!(stderr.contains("warning: 1 of ") && stderr.contains("zero-filled: [7]"),
                "{extra:?} --resilient: {stderr}");
        assert!(decoded.exists());
        std::fs::remove_file(&decoded).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_damaged_slz1_block_zero_fills_just_its_chunks_under_resilient() {
    // The default config (lossless on) with 16³ chunks, and the coded
    // SLZ1 block at container offset 256 KiB broken: `--resilient`
    // zero-fills exactly the chunks whose payloads overlap it and keeps
    // every other sample's bits, `info --verify` lists those chunks (on a
    // v1 copy too), and the strict read fails as before, exit 5.
    let dir = std::env::temp_dir().join(format!("sperr_exit_slz1_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let raw = gen_f64(&dir, "x.raw", "64,64,64");
    let packed = dir.join("x.sperr");
    let out = sperr(&["compress", "--input", path(&raw), "--output", path(&packed), "--dims",
                      "64,64,64", "--dtype", "f64", "--idx", "14", "--chunk", "16,16,16",
                      "--quiet"]);
    assert!(out.status.success(), "compress: {}", String::from_utf8_lossy(&out.stderr));
    let clean = dir.join("clean.raw");
    let out = sperr(&["decompress", "--input", path(&packed), "--output", path(&clean), "--quiet"]);
    assert!(out.status.success(), "clean decompress: {}", String::from_utf8_lossy(&out.stderr));

    let mut bytes = std::fs::read(&packed).unwrap();
    let block = break_coded_block_at_256k(&mut bytes);
    let bad = dir.join("bad.sperr");
    std::fs::write(&bad, &bytes).unwrap();
    let sperr_lib = sperr_core::Sperr::new(sperr_core::SperrConfig::default());
    let chunks_over = |stream: &[u8], raw: &std::ops::Range<usize>| {
        let info = sperr_lib.inspect(stream).unwrap();
        let mut start = info.payload_offset;
        let mut chunks = Vec::new();
        for (chunk, len) in info.chunk_payload_sizes.iter().enumerate() {
            if start < raw.end && raw.start < start + len {
                chunks.push(chunk);
            }
            start += len;
        }
        assert!(!chunks.is_empty() && chunks.len() < 64, "{chunks:?}");
        chunks
    };
    let damaged = chunks_over(&bytes, &block);

    let decoded = dir.join("y.raw");
    let decompress = |extra: &[&str]| {
        let mut args = vec!["decompress", "--input", path(&bad), "--output", path(&decoded),
                            "--quiet"];
        args.extend_from_slice(extra);
        sperr(&args)
    };
    let out = decompress(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(5), "{stderr}");
    assert!(stderr.contains("SLZ1"), "{stderr}");
    assert!(!decoded.exists(), "the strict read left an output file");

    let out = decompress(&["--resilient"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "--resilient: {stderr}");
    let warning =
        format!("warning: {} of 64 chunks corrupt, zero-filled: {damaged:?}", damaged.len());
    assert!(stderr.contains(&warning), "--resilient: {stderr}");
    let (got, want) = (std::fs::read(&decoded).unwrap(), std::fs::read(&clean).unwrap());
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.chunks_exact(8).zip(want.chunks_exact(8)).enumerate() {
        let (x, y, z) = (i % 64, (i / 64) % 64, i / 4096);
        if damaged.contains(&(x / 16 + 4 * (y / 16) + 16 * (z / 16))) {
            assert_eq!(g, [0; 8], "sample {i} of a damaged chunk");
        } else {
            assert_eq!(g, w, "sample {i}");
        }
    }

    let out = sperr(&["info", "--input", path(&bad), "--verify"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(5), "info --verify: {stdout}");
    let listed = format!("{}/64 chunk checksums FAILED (chunks {damaged:?})", damaged.len());
    assert!(stdout.contains(&listed), "info --verify: {stdout}");

    // A v1 copy has no checksums, yet `info --verify` still lists the
    // chunks under a broken block and exits 5.
    let mut v1 = sperr_lib.downgrade_to_v1(&std::fs::read(&packed).unwrap()).unwrap();
    let block = break_coded_block_at_256k(&mut v1);
    let damaged = chunks_over(&v1, &block);
    std::fs::write(&bad, &v1).unwrap();
    let out = sperr(&["info", "--input", path(&bad), "--verify"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(5), "v1 info --verify: {stdout}");
    let listed =
        format!("{}/64 chunk payloads (v1 stream) FAILED (chunks {damaged:?})", damaged.len());
    assert!(stdout.contains(&listed), "v1 info --verify: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Walks the SLZ1 frames of a packed stream (after the outer flag, the
/// magic and the raw length) to the coded block at raw offset 256 KiB,
/// breaks its payload, and returns the block's raw range.
fn break_coded_block_at_256k(bytes: &mut [u8]) -> std::ops::Range<usize> {
    let u32_at =
        |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as usize;
    let (mut at, mut raw_at) = (1 + 4 + 8, 0);
    loop {
        let (flags, len) = (bytes[at], u32_at(bytes, at + 1));
        let payload = if flags & 1 == 1 {
            at + 9..at + 9 + u32_at(bytes, at + 5)
        } else {
            at + 5..at + 5 + len
        };
        if raw_at == 2 * 128 * 1024 {
            assert_eq!(flags & 1, 1, "the block at 256 KiB is stored");
            let mid = (payload.start + payload.end) / 2;
            bytes[mid..mid + 64].fill(0xFF);
            return raw_at..raw_at + len;
        }
        (at, raw_at) = (payload.end, raw_at + len);
    }
}
