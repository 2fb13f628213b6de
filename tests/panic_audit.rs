//! Static panic audit of the decoder-side code paths.
//!
//! The corruption-resilience contract is that decoding untrusted bytes
//! never panics: every failure surfaces as a typed error. The decode
//! paths are deliberately isolated in dedicated source files so this test
//! can enforce the contract mechanically — if a `unwrap`/`expect`/
//! `panic!`/`assert` sneaks into any of them, CI fails with a pointer to
//! the offending line.

use std::path::{Path, PathBuf};

/// Decoder-side files that must stay free of panicking constructs. Paths
/// are relative to the workspace root (= this package's manifest dir).
const AUDITED_FILES: &[&str] = &[
    "crates/bitstream/src/reader.rs",
    "crates/bitstream/src/byteio.rs",
    "crates/speck/src/decoder.rs",
    "crates/speck/src/lsp_decode.rs",
    // The partition-order layout both SPECK coder bodies walk: table
    // build, lookups, and the shared table cache.
    "crates/speck/src/layout.rs",
    // What a region or coarse read needs of a chunk: the box comes from
    // the caller, the dims from an untrusted header, and the keep bitmap
    // is reserved fallibly.
    "crates/wavelet/src/support.rs",
    "crates/outlier/src/decoder.rs",
    // The whole decode side of the lossless crate: stream framing and
    // block directory, block inflate, Huffman table build + decode.
    "crates/lossless/src/decode.rs",
    "crates/lossless/src/inflate.rs",
    "crates/lossless/src/huffman/decode.rs",
    // The decode plan: everything in sperr-core that walks an untrusted
    // chunk table or decodes an untrusted payload — open, plan builders,
    // per-task decode, the chunk decode itself, folds.
    "crates/core/src/decode.rs",
];

/// The one file of `sperr-core` that may say `unsafe`: the pool (the
/// batch hand-off to its workers). Everything the drivers used to
/// hand-roll around it — per-worker scratch, per-job result slots,
/// disjoint output blocks — now goes through the pool's safe `Slots`.
const UNSAFE_ALLOWED: &[&str] = &["pool.rs"];

/// Tokens that can panic at runtime. `assert!(` also catches
/// `debug_assert!(` and friends as a substring.
const FORBIDDEN: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

/// Strips `//` line comments and `/* */` block comments (handles nesting,
/// which Rust allows) so tokens mentioned in prose don't trip the audit.
/// String literals are left in place — decoder error messages must simply
/// avoid the forbidden spellings, which is fine for this codebase.
fn strip_comments(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    let mut block_depth = 0usize;
    while i < bytes.len() {
        if block_depth > 0 {
            if bytes[i..].starts_with(b"*/") {
                block_depth -= 1;
                i += 2;
            } else if bytes[i..].starts_with(b"/*") {
                block_depth += 1;
                i += 2;
            } else {
                if bytes[i] == b'\n' {
                    out.push('\n');
                }
                i += 1;
            }
        } else if bytes[i..].starts_with(b"//") {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else if bytes[i..].starts_with(b"/*") {
            block_depth += 1;
            i += 2;
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

#[test]
fn decoder_files_contain_no_panicking_constructs() {
    let root = workspace_root();
    let mut violations = Vec::new();
    for rel in AUDITED_FILES {
        let path = root.join(rel);
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("audited file {rel} unreadable: {e}"));
        let code = strip_comments(&source);
        for (lineno, line) in code.lines().enumerate() {
            for token in FORBIDDEN {
                if line.contains(token) {
                    violations.push(format!("{rel}:{}: contains `{token}`", lineno + 1));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "panicking constructs in decoder-side code (decode paths must return \
         typed errors on untrusted input):\n{}",
        violations.join("\n")
    );
}

/// Lines of `code` (comments stripped) that use the `unsafe` keyword.
fn unsafe_lines(code: &str) -> Vec<usize> {
    let is_unsafe = |line: &str| {
        line.split(|c: char| !c.is_alphanumeric() && c != '_').any(|word| word == "unsafe")
    };
    code.lines().enumerate().filter(|(_, l)| is_unsafe(l)).map(|(i, _)| i + 1).collect()
}

#[test]
fn core_unsafe_is_confined_to_the_allowlist() {
    let dir = workspace_root().join("crates/core/src");
    let mut violations = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?} unreadable: {e}")) {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".rs") {
            continue;
        }
        let lines = unsafe_lines(&strip_comments(&std::fs::read_to_string(&path).unwrap()));
        if !lines.is_empty() && !UNSAFE_ALLOWED.contains(&name.as_str()) {
            violations.push(format!("crates/core/src/{name}: `unsafe` on lines {lines:?}"));
        }
    }
    assert!(
        violations.is_empty(),
        "`unsafe` outside {UNSAFE_ALLOWED:?} in sperr-core (per-worker state, result \
         slots and output blocks come from `pool::Slots`):\n{}",
        violations.join("\n")
    );
}

#[test]
fn audit_catches_violations_and_ignores_comments() {
    // Self-test of the scanner: live tokens are caught...
    let live = strip_comments("let x = y.unwrap();\nassert!(cond);\n");
    assert!(FORBIDDEN.iter().any(|t| live.contains(t)));
    // ...commented tokens are not.
    let commented = strip_comments(
        "// never .unwrap() here\n/* assert!(x) is banned\n/* nested */ panic!( too */\nlet a = 1;\n",
    );
    assert!(
        !FORBIDDEN.iter().any(|t| commented.contains(t)),
        "comment stripping failed: {commented:?}"
    );
    // debug_assert! is caught by the assert! substring.
    assert!(strip_comments("debug_assert!(x > 0);").contains("assert!("));
    // The keyword scan sees `unsafe` blocks, fns and impls — not comments,
    // not identifiers that merely contain the word.
    let code = "let a = unsafe { p.get(w) };\nunsafe impl Sync for P {}\n\
                // unsafe\nlet unsafe_count = 0;\n";
    assert_eq!(unsafe_lines(&strip_comments(code)), [1, 2]);
}
