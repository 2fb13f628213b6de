//! Static source audits: panicking constructs on the decoder-side code
//! paths, `unsafe` outside its allowlist, and float contraction in the
//! kernel crates.
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
    // The outer framing: the one parse of an untrusted stream's flag byte
    // and SLZ1 block directory that every read goes through, and the
    // fetch of the head and of the planned payloads behind it.
    "crates/core/src/outer.rs",
];

/// The only files in the workspace that may say `unsafe` (paths relative
/// to the workspace root): the pool's batch hand-off to its workers and
/// the wavelet transform's `VolPtr` (safe Rust cannot split a volume into
/// disjoint strided panels). Everything the coders used to hand-roll
/// around the pool — per-worker scratch, per-job result slots, disjoint
/// output blocks — goes through `sperr_exec::Slots`; the telemetry
/// recorder is a `Mutex` per thread, and its crate forbids `unsafe`.
const UNSAFE_ALLOWED: &[&str] = &["crates/exec/src/pool.rs", "crates/wavelet/src/transform.rs"];

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

/// Every `.rs` file under `dir`, recursively (none if `dir` is absent).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The files under `dirs` (recursively) that use `unsafe`, as workspace-
/// relative paths with the lines that do.
fn unsafe_files(dirs: &[PathBuf]) -> Vec<(String, Vec<usize>)> {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in dirs {
        rust_files(dir, &mut files);
    }
    let mut found: Vec<_> = files
        .into_iter()
        .filter_map(|path| {
            let code = strip_comments(&std::fs::read_to_string(&path).unwrap());
            let lines = unsafe_lines(&code);
            let rel = path.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
            (!lines.is_empty()).then_some((rel, lines))
        })
        .collect();
    found.sort();
    found
}

#[test]
fn core_unsafe_is_confined_to_the_allowlist() {
    // sperr-core's allow-list is empty: its one `unsafe` user, the pool,
    // is sperr-exec's now, and per-worker state, result slots and output
    // blocks come from `sperr_exec::Slots`.
    let found = unsafe_files(&[workspace_root().join("crates/core/src")]);
    assert!(found.is_empty(), "`unsafe` in sperr-core: {found:?}");
}

#[test]
fn workspace_unsafe_is_confined_to_the_allowlist() {
    let root = workspace_root();
    let mut dirs = vec![root.join("src")];
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        dirs.push(krate.unwrap().path().join("src"));
    }
    let found = unsafe_files(&dirs);
    let violations: Vec<_> =
        found.iter().filter(|(rel, _)| !UNSAFE_ALLOWED.contains(&rel.as_str())).collect();
    assert!(violations.is_empty(), "`unsafe` outside {UNSAFE_ALLOWED:?}: {violations:?}");
    // No stale entry: every allowed file still needs its exemption.
    let mut allowed = UNSAFE_ALLOWED.to_vec();
    allowed.sort();
    assert!(
        found.iter().map(|(rel, _)| rel.as_str()).eq(allowed.iter().copied()),
        "an allow-list file no longer says `unsafe`: {found:?}"
    );
}

/// The crates whose float arithmetic the golden streams pin: the
/// kernels, the transform, both coders and the pipeline.
const KERNEL_DIRS: &[&str] = &[
    "crates/simd/src",
    "crates/wavelet/src",
    "crates/speck/src",
    "crates/outlier/src",
    "crates/core/src",
];

/// Float operations that may round differently from the plain expression:
/// a fused multiply-add rounds once where `a * b + c` rounds twice, and
/// the fast-math intrinsics let LLVM reassociate and contract.
const CONTRACTING: &[&str] =
    &["mul_add", "fadd_fast", "fsub_fast", "fmul_fast", "fdiv_fast", "frem_fast", "intrinsics"];

/// Lines of `code` (comments stripped) that name a [`CONTRACTING`] word.
fn contracting_lines(code: &str) -> Vec<usize> {
    let contracts = |line: &str| {
        let mut words = line.split(|c: char| !c.is_alphanumeric() && c != '_');
        words.any(|word| CONTRACTING.contains(&word))
    };
    code.lines().enumerate().filter(|(_, l)| contracts(l)).map(|(i, _)| i + 1).collect()
}

#[test]
fn kernel_code_never_contracts_float_arithmetic() {
    // Every kernel is bit-identical to the plain per-element expression
    // only because Rust never fuses a multiply and an add on its own:
    // one `mul_add` or fast-math intrinsic in these crates would move
    // stream bytes on every ISA that has an FMA unit.
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in KERNEL_DIRS {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() >= KERNEL_DIRS.len(), "kernel sources not found under {root:?}");
    let violations: Vec<String> = files
        .iter()
        .flat_map(|path| {
            let code = strip_comments(&std::fs::read_to_string(path).unwrap());
            let rel = path.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
            contracting_lines(&code).into_iter().map(move |line| format!("{rel}:{line}"))
        })
        .collect();
    assert!(
        violations.is_empty(),
        "fused or fast-math float operations in kernel code (they change the \
         rounding, so the streams would no longer match the goldens):\n{}",
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
    // The contraction scan sees method calls, paths and intrinsics — not
    // comments, not identifiers that merely contain a banned word.
    let code = "let y = a.mul_add(b, c);\nlet z = f64::mul_add(a, b, c);\n\
                use core::intrinsics::fadd_fast;\n// a.mul_add(b, c)\n\
                let mul_add_count = 0;\nlet w = fmul_fast(a, b);\n";
    assert_eq!(contracting_lines(&strip_comments(code)), [1, 2, 3, 6]);
}
