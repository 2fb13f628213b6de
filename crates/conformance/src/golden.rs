//! Golden streams: committed compressed artifacts pinned against encoder
//! drift.
//!
//! The matrix is `corpus_inputs() × CodecId::ALL × golden_bounds()` —
//! every codec, every mode it supports, over 1D/2D/3D inputs with odd,
//! prime and power-of-two extents. For each cell the repository commits
//! the exact bytes the encoder produced (`golden/<case>.bin`) plus a
//! manifest line recording the stream's CRC, a digest of the decoded
//! values, and the achieved max error. The tier-2 suite then asserts
//! both directions:
//!
//! * **byte-for-byte**: re-encoding the (deterministic) corpus input
//!   today produces exactly the committed bytes;
//! * **value-for-value**: decoding the committed bytes produces exactly
//!   the values digested at regen time, and they still satisfy the
//!   codec's documented error budget.
//!
//! Regenerate with `cargo run -p sperr-conformance -- regen` after an
//! *intentional* bitstream change, and bump [`GOLDEN_VERSION`] in the
//! same commit — `scripts/ci.sh` rejects golden-file changes that do not
//! touch the version. See DESIGN.md §9 for when a golden change is
//! legitimate.

use crate::corpus::{
    bound_tag, check_budget, corpus_inputs, documented_budget, f32_budget, golden_bounds,
    CodecId, CorpusInput,
};
use crate::oracle::CheckFailure;
use sperr_compress_api::{Bound, LossyCompressor};
use sperr_core::{crc32, Sperr, SperrConfig};
use std::path::{Path, PathBuf};

/// Version of the committed golden set. Bump this (and regenerate) when
/// an intentional encoder change invalidates the committed bytes; CI
/// fails if golden files change while this constant does not.
///
/// v2: the container grew a v3 chunk index; the 64 matrix streams stay
/// pinned at container v2 bytes, and the set gained the indexed
/// `fixture-v3.bin` plus its index CRC in the manifest.
///
/// v3: the set gained the f32-native streams (`f32_entry` manifest
/// lines) — the 3D corpus inputs narrowed to single precision and
/// encoded through `compress_f32` (precision tag 2, current indexed
/// container). The 64 matrix streams and both fixtures are unchanged
/// byte-for-byte from v2.
pub const GOLDEN_VERSION: u32 = 3;

/// Container version the 64 matrix goldens are written in. Pinned at 2
/// even though compression writes v3: the committed bytes predate the
/// chunk index and must not churn, so the corpus re-frames each encode
/// with [`Sperr::downgrade_to_v2`]. The v3 format is pinned by its own
/// dedicated fixture instead.
pub const GOLDEN_CONTAINER_VERSION: u8 = 2;

/// Manifest file name inside the golden directory.
pub const MANIFEST_NAME: &str = "MANIFEST.txt";

/// File name of the committed legacy (container v1) fixture, produced by
/// [`Sperr::downgrade_to_v1`] from one of the SPERR goldens. Decoding it
/// proves the v1 read path stays alive even though the writer emits v3.
pub const V1_FIXTURE_NAME: &str = "fixture-v1.bin";

/// File name of the committed container-v3 fixture: the first SPERR PWE
/// corpus case re-encoded with the chunk index on. Pins the v3 byte
/// layout (including the index block) the same way the matrix pins v2.
pub const V3_FIXTURE_NAME: &str = "fixture-v3.bin";

/// The committed golden directory (source-relative, so tests and the
/// regen binary agree regardless of working directory).
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// One golden cell: identity, committed bytes, and regen-time
/// measurements.
#[derive(Debug, Clone)]
pub struct GoldenEntry {
    /// `<input>-<codec>-<mode>`, unique across the matrix.
    pub case_id: String,
    /// Corpus input id (first component of `case_id`).
    pub input_id: String,
    /// Which codec produced the stream.
    pub codec: CodecId,
    /// The bound the stream was encoded under.
    pub bound: Bound,
    /// Committed stream length in bytes.
    pub stream_len: usize,
    /// CRC-32 of the committed stream bytes.
    pub stream_crc: u32,
    /// CRC-32 over the decoded values' little-endian f64 bytes.
    pub values_crc: u32,
    /// Max point-wise error achieved at regen time (bit-exact f64).
    pub max_err: f64,
}

impl GoldenEntry {
    /// File name of the committed stream.
    pub fn file_name(&self) -> String {
        format!("{}.bin", self.case_id)
    }
}

/// One f32-native golden cell: a 3D corpus input narrowed to single
/// precision and encoded through `Sperr::compress_f32` with the current
/// (indexed) container. Pins the f32 wire format — precision tag 2,
/// f32-quantized SPECK planes, f32 outlier corrections — the same way
/// the matrix pins the f64 encoding.
#[derive(Debug, Clone)]
pub struct F32GoldenEntry {
    /// `<input>-f32-sperr-pwe`, unique across the f32 set.
    pub case_id: String,
    /// Corpus input id (first component of `case_id`).
    pub input_id: String,
    /// The PWE tolerance the stream was encoded under (bit-exact f64).
    pub tolerance: f64,
    /// Committed stream length in bytes.
    pub stream_len: usize,
    /// CRC-32 of the committed stream bytes.
    pub stream_crc: u32,
    /// CRC-32 over the decoded values' little-endian **f32** bytes.
    pub values_crc: u32,
    /// Max point-wise error vs the f32 input at regen time (bit-exact
    /// f64 of f32-widened differences).
    pub max_err: f64,
}

impl F32GoldenEntry {
    /// File name of the committed stream.
    pub fn file_name(&self) -> String {
        format!("{}.bin", self.case_id)
    }
}

/// Parsed manifest: format header plus entries.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// [`GOLDEN_VERSION`] at regen time.
    pub golden_version: u32,
    /// Container format the SPERR goldens were written in.
    pub container_version: u8,
    /// [`sperr_speck::BITSTREAM_FORMAT`] at regen time.
    pub speck_format: u32,
    /// [`sperr_outlier::BITSTREAM_FORMAT`] at regen time.
    pub outlier_format: u32,
    /// One entry per golden stream.
    pub entries: Vec<GoldenEntry>,
    /// One entry per f32-native golden stream (empty on pre-v3 sets).
    pub f32_entries: Vec<F32GoldenEntry>,
    /// `(len, crc32)` of the committed v1 fixture.
    pub v1_fixture: (usize, u32),
    /// `(len, crc32, index_crc32)` of the committed v3 fixture, where
    /// `index_crc32` digests the serialized chunk-index entries.
    pub v3_fixture: (usize, u32, u32),
}

fn digest_values(values: &[f64]) -> u32 {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    crc32(&bytes)
}

fn digest_values_f32(values: &[f32]) -> u32 {
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    crc32(&bytes)
}

/// The SPERR configuration the goldens pin (16³ chunks, single thread),
/// writing the current indexed container: it produces the v3 fixture, and
/// [`CodecId::build`] re-frames its encodes as the container-v2 matrix
/// goldens.
fn golden_sperr() -> Sperr {
    Sperr::new(SperrConfig { chunk_dims: [16, 16, 16], num_threads: 1, ..SperrConfig::default() })
}

/// CRC-32 over the serialized chunk-index entries of an indexed stream.
/// Pins the index block itself, not just the container bytes: an index
/// that drifted while payloads stayed put would change this digest.
pub fn index_crc(stream: &[u8]) -> Result<u32, String> {
    let info = golden_sperr()
        .inspect(stream)
        .map_err(|e| format!("v3 fixture does not inspect: {e}"))?;
    let index = info.chunk_index.ok_or("v3 fixture carries no chunk index")?;
    let mut bytes = Vec::new();
    for e in &index {
        bytes.extend_from_slice(&e.to_bytes());
    }
    Ok(crc32(&bytes))
}

/// Encodes the full golden matrix in memory. Returns `(entry, stream)`
/// pairs plus the v1 and v3 fixture bytes. Panics if any codec fails to
/// encode or violates its documented budget — a golden set must never
/// pin a broken stream.
pub fn generate() -> (Vec<(GoldenEntry, Vec<u8>)>, Vec<u8>, Vec<u8>) {
    let mut out = Vec::new();
    let mut first_sperr_pwe: Option<Vec<u8>> = None;
    let mut v3_fixture: Option<Vec<u8>> = None;
    for input in corpus_inputs() {
        let field = input.generate();
        for codec in CodecId::ALL {
            let compressor = codec.build();
            for bound in golden_bounds(codec, &field) {
                let case_id = format!("{}-{}-{}", input.id, codec.tag(), bound_tag(bound));
                let stream = compressor
                    .compress(&field, bound)
                    .unwrap_or_else(|e| panic!("golden {case_id}: compress failed: {e}"));
                let recon = compressor
                    .decompress(&stream)
                    .unwrap_or_else(|e| panic!("golden {case_id}: decompress failed: {e}"));
                let budget = documented_budget(codec, bound, field.dims);
                if let Err((observed, allowed)) = check_budget(&field.data, &recon.data, budget) {
                    panic!(
                        "golden {case_id}: budget violated at regen time: \
                         observed {observed:e}, allowed {allowed:e}"
                    );
                }
                let max_err = sperr_metrics::max_pwe(&field.data, &recon.data);
                if matches!((codec, bound), (CodecId::Sperr, Bound::Pwe(_)))
                    && first_sperr_pwe.is_none()
                {
                    first_sperr_pwe = Some(stream.clone());
                    // The v3 fixture is the same case re-encoded with the
                    // chunk index on — its decode must match the v2 twin
                    // and its downgrade must reproduce the v2 bytes.
                    v3_fixture = Some(
                        golden_sperr()
                            .compress(&field, bound)
                            .unwrap_or_else(|e| panic!("v3 fixture ({case_id}): {e}")),
                    );
                }
                let entry = GoldenEntry {
                    case_id,
                    input_id: input.id.to_string(),
                    codec,
                    bound,
                    stream_len: stream.len(),
                    stream_crc: crc32(&stream),
                    values_crc: digest_values(&recon.data),
                    max_err,
                };
                out.push((entry, stream));
            }
        }
    }
    let v2 = first_sperr_pwe.expect("matrix contains at least one SPERR PWE golden");
    let v1 = golden_sperr()
        .downgrade_to_v1(&v2)
        .expect("downgrading a fresh SPERR golden to container v1");
    let v3 = v3_fixture.expect("matrix contains at least one SPERR PWE golden");
    (out, v1, v3)
}

/// The corpus inputs that get an f32-native golden: the 3D shapes (one
/// single-chunk, one multi-chunk) of both generators — the cells where
/// the f32 chunk pipeline, not just narrowing, is under test.
pub fn f32_inputs() -> Vec<CorpusInput> {
    corpus_inputs().into_iter().filter(|i| i.dims[2] > 1).collect()
}

/// Encodes the f32-native golden set in memory: each [`f32_inputs`]
/// field narrowed to single precision and compressed through
/// `compress_f32` at the corpus-standard PWE tolerance, with the same
/// chunking/threading as the rest of the goldens and the current
/// (indexed) container. Panics if a stream fails to round-trip, is not
/// marked f32-native, or misses the f32-adjusted PWE budget.
pub fn generate_f32() -> Vec<(F32GoldenEntry, Vec<u8>)> {
    let sperr = golden_sperr();
    let mut out = Vec::new();
    for input in f32_inputs() {
        let field = input.generate_f32();
        let t = field.tolerance_for_idx(15);
        let case_id = format!("{}-f32-sperr-pwe", input.id);
        let stream = sperr
            .compress_f32(&field, Bound::Pwe(t))
            .unwrap_or_else(|e| panic!("f32 golden {case_id}: compress failed: {e}"));
        let info = sperr
            .inspect(&stream)
            .unwrap_or_else(|e| panic!("f32 golden {case_id}: inspect failed: {e}"));
        assert!(info.native_f32, "f32 golden {case_id}: stream not marked f32-native");
        let recon = sperr
            .decompress_f32(&stream)
            .unwrap_or_else(|e| panic!("f32 golden {case_id}: decompress failed: {e}"));
        let max_err = field
            .data
            .iter()
            .zip(&recon.data)
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .fold(0.0, f64::max);
        let allowed = f32_budget(t, field.range());
        assert!(
            max_err <= allowed,
            "f32 golden {case_id}: budget violated at regen time: \
             observed {max_err:e}, allowed {allowed:e}"
        );
        let entry = F32GoldenEntry {
            case_id,
            input_id: input.id.to_string(),
            tolerance: t,
            stream_len: stream.len(),
            stream_crc: crc32(&stream),
            values_crc: digest_values_f32(&recon.data),
            max_err,
        };
        out.push((entry, stream));
    }
    out
}

fn bound_value(bound: Bound) -> f64 {
    match bound {
        Bound::Pwe(v) | Bound::Bpp(v) | Bound::Psnr(v) => v,
    }
}

fn bound_from(tag: &str, value: f64) -> Option<Bound> {
    match tag {
        "pwe" => Some(Bound::Pwe(value)),
        "bpp" => Some(Bound::Bpp(value)),
        "psnr" => Some(Bound::Psnr(value)),
        _ => None,
    }
}

/// Renders the manifest text for a generated set.
pub fn render_manifest(
    entries: &[(GoldenEntry, Vec<u8>)],
    f32_entries: &[(F32GoldenEntry, Vec<u8>)],
    v1_fixture: &[u8],
    v3_fixture: &[u8],
    v3_index_crc: u32,
) -> String {
    let mut s = String::new();
    s.push_str("# SPERR conformance golden manifest. Regenerate with\n");
    s.push_str("#   cargo run -p sperr-conformance -- regen\n");
    s.push_str("# and bump GOLDEN_VERSION in crates/conformance/src/golden.rs.\n");
    s.push_str(&format!("golden_version {GOLDEN_VERSION}\n"));
    s.push_str(&format!("container_version {GOLDEN_CONTAINER_VERSION}\n"));
    s.push_str(&format!("speck_format {}\n", sperr_speck::BITSTREAM_FORMAT));
    s.push_str(&format!("outlier_format {}\n", sperr_outlier::BITSTREAM_FORMAT));
    s.push_str(&format!("v1_fixture {} {} {:08x}\n", V1_FIXTURE_NAME, v1_fixture.len(), crc32(v1_fixture)));
    s.push_str(&format!(
        "v3_fixture {} {} {:08x} {:08x}\n",
        V3_FIXTURE_NAME,
        v3_fixture.len(),
        crc32(v3_fixture),
        v3_index_crc,
    ));
    for (e, _) in entries {
        s.push_str(&format!(
            "entry {} {} {} {:016x} {} {:08x} {:08x} {:016x}\n",
            e.case_id,
            e.codec.tag(),
            bound_tag(e.bound),
            bound_value(e.bound).to_bits(),
            e.stream_len,
            e.stream_crc,
            e.values_crc,
            e.max_err.to_bits(),
        ));
    }
    for (e, _) in f32_entries {
        s.push_str(&format!(
            "f32_entry {} {:016x} {} {:08x} {:08x} {:016x}\n",
            e.case_id,
            e.tolerance.to_bits(),
            e.stream_len,
            e.stream_crc,
            e.values_crc,
            e.max_err.to_bits(),
        ));
    }
    s
}

/// Parses [`render_manifest`] output.
pub fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let mut golden_version = None;
    let mut container_version = None;
    let mut speck_format = None;
    let mut outlier_format = None;
    let mut v1_fixture = None;
    let mut v3_fixture = None;
    let mut entries = Vec::new();
    let mut f32_entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let key = parts.next().unwrap();
        let rest: Vec<&str> = parts.collect();
        let bad = |what: &str| format!("manifest line {}: {what}: {line}", lineno + 1);
        match key {
            "golden_version" => {
                golden_version =
                    Some(rest[0].parse().map_err(|_| bad("unparseable golden_version"))?)
            }
            "container_version" => {
                container_version =
                    Some(rest[0].parse().map_err(|_| bad("unparseable container_version"))?)
            }
            "speck_format" => {
                speck_format = Some(rest[0].parse().map_err(|_| bad("unparseable speck_format"))?)
            }
            "outlier_format" => {
                outlier_format =
                    Some(rest[0].parse().map_err(|_| bad("unparseable outlier_format"))?)
            }
            "v1_fixture" => {
                if rest.len() != 3 || rest[0] != V1_FIXTURE_NAME {
                    return Err(bad("malformed v1_fixture line"));
                }
                let len = rest[1].parse().map_err(|_| bad("unparseable fixture length"))?;
                let crc = u32::from_str_radix(rest[2], 16)
                    .map_err(|_| bad("unparseable fixture crc"))?;
                v1_fixture = Some((len, crc));
            }
            "v3_fixture" => {
                if rest.len() != 4 || rest[0] != V3_FIXTURE_NAME {
                    return Err(bad("malformed v3_fixture line"));
                }
                let len = rest[1].parse().map_err(|_| bad("unparseable fixture length"))?;
                let crc = u32::from_str_radix(rest[2], 16)
                    .map_err(|_| bad("unparseable fixture crc"))?;
                let icrc = u32::from_str_radix(rest[3], 16)
                    .map_err(|_| bad("unparseable index crc"))?;
                v3_fixture = Some((len, crc, icrc));
            }
            "entry" => {
                if rest.len() != 8 {
                    return Err(bad("entry needs 8 fields"));
                }
                let codec =
                    CodecId::from_tag(rest[1]).ok_or_else(|| bad("unknown codec tag"))?;
                let bval = f64::from_bits(
                    u64::from_str_radix(rest[3], 16).map_err(|_| bad("unparseable bound bits"))?,
                );
                let bound = bound_from(rest[2], bval).ok_or_else(|| bad("unknown mode tag"))?;
                let input_id = rest[0]
                    .strip_suffix(&format!("-{}-{}", rest[1], rest[2]))
                    .ok_or_else(|| bad("case id does not end in codec-mode"))?;
                entries.push(GoldenEntry {
                    case_id: rest[0].to_string(),
                    input_id: input_id.to_string(),
                    codec,
                    bound,
                    stream_len: rest[4].parse().map_err(|_| bad("unparseable length"))?,
                    stream_crc: u32::from_str_radix(rest[5], 16)
                        .map_err(|_| bad("unparseable stream crc"))?,
                    values_crc: u32::from_str_radix(rest[6], 16)
                        .map_err(|_| bad("unparseable values crc"))?,
                    max_err: f64::from_bits(
                        u64::from_str_radix(rest[7], 16)
                            .map_err(|_| bad("unparseable max_err bits"))?,
                    ),
                });
            }
            "f32_entry" => {
                if rest.len() != 6 {
                    return Err(bad("f32_entry needs 6 fields"));
                }
                let input_id = rest[0]
                    .strip_suffix("-f32-sperr-pwe")
                    .ok_or_else(|| bad("f32 case id does not end in -f32-sperr-pwe"))?;
                f32_entries.push(F32GoldenEntry {
                    case_id: rest[0].to_string(),
                    input_id: input_id.to_string(),
                    tolerance: f64::from_bits(
                        u64::from_str_radix(rest[1], 16)
                            .map_err(|_| bad("unparseable tolerance bits"))?,
                    ),
                    stream_len: rest[2].parse().map_err(|_| bad("unparseable length"))?,
                    stream_crc: u32::from_str_radix(rest[3], 16)
                        .map_err(|_| bad("unparseable stream crc"))?,
                    values_crc: u32::from_str_radix(rest[4], 16)
                        .map_err(|_| bad("unparseable values crc"))?,
                    max_err: f64::from_bits(
                        u64::from_str_radix(rest[5], 16)
                            .map_err(|_| bad("unparseable max_err bits"))?,
                    ),
                });
            }
            other => return Err(format!("manifest line {}: unknown key {other}", lineno + 1)),
        }
    }
    Ok(Manifest {
        golden_version: golden_version.ok_or("manifest missing golden_version")?,
        container_version: container_version.ok_or("manifest missing container_version")?,
        speck_format: speck_format.ok_or("manifest missing speck_format")?,
        outlier_format: outlier_format.ok_or("manifest missing outlier_format")?,
        v1_fixture: v1_fixture.ok_or("manifest missing v1_fixture")?,
        v3_fixture: v3_fixture.ok_or("manifest missing v3_fixture")?,
        entries,
        f32_entries,
    })
}

/// Regenerates the golden directory on disk: every stream file, the v1
/// and v3 fixtures, and the manifest. Stale `.bin` files from a previous
/// matrix are removed. Returns the number of streams written.
pub fn regenerate(dir: &Path) -> std::io::Result<usize> {
    let (entries, v1, v3) = generate();
    let f32_entries = generate_f32();
    let v3_index_crc = index_crc(&v3)
        .map_err(|e| std::io::Error::other(format!("generated v3 fixture is unusable: {e}")))?;
    std::fs::create_dir_all(dir)?;
    for old in std::fs::read_dir(dir)? {
        let path = old?.path();
        if path.extension().is_some_and(|e| e == "bin") {
            std::fs::remove_file(path)?;
        }
    }
    for (e, stream) in &entries {
        std::fs::write(dir.join(e.file_name()), stream)?;
    }
    for (e, stream) in &f32_entries {
        std::fs::write(dir.join(e.file_name()), stream)?;
    }
    std::fs::write(dir.join(V1_FIXTURE_NAME), &v1)?;
    std::fs::write(dir.join(V3_FIXTURE_NAME), &v3)?;
    std::fs::write(
        dir.join(MANIFEST_NAME),
        render_manifest(&entries, &f32_entries, &v1, &v3, v3_index_crc),
    )?;
    Ok(entries.len() + f32_entries.len())
}

/// Loads the committed manifest from `dir`.
pub fn load_manifest(dir: &Path) -> Result<Manifest, String> {
    let path = dir.join(MANIFEST_NAME);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e} (run `regen` first?)", path.display()))?;
    parse_manifest(&text)
}

/// Full conformance check of the committed golden set against the
/// current encoders and decoders. Returns every divergence (empty =
/// conformant).
pub fn check(dir: &Path) -> Vec<CheckFailure> {
    let fail = |detail: String| CheckFailure { check: "golden-streams", detail };
    let manifest = match load_manifest(dir) {
        Ok(m) => m,
        Err(e) => return vec![fail(e)],
    };
    let mut failures = Vec::new();

    // Format-version pins: the committed set must have been cut against
    // the formats the code currently implements.
    if manifest.golden_version != GOLDEN_VERSION {
        failures.push(fail(format!(
            "manifest golden_version {} != code GOLDEN_VERSION {GOLDEN_VERSION}",
            manifest.golden_version
        )));
    }
    if manifest.container_version != GOLDEN_CONTAINER_VERSION {
        failures.push(fail(format!(
            "manifest container_version {} != pinned GOLDEN_CONTAINER_VERSION \
             {GOLDEN_CONTAINER_VERSION}",
            manifest.container_version
        )));
    }
    if manifest.speck_format != sperr_speck::BITSTREAM_FORMAT {
        failures.push(fail(format!(
            "manifest speck_format {} != code {}",
            manifest.speck_format,
            sperr_speck::BITSTREAM_FORMAT
        )));
    }
    if manifest.outlier_format != sperr_outlier::BITSTREAM_FORMAT {
        failures.push(fail(format!(
            "manifest outlier_format {} != code {}",
            manifest.outlier_format,
            sperr_outlier::BITSTREAM_FORMAT
        )));
    }

    // The matrix must be complete: every (input, codec, mode) cell the
    // current code would generate has a committed entry, and vice versa.
    let mut expected: Vec<String> = Vec::new();
    let inputs = corpus_inputs();
    for input in &inputs {
        let field = input.generate();
        for codec in CodecId::ALL {
            for bound in golden_bounds(codec, &field) {
                expected.push(format!("{}-{}-{}", input.id, codec.tag(), bound_tag(bound)));
            }
        }
    }
    let committed: Vec<&str> = manifest.entries.iter().map(|e| e.case_id.as_str()).collect();
    for id in &expected {
        if !committed.contains(&id.as_str()) {
            failures.push(fail(format!("matrix cell {id} missing from committed manifest")));
        }
    }
    for id in &committed {
        if !expected.iter().any(|e| e == id) {
            failures.push(fail(format!("committed entry {id} is no longer in the matrix")));
        }
    }

    for entry in &manifest.entries {
        let Some(input) = inputs.iter().find(|i| i.id == entry.input_id) else {
            continue; // already reported as a stale cell
        };
        let field = input.generate();
        let compressor = entry.codec.build();

        // Byte-for-byte: today's encoder must reproduce the committed
        // stream exactly.
        let committed_bytes = match std::fs::read(dir.join(entry.file_name())) {
            Ok(b) => b,
            Err(e) => {
                failures.push(fail(format!("{}: cannot read stream file: {e}", entry.case_id)));
                continue;
            }
        };
        if crc32(&committed_bytes) != entry.stream_crc || committed_bytes.len() != entry.stream_len
        {
            failures.push(fail(format!(
                "{}: committed file does not match its manifest digest (file corrupt or \
                 manifest stale)",
                entry.case_id
            )));
            continue;
        }
        match compressor.compress(&field, entry.bound) {
            Ok(stream) => {
                if stream != committed_bytes {
                    failures.push(fail(format!(
                        "{}: re-encoded stream differs from committed bytes ({} vs {} bytes, \
                         crc {:08x} vs {:08x}) — encoder drift",
                        entry.case_id,
                        stream.len(),
                        committed_bytes.len(),
                        crc32(&stream),
                        entry.stream_crc,
                    )));
                }
            }
            Err(e) => {
                failures.push(fail(format!("{}: re-encode failed: {e}", entry.case_id)));
            }
        }

        // Value-for-value: decoding the committed bytes must reproduce
        // the regen-time values exactly and still honor the budget.
        match compressor.decompress(&committed_bytes) {
            Ok(recon) => {
                if digest_values(&recon.data) != entry.values_crc {
                    failures.push(fail(format!(
                        "{}: decoded values differ from regen-time digest — decoder drift",
                        entry.case_id
                    )));
                }
                let budget = documented_budget(entry.codec, entry.bound, field.dims);
                if let Err((observed, allowed)) = check_budget(&field.data, &recon.data, budget) {
                    failures.push(fail(format!(
                        "{}: documented budget violated: observed {observed:e} allowed \
                         {allowed:e}",
                        entry.case_id
                    )));
                }
            }
            Err(e) => {
                failures.push(fail(format!("{}: decode failed: {e}", entry.case_id)));
            }
        }
    }

    // The f32-native set: complete, byte-for-byte reproducible through
    // compress_f32, value-for-value through decompress_f32, and still
    // within the f32-adjusted PWE budget.
    check_f32_entries(dir, &manifest, &mut failures, &fail);

    // The v1 fixture must still decode through the legacy read path and
    // match the v2 golden it was downgraded from.
    match std::fs::read(dir.join(V1_FIXTURE_NAME)) {
        Ok(v1) => {
            if v1.len() != manifest.v1_fixture.0 || crc32(&v1) != manifest.v1_fixture.1 {
                failures.push(fail("v1 fixture does not match its manifest digest".into()));
            } else if let Err(e) = golden_sperr().decompress(&v1) {
                failures.push(fail(format!("v1 fixture no longer decodes: {e}")));
            }
        }
        Err(e) => failures.push(fail(format!("cannot read v1 fixture: {e}"))),
    }

    // The v3 fixture pins the indexed container layout: bytes and index
    // CRC must match the manifest, its decode must equal the committed
    // v2 twin's decode bit-for-bit, and downgrading it back to v2 must
    // reproduce the twin's exact bytes.
    check_v3_fixture(dir, &manifest, &inputs, &mut failures, &fail);

    failures
}

fn check_f32_entries(
    dir: &Path,
    manifest: &Manifest,
    failures: &mut Vec<CheckFailure>,
    fail: &dyn Fn(String) -> CheckFailure,
) {
    let inputs = f32_inputs();
    let expected: Vec<String> =
        inputs.iter().map(|i| format!("{}-f32-sperr-pwe", i.id)).collect();
    let committed: Vec<&str> =
        manifest.f32_entries.iter().map(|e| e.case_id.as_str()).collect();
    for id in &expected {
        if !committed.contains(&id.as_str()) {
            failures.push(fail(format!("f32 cell {id} missing from committed manifest")));
        }
    }
    for id in &committed {
        if !expected.iter().any(|e| e == id) {
            failures.push(fail(format!("committed f32 entry {id} is no longer in the set")));
        }
    }

    let sperr = golden_sperr();
    for entry in &manifest.f32_entries {
        let Some(input) = inputs.iter().find(|i| i.id == entry.input_id) else {
            continue; // already reported as a stale cell
        };
        let field = input.generate_f32();
        let t = field.tolerance_for_idx(15);
        if t.to_bits() != entry.tolerance.to_bits() {
            failures.push(fail(format!(
                "{}: manifest tolerance {:e} != corpus-standard {t:e}",
                entry.case_id, entry.tolerance
            )));
        }

        let committed_bytes = match std::fs::read(dir.join(entry.file_name())) {
            Ok(b) => b,
            Err(e) => {
                failures.push(fail(format!("{}: cannot read stream file: {e}", entry.case_id)));
                continue;
            }
        };
        if crc32(&committed_bytes) != entry.stream_crc || committed_bytes.len() != entry.stream_len
        {
            failures.push(fail(format!(
                "{}: committed file does not match its manifest digest (file corrupt or \
                 manifest stale)",
                entry.case_id
            )));
            continue;
        }
        match sperr.compress_f32(&field, Bound::Pwe(entry.tolerance)) {
            Ok(stream) => {
                if stream != committed_bytes {
                    failures.push(fail(format!(
                        "{}: re-encoded f32 stream differs from committed bytes ({} vs {} \
                         bytes, crc {:08x} vs {:08x}) — f32 encoder drift",
                        entry.case_id,
                        stream.len(),
                        committed_bytes.len(),
                        crc32(&stream),
                        entry.stream_crc,
                    )));
                }
            }
            Err(e) => {
                failures.push(fail(format!("{}: f32 re-encode failed: {e}", entry.case_id)));
            }
        }
        match sperr.inspect(&committed_bytes) {
            Ok(info) if !info.native_f32 => failures.push(fail(format!(
                "{}: committed stream is not marked f32-native",
                entry.case_id
            ))),
            Ok(_) => {}
            Err(e) => failures.push(fail(format!("{}: inspect failed: {e}", entry.case_id))),
        }
        match sperr.decompress_f32(&committed_bytes) {
            Ok(recon) => {
                if digest_values_f32(&recon.data) != entry.values_crc {
                    failures.push(fail(format!(
                        "{}: decoded f32 values differ from regen-time digest — decoder drift",
                        entry.case_id
                    )));
                }
                let observed = field
                    .data
                    .iter()
                    .zip(&recon.data)
                    .map(|(&a, &b)| (a as f64 - b as f64).abs())
                    .fold(0.0, f64::max);
                let allowed = f32_budget(entry.tolerance, field.range());
                if observed > allowed {
                    failures.push(fail(format!(
                        "{}: f32 PWE budget violated: observed {observed:e} allowed {allowed:e}",
                        entry.case_id
                    )));
                }
            }
            Err(e) => {
                failures.push(fail(format!("{}: f32 decode failed: {e}", entry.case_id)));
            }
        }
    }
}

/// The committed v2 golden the v3 fixture is a re-encode of: the first
/// SPERR PWE cell in matrix order (mirrors [`generate`]).
fn v3_twin_case_id(inputs: &[crate::corpus::CorpusInput]) -> Option<String> {
    for input in inputs {
        let field = input.generate();
        for bound in golden_bounds(CodecId::Sperr, &field) {
            if matches!(bound, Bound::Pwe(_)) {
                return Some(format!("{}-sperr-pwe", input.id));
            }
        }
    }
    None
}

fn check_v3_fixture(
    dir: &Path,
    manifest: &Manifest,
    inputs: &[crate::corpus::CorpusInput],
    failures: &mut Vec<CheckFailure>,
    fail: &dyn Fn(String) -> CheckFailure,
) {
    let v3 = match std::fs::read(dir.join(V3_FIXTURE_NAME)) {
        Ok(v3) => v3,
        Err(e) => {
            failures.push(fail(format!("cannot read v3 fixture: {e}")));
            return;
        }
    };
    let (len, crc, want_index_crc) = manifest.v3_fixture;
    if v3.len() != len || crc32(&v3) != crc {
        failures.push(fail("v3 fixture does not match its manifest digest".into()));
        return;
    }
    match index_crc(&v3) {
        Ok(got) => {
            if got != want_index_crc {
                failures.push(fail(format!(
                    "v3 fixture chunk-index CRC {got:08x} != manifest {want_index_crc:08x}"
                )));
            }
        }
        Err(e) => failures.push(fail(format!("v3 fixture index: {e}"))),
    }
    let Some(twin_id) = v3_twin_case_id(inputs) else {
        failures.push(fail("matrix has no SPERR PWE cell to twin the v3 fixture".into()));
        return;
    };
    let twin_bytes = match std::fs::read(dir.join(format!("{twin_id}.bin"))) {
        Ok(b) => b,
        Err(e) => {
            failures.push(fail(format!("cannot read v3 twin {twin_id}: {e}")));
            return;
        }
    };
    let sperr = golden_sperr();
    match (sperr.decompress(&v3), sperr.decompress(&twin_bytes)) {
        (Ok(from_v3), Ok(from_v2)) => {
            let same = from_v3.data.len() == from_v2.data.len()
                && from_v3
                    .data
                    .iter()
                    .zip(&from_v2.data)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                failures.push(fail(format!(
                    "v3 fixture decode differs from its v2 twin {twin_id} — the index \
                     changed decoded values"
                )));
            }
        }
        (Err(e), _) => failures.push(fail(format!("v3 fixture no longer decodes: {e}"))),
        (_, Err(e)) => failures.push(fail(format!("v3 twin {twin_id} no longer decodes: {e}"))),
    }
    match sperr.downgrade_to_v2(&v3) {
        Ok(down) => {
            if down != twin_bytes {
                failures.push(fail(format!(
                    "downgrade_to_v2(v3 fixture) does not reproduce the committed {twin_id} \
                     bytes — v2 writer or index layout drift"
                )));
            }
        }
        Err(e) => failures.push(fail(format!("downgrade_to_v2 on the v3 fixture failed: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips() {
        let entries = vec![(
            GoldenEntry {
                case_id: "press-3d16-sperr-pwe".into(),
                input_id: "press-3d16".into(),
                codec: CodecId::Sperr,
                bound: Bound::Pwe(1.25e-3),
                stream_len: 420,
                stream_crc: 0xdead_beef,
                values_crc: 0x0bad_f00d,
                max_err: 9.5e-4,
            },
            vec![],
        )];
        let f32_entries = vec![(
            F32GoldenEntry {
                case_id: "press-3d16-f32-sperr-pwe".into(),
                input_id: "press-3d16".into(),
                tolerance: 1.25e-3,
                stream_len: 390,
                stream_crc: 0xfeed_cafe,
                values_crc: 0x1234_5678,
                max_err: 1.1e-3,
            },
            vec![],
        )];
        let v1 = vec![1u8, 2, 3];
        let v3 = vec![4u8, 5, 6, 7];
        let text = render_manifest(&entries, &f32_entries, &v1, &v3, 0xabcd_1234);
        let m = parse_manifest(&text).unwrap();
        assert_eq!(m.golden_version, GOLDEN_VERSION);
        assert_eq!(m.container_version, GOLDEN_CONTAINER_VERSION);
        assert_eq!(m.v1_fixture, (3, crc32(&v1)));
        assert_eq!(m.v3_fixture, (4, crc32(&v3), 0xabcd_1234));
        assert_eq!(m.entries.len(), 1);
        let e = &m.entries[0];
        assert_eq!(e.case_id, "press-3d16-sperr-pwe");
        assert_eq!(e.input_id, "press-3d16");
        assert_eq!(e.codec, CodecId::Sperr);
        assert_eq!(e.bound, Bound::Pwe(1.25e-3));
        assert_eq!(e.stream_crc, 0xdead_beef);
        assert_eq!(e.max_err.to_bits(), 9.5e-4f64.to_bits());
        assert_eq!(m.f32_entries.len(), 1);
        let fe = &m.f32_entries[0];
        assert_eq!(fe.case_id, "press-3d16-f32-sperr-pwe");
        assert_eq!(fe.input_id, "press-3d16");
        assert_eq!(fe.tolerance.to_bits(), 1.25e-3f64.to_bits());
        assert_eq!(fe.stream_len, 390);
        assert_eq!(fe.stream_crc, 0xfeed_cafe);
        assert_eq!(fe.values_crc, 0x1234_5678);
        assert_eq!(fe.max_err.to_bits(), 1.1e-3f64.to_bits());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_manifest("nonsense 1").is_err());
        assert!(parse_manifest("golden_version x").is_err());
        assert!(parse_manifest("entry only-three fields here").is_err());
        assert!(parse_manifest("f32_entry too-few 1 2").is_err());
        assert!(parse_manifest("f32_entry bad-suffix 0 1 2 3 4").is_err());
        // Missing required header keys.
        assert!(parse_manifest("golden_version 1").is_err());
    }

    #[test]
    fn f32_set_covers_both_generators_times_3d_shapes() {
        let ids: Vec<&str> = f32_inputs().iter().map(|i| i.id).collect();
        assert_eq!(ids, vec!["press-3d16", "press-3d21x10x11", "nyx-3d16", "nyx-3d21x10x11"]);
    }
}
