//! Fault-injection campaign for the streaming pipeline.
//!
//! The streaming API's contract is: on success, byte-identical output to
//! the in-memory path; on *any* failure — endpoint I/O errors, corrupt
//! streams, worker panics at any pipeline stage — a clean typed
//! [`SperrError`], never a panic escaping the API, never a hang, and
//! never a partial container that passes `verify`. This module attacks
//! that contract from every seam:
//!
//! * [`FaultyReader`]: short reads (arbitrary per-call byte caps) and
//!   scripted `ErrorKind` injection at randomized byte offsets.
//! * [`FaultyWriter`]: scripted write errors at randomized offsets and a
//!   zero-progress mode (`Ok(0)` forever, the nastiest `Write` impl that
//!   is still legal) — plus capture of whatever bytes made it out, so the
//!   campaign can prove partial output never verifies.
//! * Scripted worker-panic injection at each pipeline stage via the
//!   core's `faultpoint` hooks, including the ingest/emit/container
//!   stages that run on the caller thread.
//! * An in-flight-budget stress proving bounded memory (via the
//!   `peak_in_flight` gauge) and, implicitly through the watchdog, no
//!   deadlock.
//!
//! Run as `sperr-conformance faults [N]`; a watchdog aborts the process
//! (exit 99) if the campaign wedges, so a back-pressure deadlock fails CI
//! loudly instead of timing out the whole job.

use std::io::{ErrorKind, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};
use sperr_compress_api::{Bound, Field, LossyCompressor, Precision};
use sperr_core::{
    faultpoint, stage_labels, OnDamage, ReadOutput, ReadRequest, Sperr, SperrConfig,
    SperrError, STAGE_CONTAINER, STAGE_EMIT, STAGE_INGEST,
};

use crate::oracle::{CheckFailure, CheckResult};

fn fail(check: &'static str, detail: String) -> CheckResult {
    Err(CheckFailure { check, detail })
}

/// Uniform draw in `[lo, hi]` (the offline rand shim has no ranges).
fn rand_in(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    lo + (rng.next_u64() as usize) % (hi - lo + 1)
}

// ---------------------------------------------------------------------
// Fault adapters
// ---------------------------------------------------------------------

/// A reader over an in-memory byte slice that misbehaves on demand:
/// serves at most `max_per_call` bytes per `read` (exercising short-read
/// handling) and/or fails with `kind` once `fail_at` bytes have been
/// served.
pub struct FaultyReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Per-call byte cap; `usize::MAX` = unlimited.
    pub max_per_call: usize,
    /// Fail as soon as `pos` reaches the offset, with the given kind.
    pub fail_at: Option<(usize, ErrorKind)>,
}

impl<'a> FaultyReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        FaultyReader { data, pos: 0, max_per_call: usize::MAX, fail_at: None }
    }

    /// Serves at most `max_per_call` bytes per call.
    pub fn short(data: &'a [u8], max_per_call: usize) -> Self {
        FaultyReader { max_per_call, ..FaultyReader::new(data) }
    }

    /// Fails with `kind` once `at` bytes have been served.
    pub fn failing(data: &'a [u8], at: usize, kind: ErrorKind) -> Self {
        FaultyReader { fail_at: Some((at, kind)), ..FaultyReader::new(data) }
    }
}

impl Read for FaultyReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some((at, kind)) = self.fail_at {
            if self.pos >= at {
                return Err(std::io::Error::new(kind, "injected read fault"));
            }
        }
        let remaining = self.data.len() - self.pos;
        let mut n = buf.len().min(self.max_per_call).min(remaining);
        // Stop short of the scripted failure point so it fires exactly at
        // the requested offset rather than being jumped over.
        if let Some((at, _)) = self.fail_at {
            if at > self.pos {
                n = n.min(at - self.pos);
            }
        }
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A writer that captures everything written (for partial-output
/// inspection) and misbehaves on demand: fails with `kind` once
/// `fail_at` bytes have been accepted, or — in zero-progress mode —
/// returns `Ok(0)` forever from that point, which a conforming caller
/// must turn into `ErrorKind::WriteZero` rather than spinning.
#[derive(Default)]
pub struct FaultyWriter {
    /// Bytes accepted before the fault point.
    pub written: Vec<u8>,
    /// Byte offset at which to start misbehaving.
    pub fail_at: Option<usize>,
    /// Error kind to return; `None` with `fail_at` set = zero-progress.
    pub kind: Option<ErrorKind>,
}

impl FaultyWriter {
    /// Fails with `kind` once `at` bytes have been accepted.
    pub fn failing(at: usize, kind: ErrorKind) -> Self {
        FaultyWriter { fail_at: Some(at), kind: Some(kind), ..FaultyWriter::default() }
    }

    /// Accepts `at` bytes, then makes no progress ever again.
    pub fn zero_progress(at: usize) -> Self {
        FaultyWriter { fail_at: Some(at), kind: None, ..FaultyWriter::default() }
    }
}

impl Write for FaultyWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let budget = match self.fail_at {
            Some(at) => at.saturating_sub(self.written.len()),
            None => buf.len(),
        };
        if budget == 0 {
            return match self.kind {
                Some(kind) => Err(std::io::Error::new(kind, "injected write fault")),
                None => Ok(0),
            };
        }
        let n = buf.len().min(budget);
        self.written.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

/// Aborts the process if the campaign has not finished within the
/// deadline — a hang (e.g. a back-pressure deadlock) must fail CI
/// loudly, not eat the job's timeout.
struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Watchdog {
    fn arm(deadline: Duration) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let flag = done.clone();
        std::thread::spawn(move || {
            let start = std::time::Instant::now();
            while start.elapsed() < deadline {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
            eprintln!(
                "FAIL [watchdog] fault campaign exceeded {}s — presumed deadlock",
                deadline.as_secs()
            );
            std::process::exit(99);
        });
        Watchdog { done }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

/// Silences the default panic hook for the duration of the injection
/// runs (every injected fault is a caught panic — the backtrace spam
/// would drown real output), restoring it on drop.
struct QuietPanics;

impl QuietPanics {
    fn install() -> QuietPanics {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

// ---------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------

/// Test volume: non-divisible dims so boundary chunks exist on every
/// axis, several z-layers so back-pressure actually engages.
fn campaign_field() -> Field {
    Field::from_fn([20, 12, 24], |x, y, z| {
        (x as f64 * 0.31).sin() * 40.0
            + (y as f64 * 0.17).cos() * 15.0
            + ((x * z) as f64 * 0.011).sin() * 6.0
            + z as f64 * 0.8
    })
}

fn campaign_config(threads: usize) -> SperrConfig {
    SperrConfig { chunk_dims: [8, 8, 8], num_threads: threads, ..SperrConfig::default() }
}

fn raw_f64(field: &Field) -> Vec<u8> {
    let mut out = Vec::with_capacity(field.data.len() * 8);
    for &v in &field.data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

const BOUND: Bound = Bound::Pwe(1e-3);

/// Runs the whole fault-injection campaign; `cases` scales the number of
/// randomized offsets per attack. Returns the (hopefully empty) failure
/// list.
pub fn run_fault_campaign(cases: usize) -> Vec<CheckFailure> {
    let _watchdog = Watchdog::arm(Duration::from_secs(600));
    let mut failures = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xfa17_1417);

    let field = campaign_field();
    let raw = raw_f64(&field);
    let dims = field.dims;
    let sperr = Sperr::new(campaign_config(4));
    let reference = match sperr.compress(&field, BOUND) {
        Ok(s) => s,
        Err(e) => {
            failures.push(CheckFailure {
                check: "fault-setup",
                detail: format!("reference compression failed: {e}"),
            });
            return failures;
        }
    };
    let mut push = |r: CheckResult| {
        if let Err(f) = r {
            failures.push(f);
        }
    };

    push(short_reads_byte_identical(&sperr, &raw, dims, &reference));
    for _ in 0..cases.max(4) {
        let at = rand_in(&mut rng, 0, raw.len() - 1);
        push(read_error_is_typed(&sperr, &raw, dims, at));
        let wat = rand_in(&mut rng, 0, reference.len() - 1);
        push(write_error_is_typed_and_partial_never_verifies(
            &sperr, &raw, dims, &reference, wat,
        ));
    }
    push(zero_progress_writer_errors(&sperr, &raw, dims, &reference));
    push(stage_panics_cancel_cleanly(&raw, dims, &reference));
    push(budget_stress_bounded_and_identical(&mut rng, cases));
    push(resilient_stream_salvages_corruption(&field));
    push(block_table_faults_are_typed());
    // Corruption inside the lossless wrapper, as region reads meet it:
    // contained per SLZ1 block and per chunk, never a whole-read failure
    // unless the head is hit.
    let (stream, chunk_dims, dims) = crate::oracle::wrapper_damage_stream();
    let bboxes = crate::oracle::region_bboxes(dims, chunk_dims, cases.clamp(4, 16), rng.next_u64());
    push(crate::oracle::region_survives_wrapper_damage(&stream, chunk_dims, &bboxes));

    failures
}

/// Short reads (including caps that straddle scalar boundaries) must be
/// invisible: same bytes out as the in-memory path.
fn short_reads_byte_identical(
    sperr: &Sperr,
    raw: &[u8],
    dims: [usize; 3],
    reference: &[u8],
) -> CheckResult {
    for cap in [1usize, 3, 7, 64, 1021] {
        let mut out = Vec::new();
        match sperr.compress_stream(
            FaultyReader::short(raw, cap),
            &mut out,
            dims,
            Precision::Double,
            BOUND,
        ) {
            Ok(_) => {
                if out != reference {
                    return fail(
                        "fault-short-read",
                        format!("cap {cap}: output diverged from in-memory path"),
                    );
                }
            }
            Err(e) => {
                return fail("fault-short-read", format!("cap {cap}: unexpected error {e}"))
            }
        }
    }
    Ok(())
}

/// A mid-stream read error must surface as `SperrError::Io` with the
/// injected kind, with nothing written to the output.
fn read_error_is_typed(
    sperr: &Sperr,
    raw: &[u8],
    dims: [usize; 3],
    at: usize,
) -> CheckResult {
    let mut writer = FaultyWriter::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        sperr.compress_stream(
            FaultyReader::failing(raw, at, ErrorKind::ConnectionReset),
            &mut writer,
            dims,
            Precision::Double,
            BOUND,
        )
    }));
    match outcome {
        Err(_) => fail("fault-read-error", format!("offset {at}: panic escaped the API")),
        Ok(Ok(_)) => fail(
            "fault-read-error",
            format!("offset {at}: compression succeeded despite injected read fault"),
        ),
        Ok(Err(SperrError::Io { kind, stage, .. })) => {
            if kind != ErrorKind::ConnectionReset {
                fail("fault-read-error", format!("offset {at}: wrong kind {kind:?} ({stage})"))
            } else if !writer.written.is_empty() {
                fail(
                    "fault-read-error",
                    format!(
                        "offset {at}: {} bytes written despite failed ingest",
                        writer.written.len()
                    ),
                )
            } else {
                Ok(())
            }
        }
        Ok(Err(other)) => {
            fail("fault-read-error", format!("offset {at}: wrong error class {other}"))
        }
    }
}

/// A write error at any offset must surface as `SperrError::Io`, and the
/// partial container left behind must not pass verification.
fn write_error_is_typed_and_partial_never_verifies(
    sperr: &Sperr,
    raw: &[u8],
    dims: [usize; 3],
    reference: &[u8],
    at: usize,
) -> CheckResult {
    let mut writer = FaultyWriter::failing(at, ErrorKind::StorageFull);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        sperr.compress_stream(
            FaultyReader::new(raw),
            &mut writer,
            dims,
            Precision::Double,
            BOUND,
        )
    }));
    match outcome {
        Err(_) => return fail("fault-write-error", format!("offset {at}: panic escaped")),
        Ok(Ok(_)) => {
            return fail(
                "fault-write-error",
                format!("offset {at}: compression succeeded despite injected write fault"),
            )
        }
        Ok(Err(SperrError::Io { kind: ErrorKind::StorageFull, .. })) => {}
        Ok(Err(other)) => {
            return fail("fault-write-error", format!("offset {at}: wrong error {other}"))
        }
    }
    let partial = &writer.written;
    if partial.len() >= reference.len() {
        return fail(
            "fault-write-error",
            format!("offset {at}: writer accepted the whole stream yet errored"),
        );
    }
    // The partial container must fail verification — a truncated stream
    // that verifies clean would defeat the whole point of checksums.
    match sperr.verify(partial) {
        Err(_) => Ok(()),
        Ok(report) => {
            if report.checksummed && report.is_ok() {
                fail(
                    "fault-partial-verify",
                    format!(
                        "offset {at}: {}-byte partial container passed verification",
                        partial.len()
                    ),
                )
            } else {
                Ok(())
            }
        }
    }
}

/// A `Write` impl that accepts nothing must produce `WriteZero`, not an
/// infinite retry loop (the watchdog catches the loop case).
fn zero_progress_writer_errors(
    sperr: &Sperr,
    raw: &[u8],
    dims: [usize; 3],
    reference: &[u8],
) -> CheckResult {
    for at in [0usize, 10, reference.len() / 2] {
        let mut writer = FaultyWriter::zero_progress(at);
        match sperr.compress_stream(
            FaultyReader::new(raw),
            &mut writer,
            dims,
            Precision::Double,
            BOUND,
        ) {
            Err(SperrError::Io { kind: ErrorKind::WriteZero, .. }) => {}
            Ok(_) => {
                return fail(
                    "fault-zero-progress",
                    format!("at {at}: succeeded against a zero-progress writer"),
                )
            }
            Err(other) => {
                return fail("fault-zero-progress", format!("at {at}: wrong error {other}"))
            }
        }
    }
    Ok(())
}

/// Arms a one-shot panic at every pipeline stage in turn (encode and
/// decode sides, worker and caller threads) and checks: the error is
/// `SperrError::Panic` carrying the stage and the injected message, the
/// fault actually fired, and the very next clean run over the same
/// pipeline produces reference bytes — i.e. cancellation left no debris.
fn stage_panics_cancel_cleanly(
    raw: &[u8],
    dims: [usize; 3],
    reference: &[u8],
) -> CheckResult {
    let _quiet = QuietPanics::install();
    // (label, trigger): trigger > 0 spreads the fault onto later chunks /
    // other worker slots, but caller-thread stages that run once per
    // stream (ingest prologue, container, the compress-side emit) must
    // trigger on their first hit.
    let compress_stages: &[(&str, usize)] = &[
        (stage_labels::WAVELET_FORWARD, 2),
        (stage_labels::SPECK_ENCODE, 1),
        (stage_labels::OUTLIER_LOCATE, 2),
        (stage_labels::OUTLIER_ENCODE, 0),
        (STAGE_INGEST, 2),
        (STAGE_CONTAINER, 0),
        (STAGE_EMIT, 0),
    ];
    let decode_stages: &[(&str, usize)] = &[
        (stage_labels::SPECK_DECODE, 2),
        (stage_labels::WAVELET_INVERSE, 1),
        (stage_labels::OUTLIER_APPLY, 0),
        (STAGE_INGEST, 0),
        (STAGE_CONTAINER, 0),
        (STAGE_EMIT, 2),
    ];
    for threads in [1usize, 2, 4] {
        let sperr = Sperr::new(campaign_config(threads));
        for (decode_side, stages) in [(false, compress_stages), (true, decode_stages)] {
            for &(label, trigger) in stages.iter() {
                faultpoint::arm(label, trigger);
                let result = if decode_side {
                    let mut out = Vec::new();
                    sperr
                        .decompress_stream(FaultyReader::new(reference), &mut out, None)
                        .map(|_| ())
                } else {
                    let mut out = Vec::new();
                    sperr
                        .compress_stream(
                            FaultyReader::new(raw),
                            &mut out,
                            dims,
                            Precision::Double,
                            BOUND,
                        )
                        .map(|_| ())
                };
                let fired = !faultpoint::is_armed();
                faultpoint::disarm();
                let side = if decode_side { "decode" } else { "encode" };
                match result {
                    Err(SperrError::Panic { stage, message, .. }) => {
                        if !message.contains("injected fault") {
                            return fail(
                                "fault-stage-panic",
                                format!("{side} {label} t{threads}: lost panic message: {message}"),
                            );
                        }
                        if stage != label {
                            return fail(
                                "fault-stage-panic",
                                format!(
                                    "{side} {label} t{threads}: panic attributed to {stage}"
                                ),
                            );
                        }
                    }
                    Err(other) => {
                        return fail(
                            "fault-stage-panic",
                            format!("{side} {label} t{threads}: wrong error class {other}"),
                        )
                    }
                    Ok(()) => {
                        if fired {
                            return fail(
                                "fault-stage-panic",
                                format!("{side} {label} t{threads}: fault fired but run succeeded"),
                            );
                        }
                        return fail(
                            "fault-stage-panic",
                            format!(
                                "{side} {label} t{threads}: stage never reached — stale label?"
                            ),
                        );
                    }
                }
                // Recovery: the same Sperr instance must still produce
                // clean, reference-identical output.
                let mut out = Vec::new();
                match sperr.compress_stream(
                    FaultyReader::new(raw),
                    &mut out,
                    dims,
                    Precision::Double,
                    BOUND,
                ) {
                    Ok(_) if out == reference => {}
                    Ok(_) => {
                        return fail(
                            "fault-stage-recovery",
                            format!("{side} {label} t{threads}: post-fault output diverged"),
                        )
                    }
                    Err(e) => {
                        return fail(
                            "fault-stage-recovery",
                            format!("{side} {label} t{threads}: post-fault run failed: {e}"),
                        )
                    }
                }
            }
        }
    }
    Ok(())
}

/// Tiny budgets over a many-layer volume: `peak_in_flight` must respect
/// the effective budget and the output must stay byte-identical, across
/// thread counts and randomized budgets. A deadlock here trips the
/// watchdog.
fn budget_stress_bounded_and_identical(rng: &mut StdRng, cases: usize) -> CheckResult {
    // One chunk per layer, 16 layers: the layer floor is 1, so tiny
    // budgets are honored exactly as configured.
    let field = Field::from_fn([8, 8, 128], |x, y, z| {
        ((x + 2 * y) as f64 * 0.21).sin() * 25.0 + (z as f64 * 0.05).cos() * 10.0
    });
    let raw = raw_f64(&field);
    let setup = |e: sperr_compress_api::CompressError| CheckFailure {
        check: "fault-budget",
        detail: format!("reference failed: {e}"),
    };
    let in_memory = Sperr::new(campaign_config(1));
    let reference = in_memory.compress(&field, BOUND).map_err(setup)?;
    let decoded: Vec<u8> = in_memory
        .decompress(&reference)
        .map_err(setup)?
        .data
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    for i in 0..cases.max(4).min(24) {
        let budget = rand_in(rng, 1, 4);
        let threads = [1, 2, 4, 8][i % 4];
        let sperr = Sperr::new(SperrConfig {
            in_flight_chunks: budget,
            ..campaign_config(threads)
        });
        let mut out = Vec::new();
        let report = sperr
            .compress_stream(FaultyReader::new(&raw), &mut out, field.dims, Precision::Double, BOUND)
            .map_err(|e| CheckFailure {
                check: "fault-budget",
                detail: format!("budget {budget} threads {threads}: {e}"),
            })?;
        if report.peak_in_flight > report.in_flight_budget {
            return fail(
                "fault-budget",
                format!(
                    "budget {budget} threads {threads}: peak {} exceeded budget {}",
                    report.peak_in_flight, report.in_flight_budget
                ),
            );
        }
        if out != reference {
            return fail(
                "fault-budget",
                format!("budget {budget} threads {threads}: output diverged"),
            );
        }
        // Decode side under the same pressure.
        let mut round = Vec::new();
        let dreport = sperr
            .decompress_stream(FaultyReader::new(&reference), &mut round, None)
            .map_err(|e| CheckFailure {
                check: "fault-budget",
                detail: format!("decode budget {budget} threads {threads}: {e}"),
            })?;
        if dreport.peak_in_flight > dreport.in_flight_budget {
            return fail(
                "fault-budget",
                format!(
                    "decode budget {budget} threads {threads}: peak {} exceeded budget {}",
                    dreport.peak_in_flight, dreport.in_flight_budget
                ),
            );
        }
        if round != decoded {
            return fail(
                "fault-budget",
                format!("decode budget {budget} threads {threads}: output diverged"),
            );
        }
    }
    Ok(())
}

/// A damaged SPECK block table is a typed error on every read, never a
/// panic: a split flag set on a one-block payload, a table of the wrong
/// depth, block lengths that do not add up, and a table cut short (the
/// chunk's SPECK length shrunk, its outlier length grown to match). The
/// streams are checksum-free (container v1), so the damage reaches the
/// SPECK decoder. Strict reads fail, a resilient read zero-fills the one
/// chunk and names it.
fn block_table_faults_are_typed() -> CheckResult {
    const CHECK: &str = "fault-block-table";
    let setup = |e: &dyn std::fmt::Display| CheckFailure { check: CHECK, detail: format!("{e}") };
    let config = SperrConfig { lossless: false, num_threads: 2, ..SperrConfig::default() };
    let sperr = Sperr::new(config);
    let v1_of = |field: &Field| {
        let stream = sperr.compress(field, Bound::Pwe(field.tolerance_for_idx(10)));
        stream.and_then(|s| sperr.downgrade_to_v1(&s)).map_err(|e| setup(&e))
    };
    let split = v1_of(&crate::golden::split_fixture_field())?;
    let small = v1_of(&campaign_field())?;
    let blocks = sperr.inspect(&split).map_err(|e| setup(&e))?.chunk_blocks;
    if blocks != [8] {
        return fail(CHECK, format!("the split stream has {blocks:?} code blocks, want [8]"));
    }
    // Chunk 0's table entry behind the framing byte and the v1 header:
    // q (8 bytes), planes, max_n, outlier count (4), SPECK and outlier
    // lengths (4 each).
    let (planes_at, lens_at) = (1 + 44 + 8, 1 + 44 + 14);
    let payload = 1 + sperr.inspect(&split).map_err(|e| setup(&e))?.payload_offset;
    let mut flagged = small.clone();
    flagged[planes_at] |= sperr_speck::SPLIT_FLAG;
    let mut deeper = split.clone();
    deeper[payload] += 1;
    let mut longer = split.clone();
    longer[payload + 2] ^= 0x01;
    let mut cut = split.clone();
    let len = |b: &[u8], at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
    let (speck, outliers) = (len(&cut, lens_at), len(&cut, lens_at + 4));
    cut[lens_at..lens_at + 4].copy_from_slice(&5u32.to_le_bytes());
    cut[lens_at + 4..lens_at + 8].copy_from_slice(&(outliers + speck - 5).to_le_bytes());
    let cases = [
        ("a split flag on a one-block payload", flagged),
        ("a block table of the wrong depth", deeper),
        ("block lengths that do not add up", longer),
        ("a block table cut short", cut),
    ];
    for (what, bad) in cases {
        let reads = catch_unwind(AssertUnwindSafe(|| {
            let region = ReadRequest::Region { lo: [0; 3], hi: [5; 3] };
            let strict = [
                sperr.read::<f64>(&bad, ReadRequest::Full, OnDamage::Fail).err(),
                sperr.read::<f64>(&bad, region, OnDamage::Fail).err(),
                sperr.read::<f64>(&bad, ReadRequest::Bpp(1.0), OnDamage::Fail).err(),
                sperr.transcode_to_bpp(&bad, 1.0).err(),
            ];
            let streamed = sperr.decompress_stream(&bad[..], Vec::new(), None).err();
            let resilient = sperr.read::<f64>(&bad, ReadRequest::Full, OnDamage::ZeroFill);
            (strict, streamed, resilient.map(|r| r.report.failed_chunks()))
        }));
        let Ok((strict, streamed, resilient)) = reads else {
            return fail(CHECK, format!("{what}: a read panicked"));
        };
        if strict.iter().any(Option::is_none) || streamed.is_none() {
            let reads = format!("{strict:?}, {streamed:?}");
            return fail(CHECK, format!("{what}: a strict read succeeded ({reads})"));
        }
        if !matches!(resilient.as_deref(), Ok([0])) {
            return fail(CHECK, format!("{what}: resilient read gave {resilient:?}, want chunk 0"));
        }
    }
    Ok(())
}

/// Streaming resilient decode over a corrupted container must report the
/// bad chunk and match the in-memory resilient decode's output exactly.
fn resilient_stream_salvages_corruption(field: &Field) -> CheckResult {
    let sperr = Sperr::new(SperrConfig {
        lossless: false,
        ..campaign_config(4)
    });
    let stream = sperr.compress(field, BOUND).map_err(|e| CheckFailure {
        check: "fault-resilient",
        detail: format!("setup failed: {e}"),
    })?;
    let info = sperr.inspect(&stream).map_err(|e| CheckFailure {
        check: "fault-resilient",
        detail: format!("inspect failed: {e}"),
    })?;
    let mut bad = stream.clone();
    // Corrupt the middle of the second chunk's payload.
    let off = 1 + info.payload_offset + info.chunk_payload_sizes[0] + 2;
    bad[off] ^= 0x5A;

    let resilient = sperr.read::<f64>(&bad, ReadRequest::Full, OnDamage::ZeroFill);
    let resilient = resilient.map_err(|e| CheckFailure {
        check: "fault-resilient",
        detail: format!("in-memory resilient decode failed: {e}"),
    })?;
    let ReadOutput { field: ref_field, report: ref_report, .. } = resilient;
    let mut out = Vec::new();
    let (_, res) = sperr
        .decompress_stream_resilient(FaultyReader::new(&bad), &mut out, None)
        .map_err(|e| CheckFailure {
            check: "fault-resilient",
            detail: format!("streaming resilient decode failed: {e}"),
        })?;
    if res.statuses != ref_report.statuses {
        return fail(
            "fault-resilient",
            format!(
                "status divergence: streaming {:?} vs in-memory {:?}",
                res.statuses, ref_report.statuses
            ),
        );
    }
    if res.all_ok() {
        return fail("fault-resilient", "corruption went undetected".into());
    }
    let mut want = Vec::with_capacity(ref_field.data.len() * 8);
    for &v in &ref_field.data {
        want.extend_from_slice(&v.to_le_bytes());
    }
    if out != want {
        return fail("fault-resilient", "streamed salvage output diverged".into());
    }
    Ok(())
}
