#!/usr/bin/env sh
# CI gauntlet: the tier-1 command first (`default-members` makes it build
# every crate and run every crate's tests, the decoder panic audit, the
# corruption campaign and all property tests among them), then the lanes
# tier-1 does not cover.
set -eu

cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release && cargo test -q

echo "==> speck differential (release)"
# The encode/decode differentials against `sperr_speck::reference` size
# their 3-D shapes by build profile: the tier-1 step above ran the
# debug profile, where the reference coders are too slow for the 40^3
# and 32^3 cases; this lane runs them, with eight times the cases.
SPERR_PROPTEST_SCALE=8 cargo test --release --quiet -p sperr-speck

echo "==> wavelet support differential (release)"
# A box rebuilt from its synthesis support alone (everything else NaN)
# through the line-restricted inverse must equal the full inverse bit for
# bit. The tier-1 step ran these at extents up to 24; the 70-sample
# shapes are too slow for a debug build and run here.
cargo test --release --quiet -p sperr-wavelet

echo "==> cross-target check: aarch64 (NEON lane widths)"
# Type-check the workspace for a 128-bit-SIMD target so a portability
# break (x86-only assumption, pointer-width slip) is caught even though
# this host can't run the result. The width-generic kernels monomorphize
# at both f32 and f64 here, so a NEON-lane-count assumption in either
# instantiation fails this check. Needs the target's rustc component
# only (no linking: cargo check); installs are forbidden in CI, so skip
# gracefully — loudly — when the target stdlib is absent.
if rustc --target aarch64-unknown-linux-gnu --print sysroot >/dev/null 2>&1 \
    && [ -d "$(rustc --print sysroot)/lib/rustlib/aarch64-unknown-linux-gnu" ]; then
    cargo check --workspace --quiet --target aarch64-unknown-linux-gnu
else
    echo "aarch64 check: SKIPPED (target stdlib not installed; install is"
    echo "      forbidden in this environment — run locally with"
    echo "      'rustup target add aarch64-unknown-linux-gnu')"
fi

echo "==> conformance: golden streams + differential oracles + PWE campaign"
# Tier-2 gate. `check` regenerates the whole golden matrix in memory and
# diffs it byte-for-byte against the committed artifacts (so stale or
# hand-edited goldens fail even before the governance check below);
# `oracles` runs the differential equivalence checks over the corpus;
# `campaign 200` is the randomized PWE-guarantee sweep.
target/release/sperr-conformance check
target/release/sperr-conformance oracles
target/release/sperr-conformance campaign 200

echo "==> conformance: streaming fault-injection campaign"
# Adversarial I/O endpoints and scripted worker panics (every stage, at
# 1/2/4 threads) against the streaming API: typed errors only, no escaping
# panics, no hangs (watchdog-enforced), no partial container that verifies,
# bounded in-flight memory in both directions, byte-identity with the
# in-memory path on success.
target/release/sperr-conformance faults 12

echo "==> conformance: random-access region oracle"
# Every corpus field, 50 randomized bboxes each (degenerate, full-volume,
# chunk-straddling, prime-offset shapes), decoded at 1/2/4/8 threads:
# decode_region must be bit-identical to the same slice of a full
# decompress, via the v3 index AND via the downgraded-to-v2 legacy scan.
target/release/sperr-conformance regions 50

echo "==> conformance: progressive-refinement campaign"
# Randomized budget ladders against BPP-mode streams: max error monotone
# non-increasing as the budget grows, full budget bit-identical to the
# untruncated decode; violations shrink to a committed reproducer.
target/release/sperr-conformance refine 60

echo "==> overflow probes: refused in bounded time, nothing written"
# One finite sample at its width's largest value overflows the wavelet
# lifting steps. These compresses used to hang (PWE, IDX), panic (BPP) or
# exit 0 with a stream that decodes non-finite samples (PSNR). Each must now
# exit 3 (invalid input) within 20 s and leave no output file, with and
# without --stream (which refuses --idx/--psnr), at f32 and f64. A regression fails here instead of stalling CI.
PROBE_DIR="$(mktemp -d)"
for ty in f64 f32; do
    target/release/sperr gen --field miranda-pressure --dims 16,16,16 \
        --output "$PROBE_DIR/in.$ty" --dtype "$ty" --quiet
done
# Sample 1234 := f64::MAX (0x7FEFFFFFFFFFFFFF) / f32::MAX (0x7F7FFFFF), LE.
printf '\377\377\377\377\377\377\357\177' \
    | dd of="$PROBE_DIR/in.f64" bs=1 seek=$((8 * 1234)) conv=notrunc 2>/dev/null
printf '\377\377\177\177' \
    | dd of="$PROBE_DIR/in.f32" bs=1 seek=$((4 * 1234)) conv=notrunc 2>/dev/null
for ty in f64 f32; do
    for bound in "--pwe 1e-3" "--idx 20" "--bpp 4" "--psnr 60" \
        "--pwe 1e-3 --stream" "--bpp 4 --stream"; do
        rm -f "$PROBE_DIR/out.sperr"
        code=0
        # shellcheck disable=SC2086 # $bound is a flag list
        timeout 20 target/release/sperr compress --input "$PROBE_DIR/in.$ty" \
            --output "$PROBE_DIR/out.sperr" --dims 16,16,16 --dtype "$ty" $bound \
            --quiet 2>/dev/null || code=$?
        if [ "$code" -ne 3 ] || [ -e "$PROBE_DIR/out.sperr" ]; then
            echo "ERROR: overflow probe ($ty $bound) exited $code" \
                "(want 3, no output file)" >&2
            exit 1
        fi
    done
done
# Tiny finite samples used to panic on a zero quantization step (exit 101;
# 8 with --stream). Subnormal f64 samples (i mod 7)·5e-324 at --bpp 4,
# whose largest coefficient times 2^-48 underflows, must now exit 0 with a
# decode that is entirely finite (its rmse is a number); a sin field scaled
# by 1e-310 at --pwe 5e-324 --q-factor 0.4, whose step q-factor·t rounds to
# zero, must exit 3 and write nothing.
i=0
while [ $i -lt 4096 ]; do
    printf "\\$(printf %03o $((i % 7)))\\000\\000\\000\\000\\000\\000\\000"
    i=$((i + 1))
done > "$PROBE_DIR/sub.f64"
# Every sample subnormal: its 52-bit mantissa is round(|v| / 2^-1074), and
# 1e-310 is 20240225330731 · 2^-1074.
LC_ALL=C awk 'BEGIN {
    for (z = 0; z < 16; z++) for (y = 0; y < 16; y++) for (x = 0; x < 16; x++) {
        v = sin(0.3 * x + 0.2 * y + 0.1 * z) * 20240225330731
        m = int(v < 0 ? 0.5 - v : v + 0.5)
        for (b = 0; b < 7; b++) { printf "%c", m % 256; m = int(m / 256) }
        printf "%c", v < 0 ? 128 : 0
    }
}' > "$PROBE_DIR/tiny.f64"
for stream in "" "--stream"; do
    rm -f "$PROBE_DIR/out.sperr" "$PROBE_DIR/out.f64"
    code=0
    # shellcheck disable=SC2086 # $stream is a flag list
    timeout 20 target/release/sperr compress --input "$PROBE_DIR/sub.f64" \
        --output "$PROBE_DIR/out.sperr" --dims 16,16,16 --dtype f64 --bpp 4 $stream \
        --quiet 2>/dev/null || code=$?
    if [ "$code" -eq 0 ]; then
        target/release/sperr decompress --input "$PROBE_DIR/out.sperr" \
            --output "$PROBE_DIR/out.f64" --dtype f64 --quiet
        target/release/sperr eval --original "$PROBE_DIR/sub.f64" \
            --reconstructed "$PROBE_DIR/out.f64" --dims 16,16,16 --dtype f64 \
            | grep -q '^rmse: *[0-9]' || code=finite
    fi
    if [ "$code" != 0 ]; then
        echo "ERROR: subnormal BPP probe ($stream) failed: $code (want exit 0," \
            "a finite decode)" >&2
        exit 1
    fi
    rm -f "$PROBE_DIR/out.sperr"
    code=0
    # shellcheck disable=SC2086 # $stream is a flag list
    timeout 20 target/release/sperr compress --input "$PROBE_DIR/tiny.f64" \
        --output "$PROBE_DIR/out.sperr" --dims 16,16,16 --dtype f64 --pwe 5e-324 \
        --q-factor 0.4 $stream --quiet 2>/dev/null || code=$?
    if [ "$code" -ne 3 ] || [ -e "$PROBE_DIR/out.sperr" ]; then
        echo "ERROR: zero-step PWE probe ($stream) exited $code" \
            "(want 3, no output file)" >&2
        exit 1
    fi
done
rm -rf "$PROBE_DIR"
echo "overflow probes: all refused; tiny-sample probes: encoded or refused"

echo "==> golden-stream governance"
# A change to the committed golden artifacts is only legitimate when the
# same commit bumps GOLDEN_VERSION (see DESIGN.md §9). Skipped gracefully
# when history is unavailable (fresh clone with depth 1, or pre-first
# commit).
if git rev-parse --verify HEAD~1 >/dev/null 2>&1; then
    if [ -n "$(git diff --name-only HEAD~1 HEAD -- crates/conformance/golden/)" ]; then
        if git diff HEAD~1 HEAD -- crates/conformance/src/golden.rs | grep -q "GOLDEN_VERSION"; then
            echo "golden streams changed together with a GOLDEN_VERSION edit: OK"
        else
            echo "ERROR: crates/conformance/golden/ changed without a GOLDEN_VERSION bump" >&2
            echo "       (bump it in crates/conformance/src/golden.rs in the same commit)" >&2
            exit 1
        fi
    else
        echo "no golden-stream changes in HEAD"
    fi
else
    echo "no parent commit available; skipping"
fi

echo "==> benchmark of record: its own tests + a smoke run"
# `benchmark/` is a package of its own (own workspace and lock file), so
# nothing above builds or tests it. Its tests hold a smoke run against
# BENCHMARK.json; the smoke run itself goes through run.sh exactly as the
# driver invokes it — all four workloads, both passes, every gate (replay
# `stream[1..] == sperr_lossless::compress(container)`, thread and
# repetition identity, region reads vs full-decode slices). The exit code
# must be 0 and the last line must report no failed operation.
(cd benchmark && cargo test --quiet)
benchmark/run.sh --smoke > target/benchmark_smoke.out
tail -n 1 target/benchmark_smoke.out | grep -q '"failed":0' || {
    echo "ERROR: benchmark smoke run reported failures:" >&2
    tail -n 1 target/benchmark_smoke.out >&2
    exit 1
}

echo "==> telemetry matrix: rebuild with the feature compiled in"
# Everything above ran with telemetry compiled OUT (the default, and the
# configuration whose perf numbers we track). Now flip the feature on and
# prove observability changes nothing except what it reports.
# (The feature-off build is the tier-1 step at the top of this script.)
cargo build --workspace --release --features telemetry

echo "==> telemetry on: goldens stay byte-identical"
# The telemetry-enabled decoder/encoder must produce the exact committed
# golden streams — instrumenting the pipeline may not perturb output.
target/release/sperr-conformance check

echo "==> telemetry on: identity, event-count and trace-coverage tests"
# Also pins the meaning of the lossless labels PR 10's dashboards read:
# `lossless.compress` / `lossless.decompress` spans and the
# `lossless.bytes_in/out` counters fire once per call, not once per SLZ1
# block, now that blocks are encoded on the pool and inflated sparsely.
cargo test --quiet --features telemetry --test telemetry

echo "==> telemetry on: streaming worker timelines overlap"
# Both streaming directions must fan out: at least two pool workers with
# concurrent spans during a streaming compression, and concurrent
# `stage.speck.decode` spans on both slots of a two-thread pool during a
# streaming decompression.
cargo test --quiet --features telemetry --test streaming

echo "==> telemetry on: the recorder's own tests"
# The per-thread recorder (events and, beside them, histograms) and its
# unit tests compile only with recording compiled in.
cargo test --quiet -p sperr-telemetry --features enabled

echo "==> telemetry on: the recorder and the codec crates lint clean"
# Clippy over the recorder (with recording compiled in), sperr-speck,
# sperr-core, sperr-lossless and sperr-outlier, their tests included, and
# the workspace crates they build on; any warning fails the lane.
cargo clippy --quiet -p sperr-telemetry -p sperr-speck -p sperr-core \
    -p sperr-lossless -p sperr-outlier --all-targets \
    --features sperr-telemetry/enabled -- -D warnings

echo "==> telemetry on: the whole CLI suite"
# Includes the end-to-end acceptance: `sperr compress --stats --trace` on
# a multi-chunk volume writes trace JSON that passes the exporter's own
# schema check (`sperr_telemetry::validate_chrome_trace`) with a span for
# every compress stage and per-worker timeline tracks; and the feature
# branch of the `--metrics` / `metrics` export test.
cargo test --quiet -p sperr-cli --features telemetry

echo "==> telemetry on: --metrics exports + metrics subcommand"
# The PR 10 metrics layer end-to-end: a compress run exports Prometheus
# text exposition (op summary with quantile series, memory _max gauge),
# a decompress run exports the JSON schema, and the `metrics` subcommand
# profiles an existing stream directly.
target/release/sperr gen --field miranda-density --dims 128,128,128 \
    --output /tmp/ci_metrics_input.f64 --type f64 --quiet
target/release/sperr compress --input /tmp/ci_metrics_input.f64 \
    --output /tmp/ci_metrics_out.sperr --dims 128,128,128 --type f64 \
    --idx 13 --chunk 64,64,64 --threads 8 \
    --metrics /tmp/ci_metrics.prom --quiet
grep -q '# TYPE sperr_op_compress_f64_seconds summary' /tmp/ci_metrics.prom
grep -q 'sperr_op_compress_f64_seconds{quantile="0.99"} ' /tmp/ci_metrics.prom
grep -q 'sperr_mem_arena_f64_bytes_max ' /tmp/ci_metrics.prom
grep -q 'sperr_stage_speck_encode_seconds_count ' /tmp/ci_metrics.prom
target/release/sperr decompress --input /tmp/ci_metrics_out.sperr \
    --output /tmp/ci_metrics_rt.f64 --metrics /tmp/ci_metrics.json --quiet
grep -q '"sperr-metrics/v1"' /tmp/ci_metrics.json
# A full decompress runs the streaming driver.
grep -q '"op.decompress_stream"' /tmp/ci_metrics.json
target/release/sperr metrics --input /tmp/ci_metrics_out.sperr \
    | grep -q 'sperr_op_decompress_f64_seconds_count '
rm -f /tmp/ci_metrics_input.f64 /tmp/ci_metrics_out.sperr \
    /tmp/ci_metrics.prom /tmp/ci_metrics.json /tmp/ci_metrics_rt.f64

echo "==> ThreadSanitizer: pool, streaming, SLZ1 inflate, region-read, SPECK phase-1, code-block and one-chunk tests"
# The worker pool (sperr-exec) is the one place in the workspace that
# synchronises threads by hand (the published batch slot, its condvars,
# the lifetime-erased job pointer); streaming is its heaviest user, running
# one pool batch per z-layer batch with nested fan-out and per-chunk panic
# guards; every read inflates the SLZ1 blocks under its planned payloads
# on it (region reads included); a one-chunk read splits its outlier
# decode and SPECK assembly over it, and a one-chunk compress gathers
# SPECK's first phase on it and runs its outlier locate and encode beside
# SPECK's sorting passes; sperr-speck runs both directions' code blocks
# as one batch. So run the pool, executor-contract, streaming, SLZ1
# inflate, region-read, SPECK phase-1, code-block and one-chunk read and
# compress tests under TSan. Needs nightly with the rust-src component
# (-Zbuild-std rebuilds std with the sanitizer); CI must never install
# toolchain pieces, so skip gracefully —
# loudly — when absent.
if command -v rustup >/dev/null 2>&1 \
    && rustup toolchain list 2>/dev/null | grep -q nightly \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q "rust-src (installed)"; then
    TSAN_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
    echo "tsan: nightly + rust-src present, target ${TSAN_TARGET}"
    RUSTFLAGS="-Zsanitizer=thread" RUST_TEST_THREADS=1 \
        cargo +nightly test -Zbuild-std --target "${TSAN_TARGET}" \
        -p sperr-exec -p sperr-core -p sperr-speck -p sperr-lossless --quiet -- pool:: contract \
        stream:: one_chunk phase_one_is_the_same_on_every_executor \
        blocks_run_the_same_on_every_executor \
        inflate_ranges_is_executor_independent decompress_with_is_executor_independent region \
        every_surface_agrees
else
    echo "tsan: SKIPPED (nightly toolchain with rust-src not installed;"
    echo "      install is forbidden in this environment — run locally with"
    echo "      'rustup component add rust-src --toolchain nightly')"
fi

echo "CI OK"
