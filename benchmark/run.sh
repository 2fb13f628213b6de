#!/usr/bin/env bash
# Builds the `sperr` CLI and the benchmark in release mode, then hands every
# argument to `bench` (see README.md). Run from anywhere inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline -p sperr-cli >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
# `bench` removes its scratch directory itself; this covers an interrupt.
trap 'rm -rf benchmark/out/tmp-*' EXIT
"${CARGO_TARGET_DIR:-benchmark/target}/release/bench" \
    --sperr "${CARGO_TARGET_DIR:-target}/release/sperr" "$@"
