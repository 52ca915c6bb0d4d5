#!/usr/bin/env bash
# Build the benchmark crate from this checkout's source and run it.
# Usage: see README.md (or src/main.rs).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export EDGEPERF_BENCH_ROOT="$(dirname "$here")"
# One target directory for both workspaces, so the libraries the benchmark
# links are compiled once; cargo resolves a relative one against the
# caller's directory, so pin it before anything changes directory.
target="${CARGO_TARGET_DIR:-$EDGEPERF_BENCH_ROOT/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/edgeperf-benchmark" "$@"
