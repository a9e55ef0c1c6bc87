#!/usr/bin/env bash
# Builds the benchmark crate and runs one workload in a fresh process.
#
#   crates/bench/e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Everything written lands under the cargo
# target directory (CARGO_TARGET_DIR when set, else this crate's target/).
# The last line of standard output is the result as one JSON object; build
# output goes to standard error.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac

export CARGO_NET_OFFLINE=true
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

# Host facts the binary cannot see for itself.
ROTARY_E2E_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
ROTARY_E2E_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export ROTARY_E2E_RUSTC ROTARY_E2E_COMMIT

exec "$target/release/rotary-e2e" --scratch "$target/e2e-scratch" "$@"
