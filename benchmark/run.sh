#!/usr/bin/env bash
# Build the benchmark offline, run every workload untraced, then traced, then
# untraced again, and check the two untraced runs against each other (the A/A
# test: same commit, so every verdict must be "same").
#
#   benchmark/run.sh            full run, ~6 min, results in benchmark/out/
#   benchmark/run.sh --quick    a tenth of the samples, for smoke use; the
#                               files are stamped "quick": true and can
#                               never back a claim
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
quick=()
if [[ "${1:-}" == "--quick" ]]; then
    quick=(--quick)
fi

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/gmg-benchmark"
out="$here/out"
mkdir -p "$out"

"$bin" run --workload all "${quick[@]}" --out "$out/run_a.json"
"$bin" run --workload all "${quick[@]}" --traced --out "$out/run_traced.json"
"$bin" run --workload all "${quick[@]}" --out "$out/run_b.json"
"$bin" check "$out/run_a.json" "$out/run_b.json"
