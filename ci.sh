#!/usr/bin/env bash
# CI gate for a network-restricted environment: every dependency resolves
# to an in-tree path crate (see crates/shim-*), so the whole pipeline must
# build, test, and lint cleanly with no registry access.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# Start `polymg-cli serve` in the background on an ephemeral loopback port
# and wait for its port file. Sets SERVE_PID.
serve_bg() {
  local portfile=$1
  shift
  rm -f "$portfile"
  cargo run --release -p gmg-bench --bin polymg-cli -- serve --port 0 \
    --port-file "$portfile" "$@" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do [ -s "$portfile" ] && break; sleep 0.1; done
  [ -s "$portfile" ] || { echo "ci: server never wrote $portfile" >&2; exit 1; }
}

cargo build --release --workspace --locked
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# smoke: every variant lowers, in 2-D and 3-D, to the sweep ops it stands
# for — naive to untiled sweeps only, opt / opt+ to overlapped tiles,
# dtile-opt+ to diamond chains
for cfg in "V-2D-4-4-4 --n 31" "V-3D-4-4-4 --n 15"; do
  for variant in naive opt opt+ dtile-opt+; do
    # shellcheck disable=SC2086 # $cfg is a config name plus its flags
    dump=$(cargo run --release -q -p gmg-bench --bin polymg-cli -- $cfg --variant "$variant" --dump-schedule)
    case $variant in
      naive) want=run_untiled ;;
      dtile-opt+) want=run_diamond ;;
      *) want=run_overlapped ;;
    esac
    grep -q "$want" <<<"$dump" \
      || { echo "ci: $cfg --variant $variant lowers to no $want" >&2; exit 1; }
    if [ "$variant" = naive ] && grep -q run_overlapped <<<"$dump"; then
      echo "ci: $cfg --variant naive lowers to overlapped tiles" >&2; exit 1
    fi
  done
done

# paper experiments: `reproduce all` at smoke size must print every result
# block (unit tests drive only fig11a, fig11b, memory and grouping), and a
# mistyped experiment name must be a usage error, not a silent no-op
out=$(cargo run --release -q -p gmg-bench --bin reproduce -- all --class smoke --iters 1 --repeats 1)
blocks=$(grep -c '^== .* ==$' <<<"$out" || true)
[ "$blocks" -eq 10 ] \
  || { echo "ci: reproduce all printed $blocks of 10 result blocks" >&2; exit 1; }
rc=0
cargo run --release -q -p gmg-bench --bin reproduce -- fig9b 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "ci: reproduce fig9b exited $rc, expected 2" >&2; exit 1; }
# and a Fig. 12 sweep stride the tuner rejects is one too
rc=0
cargo run --release -q -p gmg-bench --bin reproduce -- fig12 --stride 0 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "ci: reproduce fig12 --stride 0 exited $rc, expected 2" >&2; exit 1; }

# chaos gate (DESIGN.md §12): the differential suite (random pipelines ×
# random fault plans, plus the fixed-seed cases) must hold — bitwise after
# recovery or a typed error, never a panic — and a CLI chaos run must
# record its fault events in the profile JSON. The op frame (`ops/mod.rs`) is
# the one place a worker panic is contained, and tier-1 runs its 3-worker
# containment suites and the pool's own tests (whose exit protocol depends on
# interleaving) in debug only, so they run again under release codegen.
cargo test -q --release --test chaos_differential
cargo test -q --release -p gmg-runtime --test pool_panic --test chaos_pool --test pool_persistence
cargo test -q --release -p rayon
# one pool, called directly (DESIGN.md §11): every parallel loop is
# `ThreadPool::for_each` on a pool its caller owns or was handed. The shim
# keeps no pool and no pool width in a `static` or `thread_local!` (the
# cached host parallelism behind `num_threads(0)` is not one: no region
# reads it), and nothing calls the rayon iterator facade or `install`.
if grep -nE '^\s*(pub(\(crate\))?\s+)?static\s+(mut\s+)?\w*(POOL|THREAD|WIDTH)\w*\s*:|^\s*(pub(\(crate\))?\s+)?static\s+(mut\s+)?\w+\s*:.*Pool' \
  crates/shim-rayon/src/lib.rs; then
  echo "ci: shim-rayon holds a pool or a thread count in a static" >&2; exit 1
fi
if grep -rn 'rayon::prelude\|\.install(\|into_par_iter\|par_iter\|par_chunks_mut' crates src tests examples; then
  echo "ci: rayon iterator facade or ThreadPool::install in use" >&2; exit 1
fi
cargo run --release -p gmg-bench --bin polymg-cli -- V-2D-2-2-2 --n 31 \
  --profile /tmp/chaos_profile_ci.json --iters 2 --chaos-seed 7 --chaos-rate 1 \
  >/dev/null 2>&1 || true   # unrecoverable faults may fail cycles; the profile must still be written
grep -q '"chaos"' /tmp/chaos_profile_ci.json \
  || { echo "ci: chaos profile carries no chaos block" >&2; exit 1; }
grep -o '"fired": [0-9]*' /tmp/chaos_profile_ci.json | grep -qv '"fired": 0$' \
  || { echo "ci: chaos run fired no faults" >&2; exit 1; }

# SIMD-tier gate (DESIGN.md §16): the lane-safe tier must stay bitwise
# with the interpreter (including under cache blocking) and the
# reassociating fast-math tier must hold the magnitude-scaled ULP bound.
# Then profiled runs must actually *dispatch* the new tiers — the
# kernel_tiers histogram in the profile JSON is the witness, so a silent
# fallback to the scalar tier fails CI rather than shipping as a perf
# regression. The lane matrix and the interpreter-twin proptests run again
# under the release codegen (tier-1 runs them in debug only), which is what
# the scalar lanes, `f32` among them, and the `target_feature` packed
# sweeps ship as. The whole kernel unit suite runs in release, so the
# sweeps' one-check-per-sweep bounds tests (a tap or a shared output past
# its buffer must panic) hold under release codegen, where no
# `debug_assert!` is left; `dispatch_counts` pins the kernel histograms the
# profile witness below reads.
cargo test -q -p gmg-runtime --test proptest_specialized --test proptest_fastmath_ulp
cargo test -q --release -p gmg-runtime --lib --test dispatch_counts
cargo test -q --release -p gmg-runtime --test proptest_specialized
cargo run --release -p gmg-bench --bin polymg-cli -- V-2D-4-4-4 --n 63 \
  --profile /tmp/simd_profile_ci.json --iters 2 >/dev/null
grep -q '"lane_safe": [1-9]' /tmp/simd_profile_ci.json \
  || { echo "ci: default profile dispatched no lane-safe kernels" >&2; exit 1; }
cargo run --release -p gmg-bench --bin polymg-cli -- V-2D-4-4-4 --n 63 --fast-math \
  --profile /tmp/fastmath_profile_ci.json --iters 2 >/dev/null
grep -q '"fast_math": [1-9]' /tmp/fastmath_profile_ci.json \
  || { echo "ci: --fast-math profile dispatched no fast-math kernels" >&2; exit 1; }

# kernel-tier gate: a traced quick run of the kernel-dominated workload
# records the scalar → lane-safe → fast-math trajectory as
# `kernel.<family>.<tier>.ns_per_point`. The run exits non-zero when an
# output is wrong or the traced layers do not reconcile; the timings are
# recorded, not asserted, so a loaded CI host cannot hard-fail the build.
# The tiers' bitwise witness is the proptest pair above and
# `variant_equivalence`. Every benchmark run here is `--locked`, so a
# workspace change that would rewrite `benchmark/Cargo.lock` fails the gate.
cargo run --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload smoother2d_dense --traced --quick --out /tmp/bench_kernel_ci.json >/dev/null \
  || { echo "ci: traced smoother2d_dense benchmark run failed" >&2; exit 1; }
for tier in scalar lane_safe fast_math; do
  grep -q "\"kernel.stencil2d9.$tier.ns_per_point\"" /tmp/bench_kernel_ci.json \
    || { echo "ci: traced run carries no kernel.stencil2d9.$tier row" >&2; exit 1; }
done
# the small-shape serving mix, untimed: every grid of the six plans —
# shared outputs, coefficient rows and red-black parity rows among them —
# must come back bitwise equal to its in-process reference (non-zero exit
# otherwise)
cargo run --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload serve_mixed --quick >/dev/null \
  || { echo "ci: serve_mixed benchmark run failed" >&2; exit 1; }

# tile-executor gate: a traced quick run of the overlapped-tile workload
# verifies every output bitwise against `Variant::Naive` and reconciles the
# spans (non-zero exit otherwise). `FillGhost` must stay a rim fill: its
# share of the op time is a ratio of two sums from the same run, so host
# speed cancels (a per-cell sweep reads 0.055, the rim fill ~0.006).
cargo run --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload vcycle2d --traced --quick --out /tmp/bench_tile_ci.json >/dev/null \
  || { echo "ci: traced vcycle2d benchmark run failed" >&2; exit 1; }
share=$(grep -o '"runtime.op.fill_ghost_share": {"value": [0-9.e-]*' /tmp/bench_tile_ci.json \
  | head -n 1 | grep -o '[0-9.e-]*$')
awk -v s="$share" 'BEGIN { exit !(s != "" && s + 0 <= 0.02) }' \
  || { echo "ci: runtime.op.fill_ghost_share is '$share', expected <= 0.02" >&2; exit 1; }

# compiler gate (DESIGN.md §7): the fixed-rank tile walk and the per-axis
# redundant-work statistics must equal their allocating reference model,
# every recorded plan must compile to the same digest, and every
# overlapped group of those plans but the recorded odd-tiling ones must
# take the per-axis path of the overlap check (a silent fallback to the
# tile-by-tile walk fails here, not only the compiler's speed), under
# release codegen too (tier-1 runs them in debug only). Then a quick,
# untimed cold-compile run exits non-zero when the two cold compiles of any
# plan differ in fingerprint or lowered dump.
cargo test -q --release -p gmg-poly
cargo test -q --release --test plan_identity
cargo run --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload compile_cold --quick >/dev/null \
  || { echo "ci: compile_cold benchmark run failed" >&2; exit 1; }

# serving gate (DESIGN.md §13): start the solve service on loopback, drive
# it with the verifying load generator (every response checked bitwise
# against an in-process engine run), drain it with the protocol's shutdown
# frame, and require the server counters in the profile JSON. loadgen exits
# non-zero on any verification failure or unexpected error frame.
serve_bg /tmp/gmg_ci.port --workers 2 --profile /tmp/server_profile_ci.json
cargo run --release -p gmg-bench --bin polymg-cli -- loadgen \
  --port-file /tmp/gmg_ci.port --connections 3 --requests 6 -o /tmp/bench_pr5_ci.json \
  || { echo "ci: loadgen reported verification failures" >&2; kill $SERVE_PID 2>/dev/null; exit 1; }
wait $SERVE_PID || { echo "ci: server did not drain cleanly" >&2; exit 1; }
grep -q '"verify_failures": 0' /tmp/bench_pr5_ci.json \
  || { echo "ci: loadgen report carries verification failures" >&2; exit 1; }
grep -q '"server"' /tmp/server_profile_ci.json \
  || { echo "ci: server profile carries no server counter block" >&2; exit 1; }
if grep -q '"session_hits": 0,' /tmp/server_profile_ci.json; then
  echo "ci: warm-session reuse never happened" >&2; exit 1
fi
# a pipeline is built where a session is created and nowhere else: warm
# requests do no compiler work (exact counts, nothing timed)
server_count() {
  grep -o "\"$1\": [0-9]*" /tmp/server_profile_ci.json | head -n 1 | grep -o '[0-9]*$'
}
built=$(server_count pipelines_built)
misses=$(server_count session_misses)
[ -n "$built" ] && [ -n "$misses" ] && [ "$built" -ge 1 ] && [ "$built" -le "$misses" ] \
  || { echo "ci: $built pipelines built for $misses sessions created" >&2; exit 1; }

# batch serving gate (DESIGN.md §14): one worker with a coalescing window,
# loadgen mixing SOLVE_BATCH frames with same-shape singles — every grid
# verified bitwise, and the profile must record multi-RHS passes and at
# least one coalesced merge. Eight connections over the four-item mix:
# connections c and c+4 send the same shape at the same step, so there is
# always something to merge (with four, every connection sends a different
# shape per step and merges happen only if the connections drift apart by
# exactly two steps — 0 merges in about one run in five).
serve_bg /tmp/gmg_ci_batch.port --workers 1 --coalesce-window-ms 40 --max-batch 8 \
  --tenant-cap 16 --queue-cap 64 --profile /tmp/server_profile_batch_ci.json
cargo run --release -p gmg-bench --bin polymg-cli -- loadgen \
  --port-file /tmp/gmg_ci_batch.port --connections 8 --requests 6 --batch 4 \
  -o /tmp/bench_pr6_loadgen_ci.json \
  || { echo "ci: batch loadgen reported verification failures" >&2; kill $SERVE_PID 2>/dev/null; exit 1; }
wait $SERVE_PID || { echo "ci: batch server did not drain cleanly" >&2; exit 1; }
grep -q '"verify_failures": 0' /tmp/bench_pr6_loadgen_ci.json \
  || { echo "ci: batch loadgen report carries verification failures" >&2; exit 1; }
grep -q '"batches": [1-9]' /tmp/server_profile_batch_ci.json \
  || { echo "ci: batch server profile recorded no multi-RHS passes" >&2; exit 1; }
grep -q '"coalesced": [1-9]' /tmp/server_profile_batch_ci.json \
  || { echo "ci: coalescing window merged nothing" >&2; exit 1; }

# event-core gate (DESIGN.md §15): two shards behind one nonblocking
# acceptor, 500 mostly-idle connections with reconnect churn riding on
# mixed latency/batch traffic — every grid bitwise-verified, idle churn
# must actually cycle connections, and the profile must carry per-shard
# counters with warm-session reuse on at least one shard.
serve_bg /tmp/gmg_ci_shard.port --shards 2 --workers 2 \
  --profile /tmp/server_profile_shard_ci.json
cargo run --release -p gmg-bench --bin polymg-cli -- loadgen \
  --port-file /tmp/gmg_ci_shard.port --connections 4 --requests 6 --batch 3 --idle 500 \
  -o /tmp/bench_pr7_loadgen_ci.json \
  || { echo "ci: sharded loadgen reported verification failures" >&2; kill $SERVE_PID 2>/dev/null; exit 1; }
wait $SERVE_PID || { echo "ci: sharded server did not drain cleanly" >&2; exit 1; }
grep -q '"verify_failures": 0' /tmp/bench_pr7_loadgen_ci.json \
  || { echo "ci: sharded loadgen report carries verification failures" >&2; exit 1; }
grep -q '"reconnects": [1-9]' /tmp/bench_pr7_loadgen_ci.json \
  || { echo "ci: idle churn never reconnected" >&2; exit 1; }
grep -q '"shards": \[' /tmp/server_profile_shard_ci.json \
  || { echo "ci: server profile carries no per-shard block" >&2; exit 1; }
grep -o '"shards": \[[^]]*\]' /tmp/server_profile_shard_ci.json | grep -q '"session_hits": [1-9]' \
  || { echo "ci: no shard recorded warm-session reuse" >&2; exit 1; }

# the abuse, chaos-under-load, and QoS gauntlets must hold against the
# event-driven core
cargo test -q --release -p gmg-server --test protocol_abuse --test chaos_load --test shard_qos

# online-tuning gate (DESIGN.md §17): the search suites must hold
# offline, then a live server with `--tune-online` must (a) answer a
# bitwise-verified load while trials run, (b) record a winner into the
# TunedStore file, and (c) publish the tuner counters in STATS and the
# profile JSON.
cargo test -q --release -p polymg --test search_proptest
cargo test -q --release -p gmg-server --test online_tuning
rm -f /tmp/gmg_ci_tuned.json
serve_bg /tmp/gmg_ci_tune.port --workers 2 --tuned /tmp/gmg_ci_tuned.json \
  --tune-online --tune-budget 6 --profile /tmp/server_profile_tune_ci.json
cargo run --release -p gmg-bench --bin polymg-cli -- loadgen \
  --port-file /tmp/gmg_ci_tune.port --connections 2 --requests 6 --no-shutdown \
  -o /tmp/bench_pr9_loadgen_ci.json \
  || { echo "ci: tuning loadgen reported verification failures" >&2; kill $SERVE_PID 2>/dev/null; exit 1; }
TUNE_OK=""
for _ in $(seq 1 300); do
  if cargo run --release -p gmg-bench --bin polymg-cli -- stats \
       --port-file /tmp/gmg_ci_tune.port 2>/dev/null \
     | grep -q '^tuner_winners [1-9]'; then TUNE_OK=1; break; fi
  sleep 0.2
done
[ -n "$TUNE_OK" ] \
  || { echo "ci: online tuner never recorded a winner" >&2; kill $SERVE_PID 2>/dev/null; exit 1; }
cargo run --release -p gmg-bench --bin polymg-cli -- stats \
  --port-file /tmp/gmg_ci_tune.port --shutdown >/dev/null
wait $SERVE_PID || { echo "ci: tuning server did not drain cleanly" >&2; exit 1; }
grep -q '"verify_failures": 0' /tmp/bench_pr9_loadgen_ci.json \
  || { echo "ci: loadgen during online tuning carries verification failures" >&2; exit 1; }
grep -q '"tuner"' /tmp/server_profile_tune_ci.json \
  || { echo "ci: tuning server profile carries no tuner block" >&2; exit 1; }
grep -q '"trials": [1-9]' /tmp/server_profile_tune_ci.json \
  || { echo "ci: tuner profile recorded no trials" >&2; exit 1; }
grep -q '"discarded_faulted"' /tmp/server_profile_tune_ci.json \
  || { echo "ci: tuner profile does not account discarded trials" >&2; exit 1; }
grep -q '"fingerprint"' /tmp/gmg_ci_tuned.json \
  || { echo "ci: online tuner persisted no TunedStore entry" >&2; exit 1; }

# scenario gate (DESIGN.md §18): the differential pins must hold offline
# (varcoef-with-ones bitwise against the constant twin across kernel
# tiers; mixed precision converges), then a live server must answer a
# scenario-mixed load — variable-coefficient grids over the wire, RB-GS
# and Chebyshev smoother substitutions, f32-smoothing cycles, as singles
# and as SOLVE_BATCH frames of every scenario — with every response
# verified bitwise and the scenario counters nonzero in the loadgen
# report's server block.
cargo test -q --release --test scenario_differential
cargo test -q --release -p gmg-server --test scenario_serving
serve_bg /tmp/gmg_ci_scen.port --workers 2 --profile /tmp/server_profile_scen_ci.json
cargo run --release -p gmg-bench --bin polymg-cli -- loadgen \
  --port-file /tmp/gmg_ci_scen.port --connections 2 --requests 10 \
  --scenario varcoef,rbgs,chebyshev --mixed-precision --batch 3 \
  -o /tmp/bench_pr10_loadgen_ci.json \
  || { echo "ci: scenario loadgen reported verification failures" >&2; kill $SERVE_PID 2>/dev/null; exit 1; }
wait $SERVE_PID || { echo "ci: scenario server did not drain cleanly" >&2; exit 1; }
grep -q '"verify_failures": 0' /tmp/bench_pr10_loadgen_ci.json \
  || { echo "ci: scenario loadgen report carries verification failures" >&2; exit 1; }
grep -q '"batch_frames": [1-9]' /tmp/bench_pr10_loadgen_ci.json \
  || { echo "ci: scenario loadgen sent no SOLVE_BATCH frames" >&2; exit 1; }
for key in scenario_varcoef scenario_rbgs scenario_chebyshev mixed_solves; do
  grep -q "\"$key\": [1-9]" /tmp/bench_pr10_loadgen_ci.json \
    || { echo "ci: server counters recorded no $key solves" >&2; exit 1; }
done
# the same load against a `--no-simd` server: every reply, computed on the
# scalar rows, must equal loadgen's in-process reference on the lane tiers
# (default options) bit for bit — variable-coefficient grids included
serve_bg /tmp/gmg_ci_scen_scalar.port --workers 2 --no-simd
cargo run --release -p gmg-bench --bin polymg-cli -- loadgen \
  --port-file /tmp/gmg_ci_scen_scalar.port --connections 2 --requests 10 \
  --scenario varcoef,rbgs,chebyshev --mixed-precision --batch 3 \
  -o /tmp/bench_scen_scalar_ci.json \
  || { echo "ci: cross-tier loadgen reported verification failures" >&2; kill $SERVE_PID 2>/dev/null; exit 1; }
wait $SERVE_PID || { echo "ci: --no-simd scenario server did not drain cleanly" >&2; exit 1; }
grep -q '"verify_failures": 0' /tmp/bench_scen_scalar_ci.json \
  || { echo "ci: cross-tier loadgen report carries verification failures" >&2; exit 1; }
# and against a `--fast-math` server, verified by a `--fast-math` loadgen:
# its in-process reference runs the reassociating tier too, so every reply
# must still match bit for bit
serve_bg /tmp/gmg_ci_scen_fm.port --workers 2 --fast-math
cargo run --release -p gmg-bench --bin polymg-cli -- loadgen \
  --port-file /tmp/gmg_ci_scen_fm.port --connections 2 --requests 10 \
  --scenario varcoef,rbgs,chebyshev --mixed-precision --batch 3 --fast-math \
  -o /tmp/bench_scen_fm_ci.json \
  || { echo "ci: fast-math loadgen reported verification failures" >&2; kill $SERVE_PID 2>/dev/null; exit 1; }
wait $SERVE_PID || { echo "ci: --fast-math scenario server did not drain cleanly" >&2; exit 1; }
grep -q '"verify_failures": 0' /tmp/bench_scen_fm_ci.json \
  || { echo "ci: fast-math loadgen report carries verification failures" >&2; exit 1; }
# `--no-simd` and `--fast-math` name two tiers: together they are a usage
# error, for the solve CLI and the serving commands alike (the timeout
# keeps a `serve` that wrongly accepted them from blocking the gate)
for args in "V-2D-4-4-4 --n 31 --no-simd --fast-math" "loadgen --no-simd --fast-math" \
  "serve --fast-math --no-simd"; do
  rc=0
  # shellcheck disable=SC2086 # $args is a command line
  timeout 120 cargo run --release -q -p gmg-bench --bin polymg-cli -- $args >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || { echo "ci: polymg-cli $args exited $rc, expected 2" >&2; exit 1; }
done

# benchmark gate: a traced quick run of the varcoef workload. Its kernel
# probe looks the `generic_coeff` stage up by `impl_tag == Generic` plus a
# coefficient tap and panics when there is none, so re-tagging coefficient
# stages (or a traced run that no longer reconciles) fails here.
cargo run --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload varcoef2d_solve --traced --quick >/dev/null \
  || { echo "ci: traced varcoef2d_solve benchmark run failed" >&2; exit 1; }

# warm-acquire gate: a traced quick run of the batch serving workload
# verifies every reply bitwise and reconciles the spans (non-zero exit
# otherwise). A warm `acquire_scenario` is a memo lookup and forty hashed
# bytes: ~1 us at the reference host's speed (the benchmark normalises),
# against 134 us when it rebuilt and rendered the pipeline per request.
cargo run --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload serve_batch --traced --quick --out /tmp/bench_serve_ci.json >/dev/null \
  || { echo "ci: traced serve_batch benchmark run failed" >&2; exit 1; }
warm=$(grep -o '"server.session_acquire_warm_us": {"value": [0-9.e-]*' /tmp/bench_serve_ci.json \
  | head -n 1 | grep -o '[0-9.e-]*$')
awk -v w="$warm" 'BEGIN { exit !(w != "" && w + 0 <= 20) }' \
  || { echo "ci: server.session_acquire_warm_us is '$warm', expected <= 20" >&2; exit 1; }

echo "ci: all green"
