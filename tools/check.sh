#!/usr/bin/env bash
# Build and run the tier-1 test suite in one command.
#
#   tools/check.sh                                  plain build + ctest
#   SPG_SANITIZE=address,undefined tools/check.sh   sanitized build + ctest
#   SPG_SANITIZE=thread tools/check.sh              TSan build + ctest
#
# Sanitized builds use their own tree (build-address-undefined/,
# build-thread/ etc.) so they never pollute the primary build/
# directory. 'thread' must be its own run — CMake rejects combining it
# with 'address' or 'leak'. The TSan tree exists to prove the lock-free
# fork-join protocol data-race-free; at minimum run it over the
# threading suites: `SPG_SANITIZE=thread tools/check.sh -R ThreadPool`.
# Extra arguments are forwarded to ctest, e.g. `tools/check.sh -R sparse`.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=build
cmake_args=()
if [[ -n "${SPG_SANITIZE:-}" ]]; then
    build_dir="build-$(echo "$SPG_SANITIZE" | tr ',' '-')"
    cmake_args+=("-DSPG_SANITIZE=${SPG_SANITIZE}")
fi

cmake -B "$build_dir" -S . "${cmake_args[@]}"
cmake --build "$build_dir" -j "$(nproc)"
cd "$build_dir"
if [[ $# -eq 0 ]]; then
    # Two full passes: one with hardware counters force-disabled
    # (SPG_PERF=off), proving every instrumentation site degrades
    # gracefully, and one auto-detected (counters live where the host
    # grants perf_event / RAPL access, the same fallback otherwise).
    SPG_PERF=off ctest --output-on-failure -j "$(nproc)"
    ctest --output-on-failure -j "$(nproc)"
else
    # A filter that matches nothing must fail, not pass silently.
    ctest --output-on-failure -j "$(nproc)" --no-tests=error "$@"
fi

# Scheduling-independence gate: the bit-for-bit suites must pass
# repeatedly, not just once — a result that depends on work stealing
# or pool size fails some of 20 runs. Skipped when a test filter was
# passed.
if [[ $# -eq 0 ]]; then
    ctest --output-on-failure --no-tests=error --repeat until-fail:20 \
        -R 'FusedBackward|FusedNetwork|Trace\.|Determinism'
fi

# Trace smoke: a 1-epoch traced training run must emit a valid Chrome
# trace + metrics + drift document set. SPG_TRACE exercises the env-var
# enable path (the ctest fixture covers the --trace flag path). Skipped
# when the tracing layer is compiled out (SPG_TRACING=OFF) or when a
# test filter was passed.
if [[ $# -eq 0 ]] && grep -q '^SPG_TRACING:BOOL=ON$' CMakeCache.txt; then
    trace_out="$PWD/trace_smoke_env.json"
    SPG_TRACE="$trace_out" ./tools/spgcnn train --net=mnist \
        --dataset-size=48 --epochs=1 --threads=2
    ./tools/trace_check --trace="$trace_out" \
        --require-cats=train,layer,kernel,pool,tuner \
        --min-lanes=2 --expect-drift
fi

# Bench regression gates: regenerate each bench below (reduced sizes so
# the gates stay fast) and diff it against its committed baseline in
# bench/baselines/ with tools/bench_compare. Skipped when a test filter
# was passed. Why each row's tolerances are what they are:
#
# fusion: timing tolerance is wide — shared hosts drift — so only
#   structural regressions fail: a fusion path losing its speedup
#   outright, or the arena planner degrading toward the unplanned sum.
# layout: the NCHWc direct-engine crossover. The direct-vs-best
#   speedups are ratios of interleaved (round-robin) measurements so
#   frequency drift largely cancels, but the winnable FP cells sit
#   within a few percent of the best GEMM engine, so the speedup
#   tolerance stays wide; the seconds tolerance is wider still because
#   the µs-scale conversion timings at the smallest layer jitter more
#   than the big phase timings.
# wsparse: the CSR-weights crossover. The direct-vs-dense speedups are
#   ratios of interleaved measurements so drift largely cancels, but the
#   dense-engine cells run a different code path from the sparse one,
#   so the seconds tolerance stays wide. The encode_ms cells are
#   informational (µs-scale, jittery) and are not gated.
# serve: open-loop serving goodput. Only the dynamic-batching speedup at
#   saturation is gated (wide tolerance — it is a ratio of two drain
#   timings on a shared host); the qps/goodput/latency series and the
#   per-bucket serving plans are informational trajectory. The loadgen
#   smoke (fixed seed, low rate, zero drops, bounded p99) runs as a
#   ctest fixture above.
# cluster: data-parallel scaling. The gated metrics are the modeled
#   speedups — sparse+overlap vs dense blocking at the gate worker
#   count, and the per-point scaling curve. They derive from one
#   measured profile, so compute jitter moves every arm together and the
#   ratios are stable; the tolerance is still wide because a short
#   run's per-bucket ready times wander. The wire-byte/compression/knee
#   columns are informational trajectory.
bench_gates=(
    # bench            | args                                         | baseline           | bench_compare flags
    "bench_fusion      | --reps=3 --net-steps=2                       | BENCH_fusion.json  | --tol-pct=150 --speedup-tol-pct=60 --bytes-tol-pct=10"
    "bench_layout      | --reps=2                                     | BENCH_layout.json  | --tol-pct=250 --speedup-tol-pct=60"
    "bench_ext_wsparse | --reps=2                                     | BENCH_wsparse.json | --tol-pct=250 --speedup-tol-pct=60"
    "bench_serve       | --requests=256 --duration=0.2 --tuner-reps=2 | BENCH_serve.json   | --tol-pct=250 --speedup-tol-pct=60"
    "bench_ext_cluster | --dataset-size=32                            | BENCH_cluster.json | --tol-pct=250 --speedup-tol-pct=70"
)
if [[ $# -eq 0 ]]; then
    for row in "${bench_gates[@]}"; do
        IFS='|' read -r bench args baseline flags <<< "$row"
        bench=${bench// /}
        baseline=${baseline// /}
        fresh="$PWD/${baseline%.json}_fresh.json"
        # args and flags stay unquoted: each is a list of words.
        ./bench/$bench $args --json-file="$fresh" > /dev/null
        ./tools/bench_compare --fresh="$fresh" \
            --baseline="../bench/baselines/$baseline" $flags
    done
fi

# Direct-engine sanitizer gate: the NCHWc staging kernels and the
# direct engine's register tiles live and die by tail-block and
# edge-tile indexing, and the engine's pool-parallel staging by its
# fan-out; run the blocked/direct suites under ASan and TSan so stray
# pad-lane reads and staging races are caught in-tree. The CSR
# weight-sparsity suites ride along: the sparse-direct masked tails and
# the pruning/mask/checkpoint machinery are exactly the sort of
# off-by-one indexing ASan catches, and the weight-plan cache is shared
# mutable state the TSan run must prove race-free under the
# plane-parallel engines. The Determinism suite rides along too: its
# pool-size sweep drives every engine's chunked BP-weights reduction
# across 1/2/4 workers, the schedule TSan must prove race-free. The
# distrib suites (DataParallel,
# Allreduce, GradCompress, Exchange) join both runs: the exchange
# scheduler's in-place K-way averaging walks raw gradient spans ASan
# must prove in-bounds, and the replica fan-out over the shared pool
# is state TSan must prove race-free. Recursing with a filter reuses the
# per-sanitizer build trees and skips the smoke/bench gates above.
# The serving suites join both runs: the request queue, the
# done-publication handshake and the per-instance pools are exactly
# what TSan must prove race-free, and the ragged-batch arena views are
# what ASan must prove in-bounds. The perfcnt suites (Perf*, Affinity*,
# Rapl*) ride along: the per-worker counter accumulators are lock-free
# shared state for TSan, and the group-read buffer parsing is exactly
# the sort of pointer arithmetic ASan checks. The PoolLayer suite rides
# along: pool BP zeroes each (image, channel) plane of ei inside its
# parallel task, so a plane written by two tasks is a race TSan must
# rule out and a stray plane offset an overrun ASan must; the AVX-512
# max-pool FP's masked edge loads are the same kind of overrun. The
# FcLayer suite rides along: the packed W^T is written by the SGD
# update's workers and read by the forward's, a handoff TSan must prove
# race-free, and its padded column blocks are what ASan must prove
# in-bounds. The sparse
# BP suites (CtCsr, SparsePlanCache, SparseMm, ConvEngines.Sparse*)
# ride along: the kernel-row replay's masked tail vectors and the
# encode's row-cursor scatter are what ASan must prove in-bounds, and
# the pool-parallel plan fingerprint is what TSan must prove race-free.
# Skipped inside a sanitized run (the outer invocation already is one)
# or when a test filter was passed.
if [[ $# -eq 0 && -z "${SPG_SANITIZE:-}" ]]; then
    for san in address thread; do
        SPG_SANITIZE="$san" "$(cd .. && pwd)/tools/check.sh" \
            -R 'Determinism|PoolLayer|FcLayer|Direct|Blocked|SparseWeights|SparseDirect|Pruning|WeightPlanCache|Checkpoint|Serve|PerfCnt|Affinity|Rapl|DataParallel|Allreduce|GradCompress|ExchangeSched|CtCsr|SparsePlanCache|SparseMm|ConvEngines\.Sparse'
    done
fi
