#!/bin/sh
# CI-style full pass in its own build directory: configure and build a
# separate tree, run the fast test tiers (unit tests + bench smokes,
# including the simd_forced_scalar fallback rerun, the sampling_guard
# sampled-vs-exact tier and the physics_contract tier), then run the
# perf-gated benches at full paper scale — the four manufacture-bound
# ones plus the phase-sampled system benches (fig13/fig14/longhorizon) —
# and gate them against the committed BENCH_PR9.json baseline — a hard
# (non-informational) regression gate, so a perf regression on the
# SIMD/runtime/sampling path fails this script. A trailing
# observability tier then enforces the tracer contract: disabled trace
# sites cost <1% on fig13, and a traced run emits the expected span
# families. Keeps the default build directory untouched. Usage:
#   tools/ci_native.sh [build-dir]        # default: build-ci
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-ci"}

cmake -B "$build" -S "$repo"
cmake --build "$build" -j
ctest --test-dir "$build" --output-on-failure -j

# Explicit pass over the sampled-vs-exact guard tier: every sampled
# bench re-runs against its exact reference (VARSCHED_BENCH_COMPARE=1
# aborts beyond the error budget).
ctest --test-dir "$build" -L sampling_guard --output-on-failure

# Physics contracts: the leakage kernel against its per-sample oracle
# (1e-12) and the settle's 0.01 C residual and round-count pins.
ctest --test-dir "$build" -L physics_contract --output-on-failure

# Full-scale perf gate: the mfg-bound benches write a fresh JSON which
# must validate and must not have regressed against the committed
# baseline. The gate runs *without* VARSCHED_BENCH_COMPARE: the
# guard's serial re-run doubles the measured wall time, and the
# bit-identity check is already exercised by the bench_smoke ctest
# tier above (smoke_bench_fig05_sigma_sweep runs with the guard on).
gate_json="$build/BENCH_GATE.json"
rm -f "$gate_json"
for bench in bench_ext_yield bench_fig04_variation \
             bench_fig05_sigma_sweep bench_ext_abb \
             bench_fig13_weighted bench_fig14_granularity \
             bench_ext_longhorizon; do
    VARSCHED_BENCH_JSON="$gate_json" \
        "$build/bench/$bench" > /dev/null
done
"$build/tools/validate_bench_json" "$gate_json"
"$build/tools/compare_bench_json" "$repo/BENCH_PR9.json" "$gate_json"

# Trace-overhead guard: with tracing *disabled* (the shipped default)
# a full-scale fig13 must stay within 1% of the committed baseline —
# the disabled path is one relaxed atomic load and a branch per site,
# and this holds the instrumented tick loop to that contract.
overhead_json="$build/BENCH_TRACE_OVERHEAD.json"
rm -f "$overhead_json"
VARSCHED_BENCH_JSON="$overhead_json" \
    "$build/bench/bench_fig13_weighted" > /dev/null
"$build/tools/compare_bench_json" "$repo/BENCH_PR9.json" \
    "$overhead_json" --slack 1.01

# Traced run: a full-scale fig13 under VARSCHED_TRACE must produce a
# well-formed Chrome/Perfetto trace carrying every instrumented span
# family (trace_summarize exits nonzero on a malformed file or a
# missing --expect). Every fan-out runs bodies on parallelFor worker
# threads, so pool.task spans appear at any worker count;
# VARSCHED_THREADS=2 spreads them over two pool-worker-N lanes.
trace_json="$build/fig13.trace.json"
rm -f "$trace_json"
VARSCHED_TRACE="$trace_json" VARSCHED_THREADS=2 \
    VARSCHED_BENCH_JSON="$build/BENCH_TRACED.json" \
    "$build/bench/bench_fig13_weighted" > /dev/null
"$build/tools/trace_summarize" "$trace_json" \
    --expect physics.settle --expect pm.decide --expect sched.place \
    --expect pool.task --expect experiment.trial
