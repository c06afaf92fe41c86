#!/bin/sh
# CI-style full pass in its own build directory: configure and build a
# separate tree, run the fast test tiers (unit tests + bench smokes,
# including the simd_forced_scalar fallback rerun, the sampling_guard
# sampled-vs-exact tier and the physics_contract tier), then the
# correctness checks of every benchmark/ workload at smoke scale. Given
# a base tree (a checkout of the parent commit), it also compares the
# benchmark's end-to-end metrics in paired runs against that tree
# (tools/bench_pairs.py), failing when a median is worse than its
# bound in BENCHMARK.json. A trailing observability tier checks that a
# traced full-scale run emits the expected span families. Keeps the
# default build directory untouched. Usage:
#   tools/ci_native.sh [build-dir] [base-tree]   # default: build-ci
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-ci"}
base=${2:-}

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

# The benchmark's correctness checks on all four workloads, shrunk to
# seconds (run.sh exits nonzero when any check fails).
"$repo/benchmark/run.sh" --smoke

# Performance gate: 10 alternating parent/change pairs per workload,
# judged on medians against the bounds in BENCHMARK.json.
if [ -n "$base" ]; then
    python3 "$repo/tools/bench_pairs.py" "$base"
fi

# Traced run: a full-scale fig13 under VARSCHED_TRACE must produce a
# well-formed Chrome/Perfetto trace carrying every instrumented span
# family (trace_summarize exits nonzero on a malformed file or a
# missing --expect). Every fan-out runs bodies on parallelFor worker
# threads, so pool.task spans appear at any worker count;
# VARSCHED_THREADS=2 spreads them over two pool-worker-N lanes.
trace_json="$build/fig13.trace.json"
rm -f "$trace_json"
VARSCHED_TRACE="$trace_json" VARSCHED_THREADS=2 \
    "$build/bench/bench_fig13_weighted" > /dev/null
"$build/tools/trace_summarize" "$trace_json" \
    --expect physics.settle --expect pm.decide --expect sched.place \
    --expect pool.task --expect experiment.trial
