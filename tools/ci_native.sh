#!/bin/sh
# CI-style full pass in its own build directory: configure and build a
# separate tree, run the fast test tiers (unit tests + bench smokes,
# including the simd_forced_scalar fallback rerun, the sampling_guard
# sampled-vs-exact tier and the physics_contract tier), the pool's
# tests under ThreadSanitizer in a second tree (<build-dir>-tsan), the
# fault, guard, phase-sampling, orchestrator, core/CMP-model, simplex,
# snapshot, power-manager and tick-loop (golden, power trace, rerun,
# replay, incremental) tests under ASan+UBSan, asserts kept, in a third
# (<build-dir>-asan), then the correctness checks of every
# benchmark/ workload at smoke scale. Given a base tree (a checkout of the parent commit), it also
# compares the benchmark's end-to-end metrics in paired runs against
# that tree (tools/bench_pairs.py), failing when a median is worse
# than its bound in BENCHMARK.json. A trailing observability tier
# checks that a traced full-scale run emits the expected span
# families. Keeps the default build directory untouched. Usage:
#   tools/ci_native.sh [build-dir] [base-tree]   # default: build-ci
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-ci"}
base=${2:-}

cmake -B "$build" -S "$repo"
cmake --build "$build" -j
ctest --test-dir "$build" --output-on-failure -j

# Explicit pass over the sampled-vs-exact guard tier: the SamplingGuard
# tests replay Fig 13's and the long-horizon bench's sampled runs
# against the same runs with sampling off and fail beyond the error
# budget. Verbose, so each set's worst ED^2 deviation and its cap show
# in the log.
ctest --test-dir "$build" -L sampling_guard --output-on-failure \
    --verbose

# Physics contracts: the leakage kernel against its per-sample oracle
# (1e-12) and the settle's 0.01 C residual and round-count pins.
ctest --test-dir "$build" -L physics_contract --output-on-failure

# ThreadSanitizer pass over parallelFor and the code it fans out: the
# test binary alone, in its own tree (TSan and ASan cannot share one).
tsan="$build-tsan"
cmake -B "$tsan" -S "$repo" -DVARSCHED_TSAN=ON
cmake --build "$tsan" -j --target varsched_tests
ctest --test-dir "$tsan" --output-on-failure \
    -R "ParallelFor|ThreadPool|BatchDeterminism|FieldFactorCache"

# AddressSanitizer + UndefinedBehaviorSanitizer pass over the fault
# injector, sensor validator, guard and guarded system runs
# (FaultSystemFixture), phase sampler, config validation,
# sweep orchestrator, trace-driven core and CMP models, simplex, the
# sensor snapshot and its fill, LinOpt, Foxton*, SAnn and Exhaustive,
# and the tick loop, whose quiet-tick replay grows the run-length power
# trace and does index arithmetic on the phase sequencers (SystemGolden,
# PowerTrace, SystemRerun, TickReplay, SystemIncremental): the test
# binary alone, in its own tree, with asserts kept. The build
# aborts on a UBSan report (-fno-sanitize-recover); halt_on_error says
# so again.
asan="$build-asan"
cmake -B "$asan" -S "$repo" -DVARSCHED_SANITIZE=ON
cmake --build "$asan" -j --target varsched_tests
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir "$asan" --output-on-failure -R \
    "GuardedPm|FaultSystemFixture|SensorValidator|FaultInjector|Phase|SystemConfigValidation|RetryPolicy|Orchestrator|CmpModel|CoreModel|TraceGen|Simplex|LinOpt|Sensors|Snapshot|FoxtonStar|FoxtonDeep|SAnn|Exhaustive|SystemGolden|PowerTrace|SystemRerun|TickReplay|SystemIncremental"

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
