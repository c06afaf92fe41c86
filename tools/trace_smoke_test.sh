#!/bin/sh
# Trace smoke: run one system bench with tracing enabled, validate the
# emitted Chrome trace with trace_summarize (well-formed event array,
# expected span families present), and prove the bench's printed
# simulation results are byte-identical to an untraced run — tracing
# must observe, never perturb. The check runs twice, once per mode of
# the tick engine: phase-sampled (the bench default) and exact
# (VARSCHED_PHASE_SAMPLING=0). The spans are the only phase clock, so
# each pass must carry the settle, decision and placement spans.
# Usage:
#   trace_smoke_test.sh BENCH_BINARY TRACE_SUMMARIZE_BINARY WORK_DIR
set -eu

bench=$1
summarize=$2
dir=$3

mkdir -p "$dir"

# smoke_pass NAME SAMPLING: one traced and one untraced run of the
# bench with VARSCHED_PHASE_SAMPLING=SAMPLING.
smoke_pass() {
    name=$1
    trace="$dir/$name.trace.json"
    rm -f "$trace"

    VARSCHED_PHASE_SAMPLING=$2 VARSCHED_TRACE="$trace" \
        "$bench" > "$dir/$name.traced.out"
    VARSCHED_PHASE_SAMPLING=$2 "$bench" > "$dir/$name.untraced.out"

    # Simulation output must not depend on whether tracing is on.
    cmp "$dir/$name.traced.out" "$dir/$name.untraced.out"

    # The trace must hold the span families the instrumented stack
    # promises: physics settles, PM decisions, scheduler placements,
    # and worker-pool task spans.
    "$summarize" "$trace" \
        --expect physics.settle \
        --expect pm.decide \
        --expect sched.place \
        --expect pool.task
}

smoke_pass fig13 1
smoke_pass fig13_exact 0
