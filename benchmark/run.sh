#!/usr/bin/env bash
# Build the varsched benchmark and run it. Run from anywhere; it works
# in the repository root above this script.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       One run of one workload. Extra lines come first; the last line
#       of standard output is the JSON result described by
#       BENCHMARK.json.
#   benchmark/run.sh [--smoke] [--seed S] [--workload W]
#       Every workload (or only W), each in a fresh process. Prints
#       `metric workload value unit` lines, writes
#       benchmark/out/<stamp>.json, and exits non-zero when any
#       correctness check failed. --smoke shrinks every workload so the
#       whole run takes seconds.
#   benchmark/run.sh --traced [--seed S] [--workload W]
#       The per-layer pass; saves each trace's trace_summarize table as
#       benchmark/out/<stamp>-<workload>.layers.txt.
#   benchmark/run.sh --agree [N] [--seed S] [--workload W]
#       Two sets of N runs per workload (seeds S .. S+N-1, the two runs
#       of a seed in alternating order). Prints each set's median and
#       quartiles per metric and whether the medians agree within the
#       metric's bound in BENCHMARK.json.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=benchmark/build
BENCH=$BUILD/bench/varsched_bench
WORKLOADS=(mfg_lot dvfs_sann dvfs_linopt longhorizon)
SECONDS_PER_RUN=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

build() {
    if [ ! -f CMakeLists.txt ] || [ ! -d src ]; then
        echo "run.sh: no varsched source tree in $(pwd)" >&2
        exit 2
    fi
    mkdir -p "$BUILD"
    local log=$BUILD/build.log
    # Configure once per tree; cmake --build re-configures by itself
    # when a CMakeLists.txt changes.
    if ! {
        { [ -f "$BUILD/repo/CMakeCache.txt" ] ||
            cmake -S . -B "$BUILD/repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo; } &&
            cmake --build "$BUILD/repo" -j 4 \
                --target varsched_core trace_summarize &&
            { [ -f "$BUILD/bench/CMakeCache.txt" ] ||
                cmake -S benchmark -B "$BUILD/bench" \
                    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
                    -DVARSCHED_TREE="$PWD/$BUILD/repo"; } &&
            cmake --build "$BUILD/bench" -j 4
    } >"$log" 2>&1; then
        tail -n 30 "$log" >&2
        echo "run.sh: build failed (full log: $log)" >&2
        exit 2
    fi
}

# One run as BENCHMARK.json describes it: hand the arguments over as they are.
for arg in "$@"; do
    if [ "$arg" = --trace ]; then
        build
        exec "$BENCH" "$@"
    fi
done

mode=plain
seed=2026
reps=5
only=
while [ $# -gt 0 ]; do
    case $1 in
        --smoke | --traced) mode=${1#--} ;;
        --agree)
            mode=agree
            if [[ ${2:-} =~ ^[0-9]+$ ]]; then
                reps=$2
                shift
            fi
            ;;
        --seed) seed=$2 && shift ;;
        --workload) only=$2 && shift ;;
        *)
            sed -n '2,25p' "$0" >&2
            exit 2
            ;;
    esac
    shift
done
if [ -n "$only" ]; then
    WORKLOADS=("$only")
fi

build
mkdir -p benchmark/out
stamp=$(date +%Y%m%d-%H%M%S)

# run_one WORKLOAD SEED TRACE [EXTRA...]: print the program's metric
# lines and leave its JSON result in $result.
run_one() {
    local workload=$1 seed=$2 trace=$3
    shift 3
    local out
    out=$("$BENCH" --workload "$workload" --seed "$seed" \
        --seconds "$SECONDS_PER_RUN" --trace "$trace" "$@")
    grep -v '^{' <<<"$out" || true
    result=$(tail -n 1 <<<"$out")
}

case $mode in
    plain | smoke | traced)
        extra=()
        trace=0
        if [ "$mode" = smoke ]; then
            SECONDS_PER_RUN=2
            extra=(--scale 0.25)
        elif [ "$mode" = traced ]; then
            trace=1
        fi
        json="{\"stamp\": \"$stamp\", \"mode\": \"$mode\", \"seed\": $seed"
        json+=", \"results\": {"
        failed=0
        sep=
        for w in "${WORKLOADS[@]}"; do
            if [ "$mode" = traced ]; then
                tracefile=benchmark/out/$stamp-$w.trace.json
                extra=(--trace-out "$tracefile")
            fi
            run_one "$w" "$seed" "$trace" "${extra[@]}"
            json+="$sep\"$w\": $result"
            sep=", "
            if ! grep -q '"failed": 0,' <<<"$result"; then
                failed=1
            fi
            if [ "$mode" = traced ]; then
                "$BUILD/repo/tools/trace_summarize" "$tracefile" --top 25 \
                    >"benchmark/out/$stamp-$w.layers.txt"
            fi
        done
        json+="}}"
        echo "$json" >"benchmark/out/$stamp.json"
        echo "wrote benchmark/out/$stamp.json"
        if [ "$failed" -ne 0 ]; then
            echo "run.sh: correctness checks failed" >&2
            exit 1
        fi
        ;;
    agree)
        lines=benchmark/out/$stamp-agree.txt
        : >"$lines"
        for w in "${WORKLOADS[@]}"; do
            for ((i = 0; i < reps; i++)); do
                sides=(a b)
                if ((i % 2)); then
                    sides=(b a)
                fi
                for side in "${sides[@]}"; do
                    run_one "$w" $((seed + i)) 0 >"$lines.run"
                    sed "s/^/$side /" "$lines.run" >>"$lines"
                    echo "$side failed $w $(sed 's/.*"failed": \([0-9]*\).*/\1/' \
                        <<<"$result") count" >>"$lines"
                done
            done
        done
        python3 benchmark/agree.py BENCHMARK.json "$lines"
        ;;
esac
