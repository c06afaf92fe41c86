#!/bin/sh
# Chaos end-to-end for the sweep orchestrator (ISSUE 6 acceptance):
#
#  1. run the fig05 grid serially, undisturbed -> reference sweep.json
#  2. run the same grid with VARSCHED_CHAOS: workers crash, hang, and
#     corrupt their outputs on a seeded schedule; SIGKILL the
#     orchestrator mid-sweep; re-run the same command to resume
#  3. the resumed sweep's merged sweep.json must be BYTE-IDENTICAL to
#     the undisturbed serial reference
#  4. the manifest must account for every worker launch:
#     total_attempts - prior_attempts == launches, summed over both
#     chaos runs, and total_attempts must exceed the task count
#     (i.e. the chaos schedule really injected retries)
#  5. no orchestrator or worker of this sweep outlives it: the killed
#     orchestrator's workers die with it
#
# Usage: sweep_chaos_test.sh <varsched_sweep-binary> <scratch-dir>
set -eu

BIN=$1
DIR=$2
GRID="--grid fig05 --dies 2 --gridsize 32"
rm -rf "$DIR"
mkdir -p "$DIR"

# Every orchestrator and worker of this test has "--out $DIR/..." on
# its command line; this script's own command line does not.
sweep_pids() {
    pgrep -f -- "--out $DIR/" || true
}
OWN_PGID=$(ps -o pgid= -p $$ | tr -d ' ')
# Kill whatever is left, however the script ends: a worker's process
# group (its own), or a process in this script's group by itself.
reap() {
    for pid in $(sweep_pids); do
        pgid=$(ps -o pgid= -p "$pid" | tr -d ' ')
        if [ -n "$pgid" ] && [ "$pgid" != "$OWN_PGID" ]; then
            kill -KILL "-$pgid" 2>/dev/null || true
        else
            kill -KILL "$pid" 2>/dev/null || true
        fi
    done
}
trap reap EXIT

echo "== reference: undisturbed serial sweep"
"$BIN" $GRID --out "$DIR/ref" --workers 1

echo "== chaos sweep, orchestrator killed mid-run"
# Seed 121's schedule covers all four fault modes across the fig05
# grid (crash, torn write, hang, corrupt-but-exit-0) with one hang,
# so the watchdog path is exercised without serialising on timeouts.
export VARSCHED_CHAOS=121
# Short timeout: hung chaos workers must die by watchdog, not ctest.
# The killed run logs to a file, so no process that outlives it can
# hold the test harness's output pipe open and stall ctest.
set +e
"$BIN" $GRID --out "$DIR/chaos" --workers 4 \
       --timeout 15 --grace 1 --retry-base 0.05 --retry-cap 0.2 \
       > "$DIR/first_run.log" 2>&1 &
PID=$!
# Give it long enough to journal some state, then kill -9: no handler
# runs, so resume must come purely from the checkpointed journal.
sleep 2
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
FIRST_EXIT=$?
set -e
echo "   (first run exited $FIRST_EXIT)"
sed 's/^/   | /' "$DIR/first_run.log"
[ -f "$DIR/chaos/journal.jsonl" ] || {
    echo "FAIL: no journal checkpoint survived the kill"; exit 1; }

echo "== resume after kill"
"$BIN" $GRID --out "$DIR/chaos" --workers 4 \
       --timeout 15 --grace 1 --retry-base 0.05 --retry-cap 0.2 \
       --strict
unset VARSCHED_CHAOS

echo "== no process of the sweep outlives it"
LEFT=$(sweep_pids)
if [ -n "$LEFT" ]; then
    echo "FAIL: processes left running after the resume:"
    ps -o pid,ppid,pgid,args -p "$(echo $LEFT | tr ' ' ',')"
    exit 1
fi

echo "== merged results must be byte-identical to the serial run"
cmp "$DIR/ref/sweep.json" "$DIR/chaos/sweep.json" || {
    echo "FAIL: chaos+resume sweep.json differs from serial run"
    exit 1
}

echo "== manifest accounts for every retry"
# Both chaos runs wrote a manifest; the resume's manifest carries the
# first run's attempts as prior_attempts. Check the bookkeeping
# identity and that chaos actually caused retries.
awk '
    /"launches":/        { launches = $2 + 0 }
    /"prior_attempts":/  { prior = $2 + 0 }
    /"total_attempts":/  { total = $2 + 0 }
    /"failed":/          { failed = $2 + 0 }
    /"pending":/         { pending = $2 + 0 }
    /"task":/            { tasks += 1 }
    END {
        if (total - prior != launches) {
            printf "FAIL: total_attempts %d - prior %d != launches %d\n",
                   total, prior, launches
            exit 1
        }
        if (failed != 0 || pending != 0) {
            printf "FAIL: coverage incomplete (%d failed, %d pending)\n",
                   failed, pending
            exit 1
        }
        if (total < tasks) {
            printf "FAIL: %d attempts for %d tasks?\n", total, tasks
            exit 1
        }
        printf "   ok: %d tasks, %d total attempts (%d before kill), %d launches this run\n",
               tasks, total, prior, launches
    }
' "$DIR/chaos/manifest.json"

echo "PASS: chaos sweep converged to the serial run byte-for-byte"
