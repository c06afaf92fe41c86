#!/usr/bin/env python3
"""Paired end-to-end comparison of this tree against a base tree.

    tools/bench_pairs.py BASE_TREE

For every workload in BENCHMARK.json, runs 10 pairs of
`<tree>/benchmark/run.sh --workload W --seed S --seconds T --trace 0`,
one run in BASE_TREE and one in this tree, alternating which goes
first. Reads each run's last JSON line and prints the median of every
end-to-end metric on both sides. Exits 1 when any run fails a
correctness check, or when a metric's median in this tree is worse
than the base's by more than its bound in BENCHMARK.json.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
HERE = Path(__file__).resolve().parent.parent


def run(tree, workload, seed, seconds):
    cmd = [str(Path(tree) / "benchmark" / "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    trees = {"base": Path(sys.argv[1]).resolve(), "this": HERE}
    ok = True
    print(f"{'workload':12} {'metric':12} {'base':>12} {'this':>12} ratio")
    for w in (x["name"] for x in spec["workloads"]):
        runs = {"base": [], "this": []}
        for i in range(PAIRS):
            for side in ("base", "this") if i % 2 == 0 else ("this", "base"):
                r = run(trees[side], w, 2026 + i, spec["run_seconds"])
                runs[side].append(r)
                if r["failed"] > 0:
                    print(f"{side} {w} seed {2026 + i}: {r['failed']} failed")
                    ok = False
        for m in spec["end_to_end"]:
            med = {s: statistics.median(r["metrics"][m["name"]]["value"]
                                        for r in runs[s]) for s in runs}
            ratio = med["this"] / med["base"]
            worse = 1 - ratio if m["better"] == "higher" else ratio - 1
            flag = "  WORSE" if worse > m["bound"] else ""
            ok = ok and not flag
            print(f"{w:12} {m['name']:12} {med['base']:12.5g} "
                  f"{med['this']:12.5g} {ratio:.3f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
