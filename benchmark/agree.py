"""Summarise the output of `benchmark/run.sh --agree`.

Usage: python3 benchmark/agree.py BENCHMARK.json LINES

LINES holds `<set> <metric> <workload> <value> <unit>` lines from two
sets of runs, a and b. For every end-to-end metric of BENCHMARK.json and
every workload, prints each set's median and quartiles, the spread of
set a (interquartile range over median), and whether set b's median is
within the metric's bound of set a's. Exits 1 when a pair of medians
disagrees or any run failed a correctness check.
"""

import json
import statistics
import sys


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(spec_path, lines_path):
    with open(spec_path) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    values = {}
    failed = 0
    with open(lines_path) as f:
        for line in f:
            fields = line.split()
            if len(fields) != 5:
                continue
            side, name, workload, value, _unit = fields
            if name == "failed":
                failed += int(value)
            elif name in metrics:
                key = (name, workload)
                values.setdefault(key, {}).setdefault(side, []).append(
                    float(value))

    ok = failed == 0
    print(f"{'metric':12} {'workload':12} {'set':3} {'q1':>12} "
          f"{'median':>12} {'q3':>12} {'spread':>7}  verdict")
    for (name, workload), sides in sorted(values.items()):
        bound = metrics[name]["bound"]
        qa = quartiles(sides.get("a", [float("nan")]))
        qb = quartiles(sides.get("b", [float("nan")]))
        agree = abs(qb[1] - qa[1]) <= bound * abs(qa[1])
        ok = ok and agree
        for side, q in (("a", qa), ("b", qb)):
            spread = (q[2] - q[0]) / q[1]
            verdict = ""
            if side == "a":
                verdict = "agree" if agree else "DISAGREE"
                verdict += f" (bound {bound:g})"
                if name != "setup_s" and spread > bound / 2:
                    verdict += "; spread over half the bound"
            print(f"{name:12} {workload:12} {side:3} {q[0]:12.6g} "
                  f"{q[1]:12.6g} {q[2]:12.6g} {spread:7.4f}  {verdict}")
    print(f"failed checks: {failed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
