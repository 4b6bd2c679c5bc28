#!/usr/bin/env python3
"""Compare two artifacts of the stack benchmark, B against base A.

    python3 benchmarks/stack/compare.py A.json B.json

``A.json`` / ``B.json`` are ``stack.json`` files written by ``run.py``
(all workloads, ``--runs K``) or single ``result.json`` files.  For
every workload x end-to-end metric of ``BENCHMARK.json`` it prints both
medians with their quartiles, the ratio B/A, and a verdict against the
metric's bound:

* ``regressed``  - B's median is worse than A's by more than the bound;
* ``unresolved`` - the spread of either side (q3 - q1 over the median)
  is wider than the bound, so a change of that size cannot be told
  from noise - unless every value of one side beats every value of the
  other, which decides it;
* ``ok``         - otherwise.

With three or more runs per side the values are the runs' medians;
with fewer they are the per-repetition values of the one run.  Exits 1
if any row regressed, 2 if the artifacts are not comparable (seed,
``nproc``, kernel backend or size class differ).
"""

import json
import pathlib
import sys

from harness import quartiles

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: what must match for two artifacts to be comparable
IDENTITY = ("seed", "nproc", "kernels", "smoke", "seconds")
MIN_RUNS = 3


def load(path: str) -> dict:
    """``{workload: [run artifact, ...]}`` from either artifact shape."""
    data = json.loads(pathlib.Path(path).read_text())
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: [data]}


def values(runs: list, metric: str) -> list:
    """Run-level values when there are enough runs, else the one run's
    per-repetition values."""
    if len(runs) >= MIN_RUNS:
        return [run["end_to_end"][metric]["value"] for run in runs]
    return list(runs[0]["end_to_end"][metric]["per_rep"])


def verdict(a: list, b: list, better: str, bound: float):
    """(verdict, ratio B/A) for one workload x metric."""
    sign = 1.0 if better == "lower" else -1.0  # signed: lower is better
    qa, qb = quartiles(a), quartiles(b)
    ratio = qb[1] / qa[1]
    regressed = sign * (qb[1] - qa[1]) / qa[1] > bound
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if spread > bound:
        signed_a, signed_b = [sign * x for x in a], [sign * x for x in b]
        if max(signed_b) < min(signed_a):
            return "ok", ratio
        if not min(signed_b) > max(signed_a):
            return "unresolved", ratio
    return ("regressed" if regressed else "ok"), ratio


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(argv[0]), load(argv[1])
    for workload in sorted(set(base) & set(change)):
        for key in IDENTITY:
            mine = {run[key] for run in base[workload]}
            theirs = {run[key] for run in change[workload]}
            if mine != theirs or len(mine) != 1:
                print(f"not comparable: {workload} {key} differs "
                      f"({sorted(mine, key=str)} vs {sorted(theirs, key=str)})",
                      file=sys.stderr)
                return 2
    regressed = False
    print(f"{'workload':<15}{'metric':<18}{'A median [q1, q3] n':<40}"
          f"{'B median [q1, q3] n':<40}{'B/A':>7}  verdict (bound)")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in change:
            continue
        for metric in spec["end_to_end"]:
            a = values(base[workload], metric["name"])
            b = values(change[workload], metric["name"])
            result, ratio = verdict(a, b, metric["better"], metric["bound"])
            regressed = regressed or result == "regressed"
            cells = []
            for side in (a, b):
                q1, q2, q3 = quartiles(side)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(side)}")
            print(f"{workload:<15}{metric['name']:<18}{cells[0]:<40}{cells[1]:<40}"
                  f"{ratio:>7.3f}  {result} ({metric['bound']}, base A)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
