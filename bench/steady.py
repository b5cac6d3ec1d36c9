"""Steadiness check: the same code in two sets of runs, compared on the bounds.

usage: python3 bench/steady.py [SEED0]

Each of the two sets runs bench/run.py ten times on every workload of
BENCHMARK.json, each run with its own seed (from SEED0, default 1), for
BENCHMARK.json's run_seconds, and then one traced run per workload.  Per
workload and end-to-end metric it prints each set's median and quartiles and
the spread (q3 - q1) / median.  A metric agrees when each set's spread is
within its bound and the two medians differ, either way, by no more than the
bound.  The share of failed operations must be identical in every run, and
every count of the traced runs must repeat exactly between the sets.  All
values go to bench/out/steady.json; the exit code is 0 when everything
agrees.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction

import benchenv

SPEC = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(benchenv.BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    done = subprocess.run(argv, check=True, capture_output=True, text=True,
                          cwd=benchenv.ROOT, timeout=900)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1 or (argv and not argv[0].isdigit()):
        sys.exit(__doc__)
    seed = int(argv[0]) if argv else 1
    names = [w["name"] for w in SPEC["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in names}
    traced = {w: [] for w in names}
    for k in range(SETS):
        for _ in range(RUNS):
            for w in names:
                out = run_once(w, seed, 0)
                results[w][k].append(out)
                print(f"set {k + 1} {w} seed {seed}: correct={out['correct']} "
                      f"failed={out['failed']}/{out['attempted']} " + " ".join(
                          f"{m}={v['value']:.6g}" for m, v in out["metrics"].items()),
                      flush=True)
            seed += 1
        for w in names:
            traced[w].append(run_once(w, seed, 1))
        seed += 1

    ok = True
    print()
    for w in names:
        runs = [r for runs_k in results[w] for r in runs_k]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= len(shares) == 1 and correct
        print(f"{w}: correct in every run: {correct}; failed share(s): "
              + ", ".join(str(s) for s in sorted(shares)))
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [quartiles([r["metrics"][name]["value"] for r in runs_k])
                     for runs_k in results[w]]
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            drift = (stats[1][1] - stats[0][1]) / stats[0][1]
            agree = abs(drift) <= bound and all(s <= bound for s in spreads)
            ok &= agree
            cells = "  ".join(f"[{q1:.4g} {med:.4g} {q3:.4g}] spread {s:.2%}"
                              for (q1, med, q3), s in zip(stats, spreads))
            print(f"  {name:12s} bound {bound:.0%}  {cells}  drift "
                  f"{drift:+.2%}  {'agree' if agree else 'DISAGREE'}")
        counts = [{m: v["value"] for m, v in t["metrics"].items()
                   if v["unit"] == "count"} for t in traced[w]]
        repeat = all(c == counts[0] for c in counts)
        ok &= repeat
        print(f"  traced counts repeat across sets: {repeat}")

    benchenv.OUT.mkdir(parents=True, exist_ok=True)
    (benchenv.OUT / "steady.json").write_text(json.dumps(
        {"runs": results, "traced": traced}, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
