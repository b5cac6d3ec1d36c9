"""Paired benchmark runs of a parent tree and a changed tree, as one BENCH_<n>.json.

usage: python3 tools/bench_pairs.py PARENT CHANGE OUT.json --what TEXT
           --pairs WORKLOAD=SEEDS [--pairs ...] [--traced WORKLOAD=SEEDS ...]
           [--claim WORKLOAD.METRIC]

Each pair runs `bench/run.py --workload W --seed N --seconds S --trace 0|1`
once in each tree, the parent first on odd pairs and the change first on even
ones, so that a drift of the host's speed falls on both sides.  SEEDS is a
range (9001-9010) or a list (9001,9003); S is BENCHMARK.json's run_seconds.
Per workload and end-to-end metric of BENCHMARK.json the file
holds each side's runs, median and quartiles, the pairs in which the change
is lower, the relative change of the medians and the parent's interquartile
range; traced pairs keep every nonzero per-layer value.  A claim is met when
the change is lower in at least 9 of every 10 pairs, over at least 10 pairs,
and its median is lower by more than the parent's interquartile range.
Postprocess runs also record the sha256 of the VTK volumes they write, and
the file says whether the change's are the parent's.  Sweep runs record the
sweep.csv they write, and the file holds each side's and the largest relative
difference per column between them.  The exit code is 1 when a run fails, is
not correct, reports failed operations or (traced) work counts that differ
between its passes, or when one side's VTK or sweep CSV bytes differ between
its runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
SIDES = ("parent", "change")
ORDER = "pairs alternate which side runs first: the parent on odd pairs, the change on even ones"
RUN_TIMEOUT_S = 1800


def parse_seeds(text: str) -> list:
    """'9001-9010' or '9001,9003' -> a list of seeds."""
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def quartiles(values) -> tuple:
    """(q1, median, q3), the inclusive method of statistics.quantiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list, change: list, unit: str, bound: float) -> dict:
    """One metric's pairs: each side's runs and quartiles, and how they compare."""
    sides = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = quartiles(runs)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "runs": runs}
    lower = sum(c < p for p, c in zip(parent, change))
    return {
        "unit": unit, "bound": bound, **sides,
        "change_lower_in": f"{lower}/{len(parent)}",
        "median_rel_change": sides["change"]["median"] / sides["parent"]["median"] - 1,
        "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
    }


def claim(workload: str, metric: str, summary: dict) -> dict:
    """A lower-is-better claim on one summarized metric, and whether it is met."""
    lower, pairs = (int(x) for x in summary["change_lower_in"].split("/"))
    drop = summary["parent"]["median"] - summary["change"]["median"]
    return {
        "workload": workload, "metric": metric,
        "change_lower_in": summary["change_lower_in"],
        "median_drop": drop, "parent_iqr": summary["parent_iqr"],
        "met": pairs >= 10 and 10 * lower >= 9 * pairs and drop > summary["parent_iqr"],
    }


def run_ok(result: dict) -> bool:
    return (result["exit"] == 0 and result["correct"] is True and result["failed"] == 0
            and result.get("counts_repeat") is not False)


def value(result: dict, key: str):
    """A metric's value in one run's result, None if the run reported none."""
    return result.get("metrics", {}).get(key, {}).get("value")


def run_bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One bench/run.py process in tree: its last line, env line, whether its
    traced passes repeated their work counts (None untraced), VTK digests and
    sweep CSV text (None where the workload writes none)."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"exit": done.returncode or 1, "correct": False, "failed": None}
    result = json.loads(lines[-1])
    env = [json.loads(ln[len("env: "):]) for ln in lines if ln.startswith("env: ")]
    out = tree / "bench" / "out"
    record = json.loads((out / "runs" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    work = out / "work" / workload
    sweep_csv = work / "sweep.csv"
    result.update(exit=0, env=env[0] if env else {},
                  counts_repeat=record["counts_repeat_across_traced_passes"], vtk={
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.glob("*.vtk"))},
                  sweep_csv=sweep_csv.read_text() if sweep_csv.is_file() else None)
    return result


def run_pairs(trees: dict, workload: str, seeds: list, trace: int) -> list:
    """[(parent result, change result)] per seed, alternating which runs first."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_bench(trees[side], workload, seed, trace) for side in order}
        for side in SIDES:
            res = pair[side]
            print(f"{workload} seed {seed} trace {trace} {side}: ok={run_ok(res)} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res.get("metrics", {}).items()
                if trace == 0), flush=True)
        pairs.append((pair["parent"], pair["change"]))
    return pairs


def workload_summary(seeds: list, pairs: list) -> dict:
    ok = all(run_ok(r) for pair in pairs for r in pair)
    out = {
        "seeds": seeds, "runs_correct": ok,
        "failed": {s: sum(p[i]["failed"] or 0 for p in pairs) for i, s in enumerate(SIDES)},
        "attempted": {s: sum(p[i].get("attempted", 0) for p in pairs)
                      for i, s in enumerate(SIDES)},
        "metrics": {},
    }
    if ok:
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            parent, change = ([value(p[i], name) for p in pairs] for i in (0, 1))
            out["metrics"][name] = summarize(parent, change, metric["unit"], metric["bound"])
    return out


def traced_summary(seeds: list, pairs: list) -> dict:
    keys = [m["name"] for m in SPEC["per_layer"]
            if any(value(r, m["name"]) for pair in pairs for r in pair)]
    metrics = {k: {s: [value(p[i], k) for p in pairs] for i, s in enumerate(SIDES)}
               for k in keys}
    repeat = all(r.get("counts_repeat") for pair in pairs for r in pair)
    return {"seeds": seeds, "counts_repeat": repeat, "metrics": metrics}


def per_side(results: list, key: str) -> tuple:
    """Per side, the value of key in its first run that has one, and whether
    every such run of either side repeated its side's value."""
    values, same = {}, True
    for i, side in enumerate(SIDES):
        seen = [pair[i][key] for pair in results if pair[i].get(key)]
        values[side] = seen[0] if seen else None
        same &= all(v == seen[0] for v in seen)
    return values, same


def vtk_digests(results: list) -> tuple:
    """Per side, the VTK digests of its runs, and whether every run wrote the same."""
    digests, same = per_side(results, "vtk")
    return {side: d or {} for side, d in digests.items()}, same


def _cell_rel(parent: str, change: str) -> float:
    if parent == change:
        return 0.0
    try:
        p, c = float(parent), float(change)
    except ValueError:
        return 1.0
    if p == c:
        return 0.0
    if p == 0.0 or not (math.isfinite(p) and math.isfinite(c)):
        return 1.0
    return abs(c - p) / abs(p)


def csv_rel_diff(parent: str, change: str):
    """Largest |change - parent| / |parent| per column of two CSV texts, by row.

    Equal cells count 0; unequal cells that are not both finite numbers, or
    whose parent value is 0, count 1.  None when the header or the row count
    differs.
    """
    p_rows, c_rows = (list(csv.reader(io.StringIO(text))) for text in (parent, change))
    if len(p_rows) != len(c_rows) or p_rows[:1] != c_rows[:1]:
        return None
    return {name: max((_cell_rel(p[j], c[j]) for p, c in zip(p_rows[1:], c_rows[1:])),
                      default=0.0)
            for j, name in enumerate(p_rows[0])}


def _workload_seeds(text: str) -> tuple:
    workload, _, seeds = text.partition("=")
    return workload, parse_seeds(seeds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("out", type=Path)
    ap.add_argument("--what", required=True, help="one line naming the change")
    ap.add_argument("--pairs", type=_workload_seeds, action="append", default=[])
    ap.add_argument("--traced", type=_workload_seeds, action="append", default=[])
    ap.add_argument("--claim", help="WORKLOAD.METRIC")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    untraced = {w: (seeds, run_pairs(trees, w, seeds, 0)) for w, seeds in args.pairs}
    traced = {w: (seeds, run_pairs(trees, w, seeds, 1)) for w, seeds in args.traced}
    all_pairs = [p for _, pairs in [*untraced.values(), *traced.values()] for p in pairs]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=trees["parent"],
                            capture_output=True, text=True)
    env = next((dict(r["env"]) for p in all_pairs for r in p if r.get("env")), {})
    for key in ("workload", "seed", "trace"):
        env.pop(key, None)
    workloads = {w: workload_summary(s, p) for w, (s, p) in untraced.items()}
    report = {
        "what": args.what,
        "parent_commit": commit.stdout.strip() or None,
        "command": f"python3 bench/run.py --workload W --seed N --seconds {SECONDS} --trace 0|1",
        "order": ORDER,
    }
    if args.claim:
        workload, metric = args.claim.split(".")
        summary = workloads.get(workload, {}).get("metrics", {}).get(metric)
        report["claim"] = claim(workload, metric, summary) if summary else None
    report.update(env=env, workloads=workloads,
                  traced={w: traced_summary(s, p) for w, (s, p) in traced.items()})
    digests, same = vtk_digests([p for w, (_, pairs) in [*untraced.items(), *traced.items()]
                                 if w == "postprocess" for p in pairs])
    if any(digests.values()):
        report["postprocess_vtk_sha256"] = digests
        report["postprocess_vtk_same_as_parent"] = digests["parent"] == digests["change"]
    csvs, csv_same = per_side([p for w, (_, pairs) in [*untraced.items(), *traced.items()]
                               if w == "sweep" for p in pairs], "sweep_csv")
    if all(csvs.values()):
        report["sweep_csv"] = csvs
        report["sweep_csv_max_rel_diff"] = csv_rel_diff(csvs["parent"], csvs["change"])
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    ok = all(run_ok(r) for p in all_pairs for r in p) and same and csv_same
    print(f"wrote {args.out}; every run correct with 0 failed, work counts, VTK and sweep CSV"
          f" bytes repeated: {ok}; postprocess VTK bytes same as parent:"
          f" {report.get('postprocess_vtk_same_as_parent')}; sweep CSV largest relative"
          f" change per column: {report.get('sweep_csv_max_rel_diff')}")
    if report.get("claim"):
        print("claim: " + json.dumps(report["claim"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
