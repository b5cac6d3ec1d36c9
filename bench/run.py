"""Benchmark entry point.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of one workload in this process until S seconds have gone,
checks every output, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json; with --trace 1 they are the per-layer
ones, from passes that alternate untraced and traced.  The run's details
(environment, every sample, tail percentiles, CPU time, failures) go to
bench/out/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import benchenv

# fresh-process set-ups per untraced run; setup_s is their median.  They are
# spread over the run, between passes, because the host's speed drifts on a
# scale of tens of seconds and set-up times follow it
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _inputs_dir():
    """Postprocess inputs, made by make_inputs.py once per program source."""
    digest = hashlib.sha256()
    for path in sorted((benchenv.SRC / "spiralnls").glob("*.py")) + [
            benchenv.BENCH / "make_inputs.py"]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    target = benchenv.OUT / "inputs" / digest.hexdigest()[:16]
    if not (target / "done").is_file():
        tmp = target.with_name(target.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run([sys.executable, str(benchenv.BENCH / "make_inputs.py"),
                        str(tmp)], check=True, stdout=subprocess.DEVNULL,
                       timeout=600)
        (tmp / "done").write_text("")
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    return target


def _setup_seconds(workload: str, inputs) -> float:
    """One fresh-process set-up of the workload, timed by setup_probe.py."""
    argv = [sys.executable, str(benchenv.BENCH / "setup_probe.py"), workload]
    if inputs is not None:
        argv.append(str(inputs))
    done = subprocess.run(argv, check=True, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(done.stdout.split()[-1])


def _op_median(per_op: list, op_s: list, pass_s: list, ops_per_pass: int) -> float:
    """Median over a pass's operations of each operation's median over passes.

    The operations of a pass differ in size, so the pooled times cluster,
    and a pooled median falls in a gap between clusters.  Medians per
    operation track the host's speed alone.  per_op holds only passes that
    timed every operation; when a failing program leaves none, the pooled
    median stands in, or the pass time per operation if nothing was timed.
    """
    if per_op:
        return statistics.median(statistics.median(t) for t in zip(*per_op))
    if op_s:
        return statistics.median(op_s)
    return statistics.median(pass_s) / ops_per_pass


def _tail(samples: list):
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    if n < 40:
        return None
    for q in (99, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return {"percentile": q, "value": statistics.quantiles(
                samples, n=100)[q - 1], "samples": n}
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (benchenv.SRC / "spiralnls" / "__init__.py").is_file():
        return _fail(f"no program source under {benchenv.SRC}")
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = benchenv.describe(workload=wl.name, seed=args.seed,
                            seconds=args.seconds, trace=args.trace)

    inputs = _inputs_dir() if wl.name == "postprocess" else None
    work = benchenv.OUT / "work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    traced = bool(args.trace)
    setup_tracer = tracer.Tracer(tracer.LAYERS if traced else ())
    with setup_tracer:
        state = wl.setup(inputs)

    rng = random.Random(args.seed)
    walls = {False: [], True: []}
    op_s, per_op, snaps, failed, unexpected, setup_samples = [], [], [], {}, {}, []
    probes = 0 if traced else SETUP_PROBES
    passes = 0
    busy = cpu_s = 0.0
    while True:
        if len(setup_samples) < probes and \
                busy >= len(setup_samples) * args.seconds / probes:
            setup_samples.append(_setup_seconds(wl.name, inputs))
        with_trace = traced and passes % 2 == 1
        spans = tracer.Tracer(tracer.LAYERS if with_trace else tracer.SOLVES)
        cpu0 = time.process_time()
        with spans:
            res = wl.run_pass(state, work, rng, spans)
        cpu_s += time.process_time() - cpu0
        busy += res.wall_s
        passes += 1
        walls[with_trace].append(res.wall_s)
        if with_trace:
            snaps.append(spans.snapshot())
        else:
            op_s.extend(res.op_s)
            if len(res.op_s) == wl.ops_per_pass:
                per_op.append(res.op_s)
        for i, why in res.failed.items():
            failed[why] = failed.get(why, 0) + 1
            if i not in res.known:
                unexpected[why] = unexpected.get(why, 0) + 1
        if busy >= args.seconds and (not traced or passes >= 2):
            break
    while len(setup_samples) < probes:
        setup_samples.append(_setup_seconds(wl.name, inputs))

    if traced:
        counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")}
                  for s in snaps]
        counts_repeat = all(c == counts[0] for c in counts)
        metrics = {}
        for key, value in setup_tracer.snapshot().items():
            if key.endswith(".self_s"):
                value += statistics.median(s[key] for s in snaps)
                metrics[key] = {"value": value, "unit": "s"}
            else:
                metrics[key] = {"value": value + snaps[0][key], "unit": "count"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(walls[True]) - statistics.median(walls[False]),
            "unit": "s"}
    else:
        counts_repeat = None
        metrics = {
            "study_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "op_s_p50": {"value": _op_median(per_op, op_s, walls[False],
                                            wl.ops_per_pass), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    attempted = passes * wl.ops_per_pass
    n_failed = sum(failed.values())
    record = {
        "env": env, "passes": passes, "pass_s": walls[False],
        "traced_pass_s": walls[True], "op_s": op_s, "op_tail": _tail(op_s),
        "setup_samples_s": setup_samples, "cpu_s": cpu_s,
        "counts_repeat_across_traced_passes": counts_repeat,
        "failures": failed, "unexpected_failures": unexpected,
        "metrics": metrics,
    }
    runs = benchenv.OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n")
    for why, count in failed.items():
        print(f"failed x{count}: {why}")
    print("env: " + json.dumps(env, sort_keys=True))
    if counts_repeat is False:
        print("bench: work counts differ between traced passes", file=sys.stderr)
    print(json.dumps({"correct": not unexpected,
                      "attempted": attempted, "failed": n_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
