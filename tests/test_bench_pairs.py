"""tools/bench_pairs.py's summary, on fixed numbers; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_reproduces_a_committed_bench_file():
    # BENCH_24.json was collected by hand from the run records
    committed = json.loads((ROOT / "BENCH_24.json").read_text())
    for workload in committed["workloads"].values():
        for entry in workload["metrics"].values():
            got = bench_pairs.summarize(entry["parent"]["runs"], entry["change"]["runs"],
                                        entry["unit"], entry["bound"])
            assert got == entry
    stated = committed["claim"]
    metric = committed["workloads"][stated["workload"]]["metrics"][stated["metric"]]
    assert bench_pairs.claim(stated["workload"], stated["metric"], metric) == stated


def _pairs(wins: int, pairs: int = 10, drop: float = 1.0):
    # parent runs 10, 11, ..., IQR (pairs - 1) / 2; the change loses the last
    # pairs - wins pairs by 0.5 and wins the others by drop
    parent = [10.0 + i for i in range(pairs)]
    change = [p - drop if i < wins else p + 0.5 for i, p in enumerate(parent)]
    return bench_pairs.claim("w", "m", bench_pairs.summarize(parent, change, "s", 0.25))


def test_claim_needs_nine_of_ten_pairs_and_a_drop_beyond_the_parent_iqr():
    assert _pairs(10, drop=5.0)["met"]
    assert _pairs(9, drop=5.0)["met"]
    assert _pairs(9, drop=5.0)["change_lower_in"] == "9/10"
    assert not _pairs(8, drop=5.0)["met"]
    # a drop within the parent's IQR (4.5) is not a claim, however many pairs win
    assert not _pairs(10, drop=4.0)["met"]
    assert _pairs(10, drop=4.0)["median_drop"] == pytest.approx(4.0)
    assert _pairs(10, drop=4.0)["parent_iqr"] == pytest.approx(4.5)
    # nor are fewer than ten pairs
    assert not _pairs(6, pairs=6, drop=5.0)["met"]
    assert _pairs(20, pairs=20, drop=10.0)["met"]
    assert not _pairs(17, pairs=20, drop=10.0)["met"]


def test_seed_lists_and_run_verdicts():
    assert bench_pairs.parse_seeds("9001-9004") == [9001, 9002, 9003, 9004]
    assert bench_pairs.parse_seeds("7,9") == [7, 9]
    good = {"exit": 0, "correct": True, "failed": 0}
    assert bench_pairs.run_ok(good)
    assert not bench_pairs.run_ok({**good, "failed": 1})
    assert not bench_pairs.run_ok({**good, "correct": False})
    assert not bench_pairs.run_ok({"exit": 2, "correct": False, "failed": None})
    # a traced run whose work counts differ between its passes fails too
    assert bench_pairs.run_ok({**good, "counts_repeat": True})
    assert bench_pairs.run_ok({**good, "counts_repeat": None})
    assert not bench_pairs.run_ok({**good, "counts_repeat": False})


def test_vtk_digests_must_repeat_on_each_side():
    a, b = {"v.vtk": "aa"}, {"v.vtk": "bb"}
    assert bench_pairs.vtk_digests([({"vtk": a}, {"vtk": a}), ({"vtk": a}, {"vtk": a})]) == \
        ({"parent": a, "change": a}, True)
    assert not bench_pairs.vtk_digests([({"vtk": a}, {"vtk": a}), ({"vtk": a}, {"vtk": b})])[1]
