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


_SWEEP_CSV = ("lambda,alpha_hat,winner,beta_dipole\n"
              "0.05,5.869529083844319,RadialNodal,4861.407577593729\n"
              "50,5.869529083844319,Dipole,inf\n")


def test_sweep_csv_largest_relative_change_per_column():
    moved = _SWEEP_CSV.replace("4861.407577593729", "4861.4075775937235")
    diff = bench_pairs.csv_rel_diff(_SWEEP_CSV, moved)
    assert diff["lambda"] == diff["alpha_hat"] == diff["winner"] == 0.0
    assert diff["beta_dipole"] == pytest.approx(5.5e-15 / 4861.407577593729, rel=1e-3)
    assert bench_pairs.csv_rel_diff(_SWEEP_CSV, _SWEEP_CSV) == dict.fromkeys(
        ("lambda", "alpha_hat", "winner", "beta_dipole"), 0.0)
    # a changed winner or a level that became infinite counts 1; 50 -> 50.0 is no change
    flipped = _SWEEP_CSV.replace("Dipole,inf", "RadialNodal,13.2").replace("50,", "50.0,")
    diff = bench_pairs.csv_rel_diff(_SWEEP_CSV, flipped)
    assert diff["winner"] == diff["beta_dipole"] == 1.0 and diff["lambda"] == 0.0
    # other rows or columns are not compared
    assert bench_pairs.csv_rel_diff(_SWEEP_CSV, _SWEEP_CSV + "60,1,Dipole,2\n") is None
    assert bench_pairs.csv_rel_diff(_SWEEP_CSV, _SWEEP_CSV.replace("winner", "won")) is None


def test_sweep_csv_must_repeat_on_each_side():
    a, b = {"sweep_csv": _SWEEP_CSV}, {"sweep_csv": _SWEEP_CSV.replace("0.05", "0.06")}
    assert bench_pairs.per_side([(a, b), (a, b)], "sweep_csv") == (
        {"parent": a["sweep_csv"], "change": b["sweep_csv"]}, True)
    assert not bench_pairs.per_side([(a, b), (b, b)], "sweep_csv")[1]
    # postprocess runs write no sweep CSV
    assert bench_pairs.per_side([({"sweep_csv": None}, {})], "sweep_csv") == (
        {"parent": None, "change": None}, True)
