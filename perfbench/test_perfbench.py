"""Fast tests of the benchmark itself, at tiny grid points.

    python3 -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import signal
import time

import pytest

import harness
import oracle
import speed
import workloads

HERE = Path(__file__).resolve().parent
pstrict = importlib.import_module("vkrew.pstrict")
rowmotion = importlib.import_module("vkrew.rowmotion")
verify = importlib.import_module("vkrew.verify")

TINY_LABELINGS = [("pro-pstrict", 1, 3), ("pro-pstrict", 2, 4)]
TINY_PARTITIONS = [("row", 2, 4), ("togpro", 2, 4)]  # V x [2], bounded by 2


def labeling_orbits(seed=1):
    return workloads.orbit_reports("labelings", TINY_LABELINGS, seed)


def partition_orbits(seed=1):
    return workloads.orbit_reports("partitions", TINY_PARTITIONS, seed)


def run_once(workload, trace=False):
    result, _ = harness.measure(workload, 0, trace, setup_starts=1)
    return result


def test_oracle_counts():
    assert oracle.count_labelings(1, 3) == 5
    assert oracle.count_labelings(2, 4) == 84
    assert oracle.count_labelings(3, 7) == 37128
    assert oracle.count_labelings(2, 9) == 11628
    for q in range(3, 10):
        assert oracle.count_labelings(1, q) == sum(j * j for j in range(q))
    for ell in range(1, 4):
        for q in range(3, 8):
            assert oracle.count_labelings(ell, q) == oracle.count_partitions(ell, q - 2)
    assert [oracle.count_extensions(n) for n in range(1, 5)] == [2, 16, 192, 2816]


def test_oracle_counts_match_vkrew_enumeration():
    for ell, q in [(1, 3), (2, 4), (2, 5)]:
        assert sum(1 for _ in pstrict.enumerate_labelings(ell, q)) \
            == oracle.count_labelings(ell, q)


def test_samples_are_distinct_valid_objects():
    ell, q = 2, 5
    chosen = oracle.sample_labelings(ell, q, 20, seed=7)
    assert len(set(chosen)) == 20
    assert chosen == oracle.sample_labelings(ell, q, 20, seed=7)
    assert chosen != oracle.sample_labelings(ell, q, 20, seed=8)
    rf = pstrict.restriction_rq(pstrict.make_v(), q)
    for fibers in chosen:
        pstrict.PStrictLabeling(rf, ell, fibers)
    poset = rowmotion.product_with_chain(rowmotion.make_v(), 3)
    for values in oracle.sample_partitions(2, 3, 20, seed=7):
        rowmotion.PPartition(poset, 2, values)


def test_verify_all_objects_come_from_the_claim_grids():
    assert workloads.claim_grid("row-q-is-flip", {"ell_max": 1, "q_max": 4}) \
        == {("partitions", 1, 1), ("partitions", 1, 2)}
    assert workloads.claim_grid("figure-layers", {}) == set()
    labelings = sum(oracle.count_labelings(ell, q)
                    for ell in range(1, 4) for q in range(3, 8))
    partitions = sum(oracle.count_partitions(ell, k)
                     for ell in range(1, 4) for k in range(1, 4)) \
        + oracle.count_partitions(1, 4) + oracle.count_partitions(2, 4)
    assert workloads.verify_all(seed=1).objects == labelings + partitions + 3026


def test_workload_objects_are_the_oracle_counts():
    assert workloads.pstrict_orbits(1).objects == 37128 + 11628
    assert workloads.partition_orbits(1).objects == 37128


def test_speedometer_scales_slices_by_their_reference_time():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(interval=0.005) as meter:
        a = time.perf_counter()
        while time.perf_counter() < a + 0.05:
            pass
        b = time.perf_counter()
        while time.perf_counter() < b + 0.05:
            pass
        c = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(meter.marks) > 5
    whole = meter.scaled(a, c)
    assert whole == pytest.approx(meter.scaled(a, b) + meter.scaled(b, c))
    # each slice is (its wall time less the reference runs) / reference time
    work = c - a - sum(min(end, c) - max(start, a)
                       for start, end, _ in meter.marks if end > a and start < c)
    took = [t for *_, t in meter.marks[1:]]
    assert work / max(took) <= whole / speed.REFERENCE_S <= work / min(took)


def test_metric_names_are_those_in_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = labeling_orbits()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run_once(workload, trace)
        assert result["correct"] and result["failed"] == 0
        # a traced run makes an untraced, a counting and a timing round here
        assert result["attempted"] == len(TINY_LABELINGS) * (3 if trace else 1)
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in spec[key]}
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_traced_run_counts_calls_and_restores_names():
    original = verify.promote_pstrict
    workload = labeling_orbits()
    metrics = run_once(workload, trace=True)["metrics"]
    assert verify.promote_pstrict is original
    assert pstrict.promote_pstrict is original
    assert metrics["pstrict.promote.calls"]["value"] == 5 + 84
    assert metrics["orbits.steps_per_object"]["value"] == 1.0
    assert metrics["rowmotion.row.calls"]["value"] == 0
    assert metrics["orbits.cycles.calls"]["value"] == 2
    assert metrics["poset.index.calls"]["value"] > 0


def test_traced_suite_times_its_claims():
    metrics = run_once(workloads.verify_all(1, suite="figures"), trace=True)["metrics"]
    assert metrics["verify.claims"]["value"] == 9
    assert metrics["verify.suite.figures.s"]["value"] > 0
    assert metrics["verify.suite.main.s"]["value"] == 0


def test_correct_steps_pass():
    for workload in (labeling_orbits(3),
                     partition_orbits(3),
                     workloads.verify_all(3, suite="classical")):
        result = run_once(workload)
        assert result["correct"] and result["failed"] == 0, workload.name


def identity(f, *args):
    return f


def skip_last_tau(f):
    for k in range(1, f.q - 1):
        f = pstrict.bender_knuth_tau(k, f)
    return f


@pytest.mark.parametrize("module, name, step, workload, failed", [
    # the orbit report sees the wrong step
    (verify, "promote_pstrict", identity,
     labeling_orbits, 2),
    (verify, "promote_pstrict", skip_last_tau,
     labeling_orbits, 2),
    (verify, "rowmotion", identity,
     partition_orbits, 2),
    (verify, "togpro", identity,
     partition_orbits, 1),
    (verify, "promote_linext", identity,
     lambda: workloads.verify_all(1, suite="classical"), 3),
    # only the benchmark's own q-fold stepping of its sample sees it
    (pstrict, "promote_pstrict", skip_last_tau,
     labeling_orbits, 2),
    (rowmotion, "togpro", identity,
     partition_orbits, 1),
])
def test_wrong_step_fails_operations(monkeypatch, module, name, step,
                                     workload, failed):
    monkeypatch.setattr(module, name, step)
    result = run_once(workload())
    assert not result["correct"]
    assert result["failed"] == failed


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
