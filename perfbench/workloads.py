"""The benchmark's workloads: operations that call vkrew, and their checks.

An operation is one orbit report or one claim.  Its ``call`` goes into
vkrew the way the ``vkrew`` command does (build the report, render it as
JSON text) and is the only part a traced run traces.  Its ``check``
compares the output with the oracle and with the laws the paper proves,
and returns one error string per failed operation.  vkrew is always
reached through module attributes at call time, so a rebound name (a
traced wrapper, or a deliberately wrong step in a test) is the one used.
"""

from __future__ import annotations

import importlib
import json
import traceback
from dataclasses import dataclass
from math import lcm
from typing import Callable

from vkrew.poset import make_v, product_with_chain

import oracle

# The package re-exports a function named ``rowmotion`` over its module.
pstrict = importlib.import_module("vkrew.pstrict")
rowmotion = importlib.import_module("vkrew.rowmotion")
verify = importlib.import_module("vkrew.verify")

SAMPLE = 32  # seeded elements per grid point stepped q times by hand

PSTRICT_POINTS = ((3, 7), (2, 9))  # (ell, q): labelings of V x [ell] in [q]
PARTITION_POINT = (3, 7)  # (ell, q): partitions of V x [q - 2]
LABELING_POINT = (3, 7)   # (ell, q): sampled for verify-all's Pro^q check

# Every claim of ``run_suite("all")`` at its default grids, in report
# order: (suite, id, params).
VERIFY_ALL_CLAIMS = [
    ("classical", "classical-count-formula", {"n_max": 4}),
    ("classical", "classical-order-6n", {"n_max": 3}),
    ("classical", "classical-pro-3n-swaps-bc", {"n_max": 3}),
    ("classical", "kreweras-orbits-match-linext", {"n_max": 3}),
    ("classical", "kreweras-intertwines", {"n_max": 3}),
    ("classical", "kreweras-roundtrip", {"n_max": 3}),
    ("main", "pstrict-order-divides-2q", {"ell_max": 3, "q_max": 7, "sum_max": 10}),
    ("main", "pstrict-pro-q-is-bc-swap", {"ell_max": 3, "q_max": 7, "sum_max": 10}),
    ("layers", "content-rotation", {"ell_max": 2, "q_max": 6}),
    ("doublearcs", "double-arc-count-invariant", {"ell_max": 2, "q_max": 6}),
    ("doublearcs", "double-arc-rotation", {"ell_max": 2, "q_max": 6}),
    ("doublearcs", "double-arc-deletion-commutes", {"ell_max": 2, "q_max": 6}),
    ("doublearcs", "shortest-arc-shift", {"ell_max": 2, "q_max": 6}),
    ("standardization", "std-pro-commutation", {"ell_max": 2, "q_max": 6}),
    ("standardization", "std-valid-kreweras", {"ell_max": 2, "q_max": 6}),
    ("standardization", "destandardize-roundtrip", {"ell_max": 2, "q_max": 6}),
    ("standardization", "std-order-unique", {"ell_max": 2, "q_max": 6}),
    ("standardization", "word-pro-q-is-bc-swap", {"ell_max": 2, "q_max": 6}),
    ("rowmotion", "row-order-divides", {"ell_max": 3, "k_max": 3}),
    ("rowmotion", "row-order-exact-ell1", {"k_max": 3}),
    ("rowmotion", "row-q-is-flip", {"ell_max": 2, "q_max": 6}),
    ("rowmotion", "row-extension-independent", {}),
    ("equivariance", "orbit-multisets-agree", {"ell_max": 2, "q_max": 6}),
    ("equivariance", "togpro-q-is-flip", {"ell_max": 2, "q_max": 6}),
    ("figures", "figure-promotion-pair", {}),
    ("figures", "figure-kreweras-pair", {}),
    ("figures", "figure-bump-arcs", {}),
    ("figures", "figure-word-labeling", {}),
    ("figures", "figure-layers", {}),
    ("figures", "figure-promoted-layers", {}),
    ("figures", "figure-promoted-word", {}),
    ("figures", "figure-double-arcs", {}),
    ("figures", "figure-standardization", {}),
]
SUITE_OF = {cid: suite for suite, cid, _ in VERIFY_ALL_CLAIMS}
SUITES = tuple(dict.fromkeys(SUITE_OF.values()))

# Claims whose (ell, q) grid is read on partitions of V x [q - 2] instead
# of, or as well as, on labelings (words are labelings under the bijection).
_PARTITION_CLAIMS = {"row-q-is-flip": ("partitions",),
                     "togpro-q-is-flip": ("partitions",),
                     "orbit-multisets-agree": ("labelings", "partitions")}


@dataclass
class Operation:
    """``size`` operations made by one call into vkrew."""

    name: str
    size: int
    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    name: str
    operations: list[Operation]
    objects: int  # distinct objects per round, counted by the oracle


def attempt(op: Operation, tracer=None) -> list[str]:
    """Run one operation (tracing only its call) and return its errors.
    An exception fails every operation the call stands for."""
    try:
        if tracer is None:
            result = op.call()
        else:
            with tracer:
                result = op.call()
        return op.check(result)
    except Exception:
        return [f"{op.name}: {traceback.format_exc(limit=-3)}"] * op.size


def _orbit_errors(data: dict, count: int, q: int) -> list[str]:
    sizes = data["orbit_sizes"]
    errors = []
    if data["count"] != count or sum(sizes) != count:
        errors.append(f"count {data['count']} (orbit sizes sum to "
                      f"{sum(sizes)}), oracle counts {count}")
    bad = sorted({s for s in sizes if (2 * q) % s})
    if bad:
        errors.append(f"orbit sizes {bad} do not divide 2q = {2 * q}")
    if data["order"] != 2 * q or lcm(*sizes) != 2 * q:
        errors.append(f"order {data['order']} (lcm {lcm(*sizes)}) != 2q = {2 * q}")
    failed = sorted(k for k, ok in data["checks"].items() if not ok)
    if failed:
        errors.append(f"vkrew's own checks failed: {failed}")
    return errors


def _labeling_sample_errors(ell: int, q: int, chosen) -> list[str]:
    """Pro^q of each sampled labeling, by calling ``promote_pstrict`` q
    times, must be the oracle's B/C swap."""
    rf = pstrict.restriction_rq(make_v(), q)
    for fibers in chosen:
        f = pstrict.PStrictLabeling(rf, ell, fibers)
        for _ in range(q):
            f = pstrict.promote_pstrict(f)
        if f.fibers != oracle.swap_fibers(fibers):
            return [f"Pro^{q} of {fibers} is {f.fibers}, not the B/C swap"]
    return []


def _partition_sample_errors(action: str, ell: int, q: int,
                             chosen) -> list[str]:
    """row^q or togpro^q of each sampled partition of V x [q-2], by calling
    the step q times, must be the oracle's B/C flip."""
    k = q - 2
    poset = product_with_chain(make_v(), k)
    for values in chosen:
        f = rowmotion.PPartition(poset, ell, values)
        for _ in range(q):
            f = (rowmotion.rowmotion(f) if action == "row"
                 else rowmotion.togpro(f, q))
        if f.values != oracle.flip_values(values, k):
            return [f"{action}^{q} of {values} is {f.values}, not the B/C flip"]
    return []


def orbit_reports(name: str, reports, seed: int,
                  sample: int = SAMPLE) -> Workload:
    """One operation per (action, ell, q): ``orbit_report_for_action``.
    Labelings of V x [ell] in [q] for "pro-pstrict"; partitions of
    V x [q-2] bounded by ell for "row" and "togpro"."""
    ops = []
    points = set()
    sizes_seen: dict = {}
    for action, ell, q in reports:
        if action == "pro-pstrict":
            count = oracle.count_labelings(ell, q)
            chosen = oracle.sample_labelings(ell, q, min(sample, count), seed)
            points.add(("labelings", ell, q))
        else:
            count = oracle.count_partitions(ell, q - 2)
            chosen = oracle.sample_partitions(ell, q - 2, min(sample, count),
                                              seed)
            points.add(("partitions", ell, q - 2))
        ops.append(_orbit_op(action, ell, q, count, chosen, sizes_seen))
    return Workload(name, ops, count_objects(points))


def _orbit_op(action: str, ell: int, q: int, count: int, chosen,
              sizes_seen: dict) -> Operation:
    name = f"orbits {action} ell={ell} q={q}"
    point = (ell, q)

    def call():
        sizes_seen.pop((action, point), None)
        return verify.report_to_json_text(
            verify.orbit_report_for_action(action, ell, q))

    def check(text):
        data = json.loads(text)
        errors = _orbit_errors(data, count, q)
        if action == "pro-pstrict":
            errors += _labeling_sample_errors(ell, q, chosen)
        else:
            errors += _partition_sample_errors(action, ell, q, chosen)
        sizes_seen[(action, point)] = data["orbit_sizes"]
        if action == "togpro" and sizes_seen.get(("row", point)) \
                != data["orbit_sizes"]:
            errors.append("row and togpro orbit-size multisets differ")
        return [f"{name}: {'; '.join(errors)}"] if errors else []

    return Operation(name, 1, call, check)


def pstrict_orbits(seed: int) -> Workload:
    return orbit_reports("pstrict-orbits",
                         [("pro-pstrict", ell, q) for ell, q in PSTRICT_POINTS],
                         seed)


def partition_orbits(seed: int) -> Workload:
    return orbit_reports("partition-orbits",
                         [("row", *PARTITION_POINT),
                          ("togpro", *PARTITION_POINT)], seed)


def claim_grid(cid: str, params: dict) -> set[tuple]:
    """The (family, size parameters) points a claim's params name."""
    if "n_max" in params:
        return {("extensions", n) for n in range(1, params["n_max"] + 1)}
    if "k_max" in params:
        return {("partitions", ell, k)
                for ell in range(1, params.get("ell_max", 1) + 1)
                for k in range(1, params["k_max"] + 1)}
    if "q_max" in params:
        sum_max = params.get("sum_max")
        points = [(ell, q) for ell in range(1, params["ell_max"] + 1)
                  for q in range(3, params["q_max"] + 1)
                  if sum_max is None or ell + q <= sum_max]
        out = set()
        for family in _PARTITION_CLAIMS.get(cid, ("labelings",)):
            shift = 2 if family == "partitions" else 0
            out |= {(family, ell, q - shift) for ell, q in points}
        return out
    return set()


def count_objects(points: set[tuple]) -> int:
    counters = {"extensions": oracle.count_extensions,
                "labelings": oracle.count_labelings,
                "partitions": oracle.count_partitions}
    return sum(counters[family](*sizes) for family, *sizes in points)


def verify_all(seed: int, suite: str = "all") -> Workload:
    """``run_suite(suite)``: every claim must come back passing, in the
    documented order and with the documented params.  The inputs are the
    default grids.  The seed picks the labelings at LABELING_POINT on
    which the benchmark also checks the claim ``pstrict-pro-q-is-bc-swap``
    itself."""
    expected = [(cid, params) for s, cid, params in VERIFY_ALL_CLAIMS
                if suite in ("all", s)]
    ell, q = LABELING_POINT
    chosen = oracle.sample_labelings(ell, q, SAMPLE, seed)

    def call():
        return verify.report_to_json_text(verify.run_suite(suite))

    def check(text):
        claims = json.loads(text)["claims"]
        errors = []
        for i, (cid, params) in enumerate(expected):
            if i >= len(claims):
                errors.append(f"claim {cid} missing from the report")
                continue
            got = claims[i]
            if got["id"] != cid or got["params"] != params:
                errors.append(f"claim {i + 1} is {got['id']} {got['params']}, "
                              f"expected {cid} {params}")
            elif not got["pass"]:
                errors.append(f"claim {cid} failed: {got['counterexample']}")
            elif cid == "pstrict-pro-q-is-bc-swap":
                errors += [f"claim {cid}: {e}"
                           for e in _labeling_sample_errors(ell, q, chosen)]
        errors += [f"claim {c['id']} is not documented"
                   for c in claims[len(expected):]]
        return errors

    points = set().union(*(claim_grid(cid, params) for cid, params in expected))
    return Workload("verify-all", [Operation(f"run_suite {suite}",
                                             len(expected), call, check)],
                    count_objects(points))


WORKLOADS = {"pstrict-orbits": pstrict_orbits,
             "partition-orbits": partition_orbits, "verify-all": verify_all}
