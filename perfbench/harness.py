"""Rounds, timing and metrics of one benchmark run."""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import IMPORT_REFERENCE_S, Speedometer
from tracer import COUNTED, TIMED, Tracer
from workloads import SUITES, SUITE_OF, attempt

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_STARTS = 11
SETUP_REFERENCES = 3  # import references timed before and after the imports

# A fresh interpreter doing every import an untraced run needs, between
# two sets of import references; it prints the reference times.
SETUP_CODE = "\n".join([
    f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]",
    f"import speed; took = speed.time_import_reference({SETUP_REFERENCES})",
    "import vkrew, harness",
    f"print(*took, *speed.time_import_reference({SETUP_REFERENCES}))",
])

END_TO_END = {"scaled_wall_s": "s", "scaled_objects_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "poset.index.calls": "count", "poset.covers.calls": "count",
    "pstrict.enumerate.s": "s", "pstrict.labelings_built": "count",
    "pstrict.construct.s": "s", "pstrict.promote.calls": "count",
    "pstrict.promote.s": "s", "pstrict.promote.us_per_call": "us",
    "pstrict.tau.calls": "count", "pstrict.tau.self_s": "s",
    "rowmotion.enumerate.s": "s", "rowmotion.partitions_built": "count",
    "rowmotion.construct.s": "s", "rowmotion.row.calls": "count",
    "rowmotion.row.us_per_call": "us", "rowmotion.togpro.calls": "count",
    "rowmotion.togpro.us_per_call": "us",
    "rowmotion.automorphism.calls": "count", "rowmotion.automorphism.s": "s",
    "orbits.cycles.calls": "count", "orbits.cycles.self_s": "s",
    "orbits.power_map.calls": "count", "orbits.power_map.s": "s",
    "orbits.steps_per_object": "steps/object",
    "words.word_of_labeling.calls": "count", "words.word_of_labeling.s": "s",
    "words.labeling_of_word.s": "s", "words.promote_word.calls": "count",
    "words.promote_word.self_s": "s", "words.layer_decomposition.s": "s",
    "words.bump_diagram.s": "s", "words.double_arcs.s": "s",
    "words.standardize.s": "s",
    "kreweras.promote.calls": "count", "kreweras.promote.s": "s",
    **{f"verify.suite.{suite}.s": "s" for suite in SUITES},
    "verify.claims": "count", "verify.orbit_report.s": "s",
    "verify.report.s": "s", "trace.overhead_s": "s",
}

# Calls that step one object once under one of the actions.
STEP_NAMES = ("pstrict.promote", "rowmotion.row", "rowmotion.togpro",
              "kreweras.promote")


def measure_setup(starts: int = SETUP_STARTS) -> float:
    """Median time of fresh interpreters that only import, in seconds at
    the reference speed: each start's wall time, less its import
    references, over their median time and times ``IMPORT_REFERENCE_S``."""
    times = []
    for _ in range(starts):
        began = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                             capture_output=True, text=True).stdout
        wall = time.perf_counter() - began
        took = [float(t) for t in out.split()]
        times.append((wall - sum(took)) / statistics.median(took)
                     * IMPORT_REFERENCE_S)
    return statistics.median(times)


def run_rounds(workload, seconds: float, tracers=(None,)):
    """Whole rounds for as long as another round as long as the last one
    still ends within ``seconds``, and at least one round per tracer.
    Round i is traced by ``tracers[i % len(tracers)]`` (None: untraced).
    Returns each round's start and end (``time.perf_counter()``), the
    operations attempted and failed, and the errors."""
    rounds, attempted, failed, errors = [], 0, 0, []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = tracers[len(rounds) % len(tracers)]
        began = time.perf_counter()
        for op in workload.operations:
            op_errors = attempt(op, tracer)
            attempted += op.size
            failed += min(op.size, len(op_errors))
            errors += op_errors
        ended = time.perf_counter()
        rounds.append((began, ended))
        if len(rounds) >= len(tracers) and ended + (ended - began) > deadline:
            return rounds, attempted, failed, errors


def layer_metrics(counter: Tracer, counted_rounds: int, tr: Tracer,
                  rounds: int, objects: int) -> dict[str, float]:
    """Per-layer figures of one round: the counted names from ``counter``,
    everything else from the timing tracer ``tr``."""
    def calls(name):
        return tr.calls.get(name, 0) / rounds

    def seconds(name):
        return tr.total.get(name, 0.0) / rounds

    def us_per_call(name):
        n = tr.calls.get(name, 0)
        return tr.total.get(name, 0.0) / n * 1e6 if n else 0.0

    suite_s = dict.fromkeys(SUITES, 0.0)
    for cid, took in tr.claims:
        if cid in SUITE_OF:  # an unknown claim already fails the check
            suite_s[SUITE_OF[cid]] += took
    steps = sum(tr.calls.get(name, 0) for name in STEP_NAMES)
    return {
        "poset.index.calls": counter.calls["poset.index"] / counted_rounds,
        "poset.covers.calls": counter.calls["poset.covers"] / counted_rounds,
        "pstrict.enumerate.s": seconds("pstrict.enumerate"),
        "pstrict.labelings_built": calls("pstrict.construct"),
        "pstrict.construct.s": seconds("pstrict.construct"),
        "pstrict.promote.calls": calls("pstrict.promote"),
        "pstrict.promote.s": seconds("pstrict.promote"),
        "pstrict.promote.us_per_call": us_per_call("pstrict.promote"),
        "pstrict.tau.calls": calls("pstrict.tau"),
        "pstrict.tau.self_s": tr.self_s.get("pstrict.tau", 0.0) / rounds,
        "rowmotion.enumerate.s": seconds("rowmotion.enumerate"),
        "rowmotion.partitions_built": calls("rowmotion.construct"),
        "rowmotion.construct.s": seconds("rowmotion.construct"),
        "rowmotion.row.calls": calls("rowmotion.row"),
        "rowmotion.row.us_per_call": us_per_call("rowmotion.row"),
        "rowmotion.togpro.calls": calls("rowmotion.togpro"),
        "rowmotion.togpro.us_per_call": us_per_call("rowmotion.togpro"),
        "rowmotion.automorphism.calls": calls("rowmotion.automorphism"),
        "rowmotion.automorphism.s": seconds("rowmotion.automorphism"),
        "orbits.cycles.calls": calls("orbits.cycles"),
        "orbits.cycles.self_s": tr.self_s.get("orbits.cycles", 0.0) / rounds,
        "orbits.power_map.calls": calls("orbits.power_map"),
        "orbits.power_map.s": seconds("orbits.power_map"),
        "orbits.steps_per_object": steps / rounds / objects if objects else 0.0,
        "words.word_of_labeling.calls": calls("words.word_of_labeling"),
        "words.word_of_labeling.s": seconds("words.word_of_labeling"),
        "words.labeling_of_word.s": seconds("words.labeling_of_word"),
        "words.promote_word.calls": calls("words.promote_word"),
        "words.promote_word.self_s":
            tr.self_s.get("words.promote_word", 0.0) / rounds,
        "words.layer_decomposition.s": seconds("words.layer_decomposition"),
        "words.bump_diagram.s": seconds("words.bump_diagram"),
        "words.double_arcs.s": seconds("words.double_arcs"),
        "words.standardize.s": seconds("words.standardize"),
        "kreweras.promote.calls": calls("kreweras.promote"),
        "kreweras.promote.s": seconds("kreweras.promote"),
        **{f"verify.suite.{s}.s": t / rounds for s, t in suite_s.items()},
        "verify.claims": len(tr.claims) / rounds,
        "verify.orbit_report.s": seconds("verify.orbit_report"),
        "verify.report.s": seconds("verify.report"),
    }


def measure(workload, seconds: float, trace: bool,
            setup_starts: int = SETUP_STARTS):
    """The result object of one run, and the timing tracer of a traced run.

    Untraced: the end-to-end metrics.  ``scaled_wall_s`` is the median
    round, in seconds at the reference speed (see ``speed.py``), and
    ``setup_s`` the median of fresh starts, scaled the same way.

    Traced: untraced rounds for the first half of ``seconds``, then
    counting and timing rounds in turn for the second.  The per-layer
    metrics are per round, and ``trace.overhead_s`` is the fastest timing
    round minus the fastest untraced round, in wall seconds."""
    if not trace:
        setup_s = measure_setup(setup_starts)
        with Speedometer() as meter:
            rounds, attempted, failed, errors = run_rounds(workload, seconds)
        scaled = [meter.scaled(began, ended) for began, ended in rounds]
        wall_s = statistics.median(scaled)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"scaled_wall_s": wall_s,
                  "scaled_objects_per_s": workload.objects / wall_s,
                  "setup_s": setup_s, "peak_rss_mb": rss_kb / 1024}
        units, tr = END_TO_END, None
        print(f"scaled rounds: {json.dumps(scaled)}", file=sys.stderr)
        print(f"slowdown: {meter.slowdown():.3f}", file=sys.stderr)
    else:
        rounds, attempted, failed, errors = run_rounds(workload, seconds / 2)
        counter, tr = Tracer(COUNTED), Tracer(TIMED)
        traced, t_attempted, t_failed, t_errors = run_rounds(
            workload, seconds / 2, (counter, tr))
        attempted, failed = attempted + t_attempted, failed + t_failed
        errors += t_errors
        values = layer_metrics(counter, len(traced[0::2]), tr,
                               len(traced[1::2]), workload.objects)
        values["trace.overhead_s"] = min(_walls(traced[1::2])) \
            - min(_walls(rounds))
        units = PER_LAYER
        rounds += traced
    print(f"rounds: {json.dumps(_walls(rounds))}", file=sys.stderr)
    for line in errors[:10]:
        print(f"error: {line}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, tr


def _walls(rounds) -> list[float]:
    return [ended - began for began, ended in rounds]
