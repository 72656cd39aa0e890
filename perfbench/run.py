"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload partition-orbits --seed 1 \
        --seconds 38 --trace 0

The workload runs in this process, one call at a time (a closed loop with
one client), in whole rounds for as long as another round as long as the
last one still ends within ``--seconds``; at least one round always runs.
``--trace 0`` prints the end-to-end metrics, with times in seconds at a
fixed processor speed (see ``speed.py``).  ``--trace 1`` runs untraced
rounds for the first half of the time and traced rounds for the second,
and prints the per-layer metrics of one traced round plus the tracing
overhead.  The last line of standard output is the result.  A copy of
it, and the spans of a traced run, are written to ``perfbench/out/``.  vkrew is imported from ``src/`` of the checkout
this file sits in and from nowhere else; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pstrict-orbits", "partition-orbits",
                                 "verify-all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vkrew" / "__init__.py").is_file():
        print(f"error: no vkrew sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import vkrew
    if Path(vkrew.__file__).resolve().parent != SRC / "vkrew":
        print(f"error: vkrew was imported from {vkrew.__file__}",
              file=sys.stderr)
        return 2
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    result, tr = harness.measure(workload, args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1))
    if tr is not None:
        spans = [dict(zip(("id", "name", "start", "end", "parent"), span))
                 for span in tr.spans]
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
