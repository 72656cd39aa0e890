"""Command-line interface: enumerate objects, decompose orbits, run
verification suites, render diagrams, and convert reports.

Exit codes: 0 when everything passes, 1 when a claim or check fails,
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .kreweras import KrewerasWord, to_kreweras
from .orbits import _json_field
from .poset import linear_extensions, make_v, product_with_chain
from .pstrict import enumerate_labelings
from .render import render_diagram
from .rowmotion import enumerate_ppartitions
from .verify import _ACTIONS, DEFAULT_CEILING, SUITE_NAMES, \
    CeilingExceeded, export_report, orbit_report_for_action, \
    report_from_json, report_to_json_text, run_suite
from .words import PartialMultiKrewerasWord, enumerate_words

USAGE_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vkrew",
        description="Promotion and rowmotion dynamics on V-shaped posets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list objects as JSON lines")
    p.add_argument("--object", required=True,
                   choices=["linext", "labelings", "words", "ppartitions"])
    p.add_argument("--ell", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--limit", type=int, help="stop after this many items")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)

    p = sub.add_parser("orbits", help="orbit decomposition of one action")
    p.add_argument("--action", required=True,
                   choices=list(_ACTIONS))
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--ell-max", type=int)
    p.add_argument("--q-max", type=int)
    p.add_argument("--sum-max", type=int)
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p.add_argument("--out", help="also write the report JSON to this path")

    p = sub.add_parser("render", help="draw a word's bump diagram")
    p.add_argument("--input", required=True,
                   help="JSON file with blocks or letters; '-' for stdin")
    p.add_argument("--format", required=True, choices=["ascii", "svg"])

    p = sub.add_parser("export", help="convert a report to JSON or CSV")
    p.add_argument("--input", default="-",
                   help="report JSON file; '-' (default) for stdin")
    p.add_argument("--out", required=True)
    p.add_argument("--format", required=True, choices=["json", "csv"])
    return parser


# The one size flag each object does not read (linext reads --ell as --k).
_UNREAD_FLAG = {"linext": "q", "labelings": "k", "words": "k",
                "ppartitions": "q"}


def _at_least(args, flag: str, least: int = 1) -> int:
    """The value of ``--flag``, which is named if below ``least``."""
    value = getattr(args, flag)
    if value < least:
        raise ValueError(f"--{flag} must be >= {least}, got {value}")
    return value


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")
    unread = _UNREAD_FLAG[args.object]
    if getattr(args, unread) is not None:
        raise ValueError(f"enumerate --object {args.object} does not read "
                         f"--{unread}")
    if args.object == "linext":
        if args.k is None and args.ell is None:
            raise ValueError("linext needs --k (layers of V x [k])")
        if None not in (args.k, args.ell) and args.k != args.ell:
            raise ValueError(f"linext reads --ell as --k; got --ell "
                             f"{args.ell} and --k {args.k}")
        n = _at_least(args, "k" if args.k is not None else "ell")
        items = (json.dumps({"n": n, "word": to_kreweras(e).letters,
                             "labels": list(e.labels)})
                 for e in linear_extensions(product_with_chain(make_v(), n)))
    elif args.object == "labelings":
        if None in (args.ell, args.q):
            raise ValueError("labelings need --ell and --q")
        items = (json.dumps(f.to_json()) for f in enumerate_labelings(
            _at_least(args, "ell"), _at_least(args, "q", 3)))
    elif args.object == "words":
        if None in (args.ell, args.q):
            raise ValueError("words need --ell and --q")
        items = (json.dumps(w.to_json()) for w in enumerate_words(
            _at_least(args, "ell"), _at_least(args, "q", 3)))
    else:
        if None in (args.ell, args.k):
            raise ValueError("ppartitions need --ell and --k")
        poset = product_with_chain(make_v(), _at_least(args, "k"))
        items = (json.dumps(f.to_json()) for f in enumerate_ppartitions(
            poset, _at_least(args, "ell", 0)))
    count = 0
    for line in items:
        count += 1
        if count > args.ceiling:
            raise CeilingExceeded(f"{args.object} exceed the ceiling of "
                                  f"{args.ceiling} elements")
        print(line)
        if args.limit is not None and count >= args.limit:
            break
    return 0


def _cmd_orbits(args) -> int:
    report = orbit_report_for_action(args.action, args.ell, args.q,
                                     ceiling=args.ceiling)
    sys.stdout.write(report_to_json_text(report))
    return 0 if report.all_checks_pass else 1


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, ell_max=args.ell_max, q_max=args.q_max,
                       sum_max=args.sum_max, ceiling=args.ceiling)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    sys.stdout.write(report_to_json_text(report))
    if args.out:
        export_report(report, args.out, "json")
    return 0 if report.passed else 1


def _read_json_object(path: str) -> dict:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(
            f"input JSON must be an object, not {type(data).__name__}")
    return data


def _from_json(build, data: dict):
    """``build(data)``, reporting JSON of the wrong shape as a ValueError."""
    try:
        return build(data)
    except KeyError as exc:
        raise ValueError(f"input JSON lacks the key {exc}") from None
    except (TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"input JSON has the wrong shape: {exc}") from None


def _word_from_json(data: dict):
    named = [key for key in ("blocks", "letters", "word") if key in data]
    if len(named) != 1:
        raise ValueError(f"input JSON names {len(named)} of 'blocks', "
                         "'letters' and 'word'; it needs exactly one")
    if "blocks" in data:
        return PartialMultiKrewerasWord.from_json(data)
    if "letters" in data:
        return KrewerasWord(_json_field(data, "letters", str))
    return PartialMultiKrewerasWord.from_text(_json_field(data, "word", str))


def _cmd_render(args) -> int:
    obj = _from_json(_word_from_json, _read_json_object(args.input))
    sys.stdout.write(render_diagram(obj, args.format))
    return 0


def _cmd_export(args) -> int:
    report = _from_json(report_from_json, _read_json_object(args.input))
    export_report(report, args.out, args.format)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"enumerate": _cmd_enumerate, "orbits": _cmd_orbits,
                "verify": _cmd_verify, "render": _cmd_render,
                "export": _cmd_export}
    try:
        if getattr(args, "ceiling", 1) < 1:
            raise ValueError(f"--ceiling must be >= 1, got {args.ceiling}")
        return commands[args.command](args)
    except (CeilingExceeded, RecursionError, ValueError, OSError) as exc:
        # RecursionError: JSON nested too deep to read
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
