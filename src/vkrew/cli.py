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
from .poset import linear_extensions, make_v, product_with_chain
from .pstrict import enumerate_labelings
from .render import render_diagram
from .rowmotion import enumerate_ppartitions
from .verify import DEFAULT_CEILING, SUITE_NAMES, CeilingExceeded, \
    export_report, orbit_report_for_action, report_from_json, \
    report_to_csv_text, report_to_json_text, run_suite
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

    p = sub.add_parser("orbits", help="orbit decomposition of one action")
    p.add_argument("--action", required=True,
                   choices=["pro-linext", "pro-pstrict", "pro-kreweras",
                            "row", "togpro"])
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


def _require(parser, condition, message):
    if not condition:
        parser.error(message)  # exits with code 2


def _cmd_enumerate(args, parser) -> int:
    if args.object == "linext":
        _require(parser, args.k is not None or args.ell is not None,
                 "linext needs --k (layers of V x [k])")
        n = args.k if args.k is not None else args.ell
        items = (json.dumps({"n": n, "word": to_kreweras(e).letters,
                             "labels": list(e.labels)})
                 for e in linear_extensions(product_with_chain(make_v(), n)))
    elif args.object == "labelings":
        _require(parser, args.ell is not None and args.q is not None,
                 "labelings need --ell and --q")
        items = (json.dumps(f.to_json())
                 for f in enumerate_labelings(args.ell, args.q))
    elif args.object == "words":
        _require(parser, args.ell is not None and args.q is not None,
                 "words need --ell and --q")
        items = (json.dumps(w.to_json())
                 for w in enumerate_words(args.ell, args.q))
    else:
        _require(parser, args.ell is not None and args.k is not None,
                 "ppartitions need --ell and --k")
        poset = product_with_chain(make_v(), args.k)
        items = (json.dumps(f.to_json())
                 for f in enumerate_ppartitions(poset, args.ell))
    count = 0
    for line in items:
        print(line)
        count += 1
        if args.limit is not None and count >= args.limit:
            break
    return 0


def _cmd_orbits(args, parser) -> int:
    if args.action in ("pro-pstrict", "row", "togpro"):
        _require(parser, args.q is not None, f"{args.action} needs --q")
    report = orbit_report_for_action(args.action, args.ell, args.q,
                                     ceiling=args.ceiling)
    sys.stdout.write(report_to_json_text(report))
    return 0 if report.all_checks_pass else 1


def _cmd_verify(args, parser) -> int:
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
    except (TypeError, IndexError) as exc:
        raise ValueError(f"input JSON has the wrong shape: {exc}") from None


def _word_from_json(data: dict):
    if "blocks" in data:
        return PartialMultiKrewerasWord.from_json(data)
    if "letters" in data:
        return KrewerasWord(data["letters"])
    if "word" in data:
        return PartialMultiKrewerasWord.from_text(data["word"])
    raise ValueError("input JSON needs 'blocks', 'letters', or 'word'")


def _cmd_render(args, parser) -> int:
    obj = _from_json(_word_from_json, _read_json_object(args.input))
    sys.stdout.write(render_diagram(obj, args.format))
    return 0


def _cmd_export(args, parser) -> int:
    report = _from_json(report_from_json, _read_json_object(args.input))
    if args.format == "csv":
        text = report_to_csv_text(report)
    else:
        text = report_to_json_text(report)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"enumerate": _cmd_enumerate, "orbits": _cmd_orbits,
                "verify": _cmd_verify, "render": _cmd_render,
                "export": _cmd_export}
    try:
        return commands[args.command](args, parser)
    except CeilingExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
