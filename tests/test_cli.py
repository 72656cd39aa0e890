import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vkrew import cli
from vkrew.verify import SUITE_NAMES, ClaimResult, VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_figures(capsys):
    code, out, err = run(capsys, "verify", "--suite", "figures")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "figures"
    assert all(c["pass"] for c in report["claims"])
    assert "[PASS]" in err


def test_verify_writes_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "figures",
                       "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["suite"] == "figures"


def test_verify_failure_exit_code(capsys, monkeypatch):
    failed = VerificationReport("stub", [ClaimResult("c", {}, False, {})], 1)
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: failed)
    code, out, err = run(capsys, "verify", "--suite", "figures")
    assert code == 1
    assert "[FAIL]" in err


def test_orbits_json_schema(capsys):
    code, out, _ = run(capsys, "orbits", "--action", "pro-pstrict",
                       "--ell", "1", "--q", "3")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"action", "params", "count", "orbit_sizes",
                           "order", "checks"}
    assert report["orbit_sizes"] == [3, 2]
    assert report["order"] == 6


def test_orbits_failed_check_exit_code(capsys):
    # the n=1 order degenerates to 2, so the 6n check reports false
    code, out, _ = run(capsys, "orbits", "--action", "pro-linext",
                       "--ell", "1")
    assert code == 1
    assert json.loads(out)["checks"]["order_equals_6n"] is False


def test_enumerate_labelings(capsys):
    code, out, _ = run(capsys, "enumerate", "--object", "labelings",
                       "--ell", "1", "--q", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 5
    assert rows[0]["fibers"] == {"A": [1], "B": [2], "C": [2]}


def test_enumerate_words_with_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--object", "words",
                       "--ell", "2", "--q", "3", "--limit", "3")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_enumerate_ppartitions(capsys):
    code, out, _ = run(capsys, "enumerate", "--object", "ppartitions",
                       "--ell", "1", "--k", "1")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_enumerate_linext(capsys):
    code, out, _ = run(capsys, "enumerate", "--object", "linext", "--k", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["word"] for r in rows] == ["ABC", "ACB"]


def test_enumerate_linext_accepts_ell_alias(capsys):
    code, out, _ = run(capsys, "enumerate", "--object", "linext", "--ell", "2")
    assert code == 0
    assert len(out.splitlines()) == 16


def test_enumerate_ceiling_exit_2(capsys):
    # V x [1] with labels in 1..4 has 14 labelings
    code, out, err = run(capsys, "enumerate", "--object", "labelings",
                         "--ell", "1", "--q", "4", "--ceiling", "10")
    assert code == 2
    assert len(out.splitlines()) == 10
    assert err == "error: labelings exceed the ceiling of 10 elements\n"


def test_enumerate_limit_below_ceiling_exit_0(capsys):
    code, out, err = run(capsys, "enumerate", "--object", "labelings",
                         "--ell", "1", "--q", "4", "--ceiling", "10",
                         "--limit", "10")
    assert code == 0
    assert len(out.splitlines()) == 10
    assert err == ""


def test_enumerate_missing_flags_exit_2(capsys):
    # one error line, as for every other usage error: no argparse usage
    for argv, message in [
            (("linext",), "linext needs --k (layers of V x [k])"),
            (("labelings", "--ell", "1"), "labelings need --ell and --q"),
            (("words", "--q", "3"), "words need --ell and --q"),
            (("ppartitions", "--ell", "1"), "ppartitions need --ell and --k")]:
        code, out, err = run(capsys, "enumerate", "--object", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("action", ["pro-pstrict", "row", "togpro"])
def test_orbits_missing_q_exit_2(capsys, action):
    code, out, err = run(capsys, "orbits", "--action", action, "--ell", "1")
    assert (code, out, err) == (2, "", f"error: {action} needs q\n")


def test_unknown_suite_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_ceiling_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "main", "--ell-max", "1",
                       "--q-max", "3", "--ceiling", "2")
    assert code == 2
    assert "ceiling" in err


def test_render_word_file(capsys, tmp_path):
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"word": "A|B|C"}))
    code, out, _ = run(capsys, "render", "--input", str(path),
                       "--format", "ascii")
    assert code == 0
    assert "B 1->2" in out


def test_render_blocks_json(capsys, tmp_path):
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"ell": 1, "q": 3,
                                "blocks": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    code, out, _ = run(capsys, "render", "--input", str(path),
                       "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")


def test_render_letters_json(capsys, tmp_path):
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"letters": "ABC"}))
    code, out, _ = run(capsys, "render", "--input", str(path),
                       "--format", "ascii")
    assert code == 0


@pytest.mark.parametrize("payload,named", [
    ({"word": "A|BC", "letters": "ABC"}, 2),
    ({"blocks": [[1, 0, 0], [0, 1, 1]], "ell": 1, "q": 2, "word": "A|BC"}, 2),
    ({"ell": 1, "q": 3}, 0),
])
def test_render_needs_exactly_one_word_key(capsys, tmp_path, payload, named):
    # input naming two forms of a word is refused, not read by a
    # preference among them
    path = tmp_path / "word.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "render", "--input", str(path),
                         "--format", "ascii")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"names {named} of" in err


def test_render_invalid_word_exit_2(capsys, tmp_path):
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"letters": "BAC"}))
    code, _, err = run(capsys, "render", "--input", str(path),
                       "--format", "ascii")
    assert code == 2
    assert "error" in err


BLOCKS_WORD = {"ell": 1, "q": 3, "blocks": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


@pytest.mark.parametrize("payload,key", [
    # each draws A|B|C if read loosely: a bool equals 1, 3.0 equals 3, and
    # a list of letters passes the checks a string does
    ({**BLOCKS_WORD, "ell": True}, "ell"),
    ({**BLOCKS_WORD, "q": 3.0}, "q"),
    ({**BLOCKS_WORD, "blocks": [[1, 0, 0], [0, True, 0], [0, 0, 1]]},
     "blocks"),
    ({**BLOCKS_WORD, "blocks": [[1, 0, 0], [0, 1, 0], "C"]}, "blocks"),
    ({"letters": ["A", "B", "C"]}, "letters"),
    ({"word": ["A", "|", "B", "|", "C"]}, "word"),
])
def test_render_names_the_mistyped_key(capsys, tmp_path, payload, key):
    path = tmp_path / "word.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "render", "--input", str(path),
                         "--format", "ascii")
    assert (code, out) == (2, "")
    assert err == f"error: {key!r} has the wrong JSON type\n"


def test_export_roundtrip(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    run(capsys, "verify", "--suite", "figures", "--out", str(report_path))
    out_csv = tmp_path / "report.csv"
    code, _, _ = run(capsys, "export", "--input", str(report_path),
                     "--out", str(out_csv), "--format", "csv")
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "suite,claim,params,pass,counterexample"

    out_json = tmp_path / "copy.json"
    code, _, _ = run(capsys, "export", "--input", str(report_path),
                     "--out", str(out_json), "--format", "json")
    assert code == 0
    assert json.loads(out_json.read_text()) == json.loads(report_path.read_text())


def test_export_orbit_report(capsys, tmp_path):
    code, out, _ = run(capsys, "orbits", "--action", "row",
                       "--ell", "1", "--q", "3")
    assert code == 0
    report_path = tmp_path / "orbit.json"
    report_path.write_text(out)
    out_csv = tmp_path / "orbit.csv"
    code, _, _ = run(capsys, "export", "--input", str(report_path),
                     "--out", str(out_csv), "--format", "csv")
    assert code == 0
    assert "3;2" in out_csv.read_text()


def test_export_bad_input_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    code, _, err = run(capsys, "export", "--input", str(path),
                       "--out", str(tmp_path / "x.csv"), "--format", "csv")
    assert code == 2


# an empty grid's error, naming the flag, by argv
EMPTY_GRIDS = {
    ("--suite", "main", "--ell-max", "0", "--q-max", "4"):
        "ell_max (--ell-max) must be >= 1, got 0",
    ("--suite", "rowmotion", "--q-max", "2"):
        "q_max (--q-max) must be >= 3, got 2",
    ("--suite", "main", "--q-max", "2"): "q_max (--q-max) must be >= 3, got 2",
    ("--suite", "main", "--sum-max", "3"):
        "sum_max (--sum-max) must be >= 4, got 3",
}


@pytest.mark.parametrize("argv", list(EMPTY_GRIDS))
def test_verify_empty_grid_exit_2(capsys, argv):
    # an explicit bound is never swapped for the default, and a grid with
    # no point in it is refused rather than reported as a pass
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {EMPTY_GRIDS[argv]}\n"


def test_deep_poset_enumerates_ppartitions(capsys):
    # the columns of V x [k] are walked on an explicit stack, so depth is
    # no limit
    code, out, err = run(capsys, "enumerate", "--object", "ppartitions",
                         "--ell", "0", "--k", "400", "--limit", "1")
    assert code == 0
    assert err == ""
    (row,) = map(json.loads, out.splitlines())
    assert (row["k"], row["ell"]) == (400, 0)
    assert len(row["values"]) == 1200 and set(row["values"].values()) == {0}


def test_deep_poset_enumerates_linear_extensions(capsys):
    # extensions share the partitions' explicit-stack walk
    code, out, err = run(capsys, "enumerate", "--object", "linext",
                         "--k", "400", "--limit", "1")
    assert code == 0
    assert err == ""
    (row,) = map(json.loads, out.splitlines())
    assert row["n"] == 400
    # A at 1..400, B at 401..800, C at 801..1200
    assert row["labels"] == list(range(1, 1201))


def test_deep_poset_row_orbits(capsys):
    # rowmotion steps the one partition by column moves, listing no
    # extension of V x [400]
    code, out, err = run(capsys, "orbits", "--action", "row",
                         "--ell", "0", "--q", "402")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 1 and report["orbit_sizes"] == [1]
    assert report["checks"] and all(report["checks"].values())


ORBIT_REPORT = {"action": "a", "params": {}, "count": 2,
                "orbit_sizes": [2], "order": 2, "checks": {"a": True}}
CLAIM = {"id": "x", "params": {}, "pass": True, "counterexample": None}
SUITE_REPORT = {"suite": "s", "duration_ms": 0, "claims": [CLAIM]}
# reports with a field of the wrong JSON type (a bool is no int), and the
# key each error names
MISTYPED = [
    *(({**ORBIT_REPORT, key: value}, key) for key, value in (
        ("checks", [["a", True]]), ("checks", {"a": "no"}),
        ("params", [["ell", 1]]), ("orbit_sizes", [True]), ("count", True),
        ("action", 1), ("order", 2.0), ("counterexamples", []))),
    *(({**SUITE_REPORT, key: value}, key) for key, value in (
        ("duration_ms", "soon"), ("claims", {}), ("claims", [1]),
        ("suite", None))),
    *(({**SUITE_REPORT, "claims": [{**CLAIM, key: value}]}, key)
      for key, value in (("id", 1), ("counterexample", 5), ("params", []),
                         ("pass", 1))),
]


def test_well_typed_reports_export(capsys, tmp_path):
    # the reports the malformed ones below are made from are accepted
    for payload in (ORBIT_REPORT, SUITE_REPORT):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "export", "--input", str(path),
                             "--out", str(tmp_path / "x.json"),
                             "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / "x.json").read_text()) == payload


@pytest.mark.parametrize("command,payload", [
    ("render", 42),
    ("render", {"blocks": [[1, 0, 0]], "q": 1}),
    ("export", 42),
    ("export", {"claims": [{"id": "x"}]}),
    ("export", {"action": "a", "params": {}, "count": 0, "orbit_sizes": [0],
                "order": 0, "checks": {}}),
    ("export", {"action": "a", "params": {}, "count": 0,
                "orbit_sizes": [-1, 1], "order": 1, "checks": {}}),
    ("export", {"suite": "s", "duration_ms": 0, "claims": [
        {"id": "x", "params": {}, "pass": "no", "counterexample": None}]}),
    *(("export", payload) for payload, _ in MISTYPED),
])
def test_wrong_json_shape_exit_2(capsys, tmp_path, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    if command == "render":
        argv = ("render", "--input", str(path), "--format", "ascii")
    else:
        argv = ("export", "--input", str(path),
                "--out", str(tmp_path / "x.csv"), "--format", "csv")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("payload,key", MISTYPED)
def test_export_names_the_mistyped_key(capsys, tmp_path, payload, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "export", "--input", str(path),
                       "--out", str(tmp_path / "x.json"), "--format", "json")
    assert code == 2
    assert repr(key) in err
    assert not (tmp_path / "x.json").exists()


# -- fuzzing every subcommand ------------------------------------------
# Sizes and ceilings are capped so that no example starts a large
# enumeration; --ceiling is always given, since its default is 5,000,000.

SMALL = st.integers(-2, 6)
CEILING = st.integers(-1, 100)
JSON_KEYS = ["blocks", "letters", "word", "ell", "q", "k", "suite", "claims",
             "id", "params", "pass", "counterexample", "duration_ms",
             "action", "count", "orbit_sizes", "order", "checks"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.text("ABC|∅ 0",
                                                               max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=4),
    max_leaves=12)
JSON_TEXT = st.one_of(
    st.dictionaries(st.sampled_from(JSON_KEYS), JSON_VALUES,
                    max_size=6).map(json.dumps),
    JSON_VALUES.map(json.dumps), st.text(max_size=12))


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


@st.composite
def invocations(draw):
    """An argument list, and the text of the --input file it names."""
    command = draw(st.sampled_from(["enumerate", "orbits", "verify",
                                    "render", "export"]))
    argv, text = [command], None
    if command == "enumerate":
        argv += ["--object", draw(st.sampled_from(
            ["linext", "labelings", "words", "ppartitions"]))]
        for flag in ("--ell", "--q", "--k"):
            argv += draw(optional(flag, SMALL))
        argv += draw(optional("--limit", st.integers(-1, 20)))
        argv += ["--ceiling", str(draw(CEILING))]
    elif command == "orbits":
        argv += ["--action", draw(st.sampled_from(
            ["pro-linext", "pro-pstrict", "pro-kreweras", "row", "togpro"]))]
        argv += draw(optional("--ell", SMALL))
        argv += draw(optional("--q", st.integers(-1, 9)))
        argv += ["--ceiling", str(draw(CEILING))]
    elif command == "verify":
        argv += ["--suite", draw(st.sampled_from(SUITE_NAMES + ("all",)))]
        for flag in ("--ell-max", "--q-max", "--sum-max"):
            argv += draw(optional(flag, SMALL))
        argv += ["--ceiling", str(draw(CEILING))]
    else:
        text = draw(JSON_TEXT)
        argv += ["--input", "{input}", "--format", draw(st.sampled_from(
            ["ascii", "svg"] if command == "render" else ["json", "csv"]))]
        if command == "export":
            argv += ["--out", "{out}"]
    return argv, text


@settings(max_examples=200, deadline=None)
@given(invocations())
def test_every_subcommand_keeps_the_exit_code_contract(invocation):
    argv, text = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"input": Path(tmp, "input.json"), "out": Path(tmp, "out")}
        if text is not None:
            paths["input"].write_text(text, encoding="utf-8")
        argv = [a.format(**paths) for a in argv]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv,named", [
    (("orbits", "--action", "pro-linext", "--ell", "2", "--q", "99"), "q=99"),
    (("orbits", "--action", "pro-kreweras", "--ell", "1", "--q", "4"), "q=4"),
    (("enumerate", "--object", "words", "--ell", "1", "--q", "3",
      "--limit", "0"), "--limit"),
    (("enumerate", "--object", "words", "--ell", "1", "--q", "3",
      "--limit", "-1"), "--limit"),
    (("enumerate", "--object", "linext", "--ell", "1", "--k", "2"), "--k 2"),
    (("verify", "--suite", "classical", "--ell-max", "1", "--q-max", "3"),
     "--ell-max"),
    (("verify", "--suite", "figures", "--q-max", "4"), "--q-max"),
    (("verify", "--suite", "rowmotion", "--sum-max", "4"), "--sum-max"),
    (("enumerate", "--object", "labelings", "--ell", "1", "--q", "3",
      "--k", "9"), "--k"),
    (("enumerate", "--object", "words", "--ell", "1", "--q", "3",
      "--k", "2"), "--k"),
    (("enumerate", "--object", "ppartitions", "--ell", "1", "--k", "2",
      "--q", "4"), "--q"),
    (("enumerate", "--object", "linext", "--k", "2", "--q", "6"), "--q"),
])
def test_swapped_or_unread_flag_exit_2(capsys, argv, named):
    # a flag is refused rather than swapped for a default or ignored
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("argv", [
    ("enumerate", "--object", "labelings", "--ell", "1", "--q", "3"),
    ("orbits", "--action", "pro-pstrict", "--ell", "1", "--q", "3"),
    ("verify", "--suite", "figures"),
])
@pytest.mark.parametrize("ceiling", ["0", "-5"])
def test_ceiling_below_one_exit_2(capsys, argv, ceiling):
    code, out, err = run(capsys, *argv, "--ceiling", ceiling)
    assert code == 2
    assert out == ""
    assert err == f"error: --ceiling must be >= 1, got {ceiling}\n"


@pytest.mark.parametrize("argv,message", [
    (("togpro", "--ell", "1", "--q", "2"),
     "togpro needs q >= 3 (partitions of V x [q - 2]), got q=2"),
    (("row", "--ell", "1", "--q", "1"),
     "row needs q >= 3 (partitions of V x [q - 2]), got q=1"),
    (("pro-linext", "--ell", "0"), "pro-linext needs ell >= 1, got 0"),
    (("pro-kreweras", "--ell", "-1"), "pro-kreweras needs ell >= 1, got -1"),
    (("pro-pstrict", "--ell", "0", "--q", "5"),
     "pro-pstrict needs ell >= 1, got 0"),
    (("pro-pstrict", "--ell", "1", "--q", "2"),
     "pro-pstrict needs q >= 3, got q=2"),
    (("row", "--ell", "-1", "--q", "5"), "row needs ell >= 0, got -1"),
    (("togpro", "--ell", "-1", "--q", "5"), "togpro needs ell >= 0, got -1"),
])
def test_orbits_out_of_range_names_the_flag(capsys, argv, message):
    # not the error of an internal chain of length q - 2 or ell
    code, out, err = run(capsys, "orbits", "--action", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (("ppartitions", "--ell", "1", "--k", "0"), "--k must be >= 1, got 0"),
    (("ppartitions", "--ell", "1", "--k", "-2"), "--k must be >= 1, got -2"),
    (("linext", "--k", "0"), "--k must be >= 1, got 0"),
    (("linext", "--ell", "0"), "--ell must be >= 1, got 0"),
    (("labelings", "--ell", "0", "--q", "5"), "--ell must be >= 1, got 0"),
    (("labelings", "--ell", "1", "--q", "2"), "--q must be >= 3, got 2"),
    (("words", "--ell", "0", "--q", "5"), "--ell must be >= 1, got 0"),
    (("words", "--ell", "1", "--q", "2"), "--q must be >= 3, got 2"),
    (("ppartitions", "--ell", "-1", "--k", "2"), "--ell must be >= 0, got -1"),
])
def test_enumerate_out_of_range_names_the_flag(capsys, argv, message):
    # not the error of the internal chain V x [k]
    code, out, err = run(capsys, "enumerate", "--object", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_flags_that_agree_are_accepted(capsys):
    code, out, _ = run(capsys, "orbits", "--action", "pro-kreweras",
                       "--ell", "2", "--q", "6")
    assert code == 0 and json.loads(out)["params"] == {"ell": 2, "q": 6}
    code, out, _ = run(capsys, "enumerate", "--object", "linext",
                       "--ell", "2", "--k", "2", "--limit", "1")
    assert code == 0 and len(out.splitlines()) == 1
