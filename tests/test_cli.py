import json

import pytest

from vkrew import cli
from vkrew.verify import ClaimResult, VerificationReport


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


def test_enumerate_missing_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--object", "labelings", "--ell", "1"])
    assert exc.value.code == 2


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


def test_render_invalid_word_exit_2(capsys, tmp_path):
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"letters": "BAC"}))
    code, _, err = run(capsys, "render", "--input", str(path),
                       "--format", "ascii")
    assert code == 2
    assert "error" in err


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


@pytest.mark.parametrize("argv", [
    ("--suite", "main", "--ell-max", "0", "--q-max", "4"),
    ("--suite", "rowmotion", "--q-max", "2"),
    ("--suite", "main", "--q-max", "2"),
    ("--suite", "main", "--sum-max", "3"),
])
def test_verify_empty_grid_exit_2(capsys, argv):
    # an explicit bound is never swapped for the default, and a grid with
    # no point in it is refused rather than reported as a pass
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,payload", [
    ("render", 42),
    ("render", {"blocks": [[1, 0, 0]], "q": 1}),
    ("export", 42),
    ("export", {"claims": [{"id": "x"}]}),
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
