import dataclasses
import gc
import hashlib
import json
import tracemalloc
import weakref
from collections import Counter
from math import lcm
from operator import attrgetter
from types import SimpleNamespace

import pytest

import vkrew.pstrict as pstrict_module
import vkrew.rowmotion as rowmotion_module
from vkrew import cli, golden, poset, verify, words
from vkrew.kreweras import kreweras_number, promote_kreweras, \
    promote_linext, swap_bc_letters, to_kreweras
from vkrew.orbits import ActionError, orbit_cycles
from vkrew.poset import LinearExtension, linear_extensions, make_v, \
    product_with_chain
from vkrew.pstrict import PStrictLabeling, bender_knuth_tau, \
    enumerate_labelings, promote_pstrict, restriction_rq, swap_bc
from vkrew.rowmotion import PPartition, apply_automorphism, \
    enumerate_ppartitions, flip_automorphism, rowmotion, togpro
from vkrew.verify import CeilingExceeded, VerificationReport, export_report, \
    orbit_report_for_action, report_from_json, report_to_csv_text, \
    report_to_json_text, run_suite
from vkrew.words import double_arcs, enumerate_words, \
    generalized_bump_diagram, layer_decomposition, promote_vlayer, \
    promote_word, promote_word_layerwise, standardize, swap_bc_word


def normalized(report: VerificationReport) -> VerificationReport:
    return dataclasses.replace(report, duration_ms=0)


def test_figures_suite_passes():
    report = run_suite("figures")
    assert report.passed
    assert len(report.claims) == 9


def test_classical_suite_passes():
    assert run_suite("classical").passed


@pytest.mark.parametrize("suite", ["layers", "doublearcs", "standardization",
                                   "equivariance"])
def test_word_suites_pass_on_small_grid(suite):
    report = run_suite(suite, ell_max=1, q_max=4)
    assert report.passed, report.summary_lines()


def test_rowmotion_suite_small():
    report = run_suite("rowmotion", ell_max=2, q_max=4)
    assert report.passed, report.summary_lines()


def test_main_suite_small():
    report = run_suite("main", ell_max=2, q_max=4)
    assert report.passed
    assert [c.id for c in report.claims] == ["pstrict-order-divides-2q",
                                             "pstrict-pro-q-is-bc-swap"]


def test_run_suite_deterministic():
    a = run_suite("figures")
    b = run_suite("figures")
    assert report_to_json_text(normalized(a)) == report_to_json_text(normalized(b))


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_ceiling_enforced():
    with pytest.raises(CeilingExceeded):
        run_suite("main", ell_max=1, q_max=3, ceiling=2)


def test_orbit_reports_for_actions():
    report = orbit_report_for_action("pro-pstrict", 1, 3)
    assert report.orbit_sizes == (3, 2) and report.all_checks_pass
    report = orbit_report_for_action("pro-linext", 1)
    assert report.orbit_sizes == (2,)
    assert report.checks == {"order_divides_6n": True,
                             "order_equals_6n": False,
                             "count_matches_formula": True}
    report = orbit_report_for_action("pro-linext", 2)
    assert report.all_checks_pass and report.order == 12
    report = orbit_report_for_action("pro-kreweras", 2)
    assert report.order == 12
    report = orbit_report_for_action("row", 1, 3)
    assert report.orbit_sizes == (3, 2) and report.all_checks_pass
    report = orbit_report_for_action("togpro", 1, 3)
    assert report.orbit_sizes == (3, 2) and report.all_checks_pass


# sha256 of the JSON text of the benchmark's four orbit reports, of the
# classical reports at n = 1..3, and of run_suite("all") with its duration
# zeroed: a change to the walk, the tables or the claims that moves one
# byte of a report fails here
REPORT_DIGESTS = {
    ("pro-pstrict", 3, 7):
        "85950da62ecd7eb8913b6022cdc73bcd85b0457c22cdac4198faebe79df4a4d3",
    ("pro-pstrict", 2, 9):
        "a47ff4cbbc46671c0e21982a75af860f65d26d2f7a84340c771b73f6126b56f8",
    ("row", 3, 7):
        "be9416bbd43f8f693c35079a62da41b30117aa80ea86fc1b0d18f65eade0986c",
    ("togpro", 3, 7):
        "b0a060a8959361643f97eb09916d0f3e9b08af7f903b32640bb82be659f4f303",
    ("pro-linext", 1, None):
        "1e1cda7ad844eba64e20543b56c4b6106b720a0ad83f0db49d4c80e2c8026726",
    ("pro-linext", 2, None):
        "4c368f043ee7ccba1c922fd85329bf1e4bcf4d1f00ca1a8315035079c0c21949",
    ("pro-linext", 3, None):
        "67d6e535f45be1a4a4cb0eb004ce38415306ea1bd7beab1861edd96205534a4f",
    ("pro-kreweras", 1, None):
        "c0db4197f841a5c26339b863c06fdc01bae5663c48688a60eceab7657a05debe",
    ("pro-kreweras", 2, None):
        "2418332c7ea4f85feb4d40af8fa4d6fca23235393b4ecef17376563be9ae79a5",
    ("pro-kreweras", 3, None):
        "c2ef81fc9260af18ac792f8297d81fd7e8ee7109f56fa88558c1ed8c1f5f6b5b",
}
SUITE_ALL_DIGEST = \
    "a8f9dab2d53bf46a8b030f945426c1f6ffaac816521cffbc5ffe8157679903a3"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_reports_are_byte_identical_to_their_pinned_digests():
    assert {point: sha256(report_to_json_text(orbit_report_for_action(
        *point))) for point in REPORT_DIGESTS} == REPORT_DIGESTS
    assert sha256(report_to_json_text(normalized(run_suite("all")))) \
        == SUITE_ALL_DIGEST


@pytest.mark.parametrize("action", ["pro-pstrict", "row", "togpro"])
def test_the_order_is_exactly_2q(action):
    # the theorem, and through Bernstein-Striker-Vorland its rowmotion and
    # toggle-promotion forms on V x [q - 2]; the claims check divisibility
    points = (verify._word_grid(3, 7, 10) if action == "pro-pstrict"
              else grid(3, 6))
    for ell, q in points:
        assert orbit_report_for_action(action, ell, q).order == 2 * q


def test_divisibility_passes_a_power_of_promotion(monkeypatch):
    # Pro^3 has orbits dividing 2q and (Pro^3)^q is the B/C swap, so every
    # check and every claim of main passes; only the exact order tells
    # it from Pro
    monkeypatch.setattr(verify, "promote_pstrict",
                        lambda f: promote_pstrict(promote_pstrict(
                            promote_pstrict(f))))
    report = orbit_report_for_action("pro-pstrict", 2, 6)
    assert report.all_checks_pass and report.order == 4
    assert run_suite("main", ell_max=2, q_max=6).passed


def test_orbit_report_requires_q():
    with pytest.raises(ValueError):
        orbit_report_for_action("pro-pstrict", 1, None)
    with pytest.raises(ValueError):
        orbit_report_for_action("nonsense", 1, 3)


@pytest.mark.parametrize("suite,flags,named", [
    ("classical", {"ell_max": 1}, "ell_max"),
    ("figures", {"q_max": 4}, "q_max"),
    ("rowmotion", {"sum_max": 8}, "sum_max"),
    ("layers", {"ell_max": 1, "q_max": 4, "sum_max": 5}, "sum_max"),
])
def test_grid_flag_no_claim_reads_is_refused(suite, flags, named):
    with pytest.raises(ValueError, match=f"reads {named} "):
        run_suite(suite, **flags)


def test_suite_all_applies_each_flag_where_read():
    report = run_suite("all", ell_max=1, q_max=4, sum_max=5)
    assert report.passed
    params = {c.id: c.params for c in report.claims}
    assert params["pstrict-order-divides-2q"] == \
        {"ell_max": 1, "q_max": 4, "sum_max": 5}
    assert params["content-rotation"] == {"ell_max": 1, "q_max": 4}
    assert params["row-order-divides"] == {"ell_max": 1, "k_max": 2}
    assert params["classical-order-6n"] == {"n_max": 3}


def test_export_json_roundtrip(tmp_path):
    report = orbit_report_for_action("pro-pstrict", 1, 3)
    path = tmp_path / "orbit.json"
    export_report(report, path, "json")
    restored = report_from_json(json.loads(path.read_text()))
    assert restored == report


def test_export_verification_json_roundtrip(tmp_path):
    report = run_suite("figures")
    path = tmp_path / "suite.json"
    export_report(report, path, "json")
    restored = report_from_json(json.loads(path.read_text()))
    assert report_to_json_text(restored) == report_to_json_text(report)


def test_export_csv_sizes_roundtrip(tmp_path):
    import csv

    report = orbit_report_for_action("pro-pstrict", 1, 3)
    path = tmp_path / "orbit.csv"
    export_report(report, path, "csv")
    with open(path, newline="") as fh:
        header, row = list(csv.reader(fh))
    sizes_field = row[header.index("orbit_sizes")]
    assert [int(s) for s in sizes_field.split(";")] == [3, 2]


def test_export_csv_for_suite(tmp_path):
    report = run_suite("figures")
    path = tmp_path / "suite.csv"
    export_report(report, path, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "suite,claim,params,pass,counterexample"
    assert len(lines) == 1 + len(report.claims)


def test_export_rejects_unknown_format(tmp_path):
    report = run_suite("figures")
    with pytest.raises(ValueError):
        export_report(report, tmp_path / "x", "yaml")


def test_report_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        report_from_json({"something": 1})


def test_empty_suite_report_serializes():
    report = VerificationReport("empty", [], 0)
    assert report.passed
    assert json.loads(report_to_json_text(report))["claims"] == []


def test_summary_lines():
    report = run_suite("figures")
    lines = report.summary_lines()
    assert len(lines) == len(report.claims)
    assert all(line.startswith("[PASS]") for line in lines)


def test_csv_text_rejects_other_types():
    with pytest.raises(TypeError):
        report_to_csv_text(42)


# -- claims over shared orbit tables -----------------------------------
# A wrong step is bound into ``verify``; each expected counterexample is
# the first failing element in enumeration order, found by a direct loop
# that steps elements one by one, without orbit tables or orbit_cycles.

def identity(f, *args):
    return f


def skip_last_tau(f):
    """Promotion without its last Bender-Knuth involution, a bijection."""
    for k in range(1, f.q - 1):
        f = bender_knuth_tau(k, f)
    return f


def grid(ell_max, q_max):
    return [(ell, q) for ell in range(1, ell_max + 1)
            for q in range(3, q_max + 1)]


def ppartitions(ell, q):
    return enumerate_ppartitions(product_with_chain(make_v(), q - 2), ell)


def power(step, x, t):
    for _ in range(t):
        x = step(x)
    return x


def orbit(step, x):
    out = [x]
    y = step(x)
    while y != x:
        out.append(y)
        y = step(y)
    return out


def orbit_sizes(step, elements):
    seen, sizes = set(), []
    for x in elements:
        if x not in seen:
            cycle = orbit(step, x)
            seen.update(cycle)
            sizes.append(len(cycle))
    return sorted(sizes, reverse=True)


def flip(f):
    return apply_automorphism(flip_automorphism(f.poset), f)


def failures(*reports):
    return {c.id: c.counterexample for r in reports for c in r.claims
            if not c.ok}


def test_wrong_promotion_fails_both_main_claims(monkeypatch):
    monkeypatch.setattr(verify, "promote_pstrict", skip_last_tau)
    expected = {}
    for ell, q in grid(2, 4):
        for f in enumerate_labelings(ell, q):
            size = len(orbit(skip_last_tau, f))
            if (2 * q) % size:
                expected.setdefault("pstrict-order-divides-2q", {
                    "ell": ell, "q": q, "orbit_size": size,
                    "labeling": f.to_json()})
            pro_q = power(skip_last_tau, f, q)
            if pro_q != swap_bc(f):
                expected.setdefault("pstrict-pro-q-is-bc-swap", {
                    "ell": ell, "q": q, "labeling": f.to_json(),
                    "pro_q": pro_q.to_json(), "swapped": swap_bc(f).to_json()})
    assert len(expected) == 2
    assert failures(run_suite("main", ell_max=2, q_max=4)) == expected


def test_wrong_word_promotion_fails_word_claims(monkeypatch):
    # the word laws read the labeling table, so its step is the words' too
    monkeypatch.setattr(verify, "promote_pstrict", identity)
    expected = {}
    for ell, q in grid(2, 4):
        for w in enumerate_words(ell, q):
            layerwise = promote_word_layerwise(w)
            if w != layerwise:
                expected.setdefault("content-rotation", {
                    "ell": ell, "q": q, "word": w.to_text(),
                    "promoted": w.to_text(), "layerwise": layerwise.to_text()})
            if w != swap_bc_word(w):
                expected.setdefault("word-pro-q-is-bc-swap", {
                    "ell": ell, "q": q, "word": w.to_text(),
                    "pro_q": w.to_text(),
                    "swapped": swap_bc_word(w).to_text()})
    found = failures(run_suite("layers", ell_max=2, q_max=4),
                     run_suite("standardization", ell_max=2, q_max=4))
    # std-pro-commutation standardizes Pro(w) too, so it fails as well
    assert set(found) == set(expected) | {"std-pro-commutation"}
    assert {cid: found[cid] for cid in expected} == expected


def test_wrong_rowmotion_fails_order_flip_and_multiset_claims(monkeypatch):
    monkeypatch.setattr(verify, "rowmotion", identity)
    expected = {}
    for ell, q in grid(2, 4):
        partitions = list(ppartitions(ell, q))
        order = lcm(*orbit_sizes(identity, partitions))
        if ell == 1 and order != 2 * q:
            expected.setdefault("row-order-exact-ell1", {
                "ell": 1, "k": q - 2, "order": order, "expected": 2 * q})
        for f in partitions:
            if power(identity, f, q) != flip(f):
                expected.setdefault("row-q-is-flip", {
                    "ell": ell, "q": q, "partition": f.to_json(),
                    "row_q": f.to_json(), "flipped": flip(f).to_json()})
    assert len(expected) == 2
    # the sweeps along every extension are rowmotion's own, so they tell
    # the table's identity step from them at the first partition
    zero = next(ppartitions(1, 4))
    assert zero.values == (0,) * 6
    expected["row-extension-independent"] = {
        "ell": 1, "k": 2, "partition": zero.to_json(), "distinct_images": 2}
    assert failures(run_suite("rowmotion", ell_max=2, q_max=4)) == expected
    # the multiset claim compares rowmotion's orbits with the other two
    found = failures(run_suite("equivariance", ell_max=1, q_max=4))
    sizes = {"pro-pstrict": orbit_sizes(promote_pstrict,
                                        enumerate_labelings(1, 3)),
             "row": orbit_sizes(identity, ppartitions(1, 3)),
             "togpro": orbit_sizes(lambda f: togpro(f, 3), ppartitions(1, 3))}
    assert found == {"orbit-multisets-agree": {"ell": 1, "q": 3,
                                               "sizes": sizes}}


def test_wrong_togpro_fails_flip_and_multiset_claims(monkeypatch):
    monkeypatch.setattr(verify, "togpro", identity)
    expected = {}
    for ell, q in grid(1, 4):
        partitions = list(ppartitions(ell, q))
        sizes = {"pro-pstrict": orbit_sizes(promote_pstrict,
                                            enumerate_labelings(ell, q)),
                 "row": orbit_sizes(rowmotion, partitions),
                 "togpro": orbit_sizes(identity, partitions)}
        if not sizes["pro-pstrict"] == sizes["row"] == sizes["togpro"]:
            expected.setdefault("orbit-multisets-agree",
                                {"ell": ell, "q": q, "sizes": sizes})
        for f in partitions:
            if power(identity, f, q) != flip(f):
                expected.setdefault("togpro-q-is-flip", {
                    "ell": ell, "q": q, "partition": f.to_json()})
    assert len(expected) == 2
    assert failures(run_suite("equivariance", ell_max=1, q_max=4)) == expected


def extensions(n):
    return list(linear_extensions(product_with_chain(make_v(), n)))


def classical_failures(ext_step, word_step):
    """The first counterexample of each classical claim on a table, found
    by stepping extensions with ``ext_step`` and words with ``word_step``."""
    expected = {}
    for n in (1, 2, 3):
        exts = extensions(n)
        kwords = [to_kreweras(e) for e in exts]
        ext_sizes = orbit_sizes(ext_step, exts)
        order = lcm(*ext_sizes)
        if (6 * n) % order:
            expected.setdefault("classical-order-6n", {
                "n": n, "order": order, "must_divide": 6 * n})
        elif n >= 2 and order != 6 * n:
            expected.setdefault("classical-order-6n", {
                "n": n, "order": order, "expected": 6 * n})
        for w in kwords:
            pro_3n, swapped = power(word_step, w, 3 * n), swap_bc_letters(w)
            if pro_3n != swapped:
                expected.setdefault("classical-pro-3n-swaps-bc", {
                    "n": n, "word": w.letters, "pro_3n": pro_3n.letters,
                    "swapped": swapped.letters})
        word_sizes = orbit_sizes(word_step, kwords)
        if ext_sizes != word_sizes:
            expected.setdefault("kreweras-orbits-match-linext", {
                "n": n, "extension_orbits": sorted(ext_sizes),
                "word_orbits": sorted(word_sizes)})
        for e, w in zip(exts, kwords):
            via_ext = to_kreweras(ext_step(e)).letters
            via_word = word_step(w).letters
            if via_ext != via_word:
                expected.setdefault("kreweras-intertwines", {
                    "n": n, "word": w.letters, "via_extension": via_ext,
                    "via_word": via_word})
    return expected


def twice(w):
    """Kreweras promotion applied twice, a bijection."""
    return promote_kreweras(promote_kreweras(w))


@pytest.mark.parametrize("name,wrong,failing", [
    ("promote_linext", identity,
     {"classical-order-6n", "kreweras-orbits-match-linext",
      "kreweras-intertwines"}),
    ("promote_kreweras", twice,
     {"classical-pro-3n-swaps-bc", "kreweras-orbits-match-linext",
      "kreweras-intertwines"}),
])
def test_wrong_classical_promotion_fails_its_readers(monkeypatch, name, wrong,
                                                     failing):
    steps = {"promote_linext": promote_linext,
             "promote_kreweras": promote_kreweras, name: wrong}
    monkeypatch.setattr(verify, name, wrong)
    expected = classical_failures(*steps.values())
    assert set(expected) == failing
    assert failures(run_suite("classical")) == expected


# the suite of each claim, at its default grid
SUITE_OF = {claim.id: suite for suite in verify.SUITE_NAMES
            for claim in verify._build_suite(
                suite, lambda flag, default: default, verify.DEFAULT_CEILING)}


@pytest.mark.parametrize("name,suite,wrong,failing", [
    ("promote_pstrict", "main", lambda f: promote_pstrict(promote_pstrict(f)),
     {"pstrict-pro-q-is-bc-swap", "content-rotation", "double-arc-rotation",
      "double-arc-deletion-commutes", "shortest-arc-shift",
      "std-pro-commutation", "word-pro-q-is-bc-swap",
      "orbit-multisets-agree", "figure-promoted-word"}),
    ("promote_pstrict", "main", lambda f: swap_bc(promote_pstrict(f)),
     {"pstrict-pro-q-is-bc-swap", "content-rotation",
      "double-arc-deletion-commutes", "shortest-arc-shift",
      "std-pro-commutation", "word-pro-q-is-bc-swap",
      "orbit-multisets-agree", "figure-promoted-word"}),
    ("rowmotion", "rowmotion", lambda f: togpro(f, len(f.values) // 3 + 2),
     {"row-extension-independent"}),
    ("rowmotion", "rowmotion", lambda f: flip(rowmotion(f)),
     {"row-order-exact-ell1", "row-q-is-flip", "row-extension-independent",
      "orbit-multisets-agree"}),
    # no claim tells togpro from rowmotion: both have the orbit sizes of
    # Pro and the flip as their q-th power
    ("togpro", "equivariance", lambda f, q: rowmotion(f), set()),
    ("promote_linext", "classical",
     lambda e: promote_linext(promote_linext(e)),
     {"classical-order-6n", "kreweras-orbits-match-linext",
      "kreweras-intertwines", "figure-promotion-pair"}),
    ("promote_kreweras", "classical",
     lambda w: swap_bc_letters(promote_kreweras(w)),
     {"classical-pro-3n-swaps-bc", "kreweras-orbits-match-linext",
      "kreweras-intertwines", "std-pro-commutation",
      "figure-kreweras-pair"}),
], ids=["pro-squared", "swap-pro", "row-as-togpro", "flip-row",
        "togpro-as-row", "linext-squared", "swap-kreweras"])
def test_bijective_mutants_fail_exactly_their_readers(monkeypatch, name,
                                                      suite, wrong, failing):
    # each wrong step is a bijection, so every table is built, and only
    # the claims that tell it from the right step fail; the suites run are
    # the step's own and those of the claims expected to fail
    monkeypatch.setattr(verify, name, wrong)
    suites = sorted({suite} | {SUITE_OF[cid] for cid in failing})
    assert set(failures(*map(run_suite, suites))) == failing


def test_classical_suite_promotes_each_word_once(monkeypatch):
    calls = Counter()

    def count(name):
        step = getattr(verify, name)

        def counted(*args):
            calls[name] += 1
            return step(*args)
        monkeypatch.setattr(verify, name, counted)

    count("promote_kreweras")
    count("to_kreweras")
    assert run_suite("classical").passed
    n_words = sum(kreweras_number(n) for n in (1, 2, 3))
    assert n_words == 210
    # the table steps each word; kreweras-intertwines reads its cycles
    assert calls["promote_kreweras"] == n_words
    assert calls["to_kreweras"] <= 2 * n_words


def test_non_bijective_kreweras_promotion_fails_every_reader(monkeypatch):
    kwords = [to_kreweras(e) for e in extensions(1)]

    def merged(w):
        """Identity, except that the first word goes to the second."""
        return kwords[1] if w == kwords[0] else w

    monkeypatch.setattr(verify, "promote_kreweras", merged)
    with pytest.raises(ActionError) as info:
        orbit_cycles(merged, kwords)
    error = {"ell": 1, "q": 3, "action": "pro-kreweras",
             "error": str(info.value)}
    assert failures(run_suite("classical")) == dict.fromkeys(
        ("classical-pro-3n-swaps-bc", "kreweras-orbits-match-linext",
         "kreweras-intertwines"), error)


def test_non_bijective_linext_promotion_fails_only_its_table_readers(
        monkeypatch):
    exts = extensions(1)

    def merged(e):
        """Identity, except that the first extension goes to the second."""
        return exts[1] if e == exts[0] else e

    monkeypatch.setattr(verify, "promote_linext", merged)
    with pytest.raises(ActionError) as info:
        orbit_cycles(merged, exts)
    error = {"ell": 1, "q": 3, "action": "pro-linext",
             "error": str(info.value)}
    # the count and the round trip read the extension list, not Pro
    assert failures(run_suite("classical")) == dict.fromkeys(
        ("classical-order-6n", "kreweras-orbits-match-linext",
         "kreweras-intertwines"), error)


def test_a_wrong_count_formula_fails_classical_count(monkeypatch):
    monkeypatch.setattr(verify, "kreweras_number",
                        lambda n: kreweras_number(n) + (n == 2))
    assert failures(run_suite("classical")) == {
        "classical-count-formula": {"n": 2, "count": 16, "expected": 17}}


def test_a_wrong_word_inverse_fails_the_roundtrip(monkeypatch):
    first, second = extensions(2)[:2]
    inverse = verify.from_kreweras

    def wrong(word):
        """The inverse, except that the first extension goes to the
        second."""
        e = inverse(word)
        return second if e == first else e

    monkeypatch.setattr(verify, "from_kreweras", wrong)
    assert to_kreweras(first).letters == "AABBCC"
    assert failures(run_suite("classical")) == {
        "kreweras-roundtrip": {"n": 2, "word": "AABBCC"}}


def test_non_bijective_rowmotion_fails_extension_independence(monkeypatch):
    partitions = list(ppartitions(1, 4))

    def merged(f, ext=None):
        """Identity, except that the first partition goes to the second."""
        return partitions[1] if f == partitions[0] else f

    monkeypatch.setattr(verify, "rowmotion", merged)
    with pytest.raises(ActionError) as info:
        orbit_cycles(merged, partitions)
    # row-extension-independent reads the row table, as the order law
    # does, and the identity elsewhere keeps the order law passing at (1, 3)
    error = {"ell": 1, "q": 4, "action": "row", "error": str(info.value)}
    found = failures(run_suite("rowmotion"))
    assert found["row-extension-independent"] == error
    assert found["row-order-divides"] == error


def test_a_wrong_column_move_fails_extension_independence(monkeypatch):
    # B and C columns stay put on rowmotion's default path, the tables
    tables = rowmotion_module._v_moves

    def wrong(owner, ell):
        found = tables(owner, ell)
        if found is None:
            return None
        return (*found[:4], poset._Memo(lambda ax: ax[1]))

    monkeypatch.setattr(rowmotion_module, "_v_moves", wrong)
    zeros = next(ppartitions(1, 4))
    assert failures(run_suite("rowmotion"))["row-extension-independent"] \
        == {"ell": 1, "k": 2, "partition": zeros.to_json(),
            "distinct_images": 2}


def test_non_bijective_step_fails_every_reader(monkeypatch, capsys):
    labelings = list(enumerate_labelings(1, 3))

    def merged(f):
        """Identity, except that the first labeling goes to the second."""
        return labelings[1] if f == labelings[0] else f

    monkeypatch.setattr(verify, "promote_pstrict", merged)
    with pytest.raises(ActionError) as info:
        orbit_cycles(merged, labelings)
    # no table at (1, 3), so each word claim reading one fails there, the
    # claims that never look at Pro(w) included
    error = {"ell": 1, "q": 3, "action": "pro-pstrict",
             "error": str(info.value)}
    for suite in ("layers", "doublearcs", "standardization"):
        report = run_suite(suite, ell_max=1, q_max=4)
        assert [c.counterexample for c in report.claims] \
            == [error] * len(report.claims), suite
    assert cli.main(["verify", "--suite", "standardization",
                     "--ell-max", "1", "--q-max", "4"]) == 1
    assert "Traceback" not in capsys.readouterr().err


STEPS = {"pro-pstrict": "promote_pstrict", "row": "rowmotion",
         "togpro": "togpro"}


def out_of_interval(tau_one):
    def faulty(fiber, k, lo, hi, above, below):
        return tau_one(fiber, k, lo, hi, above, below)[:-1] + (hi + 1,)
    return faulty


def unbounded(tau_one):
    def faulty(fiber, k, lo, hi, above, below):
        return tau_one(fiber, k, lo, hi, None, None)
    return faulty


def out_of_range(sweep):
    def faulty(values, order, poset, ell):
        sweep(values, order, poset, ell)
        values[order[0]] = ell + 1
    return faulty


FAULTY_KERNELS = {
    "pstrict-interval": ("pro-pstrict", "_tau_one", out_of_interval,
                         "moved fiber of 'A' leaves its interval"),
    "pstrict-covers": ("pro-pstrict", "_tau_one", unbounded,
                       "moved fiber of 'A' is not strict against min(B, C)"),
    "row-range": ("row", "_sweep", out_of_range, "values must lie in 0..2"),
    "togpro-range": ("togpro", "_sweep", out_of_range,
                     "values must lie in 0..2"),
}


@pytest.mark.parametrize("case", list(FAULTY_KERNELS))
def test_a_faulty_kernel_is_caught(monkeypatch, case):
    # a move whose fiber or column leaves its interval or 0..ell, or meets
    # the fiber it moved past, fails when its entry is filled, off a table
    # and in a report alike
    action, name, fault, message = FAULTY_KERNELS[case]
    module = pstrict_module if action == "pro-pstrict" else rowmotion_module
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    f = next(enumerate_labelings(2, 5) if action == "pro-pstrict"
             else ppartitions(2, 5))
    step = {"pro-pstrict": promote_pstrict, "row": rowmotion,
            "togpro": lambda f: togpro(f, 5)}[action]
    module._v_moves.cache_clear()
    try:
        with pytest.raises(ValueError) as off_table:
            step(f)
        with pytest.raises(ValueError) as in_report:
            orbit_report_for_action(action, 2, 5)
    finally:
        module._v_moves.cache_clear()
    assert str(off_table.value) == str(in_report.value) == message


def antichain_partition(f):
    return PPartition(poset.Poset(range(len(f.values)), ()), f.ell, f.values)


WRONG_IMAGES = {
    "labeling-other-restriction": ("pro-pstrict", lambda f: PStrictLabeling(
        restriction_rq(make_v(), f.q + 1), f.ell, f.fibers)),
    "labeling-other-ell": ("pro-pstrict", lambda f: pstrict_module._labeling(
        f.restriction, f.ell + 1, f.fibers)),
    "labeling-raw-fibers": ("pro-pstrict", attrgetter("fibers")),
    "labeling-none": ("pro-pstrict", lambda f: None),
    "row-other-ell": ("row", lambda f: PPartition(f.poset, f.ell + 1,
                                                  f.values)),
    "row-other-poset": ("row", antichain_partition),
    "togpro-other-poset": ("togpro", antichain_partition),
    "togpro-other-class": ("togpro", lambda f: SimpleNamespace(
        poset=f.poset, ell=f.ell, values=f.values)),
}


@pytest.mark.parametrize("case", list(WRONG_IMAGES))
def test_an_image_matches_only_an_equal_element(monkeypatch, case):
    # an image with an element's raw form but another owner or ell, or of
    # another class, leaves the set, in a report and in a suite's
    # counterexample
    action, wrong = WRONG_IMAGES[case]
    monkeypatch.setattr(verify, STEPS[action], lambda f, *q: wrong(f))
    x = next(enumerate_labelings(1, 3) if action == "pro-pstrict"
             else ppartitions(1, 3))
    message = f"action leaves the set at {x!r} -> {wrong(x)!r}"
    with pytest.raises(ActionError) as info:
        orbit_report_for_action(action, 1, 3)
    assert str(info.value) == message
    assert failures(run_suite("equivariance", ell_max=1, q_max=4))[
        "orbit-multisets-agree"] == {"ell": 1, "q": 3, "action": action,
                                     "error": message}


def test_an_equal_image_with_an_equal_owner_matches(monkeypatch):
    # the owner is compared by identity, else by equality
    def rebuilt(f):
        g = promote_pstrict(f)
        return PStrictLabeling(restriction_rq(make_v(), g.q), g.ell, g.fibers)
    expected = orbit_report_for_action("pro-pstrict", 2, 5).to_json()
    monkeypatch.setattr(verify, "promote_pstrict", rebuilt)
    assert orbit_report_for_action("pro-pstrict", 2, 5).to_json() == expected


def test_each_step_runs_once_per_object(monkeypatch):
    calls = Counter()

    def count(name):
        step = getattr(verify, name)

        def counted(*args):
            calls[name] += 1
            return step(*args)
        monkeypatch.setattr(verify, name, counted)

    count("promote_pstrict")
    count("togpro")
    assert run_suite("main", ell_max=2, q_max=5).passed
    assert calls["promote_pstrict"] == sum(
        1 for ell, q in grid(2, 5) for _ in enumerate_labelings(ell, q))
    calls.clear()
    assert run_suite("equivariance", ell_max=2, q_max=5).passed
    assert calls["togpro"] == sum(
        1 for ell, q in grid(2, 5) for _ in ppartitions(ell, q))


def each_image_is_one_element(table, images) -> bool:
    """Whether the step ran once per element, along each cycle from its
    start, and each image equals exactly one element: the one the
    table's cycles step to."""
    elements = list(table.elements)
    walked = [elements[p] for cycle in table.cycles
              for p in (*cycle[1:], cycle[0])]
    return len(set(elements)) == len(elements) and images == walked


@pytest.mark.parametrize("action,name", [("pro-pstrict", "promote_pstrict"),
                                         ("row", "rowmotion"),
                                         ("togpro", "togpro")])
def test_steps_in_a_table_return_its_elements(monkeypatch, action, name):
    images = []
    step = getattr(verify, name)

    def recorded(*args):
        images.append(step(*args))
        return images[-1]
    monkeypatch.setattr(verify, name, recorded)
    table = verify._table(action, 2, 6,
                          verify._lists(2, 6, verify.DEFAULT_CEILING))
    assert each_image_is_one_element(table, images)


def stepped_tables(monkeypatch, name):
    """Records each orbit table verify builds, with the images its step
    ``name`` returned while building it and the objects it stepped, as
    (table, images, stepped objects) triples."""
    stepped, images, objects = [], [], []
    step, table_at = getattr(verify, name), verify._table

    def recorded(f, *args):
        objects.append(f)
        images.append(step(f, *args))
        return images[-1]

    def kept(*args):
        images.clear()
        objects.clear()
        table = table_at(*args)
        stepped.append((table, list(images), list(objects)))
        return table
    monkeypatch.setattr(verify, name, recorded)
    monkeypatch.setattr(verify, "_table", kept)
    return stepped


@pytest.mark.parametrize("action,cls", [("pro-pstrict", PStrictLabeling),
                                        ("row", PPartition),
                                        ("togpro", PPartition)])
def test_each_element_is_built_once_per_report(monkeypatch, validations,
                                               action, cls):
    # the rank table builds each cycle's start, valid by construction, and
    # a step assembles its image from move entries checked when filled, so
    # a report validates at most one object per entry it fills, and none
    # when run again at the same point; each walk steps its start, then
    # each image in turn, so every element is stepped as one object, built
    # once, and no element is reused by the next report
    if action == "pro-pstrict":
        module, at = pstrict_module, (restriction_rq(make_v(), 6),)
        expected = sum(1 for _ in enumerate_labelings(2, 6))
    else:
        module, at = rowmotion_module, (product_with_chain(make_v(), 4), 2)
        expected = sum(1 for _ in ppartitions(2, 6))
    module._v_moves.cache_clear()
    validated = validations(cls)
    stepped = stepped_tables(monkeypatch, STEPS[action])
    assert orbit_report_for_action(action, 2, 6).count == expected
    _, _, _, move_a, move_bc = module._v_moves(*at)
    assert len(validated) <= len(move_a) + len(move_bc)
    validated.clear()
    assert orbit_report_for_action(action, 2, 6).count == expected
    assert not validated
    assert all(each_image_is_one_element(t, images)
               for t, images, _ in stepped)
    for table, images, objects in stepped:
        assert objects == [table.elements[p] for cycle in table.cycles
                           for p in cycle]
        k = 0  # the step of each cycle's start
        for cycle in table.cycles:
            assert all(objects[k + i] is images[k + i - 1]
                       for i in range(1, len(cycle)))
            k += len(cycle)
    first, second = ({id(x) for x in objects} for _, _, objects in stepped)
    assert len(first) == expected and not first & second


def test_word_steps_promote_the_tables_labelings(monkeypatch, validations):
    # the word laws read the words of the labeling table, so no labeling
    # of a word point is validated: none is built by labeling_of_word, and
    # promotion checks fibers, not labelings; each promoted image equals
    # one labeling of the table
    validated = validations(PStrictLabeling)
    stepped = stepped_tables(monkeypatch, "promote_pstrict")
    for suite in ("layers", "standardization"):
        stepped.clear()
        assert run_suite(suite).passed
        assert not validated, suite
        assert [(t.ell, t.q) for t, _, _ in stepped] == grid(2, 6), suite
        assert all(each_image_is_one_element(t, images)
                   for t, images, _ in stepped)


def test_word_points_list_no_labeling_and_build_none_from_words(
        monkeypatch):
    # the word laws share the labeling table of their points with main and
    # equivariance; the table keeps no labeling, and the words read each
    # labeling from its rank, so no point lists its labelings, and no word
    # law transports a word back to a labeling
    points = []
    labelings_at = pstrict_module._v_labelings

    def recorded(rf, ell, *tables):
        points.append((ell, rf.q))
        return labelings_at(rf, ell, *tables)
    monkeypatch.setattr(pstrict_module, "_v_labelings", recorded)
    assert run_suite("all").passed
    assert points == []
    calls = Counter()
    to_labeling = words.labeling_of_word

    def counted(w):
        calls["labeling_of_word"] += 1
        return to_labeling(w)
    monkeypatch.setattr(words, "labeling_of_word", counted)
    assert run_suite("layers").passed
    assert calls["labeling_of_word"] == 0


# -- ranked walks of the V tables -------------------------------------

def default_points():
    """Every point of the default grids of main, the word suites,
    rowmotion and equivariance."""
    return sorted({point for suite in ("main", "layers", "rowmotion",
                                       "equivariance")
                   for claim in verify._build_suite(
                       suite, lambda flag, default: default,
                       verify.DEFAULT_CEILING)
                   for point in claim.points})


def flipped(f):
    return apply_automorphism(flip_automorphism(f.poset), f)


# action -> the B/C mirror image of an element
REFERENCES = {"pro-pstrict": swap_bc, "row": flipped, "togpro": flipped}


# family -> its elements at (ell, q), listed in enumeration order
LISTINGS = {"labelings": enumerate_labelings, "ppartitions": ppartitions}


def walked(image):
    """The cycles of the permutation ``image`` of positions, each from
    its earliest position, in order of those."""
    seen, cycles = set(), []
    for start in range(len(image)):
        cycle, p = [], start
        while p not in seen:
            seen.add(p)
            cycle.append(p)
            p = image[p]
        if cycle:
            assert p == start
            cycles.append(cycle)
    return cycles


@pytest.mark.parametrize("action", list(REFERENCES))
def test_ranked_walk_matches_the_reference_on_every_default_point(action):
    # the reference lists the family, steps each element in enumeration
    # order and finds its image in a dict of the listed elements
    mirror, step = REFERENCES[action], getattr(verify, STEPS[action])
    family = verify._ACTIONS[action].family
    points = default_points()
    assert len(points) == 15 and {(1, 4), (2, 3), (2, 6), (3, 5)} < {*points}
    for ell, q in points:
        lists = verify._lists(ell, q, verify.DEFAULT_CEILING)
        table = verify._table(action, ell, q, lists)
        ranks, locate = lists[family]
        elements = list(LISTINGS[family](ell, q))
        index = {x: p for p, x in enumerate(elements)}
        assert len(ranks) == len(elements)
        assert [ranks[p] for p in range(len(elements))] == elements
        assert [locate(x) for x in elements] == list(range(len(elements)))
        image = [index[step(x, q) if action == "togpro" else step(x)]
                 for x in elements]
        assert [list(c) for c in table.cycles] == walked(image), (ell, q)
        # the arithmetic B/C swap of each position is its mirror's position
        assert list(ranks.mirror()) \
            == [index[mirror(x)] for x in elements], (ell, q)


def test_a_non_injective_step_on_a_rank_table_names_its_image(monkeypatch):
    # the first labeling goes to the second, and every other one to its
    # promotion: the walk from the first follows the second's cycle, which
    # returns to the second, seen earlier in this walk
    first, second = [PStrictLabeling(restriction_rq(make_v(), 3), 1, fibers)
                     for fibers in (((1,), (2,), (2,)), ((1,), (2,), (3,)))]
    monkeypatch.setattr(verify, "promote_pstrict",
                        lambda f: second if f == first else promote_pstrict(f))
    with pytest.raises(ActionError) as info:
        orbit_report_for_action("pro-pstrict", 1, 3)
    assert str(info.value) \
        == "PStrictLabeling(A:1; B:2; C:3) is reached twice; not a bijection"


@pytest.mark.parametrize("action", ["pro-pstrict", "row"])
def test_a_v_report_keeps_no_element_list(action):
    # 37,128 labelings or partitions; keeping them and an index of their
    # raw forms took 8 to 13 MB
    tracemalloc.start()
    try:
        assert orbit_report_for_action(action, 3, 7).count == 37_128
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_an_over_ceiling_table_is_refused_from_its_count(monkeypatch):
    # the 1,770 columns of V x [58] in 0..2 make 1,036,440,020
    # partitions; the count passes the ceiling inside the second A
    # column's over-list, after some 3,100 columns, and no partition is
    # built
    listed = []
    monkeypatch.setattr(rowmotion_module, "_partition",
                        lambda *args: listed.append(args))
    tracemalloc.start()
    try:
        with pytest.raises(CeilingExceeded) as info:
            orbit_report_for_action("row", 2, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) \
        == "ppartitions ell=2 k=58 exceeds the ceiling of 5000000 elements"
    assert not listed
    assert peak < 5_000_000


# -- arc data of the word tables ---------------------------------------

def test_word_tables_arc_data_matches_the_words_functions():
    count = 0
    for ell, q in verify._word_grid(2, 6):
        table = verify._table("pro-pstrict", ell, q, verify._lists(
            ell, q, verify.DEFAULT_CEILING))
        assert table.words == list(enumerate_words(ell, q))
        assert [x.word for x in table.arcs] == table.words
        # word_of_labeling conjugates the table's step to promote_word
        assert [y.word for y in table.power(1, table.arcs)] \
            == [promote_word(w) for w in table.words]
        count += len(table.words)
        for x in table.arcs:
            w = x.word
            assert x.layers == layer_decomposition(w)
            assert x.arcs == double_arcs(w)
            assert len(x.arcs) == len(
                generalized_bump_diagram(w).double_arc_openers())
            assert x.std == (None if x.arcs else standardize(w))
    assert count == 1533


def test_suite_all_builds_two_bump_diagrams_per_word_at_most(monkeypatch):
    calls = Counter()
    build = words.generalized_bump_diagram

    def counted(w):
        calls["diagram"] += 1
        return build(w)
    monkeypatch.setattr(words, "generalized_bump_diagram", counted)
    assert run_suite("all").passed
    # 1,533 words on the default word grid, 24,848 diagrams when each
    # word law built its own
    count = sum(1 for ell, q in grid(2, 6) for _ in enumerate_words(ell, q))
    assert count == 1533
    assert 0 < calls["diagram"] <= 2 * count


def test_one_points_tables_are_alive_at_a_time(monkeypatch):
    # a claim reading several actions gets their tables at once, and all
    # of them are dropped before the next point's are built
    built, stale = [], []
    table_at = verify._table

    def kept(action, ell, q, ceiling, *lists):
        stale.extend((point, (ell, q)) for point, ref in built
                     if point != (ell, q) and ref() is not None)
        table = table_at(action, ell, q, ceiling, *lists)
        built.append(((ell, q), weakref.ref(table)))
        return table
    monkeypatch.setattr(verify, "_table", kept)
    assert run_suite("all").passed
    assert len({point for point, _ in built}) == 16
    assert not stale


def test_only_the_extension_tables_list_their_family(monkeypatch):
    # the extension tables and list-reading claims at a point share one
    # list; a V table lists nothing: it builds each cycle's start from its
    # rank, and the word claims and row-extension-independent read their
    # elements by rank too; no claim steps a partition the row table has
    # stepped
    # the rowmotion grid and the equivariance grid hold every partition
    partitions = sum(1 for ell, q in {*grid(3, 5), *grid(2, 6)}
                     for _ in ppartitions(ell, q))
    assert partitions == 4_038
    counts = Counter()

    def counted(module, name):
        listed = getattr(module, name)

        def listing(*args):
            for x in listed(*args):
                counts[name] += 1
                yield x
        monkeypatch.setattr(module, name, listing)

    counted(verify, "linear_extensions")
    # the ranked column loops that list the labelings and partitions of V
    counted(pstrict_module, "_ranked_columns")
    counted(rowmotion_module, "_ranked_columns")
    row = verify.rowmotion

    def stepped(f, ext=None):
        counts["rowmotion"] += ext is None
        return row(f, ext)
    monkeypatch.setattr(verify, "rowmotion", stepped)
    assert run_suite("all").passed
    assert dict(counts) == {
        # V x [1..4], and V x [1] and V x [2] again as sweep orders
        "linear_extensions": 3_044, "rowmotion": partitions}
    assert 3_044 == sum(map(kreweras_number, range(1, 5))) \
        + kreweras_number(1) + kreweras_number(2)


def test_classical_suite_lists_the_extensions_once_per_n(monkeypatch):
    chains = []
    listed = verify.linear_extensions

    def recorded(poset):
        chains.append(len(poset) // 3)  # V x [n] has 3n elements
        return listed(poset)
    monkeypatch.setattr(verify, "linear_extensions", recorded)
    assert run_suite("classical").passed
    assert chains == [1, 2, 3, 4]


def test_nothing_outlives_its_point_through_a_cycle():
    # with the cyclic collector off, an object of the run is freed only by
    # reference counts, so one a cycle holds is left over
    kinds = (LinearExtension, PStrictLabeling, PPartition, verify._Table,
             verify._Arcs)
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, kinds)]
    known = set(map(id, before))  # held in before, so no id is reused
    gc.disable()
    try:
        assert run_suite("all").passed
        left = Counter(type(o).__name__ for o in gc.get_objects()
                       if isinstance(o, kinds) and id(o) not in known)
    finally:
        gc.enable()
    assert not left


def live_tables():
    gc.collect()
    return sum(1 for o in gc.get_objects()
               if isinstance(o, (verify._Table, verify._Arcs)))


def test_no_arc_data_outlives_its_table(monkeypatch):
    before = live_tables()
    assert run_suite("doublearcs", ell_max=2, q_max=4).passed
    assert live_tables() == before
    # a step that is not a bijection builds no table
    monkeypatch.setattr(verify, "promote_pstrict", lambda f: None)
    assert not run_suite("standardization", ell_max=2, q_max=4).passed
    assert live_tables() == before


def blocks_text(blocks):
    return "|".join("B" * nb + "C" * nc + "A" * na or "∅"
                    for na, nb, nc in blocks)


def shortest(layers):
    return Counter(("B" if b < c else "C" if c < b else "=", a, min(b, c))
                   for a, b, c in (layer.as_tuple() for layer in layers))


def test_a_dropped_layer_fails_content_rotation_and_shortest_arcs(
        monkeypatch):
    def dropped(w):
        return layer_decomposition(w)[1:]
    monkeypatch.setattr(verify, "layer_decomposition", dropped)
    expected = {}
    for ell, q in grid(2, 4):
        for w in enumerate_words(ell, q):
            promoted = promote_word(w)
            blocks = [[0, 0, 0] for _ in range(q)]
            for layer in dropped(w):
                for letter, block in enumerate(
                        promote_vlayer(layer, q).as_tuple()):
                    blocks[block - 1][letter] += 1
            if [list(b) for b in promoted.blocks] != blocks:
                expected.setdefault("content-rotation", {
                    "ell": ell, "q": q, "word": w.to_text(),
                    "promoted": promoted.to_text(),
                    "layerwise": blocks_text(blocks)})
            shifted = Counter({(color, a - 1, b - 1): n for (color, a, b), n
                               in shortest(dropped(w)).items() if a > 1})
            missing = shifted - shortest(dropped(promoted))
            if missing:
                expected.setdefault("shortest-arc-shift", {
                    "ell": ell, "q": q, "word": w.to_text(),
                    "missing": sorted(missing.elements())})
    assert len(expected) == 2
    found = failures(run_suite("layers", ell_max=2, q_max=4),
                     run_suite("doublearcs", ell_max=2, q_max=4))
    assert {cid: found.get(cid) for cid in expected} == expected


def test_a_raising_standardization_fails_the_arcless_claims(monkeypatch):
    def raising(w):
        raise ValueError("no standardization")
    monkeypatch.setattr(verify, "standardize", raising)
    first = next(w for w in enumerate_words(1, 3) if not double_arcs(w))
    report = run_suite("standardization", ell_max=1, q_max=4)
    error = {"ell": 1, "q": 3, "word": first.to_text(),
             "error": "no standardization"}
    assert failures(report) == {
        cid: error for cid in ("std-pro-commutation", "std-valid-kreweras",
                               "destandardize-roundtrip", "std-order-unique")}


# The failure reports of the figure, classical order and standardization
# claims, each reached by rebinding in ``verify`` the name its predicate
# reads.

def test_a_wrong_extension_promotion_fails_its_figure(monkeypatch):
    monkeypatch.setattr(verify, "promote_linext", identity)
    assert failures(run_suite("figures")) == {"figure-promotion-pair": {
        "item": "extension-promotion",
        "expected": golden.ext18_promoted().labels,
        "actual": golden.ext18().labels}}


def test_missing_double_arcs_fail_their_figure_first(monkeypatch):
    # the figure stops at its first mismatch: no arc is deleted
    def raising(word, arc):
        raise ValueError(f"deleted {arc}")
    monkeypatch.setattr(verify, "double_arcs", lambda word: [])
    monkeypatch.setattr(verify, "delete_double_arc", raising)
    assert failures(run_suite("figures")) == {"figure-double-arcs": {
        "item": "double-arcs", "expected": [(3, 4)], "actual": []}}


def test_wrong_standardization_sizes_fail_their_figure(monkeypatch):
    monkeypatch.setattr(verify, "standardize",
                        lambda w, std=standardize: (std(w)[0], (9,)))
    assert failures(run_suite("figures")) == {"figure-standardization": {
        "item": "∅|AA|CC|BB", "expected": ["AACCBB", [0, 2, 2, 2]],
        "actual": ["AACCBB", [9]]}}


def test_a_failed_destandardization_fails_both_round_trips(monkeypatch):
    monkeypatch.setattr(verify, "destandardize", lambda std, sizes: None)
    assert failures(run_suite("figures"),
                    run_suite("standardization", ell_max=1, q_max=3)) == {
        "figure-standardization": {"item": "∅|AA|CC|BB",
                                   "error": "round trip failed"},
        "destandardize-roundtrip": {"ell": 1, "q": 3, "word": "A|B|C",
                                    "std": "ABC", "sizes": [1, 1, 1]}}


def test_an_order_not_dividing_6n_is_reported(monkeypatch):
    first = extensions(2)[:5]
    cycle = dict(zip(first, first[1:] + first[:1]))
    monkeypatch.setattr(verify, "promote_linext", lambda e: cycle.get(e, e))
    assert failures(run_suite("classical"))["classical-order-6n"] == {
        "n": 2, "order": 5, "must_divide": 12}


def test_crossing_same_block_arcs_fail_std_valid(monkeypatch):
    monkeypatch.setattr(verify, "same_block_closers_nest",
                        lambda std, sizes: False)
    assert failures(run_suite("standardization", ell_max=1, q_max=3)) == {
        "std-valid-kreweras": {"ell": 1, "q": 3, "word": "A|B|C",
                               "std": "ABC", "error": "same-block arcs cross"}}


def test_a_free_closer_order_fails_std_order_unique(monkeypatch):
    monkeypatch.setattr(verify, "is_crossing", lambda arc, other: False)
    assert failures(run_suite("standardization", ell_max=2, q_max=3)) == {
        "std-order-unique": {"ell": 2, "q": 3, "word": "AA|BB|CC",
                             "block": 2, "positions": [3, 4]}}
