"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion passes exhaustively at its stated grid.  Two of them check
a law whose naive form is false at a degenerate point, so they state the
law in the form that holds and pin the degenerate fact itself:

* criterion 1 checks Hopkins-Rubey's law on ``V x [n]``: ``Pro^{3n}`` is
  the B/C swap, so the promotion order divides ``6n``, and it equals ``6n``
  once ``n >= 2``.  On ``V x [1]`` the two extensions ``ABC`` and ``ACB``
  simply swap, and the order there is asserted to be exactly 2.
* criterion 4 checks that promoting every V layer of a word and regathering
  the blocks gives ``Pro(w)``.  The layers of ``Pro(w)`` may recouple the
  promoted layers' arcs, but only as a regrouping of the same A-, B- and
  C-blocks; at ``ell = 1`` nothing recouples.  ``AA|B|B|C|C`` at ``q = 5``
  is pinned as a recoupling (the promoted layers ``(1,5,3), (2,5,4)`` have
  crossing C-arcs) and none occurs at smaller ``q``.
"""

import time
from math import lcm

from vkrew import golden
from vkrew.kreweras import kreweras_number, promote_kreweras, promote_linext, \
    swap_bc_letters, to_kreweras
from vkrew.orbits import orbit_cycles, power_map
from vkrew.poset import linear_extensions, make_v, product_with_chain
from vkrew.pstrict import enumerate_labelings
from vkrew.render import render_diagram
from vkrew.verify import report_to_json_text, run_suite
from vkrew.words import PartialMultiKrewerasWord, enumerate_words, \
    layer_decomposition, promote_vlayer, promote_word, promote_word_layerwise


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"criterion {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _failures(report):
    return "; ".join(f"{c.id}: {c.counterexample}"
                     for c in report.claims if not c.ok)


def test_criterion_1_classical_promotion_order():
    started = time.monotonic()
    problems = []
    counts = []
    orders = []
    for n in (1, 2, 3):
        poset = product_with_chain(make_v(), n)
        exts = list(linear_extensions(poset))
        counts.append(len(exts))
        if len(exts) != kreweras_number(n):
            problems.append(f"n={n}: count {len(exts)} != {kreweras_number(n)}")
        cycles = orbit_cycles(promote_linext, exts)
        order = lcm(*(len(c) for c in cycles))
        orders.append(order)
        if (6 * n) % order != 0:
            problems.append(f"n={n}: order {order} does not divide {6 * n}")
        expected = 6 * n if n >= 2 else 2
        if order != expected:
            problems.append(f"n={n}: order {order} != {expected}")
        words = [to_kreweras(e) for e in exts]
        pro_3n = power_map(orbit_cycles(promote_kreweras, words), 3 * n)
        for i, word in enumerate(words):
            image = words[pro_3n[i]]
            if image != swap_bc_letters(word):
                problems.append(f"n={n}: Pro^{3 * n}({word.letters}) = "
                                f"{image.letters} != "
                                f"{swap_bc_letters(word).letters}")
                break
    elapsed = time.monotonic() - started
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.1f}s >= 5s")
    detail = "; ".join(problems) if problems else \
        (f"sizes {counts}, orders {orders} (2 at n=1, 6n after), "
         f"Pro^3n = B/C swap, {elapsed:.1f}s")
    _report(1, "classical-promotion-order", not problems, detail)


def test_criterion_2_pstrict_promotion_order():
    started = time.monotonic()
    report = run_suite("main", ell_max=3, q_max=7, sum_max=10)
    elapsed = time.monotonic() - started
    ok = report.passed and elapsed < 120.0
    detail = _failures(report) if not report.passed else \
        f"order | 2q and Pro^q = swap on the full grid, {elapsed:.1f}s"
    _report(2, "pstrict-promotion-order-2q", ok, detail)


def test_criterion_3_figure_reproduction():
    report = run_suite("figures")
    _report(3, "figure-reproduction", report.passed,
            _failures(report) or "all golden comparisons byte-exact")


def _layer_multisets(w):
    """Layers of Pro(w), and the promoted layers of w, as sorted triples."""
    direct = sorted(l.as_tuple() for l in layer_decomposition(promote_word(w)))
    rotated = sorted(promote_vlayer(l, w.q).as_tuple()
                     for l in layer_decomposition(w))
    return direct, rotated


def _block_multisets(layers):
    """The A-, B- and C-block multisets of a list of layer triples."""
    return [sorted(layer[i] for layer in layers) for i in range(3)]


def test_criterion_4_content_rotation_layer_multisets():
    problems = []
    recoupled = {}
    first_recoupled = None
    for ell in (1, 2):
        for q in range(3, 7):
            recoupled[(ell, q)] = 0
            for w in enumerate_words(ell, q):
                promoted, layerwise = promote_word(w), promote_word_layerwise(w)
                if promoted != layerwise:
                    problems.append(
                        f"(ell={ell}, q={q}) word {w.to_text()}: Pro(w) = "
                        f"{promoted.to_text()} but layerwise = "
                        f"{layerwise.to_text()}")
                    break
                direct, rotated = _layer_multisets(w)
                if direct == rotated:
                    continue
                recoupled[(ell, q)] += 1
                if first_recoupled is None:
                    first_recoupled = (ell, q, w.to_text(), direct, rotated)
                if ell == 1 or \
                        _block_multisets(direct) != _block_multisets(rotated):
                    problems.append(
                        f"(ell={ell}, q={q}) word {w.to_text()}: layers of "
                        f"Pro(w) = {direct} but promoted layers = {rotated}, "
                        f"not a recoupling of the same blocks")
                    break
    pinned = _layer_multisets(PartialMultiKrewerasWord.from_text("AA|B|B|C|C"))
    if pinned != ([(1, 5, 4), (2, 5, 3)], [(1, 5, 3), (2, 5, 4)]):
        problems.append(f"AA|B|B|C|C: (layers of Pro(w), promoted layers) = "
                        f"{pinned}, not the recoupling of (1,5,3), (2,5,4)")
    if recoupled[(2, 3)] or recoupled[(2, 4)]:
        problems.append(f"recoupling below q=5: {recoupled}")
    if problems:
        detail = "; ".join(problems)
    else:
        ell, q, text, direct, rotated = first_recoupled
        counts = ", ".join(f"{n} at {point}"
                           for point, n in recoupled.items() if n)
        detail = (f"Pro(w) = layerwise promotion on the full grid; recoupled "
                  f"words {counts}, each a regrouping of the same blocks; "
                  f"first (ell={ell}, q={q}) word {text}: layers of Pro(w) = "
                  f"{direct}, promoted layers = {rotated}")
    _report(4, "content-rotation-layer-multisets", not problems, detail)


def test_criterion_5_double_arc_laws():
    report = run_suite("doublearcs")
    _report(5, "double-arc-laws", report.passed,
            _failures(report) or "count, endpoint map, deletion commutation")


def test_criterion_6_standardization_law():
    report = run_suite("standardization")
    _report(6, "standardization-law", report.passed,
            _failures(report) or "std(Pro(w)) = Pro^|w1|(std(w)) exhaustively")


def test_criterion_7_rowmotion_order():
    started = time.monotonic()
    report = run_suite("rowmotion")
    elapsed = time.monotonic() - started
    ok = report.passed and elapsed < 120.0
    _report(7, "rowmotion-order-and-flip", ok,
            _failures(report) or
            f"divides 2(k+2), exact at ell=1, row^q = Flip, {elapsed:.1f}s")


def test_criterion_8_equivariance():
    report = run_suite("equivariance")
    _report(8, "equivariance-orbit-multisets", report.passed,
            _failures(report) or "pro-pstrict, togpro, row orbits agree")


def test_criterion_9_property_suites():
    problems = []
    report = run_suite("all")
    if not report.passed:
        problems.append(_failures(report))

    again = run_suite("all")
    report.duration_ms = again.duration_ms = 0
    if report_to_json_text(report) != report_to_json_text(again):
        problems.append("suite report not deterministic")

    word = golden.word69()
    if render_diagram(word, "svg") != render_diagram(word, "svg"):
        problems.append("renderer not deterministic")

    if list(enumerate_labelings(2, 4)) != list(enumerate_labelings(2, 4)):
        problems.append("enumeration not deterministic")

    ext = golden.ext18()
    word18 = to_kreweras(ext)
    if promote_kreweras(to_kreweras(ext)) != to_kreweras(promote_linext(ext)):
        problems.append("promotions fail to intertwine on the figure pair")
    current = word18
    for _ in range(36):
        current = promote_kreweras(current)
    if current != word18:
        problems.append("Pro^36 moved the figure word")

    _report(9, "property-suites", not problems,
            "; ".join(problems) or
            "all suites green; determinism and round trips hold")
