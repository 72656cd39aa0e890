"""Verification suites: every order, rotation, and commutation claim is
checked exhaustively over desk-scale parameter grids, with the first
counterexample reported on failure."""

from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter
from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterable, Iterator

from . import golden
from .kreweras import bump_diagram, from_kreweras, is_crossing, \
    kreweras_number, promote_kreweras, promote_linext, swap_bc_letters, \
    to_kreweras
from .orbits import OrbitReport, orbit_cycles, power_map
from .poset import linear_extensions, make_v, product_with_chain
from .pstrict import enumerate_labelings, promote_pstrict, swap_bc
from .rowmotion import apply_automorphism, enumerate_ppartitions, \
    flip_automorphism, rowmotion, togpro
from .words import delete_double_arc, destandardize, double_arcs, \
    generalized_bump_diagram, labeling_of_word, layer_decomposition, \
    promote_vlayer, promote_word, promote_word_layerwise, rotate_double_arc, \
    same_block_closers_nest, shortest_arc_triples, standardize, swap_bc_word, \
    word_of_labeling

DEFAULT_CEILING = 5_000_000

SUITE_NAMES = ("classical", "main", "layers", "doublearcs", "standardization",
               "rowmotion", "equivariance", "figures")

__all__ = [
    "CeilingExceeded", "ClaimResult", "VerificationReport", "run_suite",
    "orbit_report_for_action", "export_report", "report_from_json",
    "SUITE_NAMES", "DEFAULT_CEILING",
]


class CeilingExceeded(RuntimeError):
    """A claim would enumerate more elements than the configured ceiling."""


def _capped(iterable: Iterable, ceiling: int, what: str) -> Iterator:
    count = 0
    for x in iterable:
        count += 1
        if count > ceiling:
            raise CeilingExceeded(
                f"{what} exceeds the ceiling of {ceiling} elements")
        yield x


@dataclass
class ClaimResult:
    id: str
    params: dict
    ok: bool
    counterexample: dict | None

    def to_json(self) -> dict:
        return {"id": self.id, "params": dict(self.params), "pass": self.ok,
                "counterexample": self.counterexample}


@dataclass
class VerificationReport:
    suite: str
    claims: list[ClaimResult]
    duration_ms: int

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.claims)

    def to_json(self) -> dict:
        return {"suite": self.suite,
                "claims": [c.to_json() for c in self.claims],
                "duration_ms": self.duration_ms}

    @classmethod
    def from_json(cls, data: dict) -> "VerificationReport":
        claims = [ClaimResult(c["id"], dict(c["params"]), c["pass"],
                              c["counterexample"]) for c in data["claims"]]
        return cls(data["suite"], claims, data["duration_ms"])

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.claims:
            status = "PASS" if c.ok else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in c.params.items())
            lines.append(f"[{status}] {c.id}" + (f" ({params})" if params else ""))
        return lines


# -- grid helpers ------------------------------------------------------

def _word_grid(ell_max: int, q_max: int, sum_max: int | None = None):
    for ell in range(1, ell_max + 1):
        for q in range(3, q_max + 1):
            if sum_max is None or ell + q <= sum_max:
                yield ell, q


def _labelings(ell: int, q: int, ceiling: int) -> list:
    return list(_capped(enumerate_labelings(ell, q), ceiling,
                        f"labelings ell={ell} q={q}"))


def _words(ell: int, q: int, ceiling: int) -> list:
    return [word_of_labeling(f) for f in _labelings(ell, q, ceiling)]


def _ppartitions(ell: int, k: int, ceiling: int) -> list:
    poset = product_with_chain(make_v(), k)
    return list(_capped(enumerate_ppartitions(poset, ell), ceiling,
                        f"ppartitions ell={ell} k={k}"))


# -- claim bodies ------------------------------------------------------

def _claim_classical_counts(n_max: int, ceiling: int):
    for n in range(1, n_max + 1):
        poset = product_with_chain(make_v(), n)
        count = sum(1 for _ in _capped(linear_extensions(poset), ceiling,
                                       f"extensions n={n}"))
        if count != kreweras_number(n):
            return {"n": n, "count": count, "expected": kreweras_number(n)}
    return None


def _claim_linext_order(n_max: int, ceiling: int):
    """Order divides 6n everywhere; equals 6n once n >= 2.  At n = 1 the
    action is a single swap of the two extensions, so its order is 2."""
    for n in range(1, n_max + 1):
        poset = product_with_chain(make_v(), n)
        elements = list(_capped(linear_extensions(poset), ceiling,
                                f"extensions n={n}"))
        cycles = orbit_cycles(promote_linext, elements)
        order = lcm(*(len(c) for c in cycles))
        if (6 * n) % order != 0:
            return {"n": n, "order": order, "must_divide": 6 * n}
        if n >= 2 and order != 6 * n:
            return {"n": n, "order": order, "expected": 6 * n}
    return None


def _claim_pro_3n_swaps(n_max: int, ceiling: int):
    """The 3n-th power of promotion exchanges the B's and C's of a word."""
    for n in range(1, n_max + 1):
        poset = product_with_chain(make_v(), n)
        words = [to_kreweras(e) for e in
                 _capped(linear_extensions(poset), ceiling, f"extensions n={n}")]
        cycles = orbit_cycles(promote_kreweras, words)
        for x, y in power_map(cycles, 3 * n).items():
            if y != swap_bc_letters(x):
                return {"n": n, "word": x.letters, "pro_3n": y.letters,
                        "swapped": swap_bc_letters(x).letters}
    return None


def _claim_kreweras_order_matches(n_max: int, ceiling: int):
    """Promotion of words and of extensions have identical cycle structure."""
    for n in range(1, n_max + 1):
        poset = product_with_chain(make_v(), n)
        exts = list(_capped(linear_extensions(poset), ceiling,
                            f"extensions n={n}"))
        ext_sizes = sorted(len(c) for c in orbit_cycles(promote_linext, exts))
        word_sizes = sorted(len(c) for c in orbit_cycles(
            promote_kreweras, [to_kreweras(e) for e in exts]))
        if ext_sizes != word_sizes:
            return {"n": n, "extension_orbits": ext_sizes,
                    "word_orbits": word_sizes}
    return None


def _claim_kreweras_intertwines(n_max: int, ceiling: int):
    for n in range(1, n_max + 1):
        poset = product_with_chain(make_v(), n)
        for ext in _capped(linear_extensions(poset), ceiling,
                           f"extensions n={n}"):
            via_ext = to_kreweras(promote_linext(ext)).letters
            via_word = promote_kreweras(to_kreweras(ext)).letters
            if via_ext != via_word:
                return {"n": n, "word": to_kreweras(ext).letters,
                        "via_extension": via_ext, "via_word": via_word}
    return None


def _claim_kreweras_roundtrip(n_max: int, ceiling: int):
    for n in range(1, n_max + 1):
        poset = product_with_chain(make_v(), n)
        for ext in _capped(linear_extensions(poset), ceiling,
                           f"extensions n={n}"):
            word = to_kreweras(ext)
            if from_kreweras(word) != ext:
                return {"n": n, "word": word.letters}
            if to_kreweras(from_kreweras(word)) != word:
                return {"n": n, "word": word.letters}
    return None


def _claim_pstrict_divides(ell_max: int, q_max: int, sum_max: int | None,
                           ceiling: int):
    for ell, q in _word_grid(ell_max, q_max, sum_max):
        cycles = orbit_cycles(promote_pstrict, _labelings(ell, q, ceiling))
        for cycle in cycles:
            if (2 * q) % len(cycle) != 0:
                return {"ell": ell, "q": q, "orbit_size": len(cycle),
                        "labeling": cycle[0].to_json()}
    return None


def _claim_pstrict_swap(ell_max: int, q_max: int, sum_max: int | None,
                        ceiling: int):
    for ell, q in _word_grid(ell_max, q_max, sum_max):
        cycles = orbit_cycles(promote_pstrict, _labelings(ell, q, ceiling))
        for x, y in power_map(cycles, q).items():
            if y != swap_bc(x):
                return {"ell": ell, "q": q, "labeling": x.to_json(),
                        "pro_q": y.to_json(), "swapped": swap_bc(x).to_json()}
    return None


def _claim_word_swap(ell_max: int, q_max: int, ceiling: int):
    for ell, q in _word_grid(ell_max, q_max):
        for w in _words(ell, q, ceiling):
            target = swap_bc_word(w)
            v = w
            for _ in range(q):
                v = promote_word(v)
            if v != target:
                return {"ell": ell, "q": q, "word": w.to_text(),
                        "pro_q": v.to_text(), "swapped": target.to_text()}
    return None


def _claim_content_rotation(ell_max: int, q_max: int, ceiling: int):
    """Promoting the labeling equals promoting every layer of its word
    and regathering the block counts (fibers reorder, arcs may recouple)."""
    for ell, q in _word_grid(ell_max, q_max):
        for w in _words(ell, q, ceiling):
            direct = promote_word(w)
            layerwise = promote_word_layerwise(w)
            if direct != layerwise:
                return {"ell": ell, "q": q, "word": w.to_text(),
                        "promoted": direct.to_text(),
                        "layerwise": layerwise.to_text()}
    return None


def _claim_double_arc_count(ell_max: int, q_max: int, ceiling: int):
    for ell, q in _word_grid(ell_max, q_max):
        for w in _words(ell, q, ceiling):
            before, after = double_arcs(w), double_arcs(promote_word(w))
            if len(before) != len(after):
                return {"ell": ell, "q": q, "word": w.to_text(),
                        "before": before, "after": after}
    return None


def _claim_double_arc_rotation(ell_max: int, q_max: int, ceiling: int):
    for ell, q in _word_grid(ell_max, q_max):
        for w in _words(ell, q, ceiling):
            expected = sorted(rotate_double_arc(d, q) for d in double_arcs(w))
            actual = double_arcs(promote_word(w))
            if expected != actual:
                return {"ell": ell, "q": q, "word": w.to_text(),
                        "expected": expected, "actual": actual}
    return None


def _claim_double_arc_deletion(ell_max: int, q_max: int, ceiling: int):
    for ell, q in _word_grid(ell_max, q_max):
        if ell < 1:
            continue
        for w in _words(ell, q, ceiling):
            for arc in sorted(set(double_arcs(w))):
                deleted_then_promoted = promote_word(delete_double_arc(w, arc))
                promoted_then_deleted = delete_double_arc(
                    promote_word(w), rotate_double_arc(arc, q))
                if deleted_then_promoted != promoted_then_deleted:
                    return {"ell": ell, "q": q, "word": w.to_text(),
                            "arc": list(arc),
                            "delete_then_promote": deleted_then_promoted.to_text(),
                            "promote_then_delete": promoted_then_deleted.to_text()}
    return None


def _claim_shortest_arc_shift(ell_max: int, q_max: int, ceiling: int):
    for ell, q in _word_grid(ell_max, q_max):
        for w in _words(ell, q, ceiling):
            shifted = Counter((color, a - 1, b - 1)
                              for color, a, b in shortest_arc_triples(w)
                              if a > 1)
            present = Counter(shortest_arc_triples(promote_word(w)))
            if shifted - present:
                return {"ell": ell, "q": q, "word": w.to_text(),
                        "missing": sorted((shifted - present).elements())}
    return None


def _claim_std_pro_commutation(ell_max: int, q_max: int, ceiling: int):
    for ell, q in _word_grid(ell_max, q_max):
        for w in _words(ell, q, ceiling):
            if double_arcs(w):
                continue
            std, _ = standardize(w)
            std_promoted, _ = standardize(promote_word(w))
            k = w.block_size(1)
            iterated = std
            for _ in range(k):
                iterated = promote_kreweras(iterated)
            if std_promoted != iterated:
                return {"ell": ell, "q": q, "word": w.to_text(),
                        "k": k, "std_of_promoted": std_promoted.letters,
                        "promoted_std": iterated.letters}
    return None


def _claim_std_valid(ell_max: int, q_max: int, ceiling: int):
    for ell, q in _word_grid(ell_max, q_max):
        for w in _words(ell, q, ceiling):
            if double_arcs(w):
                continue
            try:
                std, sizes = standardize(w)
            except ValueError as exc:
                return {"ell": ell, "q": q, "word": w.to_text(),
                        "error": str(exc)}
            if not same_block_closers_nest(std, sizes):
                return {"ell": ell, "q": q, "word": w.to_text(),
                        "std": std.letters, "error": "same-block arcs cross"}
    return None


def _claim_destandardize_roundtrip(ell_max: int, q_max: int, ceiling: int):
    for ell, q in _word_grid(ell_max, q_max):
        for w in _words(ell, q, ceiling):
            if double_arcs(w):
                continue
            std, sizes = standardize(w)
            if destandardize(std, sizes) != w:
                return {"ell": ell, "q": q, "word": w.to_text(),
                        "std": std.letters, "sizes": list(sizes)}
    return None


def _claim_std_order_unique(ell_max: int, q_max: int, ceiling: int):
    """Any adjacent transposition of same-block closers makes two arcs
    ending in that block cross, so the nesting order is forced."""
    for ell, q in _word_grid(ell_max, q_max):
        for w in _words(ell, q, ceiling):
            if double_arcs(w):
                continue
            diagram = generalized_bump_diagram(w)
            opener_of = {c: o for o, c in diagram.arcs_b}
            opener_of.update({c: o for o, c in diagram.arcs_c})
            std, sizes = standardize(w)
            block_start = [0]
            for size in sizes:
                block_start.append(block_start[-1] + size)
            std_diagram = bump_diagram(std)
            std_opener = {c: o for o, c in std_diagram.arcs_b}
            std_opener.update({c: o for o, c in std_diagram.arcs_c})
            for bi in range(len(sizes)):
                closers = [pos for pos in range(block_start[bi] + 1,
                                                block_start[bi + 1] + 1)
                           if std.letters[pos - 1] != "A"]
                for x, y in zip(closers, closers[1:]):
                    swapped = [(std_opener[x], y), (std_opener[y], x)]
                    if not is_crossing(*swapped):
                        return {"ell": ell, "q": q, "word": w.to_text(),
                                "block": bi + 1, "positions": [x, y]}
    return None


def _row_cycles(ell: int, k: int, ceiling: int):
    return orbit_cycles(rowmotion, _ppartitions(ell, k, ceiling))


def _claim_row_divides(ell_max: int, k_max: int, ceiling: int):
    for ell in range(1, ell_max + 1):
        for k in range(1, k_max + 1):
            for cycle in _row_cycles(ell, k, ceiling):
                if (2 * (k + 2)) % len(cycle) != 0:
                    return {"ell": ell, "k": k, "orbit_size": len(cycle),
                            "partition": cycle[0].to_json()}
    return None


def _claim_row_exact(k_max: int, ceiling: int):
    for k in range(1, k_max + 1):
        cycles = _row_cycles(1, k, ceiling)
        order = lcm(*(len(c) for c in cycles))
        if order != 2 * (k + 2):
            return {"ell": 1, "k": k, "order": order, "expected": 2 * (k + 2)}
    return None


def _claim_row_flip(ell_max: int, q_max: int, ceiling: int):
    for ell, q in _word_grid(ell_max, q_max):
        poset = product_with_chain(make_v(), q - 2)
        flip = flip_automorphism(poset)
        cycles = _row_cycles(ell, q - 2, ceiling)
        for x, y in power_map(cycles, q).items():
            if y != apply_automorphism(flip, x):
                return {"ell": ell, "q": q, "partition": x.to_json(),
                        "row_q": y.to_json(),
                        "flipped": apply_automorphism(flip, x).to_json()}
    return None


def _claim_row_extension_independent(ceiling: int):
    cases = [(1, 2), (2, 1)]  # (ell, k)
    for ell, k in cases:
        poset = product_with_chain(make_v(), k)
        exts = list(_capped(linear_extensions(poset), ceiling,
                            f"extensions k={k}"))
        for f in _ppartitions(ell, k, ceiling):
            images = {rowmotion(f, ext) for ext in exts}
            if len(images) != 1:
                return {"ell": ell, "k": k, "partition": f.to_json(),
                        "distinct_images": len(images)}
    return None


def _claim_togpro_flip(ell_max: int, q_max: int, ceiling: int):
    for ell, q in _word_grid(ell_max, q_max):
        poset = product_with_chain(make_v(), q - 2)
        flip = flip_automorphism(poset)
        cycles = orbit_cycles(lambda f: togpro(f, q),
                              _ppartitions(ell, q - 2, ceiling))
        for x, y in power_map(cycles, q).items():
            if y != apply_automorphism(flip, x):
                return {"ell": ell, "q": q, "partition": x.to_json()}
    return None


def _claim_equivariance(ell_max: int, q_max: int, ceiling: int):
    for ell, q in _word_grid(ell_max, q_max):
        sizes = {}
        cycles = orbit_cycles(promote_pstrict, _labelings(ell, q, ceiling))
        sizes["pro-pstrict"] = sorted((len(c) for c in cycles), reverse=True)
        cycles = _row_cycles(ell, q - 2, ceiling)
        sizes["row"] = sorted((len(c) for c in cycles), reverse=True)
        cycles = orbit_cycles(lambda f: togpro(f, q),
                              _ppartitions(ell, q - 2, ceiling))
        sizes["togpro"] = sorted((len(c) for c in cycles), reverse=True)
        if not (sizes["pro-pstrict"] == sizes["row"] == sizes["togpro"]):
            return {"ell": ell, "q": q, "sizes": dict(sizes)}
    return None


# -- figure claims -----------------------------------------------------

def _figure_mismatch(name, expected, actual):
    if expected != actual:
        return {"item": name, "expected": expected, "actual": actual}
    return None


def _claim_figure_promotion_pair(_ceiling: int):
    promoted = promote_linext(golden.ext18())
    return _figure_mismatch("extension-promotion",
                            golden.ext18_promoted().labels, promoted.labels)


def _claim_figure_kreweras_pair(_ceiling: int):
    word = to_kreweras(golden.ext18())
    bad = _figure_mismatch("word-of-extension", golden.WORD18, word.letters)
    if bad:
        return bad
    bad = _figure_mismatch("promoted-word", golden.WORD18_PROMOTED,
                           promote_kreweras(word).letters)
    if bad:
        return bad
    return _figure_mismatch("extension-of-word",
                            golden.ext18().labels,
                            from_kreweras(word).labels)


def _claim_figure_bump_arcs(_ceiling: int):
    diagram = bump_diagram(golden.word18())
    bad = _figure_mismatch("solid-arcs", sorted(golden.ARCS18_B),
                           sorted(diagram.arcs_b))
    if bad:
        return bad
    return _figure_mismatch("dashed-arcs", sorted(golden.ARCS18_C),
                            sorted(diagram.arcs_c))


def _claim_figure_word_labeling(_ceiling: int):
    word = golden.word69()
    bad = _figure_mismatch("word-of-labeling", word.to_text(),
                           word_of_labeling(golden.labeling69()).to_text())
    if bad:
        return bad
    return _figure_mismatch("labeling-of-word",
                            golden.labeling69().fibers,
                            labeling_of_word(word).fibers)


def _claim_figure_layers(_ceiling: int):
    layers = tuple(layer.as_tuple() for layer in layer_decomposition(golden.word69()))
    return _figure_mismatch("layers", golden.LAYERS69, layers)


def _claim_figure_promoted_layers(_ceiling: int):
    rotated = tuple(sorted(promote_vlayer(layer, 9).as_tuple()
                           for layer in layer_decomposition(golden.word69())))
    bad = _figure_mismatch("promoted-layers", golden.LAYERS69_PROMOTED, rotated)
    if bad:
        return bad
    promoted = tuple(layer.as_tuple()
                     for layer in layer_decomposition(promote_word(golden.word69())))
    return _figure_mismatch("layers-of-promoted-word",
                            golden.LAYERS69_PROMOTED, promoted)


def _claim_figure_promoted_word(_ceiling: int):
    promoted = promote_word(golden.word69())
    bad = _figure_mismatch("promoted-word", golden.WORD69_PROMOTED_TEXT,
                           promoted.to_text())
    if bad:
        return bad
    via_labeling = word_of_labeling(promote_pstrict(golden.labeling69()))
    return _figure_mismatch("promoted-labeling", golden.WORD69_PROMOTED_TEXT,
                            via_labeling.to_text())


def _claim_figure_double_arcs(_ceiling: int):
    word = golden.word69()
    bad = _figure_mismatch("double-arcs", golden.WORD69_DOUBLE_ARCS,
                           double_arcs(word))
    if bad:
        return bad
    deleted = delete_double_arc(word, (3, 4))
    bad = _figure_mismatch("deleted-word", golden.WORD69_DELETED_TEXT,
                           deleted.to_text())
    if bad:
        return bad
    return _figure_mismatch("rotated-double-arc", [(2, 3)],
                            double_arcs(promote_word(word)))


def _claim_figure_standardization(_ceiling: int):
    from .words import PartialMultiKrewerasWord

    for text, expected_word, expected_sizes in golden.STD_PAIRS:
        w = PartialMultiKrewerasWord.from_text(text)
        std, sizes = standardize(w)
        if std.letters != expected_word or sizes != expected_sizes:
            return {"item": text, "expected": [expected_word,
                                               list(expected_sizes)],
                    "actual": [std.letters, list(sizes)]}
        if destandardize(std, sizes) != w:
            return {"item": text, "error": "round trip failed"}
    return None


# -- suite registry ----------------------------------------------------

@dataclass
class _Claim:
    id: str
    params: dict
    run: Callable[[], dict | None]


def _given(value: int | None, default: int) -> int:
    return default if value is None else value


def _build_suite(name: str, ell_max: int | None, q_max: int | None,
                 sum_max: int | None, ceiling: int) -> list[_Claim]:
    claims: list[_Claim] = []

    def add(cid, params, fn):
        claims.append(_Claim(cid, params, fn))

    if name == "classical":
        n_count, n_orbit = 4, 3
        add("classical-count-formula", {"n_max": n_count},
            lambda: _claim_classical_counts(n_count, ceiling))
        add("classical-order-6n", {"n_max": n_orbit},
            lambda: _claim_linext_order(n_orbit, ceiling))
        add("classical-pro-3n-swaps-bc", {"n_max": n_orbit},
            lambda: _claim_pro_3n_swaps(n_orbit, ceiling))
        add("kreweras-orbits-match-linext", {"n_max": n_orbit},
            lambda: _claim_kreweras_order_matches(n_orbit, ceiling))
        add("kreweras-intertwines", {"n_max": n_orbit},
            lambda: _claim_kreweras_intertwines(n_orbit, ceiling))
        add("kreweras-roundtrip", {"n_max": n_orbit},
            lambda: _claim_kreweras_roundtrip(n_orbit, ceiling))
    elif name == "main":
        em, qm = _given(ell_max, 3), _given(q_max, 7)
        sm = _given(sum_max, 10)
        grid = {"ell_max": em, "q_max": qm, "sum_max": sm}
        add("pstrict-order-divides-2q", grid,
            lambda: _claim_pstrict_divides(em, qm, sm, ceiling))
        add("pstrict-pro-q-is-bc-swap", grid,
            lambda: _claim_pstrict_swap(em, qm, sm, ceiling))
    elif name == "layers":
        em, qm = _given(ell_max, 2), _given(q_max, 6)
        add("content-rotation", {"ell_max": em, "q_max": qm},
            lambda: _claim_content_rotation(em, qm, ceiling))
    elif name == "doublearcs":
        em, qm = _given(ell_max, 2), _given(q_max, 6)
        grid = {"ell_max": em, "q_max": qm}
        add("double-arc-count-invariant", grid,
            lambda: _claim_double_arc_count(em, qm, ceiling))
        add("double-arc-rotation", grid,
            lambda: _claim_double_arc_rotation(em, qm, ceiling))
        add("double-arc-deletion-commutes", grid,
            lambda: _claim_double_arc_deletion(em, qm, ceiling))
        add("shortest-arc-shift", grid,
            lambda: _claim_shortest_arc_shift(em, qm, ceiling))
    elif name == "standardization":
        em, qm = _given(ell_max, 2), _given(q_max, 6)
        grid = {"ell_max": em, "q_max": qm}
        add("std-pro-commutation", grid,
            lambda: _claim_std_pro_commutation(em, qm, ceiling))
        add("std-valid-kreweras", grid,
            lambda: _claim_std_valid(em, qm, ceiling))
        add("destandardize-roundtrip", grid,
            lambda: _claim_destandardize_roundtrip(em, qm, ceiling))
        add("std-order-unique", grid,
            lambda: _claim_std_order_unique(em, qm, ceiling))
        add("word-pro-q-is-bc-swap", grid,
            lambda: _claim_word_swap(em, qm, ceiling))
    elif name == "rowmotion":
        em = _given(ell_max, 3)
        km = _given(q_max, 5) - 2  # partitions of V x [q - 2]
        add("row-order-divides", {"ell_max": em, "k_max": km},
            lambda: _claim_row_divides(em, km, ceiling))
        add("row-order-exact-ell1", {"k_max": km},
            lambda: _claim_row_exact(km, ceiling))
        fm = em if ell_max is not None else 2
        fq = _given(q_max, 6)
        add("row-q-is-flip", {"ell_max": fm, "q_max": fq},
            lambda: _claim_row_flip(fm, fq, ceiling))
        add("row-extension-independent", {},
            lambda: _claim_row_extension_independent(ceiling))
    elif name == "equivariance":
        em, qm = _given(ell_max, 2), _given(q_max, 6)
        grid = {"ell_max": em, "q_max": qm}
        add("orbit-multisets-agree", grid,
            lambda: _claim_equivariance(em, qm, ceiling))
        add("togpro-q-is-flip", grid,
            lambda: _claim_togpro_flip(em, qm, ceiling))
    elif name == "figures":
        for cid, fn in (
                ("figure-promotion-pair", _claim_figure_promotion_pair),
                ("figure-kreweras-pair", _claim_figure_kreweras_pair),
                ("figure-bump-arcs", _claim_figure_bump_arcs),
                ("figure-word-labeling", _claim_figure_word_labeling),
                ("figure-layers", _claim_figure_layers),
                ("figure-promoted-layers", _claim_figure_promoted_layers),
                ("figure-promoted-word", _claim_figure_promoted_word),
                ("figure-double-arcs", _claim_figure_double_arcs),
                ("figure-standardization", _claim_figure_standardization)):
            add(cid, {}, (lambda f: lambda: f(ceiling))(fn))
    else:
        raise ValueError(f"unknown suite {name!r}")
    return claims


def run_suite(suite: str, ell_max: int | None = None,
              q_max: int | None = None, sum_max: int | None = None,
              ceiling: int = DEFAULT_CEILING) -> VerificationReport:
    """Run one named suite (or 'all') and collect per-claim results."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in SUITE_NAMES:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {', '.join(SUITE_NAMES + ('all',))}")
    # below these no grid point is left, and a claim would check nothing
    for flag, value, least in (("ell_max", ell_max, 1), ("q_max", q_max, 3),
                               ("sum_max", sum_max, 4)):
        if value is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    started = time.monotonic()
    results = []
    for name in names:
        for claim in _build_suite(name, ell_max, q_max, sum_max, ceiling):
            counterexample = claim.run()
            results.append(ClaimResult(claim.id, claim.params,
                                       counterexample is None, counterexample))
    duration_ms = int((time.monotonic() - started) * 1000)
    return VerificationReport(suite, results, duration_ms)


# -- orbit reports for the CLI ----------------------------------------

def orbit_report_for_action(action: str, ell: int, q: int | None = None,
                            ceiling: int = DEFAULT_CEILING) -> OrbitReport:
    """Orbit statistics plus the applicable order/symmetry checks."""
    checks: dict[str, bool] = {}
    counterexamples: dict = {}

    if action in ("pro-linext", "pro-kreweras"):
        n = ell
        poset = product_with_chain(make_v(), n)
        exts = list(_capped(linear_extensions(poset), ceiling,
                            f"extensions n={n}"))
        if action == "pro-linext":
            elements, step = exts, promote_linext
        else:
            elements, step = [to_kreweras(e) for e in exts], promote_kreweras
        cycles = orbit_cycles(step, elements)
        params = {"ell": n, "q": 3 * n}
        order = lcm(*(len(c) for c in cycles)) if cycles else 1
        checks["order_divides_6n"] = (6 * n) % order == 0
        checks["order_equals_6n"] = order == 6 * n
        checks["count_matches_formula"] = len(elements) == kreweras_number(n)
    elif action == "pro-pstrict":
        if q is None:
            raise ValueError("pro-pstrict needs q")
        elements = _labelings(ell, q, ceiling)
        cycles = orbit_cycles(promote_pstrict, elements)
        params = {"ell": ell, "q": q}
        checks["order_divides_2q"] = all((2 * q) % len(c) == 0 for c in cycles)
        bad = next((x for x, y in power_map(cycles, q).items()
                    if y != swap_bc(x)), None)
        checks["pro_q_is_bc_swap"] = bad is None
        if bad is not None:
            counterexamples["pro_q_is_bc_swap"] = bad.to_json()
    elif action in ("row", "togpro"):
        if q is None:
            raise ValueError(f"{action} needs q")
        poset = product_with_chain(make_v(), q - 2)
        elements = _ppartitions(ell, q - 2, ceiling)
        step = rowmotion if action == "row" else (lambda f: togpro(f, q))
        cycles = orbit_cycles(step, elements)
        params = {"ell": ell, "q": q}
        checks["order_divides_2q"] = all((2 * q) % len(c) == 0 for c in cycles)
        flip = flip_automorphism(poset)
        bad = next((x for x, y in power_map(cycles, q).items()
                    if y != apply_automorphism(flip, x)), None)
        checks[f"{action}_q_is_flip"] = bad is None
        if bad is not None:
            counterexamples[f"{action}_q_is_flip"] = bad.to_json()
    else:
        raise ValueError(f"unknown action {action!r}")

    sizes = tuple(sorted((len(c) for c in cycles), reverse=True))
    return OrbitReport(action=action, params=params, count=sum(sizes),
                       orbit_sizes=sizes,
                       order=lcm(*sizes) if sizes else 1,
                       checks=checks, counterexamples=counterexamples)


# -- persistence -------------------------------------------------------

def report_to_json_text(report) -> str:
    return json.dumps(report.to_json(), indent=2) + "\n"


def report_from_json(data: dict):
    """Rebuild an OrbitReport or VerificationReport from its JSON form."""
    if "orbit_sizes" in data:
        return OrbitReport.from_json(data)
    if "claims" in data:
        return VerificationReport.from_json(data)
    raise ValueError("not a recognizable report")


def report_to_csv_text(report) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if isinstance(report, OrbitReport):
        writer.writerow(["action", "params", "count", "orbit_sizes", "order",
                         "checks"])
        writer.writerow([
            report.action, json.dumps(report.params, sort_keys=True),
            report.count, ";".join(map(str, report.orbit_sizes)), report.order,
            ";".join(f"{k}={v}" for k, v in sorted(report.checks.items()))])
    elif isinstance(report, VerificationReport):
        writer.writerow(["suite", "claim", "params", "pass", "counterexample"])
        for c in report.claims:
            writer.writerow([report.suite, c.id,
                             json.dumps(c.params, sort_keys=True),
                             c.ok, json.dumps(c.counterexample)])
    else:
        raise TypeError(f"cannot export {type(report).__name__}")
    return out.getvalue()


def export_report(report, path, fmt: str) -> None:
    """Write a report as JSON or CSV; JSON round-trips via report_from_json."""
    if fmt == "json":
        text = report_to_json_text(report)
    elif fmt == "csv":
        text = report_to_csv_text(report)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
