"""Verification suites: every order, rotation, and commutation claim is
checked exhaustively over desk-scale parameter grids, with the first
counterexample reported on failure.

Each action with tables is one _Action record: its family, which
_FAMILIES lists at a grid point, its step, and its B/C mirror law.  A
claim is a predicate over the tables and lists it reads, in that order.
A table holds one action's cycles at one grid point, as arrays of
positions in enumeration order; it takes an image for an element only if
it has the element's class, owner and ell.  On V (labelings and
partitions) the point's rank table (poset._Ranks) gives each image's
position from its three columns and builds the element at a position,
so no element is listed or kept: each cycle's walk builds its start
from its rank and steps each image in turn, and the word claims,
row-extension-independent and a counterexample build what they read
from its rank.  The extensions and their Kreweras words are kept in a
list and found by equality.
run_suite is point-major: at each grid point it makes each family's list
or rank table once, builds the tables its claims still passing read,
hands each claim its tables and lists and drops them all before the next
point, so each object is stepped once per run and one point's lists and
tables are alive at a time.  Predicates read step^q of an element q
places along its cycle and compare it with the B/C mirror image: on V by
position, the triple (A, B, C) at start + i·m + j against the one at
start + j·m + i, elsewhere by equality.  A block word is a labeling read
by label, so the word laws read the labeling table, which builds each
word's arc data on first read: its sorted layers and double arcs and,
absent double arcs, its standardization, for w and for Pro(w) alike.  A
claim reports its first failing element in enumeration order.
orbit_report_for_action shares tables and predicates.
"""

from __future__ import annotations

import csv
import io
import json
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import islice
from math import lcm
from typing import Callable, NamedTuple

from . import golden, pstrict as _pstrict_module, \
    rowmotion as _rowmotion_module
from .kreweras import bump_diagram, from_kreweras, is_crossing, \
    kreweras_number, promote_kreweras, promote_linext, swap_bc_letters, \
    to_kreweras
from .orbits import ActionError, OrbitReport, _json_field, orbit_cycles, \
    power_map
from .poset import _Memo, _Ranks, linear_extensions, make_v, \
    product_with_chain
from .pstrict import promote_pstrict, swap_bc
from .rowmotion import apply_automorphism, flip_automorphism, rowmotion, \
    togpro
from .words import PartialMultiKrewerasWord, _blocks_text, _deleted, \
    _double_arcs, _layerwise_blocks, _shortest_arcs, \
    delete_double_arc, destandardize, double_arcs, labeling_of_word, \
    layer_decomposition, promote_vlayer, promote_word, rotate_double_arc, \
    same_block_closers_nest, standardize, swap_bc_word, word_of_labeling

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
        claims = [ClaimResult(_json_field(c, "id", str),
                              dict(_json_field(c, "params", dict)),
                              _json_field(c, "pass", bool),
                              _json_field(c, "counterexample", dict,
                                          type(None)))
                  for c in _json_field(data, "claims", list, of=(dict,))]
        return cls(_json_field(data, "suite", str), claims,
                   _json_field(data, "duration_ms", int))

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.claims:
            status = "PASS" if c.ok else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in c.params.items())
            lines.append(f"[{status}] {c.id}" + (f" ({params})" if params else ""))
        return lines


# -- grid helpers ------------------------------------------------------

def _word_grid(ell_max: int, q_max: int,
               sum_max: int | None = None) -> list[tuple[int, int]]:
    return [(ell, q) for ell in range(1, ell_max + 1)
            for q in range(3, q_max + 1)
            if sum_max is None or ell + q <= sum_max]


class _Family(NamedTuple):
    """A family's elements at a grid point (ell, q), named by ``name`` in
    a ceiling message.  Off V, ``listing`` lists them lazily by this
    module's names as bound when called, and a table finds each image in
    the kept list.  On V, ``ranks`` gives their rank table (a sequence of
    them) and locate, or None past the ceiling, and a table finds each
    image by rank."""

    name: Callable
    listing: Callable | None = None
    ranks: Callable | None = None


# The extensions of V x [n] at (n, 3n), the labelings of V x [ell] in [q]
# and the partitions of V x [q - 2] bounded by ell at (ell, q).
_FAMILIES = {
    "extensions": _Family(
        lambda n, q: f"extensions n={n}",
        lambda n, q: linear_extensions(product_with_chain(make_v(), n))),
    "labelings": _Family(
        lambda ell, q: f"labelings ell={ell} q={q}",
        ranks=lambda ell, q, ceiling: _pstrict_module._v_ranks(
            ell, q, ceiling)),
    "ppartitions": _Family(
        lambda ell, q: f"ppartitions ell={ell} k={q - 2}",
        ranks=lambda ell, q, ceiling: _rowmotion_module._v_ranks(
            product_with_chain(make_v(), q - 2), ell, ceiling)),
}


def _listed(family: str, ell: int, q: int, ceiling: int):
    """A family's list at a point, or on V its (ranks, locate), made
    before any element is built; raises CeilingExceeded past the
    ceiling."""
    f = _FAMILIES[family]
    if f.ranks is None:
        found = list(islice(f.listing(ell, q), ceiling + 1))
        if len(found) <= ceiling:
            return found
    elif (found := f.ranks(ell, q, ceiling)) is not None:
        return found
    raise CeilingExceeded(f"{f.name(ell, q)} exceeds the ceiling of "
                          f"{ceiling} elements")


def _lists(ell: int, q: int, ceiling: int) -> _Memo:
    """A point's element lists, or (ranks, locate), by family, each made
    on first read.  The fill closes over the point, not the memo, so no
    cycle keeps it alive."""
    return _Memo(lambda family: _listed(family, ell, q, ceiling))


# -- orbit tables ------------------------------------------------------

class _Arcs(NamedTuple):
    """A word's arc data: its sorted layers and double arcs and, when it
    has no double arc, its standardization (std, sizes) or the ValueError
    standardize raised."""

    word: PartialMultiKrewerasWord
    layers: tuple
    arcs: list
    std: tuple | ValueError | None


def _arcs(w: PartialMultiKrewerasWord) -> _Arcs:
    """Reads layer_decomposition and standardize as bound in this module."""
    layers = layer_decomposition(w)
    arcs, std = _double_arcs(layers), None
    if not arcs:
        try:
            std = standardize(w)
        except ValueError as exc:
            std = exc
    return _Arcs(w, layers, arcs, std)


@dataclass
class _Table:
    """The orbits of one action at one grid point: the cycles as arrays of
    positions in enumeration order, and the elements, kept in a list or,
    on V, the rank table (poset._Ranks) that placed them, which builds
    the element at a position when read.  A labeling table builds its
    words and their _Arcs on first read."""

    action: str
    ell: int
    q: int
    elements: list | _Ranks
    cycles: list

    @cached_property
    def words(self) -> list:
        return list(map(word_of_labeling, self.elements))

    @cached_property
    def arcs(self) -> list:
        return list(map(_arcs, self.words))

    def power(self, t: int, of: list | None = None) -> list:
        """step^t of each element, in enumeration order; given ``of``,
        aligned with the elements, the entry of ``of`` at each step^t."""
        of = self.elements if of is None else of
        return list(map(of.__getitem__, power_map(self.cycles, t)))

    def sizes(self) -> list[int]:
        return sorted((len(c) for c in self.cycles), reverse=True)


def _at(t: _Table) -> dict:
    return {"ell": t.ell, "q": t.q}


class _Action(NamedTuple):
    """An action with tables.  Its elements are its ``family``'s, each
    through ``read`` if given; ``step(q)`` is the step, read when a table
    is built.  Off V, ``mirror`` maps an element to its B/C mirror image;
    on V the rank table pairs them.  ``report(t, x, step^q(x))`` is the
    mirror law's counterexample."""

    family: str
    step: Callable
    mirror: Callable | None = None
    report: Callable | None = None
    read: Callable | None = None


# The actions with tables, in the order they are built at a grid point.
# The Kreweras word of an extension sits at the extension's position, and
# block words of V x [ell] are the pro-pstrict labelings at (ell, q).
_ACTIONS = {
    "pro-linext": _Action("extensions", lambda q: promote_linext),
    "pro-kreweras": _Action(
        "extensions", lambda q: promote_kreweras, swap_bc_letters,
        lambda t, x, y: {"n": t.ell, "word": x.letters, "pro_3n": y.letters,
                         "swapped": swap_bc_letters(x).letters},
        lambda e: to_kreweras(e)),
    "pro-pstrict": _Action(
        "labelings", lambda q: promote_pstrict,
        report=lambda t, x, y: {**_at(t), "labeling": x.to_json(),
                                "pro_q": y.to_json(),
                                "swapped": swap_bc(x).to_json()}),
    "row": _Action(
        "ppartitions", lambda q: rowmotion,
        report=lambda t, x, y: {
            **_at(t), "partition": x.to_json(), "row_q": y.to_json(),
            "flipped": apply_automorphism(flip_automorphism(x.poset),
                                          x).to_json()}),
    "togpro": _Action(
        "ppartitions", lambda q: lambda f: togpro(f, q),
        report=lambda t, x, y: {**_at(t), "partition": x.to_json()}),
}


def _table(action: str, ell: int, q: int, lists: _Memo) -> _Table:
    """Step each element of the point once, along its cycle: on V from
    each cycle's start, built from its rank, each image found by the
    point's rank table, elsewhere in the point's ``lists``.  The step, the
    read and the arc data's functions when first read, are looked up in
    this module, so a rebound name is used."""
    a = _ACTIONS[action]
    if _FAMILIES[a.family].ranks is not None:
        ranks, locate = lists[a.family]
        return _Table(action, ell, q, ranks,
                      orbit_cycles(a.step(q), ranks, locate=locate))
    elements = lists[a.family]
    if a.read is not None:
        elements = list(map(a.read, elements))
    return _Table(action, ell, q, elements,
                  orbit_cycles(a.step(q), elements))


def _unmirrored(t: _Table):
    """(x, step^q(x)) for the first x, in enumeration order, whose step^q
    is not its B/C mirror image, or None.  On V it compares positions,
    one cycle at a time: step^q moves each position q places along its
    cycle, and must reach the position of its B/C swap
    (poset._Ranks.mirror); elsewhere it compares elements."""
    if isinstance(t.elements, _Ranks):
        mirror, bad = t.elements.mirror(), []
        for cycle in t.cycles:
            s = t.q % len(cycle)
            image = cycle[s:] + cycle[:s]
            if array("q", map(mirror.__getitem__, cycle)) != image:
                bad.append(min((p, y) for p, y in zip(cycle, image)
                               if mirror[p] != y))
        if not bad:
            return None
        p, y = min(bad)
        return t.elements[p], t.elements[y]
    mirror = _ACTIONS[t.action].mirror
    return next(((x, y) for x, y in zip(t.elements, t.power(t.q))
                 if y != mirror(x)), None)


# -- claim predicates over a table ------------------------------------

def _q_is_mirror(t: _Table, report=None):
    """step^q is the B/C swap of a labeling or word, or the flip of a
    partition; ``report`` builds the counterexample in the action's place."""
    bad = _unmirrored(t)
    return bad and (report or _ACTIONS[t.action].report)(t, *bad)


def _in_words(t: _Table, f, g):
    """A labeling's fibers list its word's block indices, so the fiber swap
    is the block swap: the swap law's counterexample read in words."""
    x, y = word_of_labeling(f), word_of_labeling(g)
    return {**_at(t), "word": x.to_text(), "pro_q": y.to_text(),
            "swapped": swap_bc_word(x).to_text()}


def _pstrict_order(t: _Table):
    """Every orbit size divides 2q; names the earliest element of the
    first orbit that does not."""
    for cycle in t.cycles:
        if (2 * t.q) % len(cycle):
            return {**_at(t), "orbit_size": len(cycle),
                    "labeling": t.elements[cycle[0]].to_json()}
    return None


def _row_order(t: _Table):
    """Every orbit size divides 2(k + 2) on V x [k]."""
    for cycle in t.cycles:
        if (2 * t.q) % len(cycle):
            return {"ell": t.ell, "k": t.q - 2, "orbit_size": len(cycle),
                    "partition": t.elements[cycle[0]].to_json()}
    return None


def _linext_order(t: _Table):
    """Order divides 6n everywhere; equals 6n once n >= 2.  At n = 1 the
    action is a single swap of the two extensions, so its order is 2."""
    n, order = t.ell, lcm(*t.sizes())
    if (6 * n) % order != 0:
        return {"n": n, "order": order, "must_divide": 6 * n}
    if n >= 2 and order != 6 * n:
        return {"n": n, "order": order, "expected": 6 * n}
    return None


def _kreweras_intertwines(linext: _Table, words: _Table):
    """The word of Pro(e) is Pro of the word of e.  The word table holds
    the word of each extension at its position, so the word of Pro(e) is
    read along the extension table's cycles."""
    for word, via_ext, via_word in zip(words.elements,
                                       linext.power(1, words.elements),
                                       words.power(1)):
        if via_ext != via_word:
            return {"n": words.ell, "word": word.letters,
                    "via_extension": via_ext.letters,
                    "via_word": via_word.letters}
    return None


def _classical_count(exts: list):
    n = exts[0].m // 3  # V x [n] has 3n elements
    if len(exts) != kreweras_number(n):
        return {"n": n, "count": len(exts), "expected": kreweras_number(n)}
    return None


def _kreweras_roundtrip(exts: list):
    for ext in exts:
        word = to_kreweras(ext)
        if from_kreweras(word) != ext:  # then word is to_kreweras of it too
            return {"n": ext.m // 3, "word": word.letters}
    return None


def _row_extension_independent(ceiling: int, t: _Table):
    """Sweeps along every extension of V x [k] give the table's image.
    The sweeps are the rowmotion module's own, so rebinding this module's
    rowmotion changes the table only."""
    exts = _lists(t.q - 2, 3 * (t.q - 2), ceiling)["extensions"]
    row = _rowmotion_module.rowmotion
    for f, image in zip(t.elements, t.power(1)):
        images = {image, *(row(f, ext) for ext in exts)}
        if len(images) != 1:
            return {"ell": t.ell, "k": t.q - 2, "partition": f.to_json(),
                    "distinct_images": len(images)}
    return None


def _row_exact(t: _Table):
    order = lcm(*t.sizes())
    if order != 2 * t.q:
        return {"ell": t.ell, "k": t.q - 2, "order": order,
                "expected": 2 * t.q}
    return None


def _kreweras_orbits_match(linext: _Table, words: _Table):
    """Kreweras words have the orbit sizes of their extensions."""
    if linext.sizes() != words.sizes():
        return {"n": words.ell, "extension_orbits": sorted(linext.sizes()),
                "word_orbits": sorted(words.sizes())}
    return None


def _orbit_multisets_agree(pstrict: _Table, row: _Table, togpro: _Table):
    """P-strict promotion, rowmotion and toggle-promotion have the same
    orbit sizes."""
    sizes = {t.action: t.sizes() for t in (pstrict, row, togpro)}
    if not sizes["pro-pstrict"] == sizes["row"] == sizes["togpro"]:
        return {**_at(togpro), "sizes": sizes}
    return None


def _per_word(check, arcless: bool = False):
    """A table predicate applying ``check(x, y, q)`` to the _Arcs x of
    every word and y of its Pro(w), or with ``arcless`` to every word
    without double arcs, failing at a word whose standardization raised."""
    def predicate(t: _Table):
        for x, y in zip(t.arcs, t.power(1, t.arcs)):
            if arcless and x.arcs:
                continue
            bad = ({"error": str(x.std)}
                   if arcless and isinstance(x.std, ValueError)
                   else check(x, y, t.q))
            if bad is not None:
                return {"ell": t.ell, "q": t.q, "word": x.word.to_text(),
                        **bad}
        return None
    return predicate


def _content_rotation(x, y, q):
    """Promoting the labeling equals promoting every layer of its word
    and regathering the block counts (fibers reorder, arcs may recouple)."""
    layerwise = _layerwise_blocks(x.layers, q)
    if y.word.blocks != layerwise:
        return {"promoted": y.word.to_text(),
                "layerwise": _blocks_text(layerwise)}
    return None


def _double_arc_count(x, y, q):
    if len(x.arcs) != len(y.arcs):
        return {"before": x.arcs, "after": y.arcs}
    return None


def _double_arc_rotation(x, y, q):
    expected = sorted(rotate_double_arc(d, q) for d in x.arcs)
    if expected != y.arcs:
        return {"expected": expected, "actual": y.arcs}
    return None


def _double_arc_deletion(t: _Table):
    """Pro of each deleted word, an (ell - 1, q) word, is computed once
    per table.  A rotated arc missing from Pro(w) fails the claim."""
    promote = cache(promote_word)

    def check(x, y, q):
        for arc in sorted(set(x.arcs)):
            delete_then_promote = promote(_deleted(x.word, arc))
            rotated = rotate_double_arc(arc, q)
            promoted_then_deleted = (_deleted(y.word, rotated)
                                     if rotated in y.arcs else None)
            if delete_then_promote != promoted_then_deleted:
                return {"arc": list(arc),
                        "delete_then_promote": delete_then_promote.to_text(),
                        "promote_then_delete": promoted_then_deleted
                        and promoted_then_deleted.to_text()}
        return None
    return _per_word(check)(t)


def _shortest_arc_shift(x, y, q):
    shifted = Counter((color, a - 1, b - 1)
                      for color, a, b in _shortest_arcs(x.layers) if a > 1)
    missing = shifted - Counter(_shortest_arcs(y.layers))
    if missing:
        return {"missing": sorted(missing.elements())}
    return None


def _std_pro_commutation(x, y, q):
    (std, _), (std_promoted, _) = x.std, y.std
    k = x.word.block_size(1)
    iterated = std
    for _ in range(k):
        iterated = promote_kreweras(iterated)
    if std_promoted != iterated:
        return {"k": k, "std_of_promoted": std_promoted.letters,
                "promoted_std": iterated.letters}
    return None


def _std_valid(x, y, q):
    std, sizes = x.std
    if not same_block_closers_nest(std, sizes):
        return {"std": std.letters, "error": "same-block arcs cross"}
    return None


def _destandardize_roundtrip(x, y, q):
    std, sizes = x.std
    if destandardize(std, sizes) != x.word:
        return {"std": std.letters, "sizes": list(sizes)}
    return None


def _std_order_unique(x, y, q):
    """Any adjacent transposition of same-block closers makes two arcs
    ending in that block cross, so the nesting order is forced."""
    std, sizes = x.std
    diagram = bump_diagram(std)
    opener = {c: o for o, c in (*diagram.arcs_b, *diagram.arcs_c)}
    end = 0
    for bi, size in enumerate(sizes):
        start, end = end, end + size
        closers = [pos for pos in range(start + 1, end + 1)
                   if std.letters[pos - 1] != "A"]
        for u, v in zip(closers, closers[1:]):
            if not is_crossing((opener[u], v), (opener[v], u)):
                return {"block": bi + 1, "positions": [u, v]}
    return None


# -- figure claims -----------------------------------------------------
# Each compares the paper's figures item by item and stops at the first
# mismatch; ``or`` evaluates the next comparison only if this one agreed.

def _figure_mismatch(name, expected, actual):
    if expected != actual:
        return {"item": name, "expected": expected, "actual": actual}
    return None


def _claim_figure_promotion_pair():
    promoted = promote_linext(golden.ext18())
    return _figure_mismatch("extension-promotion",
                            golden.ext18_promoted().labels, promoted.labels)


def _claim_figure_kreweras_pair():
    word = to_kreweras(golden.ext18())
    return (_figure_mismatch("word-of-extension", golden.WORD18, word.letters)
            or _figure_mismatch("promoted-word", golden.WORD18_PROMOTED,
                                promote_kreweras(word).letters)
            or _figure_mismatch("extension-of-word", golden.ext18().labels,
                                from_kreweras(word).labels))


def _claim_figure_bump_arcs():
    diagram = bump_diagram(golden.word18())
    return (_figure_mismatch("solid-arcs", sorted(golden.ARCS18_B),
                             sorted(diagram.arcs_b))
            or _figure_mismatch("dashed-arcs", sorted(golden.ARCS18_C),
                                sorted(diagram.arcs_c)))


def _claim_figure_word_labeling():
    word = golden.word69()
    return (_figure_mismatch("word-of-labeling", word.to_text(),
                             word_of_labeling(golden.labeling69()).to_text())
            or _figure_mismatch("labeling-of-word", golden.labeling69().fibers,
                                labeling_of_word(word).fibers))


def _claim_figure_layers():
    layers = tuple(layer.as_tuple() for layer in layer_decomposition(golden.word69()))
    return _figure_mismatch("layers", golden.LAYERS69, layers)


def _claim_figure_promoted_layers():
    word = golden.word69()
    rotated = tuple(sorted(promote_vlayer(layer, 9).as_tuple()
                           for layer in layer_decomposition(word)))
    return (_figure_mismatch("promoted-layers", golden.LAYERS69_PROMOTED,
                             rotated)
            or _figure_mismatch(
                "layers-of-promoted-word", golden.LAYERS69_PROMOTED,
                tuple(layer.as_tuple()
                      for layer in layer_decomposition(promote_word(word)))))


def _claim_figure_promoted_word():
    labeling = golden.labeling69()
    return (_figure_mismatch("promoted-word", golden.WORD69_PROMOTED_TEXT,
                             promote_word(golden.word69()).to_text())
            or _figure_mismatch(
                "promoted-labeling", golden.WORD69_PROMOTED_TEXT,
                word_of_labeling(promote_pstrict(labeling)).to_text()))


def _claim_figure_double_arcs():
    word = golden.word69()
    return (_figure_mismatch("double-arcs", golden.WORD69_DOUBLE_ARCS,
                             double_arcs(word))
            or _figure_mismatch("deleted-word", golden.WORD69_DELETED_TEXT,
                                delete_double_arc(word, (3, 4)).to_text())
            or _figure_mismatch("rotated-double-arc", [(2, 3)],
                                double_arcs(promote_word(word))))


def _claim_figure_standardization():
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
    """A claim with its params.  With ``reads``, ``check`` is a predicate
    over the action tables and family lists they name, in that order, at
    each of ``points`` (in grid order); without, it runs on its own."""

    id: str
    params: dict
    check: Callable
    reads: tuple[str, ...] = ()
    points: list = field(default_factory=list)


_WORD_CLAIMS = {
    "layers": (("content-rotation", _per_word(_content_rotation)),),
    "doublearcs": (
        ("double-arc-count-invariant", _per_word(_double_arc_count)),
        ("double-arc-rotation", _per_word(_double_arc_rotation)),
        ("double-arc-deletion-commutes", _double_arc_deletion),
        ("shortest-arc-shift", _per_word(_shortest_arc_shift))),
    "standardization": (
        ("std-pro-commutation", _per_word(_std_pro_commutation, True)),
        ("std-valid-kreweras", _per_word(_std_valid, True)),
        ("destandardize-roundtrip", _per_word(_destandardize_roundtrip, True)),
        ("std-order-unique", _per_word(_std_order_unique, True)),
        ("word-pro-q-is-bc-swap", partial(_q_is_mirror, report=_in_words))),
}

_FIGURE_CLAIMS = (
    ("figure-promotion-pair", _claim_figure_promotion_pair),
    ("figure-kreweras-pair", _claim_figure_kreweras_pair),
    ("figure-bump-arcs", _claim_figure_bump_arcs),
    ("figure-word-labeling", _claim_figure_word_labeling),
    ("figure-layers", _claim_figure_layers),
    ("figure-promoted-layers", _claim_figure_promoted_layers),
    ("figure-promoted-word", _claim_figure_promoted_word),
    ("figure-double-arcs", _claim_figure_double_arcs),
    ("figure-standardization", _claim_figure_standardization),
)


def _build_suite(name: str, given: Callable[[str, int], int],
                 ceiling: int) -> list[_Claim]:
    """The claims of one suite; given(flag, default) is each grid flag it
    reads, the flag's value or else the default."""
    if name == "classical":
        params = {"n_max": 3}
        grid = [(n, 3 * n) for n in range(1, 4)]
        return [
            _Claim("classical-count-formula", {"n_max": 4}, _classical_count,
                   ("extensions",), [(n, 3 * n) for n in range(1, 5)]),
            _Claim("classical-order-6n", params, _linext_order,
                   ("pro-linext",), grid),
            _Claim("classical-pro-3n-swaps-bc", params, _q_is_mirror,
                   ("pro-kreweras",), grid),
            _Claim("kreweras-orbits-match-linext", params,
                   _kreweras_orbits_match, ("pro-linext", "pro-kreweras"),
                   grid),
            _Claim("kreweras-intertwines", params, _kreweras_intertwines,
                   ("pro-linext", "pro-kreweras"), grid),
            _Claim("kreweras-roundtrip", params, _kreweras_roundtrip,
                   ("extensions",), grid)]
    if name == "main":
        em, qm = given("ell_max", 3), given("q_max", 7)
        sm = given("sum_max", 10)
        params = {"ell_max": em, "q_max": qm, "sum_max": sm}
        grid = _word_grid(em, qm, sm)
        return [_Claim("pstrict-order-divides-2q", params, _pstrict_order,
                       ("pro-pstrict",), grid),
                _Claim("pstrict-pro-q-is-bc-swap", params, _q_is_mirror,
                       ("pro-pstrict",), grid)]
    if name in _WORD_CLAIMS:
        em, qm = given("ell_max", 2), given("q_max", 6)
        params = {"ell_max": em, "q_max": qm}
        grid = _word_grid(em, qm)
        return [_Claim(cid, params, check, ("pro-pstrict",), grid)
                for cid, check in _WORD_CLAIMS[name]]
    if name == "rowmotion":
        em = given("ell_max", 3)
        qm = given("q_max", 5)  # partitions of V x [q - 2]
        fm, fq = given("ell_max", 2), given("q_max", 6)
        return [
            _Claim("row-order-divides", {"ell_max": em, "k_max": qm - 2},
                   _row_order, ("row",), _word_grid(em, qm)),
            _Claim("row-order-exact-ell1", {"k_max": qm - 2}, _row_exact,
                   ("row",), _word_grid(1, qm)),
            _Claim("row-q-is-flip", {"ell_max": fm, "q_max": fq}, _q_is_mirror,
                   ("row",), _word_grid(fm, fq)),
            _Claim("row-extension-independent", {},
                   partial(_row_extension_independent, ceiling), ("row",),
                   [(1, 4), (2, 3)])]
    if name == "equivariance":
        em, qm = given("ell_max", 2), given("q_max", 6)
        params = {"ell_max": em, "q_max": qm}
        grid = _word_grid(em, qm)
        return [_Claim("orbit-multisets-agree", params,
                       _orbit_multisets_agree,
                       ("pro-pstrict", "row", "togpro"), grid),
                _Claim("togpro-q-is-flip", params, _q_is_mirror,
                       ("togpro",), grid)]
    if name == "figures":
        return [_Claim(cid, {}, fn) for cid, fn in _FIGURE_CLAIMS]
    raise ValueError(f"unknown suite {name!r}")


def run_suite(suite: str, ell_max: int | None = None,
              q_max: int | None = None, sum_max: int | None = None,
              ceiling: int = DEFAULT_CEILING) -> VerificationReport:
    """Run one named suite (or 'all') and collect per-claim results.

    Claims that run on their own go first.  Then, at each grid point in
    order, the lists and tables that the claims still passing read there
    are built, each claim is checked on them, and they are dropped; a
    claim's result is settled at its last point."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in SUITE_NAMES:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {', '.join(SUITE_NAMES + ('all',))}")
    flags = {"ell_max": ell_max, "q_max": q_max, "sum_max": sum_max}
    read = set()

    def given(flag: str, default: int) -> int:
        read.add(flag)
        value = flags[flag]
        # below these no grid point is left, and a claim would check
        # nothing; refused before a grid is built from the other flags
        least = {"ell_max": 1, "q_max": 3, "sum_max": 4}[flag]
        if value is not None and value < least:
            raise ValueError(f"{flag} (--{flag.replace('_', '-')}) must be "
                             f">= {least}, got {value}")
        return default if value is None else value

    started = time.monotonic()
    claims = [claim for name in names
              for claim in _build_suite(name, given, ceiling)]
    for flag, value in flags.items():
        if value is not None and flag not in read:
            raise ValueError(f"no claim of suite {suite!r} reads {flag} "
                             f"(--{flag.replace('_', '-')})")
    results: list = [None] * len(claims)

    def settle(i: int, counterexample: dict | None) -> None:
        results[i] = ClaimResult(claims[i].id, claims[i].params,
                                 counterexample is None, counterexample)

    readers: dict = {}  # (ell, q) -> positions of claims reading there
    for i, claim in enumerate(claims):
        if not claim.reads:
            settle(i, claim.check())
        for point in claim.points:
            readers.setdefault(point, []).append(i)
    points = sorted(readers)
    last = {i: point for point in points for i in readers[point]}
    found: dict = {}  # position -> its first counterexample, or None
    for ell, q in points:
        live = [i for i in readers[ell, q] if found.get(i) is None]
        lists, tables, errors = _lists(ell, q, ceiling), {}, {}
        for action in _ACTIONS:
            if any(action in claims[i].reads for i in live):
                try:
                    tables[action] = _table(action, ell, q, lists)
                except ActionError as exc:  # not a bijection here
                    errors[action] = {"ell": ell, "q": q, "action": action,
                                      "error": str(exc)}
        for i in live:
            reads = claims[i].reads
            error = next(filter(None, map(errors.get, reads)), None)
            found[i] = error or claims[i].check(
                *(tables[r] if r in _ACTIONS else lists[r] for r in reads))
        del lists, tables  # one point's lists and tables alive at a time
        for i in readers[ell, q]:
            if last[i] == (ell, q):
                settle(i, found[i])
    duration_ms = int((time.monotonic() - started) * 1000)
    return VerificationReport(suite, results, duration_ms)


# -- orbit reports for the CLI ----------------------------------------

def orbit_report_for_action(action: str, ell: int, q: int | None = None,
                            ceiling: int = DEFAULT_CEILING) -> OrbitReport:
    """Orbit statistics plus the applicable order/symmetry checks."""
    if action not in _ACTIONS:
        raise ValueError(f"unknown action {action!r}")
    family = _ACTIONS[action].family
    least = 0 if family == "ppartitions" else 1
    if ell < least:
        raise ValueError(f"{action} needs ell >= {least}, got {ell}")
    classical = family == "extensions"
    if classical:
        if q is not None and q != 3 * ell:
            raise ValueError(f"{action} reads q as 3 * ell = {3 * ell}, "
                             f"got q={q}")
        q = 3 * ell  # the orders are read as divisors of 6n = 2q
    elif q is None:
        raise ValueError(f"{action} needs q")
    elif q < 3:
        of = " (partitions of V x [q - 2])" if family == "ppartitions" else ""
        raise ValueError(f"{action} needs q >= 3{of}, got q={q}")
    table = _table(action, ell, q, _lists(ell, q, ceiling))
    sizes = tuple(table.sizes())
    order = lcm(*sizes)
    counterexamples: dict = {}
    if classical:
        checks = {"order_divides_6n": (2 * q) % order == 0,
                  "order_equals_6n": order == 2 * q,
                  "count_matches_formula": sum(sizes) == kreweras_number(ell)}
    else:
        law = ("pro_q_is_bc_swap" if action == "pro-pstrict"
               else f"{action}_q_is_flip")
        bad = _unmirrored(table)
        checks = {"order_divides_2q": (2 * q) % order == 0, law: bad is None}
        if bad is not None:
            counterexamples[law] = bad[0].to_json()
    return OrbitReport(action=action, params={"ell": ell, "q": q},
                       count=sum(sizes), orbit_sizes=sizes, order=order,
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
