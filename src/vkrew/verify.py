"""Verification suites: every order, rotation, and commutation claim is
checked exhaustively over desk-scale parameter grids, with the first
counterexample reported on failure.

Each action with tables is one _Action record: its family, which
_FAMILIES lists at a grid point, its step, and its B/C mirror law.  A
table is one walk of one action at one grid point (orbit_cycles); it
keeps its elements' list or, on V, the point's rank table
(poset._Ranks), which places each image by its three columns and builds
each cycle's start from its rank, and a histogram of orbit sizes, but
no cycle.  A claim is a fold over the cycles of the tables it reads, or
a predicate over their histograms and the family lists it reads.  As the
walk closes a cycle it hands the cycle's positions, in walk order, and
the elements it built to the checks of the claims still passing; each
names the cycle's least failing position and a counterexample from those
elements, and the least over all cycles is kept, so a claim reports its
first failing element in enumeration order.  step^q of an element is the
element q places along its cycle, compared with the B/C mirror image: on
V by position (start + i·m + j against start + j·m + i), elsewhere by
equality.  The word laws read the labeling table's cycles: each word's
arc data is built once per cycle, and Pro(w) is the next word.
run_suite is point-major: at each grid point it walks the tables its
claims still passing read and drops them before the next point, so each
object is stepped once per run and one point's tables are alive at a
time.  orbit_report_for_action shares tables and the mirror check.
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
from .orbits import ActionError, OrbitReport, _json_field, orbit_cycles
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
    """The orbits of one action at one grid point, as its one walk left
    them: the elements, kept in a list or, on V, the rank table
    (poset._Ranks) that placed them, which builds the element at a
    position when read, and the histogram of orbit sizes.  No cycle is
    kept: the walk hands each one to the point's claims as it closes it."""

    action: str
    ell: int
    q: int
    elements: list | _Ranks
    sizes: Counter = field(default_factory=Counter)

    @cached_property
    def mirror(self) -> array:
        """On V, the position of each position's B/C mirror image."""
        return self.elements.mirror()


class _Cycle:
    """One cycle as its walk closed it: its ``positions`` from the
    earliest, in walk order, and the elements ``xs`` at them, so Pro (the
    step) of xs[i] is xs[i + 1], and of the last xs[0].  On a labeling
    table, ``arcs`` holds the _Arcs of each element's word, built on first
    read and shared by the word claims."""

    def __init__(self, positions: list[int], xs: list):
        self.positions, self.xs = positions, xs

    @cached_property
    def arcs(self) -> list[_Arcs]:
        return [_arcs(word_of_labeling(x)) for x in self.xs]


def _at(t: _Table) -> dict:
    return {"ell": t.ell, "q": t.q}


class _Action(NamedTuple):
    """An action with tables.  Its elements are its ``family``'s, each
    through ``read`` if given; ``step(q)`` is the step, read as a table's
    walk starts.  Off V, ``mirror`` maps an element to its B/C mirror
    image; on V the rank table pairs their positions.
    ``report(t, x, step^q(x))`` is the mirror law's counterexample, built
    from the elements the walk holds."""

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


def _table(action: str, ell: int, q: int, lists: _Memo, checks: list = (),
           least: dict | None = None) -> _Table:
    """One walk of the action at the point, stepping each element once,
    along its cycle: on V from each cycle's start, built from its rank,
    each image found by the point's rank table, elsewhere in the point's
    ``lists``.  Each closed cycle adds its size to the histogram and goes,
    as one _Cycle, to each (key, check) of ``checks``; ``least[key]``
    keeps the (position, counterexample) at the least position where
    check(t, c) failed, and a check is skipped once that position lies
    before the cycle's start, as all later cycles lie past it.  The step
    and the read are looked up in this module, so a rebound name is used."""
    a = _ACTIONS[action]
    if _FAMILIES[a.family].ranks is not None:
        elements, locate = lists[a.family]
    else:
        elements, locate = lists[a.family], None
        if a.read is not None:
            elements = list(map(a.read, elements))
    t = _Table(action, ell, q, elements)

    def closed(positions: list, xs: list) -> None:
        t.sizes[len(positions)] += 1
        c, start = _Cycle(positions, xs), positions[0]
        for key, check in checks:
            best = least.get(key)
            if best is None or best[0] > start:
                bad = check(t, c)
                if bad is not None and (best is None or bad[0] < best[0]):
                    least[key] = bad
    orbit_cycles(a.step(q), elements, closed, locate=locate)
    return t


def _least(positions: list, bad: Callable):
    """(p, bad(i)) at the least position p = positions[i] of a cycle where
    bad(i) is not None, or None; bad is called only where p could still be
    the least."""
    found = None
    for i, p in enumerate(positions):
        if found is None or p < found[0]:
            counterexample = bad(i)
            if counterexample is not None:
                found = p, counterexample
    return found


def _unmirrored(t: _Table, c: _Cycle):
    """(p, (x, step^q(x))) at the least position p of a cycle whose
    element x has a step^q that is not its B/C mirror image, or None.
    step^q moves each element q places along its cycle.  On V it compares
    positions, the image against the position of the element's B/C swap
    (poset._Ranks.mirror); elsewhere it compares elements."""
    positions, xs = c.positions, c.xs
    n = len(xs)
    s = t.q % n
    if isinstance(t.elements, _Ranks):
        mirror = t.mirror
        image = positions[s:] + positions[:s]
        if list(map(mirror.__getitem__, positions)) == image:
            return None
        return _least(positions, lambda i: (xs[i], xs[(i + s) % n])
                      if mirror[positions[i]] != image[i] else None)
    mirror = _ACTIONS[t.action].mirror
    return _least(positions, lambda i: (xs[i], xs[(i + s) % n])
                  if xs[(i + s) % n] != mirror(xs[i]) else None)


# -- claim checks -------------------------------------------------------
# A check of one cycle gives (position, counterexample) at the least
# position of the cycle where its claim fails, or None; a check over
# tables reads their size histograms once the walks are done.

def _each(check: Callable) -> Callable:
    """The fold of a claim whose check of a cycle needs nothing else: the
    same check at every point."""
    return lambda ell, q: check


def _q_is_mirror(t: _Table, c: _Cycle, report=None):
    """step^q is the B/C swap of a labeling or word, or the flip of a
    partition; ``report`` builds the counterexample in the action's place."""
    bad = _unmirrored(t, c)
    return bad and (bad[0],
                    (report or _ACTIONS[t.action].report)(t, *bad[1]))


def _in_words(t: _Table, f, g):
    """A labeling's fibers list its word's block indices, so the fiber swap
    is the block swap: the swap law's counterexample read in words."""
    x, y = word_of_labeling(f), word_of_labeling(g)
    return {**_at(t), "word": x.to_text(), "pro_q": y.to_text(),
            "swapped": swap_bc_word(x).to_text()}


def _order_divides(t: _Table, c: _Cycle):
    """Every orbit size divides 2q, on V x [k] 2(k + 2); a cycle that does
    not fails at its earliest element."""
    if (2 * t.q) % len(c.xs) == 0:
        return None
    at, name = ((_at(t), "labeling") if t.action == "pro-pstrict" else
                ({"ell": t.ell, "k": t.q - 2}, "partition"))
    return c.positions[0], {**at, "orbit_size": len(c.xs),
                            name: c.xs[0].to_json()}


def _linext_order(t: _Table):
    """Order divides 6n everywhere; equals 6n once n >= 2.  At n = 1 the
    action is a single swap of the two extensions, so its order is 2."""
    n, order = t.ell, lcm(*t.sizes)
    if (6 * n) % order != 0:
        return {"n": n, "order": order, "must_divide": 6 * n}
    if n >= 2 and order != 6 * n:
        return {"n": n, "order": order, "expected": 6 * n}
    return None


def _kreweras_intertwines(ell: int, q: int) -> Callable:
    """The word of Pro(e) is Pro of the word of e.  The word table holds
    the word of each extension at its position, and each walk is
    canonical, so the two permutations agree where the extension table's
    cycles, recorded as a map of each position to its image, give each
    position the image the word table's cycles give it."""
    image: dict = {}

    def check(t: _Table, c: _Cycle):
        positions, xs = c.positions, c.xs
        following = positions[1:] + positions[:1]
        if t.action == "pro-linext":
            image.update(zip(positions, following))
            return None
        return _least(positions, lambda i: {
            "n": t.ell, "word": xs[i].letters,
            "via_extension": t.elements[image[positions[i]]].letters,
            "via_word": xs[i + 1 - len(xs)].letters}
            if image[positions[i]] != following[i] else None)
    return check


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


def _row_extension_independent(ceiling: int, ell: int, q: int) -> Callable:
    """Sweeps along every extension of V x [k] give the table's image.
    The sweeps are the rowmotion module's own, so rebinding this module's
    rowmotion changes the table only; the extensions are listed once per
    point."""
    exts = _lists(q - 2, 3 * (q - 2), ceiling)["extensions"]
    row = _rowmotion_module.rowmotion

    def check(t: _Table, c: _Cycle):
        xs = c.xs
        images = [{xs[i + 1 - len(xs)], *(row(x, ext) for ext in exts)}
                  for i, x in enumerate(xs)]
        return _least(c.positions, lambda i: {
            "ell": t.ell, "k": t.q - 2, "partition": xs[i].to_json(),
            "distinct_images": len(images[i])} if len(images[i]) > 1 else None)
    return check


def _row_exact(t: _Table):
    order = lcm(*t.sizes)
    if order != 2 * t.q:
        return {"ell": t.ell, "k": t.q - 2, "order": order,
                "expected": 2 * t.q}
    return None


def _kreweras_orbits_match(linext: _Table, words: _Table):
    """Kreweras words have the orbit sizes of their extensions."""
    if linext.sizes != words.sizes:
        return {"n": words.ell,
                "extension_orbits": sorted(linext.sizes.elements()),
                "word_orbits": sorted(words.sizes.elements())}
    return None


def _orbit_multisets_agree(pstrict: _Table, row: _Table, togpro: _Table):
    """P-strict promotion, rowmotion and toggle-promotion have the same
    orbit sizes."""
    if not pstrict.sizes == row.sizes == togpro.sizes:
        return {**_at(togpro), "sizes": {
            t.action: sorted(t.sizes.elements(), reverse=True)
            for t in (pstrict, row, togpro)}}
    return None


def _per_word(check, arcless: bool = False):
    """The fold of a check of one cycle applying ``check(x, y, q)`` to the
    _Arcs x of each word and y of its Pro(w), the next word of the cycle,
    or with ``arcless`` to each word without double arcs, failing at a
    word whose standardization raised."""
    def per_cycle(t: _Table, c: _Cycle):
        arcs = c.arcs

        def bad(i: int):
            x = arcs[i]
            if arcless and x.arcs:
                return None
            found = ({"error": str(x.std)}
                     if arcless and isinstance(x.std, ValueError)
                     else check(x, arcs[i + 1 - len(arcs)], t.q))
            return None if found is None else {
                **_at(t), "word": x.word.to_text(), **found}
        return _least(c.positions, bad)
    return _each(per_cycle)


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


def _double_arc_deletion(ell: int, q: int) -> Callable:
    """Pro of each deleted word, an (ell - 1, q) word, is computed once
    per point.  A rotated arc missing from Pro(w) fails the claim."""
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
    return _per_word(check)(ell, q)


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
    """A claim with its params.  Without ``reads``, ``check()`` runs on
    its own.  With them, at each of ``points`` (in grid order), ``check``
    is either, with ``fold``, a function of the point giving its check of
    one cycle ``check(ell, q)(t, c)`` of each table that ``reads`` names,
    run as the walk closes the cycle; or a predicate over the finished
    tables and the family lists that ``reads`` names, in that order."""

    id: str
    params: dict
    check: Callable
    reads: tuple[str, ...] = ()
    points: list = field(default_factory=list)
    fold: bool = False


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
        ("word-pro-q-is-bc-swap",
         _each(partial(_q_is_mirror, report=_in_words)))),
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
            _Claim("classical-pro-3n-swaps-bc", params, _each(_q_is_mirror),
                   ("pro-kreweras",), grid, fold=True),
            _Claim("kreweras-orbits-match-linext", params,
                   _kreweras_orbits_match, ("pro-linext", "pro-kreweras"),
                   grid),
            _Claim("kreweras-intertwines", params, _kreweras_intertwines,
                   ("pro-linext", "pro-kreweras"), grid, fold=True),
            _Claim("kreweras-roundtrip", params, _kreweras_roundtrip,
                   ("extensions",), grid)]
    if name == "main":
        em, qm = given("ell_max", 3), given("q_max", 7)
        sm = given("sum_max", 10)
        params = {"ell_max": em, "q_max": qm, "sum_max": sm}
        grid = _word_grid(em, qm, sm)
        return [_Claim("pstrict-order-divides-2q", params,
                       _each(_order_divides), ("pro-pstrict",), grid,
                       fold=True),
                _Claim("pstrict-pro-q-is-bc-swap", params,
                       _each(_q_is_mirror), ("pro-pstrict",), grid,
                       fold=True)]
    if name in _WORD_CLAIMS:
        em, qm = given("ell_max", 2), given("q_max", 6)
        params = {"ell_max": em, "q_max": qm}
        grid = _word_grid(em, qm)
        return [_Claim(cid, params, check, ("pro-pstrict",), grid, fold=True)
                for cid, check in _WORD_CLAIMS[name]]
    if name == "rowmotion":
        em = given("ell_max", 3)
        qm = given("q_max", 5)  # partitions of V x [q - 2]
        fm, fq = given("ell_max", 2), given("q_max", 6)
        return [
            _Claim("row-order-divides", {"ell_max": em, "k_max": qm - 2},
                   _each(_order_divides), ("row",), _word_grid(em, qm),
                   fold=True),
            _Claim("row-order-exact-ell1", {"k_max": qm - 2}, _row_exact,
                   ("row",), _word_grid(1, qm)),
            _Claim("row-q-is-flip", {"ell_max": fm, "q_max": fq},
                   _each(_q_is_mirror), ("row",), _word_grid(fm, fq),
                   fold=True),
            _Claim("row-extension-independent", {},
                   partial(_row_extension_independent, ceiling), ("row",),
                   [(1, 4), (2, 3)], fold=True)]
    if name == "equivariance":
        em, qm = given("ell_max", 2), given("q_max", 6)
        params = {"ell_max": em, "q_max": qm}
        grid = _word_grid(em, qm)
        return [_Claim("orbit-multisets-agree", params,
                       _orbit_multisets_agree,
                       ("pro-pstrict", "row", "togpro"), grid),
                _Claim("togpro-q-is-flip", params, _each(_q_is_mirror),
                       ("togpro",), grid, fold=True)]
    if name == "figures":
        return [_Claim(cid, {}, fn) for cid, fn in _FIGURE_CLAIMS]
    raise ValueError(f"unknown suite {name!r}")


def run_suite(suite: str, ell_max: int | None = None,
              q_max: int | None = None, sum_max: int | None = None,
              ceiling: int = DEFAULT_CEILING) -> VerificationReport:
    """Run one named suite (or 'all') and collect per-claim results.

    Claims that run on their own go first.  Then, at each grid point in
    order, the lists and tables that the claims still passing read there
    are built, each table as one walk that hands each closed cycle to the
    checks of the claims reading it, which keep their least failing
    position; the claims over finished tables and lists are checked, and
    all is dropped.  A claim's result is settled at its last point."""
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
        folds = {i: claims[i].check(ell, q) for i in live if claims[i].fold}
        least: dict = {}  # position -> its least failing position here
        for action in _ACTIONS:
            if not any(action in claims[i].reads for i in live):
                continue
            # a claim whose earlier table failed here checks no more cycles
            checks = [(i, check) for i, check in folds.items()
                      if action in claims[i].reads
                      and errors.keys().isdisjoint(claims[i].reads)]
            try:
                tables[action] = _table(action, ell, q, lists, checks, least)
            except ActionError as exc:  # not a bijection here
                errors[action] = {"ell": ell, "q": q, "action": action,
                                  "error": str(exc)}
        for i in live:
            reads = claims[i].reads
            error = next(filter(None, map(errors.get, reads)), None)
            if error is not None or claims[i].fold:
                found[i] = error or least.get(i, (None, None))[1]
            else:
                found[i] = claims[i].check(
                    *(tables[r] if r in _ACTIONS else lists[r] for r in reads))
        # one point's lists, tables and folds alive at a time
        del lists, tables, folds
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
    law = ("pro_q_is_bc_swap" if action == "pro-pstrict"
           else f"{action}_q_is_flip")
    bad: dict = {}  # the law -> its least failing position and pair
    table = _table(action, ell, q, _lists(ell, q, ceiling),
                   [] if classical else [(law, _unmirrored)], bad)
    sizes = tuple(sorted(table.sizes.elements(), reverse=True))
    order = lcm(*sizes)
    counterexamples: dict = {}
    if classical:
        checks = {"order_divides_6n": (2 * q) % order == 0,
                  "order_equals_6n": order == 2 * q,
                  "count_matches_formula": sum(sizes) == kreweras_number(ell)}
    else:
        checks = {"order_divides_2q": (2 * q) % order == 0,
                  law: law not in bad}
        if law in bad:
            counterexamples[law] = bad[law][1][0].to_json()
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
