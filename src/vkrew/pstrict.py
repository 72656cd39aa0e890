"""Strict labelings of P x [l] with bounded labels, and their promotion.

A labeling assigns each (p, i) an integer label: strictly increasing
along copies of P inside a layer, weakly increasing along each fiber,
and confined to a per-element interval.  Bender-Knuth involutions tau_k
exchange the freely movable k's and (k+1)'s inside each fiber; promotion
composes tau_1 through tau_{q-1}.

Both step raw fiber tuples, by one rule (_tau_one): in a fiber tau_k
rewrites the one slice where the run of k's meets the run of (k+1)'s,
given the layerwise min of the fibers above and max of those below.  On
V under restriction_rq, the one restriction every caller builds,
promote_pstrict interns fibers to ints once per q and composes three
memoized moves: A under the min of B and C, then B and C over the new A
(_v_moves, on the column kernel poset._column_moves that rowmotion
shares).  Other posets and restrictions, and bender_knuth_tau, apply
_tau_one to every fiber (_tau_fibers), the reference for the moves.
With the moves, the enumeration is the ranked column loops that list the
partitions of V x [k] too (poset._ranked_columns), over fibers walked
lazily on a chain (poset._columns) and interned by _v_moves as the loops
read them, so an image shares its fibers with the labeling it equals,
and the first labeling costs a few fibers.  _v_ranks gives a labeling's
position in that order from its three fibers, and the labeling at a
position, by a rank table over the same fibers (poset._rank_table), so
an orbit table lists and keeps no labeling: its walk builds each cycle's
start from its rank, and promotion builds the rest.
Elsewhere, on a graded poset in any element order, it is the walk that
lists linear extensions and partitions off V x [k] too
(poset._order_preserving_maps), the reference for the loops.  Both
build labelings without validation.  The constructor, labeling_of_word,
swap_bc and bender_knuth_tau validate.
The moves are each checked when their entry is filled, so
every labeling promote_pstrict assembles is valid; elsewhere it
validates its image, never the states between its steps.  Validation
checks each distinct fiber against its interval once, and the layers
across covers for every labeling.  free_labels finds the free labels
layer by layer; it is the reference the tests hold the kernel to.

Everything is implemented for an arbitrary graded poset, but only the V
poset carries the order guarantees verified by the test suites.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import gt, lt
from typing import Iterator

from .poset import Element, Poset, _column_moves, _columns, \
    _order_preserving_maps, _rank_table, _ranked_columns, _unvalidated, \
    make_v, product_with_chain

__all__ = [
    "RestrictionFunction", "PStrictLabeling", "restriction_rq",
    "enumerate_labelings", "enumerate_restricted_labelings", "free_labels",
    "free_labels_bruteforce", "bender_knuth_tau", "promote_pstrict",
    "swap_bc",
]


@dataclass(frozen=True)
class RestrictionFunction:
    """Per-element label intervals within 1..q for a graded poset."""

    poset: Poset
    q: int
    intervals: tuple[tuple[int, int], ...]  # (lo, hi) aligned with poset.elements
    # Every dict lookup of a labeling hashes its restriction, so the hash
    # of the three fields is computed once, here.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.intervals) != len(self.poset):
            raise ValueError("one interval per element required")
        for e, (lo, hi) in zip(self.poset.elements, self.intervals):
            if not (1 <= lo <= hi <= self.q):
                raise ValueError(f"empty or out-of-range interval for {e!r}")
        object.__setattr__(self, "_hash",
                           hash((self.poset, self.q, self.intervals)))

    def __hash__(self) -> int:
        return self._hash


def restriction_rq(poset: Poset, q: int) -> RestrictionFunction:
    """The widest consistent intervals inside 1..q for a graded poset:
    element p may take labels rk(p)+1 through q-n+rk(p).  Consistent
    means that, for each ell, every label k in p's interval is met by
    some labeling whose whole fiber of p is k; widening any endpoint
    inside 1..q breaks that."""
    if not poset.is_graded:
        raise ValueError("restriction requires a graded poset")
    n = poset.rank_max
    if q < n + 1:
        raise ValueError(f"q={q} leaves no labels for a rank-{n} poset")
    intervals = tuple((poset.rank(p) + 1, q - n + poset.rank(p))
                      for p in poset.elements)
    return RestrictionFunction(poset, q, intervals)


@dataclass(frozen=True, slots=True)
class PStrictLabeling:
    """A labeling of P x [1..ell]; fibers aligned with poset.elements."""

    restriction: RestrictionFunction
    ell: int
    fibers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rf = self.restriction
        poset = rf.poset
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        fibers = self.fibers
        if len(fibers) != len(rf.intervals):
            raise ValueError("one fiber per element required")
        for e, fiber, (lo, hi) in zip(poset.elements, fibers, rf.intervals):
            fault = _fiber_fault(fiber, self.ell, lo, hi)
            if fault is not None:
                raise ValueError(f"fiber of {e!r} {fault}")
        for a, b in poset._cover_pairs:
            if not all(map(lt, fibers[a], fibers[b])):
                i = list(map(lt, fibers[a], fibers[b])).index(False)
                raise ValueError(
                    f"layer {i + 1} not strict across "
                    f"{poset.elements[a]!r} < {poset.elements[b]!r}")

    @property
    def q(self) -> int:
        return self.restriction.q

    def fiber(self, p: Element) -> tuple[int, ...]:
        return self.fibers[self.restriction.poset.index(p)]

    def value(self, p: Element, i: int) -> int:
        if not 1 <= i <= self.ell:
            raise ValueError(f"layer {i} out of range 1..{self.ell}")
        return self.fiber(p)[i - 1]

    def to_json(self) -> dict:
        return {"ell": self.ell, "q": self.q,
                "fibers": {str(p): list(f)
                           for p, f in zip(self.restriction.poset.elements,
                                           self.fibers)}}

    def __repr__(self) -> str:
        body = "; ".join(f"{p}:{','.join(map(str, f))}"
                         for p, f in zip(self.restriction.poset.elements,
                                         self.fibers))
        return f"PStrictLabeling({body})"


# (rf, ell, fibers) -> the labeling, for fibers known to be valid
_labeling = _unvalidated(PStrictLabeling)


@lru_cache(maxsize=1 << 16)
def _fiber_fault(fiber: tuple[int, ...], ell: int, lo: int,
                 hi: int) -> str | None:
    """Why ``fiber`` is not a weakly increasing fiber of length ell inside
    lo..hi, or None.  Memoized: the same fibers recur in many labelings."""
    if len(fiber) != ell:
        return "has wrong length"
    if any(map(gt, fiber, fiber[1:])):
        return "decreases"
    if not (lo <= fiber[0] and fiber[-1] <= hi):
        return "leaves its interval"
    return None


def enumerate_restricted_labelings(rf: RestrictionFunction,
                                   ell: int) -> Iterator[PStrictLabeling]:
    """All labelings for ``rf``, lexicographic on the concatenated fibers.

    On V under restriction_rq, the ranked column loops over promotion's
    interned fibers.  Elsewhere the poset must be graded, in any element order: less
    rk(p), a labeling is an order-preserving map of P x [ell] into
    lo - rk(p) .. hi - rk(p), as poset._order_preserving_maps walks them.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    tables = _v_moves(rf)
    if tables is not None:
        return _v_labelings(rf, ell, *tables[:2])
    poset = rf.poset
    ranks = [poset.rank(p) for p in poset.elements]
    bottom = [lo - r for (lo, _), r in zip(rf.intervals, ranks)
              for _ in range(ell)]
    top = [hi - r for (_, hi), r in zip(rf.intervals, ranks)
           for _ in range(ell)]
    return (_labeling(rf, ell, tuple(
        tuple(v + r for v in values[j * ell:j * ell + ell])
        for j, r in enumerate(ranks))) for values in _order_preserving_maps(
            product_with_chain(poset, ell), bottom, top))


def _v_columns(rf: RestrictionFunction, ell: int, fiber_of, ids):
    """The A fibers of the labelings of V, and over(x): the B (and C)
    fibers strictly above the A fiber x.  Each is walked lazily on a chain
    and is the fiber promotion's tables interned, so an image shares its
    fibers with the labeling it equals, and tuple compares stop at
    identity."""
    q = rf.q

    def interned(bottom, top):
        return (fiber_of[ids[t]] for t in _columns(bottom, top))
    return (interned((1,) * ell, q - 1),
            lambda x: interned(tuple(v + 1 for v in x), q))


def _v_labelings(rf: RestrictionFunction, ell: int, fiber_of, ids):
    """The labelings of V in ranked order: each A fiber, then each B
    fiber strictly above it, then each such C fiber, by the ranked column
    loops of poset._ranked_columns, lazy in the fibers they read."""
    for fa, fb, fcs in _ranked_columns(*_v_columns(rf, ell, fiber_of, ids)):
        for fc in fcs:
            yield _labeling(rf, ell, (fa, fb, fc))


def _v_ranks(ell: int, q: int, ceiling: int):
    """The rank table (poset._Ranks) of the labelings of V x [ell] in
    [q], a sequence of them in the order enumerate_labelings lists them,
    built unvalidated over promotion's interned fibers, and locate(f): the
    position of labeling f among them, or None if f has another
    restriction or ell, or is none of them.  The table's labelings carry
    the restriction locate compares by identity first, so an image of one
    of them passes at the identity.  None once they number more than
    ``ceiling``."""
    rf = restriction_rq(make_v(), q)
    ranks = _rank_table(*_v_columns(rf, ell, *_v_moves(rf)[:2]),
                        lambda *fibers: _labeling(rf, ell, fibers), ceiling)
    if ranks is None:
        return None
    rank = ranks.rank

    def locate(f: PStrictLabeling) -> int | None:
        if f.ell != ell or (f.restriction is not rf and f.restriction != rf):
            return None
        return rank(*f.fibers)
    return ranks, locate


def enumerate_labelings(ell: int, q: int) -> Iterator[PStrictLabeling]:
    """All labelings of V x [ell] with labels in 1..q, lexicographic on
    the concatenated A, B, C fibers."""
    if q < 3:
        raise ValueError("q must be >= 3 for the V poset")
    return enumerate_restricted_labelings(restriction_rq(make_v(), q), ell)


def _raisable_layers(f: PStrictLabeling, ei: int, k: int) -> list[int]:
    """0-based layers of fiber ``ei`` holding a k that can move up to k+1:
    every upper cover's label in that layer must already exceed k+1."""
    if k + 1 > f.restriction.intervals[ei][1]:
        return []
    up = f.restriction.poset._up[ei]
    return [i for i, v in enumerate(f.fibers[ei])
            if v == k and all(f.fibers[u][i] >= k + 2 for u in up)]


def _lowerable_layers(f: PStrictLabeling, ei: int, k: int) -> list[int]:
    """0-based layers of fiber ``ei`` holding a k+1 that can move down to k:
    every lower cover's label in that layer must stay below k."""
    if k < f.restriction.intervals[ei][0]:
        return []
    down = f.restriction.poset._down[ei]
    return [i for i, v in enumerate(f.fibers[ei])
            if v == k + 1 and all(f.fibers[d][i] <= k - 1 for d in down)]


def free_labels(k: int, f: PStrictLabeling):
    """Positions whose label k is raisable and whose label k+1 is lowerable.

    Returns two tuples of (element, layer) pairs, layers 1-based.
    """
    if not 1 <= k <= f.q - 1:
        raise ValueError(f"k={k} out of range 1..{f.q - 1}")
    poset = f.restriction.poset
    raisable = []
    lowerable = []
    for ei, p in enumerate(poset.elements):
        raisable += [(p, i + 1) for i in _raisable_layers(f, ei, k)]
        lowerable += [(p, i + 1) for i in _lowerable_layers(f, ei, k)]
    return tuple(raisable), tuple(lowerable)


def free_labels_bruteforce(k: int, f: PStrictLabeling):
    """Existential oracle for free_labels: a label moves iff some valid
    labeling differs from f only on that fiber and moves it.  Tries every
    alternative fiber; desk scale only."""
    if not 1 <= k <= f.q - 1:
        raise ValueError(f"k={k} out of range 1..{f.q - 1}")
    rf = f.restriction
    poset = rf.poset
    raisable = []
    lowerable = []
    for ei, p in enumerate(poset.elements):
        lo, hi = rf.intervals[ei]
        alternatives = [alt for alt in combinations_with_replacement(
            range(lo, hi + 1), f.ell) if _fiber_fits(f, ei, alt)]
        for i, v in enumerate(f.fibers[ei]):
            if v == k and any(alt[i] > v for alt in alternatives):
                raisable.append((p, i + 1))
            if v == k + 1 and any(alt[i] < v for alt in alternatives):
                lowerable.append((p, i + 1))
    return tuple(raisable), tuple(lowerable)


def _fiber_fits(f: PStrictLabeling, ei: int, fiber: tuple[int, ...]) -> bool:
    poset = f.restriction.poset
    return (all(all(map(lt, fiber, f.fibers[u])) for u in poset._up[ei])
            and all(all(map(lt, f.fibers[d], fiber))
                    for d in poset._down[ei]))


def _layerwise(pick, fibers):
    """The layerwise ``pick`` (min or max) of some fibers; None if none."""
    return tuple(map(pick, zip(*fibers))) if fibers else None


def _tau_one(fiber, k, lo, hi, above, below):
    """tau_k on one fiber with labels in lo..hi, given the layerwise min of
    its upper covers' fibers (``above``) and the layerwise max of its lower
    covers' (``below``), each None when there are no such covers.  Returns
    ``fiber`` itself when nothing moves.

    Fibers of covers increase weakly too, so in the run of k's the free
    ones (every upper cover already above k+1) form a suffix, and in the
    run of (k+1)'s the free ones (every lower cover below k) a prefix.
    The two runs meet, so one slice is rewritten.  The free labels are
    those _raisable_layers and _lowerable_layers find layer by layer.
    """
    a = bisect_left(fiber, k)
    c = bisect_right(fiber, k + 1, a)
    if a == c:
        return fiber
    b = bisect_right(fiber, k, a, c)
    s = b
    if k < hi:
        while s > a and (above is None or above[s - 1] > k + 1):
            s -= 1
    t = b
    if k >= lo:
        while t < c and (below is None or below[t] < k):
            t += 1
    if t - b == b - s:  # as many free k's as free (k+1)'s: no change
        return fiber
    return fiber[:s] + (k,) * (t - b) + (k + 1,) * (b - s) + fiber[t:]


def _tau_fibers(fibers, k, up, down, intervals):
    """tau_k on raw fibers of any graded poset; returns ``fibers`` itself
    when nothing moves."""
    new = None
    for ei, fiber in enumerate(fibers):
        if k not in fiber and k + 1 not in fiber:  # before the cover bounds
            continue
        moved = _tau_one(fiber, k, *intervals[ei],
                         _layerwise(min, [fibers[u] for u in up[ei]]),
                         _layerwise(max, [fibers[d] for d in down[ei]]))
        if moved is not fiber:
            if new is None:
                new = list(fibers)
            new[ei] = moved
    return fibers if new is None else tuple(new)


@lru_cache(maxsize=1)
def _v_moves(rf: RestrictionFunction):
    """Tables for promotion on V = {A < B, A < C} under the widest
    restriction, or None for any other: A' = move_a[A, min(B, C)], then
    B' = move_bc[A', B] and C' = move_bc[A', C], on fibers interned to
    ints (poset._column_moves).  Each entry runs tau_1 .. tau_{q-1} by
    _tau_one against a fixed bound, once.  That is exact: A's tau_k reads
    only which labels of min(B, C) are >= k+2, which tau_j (j < k) keeps;
    B's and C's read only which labels of A are < k, which tau_j (j > k)
    keeps.  B and C share one move, as they share one interval.  Each
    entry is checked when filled: the moved fiber increases weakly inside
    its interval, strictly past the A fiber it moved over or the min it
    moved under, so labelings assembled from entries are valid."""
    q = rf.q
    if rf.poset != make_v() or rf.intervals != ((1, q - 1), (2, q), (2, q)):
        return None

    def chain(name, fiber, lo, hi, above, below):
        ell = len(fiber)
        for k in range(1, q):
            fiber = _tau_one(fiber, k, lo, hi, above, below)
        lower, upper, past = ((fiber, above, "min(B, C)") if below is None
                              else (below, fiber, "A"))
        fault = _fiber_fault(fiber, ell, lo, hi)
        if fault is None and not all(map(lt, lower, upper)):
            fault = f"is not strict against {past}"
        if fault is not None:
            raise ValueError(f"moved fiber of {name!r} {fault}")
        return fiber

    return _column_moves(lambda a, m: chain("A", a, 1, q - 1, m, None),
                         lambda a, x: chain("B", x, 2, q, None, a))


def bender_knuth_tau(k: int, f: PStrictLabeling) -> PStrictLabeling:
    """Within each fiber, turn a free k's followed by b free (k+1)'s into
    b k's followed by a (k+1)'s."""
    if not 1 <= k <= f.q - 1:
        raise ValueError(f"k={k} out of range 1..{f.q - 1}")
    rf = f.restriction
    fibers = _tau_fibers(f.fibers, k, rf.poset._up, rf.poset._down,
                         rf.intervals)
    if fibers is f.fibers:
        return f
    return PStrictLabeling(rf, f.ell, fibers)


def promote_pstrict(f: PStrictLabeling) -> PStrictLabeling:
    """Compose the Bender-Knuth involutions tau_1, ..., tau_{q-1}, stepping
    the raw fibers.  On V under restriction_rq the image is three composed
    moves, each checked when its entry was filled; elsewhere it is
    validated once."""
    rf = f.restriction
    tables = _v_moves(rf)
    if tables is None:
        up, down = rf.poset._up, rf.poset._down
        fibers = f.fibers
        for k in range(1, rf.q):
            fibers = _tau_fibers(fibers, k, up, down, rf.intervals)
        return f if fibers is f.fibers else PStrictLabeling(rf, f.ell, fibers)
    fiber_of, ids, low, move_a, move_bc = tables
    fa, fb, fc = f.fibers
    ia, ib, ic = ids[fa], ids[fb], ids[fc]
    a = move_a[ia, low[ib, ic]]
    b, c = move_bc[a, ib], move_bc[a, ic]
    if (a, b, c) == (ia, ib, ic):
        return f
    return _labeling(rf, f.ell, (fiber_of[a], fiber_of[b], fiber_of[c]))


def swap_bc(f: PStrictLabeling) -> PStrictLabeling:
    """Exchange the B and C fibers of a labeling over the V poset."""
    poset = f.restriction.poset
    if poset != make_v():
        raise ValueError("swap_bc is defined for labelings of V only")
    fa, fb, fc = f.fibers
    return PStrictLabeling(f.restriction, f.ell, (fa, fc, fb))
