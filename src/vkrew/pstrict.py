"""Strict labelings of P x [l] with bounded labels, and their promotion.

A labeling assigns each (p, i) an integer label: strictly increasing
along copies of P inside a layer, weakly increasing along each fiber,
and confined to a per-element interval.  Bender-Knuth involutions tau_k
exchange the freely movable k's and (k+1)'s inside each fiber; promotion
composes tau_1 through tau_{q-1}.

Both step raw fiber tuples: in each fiber tau_k rewrites the one slice
where the run of k's meets the run of (k+1)'s.  bender_knuth_tau
validates the labeling it returns, and promote_pstrict validates once
per promotion, never the states between its steps.  free_labels finds
the free labels layer by layer; it is the reference the tests hold the
kernel to.

Everything is implemented for an arbitrary graded poset, but only the V
poset carries the order guarantees verified by the test suites.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterator

from .poset import Element, Poset, make_v

__all__ = [
    "RestrictionFunction", "PStrictLabeling", "restriction_rq",
    "enumerate_labelings", "enumerate_restricted_labelings", "free_labels",
    "free_labels_bruteforce", "bender_knuth_tau", "promote_pstrict",
    "swap_bc",
]


@lru_cache(maxsize=None)
def _cover_indices(poset: Poset) -> tuple[tuple[tuple[int, ...], ...],
                                          tuple[tuple[int, ...], ...]]:
    """Upper- and lower-cover indices of each element, aligned with
    poset.elements."""
    up = tuple(tuple(poset.index(u) for u in poset.upper_covers(e))
               for e in poset.elements)
    down = tuple(tuple(poset.index(d) for d in poset.lower_covers(e))
                 for e in poset.elements)
    return up, down


@dataclass(frozen=True)
class RestrictionFunction:
    """Per-element label intervals within 1..q for a graded poset."""

    poset: Poset
    q: int
    intervals: tuple[tuple[int, int], ...]  # (lo, hi) aligned with poset.elements

    def __post_init__(self):
        if len(self.intervals) != len(self.poset):
            raise ValueError("one interval per element required")
        for e, (lo, hi) in zip(self.poset.elements, self.intervals):
            if not (1 <= lo <= hi <= self.q):
                raise ValueError(f"empty or out-of-range interval for {e!r}")

    def interval(self, p: Element) -> tuple[int, int]:
        return self.intervals[self.poset.index(p)]

    def allows(self, p: Element, label: int) -> bool:
        lo, hi = self.interval(p)
        return lo <= label <= hi

    def is_consistent(self, ell: int) -> bool:
        """Every allowed label k is achievable with the whole fiber at k.

        Exhaustive witness search; intended for desk-scale parameters.
        """
        for p in self.poset.elements:
            lo, hi = self.interval(p)
            for k in range(lo, hi + 1):
                witnesses = enumerate_restricted_labelings(
                    self, ell, pinned_fibers={p: (k,) * ell})
                if next(witnesses, None) is None:
                    return False
        return True


def restriction_rq(poset: Poset, q: int) -> RestrictionFunction:
    """The widest consistent intervals inside 1..q for a graded poset:
    element p may take labels rk(p)+1 through q-n+rk(p)."""
    if not poset.is_graded:
        raise ValueError("restriction requires a graded poset")
    n = poset.rank_max
    if q < n + 1:
        raise ValueError(f"q={q} leaves no labels for a rank-{n} poset")
    intervals = tuple((poset.rank(p) + 1, q - n + poset.rank(p))
                      for p in poset.elements)
    return RestrictionFunction(poset, q, intervals)


@dataclass(frozen=True)
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
        if len(self.fibers) != len(poset):
            raise ValueError("one fiber per element required")
        for e, fiber, (lo, hi) in zip(poset.elements, self.fibers,
                                      rf.intervals):
            if len(fiber) != self.ell:
                raise ValueError(f"fiber of {e!r} has wrong length")
            for a, b in zip(fiber, fiber[1:]):
                if a > b:
                    raise ValueError(f"fiber of {e!r} decreases")
            if not (lo <= fiber[0] and fiber[-1] <= hi):
                raise ValueError(f"fiber of {e!r} leaves its interval")
        up, _ = _cover_indices(poset)
        for ai, fa in enumerate(self.fibers):
            for bi in up[ai]:
                fb = self.fibers[bi]
                for i in range(self.ell):
                    if fa[i] >= fb[i]:
                        raise ValueError(
                            f"layer {i + 1} not strict across "
                            f"{poset.elements[ai]!r} < {poset.elements[bi]!r}")

    @property
    def q(self) -> int:
        return self.restriction.q

    def fiber(self, p: Element) -> tuple[int, ...]:
        return self.fibers[self.restriction.poset.index(p)]

    def layer(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.ell:
            raise ValueError(f"layer {i} out of range 1..{self.ell}")
        return tuple(f[i - 1] for f in self.fibers)

    def value(self, p: Element, i: int) -> int:
        if not 1 <= i <= self.ell:
            raise ValueError(f"layer {i} out of range 1..{self.ell}")
        return self.fiber(p)[i - 1]

    def to_json(self) -> dict:
        return {"ell": self.ell, "q": self.q,
                "fibers": {str(p): list(f)
                           for p, f in zip(self.restriction.poset.elements,
                                           self.fibers)}}

    @classmethod
    def from_json(cls, data: dict) -> "PStrictLabeling":
        rf = restriction_rq(make_v(), data["q"])
        fibers = tuple(tuple(data["fibers"][p]) for p in ("A", "B", "C"))
        return cls(rf, data["ell"], fibers)

    def __repr__(self) -> str:
        body = "; ".join(f"{p}:{','.join(map(str, f))}"
                         for p, f in zip(self.restriction.poset.elements,
                                         self.fibers))
        return f"PStrictLabeling({body})"


def _weakly_increasing(lo: int, hi: int, length: int,
                       floor: tuple[int, ...] | None = None) -> Iterator[tuple[int, ...]]:
    """Weakly increasing tuples over lo..hi, optionally strictly above a
    per-position floor, in lexicographic order."""
    for t in combinations_with_replacement(range(lo, hi + 1), length):
        if floor is None or all(v > f for v, f in zip(t, floor)):
            yield t


def enumerate_restricted_labelings(
        rf: RestrictionFunction, ell: int,
        pinned_fibers: dict[Element, tuple[int, ...]] | None = None
) -> Iterator[PStrictLabeling]:
    """All labelings for ``rf``, lexicographic on the concatenated fibers.

    Requires poset.elements to be topologically sorted (all our posets
    are).  A pinned fiber is emitted as given if it fits.
    """
    elems = rf.poset.elements
    _, lower = _cover_indices(rf.poset)
    if any(d >= i for i, down in enumerate(lower) for d in down):
        raise ValueError("element order is not topological")
    pinned = pinned_fibers or {}
    fibers: list[tuple[int, ...]] = [()] * len(elems)

    def rec(i: int) -> Iterator[PStrictLabeling]:
        if i == len(elems):
            yield PStrictLabeling(rf, ell, tuple(fibers))
            return
        e = elems[i]
        lo, hi = rf.intervals[i]
        down = lower[i]
        floor = tuple(max((fibers[d][j] for d in down), default=0)
                      for j in range(ell)) if down else None
        if e in pinned:
            t = pinned[e]
            ok = (len(t) == ell and all(a <= b for a, b in zip(t, t[1:]))
                  and lo <= t[0] and t[-1] <= hi
                  and (floor is None or all(v > f for v, f in zip(t, floor))))
            if ok:
                fibers[i] = t
                yield from rec(i + 1)
            return
        for t in _weakly_increasing(lo, hi, ell, floor):
            fibers[i] = t
            yield from rec(i + 1)

    return rec(0)


def enumerate_labelings(ell: int, q: int) -> Iterator[PStrictLabeling]:
    """All labelings of V x [ell] with labels in 1..q, lexicographic on
    the concatenated A, B, C fibers."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if q < 3:
        raise ValueError("q must be >= 3 for the V poset")
    return enumerate_restricted_labelings(restriction_rq(make_v(), q), ell)


def _raisable_layers(f: PStrictLabeling, ei: int, k: int) -> list[int]:
    """0-based layers of fiber ``ei`` holding a k that can move up to k+1:
    every upper cover's label in that layer must already exceed k+1."""
    rf = f.restriction
    lo, hi = rf.intervals[ei]
    if k + 1 > hi:
        return []
    up = [rf.poset.index(u) for u in rf.poset.upper_covers(rf.poset.elements[ei])]
    fiber = f.fibers[ei]
    return [i for i, v in enumerate(fiber)
            if v == k and all(f.fibers[u][i] >= k + 2 for u in up)]


def _lowerable_layers(f: PStrictLabeling, ei: int, k: int) -> list[int]:
    """0-based layers of fiber ``ei`` holding a k+1 that can move down to k:
    every lower cover's label in that layer must stay below k."""
    rf = f.restriction
    lo, hi = rf.intervals[ei]
    if k < lo:
        return []
    down = [rf.poset.index(d) for d in rf.poset.lower_covers(rf.poset.elements[ei])]
    fiber = f.fibers[ei]
    return [i for i, v in enumerate(fiber)
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
        alternatives = [alt for alt in _weakly_increasing(lo, hi, f.ell)
                        if _fiber_fits(f, ei, alt)]
        for i, v in enumerate(f.fibers[ei]):
            if v == k and any(alt[i] > v for alt in alternatives):
                raisable.append((p, i + 1))
            if v == k + 1 and any(alt[i] < v for alt in alternatives):
                lowerable.append((p, i + 1))
    return tuple(raisable), tuple(lowerable)


def _fiber_fits(f: PStrictLabeling, ei: int, fiber: tuple[int, ...]) -> bool:
    poset = f.restriction.poset
    e = poset.elements[ei]
    for u in poset.upper_covers(e):
        fu = f.fiber(u)
        if any(fiber[i] >= fu[i] for i in range(f.ell)):
            return False
    for d in poset.lower_covers(e):
        fd = f.fiber(d)
        if any(fd[i] >= fiber[i] for i in range(f.ell)):
            return False
    return True


def _tau_fibers(fibers, k, up, down, intervals):
    """tau_k on raw fibers; returns ``fibers`` itself when nothing moves.

    Fibers of covers increase weakly too, so in the run of k's the free
    ones (every upper cover already above k+1) form a suffix, and in the
    run of (k+1)'s the free ones (every lower cover below k) a prefix.
    The two runs meet, so one slice is rewritten.  The free labels are
    those _raisable_layers and _lowerable_layers find layer by layer.
    """
    new = None
    for ei, fiber in enumerate(fibers):
        a = bisect_left(fiber, k)
        c = bisect_right(fiber, k + 1, a)
        if a == c:
            continue
        b = bisect_right(fiber, k, a, c)
        lo, hi = intervals[ei]
        s = b
        if k < hi:
            while s > a and all(fibers[u][s - 1] > k + 1 for u in up[ei]):
                s -= 1
        t = b
        if k >= lo:
            while t < c and all(fibers[d][t] < k for d in down[ei]):
                t += 1
        if t - b == b - s:  # as many free k's as free (k+1)'s: no change
            continue
        if new is None:
            new = list(fibers)
        new[ei] = (fiber[:s] + (k,) * (t - b) + (k + 1,) * (b - s)
                   + fiber[t:])
    return fibers if new is None else tuple(new)


def bender_knuth_tau(k: int, f: PStrictLabeling) -> PStrictLabeling:
    """Within each fiber, turn a free k's followed by b free (k+1)'s into
    b k's followed by a (k+1)'s."""
    if not 1 <= k <= f.q - 1:
        raise ValueError(f"k={k} out of range 1..{f.q - 1}")
    rf = f.restriction
    fibers = _tau_fibers(f.fibers, k, *_cover_indices(rf.poset),
                         rf.intervals)
    if fibers is f.fibers:
        return f
    return PStrictLabeling(rf, f.ell, fibers)


def promote_pstrict(f: PStrictLabeling) -> PStrictLabeling:
    """Compose the Bender-Knuth involutions tau_1, ..., tau_{q-1}, stepping
    the raw fibers and validating only the result."""
    rf = f.restriction
    up, down = _cover_indices(rf.poset)
    fibers = f.fibers
    for k in range(1, rf.q):
        fibers = _tau_fibers(fibers, k, up, down, rf.intervals)
    if fibers is f.fibers:
        return f
    return PStrictLabeling(rf, f.ell, fibers)


def swap_bc(f: PStrictLabeling) -> PStrictLabeling:
    """Exchange the B and C fibers of a labeling over the V poset."""
    poset = f.restriction.poset
    if poset != make_v():
        raise ValueError("swap_bc is defined for labelings of V only")
    fa, fb, fc = f.fibers
    return PStrictLabeling(f.restriction, f.ell, (fa, fc, fb))
