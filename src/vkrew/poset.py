"""Finite posets, the V poset, chain products, and linear extensions."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Iterator

Element = Hashable


class PosetError(ValueError):
    """Inconsistent poset data: cycles, redundant covers, unknown elements."""


class Poset:
    """An immutable finite poset given by elements and cover relations.

    The full order relation (reflexive-transitive closure of the covers)
    is computed eagerly at construction; posets in this library stay well
    under ~30 elements and comparability queries dominate.  The element
    tuple fixes the canonical order used by all enumerations.
    """

    __slots__ = ("elements", "covers", "_index", "_up", "_down", "_above",
                 "_ranks", "_hash")

    def __init__(self, elements: Iterable[Element],
                 covers: Iterable[tuple[Element, Element]]):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise PosetError("duplicate elements")
        self.covers = frozenset((a, b) for a, b in covers)
        self._index = {e: i for i, e in enumerate(self.elements)}
        for a, b in self.covers:
            if a not in self._index or b not in self._index:
                raise PosetError(f"cover ({a!r}, {b!r}) uses unknown elements")
            if a == b:
                raise PosetError(f"cover loop at {a!r}")
        self._up = {e: tuple(sorted((b for a, b in self.covers if a == e),
                                    key=self._index.__getitem__))
                    for e in self.elements}
        self._down = {e: tuple(sorted((a for a, b in self.covers if b == e),
                                      key=self._index.__getitem__))
                      for e in self.elements}
        topo = self._toposort()
        self._above = self._closure(topo)
        self._check_irredundant()
        self._ranks = self._grade(topo)
        self._hash = hash((self.elements, self.covers))

    def _toposort(self) -> list[Element]:
        indeg = {e: len(self._down[e]) for e in self.elements}
        queue = [e for e in self.elements if indeg[e] == 0]
        topo = []
        while queue:
            e = queue.pop()
            topo.append(e)
            for u in self._up[e]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    queue.append(u)
        if len(topo) != len(self.elements):
            raise PosetError("cover relations contain a directed cycle")
        return topo

    def _closure(self, topo: list[Element]) -> dict[Element, frozenset]:
        above: dict[Element, frozenset] = {}
        for e in reversed(topo):
            acc: set = set()
            for u in self._up[e]:
                acc.add(u)
                acc |= above[u]
            above[e] = frozenset(acc)
        return above

    def _check_irredundant(self) -> None:
        for a, b in self.covers:
            for c in self._above[a]:
                if c != b and b in self._above[c]:
                    raise PosetError(
                        f"cover ({a!r}, {b!r}) is redundant: {a!r} < {c!r} < {b!r}")

    def _grade(self, topo: list[Element]) -> dict[Element, int] | None:
        # longest path from a minimal element; graded iff every cover
        # raises it by exactly 1 and all maximal elements agree
        rk = {}
        for e in topo:
            rk[e] = max((rk[d] + 1 for d in self._down[e]), default=0)
        for a, b in self.covers:
            if rk[b] != rk[a] + 1:
                return None
        tops = {rk[e] for e in self.elements if not self._up[e]}
        if len(tops) > 1:
            return None
        return rk

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: Element) -> bool:
        return e in self._index

    def index(self, e: Element) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise PosetError(f"unknown element {e!r}") from None

    def leq(self, a: Element, b: Element) -> bool:
        if a not in self._index or b not in self._index:
            raise PosetError(f"unknown element in leq({a!r}, {b!r})")
        return a == b or b in self._above[a]

    def comparable(self, a: Element, b: Element) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def upper_covers(self, e: Element) -> tuple[Element, ...]:
        self.index(e)
        return self._up[e]

    def lower_covers(self, e: Element) -> tuple[Element, ...]:
        self.index(e)
        return self._down[e]

    @property
    def is_graded(self) -> bool:
        return self._ranks is not None

    def rank(self, e: Element) -> int:
        if self._ranks is None:
            raise PosetError("poset is not graded")
        self.index(e)
        return self._ranks[e]

    @property
    def rank_max(self) -> int:
        """Rank n of a graded poset (maximal chains have n+1 elements)."""
        if self._ranks is None:
            raise PosetError("poset is not graded")
        return max(self._ranks.values(), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self.covers == other.covers

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"


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


@lru_cache(maxsize=None)
def _cover_pairs(poset: Poset) -> tuple[tuple[int, int], ...]:
    """Every cover a < b as an index pair, in element order of a, then b."""
    up, _ = _cover_indices(poset)
    return tuple((a, b) for a, ups in enumerate(up) for b in ups)


_members: tuple = (None, None, {})  # owner, ell, members; see below


@contextmanager
def _table_members(owner, ell: int, members: dict) -> Iterator[None]:
    """While the block runs, let steps over ``owner`` at ``ell`` return
    ``members``, a table's elements by raw form; nothing is kept after."""
    global _members
    _members = owner, ell, members
    try:
        yield
    finally:
        _members = None, None, {}


def _member(cls, owner, ell: int, raw):
    """The stepped table's element for ``raw``, else a validated new one."""
    at, at_ell, members = _members
    f = members.get(raw) if at is owner and at_ell == ell else None
    return cls(owner, ell, raw) if f is None else f


@lru_cache(maxsize=None)
def make_v() -> Poset:
    """The 3-element poset on A, B, C with A below both B and C."""
    return Poset(("A", "B", "C"), (("A", "B"), ("A", "C")))


@lru_cache(maxsize=None)
def product_with_chain(base: Poset, k: int) -> Poset:
    """Direct product of ``base`` with the k-element chain.

    Elements are pairs (p, i) with i in 1..k; (p, i) <= (p', i') iff
    p <= p' and i <= i'.
    """
    if k < 1:
        raise ValueError(f"chain length must be >= 1, got {k}")
    elements = [(p, i) for p in base.elements for i in range(1, k + 1)]
    covers = [((a, i), (b, i)) for a, b in base.covers for i in range(1, k + 1)]
    covers += [((p, i), (p, i + 1)) for p in base.elements for i in range(1, k)]
    return Poset(elements, covers)


def v_chain_layers(poset: Poset) -> int | None:
    """Number of layers k if ``poset`` is exactly V x [k], else None."""
    if len(poset) % 3 != 0 or len(poset) == 0:
        return None
    k = len(poset) // 3
    if poset == product_with_chain(make_v(), k):
        return k
    return None


@dataclass(frozen=True)
class LinearExtension:
    """An order-preserving bijection from a poset onto 1..m."""

    poset: Poset
    labels: tuple[int, ...]  # aligned with poset.elements

    def __post_init__(self):
        m = len(self.poset)
        if len(self.labels) != m or sorted(self.labels) != list(range(1, m + 1)):
            raise ValueError("labels must be a bijection onto 1..m")
        labels = self.labels
        for a, b in _cover_pairs(self.poset):
            if labels[a] >= labels[b]:
                elements = self.poset.elements
                raise ValueError(f"labels do not respect "
                                 f"{elements[a]!r} < {elements[b]!r}")

    @property
    def m(self) -> int:
        return len(self.labels)

    def order(self) -> tuple[Element, ...]:
        """Elements listed by increasing label."""
        seq = [None] * self.m
        for e, v in zip(self.poset.elements, self.labels):
            seq[v - 1] = e
        return tuple(seq)

    def __repr__(self) -> str:
        return f"LinearExtension({self.labels})"


def linear_extensions(poset: Poset) -> Iterator[LinearExtension]:
    """All linear extensions, lexicographic on the label sequence read in
    element order.  Lazy: the first extension costs one backtracking walk.
    """
    elems = poset.elements
    m = len(elems)
    below = [[j for j in range(i) if poset.leq(elems[j], elems[i])]
             for i in range(m)]
    above = [[j for j in range(i) if poset.leq(elems[i], elems[j])]
             for i in range(m)]
    labels = [0] * m
    used = [False] * (m + 2)

    def assign(i: int) -> Iterator[LinearExtension]:
        if i == m:
            yield LinearExtension(poset, tuple(labels))
            return
        lo = max((labels[j] for j in below[i]), default=0)
        hi = min((labels[j] for j in above[i]), default=m + 1)
        for v in range(lo + 1, hi):
            if not used[v]:
                used[v] = True
                labels[i] = v
                yield from assign(i + 1)
                used[v] = False
        labels[i] = 0

    return assign(0)
