"""Bounded order-preserving maps, toggles, rowmotion, toggle-promotion.

An ell-bounded partition assigns each poset element a value in 0..ell,
weakly increasing upward.  The toggle at p reflects its value inside
[max of lower covers, min of upper covers], where missing covers
contribute the virtual bounds 0 and ell.  Rowmotion composes all
toggles along a linear extension, maximal elements first;
toggle-promotion groups toggles along diagonals of V x [q-2].

On V x [k] the partitions are listed by the ranked column loops that
also list the labelings of V (poset._ranked_columns): each A column, then
each B column weakly above it, then each such C column, the columns
weakly increasing in 0..ell and walked lazily on a chain
(poset._columns).  The loops keep the C columns over the current A
column, so memory grows with them.  _v_ranks gives a partition's
position in that order from its three columns, and the partition at a
position, by a rank table over the same columns (poset._rank_table), so
an orbit table lists and keeps no partition: its walk builds each
cycle's start from its rank, and the step builds the rest.
On other posets the walk that also lists linear extensions and labelings
off V (poset._order_preserving_maps) lists them, and is the loops'
reference; it bounds each value by 0..ell and by every cover whose
other end was placed earlier, and keeps O(m).  Neither recurses, and the
partitions are built without validation; the constructor and
apply_automorphism validate.  One sweep toggles raw values along
element indices, reading the poset's cover-index tables.  On V x [k],
rowmotion moves the B and C columns, then A, by the column kernel that
promotion on V uses too (poset._column_moves), its lookups filled once
each by the sweep; togpro is the same moves in the other order; each
lookup validates the partition it sweeps when it is filled, so every
partition assembled from moves is valid.  Off V x [k] a step validates
the partition it returns, never the states between its toggles.  The
element-level reading (upper_covers, lower_covers, PPartition.value) is
the reference the tests hold the sweep to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterable, Iterator

from .poset import Element, LinearExtension, Poset, _column_moves, \
    _columns, _order_preserving_maps, _rank_table, _ranked_columns, \
    _unvalidated, make_v, product_with_chain, v_chain_layers

__all__ = [
    "PPartition", "PosetAutomorphism", "enumerate_ppartitions", "toggle",
    "rowmotion", "togpro", "apply_automorphism", "flip_automorphism",
]


@dataclass(frozen=True, slots=True)
class PPartition:
    """An order-preserving map poset -> {0, ..., ell}."""

    poset: Poset
    ell: int
    values: tuple[int, ...]  # aligned with poset.elements

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError("ell must be >= 0")
        values = self.values
        if len(values) != len(self.poset.elements):
            raise ValueError("one value per element required")
        if values and (min(values) < 0 or max(values) > self.ell):
            raise ValueError(f"values must lie in 0..{self.ell}")
        for a, b in self.poset._cover_pairs:
            if values[a] > values[b]:
                elements = self.poset.elements
                raise ValueError(f"values decrease across "
                                 f"{elements[a]!r} < {elements[b]!r}")

    def __hash__(self) -> int:  # equal partitions have equal values
        return hash(self.values)

    def value(self, p: Element) -> int:
        return self.values[self.poset.index(p)]

    def to_json(self) -> dict:
        k = v_chain_layers(self.poset)
        if k is None:
            raise ValueError("JSON form is defined for V x [k] only")
        return {"poset": "VxK", "k": k, "ell": self.ell,
                "values": {f"({p},{i})": self.value((p, i))
                           for p, i in self.poset.elements}}

    def __repr__(self) -> str:
        return f"PPartition({self.values})"


# (poset, ell, values) -> the partition, for values known to be valid
_partition = _unvalidated(PPartition)


def enumerate_ppartitions(poset: Poset, ell: int) -> Iterator[PPartition]:
    """All ell-bounded partitions, lexicographic on the value sequence
    read in element order, built without validation.  Lazy, and no depth
    limit.  On V x [k], the ranked column loops of
    poset._ranked_columns over the weakly increasing columns in 0..ell;
    elsewhere the order-preserving maps into 0..ell, walked by the
    explicit-stack walk linear_extensions shares."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    k = v_chain_layers(poset)
    if k is not None:
        return _v_partitions(poset, ell, k)
    m = len(poset)
    return map(partial(_partition, poset, ell),
               _order_preserving_maps(poset, (0,) * m, (ell,) * m))


def _v_partitions(poset: Poset, ell: int, k: int) -> Iterator[PPartition]:
    """The partitions of V x [k] in ranked order: each A column, then
    each B column weakly above it, then each such C column, the columns
    weakly increasing in 0..ell."""
    over = partial(_columns, top=ell)
    for a, b, cs in _ranked_columns(over((0,) * k), over):
        ab = a + b
        for c in cs:
            yield _partition(poset, ell, ab + c)


def _v_ranks(poset: Poset, ell: int, ceiling: int):
    """The rank table (poset._Ranks) of the partitions of V x [k] bounded
    by ell, a sequence of them in the order enumerate_ppartitions lists
    them, built unvalidated on ``poset``, and locate(f): the position of
    partition f among them, read from its three columns, or None if f has
    another poset or ell.  None once they number more than
    ``ceiling``."""
    k = v_chain_layers(poset)
    over = partial(_columns, top=ell)
    ranks = _rank_table(over((0,) * k), over,
                        lambda a, b, c: _partition(poset, ell, a + b + c),
                        ceiling)
    if ranks is None:
        return None
    rank = ranks.rank

    def locate(f: PPartition) -> int | None:
        if f.ell != ell or (f.poset is not poset and f.poset != poset):
            return None
        v = f.values
        return rank(v[:k], v[k:-k], v[-k:])
    return ranks, locate


def _sweep(values: list[int], order: Iterable[int], poset: Poset,
           ell: int) -> None:
    """Toggle the elements with the given indices, in order, in place."""
    up, down = poset._up, poset._down
    for i in order:
        top = ell
        for u in up[i]:
            if values[u] < top:
                top = values[u]
        bottom = 0
        for d in down[i]:
            if values[d] > bottom:
                bottom = values[d]
        values[i] = top + bottom - values[i]


def toggle(p: Element, f: PPartition) -> PPartition:
    """Reflect the value at p within the window its covers allow."""
    values = list(f.values)
    _sweep(values, (f.poset.index(p),), f.poset, f.ell)
    return PPartition(f.poset, f.ell, tuple(values))


def _rowmotion_order(poset: Poset,
                     ext: LinearExtension | None) -> tuple[int, ...]:
    """Element indices along ``ext`` reversed, or along the poset's
    topological order reversed for None: rowmotion is one map along all."""
    if ext is None:
        return poset._topo[::-1]
    return tuple(poset.index(e) for e in reversed(ext.order()))


@lru_cache(maxsize=1)
def _v_moves(poset: Poset, ell: int):
    """Tables for rowmotion and togpro on V x [k], else None
    (poset._column_moves): move_bc[a, x] sweeps B or C column x over A
    column a, move_a[a, m] column a under m = min(B, C).  Each entry is
    filled once, and checked then by validating the partition it swept,
    (a, x', x) or (a', m, m)."""
    k = v_chain_layers(poset)
    if k is None:
        return None

    def swept(start, a, x):  # sweeps the column at start of (a, x, x)
        values = [*a, *x * 2]
        _sweep(values, range(start + k - 1, start - 1, -1), poset, ell)
        PPartition(poset, ell, tuple(values))  # raises unless valid
        return tuple(values[start:start + k])

    return _column_moves(partial(swept, 0), partial(swept, k))


def rowmotion(f: PPartition, ext: LinearExtension | None = None) -> PPartition:
    """Toggle every element once, from maximal down to minimal along a
    linear extension.  The result does not depend on the extension; the
    default steps by column moves on V x [k], elsewhere it sweeps the
    poset's topological order reversed."""
    if ext is not None and ext.poset != f.poset:
        raise ValueError("linear extension belongs to a different poset")
    if ext is not None or (tables := _v_moves(f.poset, f.ell)) is None:
        values = list(f.values)
        _sweep(values, _rowmotion_order(f.poset, ext), f.poset, f.ell)
        return PPartition(f.poset, f.ell, tuple(values))
    columns, ids, low, move_a, move_bc = tables
    v, k = f.values, len(f.values) // 3
    a, b, c = ids[v[:k]], ids[v[k:-k]], ids[v[-k:]]
    b, c = move_bc[a, b], move_bc[a, c]
    a = move_a[a, low[b, c]]
    return _partition(f.poset, f.ell, columns[a] + columns[b] + columns[c])


def togpro(f: PPartition, q: int) -> PPartition:
    """Toggle-promotion on V x [q-2]: sweep k = 1, 2, ... toggling the
    diagonal {(p, i) : i = q - 1 + rk(p) - k} at each step.  Only toggles
    along a cover fail to commute: this is A top-down, then B and C."""
    tables = _v_moves(f.poset, f.ell)
    if tables is None or len(f.values) != 3 * (q - 2):  # V x [k]: 3k values
        raise ValueError(f"poset must be V x [{q - 2}] for q={q}")
    columns, ids, low, move_a, move_bc = tables
    v, k = f.values, q - 2
    a, b, c = ids[v[:k]], ids[v[k:-k]], ids[v[-k:]]
    a = move_a[a, low[b, c]]
    b, c = move_bc[a, b], move_bc[a, c]
    return _partition(f.poset, f.ell, columns[a] + columns[b] + columns[c])


@dataclass(frozen=True)
class PosetAutomorphism:
    """A cover-preserving bijection of a poset onto itself."""

    poset: Poset
    mapping: tuple[Element, ...]  # image of each element, in element order
    # index of each image, in element order
    _indices: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        indices = tuple(map(self.poset.index, self.mapping))
        if sorted(indices) != list(range(len(self.poset))):
            raise ValueError("mapping is not a bijection on the elements")
        object.__setattr__(self, "_indices", indices)
        for a, b in self.poset.covers:
            if (self(a), self(b)) not in self.poset.covers:
                raise ValueError(f"image of cover ({a!r}, {b!r}) is not a cover")

    def __call__(self, e: Element) -> Element:
        return self.mapping[self.poset.index(e)]


def flip_automorphism(poset: Poset) -> PosetAutomorphism:
    """The automorphism exchanging B and C (layerwise on V x [k])."""
    swap = {"A": "A", "B": "C", "C": "B"}
    if poset == make_v():
        mapping = tuple(swap[p] for p in poset.elements)
    elif v_chain_layers(poset) is not None:
        mapping = tuple((swap[p], i) for p, i in poset.elements)
    else:
        raise ValueError("flip is defined on V and V x [k] only")
    return PosetAutomorphism(poset, mapping)


def apply_automorphism(psi: PosetAutomorphism, f: PPartition) -> PPartition:
    """Relabel a partition along an automorphism: the new value at p is
    the old value at psi(p)."""
    if psi.poset != f.poset:
        raise ValueError("automorphism belongs to a different poset")
    values = tuple(map(f.values.__getitem__, psi._indices))
    return PPartition(f.poset, f.ell, values)
