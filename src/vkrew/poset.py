"""Finite posets, the V poset, chain products, and linear extensions."""

from __future__ import annotations

from array import array
from bisect import bisect_right
from copy import copy
from dataclasses import dataclass
from functools import lru_cache
from itertools import tee
from typing import Callable, Hashable, Iterable, Iterator, Sequence

Element = Hashable


class PosetError(ValueError):
    """Inconsistent poset data: cycles, redundant covers, unknown elements."""


class Poset:
    """An immutable finite poset given by elements and cover relations.

    Only the covers are kept, not the order relation.  The element tuple
    fixes the canonical order used by all enumerations, and the covers are
    also kept by element index (``_up``, ``_down``, ``_cover_pairs``,
    with one topological order ``_topo``), the form the enumerations,
    validators and steps read.
    """

    __slots__ = ("elements", "covers", "_index", "_up", "_down",
                 "_cover_pairs", "_topo", "_ranks", "_hash")

    def __init__(self, elements: Iterable[Element],
                 covers: Iterable[tuple[Element, Element]]):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise PosetError("duplicate elements")
        self.covers = frozenset((a, b) for a, b in covers)
        self._index = {e: i for i, e in enumerate(self.elements)}
        up: list[list[int]] = [[] for _ in self.elements]
        down: list[list[int]] = [[] for _ in self.elements]
        for a, b in self.covers:
            if a not in self._index or b not in self._index:
                raise PosetError(f"cover ({a!r}, {b!r}) uses unknown elements")
            if a == b:
                raise PosetError(f"cover loop at {a!r}")
            up[self._index[a]].append(self._index[b])
            down[self._index[b]].append(self._index[a])
        # each element's covers ascending, and the pairs a < b in index
        # order of a, then b
        self._up = tuple(tuple(sorted(u)) for u in up)
        self._down = tuple(tuple(sorted(d)) for d in down)
        self._cover_pairs = tuple((a, b) for a, ups in enumerate(self._up)
                                  for b in ups)
        # a topological order of the indices, kept for the walks and sweeps
        # that read one, and the longest path from a minimal element
        indeg = [len(d) for d in self._down]
        queue = [i for i, n in enumerate(indeg) if n == 0]
        topo = []
        rk = [0] * len(self.elements)
        while queue:
            i = queue.pop()
            topo.append(i)
            rk[i] = max((rk[d] + 1 for d in self._down[i]), default=0)
            for u in self._up[i]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    queue.append(u)
        if len(topo) != len(self.elements):
            raise PosetError("cover relations contain a directed cycle")
        self._topo = tuple(topo)
        self._check_irredundant(rk)
        self._ranks = self._grade(rk)
        self._hash = hash((self.elements, self.covers))

    def _check_irredundant(self, rk: list[int]) -> None:
        # cover (a, b) is redundant when b lies above another upper cover
        # c of a; then a < c <= b is a longer path, so only a cover that
        # skips a longest-path rank is searched, up the covers by leq
        e = self.elements
        for a, b in self._cover_pairs:
            for c in self._up[a] if rk[b] > rk[a] + 1 else ():
                if c != b and self.leq(e[c], e[b]):
                    raise PosetError(f"cover ({e[a]!r}, {e[b]!r}) is "
                                     f"redundant: {e[a]!r} < {e[c]!r} < "
                                     f"{e[b]!r}")

    def _grade(self, rk: list[int]) -> list[int] | None:
        # graded iff every cover raises the longest-path rank by exactly 1
        # and all maximal elements agree
        for a, b in self._cover_pairs:
            if rk[b] != rk[a] + 1:
                return None
        tops = {r for r, ups in zip(rk, self._up) if not ups}
        if len(tops) > 1:
            return None
        return rk

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, e: Element) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise PosetError(f"unknown element {e!r}") from None

    def leq(self, a: Element, b: Element) -> bool:
        """Whether a <= b, by a search up the covers from a."""
        i, j = self._index.get(a), self._index.get(b)
        if i is None or j is None:
            raise PosetError(f"unknown element in leq({a!r}, {b!r})")
        seen, stack = set(), [i]
        while stack and j not in seen:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(self._up[x])
        return j in seen

    def upper_covers(self, e: Element) -> tuple[Element, ...]:
        return tuple(map(self.elements.__getitem__, self._up[self.index(e)]))

    def lower_covers(self, e: Element) -> tuple[Element, ...]:
        return tuple(map(self.elements.__getitem__, self._down[self.index(e)]))

    @property
    def is_graded(self) -> bool:
        return self._ranks is not None

    def rank(self, e: Element) -> int:
        if self._ranks is None:
            raise PosetError("poset is not graded")
        return self._ranks[self.index(e)]

    @property
    def rank_max(self) -> int:
        """Rank n of a graded poset (maximal chains have n+1 elements)."""
        if self._ranks is None:
            raise PosetError("poset is not graded")
        return max(self._ranks, default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self.covers == other.covers

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"


def _unvalidated(cls):
    """``(owner, ell, raw) -> cls(owner, ell, raw)`` for raw forms known to
    be valid: skips ``__post_init__`` by setting the frozen dataclass's
    three slots."""
    new = object.__new__
    set_owner, set_ell, set_raw = (getattr(cls, name).__set__
                                   for name in cls.__slots__)

    def build(owner, ell: int, raw):
        obj = new(cls)
        set_owner(obj, owner)
        set_ell(obj, ell)
        set_raw(obj, raw)
        return obj
    return build


class _Memo(dict):
    """A dict that fills a missing entry with ``fill(key)``."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _column_moves(under: Callable[[tuple, tuple], tuple],
                  over: Callable[[tuple, tuple], tuple]):
    """The column kernel on V, on columns interned to ids: values (id ->
    column), ids (column -> id, interning), low[x, y] (their entrywise
    min), move_a[a, m] (under(a, m): A under m = min(B, C)) and
    move_bc[a, x] (over(a, x): B or C over A), each entry filled once."""
    values: list = []

    def intern(value):
        values.append(value)
        return len(values) - 1

    def moves(move):
        return _Memo(lambda xy: ids[move(values[xy[0]], values[xy[1]])])

    ids = _Memo(intern)
    low = moves(lambda x, y: tuple(map(min, x, y)))
    return values, ids, low, moves(under), moves(over)


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
        for a, b in self.poset._cover_pairs:
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


def _order_preserving_maps(poset: Poset, bottom: Sequence[int],
                           top: Sequence[int], used: list[bool] | None = None,
                           ) -> Iterator[tuple[int, ...]]:
    """Value tuples of the maps that send each element into its own
    bottom..top (both aligned with poset.elements) and weakly increase
    along every cover, lexicographic in element order.  Given ``used``, a
    table False at every value of every bottom..top, the values are also
    distinct, so they increase strictly.  Without it the walk keeps no
    table indexed by value, so a large ``top`` costs nothing.

    Each value is bounded by its covers placed before it: respecting every
    cover implies respecting the order, in any element order.  The values
    are walked on an explicit stack, so depth is no limit.
    """
    up, down = poset._up, poset._down
    m = len(up)
    below = [tuple(j for j in down[i] if j < i) for i in range(m)]
    above = [tuple(j for j in up[i] if j < i) for i in range(m)]
    values, tops = [0] * m, [0] * m
    i = 0  # the next position to open, at its least free value
    while i >= 0:
        if i == m:
            yield tuple(values)
        else:
            v, hi = bottom[i], top[i]
            for j in below[i]:
                if values[j] > v:
                    v = values[j]
            for j in above[i]:
                if values[j] < hi:
                    hi = values[j]
            if used:
                while v <= hi and used[v]:
                    v += 1
            values[i], tops[i] = v, hi
            if v <= hi:
                if used:
                    used[v] = True
                i += 1
                continue
        # back up to the last position with a free value below its top,
        # and raise it
        i -= 1
        while i >= 0:
            v, hi = values[i] + 1, tops[i]
            if used:
                used[v - 1] = False
                while v <= hi and used[v]:
                    v += 1
            if v <= hi:
                if used:
                    used[v] = True
                values[i] = v
                i += 1
                break
            i -= 1


def _closure_sizes(order: Iterable[int], covers: Sequence[tuple[int, ...]],
                   readers: Sequence[tuple[int, ...]]) -> list[int]:
    """The size of each element's strict closure along ``covers`` (down
    along _down, up along _up), visited in ``order``, covers first.  Each
    closure is a bitset kept until the last of its ``readers`` has read it,
    so memory holds the frontier of the order, not every closure."""
    sets, left, sizes = {}, list(map(len, readers)), [0] * len(readers)
    for i in order:
        s = 0
        for d in covers[i]:
            s |= 1 << d | sets[d]
            left[d] -= 1
            if not left[d]:
                del sets[d]
        sizes[i] = s.bit_count()
        if left[i]:
            sets[i] = s
    return sizes


def linear_extensions(poset: Poset) -> Iterator[LinearExtension]:
    """All linear extensions, lexicographic on the label sequence read in
    element order: the order-preserving maps onto 1..m with distinct
    values, walked by _order_preserving_maps within the bounds every
    extension keeps, 1 + |strict down-set| .. m - |strict up-set|.  Lazy,
    and no depth limit."""
    topo, m = poset._topo, len(poset)
    below = _closure_sizes(topo, poset._down, poset._up)
    above = _closure_sizes(reversed(topo), poset._up, poset._down)
    return (LinearExtension(poset, labels) for labels in
            _order_preserving_maps(poset, [1 + n for n in below],
                                   [m - n for n in above], [False] * (m + 2)))


@lru_cache(maxsize=None)
def _chain(k: int) -> Poset:
    """The chain 0 < 1 < ... < k-1."""
    return Poset(range(k), zip(range(k - 1), range(1, k)))


def _columns(bottom: tuple[int, ...], top: int) -> Iterator[tuple[int, ...]]:
    """The weakly increasing tuples y with bottom[i] <= y[i] <= top,
    lexicographic, for a weakly increasing ``bottom``: the walk on a
    chain, so nothing is sized by ``top``."""
    k = len(bottom)
    return _order_preserving_maps(_chain(k), bottom, (top,) * k)


def _ranked_columns(a: Iterable[tuple],
                    over: Callable[[tuple], Iterable[tuple]],
                    ) -> Iterator[tuple[tuple, tuple, Iterator[tuple]]]:
    """The column triples of the maps on V x [k], in ranked order: (x, y,
    zs) for each A column x of ``a``, each B column y of over(x), and zs
    an iterator of the C columns, over(x) again.  The caller loops over zs
    itself, so no call is added per element.

    Every source is read lazily, so the first triple costs a few
    columns: ``a`` once, over(x) once per x, kept in a tee buffer that
    the B loop and each y's zs copy and dropped when x moves on, so
    memory holds the columns over one A column.
    """
    for x in a:
        zs = tee(over(x), 1)[0]  # never advanced itself: copies replay
        for y in copy(zs):
            yield x, y, copy(zs)


class _Ranks:
    """The column triples that _ranked_columns lists from the same
    sources, as a sequence of the elements they make, without keeping
    the triples.  ``blocks`` is {x: (start, pos)} for each A column x,
    with pos the place of each column in over(x), which B and C share,
    and start the count of the triples before x's; ``starts`` and
    ``rows`` list each block's start and (x, over-list) in order.  With
    m = len(pos), the triple (x, y, z) is at start + pos[y]·m + pos[z],
    and the element at a position is ``build`` of its triple."""

    __slots__ = ("blocks", "starts", "rows", "build", "size")

    def __init__(self, build: Callable[[tuple, tuple, tuple], object]):
        self.blocks: dict = {}
        self.starts: list[int] = []
        self.rows: list[tuple[tuple, tuple]] = []
        self.build, self.size = build, 0

    def add(self, x: tuple, pos: dict) -> None:
        """Append the block of A column x, its over-list placed by pos."""
        self.blocks[x] = self.size, pos
        self.starts.append(self.size)
        self.rows.append((x, tuple(pos)))
        self.size += len(pos) ** 2

    def __len__(self) -> int:
        return self.size

    def rank(self, x: tuple, y: tuple, z: tuple) -> int | None:
        """The position of the triple (x, y, z), or None if it is none of
        the listed triples."""
        block = self.blocks.get(x)
        if block is None:
            return None
        start, pos = block
        i, j = pos.get(y), pos.get(z)
        return None if i is None or j is None else start + i * len(pos) + j

    def __getitem__(self, p: int):
        """The element at position p, built from its triple: the block by
        bisection over the starts, then its row and column."""
        if not 0 <= p < self.size:
            raise IndexError(f"position {p} out of range")
        b = bisect_right(self.starts, p) - 1
        x, over = self.rows[b]
        i, j = divmod(p - self.starts[b], len(over))
        return self.build(x, over[i], over[j])

    def mirror(self) -> array:
        """The position of the B/C swap of the triple at each position: in
        each block, row i of the square is its column i."""
        out = array("q", [0]) * self.size
        for start, (_, over) in zip(self.starts, self.rows):
            m = len(over)
            end = start + m * m
            for i in range(m):
                row = start + i * m
                out[row:row + m] = array("q", range(start + i, end, m))
        return out


def _rank_table(a: Iterable[tuple],
                over: Callable[[tuple], Iterable[tuple]],
                build: Callable[[tuple, tuple, tuple], object],
                ceiling: int) -> _Ranks | None:
    """The _Ranks of the triples _ranked_columns(a, over) lists, each made
    an element by ``build``, or None once their count passes
    ``ceiling``: each over-list is listed once and stops there, so no more
    than that is listed.  Each column is interned, so the blocks share one
    object per column."""
    ranks, interned = _Ranks(build), {}
    for x in a:
        pos: dict = {}
        for y in over(x):
            pos[interned.setdefault(y, y)] = len(pos)
            if len(ranks) + len(pos) ** 2 > ceiling:
                return None
        ranks.add(interned.setdefault(x, x), pos)
    return ranks
