"""Promotion of linear extensions of V x [n] and of Kreweras words.

A Kreweras word of length 3n has n each of A, B, C and every prefix
holds at least as many A's as B's and as C's.  Words correspond to
linear extensions of V x [n] by reading off the V coordinate in label
order; both carry a promotion action and the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .poset import LinearExtension, Poset, make_v, product_with_chain, \
    v_chain_layers

__all__ = [
    "KrewerasWord", "BumpDiagram", "kreweras_number", "bender_knuth",
    "promote_linext", "to_kreweras", "from_kreweras", "promote_kreweras",
    "bump_diagram", "is_crossing", "is_noncrossing", "swap_bc_letters",
]


def kreweras_number(n: int) -> int:
    """Count of Kreweras words of length 3n: 4^n (3n)! / ((n+1)! (2n+1)!)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return 4 ** n * factorial(3 * n) // (factorial(n + 1) * factorial(2 * n + 1))


@dataclass(frozen=True)
class KrewerasWord:
    letters: str

    def __post_init__(self):
        s = self.letters
        if len(s) % 3 != 0 or set(s) - set("ABC"):
            raise ValueError(f"not a word over A,B,C of length 3n: {s!r}")
        n = len(s) // 3
        if s.count("A") != n or s.count("B") != n or s.count("C") != n:
            raise ValueError(f"letter counts differ: {s!r}")
        a = b = c = 0
        for ch in s:
            a += ch == "A"
            b += ch == "B"
            c += ch == "C"
            if b > a or c > a:
                raise ValueError(f"prefix dominance fails in {s!r}")

    @property
    def n(self) -> int:
        return len(self.letters) // 3

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"KrewerasWord({self.letters!r})"


def bender_knuth(i: int, ext: LinearExtension) -> LinearExtension:
    """Swap labels i and i+1 when their elements are incomparable."""
    if not 1 <= i <= ext.m - 1:
        raise ValueError(f"index {i} out of range 1..{ext.m - 1}")
    x, y = ext.labels.index(i), ext.labels.index(i + 1)
    # adjacent labels are comparable only if the second covers the first
    if y in ext.poset._up[x]:
        return ext
    labels = list(ext.labels)
    labels[x], labels[y] = i + 1, i
    return LinearExtension(ext.poset, tuple(labels))


def promote_linext(ext: LinearExtension) -> LinearExtension:
    """Apply the Bender-Knuth involutions t_1, t_2, ..., t_{m-1} in order
    to the element indices listed by label, as bender_knuth tests them."""
    up = ext.poset._up
    order = [0] * ext.m
    for x, label in enumerate(ext.labels):
        order[label - 1] = x
    for i in range(len(order) - 1):
        if order[i + 1] not in up[order[i]]:
            order[i], order[i + 1] = order[i + 1], order[i]
    labels = [0] * len(order)
    for label, x in enumerate(order, start=1):
        labels[x] = label
    return LinearExtension(ext.poset, tuple(labels))


def to_kreweras(ext: LinearExtension) -> KrewerasWord:
    """Forget the layer coordinate: letter i is the V coordinate of label i."""
    if v_chain_layers(ext.poset) is None:
        raise ValueError("poset is not of the form V x [n]")
    return KrewerasWord("".join(e[0] for e in ext.order()))


def from_kreweras(word: KrewerasWord) -> LinearExtension:
    """The unique linear extension of V x [n] spelling ``word``; the k-th
    occurrence of a letter sits in layer k."""
    n = word.n
    poset = product_with_chain(make_v(), max(n, 1)) if n else Poset((), ())
    seen = {"A": 0, "B": 0, "C": 0}
    labels = [0] * (3 * n)
    for pos, ch in enumerate(word.letters, start=1):
        seen[ch] += 1
        labels[poset.index((ch, seen[ch]))] = pos
    return LinearExtension(poset, tuple(labels))


def promote_kreweras(word: KrewerasWord) -> KrewerasWord:
    """Promotion of a Kreweras word.

    Scan for the first index where the prefix balances A's against B's
    or against C's; drop the leading letter, insert an A just before
    that index, and rotate the balancing letter to the end.
    """
    s = word.letters
    if not s:
        return word
    surplus_b = surplus_c = 0
    iota = len(s)
    for idx, ch in enumerate(s, start=1):
        if ch == "A":
            surplus_b += 1
            surplus_c += 1
        elif ch == "B":
            surplus_b -= 1
        else:
            surplus_c -= 1
        if surplus_b == 0 or surplus_c == 0:
            iota = idx
            break
    return KrewerasWord(s[1:iota - 1] + "A" + s[iota:] + s[iota - 1])


def swap_bc_letters(word: KrewerasWord) -> KrewerasWord:
    """Exchange every B with a C and vice versa."""
    table = str.maketrans("BC", "CB")
    return KrewerasWord(word.letters.translate(table))


def is_crossing(arc1: tuple[int, int], arc2: tuple[int, int]) -> bool:
    """Two arcs (i,j), (k,l) cross when i <= k < j < l in one order."""
    i, j = arc1
    k, l = arc2
    return (i <= k < j < l) or (k <= i < l < j)


def is_noncrossing(arcs) -> bool:
    arcs = sorted(arcs)
    return not any(is_crossing(a, b)
                   for idx, a in enumerate(arcs) for b in arcs[idx + 1:])


@dataclass(frozen=True)
class BumpDiagram:
    """The two noncrossing matchings of a Kreweras word: A's open arcs,
    B's close the solid family, C's the dashed family."""

    length: int
    arcs_b: frozenset[tuple[int, int]]
    arcs_c: frozenset[tuple[int, int]]

    def __post_init__(self):
        for arcs in (self.arcs_b, self.arcs_c):
            if not is_noncrossing(arcs):
                raise ValueError("matching has a crossing")
            if any(not (1 <= i < j <= self.length) for i, j in arcs):
                raise ValueError("arc endpoints out of range")


def _matchings(letters) -> tuple[list, list]:
    """The (opener, closer) positions, counted from 1, of the B arcs and
    of the C arcs: each B (and each C) closes the most recent open A.

    The stack discipline yields the unique noncrossing matching whose
    openers are the A positions and closers the B (resp. C) positions.
    """
    arcs_b, arcs_c = [], []
    open_b, open_c = [], []
    for pos, ch in enumerate(letters, start=1):
        if ch == "A":
            open_b.append(pos)
            open_c.append(pos)
        elif ch == "B":
            arcs_b.append((open_b.pop(), pos))
        else:
            arcs_c.append((open_c.pop(), pos))
    return arcs_b, arcs_c


def bump_diagram(word: KrewerasWord) -> BumpDiagram:
    """The two matchings of a Kreweras word (_matchings)."""
    arcs_b, arcs_c = _matchings(word.letters)
    return BumpDiagram(len(word), frozenset(arcs_b), frozenset(arcs_c))
