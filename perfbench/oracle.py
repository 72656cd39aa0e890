"""The benchmark's own counts, samples and symmetries, made apart from vkrew.

Nothing here imports vkrew.  Both families are read layer by layer: layer
i of a labeling of V x [ell] is the triple (A_i, B_i, C_i) of its fiber
entries, and layer i of a partition of V x [k] is the triple of its values
on (A, i), (B, i), (C, i).  Inside a layer A is below B and C (strictly
for labelings, weakly for partitions); from one layer to the next every
coordinate weakly increases.  Counting and sampling are one dynamic
program over those layer triples.
"""

from __future__ import annotations

import random
from functools import lru_cache


@lru_cache(maxsize=None)
def _layer_table(length: int, lo: int, hi: int, strict: bool):
    """(states, ways): ways[i][s] counts the ways to fill layers i+1..length
    when layer i (0-based) is the triple s."""
    if strict:
        states = [(a, b, c) for a in range(lo, hi + 1)
                  for b in range(a + 1, hi + 1) for c in range(a + 1, hi + 1)]
    else:
        states = [(a, b, c) for a in range(lo, hi + 1)
                  for b in range(a, hi + 1) for c in range(a, hi + 1)]
    ways = [{s: 1 for s in states}]
    for _ in range(length - 1):
        after = ways[0]
        ways.insert(0, {s: sum(n for t, n in after.items()
                               if t[0] >= s[0] and t[1] >= s[1] and t[2] >= s[2])
                        for s in states})
    return states, ways


def _count(length: int, lo: int, hi: int, strict: bool) -> int:
    if length < 1:
        raise ValueError("need at least one layer")
    return sum(_layer_table(length, lo, hi, strict)[1][0].values())


def _unrank(r: int, length: int, lo: int, hi: int, strict: bool):
    """The r-th layer sequence, layers compared lexicographically."""
    states, ways = _layer_table(length, lo, hi, strict)
    layers = []
    prev = None
    for i in range(length):
        for s in states:
            if prev is not None and not (s[0] >= prev[0] and s[1] >= prev[1]
                                         and s[2] >= prev[2]):
                continue
            if r < ways[i][s]:
                layers.append(s)
                prev = s
                break
            r -= ways[i][s]
        else:
            raise ValueError("rank out of range")
    return tuple(zip(*layers))  # (A fiber, B fiber, C fiber)


def count_labelings(ell: int, q: int) -> int:
    """Strict labelings of V x [ell] with labels in 1..q."""
    return _count(ell, 1, q, True)


def count_partitions(ell: int, k: int) -> int:
    """Order-preserving maps V x [k] -> 0..ell."""
    return _count(k, 0, ell, False)


def count_extensions(n: int) -> int:
    """Linear extensions of V x [n], counted as words with n each of A, B
    and C whose every prefix has no more B's, and no more C's, than A's."""
    ways = {(0, 0, 0): 1}
    for _ in range(3 * n):
        nxt: dict = {}
        for (a, b, c), m in ways.items():
            for t in ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1)):
                if max(t) <= n and t[1] <= t[0] and t[2] <= t[0]:
                    nxt[t] = nxt.get(t, 0) + m
        ways = nxt
    return ways.get((n, n, n), 0)


def sample_labelings(ell: int, q: int, size: int, seed: int):
    """``size`` distinct labelings as (A, B, C) fiber triples, uniform."""
    ranks = random.Random(f"labelings/{ell}/{q}/{seed}").sample(
        range(count_labelings(ell, q)), size)
    return [_unrank(r, ell, 1, q, True) for r in sorted(ranks)]


def sample_partitions(ell: int, k: int, size: int, seed: int):
    """``size`` distinct partitions as value tuples in vkrew's element
    order (A, 1..k), (B, 1..k), (C, 1..k), uniform."""
    ranks = random.Random(f"partitions/{ell}/{k}/{seed}").sample(
        range(count_partitions(ell, k)), size)
    return [sum(_unrank(r, k, 0, ell, False), ()) for r in sorted(ranks)]


def swap_fibers(fibers):
    """B/C swap of a labeling given as (A, B, C) fibers."""
    a, b, c = fibers
    return (a, c, b)


def flip_values(values, k: int):
    """B/C flip of a partition given as values in vkrew's element order."""
    return values[:k] + values[2 * k:] + values[k:2 * k]
