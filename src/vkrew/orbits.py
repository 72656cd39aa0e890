"""Orbit decomposition of a bijection acting on a finite set."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from math import lcm
from typing import Callable, Iterable, TypeVar

X = TypeVar("X")

__all__ = ["OrbitReport", "orbit_cycles", "power_map"]


class ActionError(ValueError):
    """The map is not a bijection of the given set onto itself."""


def orbit_cycles(step: Callable[[X], X], elements: Iterable[X], *,
                 locate: Callable[[X], int | None] | None = None,
                 ) -> list[array]:
    """Cycles of ``step`` on ``elements``, each a compact array of
    positions in ``elements`` starting at its earliest, in order of
    those.  Each cycle is one walk: the element at the earliest unvisited
    position is stepped, and each image after it, until the walk returns
    to its start, so each element is stepped once and only a cycle's
    start is read from ``elements``.  A walk that closes at its start
    proves its cycle, so the map is a bijection unless a walk reaches an
    element twice.  Raises ActionError if the map leaves the set or
    identifies two elements.

    An image of the element's class is found by ``locate``, which gives
    the position of an element, or None for anything that is none of
    them; then ``elements`` must be a sequence (len and the element at a
    position), which need not keep its elements.  Without it the elements
    are kept in a list, and an image is the element of its class that it
    equals."""
    if locate is None:
        elements = list(elements)
        index = {x: i for i, x in enumerate(elements)}
        if len(index) != len(elements):
            raise ActionError("enumeration repeats an element")
        locate = index.get
    seen = bytearray(len(elements))
    cycles = []
    start = seen.find(0)
    while start >= 0:
        x, cycle = elements[start], [start]
        seen[start] = 1
        while True:
            y = step(x)
            j = locate(y) if type(y) is type(x) else None
            if j is None:
                raise ActionError(f"action leaves the set at {x!r} -> {y!r}")
            if seen[j]:
                break
            seen[j] = 1
            cycle.append(j)
            x = y
        if j != start:  # reached from this walk and from an earlier step
            raise ActionError(f"{y!r} is reached twice; not a bijection")
        cycles.append(array("q", cycle))
        start = seen.find(0, start + 1)
    return cycles


def power_map(cycles: list, t: int) -> array:
    """The position of step^t of each position, as a compact array, from
    the cycles of positions that orbit_cycles returns."""
    out = array("q", [0]) * sum(map(len, cycles))
    for cycle in cycles:
        size = len(cycle)
        for i, x in enumerate(cycle):
            out[x] = cycle[(i + t) % size]
    return out


@dataclass
class OrbitReport:
    """Orbit statistics of one named action at one parameter point."""

    action: str
    params: dict
    count: int
    orbit_sizes: tuple[int, ...]  # sorted descending
    order: int
    checks: dict[str, bool] = field(default_factory=dict)
    counterexamples: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(size < 1 for size in self.orbit_sizes):
            raise ValueError(f"orbit sizes {list(self.orbit_sizes)} "
                             f"include one below 1")
        if sum(self.orbit_sizes) != self.count:
            raise ValueError("orbit sizes do not sum to the element count")
        expected = lcm(*self.orbit_sizes) if self.orbit_sizes else 1
        if self.order != expected:
            raise ValueError(f"order {self.order} != lcm {expected}")

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        data = {
            "action": self.action,
            "params": dict(self.params),
            "count": self.count,
            "orbit_sizes": list(self.orbit_sizes),
            "order": self.order,
            "checks": dict(self.checks),
        }
        if self.counterexamples:
            data["counterexamples"] = dict(self.counterexamples)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "OrbitReport":
        get = partial(_json_field, data)
        return cls(get("action", str), dict(get("params", dict)),
                   get("count", int),
                   tuple(get("orbit_sizes", list, of=(int,))),
                   get("order", int), dict(get("checks", dict, of=(bool,))),
                   dict(get("counterexamples", dict)
                        if "counterexamples" in data else {}))


def _json_field(data: dict, key: str, *kinds: type,
                of: tuple[type, ...] = ()):
    """``data[key]`` if its type is one of ``kinds`` exactly (a bool is
    no int) and, given ``of``, each entry of the array or value of the
    object has type ``of[0]``, each entry of those ``of[1]``, and so on;
    else a ValueError naming the key."""
    value = data[key]
    if not _json_typed(value, kinds, of):
        raise ValueError(f"{key!r} has the wrong JSON type")
    return value


def _json_typed(value, kinds: tuple[type, ...],
                of: tuple[type, ...]) -> bool:
    if type(value) not in kinds:
        return False
    return not of or all(_json_typed(v, of[:1], of[1:]) for v in (
        value.values() if type(value) is dict else value))
