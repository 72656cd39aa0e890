"""Wall time rescaled to a fixed processor speed.

On a shared virtual machine each processor can change speed by up to
1.9x, on its own, in phases that last from under a second to minutes.
A timed section is therefore cut into slices of ``INTERVAL`` seconds.  At
the end of each slice a timer signal interrupts the section in its own
thread, so on the processor it runs on, and times ``reference()``: a
fixed pure-Python loop in the style of vkrew's inner loops (a frozen
dataclass validated on construction, tuple keys looked up in dicts, min
and max over generators).  Each slice's wall time is divided by the
reference time measured at its end and multiplied by ``REFERENCE_S``, the
reference's time in a fast phase.  The sum is the section's time in
seconds at that fixed speed.  The reference imports nothing from vkrew,
so a change to vkrew cannot move it.

A fresh interpreter's start and imports slow less than that loop in a
slow phase, so they are rescaled by ``import_reference()`` instead: the
unmarshalling and running of a fixed small module that defines
dataclasses, as an import does.  This module imports little, and only
from the standard library, so that a fresh interpreter can import it
first.
"""

from __future__ import annotations

import marshal
import signal
import time
from dataclasses import dataclass

INTERVAL = 0.05   # seconds of work between two reference timings
REFERENCE_S = 0.0012  # the reference's time, run so, in a fast phase
REFERENCE_STEPS = 40
IMPORT_REFERENCE_S = 0.0024  # import_reference() in a fast phase, in a
                             # fresh interpreter


@dataclass(frozen=True)
class _Values:
    keys: tuple
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.keys):
            raise ValueError("one value per key")
        if any(not 0 <= v <= 3 for v in self.values):
            raise ValueError("values lie in 0..3")


def _grid(k: int):
    """V x [k] as elements, an index, and upper and lower covers."""
    elems = [(p, i) for i in range(1, k + 1) for p in "ABC"]
    index = {e: n for n, e in enumerate(elems)}
    up = {}
    for p, i in elems:
        above = [(p, i + 1)] + ([("B", i), ("C", i)] if p == "A" else [])
        up[(p, i)] = tuple(u for u in above if u in index)
    down = {e: tuple(d for d in elems if e in up[d]) for e in elems}
    return tuple(elems), index, up, down


_ELEMS, _INDEX, _UP, _DOWN = _grid(5)


def reference(steps: int = REFERENCE_STEPS) -> int:
    """``steps`` rowmotion-like sweeps of a bounded map on V x [5]."""
    seen = {}
    f = _Values(_ELEMS, (0,) * len(_ELEMS))
    for _ in range(steps):
        values = list(f.values)
        for e in reversed(_ELEMS):
            top = min((values[_INDEX[u]] for u in _UP[e]), default=3)
            bottom = max((values[_INDEX[d]] for d in _DOWN[e]), default=0)
            values[_INDEX[e]] = top + bottom - values[_INDEX[e]]
        f = _Values(f.keys, tuple(values))
        seen[f.values] = seen.get(f.values, 0) + 1
    return len(seen)


def time_reference() -> float:
    began = time.perf_counter()
    reference()
    return time.perf_counter() - began


_MODULE = '''
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Point:
    name: str
    layer: int

    def key(self):
        return (self.name, self.layer)

@dataclass
class Table:
    rows: list = field(default_factory=list)
    index: dict = field(default_factory=dict)

    def add(self, p):
        self.index[p.key()] = len(self.rows)
        self.rows.append(p)

@dataclass(frozen=True, order=True)
class Claim:
    ident: str
    params: tuple
    passed: bool = True

TABLE = Table()
for layer in range(1, 6):
    for name in "ABC":
        TABLE.add(Point(name, layer))
CLAIMS = {f"claim-{i}": Claim(f"claim-{i}", (i, i + 1)) for i in range(20)}
'''
_MODULE_CODE = marshal.dumps(compile(_MODULE, "<import reference>", "exec",
                                    dont_inherit=True))


def import_reference() -> None:
    """Load and run a fixed small module, as an import does."""
    exec(marshal.loads(_MODULE_CODE), {"__name__": "import_reference"})


def time_import_reference(times: int) -> list[float]:
    took = []
    for _ in range(times):
        began = time.perf_counter()
        import_reference()
        took.append(time.perf_counter() - began)
    return took


class Speedometer:
    """Times sections in seconds at the reference speed.

    Use as a context manager around the code to time; ``scaled(a, b)``
    then gives the time between two ``time.perf_counter()`` readings
    ``a`` and ``b`` taken inside it, without the reference runs.  Only
    one may be active at a time, in the main thread."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        # (start, end, reference s) of each reference run; a slice of work
        # runs from the end of one to the start of the next.
        self.marks: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        began = time.perf_counter()
        took = time_reference()
        self.marks.append((began, time.perf_counter(), took))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        now = time.perf_counter()
        self.marks.append((now, now, 0.0))
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # closes the last slice
        return False

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed between ``start`` and ``end``:
        each slice's share of that interval over the reference time at
        the slice's end."""
        total = 0.0
        for (_, slice_start, _), (slice_end, _, took) in zip(self.marks,
                                                              self.marks[1:]):
            lo, hi = max(slice_start, start), min(slice_end, end)
            if hi > lo:
                total += (hi - lo) / took * REFERENCE_S
        return total

    def slowdown(self) -> float:
        """The median reference time over ``REFERENCE_S``."""
        times = sorted(t for *_, t in self.marks[1:])
        n = len(times)
        return (times[(n - 1) // 2] + times[n // 2]) / 2 / REFERENCE_S
