"""Traced runs: time calls into vkrew's public names from outside.

A name is traced by rebinding it, in its defining module and in every
vkrew module that imported it, to a wrapper; methods are rebound on their
class.  ``uninstall`` puts every original back.  Each timed call keeps a
frame on a stack, so a name's self time (its duration minus the time its
traced children took) is derived as the calls return.

Four kinds of name:

* counted: calls only.  ``Poset.index`` alone is called millions of times
  per round, so it gets no clock reads.
* timed: calls, total time and self time, aggregated per name.  Per-object
  calls (a promotion, a toggle sweep, a construction) are timed this way;
  keeping one span each would hold about a million spans per round of
  ``verify-all``.
* iterator: the function returns a lazy enumeration; each ``next`` on it
  is timed, so the total is the time spent enumerating and constructing.
* spanned: timed, and every call is also kept as a span (id, name, start,
  end, parent) for the trace file.  Reports, suites, claims, orbit
  decompositions and power maps are spanned.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (metric name, module, attribute, kind).  An attribute with a dot names a
# method of a class in that module.  Several entries may share a metric.
TARGETS = [
    ("poset.index", "vkrew.poset", "Poset.index", "counted"),
    ("poset.covers", "vkrew.poset", "Poset.upper_covers", "counted"),
    ("poset.covers", "vkrew.poset", "Poset.lower_covers", "counted"),
    ("pstrict.enumerate", "vkrew.pstrict", "enumerate_labelings", "iterator"),
    ("pstrict.construct", "vkrew.pstrict", "PStrictLabeling.__post_init__", "timed"),
    ("pstrict.promote", "vkrew.pstrict", "promote_pstrict", "timed"),
    ("pstrict.tau", "vkrew.pstrict", "bender_knuth_tau", "timed"),
    ("rowmotion.enumerate", "vkrew.rowmotion", "enumerate_ppartitions", "iterator"),
    ("rowmotion.construct", "vkrew.rowmotion", "PPartition.__post_init__", "timed"),
    ("rowmotion.row", "vkrew.rowmotion", "rowmotion", "timed"),
    ("rowmotion.togpro", "vkrew.rowmotion", "togpro", "timed"),
    ("rowmotion.automorphism", "vkrew.rowmotion", "apply_automorphism", "timed"),
    ("orbits.cycles", "vkrew.orbits", "orbit_cycles", "spanned"),
    ("orbits.power_map", "vkrew.orbits", "power_map", "spanned"),
    ("words.word_of_labeling", "vkrew.words", "word_of_labeling", "timed"),
    ("words.labeling_of_word", "vkrew.words", "labeling_of_word", "timed"),
    ("words.promote_word", "vkrew.words", "promote_word", "timed"),
    ("words.layer_decomposition", "vkrew.words", "layer_decomposition", "timed"),
    ("words.bump_diagram", "vkrew.words", "generalized_bump_diagram", "timed"),
    ("words.double_arcs", "vkrew.words", "double_arcs", "timed"),
    ("words.standardize", "vkrew.words", "standardize", "timed"),
    ("kreweras.promote", "vkrew.kreweras", "promote_linext", "timed"),
    ("kreweras.promote", "vkrew.kreweras", "promote_kreweras", "timed"),
    ("verify.orbit_report", "vkrew.verify", "orbit_report_for_action", "spanned"),
    ("verify.run_suite", "vkrew.verify", "run_suite", "spanned"),
    ("verify.report", "vkrew.verify", "report_to_json_text", "spanned"),
]


COUNTED = frozenset({"counted"})
TIMED = frozenset({"iterator", "timed", "spanned"})


class Tracer:
    """Aggregates and spans of traced calls, kept in memory.  Only the
    targets of the given kinds are rebound: counting ``Poset.index`` costs
    about as much as the call itself, so a traced run counts in some
    rounds and times in others, and neither skews the other."""

    def __init__(self, kinds):
        self.kinds = kinds
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.claims: list[tuple[str, float]] = []  # (claim id, seconds)
        self._stack: list[list] = []  # per open call: [child seconds, span id]
        self._patches: list[tuple] = []
        self._claim_mark = 0.0
        self._origin = time.perf_counter()

    # -- wrappers ------------------------------------------------------

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn, keep_span):
        stack, calls, total, self_s = (self._stack, self.calls, self.total,
                                       self.self_s)
        spans, clock = self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(spans) if keep_span else parent]
            if keep_span:
                spans.append(None)  # reserve the id; filled in on return
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                calls[name] += 1
                total[name] += took
                self_s[name] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if keep_span:
                    spans[frame[1]] = (frame[1], name, start - self._origin,
                                       end - self._origin, parent)
        return wrapper

    def _iterator(self, name, fn):
        """Time the consumption of the iterator ``fn`` returns, one
        ``next`` at a time, since enumeration is lazy."""
        def wrapper(*args, **kwargs):
            return self._drain(self._timed(
                name, iter(fn(*args, **kwargs)).__next__, False))
        return wrapper

    @staticmethod
    def _drain(step):
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    def _claim_boundary(self, init):
        """A claim of ``run_suite`` ends when its ClaimResult is built and
        begins where the previous one (or ``run_suite``) left off."""
        stack, clock = self._stack, time.perf_counter

        def wrapper(obj, cid, *args, **kwargs):
            end = clock()
            start, self._claim_mark = self._claim_mark, end
            self.claims.append((cid, end - start))
            parent = stack[-1][1] if stack else None
            self.spans.append((len(self.spans), f"verify.claim.{cid}",
                               start - self._origin, end - self._origin,
                               parent))
            return init(obj, cid, *args, **kwargs)
        return wrapper

    def _suite_start(self, fn):
        def wrapper(*args, **kwargs):
            self._claim_mark = time.perf_counter()
            return fn(*args, **kwargs)
        return wrapper

    # -- rebinding -----------------------------------------------------

    def install(self) -> None:
        """Rebind every target, in every vkrew module that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, attr, kind in TARGETS:
            if kind not in self.kinds:
                continue
            owner = sys.modules[module]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                homes = [owner]
            else:
                homes = None
            original = getattr(owner, attr)
            if kind == "counted":
                wrapper = self._counted(name, original)
            elif kind == "iterator":
                wrapper = self._iterator(name, original)
            else:
                wrapper = self._timed(name, original, kind == "spanned")
            if attr == "run_suite":
                wrapper = self._suite_start(wrapper)
            if homes is None:
                homes = [m for key, m in list(sys.modules.items())
                         if (key == "vkrew" or key.startswith("vkrew."))
                         and getattr(m, attr, None) is original]
            for home in homes:
                self._patch(home, attr, wrapper)
        if "spanned" in self.kinds:
            claim_result = sys.modules["vkrew.verify"].ClaimResult
            self._patch(claim_result, "__init__",
                        self._claim_boundary(claim_result.__init__))

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of rebinding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
