"""Block Kreweras words: ell of each letter spread over q blocks.

A word is a sequence of q multisets over {A, B, C} such that through
block i there are no more B's (and no more C's) than A's through block
i-1.  Words are in bijection with strict labelings of V x [ell] (block
index = label), carry the conjugated promotion action, and decompose
into noncrossing layers via a generalized bump diagram whose matchings
tolerate several closers per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .kreweras import KrewerasWord, _matchings, bump_diagram, is_crossing
from .orbits import _json_field
from .poset import make_v
from .pstrict import PStrictLabeling, enumerate_labelings, promote_pstrict, \
    restriction_rq

__all__ = [
    "WordCountError", "WordPrefixError", "PartialMultiKrewerasWord",
    "VLayer", "GeneralizedBumpDiagram", "word_of_labeling",
    "labeling_of_word", "enumerate_words", "generalized_bump_diagram",
    "layer_decomposition", "promote_word", "promote_vlayer",
    "promote_word_layerwise", "double_arcs", "rotate_double_arc",
    "delete_double_arc", "standardize", "destandardize", "swap_bc_word",
]

EMPTY_BLOCK = "∅"  # printed for a block with no letters


class WordCountError(ValueError):
    """A letter does not occur exactly ell times."""


class WordPrefixError(ValueError):
    """Some prefix holds more B's or C's than A's one block earlier."""


@dataclass(frozen=True)
class PartialMultiKrewerasWord:
    ell: int
    q: int
    blocks: tuple[tuple[int, int, int], ...]  # (#A, #B, #C) per block

    def __post_init__(self):
        if self.ell < 0 or self.q < 1:
            raise ValueError("need ell >= 0 and q >= 1")
        if len(self.blocks) != self.q:
            raise ValueError(f"expected {self.q} blocks, got {len(self.blocks)}")
        if any(len(b) != 3 or min(b) < 0 for b in self.blocks):
            raise ValueError("blocks must be triples of nonnegative counts")
        for letter, idx in (("A", 0), ("B", 1), ("C", 2)):
            total = sum(b[idx] for b in self.blocks)
            if total != self.ell:
                raise WordCountError(
                    f"{letter} occurs {total} times, expected {self.ell}")
        seen_a = 0
        seen_b = 0
        seen_c = 0
        for i, (na, nb, nc) in enumerate(self.blocks, start=1):
            seen_b += nb
            seen_c += nc
            if seen_b > seen_a or seen_c > seen_a:
                raise WordPrefixError(
                    f"block {i} accumulates {seen_b} B's / {seen_c} C's "
                    f"against {seen_a} earlier A's")
            seen_a += na

    def block(self, i: int) -> tuple[int, int, int]:
        if not 1 <= i <= self.q:
            raise ValueError(f"block {i} out of range 1..{self.q}")
        return self.blocks[i - 1]

    def block_size(self, i: int) -> int:
        return sum(self.block(i))

    def to_text(self) -> str:
        """Blocks joined by '|'; within a block B's, then C's, then A's."""
        return _blocks_text(self.blocks)

    @classmethod
    def from_text(cls, text: str) -> "PartialMultiKrewerasWord":
        blocks = []
        for part in text.split("|"):
            part = part.strip()
            if part in ("", EMPTY_BLOCK):
                blocks.append((0, 0, 0))
                continue
            if set(part) - set("ABC"):
                raise ValueError(f"bad block {part!r}")
            blocks.append((part.count("A"), part.count("B"), part.count("C")))
        ell = sum(b[0] for b in blocks)
        return cls(ell, len(blocks), tuple(blocks))

    def to_json(self) -> dict:
        return {"ell": self.ell, "q": self.q,
                "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, data: dict) -> "PartialMultiKrewerasWord":
        get = partial(_json_field, data)
        return cls(get("ell", int), get("q", int),
                   tuple(map(tuple, get("blocks", list, of=(list, int)))))

    def __repr__(self) -> str:
        return f"PartialMultiKrewerasWord({self.to_text()!r})"


def _blocks_text(blocks) -> str:
    """to_text of any block counts, those of a word or not."""
    return "|".join("B" * nb + "C" * nc + "A" * na or EMPTY_BLOCK
                    for na, nb, nc in blocks)


def word_of_labeling(f: PStrictLabeling) -> PartialMultiKrewerasWord:
    """Block i collects one letter p for every fiber entry f(p, .) = i."""
    if f.restriction.poset != make_v():
        raise ValueError("words model labelings of V only")
    blocks = [[0, 0, 0] for _ in range(f.q)]
    for letter, fiber in enumerate(f.fibers):
        for i in fiber:
            blocks[i - 1][letter] += 1
    return PartialMultiKrewerasWord(f.ell, f.q, tuple(map(tuple, blocks)))


def labeling_of_word(w: PartialMultiKrewerasWord) -> PStrictLabeling:
    """Inverse of word_of_labeling: fibers list block indices in order."""
    rf = restriction_rq(make_v(), w.q)
    fibers = []
    for idx in range(3):
        fiber = []
        for i, counts in enumerate(w.blocks, start=1):
            fiber += [i] * counts[idx]
        fibers.append(tuple(fiber))
    return PStrictLabeling(rf, w.ell, tuple(fibers))


def enumerate_words(ell: int, q: int):
    """All (ell, q) words in the order inherited from labelings."""
    return (word_of_labeling(f) for f in enumerate_labelings(ell, q))


@dataclass(frozen=True)
class VLayer:
    """One V-shaped layer read off an A and its two closers' blocks."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if not (1 <= self.a < self.b and self.a < self.c):
            raise ValueError(f"not a strict V layer: {(self.a, self.b, self.c)}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def promote_vlayer(layer: VLayer, q: int) -> VLayer:
    """Promotion of a single V layer with labels in 1..q: shift all three
    labels down, the label 1 case recycling the smaller closer."""
    a, b, c = layer.as_tuple()
    if max(b, c) > q:
        raise ValueError(f"layer {layer} exceeds q={q}")
    if a > 1:
        return VLayer(a - 1, b - 1, c - 1)
    if b == c:
        return VLayer(b - 1, q, q)
    if b < c:
        return VLayer(b - 1, q, c - 1)
    return VLayer(c - 1, b - 1, q)


@dataclass(frozen=True)
class GeneralizedBumpDiagram:
    """Arc data of a word over its canonical slot order.

    Slots list every letter, block by block; within a block the B's come
    first, then the C's, then the A's.  Each matching pairs A slots with
    closer slots of its color by stack discipline, so arcs sharing a
    closer block nest rather than cross.
    """

    word: PartialMultiKrewerasWord
    slots: tuple[tuple[int, str], ...]            # (block, letter) per slot
    arcs_b: tuple[tuple[int, int], ...]           # (opener slot, closer slot)
    arcs_c: tuple[tuple[int, int], ...]

    def slot_block(self, pos: int) -> int:
        return self.slots[pos - 1][0]

    def arcs_by_opener(self) -> dict[int, tuple[int, int]]:
        """opener slot -> (B closer slot, C closer slot), in slot order:
        every A opens one arc of each color."""
        by_c = dict(self.arcs_c)
        return {p: (cb, by_c[p]) for p, cb in self.arcs_b}

    def layers(self) -> tuple[VLayer, ...]:
        """One layer per A, in diagram order of the A's."""
        return tuple(VLayer(self.slot_block(p), self.slot_block(cb),
                            self.slot_block(cc))
                     for p, (cb, cc) in self.arcs_by_opener().items())

    def double_arc_openers(self) -> tuple[int, ...]:
        """A slots whose B and C closers land in the same block."""
        return tuple(p for p, (cb, cc) in self.arcs_by_opener().items()
                     if self.slot_block(cb) == self.slot_block(cc))


def generalized_bump_diagram(w: PartialMultiKrewerasWord) -> GeneralizedBumpDiagram:
    """Match the slot letters (kreweras._matchings) and sort each color's
    arcs."""
    slots: list[tuple[int, str]] = []
    for i, (na, nb, nc) in enumerate(w.blocks, start=1):
        slots += [(i, "B")] * nb + [(i, "C")] * nc + [(i, "A")] * na
    arcs_b, arcs_c = _matchings(ch for _, ch in slots)
    return GeneralizedBumpDiagram(
        w, tuple(slots), tuple(sorted(arcs_b)), tuple(sorted(arcs_c)))


def layer_decomposition(w: PartialMultiKrewerasWord) -> tuple[VLayer, ...]:
    """The multiset of V layers of a word, canonically sorted."""
    layers = generalized_bump_diagram(w).layers()
    return tuple(sorted(layers, key=VLayer.as_tuple))


def promote_word(w: PartialMultiKrewerasWord) -> PartialMultiKrewerasWord:
    """Promotion transported through the labeling bijection.  The empty
    word (ell = 0) is a fixed point."""
    if w.ell == 0:
        return w
    return word_of_labeling(promote_pstrict(labeling_of_word(w)))


def _layerwise_blocks(layers, q: int) -> tuple[tuple[int, int, int], ...]:
    """The block counts of the layers, each promoted on its own."""
    blocks = [[0, 0, 0] for _ in range(q)]
    for layer in layers:
        a, b, c = promote_vlayer(layer, q).as_tuple()
        blocks[a - 1][0] += 1
        blocks[b - 1][1] += 1
        blocks[c - 1][2] += 1
    return tuple(map(tuple, blocks))


def promote_word_layerwise(w: PartialMultiKrewerasWord) -> PartialMultiKrewerasWord:
    """Independent route: promote every layer and reassemble the blocks."""
    return PartialMultiKrewerasWord(
        w.ell, w.q, _layerwise_blocks(layer_decomposition(w), w.q))


def _double_arcs(layers) -> list[tuple[int, int]]:
    """(a, b) of every layer whose closers share a block (b == c): its
    double arc.  Sorted layers give sorted arcs."""
    return [(layer.a, layer.b) for layer in layers if layer.b == layer.c]


def double_arcs(w: PartialMultiKrewerasWord) -> list[tuple[int, int]]:
    """Block pairs (opener block, closer block) of the double arcs, sorted,
    with multiplicity."""
    return _double_arcs(layer_decomposition(w))


def rotate_double_arc(arc: tuple[int, int], q: int) -> tuple[int, int]:
    """Where promotion sends a double arc: down one block on both ends,
    wrapping a block-1 opener to (closer-1, q)."""
    k, j = arc
    if k > 1:
        return (k - 1, j - 1)
    return (j - 1, q)


def delete_double_arc(w: PartialMultiKrewerasWord,
                      arc: tuple[int, int]) -> PartialMultiKrewerasWord:
    """Remove a double arc (one A from block k, one B and one C from
    block j), yielding an (ell-1, q) word."""
    if arc not in double_arcs(w):
        raise ValueError(f"no double arc {arc} in this word")
    return _deleted(w, arc)


def _deleted(w: PartialMultiKrewerasWord,
             arc: tuple[int, int]) -> PartialMultiKrewerasWord:
    """delete_double_arc for an arc known to be a double arc of w."""
    k, j = arc
    return PartialMultiKrewerasWord(w.ell - 1, w.q, tuple(
        (na - (i == k), nb - (i == j), nc - (i == j))
        for i, (na, nb, nc) in enumerate(w.blocks, start=1)))


def _shortest_arcs(layers) -> tuple[tuple[str, int, int], ...]:
    """Per A of the layers: the color and blocks of its shorter arc ('='
    on a tie), as a canonically sorted multiset of (color, opener block,
    closer block)."""
    return tuple(sorted(
        ("B" if layer.b < layer.c else "C" if layer.c < layer.b else "=",
         layer.a, min(layer.b, layer.c)) for layer in layers))


def standardize(w: PartialMultiKrewerasWord) -> tuple[KrewerasWord, tuple[int, ...]]:
    """Flatten a double-arc-free word to a Kreweras word plus block sizes.

    Within each block the closers are ordered so that arcs ending there
    nest (matched opener slot descending; openers are distinct absent
    double arcs), followed by the A's.
    """
    diagram = generalized_bump_diagram(w)
    if diagram.double_arc_openers():
        raise ValueError("word has double arcs; standardization undefined")
    opener_of = {c: o for o, c in diagram.arcs_b + diagram.arcs_c}
    # an A has no opener, so it sorts after its block's closers
    order = sorted(enumerate(diagram.slots, start=1),
                   key=lambda slot: (slot[1][0], -opener_of.get(slot[0], 0)))
    letters = "".join(ch for _, (_, ch) in order)
    return KrewerasWord(letters), tuple(map(sum, w.blocks))


def destandardize(word: KrewerasWord,
                  block_sizes: tuple[int, ...]) -> PartialMultiKrewerasWord:
    """Regroup a Kreweras word into blocks of the given sizes."""
    if min(block_sizes, default=0) < 0:
        raise ValueError(f"block size {min(block_sizes)} is negative")
    if sum(block_sizes) != len(word):
        raise ValueError(
            f"block sizes sum to {sum(block_sizes)}, word has {len(word)} letters")
    blocks = []
    pos = 0
    for size in block_sizes:
        chunk = word.letters[pos:pos + size]
        pos += size
        blocks.append((chunk.count("A"), chunk.count("B"), chunk.count("C")))
    return PartialMultiKrewerasWord(word.n, len(block_sizes), tuple(blocks))


def swap_bc_word(w: PartialMultiKrewerasWord) -> PartialMultiKrewerasWord:
    """Exchange the B and C counts in every block."""
    return PartialMultiKrewerasWord(
        w.ell, w.q, tuple((na, nc, nb) for na, nb, nc in w.blocks))


def same_block_closers_nest(word: KrewerasWord,
                            block_sizes: tuple[int, ...]) -> bool:
    """Check that no two arcs of a standardized word cross when both end
    inside the same block."""
    block_of = {}
    pos = 0
    for i, size in enumerate(block_sizes, start=1):
        for _ in range(size):
            pos += 1
            block_of[pos] = i
    diagram = bump_diagram(word)
    arcs = sorted(diagram.arcs_b | diagram.arcs_c)
    for x in range(len(arcs)):
        for y in range(x + 1, len(arcs)):
            if block_of[arcs[x][1]] == block_of[arcs[y][1]] \
                    and is_crossing(arcs[x], arcs[y]):
                return False
    return True
