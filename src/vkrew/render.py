"""Deterministic arc-diagram rendering: ASCII spans or SVG semicircles.

Solid arcs join A's to B's, dashed arcs join A's to C's.  Block words
show '|' separators and block indices; plain Kreweras words show letter
positions.  Identical input always yields identical output bytes.
"""

from __future__ import annotations

from .kreweras import KrewerasWord
from .words import PartialMultiKrewerasWord, destandardize, \
    generalized_bump_diagram

__all__ = ["render_diagram"]


def _diagram_data(obj):
    """The generalized bump diagram of either word kind, and whether to
    draw block separators.  A Kreweras word is drawn as its word with one
    letter per block, so its block indices are its letter positions; the
    empty word is one empty block."""
    if isinstance(obj, PartialMultiKrewerasWord):
        return generalized_bump_diagram(obj), True
    if isinstance(obj, KrewerasWord):
        return generalized_bump_diagram(
            destandardize(obj, (1,) * len(obj) or (0,))), False
    raise TypeError(f"cannot render {type(obj).__name__}")


def render_diagram(obj, fmt: str) -> str:
    if fmt == "ascii":
        return _render_ascii(obj)
    if fmt == "svg":
        return _render_svg(obj)
    raise ValueError(f"unknown format {fmt!r}; use ascii or svg")


def _render_ascii(obj) -> str:
    diagram, blocked = _diagram_data(obj)
    doubles = diagram.double_arc_openers()
    columns = {}
    letters_row = []
    index_row = []
    col = 0
    previous_block = None
    for pos, (block, ch) in enumerate(diagram.slots, start=1):
        if blocked and previous_block is not None and block != previous_block:
            letters_row.append("|")
            index_row.append(" ")
            col += 1
        if block != previous_block:
            index_row.append(str(block))
            pad = len(str(block)) - 1
        else:
            index_row.append(" ")
            pad = 0
        letters_row.append(ch + " " * pad)
        columns[pos] = col
        col += 1 + pad
        previous_block = block

    arcs = sorted([("B", i, j) for i, j in diagram.arcs_b]
                  + [("C", i, j) for i, j in diagram.arcs_c],
                  key=lambda arc: (arc[1], arc[2], arc[0]))
    lines = ["".join(letters_row), "".join(index_row)]
    for color, i, j in arcs:
        start, end = columns[i], columns[j]
        fill = "-" if color == "B" else "."
        row = " " * start + "+" + fill * max(0, end - start - 1) + "+"
        note = f"  {color} {diagram.slot_block(i)}->{diagram.slot_block(j)}"
        if i in doubles:
            note += " *double"
        lines.append(row + note)
    legend = "solid - : A->B arcs, dashed . : A->C arcs"
    return "\n".join([legend] + lines) + "\n"


def _render_svg(obj) -> str:
    diagram, blocked = _diagram_data(obj)
    slots = diagram.slots
    step = 26
    margin = 30
    baseline = 170
    width = margin * 2 + step * max(len(slots) - 1, 0)

    def x(pos):
        return margin + step * (pos - 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{baseline + 40}" viewBox="0 0 {width} {baseline + 40}">',
        '<g class="letters" font-family="monospace" font-size="14" '
        'text-anchor="middle">',
    ]
    previous_block = None
    for pos, (block, ch) in enumerate(slots, start=1):
        parts.append(f'<text x="{x(pos)}" y="{baseline}">{ch}</text>')
        if block != previous_block:
            parts.append(f'<text class="block-index" x="{x(pos)}" '
                         f'y="{baseline + 20}" font-size="10">{block}</text>')
            if blocked and previous_block is not None:
                sep = x(pos) - step // 2
                parts.append(f'<line x1="{sep}" y1="{baseline - 14}" '
                             f'x2="{sep}" y2="{baseline + 4}" '
                             'stroke="#999" stroke-width="1"/>')
        previous_block = block
    parts.append("</g>")

    def arc_path(i, j, cls, dash):
        x1, x2 = x(i), x(j)
        lift = min(130, 14 + (x2 - x1) // 2)
        mid = (x1 + x2) // 2
        d = f"M {x1} {baseline - 16} Q {mid} {baseline - 16 - lift} {x2} {baseline - 16}"
        return (f'<path class="{cls}" d="{d}" fill="none" '
                f'stroke="{"#1f4fd8" if cls == "arc-b" else "#c0392b"}" '
                f'stroke-width="2"{dash}/>')

    for i, j in diagram.arcs_b:
        parts.append(arc_path(i, j, "arc-b", ""))
    for i, j in diagram.arcs_c:
        parts.append(arc_path(i, j, "arc-c", ' stroke-dasharray="6 4"'))
    for pos in diagram.double_arc_openers():
        parts.append(f'<circle class="double-arc" cx="{x(pos)}" '
                     f'cy="{baseline - 10}" r="3" fill="#c0392b"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
