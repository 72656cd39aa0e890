import xml.etree.ElementTree as ET

import pytest

from vkrew import golden
from vkrew.kreweras import KrewerasWord
from vkrew.render import render_diagram
from vkrew.words import PartialMultiKrewerasWord


def test_ascii_three_blocks():
    out = render_diagram(PartialMultiKrewerasWord.from_text("A|B|C"), "ascii")
    lines = out.splitlines()
    assert "A|B|C" in lines
    assert any("B 1->2" in line and "-" in line for line in lines)
    assert any("C 1->3" in line and "." in line for line in lines)


def test_ascii_marks_double_arcs():
    out = render_diagram(golden.word69(), "ascii")
    assert out.count("*double") == 2  # both arcs of the one double-arc A
    assert golden.WORD69_TEXT in out


def test_ascii_plain_kreweras_word():
    out = render_diagram(KrewerasWord("ABC"), "ascii")
    assert "ABC" in out.splitlines()[1]
    assert "|" not in out


LEGEND = "solid - : A->B arcs, dashed . : A->C arcs\n"


def test_ascii_bytes_of_a_plain_word():
    assert render_diagram(KrewerasWord("AABCBC"), "ascii") == LEGEND + (
        "AABCBC\n"
        "123456\n"
        "+---+  B 1->5\n"
        "+....+  C 1->6\n"
        " ++  B 2->3\n"
        " +.+  C 2->4\n")


def test_ascii_bytes_of_a_double_arc():
    word = PartialMultiKrewerasWord.from_text("A|BC")
    assert render_diagram(word, "ascii") == LEGEND + (
        "A|BC\n"
        "1 2 \n"
        "+-+  B 1->2 *double\n"
        "+..+  C 1->2 *double\n")


def test_ascii_bytes_of_the_empty_word():
    assert render_diagram(KrewerasWord(""), "ascii") == LEGEND + "\n\n"


def test_svg_bytes_of_a_plain_word():
    assert render_diagram(KrewerasWord("ABC"), "svg") == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="112" height="210" '
        'viewBox="0 0 112 210">\n'
        '<g class="letters" font-family="monospace" font-size="14" '
        'text-anchor="middle">\n'
        '<text x="30" y="170">A</text>\n'
        '<text class="block-index" x="30" y="190" font-size="10">1</text>\n'
        '<text x="56" y="170">B</text>\n'
        '<text class="block-index" x="56" y="190" font-size="10">2</text>\n'
        '<text x="82" y="170">C</text>\n'
        '<text class="block-index" x="82" y="190" font-size="10">3</text>\n'
        '</g>\n'
        '<path class="arc-b" d="M 30 154 Q 43 127 56 154" fill="none" '
        'stroke="#1f4fd8" stroke-width="2"/>\n'
        '<path class="arc-c" d="M 30 154 Q 56 114 82 154" fill="none" '
        'stroke="#c0392b" stroke-width="2" stroke-dasharray="6 4"/>\n'
        '</svg>\n')


def test_render_deterministic():
    word = golden.word69()
    assert render_diagram(word, "ascii") == render_diagram(word, "ascii")
    assert render_diagram(word, "svg") == render_diagram(word, "svg")


def test_svg_figure_word_arc_counts():
    svg = render_diagram(golden.word69(), "svg")
    root = ET.fromstring(svg)
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == 12
    solid = [el for el in paths if el.get("class") == "arc-b"]
    dashed = [el for el in paths if el.get("class") == "arc-c"]
    assert len(solid) == len(dashed) == 6
    assert all(el.get("stroke-dasharray") for el in dashed)
    doubles = [el for el in root.iter() if el.get("class") == "double-arc"]
    assert len(doubles) == 1
    indices = {el.text for el in root.iter()
               if el.get("class") == "block-index"}
    assert indices == {str(i) for i in range(1, 10)}


def test_svg_plain_word():
    svg = render_diagram(KrewerasWord(golden.WORD18), "svg")
    root = ET.fromstring(svg)
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == 12


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_diagram(golden.word69(), "png")


def test_unrenderable_object_rejected():
    with pytest.raises(TypeError):
        render_diagram("ABC", "ascii")
