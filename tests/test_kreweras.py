import pytest

from vkrew import golden
from vkrew.kreweras import KrewerasWord, bender_knuth, bump_diagram, \
    from_kreweras, is_crossing, is_noncrossing, kreweras_number, \
    promote_kreweras, promote_linext, swap_bc_letters, to_kreweras
from vkrew.poset import LinearExtension, Poset, make_v, product_with_chain, \
    linear_extensions


def all_words(n):
    poset = product_with_chain(make_v(), n)
    return [to_kreweras(e) for e in linear_extensions(poset)]


def test_word_validation():
    KrewerasWord("ABC")
    KrewerasWord("")
    with pytest.raises(ValueError):
        KrewerasWord("AAB")
    with pytest.raises(ValueError):
        KrewerasWord("BAC")
    with pytest.raises(ValueError):
        KrewerasWord("ABX")


def test_kreweras_number():
    assert [kreweras_number(n) for n in range(5)] == [1, 2, 16, 192, 2816]
    with pytest.raises(ValueError):
        kreweras_number(-1)


def test_bender_knuth_swap_and_fix():
    v = product_with_chain(make_v(), 1)
    ext = LinearExtension(v, (1, 2, 3))
    swapped = bender_knuth(2, ext)
    assert swapped.labels == (1, 3, 2)
    assert bender_knuth(1, ext) == ext
    with pytest.raises(ValueError):
        bender_knuth(0, ext)
    with pytest.raises(ValueError):
        bender_knuth(3, ext)


def test_bender_knuth_involution():
    poset = product_with_chain(make_v(), 2)
    for ext in linear_extensions(poset):
        for i in range(1, 6):
            assert bender_knuth(i, bender_knuth(i, ext)) == ext


def test_promotion_equals_bender_knuth_composition():
    poset = product_with_chain(make_v(), 2)
    for ext in linear_extensions(poset):
        composed = ext
        for i in range(1, 6):
            composed = bender_knuth(i, composed)
        assert promote_linext(ext) == composed


def by_closure(ext):
    """The elements of ``ext`` by label and a comparability test that
    reads the order through ``leq``."""
    poset = ext.poset
    return list(ext.order()), \
        lambda x, y: poset.leq(x, y) or poset.leq(y, x)


def reference_bender_knuth(i, ext):
    order, comparable = by_closure(ext)
    if comparable(order[i - 1], order[i]):
        return ext
    order[i - 1], order[i] = order[i], order[i - 1]
    return reference_labeling(ext.poset, order)


def reference_promote(ext):
    order, comparable = by_closure(ext)
    for i in range(len(order) - 1):
        if not comparable(order[i], order[i + 1]):
            order[i], order[i + 1] = order[i + 1], order[i]
    return reference_labeling(ext.poset, order)


def reference_labeling(poset, order):
    labels = [0] * len(order)
    for label, e in enumerate(order, start=1):
        labels[poset.index(e)] = label
    return LinearExtension(poset, tuple(labels))


def test_cover_test_matches_comparability_by_closure():
    posets = [product_with_chain(make_v(), n) for n in range(1, 5)]
    posets += [Poset("dacb", (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))),
               Poset("abcd", (("a", "c"), ("b", "c"), ("b", "d")))]
    checked = 0
    for poset in posets:
        for ext in linear_extensions(poset):
            assert promote_linext(ext) == reference_promote(ext)
            for i in range(1, ext.m):
                assert bender_knuth(i, ext) == reference_bender_knuth(i, ext)
            checked += 1
    assert checked == 3033


def test_promotion_figure_pair():
    assert promote_linext(golden.ext18()) == golden.ext18_promoted()


def test_promotion_single_layer():
    v = product_with_chain(make_v(), 1)
    ext = LinearExtension(v, (1, 2, 3))
    assert promote_linext(ext).labels == (1, 3, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_promotion_power_6n_is_identity(n):
    poset = product_with_chain(make_v(), n)
    for ext in linear_extensions(poset):
        current = ext
        for _ in range(6 * n):
            current = promote_linext(current)
        assert current == ext


def test_to_kreweras_figure_and_errors():
    assert to_kreweras(golden.ext18()).letters == golden.WORD18
    v1 = product_with_chain(make_v(), 1)
    assert to_kreweras(LinearExtension(v1, (1, 2, 3))).letters == "ABC"
    with pytest.raises(ValueError):
        to_kreweras(LinearExtension(make_v(), (1, 2, 3)))


def test_from_kreweras_examples():
    ext = from_kreweras(KrewerasWord("ABC"))
    assert ext.labels == (1, 2, 3)
    assert from_kreweras(KrewerasWord(golden.WORD18)) == golden.ext18()
    ext = from_kreweras(KrewerasWord("AABCBC"))
    poset = ext.poset
    assert ext.order() == (("A", 1), ("A", 2), ("B", 1), ("C", 1),
                           ("B", 2), ("C", 2))
    assert poset == product_with_chain(make_v(), 2)


@pytest.mark.parametrize("n", [1, 2])
def test_kreweras_roundtrip(n):
    poset = product_with_chain(make_v(), n)
    for ext in linear_extensions(poset):
        word = to_kreweras(ext)
        assert from_kreweras(word) == ext
        assert to_kreweras(from_kreweras(word)) == word


def test_promote_kreweras_examples():
    assert promote_kreweras(KrewerasWord(golden.WORD18)).letters \
        == golden.WORD18_PROMOTED
    assert promote_kreweras(KrewerasWord("ABC")).letters == "ACB"
    assert promote_kreweras(KrewerasWord("")).letters == ""


@pytest.mark.parametrize("n", [1, 2])
def test_promote_kreweras_power_6n(n):
    for word in all_words(n):
        current = word
        for _ in range(6 * n):
            current = promote_kreweras(current)
        assert current == word


@pytest.mark.parametrize("n", [1, 2])
def test_promotions_intertwine(n):
    poset = product_with_chain(make_v(), n)
    for ext in linear_extensions(poset):
        assert to_kreweras(promote_linext(ext)) \
            == promote_kreweras(to_kreweras(ext))


def test_bump_diagram_figure():
    diagram = bump_diagram(KrewerasWord(golden.WORD18))
    assert diagram.arcs_b == golden.ARCS18_B
    assert diagram.arcs_c == golden.ARCS18_C


def test_bump_diagram_small():
    diagram = bump_diagram(KrewerasWord("ABC"))
    assert diagram.arcs_b == {(1, 2)}
    assert diagram.arcs_c == {(1, 3)}
    diagram = bump_diagram(KrewerasWord("AABBCC"))
    assert diagram.arcs_b == {(2, 3), (1, 4)}
    assert diagram.arcs_c == {(2, 5), (1, 6)}


@pytest.mark.parametrize("n", [1, 2])
def test_bump_diagram_invariants(n):
    for word in all_words(n):
        diagram = bump_diagram(word)
        for arcs, closer in ((diagram.arcs_b, "B"), (diagram.arcs_c, "C")):
            assert len(arcs) == n
            assert is_noncrossing(arcs)
            openers = {i for i, _ in arcs}
            closers = {j for _, j in arcs}
            assert openers == {i + 1 for i, ch in enumerate(word.letters)
                               if ch == "A"}
            assert closers == {i + 1 for i, ch in enumerate(word.letters)
                               if ch == closer}


def test_is_crossing():
    assert is_crossing((1, 3), (2, 4))
    assert not is_crossing((1, 4), (2, 3))
    assert not is_crossing((1, 2), (3, 4))
    assert is_crossing((2, 4), (1, 3))


def test_swap_bc_letters():
    word = KrewerasWord(golden.WORD18)
    swapped = swap_bc_letters(word)
    assert swapped.letters == "ABACCAACBBABCACBBC"
    assert swap_bc_letters(swapped) == word
