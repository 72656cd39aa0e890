import tracemalloc
from itertools import permutations

import pytest

from vkrew.kreweras import kreweras_number
from vkrew.poset import LinearExtension, Poset, PosetError, \
    linear_extensions, make_v, product_with_chain, v_chain_layers

SMALL = {
    "V1": product_with_chain(make_v(), 1),
    "V2": product_with_chain(make_v(), 2),
    "V3": product_with_chain(make_v(), 3),
    "N": Poset("abcd", (("a", "c"), ("b", "c"), ("b", "d"))),
    # element orders that are not topological
    "scrambled": Poset(("C", "A", "B"), (("A", "B"), ("A", "C"))),
    "chain": Poset(("x1", "x3", "x2"), (("x1", "x2"), ("x2", "x3"))),
    "diamond": Poset("dacb", (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))),
    "empty": Poset((), ()),
}


def test_make_v_shape():
    v = make_v()
    assert len(v) == 3
    assert len(v.covers) == 2
    assert v.rank("A") == 0
    assert v.rank("B") == v.rank("C") == 1
    assert not v.leq("B", "C") and not v.leq("C", "B")
    assert v.leq("A", "B") and v.leq("A", "C")
    assert v.is_graded and v.rank_max == 1
    assert [e for e in v.elements if not v.lower_covers(e)] == ["A"]
    assert [e for e in v.elements if not v.upper_covers(e)] == ["B", "C"]


def test_product_with_chain_sizes():
    v = make_v()
    p1 = product_with_chain(v, 1)
    assert len(p1) == 3 and len(p1.covers) == 2
    p2 = product_with_chain(v, 2)
    assert len(p2) == 6 and len(p2.covers) == 7
    p6 = product_with_chain(v, 6)
    assert len(p6) == 18 and len(p6.covers) == 27


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_product_grading(k):
    p = product_with_chain(make_v(), k)
    assert p.is_graded and p.rank_max == k
    for (token, layer) in p.elements:
        assert p.rank((token, layer)) == make_v().rank(token) + layer - 1


def test_product_order_relation():
    p = product_with_chain(make_v(), 3)
    assert p.leq(("A", 1), ("B", 3))
    assert p.leq(("A", 2), ("A", 3))
    assert not p.leq(("B", 1), ("C", 1))
    assert not p.leq(("A", 2), ("B", 1))


def test_product_rejects_bad_chain_length():
    with pytest.raises(ValueError):
        product_with_chain(make_v(), 0)


def test_v_chain_layers():
    assert v_chain_layers(product_with_chain(make_v(), 4)) == 4
    assert v_chain_layers(make_v()) is None
    assert v_chain_layers(Poset(("a",), ())) is None


def test_poset_rejects_cycle():
    with pytest.raises(PosetError):
        Poset(("a", "b"), (("a", "b"), ("b", "a")))


def test_poset_rejects_redundant_cover():
    with pytest.raises(PosetError):
        Poset(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))


@pytest.mark.parametrize("elements,covers,message", [
    # found at depth: a < b < c < d makes (a, d) redundant
    ("abcd", (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")),
     r"cover \('a', 'd'\) is redundant: 'a' < 'b' < 'd'"),
    # an element order that is not topological
    ("dcba", (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")),
     r"cover \('a', 'd'\) is redundant: 'a' < 'b' < 'd'"),
    (product_with_chain(make_v(), 3).elements,
     tuple(product_with_chain(make_v(), 3).covers) + ((("A", 1), ("B", 2)),),
     r"cover \(\('A', 1\), \('B', 2\)\) is redundant: "
     r"\('A', 1\) < \('[AB]', [12]\) < \('B', 2\)"),
], ids=["depth", "non-topological", "V3-plus-diagonal"])
def test_poset_rejects_redundant_cover_anywhere(elements, covers, message):
    with pytest.raises(PosetError, match=f"^{message}$"):
        Poset(elements, covers)


def closure_by_brute_force(poset):
    """Pairs (a, b) with a <= b: the covers closed up by Warshall's
    algorithm, reflexive."""
    elems = poset.elements
    below = {(a, b) for a in elems for b in elems if a == b} | set(poset.covers)
    for c in elems:
        below |= {(a, b) for a in elems for b in elems
                  if (a, c) in below and (c, b) in below}
    return below


@pytest.mark.parametrize("poset", SMALL.values(), ids=SMALL.keys())
def test_leq_is_the_closure_of_the_covers(poset):
    closure = closure_by_brute_force(poset)
    assert {(a, b) for a in poset.elements for b in poset.elements
            if poset.leq(a, b)} == closure


def test_a_large_poset_keeps_only_its_covers():
    k = 400
    elements = [(p, i) for p in "ABC" for i in range(1, k + 1)]
    covers = [((a, i), (b, i)) for a, b in (("A", "B"), ("A", "C"))
              for i in range(1, k + 1)]
    covers += [((p, i), (p, i + 1)) for p in "ABC" for i in range(1, k)]
    tracemalloc.start()
    try:
        poset = Poset(elements, covers)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert poset == product_with_chain(make_v(), k)
    # the order relation of V x [400] alone has 399,800 pairs
    assert size < 3_000_000


def test_a_large_poset_and_its_first_extension_peak_linear_in_size():
    # no set of the elements above or below each element is kept at once,
    # building the poset or bounding its extensions' labels: with the
    # bitsets of all strict up- and down-sets, building V x [3000] peaked
    # at 23 MB; without, building and the first extension take 6.9 MB
    k = 3000
    elements = [(p, i) for p in "ABC" for i in range(1, k + 1)]
    covers = [((a, i), (b, i)) for a, b in (("A", "B"), ("A", "C"))
              for i in range(1, k + 1)]
    covers += [((p, i), (p, i + 1)) for p in "ABC" for i in range(1, k)]
    tracemalloc.start()
    try:
        poset = Poset(elements, covers)
        first = next(linear_extensions(poset))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert poset.rank_max == k
    assert first.labels[:3] == (1, 2, 3)
    assert peak < 12_000_000


def test_poset_rejects_unknown_cover_endpoint():
    with pytest.raises(PosetError):
        Poset(("a",), (("a", "b"),))


def test_ungraded_poset_has_no_rank():
    p = Poset(("a", "b", "c", "d"), (("a", "b"), ("b", "d"), ("a", "c")))
    assert not p.is_graded
    with pytest.raises(PosetError):
        p.rank("a")


@pytest.mark.parametrize("n,count", [(1, 2), (2, 16), (3, 192), (4, 2816)])
def test_extension_counts_match_formula(n, count):
    poset = product_with_chain(make_v(), n)
    assert sum(1 for _ in linear_extensions(poset)) == count == kreweras_number(n)


@pytest.mark.parametrize("poset", SMALL.values(), ids=SMALL.keys())
def test_extensions_canonical_order_and_validity(poset):
    m = len(poset)
    brute = sorted(
        labels for labels in permutations(range(1, m + 1))
        if all(labels[poset.index(a)] < labels[poset.index(b)]
               for a, b in poset.covers))
    assert [e.labels for e in linear_extensions(poset)] == brute
    assert brute


@pytest.mark.parametrize("poset", SMALL.values(), ids=SMALL.keys())
def test_stored_order_is_topological(poset):
    position = {i: n for n, i in enumerate(poset._topo)}
    assert sorted(poset._topo) == list(range(len(poset)))
    assert all(position[a] < position[b] for a, b in poset._cover_pairs)


def test_empty_poset_single_extension():
    empty = Poset((), ())
    assert list(linear_extensions(empty)) == [LinearExtension(empty, ())]


def test_linear_extension_validation():
    v = make_v()
    with pytest.raises(ValueError):
        LinearExtension(v, (1, 2, 2))
    with pytest.raises(ValueError, match=r"labels do not respect 'A' < 'B'"):
        LinearExtension(v, (2, 1, 3))


def test_linear_extension_accessors():
    v = make_v()
    ext = LinearExtension(v, (1, 3, 2))
    assert ext.order() == ("A", "C", "B")
    assert ext.labels[v.index("C")] == 2


def test_leq_unknown_element():
    with pytest.raises(PosetError):
        make_v().leq("A", "Z")


def test_extensions_with_scrambled_element_order():
    scrambled = Poset(("C", "A", "B"), (("A", "B"), ("A", "C")))
    exts = list(linear_extensions(scrambled))
    assert len(exts) == 2
    for ext in exts:
        assert ext.order()[0] == "A"
