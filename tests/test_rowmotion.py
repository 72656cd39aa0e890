from functools import lru_cache
import tracemalloc
from itertools import combinations
from math import lcm

import pytest

import vkrew.rowmotion as module
from vkrew.orbits import orbit_cycles
from vkrew.poset import Poset, _order_preserving_maps, linear_extensions, \
    make_v, product_with_chain
from vkrew.pstrict import enumerate_labelings, promote_pstrict
from vkrew.rowmotion import PosetAutomorphism, PPartition, \
    apply_automorphism, enumerate_ppartitions, flip_automorphism, rowmotion, \
    toggle, togpro
from vkrew.verify import orbit_report_for_action


def pp(values, ell=1, poset=None):
    return PPartition(poset or make_v(), ell, tuple(values))


def test_ppartition_validation():
    pp((0, 1, 1))
    with pytest.raises(ValueError, match="values decrease across 'A' < 'B'"):
        pp((1, 0, 1))
    with pytest.raises(ValueError, match=r"values decrease across "
                                         r"\('A', 2\) < \('B', 2\)"):
        pp((0, 1, 0, 0, 0, 1), poset=product_with_chain(make_v(), 2))
    with pytest.raises(ValueError, match=r"values must lie in 0\.\.1"):
        pp((0, 2, 0))
    with pytest.raises(ValueError, match=r"values must lie in 0\.\.1"):
        pp((0, 1, -1))
    with pytest.raises(ValueError):
        PPartition(make_v(), -1, (0, 0, 0))


def test_ppartition_json_roundtrip():
    poset = product_with_chain(make_v(), 2)
    f = PPartition(poset, 2, (0, 1, 1, 2, 0, 1))
    data = f.to_json()
    assert data["poset"] == "VxK" and data["k"] == 2
    with pytest.raises(ValueError):
        pp((0, 0, 0)).to_json()  # bare V has no layer coordinate


def test_enumerate_ppartitions_counts():
    v = make_v()
    fives = list(enumerate_ppartitions(v, 1))
    assert [f.values for f in fives] == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 1)]
    assert sum(1 for _ in enumerate_ppartitions(v, 2)) == 14
    assert sum(1 for _ in enumerate_ppartitions(
        product_with_chain(v, 2), 1)) == 14
    assert [f.values for f in enumerate_ppartitions(v, 0)] == [(0, 0, 0)]
    assert next(enumerate_ppartitions(v, 10**8)).values == (0, 0, 0)


def test_partitions_hash_by_their_values():
    poset = product_with_chain(make_v(), 2)
    f = PPartition(poset, 2, (0, 1, 1, 2, 0, 1))
    g = PPartition(product_with_chain(make_v(), 2), 2, (0, 1, 1, 2, 0, 1))
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    # the same values at another ell, or over another poset (here the
    # antichain on six elements), stay unequal
    for other in (PPartition(poset, 3, f.values),
                  PPartition(Poset("abcdef", ()), 2, f.values)):
        assert other != f and len({f, other}) == 2


def test_enumerate_ppartitions_canonical_order():
    poset = product_with_chain(make_v(), 2)
    seen = [f.values for f in enumerate_ppartitions(poset, 2)]
    assert seen == sorted(seen)


def test_toggle_examples():
    assert toggle("A", pp((0, 1, 1))).values == (1, 1, 1)
    assert toggle("B", pp((0, 0, 0))).values == (0, 1, 0)


def test_toggle_involution():
    for f in enumerate_ppartitions(make_v(), 2):
        for p in "ABC":
            assert toggle(p, toggle(p, f)) == f


def test_toggle_unknown_element():
    with pytest.raises(ValueError):
        toggle("Z", pp((0, 0, 0)))


@pytest.mark.parametrize("ell", [1, 2])
def test_toggles_commute_iff_no_shared_cover(ell):
    poset = product_with_chain(make_v(), 2)
    partitions = list(enumerate_ppartitions(poset, ell))
    for x, y in combinations(poset.elements, 2):
        shares_cover = (x, y) in poset.covers or (y, x) in poset.covers
        always_commute = all(
            toggle(x, toggle(y, f)) == toggle(y, toggle(x, f))
            for f in partitions)
        assert always_commute == (not shares_cover), (x, y)


def test_rowmotion_examples():
    assert rowmotion(pp((0, 0, 0))).values == (1, 1, 1)
    assert rowmotion(pp((0, 0, 1))).values == (0, 1, 0)


def orbit_sizes(step, elements):
    """The size of each cycle of ``step`` on ``elements``, in the order
    orbit_cycles visits them."""
    sizes = []
    orbit_cycles(step, elements,
                 lambda positions, xs: sizes.append(len(positions)))
    return sizes


def test_rowmotion_order_six_on_v():
    sizes = sorted(orbit_sizes(rowmotion,
                               list(enumerate_ppartitions(make_v(), 1))),
                   reverse=True)
    assert sizes == [3, 2]
    assert lcm(*sizes) == 6


@pytest.mark.parametrize("ell,k", [(1, 2), (2, 1)])
def test_rowmotion_extension_independent(ell, k):
    poset = product_with_chain(make_v(), k)
    exts = list(linear_extensions(poset))
    for f in enumerate_ppartitions(poset, ell):
        images = {rowmotion(f, ext) for ext in exts}
        assert len(images) == 1


def test_rowmotion_rejects_foreign_extension():
    poset = product_with_chain(make_v(), 2)
    ext = next(iter(linear_extensions(make_v())))
    f = next(iter(enumerate_ppartitions(poset, 1)))
    with pytest.raises(ValueError):
        rowmotion(f, ext)


def test_togpro_examples():
    poset = product_with_chain(make_v(), 1)
    assert togpro(PPartition(poset, 1, (0, 0, 0)), 3).values == (0, 1, 1)
    assert togpro(PPartition(poset, 2, (0, 0, 0)), 3).values == (0, 2, 2)


def test_togpro_rejects_wrong_poset():
    poset = product_with_chain(make_v(), 2)
    f = next(iter(enumerate_ppartitions(poset, 1)))
    message = r"^poset must be V x \[1\] for q=3$"
    with pytest.raises(ValueError, match=message):
        togpro(f, 3)
    with pytest.raises(ValueError, match=message):
        togpro(pp((0, 0, 0)), 3)
    with pytest.raises(ValueError, match=r"^poset must be V x \[0\] for q=2$"):
        togpro(f, 2)


def test_togpro_orbits_match_promotion():
    poset = product_with_chain(make_v(), 1)
    partitions = list(enumerate_ppartitions(poset, 1))
    tp_sizes = sorted(orbit_sizes(lambda f: togpro(f, 3), partitions))
    pro_sizes = sorted(orbit_sizes(promote_pstrict,
                                   list(enumerate_labelings(1, 3))))
    assert tp_sizes == pro_sizes == [2, 3]


def bsv(f):
    """Bernstein-Striker-Vorland's column map: a labeling f of V x [ell] in
    [q] to the partition of V x [k], k = q - 2, bounded by ell whose value
    at (p, j) counts the labels of p's fiber above (k + 1 - j) + rk(p)."""
    k = f.q - 2
    poset = product_with_chain(make_v(), k)
    rank = {"A": 0, "B": 1, "C": 1}
    return PPartition(poset, f.ell, tuple(
        sum(label > k + 1 - j + rank[p] for label in f.fiber(p))
        for p, j in poset.elements))


def test_bsv_map_conjugates_promotion_to_togpro():
    checked = 0
    for ell in (1, 2):
        for q in range(3, 7):
            labelings = list(enumerate_labelings(ell, q))
            images = list(map(bsv, labelings))
            partitions = list(enumerate_ppartitions(
                product_with_chain(make_v(), q - 2), ell))
            # a bijection onto the partitions
            assert len(set(images)) == len(images) == len(partitions)
            assert set(images) == set(partitions)
            for f, image in zip(labelings, images):
                assert bsv(promote_pstrict(f)) == togpro(image, q)
            checked += len(labelings)
    assert checked == 1533


def test_bsv_map_does_not_conjugate_promotion_to_rowmotion():
    # orbit multisets agree, but rowmotion is not togpro under this map
    labelings = list(enumerate_labelings(1, 3))
    differ = [f for f in labelings
              if bsv(promote_pstrict(f)) != rowmotion(bsv(f))]
    assert len(labelings) == 5 and len(differ) == 3


def test_flip_examples():
    flip = flip_automorphism(make_v())
    f = pp((0, 1, 0))
    assert apply_automorphism(flip, f).values == (0, 0, 1)
    assert apply_automorphism(flip, apply_automorphism(flip, f)) == f


def test_row_cubed_is_flip_on_smallest_case():
    poset = product_with_chain(make_v(), 1)
    flip = flip_automorphism(poset)
    for f in enumerate_ppartitions(poset, 1):
        current = f
        for _ in range(3):
            current = rowmotion(current)
        assert current == apply_automorphism(flip, f)


def test_toggle_conjugation_by_automorphism():
    poset = product_with_chain(make_v(), 2)
    flip = flip_automorphism(poset)
    for f in enumerate_ppartitions(poset, 1):
        g = apply_automorphism(flip, f)
        for p in poset.elements:
            assert toggle(p, g) == apply_automorphism(flip, toggle(flip(p), f))


def test_row_and_togpro_commute_with_flip():
    poset = product_with_chain(make_v(), 2)
    flip = flip_automorphism(poset)
    for f in enumerate_ppartitions(poset, 2):
        assert rowmotion(apply_automorphism(flip, f)) \
            == apply_automorphism(flip, rowmotion(f))
        assert togpro(apply_automorphism(flip, f), 4) \
            == apply_automorphism(flip, togpro(f, 4))


def test_automorphism_validation():
    v = make_v()
    with pytest.raises(ValueError):
        PosetAutomorphism(v, ("A", "A", "C"))
    with pytest.raises(ValueError):
        PosetAutomorphism(v, ("B", "A", "C"))  # sends cover (A,B) to (B,A)
    chain = Poset(("a", "b"), (("a", "b"),))
    with pytest.raises(ValueError):
        flip_automorphism(chain)


def test_apply_automorphism_rejects_mismatch():
    flip = flip_automorphism(make_v())
    poset = product_with_chain(make_v(), 2)
    f = next(iter(enumerate_ppartitions(poset, 1)))
    with pytest.raises(ValueError):
        apply_automorphism(flip, f)


def test_flip_action_is_involution_on_partitions():
    poset = product_with_chain(make_v(), 2)
    flip = flip_automorphism(poset)
    assert {*orbit_sizes(lambda f: apply_automorphism(flip, f),
                         list(enumerate_ppartitions(poset, 2)))} <= {1, 2}


# -- the raw-value sweep against single toggles read off the elements --

def reference_values(f, elements):
    """Toggle ``elements`` in turn, reading covers and values element by
    element; the virtual bounds are 0 below and ell above."""
    poset = f.poset
    values = {p: f.value(p) for p in poset.elements}
    for p in elements:
        top = min((values[u] for u in poset.upper_covers(p)), default=f.ell)
        bottom = max((values[d] for d in poset.lower_covers(p)), default=0)
        values[p] = top + bottom - values[p]
    return tuple(values[p] for p in poset.elements)


def reference_togpro_elements(q):
    """The diagonals of V x [q-2] in toggling order, read off the ranks
    of V: at step k the element (p, i) with i = q - 1 + rk(p) - k."""
    v = make_v()
    return [(p, q - 1 + v.rank(p) - k)
            for k in range(1, q) for p in v.elements
            if 1 <= q - 1 + v.rank(p) - k <= q - 2]


# every (ell, k) of the rowmotion grid (ell <= 3, k <= 3) and of the
# equivariance grid (ell <= 2, q <= 6, so k <= 4)
DEFAULT_GRID = sorted({(ell, k) for ell in range(1, 4) for k in range(1, 4)}
                      | {(ell, k) for ell in range(1, 3) for k in range(1, 5)})


def test_sweep_matches_reference_on_default_grids():
    checked = 0
    for ell, k in DEFAULT_GRID:
        poset = product_with_chain(make_v(), k)
        row_order = list(reversed(next(iter(linear_extensions(poset))).order()))
        togpro_order = reference_togpro_elements(k + 2)
        flip = flip_automorphism(poset)
        for f in enumerate_ppartitions(poset, ell):
            assert rowmotion(f).values == reference_values(f, row_order), f
            assert togpro(f, k + 2).values \
                == reference_values(f, togpro_order), f
            assert apply_automorphism(flip, f).values \
                == tuple(f.value(flip(p)) for p in poset.elements), f
            checked += 1
    assert checked == 4038


def diamond():
    return Poset("abcd", (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")))


@pytest.mark.parametrize("poset", [
    diamond(),
    Poset(("x1", "x2", "x3"), (("x1", "x2"), ("x2", "x3"))),
    product_with_chain(make_v(), 2),
], ids=["diamond", "chain", "v-times-2"])
@pytest.mark.parametrize("ell", [1, 2])
def test_sweep_matches_reference_on_other_posets(poset, ell):
    exts = list(linear_extensions(poset))
    for f in enumerate_ppartitions(poset, ell):
        for p in poset.elements:
            assert toggle(p, f).values == reference_values(f, [p])
        for ext in exts:
            assert rowmotion(f, ext).values \
                == reference_values(f, list(reversed(ext.order())))


def test_package_attribute_is_the_rowmotion_module():
    # the package used to re-export the function over its own submodule,
    # so ``import vkrew.rowmotion as m`` gave the function
    import importlib

    import vkrew
    import vkrew.rowmotion as module

    assert module is importlib.import_module("vkrew.rowmotion")
    assert vkrew.rowmotion is module
    assert module.PPartition is PPartition
    assert module.rowmotion is rowmotion


@lru_cache(maxsize=None)
def leq_table(poset):
    """``poset.leq`` read once per ordered pair of element indices."""
    elems = poset.elements
    return tuple(tuple(poset.leq(a, b) for b in elems) for a in elems)


def closure_ppartitions(poset, ell):
    """Value tuples read off the order closure: each value lies between
    those of every comparable element placed before it."""
    elems = poset.elements
    leq = leq_table(poset)
    values = [0] * len(elems)

    def rec(i):
        if i == len(elems):
            yield tuple(values)
            return
        lo = max((values[j] for j in range(i) if leq[j][i]), default=0)
        hi = min((values[j] for j in range(i) if leq[i][j]), default=ell)
        for v in range(lo, hi + 1):
            values[i] = v
            yield from rec(i + 1)

    return list(rec(0))


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_enumeration_by_covers_matches_closure_reading(ell):
    for k in range(1, 6):
        poset = product_with_chain(make_v(), k)
        assert [f.values for f in enumerate_ppartitions(poset, ell)] \
            == closure_ppartitions(poset, ell), k


@pytest.mark.parametrize("poset", [
    # x3 comes before x2, so no cover bounds x3 when it is placed
    Poset(("x1", "x3", "x2"), (("x1", "x2"), ("x2", "x3"))),
    Poset("dacb", (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))),
], ids=["chain", "diamond"])
def test_enumeration_on_non_topological_order(poset):
    for ell in range(4):
        got = [f.values for f in enumerate_ppartitions(poset, ell)]
        assert got == closure_ppartitions(poset, ell) and got, ell


# -- the ranked column loops on V x [k] against the walk ------------------

@pytest.mark.parametrize("k", range(1, 6))
def test_ranked_loops_match_the_walk(k):
    # on V x [k] enumerate_ppartitions runs the column loops, off it the
    # walk; both list the same values in the same order, each valid
    poset = product_with_chain(make_v(), k)
    m = len(poset)
    for ell in range(5):
        walked = list(_order_preserving_maps(poset, (0,) * m, (ell,) * m))
        assert [f.values for f in enumerate_ppartitions(poset, ell)] \
            == walked and walked, ell
        assert count_valid(enumerate_ppartitions(poset, ell)) == len(walked)


@pytest.mark.parametrize("poset,loops", [
    (product_with_chain(make_v(), 3), 1),
    (product_with_chain(Poset("abc", (("a", "b"), ("a", "c"))), 3), 0),
    (make_v(), 0),
], ids=["v-times-3", "relabelled-v-times-3", "v"])
def test_only_v_times_k_takes_the_ranked_loops(monkeypatch, poset, loops):
    calls = []
    ranked = module._ranked_columns

    def counted(*sources):
        calls.append(sources)
        return ranked(*sources)

    monkeypatch.setattr(module, "_ranked_columns", counted)
    got = [f.values for f in enumerate_ppartitions(poset, 2)]
    assert got == closure_ppartitions(poset, 2) and got
    assert len(calls) == loops


def test_first_partition_of_a_deep_v_times_k_draws_two_columns(monkeypatch):
    # V x [400] bounded by 3 has C(403, 3) columns; the loops read them
    # lazily (the first A column, then the first column over it, which B
    # and C share), and the guard fails a run that reads them all before
    # it exhausts memory
    drawn = []
    columns = module._columns

    def guarded(bottom, top):
        for column in columns(bottom, top):
            assert len(drawn) < 100, "the loops read every column"
            drawn.append(column)
            yield column

    monkeypatch.setattr(module, "_columns", guarded)
    first = next(enumerate_ppartitions(product_with_chain(make_v(), 400), 3))
    assert first.values == (0,) * 1200 and len(drawn) == 2


def test_first_partition_at_a_large_bound_allocates_little():
    # nothing is sized by ell: a pool of the values 0..10**6 alone would
    # take 8 MB for its tuple
    poset = product_with_chain(make_v(), 2)
    tracemalloc.start()
    try:
        first = next(enumerate_ppartitions(poset, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.values == (0,) * 6
    assert peak < 1 << 20


# -- column moves on V x [k] against the sweep ---------------------------

def test_column_moves_match_the_sweep_up_to_k5():
    """rowmotion and togpro on V x [k] step columns by table lookups; on
    every partition with k <= 5 and ell <= 3 they equal _sweep along the
    reversed topological order and the diagonals."""
    checked = 0
    for k in range(1, 6):
        poset = product_with_chain(make_v(), k)
        row_order = module._rowmotion_order(poset, None)
        togpro_order = tuple(map(poset.index,
                                 reference_togpro_elements(k + 2)))
        for ell in range(4):
            assert module._v_moves(poset, ell) is not None
            for f in enumerate_ppartitions(poset, ell):
                for g, order in ((rowmotion(f), row_order),
                                 (togpro(f, k + 2), togpro_order)):
                    values = list(f.values)
                    module._sweep(values, order, poset, ell)
                    assert g.values == tuple(values), f
                checked += 1
    assert checked == 53820


def counted_sweeps(monkeypatch):
    calls = []
    sweep = module._sweep

    def counted(values, order, poset, ell):
        calls.append(order)
        sweep(values, order, poset, ell)

    monkeypatch.setattr(module, "_sweep", counted)
    return calls


def test_row_and_togpro_reports_share_the_column_tables(monkeypatch):
    module._v_moves.cache_clear()
    calls = counted_sweeps(monkeypatch)
    orbit_report_for_action("row", 3, 7)
    filled = len(calls)
    orbit_report_for_action("togpro", 3, 7)
    # each move is swept once, for 37,128 partitions stepped twice
    assert 0 < filled == len(calls) <= 2400


@pytest.mark.parametrize("poset", [
    diamond(),
    Poset(("x1", "x2", "x3"), (("x1", "x2"), ("x2", "x3"))),
    make_v(),
], ids=["diamond", "chain", "v"])
def test_steps_off_v_times_k_sweep_the_whole_partition(monkeypatch, poset):
    calls = counted_sweeps(monkeypatch)
    order = module._rowmotion_order(poset, None)
    partitions = list(enumerate_ppartitions(poset, 2))
    assert module._v_moves(poset, 2) is None
    for f in partitions:
        assert rowmotion(f).values == reference_values(
            f, [poset.elements[i] for i in order])
    assert calls == [order] * len(partitions)


def test_default_rowmotion_off_v_times_k_sweeps_a_reversed_extension():
    poset = product_with_chain(diamond(), 3)
    exts = list(linear_extensions(poset))
    partitions = list(enumerate_ppartitions(poset, 2))
    assert len(partitions) == 887
    for ext in (exts[0], exts[-1]):
        order = [poset.index(e) for e in reversed(ext.order())]
        for f in partitions:
            values = list(f.values)
            module._sweep(values, order, poset, 2)
            assert rowmotion(f).values == tuple(values), f


def test_default_rowmotion_reads_the_stored_topological_order(monkeypatch):
    # a fresh copy of diamond x [3], so the cached poset keeps its order,
    # given another topological order: every step sweeps it reversed, so
    # no step sorts the poset again
    cached = product_with_chain(diamond(), 3)
    poset = Poset(cached.elements, cached.covers)
    first = next(linear_extensions(poset))
    poset._topo = tuple(map(poset.index, first.order()))
    assert poset._topo != cached._topo
    calls = counted_sweeps(monkeypatch)
    partitions = list(enumerate_ppartitions(poset, 2))
    for f in partitions:
        rowmotion(f)
    assert calls == [poset._topo[::-1]] * len(partitions)


# -- enumerated partitions are valid by construction ---------------------

def count_valid(partitions) -> int:
    """How many partitions there are, each accepted by the validating
    constructor and equal to its rebuilt copy, hash included."""
    count = 0
    for f in partitions:
        g = PPartition(f.poset, f.ell, f.values)
        assert type(f) is PPartition and g == f and hash(g) == hash(f)
        count += 1
    return count


def test_enumerated_partitions_are_valid():
    # every partition of the rowmotion and equivariance default grids, and
    # of V x [5] bounded by 3
    assert sum(count_valid(enumerate_ppartitions(
        product_with_chain(make_v(), k), ell))
        for ell, k in DEFAULT_GRID + [(3, 5)]) == 4038 + 37128


@pytest.mark.parametrize("poset", [
    diamond(),
    Poset(("x1", "x2", "x3"), (("x1", "x2"), ("x2", "x3"))),
    Poset(("x1", "x3", "x2"), (("x1", "x2"), ("x2", "x3"))),
    Poset("dacb", (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))),
], ids=["diamond", "chain", "chain-unsorted", "diamond-unsorted"])
def test_enumerated_partitions_are_valid_on_other_posets(poset):
    assert all(count_valid(enumerate_ppartitions(poset, ell))
               for ell in range(4))


def test_steps_off_a_table_validate_their_image_once(validations):
    # an enumerated partition is built unvalidated; apply_automorphism and
    # toggle validate the partition they return, once, and rowmotion and
    # togpro on V x [k] validate one swept partition per move entry they
    # fill, and none once the entries are filled
    poset = product_with_chain(make_v(), 3)
    flip = flip_automorphism(poset)
    partitions = list(enumerate_ppartitions(poset, 2))
    validated = validations(PPartition)
    for f in partitions:
        for step in (lambda f: apply_automorphism(flip, f),
                     lambda f: toggle(("A", 2), f)):
            validated.clear()
            g = step(f)
            assert list(map(id, validated)) == [id(g)]
    validated.clear()
    module._v_moves.cache_clear()
    row_order = list(reversed(next(iter(linear_extensions(poset))).order()))
    togpro_order = reference_togpro_elements(5)
    for f in partitions:
        assert rowmotion(f).values == reference_values(f, row_order)
        assert togpro(f, 5).values == reference_values(f, togpro_order)
    _, _, _, move_a, move_bc = module._v_moves(poset, 2)
    assert 0 < len(validated) <= len(move_a) + len(move_bc)
    validated.clear()
    for f in partitions:
        rowmotion(f)
        togpro(f, 5)
    assert not validated
