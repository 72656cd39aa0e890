from functools import partial
from itertools import combinations_with_replacement, product

import pytest

from vkrew import golden
from vkrew.poset import Poset, linear_extensions, make_v, \
    product_with_chain
from vkrew.pstrict import PStrictLabeling, RestrictionFunction, \
    _tau_fibers, _v_moves, bender_knuth_tau, enumerate_labelings, \
    enumerate_restricted_labelings, free_labels, free_labels_bruteforce, \
    promote_pstrict, restriction_rq, swap_bc
from vkrew.kreweras import bump_diagram, promote_kreweras, promote_linext, \
    to_kreweras
from vkrew.words import PartialMultiKrewerasWord, destandardize, \
    generalized_bump_diagram, labeling_of_word, word_of_labeling


def labeling(ell, q, fa, fb, fc):
    rf = restriction_rq(make_v(), q)
    return PStrictLabeling(rf, ell, (tuple(fa), tuple(fb), tuple(fc)))


def chain(n):
    elements = [f"x{i}" for i in range(1, n + 1)]
    return Poset(elements, [(a, b) for a, b in zip(elements, elements[1:])])


def test_restriction_rq_intervals():
    assert restriction_rq(make_v(), 9).intervals == ((1, 8), (2, 9), (2, 9))
    assert restriction_rq(make_v(), 3).intervals == ((1, 2), (2, 3), (2, 3))


def test_restriction_rq_chain_is_forced():
    assert restriction_rq(chain(2), 2).intervals == ((1, 1), (2, 2))


def test_restriction_rq_rejects_small_q():
    with pytest.raises(ValueError):
        restriction_rq(make_v(), 1)
    with pytest.raises(ValueError):
        restriction_rq(chain(3), 2)


def test_restriction_rq_needs_grading():
    bad = Poset(("a", "b", "c", "d"), (("a", "b"), ("b", "d"), ("a", "c")))
    with pytest.raises(ValueError):
        restriction_rq(bad, 5)


def consistent(rf, ell):
    """Whether every label k of every interval is met by a labeling whose
    whole fiber of that element is k; scans every labeling."""
    met = {(i, fiber[0]) for f in enumerate_restricted_labelings(rf, ell)
           for i, fiber in enumerate(f.fibers) if fiber[0] == fiber[-1]}
    return all((i, k) in met for i, (lo, hi) in enumerate(rf.intervals)
               for k in range(lo, hi + 1))


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("ell", [1, 2])
def test_restriction_rq_is_consistent(ell, q):
    assert consistent(restriction_rq(make_v(), q), ell)


def test_inconsistent_restriction_detected():
    rf = RestrictionFunction(make_v(), 3, ((1, 1), (1, 3), (1, 3)))
    assert not consistent(rf, 1)


@pytest.mark.parametrize("q", [3, 4])
def test_restriction_rq_intervals_are_maximal(q):
    """Widening any interval endpoint inside 1..q breaks consistency."""
    rf = restriction_rq(make_v(), q)
    for idx in range(3):
        lo, hi = rf.intervals[idx]
        for widened in ((lo - 1, hi), (lo, hi + 1)):
            if not 1 <= widened[0] <= widened[1] <= q:
                continue
            intervals = list(rf.intervals)
            intervals[idx] = widened
            wider = RestrictionFunction(make_v(), q, tuple(intervals))
            assert not consistent(wider, 1), (idx, widened)


def test_restriction_function_rejects_bad_intervals():
    with pytest.raises(ValueError):
        RestrictionFunction(make_v(), 3, ((2, 1), (2, 3), (2, 3)))
    with pytest.raises(ValueError):
        RestrictionFunction(make_v(), 3, ((0, 2), (2, 3), (2, 3)))
    with pytest.raises(ValueError):
        RestrictionFunction(make_v(), 3, ((1, 2), (2, 4), (2, 3)))
    with pytest.raises(ValueError):
        RestrictionFunction(make_v(), 3, ((1, 2), (2, 3)))


def test_labeling_validation():
    good = labeling(2, 4, (1, 2), (2, 3), (3, 3))
    assert good.value("B", 2) == 3
    assert tuple(good.value(p, 1) for p in "ABC") == (1, 2, 3)
    with pytest.raises(ValueError):
        labeling(1, 4, (2,), (2,), (3,))  # layer not strict at A < B
    with pytest.raises(ValueError):
        labeling(2, 4, (2, 1), (3, 3), (3, 3))  # fiber decreases
    with pytest.raises(ValueError):
        labeling(1, 4, (1,), (2,), (5,))  # outside interval
    with pytest.raises(ValueError):
        labeling(1, 4, (4,), (2,), (3,))  # A fiber above its maximum


@pytest.mark.parametrize("ell,q,count", [(1, 3, 5), (2, 3, 14)])
def test_enumeration_counts(ell, q, count):
    assert sum(1 for _ in enumerate_labelings(ell, q)) == count


def test_enumeration_canonical_order():
    seen = [f.fibers for f in enumerate_labelings(2, 4)]
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_enumeration_rejects_bad_parameters():
    with pytest.raises(ValueError):
        next(enumerate_labelings(0, 4))
    with pytest.raises(ValueError):
        next(enumerate_labelings(1, 2))


def test_figure_labeling_is_valid_member():
    f = golden.labeling69()
    assert f.ell == 6 and f.q == 9
    assert f.fiber("A") == golden.LABELING69_FIBERS["A"]


def test_free_labels_examples():
    f = labeling(1, 3, (1,), (3,), (3,))
    assert free_labels(1, f) == ((("A", 1),), ())
    f = labeling(1, 3, (1,), (2,), (3,))
    assert free_labels(2, f) == ((("B", 1),), (("C", 1),))
    f = labeling(1, 4, (2,), (3,), (4,))
    assert free_labels(2, f) == ((), ())


def test_free_labels_rejects_bad_k():
    f = labeling(1, 3, (1,), (2,), (3,))
    with pytest.raises(ValueError):
        free_labels(0, f)
    with pytest.raises(ValueError):
        free_labels(3, f)


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("ell", [1, 2])
def test_local_criterion_matches_existential(ell, q):
    for f in enumerate_labelings(ell, q):
        for k in range(1, q):
            assert free_labels(k, f) == free_labels_bruteforce(k, f)


def test_tau_examples():
    f = labeling(1, 3, (1,), (2,), (3,))
    assert bender_knuth_tau(2, f).fibers == ((1,), (3,), (2,))
    f = labeling(1, 4, (2,), (3,), (4,))
    assert bender_knuth_tau(2, f) == f


def test_tau_involution_and_validity():
    for f in enumerate_labelings(2, 4):
        for k in range(1, 4):
            image = bender_knuth_tau(k, f)  # constructor revalidates
            assert bender_knuth_tau(k, image) == f


def reference_tau(k, f):
    """tau_k assembled layer by layer from free_labels: in each fiber the
    free slots, read in layer order, get the free (k+1)'s count of k's
    and then the free k's count of (k+1)'s."""
    raisable, lowerable = free_labels(k, f)
    fibers = []
    for p, fiber in zip(f.restriction.poset.elements, f.fibers):
        ups = [i - 1 for e, i in raisable if e == p]
        downs = [i - 1 for e, i in lowerable if e == p]
        fiber = list(fiber)
        for i, v in zip(ups + downs, [k] * len(downs) + [k + 1] * len(ups)):
            fiber[i] = v
        fibers.append(tuple(fiber))
    return PStrictLabeling(f.restriction, f.ell, tuple(fibers))


def assert_kernel_matches_reference(labelings):
    """tau_k is checked at tau_{k-1} ... tau_1(f).  That map is a
    bijection, so as f runs over a whole enumeration every labeling meets
    every tau_k once."""
    count = 0
    for f in labelings:
        promoted = f
        for k in range(1, f.q):
            step = reference_tau(k, promoted)
            assert bender_knuth_tau(k, promoted) == step
            promoted = step
        assert promote_pstrict(f) == promoted
        count += 1
    assert count > 0


# the default grid of the main suite: ell <= 3, q <= 7, ell + q <= 10
MAIN_GRID = [(ell, q) for ell in range(1, 4) for q in range(3, 8)
             if ell + q <= 10]


@pytest.mark.parametrize("ell,q", MAIN_GRID)
def test_tau_and_promotion_match_free_labels_reference(ell, q):
    assert_kernel_matches_reference(enumerate_labelings(ell, q))


def diamond():
    return Poset("abcd", (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")))


OTHER_RESTRICTIONS = {
    "diamond": restriction_rq(diamond(), 5),
    "chain": restriction_rq(chain(3), 5),
    "v-times-2": restriction_rq(product_with_chain(make_v(), 2), 5),
    # V with A narrowed and B, C unequal, served by the generic tau as
    # every restriction on V but the widest
    "narrow-v": RestrictionFunction(make_v(), 5, ((2, 3), (3, 5), (4, 5))),
    "narrow-c-v": RestrictionFunction(make_v(), 5, ((1, 3), (2, 5), (3, 5))),
}


# v-times-2 stops at ell = 2: at ell = 3 the reference takes about 11 s
# on a 2-vCPU machine
@pytest.mark.parametrize("ell,name", [
    (ell, name) for ell in (1, 2, 3) for name in OTHER_RESTRICTIONS
    if (ell, name) != (3, "v-times-2")])
def test_kernel_matches_reference_on_other_posets(ell, name):
    assert_kernel_matches_reference(
        enumerate_restricted_labelings(OTHER_RESTRICTIONS[name], ell))


def test_promotion_examples():
    f = labeling(1, 3, (1,), (3,), (3,))
    assert promote_pstrict(f).fibers == ((2,), (3,), (3,))


def test_promotion_power_2q_is_identity():
    for f in enumerate_labelings(1, 4):
        current = f
        for _ in range(8):
            current = promote_pstrict(current)
        assert current == f


def test_promotion_matches_linext_on_distinct_labels():
    # every linear extension of V x [n], read as fibers, is a labeling at
    # (n, 3n) with distinct labels, and its P-strict promotion is its
    # promotion as an extension: the Hopkins-Rubey case of the theorem.
    # Its word is the Kreweras word with one letter per block, in step
    # with promote_kreweras and with the same bump diagram.
    counts = []
    for n in range(1, 5):
        rf = restriction_rq(make_v(), 3 * n)
        sizes = (1,) * (3 * n)

        def fibers(labels):
            return labels[:n], labels[n:2 * n], labels[2 * n:]
        counts.append(0)
        for ext in linear_extensions(product_with_chain(make_v(), n)):
            f = PStrictLabeling(rf, n, fibers(ext.labels))
            g = promote_pstrict(f)
            assert g.fibers == fibers(promote_linext(ext).labels)
            w = to_kreweras(ext)
            assert word_of_labeling(f) == destandardize(w, sizes)
            assert word_of_labeling(g) \
                == destandardize(promote_kreweras(w), sizes)
            flat = bump_diagram(w)
            diagram = generalized_bump_diagram(destandardize(w, sizes))
            assert (set(diagram.arcs_b), set(diagram.arcs_c)) \
                == (flat.arcs_b, flat.arcs_c)
            counts[-1] += 1
    assert counts == [2, 16, 192, 2816]


def test_swap_bc():
    f = labeling(1, 3, (1,), (2,), (3,))
    assert swap_bc(f).fibers == ((1,), (3,), (2,))
    assert swap_bc(swap_bc(f)) == f


def test_swap_bc_rejects_other_posets():
    rf = restriction_rq(chain(2), 3)
    f = PStrictLabeling(rf, 1, ((1,), (2,)))
    with pytest.raises(ValueError):
        swap_bc(f)


def brute_force_labelings(rf, ell):
    """The fibers of every labeling: each tuple of weakly increasing
    fibers inside the intervals that the validating constructor accepts,
    lexicographic on the concatenated fibers."""
    found = []
    for fibers in product(*(combinations_with_replacement(range(lo, hi + 1),
                                                          ell)
                            for lo, hi in rf.intervals)):
        try:
            found.append(PStrictLabeling(rf, ell, fibers).fibers)
        except ValueError:
            pass
    return found


# element orders that are not topological: a 2-chain and the diamond
# listed top first, the diamond also with narrowed intervals of unequal
# shifts lo - rk(p)
NON_TOPOLOGICAL = {
    "chain-top-first": restriction_rq(Poset(("B", "A"), (("A", "B"),)), 3),
    "diamond-top-first": restriction_rq(Poset("dacb", diamond().covers), 5),
    "narrow-diamond-top-first": RestrictionFunction(
        Poset("dacb", diamond().covers), 6, ((4, 6), (1, 2), (3, 4), (2, 5))),
}


@pytest.mark.parametrize("ell,name", [
    *((ell, name) for name in ("diamond", "chain", "narrow-v", "narrow-c-v",
                               *NON_TOPOLOGICAL)
      for ell in (1, 2, 3)),
    (1, "v-times-2"),
])
def test_enumeration_matches_brute_force(ell, name):
    rf = {**OTHER_RESTRICTIONS, **NON_TOPOLOGICAL}[name]
    got = [f.fibers for f in enumerate_restricted_labelings(rf, ell)]
    assert got == brute_force_labelings(rf, ell) and got


def test_enumeration_requires_a_graded_poset():
    # the maximal chains a < b < c and a < d differ in length
    ungraded = Poset("abcd", (("a", "b"), ("b", "c"), ("a", "d")))
    rf = RestrictionFunction(ungraded, 5, ((1, 5),) * 4)
    with pytest.raises(ValueError, match="not graded"):
        enumerate_restricted_labelings(rf, 1)


def test_accessor_layer_bounds():
    f = labeling(2, 4, (1, 2), (2, 3), (3, 3))
    with pytest.raises(ValueError):
        f.value("A", 0)
    with pytest.raises(ValueError):
        f.value("A", 3)


@pytest.mark.parametrize("fibers,message", [
    (((1,), (2, 3), (3, 3)), "fiber of 'A' has wrong length"),
    (((2, 1), (3, 3), (3, 3)), "fiber of 'A' decreases"),
    (((1, 1), (2, 2), (3, 5)), "fiber of 'C' leaves its interval"),
    (((1, 2), (2, 3), (2, 2)), "layer 2 not strict across 'A' < 'C'"),
])
def test_validation_messages(fibers, message):
    with pytest.raises(ValueError) as info:
        labeling(2, 4, *fibers)
    assert str(info.value) == message


def test_fiber_check_is_kept_per_interval():
    # the same C fiber passes under the widest intervals and fails under a
    # narrower C interval, in either order
    fibers = ((1,), (3,), (4,))
    wide = restriction_rq(make_v(), 5)
    narrow = RestrictionFunction(make_v(), 5, ((1, 4), (2, 5), (2, 3)))
    for _ in range(2):
        PStrictLabeling(wide, 1, fibers)
        with pytest.raises(ValueError, match="fiber of 'C' leaves"):
            PStrictLabeling(narrow, 1, fibers)


@pytest.mark.parametrize("ell,q", MAIN_GRID)
def test_lookup_kernel_matches_generic_tau(ell, q):
    """promote_pstrict on V is table lookups; on every labeling of the main
    grid it is the composition of the generic tau_1 ... tau_{q-1}."""
    rf = restriction_rq(make_v(), q)
    assert _v_moves(rf) is not None
    up, down = rf.poset._up, rf.poset._down
    count = 0
    for f in enumerate_labelings(ell, q):
        fibers = f.fibers
        for k in range(1, q):
            fibers = _tau_fibers(fibers, k, up, down, rf.intervals)
        assert promote_pstrict(f).fibers == fibers
        count += 1
    assert count > 0


def test_lookup_kernel_serves_v_only():
    # the widest restriction on V only: a narrowed V takes the generic tau
    assert _v_moves(restriction_rq(make_v(), 5)) is not None
    assert _v_moves(RestrictionFunction(make_v(), 5, ((2, 3), (3, 5),
                                                      (4, 5)))) is None
    for poset in (diamond(), chain(3), product_with_chain(make_v(), 2)):
        assert _v_moves(restriction_rq(poset, 5)) is None


def promoted_by_tau_fibers(f):
    """The fibers of Pro(f) by the generic tau_1 ... tau_{q-1}."""
    rf = f.restriction
    fibers = f.fibers
    for k in range(1, rf.q):
        fibers = _tau_fibers(fibers, k, rf.poset._up, rf.poset._down,
                             rf.intervals)
    return fibers


# -- enumerated labelings are valid by construction ----------------------

def count_valid(labelings) -> int:
    """How many labelings there are, each accepted by the validating
    constructor and equal to its rebuilt copy, hash included."""
    count = 0
    for f in labelings:
        g = PStrictLabeling(f.restriction, f.ell, f.fibers)
        assert type(f) is PStrictLabeling and g == f and hash(g) == hash(f)
        count += 1
    return count


def test_enumerated_labelings_are_valid():
    # every labeling of the main suite's default grid and of (2, 9)
    assert sum(count_valid(enumerate_labelings(ell, q))
               for ell, q in MAIN_GRID + [(2, 9)]) == 65443


@pytest.mark.parametrize("name", list(OTHER_RESTRICTIONS))
def test_enumerated_labelings_are_valid_on_other_restrictions(name):
    rf = OTHER_RESTRICTIONS[name]
    assert all(count_valid(enumerate_restricted_labelings(rf, ell))
               for ell in (1, 2, 3))


# -- the ranked loops on V against the walk -------------------------------

# V under other names: _v_moves serves make_v() only, so the labelings of
# this poset come from the walk of poset._order_preserving_maps, which
# replaced the recursion this test is named for
RELABELLED_V = Poset(("a", "b", "c"), (("a", "b"), ("a", "c")))


@pytest.mark.parametrize("ell,rf", [
    pytest.param(ell, restriction_rq(make_v(), q), id=f"rq-{ell}-{q}")
    for ell, q in MAIN_GRID + [(2, 9)]])
def test_ranked_enumeration_matches_the_recursion(ell, rf):
    relabelled = RestrictionFunction(RELABELLED_V, rf.q, rf.intervals)
    assert _v_moves(relabelled) is None
    by_walk = [f.fibers for f in
               enumerate_restricted_labelings(relabelled, ell)]
    assert _v_moves(rf) is not None
    ranked = [f.fibers for f in enumerate_restricted_labelings(rf, ell)]
    assert ranked == by_walk and ranked


@pytest.mark.parametrize("ell,q", [(3, 7), (2, 9)])
def test_enumeration_and_steps_meet_only_interned_fibers(ell, q):
    # every enumerated fiber is the object promotion's tables interned,
    # and promoting every labeling interns no further fiber
    _v_moves.cache_clear()
    labelings = list(enumerate_labelings(ell, q))
    fiber_of, ids = _v_moves(restriction_rq(make_v(), q))[:2]
    interned = len(fiber_of)
    assert all(ids.get(fiber) is not None and fiber_of[ids[fiber]] is fiber
               for f in labelings for fiber in f.fibers)
    images = list(map(promote_pstrict, labelings))
    assert len(fiber_of) == interned
    assert all(fiber_of[ids[fiber]] is fiber
               for g in images for fiber in g.fibers)


def test_first_labeling_at_large_q_interns_few_fibers():
    # the loops read each fiber source lazily, so reaching the first
    # labeling of V x [3] in [400] interns a few fibers, not the
    # C(401, 3) of each interval
    _v_moves.cache_clear()
    first = next(enumerate_labelings(3, 400))
    assert first.fibers == ((1, 1, 1), (2, 2, 2), (2, 2, 2))
    assert len(_v_moves(restriction_rq(make_v(), 400))[0]) < 100


@pytest.mark.parametrize("ell", [0, -1])
def test_restricted_enumeration_rejects_ell_below_1(ell):
    for rf in (restriction_rq(make_v(), 4), OTHER_RESTRICTIONS["diamond"]):
        with pytest.raises(ValueError, match="^ell must be >= 1$"):
            enumerate_restricted_labelings(rf, ell)


def test_outside_data_is_validated():
    # a word with no letters passes its own checks, not a labeling's
    with pytest.raises(ValueError, match="ell must be >= 1"):
        labeling_of_word(PartialMultiKrewerasWord(0, 4, ((0, 0, 0),) * 4))


def test_steps_off_a_table_validate_their_image_once(validations):
    # an enumerated labeling is built unvalidated; swap_bc and
    # bender_knuth_tau validate the labeling they return, once, unless that
    # is their argument, and promotion on V validates no labeling: it
    # checks each move's fiber once, when the entry is filled
    labelings = list(enumerate_labelings(2, 5))
    validated = validations(PStrictLabeling)
    moved = 0
    for f in labelings:
        for step in (swap_bc, partial(bender_knuth_tau, 2)):
            validated.clear()
            g = step(f)
            assert list(map(id, validated)) == ([] if g is f else [id(g)])
            moved += g is not f
    assert moved > len(labelings)
    validated.clear()
    _v_moves.cache_clear()
    for _ in range(2):
        assert [promote_pstrict(f).fibers for f in labelings] \
            == list(map(promoted_by_tau_fibers, labelings))
        assert not validated
