import pytest

from vkrew import golden
from vkrew.poset import LinearExtension, Poset, make_v, product_with_chain
from vkrew.pstrict import PStrictLabeling, RestrictionFunction, \
    bender_knuth_tau, enumerate_labelings, enumerate_restricted_labelings, \
    free_labels, free_labels_bruteforce, promote_pstrict, restriction_rq, \
    swap_bc
from vkrew.kreweras import promote_linext


def labeling(ell, q, fa, fb, fc):
    rf = restriction_rq(make_v(), q)
    return PStrictLabeling(rf, ell, (tuple(fa), tuple(fb), tuple(fc)))


def chain(n):
    elements = [f"x{i}" for i in range(1, n + 1)]
    return Poset(elements, [(a, b) for a, b in zip(elements, elements[1:])])


def test_restriction_rq_intervals():
    rf = restriction_rq(make_v(), 9)
    assert rf.interval("A") == (1, 8)
    assert rf.interval("B") == rf.interval("C") == (2, 9)
    rf = restriction_rq(make_v(), 3)
    assert rf.interval("A") == (1, 2)
    assert rf.interval("B") == rf.interval("C") == (2, 3)


def test_restriction_rq_chain_is_forced():
    rf = restriction_rq(chain(2), 2)
    assert rf.interval("x1") == (1, 1)
    assert rf.interval("x2") == (2, 2)


def test_restriction_rq_rejects_small_q():
    with pytest.raises(ValueError):
        restriction_rq(make_v(), 1)
    with pytest.raises(ValueError):
        restriction_rq(chain(3), 2)


def test_restriction_rq_needs_grading():
    bad = Poset(("a", "b", "c", "d"), (("a", "b"), ("b", "d"), ("a", "c")))
    with pytest.raises(ValueError):
        restriction_rq(bad, 5)


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("ell", [1, 2])
def test_restriction_rq_is_consistent(ell, q):
    assert restriction_rq(make_v(), q).is_consistent(ell)


def test_inconsistent_restriction_detected():
    rf = RestrictionFunction(make_v(), 3, ((1, 1), (1, 3), (1, 3)))
    assert not rf.is_consistent(1)


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
            assert not wider.is_consistent(1), (idx, widened)


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
    assert good.layer(1) == (1, 2, 3)
    with pytest.raises(ValueError):
        labeling(1, 4, (2,), (2,), (3,))  # layer not strict at A < B
    with pytest.raises(ValueError):
        labeling(2, 4, (2, 1), (3, 3), (3, 3))  # fiber decreases
    with pytest.raises(ValueError):
        labeling(1, 4, (1,), (2,), (5,))  # outside interval
    with pytest.raises(ValueError):
        labeling(1, 4, (4,), (2,), (3,))  # A fiber above its maximum


def test_labeling_json_roundtrip():
    f = labeling(2, 4, (1, 2), (2, 3), (3, 3))
    assert PStrictLabeling.from_json(f.to_json()) == f


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


@pytest.mark.parametrize("rf", [
    restriction_rq(diamond(), 5),
    restriction_rq(chain(3), 5),
    restriction_rq(product_with_chain(make_v(), 2), 5),
    RestrictionFunction(make_v(), 5, ((2, 3), (3, 5), (4, 5))),
], ids=["diamond", "chain", "v-times-2", "narrow-v"])
@pytest.mark.parametrize("ell", [1, 2])
def test_kernel_matches_reference_on_other_posets(rf, ell):
    assert_kernel_matches_reference(enumerate_restricted_labelings(rf, ell))


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
    # with one layer and q = 3 the all-distinct labelings are the linear
    # extensions of V, and the two promotions agree through the labels
    poset = product_with_chain(make_v(), 1)
    for f in enumerate_labelings(1, 3):
        values = (f.value("A", 1), f.value("B", 1), f.value("C", 1))
        if len(set(values)) < 3:
            continue
        ext = LinearExtension(poset, values)
        promoted = promote_pstrict(f)
        expected = promote_linext(ext)
        assert (promoted.value("A", 1), promoted.value("B", 1),
                promoted.value("C", 1)) == expected.labels


def test_swap_bc():
    f = labeling(1, 3, (1,), (2,), (3,))
    assert swap_bc(f).fibers == ((1,), (3,), (2,))
    assert swap_bc(swap_bc(f)) == f


def test_swap_bc_rejects_other_posets():
    rf = restriction_rq(chain(2), 3)
    f = PStrictLabeling(rf, 1, ((1,), (2,)))
    with pytest.raises(ValueError):
        swap_bc(f)


def test_enumeration_requires_topological_element_order():
    upside_down = Poset(("B", "A"), (("A", "B"),))
    rf = restriction_rq(upside_down, 3)
    with pytest.raises(ValueError):
        next(enumerate_restricted_labelings(rf, 1))


def test_accessor_layer_bounds():
    f = labeling(2, 4, (1, 2), (2, 3), (3, 3))
    with pytest.raises(ValueError):
        f.layer(0)
    with pytest.raises(ValueError):
        f.value("A", 3)
