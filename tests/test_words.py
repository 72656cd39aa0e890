import pytest

from vkrew import golden
from vkrew.kreweras import KrewerasWord
from vkrew.pstrict import enumerate_labelings
from vkrew.words import PartialMultiKrewerasWord, VLayer, WordCountError, \
    WordPrefixError, _shortest_arcs, delete_double_arc, destandardize, \
    double_arcs, enumerate_words, generalized_bump_diagram, \
    labeling_of_word, layer_decomposition, promote_vlayer, promote_word, \
    promote_word_layerwise, rotate_double_arc, same_block_closers_nest, \
    standardize, swap_bc_word, word_of_labeling


def word(text):
    return PartialMultiKrewerasWord.from_text(text)


def test_word_from_blocks_matches_figure():
    w = PartialMultiKrewerasWord(6, 9, (
        (1, 0, 0), (1, 0, 1), (2, 2, 0), (1, 1, 2), (0, 0, 1), (1, 1, 0),
        (0, 1, 0), (0, 0, 2), (0, 1, 0)))
    assert w == golden.word69()


def test_word_errors_are_distinct():
    with pytest.raises(WordPrefixError):
        PartialMultiKrewerasWord(1, 3, ((0, 1, 1), (1, 0, 0), (0, 0, 0)))
    with pytest.raises(WordCountError):
        PartialMultiKrewerasWord(1, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    assert issubclass(WordPrefixError, ValueError)
    assert issubclass(WordCountError, ValueError)


def test_text_roundtrip():
    assert golden.word69().to_text() == golden.WORD69_TEXT
    assert word(golden.WORD69_TEXT) == golden.word69()
    empty_block = word("∅|A|BC")
    assert empty_block.blocks == ((0, 0, 0), (1, 0, 0), (0, 1, 1))
    assert empty_block.to_text() == "∅|A|BC"


def test_json_roundtrip():
    w = golden.word69()
    assert PartialMultiKrewerasWord.from_json(w.to_json()) == w


def test_word_labeling_bijection_figure():
    assert word_of_labeling(golden.labeling69()) == golden.word69()
    assert labeling_of_word(golden.word69()) == golden.labeling69()


def test_word_of_single_layer():
    f = labeling_of_word(word("A|BC|∅"))
    assert f.fibers == ((1,), (2,), (2,))


@pytest.mark.parametrize("ell,q", [(1, 3), (2, 4)])
def test_word_labeling_roundtrip(ell, q):
    for f in enumerate_labelings(ell, q):
        w = word_of_labeling(f)
        assert labeling_of_word(w) == f
        assert word_of_labeling(labeling_of_word(w)) == w


def test_diagram_figure_layers():
    layers = tuple(l.as_tuple() for l in layer_decomposition(golden.word69()))
    assert layers == golden.LAYERS69


def test_diagram_small_words():
    assert [l.as_tuple() for l in layer_decomposition(word("A|B|C"))] \
        == [(1, 2, 3)]
    assert double_arcs(word("A|B|C")) == []
    assert [l.as_tuple() for l in layer_decomposition(word("A|BC|∅"))] \
        == [(1, 2, 2)]
    assert double_arcs(word("A|BC|∅")) == [(1, 2)]


def test_diagram_rejects_nothing_but_tracks_doubles():
    diagram = generalized_bump_diagram(golden.word69())
    assert len(diagram.arcs_b) == len(diagram.arcs_c) == 6
    assert len(diagram.double_arc_openers()) == 1


def test_layer_multiset_invariant_under_a_permutations():
    # the within-block order of A's is a free choice; any permutation of
    # the A pushes yields the same layer multiset and double-arc data
    from itertools import permutations

    def diagram_layers_with_a_order(w, orders):
        slots = []
        for i, (na, nb, nc) in enumerate(w.blocks, start=1):
            slots += [(i, "B")] * nb + [(i, "C")] * nc
            slots += [(i, "A", j) for j in orders.get(i, range(na))]
        arcs = {"B": {}, "C": {}}
        stacks = {"B": [], "C": []}
        for pos, slot in enumerate(slots, start=1):
            ch = slot[1]
            if ch == "A":
                stacks["B"].append(slot)
                stacks["C"].append(slot)
            else:
                arcs[ch][stacks[ch].pop()] = slot[0]
        return sorted((a[0], arcs["B"][a], arcs["C"][a]) for a in arcs["B"])

    for text in (golden.WORD69_TEXT, "AA|B|B|C|C", "AA|BC|BC"):
        w = word(text)
        base = diagram_layers_with_a_order(w, {})
        assert base == [l.as_tuple() for l in layer_decomposition(w)]
        multi_blocks = [i for i in range(1, w.q + 1) if w.blocks[i - 1][0] > 1]
        for bi in multi_blocks:
            for perm in permutations(range(w.blocks[bi - 1][0])):
                assert diagram_layers_with_a_order(w, {bi: perm}) == base


def test_promote_word_figure():
    assert promote_word(golden.word69()).to_text() == golden.WORD69_PROMOTED_TEXT


def test_promote_word_small():
    assert promote_word(word("A|∅|BC")).to_text() == "∅|A|BC"
    assert promote_word(word("∅|A|B|C")).to_text() == "A|B|C|∅"


def test_promote_vlayer_cases():
    assert promote_vlayer(VLayer(2, 3, 8), 9).as_tuple() == (1, 2, 7)
    assert promote_vlayer(VLayer(1, 3, 3), 3).as_tuple() == (2, 3, 3)
    assert promote_vlayer(VLayer(1, 3, 5), 5).as_tuple() == (2, 5, 4)
    assert promote_vlayer(VLayer(1, 5, 3), 5).as_tuple() == (2, 4, 5)
    with pytest.raises(ValueError):
        promote_vlayer(VLayer(1, 3, 5), 4)


def test_vlayer_validation():
    with pytest.raises(ValueError):
        VLayer(2, 2, 3)
    with pytest.raises(ValueError):
        VLayer(0, 1, 2)


def test_figure_promoted_layers():
    promoted = sorted(promote_vlayer(l, 9).as_tuple()
                      for l in layer_decomposition(golden.word69()))
    assert tuple(promoted) == golden.LAYERS69_PROMOTED


@pytest.mark.parametrize("ell,q", [(1, 4), (2, 4), (2, 5)])
def test_promotion_agrees_with_layerwise_route(ell, q):
    for w in enumerate_words(ell, q):
        assert promote_word(w) == promote_word_layerwise(w)


def test_promoted_layer_coupling_can_differ_from_layerwise_promotion():
    # the promoted word always agrees with the layerwise route, but the
    # promoted word's own arc coupling may pair the blocks differently
    w = word("AA|B|B|C|C")
    assert promote_word(w) == promote_word_layerwise(w)
    direct = sorted(l.as_tuple() for l in layer_decomposition(promote_word(w)))
    rotated = sorted(promote_vlayer(l, 5).as_tuple()
                     for l in layer_decomposition(w))
    assert direct == [(1, 5, 4), (2, 5, 3)]
    assert rotated == [(1, 5, 3), (2, 5, 4)]
    assert direct != rotated


def test_double_arc_operations_figure():
    w = golden.word69()
    assert double_arcs(w) == [(3, 4)]
    assert delete_double_arc(w, (3, 4)).to_text() == golden.WORD69_DELETED_TEXT
    assert rotate_double_arc((3, 4), 9) == (2, 3)
    assert double_arcs(promote_word(w)) == [(2, 3)]
    with pytest.raises(ValueError):
        delete_double_arc(w, (1, 2))


def test_rotate_double_arc_wraps():
    assert rotate_double_arc((1, 4), 6) == (3, 6)
    assert rotate_double_arc((2, 4), 6) == (1, 3)


def test_delete_to_empty_word():
    w = word("A|BC")
    assert double_arcs(w) == [(1, 2)]
    empty = delete_double_arc(w, (1, 2))
    assert empty.ell == 0
    assert empty.to_text() == "∅|∅"
    assert promote_word(empty) == empty


def test_shortest_arc_triples_figure():
    assert _shortest_arcs(layer_decomposition(golden.word69())) == (
        ("=", 3, 4), ("B", 2, 3), ("B", 6, 7), ("C", 1, 2), ("C", 3, 4),
        ("C", 4, 5))


def test_standardize_examples():
    for text, expected_word, expected_sizes in golden.STD_PAIRS:
        std, sizes = standardize(word(text))
        assert std.letters == expected_word
        assert sizes == expected_sizes
    std, sizes = standardize(word("A|B|C"))
    assert std.letters == "ABC" and sizes == (1, 1, 1)


def test_standardize_rejects_double_arcs():
    with pytest.raises(ValueError):
        standardize(word("A|BC|∅"))


def test_destandardize_examples():
    assert destandardize(KrewerasWord("AACCBB"), (0, 2, 2, 2)).to_text() \
        == "∅|AA|CC|BB"
    assert destandardize(KrewerasWord("AACCBB"), (1, 1, 2, 2)).to_text() \
        == "A|A|CC|BB"
    with pytest.raises(ValueError):
        destandardize(KrewerasWord("ABC"), (1, 1, 2))
    # the sizes sum to the length, but no block holds -1 letters
    with pytest.raises(ValueError, match="block size -1 is negative"):
        destandardize(KrewerasWord("AABBCC"), (2, 5, -1))


def test_destandardize_roundtrip_deleted_figure_word():
    w = word(golden.WORD69_DELETED_TEXT)
    assert not double_arcs(w)
    std, sizes = standardize(w)
    assert destandardize(std, sizes) == w


@pytest.mark.parametrize("ell,q", [(2, 4), (2, 5)])
def test_standardize_emits_valid_nesting_words(ell, q):
    for w in enumerate_words(ell, q):
        if double_arcs(w):
            continue
        std, sizes = standardize(w)  # KrewerasWord constructor validates
        assert sum(sizes) == 3 * ell
        assert same_block_closers_nest(std, sizes)
        assert destandardize(std, sizes) == w


@pytest.mark.parametrize("ell,q", [(2, 4), (2, 5)])
def test_standardize_preserves_blockwise_arcs(ell, q):
    # the flattened word's own stack matchings connect the same blocks
    # as the generalized diagram it was built from
    from vkrew.kreweras import bump_diagram

    for w in enumerate_words(ell, q):
        if double_arcs(w):
            continue
        std, sizes = standardize(w)
        block_of = {}
        pos = 0
        for i, size in enumerate(sizes, start=1):
            for _ in range(size):
                pos += 1
                block_of[pos] = i
        flat = bump_diagram(std)
        diagram = generalized_bump_diagram(w)
        for flat_arcs, gen_arcs in ((flat.arcs_b, diagram.arcs_b),
                                    (flat.arcs_c, diagram.arcs_c)):
            flat_blocks = sorted((block_of[i], block_of[j])
                                 for i, j in flat_arcs)
            gen_blocks = sorted((diagram.slot_block(i), diagram.slot_block(j))
                                for i, j in gen_arcs)
            assert flat_blocks == gen_blocks


def test_swap_bc_word():
    w = golden.word69()
    assert swap_bc_word(swap_bc_word(w)) == w
    assert swap_bc_word(word("A|B|C")).to_text() == "A|C|B"


def test_pro_q_swaps_letters_small():
    for w in enumerate_words(1, 4):
        current = w
        for _ in range(4):
            current = promote_word(current)
        assert current == swap_bc_word(w)


def test_standardize_empty_word():
    empty = PartialMultiKrewerasWord(0, 3, ((0, 0, 0),) * 3)
    std, sizes = standardize(empty)
    assert std.letters == "" and sizes == (0, 0, 0)
    assert destandardize(std, sizes) == empty


def test_layer_multiset_determines_word():
    seen = {}
    for w in enumerate_words(2, 4):
        key = tuple(l.as_tuple() for l in layer_decomposition(w))
        assert key not in seen, (w, seen[key])
        seen[key] = w
