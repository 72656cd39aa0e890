import pytest

from vkrew.orbits import ActionError, OrbitReport, orbit_cycles, power_map


def cycle_lists(cycles):
    return [list(c) for c in cycles]


def test_orbit_cycles_of_identity():
    assert cycle_lists(orbit_cycles(lambda x: x, range(4))) \
        == [[0], [1], [2], [3]]
    assert cycle_lists(orbit_cycles(lambda x: x, "abc")) == [[0], [1], [2]]


def test_orbit_cycles_finds_images_by_equality():
    items = [(0, "a"), (1, "b"), (2, "c")]

    def step(x):  # an equal tuple, not the element itself
        return ((x[0] + 1) % 3, "abc"[(x[0] + 1) % 3])
    assert step(items[2]) is not items[0]
    assert cycle_lists(orbit_cycles(step, items)) == [[0, 1, 2]]
    # an image unequal to every element, or of another class, is none of
    # them
    for image in (lambda x: (x[0], "z"), lambda x: list(x), lambda x: None):
        with pytest.raises(ActionError, match="^action leaves the set at"):
            orbit_cycles(image, items)
    # a float that equals an int element is not that element
    with pytest.raises(ActionError,
                       match=r"^action leaves the set at 0 -> 0\.0$"):
        orbit_cycles(float, [0, 1])
    with pytest.raises(ActionError, match="^enumeration repeats an element$"):
        orbit_cycles(lambda x: x, [(0, "a"), (0, "a")])


def test_orbit_cycles_detects_escape():
    with pytest.raises(ActionError):
        orbit_cycles(lambda x: x + 1, [0, 1, 2])


def test_orbit_cycles_detects_merge():
    # the walk from 1 reaches 0, closed into a cycle of its own earlier
    with pytest.raises(ActionError, match="^0 is reached twice"):
        orbit_cycles(lambda x: 0, [0, 1, 2])


def test_orbit_cycles_detects_merge_inside_one_walk():
    # 0 -> 1 -> 2 -> 3 -> 2: the walk from 0 reaches 2 again, not 0
    with pytest.raises(ActionError, match="^2 is reached twice"):
        orbit_cycles(lambda x: x + 1 if x < 3 else 2, range(4))
    with pytest.raises(ActionError, match="^'c' is reached twice"):
        orbit_cycles({"a": "b", "b": "c", "c": "d", "d": "c"}.get, "abcd")


class Positions:
    """range(n) as a sequence that keeps no element, recording each
    position read."""

    def __init__(self, n):
        self.n, self.read = n, []

    def __len__(self):
        return self.n

    def __getitem__(self, p):
        self.read.append(p)
        return p


def test_orbit_cycles_by_locate_reads_only_each_cycles_start():
    # each walk reads its start and steps each image in turn
    positions, stepped = Positions(6), []

    def step(x):
        stepped.append(x)
        return (x + 2) % 6
    locate = {x: x for x in range(6)}.get
    assert cycle_lists(orbit_cycles(step, positions, locate=locate)) \
        == [[0, 2, 4], [1, 3, 5]]
    assert positions.read == [0, 1]
    assert stepped == [0, 2, 4, 1, 3, 5]
    # what locate does not place, or an image of another class, leaves
    # the set, as in the kept list
    for step, escape in ((lambda x: x + 1, "5 -> 6"), (float, "0 -> 0.0")):
        positions.read.clear()
        with pytest.raises(ActionError) as info:
            orbit_cycles(step, positions, locate=locate)
        assert str(info.value) == f"action leaves the set at {escape}"
        assert positions.read == [0]


def test_orbit_cycles_by_locate_names_a_merge_by_its_image():
    # 0 -> 1 -> ... -> 5 -> 3: the walk from 0 reaches 3 again, and the
    # image it reached is named, with no further read of the elements
    positions = Positions(6)
    with pytest.raises(ActionError, match="^3 is reached twice"):
        orbit_cycles(lambda x: x + 1 if x < 5 else 3, positions,
                     locate={x: x for x in range(6)}.get)
    assert positions.read == [0]


def test_orbit_cycles_by_locate_refuses_an_iterator():
    # with locate, a cycle's start is read by its position, which a
    # one-shot iterator has not; it is refused before any step
    locate = {x: x for x in range(6)}.get
    steps = []

    def step(x):
        steps.append(x)
        return x + 1 if x < 5 else 3
    elements = iter(range(6))
    with pytest.raises(TypeError, match="has no len"):
        orbit_cycles(step, elements, locate=locate)
    assert steps == [] and next(elements) == 0
    # a sequence, a list or a range names the merge
    for elements in (Positions(6), list(range(6)), range(6)):
        with pytest.raises(ActionError, match="^3 is reached twice"):
            orbit_cycles(step, elements, locate=locate)
    # without locate an iterator is listed once and kept
    assert cycle_lists(orbit_cycles(lambda x: (x + 1) % 3, iter(range(3)))) \
        == [[0, 1, 2]]


def test_orbit_cycles_detects_duplicates():
    with pytest.raises(ActionError):
        orbit_cycles(lambda x: x, [1, 1])


def test_power_map_matches_iteration():
    step = lambda x: (x + 1) % 6
    cycles = orbit_cycles(step, range(6))
    for t in range(0, 13):
        mapping = power_map(cycles, t)
        for x in range(6):
            expected = x
            for _ in range(t):
                expected = step(expected)
            assert mapping[x] == expected


def test_orbit_report_invariants():
    assert OrbitReport("id", {}, 0, (), 1).order == 1  # the empty set
    with pytest.raises(ValueError):
        OrbitReport("a", {}, 4, (3, 2), 6, {})
    with pytest.raises(ValueError):
        OrbitReport("a", {}, 5, (3, 2), 3, {})
    for sizes, order in (((0,), 0), ((-1, 1), 1)):
        with pytest.raises(ValueError, match="below 1"):
            OrbitReport("a", {}, 0, sizes, order, {})


def test_orbit_report_json_roundtrip():
    report = OrbitReport("a", {"ell": 1, "q": 3}, 5, (3, 2), 6,
                         {"ok": True})
    data = report.to_json()
    assert set(data) == {"action", "params", "count", "orbit_sizes", "order",
                         "checks"}
    assert OrbitReport.from_json(data) == report

    failing = OrbitReport("a", {}, 5, (3, 2), 6, {"ok": False},
                          {"ok": {"bad": 1}})
    data = failing.to_json()
    assert "counterexamples" in data
    assert OrbitReport.from_json(data) == failing
