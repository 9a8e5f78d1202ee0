"""Tests for the partition layer: enumeration, Kreweras, the odd-separating
family and its level statistics.  Golden values are frozen; the oracles in
bruteforce.py recompute the structural claims from definitions."""

import copy
import itertools
import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from bruteforce import interleave, q_count, y_membership
from freecactus import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    ResourceCapError,
    catalan,
    classify,
    enumerate_nc,
    enumerate_y,
    interval_pairing,
    is_noncrossing,
    join,
    kreweras,
    level_counts,
    refines,
    restrict,
    x_membership,
    y_level_counts,
)
from freecactus import _core_py
from freecactus.partitions import union_find_roots

# Frozen golden tables: total size of the odd-separating family by ground
# set size, and its histogram by number of even-only blocks.
Y_SIZES = [None, 1, 1, 2, 5, 9, 26, 48, 155, 287, 987, 1834]
Y_LEVELS = {
    1: [1],
    2: [1],
    3: [2],
    4: [4, 1],
    5: [8, 1],
    6: [20, 6],
    7: [40, 8],
    8: [112, 41, 2],
    9: [224, 61, 2],
    10: [672, 290, 25],
    11: [1344, 460, 30],
}


def nc_list(m):
    return list(enumerate_nc(m))


# ---------------------------------------------------------------- Partition


def test_canonical_form_and_equality():
    p = Partition([[3, 1], [4, 2, 6], [5]])
    assert p.blocks == ((1, 3), (2, 4, 6), (5,))
    assert p == Partition([(5,), (1, 3), (6, 4, 2)])
    assert len(p) == 3
    assert p.ground_size == 6
    assert p.block_sizes() == (2, 3, 1)
    assert hash(p) == hash(Partition([[1, 3], [2, 4, 6], [5]]))


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition([[1, 2], [2, 3]])  # duplicate element
    with pytest.raises(ValueError):
        Partition([[1], [3]])  # gap
    for low in (0, -2):
        with pytest.raises(ValueError, match=f"^partition elements must be positive, got {low}$"):
            Partition([[low, 1]])
    with pytest.raises(ValueError):
        Partition([[1, 2], []])  # empty block
    with pytest.raises(ValueError):
        Partition([])


def test_partitions_copy_and_pickle_at_every_protocol():
    p = Partition.from_text("1 3|2")
    copies = [copy.copy(p), copy.deepcopy(p)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies.append(pickle.loads(pickle.dumps(p, protocol)))
    for q in copies:
        assert type(q) is Partition and q == p and q.ground_size == 3


def test_text_form():
    text = "1 8|2 6 7|3 4|5|9|10 12|11"
    p = Partition.from_text(text)
    assert p.to_text() == text
    assert Partition.from_text("11|5|3 4|10 12|2 7 6|9|8 1") == p
    with pytest.raises(ValueError):
        Partition.from_text("1 2|x")


def test_json_form():
    p = Partition.from_text("1 3|2|4 5")
    obj = p.to_json_obj()
    assert obj == [[1, 3], [2], [4, 5]]
    assert Partition(obj) == p


@st.composite
def set_partition_strategy(draw):
    labels = draw(st.lists(st.integers(0, 4), min_size=1, max_size=9))
    blocks = {}
    for pos, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(pos)
    return Partition(blocks.values())


@given(set_partition_strategy())
@settings(max_examples=100)
def test_serialization_roundtrips(p):
    assert Partition.from_text(p.to_text()) == p
    assert Partition(p.to_json_obj()) == p


# -------------------------------------------------------------- enumeration


def test_enumeration_order_m3_is_frozen():
    assert [p.to_text() for p in enumerate_nc(3)] == [
        "1|2|3",
        "1|2 3",
        "1 2|3",
        "1 2 3",
        "1 3|2",
    ]


@pytest.mark.parametrize("m", range(1, 8))
def test_enumeration_matches_bruteforce(m):
    got = [p.blocks for p in enumerate_nc(m)]
    assert len(got) == len(set(got)) == catalan(m) == bruteforce.count_nc(m)
    assert set(got) == set(bruteforce.noncrossing_partitions(m))


def test_stream_count_is_catalan_up_to_14():
    for m in range(1, 15):
        assert sum(1 for _ in _core_py.iter_nc_blocks(m)) == catalan(m)


def test_enumeration_cap():
    with pytest.raises(ResourceCapError) as exc:
        enumerate_nc(DEFAULT_ENUMERATION_CAP + 1)
    assert str(DEFAULT_ENUMERATION_CAP) in str(exc.value)
    with pytest.raises(ResourceCapError):
        enumerate_nc(6, cap=5)
    assert sum(1 for _ in enumerate_nc(6, cap=6)) == catalan(6)
    with pytest.raises(ValueError):
        list(enumerate_nc(0))


@pytest.mark.parametrize("m", range(1, 9))
def test_is_noncrossing_matches_quadruple_definition(m):
    for blocks in bruteforce.set_partitions(m):
        p = Partition(blocks)
        assert is_noncrossing(p) == (not bruteforce.has_crossing(blocks))


# ----------------------------------------------------------------- kreweras


def test_kreweras_frozen_examples():
    assert kreweras(Partition.whole(2)) == Partition.singletons(2)
    assert kreweras(Partition.from_text("1|3|2 4")) == Partition.from_text("1 4|2 3")
    sigma = Partition.from_text("1 8|2 6 7|3 4|5|9|10 12|11")
    assert kreweras(sigma).to_text() == "1 7|2 4 5|3|6|8 9 12|10 11"
    assert kreweras(Partition.singletons(2), "inverse") == Partition.whole(2)
    assert kreweras(Partition.from_text("1|2 3"), "inverse") == Partition.from_text(
        "1 2|3"
    )


def test_kreweras_rejects_bad_arguments():
    with pytest.raises(ValueError, match="direction must be"):
        kreweras(Partition.whole(3), "backward")
    with pytest.raises(ValueError, match="direction must be"):
        kreweras(Partition.from_text("1 3|2 4"), "backward")  # direction first
    crossing = [
        Partition(blocks)
        for m in range(4, 7)
        for blocks in bruteforce.set_partitions(m)
        if bruteforce.has_crossing(blocks)
    ]
    assert len(crossing) == (15 - 14) + (52 - 42) + (203 - 132)  # Bell minus Catalan
    for p in crossing:
        message = f"kreweras requires a non-crossing partition, got {p.to_text()!r}"
        for direction in ("forward", "inverse"):
            with pytest.raises(ValueError) as exc:
                kreweras(p, direction)
            assert str(exc.value) == message


@pytest.mark.parametrize("n", range(1, 9))
def test_kreweras_matches_permutation_oracle_and_roundtrips(n):
    for p in enumerate_nc(n):
        k = kreweras(p)
        assert k == bruteforce.kreweras_by_permutation(p)
        assert len(k) == n + 1 - len(p)
        assert kreweras(k, "inverse") == p
        assert kreweras(kreweras(p, "inverse")) == p


@pytest.mark.parametrize("n", range(1, 6))
def test_kreweras_is_the_lattice_maximum(n):
    for p in enumerate_nc(n):
        assert kreweras(p) == bruteforce.kreweras_by_maximality(p)


@pytest.mark.parametrize("n", range(1, 6))
def test_kreweras_swaps_even_and_parity_preserving(n):
    for p in enumerate_nc(2 * n):
        flags = classify(p)
        kflags = classify(kreweras(p))
        assert flags.even == kflags.parity_preserving
        assert flags.parity_preserving == kflags.even


# ------------------------------------------------- restrict and interleave


def test_restrict_example():
    sigma = Partition.from_text("1 8|2 6 7|3 4|5|9|10 12|11")
    assert restrict(sigma, range(2, 13, 2)).to_text() == "1 3|2|4|5 6"


def test_restrict_validates():
    p = Partition.whole(4)
    with pytest.raises(ValueError):
        restrict(p, [])
    with pytest.raises(ValueError):
        restrict(p, [3, 5])


@pytest.mark.parametrize("m", range(2, 7))
def test_restrict_preserves_noncrossing(m):
    subset = [x for x in range(1, m + 1) if x % 2 == 0]
    for p in enumerate_nc(m):
        assert is_noncrossing(restrict(p, subset))


def test_interleave_recovers_inputs():
    a = Partition.from_text("1 3|2")
    b = Partition.from_text("1|2 3")
    c = interleave(a, b)
    assert c.to_text() == "1 5|2|3|4 6"
    assert classify(c).parity_preserving
    odds = range(1, 6, 2)
    evens = range(2, 7, 2)
    assert restrict(c, odds) == a
    assert restrict(c, evens) == b
    with pytest.raises(ValueError):
        interleave(a, Partition.whole(2))


@pytest.mark.parametrize("n", range(1, 4))
def test_interleave_is_the_unique_pure_parity_combination(n):
    for pa in enumerate_nc(n):
        for pb in enumerate_nc(n):
            c = interleave(pa, pb)
            matches = [
                blocks
                for blocks in bruteforce.set_partitions(2 * n)
                if Partition(blocks) != c
                and all(len({x % 2 for x in blk}) == 1 for blk in blocks)
                and restrict(Partition(blocks), range(1, 2 * n, 2)) == pa
                and restrict(Partition(blocks), range(2, 2 * n + 1, 2)) == pb
            ]
            assert matches == []


# ------------------------------------------------------------ join, classify


def test_join_examples():
    a = Partition.from_text("1 3|2|4")
    b = Partition.from_text("1|2 4|3")
    assert join(a, b) == Partition.from_text("1 3|2 4")
    assert join(a, Partition.singletons(4)) == a
    assert join(a, Partition.whole(4)) == Partition.whole(4)
    with pytest.raises(ValueError):
        join(a, Partition.whole(3))


@pytest.mark.parametrize("m", [3, 4])
def test_join_is_the_finest_common_coarsening(m):
    everything = [Partition(b) for b in bruteforce.set_partitions(m)]
    for p in everything:
        for q in everything:
            j = join(p, q)
            assert bruteforce.refines(p.blocks, j.blocks)
            assert bruteforce.refines(q.blocks, j.blocks)
            for c in everything:
                if bruteforce.refines(p.blocks, c.blocks) and bruteforce.refines(
                    q.blocks, c.blocks
                ):
                    assert bruteforce.refines(j.blocks, c.blocks)


@pytest.mark.parametrize("m", range(1, 7))
def test_refines_matches_the_definition_on_nc(m):
    # q is coarser than p exactly when joining p into q changes nothing.
    nc = list(enumerate_nc(m))
    for p in nc:
        for q in nc:
            got = refines(p, q)
            assert got == bruteforce.refines(p.blocks, q.blocks) == (join(p, q) == q)


def test_refines_needs_equal_ground_sets():
    with pytest.raises(ValueError, match="refines needs equal ground sets, got 3 and 4"):
        refines(Partition.singletons(3), Partition.whole(4))


def _bfs_components(size, pairs):
    """Component id of each element, by breadth-first search."""
    adjacent = [[] for _ in range(size)]
    for a, b in pairs:
        adjacent[a].append(b)
        adjacent[b].append(a)
    component = [None] * size
    for start in range(size):
        if component[start] is None:
            component[start] = start
            queue = deque([start])
            while queue:
                for y in adjacent[queue.popleft()]:
                    if component[y] is None:
                        component[y] = start
                        queue.append(y)
    return component


def test_union_find_roots_names_the_components():
    """Every root is a fixed point, and two elements share a root exactly
    when a BFS puts them in one component; pair lists hold self-pairs and
    repeats, and sizes include 0 and 1."""
    rng = random.Random(1729)
    cases = [(0, []), (1, []), (1, [(0, 0)]), (2, [(1, 0), (0, 1), (1, 0)])]
    for size in [2, 3, 5, 8, 13, 21] * 8:
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randrange(2 * size))]
        pairs += [(a, a) for a, _ in pairs[:2]] + pairs[-2:]
        cases.append((size, pairs))
    for size, pairs in cases:
        roots = union_find_roots(size, pairs)
        assert len(roots) == size
        assert all(roots[r] == r for r in roots)
        component = _bfs_components(size, pairs)
        for x, y in itertools.combinations(range(size), 2):
            assert (roots[x] == roots[y]) == (component[x] == component[y]), (size, pairs)


def test_classify_examples():
    assert classify(interval_pairing(3)) == (True, False)
    assert classify(Partition.from_text("1 3|2|4")).parity_preserving
    assert not classify(Partition.from_text("1 3|2|4")).even
    assert classify(Partition.whole(4)) == (True, False)


def test_interval_pairing():
    assert interval_pairing(3).to_text() == "1 2|3 4|5 6"
    with pytest.raises(ValueError):
        interval_pairing(0)


# ------------------------------------------- the odd-separating family


def test_y_membership_examples():
    d = y_membership(Partition.whole(2))
    assert d is not None
    assert d.level == 0
    assert d.odd_blocks == {1: (1, 2)}
    assert d.even_blocks == ()
    assert y_membership(Partition.singletons(2)) is None
    d = y_membership(Partition.from_text("1|2 4|3"))
    assert d is not None
    assert d.level == 1
    assert d.even_blocks == ((2, 4),)
    assert y_membership(Partition.from_text("1 3|2|4")) is None  # two odds
    with pytest.raises(ValueError):
        y_membership(Partition.from_text("1 3|2 4"))


@pytest.mark.parametrize("m", range(1, 12))
def test_y_sizes_and_level_histograms_are_frozen(m):
    members = list(enumerate_y(m))
    assert len(members) == Y_SIZES[m]
    hist = {}
    for sigma in members:
        d = y_membership(sigma)
        hist[d.level] = hist.get(d.level, 0) + 1
    by_level = [hist.get(r, 0) for r in range(max(hist) + 1)]
    assert by_level == Y_LEVELS[m]
    assert level_counts(m) == Y_LEVELS[m]
    assert y_level_counts(m) == Y_LEVELS[m]


@pytest.mark.parametrize("m", range(1, 15))
def test_graded_recursion_matches_the_level_scan(m):
    assert y_level_counts(m) == level_counts(m)


@pytest.mark.parametrize("m", range(1, 13))
def test_the_pruned_y_stream_is_the_filtered_nc_stream(m):
    filtered = [p for p in enumerate_nc(m) if y_membership(p) is not None]
    assert [p.blocks for p in enumerate_y(m)] == [p.blocks for p in filtered]
    hist = [0] * (m // 4 + 1)
    for p in filtered:
        hist[y_membership(p).level] += 1
    while not hist[-1]:
        hist.pop()
    assert level_counts(m) == hist


def test_level_counts_cap():
    with pytest.raises(ResourceCapError):
        level_counts(17)
    with pytest.raises(ResourceCapError):
        level_counts(9, cap=8)


@pytest.mark.parametrize("m", range(1, 10))
def test_y_block_count_bound(m):
    half = (m + 1) // 2
    for sigma in enumerate_y(m):
        assert half <= len(sigma) <= half + half // 2


def test_x_membership_examples():
    assert x_membership(Partition.from_text("1 4|2 3"))
    assert not x_membership(Partition.whole(4))  # block graph is a loop pair
    assert x_membership(Partition.singletons(2))
    assert not x_membership(Partition.whole(2))  # block graph is a single loop
    with pytest.raises(ValueError):
        x_membership(Partition.whole(3))
    with pytest.raises(ValueError, match="^x_membership requires a non-crossing"):
        x_membership(Partition.from_text("1 3|2 4"))


@pytest.mark.parametrize("n", range(1, 6))
def test_x_family_is_kreweras_image_of_y(n):
    image = {kreweras(sigma) for sigma in enumerate_y(2 * n)}
    members = {p for p in enumerate_nc(2 * n) if x_membership(p)}
    assert image == members
    assert len(image) == Y_SIZES[2 * n] if 2 * n <= 11 else True


# ------------------------------------------------------------------ q_count


def test_q_count_exact_values():
    assert q_count(Partition.singletons(2)) == 2
    for n in range(1, 6):
        assert q_count(Partition.singletons(n)) == catalan(n)
    # the even restriction partitions the family: totals must match
    for n in range(1, 6):
        assert sum(q_count(p) for p in enumerate_nc(n)) == Y_SIZES[2 * n]


def test_q_count_lower_bound():
    # The attachment construction gives two choices per chosen block subset,
    # except for the empty subset, which gives exactly one partition.  So
    # with e blocks of even size the bound is 2^(e+1) when some block has
    # odd size (the subset is then forced nonempty) and 2^(e+1) - 1 when
    # all blocks are even; the whole-set partition of [2] attains it.
    for n in range(2, 6):
        for p in enumerate_nc(n):
            e = sum(1 for b in p.blocks if len(b) % 2 == 0)
            if any(len(b) % 2 for b in p.blocks):
                assert q_count(p) >= 2 ** (e + 1)
            else:
                assert q_count(p) >= 2 ** (e + 1) - 1
    assert q_count(Partition.whole(2)) == 3  # equality case


def test_q_count_respects_cap():
    with pytest.raises(ResourceCapError):
        q_count(Partition.singletons(9))  # would need NC(18)
