"""Tests for block multigraphs, cactus validation, and oriented outercycles.

The running worked example is the partition "1 7|2 4 5|3|6|8 9 12|10 11"
of [12]: its graph has six vertices, four flexible edges forming a tree
part and one parallel pair forming the single simple cycle.  All its
numbers below were derived by hand from the walk."""

import copy
import pickle
from fractions import Fraction

import pytest

import bruteforce
from freecactus import _core_py
from freecactus import cactus as cactus_mod
from freecactus import (
    Partition,
    ResourceCapError,
    catalan,
    cumulants_from_moments,
    enumerate_connected,
    enumerate_nc,
    enumerate_y,
    interval_pairing,
    join,
    kreweras,
    x_membership,
)
from freecactus.cactus import (
    BlockMultigraph,
    OrientedCactus,
    bipartition,
    build_graph,
    canonical_outercycle,
    enumerate_oriented_cacti,
    g_exponent,
    is_connected,
    validate_cactus,
)
from freecactus.cumulants import (
    ANTICOMMUTATOR_WEIGHTS,
    PRODUCT_WEIGHTS,
    CumulantSpec,
    WeightMatrix,
    parse_spec,
)
from freecactus.series import FunctionalEquationReport, TruncatedSeries

WORKED = Partition.from_text("1 7|2 4 5|3|6|8 9 12|10 11")


def connected_partitions(n):
    return [p for p in enumerate_nc(2 * n) if is_connected(build_graph(p))]


def class_table(n, bipartite_only=False):
    """The class stream as a table, signature -> cactus, in stream order;
    a signature met twice fails, so every caller checks that the
    generator yields each class once."""
    table = {}
    for c in enumerate_oriented_cacti(n, bipartite_only=bipartite_only):
        assert c.signature not in table, f"class {c.signature} generated twice"
        table[c.signature] = c
    return table


def grouped_members(n, bipartite_only=False):
    """The connected partitions of [2n] grouped by outercycle signature,
    classes and members in stream order: the walked reference for the
    classes that ``enumerate_oriented_cacti`` generates without members."""
    groups = {}
    for p in enumerate_connected(n):
        c = canonical_outercycle(p)
        if not bipartite_only or c.bipartition is not None:
            groups.setdefault(c.signature, []).append(p)
    return groups


# -------------------------------------------------------------- build_graph


def test_build_graph_worked_example():
    g = build_graph(WORKED)
    assert g.vertex_count == 6
    assert g.edges == ((0, 1), (2, 1), (1, 3), (0, 4), (4, 5), (5, 4))
    assert g.vertex_degrees == (2, 3, 1, 1, 3, 2)


def test_build_graph_small_cases():
    g = build_graph(Partition.whole(2))
    assert g.vertex_count == 1
    assert g.edges == ((0, 0),)
    assert g.vertex_degrees == (2,)
    g = build_graph(Partition.singletons(4))
    assert g.edges == ((0, 1), (2, 3))
    assert not is_connected(g)
    with pytest.raises(ValueError):
        build_graph(Partition.whole(3))


@pytest.mark.parametrize("n", range(2, 5))
def test_singletons_graph_has_n_components(n):
    g = build_graph(Partition.singletons(2 * n))
    assert bruteforce.component_count(g.vertex_count, g.edges) == n


@pytest.mark.parametrize("n", range(1, 6))
def test_degrees_equal_block_sizes_and_edge_count(n):
    for p in enumerate_nc(2 * n):
        g = build_graph(p)
        assert len(g.edges) == n
        assert g.vertex_degrees == p.block_sizes()
        by_endpoints = [0] * g.vertex_count
        for u, v in g.edges:
            by_endpoints[u] += 1
            by_endpoints[v] += 1
        assert tuple(by_endpoints) == g.vertex_degrees


@pytest.mark.parametrize("n", range(1, 5))
def test_is_connected_agrees_with_the_brute_force_component_count(n):
    for p in enumerate_nc(2 * n):
        g = build_graph(p)
        components = bruteforce.component_count(g.vertex_count, g.edges)
        assert is_connected(g) == (components == 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_connectivity_equals_join_with_interval_pairing(n):
    top = Partition.whole(2 * n)
    for p in enumerate_nc(2 * n):
        expected = join(p, interval_pairing(n)) == top
        assert is_connected(build_graph(p)) == expected


# ------------------------------------------------------ enumerate_connected


@pytest.mark.parametrize("n", range(1, 7))
def test_connected_stream_is_the_filtered_nc_stream(n):
    assert list(enumerate_connected(n)) == connected_partitions(n)


def test_connected_stream_length_is_the_free_poisson_square_cumulant():
    # A free Poisson variable a of rate 1 has moments C_k and every cumulant
    # 1, so kappa_n(a^2), a sum over the connected partitions of [2n] by
    # products as arguments, counts them without enumerating any.
    kappas = cumulants_from_moments([catalan(2 * k) for k in range(1, 7)])
    counts = [sum(1 for _ in enumerate_connected(n)) for n in range(1, 7)]
    assert counts == kappas == [2, 10, 64, 462, 3584, 29172]


def test_connected_stream_cap():
    with pytest.raises(ResourceCapError, match=r"enumerating NC\(18\) exceeds the cap 16"):
        enumerate_connected(9)
    with pytest.raises(ResourceCapError):
        enumerate_connected(3, cap=5)
    assert sum(1 for _ in enumerate_connected(3, cap=6)) == 64
    with pytest.raises(ValueError):
        enumerate_connected(0)


# -------------------------------------------------------------- bipartition


def test_bipartition_examples():
    assert bipartition(build_graph(WORKED)) == ((0, 2, 3, 5), (1, 4))
    assert bipartition(build_graph(Partition.whole(2))) is None  # loop
    double = build_graph(Partition.from_text("1 4|2 3"))
    assert bipartition(double) == ((0,), (1,))
    with pytest.raises(ValueError):
        bipartition(build_graph(Partition.singletons(4)))


def test_bipartition_of_small_graphs():
    # An odd cycle with a pendant edge clashes; a 4-cycle splits in two.
    triangle = BlockMultigraph(4, ((0, 1), (1, 2), (2, 0), (2, 3)), (2, 2, 3, 1))
    assert bipartition(triangle) is None
    square = BlockMultigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)), (2, 2, 2, 2))
    assert bipartition(square) == ((0, 2), (1, 3))


@pytest.mark.parametrize("n", range(1, 6))
def test_bipartite_iff_inverse_complement_is_odd_separating(n):
    for p in enumerate_nc(2 * n):
        g = build_graph(p)
        if not is_connected(g):
            continue
        assert (bipartition(g) is not None) == x_membership(p)


# ---------------------------------------------------------- validate_cactus


def test_validate_cactus_worked_example():
    report = validate_cactus(build_graph(WORKED))
    assert report.is_cactus
    assert report.edge_rigidity == (False, False, False, False, True, True)
    assert report.simple_cycle_count == 1


def test_validate_cactus_small_cases():
    loop = validate_cactus(build_graph(Partition.whole(2)))
    assert loop == (True, (True,), 1)
    tree = validate_cactus(build_graph(Partition.from_text("1|2 3|4")))
    assert tree.is_cactus
    assert tree.edge_rigidity == (False, False)
    assert tree.simple_cycle_count == 0
    with pytest.raises(ValueError):
        validate_cactus(build_graph(Partition.singletons(4)))


def test_validate_cactus_on_a_non_cactus_graph():
    # theta graph: two vertices, three parallel edges; every edge lies on
    # two of the three simple cycles
    g = BlockMultigraph(2, ((0, 1), (0, 1), (0, 1)), (3, 3))
    report = validate_cactus(g)
    assert not report.is_cactus
    assert report.edge_rigidity == (True, True, True)
    assert report.simple_cycle_count == 3


# name -> (vertex count, edges, is_cactus, edge_rigidity, simple_cycle_count)
GRAPHS = {
    "K4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), False, (True,) * 6, 7),
    "bowtie": (5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)), True, (True,) * 6, 2),
    "triangle, pendant and loop": (
        4,
        ((0, 1), (1, 2), (2, 0), (2, 3), (3, 3)),
        True,
        (True, True, True, False, True),
        2,
    ),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_validate_cactus_on_a_table_of_graphs(name):
    count, edges, is_cactus, rigidity, cycles = GRAPHS[name]
    degrees = tuple(sum((u == v) + (v == w) for u, w in edges) for v in range(count))
    report = validate_cactus(BlockMultigraph(count, edges, degrees))
    assert report == (is_cactus, rigidity, cycles)
    assert cycles == bruteforce.simple_cycle_count(count, edges)


@pytest.mark.parametrize("n", range(1, 6))
def test_connected_partition_graphs_are_cacti(n):
    for p in connected_partitions(n):
        assert validate_cactus(build_graph(p)).is_cactus


@pytest.mark.parametrize("n", range(1, 6))
def test_euler_relation_cycle_count_vs_inverse_complement(n):
    for p in connected_partitions(n):
        g = build_graph(p)
        report = validate_cactus(g)
        assert report.simple_cycle_count == len(kreweras(p, "inverse")) - n
        assert report.simple_cycle_count == bruteforce.simple_cycle_count(
            g.vertex_count, g.edges
        )


@pytest.mark.parametrize("n", range(1, 5))
def test_rigid_edges_are_exactly_the_cycle_edges(n):
    for p in connected_partitions(n):
        g = build_graph(p)
        on_cycle = set()
        for cycle in bruteforce.simple_cycles(g.edges):
            on_cycle.update(cycle)
        report = validate_cactus(g)
        assert {i for i, r in enumerate(report.edge_rigidity) if r} == on_cycle


@pytest.mark.parametrize("n", range(1, 5))
def test_directed_simple_cycles_are_consistently_oriented(n):
    for p in connected_partitions(n):
        g = build_graph(p)
        for cycle in bruteforce.simple_cycles(g.edges):
            indeg: dict[int, int] = {}
            outdeg: dict[int, int] = {}
            for i in cycle:
                u, v = g.edges[i]
                outdeg[u] = outdeg.get(u, 0) + 1
                indeg[v] = indeg.get(v, 0) + 1
            touched = set(indeg) | set(outdeg)
            assert all(
                indeg.get(v, 0) == 1 and outdeg.get(v, 0) == 1 for v in touched
            )


# ------------------------------------------------------ canonical_outercycle


def test_outercycle_worked_example():
    c = canonical_outercycle(WORKED)
    assert c.signature == (
        (0, 0),
        (1, 1),
        (2, 1),
        (1, 2),
        (3, 2),
        (1, 0),
        (0, 3),
        (4, 4),
        (5, 5),
        (4, 3),
    )
    assert c.edge_rigidity == (False, False, False, False, True, True)
    assert c.f_c == 3
    assert not c.first_edge_rigid
    assert g_exponent(c) == 7
    assert c.bipartition == ((0, 2, 3, 5), (1, 4))
    assert c.degrees == (2, 3, 1, 1, 3, 2)


def test_outercycle_small_cases():
    loop = canonical_outercycle(Partition.whole(2))
    assert loop.signature == ((0, 0),)
    assert loop.first_edge_rigid
    assert loop.f_c == 0
    assert g_exponent(loop) == 0
    assert loop.bipartition is None
    edge = canonical_outercycle(Partition.singletons(2))
    assert edge.signature == ((0, 0), (1, 0))
    assert not edge.first_edge_rigid
    assert edge.f_c == 0
    assert g_exponent(edge) == 1
    assert edge.bipartition == ((0,), (1,))
    with pytest.raises(ValueError):
        canonical_outercycle(Partition.singletons(4))
    with pytest.raises(ValueError):
        canonical_outercycle(Partition.whole(3))


def test_outercycle_json_schema():
    obj = canonical_outercycle(WORKED).to_json_obj()
    assert set(obj) == {"signature", "rigid", "fC", "bipartition", "degrees"}
    assert obj["fC"] == 3
    assert obj["signature"][0] == [0, 0]
    assert obj["rigid"] == [False, False, False, False, True, True]
    assert obj["bipartition"] == [[0, 2, 3, 5], [1, 4]]
    assert canonical_outercycle(Partition.whole(2)).to_json_obj()["bipartition"] is None


# A signature alone is an OrientedCactus: every other attribute is read
# off it.  These four are the frozen two-edge classes and the one-edge loop.
STAR = ((0, 0), (1, 0), (0, 1), (2, 1))
PATH = ((0, 0), (1, 1), (2, 1), (1, 0))
DOUBLE = ((0, 0), (1, 1))
LOOP = ((0, 0),)


def test_oriented_cactus_is_its_signature():
    assert OrientedCactus.__slots__ == ("signature",)
    star = canonical_outercycle(Partition.from_text("1 3|2|4"))
    assert star == OrientedCactus(STAR)
    assert hash(star) == hash(OrientedCactus(STAR))
    assert star != OrientedCactus(PATH)
    assert canonical_outercycle(Partition.from_text("1 4|2 3")) == OrientedCactus(DOUBLE)


# Each value class: two routes to one value, a different value, the repr
# and a field.  Values are compared, hashed and printed by their fields,
# and no field can be set or deleted once built.
VALUES = {
    "BlockMultigraph": (
        lambda: build_graph(Partition.from_text("1 3|2|4")),
        lambda: BlockMultigraph(3, ((0, 1), (0, 2)), (2, 1, 1)),
        lambda: build_graph(Partition.from_text("1 4|2 3")),
        "BlockMultigraph(vertex_count=3, edges=((0, 1), (0, 2)), vertex_degrees=(2, 1, 1))",
        "edges",
    ),
    "OrientedCactus": (
        lambda: canonical_outercycle(Partition.from_text("1 3|2|4")),
        lambda: OrientedCactus(STAR),
        lambda: OrientedCactus(PATH),
        "OrientedCactus(signature=((0, 0), (1, 0), (0, 1), (2, 1)))",
        "signature",
    ),
    "ClassStream": (
        lambda: enumerate_oriented_cacti(3),
        lambda: cactus_mod.ClassStream(3, False),
        lambda: enumerate_oriented_cacti(3, bipartite_only=True),
        "ClassStream(n=3, bipartite_only=False)",
        "n",
    ),
    "CumulantSpec": (
        lambda: parse_spec("cumulants:[1,1/2]"),
        lambda: CumulantSpec.explicit([1, Fraction(1, 2)]),
        lambda: parse_spec("cumulants:[1,1/3]"),
        "CumulantSpec(kind='explicit', rate=None, values=(Fraction(1, 1), Fraction(1, 2)), "
        "name='cumulants:[1,1/2]')",
        "values",
    ),
    "WeightMatrix": (
        lambda: WeightMatrix.from_json_obj([["0", "1"], ["1", "0"]]),
        lambda: ANTICOMMUTATOR_WEIGHTS,
        lambda: PRODUCT_WEIGHTS,
        "WeightMatrix(entries=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1))))",
        "entries",
    ),
    "TruncatedSeries": (
        lambda: TruncatedSeries(2, [0, 1, "1/2"]),
        lambda: TruncatedSeries.from_coefficients([0, 2, 1]) * Fraction(1, 2),
        lambda: TruncatedSeries(2, [0, 1, "1/3"]),
        "TruncatedSeries(order=2, numerators=(0, 2, 1), denominator=2)",
        "numerators",
    ),
    "FunctionalEquationReport": (
        lambda: FunctionalEquationReport((("q", TruncatedSeries(1, [0, 1])),)),
        lambda: FunctionalEquationReport((("q", TruncatedSeries.identity(1)),)),
        lambda: FunctionalEquationReport((("q", TruncatedSeries(1, [0, 0])),)),
        "FunctionalEquationReport(residuals="
        "(('q', TruncatedSeries(order=1, numerators=(0, 1), denominator=1)),))",
        "residuals",
    ),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_value_classes_compare_hash_and_print_by_their_fields(name):
    build, same, other, text, field = VALUES[name]
    value = build()
    assert type(value).__name__ == name
    assert value == same() and hash(value) == hash(same())
    assert value != other()
    assert repr(value) == text
    copies = [copy.copy(value), copy.deepcopy(value)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies.append(pickle.loads(pickle.dumps(value, protocol)))
    for twin in copies:
        assert type(twin) is type(value) and twin == value
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other(), field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == same()


@pytest.mark.parametrize(
    "signature, rigidity, f_c, degrees, parts, edges",
    [
        (STAR, (False, False), 1, (2, 1, 1), ((0,), (1, 2)), ((0, 1), (0, 2))),
        (PATH, (False, False), 1, (1, 2, 1), ((0, 2), (1,)), ((0, 1), (1, 2))),
        (DOUBLE, (True, True), 0, (2, 2), ((0,), (1,)), ((0, 1), (1, 0))),
        (LOOP, (True,), 0, (2,), None, ((0, 0),)),
    ],
)
def test_attributes_are_read_off_the_signature(signature, rigidity, f_c, degrees, parts, edges):
    c = OrientedCactus(signature)
    assert c.edge_rigidity == rigidity
    assert c.f_c == f_c
    assert c.first_edge_rigid == rigidity[0]
    assert c.degrees == degrees
    assert c.vertex_count == len(degrees)
    assert c.bipartition == parts
    assert c.renumbered_edges() == edges


@pytest.mark.parametrize("n", range(1, 6))
def test_outercycle_structure_invariants(n):
    for p in connected_partitions(n):
        c = canonical_outercycle(p)
        report = validate_cactus(build_graph(p))
        rigid = sum(c.edge_rigidity)
        assert len(c.signature) == rigid + 2 * (n - rigid)
        assert sorted(c.edge_rigidity) == sorted(report.edge_rigidity)
        assert c.edge_rigidity[0] == report.edge_rigidity[0] == c.first_edge_rigid
        flexible = n - rigid
        assert c.f_c == (flexible if c.first_edge_rigid else flexible - 1)
        assert sorted(c.degrees) == sorted(p.block_sizes())
        if c.bipartition is not None:
            side = {}
            for which, part in enumerate(c.bipartition):
                for v in part:
                    side[v] = which
            assert side[0] == 0
            for u, v in c.renumbered_edges():
                assert side[u] != side[v]


@pytest.mark.parametrize("n", range(1, 4))
def test_signature_rebuilds_the_graph_shape(n):
    # the walk determines the multigraph: rebuilding the edge list from
    # the signature must reproduce the source graph up to the first-visit
    # relabeling, which degree-annotated edge multisets detect
    def shape(edges, degrees):
        return sorted(
            tuple(sorted((degrees[u], degrees[v]))) for u, v in edges
        )

    for p in connected_partitions(n):
        c = canonical_outercycle(p)
        g = build_graph(p)
        rebuilt = c.renumbered_edges()
        assert len(rebuilt) == len(g.edges)
        assert shape(rebuilt, c.degrees) == shape(g.edges, g.vertex_degrees)
        loops = sum(1 for u, v in g.edges if u == v)
        assert sum(1 for u, v in rebuilt if u == v) == loops


def first_visit_order(p):
    """Block indices of p in the order the outercycle first reaches them."""
    succ = {}
    for block in p.blocks:
        for a, b in zip(block, block[1:] + block[:1]):
            succ[a] = b
    index = {x: i for i, block in enumerate(p.blocks) for x in block}
    order = []
    x = 1
    while True:
        if index[x] not in order:
            order.append(index[x])
        x = succ[x + 1 if x % 2 else x - 1]
        if x == 1:
            return order


@pytest.mark.parametrize("n", range(1, 7))
def test_outercycle_walk_agrees_with_the_graph_code(n):
    for p in enumerate_nc(2 * n):
        g = build_graph(p)
        if not is_connected(g):
            with pytest.raises(ValueError, match="connected block graph"):
                canonical_outercycle(p)
            continue
        c = canonical_outercycle(p)
        order = first_visit_order(p)
        new_of_old = {v: i for i, v in enumerate(order)}
        assert c.degrees == tuple(g.vertex_degrees[v] for v in order)
        parts = bipartition(g)
        if parts is None:
            assert c.bipartition is None
        else:
            assert c.bipartition == tuple(
                tuple(sorted(new_of_old[v] for v in side)) for side in parts
            )


@pytest.mark.parametrize("n", range(1, 6))
def test_walk_on_complements_of_y_is_bipartite_with_the_graph_sides(n):
    """The Y route reads the walk of K(sigma): it must two-color the
    blocks into sides of the same degrees as the graph-side bipartition."""
    for sigma in enumerate_y(2 * n):
        pi = kreweras(sigma)
        c = canonical_outercycle(pi)
        assert c.bipartition is not None
        parts = bipartition(build_graph(pi))
        for walk_side, graph_side in zip(c.bipartition, parts):
            assert sorted(c.degrees[v] for v in walk_side) == sorted(
                len(pi.blocks[v]) for v in graph_side
            )


# --------------------------------------------------- enumerate_oriented_cacti


def test_two_edge_classes_are_frozen():
    classes = class_table(2)
    groups = grouped_members(2)
    assert classes.keys() == groups.keys()
    by_members = {
        tuple(sorted(m.to_text() for m in members)): classes[signature]
        for signature, members in groups.items()
    }
    assert len(classes) == 7
    assert set(by_members) == {
        ("1 2 3 4",),
        ("1 2 3|4", "1 2 4|3"),
        ("1 3 4|2",),
        ("1|2 3 4",),
        ("1 4|2 3",),
        ("1 3|2|4", "1 4|2|3"),
        ("1|2 3|4", "1|2 4|3"),
    }
    star = by_members[("1 3|2|4", "1 4|2|3")]
    assert star.signature == ((0, 0), (1, 0), (0, 1), (2, 1))
    path = by_members[("1|2 3|4", "1|2 4|3")]
    assert path.signature == ((0, 0), (1, 1), (2, 1), (1, 0))
    double = by_members[("1 4|2 3",)]
    assert double.signature == ((0, 0), (1, 1))
    assert double.first_edge_rigid and double.f_c == 0


def test_two_edge_bipartite_classes():
    classes = class_table(2, bipartite_only=True)
    groups = grouped_members(2, bipartite_only=True)
    assert classes.keys() == groups.keys()
    sizes = sorted(len(members) for members in groups.values())
    assert sizes == [1, 2, 2]
    assert all(rep.bipartition is not None for rep in classes.values())
    members = {m.to_text() for ms in groups.values() for m in ms}
    assert members == {"1 4|2 3", "1 3|2|4", "1 4|2|3", "1|2 3|4", "1|2 4|3"}


@pytest.mark.parametrize("n", range(1, 6))
def test_class_sizes_are_powers_of_two_from_f(n):
    classes = class_table(n)
    groups = grouped_members(n)
    assert classes.keys() == groups.keys()
    total = 0
    for signature, rep in classes.items():
        assert len(groups[signature]) == 2**rep.f_c
        total += len(groups[signature])
    assert total == len(connected_partitions(n))


@pytest.mark.parametrize("bipartite_only", [False, True])
@pytest.mark.parametrize("n", range(1, 8))
def test_class_exponents_read_off_the_walk_match_the_rigidity(n, bipartite_only):
    """f_c and g_exponent come from the walk length; both must equal their
    definitions on ``edge_rigidity``, flexible edges less a flexible first edge."""
    for rep in enumerate_oriented_cacti(n, bipartite_only=bipartite_only):
        rigidity = rep.edge_rigidity
        flexible = rigidity.count(False)
        assert rep.first_edge_rigid == rigidity[0]
        assert rep.f_c == flexible - (not rigidity[0])
        assert g_exponent(rep) == 2 * flexible - (not rigidity[0])


@pytest.mark.parametrize("bipartite_only", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_class_table_holds_the_cactus_of_each_first_member(n, bipartite_only):
    # The generated table has the walked classes' keys and cacti; its order
    # is the generator's, not the partition stream's, so compare mappings.
    first_member_cacti = [
        (signature, canonical_outercycle(members[0]))
        for signature, members in grouped_members(n, bipartite_only).items()
    ]
    classes = class_table(n, bipartite_only=bipartite_only)
    assert classes == dict(first_member_cacti)


@pytest.mark.parametrize("n", range(1, 9))
def test_bipartite_table_is_the_filtered_full_table(n):
    full = class_table(n)
    bipartite = class_table(n, bipartite_only=True)
    assert bipartite == {s: c for s, c in full.items() if c.bipartition is not None}


def test_two_edge_classes_come_in_generation_order():
    # Depth first along the walk: at each vertex a bridge, then cycles by
    # increasing length, then the end of the vertex's block sequence.
    assert list(class_table(2)) == [
        PATH,
        ((0, 0), (1, 1), (1, 0)),  # a bridge to a looped vertex
        STAR,
        ((0, 0), (1, 0), (0, 1)),  # a bridge, then a loop at the root
        ((0, 0), (0, 1), (1, 1)),  # a loop, then a bridge
        ((0, 0), (0, 1)),  # two loops
        DOUBLE,
    ]
    assert list(class_table(2, bipartite_only=True)) == [PATH, STAR, DOUBLE]


def test_classes_are_generated_without_partitions(monkeypatch):
    def refuse(*args):
        raise AssertionError("the class table built or walked a partition")

    monkeypatch.setattr(_core_py, "iter_nc_blocks", refuse)
    monkeypatch.setattr(_core_py, "iter_connected_blocks", refuse)
    monkeypatch.setattr(cactus_mod, "canonical_outercycle", refuse)
    assert [len(class_table(n)) for n in range(1, 6)] == [2, 7, 30, 143, 728]
    counts = [len(class_table(n, bipartite_only=True)) for n in range(1, 6)]
    assert counts == [1, 3, 9, 32, 119]


@pytest.mark.parametrize("n", range(1, 6))
def test_every_member_is_its_class_entry(n):
    """The cactus of any member, not only the first, equals the table's
    entry: the class is its signature, so nothing depends on the member."""
    classes = class_table(n)
    for p in enumerate_connected(n):
        c = canonical_outercycle(p)
        assert c == classes[c.signature]
        assert c.to_json_obj() == classes[c.signature].to_json_obj()


@pytest.mark.parametrize("n", range(1, 5))
def test_tree_classes_are_counted_by_catalan(n):
    classes = class_table(n)
    trees = [rep for rep in classes.values() if not any(rep.edge_rigidity)]
    assert len(trees) == catalan(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_all_degrees_even_iff_all_edges_rigid(n):
    for rep in class_table(n).values():
        all_even = all(d % 2 == 0 for d in rep.degrees)
        all_rigid = all(rep.edge_rigidity)
        assert all_even == all_rigid


def test_the_class_stream_runs_afresh_and_counts_a_run():
    """Each iteration is its own search: an abandoned run leaves the next
    one whole, and ``len`` counts a run without keeping it."""
    stream = enumerate_oriented_cacti(3)
    first = next(iter(stream))
    assert [c.signature for c in stream] == list(class_table(3))
    assert list(stream)[0] == first
    assert len(stream) == 30
    assert len(enumerate_oriented_cacti(3, bipartite_only=True)) == 9


def test_enumerate_cacti_cap():
    with pytest.raises(ResourceCapError):
        enumerate_oriented_cacti(9)
    with pytest.raises(ResourceCapError):
        enumerate_oriented_cacti(3, cap=4)
    with pytest.raises(ValueError):
        enumerate_oriented_cacti(0)
