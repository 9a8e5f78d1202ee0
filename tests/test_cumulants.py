"""Tests for the cumulant engine: moment conversion, the anti-commutator
and quadratic-form formulas, and the word-expansion oracle.

The oracle knows nothing about the closed formulas.  It expands powers
into colored words and sums each word moment over color-compatible
non-crossing partitions, so agreement between the routes is a real check
and not a tautology.  Frozen constants were computed once through that
oracle (or by hand at order two) and pinned."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from freecactus import (
    CumulantSpec,
    ResourceCapError,
    WeightMatrix,
    anticommutator_cumulant,
    anticommutator_cumulant_graphwise,
    catalan,
    cumulants_from_moments,
    enumerate_connected,
    even_anticommutator,
    format_rational,
    level_counts,
    moments_from_cumulants,
    oracle_anticommutator_cumulants,
    oracle_anticommutator_moments,
    oracle_quadratic_cumulants,
    parse_rational,
    parse_spec,
    product_cumulant,
    quadratic_form_cumulant,
    semicircular_anticommutator,
)
from freecactus import _core_py, cumulants
from freecactus.cactus import (
    BlockMultigraph,
    _biconnected_edge_components,
    build_graph,
    canonical_outercycle,
    enumerate_oriented_cacti,
)
from freecactus.cumulants import (
    ANTICOMMUTATOR_WEIGHTS,
    _colored_sum,
    _moment_cumulant_walk,
    convolve,
    integer_tables,
    lift,
    oracle_quadratic_moments,
    random_explicit_spec,
)
from freecactus.dp import dp_cumulants
from freecactus.verify import run_suite

SEED = 1729

# kappa_n(ab + ba) and the matching moments for two free Poisson(1)
# variables.  Cumulants n = 1..6 by direct enumeration, moments through
# the oracle; the longer recursion-generated tail belongs to the series
# tests.
FP1_ANTICOM_CUMULANTS = [2, 10, 52, 310, 1974, 13176]
FP1_ANTICOM_MOMENTS = [2, 14, 120, 1182, 12586]

# kappa_m(st + ts) for two free standard semicirculars, m = 1..6.
SEMI_PAIR_CUMULANTS = [0, 2, 0, 2, 0, 2]


def fp1():
    return CumulantSpec.free_poisson(1)


def seeded_pairs(count, length=5, seed=SEED):
    rng = random.Random(seed)
    return [
        (random_explicit_spec(rng, length), random_explicit_spec(rng, length))
        for _ in range(count)
    ]


def random_even_spec(rng, half_length):
    """An explicit spec whose odd cumulants all vanish."""
    values = []
    for _ in range(half_length):
        values.append(Fraction(0))
        values.append(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))
    return CumulantSpec.explicit(values)


# ----------------------------------------------------------- CumulantSpec


def test_semicircular_kappa_pattern():
    s = CumulantSpec.semicircular()
    assert [s.kappa(n) for n in range(1, 7)] == [0, 1, 0, 0, 0, 0]


def test_free_poisson_kappa_is_constant_rate():
    p = CumulantSpec.free_poisson(Fraction(5, 3))
    assert all(p.kappa(n) == Fraction(5, 3) for n in range(1, 9))
    assert p.name == "poisson:5/3"


def test_explicit_pads_with_zero_by_default():
    spec = CumulantSpec.explicit([1, Fraction(1, 2)])
    assert spec.kappa(1) == 1
    assert spec.kappa(2) == Fraction(1, 2)
    assert spec.kappa(3) == 0
    assert spec.kappa(40) == 0


def test_kappa_rejects_order_zero():
    with pytest.raises(ValueError):
        CumulantSpec.semicircular().kappa(0)


def test_parse_rational_valid_and_invalid():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" -2 ") == Fraction(-2)
    with pytest.raises(ValueError, match="cannot parse"):
        parse_rational("abc")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_rational("1/0")


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 4)) == "-7/4"
    assert format_rational(Fraction(0)) == "0"


def test_parse_spec_grammar():
    s = parse_spec("semicircular")
    assert s.values == (0, 1) and s.tail == 0
    p = parse_spec("poisson:7/2")
    assert p.values == () and p.tail == Fraction(7, 2)
    e = parse_spec("cumulants:[1, -1/2, 0]")
    assert e.values == (Fraction(1), Fraction(-1, 2), Fraction(0))
    empty = parse_spec("cumulants:[]")
    assert empty.kappa(1) == 0


def _spellings(values):
    """Two texts of one explicit list, with and without spaces."""
    items = [format_rational(Fraction(v)) for v in values]
    return "cumulants:[" + ",".join(items) + "]", "cumulants:[ " + " , ".join(items) + " ]"


def test_a_spec_names_itself_in_the_grammar():
    rng = random.Random(SEED)
    texts = ["semicircular", "poisson:2/4", "poisson:0", "cumulants:[]"]
    for length in range(8):
        texts.extend(_spellings(random_explicit_spec(rng, length).values))
        texts.extend(_spellings([Fraction(rng.randint(-9, 9), rng.randint(1, 9))] * length))
    for text in texts:
        spec = parse_spec(text)
        assert parse_spec(spec.name) == spec, text
    assert parse_spec("poisson:2/4").name == "poisson:1/2"
    assert parse_spec("cumulants:[1,1]") != parse_spec("poisson:1")
    with pytest.raises(ValueError, match="both a list and a tail"):
        CumulantSpec((1,), 2).name


@pytest.mark.parametrize(
    "texts",
    [
        ("cumulants:[1, 2]", "cumulants:[1,2]", " cumulants:[ 1,2/1 ] "),
        ("semicircular", "cumulants:[0,1]", "cumulants:[0, 2/2]"),
        ("poisson:0", "cumulants:[]", "cumulants:[ ]"),
        ("cumulants:[2/4, 0]", "cumulants:[1/2,0]", "cumulants:[ 3/6 , -0 ]"),
    ],
)
def test_two_texts_of_one_sequence_are_one_spec(texts):
    specs = [parse_spec(text) for text in texts]
    assert all(spec == specs[0] and hash(spec) == hash(specs[0]) for spec in specs)
    assert len(set(specs)) == 1


def test_a_spec_hashes_alike_in_every_process():
    script = (
        "from freecactus.cumulants import parse_spec; "
        "print(hash(parse_spec('poisson:1')), hash(parse_spec('cumulants:[1,-1/2]')))"
    )
    src = str(Path(cumulants.__file__).resolve().parents[1])
    outs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1, outs


def test_parse_spec_errors():
    with pytest.raises(ValueError, match="unknown distribution spec"):
        parse_spec("gamma:2")
    with pytest.raises(ValueError, match="malformed"):
        parse_spec("cumulants:1,2")


# ----------------------------------------------------------- WeightMatrix


def test_weight_matrix_accepts_symmetric():
    w = WeightMatrix(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(0))))
    assert w.k == 2
    assert w.entries[0][1] == w.entries[1][0] == 2


def test_weight_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 1"):
        WeightMatrix(((Fraction(1), Fraction(0)), (Fraction(0),)))


def test_weight_matrix_rejects_asymmetry_naming_the_entry():
    """A WeightMatrix may be asymmetric; the cactus routes refuse it."""
    w = WeightMatrix(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))))
    assert w.entries == ((0, 1), (2, 0))
    s = CumulantSpec.semicircular()
    for route in ("partition", "graph"):
        with pytest.raises(ValueError, match=r"not symmetric at \(1,0\): 2 vs 1"):
            quadratic_form_cumulant((s, s), w, 2, route=route)


def test_weight_matrix_rejects_empty():
    with pytest.raises(ValueError, match="1x1"):
        WeightMatrix(())


def test_weight_matrix_json_roundtrip():
    obj = [["0", "1/2"], ["1/2", "-3"]]
    w = WeightMatrix.from_json_obj(obj)
    assert w.entries[0][1] == Fraction(1, 2)
    assert w.to_json_obj() == obj
    with pytest.raises(ValueError, match="array of arrays"):
        WeightMatrix.from_json_obj(["1", "2"])


# ------------------------------------------- moment-cumulant conversion


def kappas_of(spec, n_max):
    return [spec.kappa(n) for n in range(1, n_max + 1)]


def test_free_poisson_moments_are_catalan():
    assert moments_from_cumulants(kappas_of(fp1(), 40)) == [catalan(n) for n in range(1, 41)]


def test_semicircular_moments_are_aerated_catalan():
    got = moments_from_cumulants(kappas_of(CumulantSpec.semicircular(), 40))
    assert got[:6] == [0, 1, 0, 2, 0, 5]
    assert got == [0 if n % 2 else catalan(n // 2) for n in range(1, 41)]


def test_conversion_matches_partitionwise_sum():
    """The triangular recursion equals the literal sum over non-crossing
    partitions of block cumulant products."""
    rng = random.Random(SEED)
    for _ in range(3):
        spec = random_explicit_spec(rng, 6)
        got = moments_from_cumulants(spec.values)
        want = [bruteforce.nc_sum_moment(spec.kappa, n) for n in range(1, 7)]
        assert got == want


def test_conversion_edge_orders():
    assert moments_from_cumulants([]) == []
    assert cumulants_from_moments([]) == []


def test_conversion_returns_fractions_on_int_moments():
    # The walk runs on whatever it is given; the public wrapper coerces.
    kappas = cumulants_from_moments([1, 2, 5])
    assert kappas == [1, 1, 1]
    assert all(type(x) is Fraction for x in kappas)


def test_integer_tables_scale_each_order_by_its_power():
    a = CumulantSpec.explicit([Fraction(1, 2), Fraction(-2, 3), 3])
    b = CumulantSpec.explicit([Fraction(5, 4)])
    weights = WeightMatrix(((0, Fraction(1, 2)), (Fraction(3, 5), 7)))
    kappa, w, scale = integer_tables((a, b), weights, 4)
    d, e = 12, 10
    assert scale == d * d * e
    for row, spec in zip(kappa, (a, b)):
        assert row[0] == 0
        assert row[1:] == [spec.kappa(r) * d**r for r in range(1, 5)]
        assert all(type(x) is int for x in row)
    assert w == [[0, 5], [6, 70]]


@given(
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        min_size=0,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_conversion_roundtrip(moments):
    assert moments_from_cumulants(cumulants_from_moments(moments)) == moments


@pytest.mark.parametrize(
    "spec",
    (
        CumulantSpec.explicit([Fraction(3, 7), 0, Fraction(-5, 6), 2, Fraction(1, 4), -3]),
        CumulantSpec.explicit([0, Fraction(-2, 5), Fraction(6, 7), 0, Fraction(-1, 3)]),
        CumulantSpec.semicircular(),
        CumulantSpec.free_poisson(Fraction(-7, 4)),
    ),
)
def test_scaled_conversions_are_mutually_inverse(spec):
    # Both directions lift to ints over D^n and divide once; the walk on
    # Fractions is the reference.
    n_max = 14
    kappas = kappas_of(spec, n_max)
    moments = moments_from_cumulants(kappas)
    assert all(type(x) is Fraction for x in moments)
    assert moments == _moment_cumulant_walk(kappas, False)
    back = cumulants_from_moments(moments)
    assert all(type(x) is Fraction for x in back)
    assert back == kappas
    assert cumulants_from_moments([str(m) for m in moments]) == kappas
    assert moments_from_cumulants([str(k) for k in kappas]) == moments
    assert moments_from_cumulants([]) == []
    assert cumulants_from_moments([]) == []


def test_lift_is_the_one_scaling_rule():
    assert lift([]) == ([], 1)
    assert lift([Fraction(1, 2), Fraction(-2, 3), 0, 5]) == ([3, -4, 0, 30], 6)
    assert lift([1, 2]) == ([1, 2], 1)


def test_convolve_is_the_literal_double_sum():
    # Lists of unequal lengths read as zero beyond their ends, the empty
    # list included; n runs past both lengths, where the coefficient is 0.
    rng = random.Random(SEED)
    lists = [[]] + [[rng.randint(-9, 9) for _ in range(rng.randint(1, 7))] for _ in range(12)]
    for xs in lists:
        for ys in lists:
            for n in range(len(xs) + len(ys) + 2):
                literal = sum(
                    x * y for i, x in enumerate(xs) for j, y in enumerate(ys) if i + j == n
                )
                assert convolve(xs, ys, n) == literal
    assert convolve([1, 2], [3], 5) == convolve([], [1, 2, 3], 0) == 0


def test_a_square_convolves_as_the_product_of_two_lists():
    # One list passed twice takes the symmetric path; an equal copy does not.
    rng = random.Random(SEED)
    for length in range(31):
        for _ in range(3):
            xs = [rng.randint(-(10**6), 10**6) for _ in range(length)]
            for n in range(2 * length + 2):
                assert convolve(xs, xs, n) == convolve(xs, list(xs), n), (xs, n)


def test_a_full_range_square_takes_half_the_products():
    products = []

    class Counted(int):
        """An int that records each product it takes part in from the left."""

        def __mul__(self, other):
            products.append(other)
            return int(self) * int(other)

        def __pow__(self, other):
            products.append(self)
            return int(self) ** other

    xs = [Counted(x) for x in range(-15, 16)]
    for n in range(len(xs)):
        products.clear()
        square = convolve(xs, xs, n)
        assert len(products) == n // 2 + 1
        products.clear()
        assert convolve(xs, list(xs), n) == square
        assert len(products) == n + 1


def test_the_walk_with_squared_even_powers_equals_the_product_walk():
    rng = random.Random(SEED)
    for length in range(41):
        known = [rng.randint(-9, 9) for _ in range(length)]
        for from_moments in (False, True):
            want = bruteforce.moment_cumulant_walk(known, from_moments)
            assert _moment_cumulant_walk(known, from_moments) == want, (known, from_moments)


# --------------------------------------------------------------- products


def test_product_of_free_poissons_counts_partitions():
    """With every cumulant equal to one on both sides, each pair
    (tau, complement) contributes one, so kappa_n(ab) is Catalan."""
    for n in range(1, 7):
        assert product_cumulant(fp1(), fp1(), n) == catalan(n)


def test_product_is_symmetric():
    a, b = seeded_pairs(1)[0]
    for n in range(1, 6):
        assert product_cumulant(a, b, n) == product_cumulant(b, a, n)


def test_product_with_semicircular_kills_odd_orders():
    rng = random.Random(SEED + 1)
    a = random_explicit_spec(rng, 6)
    s = CumulantSpec.semicircular()
    for m in (1, 3, 5):
        assert product_cumulant(a, s, m) == 0


def test_product_with_semicircular_halves_the_order():
    """kappa_{2n}(as) equals kappa_n(a a') for a' a free copy of a."""
    rng = random.Random(SEED + 2)
    s = CumulantSpec.semicircular()
    for _ in range(3):
        a = random_explicit_spec(rng, 6)
        for n in (1, 2, 3):
            assert product_cumulant(a, s, 2 * n) == product_cumulant(a, a, n)


# ------------------------------------------------- anticommutator, frozen


def test_anticommutator_free_poisson_frozen():
    a = fp1()
    got = [anticommutator_cumulant(a, a, n) for n in range(1, 7)]
    assert got == FP1_ANTICOM_CUMULANTS


def test_anticommutator_graphwise_free_poisson_frozen():
    a = fp1()
    got = [anticommutator_cumulant_graphwise(a, a, n) for n in range(1, 6)]
    assert got == FP1_ANTICOM_CUMULANTS[:5]


def test_anticommutator_moments_follow_from_cumulants():
    assert moments_from_cumulants(FP1_ANTICOM_CUMULANTS[:5]) == FP1_ANTICOM_MOMENTS


def test_anticommutator_order_two_closed_form():
    """kappa_2(ab + ba) = 2 k2(a) k2(b) + 4 k1(a)^2 k2(b) + 4 k2(a) k1(b)^2,
    worked by hand from the nine odd-separating partitions of [4]."""
    a = CumulantSpec.explicit([Fraction(2, 3), Fraction(5, 2)])
    b = CumulantSpec.explicit([Fraction(-1, 2), Fraction(3)])
    assert anticommutator_cumulant(a, b, 2) == Fraction(137, 6)
    for x, y in seeded_pairs(4, length=2, seed=SEED + 3):
        want = (
            2 * x.kappa(2) * y.kappa(2)
            + 4 * x.kappa(1) ** 2 * y.kappa(2)
            + 4 * x.kappa(2) * y.kappa(1) ** 2
        )
        assert anticommutator_cumulant(x, y, 2) == want


def test_anticommutator_is_symmetric_in_its_arguments():
    a, b = seeded_pairs(1, seed=SEED + 4)[0]
    for n in range(1, 5):
        assert anticommutator_cumulant(a, b, n) == anticommutator_cumulant(b, a, n)


def test_anticommutator_scaling_is_degree_n():
    """Scaling one argument by t scales kappa_n by t^n: every bipartition
    side carries exactly n of the 2n elements, one endpoint per edge."""
    a, b = seeded_pairs(1, seed=SEED + 5)[0]
    for t in (2, Fraction(1, 2), -3):
        ta = CumulantSpec.explicit([v * t**j for j, v in enumerate(a.values, start=1)])
        for n in range(1, 5):
            assert anticommutator_cumulant(ta, b, n) == t**n * anticommutator_cumulant(
                a, b, n
            )


def test_anticommutator_routes_and_oracle_agree():
    """Partition formula, cactus-class formula, and the word-expansion
    oracle, on seeded random rational specs.  The full twenty-pair run to
    order five is the acceptance version of this test."""
    for a, b in seeded_pairs(3):
        from_oracle = oracle_anticommutator_cumulants(a, b, 4)
        for n in range(1, 5):
            direct = anticommutator_cumulant(a, b, n)
            assert anticommutator_cumulant_graphwise(a, b, n) == direct
            assert from_oracle[n - 1] == direct


# ------------------------------------- semicircular and even special cases


def test_semicircular_anticommutator_frozen_pair():
    s = CumulantSpec.semicircular()
    got = [semicircular_anticommutator(s, m) for m in range(1, 7)]
    assert got == SEMI_PAIR_CUMULANTS
    assert semicircular_anticommutator(s, 8) == 2
    assert semicircular_anticommutator(s, 10) == 2


def test_semicircular_anticommutator_odd_orders_vanish():
    rng = random.Random(SEED + 6)
    a = random_explicit_spec(rng, 6)
    for m in (1, 3, 5, 7, 9):
        assert semicircular_anticommutator(a, m) == 0
    with pytest.raises(ValueError):
        semicircular_anticommutator(a, 0)


def test_semicircular_anticommutator_order_two():
    rng = random.Random(SEED + 7)
    for _ in range(3):
        a = random_explicit_spec(rng, 2)
        want = 2 * a.kappa(2) + 4 * a.kappa(1) ** 2
        assert semicircular_anticommutator(a, 2) == want


def test_semicircular_anticommutator_matches_general_route():
    rng = random.Random(SEED + 8)
    s = CumulantSpec.semicircular()
    for _ in range(2):
        a = random_explicit_spec(rng, 6)
        for m in range(1, 7):
            assert semicircular_anticommutator(a, m) == anticommutator_cumulant(
                a, s, m
            )


def test_even_anticommutator_rejects_odd_cumulants():
    with pytest.raises(ValueError, match="order 1"):
        even_anticommutator(fp1(), fp1(), 4)
    s = CumulantSpec.semicircular()
    bad = CumulantSpec.explicit([0, 1, Fraction(1, 3)])
    with pytest.raises(ValueError, match="order 3"):
        even_anticommutator(s, bad, 4)


def test_even_anticommutator_semicircular_pair():
    s = CumulantSpec.semicircular()
    got = [even_anticommutator(s, s, m) for m in range(1, 7)]
    assert got == SEMI_PAIR_CUMULANTS


def test_even_anticommutator_matches_general_route():
    rng = random.Random(SEED + 9)
    a = random_even_spec(rng, 4)
    b = random_even_spec(rng, 4)
    for m in range(1, 7):
        assert even_anticommutator(a, b, m) == anticommutator_cumulant(a, b, m)


def test_even_anticommutator_matches_oracle_past_enumeration_comfort():
    rng = random.Random(SEED + 10)
    a = random_even_spec(rng, 3)
    b = random_even_spec(rng, 3)
    from_oracle = oracle_anticommutator_cumulants(a, b, 5)
    for m in range(1, 6):
        assert even_anticommutator(a, b, m) == from_oracle[m - 1]


# --------------------------------------------------------- quadratic forms


def random_weight_matrix(rng, k):
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            w = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
            rows[i][j] = rows[j][i] = w
    return WeightMatrix(tuple(tuple(r) for r in rows))


def test_quadratic_square_of_semicircular_is_free_poisson():
    """The square of a standard semicircular has all cumulants one."""
    s = CumulantSpec.semicircular()
    w = WeightMatrix(((Fraction(1),),))
    for n in range(1, 5):
        assert quadratic_form_cumulant((s,), w, n, route="partition") == 1
        assert quadratic_form_cumulant((s,), w, n, route="graph") == 1


def test_quadratic_offdiagonal_weight_recovers_anticommutator():
    a, b = seeded_pairs(1, seed=SEED + 11)[0]
    w = WeightMatrix(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    for n in range(1, 4):
        want = anticommutator_cumulant(a, b, n)
        assert quadratic_form_cumulant((a, b), w, n, route="partition") == want
        assert quadratic_form_cumulant((a, b), w, n, route="graph") == want


def test_quadratic_routes_and_oracle_agree():
    rng = random.Random(SEED + 12)
    for k in (2, 3):
        specs = tuple(random_explicit_spec(rng, 5) for _ in range(k))
        weights = random_weight_matrix(rng, k)
        from_oracle = oracle_quadratic_cumulants(specs, weights, 3)
        for n in range(1, 4):
            p = quadratic_form_cumulant(specs, weights, n, route="partition")
            g = quadratic_form_cumulant(specs, weights, n, route="graph")
            assert p == g
            assert from_oracle[n - 1] == p


def test_quadratic_weight_scaling_is_degree_n():
    rng = random.Random(SEED + 13)
    specs = tuple(random_explicit_spec(rng, 5) for _ in range(2))
    weights = random_weight_matrix(rng, 2)
    t = Fraction(3, 2)
    scaled = WeightMatrix(
        tuple(tuple(t * x for x in row) for row in weights.entries)
    )
    for n in range(1, 4):
        assert quadratic_form_cumulant(specs, scaled, n) == t**n * (
            quadratic_form_cumulant(specs, weights, n)
        )


@pytest.mark.parametrize("k", (1, 2, 3))
def test_colored_sum_matches_the_brute_force_sum(k):
    """The walk's colored sum against one product per coloring, on every
    class representative with n <= 5 edges for k <= 2 and n <= 4 for k = 3.
    Weights include zeros and the specs have zero cumulants at some orders.
    For k = 2 the weights of ab + ba also run, on the bipartite classes to
    n = 6.  A cycle product taken in a wrong order sums the same vertices
    around the cycle in another order, and up to five edges the order it
    gives has the same value as the right one on every class, so only that
    run at six edges, and the next test past six edges, tells them apart."""
    rng = random.Random(SEED + 14 + k)
    zero_spec = CumulantSpec.explicit([1, 0, Fraction(-2, 3), 0, 3])
    specs = (zero_spec,) + tuple(random_explicit_spec(rng, 5) for _ in range(k - 1))
    with_zeros = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if (i + j) % 2:
                with_zeros[i][j] = with_zeros[j][i] = Fraction(i + j + 1, 2)
    n_max = 5 if k <= 2 else 4
    runs = [
        (random_weight_matrix(rng, k), False, n_max),
        (WeightMatrix(tuple(tuple(r) for r in with_zeros)), False, n_max),
        (WeightMatrix(tuple((Fraction(1),) * k for _ in range(k))), False, n_max),
    ]
    if k == 2:
        runs.append((ANTICOMMUTATOR_WEIGHTS, True, 6))
    # Each class's first connected partition; a signature fixes n.
    first_members = {}
    for n in range(1, max(top for _, _, top in runs) + 1):
        for p in enumerate_connected(n):
            first_members.setdefault(canonical_outercycle(p).signature, p)
    for weights, bipartite_only, top in runs:
        for n in range(1, top + 1):
            kappa, w, scale = integer_tables(specs, weights, 2 * n)
            for rep in enumerate_oriented_cacti(n, bipartite_only=bipartite_only):
                g = build_graph(first_members[rep.signature])
                want = bruteforce.colored_sum(
                    g.vertex_count, g.edges, g.vertex_degrees, specs, weights.entries
                )
                assert Fraction(_colored_sum(rep, list(zip(*kappa)), w), scale**n) == want


def _has_long_unmirrored_cycle(g):
    """Whether some cycle of four or more edges has non-root vertices whose
    degrees do not read the same both ways along the walk.  The root is the
    cycle's lowest id, and the walk reaches the others in turn, so their
    walk order is their id order."""
    for comp in _biconnected_edge_components(g):
        others = sorted({v for eid in comp for v in g.edges[eid]})[1:]
        degrees = [g.vertex_degrees[v] for v in others]
        if len(comp) >= 4 and degrees != degrees[::-1]:
            return True
    return False


@pytest.mark.parametrize("n", (7, 8))
def test_colored_sum_matches_the_brute_force_sum_past_six_edges(n):
    """The colored sum against one product per coloring at k = 3, with no
    zero weight or cumulant, on the first twelve classes with n edges, at
    most seven vertices (3^7 colorings) and a cycle of four or more edges
    whose other vertices' degrees do not read the same both ways along the
    walk.  A cycle product taken in a wrong order sums the cycle's vertices
    in another order; on a cycle of three or fewer edges any order is a
    rotation or reflection of the right one, and the route totals, summed
    over all classes, can stay the same, so only a per-class check sees it."""
    rng = random.Random(SEED + n)
    nonzero = [-3, -2, -1, 1, 2, 3]
    specs = tuple(
        CumulantSpec.explicit(
            [Fraction(rng.choice(nonzero), rng.choice((1, 2, 3))) for _ in range(2 * n)]
        )
        for _ in range(3)
    )
    rows = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            rows[i][j] = rows[j][i] = Fraction(rng.choice(nonzero), rng.choice((1, 2)))
    weights = WeightMatrix(tuple(tuple(r) for r in rows))
    kappa, w, scale = integer_tables(specs, weights, 2 * n)
    checked = 0
    for rep in enumerate_oriented_cacti(n):
        g = BlockMultigraph(rep.vertex_count, rep.renumbered_edges(), rep.degrees)
        if g.vertex_count > 7 or not _has_long_unmirrored_cycle(g):
            continue
        want = bruteforce.colored_sum(g.vertex_count, g.edges, g.vertex_degrees, specs, rows)
        assert Fraction(_colored_sum(rep, list(zip(*kappa)), w), scale**n) == want, rep.signature
        checked += 1
        if checked == 12:
            break
    assert checked == 12


@pytest.mark.parametrize("k", (1, 2))
def test_a_cumulant_vanishing_at_one_degree(k):
    """The first spec vanishes at one degree d alone, for each d <= 12, so
    on a class with a vertex of degree d every coloring that gives that
    vertex the first variable is zero.  At k = 1 the walk returns 0 at the
    first such vertex, a leaf, a cycle vertex or the root by class.  The
    colored sum against one product per coloring on every class with at
    most six edges at k = 1 and five at k = 2 (2^7 colorings a class, times
    each degree, would take seconds more at six), each class once per spec
    it tells apart; and the graph and dp routes agree at every d <= 2n for
    n <= 6, the partition route too for n <= 4."""
    rng = random.Random(SEED + 40 + k)
    nonzero = [-3, -2, -1, 1, 2, 3]

    def draw():
        return [Fraction(rng.choice(nonzero), rng.choice((1, 2, 3))) for _ in range(12)]

    first = draw()
    others = tuple(CumulantSpec.explicit(draw()) for _ in range(k - 1))
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = Fraction(rng.choice(nonzero), rng.choice((1, 2)))
    weights = WeightMatrix(tuple(tuple(r) for r in rows))
    classes = {n: list(enumerate_oriented_cacti(n)) for n in range(1, 7)}
    brute_top = 6 if k == 1 else 5
    checked = set()
    for d in range(1, 13):
        specs = (CumulantSpec.explicit(first[: d - 1] + [0] + first[d:]),) + others
        dp = dp_cumulants(specs, weights, 6)
        for n in range((d + 1) // 2, 7):
            graph = quadratic_form_cumulant(specs, weights, n, route="graph")
            assert graph == dp[n - 1], (d, n)
            if n <= 4:
                assert quadratic_form_cumulant(specs, weights, n, route="partition") == graph
            if n > brute_top:
                continue
            kappa, w, scale = integer_tables(specs, weights, 2 * n)
            columns = list(zip(*kappa))
            for rep in classes[n]:
                degrees = rep.degrees
                key = (rep.signature, d if d in degrees else None)
                if key in checked:
                    continue
                checked.add(key)
                edges = rep.renumbered_edges()
                want = bruteforce.colored_sum(len(degrees), edges, degrees, specs, rows)
                assert Fraction(_colored_sum(rep, columns, w), scale**n) == want, (d, rep.signature)


def test_quadratic_argument_validation():
    s = CumulantSpec.semicircular()
    w = WeightMatrix(((Fraction(1),),))
    with pytest.raises(ValueError, match="1x1"):
        quadratic_form_cumulant((s, s), w, 2)
    with pytest.raises(ValueError, match="route"):
        quadratic_form_cumulant((s,), w, 2, route="banana")


# ---------------------------------------------------- the rate polynomial


def test_rate_polynomial_frozen_at_order_four():
    assert [2 * c for c in level_counts(8)] == [224, 82, 4]


def test_rate_polynomial_shape():
    for n in range(1, 7):
        coeffs = [2 * c for c in level_counts(2 * n)]
        assert len(coeffs) == n // 2 + 1
        assert coeffs[0] == 2**n * catalan(n)
        assert all(c > 0 for c in coeffs)


def test_rate_polynomial_evaluates_to_the_cumulant():
    """Sum of d_r rate^(n+1-r) reproduces kappa_n(ab + ba) for equal-rate
    free Poisson pairs, and at rate one it is twice the family size."""
    for n in range(1, 5):
        coeffs = [2 * c for c in level_counts(2 * n)]
        assert sum(coeffs) == 2 * sum(level_counts(2 * n))
        for lam in (Fraction(1), Fraction(3), Fraction(5, 2)):
            spec = CumulantSpec.free_poisson(lam)
            value = sum(d * lam ** (n + 1 - r) for r, d in enumerate(coeffs))
            assert value == anticommutator_cumulant(spec, spec, n)


# ------------------------------------------------------------- the oracle


def test_oracle_moments_free_poisson_frozen():
    a = fp1()
    assert oracle_anticommutator_moments(a, a, 5) == FP1_ANTICOM_MOMENTS
    assert oracle_anticommutator_cumulants(a, a, 5) == FP1_ANTICOM_CUMULANTS[:5]


def test_oracle_matches_doubly_literal_expansion():
    """Rebuild the oracle's answer with none of its machinery: expand the
    power into words by hand and sum each word over all set partitions,
    filtering crossings and color mixing literally."""
    rng = random.Random(SEED + 14)
    pairs = [(fp1(), fp1()), (random_explicit_spec(rng, 4), random_explicit_spec(rng, 4))]
    for a, b in pairs:
        specs = (a, b)

        def kappa_of(color, size):
            return specs[color].kappa(size)

        got = oracle_anticommutator_moments(a, b, 3)
        for j in (1, 2, 3):
            want = Fraction(0)
            for bits in itertools.product((0, 1), repeat=j):
                colors = []
                for bit in bits:
                    colors.extend((bit, 1 - bit))
                want += bruteforce.word_moment_literal(kappa_of, colors)
            assert got[j - 1] == want


def test_quadratic_oracle_matches_doubly_literal_expansion():
    rng = random.Random(SEED + 15)
    specs = tuple(random_explicit_spec(rng, 4) for _ in range(2))
    weights = random_weight_matrix(rng, 2)

    def kappa_of(color, size):
        return specs[color].kappa(size)

    got = oracle_quadratic_moments(specs, weights, 2)
    for j in (1, 2):
        want = Fraction(0)
        for word in itertools.product((0, 1), repeat=2 * j):
            weight = Fraction(1)
            for t in range(j):
                weight *= weights.entries[word[2 * t]][word[2 * t + 1]]
            if weight:
                want += weight * bruteforce.word_moment_literal(kappa_of, word)
        assert got[j - 1] == want


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize(
    "k, n_max", [(1, 3), (2, 3), (3, 3), (2, 4)], ids=["1", "2", "3", "2-order4"]
)
def test_oracle_matches_the_per_word_sum(k, n_max, symmetric):
    """The oracle's table over (weight, profile) adds up to the literal
    per-word sum, for symmetric and asymmetric weights."""
    rng = random.Random(SEED + 16 + 2 * k + symmetric)
    specs = tuple(random_explicit_spec(rng, 2 * n_max) for _ in range(k))
    if symmetric:
        weights = random_weight_matrix(rng, k)
    else:
        rows = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(k)]
                for _ in range(k)]
        weights = WeightMatrix(tuple(map(tuple, rows)))
    want = bruteforce.quadratic_moments_per_word(specs, weights, n_max)
    assert oracle_quadratic_moments(specs, weights, n_max) == want


def test_profiles_are_cached_by_color_pattern(monkeypatch):
    """Words that share a color pattern share one profile table: the
    all-ones 3x3 form to order 3 expands 9 + 81 + 729 = 819 words, but they
    fall into 2 + 14 + 122 = 138 patterns (set partitions of 2, 4, 6
    positions into at most 3 colors).  Each miss computes the table of its
    key, and every key is a pattern labelled by first occurrence."""
    computed = []
    word_profile_counts = _core_py.word_profile_counts

    def recording(colors):
        computed.append(colors)
        return word_profile_counts(colors)

    monkeypatch.setattr(_core_py, "word_profile_counts", recording)
    specs = tuple(CumulantSpec.explicit([1, -2, Fraction(1, 3), 2, 1, -1]) for _ in range(3))
    ones = WeightMatrix(((1, 1, 1),) * 3)
    cumulants._profiles.cache_clear()
    got = oracle_quadratic_moments(specs, ones, 3)
    info = cumulants._profiles.cache_info()
    assert (info.misses, info.hits) == (138, 819 - 138)
    assert len(computed) == len(set(computed)) == 138
    for pattern in computed:
        labels = list(dict.fromkeys(pattern))
        assert labels == list(range(len(labels))), pattern
    assert got == bruteforce.quadratic_moments_per_word(specs, ones, 3)


def test_profile_kernel_tallies_the_single_colored_partitions():
    """The kernel against a literal tally, on every word of length at most
    6 over at most 3 colors: each non-crossing partition of the brute-force
    stream whose blocks are single-colored, counted by its sorted (color,
    size) profile."""
    for m in range(7):
        partitions = list(bruteforce.noncrossing_partitions(m))
        for colors in itertools.product(range(3), repeat=m):
            want = {}
            for blocks in partitions:
                if all(len({colors[x - 1] for x in block}) == 1 for block in blocks):
                    prof = tuple(sorted((colors[block[0] - 1], len(block)) for block in blocks))
                    want[prof] = want.get(prof, 0) + 1
            assert _core_py.word_profile_counts(colors) == want, colors


def test_a_wrong_profile_count_fails_the_quadratic_check(monkeypatch):
    # Every oracle moment goes through _profiles, so one extra partition
    # in one profile must break the four-way agreement of verify.
    profiles = cumulants._profiles

    def one_more(colors):
        counts = dict(profiles(colors))
        first = next(iter(counts))
        counts[first] += 1
        return counts

    monkeypatch.setattr(cumulants, "_profiles", one_more)
    summary = run_suite("formulas")
    assert "formulas.quadratic_routes_agree" in summary["failures"]


def test_oracle_caps():
    a = fp1()
    with pytest.raises(ResourceCapError, match="cap 5"):
        oracle_anticommutator_moments(a, a, 6)
    with pytest.raises(ResourceCapError, match="cap 2"):
        oracle_anticommutator_moments(a, a, 3, cap=2)
    assert oracle_anticommutator_moments(a, a, 3, cap=3) == FP1_ANTICOM_MOMENTS[:3]
    w = WeightMatrix(((Fraction(1),),))
    s = CumulantSpec.semicircular()
    with pytest.raises(ResourceCapError, match="cap 4"):
        oracle_quadratic_moments((s,), w, 5)


def test_quadratic_oracle_validates_spec_count():
    w = WeightMatrix(((Fraction(1),),))
    s = CumulantSpec.semicircular()
    with pytest.raises(ValueError, match="1x1"):
        oracle_quadratic_moments((s, s), w, 2)
