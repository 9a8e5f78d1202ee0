"""Tests for the interval-DP engine.

Every value is compared exactly with an independent route: the paper's
partition and cactus-class formulas, the Kreweras product formula, the
word-expansion oracle, Narayana polynomials, the counting recursion
for the free Poisson(1) pair, and, far past the oracle, quadratic forms
whose cumulants follow from the moment-cumulant transforms alone."""

import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecactus import (
    CumulantSpec,
    ResourceCapError,
    WeightMatrix,
    anticommutator_cumulant,
    anticommutator_cumulant_graphwise,
    cumulants_from_moments,
    free_poisson_pair_cumulants,
    moments_from_cumulants,
    oracle_quadratic_cumulants,
    product_cumulant,
    quadratic_form_cumulant,
    semicircular_anticommutator,
)
from freecactus.cumulants import (
    ANTICOMMUTATOR_WEIGHTS,
    PRODUCT_WEIGHTS,
    random_explicit_spec,
)
from freecactus.dp import DEFAULT_DP_CAP, dp_cumulants
from freecactus.series import r_m_transfer

SEED = 1729


def anticom_pairs():
    rng = random.Random(SEED)
    explicit = [(random_explicit_spec(rng, 5), random_explicit_spec(rng, 5)) for _ in range(2)]
    partner = random_explicit_spec(rng, 5)
    return explicit + [
        (partner, CumulantSpec.free_poisson(Fraction(3, 2))),
        (partner, CumulantSpec.semicircular()),
    ]


@pytest.mark.parametrize("a, b", anticom_pairs())
def test_anticommutator_matches_both_paper_routes(a, b):
    got = dp_cumulants((a, b), ANTICOMMUTATOR_WEIGHTS, 5)
    assert got == [anticommutator_cumulant(a, b, n) for n in range(1, 6)]
    assert got == [anticommutator_cumulant_graphwise(a, b, n) for n in range(1, 6)]


def test_product_matches_kreweras_formula():
    rng = random.Random(SEED)
    a, b = random_explicit_spec(rng, 8), random_explicit_spec(rng, 8)
    assert dp_cumulants((a, b), PRODUCT_WEIGHTS, 8) == [
        product_cumulant(a, b, n) for n in range(1, 9)
    ]


def test_product_of_free_poissons_is_narayana():
    rate_a, rate_b = Fraction(2, 3), Fraction(5, 2)
    got = dp_cumulants(
        (CumulantSpec.free_poisson(rate_a), CumulantSpec.free_poisson(rate_b)),
        PRODUCT_WEIGHTS,
        12,
    )
    want = [
        sum(
            Fraction(math.comb(n, k) * math.comb(n, k - 1), n)
            * rate_a**k
            * rate_b ** (n + 1 - k)
            for k in range(1, n + 1)
        )
        for n in range(1, 13)
    ]
    assert got == want


def test_semicircular_anticommutator_matches_cactus_classes():
    a = random_explicit_spec(random.Random(SEED), 10)
    got = dp_cumulants((a, CumulantSpec.semicircular()), ANTICOMMUTATOR_WEIGHTS, 10)
    assert got == [semicircular_anticommutator(a, m) for m in range(1, 11)]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("with_zeros", [False, True])
def test_quadratic_matches_oracle_and_graph_route(k, with_zeros):
    rng = random.Random(SEED + k)
    specs = tuple(random_explicit_spec(rng, 8) for _ in range(k))
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if not (with_zeros and (i + j) % 2 == 0):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
    weights = WeightMatrix(tuple(tuple(r) for r in rows))
    got = dp_cumulants(specs, weights, 4)
    assert got == oracle_quadratic_cumulants(specs, weights, 4)
    assert got == [
        quadratic_form_cumulant(specs, weights, n, route="graph") for n in range(1, 5)
    ]


def test_graph_route_reaches_six_edges_on_a_full_k3_form():
    """Past the oracle: every class with six edges, three colors and no zero
    weight, where a search over colorings would take 3^7 per class."""
    rng = random.Random(SEED + 6)
    specs = tuple(random_explicit_spec(rng, 12) for _ in range(3))
    rows = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            w = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
            rows[i][j] = rows[j][i] = w
    weights = WeightMatrix(tuple(tuple(r) for r in rows))
    got = quadratic_form_cumulant(specs, weights, 6, route="graph")
    assert got == dp_cumulants(specs, weights, 6)[5]


# Explicit spec entries p/q with p in [-3, 3] and q in {1, 2, 3}, zeros
# included: the family of ``random_explicit_spec``, drawn by hypothesis.
ENTRIES = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
SPECS = st.lists(ENTRIES, min_size=1, max_size=8).map(CumulantSpec.explicit)


@st.composite
def symmetric_forms(draw):
    k = draw(st.integers(1, 3))
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = draw(ENTRIES)
    specs = tuple(draw(SPECS) for _ in range(k))
    return specs, WeightMatrix(tuple(tuple(r) for r in rows))


@given(symmetric_forms())
@settings(max_examples=25, deadline=None)
def test_dp_equals_both_cactus_routes_and_the_oracle(form):
    specs, weights = form
    got = dp_cumulants(specs, weights, 4)
    for route in ("partition", "graph"):
        assert got == [quadratic_form_cumulant(specs, weights, n, route=route) for n in range(1, 5)]
    assert got[:3] == oracle_quadratic_cumulants(specs, weights, 3)


@given(SPECS, SPECS)
@settings(max_examples=25, deadline=None)
def test_dp_equals_the_y_route_and_the_bipartite_classes(a, b):
    got = dp_cumulants((a, b), ANTICOMMUTATOR_WEIGHTS, 4)
    assert got == [anticommutator_cumulant(a, b, n) for n in range(1, 5)]
    assert got == [anticommutator_cumulant_graphwise(a, b, n) for n in range(1, 5)]


def test_free_poisson_pair_matches_counting_recursion():
    one = CumulantSpec.free_poisson(1)
    assert dp_cumulants((one, one), ANTICOMMUTATOR_WEIGHTS, 15) == free_poisson_pair_cumulants(15)


@pytest.mark.parametrize("integral", (True, False))
def test_dp_returns_fractions(integral):
    # The tables run on ints; every order is divided back into a Fraction,
    # also where the value is an integer.
    spec = CumulantSpec.free_poisson(1 if integral else Fraction(2, 3))
    kappas = dp_cumulants((spec, spec), ANTICOMMUTATOR_WEIGHTS, 5)
    assert all(type(x) is Fraction for x in kappas)


@pytest.mark.parametrize("seed", range(3))
def test_product_matches_the_s_transform(seed):
    # For kappa_1(a), kappa_1(b) nonzero the S-transform is multiplicative
    # (Voiculescu 1987): with R(z) = sum of kappa_n z^n,
    # R_ab^<-1>(z) = R_a^<-1>(z) R_b^<-1>(z) / z.  Nothing here sums over
    # partitions; the series layer alone inverts, multiplies and shifts.
    rng = random.Random(SEED + seed)
    a, b = (
        CumulantSpec.explicit(
            (rng.choice((1, -1, Fraction(2, 3), Fraction(-3, 2))),)
            + random_explicit_spec(rng, 5).values
        )
        for _ in range(2)
    )
    r_a, r_b = (
        r_m_transfer([spec.kappa(j) for j in range(1, 21)], 20).R.comp_inverse() for spec in (a, b)
    )
    s_ab = (r_a * r_b).shift_down(1)
    kappas = dp_cumulants((a, b), PRODUCT_WEIGHTS, 19)
    assert r_m_transfer(kappas, 19).R.comp_inverse() == s_ab


def test_asymmetric_weights_are_accepted_by_dp_only():
    one = CumulantSpec.free_poisson(1)
    # kappa_n(ab) for free Poisson(1) variables: the Catalan numbers.
    assert dp_cumulants((one, one), PRODUCT_WEIGHTS, 4) == [1, 2, 5, 14]
    for route in ("partition", "graph"):
        with pytest.raises(ValueError, match="not symmetric"):
            quadratic_form_cumulant((one, one), PRODUCT_WEIGHTS, 2, route=route)


def random_asymmetric_weights(rng, k):
    return WeightMatrix(
        tuple(
            tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(k))
            for _ in range(k)
        )
    )


@pytest.mark.parametrize("k, n_max", [(2, 4), (3, 3)])
def test_asymmetric_weights_match_the_oracle(k, n_max):
    rng = random.Random(SEED + 10 * k)
    for _ in range(3):
        specs = tuple(random_explicit_spec(rng, 2 * n_max) for _ in range(k))
        weights = random_asymmetric_weights(rng, k)
        assert any(
            weights.entries[i][j] != weights.entries[j][i] for i in range(k) for j in range(i)
        )
        got = dp_cumulants(specs, weights, n_max)
        assert got == oracle_quadratic_cumulants(specs, weights, n_max)


def test_commutator_of_even_variables_matches_the_anticommutator():
    """Nica & Speicher, "Commutators of free random variables" (Duke Math.
    J. 92, 1998): for even free a and b, kappa_n(ab - ba) vanishes at odd
    n, and (-1)^(n/2) kappa_n(ab - ba) = kappa_n(ab + ba)."""
    rng = random.Random(SEED + 20)
    commutator = WeightMatrix(((0, 1), (-1, 0)))
    for _ in range(2):
        a, b = (
            CumulantSpec.explicit([v for x in random_explicit_spec(rng, 6).values for v in (0, x)])
            for _ in range(2)
        )
        minus = dp_cumulants((a, b), commutator, 20)
        plus = dp_cumulants((a, b), ANTICOMMUTATOR_WEIGHTS, 20)
        assert any(plus)
        for n in range(1, 21):
            if n % 2:
                assert minus[n - 1] == plus[n - 1] == 0
            else:
                assert (-1) ** (n // 2) * minus[n - 1] == plus[n - 1]


# Quadratic forms that are free sums in disguise: their cumulants at order 30
# need only moments_from_cumulants and cumulants_from_moments.
TRANSFORM_ORDER = 30


def transform_problem(seed):
    rng = random.Random(seed)
    specs = tuple(random_explicit_spec(rng, 8) for _ in range(3))
    scalars = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))) for _ in specs]
    return specs, scalars


def test_rank_one_weights_match_the_square_of_a_free_sum():
    """w = v v^T makes Q = s^2 with s the sum of v_c a_c.  Free cumulants
    add, kappa_r(s) = sum of v_c^r kappa_r(a_c), and the moments of Q are
    the even moments of s."""
    n = TRANSFORM_ORDER
    specs, v = transform_problem(7)
    kappas = [sum(x**r * spec.kappa(r) for x, spec in zip(v, specs)) for r in range(1, 2 * n + 1)]
    want = cumulants_from_moments(moments_from_cumulants(kappas)[1::2])
    assert want[-1]
    assert dp_cumulants(specs, WeightMatrix(tuple(tuple(x * y for y in v) for x in v)), n) == want


def test_diagonal_weights_match_a_free_sum_of_squares():
    """Diagonal w makes Q the sum of w_c a_c^2, a sum of free variables:
    kappa_n(Q) = sum of w_c^n kappa_n(a_c^2), with kappa_n(a_c^2) read from
    the even moments of a_c."""
    n = TRANSFORM_ORDER
    specs, w = transform_problem(8)
    squares = [
        cumulants_from_moments(moments_from_cumulants([spec.kappa(r) for r in range(1, 2 * n + 1)])[1::2])
        for spec in specs
    ]
    want = [sum(x**m * sq[m - 1] for x, sq in zip(w, squares)) for m in range(1, n + 1)]
    assert want[-1]
    weights = WeightMatrix(tuple(tuple(x if i == j else 0 for j in range(3)) for i, x in enumerate(w)))
    assert dp_cumulants(specs, weights, n) == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_semicircular_forms_have_the_trace_of_the_weight_powers(k):
    """For free standard semicirculars s_c and symmetric W, kappa_n of the
    sum of w_cd s_c s_d is tr(W^n): only kappa_2 = 1 survives, so every
    block is a pair, and the one connected pairing of [2n] has an n-cycle
    for its block graph, whose colored sum is the trace.  Seeded W has a
    negative corner and, for k > 1, a zero off the diagonal."""
    n = TRANSFORM_ORDER
    rng = random.Random(SEED + k)
    w = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            w[i][j] = w[j][i] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    w[0][0] = -abs(w[0][0])
    if k > 1:
        w[0][-1] = w[-1][0] = Fraction(0)
    power, want = w, []
    for _ in range(n):
        want.append(sum(power[i][i] for i in range(k)))
        power = [[sum(map(mul, row, col)) for col in zip(*w)] for row in power]
    specs = (CumulantSpec.semicircular(),) * k
    assert dp_cumulants(specs, WeightMatrix(w), n, cap=2 * n) == want


def test_order_beyond_the_cap_is_refused():
    one = CumulantSpec.free_poisson(1)
    with pytest.raises(ResourceCapError, match=f"cap {DEFAULT_DP_CAP}"):
        dp_cumulants((one, one), ANTICOMMUTATOR_WEIGHTS, DEFAULT_DP_CAP // 2 + 1)
    with pytest.raises(ResourceCapError, match="cap 4"):
        dp_cumulants((one, one), ANTICOMMUTATOR_WEIGHTS, 3, cap=4)


def test_spec_count_must_match_the_weights():
    one = CumulantSpec.free_poisson(1)
    with pytest.raises(ValueError, match="3 specs"):
        dp_cumulants((one, one, one), ANTICOMMUTATOR_WEIGHTS, 2)
