"""Tests for truncated series arithmetic, the parity counting recursion,
the functional equations, and the closed-form inverse of the moment
series.

The recursion values are frozen against the enumeration for every ground
set the enumerator can reach, and beyond that against the independently
coded level histogram and, for the odd sizes, the Lagrange closed form of
the odd quartic.  The closed level sums are checked at every level against
the recursion graded by level, kept here as their reference; the closed
forms are checked coefficientwise against triangular inversion, which
shares no code with them."""

import copy
import functools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecactus import enumerate_y
from freecactus.cumulants import (
    ANTICOMMUTATOR_WEIGHTS,
    CumulantSpec,
    convolve,
    moments_from_cumulants,
)
from freecactus.dp import dp_cumulants
from freecactus.series import (
    DEFAULT_SERIES_ORDER,
    TruncatedSeries,
    _binomial_sum,
    _count_lists,
    cauchy_polynomial_residual,
    check_functional_equations,
    free_poisson_pair_cumulants,
    minverse_closed_form,
    r_m_transfer,
    y_count,
    y_count_recursive,
    y_level_counts,
    y_series,
)

SEED = 1729

# Family counts by parity, from the recursion: even ground sets 2, 4, ..
# and odd ground sets 1, 3, ...  Entries up to ground set 11 match the
# enumeration golden table; 12..14 were cross-checked against the level
# histogram kernel, and the last two come from the recursion alone.
ALPHA = [1, 5, 26, 155, 987, 6588, 45474, 321959]
BETA = [1, 2, 9, 48, 287, 1834, 12268, 84816]

# Cumulants and moments of the anti-commutator of two free Poisson(1)
# variables; the first six cumulants also fall out of direct enumeration
# in the cumulant tests.
NU_CUMULANTS = [2, 10, 52, 310, 1974, 13176, 90948, 643918, 4650382]
NU_MOMENTS = [2, 14, 120, 1182, 12586, 141160, 1642584, 19646558, 240050838]


def series(values, order=None):
    return TruncatedSeries.from_coefficients(values, order)


def random_series(rng, order, constant=0):
    coeffs = [Fraction(constant)]
    coeffs += [
        Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(order)
    ]
    return TruncatedSeries(order, tuple(coeffs))


# ------------------------------------------------------------ construction


def test_constructor_validates_length_and_order():
    with pytest.raises(ValueError, match="needs 3 coefficients"):
        TruncatedSeries(2, (Fraction(1),))
    with pytest.raises(ValueError, match="non-negative"):
        TruncatedSeries(-1, ())


def test_from_coefficients_pads_and_rejects_overflow():
    s = series([1, 2], order=4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert series([]).order == 0
    with pytest.raises(ValueError, match="exceed order"):
        series([1, 2, 3], order=1)


def test_named_constructors():
    assert TruncatedSeries.constant(0, 3).coeffs == (0, 0, 0, 0)
    assert TruncatedSeries.constant(Fraction(1, 2), 2).coeffs == (Fraction(1, 2), 0, 0)
    assert TruncatedSeries.identity(3).coeffs == (0, 1, 0, 0)
    with pytest.raises(ValueError, match="order at least 1"):
        TruncatedSeries.identity(0)


def test_getitem_bounds():
    s = series([5, 6], order=2)
    assert s[0] == 5 and s[2] == 0
    with pytest.raises(IndexError, match="beyond the carried order"):
        s[3]


def test_truncate_never_extends():
    s = series([1, 2, 3])
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(ValueError, match="unknown"):
        s.truncate(5)


def test_equality_is_structural():
    assert TruncatedSeries.constant(0, 3) == series([], order=3)
    assert TruncatedSeries.constant(0, 3) != TruncatedSeries.constant(0, 2)


def test_json_form():
    assert series([0, Fraction(1, 2), -3]).to_json_obj() == ["0", "1/2", "-3"]


# ------------------------------------------------------------- arithmetic


def test_binary_operations_carry_the_minimum_order():
    long = series([1, 1, 1, 1, 1], order=4)
    short = series([1, 1], order=2)
    assert (long + short).order == 2
    assert (long * short).order == 2
    assert (long / short).order == 2


def test_add_sub_scalars():
    b = series([0, 1, 2])
    assert (1 - b).coeffs == (1, -1, -2)
    assert (b + 1).coeffs == (1, 1, 2)
    assert (-b).coeffs == (0, -1, -2)


def test_multiplication_is_truncated_convolution():
    f = series([1, 2, 3], order=3)
    g = series([4, 5], order=3)
    assert (f * g).coeffs == (4, 13, 22, 15)
    assert (2 * f).coeffs == (2, 4, 6, 0)


def test_scalar_and_monomial_products_equal_the_dense_product():
    order = 80
    dense = series([Fraction(i * i - 7, i + 2) for i in range(order + 1)])
    x = TruncatedSeries.identity(order)
    mono = series([0] * 5 + [Fraction(-3, 7)], order=order)

    def as_series(value):
        if isinstance(value, TruncatedSeries):
            return value
        return TruncatedSeries.constant(value, order)

    for left, right in (
        (4, dense),
        (dense, 4),
        (Fraction(2, 3), dense),
        (dense, x),
        (x, dense),
        (dense, mono),
        (mono, dense),
        (mono, x),
    ):
        a, b = as_series(left), as_series(right)
        want = tuple(
            sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(order + 1)
        )
        assert (left * right).coeffs == want


def test_monomial_products_make_no_convolution(monkeypatch):
    import freecactus.series as series_module

    calls = []

    def counting(xs, ys, n):
        calls.append(n)
        return convolve(xs, ys, n)

    monkeypatch.setattr(series_module, "convolve", counting)
    s = series([Fraction(i * i - 7, i + 2) for i in range(41)])
    x = TruncatedSeries.identity(40)
    mono = series([0] * 5 + [Fraction(-3, 7)], order=40)
    pairs = ((s, x), (x, s), (s, mono), (mono, s), (x, mono), (4, s), (s, Fraction(2, 3)))
    for left, right in pairs:
        left * right
    assert calls == []
    s * s
    assert len(calls) == 41


def test_division_inverts_multiplication():
    rng = random.Random(SEED)
    f = random_series(rng, 6, constant=Fraction(1, 2))
    g = random_series(rng, 6, constant=2)
    assert (f * g) / g == f
    assert (1 / g) * g == TruncatedSeries.constant(1, 6)


def test_division_needs_a_unit():
    with pytest.raises(ValueError, match="c_0 = 0"):
        series([1, 1]) / series([0, 1])


def test_shift_down():
    s = series([0, 0, 3, 4])
    assert s.shift_down(2).coeffs == (3, 4)
    assert s.shift_down(2).order == 1
    with pytest.raises(ValueError, match="c_2 = 3"):
        s.shift_down(3)
    with pytest.raises(ValueError, match="down by 5"):
        s.shift_down(5)


# ---------------------------------------------------- compose and inverse


def test_compose_polynomial_case():
    f = series([1, 0, 1], order=4)  # 1 + z^2
    g = series([0, 2, 1], order=4)  # 2z + z^2
    assert f.compose(g).coeffs == (1, 0, 4, 4, 1)


def test_compose_with_zero_series_is_the_constant():
    f = series([7, 3, 5], order=2)
    assert f.compose(TruncatedSeries.constant(0, 2)) == TruncatedSeries.constant(7, 2)


def test_compose_rejects_inner_constant():
    with pytest.raises(ValueError, match="c_0 = 5"):
        series([1, 1]).compose(series([5, 1]))


def test_comp_inverse_frozen_moment_series_example():
    m = series([0] + NU_MOMENTS, order=9)
    inv = m.comp_inverse()
    assert inv[1] == Fraction(1, 2)
    assert inv[2] == Fraction(-7, 4)


def test_comp_inverse_preconditions():
    with pytest.raises(ValueError, match="c_0 = 1"):
        series([1, 2]).comp_inverse()
    with pytest.raises(ValueError, match="c_1"):
        series([0, 0, 1]).comp_inverse()


@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=0,
        max_size=8,
    ),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
        lambda v: v != 0
    ),
)
@settings(max_examples=40, deadline=None)
def test_comp_inverse_is_two_sided(tail, c1):
    # Orders 1..9: Lagrange inversion has edge cases of its own at low order.
    f = TruncatedSeries.from_coefficients([0, c1] + tail)
    inv = f.comp_inverse()
    z = TruncatedSeries.identity(f.order)
    assert f.compose(inv) == z
    assert inv.compose(f) == z


def test_sqrt_frozen_example():
    s = series([4, 20, 9], order=3).sqrt()
    assert s.coeffs == (2, 5, -4, 10)


@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=3,
        max_size=7,
    ),
    st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
)
@settings(max_examples=40, deadline=None)
def test_sqrt_squares_back(tail, c0):
    g = TruncatedSeries.from_coefficients([c0] + tail)
    f = g * g
    assert f.sqrt() == g


def test_sqrt_preconditions():
    with pytest.raises(ValueError, match="positive constant"):
        series([0, 1]).sqrt()
    with pytest.raises(ValueError, match="rational square"):
        series([2, 1]).sqrt()


# ------------------------------------- exact operations against Fractions
#
# The operations run on integer numerators over one denominator; these
# references are the textbook recursions, literally on Fractions.


def mixed_series(rng, order, constant=None):
    """Denominators 1..7, negative entries and about a third zeros."""
    coeffs = [
        Fraction(rng.randint(-6, 6), rng.randint(1, 7)) if rng.random() < 0.7 else Fraction(0)
        for _ in range(order + 1)
    ]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    return TruncatedSeries(order, tuple(coeffs))


def reference_product(a, b):
    n = min(a.order, b.order)
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1))


def reference_quotient(a, b):
    out = []
    for k in range(min(a.order, b.order) + 1):
        acc = a[k] - sum((b[i] * out[k - i] for i in range(1, k + 1)), Fraction(0))
        out.append(acc / b[0])
    return tuple(out)


def reference_sqrt(a, root):
    out = [Fraction(root)]
    for k in range(1, a.order + 1):
        acc = a[k] - sum((out[i] * out[k - i] for i in range(1, k)), Fraction(0))
        out.append(acc / (2 * out[0]))
    return tuple(out)


def reference_compose(f, g):
    n = min(f.order, g.order)
    out = (f[n],) + (Fraction(0),) * n
    for k in range(n - 1, -1, -1):
        out = reference_product(TruncatedSeries(n, out), g.truncate(n))
        out = (out[0] + f[k],) + out[1:]
    return out


def exact_coeffs(s):
    # Lowest terms: one positive denominator sharing no factor with all numerators.
    assert s.denominator > 0 and math.gcd(s.denominator, *s.numerators) == 1
    assert all(type(c) is Fraction for c in s.coeffs)
    return s.coeffs


@pytest.mark.parametrize("seed", range(4))
def test_integer_products_and_quotients_equal_the_fraction_recursions(seed):
    rng = random.Random(SEED + seed)
    for _ in range(25):
        a = mixed_series(rng, rng.randint(0, 12))
        b = mixed_series(rng, rng.randint(0, 12))
        assert exact_coeffs(a * b) == reference_product(a, b)
        assert exact_coeffs(b * a) == reference_product(a, b)
        scalar = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        assert exact_coeffs(scalar * a) == tuple(scalar * c for c in a.coeffs)
        for c0 in (Fraction(-3, 2), Fraction(5, 7), -1, 3):
            divisor = mixed_series(rng, rng.randint(0, 12), constant=c0)
            assert exact_coeffs(a / divisor) == reference_quotient(a, divisor)


def test_a_square_equals_the_product_with_a_copy():
    # a * a passes one list to the convolution; a rebuilt copy holds its own.
    rng = random.Random(SEED)
    for _ in range(40):
        a = mixed_series(rng, rng.randint(0, 20))
        rebuilt = TruncatedSeries._from_ints(list(a.numerators), a.denominator)
        assert rebuilt.numerators is not a.numerators
        assert a * a == a * copy.copy(a) == a * rebuilt == rebuilt * a
        assert exact_coeffs(a * a) == reference_product(a, a)


@pytest.mark.parametrize("seed", range(4))
def test_integer_sqrt_and_compose_equal_the_fraction_recursions(seed):
    rng = random.Random(SEED + seed)
    for _ in range(15):
        for root in (Fraction(3, 2), Fraction(1, 7), 1, Fraction(10, 3)):
            a = mixed_series(rng, rng.randint(0, 12), constant=root * root)
            assert exact_coeffs(a.sqrt()) == reference_sqrt(a, root)
        f = mixed_series(rng, rng.randint(0, 10))
        g = mixed_series(rng, rng.randint(1, 10), constant=0)
        assert exact_coeffs(f.compose(g)) == reference_compose(f, g)


@pytest.mark.parametrize("seed", range(4))
def test_linear_operations_equal_the_fraction_arithmetic(seed):
    rng = random.Random(SEED + seed)
    for _ in range(25):
        a = mixed_series(rng, rng.randint(0, 12))
        b = mixed_series(rng, rng.randint(0, 12))
        pairs = list(zip(a.coeffs, b.coeffs))
        assert exact_coeffs(a + b) == tuple(x + y for x, y in pairs)
        assert exact_coeffs(a - b) == tuple(x - y for x, y in pairs)
        assert exact_coeffs(-a) == tuple(-x for x in a.coeffs)
        scalar = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        assert exact_coeffs(a * scalar) == tuple(scalar * x for x in a.coeffs)
        assert exact_coeffs(scalar - a) == (scalar - a[0],) + tuple(-x for x in a.coeffs[1:])
        assert exact_coeffs(b - b) == (0,) * (b.order + 1) and (b - b).denominator == 1


def test_equal_series_are_equal_and_hash_equal():
    left = series([Fraction(1, 2), Fraction(1, 3)]) * 6
    right = series([3, 2])
    assert left == right and hash(left) == hash(right)
    assert (left.numerators, left.denominator) == ((3, 2), 1)
    half = series([Fraction(1, 2), Fraction(1, 4)])
    assert half + half == series([1, Fraction(1, 2)])
    assert hash(half + half) == hash(series([1, Fraction(1, 2)]))
    assert half - half == half * 0 == TruncatedSeries.constant(0, 1)
    assert len({left, right, half, half * 2 - half}) == 2


def test_the_functional_equations_build_no_fraction_until_a_residual_is_read(monkeypatch):
    import freecactus.series as series_module

    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(series_module, "Fraction", CountingFraction)
    report = check_functional_equations(*y_series(40))
    assert report.all_pass and report.failing() == []
    assert built == []
    assert report.residuals[0][1][0] == 0
    assert len(built) == 1


def test_sqrt_at_low_orders():
    assert exact_coeffs(series([Fraction(9, 4)]).sqrt()) == (Fraction(3, 2),)
    assert exact_coeffs(series([Fraction(9, 4), 3]).sqrt()) == (Fraction(3, 2), 1)
    assert exact_coeffs(series([Fraction(9, 4), Fraction(-5, 6)]).sqrt()) == (
        Fraction(3, 2),
        Fraction(-5, 18),
    )


def test_integer_results_are_fractions():
    # Integral inputs lift over the denominator 1; the results are still
    # Fractions, also where every value is an integer.
    f = series([1, 2, 3], order=4)
    g = series([1, -1], order=4)
    for result in (f * g, f / g, (f * f).sqrt(), f.compose(g - 1), f * 2, f - g):
        exact_coeffs(result)
    exact_coeffs(y_series(8)[0])


def test_error_messages_are_unchanged():
    cases = (
        (lambda: series([1, 1]) / series([0, 1]), "series division needs a unit divisor, got c_0 = 0"),
        (lambda: series([0, 1]).sqrt(), "series sqrt needs a positive constant term, got c_0 = 0"),
        (
            lambda: series([Fraction(-9, 4), 1]).sqrt(),
            "series sqrt needs a positive constant term, got c_0 = -9/4",
        ),
        (
            lambda: series([Fraction(9, 2), 1]).sqrt(),
            "series sqrt needs c_0 to be a rational square, got c_0 = 9/2",
        ),
        (lambda: series([2, 1]).sqrt(), "series sqrt needs c_0 to be a rational square, got c_0 = 2"),
        (lambda: TruncatedSeries(2, (Fraction(1),)), "order 2 needs 3 coefficients, got 1"),
        (lambda: TruncatedSeries(-1, ()), "series order must be non-negative"),
        (lambda: series([1, 2, 3, 4, 5], order=3), "5 coefficients exceed order 3"),
    )
    for call, message in cases:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call()


# --------------------------------------------------- the counting recursion


def test_recursion_frozen_tables():
    for n, want in enumerate(ALPHA, start=1):
        assert y_count_recursive(2 * n) == want
    for n, want in enumerate(BETA, start=1):
        assert y_count_recursive(2 * n - 1) == want
    with pytest.raises(ValueError):
        y_count_recursive(0)


def test_recursion_matches_enumeration_to_twelve():
    for m in range(1, 13):
        assert y_count_recursive(m) == sum(1 for _ in enumerate_y(m))


def graded_count_lists(n_max, t):
    """The counting recursion graded by level, the reference for the closed
    level sums: ``_count_lists`` with the B^2/(1 - B^2) term of A = B^2/(1 -
    B^2) + B^2/x weighted by t.  In B^2 h, the sum of (B^2)^s over s >= 1,
    the term (B^2)^s is the case where the last element's block is
    even-only with 2s elements, so every member is counted with weight
    t^level."""
    alpha, beta = [1], [0]
    b2, h = [0, 0], [1]
    for n in range(1, n_max + 1):
        beta.append(alpha[n - 1] + b2[n])
        b2.append(convolve(beta, beta, n + 1))
        h.append(convolve(b2, h, n))
        alpha.append(t * h[n] + b2[n + 1])
    return alpha, beta


@functools.lru_cache(maxsize=None)
def graded_levels(m_max):
    """The level counts of every m <= m_max from one graded run: t = 2^shift
    exceeds every family size up to m_max, so the run keeps the level counts
    of each m in separate base-t digits, lowest level first."""
    shift = y_count_recursive(m_max).bit_length()
    alpha, beta = graded_count_lists((m_max + 1) // 2, 1 << shift)
    levels = {}
    for m in range(1, m_max + 1):
        packed = alpha[m // 2] if m % 2 == 0 else beta[(m + 1) // 2]
        digits = []
        while packed:
            digits.append(packed % (1 << shift))
            packed >>= shift
        levels[m] = digits
    return levels


def test_counting_recursion_takes_two_convolutions_per_order(monkeypatch):
    import freecactus.series as series_module

    calls, real = [], convolve

    def counting(xs, ys, n):
        calls.append(n)
        return real(xs, ys, n)

    monkeypatch.setattr(series_module, "convolve", counting)
    _count_lists(40)
    assert len(calls) == 2 * 40
    monkeypatch.setitem(globals(), "convolve", counting)
    for t in (1, 7):
        calls.clear()
        graded_count_lists(40, t)
        assert len(calls) == 2 * 40, t


def test_odd_counts_match_the_lagrange_closed_form():
    """B = x phi(B) with phi(u) = 1/((1 - 2u)(1 - u^2)) is the odd quartic,
    so Lagrange inversion gives [x^n] B = [u^(n-1)] phi(u)^n / n, a double
    binomial sum that shares no code with the recursion (Flajolet and
    Sedgewick, Analytic Combinatorics, 2009, A.6)."""
    _alpha, beta = _count_lists(300)
    for n in range(1, 301):
        total = sum(
            2 ** (n - 1 - 2 * j)
            * math.comb(2 * n - 2 - 2 * j, n - 1 - 2 * j)
            * math.comb(n + j - 1, j)
            for j in range((n - 1) // 2 + 1)
        )
        assert total % n == 0 and beta[n] == total // n, n


def test_closed_sums_equal_the_counting_recursion():
    """count y reads both parities off two binomial sums; one recursion
    run to order 300 holds every value."""
    alpha, beta = _count_lists(300)
    for n in range(1, 301):
        assert y_count(2 * n - 1) == beta[n], 2 * n - 1
        assert y_count(2 * n) == alpha[n], 2 * n
    with pytest.raises(ValueError, match="at least 1"):
        y_count(0)


def test_graded_recursion_sums_to_the_family_size():
    assert graded_count_lists(100, 1) == _count_lists(100)
    for m, digits in graded_levels(200).items():
        assert sum(digits) == y_count_recursive(m), m
    assert sum(y_level_counts(200)) == y_count_recursive(200)


def test_level_sums_equal_the_graded_recursion_at_every_level():
    for m, digits in graded_levels(200).items():
        assert y_level_counts(m) == digits, m
    with pytest.raises(ValueError, match="at least 1"):
        y_level_counts(0)


def test_every_lagrange_level_term_divides_exactly():
    """Each part of a level count is a coefficient of an integer series in
    x and t, so its numerator divides by n (or n + 1) with no remainder;
    the parts of each m sum to the closed family size."""
    for m in range(1, 401):
        n = (m + 1) // 2
        if m % 2:
            parts = [
                (math.comb(n, l) * _binomial_sum(n - 1 - 2 * l, n, l), n)
                for l in range((n - 1) // 2 + 1)
            ]
        else:
            parts = [
                (2 * math.comb(n + 1, l) * _binomial_sum(n - 1 - 2 * l, n + 1, l), n + 1)
                for l in range(n // 2 + 1)
            ] + [
                (2 * math.comb(n, l - 1) * _binomial_sum(n - 2 * l, n, l + 1), n)
                for l in range(1, n // 2 + 1)
            ]
        for numerator, divisor in parts:
            assert numerator % divisor == 0, (m, numerator, divisor)
        assert sum(numerator // divisor for numerator, divisor in parts) == y_count(m), m
        assert sum(y_level_counts(m)) == y_count(m), m


@pytest.mark.parametrize("rate", [Fraction(2), Fraction(1, 3)])
def test_graded_levels_give_the_poisson_pair_cumulants(rate):
    """kappa_n(ab + ba) for two free Poisson(rate) variables is the sum of
    2 levels(2n)[r] rate^(n + 1 - r); the DP shares no code with the
    recursion, and n = 20 is far past the level scan's cap."""
    spec = CumulantSpec.free_poisson(rate)
    kappas = dp_cumulants((spec, spec), ANTICOMMUTATOR_WEIGHTS, 20)
    for n in range(1, 21):
        levels = y_level_counts(2 * n)
        value = sum(2 * c * rate ** (n + 1 - r) for r, c in enumerate(levels))
        assert value == kappas[n - 1], n


def test_y_series_shape():
    a, b = y_series(6)
    assert a.order == b.order == 6
    assert a[0] == 0 and b[0] == 0
    assert list(a.coeffs[1:]) == ALPHA[:6]
    assert list(b.coeffs[1:]) == BETA[:6]
    default_a, _default_b = y_series()
    assert default_a.order == DEFAULT_SERIES_ORDER


def test_free_poisson_pair_cumulants_frozen():
    assert free_poisson_pair_cumulants(9) == NU_CUMULANTS
    assert moments_from_cumulants(NU_CUMULANTS) == NU_MOMENTS


# --------------------------------------------------- functional equations


@pytest.mark.parametrize("order", [10, 100])
def test_functional_equations_pass_on_the_counting_pair(order):
    # The odd quartic fixes B and even_from_odd then fixes A, so this pins
    # both series to the order without the recursion's code.
    report = check_functional_equations(*y_series(order))
    assert report.all_pass
    assert report.failing() == []
    names = [name for name, _r in report.residuals]
    assert names == [
        "even_from_odd",
        "odd_from_even",
        "even_quartic",
        "odd_quartic",
    ]


def test_functional_equations_need_matching_orders():
    a, _b = y_series(6)
    _a, b = y_series(7)
    with pytest.raises(ValueError, match="match"):
        check_functional_equations(a, b)


def test_perturbed_alpha_fails_where_it_should():
    """Adding one to the third even-count breaks every equation that
    mentions A, at exactly order three, and leaves the B-only quartic
    untouched."""
    a, b = y_series(10)
    bad = list(a.coeffs)
    bad[3] += 1
    report = check_functional_equations(TruncatedSeries(10, tuple(bad)), b)
    assert not report.all_pass
    assert report.failing() == ["even_from_odd", "odd_from_even", "even_quartic"]
    residuals = dict(report.residuals)
    assert residuals["even_from_odd"].first_nonzero() == 3
    assert residuals["odd_quartic"].is_zero


def test_report_json_shape():
    report = check_functional_equations(*y_series(4))
    obj = report.to_json_obj()
    assert set(obj) == {
        "even_from_odd",
        "odd_from_even",
        "even_quartic",
        "odd_quartic",
    }
    assert all(entry["pass"] for entry in obj.values())


# ------------------------------------------------------------ closed forms


def test_minverse_closed_form_leading_coefficients():
    inv = minverse_closed_form(9)
    assert inv[0] == 0
    assert inv[1] == Fraction(1, 2)
    assert inv[2] == Fraction(-7, 4)
    with pytest.raises(ValueError):
        minverse_closed_form(0)


def test_minverse_closed_form_low_orders_truncate_order_nine():
    leading = minverse_closed_form(9).to_json_obj()
    assert minverse_closed_form(1).to_json_obj() == ["0", "1/2"] == leading[:2]
    assert minverse_closed_form(2).to_json_obj() == ["0", "1/2", "-7/4"] == leading[:3]


def test_minverse_equals_triangular_inverse_to_order_nine():
    """The closed form and the coefficient-extraction inverse of the
    truncated moment series must agree exactly; this is the inversion
    theorem at desk scale."""
    m = series([0] + NU_MOMENTS, order=9)
    assert minverse_closed_form(9) == m.comp_inverse()


def test_moment_series_composed_with_closed_form_is_identity():
    m = series([0] + NU_MOMENTS, order=9)
    assert m.compose(minverse_closed_form(9)) == TruncatedSeries.identity(9)


def test_r_m_transfer_series_content():
    rm = r_m_transfer(NU_CUMULANTS, 9)
    assert list(rm.R.coeffs) == [0] + NU_CUMULANTS
    assert list(rm.M.coeffs) == [0] + NU_MOMENTS
    rm_spec = r_m_transfer([1] * 5, 5)
    assert list(rm_spec.M.coeffs[1:]) == [1, 2, 5, 14, 42]


def test_r_m_transfer_inverse_identity_at_order_eight():
    rm = r_m_transfer(NU_CUMULANTS, 8)
    one_plus_z = series([1, 1], order=8)
    assert rm.M.comp_inverse() == rm.R.comp_inverse() / one_plus_z


def test_r_m_transfer_semicircular():
    rm = r_m_transfer([0, 1, 0, 0, 0, 0], 6)
    assert rm.R == series([0, 0, 1], order=6)
    assert list(rm.M.coeffs) == [0, 0, 1, 0, 2, 0, 5]
    with pytest.raises(ValueError, match="c_1"):
        rm.R.comp_inverse()


def test_r_m_transfer_argument_validation():
    with pytest.raises(ValueError, match="got 3"):
        r_m_transfer([1, 2, 3], 5)
    with pytest.raises(ValueError, match="order at least 1"):
        r_m_transfer(NU_CUMULANTS, 0)


# --------------------------------------------------- the Cauchy polynomial


@pytest.mark.parametrize("n_moments", [8, 30])
def test_cauchy_residual_vanishes_on_true_moments(n_moments):
    residual = cauchy_polynomial_residual(n_moments)
    assert len(residual) == n_moments + 1
    assert all(c == 0 for c in residual)


def test_cauchy_residual_vanishes_on_dp_moments():
    # The DP shares no code with the counting recursion behind the default
    # moments, so this checks the degree-six polynomial independently.
    one = CumulantSpec.free_poisson(1)
    kappas = dp_cumulants((one, one), ANTICOMMUTATOR_WEIGHTS, 30)
    moments = moments_from_cumulants(kappas)
    residual = cauchy_polynomial_residual(30, moments)
    assert len(residual) == 31
    assert all(c == 0 for c in residual)


def test_cauchy_residual_detects_a_wrong_moment():
    bad = list(NU_MOMENTS[:8])
    bad[1] = 15
    residual = cauchy_polynomial_residual(8, bad)
    assert any(c != 0 for c in residual)
    assert residual[0] == 0  # the constant term never sees m_2


def test_cauchy_residual_validation():
    with pytest.raises(ValueError, match="at least 2"):
        cauchy_polynomial_residual(1)
    with pytest.raises(ValueError, match="got 2"):
        cauchy_polynomial_residual(4, [2, 14])
