"""Truncated formal power series over exact rationals, the counting
recursion for the odd-separating family (graded by level), and the
generating-function identities it satisfies.

A TruncatedSeries carries coefficients c_0..c_N for a fixed order N and
every operation stays exact: results of binary operations carry the
minimum order of the operands, compositional inverses come from Lagrange
inversion, and square roots branch to the positive constant term.
Products, quotients and square roots lift each operand once, by
``cumulants.lift``, to integer numerators over one denominator, take each
coefficient from the one truncated convolution ``cumulants.convolve`` on
ints and divide it once; composition and inversion inherit that through
the product and the quotient, and the counting recursion, two of the
functional equations read one coefficient at a time, runs on the same
convolution.  On top of that sit the series pair (A, B) counting the
odd-separating partitions by parity, residual checks for the four
functional equations tying them together, the closed form of the inverted
moment series, and the degree-six polynomial of the Cauchy transform."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from freecactus.cumulants import (
    CumulantSpec,
    convolve,
    format_rational,
    lift,
    moments_from_cumulants,
)

DEFAULT_SERIES_ORDER = 12


@dataclass(frozen=True)
class TruncatedSeries:
    """A power series known exactly up to and including z^order."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("series order must be non-negative")
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs)
        if len(coeffs) != self.order + 1:
            raise ValueError(
                f"order {self.order} needs {self.order + 1} coefficients, "
                f"got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    # ------------------------------------------------------- constructors

    @classmethod
    def from_coefficients(cls, values, order: int | None = None) -> "TruncatedSeries":
        """Build a series from leading coefficients, zero-padded to order."""
        vals = [Fraction(v) for v in values]
        if order is None:
            order = len(vals) - 1 if vals else 0
        if len(vals) > order + 1:
            raise ValueError(
                f"{len(vals)} coefficients exceed order {order}"
            )
        vals += [Fraction(0)] * (order + 1 - len(vals))
        return cls(order, tuple(vals))

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        return cls.from_coefficients([Fraction(value)], order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.from_coefficients([], order)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series z."""
        if order < 1:
            raise ValueError("the identity series needs order at least 1")
        return cls.from_coefficients([0, 1], order)

    # ------------------------------------------------------------- access

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(
                f"coefficient {n} is beyond the carried order {self.order}"
            )
        return self.coeffs[n]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def first_nonzero(self) -> int | None:
        """Index of the lowest nonzero coefficient, or None for the zero
        series; handy when reporting a residual that failed."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(
                f"cannot extend order {self.order} to {order}; coefficients "
                f"beyond the truncation are unknown"
            )
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def to_json_obj(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    # --------------------------------------------------------- arithmetic

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries.constant(other, self.order)
        return None

    def _aligned(self, other):
        n = min(self.order, other.order)
        return self.truncate(n), other.truncate(n), n

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, n = self._aligned(other)
        return TruncatedSeries(
            n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, n = self._aligned(other)
        (xs, da), (ys, db) = lift(a.coeffs), lift(b.coeffs)
        # Without trailing zeros, scalar and monomial factors cost O(n).
        for cs in (xs, ys):
            while cs and not cs[-1]:
                cs.pop()
        d = da * db
        return TruncatedSeries(n, tuple(Fraction(convolve(xs, ys, k), d) for k in range(n + 1)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers take non-negative integers")
        result = TruncatedSeries.constant(1, self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def __truediv__(self, other):
        """The quotient by a unit divisor, one coefficient at a time.

        On the lifted ints x and y, u_k = out_k y_0^(k+1) dx / dy is an int
        with u_k = x_k y_0^k - sum over i >= 1 of y_i y_0^(i-1) u_(k-i), so
        once the divisor's y_i carry their powers of y_0 the recursion is
        one convolution per order and never divides."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, n = self._aligned(other)
        if b.coeffs[0] == 0:
            raise ValueError(
                f"series division needs a unit divisor, got c_0 = 0"
            )
        (xs, dx), (ys, dy) = lift(a.coeffs), lift(b.coeffs)
        powers = [ys[0] ** k for k in range(n + 2)]
        # Entry 0 pairs with u_k, not yet known, so the convolution never reads it.
        scaled = [0] + [y * p for y, p in zip(ys[1:], powers)]
        u: list[int] = []
        for k in range(n + 1):
            u.append(xs[k] * powers[k] - convolve(scaled, u, k))
        return TruncatedSeries(n, tuple(Fraction(x * dy, dx * p) for x, p in zip(u, powers[1:])))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def shift_down(self, k: int = 1) -> "TruncatedSeries":
        """Divide by z^k, requiring the low coefficients to vanish.  The
        carried order drops by k since the top information is spent."""
        if k < 0 or k > self.order:
            raise ValueError(f"cannot shift a series of order {self.order} down by {k}")
        for i in range(k):
            if self.coeffs[i] != 0:
                raise ValueError(
                    f"cannot divide by z^{k}: c_{i} = {self.coeffs[i]} is nonzero"
                )
        return TruncatedSeries(self.order - k, self.coeffs[k:])

    # ------------------------------------------------ composition and roots

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner), by Horner evaluation; inner must have no constant
        term or the substitution would need infinitely many coefficients."""
        if inner.coeffs[0] != 0:
            raise ValueError(
                f"composition needs inner c_0 = 0, got c_0 = {inner.coeffs[0]}"
            )
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        result = TruncatedSeries.constant(self.coeffs[n], n)
        for k in range(n - 1, -1, -1):
            result = result * inner + self.coeffs[k]
        return result

    def comp_inverse(self) -> "TruncatedSeries":
        """The compositional inverse, by Lagrange inversion:
        [z^k] f^(-1) = [w^(k-1)] (w / f(w))^k / k.

        w / f(w) is one division of f shifted down, and its powers come one
        product each, so order N costs N products, O(N^3) in all
        (Flajolet and Sedgewick, Analytic Combinatorics, 2009, A.6)."""
        if self.coeffs[0] != 0:
            raise ValueError(
                f"compositional inverse needs c_0 = 0, got c_0 = {self.coeffs[0]}"
            )
        if self.order < 1 or self.coeffs[1] == 0:
            c1 = self.coeffs[1] if self.order >= 1 else "absent"
            raise ValueError(
                f"compositional inverse needs c_1 invertible, got c_1 = {c1}"
            )
        quotient = 1 / self.shift_down(1)
        power, inv = quotient, [Fraction(0)]
        for k in range(1, self.order + 1):
            inv.append(power[k - 1] / k)
            if k < self.order:
                power = power * quotient
        return TruncatedSeries(self.order, tuple(inv))

    def sqrt(self) -> "TruncatedSeries":
        """The square root branch with positive constant term.  Needs c_0
        to be the square of a positive rational so every later coefficient
        stays rational."""
        c0 = self.coeffs[0]
        if c0 <= 0:
            raise ValueError(
                f"series sqrt needs a positive constant term, got c_0 = {c0}"
            )
        np_, dp = c0.numerator, c0.denominator
        rn, rd = math.isqrt(np_), math.isqrt(dp)
        if rn * rn != np_ or rd * rd != dp:
            raise ValueError(
                f"series sqrt needs c_0 to be a rational square, got c_0 = {c0}"
            )
        # Over d^2 the constant term is the int square r^2, r = rn d / rd, and
        # the root v of those numerators has w_k = v_k (2r)^(2k - 1) an int.
        cs, d = lift(self.coeffs)
        two_r = 2 * rn * d // rd
        w = [0]
        for k in range(1, self.order + 1):
            w.append(cs[k] * d * two_r ** (2 * k - 2) - convolve(w, w, k))
        tail = (Fraction(x, d * two_r ** (2 * k - 1)) for k, x in enumerate(w[1:], start=1))
        return TruncatedSeries(self.order, (Fraction(rn, rd), *tail))


# --------------------------------------------------- the counting recursion


def _count_lists(n_max: int, t: int = 1) -> tuple[list[int], list[int]]:
    """Family sizes by parity: alpha[i] counts the even ground set 2i
    (alpha[0] = 1 for the empty partition), beta[i] the odd ground set
    2i - 1.

    The lists are read one order at a time off the pair's two functional
    equations, B(1 - B) = x(A + 1) and A = t B^2/(1 - B^2) + B^2/x.  With
    alpha[0] = 1 as the "+1", the first gives beta[n] = alpha[n - 1] +
    [x^n] B^2.  The second takes b2 = B^2 one order up and h = 1/(1 - B^2)
    = 1 + B^2 h, so h[n] = [x^n] B^2 h and alpha[n] = t h[n] + b2[n + 1].
    Neither b2 nor h changes below its top entry as n grows, so each order
    takes two convolutions and the run O(n_max^2) multiplications.

    In B^2 h, the sum of (B^2)^s over s >= 1, the term (B^2)^s is the case
    where the last element's block is even-only with 2s elements.  That
    sum is multiplied by ``t``, so every member is counted with weight
    t^level; t = 1 gives the plain sizes.
    """
    alpha, beta = [1], [0]
    b2, h = [0, 0], [1]
    for n in range(1, n_max + 1):
        beta.append(alpha[n - 1] + b2[n])
        b2.append(convolve(beta, beta, n + 1))
        h.append(convolve(b2, h, n))
        alpha.append(t * h[n] + b2[n + 1])
    return alpha, beta


def _family_size(m: int, t: int = 1) -> int:
    """Size of the odd-separating family on [m], each member weighted by
    t^level."""
    if m < 1:
        raise ValueError("ground set size must be at least 1")
    alpha, beta = _count_lists((m + 1) // 2, t)
    return alpha[m // 2] if m % 2 == 0 else beta[(m + 1) // 2]


def y_count_recursive(m: int) -> int:
    """Size of the odd-separating family on [m], from the recursion alone;
    no partition is ever materialized, so this reaches far beyond the
    enumeration cap."""
    return _family_size(m)


def y_level_counts(m: int) -> list[int]:
    """Histogram of the odd-separating family on [m] by level (the number
    of even-only blocks), from the graded recursion in polynomial time.

    The recursion runs at t = 2^k with 2^k above the family size, so no
    level count can carry into the next and the base-2^k digits of the
    weighted size are the histogram, lowest level first."""
    shift = y_count_recursive(m).bit_length()
    packed, mask = _family_size(m, 1 << shift), (1 << shift) - 1
    levels = []
    while packed:
        levels.append(packed & mask)
        packed >>= shift
    return levels


def y_series(order: int = DEFAULT_SERIES_ORDER) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The pair (A, B) of counting series: A collects the even ground set
    sizes, B the odd ones.  Both are constant-free by construction."""
    alpha, beta = _count_lists(order)
    a = TruncatedSeries.from_coefficients([0] + alpha[1 : order + 1], order)
    b = TruncatedSeries.from_coefficients([0] + beta[1 : order + 1], order)
    return a, b


def free_poisson_pair_cumulants(n_max: int) -> list[Fraction]:
    """kappa_n(ab + ba) for free Poisson(1) variables a and b, n up to
    n_max: twice the even-index family count, computed by recursion."""
    alpha, _beta = _count_lists(n_max)
    return [Fraction(2 * alpha[n]) for n in range(1, n_max + 1)]


# --------------------------------------------------- functional equations


@dataclass(frozen=True)
class FunctionalEquationReport:
    """Residual series for the four identities tying A and B together.
    Every residual must be the zero series for an honest counting pair."""

    residuals: tuple[tuple[str, TruncatedSeries], ...]

    @property
    def all_pass(self) -> bool:
        return all(r.is_zero for _name, r in self.residuals)

    def failing(self) -> list[str]:
        return [name for name, r in self.residuals if not r.is_zero]

    def to_json_obj(self) -> dict:
        out = {}
        for name, r in self.residuals:
            entry = {"pass": r.is_zero, "residual": r.to_json_obj()}
            if not r.is_zero:
                entry["first_nonzero_order"] = r.first_nonzero()
            out[name] = entry
        return out


def check_functional_equations(
    a: TruncatedSeries, b: TruncatedSeries
) -> FunctionalEquationReport:
    """Evaluate the four functional equations on a candidate pair.

    even_from_odd expresses A through B (the B^2/x term costs one order
    of precision) and odd_from_even goes the other way; on the counting
    pair these two restate ``_count_lists`` in series arithmetic.  The two
    quartics, which the recursion never uses, eliminate one series each:
    a degree-four relation for A + 1, and B(1 - 2B)(1 - B)(1 + B) = x."""
    if a.order != b.order:
        raise ValueError(
            f"series orders must match, got {a.order} and {b.order}"
        )
    one = TruncatedSeries.constant(1, a.order)
    x = TruncatedSeries.identity(a.order)
    b2 = b * b
    even_from_odd = a - b2 / (one - b2) - b2.shift_down(1)
    odd_from_even = b - (a + 1) * x / (one - b)
    a1 = a + 1
    a1_2 = a1 * a1
    a1_3 = a1_2 * a1
    a1_4 = a1_3 * a1
    even_quartic = (
        4 * a1_4 * x * x + 7 * a1_3 * x - 4 * a1_2 * x - 2 * a1_2 + a1 + 1
    )
    odd_quartic = b * (1 - 2 * b) * (1 - b) * (1 + b) - x
    return FunctionalEquationReport(
        (
            ("even_from_odd", even_from_odd),
            ("odd_from_even", odd_from_even),
            ("even_quartic", even_quartic),
            ("odd_quartic", odd_quartic),
        )
    )


# ------------------------------------------------------------ closed forms


def minverse_closed_form(order: int = DEFAULT_SERIES_ORDER) -> TruncatedSeries:
    """Taylor coefficients of the closed-form compositional inverse of the
    anti-commutator moment series for the free Poisson(1) pair:

        (-7z - 6 + 3 sqrt((z + 2)(9z + 2))) / (4 (z + 2)^2 (z + 1))

    The radicand expands to 4 + 20z + 9z^2, whose square root exists as a
    rational series; the denominator is a unit with constant term 16."""
    if order < 1:
        raise ValueError("closed form needs order at least 1")
    # The fixed polynomials have degree up to 3; build them at least that
    # far and cut back, so orders 1 and 2 work too.
    full = max(order, 3)
    radicand = TruncatedSeries.from_coefficients([4, 20, 9], full)
    numerator = 3 * radicand.sqrt() - TruncatedSeries.from_coefficients(
        [6, 7], full
    )
    denominator = TruncatedSeries.from_coefficients([16, 32, 20, 4], full)
    return (numerator / denominator).truncate(order)


class RMSeries(NamedTuple):
    R: TruncatedSeries
    M: TruncatedSeries


def r_m_transfer(
    cumulants: CumulantSpec | Sequence, order: int = DEFAULT_SERIES_ORDER
) -> RMSeries:
    """The cumulant series R(z) and moment series M(z) of one
    distribution, both constant-free and truncated at the same order.

    Their compositional inverses are tied by M^(-1)(z) = R^(-1)(z)/(1+z)
    whenever the inverses exist (first cumulant nonzero); tests and the
    CLI verification suite assert that identity on concrete data."""
    if order < 1:
        raise ValueError("transfer needs order at least 1")
    if isinstance(cumulants, CumulantSpec):
        spec = cumulants
    else:
        values = [Fraction(c) for c in cumulants]
        if len(values) < order:
            raise ValueError(
                f"need {order} cumulants for order {order}, got {len(values)}"
            )
        spec = CumulantSpec.explicit(values)
    kappas = [spec.kappa(n) for n in range(1, order + 1)]
    moments = moments_from_cumulants(spec, order)
    r = TruncatedSeries.from_coefficients([Fraction(0)] + kappas, order)
    m = TruncatedSeries.from_coefficients([Fraction(0)] + moments, order)
    return RMSeries(R=r, M=m)


def cauchy_polynomial_residual(
    n_moments: int, moments: Sequence | None = None
) -> list[Fraction]:
    """Substitute the Cauchy transform, as a series in w = 1/z, into the
    degree-six polynomial it must satisfy, and return the residual
    coefficients for w^0..w^{n_moments}.

    G carries m_0 = 1 on w and the j-th moment on w^(j+1).  Every
    polynomial term z^k G^j has j >= k, so no negative powers of w survive
    and the listed coefficients are exact for the given truncation.  By
    default the moments are those of the free Poisson(1) anti-commutator,
    generated from the counting recursion; passing explicit moments lets a
    caller probe how the residual reacts to wrong data."""
    if n_moments < 2:
        raise ValueError("the residual needs at least 2 moments")
    if moments is None:
        moments = moments_from_cumulants(
            CumulantSpec.explicit(free_poisson_pair_cumulants(n_moments)), n_moments
        )
    values = [Fraction(m) for m in moments]
    if len(values) < n_moments:
        raise ValueError(
            f"need {n_moments} moments, got {len(values)}"
        )
    top = n_moments + 5
    g = TruncatedSeries.from_coefficients([0, 1] + values[:n_moments], top)
    powers = {1: g}
    for j in range(2, 7):
        powers[j] = powers[j - 1] * g

    terms = (
        (2, 4, 6),
        (8, 3, 5),
        (12, 2, 4),
        (8, 1, 3),
        (2, 0, 2),
        (7, 3, 4),
        (13, 2, 3),
        (5, 1, 2),
        (-1, 0, 1),
        (-4, 2, 2),
        (-4, 1, 1),
    )
    residual = [Fraction(0)] * (n_moments + 1)
    residual[0] = Fraction(8)
    for coeff, k, j in terms:
        power = powers[j]
        for e in range(n_moments + 1):
            residual[e] += coeff * power[e + k]
    return residual
