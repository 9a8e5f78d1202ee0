"""Truncated formal power series over exact rationals, the counting
recursion for the odd-separating family, closed binomial sums for its size
and levels, and the generating-function identities it satisfies.

A TruncatedSeries holds coefficients c_0..c_N for a fixed order N as int
numerators over one positive denominator in lowest terms, and every
operation stays exact: results of binary operations carry the minimum
order of the operands, compositional inverses come from Lagrange
inversion, and square roots branch to the positive constant term.  Each
operation works on the numerators alone, shifts a product by a monomial,
takes any other from ``cumulants.convolve``, the one truncated convolution,
and reduces its result once, by one gcd; a ``Fraction`` is built only
when a coefficient is read.  The counting recursion, two of the functional
equations read one coefficient at a time, runs on the same convolution.
On top of that sit the series pair (A, B) counting the odd-separating
partitions by parity, residual checks for the four functional equations
tying them together, the closed form of the inverted moment series, and
the degree-six polynomial of the Cauchy transform."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from freecactus.cumulants import (
    CumulantSpec,
    convolve,
    format_rational,
    lift,
    moments_from_cumulants,
)
from freecactus.partitions import Frozen

DEFAULT_SERIES_ORDER = 12


def _trimmed(nums: tuple[int, ...], n: int) -> tuple[int, ...]:
    """nums[0..n] without trailing zeros."""
    while n >= 0 and not nums[n]:
        n -= 1
    return nums[: n + 1]


class TruncatedSeries(Frozen):
    """A power series known exactly up to and including z^order.

    It is held as int ``numerators`` over one positive ``denominator`` in
    lowest terms: the gcd of the denominator and every numerator is 1, and
    the zero series has denominator 1.  That form is unique, so equality
    and hashing are those of the coefficients.  ``coeffs`` and indexing
    hand the coefficients out as ``Fraction``s."""

    __slots__ = ("order", "numerators", "denominator")

    def __init__(self, order: int, coeffs) -> None:
        if order < 0:
            raise ValueError("series order must be non-negative")
        values = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(values) != order + 1:
            raise ValueError(
                f"order {order} needs {order + 1} coefficients, got {len(values)}"
            )
        # Over the lcm of the reduced denominators no common factor is left.
        nums, den = lift(values)
        self._store(tuple(nums), den)

    def _store(self, nums: tuple[int, ...], den: int) -> None:
        object.__setattr__(self, "order", len(nums) - 1)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def _from_ints(cls, nums, den: int) -> "TruncatedSeries":
        """The series with coefficients nums[k] / den, for den > 0, brought
        to lowest terms by one gcd."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        series = cls.__new__(cls)
        series._store(tuple(nums), den)
        return series

    # ------------------------------------------------------- constructors

    @classmethod
    def from_coefficients(cls, values, order: int | None = None) -> "TruncatedSeries":
        """Build a series from leading coefficients, zero-padded to order."""
        vals = list(values)
        if order is None:
            order = len(vals) - 1 if vals else 0
        if len(vals) > order + 1:
            raise ValueError(
                f"{len(vals)} coefficients exceed order {order}"
            )
        return cls(order, vals + [0] * (order + 1 - len(vals)))

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        return cls.from_coefficients([value], order)

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
        return Fraction(self.numerators[n], self.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    @property
    def is_zero(self) -> bool:
        return not any(self.numerators)

    def first_nonzero(self) -> int | None:
        """Index of the lowest nonzero coefficient, or None for the zero
        series; handy when reporting a residual that failed."""
        for i, x in enumerate(self.numerators):
            if x:
                return i
        return None

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(
                f"cannot extend order {self.order} to {order}; coefficients "
                f"beyond the truncation are unknown"
            )
        return TruncatedSeries._from_ints(self.numerators[: order + 1], self.denominator)

    def to_json_obj(self) -> list[str]:
        if self.denominator == 1:
            return [str(x) for x in self.numerators]
        return [format_rational(c) for c in self.coeffs]

    # --------------------------------------------------------- arithmetic

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries._from_ints(
                (other.numerator,) + (0,) * self.order, other.denominator
            )
        return None

    def _sum(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * other over the lcm of the two denominators; zip
        stops at the shorter operand, which is the minimum order."""
        da, db = self.denominator, other.denominator
        den = da // math.gcd(da, db) * db
        sa, sb = den // da, sign * (den // db)
        return TruncatedSeries._from_ints(
            [x * sa + y * sb for x, y in zip(self.numerators, other.numerators)], den
        )

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._from_ints([-x for x in self.numerators], self.denominator)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._sum(self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n, den = min(self.order, other.order), self.denominator * other.denominator
        xs, ys = _trimmed(self.numerators, n), _trimmed(other.numerators, n)
        if not any(ys[:-1]):
            xs, ys = ys, xs
        if xs and not any(xs[:-1]):
            # A scalar or monomial c z^j shifts the other factor by j and scales it by c.
            shifted = [0] * (len(xs) - 1) + [xs[-1] * y for y in ys] + [0] * (n + 1)
            return TruncatedSeries._from_ints(shifted[: n + 1], den)
        return TruncatedSeries._from_ints([convolve(xs, ys, k) for k in range(n + 1)], den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The quotient by a unit divisor, one coefficient at a time.

        On the numerators x over dx and y over dy, u_k = out_k y_0^(k+1)
        dx / dy is an int with u_k = x_k y_0^k - sum over i >= 1 of
        y_i y_0^(i-1) u_(k-i), so once the divisor's y_i carry their powers
        of y_0 the recursion is one convolution per order and never
        divides.  Over dx y_0^(n+1) the quotient's numerators are
        u_k y_0^(n-k) dy."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        xs, ys = self.numerators, other.numerators
        if not ys[0]:
            raise ValueError(
                f"series division needs a unit divisor, got c_0 = 0"
            )
        powers = [ys[0] ** k for k in range(n + 2)]
        # Entry 0 pairs with u_k, not yet known, so the convolution never reads it.
        scaled = [0] + [y * p for y, p in zip(ys[1 : n + 1], powers)]
        u: list[int] = []
        for k in range(n + 1):
            u.append(xs[k] * powers[k] - convolve(scaled, u, k))
        dy, den = other.denominator, self.denominator * powers[n + 1]
        if den < 0:
            dy, den = -dy, -den
        return TruncatedSeries._from_ints(
            [x * p * dy for x, p in zip(u, reversed(powers[: n + 1]))], den
        )

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
            if self.numerators[i]:
                raise ValueError(
                    f"cannot divide by z^{k}: c_{i} = {self[i]} is nonzero"
                )
        return TruncatedSeries._from_ints(self.numerators[k:], self.denominator)

    # ------------------------------------------------ composition and roots

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner), by Horner evaluation; inner must have no constant
        term or the substitution would need infinitely many coefficients.

        On the numerators f of self and y over d of inner, the partial sum
        after c_k is r / d^(n-k) with r = r y + f_k d^(n-k), so the Horner
        loop runs on ints and the result is r over the two denominators
        and d^n."""
        if inner.numerators[0]:
            raise ValueError(
                f"composition needs inner c_0 = 0, got c_0 = {inner[0]}"
            )
        n = min(self.order, inner.order)
        fs, ys, d = self.numerators, _trimmed(inner.numerators, n), inner.denominator
        r, scale = [fs[n]], 1
        for k in range(n - 1, -1, -1):
            scale *= d
            r = [convolve(r, ys, i) for i in range(n + 1)]
            r[0] += fs[k] * scale
        return TruncatedSeries._from_ints(r, self.denominator * scale)

    def comp_inverse(self) -> "TruncatedSeries":
        """The compositional inverse, by Lagrange inversion:
        [z^k] f^(-1) = [w^(k-1)] (w / f(w))^k / k.

        w / f(w) is one division of f shifted down, and its powers come one
        product each, so order N costs N products, O(N^3) in all
        (Flajolet and Sedgewick, Analytic Combinatorics, 2009, A.6)."""
        if self.numerators[0]:
            raise ValueError(
                f"compositional inverse needs c_0 = 0, got c_0 = {self[0]}"
            )
        if self.order < 1 or not self.numerators[1]:
            c1 = self[1] if self.order >= 1 else "absent"
            raise ValueError(
                f"compositional inverse needs c_1 invertible, got c_1 = {c1}"
            )
        quotient = 1 / self.shift_down(1)
        power, nums, dens = quotient, [0], [1]
        for k in range(1, self.order + 1):
            nums.append(power.numerators[k - 1])
            dens.append(k * power.denominator)
            if k < self.order:
                power = power * quotient
        den = math.lcm(*dens)
        return TruncatedSeries._from_ints([x * (den // e) for x, e in zip(nums, dens)], den)

    def sqrt(self) -> "TruncatedSeries":
        """The square root branch with positive constant term.  Needs c_0
        to be the square of a positive rational so every later coefficient
        stays rational."""
        cs, d = self.numerators, self.denominator
        if cs[0] <= 0:
            raise ValueError(
                f"series sqrt needs a positive constant term, got c_0 = {self[0]}"
            )
        g = math.gcd(cs[0], d)
        np_, dp = cs[0] // g, d // g
        rn, rd = math.isqrt(np_), math.isqrt(dp)
        if rn * rn != np_ or rd * rd != dp:
            raise ValueError(
                f"series sqrt needs c_0 to be a rational square, got c_0 = {self[0]}"
            )
        # Over d^2 the constant term is the int square r^2, r = rn d / rd, and
        # the root v of those numerators has w_k = v_k (2r)^(2k - 1) an int,
        # so over d (2r)^(2n) the root's numerators are w_k (2r)^(2n - 2k + 1).
        n, two_r = self.order, 2 * rn * d // rd
        w = [0]
        for k in range(1, n + 1):
            w.append(cs[k] * d * two_r ** (2 * k - 2) - convolve(w, w, k))
        den = d * two_r ** (2 * n)
        tail = [x * two_r ** (2 * (n - k) + 1) for k, x in enumerate(w[1:], start=1)]
        return TruncatedSeries._from_ints([rn * (den // rd), *tail], den)


# --------------------------------------------------- the counting recursion


def _count_lists(n_max: int) -> tuple[list[int], list[int]]:
    """Family sizes by parity: alpha[i] counts the even ground set 2i
    (alpha[0] = 1 for the empty partition), beta[i] the odd ground set
    2i - 1.

    The lists are read one order at a time off the pair's two functional
    equations, B(1 - B) = x(A + 1) and A = B^2/(1 - B^2) + B^2/x.  With
    alpha[0] = 1 as the "+1", the first gives beta[n] = alpha[n - 1] +
    [x^n] B^2.  The second takes b2 = B^2 one order up and h = 1/(1 - B^2)
    = 1 + B^2 h, so h[n] = [x^n] B^2 h and alpha[n] = h[n] + b2[n + 1].
    Neither b2 nor h changes below its top entry as n grows, so each order
    takes two convolutions and the run O(n_max^2) multiplications.
    """
    alpha, beta = [1], [0]
    b2, h = [0, 0], [1]
    for n in range(1, n_max + 1):
        beta.append(alpha[n - 1] + b2[n])
        b2.append(convolve(beta, beta, n + 1))
        h.append(convolve(b2, h, n))
        alpha.append(h[n] + b2[n + 1])
    return alpha, beta


def y_count_recursive(m: int) -> int:
    """Size of the odd-separating family on [m], from the recursion alone;
    no partition is ever materialized, so this reaches far beyond the
    enumeration cap."""
    if m < 1:
        raise ValueError("ground set size must be at least 1")
    alpha, beta = _count_lists((m + 1) // 2)
    return alpha[m // 2] if m % 2 == 0 else beta[(m + 1) // 2]


def _binomial_sum(k: int, p: int, q: int) -> int:
    """c(k, p, q) = [u^k] (1 - 2u)^(-p) (1 - u^2)^(-q), the sum over j of
    2^(k-2j) C(p+k-2j-1, k-2j) C(q+j-1, j), each term stepped from the last
    by its ratio (i - 1) i (q + j) / (4 (p + i - 2) (p + i - 1) (j + 1)),
    i = k - 2j, which divides exactly since both terms are ints."""
    if k < 0:
        return 0
    term = 2**k * math.comb(p + k - 1, k)
    total = term
    for j in range(k // 2):
        i = k - 2 * j
        term = term * (i - 1) * i * (q + j) // (4 * (p + i - 2) * (p + i - 1) * (j + 1))
        total += term
    return total


def y_count(m: int) -> int:
    """Size of the odd-separating family on [m] from closed binomial sums.

    The odd quartic is B = x phi(B) with phi(u) = 1/((1 - 2u)(1 - u^2)), so
    Lagrange inversion gives beta(n) = [u^(n-1)] phi^n / n = c(n-1, n, n)/n.
    Lagrange-Buermann on A = B^2/(1 - B^2) + B^2/x gives alpha(n) =
    2 c(n-2, n, n+2)/n + 2 c(n-1, n+1, n+1)/(n+1), each part the integer
    [x^n] of a series in B (Flajolet and Sedgewick, Analytic Combinatorics,
    2009, A.6).  That is O(m) steps of a big integer times small ones where
    the recursion takes O(m^2) big-integer products; ``y_count_recursive``
    stays as the reference."""
    if m < 1:
        raise ValueError("ground set size must be at least 1")
    n = (m + 1) // 2
    if m % 2:
        return _binomial_sum(n - 1, n, n) // n
    # [x^n] B^2/(1 - B^2), the members whose last block is even-only
    even_only = 2 * _binomial_sum(n - 2, n, n + 2) // n
    return even_only + 2 * _binomial_sum(n - 1, n + 1, n + 1) // (n + 1)


def y_level_counts(m: int) -> list[int]:
    """Histogram of the odd-separating family on [m] by level (the number
    of even-only blocks), lowest level first, from closed binomial sums.

    A weight t per even-only block makes the odd quartic B = x phi(B) with
    phi(u) = (1 + t u^2/(1 - u^2))/(1 - 2u).  As in ``y_count``, level l of
    the ground set 2n - 1 is C(n, l) c(n-1-2l, n, l)/n, and A = t B^2/(1 -
    B^2) + B^2/x gives that of 2n as 2 C(n, l-1) c(n-2l, n, l+1)/n +
    2 C(n+1, l) c(n-1-2l, n+1, l)/(n+1); each part is the integer
    [x^n t^l] of a series in B, and the top level is never zero."""
    if m < 1:
        raise ValueError("ground set size must be at least 1")
    n = (m + 1) // 2
    if m % 2:
        return [
            math.comb(n, l) * _binomial_sum(n - 1 - 2 * l, n, l) // n for l in range((n + 1) // 2)
        ]
    return [
        # [x^n] t B^2/(1 - B^2), the members whose last block is even-only; none at level 0
        (l and 2 * math.comb(n, l - 1) * _binomial_sum(n - 2 * l, n, l + 1) // n)
        + 2 * math.comb(n + 1, l) * _binomial_sum(n - 1 - 2 * l, n + 1, l) // (n + 1)
        for l in range(n // 2 + 1)
    ]


def y_series(order: int = DEFAULT_SERIES_ORDER) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The pair (A, B) of counting series: A collects the even ground set
    sizes, B the odd ones.  Both are constant-free by construction."""
    alpha, beta = _count_lists(order)
    a = TruncatedSeries._from_ints([0] + alpha[1 : order + 1], 1)
    b = TruncatedSeries._from_ints([0] + beta[1 : order + 1], 1)
    return a, b


def free_poisson_pair_cumulants(n_max: int) -> list[Fraction]:
    """kappa_n(ab + ba) for free Poisson(1) variables a and b, n up to
    n_max: twice the even-index family count, computed by recursion."""
    alpha, _beta = _count_lists(n_max)
    return [Fraction(2 * alpha[n]) for n in range(1, n_max + 1)]


# --------------------------------------------------- functional equations


class FunctionalEquationReport(NamedTuple):
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


def r_m_transfer(cumulants: Sequence, order: int = DEFAULT_SERIES_ORDER) -> RMSeries:
    """The cumulant series R(z) and moment series M(z) of the distribution
    with the given cumulant list kappa_1, kappa_2, .., both constant-free
    and truncated at ``order``; the list needs at least ``order`` entries.

    Their compositional inverses are tied by M^(-1)(z) = R^(-1)(z)/(1+z)
    whenever the inverses exist (first cumulant nonzero); tests and the
    CLI verification suite assert that identity on concrete data."""
    if order < 1:
        raise ValueError("transfer needs order at least 1")
    kappas = [Fraction(c) for c in cumulants]
    if len(kappas) < order:
        raise ValueError(f"need {order} cumulants for order {order}, got {len(kappas)}")
    kappas = kappas[:order]
    moments = moments_from_cumulants(CumulantSpec.explicit(kappas), order)
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
    values = list(moments)
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
    # The terms' numerators summed over the lcm of the powers' denominators.
    den = math.lcm(*(power.denominator for power in powers.values()))
    residual = [8 * den] + [0] * n_moments
    for coeff, k, j in terms:
        power = powers[j]
        scale = coeff * (den // power.denominator)
        residual = [r + scale * x for r, x in zip(residual, power.numerators[k:])]
    return [Fraction(x, den) for x in residual]
