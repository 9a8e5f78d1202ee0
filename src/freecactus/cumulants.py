"""Exact free-cumulant calculus for products, anti-commutators and
weighted quadratic forms.

All values are ``fractions.Fraction``; nothing in this module touches a
float.  The central objects are distribution specs (semicircular, free
Poisson, or an explicit cumulant list) and the formulas expressing the
cumulants of ab + ba, of as + sa with s semicircular, and of a general
quadratic form sum w_ij a_i a_j, as sums over the partition and cactus
structures of the companion modules.  Every cactus route, whether it sums
over partitions or over oriented cactus classes, evaluates one colored sum
on an ``OrientedCactus``, an outercycle signature: its degrees and its
walk.  The partition routes walk each partition with
``cactus.canonical_outercycle``; the class routes stream one generated
cactus per class from ``enumerate_oriented_cacti`` and weight it by its
class size (2^f_C, or 2^(g_C + 1) for as + sa), so no route keeps a class
table or a class's member partitions.  The colored sum takes one pass of
the signature's walk, folding each bridge and each cycle into the vertex
it hangs from as the walk returns there: O(V k^3) int products for V
vertices and k variables, where a search over colorings would take k^V.
``integer_tables`` alone scales, and every paper route reads its block
cumulant products from it: the cactus routes, the NC(n) sums of ab and of
the even pair, and ``dp`` all sum ints and divide once per order.
The series layer and the moment-cumulant conversions scale through the same
``lift``: ints over one denominator, each coefficient divided once.

A brute-force oracle lives here too.  It knows nothing about those
formulas: it expands powers of the expression into words, computes each
mixed word moment as a sum over color-compatible non-crossing partitions
(grouped by weight and block profile over the words of one order, which
is the same sum), and inverts the moment-cumulant recursion.  The
partitions of a word depend only on which of its positions share a color,
so the profile counts are computed once per color pattern and renamed to
each word's colors.  It stays on ``Fraction`` and reads neither ``lift``
nor ``integer_tables``, so it shares no scaling with the routes.  The
tests drive both sides against each other.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

from freecactus import _core_py
from freecactus.cactus import (
    OrientedCactus,
    canonical_outercycle,
    enumerate_oriented_cacti,
    g_exponent,
)
from freecactus.errors import check_cap
from freecactus.partitions import (
    Frozen,
    enumerate_connected,
    enumerate_nc,
    enumerate_y,
    kreweras,
    refines,
)

DEFAULT_ANTICOM_ORACLE_CAP = 5
DEFAULT_QUADRATIC_ORACLE_CAP = 4


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse rational {text!r}") from None


def format_rational(x: Fraction) -> str:
    """Render a rational as "p/q", or plain "p" for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class CumulantSpec(Frozen):
    """The free-cumulant sequence of one variable: kappa_r is values[r - 1]
    while r <= len(values) and tail beyond.  Semicircular is ((0, 1), 0), free
    Poisson ((), rate) and an explicit list (list, 0), so texts that give one
    list and tail are one spec."""

    __slots__ = ("values", "tail")

    def __init__(self, values: Sequence, tail=0) -> None:
        object.__setattr__(self, "values", tuple(Fraction(v) for v in values))
        object.__setattr__(self, "tail", Fraction(tail))

    @classmethod
    def semicircular(cls) -> "CumulantSpec":
        return cls((0, 1))

    @classmethod
    def free_poisson(cls, rate) -> "CumulantSpec":
        return cls((), rate)

    @classmethod
    def explicit(cls, values) -> "CumulantSpec":
        return cls(values)

    def kappa(self, n: int) -> Fraction:
        """The free cumulant of order n (n >= 1)."""
        if n < 1:
            raise ValueError("cumulant orders start at 1")
        return self.values[n - 1] if n <= len(self.values) else self.tail

    @property
    def name(self) -> str:
        """The spec in ``parse_spec``'s grammar, which has a list or a tail, not both."""
        if self.values and self.tail:
            raise ValueError(f"no spec text has both a list and a tail: {self!r}")
        if self.values == (0, 1):
            return "semicircular"
        if self.tail:
            return f"poisson:{format_rational(self.tail)}"
        return "cumulants:[" + ",".join(map(format_rational, self.values)) + "]"


def parse_spec(text: str) -> CumulantSpec:
    """Parse the distribution mini-grammar.

    Accepted forms: "semicircular", "poisson:<p/q>", and
    "cumulants:[<p/q>,<p/q>,...]".
    """
    text = text.strip()
    if text == "semicircular":
        return CumulantSpec.semicircular()
    if text.startswith("poisson:"):
        return CumulantSpec.free_poisson(parse_rational(text[len("poisson:") :]))
    if text.startswith("cumulants:"):
        body = text[len("cumulants:") :].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"malformed cumulant list in {text!r}")
        inner = body[1:-1].strip()
        return CumulantSpec.explicit(map(parse_rational, inner.split(",")) if inner else ())
    raise ValueError(
        f"unknown distribution spec {text!r}; expected 'semicircular', "
        f"'poisson:<p/q>' or 'cumulants:[...]'"
    )


class WeightMatrix(Frozen):
    """A square k x k matrix of exact rationals: w[c][d] weighs the word
    a_c a_d, so row and column c belong to the c-th variable.  Only the
    cactus routes of ``quadratic_form_cumulant`` need it symmetric."""

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        k = len(entries)
        if k < 1:
            raise ValueError("weight matrix must be at least 1x1")
        rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
        for i, row in enumerate(rows):
            if len(row) != k:
                raise ValueError(f"weight matrix row {i} has length {len(row)}, not {k}")
        object.__setattr__(self, "entries", rows)

    @property
    def k(self) -> int:
        return len(self.entries)

    def check_specs(self, specs: Sequence[CumulantSpec]) -> None:
        """Refuse a spec list that does not give one variable per row."""
        if len(specs) != self.k:
            raise ValueError(f"got {len(specs)} specs for a {self.k}x{self.k} weight matrix")

    @classmethod
    def from_json_obj(cls, obj) -> "WeightMatrix":
        if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
            raise ValueError("weight matrix JSON must be an array of arrays")
        return cls(tuple(tuple(parse_rational(x) for x in row) for row in obj))

    def to_json_obj(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self.entries]


# The forms ab + ba and ab in (a, b); as + sa is ab + ba with b = s.
ANTICOMMUTATOR_WEIGHTS = WeightMatrix(((0, 1), (1, 0)))
PRODUCT_WEIGHTS = WeightMatrix(((0, 1), (0, 0)))


def lift(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The one scaling rule: the integer numerators of ``values`` over d,
    the lcm of their denominators, and d itself (1 for no values)."""
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def convolve(xs: Sequence[int], ys: Sequence[int], n: int) -> int:
    """The one truncated convolution: [z^n] of (sum xs_i z^i)(sum ys_j z^j).
    Each list is read only as far as it reaches and counts as zero beyond,
    so a caller passes the coefficients computed so far and no index range.

    A square, ``xs is ys``, pairs x_i x_(n-i) with x_(n-i) x_i: it sums
    the terms with i < n - i once, doubles them and adds x_(n/2)^2 for even
    n, so a full-range square takes floor(n/2) + 1 products, not n + 1."""
    lo = max(0, n + 1 - len(ys))
    if xs is ys:
        half = (n - 1) // 2
        total = 2 * sum(map(mul, xs[lo : half + 1], reversed(xs[n - half : n + 1 - lo])))
        if n % 2 == 0 and lo <= n // 2:
            total += xs[n // 2] ** 2
        return total
    hi = min(n, len(xs) - 1)
    return sum(map(mul, xs[lo : hi + 1], reversed(ys[n - hi : n + 1 - lo])))


def integer_tables(
    specs: Sequence[CumulantSpec], weights: WeightMatrix, top: int
) -> tuple[list[list[int]], list[list[int]], int]:
    """The one exact scaling behind the dp and every paper route.  With D the
    lcm of the denominators of kappa_1..kappa_top over ``specs`` and E that
    of the weights: the rows kappa_r(a_c) D^r (row c, r = 0..top, zero at
    r = 0), the weights w E and the scale D^2 E.  A term of order n has
    block sizes summing to 2n and n weights: an int over scale^n."""
    flat, d = lift([spec.kappa(r) for spec in specs for r in range(1, top + 1)])
    rows = (flat[c : c + top] for c in range(0, len(flat), top))
    kappa = [[0] + [x * d**r for r, x in enumerate(row)] for row in rows]
    flat, e = lift([x for row in weights.entries for x in row])
    k = weights.k
    return kappa, [flat[i : i + k] for i in range(0, k * k, k)], d * d * e


# ------------------------------------------------ moment-cumulant conversion


def _moment_cumulant_walk(known: Sequence, from_moments: bool) -> list:
    """Walk m_n = kappa_n + sum over k < n of kappa_k [z^(n-k)] M(z)^k for
    n = 1..N, with M the moment series including m_0 = 1, and return the
    side that was not given.

    ``powers[k][j]`` holds [z^j] M(z)^k.  Order n adds the antidiagonal
    k + j = n for 1 < k < n, which needs only moments below n, so one pass
    solves for m_n or kappa_n; the work is O(N^3).  ``powers[1]`` is the
    moment list itself.  An odd power is M^(k-1) M and an even one the
    square of M^(k/2), which ``convolve`` takes at about half the products.
    Entry j of that square reads M^(k/2) only up to index j, and
    k/2 + j < n, so an earlier order has filled it and the walk stays
    online.  The unknown has coefficient 1, so the walk never divides, and
    it is homogeneous: ints scaled by s^n give ints scaled so.
    """
    moments = [1]
    kappas = []
    powers = [None, moments]
    for n, value in enumerate(known, start=1):
        lower = 0
        for k in range(1, n):
            j = n - k
            if k > 1:
                xs, ys = (powers[k - 1], moments) if k % 2 else (powers[k // 2],) * 2
                powers[k].append(convolve(xs, ys, j))
            lower += kappas[k - 1] * powers[k][j]
        if from_moments:
            moments.append(value)
            kappas.append(value - lower)
        else:
            kappas.append(value)
            moments.append(value + lower)
        if n > 1:
            powers.append([1])
    return kappas if from_moments else moments[1:]


def moments_from_cumulants(kappas: Sequence) -> list[Fraction]:
    """Moments m_1..m_N of a distribution from its cumulants
    kappa_1..kappa_N, through M(z) = 1 + sum over k of kappa_k z^k M(z)^k.
    Exact, and mutually inverse with ``cumulants_from_moments``.

    This equals the sum over non-crossing partitions of block cumulant
    products; the tests check that equality against a literal
    enumeration.
    """
    return _scaled_walk([Fraction(k) for k in kappas], False)


def cumulants_from_moments(moments: Sequence) -> list[Fraction]:
    """Cumulants kappa_1..kappa_N from moments m_1..m_N: the inverse of
    ``moments_from_cumulants``."""
    return _scaled_walk([Fraction(m) for m in moments], True)


def _scaled_walk(known: Sequence[Fraction], from_moments: bool) -> list[Fraction]:
    """The walk on ints: order n of ``known`` scaled by D^n, with D from
    ``lift``, and each result divided by D^n once."""
    ints, d = lift(known)
    walked = _moment_cumulant_walk([x * d**n for n, x in enumerate(ints)], from_moments)
    return [Fraction(x, d**n) for n, x in enumerate(walked, start=1)]


# --------------------------------------------------------- closed formulas


def product_cumulant(
    a: CumulantSpec, b: CumulantSpec, n: int, cap: int | None = None
) -> Fraction:
    """kappa_n(ab) for free a, b: the sum over non-crossing partitions of
    kappa_tau(a) times kappa over the Kreweras complement of tau applied
    to b.  The block sizes of tau and of its complement each sum to n, so
    every term is an int over scale^n on ``integer_tables``."""
    stream = enumerate_nc(n, cap=cap)
    (ka, kb), _w, scale = integer_tables((a, b), PRODUCT_WEIGHTS, n)
    total = 0
    for tau in stream:
        left = math.prod(ka[len(block)] for block in tau.blocks)
        if left:
            total += left * math.prod(kb[len(block)] for block in kreweras(tau).blocks)
    return Fraction(total, scale**n)


def anticommutator_cumulant(
    a: CumulantSpec, b: CumulantSpec, n: int, cap: int | None = None
) -> Fraction:
    """kappa_n(ab + ba) by the partition formula.

    Iterates the odd-separating partitions sigma of [2n]; pi is the
    Kreweras complement of sigma, whose block graph is then connected and
    bipartite.  At the weights of ab + ba the colored sum keeps only the
    two colorings of its two sides (pi', pi''), so each sigma
    contributes the a/b block product plus the same with a and b
    exchanged.
    """
    sized = ((1, canonical_outercycle(kreweras(sigma))) for sigma in enumerate_y(2 * n, cap=cap))
    return _cactus_sum(sized, (a, b), ANTICOMMUTATOR_WEIGHTS, n)


def anticommutator_cumulant_graphwise(
    a: CumulantSpec, b: CumulantSpec, n: int, cap: int | None = None
) -> Fraction:
    """kappa_n(ab + ba) by the cactus-class formula: over bipartite
    oriented cactus classes with n edges, 2^f_C times the colored sum at
    the weights of ab + ba.  Must agree with the partition route."""
    classes = enumerate_oriented_cacti(n, bipartite_only=True, cap=cap)
    return _cactus_sum(((2**rep.f_c, rep) for rep in classes), (a, b), ANTICOMMUTATOR_WEIGHTS, n)


def semicircular_anticommutator(
    a: CumulantSpec, m: int, cap: int | None = None
) -> Fraction:
    """kappa_m(as + sa) for s standard semicircular, free from a.

    Zero at odd orders.  At order 2n the sum runs over ALL oriented cactus
    classes with n edges, bipartite or not, each weighted 2^(g_C + 1)
    with the degree cumulants of a alone: the colored sum of a single
    variable with unit weight.
    """
    if m < 1:
        raise ValueError("cumulant orders start at 1")
    if m % 2:
        return Fraction(0)
    classes = enumerate_oriented_cacti(m // 2, cap=cap)
    sized = ((2 ** (g_exponent(rep) + 1), rep) for rep in classes)
    return _cactus_sum(sized, (a,), WeightMatrix(((1,),)), m // 2)


def even_anticommutator(
    a: CumulantSpec, b: CumulantSpec, m: int, cap: int | None = None
) -> Fraction:
    """kappa_m(ab + ba) for even a and b, by the double-sum formula.

    Both specs must have vanishing odd cumulants up to order m.  Odd
    orders give zero.  At order 2n the value is twice the sum over pairs
    (pi1, pi2) of non-crossing partitions of [n] with pi2 refining the
    Kreweras complement of pi1, of the doubled-block-size cumulant
    products of a over pi1 and b over pi2.  Each of pi1 and pi2 brings
    doubled sizes summing to m, so on ``integer_tables`` every term is an
    int over scale^m.
    """
    for j in range(1, m + 1, 2):
        if a.kappa(j) != 0 or b.kappa(j) != 0:
            raise ValueError(
                f"even_anticommutator needs even specs; odd cumulant of order {j} "
                f"is nonzero"
            )
    if m % 2:
        return Fraction(0)
    inner_cache = list(enumerate_nc(m // 2, cap=cap))
    (ka, kb), _w, scale = integer_tables((a, b), ANTICOMMUTATOR_WEIGHTS, m)
    total = 0
    for p1 in inner_cache:
        left = math.prod(ka[2 * len(block)] for block in p1.blocks)
        if not left:
            continue
        bound = kreweras(p1)
        inner = 0
        for p2 in inner_cache:
            if refines(p2, bound):
                inner += math.prod(kb[2 * len(block)] for block in p2.blocks)
        total += left * inner
    return Fraction(2 * total, scale**m)


def _colored_sum(cactus: OrientedCactus, kappa: list[list[int]], weights: list[list[int]]) -> int:
    """Sum over all vertex colorings of one cactus: the edge weight product
    times the per-vertex cumulants of the colored variables at the vertex
    degrees, on ``integer_tables``: an int, scale^n times the sum for n
    edges.  The weights must be symmetric, as they are at every caller,
    since the walk may cross an edge in either direction.

    One pass of the walk, with a stack of its open vertices, root first.
    Vertex v starts as f_v, the vector of its degree's cumulants over the
    colors (a zero vector zeroes every coloring, so the sum is 0 at once).
    A second crossing of an edge goes back along a bridge: the parent's
    vector takes the child u in as an entrywise factor W f_u.  A first
    crossing either opens the next new vertex or closes a cycle at an open
    vertex w: the open vertices above w are the cycle's others, w_1 .. w_m
    in walk order, and f_w takes the diagonal of W D_1 W ... D_m W as an
    entrywise factor, D_i the diagonal of f_{w_i}.  A loop is the cycle
    with m = 0 and a parallel pair the one with m = 1.  The root's vector
    then sums to the colored sum, in O(V k^3) int products for V vertices
    and k colors.
    """
    f = [[row[s] for row in kappa] for s in cactus.degrees]
    if not all(map(any, f)):
        return 0
    sig = cactus.signature
    stack = [0]
    crossed = 0
    for (_, e), (w, _) in zip(sig, sig[1:] + sig[:1]):
        if e < crossed:  # back along a bridge
            u = stack.pop()
            v = stack[-1]
            f[v] = [x * sum(map(mul, row, f[u])) for x, row in zip(f[v], weights)]
        elif w > stack[-1]:  # out to the next new vertex
            crossed += 1
            stack.append(w)
        else:  # round a cycle, back to the open vertex w
            crossed += 1
            at = stack.index(w)
            path = weights
            for u in stack[at + 1 :]:
                scaled = [list(map(mul, row, f[u])) for row in path]
                path = [[sum(map(mul, row, col)) for col in weights] for row in scaled]
            del stack[at + 1 :]
            f[w] = [x * path[c][c] for c, x in enumerate(f[w])]
    return sum(f[0])


def _cactus_sum(sized, specs: Sequence[CumulantSpec], weights: WeightMatrix, n: int) -> Fraction:
    """Size times the colored sum over the (size, cactus) pairs of ``sized``,
    cacti with n edges, divided once.  Streams start, and check caps, first."""
    kappa, w, scale = integer_tables(specs, weights, 2 * n)
    return Fraction(sum(size * _colored_sum(c, kappa, w) for size, c in sized), scale**n)


def quadratic_form_cumulant(
    specs: Sequence[CumulantSpec],
    weights: WeightMatrix,
    n: int,
    route: str = "partition",
    cap: int | None = None,
) -> Fraction:
    """kappa_n of the quadratic form sum of w_ij a_i a_j over free a_1..a_k.

    The partition route sums over the connected non-crossing partitions
    of [2n], streamed by ``enumerate_connected``, and all block colorings,
    each evaluated on the cactus of its outercycle walk.  The graph route
    evaluates the same sum grouped by oriented cactus class: the colored
    sum of the class representative times the 2^f_C class size, which is
    legitimate because the colored sum only depends on the class.  Both
    routes agree exactly.  A cactus edge has no word order, so both refuse
    asymmetric weights; ``dp.dp_cumulants`` takes any.
    """
    rows = weights.entries
    for j, i in itertools.combinations(range(weights.k), 2):
        if rows[i][j] != rows[j][i]:
            raise ValueError(
                f"weight matrix is not symmetric at ({i},{j}): {rows[i][j]} vs {rows[j][i]}"
            )
    weights.check_specs(specs)
    if route == "partition":
        sized = ((1, canonical_outercycle(p)) for p in enumerate_connected(n, cap=cap))
    elif route == "graph":
        sized = ((2**rep.f_c, rep) for rep in enumerate_oriented_cacti(n, cap=cap))
    else:
        raise ValueError(f"route must be 'partition' or 'graph', got {route!r}")
    return _cactus_sum(sized, specs, weights, n)


# ------------------------------------------------------------------- oracle


@lru_cache(maxsize=4096)
def _profiles(pattern: tuple[int, ...]):
    """The (color, size) profile counts of a word's monochromatic
    non-crossing partitions, for a color pattern: colors 0, 1, 2, .. by
    first occurrence.  The counts depend only on which positions share a
    color, so every word of one pattern reads one entry, its colors renamed."""
    return _core_py.word_profile_counts(pattern)


def oracle_anticommutator_moments(
    a: CumulantSpec, b: CumulantSpec, n_max: int, cap: int | None = None
) -> list[Fraction]:
    """Moments of ab + ba to order n_max, from first principles only: the
    quadratic-form oracle with the weights of ab + ba, under its own cap.
    Nothing there knows about the closed formulas."""
    cap = DEFAULT_ANTICOM_ORACLE_CAP if cap is None else cap
    return oracle_quadratic_moments((a, b), ANTICOMMUTATOR_WEIGHTS, n_max, cap=cap)


def oracle_anticommutator_cumulants(
    a: CumulantSpec, b: CumulantSpec, n_max: int, cap: int | None = None
) -> list[Fraction]:
    return cumulants_from_moments(oracle_anticommutator_moments(a, b, n_max, cap=cap))


def oracle_quadratic_moments(
    specs: Sequence[CumulantSpec],
    weights: WeightMatrix,
    n_max: int,
    cap: int | None = None,
) -> list[Fraction]:
    """Moments of the quadratic form to order n_max, by brute expansion
    into the colored words of length 2j, each weighted by the product of
    its pair weights; the j-th power is a sum over j letter pairs, so only
    pairs of nonzero weight are ever expanded.  A word's moment is the sum
    over color-kernel refining non-crossing partitions of block cumulant
    products, grouped by (color, size) block profile.  The words of order j
    extend those of order j - 1 by one pair, so each weight is one product.
    Each word's colors are relabelled 0, 1, 2, .. by first occurrence, the
    counts of that pattern read from ``_profiles``, and each profile
    renamed back to the word's colors and re-sorted.  The counts of every
    word of one order add up as ints under (weight id, profile), and the
    cumulants are multiplied once per such key."""
    check_cap(n_max, cap, DEFAULT_QUADRATIC_ORACLE_CAP, f"oracle order {n_max}")
    weights.check_specs(specs)
    pairs = [
        ((c, d), w)
        for c, row in enumerate(weights.entries)
        for d, w in enumerate(row)
        if w
    ]
    words = [((), Fraction(1))]
    out = []
    for j in range(1, n_max + 1):
        words = [(word + pair, weight * w) for word, weight in words for pair, w in pairs]
        weight_ids: dict[Fraction, int] = {}
        counts: dict[tuple, int] = {}
        for word, weight in words:
            wid = weight_ids.setdefault(weight, len(weight_ids))
            label: dict[int, int] = {}
            pattern = tuple(label.setdefault(c, len(label)) for c in word)
            named = list(label)  # named[l] is the word's color labelled l
            for profile, count in _profiles(pattern).items():
                key = (wid, tuple(sorted((named[c], size) for c, size in profile)))
                counts[key] = counts.get(key, 0) + count
        weight_of = list(weight_ids)
        total = Fraction(0)
        for (wid, profile), count in counts.items():
            term = weight_of[wid] * count
            for color, size in profile:
                term *= specs[color].kappa(size)
                if term == 0:
                    break
            total += term
        out.append(total)
    return out


def oracle_quadratic_cumulants(
    specs: Sequence[CumulantSpec],
    weights: WeightMatrix,
    n_max: int,
    cap: int | None = None,
) -> list[Fraction]:
    return cumulants_from_moments(oracle_quadratic_moments(specs, weights, n_max, cap=cap))


def random_explicit_spec(rng: random.Random, length: int) -> CumulantSpec:
    """A reproducible random explicit spec: numerators in [-3, 3],
    denominators in {1, 2, 3}.  Shared by the property tests and the
    verification suites so both exercise the same distribution family."""
    values = [
        Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(length)
    ]
    return CumulantSpec.explicit(values)
