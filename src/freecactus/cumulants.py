"""Exact free-cumulant calculus for products, anti-commutators and
weighted quadratic forms.

All values are ``fractions.Fraction``; nothing in this module touches a
float.  The central objects are distribution specs (semicircular, free
Poisson, or an explicit cumulant list) and the formulas expressing the
cumulants of ab + ba, of as + sa with s semicircular, and of a general
quadratic form sum w_ij a_i a_j, as sums over the partition and cactus
structures of the companion modules.  Every cactus route, whether it sums
over partitions or over oriented cactus classes, evaluates one colored sum
on the ``OrientedCactus`` of one outercycle walk: its degrees and its
edges.

A brute-force oracle lives here too.  It knows nothing about those
formulas: it expands powers of the expression into words, computes each
mixed word moment as a sum over color-compatible non-crossing partitions
(grouped by block profile, which is the same sum), and inverts the
moment-cumulant recursion.  The tests drive both sides against each other.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from freecactus import _core_py
from freecactus.cactus import (
    OrientedCactus,
    canonical_outercycle,
    enumerate_oriented_cacti,
    g_exponent,
    outercycle,
)
from freecactus.errors import check_cap
from freecactus.partitions import (
    Partition,
    enumerate_nc,
    enumerate_y,
    kreweras,
    level_counts,
    refines,
)

DEFAULT_ANTICOM_ORACLE_CAP = 5
DEFAULT_QUADRATIC_ORACLE_CAP = 4

# The weights of ab + ba as a quadratic form in (a, b).
ANTICOMMUTATOR_WEIGHTS = ((0, 1), (1, 0))


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


@dataclass(frozen=True)
class CumulantSpec:
    """The free-cumulant sequence of one variable.

    Three kinds: semicircular (kappa_2 = 1, everything else 0), free
    Poisson with a rate (every cumulant equals the rate), and an explicit
    finite list, zero beyond its end.
    """

    kind: str
    rate: Fraction | None = None
    values: tuple[Fraction, ...] | None = None
    name: str = ""

    @classmethod
    def semicircular(cls) -> "CumulantSpec":
        return cls(kind="semicircular", name="semicircular")

    @classmethod
    def free_poisson(cls, rate) -> "CumulantSpec":
        rate = Fraction(rate)
        return cls(
            kind="free_poisson", rate=rate, name=f"poisson:{format_rational(rate)}"
        )

    @classmethod
    def explicit(cls, values, name: str = "") -> "CumulantSpec":
        vals = tuple(Fraction(v) for v in values)
        if not name:
            name = "cumulants:[" + ",".join(format_rational(v) for v in vals) + "]"
        return cls(kind="explicit", values=vals, name=name)

    def kappa(self, n: int) -> Fraction:
        """The free cumulant of order n (n >= 1)."""
        if n < 1:
            raise ValueError("cumulant orders start at 1")
        if self.kind == "semicircular":
            return Fraction(1) if n == 2 else Fraction(0)
        if self.kind == "free_poisson":
            return self.rate
        if n <= len(self.values):
            return self.values[n - 1]
        return Fraction(0)

    def kappa_product(self, sizes: Iterable[int]) -> Fraction:
        """The product of kappa_s over ``sizes``, stopping at the first zero
        factor; the empty product is 1."""
        total = Fraction(1)
        for s in sizes:
            total *= self.kappa(s)
            if not total:
                break
        return total

    def scaled(self, t) -> "CumulantSpec":
        """The spec of t times the variable: kappa_n picks up t^n.

        Only meaningful for explicit specs and free Poisson is not closed
        under scaling, so the result is always an explicit spec; callers
        say how far it must reach via the length of the original list.
        """
        if self.kind != "explicit":
            raise ValueError("scaled() expects an explicit spec")
        t = Fraction(t)
        return CumulantSpec.explicit(
            [v * t**j for j, v in enumerate(self.values, start=1)],
            name=f"{format_rational(t)}*({self.name})",
        )


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
        values = [parse_rational(tok) for tok in inner.split(",")] if inner else []
        return CumulantSpec.explicit(values, name=text)
    raise ValueError(
        f"unknown distribution spec {text!r}; expected 'semicircular', "
        f"'poisson:<p/q>' or 'cumulants:[...]'"
    )


@dataclass(frozen=True)
class WeightMatrix:
    """A symmetric k x k matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        k = len(self.entries)
        if k < 1:
            raise ValueError("weight matrix must be at least 1x1")
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        for i, row in enumerate(rows):
            if len(row) != k:
                raise ValueError(f"weight matrix row {i} has length {len(row)}, not {k}")
        for i in range(k):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(
                        f"weight matrix is not symmetric at ({i},{j}): "
                        f"{rows[i][j]} vs {rows[j][i]}"
                    )

    @property
    def k(self) -> int:
        return len(self.entries)

    @classmethod
    def from_json_obj(cls, obj) -> "WeightMatrix":
        if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
            raise ValueError("weight matrix JSON must be an array of arrays")
        return cls(tuple(tuple(parse_rational(x) for x in row) for row in obj))

    def to_json_obj(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self.entries]


# ab + ba as a WeightMatrix: the weights of its cactus routes and its oracle.
ANTICOMMUTATOR = WeightMatrix(ANTICOMMUTATOR_WEIGHTS)


def kappa_pi(p: Partition, word: Sequence[int], specs: Sequence[CumulantSpec]) -> Fraction:
    """Product of block cumulants, zero when a block mixes colors.

    ``word[i]`` is the 0-based color of position i+1, an index into
    ``specs``.  Mixed cumulants of free variables vanish, which is what
    the zero encodes.
    """
    if len(word) != p.ground_size:
        raise ValueError(
            f"word length {len(word)} does not match ground set {p.ground_size}"
        )
    total = Fraction(1)
    for block in p.blocks:
        color = word[block[0] - 1]
        if any(word[x - 1] != color for x in block):
            return Fraction(0)
        total *= specs[color].kappa(len(block))
    return total


# ------------------------------------------------ moment-cumulant conversion


def _moment_cumulant_walk(known: Sequence, from_moments: bool) -> list[Fraction]:
    """Walk m_n = kappa_n + sum over k < n of kappa_k [z^(n-k)] M(z)^k for
    n = 1..N, with M the moment series including m_0 = 1, and return the
    side that was not given.

    ``powers[k][j]`` holds [z^j] M(z)^k.  Order n adds the antidiagonal
    k + j = n for 1 < k < n, which needs only moments below n, so one pass
    solves for m_n or kappa_n; the work is O(N^3).  ``powers[1]`` is the
    moment list itself.
    """
    moments = [Fraction(1)]
    kappas: list[Fraction] = []
    powers = [None, moments]
    for n, value in enumerate(known, start=1):
        lower = Fraction(0)
        for k in range(1, n):
            j = n - k
            if k > 1:
                prev = powers[k - 1]
                powers[k].append(sum(prev[i] * moments[j - i] for i in range(j + 1)))
            lower += kappas[k - 1] * powers[k][j]
        value = Fraction(value)
        if from_moments:
            moments.append(value)
            kappas.append(value - lower)
        else:
            kappas.append(value)
            moments.append(value + lower)
        if n > 1:
            powers.append([Fraction(1)])
    return kappas if from_moments else moments[1:]


def moments_from_cumulants(spec: CumulantSpec, n_max: int) -> list[Fraction]:
    """Moments m_1..m_{n_max} of a distribution given by its cumulants,
    through M(z) = 1 + sum over k of kappa_k z^k M(z)^k.

    This equals the sum over non-crossing partitions of block cumulant
    products; the tests check that equality against a literal
    enumeration.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return _moment_cumulant_walk([spec.kappa(n) for n in range(1, n_max + 1)], False)


def cumulants_from_moments(moments: Sequence) -> list[Fraction]:
    """Invert the moment recursion: cumulants kappa_1..kappa_N from
    moments m_1..m_N.  Exact, and mutually inverse with
    ``moments_from_cumulants``."""
    return _moment_cumulant_walk(moments, True)


# --------------------------------------------------------- closed formulas


def product_cumulant(
    a: CumulantSpec, b: CumulantSpec, n: int, cap: int | None = None
) -> Fraction:
    """kappa_n(ab) for free a, b: the sum over non-crossing partitions of
    kappa_tau(a) times kappa over the Kreweras complement of tau applied
    to b."""
    total = Fraction(0)
    for tau in enumerate_nc(n, cap=cap):
        left = a.kappa_product(map(len, tau.blocks))
        if left:
            total += left * b.kappa_product(map(len, kreweras(tau).blocks))
    return total


def anticommutator_cumulant(
    a: CumulantSpec, b: CumulantSpec, n: int, cap: int | None = None
) -> Fraction:
    """kappa_n(ab + ba) by the partition formula.

    Iterates the odd-separating partitions sigma of [2n]; pi is the
    Kreweras complement of sigma, whose block graph is then connected and
    bipartite.  At the weights of ab + ba the colored sum keeps only the
    two colorings of the bipartition (pi', pi''), so each sigma
    contributes the a/b block product plus the same with a and b
    exchanged.
    """
    total = Fraction(0)
    for sigma in enumerate_y(2 * n, cap=cap):
        cactus = canonical_outercycle(kreweras(sigma))
        assert cactus.bipartition is not None, (
            "complement of an odd-separating partition"
        )
        total += _colored_sum(cactus, (a, b), ANTICOMMUTATOR)
    return total


def anticommutator_cumulant_graphwise(
    a: CumulantSpec, b: CumulantSpec, n: int, cap: int | None = None
) -> Fraction:
    """kappa_n(ab + ba) by the cactus-class formula: over bipartite
    oriented cactus classes with n edges, 2^f_C times the colored sum at
    the weights of ab + ba.  Must agree with the partition route."""
    total = Fraction(0)
    classes = enumerate_oriented_cacti(n, bipartite_only=True, cap=cap)
    for rep, _members in classes.values():
        total += 2**rep.f_c * _colored_sum(rep, (a, b), ANTICOMMUTATOR)
    return total


def semicircular_anticommutator(
    a: CumulantSpec, m: int, cap: int | None = None
) -> Fraction:
    """kappa_m(as + sa) for s standard semicircular, free from a.

    Zero at odd orders.  At order 2n the sum runs over ALL oriented cactus
    classes with n edges, bipartite or not, each weighted 2^(g_C + 1)
    with the degree cumulants of a alone.
    """
    if m < 1:
        raise ValueError("cumulant orders start at 1")
    if m % 2:
        return Fraction(0)
    total = Fraction(0)
    for rep, _members in enumerate_oriented_cacti(m // 2, cap=cap).values():
        total += 2 ** (g_exponent(rep) + 1) * a.kappa_product(rep.degrees)
    return total


def even_anticommutator(
    a: CumulantSpec, b: CumulantSpec, m: int, cap: int | None = None
) -> Fraction:
    """kappa_m(ab + ba) for even a and b, by the double-sum formula.

    Both specs must have vanishing odd cumulants up to order m.  Odd
    orders give zero.  At order 2n the value is twice the sum over pairs
    (pi1, pi2) of non-crossing partitions of [n] with pi2 refining the
    Kreweras complement of pi1, of the doubled-block-size cumulant
    products of a over pi1 and b over pi2.
    """
    for j in range(1, m + 1, 2):
        if a.kappa(j) != 0 or b.kappa(j) != 0:
            raise ValueError(
                f"even_anticommutator needs even specs; odd cumulant of order {j} "
                f"is nonzero"
            )
    if m % 2:
        return Fraction(0)
    n = m // 2
    total = Fraction(0)
    inner_cache = list(enumerate_nc(n, cap=cap))
    for p1 in inner_cache:
        left = a.kappa_product(2 * len(block) for block in p1.blocks)
        if not left:
            continue
        bound = kreweras(p1)
        inner = Fraction(0)
        for p2 in inner_cache:
            if refines(p2, bound):
                inner += b.kappa_product(2 * len(block) for block in p2.blocks)
        total += left * inner
    return 2 * total


def _colored_sum(
    cactus: OrientedCactus, specs: Sequence[CumulantSpec], weights: WeightMatrix
) -> Fraction:
    """Sum over all vertex colorings of one cactus: the edge weight product
    times the per-vertex cumulants of the colored specs at the vertex
    degrees.  The weights are symmetric, so the direction in which
    ``renumbered_edges`` reports an edge does not matter.

    Colors are chosen depth first, vertex by vertex, and the partial
    product is carried down: vertex t brings its cumulant and the weight of
    each edge whose later endpoint is t.  A zero factor prunes every
    coloring below it.  Each vertex's cumulants are scaled to integers by
    the lcm of their denominators, and the weights likewise, so every term
    shares one denominator and the walk runs on ints.
    """
    weight_den = math.lcm(*(w.denominator for row in weights.entries for w in row))
    scaled_weights = [
        [w.numerator * (weight_den // w.denominator) for w in row]
        for row in weights.entries
    ]
    edges = cactus.renumbered_edges()
    denominator = weight_den ** len(edges)
    kappas = []
    for size in cactus.degrees:
        row = [spec.kappa(size) for spec in specs]
        den = math.lcm(*(f.denominator for f in row))
        denominator *= den
        kappas.append(
            [(c, f.numerator * (den // f.denominator)) for c, f in enumerate(row) if f]
        )
    vertex_count = cactus.vertex_count
    closing: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        closing[max(u, v)].append((u, v))
    coloring = [0] * vertex_count
    total = 0

    def extend(t: int, partial: int) -> None:
        nonlocal total
        if t == vertex_count:
            total += partial
            return
        for c, f in kappas[t]:
            coloring[t] = c
            term = partial * f
            for u, v in closing[t]:
                w = scaled_weights[coloring[u]][coloring[v]]
                if w == 0:
                    break
                term *= w
            else:
                extend(t + 1, term)

    extend(0, 1)
    return Fraction(total, denominator)


def quadratic_form_cumulant(
    specs: Sequence[CumulantSpec],
    weights: WeightMatrix,
    n: int,
    route: str = "partition",
    cap: int | None = None,
) -> Fraction:
    """kappa_n of the quadratic form sum of w_ij a_i a_j over free a_1..a_k.

    The partition route sums over connected non-crossing partitions of
    [2n] and all block colorings, each evaluated on the cactus of its
    outercycle walk.  The graph route evaluates the same sum grouped by
    oriented cactus class: the colored sum of the class representative
    times the 2^f_C class size, which is legitimate because the colored
    sum only depends on the class.  Both routes agree exactly.
    """
    if len(specs) != weights.k:
        raise ValueError(
            f"got {len(specs)} specs for a {weights.k}x{weights.k} weight matrix"
        )
    if route == "partition":
        total = Fraction(0)
        for p in enumerate_nc(2 * n, cap=cap):
            cactus = outercycle(p)
            if cactus is not None:
                total += _colored_sum(cactus, specs, weights)
        return total
    if route == "graph":
        total = Fraction(0)
        for rep, _members in enumerate_oriented_cacti(n, cap=cap).values():
            total += 2**rep.f_c * _colored_sum(rep, specs, weights)
        return total
    raise ValueError(f"route must be 'partition' or 'graph', got {route!r}")


def free_poisson_anticommutator_polynomial(n: int, cap: int | None = None) -> list[int]:
    """Coefficient sequence of the rate polynomial of kappa_n(ab + ba) for
    two free Poisson variables of the same rate.

    Returns [d_0, .., d_h]: the cumulant equals the sum of d_r times
    rate^(n+1-r), with h = floor(n/2).  Each d_r is twice the level-r
    count of odd-separating partitions of [2n]; d_0 = 2^n C_n leads."""
    counts = level_counts(2 * n, cap=cap)
    return [2 * c for c in counts]


# ------------------------------------------------------------------- oracle


@lru_cache(maxsize=4096)
def _profiles(colors: tuple[int, ...]):
    return _core_py.word_profile_counts(len(colors), colors)


def _word_moment(colors: tuple[int, ...], specs: Sequence[CumulantSpec]) -> Fraction:
    """Mixed moment of a colored word: the literal sum over color-kernel
    refining non-crossing partitions of block cumulant products, grouped
    by (color, size) block profile."""
    total = Fraction(0)
    for profile, count in _profiles(colors).items():
        term = Fraction(count)
        for color, size in profile:
            term *= specs[color].kappa(size)
            if term == 0:
                break
        total += term
    return total


def oracle_anticommutator_moments(
    a: CumulantSpec, b: CumulantSpec, n_max: int, cap: int | None = None
) -> list[Fraction]:
    """Moments of ab + ba to order n_max, from first principles only: the
    quadratic-form oracle with the weights of ab + ba, under its own cap.
    Nothing there knows about the closed formulas."""
    cap = DEFAULT_ANTICOM_ORACLE_CAP if cap is None else cap
    return oracle_quadratic_moments((a, b), ANTICOMMUTATOR, n_max, cap=cap)


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
    pairs of nonzero weight are ever expanded."""
    check_cap(n_max, cap, DEFAULT_QUADRATIC_ORACLE_CAP, f"oracle order {n_max}")
    if len(specs) != weights.k:
        raise ValueError(
            f"got {len(specs)} specs for a {weights.k}x{weights.k} weight matrix"
        )
    pairs = [
        ((c, d), w)
        for c, row in enumerate(weights.entries)
        for d, w in enumerate(row)
        if w
    ]
    out = []
    for j in range(1, n_max + 1):
        total = Fraction(0)
        for chosen in itertools.product(pairs, repeat=j):
            word = ()
            weight = Fraction(1)
            for pair, w in chosen:
                word += pair
                weight *= w
            total += weight * _word_moment(word, specs)
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
