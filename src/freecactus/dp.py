"""Exact cumulants of quadratic forms in polynomial time, by an interval DP.

For free a_1..a_k and a k x k weight matrix w, the n-th moment of
Q = sum of w[c][d] a_c a_d is a sum over the colorings c_1..c_2n of the
word positions and over the non-crossing partitions of [2n] whose blocks
are single-colored:

    m_n = sum over (pi, coloring) of  prod over blocks V of kappa_|V|(a_c(V))
                                      * prod over t of w[c_(2t-1)][c_(2t)].

Splitting on the block that holds the first position of an interval (the
block-of-1 decomposition of NC(n), Nica & Speicher, *Lectures on the
Combinatorics of Free Probability*, 2006; cumulants with products as
arguments, Krawczyk & Speicher, JCTA 2000) turns this into an interval DP:

* ``F(i, j, cl, cr)`` sums over the colored non-crossing partitions of
  [i..j], given the colors cl of position i - 1 and cr of position j + 1.
  It picks the color c of the block of i and the block's last element q;
  the block's gaps and the tail [q+1..j] are independent sub-intervals.
* ``H(i, q, c)`` walks the block of color c from i to q over its elements
  i = p_1 < .. < p_r = q, multiplies the gaps ``F(p_s+1, p_(s+1)-1, c, c)``
  and applies kappa_r(a_c) when the block closes.  The tail is multiplied
  in by F, so H never needs cr.
* Each word pair (2t-1, 2t) is charged exactly once, to the piece that
  knows both endpoint colors: a nonempty interval charges the pairs that
  straddle its ends, an empty one the pair between its two neighbors.

Shifting an interval by two positions maps word pairs onto word pairs, so
every table depends on the start position only through its parity.  With
L = 2n the work is O(L^3 k) multiply-adds for H and O(L^2 k^2 + L k^3)
for F, and one table of length 2 n_max gives every moment up to n_max at
once.  The tables are filled bottom-up by length: no recursion and no
cache outliving the call.

The tables hold ints: ``cumulants.integer_tables`` scales kappa_r by D^r
and the weights by E, so m_n is an int over (D^2 E)^n.  The moment-cumulant
walk runs on those ints, and each order is divided once at the end.

ab + ba, as + sa (specs a, semicircular), ab and every quadratic form
differ only in the ``WeightMatrix``, which may be asymmetric, as for the
commutator ab - ba: ``ANTICOMMUTATOR_WEIGHTS`` and ``PRODUCT_WEIGHTS`` in
``cumulants`` are two of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from freecactus.cumulants import CumulantSpec, WeightMatrix, _moment_cumulant_walk, integer_tables
from freecactus.errors import check_cap

DEFAULT_DP_CAP = 60


def dp_cumulants(
    specs: Sequence[CumulantSpec],
    weights: WeightMatrix,
    n_max: int,
    cap: int | None = None,
) -> list[Fraction]:
    """kappa_1..kappa_{n_max} of the sum of w[c][d] a_c a_d over free a_c.

    ``weights`` is any square ``WeightMatrix``, symmetric or not, with row
    and column c belonging to ``specs[c]``.  Each spec is asked for
    cumulants up to order 2 n_max.  Raises ResourceCapError, before any
    work, when the ground set 2 n_max exceeds the cap (``DEFAULT_DP_CAP``
    unless given).
    """
    if n_max < 1:
        raise ValueError("cumulant orders start at 1")
    check_cap(2 * n_max, cap, DEFAULT_DP_CAP, f"dp order {n_max} (ground set {2 * n_max})")
    weights.check_specs(specs)
    k, size = weights.k, 2 * n_max
    colors = range(k)
    kappa, w, scale = integer_tables(specs, weights, size)
    # Every table is indexed [length][parity of the start position i].  At
    # parity 0 (i even) the pair (i - 1, i) straddles the left end: a
    # factor w[cl][c] once the color c of i is known.  The empty interval
    # carries the same pair, between its two neighbors.
    left = [[[w[cl][c] if par == 0 else 1 for c in colors] for cl in colors] for par in (0, 1)]
    f = [left]  # f[length][parity][cl][cr]
    h = [None]  # h[length][parity][c][r]: block walks with r elements
    closed = [None]  # closed[length][parity][c]: sum over r of kappa_r * walk
    for length in range(1, size + 1):
        h.append([None, None])
        closed.append([None, None])
        f.append([None, None])
        for par in (0, 1):
            walks, ends = [], []
            for c in colors:
                walk = [0] * (length + 1)
                if length == 1:
                    walk[1] = 1
                for last in range(1, length):
                    gap = f[length - last - 1][(par + last) % 2][c][c]
                    if gap:
                        for r, value in enumerate(h[last][par][c]):
                            if value:
                                walk[r + 1] += value * gap
                walks.append(walk)
                ends.append(sum(kappa[c][r] * x for r, x in enumerate(walk) if x))
            h[length][par] = walks
            closed[length][par] = ends
            # tails[c][cr]: the block of i has color c and closes after
            # `first` positions; the rest of the interval is its tail.
            tails = [[0] * k for _ in colors]
            for c in colors:
                for first in range(1, length + 1):
                    block = closed[first][par][c]
                    if block:
                        rest = f[length - first][(par + first) % 2][c]
                        for cr in colors:
                            tails[c][cr] += block * rest[cr]
            f[length][par] = [
                [sum(left[par][cl][c] * tails[c][cr] for c in colors) for cr in colors]
                for cl in colors
            ]
    # An interval [1..2n] starts odd and ends even: no pair straddles it.
    kappas = _moment_cumulant_walk([f[2 * n][1][0][0] for n in range(1, n_max + 1)], True)
    return [Fraction(x, scale**n) for n, x in enumerate(kappas, start=1)]
