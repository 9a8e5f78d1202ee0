"""Independent brute-force oracles for the test suite.

Nothing here shares an algorithm with the library: set partitions come
from restricted growth strings, crossings from the four-element
definition, Kreweras complements from a permutation composition and from
the lattice-maximality definition, moments from literal sums over all
partitions.  Slow on purpose; callers keep the sizes small.  The
partition helpers at the end have no caller in the library; ``q_count``
alone counts the library's odd-separating stream, which the tests hold to
``y_membership`` here.  ``moment_cumulant_walk`` is the library's
moment-cumulant walk with every power one more product by M, each
coefficient a literal sum: the reference for the walk that squares its
even powers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from freecactus.partitions import Partition, enumerate_y, restrict


def set_partitions(m):
    """All set partitions of [m] as tuples of ascending blocks.

    Generated through restricted growth strings: position i may reuse any
    label seen so far or open the next fresh one.  Blocks come out sorted
    by first appearance, which equals sorted-by-minimum.
    """
    if m == 0:
        yield ()
        return
    labels = [0] * m

    def rec(i, top):
        if i == m:
            blocks: dict[int, list[int]] = {}
            for pos, lab in enumerate(labels, start=1):
                blocks.setdefault(lab, []).append(pos)
            yield tuple(tuple(blocks[k]) for k in sorted(blocks))
            return
        for lab in range(top + 2):
            labels[i] = lab
            yield from rec(i + 1, max(top, lab))

    yield from rec(0, -1)


def has_crossing(blocks):
    """The four-element definition, O(m^4): some a < b < c < d with a, c
    in one block and b, d in a different one."""
    idx = {}
    for bi, block in enumerate(blocks):
        for x in block:
            idx[x] = bi
    elems = sorted(idx)
    for a, b, c, d in itertools.combinations(elems, 4):
        if idx[a] == idx[c] and idx[b] == idx[d] and idx[a] != idx[b]:
            return True
    return False


def noncrossing_partitions(m):
    return (blocks for blocks in set_partitions(m) if not has_crossing(blocks))


def refines(fine, coarse):
    """Whether every block of `fine` sits inside a block of `coarse`.
    Both are tuples of blocks over the same ground set."""
    idx = {}
    for bi, block in enumerate(coarse):
        for x in block:
            idx[x] = bi
    return all(len({idx[x] for x in block}) == 1 for block in fine)


def kreweras_by_permutation(p: Partition) -> Partition:
    """Kreweras complement as the cycle partition of sigma^-1 composed
    with the long cycle gamma = (1 2 .. n), gamma applied first; sigma
    runs through each block of p in ascending order."""
    n = p.ground_size
    sigma = {}
    for block in p.blocks:
        for a, b in zip(block, block[1:]):
            sigma[a] = b
        sigma[block[-1]] = block[0]
    sigma_inv = {v: k for k, v in sigma.items()}
    perm = {x: sigma_inv[x % n + 1] for x in range(1, n + 1)}
    seen = set()
    blocks = []
    for x in range(1, n + 1):
        if x in seen:
            continue
        cycle = []
        y = x
        while y not in seen:
            seen.add(y)
            cycle.append(y)
            y = perm[y]
        blocks.append(tuple(sorted(cycle)))
    return Partition(blocks)


def kreweras_by_maximality(p: Partition) -> Partition:
    """Kreweras complement straight from its defining property: the unique
    coarsest partition of the even interleaving positions that keeps the
    combined picture non-crossing.  Exhaustive over NC(n); keep n small."""
    n = p.ground_size
    odd_half = tuple(tuple(2 * x - 1 for x in block) for block in p.blocks)
    candidates = []
    for q in noncrossing_partitions(n):
        combined = odd_half + tuple(tuple(2 * x for x in block) for block in q)
        if not has_crossing(combined):
            candidates.append(q)
    maxima = [c for c in candidates if all(refines(other, c) for other in candidates)]
    assert len(maxima) == 1, f"expected a unique maximum, got {len(maxima)}"
    return Partition(maxima[0])


def component_count(nv, edges):
    """Connected components of a multigraph on vertices 0..nv-1, isolated
    vertices included."""
    parent = list(range(nv))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(nv)})


def simple_cycles(edges):
    """Simple cycles of a multigraph as tuples of edge indices: the
    nonempty edge subsets that are connected and give every touched vertex
    degree exactly two.  A loop contributes two to its endpoint, so a
    single loop is a cycle, and a pair of parallel edges is one."""
    for mask in range(1, 1 << len(edges)):
        chosen = [i for i in range(len(edges)) if mask >> i & 1]
        used = [edges[i] for i in chosen]
        deg: dict[int, int] = {}
        for u, v in used:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(d != 2 for d in deg.values()):
            continue
        verts = sorted(deg)
        vid = {v: i for i, v in enumerate(verts)}
        if component_count(len(verts), [(vid[u], vid[v]) for u, v in used]) == 1:
            yield tuple(chosen)


def simple_cycle_count(nv, edges):
    return sum(1 for _ in simple_cycles(edges))


def nc_sum_moment(kappa, n):
    """The length-n moment from the cumulant functional: the sum over all
    non-crossing partitions of [n] of the product of kappa(block size)."""
    total = Fraction(0)
    for blocks in noncrossing_partitions(n):
        term = Fraction(1)
        for block in blocks:
            term *= kappa(len(block))
        total += term
    return total


def moment_cumulant_walk(known, from_moments):
    """m_n = kappa_n + sum over k < n of kappa_k [z^(n-k)] M(z)^k for
    n = 1..N, with M^k = M^(k-1) M for every k; returns the side that was
    not given."""
    moments, kappas = [1], []
    powers = [None, moments]
    for n, value in enumerate(known, start=1):
        lower = 0
        for k in range(1, n):
            j = n - k
            if k > 1:
                powers[k].append(sum(powers[k - 1][i] * moments[j - i] for i in range(j + 1)))
            lower += kappas[k - 1] * powers[k][j]
        if from_moments:
            moments.append(value)
            kappas.append(value - lower)
        else:
            kappas.append(value)
            moments.append(value + lower)
        powers.append([1])
    return kappas if from_moments else moments[1:]


def word_moment_literal(kappa_of, colors):
    """Mixed moment of a colored word, summed literally: over all set
    partitions of the positions, keep the non-crossing ones refining the
    color kernel, and add the product of kappa_of(color, size) over blocks.
    This is the doubly-literal cross-check for the oracle layer."""
    total = Fraction(0)
    for blocks in set_partitions(len(colors)):
        if has_crossing(blocks):
            continue
        if any(len({colors[x - 1] for x in block}) != 1 for block in blocks):
            continue
        term = Fraction(1)
        for block in blocks:
            term *= kappa_of(colors[block[0] - 1], len(block))
        total += term
    return total


def colored_sum(nv, edges, sizes, specs, weights):
    """Sum over all k^nv vertex colorings of a multigraph of the edge
    weight product times the cumulant of each vertex's spec at its size,
    one Fraction product per coloring.  ``weights`` is a k x k nested
    sequence, ``sizes[i]`` the block size of vertex i."""
    k = len(weights)
    total = Fraction(0)
    for coloring in itertools.product(range(k), repeat=nv):
        term = Fraction(1)
        for u, v in edges:
            term *= weights[coloring[u]][coloring[v]]
        for i in range(nv):
            term *= specs[coloring[i]].kappa(sizes[i])
        total += term
    return total


def quadratic_moments_per_word(specs, weights, n_max):
    """Moments of sum w_cd a_c a_d to n_max, one Fraction sum per word: the
    j-th power expanded into its words of j letter pairs, each weighted by
    its pair weights and summed over the non-crossing partitions of its
    positions that refine its colors, one cumulant product per partition.
    ``weights`` is a ``WeightMatrix``."""
    pairs = [
        ((c, d), w)
        for c, row in enumerate(weights.entries)
        for d, w in enumerate(row)
        if w
    ]
    out = []
    for j in range(1, n_max + 1):
        partitions = list(noncrossing_partitions(2 * j))
        total = Fraction(0)
        for chosen in itertools.product(pairs, repeat=j):
            colors = [c for pair, _ in chosen for c in pair]
            weight = Fraction(1)
            for _, w in chosen:
                weight *= w
            word_moment = Fraction(0)
            for blocks in partitions:
                if all(len({colors[x - 1] for x in block}) == 1 for block in blocks):
                    term = Fraction(1)
                    for block in blocks:
                        term *= specs[colors[block[0] - 1]].kappa(len(block))
                    word_moment += term
            total += weight * word_moment
        out.append(total)
    return out


def count_nc(m):
    """Number of non-crossing partitions of {1..m} (the Catalan number C_m).

    Computed by a scan DP over open-block stack heights rather than by a
    binomial formula, so it independently cross-checks the enumeration: the
    tests assert it equals the stream length of ``iter_nc_blocks``.  State
    f[s] counts prefixes with s blocks still open; placing the next element
    either opens a block (s -> s+1) or joins the block at depth i from the
    top, closing the i blocks above it (s -> s-i for i = 0..s-1).
    """
    if m < 0:
        raise ValueError("ground set size must be non-negative")
    f = [1]
    for _ in range(m):
        g = [0] * (len(f) + 1)
        for s, c in enumerate(f):
            if not c:
                continue
            g[s + 1] += c
            for target in range(1, s + 1):
                g[target] += c
        f = g
    return sum(f)


def interleave(odd_part: Partition, even_part: Partition) -> Partition:
    """Place one partition on the odds and another on the evens of [2n].

    Element i of ``odd_part`` becomes 2i-1, element i of ``even_part``
    becomes 2i, and the blocks are kept as they are.  The result can be
    crossing even when both inputs are non-crossing; it is always
    parity-preserving, and it is the unique partition restricting to the
    two inputs on the two parity classes with no mixed block.
    """
    if odd_part.ground_size != even_part.ground_size:
        raise ValueError(
            "interleave needs two partitions of the same ground set size, got "
            f"{odd_part.ground_size} and {even_part.ground_size}"
        )
    blocks = [tuple(2 * x - 1 for x in block) for block in odd_part.blocks]
    blocks += [tuple(2 * x for x in block) for block in even_part.blocks]
    return Partition(blocks)


class YDecomposition(NamedTuple):
    """Witness that a partition separates the odd elements: each odd
    element keyed to its block, the odd-free blocks, and their count."""

    odd_blocks: dict[int, tuple[int, ...]]
    even_blocks: tuple[tuple[int, ...], ...]
    level: int


def y_membership(p: Partition):
    """Decompose p as an odd-separating partition, or return None.

    Straight from the definition: p is non-crossing (ValueError
    otherwise), its odd elements lie in pairwise distinct blocks, and each
    block holding no odd element has even size.  The decomposition keys
    each odd element's block by it, lists the odd-free blocks, and counts
    them as the level.  Crossings are read off arcs, the pairs of
    neighbours in a block: a crossing a < b < c < d narrows to neighbours
    a' < b' < c' < d' of the same two blocks, so arcs cross exactly when
    blocks do, and NC(12) is tested in O(m^2) per partition.
    """
    arcs = [(a, c) for block in p.blocks for a, c in zip(block, block[1:])]
    if any(a < b < c < d for a, c in arcs for b, d in arcs):
        raise ValueError(f"y_membership requires a non-crossing partition, got {p.to_text()!r}")
    owner = {x: block for block in p.blocks for x in block}
    odds = range(1, p.ground_size + 1, 2)
    if len({owner[x] for x in odds}) != len(odds):
        return None
    odd_free = tuple(b for b in p.blocks if not any(x % 2 for x in b))
    if any(len(b) % 2 for b in odd_free):
        return None
    return YDecomposition({x: owner[x] for x in odds}, odd_free, len(odd_free))


def q_count(p: Partition, cap=None) -> int:
    """Number of odd-separating partitions of [2n] restricting to p on evens.

    p is a non-crossing partition of [n]; the count is over odd-separating
    sigma in [2n] with restrict(sigma, {2,4,..,2n}) == p.  For the
    all-singletons p this is the Catalan number C_n.  The cap is that of
    ``enumerate_y(2n)``.
    """
    if has_crossing(p.blocks):
        raise ValueError(f"q_count requires a non-crossing partition, got {p.to_text()!r}")
    n = p.ground_size
    evens = range(2, 2 * n + 1, 2)
    return sum(1 for sigma in enumerate_y(2 * n, cap=cap) if restrict(sigma, evens) == p)
