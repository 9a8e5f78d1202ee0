"""Block multigraphs of partitions, cactus structure, and oriented outercycles.

A partition p of [2n] induces a multigraph: one vertex per block (indexed
in block-minimum order) and one edge per consecutive pair, edge k running
from the block containing 2k-1 to the block containing 2k.  Loops and
parallel edges are expected and meaningful.  When the graph is connected
it is in fact a cactus (every edge on at most one simple cycle), and a
canonical closed walk along its outer face, the outercycle, is obtained
by following the orbit of element 1 under "swap within the pair, then
step within the block".

The outercycle, renumbered by first visit, is a complete combinatorial
invariant of the oriented cactus.  ``canonical_outercycle`` is the one
walk: the partition routes, the ``enumerate cacti`` listing, the
self-checks and the tests evaluate the ``OrientedCactus`` it returns,
which is the signature alone, and it refuses a disconnected graph (the
walk then misses a block).  The partitions they walk come from
``partitions.enumerate_connected``, which prunes the disconnected ones
inside the NC(2n) recursion.
``enumerate_oriented_cacti`` walks no partition: its ``ClassStream``
runs a depth-first search along the walk of the plane-cactus
decomposition (at each vertex a sequence of blocks, each a bridge or a
cycle) afresh for each iteration or count, yielding each class once,
signature first, and keeping no table.  A class holds exactly 2^f_C
partitions, so the class routes weight that one cactus by its class size.
``build_graph``, ``is_connected``, ``bipartition`` and
``validate_cactus`` are the independent graph-side reference for the
self-checks and the tests only.  They search no graph of their own: every
question they ask, connectivity, two-coloring (on the bipartite double
cover), the blocks and the cycles of an edge subset, is answered by
``partitions.union_find_roots``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple

from freecactus.errors import check_cap
from freecactus.partitions import DEFAULT_ENUMERATION_CAP, Frozen, Partition, union_find_roots

Signature = tuple[tuple[int, int], ...]


class BlockMultigraph(NamedTuple):
    """The block multigraph of a partition of [2n].

    ``edges[k]`` is the ordered endpoint pair of edge k+1; ``vertex_degrees``
    counts loops twice, and equals the block sizes of the source partition.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    vertex_degrees: tuple[int, ...]


class CactusValidation(NamedTuple):
    """Result of ``validate_cactus``."""

    is_cactus: bool
    edge_rigidity: tuple[bool, ...]
    simple_cycle_count: int


class OrientedCactus(Frozen):
    """An oriented cactus class, held as its canonical outercycle.

    ``signature`` lists the walk as (vertex, edge) pairs with both ids
    renumbered by first visit; it determines the oriented cactus up to
    automorphism, so it is the only field, and equality and hashing are
    those of the class.  Everything else is read off the signature on
    each access, with no cache.  ``edge_rigidity`` is indexed by
    renumbered edge id; rigid edges (those on a simple cycle) appear once
    in the walk, flexible ones twice.  ``f_c`` counts the flexible edges,
    leaving out the first edge of the walk when that edge is flexible; it
    reads the count off the walk's edge column, with no ``edge_rigidity``.
    ``bipartition`` is present iff the graph is bipartite; its first part
    contains vertex 0, the start of the walk.
    """

    __slots__ = ("signature",)

    def __init__(self, signature: Signature) -> None:
        object.__setattr__(self, "signature", signature)

    @property
    def edge_rigidity(self) -> tuple[bool, ...]:
        visits = Counter(e for _, e in self.signature)
        assert max(visits.values()) <= 2  # every edge is walked once or twice
        return tuple(visits[e] == 1 for e in range(len(visits)))

    @property
    def first_edge_rigid(self) -> bool:
        """Edge 0 is rigid when the walk crosses it only at its start."""
        _, edges = zip(*self.signature)
        return 0 not in edges[1:]

    @property
    def f_c(self) -> int:
        """The walk crosses each flexible edge twice and each rigid one once,
        so the flexible edges number the walk length less the edge count,
        both read off the edge column, unzipped once; edge 0 is left out
        when the walk crosses it again after its start."""
        _, edges = zip(*self.signature)
        return len(edges) - 1 - max(edges) - (0 in edges[1:])

    @property
    def vertex_count(self) -> int:
        return 1 + max(v for v, _ in self.signature)

    @property
    def degrees(self) -> tuple[int, ...]:
        """Loops count twice, so these are the block sizes of a member.
        Each edge adds its endpoints at its first crossing, found as in
        ``renumbered_edges`` but without building the edge tuple."""
        sig = self.signature
        degrees = [0] * self.vertex_count
        edges = 0
        for (v, e), (w, _) in zip(sig, sig[1:] + sig[:1]):
            if e == edges:
                edges += 1
                degrees[v] += 1
                degrees[w] += 1
        return tuple(degrees)

    @property
    def bipartition(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Colors alternate along the walk, closing step included; the
        walk crosses every edge, so they two-color the graph or clash."""
        color: list[int] = []
        prev = 1  # so that vertex 0 gets color 0
        for v, _ in self.signature:
            if v == len(color):
                prev = 1 - prev
                color.append(prev)
            elif color[v] == prev:
                return None
            else:
                prev = color[v]
        if prev == 0:
            return None  # the closing step returns to vertex 0
        return (
            tuple(v for v, c in enumerate(color) if c == 0),
            tuple(v for v, c in enumerate(color) if c == 1),
        )

    def renumbered_edges(self) -> tuple[tuple[int, int], ...]:
        """Endpoint pairs by renumbered edge id, recovered from the walk.

        Edge e_i of the signature joins v_i to v_{i+1} (cyclically), since
        the walk crosses the edge between the two entries; ids count first
        visits, so e_i is new exactly when it equals the edges met so far.
        The pair is reported in first-traversal order, which is not
        necessarily the source partition's edge direction.
        """
        sig = self.signature
        ends: list[tuple[int, int]] = []
        for (v, e), (w, _) in zip(sig, sig[1:] + sig[:1]):
            if e == len(ends):
                ends.append((v, w))
        return tuple(ends)

    def to_json_obj(self) -> dict:
        parts = self.bipartition
        return {
            "signature": [list(pair) for pair in self.signature],
            "rigid": list(self.edge_rigidity),
            "fC": self.f_c,
            "bipartition": None if parts is None else [list(part) for part in parts],
            "degrees": list(self.degrees),
        }


def build_graph(p: Partition) -> BlockMultigraph:
    """Block multigraph of a partition of [2n]; edge k runs from the block
    of 2k-1 to the block of 2k.  Vertex degrees equal block sizes."""
    if p.ground_size % 2:
        raise ValueError("block multigraphs need an even ground set")
    where = [0] * (p.ground_size + 1)
    for i, block in enumerate(p.blocks):
        for x in block:
            where[x] = i
    edges = tuple(zip(where[1::2], where[2::2]))
    return BlockMultigraph(len(p), edges, p.block_sizes())


def is_connected(g: BlockMultigraph) -> bool:
    return len(set(union_find_roots(g.vertex_count, g.edges))) == 1


def bipartition(g: BlockMultigraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two-color g from vertex 0, the block of 1, on its double cover.

    The cover has vertices v and v + N, N the vertex count, and each edge
    joins opposite sides, so v meets v + N exactly along an odd closed
    walk.  Returns (V', V'') with vertex 0 in V', the vertices the cover
    joins to 0, or None when some cycle is odd (a loop counts as an odd
    cycle).  The graph must be connected: v is reached from 0 exactly
    when the cover joins it to 0 or to 0 + N.
    """
    n = g.vertex_count
    cover = [(u, v + n) for u, v in g.edges] + [(u + n, v) for u, v in g.edges]
    roots = union_find_roots(2 * n, cover)
    if any(roots[v] not in (roots[0], roots[n]) for v in range(n)):
        raise ValueError("bipartition needs a connected graph")
    if any(roots[v] == roots[v + n] for v in range(n)):
        return None
    side0 = tuple(v for v in range(n) if roots[v] == roots[0])
    side1 = tuple(v for v in range(n) if roots[v] != roots[0])
    return side0, side1


def _biconnected_edge_components(g: BlockMultigraph) -> list[list[int]]:
    """Edge ids grouped by biconnected component; loops excluded.

    Two edges at a vertex x share a block exactly when their other ends
    are joined in g - x (a parallel pair shares its other end), and edges
    of one block are linked by such pairs, so union-find over the edges
    closes that relation into the blocks.  Each edge at x is linked to
    the first edge at x whose other end has the same root in g - x; a
    vertex with fewer than two such edges links nothing.
    """
    links = []
    for x in range(g.vertex_count):
        at_x = [(eid, u + v - x) for eid, (u, v) in enumerate(g.edges) if (u == x) != (v == x)]
        if len(at_x) < 2:
            continue
        roots = union_find_roots(g.vertex_count, (e for e in g.edges if x not in e))
        first: dict[int, int] = {}
        links += [(eid, first.setdefault(roots[y], eid)) for eid, y in at_x]
    components: dict[int, list[int]] = {}
    for eid, root in enumerate(union_find_roots(len(g.edges), links)):
        if g.edges[eid][0] != g.edges[eid][1]:
            components.setdefault(root, []).append(eid)
    return list(components.values())


def validate_cactus(g: BlockMultigraph) -> CactusValidation:
    """Check the cactus property and classify edges.

    An edge is rigid when it lies on a simple cycle (a loop, one of a
    parallel pair, or part of a longer cycle) and flexible when it is a
    bridge.  The graph is a cactus when no edge lies on two simple cycles,
    i.e. when every biconnected component is a single edge or a plain
    cycle.  ``simple_cycle_count`` is exact either way: a non-cactus
    component is counted by exhausting its edge subsets, exponential in
    that component's edge count.  No enumeration route calls this; the
    self-checks and the tests keep their graphs small.
    """
    if not is_connected(g):
        raise ValueError("validate_cactus needs a connected graph")
    rigidity = [False] * len(g.edges)
    cycles = 0
    for eid, (u, v) in enumerate(g.edges):
        if u == v:
            rigidity[eid] = True
            cycles += 1
    is_cactus = True
    for comp in _biconnected_edge_components(g):
        if len(comp) == 1:
            continue  # a bridge
        verts = set()
        for eid in comp:
            verts.update(g.edges[eid])
        for eid in comp:
            rigidity[eid] = True
        if len(comp) == len(verts):
            cycles += 1
        else:
            is_cactus = False
            cycles += _count_cycles_exhaustively(g, comp)
    return CactusValidation(is_cactus, tuple(rigidity), cycles)


def _count_cycles_exhaustively(g: BlockMultigraph, edge_ids: list[int]) -> int:
    """Simple cycles inside one biconnected component, by edge subsets."""
    total = 0
    k = len(edge_ids)
    for mask in range(1, 1 << k):
        used = [g.edges[edge_ids[i]] for i in range(k) if mask >> i & 1]
        deg: dict[int, int] = {}
        for u, v in used:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(d != 2 for d in deg.values()):
            continue
        roots = union_find_roots(g.vertex_count, used)
        if len({roots[v] for v in deg}) == 1:
            total += 1
    return total


def canonical_outercycle(p: Partition) -> OrientedCactus:
    """The oriented cactus of p's connected block multigraph, by one walk
    of its outercycle.

    Starting from element 1, repeat "swap within the consecutive pair,
    then step to the next element of the block (cyclically, ascending)"
    until element 1 returns.  Each step records (block of x, pair index of
    x), both renumbered by first visit in the same pass; the recorded walk
    is the signature, and nothing else is kept.  Rigid edges are walked
    once, flexible edges twice, so the walk length is (#rigid) +
    2(#flexible).  The orbit of element 1 never leaves the component of
    block 1, and on a connected graph of a non-crossing partition it
    visits every vertex, so "every block visited" and "connected" are the
    same test; a missed block raises ValueError.
    """
    if p.ground_size % 2:
        raise ValueError("block multigraphs need an even ground set")
    blocks = p.blocks
    size = p.ground_size
    # step[x] is the next element of the walk: the partner of x, then the
    # next element of the partner's block.  ((y - 1) ^ 1) + 1 is y's partner.
    step = [0] * (size + 1)
    where = [0] * (size + 1)
    for i, block in enumerate(blocks):
        prev = block[-1]
        for x in block:
            step[((prev - 1) ^ 1) + 1] = x
            where[x] = i
            prev = x
    # old id -> new id, in first-visit order
    vertex_new: dict[int, int] = {}
    edge_new: dict[int, int] = {}
    signature = []
    x = 1
    while True:
        v = vertex_new.setdefault(where[x], len(vertex_new))
        e = edge_new.setdefault((x + 1) >> 1, len(edge_new))
        signature.append((v, e))
        x = step[x]
        if x == 1:
            break
    if len(vertex_new) != len(blocks):
        assert not is_connected(build_graph(p)), (
            "outercycle must cover every edge and vertex of a connected graph"
        )
        raise ValueError("canonical_outercycle needs a connected block graph")
    assert len(edge_new) == size // 2, (
        "outercycle must cover every edge and vertex of a connected graph"
    )
    return OrientedCactus(tuple(signature))


def g_exponent(c: OrientedCactus) -> int:
    """The power-of-two exponent attached to an oriented cactus: 2 f_C + 1
    when the first edge of the walk is flexible, else 2 f_C."""
    return 2 * c.f_c + (not c.first_edge_rigid)


def enumerate_oriented_cacti(
    n: int,
    bipartite_only: bool = False,
    cap: int | None = None,
) -> ClassStream:
    """The oriented cactus classes with n edges, one cactus each, streamed
    from the plane-cactus decomposition without any partition or table.

    The root corner carries a sequence of blocks, n edges in all, and so
    does every further vertex.  A bridge from v walks (v, e), the block
    sequence of its new vertex u, then (u, e); a cycle of k >= 1 edges
    walks (v, e_1), then for each new vertex w_i its block sequence and
    (w_i, e_{i+1}), e_k closing back at v.  Ids are handed out at first
    visit, so each walk is already the signature that
    ``canonical_outercycle`` gives every member of the class, and distinct
    walks are distinct classes: each class comes once.
    ``bipartite_only`` allows even k only.  The order is that of a depth
    first search along the walk: at each vertex a bridge first, then the
    cycles by increasing k, then the end of the vertex's sequence.  The
    cap is that of the NC(2n) enumeration the classes group; it is checked
    on the call, before the stream starts.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_cap(2 * n, cap, DEFAULT_ENUMERATION_CAP, f"enumerating NC({2 * n})")
    return ClassStream(n, bipartite_only)


class ClassStream(Frozen):
    """The classes of ``enumerate_oriented_cacti``, which checks the cap, as
    a stream.  Each iteration runs the depth-first search afresh, with its
    own walk, and ``len`` counts one run; the stream keeps no class it yields."""

    __slots__ = ("n", "bipartite_only")

    def __init__(self, n: int, bipartite_only: bool) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bipartite_only", bipartite_only)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __iter__(self) -> Iterator[OrientedCactus]:
        n = self.n
        shortest, step = (2, 2) if self.bipartite_only else (1, 1)  # cycle lengths k
        walk: list[tuple[int, int]] = []

        def corner(
            v: int, used: int, fresh: int, frame: tuple | None, owed: int
        ) -> Iterator[OrientedCactus]:
            # frame is the innermost open block, (vertex it hangs from, edge,
            # cycle edges still to walk, outer frame): a bridge to walk back
            # along that edge when none are left, else a cycle; owed sums the
            # edges the open cycles still need.  fresh is the next vertex id.
            spare = n - used - owed
            if spare:
                walk.append((v, used))
                yield from corner(fresh, used + 1, fresh + 1, (v, used, 0, frame), owed)
                for k in range(shortest, spare + 1, step):
                    if k == 1:
                        yield from corner(v, used + 1, fresh, frame, owed)
                    else:
                        cycle = (v, used, k - 1, frame)
                        yield from corner(fresh, used + 1, fresh + 1, cycle, owed + k - 1)
                walk.pop()
            if frame is None:
                if used == n:
                    yield OrientedCactus(tuple(walk))
                return
            parent, edge, left, outer = frame
            if not left:
                walk.append((v, edge))
                yield from corner(parent, used, fresh, outer, owed)
            else:
                walk.append((v, used))
                if left == 1:
                    yield from corner(parent, used + 1, fresh, outer, owed - 1)
                else:
                    cycle = (parent, edge, left - 1, outer)
                    yield from corner(fresh, used + 1, fresh + 1, cycle, owed - 1)
            walk.pop()

        return corner(0, 0, 1, None, 0)
