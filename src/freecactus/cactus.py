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
invariant of the oriented cactus, so grouping partitions by that
signature enumerates oriented cacti without a separate graph generator.
The same walk decides connectivity (it reaches every block exactly when
the graph is connected) and bipartiteness (colors alternating along it
never clash), so classifying a partition is one pass over plain lists.
``outercycle`` is the only classifier the cumulant routes use: each of
them evaluates the ``OrientedCactus`` it returns.  ``build_graph``,
``is_connected``, ``bipartition`` and ``validate_cactus`` are the
independent graph-side reference for the self-checks and the tests only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from freecactus.partitions import Partition, enumerate_nc, union_find_roots

Signature = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BlockMultigraph:
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


@dataclass(frozen=True)
class OrientedCactus:
    """A cactus graph together with its canonical outercycle.

    ``signature`` lists the walk as (vertex, edge) pairs with both ids
    renumbered by first visit; it determines the oriented cactus up to
    automorphism.  ``edge_rigidity`` is indexed by renumbered edge id;
    rigid edges (those on a simple cycle) appear once in the walk,
    flexible ones twice.  ``f_c`` counts the flexible edges, leaving out
    the first edge of the walk when that edge is flexible.  ``bipartition``
    is present iff the graph is bipartite; its first part contains vertex
    0, the start of the walk.
    """

    signature: Signature
    edge_rigidity: tuple[bool, ...]
    f_c: int
    first_edge_rigid: bool
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    degrees: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.degrees)

    def renumbered_edges(self) -> tuple[tuple[int, int], ...]:
        """Endpoint pairs by renumbered edge id, recovered from the walk.

        Edge e_i of the signature joins v_i to v_{i+1} (cyclically), since
        the walk crosses the edge between the two entries.  The pair is
        reported in first-traversal order, which is not necessarily the
        source partition's edge direction.
        """
        ends: dict[int, tuple[int, int]] = {}
        sig = self.signature
        for i, (v, e) in enumerate(sig):
            w = sig[(i + 1) % len(sig)][0]
            ends.setdefault(e, (v, w))
        return tuple(ends[e] for e in range(len(ends)))

    def to_json_obj(self) -> dict:
        return {
            "signature": [list(pair) for pair in self.signature],
            "rigid": list(self.edge_rigidity),
            "fC": self.f_c,
            "bipartition": (
                None
                if self.bipartition is None
                else [list(self.bipartition[0]), list(self.bipartition[1])]
            ),
            "degrees": list(self.degrees),
        }


def build_graph(p: Partition) -> BlockMultigraph:
    """Block multigraph of a partition of [2n]; edge k runs from the block
    of 2k-1 to the block of 2k.  Vertex degrees equal block sizes."""
    if p.ground_size % 2:
        raise ValueError("block multigraphs need an even ground set")
    n = p.ground_size // 2
    edges = tuple(
        (p.block_index_of(2 * k - 1), p.block_index_of(2 * k))
        for k in range(1, n + 1)
    )
    return BlockMultigraph(len(p), edges, p.block_sizes())


def is_connected(g: BlockMultigraph) -> bool:
    return len(set(union_find_roots(g.vertex_count, g.edges))) == 1


def bipartition(g: BlockMultigraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two-color g from vertex 0, the block of 1, by graph search.

    Returns (V', V'') with vertex 0 in V', or None when some cycle is odd
    (a loop counts as an odd cycle).  The graph must be connected.
    """
    if not is_connected(g):
        raise ValueError("bipartition needs a connected graph")
    color = {0: 0}
    queue = [0]
    adjacency: dict[int, list[int]] = {v: [] for v in range(g.vertex_count)}
    for u, v in g.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    while queue:
        u = queue.pop()
        for w in adjacency[u]:
            if w not in color:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                return None
    side0 = tuple(v for v in range(g.vertex_count) if color[v] == 0)
    side1 = tuple(v for v in range(g.vertex_count) if color[v] == 1)
    return side0, side1


def _biconnected_edge_components(g: BlockMultigraph) -> list[list[int]]:
    """Edge ids grouped by biconnected component; loops excluded."""
    adjacency: dict[int, list[tuple[int, int]]] = {
        v: [] for v in range(g.vertex_count)
    }
    for eid, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        adjacency[u].append((v, eid))
        adjacency[v].append((u, eid))
    components: list[list[int]] = []
    visited: set[int] = set()
    depth: dict[int, int] = {}
    low: dict[int, int] = {}
    estack: list[int] = []

    # Plain recursive Tarjan; the depth is at most the vertex count, so only
    # a graph of about a thousand vertices would reach Python's recursion
    # limit.
    def rec(u: int, in_edge: int) -> None:
        visited.add(u)
        for w, eid in adjacency[u]:
            if eid == in_edge:
                continue
            if w in visited and depth.get(w, 0) >= depth[u]:
                continue
            if w in visited:
                # back edge to an ancestor
                estack.append(eid)
                low[u] = min(low[u], depth[w])
                continue
            depth[w] = depth[u] + 1
            low[w] = depth[w]
            estack.append(eid)
            rec(w, eid)
            low[u] = min(low[u], low[w])
            if low[w] >= depth[u]:
                comp = []
                while True:
                    e = estack.pop()
                    comp.append(e)
                    if e == eid:
                        break
                components.append(comp)

    for v in range(g.vertex_count):
        if v not in visited:
            depth[v] = 0
            low[v] = 0
            rec(v, -1)
    return components


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
        seen = {next(iter(deg))}
        frontier = list(seen)
        adj: dict[int, list[int]] = {}
        for u, v in used:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen == set(deg):
            total += 1
    return total


def outercycle(p: Partition) -> OrientedCactus | None:
    """Walk the outercycle of p's block multigraph once, on plain lists.

    Returns None when the walk misses a block.  The orbit of element 1
    never leaves the component of block 1, and on a connected graph of a
    non-crossing partition it visits every vertex, so "every block
    visited" and "connected" are the same test.  One pass over the
    recorded walk then yields the signature, the edge rigidity, f_C, the
    degrees and the bipartition: consecutive entries of the walk are
    joined by the edge crossed between them, the closing step included,
    and the walk covers every edge, so alternating colors along it
    two-colors the graph or meets an odd cycle.
    """
    blocks = p.blocks
    size = p.ground_size
    n = size // 2
    if len(blocks) > n + 1:
        return None  # n edges connect at most n + 1 vertices
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
    vertex_new = [-1] * len(blocks)
    old_vertices: list[int] = []
    walk = []
    x = 1
    while True:
        walk.append(x)
        v = where[x]
        if vertex_new[v] < 0:
            vertex_new[v] = len(old_vertices)
            old_vertices.append(v)
        x = step[x]
        if x == 1:
            break
    if len(old_vertices) != len(blocks):
        return None
    edge_new = [-1] * (n + 1)
    visits = [0] * (n + 1)
    old_edges: list[int] = []
    color = [-1] * len(blocks)
    bipartite = True
    signature = []
    prev_color = 1  # so that vertex 0, the block of 1, gets color 0
    for x in walk:
        nv = vertex_new[where[x]]
        c = color[nv]
        if c < 0:
            prev_color = color[nv] = 1 - prev_color
        elif c == prev_color:
            bipartite = False
        else:
            prev_color = c
        e = (x + 1) >> 1
        ne = edge_new[e]
        if ne < 0:
            ne = edge_new[e] = len(old_edges)
            old_edges.append(e)
        visits[e] += 1
        signature.append((nv, ne))
    if prev_color == 0:
        bipartite = False  # the closing step returns to vertex 0
    assert len(old_edges) == n, (
        "outercycle must cover every edge and vertex of a connected graph"
    )
    assert max(visits) <= 2  # every edge is walked once or twice
    rigidity = tuple(visits[e] == 1 for e in old_edges)
    flexible = rigidity.count(False)
    first_edge_rigid = rigidity[0]
    parts = None
    if bipartite:
        parts = (
            tuple(v for v, c in enumerate(color) if c == 0),
            tuple(v for v, c in enumerate(color) if c == 1),
        )
    return OrientedCactus(
        signature=tuple(signature),
        edge_rigidity=rigidity,
        f_c=flexible if first_edge_rigid else flexible - 1,
        first_edge_rigid=first_edge_rigid,
        bipartition=parts,
        degrees=tuple(len(blocks[v]) for v in old_vertices),
    )


def canonical_outercycle(p: Partition) -> OrientedCactus:
    """Walk the outercycle of a connected block multigraph and canonicalize.

    Starting from element 1, repeat "swap within the consecutive pair,
    then step to the next element of the block (cyclically, ascending)"
    until element 1 returns.  Reading off (block of x, pair index of x)
    and renumbering both coordinates by first visit gives the signature.
    Rigid edges are walked once, flexible edges twice, so the walk length
    is (#rigid) + 2(#flexible).
    """
    if p.ground_size % 2:
        raise ValueError("block multigraphs need an even ground set")
    cactus = outercycle(p)
    if cactus is None:
        assert not is_connected(build_graph(p)), (
            "outercycle must cover every edge and vertex of a connected graph"
        )
        raise ValueError("canonical_outercycle needs a connected block graph")
    return cactus


def g_exponent(c: OrientedCactus) -> int:
    """The power-of-two exponent attached to an oriented cactus: 2 f_C + 1
    when the first edge of the walk is flexible, else 2 f_C."""
    return 2 * c.f_c + (0 if c.first_edge_rigid else 1)


def enumerate_oriented_cacti(
    n: int,
    bipartite_only: bool = False,
    cap: int | None = None,
) -> dict[Signature, tuple[OrientedCactus, list[Partition]]]:
    """Group the connected partitions of [2n] by outercycle signature.

    Returns signature -> (representative, members); the representative is
    the cactus of the first member encountered.  Every class has exactly
    2^f_C members, which the tests assert.  ``bipartite_only`` keeps the
    classes carrying a bipartition.  The NC(2n) stream enforces the
    enumeration cap before any work.
    """
    if n < 1:
        raise ValueError("n must be positive")
    classes: dict[Signature, tuple[OrientedCactus, list[Partition]]] = {}
    for p in enumerate_nc(2 * n, cap=cap):
        cactus = outercycle(p)
        if cactus is None:
            continue
        if bipartite_only and cactus.bipartition is None:
            continue
        if cactus.signature in classes:
            classes[cactus.signature][1].append(p)
        else:
            classes[cactus.signature] = (cactus, [p])
    return classes
