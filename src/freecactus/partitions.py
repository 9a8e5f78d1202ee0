"""Set partitions of {1, .., m}, the non-crossing family, and its Kreweras map.

Conventions used throughout the package:

* elements are 1-based;
* the canonical form of a partition lists each block in ascending order and
  sorts the blocks by their minima;
* "NC(m)" below means the non-crossing partitions of {1, .., m}: no four
  elements a < b < c < d with a, c in one block and b, d in another.

Besides the lattice basics (restriction, interleaving, join with the
all-partitions lattice, Kreweras complementation in both directions) this
module knows the two special families the cumulant formulas are built on:
the odd-separating partitions with even-only blocks of even size, and their
Kreweras complements.  Enumeration sizes are guarded by an explicit cap so
a stray large argument fails fast instead of running for hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from freecactus import _core_py
from freecactus.errors import check_cap

DEFAULT_ENUMERATION_CAP = 16


def catalan(n: int) -> int:
    """The n-th Catalan number, |NC(n)|."""
    if n < 0:
        raise ValueError("catalan is defined for n >= 0")
    return math.comb(2 * n, n) // (n + 1)


class Partition:
    """An immutable set partition of {1, .., m} in canonical form.

    Construction validates that the blocks are non-empty, disjoint and
    cover {1, .., m} exactly; the canonical form is computed once.  Two
    partitions are equal iff their canonical forms are, and instances are
    hashable, so they can live in sets and dict keys (the enumeration
    tests rely on that).

    ``len(p)`` is the number of blocks, written |p| in the usual lattice
    notation.
    """

    __slots__ = ("_blocks", "_size", "_index_of")

    def __init__(self, blocks: Iterable[Iterable[int]], ground_size: int | None = None):
        normalized = []
        seen: set[int] = set()
        count = 0
        for raw in blocks:
            block = tuple(sorted(raw))
            if not block:
                raise ValueError("empty block in partition")
            normalized.append(block)
            for x in block:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"partition elements must be ints, got {x!r}")
                if x in seen:
                    raise ValueError(f"element {x} appears twice")
                seen.add(x)
                count += 1
        if count == 0:
            raise ValueError("partition of the empty set is not supported")
        m = max(seen)
        if min(seen) < 1 or count != m:
            missing = sorted(set(range(1, m + 1)) - seen)
            raise ValueError(f"blocks must cover 1..{m}; missing {missing}")
        if ground_size is not None and ground_size != m:
            raise ValueError(f"blocks cover 1..{m}, not 1..{ground_size}")
        normalized.sort(key=lambda b: b[0])
        self._blocks = tuple(normalized)
        self._size = m
        self._index_of = None

    @classmethod
    def _unchecked(cls, blocks: tuple[tuple[int, ...], ...], size: int) -> "Partition":
        """Wrap canonical blocks without re-validating.  Internal use only."""
        p = object.__new__(cls)
        p._blocks = blocks
        p._size = size
        p._index_of = None
        return p

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self._blocks

    @property
    def ground_size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return len(self._blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash(self._blocks)

    def __repr__(self) -> str:
        return f"Partition({self.to_text()!r})"

    def _index_map(self) -> dict[int, int]:
        if self._index_of is None:
            index = {}
            for i, block in enumerate(self._blocks):
                for x in block:
                    index[x] = i
            self._index_of = index
        return self._index_of

    def block_index_of(self, x: int) -> int:
        """Index (into ``blocks``) of the block containing x."""
        try:
            return self._index_map()[x]
        except KeyError:
            raise ValueError(f"{x} is not in the ground set 1..{self._size}") from None

    def block_containing(self, x: int) -> tuple[int, ...]:
        return self._blocks[self.block_index_of(x)]

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self._blocks)

    # serialization: text form "1 8|2 6 7|3 4|5", JSON form [[1,8],[2,6,7],..]

    def to_text(self) -> str:
        return "|".join(" ".join(str(x) for x in block) for block in self._blocks)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the text form; inverse of ``to_text`` up to canonical order."""
        try:
            blocks = [[int(tok) for tok in part.split()] for part in text.split("|")]
        except ValueError:
            raise ValueError(f"cannot parse partition text {text!r}") from None
        return cls(blocks)

    def to_json_obj(self) -> list[list[int]]:
        return [list(block) for block in self._blocks]

    @classmethod
    def from_json_obj(cls, obj: Sequence[Sequence[int]]) -> "Partition":
        return cls(obj)

    @classmethod
    def singletons(cls, m: int) -> "Partition":
        """The discrete partition {{1}, {2}, .., {m}} (lattice bottom)."""
        if m < 1:
            raise ValueError("ground set size must be positive")
        return cls._unchecked(tuple((x,) for x in range(1, m + 1)), m)

    @classmethod
    def whole(cls, m: int) -> "Partition":
        """The one-block partition {{1, .., m}} (lattice top)."""
        if m < 1:
            raise ValueError("ground set size must be positive")
        return cls._unchecked((tuple(range(1, m + 1)),), m)


class PartitionClassification(NamedTuple):
    """Flags reported by ``classify``."""

    even: bool
    parity_preserving: bool
    pairing: bool
    interval: bool


@dataclass(frozen=True)
class YDecomposition:
    """Witness that a partition separates the odd elements.

    ``odd_blocks`` maps each odd element of the ground set to the block
    containing it (distinct odds land in distinct blocks); ``even_blocks``
    are the remaining blocks, which contain only even elements and have
    even size; ``level`` is the number of those even-only blocks.
    """

    odd_blocks: dict[int, tuple[int, ...]]
    even_blocks: tuple[tuple[int, ...], ...]
    level: int


def is_noncrossing(p: Partition) -> bool:
    """Whether p has no crossing, checked by a linear stack scan.

    Scanning 1..m, a revisited block must sit on top of the stack of
    unfinished blocks once finished ones are popped; otherwise two arcs
    cross.  The brute-force four-element check in the test suite agrees
    with this on every partition of up to five elements.
    """
    index_of = p._index_map()
    first = {}
    last = {}
    for i, block in enumerate(p.blocks):
        first[i] = block[0]
        last[i] = block[-1]
    stack: list[int] = []
    for x in range(1, p.ground_size + 1):
        b = index_of[x]
        if first[b] == x:
            stack.append(b)
            continue
        while stack and last[stack[-1]] < x:
            stack.pop()
        if not stack or stack[-1] != b:
            return False
    return True


def _require_noncrossing(p: Partition, op: str) -> None:
    if not is_noncrossing(p):
        raise ValueError(f"{op} requires a non-crossing partition, got {p.to_text()!r}")


def enumerate_nc(m: int, cap: int | None = None) -> Iterator[Partition]:
    """Stream NC(m) in the frozen block-of-the-minimum order of
    ``_core_py.iter_nc_blocks``.

    Raises ResourceCapError before yielding anything if m exceeds the cap
    (default DEFAULT_ENUMERATION_CAP = 16); the stream has Catalan-number
    length, so the cap is a safety harness, not a tuning knob.
    """
    if m < 1:
        raise ValueError("ground set size must be positive")
    check_cap(m, cap, DEFAULT_ENUMERATION_CAP, f"enumerating NC({m})")

    def stream():
        for blocks in _core_py.iter_nc_blocks(m):
            yield Partition._unchecked(blocks, m)

    return stream()


def restrict(p: Partition, subset: Sequence[int]) -> Partition:
    """Restrict p to a subset of its ground set and relabel to 1..|subset|.

    The subset is taken in increasing order; its k-th smallest element
    becomes k.  Blocks that miss the subset disappear.  For example,
    restricting "1 8|2 6 7|3 4|5|9|10 12|11" to the even elements gives
    "1 3|2|4|5 6".  Restriction never introduces a crossing.
    """
    chosen = sorted(set(subset))
    if not chosen:
        raise ValueError("cannot restrict to the empty set")
    if chosen[0] < 1 or chosen[-1] > p.ground_size:
        raise ValueError(
            f"subset must lie inside 1..{p.ground_size}, got {chosen[0]}..{chosen[-1]}"
        )
    rank = {x: i + 1 for i, x in enumerate(chosen)}
    blocks = []
    for block in p.blocks:
        kept = tuple(rank[x] for x in block if x in rank)
        if kept:
            blocks.append(kept)
    return Partition._unchecked(tuple(sorted(blocks, key=lambda b: b[0])), len(chosen))


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
    blocks.sort(key=lambda b: b[0])
    return Partition._unchecked(tuple(blocks), 2 * odd_part.ground_size)


def _consecutive_arcs(p: Partition) -> tuple[dict[int, int], dict[int, int]]:
    """Successor and predecessor maps along each block in ascending order."""
    nxt: dict[int, int] = {}
    prv: dict[int, int] = {}
    for block in p.blocks:
        for a, b in zip(block, block[1:]):
            nxt[a] = b
            prv[b] = a
    return nxt, prv


def kreweras(p: Partition, direction: str = "forward") -> Partition:
    """Kreweras complement of a non-crossing partition, or its inverse.

    Forward: draw p on the odd positions 1, 3, .., 2m-1 of a 2m-point
    line, with an arc between consecutive elements of each block.  Scan
    left to right keeping a stack of open arcs; at an element's position,
    first pop the arc ending there, then push the arc starting there.
    Each even position joins the complement block keyed by the innermost
    open arc above it (no open arc means the outer block).  The inverse
    direction runs the mirrored scan with p on the even positions and the
    result collected on the odds.

    Examples: the one-block partition of [2] maps to the two singletons;
    "1|3|2 4" maps forward to "1 4|2 3".  The complement of an m-element
    partition has m + 1 - |p| blocks, and forward then inverse is the
    identity (both are exercised by the tests).
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    _require_noncrossing(p, "kreweras")
    m = p.ground_size
    nxt, prv = _consecutive_arcs(p)
    input_on_odds = direction == "forward"
    stack: list[int] = []
    groups: dict[int, list[int]] = {}
    for pos in range(1, 2 * m + 1):
        pos_is_odd = pos % 2 == 1
        if pos_is_odd == input_on_odds:
            x = (pos + 1) // 2 if input_on_odds else pos // 2
            if x in prv:
                popped = stack.pop()
                assert popped == prv[x], "open arcs out of order on a non-crossing input"
            if x in nxt:
                stack.append(x)
        else:
            slot = pos // 2 if input_on_odds else (pos + 1) // 2
            key = stack[-1] if stack else 0
            groups.setdefault(key, []).append(slot)
    blocks = tuple(sorted((tuple(g) for g in groups.values()), key=lambda b: b[0]))
    return Partition._unchecked(blocks, m)


def union_find_roots(size: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find over 0..size-1: merge each pair, return every element's root."""
    parent = list(range(size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        parent[find(a)] = find(b)
    return [find(a) for a in range(size)]


def join(p: Partition, q: Partition) -> Partition:
    """Join (coarsest common refinement bound) in the all-partitions lattice.

    Computed by union-find over the two block families.  Note this is not
    the join of the non-crossing lattice: the latter can be strictly
    coarser.  Everything in this package that tests connectivity wants
    the all-partitions join, so no other one is offered.
    """
    if p.ground_size != q.ground_size:
        raise ValueError(
            f"join needs equal ground sets, got {p.ground_size} and {q.ground_size}"
        )
    m = p.ground_size
    chains = (pair for block in p.blocks + q.blocks for pair in zip(block, block[1:]))
    roots = union_find_roots(m + 1, chains)
    groups: dict[int, list[int]] = {}
    for x in range(1, m + 1):
        groups.setdefault(roots[x], []).append(x)
    blocks = tuple(sorted((tuple(g) for g in groups.values()), key=lambda b: b[0]))
    return Partition._unchecked(blocks, m)


def refines(p: Partition, q: Partition) -> bool:
    """Whether every block of p lies inside a block of q."""
    if p.ground_size != q.ground_size:
        raise ValueError(
            f"refines needs equal ground sets, got {p.ground_size} and {q.ground_size}"
        )
    idx = q._index_map()
    return all(len({idx[x] for x in block}) == 1 for block in p.blocks)


def interval_pairing(n: int) -> Partition:
    """The pairing {{1,2}, {3,4}, .., {2n-1,2n}} of [2n]."""
    if n < 1:
        raise ValueError("n must be positive")
    return Partition._unchecked(
        tuple((2 * k - 1, 2 * k) for k in range(1, n + 1)), 2 * n
    )


def classify(p: Partition) -> PartitionClassification:
    """Structural flags of p.

    even: every block has even size.  parity_preserving: no block mixes
    odd and even elements.  pairing: every block has size two.  interval:
    every block is a set of consecutive integers.
    """
    even = True
    parity_preserving = True
    pairing = True
    interval = True
    for block in p.blocks:
        size = len(block)
        if size % 2:
            even = False
        if size != 2:
            pairing = False
        if block[-1] - block[0] + 1 != size:
            interval = False
        parity = block[0] % 2
        if any(x % 2 != parity for x in block):
            parity_preserving = False
    return PartitionClassification(even, parity_preserving, pairing, interval)


def _y_decomposition(p: Partition) -> YDecomposition | None:
    """Core of y_membership, assuming p is already known non-crossing."""
    odd_blocks: dict[int, tuple[int, ...]] = {}
    even_blocks: list[tuple[int, ...]] = []
    for block in p.blocks:
        odds = [x for x in block if x % 2]
        if len(odds) > 1:
            return None
        if odds:
            odd_blocks[odds[0]] = block
        else:
            if len(block) % 2:
                return None
            even_blocks.append(block)
    return YDecomposition(odd_blocks, tuple(even_blocks), len(even_blocks))


def y_membership(p: Partition) -> YDecomposition | None:
    """Decompose p as an odd-separating partition, or report it is not one.

    Membership requires: p non-crossing, no block with two odd elements,
    and every block without odd elements of even size.  Returns the
    decomposition (odd blocks keyed by their odd element, even-only
    blocks, and the level, which is the count of even-only blocks), or
    None.  The one-block partition of [2] is a member at level 0; the
    two-singleton partition of [2] is not, since {2} is even-only with
    odd size.
    """
    _require_noncrossing(p, "y_membership")
    return _y_decomposition(p)


def enumerate_y(m: int, cap: int | None = None) -> Iterator[Partition]:
    """Stream the odd-separating partitions of [m], in enumeration order."""
    return (
        p for p in enumerate_nc(m, cap=cap) if _y_decomposition(p) is not None
    )


def x_membership(p: Partition) -> bool:
    """Whether p is the Kreweras complement of an odd-separating partition.

    Defined for even ground sets.  Equivalent (and tested equivalent) to
    the block graph of p being connected and bipartite.  The one-block
    partition of [2n] is never a member for n >= 1, its inverse complement
    being the all-singletons partition.
    """
    if p.ground_size % 2:
        raise ValueError("x_membership is defined for even ground sets")
    _require_noncrossing(p, "x_membership")
    sigma = kreweras(p, "inverse")
    return _y_decomposition(sigma) is not None


def level_counts(m: int, cap: int | None = None) -> list[int]:
    """Histogram of odd-separating partitions of [m] by level.

    Entry r counts members with exactly r even-only blocks.  Runs the
    pruned scan ``_core_py.y_level_histogram`` rather than filtering the
    full enumeration; the tests check the two agree.  For m = 8:
    [112, 41, 2].  The scan is exponential in m and is kept as the
    reference: ``count levels`` is served by the graded recursion
    ``series.y_level_counts``, and the tests compare the two.
    """
    if m < 1:
        raise ValueError("ground set size must be positive")
    check_cap(m, cap, DEFAULT_ENUMERATION_CAP, f"the level scan of m={m}")
    return _core_py.y_level_histogram(m)


def q_count(p: Partition, cap: int | None = None) -> int:
    """Number of odd-separating partitions of [2n] restricting to p on evens.

    p is a non-crossing partition of [n]; the count is over odd-separating
    sigma in [2n] with restrict(sigma, {2,4,..,2n}) == p.  For the
    all-singletons p this is the Catalan number C_n.
    """
    _require_noncrossing(p, "q_count")
    n = p.ground_size
    evens = range(2, 2 * n + 1, 2)
    return sum(1 for sigma in enumerate_y(2 * n, cap=cap) if restrict(sigma, evens) == p)
