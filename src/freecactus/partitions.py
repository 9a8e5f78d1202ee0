"""Set partitions of {1, .., m}, the non-crossing family, and its Kreweras map.

Conventions used throughout the package:

* elements are 1-based;
* the canonical form of a partition lists each block in ascending order and
  sorts the blocks by their minima;
* "NC(m)" below means the non-crossing partitions of {1, .., m}: no four
  elements a < b < c < d with a, c in one block and b, d in another.

Besides the lattice basics (restriction, join with the all-partitions
lattice, Kreweras complementation in both directions) this
module knows the two special families the cumulant formulas are built on:
the odd-separating partitions with even-only blocks of even size, and their
Kreweras complements.  The complement and the non-crossing test both read
the cycles of one permutation product (``_complement_cycles``).
Enumeration sizes are guarded by an explicit cap so a stray large argument
fails fast instead of running for hours.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from freecactus import _core_py
from freecactus.errors import check_cap

DEFAULT_ENUMERATION_CAP = 16


class Frozen:
    """Base of the value classes held in ``__slots__``, and the one place
    their value semantics live.  A subclass's ``__init__`` sets each slot once
    through ``object.__setattr__``; later assignment or deletion raises
    ``AttributeError``.  The fields are the subclass's slots, in slot order:
    two values are equal iff they are of the same class with equal fields,
    the hash is that of the field tuple, ``repr`` prints ``Name(field=..)``,
    and copy and pickle carry the field tuple as the state."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


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

    __slots__ = ("_blocks", "_size")

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

    @classmethod
    def _unchecked(cls, blocks: tuple[tuple[int, ...], ...], size: int) -> "Partition":
        """Wrap canonical blocks without re-validating.  Internal use only."""
        p = object.__new__(cls)
        p._blocks = blocks
        p._size = size
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


def _complement_cycles(p: Partition, forward: bool = True) -> list[list[int]]:
    """Cycles of p^-1 gamma (forward) or gamma p^-1 (inverse), gamma = (1 2 .. m).

    p is read as the permutation through each block in ascending order, so
    p^-1 steps back along a block.  Cycles start at their minima and come
    out in that order; inside a cycle the elements are in walk order.
    """
    m = p._size
    prev = [0] * (m + 1)
    for block in p._blocks:
        a = block[-1]
        for b in block:
            prev[b] = a
            a = b
    image = [0, *prev[2:], prev[1]] if forward else [0, *[x % m + 1 for x in prev[1:]]]
    cycles = []
    for start in range(1, m + 1):
        x = image[start]
        if x:
            cycle = [start]
            image[start] = 0
            while x != start:
                cycle.append(x)
                image[x], x = 0, image[x]
            cycles.append(cycle)
    return cycles


def is_noncrossing(p: Partition) -> bool:
    """Whether p has no crossing: |p| + |p^-1 gamma| = m + 1.

    Always |p| + |p^-1 gamma| <= m + 1, with equality exactly when p is
    non-crossing (Biane, "Some properties of crossings and partitions",
    Discrete Math. 175, 1997), so the cycles are counted, not sorted.
    """
    return len(p._blocks) + len(_complement_cycles(p)) == p._size + 1


def _wrap(stream, arg: int, m: int) -> Iterator[Partition]:
    """Partitions of [m] from the blocks of ``stream(arg)``, started lazily."""
    for blocks in stream(arg):
        yield Partition._unchecked(blocks, m)


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
    return _wrap(_core_py.iter_nc_blocks, m, m)


def enumerate_connected(n: int, cap: int | None = None) -> Iterator[Partition]:
    """Stream the partitions of NC(2n) with a connected block graph.

    These are the p with p joined to {1 2|3 4|..|2n-1 2n} equal to the
    one-block partition, in the order of ``enumerate_nc(2n)``.  For a
    non-crossing p the graph is disconnected exactly when some proper
    interval {2i+1, .., 2j} (odd start, even end) is a union of blocks, and
    ``_core_py.iter_connected_blocks`` refuses such an interval inside the
    recursion instead of filtering NC(2n).  There are kappa_n(a^2) of them
    for a free Poisson variable a of rate 1: 2, 10, 64, 462, 3584, 29172
    for n = 1..6.  The cap is that of ``enumerate_nc(2n)``, checked before
    any work.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = 2 * n
    check_cap(m, cap, DEFAULT_ENUMERATION_CAP, f"enumerating NC({m})")
    return _wrap(_core_py.iter_connected_blocks, n, m)


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


def _complement(p: Partition, forward: bool, op: str) -> Partition:
    """The blocks of ``_complement_cycles``, refused unless p is non-crossing."""
    cycles = _complement_cycles(p, forward)
    m = p._size
    if len(p._blocks) + len(cycles) != m + 1:
        raise ValueError(f"{op} requires a non-crossing partition, got {p.to_text()!r}")
    return Partition._unchecked(tuple(tuple(sorted(c)) for c in cycles), m)


def kreweras(p: Partition, direction: str = "forward") -> Partition:
    """Kreweras complement of a non-crossing partition, or its inverse.

    With p read as the permutation through each block in ascending order
    and gamma = (1 2 .. m), the complement is the cycle partition of
    p^-1 gamma, and its inverse that of gamma p^-1 (Nica & Speicher,
    *Lectures on the Combinatorics of Free Probability*, 2006, Lecture
    18).  A crossing p leaves fewer than m + 1 - |p| cycles (see
    ``is_noncrossing``) and is refused in the same pass.

    Examples: the one-block partition of [2] maps to the two singletons;
    "1|3|2 4" maps forward to "1 4|2 3".  Forward then inverse is the
    identity, and the complement has m + 1 - |p| blocks (both tested).
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return _complement(p, direction == "forward", "kreweras")


def union_find_roots(size: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find over 0..size-1: merge each pair, return every element's root.

    One loop: each end of a pair climbs to its root by path halving, and
    the larger root is linked under the smaller, so every parent is at most
    its child.  A final upward pass then reads each element's root off its
    parent's, already written, and the root of a class is its least element.
    """
    parent = list(range(size))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for x in range(size):
        parent[x] = parent[parent[x]]
    return parent


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
    links = [(block[0], x) for block in p.blocks + q.blocks for x in block[1:]]
    roots = union_find_roots(m + 1, links)
    groups: dict[int, list[int]] = {}
    for x in range(1, m + 1):
        groups.setdefault(roots[x], []).append(x)
    # x runs upward, so each group is ascending and the groups are created,
    # hence listed, in the order of their minima: already canonical.
    blocks = tuple(tuple(g) for g in groups.values())
    return Partition._unchecked(blocks, m)


def refines(p: Partition, q: Partition) -> bool:
    """Whether every block of p lies inside a block of q."""
    if p.ground_size != q.ground_size:
        raise ValueError(
            f"refines needs equal ground sets, got {p.ground_size} and {q.ground_size}"
        )
    idx = {x: i for i, block in enumerate(q.blocks) for x in block}
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


def enumerate_y(m: int, cap: int | None = None) -> Iterator[Partition]:
    """Stream the odd-separating partitions of [m] in the order of
    ``enumerate_nc(m)``.  ``_core_py.iter_y_blocks`` prunes the others
    inside the NC recursion, so at m = 12 it builds 6,588, not 208,012.
    The cap is that of ``enumerate_nc(m)``, checked before any work.
    """
    if m < 1:
        raise ValueError("ground set size must be positive")
    check_cap(m, cap, DEFAULT_ENUMERATION_CAP, f"enumerating NC({m})")
    return _wrap(_core_py.iter_y_blocks, m, m)


def x_membership(p: Partition) -> bool:
    """Whether p is the Kreweras complement of an odd-separating partition.

    Defined for even ground sets.  Equivalent (and tested equivalent) to
    the block graph of p being connected and bipartite.  The one-block
    partition of [2n] is never a member for n >= 1, its inverse complement
    being the all-singletons partition.
    """
    if p.ground_size % 2:
        raise ValueError("x_membership is defined for even ground sets")
    # The inverse complement is odd-separating: no block with two odds,
    # every odd-free block of even size.
    for block in _complement(p, False, "x_membership").blocks:
        odds = sum(x % 2 for x in block)
        if odds > 1 or (odds == 0 and len(block) % 2):
            return False
    return True


def level_counts(m: int, cap: int | None = None) -> list[int]:
    """Histogram of odd-separating partitions of [m] by level.

    Entry r counts members with exactly r even-only blocks; for m = 8:
    [112, 41, 2].  ``_core_py.y_level_histogram`` tallies the pruned
    stream behind ``enumerate_y``.  The tally is exponential in m and is
    kept as the reference: ``count levels`` is served by the closed sums
    ``series.y_level_counts``, and the tests and ``verify`` compare them.
    """
    if m < 1:
        raise ValueError("ground set size must be positive")
    check_cap(m, cap, DEFAULT_ENUMERATION_CAP, f"the level scan of m={m}")
    return _core_py.y_level_histogram(m)

