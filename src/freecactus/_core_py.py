"""Enumeration hot paths on plain tuples and ints.

These are the innermost loops of the package: one recursion streaming
NC(m) under one of three guards (none; the interval guard, for the
partitions of NC(2n) with a connected block graph; the odd guard, for the
odd-separating partitions), the level tally of the odd-separating stream,
and the colored-word profile counts the oracle sums over.  Partition
objects, rationals and so on live above.
"""

from __future__ import annotations

from typing import Iterator

__all__ = [
    "iter_nc_blocks",
    "iter_connected_blocks",
    "iter_y_blocks",
    "y_level_histogram",
    "word_profile_counts",
]


def iter_nc_blocks(m: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every non-crossing partition of {1..m} as a tuple of blocks.

    Blocks are ascending tuples sorted by their minima (canonical form).
    The order of the stream is the recursive block-of-the-minimum order:
    first close the block of the current minimum, then extend it with each
    feasible next element in increasing order, partitioning the skipped gap
    recursively.  For m=3 this gives

        {1}{2}{3}, {1}{2 3}, {1 2}{3}, {1 2 3}, {1 3}{2}

    and the order is deterministic, documented, and frozen: the CLI
    ``enumerate`` output and the tests depend on it.
    """
    if m < 0:
        raise ValueError("ground set size must be non-negative")
    return _nc_of(tuple(range(1, m + 1)), 0, 0, 0)


def iter_connected_blocks(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the partitions of NC(2n) whose block graph is connected.

    This is the stream of ``iter_nc_blocks(2 * n)``, in the same order,
    less every partition in which some proper interval {2i+1, .., 2j} is
    a union of blocks; that happens exactly when the block graph (edge k
    joining the blocks of 2k-1 and 2k) is disconnected.  The recursion
    refuses such an interval as it forms, so the partitions left out are
    never built.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _nc_of(tuple(range(1, 2 * n + 1)), 0, 2 * n, 0)


def iter_y_blocks(m: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the odd-separating partitions of {1..m}, in the order of
    ``iter_nc_blocks(m)``: no block holds two odd elements, and every
    even-only block has even size.  The odd guard prunes the others as
    they form, so the work follows the size of the family, not C_m.
    """
    if m < 0:
        raise ValueError("ground set size must be non-negative")
    return _nc_of(tuple(range(1, m + 1)), 0, 0, 1)


# The recursion partitions an interval ``seq`` as a chain of components:
# the span of the block of seq[0], then the chain of the rest (a tail
# call).  A guard prunes a partial partition that no member extends, so
# each stream keeps the order of NC(m); with no guard, m, lo and y are 0.
# Interval guard: the intervals that are unions of blocks are exactly the
# runs of consecutive components of one chain, and each gap walled off
# under an arc starts a chain of its own.  m is 2n and ``lo`` the chain's
# largest odd component start (0 for none); no component and no chain may
# end on an even element while ``lo`` is set, except the whole ground set.
# Odd guard: ``y`` is 1 while the open block is even-only and 2 once it
# holds an odd; no odd joins a block at 2, no block at 1 closes at odd size.


def _nc_of(seq, lo, m, y):
    if not seq:
        yield ()
        return
    if m:
        if seq[0] & 1:
            lo = seq[0]
        if lo and not seq[-1] & 1 and (lo > 1 or seq[-1] != m):
            return
    if y:
        y = 2 if seq[0] & 1 else 1
    yield from _grow((seq[0],), 0, (), seq[1:], lo, m, y)


def _grow(block, idx, done, rest, lo, m, y):
    # Option A: close the block here; the untouched suffix is partitioned
    # on its own.
    refused = lo and not block[-1] & 1 and (lo > 1 or block[-1] != m)
    if not (refused or y == 1 and len(block) & 1):
        for tail in _nc_of(rest[idx:], lo, m, y):
            yield (block,) + done + tail
    # Option B: extend the block with rest[j].  The skipped gap rest[idx:j]
    # is then walled off under the new arc and must be partitioned within
    # itself, which is exactly the non-crossing condition.
    for j in range(idx, len(rest)):
        x = rest[j]
        if y == 2 and x & 1:
            continue
        grown = 2 if y and x & 1 else y
        for gap in _nc_of(rest[idx:j], 0, m, y):
            yield from _grow(block + (x,), j + 1, done + gap, rest, lo, m, grown)


def y_level_histogram(m: int) -> list[int]:
    """Level histogram of the odd-separating partitions of {1..m}.

    Entry r counts the members of ``iter_y_blocks(m)`` with r even-only
    blocks, i.e. ceil(m/2) + r blocks.  For m = 8: [112, 41, 2].  r <= m // 4,
    met by {4i-2, 4i} for i <= m // 4, {m-1, m} if m % 4 > 1, singletons else.
    """
    if m < 1:
        raise ValueError("ground set size must be positive")
    hist = [0] * (m // 4 + 1)
    odd = (m + 1) // 2
    for blocks in iter_y_blocks(m):
        hist[len(blocks) - odd] += 1
    return hist


def word_profile_counts(colors: tuple[int, ...]) -> dict[tuple[tuple[int, int], ...], int]:
    """Group the monochromatic non-crossing partitions of a colored word.

    ``colors`` colors positions 1..m, m = len(colors).  A partition is kept
    when every block is single-colored (it refines the kernel of the color
    word).  Rather than yielding each survivor, returns a dict mapping
    profile -> count, where a profile is the sorted tuple of (color, size)
    pairs of the blocks.  Summing a product of per-block cumulants over the
    survivors only ever needs these multiplicities, since such a product
    depends on the partition through its profile alone.

    No block size is pruned: profiles whose cumulant factors happen to
    vanish for some spec are still counted, and the caller multiplies them
    by zero.  The kernel stays value-agnostic.
    """
    m = len(colors)
    out: dict[tuple[tuple[int, int], ...], int] = {}

    def rec(e, stack, finished):
        # ``stack``: the open blocks as (color, size), innermost last.  Element e
        # opens a block, or joins open block i of its color, closing those above i.
        if e > m:
            prof = tuple(sorted(finished + stack))
            out[prof] = out.get(prof, 0) + 1
            return
        c = colors[e - 1]
        rec(e + 1, stack + ((c, 1),), finished)
        for i in range(len(stack) - 1, -1, -1):
            col, size = stack[i]
            if col == c:
                rec(e + 1, stack[:i] + ((c, size + 1),), finished + stack[i + 1 :])

    rec(1, (), ())
    return out
