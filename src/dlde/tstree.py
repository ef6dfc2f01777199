"""Random binary partitioning of the time axis (Time Split Trees).

A TSTree recursively splits the index range 1..d at uniformly random
points until a segment is short enough (``slimit``) or the depth cap
(``hlimit``) is reached.  Scoring needs only the leaves, so a tree is
stored as its leaf segments in temporal order, which partition the axis
into contiguous segments, and the depth of each leaf.  Each leaf's
columns are the neighborhood of its time points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Segment", "TSTree", "build_tstree", "leaves"]


@dataclass(frozen=True)
class Segment:
    """Contiguous run of time indices, 1-based, inclusive on both ends."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not (1 <= self.start <= self.end):
            raise ValueError(f"invalid segment [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @property
    def columns(self) -> slice:
        """0-based column slice selecting this segment from a (N, d) matrix."""
        return slice(self.start - 1, self.end)


@dataclass(frozen=True)
class TSTree:
    """An immutable random split tree, kept as its leaves.

    ``segments`` are the leaves in temporal order; ``depths[i]`` is the
    depth of ``segments[i]`` (root = 0).
    """

    segments: tuple[Segment, ...]
    depths: tuple[int, ...]

    @property
    def d(self) -> int:
        """Time-axis length for trees spanning 1..d."""
        return self.segments[-1].end


def build_tstree(
    t_start: int,
    t_end: int,
    hlimit: int,
    slimit: int,
    rng: np.random.Generator,
) -> TSTree:
    """Grow a random split tree over the index range [t_start, t_end].

    A node [a, b] becomes a leaf when its length is <= ``slimit`` or its
    depth (root = 0) has reached ``hlimit``.  Otherwise a split point
    ``st`` is drawn uniformly from {a+1, ..., b} and the children cover
    [a, st-1] and [st, b], so both are non-empty.  Split points are drawn
    in preorder (a node, then its whole left subtree, then its right), so
    equal inputs and an equally seeded ``rng`` reproduce the tree exactly.

    Unchecked: ``fit`` passes 1 <= ``t_start`` <= ``t_end``, ``hlimit`` >= 0
    and ``slimit`` >= 1.
    """
    segments: list[Segment] = []
    depths: list[int] = []
    stack = [(t_start, t_end, 0)]
    while stack:
        start, end, depth = stack.pop()
        if end - start + 1 <= slimit or depth >= hlimit:
            segments.append(Segment(start, end))
            depths.append(depth)
        else:
            st = int(rng.integers(start + 1, end + 1))
            stack += [(st, end, depth + 1), (start, st - 1, depth + 1)]
    return TSTree(tuple(segments), tuple(depths))


def leaves(tree: TSTree) -> list[Segment]:
    """All leaf segments in left-to-right (temporal) order."""
    return list(tree.segments)
