"""Random binary partitioning of the time axis (Time Split Trees).

A TSTree recursively splits the index range 1..d at uniformly random
points until a segment is short enough (``slimit``) or the depth cap
(``hlimit``) is reached.  Its leaves form a partition of the axis into
contiguous segments; scoring walks the leaves in temporal order, and each
leaf's columns are the neighborhood of its time points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Segment", "TSTreeNode", "TSTree", "build_tstree", "leaves"]


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
class TSTreeNode:
    start: int
    end: int
    split_at: int | None = None  # first index of the right child; None for leaves
    left: TSTreeNode | None = None
    right: TSTreeNode | None = None

    @property
    def is_leaf(self) -> bool:
        return self.split_at is None

    @property
    def segment(self) -> Segment:
        return Segment(self.start, self.end)


@dataclass(frozen=True)
class TSTree:
    """An immutable random split tree over a contiguous index range."""

    root: TSTreeNode
    hlimit: int
    slimit: int

    @property
    def span(self) -> Segment:
        return self.root.segment

    @property
    def d(self) -> int:
        """Time-axis length for trees spanning 1..d."""
        return self.root.end


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
    [a, st-1] and [st, b], so both are non-empty.  Equal inputs and an
    equally seeded ``rng`` reproduce the tree exactly.

    Raises:
        ValueError: ``t_start > t_end``, negative ``hlimit``, or
            ``slimit`` < 1.
    """
    if t_start > t_end:
        raise ValueError(f"invalid range: t_start={t_start} > t_end={t_end}")
    if t_start < 1:
        raise ValueError(f"time indices are 1-based, got t_start={t_start}")
    if hlimit < 0:
        raise ValueError(f"hlimit must be >= 0, got {hlimit}")
    if slimit < 1:
        raise ValueError(f"slimit must be >= 1, got {slimit}")
    root = _grow(t_start, t_end, 0, hlimit, slimit, rng)
    return TSTree(root=root, hlimit=hlimit, slimit=slimit)


def _grow(
    start: int,
    end: int,
    depth: int,
    hlimit: int,
    slimit: int,
    rng: np.random.Generator,
) -> TSTreeNode:
    if end - start + 1 <= slimit or depth >= hlimit:
        return TSTreeNode(start, end)
    st = int(rng.integers(start + 1, end + 1))
    return TSTreeNode(
        start,
        end,
        split_at=st,
        left=_grow(start, st - 1, depth + 1, hlimit, slimit, rng),
        right=_grow(st, end, depth + 1, hlimit, slimit, rng),
    )


def leaves(tree: TSTree) -> list[Segment]:
    """All leaf segments in left-to-right (temporal) order."""
    out: list[Segment] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            out.append(node.segment)
        else:
            stack.append(node.right)  # type: ignore[arg-type]
            stack.append(node.left)  # type: ignore[arg-type]
    return out

