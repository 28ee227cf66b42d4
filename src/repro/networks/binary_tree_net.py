"""The complete binary tree B_r as a host network.

This is X(r) without the horizontal cross edges.  It exists in the library
for two reasons: (a) it is the natural "ideal host" for a binary-tree guest
program in the simulator (slowdown 1 by definition), and (b) comparing
embeddings into B_r vs X(r) isolates exactly what the cross edges buy —
the paper's whole point is that the cross edges make *arbitrary* binary
trees embeddable with constant dilation and constant expansion, which is
false for B_r.
"""

from __future__ import annotations

from collections.abc import Iterator

from .base import Topology
from .xtree import XAddr, xtree_size

__all__ = ["CompleteBinaryTreeNet"]


class CompleteBinaryTreeNet(Topology):
    """The complete binary tree of height ``r`` with X-tree style addresses."""

    name = "complete-binary-tree"
    is_tree = True

    def __init__(self, height: int):
        if height < 0:
            raise ValueError(f"height must be non-negative, got {height}")
        self.height = height
        self._n = xtree_size(height)

    @property
    def n_nodes(self) -> int:
        return self._n

    def nodes(self) -> Iterator[XAddr]:
        for level in range(self.height + 1):
            for idx in range(1 << level):
                yield (level, idx)

    def neighbors(self, node: XAddr) -> Iterator[XAddr]:
        level, idx = node
        self._check(node)
        if level > 0:
            yield (level - 1, idx >> 1)
        if level < self.height:
            yield (level + 1, 2 * idx)
            yield (level + 1, 2 * idx + 1)

    def index(self, node: XAddr) -> int:
        level, idx = node
        self._check(node)
        return (1 << level) - 1 + idx

    def node_at(self, i: int) -> XAddr:
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range for B_{self.height}")
        level = (i + 1).bit_length() - 1
        return (level, i - ((1 << level) - 1))

    def _check(self, node: XAddr) -> None:
        level, idx = node
        if not (0 <= level <= self.height and 0 <= idx < (1 << level)):
            raise ValueError(f"{node!r} is not a vertex of B_{self.height}")

    def distance(self, u: XAddr, v: XAddr, cutoff: int | None = None) -> int | None:
        """Closed-form tree distance: up to the lowest common ancestor, down."""
        self._check(u)
        self._check(v)
        (lu, iu), (lv, iv) = u, v
        # Lift the deeper node to the shallower level, then lift both.
        hops = 0
        while lu > lv:
            iu >>= 1
            lu -= 1
            hops += 1
        while lv > lu:
            iv >>= 1
            lv -= 1
            hops += 1
        while iu != iv:
            iu >>= 1
            iv >>= 1
            hops += 2
        if cutoff is not None and hops > cutoff:
            return None
        return hops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompleteBinaryTreeNet(height={self.height})"
