"""Two-dimensional mesh (grid) network.

Nodes are ``(row, col)`` pairs; edges connect horizontally and vertically
adjacent cells.  Present for section 1 context (grids are the other family
BCHLR'88 proved hard for CCC/butterflies, and a classic easy case for
hypercubes) and as an additional host for the simulator examples.
"""

from __future__ import annotations

from collections.abc import Iterator

from .base import Topology

__all__ = ["Grid2D"]

GridNode = tuple[int, int]


class Grid2D(Topology):
    """An ``rows x cols`` mesh with Manhattan closed-form distances."""

    name = "grid2d"
    params = ("rows", "cols")

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._n = rows * cols

    @property
    def n_nodes(self) -> int:
        return self._n

    def nodes(self) -> Iterator[GridNode]:
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)

    def neighbors(self, node: GridNode) -> Iterator[GridNode]:
        r, c = node
        self._check(node)
        if r > 0:
            yield (r - 1, c)
        if r < self.rows - 1:
            yield (r + 1, c)
        if c > 0:
            yield (r, c - 1)
        if c < self.cols - 1:
            yield (r, c + 1)

    def index(self, node: GridNode) -> int:
        r, c = node
        self._check(node)
        return r * self.cols + c

    def node_at(self, idx: int) -> GridNode:
        if not 0 <= idx < self._n:
            raise IndexError(f"index {idx} out of range for grid")
        return divmod(idx, self.cols)

    def _check(self, node: GridNode) -> None:
        r, c = node
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"{node!r} is not a cell of a {self.rows}x{self.cols} grid")

    def distance(self, u: GridNode, v: GridNode, cutoff: int | None = None) -> int | None:
        """Manhattan distance |r1-r2| + |c1-c2|."""
        self._check(u)
        self._check(v)
        d = abs(u[0] - v[0]) + abs(u[1] - v[1])
        if cutoff is not None and d > cutoff:
            return None
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Grid2D(rows={self.rows}, cols={self.cols})"
