"""Cube-connected cycles CCC(d).

Nodes are pairs ``(w, i)`` with ``w`` a ``d``-bit corner label and
``i in range(d)`` a position on the cycle replacing that hypercube corner.
Edges: cycle edges ``(w, i) ~ (w, (i+1) mod d)`` and hypercube edges
``(w, i) ~ (w ^ (1 << i), i)``.  Every vertex has degree 3 (degree 2 when
``d < 3`` degenerates the cycle).

The paper's introduction cites Bhatt-Chung-Hong-Leighton-Rosenberg (1988):
X-trees need dilation Theta(log log n) in CCC/butterfly networks, i.e. the
X-tree host of Theorem 1 genuinely cannot be replaced by these
constant-degree hypercubic networks.  Experiment E9/E8 context benches use
this class to measure that gap empirically on small instances.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._cyclic import min_cycle_cover_walk
from .base import Topology

__all__ = ["CubeConnectedCycles"]

CCCNode = tuple[int, int]


class CubeConnectedCycles(Topology):
    """The cube-connected cycles network of dimension ``d`` (``d >= 1``)."""

    name = "ccc"
    params = ("dimension",)

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._n = dimension << dimension

    @property
    def n_nodes(self) -> int:
        return self._n

    def nodes(self) -> Iterator[CCCNode]:
        for w in range(1 << self.dimension):
            for i in range(self.dimension):
                yield (w, i)

    def neighbors(self, node: CCCNode) -> Iterator[CCCNode]:
        w, i = node
        self._check(node)
        d = self.dimension
        if d > 1:
            yield (w, (i + 1) % d)
            if d > 2:
                yield (w, (i - 1) % d)
        yield (w ^ (1 << i), i)

    def index(self, node: CCCNode) -> int:
        w, i = node
        self._check(node)
        return w * self.dimension + i

    def node_at(self, idx: int) -> CCCNode:
        if not 0 <= idx < self._n:
            raise IndexError(f"index {idx} out of range for CCC({self.dimension})")
        return divmod(idx, self.dimension)

    def _check(self, node: CCCNode) -> None:
        w, i = node
        if not (0 <= w < (1 << self.dimension) and 0 <= i < self.dimension):
            raise ValueError(f"{node!r} is not a vertex of CCC({self.dimension})")

    def distance(self, u: CCCNode, v: CCCNode, cutoff: int | None = None) -> int | None:
        """Exact hop distance, in closed form (no BFS).

        A hypercube edge fixes bit ``i`` only while the cursor sits at cycle
        position ``i`` (cost 1 per differing bit), and cycle edges move the
        cursor by one.  A shortest path is therefore ``popcount(wu ^ wv)``
        flips plus a minimum covering walk of the cursor from ``iu`` to
        ``iv`` visiting every differing bit position
        (:func:`repro.networks._cyclic.min_cycle_cover_walk`).  Proven equal
        to BFS on all pairs by the test suite.
        """
        wu, iu = u
        wv, iv = v
        self._check(u)
        self._check(v)
        diff = wu ^ wv
        required = [p for p in range(self.dimension) if diff >> p & 1]
        d = len(required) + min_cycle_cover_walk(self.dimension, iu, iv, required)
        if cutoff is not None and d > cutoff:
            return None
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CubeConnectedCycles(dimension={self.dimension})"
