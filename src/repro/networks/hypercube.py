"""The hypercube network Q_d.

Nodes are the integers ``0 .. 2**d - 1`` read as ``d``-bit strings; two nodes
are adjacent when their labels differ in exactly one bit.  Distance is the
Hamming distance, which we compute in closed form instead of BFS.

The paper uses hypercubes in section 3: Lemma 3 embeds X(r) into Q_{r+1} with
the distance property ``dist(a, b) = D  =>  dist(f(a), f(b)) <= D + 1``, and
Theorem 3 composes it with the Theorem 1 embedding.  The classical *inorder*
embedding of the complete binary tree into its optimal hypercube (dilation 2)
is also restated there; both live in :mod:`repro.core.hypercube_embed`.
"""

from __future__ import annotations

from collections.abc import Iterator

from .base import Topology

__all__ = ["Hypercube", "hamming_distance"]


def hamming_distance(u: int, v: int) -> int:
    """Number of bit positions in which ``u`` and ``v`` differ."""
    return (u ^ v).bit_count()


class Hypercube(Topology):
    """The ``d``-dimensional binary hypercube Q_d."""

    name = "hypercube"
    params = ("dimension",)

    def __init__(self, dimension: int):
        if dimension < 0:
            raise ValueError(f"dimension must be non-negative, got {dimension}")
        self.dimension = dimension
        self._n = 1 << dimension

    @property
    def n_nodes(self) -> int:
        return self._n

    def nodes(self) -> Iterator[int]:
        return iter(range(self._n))

    def neighbors(self, node: int) -> Iterator[int]:
        self._check(node)
        for bit in range(self.dimension):
            yield node ^ (1 << bit)

    def index(self, node: int) -> int:
        self._check(node)
        return node

    def node_at(self, idx: int) -> int:
        self._check(idx)
        return idx

    def _check(self, node: int) -> None:
        if not isinstance(node, int) or not 0 <= node < self._n:
            raise ValueError(f"{node!r} is not a vertex of Q_{self.dimension}")

    def distance(self, u: int, v: int, cutoff: int | None = None) -> int | None:
        """Hamming distance (closed form; no BFS needed)."""
        self._check(u)
        self._check(v)
        d = hamming_distance(u, v)
        if cutoff is not None and d > cutoff:
            return None
        return d

    def diameter(self) -> int:
        return self.dimension

    def degree(self, node: int) -> int:
        self._check(node)
        return self.dimension

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypercube(dimension={self.dimension})"
