"""The (unwrapped) butterfly network BF(d).

Nodes are pairs ``(level, w)`` with ``0 <= level <= d`` and ``w`` a ``d``-bit
row label.  Node ``(l, w)`` with ``l < d`` is adjacent to ``(l+1, w)``
(straight edge) and ``(l+1, w ^ (1 << l))`` (cross edge).  Interior vertices
have degree 4; boundary levels degree 2.

Like :mod:`repro.networks.ccc` this exists to reproduce the section 1
context: butterfly networks share the hypercube's topological properties but
*cannot* host X-trees (and hence arbitrary binary trees via Theorem 1's
route) with constant dilation and expansion.
"""

from __future__ import annotations

from collections.abc import Iterator

from .base import Topology

__all__ = ["Butterfly"]

BFNode = tuple[int, int]


class Butterfly(Topology):
    """The unwrapped butterfly of dimension ``d`` (``(d+1) * 2**d`` nodes)."""

    name = "butterfly"
    params = ("dimension",)

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._rows = 1 << dimension
        self._n = (dimension + 1) * self._rows

    @property
    def n_nodes(self) -> int:
        return self._n

    def nodes(self) -> Iterator[BFNode]:
        for level in range(self.dimension + 1):
            for w in range(self._rows):
                yield (level, w)

    def neighbors(self, node: BFNode) -> Iterator[BFNode]:
        level, w = node
        self._check(node)
        if level < self.dimension:
            yield (level + 1, w)
            yield (level + 1, w ^ (1 << level))
        if level > 0:
            yield (level - 1, w)
            yield (level - 1, w ^ (1 << (level - 1)))

    def index(self, node: BFNode) -> int:
        level, w = node
        self._check(node)
        return level * self._rows + w

    def node_at(self, idx: int) -> BFNode:
        if not 0 <= idx < self._n:
            raise IndexError(f"index {idx} out of range for BF({self.dimension})")
        return divmod(idx, self._rows)

    def _check(self, node: BFNode) -> None:
        level, w = node
        if not (0 <= level <= self.dimension and 0 <= w < self._rows):
            raise ValueError(f"{node!r} is not a vertex of BF({self.dimension})")

    def distance(self, u: BFNode, v: BFNode, cutoff: int | None = None) -> int | None:
        """Exact hop distance, in closed form (no BFS).

        Bit ``i`` of the row label can only change while crossing the level
        boundary ``i <-> i+1`` (the cross edge there flips it; the straight
        edge keeps it).  A path is therefore a walk on the level line
        ``0..d`` from ``lu`` to ``lv`` that crosses boundary ``i`` at least
        once for every differing bit ``i`` — and any such walk suffices,
        since each crossing freely chooses straight or cross.  The shortest
        walk touches ``lo = min(diff)`` and ``hi = max(diff) + 1`` (plus the
        endpoints) and reverses at most once, giving::

            d = (B - A) + min((lu - A) + (B - lv), (B - lu) + (lv - A))

        with ``A = min(lu, lv, lo)`` and ``B = max(lu, lv, hi + 1)``.
        Proven equal to BFS on all pairs by the test suite.
        """
        lu, wu = u
        lv, wv = v
        self._check(u)
        self._check(v)
        diff = wu ^ wv
        if diff == 0:
            d = abs(lu - lv)
        else:
            lo = (diff & -diff).bit_length() - 1  # lowest differing bit
            hi = diff.bit_length()  # highest differing bit, plus one
            a = min(lu, lv, lo)
            b = max(lu, lv, hi)
            d = (b - a) + min((lu - a) + (b - lv), (b - lu) + (lv - a))
        if cutoff is not None and d > cutoff:
            return None
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Butterfly(dimension={self.dimension})"
