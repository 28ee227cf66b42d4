"""Shuffle-exchange and de Bruijn networks.

The universal-graph discussion in the paper (references [1], [2], [6])
lives in the world of *bounded-degree* networks; shuffle-exchange and
de Bruijn graphs are the canonical constant-degree universal workhorses of
that literature.  They complete the library's set of hosts so the E9-style
comparisons can include every classic bounded-degree contender.

* :class:`ShuffleExchange` SE(d): nodes are d-bit strings; *exchange* edges
  flip the last bit, *shuffle* edges rotate the string left.  Degree <= 3.
* :class:`DeBruijn` DB(d): nodes are d-bit strings; edges connect ``w`` to
  ``(w << 1 | b) mod 2^d``.  Degree <= 4 (as an undirected graph).
"""

from __future__ import annotations

from collections.abc import Iterator

from ._cyclic import min_cycle_cover_walk
from .base import Topology

__all__ = ["ShuffleExchange", "DeBruijn"]


class ShuffleExchange(Topology):
    """The shuffle-exchange network on ``2**d`` nodes (``d >= 1``)."""

    name = "shuffle-exchange"
    params = ("dimension",)

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._n = 1 << dimension

    @property
    def n_nodes(self) -> int:
        return self._n

    def nodes(self) -> Iterator[int]:
        return iter(range(self._n))

    def _shuffle(self, w: int) -> int:
        """Rotate left: the top bit wraps to the bottom."""
        top = (w >> (self.dimension - 1)) & 1
        return ((w << 1) & (self._n - 1)) | top

    def _unshuffle(self, w: int) -> int:
        bottom = w & 1
        return (w >> 1) | (bottom << (self.dimension - 1))

    def neighbors(self, node: int) -> Iterator[int]:
        self._check(node)
        seen = set()
        for v in (node ^ 1, self._shuffle(node), self._unshuffle(node)):
            if v != node and v not in seen:
                seen.add(v)
                yield v

    def index(self, node: int) -> int:
        self._check(node)
        return node

    def node_at(self, idx: int) -> int:
        self._check(idx)
        return idx

    def _check(self, node: int) -> None:
        if not isinstance(node, int) or not 0 <= node < self._n:
            raise ValueError(f"{node!r} is not a vertex of SE({self.dimension})")

    def distance(self, u: int, v: int, cutoff: int | None = None) -> int | None:
        """Exact hop distance, in closed form (no BFS).

        Circular-tape model: keep the bits of ``u`` on a fixed circular
        tape and track a head, initially over bit 0.  A shuffle (rotate
        left) moves the head one position down the tape, an unshuffle moves
        it up, and an exchange flips the bit under the head.  The walk ends
        with the head at offset ``h``, at which point the current string is
        the tape read starting from ``h`` — so reaching ``v`` means the
        tape must equal ``v`` rotated left by ``h``.  Minimising over the
        final offset::

            d(u, v) = min_h  popcount(u ^ rotl(v, h))
                             + cover_walk(Z_d, 0 -> -h, mismatch positions)

        with the covering walk of
        :func:`repro.networks._cyclic.min_cycle_cover_walk`.  Proven equal
        to BFS on all pairs by the test suite.
        """
        self._check(u)
        self._check(v)
        d = self.dimension
        mask = self._n - 1
        best = None
        target = v
        for h in range(d):
            # target == v rotated left by h; head must end at -h mod d.
            diff = u ^ target
            required = [p for p in range(d) if diff >> p & 1]
            cost = len(required) + min_cycle_cover_walk(d, 0, h, required)
            if best is None or cost < best:
                best = cost
            target = ((target << 1) & mask) | (target >> (d - 1))
        if cutoff is not None and best > cutoff:
            return None
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShuffleExchange(dimension={self.dimension})"


class DeBruijn(Topology):
    """The binary de Bruijn graph on ``2**d`` nodes (``d >= 1``)."""

    name = "debruijn"
    params = ("dimension",)

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._n = 1 << dimension

    @property
    def n_nodes(self) -> int:
        return self._n

    def nodes(self) -> Iterator[int]:
        return iter(range(self._n))

    def neighbors(self, node: int) -> Iterator[int]:
        self._check(node)
        mask = self._n - 1
        seen = set()
        candidates = [
            ((node << 1) & mask) | 0,
            ((node << 1) & mask) | 1,
            (node >> 1),
            (node >> 1) | (1 << (self.dimension - 1)),
        ]
        for v in candidates:
            if v != node and v not in seen:
                seen.add(v)
                yield v

    def index(self, node: int) -> int:
        self._check(node)
        return node

    def node_at(self, idx: int) -> int:
        self._check(idx)
        return idx

    def _check(self, node: int) -> None:
        if not isinstance(node, int) or not 0 <= node < self._n:
            raise ValueError(f"{node!r} is not a vertex of DB({self.dimension})")

    def diameter(self) -> int:
        """At most ``d`` (follow the shift register); exact by BFS."""
        return super().diameter()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeBruijn(dimension={self.dimension})"
