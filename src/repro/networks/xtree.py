"""The X-tree network X(r) (Monien 1991, section 2; Figure 1).

Definition (quoted from the paper): *the X-tree of height r, denoted X(r), is
the graph whose nodes are all binary strings of length at most r and whose
edges connect each string x of length i (0 <= i < r) with the strings xa,
a in {0,1}, of length i+1 and, when binary(x) < 2^i - 1, also connects x with
successor(x)*.

In other words: a complete binary tree of height ``r`` plus horizontal
"cross" edges that chain the vertices of each level into a path, ordered by
the integer value of their address.

Address representation
-----------------------
The canonical node label is the pair ``(level, index)`` with
``0 <= level <= r`` and ``0 <= index < 2**level``; this is a compact,
allocation-friendly stand-in for the paper's binary string ``alpha`` (the
string is the ``level``-bit big-endian binary expansion of ``index``).
:func:`addr_to_string` / :func:`addr_from_string` convert between the two
forms; the root is ``(0, 0)`` a.k.a. the empty string.

Besides the graph interface this module implements the special
neighbourhood ``N(alpha)`` from Figure 2 — the set of vertices reachable by
at most three horizontal edges, or by at most two downward edges followed by
at most two horizontal edges.  Condition (3') of the Theorem 1 proof states
the embedding only ever maps tree-adjacent guests to host pairs
``(u, v)`` with ``v in N(u)``; the bound ``|N(alpha) - {alpha}| <= 20``
together with at most 5 "asymmetric" in-neighbours yields the degree bound
``25 * 16 + 15 = 415`` of Theorem 4.
"""

from __future__ import annotations

from collections.abc import Iterator

from .base import Topology

__all__ = [
    "XAddr",
    "XTree",
    "addr_from_string",
    "addr_to_string",
    "xtree_size",
    "xtree_optimal_height",
]

#: An X-tree address: ``(level, index)``.
XAddr = tuple[int, int]


def addr_to_string(addr: XAddr) -> str:
    """Binary-string form of an address, e.g. ``(3, 5) -> "101"``.

    The root ``(0, 0)`` maps to the empty string, matching the paper.
    """
    level, idx = addr
    if level < 0 or not 0 <= idx < (1 << level):
        raise ValueError(f"invalid X-tree address {addr!r}")
    return format(idx, f"0{level}b") if level else ""


def addr_from_string(bits: str) -> XAddr:
    """Parse a binary string into an ``(level, index)`` address."""
    if any(c not in "01" for c in bits):
        raise ValueError(f"address string must be binary, got {bits!r}")
    return (len(bits), int(bits, 2) if bits else 0)


def xtree_size(r: int) -> int:
    """Number of nodes of X(r): ``2**(r+1) - 1``."""
    if r < 0:
        raise ValueError(f"height must be non-negative, got {r}")
    return (1 << (r + 1)) - 1


def xtree_optimal_height(n_guest: int, load: int = 16) -> int:
    """Smallest height ``r`` with ``load * xtree_size(r) >= n_guest``.

    Theorem 1 uses guests of size exactly ``16 * (2**(r+1) - 1)``; for such
    sizes this returns that ``r`` (the *optimal* X-tree: zero wasted slots).
    """
    if n_guest <= 0:
        raise ValueError(f"guest size must be positive, got {n_guest}")
    r = 0
    while load * xtree_size(r) < n_guest:
        r += 1
    return r


class XTree(Topology):
    """The X-tree X(r): complete binary tree plus per-level cross edges."""

    name = "xtree"
    params = ("height",)

    def __init__(self, height: int):
        if height < 0:
            raise ValueError(f"height must be non-negative, got {height}")
        self.height = height
        self._n = xtree_size(height)

    # ------------------------------------------------------------------
    # Topology interface
    # ------------------------------------------------------------------
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
            yield (level - 1, idx >> 1)  # parent
        if level < self.height:
            yield (level + 1, 2 * idx)  # left child
            yield (level + 1, 2 * idx + 1)  # right child
        if idx > 0:
            yield (level, idx - 1)  # horizontal predecessor
        if idx < (1 << level) - 1:
            yield (level, idx + 1)  # horizontal successor

    def index(self, node: XAddr) -> int:
        level, idx = node
        self._check(node)
        return (1 << level) - 1 + idx

    def node_at(self, i: int) -> XAddr:
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range for X({self.height})")
        level = (i + 1).bit_length() - 1
        return (level, i - ((1 << level) - 1))

    def distance(self, u: XAddr, v: XAddr, cutoff: int | None = None) -> int | None:
        """Exact hop distance, in closed form (no BFS).

        The formula minimises over the *meeting level* ``m``::

            d(u, v) = min_{0 <= m <= min(lu, lv)}
                        (lu - m) + (lv - m) + |iu >> (lu - m)  -  iv >> (lv - m)|

        Each candidate is realised by an actual path — ascend ``u`` to its
        level-``m`` ancestor, walk the level-``m`` path, descend to ``v`` —
        and no path can beat the minimum: project every vertex of a path
        onto its level-``m`` ancestor, where ``m`` is the shallowest level
        the path visits.  Tree moves keep the projection fixed
        (``(i >> 1) >> (l-1-m) == i >> (l-m)``), and a horizontal move at
        any level shifts it by at most one, so a path needs at least
        ``(lu-m) + (lv-m)`` vertical and ``|iu>>(lu-m) - iv>>(lv-m)|``
        horizontal moves.  The test suite additionally proves equality with
        BFS on every pair of every X(r), r <= 5.
        """
        lu, iu = u
        lv, iv = v
        self._check(u)
        self._check(v)
        vertical = abs(lu - lv)
        # Start at the deeper node's projection onto the shallower level.
        if lu >= lv:
            iu >>= vertical
            lu = lv
        else:
            iv >>= vertical
            lv = lu
        best = vertical + abs(iu - iv)
        climb = vertical
        while lu > 0 and climb + 2 < best:
            iu >>= 1
            iv >>= 1
            lu -= 1
            climb += 2
            cand = climb + abs(iu - iv)
            if cand < best:
                best = cand
        if cutoff is not None and best > cutoff:
            return None
        return best

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def _check(self, node: XAddr) -> None:
        level, idx = node
        if not (0 <= level <= self.height and 0 <= idx < (1 << level)):
            raise ValueError(f"{node!r} is not a vertex of X({self.height})")

    def parent(self, node: XAddr) -> XAddr | None:
        """Parent in the underlying complete binary tree (None for root)."""
        level, idx = node
        self._check(node)
        return None if level == 0 else (level - 1, idx >> 1)

    def children(self, node: XAddr) -> tuple[XAddr, XAddr] | tuple[()]:
        """The two children, or ``()`` for a leaf of X(r)."""
        level, idx = node
        self._check(node)
        if level == self.height:
            return ()
        return ((level + 1, 2 * idx), (level + 1, 2 * idx + 1))

    def successor(self, node: XAddr) -> XAddr | None:
        """Right horizontal neighbour on the same level (None at level end)."""
        level, idx = node
        self._check(node)
        return (level, idx + 1) if idx < (1 << level) - 1 else None

    def predecessor(self, node: XAddr) -> XAddr | None:
        """Left horizontal neighbour on the same level (None at level start)."""
        level, idx = node
        self._check(node)
        return (level, idx - 1) if idx > 0 else None

    def level_nodes(self, level: int) -> Iterator[XAddr]:
        """All vertices on one level, left to right."""
        if not 0 <= level <= self.height:
            raise ValueError(f"level {level} out of range for X({self.height})")
        return ((level, idx) for idx in range(1 << level))

    def leaves(self) -> Iterator[XAddr]:
        """The vertices of the deepest level."""
        return self.level_nodes(self.height)

    def is_leaf(self, node: XAddr) -> bool:
        """True when ``node`` lies on the deepest level of X(r)."""
        self._check(node)
        return node[0] == self.height

    def subtree_below(self, node: XAddr) -> Iterator[XAddr]:
        """All vertices of the complete subtree rooted at ``node``."""
        level, idx = node
        self._check(node)
        for d in range(self.height - level + 1):
            base = idx << d
            for off in range(1 << d):
                yield (level + d, base + off)

    def ancestor_at(self, node: XAddr, level: int) -> XAddr:
        """The ancestor of ``node`` on ``level`` (node itself if same level)."""
        nl, idx = node
        self._check(node)
        if not 0 <= level <= nl:
            raise ValueError(f"no ancestor of {node} at level {level}")
        return (level, idx >> (nl - level))

    # ------------------------------------------------------------------
    # Figure 2: the neighbourhood N(alpha) of condition (3')
    # ------------------------------------------------------------------
    def condition_neighborhood(self, node: XAddr) -> set[XAddr]:
        """The set N(alpha) from Figure 2 (includes ``alpha`` itself).

        Vertices reachable from ``alpha`` by a path of at most three
        horizontal edges, or of at most two downward edges followed by at
        most two horizontal edges.  For an interior vertex away from the
        level boundaries, ``|N(alpha) - {alpha}| == 20``.
        """
        level, idx = node
        self._check(node)
        out: set[XAddr] = set()
        # At most three horizontal edges on alpha's own level.
        width = 1 << level
        for off in range(-3, 4):
            j = idx + off
            if 0 <= j < width:
                out.add((level, j))
        # One or two downward edges, then at most two horizontal edges.
        for down in (1, 2):
            dl = level + down
            if dl > self.height:
                break
            lo = idx << down
            hi = lo + (1 << down) - 1
            dwidth = 1 << dl
            for j in range(max(0, lo - 2), min(dwidth - 1, hi + 2) + 1):
                out.add((dl, j))
        return out

    def asymmetric_in_neighbors(self, node: XAddr) -> set[XAddr]:
        """Vertices ``beta`` with ``alpha in N(beta)`` but ``beta not in N(alpha)``.

        The paper bounds this set by 5 for every vertex; together with
        ``|N(alpha) - {alpha}| <= 20`` this gives the Theorem 4 degree bound
        ``25 * 16 + 15 = 415``.
        """
        level, idx = node
        self._check(node)
        result: set[XAddr] = set()
        own = self.condition_neighborhood(node)
        # Only vertices one or two levels up can reach alpha downwards.
        for up in (1, 2):
            ul = level - up
            if ul < 0:
                break
            uwidth = 1 << ul
            for j in range(max(0, (idx >> up) - 2), min(uwidth - 1, (idx >> up) + 2) + 1):
                beta = (ul, j)
                if node in self.condition_neighborhood(beta) and beta not in own:
                    result.add(beta)
        return result

    # ------------------------------------------------------------------
    # Exact counts (Figure 1 checks)
    # ------------------------------------------------------------------
    @property
    def n_tree_edges(self) -> int:
        """Edges of the underlying complete binary tree: ``2**(r+1) - 2``."""
        return self._n - 1

    @property
    def n_cross_edges(self) -> int:
        """Horizontal edges: ``sum_{l=1..r} (2**l - 1) = 2**(r+1) - 2 - r``."""
        return self._n - 1 - self.height

    @property
    def n_edges(self) -> int:
        """Total edges: ``2**(r+2) - r - 4``."""
        return self.n_tree_edges + self.n_cross_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"XTree(height={self.height})"
