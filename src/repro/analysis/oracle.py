"""The distance oracle: batched host distances as the cheap primitive.

Every claim the library verifies (Theorems 1-4, Lemma 3, condition (3'))
bottoms out in "host distance between mapped guest neighbours <= c".  This
module makes that query cheap at every batch size:

* **CSR adjacency** — the topology's neighbour structure is flattened once
  into numpy ``indptr``/``indices`` arrays (the format sparse linear-algebra
  and GPU libraries share), so BFS never touches Python-level adjacency
  again.
* **Multi-source frontier-at-a-time BFS** — :meth:`DistanceOracle.rows`
  expands the frontiers of many sources simultaneously with vectorised
  gathers; one numpy call per BFS level instead of one Python loop
  iteration per edge.
* **LRU row cache** — one-to-all rows are memoised (bounded), so repeated
  queries against the same destinations (the routing pattern of dilation
  and congestion checks) cost one lookup.
* **Table-free tree routing** — on tree topologies
  (``Topology.is_tree``) :meth:`DistanceOracle.next_hops` routes by
  preorder intervals in O(n) memory; other hosts gather from dense
  ``(n, n)`` next-hop tables.
* **Closed forms, vectorised** — topologies with arithmetic distance
  formulas (X-tree, hypercube, grid, complete binary tree — see
  ``Topology.has_closed_form_distance``) bypass BFS entirely;
  :meth:`DistanceOracle.pairs_distances` evaluates the formula over whole
  index arrays at once.

``oracle_for`` memoises one oracle per live topology object, so call sites
(:class:`repro.core.embedding.Embedding`, the verification layer, the
benchmark harness) share CSR builds and row caches for free.
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict
from collections.abc import Iterable
from typing import Any

import numpy as np

from ..networks.base import Topology
from ..networks.binary_tree_net import CompleteBinaryTreeNet
from ..obs import counter_inc, span
from ..networks.grid import Grid2D
from ..networks.hypercube import Hypercube
from ..networks.universal import UNIVERSAL_SLOTS, UniversalGraph
from ..networks.xtree import XTree

__all__ = [
    "DistanceOracle",
    "ORACLE_CACHE_ENV",
    "ORACLE_CACHE_ROWS",
    "oracle_for",
    "resolve_oracle_cache",
]

#: default LRU row-cache capacity (one-to-all rows held per oracle)
ORACLE_CACHE_ROWS = 256

#: environment override for the row-cache capacity — resolved at oracle
#: construction, so exported once it governs every oracle that did not
#: pass an explicit ``row_cache_size``
ORACLE_CACHE_ENV = "REPRO_ORACLE_CACHE"


def resolve_oracle_cache(override: int | None = None) -> int:
    """The effective row-cache capacity: explicit override > env > default."""
    if override is not None:
        if override < 1:
            raise ValueError(f"row cache size must be >= 1, got {override}")
        return override
    raw = os.environ.get(ORACLE_CACHE_ENV)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{ORACLE_CACHE_ENV}={raw!r} is not an integer"
            ) from None
        if value < 1:
            raise ValueError(f"{ORACLE_CACHE_ENV} must be >= 1, got {value}")
        return value
    return ORACLE_CACHE_ROWS


def _heap_split(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised inverse of the X-tree heap index: ``i -> (level, pos)``.

    ``level = floor(log2(i + 1))`` computed exactly via ``frexp`` (float64
    is exact for the sizes any topology here can reach).
    """
    _, exp = np.frexp((idx + 1).astype(np.float64))
    level = exp.astype(np.int64) - 1
    pos = idx + 1 - (np.int64(1) << level)
    return level, pos


def _xtree_pairs(height: int, ai: np.ndarray, bi: np.ndarray) -> np.ndarray:
    """Closed-form X-tree distances over index arrays (see XTree.distance)."""
    lu, iu = _heap_split(ai)
    lv, iv = _heap_split(bi)
    vertical = np.abs(lu - lv)
    level = np.minimum(lu, lv)
    iu >>= lu - level
    iv >>= lv - level
    best = vertical + np.abs(iu - iv)
    climb = vertical  # buffer reuse: ``vertical`` is dead from here on
    # No per-pair masking is needed once a pair's meeting level passes 0:
    # both projections are then the root (index 0), so later candidates are
    # ``climb + 0`` with strictly larger ``climb`` — upper bounds that never
    # win the minimum.
    for _ in range(int(level.max(initial=0))):
        iu >>= 1
        iv >>= 1
        climb += 2
        np.minimum(best, climb + np.abs(iu - iv), out=best)
    return best


def _cbt_pairs(ai: np.ndarray, bi: np.ndarray) -> np.ndarray:
    """Closed-form complete-binary-tree distances: up to the LCA and down."""
    lu, iu = _heap_split(ai)
    lv, iv = _heap_split(bi)
    level = np.minimum(lu, lv)
    _, exp = np.frexp(((iu >> (lu - level)) ^ (iv >> (lv - level))).astype(np.float64))
    return (lu - level) + (lv - level) + 2 * exp.astype(np.int64)


class _TreeRoutes:
    """Table-free routing on a tree by preorder (Euler) intervals.

    With ``tin``/``tout`` the first and last preorder positions of a
    node's subtree, ``d`` lies below ``u`` iff ``tin[u] < tin[d] <=
    tout[u]``.  Then the next hop from ``u`` towards ``d`` is the child of
    ``u`` whose interval holds ``tin[d]``; otherwise it is ``u``'s parent.
    The path is unique, so this is exactly the smallest-index
    shortest-path hop the dense tables would give.  Everything is O(n),
    built in one depth-first pass over the CSR adjacency.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        n = indptr.size - 1
        if indices.size != 2 * (n - 1):
            raise ValueError(
                f"a tree on {n} nodes has {n - 1} links, got {indices.size // 2}"
            )
        ip = indptr.tolist()
        nb = indices.tolist()
        parent = [-1] * n
        up = [-1] * n  # CSR slot of the link  v -> parent[v]
        down = [-1] * n  # CSR slot of the link  parent[v] -> v
        tin = [-1] * n
        order: list[int] = []
        stack = [0]
        while stack:
            u = stack.pop()
            tin[u] = len(order)
            order.append(u)
            for slot in range(ip[u + 1] - 1, ip[u] - 1, -1):
                v = nb[slot]
                if v == parent[u]:
                    up[u] = slot
                    continue
                if tin[v] >= 0 or parent[v] >= 0:
                    raise ValueError("topology flagged is_tree has a cycle")
                parent[v] = u
                down[v] = slot
                stack.append(v)
        if len(order) != n:
            raise ValueError("topology flagged is_tree is not connected")
        size = [1] * n
        for v in reversed(order[1:]):
            size[parent[v]] += size[v]
        tout = [tin[v] + size[v] - 1 for v in range(n)]
        kids: list[list[int]] = [[] for _ in range(n)]
        for v in order[1:]:
            kids[parent[v]].append(v)
        # Python lists for the scalar hop, int64 arrays for the batch one
        self.tin, self.tout, self.parent, self.kids = tin, tout, parent, kids
        self.n = n
        self._tin, self._tout, self._parent, self._up, self._down, child = (
            np.asarray(xs, dtype=np.int64)
            for xs in (tin, tout, parent, up, down, order[1:])
        )
        # every non-root node keyed by (parent, tin): the child of ``u``
        # holding ``d`` is the last key <= (u, tin[d])
        key = self._parent[child] * n + self._tin[child]
        ranked = np.argsort(key)
        self._child, self._child_key = child[ranked], key[ranked]

    def hops(self, cur: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        td = self._tin[dst]
        below = (self._tin[cur] < td) & (td <= self._tout[cur])
        if self._child.size:
            pick = np.searchsorted(self._child_key, cur * self.n + td, side="right") - 1
            hop = np.where(below, self._child[pick], self._parent[cur])
        else:
            hop = self._parent[cur]
        edge = np.where(below, self._down[hop], self._up[cur])
        home = cur == dst
        hop[home] = -1
        edge[home] = -1
        return hop, edge

    def hop(self, u: int, d: int) -> int:
        if u == d:
            return -1
        td = self.tin[d]
        if self.tin[u] < td <= self.tout[u]:
            for c in self.kids[u]:
                if td <= self.tout[c]:
                    return c
        return self.parent[u]


class DistanceOracle:
    """O(1)-amortised hop distances over one :class:`Topology`.

    The adjacency is compiled to CSR once at construction; every query API
    is batch-first.  Node identity is the topology's canonical index
    (``Topology.index``); label-level conveniences convert at the edge.
    """

    def __init__(
        self,
        topology: Topology,
        row_cache_size: int | None = None,
        *,
        weak: bool = False,
    ):
        row_cache_size = resolve_oracle_cache(row_cache_size)
        # ``weak=True`` (used by :func:`oracle_for`) keeps only a weak
        # reference, so a memoised oracle never keeps its topology alive
        self._topology = weakref.ref(topology) if weak else lambda: topology
        self.n = topology.n_nodes
        self._labels: list[Any] = list(topology.nodes())
        #: label -> canonical index; ``nodes()`` yields labels in index
        #: order, and a dict lookup beats ``topology.index`` at volume
        self._index_of: dict[Any, int] = {
            label: i for i, label in enumerate(self._labels)
        }
        index_of = self._index_of
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        flat: list[int] = []
        for i, u in enumerate(self._labels):
            flat.extend(index_of[v] for v in topology.neighbors(u))
            indptr[i + 1] = len(flat)
        #: CSR adjacency: neighbours of node ``i`` are
        #: ``indices[indptr[i]:indptr[i+1]]``.
        self.indptr = indptr
        self.indices = np.asarray(flat, dtype=np.int32)
        #: interval routing for tree topologies (``None`` otherwise)
        self._tree = _TreeRoutes(indptr, self.indices) if topology.is_tree else None
        self._row_cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._row_cache_size = row_cache_size
        self._closed_form = topology.has_closed_form_distance
        #: dense routing tables, built lazily by :meth:`next_hop_matrix`
        #: and memoised alongside the row cache (one per oracle lifetime)
        self._next_hop: np.ndarray | None = None
        self._next_hop_edge: np.ndarray | None = None
        #: quotient all-pairs matrix for UniversalGraph hosts, memoised
        self._universal_quotient: np.ndarray | None = None
        #: lifetime row-cache hit/miss counts (also mirrored into the
        #: process-wide ``repro.obs`` counters ``oracle.row_cache.*``)
        self.row_cache_hits = 0
        self.row_cache_misses = 0

    @property
    def topology(self) -> Topology:
        """The topology this oracle answers for."""
        topology = self._topology()
        if topology is None:
            raise ReferenceError("the oracle's topology has been garbage-collected")
        return topology

    # ------------------------------------------------------------------
    # BFS engines
    # ------------------------------------------------------------------
    def rows(self, sources: Iterable[int] | np.ndarray) -> np.ndarray:
        """One-to-all distance rows for many sources, as a ``(k, n)`` matrix.

        All sources advance one BFS level per numpy step (multi-source
        frontier-at-a-time); unreachable nodes stay ``-1``.  Results are fed
        through the LRU row cache: cached rows are reused, fresh rows are
        inserted.
        """
        sources = np.asarray(list(sources) if not isinstance(sources, np.ndarray) else sources)
        src_list = sources.astype(np.int64).ravel().tolist()
        have: dict[int, np.ndarray] = {}
        for src in dict.fromkeys(src_list):
            cached = self._cache_get(src)
            if cached is not None:
                have[src] = cached
        missing = [src for src in dict.fromkeys(src_list) if src not in have]
        if missing:
            fresh = self._bfs_rows(np.asarray(missing, dtype=np.int64))
            for row, src in zip(fresh, missing):
                self._cache_put(src, row)
                have[src] = row
        out = np.empty((len(src_list), self.n), dtype=np.int32)
        for slot, src in enumerate(src_list):
            out[slot] = have[src]
        return out

    def row(self, source: int) -> np.ndarray:
        """One-to-all distances from canonical index ``source`` (cached)."""
        cached = self._cache_get(source)
        if cached is not None:
            return cached
        row = self._bfs_rows(np.asarray([source], dtype=np.int64))[0]
        self._cache_put(source, row)
        return row

    def _bfs_rows(self, sources: np.ndarray) -> np.ndarray:
        """Frontier-at-a-time BFS from every source at once -> ``(k, n)``."""
        with span("oracle.bfs_rows", sources=int(sources.size), n=self.n):
            return self._bfs_rows_inner(sources)

    def _bfs_rows_inner(self, sources: np.ndarray) -> np.ndarray:
        k = sources.size
        n = self.n
        dist = np.full((k, n), -1, dtype=np.int32)
        # a frontier entry is the flattened coordinate  slot * n + node
        flat = np.arange(k, dtype=np.int64) * n + sources
        dist.ravel()[flat] = 0
        d = 0
        indptr, indices = self.indptr, self.indices
        while flat.size:
            d += 1
            slots, nodes = np.divmod(flat, n)
            counts = (indptr[nodes + 1] - indptr[nodes]).astype(np.int64)
            total = int(counts.sum())
            if total == 0:
                break
            ends = np.cumsum(counts)
            within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
            nbrs = indices[np.repeat(indptr[nodes].astype(np.int64), counts) + within]
            cand = np.repeat(slots, counts) * n + nbrs
            cand = cand[dist.ravel()[cand] < 0]
            if cand.size == 0:
                break
            flat = np.unique(cand)
            dist.ravel()[flat] = d
        return dist

    # ------------------------------------------------------------------
    # LRU row cache
    # ------------------------------------------------------------------
    def _cache_get(self, src: int) -> np.ndarray | None:
        row = self._row_cache.get(src)
        if row is not None:
            self._row_cache.move_to_end(src)
            self.row_cache_hits += 1
            counter_inc("oracle.row_cache.hit")
        else:
            self.row_cache_misses += 1
            counter_inc("oracle.row_cache.miss")
        return row

    def _cache_put(self, src: int, row: np.ndarray) -> None:
        row.setflags(write=False)
        self._row_cache[src] = row
        self._row_cache.move_to_end(src)
        while len(self._row_cache) > self._row_cache_size:
            self._row_cache.popitem(last=False)

    @property
    def cached_rows(self) -> int:
        """Number of one-to-all rows currently memoised."""
        return len(self._row_cache)

    def cache_info(self) -> dict[str, int]:
        """Row-cache statistics: hits, misses, current size, capacity."""
        return {
            "hits": self.row_cache_hits,
            "misses": self.row_cache_misses,
            "rows": len(self._row_cache),
            "capacity": self._row_cache_size,
        }

    # ------------------------------------------------------------------
    # Batched pair queries
    # ------------------------------------------------------------------
    def pairs_distances(self, pairs: np.ndarray) -> np.ndarray:
        """Distances for a ``(k, 2)`` array of canonical index pairs.

        Dispatch, fastest first: vectorised closed form (X-tree, hypercube,
        grid, complete binary tree), scalar closed form (butterfly, CCC,
        shuffle-exchange), then BFS rows grouped by the side with fewer
        distinct endpoints.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"expected a (k, 2) index array, got shape {pairs.shape}")
        if pairs.size == 0:
            return np.zeros(0, dtype=np.int32)
        ai, bi = pairs[:, 0], pairs[:, 1]
        vec = self._vectorised_pairs(ai, bi)
        if vec is not None:
            return vec
        t = self.topology
        if self._closed_form:
            lo = np.minimum(ai, bi)
            hi = np.maximum(ai, bi)
            uniq, inverse = np.unique(lo * np.int64(self.n) + hi, return_inverse=True)
            labels = self._labels
            dist = t.distance
            vals = np.fromiter(
                (dist(labels[int(p // self.n)], labels[int(p % self.n)]) for p in uniq),
                dtype=np.int32,
                count=uniq.size,
            )
            return vals[inverse]
        return self._pairs_by_rows(ai, bi)

    def _vectorised_pairs(self, ai: np.ndarray, bi: np.ndarray) -> np.ndarray | None:
        """Whole-array closed-form kernel, or ``None`` when the topology
        has no vectorised formula (scalar closed forms and BFS hosts)."""
        t = self.topology
        if isinstance(t, XTree):
            return _xtree_pairs(t.height, ai, bi).astype(np.int32)
        if isinstance(t, Hypercube):
            return np.bitwise_count(ai ^ bi).astype(np.int32)
        if isinstance(t, Grid2D):
            ra, ca = np.divmod(ai, t.cols)
            rb, cb = np.divmod(bi, t.cols)
            return (np.abs(ra - rb) + np.abs(ca - cb)).astype(np.int32)
        if isinstance(t, CompleteBinaryTreeNet):
            return _cbt_pairs(ai, bi).astype(np.int32)
        if isinstance(t, UniversalGraph):
            # Theorem 4's G_n: slots of one address are pairwise adjacent
            # and related slot groups are fully connected, so distance is
            # the quotient (address-graph) distance for distinct
            # addresses, 1 for same-address distinct slots, 0 otherwise.
            if self._universal_quotient is None:
                self._universal_quotient = np.asarray(
                    t.quotient_all_pairs(), dtype=np.int32
                )
            qa, qb = ai // UNIVERSAL_SLOTS, bi // UNIVERSAL_SLOTS
            return np.where(
                qa == qb,
                (ai != bi).astype(np.int32),
                self._universal_quotient[qa, qb],
            )
        return None

    def _pairs_by_rows(self, ai: np.ndarray, bi: np.ndarray) -> np.ndarray:
        """BFS-backed pair distances, grouping by the smaller endpoint set."""
        if np.unique(bi).size < np.unique(ai).size:
            ai, bi = bi, ai
        out = np.empty(ai.size, dtype=np.int32)
        sources, inverse = np.unique(ai, return_inverse=True)
        rows = self.rows(sources)
        out[:] = rows[inverse, bi]
        return out

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def next_hops(
        self, cur: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch fault-free routing: ``(hop, edge_id)`` per ``(cur, dst)`` pair.

        ``hop`` is the smallest-index shortest-path next hop and
        ``edge_id`` the directed-edge identifier of the link ``(cur, hop)``
        (its CSR slot), both int64 and ``-1`` where ``cur == dst`` or
        ``dst`` is unreachable.  Tree topologies answer from preorder
        intervals in O(n) memory; every other topology gathers from the
        dense tables of :meth:`next_hop_tables`.  This is the only routing
        call of the vectorised kernel (:mod:`repro.simulate.vector_engine`).
        """
        cur = np.asarray(cur, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if self._tree is not None:
            return self._tree.hops(cur, dst)
        nh, eid = self.next_hop_tables()
        flat = cur * self.n + dst
        return nh.ravel()[flat].astype(np.int64), eid.ravel()[flat].astype(np.int64)

    def next_hop(self, u: int, d: int) -> int:
        """Scalar twin of :meth:`next_hops` (hop only) for the classic
        engine's per-message routing; ``-1`` where there is no hop."""
        if self._tree is not None:
            return self._tree.hop(u, d)
        if self._next_hop is None:
            self._build_next_hop_tables()
        return self._next_hop.item(u, d)

    def next_hop_matrix(self) -> np.ndarray:
        """Dense deterministic routing table ``NH[u, d]`` over the fault-free
        topology, as an ``(n, n)`` int32 matrix of canonical indices.

        ``NH[u, d]`` is the neighbour of ``u`` that lies on a shortest path
        towards ``d``, with ties broken towards the smallest canonical
        index — exactly the policy of
        :meth:`repro.simulate.engine.SynchronousNetwork.next_hop` (and
        hence :class:`~repro.simulate.routing.ShortestPathRouter`) on a
        network with no failed links.  Entries with no next hop (``u == d``
        or ``d`` unreachable) hold ``-1``.

        Built once from :meth:`all_pairs` and memoised for the oracle's
        lifetime, like the LRU row cache but a single object: both
        :meth:`next_hop` and :meth:`next_hops` gather from the same matrix
        on every topology that is not a tree.
        """
        if self._next_hop is None:
            self._build_next_hop_tables()
        return self._next_hop

    def next_hop_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(next_hop, edge_id)`` matrices for the vectorised engine.

        ``edge_id[u, d]`` is the *directed-edge identifier* of the link
        ``(u, NH[u, d])`` — its position in the CSR ``indices`` array — so
        one gather yields both the next node and the link whose capacity
        the hop consumes.  ``-1`` where ``next_hop`` is ``-1``.
        """
        if self._next_hop is None:
            self._build_next_hop_tables()
        return self._next_hop, self._next_hop_edge

    def _build_next_hop_tables(self) -> None:
        n = self.n
        dist = self.all_pairs(dtype=np.int32)
        indptr, indices = self.indptr, self.indices
        deg = np.diff(indptr).astype(np.int64)
        max_deg = int(deg.max(initial=0))
        # per-row neighbour lists, index-sorted ascending, padded with the
        # sentinel ``n``; ``pos`` remembers each neighbour's CSR slot (the
        # directed-edge id)
        nbr = np.full((n, max_deg), n, dtype=np.int64)
        pos = np.full((n, max_deg), -1, dtype=np.int64)
        for u in range(n):
            s, e = int(indptr[u]), int(indptr[u + 1])
            row = indices[s:e].astype(np.int64)
            order = np.argsort(row)
            nbr[u, : e - s] = row[order]
            pos[u, : e - s] = s + order
        nh = np.full((n, n), -1, dtype=np.int32)
        eid = np.full((n, n), -1, dtype=np.int32)
        # a neighbour v is a valid next hop towards d iff dist(v, d) is
        # exactly dist(u, d) - 1; sweeping the index-sorted slots from the
        # highest down lets the smallest-index candidate overwrite last,
        # which is precisely the engine's tie-break
        target = dist - 1
        for k in range(max_deg - 1, -1, -1):
            cand = nbr[:, k]
            valid = cand < n
            cand_rows = dist[np.where(valid, cand, 0)]
            mask = valid[:, None] & (cand_rows == target) & (target >= 0)
            nh = np.where(mask, cand[:, None].astype(np.int32), nh)
            eid = np.where(mask, pos[:, k].astype(np.int32)[:, None], eid)
        nh.setflags(write=False)
        eid.setflags(write=False)
        self._next_hop = nh
        self._next_hop_edge = eid

    def distance(self, u: Any, v: Any) -> int:
        """Hop distance between two node *labels* through the oracle."""
        t = self.topology
        if self._closed_form:
            d = t.distance(u, v)
            assert d is not None
            return int(d)
        return int(self.row(t.index(u))[t.index(v)])

    def all_pairs(self, dtype=np.int32) -> np.ndarray:
        """Dense ``n x n`` distance matrix (rows in canonical index order).

        Topologies with a vectorised closed form evaluate the formula over
        the full index grid; everything else gets one multi-source BFS
        sweep.  Bypasses the LRU cache either way, so a full sweep cannot
        evict the hot rows of ongoing pair queries.
        """
        idx = np.arange(self.n, dtype=np.int64)
        vec = self._vectorised_pairs(np.repeat(idx, self.n), np.tile(idx, self.n))
        if vec is not None:
            return vec.reshape(self.n, self.n).astype(dtype, copy=False)
        return self._bfs_rows(idx).astype(dtype, copy=False)


_ORACLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def oracle_for(topology: Topology) -> DistanceOracle:
    """The memoised :class:`DistanceOracle` for a live topology object.

    Keyed weakly by object identity: call sites share CSR builds and row
    caches while the topology lives, and the oracle dies with it (it holds
    its topology only weakly, so the memo entry cannot pin its own key).
    """
    oracle = _ORACLES.get(topology)
    if oracle is None:
        oracle = DistanceOracle(topology, weak=True)
        _ORACLES[topology] = oracle
    return oracle
