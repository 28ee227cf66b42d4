"""Max-flow/min-cut balanced vertex separator (pure python, no networkx).

The classical reduction: to cut *vertices* instead of edges, split every
vertex ``v`` into ``v_in -> v_out`` with capacity 1 and give every
original edge infinite capacity in both directions
(``u_out -> v_in``, ``v_out -> u_in``).  A max flow between terminal
sets then equals, by Menger/max-flow-min-cut, the size of a minimum
vertex separator, and the saturated ``v_in -> v_out`` arcs that straddle
the residual source side *are* the separator.

Balance comes from FlowCutter-style terminal piercing: a raw min cut
between two single terminals of a tree is one vertex right next to the
source — maximally unbalanced.  :class:`FlowSeparator` therefore grows
the source set down the piece (every pierced vertex gets infinite
through-capacity) until the flow is forced to cut at a subtree whose
size lands within the Lemma 2 tolerance ``floor((delta+4)/9)`` of the
requested ``delta``, carving one subtree per Dinic run until the target
is met.  The S sets are the cut-edge endpoints plus the designated
nodes; collinearity is restored with the same median-promotion repair
Lemma 2 uses, so the resulting :class:`Separation` is a drop-in
replacement in the embedding pipeline.

When the piece cannot be balanced within the cut budget (``max_cuts``)
the separator still returns its best partition and counts a
``separator.flow.balance_violations`` — the benchmark reports these as
documented violation counts rather than failing the embed.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection

from ..obs.spans import counter_inc, span
from ..trees.binary_tree import BinaryTree
from .base import Separator
from .lemmas import (
    Separation,
    _Piece,
    _repair_collinearity,
    lemma2_bound,
)

__all__ = ["DinicMaxFlow", "FlowSeparator", "min_vertex_cut"]

#: effectively-infinite arc capacity (no piece is near this large)
BIG = 1 << 30


class DinicMaxFlow:
    """Dinic's algorithm on an explicit arc list (BFS level graph +
    iterative blocking-flow augmentation; no recursion, no numpy).

    Arcs are added in pairs (forward, reverse) so ``e ^ 1`` is the
    residual partner of arc ``e``.
    """

    def __init__(self, n_vertices: int):
        self.n = n_vertices
        self.adj: list[list[int]] = [[] for _ in range(n_vertices)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add ``u -> v`` with ``capacity``; returns the arc id."""
        e = len(self.to)
        self.adj[u].append(e)
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(e + 1)
        self.to.append(u)
        self.cap.append(0)
        return e

    def _bfs_levels(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.adj[u]:
                v = self.to[e]
                if self.cap[e] > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[t] >= 0

    def _augment(self, s: int, t: int) -> int:
        """One augmenting path in the current level graph (iterative)."""
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(self.cap[e] for e in path)
                for e in path:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed
                return pushed
            advanced = False
            while self._it[u] < len(self.adj[u]):
                e = self.adj[u][self._it[u]]
                v = self.to[e]
                if self.cap[e] > 0 and self.level[v] == self.level[u] + 1:
                    path.append(e)
                    u = v
                    advanced = True
                    break
                self._it[u] += 1
            if not advanced:
                self.level[u] = -1  # dead end: prune from the level graph
                if u == s:
                    return 0
                e = path.pop()
                u = self.to[e ^ 1]
                self._it[u] += 1

    def max_flow(self, s: int, t: int) -> int:
        if s == t:
            raise ValueError("source and sink must differ")
        total = 0
        while self._bfs_levels(s, t):
            self._it = [0] * self.n
            while True:
                pushed = self._augment(s, t)
                if pushed == 0:
                    break
                total += pushed
        return total

    def residual_reachable(self, s: int) -> list[bool]:
        """Vertices reachable from ``s`` along positive-residual arcs —
        the source side of the minimum cut after :meth:`max_flow`."""
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.adj[u]:
                v = self.to[e]
                if self.cap[e] > 0 and not seen[v]:
                    seen[v] = True
                    q.append(v)
        return seen


def min_vertex_cut(
    nodes: Collection[int],
    edges: Collection[tuple[int, int]],
    source: int,
    sink: int,
    uncuttable: Collection[int] = (),
    *,
    cut_sink: bool = False,
) -> tuple[int, set[int], set[int]]:
    """Minimum vertex separator between ``source`` and ``sink``.

    Runs Dinic on the split-node capacity graph (every cuttable vertex
    capacity 1, ``uncuttable`` vertices and the terminals capacity
    ``BIG``) and reads the cut out of the residual graph.  Returns
    ``(flow_value, cut_vertices, sink_side)`` where ``sink_side`` is the
    set of vertices whose *out* node the source cannot reach — the cut
    vertices themselves plus everything strictly behind them.

    With ``cut_sink=True`` the sink vertex itself keeps capacity 1 and
    the flow terminates at its *out* node, so the sink is allowed (and,
    when everything nearer the source is uncuttable, forced) to be the
    separator — the piercing mode :class:`FlowSeparator` drives.
    """
    idx = {v: i for i, v in enumerate(sorted(nodes))}
    if source not in idx or sink not in idx:
        raise ValueError("terminals must be inside the vertex set")
    blocked = set(uncuttable) | {source} | (set() if cut_sink else {sink})
    flow = DinicMaxFlow(2 * len(idx))
    for v, i in idx.items():
        flow.add_edge(2 * i, 2 * i + 1, BIG if v in blocked else 1)
    for u, v in edges:
        if u in idx and v in idx:
            flow.add_edge(2 * idx[u] + 1, 2 * idx[v], BIG)
            flow.add_edge(2 * idx[v] + 1, 2 * idx[u], BIG)
    t_node = 2 * idx[sink] + (1 if cut_sink else 0)
    value = flow.max_flow(2 * idx[source] + 1, t_node)
    reach = flow.residual_reachable(2 * idx[source] + 1)
    cut = {v for v, i in idx.items() if reach[2 * i] and not reach[2 * i + 1]}
    sink_side = {v for v, i in idx.items() if not reach[2 * i + 1]}
    return value, cut, sink_side


class FlowSeparator(Separator):
    """Flow-based splitter honouring the Lemma 2 interface and tolerance.

    Per carve round: pick the largest still-available subtree not larger
    than ``target + tolerance`` (FlowCutter's piercing schedule — on a
    tree the pierce sequence down to a carve root is forced, so it is
    computed from subtree sizes instead of one Dinic call per pierced
    vertex), make the root-to-parent path uncuttable, and let Dinic cut.
    The flow value must come back 1 — the carve root's parent edge — and
    the residual graph yields the carved side.  Repeats until side 2 is
    within tolerance of ``delta`` or the cut budget is spent.
    """

    name = "flow"

    def __init__(self, max_cuts: int = 8):
        if max_cuts < 1:
            raise ValueError(f"max_cuts must be >= 1, got {max_cuts}")
        self.max_cuts = max_cuts
        #: diagnostics of the most recent :meth:`split` call
        self.last_stats: dict[str, int] = {}

    def split(
        self,
        tree: BinaryTree,
        r1: int,
        r2: int,
        delta: int,
        universe: Collection[int] | None = None,
    ) -> Separation:
        uni = frozenset(tree.nodes()) if universe is None else frozenset(universe)
        n = len(uni)
        if not 1 <= delta <= n - 1:
            raise ValueError(f"delta must be in [1, {n - 1}], got {delta}")
        if r2 not in uni:
            raise ValueError(f"designated node {r2} not in the piece universe")
        with span("separator.split", separator=self.name, n=n, delta=delta):
            sep, dinic_calls = self._split(tree, r1, r2, delta, uni)
        counter_inc("separator.flow.calls")
        counter_inc("separator.flow.dinic_calls", dinic_calls)
        tol = lemma2_bound(delta)
        balance_error = abs(sep.n2 - delta)
        if balance_error > tol:
            counter_inc("separator.flow.balance_violations")
        nominal_s1 = len(sep.s1) - sep.n_promotions
        if max(nominal_s1, len(sep.s2)) > 4:
            counter_inc("separator.flow.size_violations")
        if sep.n_promotions:
            counter_inc("separator.flow.promotions", sep.n_promotions)
        self.last_stats = {
            "n": n,
            "delta": delta,
            "tolerance": tol,
            "achieved": sep.n2,
            "balance_error": balance_error,
            "n_cut_edges": len(sep.cut_edges),
            "s1": len(sep.s1),
            "s2": len(sep.s2),
            "n_promotions": sep.n_promotions,
            "dinic_calls": dinic_calls,
        }
        return sep

    def _split(
        self,
        tree: BinaryTree,
        r1: int,
        r2: int,
        delta: int,
        uni: frozenset[int],
    ) -> tuple[Separation, int]:
        tol = lemma2_bound(delta)
        _Piece(tree, uni, r1)  # validates r1 membership + connectivity
        tree_edges = [
            (u, v) for u, v in tree.edges() if u in uni and v in uni
        ]
        pierced = {r1}  # source-side mass: uncuttable, never carved
        side2: set[int] = set()
        cut_edges: list[tuple[int, int]] = []
        remaining = set(uni)
        dinic_calls = 0
        while len(side2) < delta - tol and len(cut_edges) < self.max_cuts:
            target = delta - len(side2)
            piece = _Piece(tree, frozenset(remaining), r1)
            # subtrees containing pierced vertices must stay on side 1
            # (their vertices anchor earlier cut edges); children-first
            # aggregation over the preorder marks them
            tainted: dict[int, bool] = {}
            for v in reversed(piece.order):
                tainted[v] = v in pierced or any(
                    tainted[c] for c in piece.children[v]
                )
            carve = None
            for v in piece.order:
                if v == piece.root or tainted[v]:
                    continue
                if piece.size[v] <= target + tol and (
                    carve is None or piece.size[v] > piece.size[carve]
                ):
                    carve = v
            if carve is None:
                break  # nothing carvable: report the imbalance
            pierced.update(v for v in piece.path_from_root(carve) if v != carve)
            remaining_edges = [
                (u, v) for u, v in tree_edges
                if u in remaining and v in remaining
            ]
            value, cut, sink_side = min_vertex_cut(
                remaining, remaining_edges, r1, carve,
                uncuttable=pierced, cut_sink=True,
            )
            dinic_calls += 1
            if value != 1 or cut != {carve}:
                raise AssertionError(
                    f"flow separator expected unit cut at {carve}, got "
                    f"value {value}, cut {sorted(cut)}"
                )
            cut_edges.append((piece.parent[carve], carve))
            side2 |= sink_side
            remaining -= sink_side
        side1 = set(uni) - side2
        s1 = {r1} | {a for a, _ in cut_edges}
        s2 = {b for _, b in cut_edges}
        (s2 if r2 in side2 else s1).add(r2)
        sep = Separation(
            side1=frozenset(side1),
            side2=frozenset(side2),
            s1=frozenset(s1),
            s2=frozenset(s2),
            cut_edges=tuple(sorted(cut_edges)),
        )
        return _repair_collinearity(tree, sep), dinic_calls
