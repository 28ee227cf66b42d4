"""Theorem 4: the universal graph G_n and the embeddings into it.

The paper's claim: for ``n = 2**t - 16`` there is a graph ``G_n`` with
``n`` vertices and maximum degree at most ``25*16 + 15 = 415`` that
contains every binary tree on ``n`` vertices as a spanning subgraph.
``benchmarks/bench_universal.py`` measures the claim at the largest
feasible ``n`` and routes real workloads over the graph.

For ``n = 2**t - 16`` (equivalently ``16 * (2**(r+1) - 1)`` with
``r = t - 5``) ``G_n`` has one vertex per (X-tree vertex, slot) pair —
``16`` slots per vertex of X(r) — and connects two vertices whenever their
X-tree components are equal or related through the Figure 2 neighbourhood
``N``:

    (alpha, j) ~ (beta, k)   iff   alpha == beta and j != k,
                                    or beta in N(alpha), or alpha in N(beta).

Degree bound: ``|N(alpha) - {alpha}| <= 20`` plus at most 5 asymmetric
in-neighbours gives ``25 * 16`` cross edges plus ``15`` within the slot
group = **415** (:data:`PAPER_DEGREE_BOUND`).

Distances in G_n factor through the *quotient graph* on X-tree addresses
(one vertex per address, an edge when the slot groups are fully
connected): slots are interchangeable, so for ``alpha != beta`` the G_n
distance between ``(alpha, j)`` and ``(beta, k)`` is exactly the quotient
distance between ``alpha`` and ``beta``, independent of ``j`` and ``k``.
That closed form is what lets the oracle and the vectorised engine treat
a 2032-vertex, degree-415 host like any other registry topology.

The embedding half runs the Theorem 1 construction on X(t-5) and lifts it
onto the slot groups.  An embedding satisfying the paper's condition (3')
maps every guest edge onto a ``G_n`` edge.  Our reconstruction of the
(partially unpublished) algorithm achieves dilation <= 3 but can, on
defensive fallback paths, produce a host pair outside the N-relation;
:func:`spanning_defect` quantifies this — it is 0 in the overwhelming
majority of runs and the benchmark reports the exceptions.
``mode="radius"`` (distance <= 3 in X(r)) is guaranteed to contain every
embedding whose final spill stayed within distance 3, at a measured
(slightly larger) degree.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core.embedding import Embedding
from .core.xtree_embed import XTreeEmbeddingResult, theorem1_embedding
from .networks.base import Topology, bfs_distances_from
from .networks.xtree import XAddr, XTree
from .trees.binary_tree import BinaryTree

__all__ = [
    "PAPER_DEGREE_BOUND",
    "UNIVERSAL_SLOTS",
    "UniversalGraph",
    "universal_graph_size",
    "embed_into_universal",
    "embed_into_universal_padded",
    "largest_feasible_t",
    "lift_onto_slots",
    "spanning_defect",
    "universal_supergraph",
]

#: slot-group size: each X-tree vertex carries 16 universal-graph vertices
UNIVERSAL_SLOTS = 16

#: paper degree bound for G_n: 25 related slot groups x 16 slots + 15
#: within the own group
PAPER_DEGREE_BOUND = 25 * UNIVERSAL_SLOTS + (UNIVERSAL_SLOTS - 1)


def universal_graph_size(t: int) -> int:
    """Number of vertices of G_n for parameter ``t``: ``2**t - 16``."""
    if t < 5:
        raise ValueError(f"need t >= 5 so that 2**t - 16 >= 16, got {t}")
    return (1 << t) - 16


def largest_feasible_t() -> int:
    """Largest ``t`` whose G_n fits the vectorised engine's node bound
    (:data:`repro.simulate.vector_engine.VECTOR_MAX_NODES`).  At its value
    of 2048 this is ``t = 11`` — ``n = 2032`` vertices.
    """
    from .simulate import vector_engine

    max_nodes = vector_engine.VECTOR_MAX_NODES
    if max_nodes < universal_graph_size(5):
        raise ValueError(
            f"max_nodes {max_nodes} is below the smallest G_n "
            f"({universal_graph_size(5)} vertices at t=5)"
        )
    t = 5
    while universal_graph_size(t + 1) <= max_nodes:
        t += 1
    return t


class UniversalGraph(Topology):
    """The Theorem 4 graph ``G_n`` on ``(XAddr, slot)`` pairs.

    ``mode="paper"`` (default) uses the N(alpha) relation and has degree at
    most 415; ``mode="radius"`` connects slot groups of X-tree vertices
    within distance ``radius`` (default 3) — a slightly larger, provably
    spanning variant for measured embeddings.
    """

    name = "universal"
    params = ("t", "mode", "radius")

    def __init__(self, t: int, mode: str = "paper", radius: int = 3):
        if t < 5:
            raise ValueError(f"need t >= 5, got {t}")
        if mode not in ("paper", "radius"):
            raise ValueError(f"mode must be 'paper' or 'radius', got {mode!r}")
        self.t = t
        self.mode = mode
        self.radius = radius
        self.height = t - 5
        self.xtree = XTree(self.height)
        self._n = UNIVERSAL_SLOTS * self.xtree.n_nodes
        assert self._n == universal_graph_size(t)
        self._related: dict[XAddr, frozenset[XAddr]] = {}
        self._quotient: list[list[int]] | None = None

    # ------------------------------------------------------------------
    def related(self, alpha: XAddr) -> frozenset[XAddr]:
        """X-tree vertices whose slot groups are fully connected to
        ``alpha``'s (excluding ``alpha`` itself); cached."""
        got = self._related.get(alpha)
        if got is not None:
            return got
        if self.mode == "paper":
            rel = set(self.xtree.condition_neighborhood(alpha))
            rel |= self.xtree.asymmetric_in_neighbors(alpha)
            rel.discard(alpha)
        else:
            dist = bfs_distances_from(self.xtree.neighbors, alpha)
            rel = {v for v, d in dist.items() if 0 < d <= self.radius}
        out = frozenset(rel)
        self._related[alpha] = out
        return out

    # ------------------------------------------------------------------
    # Topology interface
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self._n

    def nodes(self) -> Iterator[tuple[XAddr, int]]:
        for v in self.xtree.nodes():
            for k in range(UNIVERSAL_SLOTS):
                yield (v, k)

    def neighbors(self, node: tuple[XAddr, int]) -> Iterator[tuple[XAddr, int]]:
        alpha, j = node
        self._check(node)
        for k in range(UNIVERSAL_SLOTS):
            if k != j:
                yield (alpha, k)
        for beta in self.related(alpha):
            for k in range(UNIVERSAL_SLOTS):
                yield (beta, k)

    def index(self, node: tuple[XAddr, int]) -> int:
        alpha, j = node
        self._check(node)
        return self.xtree.index(alpha) * UNIVERSAL_SLOTS + j

    def node_at(self, idx: int) -> tuple[XAddr, int]:
        if not 0 <= idx < self._n:
            raise IndexError(f"index {idx} out of range")
        q, k = divmod(idx, UNIVERSAL_SLOTS)
        return (self.xtree.node_at(q), k)

    def _check(self, node: tuple[XAddr, int]) -> None:
        alpha, j = node
        if not 0 <= j < UNIVERSAL_SLOTS:
            raise ValueError(f"slot {j} out of range")
        self.xtree._check(alpha)

    def max_degree(self) -> int:
        return max(
            len(self.related(v)) * UNIVERSAL_SLOTS + (UNIVERSAL_SLOTS - 1)
            for v in self.xtree.nodes()
        )

    def has_edge(self, a: tuple[XAddr, int], b: tuple[XAddr, int]) -> bool:
        """Adjacency test without enumerating neighbours."""
        (alpha, j), (beta, k) = a, b
        if alpha == beta:
            return j != k
        return beta in self.related(alpha)

    # ------------------------------------------------------------------
    # Closed-form distance via the address quotient graph
    # ------------------------------------------------------------------
    def quotient_all_pairs(self) -> list[list[int]]:
        """All-pairs distances of the quotient graph on X-tree addresses
        (row/column order = ``xtree.index``); ``-1`` marks unreachable.

        Slot groups of related addresses are fully connected, so G_n
        distance for distinct addresses equals quotient distance; cached.
        """
        if self._quotient is not None:
            return self._quotient
        x = self.xtree
        m = x.n_nodes
        addrs = sorted(x.nodes(), key=x.index)
        adj = [[x.index(b) for b in self.related(a)] for a in addrs]
        matrix = []
        for src in range(m):
            dist = bfs_distances_from(adj.__getitem__, src)
            matrix.append([dist.get(j, -1) for j in range(m)])
        self._quotient = matrix
        return matrix

    def distance(self, u, v, cutoff: int | None = None) -> int | None:
        (alpha, j), (beta, k) = u, v
        self._check(u)
        self._check(v)
        if alpha == beta:
            d = 0 if j == k else 1
        else:
            q = self.quotient_all_pairs()
            d = q[self.xtree.index(alpha)][self.xtree.index(beta)]
            if d < 0:
                return None
        if cutoff is not None and d > cutoff:
            return None
        return d


# ----------------------------------------------------------------------
# Embedding binary trees into G_n
# ----------------------------------------------------------------------
def lift_onto_slots(
    embedding: Embedding, graph: UniversalGraph
) -> Embedding:
    """Lift an X(t-5) embedding onto ``G_n`` by slot-assigning cohabitants.

    Each X-tree vertex hosts at most 16 guests; they take slots
    ``0..load-1`` of that vertex's slot group in guest-node order.  The
    lift preserves injectivity per slot and, because slot groups of
    related vertices are fully connected, maps every dilation-1 guest
    edge whose endpoints sit on N-related (or equal) addresses onto a
    ``G_n`` edge.
    """
    counter: dict[XAddr, int] = {}
    phi: dict[int, tuple[XAddr, int]] = {}
    for v in sorted(embedding.phi):
        addr = embedding.phi[v]
        mu = counter.get(addr, 0)
        if mu >= UNIVERSAL_SLOTS:
            raise ValueError(
                f"X-tree vertex {addr} hosts more than {UNIVERSAL_SLOTS} guests; "
                f"cannot lift onto G_n slot groups"
            )
        counter[addr] = mu + 1
        phi[v] = (addr, mu)
    return Embedding(embedding.guest, graph, phi)


def embed_into_universal(
    tree: BinaryTree, graph: UniversalGraph, *, validate: bool = False,
    separator=None,
) -> tuple[Embedding, XTreeEmbeddingResult]:
    """Map ``tree`` (``n = 2**t - 16`` nodes) injectively onto ``graph``.

    Runs the Theorem 1 construction on X(t-5) and assigns each host vertex's
    16 cohabitants to its 16 slots.  The result is a bijection from guest
    nodes to ``G_n`` vertices; :func:`spanning_defect` reports how many
    guest edges (if any) fail to be ``G_n`` edges.
    """
    if tree.n != graph.n_nodes:
        raise ValueError(f"tree has {tree.n} nodes; G_n has {graph.n_nodes}")
    result = theorem1_embedding(tree, validate=validate, separator=separator)
    return lift_onto_slots(result.embedding, graph), result


def universal_supergraph(n: int) -> UniversalGraph:
    """The smallest G_{n'} with ``n' >= n`` slots — the paper's stated but
    unproven generalisation ("we have no doubt that one could generalize
    this result to hold also for arbitrary n").

    Any binary tree with ``n`` nodes is then a *subgraph* (not necessarily
    spanning) of the returned graph: pad the tree to ``n'`` nodes and embed
    with :func:`embed_into_universal` — the original tree occupies a subset
    of the vertices and all its edges are graph edges.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    t = 5
    while universal_graph_size(t) < n:
        t += 1
    return UniversalGraph(t)


def embed_into_universal_padded(
    tree: BinaryTree, graph: UniversalGraph | None = None
) -> tuple[Embedding, XTreeEmbeddingResult]:
    """Arbitrary-n universality: pad ``tree`` up to the graph size and embed.

    Returns the embedding of the *padded* tree; its first ``tree.n`` nodes
    are the original guest, whose edges land on graph edges whenever the
    padded embedding spans (which the default construction achieves).
    """
    if graph is None:
        graph = universal_supergraph(tree.n)
    if tree.n > graph.n_nodes:
        raise ValueError(f"tree has {tree.n} nodes; G_n only {graph.n_nodes}")
    padded = tree.padded_to(graph.n_nodes)
    return embed_into_universal(padded, graph)


def spanning_defect(embedding: Embedding, graph: UniversalGraph) -> list[tuple[int, int]]:
    """Guest edges whose images are *not* edges of ``graph``.

    Empty list == the guest is a spanning subgraph of ``G_n`` under this
    embedding (the Theorem 4 claim).
    """
    bad = []
    for u, v in embedding.guest.edges():
        if not graph.has_edge(embedding.phi[u], embedding.phi[v]):
            bad.append((u, v))
    return bad
