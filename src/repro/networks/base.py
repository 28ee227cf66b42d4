"""Common interface for host network topologies.

Every interconnection network in :mod:`repro.networks` (X-tree, hypercube,
complete binary tree, grid, cube-connected cycles, butterfly) implements the
:class:`Topology` interface: a finite undirected graph with hashable node
labels, a canonical integer indexing of the nodes, neighbourhood queries, and
distance computations.

Distances default to breadth-first search with early termination, which is
exact on any topology; subclasses override :meth:`Topology.distance` with
closed-form formulas where one exists (e.g. Hamming distance on the
hypercube).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Hashable, Iterable, Iterator

import networkx as nx

__all__ = ["Topology", "bfs_distance", "bfs_distances_from"]

Node = Hashable


def bfs_distance(
    neighbors,
    source: Node,
    target: Node,
    cutoff: int | None = None,
) -> int | None:
    """Exact unweighted distance from ``source`` to ``target``.

    ``neighbors`` is a callable returning an iterable of adjacent nodes.
    Bidirectional search is not needed for our graph sizes; plain BFS with
    an optional ``cutoff`` (return ``None`` when the target is farther than
    ``cutoff``) is simple and fast enough, and the cutoff makes dilation
    verification cheap: checking "distance <= 3" explores a ball of at most
    ``degree**3`` nodes regardless of the network size.
    """
    if source == target:
        return 0
    frontier = deque([source])
    dist = {source: 0}
    while frontier:
        u = frontier.popleft()
        du = dist[u]
        if cutoff is not None and du >= cutoff:
            return None
        for v in neighbors(u):
            if v in dist:
                continue
            if v == target:
                return du + 1
            dist[v] = du + 1
            frontier.append(v)
    return None


def bfs_distances_from(neighbors, source: Node) -> dict[Node, int]:
    """All distances from ``source`` in an unweighted graph, by BFS."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        du = dist[u]
        for v in neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                frontier.append(v)
    return dist


class Topology(ABC):
    """A finite, undirected, connected interconnection network."""

    #: short machine-readable identifier, e.g. ``"xtree"``
    name: str = "topology"

    #: True when the network is a tree (one path between any two nodes).
    #: The :class:`~repro.analysis.oracle.DistanceOracle` then routes it by
    #: preorder intervals instead of dense O(n²) next-hop tables.
    is_tree: bool = False

    #: the constructor recipe: its parameter names, in order, each also an
    #: instance attribute holding the value the host was built with.
    #: ``None`` marks a host no wire format can rebuild (e.g. a guest tree).
    params: tuple[str, ...] | None = None

    # ------------------------------------------------------------------
    # Constructor recipe (the one wire form of a host)
    # ------------------------------------------------------------------
    @property
    def spec_args(self) -> tuple:
        """Constructor arguments that rebuild this host.

        Trailing arguments equal to their defaults are dropped, so adding a
        defaulted parameter keeps every existing recipe's shape.
        """
        if self.params is None:
            raise TypeError(f"host {self.name!r} declares no constructor recipe")
        args = [getattr(self, p) for p in self.params]
        defaults = type(self).__init__.__defaults__ or ()
        # __defaults__ covers the last len(defaults) parameters
        first = len(args) - len(defaults)
        while len(args) > first and args[-1] == defaults[len(args) - 1 - first]:
            args.pop()
        return tuple(args)

    def spec(self) -> dict:
        """``{"name", "args"}`` recipe, inverted by
        :func:`repro.networks.build_host`."""
        return {"name": self.name, "args": list(self.spec_args)}

    # ------------------------------------------------------------------
    # Core abstract surface
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def n_nodes(self) -> int:
        """Number of nodes in the network."""

    @abstractmethod
    def nodes(self) -> Iterator[Node]:
        """Iterate over the node labels in canonical order."""

    @abstractmethod
    def neighbors(self, node: Node) -> Iterable[Node]:
        """Iterate over the neighbours of ``node``."""

    @abstractmethod
    def index(self, node: Node) -> int:
        """Canonical index of ``node`` in ``range(self.n_nodes)``."""

    @abstractmethod
    def node_at(self, idx: int) -> Node:
        """Inverse of :meth:`index`."""

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------
    def has_node(self, node: Node) -> bool:
        """Return True when ``node`` is a label of this topology."""
        try:
            self.index(node)
        except (KeyError, ValueError, TypeError, IndexError):
            return False
        return True

    def degree(self, node: Node) -> int:
        """Number of neighbours of ``node``."""
        return sum(1 for _ in self.neighbors(node))

    def max_degree(self) -> int:
        """Maximum vertex degree over the network."""
        return max(self.degree(v) for v in self.nodes())

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Iterate over each undirected edge exactly once."""
        for u in self.nodes():
            iu = self.index(u)
            for v in self.neighbors(u):
                if self.index(v) > iu:
                    yield (u, v)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return sum(1 for _ in self.edges())

    def distance(self, u: Node, v: Node, cutoff: int | None = None) -> int | None:
        """Exact hop distance between ``u`` and ``v``.

        Cutoff semantics (binding on every override): with ``cutoff=None``
        the exact distance is always returned.  With a cutoff ``c >= 0`` the
        result is the exact distance ``d`` whenever ``d <= c`` — a distance
        *equal* to the cutoff is still returned — and ``None`` whenever
        ``d > c`` (including unreachable ``v``, treated as ``d = inf``).
        The cutoff is a contract about the return value only; subclasses
        with closed-form formulas (X-tree, hypercube, grid, butterfly, CCC,
        shuffle-exchange, complete binary tree) may ignore it for pruning
        and simply compare at the end.  The BFS default explores the ball
        of radius ``c`` around ``u`` and stops there.
        """
        return bfs_distance(self.neighbors, u, v, cutoff=cutoff)

    @property
    def has_closed_form_distance(self) -> bool:
        """True when :meth:`distance` is overridden with a closed form.

        The :class:`repro.analysis.oracle.DistanceOracle` uses this to pick
        between per-pair arithmetic and batched BFS rows.
        """
        return type(self).distance is not Topology.distance

    def distances_from(self, source: Node) -> dict[Node, int]:
        """Distances from ``source`` to every node."""
        return bfs_distances_from(self.neighbors, source)

    def diameter(self) -> int:
        """Exact diameter (max pairwise distance); O(n * (n + m))."""
        best = 0
        for u in self.nodes():
            dist = self.distances_from(u)
            if len(dist) != self.n_nodes:
                raise ValueError(f"{self.name} is not connected")
            best = max(best, max(dist.values()))
        return best

    def is_connected(self) -> bool:
        """Return True when the network is connected."""
        first = next(iter(self.nodes()))
        return len(self.distances_from(first)) == self.n_nodes

    def to_networkx(self) -> nx.Graph:
        """Materialise the topology as a :class:`networkx.Graph`."""
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        graph.add_edges_from(self.edges())
        return graph

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_nodes

    def __iter__(self) -> Iterator[Node]:
        return self.nodes()

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_nodes={self.n_nodes})"
