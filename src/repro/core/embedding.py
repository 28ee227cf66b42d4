"""Embeddings of a guest binary tree into a host topology, plus quality metrics.

An *embedding* maps each guest node to a host node.  The paper's three cost
measures (section 1):

dilation
    maximum host distance between the images of guest-adjacent nodes — the
    number of clock cycles needed to communicate between formerly adjacent
    processors;
load factor
    maximum number of guest nodes mapped to one host node — the computation
    each host processor must multiplex;
expansion
    ``host size / guest size`` — how much bigger the host must be.

We add *edge congestion* (given shortest-path routing, the maximum number of
guest edges whose routes share one host link), which the simulator in
:mod:`repro.simulate` makes operational.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..networks.base import Topology
from ..trees.binary_tree import BinaryTree

__all__ = ["Embedding", "EmbeddingReport"]


@dataclass(frozen=True)
class EmbeddingReport:
    """Summary of every quality measure of one embedding."""

    n_guest: int
    n_host: int
    dilation: int
    load_factor: int
    expansion: float
    injective: bool
    edge_dilation_histogram: dict[int, int]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        hist = ", ".join(f"{d}:{c}" for d, c in sorted(self.edge_dilation_histogram.items()))
        return (
            f"guest={self.n_guest} host={self.n_host} dilation={self.dilation} "
            f"load={self.load_factor} expansion={self.expansion:.3f} "
            f"injective={self.injective} edge-dilations=[{hist}]"
        )


class Embedding:
    """A total mapping from the nodes of ``guest`` into the nodes of ``host``."""

    def __init__(self, guest: BinaryTree, host: Topology, phi: Mapping[int, Any]):
        missing = [v for v in guest.nodes() if v not in phi]
        if missing:
            raise ValueError(f"embedding is not total; first missing guest node: {missing[0]}")
        for v in guest.nodes():
            if not host.has_node(phi[v]):
                raise ValueError(f"guest node {v} maps to {phi[v]!r}, not a host vertex")
        self.guest = guest
        self.host = host
        self.phi = {v: phi[v] for v in guest.nodes()}
        # Embeddings are frozen once constructed, so the host-index image of
        # phi is compiled to arrays here and every derived metric
        # (dilation values, routes, congestion) is memoised for the
        # instance's lifetime.
        index = host.index
        self._image_idx = np.fromiter(
            (index(self.phi[v]) for v in guest.nodes()), dtype=np.int64, count=guest.n
        )
        self._edge_list = list(guest.edges())
        self._edge_nodes = np.asarray(self._edge_list, dtype=np.int64).reshape(-1, 2)
        self._edge_dils: np.ndarray | None = None
        self._link_load: Counter | None = None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __getitem__(self, guest_node: int):
        return self.phi[guest_node]

    def loads(self) -> Counter:
        """Host node -> number of guest nodes mapped there."""
        return Counter(self.phi.values())

    def load_factor(self) -> int:
        """Maximum load over host nodes."""
        return max(self.loads().values())

    def expansion(self) -> float:
        """Host size divided by guest size."""
        return self.host.n_nodes / self.guest.n

    def is_injective(self) -> bool:
        """True when no two guest nodes share a host node."""
        return self.load_factor() == 1

    # ------------------------------------------------------------------
    # Dilation
    # ------------------------------------------------------------------
    def edge_dilation_values(self) -> np.ndarray:
        """Host distance of every guest edge's image, as a read-only array.

        Aligned with ``guest.edges()`` order.  The image indices were
        compiled to arrays at construction, so the whole computation is one
        gather plus one batched call into the shared
        :class:`repro.analysis.oracle.DistanceOracle` — closed-form
        arithmetic where the host has it, grouped BFS rows otherwise.
        Memoised (embeddings are frozen).
        """
        if self._edge_dils is None:
            from ..analysis.oracle import oracle_for  # deferred: analysis imports core

            pairs = self._image_idx[self._edge_nodes]
            dists = oracle_for(self.host).pairs_distances(pairs)
            if dists.size and int(dists.min()) < 0:  # disconnected host: bug
                raise RuntimeError("no path between mapped host nodes")
            dists.setflags(write=False)
            self._edge_dils = dists
        return self._edge_dils

    def edge_dilations(self) -> dict[tuple[int, int], int]:
        """Host distance of every guest edge's image, keyed by guest edge."""
        return dict(zip(self._edge_list, self.edge_dilation_values().tolist()))

    def dilation(self) -> int:
        """Maximum edge dilation (0 for a single-node guest)."""
        values = self.edge_dilation_values()
        return int(values.max()) if values.size else 0

    def max_dilation_edge(self) -> tuple[tuple[int, int], int] | None:
        """The guest edge realising the dilation, for diagnostics."""
        values = self.edge_dilation_values()
        if not values.size:
            return None
        at = int(values.argmax())
        return self._edge_list[at], int(values[at])

    # ------------------------------------------------------------------
    # Congestion (shortest-path routing)
    # ------------------------------------------------------------------
    def link_load(self) -> Counter:
        """Guest edges routed through each host link (canonically ordered).

        Each guest edge is routed by the simulator's own deterministic
        shortest-path rule (:meth:`repro.simulate.SynchronousNetwork.route`,
        smallest host index first), so the metric predicts simulated
        contention.  Keys are host node pairs ``(a, b)`` with
        ``index(a) < index(b)``; the full Counter feeds the analysis tables.
        Embeddings are frozen, so the Counter is memoised on the instance —
        repeated congestion queries are O(1).
        """
        if self._link_load is None:
            from ..simulate import SynchronousNetwork  # deferred: simulate imports core

            route = SynchronousNetwork(self.host).route
            index = self.host.index
            link_use: Counter = Counter()
            for u, v in self.guest.edges():
                path = route(self.phi[u], self.phi[v])
                for x, y in zip(path, path[1:]):
                    link_use[(x, y) if index(x) < index(y) else (y, x)] += 1
            self._link_load = link_use
        return self._link_load

    def edge_congestion(self) -> int:
        """Max, over host links, of guest edges routed through that link."""
        return max(self.link_load().values(), default=0)

    # ------------------------------------------------------------------
    # Composition & reporting
    # ------------------------------------------------------------------
    def compose(self, outer_phi: Mapping[Any, Any], outer_host: Topology) -> Embedding:
        """Compose with a host-to-host mapping: guest -> host -> outer host.

        This is how Theorem 3 arises: the Theorem 1 embedding into X(r)
        composed with Lemma 3's X(r) -> Q_{r+1} map.
        """
        phi = {v: outer_phi[self.phi[v]] for v in self.guest.nodes()}
        return Embedding(self.guest, outer_host, phi)

    def report(self) -> EmbeddingReport:
        """Compute every quality measure at once."""
        values = self.edge_dilation_values()
        uniq, counts = np.unique(values, return_counts=True)
        hist = dict(zip(uniq.tolist(), counts.tolist()))
        return EmbeddingReport(
            n_guest=self.guest.n,
            n_host=self.host.n_nodes,
            dilation=int(values.max()) if values.size else 0,
            load_factor=self.load_factor(),
            expansion=self.expansion(),
            injective=self.load_factor() == 1,
            edge_dilation_histogram=hist,  # np.unique output is already sorted
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Embedding(guest_n={self.guest.n}, host={self.host!r})"
