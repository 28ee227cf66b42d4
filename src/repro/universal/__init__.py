"""Theorem 4's universal-graph subsystem, end to end.

One import point for everything G_n: the graph itself
(:class:`~repro.networks.universal.UniversalGraph`, a real registry
:class:`~repro.networks.base.Topology` with the quotient-distance closed
form), the Theorem 1 + slot-lift embedding pipeline
(:func:`~repro.core.universal.embed_into_universal` and friends), and the
sizing helpers the benchmark and runtime layers use to pick the largest
G_n the vectorised engine will take dense routing tables for.

The paper's claim (Theorem 4): for ``n = 2**t - 16`` there is a graph
``G_n`` with ``n`` vertices and maximum degree at most ``25*16 + 15 =
415`` that contains every binary tree on ``n`` vertices as a spanning
subgraph.  ``benchmarks/bench_universal.py`` measures the claim at the
largest feasible ``n`` and routes real workloads over the graph.
"""

from __future__ import annotations

from ..core.universal import (
    embed_into_universal,
    embed_into_universal_padded,
    lift_onto_slots,
    spanning_defect,
    universal_supergraph,
)
from ..networks.universal import (
    UNIVERSAL_SLOTS,
    UniversalGraph,
    universal_graph_size,
)

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

#: paper degree bound for G_n: 25 related slot groups x 16 slots + 15
#: within the own group
PAPER_DEGREE_BOUND = 25 * UNIVERSAL_SLOTS + (UNIVERSAL_SLOTS - 1)


def largest_feasible_t(max_nodes: int | None = None) -> int:
    """Largest ``t`` whose G_n fits the vectorised engine's node bound.

    ``max_nodes`` defaults to the dense-table bound
    (:data:`repro.simulate.vector_engine.VECTOR_MAX_NODES`).  At its
    value of 2048 this is ``t = 11`` — ``n = 2032`` vertices.
    """
    if max_nodes is None:
        from ..simulate import vector_engine

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
