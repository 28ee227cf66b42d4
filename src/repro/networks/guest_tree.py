"""A guest binary tree as a host network: the reference machine.

:func:`repro.simulate.mapping.simulate_on_guest` runs a program on its own
tree through the identity embedding, so the tree must be a
:class:`~repro.networks.base.Topology`.  Node labels are the tree's own
integers ``0 .. n-1``, which are also the canonical indices.

A tree has exactly one path between any two nodes, so the topology sets
:attr:`~repro.networks.base.Topology.is_tree`: the
:class:`~repro.analysis.oracle.DistanceOracle` then routes it by preorder
intervals in O(n) memory instead of building O(n²) next-hop tables.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from .base import Topology

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..trees.binary_tree import BinaryTree

__all__ = ["GuestTreeNet"]


class GuestTreeNet(Topology):
    """The links of one :class:`~repro.trees.BinaryTree`, as a network."""

    name = "guest-tree"
    is_tree = True

    def __init__(self, tree: BinaryTree):
        self.tree = tree

    @property
    def n_nodes(self) -> int:
        return self.tree.n

    def nodes(self) -> Iterator[int]:
        return iter(range(self.tree.n))

    def neighbors(self, node: int) -> Iterator[int]:
        return self.tree.neighbors(node)

    def index(self, node: int) -> int:
        if not 0 <= node < self.tree.n:
            raise ValueError(f"{node} not a guest node")
        return node

    def node_at(self, idx: int) -> int:
        if not 0 <= idx < self.tree.n:
            raise IndexError(idx)
        return idx
