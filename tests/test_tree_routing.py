"""Table-free routing on tree topologies.

A tree has exactly one path between any two nodes, so the
:class:`~repro.analysis.oracle.DistanceOracle` routes a tree topology by
preorder intervals instead of dense O(n²) next-hop tables.  These tests pin
that rule to the dense tables and to the classic engine's neighbour scan on
every tree family, check that the guest baseline builds no dense table,
and check that the vector and classic engines agree on a guest tree above
the dense-table node cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.oracle import DistanceOracle, oracle_for
from repro.networks import CompleteBinaryTreeNet, GuestTreeNet, Topology
from repro.simulate import PROGRAMS, Message, SynchronousNetwork, simulate_on_guest
from repro.simulate.vector_engine import resolve_vector_max_nodes, vector_supported
from repro.trees import FAMILIES, make_tree

SIZES = (1, 2, 3, 17, 46)


def _tree_topologies():
    for family in sorted(FAMILIES):
        for n in SIZES:
            yield f"{family}-{n}", GuestTreeNet(make_tree(family, n, seed=n))
    yield "complete-binary-tree", CompleteBinaryTreeNet(3)


TREES = dict(_tree_topologies())


@pytest.mark.parametrize("name", sorted(TREES))
def test_interval_rule_matches_dense_tables_and_classic_scan(name):
    topology = TREES[name]
    assert topology.is_tree
    oracle = DistanceOracle(topology)
    n = topology.n_nodes
    cur, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
    hop, edge = oracle.next_hops(cur, dst)
    nh, eid = oracle.next_hop_tables()
    assert (hop == nh.ravel()).all()
    assert (edge == eid.ravel()).all()
    assert [oracle.next_hop(u, d) for u, d in zip(cur.tolist(), dst.tolist())] == (
        nh.ravel().tolist()
    )
    net = SynchronousNetwork(topology)
    net._dense_nh = False  # force the classic BFS-table scan
    labels = list(topology.nodes())
    for u, d in zip(cur.tolist(), dst.tolist()):
        if u != d:
            assert labels[hop[u * n + d]] == net.next_hop(labels[u], labels[d])


def test_dense_hosts_gather_from_the_tables():
    from repro.networks import XTree

    oracle = DistanceOracle(XTree(2))
    n = oracle.n
    cur, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
    hop, edge = oracle.next_hops(cur, dst)
    nh, eid = oracle.next_hop_tables()
    assert (hop == nh.ravel()).all() and (edge == eid.ravel()).all()


def test_flagged_tree_with_a_cycle_is_rejected():
    class Triangle(Topology):
        name = "triangle"
        is_tree = True

        @property
        def n_nodes(self):
            return 3

        def nodes(self):
            return iter(range(3))

        def neighbors(self, node):
            return iter(v for v in range(3) if v != node)

        def index(self, node):
            return node

        def node_at(self, idx):
            return idx

    with pytest.raises(ValueError, match="links"):
        DistanceOracle(Triangle())


def test_guest_baseline_builds_no_dense_table(monkeypatch):
    import repro.simulate.mapping as mapping

    built: list[GuestTreeNet] = []

    class Recorded(GuestTreeNet):
        def __init__(self, tree):
            super().__init__(tree)
            built.append(self)

    monkeypatch.setattr(mapping, "GuestTreeNet", Recorded)
    tree = make_tree("random", 200, seed=4)
    for name in ("reduction", "leaf_gossip"):
        simulate_on_guest(PROGRAMS[name](tree))
    assert len(built) == 2
    for topology in built:
        oracle = oracle_for(topology)
        assert oracle._next_hop is None and oracle._next_hop_edge is None


def test_node_cap_applies_only_to_dense_hosts():
    tree = GuestTreeNet(make_tree("random", 40, seed=1))
    net = SynchronousNetwork(tree, vector_max_nodes=1)
    assert vector_supported(net, None, None, None) is None
    stats = net.deliver_scheduled([(0, Message(0, 3, 30))], engine="vector")
    assert stats.delivery_cycle == {0: tree.tree.tree_distance(3, 30)}
    assert net.next_hop(3, 30) in set(tree.neighbors(3))
    assert net._dense_nh is not False


def test_engines_agree_above_the_old_node_cap():
    """At r = 7 the guest tree has 4080 nodes, past the 2048-node dense
    cap: it now runs on the vector kernel, bit-identical to classic."""
    n = 16 * (2 ** 8 - 1)
    assert n > resolve_vector_max_nodes()
    tree = make_tree("random", n, seed=7)
    for name, factory in sorted(PROGRAMS.items()):
        program = factory(tree)
        vector = simulate_on_guest(program, engine="vector")
        classic = simulate_on_guest(program, engine="classic")
        assert vector.total_cycles == classic.total_cycles, name
        assert vector.per_superstep_cycles == classic.per_superstep_cycles, name
        assert vector.max_link_traffic == classic.max_link_traffic, name
        assert vector.max_queue == classic.max_queue, name
