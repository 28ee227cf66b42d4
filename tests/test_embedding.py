"""Embedding object: metrics, composition, congestion."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import theorem1_embedding, theorem1_guest_size
from repro.core import Embedding
from repro.networks import (
    CompleteBinaryTreeNet,
    Hypercube,
    XTree,
    bfs_distances_from,
    registry_instances,
)
from repro.trees import BinaryTree, complete_binary_tree, make_tree


@pytest.fixture
def tiny():
    tree = BinaryTree([-1, 0, 0])
    host = XTree(1)
    return tree, host


class TestConstruction:
    def test_total_mapping_required(self, tiny):
        tree, host = tiny
        with pytest.raises(ValueError, match="not total"):
            Embedding(tree, host, {0: (0, 0)})

    def test_images_must_be_host_nodes(self, tiny):
        tree, host = tiny
        with pytest.raises(ValueError, match="not a host vertex"):
            Embedding(tree, host, {0: (0, 0), 1: (5, 5), 2: (1, 1)})

    def test_getitem(self, tiny):
        tree, host = tiny
        emb = Embedding(tree, host, {0: (0, 0), 1: (1, 0), 2: (1, 1)})
        assert emb[1] == (1, 0)


class TestMetrics:
    def test_identity_complete_tree(self):
        tree = complete_binary_tree(15)
        host = CompleteBinaryTreeNet(3)
        phi = {v: host.node_at(v) for v in tree.nodes()}
        emb = Embedding(tree, host, phi)
        rep = emb.report()
        assert rep.dilation == 1
        assert rep.load_factor == 1
        assert rep.expansion == 1.0
        assert rep.injective
        assert rep.edge_dilation_histogram == {1: 14}

    def test_all_to_one_node(self):
        tree = make_tree("random", 10, seed=0)
        host = XTree(2)
        emb = Embedding(tree, host, {v: (0, 0) for v in tree.nodes()})
        assert emb.dilation() == 0
        assert emb.load_factor() == 10
        assert not emb.is_injective()

    def test_dilation_across_levels(self):
        tree = BinaryTree([-1, 0])
        host = XTree(3)
        emb = Embedding(tree, host, {0: (3, 0), 1: (3, 7)})
        # leftmost to rightmost leaf of X(3)
        assert emb.dilation() == host.distance((3, 0), (3, 7))

    def test_max_dilation_edge(self):
        tree = BinaryTree([-1, 0, 0])
        host = XTree(2)
        emb = Embedding(tree, host, {0: (0, 0), 1: (1, 0), 2: (2, 3)})
        edge, d = emb.max_dilation_edge()
        assert edge == (0, 2) and d == 2

    def test_loads(self):
        tree = make_tree("path", 6)
        host = XTree(1)
        phi = {0: (0, 0), 1: (0, 0), 2: (1, 0), 3: (1, 0), 4: (1, 1), 5: (1, 1)}
        emb = Embedding(tree, host, phi)
        assert emb.load_factor() == 2
        assert emb.loads()[(1, 0)] == 2


class TestCongestion:
    def test_zero_when_colocated(self):
        tree = make_tree("path", 4)
        host = XTree(1)
        emb = Embedding(tree, host, {v: (0, 0) for v in tree.nodes()})
        assert emb.edge_congestion() == 0

    def test_shared_link(self):
        # two guest edges forced through the single root-to-leaf link
        tree = BinaryTree([-1, 0, 0, 1])
        host = CompleteBinaryTreeNet(1)
        phi = {0: (0, 0), 1: (1, 0), 2: (1, 0), 3: (0, 0)}
        emb = Embedding(tree, host, phi)
        # edges 0-1, 0-2, 1-3 all cross the link ((0,0),(1,0))
        assert emb.edge_congestion() == 3

    def test_identity_congestion_one(self):
        tree = complete_binary_tree(7)
        host = CompleteBinaryTreeNet(2)
        emb = Embedding(tree, host, {v: host.node_at(v) for v in tree.nodes()})
        assert emb.edge_congestion() == 1

    def test_link_load_full_counter(self):
        tree = BinaryTree([-1, 0, 0, 1])
        host = CompleteBinaryTreeNet(1)
        phi = {0: (0, 0), 1: (1, 0), 2: (1, 0), 3: (0, 0)}
        emb = Embedding(tree, host, phi)
        load = emb.link_load()
        # keys are canonically ordered host links; totals match the routes
        assert load[((0, 0), (1, 0))] == 3
        assert all(host.index(a) < host.index(b) for a, b in load)
        assert sum(load.values()) == sum(emb.edge_dilations().values())
        assert emb.edge_congestion() == max(load.values())

    def test_link_load_is_memoised(self):
        tree = complete_binary_tree(7)
        host = CompleteBinaryTreeNet(2)
        emb = Embedding(tree, host, {v: host.node_at(v) for v in tree.nodes()})
        assert emb.link_load() is emb.link_load()


def bfs_link_load(emb: Embedding) -> Counter:
    """Congestion routed independently of the simulator: per-destination
    BFS, then the smallest-index neighbour one step closer, hop by hop."""
    host, dist_to = emb.host, {}
    load: Counter = Counter()
    for u, v in emb.guest.edges():
        cur, dst = emb.phi[u], emb.phi[v]
        if dst not in dist_to:
            dist_to[dst] = bfs_distances_from(host.neighbors, dst)
        dist = dist_to[dst]
        while cur != dst:
            nxt = min(
                (w for w in host.neighbors(cur) if dist[w] == dist[cur] - 1),
                key=host.index,
            )
            load[(cur, nxt) if host.index(cur) < host.index(nxt) else (nxt, cur)] += 1
            cur = nxt
    return load


def _theorem1(family: str) -> Embedding:
    return theorem1_embedding(make_tree(family, theorem1_guest_size(4), seed=7)).embedding


def _random_placement(name: str) -> Embedding:
    host = registry_instances()[name]
    tree = make_tree("random", 2 * host.n_nodes, seed=11)
    nodes, rng = list(host.nodes()), random.Random(name)
    return Embedding(tree, host, {v: rng.choice(nodes) for v in tree.nodes()})


LINK_LOAD_CASES = [
    pytest.param(lambda f=f: _theorem1(f), id=f"theorem1-{f}-r4")
    for f in ("random", "path", "broom")
] + [
    pytest.param(lambda h=h: _random_placement(h), id=f"random-into-{h}")
    for h in registry_instances()
]


@pytest.mark.parametrize("build", LINK_LOAD_CASES)
def test_link_load_matches_bfs_routing(build):
    emb = build()
    load = emb.link_load()
    assert load == bfs_link_load(emb)
    assert sum(load.values()) == sum(emb.edge_dilations().values())


class TestCompose:
    def test_compose_with_identity(self):
        tree = make_tree("random", 15, seed=2)
        host = CompleteBinaryTreeNet(3)
        phi = {v: host.node_at(v) for v in tree.nodes()}
        emb = Embedding(tree, host, phi)
        identity = {v: host.index(v) for v in host.nodes()}
        emb2 = emb.compose(identity, Hypercube(4))
        assert emb2.host.n_nodes == 16
        assert all(emb2.phi[v] == host.index(phi[v]) for v in tree.nodes())

    def test_compose_distance_bound(self):
        """Composition dilation <= inner dilation * outer stretch factor."""
        from repro.core import theorem1_embedding, xtree_to_hypercube_map

        from repro.trees import theorem1_guest_size

        tree = make_tree("random", theorem1_guest_size(2), seed=3)
        inner = theorem1_embedding(tree).embedding
        outer = xtree_to_hypercube_map(2)
        emb = inner.compose(outer, Hypercube(3))
        assert emb.dilation() <= inner.dilation() + 1
