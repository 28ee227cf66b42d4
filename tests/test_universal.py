"""Theorem 4: the degree-415 universal graph."""

from __future__ import annotations

import pytest

from repro.trees import make_tree
from repro.universal import (
    UniversalGraph,
    embed_into_universal,
    spanning_defect,
    universal_graph_size,
)


class TestConstruction:
    def test_size_formula(self):
        assert universal_graph_size(5) == 16
        assert universal_graph_size(8) == 240
        with pytest.raises(ValueError):
            universal_graph_size(4)

    def test_node_count(self):
        for t in (5, 6, 8):
            g = UniversalGraph(t)
            assert g.n_nodes == 2**t - 16
            assert len(list(g.nodes())) == g.n_nodes

    def test_degree_bound_415(self):
        for t in (5, 7, 9, 11):
            assert UniversalGraph(t).max_degree() <= 415

    def test_degree_bound_tight_at_scale(self):
        """For t >= 11 some vertex has the full 25 related vertices."""
        assert UniversalGraph(11).max_degree() == 415

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            UniversalGraph(6, mode="nonsense")

    def test_slot_groups_are_cliques(self):
        g = UniversalGraph(6)
        alpha = (1, 0)
        for j in range(16):
            nbrs = set(g.neighbors((alpha, j)))
            for k in range(16):
                if k != j:
                    assert (alpha, k) in nbrs

    def test_has_edge_matches_neighbors(self):
        g = UniversalGraph(6)
        nodes = list(g.nodes())
        import random

        rng = random.Random(0)
        for _ in range(100):
            a, b = rng.choice(nodes), rng.choice(nodes)
            if a == b:
                continue
            assert g.has_edge(a, b) == (b in set(g.neighbors(a)))

    def test_index_roundtrip(self):
        g = UniversalGraph(6)
        for i, v in enumerate(g.nodes()):
            assert g.index(v) == i and g.node_at(i) == v

    def test_symmetric(self):
        g = UniversalGraph(7)
        nodes = list(g.xtree.nodes())
        for alpha in nodes:
            for beta in g.related(alpha):
                assert alpha in g.related(beta)


class TestSpanning:
    @pytest.mark.parametrize("t", [5, 6, 7, 8])
    def test_trees_are_spanning_subgraphs(self, t):
        """The Theorem 4 claim, exactly: every guest edge is a G_n edge."""
        g = UniversalGraph(t)
        g_radius = UniversalGraph(t, mode="radius")
        for fam in ("random", "path", "remy"):
            tree = make_tree(fam, g.n_nodes, seed=1)
            emb, result = embed_into_universal(tree, g)
            assert emb.is_injective()
            assert len(emb.phi) == g.n_nodes
            # condition (3') holds everywhere -> exact spanning, both modes
            assert spanning_defect(emb, g) == []
            assert spanning_defect(emb, g_radius) == []

    def test_size_mismatch_rejected(self):
        g = UniversalGraph(6)
        with pytest.raises(ValueError, match="nodes"):
            embed_into_universal(make_tree("random", 10, seed=0), g)

    def test_radius_mode_contains_paper_mode(self):
        gp = UniversalGraph(7)
        gr = UniversalGraph(7, mode="radius")
        for alpha in gp.xtree.nodes():
            assert gp.related(alpha) <= gr.related(alpha)
