"""Baseline embeddings: contracts and the expected quality gap."""

from __future__ import annotations

import pytest

from repro.core import (
    complete_tree_identity,
    order_chunk_embedding,
    recursive_bisection_embedding,
    theorem1_embedding,
)
from repro.trees import make_tree, theorem1_guest_size


class TestOrderChunk:
    def test_feasible(self):
        tree = make_tree("random", theorem1_guest_size(3), seed=0)
        for order in ("bfs", "dfs"):
            emb = order_chunk_embedding(tree, order=order)
            assert emb.load_factor() == 16
            assert len(emb.phi) == tree.n

    def test_bad_order_rejected(self):
        tree = make_tree("random", 48, seed=0)
        with pytest.raises(ValueError):
            order_chunk_embedding(tree, order="zigzag")

    def test_dilation_grows_with_height(self):
        dils = []
        for r in (2, 4, 6):
            tree = make_tree("path", theorem1_guest_size(r), seed=0)
            dils.append(order_chunk_embedding(tree).dilation())
        assert dils[0] < dils[1] < dils[2]


class TestRecursiveBisection:
    def test_feasible_all_families(self, family):
        tree = make_tree(family, theorem1_guest_size(3), seed=1)
        emb = recursive_bisection_embedding(tree)
        assert emb.load_factor() <= 16
        assert len(emb.phi) == tree.n

    def test_worse_than_theorem1_on_paths(self):
        """Without ADJUST the imbalance compounds: the gap must show."""
        tree = make_tree("path", theorem1_guest_size(6), seed=0)
        rb = recursive_bisection_embedding(tree).dilation()
        t1 = theorem1_embedding(tree).embedding.dilation()
        assert t1 <= 3
        assert rb > t1


class TestQualityGap:
    def test_chunk_gap_to_theorem1_grows_with_height(self):
        """The E9 shape: baseline dilation grows with height, Theorem 1's
        does not."""

        def gap_at(r):
            tree = make_tree("path", theorem1_guest_size(r), seed=0)
            return (
                order_chunk_embedding(tree).dilation()
                - theorem1_embedding(tree).embedding.dilation()
            )

        assert gap_at(3) < gap_at(5)


class TestIdentity:
    def test_complete_tree_identity(self):
        emb = complete_tree_identity(4)
        rep = emb.report()
        assert rep.dilation == 1
        assert rep.load_factor == 1
        assert rep.expansion == 1.0


class TestComparison:
    def test_theorem1_beats_baselines(self):
        """The headline comparison: constant vs growing dilation."""
        r = 5
        tree = make_tree("caterpillar", theorem1_guest_size(r), seed=2)
        t1 = theorem1_embedding(tree).embedding.dilation()
        chunk = order_chunk_embedding(tree).dilation()
        assert t1 <= 3 < chunk
