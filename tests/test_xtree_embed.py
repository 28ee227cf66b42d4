"""Theorem 1 construction: feasibility, quality, invariants, edge cases."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import embed_binary_tree, theorem1_embedding
from repro.trees import FAMILIES, make_tree, theorem1_guest_size


class TestTheorem1Exact:
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_all_families_meet_bounds(self, family, r):
        n = theorem1_guest_size(r)
        tree = make_tree(family, n, seed=42)
        result = theorem1_embedding(tree, validate=True)
        rep = result.embedding.report()
        assert rep.dilation <= 3, (family, r, rep)
        assert rep.load_factor == 16
        # optimal expansion: every host slot used
        assert rep.n_host * 16 == rep.n_guest

    def test_r4_random(self):
        tree = make_tree("random", theorem1_guest_size(4), seed=7)
        result = theorem1_embedding(tree, validate=True)
        assert result.embedding.dilation() <= 3
        assert result.embedding.load_factor() == 16

    @pytest.mark.parametrize(
        "family,r", [("random", 5), ("remy", 5), ("path", 6), ("random", 7)]
    )
    def test_bounds_beyond_r4(self, family, r):
        tree = make_tree(family, theorem1_guest_size(r), seed=0)
        rep = theorem1_embedding(tree).embedding.report()
        assert rep.dilation <= 3
        assert rep.load_factor == 16

    @pytest.mark.parametrize("family,r", [("random", 9), ("caterpillar", 8)])
    def test_load_16_at_scale(self, family, r):
        tree = make_tree(family, theorem1_guest_size(r), seed=0)
        assert theorem1_embedding(tree).embedding.load_factor() == 16

    def test_wrong_size_rejected(self):
        tree = make_tree("random", 100, seed=0)
        with pytest.raises(ValueError, match="16"):
            theorem1_embedding(tree)

    def test_every_node_placed_once(self):
        tree = make_tree("remy", theorem1_guest_size(3), seed=9)
        result = theorem1_embedding(tree)
        assert sorted(result.embedding.phi) == list(tree.nodes())

    def test_loads_exactly_16_everywhere(self):
        tree = make_tree("caterpillar", theorem1_guest_size(3), seed=0)
        result = theorem1_embedding(tree)
        loads = result.embedding.loads()
        assert set(loads.values()) == {16}
        assert len(loads) == result.embedding.host.n_nodes


class TestImbalanceHistory:
    def test_history_recorded_per_round(self):
        r = 4
        tree = make_tree("random", theorem1_guest_size(r), seed=1)
        result = theorem1_embedding(tree)
        assert len(result.history) == r
        # after the final round every sibling pair is perfectly balanced on
        # the levels the paper proves converge (j <= r-2)
        final = result.history[-1]
        for j in range(r - 1):
            assert final[j] <= 24, (j, final)

    def test_imbalance_shrinks_over_rounds(self):
        """The paper's Delta(j, i) <= 2^{r+j+1-2i}: doubling i must crush
        the imbalance at fixed j.  We check the qualitative shape."""
        r = 6
        tree = make_tree("remy", theorem1_guest_size(r), seed=3)
        result = theorem1_embedding(tree)
        # level-0 imbalance at the end is far below its first-round value
        first = max(result.history[0].get(0, 0), 1)
        last = result.history[-1].get(0, 0)
        assert last <= first


class TestGeneralSizes:
    """embed_binary_tree pads arbitrary sizes to the next valid guest."""

    @pytest.mark.parametrize("n", [1, 2, 15, 17, 100, 300])
    def test_padding_path(self, n):
        tree = make_tree("random", n, seed=4)
        result = embed_binary_tree(tree)
        assert result.embedding.guest.n >= n
        assert result.embedding.load_factor() == 16
        assert result.embedding.dilation() <= 4

    def test_explicit_height(self):
        tree = make_tree("path", 100, seed=0)
        result = embed_binary_tree(tree, height=3)
        assert result.embedding.host.height == 3
        assert result.embedding.guest.n == theorem1_guest_size(3)

    def test_too_small_host_rejected(self):
        tree = make_tree("random", 300, seed=0)
        with pytest.raises(ValueError, match="cannot fit"):
            embed_binary_tree(tree, height=1)

    def test_capacity_parameter(self):
        tree = make_tree("random", 28, seed=0)
        result = embed_binary_tree(tree, capacity=4, height=2)
        assert result.embedding.load_factor() == 4

    def test_capacity_must_be_sane(self):
        tree = make_tree("random", 28, seed=0)
        with pytest.raises(ValueError):
            embed_binary_tree(tree, capacity=1)


class TestStatsAndFallbacks:
    def test_stats_mostly_zero(self):
        tree = make_tree("random", theorem1_guest_size(4), seed=5)
        result = theorem1_embedding(tree)
        stats = result.stats.as_dict()
        assert stats["sigma_conflicts"] == 0
        assert stats["overflow_placements"] == 0
        # final spill is allowed but tiny
        assert stats["final_spill_distance"] <= 2

    def test_dilation_three_is_tight_somewhere(self):
        """The construction genuinely uses distance-3 hops (cross-boundary
        separator placements) — at moderate depth the bound is attained."""
        seen3 = False
        for fam in ("path", "remy", "zigzag", "caterpillar"):
            for r in (5, 6):
                tree = make_tree(fam, theorem1_guest_size(r), seed=1)
                if theorem1_embedding(tree).embedding.dilation() == 3:
                    seen3 = True
                    break
            if seen3:
                break
        assert seen3


class TestEmbedConfig:
    def test_default_is_exact_reproduction(self):
        from repro.core import condition_3prime_defects
        from repro.core.xtree_embed import EmbedConfig

        tree = make_tree("zigzag", theorem1_guest_size(5), seed=2)
        res = theorem1_embedding(tree, config=EmbedConfig())
        assert res.embedding.dilation() <= 3
        assert condition_3prime_defects(res.embedding) == []

    def test_no_balance_degrades(self):
        from repro.core.xtree_embed import EmbedConfig

        tree = make_tree("path", theorem1_guest_size(6), seed=0)
        good = theorem1_embedding(tree)
        bad = theorem1_embedding(tree, config=EmbedConfig(balance_children=False))
        assert bad.stats.final_spill_count > good.stats.final_spill_count
        # feasibility still guaranteed even without balancing
        assert bad.embedding.load_factor() == 16

    def test_no_balance_costs_spills_dilation_and_3prime(self):
        """Ablation: without the SPLIT balancing step leftovers explode,
        dilation passes 3 and condition (3') collapses."""
        from repro.core import condition_3prime_defects
        from repro.core.xtree_embed import EmbedConfig

        tree = make_tree("path", theorem1_guest_size(6), seed=5)
        good = theorem1_embedding(tree)
        bad = theorem1_embedding(tree, config=EmbedConfig(balance_children=False))
        assert bad.stats.final_spill_count > 5 * good.stats.final_spill_count
        assert bad.embedding.dilation() > good.embedding.dilation()
        assert len(condition_3prime_defects(bad.embedding)) > len(
            condition_3prime_defects(good.embedding)
        )

    def test_sideways_balance_moves_bring_back_3prime_defects(self):
        """Ablation: re-attaching a child-anchored piece to its sibling
        plants the geometry that lands outside N(sigma)."""
        from repro.core import condition_3prime_defects
        from repro.core.xtree_embed import EmbedConfig

        tree = make_tree("zigzag", theorem1_guest_size(8), seed=5)
        cfg = EmbedConfig(sideways_balance_moves=True, adjust_sigma_filter=False)
        assert condition_3prime_defects(theorem1_embedding(tree, config=cfg).embedding)
        assert condition_3prime_defects(theorem1_embedding(tree).embedding) == []

    def test_neighbor_fill_strictly_fewer_spills(self):
        from repro.core.xtree_embed import EmbedConfig

        def spills(config):
            return sum(
                theorem1_embedding(
                    make_tree(fam, theorem1_guest_size(6), seed=5), config=config
                ).stats.final_spill_count
                for fam in ("path", "caterpillar", "remy", "zigzag")
            )

        assert spills(EmbedConfig(neighbor_fill=True)) < spills(EmbedConfig())

    def test_config_is_frozen(self):
        import dataclasses

        from repro.core.xtree_embed import EmbedConfig

        cfg = EmbedConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.neighbor_fill = True  # type: ignore[misc]

    def test_neighbor_fill_reduces_spills(self):
        from repro.core.xtree_embed import EmbedConfig

        tree = make_tree("caterpillar", theorem1_guest_size(6), seed=0)
        base = theorem1_embedding(tree)
        nf = theorem1_embedding(tree, config=EmbedConfig(neighbor_fill=True))
        assert nf.stats.final_spill_count <= base.stats.final_spill_count
        assert nf.embedding.load_factor() == 16


class TestPropertyBased:
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_contract(self, family, r, seed):
        n = theorem1_guest_size(r)
        tree = make_tree(family, n, seed=seed)
        result = theorem1_embedding(tree, validate=True)
        assert result.embedding.load_factor() == 16
        assert result.embedding.dilation() <= 3
        assert len(result.embedding.phi) == n
