"""Analysis helpers: distances, metrics, tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    all_pairs_distances,
    collect_metrics,
    dilation_histogram,
    distance_histogram,
    eccentricities,
    format_claim_reports,
    load_histogram,
    markdown_table,
)
from repro.core import theorem1_embedding, verify_figure1
from repro.networks import Hypercube, XTree
from repro.trees import make_tree, theorem1_guest_size


class TestDistances:
    def test_all_pairs_hypercube(self):
        q = Hypercube(4)
        D = all_pairs_distances(q)
        assert D.shape == (16, 16)
        for u in range(16):
            for v in range(16):
                assert D[u, v] == bin(u ^ v).count("1")

    def test_all_pairs_symmetric_zero_diag(self):
        D = all_pairs_distances(XTree(3))
        assert (D == D.T).all()
        assert (np.diag(D) == 0).all()
        assert (D >= 0).all()  # connected: no -1 left

    def test_distance_histogram(self):
        D = all_pairs_distances(Hypercube(2))
        # pairs at distance 1: 4 edges; at distance 2: 2 diagonals
        assert distance_histogram(D) == {1: 4, 2: 2}

    def test_eccentricities(self):
        D = all_pairs_distances(Hypercube(3))
        assert (eccentricities(D) == 3).all()


class TestMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        tree = make_tree("random", theorem1_guest_size(2), seed=0)
        return theorem1_embedding(tree)

    def test_collect_metrics(self, result):
        m = collect_metrics("t1", result.embedding)
        assert m.dilation <= 3
        assert m.load_factor == 16
        assert 0 < m.mean_edge_dilation <= m.dilation
        assert m.congestion >= 1

    def test_collect_metrics_skip_congestion(self, result):
        m = collect_metrics("t1", result.embedding, congestion=False)
        assert m.congestion == -1

    def test_dilation_histogram_sums_to_edges(self, result):
        hist = dilation_histogram(result.embedding)
        assert sum(hist.values()) == result.embedding.guest.n - 1

    def test_load_histogram(self, result):
        hist = load_histogram(result.embedding)
        assert hist == {16: result.embedding.host.n_nodes}


class TestTables:
    def test_markdown_table(self):
        out = markdown_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("| a")
        assert set(lines[1]) <= {"|", "-"}

    def test_empty_rows(self):
        out = markdown_table(["x"], [])
        assert "x" in out

    def test_format_claim_reports(self):
        out = format_claim_reports([verify_figure1(2)])
        assert "PASS" in out and "Figure 1" in out


class TestSpeedscope:
    def _valid_profile(self, prof):
        """Speedscope evented profiles need properly nested O/C events."""
        assert prof["$schema"].startswith("https://www.speedscope.app/")
        (p,) = prof["profiles"]
        assert p["type"] == "evented"
        stack = []
        last = p["startValue"]
        for e in p["events"]:
            assert e["at"] >= last
            last = e["at"]
            if e["type"] == "O":
                stack.append(e["frame"])
            else:
                assert stack and stack[-1] == e["frame"]
                stack.pop()
        assert not stack
        assert last <= p["endValue"]

    def test_embedding_construction_spans_export(self):
        import json

        from repro.analysis import to_speedscope
        from repro.core.xtree_embed import embed_binary_tree
        from repro.obs import reset_spans, spans

        reset_spans()
        embed_binary_tree(make_tree("random", theorem1_guest_size(3), seed=2))
        names = [r.name for r in spans()]
        assert names[0] == "embed.round0"
        assert names[-1] == "embed.finalize"
        assert names.count("embed.adjust") == 3  # one per round, r=3
        assert names.count("embed.split") == 3
        prof = to_speedscope()
        self._valid_profile(prof)
        # the default separator is PaperSeparator, whose splits are spans
        assert {f["name"] for f in prof["shared"]["frames"]} == {
            "embed.round0", "embed.adjust", "embed.split", "embed.finalize",
            "separator.split",
        }
        json.dumps(prof)  # JSON-safe

    def test_nested_spans_keep_proper_nesting(self):
        from repro.analysis import to_speedscope
        from repro.obs import reset_spans, span, spans

        reset_spans()
        with span("outer"):
            with span("inner"):
                pass
            with span("inner"):
                pass
        prof = to_speedscope(spans(), name="nested")
        self._valid_profile(prof)
        assert prof["profiles"][0]["name"] == "nested"
        # one frame per unique name
        assert len(prof["shared"]["frames"]) == 2

    def test_empty_span_log(self):
        from repro.analysis import to_speedscope

        prof = to_speedscope([])
        self._valid_profile(prof)
        assert prof["profiles"][0]["events"] == []
