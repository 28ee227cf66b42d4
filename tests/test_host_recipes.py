"""One constructor recipe per host, shared by every wire format.

Each registered topology declares its recipe once (``Topology.params``);
``repro.networks.build_host`` inverts it.  Embedding files, runtime
checkpoints and scenario documents all go through that pair, so every
registered host round-trips through all three — ``debruijn`` and
``shuffle-exchange`` included — and the embedding file's host descriptor
keeps its format-1 bytes.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.core.embedding import Embedding
from repro.core.serialization import (
    embedding_from_dict,
    embedding_to_dict,
    load_embedding,
    save_embedding,
)
from repro.networks import TOPOLOGIES, GuestTreeNet, build_host, registry_instances
from repro.runtime import Runtime
from repro.service import Scenario
from repro.trees import make_tree
from repro.universal import UniversalGraph

INSTANCES = registry_instances()

#: format-1 host descriptors, byte for byte, of the hosts that serialised
#: before the shared recipe existed
GOLDEN_DESCRIPTORS = {
    "xtree": '{"type": "xtree", "height": 3}',
    "hypercube": '{"type": "hypercube", "dimension": 3}',
    "complete-binary-tree": '{"type": "complete-binary-tree", "height": 3}',
    "grid2d": '{"type": "grid2d", "rows": 3, "cols": 5}',
    "ccc": '{"type": "ccc", "dimension": 3}',
    "butterfly": '{"type": "butterfly", "dimension": 3}',
}


def small_embedding(host) -> Embedding:
    n = min(host.n_nodes, 20)
    phi = {v: host.node_at((3 * v) % host.n_nodes) for v in range(n)}
    return Embedding(make_tree("random", n, seed=1), host, phi)


def assert_same_host(a, b) -> None:
    assert type(a) is type(b)
    assert a.spec_args == b.spec_args
    assert a.n_nodes == b.n_nodes

    def edges(t):
        return {(t.index(u), t.index(v)) for u, v in t.edges()}

    assert edges(a) == edges(b)


@pytest.mark.parametrize("name", sorted(INSTANCES))
class TestEveryRegisteredHost:
    def test_recipe_names_the_constructor_parameters(self, name):
        cls = TOPOLOGIES[name]
        assert cls.params == tuple(inspect.signature(cls).parameters)

    def test_embedding_file_round_trip(self, name, tmp_path):
        emb = small_embedding(INSTANCES[name])
        path = tmp_path / "emb.json"
        save_embedding(emb, path)
        loaded = load_embedding(path)
        assert_same_host(loaded.host, emb.host)
        assert loaded.guest.parent_array == emb.guest.parent_array
        assert loaded.phi == emb.phi

    def test_checkpoint_host_round_trip(self, name):
        host = INSTANCES[name]
        state = json.loads(json.dumps(Runtime(host).checkpoint()))
        assert state["host"] == {"name": name, "args": list(host.spec_args)}
        assert_same_host(Runtime.restore(state).host, host)

    def test_scenario_host_build(self, name):
        host = INSTANCES[name]
        sc = Scenario.from_obj({
            "version": 1,
            "name": "recipe",
            "host": host.spec(),
            "jobs": [{"name": "a", "program": "reduction", "tree_n": 15}],
        })
        assert sc.as_dict()["host"] == host.spec()
        assert_same_host(build_host(sc.host_name, sc.host_args), host)


@pytest.mark.parametrize("name", sorted(GOLDEN_DESCRIPTORS))
def test_format1_host_descriptor_is_pinned(name):
    doc = embedding_to_dict(small_embedding(INSTANCES[name]))
    assert json.dumps(doc["host"]) == GOLDEN_DESCRIPTORS[name]


class TestRecipe:
    def test_universal_drops_trailing_defaults(self):
        assert UniversalGraph(8).spec() == {"name": "universal", "args": [8]}
        assert UniversalGraph(8, "radius").spec_args == (8, "radius")
        assert UniversalGraph(8, "paper", 2).spec_args == (8, "paper", 2)

    def test_universal_descriptor_names_only_non_defaults(self):
        doc = embedding_to_dict(small_embedding(UniversalGraph(7, mode="radius")))
        assert doc["host"] == {"type": "universal", "t": 7, "mode": "radius"}

    def test_full_universal_descriptor_still_loads(self):
        # files that spell out every G_n parameter stay readable
        emb = small_embedding(UniversalGraph(7))
        doc = embedding_to_dict(emb)
        doc["host"] = {"type": "universal", "t": 7, "mode": "paper", "radius": 3}
        assert embedding_from_dict(doc).phi == emb.phi

    def test_builder_accepts_positional_and_named_args(self):
        named = build_host("grid2d", {"rows": 3, "cols": 5})
        assert_same_host(build_host("grid2d", [3, 5]), named)

    def test_builder_names_the_bad_field(self):
        with pytest.raises(ValueError, match=r"^host\.name: unknown host topology 'torus'"):
            build_host("torus", [3])
        with pytest.raises(ValueError, match=r"^host\.args: "):
            build_host("xtree", [1, 2])
        with pytest.raises(ValueError, match=r"^host\.args: .*'depth'"):
            build_host("xtree", {"depth": 3})

    def test_unregistered_host_has_no_recipe(self):
        net = GuestTreeNet(make_tree("path", 4, seed=0))
        with pytest.raises(TypeError, match="no constructor recipe"):
            net.spec()
