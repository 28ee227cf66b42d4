"""Save and load embeddings as JSON.

A placement computed once (e.g. by the Theorem 1 construction) is a static
routing table a runtime system would ship; this module round-trips
:class:`~repro.core.embedding.Embedding` objects through a compact,
stable JSON document:

* the guest as its parent array,
* the host as a ``(type, parameters)`` descriptor,
* the mapping as one host *canonical index* per guest node (so the file
  stays flat regardless of how exotic the host's node labels are).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..networks.binary_tree_net import CompleteBinaryTreeNet
from ..networks.butterfly import Butterfly
from ..networks.ccc import CubeConnectedCycles
from ..networks.grid import Grid2D
from ..networks.hypercube import Hypercube
from ..networks.xtree import XTree
from ..trees.binary_tree import BinaryTree
from ..universal import UniversalGraph
from .embedding import Embedding

__all__ = ["embedding_to_dict", "embedding_from_dict", "save_embedding", "load_embedding"]

_FORMAT_VERSION = 1


def _host_descriptor(host) -> dict[str, Any]:
    if isinstance(host, XTree):
        return {"type": "xtree", "height": host.height}
    if isinstance(host, Hypercube):
        return {"type": "hypercube", "dimension": host.dimension}
    if isinstance(host, CompleteBinaryTreeNet):
        return {"type": "complete-binary-tree", "height": host.height}
    if isinstance(host, Grid2D):
        return {"type": "grid2d", "rows": host.rows, "cols": host.cols}
    if isinstance(host, CubeConnectedCycles):
        return {"type": "ccc", "dimension": host.dimension}
    if isinstance(host, Butterfly):
        return {"type": "butterfly", "dimension": host.dimension}
    if isinstance(host, UniversalGraph):
        return {"type": "universal", "t": host.t, "mode": host.mode, "radius": host.radius}
    raise TypeError(f"cannot serialise host of type {type(host).__name__}")


def _host_from_descriptor(desc: dict[str, Any]):
    kind = desc.get("type")
    if kind == "xtree":
        return XTree(desc["height"])
    if kind == "hypercube":
        return Hypercube(desc["dimension"])
    if kind == "complete-binary-tree":
        return CompleteBinaryTreeNet(desc["height"])
    if kind == "grid2d":
        return Grid2D(desc["rows"], desc["cols"])
    if kind == "ccc":
        return CubeConnectedCycles(desc["dimension"])
    if kind == "butterfly":
        return Butterfly(desc["dimension"])
    if kind == "universal":
        return UniversalGraph(desc["t"], mode=desc.get("mode", "paper"), radius=desc.get("radius", 3))
    raise ValueError(f"unknown host type {kind!r}")


def embedding_to_dict(embedding: Embedding) -> dict[str, Any]:
    """A JSON-serialisable document describing ``embedding``."""
    host = embedding.host
    return {
        "format": _FORMAT_VERSION,
        "guest_parent": list(embedding.guest.parent_array),
        "host": _host_descriptor(host),
        "phi": [host.index(embedding.phi[v]) for v in embedding.guest.nodes()],
    }


def embedding_from_dict(doc: dict[str, Any]) -> Embedding:
    """Rebuild an :class:`Embedding` from :func:`embedding_to_dict` output."""
    if doc.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {doc.get('format')!r}")
    guest = BinaryTree(doc["guest_parent"])
    host = _host_from_descriptor(doc["host"])
    phi_idx = doc["phi"]
    if len(phi_idx) != guest.n:
        raise ValueError(f"phi has {len(phi_idx)} entries for {guest.n} guest nodes")
    phi = {v: host.node_at(i) for v, i in enumerate(phi_idx)}
    return Embedding(guest, host, phi)


def save_embedding(embedding: Embedding, path: str | Path) -> None:
    """Write an embedding to ``path`` as JSON."""
    Path(path).write_text(json.dumps(embedding_to_dict(embedding)))


def load_embedding(path: str | Path) -> Embedding:
    """Read an embedding previously written by :func:`save_embedding`."""
    return embedding_from_dict(json.loads(Path(path).read_text()))
