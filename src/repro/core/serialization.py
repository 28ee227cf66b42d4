"""Save and load embeddings as JSON.

A placement computed once (e.g. by the Theorem 1 construction) is a static
routing table a runtime system would ship; this module round-trips
:class:`~repro.core.embedding.Embedding` objects through a compact,
stable JSON document:

* the guest as its parent array,
* the host as its constructor recipe (``type`` plus named parameters,
  see :meth:`repro.networks.Topology.spec`),
* the mapping as one host *canonical index* per guest node (so the file
  stays flat regardless of how exotic the host's node labels are).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..networks import build_host
from ..trees.binary_tree import BinaryTree
from .embedding import Embedding

__all__ = ["embedding_to_dict", "embedding_from_dict", "save_embedding", "load_embedding"]

_FORMAT_VERSION = 1


def embedding_to_dict(embedding: Embedding) -> dict[str, Any]:
    """A JSON-serialisable document describing ``embedding``."""
    host = embedding.host
    return {
        "format": _FORMAT_VERSION,
        "guest_parent": list(embedding.guest.parent_array),
        # the host's recipe with its parameters named, e.g.
        # {"type": "grid2d", "rows": 3, "cols": 5}
        "host": {"type": host.name, **dict(zip(host.params, host.spec_args))},
        "phi": [host.index(embedding.phi[v]) for v in embedding.guest.nodes()],
    }


def embedding_from_dict(doc: dict[str, Any]) -> Embedding:
    """Rebuild an :class:`Embedding` from :func:`embedding_to_dict` output."""
    if doc.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {doc.get('format')!r}")
    guest = BinaryTree(doc["guest_parent"])
    params = dict(doc["host"])
    host = build_host(params.pop("type", None), params)
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
