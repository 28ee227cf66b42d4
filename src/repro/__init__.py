"""repro — Simulating Binary Trees on X-Trees (Monien, SPAA 1991).

A full reproduction of the paper's constructions:

* :func:`theorem1_embedding` — any binary tree with ``16*(2^(r+1)-1)``
  nodes into the X-tree X(r) with dilation 3, load factor 16 and optimal
  expansion (the paper's main result);
* :func:`injective_xtree_embedding` — Theorem 2's injective version into
  X(r+4) with dilation 11;
* :func:`theorem3_embedding` — Theorem 3's hypercube embedding (load 16,
  dilation 4 into the optimal hypercube);
* :class:`UniversalGraph` — Theorem 4's degree-415 universal graph;
* the separator lemmas, the X-tree/hypercube topologies, baselines, a
  synchronous network simulator, and verifiers for every claim.

This module re-exports the names the examples and the README use; the
rest live in their subpackages (:mod:`repro.core`, :mod:`repro.networks`,
:mod:`repro.separators`, :mod:`repro.simulate`, :mod:`repro.universal`, ...).

Quickstart::

    from repro import make_tree, theorem1_guest_size, theorem1_embedding

    tree = make_tree("random", theorem1_guest_size(4), seed=0)   # 496 nodes
    result = theorem1_embedding(tree)
    print(result.embedding.report())   # dilation <= 3, load 16
"""

# ``.core`` is imported first on purpose: ``repro.networks`` registers
# ``repro.universal``'s graph, and ``repro.universal`` imports core modules,
# so core must already be initialising when networks is first loaded
# (tests/test_imports.py checks every package as a first import).
from .core import (
    EmbedConfig,
    Embedding,
    OnlineXTreeEmbedder,
    complete_tree_into_xtree,
    condition_3prime_defects,
    corollary_injective_hypercube,
    embedding_from_dict,
    embedding_to_dict,
    expand_to_injective,
    gray_code,
    gray_rank,
    grid_into_hypercube,
    injective_xtree_embedding,
    inorder_embedding,
    load_embedding,
    order_chunk_embedding,
    recursive_bisection_embedding,
    replay_online,
    save_embedding,
    theorem1_embedding,
    theorem3_embedding,
    verify_imbalance_estimations,
    verify_theorem1,
    xtree_to_hypercube_map,
)
from .networks import XTree, addr_to_string
from .separators import lemma1_split, lemma2_split
from .trees import make_tree, theorem1_guest_size, theorem3_guest_size
from .universal import (
    UniversalGraph,
    embed_into_universal,
    embed_into_universal_padded,
    spanning_defect,
    universal_supergraph,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # guests
    "make_tree",
    "theorem1_guest_size",
    "theorem3_guest_size",
    # hosts
    "XTree",
    "addr_to_string",
    # embeddings & results
    "Embedding",
    "theorem1_embedding",
    "EmbedConfig",
    "injective_xtree_embedding",
    "expand_to_injective",
    "theorem3_embedding",
    "corollary_injective_hypercube",
    "inorder_embedding",
    "xtree_to_hypercube_map",
    "UniversalGraph",
    "embed_into_universal",
    "embed_into_universal_padded",
    "universal_supergraph",
    "spanning_defect",
    # separators
    "lemma1_split",
    "lemma2_split",
    # baselines
    "order_chunk_embedding",
    "recursive_bisection_embedding",
    # verification
    "verify_theorem1",
    "condition_3prime_defects",
    "verify_imbalance_estimations",
    "replay_online",
    "OnlineXTreeEmbedder",
    # context constructions & serialization
    "gray_code",
    "gray_rank",
    "grid_into_hypercube",
    "complete_tree_into_xtree",
    "embedding_to_dict",
    "embedding_from_dict",
    "save_embedding",
    "load_embedding",
]
