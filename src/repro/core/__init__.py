"""The paper's results: embeddings, baselines, verifiers.

The Lemma 1/2 separators live in :mod:`repro.separators` and Theorem 4's
universal graph in :mod:`repro.universal`.
"""

from .context import (
    complete_tree_into_xtree,
    gray_code,
    gray_rank,
    grid_into_hypercube,
)
from .serialization import (
    embedding_from_dict,
    embedding_to_dict,
    load_embedding,
    save_embedding,
)
from .online import OnlineXTreeEmbedder, replay_online
from .baselines import (
    complete_tree_identity,
    order_chunk_embedding,
    recursive_bisection_embedding,
)
from .embedding import Embedding
from .hypercube_embed import (
    corollary_injective_hypercube,
    inorder_embedding,
    theorem3_embedding,
    xtree_to_hypercube_map,
)
from .injective import expand_to_injective, injective_xtree_embedding
from .verification import (
    verify_imbalance_estimations,
    condition_3prime_defects,
    verify_corollary_q8,
    verify_figure1,
    verify_figure2,
    verify_inorder,
    verify_lemma3,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
)
from .xtree_embed import (
    EmbedConfig,
    embed_binary_tree,
    theorem1_embedding,
)

__all__ = [
    "Embedding",
    "EmbedConfig",
    "embed_binary_tree",
    "theorem1_embedding",
    "injective_xtree_embedding",
    "expand_to_injective",
    "inorder_embedding",
    "xtree_to_hypercube_map",
    "theorem3_embedding",
    "corollary_injective_hypercube",
    "order_chunk_embedding",
    "recursive_bisection_embedding",
    "complete_tree_identity",
    "verify_theorem1",
    "verify_theorem2",
    "verify_theorem3",
    "verify_corollary_q8",
    "verify_theorem4",
    "verify_lemma3",
    "verify_inorder",
    "verify_figure1",
    "verify_figure2",
    "verify_imbalance_estimations",
    "condition_3prime_defects",
    "gray_code",
    "gray_rank",
    "grid_into_hypercube",
    "complete_tree_into_xtree",
    "embedding_to_dict",
    "embedding_from_dict",
    "save_embedding",
    "load_embedding",
    "OnlineXTreeEmbedder",
    "replay_online",
]
