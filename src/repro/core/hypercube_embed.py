"""Section 3: hypercube embeddings — inorder, Lemma 3, Theorem 3, corollary.

Three constructions:

* the classical **inorder embedding** of the complete binary tree B_r into
  its optimal hypercube Q_{r+1}: ``delta_io(alpha) = alpha 1 0^{r-|alpha|}``
  with dilation 2 and the distance property ``D -> <= D+1``;
* **Lemma 3**: an injective embedding of the *X-tree* X(r) into Q_{r+1}
  with the same ``D -> <= D+1`` property.  The address transform
  ``chi(a)_v = a_v xor a_{v-1}`` turns level-successor pairs into
  single-bit flips;
* **Theorem 3**: composing Theorem 1 (tree -> X(r-1), dilation 3, load 16)
  with Lemma 3 (X(r-1) -> Q_r, +1) embeds any binary tree with
  ``n = 16*(2**r - 1)`` nodes into Q_r with load 16 and dilation 4 — i.e.
  dilation 4 into the *optimal* hypercube if non-injective constant-load
  maps are allowed, which was new information in 1991;
* the **corollary**: any binary tree with at most ``2**r - 16`` nodes
  embeds injectively into Q_r with dilation 8 (give the 16 cohabitants
  distinct 4-bit suffixes; 4 old hops + 4 suffix bits).
"""

from __future__ import annotations

from ..networks.hypercube import Hypercube
from ..networks.xtree import XAddr, addr_to_string
from ..trees.binary_tree import BinaryTree, theorem3_guest_size
from .embedding import Embedding
from .xtree_embed import theorem1_embedding

__all__ = [
    "inorder_embedding",
    "xtree_to_hypercube_map",
    "theorem3_embedding",
    "corollary_injective_hypercube",
]


def _bits_to_int(bits: str) -> int:
    return int(bits, 2) if bits else 0


def inorder_embedding(r: int) -> dict[XAddr, int]:
    """The inorder map B_r -> Q_{r+1}: ``alpha -> alpha 1 0^{r-|alpha|}``.

    Keys are X-tree style ``(level, index)`` addresses of the complete
    binary tree's nodes; values are hypercube vertex labels (ints reading
    the ``r+1``-bit string big-endian).  Dilation 2; distance ``D`` in B_r
    maps to at most ``D + 1`` in Q_{r+1}.
    """
    if r < 0:
        raise ValueError(f"height must be non-negative, got {r}")
    out: dict[XAddr, int] = {}
    for level in range(r + 1):
        for idx in range(1 << level):
            bits = addr_to_string((level, idx)) + "1" + "0" * (r - level)
            out[(level, idx)] = _bits_to_int(bits)
    return out


def _chi(bits: str) -> str:
    """Lemma 3's address transform: ``b_1 = a_1``, ``b_v = a_v xor a_{v-1}``.

    (The paper states ``b_v = a_v iff a_{v-1} = 0``, i.e. the bit is kept
    under a 0-predecessor and flipped under a 1-predecessor — exactly xor
    with the previous bit.)  It makes horizontal successors differ in one
    bit, which is what gives the ``D -> D+1`` distance property.
    """
    out = []
    prev = "0"
    for a in bits:
        out.append("1" if a != prev else "0")
        prev = a
    return "".join(out)


def xtree_to_hypercube_map(r: int) -> dict[XAddr, int]:
    """Lemma 3's injective embedding of X(r) into Q_{r+1}.

    ``delta(alpha) = chi(alpha) 1 0^{r-|alpha|}``; X-tree distance ``D``
    maps to hypercube distance at most ``D + 1``.
    """
    if r < 0:
        raise ValueError(f"height must be non-negative, got {r}")
    out: dict[XAddr, int] = {}
    for level in range(r + 1):
        for idx in range(1 << level):
            bits = _chi(addr_to_string((level, idx))) + "1" + "0" * (r - level)
            out[(level, idx)] = _bits_to_int(bits)
    return out


def theorem3_embedding(tree: BinaryTree, *, validate: bool = False) -> Embedding:
    """Theorem 3: ``n = 16 * (2**r - 1)`` nodes into Q_r, load 16, dilation 4.

    Composition: Theorem 1 into X(r-1), then Lemma 3 into Q_r.
    """
    r = 0
    while theorem3_guest_size(r) < tree.n:
        r += 1
    if theorem3_guest_size(r) != tree.n:
        raise ValueError(
            f"Theorem 3 requires n = 16*(2^r - 1); got n={tree.n} "
            f"(nearest valid: {theorem3_guest_size(max(r - 1, 0))}, {theorem3_guest_size(r)})"
        )
    base = theorem1_embedding(tree, validate=validate)
    outer = xtree_to_hypercube_map(r - 1)
    return base.embedding.compose(outer, Hypercube(r))


def corollary_injective_hypercube(tree: BinaryTree) -> Embedding:
    """The section 3 corollary: ``n <= 2**r - 16`` nodes injectively into
    Q_r with dilation 8 (smallest such ``r`` is chosen; the guest is padded
    up to exactly ``2**r - 16`` nodes first).
    """
    r = 4
    while (1 << r) - 16 < tree.n:
        r += 1
    padded = tree.padded_to((1 << r) - 16)
    base = theorem1_embedding(padded)  # X(r-5): 16*(2^(r-4)-1) = 2^r - 16
    height = base.embedding.host.height  # type: ignore[attr-defined]
    xmap = xtree_to_hypercube_map(height)
    counter: dict[XAddr, int] = {}
    phi: dict[int, int] = {}
    dim = height + 1 + 4  # Lemma 3 lands in Q_{h+1}; 4 suffix bits for the 16 slots
    for v in padded.nodes():
        addr = base.embedding.phi[v]
        mu = counter.get(addr, 0)
        counter[addr] = mu + 1
        phi[v] = (xmap[addr] << 4) | mu
    return Embedding(padded, Hypercube(dim), phi)
