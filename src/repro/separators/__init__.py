"""Pluggable tree separators for the embedding pipeline.

The paper's embedding (Theorem 1) repeatedly splits tree pieces with the
Lemma 1/2 constructions (``find1``/``find2``).  This package turns that
single hard-wired choice into a :class:`Separator` protocol:

* :class:`PaperSeparator` — the reference implementation and the
  embedder's default, delegating to :func:`lemma2_split` verbatim;
* :class:`FlowSeparator` — a max-flow/min-cut vertex separator (pure
  python Dinic on the split-node capacity graph, FlowCutter-style
  terminal piercing for balance; no networkx).

Both honour the same contract — a :class:`Separation`
whose sides partition the universe, whose designated nodes land in the S
sets, and whose leftover components attach to at most two S nodes — so
either can drive ``embed_binary_tree(..., separator=...)`` or the CLI's
``--separator {paper,flow}``.  Every call is wrapped in an observability
span and feeds the ``separator.*`` counters.

The Lemma 1/2 constructions themselves live in :mod:`.lemmas` and are
exported from this package; it is their only public home.
"""

from __future__ import annotations

from .lemmas import (
    Separation,
    lemma1_bound,
    lemma1_split,
    lemma2_bound,
    lemma2_split,
)
from .base import PaperSeparator, Separator, make_separator
from .flow import DinicMaxFlow, FlowSeparator, min_vertex_cut

#: registry of selectable separator implementations, keyed by name
SEPARATORS: dict[str, type[Separator]] = {
    PaperSeparator.name: PaperSeparator,
    FlowSeparator.name: FlowSeparator,
}

__all__ = [
    "Separation",
    "Separator",
    "PaperSeparator",
    "FlowSeparator",
    "DinicMaxFlow",
    "min_vertex_cut",
    "SEPARATORS",
    "make_separator",
    "lemma1_bound",
    "lemma1_split",
    "lemma2_bound",
    "lemma2_split",
]
