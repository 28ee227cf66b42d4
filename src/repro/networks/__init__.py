"""Host network topologies.

The star of the show is :class:`~repro.networks.xtree.XTree` (the paper's
host).  The others either appear in the paper's derived results (hypercube)
or reproduce the introduction's context (complete binary tree, grid,
cube-connected cycles, butterfly).
"""

from collections.abc import Mapping, Sequence

from .base import Topology, bfs_distance, bfs_distances_from
from .binary_tree_net import CompleteBinaryTreeNet
from .butterfly import Butterfly
from .ccc import CubeConnectedCycles
from .grid import Grid2D
from .guest_tree import GuestTreeNet
from .hypercube import Hypercube, hamming_distance
from .shuffle import DeBruijn, ShuffleExchange
from .xtree import (
    XAddr,
    XTree,
    addr_from_string,
    addr_to_string,
    xtree_optimal_height,
    xtree_size,
)
# G_n lives in repro.universal, which imports networks submodules back; the
# cycle resolves because repro/__init__ loads .core first
from ..universal import UniversalGraph

#: Registry of every host topology, keyed by its ``Topology.name``.  The
#: oracle tests and benchmark harness sweep over this to prove properties on
#: the whole library at once.
TOPOLOGIES: dict[str, type[Topology]] = {
    cls.name: cls
    for cls in (
        XTree,
        Hypercube,
        CompleteBinaryTreeNet,
        Grid2D,
        CubeConnectedCycles,
        Butterfly,
        ShuffleExchange,
        DeBruijn,
        UniversalGraph,
    )
}


def build_host(name: str, args: Sequence | Mapping = ()) -> Topology:
    """The registered topology ``name`` built from its recipe ``args``.

    ``args`` is positional (a :meth:`Topology.spec` / scenario ``args``
    list) or keyword (an embedding file's named parameters).  Every wire
    format builds its host here; a bad recipe raises :class:`ValueError`
    naming the offending field.
    """
    try:
        cls = TOPOLOGIES[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"host.name: unknown host topology {name!r}: "
            f"expected one of {sorted(TOPOLOGIES)}"
        ) from None
    try:
        return cls(**args) if isinstance(args, Mapping) else cls(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"host.args: {exc}") from exc


def registry_instances(scale: int = 3) -> dict[str, Topology]:
    """One representative instance per registered topology.

    ``scale`` steers the size class (height/dimension); grids get a
    rectangular shape so row/column asymmetries are exercised.
    """
    return {
        "xtree": XTree(scale),
        "hypercube": Hypercube(scale),
        "complete-binary-tree": CompleteBinaryTreeNet(scale),
        "grid2d": Grid2D(scale, scale + 2),
        "ccc": CubeConnectedCycles(scale),
        "butterfly": Butterfly(scale),
        "shuffle-exchange": ShuffleExchange(scale + 1),
        "debruijn": DeBruijn(scale + 1),
        # t = scale + 4 keeps the sweep instance small (scale 3 -> 112
        # vertices) while still exercising several slot groups
        "universal": UniversalGraph(scale + 4),
    }


__all__ = [
    "Topology",
    "bfs_distance",
    "bfs_distances_from",
    "XAddr",
    "XTree",
    "addr_from_string",
    "addr_to_string",
    "xtree_size",
    "xtree_optimal_height",
    "Hypercube",
    "hamming_distance",
    "CompleteBinaryTreeNet",
    "GuestTreeNet",
    "CubeConnectedCycles",
    "Butterfly",
    "Grid2D",
    "ShuffleExchange",
    "DeBruijn",
    "TOPOLOGIES",
    "build_host",
    "registry_instances",
]
