"""The signed nested complex: faces, f-vectors, links, pseudo-manifold check.

Faces are pairwise-compatible sets of relevant blocks.  Facets are taken
from the flip graph of maximal spines (connected, output-linear) rather
than from a clique search, as the source masks of its mask arcs; the
clique route stays available in the tests as an independent oracle.
Internally a face is an `int` mask over the relevant blocks and the faces
of a facet are its submasks; frozensets are built only for the faces
returned, in canonical order: by the sorted tuple of their blocks' sorted
members.  The f-vector counts the faces without holding them, as the
cliques of the graph of blocks that share a facet.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from .blocks import _mask, enumerate_blocks
from .errors import NotABuildingBlock
from .spines import flip_graph
from .trees import Record, SignedTree, tree_cached


@tree_cached
def _numbered_facets(tree: SignedTree) -> tuple:
    """The relevant blocks, numbered by sorted members, and the facets as masks.

    Ascending bit indices (`_indices`) then sort faces in canonical order.
    Built once per tree: `complex` reads both the f-vector and the facets.
    """
    blocks = tuple(sorted(enumerate_blocks(tree), key=sorted))
    bit = {_mask(tree, block): 1 << i for i, block in enumerate(blocks)}
    return blocks, tuple(sum(bit[m] for _, _, m in arcs) for arcs in flip_graph(tree).arcs)


def _indices(mask: int) -> tuple:
    """The set bits of a mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _faces(facets: Iterable) -> set:
    """Every submask of every facet, by the walk `sub = (sub - 1) & facet`."""
    faces = {0}
    for facet in facets:
        sub = facet
        while sub:
            faces.add(sub)
            sub = (sub - 1) & facet
    return faces


def _canonical(masks: Iterable) -> list:
    """The set bits of each mask, the masks ordered by size and then canonically."""
    return [indices for _, indices in sorted((m.bit_count(), _indices(m)) for m in masks)]


def _as_faces(blocks: tuple, masks: Iterable) -> tuple:
    """The masks as faces of blocks, ordered by size and then canonically."""
    return tuple(frozenset(blocks[i] for i in indices) for indices in _canonical(masks))


def enumerate_nested_sets(tree: SignedTree, max_only: bool = False) -> tuple:
    """All nested sets (or only the maximal ones), canonically ordered."""
    blocks, facets = _numbered_facets(tree)
    return _as_faces(blocks, facets if max_only else _faces(facets))


class ComplexStats(Record):
    f_complex: tuple  # faces by cardinality, starting at the empty face
    incidence_profile: tuple  # sorted facet counts per vertex of the complex


def complex_stats(tree: SignedTree) -> ComplexStats:
    """The f-vector and the number of facets through each block.

    The nested complex is the clique complex of compatibility, and two
    blocks are compatible exactly when they share a facet, so its faces are
    the cliques of the graph "two blocks share a facet".  They are counted,
    not held: a walk on an explicit stack extends each clique only by its
    common neighbours of higher number, so it meets every face once.
    """
    blocks, facets = _numbered_facets(tree)
    neighbours = [0] * len(blocks)  # per block, the blocks that share a facet with it
    through = [0] * len(blocks)  # per block, the facets through it
    for facet in facets:
        rest = facet
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            neighbours[i] |= facet
            through[i] += 1
            rest ^= low
    f = [1] + [0] * len(blocks)  # faces by size: at least nu entries
    stack = [(1, neighbours[i] >> i + 1 << i + 1) for i in range(len(blocks))]
    while stack:  # (clique size, its common neighbours above its highest block)
        size, higher = stack.pop()
        f[size] += 1
        while higher:
            low = higher & -higher
            higher ^= low
            stack.append((size + 1, higher & neighbours[low.bit_length() - 1]))
    return ComplexStats(tuple(f[: tree.nu]), tuple(sorted(n for n in through if n)))


def link_faces(tree: SignedTree, block: Iterable) -> tuple:
    """Faces of the link of a relevant block.

    They are the submasks of the facets through the block, with it removed.
    """
    block = frozenset(block)
    if block not in enumerate_blocks(tree):
        raise NotABuildingBlock(f"{sorted(block)} is not a relevant block")
    blocks, facets = _numbered_facets(tree)
    bit = 1 << blocks.index(block)
    return _as_faces(blocks, _faces(f ^ bit for f in facets if f & bit))


class PseudoManifoldCheck(Record):
    ok: bool
    witness: Optional[tuple] = None  # a ridge with its facet count

    def __bool__(self) -> bool:
        return self.ok


def is_pseudomanifold(tree: SignedTree) -> PseudoManifoldCheck:
    """Every ridge of the complex must lie in exactly two facets.

    Meaningful for trees with at least two standard vertices (below that
    the complex has no ridges).
    """
    blocks, facets = _numbered_facets(tree)
    counts = Counter(f ^ 1 << i for f in facets for i in _indices(f))
    # the one facet of a one-vertex tree is empty: report the empty face, in no facet
    for ridge in sorted(counts or [0], key=_indices):
        if counts[ridge] != 2:
            face = _as_faces(blocks, [ridge])[0]
            return PseudoManifoldCheck(False, (face, counts[ridge]))
    return PseudoManifoldCheck(True)
