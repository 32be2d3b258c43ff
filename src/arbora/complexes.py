"""The signed nested complex: faces, f-vectors, links, pseudo-manifold check.

Faces are pairwise-compatible sets of relevant blocks.  Facets are taken
from the flip graph of maximal spines (connected, output-linear) rather
than from a clique search, as the source masks of its mask arcs; the
clique route stays available in the tests as an independent oracle.
Internally a face is an `int` mask over the relevant blocks and the faces
of a facet are its submasks; frozensets are built only for the faces
returned, in canonical order: by the sorted tuple of their blocks' sorted
members.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from .blocks import _mask, enumerate_blocks
from .errors import NotABuildingBlock
from .spines import flip_graph
from .trees import Record, SignedTree


def _numbered_facets(tree: SignedTree) -> tuple:
    """The relevant blocks, numbered by sorted members, and the facets as masks.

    Ascending bit indices (`_indices`) then sort faces in canonical order.
    """
    blocks = tuple(sorted(enumerate_blocks(tree), key=sorted))
    bit = {_mask(tree, block): 1 << i for i, block in enumerate(blocks)}
    return blocks, [sum(bit[m] for *_, m in arcs) for arcs in flip_graph(tree).arcs]


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


def _as_faces(blocks: tuple, masks: Iterable) -> tuple:
    """The masks as faces of blocks, ordered by size and then canonically."""
    keyed = sorted((m.bit_count(), _indices(m)) for m in masks)
    return tuple(frozenset(blocks[i] for i in indices) for _, indices in keyed)


def enumerate_nested_sets(tree: SignedTree, max_only: bool = False) -> tuple:
    """All nested sets (or only the maximal ones), canonically ordered."""
    blocks, facets = _numbered_facets(tree)
    return _as_faces(blocks, facets if max_only else _faces(facets))


class ComplexStats(Record):
    f_complex: tuple  # faces by cardinality, starting at the empty face
    incidence_profile: tuple  # sorted facet counts per vertex of the complex


def complex_stats(tree: SignedTree) -> ComplexStats:
    """The f-vector and the number of facets through each block.

    The f-vector is the popcount histogram of the submasks of the facets.
    """
    _, facets = _numbered_facets(tree)
    f = Counter(face.bit_count() for face in _faces(facets))
    incidence = Counter(i for facet in facets for i in _indices(facet))
    return ComplexStats(
        tuple(f[k] for k in range(tree.nu)), tuple(sorted(incidence.values()))
    )


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
