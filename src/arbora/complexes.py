"""The signed nested complex: faces, f-vectors, links, pseudo-manifold check.

Faces are pairwise-compatible sets of relevant blocks.  Facets are taken
from the flip graph of maximal spines (connected, output-linear) rather
than from a clique search; the clique route stays available in the tests
as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import NotABuildingBlock
from .spines import enumerate_maximal_spines
from .trees import SignedTree


def _face_key(face: frozenset) -> tuple:
    return tuple(sorted((tuple(sorted(b)) for b in face)))


def _facets(tree: SignedTree) -> tuple:
    facets = [s.key() for s in enumerate_maximal_spines(tree)]
    return tuple(sorted(facets, key=_face_key))


def enumerate_nested_sets(tree: SignedTree, max_only: bool = False) -> tuple:
    """All nested sets (or only the maximal ones), canonically ordered."""
    facets = _facets(tree)
    if max_only:
        return facets
    faces = set()
    for facet in facets:
        blocks = sorted(facet, key=lambda b: tuple(sorted(b)))
        n = len(blocks)
        for mask in range(1 << n):
            faces.add(frozenset(blocks[i] for i in range(n) if mask >> i & 1))
    return tuple(sorted(faces, key=lambda f: (len(f), _face_key(f))))


@dataclass(frozen=True)
class ComplexStats:
    f_complex: tuple  # faces by cardinality, starting at the empty face
    incidence_profile: tuple  # sorted facet counts per vertex of the complex


def complex_stats(tree: SignedTree) -> ComplexStats:
    faces = enumerate_nested_sets(tree)
    facets = _facets(tree)
    nu = tree.nu
    f = [0] * nu
    for face in faces:
        f[len(face)] += 1
    incidence = {}
    for facet in facets:
        for block in facet:
            incidence[block] = incidence.get(block, 0) + 1
    return ComplexStats(tuple(f), tuple(sorted(incidence.values())))


def link_faces(tree: SignedTree, block: Iterable) -> tuple:
    """Faces of the link of a relevant block, from the facet list."""
    block = frozenset(block)
    from .blocks import enumerate_blocks

    if block not in set(enumerate_blocks(tree)):
        raise NotABuildingBlock(f"{sorted(block)} is not a relevant block")
    faces = set()
    for facet in _facets(tree):
        if block in facet:
            rest = sorted(facet - {block}, key=lambda b: tuple(sorted(b)))
            n = len(rest)
            for mask in range(1 << n):
                faces.add(frozenset(rest[i] for i in range(n) if mask >> i & 1))
    return tuple(sorted(faces, key=lambda f: (len(f), _face_key(f))))


@dataclass(frozen=True)
class PseudoManifoldCheck:
    ok: bool
    witness: Optional[tuple] = None  # a ridge with its facet count

    def __bool__(self) -> bool:
        return self.ok


def is_pseudomanifold(tree: SignedTree) -> PseudoManifoldCheck:
    """Every ridge of the complex must lie in exactly two facets.

    Meaningful for trees with at least two standard vertices (below that
    the complex has no ridges).
    """
    facets = _facets(tree)
    counts = {}
    for facet in facets:
        for block in facet:
            ridge = facet - {block}
            counts[ridge] = counts.get(ridge, 0) + 1
        if not facet:
            counts[frozenset()] = counts.get(frozenset(), 0)
    for ridge, count in sorted(counts.items(), key=lambda kv: _face_key(kv[0])):
        if count != 2:
            return PseudoManifoldCheck(False, (ridge, count))
    return PseudoManifoldCheck(True)
