"""Building blocks, signed tubes, open subtrees, and their compatibility.

A building block is a set of standard vertices that is negative convex and
whose complement is positive convex.  Blocks are the canonical currency of
the whole toolkit; tubes and open subtrees are derived views connected by
the usual bijections (tube -> interior, tube -> block, block -> tube).
Convexity is one test on the separation table of the tree
(`SignedTree.path_masks`): a set is convex when no deleted vertex outside it
lies inside the smallest subtree spanning it, the union of the paths from
one member (`_span`).
"""

from __future__ import annotations

from array import array
from enum import Enum
from typing import Iterable, Optional

from .errors import (
    InvalidTube,
    IrrelevantBlock,
    NotABuildingBlock,
    UnknownEdge,
    UnknownVertex,
)
from .trees import Record, SignedTree, build_tree, canonical_edge, subset_key, tree_cached


class BlockCheck(Record):
    ok: bool
    failed: Optional[str] = None  # "negative" or "positive" convexity

    def __bool__(self) -> bool:
        return self.ok


def _mask(tree: SignedTree, vertices) -> int:
    """The bit mask of the standard vertices among `vertices`."""
    index, mask = tree.standard_index, 0
    for v in vertices:
        if v in index:
            mask |= 1 << index[v]
    return mask


def _span(tree: SignedTree, mask: int) -> int:
    """The standard vertices inside the paths from the highest member of `mask`.

    Those paths make up the smallest subtree spanning `mask`, so a vertex
    outside `mask` lies between two of its members exactly when it is here.
    """
    if not mask:
        return 0
    row, span = tree.path_masks[mask.bit_length() - 1], 0
    while mask:
        low = mask & -mask
        span |= row[low.bit_length() - 1]
        mask ^= low
    return span


def is_building_block(tree: SignedTree, subset: Iterable) -> BlockCheck:
    """Check negative convexity of `subset` and positive convexity of its complement."""
    members = frozenset(subset)
    unknown = members - tree.standard_set
    if unknown:
        raise UnknownVertex(f"not standard vertices: {sorted(unknown)}")
    mask = _mask(tree, members)
    if _span(tree, mask) & tree.negative_mask & ~mask:
        return BlockCheck(False, "negative")
    complement = ((1 << tree.nu) - 1) ^ mask
    if _span(tree, complement) & tree.positive_mask & mask:
        return BlockCheck(False, "positive")
    return BlockCheck(True)


def is_relevant(tree: SignedTree, block: frozenset) -> bool:
    return bool(block) and block != tree.standard_set


@tree_cached
def enumerate_blocks(tree: SignedTree) -> tuple:
    """All relevant building blocks, by subset filtering, in canonical order.

    Canonical order is by cardinality then sorted members.  Every proper
    nonempty subset is walked as a bit mask and tested on its span (see
    `_span`).  The spans of all masks come in one pass, one bit operation
    each: those with highest bit t by doubling, adding each bit k < t with
    its path mask from t.  Intended for nu <= 20.
    """
    standard, paths = tree.standard, tree.path_masks
    full = (1 << len(standard)) - 1
    negative, positive = tree.negative_mask, tree.positive_mask
    span = array("Q", [0])  # span[mask] as `_span` gives it: 8 bytes, not ~36 in a list
    for t, row in enumerate(paths):
        spans = array("Q", [0])  # span[2^t | m], m doubling its range per bit
        for inside in row[:t]:
            spans += array("Q", map(inside.__or__, spans))
        span += spans
    found = [
        frozenset(v for i, v in enumerate(standard) if mask >> i & 1)
        for mask in range(1, full)
        if not (span[mask] & negative & ~mask or span[full ^ mask] & positive & mask)
    ]
    return tuple(sorted(found, key=subset_key))


class OpenSubtree(Record):
    """A connected piece left after deleting vertices, or a fully deleted edge.

    When the interior is empty the piece is an open edge and the boundary
    holds its two endpoints; otherwise the boundary is the set of deleted
    vertices adjacent to the interior.
    """

    interior: frozenset
    boundary: frozenset

    def key(self) -> tuple:
        return (subset_key(self.interior), subset_key(self.boundary))


class SignedTube(Record):
    w_minus: frozenset
    w_plus: frozenset


def open_components(tree: SignedTree, deleted: Iterable) -> tuple:
    """Open subtrees of the tree minus a vertex set.

    One piece per connected component of the vertex-deleted graph, plus one
    empty piece per edge with both endpoints deleted.  This is the component
    notion under which blossom counts and proper cuts balance exactly.
    """
    deleted = frozenset(deleted)
    pieces = []
    for comp in tree.components(deleted):
        boundary = frozenset(
            n for v in comp for n in tree.adjacency[v] if n in deleted
        )
        pieces.append(OpenSubtree(comp, boundary))
    for u, v in tree.edges:
        if u in deleted and v in deleted:
            pieces.append(OpenSubtree(frozenset(), frozenset((u, v))))
    return tuple(sorted(pieces, key=OpenSubtree.key))


def _check_relevant_block(tree: SignedTree, block: Iterable) -> frozenset:
    block = frozenset(block)
    check = is_building_block(tree, block)
    if not check:
        raise NotABuildingBlock(f"{sorted(block)}: {check.failed} convexity fails")
    if not is_relevant(tree, block):
        raise IrrelevantBlock(f"{sorted(block)} is an irrelevant block")
    return block


def tube_of_block(tree: SignedTree, block: Iterable) -> SignedTube:
    """The signed tube of a relevant block.

    W- is the component of the tree minus (negatives outside the block)
    containing the block; W+ the component of the tree minus (positives
    inside the block) containing the complement.
    """
    block = _check_relevant_block(tree, block)
    complement = tree.standard_set - block
    neg_out = tree.negatives - block
    pos_in = tree.positives & block
    w_minus = tree.component_containing(neg_out, min(block))
    w_plus = tree.component_containing(pos_in, min(complement))
    return SignedTube(w_minus, w_plus)


def validate_tube(tree: SignedTree, tube: SignedTube) -> None:
    for part, name in ((tube.w_minus, "W-"), (tube.w_plus, "W+")):
        if not part:
            raise InvalidTube(f"{name} must be nonempty")
        start = min(part)
        if part != tree.component_containing(frozenset(tree.vertices) - part, start):
            raise InvalidTube(f"{name} does not induce a connected subgraph")
    if tube.w_minus | tube.w_plus != frozenset(tree.vertices):
        raise InvalidTube("the two open subtrees must cover the tree")
    if not _outer_boundary(tree, tube.w_minus) <= (tree.negatives & tube.w_plus):
        raise InvalidTube("boundary of W- must consist of negative vertices of W+")
    if not _outer_boundary(tree, tube.w_plus) <= (tree.positives & tube.w_minus):
        raise InvalidTube("boundary of W+ must consist of positive vertices of W-")


def block_of_tube(tree: SignedTree, tube: SignedTube) -> frozenset:
    """(negatives inside W-) together with (positives outside W+)."""
    validate_tube(tree, tube)
    return (tree.negatives & tube.w_minus) | (tree.positives - tube.w_plus)


def subtree_of_tube(tree: SignedTree, tube: SignedTube) -> OpenSubtree:
    """Interior = W- meet W+; boundary = the two outer boundaries joined."""
    validate_tube(tree, tube)
    boundary = _outer_boundary(tree, tube.w_minus) | _outer_boundary(tree, tube.w_plus)
    return OpenSubtree(tube.w_minus & tube.w_plus, boundary)


def _outer_boundary(tree: SignedTree, part: frozenset) -> frozenset:
    """The vertices outside `part` adjacent to it."""
    return frozenset(n for v in part for n in tree.adjacency[v] if n not in part)


class Compatibility(Enum):
    NEG_NESTED = "neg_nested"
    POS_NESTED = "pos_nested"
    NEG_DISJOINT = "neg_disjoint"
    POS_DISJOINT = "pos_disjoint"
    INCOMPATIBLE = "incompatible"


def compatibility(tree: SignedTree, block_a: Iterable, block_b: Iterable) -> Compatibility:
    """Classify an unordered pair of distinct relevant blocks.

    Nested when one contains the other; negative disjoint when they are
    disjoint with a non-block union; positive disjoint when they cover the
    ground set with a non-block intersection; incompatible otherwise.
    """
    a = _check_relevant_block(tree, block_a)
    b = _check_relevant_block(tree, block_b)
    if a == b:
        raise NotABuildingBlock("compatibility needs two distinct blocks")
    if a <= b:
        return Compatibility.NEG_NESTED
    if a >= b:
        return Compatibility.POS_NESTED
    # the empty set and the ground set are always blocks
    if not (a & b) and not is_building_block(tree, a | b):
        return Compatibility.NEG_DISJOINT
    if (a | b) == tree.standard_set and not is_building_block(tree, a & b):
        return Compatibility.POS_DISJOINT
    return Compatibility.INCOMPATIBLE


def compatible(tree: SignedTree, block_a: Iterable, block_b: Iterable) -> bool:
    return compatibility(tree, block_a, block_b) is not Compatibility.INCOMPATIBLE


def edge_blocks(tree: SignedTree, edge: tuple) -> tuple:
    """The two complementary blocks cut out by a tree edge."""
    u, v = edge
    if not tree.has_edge(u, v):
        raise UnknownEdge(f"no edge {u!r}-{v!r}")
    side_u = tree.component_containing(frozenset((v,)), u) - {v}
    block_u = side_u & tree.standard_set
    block_v = tree.standard_set - block_u
    pair = sorted((block_u, block_v), key=subset_key)
    return (pair[0], pair[1])


def reconstruct_tree(vertex_ids: Iterable, blocks: Iterable) -> SignedTree:
    """Rebuild a signed tree (up to leaf signs) from its relevant blocks.

    Complementary block pairs give the edge cuts, hence the unsigned tree;
    internal vertices are negative when their singleton is a block and
    positive when their co-singleton is.  Leaves default to negative.
    """
    ids = sorted(set(vertex_ids))
    blocks = set(frozenset(b) for b in blocks)
    full = frozenset(ids)
    cuts = []
    seen = set()
    for b in blocks:
        if full - b in blocks and b not in seen:
            seen.add(b)
            seen.add(full - b)
            cuts.append(min(b, full - b, key=subset_key))
    tree_edges = _assemble_edges(ids, cuts)
    temp = build_tree([(v, "-") for v in ids], tree_edges)
    positive = {  # internal, with the co-singleton a block and the singleton not
        v
        for v in ids
        if temp.degree(v) != 1 and frozenset((v,)) not in blocks and full - {v} in blocks
    }
    return build_tree([(v, "+" if v in positive else "-") for v in ids], tree_edges)


def _assemble_edges(ids, cuts) -> list:
    """Recover the tree edges from the family of one-sided edge cuts.

    The endpoints of the edge behind a given cut are the unique pair
    (u, v) straddling it that no other cut separates.
    """
    full = frozenset(ids)
    if len(ids) == 1:
        return []
    edges = []
    for side in cuts:
        other = full - side
        for u in sorted(side):
            for v in sorted(other):
                if all((u in c) == (v in c) for c in cuts if c != side):
                    edges.append(canonical_edge(u, v))
                    break
            else:
                continue
            break
    return edges
