"""Exact coordinates and certificates for the three nested polytopes.

The permutahedron sits inside the signed tree associahedron, which sits
inside the parallelepiped spanned by its parallel facets.  Vertices of the
middle polytope are integer points counting paths in maximal spines, read
off the sizes of the flip graph's source masks (`_point`); facets are the
half-spaces of the building blocks, tight at a vertex when the block is
one of its source masks.  The certificate reads each block's value from a
table of the vertex's subset sums, indexed by mask.  Everything here is
exact: integers for coordinates and right-hand sides, rationals for
barycenters.  The parallelepiped functions need every vertex signed, so
they refuse a phantom tree.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterable, Optional

from .blocks import _mask, _span, enumerate_blocks
from .errors import NotMaximal, RecursionMismatch, failure_summary
from .spines import Spine, _checked_arcs, _maximal_spine, _singleton_labels, flip_graph
from .trees import (
    Record,
    SignedTree,
    boundary_walk,
    check_bound,
    check_standard,
    signed_isomorphism,
    subset_key,
)


def perm_point(order: Iterable) -> dict:
    """The permutahedron vertex of a linear order: position by vertex."""
    order = tuple(order)
    return {v: i + 1 for i, v in enumerate(order)}


def vertex_point(tree: SignedTree, spine: Spine) -> dict:
    """Integer coordinates of the polytope vertex of a maximal spine.

    A negative vertex counts the simple spine paths through it that avoid
    its outgoing arc (trivial path included); a positive vertex takes the
    co-count nu + 1 - (same count with its incoming arc).  Computed by the
    branch-size formula 1 + sum + sum of pairwise products, the branches
    being the source masks of the incoming arcs of a negative vertex and
    the sink masks of the outgoing arcs of a positive one.
    """
    if not spine.is_maximal:
        raise NotMaximal("vertex coordinates need a maximal spine")
    return _point(tree, _checked_arcs(tree, spine))


def _point(tree: SignedTree, arcs: tuple) -> dict:
    """`vertex_point` on the checked index arcs of a spine, keyed in standard-index order."""
    nu, negatives, positives = tree.nu, tree.negative_mask, tree.positive_mask
    branches = [[] for _ in range(nu)]
    for tail, head, mask in arcs:
        if negatives >> head & 1:
            branches[head].append(mask.bit_count())
        if positives >> tail & 1:
            branches[tail].append(nu - mask.bit_count())
    coords = {}
    for i, (v, sizes) in enumerate(zip(tree.standard, branches)):
        pairs = sum(a * b for k, a in enumerate(sizes) for b in sizes[:k])
        count = 1 + sum(sizes) + pairs
        coords[v] = count if negatives >> i & 1 else nu + 1 - count
    return coords


class HalfSpace(Record):
    support: frozenset
    rhs: int  # sense: sum over support >= rhs


class RealizationCertificate(Record):
    passed: bool
    witness: Optional[tuple] = None  # the first failure, (kind, witness)
    failures: tuple = ()  # (kind, count, first witness) per failure kind, by kind

    def __bool__(self) -> bool:
        return self.passed


MAX_NU = 10  # bound of realize_polytope and barycenter, which build every maximal spine


class PolytopeDescription(Record):
    vertices: tuple  # (spine, coords dict) pairs
    facets: tuple  # (block, HalfSpace) pairs
    certificate: RealizationCertificate


def realize_polytope(tree: SignedTree, max_nu: int = MAX_NU) -> PolytopeDescription:
    """Vertex and facet descriptions with a verification certificate."""
    points, facets, certificate = _realization(tree, max_nu)
    return PolytopeDescription(tuple(zip(flip_graph(tree).spines, points)), facets, certificate)


def _realization(tree: SignedTree, max_nu: int) -> tuple:
    """`realize_polytope` without building a `Spine`: (points, facets, certificate).

    The points are those of the flip graph's spines, in its order.
    """
    check_bound(tree, max_nu)
    points = [_point(tree, arcs) for arcs in flip_graph(tree).arcs]
    facets = tuple(
        (block, HalfSpace(block, comb(len(block) + 1, 2)))
        for block in enumerate_blocks(tree)
    )
    return points, facets, _certify(tree, points)


def verify_realization(tree: SignedTree) -> RealizationCertificate:
    """Certify the vertex/facet pairing of the realization.

    For every maximal spine: the coordinate sum is the full binomial, the
    blocks of its nested set meet their half-spaces with equality, all
    other relevant blocks strictly, and each flip moves the vertex by a
    positive integer multiple of e_u - e_v.  A failed certificate keeps its
    first failure as `witness` and every failure kind, sorted by name, with
    its count and first witness as `failures`.
    """
    return _certify(tree, [_point(tree, arcs) for arcs in flip_graph(tree).arcs])


def _certify(tree: SignedTree, points: list) -> RealizationCertificate:
    """`verify_realization` on the points of the flip graph's spines, in order."""
    nu, standard = tree.nu, tree.standard
    blocks = [(b, _mask(tree, b), comb(len(b) + 1, 2)) for b in enumerate_blocks(tree)]
    graph = flip_graph(tree)
    coords = [[point[v] for v in standard] for point in points]
    failures = []
    for i, (arcs, point, targets) in enumerate(zip(graph.arcs, coords, graph.neighbors)):
        if sum(point) != comb(nu + 1, 2):
            failures.append(("total", graph.spines[i].key()))
        sums = [0]  # sums[mask]: the coordinate sum over a mask, by doubling
        for value in point:
            sums += [total + value for total in sums]
        nested = {mask for *_, mask in arcs}  # tight blocks: the source masks
        for block, mask, bound in blocks:
            if mask in nested:
                if sums[mask] != bound:
                    failures.append(("tight", sorted(block)))
            elif sums[mask] <= bound:
                failures.append(("strict", sorted(block)))
        for (u, v, _), j in zip(arcs, targets):
            delta = [b - a for a, b in zip(point, coords[j])]
            lam = delta[u]
            if lam <= 0 or delta[v] != -lam:
                failures.append(("flip", (standard[u], standard[v])))
            elif len(delta) - delta.count(0) > 2:  # moves off u and v too
                failures.append(("flip-support", (standard[u], standard[v])))
    if failures:
        return RealizationCertificate(False, failures[0], failure_summary(failures))
    return RealizationCertificate(True)


def parallel_facets(tree: SignedTree) -> tuple:
    """The edge cuts, as complementary block pairs (the only parallel pairs)."""
    from .blocks import edge_blocks

    check_standard(tree, "the bounding parallelepiped")
    pairs = [edge_blocks(tree, edge) for edge in tree.edges]
    return tuple(sorted(pairs, key=lambda p: tuple(sorted(p[0]))))


class ParaSummands(Record):
    edge_weights: tuple  # (edge, weight) pairs
    z: tuple  # (subset, Fraction) pairs over nonempty subsets
    y: tuple  # (subset, Fraction) pairs, nonzero entries only


def para_summands(tree: SignedTree, max_nu: int = 12) -> ParaSummands:
    """Edge weights and the deformation data of the bounding parallelepiped.

    The weight of an edge is the number of tree paths through it, i.e. the
    product of the sizes of the two components it separates.
    """
    from fractions import Fraction

    check_standard(tree, "the bounding parallelepiped")
    check_bound(tree, max_nu)
    nu = tree.nu
    weights = {}
    for edge in tree.edges:
        side = tree.component_containing(frozenset({edge[1]}), edge[0])
        weights[edge] = len(side) * (len(tree.vertices) - len(side))
    from itertools import combinations

    z = []
    vertices = sorted(tree.standard)
    for r in range(1, nu + 1):
        for combo in combinations(vertices, r):
            subset = frozenset(combo)
            crossing = sum(
                Fraction(w, 2)
                for (a, b), w in weights.items()
                if (a in subset) != (b in subset)
            )
            z.append((subset, Fraction(len(subset) * (nu + 1), 2) - crossing))
    y = []
    for v in vertices:
        incident = sum(Fraction(w, 2) for e, w in weights.items() if v in e)
        value = Fraction(nu + 1, 2) - incident
        if value:
            y.append((frozenset({v}), value))
    for edge, weight in sorted(weights.items()):
        y.append((frozenset(edge), Fraction(weight)))
    return ParaSummands(
        tuple(sorted(weights.items())),
        tuple(sorted(z, key=lambda kv: subset_key(kv[0]))),
        tuple(sorted(y, key=lambda kv: subset_key(kv[0]))),
    )


def common_vertices_para(tree: SignedTree) -> tuple:
    """Orientations of the tree that are spines: the vertices shared with Para.

    An orientation qualifies when negative vertices have out-degree at most
    one and positive vertices in-degree at most one.
    """
    check_standard(tree, "the bounding parallelepiped")
    edges, labels = tree.edges, {v: frozenset({v}) for v in tree.vertices}
    results = []
    for mask in range(1 << len(edges)):
        arcs = [(u, v) if mask >> i & 1 else (v, u) for i, (u, v) in enumerate(edges)]
        outdeg, indeg = Counter(t for t, _ in arcs), Counter(h for _, h in arcs)
        if any(outdeg[v] > 1 for v in tree.negatives) or any(
            indeg[v] > 1 for v in tree.positives
        ):
            continue
        labelled = [(labels[t], labels[h]) for t, h in arcs]
        results.append(Spine.make(labels.values(), labelled))
    return tuple(sorted(results, key=lambda s: sorted(map(sorted, s.key()))))


def _directed_path(nu: int, arcs: tuple) -> Optional[list]:
    """The indices of a directed-path spine, walked from its one non-head, else None."""
    successor = {t: h for t, h, _ in arcs}
    heads = set(successor.values())
    if len(successor) < len(arcs) or len(heads) < len(arcs):  # not a directed path
        return None
    path = [next(i for i in range(nu) if i not in heads)]
    while path[-1] in successor:
        path.append(successor[path[-1]])
    return path


def singleton_spines(tree: SignedTree) -> tuple:
    """Maximal spines that are directed paths, with their unique extensions.

    A directed path has one linear extension, the path itself
    (`_directed_path`).  Only the spines returned are built.
    """
    labels = _singleton_labels(tree.standard)
    return tuple((_maximal_spine(labels, arcs), order) for order, arcs in singleton_orders(tree))


def singleton_orders(tree: SignedTree) -> list:
    """The (order, index arcs) pairs of the directed-path spines, sorted by order.

    `singleton_spines` without building a `Spine`.
    """
    standard, found = tree.standard, []
    for arcs in flip_graph(tree).arcs:
        path = _directed_path(tree.nu, arcs)
        if path is not None:
            found.append((tuple(standard[i] for i in path), arcs))
    return sorted(found, key=lambda pair: pair[0])


def singleton_count_recursive(tree: SignedTree) -> int:
    """Count the directed-path spines by the rooted boundary-walk recursion.

    A root vertex contributes the count rooted at each of its boundary
    neighbors with the old root phantomized (`_rooted`).  The result is
    checked against the directed paths among the flip graph's index arcs.
    """
    memo = {}
    total = sum(_rooted(tree, 0, root, memo) for root in range(tree.nu))
    direct = sum(_directed_path(tree.nu, arcs) is not None for arcs in flip_graph(tree).arcs)
    if total != direct:
        raise RecursionMismatch(
            f"recursion gives {total}, direct enumeration {direct}"
        )
    return total


def _rooted(tree: SignedTree, gone: int, root: int, memo: dict) -> int:
    """The count rooted at index `root` with the vertices of the mask `gone` phantomized.

    A positive root between two remaining standard vertices counts 0.  The
    memo is a dict of one count: a cache on a closure would refer to itself
    and keep the tree and its memo alive until the next garbage collection.
    """
    key = (gone, root)
    if key not in memo:
        rest = ((1 << tree.nu) - 1) & ~(gone | 1 << root)
        if tree.positive_mask >> root & 1 and _span(tree, rest) >> root & 1:
            memo[key] = 0
        elif not rest:
            memo[key] = 1
        else:
            reached, gone = boundary_walk(tree, gone, root), gone | 1 << root
            memo[key] = sum(
                _rooted(tree, gone, i, memo) for i in range(tree.nu) if reached >> i & 1
            )
    return memo[key]


def barycenter(tree: SignedTree) -> dict:
    """Exact vertex barycenter of the realization, under the polytope's bound."""
    from fractions import Fraction

    check_bound(tree, MAX_NU)
    spine_arcs = flip_graph(tree).arcs
    totals = {v: Fraction(0) for v in tree.standard}
    for arcs in spine_arcs:
        for v, value in _point(tree, arcs).items():
            totals[v] += value
    return {v: total / len(spine_arcs) for v, total in totals.items()}


def isometric(tree_a: SignedTree, tree_b: SignedTree) -> bool:
    """Isometry of the two realizations: (anti-)isomorphic up to leaf signs."""
    return (
        signed_isomorphism(tree_a, tree_b, "up_to_leaf_signs") is not None
        or signed_isomorphism(tree_a, tree_b, "anti_up_to_leaf_signs") is not None
    )
