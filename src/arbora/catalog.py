"""Canonical test trees and the small-tree corpus.

The named trees here are used throughout the test suite and the scripts;
the corpus generator enumerates every unlabeled tree up to a size bound
together with all sign assignments on a fixed canonical labeling.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .trees import SignedTree, build_tree


def tripod_neg() -> SignedTree:
    return build_tree([(1, "-"), (2, "-"), (3, "-"), (4, "-")], [(2, 1), (2, 3), (2, 4)])


def tripod_pos() -> SignedTree:
    return build_tree([(1, "-"), (2, "+"), (3, "-"), (4, "-")], [(2, 1), (2, 3), (2, 4)])


def path_neg(n: int) -> SignedTree:
    return build_tree(
        [(i, "-") for i in range(1, n + 1)],
        [(i, i + 1) for i in range(1, n)],
    )


def p3mix() -> SignedTree:
    return build_tree([(1, "-"), (2, "+"), (3, "-")], [(1, 2), (2, 3)])


def path4_neg() -> SignedTree:
    return path_neg(4)


HTREE_EDGES = [(3, 4), (3, 1), (3, 2), (4, 5), (4, 6)]


def htree_eq() -> SignedTree:
    return build_tree([(i, "-") for i in range(1, 7)], HTREE_EDGES)


def htree_diff() -> SignedTree:
    signs = {4: "+"}
    return build_tree([(i, signs.get(i, "-")) for i in range(1, 7)], HTREE_EDGES)


def spider7() -> SignedTree:
    # the tripod with every edge subdivided once: leaves 1, 3, 4, center 2
    edges = [(2, 5), (5, 1), (2, 6), (6, 3), (2, 7), (7, 4)]
    return build_tree([(i, "-") for i in range(1, 8)], edges)


NAMED_TREES = {
    "tripod_neg": tripod_neg,
    "tripod_pos": tripod_pos,
    "p3mix": p3mix,
    "path4_neg": path4_neg,
    "htree_eq": htree_eq,
    "htree_diff": htree_diff,
    "spider7": spider7,
}


@lru_cache
def tree_shapes(n: int) -> tuple:
    """Edge sets of all unlabeled trees on n vertices (one labeling each)."""
    if n == 1:
        return ((),)
    import heapq

    shapes = {}
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        edges = []
        leaves = [i for i in range(n) if degree[i] == 1]
        heapq.heapify(leaves)
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf + 1, x + 1))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        edges.append((u + 1, v + 1))
        edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        shapes.setdefault(_shape_code(n, edges), edges)
    return tuple(shapes[code] for code in sorted(shapes))


def _shape_code(n: int, edges: tuple) -> str:
    """Canonical code of an unlabeled tree, rooted at its centroid."""
    adjacency = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    def subtree_code(root, parent):
        children = sorted(
            subtree_code(c, root) for c in adjacency[root] if c != parent
        )
        return "(" + "".join(children) + ")"

    def component_size(root, parent):
        return 1 + sum(component_size(c, root) for c in adjacency[root] if c != parent)

    centroids = []
    for v in range(1, n + 1):
        heaviest = max(
            (component_size(c, v) for c in adjacency[v]), default=0
        )
        if heaviest <= n // 2:
            centroids.append(v)
    return min(subtree_code(c, None) for c in centroids)


def all_signatures(edges: tuple, n: int):
    """Every sign assignment on the vertices 1..n of the given edge set."""
    for bits in product("-+", repeat=n):
        yield build_tree([(i + 1, bits[i]) for i in range(n)], edges)


def corpus(max_nu: int = 6, include_named: bool = True):
    """All signed trees with nu <= max_nu, plus the named trees."""
    for n in range(1, max_nu + 1):
        for edges in tree_shapes(n):
            yield from all_signatures(edges, n)
    if include_named:
        for factory in NAMED_TREES.values():
            yield factory()
