"""Seeded benchmark inputs: random signed trees, the small-tree corpus, named trees.

Nothing here imports arbora: the workloads are defined by this file alone, so
a change to `arbora.catalog` cannot change what the benchmark measures.  Every
tree is a document in arbora's tree-file format with integer ids 1..n and no
phantom vertices.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from itertools import product

DEFAULT_SEED = 1309
# Kept out of tuning: later claims are checked on this seed as well.
HELD_OUT_SEED = 5222


def dumps(doc) -> str:
    """Canonical JSON text, the form written to tree files and hashed."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def tree_doc(edges, signs: str) -> dict:
    return {
        "vertices": [{"id": i + 1, "sign": s} for i, s in enumerate(signs)],
        "edges": [list(e) for e in sorted(edges)],
    }


def relabel(doc: dict, new_ids) -> dict:
    """The same tree with id i replaced by new_ids[i - 1].

    With `new_ids` increasing the order of the ids is kept, so arbora does the
    same work on the copy; the copy is a different cache key, so that work is
    not skipped.
    """
    return {
        "vertices": [dict(v, id=new_ids[v["id"] - 1]) for v in doc["vertices"]],
        "edges": [[new_ids[u - 1], new_ids[v - 1]] for u, v in doc["edges"]],
    }


def prufer_edges(sequence, n: int) -> list:
    """Decode a Pruefer sequence over 0..n-1 into the edges of a tree on 1..n."""
    if n == 1:
        return []
    degree = [1] * n
    for x in sequence:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x) + 1, max(leaf, x) + 1))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u + 1, v + 1))
    return sorted(edges)


def random_tree(rng: random.Random, n: int) -> dict:
    """A uniformly random labelled shape (random Pruefer code), random signs."""
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    signs = "".join(rng.choice("-+") for _ in range(n))
    return tree_doc(prufer_edges(sequence, n), signs)


def shape_quotas(n: int, size: int) -> list:
    """(shape edges, count) for a pool of `size` trees on n vertices.

    Counts follow the share of labelled trees with each shape, which is what
    random Pruefer codes draw from, rounded by largest remainder; feasible for
    small n only (it walks all n^(n-2) codes).
    """
    weight = {}
    for sequence in product(range(n), repeat=n - 2):
        code = _shape_code(n, prufer_edges(sequence, n))
        weight[code] = weight.get(code, 0) + 1
    total = sum(weight.values())
    shares = [(edges, weight[_shape_code(n, edges)] * size / total) for edges in shapes(n)]
    counts = [int(share) for _, share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: int(shares[i][1]) - shares[i][1])
    for i in by_remainder[: size - sum(counts)]:
        counts[i] += 1
    return [(edges, count) for (edges, _), count in zip(shares, counts)]


def random_labelling(rng: random.Random, edges, n: int) -> dict:
    """The given shape under a random labelling, with random signs."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    relabelled = [tuple(sorted((ids[u - 1], ids[v - 1]))) for u, v in edges]
    return tree_doc(relabelled, "".join(rng.choice("-+") for _ in range(n)))


def flip_signs(doc: dict) -> dict:
    """The same shape with every sign reversed."""
    flipped = [dict(v, sign="+" if v["sign"] == "-" else "-") for v in doc["vertices"]]
    return {"vertices": flipped, "edges": doc["edges"]}


def _shape_code(n: int, edges) -> str:
    """Canonical code of an unlabelled tree: AHU code rooted at a centroid."""
    adjacency = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    def size(root, parent):
        return 1 + sum(size(c, root) for c in adjacency[root] if c != parent)

    def code(root, parent):
        return "(" + "".join(sorted(code(c, root) for c in adjacency[root] if c != parent)) + ")"

    centroids = [
        v
        for v in adjacency
        if max((size(c, v) for c in adjacency[v]), default=0) <= n // 2
    ]
    return min(code(c, None) for c in centroids)


def shapes(n: int) -> list:
    """One labelling of every unlabelled tree on n vertices, by canonical code."""
    if n == 1:
        return [[]]
    found = {}
    for sequence in product(range(n), repeat=n - 2):
        edges = prufer_edges(sequence, n)
        found.setdefault(_shape_code(n, edges), edges)
    return [found[c] for c in sorted(found)]


def small_corpus(max_nu: int) -> list:
    """Every sign assignment of every shape with 1..max_nu vertices."""
    return [
        tree_doc(edges, "".join(signs))
        for n in range(1, max_nu + 1)
        for edges in shapes(n)
        for signs in product("-+", repeat=n)
    ]


def _path(n):
    return [(i, i + 1) for i in range(1, n)]


# The named trees of the ROADMAP baseline table, all signs negative.
NAMED = {
    "htree_eq": tree_doc([(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)], "------"),
    "spider7": tree_doc([(2, 5), (1, 5), (2, 6), (3, 6), (2, 7), (4, 7)], "-------"),
    "path18": tree_doc(_path(18), "-" * 18),
}
