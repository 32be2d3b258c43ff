"""Linear orders, ordered partitions, and the sweep onto spines.

kappa maps a linear order on the standard vertices to the unique maximal
spine of which it is a linear extension; kappa_extended does the same for
ordered partitions.  Both rest on a bottom-up sweep that asks one
separation rule, `blocks.held_together`: when the sweep reaches v, with the
unswept negatives and the swept positives deleted, v receives an arc from
each earlier vertex u that is held together with v but not with the tail
of an arc that v already received, walking back from the latest vertex.
A positive vertex receives one arc, a negative one at most one per tree
neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .blocks import held_together
from .errors import (
    InvalidOrder,
    InvalidPartition,
    NotAdjacent,
    NotMaximal,
    VerificationFailure,
)
from .spines import Spine
from .trees import SignedTree, canonical_edge, check_bound, tree_cached


def _check_order(tree: SignedTree, order: Iterable) -> tuple:
    order = tuple(order)
    if len(order) != len(set(order)) or set(order) != tree.standard_set:
        raise InvalidOrder(f"not a permutation of the standard vertices: {order}")
    return order


def _check_partition(tree: SignedTree, partition: Iterable) -> tuple:
    parts = tuple(frozenset(p) for p in partition)
    if any(not p for p in parts):
        raise InvalidPartition("empty part")
    union = set()
    total = 0
    for p in parts:
        union |= p
        total += len(p)
    if total != len(union) or union != tree.standard_set:
        raise InvalidPartition("parts must partition the standard vertices")
    return parts


def kappa_extended(tree: SignedTree, partition: Iterable) -> Spine:
    """Sweep an ordered partition onto the spine whose cone carries it.

    Computed as the sweep of any within-part refinement followed by the
    contraction of all arcs joining nodes of the same part.
    """
    parts = _check_partition(tree, partition)
    level = {v: i for i, p in enumerate(parts) for v in p}
    refinement = tuple(v for p in parts for v in sorted(p))
    spine = _sweep(tree, refinement)
    from .spines import contract_arc

    while True:
        for tail, head in spine.arcs:
            if level[next(iter(tail))] == level[next(iter(head))]:
                spine = contract_arc(spine, (tail, head))
                break
        else:
            return spine


def kappa(tree: SignedTree, order: Iterable) -> Spine:
    """The unique maximal spine of which `order` is a linear extension."""
    return _sweep(tree, _check_order(tree, order))


def _sweep(tree: SignedTree, order: tuple) -> Spine:
    """Bottom-up sweep of a linear order into a maximal spine.

    When the sweep reaches v, the deleted set is the unswept negatives and
    the swept positives.  Each open component at v (a component of the tree
    minus the deleted set that holds or bounds v, or a deleted edge at v)
    sends v one arc, from the vertex swept last in it or on its boundary,
    if any.  Walking back over the swept vertices, that is the first u held
    together with v and with no tail already found.  A positive v lies in a
    single component; a negative v bounds one per tree neighbour.
    """
    deleted = set(tree.negatives)
    arcs = []
    for k, v in enumerate(order):
        wanted = 1 if v in tree.positives else tree.degree(v)
        tails = []
        for u in reversed(order[:k]):
            if len(tails) == wanted:
                break
            if held_together(tree, (u, v), deleted) and not any(
                held_together(tree, (u, t), deleted) for t in tails
            ):
                tails.append(u)
        arcs.extend((frozenset({u}), frozenset({v})) for u in tails)
        if v in tree.positives:
            deleted.add(v)
        else:
            deleted.discard(v)
    return Spine.make([frozenset({v}) for v in order], arcs)


@tree_cached
def fiber(tree: SignedTree, spine: Spine) -> tuple:
    """All linear extensions of a maximal spine, in lexicographic order."""
    if not spine.is_maximal:
        raise NotMaximal("fibers are defined for maximal spines")
    preds = {next(iter(label)): set() for label in spine.nodes}
    for tail, head in spine.arcs:
        preds[next(iter(head))].add(next(iter(tail)))

    vertices = sorted(preds)
    extensions = []

    def backtrack(prefix, placed, remaining):
        if not remaining:
            extensions.append(tuple(prefix))
            return
        for v in sorted(remaining):
            if preds[v] <= placed:
                prefix.append(v)
                placed.add(v)
                remaining.remove(v)
                backtrack(prefix, placed, remaining)
                remaining.add(v)
                placed.remove(v)
                prefix.pop()

    backtrack([], set(), set(vertices))
    return tuple(extensions)


def adjacent_congruent(tree: SignedTree, order_a: Iterable, order_b: Iterable) -> bool:
    """Decide whether two adjacent orders sweep to the same spine.

    The orders must differ by one adjacent transposition of u, v; they are
    congruent exactly when some w strictly between u and v on the tree path
    is negative and swept after both, or positive and swept before both.
    """
    a = _check_order(tree, order_a)
    b = _check_order(tree, order_b)
    diffs = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if len(diffs) != 2 or diffs[1] != diffs[0] + 1:
        raise NotAdjacent("orders must differ by one adjacent transposition")
    i = diffs[0]
    if (a[i], a[i + 1]) != (b[i + 1], b[i]):
        raise NotAdjacent("orders must differ by one adjacent transposition")
    u, v = a[i], a[i + 1]
    swept_after, swept_before = frozenset(a[i + 2 :]), frozenset(a[:i])
    deleted = (tree.negatives & swept_after) | (tree.positives & swept_before)
    return not held_together(tree, (u, v), deleted)


def orientation_of_order(tree: SignedTree, order: Iterable) -> dict:
    """Orient every tree edge from its earlier endpoint to its later one."""
    order = _check_order(tree, order)
    position = {v: i for i, v in enumerate(order)}
    orientation = {}
    for u, v in tree.edges:
        if tree.is_phantom(u) or tree.is_phantom(v):
            continue
        edge = canonical_edge(u, v)
        orientation[edge] = (u, v) if position[u] < position[v] else (v, u)
    return orientation


@dataclass(frozen=True)
class FanCertificate:
    passed: bool
    cones: int
    order_count: int
    failures: tuple = ()


def fan_cover_check(tree: SignedTree, max_nu: int = 8) -> FanCertificate:
    """Desk-scale certificate that the spine cones tile the braid fan.

    (a) every linear order is a linear extension of its sweep image and the
    fibers partition all orders; (b) flip-adjacent cones sit on opposite
    sides of the wall of the reversed arc; (c) each maximal cone is
    simplicial: the sink-set indicator vectors of its arcs are independent
    modulo the all-ones line and satisfy every arc inequality.
    """
    from fractions import Fraction
    from itertools import permutations

    from .spines import flip_graph

    check_bound(tree, max_nu)
    failures = []
    graph = flip_graph(tree)
    spines = graph.spines

    # (a) fibers partition the orders
    seen_orders = set()
    order_count = 0
    fibers = {}
    for s in spines:
        fib = fiber(tree, s)
        fibers[s.key()] = fib
        for order in fib:
            order_count += 1
            if order in seen_orders:
                failures.append(("duplicate-order", order))
            seen_orders.add(order)
    for order in permutations(sorted(tree.standard)):
        image = kappa(tree, order)
        if image.key() not in fibers:
            failures.append(("sweep-misses-facet", order))
        elif order not in fibers[image.key()]:
            failures.append(("order-outside-its-fiber", order))
    import math

    if order_count != math.factorial(tree.nu):
        failures.append(("fiber-sizes", order_count))

    # (b) walls separate flip-adjacent cones
    for s, targets in zip(spines, graph.neighbors):
        for arc, j in zip(s.arcs, targets):
            (u,) = arc[0]
            (v,) = arc[1]
            for order in fibers[s.key()]:
                if order.index(u) > order.index(v):
                    failures.append(("wall-side", (u, v, order)))
            for order in fibers[spines[j].key()]:
                if order.index(v) > order.index(u):
                    failures.append(("wall-side-neighbor", (u, v, order)))

    # (c) simplicial cones with independent ray vectors
    vertices = sorted(tree.standard)
    for s in spines:
        rays = []
        for arc in s.arcs:
            sink = s.sink_set(arc)
            rays.append([Fraction(1 if v in sink else 0) for v in vertices])
            for tail, head in s.arcs:
                (tu,) = tail
                (th,) = head
                if (1 if tu in sink else 0) > (1 if th in sink else 0):
                    failures.append(("ray-violates-arc", (sorted(sink), tu, th)))
        if len(s.arcs) != tree.nu - 1:
            failures.append(("arc-count", s.key()))
        if _rank_mod_ones(rays) != len(rays):
            failures.append(("rays-dependent", sorted(map(sorted, s.key()))))

    if failures:
        raise VerificationFailure(f"fan check failed: {failures[:3]}")
    return FanCertificate(True, len(spines), order_count)


def _rank_mod_ones(rays) -> int:
    """Rank of the ray vectors after quotienting by the all-ones direction."""
    from fractions import Fraction

    if not rays:
        return 0
    n = len(rays[0])
    rows = []
    for ray in rays:
        mean = sum(ray, Fraction(0)) / n
        rows.append([x - mean for x in ray])
    rank = 0
    cols = list(range(n))
    for col in cols:
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        factor = rows[rank][col]
        rows[rank] = [x / factor for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                scale = rows[r][col]
                rows[r] = [a - scale * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
