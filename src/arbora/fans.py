"""Linear orders, ordered partitions, and the sweep onto spines.

kappa maps a linear order on the standard vertices to the unique maximal
spine of which it is a linear extension; kappa_extended does the same for
ordered partitions.  Both rest on a bottom-up sweep, `_sweep`, on standard
indices (bit i for `tree.standard[i]`), like the flip graph's index arcs;
vertex ids appear only in a result: a `Spine`, an order, a witness.  When
the sweep reaches v, with the unswept negatives and the swept positives
deleted, v receives an arc from each earlier vertex u that is held
together with v but not with the tail of an arc that v already received,
walking back from the latest vertex.  Two vertices are held together when
their `SignedTree.path_masks` entry misses the deleted mask: the pair case
of `blocks.held_together`, which `adjacent_congruent` asks too.  A
positive vertex receives one arc, a negative one at most one per tree
neighbour.  `fiber` lists the linear extensions of a maximal spine from the
predecessor masks of its arcs, once per spine.  `fan_cover_check`
certifies that the spine cones tile the braid fan in integers only: each
order finds its cone by one lookup of its swept arcs among the flip
graph's arcs.  The wall between
two flip-adjacent cones is read off per-fiber masks of the vertices that
come before a vertex in every order of the fiber (`_always_before`).  Each
cone is simplicial when the determinant of its 0/1 rays (the sink masks)
and the all-ones row is nonzero: an odd determinant, found over GF(2) on
the row masks (`_odd_determinant`), settles it, and the fraction-free
(Bareiss) integer determinant is asked only when the rows are dependent
mod 2.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from typing import Iterable

from .errors import (
    InvalidOrder,
    InvalidPartition,
    InvalidSpine,
    NotAdjacent,
    NotMaximal,
    VerificationFailure,
    failure_summary,
)
from .spines import Spine, _maximal_spine, _singleton_labels, flip_graph
from .trees import Record, SignedTree, canonical_edge, check_bound


def _check_order(tree: SignedTree, order: Iterable) -> tuple:
    order = tuple(order)
    if len(order) != len(set(order)) or set(order) != tree.standard_set:
        raise InvalidOrder(f"not a permutation of the standard vertices: {order}")
    return order


def _check_partition(tree: SignedTree, partition: Iterable) -> tuple:
    parts = tuple(frozenset(p) for p in partition)
    if any(not p for p in parts):
        raise InvalidPartition("empty part")
    union = frozenset().union(*parts)
    if sum(map(len, parts)) != len(union) or union != tree.standard_set:
        raise InvalidPartition("parts must partition the standard vertices")
    return parts


def kappa_extended(tree: SignedTree, partition: Iterable) -> Spine:
    """Sweep an ordered partition onto the spine whose cone carries it.

    Computed as the sweep of any within-part refinement, with every arc
    that joins two nodes of one part contracted in a single pass: the
    labels those arcs join are merged, then one spine is built.
    """
    parts = _check_partition(tree, partition)
    level = {v: i for i, p in enumerate(parts) for v in p}
    refinement = kappa(tree, [v for p in parts for v in sorted(p)])
    pairs = [(t, h) for (t,), (h,) in refinement.arcs]
    label = {v: frozenset((v,)) for v in level}
    for t, h in pairs:
        if level[t] == level[h]:
            merged = label[t] | label[h]
            label.update(dict.fromkeys(merged, merged))
    arcs = [(label[t], label[h]) for t, h in pairs if level[t] != level[h]]
    return Spine.make(set(label.values()), arcs)


def kappa(tree: SignedTree, order: Iterable) -> Spine:
    """The unique maximal spine of which `order` is a linear extension."""
    index = tree.standard_index
    pairs = _sweep(tree, [index[v] for v in _check_order(tree, order)])
    return _maximal_spine(_singleton_labels(tree.standard), pairs)


def _sweep(tree: SignedTree, order: Iterable) -> list:
    """Bottom-up sweep of a linear order of standard indices into spine arcs.

    When the sweep reaches v, the deleted set is the unswept negatives and
    the swept positives.  Each open component at v (a component of the tree
    minus the deleted set that holds or bounds v, or a deleted edge at v)
    sends v one arc, from the vertex swept last in it or on its boundary,
    if any.  Walking back over the swept vertices, that is the first u held
    together with v and with no tail already found: u and t are held
    together when their path mask misses the deleted mask.  A positive v
    lies in a single component; a negative v bounds one per tree neighbour.
    The arcs come back as sorted (tail, head) index pairs.
    """
    standard, paths, adjacency = tree.standard, tree.path_masks, tree.adjacency
    positives, deleted = tree.positive_mask, tree.negative_mask
    swept, arcs = [], []
    for i in order:
        bit = 1 << i
        positive = positives & bit
        wanted = 1 if positive else len(adjacency[standard[i]])
        tails = []
        for j in reversed(swept):
            row = paths[j]
            if row[i] & deleted:
                continue
            for t in tails:
                if not row[t] & deleted:
                    break
            else:
                tails.append(j)
                arcs.append((j, i))
                if len(tails) == wanted:
                    break
        swept.append(i)
        if positive:
            deleted |= bit
        else:
            deleted &= ~bit
    arcs.sort()
    return arcs


def fiber(tree: SignedTree, spine: Spine) -> tuple:
    """All linear extensions of a maximal spine, in lexicographic order.

    Found once per spine object and cached on it (`Spine._fiber`).
    """
    if not spine.is_maximal:
        raise NotMaximal("fibers are defined for maximal spines")
    index = tree.standard_index
    if len(spine.nodes) != tree.nu or any(v not in index for (v,) in spine.nodes):
        raise InvalidSpine("spine labels are not standard vertices of the tree")
    return spine._fiber


def adjacent_congruent(tree: SignedTree, order_a: Iterable, order_b: Iterable) -> bool:
    """Decide whether two adjacent orders sweep to the same spine.

    The orders must differ by one adjacent transposition of u, v; they are
    congruent exactly when some w strictly between u and v on the tree path
    is negative and swept after both, or positive and swept before both.
    `order_b` is validated only when it is not `order_a` with one adjacent
    transposition, so that `InvalidOrder` comes before `NotAdjacent`.
    """
    a, b = _check_order(tree, order_a), tuple(order_b)
    i = 0  # the first position where the orders differ
    for x, y in zip(a, b):
        if x != y:
            break
        i += 1
    swapped = i + 1 < len(a) == len(b) and (b[i], b[i + 1]) == (a[i + 1], a[i])
    if not swapped or a[i + 2 :] != b[i + 2 :]:
        _check_order(tree, b)
        raise NotAdjacent("orders must differ by one adjacent transposition")
    index, before = tree.standard_index, 0
    for w in a[:i]:
        before |= 1 << index[w]
    u, v = index[a[i]], index[a[i + 1]]
    after = ((1 << tree.nu) - 1) ^ before ^ (1 << u) ^ (1 << v)
    deleted = (before & tree.positive_mask) | (after & tree.negative_mask)
    return bool(tree.path_masks[u][v] & deleted)


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


class FanCertificate(Record):
    passed: bool
    cones: int
    order_count: int
    failures: tuple = ()


def fan_cover_check(tree: SignedTree, max_nu: int = 8) -> FanCertificate:
    """Desk-scale certificate that the spine cones tile the braid fan.

    (a) every linear order is a linear extension of its sweep image and the
    fibers partition all orders; (b) flip-adjacent cones sit on opposite
    sides of the wall of the reversed arc; (c) each maximal cone is
    simplicial: its nu - 1 sink-set indicator vectors satisfy every arc
    inequality and are independent modulo the all-ones line, that is, the
    0/1 matrix of the rays and the all-ones row has a nonzero integer
    determinant.  A failed check raises with every failure kind, sorted by
    name, its count and its first witness.
    """
    check_bound(tree, max_nu)
    failures = []
    graph = flip_graph(tree)
    standard, nu = tree.standard, tree.nu

    # (a) fibers partition the orders; each order's sweep names its cone
    fibers = [fiber(tree, s) for s in graph.spines]
    owner = {}  # order -> the index of the spine whose fiber holds it
    for i, fib in enumerate(fibers):
        for order in fib:
            if order in owner:
                failures.append(("duplicate-order", order))
            owner[order] = i
    order_count = sum(map(len, fibers))
    cone = {tuple(arc[:2] for arc in arcs): i for i, arcs in enumerate(graph.arcs)}
    for swept in permutations(range(nu)):
        order = tuple(standard[k] for k in swept)
        i = cone.get(tuple(_sweep(tree, swept)))
        if i is None:
            failures.append(("sweep-misses-facet", order))
        elif owner.get(order) != i and order not in fibers[i]:
            failures.append(("order-outside-its-fiber", order))
    if order_count != factorial(nu):
        failures.append(("fiber-sizes", order_count))

    # (b) walls separate flip-adjacent cones: u precedes v in every order of
    # the cone of an arc u -> v, and follows it in every order of its flip;
    # the orders are scanned only for the failures
    full = (1 << nu) - 1
    before = [_always_before(tree, fib) for fib in fibers]
    for i, (fib, arcs, targets) in enumerate(zip(fibers, graph.arcs, graph.neighbors)):
        for (iu, iv, _), j in zip(arcs, targets):
            u, v = standard[iu], standard[iv]
            if not before[i][iv] >> iu & 1:
                for order in fib:
                    if order.index(u) > order.index(v):
                        failures.append(("wall-side", (u, v, order)))
            if not before[j][iu] >> iv & 1:
                for order in fibers[j]:
                    if order.index(v) > order.index(u):
                        failures.append(("wall-side-neighbor", (u, v, order)))

    # (c) simplicial cones: rays independent modulo the all-ones line
    for spine, arcs in zip(graph.spines, graph.arcs):
        sinks = [full ^ mask for *_, mask in arcs]
        for sink in sinks:
            for t, h, _ in arcs:
                if sink >> t & 1 and not sink >> h & 1:
                    members = [v for k, v in enumerate(standard) if sink >> k & 1]
                    witness = (members, standard[t], standard[h])
                    failures.append(("ray-violates-arc", witness))
        if len(arcs) != nu - 1:
            failures.append(("arc-count", spine.key()))
        elif not _odd_determinant(sinks + [full]) and _determinant(
            [[sink >> k & 1 for k in range(nu)] for sink in sinks + [full]]
        ) == 0:
            failures.append(("rays-dependent", sorted(map(sorted, spine.key()))))

    if failures:
        summary = "; ".join(
            f"{kind} x{count}, first {witness}"
            for kind, count, witness in failure_summary(failures)
        )
        raise VerificationFailure(f"fan check failed: {summary}")
    return FanCertificate(True, len(graph.arcs), order_count)


def _always_before(tree: SignedTree, orders: tuple) -> list:
    """Per standard vertex, the vertices before it in every one of the orders.

    Bit i stands for the vertex of `standard_index` i; with no order, every
    bit is set.
    """
    index = tree.standard_index
    before = [(1 << tree.nu) - 1] * tree.nu
    for order in orders:
        prefix = 0
        for v in order:
            i = index[v]
            before[i] &= prefix
            prefix |= 1 << i
    return before


def _odd_determinant(rows: list) -> bool:
    """Whether the square 0/1 matrix of the row masks has an odd determinant.

    Gaussian elimination over GF(2), with the pivot rows keyed by their
    leading bit: the rows are independent mod 2 exactly when the integer
    determinant is odd, and so nonzero.  False says nothing about the
    integer determinant.
    """
    pivots = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
        else:
            return False
    return True


def _determinant(rows: list) -> int:
    """Bareiss (fraction-free) integer determinant: every division is exact."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, previous = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * previous
