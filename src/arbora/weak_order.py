"""Weak order, increasing flips, h-vectors, and congruence diagnostics.

Fixing a base order turns the flip graph into a DAG (orient each flip by
the base positions of the exchanged arc endpoints).  The same data gives
the h-vector by counting ordered arcs per maximal spine, and the fiber
diagnostics that show when the sweep fibers fail to quotient the weak
order.  Orders are compared by their inversion masks against the base, all
nu! of them from one walk over prefixes (`_inversion_masks`).  A fiber is a
weak-order interval when it holds every order between its minimum and
maximum, that is, when it is closed under the upward covers that stay below
its maximum (`_closed_upward`); nothing is counted or listed beyond it.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from itertools import permutations
from operator import and_, or_
from typing import Iterable, Optional

from .errors import InvalidOrder, VerificationFailure
from .fans import fiber, kappa, _check_order
from .spines import enumerate_maximal_spines, flip_graph
from .trees import Record, SignedTree, check_bound


class Comparison(Enum):
    LE = "<="
    GE = ">="
    EQ = "="
    INCOMPARABLE = "incomparable"


def inversion_set(base: Iterable, order: Iterable) -> frozenset:
    """Ordered pairs (u, v) with u before v in the base but v before u here."""
    base = tuple(base)
    order = tuple(order)
    if set(base) != set(order) or len(base) != len(order):
        raise InvalidOrder("orders must permute the same set")
    pos = {v: i for i, v in enumerate(order)}
    return frozenset(
        (u, v)
        for i, u in enumerate(base)
        for v in base[i + 1 :]
        if pos[v] < pos[u]
    )


def weak_compare(base: Iterable, order_a: Iterable, order_b: Iterable) -> Comparison:
    inv_a = inversion_set(base, order_a)
    inv_b = inversion_set(base, order_b)
    if inv_a == inv_b:
        return Comparison.EQ
    if inv_a <= inv_b:
        return Comparison.LE
    if inv_a >= inv_b:
        return Comparison.GE
    return Comparison.INCOMPARABLE


class FlipDigraph(Record):
    spines: tuple
    arcs: tuple  # (source index, target index, (u, v)) triples
    source: int
    sink: int


def increasing_flip_digraph(tree: SignedTree, base: Iterable) -> FlipDigraph:
    """Orient every flip by the base order of its exchanged endpoints.

    The result is certified acyclic with the sweep of the base as unique
    source and the sweep of the reversed base as unique sink.
    """
    base = _check_order(tree, base)
    pos, standard = _positions(tree, base), tree.standard
    graph = flip_graph(tree)
    spines = graph.spines
    flips = set()
    for i, (arcs, targets) in enumerate(zip(graph.arcs, graph.neighbors)):
        for (u, v, _), j in zip(arcs, targets):
            if pos[u] < pos[v]:
                flips.add((i, j, (standard[u], standard[v])))
            else:
                flips.add((j, i, (standard[v], standard[u])))
    arcs = tuple(sorted(flips))

    indeg, succs = [0] * len(spines), [[] for _ in spines]
    for a, b, _ in arcs:
        indeg[b] += 1
        succs[a].append(b)
    sources = [i for i, d in enumerate(indeg) if not d]
    sinks = [i for i, out in enumerate(succs) if not out]
    if len(sources) != 1 or len(sinks) != 1:
        raise VerificationFailure("flip digraph must have one source and one sink")
    # Kahn's algorithm certifies acyclicity: it takes every spine
    queue, visited = list(sources), 0
    while queue:
        visited += 1
        for succ in succs[queue.pop()]:
            indeg[succ] -= 1
            if not indeg[succ]:
                queue.append(succ)
    if visited != len(spines):
        raise VerificationFailure("flip digraph has a directed cycle")
    if spines[sources[0]] != kappa(tree, base):
        raise VerificationFailure("source is not the sweep of the base order")
    if spines[sinks[0]] != kappa(tree, tuple(reversed(base))):
        raise VerificationFailure("sink is not the sweep of the reversed base")
    return FlipDigraph(spines, arcs, sources[0], sinks[0])


def _positions(tree: SignedTree, order: tuple) -> list:
    """The position of each standard vertex in the order, by standard index."""
    pos, index = [0] * tree.nu, tree.standard_index
    for i, v in enumerate(order):
        pos[index[v]] = i
    return pos


def h_vector(tree: SignedTree, base: Iterable) -> tuple:
    """h_l = number of maximal spines with exactly l base-ordered arcs."""
    pos = _positions(tree, _check_order(tree, base))
    counts = [0] * tree.nu
    for arcs in flip_graph(tree).arcs:
        counts[sum(pos[u] < pos[v] for u, v, _ in arcs)] += 1
    return tuple(counts)


class FiberReport(Record):
    interval_failures: tuple  # (spine key index, reason) per failing fiber
    projection_down_failure: Optional[tuple]
    projection_up_failure: Optional[tuple]

    @property
    def is_order_congruence(self) -> bool:
        return (
            not self.interval_failures
            and self.projection_down_failure is None
            and self.projection_up_failure is None
        )


def _inversion_masks(tree: SignedTree, base: tuple) -> tuple:
    """(pair bits, masks): the inversion mask against the base of every order.

    `bits[i][j]` (= `bits[j][i]`) is the bit of the pair of standard indices
    i and j, the pairs numbered as the base lists them.  The masks come in
    the order of `permutations(tree.standard)`, from one walk over the
    prefixes, level by level: a vertex x placed while the vertices of U are
    unplaced (x among them) inverts its pair with each vertex of U that the
    base puts before it, the table entry `add[x][U]`.
    """
    nu, index, pos = tree.nu, tree.standard_index, _positions(tree, base)
    bits = [[0] * nu for _ in range(nu)]
    pairs = [(index[u], index[v]) for i, u in enumerate(base) for v in base[i + 1 :]]
    for k, (i, j) in enumerate(pairs):
        bits[i][j] = bits[j][i] = 1 << k
    add = []
    for x in range(nu):
        row = [0]  # row[U], doubled over the bits of U
        for u in range(nu):
            bit = bits[u][x] if pos[u] < pos[x] else 0
            row += [mask | bit for mask in row]
        add.append(row)
    steps = [(1 << x, add[x]) for x in range(nu)]
    prefixes = [((1 << nu) - 1, 0)]  # (unplaced, inversion mask) per prefix
    for _ in range(nu):
        prefixes = [
            (unplaced ^ bit, mask | row[unplaced])
            for unplaced, mask in prefixes
            for bit, row in steps
            if unplaced & bit
        ]
    return bits, [mask for _, mask in prefixes]


def congruence_diagnostics(
    tree: SignedTree, base: Iterable, max_nu: int = 8
) -> FiberReport:
    """Check the sweep fibers against the base weak order.

    Reports every fiber that is not a weak-order interval, and the first
    adjacent order pair on which the downward or upward fiber projection
    fails to be order preserving.  The projections are checked only when
    every fiber has a unique minimum and maximum and the fibers hold every
    order.
    """
    check_bound(tree, max_nu)
    base = _check_order(tree, base)
    bits, all_masks = _inversion_masks(tree, base)
    masks = dict(zip(permutations(tree.standard), all_masks))
    fibers = [fiber(tree, s) for s in enumerate_maximal_spines(tree)]
    index = tree.standard_index

    interval_failures = []
    fiber_min = {}  # fiber index -> the inversion mask of its minimum
    fiber_max = {}
    for idx, fib in sorted(enumerate(fibers), key=lambda pair: -len(pair[1])):
        inside = [masks[order] for order in fib]
        held = set(inside)
        meet = reduce(and_, held) if held else None
        join = reduce(or_, held) if held else None
        if meet not in held or join not in held:
            interval_failures.append((idx, "no unique extremum"))
        else:
            fiber_min[idx], fiber_max[idx] = meet, join
            if len(held) > 1 and not _closed_upward(fib, inside, held, join, bits, index):
                interval_failures.append((idx, "misses interior orders"))

    down_failure = None
    up_failure = None
    owner = {masks[order]: idx for idx, fib in enumerate(fibers) for order in fib}
    if len(fiber_min) == len(fibers) and len(owner) == len(all_masks):
        nu = tree.nu
        for order, mask in zip(permutations(range(nu)), all_masks):
            lo = owner[mask]
            for i in range(nu - 1):
                bit = bits[order[i]][order[i + 1]]
                if mask & bit:
                    continue  # keep only covers order <= other
                hi = owner[mask | bit]
                if hi == lo:
                    continue
                if down_failure is None and fiber_min[lo] & ~fiber_min[hi]:
                    down_failure = _swapped_pair(tree, order, i)
                if up_failure is None and fiber_max[lo] & ~fiber_max[hi]:
                    up_failure = _swapped_pair(tree, order, i)
            if down_failure and up_failure:
                break
    return FiberReport(tuple(interval_failures), down_failure, up_failure)


def _closed_upward(orders, masks: list, held: set, join: int, bits: list, index) -> bool:
    """Whether every upward cover of an order, with its mask inside `join`, has its mask held.

    The orders, with their inversion `masks`, hold those of the least and the
    greatest mask, the meet and the join of them all.  Every order between
    the two is reached from the least by upward covers (adjacent swaps that
    add one inversion) that stay below the greatest, so the orders are the
    whole weak-order interval exactly when this closure holds.
    """
    for order, mask in zip(orders, masks):
        prev = index[order[0]]
        for v in order[1:]:
            cur = index[v]
            bit = bits[prev][cur]
            if bit & join and not mask & bit and mask | bit not in held:
                return False
            prev = cur
    return True


def _swapped_pair(tree: SignedTree, order: tuple, i: int) -> tuple:
    """An order of standard indices and its swap at position i, by vertex id."""
    ids = [tree.standard[k] for k in order]
    swapped = list(ids)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    return tuple(ids), tuple(swapped)
