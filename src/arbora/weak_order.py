"""Weak order, increasing flips, h-vectors, and congruence diagnostics.

Fixing a base order turns the flip graph into a DAG (orient each flip by
the base positions of the exchanged arc endpoints).  The same data gives
the h-vector by counting ordered arcs per maximal spine, and the fiber
diagnostics that show when the sweep fibers fail to quotient the weak
order.  A fiber is a weak-order interval when it holds every order between
its minimum and maximum; those orders are counted by a DP over down-sets
(`_interval_size`), not listed.
"""

from __future__ import annotations

from enum import Enum
from itertools import permutations
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


def _interval_size(low: tuple, high: tuple) -> int:
    """The number of orders in the weak-order interval [low, high], low <= high.

    They are the orders that agree with low on every pair where low and
    high agree: the linear extensions of the intersection of two linear
    orders.  Counting linear extensions is #P-complete even in dimension two
    (Dittmer-Pak), so they are counted by a DP over down-sets, at most
    2^nu * nu steps: `ways` maps each down-set of one size, vertex i of low
    as bit i, to the number of orders of it as a prefix.
    """
    at = {v: i for i, v in enumerate(high)}
    below = []  # per vertex of low, the earlier vertices of low that high keeps earlier
    for j, v in enumerate(low):
        mask = 0
        for i in range(j):
            if at[low[i]] < at[v]:
                mask |= 1 << i
        below.append(mask)
    ways = {0: 1}
    for _ in low:
        grown = {}
        for down, count in ways.items():
            for i, need in enumerate(below):
                bit = 1 << i
                if not down & bit and need & down == need:
                    grown[down | bit] = grown.get(down | bit, 0) + count
        ways = grown
    return ways[(1 << len(low)) - 1]


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
    index = tree.standard_index
    pairs = [(index[u], index[v]) for i, u in enumerate(base) for v in base[i + 1 :]]
    base_pairs = [(i, j, 1 << k) for k, (i, j) in enumerate(pairs)]  # u before v in base

    def inv_mask(order: tuple) -> int:
        pos, mask = _positions(tree, order), 0
        for i, j, bit in base_pairs:
            if pos[j] < pos[i]:
                mask |= bit
        return mask

    all_orders = list(permutations(tree.standard))
    masks = {order: inv_mask(order) for order in all_orders}

    spines = enumerate_maximal_spines(tree)
    fibers = [fiber(tree, s) for s in spines]

    interval_failures = []
    fiber_min = {}
    fiber_max = {}
    for idx, fib in sorted(enumerate(fibers), key=lambda pair: -len(pair[1])):
        meet = None
        join = None
        for order in fib:
            mask = masks[order]
            meet = mask if meet is None else meet & mask
            join = mask if join is None else join | mask
        bottom = [o for o in fib if masks[o] == meet]
        top = [o for o in fib if masks[o] == join]
        if not bottom or not top:
            interval_failures.append((idx, "no unique extremum"))
        else:
            fiber_min[idx] = bottom[0]
            fiber_max[idx] = top[0]
            if _interval_size(bottom[0], top[0]) != len(fib):
                interval_failures.append((idx, "misses interior orders"))

    down_failure = None
    up_failure = None
    owner = {order: idx for idx, fib in enumerate(fibers) for order in fib}
    if len(fiber_min) == len(spines) and len(owner) == len(all_orders):
        for order in all_orders:
            for i in range(len(order) - 1):
                swapped = list(order)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                other = tuple(swapped)
                if masks[order] | masks[other] != masks[other]:
                    continue  # keep only covers order <= other
                lo, hi = owner[order], owner[other]
                if down_failure is None:
                    a, b = masks[fiber_min[lo]], masks[fiber_min[hi]]
                    if a | b != b:
                        down_failure = (order, other)
                if up_failure is None:
                    a, b = masks[fiber_max[lo]], masks[fiber_max[hi]]
                    if a | b != b:
                        up_failure = (order, other)
            if down_failure and up_failure:
                break
    return FiberReport(tuple(interval_failures), down_failure, up_failure)
