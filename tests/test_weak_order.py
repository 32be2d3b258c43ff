from itertools import permutations
from math import comb

from hypothesis import given, settings

from arbora import catalog, weak_order
from arbora.complexes import complex_stats
from arbora.fans import fiber, kappa
from arbora.geometry import vertex_point
from arbora.spines import enumerate_maximal_spines
from arbora.weak_order import (
    Comparison,
    FiberReport,
    _closed_upward,
    _inversion_masks,
    congruence_diagnostics,
    h_vector,
    increasing_flip_digraph,
    inversion_set,
    weak_compare,
)

from conftest import corpus, signed_trees


def narayana(n, k):
    return comb(n, k) * comb(n, k - 1) // n if k else int(n >= 0)


class TestWeakCompare:
    def test_base_below_reverse(self):
        base = (1, 2, 3, 4)
        assert weak_compare(base, base, (4, 3, 2, 1)) is Comparison.LE

    def test_equal(self):
        base = (1, 2, 3)
        assert weak_compare(base, (2, 1, 3), (2, 1, 3)) is Comparison.EQ

    def test_incomparable(self):
        assert (
            weak_compare((1, 2, 3), (2, 1, 3), (1, 3, 2))
            is Comparison.INCOMPARABLE
        )

    def test_inversion_sets(self):
        assert inversion_set((1, 2, 3), (3, 1, 2)) == frozenset({(1, 3), (2, 3)})


class TestIncreasingFlips:
    def test_tamari_source_and_sink(self, path4_neg):
        digraph = increasing_flip_digraph(path4_neg, (1, 2, 3, 4))
        source_spine = digraph.spines[digraph.source]
        assert source_spine.key() == kappa(path4_neg, (1, 2, 3, 4)).key()
        sink_spine = digraph.spines[digraph.sink]
        assert sink_spine.key() == kappa(path4_neg, (4, 3, 2, 1)).key()

    def test_tripod_acyclic_for_every_base(self, tripod_neg):
        for base in permutations((1, 2, 3, 4)):
            increasing_flip_digraph(tripod_neg, base)  # raises on any failure

    def test_reversing_base_reverses_arcs(self, tripod_neg):
        forward = increasing_flip_digraph(tripod_neg, (1, 2, 3, 4))
        backward = increasing_flip_digraph(tripod_neg, (4, 3, 2, 1))
        flipped = {(b, a) for a, b, _ in backward.arcs}
        assert {(a, b) for a, b, _ in forward.arcs} == flipped

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=10, deadline=None)
    def test_orientation_matches_functional(self, tree):
        # increasing flips gain against the vertex-difference functional
        # joining the extreme vertices (late base elements weighted up)
        base = tuple(sorted(tree.standard))
        g = {v: tree.nu + 1 - 2 * (i + 1) for i, v in enumerate(base)}
        digraph = increasing_flip_digraph(tree, base)
        points = [vertex_point(tree, s) for s in digraph.spines]
        for a, b, (u, v) in digraph.arcs:
            gain = sum(
                g[w] * (points[b][w] - points[a][w]) for w in tree.standard
            )
            assert gain > 0


class TestHVector:
    def test_path4_narayana(self, path4_neg):
        assert h_vector(path4_neg, (1, 2, 3, 4)) == (1, 6, 6, 1)
        assert tuple(narayana(4, k) for k in range(1, 5)) == (1, 6, 6, 1)

    def test_tripod_palindromic(self, tripod_neg):
        h = h_vector(tripod_neg, (1, 2, 3, 4))
        assert h == tuple(reversed(h))
        assert sum(h) == 16

    def test_single_vertex(self):
        from arbora.catalog import path_neg

        assert h_vector(path_neg(1), (1,)) == (1,)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=12, deadline=None)
    def test_palindromy_and_f_transform(self, tree):
        base = tuple(sorted(tree.standard))
        h = h_vector(tree, base)
        assert h == tuple(reversed(h))
        # f_k(P) = sum_l C(l, k) h_l; the complex f-vector is its reverse
        d = tree.nu - 1
        f_polytope = [
            sum(comb(l, k) * h[l] for l in range(d + 1)) for k in range(d + 1)
        ]
        f_complex = complex_stats(tree).f_complex
        assert tuple(reversed(f_polytope)) == f_complex + ()

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=8, deadline=None)
    def test_base_independent(self, tree):
        bases = list(permutations(sorted(tree.standard)))
        reference = h_vector(tree, bases[0])
        for base in bases[1:]:
            assert h_vector(tree, base) == reference


class TestCongruenceDiagnostics:
    def test_path4_is_congruence(self, path4_neg):
        # the fibers over the path order itself form the sylvester congruence
        report = congruence_diagnostics(path4_neg, (1, 2, 3, 4))
        assert report.is_order_congruence
        reverse = congruence_diagnostics(path4_neg, (4, 3, 2, 1))
        assert reverse.is_order_congruence

    def test_tripod_never_congruence(self, tripod_neg):
        for base in permutations((1, 2, 3, 4)):
            report = congruence_diagnostics(tripod_neg, base)
            assert not report.is_order_congruence

    def test_spider_non_interval_fiber(self, spider7):
        report = congruence_diagnostics(spider7, (1, 2, 3, 4, 5, 6, 7))
        assert report.interval_failures

    def test_reports_misses_interior_orders(self, htree_eq, monkeypatch):
        # the largest fiber loses an order between its extremes; with one
        # order held by no fiber, the projections are not checked
        spines = enumerate_maximal_spines(htree_eq)
        largest = max(spines, key=lambda s: len(fiber(htree_eq, s)))
        real = weak_order.fiber

        def thinned(tree, spine):
            orders = real(tree, spine)
            return orders[:1] + orders[2:] if spine == largest else orders

        monkeypatch.setattr(weak_order, "fiber", thinned)
        base = (1, 2, 3, 4, 5, 6)
        report = congruence_diagnostics(htree_eq, base)
        assert len(real(htree_eq, largest)) == 40
        assert report == FiberReport(((39, "misses interior orders"),), None, None)


def _interval_size(low: tuple, high: tuple) -> int:
    """Oracle: the number of orders in the weak-order interval [low, high], low <= high.

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


def scan_interval_size(low, high, inversions) -> int:
    """Oracle: the orders o with inv(low) <= inv(o) <= inv(high), among all
    orders; `inversions` maps every order to its inversion set."""
    return sum(
        inversions[low] <= inv <= inversions[high] for inv in inversions.values()
    )


def all_inversion_sets(vertices) -> dict:
    base = sorted(vertices)
    return {o: inversion_set(base, o) for o in permutations(base)}


class TestIntervalSize:
    def test_every_pair_of_four_vertex_orders(self):
        inversions = all_inversion_sets(range(4))
        for low in inversions:
            for high in inversions:
                if inversions[low] <= inversions[high]:
                    size = scan_interval_size(low, high, inversions)
                    assert _interval_size(low, high) == size

    def test_equals_all_orders_scan_on_every_fiber(self):
        trees = list(corpus(max_nu=5, include_named=False))
        trees += [catalog.htree_eq(), catalog.htree_diff()]
        checked = 0
        for tree in trees:
            inversions = all_inversion_sets(tree.standard)
            for spine in enumerate_maximal_spines(tree):
                orders = fiber(tree, spine)
                meet = frozenset.intersection(*(inversions[o] for o in orders))
                join = frozenset.union(*(inversions[o] for o in orders))
                low = [o for o in orders if inversions[o] == meet]
                high = [o for o in orders if inversions[o] == join]
                if low and high:
                    size = scan_interval_size(low[0], high[0], inversions)
                    assert _interval_size(low[0], high[0]) == size
                    checked += 1
        assert checked > 5000


def oracle_trees() -> list:
    return [*corpus(max_nu=5, include_named=False), catalog.htree_eq(), catalog.htree_diff()]


class TestCoverClosure:
    def test_inversion_masks_equal_inversion_sets(self):
        for tree in oracle_trees():
            index = tree.standard_index
            shuffled = tree.standard[1::2] + tree.standard[::2]
            for base in (tree.standard, tree.standard[::-1], shuffled):
                bits, masks = _inversion_masks(tree, base)
                assert sorted(bits[i][j] for j in range(tree.nu) for i in range(j)) == [
                    1 << k for k in range(tree.nu * (tree.nu - 1) // 2)
                ]
                orders = list(permutations(tree.standard))
                assert len(masks) == len(orders)
                for order, mask in zip(orders, masks):
                    pairs = inversion_set(base, order)
                    assert mask == sum(bits[index[u]][index[v]] for u, v in pairs)

    def test_equals_interval_size_oracle_on_every_fiber(self):
        # each fiber as it is, and thinned by its second order
        verdicts = {True: 0, False: 0}
        for tree in oracle_trees():
            index = tree.standard_index
            for base in (tree.standard, tree.standard[::-1]):
                bits, all_masks = _inversion_masks(tree, base)
                masks = dict(zip(permutations(tree.standard), all_masks))
                for spine in enumerate_maximal_spines(tree):
                    orders = fiber(tree, spine)
                    for kept in (orders, orders[:1] + orders[2:]):
                        inside = [masks[o] for o in kept]
                        held = set(inside)
                        meet, join = min(held, key=int.bit_count), max(held, key=int.bit_count)
                        if any(meet & ~m or m & ~join for m in held):
                            continue  # no least or no greatest order
                        low = next(o for o in kept if masks[o] == meet)
                        high = next(o for o in kept if masks[o] == join)
                        verdict = _closed_upward(kept, inside, held, join, bits, index)
                        assert verdict == (_interval_size(low, high) == len(kept)), (tree, base)
                        verdicts[verdict] += 1
        assert verdicts[True] > 10000 and verdicts[False] > 1000, verdicts
