import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbora import blocks, catalog, fans
from arbora.blocks import held_together, open_components
from arbora.errors import InvalidOrder, InvalidSpine, NotAdjacent, VerificationFailure
from arbora.fans import (
    _always_before,
    _determinant,
    _odd_determinant,
    adjacent_congruent,
    fan_cover_check,
    fiber,
    kappa,
    kappa_extended,
    orientation_of_order,
)
from arbora.spines import (
    Spine,
    contract_arc,
    enumerate_maximal_spines,
    flip_graph,
    tree_orientation_of_spine,
)
from arbora.catalog import path_neg

from conftest import corpus, phantom_trees, signed_trees


def piece_sweep(tree, order):
    """Oracle: the sweep that tracks the open components themselves.

    Each piece is (interior, boundary, tail).  A negative v merges the
    pieces it bounds and receives their tails; a positive v splits the
    piece holding it and receives that piece's tail.
    """

    def boundary(interior):
        return frozenset(
            n for x in interior for n in tree.adjacency[x] if n not in interior
        )

    entries = [(p.interior, p.boundary, None) for p in open_components(tree, tree.negatives)]
    arcs = []
    for v in order:
        label = frozenset({v})
        if v in tree.negatives:
            consumed = [e for e in entries if v in e[1]]
            entries = [e for e in entries if v not in e[1]]
            interior = label.union(*(e[0] for e in consumed))
            arcs.extend((tail, label) for _, _, tail in consumed if tail is not None)
            entries.append((interior, boundary(interior), label))
        else:
            (host,) = [e for e in entries if v in e[0]]
            entries.remove(host)
            if host[2] is not None:
                arcs.append((host[2], label))
            remaining = host[0] - {v}
            for comp in tree.components(frozenset(tree.vertices) - remaining):
                entries.append((comp, boundary(comp), label))
            for n in tree.adjacency[v]:
                if n not in remaining:
                    entries.append((frozenset(), frozenset({v, n}), label))
    return Spine.make([frozenset({v}) for v in order], arcs)


def held_together_sweep(tree, order):
    """Oracle: the sweep asking `blocks.held_together` of each pair, on frozensets."""
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


def assert_sweeps_agree(tree):
    for order in permutations(sorted(tree.standard)):
        assert kappa(tree, order) == piece_sweep(tree, order), order


def assert_mask_sweep_agrees(tree):
    """The path-mask sweep gives the held-together sweep's spine, in canonical order."""
    for order in permutations(sorted(tree.standard)):
        expected = held_together_sweep(tree, order)
        index = tree.standard_index
        pairs = fans._sweep(tree, [index[v] for v in order])
        assert pairs == [(index[t], index[h]) for (t,), (h,) in expected.arcs], order
        spine = kappa(tree, order)
        assert spine == expected, order
        assert spine.nodes == tuple(frozenset({v}) for v in tree.standard)


class TestKappa:
    def test_identity_order_gives_path(self, tripod_neg):
        spine = kappa(tripod_neg, (1, 2, 3, 4))
        assert spine.key() == frozenset(
            {frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})}
        )

    def test_leaves_first_gives_star(self, tripod_neg):
        spine = kappa(tripod_neg, (1, 3, 4, 2))
        assert spine.key() == frozenset(
            {frozenset({1}), frozenset({3}), frozenset({4})}
        )

    def test_invalid_order(self, tripod_neg):
        with pytest.raises(InvalidOrder):
            kappa(tripod_neg, (1, 2, 3))

    @given(signed_trees(max_nu=5))
    @settings(max_examples=20, deadline=None)
    def test_order_extends_its_image(self, tree):
        for order in permutations(sorted(tree.standard)):
            spine = kappa(tree, order)
            position = {v: i for i, v in enumerate(order)}
            for u in tree.standard:
                for v in tree.standard:
                    if u != v and spine.below(u, v):
                        assert position[u] < position[v]


    def test_equals_piece_sweep_on_corpus(self):
        for tree in corpus(max_nu=5):
            assert_sweeps_agree(tree)

    @pytest.mark.parametrize("name", sorted(catalog.NAMED_TREES))
    def test_equals_piece_sweep_on_named_trees(self, name):
        assert_sweeps_agree(catalog.NAMED_TREES[name]())

    @given(phantom_trees(max_vertices=8).filter(lambda tree: tree.nu <= 6))
    @settings(max_examples=60, deadline=None)
    def test_equals_piece_sweep_with_phantoms(self, tree):
        assert_sweeps_agree(tree)

    def test_equals_held_together_sweep_on_corpus_and_named_trees(self):
        for tree in corpus(max_nu=5):
            assert_mask_sweep_agrees(tree)

    @given(phantom_trees(max_vertices=8).filter(lambda tree: tree.nu <= 6))
    @settings(max_examples=60, deadline=None)
    def test_equals_held_together_sweep_with_phantoms(self, tree):
        assert_mask_sweep_agrees(tree)

    def test_sweep_makes_no_held_together_call(self, htree_eq, monkeypatch):
        def refused(*args):
            raise AssertionError("held_together called")

        monkeypatch.setattr(blocks, "held_together", refused)
        assert not hasattr(fans, "held_together")
        for order in permutations(sorted(htree_eq.standard)):
            kappa(htree_eq, order)
        assert fan_cover_check(htree_eq).passed


def contracting_kappa_extended(tree, partition):
    """Oracle: contract the same-part arcs one at a time, rebuilding the spine."""
    parts = tuple(frozenset(p) for p in partition)
    level = {v: i for i, p in enumerate(parts) for v in p}
    spine = kappa(tree, tuple(v for p in parts for v in sorted(p)))
    while True:
        for tail, head in spine.arcs:
            if level[next(iter(tail))] == level[next(iter(head))]:
                spine = contract_arc(spine, (tail, head))
                break
        else:
            return spine


def ordered_partitions(vertices):
    """Every ordered set partition of `vertices`."""
    vertices = tuple(vertices)
    for levels in product(range(len(vertices)), repeat=len(vertices)):
        if set(levels) == set(range(max(levels) + 1)):
            yield tuple(
                frozenset(v for v, level in zip(vertices, levels) if level == k)
                for k in range(max(levels) + 1)
            )


class TestKappaExtended:
    def test_equals_contraction_oracle_on_corpus(self):
        for tree in corpus(4, include_named=False):
            for partition in ordered_partitions(tree.standard):
                expected = contracting_kappa_extended(tree, partition)
                assert kappa_extended(tree, partition) == expected

    @given(phantom_trees(max_vertices=8).filter(lambda tree: tree.nu <= 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_contraction_oracle_with_phantoms(self, tree, data):
        levels = data.draw(st.lists(st.integers(0, 3), min_size=tree.nu, max_size=tree.nu))
        used = sorted(set(levels))
        partition = [
            frozenset(v for v, level in zip(tree.standard, levels) if level == k)
            for k in used
        ]
        assert kappa_extended(tree, partition) == contracting_kappa_extended(tree, partition)

    def test_single_block(self, tripod_neg):
        spine = kappa_extended(tripod_neg, (frozenset({1, 2, 3, 4}),))
        assert spine.nodes == (frozenset({1, 2, 3, 4}),)

    def test_two_level(self, tripod_neg):
        spine = kappa_extended(
            tripod_neg, (frozenset({1, 3}), frozenset({2, 4}))
        )
        assert set(spine.nodes) == {frozenset({1}), frozenset({3}), frozenset({2, 4})}
        assert spine.key() == frozenset({frozenset({1}), frozenset({3})})

    def test_positive_split(self, tripod_pos):
        spine = kappa_extended(tripod_pos, (frozenset({2}), frozenset({1, 3, 4})))
        assert set(spine.arcs) == {
            (frozenset({2}), frozenset({1})),
            (frozenset({2}), frozenset({3})),
            (frozenset({2}), frozenset({4})),
        }

    @given(signed_trees(max_nu=5))
    @settings(max_examples=20, deadline=None)
    def test_finest_partition_agrees_with_kappa(self, tree):
        order = tuple(sorted(tree.standard))
        finest = tuple(frozenset({v}) for v in order)
        assert kappa_extended(tree, finest).key() == kappa(tree, order).key()

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=20, deadline=None)
    def test_coarsening_contracts(self, tree):
        order = tuple(sorted(tree.standard))
        finest = tuple(frozenset({v}) for v in order)
        fine = kappa_extended(tree, finest)
        coarse = kappa_extended(
            tree, (frozenset(order[:1]), frozenset(order[1:]))
        )
        # the coarse spine arises from the fine one by contractions
        spine = fine
        while len(spine.arcs) > len(coarse.arcs):
            for arc in spine.arcs:
                candidate = contract_arc(spine, arc)
                if coarse.key() <= candidate.key():
                    spine = candidate
                    break
            else:
                break
        assert spine.key() == coarse.key()


class TestBstSpecialization:
    @staticmethod
    def _bst_arcs(values):
        """Classic insertion in reverse order; spine arcs point child -> parent."""
        root = None
        left, right, parent = {}, {}, {}
        for value in reversed(values):
            if root is None:
                root = value
                continue
            node = root
            while True:
                if value < node:
                    if node in left:
                        node = left[node]
                    else:
                        left[node] = value
                        parent[value] = node
                        break
                else:
                    if node in right:
                        node = right[node]
                    else:
                        right[node] = value
                        parent[value] = node
                        break
        return {(child, parents) for child, parents in parent.items()}

    def test_matches_bst_insertion(self):
        tree = path_neg(5)
        for order in permutations(range(1, 6)):
            spine = kappa(tree, order)
            arcs = {
                (next(iter(t)), next(iter(h))) for t, h in spine.arcs
            }
            assert arcs == self._bst_arcs(list(order))


def backtrack_fiber(spine):
    """Oracle: the linear extensions by recursive backtracking on label sets."""
    preds = {next(iter(label)): set() for label in spine.nodes}
    for tail, head in spine.arcs:
        preds[next(iter(head))].add(next(iter(tail)))
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

    backtrack([], set(), set(preds))
    return tuple(extensions)


class TestFibers:
    def test_equals_backtracking_on_corpus_and_named_trees(self):
        # corpus() ends with the named trees: htree_eq, htree_diff, spider7
        for tree in corpus(max_nu=5):
            for spine in enumerate_maximal_spines(tree):
                assert fiber(tree, spine) == backtrack_fiber(spine), (tree, spine)

    def test_rejects_a_foreign_spine(self, tripod_neg):
        shifted = Spine.make(
            [{11}, {12}, {13}, {14}], [({11}, {12}), ({12}, {13}), ({13}, {14})]
        )
        smaller = kappa(path_neg(3), (1, 2, 3))
        for spine in shifted, smaller:
            with pytest.raises(
                InvalidSpine, match="spine labels are not standard vertices of the tree"
            ):
                fiber(tripod_neg, spine)

    def test_path_spine_fiber_is_singleton(self, tripod_neg):
        spine = kappa(tripod_neg, (1, 2, 3, 4))
        assert fiber(tripod_neg, spine) == ((1, 2, 3, 4),)

    def test_star_fiber(self, tripod_neg):
        spine = kappa(tripod_neg, (1, 3, 4, 2))
        orders = fiber(tripod_neg, spine)
        assert len(orders) == 6
        assert all(order[-1] == 2 for order in orders)

    def test_fibers_partition(self, tripod_neg):
        total = sum(
            len(fiber(tripod_neg, s))
            for s in enumerate_maximal_spines(tripod_neg)
        )
        assert total == 24

    @given(signed_trees(max_nu=5))
    @settings(max_examples=20, deadline=None)
    def test_fiber_matches_sweep(self, tree):
        owners = {}
        for spine in enumerate_maximal_spines(tree):
            for order in fiber(tree, spine):
                owners[order] = spine.key()
        for order in permutations(sorted(tree.standard)):
            assert kappa(tree, order).key() == owners[order]

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=20, deadline=None)
    def test_fibers_connected_under_adjacent_swaps(self, tree):
        for spine in enumerate_maximal_spines(tree):
            orders = fiber(tree, spine)
            if len(orders) == 1:
                continue
            start = orders[0]
            seen = {start}
            stack = [start]
            while stack:
                current = stack.pop()
                for i in range(len(current) - 1):
                    swapped = list(current)
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    other = tuple(swapped)
                    if other in seen or other not in orders:
                        continue
                    if adjacent_congruent(tree, current, other):
                        seen.add(other)
                        stack.append(other)
            assert seen == set(orders)


class TestAdjacentCongruence:
    def test_path4_non_congruent_pair(self, path4_neg):
        assert not adjacent_congruent(path4_neg, (2, 1, 3, 4), (2, 3, 1, 4))

    def test_tripod_congruent_pair(self, tripod_neg):
        assert adjacent_congruent(tripod_neg, (1, 3, 2, 4), (3, 1, 2, 4))

    def test_non_adjacent_rejected(self, tripod_neg):
        with pytest.raises(NotAdjacent):
            adjacent_congruent(tripod_neg, (1, 2, 3, 4), (4, 3, 2, 1))

    @pytest.mark.parametrize("order_b", [(1, 1, 4, 3), (2, 2, 3, 4), (2, 1, 3), (2, 1, 3, 4, 5)])
    def test_invalid_order_b_comes_before_not_adjacent(self, tripod_neg, order_b):
        # (1, 1, 4, 3) repeats a vertex and differs from order_a in three places
        with pytest.raises(InvalidOrder):
            adjacent_congruent(tripod_neg, (1, 2, 3, 4), order_b)

    def test_equal_orders_are_not_adjacent(self, tripod_neg):
        with pytest.raises(NotAdjacent):
            adjacent_congruent(tripod_neg, (1, 2, 3, 4), (1, 2, 3, 4))

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_witness_rule_matches_sweep_equality(self, tree):
        images = {
            order: kappa(tree, order).key()
            for order in permutations(sorted(tree.standard))
        }
        for order in images:
            for i in range(len(order) - 1):
                swapped = list(order)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                other = tuple(swapped)
                assert adjacent_congruent(tree, order, other) == (
                    images[order] == images[other]
                )


class TestOrientations:
    def test_identity_orientation(self, path4_neg):
        orientation = orientation_of_order(path4_neg, (1, 2, 3, 4))
        assert orientation == {(1, 2): (1, 2), (2, 3): (2, 3), (3, 4): (3, 4)}

    def test_leaves_first(self, tripod_neg):
        orientation = orientation_of_order(tripod_neg, (1, 3, 4, 2))
        assert all(target == 2 for _, target in orientation.values())

    def test_spine_orientation_factors_through_sweep(self, tripod_neg):
        for order in permutations((1, 2, 3, 4)):
            via_spine = tree_orientation_of_spine(
                tripod_neg, kappa(tripod_neg, order)
            )
            assert via_spine == orientation_of_order(tripod_neg, order)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=10, deadline=None)
    def test_factorization_everywhere(self, tree):
        for order in permutations(sorted(tree.standard)):
            assert tree_orientation_of_spine(
                tree, kappa(tree, order)
            ) == orientation_of_order(tree, order)


class TestFanCoverage:
    def test_named_trees_pass(self, tripod_neg, tripod_pos, path4_neg, p3mix):
        assert fan_cover_check(tripod_neg).cones == 16
        assert fan_cover_check(tripod_pos).cones == 16
        assert fan_cover_check(path4_neg).cones == 14
        assert fan_cover_check(p3mix).cones == 5

    def test_bound(self, spider7):
        from arbora.errors import BoundExceeded

        with pytest.raises(BoundExceeded):
            fan_cover_check(spider7, max_nu=5)

    def test_corpus_passes(self):
        for tree in corpus(max_nu=5):
            certificate = fan_cover_check(tree)
            assert certificate.passed, tree
            assert certificate.cones == len(enumerate_maximal_spines(tree))
            assert certificate.order_count == factorial(tree.nu)

    def test_reports_every_dependent_cone(self, htree_eq, monkeypatch):
        monkeypatch.setattr(fans, "_odd_determinant", lambda rows: False)
        monkeypatch.setattr(fans, "_determinant", lambda rows: 0)
        with pytest.raises(VerificationFailure) as failure:
            fan_cover_check(htree_eq)
        first = sorted(map(sorted, flip_graph(htree_eq).spines[0].key()))
        assert str(failure.value) == (
            f"fan check failed: rays-dependent x214, first {first}"
        )

    def test_reports_every_order_outside_its_fiber(self, htree_eq, monkeypatch):
        fixed = flip_graph(htree_eq).spines[0]
        inside = fiber(htree_eq, fixed)
        outside = [o for o in permutations(range(1, 7)) if o not in inside]
        pairs = [arc[:2] for arc in flip_graph(htree_eq).arcs[0]]
        monkeypatch.setattr(fans, "_sweep", lambda tree, order: pairs)
        with pytest.raises(VerificationFailure) as failure:
            fan_cover_check(htree_eq)
        assert len(outside) == 720 - len(inside) > 0
        assert str(failure.value) == (
            f"fan check failed: order-outside-its-fiber x{len(outside)}, "
            f"first {outside[0]}"
        )

    def test_reports_every_wall_side(self, htree_eq, monkeypatch):
        # the first cone's fiber also holds the reverse of its one order: it
        # breaks every arc of that cone and of each flip into it
        first = flip_graph(htree_eq).spines[0]
        (order,) = fiber(htree_eq, first)
        reverse = order[::-1]
        real = fans.fiber

        def widened(tree, spine):
            orders = real(tree, spine)
            return orders + (reverse,) if spine == first else orders

        monkeypatch.setattr(fans, "fiber", widened)
        with pytest.raises(VerificationFailure) as failure:
            fan_cover_check(htree_eq)
        assert reverse == (6, 5, 4, 2, 1, 3)
        assert str(failure.value) == (
            f"fan check failed: duplicate-order x1, first {reverse}; "
            "fiber-sizes x1, first 721; "
            f"wall-side x5, first (1, 2, {reverse}); "
            f"wall-side-neighbor x5, first (5, 4, {reverse})"
        )


def wall_scan(orders, u, v) -> bool:
    """Oracle: u comes before v in every order, one `tuple.index` pair per order."""
    return all(order.index(u) < order.index(v) for order in orders)


class TestAlwaysBefore:
    def assert_agrees_with_wall_scan(self, tree, orders):
        before = _always_before(tree, orders)
        index = tree.standard_index
        for u, v in product(tree.standard, repeat=2):
            assert bool(before[index[v]] >> index[u] & 1) == wall_scan(orders, u, v)

    def test_fibers_of_corpus(self):
        for tree in corpus(max_nu=5, include_named=False):
            for spine in enumerate_maximal_spines(tree):
                self.assert_agrees_with_wall_scan(tree, fiber(tree, spine))

    @given(signed_trees(max_nu=5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_set_of_orders(self, tree, data):
        every = list(permutations(tree.standard))
        orders = tuple(data.draw(st.lists(st.sampled_from(every), max_size=6)))
        self.assert_agrees_with_wall_scan(tree, orders)


def _rank_mod_ones(rays) -> int:
    """Oracle: rank of the ray vectors after quotienting by the all-ones
    direction, by Gaussian elimination on mean-centred `Fraction` rows."""
    if not rays:
        return 0
    n = len(rays[0])
    rows = []
    for ray in rays:
        mean = sum(ray, Fraction(0)) / n
        rows.append([x - mean for x in ray])
    rank = 0
    for col in range(n):
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


def leibniz(rows) -> int:
    """Oracle: the determinant as a signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def spine_rays(tree, spine):
    vertices = sorted(tree.standard)
    return [
        [1 if v in spine.sink_set(arc) else 0 for v in vertices] for arc in spine.arcs
    ]


class TestDeterminant:
    def test_agrees_with_fraction_rank_on_every_corpus_spine(self):
        checked = 0
        for tree in corpus(max_nu=5):
            for spine in enumerate_maximal_spines(tree):
                rays = spine_rays(tree, spine)
                det = _determinant(rays + [[1] * tree.nu])
                assert (det != 0) == (_rank_mod_ones(rays) == len(rays))
                assert abs(det) == 1, (tree, spine)
                masks = [sum(b << i for i, b in enumerate(ray)) for ray in rays]
                assert _odd_determinant(masks + [(1 << tree.nu) - 1])
                checked += 1
        assert checked > 6000

    @pytest.mark.parametrize(
        "rays",
        [
            [[1, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0]],  # a repeated ray
            [[1, 1, 1, 1], [1, 0, 0, 0], [0, 1, 0, 0]],  # a ray equal to all ones
            [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]],  # a sum of two others
        ],
    )
    def test_singular_rays(self, rays):
        assert _determinant(rays + [[1, 1, 1, 1]]) == 0
        assert _rank_mod_ones(rays) < len(rays)

    def test_independent_rays(self):
        rays = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0]]
        assert abs(_determinant(rays + [[1, 1, 1, 1]])) == 1
        assert _rank_mod_ones(rays) == 3

    def test_empty_matrix(self):
        assert _determinant([]) == 1
        assert _odd_determinant([])

    @pytest.mark.parametrize("seed", range(4))
    def test_odd_determinant_is_bareiss_parity(self, seed):
        # random 0/1 matrices, and dependent ones: a repeated row, a zero row,
        # a row that is the sum of two disjoint rows, a row that is the sum
        # of two rows mod 2 only
        rng = random.Random(seed)
        for _ in range(300):
            n = rng.randint(1, 7)
            rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            if n >= 3:
                kind = rng.randrange(5)
                a, b, c = rng.sample(range(n), 3)
                if kind == 1:
                    rows[c] = list(rows[a])
                elif kind == 2:
                    rows[c] = [0] * n
                elif kind == 3:
                    rows[b] = [x & ~y & 1 for x, y in zip(rows[b], rows[a])]
                    rows[c] = [x | y for x, y in zip(rows[a], rows[b])]
                elif kind == 4:
                    rows[c] = [x ^ y for x, y in zip(rows[a], rows[b])]
            masks = [sum(bit << i for i, bit in enumerate(row)) for row in rows]
            assert _odd_determinant(masks) == (_determinant(rows) % 2 == 1), rows

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_leibniz(self, rows):
        assert _determinant(rows) == leibniz(rows)
