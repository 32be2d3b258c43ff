import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings

from arbora.blocks import enumerate_blocks
from arbora.errors import BoundExceeded, InversionMismatch, PreconditionViolated
from arbora.geometry import vertex_point
from arbora.catalog import htree_diff, htree_eq
from arbora.minkowski import (
    NegativePath,
    _moebius,
    _moebius_table,
    _tight_table,
    minkowski_coefficients,
    moebius_oracle,
    negative_paths,
    path_weight,
    tight_rhs,
    two_level_spine,
)
from arbora.spines import enumerate_maximal_spines, validate_spine
from arbora.trees import build_tree

from conftest import corpus, phantom_trees, signed_trees

TABLE_SUBSETS = [
    frozenset({1}),
    frozenset({2}),
    frozenset({1, 2}),
    frozenset({1, 3}),
    frozenset({1, 2, 3}),
    frozenset({1, 3, 4}),
    frozenset({1, 2, 3, 4}),
]


class TestTwoLevelSpines:
    def test_pair_on_tripod(self, tripod_neg):
        spine = two_level_spine(tripod_neg, {1, 3})
        assert set(spine.nodes) == {frozenset({1}), frozenset({3}), frozenset({2, 4})}
        assert spine.key() == frozenset({frozenset({1}), frozenset({3})})

    def test_positive_center(self, tripod_pos):
        spine = two_level_spine(tripod_pos, {2})
        assert spine.key() == frozenset(
            {frozenset({2, 3, 4}), frozenset({1, 2, 4}), frozenset({1, 2, 3})}
        )

    def test_block_gives_single_arc(self, tripod_neg):
        for block in enumerate_blocks(tripod_neg):
            spine = two_level_spine(tripod_neg, block)
            assert len(spine.arcs) == 1
            assert spine.source_set(spine.arcs[0]) == block

    def test_extremes_collapse(self, tripod_neg):
        assert two_level_spine(tripod_neg, set()).nodes == (frozenset({1, 2, 3, 4}),)
        assert two_level_spine(tripod_neg, {1, 2, 3, 4}).nodes == (
            frozenset({1, 2, 3, 4}),
        )

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_every_node_is_source_or_sink(self, tree):
        for r in range(1, tree.nu):
            for combo in combinations(sorted(tree.standard), r):
                spine = two_level_spine(tree, combo)
                assert validate_spine(tree, spine)
                assert frozenset().union(
                    *(n for n in spine.nodes if n <= frozenset(combo))
                ) == frozenset(combo)
                for node in spine.nodes:
                    incoming = spine.incoming(node)
                    outgoing = spine.outgoing(node)
                    assert not (incoming and outgoing)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_matches_component_description(self, tree):
        # sources sit in the components of the tree minus the negative part
        # of the complement that meet the subset; their arcs are the positive
        # splits inside each component
        for r in range(1, tree.nu):
            for combo in combinations(sorted(tree.standard), r):
                subset = frozenset(combo)
                spine = two_level_spine(tree, subset)
                sources = sorted(
                    (n for n in spine.nodes if n <= subset),
                    key=lambda n: sorted(n),
                )
                outside_neg = (tree.standard_set - subset) & tree.negatives
                hosts = [
                    comp
                    for comp in tree.components(outside_neg)
                    if comp & subset
                ]
                assert len(hosts) == len(sources)
                for source in sources:
                    assert sum(1 for comp in hosts if source <= comp) == 1


def assert_tight_rhs_is_vertex_minimum(tree):
    """The definition of z: the least subset-coordinate sum over all vertices."""
    points = [vertex_point(tree, s) for s in enumerate_maximal_spines(tree)]
    for r in range(1, tree.nu + 1):
        for combo in combinations(sorted(tree.standard), r):
            expected = min(sum(p[v] for v in combo) for p in points)
            assert tight_rhs(tree, combo) == expected, (tree, combo)


class TestTightRhs:
    def test_table_negative_tripod(self, tripod_neg):
        values = [tight_rhs(tripod_neg, s) for s in TABLE_SUBSETS]
        assert values == [1, 1, 3, 2, 6, 3, 10]

    def test_table_positive_tripod(self, tripod_pos):
        values = [tight_rhs(tripod_pos, s) for s in TABLE_SUBSETS]
        assert values == [1, -2, 2, 3, 6, 6, 10]

    def test_blocks_take_binomial_values(self, p3mix):
        for block in enumerate_blocks(p3mix):
            assert tight_rhs(p3mix, block) == comb(len(block) + 1, 2)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=12, deadline=None)
    def test_binomial_value_exactly_on_blocks(self, tree):
        blocks = set(enumerate_blocks(tree))
        for r in range(1, tree.nu):
            for combo in combinations(sorted(tree.standard), r):
                subset = frozenset(combo)
                at_binomial = tight_rhs(tree, subset) == comb(len(subset) + 1, 2)
                assert at_binomial == (subset in blocks)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=12, deadline=None)
    def test_tightness_against_vertices(self, tree):
        assert_tight_rhs_is_vertex_minimum(tree)

    def test_tightness_against_vertices_on_corpus(self):
        for tree in corpus(5):
            assert_tight_rhs_is_vertex_minimum(tree)

    @given(phantom_trees(max_vertices=8).filter(lambda tree: tree.nu <= 5))
    @settings(max_examples=60, deadline=None)
    def test_tightness_against_vertices_with_phantoms(self, tree):
        assert_tight_rhs_is_vertex_minimum(tree)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=12, deadline=None)
    def test_supermodularity(self, tree):
        subsets = [
            frozenset(c)
            for r in range(1, tree.nu + 1)
            for c in combinations(sorted(tree.standard), r)
        ]
        sample = subsets[:: max(1, len(subsets) // 12)]
        for a in sample:
            for b in sample:
                if a | b == tree.standard_set or not (a & b):
                    za = tight_rhs(tree, a)
                    zb = tight_rhs(tree, b)
                    zu = tight_rhs(tree, a | b) if a | b else 0
                    zi = tight_rhs(tree, a & b) if a & b else 0
                    assert za + zb <= zu + zi


class TestNegativePaths:
    def test_all_negative_paths_are_tree_paths(self, tripod_neg):
        members = {tuple(sorted(p.members)) for p in negative_paths(tripod_neg)}
        expected = set()
        for u in (1, 2, 3, 4):
            expected.add((u,))
            for v in (1, 2, 3, 4):
                if u < v:
                    expected.add(tuple(sorted(tripod_neg.path_between(u, v))))
        assert members == expected

    def test_optional_positive_interior(self, tripod_pos):
        members = {tuple(sorted(p.members)) for p in negative_paths(tripod_pos)}
        assert (1, 3) in members
        assert (1, 2, 3) in members
        assert (1, 3, 4) not in members

    def test_endpoints_recorded(self, p3mix):
        for path in negative_paths(p3mix):
            p, q = path.endpoints
            assert p in path.members and q in path.members


class TestPathWeights:
    def test_positive_edge_pair(self, tripod_pos):
        path = NegativePath(frozenset({1, 2}), (1, 2))
        assert path_weight(tripod_pos, path) == 3

    def test_positive_singleton(self, tripod_pos):
        path = NegativePath(frozenset({2}), (2, 2))
        assert path_weight(tripod_pos, path) == -9

    def test_negative_singleton(self, tripod_neg):
        path = NegativePath(frozenset({1}), (1, 1))
        assert path_weight(tripod_neg, path) == 1

    def test_half_integral_leaf_weight_combines(self):
        # a positive leaf on an odd tree has half-integral weight on its own
        tree = build_tree([(1, "-"), (2, "-"), (3, "+")], [(1, 2), (2, 3)])
        weight = path_weight(tree, NegativePath(frozenset({3}), (3, 3)))
        assert weight == Fraction(-3, 2)
        table = minkowski_coefficients(tree)
        assert table.y_of({3}) == int(weight + Fraction(3 * 1, 2) + 1)


class TestCoefficients:
    def test_table_negative(self, tripod_neg):
        table = minkowski_coefficients(tripod_neg)
        assert [table.y_of(s) for s in TABLE_SUBSETS] == [1, 1, 1, 0, 1, 0, 0]
        assert table.checked

    def test_table_positive(self, tripod_pos):
        table = minkowski_coefficients(tripod_pos)
        assert [table.y_of(s) for s in TABLE_SUBSETS] == [1, -2, 3, 1, -1, 0, 0]
        assert table.checked

    def test_all_negative_trees_sum_paths(self, tripod_neg, path4_neg):
        for tree in (tripod_neg, path4_neg):
            table = minkowski_coefficients(tree)
            path_sets = {p.members for p in negative_paths(tree)}
            for subset, value in table.y:
                assert value == (1 if subset in path_sets else 0)

    def test_p3mix_oracle_values(self, p3mix):
        oracle = dict(moebius_oracle(p3mix))
        assert oracle[frozenset({2})] == 0
        assert oracle[frozenset({1, 2})] == 2
        assert oracle[frozenset({1, 2, 3})] == -1
        z = [tight_rhs(p3mix, s) for s in [{1}, {2}, {3}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3}]]
        assert z == [1, 0, 1, 3, 3, 3, 6]

    def test_bound(self, spider7):
        with pytest.raises(BoundExceeded):
            minkowski_coefficients(spider7, max_nu=5)

    def test_phantom_tree_refused(self):
        # the closed form disagrees with Moebius inversion on this tree
        tree = build_tree([(6, "-"), (7, "+"), (9, "-", True)], [(6, 7), (7, 9)])
        with pytest.raises(PreconditionViolated):
            minkowski_coefficients(tree)
        with pytest.raises(PreconditionViolated):
            minkowski_coefficients(tree, check=False)

    def test_perm_is_segment_sum(self):
        # Moebius inversion of the pure binomial right-hand sides supports
        # exactly the singletons and pairs, each with coefficient one
        ground = [1, 2, 3, 4, 5]
        z = {
            frozenset(c): comb(len(c) + 1, 2)
            for r in range(1, 6)
            for c in combinations(ground, r)
        }
        y = _moebius(z)
        assert set(y) == set(z)
        for subset, value in y.items():
            assert value == (1 if len(subset) <= 2 else 0)

    @given(signed_trees(max_nu=5))
    @settings(max_examples=12, deadline=None)
    def test_closed_form_matches_oracle(self, tree):
        table = minkowski_coefficients(tree)
        assert table.checked
        assert dict(table.y) == dict(moebius_oracle(tree))

    def test_unchecked_table_is_not_verified(self, tripod_pos, monkeypatch):
        from arbora import minkowski

        real = minkowski.path_weight
        monkeypatch.setattr(minkowski, "path_weight", lambda t, p: real(t, p) + 1)
        table = minkowski_coefficients(tripod_pos, check=False)
        assert not table.checked
        assert table.y_of({1}) == 2
        with pytest.raises(InversionMismatch):
            minkowski_coefficients(tripod_pos, check=True)

    @given(signed_trees(max_nu=5))
    @settings(max_examples=12, deadline=None)
    def test_moebius_pairing(self, tree):
        table = minkowski_coefficients(tree, check=False)
        y = dict(table.y)
        for subset, z_value in table.z:
            assert z_value == sum(v for s, v in y.items() if s <= subset)
        assert table.z_of(tree.standard_set) == comb(tree.nu + 1, 2)


def subsets_by_mask(tree):
    """(mask, subset) pairs over the nonempty subsets, bit i for standard[i]."""
    return [
        (mask, frozenset(v for i, v in enumerate(tree.standard) if mask >> i & 1))
        for mask in range(1, 1 << tree.nu)
    ]


class TestTables:
    TREES = [*corpus(max_nu=5, include_named=False), htree_eq(), htree_diff()]

    def test_tight_table_equals_tight_rhs(self):
        for tree in self.TREES:
            table = _tight_table(tree)
            assert table[0] == 0
            for mask, subset in subsets_by_mask(tree):
                assert table[mask] == tight_rhs(tree, subset), (tree, subset)

    def test_moebius_table_equals_moebius(self):
        rng = random.Random(7)
        tables = [_tight_table(tree) for tree in self.TREES[::7]]
        for n in range(1, 7):
            tables.append([0] + [rng.randint(-9, 9) for _ in range(2**n - 1)])
        for table in tables:
            nu = len(table).bit_length() - 1
            z = {
                frozenset(i for i in range(nu) if mask >> i & 1): table[mask]
                for mask in range(1, len(table))
            }
            oracle = _moebius(z)
            assert _moebius_table(table)[1:] == [
                oracle[frozenset(i for i in range(nu) if mask >> i & 1)]
                for mask in range(1, len(table))
            ]
