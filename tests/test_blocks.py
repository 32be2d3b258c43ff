from itertools import combinations

import pytest
from hypothesis import given, settings

from arbora import catalog
from arbora.blocks import (
    Compatibility,
    compatibility,
    block_of_tube,
    edge_blocks,
    enumerate_blocks,
    is_building_block,
    open_components,
    reconstruct_tree,
    subtree_of_tube,
    tube_of_block,
)
from arbora.errors import IrrelevantBlock, UnknownEdge, UnknownVertex
from arbora.trees import Sign, build_tree

from conftest import corpus, held_together, phantom_trees, signed_trees


def blocks_as_lists(tree):
    return [sorted(b) for b in enumerate_blocks(tree)]


def path_check(tree, subset):
    """Oracle: convexity read off the tree paths, as (ok, failed)."""
    members = frozenset(subset)

    def convex(vertices, sign):
        for u, v in combinations(sorted(vertices), 2):
            for w in tree.path_between(u, v)[1:-1]:
                if w in tree.standard_set and tree.sign_of(w) is sign and w not in vertices:
                    return False
        return True

    if not convex(members, Sign.NEGATIVE):
        return (False, "negative")
    if not convex(tree.standard_set - members, Sign.POSITIVE):
        return (False, "positive")
    return (True, None)


def path_filter_blocks(tree):
    """Oracle: every proper nonempty subset that passes the path test, canonically."""
    standard = sorted(tree.standard)
    return tuple(
        frozenset(combo)
        for r in range(1, len(standard))
        for combo in combinations(standard, r)
        if path_check(tree, combo)[0]
    )


def path_held_together(tree, vertices, deleted):
    """Oracle: no vertex of `deleted` outside `vertices` on a path joining them."""
    return not any(
        w in deleted and w not in vertices
        for u, v in combinations(sorted(vertices), 2)
        for w in tree.path_between(u, v)
    )


def assert_held_together_matches_paths(tree):
    small = [
        frozenset(combo)
        for r in range(4)
        for combo in combinations(sorted(tree.standard), r)
    ]
    for vertices in small:
        for deleted in small:
            expected = path_held_together(tree, vertices, deleted)
            assert held_together(tree, vertices, deleted) is expected, (
                tree, vertices, deleted
            )


def assert_recognition_matches_paths(tree):
    standard = sorted(tree.standard)
    for r in range(len(standard) + 1):
        for combo in combinations(standard, r):
            check = is_building_block(tree, combo)
            assert (check.ok, check.failed) == path_check(tree, combo), (tree, combo)


class TestRecognition:
    def test_interior_negative_blocks(self, tripod_neg):
        check = is_building_block(tripod_neg, {1, 3})
        assert not check
        assert check.failed == "negative"

    def test_positive_center_allows_gap(self, tripod_pos):
        assert is_building_block(tripod_pos, {1, 3})

    def test_empty_and_full_are_blocks(self, tripod_neg):
        assert is_building_block(tripod_neg, set())
        assert is_building_block(tripod_neg, {1, 2, 3, 4})

    def test_unknown_vertex(self, tripod_neg):
        with pytest.raises(UnknownVertex):
            is_building_block(tripod_neg, {9})

    @pytest.mark.parametrize("name", sorted(catalog.NAMED_TREES))
    def test_agrees_with_path_oracle_on_every_subset(self, name):
        assert_recognition_matches_paths(catalog.NAMED_TREES[name]())

    @given(phantom_trees(max_vertices=8))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_path_oracle_with_phantoms(self, tree):
        assert_recognition_matches_paths(tree)


class TestEnumeration:
    def test_tripod_neg(self, tripod_neg):
        assert blocks_as_lists(tripod_neg) == [
            [1], [2], [3], [4],
            [1, 2], [2, 3], [2, 4],
            [1, 2, 3], [1, 2, 4], [2, 3, 4],
        ]

    def test_tripod_pos(self, tripod_pos):
        assert blocks_as_lists(tripod_pos) == [
            [1], [3], [4],
            [1, 3], [1, 4], [3, 4],
            [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4],
        ]

    def test_p3mix_pentagon(self, p3mix):
        assert blocks_as_lists(p3mix) == [[1], [3], [1, 2], [1, 3], [2, 3]]

    @given(signed_trees(max_nu=6))
    @settings(max_examples=40)
    def test_all_enumerated_pass_recognition(self, tree):
        for block in enumerate_blocks(tree):
            assert is_building_block(tree, block)
            assert block and block != tree.standard_set

    def test_equals_path_filter_on_corpus(self):
        for tree in corpus(max_nu=6):
            assert enumerate_blocks(tree) == path_filter_blocks(tree), tree

    @given(phantom_trees())
    @settings(max_examples=100, deadline=None)
    def test_equals_path_filter_with_phantoms(self, tree):
        assert enumerate_blocks(tree) == path_filter_blocks(tree)


class TestHeldTogether:
    def test_path(self, path4_neg):
        assert held_together(path4_neg, {1, 3}, {4})
        assert not held_together(path4_neg, {1, 3}, {2, 4})
        assert held_together(path4_neg, {1, 2, 3}, {2})  # members do not separate

    def test_equals_path_oracle_on_corpus(self):
        for tree in corpus(max_nu=5):
            assert_held_together_matches_paths(tree)

    @given(phantom_trees(max_vertices=7))
    @settings(max_examples=30, deadline=None)
    def test_equals_path_oracle_with_phantoms(self, tree):
        assert_held_together_matches_paths(tree)


class TestTubes:
    def test_leaf_tube(self, tripod_neg):
        tube = tube_of_block(tripod_neg, {1})
        assert sorted(tube.w_minus) == [1]
        assert sorted(tube.w_plus) == [1, 2, 3, 4]

    def test_whole_tree_sides(self, p3mix):
        tube = tube_of_block(p3mix, {1, 3})
        assert sorted(tube.w_minus) == [1, 2, 3]
        assert sorted(tube.w_plus) == [1, 2, 3]

    def test_open_edge(self):
        tree = build_tree([(1, "+"), (2, "-")], [(1, 2)])
        tube = tube_of_block(tree, {1})
        assert (sorted(tube.w_minus), sorted(tube.w_plus)) == ([1], [2])
        piece = subtree_of_tube(tree, tube)
        assert piece.interior == frozenset()
        assert piece.boundary == frozenset({1, 2})
        assert block_of_tube(tree, tube) == frozenset({1})

    def test_irrelevant_rejected(self, tripod_neg):
        with pytest.raises(IrrelevantBlock):
            tube_of_block(tripod_neg, {1, 2, 3, 4})

    @given(signed_trees(min_nu=2, max_nu=6))
    @settings(max_examples=40)
    def test_round_trip(self, tree):
        for block in enumerate_blocks(tree):
            assert block_of_tube(tree, tube_of_block(tree, block)) == block

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=25)
    def test_subtree_injective(self, tree):
        seen = {}
        for block in enumerate_blocks(tree):
            tube = tube_of_block(tree, block)
            piece = subtree_of_tube(tree, tube)
            key = (piece.interior, piece.boundary)
            assert key not in seen
            seen[key] = block


def set_rule_compatibility(tree, blocks, a, b):
    """Oracle: the rule that looks the union and the meet up among the relevant blocks."""
    if a <= b:
        return Compatibility.NEG_NESTED
    if a >= b:
        return Compatibility.POS_NESTED
    if not (a & b) and (a | b) not in blocks and (a | b) != tree.standard_set:
        return Compatibility.NEG_DISJOINT
    if (a | b) == tree.standard_set and (a & b) not in blocks and bool(a & b):
        return Compatibility.POS_DISJOINT
    return Compatibility.INCOMPATIBLE


def assert_compatibility_matches_set_rule(tree):
    blocks = enumerate_blocks(tree)
    block_set = frozenset(blocks)
    for a in blocks:
        for b in blocks:
            if a != b:
                expected = set_rule_compatibility(tree, block_set, a, b)
                assert compatibility(tree, a, b) is expected, (tree, a, b)


class TestCompatibility:
    def test_nested(self, tripod_neg):
        assert (
            compatibility(tripod_neg, frozenset({1}), frozenset({1, 2, 3}))
            is Compatibility.NEG_NESTED
        )

    def test_negative_disjoint(self, tripod_neg):
        assert (
            compatibility(tripod_neg, frozenset({1}), frozenset({3}))
            is Compatibility.NEG_DISJOINT
        )

    def test_complementary_blocks_incompatible(self):
        tree = build_tree([(1, "-"), (2, "+")], [(1, 2)])
        assert (
            compatibility(tree, frozenset({1}), frozenset({2}))
            is Compatibility.INCOMPATIBLE
        )

    def test_equals_set_rule_on_corpus(self):
        for tree in corpus(max_nu=5):
            assert_compatibility_matches_set_rule(tree)

    @given(phantom_trees(max_vertices=7))
    @settings(max_examples=30, deadline=None)
    def test_equals_set_rule_with_phantoms(self, tree):
        assert_compatibility_matches_set_rule(tree)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=20)
    def test_symmetric_and_unique(self, tree):
        blocks = enumerate_blocks(tree)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                left = compatibility(tree, a, b)
                right = compatibility(tree, b, a)
                flips = {
                    Compatibility.NEG_NESTED: Compatibility.POS_NESTED,
                    Compatibility.POS_NESTED: Compatibility.NEG_NESTED,
                }
                assert right == flips.get(left, left)


class TestEdgeBlocks:
    def test_tripod_edge(self, tripod_neg):
        a, b = edge_blocks(tripod_neg, (2, 1))
        assert (sorted(a), sorted(b)) == ([1], [2, 3, 4])

    def test_path_cut(self, path4_neg):
        a, b = edge_blocks(path4_neg, (2, 3))
        assert (sorted(a), sorted(b)) == ([1, 2], [3, 4])

    def test_htree_central_cut(self, htree_eq):
        a, b = edge_blocks(htree_eq, (3, 4))
        assert (sorted(a), sorted(b)) == ([1, 2, 3], [4, 5, 6])

    def test_unknown_edge(self, tripod_neg):
        with pytest.raises(UnknownEdge):
            edge_blocks(tripod_neg, (1, 3))

    @given(signed_trees(min_nu=2, max_nu=6))
    @settings(max_examples=40)
    def test_complement_pairs_are_exactly_edge_cuts(self, tree):
        blocks = set(enumerate_blocks(tree))
        complementary = {
            frozenset((b, tree.standard_set - b))
            for b in blocks
            if tree.standard_set - b in blocks
        }
        cuts = {frozenset(edge_blocks(tree, e)) for e in tree.edges}
        assert complementary == cuts

    @given(signed_trees(min_nu=2, max_nu=6))
    @settings(max_examples=40)
    def test_singleton_and_cosingleton_iff_leaf(self, tree):
        blocks = set(enumerate_blocks(tree))
        for v in tree.standard:
            both = (
                frozenset({v}) in blocks
                and tree.standard_set - {v} in blocks
            )
            assert both == tree.is_leaf(v)


class TestOpenComponents:
    def test_counts_fully_deleted_edges(self):
        tree = build_tree([(1, "-"), (2, "-"), (3, "-")], [(1, 2), (2, 3)])
        pieces = open_components(tree, {1, 2, 3})
        assert [(sorted(p.interior), sorted(p.boundary)) for p in pieces] == [
            ([], [1, 2]),
            ([], [2, 3]),
        ]

    def test_vertex_components_carry_boundary(self, tripod_neg):
        pieces = open_components(tripod_neg, {2})
        assert [(sorted(p.interior), sorted(p.boundary)) for p in pieces] == [
            ([1], [2]),
            ([3], [2]),
            ([4], [2]),
        ]


class TestReconstruction:
    @given(signed_trees(min_nu=2, max_nu=6))
    @settings(max_examples=40)
    def test_blocks_determine_tree_up_to_leaf_signs(self, tree):
        rebuilt = reconstruct_tree(tree.standard, enumerate_blocks(tree))
        assert rebuilt.edges == tree.edges
        for v in tree.standard:
            if not tree.is_leaf(v):
                assert rebuilt.sign_of(v) is tree.sign_of(v)


class TestTransformInvariance:
    @given(signed_trees(min_nu=2, max_nu=6))
    @settings(max_examples=25)
    def test_block_count_invariant(self, tree):
        from arbora.trees import FlipAllSigns, FlipLeafSign, transform

        count = len(enumerate_blocks(tree))
        assert len(enumerate_blocks(transform(tree, FlipAllSigns()))) == count
        for leaf in tree.leaves:
            if not tree.is_phantom(leaf):
                flipped = transform(tree, FlipLeafSign(leaf))
                assert len(enumerate_blocks(flipped)) == count
