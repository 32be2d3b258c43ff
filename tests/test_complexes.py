import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings

from arbora.blocks import compatible, enumerate_blocks
from arbora.complexes import (
    ComplexStats,
    PseudoManifoldCheck,
    _faces,
    _numbered_facets,
    complex_stats,
    enumerate_nested_sets,
    is_pseudomanifold,
    link_faces,
)
from arbora.errors import NotABuildingBlock
from arbora.spines import enumerate_maximal_spines
from arbora.trees import (
    FlipAllSigns,
    FlipLeafSign,
    Relabel,
    SwitchAdjacent,
    build_tree,
    phantom_split,
    transform,
)

from conftest import corpus, phantom_trees, signed_trees


def clique_facets(tree):
    """Independent facet oracle: maximal cliques of the compatibility relation."""
    blocks = list(enumerate_blocks(tree))
    pairs = {
        (a, b)
        for i, a in enumerate(blocks)
        for b in blocks[i + 1 :]
        if compatible(tree, a, b)
    }

    def ok(face, candidate):
        return all(
            (x, candidate) in pairs or (candidate, x) in pairs for x in face
        )

    facets = set()

    def grow(face, rest):
        extensions = [b for b in rest if ok(face, b)]
        if not extensions:
            facets.add(frozenset(face))
            return
        for i, b in enumerate(extensions):
            grow(face + [b], extensions[i + 1 :])

    grow([], blocks)
    return {f for f in facets if not any(f < g for g in facets)}


def _face_key(face):
    return tuple(sorted((tuple(sorted(b)) for b in face)))


def _expand(facets):
    """Oracle: every subset of every facet, as a frozenset of blocks."""
    faces = set()
    for facet in facets:
        blocks = sorted(facet, key=lambda b: tuple(sorted(b)))
        n = len(blocks)
        for mask in range(1 << n):
            faces.add(frozenset(blocks[i] for i in range(n) if mask >> i & 1))
    return tuple(sorted(faces, key=lambda f: (len(f), _face_key(f))))


def oracle_facets(tree):
    return tuple(sorted((s.key() for s in enumerate_maximal_spines(tree)), key=_face_key))


def oracle_stats(tree, facets):
    f = [0] * tree.nu
    for face in _expand(facets):
        f[len(face)] += 1
    incidence = {}
    for facet in facets:
        for block in facet:
            incidence[block] = incidence.get(block, 0) + 1
    return ComplexStats(tuple(f), tuple(sorted(incidence.values())))


def oracle_pseudomanifold(facets):
    counts = {}
    for facet in facets:
        for block in facet:
            ridge = facet - {block}
            counts[ridge] = counts.get(ridge, 0) + 1
        if not facet:
            counts[frozenset()] = counts.get(frozenset(), 0)
    for ridge, count in sorted(counts.items(), key=lambda kv: _face_key(kv[0])):
        if count != 2:
            return PseudoManifoldCheck(False, (ridge, count))
    return PseudoManifoldCheck(True)


def assert_masks_match_frozensets(tree):
    """The mask-based complex against the frozenset expansion it replaced."""
    facets = oracle_facets(tree)
    assert enumerate_nested_sets(tree, max_only=True) == facets
    assert enumerate_nested_sets(tree) == _expand(facets)
    assert complex_stats(tree) == oracle_stats(tree, facets)
    for block in enumerate_blocks(tree):
        link = _expand(facet - {block} for facet in facets if block in facet)
        assert link_faces(tree, block) == link
    assert is_pseudomanifold(tree) == oracle_pseudomanifold(facets)


class TestMasksAgreeWithFrozensets:
    def test_corpus(self):
        for tree in corpus(max_nu=5):
            assert_masks_match_frozensets(tree)

    @given(phantom_trees(max_vertices=8).filter(lambda tree: tree.nu <= 5))
    @settings(max_examples=40, deadline=None)
    def test_phantom_trees(self, tree):
        assert_masks_match_frozensets(tree)

    @pytest.mark.parametrize(
        "tree",
        [
            build_tree([(1, "-")], []),
            build_tree([(1, "+"), (2, "-", True)], [(1, 2)]),
        ],
    )
    def test_one_vertex_witness(self, tree):
        assert is_pseudomanifold(tree) == PseudoManifoldCheck(False, (frozenset(), 0))
        assert complex_stats(tree) == ComplexStats((1,), ())


def submask_histogram(tree) -> tuple:
    """Oracle: the f-vector as the popcount histogram of every submask of every facet."""
    _, facets = _numbered_facets(tree)
    sizes = Counter(face.bit_count() for face in _faces(facets))
    return tuple(sizes[k] for k in range(tree.nu))


def seeded_phantom_trees(count: int, seed: int) -> list:
    """Random trees of 2 to 9 vertices, about a third of them phantom, at most 7 standard."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        n = rng.randint(2, 9)
        edges = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
        phantoms = [rng.random() < 0.35 for _ in range(n)]
        phantoms[rng.randrange(n)] = False
        specs = [(i + 1, rng.choice("-+"), phantoms[i]) for i in range(n)]
        tree = build_tree(specs, edges)
        if tree.nu <= 7:
            found.append(tree)
    return found


class TestCliqueCount:
    def test_equals_submask_histogram_on_corpus(self):
        for tree in corpus(max_nu=6):
            assert complex_stats(tree).f_complex == submask_histogram(tree), tree

    def test_equals_submask_histogram_on_phantom_trees(self):
        trees = seeded_phantom_trees(60, seed=21)
        assert sum(tree.nu < len(tree.vertices) for tree in trees) > 30
        for tree in trees:
            assert complex_stats(tree).f_complex == submask_histogram(tree), tree


class TestFacets:
    def test_tripod_neg_facet_count(self, tripod_neg):
        assert len(enumerate_nested_sets(tripod_neg, max_only=True)) == 16

    def test_tripod_pos_facet_count(self, tripod_pos):
        assert len(enumerate_nested_sets(tripod_pos, max_only=True)) == 16

    def test_pentagon(self, p3mix):
        facets = enumerate_nested_sets(p3mix, max_only=True)
        assert len(facets) == 5
        assert all(len(f) == 2 for f in facets)

    @given(signed_trees(max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_flip_search_agrees_with_clique_oracle(self, tree):
        via_flips = set(enumerate_nested_sets(tree, max_only=True))
        assert via_flips == clique_facets(tree)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_purity_and_flagness(self, tree):
        facets = enumerate_nested_sets(tree, max_only=True)
        assert all(len(f) == tree.nu - 1 for f in facets)
        faces = set(enumerate_nested_sets(tree))
        # flag property: every pairwise-compatible set is a face
        blocks = list(enumerate_blocks(tree))
        for size in (2, 3):
            for combo in combinations(blocks, size):
                pairwise = all(
                    compatible(tree, a, b) for a, b in combinations(combo, 2)
                )
                assert pairwise == (frozenset(combo) in faces)


class TestStats:
    def test_htree_f_vectors(self, htree_eq, htree_diff):
        assert complex_stats(htree_eq).f_complex == (1, 27, 182, 478, 535, 214)
        assert complex_stats(htree_diff).f_complex == (1, 27, 182, 478, 535, 214)

    def test_htree_profiles_differ(self, htree_eq, htree_diff):
        assert (
            complex_stats(htree_eq).incidence_profile
            != complex_stats(htree_diff).incidence_profile
        )

    def test_tripod_f_vector(self, tripod_neg):
        stats = complex_stats(tripod_neg)
        assert stats.f_complex == (1, 10, 24, 16)
        assert 10 - 24 + 16 == 2

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_euler_relation(self, tree):
        # sphere Euler-Poincare: with the top face appended the alternating
        # sum vanishes, i.e. the plain sum is (-1)^(nu - 1)
        f = complex_stats(tree).f_complex
        total = sum((-1) ** k * f[k] for k in range(len(f)))
        assert total + (-1) ** tree.nu == 0

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_first_entries(self, tree):
        stats = complex_stats(tree)
        assert stats.f_complex[0] == 1
        assert stats.f_complex[1] == len(enumerate_blocks(tree))


class TestLinks:
    def test_split_matches_phantoms(self, tripod_neg):
        kept, dropped = phantom_split(tripod_neg, frozenset({1, 2, 3}))
        assert kept.standard == (1, 2, 3)
        assert dropped.standard == (4,)

    def test_pentagon_vertex_link(self, p3mix):
        faces = link_faces(p3mix, frozenset({1, 3}))
        assert sum(1 for f in faces if len(f) == 1) == 2

    def test_rejects_non_block(self, tripod_neg):
        with pytest.raises(NotABuildingBlock):
            link_faces(tripod_neg, frozenset({1, 3}))

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=10, deadline=None)
    def test_link_f_vector_is_join_convolution(self, tree):
        for block in enumerate_blocks(tree)[:4]:
            faces = link_faces(tree, block)
            f_link = [0] * (tree.nu + 1)
            for face in faces:
                f_link[len(face)] += 1
            kept, dropped = phantom_split(tree, block)
            f_kept = _phantom_f_vector(kept)
            f_dropped = _phantom_f_vector(dropped)
            for k, value in enumerate(f_link):
                expected = sum(
                    f_kept[i] * f_dropped[k - i]
                    for i in range(k + 1)
                    if i < len(f_kept) and k - i < len(f_dropped)
                )
                assert value == expected


def _phantom_f_vector(tree):
    faces = enumerate_nested_sets(tree)
    out = [0] * (tree.nu + 1)
    for face in faces:
        out[len(face)] += 1
    return out


class TestPseudoManifold:
    def test_named_trees(self, tripod_neg, tripod_pos, htree_diff):
        assert is_pseudomanifold(tripod_neg)
        assert is_pseudomanifold(tripod_pos)
        assert is_pseudomanifold(htree_diff)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_small_corpus(self, tree):
        assert is_pseudomanifold(tree)


class TestTransformInvariance:
    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=10, deadline=None)
    def test_f_vector_preserved(self, tree):
        reference = complex_stats(tree).f_complex
        ops = [FlipAllSigns()]
        ops += [FlipLeafSign(v) for v in tree.leaves if not tree.is_phantom(v)]
        ops += [
            SwitchAdjacent(u, v)
            for u, v in tree.edges
            if tree.degree(u) <= 2
            and tree.degree(v) <= 2
            and not tree.is_phantom(u)
            and not tree.is_phantom(v)
            and tree.sign_of(u) is not tree.sign_of(v)
        ]
        for op in ops:
            assert complex_stats(transform(tree, op)).f_complex == reference

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=10, deadline=None)
    def test_incidence_profile_preserved_by_relabel_and_flip(self, tree):
        reference = complex_stats(tree).incidence_profile
        flipped = transform(tree, FlipAllSigns())
        assert complex_stats(flipped).incidence_profile == reference
        shift = {v: v for v in tree.vertices}
        assert complex_stats(transform(tree, Relabel.of(shift))).incidence_profile == reference
