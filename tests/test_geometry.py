from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings

from arbora import catalog
from arbora.blocks import enumerate_blocks
from arbora.catalog import path_neg
from arbora.errors import InvalidSpine, NotMaximal, PreconditionViolated, failure_summary
from arbora.fans import fiber, kappa
from arbora.geometry import (
    barycenter,
    common_vertices_para,
    isometric,
    para_summands,
    parallel_facets,
    perm_point,
    realize_polytope,
    singleton_count_recursive,
    singleton_spines,
    vertex_point,
    verify_realization,
    _certify,
    _point,
)
from arbora.spines import (
    Spine,
    enumerate_maximal_spines,
    flip_graph,
    one_node_spine,
    validate_spine,
)
from arbora.trees import FlipAllSigns, FlipLeafSign, build_tree, transform

from conftest import corpus, phantom_trees, signed_trees


def brute_vertex_point(tree, spine):
    """Oracle: count simple node paths one by one."""
    nodes = list(spine.nodes)
    adjacency = {n: [] for n in nodes}
    for tail, head in spine.arcs:
        adjacency[tail].append(head)
        adjacency[head].append(tail)
    paths = []

    def extend(path):
        paths.append(list(path))
        for nxt in adjacency[path[-1]]:
            if nxt not in path:
                extend(path + [nxt])

    for start in nodes:
        extend([start])
    # undirected simple paths counted once each (direction quotient, trivial kept)
    seen = set()
    unique = []
    for path in paths:
        signature = (
            frozenset((tuple(sorted(path[0])), tuple(sorted(path[-1])))),
            tuple(sorted(tuple(sorted(n)) for n in path)),
        )
        if signature not in seen:
            seen.add(signature)
            unique.append(path)
    coords = {}
    for node in nodes:
        (v,) = node
        if v in tree.negatives:
            special = spine.outgoing(node)
        else:
            special = spine.incoming(node)
        avoid = None
        if special:
            avoid = special[0]
        count = 0
        for path in unique:
            if node not in path:
                continue
            if avoid is not None and _path_uses_arc(path, avoid):
                continue
            count += 1
        coords[v] = count if v in tree.negatives else tree.nu + 1 - count
    return coords


def side_set_vertex_point(tree, spine):
    """Oracle: the branch-size formula on frozenset side sets, per node."""
    coords = {}
    for node in spine.nodes:
        (v,) = node
        special = spine.outgoing(node) if v in tree.negatives else spine.incoming(node)
        avoid = special[0] if special else None
        branch_sizes = []
        for arc in spine._incident[node]:
            if arc == avoid:
                continue
            side = spine.source_set(arc) if arc[1] == node else spine.sink_set(arc)
            branch_sizes.append(len(side))
        pairs = sum(a * b for i, a in enumerate(branch_sizes) for b in branch_sizes[:i])
        count = 1 + sum(branch_sizes) + pairs
        coords[v] = count if v in tree.negatives else tree.nu + 1 - count
    return coords


def assert_vertex_points_match_side_sets(tree):
    """`vertex_point`, and `_point` on the flip graph's arcs, equal the oracle."""
    graph = flip_graph(tree)
    for spine, arcs in zip(graph.spines, graph.arcs):
        point = vertex_point(tree, spine)
        assert point == side_set_vertex_point(tree, spine), (tree, spine)
        assert _point(tree, arcs) == point, (tree, spine)
        assert list(point) == sorted(point)


def _path_uses_arc(path, arc):
    for a, b in zip(path, path[1:]):
        if (a, b) == arc or (b, a) == arc:
            return True
    return False


class TestVertexPoint:
    def test_path_spine_is_perm_vertex(self, tripod_neg):
        spine = kappa(tripod_neg, (1, 2, 3, 4))
        assert vertex_point(tripod_neg, spine) == {1: 1, 2: 2, 3: 3, 4: 4}
        assert vertex_point(tripod_neg, spine) == perm_point((1, 2, 3, 4))

    def test_star(self, tripod_neg):
        spine = kappa(tripod_neg, (1, 3, 4, 2))
        assert vertex_point(tripod_neg, spine) == {1: 1, 2: 7, 3: 1, 4: 1}

    def test_flip_difference(self, tripod_neg):
        star = kappa(tripod_neg, (1, 3, 4, 2))
        flipped = Spine.make(
            [frozenset({v}) for v in (1, 2, 3, 4)],
            [
                (frozenset({3}), frozenset({2})),
                (frozenset({4}), frozenset({2})),
                (frozenset({2}), frozenset({1})),
            ],
        )
        assert vertex_point(tripod_neg, flipped) == {1: 4, 2: 4, 3: 1, 4: 1}

    def test_requires_maximal(self, tripod_neg):
        with pytest.raises(NotMaximal):
            vertex_point(tripod_neg, one_node_spine(tripod_neg))

    def test_two_vertex_tree_convention(self):
        tree = build_tree([(1, "-"), (2, "+")], [(1, 2)])
        up = Spine.make([frozenset({1}), frozenset({2})], [(frozenset({1}), frozenset({2}))])
        down = Spine.make([frozenset({1}), frozenset({2})], [(frozenset({2}), frozenset({1}))])
        assert vertex_point(tree, up) == {1: 1, 2: 2}
        assert vertex_point(tree, down) == {1: 2, 2: 1}

    @given(signed_trees(max_nu=5))
    @settings(max_examples=12, deadline=None)
    def test_against_brute_path_count(self, tree):
        for spine in enumerate_maximal_spines(tree)[:8]:
            assert vertex_point(tree, spine) == brute_vertex_point(tree, spine)

    def test_equals_side_set_formula_on_corpus_and_named_trees(self):
        for tree in corpus(max_nu=5):
            assert_vertex_points_match_side_sets(tree)

    @given(phantom_trees(max_vertices=8).filter(lambda tree: tree.nu <= 5))
    @settings(max_examples=30, deadline=None)
    def test_equals_side_set_formula_with_phantoms(self, tree):
        assert_vertex_points_match_side_sets(tree)

    def test_non_standard_vertex_is_an_invalid_spine(self):
        tree = build_tree([(1, "-"), (2, "+"), (3, "-", True)], [(1, 2), (2, 3)])
        spine = Spine.make(
            [frozenset({1}), frozenset({3})], [(frozenset({1}), frozenset({3}))]
        )
        with pytest.raises(InvalidSpine):
            vertex_point(tree, spine)

    def test_cycle_and_two_outgoing_arcs_are_invalid_spines(self):
        tree = path_neg(3)
        one = {v: frozenset({v}) for v in (1, 2, 3)}
        cycle = [(one[1], one[2]), (one[2], one[3]), (one[3], one[1])]
        fork = [(one[2], one[1]), (one[2], one[3])]  # two outgoing sets at a negative 2
        for arcs in (cycle, fork):
            spine = Spine.make(one.values(), arcs)
            with pytest.raises(InvalidSpine):
                vertex_point(tree, spine)

    def test_invalid_one_arc_mutations_raise_on_corpus(self):
        from test_spines import one_arc_mutations

        invalid = 0
        for tree in corpus(4, include_named=False):
            for base in enumerate_maximal_spines(tree):
                for spine in one_arc_mutations(base):
                    if validate_spine(tree, spine):
                        assert vertex_point(tree, spine) == side_set_vertex_point(
                            tree, spine
                        )
                        continue
                    invalid += 1
                    with pytest.raises(InvalidSpine):
                        vertex_point(tree, spine)
        assert invalid > 0

    def test_perm_point(self):
        assert perm_point((1, 2, 3, 4)) == {1: 1, 2: 2, 3: 3, 4: 4}
        assert perm_point((4, 3, 2, 1)) == {4: 1, 3: 2, 2: 3, 1: 4}


class TestRealization:
    def test_counts(self, p3mix, tripod_neg, path4_neg):
        pentagon = realize_polytope(p3mix)
        assert (len(pentagon.vertices), len(pentagon.facets)) == (5, 5)
        tripod = realize_polytope(tripod_neg)
        assert (len(tripod.vertices), len(tripod.facets)) == (16, 10)
        assoc = realize_polytope(path4_neg)
        assert (len(assoc.vertices), len(assoc.facets)) == (14, 9)

    def test_each_vertex_point_computed_once(self, htree_eq, monkeypatch):
        from arbora import geometry

        calls = []
        real = geometry._point

        def counted(tree, arcs):
            calls.append(arcs)
            return real(tree, arcs)

        monkeypatch.setattr(geometry, "_point", counted)
        description = realize_polytope(htree_eq)
        assert description.certificate
        assert len(description.vertices) == 214
        assert len(calls) == 214

    def test_certificates(self, tripod_neg, tripod_pos, htree_diff):
        assert verify_realization(tripod_neg)
        assert verify_realization(tripod_pos)
        assert verify_realization(htree_diff)

    def test_reports_every_failure_kind(self, htree_eq, monkeypatch):
        from arbora import geometry

        real = geometry._point

        def shifted(tree, arcs):
            # every coordinate one too high: each total and each tight block fails
            return {v: value + 1 for v, value in real(tree, arcs).items()}

        monkeypatch.setattr(geometry, "_point", shifted)
        certificate = verify_realization(htree_eq)
        first = enumerate_maximal_spines(htree_eq)[0]
        first_tight = next(
            sorted(b) for b in enumerate_blocks(htree_eq) if b in first.key()
        )
        assert not certificate
        assert certificate.witness == ("total", first.key())
        assert certificate.failures == (
            ("tight", 214 * 5, first_tight),
            ("total", 214, first.key()),
        )

    @given(signed_trees(max_nu=5))
    @settings(max_examples=12, deadline=None)
    def test_small_corpus_certificates(self, tree):
        assert verify_realization(tree)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=12, deadline=None)
    def test_sandwich(self, tree):
        blocks = enumerate_blocks(tree)
        para = {s: v for s, v in para_summands(tree).z}
        for order in permutations(sorted(tree.standard)):
            point = perm_point(order)
            for block in blocks:
                assert sum(point[v] for v in block) >= comb(len(block) + 1, 2)
        for spine in enumerate_maximal_spines(tree):
            point = vertex_point(tree, spine)
            for subset, rhs in para.items():
                assert sum(point[v] for v in subset) >= rhs


def certify_by_block_sums(tree, points):
    """Oracle for `_certify`: each block summed over its members, each flip
    compared on coordinate dicts."""
    graph = flip_graph(tree)
    failures = []
    for spine, point, targets in zip(graph.spines, points, graph.neighbors):
        if sum(point.values()) != comb(tree.nu + 1, 2):
            failures.append(("total", spine.key()))
        nested = spine.key()
        for block in enumerate_blocks(tree):
            value, bound = sum(point[v] for v in block), comb(len(block) + 1, 2)
            if block in nested:
                if value != bound:
                    failures.append(("tight", sorted(block)))
            elif value <= bound:
                failures.append(("strict", sorted(block)))
        for ((u,), (v,)), j in zip(spine.arcs, targets):
            delta = {w: points[j][w] - point[w] for w in point}
            lam = delta[u]
            if lam <= 0 or delta[v] != -lam:
                failures.append(("flip", (u, v)))
            elif any(delta[w] != 0 for w in delta if w not in (u, v)):
                failures.append(("flip-support", (u, v)))
    return (failures[0], failure_summary(failures)) if failures else (None, ())


class TestCertifyOracle:
    TREES = [*corpus(max_nu=5, include_named=False), catalog.htree_eq()]

    @staticmethod
    def assert_agrees(tree, points):
        certificate = _certify(tree, points)
        witness, failures = certify_by_block_sums(tree, points)
        assert (certificate.passed, certificate.witness) == (not failures, witness)
        assert certificate.failures == failures

    def test_true_points(self):
        for tree in self.TREES:
            self.assert_agrees(tree, [_point(tree, a) for a in flip_graph(tree).arcs])

    def test_perturbed_points(self):
        # each vertex moves one coordinate by -1, 0 or 1, so that every
        # failure kind is reached somewhere
        kinds = set()
        for tree in self.TREES:
            points = [_point(tree, a) for a in flip_graph(tree).arcs]
            for k, point in enumerate(points):
                point[tree.standard[k % tree.nu]] += k % 3 - 1
            self.assert_agrees(tree, points)
            kinds.update(kind for kind, *_ in _certify(tree, points).failures)
        assert kinds == {"flip", "flip-support", "strict", "tight", "total"}


class TestParallelFacets:
    def test_tripod(self, tripod_neg):
        pairs = parallel_facets(tripod_neg)
        assert [(sorted(a), sorted(b)) for a, b in pairs] == [
            ([1], [2, 3, 4]),
            ([3], [1, 2, 4]),
            ([4], [1, 2, 3]),
        ]

    def test_count_is_edges(self, path4_neg):
        assert len(parallel_facets(path4_neg)) == 3

    @given(signed_trees(min_nu=2, max_nu=6))
    @settings(max_examples=20, deadline=None)
    def test_signature_independent(self, tree):
        flipped = transform(tree, FlipAllSigns())
        assert len(parallel_facets(tree)) == len(parallel_facets(flipped))
        assert len(parallel_facets(tree)) == tree.nu - 1


class TestPara:
    def test_tripod_weights(self, tripod_neg):
        assert dict(para_summands(tripod_neg).edge_weights) == {
            (1, 2): 3,
            (2, 3): 3,
            (2, 4): 3,
        }

    def test_path_weights(self, path4_neg):
        assert dict(para_summands(path4_neg).edge_weights) == {
            (1, 2): 3,
            (2, 3): 4,
            (3, 4): 3,
        }

    @given(signed_trees(min_nu=2, max_nu=6))
    @settings(max_examples=20, deadline=None)
    def test_edge_cut_rhs_is_binomial(self, tree):
        summands = para_summands(tree)
        z = dict(summands.z)
        for edge in tree.edges:
            side = tree.component_containing(frozenset({edge[1]}), edge[0])
            subset = frozenset(side) & tree.standard_set
            assert z[subset] == comb(len(subset) + 1, 2)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=20, deadline=None)
    def test_y_inverts_to_z(self, tree):
        summands = para_summands(tree)
        z = dict(summands.z)
        y = dict(summands.y)
        for subset, value in z.items():
            assert value == sum(v for s, v in y.items() if s <= subset)


PHANTOM_PATH = build_tree(
    [(1, "-"), (2, "-", True), (3, "-"), (4, "-"), (5, "-", True)],
    [(1, 2), (2, 3), (3, 4), (4, 5)],
)


class TestParallelepipedRefusesPhantoms:
    # unguarded, these gave an empty block, a phantom y support and spines
    # that validate_spine rejects
    def test_parallel_facets(self):
        with pytest.raises(PreconditionViolated):
            parallel_facets(PHANTOM_PATH)

    def test_para_summands(self):
        with pytest.raises(PreconditionViolated):
            para_summands(PHANTOM_PATH)

    def test_common_vertices_para(self):
        with pytest.raises(PreconditionViolated):
            common_vertices_para(PHANTOM_PATH)


class TestCommonVertices:
    def test_all_negative_trees_have_nu(self, tripod_neg, path4_neg):
        assert len(common_vertices_para(tripod_neg)) == 4
        assert len(common_vertices_para(path4_neg)) == 4

    def test_orientations_are_spines(self, tripod_pos):
        for spine in common_vertices_para(tripod_pos):
            assert validate_spine(tripod_pos, spine)

    def test_three_polytope_common_vertices(self, tripod_neg, path4_neg, p3mix):
        # directed-path orientations = common to all three: 2 on paths, 0 else
        assert _linear_orientations(tripod_neg) == 0
        assert _linear_orientations(path4_neg) == 2
        assert _linear_orientations(p3mix) == 2


def _linear_orientations(tree):
    count = 0
    for spine in common_vertices_para(tree):
        if all(
            len(spine.incoming(n)) <= 1 and len(spine.outgoing(n)) <= 1
            for n in spine.nodes
        ):
            count += 1
    return count


class TestSingletons:
    def test_powers_of_two_on_paths(self):
        for n in range(1, 7):
            assert len(singleton_spines(path_neg(n))) == 2 ** (n - 1)

    def test_tripod_count(self, tripod_neg):
        assert len(singleton_spines(tripod_neg)) == 12

    def test_p3mix_orders(self, p3mix):
        orders = [order for _, order in singleton_spines(p3mix)]
        assert sorted(orders) == [(1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1)]

    def test_vertex_is_perm_point(self, tripod_neg):
        for spine, order in singleton_spines(tripod_neg):
            assert vertex_point(tripod_neg, spine) == perm_point(order)
            assert fiber(tripod_neg, spine) == (order,)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=12, deadline=None)
    def test_vertex_matches_perm_exactly_on_singletons(self, tree):
        singleton_keys = {spine.key() for spine, _ in singleton_spines(tree)}
        for spine in enumerate_maximal_spines(tree):
            coords = sorted(vertex_point(tree, spine).values())
            on_perm = coords == list(range(1, tree.nu + 1))
            assert on_perm == (spine.key() in singleton_keys)

    def test_recursion_matches(self, tripod_neg, p3mix, htree_eq, htree_diff, spider7):
        assert singleton_count_recursive(tripod_neg) == 12
        assert singleton_count_recursive(p3mix) == 4
        assert singleton_count_recursive(htree_eq) == len(singleton_spines(htree_eq))
        assert singleton_count_recursive(htree_diff) == len(
            singleton_spines(htree_diff)
        )
        assert singleton_count_recursive(spider7) == len(singleton_spines(spider7))

    def test_recursion_builds_no_spine(self, tripod_neg, monkeypatch):
        from arbora import geometry

        def unused(tree):
            raise AssertionError("the recursion lists the directed-path spines")

        monkeypatch.setattr(geometry, "singleton_spines", unused)
        assert singleton_count_recursive(tripod_neg) == 12

    @given(signed_trees(max_nu=5))
    @settings(max_examples=20, deadline=None)
    def test_recursion_matches_enumeration(self, tree):
        singleton_count_recursive(tree)  # raises RecursionMismatch on failure

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=12, deadline=None)
    def test_every_facet_contains_a_singleton(self, tree):
        covered = set()
        for spine, _ in singleton_spines(tree):
            covered |= spine.key()
        assert covered == set(enumerate_blocks(tree))


class TestBarycenter:
    def test_tripods(self, tripod_neg, tripod_pos):
        assert barycenter(tripod_neg) == {
            1: Fraction(41, 16),
            2: Fraction(37, 16),
            3: Fraction(41, 16),
            4: Fraction(41, 16),
        }
        assert barycenter(tripod_pos) == {
            1: Fraction(39, 16),
            2: Fraction(43, 16),
            3: Fraction(39, 16),
            4: Fraction(39, 16),
        }

    def test_all_negative_paths_centered(self):
        for n in range(1, 7):
            tree = path_neg(n)
            center = Fraction(n + 1, 2)
            assert all(q == center for q in barycenter(tree).values())


class TestIsometry:
    def test_leaf_flip_isometric(self, tripod_neg):
        assert isometric(tripod_neg, transform(tripod_neg, FlipLeafSign(1)))

    def test_global_flip_isometric(self, tripod_neg, htree_diff):
        assert isometric(tripod_neg, transform(tripod_neg, FlipAllSigns()))
        assert isometric(htree_diff, transform(htree_diff, FlipAllSigns()))

    def test_tripods_isometric_by_central_symmetry(self, tripod_neg, tripod_pos):
        # the all-negative and center-positive tripods are anti-isomorphic up
        # to leaf signs, and indeed one vertex set is the central reflection
        # of the other
        assert isometric(tripod_neg, tripod_pos)
        neg_points = {
            tuple(vertex_point(tripod_neg, s)[v] for v in (1, 2, 3, 4))
            for s in enumerate_maximal_spines(tripod_neg)
        }
        pos_points = {
            tuple(vertex_point(tripod_pos, s)[v] for v in (1, 2, 3, 4))
            for s in enumerate_maximal_spines(tripod_pos)
        }
        assert {tuple(5 - x for x in p) for p in neg_points} == pos_points

    def test_different_shapes_not_isometric(self, path4_neg, tripod_neg):
        assert not isometric(path4_neg, tripod_neg)
