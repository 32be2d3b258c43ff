import dataclasses
import gc
import json
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbora.errors import (
    DuplicateId,
    EmptyTree,
    NotATree,
    PreconditionViolated,
    RootIsPhantom,
)
from arbora.catalog import path_neg, tree_shapes
from arbora.trees import (
    PROP18_MODES,
    FlipAllSigns,
    FlipLeafSign,
    TOP,
    Record,
    Relabel,
    Sign,
    SignedTree,
    SwitchAdjacent,
    build_tree,
    boundary_graph,
    boundary_neighbors,
    boundary_walk,
    canonical_edge,
    phantom_split,
    signature_classes,
    signed_isomorphism,
    transform,
    tree_cached,
    tree_from_json,
    tree_to_json,
)

from conftest import corpus, phantom_trees, signed_trees


class Point(Record):
    x: object
    y: object = 0


class Twin(Record):
    x: object
    y: object = 0


@dataclasses.dataclass(frozen=True)
class DataPoint:
    """The frozen dataclass that `Point` stands in for: the oracle of its behaviour."""

    x: object
    y: object = 0


class TestRecord:
    def test_positional_keyword_and_default_construction(self):
        assert Point(1) == Point(1, 0) == Point(x=1) == Point(y=0, x=1)
        assert (Point(1, 2).x, Point(1, 2).y, Point(y=3, x=4).y) == (1, 2, 3)

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), ((), {"y": 1}), ((1, 2, 3), {}), ((1,), {"z": 2}), ((1,), {"x": 1})],
        ids=["missing", "missing-with-default-given", "extra", "unknown", "repeated"],
    )
    def test_bad_fields_raise_type_error_as_a_dataclass_does(self, args, kwargs):
        with pytest.raises(TypeError):
            DataPoint(*args, **kwargs)
        with pytest.raises(TypeError):
            Point(*args, **kwargs)

    def test_equal_only_to_the_same_class(self):
        assert Point(1, 2) == Point(1, 2) and Point(1, 2) != Point(2, 1)
        assert Point(1, 2) != Twin(1, 2)
        assert Point(1, 2) != (1, 2)
        assert Point(1, 2).__eq__(Twin(1, 2)) is NotImplemented
        assert Point(1, 2).__eq__((1, 2)) is NotImplemented
        assert len({Point(1, 2), Point(1, 2), Twin(1, 2)}) == 2

    @pytest.mark.parametrize("values", [(1, 2), ("a", (frozenset({3}), None)), (Sign.POSITIVE, 0)])
    def test_hash_and_repr_are_the_dataclass_ones(self, values):
        assert hash(Point(*values)) == hash(DataPoint(*values)) == hash(values)
        assert repr(Point(*values)) == repr(DataPoint(*values)).replace("DataPoint", "Point")
        assert hash(FlipAllSigns()) == hash(())
        assert hash(FlipLeafSign(values)) == hash((values,))
        assert repr(FlipAllSigns()) == "FlipAllSigns()"

    def test_fields_cannot_be_assigned_or_deleted(self):
        point = Point(1, 2)
        for change in (
            lambda: setattr(point, "x", 3),
            lambda: setattr(point, "z", 3),
            lambda: delattr(point, "x"),
        ):
            with pytest.raises(AttributeError):
                change()
        assert point == Point(1, 2)

    def test_tree_keeps_cached_properties_a_weak_reference_and_one_hash(self):
        tree = build_tree([(1, "-"), (2, "+")], [(1, 2)])
        assert tree.standard == (1, 2) and tree.__dict__["standard"] is tree.standard
        assert weakref.ref(tree)() is tree
        cached = set(tree.__dict__)
        assert hash(tree) == hash((tree.vertices, tree.signs, tree.phantoms, tree.edges))
        assert set(tree.__dict__) == cached  # the record hash, computed anew
        with pytest.raises(AttributeError):
            tree.vertices = ()


class TestBuildTree:
    def test_tripod(self, tripod_neg):
        assert tripod_neg.nu == 4
        assert len(tripod_neg.edges) == 3
        assert tripod_neg.negatives == frozenset({1, 2, 3, 4})

    def test_single_vertex(self):
        tree = build_tree([(1, "-")], [])
        assert tree.nu == 1
        assert tree.leaves == (1,)

    def test_disconnected_rejected(self):
        with pytest.raises(NotATree):
            build_tree([(i, "-") for i in range(1, 5)], [(1, 2), (3, 4)])

    def test_cycle_rejected(self):
        with pytest.raises(NotATree):
            build_tree([(i, "-") for i in range(1, 4)], [(1, 2), (2, 3), (3, 1)])

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            build_tree([(1, "-"), (1, "+")], [])

    def test_empty(self):
        with pytest.raises(EmptyTree):
            build_tree([], [])

    def test_all_phantom_rejected(self):
        with pytest.raises(EmptyTree):
            build_tree([(1, "-", True)], [])

    def test_nan_id_rejected(self):
        nan = float("nan")
        with pytest.raises(PreconditionViolated):
            build_tree([(nan, "-"), (2, "-")], [(nan, 2)])
        with pytest.raises(PreconditionViolated):
            tree_from_json('{"vertices": [{"id": NaN}, {"id": 2}], "edges": [[NaN, 2]]}')

    def test_json_roundtrip(self, p3mix):
        assert tree_from_json(tree_to_json(p3mix)) == p3mix

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, {"q": True}])
    def test_json_phantom_must_be_boolean(self, flag):
        document = {
            "vertices": [{"id": "1"}, {"id": "2", "phantom": flag}],
            "edges": [["1", "2"]],
        }
        with pytest.raises(PreconditionViolated):
            tree_from_json(document)

    def test_edges_keep_the_declared_ids(self):
        # the file names vertex 1 as 1.0 in an edge: the tree keeps the int
        tree = tree_from_json('{"vertices": [{"id": 1}, {"id": 2}, {"id": 3}], '
                              '"edges": [[1.0, 2], [2, 3]]}')
        assert [repr(v) for edge in tree.edges for v in edge] == ["1", "2", "2", "3"]
        assert [repr(v) for v in tree.adjacency[2]] == ["1", "3"]
        assert json.dumps(tree_to_json(tree)["edges"]) == "[[1, 2], [2, 3]]"
        tree = build_tree([(1, "-"), (2, "+")], [(True, 2)])
        assert [repr(v) for v in tree.edges[0]] == ["1", "2"]

    @pytest.mark.parametrize("edge", ["12", ["1"], ["1", "2", "3"], {"1": "2"}, 12])
    def test_json_edge_must_be_a_pair_list(self, edge):
        document = {"vertices": [{"id": "1"}, {"id": "2"}], "edges": [edge]}
        with pytest.raises(NotATree):
            tree_from_json(document)


def assert_path_masks_equal_paths(tree):
    """Entry [i][j] holds the standard vertices strictly inside `path_between`."""
    index = tree.standard_index
    for u in tree.standard:
        for v in tree.standard:
            inner = tree.path_between(u, v)[1:-1]
            expected = sum(1 << index[w] for w in inner if w in index)
            assert tree.path_masks[index[u]][index[v]] == expected, (tree, u, v)


def assert_branch_masks_equal_components(tree):
    """Entry [w][x] holds the standard vertices of `component_containing({w}, x)`."""
    index = tree.standard_index
    for w in tree.standard:
        for x in tree.standard:
            if x != w:
                component = tree.component_containing({w}, x)
                expected = sum(1 << index[y] for y in component if y in index)
                assert tree.branch_masks[index[w]][index[x]] == expected, (tree, w, x)


class TestPathsComponents:
    def test_path(self, tripod_neg):
        assert tripod_neg.path_between(1, 3) == (1, 2, 3)
        assert tripod_neg.path_between(2, 2) == (2,)

    def test_path_masks(self, tripod_neg):
        # standard vertices 1, 2, 3, 4 are the bits 1, 2, 4, 8; only 2 is inner
        assert tripod_neg.path_masks == (
            (0, 0, 2, 2),
            (0, 0, 0, 0),
            (2, 0, 0, 2),
            (2, 0, 2, 0),
        )

    def test_path_masks_equal_paths_on_corpus(self):
        for tree in corpus(max_nu=5):
            assert_path_masks_equal_paths(tree)

    @given(phantom_trees(max_vertices=9))
    @settings(max_examples=60, deadline=None)
    def test_path_masks_equal_paths_with_phantoms(self, tree):
        assert_path_masks_equal_paths(tree)

    def test_branch_masks_equal_components_on_corpus(self):
        for tree in corpus(max_nu=5):
            assert_branch_masks_equal_components(tree)

    @given(phantom_trees(max_vertices=9))
    @settings(max_examples=60, deadline=None)
    def test_branch_masks_equal_components_with_phantoms(self, tree):
        assert_branch_masks_equal_components(tree)

    def test_components(self, tripod_neg):
        comps = tripod_neg.components({2})
        assert sorted(sorted(c) for c in comps) == [[1], [3], [4]]

    def test_component_containing(self, path4_neg):
        assert path4_neg.component_containing({3}, 1) == frozenset({1, 2})

    def test_long_path_needs_no_recursion(self):
        tree = path_neg(3000)
        assert tree.path_between(1, 3000) == tuple(range(1, 3001))
        assert tree.components({1500}) == (
            frozenset(range(1, 1500)),
            frozenset(range(1501, 3001)),
        )
        assert signed_isomorphism(tree, tree, "exact") == {v: v for v in tree.vertices}

    @given(phantom_trees(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_walks_give_the_path_and_the_components(self, tree, data):
        u = data.draw(st.sampled_from(tree.vertices))
        v = data.draw(st.sampled_from(tree.vertices))
        path = tree.path_between(u, v)
        assert (path[0], path[-1]) == (u, v)
        assert len(set(path)) == len(path)
        assert all(tree.has_edge(x, y) for x, y in zip(path, path[1:]))

        deleted = frozenset(data.draw(st.sets(st.sampled_from(tree.vertices))))
        comps = tree.components(deleted)
        assert [min(c) for c in comps] == sorted(min(c) for c in comps)
        members = sorted(x for c in comps for x in c)
        assert members == sorted(frozenset(tree.vertices) - deleted)
        kept_edges = [e for e in tree.edges if not deleted & set(e)]
        inside = [sum(1 for x, y in kept_edges if x in c and y in c) for c in comps]
        assert inside == [len(c) - 1 for c in comps]  # each one connected
        assert sum(inside) == len(kept_edges)  # and no edge joins two of them
        for c in comps:
            assert tree.component_containing(deleted, max(c)) == c


class TestTransform:
    def test_flip_all(self, tripod_neg):
        flipped = transform(tripod_neg, FlipAllSigns())
        assert flipped.positives == frozenset({1, 2, 3, 4})
        assert transform(flipped, FlipAllSigns()) == tripod_neg

    def test_flip_leaf_preserves_blocks(self, tripod_neg):
        from arbora.blocks import enumerate_blocks

        flipped = transform(tripod_neg, FlipLeafSign(1))
        assert flipped.sign_of(1) is Sign.POSITIVE
        assert enumerate_blocks(flipped) == enumerate_blocks(tripod_neg)
        assert transform(flipped, FlipLeafSign(1)) == tripod_neg

    def test_flip_leaf_requires_leaf(self, tripod_neg):
        with pytest.raises(PreconditionViolated):
            transform(tripod_neg, FlipLeafSign(2))

    def test_switch_adjacent(self, p3mix):
        switched = transform(p3mix, SwitchAdjacent(1, 2))
        assert [switched.sign_of(i).value for i in (1, 2, 3)] == ["+", "-", "-"]

    def test_switch_requires_opposite_signs(self, tripod_neg):
        with pytest.raises(PreconditionViolated):
            transform(tripod_neg, SwitchAdjacent(1, 2))

    def test_switch_requires_low_degree(self, tripod_pos):
        with pytest.raises(PreconditionViolated):
            transform(tripod_pos, SwitchAdjacent(1, 2))

    def test_relabel(self, p3mix):
        relabeled = transform(p3mix, Relabel.of({1: 3, 2: 2, 3: 1}))
        assert relabeled.sign_of(3) is Sign.NEGATIVE
        assert relabeled.sign_of(2) is Sign.POSITIVE

    @given(signed_trees(max_nu=6))
    def test_flip_all_involution(self, tree):
        assert transform(transform(tree, FlipAllSigns()), FlipAllSigns()) == tree


class TestIsomorphism:
    def test_exact_identity(self, tripod_neg):
        assert signed_isomorphism(tripod_neg, tripod_neg, "exact") is not None

    def test_anti_with_global_flip(self, tripod_neg):
        flipped = transform(tripod_neg, FlipAllSigns())
        assert signed_isomorphism(tripod_neg, flipped, "anti") is not None

    def test_tripods_not_isomorphic_up_to_leaves(self, tripod_neg, tripod_pos):
        assert signed_isomorphism(tripod_neg, tripod_pos, "up_to_leaf_signs") is None

    def test_tripods_anti_isomorphic_up_to_leaves(self, tripod_neg, tripod_pos):
        assert (
            signed_isomorphism(tripod_neg, tripod_pos, "anti_up_to_leaf_signs")
            is not None
        )

    def test_mapping_preserves_edges(self, htree_eq):
        mapping = signed_isomorphism(htree_eq, htree_eq, "exact")
        for u, v in htree_eq.edges:
            assert htree_eq.has_edge(mapping[u], mapping[v])

    @given(signed_trees(max_nu=5))
    @settings(max_examples=40)
    def test_exact_self_isomorphism(self, tree):
        assert signed_isomorphism(tree, tree, "exact") is not None


# -- oracles: the backtracking searches that the AHU classes replaced -------


def unsigned_automorphisms(tree):
    """All edge-preserving bijections of the vertex set."""
    vertices = list(tree.vertices)
    edges = set(tree.edges)
    results = []

    def backtrack(assignment):
        if len(assignment) == len(vertices):
            results.append(dict(assignment))
            return
        v = vertices[len(assignment)]
        for w in vertices:
            if w in assignment.values():
                continue
            if tree.degree(v) != tree.degree(w):
                continue
            ok = True
            for u, img in assignment.items():
                has = (min(u, v), max(u, v)) in edges
                has_img = (min(img, w), max(img, w)) in edges
                if has != has_img:
                    ok = False
                    break
            if ok:
                assignment[v] = w
                backtrack(assignment)
                del assignment[v]

    backtrack({})
    return tuple(results)


def oracle_signature_classes(tree):
    """The orbit search that applies every automorphism to every signature."""
    vertices = list(tree.standard)
    index = {v: i for i, v in enumerate(vertices)}
    autos = unsigned_automorphisms(tree)
    leaves = [v for v in vertices if tree.degree(v) == 1]
    switchable = [
        (u, v)
        for u, v in tree.edges
        if tree.degree(u) <= 2 and tree.degree(v) <= 2
    ]

    def neighbors(signature):
        out = set()
        out.add(tuple("-" if s == "+" else "+" for s in signature))
        for leaf in leaves:
            flipped = list(signature)
            i = index[leaf]
            flipped[i] = "-" if flipped[i] == "+" else "+"
            out.add(tuple(flipped))
        for auto in autos:
            out.add(tuple(signature[index[auto[v]]] for v in vertices))
        for u, v in switchable:
            i, j = index[u], index[v]
            if signature[i] != signature[j]:
                swapped = list(signature)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                out.add(tuple(swapped))
        return out

    seen = set()
    representatives = []
    for bits in sorted(product("-+", repeat=len(vertices))):
        if bits in seen:
            continue
        representatives.append(bits)
        frontier = [bits]
        seen.add(bits)
        while frontier:
            current = frontier.pop()
            for nxt in neighbors(current):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return tuple(representatives)


def oracle_signed_isomorphism(tree_a, tree_b, mode="exact"):
    """Backtracking search for an isomorphism with the mode's sign condition."""
    if len(tree_a.vertices) != len(tree_b.vertices):
        return None
    if len(tree_a.standard) != len(tree_b.standard):
        return None

    anti = mode.startswith("anti")
    leaves_free = mode.endswith("up_to_leaf_signs")

    def sign_ok(u, w) -> bool:
        if tree_a.is_phantom(u) != tree_b.is_phantom(w):
            return False
        if tree_a.is_phantom(u):
            return True
        if leaves_free and tree_a.is_leaf(u) and tree_b.is_leaf(w):
            return True
        sa, sb = tree_a.sign_of(u), tree_b.sign_of(w)
        return (sa is not sb) if anti else (sa is sb)

    b_vertices = list(tree_b.vertices)

    def extend(assignment, frontier):
        if not frontier:
            if len(assignment) == len(tree_a.vertices):
                return dict(assignment)
            return None
        u = frontier[0]
        placed = assignment[u]
        todo = [n for n in tree_a.adjacency[u] if n not in assignment]
        if not todo:
            return extend(assignment, frontier[1:])
        n = todo[0]
        for w in tree_b.adjacency[placed]:
            if w in assignment.values():
                continue
            if tree_a.degree(n) != tree_b.degree(w) or not sign_ok(n, w):
                continue
            assignment[n] = w
            result = extend(assignment, frontier + [n])
            if result is not None:
                return result
            del assignment[n]
        return None

    root = tree_a.vertices[0]
    for target in b_vertices:
        if tree_a.degree(root) != tree_b.degree(target) or not sign_ok(root, target):
            continue
        result = extend({root: target}, [root])
        if result is not None:
            return result
    return None


def assert_agrees_with_oracle(tree_a, tree_b, mode):
    """Same verdict as the backtracking search, and a mapping that keeps everything."""
    mapping = signed_isomorphism(tree_a, tree_b, mode)
    assert (mapping is None) == (oracle_signed_isomorphism(tree_a, tree_b, mode) is None)
    if mapping is None:
        return
    assert sorted(mapping) == list(tree_a.vertices)
    assert sorted(mapping.values()) == list(tree_b.vertices)
    images = sorted(canonical_edge(mapping[u], mapping[v]) for u, v in tree_a.edges)
    assert images == list(tree_b.edges)
    for v, w in mapping.items():
        assert tree_a.is_phantom(v) == tree_b.is_phantom(w)
        if tree_a.is_phantom(v) or (mode.endswith("leaf_signs") and tree_a.is_leaf(v)):
            continue
        agree = tree_a.sign_of(v) is tree_b.sign_of(w)
        assert agree != mode.startswith("anti")


class TestCanonicalFormOracles:
    def test_isomorphism_agrees_on_corpus_pairs(self):
        by_size = {}
        for tree in corpus(5, include_named=False):
            by_size.setdefault(len(tree.vertices), []).append(tree)
        for trees in by_size.values():
            for tree_a in trees:
                for tree_b in trees:
                    for mode in PROP18_MODES:
                        assert_agrees_with_oracle(tree_a, tree_b, mode)

    @given(phantom_trees(max_vertices=8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_isomorphism_agrees_with_phantoms(self, tree, data):
        other = data.draw(phantom_trees(max_vertices=8))
        if data.draw(st.booleans()):  # a relabelled copy with some signs flipped
            image = data.draw(st.permutations(tree.vertices))
            other = transform(tree, Relabel.of(dict(zip(tree.vertices, image))))
            if data.draw(st.booleans()):
                other = transform(other, FlipAllSigns())
            for leaf in other.leaves:
                if not other.is_phantom(leaf) and data.draw(st.booleans()):
                    other = transform(other, FlipLeafSign(leaf))
        for mode in PROP18_MODES:
            assert_agrees_with_oracle(tree, other, mode)

    def test_signature_classes_agree_on_every_shape(self):
        for n in range(1, 8):
            for edges in tree_shapes(n):
                tree = build_tree([(i, "-") for i in range(1, n + 1)], edges)
                assert signature_classes(tree) == oracle_signature_classes(tree), edges


class TestPhantomSplit:
    def test_singleton_block(self, tripod_neg):
        kept, dropped = phantom_split(tripod_neg, {1})
        assert kept.standard == (1,)
        assert dropped.standard == (2, 3, 4)
        assert kept.edges == tripod_neg.edges

    def test_p3mix_pair(self, p3mix):
        kept, dropped = phantom_split(p3mix, {1, 3})
        assert kept.standard == (1, 3)
        assert dropped.standard == (2,)

    def test_rejects_non_block(self, tripod_neg):
        from arbora.errors import NotABuildingBlock

        with pytest.raises(NotABuildingBlock):
            phantom_split(tripod_neg, {1, 3})


def graph_walk(tree, root) -> frozenset:
    """The boundary walk run on `boundary_graph`: the oracle of `boundary_walk`."""
    graph = boundary_graph(tree)
    start = graph.lift_of[root]
    lifted_nodes = {node: v for v, node in graph.lifts}
    reached, seen, stack = set(), {start}, [start]
    while stack:
        node = stack.pop()
        for nxt in graph.adjacency[node]:
            if nxt in seen:
                continue
            hit = lifted_nodes.get(nxt)
            if hit is not None and hit != root:
                reached.add(hit)
                continue
            vertex, side = nxt
            if side == TOP and vertex != root and not tree.is_phantom(vertex):
                continue
            seen.add(nxt)
            stack.append(nxt)
    return frozenset(reached)


def phantomized(tree, gone: int) -> SignedTree:
    """The tree with the standard vertices of the mask `gone` made phantoms."""
    dropped = {v for i, v in enumerate(tree.standard) if gone >> i & 1}
    return SignedTree(
        tree.vertices,
        tuple(Sign.NEGATIVE if v in dropped else s for v, s in zip(tree.vertices, tree.signs)),
        tuple(ph or v in dropped for v, ph in zip(tree.vertices, tree.phantoms)),
        tree.edges,
    )


class TestBoundaryWalk:
    @given(signed_trees(max_nu=7) | phantom_trees(), st.data())
    @settings(max_examples=80)
    def test_mask_walk_equals_graph_walk(self, tree, data):
        for root, vertex in enumerate(tree.standard):
            assert boundary_neighbors(tree, vertex) == graph_walk(tree, vertex)
            gone = data.draw(st.integers(0, (1 << tree.nu) - 1)) & ~(1 << root)
            reached = boundary_walk(tree, gone, root)
            expected = graph_walk(phantomized(tree, gone), vertex)
            assert {v for i, v in enumerate(tree.standard) if reached >> i & 1} == expected

    def test_p3_all_negative(self):
        tree = build_tree([(1, "-"), (2, "-"), (3, "-")], [(1, 2), (2, 3)])
        assert boundary_neighbors(tree, 2) == frozenset({1, 3})
        assert boundary_neighbors(tree, 1) == frozenset({2})

    def test_p3mix_root_one(self, p3mix):
        assert boundary_neighbors(p3mix, 1) == frozenset({2, 3})

    def test_single_vertex(self):
        tree = build_tree([(1, "-")], [])
        assert boundary_neighbors(tree, 1) == frozenset()

    def test_phantom_root_rejected(self, tripod_neg):
        kept, _ = phantom_split(tripod_neg, {1})
        with pytest.raises(RootIsPhantom):
            boundary_neighbors(kept, 2)

    def test_graph_connected(self, htree_diff):
        graph = boundary_graph(htree_diff)
        seen = {graph.nodes[0]}
        stack = [graph.nodes[0]]
        while stack:
            node = stack.pop()
            for nxt in graph.adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert len(seen) == len(graph.nodes)

    @given(signed_trees(max_nu=6))
    @settings(max_examples=40)
    def test_all_negative_walk_is_adjacency(self, tree):
        from arbora.trees import FlipAllSigns, transform

        negatives_only = tree
        if tree.positives:
            specs = [(v, "-") for v in tree.standard]
            negatives_only = build_tree(specs, tree.edges)
        for root in negatives_only.standard:
            assert boundary_neighbors(negatives_only, root) == frozenset(
                negatives_only.neighbors(root)
            )

    @given(signed_trees(max_nu=6))
    @settings(max_examples=40)
    def test_walk_stays_standard(self, tree):
        for root in tree.standard:
            reached = boundary_neighbors(tree, root)
            assert root not in reached
            assert reached <= tree.standard_set


def lonely_tree():
    """A small tree on string ids."""
    return build_tree(
        [("memo-a", "-"), ("memo-b", "+"), ("memo-c", "-"), ("memo-d", "+")],
        [("memo-a", "memo-b"), ("memo-b", "memo-c"), ("memo-b", "memo-d")],
    )


class TestTreeCache:
    def test_singleton_recursion_adds_no_tree_to_the_memo(self):
        from arbora.geometry import singleton_count_recursive

        tree = lonely_tree()
        assert singleton_count_recursive(tree) == 12
        assert [fn.__name__ for fn in tree._memo] == ["flip_graph"]
        freed = weakref.ref(tree)
        del tree
        assert freed() is None  # no reference cycle of the recursion holds the tree

    def test_flip_graph_dies_with_its_tree(self):
        from arbora.spines import flip_graph

        tree = lonely_tree()
        graph = weakref.ref(flip_graph(tree))
        gc.collect()
        assert graph() is not None
        del tree
        gc.collect()
        assert graph() is None

    def test_equal_trees_keep_their_own_flip_graphs(self):
        from arbora.spines import flip_graph

        first, second = lonely_tree(), lonely_tree()
        assert first == second and first is not second
        graph = flip_graph(first)
        assert flip_graph(first) is graph and first._memo == {flip_graph: graph}
        assert flip_graph(second) is not graph and flip_graph(second) == graph

    @pytest.mark.parametrize("ids", [((1, 2, 3), (1.0, 2.0, 3.0)), ((1, 2), (True, 2))])
    def test_equal_trees_on_equal_ids_keep_their_own_ids(self, ids):
        from arbora.blocks import enumerate_blocks
        from arbora.fans import fiber
        from arbora.spines import flip_graph

        def reprs(vertices):
            return {repr(v) for v in vertices}

        trees = [build_tree(list(zip(vs, "-+-")), list(zip(vs, vs[1:]))) for vs in ids]
        assert trees[0] == trees[1]
        for tree, vs in zip(trees, ids):  # both alive, the first one asked first
            own = reprs(vs)
            blocks = enumerate_blocks(tree)
            assert blocks and all(reprs(block) <= own for block in blocks)
            graph = flip_graph(tree)
            assert reprs(graph.vertices) == own
            for spine in graph.spines:
                assert all(reprs(order) == own for order in fiber(tree, spine))
        freed = [weakref.ref(trees[1]), weakref.ref(flip_graph(trees[1]))]
        del trees, tree, graph, spine
        assert [ref() for ref in freed] == [None, None]  # freed without the cycle collector

    def test_fiber_is_served_from_the_memo_of_an_equal_tree(self):
        from arbora.fans import fiber
        from arbora.spines import enumerate_maximal_spines

        first = lonely_tree()
        spine = enumerate_maximal_spines(first)[0]
        orders = fiber(first, spine)
        assert fiber(lonely_tree(), spine) is orders

    def test_memoizes_per_tree_object_and_forgets_with_the_tree(self):
        class Total:
            def __init__(self, value):
                self.value = value

        calls = []

        @tree_cached
        def total_degree(tree):
            calls.append(id(tree))
            return Total(sum(map(tree.degree, tree.vertices)))

        tree, twin = lonely_tree(), lonely_tree()
        value = total_degree(tree)
        assert value.value == 6 and total_degree(tree) is value
        assert total_degree(twin) is not value and total_degree(twin).value == 6
        assert calls == [id(tree), id(twin)]
        assert tree._memo == {total_degree: value}
        freed = weakref.ref(value)
        del tree, value
        assert freed() is None
