import json
import re

import pytest
from hypothesis import given, settings

from arbora.blocks import is_building_block, open_components
from arbora.catalog import NAMED_TREES
from arbora.complexes import enumerate_nested_sets
from arbora.errors import (
    ArboraError,
    ImproperCut,
    InvalidSpine,
    NotMaximal,
    NotNested,
    SingletonLabel,
    UnknownArc,
    VertexNotInLabel,
)
from arbora.fans import kappa
from arbora.geometry import vertex_point
from arbora.spines import (
    FlipGraph,
    Spine,
    blossom_counts,
    contract_arc,
    cut_subtrees,
    enumerate_maximal_spines,
    flip_arc,
    flip_graph,
    one_node_spine,
    spine_from_json,
    spine_of_nested_set,
    spine_to_json,
    split_node,
    tree_orientation_of_spine,
    validate_spine,
)
from arbora.trees import build_tree

from conftest import corpus, held_together, phantom_trees, signed_trees


def path_spine(*vertices):
    nodes = [frozenset({v}) for v in vertices]
    arcs = [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]
    return Spine.make(nodes, arcs)


def star_into(center, leaves):
    nodes = [frozenset({center})] + [frozenset({v}) for v in leaves]
    arcs = [(frozenset({v}), frozenset({center})) for v in leaves]
    return Spine.make(nodes, arcs)


def components_validate(tree, spine):
    """Oracle: `validate_spine` with the separation read off `tree.components`."""
    labels = list(spine.nodes)
    if not labels:
        return (False, "no nodes")
    if any(not label for label in labels):
        return (False, "empty label")
    if sum(map(len, labels)) != len(frozenset().union(*labels)):
        return (False, "labels overlap")
    if frozenset().union(*labels) != tree.standard_set:
        return (False, "labels do not partition the standard vertices")
    if len(spine.arcs) != len(labels) - 1:
        return (False, "arc count is not node count minus one")
    if any(end not in labels for arc in spine.arcs for end in arc):
        return (False, "arc endpoint is not a node")
    seen, stack = {labels[0]}, [labels[0]]
    while stack:
        for arc in spine._incident[stack.pop()]:
            for end in set(arc) - seen:
                seen.add(end)
                stack.append(end)
    if len(seen) != len(labels):
        return (False, "arcs do not connect the nodes")
    for label in labels:
        for arcs, deleted, side in (
            (spine.incoming(label), label & tree.negatives, "incoming"),
            (spine.outgoing(label), label & tree.positives, "outgoing"),
        ):
            comps = tree.components(deleted)
            used = set()
            for arc in arcs:
                content = (
                    spine.source_set(arc) if side == "incoming" else spine.sink_set(arc)
                )
                homes = [i for i, c in enumerate(comps) if content <= c]
                where = f"at node {sorted(label)}"
                if not homes:
                    return (False, f"{side} set {where} spans several components")
                if homes[0] in used:
                    return (False, f"two {side} sets {where} share a component")
                used.add(homes[0])
    return (True, None)


def spine_of_nested_set_by_rules(tree, nested):
    """Oracle: an independent reconstruction of the spine by endpoint identification.

    A cross-check of `spine_of_nested_set`: arcs (one per block) have
    their endpoints glued according to the nesting pattern, and the labels
    are recovered as the vertices missing from all adjacent source and sink
    sets.
    """
    nested = sorted((frozenset(b) for b in nested), key=sorted)
    n = len(nested)
    if n == 0:
        return one_node_spine(tree)
    rel = {}
    blocks = set(nested)
    full = tree.standard_set
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = nested[i], nested[j]
            if a < b:
                rel[(i, j)] = "sub"
            elif a > b:
                rel[(i, j)] = "sup"
            elif not (a & b) and (a | b) not in blocks and (a | b) != full:
                rel[(i, j)] = "bot"
            elif (a | b) == full and (a & b) not in blocks and (a & b):
                rel[(i, j)] = "top"
            else:
                raise NotNested(f"incompatible blocks {sorted(a)} and {sorted(b)}")

    # union-find on endpoint slots: (i, "head") and (i, "tail")
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for i in range(n):
        find((i, "head"))
        find((i, "tail"))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            r = rel[(i, j)]
            if r == "sub" and not any(
                (rel.get((i, k)) == "sub" and rel.get((k, j)) == "sub")
                or (rel.get((i, k)) == "bot" and rel.get((k, j)) == "top")
                for k in range(n)
                if k not in (i, j)
            ):
                union((i, "head"), (j, "tail"))
            if r == "bot" and i < j and not any(
                (rel.get((i, k)) == "sub" and rel.get((k, j)) == "bot")
                or (rel.get((i, k)) == "bot" and rel.get((k, j)) == "sup")
                for k in range(n)
                if k not in (i, j)
            ):
                union((i, "head"), (j, "head"))
            if r == "top" and i < j and not any(
                (rel.get((i, k)) == "top" and rel.get((k, j)) == "sub")
                or (rel.get((i, k)) == "sup" and rel.get((k, j)) == "top")
                for k in range(n)
                if k not in (i, j)
            ):
                union((i, "tail"), (j, "tail"))

    slots = {}
    for i in range(n):
        for end in ("head", "tail"):
            slots.setdefault(find((i, end)), []).append((i, end))

    labels = {}
    for root, members in slots.items():
        incoming = [i for i, end in members if end == "head"]
        outgoing = [i for i, end in members if end == "tail"]
        label = set(full)
        for i in incoming:
            label -= nested[i]
        for i in outgoing:
            label -= full - nested[i]
        labels[root] = frozenset(label)

    arcs = [(labels[find((i, "tail"))], labels[find((i, "head"))]) for i in range(n)]
    spine = Spine.make(labels.values(), arcs)
    check = validate_spine(tree, spine)
    if not check:
        raise NotNested(f"identification produced an invalid spine: {check.reason}")
    return spine


def frozenset_flip_arc(tree, spine, arc):
    """Oracle: the flip on frozenset labels, with `held_together` on side sets.

    The arc u -> v is reversed; the incoming arc of u rooted on v's side of
    the tree (when present) is re-attached to v, and the outgoing arc of v
    sinking on u's side (when present) is re-attached to u.
    """
    if not spine.is_maximal:
        raise NotMaximal("flips are defined on maximal spines")
    tail, head = (frozenset(arc[0]), frozenset(arc[1]))
    if (tail, head) not in set(spine.arcs):
        raise UnknownArc(f"no arc {arc!r}")
    (u,) = tail
    (v,) = head

    # a positive node has a single incoming arc and it always moves; a
    # negative node moves the incoming arc rooted on v's side of the tree
    arc_i = None
    for cand in spine.incoming(tail):
        if u in tree.positives or held_together(
            tree, spine.source_set(cand) | head, tail
        ):
            arc_i = cand
            break
    # dually: a negative node's unique outgoing arc always moves
    arc_o = None
    for cand in spine.outgoing(head):
        if v in tree.negatives or held_together(
            tree, spine.sink_set(cand) | tail, head
        ):
            arc_o = cand
            break

    new_arcs = []
    for a in spine.arcs:
        if a == (tail, head):
            new_arcs.append((head, tail))
        elif arc_i is not None and a == arc_i:
            new_arcs.append((arc_i[0], head))
        elif arc_o is not None and a == arc_o:
            new_arcs.append((tail, arc_o[1]))
        else:
            new_arcs.append(a)
    result = Spine.make(spine.nodes, new_arcs)
    check = validate_spine(tree, result)
    if not check:
        raise InvalidSpine(f"flip produced an invalid spine: {check.reason}")
    return result


def oracle_flip_graph(tree):
    """Oracle: the breadth-first flip search on `frozenset_flip_arc`.

    Returns the flip graph on the oracle's index arcs and the oracle's spines.
    """
    seed = kappa(tree, tuple(sorted(tree.standard)))
    found = {seed.key(): seed}
    flips = {}  # spine key -> the keys of its flips, aligned with its arcs
    frontier = [seed]
    while frontier:
        nxt = []
        for spine in frontier:
            flips[spine.key()] = targets = []
            for arc in spine.arcs:
                neighbor = frozenset_flip_arc(tree, spine, arc)
                stored = found.setdefault(neighbor.key(), neighbor)
                if stored is neighbor:
                    nxt.append(neighbor)
                assert stored == neighbor
                targets.append(neighbor.key())
        frontier = nxt
    spines = tuple(
        sorted(found.values(), key=lambda s: [(sorted(t), sorted(h)) for t, h in s.arcs])
    )
    index = {s.key(): i for i, s in enumerate(spines)}
    neighbors = tuple(tuple(index[k] for k in flips[s.key()]) for s in spines)
    arcs = tuple(mask_arcs(tree, s) for s in spines)
    return FlipGraph(tree.standard, neighbors, arcs), spines


def assert_flips_agree(tree):
    """Every flip equals the oracle's and exchanges one block; so does the graph."""
    graph = flip_graph(tree)
    for spine in graph.spines:
        for arc in spine.arcs:
            flipped = flip_arc(tree, spine, arc)
            assert flipped == frozenset_flip_arc(tree, spine, arc), (tree, spine, arc)
            assert len(spine.key() - flipped.key()) == 1
            assert len(flipped.key() - spine.key()) == 1
    oracle, spines = oracle_flip_graph(tree)
    assert graph == oracle
    assert graph.spines == spines


def fresh_tree(prefix):
    """A mixed path on ids no other test uses, so no cached flip graph answers."""
    ids = [f"{prefix}{i}" for i in range(4)]
    return build_tree(
        list(zip(ids, "-+--")), [(ids[i], ids[i + 1]) for i in range(3)]
    )


def one_arc_mutations(spine):
    """Every spine made by reversing one arc or moving one arc's head."""
    for k, (tail, head) in enumerate(spine.arcs):
        others = spine.arcs[:k] + spine.arcs[k + 1 :]
        yield Spine.make(spine.nodes, others + ((head, tail),))
        for node in spine.nodes:
            if node not in (tail, head):
                yield Spine.make(spine.nodes, others + ((tail, node),))


def bfs_side_sets(spine):
    """Oracle: the tail side of each arc, by one search per arc."""
    sides = {}
    for arc in spine.arcs:
        seen, stack = {arc[0]}, [arc[0]]
        while stack:
            for other in spine._incident[stack.pop()]:
                if other != arc:
                    for end in set(other) - seen:
                        seen.add(end)
                        stack.append(end)
        sides[arc] = frozenset(v for label in seen for v in label)
    return sides


def mask_arcs(tree, spine):
    """A maximal spine's index arcs: sorted (tail, head, mask of the oracle side set).

    Ends and bits are standard indices.
    """
    index, sides = tree.standard_index, bfs_side_sets(spine)
    arcs = []
    for tail, head in spine.arcs:
        mask = sum(1 << index[v] for v in sides[(tail, head)])
        (t,), (h,) = tail, head
        arcs.append((index[t], index[h], mask))
    return tuple(sorted(arcs))


def assert_mask_check_agrees(tree, reasons):
    """`_check_masks` accepts exactly the valid spines with their own source masks.

    Checked against the components oracle, reason included, on every
    maximal spine and on each one-arc mutation of it (reversed arc or moved
    head), and refusing each copy of it with one mask bit flipped.
    """
    from arbora.spines import _check_masks

    for base in enumerate_maximal_spines(tree):
        for spine in (base, *one_arc_mutations(base)):
            check = _check_masks(tree, mask_arcs(tree, spine))
            expected = components_validate(tree, spine)
            assert (check.ok, check.reason) == expected, (tree, spine)
            reasons.add(check.reason and check.reason.split(" at ")[0])
        arcs = mask_arcs(tree, base)
        for k, (t, h, mask) in enumerate(arcs):
            for bit in range(tree.nu):
                flipped = arcs[:k] + ((t, h, mask ^ 1 << bit),) + arcs[k + 1 :]
                check = _check_masks(tree, flipped)
                assert not check, (tree, flipped)
                reasons.add(check.reason)


def assert_side_sets_agree(tree):
    """The one-walk side sets equal the per-arc search on every spine that is a tree.

    Checked on every maximal spine, its one-arc contractions and its one-arc
    mutations; a mutation that closes a cycle is refused.
    """
    for base in enumerate_maximal_spines(tree):
        contracted = [contract_arc(base, arc) for arc in base.arcs]
        for spine in (base, *contracted, *one_arc_mutations(base)):
            try:
                sides = spine._side_sets
            except InvalidSpine:
                check = validate_spine(tree, spine)
                assert check.reason == "arcs do not connect the nodes", spine
            else:
                assert sides == bfs_side_sets(spine), spine


def contracted_spines(tree, mutated=True):
    """Every one-arc contraction of every maximal spine, and (if `mutated`) its one-arc mutations."""
    for base in enumerate_maximal_spines(tree):
        for arc in base.arcs:
            merged = contract_arc(base, arc)
            yield merged
            if mutated:
                yield from one_arc_mutations(merged)


def assert_validation_agrees(tree, mutated=True):
    """`validate_spine` gives the components oracle's (ok, reason) on contracted spines.

    Returns the most vertices that a checked node deletes on a side where
    it has arcs: from 2 on, its component rows are an intersection.
    """
    deepest = 0
    for spine in contracted_spines(tree, mutated):
        check = validate_spine(tree, spine)
        assert (check.ok, check.reason) == components_validate(tree, spine), (tree, spine)
        for label in spine.nodes:
            for arcs, part in (
                (spine.incoming(label), tree.negatives),
                (spine.outgoing(label), tree.positives),
            ):
                if arcs:
                    deepest = max(deepest, len(label & part))
    return deepest


class TestMaskCheck:
    def test_agrees_with_validate_spine_on_corpus(self):
        reasons = set()
        for tree in corpus(5, include_named=False):
            assert_mask_check_agrees(tree, reasons)
        assert reasons == {
            None,
            "arcs do not connect the nodes",
            "source masks are not the spine's",
            "incoming set",
            "outgoing set",
            "two incoming sets",
            "two outgoing sets",
        }

    @pytest.mark.parametrize("name", sorted(NAMED_TREES))
    def test_agrees_with_validate_spine_on_named_trees(self, name):
        assert_mask_check_agrees(NAMED_TREES[name](), set())

    @given(phantom_trees(max_vertices=8).filter(lambda tree: tree.nu <= 5))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_validate_spine_with_phantoms(self, tree):
        assert_mask_check_agrees(tree, set())

    def test_refuses_a_wrong_count_and_a_foreign_vertex(self, tripod_neg):
        from arbora.spines import _check_masks

        arcs = mask_arcs(tripod_neg, path_spine(1, 2, 3, 4))
        assert _check_masks(tripod_neg, arcs)
        assert _check_masks(tripod_neg, arcs[:-1]).reason == (
            "arc count is not node count minus one"
        )
        (t, h, mask), *rest = arcs
        assert _check_masks(tripod_neg, ((t, 9, mask), *rest)).reason == (
            "arc endpoint is not a node"
        )


class TestSideSets:
    def test_one_walk_equals_search_on_corpus(self):
        for tree in corpus(5, include_named=False):
            assert_side_sets_agree(tree)

    @pytest.mark.parametrize("name", sorted(NAMED_TREES))
    def test_one_walk_equals_search_on_named_trees(self, name):
        assert_side_sets_agree(NAMED_TREES[name]())

    @given(phantom_trees(max_vertices=8).filter(lambda tree: tree.nu <= 5))
    @settings(max_examples=40, deadline=None)
    def test_one_walk_equals_search_with_phantoms(self, tree):
        assert_side_sets_agree(tree)

    def test_forest_sides_stay_in_their_component(self):
        # a forest has no side sets; validate_spine refuses it before asking
        spine = Spine.make(
            [frozenset({1}), frozenset({2, 3}), frozenset({4}), frozenset({5})],
            [(frozenset({1}), frozenset({2, 3})), (frozenset({5}), frozenset({4}))],
        )
        with pytest.raises(InvalidSpine):
            spine.key()


class TestValidation:
    def test_directed_path(self, tripod_neg):
        assert validate_spine(tripod_neg, path_spine(1, 2, 3, 4))

    def test_star_into_center(self, tripod_neg):
        assert validate_spine(tripod_neg, star_into(2, [1, 3, 4]))

    def test_star_out_of_negative_center(self, tripod_neg):
        spine = Spine.make(
            [frozenset({v}) for v in (1, 2, 3, 4)],
            [(frozenset({2}), frozenset({v})) for v in (1, 3, 4)],
        )
        check = validate_spine(tripod_neg, spine)
        assert not check
        assert "outgoing" in check.reason

    def test_partition_required(self, tripod_neg):
        spine = Spine.make([frozenset({1, 2})], [])
        assert not validate_spine(tripod_neg, spine)

    def test_agrees_with_components_oracle_on_mutated_spines(self):
        reasons = set()
        for name, make in sorted(NAMED_TREES.items()):
            tree = make()
            for base in enumerate_maximal_spines(tree):
                for spine in one_arc_mutations(base):
                    check = validate_spine(tree, spine)
                    assert (check.ok, check.reason) == components_validate(
                        tree, spine
                    ), (name, spine)
                    reasons.add(check.reason and check.reason.split(" at ")[0])
        # valid spines and both separation failures on both sides of a node
        assert reasons >= {None, "incoming set", "outgoing set"}
        assert reasons >= {"two incoming sets", "two outgoing sets"}

    def test_agrees_with_components_oracle_on_contracted_spines(self):
        # mutations up to nu = 4 only: on spider7 and the H-trees they take 20 s
        trees = corpus(max_nu=4)
        assert max(assert_validation_agrees(tree, tree.nu <= 4) for tree in trees) >= 2

    @given(phantom_trees(max_vertices=8).filter(lambda tree: tree.nu <= 5))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_components_oracle_on_contracted_spines_with_phantoms(self, tree):
        assert_validation_agrees(tree)

    def test_every_checker_names_the_first_failing_node(self):
        # two failures, at nodes [1] and [2]: the arc into [2] comes first in
        # arc order, but node [1] comes first in node order
        tree = build_tree([(v, "-") for v in (1, 2, 3, 4)], [(1, 2), (1, 3), (2, 4)])
        spine = Spine.make(
            [frozenset({v}) for v in (1, 2, 3, 4)],
            [(frozenset({t}), frozenset({h})) for t, h in ((1, 2), (3, 1), (4, 3))],
        )
        reason = "incoming set at node [1] spans several components"
        assert validate_spine(tree, spine).reason == reason
        assert components_validate(tree, spine) == (False, reason)
        for arc in spine.arcs:
            with pytest.raises(InvalidSpine, match=re.escape(reason)):
                flip_arc(tree, spine, arc)
        with pytest.raises(InvalidSpine, match=re.escape(reason)):
            vertex_point(tree, spine)


class TestSourceSets:
    def test_path_prefixes(self, tripod_neg):
        assert path_spine(1, 2, 3, 4).key() == frozenset(
            {frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})}
        )

    def test_star(self, tripod_neg):
        assert star_into(2, [1, 3, 4]).key() == frozenset(
            {frozenset({1}), frozenset({3}), frozenset({4})}
        )

    def test_one_node(self, tripod_neg):
        assert one_node_spine(tripod_neg).key() == frozenset()

    @given(signed_trees(max_nu=5))
    @settings(max_examples=25)
    def test_sources_are_compatible_blocks(self, tree):
        from arbora.blocks import compatible

        for spine in enumerate_maximal_spines(tree):
            sources = sorted(spine.key(), key=lambda b: sorted(b))
            for block in sources:
                assert is_building_block(tree, block)
            for i, a in enumerate(sources):
                for b in sources[i + 1 :]:
                    assert compatible(tree, a, b)


class TestNestedSetCorrespondence:
    def test_path_from_prefix_chain(self, tripod_neg):
        spine = spine_of_nested_set(
            tripod_neg, [frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})]
        )
        assert spine.key() == path_spine(1, 2, 3, 4).key()

    def test_two_level_from_pair(self, tripod_neg):
        spine = spine_of_nested_set(tripod_neg, [frozenset({1}), frozenset({3})])
        assert set(spine.nodes) == {frozenset({1}), frozenset({3}), frozenset({2, 4})}

    def test_empty_gives_one_node(self, tripod_neg):
        spine = spine_of_nested_set(tripod_neg, [])
        assert spine.nodes == (frozenset({1, 2, 3, 4}),)

    def test_rejects_incompatible(self, tripod_neg):
        with pytest.raises(NotNested):
            spine_of_nested_set(
                tripod_neg, [frozenset({1, 2}), frozenset({2, 3})]
            )

    @given(signed_trees(max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_bijection_both_ways(self, tree):
        for face in enumerate_nested_sets(tree):
            spine = spine_of_nested_set(tree, face)
            assert validate_spine(tree, spine)
            assert spine.key() == face
            assert spine_of_nested_set_by_rules(tree, face).key() == spine.key()

    @given(signed_trees(max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_from_spines(self, tree):
        for spine in enumerate_maximal_spines(tree):
            assert spine_of_nested_set(tree, spine.key()).key() == spine.key()

    def test_round_trip_on_six_vertex_facets(self, htree_diff):
        for spine in enumerate_maximal_spines(htree_diff):
            rebuilt = spine_of_nested_set(htree_diff, spine.key())
            assert rebuilt.key() == spine.key()


class TestContractSplit:
    def test_contract_path(self, tripod_neg):
        merged = contract_arc(path_spine(1, 2, 3, 4), (frozenset({2}), frozenset({3})))
        assert set(merged.nodes) == {frozenset({1}), frozenset({2, 3}), frozenset({4})}
        assert validate_spine(tripod_neg, merged)

    def test_contract_all_reaches_one_node(self, tripod_neg):
        spine = path_spine(1, 2, 3, 4)
        while spine.arcs:
            spine = contract_arc(spine, spine.arcs[0])
        assert spine.nodes == (frozenset({1, 2, 3, 4}),)

    def test_contract_star_arc(self, tripod_neg):
        merged = contract_arc(star_into(2, [1, 3, 4]), (frozenset({1}), frozenset({2})))
        assert frozenset({1, 2}) in merged.nodes
        assert validate_spine(tripod_neg, merged)

    def test_unknown_arc(self, tripod_neg):
        with pytest.raises(UnknownArc):
            contract_arc(path_spine(1, 2, 3, 4), (frozenset({1}), frozenset({3})))

    def test_split_reverses_contract(self, tripod_neg):
        merged = contract_arc(path_spine(1, 2, 3, 4), (frozenset({2}), frozenset({3})))
        split = split_node(tripod_neg, merged, frozenset({2, 3}), 2)
        assert split.key() == path_spine(1, 2, 3, 4).key()

    def test_split_one_node(self, tripod_neg):
        spine = split_node(tripod_neg, one_node_spine(tripod_neg), frozenset({1, 2, 3, 4}), 1)
        assert frozenset({1}) in spine.nodes
        assert (frozenset({1}), frozenset({2, 3, 4})) in spine.arcs

    def test_split_singleton_rejected(self, tripod_neg):
        with pytest.raises(SingletonLabel):
            split_node(tripod_neg, path_spine(1, 2, 3, 4), frozenset({1}), 1)

    def test_split_requires_member(self, tripod_neg):
        merged = contract_arc(path_spine(1, 2, 3, 4), (frozenset({2}), frozenset({3})))
        with pytest.raises(VertexNotInLabel):
            split_node(tripod_neg, merged, frozenset({2, 3}), 4)

    def test_split_refuses_a_vertex_outside_the_tree(self, tripod_neg):
        merged = contract_arc(path_spine(1, 2, 3, 9), (frozenset({3}), frozenset({9})))
        with pytest.raises(InvalidSpine, match="9 is not a standard vertex"):
            split_node(tripod_neg, merged, frozenset({3, 9}), 9)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=20, deadline=None)
    def test_split_refines_contraction(self, tree):
        # splitting any vertex out of the merged label yields a valid spine
        # one rank up whose contraction is the merged spine again
        for spine in enumerate_maximal_spines(tree):
            for arc in spine.arcs:
                merged = contract_arc(spine, arc)
                assert validate_spine(tree, merged)
                label = arc[0] | arc[1]
                for vertex in label:
                    split = split_node(tree, merged, label, vertex)
                    rest = label - {vertex}
                    new_arc = (
                        (frozenset({vertex}), rest)
                        if (frozenset({vertex}), rest) in split.arcs
                        else (rest, frozenset({vertex}))
                    )
                    assert contract_arc(split, new_arc).key() == merged.key()


class TestFlips:
    def test_flip_star_arc_without_companions(self, tripod_neg):
        flipped = flip_arc(
            tripod_neg, star_into(2, [1, 3, 4]), (frozenset({1}), frozenset({2}))
        )
        expected = {
            (frozenset({3}), frozenset({2})),
            (frozenset({4}), frozenset({2})),
            (frozenset({2}), frozenset({1})),
        }
        assert set(flipped.arcs) == expected

    def test_involution(self, tripod_neg):
        spine = star_into(2, [1, 3, 4])
        once = flip_arc(tripod_neg, spine, (frozenset({1}), frozenset({2})))
        twice = flip_arc(tripod_neg, once, (frozenset({2}), frozenset({1})))
        assert twice.key() == spine.key()

    def test_source_sets_differ_by_one(self, tripod_neg):
        spine = path_spine(1, 2, 3, 4)
        for arc in spine.arcs:
            flipped = flip_arc(tripod_neg, spine, arc)
            assert len(spine.key() ^ flipped.key()) == 2

    def test_equals_frozenset_oracle_on_corpus(self):
        for tree in corpus(max_nu=5):
            assert_flips_agree(tree)

    @given(phantom_trees(max_vertices=8).filter(lambda tree: tree.nu <= 5))
    @settings(max_examples=30, deadline=None)
    def test_equals_frozenset_oracle_with_phantoms(self, tree):
        assert_flips_agree(tree)

    def test_refuses_an_invalid_spine_before_exchanging(self, monkeypatch):
        from arbora import spines

        invalid = [
            (tree, spine)
            for tree in corpus(max_nu=4, include_named=False)
            for base in enumerate_maximal_spines(tree)
            for spine in one_arc_mutations(base)
            if not validate_spine(tree, spine)
        ]

        def refused(*args):
            raise AssertionError("_exchange called")

        monkeypatch.setattr(spines, "_exchange", refused)
        assert invalid
        for tree, spine in invalid:
            for arc in spine.arcs:
                with pytest.raises(InvalidSpine):
                    flip_arc(tree, spine, arc)

    def test_vertex_outside_the_tree_is_an_arbora_error(self, tripod_neg):
        spine = star_into(2, [1, 3, 9])  # 9 is no vertex of the tripod
        for arc in spine.arcs:
            with pytest.raises(ArboraError):
                flip_arc(tripod_neg, spine, arc)

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_unique_alternative_refinement(self, tree):
        facets = {s.key(): s for s in enumerate_maximal_spines(tree)}
        for spine in facets.values():
            for arc in spine.arcs:
                ridge = spine.key() - {spine.source_set(arc)}
                containing = {f for f in facets if ridge <= f}
                flipped = flip_arc(tree, spine, arc)
                assert containing == {spine.key(), flipped.key()}


class TestEnumeration:
    def test_catalan_path4(self, path4_neg):
        assert len(enumerate_maximal_spines(path4_neg)) == 14

    def test_tripod(self, tripod_neg):
        assert len(enumerate_maximal_spines(tripod_neg)) == 16

    def test_single_vertex(self):
        tree = build_tree([(1, "+")], [])
        assert len(enumerate_maximal_spines(tree)) == 1

    def test_catalan_small_paths(self):
        from arbora.catalog import path_neg
        from math import comb

        for n in range(1, 7):
            catalan = comb(2 * n, n) // (n + 1)
            assert len(enumerate_maximal_spines(path_neg(n))) == catalan

    @given(signed_trees(max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_all_enumerated_valid_and_regular(self, tree):
        spines = enumerate_maximal_spines(tree)
        for spine in spines:
            assert validate_spine(tree, spine)
            neighbors = {
                flip_arc(tree, spine, arc).key() for arc in spine.arcs
            }
            assert len(neighbors) == tree.nu - 1


class TestFlipGraph:
    def test_neighbors_index_the_flips(self):
        for make in NAMED_TREES.values():
            tree = make()
            graph = flip_graph(tree)
            assert graph.spines == enumerate_maximal_spines(tree)
            index = {s.key(): i for i, s in enumerate(graph.spines)}
            assert len(graph.neighbors) == len(graph.spines)
            for spine, targets in zip(graph.spines, graph.neighbors):
                assert len(targets) == len(spine.arcs)
                for arc, j in zip(spine.arcs, targets):
                    flipped = flip_arc(tree, spine, arc)
                    assert index[flipped.key()] == j
                    assert graph.spines[j] == flipped

    def test_validates_each_spine_once(self, monkeypatch):
        from arbora import spines

        tree = fresh_tree("val")
        checked, check = [], spines._check_masks

        def counted(tree, arcs):
            checked.append(tuple((t, h) for t, h, _ in arcs))
            return check(tree, arcs)

        monkeypatch.setattr(spines, "_check_masks", counted)
        graph = flip_graph(tree)
        index = tree.standard_index
        assert len(checked) == len(graph.spines) > 1
        assert set(checked) == {
            tuple((index[t], index[h]) for (t,), (h,) in spine.arcs)
            for spine in graph.spines
        }

    def test_makes_no_validate_spine_call(self, monkeypatch):
        from arbora import spines

        def refused(tree, spine):
            raise AssertionError("validate_spine called")

        monkeypatch.setattr(spines, "validate_spine", refused)
        graph = flip_graph(fresh_tree("noval"))
        assert len(graph.spines) > 1

    def test_consumers_make_no_flips(self, htree_eq, monkeypatch, capsys):
        from arbora import cli, fans, geometry, spines, weak_order

        enumerate_maximal_spines(htree_eq)
        calls = []
        exchange = spines._exchange

        def counted(*args):
            calls.append(args)
            return exchange(*args)

        monkeypatch.setattr(spines, "_exchange", counted)
        # the CLI reads this very tree object, whose flip graph is already built
        monkeypatch.setattr(cli, "_load_tree", lambda path: htree_eq)
        assert geometry.verify_realization(htree_eq)
        assert fans.fan_cover_check(htree_eq).passed
        weak_order.increasing_flip_digraph(htree_eq, tuple(sorted(htree_eq.standard)))
        assert cli.main(["flipgraph", "htree.json"]) == 0
        assert cli.main(["flipgraph", "htree.json", "--dot"]) == 0
        capsys.readouterr()
        assert calls == []

    def test_consumers_read_the_mask_arcs(self, tmp_path, capsys):
        from arbora import cli, complexes, fans, geometry, weak_order
        from arbora.trees import tree_to_json

        ids = [f"masks{i}" for i in range(5)]
        edges = [(ids[0], ids[1]), (ids[0], ids[2]), (ids[2], ids[3]), (ids[3], ids[4])]
        tree = build_tree(list(zip(ids, "-+-+-")), edges)
        base = tuple(sorted(tree.standard))
        path = tmp_path / "masks.json"
        path.write_text(json.dumps(tree_to_json(tree)))
        assert geometry.realize_polytope(tree).certificate
        assert geometry.verify_realization(tree)
        assert fans.fan_cover_check(tree).passed
        complexes.complex_stats(tree)
        weak_order.h_vector(tree, base)
        weak_order.increasing_flip_digraph(tree, base)
        geometry.singleton_count_recursive(tree)
        geometry.barycenter(tree)
        weak_order.congruence_diagnostics(tree, base)
        geometry.singleton_spines(tree)
        assert cli.main(["flipgraph", str(path), "--dot"]) == 0
        capsys.readouterr()
        spines = flip_graph(tree).spines
        assert len(spines) > 1
        for spine in spines:
            fans.fiber(tree, spine)
            assert "_side_sets" not in vars(spine) and "_incident" not in vars(spine)

    def test_spines_are_built_on_demand(self, tmp_path, capsys):
        from arbora import cli, complexes, geometry, weak_order
        from arbora.fans import fiber
        from arbora.trees import tree_to_json

        ids = [f"lazy{i}" for i in range(5)]
        edges = [(ids[0], ids[1]), (ids[1], ids[2]), (ids[1], ids[3]), (ids[3], ids[4])]
        tree = build_tree(list(zip(ids, "+-+--")), edges)
        path = tmp_path / "lazy.json"
        path.write_text(json.dumps(tree_to_json(tree)))
        complexes.complex_stats(tree)
        weak_order.h_vector(tree, tuple(sorted(tree.standard)))
        pairs = geometry.singleton_spines(tree)
        assert cli.main(["complex", str(path)]) == 0
        assert cli.main(["singletons", str(path)]) == 0
        capsys.readouterr()
        assert "spines" not in vars(flip_graph(tree))
        # the directed paths are the spines with a single linear extension
        expected = [
            (spine, orders[0])
            for spine in enumerate_maximal_spines(tree)
            for orders in [fiber(tree, spine)]
            if len(orders) == 1
        ]
        assert len(pairs) > 1
        assert pairs == tuple(sorted(expected, key=lambda pair: pair[1]))

    def test_flip_disagreeing_with_stored_spine_raises(self, monkeypatch):
        from arbora import spines

        tree = fresh_tree("dis")
        exchange, seen = spines._exchange, set()

        def scrambled(tree, arcs, k):
            # a nested set met again comes back with the same masks but
            # its first arc reversed
            flipped = exchange(tree, arcs, k)
            key = frozenset(mask for *_, mask in flipped)
            if key not in seen:
                seen.add(key)
                return flipped
            (tail, head, mask), *rest = flipped
            return tuple(sorted([(head, tail, mask), *rest]))

        monkeypatch.setattr(spines, "_exchange", scrambled)
        with pytest.raises(InvalidSpine, match="two spines share one nested set"):
            flip_graph(tree)

    def test_invalid_flip_under_a_new_nested_set_raises(self, monkeypatch):
        from arbora import spines

        tree = fresh_tree("inv")
        exchange = spines._exchange

        def truncated(tree, arcs, k):
            # one arc short: a nested set no maximal spine has
            return exchange(tree, arcs, k)[:-1]

        monkeypatch.setattr(spines, "_exchange", truncated)
        with pytest.raises(InvalidSpine, match="invalid spine"):
            flip_graph(tree)


class TestBlossomsAndCuts:
    def test_total_incoming_blossoms(self, tripod_neg):
        spine = path_spine(1, 2, 3, 4)
        counts = blossom_counts(tripod_neg, spine)
        total = sum(c.blossoms_in for c in counts)
        assert total == len(open_components(tripod_neg, tripod_neg.negatives))

    def test_bottom_cut(self, tripod_neg):
        spine = path_spine(1, 2, 3, 4)
        pieces = cut_subtrees(tripod_neg, spine, [])
        assert pieces == open_components(tripod_neg, tripod_neg.negatives)

    def test_top_cut(self, tripod_neg):
        spine = path_spine(1, 2, 3, 4)
        pieces = cut_subtrees(tripod_neg, spine, spine.nodes)
        assert pieces == open_components(tripod_neg, tripod_neg.positives)

    def test_middle_cut(self, tripod_neg):
        pieces = cut_subtrees(
            tripod_neg, path_spine(1, 2, 3, 4), [frozenset({1}), frozenset({2})]
        )
        assert [(sorted(p.interior), sorted(p.boundary)) for p in pieces] == [
            ([1, 2], [3, 4])
        ]

    def test_improper_cut_rejected(self, tripod_neg):
        with pytest.raises(ImproperCut):
            cut_subtrees(tripod_neg, path_spine(1, 2, 3, 4), [frozenset({3})])

    @given(signed_trees(min_nu=2, max_nu=5))
    @settings(max_examples=15, deadline=None)
    def test_every_ideal_cut_balances(self, tree):
        for spine in enumerate_maximal_spines(tree)[:6]:
            order = [next(iter(n)) for n in spine.nodes]
            # sweep the node set in any linear extension: prefixes are ideals
            from arbora.fans import fiber

            extension = fiber(tree, spine)[0]
            for i in range(len(extension) + 1):
                ideal = [frozenset({v}) for v in extension[:i]]
                cut_subtrees(tree, spine, ideal)


class TestOrientation:
    def test_path_spine_orientation(self, path4_neg):
        orientation = tree_orientation_of_spine(path4_neg, path_spine(1, 2, 3, 4))
        assert orientation == {(1, 2): (1, 2), (2, 3): (2, 3), (3, 4): (3, 4)}

    def test_star_orientation(self, tripod_neg):
        orientation = tree_orientation_of_spine(tripod_neg, star_into(2, [1, 3, 4]))
        assert orientation == {(1, 2): (1, 2), (2, 3): (3, 2), (2, 4): (4, 2)}


class TestSerialization:
    def test_json_roundtrip(self, tripod_neg):
        spine = kappa(tripod_neg, (1, 3, 4, 2))
        assert spine_from_json(spine_to_json(spine)).key() == spine.key()
