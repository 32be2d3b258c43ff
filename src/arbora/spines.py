"""The spine calculus.

A spine on a signed tree is a directed tree whose node labels partition the
standard vertices, subject to a local separation condition: at a node with
label U, the source sets of distinct incoming arcs live in distinct
components of the tree minus the negative part of U, and the sink sets of
distinct outgoing arcs in distinct components of the tree minus its
positive part.  Every separation question here (validation, splitting,
flips) is asked of one rule, `blocks.held_together`: no deleted vertex lies
on the tree path between two vertices of a set.  It is answered from the
one separation table that block convexity reads, `SignedTree.path_masks`.
Maximal spines (all labels singletons) are the facets of the nested
complex; contraction and splitting move between ranks; flips move between
adjacent facets.  Inside the package a maximal spine is its *index arcs*:
sorted (tail, head, source mask) triples whose ends and bits are standard
indices (i for `tree.standard[i]`); vertex ids appear only where a result
leaves this layer.  A flip is one rule on them, `_exchange`: it exchanges
one block of the nested set.  `flip_graph`, the one place where the flips
of a tree are enumerated, checks each spine once: the masks are recomputed
by the one rooted walk, `_source_masks`, and the separation rule is read
off the path masks (`_check_masks`, with `validate_spine` as its oracle).
Its readers read the index arcs; `FlipGraph.spines` builds the `Spine`s on
first read.  The side sets of a `Spine` come from the same walk.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Optional

from .blocks import Compatibility, compatibility, held_together, open_components
from .blocks import _span
from .errors import (
    ImproperCut,
    InvalidSpine,
    NoOrientedPath,
    NotMaximal,
    NotNested,
    SingletonLabel,
    UnknownArc,
    VertexNotInLabel,
)
from .trees import Record, SignedTree, canonical_edge, tree_cached


def _label_key(label: frozenset) -> tuple:
    return tuple(sorted(label))


def _arc_key(arc: tuple) -> tuple:
    return (_label_key(arc[0]), _label_key(arc[1]))


class Spine(Record):
    """A directed labeled tree; nodes are keyed by their label sets."""

    nodes: tuple  # frozenset labels, canonically sorted
    arcs: tuple  # (tail label, head label) pairs, canonically sorted

    @staticmethod
    def make(nodes: Iterable, arcs: Iterable) -> "Spine":
        nodes = tuple(sorted((frozenset(n) for n in nodes), key=_label_key))
        arcs = tuple(
            sorted(((frozenset(t), frozenset(h)) for t, h in arcs), key=_arc_key)
        )
        return Spine(nodes, arcs)

    @cached_property
    def node_of(self) -> Mapping:
        return {v: label for label in self.nodes for v in label}

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(v for label in self.nodes for v in label)

    @cached_property
    def _incident(self) -> Mapping:
        inc = {label: [] for label in self.nodes}
        for tail, head in self.arcs:
            inc[tail].append((tail, head))
            inc[head].append((tail, head))
        return {n: tuple(a) for n, a in inc.items()}

    def incoming(self, label: frozenset) -> tuple:
        return tuple(a for a in self._incident[label] if a[1] == label)

    def outgoing(self, label: frozenset) -> tuple:
        return tuple(a for a in self._incident[label] if a[0] == label)

    @cached_property
    def _side_sets(self) -> Mapping:
        """For each arc, the set of vertices on its tail side.

        Read off the source masks of the one rooted walk, `_source_masks`,
        over the numbered nodes.  Arcs that do not form a tree on the nodes
        have no sides: they raise `InvalidSpine`.
        """
        masks = _label_source_masks(self.nodes, self.arcs)
        if masks is None:
            raise InvalidSpine("spine arcs do not form a tree")
        labels = list(enumerate(self.nodes))
        return {
            arc: frozenset(v for i, label in labels if mask >> i & 1 for v in label)
            for arc, mask in zip(self.arcs, masks)
        }

    def source_set(self, arc: tuple) -> frozenset:
        sides = self._side_sets
        if arc not in sides:
            raise UnknownArc(f"no arc {arc!r}")
        return sides[arc]

    def sink_set(self, arc: tuple) -> frozenset:
        return self.vertices - self.source_set(arc)

    @cached_property
    def is_maximal(self) -> bool:
        return all(len(label) == 1 for label in self.nodes)

    @cached_property
    def _fiber(self) -> tuple:
        """The linear extensions of a maximal spine, in lexicographic order (`fans.fiber`).

        Read from the predecessor masks of its arcs (bit i for node i):
        breadth-first, each prefix grows by every unplaced vertex whose
        predecessors it holds, in ascending bit order.  The nodes are
        sorted, so the orders come out sorted.
        """
        index = {label: i for i, label in enumerate(self.nodes)}
        preds = [0] * len(self.nodes)
        for tail, head in self.arcs:
            preds[index[head]] |= 1 << index[tail]
        steps = [(v, 1 << i, preds[i]) for i, (v,) in enumerate(self.nodes)]
        prefixes = [((), 0)]
        for _ in steps:
            prefixes = [
                (order + (v,), placed | bit)
                for order, placed in prefixes
                for v, bit, need in steps
                if not placed & bit and need & placed == need
            ]
        return tuple(order for order, _ in prefixes)

    def key(self) -> frozenset:
        """Canonical identity: the family of arc source sets."""
        return frozenset(self._side_sets.values())

    def below(self, u, v) -> bool:
        """True when the spine path from u's node to v's node is directed u -> v."""
        walk = self._directed_reach(self.node_of[u])
        return self.node_of[v] in walk

    def _directed_reach(self, label: frozenset) -> frozenset:
        seen = {label}
        stack = [label]
        while stack:
            cur = stack.pop()
            for tail, head in self.outgoing(cur):
                if head not in seen:
                    seen.add(head)
                    stack.append(head)
        return frozenset(seen)


def one_node_spine(tree: SignedTree) -> Spine:
    return Spine.make([tree.standard_set], [])


class SpineCheck(Record):
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def validate_spine(tree: SignedTree, spine: Spine) -> SpineCheck:
    """Check the partition, tree shape, and local separation conditions.

    A side set (the source set of an incoming arc, the sink set of an
    outgoing one) never meets its node's label once the arcs form a tree,
    so it lies in one component of the tree minus the deleted part of the
    label (the negative part for incoming arcs, the positive part for
    outgoing ones) exactly when it is held together without it; two side
    sets share a component exactly when their union is held together.
    """
    labels = list(spine.nodes)
    if not labels:
        return SpineCheck(False, "no nodes")
    if any(not label for label in labels):
        return SpineCheck(False, "empty label")
    union = frozenset().union(*labels)
    if sum(map(len, labels)) != len(union):
        return SpineCheck(False, "labels overlap")
    if union != tree.standard_set:
        return SpineCheck(False, "labels do not partition the standard vertices")
    if len(spine.arcs) != len(labels) - 1:
        return SpineCheck(False, "arc count is not node count minus one")
    label_set = set(labels)
    for tail, head in spine.arcs:
        if tail not in label_set or head not in label_set:
            return SpineCheck(False, "arc endpoint is not a node")
    if _label_source_masks(labels, spine.arcs) is None:
        return SpineCheck(False, "arcs do not connect the nodes")

    for label in labels:
        for arcs, side_set, part, side in (
            (spine.incoming(label), spine.source_set, tree.negatives, "incoming"),
            (spine.outgoing(label), spine.sink_set, tree.positives, "outgoing"),
        ):
            deleted = label & part
            held = []
            for arc in arcs:
                content = side_set(arc)
                if not held_together(tree, content, deleted):
                    return SpineCheck(
                        False,
                        f"{side} set at node {sorted(label)} spans several components",
                    )
                if any(held_together(tree, other | content, deleted) for other in held):
                    return SpineCheck(
                        False,
                        f"two {side} sets at node {sorted(label)} share a component",
                    )
                held.append(content)
    return SpineCheck(True)


def contract_arc(spine: Spine, arc: tuple) -> Spine:
    tail, head = (frozenset(arc[0]), frozenset(arc[1]))
    if (tail, head) not in set(spine.arcs):
        raise UnknownArc(f"no arc {arc!r}")
    merged = tail | head
    nodes = [merged] + [n for n in spine.nodes if n not in (tail, head)]
    arcs = []
    for t, h in spine.arcs:
        if (t, h) == (tail, head):
            continue
        t2 = merged if t in (tail, head) else t
        h2 = merged if h in (tail, head) else h
        arcs.append((t2, h2))
    return Spine.make(nodes, arcs)


def split_node(tree: SignedTree, spine: Spine, node: Iterable, vertex) -> Spine:
    """Split one vertex out of a label, keeping the spine valid.

    A negative vertex is pulled below the node and steals the incoming arcs
    whose source sets sit in components (of the tree minus the negative part
    of the label) adjacent to it; a positive vertex is pulled above,
    symmetrically.  An arc moves to the new node exactly when its side set
    plus the vertex is held together without the rest of the deleted part.
    """
    node = frozenset(node)
    if node not in set(spine.nodes):
        raise UnknownArc(f"no node labeled {sorted(node)}")
    if len(node) < 2:
        raise SingletonLabel(f"cannot split singleton node {sorted(node)}")
    if vertex not in node:
        raise VertexNotInLabel(f"{vertex!r} not in label {sorted(node)}")

    rest = node - {vertex}
    single = frozenset({vertex})
    if vertex in tree.negatives:
        arcs, side_set, part = spine.incoming(node), spine.source_set, tree.negatives
        new_arcs = [(single, rest)]
    else:
        arcs, side_set, part = spine.outgoing(node), spine.sink_set, tree.positives
        new_arcs = [(rest, single)]
    others = rest & part
    grabbed = [
        arc for arc in arcs if held_together(tree, side_set(arc) | single, others)
    ]

    nodes = [single, rest] + [n for n in spine.nodes if n != node]
    for t, h in spine.arcs:
        if (t, h) in grabbed:
            t2 = single if t == node else t
            h2 = single if h == node else h
        else:
            t2 = rest if t == node else t
            h2 = rest if h == node else h
        new_arcs.append((t2, h2))
    result = Spine.make(nodes, new_arcs)
    check = validate_spine(tree, result)
    if not check:
        raise InvalidSpine(f"split produced an invalid spine: {check.reason}")
    return result


def _source_masks(n: int, arcs) -> Optional[list]:
    """The source masks of (tail, head, ...) index arcs on the nodes 0 .. n - 1.

    The package's one rooted walk: a breadth-first walk from node 0 roots
    the arcs; then, children first, each node gathers the bits below it.
    An arc's source mask is what lies below its lower end when that end is
    its tail, and the complement when it is its head.  Every end must be a
    node; None unless the arcs form a tree on the nodes.
    """
    if len(arcs) != n - 1:
        return None
    incident = [[] for _ in range(n)]  # (arc, far end, far end is its tail)
    for k, arc in enumerate(arcs):
        t, h = arc[0], arc[1]
        incident[t].append((k, h, False))
        incident[h].append((k, t, True))
    walk, reached = [(0, None, None, None)], {0}  # (node, arc up, parent, is tail)
    for i, _, _, _ in walk:
        for k, j, tail in incident[i]:
            if j not in reached:
                reached.add(j)
                walk.append((j, k, i, tail))
    if len(walk) != n:
        return None
    full = (1 << n) - 1
    below = [1 << i for i in range(n)]
    masks = [0] * len(arcs)
    for i, k, parent, tail in reversed(walk[1:]):
        below[parent] |= below[i]
        masks[k] = below[i] if tail else full ^ below[i]
    return masks


def _label_source_masks(nodes, arcs) -> Optional[list]:
    """`_source_masks` of (tail label, head label) arcs, bit i for nodes[i]."""
    index = {node: i for i, node in enumerate(nodes)}
    if any(t not in index or h not in index for t, h in arcs):
        return None
    return _source_masks(len(nodes), [(index[t], index[h]) for t, h in arcs])


def _exchange(tree: SignedTree, arcs: tuple, k: int) -> tuple:
    """Flip arc k = u -> v of a valid maximal spine given as index arcs.

    The incoming arc of u rooted on v's side of the tree (arc_i) moves to v,
    and the outgoing arc of v sinking on u's side (arc_o) moves to u; a
    positive u has at most one incoming arc and a negative v at most one
    outgoing arc, and that arc always moves.  On a valid spine the side set
    of an arc at a negative u (positive v) lies in one component of the
    tree minus u (v) and holds the arc's far end, so one path mask tells its
    side.  The nested set changes in one block: v -> u takes the source mask
    ((full ^ S) & ~sink(arc_o)) | source(arc_i), where S is the source mask
    of u -> v, and every other mask stays.  The arcs come back sorted.
    """
    u, v, source = arcs[k]
    bit_u, bit_v = 1 << u, 1 << v
    from_u, from_v = tree.path_masks[u], tree.path_masks[v]
    u_positive, v_negative = tree.positive_mask & bit_u, tree.negative_mask & bit_v
    full = (1 << tree.nu) - 1
    exchanged, sink, gained = list(arcs), 0, 0
    for j, (tail, head, mask) in enumerate(arcs):
        if head == u and (u_positive or not from_v[tail] & bit_u):
            exchanged[j], gained = (tail, v, mask), mask
        elif tail == v and (v_negative or not from_u[head] & bit_v):
            exchanged[j], sink = (u, head, mask), full ^ mask
    exchanged[k] = (v, u, ((full ^ source) & ~sink) | gained)
    return tuple(sorted(exchanged))


def _check_masks(tree: SignedTree, arcs: tuple) -> SpineCheck:
    """Validate a maximal spine given as sorted index arcs.

    The arcs must form a tree on the standard indices, and the source masks
    recomputed from that tree alone must be the given ones.  The separation
    rule is then read off the path masks: at a node w, the side masks of its
    incoming arcs (source masks) each lie in one component of the tree minus
    w (w is outside their span) and pairwise in distinct ones (w is inside
    the path between the far ends of their arcs) when w is negative, and w
    has at most one incoming arc when it is positive; dually for the sink
    masks of its outgoing arcs.  This accepts exactly the arcs of which
    `validate_spine` accepts the spine and whose masks are its source sets.
    A reason names its node by vertex id.
    """
    nu = tree.nu
    if len(arcs) != nu - 1:
        return SpineCheck(False, "arc count is not node count minus one")
    if any(not (0 <= t < nu and 0 <= h < nu) for t, h, _ in arcs):
        return SpineCheck(False, "arc endpoint is not a node")
    masks = _source_masks(nu, arcs)
    if masks is None:
        return SpineCheck(False, "arcs do not connect the nodes")
    if masks != [m for *_, m in arcs]:
        return SpineCheck(False, "source masks are not the spine's")
    full, paths, far_ends = (1 << nu) - 1, tree.path_masks, {}
    for t, h, m in arcs:
        for w, end, mask, part, side in (
            (h, t, m, tree.negative_mask, "incoming"),
            (t, h, full ^ m, tree.positive_mask, "outgoing"),
        ):
            bit, row = 1 << w, paths[end]
            deleted = part & bit
            if deleted and _span(tree, mask) & bit:
                reason = f"{side} set at node {[tree.standard[w]]} spans several components"
                return SpineCheck(False, reason)
            seen = far_ends.setdefault((w, side), [])
            if seen and (not deleted or any(not row[e] & bit for e in seen)):
                reason = f"two {side} sets at node {[tree.standard[w]]} share a component"
                return SpineCheck(False, reason)
            seen.append(end)
    return SpineCheck(True)


def _checked(tree: SignedTree, arcs: tuple, what: str) -> tuple:
    """The index arcs, once `_check_masks` accepts them; else `InvalidSpine`."""
    check = _check_masks(tree, arcs)
    if not check:
        raise InvalidSpine(f"{what}: {check.reason}")
    return arcs


def _singleton_labels(vertices: tuple) -> tuple:
    """The singleton label of each vertex, in order: the nodes of a maximal spine."""
    return tuple(frozenset((v,)) for v in vertices)


def _maximal_spine(labels: tuple, arcs) -> Spine:
    """The maximal spine of sorted index arcs on shared `_singleton_labels`.

    Indices ascend with the vertices, so the arcs need no sort of `Spine.make`.
    """
    return Spine(labels, tuple((labels[arc[0]], labels[arc[1]]) for arc in arcs))


def _checked_arcs(tree: SignedTree, spine: Spine) -> tuple:
    """The index arcs of a maximal spine, in its arc order, checked by `_check_masks`."""
    if not spine.vertices <= tree.standard_set:
        raise InvalidSpine("spine labels are not standard vertices of the tree")
    masks = _label_source_masks(_singleton_labels(tree.standard), spine.arcs)
    if masks is None:
        raise InvalidSpine("arcs do not form a tree on the standard vertices")
    index = tree.standard_index
    arcs = tuple((index[t], index[h], m) for ((t,), (h,)), m in zip(spine.arcs, masks))
    return _checked(tree, arcs, "invalid spine")


def flip_arc(tree: SignedTree, spine: Spine, arc: tuple) -> Spine:
    """Exchange one arc of a maximal spine for the unique alternative.

    The arc u -> v is reversed, and one arc at each end may move (see
    `_exchange`): the nested set changes in exactly one block.  The spine
    is checked on its index arcs first: `_exchange` assumes a valid one.
    """
    if not spine.is_maximal:
        raise NotMaximal("flips are defined on maximal spines")
    tail, head = (frozenset(arc[0]), frozenset(arc[1]))
    if (tail, head) not in set(spine.arcs):
        raise UnknownArc(f"no arc {arc!r}")
    arcs = _exchange(tree, _checked_arcs(tree, spine), spine.arcs.index((tail, head)))
    flipped = _checked(tree, arcs, "flip produced an invalid spine")
    return _maximal_spine(_singleton_labels(tree.standard), flipped)


class FlipGraph(Record):
    """The maximal spines of a tree, as index arcs, and the flips between them."""

    vertices: tuple  # the standard vertices: index i stands for vertices[i]
    neighbors: tuple  # per spine, the index of the flip across each of its arcs
    arcs: tuple  # per spine, its sorted index arcs; the spines sort by their (tail, head)

    @cached_property
    def spines(self) -> tuple:
        """The maximal spines, canonically sorted, built on first read."""
        labels = _singleton_labels(self.vertices)
        return tuple(_maximal_spine(labels, arcs) for arcs in self.arcs)


@tree_cached
def flip_graph(tree: SignedTree) -> FlipGraph:
    """All maximal spines and their flips, by breadth-first search over flips.

    Seeded at the sweep of the canonical vertex order; the flip graph is
    connected, so the search is exhaustive and output-linear.  The search
    runs on index arcs and builds no `Spine`: every flip is made exactly
    once, by `_exchange`, and keyed by its nested set (the sorted tuple of
    its source masks).  Each new spine is checked once (`_check_masks`); a
    flip landing on a nested set already found must reproduce the stored
    arcs.
    """
    from .fans import _sweep

    pairs = _sweep(tree, range(tree.nu))
    seed = tuple((t, h, m) for (t, h), m in zip(pairs, _source_masks(tree.nu, pairs)))
    found = {tuple(sorted(m for *_, m in seed)): 0}  # nested set -> discovery number
    queue = [seed]  # the arcs of each spine, by discovery number
    flips = []  # per discovery number, the numbers of its flips
    for arcs in queue:
        _checked(tree, arcs, "flip produced an invalid spine")
        targets = []
        for k in range(len(arcs)):
            flipped = _exchange(tree, arcs, k)
            j = found.setdefault(tuple(sorted(m for *_, m in flipped)), len(queue))
            if j == len(queue):
                queue.append(flipped)
            elif queue[j] != flipped:
                raise InvalidSpine("two spines share one nested set")
            targets.append(j)
        flips.append(targets)
    del found  # freed before the ranking
    nu = tree.nu  # the spines sort by their (tail, head) pairs, keyed small as t * nu + h
    ranked = sorted(range(len(queue)), key=lambda i: [t * nu + h for t, h, _ in queue[i]])
    rank = {i: r for r, i in enumerate(ranked)}
    return FlipGraph(
        tree.standard,
        tuple(tuple(rank[j] for j in flips[i]) for i in ranked),
        tuple(queue[i] for i in ranked),
    )


def enumerate_maximal_spines(tree: SignedTree) -> tuple:
    """All maximal spines, canonically sorted: the vertices of the flip graph."""
    return flip_graph(tree).spines


# -- nested set <-> spine -----------------------------------------------------


def spine_of_nested_set(tree: SignedTree, nested: Iterable) -> Spine:
    """The unique spine whose arc source sets are the given nested set.

    Implemented through the sweep of ordered partitions: the level sets of
    the sum of sink-side indicator vectors single out the target cone, whose
    spine the sweep then reconstructs.
    """
    from .fans import kappa_extended

    nested = [frozenset(b) for b in nested]
    for i, a in enumerate(nested):
        for b in nested[i + 1 :]:
            if a == b:
                raise NotNested("repeated block")
            if compatibility(tree, a, b) is Compatibility.INCOMPATIBLE:
                raise NotNested(f"incompatible blocks {sorted(a)}, {sorted(b)}")
    depth = {v: sum(1 for b in nested if v not in b) for v in tree.standard}
    levels = sorted(set(depth.values()))
    partition = tuple(
        frozenset(v for v in tree.standard if depth[v] == lv) for lv in levels
    )
    if not partition:
        return one_node_spine(tree)
    spine = kappa_extended(tree, partition)
    if spine.key() != frozenset(nested):
        raise NotNested("blocks do not form a nested set of this tree")
    return spine


def spine_of_nested_set_by_rules(tree: SignedTree, nested: Iterable) -> Spine:
    """Independent reconstruction of the spine by endpoint identification.

    Used as a cross-check of spine_of_nested_set: arcs (one per block) have
    their endpoints glued according to the nesting pattern, and the labels
    are recovered as the vertices missing from all adjacent source and sink
    sets.
    """
    nested = sorted((frozenset(b) for b in nested), key=_label_key)
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


# -- blossoms and cuts --------------------------------------------------------


class NodeBlossoms(Record):
    label: frozenset
    required_in: int
    required_out: int
    blossoms_in: int
    blossoms_out: int


def blossom_counts(tree: SignedTree, spine: Spine) -> tuple:
    """Pad each node to its required degrees.

    Required in-degree of a node is the number of open components of the
    tree minus the negative part of its label (fully deleted edges count);
    dually for out-degrees.  The paddings are the blossoms.
    """
    result = []
    for label in spine.nodes:
        req_in = len(open_components(tree, label & tree.negatives))
        req_out = len(open_components(tree, label & tree.positives))
        act_in = len(spine.incoming(label))
        act_out = len(spine.outgoing(label))
        if act_in > req_in or act_out > req_out:
            raise InvalidSpine(f"node {sorted(label)} exceeds its required degree")
        result.append(
            NodeBlossoms(label, req_in, req_out, req_in - act_in, req_out - act_out)
        )
    return tuple(result)


def cut_subtrees(tree: SignedTree, spine: Spine, source_nodes: Iterable) -> tuple:
    """Open subtrees crossed by a proper cut of the blossoming spine.

    `source_nodes` lists the node labels below the cut; it must be closed
    under taking arc tails.  The result lists the open components of the
    tree minus (positive part of the source side plus negative part of the
    sink side): one per cut arc or blossom.
    """
    ideal = {frozenset(n) for n in source_nodes}
    node_set = set(spine.nodes)
    if not ideal <= node_set:
        raise ImproperCut("cut names unknown nodes")
    for tail, head in spine.arcs:
        if head in ideal and tail not in ideal:
            raise ImproperCut(
                f"arc {sorted(tail)} -> {sorted(head)} runs against the cut"
            )
    sc = frozenset(v for label in ideal for v in label)
    sk = spine.vertices - sc
    deleted = (sc & tree.positives) | (sk & tree.negatives)
    pieces = open_components(tree, deleted)

    cut_arcs = [a for a in spine.arcs if a[0] in ideal and a[1] not in ideal]
    counts = blossom_counts(tree, spine)
    blossoms = sum(b.blossoms_in for b in counts if b.label not in ideal)
    blossoms += sum(b.blossoms_out for b in counts if b.label in ideal)
    if len(pieces) != len(cut_arcs) + blossoms:
        raise ImproperCut(
            f"cut crosses {len(cut_arcs)} arcs + {blossoms} blossoms "
            f"but leaves {len(pieces)} open components"
        )
    return pieces


def tree_orientation_of_spine(tree: SignedTree, spine: Spine) -> dict:
    """Orient every tree edge by the direction of the spine path joining it."""
    if not spine.is_maximal:
        raise NotMaximal("edge orientations need a maximal spine")
    orientation = {}
    for u, v in tree.edges:
        if tree.is_phantom(u) or tree.is_phantom(v):
            continue
        if spine.below(u, v):
            orientation[canonical_edge(u, v)] = (u, v)
        elif spine.below(v, u):
            orientation[canonical_edge(u, v)] = (v, u)
        else:
            raise NoOrientedPath(f"no directed spine path between {u!r} and {v!r}")
    return orientation


# -- serialization ------------------------------------------------------------


def spine_to_json(spine: Spine) -> dict:
    order = {label: i for i, label in enumerate(spine.nodes)}
    return {
        "nodes": [
            {"id": i, "label": sorted(label)} for label, i in sorted(order.items(), key=lambda kv: kv[1])
        ],
        "arcs": sorted([order[t], order[h]] for t, h in spine.arcs),
    }


def spine_from_json(doc) -> Spine:
    labels = {node["id"]: frozenset(node["label"]) for node in doc["nodes"]}
    arcs = [(labels[t], labels[h]) for t, h in doc["arcs"]]
    return Spine.make(labels.values(), arcs)

