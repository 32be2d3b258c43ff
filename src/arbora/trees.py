"""Vertex-signed trees with optional phantom vertices.

The universal input of the toolkit: a finite tree whose vertices carry a
sign in {-, +}.  Phantom vertices have no sign and never enter vertex
subsets, labels or blocks; they only participate in connectivity.  All
values are immutable, so every operation in the package is a pure function.

One breadth-first walk (`SignedTree._walk`) answers paths and components,
and gives the bit masks of the paths between standard vertices
(`path_masks`): the one table that every separation question of blocks,
spines and sweeps reads, directly or through the component masks of the
tree minus one vertex (`branch_masks`).  One canonical form answers every isomorphism
question: the AHU classes (Aho, Hopcroft and Ullman) of the tree rooted at
its centroids decide signed isomorphism and the automorphism part of the
signature orbits.  Neither recurses over the tree.

Caching policy: a value derived from one tree is either a `cached_property`
of the tree or is memoized by `tree_cached` in the tree object's own memo,
`SignedTree._memo`.  Either way it is an attribute of that object and is
freed with it, so no cache outlives the tree it describes; equal trees
built separately share nothing, and each result carries its own tree's ids.

Every immutable record of the package subclasses `Record`, which gives its
annotated fields the constructor, equality, hash and repr of a frozen
dataclass without importing `dataclasses` (and with it `inspect` and `ast`)
or generating code per class when the module loads.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property, wraps
from itertools import product
from operator import attrgetter
from typing import Iterable, Mapping, Optional

from .errors import (
    BoundExceeded,
    DuplicateId,
    EmptyTree,
    NotABuildingBlock,
    NotATree,
    PreconditionViolated,
    RootIsPhantom,
    UnknownVertex,
)

VertexId = object  # any hashable with a total order among the ids of one tree


class Sign(Enum):
    NEGATIVE = "-"
    POSITIVE = "+"

    @property
    def opposite(self) -> "Sign":
        return Sign.POSITIVE if self is Sign.NEGATIVE else Sign.NEGATIVE

    @staticmethod
    def parse(value) -> "Sign":
        if isinstance(value, Sign):
            return value
        if value in ("-", "neg", "negative"):
            return Sign.NEGATIVE
        if value in ("+", "pos", "positive"):
            return Sign.POSITIVE
        raise PreconditionViolated(f"not a sign: {value!r}")


def canonical_edge(u: VertexId, v: VertexId) -> tuple:
    return (u, v) if u <= v else (v, u)


class Record:
    """An immutable record of the fields annotated on its subclass.

    A subclass is built from its fields by position or keyword, a field
    assigned in the class body being its default; a missing, unknown or
    repeated field raises `TypeError`.  Records are equal when they are of
    the same class and their fields are equal (any other comparison is
    `NotImplemented`), hash as the tuple of their fields, and print as
    `Name(field=value, ...)`.  Assigning or deleting an attribute raises
    `AttributeError`; a `cached_property` still stores its value, and an
    instance can be weakly referenced.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = tuple(dict.fromkeys((*cls._fields, *own)))
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        # positional values for this many leading fields leave none without a value
        cls._required = max((i + 1 for i, f in enumerate(fields) if f not in cls._defaults), default=0)
        if len(fields) > 1:
            cls._values = attrgetter(*fields)
        else:  # attrgetter of one name gives the bare value, of none is no getter
            cls._values = staticmethod(lambda record: tuple(getattr(record, f) for f in fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if not kwargs and self._required <= len(args) <= len(fields):
            self.__dict__.update(self._defaults)
            self.__dict__.update(zip(fields, args))
            return
        name = type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} field values, {len(args)} given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unknown or repeated field {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in self._defaults]
        if missing:
            raise TypeError(f"{name}() is missing the fields {missing}")
        self.__dict__.update({**self._defaults, **values})

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__qualname__}")


class SignedTree(Record):
    """A signed (phantom) tree with canonically ordered vertex data."""

    vertices: tuple
    signs: tuple  # Sign per vertex, aligned with `vertices`; phantoms store NEGATIVE
    phantoms: tuple  # bool per vertex, aligned with `vertices`
    edges: tuple  # canonical (min, max) pairs, sorted

    @cached_property
    def _memo(self) -> dict:
        """Function -> its value on this tree, for the functions of `tree_cached`."""
        return {}

    # -- basic accessors -------------------------------------------------

    @cached_property
    def _index(self) -> Mapping:
        return {v: i for i, v in enumerate(self.vertices)}

    def __contains__(self, v) -> bool:
        return v in self._index

    def sign_of(self, v) -> Sign:
        i = self._index.get(v)
        if i is None:
            raise UnknownVertex(f"unknown vertex {v!r}")
        if self.phantoms[i]:
            raise PreconditionViolated(f"phantom vertex {v!r} carries no sign")
        return self.signs[i]

    def is_phantom(self, v) -> bool:
        i = self._index.get(v)
        if i is None:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return self.phantoms[i]

    @cached_property
    def standard(self) -> tuple:
        return tuple(v for v, ph in zip(self.vertices, self.phantoms) if not ph)

    @cached_property
    def nu(self) -> int:
        return len(self.standard)

    @cached_property
    def negatives(self) -> frozenset:
        return frozenset(
            v
            for v, s, ph in zip(self.vertices, self.signs, self.phantoms)
            if not ph and s is Sign.NEGATIVE
        )

    @cached_property
    def positives(self) -> frozenset:
        return frozenset(
            v
            for v, s, ph in zip(self.vertices, self.signs, self.phantoms)
            if not ph and s is Sign.POSITIVE
        )

    @cached_property
    def standard_set(self) -> frozenset:
        return frozenset(self.standard)

    @cached_property
    def standard_index(self) -> Mapping:
        """Standard vertex -> i, its bit 1 << i in a subset mask."""
        return {v: i for i, v in enumerate(self.standard)}

    @cached_property
    def adjacency(self) -> Mapping:
        adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def neighbors(self, v) -> tuple:
        ns = self.adjacency.get(v)
        if ns is None:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return ns

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    @cached_property
    def leaves(self) -> tuple:
        return tuple(v for v in self.vertices if len(self.adjacency[v]) <= 1)

    def is_leaf(self, v) -> bool:
        return self.degree(v) <= 1

    def has_edge(self, u, v) -> bool:
        return canonical_edge(u, v) in set(self.edges)

    # -- paths and components --------------------------------------------

    def _walk(self, start, deleted: Iterable = ()) -> dict:
        """Breadth-first walk from `start` avoiding `deleted`.

        Maps each reached vertex to its predecessor (None for `start`); the
        keys are in visiting order.
        """
        parent = {start: None}
        queue = [start]
        for x in queue:
            for y in self.adjacency[x]:
                if y not in parent and y not in deleted:
                    parent[y] = x
                    queue.append(y)
        return parent

    def path_between(self, u, v) -> tuple:
        """Vertices of the unique tree path from u to v, inclusive."""
        if u not in self._index or v not in self._index:
            raise UnknownVertex(f"unknown endpoint on path {u!r}-{v!r}")
        parent = self._walk(v)
        path = [u]
        while path[-1] != v:
            path.append(parent[path[-1]])
        return tuple(path)

    def components(self, deleted: Iterable = ()) -> tuple:
        """Vertex sets of the connected components of the tree minus `deleted`.

        Deletion removes the vertices and their incident edges; the result is
        a tuple of frozensets sorted by smallest member.
        """
        deleted = frozenset(deleted)
        seen = set(deleted)
        comps = []
        # vertices ascend, so each start is the minimum of its component
        for start in self.vertices:
            if start not in seen:
                comps.append(frozenset(self._walk(start, deleted)))
                seen |= comps[-1]
        return tuple(comps)

    @cached_property
    def path_masks(self) -> tuple:
        """The tree paths between standard vertices as bit masks.

        Entry [i][j] holds the standard vertices strictly inside the path
        between standard vertices i and j (bits and indices as in
        `standard_index`); phantoms carry no bit.  So u and v are held
        together without a deleted set exactly when their entry misses it,
        and a set is held together when the entries from one member to the
        others all miss it (`blocks.held_together`).
        """
        index = self.standard_index
        rows = []
        for start in self.standard:
            row = [0] * len(index)
            through = {start: 0}  # vertex -> bits of its path from start, start excluded
            for x, p in self._walk(start).items():
                if p is None:
                    continue
                if x in index:
                    row[index[x]] = through[p]
                    through[x] = through[p] | 1 << index[x]
                else:
                    through[x] = through[p]
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def branch_masks(self) -> tuple:
        """Entry [w][x], w != x: the standard vertices of the component of the tree minus w that holds x.

        Bits as in `standard_index`; entry [w][w] is 0.  A set of standard
        vertices without w lies in one component of the tree minus w exactly
        when it misses the complement of the entry of any one of its members.
        Each vertex joins the component of the first earlier vertex whose
        path to it misses w, so a row takes nu times the degree of w steps.
        """
        paths, nu = self.path_masks, self.nu
        rows = []
        for w in range(nu):
            bit, firsts, masks, which = 1 << w, [], [], [0] * nu  # per component: a vertex, the mask
            for x in range(nu):
                if x == w:
                    continue
                row, k = paths[x], 0
                while k < len(firsts) and row[firsts[k]] & bit:
                    k += 1
                if k == len(firsts):
                    firsts.append(x)
                    masks.append(0)
                masks[k] |= 1 << x
                which[x] = k
            rows.append(tuple([masks[which[x]] if x != w else 0 for x in range(nu)]))
        return tuple(rows)

    @cached_property
    def negative_mask(self) -> int:
        """The negative standard vertices as a mask (bits as in `standard_index`)."""
        return sum(1 << i for i, v in enumerate(self.standard) if v in self.negatives)

    @cached_property
    def positive_mask(self) -> int:
        """The positive standard vertices as a mask (bits as in `standard_index`)."""
        return sum(1 << i for i, v in enumerate(self.standard) if v in self.positives)

    def component_containing(self, deleted: Iterable, v) -> frozenset:
        deleted = frozenset(deleted)
        if v in deleted:
            raise PreconditionViolated(f"{v!r} was deleted")
        return frozenset(self._walk(v, deleted))


def subset_key(subset: frozenset) -> tuple:
    """The canonical order of vertex subsets: by size, then sorted members."""
    return (len(subset), tuple(sorted(subset)))


def check_bound(tree: SignedTree, max_nu: int) -> None:
    """Refuse exponential work on a tree with more than `max_nu` standard vertices."""
    if tree.nu > max_nu:
        raise BoundExceeded(f"nu = {tree.nu} exceeds the bound {max_nu}")


def check_standard(tree: SignedTree, what: str) -> None:
    """Refuse a phantom tree where `what` needs every vertex signed."""
    if any(tree.phantoms):
        raise PreconditionViolated(f"{what} needs a tree without phantom vertices")


def tree_cached(fn):
    """Memoize `fn(tree)` in the tree object's own memo, keyed by the function.

    The memo is freed with the tree, and an equal tree built separately
    computes its own value, with its own ids.  A cached value must not hold
    its tree: the two would form a cycle that only the cycle collector frees.
    """

    @wraps(fn)
    def cached(tree: SignedTree):
        memo = tree._memo
        try:
            return memo[cached]
        except KeyError:
            value = memo[cached] = fn(tree)
            return value

    return cached


def build_tree(vertex_specs: Iterable, edge_pairs: Iterable) -> SignedTree:
    """Validate and build a SignedTree.

    `vertex_specs` holds (id, sign) or (id, sign, phantom) entries; signs may
    be Sign values or the strings "-" / "+".  The edges must form a tree on
    all vertices and at least one vertex must be standard.
    """
    specs = list(vertex_specs)
    if not specs:
        raise EmptyTree("a tree needs at least one vertex")
    ids, signs, phantoms = {}, {}, {}  # ids maps each id to the declared object
    for spec in specs:
        if len(spec) == 2:
            vid, sign = spec
            phantom = False
        else:
            vid, sign, phantom = spec
        try:
            duplicate = vid in signs
        except TypeError:
            raise PreconditionViolated(f"vertex id {vid!r} is not hashable") from None
        if duplicate:
            raise DuplicateId(f"duplicate vertex id {vid!r}")
        if vid != vid:  # NaN: no lookup or comparison could find it again
            raise PreconditionViolated(f"vertex id {vid!r} does not equal itself")
        ids[vid] = vid
        # phantom vertices carry no sign; store NEGATIVE as the fixed filler
        signs[vid] = Sign.NEGATIVE if phantom else Sign.parse(sign)
        phantoms[vid] = bool(phantom)
    try:
        ids_sorted = tuple(sorted(ids))
    except TypeError:
        raise PreconditionViolated("vertex ids must be mutually comparable") from None

    edges = []
    seen_edges = set()
    for pair in edge_pairs:
        try:
            u, v = pair
            known = u in signs and v in signs
        except (TypeError, ValueError):
            raise NotATree(f"an edge needs two vertex ids, got {pair!r}") from None
        if not known:
            raise UnknownVertex(f"edge {u!r}-{v!r} uses an unknown vertex")
        u, v = ids[u], ids[v]  # an edge may name vertex 1 as 1.0 or True
        if u == v:
            raise NotATree(f"self-loop at {u!r}")
        e = canonical_edge(u, v)
        if e in seen_edges:
            raise NotATree(f"repeated edge {u!r}-{v!r}")
        seen_edges.add(e)
        edges.append(e)

    if len(edges) != len(ids) - 1:
        raise NotATree(f"{len(ids)} vertices need {len(ids) - 1} edges, got {len(edges)}")

    tree = SignedTree(
        vertices=ids_sorted,
        signs=tuple(signs[v] for v in ids_sorted),
        phantoms=tuple(phantoms[v] for v in ids_sorted),
        edges=tuple(sorted(edges)),
    )
    if len(ids) > 1 and len(tree.components()) != 1:
        raise NotATree("edge set is disconnected")
    if not tree.standard:
        raise EmptyTree("at least one standard vertex is required")
    return tree


# -- file format ----------------------------------------------------------


def tree_from_json(doc) -> SignedTree:
    """Parse the toolkit-wide tree file format (a JSON object or its text).

    `phantom` must be a JSON boolean and every edge a two-element array.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except RecursionError:
            raise NotATree("tree document nests too deeply") from None
    try:
        specs = [
            (v["id"], v.get("sign", "-"), v.get("phantom", False))
            for v in doc["vertices"]
        ]
        edges = list(doc["edges"])
    except (KeyError, TypeError) as exc:
        raise NotATree(f"malformed tree document: {exc}") from exc
    for vid, _, phantom in specs:
        if not isinstance(phantom, bool):
            raise PreconditionViolated(
                f"phantom flag of {vid!r} must be true or false, got {phantom!r}"
            )
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 2:
            raise NotATree(f"an edge needs a list of two vertex ids, got {edge!r}")
    return build_tree(specs, edges)


def tree_to_json(tree: SignedTree) -> dict:
    return {
        "vertices": [
            {"id": v, "sign": s.value, "phantom": ph}
            for v, s, ph in zip(tree.vertices, tree.signs, tree.phantoms)
        ],
        "edges": [list(e) for e in tree.edges],
    }


# -- sign-preserving transformations ---------------------------------------


class FlipAllSigns(Record):
    pass


class Relabel(Record):
    mapping: tuple  # tuple of (old, new) pairs

    @staticmethod
    def of(mapping: Mapping) -> "Relabel":
        return Relabel(tuple(sorted(mapping.items())))


class FlipLeafSign(Record):
    leaf: object


class SwitchAdjacent(Record):
    u: object
    v: object


def transform(tree: SignedTree, op) -> SignedTree:
    """Apply one of the complex-preserving tree operations.

    FlipAllSigns and FlipLeafSign are involutions; Relabel renames vertices;
    SwitchAdjacent exchanges the signs of two adjacent vertices of degree at
    most 2 carrying opposite signs.
    """
    if isinstance(op, FlipAllSigns):
        return SignedTree(
            vertices=tree.vertices,
            signs=tuple(
                s if ph else s.opposite
                for s, ph in zip(tree.signs, tree.phantoms)
            ),
            phantoms=tree.phantoms,
            edges=tree.edges,
        )
    if isinstance(op, Relabel):
        mapping = dict(op.mapping)
        if set(mapping) != set(tree.vertices):
            raise PreconditionViolated("relabeling must cover every vertex")
        if len(set(mapping.values())) != len(mapping):
            raise PreconditionViolated("relabeling must be a bijection")
        return build_tree(
            [
                (mapping[v], s, ph)
                for v, s, ph in zip(tree.vertices, tree.signs, tree.phantoms)
            ],
            [(mapping[u], mapping[v]) for u, v in tree.edges],
        )
    if isinstance(op, FlipLeafSign):
        leaf = op.leaf
        if tree.is_phantom(leaf):
            raise PreconditionViolated(f"{leaf!r} is a phantom")
        if tree.degree(leaf) > 1:
            raise PreconditionViolated(f"{leaf!r} is not a leaf")
        i = tree._index[leaf]
        signs = list(tree.signs)
        signs[i] = signs[i].opposite
        return SignedTree(tree.vertices, tuple(signs), tree.phantoms, tree.edges)
    if isinstance(op, SwitchAdjacent):
        u, v = op.u, op.v
        if not tree.has_edge(u, v):
            raise PreconditionViolated(f"{u!r} and {v!r} are not adjacent")
        if tree.degree(u) > 2 or tree.degree(v) > 2:
            raise PreconditionViolated("both switched vertices need degree <= 2")
        if tree.is_phantom(u) or tree.is_phantom(v):
            raise PreconditionViolated("cannot switch phantom vertices")
        if tree.sign_of(u) is tree.sign_of(v):
            raise PreconditionViolated("switch requires opposite signs (use Relabel)")
        iu, iv = tree._index[u], tree._index[v]
        signs = list(tree.signs)
        signs[iu], signs[iv] = signs[iv], signs[iu]
        return SignedTree(tree.vertices, tuple(signs), tree.phantoms, tree.edges)
    raise PreconditionViolated(f"unknown transform {op!r}")


def _ahu_classes(tree: SignedTree, labels: Mapping, table: dict) -> list:
    """AHU classes of the labelled tree rooted at each of its centroids.

    Each rooted subtree, children first, gets the index in `table` of
    (its root's label, the sorted classes of its children).  Trees that
    share the table get equal classes exactly when a label-keeping
    isomorphism maps one rooted subtree onto the other.  Returns one
    (centroid, vertex -> class) pair per centroid; each map lists the
    vertices children first.
    """
    start = tree.vertices[0]
    parent = tree._walk(start)
    size = dict.fromkeys(parent, 1)
    heaviest = dict.fromkeys(parent, 0)  # largest child subtree
    for v in reversed(parent):
        if v != start:
            size[parent[v]] += size[v]
            heaviest[parent[v]] = max(heaviest[parent[v]], size[v])
    n = len(parent)
    rooted = []
    for root in tree.vertices:
        if max(heaviest[root], n - size[root]) > n // 2:
            continue
        walk = tree._walk(root)
        classes = {}
        for v in reversed(walk):
            children = sorted(classes[c] for c in tree.adjacency[v] if c != walk[v])
            classes[v] = table.setdefault((labels[v], tuple(children)), len(table))
        rooted.append((root, classes))
    return rooted


def signature_classes(tree: SignedTree) -> tuple:
    """One representative signature per orbit of the complex-preserving moves.

    Moves: global sign flip, leaf sign flips, tree automorphisms, and
    switches of adjacent opposite-sign vertices of degree at most 2.  An
    automorphism carries each other move to a move, so an orbit is the set
    of signatures whose AHU class is reached by the other moves; the search
    expands one signature per class.  A signature signs every vertex, so a
    phantom tree is refused.
    """
    check_standard(tree, "a signature class")
    vertices = tree.vertices
    index = {v: i for i, v in enumerate(vertices)}
    leaves = [index[v] for v in tree.leaves]
    switchable = [
        (index[u], index[v])
        for u, v in tree.edges
        if tree.degree(u) <= 2 and tree.degree(v) <= 2
    ]
    flip = {"-": "+", "+": "-"}
    table = {}

    def canonical(signature) -> int:
        rooted = _ahu_classes(tree, dict(zip(vertices, signature)), table)
        return min(classes[root] for root, classes in rooted)

    def moves(signature):
        yield tuple(flip[s] for s in signature)
        for i in leaves:
            yield signature[:i] + (flip[signature[i]],) + signature[i + 1 :]
        for i, j in switchable:
            if signature[i] != signature[j]:
                swapped = list(signature)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                yield tuple(swapped)

    seen = set()
    representatives = []
    for bits in sorted(product("-+", repeat=len(vertices))):
        key = canonical(bits)
        if key in seen:
            continue
        representatives.append(bits)
        seen.add(key)
        frontier = [bits]
        while frontier:
            for nxt in moves(frontier.pop()):
                key = canonical(nxt)
                if key not in seen:
                    seen.add(key)
                    frontier.append(nxt)
    return tuple(representatives)


PROP18_MODES = ("exact", "anti", "up_to_leaf_signs", "anti_up_to_leaf_signs")


def signed_isomorphism(tree_a: SignedTree, tree_b: SignedTree, mode: str = "exact") -> Optional[dict]:
    """Find a tree isomorphism matching the requested sign condition.

    Modes: "exact" (signs agree), "anti" (signs opposite), and the two
    "*_up_to_leaf_signs" variants that only constrain internal vertices.
    Phantoms must map to phantoms.  Returns a vertex bijection or None.
    Decided by comparing AHU classes of vertices labelled by the mode.
    """
    if mode not in PROP18_MODES:
        raise PreconditionViolated(f"unknown isomorphism mode {mode!r}")

    leaves_free = mode.endswith("up_to_leaf_signs")

    def labels(tree: SignedTree, flip: bool) -> dict:
        def label(v, sign, phantom):
            if phantom:
                return "phantom"
            if leaves_free and tree.is_leaf(v):
                return "leaf"
            return sign.opposite if flip else sign

        specs = zip(tree.vertices, tree.signs, tree.phantoms)
        return {v: label(v, sign, phantom) for v, sign, phantom in specs}

    table = {}
    (root_a, classes_a), *_ = _ahu_classes(tree_a, labels(tree_a, False), table)
    rooted_b = _ahu_classes(tree_b, labels(tree_b, mode.startswith("anti")), table)
    for root_b, classes_b in rooted_b:
        if classes_b[root_b] == classes_a[root_a]:
            break
    else:
        return None
    mapping, matched = {root_a: root_b}, {root_b}
    for u in reversed(classes_a):  # parents before children
        kids_a = [c for c in tree_a.adjacency[u] if c not in mapping]
        kids_b = [c for c in tree_b.adjacency[mapping[u]] if c not in matched]
        for x, y in zip(sorted(kids_a, key=classes_a.get), sorted(kids_b, key=classes_b.get)):
            mapping[x] = y
            matched.add(y)
    return mapping


def phantom_split(tree: SignedTree, block: Iterable) -> tuple:
    """Split along a relevant building block into its two phantom trees.

    The first tree keeps the block standard and phantomizes the rest, the
    second does the opposite; the underlying unsigned tree never changes.
    """
    from . import blocks as _blocks

    block = frozenset(block)
    check = _blocks.is_building_block(tree, block)
    if not check:
        raise NotABuildingBlock(f"{sorted(block)} is not a building block: {check.failed}")
    if not block or block == tree.standard_set:
        raise NotABuildingBlock("phantom_split needs a relevant block")

    def phantomize(keep: frozenset) -> SignedTree:
        return SignedTree(
            vertices=tree.vertices,
            signs=tuple(
                Sign.NEGATIVE if (ph or v not in keep) else s
                for v, s, ph in zip(tree.vertices, tree.signs, tree.phantoms)
            ),
            phantoms=tuple(
                ph or (v not in keep)
                for v, ph in zip(tree.vertices, tree.phantoms)
            ),
            edges=tree.edges,
        )

    return phantomize(block), phantomize(tree.standard_set - block)


# -- boundary walk ----------------------------------------------------------

BOTTOM = "bottom"
TOP = "top"


class BoundaryGraph(Record):
    """Discrete model of the boundary of the thickened tree.

    Two copies of the tree (bottom and top) joined by a rung at every tree
    leaf.  A standard vertex is lifted to the bottom copy when negative and
    to the top copy when positive.
    """

    nodes: tuple
    edges: tuple
    lifts: tuple  # (vertex, node) pairs for standard vertices

    @cached_property
    def adjacency(self) -> Mapping:
        adj = {n: [] for n in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {n: tuple(ns) for n, ns in adj.items()}

    @cached_property
    def lift_of(self) -> Mapping:
        return dict(self.lifts)


def boundary_graph(tree: SignedTree) -> BoundaryGraph:
    nodes = [(v, side) for v in tree.vertices for side in (BOTTOM, TOP)]
    edges = []
    for u, v in tree.edges:
        edges.append(((u, BOTTOM), (v, BOTTOM)))
        edges.append(((u, TOP), (v, TOP)))
    for leaf in tree.leaves:
        edges.append(((leaf, BOTTOM), (leaf, TOP)))
    lifts = tuple(
        (v, (v, BOTTOM if tree.sign_of(v) is Sign.NEGATIVE else TOP))
        for v in tree.standard
    )
    return BoundaryGraph(tuple(nodes), tuple(edges), lifts)


def boundary_walk(tree: SignedTree, gone: int, root: int) -> int:
    """The standard vertices seen from standard index `root` on the boundary, as a mask.

    The walk visits the (vertex, side) pairs of `boundary_graph`, side 1 the
    top copy, and treats the vertices of the mask `gone` as phantoms.  It
    starts at the root's lift, stops at the lift of any other standard
    vertex, and never passes through a lift.  The top copy is opaque: the
    free point above another standard negative vertex cannot be crossed,
    while the bottom copy (under the positive vertices), phantom columns and
    the root's own column are traversable.  The asymmetry mirrors the
    bottom-up sweep that puts the root first; it is what makes the singleton
    recursion count correctly.
    """
    index, adjacency, positives = tree.standard_index, tree.adjacency, tree.positive_mask
    others = ~(gone | 1 << root)  # the standard vertices that stop the walk
    start = (tree.standard[root], positives >> root & 1)
    reached, seen, stack = 0, {start}, [start]
    while stack:
        v, top = stack.pop()
        i = index.get(v)
        if i is not None and others >> i & 1:
            if top == positives >> i & 1:  # its lift
                reached |= 1 << i
            if top or not positives >> i & 1:  # its lift, or the opaque top
                continue
        ahead = [(w, top) for w in adjacency[v]]
        if len(ahead) <= 1:  # a leaf joins its two sides
            ahead.append((v, 1 - top))
        stack += [node for node in ahead if node not in seen]
        seen.update(ahead)
    return reached


def boundary_neighbors(tree: SignedTree, root) -> frozenset:
    """`boundary_walk` from a standard vertex of the tree as it is, as a vertex set."""
    if root not in tree.standard_set:
        raise RootIsPhantom(f"root {root!r} must be a standard vertex")
    reached = boundary_walk(tree, 0, tree.standard_index[root])
    return frozenset(v for i, v in enumerate(tree.standard) if reached >> i & 1)
