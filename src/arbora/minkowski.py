"""Tight right-hand sides and simplex-face decomposition coefficients.

Every subset of the ground set has a tight supporting value z computed from
its two-level spine; Moebius inversion of z gives the coefficients y of the
decomposition of the polytope into dilated faces of the standard simplex.
The closed form for y is supported on negative paths; the runtime check
compares it with the Moebius inversion of the same z, and the Moebius oracle
recomputes z from scratch as the ground truth.  `minkowski_coefficients`
holds z as one table indexed by subset mask, read off one sweep per subset
with no spine built (`_tight_table`), and inverts it by the subset transform
(`_moebius_table`); `tight_rhs` and `_moebius`, on frozensets, are their
oracles.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable

from .errors import InvalidPath, InversionMismatch
from .fans import _sweep, kappa_extended
from .spines import Spine, _source_masks, one_node_spine
from .trees import Record, SignedTree, check_bound, check_standard, subset_key


def two_level_spine(tree: SignedTree, subset: Iterable) -> Spine:
    """The unique spine whose source labels union to the given subset.

    Computed by sweeping the two-block ordered partition (subset first);
    the extreme subsets collapse to the one-node spine.
    """
    subset = frozenset(subset)
    if not subset or subset == tree.standard_set:
        return one_node_spine(tree)
    return kappa_extended(tree, (subset, tree.standard_set - subset))


def _source_nodes(spine: Spine, subset: frozenset) -> tuple:
    return tuple(node for node in spine.nodes if node <= subset)


def tight_rhs(tree: SignedTree, subset: Iterable) -> int:
    """The minimum of the subset-coordinate sum over all polytope vertices.

    Evaluated on the two-level spine: the binomial values of its source
    sets, corrected by the full binomial once per extra arc at each source
    node.
    """
    subset = frozenset(subset)
    if not subset:
        return 0
    nu = tree.nu
    spine = two_level_spine(tree, subset)
    total = sum(comb(len(spine.source_set(arc)) + 1, 2) for arc in spine.arcs)
    degree_excess = sum(
        len(spine.incoming(node)) + len(spine.outgoing(node)) - 1
        for node in _source_nodes(spine, subset)
    )
    return total - comb(nu + 1, 2) * degree_excess


def _tight_table(tree: SignedTree) -> list:
    """`tight_rhs` of every subset, indexed by mask (bit i for standard[i]).

    Sweeping S first and then the rest gives the maximal spine that
    contracts to the two-level spine of S: its arcs from S to the rest are
    the two-level arcs, with the same source masks, and its arcs inside S
    join the vertices of S into the source nodes.  Each source node of the
    two-level spine touches the cross arcs at it, so the degree excess
    over the source nodes is #cross - (|S| - #arcs inside S).
    """
    nu = tree.nu
    table = [0] * (1 << nu)
    for mask in range(1, 1 << nu):
        order = [i for i in range(nu) if mask >> i & 1]
        order += [i for i in range(nu) if not mask >> i & 1]
        pairs = _sweep(tree, order)
        total, cross, inside = 0, 0, 0
        for (tail, head), source in zip(pairs, _source_masks(nu, pairs)):
            if mask >> head & 1:  # the tail is swept earlier: inside S
                inside += 1
            elif mask >> tail & 1:
                cross += 1
                total += comb(source.bit_count() + 1, 2)
        excess = cross - mask.bit_count() + inside
        table[mask] = total - comb(nu + 1, 2) * excess
    return table


class NegativePath(Record):
    members: frozenset
    endpoints: tuple  # (p, q) with p <= q; p == q for singletons


def negative_paths(tree: SignedTree) -> tuple:
    """Subsets spanning a tree path that contain all its negative vertices.

    The endpoints always belong; interior positive vertices are optional.
    Singletons always qualify.
    """
    vertices = sorted(tree.standard)
    paths = []
    for v in vertices:
        paths.append(NegativePath(frozenset({v}), (v, v)))
    for p, q in combinations(vertices, 2):
        route = tree.path_between(p, q)
        interior = route[1:-1]
        required = [w for w in interior if w in tree.negatives]
        optional = [w for w in interior if w in tree.positives]
        base = frozenset({p, q}) | frozenset(required)
        for r in range(len(optional) + 1):
            for extra in combinations(optional, r):
                paths.append(NegativePath(base | frozenset(extra), (p, q)))
    return tuple(sorted(paths, key=lambda path: subset_key(path.members)))


def _component_sizes(tree: SignedTree, vertex, away_from=None) -> list:
    sizes = []
    for comp in tree.components(frozenset({vertex})):
        if away_from is not None and away_from in comp:
            continue
        sizes.append(len(comp))
    return sizes


def path_weight(tree: SignedTree, path: NegativePath) -> Fraction:
    """The alternating weight of a negative path, as an exact rational.

    For distinct endpoints the weight multiplies the two endpoint factors
    (negative endpoints count -1, positive ones 1 plus the mass hanging
    away from the path) with a sign per positive member.  A positive
    singleton weighs minus half the sum over the components at the vertex
    of (nu - size) * (size + 1); that value can be half-integral on its
    own, and only the degree correction of the coefficient formula makes
    the combination integral.
    """
    p, q = path.endpoints
    members = path.members
    if p == q:
        if p not in members or members != {p}:
            raise InvalidPath("singleton path must consist of its endpoint")
        if p in tree.negatives:
            return Fraction(1)
        nu = tree.nu
        total = sum(
            (nu - len(comp)) * (len(comp) + 1)
            for comp in tree.components(frozenset({p}))
        )
        return -Fraction(total, 2)

    route = tree.path_between(p, q)
    if not members <= frozenset(route):
        raise InvalidPath("members must lie on the endpoint path")
    positive_members = sum(1 for v in members if v in tree.positives)

    def endpoint_factor(x, y):
        if x in tree.negatives:
            return -1
        return 1 + sum(_component_sizes(tree, x, away_from=y))

    sign = -1 if positive_members % 2 else 1
    return Fraction(sign * endpoint_factor(p, q) * endpoint_factor(q, p))


class CoefficientTable(Record):
    z: tuple  # (subset, int) pairs over nonempty subsets
    y: tuple  # (subset, int) pairs over nonempty subsets
    checked: bool  # True when verified against the Moebius oracle

    def z_of(self, subset: Iterable) -> int:
        return dict(self.z)[frozenset(subset)]

    def y_of(self, subset: Iterable) -> int:
        return dict(self.y)[frozenset(subset)]


def minkowski_coefficients(
    tree: SignedTree, max_nu: int = 7, check: bool = True
) -> CoefficientTable:
    """Closed-form decomposition coefficients, optionally oracle-checked.

    y vanishes off negative paths; positive singletons add the degree
    correction nu * deg / 2 + 1 to their weight; every other negative path
    contributes its weight as is.  The closed form holds for trees without
    phantom vertices only; a phantom tree is refused.  With `check` the
    table is compared with the Moebius inversion of z; without it nothing
    is verified, and `checked` says so.
    """
    check_standard(tree, "the closed form")
    check_bound(tree, max_nu)
    nu = tree.nu
    vertices = tree.standard
    subsets = [  # (subset, mask) pairs, bit i for vertices[i]
        (frozenset(vertices[i] for i in combo), sum(1 << i for i in combo))
        for r in range(1, nu + 1)
        for combo in combinations(range(nu), r)
    ]

    y = {subset: 0 for subset, _ in subsets}
    for path in negative_paths(tree):
        weight = path_weight(tree, path)
        if len(path.members) == 1:
            (member,) = path.members
            if member in tree.positives:
                weight += Fraction(nu * tree.degree(member), 2) + 1
        if weight.denominator != 1:
            raise InvalidPath(
                f"non-integral coefficient {weight} on {sorted(path.members)}"
            )
        y[path.members] = int(weight)

    table = _tight_table(tree)
    z = {subset: table[mask] for subset, mask in subsets}

    if check:
        oracle = _moebius_table(table)
        for subset, mask in subsets:
            if oracle[mask] != y[subset]:
                raise InversionMismatch(
                    f"closed form gives {y[subset]} but Moebius inversion "
                    f"{oracle[mask]} on {sorted(subset)}"
                )

    return CoefficientTable(
        tuple(sorted(z.items(), key=lambda kv: subset_key(kv[0]))),
        tuple(sorted(y.items(), key=lambda kv: subset_key(kv[0]))),
        bool(check),
    )


def moebius_oracle(tree: SignedTree, max_nu: int = 7) -> tuple:
    """Inclusion-exclusion of the tight right-hand sides: the ground truth y."""
    check_bound(tree, max_nu)
    vertices = sorted(tree.standard)
    z = {
        frozenset(combo): tight_rhs(tree, combo)
        for r in range(1, len(vertices) + 1)
        for combo in combinations(vertices, r)
    }
    return tuple(sorted(_moebius(z).items(), key=lambda kv: subset_key(kv[0])))


def _moebius_table(z: list) -> list:
    """`_moebius` of a table indexed by mask, with z[0] = 0, for every mask at once.

    The in-place subset transform: for each bit in turn, every mask that
    holds the bit subtracts the value of the mask without it.
    """
    y = list(z)
    bit = 1
    while bit < len(y):
        for mask in range(len(y)):
            if mask & bit:
                y[mask] -= y[mask ^ bit]
        bit <<= 1
    return y


def _moebius(z: dict) -> dict:
    """y(S) = sum over nonempty T <= S of (-1)^|S - T| z(T), with z(empty) = 0."""
    y = {}
    for subset in z:
        members = sorted(subset)
        y[subset] = sum(
            (-1) ** (len(members) - k) * z[frozenset(sub)]
            for k in range(1, len(members) + 1)
            for sub in combinations(members, k)
        )
    return y
