"""Output checks.  Each check returns a list of problems; an empty list passes.

The block oracle below is independent of arbora: it tests a vertex subset
with bitmasks.  A set S is negative convex when every negative vertex w
outside S leaves S inside one component of the tree minus w, and its
complement is positive convex when every positive vertex w inside S leaves
the complement inside one component of the tree minus w.
"""

from __future__ import annotations

import json
from math import comb, factorial

import inputs


class BlockOracle:
    def __init__(self, doc: dict):
        self.ids = [v["id"] for v in doc["vertices"]]
        self.bit = {v: 1 << i for i, v in enumerate(self.ids)}
        self.full = (1 << len(self.ids)) - 1
        adjacency = {v: [] for v in self.ids}
        for u, v in doc["edges"]:
            adjacency[u].append(v)
            adjacency[v].append(u)
        self.edges = [tuple(e) for e in doc["edges"]]
        self.adjacency = adjacency
        self.negative = []  # (bit, component masks of the tree minus the vertex)
        self.positive = []
        for vertex in doc["vertices"]:
            w = vertex["id"]
            side = self.negative if vertex["sign"] == "-" else self.positive
            side.append((self.bit[w], [self._side(n, w) for n in adjacency[w]]))

    def _side(self, start, removed) -> int:
        mask, stack, seen = 0, [start], {removed, start}
        while stack:
            x = stack.pop()
            mask |= self.bit[x]
            for y in self.adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return mask

    def mask(self, members) -> int:
        result = 0
        for v in members:
            result |= self.bit[v]
        return result

    def is_block(self, s: int) -> bool:
        for w, sides in self.negative:
            if not s & w and sum(1 for c in sides if c & s) > 1:
                return False
        complement = self.full & ~s
        for w, sides in self.positive:
            if s & w and sum(1 for c in sides if c & complement) > 1:
                return False
        return True

    def members(self, s: int) -> list:
        return [v for v in self.ids if s & self.bit[v]]

    def all_blocks(self) -> list:
        """Every relevant block, in arbora's canonical order (size, then members)."""
        found = [self.members(s) for s in range(1, self.full) if self.is_block(s)]
        return sorted(found, key=lambda b: (len(b), b))

    def required_blocks(self) -> list:
        """Blocks every signed tree has: both sides of each edge, the singleton
        of each negative vertex and the co-singleton of each positive one."""
        required = []
        if len(self.ids) < 2:
            return required
        for u, v in self.edges:
            side = self._side(u, v)
            required += [side, self.full & ~side]
        required += [w for w, _ in self.negative]
        required += [self.full & ~w for w, _ in self.positive]
        return required


def _canonical_problems(listed) -> list:
    keys = [(len(b), b) for b in listed]
    if keys != sorted(keys):
        return ["blocks are not in canonical order"]
    if len(set(map(tuple, listed))) != len(listed):
        return ["duplicate blocks"]
    if any(b != sorted(b) for b in listed):
        return ["block members are not sorted"]
    return []


def check_blocks(doc: dict, listed) -> list:
    """`listed` is the parsed output of `arbora blocks`."""
    problems = _canonical_problems(listed)
    oracle = BlockOracle(doc)
    masks = {oracle.mask(b) for b in listed}
    if any(s not in masks for s in oracle.required_blocks()):
        problems.append("an edge-cut, singleton or co-singleton block is missing")
    if listed != oracle.all_blocks():
        problems.append("blocks differ from the independent enumeration")
    return problems


def check_polytope(doc: dict, document) -> list:
    """`document` is the parsed output of `arbora polytope`."""
    nu = len(doc["vertices"])
    problems = []
    if document.get("certificate") != "PASS":
        problems.append("certificate is not PASS")
    coords = [tuple(v["coords"]) for v in document["vertices"]]
    if any(len(c) != nu or sum(c) != comb(nu + 1, 2) for c in coords):
        problems.append("a vertex does not sum to C(nu+1, 2)")
    if len(set(coords)) != len(coords):
        problems.append("two spines share a vertex")
    listed = [f["block"] for f in document["facets"]]
    problems += _canonical_problems(listed)
    if listed != BlockOracle(doc).all_blocks():
        problems.append("facets are not one per block")
    if any(f["rhs"] != comb(len(f["block"]) + 1, 2) for f in document["facets"]):
        problems.append("a facet has the wrong right-hand side")
    return problems


def check_summary(doc: dict, summary: dict) -> list:
    """Invariants of one certificate bundle (see worker.chain)."""
    nu = len(doc["vertices"])
    spines = summary["spines"]
    problems = []
    if not summary["certificate"]:
        problems.append("realization certificate failed")
    if sum(summary["fiber_sizes"]) != factorial(nu) or min(summary["fiber_sizes"]) < 1:
        problems.append("fiber sizes do not partition the nu! orders")
    if summary["fan"] != [True, spines, factorial(nu)]:
        problems.append("fan certificate does not cover every order once")
    f, h = summary["f_vector"], summary["h_vector"]
    if summary["blocks"] != len(BlockOracle(doc).all_blocks()):
        problems.append("block count differs from the independent enumeration")
    if f[0] != 1 or f[-1] != spines or (nu > 1 and f[1] != summary["blocks"]):
        problems.append("f-vector does not match blocks and spines")
    f_from_h = [sum(comb(l, k) * h[l] for l in range(nu)) for k in range(nu)]
    if h != h[::-1] or sum(h) != spines or f_from_h[::-1] != f:
        problems.append("h-vector is not symmetric or does not give the f-vector")
    if not summary["checked"]:
        problems.append("Moebius check did not run")
    if summary["z"][-1] != comb(nu + 1, 2) or sum(summary["y"]) != summary["z"][-1]:
        problems.append("coefficients do not sum to the full right-hand side")
    return problems


def parse_json(stdout: str):
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def digest_problems(expected: dict, key: str, output: str) -> list:
    """Compare with the digest recorded for this input, when one was recorded."""
    want = expected.get(key)
    if want is not None and want != inputs.digest(output):
        return ["output differs from the digest recorded for this input"]
    return []
