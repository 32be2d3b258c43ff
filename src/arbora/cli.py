"""Batch command-line front-end.

Every command reads a tree file ({"vertices": [...], "edges": [...]}) and
writes one JSON document (DOT for `flipgraph --dot`) to stdout.  Exit code
0 means success, 1 an input problem, 2 a failed verification.  Output is
deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import permutations, product

from .complexes import complex_stats, enumerate_nested_sets
from .errors import ArboraError, BoundExceeded, VerificationFailure
from .fans import kappa
from .geometry import (
    barycenter,
    isometric,
    realize_polytope,
    singleton_spines,
)
from .minkowski import minkowski_coefficients
from .spines import flip_graph, spine_to_json
from .trees import SignedTree, build_tree, tree_from_json
from .weak_order import congruence_diagnostics, h_vector


def _load_tree(path: str) -> SignedTree:
    with open(path, "r", encoding="utf-8") as handle:
        return tree_from_json(handle.read())


def _emit(document) -> None:
    sys.stdout.write(
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    )


def _ids(collection) -> list:
    return sorted(collection)


def _parse_order(tree: SignedTree, text: str) -> tuple:
    """Map comma-separated ids, as written in the tree file, to standard vertices."""
    by_name = {str(v): v for v in tree.standard}
    return tuple(by_name.get(token, token) for token in text.split(","))


def _check_bound(tree: SignedTree, max_nu: int) -> None:
    if tree.nu > max_nu:
        raise BoundExceeded(f"nu = {tree.nu} exceeds the bound {max_nu}")


def cmd_blocks(args) -> int:
    from .blocks import enumerate_blocks

    tree = _load_tree(args.tree)
    _check_bound(tree, args.max_nu)
    _emit([_ids(b) for b in enumerate_blocks(tree)])
    return 0


def cmd_complex(args) -> int:
    tree = _load_tree(args.tree)
    stats = complex_stats(tree)
    facets = enumerate_nested_sets(tree, max_only=True)
    _emit(
        {
            "f_vector": list(stats.f_complex),
            "facets": [sorted(_ids(b) for b in facet) for facet in facets],
        }
    )
    return 0


def cmd_polytope(args) -> int:
    tree = _load_tree(args.tree)
    description = realize_polytope(tree, max_nu=args.max_nu)
    order = sorted(tree.standard)
    document = {
        "vertices": [
            {"spine": spine_to_json(spine), "coords": [point[v] for v in order]}
            for spine, point in description.vertices
        ],
        "facets": [
            {"block": _ids(block), "rhs": half.rhs}
            for block, half in description.facets
        ],
        "certificate": "PASS" if description.certificate else "FAIL",
    }
    _emit(document)
    return 0 if description.certificate else 2


def cmd_kappa(args) -> int:
    tree = _load_tree(args.tree)
    _emit(spine_to_json(kappa(tree, _parse_order(tree, args.order))))
    return 0


def cmd_flipgraph(args) -> int:
    tree = _load_tree(args.tree)
    graph = flip_graph(tree)
    spines = graph.spines
    edges = {
        (min(i, j), max(i, j))
        for i, targets in enumerate(graph.neighbors)
        for j in targets
    }
    if args.dot:
        lines = ["graph flips {"]
        for i, spine in enumerate(spines):
            label = "|".join(
                ",".join(str(v) for v in source)
                for source in sorted(
                    (sorted(s) for s in spine.key()), key=lambda s: (len(s), s)
                )
            )
            lines.append(f'  s{i} [label="{label}"];')
        for i, j in sorted(edges):
            lines.append(f"  s{i} -- s{j};")
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit(
            {
                "spines": [spine_to_json(s) for s in spines],
                "flips": sorted([i, j] for i, j in edges),
            }
        )
    return 0


def cmd_minkowski(args) -> int:
    tree = _load_tree(args.tree)
    table = minkowski_coefficients(tree, max_nu=args.max_nu, check=args.check)
    _emit(
        {
            "y": {",".join(map(str, _ids(s))): v for s, v in table.y},
            "z": {",".join(map(str, _ids(s))): v for s, v in table.z},
            "check": "PASS" if table.checked else "SKIPPED",
        }
    )
    return 0


def cmd_singletons(args) -> int:
    tree = _load_tree(args.tree)
    pairs = singleton_spines(tree)
    from .geometry import singleton_count_recursive

    recursive = singleton_count_recursive(tree)
    _emit(
        {
            "count": len(pairs),
            "recursive_count": recursive,
            "orders": [list(order) for _, order in pairs],
        }
    )
    return 0


def cmd_barycenter(args) -> int:
    tree = _load_tree(args.tree)
    point = barycenter(tree)
    _emit({str(v): f"{q.numerator}/{q.denominator}" for v, q in point.items()})
    return 0


def cmd_isometric(args) -> int:
    a = _load_tree(args.tree)
    b = _load_tree(args.other)
    _emit({"isometric": isometric(a, b)})
    return 0


def cmd_congruence(args) -> int:
    tree = _load_tree(args.tree)
    if args.all_orders:
        bases = list(permutations(sorted(tree.standard)))
    elif args.order:
        bases = [_parse_order(tree, args.order)]
    else:
        raise ArboraError("congruence-check needs --order or --all-orders")

    def diagnose(base):
        report = congruence_diagnostics(tree, base, max_nu=args.max_nu)
        return {
            "base": list(base),
            "order_congruence": report.is_order_congruence,
            "non_interval_fibers": len(report.interval_failures),
            "projection_down_ok": report.projection_down_failure is None,
            "projection_up_ok": report.projection_up_failure is None,
        }

    _emit({"reports": [diagnose(base) for base in bases]})
    return 0


def cmd_signature_sweep(args) -> int:
    tree = _load_tree(args.tree)
    _check_bound(tree, args.max_nu)
    classes = signature_classes(tree)

    def summarize(signature):
        signed = _with_signature(tree, signature)
        stats = complex_stats(signed)
        return {
            "signature": {str(v): s for v, s in zip(signed.standard, signature)},
            "f_vector": list(stats.f_complex),
            "h_vector": list(h_vector(signed, tuple(sorted(signed.standard)))),
            "incidence_profile": list(stats.incidence_profile),
        }

    summaries = [summarize(signature) for signature in classes]
    f_vectors = {tuple(s["f_vector"]) for s in summaries}
    h_vectors = {tuple(s["h_vector"]) for s in summaries}
    profiles = {tuple(s["incidence_profile"]) for s in summaries}
    _emit(
        {
            "classes": summaries,
            "all_f_equal": len(f_vectors) == 1,
            "all_h_equal": len(h_vectors) == 1,
            "all_profiles_equal": len(profiles) == 1,
        }
    )
    return 0


def _with_signature(tree: SignedTree, signature: tuple) -> SignedTree:
    specs = [(v, s) for v, s in zip(tree.standard, signature)]
    return build_tree(specs, tree.edges)


def unsigned_automorphisms(tree: SignedTree) -> tuple:
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


def signature_classes(tree: SignedTree) -> tuple:
    """One representative signature per orbit of the complex-preserving moves.

    Moves: global sign flip, leaf sign flips, tree automorphisms, and
    switches of adjacent opposite-sign vertices of degree at most 2.
    """
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbora",
        description="Exact toolkit for signed trees, spines, and their polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("tree", help="tree file (JSON)")
        p.set_defaults(fn=fn)
        return p

    p = add("blocks", cmd_blocks, help="list the relevant building blocks")
    p.add_argument("--max-nu", type=int, default=20)
    add("complex", cmd_complex, help="f-vector and facets of the nested complex")
    p = add("polytope", cmd_polytope, help="vertex/facet description with certificate")
    p.add_argument("--max-nu", type=int, default=10)
    p = add("kappa", cmd_kappa, help="sweep a linear order onto a spine")
    p.add_argument("--order", required=True, help="comma-separated vertex ids")
    p = add("flipgraph", cmd_flipgraph, help="the flip graph of maximal spines")
    p.add_argument("--dot", action="store_true")
    p = add("minkowski", cmd_minkowski, help="decomposition coefficients")
    p.add_argument("--check", action="store_true", help="force the oracle comparison")
    p.add_argument("--max-nu", type=int, default=7)
    add("singletons", cmd_singletons, help="directed-path spines and their orders")
    add("barycenter", cmd_barycenter, help="exact vertex barycenter")
    p = add("isometric", cmd_isometric, help="isometry test for two trees")
    p.add_argument("other", help="second tree file (JSON)")
    p = add("congruence-check", cmd_congruence, help="fiber diagnostics in the weak order")
    p.add_argument("--order", help="base order, comma-separated")
    p.add_argument("--all-orders", action="store_true")
    p.add_argument("--max-nu", type=int, default=8)
    p = add("signature-sweep", cmd_signature_sweep, help="compare signatures of one tree")
    p.add_argument("--max-nu", type=int, default=8)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (ArboraError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
