"""Batch command-line front-end.

Every command reads a tree file ({"vertices": [...], "edges": [...]}) and
writes one JSON document (DOT for `flipgraph --dot`) to stdout.  Exit code
0 means success, 1 an input problem (a usage error too), 2 a failed
verification.  Output is deterministic byte for byte.  Each command imports
the modules it uses, so starting the front-end loads only the tree layer.

A cold start loads `argparse`, `json`, `arbora.errors` and `arbora.trees`,
whose own imports are `enum`, `functools`, `itertools`, `operator`,
`typing`, `weakref` and `collections`.  The package's records subclass
`trees.Record`, so no command loads `dataclasses` (which pulls in `inspect`,
`ast`, `dis` and `tokenize`), and only `barycenter` and `minkowski` (and
`geometry.para_summands`) load `fractions`.  `polytope` and `flipgraph` write
each maximal spine from the flip graph's index arcs, and `singletons` lists
the orders of its directed paths, so none of them builds a `Spine`.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import permutations

from .errors import ArboraError, PreconditionViolated, VerificationFailure
from .trees import SignedTree, build_tree, check_bound, signature_classes, tree_from_json


# `congruence-check --all-orders` diagnoses nu! bases over nu! orders each:
# about 4 s (path) to 6 s (star) at nu = 6 on 2 cores.  At nu = 7 one base
# took 0.03 s (path) to 0.07 s (star), so the 5 040 bases need 2 to 6 min.
ALL_ORDERS_MAX_NU = 6

# `flipgraph`, `complex` and `singletons` hold every maximal spine: on a
# 9-vertex star (109 601 spines) they peak at 117-289 MiB, and a 10-vertex
# star has nine times as many spines, so about 1.0-2.6 GiB.
SPINES_MAX_NU = 9

# `kappa` reads `SignedTree.path_masks`, the one separation table of the
# tree, nu^2 masks of up to nu bits, so its memory grows with nu^3: on a
# path with nu = 1000, `arbora kappa` took 1.3 s and peaked at 140 MiB RSS
# on a 2-core machine.
KAPPA_MAX_NU = 1000


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


def cmd_blocks(args) -> int:
    from .blocks import enumerate_blocks

    tree = _load_tree(args.tree)
    check_bound(tree, args.max_nu)
    _emit([_ids(b) for b in enumerate_blocks(tree)])
    return 0


def cmd_complex(args) -> int:
    from .complexes import complex_stats, enumerate_nested_sets

    tree = _load_tree(args.tree)
    check_bound(tree, SPINES_MAX_NU)
    stats = complex_stats(tree)
    facets = enumerate_nested_sets(tree, max_only=True)
    _emit(
        {
            "f_vector": list(stats.f_complex),
            "facets": [sorted(_ids(b) for b in facet) for facet in facets],
        }
    )
    return 0


def _maximal_spines_json(graph) -> list:
    """The flip graph's spines as `spine_to_json` writes them, without building a `Spine`.

    A maximal spine's nodes are the singletons of the standard vertices by
    index, one list shared by every spine, and its arcs are its index pairs.
    """
    nodes = [{"id": i, "label": [v]} for i, v in enumerate(graph.vertices)]
    return [{"nodes": nodes, "arcs": [[t, h] for t, h, _ in arcs]} for arcs in graph.arcs]


def cmd_polytope(args) -> int:
    from .geometry import _realization
    from .spines import flip_graph

    tree = _load_tree(args.tree)
    points, facets, certificate = _realization(tree, args.max_nu)
    spines = _maximal_spines_json(flip_graph(tree))
    document = {
        "vertices": [
            {"spine": spine, "coords": list(point.values())}
            for spine, point in zip(spines, points)
        ],
        "facets": [{"block": _ids(block), "rhs": half.rhs} for block, half in facets],
        "certificate": "PASS" if certificate else "FAIL",
    }
    _emit(document)
    return 0 if certificate else 2


def cmd_kappa(args) -> int:
    from .fans import kappa
    from .spines import spine_to_json

    tree = _load_tree(args.tree)
    check_bound(tree, KAPPA_MAX_NU)
    _emit(spine_to_json(kappa(tree, _parse_order(tree, args.order))))
    return 0


def cmd_flipgraph(args) -> int:
    from .spines import flip_graph

    tree = _load_tree(args.tree)
    check_bound(tree, SPINES_MAX_NU)
    graph = flip_graph(tree)
    # a flip is in the neighbours of both its spines: list it once, from the lower
    flips = sorted(
        (i, j) for i, targets in enumerate(graph.neighbors) for j in targets if i < j
    )
    if args.dot:
        lines = ["graph flips {"]
        members = list(enumerate(tree.standard))
        for i, arcs in enumerate(graph.arcs):
            sources = [[v for k, v in members if mask >> k & 1] for *_, mask in arcs]
            sources.sort(key=lambda s: (len(s), s))
            label = "|".join(",".join(map(str, source)) for source in sources)
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  s{i} [label="{label}"];')
        for i, j in flips:
            lines.append(f"  s{i} -- s{j};")
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit({"spines": _maximal_spines_json(graph), "flips": flips})
    return 0


def cmd_minkowski(args) -> int:
    from .minkowski import minkowski_coefficients

    tree = _load_tree(args.tree)
    joined = [v for v in tree.standard if "," in str(v)]
    if joined:  # the keys join ids with ","
        raise PreconditionViolated(f"minkowski keys need ids without ',', got {joined[0]!r}")
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
    from .geometry import singleton_count_recursive, singleton_orders

    tree = _load_tree(args.tree)
    check_bound(tree, SPINES_MAX_NU)
    orders = [list(order) for order, _ in singleton_orders(tree)]
    recursive = singleton_count_recursive(tree)
    _emit({"count": len(orders), "recursive_count": recursive, "orders": orders})
    return 0


def cmd_barycenter(args) -> int:
    from .geometry import barycenter

    tree = _load_tree(args.tree)
    point = barycenter(tree)
    _emit({str(v): f"{q.numerator}/{q.denominator}" for v, q in point.items()})
    return 0


def cmd_isometric(args) -> int:
    from .geometry import isometric

    a = _load_tree(args.tree)
    b = _load_tree(args.other)
    _emit({"isometric": isometric(a, b)})
    return 0


def cmd_congruence(args) -> int:
    from .weak_order import congruence_diagnostics

    tree = _load_tree(args.tree)
    if args.all_orders:
        check_bound(tree, ALL_ORDERS_MAX_NU)
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
    from .complexes import complex_stats
    from .weak_order import h_vector

    tree = _load_tree(args.tree)
    check_bound(tree, args.max_nu)
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


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: exit code 1, where argparse would exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
