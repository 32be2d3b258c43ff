#!/usr/bin/env python3
"""Sweep the small-tree corpus: for every signature of every shape, verify
the realization certificate, the fan certificate, the pseudo-manifold
check, the fiber partition, the singleton recursion, and the coefficient
oracle, and run the congruence diagnostics on the sorted base.  Prints one
summary line per shape, with the number of signatures whose fibers form an
order congruence of that base."""

import argparse
import sys
from math import factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from arbora.catalog import all_signatures, tree_shapes
from arbora.complexes import is_pseudomanifold
from arbora.fans import fan_cover_check, fiber
from arbora.geometry import singleton_count_recursive, verify_realization
from arbora.minkowski import minkowski_coefficients
from arbora.spines import enumerate_maximal_spines
from arbora.weak_order import congruence_diagnostics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-nu", type=int, default=6)
    args = parser.parse_args()

    for n in range(1, args.max_nu + 1):
        for edges in tree_shapes(n):
            signatures = 0
            facet_counts = set()
            singleton_counts = set()
            congruences = 0
            for tree in all_signatures(edges, n):
                assert verify_realization(tree)
                fan_cover_check(tree, max_nu=args.max_nu)
                # below two standard vertices the complex has no ridges
                assert n < 2 or is_pseudomanifold(tree)
                spines = enumerate_maximal_spines(tree)
                assert sum(len(fiber(tree, s)) for s in spines) == factorial(n)
                singleton_counts.add(singleton_count_recursive(tree))
                minkowski_coefficients(tree, max_nu=args.max_nu, check=True)
                base = tuple(sorted(tree.standard))
                report = congruence_diagnostics(tree, base, max_nu=args.max_nu)
                congruences += report.is_order_congruence
                facet_counts.add(len(spines))
                signatures += 1
            shape = ",".join(f"{u}-{v}" for u, v in edges) or "point"
            print(
                f"nu={n} shape [{shape}]: {signatures} signatures OK, "
                f"facets {sorted(facet_counts)}, "
                f"singletons {sorted(singleton_counts)}, congruences {congruences}"
            )


if __name__ == "__main__":
    main()
