#!/usr/bin/env python3
"""Gather f/h-vector evidence across signature classes of every tree shape.

For each unlabeled shape up to the bound, enumerate one signature per
equivalence class of the complex-preserving moves, compare f-vectors,
h-vectors, and vertex-facet incidence profiles, and flag any shape whose
classes disagree.  (No disagreement is known; this script only reports.)
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from arbora.catalog import tree_shapes
from arbora.complexes import complex_stats
from arbora.trees import build_tree, signature_classes
from arbora.weak_order import h_vector


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-nu", type=int, default=6)
    args = parser.parse_args()

    for n in range(2, args.max_nu + 1):
        for edges in tree_shapes(n):
            base_tree = build_tree([(i, "-") for i in range(1, n + 1)], edges)
            classes = signature_classes(base_tree)
            f_vectors, h_vectors, profiles = set(), set(), set()
            for signature in classes:
                tree = build_tree(
                    [(i + 1, signature[i]) for i in range(n)], edges
                )
                stats = complex_stats(tree)
                f_vectors.add(stats.f_complex)
                profiles.add(stats.incidence_profile)
                h_vectors.add(h_vector(tree, tuple(range(1, n + 1))))
            shape = ",".join(f"{u}-{v}" for u, v in edges)
            verdict = "f/h agree" if len(f_vectors) == len(h_vectors) == 1 else "F/H DIFFER"
            iso = "profiles agree" if len(profiles) == 1 else f"{len(profiles)} profiles"
            print(
                f"nu={n} [{shape}]: {len(classes)} classes, {verdict}, {iso}; "
                f"f={sorted(f_vectors)[0]}"
            )


if __name__ == "__main__":
    main()
