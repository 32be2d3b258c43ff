"""Exact-arithmetic toolkit for vertex-signed trees and their associahedra.

Modules
-------
trees       signed (phantom) trees, transformations, signature classes,
            isomorphism, boundary walk, the per-tree memo
blocks      building blocks, tubes, open subtrees, compatibility
complexes   the nested complex: faces, f-vectors, links, pseudo-manifold check
spines      the spine calculus: validation, contraction, flips, cuts
fans        linear orders and ordered partitions swept onto spines
geometry    exact vertices, facets, certificates, barycenters, singletons
weak_order  increasing flips, h-vectors, congruence diagnostics
minkowski   tight right-hand sides and simplex-face decompositions
catalog     canonical test trees and the small-tree corpus
cli         batch front-end over tree files
"""

__version__ = "0.1.0"
