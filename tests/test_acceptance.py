"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The corpus holds every
signed tree with at most six standard vertices (all signatures of all
shapes) plus the named trees; everything is exact integer or rational
arithmetic, tolerance zero.
"""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

from arbora.catalog import (
    htree_diff,
    htree_eq,
    path4_neg,
    path_neg,
    spider7,
    tripod_neg,
    tripod_pos,
)
from arbora.complexes import complex_stats, is_pseudomanifold
from arbora.fans import adjacent_congruent, fiber
from arbora.geometry import (
    barycenter,
    common_vertices_para,
    singleton_count_recursive,
    singleton_spines,
    verify_realization,
)
from arbora.minkowski import minkowski_coefficients, moebius_oracle, tight_rhs
from arbora.spines import enumerate_maximal_spines, flip_graph
from arbora.trees import FlipAllSigns, FlipLeafSign, SwitchAdjacent, transform
from arbora.weak_order import congruence_diagnostics, h_vector

from conftest import corpus

TABLE_SUBSETS = [
    frozenset({1}),
    frozenset({2}),
    frozenset({1, 2}),
    frozenset({1, 3}),
    frozenset({1, 2, 3}),
    frozenset({1, 3, 4}),
    frozenset({1, 2, 3, 4}),
]

def report(line):
    print(line)


def test_criterion_01_table_of_tight_rhs():
    assert [tight_rhs(tripod_neg(), s) for s in TABLE_SUBSETS] == [1, 1, 3, 2, 6, 3, 10]
    assert [tight_rhs(tripod_pos(), s) for s in TABLE_SUBSETS] == [1, -2, 2, 3, 6, 6, 10]
    report("CRITERION 1 PASS: tight right-hand sides on both tripods, exact")


def test_criterion_02_table_of_coefficients():
    table_neg = minkowski_coefficients(tripod_neg(), check=True)
    table_pos = minkowski_coefficients(tripod_pos(), check=True)
    assert [table_neg.y_of(s) for s in TABLE_SUBSETS] == [1, 1, 1, 0, 1, 0, 0]
    assert [table_pos.y_of(s) for s in TABLE_SUBSETS] == [1, -2, 3, 1, -1, 0, 0]
    assert table_neg.checked and table_pos.checked
    assert dict(table_neg.y) == dict(moebius_oracle(tripod_neg()))
    assert dict(table_pos.y) == dict(moebius_oracle(tripod_pos()))
    report("CRITERION 2 PASS: decomposition coefficients on both tripods, oracle-equal")


def test_criterion_03_oracle_sweep():
    checked = 0
    for tree in corpus():
        table = minkowski_coefficients(tree, max_nu=7, check=False)
        assert dict(table.y) == dict(moebius_oracle(tree, max_nu=7)), tree
        checked += 1
    report(f"CRITERION 3 PASS: closed form equals Moebius inversion on {checked} signed trees")


def test_criterion_04_htree_f_vectors():
    expected = (1, 27, 182, 478, 535, 214)
    assert complex_stats(htree_eq()).f_complex == expected
    assert complex_stats(htree_diff()).f_complex == expected
    report("CRITERION 4 PASS: both center signatures give the f-vector (1, 27, 182, 478, 535, 214)")


def test_criterion_05_catalan_narayana():
    assert len(enumerate_maximal_spines(path4_neg())) == 14
    assert h_vector(path4_neg(), (1, 2, 3, 4)) == (1, 6, 6, 1)
    for n in range(1, 8):
        tree = path_neg(n)
        catalan = comb(2 * n, n) // (n + 1)
        assert len(enumerate_maximal_spines(tree)) == catalan
        h = h_vector(tree, tuple(range(1, n + 1)))
        narayana = tuple(comb(n, k + 1) * comb(n, k) // n for k in range(n))
        assert h == narayana
    report("CRITERION 5 PASS: Catalan spine counts and Narayana h-vectors on paths up to 7")


def test_criterion_06_realization_certificates():
    checked = 0
    for tree in corpus():
        if tree.nu > 7:
            continue
        assert verify_realization(tree), tree
        checked += 1
    report(f"CRITERION 6 PASS: realization certificate on {checked} corpus trees")


def test_criterion_07_fan_completeness():
    checked = 0
    for tree in corpus():
        if tree.nu > 7:
            continue
        spines = enumerate_maximal_spines(tree)
        owner = {}
        total = 0
        for spine in spines:
            orders = fiber(tree, spine)
            total += len(orders)
            for order in orders:
                assert order not in owner, "fibers overlap"
                owner[order] = spine.key()
        assert total == factorial(tree.nu), tree
        vertices = sorted(tree.standard)
        for order in owner:
            for i in range(tree.nu - 1):
                swapped = list(order)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                other = tuple(swapped)
                congruent = adjacent_congruent(tree, order, other)
                assert congruent == (owner[order] == owner[other]), (tree, order, other)
        checked += 1
    report(f"CRITERION 7 PASS: fibers partition all orders on {checked} corpus trees")


def test_criterion_08_barycenters():
    assert barycenter(tripod_neg()) == {
        1: Fraction(41, 16),
        2: Fraction(37, 16),
        3: Fraction(41, 16),
        4: Fraction(41, 16),
    }
    assert barycenter(tripod_pos()) == {
        1: Fraction(39, 16),
        2: Fraction(43, 16),
        3: Fraction(39, 16),
        4: Fraction(39, 16),
    }
    for n in range(1, 7):
        center = Fraction(n + 1, 2)
        assert all(q == center for q in barycenter(path_neg(n)).values())
    report("CRITERION 8 PASS: exact barycenters on the tripods and centered paths")


def test_criterion_09_singletons():
    for n in range(1, 9):
        assert len(singleton_spines(path_neg(n))) == 2 ** (n - 1)
    assert len(singleton_spines(tripod_neg())) == 12
    checked = 0
    for tree in corpus():
        count = singleton_count_recursive(tree)  # raises on mismatch
        assert count == len(singleton_spines(tree))
        checked += 1
        # three-polytope common vertices: 2 on paths, 0 otherwise
        linear = sum(
            1
            for spine in common_vertices_para(tree)
            if all(
                len(spine.incoming(n)) <= 1 and len(spine.outgoing(n)) <= 1
                for n in spine.nodes
            )
        )
        is_path = all(tree.degree(v) <= 2 for v in tree.vertices)
        assert linear == (2 if is_path and tree.nu >= 2 else 1 if tree.nu == 1 else 0)
        if not tree.positives:
            assert len(common_vertices_para(tree)) == tree.nu
    report(f"CRITERION 9 PASS: singleton counts, recursion, and common vertices on {checked} trees")


def test_criterion_10_congruence_failures():
    for base in permutations((1, 2, 3, 4)):
        demo = congruence_diagnostics(tripod_neg(), base)
        assert not demo.is_order_congruence, base
    spider = spider7()
    bases = sorted(permutations(range(1, 8)))[:: max(1, factorial(7) // 50)][:50]
    assert len(bases) == 50
    for base in bases:
        found = congruence_diagnostics(spider, base)
        assert found.interval_failures, base
    report("CRITERION 10 PASS: every tripod base fails; 50 spider bases have non-interval fibers")


def test_criterion_11_structural_properties():
    checked = 0
    stats_of = {}  # tree value -> complex_stats: a transformed tree often equals a corpus tree

    def stats_for(tree):
        if tree not in stats_of:
            stats_of[tree] = complex_stats(tree)
        return stats_of[tree]

    for tree in corpus():
        if tree.nu >= 2:
            assert is_pseudomanifold(tree), tree
        for targets in flip_graph(tree).neighbors:
            assert len(set(targets)) == tree.nu - 1
        base = tuple(sorted(tree.standard))
        h = h_vector(tree, base)
        assert h == tuple(reversed(h)), tree
        d = tree.nu - 1
        f_from_h = [
            sum(comb(l, k) * h[l] for l in range(d + 1)) for k in range(d + 1)
        ]
        stats = stats_for(tree)
        assert tuple(reversed(f_from_h)) == stats.f_complex, tree

        ops = [FlipAllSigns()]
        ops += [FlipLeafSign(v) for v in tree.leaves if not tree.is_phantom(v)]
        ops += [
            SwitchAdjacent(u, v)
            for u, v in tree.edges
            if tree.degree(u) <= 2
            and tree.degree(v) <= 2
            and tree.sign_of(u) is not tree.sign_of(v)
        ]
        for op in ops:
            assert stats_for(transform(tree, op)).f_complex == stats.f_complex

        from arbora.geometry import parallel_facets

        assert len(parallel_facets(tree)) == tree.nu - 1
        checked += 1
    report(f"CRITERION 11 PASS: structural properties verified on {checked} trees")
