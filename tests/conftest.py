from functools import lru_cache

import pytest
from hypothesis import strategies as st

from arbora import catalog
from arbora.blocks import _mask, _span
from arbora.trees import build_tree


@pytest.fixture
def tripod_neg():
    return catalog.tripod_neg()


@pytest.fixture
def tripod_pos():
    return catalog.tripod_pos()


@pytest.fixture
def p3mix():
    return catalog.p3mix()


@pytest.fixture
def path4_neg():
    return catalog.path4_neg()


@pytest.fixture
def htree_eq():
    return catalog.htree_eq()


@pytest.fixture
def htree_diff():
    return catalog.htree_diff()


@pytest.fixture
def spider7():
    return catalog.spider7()


@lru_cache(maxsize=None)
def _shared_corpus() -> tuple:
    return tuple(catalog.corpus(max_nu=6, include_named=False)), tuple(
        factory() for factory in catalog.NAMED_TREES.values()
    )


def corpus(max_nu: int = 6, include_named: bool = True) -> tuple:
    """`catalog.corpus(max_nu, include_named)` on tree objects shared by every test.

    A tree keeps its blocks and flip graph in its own memo, so the tests that
    walk the corpus reuse each other's work only on the same tree objects.
    """
    assert max_nu <= 6
    trees, named = _shared_corpus()
    return tuple(t for t in trees if t.nu <= max_nu) + (named if include_named else ())


def held_together(tree, vertices, deleted) -> bool:
    """Oracle: no vertex of `deleted` lies on the tree path between two of `vertices`.

    Both are sets of standard vertices; members of `deleted` that belong to
    `vertices` are ignored.  A set that avoids `deleted` is held together
    exactly when it lies in one component of the tree minus `deleted`: the
    separation rule of spines, of the sweep and of adjacent congruence, on
    frozensets, read off the path masks of the tree.
    """
    mask = _mask(tree, vertices)
    return not _span(tree, mask) & _mask(tree, deleted) & ~mask


@st.composite
def signed_trees(draw, min_nu=1, max_nu=6):
    """Random signed trees by random attachment, ids 1..n."""
    n = draw(st.integers(min_value=min_nu, max_value=max_nu))
    edges = []
    for i in range(2, n + 1):
        parent = draw(st.integers(min_value=1, max_value=i - 1))
        edges.append((parent, i))
    signs = [draw(st.sampled_from("-+")) for _ in range(n)]
    return build_tree([(i + 1, signs[i]) for i in range(n)], edges)


@st.composite
def phantom_trees(draw, max_vertices=9):
    """Random trees with random phantom vertices, at least one vertex standard."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
    phantoms = [draw(st.booleans()) for _ in range(n)]
    phantoms[draw(st.integers(0, n - 1))] = False
    signs = [draw(st.sampled_from("-+")) for _ in range(n)]
    return build_tree(
        [(i + 1, signs[i], phantoms[i]) for i in range(n)], edges
    )
