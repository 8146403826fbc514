"""Property tests of the Engel relation, with elements drawn by hypothesis.

Two facts about the Engel graph E_G hold in every group:

- conjugation equivariance: [a^g,_k x^g] = [a,_k x]^g, so G acts on E_G by
  automorphisms;
- commuting elements are never adjacent, so E_G is a subgraph of the
  non-commuting graph.
"""

from functools import cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import REPO_ROOT  # noqa: E402
from engelgraph import build_group, centralizer, engel_adjacent  # noqa: E402

SPECS = ("S3", "A4", "D12", "Dic3", "S4", "S3xC2", "@fixtures/c7_c3.gens")


@cache
def group(spec):
    return build_group(spec, base_dir=REPO_ROOT)


# each group is built on its first draw, so the tests set no deadline
groups = st.sampled_from(SPECS).map(group)


@settings(deadline=None)
@given(groups, st.data())
def test_engel_adjacency_is_conjugation_equivariant(G, data):
    elements = st.integers(0, G.order - 1)
    x = data.draw(elements, label="x")
    y = data.draw(elements.filter(lambda y: y != x), label="y")
    g = data.draw(elements, label="g")
    assert engel_adjacent(G, G.conjugate(x, g), G.conjugate(y, g)) == engel_adjacent(G, x, y)


@settings(deadline=None)
@given(groups, st.data())
def test_commuting_elements_are_not_adjacent(G, data):
    x = data.draw(st.integers(0, G.order - 1), label="x")
    y = data.draw(st.sampled_from([c for c in centralizer(G, x) if c != x]), label="y")
    assert G.mul(x, y) == G.mul(y, x)
    assert not engel_adjacent(G, x, y)
