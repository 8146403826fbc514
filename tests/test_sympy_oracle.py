"""Group invariants of every catalog plan against sympy.combinatorics: the
order, the number of conjugacy classes, the order of the derived subgroup
and nilpotency."""

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from engelgraph import (  # noqa: E402
    build_group,
    catalog_plans,
    conjugacy_classes,
    derived_subgroup,
    is_nilpotent,
    render_group_spec,
)


def sympy_group(G):
    gens = [G.perm(g) for g in G.generators]
    degree = max(p.degree for p in gens)
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation([p(i) - 1 for i in range(1, degree + 1)]) for p in gens]
    )


def test_catalog_invariants_match_sympy():
    mismatches = []
    for plan in catalog_plans(120):
        G = build_group(plan)
        P = sympy_group(G)
        ours = (G.order, len(conjugacy_classes(G)), len(derived_subgroup(G)),
                is_nilpotent(G, range(G.order)))
        theirs = (P.order(), len(P.conjugacy_classes()), P.derived_subgroup().order(),
                  P.is_nilpotent)
        if ours != theirs:
            mismatches.append(f"{render_group_spec(plan)}: {ours} != {theirs}")
    assert mismatches == []
