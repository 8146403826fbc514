"""Group invariants of every catalog plan against sympy.combinatorics: the
order, the number of conjugacy classes, the order of the derived subgroup,
nilpotency and the order of the centre."""

import pytest

pytest.importorskip("sympy.combinatorics")

from engelgraph import build_group, catalog_plans  # noqa: E402
from oracles import sympy_invariant_mismatch  # noqa: E402


def test_catalog_invariants_match_sympy():
    plans = catalog_plans(120)
    assert len(plans) == 243
    assert [m for m in map(sympy_invariant_mismatch, map(build_group, plans)) if m] == []
