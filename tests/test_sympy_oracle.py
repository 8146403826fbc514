"""Group invariants of every catalog plan against sympy.combinatorics: the
order, the number of conjugacy classes, the order of the derived subgroup,
nilpotency and the order of the centre."""

import pytest

pytest.importorskip("sympy.combinatorics")

from oracles import sympy_invariant_mismatches  # noqa: E402


def test_catalog_invariants_match_sympy():
    plans, mismatches = sympy_invariant_mismatches(120)
    assert plans == 243
    assert mismatches == []
