import importlib
import sys
from pathlib import Path

import pytest

import engelgraph.engel as engel_module
from engelgraph import (
    Group,
    Permutation,
    alternating_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    survey,
    symmetric_group,
    verify_theorems,
)

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

REPO_ROOT = Path(__file__).parent.parent

# the package's ``survey`` is the function, which shadows the module
survey_module = importlib.import_module("engelgraph.survey")


@pytest.fixture(autouse=True)
def forget_process_caches():
    """Each test starts with no catalog pass and no shared Engel core kept,
    so no count it pins depends on which tests ran before it."""
    survey_module._catalog_pass.cache_clear()
    engel_module._shared_core.cache_clear()


@pytest.fixture(scope="session")
def repo_root():
    return REPO_ROOT


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def a4():
    return alternating_group(4)


@pytest.fixture(scope="session")
def c6():
    return cyclic_group(6)


@pytest.fixture(scope="session")
def d12():
    return dihedral_group(12)


@pytest.fixture(scope="session")
def dic3():
    return dicyclic_group(12)


@pytest.fixture(scope="session")
def catalog240():
    """``survey(240)`` and the verdicts of ``verify_theorems(240)``, by
    name, both read from one catalog pass."""
    result = survey(240)
    return result, {v.name: v for v in verify_theorems(240)}


@pytest.fixture
def group_inits(monkeypatch):
    """The names of the groups constructed during a test, one entry per
    ``Group.__init__`` call and one per Engel core built from generator
    rows by ``Group._from_generator_rows``."""
    names = []
    init = Group.__init__
    from_rows = Group._from_generator_rows.__func__

    def counted(self, generators, name):
        names.append(name)
        init(self, generators, name)

    def counted_from_rows(cls, gen_rows, name):
        names.append(name)
        return from_rows(cls, gen_rows, name)

    monkeypatch.setattr(Group, "__init__", counted)
    monkeypatch.setattr(Group, "_from_generator_rows", classmethod(counted_from_rows))
    return names


@pytest.fixture
def raw_permutations(monkeypatch):
    """The number of Permutations made by ``Permutation._raw``, the path
    of products, inverses and ``Group.elements``, during a test.  A
    generator parsed by ``Permutation.from_cycles``, which also ends in
    ``_raw``, is not an element made, so it is not counted."""
    made = [0]
    raw = Permutation._raw.__func__
    from_cycles = Permutation.from_cycles.__func__

    def counted_raw(cls, imgs):
        made[0] += 1
        return raw(cls, imgs)

    def uncounted_from_cycles(cls, cycles):
        before = made[0]
        parsed = from_cycles(cls, cycles)
        made[0] = before
        return parsed

    monkeypatch.setattr(Permutation, "_raw", classmethod(counted_raw))
    monkeypatch.setattr(Permutation, "from_cycles", classmethod(uncounted_from_cycles))
    return made


def elem(G, *cycles):
    """Index of the element given by cycles, e.g. elem(s3, (1, 2))."""
    return G.index(Permutation.from_cycles(cycles))
