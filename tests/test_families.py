import importlib
from functools import reduce
from math import factorial

import pytest

import engelgraph.families as families_module
from engelgraph import (
    ClosureTooLarge,
    InvalidParameter,
    ParseError,
    ProductSpec,
    alternating_group,
    build_group,
    catalog_plans,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    is_abelian,
    left_engel_set,
    parse_group_spec,
    render_group_spec,
    survey,
    symmetric_group,
    verify_theorems,
)
from engelgraph.families import FAMILIES
from engelgraph.groups import MAX_ORDER


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_orders(n):
    assert symmetric_group(n).order == factorial(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_alternating_orders(n):
    assert alternating_group(n).order == factorial(n) // 2


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_cyclic_orders(n):
    G = cyclic_group(n)
    assert G.order == n
    assert is_abelian(G)


@pytest.mark.parametrize("order", [6, 8, 12, 30])
def test_dihedral_orders(order):
    assert dihedral_group(order).order == order


@pytest.mark.parametrize("order", [8, 12, 20])
def test_dicyclic_orders(order):
    assert dicyclic_group(order).order == order


def test_dihedral_relations(d12):
    s, r = d12.generators
    assert d12.order_of(s) == 6
    assert d12.order_of(r) == 2
    assert d12.conjugate(s, r) == d12.inv(s)


def test_dicyclic_relations(dic3):
    x, y = dic3.generators
    assert dic3.order_of(x) == 6
    assert dic3.mul(y, y) == dic3.power(x, 3)
    assert dic3.conjugate(x, y) == dic3.inv(x)
    # dicyclic groups have a unique involution (x^n)
    involutions = [
        g for g in range(12) if g != dic3.identity and dic3.mul(g, g) == dic3.identity
    ]
    assert involutions == [dic3.power(x, 3)]


@pytest.mark.parametrize(
    "build, bad",
    [
        (dihedral_group, 4),
        (dihedral_group, 7),
        (dihedral_group, 13),
        (dicyclic_group, 4),
        (dicyclic_group, 6),
        (dicyclic_group, 10),
        (symmetric_group, 0),
        (alternating_group, 1),
        (cyclic_group, 0),
    ],
)
def test_invalid_parameters(build, bad):
    with pytest.raises(InvalidParameter):
        build(bad)


def test_parser_and_constructors_accept_the_same_numbers(monkeypatch):
    # only the number's validity is compared, so no group is enumerated
    monkeypatch.setattr(families_module, "Group", lambda gens, name: name)
    constructors = {
        "symmetric": symmetric_group,
        "alternating": alternating_group,
        "cyclic": cyclic_group,
        "dihedral": dihedral_group,
        "dicyclic": lambda n: dicyclic_group(4 * n),  # it takes the order
    }
    assert set(constructors) == set(FAMILIES)
    refused, too_large = [], []
    for kind, build in constructors.items():
        for n in range(41):
            text = f"{FAMILIES[kind].code}{n}"
            try:
                rendered = render_group_spec(parse_group_spec(text))
            except ParseError:
                rendered = None
            try:
                name = build(n)
            except InvalidParameter:
                name = None
            except ClosureTooLarge as err:
                # a valid number whose group exceeds the order limit
                order = FAMILIES[kind].order(n)
                assert str(err) == f"{text} has {order} elements, above the limit of 4096"
                refused.append(text)
                name = text
            assert name == rendered, text
            if rendered is not None and FAMILIES[kind].order(n) > MAX_ORDER:
                too_large.append(text)
    # the order limit refuses S7..S40 and A8..A40, and nothing else
    assert refused == too_large
    assert len(refused) == 34 + 33


def test_built_groups_are_named_by_their_rendered_spec():
    for plan in [*catalog_plans(120), parse_group_spec("T")]:
        assert build_group(plan).name == render_group_spec(plan)


def test_direct_product_order_and_disjoint_supports(s3, c6):
    G = direct_product(s3, c6)
    assert G.order == 36
    assert G.name == "S3xC6"
    # the S3 part moves points 1..3, the C6 part points 4..9
    for i in G.generators[:2]:
        assert all(point <= 3 for cycle in G.perm(i).cycles() for point in cycle)
    for i in G.generators[2:]:
        assert all(point >= 4 for cycle in G.perm(i).cycles() for point in cycle)


def test_direct_product_with_trivial_group(s3):
    trivial = cyclic_group(1)
    G = direct_product(trivial, s3)
    assert G.order == 6
    assert set(G.elements) == set(s3.elements)


def test_product_of_three(s3):
    c2 = cyclic_group(2)
    G = direct_product(direct_product(s3, c2), c2)
    assert G.order == 24


def test_direct_product_reads_the_factor_generators(raw_permutations):
    # a product is generated by its factors' generators, so no element of
    # either factor is made
    G = direct_product(dihedral_group(120), cyclic_group(2))
    assert raw_permutations == [0]
    assert G.order == 240 and G._table == build_group("D120xC2")._table


EXTRA_PRODUCTS = ["S3xC2xC2", "A4xC2xC3", "S1xS3", "S3xC1", "Dic2xD12"]


def test_products_equal_the_composition_of_their_factor_groups():
    plans = [p for p in catalog_plans(120) if isinstance(p, ProductSpec)]
    plans += [parse_group_spec(text) for text in EXTRA_PRODUCTS]
    assert len(plans) == 154 + len(EXTRA_PRODUCTS)
    for plan in plans:
        G = build_group(plan)
        reference = reduce(direct_product, (build_group(f) for f in plan.factors))
        name = render_group_spec(plan)
        assert G.name == reference.name == name
        assert G.elements == reference.elements, name
        assert G._table == reference._table, name
        assert G.generators == reference.generators, name


def test_every_spec_is_built_with_one_group(group_inits):
    specs = [*catalog_plans(120), *EXTRA_PRODUCTS, "T", "D6", "S1", "A2", "C1", "C1xC1"]
    quotients = 0
    for spec in specs:
        group_inits.clear()
        G = build_group(spec)
        assert len(group_inits) == 1, spec
        # L(G) adds at most one table-built group, the Engel core G/Z*(G),
        # and none when the centre is trivial
        left_engel_set(G)
        assert group_inits in ([G.name], [G.name, G.name + "/Z*"]), spec
        quotients += len(group_inits) - 1
    assert quotients == 215


def test_survey_and_verify_build_one_group_per_plan(monkeypatch, group_inits):
    # the catalog pass alone, each group with its Engel core when its
    # centre is non-trivial; the isomorphic-pair verdict reads the records
    monkeypatch.setattr(importlib.import_module("engelgraph.survey"), "_last_catalog", None)
    survey(120)
    verify_theorems(120)
    assert len(catalog_plans(120)) == 243
    quotients = [name for name in group_inits if name.endswith("/Z*")]
    assert len(group_inits) - len(quotients) == 243
    assert len(quotients) == 211
