import json
import math
from dataclasses import replace
import random
import time

import pytest

from engelgraph import (
    ClosureTooLarge,
    FamilySpec,
    FileSpec,
    LabelMismatch,
    ParseError,
    Permutation,
    ProductSpec,
    SimpleGraph,
    build_engel_graph,
    build_group,
    parse_cycles,
    parse_group_spec,
    read_generator_file,
    render_group_spec,
    write_dot,
    write_report,
)
from engelgraph.survey import report, survey
from oracles import report_json_by_dumps


# -- group specs --

def test_parse_families():
    assert parse_group_spec("S4") == FamilySpec("symmetric", 4)
    assert parse_group_spec("A5") == FamilySpec("alternating", 5)
    assert parse_group_spec("C12") == FamilySpec("cyclic", 12)
    assert parse_group_spec("D12") == FamilySpec("dihedral", 12)
    assert parse_group_spec("Dic3") == FamilySpec("dicyclic", 3)
    assert parse_group_spec("T") == FamilySpec("dicyclic", 3)
    assert parse_group_spec(" D14 ") == FamilySpec("dihedral", 14)


def test_parse_products_and_files():
    assert parse_group_spec("S3xC2") == ProductSpec(
        (FamilySpec("symmetric", 3), FamilySpec("cyclic", 2))
    )
    assert parse_group_spec("S3xC2xC2") == ProductSpec(
        (
            FamilySpec("symmetric", 3),
            FamilySpec("cyclic", 2),
            FamilySpec("cyclic", 2),
        )
    )
    assert parse_group_spec("@fixtures/c7_c3.gens") == FileSpec("fixtures/c7_c3.gens")


@pytest.mark.parametrize(
    "bad, position",
    [
        ("", 0),
        ("Q5", 0),
        ("S", 0),
        ("D7", 0),  # dihedral order must be even
        ("D4", 0),  # and at least 6
        ("Dic1", 0),
        ("A1", 0),
        ("S0", 0),
        ("S3x", 3),
        ("xC2", 0),
        ("S3xQ7", 3),
        ("@", 1),
        ("S3\nxC2", 0),  # a term ends where its digits do, not at a newline
    ],
)
def test_parse_errors_carry_positions(bad, position):
    with pytest.raises(ParseError) as err:
        parse_group_spec(bad)
    assert err.value.position == position


def test_round_trip_on_generated_corpus():
    rng = random.Random(31)
    corpus = ["T", "@some/dir/gens.txt"]
    for _ in range(50):
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["S", "A", "C", "D", "Dic"])
            n = {
                "S": rng.randint(1, 9),
                "A": rng.randint(2, 9),
                "C": rng.randint(1, 30),
                "D": rng.choice(range(6, 40, 2)),
                "Dic": rng.randint(2, 12),
            }[kind]
            factors.append(f"{kind}{n}")
        corpus.append("x".join(factors))
    for text in corpus:
        spec = parse_group_spec(text)
        assert parse_group_spec(render_group_spec(spec)) == spec


def test_aliases_render_canonically():
    assert render_group_spec(parse_group_spec("T")) == "Dic3"


# -- cycle notation --

def test_parse_cycles_examples():
    p = parse_cycles("(1,2,3)(4,5)")
    assert p(1) == 2 and p(2) == 3 and p(3) == 1 and p(4) == 5 and p(5) == 4
    assert parse_cycles("()") == Permutation()
    assert parse_cycles(" (2, 4) ") == Permutation.from_cycles([(2, 4)])
    assert parse_cycles("(3)") == Permutation()  # explicit fixed point


@pytest.mark.parametrize(
    "bad",
    [
        "", "1,2", "(1,2", "(1 2)", "(1,,2)", "(1,2)(2,3)", "(0,1)", "(1,2))", "(a,b)",
        # digits that are not decimal, which int() refuses
        "(3,²)", "(²,1)",
        # labels above 4096**2, one of them too long for int()
        "(3,1000000000)",
        pytest.param("(1," + "9" * 5000 + ")", id="(1,<5000 digits>)"),
    ],
)
def test_parse_cycles_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_cycles(bad)


def test_parse_cycles_reports_repeat_position():
    with pytest.raises(ParseError) as err:
        parse_cycles("(1,2)(2,3)")
    assert "point 2 repeated" in str(err.value)
    assert err.value.position == 6


def test_cycle_string_round_trip():
    rng = random.Random(37)
    for _ in range(200):
        imgs = list(range(1, rng.randint(0, 12) + 1))
        rng.shuffle(imgs)
        p = Permutation(imgs)
        assert parse_cycles(str(p)) == p


# -- generator files --

def test_read_generator_file(repo_root):
    gens = read_generator_file(repo_root / "fixtures" / "c7_c3.gens")
    assert len(gens) == 2
    assert gens[0] == Permutation.from_cycles([(1, 2, 3, 4, 5, 6, 7)])


def test_build_group_from_file(repo_root):
    G = build_group("@fixtures/c7_c3.gens", base_dir=repo_root)
    assert G.order == 21
    assert G.name == "@fixtures/c7_c3.gens"


def test_file_group_matches_product_plan(repo_root):
    from_file = build_group("@fixtures/s3_s3.gens", base_dir=repo_root)
    from_plan = build_group("S3xS3")
    assert from_file.elements == from_plan.elements


def test_generator_file_errors(tmp_path):
    empty = tmp_path / "empty.gens"
    empty.write_text("# nothing but comments\n\n")
    with pytest.raises(ParseError, match="no generators"):
        read_generator_file(empty)
    bad = tmp_path / "bad.gens"
    bad.write_text("(1,2)\n(3,3)\n")
    with pytest.raises(ParseError, match="bad.gens:2"):
        read_generator_file(bad)


def test_unreadable_generator_files_are_parse_errors(tmp_path):
    (tmp_path / "binary.gens").write_bytes(b"(1,2)\n\xff\xfe\n")
    for name in ("missing.gens", ".", "binary.gens"):
        with pytest.raises(ParseError, match="cannot read"):
            read_generator_file(tmp_path / name)


def test_groups_above_the_order_limit_fail_fast(tmp_path, group_inits):
    (tmp_path / "s7.gens").write_text("(1,2)\n(1,2,3,4,5,6,7)\n")
    # a family term or a product is rejected from its spec's order, before
    # any group is built; a generator file only once its closure outgrows
    # the limit
    orders = {
        "S7": 5040, "S9": 362880, "C100000": 100000, "S20000": "more than 10^100",
        "S5xS6": 86400, "C4096xC2": 8192, "A5xA5xC2": 7200, "S3xC2000": 12000,
        "S3xS20000": "more than 10^100", "S1000000": "more than 10^100",
        "S1000000000": "more than 10^100", "S1000000xC2": "more than 10^100",
        "A70xC2": "more than 10^100",
    }
    for spec in ("@s7.gens", *orders):
        group_inits.clear()
        start = time.perf_counter()
        with pytest.raises(ClosureTooLarge) as err:
            build_group(spec, base_dir=tmp_path)
        assert time.perf_counter() - start < 2, spec
        if spec in orders:
            limit = f"{spec} has {orders[spec]} elements, above the limit of 4096"
            assert str(err.value) == limit
            assert group_inits == [], spec


def test_numbers_too_long_to_read_are_parse_errors():
    # int() refuses more than 4300 digits on interpreters that limit it;
    # where it does not, the order check refuses the group instead
    text = "C" + "9" * 5000
    try:
        spec = parse_group_spec(text)
    except ParseError as err:
        assert str(err) == "the number after C has 5000 digits, too many to read (at position 0)"
    else:
        with pytest.raises(ClosureTooLarge, match="more than 10\\^100"):
            build_group(spec)


def test_orders_past_a_googol_are_not_computed_in_full():
    # the exact order up to 10^100; above it, the first partial product
    # past 10^100, which is all the limit message needs
    assert parse_group_spec("S69").order() == math.factorial(69) < 10**100
    assert parse_group_spec("A70").order() == math.factorial(70) // 2 < 10**100
    for spec in ("S70", "S1000000000", "A71", "A1000000000"):
        assert 10**100 < parse_group_spec(spec).order() < 10**102, spec
    for spec in ("S69xS69", "C3xS1000000000", "A70xC2"):
        assert parse_group_spec(spec).order() > 10**100, spec


# -- DOT output --

def test_write_dot_for_s3_graph(s3):
    g = build_engel_graph(s3)
    labels = [str(s3.perm(x)) for x in g.labels]
    text = write_dot(g, labels)
    # canonical order sorts elements by image tuple: (2,3) < (1,2) < (1,3)
    assert text == (
        "graph {\n"
        '  v0 [label="(2,3)"];\n'
        '  v1 [label="(1,2)"];\n'
        '  v2 [label="(1,3)"];\n'
        "  v0 -- v1;\n"
        "  v0 -- v2;\n"
        "  v1 -- v2;\n"
        "}\n"
    )
    assert write_dot(g, labels) == text  # deterministic


def test_write_dot_edge_cases():
    assert write_dot(SimpleGraph(0, []), []) == "graph {\n}\n"
    one = write_dot(SimpleGraph(1, []), ["x"])
    assert one == 'graph {\n  v0 [label="x"];\n}\n'
    with pytest.raises(LabelMismatch):
        write_dot(SimpleGraph(2, []), ["only-one"])


def test_write_dot_escapes_quotes():
    text = write_dot(SimpleGraph(1, []), ['sa"id'])
    assert '\\"' in text


# -- JSON reports --

def test_write_report_s3():
    text = write_report(report("S3"))
    data = json.loads(text)
    assert list(data) == [
        "name",
        "order",
        "isEngel",
        "fittingOrder",
        "vertexCount",
        "edgeCount",
        "componentCount",
        "diameter",
        "cliqueNumber",
        "planar",
        "isolatedCount",
        "checks",
    ]
    assert data["name"] == "S3"
    assert data["order"] == 6
    assert data["isEngel"] is False
    assert data["fittingOrder"] == 3
    assert data["vertexCount"] == 3
    assert data["edgeCount"] == 3
    assert data["componentCount"] == 1
    assert data["diameter"] == 1
    assert data["cliqueNumber"] == 3
    assert data["planar"] is True
    assert data["isolatedCount"] == 0
    assert all(passed is True for passed in data["checks"].values())


def test_write_report_engel_group():
    data = json.loads(write_report(report("C6")))
    assert data["name"] == "C6"
    assert data["isEngel"] is True
    assert data["fittingOrder"] == 6
    assert data["vertexCount"] == 0
    assert data["edgeCount"] == 0
    assert data["planar"] is True


def test_write_report_d12():
    data = json.loads(write_report(report("D12")))
    assert data["fittingOrder"] == 6
    assert data["vertexCount"] == 6
    assert data["edgeCount"] == 12
    assert data["diameter"] == 2
    assert data["planar"] is True


def test_write_report_is_byte_stable():
    assert write_report(report("A4")) == write_report(report("A4"))


def test_write_report_is_the_json_dumps_text_of_every_catalog_report():
    # one template for json.dumps(payload, indent=2) + "\n": every catalog
    # report up to 480, a disconnected graph's "inf" diameter, an Engel
    # group's empty graph, an empty check map, and names that JSON must
    # escape
    reports = list(survey(480).reports)
    assert len(reports) == 1278
    disconnected = replace(reports[0], metrics=replace(reports[0].metrics, diameter=math.inf))
    reports += [disconnected, report("C6"), replace(report("C6"), checks={}), report("A4")]
    for name in ['say "hi"', "back\\slash", "tab\tnew\nline", "Zé→∞", "\u2028", "\x7f"]:
        reports.append(replace(reports[-1], name=name))
    for r in reports:
        assert write_report(r) == report_json_by_dumps(r), r.name
    assert json.loads(write_report(disconnected))["diameter"] == "inf"
