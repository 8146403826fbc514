"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight fixtures (full catalog sweep at order 120) are shared at
module scope and timed, so the single-threaded time bounds can be asserted
alongside the exact values; the order-240 criteria read ``catalog240``, one
catalog pass shared by the session.  The millisecond bounds of criteria 01-03 are
on the CPU time of this process, so a stall while another process holds
the core does not count against them.
"""

import hashlib
import random
import time
from itertools import combinations

import pytest

from engelgraph import (
    build_engel_graph,
    build_group,
    catalog_plans,
    centralizer,
    clique_number,
    compute_metrics,
    conjugacy_classes,
    derived_subgroup,
    engel_reaches_identity,
    find_isomorphism,
    fitting_subgroup,
    is_abelian,
    is_nilpotent,
    is_planar,
    is_randomly_engel_conjugates,
    is_subgroup,
    kuratowski_witness,
    lcm_power_engel_check,
    left_engel_set,
    normal_closure,
    subgroup_generated,
    summary_json,
    survey,
    verify_kuratowski_witness,
    verify_theorems,
    write_dot,
    write_report,
)
from conftest import elem
from oracles import (
    brute_clique_number,
    engel_reaches_by_iteration,
    find_k33_subdivision,
    planar_by_subdivision_search,
    random_graph,
)

MAX_SURVEY_ORDER = 120


@pytest.fixture(scope="module")
def survey120():
    start = time.perf_counter()
    result = survey(MAX_SURVEY_ORDER)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def verdicts120():
    start = time.perf_counter()
    verdicts = verify_theorems(MAX_SURVEY_ORDER)
    return {v.name: v for v in verdicts}, time.perf_counter() - start


@pytest.fixture(scope="module")
def catalog120():
    return [
        (G.name, G)
        for G in (build_group(plan) for plan in catalog_plans(MAX_SURVEY_ORDER))
    ]


def _passed(number, description):
    print(f"CRITERION {number:02d} ({description}): PASS")


def test_criterion_01_asymmetric_engel_relation(s3):
    t = elem(s3, (1, 2))
    c = elem(s3, (1, 2, 3))
    start = time.process_time()
    forward = engel_reaches_identity(s3, t, c)
    backward = engel_reaches_identity(s3, c, t)
    elapsed = time.process_time() - start
    assert forward.reached is True
    assert backward.reached is False
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    _passed(1, "asymmetric Engel relation in S3")


def test_criterion_02_s3_engel_graph(s3):
    start = time.process_time()
    g = build_engel_graph(s3)
    m = compute_metrics(g)
    elapsed = time.process_time() - start
    assert m.vertex_count == 3 and m.edge_count == 3
    assert all(g.adjacent(u, v) for u, v in combinations(range(3), 2))  # complete
    assert m.diameter == 1 and m.diameter in (1, 2)
    assert m.clique_number == 3 and m.clique_number >= 3
    assert m.planar and m.isolated_count == 0
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"
    _passed(2, "E_S3 is a planar K3 of diameter 1")


def test_criterion_03_a4_engel_graph(a4):
    start = time.process_time()
    g = build_engel_graph(a4)
    m = compute_metrics(g)
    witness = find_k33_subdivision(g)
    elapsed = time.process_time() - start

    assert m.vertex_count == 8 and m.edge_count == 24
    assert m.clique_number == 4
    assert not m.planar

    # independent adjacency oracle: plain iteration of the commutator map
    non_edges = []
    for i, j in combinations(range(8), 2):
        x, y = g.labels[i], g.labels[j]
        oracle = not engel_reaches_by_iteration(
            a4, x, y
        ) and not engel_reaches_by_iteration(a4, y, x)
        assert g.adjacent(i, j) == oracle
        if not oracle:
            non_edges.append((x, y))
    # the only non-edges are the four inverse pairs of 3-cycles
    assert len(non_edges) == 4
    assert all(a4.inv(x) == y for x, y in non_edges)

    assert witness is not None
    assert verify_kuratowski_witness(witness, g) == "K33"
    library_witness = kuratowski_witness(g)
    assert verify_kuratowski_witness(library_witness, g) in ("K5", "K33")

    assert elapsed < 0.050, f"took {elapsed * 1000:.2f} ms"
    _passed(3, "E_A4 is K_{2,2,2,2} with a verified K33 subdivision")


def test_criterion_04_d12_and_t_graphs(d12, dic3):
    start = time.perf_counter()
    gd = build_engel_graph(d12)
    gt = build_engel_graph(dic3)
    md = compute_metrics(gd)
    mt = compute_metrics(gt)
    mapping = find_isomorphism(gd, gt)
    elapsed = time.perf_counter() - start

    for m in (md, mt):
        assert m.vertex_count == 6 and m.edge_count == 12
        assert m.diameter == 2 and m.planar
    assert mapping is not None

    # non-adjacent pairs of E_D12 are exactly {s^i r, s^(i+3) r}, the
    # hexagon pairing (r, rs, rs^2, rs^4, rs^5, rs^3) drawn as an octahedron
    s, r = d12.generators
    expected = {
        frozenset((d12.mul(d12.power(s, i), r), d12.mul(d12.power(s, i + 3), r)))
        for i in range(3)
    }
    actual = {
        frozenset((gd.labels[i], gd.labels[j]))
        for i, j in combinations(range(6), 2)
        if not gd.adjacent(i, j)
    }
    assert actual == expected
    # same pairing written with reflections on the left: {r s^i, r s^(i+3)}
    assert expected == {
        frozenset((d12.mul(r, d12.power(s, i)), d12.mul(r, d12.power(s, i + 3))))
        for i in range(3)
    }

    # and in T: {x^i y, x^(i+3) y}
    x, y = dic3.generators
    expected_t = {
        frozenset((dic3.mul(dic3.power(x, i), y), dic3.mul(dic3.power(x, i + 3), y)))
        for i in range(3)
    }
    actual_t = {
        frozenset((gt.labels[i], gt.labels[j]))
        for i, j in combinations(range(6), 2)
        if not gt.adjacent(i, j)
    }
    assert actual_t == expected_t

    assert elapsed < 0.050, f"took {elapsed * 1000:.2f} ms"
    _passed(4, "E_D12 and E_T are isomorphic planar octahedra")


def test_criterion_05_planarity_classification(verdicts120):
    verdicts, elapsed = verdicts120
    verdict = verdicts["planar_classification"]
    assert verdict.passed, verdict.detail
    # concretely: the planar members of this catalog
    assert "planar=['D12', 'Dic3', 'S3', 'S3xC2']" in verdict.detail
    assert elapsed < 60, f"took {elapsed:.1f} s"
    _passed(5, "planar Engel graphs only for the S3/D12/Dic3 types")


def test_criterion_06_survey_properties(survey120):
    result, elapsed = survey120
    assert result.reports, "survey produced no reports"
    problems = []
    for r in result.reports:
        m = r.metrics
        if m.component_count != 1:
            problems.append(
                f"RESEARCH-LEVEL FINDING, not a tool failure: {r.name} has a "
                f"disconnected Engel graph ({m.component_count} components)"
            )
        elif m.diameter not in (1, 2):
            problems.append(f"{r.name}: diameter {m.diameter}")
        if m.isolated_count:
            problems.append(f"{r.name}: {m.isolated_count} isolated vertices")
        if m.clique_number < 3:
            problems.append(f"{r.name}: clique number {m.clique_number}")
        if r.order % r.fitting_order:
            problems.append(f"{r.name}: fitting order does not divide order")
        if m.vertex_count != r.order - r.fitting_order:
            problems.append(f"{r.name}: vertex count mismatch")
    assert not problems, "; ".join(problems)
    assert not result.failed_checks, result.failed_checks
    assert elapsed < 60, f"took {elapsed:.1f} s"
    _passed(
        6,
        f"{len(result.reports)} catalog groups: connected, diameter 1-2, no "
        "isolated vertices, clique >= 3",
    )


def test_criterion_07_baer_fitting_suite(catalog120):
    rng = random.Random(41)
    for name, G in catalog120:
        L = fitting_subgroup(G)  # raises BaerViolation if the set misbehaves
        members = set(L)
        assert is_subgroup(G, L), name
        assert all(
            G.conjugate(a, g) in members for a in L for g in range(G.order)
        ), name
        assert is_nilpotent(G, L), name
        # maximality: enlarging L by any outside element y breaks normal
        # nilpotency.  normal_closure(L + {y}) = normal_closure(L + {y^g}),
        # both being the least normal subgroup over L and y's class, so one
        # representative per conjugacy class decides every y in it.
        for cls in conjugacy_classes(G):
            if cls[0] in members:
                continue
            bigger = normal_closure(G, list(L) + [cls[0]])
            assert not is_nilpotent(G, bigger), f"{name}: class of {cls[0]}"
        # spot-check that reduction on random conjugates
        outside = [y for y in range(G.order) if y not in members]
        if outside:
            y = rng.choice(outside)
            g = rng.randrange(G.order)
            assert normal_closure(G, list(L) + [y]) == normal_closure(
                G, list(L) + [G.conjugate(y, g)]
            )
    _passed(7, f"Baer/Fitting assertions and maximality on {len(catalog120)} groups")


def test_criterion_08_randomly_engel_equivalence(catalog120):
    checked = 0
    for name, G in catalog120:
        if G.order > 60:
            continue
        fitting = set(fitting_subgroup(G))
        for x in range(G.order):
            assert (x in fitting) == is_randomly_engel_conjugates(G, x), (
                f"{name}: element {x} = {G.perm(x)}"
            )
        checked += 1
    assert checked > 50
    _passed(8, f"Fitting membership matches the conjugate Engel test on {checked} groups")


def test_criterion_09_isomorphic_graph_divisibility(d12, dic3, verdicts120):
    gd, gt = build_engel_graph(d12), build_engel_graph(dic3)
    assert find_isomorphism(gd, gt) is not None
    l_d12 = len(left_engel_set(d12))
    l_t = len(left_engel_set(dic3))
    assert l_t == 6
    complement = d12.order - l_d12
    assert complement == 6
    assert complement % l_t == 0
    assert complement == dic3.order - l_t
    verdicts, _ = verdicts120
    assert verdicts["isomorphic_pair_divisibility"].passed
    _passed(9, "E_D12 = E_T and |L(T)| divides |D12| - |L(D12)|")


def test_criterion_10_diameter_one_structure(verdicts120, s3):
    verdicts, _ = verdicts120
    for name in ("diameter_one_structure", "universal_vertex_structure"):
        assert verdicts[name].passed, verdicts[name].detail
    assert "'S3'" in verdicts["diameter_one_structure"].detail
    # direct look at the smallest case: in S3 every vertex is universal, an
    # involution, and self-centralizing
    g = build_engel_graph(s3)
    for v in range(g.vertex_count):
        assert len(g.neighbors(v)) == g.vertex_count - 1
        x = g.labels[v]
        assert s3.mul(x, x) == s3.identity
        assert set(centralizer(s3, x)) == set(subgroup_generated(s3, [x]))
    _passed(10, "diameter-1 graphs have the forced involution structure")


def test_criterion_11_power_collapse_sweep(catalog120):
    subsets = [ts for size in (1, 2, 3) for ts in combinations((1, 2, 3), size)]
    cases = 0
    groups = 0
    for name, G in catalog120:
        if G.order > 24:
            continue
        if not is_abelian(G, derived_subgroup(G)):
            continue  # not metabelian
        groups += 1
        for a in range(G.order):
            for b in range(G.order):
                H = subgroup_generated(G, (a, b))
                ncl = subgroup_generated(G, {G.conjugate(a, h) for h in H})
                if not is_abelian(G, ncl):
                    continue
                powers = {t: G.power(b, t) for t in (1, 2, 3)}
                for ts in subsets:
                    c = a
                    for t in ts:
                        c = G.commutator(c, powers[t])
                    if c == G.identity:
                        assert lcm_power_engel_check(G, a, b, list(ts)) is True
                        cases += 1
    assert groups >= 10 and cases > 10_000
    _passed(
        11,
        f"power-collapse implication holds in {cases} cases over {groups} "
        "metabelian groups",
    )


def test_all_theorem_verdicts_pass_at_120(verdicts120):
    # not a numbered criterion by itself, but the metabelian conjugacy-class
    # and isolated-vertex checks must also hold across the full catalog
    verdicts, _ = verdicts120
    assert len(verdicts) == 6
    for verdict in verdicts.values():
        assert verdict.passed, f"{verdict.name}: {verdict.detail}"


def test_theorem_verdicts_at_120_are_exact(verdicts120):
    verdicts, _ = verdicts120
    dihedral = ", ".join(f"'D{n}'" for n in range(14, 119, 4))
    assert [(v.name, v.passed, v.detail) for v in verdicts.values()] == [
        ("planar_classification", True, "planar=['D12', 'Dic3', 'S3', 'S3xC2']"),
        (
            "isomorphic_pair_divisibility",
            True,
            "E_D12 ~ E_Dic3: True; |L(Dic3)|=6 divides |D12|-|L(D12)|=6: True; "
            "complements equal: True",
        ),
        ("diameter_one_structure", True, f"diameter-1 groups: ['S3', {dihedral}]"),
        ("universal_vertex_structure", True, ""),
        ("no_isolated_vertices", True, ""),
        ("metabelian_class_subgraphs", True, "metabelian groups checked: 198"),
    ]


def test_all_theorem_verdicts_pass_at_240(catalog240):
    _, verdicts = catalog240
    assert len(verdicts) == 6
    for verdict in verdicts.values():
        assert verdict.passed, f"{verdict.name}: {verdict.detail}"


def test_diameter_histogram_at_240(catalog240):
    result, _ = catalog240
    assert len(result.plans_checked) == 605
    assert result.diameter_histogram == {"1": 58, "2": 465}


def test_planar_groups_at_240(catalog240):
    result, _ = catalog240
    assert result.planar_groups == ["S3", "D12", "Dic3", "S3xC2"]


def test_no_disconnected_engel_graph_at_240(catalog240):
    result, _ = catalog240
    assert result.disconnected_groups == []


# sha256 of deterministic outputs; any change of an element's index, a
# report or a graph shows here, so update a digest only for an output
# change that is meant
SURVEY120_REPORTS_SHA256 = "985cf9b2686c676183c4de95093189505b51e23a960b8d4a13bddae9472d4e75"
SURVEY120_SUMMARY_SHA256 = "50b8b5e4c3fe96df04e36f352476bad6d8aed8e29e211a6518ba194a925e6c5c"
DOT_SHA256 = {
    "S4": "743ccdfece8ef43c1919711ebcd46a8a7a36db6807b000516c31ee5949ff4b03",
    "D12": "48ef98b827214c5073d6654a612eb3305f664940cca9fd0758e64a2cb589a837",
    "Dic3": "107f71ef7d7fdfd0a4d7c241580b1b849bd35c41000eade2dcc01890b67506fe",
    "S3xC2": "fc0643a5cf64931e3250d80ea43a42bdc2c892c5fafc71c46b9b3e7a4cb34ada",
    "@fixtures/c7_c3.gens": "4b77ad3d2643c3a0545012b4eee89ba0b7ed8659839b2fbcec81f19fbe9a323c",
    "@fixtures/s3_s3.gens": "06fff4dde9c99da2b911fb1f698254a423941ac8d95c3f2bb9abcf7b9618bf96",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_outputs_match_recorded_digests(survey120, repo_root):
    result, _ = survey120
    reports = "".join(write_report(r) for r in result.reports)
    assert _sha256(reports) == SURVEY120_REPORTS_SHA256
    assert _sha256(summary_json(result)) == SURVEY120_SUMMARY_SHA256
    for spec, digest in DOT_SHA256.items():
        G = build_group(spec, base_dir=repo_root)
        g = build_engel_graph(G)
        assert _sha256(write_dot(g, [str(G.perm(x)) for x in g.labels])) == digest, spec


def test_criterion_12_graph_algorithm_oracles():
    rng = random.Random(12)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert clique_number(g) == brute_clique_number(g)
    for _ in range(200):
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.25, 0.35, 0.5]))
        assert is_planar(g) == planar_by_subdivision_search(g)
    _passed(12, "clique and planarity agree with brute-force oracles on 400 graphs")
