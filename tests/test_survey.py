import dataclasses
import hashlib
import importlib
import math
import pickle
import random
import weakref

import networkx as nx
import pytest

from engelgraph import (
    GraphMetrics,
    GroupReport,
    InvalidParameter,
    ProductSpec,
    SimpleGraph,
    build_engel_graph,
    build_group,
    catalog_plans,
    conjugacy_class,
    conjugacy_classes,
    diameter,
    induced_subgraph,
    left_engel_set,
    parse_group_spec,
    render_group_spec,
    report,
    summary_json,
    survey,
    verify_theorems,
    write_report,
)
from engelgraph.cli import exit_code_for_verdicts
from engelgraph.graphs import _row
from engelgraph.groups import MAX_ORDER
from engelgraph.survey import CheckResult, TheoremVerdict
from oracles import (
    bfs_distances,
    direct_engel_graph,
    diameter_one_violation_by_group_calls,
    mutated,
    product_invariant_mismatches,
    random_graph,
    universal_vertex_violation_by_degree,
)

# the package re-exports the function `survey` under the module's name
survey_module = importlib.import_module("engelgraph.survey")


def forget_catalog():
    """Drop the records of the last catalog pass, so the next survey or
    verify_theorems call evaluates every plan."""
    survey_module._catalog_pass.cache_clear()


def test_report_s3():
    r = report("S3")
    assert (r.name, r.order, r.is_engel, r.fitting_order) == ("S3", 6, False, 3)
    m = r.metrics
    assert (m.vertex_count, m.edge_count, m.diameter, m.clique_number) == (3, 3, 1, 3)
    assert m.planar and m.isolated_count == 0
    assert all(c.passed for c in r.checks.values())
    assert set(r.checks) == {
        "engel_set_is_fitting_subgroup",
        "clique_number_at_least_3",
        "no_isolated_vertices",
        "fitting_matches_randomly_engel",
    }


def test_report_a4():
    m = report("A4").metrics
    assert (m.vertex_count, m.edge_count, m.diameter, m.clique_number) == (8, 24, 2, 4)
    assert not m.planar


def test_report_engel_group_has_no_metrics():
    r = report("C12")
    assert r.is_engel
    assert r.metrics is None
    assert r.fitting_order == 12
    assert r.checks["engel_set_is_fitting_subgroup"].passed


def test_report_from_file_spec(repo_root):
    r = report("@fixtures/c7_c3.gens", base_dir=str(repo_root))
    assert r.order == 21
    assert r.fitting_order == 7
    assert r.metrics.vertex_count == 14
    assert all(c.passed for c in r.checks.values())


@pytest.mark.parametrize("spec", ["D120", "A5xC6"])
def test_evaluation_makes_no_element_permutation(spec, raw_permutations):
    evaluation = survey_module.evaluate_group(spec)
    assert raw_permutations == [0]
    G = evaluation.group
    # a group pickled before its elements are made, as the benchmark's
    # snapshots pickle groups, makes the same ones
    H = pickle.loads(pickle.dumps(G))
    assert all(G.index(G.perm(i)) == i for i in range(G.order))
    assert raw_permutations == [G.order]
    assert H.elements == G.elements


def test_catalog_plans_families_and_ordering():
    plans = catalog_plans(24)
    names = [render_group_spec(p) for p in plans]
    assert names == sorted(
        names, key=lambda s: ([p.order() for p in plans][names.index(s)], s)
    )
    assert "S3" in names and "S4" in names and "A4" in names
    assert "D12" in names and "Dic2" in names and "Dic6" in names
    assert "S3xC2" in names and "S3xC4" in names and "D12xC2" in names
    assert "D6" not in names  # catalog dihedrals start at order 12


@pytest.mark.parametrize(
    "max_order, count, digest",
    [
        (6, 1, "44d6a8a73eddb284d49799fdbfa2919a004ece6d2df3546eaa4e246048bcdf81"),
        (24, 23, "46a1b10bac1b01e84dc751350cf521cddb18e5fe463206284d8f1acb73445206"),
        (120, 243, "70e9e4846fc9667acf0d5f07a12e2756459da1805369abf730fd341a6d8d25be"),
        (240, 605, "2f3dd4ad653cf95fd0ab38337c06b38329aeaa0500881f8eb73f4d41162ba1e4"),
        (4096, 18812, "05a69a60e2cd25e2146fbb0221a7a07a1a25eb5393a2bd2a45c30b716a4c958f"),
    ],
)
def test_catalog_plans_match_recorded_digests(max_order, count, digest):
    # sha256 of the rendered plans, one per line, as the catalog read them
    # before its bases came from the family rows
    names = [render_group_spec(p) for p in catalog_plans(max_order)]
    assert len(names) == count
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == digest


def test_catalog_orders_are_bounded():
    for plan in catalog_plans(60):
        assert plan.order() <= 60


def test_survey_12_membership_and_metrics():
    result = survey(12)
    names = [r.name for r in result.reports]
    assert names == ["S3", "A4", "D12", "Dic3", "S3xC2"]
    for r in result.reports:
        m = r.metrics
        assert not r.is_engel
        assert r.order % r.fitting_order == 0
        assert m.vertex_count == r.order - r.fitting_order
        assert m.diameter in (1, 2)
        assert m.isolated_count == 0
    assert result.failed_checks == []
    assert result.disconnected_groups == []
    # nilpotent members (Q8 = Dic2) were evaluated but not reported
    assert "Dic2" in result.plans_checked
    assert "Dic2" not in names


def test_survey_6_is_exactly_s3():
    result = survey(6)
    assert [r.name for r in result.reports] == ["S3"]


def test_survey_rejects_tiny_bounds():
    with pytest.raises(ValueError):
        survey(5)


def test_survey_and_verify_reject_bounds_above_the_order_limit(monkeypatch):
    planned = []

    def record(max_order):
        planned.append(max_order)
        return []

    monkeypatch.setattr(survey_module, "catalog_plans", record)
    for run in (survey, verify_theorems):
        with pytest.raises(InvalidParameter, match=f"limit of {MAX_ORDER}, got {MAX_ORDER + 1}"):
            run(MAX_ORDER + 1)
        assert planned == []
    # the limit itself is a valid bound
    assert survey(MAX_ORDER).reports == []
    forget_catalog()
    verdicts = {v.name: v for v in verify_theorems(MAX_ORDER)}
    assert len(verdicts) == 6
    assert planned == [MAX_ORDER, MAX_ORDER]
    # the isomorphic pair is read from the records, and there are none
    pair = verdicts["isomorphic_pair_divisibility"]
    assert (pair.passed, pair.detail) == (False, "not in the catalog: ['D12', 'Dic3']")


def counting_evaluations(monkeypatch):
    """The plans that ``evaluate_group`` is called with from now on."""
    evaluate = survey_module.evaluate_group
    calls = []

    def counting_evaluate(spec, **kwargs):
        calls.append(spec)
        return evaluate(spec, **kwargs)

    monkeypatch.setattr(survey_module, "evaluate_group", counting_evaluate)
    return calls


def outputs(result, verdicts):
    return (
        summary_json(result),
        [write_report(r) for r in result.reports],
        [(v.name, v.passed, v.detail) for v in verdicts],
    )


def test_survey_and_verify_share_one_catalog_pass(monkeypatch):
    # whichever of the two runs first evaluates each plan it does not lift
    # once and the other reads its records; each output read from the
    # records equals the one from the call that evaluated
    calls = counting_evaluations(monkeypatch)
    plans = catalog_plans(120)
    assert len(plans) == 243
    direct = [p for p in plans if not survey_module._lifts(p)]
    assert len(direct) == 92
    surveyed = survey(120)
    from_records = verify_theorems(120)
    assert calls == direct
    forget_catalog()
    calls.clear()
    verified = verify_theorems(120)
    surveyed_from_records = survey(120)
    assert calls == direct
    assert outputs(surveyed, from_records) == outputs(surveyed_from_records, verified)


def test_catalog_pass_keeps_the_last_catalog_only(monkeypatch):
    calls = counting_evaluations(monkeypatch)
    survey(12)
    assert len(calls) == len(catalog_plans(12))
    # the records are keyed by the plans, not by the bound
    assert catalog_plans(13) == catalog_plans(12)
    assert survey(13).max_order == 13
    verify_theorems(12)
    assert len(calls) == len(catalog_plans(12))
    # another catalog replaces them, so the first is evaluated again
    survey(24)
    assert len(calls) == len(catalog_plans(12)) + len(catalog_plans(24))
    verify_theorems(12)
    assert len(calls) == 2 * len(catalog_plans(12)) + len(catalog_plans(24))


def test_reports_are_frozen():
    # a report the records keep cannot be changed by the caller it was
    # handed to, so a later survey of the same catalog returns it unchanged
    r = survey(12).reports[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.name = "changed"


def test_report_checks_are_read_only():
    # a report shares its checks with the record the catalog pass keeps, so
    # a caller that could change them would change the next survey's report
    r = survey(12).reports[0]
    text = write_report(r)
    with pytest.raises(TypeError):
        r.checks["no_isolated_vertices"] = CheckResult(False, "changed")
    with pytest.raises(TypeError):
        del r.checks["no_isolated_vertices"]
    assert not hasattr(r.checks, "clear")
    again = survey(12).reports[0]
    assert again is r
    assert write_report(again) == text


def direct_records(max_order):
    """Each catalog plan's record from its own evaluation, lifted or not."""
    return {p: survey_module._catalog_record(p) for p in catalog_plans(max_order)}


def test_products_with_cyclic_groups_follow_from_their_base():
    # the survey lifts these products from their base, so the reports are
    # read from each plan's own evaluation
    reports = [r[0] for r in direct_records(120).values() if r is not None]
    pairs, mismatches = product_invariant_mismatches(reports)
    assert mismatches == []
    assert pairs == 124


def test_lifted_records_equal_direct_records_up_to_240():
    # the products from their base and the dihedral and dicyclic groups
    # from their closed form, each through the catalog pass's own dispatch
    records = direct_records(240)
    lifted = [p for p in records if survey_module._lifts(p)]
    assert len(lifted) == 513
    assert sum(isinstance(p, ProductSpec) for p in lifted) == 378
    assert all(
        60 < p.order() <= 240 and (isinstance(p, ProductSpec) or p.kind in ("dihedral", "dicyclic"))
        for p in lifted
    )
    for plan in lifted:
        # the report and every field of the theorem facts; None for the
        # nilpotent plans
        record, direct = survey_module._derived_record(plan, records), records[plan]
        assert record == direct, plan
        if record is not None:
            assert write_report(record[0]) == write_report(direct[0]), plan


def test_lift_matches_products_the_catalog_evaluates(monkeypatch):
    # every catalog base of order at most 60 times C_k, k = 2..6, which the
    # catalog evaluates directly up to order 60 and lifts above it
    bases = [p for p in catalog_plans(60) if not isinstance(p, ProductSpec)]
    assert len(bases) == 43
    direct = {b: survey_module._catalog_record(b) for b in bases}
    evaluate = survey_module._catalog_record
    fallbacks = []
    monkeypatch.setattr(
        survey_module, "_catalog_record", lambda plan: fallbacks.append(plan) or evaluate(plan)
    )
    for base in bases:
        for k in range(2, 7):
            plan = parse_group_spec(f"{render_group_spec(base)}xC{k}")
            count = len(fallbacks)
            record, want = survey_module._lifted_record(plan, direct[base]), evaluate(plan)
            if want is not None and len(fallbacks) == count:
                # the randomly-Engel check is left to the direct path
                checks = {
                    n: c for n, c in want[0].checks.items() if n != "fitting_matches_randomly_engel"
                }
                want = dataclasses.replace(want[0], checks=checks), want[1]
            assert record == want, plan
            if record is not None:
                assert write_report(record[0]) == write_report(want[0]), plan
    # k^2 |E| = 12 = 3k|V| - 6 for S3 x C2 leaves planarity open
    assert fallbacks == [parse_group_spec("S3xC2")]


def _failed_check(report, facts):
    failed = {**report.checks, "no_isolated_vertices": CheckResult(False, "isolated: 1")}
    return dataclasses.replace(report, checks=failed), facts


def _isolated(report, facts):
    # an isolated vertex shows in the metrics and fails its check together
    report, facts = _failed_check(report, facts)
    return _with_metrics(isolated_count=1)(report, facts)


def _violation(report, facts):
    return report, dataclasses.replace(facts, violations={"metabelian_class_subgraphs": "cut"})


def _with_metrics(**changes):
    def spoil(report, facts):
        metrics = dataclasses.replace(report.metrics, **changes)
        return dataclasses.replace(report, metrics=metrics), facts

    return spoil


@pytest.mark.parametrize(
    "spoil",
    [
        _failed_check,
        _violation,
        _isolated,
        _with_metrics(component_count=2, diameter=math.inf),
        # 3^2 * 10 = 90 <= 3 * (3 * 20) - 6 = 174 leaves planarity open
        _with_metrics(edge_count=10),
    ],
    ids=["failed-check", "violation", "isolated", "disconnected", "sparse"],
)
def test_lift_falls_back_to_evaluating_the_product(monkeypatch, spoil):
    base = survey_module._catalog_record(parse_group_spec("S4"))
    assert base[0].metrics.vertex_count == 20
    product = parse_group_spec("S4xC3")
    calls = []
    monkeypatch.setattr(
        survey_module, "_catalog_record", lambda plan: calls.append(plan) or "evaluated"
    )
    lifted, _ = survey_module._lifted_record(product, base)
    assert lifted.metrics.edge_count == 9 * base[0].metrics.edge_count
    assert calls == []
    assert survey_module._lifted_record(product, spoil(*base)) == "evaluated"
    assert calls == [product]


def dihedral_and_dicyclic_plans(least, most):
    return [
        p
        for p in catalog_plans(most)
        if not isinstance(p, ProductSpec)
        and p.kind in ("dihedral", "dicyclic")
        and least <= p.order()
    ]


# what the closed form shares with the direct record at every order: the
# planarity and the randomly-Engel check stay direct up to order 60, where
# E_D12 and E_Dic3 are planar
def _closed_form_fields(record):
    if record is None:
        return None
    report, _ = record
    m = report.metrics
    return (
        report.fitting_order,
        m.vertex_count,
        m.edge_count,
        m.component_count,
        m.isolated_count,
        m.clique_number,
        m.diameter,
    )


def closed_form_mismatches(closed_form, small, large):
    """The plans whose closed-form record differs from ``_catalog_record``:
    the whole record and its report text for the ``large`` ones, which the
    catalog takes from the closed form, and ``_closed_form_fields`` for the
    ``small`` ones, which it evaluates."""
    mismatches = []
    for plan, direct in large.items():
        record = closed_form(plan)
        if record != direct or (
            record is not None and write_report(record[0]) != write_report(direct[0])
        ):
            mismatches.append(plan)
    for plan, direct in small.items():
        if _closed_form_fields(closed_form(plan)) != _closed_form_fields(direct):
            mismatches.append(plan)
    return mismatches


@pytest.fixture(scope="module")
def dihedral_and_dicyclic_records():
    small = {p: survey_module._catalog_record(p) for p in dihedral_and_dicyclic_plans(0, 60)}
    large = {p: survey_module._catalog_record(p) for p in dihedral_and_dicyclic_plans(61, 240)}
    assert (len(large), len(small)) == (135, 39)
    assert sum(r is None for r in large.values()) == 4
    return small, large


def test_closed_form_records_equal_direct_records(dihedral_and_dicyclic_records):
    small, large = dihedral_and_dicyclic_records
    assert closed_form_mismatches(survey_module._closed_form_record, small, large) == []


@pytest.mark.parametrize(
    "old, new",
    [
        ("t * t * b * (b - 1) // 2", "b * (b - 1) // 2"),
        ("1 if t == 1 else 2, b,", "1 if t == 1 else 2, m,"),
        ("1 if t == 1 else 2", "2"),
        ("b = m // t", "b = m // 2"),
    ],
    ids=["edges-without-t-squared", "clique-number-m", "diameter-2-when-t-is-1", "b-is-m-halved"],
)
def test_closed_form_mutants_are_caught(dihedral_and_dicyclic_records, old, new):
    small, large = dihedral_and_dicyclic_records
    mutant = mutated(survey_module._closed_form_record, old, new)
    assert closed_form_mismatches(mutant, small, large) != []


def test_dihedral_and_dicyclic_engel_graphs_are_complete_multipartite():
    # with M = t b, t a power of 2 and b odd: L(G) = <x>, and E_G is
    # complete b-partite with x^i y in part i mod b.  The element x^i y^j
    # sends point 1, the word 1, to the word x^i y^j at point j M + i + 1
    checked = 0
    for plan in dihedral_and_dicyclic_plans(0, 120):
        G = build_group(plan)
        m = G.order // 2
        b = m // (m & -m)
        if b == 1:
            continue
        assert set(left_engel_set(G)) == {g for g in range(G.order) if G.perm(g)(1) <= m}, plan
        graph = direct_engel_graph(G)
        points = [G.perm(g)(1) for g in graph.labels]
        assert sorted(points) == list(range(m + 1, 2 * m + 1)), plan
        part = [(p - m - 1) % b for p in points]
        for u in range(m):
            assert graph.adjacency[u] == _row((v for v in range(m) if part[v] != part[u]), m), plan
        checked += 1
    assert checked == 77


def test_product_invariant_names_a_planted_mismatch():
    reports = survey(12).reports
    s3xc2 = next(r for r in reports if r.name == "S3xC2")
    wrong = dataclasses.replace(
        s3xc2,
        metrics=dataclasses.replace(s3xc2.metrics, edge_count=11, diameter=1),
        fitting_order=5,
    )
    planted = [wrong if r is s3xc2 else r for r in reports]
    assert product_invariant_mismatches(planted) == (
        1,
        [
            "S3xC2: edge_count is 11, S3 gives 12",
            "S3xC2: fitting_order is 5, S3 gives 6",
            "S3xC2: diameter is 1, S3 gives 2",
        ],
    )


def test_product_invariant_counts_each_isolated_vertex_k_times():
    # a base with 3 components, 2 of them isolated vertices: times C_4 the
    # 8 isolated copies and the one component with edges make 9
    base = GroupReport(
        "H", 20, False, 10, GraphMetrics(10, 12, 3, math.inf, 3, False, 2), {}
    )
    product = GroupReport(
        "HxC4", 80, False, 40, GraphMetrics(40, 192, 9, math.inf, 3, False, 8), {}
    )
    assert product_invariant_mismatches([base, product]) == (1, [])
    merged = dataclasses.replace(
        product, metrics=dataclasses.replace(product.metrics, component_count=3)
    )
    assert product_invariant_mismatches([base, merged]) == (
        1,
        ["HxC4: component_count is 3, H gives 9"],
    )


def test_survey_is_deterministic_and_parallel_safe():
    sequential = survey(12)
    forget_catalog()
    again = survey(12)
    assert summary_json(sequential) == summary_json(again)
    for a, b in zip(sequential.reports, again.reports):
        assert write_report(a) == write_report(b)
    # no evaluation depends on state another left behind: each plan's
    # record made on its own, in reverse plan order, equals the pass's, so
    # the plans could be evaluated in any order or at once
    plans = catalog_plans(12)
    alone = [survey_module._catalog_record(p) for p in reversed(plans)][::-1]
    assert tuple(r for r in alone if r is not None) == survey_module._catalog_pass(tuple(plans))


def test_survey_histogram_counts_match_reports():
    result = survey(24)
    assert sum(result.diameter_histogram.values()) == len(result.reports)
    assert set(result.diameter_histogram) <= {"1", "2"}
    for r in result.reports:
        assert not math.isinf(r.metrics.diameter)


def test_summary_json_shape():
    import json

    payload = json.loads(summary_json(survey(12)))
    assert payload["maxOrder"] == 12
    assert payload["groupsReported"] == ["S3", "A4", "D12", "Dic3", "S3xC2"]
    assert "coverageNote" in payload
    assert payload["plansChecked"]


def test_verify_theorems_at_24():
    verdicts = verify_theorems(24)
    assert [v.name for v in verdicts] == [
        "planar_classification",
        "isomorphic_pair_divisibility",
        "diameter_one_structure",
        "universal_vertex_structure",
        "no_isolated_vertices",
        "metabelian_class_subgraphs",
    ]
    assert all(v.passed for v in verdicts)
    planar = next(v for v in verdicts if v.name == "planar_classification")
    assert "planar=['D12', 'Dic3', 'S3', 'S3xC2']" in planar.detail


def test_verify_after_survey_builds_no_group(group_inits):
    # the isomorphic pair is read from the catalog's records of D12 and
    # Dic3, not built again
    survey(120)
    group_inits.clear()
    verdicts = {v.name: v for v in verify_theorems(120)}
    assert group_inits == []
    assert verdicts["isomorphic_pair_divisibility"].detail == (
        "E_D12 ~ E_Dic3: True; |L(Dic3)|=6 divides |D12|-|L(D12)|=6: True; "
        "complements equal: True"
    )


def test_verify_holds_about_one_group_at_a_time(monkeypatch):
    evaluate = survey_module.evaluate_group
    groups = []
    alive_at_call = []

    def recording_evaluate(spec, **kwargs):
        alive_at_call.append(sum(ref() is not None for ref in groups))
        evaluation = evaluate(spec, **kwargs)
        groups.append(weakref.ref(evaluation.group))
        return evaluation

    monkeypatch.setattr(survey_module, "evaluate_group", recording_evaluate)
    verify_theorems(24)
    assert len(alive_at_call) == len(catalog_plans(24))
    assert max(alive_at_call) <= 2


def test_verify_rejects_tiny_bounds():
    with pytest.raises(ValueError):
        verify_theorems(11)


def test_verify_12_diameter_one_group_is_s3_alone():
    verdicts = {v.name: v for v in verify_theorems(12)}
    assert verdicts["diameter_one_structure"].detail == "diameter-1 groups: ['S3']"


def test_exit_code_for_verdicts():
    ok = [TheoremVerdict("a", True), TheoremVerdict("b", True)]
    assert exit_code_for_verdicts(ok) == 0
    assert exit_code_for_verdicts(ok + [TheoremVerdict("c", False, "boom")]) == 1


def test_class_search_matches_the_induced_subgraph_diameter():
    # conjugation makes each class's subgraph vertex-transitive, so one
    # search from its least member gives its connectivity and diameter;
    # checked on every class of every non-nilpotent plan
    seen = set()
    for plan in catalog_plans(120):
        G = build_group(plan)
        L = set(left_engel_set(G))
        if len(L) == G.order:
            continue
        graph = build_engel_graph(G)
        position = {x: v for v, x in enumerate(graph.labels)}
        for cls in conjugacy_classes(G):
            if cls[0] in L:
                continue
            vs = [position[y] for y in cls]
            connected, eccentricity = survey_module._class_search(graph, vs)
            d = diameter(induced_subgraph(graph, vs))
            assert (connected, eccentricity if connected else math.inf) == (
                not math.isinf(d), d
            ), (G.name, cls)
            seen.add(d)
    assert seen == {1, 2}  # no class subgraph here is disconnected


def test_class_search_agrees_with_networkx():
    # on vertex sets that are all of the graph or a part of it, of graphs
    # sparse enough to fall apart
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 70)
        g = random_graph(rng, n, rng.choice([0.01, 0.03, 0.1, 0.3, 0.8]))
        gx = nx.Graph(g.edges())
        gx.add_nodes_from(range(n))
        for vs in (list(range(n)), rng.sample(range(n), rng.randint(1, n))):
            sub = gx.subgraph(vs)
            reached = nx.single_source_shortest_path_length(sub, min(vs))
            assert survey_module._class_search(g, vs) == (
                nx.is_connected(sub), max(reached.values())
            ), vs


def test_class_search_against_a_queue_search_on_random_vertex_sets():
    # on any vertex set: connectivity, and the least vertex's eccentricity
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 90)
        g = random_graph(rng, n, rng.choice([0.02, 0.05, 0.1, 0.3]))
        vs = rng.sample(range(n), rng.randint(1, n))
        inside = set(vs)
        edges = [(vs.index(u), vs.index(v)) for u, v in g.edges() if {u, v} <= inside]
        dist = bfs_distances(len(vs), edges)[vs.index(min(vs))]
        connected, eccentricity = survey_module._class_search(g, vs)
        assert connected == (math.inf not in dist)
        assert eccentricity == max(d for d in dist if d != math.inf)


@pytest.mark.parametrize("spec", ["S3", "A4", "D12", "Dic3", "S3xC2", "S3xC3"])
def test_metabelian_check_names_a_class_cut_from_its_least_member(spec):
    # deleting the edges between a class's least member and the rest of
    # the class leaves that member isolated inside its class
    G = build_group(spec)
    graph = build_engel_graph(G)
    whole = diameter(graph)
    assert survey_module._metabelian_violation(G, graph, whole) is None
    position = {x: v for v, x in enumerate(graph.labels)}
    cut_classes = 0
    for cls in conjugacy_classes(G):
        if cls[0] not in position or len(cls) == 1:
            continue
        r, rest = position[cls[0]], {position[y] for y in cls[1:]}
        edges = [(u, v) for u, v in graph.edges() if not ({u, v} - rest == {r})]
        mutant = SimpleGraph(graph.vertex_count, edges, graph.labels)
        assert mutant.edge_count < graph.edge_count
        assert survey_module._metabelian_violation(G, mutant, whole) == (
            f"class of element {cls[0]} = {G.perm(cls[0])} induces a disconnected subgraph"
        )
        cut_classes += 1
    assert cut_classes > 0


def test_theorem_facts_match_the_group_call_versions_on_the_catalog():
    diameter_one = universal = 0
    for plan in catalog_plans(120):
        evaluation = survey_module.evaluate_group(plan)
        G, L, graph = evaluation.group, evaluation.engel_set, evaluation.graph
        if graph is None:
            continue
        found = survey_module._diameter_one_violation(G, L, graph)
        assert found == diameter_one_violation_by_group_calls(G, L, graph), G.name
        diameter_one += found is None
        assert survey_module._universal_vertex_violation(
            G, graph
        ) == universal_vertex_violation_by_degree(G, graph), G.name
        universal += any(graph.degree(v) == graph.vertex_count - 1 for v in range(graph.vertex_count))
    assert diameter_one == universal == 28


def test_universal_vertex_check_reads_one_centralizer_per_class(monkeypatch):
    # E_D30 is K15 on the one class of its 15 reflections
    G = build_group("D30")
    graph = build_engel_graph(G)
    assert graph.edge_count == 15 * 14 // 2
    assert len({conjugacy_class(G, x) for x in graph.labels}) == 1
    centralizer = survey_module.centralizer
    calls = []

    def counting(G, x):
        calls.append(x)
        return centralizer(G, x)

    monkeypatch.setattr(survey_module, "centralizer", counting)
    assert survey_module._universal_vertex_violation(G, graph) is None
    assert calls == [graph.labels[0]]


def test_a_counterexample_on_a_later_class_is_named():
    # D14 with L its rotations: the seven reflections, one class, pass
    # every vertex check, and a rotation after them fails
    d14 = build_group("D14")
    L = left_engel_set(d14)
    reflections = tuple(x for x in range(d14.order) if x not in L)
    rotation = L[1]
    assert conjugacy_class(d14, rotation)[0] == rotation
    x_text = f"element {rotation} = {d14.perm(rotation)}"
    graph = SimpleGraph(8, [], reflections + (rotation,))
    found = survey_module._diameter_one_violation(d14, L, graph)
    assert found == diameter_one_violation_by_group_calls(d14, L, graph)
    assert found == f"vertex {x_text} is not an involution"
    graph = _complete(graph)
    found = survey_module._universal_vertex_violation(d14, graph)
    assert found == universal_vertex_violation_by_degree(d14, graph)
    assert found == f"universal vertex {x_text} has x^2 != 1"


def _complete(graph):
    n = graph.vertex_count
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)], graph.labels)


def test_theorem_facts_name_planted_counterexamples():
    # each case breaks one structural check; the table-row versions name
    # the counterexample the group-call versions name
    a4, d12 = build_group("A4"), build_group("D12")
    for G, expected in [
        (a4, "universal vertex element 1 = (2,3,4) has x^2 != 1"),
        (
            d12,
            "centralizer of universal vertex element 6 = (1,7)(2,8)(3,9)(4,10)(5,11)(6,12)"
            " exceeds <x>",
        ),
    ]:
        graph = _complete(build_engel_graph(G))
        found = survey_module._universal_vertex_violation(G, graph)
        assert found == universal_vertex_violation_by_degree(G, graph) == expected

    s3, c6, d14 = build_group("S3"), build_group("C6"), build_group("D14")
    e = c6.identity
    x = next(g for g in range(c6.order) if g != e and c6.mul(g, g) == e)
    c3 = tuple(g for g in range(c6.order) if c6.power(g, 3) == e)
    cubes = tuple(g for g in range(12) if a4.power(g, 3) == a4.identity)[:3]
    l_d14 = left_engel_set(d14)
    x_text = "element 3 = (1,4)(2,5)(3,6)"
    for G, L, labels, expected in [
        (s3, tuple(range(6)), (), "Engel set is not abelian"),
        (d12, left_engel_set(d12), (), "Engel set has even order"),
        (c6, (e, x, c3[1]), (), "Engel set contains an involution"),
        (a4, cubes, (), "Engel set has index 4, not 2"),
        (
            d14,
            l_d14,
            (l_d14[1],),
            "vertex element 1 = (1,2,3,4,5,6,7)(8,14,13,12,11,10,9) is not an involution",
        ),
        (c6, c3, (e,), "G != L<x> for element 0 = ()"),
        (c6, c3, (x,), f"{x_text} does not invert element 2 = (1,3,5)(2,4,6)"),
    ]:
        graph = SimpleGraph(len(labels), [], labels)
        found = survey_module._diameter_one_violation(G, L, graph)
        assert found == diameter_one_violation_by_group_calls(G, L, graph) == expected
