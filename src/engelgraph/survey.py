"""Per-group reports, order-bounded catalog surveys, and theorem checks.

The survey walks a catalog of constructible groups (symmetric, alternating,
dihedral, dicyclic, and their direct products with cyclic groups; the
family rows of ``families.FAMILIES`` say where each starts), builds
the Engel graph of every non-nilpotent member, and records exact metrics
plus per-group checks.  The catalog is NOT all groups of bounded order -- a
small-groups database is out of scope -- so every result carries the exact
plan list that was checked.

``survey`` and ``verify_theorems`` read one catalog pass
(``_catalog_pass``), which makes one record per plan: the ``GroupReport``
and the ``_TheoremFacts`` (flags, counterexample strings, planar-type
graphs) the verdicts need.  It evaluates every plan once, except those
above the order of the randomly-Engel check that it derives in a second
phase from one of two sources: the products H x C_k lift their records from
the record of H, and the dihedral and dicyclic groups, whose Engel graphs
are complete b-partite, write theirs down from a closed form in the order.
An evaluation is reduced at once to its record, so about one group is in
memory at a time and the verdicts build none.  The records of the last
catalog are kept, keyed by its plans, until another catalog replaces them;
``survey`` and ``verify_theorems`` fold them into their results, and
whichever runs second evaluates no plan again.
Vertex checks test one member per conjugacy class.

A disconnected Engel graph would answer an open question, so it is flagged
prominently in the summary instead of being treated as a tool failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import itemgetter, or_
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .engel import _randomly_engel_answers, fitting_subgroup, left_engel_set
from .errors import BaerViolation, InvalidParameter
from .families import FAMILIES
from .graphs import (
    GraphMetrics,
    SimpleGraph,
    _layers,
    _row,
    build_engel_graph,
    compute_metrics,
    find_isomorphism,
    isolated_vertices,
)
from .groups import (
    MAX_ORDER,
    Group,
    _classes,
    _commute,
    _derived_span,
    centralizer,
    is_abelian,
)
from .io import (
    FamilySpec,
    GroupSpec,
    ProductSpec,
    build_group,
    render_group_spec,
)

RANDOMLY_ENGEL_CHECK_MAX_ORDER = 60


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str = ""  # counterexample description when failed


@dataclass(frozen=True)
class GroupReport:
    name: str
    order: int
    is_engel: bool
    fitting_order: int
    metrics: GraphMetrics | None  # present exactly when the group is non-Engel
    checks: Mapping[str, CheckResult]

    def __post_init__(self) -> None:
        # read-only, so no caller can change the report the memoised catalog
        # pass hands out to the next survey of the same catalog
        object.__setattr__(self, "checks", MappingProxyType(dict(self.checks)))


@dataclass
class GroupEvaluation:
    """A report together with the objects it was computed from (the report
    alone is what surveys keep and serialize)."""

    group: Group
    engel_set: tuple[int, ...]
    graph: SimpleGraph | None
    report: GroupReport


@dataclass
class TheoremVerdict:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SurveyResult:
    max_order: int
    reports: list[GroupReport]
    plans_checked: list[str]  # exact coverage: every catalog plan evaluated
    diameter_histogram: dict[str, int]
    planar_groups: list[str]
    disconnected_groups: list[str]  # would answer an open question; flagged
    failed_checks: list[tuple[str, str, str]] = field(default_factory=list)


@dataclass(frozen=True)
class _TheoremFacts:
    """What the verdicts need from one non-nilpotent group beyond its
    report: no group, and E_G only for the planar types (<= 6 vertices)."""

    planar_graph: SimpleGraph | None  # E_G when of the S3, D12 or Dic3 type
    metabelian: bool
    violations: dict[str, str]  # verdict name -> counterexample, failures only


# what the catalog pass keeps of one non-nilpotent plan
_Record = tuple[GroupReport, _TheoremFacts]


def _describe(G: Group, x: int) -> str:
    return f"element {x} = {G.perm(x)}"


def evaluate_group(spec: GroupSpec | str, *, base_dir: str = ".") -> GroupEvaluation:
    """Build the group, classify its Engel elements, build the graph when
    non-Engel, and run every per-group check."""
    G = build_group(spec, base_dir=base_dir)
    L = left_engel_set(G)
    is_engel = len(L) == G.order
    checks: dict[str, CheckResult] = {}

    try:
        fitting_subgroup(G)
        checks["engel_set_is_fitting_subgroup"] = CheckResult(True)
    except BaerViolation as err:
        checks["engel_set_is_fitting_subgroup"] = CheckResult(False, str(err))

    graph = None
    metrics = None
    if not is_engel:
        graph = build_engel_graph(G)
        metrics = compute_metrics(graph)
        checks["clique_number_at_least_3"] = CheckResult(
            metrics.clique_number >= 3,
            "" if metrics.clique_number >= 3 else f"clique number is {metrics.clique_number}",
        )
        isolated = isolated_vertices(graph)
        checks["no_isolated_vertices"] = CheckResult(
            not isolated,
            ""
            if not isolated
            else "isolated: " + ", ".join(_describe(G, graph.labels[v]) for v in isolated),
        )

    if G.order <= RANDOMLY_ENGEL_CHECK_MAX_ORDER:
        members = set(L)
        answers = _randomly_engel_answers(G)
        bad = next((x for x, passes in enumerate(answers) if (x in members) != passes), None)
        checks["fitting_matches_randomly_engel"] = CheckResult(
            bad is None, "" if bad is None else _describe(G, bad)
        )

    report = GroupReport(
        name=G.name,
        order=G.order,
        is_engel=is_engel,
        fitting_order=len(L),
        metrics=metrics,
        checks=checks,
    )
    return GroupEvaluation(G, L, graph, report)


def report(spec: GroupSpec | str, *, base_dir: str = ".") -> GroupReport:
    return evaluate_group(spec, base_dir=base_dir).report


def catalog_plans(max_order: int) -> list[GroupSpec]:
    """Candidate plans of order <= max_order, sorted by (order, name), each
    plan's key made with the plan: a product's order is its base's times k,
    and its name its base's with "xC<k>" appended.

    The bases walk each row of ``families.FAMILIES`` from its
    ``catalog_least`` (S_n from 3, A_n from 4, D from order 12, Dic from
    order 8) in its own step while the order fits; each base times C_k,
    k >= 2, is a plan too.  Nilpotent members are weeded out at evaluation
    time, matching a survey over non-nilpotent groups only.
    """
    cyclic = FAMILIES["cyclic"].code
    keyed: list[tuple[tuple[int, str], GroupSpec]] = []  # ((order, name), plan)
    for kind, family in FAMILIES.items():
        if family.catalog_least is None:  # a product factor only
            continue
        n = family.catalog_least
        while (order := family.order(n)) <= max_order:
            base, name = FamilySpec(kind, n), f"{family.code}{n}"
            keyed.append(((order, name), base))
            keyed += (
                ((order * k, f"{name}x{cyclic}{k}"), ProductSpec((base, FamilySpec("cyclic", k))))
                for k in range(2, max_order // order + 1)
            )
            n += family.step
    keyed.sort(key=itemgetter(0))
    return [plan for _, plan in keyed]


def _catalog_record(spec: GroupSpec) -> _Record | None:
    evaluation = evaluate_group(spec)
    # only non-nilpotent groups enter the survey; for finite groups
    # nilpotent and Engel coincide
    if evaluation.report.is_engel:
        return None
    return evaluation.report, _theorem_facts(evaluation)


def _lifts(plan: GroupSpec) -> bool:
    """Whether the catalog pass derives the record of ``plan`` in its second
    phase (``_derived_record``) instead of evaluating it: a catalog product
    H x C_k, or a dihedral or dicyclic group, above the order of the
    randomly-Engel check."""
    return plan.order() > RANDOMLY_ENGEL_CHECK_MAX_ORDER and (
        isinstance(plan, ProductSpec) or plan.kind in ("dihedral", "dicyclic")
    )


def _derived_record(plan: GroupSpec, records: dict[GroupSpec, _Record | None]) -> _Record | None:
    """The second phase's record of a plan that ``_lifts`` takes: a
    product's lifted from its base's record in ``records``, a dihedral or
    dicyclic group's from its closed form."""
    if isinstance(plan, ProductSpec):
        return _lifted_record(plan, records[plan.factors[0]])
    return _closed_form_record(plan)


def _closed_form_record(plan: FamilySpec) -> _Record | None:
    """The record of a dihedral or dicyclic ``plan`` of order 2M above
    ``RANDOMLY_ENGEL_CHECK_MAX_ORDER``, read from M = t*b, t a power of 2
    and b odd, as ``_catalog_pass`` proves; None when b = 1 (G is a
    2-group, so nilpotent)."""
    m = plan.order() // 2
    t = m & -m
    b = m // t
    if b == 1:
        return None
    report = GroupReport(
        name=render_group_spec(plan),
        order=2 * m,
        is_engel=False,
        fitting_order=m,
        metrics=GraphMetrics(m, t * t * b * (b - 1) // 2, 1, 1 if t == 1 else 2, b, False, 0),
        checks=dict.fromkeys(
            ("engel_set_is_fitting_subgroup", "clique_number_at_least_3", "no_isolated_vertices"),
            CheckResult(True),
        ),
    )
    return report, _TheoremFacts(None, True, {})


def _lifted_record(plan: ProductSpec, base: _Record | None) -> _Record | None:
    """The record of ``plan`` = H x C_k, k >= 2, read from ``base``, the
    record of H (None when H is nilpotent), as ``_catalog_pass`` proves;
    ``_catalog_record(plan)`` when the base's record leaves it open, as it
    does for isolated vertices by a failed ``no_isolated_vertices`` check."""
    if base is None:
        return None
    report, facts = base
    m, k = report.metrics, plan.factors[1].order()
    vertices, edges = k * m.vertex_count, k * k * m.edge_count
    if (
        facts.violations
        or not all(c.passed for c in report.checks.values())
        or m.component_count != 1
        or edges <= 3 * vertices - 6
    ):
        return _catalog_record(plan)
    lifted = GroupReport(
        name=render_group_spec(plan),
        order=k * report.order,
        is_engel=False,
        fitting_order=k * report.fitting_order,
        metrics=GraphMetrics(
            vertices, edges, 1, max(m.diameter, 2), m.clique_number, False, 0
        ),
        checks={
            name: c
            for name, c in report.checks.items()
            if name != "fitting_matches_randomly_engel"
        },
    )
    return lifted, _TheoremFacts(None, facts.metabelian, {})


@lru_cache(maxsize=1)
def _catalog_pass(plans: tuple[GroupSpec, ...]) -> tuple[_Record, ...]:
    """The report and theorem facts of every non-nilpotent plan, in plan
    order, from one evaluation per plan that is not lifted.

    The pass has two phases.  First every plan that ``_lifts`` does not
    take is evaluated by ``_catalog_record``; each evaluation is dropped as
    soon as its record is made, so only the records stay alive.  Then, in
    plan order, each remaining plan takes its record from one of two
    sources (``_derived_record``), which need no group.

    Lifted from the base.  Each product G = H x C_k of order above
    ``RANDOMLY_ENGEL_CHECK_MAX_ORDER`` takes its record from that of its
    base H (``_lifted_record``), which comes earlier in plan order, as it
    is smaller.  Here E_H has |V| vertices, |E| edges and diameter d:

    - Commutators in H x C_k are taken factor by factor, so
      [(h, n),_j (h', n')] = ([h,_j h'], [n,_j n']), and the second factor
      is 1 for j >= 1 since C_k is abelian (for any nilpotent factor it
      reaches 1).  So such a sequence reaches 1 exactly when the one of h
      and h' does: L(H x C_k) = L(H) x C_k, of order k|L(H)|, and it is a
      subgroup, normal and nilpotent exactly when L(H) is.  G is nilpotent
      exactly when H is, and then has no record.
    - (h, n) and (h', n') are adjacent in E_G exactly when h and h' are in
      E_H, so E_G is E_H with each vertex replaced by k pairwise
      non-adjacent twins: k|V| vertices and k^2|E| edges.  A clique meets
      each twin set at most once, so the clique number is H's.
    - When E_H is connected without isolated vertices, every vertex has a
      neighbour, which its twins share: twins are at distance 2, other
      distances are H's, so E_G is connected, has diameter max(d, 2) and
      no isolated vertex.  For k >= 2 no vertex is adjacent to its twin,
      so none is universal, and the diameter is never 1.
    - k^2|E| > 3k|V| - 6 breaks Euler's bound for simple planar graphs, so
      E_G is not planar.
    - The conjugacy class of (h, c) is C x {c}, with C the class of h, and
      by the adjacency above it induces a copy of E_H[C]: it is connected
      with eccentricity at most 2 exactly when E_H[C] is.
    - G' = H' x 1 is abelian exactly when H' is, so G is metabelian exactly
      when H is, and then its diameter max(d, 2) is at most 6 exactly when
      d is.

    So G's report carries the base's checks, which all passed, except the
    randomly-Engel check, run only up to ``RANDOMLY_ENGEL_CHECK_MAX_ORDER``;
    its facts have no planar-type graph (|G| is neither 6 nor 12) and no
    violation.  The plan is evaluated instead, in this process, when the
    base has a failed check or a violation (so every counterexample names
    an element of G, as on the direct path), when E_H is disconnected or
    has isolated vertices, or when Euler's bound leaves planarity open.

    Closed form.  Each dihedral or dicyclic group G of order above
    ``RANDOMLY_ENGEL_CHECK_MAX_ORDER`` is <x, y | x^M = 1, y^2 = x^c,
    x^y = x^-1> of order 2M (``families._regular_representation``); write
    M = t*b with t a power of 2 and b odd.  Its record is read from t and b
    alone (``_closed_form_record``):

    - For u = x^i y and v = x^j y, [u, v] = x^(2(i-j)) and
      [x^e, v] = x^(-2e), so [u,_k v] = x^(2(i-j)(-2)^(k-1)), which reaches
      1 exactly when b divides i - j; and [x^j y,_k x^e] = 1 from k = 2 on.
      So L(G) = <x>, of order M, abelian and normal, and G' = <x^2>: G is
      metabelian, and it is nilpotent (a 2-group, with no record) exactly
      when b = 1.  From here on b >= 3.
    - E_G has the M vertices x^i y and is complete b-partite, with x^i y
      in part i mod b, each part of t vertices: t^2 b(b-1)/2 edges, one
      component, no isolated vertex, clique number b >= 3, and diameter 1
      when t = 1, else 2 (a vertex misses the others of its part, which
      share its neighbours).
    - The class of x^i y is {x^(+-i+2e) y}, which meets every residue
      mod b, as 2 is a unit mod b: each class induces a complete
      multipartite graph with b >= 3 parts, connected with diameter at
      most 2, and the whole graph has diameter at most 2.
    - t = 1 happens only for D_n with M odd (for Dic_n, M is even), and
      then every vertex is universal.  Each is an involution, as y^2 = 1,
      that inverts L, of odd order M and index 2, and its centralizer is
      {1, u}: x^e commutes with u only when x^(2e) = 1, that is e = 0, and
      x^j y only when x^(2(i-j)) = 1, that is i = j.
    - Above order 60, |E| > 3|V| - 6, so E_G is not planar by Euler's
      bound: t = 1 forces b >= 31 and t = 2 forces b >= 17, where
      (b-3)(b-4) > 0 and (b-1)(b-3) > 0 give the bound; t >= 4 gives
      |E|/|V| = t(b-1)/2 >= 4.  So no plan needs a fallback.

    So G's report has fitting order M and the three checks, all passed,
    without the randomly-Engel one, and its facts are metabelian, with no
    planar-type graph and no violation.  ``evaluate_group`` and ``report``
    still build these groups.

    The records of the last catalog are kept: the same plans again return
    them without evaluating anything, and other plans replace them
    (``_catalog_pass.cache_clear()`` drops them).
    """
    records = {p: _catalog_record(p) for p in plans if not _lifts(p)}
    for p in plans:
        if p not in records:
            records[p] = _derived_record(p, records)
    return tuple(records[p] for p in plans if records[p] is not None)


def _check_bounds(max_order: int, least: int) -> None:
    """Raise InvalidParameter unless least <= max_order <= MAX_ORDER,
    before any plan is made: a catalog past the order limit would be
    planned and evaluated, for hours, up to the first group too large to
    build."""
    if max_order < least:
        raise InvalidParameter(f"max_order must be at least {least}, got {max_order}")
    if max_order > MAX_ORDER:
        raise InvalidParameter(
            f"max_order must be at most the order limit of {MAX_ORDER}, got {max_order}"
        )


def survey(max_order: int) -> SurveyResult:
    """Reports for every non-nilpotent catalog group of order <= max_order.

    Reports come in plan order, which is (order, name) order, as a report
    is named by its plan.  Raises InvalidParameter, before any plan is
    made, for ``max_order`` outside 6..MAX_ORDER.
    """
    _check_bounds(max_order, 6)
    plans = catalog_plans(max_order)
    reports = [r for r, _ in _catalog_pass(tuple(plans))]

    histogram: dict[str, int] = {}
    planar_groups = []
    disconnected = []
    failed = []
    for r in reports:
        m = r.metrics
        key = "inf" if math.isinf(m.diameter) else str(int(m.diameter))
        histogram[key] = histogram.get(key, 0) + 1
        if m.planar:
            planar_groups.append(r.name)
        if m.component_count != 1:
            disconnected.append(r.name)
        for check_name in sorted(r.checks):
            result = r.checks[check_name]
            if not result.passed:
                failed.append((r.name, check_name, result.detail))
    return SurveyResult(
        max_order=max_order,
        reports=reports,
        plans_checked=[render_group_spec(p) for p in plans],
        diameter_histogram=dict(sorted(histogram.items())),
        planar_groups=planar_groups,
        disconnected_groups=disconnected,
        failed_checks=failed,
    )


def summary_json(result: SurveyResult) -> str:
    """Deterministic JSON for a survey summary (reports serialize one by one
    through ``write_report``)."""
    payload = {
        "maxOrder": result.max_order,
        "groupsReported": [r.name for r in result.reports],
        "plansChecked": result.plans_checked,
        "coverageNote": (
            "catalog families only; not all isomorphism classes of order "
            f"<= {result.max_order}"
        ),
        "diameterHistogram": result.diameter_histogram,
        "planarGroups": result.planar_groups,
        "disconnectedGroups": result.disconnected_groups,
        "failedChecks": [
            {"group": g, "check": c, "detail": d} for g, c, d in result.failed_checks
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# -- theorem verification -------------------------------------------------

def _is_planar_type(G: Group) -> bool:
    """Of the S3, D12 or Dic3 type: the only non-abelian group of order 6,
    or non-abelian of order 12 with 7 involutions (among the five groups of
    order 12 only the dihedral one) or a unique involution (dicyclic; the
    cyclic group, the other one, is abelian)."""
    if G.order not in (6, 12) or is_abelian(G):
        return False
    table, e = G._table, G.identity
    involutions = sum(row[x] == e for x, row in enumerate(table)) - 1
    return G.order == 6 or involutions in (1, 7)


def _class_leaders(G: Group, labels: Iterable[int]) -> Iterator[int]:
    """The members of ``labels`` least in their conjugacy class.  Conjugation
    is an automorphism of E_G fixing L(G), so each fact checked of a vertex
    holds on its whole class or none, and in increasing order fails first at
    a least member.  The leaders are read from ``groups._classes``."""
    leader = _classes(G).leader
    return (x for x in labels if leader[x] == x)


def _diameter_one_violation(G: Group, L: tuple[int, ...], graph: SimpleGraph) -> str | None:
    """Structure forced on a group whose Engel graph is complete: the Engel
    set ``L`` is a normal abelian subgroup of odd order and index 2, and
    every vertex is an involution inverting it.  Each class of vertices is
    tested at its least member, reading products from Cayley table rows.
    That <x> = {e, x} meets L only in e needs no test: every vertex x lies
    outside L, and e lies in L."""
    members = set(L)
    if not is_abelian(G, L):
        return "Engel set is not abelian"
    if len(L) % 2 == 0:
        return "Engel set has even order"
    table, inv, e = G._table, G._inv, G.identity
    if any(a != e and table[a][a] == e for a in L):
        return "Engel set contains an involution"
    if G.order != 2 * len(L):
        return f"Engel set has index {G.order // len(L)}, not 2"
    everything = set(range(G.order))
    for x in _class_leaders(G, graph.labels):
        row_x = table[x]
        if row_x[x] != e:
            return f"vertex {_describe(G, x)} is not an involution"
        ax = [table[a][x] for a in L]
        if set(ax) | members != everything:
            return f"G != L<x> for {_describe(G, x)}"
        for a, b in zip(L, ax):
            if b != row_x[inv[a]]:  # x^-1 a x = a^-1 exactly when a x = x a^-1
                return f"{_describe(G, x)} does not invert {_describe(G, a)}"
    return None


def _universal_vertex_violation(G: Group, graph: SimpleGraph) -> str | None:
    """Any vertex adjacent to all others must be an involution that is its
    own centralizer.  Universal vertices are found by comparing bit rows,
    and each class of them is tested at its least member."""
    n = graph.vertex_count
    if n < 2:
        return None
    full = (1 << n) - 1
    table, e = G._table, G.identity
    universal = (x for v, x in enumerate(graph.labels) if graph.adjacency[v] == full ^ (1 << v))
    for x in _class_leaders(G, universal):
        if table[x][x] != e:
            return f"universal vertex {_describe(G, x)} has x^2 != 1"
        # the centralizer of x, against <x> = {e, x} for an involution x
        if set(centralizer(G, x)) != {e, x}:
            return f"centralizer of universal vertex {_describe(G, x)} exceeds <x>"
    return None


def _class_search(graph: SimpleGraph, vertices: Sequence[int]) -> tuple[bool, int]:
    """One breadth-first search, inside the subgraph induced on
    ``vertices``, from the least of them: whether it reaches them all, and
    the eccentricity of that vertex there."""
    mask = _row(vertices, graph.vertex_count)
    layers = list(_layers(graph.adjacency, min(vertices), mask))
    return reduce(or_, layers) == mask, len(layers) - 1


def _metabelian_violation(G: Group, graph: SimpleGraph, whole: float) -> str | None:
    """For metabelian groups: the induced subgraph on each vertex conjugacy
    class is connected with diameter <= 2, and the whole graph (of diameter
    ``whole``) has diameter <= 6.

    Conjugation by any element of G is an automorphism of the Engel graph
    that maps a class C onto itself, and it acts transitively on C, so the
    subgraph induced on C is vertex-transitive: all its vertices have one
    eccentricity, which is its diameter.  So one search from C's least
    member decides both connectivity and diameter <= 2."""
    if whole > 6:
        return f"graph diameter is {whole}"
    position = {x: v for v, x in enumerate(graph.labels)}
    classes = _classes(G).classes
    for x in _class_leaders(G, graph.labels):
        cls = classes[x]
        connected, eccentricity = _class_search(graph, [position[y] for y in cls])
        if not connected:
            return f"class of {_describe(G, x)} induces a disconnected subgraph"
        if eccentricity > 2:
            return f"class of {_describe(G, x)} induces diameter {eccentricity}"
    return None


def _theorem_facts(evaluation: GroupEvaluation) -> _TheoremFacts:
    G, graph, report = evaluation.group, evaluation.graph, evaluation.report
    m = report.metrics
    metabelian = _commute(G, _derived_span(G).gens)
    violations = {
        "diameter_one_structure": (
            _diameter_one_violation(G, evaluation.engel_set, graph) if m.diameter == 1 else None
        ),
        "universal_vertex_structure": _universal_vertex_violation(G, graph),
        "no_isolated_vertices": report.checks["no_isolated_vertices"].detail,
        "metabelian_class_subgraphs": (
            _metabelian_violation(G, graph, m.diameter) if metabelian else None
        ),
    }
    return _TheoremFacts(
        planar_graph=graph if _is_planar_type(G) else None,
        metabelian=metabelian,
        violations={name: v for name, v in violations.items() if v},
    )


def verify_theorems(max_order: int) -> list[TheoremVerdict]:
    """Run the survey-wide theorem checks over the catalog and report one
    named verdict per check, each failure carrying a counterexample.
    Raises InvalidParameter, before any plan is made, for ``max_order``
    outside 12..MAX_ORDER."""
    _check_bounds(max_order, 12)
    records = _catalog_pass(tuple(catalog_plans(max_order)))
    verdicts: list[TheoremVerdict] = []

    expected_planar = {r.name for r, f in records if f.planar_graph is not None}
    actual_planar = {r.name for r, _ in records if r.metrics.planar}
    detail = f"planar={sorted(actual_planar)}"
    if expected_planar != actual_planar:
        detail += f" but groups of the three planar types are {sorted(expected_planar)}"
    verdicts.append(
        TheoremVerdict("planar_classification", expected_planar == actual_planar, detail)
    )

    pair = {r.name: (r, f.planar_graph) for r, f in records if r.name in ("D12", "Dic3")}
    if len(pair) == 2:
        (d12, graph_d12), (dic3, graph_dic3) = pair["D12"], pair["Dic3"]
        iso = find_isomorphism(graph_d12, graph_dic3) is not None
        complement = d12.order - d12.fitting_order
        divisible = complement % dic3.fitting_order == 0
        same_complement = complement == dic3.order - dic3.fitting_order
        passed = iso and divisible and same_complement
        detail = (
            f"E_D12 ~ E_Dic3: {iso}; |L(Dic3)|={dic3.fitting_order} divides "
            f"|D12|-|L(D12)|={complement}: {divisible}; complements equal: {same_complement}"
        )
    else:
        passed, detail = False, f"not in the catalog: {sorted({'D12', 'Dic3'} - set(pair))}"
    verdicts.append(TheoremVerdict("isomorphic_pair_divisibility", passed, detail))

    # each remaining verdict lists the groups' counterexamples when it fails,
    # else it carries this detail
    diameter_one = [r.name for r, _ in records if r.metrics.diameter == 1]
    metabelian = sum(f.metabelian for _, f in records)
    passed_details = {
        "diameter_one_structure": f"diameter-1 groups: {diameter_one}",
        "universal_vertex_structure": "",
        "no_isolated_vertices": "",
        "metabelian_class_subgraphs": f"metabelian groups checked: {metabelian}",
    }
    for name, passed_detail in passed_details.items():
        failures = [f"{r.name}: {f.violations[name]}" for r, f in records if name in f.violations]
        verdicts.append(TheoremVerdict(name, not failures, "; ".join(failures) or passed_detail))
    return verdicts
