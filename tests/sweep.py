"""The oracle checks that CI runs, as one sweep over catalog plans or specs.

    python tests/sweep.py LO-HI|SPEC[,SPEC...] CHECK...

runs the named checks of ``CHECKS`` on the catalog plans of order LO to HI,
or on the specs given.  Each group is built once; ``cold()`` gives a check a
copy of the fresh group of its own.  A check reads ``oracles.py``, counts
what it read and returns its first counterexample, or None, and a range's
counts must match ``PINS``.  Each failure prints "FAIL <spec> <check>:
<counterexample>", and the run exits 1.
"""

import hashlib
import importlib
import io
import math
import pickle
import random
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import networkx as nx

import engelgraph.engel as engel
import engelgraph.graphs as graphs
from engelgraph import (
    SimpleGraph, build_engel_graph, build_group, catalog_plans, cli, compute_metrics, conjugacy_classes,
    connected_components, diameter, engel_depths, fitting_subgroup, induced_subgraph, is_left_k_engel,
    is_nilpotent, is_randomly_engel_conjugates, left_engel_set, lower_central_series, normal_closure,
    parse_group_spec, render_group_spec, verify_theorems, write_report,
)
from engelgraph.groups import _Rows, _normal_span
import oracles
from oracles import _describe

# the package's ``survey`` is the function, which shadows the module
survey_module = importlib.import_module("engelgraph.survey")


class Tally(Counter):
    """What one check read, by kind; ``kept`` is what it keeps of each plan."""

    def __init__(self):
        super().__init__()
        self.kept = {}


def _copies(G):
    """A function that gives a copy of G as it is now, with nothing shared
    with other copies, by one pickle round trip: building the group anew
    for each copy made the CI calls 5-33% slower.  The process keeps its
    shared Engel cores (``engel._shared_core``) across copies and plans,
    as a survey does, so each check reads the core, and what it keeps,
    that earlier groups of the range left there, and the oracles, which
    read G alone, check every group that shares one."""
    state = pickle.dumps(G)
    return lambda: pickle.loads(state)


def _handing(cold):
    """While the block runs, the survey's ``build_group`` returns ``cold()``."""
    return mock.patch.object(survey_module, "build_group", lambda spec, base_dir: cold())


def _outside_fitting(G):
    L = set(fitting_subgroup(G))
    return L, [cls[0] for cls in conjugacy_classes(G) if cls[0] not in L]


def survey(plans, seen):
    """``engel survey --verify`` to the range's top order, with networkx
    hidden from imports, and the counts and verdicts of that catalog pass."""
    top, out = plans[-1].order(), io.StringIO()
    survey_module._catalog_pass.cache_clear()
    # a None entry makes importing networkx raise
    with mock.patch.dict(sys.modules, networkx=None), redirect_stdout(out), redirect_stderr(out):
        code = cli.main(["survey", "--max-order", str(top), "--verify"])
    result, text = survey_module.survey(top), out.getvalue()
    verdicts = repr([(v.name, v.passed, v.detail) for v in verify_theorems(top)])
    dict.update(seen, {  # not Counter.update, which adds
        "plans": len(result.plans_checked), "reports": len(result.reports),
        **{f"diameter {d}": k for d, k in result.diameter_histogram.items()},
        "planar": ", ".join(result.planar_groups), "disconnected": len(result.disconnected_groups),
        "largest clique": max(r.metrics.clique_number for r in result.reports),
        "PASS lines": text.count("\nPASS "),
        "verdict digest": hashlib.sha256(verdicts.encode()).hexdigest(),
        "output digest": hashlib.sha256(text.encode()).hexdigest(),
    })
    return None if code == 0 else f"exit code {code}: {text.splitlines()[-1]}"


def records(plan, cold, seen):
    """Keeps the plan's own record, whose one clique search must end at the
    root colouring.  The survey lifts some plans above order 60 instead."""
    search = mock.patch.object(graphs, "_max_clique_size", wraps=graphs._max_clique_size)
    colour = mock.patch.object(graphs, "_colour_classes", wraps=graphs._colour_classes)
    with _handing(cold), search as searched, colour as coloured:
        seen.kept[plan] = record = survey_module._catalog_record(plan)
    seen["reports"] += (one := int(record is not None))
    if (searched.call_count, coloured.call_count) != (one, one):
        return f"{searched.call_count} clique searches and {coloured.call_count} colourings"


def lifted(plans, seen):
    """Each record the survey derives (``_lifts``) against the plan's own."""
    for plan in filter(survey_module._lifts, plans):
        seen["lifted"] += 1
        record, own = survey_module._derived_record(plan, seen.kept), seen.kept[plan]
        if record != own or record and write_report(record[0]) != write_report(own[0]):
            return f"the lifted record of {render_group_spec(plan)}"


def product_invariant(plans, seen):
    reports = [record[0] for record in seen.kept.values() if record is not None]
    seen["pairs"], mismatches = oracles.product_invariant_mismatches(reports)
    return mismatches[0] if mismatches else None


def distances(plan, cold, seen):
    """E_G's components and diameter from its orbit sources against the
    search from every twin class; to order 120, those of each class-induced
    subgraph against networkx."""
    with _handing(cold):
        evaluation = survey_module.evaluate_group(plan)
    g, m, G = evaluation.graph, evaluation.report.metrics, evaluation.group
    if g is None:
        return None
    bare, seen["graphs"] = SimpleGraph._from_rows(list(g.adjacency), g.labels), seen["graphs"] + 1
    want = (len(connected_components(bare)), diameter(bare))
    if g.orbit_sources is None:
        return "no orbit sources on E_G"
    if not (m.component_count, m.diameter) == want == (len(connected_components(g)), diameter(g)):
        return f"components and diameter {(m.component_count, m.diameter)}, not {want}"
    position = {x: v for v, x in enumerate(g.labels)}
    for cls in conjugacy_classes(G) if plan.order() <= 120 else ():
        if cls[0] in position:
            sub = induced_subgraph(g, [position[x] for x in cls])
            q, gx = compute_metrics(sub), graphs._to_networkx(sub)
            want = (nx.number_connected_components(gx), nx.diameter(gx) if nx.is_connected(gx) else math.inf)
            if sub.orbit_sources is not None or not (
                    len(connected_components(sub)), diameter(sub)) == (q.component_count, q.diameter) == want:
                return f"the subgraph on the class of {_describe(G, cls[0])}"
            seen[f"class subgraphs of diameter {q.diameter}"] += 1


def rows(plan, cold, seen):
    """E_G's rows against ``direct_engel_graph``, from G's own depth maps."""
    G = cold()
    if len(left_engel_set(G)) == G.order:
        return None
    got, want, seen["graphs"] = build_engel_graph(G), oracles.direct_engel_graph(G), seen["graphs"] + 1
    bad = [v for v, (a, b) in enumerate(zip(got.adjacency, want.adjacency)) if a != b]
    if got.labels != want.labels or bad:
        return f"the row of {_describe(G, got.labels[bad[0]])}" if bad else "the vertices"


def randomly_engel(plan, cold, seen):
    """The answer at each class leader against the element oracle."""
    G = cold()
    for x in [cls[0] for cls in conjugacy_classes(G)]:
        seen["class leaders"] += 1
        if is_randomly_engel_conjugates(G, x) != oracles.randomly_engel_conjugates_by_elements(G, x):
            return f"class leader {_describe(G, x)}"


def depths(plan, cold, seen):
    """Each class leader x's depth map against the search back from the
    identity; x is left k-Engel exactly when k is at least its largest depth."""
    G = cold()
    for x in [cls[0] for cls in conjugacy_classes(G)]:
        seen["class leaders"] += 1
        want = oracles.depth_map_by_preimages(G, x)
        top, engel = max(want), min(want) >= 0
        if engel_depths(G, x) != want or is_left_k_engel(G, x, max(top, 1)) != engel or (
                top > 1 and is_left_k_engel(G, x, top - 1)):
            return f"class leader {_describe(G, x)}"


def tables(plan, cold, seen):
    """500 seeded products, which compose the rows they read above order
    256, and every inverse, against Permutation products."""
    G, rng = cold(), random.Random(7)
    seen[f"{type(G._table[0]).__name__} rows"] += 1
    pairs = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(500)]
    bad = [f"the product of {i} and {j}" for i, j in pairs if G.perm(G.mul(i, j)) != G.perm(i) * G.perm(j)]
    bad += [f"the inverse of {x}" for x in range(G.order) if G.perm(G.inv(x)) != G.perm(x).inverse()]
    return bad[0] if bad else None


def classes(plan, cold, seen):
    """The conjugacy classes, transversals and walks against the orbit
    oracle.  Above order 256, where rows are composed on first read, the
    class pass must compose none: it reads the columns of the generators,
    which the table keeps, and the inverses."""
    G = cold()
    if isinstance(G._table, _Rows):
        rows = len(G._table)
        conjugacy_classes(G)
        composed = len(G._table) - rows
        seen["rows composed above order 256"] += composed
        if composed:
            return f"the class pass composed {composed} rows"
    return next(iter(oracles.class_mismatches(cold())), None)


def core(plan, cold, seen):
    """The Engel core G/Z*(G) and its projection against the all-pairs
    upper central series and sympy; the core's table is then a complete
    list, of ``bytes`` rows up to order 256 and tuple rows above."""
    G = cold()
    C, proj = engel._engel_core(G)
    seen["cores that are G"] += C is G
    seen[f"{type(C._table[0]).__name__} rows"] += 1
    if type(C._table) is not list or len(C._table) != C.order:
        return "the core's table is not complete"
    if {type(row) for row in C._table} != {bytes if C.order <= 256 else tuple}:
        return f"the core of order {C.order} has rows of another type"
    return next(iter(oracles.engel_core_mismatches(G, C, proj)), None)


def nilpotent_closures(plan, cold, seen):
    """No normal closure of L(G) and a class leader outside it is nilpotent,
    and each closure and its series equal those of cold copies."""
    G = cold()
    L, leaders = _outside_fitting(G)
    for r in leaders:
        seen["closures"] += 1
        H = normal_closure(G, L | {r})
        if is_nilpotent(G, H) or normal_closure(cold(), L | {r}) != H or is_nilpotent(cold(), H) or (
                lower_central_series(G, H) != lower_central_series(cold(), H)):
            return f"the normal closure of L(G) and {_describe(G, r)}"


def greedy_closures(plan, cold, seen):
    """Each normal span of L(G) and a class leader outside it, and its lower
    central series, against the greedy-generator oracle."""
    G, series = cold(), {}
    seen[f"{type(G._table[0]).__name__} rows"] += 1
    L, leaders = _outside_fitting(G)
    for r in leaders:
        seen["closures"] += 1
        span = _normal_span(G, L | {r}, G.generators)
        if (span.key(), span.gens) != oracles.greedy_span(G, L | {r}, G.generators):
            return f"the normal span of L(G) and {_describe(G, r)}"
        if (H := span.key()) not in series:
            series[H] = oracles.greedy_lower_central_series(G, H)
        if lower_central_series(G, H) != series[H]:
            return f"the series of the normal closure of L(G) and {_describe(G, r)}"


def series(plan, cold, seen):
    """G's lower central series, and the normal closure of L(G) and each
    class leader outside it with its series, against the greedy-generator
    oracle: cold, then again once G remembers every closure's series.  G's
    own series is asked before L(G), whose span remembers its series: for a
    nilpotent G that is the series of G."""
    G = cold()
    whole = tuple(range(G.order))
    terms, want = {whole: oracles.greedy_lower_central_series(G, whole)}, {}
    for when in ("cold", "warmed"):
        if lower_central_series(G, range(G.order)) != terms[whole]:
            return f"the series of G, {when}"
        if when == "cold":
            L, leaders = _outside_fitting(G)
        for r in leaders:
            if r not in want:
                H = want[r] = oracles.greedy_span(G, L | {r}, G.generators)[0]
                if H not in terms:
                    terms[H] = oracles.greedy_lower_central_series(G, H)
                seen["closures"] += 1
                seen["closures that are G"] += H == whole
            if normal_closure(G, L | {r}) != want[r] or lower_central_series(G, want[r]) != terms[want[r]]:
                return f"the normal closure of L(G) and {_describe(G, r)}, {when}"


CHECKS = {  # name -> (visit of each plan, reading of the whole range)
    "survey": (None, survey),
    "cliques": (records, lifted),
    "products": (records, product_invariant),
    "distances": (distances, None),
    "rows": (rows, None),
    "randomly_engel": (randomly_engel, None),
    "depths": (depths, None),
    "tables": (tables, None),
    "lazy": (lambda plan, cold, seen: next(iter(oracles.lazy_group_mismatches(cold, random.Random(7))), None),
             None),
    "sympy": (lambda plan, cold, seen: oracles.sympy_invariant_mismatch(cold()), None),
    "classes": (classes, None),
    "core": (core, None),
    "closures": (nilpotent_closures, None),
    "greedy_closures": (greedy_closures, None),
    "series": (series, None),
}
_SURVEY = {"planar": "S3, D12, Dic3, S3xC2", "disconnected": 0, "PASS lines": 6}
PINS = {  # (range, check) -> the counts that CI pins
    ("1-240", "survey"): {
        **_SURVEY, "plans": 605, "reports": 523, "diameter 1": 58, "diameter 2": 465, "largest clique": 119,
        "verdict digest": "fd716bccbccc414dd2449e041a3f8d6dcc26aa66ea0c045a7ed8d0a386abffc8",
        "output digest": "310a5827a3de15cd0c6eea0e0b93db4ab7302d8fdeae164d751fdbb82b81b3e7"},
    ("1-240", "products"): {"plans": 605, "reports": 523, "pairs": 353},
    ("1-240", "sympy"): {"plans": 605},
    ("1-240", "closures"): {"plans": 605, "closures": 4298},
    ("1-480", "survey"): {
        **_SURVEY, "plans": 1450, "reports": 1278, "diameter 1": 118, "diameter 2": 1160,
        "largest clique": 239,
        "verdict digest": "9de5782a12841ce9b4b9968e67ea8473e0efe684db12a91fddcade52f263ff49",
        "output digest": "97928cfec28b56e5e173c141adaa14c9556944202dcea8856f37a506ec7d9b20"},
    ("1-480", "cliques"): {"plans": 1450, "reports": 1278, "lifted": 1357},
    ("1-480", "distances"): {"plans": 1450, "graphs": 1278,
                             "class subgraphs of diameter 1": 886, "class subgraphs of diameter 2": 199},
    ("1-480", "rows"): {"plans": 1450, "graphs": 1278},
    ("1-480", "depths"): {"plans": 1450, "class leaders": 129966},
    ("1-480", "classes"): {"plans": 1450, "rows composed above order 256": 0},
    ("1-480", "series"): {"plans": 1450, "closures": 17096, "closures that are G": 16856},
    ("61-480", "randomly_engel"): {"plans": 1359, "class leaders": 128626},
    ("200-320", "tables"): {"plans": 402, "bytes rows": 187, "tuple rows": 215},
    ("257-480", "lazy"): {"plans": 801},
    ("241-480", "greedy_closures"): {"plans": 845, "closures": 12798, "bytes rows": 44, "tuple rows": 801},
    ("Dic129,D516,A6xC2,S6xC2", "core"): {"plans": 4, "cores that are G": 0, "tuple rows": 4},
}


def _plans(target):
    lo, dash, hi = target.partition("-")
    if dash and lo.isdigit() and hi.isdigit():
        return [plan for plan in catalog_plans(int(hi)) if plan.order() >= int(lo)]
    return [parse_group_spec(spec) for spec in target.split(",")]


def sweep(target, names):
    """Run the checks ``names`` on ``target`` and print their counts and
    failures; 1 when a check failed, else 0."""
    plans, seen, failed = _plans(target), {name: Tally() for name in names}, {}
    visits = [name for name in names if CHECKS[name][0]]
    for plan in plans if visits else ():
        cold = _copies(build_group(plan))
        for name in [name for name in visits if name not in failed]:
            seen[name]["plans"] += 1
            if (found := CHECKS[name][0](plan, cold, seen[name])) is not None:
                failed[name] = f"FAIL {render_group_spec(plan)} {name}: {found}"
    for name, (_, end) in [(name, CHECKS[name]) for name in names if name not in failed]:
        pinned, counts = PINS.get((target, name)), seen[name]
        if (found := end and end(plans, counts)) is None and pinned not in (None, dict(counts)):
            found = f"counts {dict(counts)}, pinned {pinned}"
        if found is not None:
            failed[name] = f"FAIL {target} {name}: {found}"
    print(*[f"{target} {name}: {dict(seen[name])}" for name in names], *failed.values(), sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 3 or not set(sys.argv[2:]) <= set(CHECKS):
        sys.exit(f"usage: python tests/sweep.py LO-HI|SPEC[,SPEC...] CHECK...\nchecks: {' '.join(CHECKS)}")
    sys.exit(sweep(sys.argv[1], sys.argv[2:]))
