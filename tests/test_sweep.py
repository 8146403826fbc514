"""The oracle sweep that CI runs (``tests/sweep.py``): every check passes on
the catalog to order 60 with the counts pinned here, each check refuses a
mutant fed through the sweep, and a failure names its spec, check and
counterexample."""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("sympy.combinatorics")  # the ``sympy`` check reads it

import engelgraph.engel as engel_module  # noqa: E402
import engelgraph.graphs as graphs_module  # noqa: E402
import engelgraph.groups as groups_module  # noqa: E402
import sweep as sweep_module  # noqa: E402
from engelgraph import build_engel_graph, build_group, compute_metrics  # noqa: E402
from engelgraph.groups import _Rows, _Span  # noqa: E402
from oracles import (  # noqa: E402
    class_mismatches,
    core_cache_keyed_by_order_and_rank,
    engel_degree_from_first_images,
    engel_degree_one_short,
    mutated,
    span_filtering_members_once,
    walk_through_cycles,
    whole_group_from_one_generator,
)
from sweep import CHECKS, sweep  # noqa: E402
from test_groups import _ThroughTheNextGenerator  # noqa: E402

survey_module = importlib.import_module("engelgraph.survey")

AT_60 = {
    "survey": {
        "plans": 91, "reports": 76, "diameter 1": 13, "diameter 2": 63,
        "planar": "S3, D12, Dic3, S3xC2", "disconnected": 0, "largest clique": 29,
        "PASS lines": 6,
        "verdict digest": "de71b4a35b1ea3a048d6413b1f3ef89f65fbab2c28624a76cbb20c108d462c36",
        "output digest": "3910698ed438ba545ff864cef4e7ce4c5962ef861df82da36aba0a0abd7d781b",
    },
    "cliques": {"plans": 91, "reports": 76},
    "products": {"plans": 91, "reports": 76, "pairs": 38},
    "distances": {
        "plans": 91, "graphs": 76,
        "class subgraphs of diameter 1": 229, "class subgraphs of diameter 2": 37,
    },
    "rows": {"plans": 91, "graphs": 76},
    "randomly_engel": {"plans": 91, "class leaders": 1340},
    "depths": {"plans": 91, "class leaders": 1340},
    "tables": {"plans": 91, "bytes rows": 91},
    "lazy": {"plans": 91},
    "sympy": {"plans": 91},
    "classes": {"plans": 91},
    "core": {"plans": 91, "cores that are G": 16, "bytes rows": 91},
    "closures": {"plans": 91, "closures": 266},
    "greedy_closures": {"plans": 91, "bytes rows": 91, "closures": 266},
    "series": {"plans": 91, "closures": 266, "closures that are G": 263},
}


def test_every_check_passes_on_the_catalog_to_order_60(capsys):
    assert list(AT_60) == list(CHECKS) == list(dict.fromkeys(m[0] for m in MUTANTS))
    assert sweep("1-60", list(CHECKS)) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"1-60 {name}: {counts}" for name, counts in AT_60.items()
    ]


def _no_orbit_sources(G):
    g = build_engel_graph(G)
    g.orbit_sources = None
    return g


def _edges_of_the_twin_quotient(g):
    metrics = compute_metrics(g)
    return dataclasses.replace(metrics, edge_count=graphs_module._twin_quotient(g)[0].edge_count)


# check, target, and the attribute a mutant replaces
MUTANTS = [
    # small sparse graphs' planarity by networkx, which the survey hides
    ("survey", "1-60", graphs_module, "_SMALL", 2),
    # D62 lifts from its closed form, here with b = m / 2
    ("cliques", "D62", survey_module, "_closed_form_record",
     mutated(survey_module._closed_form_record, "b = m // t", "b = m // 2")),
    ("products", "1-60", survey_module, "compute_metrics", _edges_of_the_twin_quotient),
    # the diameter then searched from every twin class: right, but slow
    ("distances", "1-60", survey_module, "build_engel_graph", _no_orbit_sources),
    ("rows", "1-60", engel_module, "_engel_degree", engel_degree_from_first_images),
    # a member's list mapped from a class member whose list is not yet made
    ("rows", "1-60", graphs_module, "_core_rows",
     mutated(engel_module._core_rows, "if rows[at[u]]:", "if True:")),
    ("randomly_engel", "1-60", engel_module, "_walk", walk_through_cycles),
    ("depths", "1-60", engel_module, "_engel_degree", engel_degree_one_short),
    ("tables", "A5xC5", _Rows, "__missing__", _ThroughTheNextGenerator.__missing__),
    ("lazy", "A5xC5", _Rows, "__missing__", _ThroughTheNextGenerator.__missing__),
    ("sympy", "1-60", groups_module, "_subgroup_gens", whole_group_from_one_generator),
    # each member's transversal element without its last generator
    ("classes", "1-60", groups_module, "_classes",
     mutated(groups_module._classes, "via[v] = col[t]", "via[v] = t")),
    # the conjugation map read from the row of g^-1, which S3xC43 composes
    ("classes", "S3xC43", groups_module, "_classes",
     mutated(groups_module._classes, "_getter(half)(half)", "_getter(G._table[G._inv[g]])(col)")),
    # C's rows read from the rows of G's generators' inverses
    ("core", "1-60", engel_module, "_engel_core",
     mutated(engel_module._engel_core, "at_reps(table[g])", "at_reps(table[G._inv[g]])")),
    # S3xC2 and D12xC2 have Engel cores of order 6 from 2 generator rows
    # each, numbered apart, so the second reads the first's core
    *[(check, "S3xC2,D12xC2", engel_module, "_shared_core",
       core_cache_keyed_by_order_and_rank(engel_module._shared_core.__wrapped__))
      for check in ("core", "rows", "randomly_engel")],
    ("closures", "1-60", groups_module, "_subgroup_gens", whole_group_from_one_generator),
    ("greedy_closures", "1-60", _Span, "__init__", span_filtering_members_once),
    ("series", "1-60", groups_module, "_subgroup_gens", whole_group_from_one_generator),
]


# a check's first mutant is named by the check, a later one by its target too
_IDS = [check if [m[0] for m in MUTANTS].index(check) == i else f"{check} on {target}"
        for i, (check, target, *_) in enumerate(MUTANTS)]


@pytest.mark.parametrize("check, target, owner, name, mutant", MUTANTS, ids=_IDS)
def test_each_check_refuses_a_mutant(monkeypatch, capsys, check, target, owner, name, mutant):
    assert sweep(target, [check]) == 0
    monkeypatch.setattr(owner, name, mutant)
    assert sweep(target, [check]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("FAIL ") and f" {check}: " in last


def test_a_class_pass_keyed_by_other_members_fails_the_classes_check(monkeypatch, capsys):
    # visited in reverse order, each class is walked from its greatest
    # member and its walk keyed by it; the oracle reports the walks it
    # finds under no least member, and the sweep prints a failure line
    reverse = mutated(groups_module._classes, "for x in range(n):", "for x in reversed(range(n)):")
    monkeypatch.setattr(groups_module, "_classes", reverse)
    assert "S3: walk of the class of 1" in class_mismatches(build_group("S3"))
    assert sweep("1-60", ["classes"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("FAIL S3 classes: S3: ")


def test_series_forms_the_series_of_a_nilpotent_group_cold(monkeypatch, capsys):
    # L(G) is all of a nilpotent G and its span remembers G's series, so
    # asked after L(G) the series of G would be read, not formed
    nilpotent = "Dic2,D8,D16,C2xD8"
    assert sweep(nilpotent, ["series"]) == 0
    monkeypatch.setattr(groups_module, "_subgroup_gens", whole_group_from_one_generator)
    assert sweep(nilpotent, ["series"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL Dic2 series: the series of G, cold"


def test_a_failure_names_the_spec_the_check_and_the_counterexample(monkeypatch, capsys):
    # the rotations of S3 are left 2-Engel, and the mutant calls them left
    # 1-Engel; S4 is not read once the check has failed
    monkeypatch.setattr(engel_module, "_engel_degree", engel_degree_one_short)
    assert sweep("S3,S4", ["depths"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "S3,S4 depths: {'plans': 1, 'class leaders': 3}",
        "FAIL S3 depths: class leader element 3 = (1,2,3)",
    ]


def test_a_count_other_than_the_pinned_one_fails(monkeypatch, capsys):
    monkeypatch.setitem(sweep_module.PINS, ("S3", "depths"), {"plans": 1, "class leaders": 4})
    assert sweep("S3", ["depths"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "FAIL S3 depths: counts {'plans': 1, 'class leaders': 3}, "
        "pinned {'plans': 1, 'class leaders': 4}"
    )


def test_the_command_line_exits_with_the_sweep(repo_root):
    src = str(repo_root / "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = [sys.executable, str(Path(sweep_module.__file__))]
    ok = subprocess.run([*run, "S3", "depths"], capture_output=True, text=True, env=env, cwd=repo_root)
    assert (ok.returncode, ok.stdout) == (0, "S3 depths: {'plans': 1, 'class leaders': 3}\n")
    usage = subprocess.run([*run, "S3", "no_such_check"], capture_output=True, text=True, env=env)
    assert usage.returncode == 1 and usage.stderr.startswith("usage: python tests/sweep.py")
