"""The benchmark's three workloads.

Each is a closed loop with one caller: every library call starts after the
previous one returned, in this single process (``jobs=1``).  A workload has
a set-up step, repeated and timed for ``setup_s``, and a pass, run a fixed
number of times.  The pass count follows from ``--seconds`` and the pass
time measured at the commit that defined the benchmark (``pass_s``), so two
commits always do the same work and their per-group samples line up.

A pass returns the seconds of its two phases ("survey" builds and reports,
"verify" checks), one sample of seconds per group it processed, and records
every checked output in a ``Ledger``.  All of these are read from
``ctx.clock`` (see ``speed.py``); the run budget is wall time.
"""

from __future__ import annotations

import importlib
import json
import pickle
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import ModuleType

from speed import RefClock

REFS = Path(__file__).resolve().parent / "refs"
CATALOG_ORDER = 120
# Largest order in the subgroups workload.  At 120 (all 243 catalog groups)
# one run took 45-60 s on two cores, too long for 22 runs of each of the
# three workloads to fit in an hour; 96 keeps 178 groups at about 40% of
# that cost.
SUBGROUPS_ORDER = 96


@dataclass
class Context:
    eg: ModuleType  # the imported library package
    root: Path  # checkout root; generator files are read relative to it
    work: Path  # directory under ``root`` for generated inputs
    seed: int
    passes: int
    deadline: float  # perf_counter() after which no new work is started
    clock: RefClock


@dataclass
class Ledger:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class PassTimes:
    survey_s: float = 0.0
    verify_s: float = 0.0
    samples: list[float] = field(default_factory=list)


class Workload:
    """Defaults shared by the workloads."""

    def prepare(self, ctx: Context, built):
        """Untimed step between the last set-up and the first pass."""
        return built


def _load_ref(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text())


# -- catalog ---------------------------------------------------------------


class Catalog(Workload):
    """``survey(120)``, serializing every report and the summary, then
    ``verify_theorems(120)``: the paper's sweep over 243 small catalog
    groups, where fixed costs per group (today: construction, and every plan
    evaluated twice) dominate.  The catalog is fixed, so the seed is unused.
    """

    name = "catalog"
    seed_used = False
    pass_s = 38.0
    min_passes = 1
    setup_repeats = 3

    def setup(self, ctx: Context) -> dict:
        return _load_ref("catalog")

    def run_pass(self, ctx: Context, ref: dict, ledger: Ledger, index: int) -> PassTimes:
        eg = ctx.eg
        # Per-group samples: time every evaluate_group call that survey and
        # verify_theorems make, summed per plan.
        survey_mod = importlib.import_module(eg.__name__ + ".survey")
        evaluate = survey_mod.evaluate_group
        per_plan: dict = {}

        def timed_evaluate(spec, **kwargs):
            start = ctx.clock.now()
            try:
                return evaluate(spec, **kwargs)
            finally:
                per_plan[spec] = per_plan.get(spec, 0.0) + ctx.clock.now() - start

        times = PassTimes()
        reports, summary, survey_error = {}, None, ""
        verdicts, verify_error = {}, "not run: past the run budget"
        survey_mod.evaluate_group = timed_evaluate
        try:
            start = ctx.clock.now()
            try:
                result = eg.survey(CATALOG_ORDER)
                reports = {r.name: eg.write_report(r) for r in result.reports}
                summary = eg.summary_json(result)
            except Exception as err:  # a library failure is a failed output
                survey_error = f": survey raised {err!r}"
            times.survey_s = ctx.clock.now() - start
            if perf_counter() < ctx.deadline:
                start = ctx.clock.now()
                try:
                    verdicts = {v.name: v for v in eg.verify_theorems(CATALOG_ORDER)}
                except Exception as err:
                    verify_error = f"verify_theorems raised {err!r}"
                times.verify_s = ctx.clock.now() - start
        finally:
            survey_mod.evaluate_group = evaluate

        for name, text in ref["reports"].items():
            ledger.check(reports.get(name) == text, f"catalog: report of {name} differs{survey_error}")
        for name in sorted(reports.keys() - ref["reports"].keys()):
            ledger.check(False, f"catalog: unexpected report {name}")
        ledger.check(summary == ref["summary"], f"catalog: summary_json differs{survey_error}")
        for name in ref["verdicts"]:
            v = verdicts.get(name)
            ledger.check(
                v is not None and v.passed,
                f"catalog: verdict {name} " + (f"failed: {v.detail}" if v else verify_error),
            )
        times.samples = list(per_plan.values())
        return times


# -- large -----------------------------------------------------------------

# name -> (degree, generating pair in cycle notation).  For the products, A5
# is perfect and S4 x C15 has no common non-trivial quotient, so a pair whose
# projections generate both factors generates the product; in S4 x C12 the
# first generator is odd in S4 but trivial in C12, which rules out the one
# proper subdirect product (the fibre product over C2).
LARGE_GROUPS = {
    "S5": (5, "(1,2)", "(1,2,3,4,5)"),
    "A5xC4": (9, "(1,2,3)(6,7,8,9)", "(1,2,3,4,5)"),
    "A5xC5": (10, "(1,2,3)(6,7,8,9,10)", "(1,2,3,4,5)"),
    "A5xC6": (11, "(1,2,3)(6,7,8,9,10,11)", "(1,2,3,4,5)"),
    "S4xC12": (16, "(1,2,3,4)", "(1,2,3)(5,6,7,8,9,10,11,12,13,14,15,16)"),
    "S4xC15": (19, "(1,2,3,4)", "(1,2,3)(5,6,7,8,9,10,11,12,13,14,15,16,17,18,19)"),
}
NIELSEN_MOVES = 16


def _parse(text: str, degree: int) -> tuple[int, ...]:
    """0-based image tuple of a permutation in cycle notation."""
    images = list(range(degree))
    for cycle in text.strip("()").split(")("):
        points = [int(p) - 1 for p in cycle.split(",")]
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


def _mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right product, as in the library: (p*q)(i) = q(p(i))."""
    return tuple(q[i] for i in p)


def _inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _cycles(p: tuple[int, ...]) -> str:
    seen, out = set(), []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cycle, cur = [], start
        while cur not in seen:
            seen.add(cur)
            cycle.append(str(cur + 1))
            cur = p[cur]
        out.append("(" + ",".join(cycle) + ")")
    return "".join(out) or "()"


def random_generator_file(name: str, rng: random.Random) -> str:
    """A generator file for the named group: random Nielsen moves turn the
    known generating pair into another generating pair, and a random point
    relabeling conjugates both."""
    degree, x_text, y_text = LARGE_GROUPS[name]
    x, y = _parse(x_text, degree), _parse(y_text, degree)
    for _ in range(NIELSEN_MOVES):
        move = rng.randrange(4)
        if move == 0:
            x = _mul(x, y)
        elif move == 1:
            y = _mul(y, _inv(x))
        elif move == 2:
            x = _inv(x)
        else:
            x, y = y, x
    sigma = list(range(degree))
    rng.shuffle(sigma)
    sigma = tuple(sigma)
    relabel = lambda p: _mul(_mul(_inv(sigma), p), sigma)  # noqa: E731
    return (
        f"# {name} under a random generating pair and point relabeling\n"
        f"{_cycles(relabel(x))}\n{_cycles(relabel(y))}\n"
    )


def class_subgraphs(eg, evaluation) -> list[list[int]]:
    """For each conjugacy class outside L(G): its size, and the edge count,
    component count and diameter (-1 when disconnected) of the Engel graph
    induced on it; sorted, so the list does not depend on labeling."""
    graph, members = evaluation.graph, set(evaluation.engel_set)
    position = {x: v for v, x in enumerate(graph.labels)}
    out = []
    for cls in eg.conjugacy_classes(evaluation.group):
        if cls[0] in members:
            continue
        sub = eg.induced_subgraph(graph, [position[x] for x in cls])
        d = eg.diameter(sub)
        out.append([len(cls), sub.edge_count, len(eg.connected_components(sub)),
                    -1 if d == float("inf") else int(d)])
    return sorted(out)


class Large(Workload):
    """``evaluate_group`` on six groups of order 120 to 360, whose Engel
    graphs reach 354 vertices and 48,600 edges, so the graph layer dominates
    (diameter everywhere, clique search on S5).  Each group arrives as a
    seeded generator file, so construction goes through ``closure``, and
    each pass uses a fresh relabeling: answers stay fixed while the
    canonical index order changes.  The verify phase replays two of the
    catalog's checks on these groups: the randomly-Engel test on every
    element, which ``evaluate_group`` skips above order 60, and the Engel
    graph induced on each conjugacy class, as the metabelian theorem check
    walks it.
    """

    name = "large"
    seed_used = True
    pass_s = 7.0
    min_passes = 4  # six samples a pass; at 24 the tail rule reaches p58.3, above the median
    setup_repeats = 3

    def setup(self, ctx: Context) -> dict:
        rng = random.Random(ctx.seed)
        ctx.work.mkdir(parents=True, exist_ok=True)
        files = []  # per pass: (group name, generator file relative to root)
        for index in range(ctx.passes):
            files.append([])
            for name in LARGE_GROUPS:
                path = ctx.work / f"{name}-{index}.gens"
                path.write_text(random_generator_file(name, rng))
                files[index].append((name, path.relative_to(ctx.root).as_posix()))
        return {"files": files, "ref": _load_ref("large")}

    def run_pass(self, ctx: Context, state: dict, ledger: Ledger, index: int) -> PassTimes:
        eg = ctx.eg
        times = PassTimes()
        for name, relpath in state["files"][index]:
            if perf_counter() > ctx.deadline:
                ledger.check(False, f"large: {name} not run, past the run budget")
                continue
            try:
                start = ctx.clock.now()
                evaluation = eg.evaluate_group("@" + relpath, base_dir=str(ctx.root))
                report = json.loads(eg.write_report(evaluation.report))
                mid = ctx.clock.now()
                G, members = evaluation.group, set(evaluation.engel_set)
                mismatched = [
                    x for x in range(G.order)
                    if (x in members) != eg.is_randomly_engel_conjugates(G, x)
                ]
                classes = class_subgraphs(eg, evaluation)
                end = ctx.clock.now()
            except Exception as err:
                ledger.check(False, f"large: {name} from {relpath} raised {err!r}")
                continue
            report.pop("name")
            ref = state["ref"][name]
            problems = []
            if report != ref["report"]:
                problems.append(f"report {report} != {ref['report']}")
            if classes != ref["classSubgraphs"]:
                problems.append(f"class subgraphs {classes} != {ref['classSubgraphs']}")
            if mismatched:
                problems.append(f"randomly-Engel check differs from L(G) at {mismatched[:5]}")
            ledger.check(not problems, f"large: {name} from {relpath}: " + "; ".join(problems))
            times.survey_s += mid - start
            times.verify_s += end - mid
            times.samples.append(end - start)
        return times


# -- subgroups -------------------------------------------------------------


class Subgroups(Workload):
    """Subgroup queries on every catalog group of order <= 96, built in
    set-up: ``fitting_subgroup``, ``conjugacy_classes`` and
    ``derived_subgroup`` (survey phase), then for each class outside L(G)
    the normal closure of L(G) and its representative, which must not be
    nilpotent because L(G) is the largest nilpotent normal subgroup, and the
    same for a seeded random conjugate of the representative, which must
    give the same subgroup (verify phase).  This reads the Cayley tables
    (``Group.mul``) millions of times and builds no graph.
    """

    name = "subgroups"
    seed_used = True
    pass_s = 12.0
    min_passes = 1
    setup_repeats = 2  # each build is about 6 s at the defining commit

    def setup(self, ctx: Context) -> list:
        eg = ctx.eg
        groups = []
        for plan in eg.catalog_plans(SUBGROUPS_ORDER):
            groups.append(eg.build_group(plan))
            ctx.clock.now()  # a probe between builds, so set-up time tracks the vCPU's speed
        return groups

    def prepare(self, ctx: Context, groups: list) -> dict:
        # Pickled before any query, so that every pass unpickles groups
        # with nothing cached.
        return {"snapshot": pickle.dumps(groups), "ref": _load_ref("subgroups")}

    def run_pass(self, ctx: Context, state: dict, ledger: Ledger, index: int) -> PassTimes:
        eg = ctx.eg
        groups = pickle.loads(state["snapshot"])
        rng = random.Random(ctx.seed)
        times = PassTimes()
        for G in groups:
            if perf_counter() > ctx.deadline:
                ledger.check(False, f"subgroups: {G.name} not run, past the run budget")
                continue
            problems = []
            try:
                start = ctx.clock.now()
                fitting = eg.fitting_subgroup(G)
                classes = eg.conjugacy_classes(G)
                derived = eg.derived_subgroup(G)
                mid = ctx.clock.now()
                members = set(fitting)
                for cls in classes:
                    rep = cls[0]
                    if rep in members:
                        continue
                    closure = eg.normal_closure(G, members | {rep})
                    nilpotent = eg.is_nilpotent(G, closure)
                    conj = G.conjugate(rep, rng.randrange(G.order))
                    closure_conj = eg.normal_closure(G, members | {conj})
                    if nilpotent:
                        problems.append(f"normal closure of L(G) and {rep} is nilpotent")
                    if closure_conj != closure or eg.is_nilpotent(G, closure_conj) != nilpotent:
                        problems.append(f"conjugate {conj} of {rep} disagrees")
                end = ctx.clock.now()
            except Exception as err:
                ledger.check(False, f"subgroups: {G.name} raised {err!r}")
                continue
            got = [len(fitting), len(classes), len(derived)]
            ref = state["ref"].get(G.name)
            if got != ref:
                problems.append(f"(|F|, classes, |G'|) = {got}, expected {ref}")
            ledger.check(not problems, f"subgroups: {G.name}: " + "; ".join(problems))
            times.survey_s += mid - start
            times.verify_s += end - mid
            times.samples.append(end - start)
        return times


WORKLOADS = {w.name: w for w in (Catalog(), Large(), Subgroups())}
