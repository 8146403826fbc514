import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

import engelgraph.engel as engel_module
from engelgraph import (
    BaerViolation,
    InvalidParameter,
    PreconditionFailed,
    SameVertex,
    build_engel_graph,
    conjugacy_classes,
    engel_adjacent,
    engel_depths,
    engel_reaches_identity,
    fitting_subgroup,
    is_engel_set,
    is_left_engel,
    is_left_k_engel,
    is_randomly_engel_conjugates,
    is_randomly_engel_set,
    is_subgroup,
    iterated_commutator,
    lcm_power_engel_check,
    left_engel_set,
    normal_closure,
    is_nilpotent,
    subgroup_generated,
    symmetric_group,
)
from engelgraph.io import build_group
from engelgraph.survey import catalog_plans, evaluate_group, survey
from conftest import elem
from oracles import (
    bounded_left_engel_set,
    depth_map_by_preimages,
    direct_engel_graph,
    direct_left_engel_set,
    engel_core_mismatches,
    engel_degree_from_first_images,
    engel_degree_one_short,
    engel_reaches_by_iteration,
    left_engel_mismatches,
    naive_is_abelian,
    naive_subgroup_generated,
    naive_upper_central_series,
    randomly_engel_conjugates_by_elements,
    walk_through_cycles,
)


def test_iterated_commutator_base_case(s3):
    t = elem(s3, (1, 2))
    c = elem(s3, (1, 2, 3))
    assert iterated_commutator(s3, t, c, 0) == t
    # [t, c] lands in the abelian subgroup A3 together with c, so the next
    # step is trivial
    assert iterated_commutator(s3, t, c, 1) != s3.identity
    assert iterated_commutator(s3, t, c, 2) == s3.identity
    for k in range(1, 5):
        assert iterated_commutator(s3, s3.identity, c, k) == s3.identity
    with pytest.raises(ValueError):
        iterated_commutator(s3, t, c, -1)


def test_engel_reachability_is_asymmetric(s3):
    t = elem(s3, (1, 2))
    c = elem(s3, (1, 2, 3))
    forward = engel_reaches_identity(s3, t, c)
    assert forward.reached and forward.steps == 2
    backward = engel_reaches_identity(s3, c, t)
    assert not backward.reached and backward.steps is None


def test_engel_reaches_identity_at_zero_steps(s3):
    out = engel_reaches_identity(s3, s3.identity, elem(s3, (1, 2)))
    assert out.reached and out.steps == 0


def test_depths_agree_with_direct_iteration(s4, d12, dic3):
    for G in (s4, d12, dic3):
        for x in range(G.order):
            depths = engel_depths(G, x)
            for a in range(G.order):
                outcome = engel_reaches_identity(G, a, x)
                assert outcome.reached == (depths[a] >= 0)
                assert outcome.reached == engel_reaches_by_iteration(G, a, x)
                if outcome.reached:
                    assert outcome.steps == depths[a]
                    assert iterated_commutator(G, a, x, depths[a]) == G.identity
                    if depths[a] > 0:
                        assert (
                            iterated_commutator(G, a, x, depths[a] - 1) != G.identity
                        )


def test_is_left_engel(s3):
    assert is_left_engel(s3, elem(s3, (1, 2, 3)))
    assert not is_left_engel(s3, elem(s3, (1, 2)))
    assert is_left_engel(s3, s3.identity)


def test_is_left_k_engel(s3, c6):
    assert is_left_k_engel(s3, elem(s3, (1, 2, 3)), 2)
    t = elem(s3, (1, 2))
    assert all(not is_left_k_engel(s3, t, k) for k in range(1, 7))
    assert all(is_left_k_engel(c6, x, 1) for x in range(6))
    with pytest.raises(ValueError):
        is_left_k_engel(s3, t, 0)


def test_left_engel_verdicts_match_depth_maps_and_iteration():
    # every element of every plan up to order 120, so that classes are
    # entered at members other than their least one too
    for plan in catalog_plans(120):
        G = build_group(plan)
        assert left_engel_mismatches(G, range(G.order)) == [], G.name


def test_a_verdict_from_the_first_images_alone_is_caught(monkeypatch, s3):
    # S_1 = {1} only for central x; the rotations of S3 are left 2-Engel
    # but not central, so the mutant calls them not left Engel
    monkeypatch.setattr(engel_module, "_engel_degree", engel_degree_from_first_images)
    rotations = {elem(s3, (1, 2, 3)), elem(s3, (1, 3, 2))}
    assert {x for x, _ in left_engel_mismatches(s3, range(6))} == rotations


def test_a_degree_one_short_is_caught(monkeypatch, s3):
    # the rotations of S3 are left 2-Engel, and the largest depth over
    # S_1 is 1, so the mutant calls them left 1-Engel
    monkeypatch.setattr(engel_module, "_engel_degree", engel_degree_one_short)
    rotations = [elem(s3, (1, 2, 3)), elem(s3, (1, 3, 2))]
    assert left_engel_mismatches(s3, range(6)) == sorted((x, 1) for x in rotations)


def test_left_engel_sets(s3, a4, d12, c6):
    assert left_engel_set(s3) == subgroup_generated(s3, [elem(s3, (1, 2, 3))])
    assert left_engel_set(c6) == tuple(range(6))
    v4 = subgroup_generated(
        a4, [elem(a4, (1, 2), (3, 4)), elem(a4, (1, 3), (2, 4))]
    )
    assert left_engel_set(a4) == v4
    s = d12.generators[0]
    assert left_engel_set(d12) == subgroup_generated(d12, [s])


def test_bounded_set_collapses_to_left_engel_set(s3, d12, c6):
    for G in (s3, d12, c6):
        assert bounded_left_engel_set(G) == left_engel_set(G)
    s = d12.generators[0]
    assert len(bounded_left_engel_set(d12)) == 6
    assert bounded_left_engel_set(d12) == subgroup_generated(d12, [s])


def test_fitting_subgroup(s3, d12, c6):
    assert fitting_subgroup(s3) == left_engel_set(s3)
    assert len(fitting_subgroup(d12)) == 6
    assert fitting_subgroup(c6) == tuple(range(6))


@pytest.mark.parametrize(
    "cycles, message",
    [
        ([(), [(1, 2)], [(1, 3)]], "is not a subgroup"),
        ([(), [(1, 2)]], "is not normal"),
        ([(), [(1, 2)], [(1, 3)], [(2, 3)], [(1, 2, 3)], [(1, 3, 2)]], "is not nilpotent"),
    ],
)
def test_fitting_subgroup_rejects_a_wrong_left_engel_set(s3, monkeypatch, cycles, message):
    members = tuple(sorted(elem(s3, *c) for c in cycles))
    monkeypatch.setattr(engel_module, "left_engel_set", lambda G: members)
    with pytest.raises(BaerViolation, match=message):
        fitting_subgroup(s3)


def test_left_engel_is_conjugation_invariant(s4, dic3):
    for G in (s4, dic3):
        for x in range(G.order):
            value = is_left_engel(G, x)
            for g in range(G.order):
                assert is_left_engel(G, G.conjugate(x, g)) == value


def test_sequence_cycles_after_group_order_steps(s3, a4, d12):
    # determinism bound: when the identity is not among the first |G|
    # iterates, the tail keeps revisiting earlier values and never hits it
    for G in (s3, a4, d12):
        n = G.order
        for a in range(n):
            for x in range(n):
                values = [a]
                for _ in range(2 * n):
                    values.append(G.commutator(values[-1], x))
                head = values[: n + 1]
                if G.identity not in head:
                    assert G.identity not in values
                    assert all(v in set(head) for v in values[n:])


def test_randomly_engel_conjugates(s3):
    assert is_randomly_engel_conjugates(s3, elem(s3, (1, 2, 3)))
    assert not is_randomly_engel_conjugates(s3, elem(s3, (1, 2)))
    assert is_randomly_engel_conjugates(s3, s3.identity)


def test_engel_sets(s3):
    t, c = elem(s3, (1, 2)), elem(s3, (1, 2, 3))
    assert not is_engel_set(s3, [t, c])  # one direction never vanishes
    assert is_randomly_engel_set(s3, [t, c])  # but the other one does
    assert is_engel_set(s3, [s3.identity])
    a3 = subgroup_generated(s3, [c])
    assert is_engel_set(s3, a3)
    assert not is_randomly_engel_set(s3, [t, elem(s3, (1, 3))])
    assert is_randomly_engel_set(s3, [t])


def test_every_engel_set_is_randomly_engel(s4, d12):
    rng = random.Random(21)
    for G in (s4, d12):
        for _ in range(200):
            size = rng.randint(1, 5)
            members = rng.sample(range(G.order), size)
            if is_engel_set(G, members):
                assert is_randomly_engel_set(G, members)


def test_normal_randomly_engel_sets_sit_inside_fitting():
    # over all unions of conjugacy classes in small catalog groups: a normal
    # randomly-Engel subset must be contained in the Fitting subgroup, and
    # conversely every subset of the Fitting subgroup qualifies
    for plan in catalog_plans(24):
        G = build_group(plan)
        classes = conjugacy_classes(G)
        fitting = set(left_engel_set(G))
        # pairwise compatibility of classes, then unions are cheap to judge
        depth = [depth_map_by_preimages(G, y) for y in range(G.order)]
        ok = {}
        for i, ci in enumerate(classes):
            for j in range(i, len(classes)):
                cj = classes[j]
                ok[(i, j)] = all(
                    depth[y][x] >= 0 or depth[x][y] >= 0
                    for x in ci
                    for y in cj
                )
        for size in range(1, len(classes) + 1):
            for chosen in combinations(range(len(classes)), size):
                union = [x for i in chosen for x in classes[i]]
                randomly = all(
                    ok[(i, j)] for i, j in combinations(chosen, 2)
                ) and all(ok[(i, i)] for i in chosen)
                assert randomly == is_randomly_engel_set(G, union)
                if randomly:
                    assert set(union) <= fitting


def test_engel_adjacency(s3, d12):
    assert engel_adjacent(s3, elem(s3, (1, 2)), elem(s3, (1, 3)))
    assert not engel_adjacent(s3, elem(s3, (1, 2)), elem(s3, (1, 2, 3)))
    with pytest.raises(SameVertex):
        engel_adjacent(s3, elem(s3, (1, 2)), elem(s3, (1, 2)))
    # commuting vertices are never adjacent: r and s^3*r differ by the
    # central rotation s^3
    s, r = d12.generators
    other = d12.mul(d12.power(s, 3), r)
    assert d12.mul(r, other) == d12.mul(other, r)
    assert not engel_adjacent(d12, r, other)


def test_lcm_power_engel_check_on_central_element(d12):
    s, r = d12.generators
    s3_central = d12.power(s, 3)
    assert lcm_power_engel_check(d12, s3_central, r, [1]) is True


def test_lcm_power_engel_check_rejects_failed_hypothesis(d12):
    s, r = d12.generators
    # [s, r] = s^-2 != 1, so the vanishing hypothesis fails (the normal
    # closure of <s> is <s> itself, which is abelian)
    with pytest.raises(PreconditionFailed, match="identity"):
        lcm_power_engel_check(d12, s, r, [1])


def test_lcm_power_engel_check_rejects_nonabelian_closure(s4):
    t = elem(s4, (1, 2))
    c4 = elem(s4, (1, 2, 3, 4))
    # <(1,2)> has normal closure S4 inside <(1,2),(1,2,3,4)> = S4
    with pytest.raises(PreconditionFailed, match="abelian"):
        lcm_power_engel_check(s4, t, c4, [1])


def test_lcm_power_engel_check_trivial_cases(s3):
    g = elem(s3, (1, 2, 3))
    assert lcm_power_engel_check(s3, s3.identity, g, [1, 1]) is True
    with pytest.raises(ValueError):
        lcm_power_engel_check(s3, s3.identity, g, [])
    with pytest.raises(ValueError):
        lcm_power_engel_check(s3, s3.identity, g, [0, 1])


def test_lcm_power_engel_check_normal_closure_matches_all_conjugates(s4, d12, dic3):
    # the closure hypothesis fails exactly when the subgroup generated by
    # the conjugates of a under all of <a, g> is not abelian
    for G in (s4, d12, dic3):
        for a in range(G.order):
            for g in range(G.order):
                H = naive_subgroup_generated(G, (a, g))
                ncl = naive_subgroup_generated(G, {G.conjugate(a, h) for h in H})
                try:
                    lcm_power_engel_check(G, a, g, [1])
                    closure_abelian = True
                except PreconditionFailed as err:
                    closure_abelian = "abelian" not in str(err)
                assert closure_abelian == naive_is_abelian(G, ncl), (G.name, a, g)


def _fitting_by_enumeration(G):
    # independent route: the largest normal nilpotent subgroup, found by
    # enumerating all conjugacy-class unions that form nilpotent subgroups
    classes = conjugacy_classes(G)
    best = (G.identity,)
    for size in range(1, len(classes) + 1):
        for chosen in combinations(range(len(classes)), size):
            union = tuple(sorted(x for i in chosen for x in classes[i]))
            if G.identity not in union:
                continue
            if is_subgroup(G, union) and is_nilpotent(G, union):
                if len(union) > len(best):
                    best = union
    return best


def test_fitting_matches_largest_normal_nilpotent_subgroup():
    for plan in catalog_plans(24):
        G = build_group(plan)
        assert fitting_subgroup(G) == _fitting_by_enumeration(G), G.name


def test_fitting_is_maximal_normal_nilpotent(s3, a4, d12):
    for G in (s3, a4, d12):
        L = fitting_subgroup(G)
        for y in range(G.order):
            if y in L:
                continue
            bigger = normal_closure(G, list(L) + [y])
            assert not is_nilpotent(G, bigger)


def test_caches_do_not_leak_between_groups():
    one = symmetric_group(3)
    two = symmetric_group(3)
    assert left_engel_set(one) == left_engel_set(two)
    assert one is not two


def _count_full_walks(monkeypatch):
    """The (G, r) of each ``_walk`` asked to start from every element of G,
    as ``range(G.order)``: a depth map."""
    full = []
    walk = engel_module._walk

    def counting(G, r, starts):
        if starts == range(G.order):
            full.append((G, r))
        return walk(G, r, starts)

    monkeypatch.setattr(engel_module, "_walk", counting)
    return full


@pytest.mark.parametrize("x", [-1, 6])
def test_engel_depths_refuses_an_index_outside_the_group(x):
    # a negative index would otherwise cache element 5's map under its key
    G = build_group("S3")
    with pytest.raises(InvalidParameter, match=rf"index {x} .*'S3'"):
        engel_depths(G, x)
    assert G._memo == {}


@pytest.mark.parametrize("predicate", [is_engel_set, is_randomly_engel_set])
@pytest.mark.parametrize("x", [-1, 6])
def test_set_predicates_refuse_an_index_outside_the_group(predicate, x):
    # a negative index would otherwise answer for element 5, and 6 raise a
    # bare IndexError; the check comes before any walk or memo
    G = build_group("S3")
    with pytest.raises(InvalidParameter, match=rf"index {x} .*'S3'"):
        predicate(G, [1, x])
    assert G._memo == {}


@pytest.mark.parametrize("x", [-1, 24])
def test_randomly_engel_answers_refuse_an_index_outside_the_group_once_cached(x):
    # a cached call reads the answer tuple, where -1 would answer for
    # element 23; the index is checked before that read, cached or not
    G = build_group("S4")
    with pytest.raises(InvalidParameter, match=rf"index {x} .*'S4'"):
        is_randomly_engel_conjugates(G, x)
    assert is_randomly_engel_conjugates(G, 0) and "randomly_engel" in G._memo
    with pytest.raises(InvalidParameter, match=rf"index {x} .*'S4'"):
        is_randomly_engel_conjugates(G, x)


_ELEMENT_QUERIES = {
    "is_randomly_engel_conjugates x": lambda G, b: is_randomly_engel_conjugates(G, b),
    "is_left_engel x": lambda G, b: is_left_engel(G, b),
    "is_left_k_engel x": lambda G, b: is_left_k_engel(G, b, 2),
    "engel_reaches_identity a": lambda G, b: engel_reaches_identity(G, b, 1),
    "engel_adjacent x": lambda G, b: engel_adjacent(G, b, 0),
    "engel_adjacent y": lambda G, b: engel_adjacent(G, 0, b),
    "iterated_commutator a": lambda G, b: iterated_commutator(G, b, 3, 2),
    "iterated_commutator x": lambda G, b: iterated_commutator(G, 3, b, 2),
    "lcm_power_engel_check g": lambda G, b: lcm_power_engel_check(G, 1, b, [1]),
}


@pytest.mark.parametrize("query", _ELEMENT_QUERIES.values(), ids=_ELEMENT_QUERIES)
@pytest.mark.parametrize("x", [-1, 24])
def test_element_queries_refuse_an_index_outside_the_group(query, x):
    # a negative index would otherwise answer for element 23, and 24 raise
    # a bare IndexError; the check comes before any memo is written
    G = build_group("S4")
    with pytest.raises(InvalidParameter, match=rf"index {x} .*'S4'"):
        query(G, x)
    assert G._memo == {}


def test_each_engel_depth_map_is_built_once(monkeypatch, repo_root):
    # only the graph walks from every element, and only from class
    # representatives, so a full evaluation makes at most one full walk
    # per conjugacy class, never one per element
    built = _count_full_walks(monkeypatch)
    for spec in ("S4", "@fixtures/c7_c3.gens"):
        built.clear()
        G = evaluate_group(spec, base_dir=repo_root).group
        assert {H for H, _ in built} == {G}, spec
        reps = {cls[0] for cls in conjugacy_classes(G)}
        assert len(set(built)) == len(built) and {x for _, x in built} <= reps, spec


@pytest.mark.parametrize("spec", ["S4", "D12xC5", "A5xC6"])
def test_engel_degrees_keep_depths_over_the_first_images_only(monkeypatch, spec):
    # the walks from S_1 = {[a, x]} stay in S_1, so the one walk of each
    # left Engel test starts from S_1 only and maps no element outside it;
    # bytes rows for S4 and D12xC5, tuples for A5xC6
    walks = []
    walk = engel_module._walk

    def recording(G, r, starts):
        starts = set(starts)
        depth = walk(G, r, starts)
        met = {y for y, d in enumerate(depth) if d is not None}
        walks.append((G, r, starts, met))
        return depth

    monkeypatch.setattr(engel_module, "_walk", recording)
    G = build_group(spec)
    for x in range(G.order):
        walks.clear()
        engel = is_left_engel(G, x)
        assert engel == (min(depth_map_by_preimages(G, x)) >= 0), x
        S1 = {G.commutator(a, x) for a in range(G.order)}
        assert walks == [(G, x, S1, S1)], x


def test_left_engel_set_of_a5xa5_builds_no_depth_map(monkeypatch):
    # 3,600 elements in 25 classes: L(A5xA5) is trivial, and each class is
    # decided by walks from its commutator images, never from every element
    built = _count_full_walks(monkeypatch)
    G = build_group("A5xA5")
    assert left_engel_set(G) == (G.identity,)
    assert built == [] and len(conjugacy_classes(G)) == 25


def test_evaluation_keeps_no_depth_map():
    # A5xC6 has 360 elements in 30 classes and hypercentre C6, so its graph
    # is read from the core A5, with 60 elements in 5 classes and a trivial
    # centre.  Each walk's map is dropped when its reader is done, so
    # engel.py keeps no map on G or on C: only the core's table and
    # projection, and 16 KiB for the memos' keys and L(G)
    tracemalloc.start()
    try:
        G = evaluate_group("A5xC6").group
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ours = snapshot.filter_traces([tracemalloc.Filter(True, engel_module.__file__)])
    held = sum(stat.size for stat in ours.statistics("filename"))
    C, proj = engel_module._engel_core(G)
    assert (G.order, C.order) == (360, 60)
    assert not any(isinstance(key, tuple) for H in (G, C) for key in H._memo)
    table = sys.getsizeof(C._table) + sum(map(sys.getsizeof, C._table))
    assert held <= table + sys.getsizeof(proj) + 16 * 1024


def test_engel_core_is_g_mod_its_hypercentre():
    # against the all-pairs upper central series and sympy; 75 plans, D24
    # and Dic6 among them, have a hypercentre larger than their centre
    deeper = 0
    for plan in catalog_plans(120):
        G = build_group(plan)
        assert engel_core_mismatches(G, *engel_module._engel_core(G)) == []
        deeper += len(naive_upper_central_series(G)) > 2
    assert deeper == 75


@pytest.mark.parametrize("spec, order", [("Dic129", 258), ("D516", 258), ("A6xC2", 360)])
def test_a_core_above_order_256_is_g_mod_its_hypercentre_with_a_complete_table(spec, order):
    # its rows are composed on first read, as G's are, and _engel_core
    # completes them, so no walk in C composes a row
    G = build_group(spec)
    C, proj = engel_module._engel_core(G)
    assert C.order == order and engel_core_mismatches(G, C, proj) == []
    assert type(C._table) is list and len(C._table) == C.order
    assert {type(row) for row in C._table} == {tuple}
    # and it is built for G alone: another copy of G gets a core of its own
    assert engel_module._engel_core(build_group(spec))[0] is not C
    assert engel_module._shared_core.cache_info().currsize == 0


@pytest.mark.parametrize("family", [("D12", "Dic3", "D24", "Dic6", "D12xC2"),
                                    tuple(f"S3xC{k}" for k in range(2, 8))])
def test_groups_with_one_engel_core_share_it_and_its_answers(group_inits, family):
    # each family's cores G/Z*(G) are S3 with the same generator rows, once
    # the identity's row, from a generator in Z*, is dropped, so the first
    # group builds its core and the others build none; each reads
    # L(C), C's randomly-Engel answers and E_C's rows through its own
    # projection, and gets the answers of the oracles that read G alone
    cores = set()
    for spec in family:
        G = build_group(spec)
        group_inits.clear()
        C, _ = engel_module._engel_core(G)
        cores.add(C)
        assert left_engel_set(G) == direct_left_engel_set(G), spec
        assert [is_randomly_engel_conjugates(G, x) for x in range(G.order)] == [
            randomly_engel_conjugates_by_elements(G, x) for x in range(G.order)], spec
        got, want = build_engel_graph(G), direct_engel_graph(G)
        assert (got.labels, got.adjacency) == (want.labels, want.adjacency), spec
        assert group_inits == (["Engel core"] if spec == family[0] else []), spec
    assert len(cores) == 1 and C.order == 6


def test_a_core_up_to_order_256_has_bytes_rows():
    # built by the same table code as G, which picks the row type from the
    # order alone
    C, _ = engel_module._engel_core(build_group("S4xC3"))
    assert C.order == 24 and {type(row) for row in C._table} == {bytes}


def test_quotient_path_matches_the_direct_path():
    # L(G) and every bit row of E_G read from the Engel core G/Z*(G) are
    # those read from the depth maps by preimages of G's own class
    # representatives
    centred = 0
    for plan in catalog_plans(120):
        G = build_group(plan)
        L = left_engel_set(G)
        assert L == direct_left_engel_set(G), G.name
        centred += engel_module._engel_core(G)[0] is not G
        if len(L) < G.order:
            got, want = build_engel_graph(G), direct_engel_graph(G)
            assert got.labels == want.labels, G.name
            assert got.adjacency == want.adjacency, G.name
    assert centred == 211


def test_no_engel_graph_row_holds_its_own_bit():
    # each row is the complement of a non-neighbour list, which must hold
    # its own vertex, or the vertex's bit would stay set in its row; both
    # paths, C is G and the coset blow-up, are taken up to order 120
    paths = Counter()
    for plan in catalog_plans(120):
        G = build_group(plan)
        if len(left_engel_set(G)) < G.order:
            g = build_engel_graph(G)
            assert not any(row >> v & 1 for v, row in enumerate(g.adjacency)), G.name
            paths[engel_module._engel_core(G)[0] is G] += 1
    assert paths[True] > 0 and paths[False] > 0, paths


def test_engel_graph_is_the_coset_blow_up_of_the_core_graph():
    # with (C, proj) the Engel core G/Z*(G), each row of E_G is the full
    # preimage of the row of proj[x] in E_C, so E_G has |Z*| vertices for
    # each vertex of E_C and |Z*|^2 edges for each of its edges
    blown_up = 0
    for plan in catalog_plans(120):
        G = build_group(plan)
        C, proj = engel_module._engel_core(G)
        if C is G or len(left_engel_set(G)) == G.order:
            continue
        g, core = build_engel_graph(G), build_engel_graph(C)
        slot = {q: i for i, q in enumerate(core.labels)}
        for v, x in enumerate(g.labels):
            row = {core.labels[j] for j in core.neighbors(slot[proj[x]])}
            got = [g.labels[u] for u in g.neighbors(v)]
            assert got == [y for y in g.labels if proj[y] in row], (G.name, x)
        z = G.order // C.order
        assert g.vertex_count == z * core.vertex_count, G.name
        assert g.edge_count == z * z * core.edge_count, G.name
        blown_up += 1
    assert blown_up == 174  # the non-nilpotent plans with a centre


def _randomly_engel_mismatches(G):
    return [
        x for x in range(G.order)
        if is_randomly_engel_conjugates(G, x) != randomly_engel_conjugates_by_elements(G, x)
    ]


def test_randomly_engel_by_class_matches_element_oracle():
    # every answer, read from the tuple cached on G, against the oracle
    # over every conjugate, on the catalog groups up to order 60
    for plan in catalog_plans(60):
        G = build_group(plan)
        assert _randomly_engel_mismatches(G) == [], G.name
        assert G._memo["randomly_engel"] == tuple(
            map(randomly_engel_conjugates_by_elements, [G] * G.order, range(G.order))
        ), G.name


def test_a_cycle_taken_as_reaching_the_identity_is_caught(monkeypatch, s3):
    # [t', t] of two transpositions of S3 is a 3-cycle c, and [c, t] = c,
    # so the walk from t' under t meets itself at c; the mutant gives it a
    # depth and lets every transposition pass, and S3, the first catalog
    # plan, refuses it there
    monkeypatch.setattr(engel_module, "_walk", walk_through_cycles)
    groups = map(build_group, catalog_plans(60))
    G = next(G for G in groups if _randomly_engel_mismatches(G))
    assert G.name == "S3"
    assert _randomly_engel_mismatches(G) == [
        x for x in range(6) if G.order_of(x) == 2
    ]


@pytest.mark.parametrize("spec", ["S4", "A5xC6", "S4xC3"])
@pytest.mark.parametrize("asked", ["one", "all"])
def test_randomly_engel_reads_each_class_of_the_core_once(monkeypatch, spec, asked):
    # the first question answers every element of G from one walk per class
    # of the core C = G/Z*(G), whether one element is asked or all; it
    # walks from the members of that class only, reads no Engel row, and
    # keeps on C its class pass and its answers, which G reads through proj
    rows = []
    monkeypatch.setattr(engel_module, "_core_rows", lambda *args: rows.append(args))
    walks = []
    walk = engel_module._walk

    def counting(H, r, starts):
        walks.append((H, r, tuple(starts)))
        return walk(H, r, starts)

    monkeypatch.setattr(engel_module, "_walk", counting)
    G = build_group(spec)
    C, _ = engel_module._engel_core(G)
    first, *rest = [G.order - 1] if asked == "one" else [*range(G.order), *range(G.order)]
    is_randomly_engel_conjugates(G, first)
    assert len(G._memo["randomly_engel"]) == G.order
    assert [(r, starts) for _, r, starts in walks] == [(cls[0], cls) for cls in conjugacy_classes(C)]
    assert {H for H, _, _ in walks} == {C}
    for x in rest:
        is_randomly_engel_conjugates(G, x)
    assert len(walks) == len(conjugacy_classes(C))
    assert rows == []
    assert C is G or set(C._memo) == {"engel_core", "classes", "randomly_engel"}


def test_survey_builds_depth_maps_for_the_graphs_only(monkeypatch):
    # survey(120) walks from every element once per class outside L of
    # each distinct Engel core it builds a graph of, and the groups that
    # share a core read its rows; L(G) and the randomly-Engel check walk
    # from a few elements only
    built = _count_full_walks(monkeypatch)
    survey(120)
    assert len(built) == 41


@pytest.mark.parametrize("spec", ["S5", "A5xC4", "S4xC12"])
def test_randomly_engel_reads_the_class_from_its_non_neighbours(spec):
    # some class of the core holds a neighbour of its least member, so that
    # member's non-neighbours there are fewer than the class; every answer
    # must still be the element oracle's, over every conjugate
    G = build_group(spec)
    C, _ = engel_module._engel_core(G)
    L = set(left_engel_set(C))
    vertices = [x for x in range(C.order) if x not in L]
    lists = dict(zip(vertices, engel_module._core_rows(C)))
    assert any(len(set(cls) & {vertices[i] for i in lists[cls[0]]}) < len(cls)
               for cls in conjugacy_classes(C) if cls[0] in lists)
    for x in range(G.order):
        assert is_randomly_engel_conjugates(G, x) == randomly_engel_conjugates_by_elements(G, x), x


@pytest.mark.parametrize("spec, core_is_g", [("S5", True), ("S3xC2", False)])
def test_a_second_engel_graph_makes_no_walk(monkeypatch, spec, core_is_g):
    # E_C's lists are kept on C, whether C is G (Z(S5) = 1) or the core S3
    # that S3xC2 shares, so a second graph of G reads them and walks nowhere
    G = build_group(spec)
    assert (engel_module._engel_core(G)[0] is G) == core_is_g
    first = build_engel_graph(G)
    walks = []
    walk = engel_module._walk

    def counting(H, r, starts):
        walks.append((H, r))
        return walk(H, r, starts)

    monkeypatch.setattr(engel_module, "_walk", counting)
    assert build_engel_graph(G) == first and walks == []


def test_engel_outcome_consistency():
    from engelgraph import EngelOutcome

    assert EngelOutcome(True, 2).steps == 2
    with pytest.raises(ValueError):
        EngelOutcome(True)
    with pytest.raises(ValueError):
        EngelOutcome(False, 3)
